"""The package's public names, and the shape of every built matrix."""

import pytest

import cospow
from cospow import (chebyshev, cli, even_power, exact, minpoly,
                    negative_power, odd_power, series, zeta)
from cospow.even_power import even_matrix
from cospow.negative_power import (
    matrix_neg1,
    matrix_neg3,
    matrix_neg3_gather,
    matrix_neg5,
)
from cospow.odd_power import matrix_gather, matrix_scatter

# wrappers that only forwarded a call, unwrapped a field or copied a body,
# the restatements of the angle law that Basis.fold replaced (Basis.phase
# among them, now inside fold), names no code called, the hand-typed
# cosecant closed forms that negative_power.odd_csc_weights derives, and
# poly_mod_reduce and _wrapped_binomial, reference routes that only the
# tests call; DEFAULT_CONTEXT, ScaledMatrix.row and zeta's re-export of
# monic_two_cos_poly, which nothing in the package read
REMOVED = {
    exact: ("make_matrix", "int_mat_transpose", "poly_x", "poly_compose",
            "pochhammer", "fold_odd_cos_index", "fold_even_cos_index",
            "DyadicAngle", "poly_mod_reduce", "_wrapped_binomial",
            "DEFAULT_CONTEXT"),
    exact.Basis: ("phase",),
    exact.ScaledMatrix: ("row",),
    odd_power: ("scatter_target", "perm_sign", "PermSign"),
    chebyshev: ("identity_poly", "OddChebyshev"),
    minpoly: ("MinPolyPair", "minpoly_pair"),
    negative_power: ("csc3_weight", "csc5_weight", "row1_neg3", "row1_neg5",
                     "_row1_neg5_doubled", "_weight3", "_weight5",
                     "_weight7"),
    zeta: ("csc3_weight", "csc5_weight", "monic_two_cos_poly"),
    series: ("sec_power_series", "csc_power_series",
             "csc_power_cos2_series", "jordan_bounds_check", "STOP_RUN"),
}


def test_every_exported_name_resolves():
    assert len(set(cospow.__all__)) == len(cospow.__all__)
    for name in cospow.__all__:
        assert getattr(cospow, name) is not None, name


def test_removed_wrappers_are_gone():
    for module, names in REMOVED.items():
        for name in names:
            assert name not in cospow.__all__, name
            assert not hasattr(cospow, name), name
            assert not hasattr(module, name), (module.__name__, name)
    for name in ("eval_exact", "eval_real", "eval_complex"):
        assert not hasattr(exact.IntPolynomial, name), name
    for name in ("angle", "acos", "sqrt"):
        assert not hasattr(exact.EvalContext, name), name


def test_fold_and_sign_rules_stay_in_exact():
    """Every module past exact reads positions and signs through
    exact.Basis (fold or turn); none imports quarter_fold to restate the
    fold or its sign rule."""
    for module in (chebyshev, minpoly, odd_power, even_power,
                   negative_power, series, zeta, cli):
        assert not hasattr(module, "quarter_fold"), module.__name__


@pytest.mark.parametrize("n", range(3, 8))
def test_entries_are_tuples_of_ints(n):
    built = [matrix_scatter(r, n) for r in (1, 7, 2 ** n + 1)]
    built += [matrix_gather(r, n) for r in (1, 7, 2 ** n + 1)]
    built += [matrix_neg1(n), matrix_neg3(n), matrix_neg5(n),
              matrix_neg3_gather(n), even_matrix(2, n), even_matrix(10, n)]
    for m in built:
        assert type(m.entries) is tuple
        assert len(m.entries) == m.dim
        for row in m.entries:
            assert type(row) is tuple
            assert all(type(x) is int for x in row), row
