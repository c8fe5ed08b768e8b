"""The level tables and the oracle's scalar sums, which EvalContext runs
on mpmath's raw tuples, against the mpf-object loops they replaced
(reference.py): bit for bit, at 64, 65, 128, 256 and 2048 bits and at
levels sampled from 3..12."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from cospow.even_power import even_matrix
from cospow.exact import Basis, EvalContext
from cospow.negative_power import (S_closed_form, direct_csc_power_sum,
                                   matrix_neg1, matrix_neg3, matrix_neg5)
from cospow.odd_power import matrix_scatter, sine_basis_variant, verify_numeric
from cospow.zeta import (_zeta_weights, zeta3_weighted, zeta5_weighted,
                         zeta_sine_sum)
from reference import (mpf_direct_csc_power_sum, mpf_max_residual,
                       mpf_weighted_csc_sum, mpf_zeta_sine_sum)

PRECISIONS = (64, 65, 128, 256, 2048)
# every other level at each precision, alternating between precisions, so
# each of 3..12 is met at two or three of them
LEVELS = {prec: range(3 + j % 2, 13, 2) for j, prec in enumerate(PRECISIONS)}


def _bits(x):
    return x._mpf_


@pytest.mark.parametrize("prec", PRECISIONS)
def test_element_is_the_one_expression(prec):
    """Basis.element(k) and Basis.values are g(ctx.pi * t / 2**n), t = 2k+1
    on the odd bases and 2k on the even one, as mpf operators give it."""
    ctx = EvalContext(prec)
    for n in LEVELS[prec]:
        for kind in ("odd_cos", "even_cos", "odd_sin"):
            b = Basis(kind, n)
            g = ctx.sin if kind == "odd_sin" else ctx.cos
            odd = kind != "even_cos"
            for k in (0, 1, b.dim // 2, b.dim - 1):
                want = _bits(g(ctx.pi * (2 * k + odd) / 2**n))
                assert _bits(b.element(k, ctx)) == want, (kind, n, k)
                assert _bits(b.values(ctx)[k]) == want, (kind, n, k)


_EXACT = st.one_of(
    st.integers(-2**64, 2**64), st.integers(-2**5000, 2**5000),
    st.builds(Fraction, st.integers(-2**3000, 2**3000),
              st.integers(1, 2**3000)),
    st.builds(Fraction, st.integers(-2**40, 2**40), st.integers(1, 99)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRECISIONS) | st.integers(64, 4096), _EXACT)
def test_to_real_rounds_as_mpf_objects(prec, x):
    """to_real of an int or a Fraction, on libmp tuples: bit for bit mpf(x),
    and mpf(numerator) / mpf(denominator) for a Fraction."""
    with mpmath.mp.workprec(prec):
        mpf = mpmath.mp.mpf
        want = mpf(x.numerator) / mpf(x.denominator) \
            if isinstance(x, Fraction) else mpf(x)
        assert _bits(EvalContext(prec).to_real(x)) == _bits(want)


# (power, matrix builder, highest level) over all three bases, the level
# capped where the entries grow wide
_MATRICES = [
    pytest.param(1, lambda n: matrix_scatter(1, n), 12, id="cos^1"),
    pytest.param(7, lambda n: matrix_scatter(7, n), 10, id="cos^7"),
    pytest.param(63, lambda n: matrix_scatter(63, n), 10, id="cos^63"),
    pytest.param(4095, lambda n: matrix_scatter(4095, n), 7, id="cos^4095"),
    pytest.param(7, lambda n: sine_basis_variant(matrix_scatter(7, n)), 10,
                 id="sin^7"),
    pytest.param(2, lambda n: even_matrix(2, n), 12, id="cos^2"),
    pytest.param(12, lambda n: even_matrix(12, n), 10, id="cos^12"),
    pytest.param(-1, matrix_neg1, 12, id="cos^-1"),
    pytest.param(-3, matrix_neg3, 10, id="sin^-3"),
    pytest.param(-5, matrix_neg5, 10, id="sin^-5"),
]
# the level each precision verifies at below the cap: the widest levels
# at the cheapest precisions
_LEVEL_DROP = dict(zip(PRECISIONS, (0, 1, 3, 5, 7)))


@pytest.mark.parametrize("r, build, top", _MATRICES)
def test_verify_numeric(r, build, top):
    for prec, drop in _LEVEL_DROP.items():
        ctx = EvalContext(prec)
        m = build(max(3, top - drop))
        assert _bits(verify_numeric(m, r, ctx)) == \
            _bits(mpf_max_residual(m, r, ctx)), (prec, m.basis)


@pytest.mark.parametrize("prec", PRECISIONS)
def test_csc_power_sums(prec):
    """direct_csc_power_sum and S_closed_form(s, n).numeric, s = 2..8; the
    odd s read weighted_csc_sum with Fraction weights."""
    ctx = EvalContext(prec)
    for n in LEVELS[prec]:
        for s in range(2, 9):
            assert _bits(direct_csc_power_sum(s, n, ctx)) == \
                _bits(mpf_direct_csc_power_sum(s, n, ctx)), (s, n)
            closed = S_closed_form(s, n)
            want = ctx.to_real(closed.scalar) if s % 2 == 0 else \
                mpf_weighted_csc_sum(closed.csc_weights, n, ctx)
            assert _bits(closed.numeric(ctx)) == _bits(want), (s, n)


@pytest.mark.parametrize("prec", PRECISIONS)
def test_zeta_sums(prec):
    """zeta_sine_sum at int, float and Fraction s, and the weighted
    zeta(3), zeta(5) sums, whose weights are ints."""
    ctx = EvalContext(prec)
    for n in LEVELS[prec]:
        for s in (2, 2.5, 3, 7, Fraction(7, 2)):
            assert _bits(zeta_sine_sum(s, n, ctx).value) == \
                _bits(mpf_zeta_sine_sum(s, n, ctx)), (s, n)
        z3 = ctx.power(ctx.pi, 3) / (7 * 2 ** (3 * n - 4)) \
            * mpf_weighted_csc_sum(_zeta_weights(3, n), n, ctx)
        assert _bits(zeta3_weighted(n, ctx).value) == _bits(z3), n
        z5 = ctx.power(ctx.pi, 5) / (93 * 2 ** (5 * n - 6)) \
            * mpf_weighted_csc_sum(_zeta_weights(5, n), n, ctx)
        assert _bits(zeta5_weighted(n, ctx).value) == _bits(z5), n
