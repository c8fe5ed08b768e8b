"""Odd transforms p_i: recursion, identities, composition, inverses."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cospow.chebyshev import (
    closed_form_eval,
    coefficient_sum_identity,
    composition_commutes,
    compose_mod,
    inverse_index,
    odd_multiple_identity_check,
    p_poly,
    signed_composition_angle,
    signed_p_poly,
    verify_inverse_composition,
    verify_recursion,
    weighted_coefficient_sum_identity,
)
from cospow.exact import (
    EvalContext,
    IntPolynomial,
    odd_cos_basis,
)
from cospow.minpoly import closed_minpoly
from reference import poly_mod_reduce


def test_first_three_polys():
    assert p_poly(1).coeffs == (0, -1)
    assert p_poly(2).coeffs == (0, -3, 0, 4)
    assert p_poly(3).coeffs == (0, -5, 0, 20, 0, -16)


def test_degree_and_oddness():
    for i in range(1, 12):
        p = p_poly(i)
        assert p.degree == 2 * i - 1
        assert all(p.coeffs[k] == 0 for k in range(0, len(p.coeffs), 2))


def test_signed_poly_sign():
    assert signed_p_poly(1).coeffs == (0, 1)
    assert signed_p_poly(2) == p_poly(2)
    assert signed_p_poly(3) == -p_poly(3)


def test_recursion():
    assert verify_recursion(16)


def test_multiple_angle_identities(ctx):
    for i in (1, 2, 3, 5, 9):
        for theta in (Fraction(1, 7), Fraction(3, 5), 1.1):
            err_sin, err_cos = odd_multiple_identity_check(i, theta, ctx)
            assert err_sin < ctx.tolerance
            assert err_cos < ctx.tolerance


def test_closed_form_matches_poly(ctx):
    for i in (1, 2, 3, 6, 10):
        for x in (Fraction(1, 3), Fraction(-4, 5), Fraction(9, 10)):
            want = p_poly(i)(ctx.to_real(x))
            got = closed_form_eval(i, x, ctx)
            assert ctx.close(got, want, tol=ctx.power(ctx.two, -200))
    assert closed_form_eval(4, 0, ctx) == ctx.zero
    with pytest.raises(ValueError):
        closed_form_eval(2, 1, ctx)


def test_composition_commutes():
    for i in range(1, 9):
        for j in range(i, 9):
            assert composition_commutes(i, j)


def test_signed_composition_angle(ctx):
    """Fold of s_i acting on the j-th angle agrees with direct numerics."""
    n = 5
    for i in range(1, 9):
        for j in range(1, 2 ** (n - 2) + 1):
            k, sign = signed_composition_angle(i, j, n)
            x = ctx.cos(ctx.pi * (2 * j - 1) / 2**n)
            lhs = signed_p_poly(i)(x)
            rhs = sign * ctx.cos(ctx.pi * (2 * k - 1) / 2**n)
            assert ctx.close(lhs, rhs)


def test_inverse_index_example():
    assert inverse_index(2, 3) == 6


def test_inverse_index_range_check():
    with pytest.raises(ValueError):
        inverse_index(5, 4)
    with pytest.raises(ValueError):
        inverse_index(0, 4)


def test_inverse_index_closes_to_identity_angle():
    """Composing angle maps i then inverse_index(i) lands on angle 1
    with positive sign, for every canonical index."""
    for n in range(3, 8):
        for i in range(1, 2 ** (n - 2) + 1):
            k = inverse_index(i, n)
            t = (2 * i - 1) * (2 * k - 1)
            assert odd_cos_basis(n).fold(t) == (0, 1)


def test_inverse_composition_mod_minpoly():
    for n in range(3, 7):
        for i in range(1, 2 ** (n - 2) + 1):
            assert verify_inverse_composition(i, n), (i, n)


def test_compose_mod_basic():
    f = closed_minpoly(3)
    x = IntPolynomial([0, 1])
    assert compose_mod(x, x, f) == (Fraction(0), Fraction(1))
    # degree is always reduced below deg f
    p5 = p_poly(5)
    rem = compose_mod(p5, p5, f)
    assert len(rem) <= f.degree


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 5), st.integers(1, 12), st.integers(1, 12))
def test_compose_mod_matches_fraction_route(n, i, j):
    """The dyadic Horner route against reducing the full composition."""
    f = closed_minpoly(n)
    p, q = signed_p_poly(i), signed_p_poly(j)
    expected = poly_mod_reduce(p.compose(q), f)
    assert compose_mod(p, q, f) == expected
    assert compose_mod(p, q, -f) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(-1000, 1000).filter(lambda c: abs(c) & (abs(c) - 1)),
       st.lists(st.integers(-50, 50), max_size=6))
def test_compose_mod_rejects_non_dyadic_lead(lead, low):
    f = IntPolynomial(low + [lead])
    x = IntPolynomial([0, 1])
    with pytest.raises(ValueError):
        compose_mod(x, x, f)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40))
def test_coefficient_sum_identity(i):
    lhs, rhs = coefficient_sum_identity(i)
    assert lhs == rhs == Fraction((-1) ** i * 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40).flatmap(
    lambda i: st.tuples(st.just(i), st.integers(2, i))))
def test_weighted_coefficient_sum_identity(ij):
    i, j = ij
    lhs, rhs = weighted_coefficient_sum_identity(i, j)
    assert lhs == rhs


def test_weighted_identity_full_small_range():
    for i in range(2, 21):
        for j in range(2, i + 1):
            lhs, rhs = weighted_coefficient_sum_identity(i, j)
            assert lhs == rhs, (i, j)
    with pytest.raises(ValueError):
        weighted_coefficient_sum_identity(3, 5)
