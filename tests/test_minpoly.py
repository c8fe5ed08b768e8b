"""Two routes to the level-n minimal polynomial, plus the summation lemma."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from cospow.minpoly import (
    closed_minpoly,
    lemma_sum_identity,
    nested_minpoly,
    verify_halving_recursion,
    verify_minpoly_roots,
)

# frozen even-slot coefficients of f_5 (degree 16, ascending x^0, x^2, ...)
F5_EVEN = (1, -128, 2688, -21504, 84480, -180224, 212992, -131072, 32768)

# sha256 of ",".join(format(c, "x") for c in f_n.coeffs), n = 13 and 14
N13_DIGEST = ("f21a7d4449030d2a6c3e4afd77157436"
              "feacd4044633bc6468583ceb7bb37b9b")
N14_DIGEST = ("1de620f6343b1331272b7c9bbf519970"
              "e315ee258e8644aac06ebdd36e471169")


def _hex_digest(f) -> str:
    return hashlib.sha256(
        ",".join(format(c, "x") for c in f.coeffs).encode()).hexdigest()


def test_closed_n2():
    assert closed_minpoly(2).coeffs == (1, 0, -2)


def test_closed_n3():
    # f_3 = 1 - 8x^2 + 8x^4
    assert closed_minpoly(3).coeffs == (1, 0, -8, 0, 8)


def test_closed_n5_frozen():
    f = closed_minpoly(5)
    assert f.degree == 16
    assert f.coeffs[1::2] == (0,) * 8
    assert f.coeffs[::2] == F5_EVEN


def test_nested_equals_closed():
    for n in range(3, 13):
        assert nested_minpoly(n) == closed_minpoly(n), \
            f"forms disagree at n={n}"


def test_nested_n13_digest():
    """Both routes at n = 13 against the sha256 of the hex coefficients,
    recorded once."""
    for f in (nested_minpoly(13), closed_minpoly(13)):
        assert _hex_digest(f) == N13_DIGEST


def test_nested_n14_digest():
    """Both routes at n = 14, where the nested route's last squarings run
    in decimal, against the digest recorded once from the base-2 route."""
    for f in (nested_minpoly(14), closed_minpoly(14)):
        assert _hex_digest(f) == N14_DIGEST


def test_nested_equals_closed_n15():
    """n = 15, past the levels the CLI serves: 8,193 coefficients in w,
    whose slots of 3,425 digits are read in pieces."""
    assert nested_minpoly(15) == closed_minpoly(15)


def test_nested_rejects_n2():
    with pytest.raises(ValueError):
        nested_minpoly(2)
    with pytest.raises(ValueError):
        closed_minpoly(1)


def test_roots_vanish(ctx, ctx_hi):
    for n in range(2, 8):
        assert verify_minpoly_roots(n, ctx) < ctx.tolerance, n
    # at n = 8 the ~2^127 coefficients amplify 256-bit rounding past the
    # default tolerance; the check stays meaningful with more headroom
    assert verify_minpoly_roots(8, ctx_hi) < ctx_hi.tolerance


def test_halving_recursion():
    for n in range(2, 9):
        assert verify_halving_recursion(n)


def test_halving_rejects_n1():
    with pytest.raises(ValueError):
        verify_halving_recursion(1)


def test_leading_and_constant_terms():
    """Constant term 1 always; leading coefficient 2^{2^{n-1}-1} once the
    top-degree slot m = 2^{n-2} is even, which is every n except n = 2."""
    assert closed_minpoly(2).coeffs[-1] == -2
    for n in range(2, 9):
        f = closed_minpoly(n)
        assert f.coeffs[0] == 1
        if n >= 3:
            assert f.coeffs[-1] == 2 ** (2 ** (n - 1) - 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64).flatmap(
    lambda r: st.tuples(st.just(r), st.integers(1, r))))
def test_lemma_identity_sampled(rk):
    r, k = rk
    lhs, rhs = lemma_sum_identity(r, k)
    assert lhs == rhs


def test_lemma_identity_edges():
    for r in (1, 2, 3, 64):
        for k in (1, r):
            lhs, rhs = lemma_sum_identity(r, k)
            assert lhs == rhs
    with pytest.raises(ValueError):
        lemma_sum_identity(3, 4)
    with pytest.raises(ValueError):
        lemma_sum_identity(3, 0)


def test_lemma_endpoint_value():
    """At k = r the closed form reads (-1)^r 2^r C(3r, r)/(3r)."""
    from fractions import Fraction

    from cospow.exact import binom_int

    for r in (1, 2, 3, 5, 8):
        lhs, rhs = lemma_sum_identity(r, r)
        sign = -1 if r % 2 else 1
        assert lhs == rhs == Fraction(sign * 2**r * binom_int(3 * r, r), 3 * r)
