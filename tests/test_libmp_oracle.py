"""The level tables and the oracle's scalar sums, which EvalContext runs
on plain ints, against the mpf-object loops they replaced (reference.py):
bit for bit, at 64, 65, 128, 256 and 2048 bits and at levels sampled from
3..12, and on drawn mpfs through every branch of mpmath's mpf_pow_int."""

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
                       mpf_power_sum, mpf_quotient_sum, mpf_row_residual,
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
    """to_real of an int or a Fraction, rounded on plain ints: bit for bit
    mpf(x), and mpf(numerator) / mpf(denominator) for a Fraction."""
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


# The scalar sums' int kernels on drawn mpfs, against the mpf loops: every
# branch of mpmath's mpf_pow_int, signs and zeros, weights of every kind.

def _mpf(ctx, man, exp):
    """man 2^exp as an mpf of ctx, exact for man within its precision."""
    return ctx.to_real(Fraction(man) * Fraction(2)**exp)


def _outcome(call):
    """The result's raw tuple, or the type of the exception it raised."""
    try:
        return _bits(call())
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


@st.composite
def _values(draw, ctx, bits, lo=-60, hi=60, zeros=False, size=6):
    """Up to size mpfs of ctx, each a signed odd mantissa of exactly
    `bits` bits (mpf_pow_int's bc) times 2^lo..2^hi, or, when zeros is
    set, zero."""
    out = []
    for _ in range(draw(st.integers(1, size))):
        if zeros and draw(st.integers(0, 3)) == 0:
            out.append(ctx.zero)
            continue
        man = 1 if bits == 1 else 2 * draw(
            st.integers(2**(bits - 2), 2**(bits - 1) - 1)) + 1
        out.append(_mpf(ctx, draw(st.sampled_from((man, -man))),
                        draw(st.integers(lo, hi))))
    return out


# (precision, mantissa bits, exponent): n = 0, +-1 and 2; the exact power
# on both sides of bc n = 1000 (37 * 27 = 999, 40 * 25 = 1000), also as
# the power -n at prec + 5 behind a negative n; a power of two past the
# boundary; binary powering, up to r = 4095 at 2048 bits
_POWER_BRANCHES = [
    (64, 64, 0), (64, 64, 1), (64, 64, -1), (64, 33, 2), (65, 65, -2),
    (256, 37, 27), (256, 37, 28), (128, 40, 24), (128, 40, 25),
    (128, 40, -24), (128, 40, -25), (65, 1, 5000), (65, 1, -5000),
    (256, 256, 7), (256, 200, -7), (384, 384, 63), (2048, 2048, 4095),
    (2048, 2048, -4095),
]


@pytest.mark.parametrize("prec, bits, n", _POWER_BRANCHES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_power_sum_branches(prec, bits, n, data):
    """power_sum with an int exponent, bit for bit the mpf loop over
    signed values whose exponents spread wide enough that some partial
    sums skip the far operand."""
    ctx = EvalContext(prec)
    values = data.draw(_values(ctx, bits))
    assert _bits(ctx.power_sum(values, n)) == \
        _bits(mpf_power_sum(values, n, 0, ctx)), (values, n)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((64, 65, 128)), st.sampled_from((1, -1, 3)), st.data())
def test_power_sum_partial_sums(prec, n, data):
    """Partial sums of values of every width, powers of two among them,
    spread over 4 prec bits, so that operands cancel and sit on either
    side of the distance at which _sum skips the far one."""
    ctx = EvalContext(prec)
    values = []
    for bits in data.draw(st.lists(st.integers(1, prec), min_size=1,
                                   max_size=8)):
        values += data.draw(_values(ctx, bits, -2 * prec, 2 * prec, size=1))
    assert _bits(ctx.power_sum(values, n)) == \
        _bits(mpf_power_sum(values, n, 0, ctx)), (values, n)


# mantissas found by search, each of which a power off mpf_pow_int's
# branch or working precision would round differently: at bc n = 1000,
# where mpf_pow_int truncates as it powers, one whose power is not the
# correctly rounded one and two that truncation one bit shorter or longer
# than prec + 4 bits(n) + 4 would move; at bc n = 999, one that truncated
# powering would round differently from the exact power
_SENSITIVE = [
    (200, 1510906186538223298558807887473308348503819111730386821964203, 5),
    (200, 1133573364760182332355131560145256168112846354127946172685245, 5),
    (200, 1170424234520516952813835052501446051814299882996461082785885, 5),
    (333, int("9033001258200832120170359479105728621620969876199708700648002"
              "003565806097769178836274279920747263289"), 3),
]


@pytest.mark.parametrize("prec, man, n", _SENSITIVE)
def test_power_follows_mpf_pow_int(prec, man, n):
    """man 2^-prec, a full-width value, to the power +-n."""
    ctx = EvalContext(prec)
    v = _mpf(ctx, man, -prec)
    for s in (n, -n):
        assert _bits(ctx.power_sum([v], s)) == \
            _bits(mpf_power_sum([v], s, 0, ctx)), s


@pytest.mark.parametrize("prec", (64, 65, 128))
def test_far_partial_sums(prec):
    """+-1 plus b = +-(2^bits - 1) 2^-d for d either side of prec + bits
    + 4, past which _sum no longer aligns the two, and of prec + bits,
    past which b no longer moves the rounded sum."""
    ctx = EvalContext(prec)
    one = ctx.one
    for bits in (1, 2, 5, prec):
        man = 2**bits - 1
        for d in range(prec + bits - 8, prec + bits + 9):
            for a in (one, -one):
                for b in (_mpf(ctx, man, -d), _mpf(ctx, -man, -d)):
                    assert _bits(ctx.power_sum([a, b], 1)) == \
                        _bits(mpf_power_sum([a, b], 1, 0, ctx)), (a, b)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((64, 65, 128, 2048)), st.integers(0, 20),
       st.sampled_from((-7, -2, 3, 2.0, -3.0, 2.5, -2.5, Fraction(7, 2),
                        Fraction(-1, 3))), st.data())
def test_power_sum_shift_and_fractional_exponent(prec, shift, s, data):
    """A nonzero shift, and exponents an mpf reads as integral (2.0, -3.0)
    or fractional, which keep the libmp loop, on positive values."""
    ctx = EvalContext(prec)
    values = [abs(v) for v in data.draw(_values(ctx, min(prec, 60)))]
    assert _bits(ctx.power_sum(values, s, shift)) == \
        _bits(mpf_power_sum(values, s, shift, ctx)), (values, s, shift)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((64, 128)), st.sampled_from((-3, -1, 0, 1, 2, 3, 2.5)),
       st.data())
def test_power_sum_signs_and_zeros(prec, s, data):
    """Negative and zero values: the mpf loop's result, or its exception
    (ZeroDivisionError for zero to a negative power). A fractional power
    of a negative value is complex, which power_sum does not serve, so
    the values are made nonnegative for s = 2.5."""
    ctx = EvalContext(prec)
    values = data.draw(_values(ctx, prec - 1, zeros=True))
    if s == 2.5:
        values = [abs(v) for v in values]
    assert _outcome(lambda: ctx.power_sum(values, s)) == \
        _outcome(lambda: mpf_power_sum(values, s, 0, ctx)), (values, s)


def _weights(prec):
    big = 2**(prec + 80)
    return st.lists(st.one_of(
        st.integers(-2**20, 2**20), st.integers(-big, big), st.just(0),
        st.builds(Fraction, st.integers(-big, big)),
        st.builds(Fraction, st.integers(-big, big), st.integers(1, big)),
        st.builds(Fraction, st.integers(-99, 99), st.integers(1, 99))),
        max_size=6)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((64, 65, 128, 2048)), st.data())
def test_quotient_sum_weights(prec, data):
    """Int weights past 2^prec, negative and zero weights, integral and
    non-integral Fractions, zero values and empty inputs: the mpf loop's
    result or its exception."""
    ctx = EvalContext(prec)
    weights = data.draw(_weights(prec))
    values = data.draw(_values(ctx, min(prec, 90), zeros=True))
    if data.draw(st.booleans()):
        values = [v for v in values if v]
    assert _outcome(lambda: ctx.quotient_sum(weights, values)) == \
        _outcome(lambda: mpf_quotient_sum(weights, values, ctx)), (
            weights, values)
    assert _bits(ctx.quotient_sum([], [])) == _bits(ctx.zero)
    assert _bits(ctx.quotient_sum(weights, [])) == _bits(ctx.zero)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((64, 65, 128, 2048)), st.integers(-3, 3),
       st.sampled_from((1, 2, 3, -1, -3, 7)), st.data())
def test_max_residual_zero_gaps_and_ties(prec, log2_denom, r, data):
    """Rows whose left side is the scaled row sum itself (at r = 1 a gap
    of exactly zero), and, in half the draws, every row paired with its
    negation against the negated left side, so each gap is tied in size
    with another of the opposite sign. A row sum of zero to a negative
    power raises ZeroDivisionError on both sides."""
    ctx = EvalContext(prec)
    values = data.draw(_values(ctx, min(prec, 60), lo=-12, hi=2))
    dim = len(values)
    rows = data.draw(st.lists(st.lists(st.integers(-2**70, 2**70),
                                       min_size=dim, max_size=dim),
                              min_size=1, max_size=4))
    lhs = [s / 2**log2_denom for s in ctx.row_sums(rows, values)]
    if data.draw(st.booleans()):
        lhs = [g * (1 + ctx.tolerance) for g in lhs]
    if data.draw(st.booleans()):
        rows += [[-x for x in row] for row in rows]
        lhs += [-g for g in lhs]
    assert _outcome(lambda: ctx.max_residual(rows, values, lhs, r,
                                             log2_denom)) == \
        _outcome(lambda: mpf_row_residual(rows, values, lhs, r, log2_denom,
                                          ctx)), (rows, values, lhs, r)
