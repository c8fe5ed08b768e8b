"""Zeta approximations: references, power averages, series, level identities."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cospow import zeta
from cospow.even_power import integer_power_average
from cospow.exact import EvalContext, odd_sin_basis
from cospow.minpoly import monic_two_cos_poly
from cospow.negative_power import weighted_csc_sum
from cospow.zeta import (
    METHOD_BINOMIAL,
    METHOD_SINE_SUM,
    STATUS_EXHAUSTED,
    STATUS_OK,
    ZETA3,
    ZETA5,
    AvgPowers,
    bernoulli_closed_value,
    bernoulli_limit_check,
    bernoulli_numbers,
    finite_level_identity,
    odd_power_vanishing_residual,
    reference_even_zeta,
    reference_zeta,
    _average_floors,
    _average_stream,
    _level_series,
    _tail_ratio_above,
    _zeta_weights,
    zeta3_weighted,
    zeta5_weighted,
    zeta_binomial_series,
    zeta_sine_sum,
)
from reference import exact_level_series


class TestReferences:
    def test_bernoulli_numbers(self):
        bs = bernoulli_numbers(10)
        assert bs[0] == 1
        assert bs[1] == Fraction(-1, 2)
        assert bs[2] == Fraction(1, 6)
        assert bs[4] == Fraction(-1, 30)
        assert bs[6] == Fraction(1, 42)
        assert bs[8] == Fraction(-1, 30)
        assert bs[10] == Fraction(5, 66)
        assert bs[3] == bs[5] == bs[7] == bs[9] == 0
        with pytest.raises(ValueError):
            bernoulli_numbers(-1)

    def test_even_zeta_rationals(self):
        assert reference_even_zeta(1) == Fraction(1, 6)
        assert reference_even_zeta(2) == Fraction(1, 90)
        assert reference_even_zeta(3) == Fraction(1, 945)
        assert reference_even_zeta(4) == Fraction(1, 9450)
        assert reference_even_zeta(5) == Fraction(1, 93555)
        with pytest.raises(ValueError):
            reference_even_zeta(0)

    def test_reference_zeta_dispatch(self, ctx):
        assert ctx.close(reference_zeta(2, ctx), ctx.pi**2 / 6)
        assert ctx.close(reference_zeta(4.0, ctx), ctx.pi**4 / 90)
        assert reference_zeta(7, ctx) is None
        assert reference_zeta(2.5, ctx) is None
        assert ctx.close(reference_zeta(3, ctx), ctx.to_real(ZETA3))

    def test_frozen_constants_against_tail_estimate(self, ctx):
        """Independent check of the stored zeta(3), zeta(5) digits: partial
        sum of k^{-s} plus an Euler-Maclaurin tail, good to ~1e-18 at
        N=256, which is plenty to catch a transcription slip."""
        bign = 256
        for s, frozen in ((3, ZETA3), (5, ZETA5)):
            partial = ctx.zero
            for k in range(1, bign + 1):
                partial += ctx.power(ctx.to_real(k), -s)
            nr = ctx.to_real(bign)
            tail = (nr ** (1 - s) / (s - 1) - nr ** (-s) / 2
                    + s * nr ** (-s - 1) / 12)
            est = partial + tail
            assert ctx.fabs(est - ctx.to_real(frozen)) < ctx.to_real(1e-15)


class TestAvgPowers:
    def test_monic_poly_small_levels(self):
        assert monic_two_cos_poly(2).coeffs == (-2, 0, 1)
        assert monic_two_cos_poly(3).coeffs == (2, 0, -4, 0, 1)

    def test_matches_binomial_route(self):
        for level in (2, 3, 4, 5, 6):
            a = AvgPowers(level)
            for p in range(0, 61):
                want = 1 if p == 0 else integer_power_average(p, level)
                assert a.avg(p) == want, (level, p)

    def test_validation(self):
        with pytest.raises(ValueError):
            AvgPowers(1)
        with pytest.raises(ValueError):
            AvgPowers(4).avg(-1)

    def test_stream_matches_stored_averages(self):
        """The series routes' window of the last dim averages against
        AvgPowers, which keeps them all: same Newton step, other storage."""
        for level in range(2, 7):
            a = AvgPowers(level)
            stream = _average_stream(level)
            for p in range(3001):
                assert next(stream) == a.avg(p), (level, p)


class TestSineSum:
    def test_s2_exact_every_level(self, ctx):
        target = ctx.pi**2 / 6
        for n in (3, 5, 8, 10):
            res = zeta_sine_sum(2, n, ctx)
            assert ctx.fabs(res.value - target) < ctx.power(ctx.two, -200)
            assert res.method == METHOD_SINE_SUM
            assert res.terms_used == 0
            assert res.status == STATUS_OK

    def test_error_shrinks_with_level(self, ctx):
        for s in (3, 4, 5):
            prev = None
            for n in range(5, 11):
                err = zeta_sine_sum(s, n, ctx).reference_error
                if prev is not None:
                    assert err * 3 < prev, (s, n)
                prev = err

    def test_s3_level10_close(self, ctx):
        res = zeta_sine_sum(3, 10, ctx)
        assert res.reference_error < ctx.to_real(1e-4)

    def test_noninteger_s_has_no_reference(self, ctx):
        res = zeta_sine_sum(2.5, 5, ctx)
        assert res.reference_error is None
        # still bracketed by the neighbors
        assert float(reference_zeta(3, ctx)) < float(res.value) \
            < float(reference_zeta(2, ctx))

    def test_validation(self, ctx):
        with pytest.raises(ValueError):
            zeta_sine_sum(1, 5, ctx)
        with pytest.raises(ValueError):
            zeta_sine_sum(3, 2, ctx)


class TestBinomialSeries:
    def test_s2_level4(self, ctx):
        res = zeta_binomial_series(2, 4, 5000, ctx)
        assert res.status == STATUS_OK
        assert res.method == METHOD_BINOMIAL
        assert res.reference_error < ctx.power(ctx.two, -40)
        assert res.tail_ratio == pytest.approx(0.85355339, abs=1e-6)

    def test_agrees_with_sine_sum(self, ctx):
        for s in (2, 3):
            for n in (3, 4, 5):
                b = zeta_binomial_series(s, n, 6000, ctx)
                z = zeta_sine_sum(s, n, ctx)
                assert ctx.fabs(b.value - z.value) < ctx.power(ctx.two, -40)

    def test_exhaustion_reported(self, ctx):
        res = zeta_binomial_series(3, 5, 5, ctx)
        assert res.status == STATUS_EXHAUSTED
        assert res.terms_used == 5

    def test_validation(self, ctx):
        with pytest.raises(ValueError):
            zeta_binomial_series(0.5, 4, 100, ctx)
        with pytest.raises(ValueError):
            zeta_binomial_series(2, 2, 100, ctx)


@pytest.mark.parametrize("as_mpf", (False, True), ids=("float", "mpf"))
@pytest.mark.parametrize("s", (math.inf, -math.inf, math.nan), ids=str)
@pytest.mark.parametrize("route, call", [
    ("zeta_sine_sum", lambda s, ctx: zeta_sine_sum(s, 3, ctx)),
    ("zeta_binomial_series",
     lambda s, ctx: zeta_binomial_series(s, 3, 10, ctx)),
], ids=("sine_sum", "binomial"))
def test_non_finite_s_rejected(route, call, s, as_mpf):
    """The CLI's rule: a non-finite s raises ValueError. At s = +inf the
    sine sum gave NaN with status ok, and the binomial series NaN with
    status ok (mpf s) or OverflowError (float s)."""
    ctx = EvalContext(128)
    with pytest.raises(ValueError, match=f"^{route} requires finite s > 1$"):
        call(ctx.to_real(s) if as_mpf else s, ctx)


@pytest.mark.parametrize("s", (1, 0.5, -3, Fraction(1, 2)))
def test_finite_s_at_most_one_keeps_its_message(s):
    ctx = EvalContext(128)
    for route, call in (("zeta_sine_sum", zeta_sine_sum),
                        ("zeta_binomial_series",
                         lambda s, n, c: zeta_binomial_series(s, n, 10, c))):
        for value in (s, ctx.to_real(s)):
            with pytest.raises(ValueError, match=f"^{route} requires s > 1$"):
                call(value, 3, ctx)


PRECISIONS = (128, 256)
LEVELS = (3, 4, 5, 6)


def _run_rule_sum(terms, ctx, max_terms: int):
    """The 50-term run rule, kept here so the reference stays independent
    of the kernel under test: stop once 50 consecutive terms are each
    below tolerance/4 relative to the partial sum. Returns the sum and
    whether the run completed within max_terms."""
    cutoff = ctx.tolerance / 4
    total = ctx.zero
    run = 0
    for used, term in enumerate(terms, start=1):
        total += term
        scale = ctx.fabs(total)
        run = run + 1 if ctx.fabs(term) < (
            cutoff * scale if scale > 0 else cutoff) else 0
        if run >= 50:
            return total, True
        if used >= max_terms:
            return total, False


def reference_binomial_series(s, n: int, max_terms: int, ctx):
    """zeta_binomial_series read straight off its definition: one mpf term
    per power average, summed under the 50-term run rule (the route before
    the fixed-point kernel). Run at twice the precision, its tolerance is
    the square of the kernel's, so it serves as the reference value."""
    averages = AvgPowers(n - 1)
    s2 = ctx.to_real(s) / 2

    def terms():
        coef = ctx.one
        pow2 = ctx.two
        p = 0
        while True:
            yield pow2 * coef * ctx.to_real(averages.avg(p))
            coef = coef * (s2 + 2 * p) * (s2 + 2 * p + 1) \
                / ((2 * p + 1) * (2 * p + 2))
            pow2 /= 4
            p += 1

    total, converged = _run_rule_sum(terms(), ctx, max_terms)
    p2s = ctx.power(ctx.two, s)
    pref = ctx.power(ctx.two, 3 * s2 - n * ctx.to_real(s) + n - 3) \
        * ctx.power(ctx.pi, s) / (p2s - 1)
    return pref * total, converged


@settings(max_examples=20, deadline=None)
@given(st.one_of(st.integers(2, 8),
                 st.floats(1, 8, exclude_min=True)),
       st.integers(3, 5), st.sampled_from(PRECISIONS))
def test_kernel_matches_reference_route(s, n, prec):
    ctx = EvalContext(prec)
    hi = EvalContext(2 * prec)
    res = zeta_binomial_series(s, n, 10000, ctx)
    ref, ref_converged = reference_binomial_series(s, n, 20000, hi)
    assert res.status == STATUS_OK and ref_converged
    assert hi.fabs(hi.to_real(res.value) - ref) \
        <= hi.to_real(ctx.tolerance) * ref


class TestCertifiedStop:
    """status ok (converged) must mean the error is below tolerance. The
    run rule the routes used before reported ok at n = 6 with 16 times
    the tolerance; these fail there."""

    @pytest.mark.parametrize("prec", PRECISIONS)
    @pytest.mark.parametrize("n", LEVELS)
    def test_binomial_s2(self, n, prec):
        # the level sum is exactly pi^2/6: the error is pure truncation
        ctx = EvalContext(prec)
        res = zeta_binomial_series(2, n, 10000, ctx)
        assert res.status == STATUS_OK
        target = ctx.pi**2 / 6
        assert ctx.fabs(res.value - target) <= ctx.tolerance * target

    @pytest.mark.parametrize("prec", PRECISIONS)
    @pytest.mark.parametrize("n", LEVELS)
    def test_bernoulli_j1(self, n, prec):
        ctx = EvalContext(prec)
        chk = bernoulli_limit_check(1, n, 10000, ctx)
        assert chk.converged
        assert chk.gap <= ctx.tolerance / 2

    @pytest.mark.parametrize("prec", PRECISIONS)
    @pytest.mark.parametrize("n", LEVELS)
    @pytest.mark.parametrize("s", (3, 5))
    def test_level_identity(self, s, n, prec):
        ctx = EvalContext(prec)
        li = finite_level_identity(s, n, 10000, ctx)
        assert li.converged
        assert li.gap <= ctx.tolerance * ctx.fabs(li.rhs)

    def test_needs_more_terms_than_the_cap(self, ctx):
        # at s = 7, n = 6 the error after 10000 terms is ~11 tolerances
        res = zeta_binomial_series(7, 6, 10000, ctx)
        assert res.status == STATUS_EXHAUSTED
        assert res.terms_used == 10000

    @pytest.mark.parametrize("cap", (1, 2, 37))
    def test_max_terms_honoured_exactly(self, ctx, cap):
        res = zeta_binomial_series(3, 5, cap, ctx)
        assert (res.status, res.terms_used) == (STATUS_EXHAUSTED, cap)
        with pytest.raises(ValueError):
            zeta_binomial_series(3, 5, 0, ctx)

    def test_tail_ratio_bound(self):
        hi = EvalContext(256)
        for n in range(3, 13):
            r = hi.cos(hi.pi / 2 ** (n - 1)) ** 2
            bound = hi.to_real(_tail_ratio_above(n)) / hi.power(hi.two, 64)
            assert r <= bound < r + hi.to_real(1e-10), n
            assert math.cos(math.pi / 2 ** (n - 1)) ** 2 \
                == pytest.approx(float(bound), abs=1e-10)


def _same_result(got, want) -> bool:
    """Two SeriesResults agree bit for bit: the value's mantissa and
    exponent, the terms used and the stop."""
    return (got.value.man_exp, got.terms_used, got.converged) \
        == (want.value.man_exp, want.terms_used, want.converged)


def _floor_budget(n: int, prec: int) -> int:
    """The exact reference route costs about dim p^2 bit operations: run
    it to the certified stop where that is cheap, else for a budget it
    exhausts, with the fixed-point tail still well past its switch."""
    return 10000 if n <= 5 or (n, prec) == (6, 64) else 1500


SERIES_AS = (Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2),
             Fraction(5, 2), Fraction(7, 2))


class TestCertifiedFloors:
    """The fixed-point tail of the power averages must give the exact
    stream's floors, so the level series equals the exact route's bit
    for bit."""

    @pytest.mark.parametrize("prec", (64, 128, 256, 512))
    @pytest.mark.parametrize("n", (3, 4, 5, 6, 7))
    def test_matches_exact_route(self, n, prec):
        ctx = EvalContext(prec)
        budget = _floor_budget(n, prec)
        for a in SERIES_AS:
            res = _level_series(a, n, budget, ctx)
            assert _same_result(res, exact_level_series(a, n, budget, ctx)), a
            if res.converged and res.terms_used > 1:
                # one term short of the stop: both routes exhaust there
                short = res.terms_used - 1
                got = _level_series(a, n, short, ctx)
                assert not got.converged and got.terms_used == short
                assert _same_result(
                    got, exact_level_series(a, n, short, ctx)), a

    def test_unsettled_floors_take_the_exact_route(self, monkeypatch):
        """Past the switch at level 3, a cut inside A(p)'s trailing zeros
        puts the floor exactly on an integer, which no error interval
        settles, and a cut of 0 leaves no fixed-point bits to read; both
        must come from the exact route, and give the exact floor."""
        taken = []

        def exact(p, level):
            taken.append(p)
            return integer_power_average(p, level)

        monkeypatch.setattr(zeta, "integer_power_average", exact)
        coef_bits = 200
        floors = _average_floors(3, coef_bits)
        next(floors)
        for p, avg in enumerate(_average_stream(3)):
            if p == 400:
                break
            cut = max(2 * p - coef_bits, 0)
            if p in (350, 351):
                cut = (avg & -avg).bit_length() - 1
            elif p == 352:
                cut = 0
            assert floors.send(cut) == avg >> cut, p
        assert taken == [350, 351, 352]

    def test_error_bound_constant(self):
        """The fixed-point error bound rests on prod sin^2 t_i = 2/4^dim
        over the level angles: the impulse response of the scaled
        recurrence sums to 2^{2 dim - 1}."""
        ctx = EvalContext(256)
        for level in range(3, 10):
            prod = ctx.one
            for sin in odd_sin_basis(level).values(ctx):
                prod *= sin * sin
            want = ctx.power(ctx.two, 1 - 2 * 2 ** (level - 2))
            assert ctx.fabs(prod - want) <= ctx.power(ctx.two, -240) * want

    def test_level_identity_exact_under_optimize(self, monkeypatch):
        """python -O strips asserts; the certified floors use none, so the
        level identity run there equals the exact route's."""
        code = ("from cospow.exact import EvalContext\n"
                "from cospow.zeta import finite_level_identity\n"
                "if __debug__:\n"
                "    raise SystemExit(2)\n"
                "li = finite_level_identity(3, 6, 10000, EvalContext(256))\n"
                "print(repr((li.lhs.man_exp, li.terms_used, "
                "li.converged)))\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        monkeypatch.setattr(zeta, "_level_series", exact_level_series)
        li = finite_level_identity(3, 6, 10000, EvalContext(256))
        assert proc.stdout.strip() \
            == repr((li.lhs.man_exp, li.terms_used, li.converged))


class TestWeighted:
    def test_weight_polynomials_vs_matrix_rows(self):
        from cospow.negative_power import matrix_neg3, matrix_neg5

        for n in (3, 4, 5, 6):
            assert _zeta_weights(3, n) \
                == [2 * x for x in matrix_neg3(n).entries[0]]
            if n >= 4:
                assert _zeta_weights(5, n) \
                    == [24 * x for x in matrix_neg5(n).entries[0]]
        # the half-integral level ties to the doubled matrix instead
        assert _zeta_weights(5, 3) == [36, 84]
        assert matrix_neg5(3).entries[0] == (3, 7)

    def test_rearrangement_of_sine_sum(self, ctx):
        """The weighted forms are exact rearrangements of the scaled sine
        sums, so the two values must match to rounding at every level."""
        for n in (3, 4, 7, 9):
            w3 = zeta3_weighted(n, ctx)
            assert ctx.fabs(w3.value - zeta_sine_sum(3, n, ctx).value) \
                < ctx.power(ctx.two, -200)
            w5 = zeta5_weighted(n, ctx)
            assert ctx.fabs(w5.value - zeta_sine_sum(5, n, ctx).value) \
                < ctx.power(ctx.two, -200)

    @pytest.mark.parametrize("prec", (64, 128, 256))
    def test_weights_convert_exactly(self, prec):
        """weighted_csc_sum puts each weight to the working precision before
        it divides; every zeta(3) and zeta(5) weight at n = 3..16 is exact
        there, so each quotient and the sum are bit for bit those of
        dividing by the int weight itself."""
        ctx = EvalContext(prec)
        for n in range(3, 17):
            sins = odd_sin_basis(n).values(ctx)
            for s in (3, 5):
                weights = _zeta_weights(s, n)
                tot = ctx.zero
                for w, sin in zip(weights, sins):
                    assert (ctx.to_real(w) / sin)._mpf_ == (w / sin)._mpf_, (
                        s, n, w)
                    tot += w / sin
                assert weighted_csc_sum(weights, n, ctx)._mpf_ == tot._mpf_

    def test_level10_close(self, ctx):
        assert zeta3_weighted(10, ctx).reference_error < ctx.to_real(1e-4)
        assert zeta5_weighted(10, ctx).reference_error < ctx.to_real(1e-4)

    def test_validation(self, ctx):
        with pytest.raises(ValueError):
            zeta3_weighted(2, ctx)
        with pytest.raises(ValueError):
            zeta5_weighted(2, ctx)


class TestLevelIdentities:
    def test_finite_level_s3(self, ctx):
        li = finite_level_identity(3, 4, 5000, ctx)
        assert li.converged
        assert li.gap < ctx.power(ctx.two, -40)

    def test_finite_level_s5(self, ctx):
        li = finite_level_identity(5, 4, 5000, ctx)
        assert li.converged
        assert li.gap < ctx.power(ctx.two, -40)

    def test_finite_level_s3_level5(self, ctx):
        li = finite_level_identity(3, 5, 8000, ctx)
        assert li.gap < ctx.power(ctx.two, -40)

    def test_validation(self, ctx):
        with pytest.raises(ValueError):
            finite_level_identity(4, 4, 100, ctx)
        with pytest.raises(ValueError):
            finite_level_identity(3, 2, 100, ctx)


class TestBernoulliLimit:
    def test_closed_values(self):
        assert bernoulli_closed_value(1) == Fraction(1, 2)
        # j=2: (-1)^3 (15) 2^0 (1/24) B_4 ... sign and scale collapse to 1/48
        assert bernoulli_closed_value(2) == Fraction(-15, 24) * Fraction(-1, 30)
        with pytest.raises(ValueError):
            bernoulli_closed_value(0)

    def test_j1_exact_at_every_level(self, ctx):
        for n in (4, 6):
            chk = bernoulli_limit_check(1, n, 20000, ctx)
            assert chk.closed_value == ctx.to_real(Fraction(1, 2))
            assert chk.gap < ctx.power(ctx.two, -80)
            assert chk.converged

    def test_j2_gap_shrinks(self, ctx):
        g4 = bernoulli_limit_check(2, 4, 20000, ctx).gap
        g6 = bernoulli_limit_check(2, 6, 20000, ctx).gap
        assert g6 * 4 < g4

    def test_validation(self, ctx):
        with pytest.raises(ValueError):
            bernoulli_limit_check(0, 4, 100, ctx)
        with pytest.raises(ValueError):
            bernoulli_limit_check(1, 2, 100, ctx)


def test_odd_power_vanishing(ctx):
    for n in (3, 5, 7):
        for p in (0, 7, 20):
            assert odd_power_vanishing_residual(p, n, ctx) \
                < ctx.power(ctx.two, -200)
    with pytest.raises(ValueError):
        odd_power_vanishing_residual(3, 2, ctx)
