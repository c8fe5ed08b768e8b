"""Series routes: finite multiples, generalized exponents, progression sums."""

import math
from fractions import Fraction

import pytest

from cospow.exact import EvalContext
from cospow.series import (
    csc_power_cos2_series_result,
    csc_power_series_result,
    generalized_cos_series,
    generalized_sin_series,
    jordan_bounds,
    multiple_angle,
    multiple_angle_cos,
    multiple_angle_sin,
    sec_power_series_result,
    sine_progression_sum,
    sum_until_negligible,
)


class TestStopRule:
    """The kernel sums first * c_j * base^j, c_{j+1} = c_j * ratio(j)."""

    def test_zero_stream_stops_at_once(self, ctx):
        res = sum_until_negligible(ctx.zero, ctx.one, lambda j: 1, 0, ctx)
        assert res.converged
        assert res.terms_used == 1
        assert res.value == ctx.zero

    def test_zero_ratio_ends_exactly(self, ctx):
        res = sum_until_negligible(ctx.two, ctx.one, lambda j: 0, 5, ctx)
        assert res.converged
        assert res.terms_used == 1
        assert res.value == ctx.two

    def test_geometric(self, ctx):
        for base in (Fraction(1, 2), Fraction(-1, 2)):
            res = sum_until_negligible(ctx.one, ctx.to_real(base),
                                       lambda j: 1, 0, ctx)
            want = ctx.to_real(1 / (1 - base))
            assert res.converged
            assert ctx.fabs(res.value - want) <= ctx.tolerance * want

    def test_no_stop_before_settled(self, ctx):
        res = sum_until_negligible(ctx.one, ctx.to_real(Fraction(1, 2)),
                                   lambda j: 1, 300, ctx)
        assert res.converged
        assert res.terms_used == 301

    def test_max_terms_cutoff(self, ctx):
        # ratio 1 at base 1: q = 1 bounds no tail, so only max_terms ends it
        res = sum_until_negligible(ctx.one, ctx.one, lambda j: 1, 0, ctx,
                                   max_terms=7)
        assert not res.converged
        assert res.terms_used == 7
        assert res.value == 7
        with pytest.raises(ValueError):
            sum_until_negligible(ctx.one, ctx.one, lambda j: 1, 0, ctx,
                                 max_terms=0)

    def test_integer_exponent_terminates_exactly(self, ctx):
        theta = ctx.to_real(Fraction(3, 10))
        s_fin, c_fin = multiple_angle(6, theta, ctx)
        res = generalized_cos_series(6, theta, ctx)
        assert res.converged
        assert res.terms_used == 4
        assert ctx.close(res.value, c_fin)
        res = generalized_sin_series(6, theta, ctx)
        assert res.converged
        assert res.terms_used == 3
        assert ctx.close(res.value, s_fin)

    def test_finite_sum_cancelling_to_zero_is_unconverged(self, ctx):
        # cos(3 pi/6) = 0: the sum 1 - 3 tan^2 ends after 2 terms, but a
        # sum within rounding of zero has no relative bound to certify
        res = generalized_cos_series(3, ctx.pi / 6, ctx)
        assert res.terms_used == 2
        assert not res.converged
        assert ctx.fabs(res.value) < ctx.tolerance


class TestFiniteMultiples:
    def test_small_multiples(self, ctx):
        theta = ctx.to_real(Fraction(2, 7))
        s1, c1 = multiple_angle(1, theta, ctx)
        assert ctx.close(s1, ctx.sin(theta))
        assert ctx.close(c1, ctx.cos(theta))
        for n_mult in (3, 8, 13):
            s, c = multiple_angle(n_mult, theta, ctx)
            assert ctx.close(s, ctx.sin(n_mult * theta))
            assert ctx.close(c, ctx.cos(n_mult * theta))

    def test_zero_multiple(self, ctx):
        assert multiple_angle_cos(0, ctx.one, ctx) == 1
        assert multiple_angle_sin(0, ctx.one, ctx) == 0
        with pytest.raises(ValueError):
            multiple_angle(0, ctx.one, ctx)
        with pytest.raises(ValueError):
            multiple_angle_cos(-1, ctx.one, ctx)


class TestGeneralizedSeries:
    def test_integer_exponent_matches_finite(self, ctx):
        theta = ctx.to_real(Fraction(3, 10))
        for r in (1, 3, 6):
            s_fin, c_fin = multiple_angle(r, theta, ctx)
            s_ser = generalized_sin_series(r, theta, ctx, max_terms=4000)
            c_ser = generalized_cos_series(r, theta, ctx, max_terms=4000)
            assert s_ser.converged and c_ser.converged
            assert ctx.close(s_ser.value, s_fin)
            assert ctx.close(c_ser.value, c_fin)

    def test_half_exponent(self, ctx):
        theta = ctx.to_real(Fraction(3, 10))
        s = generalized_sin_series(Fraction(1, 2), theta, ctx, max_terms=4000)
        c = generalized_cos_series(Fraction(1, 2), theta, ctx, max_terms=4000)
        assert s.converged and c.converged
        bound = ctx.power(ctx.two, -80)
        assert ctx.fabs(s.value - ctx.sin(theta / 2)) < bound
        assert ctx.fabs(c.value - ctx.cos(theta / 2)) < bound

    def test_truncated_series_reports_unconverged(self):
        """Three terms of the r = 1/2 series at t = 0.7 miss sin(0.35) in
        the third digit (0.345788... against 0.342898...), and the result
        says so."""
        ctx = EvalContext(128)
        theta = ctx.to_real(Fraction(7, 10))
        res = generalized_sin_series(Fraction(1, 2), theta, ctx, max_terms=3)
        assert res.terms_used == 3
        assert not res.converged
        assert ctx.fabs(res.value - ctx.sin(theta / 2)) > ctx.power(10, -3)

    def test_negative_exponent(self, ctx):
        theta = ctx.to_real(Fraction(3, 10))
        res = generalized_cos_series(-3, theta, ctx)
        assert res.converged
        assert ctx.close(res.value, ctx.cos(-3 * theta))
        res = generalized_sin_series(-3, theta, ctx)
        assert ctx.close(res.value, ctx.sin(-3 * theta))

    def test_dominance_rejection(self, ctx):
        with pytest.raises(ValueError):
            generalized_cos_series(2, ctx.one, ctx)  # sin(1) > cos(1)
        with pytest.raises(ValueError):
            # just past pi/4, where the tangent ratio crosses 1
            generalized_sin_series(2, ctx.to_real(Fraction(79, 100)), ctx)


class TestSecCsc:
    def test_sec_both_divisors(self, ctx):
        theta = ctx.to_real(Fraction(3, 10))
        want = ctx.power(ctx.cos(theta), -3)
        for divisor in ("cos", "sin"):
            got = sec_power_series_result(3, theta, ctx, divisor=divisor,
                                          max_terms=4000).value
            assert ctx.close(got, want), divisor

    def test_sec_fractional(self, ctx):
        theta = ctx.to_real(Fraction(1, 4))
        want = ctx.power(ctx.cos(theta), ctx.to_real(-0.5))
        got = sec_power_series_result(0.5, theta, ctx, max_terms=4000).value
        assert ctx.fabs(got - want) < ctx.power(ctx.two, -80)

    def test_sec_divisor_vanishes(self, ctx):
        # at theta = 0 the sine divisor is exactly zero
        with pytest.raises(ValueError):
            sec_power_series_result(2, ctx.zero, ctx, divisor="sin",
                                    max_terms=100)
        # cos divisor at the same point is fine: sec^r(0) = 1
        got = sec_power_series_result(2, ctx.zero, ctx, max_terms=100).value
        assert ctx.close(got, ctx.one)

    @pytest.mark.parametrize("r, theta", ((3, 6), (4, 8)))
    def test_sec_divisor_rounds_to_nonzero(self, r, theta):
        # cos(r pi/theta) = cos(pi/2) is not exactly zero in mpf; the sine
        # divisor at the same point is 1
        ctx = EvalContext(128)
        t = ctx.pi / theta
        with pytest.raises(ValueError):
            sec_power_series_result(r, t, ctx, divisor="cos")
        res = sec_power_series_result(r, t, ctx, divisor="sin")
        assert res.converged
        want = ctx.power(ctx.cos(t), -r)
        assert ctx.fabs(res.value - want) <= ctx.tolerance * want

    def test_sec_bad_divisor_name(self, ctx):
        with pytest.raises(ValueError):
            sec_power_series_result(2, ctx.one / 4, ctx, divisor="tan",
                                    max_terms=100)

    def test_csc_via_complement(self, ctx):
        theta = ctx.to_real(Fraction(11, 10))  # sin dominant
        want = ctx.power(ctx.sin(theta), -3)
        got = csc_power_series_result(3, theta, ctx, max_terms=4000).value
        assert ctx.close(got, want)


class TestCscCos2Route:
    def test_example_csc_cubed(self, ctx):
        want = ctx.power(ctx.sin(ctx.pi / 8), -3)
        got = csc_power_cos2_series_result(3, ctx.pi / 8, ctx,
                                           max_terms=200).value
        assert ctx.fabs(got - want) < ctx.power(ctx.two, -60)

    def test_quarter_pi_single_term(self, ctx):
        # cos(2t) = 0 there, so the series collapses to its first term
        res = csc_power_cos2_series_result(3, ctx.pi / 4, ctx)
        assert res.converged
        assert ctx.close(res.value, ctx.power(ctx.two, ctx.to_real(1.5)))

    def test_domain_rejection(self, ctx):
        with pytest.raises(ValueError):
            csc_power_cos2_series_result(3, ctx.zero, ctx, max_terms=100)
        with pytest.raises(ValueError):
            csc_power_cos2_series_result(3, ctx.pi / 2, ctx, max_terms=100)

    def test_fractional_exponent(self, ctx):
        theta = ctx.to_real(Fraction(7, 10))
        want = ctx.power(ctx.sin(theta), ctx.to_real(-1.5))
        got = csc_power_cos2_series_result(1.5, theta, ctx,
                                           max_terms=5000).value
        assert ctx.fabs(got - want) < ctx.power(ctx.two, -100)

    def test_tail_decay_monotone(self, ctx):
        """Truncation error falls geometrically in the term budget."""
        theta = ctx.to_real(Fraction(2, 5))
        want = ctx.power(ctx.sin(theta), -3)
        ratio = ctx.fabs(ctx.cos(2 * theta))
        errors = []
        for budget in (10, 20, 40, 80):
            got = csc_power_cos2_series_result(3, theta, ctx,
                                               max_terms=budget).value
            err = ctx.fabs(got - want)
            errors.append(err)
            # constant absorbed generously; ratio^budget is the driver
            assert err < 1000 * ctx.power(ratio, budget), budget
        for a, b in zip(errors, errors[1:]):
            assert b < a

    def test_derivative_spot_check(self, ctx):
        """Central finite differences of the series against the analytic
        derivative -r cos t / sin^{r+1} t at three interior points."""
        h = ctx.power(ctx.two, -30)
        for theta_q in (Fraction(1, 2), Fraction(9, 10), Fraction(6, 5)):
            theta = ctx.to_real(theta_q)
            f_plus = csc_power_cos2_series_result(3, theta + h, ctx,
                                                  max_terms=20000).value
            f_minus = csc_power_cos2_series_result(3, theta - h, ctx,
                                                   max_terms=20000).value
            numeric = (f_plus - f_minus) / (2 * h)
            analytic = -3 * ctx.cos(theta) * ctx.power(ctx.sin(theta), -4)
            assert ctx.fabs(numeric - analytic) < ctx.power(ctx.two, -20)

    @pytest.mark.parametrize("prec", (128, 256))
    def test_fraction_angle(self, prec):
        """A Fraction angle gives the bits of its to_real, as it does on
        the sibling routes."""
        ctx = EvalContext(prec)
        for r, t in ((3, Fraction(1, 2)), (Fraction(-5, 2), Fraction(6, 5)),
                     (1.5, Fraction(7, 10))):
            got = csc_power_cos2_series_result(r, t, ctx)
            assert got == csc_power_cos2_series_result(
                r, ctx.to_real(t), ctx), (r, t)
            assert got.converged


def test_mpf_exponent_keeps_its_sign():
    """An mpf exponent is read exactly, sign included, so it gives the
    bits of the same exponent as a Fraction or int."""
    ctx = EvalContext(128)
    for r in (Fraction(-3, 2), Fraction(-5, 2), -3, Fraction(1, 2)):
        for route, t in ((sec_power_series_result, Fraction(1, 4)),
                         (csc_power_series_result, Fraction(7, 5)),
                         (csc_power_cos2_series_result, Fraction(1, 2))):
            theta = ctx.to_real(t)
            assert route(ctx.to_real(r), theta, ctx) == route(r, theta, ctx), (
                route.__name__, r)


# a non-finite exponent or base was read as 0, and the result (NaN, +inf
# or a finite number) reported converged
NON_FINITE_CALLS = {
    "sec_power": lambda x, ctx: sec_power_series_result(x, 0.25, ctx),
    "csc_power": lambda x, ctx: csc_power_series_result(x, 1.3, ctx),
    "csc_power_cos2": lambda x, ctx: csc_power_cos2_series_result(x, 0.5,
                                                                  ctx),
    "generalized_cos": lambda x, ctx: generalized_cos_series(x, 0.25, ctx),
    "sum_until_negligible": lambda x, ctx: sum_until_negligible(
        ctx.one, x, lambda j: Fraction(1), 0, ctx),
}


@pytest.mark.parametrize("as_mpf", (False, True), ids=("float", "mpf"))
@pytest.mark.parametrize("x", (math.inf, -math.inf, math.nan), ids=str)
@pytest.mark.parametrize("call", NON_FINITE_CALLS.values(),
                         ids=list(NON_FINITE_CALLS))
def test_non_finite_input_raises(call, x, as_mpf):
    ctx = EvalContext(128)
    with pytest.raises(ValueError):
        call(ctx.to_real(x) if as_mpf else x, ctx)


# the grid of tests/test_golden.py; csc^r at t needs |sin t| > |cos t|
SERIES_R = (-3, 3, Fraction(1, 2), Fraction(-5, 2), 2.5)
SERIES_THETA = (Fraction(1, 5), Fraction(2, 5))
CSC_THETA = (Fraction(7, 5),)


def _routes():
    for r in SERIES_R:
        for t in SERIES_THETA:
            yield generalized_cos_series, r, t, {}
            yield generalized_sin_series, r, t, {}
            yield sec_power_series_result, r, t, {"divisor": "cos"}
            yield sec_power_series_result, r, t, {"divisor": "sin"}
            yield csc_power_cos2_series_result, r, t, {}
        for t in CSC_THETA:
            yield csc_power_series_result, r, t, {}
    # slow geometric tails: |cos 2t| = 0.980, 0.989 and tan^2 t = 0.868
    for t in (Fraction(1, 10), Fraction(3, 40)):
        yield csc_power_cos2_series_result, 3, t, {}
    for r in SERIES_R:
        yield generalized_cos_series, r, Fraction(3, 4), {}
        yield generalized_sin_series, r, Fraction(3, 4), {}


def _id(v):
    if callable(v):
        return v.__name__
    if isinstance(v, dict):
        return v.get("divisor", "")
    return str(v).replace("/", "_")


@pytest.mark.parametrize("prec", (128, 256))
@pytest.mark.parametrize("route, r, t, kw", list(_routes()), ids=_id)
def test_converged_means_within_tolerance(route, r, t, kw, prec):
    """A converged result is within tolerance, relative, of the same call
    at twice the precision."""
    lo, hi = EvalContext(prec), EvalContext(2 * prec)
    res = route(r, lo.to_real(t), lo, **kw)
    ref = route(r, hi.to_real(t), hi, **kw)
    assert res.converged and ref.converged
    err = hi.fabs(hi.to_real(res.value) - ref.value)
    assert err <= hi.to_real(lo.tolerance) * hi.fabs(ref.value)


class TestProgressionSum:
    def test_closed_form(self, ctx):
        a = ctx.to_real(Fraction(1, 3))
        d = ctx.to_real(Fraction(2, 7))
        direct = sum((ctx.sin(a + k * d) for k in range(9)), ctx.zero)
        assert ctx.close(sine_progression_sum(a, d, 9, ctx), direct)

    def test_degenerate_step_falls_back(self, ctx):
        a = ctx.to_real(Fraction(2, 5))
        val = sine_progression_sum(a, 2 * ctx.pi, 7, ctx)
        assert ctx.close(val, 7 * ctx.sin(a))

    def test_count_validation(self, ctx):
        with pytest.raises(ValueError):
            sine_progression_sum(ctx.one, ctx.one, 0, ctx)
        assert ctx.close(sine_progression_sum(ctx.one, ctx.one, 1, ctx),
                         ctx.sin(ctx.one))


class TestJordan:
    def test_holds_inside(self, ctx):
        for x in (Fraction(1, 10), Fraction(1, 1), Fraction(3, 2)):
            jb = jordan_bounds(x, ctx)
            assert jb.lower < jb.value < jb.upper
            assert jordan_bounds(x, ctx).holds
        near_edge = ctx.pi / 2 - ctx.power(ctx.two, -20)
        assert jordan_bounds(near_edge, ctx).holds

    def test_domain(self, ctx):
        with pytest.raises(ValueError):
            jordan_bounds(0, ctx)
        with pytest.raises(ValueError):
            jordan_bounds(2, ctx)
