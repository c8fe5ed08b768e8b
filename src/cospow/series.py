"""Angle-multiple expansions, secant/cosecant power series, progression sums.

Integer angle multiples expand as finite tangent polynomials; real
exponents turn the same shape into an infinite series through the
generalized binomial coefficient, convergent when |cos t| > |sin t|.
Rearranged, the series computes sec^r and csc^r through a ratio with
cos(rt) or sin(rt) in the divisor. A separate route expands 1/sin^r in
powers of cos(2t) and works on all of (0, pi/2).

The tangent series behind cos(r t), sin(r t), sec^r and csc^r is one
kernel, _tangent_series; each route adds only its front factor or its
divisor.

Infinite series here stop on a shared rule: once 50 consecutive terms are
each below tolerance/4 relative to the running partial sum, the tail is
declared negligible. That run rule bounds nothing: on a slow geometric
tail it stops early (the ROADMAP keeps it open for these routes). The
zeta series no longer use it; they stop on a certified tail bound
(zeta._level_series). The sec/csc routes return a SeriesResult, whose
value is the sum and whose terms_used and converged report the stop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import EvalContext, binom_int, binom_real

STOP_RUN = 50


@dataclass(frozen=True)
class SeriesResult:
    value: object
    terms_used: int
    converged: bool


def sum_until_negligible(terms, ctx: EvalContext, tolerance=None,
                         max_terms: int = 100000) -> SeriesResult:
    """Accumulate an iterable of context numbers under the stop rule.

    A term counts toward the stop run when |term| < (tolerance/4)|partial|
    (absolute once the partial sum is zero). Returns the partial sum, how
    many terms were consumed, and whether the run completed before
    max_terms.
    """
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    if tolerance is None:
        tolerance = ctx.tolerance
    cutoff = ctx.to_real(tolerance) / 4
    total = ctx.zero
    run = 0
    used = 0
    for term in terms:
        total += term
        used += 1
        scale = ctx.fabs(total)
        if ctx.fabs(term) < (cutoff * scale if scale > 0 else cutoff):
            run += 1
            if run >= STOP_RUN:
                return SeriesResult(total, used, True)
        else:
            run = 0
        if used >= max_terms:
            break
    return SeriesResult(total, used, False)


def multiple_angle_cos(n_mult: int, theta, ctx: EvalContext):
    """cos(N t) as the finite sum sum_r (-1)^r C(N,2r) cos^{N-2r} t sin^{2r} t."""
    if n_mult < 0:
        raise ValueError("angle multiple must be >= 0")
    c = ctx.cos(theta)
    s = ctx.sin(theta)
    return sum(
        ((-1) ** r) * binom_int(n_mult, 2 * r)
        * c ** (n_mult - 2 * r) * s ** (2 * r)
        for r in range(n_mult // 2 + 1)
    )


def multiple_angle_sin(n_mult: int, theta, ctx: EvalContext):
    """sin(N t) as the finite sum sum_r (-1)^r C(N,2r+1) cos^{N-2r-1} t sin^{2r+1} t."""
    if n_mult < 0:
        raise ValueError("angle multiple must be >= 0")
    c = ctx.cos(theta)
    s = ctx.sin(theta)
    return sum(
        ((-1) ** r) * binom_int(n_mult, 2 * r + 1)
        * c ** (n_mult - 2 * r - 1) * s ** (2 * r + 1)
        for r in range((n_mult + 1) // 2)
    )


def multiple_angle(n_mult: int, theta, ctx: EvalContext):
    """(sin(N t), cos(N t)) by the finite binomial expansions, N >= 1."""
    if n_mult < 1:
        raise ValueError("multiple_angle requires N >= 1")
    return (multiple_angle_sin(n_mult, theta, ctx),
            multiple_angle_cos(n_mult, theta, ctx))


def _require_cos_dominant(theta, ctx: EvalContext):
    c = ctx.cos(theta)
    s = ctx.sin(theta)
    if not ctx.fabs(c) > ctx.fabs(s):
        raise ValueError("series requires |cos t| > |sin t|")
    return c, s


def _tangent_series(r, tan, step: int, ctx: EvalContext,
                    max_terms: int) -> SeriesResult:
    """sum_j (-1)^j C(r, 2j+step) tan^{2j+step}, step 0 or 1, under the
    run rule: the one series behind every tangent-series route."""
    t2 = tan * tan

    def terms():
        tanpow = tan if step else ctx.one
        j = 0
        while True:
            yield ((-1) ** j) * ctx.to_real(
                binom_real(r, 2 * j + step, ctx)) * tanpow
            tanpow *= t2
            j += 1

    return sum_until_negligible(terms(), ctx, max_terms=max_terms)


def generalized_cos_series(r, theta, ctx: EvalContext,
                           max_terms: int = 100000) -> SeriesResult:
    """cos(r t) = cos^r t * sum_j (-1)^j C(r, 2j) tan^{2j} t for real r.

    Needs |cos t| > |sin t|; for integer r >= 0 the series terminates and
    reproduces the finite expansion.
    """
    c, s = _require_cos_dominant(theta, ctx)
    res = _tangent_series(r, s / c, 0, ctx, max_terms)
    return SeriesResult(ctx.power(c, r) * res.value, res.terms_used,
                        res.converged)


def generalized_sin_series(r, theta, ctx: EvalContext,
                           max_terms: int = 100000) -> SeriesResult:
    """sin(r t) = cos^r t * sum_j (-1)^j C(r, 2j+1) tan^{2j+1} t for real r."""
    c, s = _require_cos_dominant(theta, ctx)
    res = _tangent_series(r, s / c, 1, ctx, max_terms)
    return SeriesResult(ctx.power(c, r) * res.value, res.terms_used,
                        res.converged)


def generalized_multiple_angle(r, theta, terms: int, ctx: EvalContext):
    """(sin(r t), cos(r t)) by the generalized binomial series, real r.

    terms caps the series length; the shared auto-stop rule may finish
    earlier. Requires |cos t| > |sin t|.
    """
    sin_res = generalized_sin_series(r, theta, ctx, max_terms=terms)
    cos_res = generalized_cos_series(r, theta, ctx, max_terms=terms)
    return sin_res.value, cos_res.value


def sec_power_series_result(r, theta, ctx: EvalContext, divisor: str = "cos",
                            max_terms: int = 100000) -> SeriesResult:
    """sec^r t as a tangent series over cos(r t) or over sin(r t).

    divisor "cos": sec^r t = [sum_j (-1)^j C(r,2j) tan^{2j} t] / cos(r t);
    divisor "sin" uses the odd-index coefficients over sin(r t). Either
    way |cos t| > |sin t| is required, and the chosen divisor must not
    vanish at r t.
    """
    c, s = _require_cos_dominant(theta, ctx)
    if divisor == "cos":
        div = ctx.cos(ctx.to_real(r) * theta)
        step = 0
    elif divisor == "sin":
        div = ctx.sin(ctx.to_real(r) * theta)
        step = 1
    else:
        raise ValueError("divisor must be 'cos' or 'sin'")
    if ctx.fabs(div) == 0:
        raise ValueError(f"{divisor}(r t) vanishes; pick the other divisor")
    res = _tangent_series(r, s / c, step, ctx, max_terms)
    return SeriesResult(res.value / div, res.terms_used, res.converged)


def csc_power_series_result(r, theta, ctx: EvalContext, divisor: str = "cos",
                            max_terms: int = 100000) -> SeriesResult:
    """csc^r t via sec^r at the complementary angle pi/2 - t.

    The domain condition becomes |sin t| > |cos t|.
    """
    return sec_power_series_result(r, ctx.pi / 2 - theta, ctx,
                                   divisor=divisor, max_terms=max_terms)


def csc_power_cos2_series_result(r, theta, ctx: EvalContext,
                                 max_terms: int = 100000) -> SeriesResult:
    """1/sin^r t = 2^{r/2} sum_j (-1)^j C(-r/2, j) cos^j(2t), 0 < t < pi/2.

    Rewrites sin^2 t as (1 - cos 2t)/2 and applies the binomial series;
    |cos 2t| < 1 on the open interval, so no dominance condition is
    needed. Converges geometrically with ratio |cos 2t|.
    """
    if not (0 < theta < ctx.pi / 2):
        raise ValueError("csc_power_cos2_series_result requires 0 < t < pi/2")
    c2 = ctx.cos(2 * theta)
    front = ctx.power(ctx.two, ctx.to_real(r) / 2)
    # keep the exponent exact when r is; binom_real then stays in Fractions
    half_r = Fraction(-r, 2) if isinstance(r, int) else -ctx.to_real(r) / 2

    def terms():
        cpow = ctx.one
        j = 0
        while True:
            yield ((-1) ** j) * ctx.to_real(binom_real(half_r, j, ctx)) * cpow
            cpow *= c2
            j += 1

    res = sum_until_negligible(terms(), ctx, max_terms=max_terms)
    return SeriesResult(front * res.value, res.terms_used, res.converged)


def sine_progression_sum(a, d, count: int, ctx: EvalContext):
    """sum_{k=0}^{count-1} sin(a + k d), closed form when sin(d/2) != 0.

    The quotient form sin(count d/2) sin(a + (count-1) d/2) / sin(d/2)
    degrades when d is near a multiple of 2 pi, so the direct sum takes
    over there.
    """
    if count < 1:
        raise ValueError("sine_progression_sum requires count >= 1")
    a = ctx.to_real(a)
    d = ctx.to_real(d)
    half_d = d / 2
    denom = ctx.sin(half_d)
    if ctx.fabs(denom) < ctx.tolerance:
        return sum((ctx.sin(a + k * d) for k in range(count)), ctx.zero)
    return ctx.sin(count * half_d) * ctx.sin(a + (count - 1) * half_d) / denom


@dataclass(frozen=True)
class JordanBounds:
    x: object
    lower: object
    value: object
    upper: object

    @property
    def holds(self) -> bool:
        return bool(self.lower < self.value < self.upper)


def jordan_bounds(x, ctx: EvalContext) -> JordanBounds:
    """Cubic envelope x - x^3/6 < sin x < x - 2 x^3/(3 pi^2) on (0, pi/2)."""
    xr = ctx.to_real(x)
    if not (0 < xr < ctx.pi / 2):
        raise ValueError("bounds hold on 0 < x < pi/2")
    lower = xr - xr**3 / 6
    upper = xr - 2 * xr**3 / (3 * ctx.pi**2)
    return JordanBounds(xr, lower, ctx.sin(xr), upper)

