"""Angle-multiple expansions, secant/cosecant power series, progression sums.

Integer angle multiples expand as finite tangent polynomials; real
exponents turn the same shape into an infinite series through the
generalized binomial coefficient, convergent when |cos t| > |sin t|.
Rearranged, the series computes sec^r and csc^r through a ratio with
cos(rt) or sin(rt) in the divisor. A separate route expands 1/sin^r in
powers of cos(2t) and works on all of (0, pi/2).

Every infinite series of the package stops on one certified test,
tail_is_negligible: a geometric tail bound plus the accumulated rounding
is at most the tolerance times a lower bound on |sum|. The zeta level
series apply it in fixed point (zeta._level_series); here the kernel
sum_until_negligible applies it to a series given by its first term and
its exact term ratio, and each route is just such a ratio. So converged
means within tolerance, relative, of the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .exact import EvalContext, binom_int

# a term ratio bound is rounded up to a multiple of 2^-RATIO_BITS
RATIO_BITS = 64


@dataclass(frozen=True)
class SeriesResult:
    value: object
    terms_used: int
    converged: bool


def tail_is_negligible(term, q_num: int, q_den: int, rounding, lower,
                       tol_num: int, tol_den: int) -> bool:
    """The certified stop, exact in integers or Fractions. If no later term
    exceeds q = q_num/q_den < 1 times the one before, the tail after one of
    size term is at most term q/(1-q); true when that plus rounding is at
    most tol_num/tol_den times lower, a lower bound on |sum|."""
    gap = q_den - q_num
    return gap > 0 and tol_den * (term * q_num + rounding * gap) \
        <= tol_num * lower * gap


def sum_until_negligible(first, base, ratio, settled: int, ctx: EvalContext,
                         max_terms: int = 100000) -> SeriesResult:
    """sum_j t_j, t_j = first c_j base^j, c_0 = 1, c_{j+1} = c_j ratio(j).

    ratio(j) is an exact int or Fraction; c_j steps by it in ctx
    arithmetic. From index settled on, |ratio(j)| must be monotone with
    limit at most 1, so q = |base| max(1, |ratio(j)|),
    rounded up, bounds every later term ratio. The stop: |t_j| q/(1-q)
    plus terms 2^(8-precision_bits) sum |t_k| (the mpf roundings, a
    caller's few included) is at most tolerance times |S| - tail -
    rounding, as the terms may change sign. A zero term or ratio ends
    the series exactly, converged when that same test holds with no tail:
    a finite sum that cancels to within rounding of zero has no relative
    bound and reports unconverged. Else max_terms terms run unconverged.
    """
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    # tail + rounding <= tol (|S| - tail - rounding) is the test against
    # |S| at tolerance tol/(1+tol)
    tol_num, tol_den = ctx.to_fraction(ctx.tolerance).as_integer_ratio()
    tol_den += tol_num
    b = ctx.to_fraction(ctx.fabs(base))
    base_up = -(-(b.numerator << RATIO_BITS) // b.denominator)
    unit = Fraction(1, 2 ** (ctx.precision_bits - 8))
    coef = ctx.one
    power, total, size, converged = first, ctx.zero, ctx.zero, False
    for used in range(1, max_terms + 1):
        term = coef * power
        total += term
        size += ctx.fabs(term)
        rho = ratio(used - 1)
        ends = rho == 0 or term == 0  # every later term is zero
        if ends or used > settled:
            num, den = abs(rho).as_integer_ratio()
            converged = tail_is_negligible(
                ctx.to_fraction(ctx.fabs(term)),
                0 if ends else base_up * max(num, den), den << RATIO_BITS,
                used * unit * ctx.to_fraction(size),
                ctx.to_fraction(ctx.fabs(total)), tol_num, tol_den)
            if converged or ends:
                break
        coef *= ctx.to_real(rho)
        power *= base
    return SeriesResult(total, used, converged)


def _multiple_angle_sum(n_mult: int, theta, step: int, ctx: EvalContext):
    """sum_r (-1)^r C(N, k) cos^{N-k} t sin^k t, k = 2r+step, step 0 or 1:
    the one finite sum behind cos(N t) (step 0) and sin(N t) (step 1)."""
    if n_mult < 0:
        raise ValueError("angle multiple must be >= 0")
    c = ctx.cos(theta)
    s = ctx.sin(theta)
    return sum(
        ((-1) ** r) * binom_int(n_mult, 2 * r + step)
        * c ** (n_mult - 2 * r - step) * s ** (2 * r + step)
        for r in range((n_mult - step) // 2 + 1)
    )


def multiple_angle_cos(n_mult: int, theta, ctx: EvalContext):
    """cos(N t) as the finite sum sum_r (-1)^r C(N,2r) cos^{N-2r} t sin^{2r} t."""
    return _multiple_angle_sum(n_mult, theta, 0, ctx)


def multiple_angle_sin(n_mult: int, theta, ctx: EvalContext):
    """sin(N t) as the finite sum sum_r (-1)^r C(N,2r+1) cos^{N-2r-1} t sin^{2r+1} t."""
    return _multiple_angle_sum(n_mult, theta, 1, ctx)


def multiple_angle(n_mult: int, theta, ctx: EvalContext):
    """(sin(N t), cos(N t)) by the finite binomial expansions, N >= 1."""
    if n_mult < 1:
        raise ValueError("multiple_angle requires N >= 1")
    return (multiple_angle_sin(n_mult, theta, ctx),
            multiple_angle_cos(n_mult, theta, ctx))


def _tangent_series(r, theta, step: int, ctx: EvalContext, max_terms: int):
    """(cos t, sum_j (-1)^j C(r, k) tan^k t), k = 2j+step, step 0 or 1: the
    one series behind every tangent-series route. Needs |cos t| > |sin t|.

    The coefficient ratio is -(r-k)(r-k-1)/((k+1)(k+2)); once k > r its
    size is monotone toward 1 (falling for r < -1, rising for r > -1).
    """
    c, s = ctx.cos(theta), ctx.sin(theta)
    if not ctx.fabs(c) > ctx.fabs(s):
        raise ValueError("series requires |cos t| > |sin t|")
    tan = s / c
    rq = ctx.to_fraction(r)

    def ratio(j):
        k = 2 * j + step
        return -(rq - k) * (rq - k - 1) / ((k + 1) * (k + 2))

    return c, sum_until_negligible(
        ctx.to_real(rq) * tan if step else ctx.one, tan * tan, ratio,
        max(0, math.floor((rq - step) / 2) + 1), ctx, max_terms=max_terms)


def generalized_cos_series(r, theta, ctx: EvalContext,
                           max_terms: int = 100000) -> SeriesResult:
    """cos(r t) = cos^r t * sum_j (-1)^j C(r, 2j) tan^{2j} t for real r.

    Needs |cos t| > |sin t|; for integer r >= 0 the series terminates and
    reproduces the finite expansion.
    """
    c, res = _tangent_series(r, theta, 0, ctx, max_terms)
    return replace(res, value=ctx.power(c, r) * res.value)


def generalized_sin_series(r, theta, ctx: EvalContext,
                           max_terms: int = 100000) -> SeriesResult:
    """sin(r t) = cos^r t * sum_j (-1)^j C(r, 2j+1) tan^{2j+1} t for real r."""
    c, res = _tangent_series(r, theta, 1, ctx, max_terms)
    return replace(res, value=ctx.power(c, r) * res.value)


def sec_power_series_result(r, theta, ctx: EvalContext, divisor: str = "cos",
                            max_terms: int = 100000) -> SeriesResult:
    """sec^r t as a tangent series over cos(r t) or over sin(r t).

    divisor "cos": sec^r t = [sum_j (-1)^j C(r,2j) tan^{2j} t] / cos(r t);
    divisor "sin" uses the odd-index coefficients over sin(r t). Either
    way |cos t| > |sin t| is required, and the chosen divisor must not
    vanish at r t: below tolerance in size it is rejected.
    """
    if divisor not in ("cos", "sin"):
        raise ValueError("divisor must be 'cos' or 'sin'")
    step = int(divisor == "sin")
    div = (ctx.sin if step else ctx.cos)(ctx.to_real(r) * theta)
    if ctx.fabs(div) < ctx.tolerance:
        raise ValueError(f"{divisor}(r t) vanishes; pick the other divisor")
    _, res = _tangent_series(r, theta, step, ctx, max_terms)
    return replace(res, value=res.value / div)


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
    needed. The coefficient ratio (r/2+j)/(j+1) is monotone in size toward
    1 once j > -r/2, so the terms shrink geometrically with ratio |cos 2t|.
    """
    theta = ctx.to_real(theta)
    if not (0 < theta < ctx.pi / 2):
        raise ValueError("csc_power_cos2_series_result requires 0 < t < pi/2")
    half = ctx.to_fraction(r) / 2
    front = ctx.power(ctx.two, ctx.to_real(r) / 2)
    res = sum_until_negligible(
        ctx.one, ctx.cos(2 * theta), lambda j: (half + j) / (j + 1),
        max(0, math.floor(-half) + 1), ctx, max_terms=max_terms)
    return replace(res, value=front * res.value)


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

