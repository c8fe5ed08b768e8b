"""Zeta-value approximations from dyadic sine sums and their level identities.

For s > 1, the scaled sine sum (2^s pi^s/(2^s-1)) sum_i (2^n sin t_i)^{-s}
over the level-n angles t_i converges to zeta(s) as n grows; at s = 2 it
is exactly pi^2/6 at every level. Expanding each sine power as a binomial
series in cosines turns the same quantity into a series whose inner sums
are the exact integer power averages of 2cos over level n-1. Weighted
cosecant sums give zeta(3) and zeta(5) directly. Each finite level also
carries exact identities: the binomial series at fixed n equals the
weighted cosecant sum at the same n, and a factorial-weighted variant
converges to a closed Bernoulli-number expression.

References for error reporting: even zeta values exactly via Bernoulli
numbers; zeta(3) and zeta(5) frozen to 30 significant digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .exact import EvalContext, IntPolynomial, exact_div
from .minpoly import closed_minpoly
from .series import sum_until_negligible

# 30 significant digits each
ZETA3 = "1.20205690315959428539973816151"
ZETA5 = "1.03692775514336992633136548646"

METHOD_SINE_SUM = "sine-sum"
METHOD_BINOMIAL = "binomial"
METHOD_WEIGHTED3 = "weighted3"
METHOD_WEIGHTED5 = "weighted5"

STATUS_OK = "ok"
STATUS_EXHAUSTED = "terms-exhausted"


@dataclass(frozen=True)
class ZetaApproxResult:
    """One zeta approximation: value, level, and how it was obtained.

    terms_used is 0 for the closed finite sums; reference_error is
    populated when a stored reference exists for s. tail_ratio documents
    the geometric decay of the binomial series, cos^2(pi/2^{n-1}).
    """

    value: object
    n: int
    terms_used: int
    method: str
    reference_error: object = None
    status: str = STATUS_OK
    tail_ratio: float | None = None


def bernoulli_numbers(m_max: int) -> list[Fraction]:
    """B_0 .. B_{m_max} by the defining recurrence sum_k C(m+1,k) B_k = 0.

    Convention B_1 = -1/2.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    bs = [Fraction(1)]
    for m in range(1, m_max + 1):
        acc = sum(Fraction(math.comb(m + 1, k)) * bs[k] for k in range(m))
        bs.append(-acc / (m + 1))
    return bs


@lru_cache(maxsize=None)
def reference_even_zeta(j: int) -> Fraction:
    """Exact rational c with zeta(2j) = c * pi^{2j}."""
    if j < 1:
        raise ValueError("reference_even_zeta requires j >= 1")
    b = bernoulli_numbers(2 * j)[2 * j]
    return (-1) ** (j + 1) * b * Fraction(2) ** (2 * j) \
        / (2 * math.factorial(2 * j))


def reference_zeta(s, ctx: EvalContext):
    """Stored reference for zeta(s), or None when s has no reference.

    Even integers are exact (rational times pi^{2j}); s = 3 and s = 5 use
    the frozen 30-digit constants.
    """
    if isinstance(s, int) or (isinstance(s, float) and s.is_integer()):
        si = int(s)
        if si > 1 and si % 2 == 0:
            j = si // 2
            return ctx.to_real(reference_even_zeta(j)) \
                * ctx.power(ctx.pi, 2 * j)
        if si == 3:
            return ctx.to_real(ZETA3)
        if si == 5:
            return ctx.to_real(ZETA5)
    return None


def _reference_error(value, s, ctx: EvalContext):
    ref = reference_zeta(s, ctx)
    return None if ref is None else ctx.fabs(value - ref)


def monic_two_cos_poly(n: int) -> IntPolynomial:
    """Monic integer polynomial with roots 2cos((2i-1)pi/2^n), n >= 2.

    Substituting x = y/2 into the level-n minimal polynomial clears to an
    integer polynomial whose leading coefficient is +-1; the sign is
    normalized to +1.
    """
    f = closed_minpoly(n)
    out = []
    for k, c in enumerate(f.coeffs):
        out.append(exact_div(2 * c, 2**k, "monic_two_cos_poly"))
    if out[-1] < 0:
        out = [-c for c in out]
    return IntPolynomial(out)


class AvgPowers:
    """Integer averages A(p) = (1/2^{level-2}) sum_i (2cos t_i)^{2p}.

    t_i runs over the canonical level angles. Computed by Newton's
    identities on the even part of monic_two_cos_poly(level): binomial
    sums would need C(2p, p) at p in the thousands, while each Newton
    step is a short integer convolution. A(0) = 1.
    """

    def __init__(self, level: int):
        if level < 2:
            raise ValueError("AvgPowers requires level >= 2")
        self.level = level
        self.dim = 2 ** (level - 2)
        g = monic_two_cos_poly(level)
        # even part: g has only even-degree terms, roots come in +- pairs
        h = g.coeffs[::2]
        if len(h) != self.dim + 1 or h[-1] != 1:
            raise ArithmeticError("even part of the 2cos polynomial is not "
                                  "monic of degree 2^(level-2)")
        # elementary symmetric functions of the squared roots
        self._es = [(-1) ** k * h[self.dim - k]
                    for k in range(1, self.dim + 1)]
        self._ps = [self.dim]

    def _extend_to(self, p: int):
        es, ps, d = self._es, self._ps, self.dim
        while len(ps) <= p:
            m = len(ps)
            if m <= d:
                acc = sum((-1) ** (k + 1) * es[k - 1] * ps[m - k]
                          for k in range(1, m))
                acc += (-1) ** (m + 1) * m * es[m - 1]
            else:
                acc = sum((-1) ** (k + 1) * es[k - 1] * ps[m - k]
                          for k in range(1, d + 1))
            ps.append(acc)

    def avg(self, p: int) -> int:
        if p < 0:
            raise ValueError("power index must be >= 0")
        if p == 0:
            return 1
        self._extend_to(p)
        return exact_div(self._ps[p], self.dim, "AvgPowers power sum")


def zeta_sine_sum(s, n: int, ctx: EvalContext) -> ZetaApproxResult:
    """(2^s pi^s/(2^s-1)) sum_{i=1}^{2^{n-2}} (2^n sin((2i-1)pi/2^n))^{-s}.

    Converges to zeta(s) as n grows; exact pi^2/6 at s = 2 for every n.
    Requires real s > 1 and n >= 3.
    """
    if not s > 1:
        raise ValueError("zeta_sine_sum requires s > 1")
    if n < 3:
        raise ValueError("zeta_sine_sum requires n >= 3")
    tot = ctx.zero
    big = 2**n
    for i in range(1, 2 ** (n - 2) + 1):
        tot += ctx.power(big * ctx.sin(ctx.pi * (2 * i - 1) / big), -s)
    p2s = ctx.power(ctx.two, s)
    value = p2s * ctx.power(ctx.pi, s) / (p2s - 1) * tot
    return ZetaApproxResult(value, n, 0, METHOD_SINE_SUM,
                            _reference_error(value, s, ctx))


def zeta_binomial_series(s, n: int, max_terms: int,
                         ctx: EvalContext) -> ZetaApproxResult:
    """The sine sum with every sine power expanded as a binomial series:

        2^{3s/2 - ns + n - 3} pi^s/(2^s - 1)
            * sum_p 2^{1-2p} C(-s/2, 2p) A_{n-1}(p)

    where A_{n-1}(p) is the exact integer power average one level down.
    All terms are positive; the tail decays geometrically with ratio
    cos^2(pi/2^{n-1}), which approaches 1 for large n, hence the
    run-based stop rule. Requires real s > 1, n >= 3, max_terms >= 1.
    """
    if not s > 1:
        raise ValueError("zeta_binomial_series requires s > 1")
    if n < 3:
        raise ValueError("zeta_binomial_series requires n >= 3")
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

    res = sum_until_negligible(terms(), ctx, max_terms=max_terms)
    p2s = ctx.power(ctx.two, s)
    pref = ctx.power(ctx.two, 3 * s2 - n * ctx.to_real(s) + n - 3) \
        * ctx.power(ctx.pi, s) / (p2s - 1)
    value = pref * res.value
    ratio = math.cos(math.pi / 2 ** (n - 1)) ** 2
    return ZetaApproxResult(
        value, n, res.terms_used, METHOD_BINOMIAL,
        _reference_error(value, s, ctx),
        STATUS_OK if res.converged else STATUS_EXHAUSTED,
        tail_ratio=ratio,
    )


def csc3_weight(n: int, j: int) -> int:
    """Weight on csc((2j-1)pi/2^n) in the zeta(3) sum: -j^2+(2^{n-1}+1)j-2^{n-2}."""
    return -j * j + (2 ** (n - 1) + 1) * j - 2 ** (n - 2)


def csc5_weight(n: int, j: int) -> int:
    """Weight on csc((2j-1)pi/2^n) in the zeta(5) sum, a quartic in j."""
    return (j**4 - 2 * (2 ** (n - 1) + 1) * j**3
            + (3 * 2 ** (n - 1) - 1) * j**2
            + 2 * (2 ** (n - 2) + 2 ** (3 * n - 4) + 1) * j
            - 2 ** (n - 1) * (2 ** (2 * n - 3) + 1))


def _weighted_csc_sum(weight, n: int, ctx: EvalContext):
    tot = ctx.zero
    for j in range(1, 2 ** (n - 2) + 1):
        tot += weight(n, j) / ctx.sin(ctx.pi * (2 * j - 1) / 2**n)
    return tot


def zeta3_weighted(n: int, ctx: EvalContext) -> ZetaApproxResult:
    """pi^3/(7*2^{3n-4}) times the quadratic-weighted cosecant sum; -> zeta(3)."""
    if n < 3:
        raise ValueError("zeta3_weighted requires n >= 3")
    value = ctx.power(ctx.pi, 3) / (7 * 2 ** (3 * n - 4)) \
        * _weighted_csc_sum(csc3_weight, n, ctx)
    return ZetaApproxResult(value, n, 0, METHOD_WEIGHTED3,
                            _reference_error(value, 3, ctx))


def zeta5_weighted(n: int, ctx: EvalContext) -> ZetaApproxResult:
    """pi^5/(93*2^{5n-6}) times the quartic-weighted cosecant sum; -> zeta(5)."""
    if n < 3:
        raise ValueError("zeta5_weighted requires n >= 3")
    value = ctx.power(ctx.pi, 5) / (93 * 2 ** (5 * n - 6)) \
        * _weighted_csc_sum(csc5_weight, n, ctx)
    return ZetaApproxResult(value, n, 0, METHOD_WEIGHTED5,
                            _reference_error(value, 5, ctx))


class LevelIdentity(NamedTuple):
    lhs: object
    rhs: object
    gap: object
    terms_used: int
    converged: bool


def finite_level_identity(s_odd: int, n: int, max_terms: int,
                          ctx: EvalContext) -> LevelIdentity:
    """Exact-at-level identity behind the weighted zeta(3)/zeta(5) sums.

    For s = 3: 2^{n-5/2} sum_p 2^{1-2p} (3/2)_{2p}/(2p)! A_{n-1}(p)
    equals the quadratic-weighted cosecant sum at the same n; for s = 5
    the prefactor is 3*2^{n-3/2} with (5/2)_{2p} and the quartic weights.
    The gap is pure series truncation. Requires n >= 3.
    """
    if s_odd == 3:
        pref = ctx.power(ctx.two, n - ctx.to_real(Fraction(5, 2)))
        weight = csc3_weight
    elif s_odd == 5:
        pref = 3 * ctx.power(ctx.two, n - ctx.to_real(Fraction(3, 2)))
        weight = csc5_weight
    else:
        raise ValueError("finite_level_identity requires s in {3, 5}")
    if n < 3:
        raise ValueError("finite_level_identity requires n >= 3")
    averages = AvgPowers(n - 1)
    s2 = ctx.to_real(s_odd) / 2

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

    res = sum_until_negligible(terms(), ctx, max_terms=max_terms)
    lhs = pref * res.value
    rhs = _weighted_csc_sum(weight, n, ctx)
    return LevelIdentity(lhs, rhs, ctx.fabs(lhs - rhs),
                         res.terms_used, res.converged)


class BernoulliCheck(NamedTuple):
    series_value: object
    closed_value: object
    gap: object
    terms_used: int
    converged: bool


def bernoulli_closed_value(j: int) -> Fraction:
    """(-1)^{j+1} (2^{2j}-1) 2^{2-j} (j-1)!/(2j)! B_{2j}, exactly."""
    if j < 1:
        raise ValueError("bernoulli_closed_value requires j >= 1")
    b = bernoulli_numbers(2 * j)[2 * j]
    return ((-1) ** (j + 1) * (2 ** (2 * j) - 1) * Fraction(2) ** (2 - j)
            * Fraction(math.factorial(j - 1), math.factorial(2 * j)) * b)


def bernoulli_limit_check(j: int, n: int, max_terms: int,
                          ctx: EvalContext) -> BernoulliCheck:
    """Factorial-weighted level series against its closed Bernoulli value:

        sum_p 2^{-(2p-1+n(2j-1))} ((2p+j-1)!/(2p)!) A_{n-1}(p)
            -> bernoulli_closed_value(j)  as n grows.

    At j = 1 the series equals the closed value 1/2 exactly at every
    level (the inner sum telescopes to a csc^2 sum), so the gap there is
    pure truncation noise. Requires j >= 1, n >= 3.
    """
    if j < 1:
        raise ValueError("bernoulli_limit_check requires j >= 1")
    if n < 3:
        raise ValueError("bernoulli_limit_check requires n >= 3")
    averages = AvgPowers(n - 1)

    def terms():
        p = 0
        while True:
            rising = 1
            for t in range(1, j):
                rising *= 2 * p + t
            yield ctx.to_real(rising * averages.avg(p)) \
                * ctx.power(ctx.two, -(2 * p - 1 + n * (2 * j - 1)))
            p += 1

    res = sum_until_negligible(terms(), ctx, max_terms=max_terms)
    closed = ctx.to_real(bernoulli_closed_value(j))
    return BernoulliCheck(res.value, closed, ctx.fabs(res.value - closed),
                          res.terms_used, res.converged)


def odd_power_vanishing_residual(p: int, n: int, ctx: EvalContext):
    """|sum_{i=1}^{2^{n-2}} cos^{2p+1}((2i-1)pi/2^{n-1})|, zero in exact terms.

    The angles pair up as t and pi - t, so every odd cosine power cancels;
    the residual measures only numeric noise.
    """
    if n < 3:
        raise ValueError("odd_power_vanishing_residual requires n >= 3")
    tot = ctx.zero
    for i in range(1, 2 ** (n - 2) + 1):
        tot += ctx.cos(ctx.pi * (2 * i - 1) / 2 ** (n - 1)) ** (2 * p + 1)
    return ctx.fabs(tot)
