"""Zeta-value approximations from dyadic sine sums and their level identities.

For s > 1, the scaled sine sum (2^s pi^s/(2^s-1)) sum_i (2^n sin t_i)^{-s}
over the level-n angles t_i converges to zeta(s) as n grows; at s = 2 it
is exactly pi^2/6 at every level. Expanding each sine power as a binomial
series in cosines turns the same quantity into a series whose inner sums
are the exact integer power averages of 2cos over level n-1. Weighted
cosecant sums give zeta(3) and zeta(5) directly, their weights read off
negative_power.odd_csc_weights. Each finite level also
carries exact identities: the binomial series at fixed n equals the
weighted cosecant sum at the same n, and a factorial-weighted variant
converges to a closed Bernoulli-number expression.

The three series routes share one kernel, _level_series: it streams the
top bits of the power averages, exact while they are narrow and then
from a fixed-point recurrence with a certified error bound
(_average_floors), sums in integers scaled by a power of two, and stops
on a certified geometric tail bound, so a converged series is within
tolerance (relative) of its limit.

References for error reporting: even zeta values exactly via Bernoulli
numbers; zeta(3) and zeta(5) frozen to 30 significant digits.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice
from operator import mul
from typing import NamedTuple

from .even_power import integer_power_average
from .exact import EvalContext, exact_div, odd_sin_basis
from .minpoly import _average_stream, _level_recurrence, _newton_windows
from .negative_power import odd_csc_weights, weighted_csc_sum
from .series import RATIO_BITS, SeriesResult, tail_is_negligible

# 30 significant digits each
ZETA3 = "1.20205690315959428539973816151"
ZETA5 = "1.03692775514336992633136548646"
# s: (scale, reference) of zeta(3) and zeta(5). The weights are scale w_j/2
# of odd_csc_weights(s, n); their cosecant sum, scale/2 S(s, n) ~ (1-2^{-s})
# zeta(s) (2^n/pi)^s, is divided by scale (2^s-1) 2^{sn-s-1}
_ZETA_ODD = {3: (1, ZETA3), 5: (3, ZETA5)}

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
    the geometric decay of the binomial series, cos^2(pi/2^{n-1}). status
    "ok" on a series means the certified stop held: the value is within
    tolerance, relative, of the series' limit.
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
        if si in _ZETA_ODD:
            return ctx.to_real(_ZETA_ODD[si][1])
    return None


def _reference_error(value, s, ctx: EvalContext):
    ref = reference_zeta(s, ctx)
    return None if ref is None else ctx.fabs(value - ref)


class AvgPowers:
    """The averages of _average_stream(level), kept as they stream so any
    A(p) can be read again. The series routes stream them instead."""

    def __init__(self, level: int):
        if level < 2:
            raise ValueError("AvgPowers requires level >= 2")
        self.level = level
        self.dim = 2 ** (level - 2)
        self._stream = _average_stream(level)
        self._avgs: list[int] = []

    def avg(self, p: int) -> int:
        if p < 0:
            raise ValueError("power index must be >= 0")
        avgs = self._avgs
        if p >= len(avgs):
            avgs.extend(islice(self._stream, p + 1 - len(avgs)))
        return avgs[p]


# pi rounded down (pi = 3.14159265358979323...); the tail ratio bound below
# needs a lower bound on the angle
_PI_BELOW = Fraction(3141592653589793, 10**15)


def _tail_ratio_above(n: int) -> int:
    """An integer R with cos^2(pi/2^{n-1}) <= R / 2^RATIO_BITS, n >= 3.

    For 0 <= x <= 1 the sine series alternates with shrinking terms, so
    cut after a negative term (x^11/11!) it is below sin x. sin grows on
    [0, pi/2], so that sum at pi_below/2^{n-1} is below sin(pi/2^{n-1}),
    and cos^2 = 1 - sin^2 follows, rounded up.
    """
    x = _PI_BELOW / 2 ** (n - 1)
    sin_below = sum((-1) ** k * x ** (2 * k + 1) / math.factorial(2 * k + 1)
                    for k in range(6))
    r = 1 - sin_below**2
    return -(-(r.numerator << RATIO_BITS) // r.denominator)


# guard bits between the certified error of the fixed-point averages and
# the floors read off them: a floor the error bound cannot settle, taken
# exactly instead, comes about once in 2^FLOOR_GUARD terms
FLOOR_GUARD = 64


def _coefficient_bits_above(a: Fraction, bits: int, max_terms: int) -> int:
    """The bit length of c_p 2^bits at most, over p < max_terms.

    c_p = (a)_{2p}/(2p)! never grows for a <= 1 and never shrinks for
    a >= 1, so its largest value is c_0 = 1 or c_{max_terms-1}, read off
    lgamma with two bits of slack. Only the width of the fixed-point word
    depends on it, never a value: a floor it leaves undecided is taken
    exactly."""
    last = 2 * (max_terms - 1)
    if a <= 1 or last == 0:
        return bits + 1
    x = float(a)
    lg = math.lgamma(x + last) - math.lgamma(x) - math.lgamma(last + 1)
    return bits + 3 + math.ceil(lg / math.log(2))


def _average_floors(level: int, coef_bits: int):
    """floor(A(p)/2^cut), p = 0, 1, ..., for the averages A(p) of
    _average_stream(level) and the cut sent in for each p (send None
    first to start): bit for bit the exact stream's floors.

    The exact averages, about 2p bits, are read while they are narrow.
    Past the Newton correction (p > dim) the scaled averages
    B(p) = A(p)/4^p = avg_i c_i^p, c_i = cos^2 t_i, follow the same
    recurrence B(m) = sum_k (cs_k/4^k) B(m-k), with exact dyadic
    coefficients. Carried as floor(B(p) 2^F) in a word of
    F = coef_bits + 3 dim + FLOOR_GUARD bits, a step is one floor of
    sum_k (cs_k 4^{dim-k}) B(m-k) 2^F / 4^dim. The switch comes once that
    step multiplies fewer operand bits than the exact one (F times the
    bits of the scaled coefficients against 2p times those of cs_k) and
    cut clears the trailing zero bits of A(p), about p/dim, by
    FLOOR_GUARD: an interval never settles a floor that sits on an
    integer.

    The impulse response of the scaled recurrence, the complete
    homogeneous symmetric polynomials of the c_i, is positive and sums
    to prod 1/(1-c_i) = 1/prod sin^2 t_i = 2^{2 dim - 1}. A step's floor
    injects less than one unit and a seed, floored from an exact
    average, less than prod (1+c_i) < 2^dim, so every fixed-point value
    is within 2^{3 dim - 1} units of B(p) 2^F, however large p grows. A
    floor is read off that interval when both its ends give the same
    one; otherwise it comes from even_power.integer_power_average.
    """
    cs = _level_recurrence(level)
    dim = len(cs)
    word = coef_bits + 3 * dim + FLOOR_GUARD
    steps = [c << 2 * (dim - k) for k, c in enumerate(cs, 1)]
    exact_bits = sum(c.bit_length() for c in cs)
    fixed_bits = word * sum(c.bit_length() for c in steps)
    cut = yield
    for p, window in enumerate(_newton_windows(cs, dim)):
        if p > dim and 2 * p * exact_bits > fixed_bits \
                and dim * (cut - FLOOR_GUARD) > p:
            break
        cut = yield window[0] >> cut
    fixed = deque([(x << word) >> 2 * (p - j) for j, x in enumerate(window)],
                  maxlen=dim)
    two_dim, err = 2 * dim, 1 << (3 * dim - 1)
    cut = yield window[0] >> cut
    for p in count(p + 1):
        b = sum(map(mul, steps, fixed)) >> two_dim
        fixed.appendleft(b)
        sh = word - 2 * p + cut
        if sh > 0:
            low = (b - err) >> sh
            if low == (b + err) >> sh:
                cut = yield low
                continue
        cut = yield integer_power_average(p, level) >> cut


def _level_series(a: Fraction, n: int, max_terms: int,
                  ctx: EvalContext) -> SeriesResult:
    """The level series sum_{p>=0} c_p 4^{-p} A_{n-1}(p), c_p = (a)_{2p}/(2p)!.

    Every series route of this module is this sum times a prefactor; a
    is s/2 for the binomial and level-identity routes and j for the
    Bernoulli route, whose rising factorial (2p+j-1)!/(2p)! is
    (j-1)! c_p. The sum is kept in integers scaled by 2^W, W =
    precision_bits + a guard of 2 bits per bit of max_terms (the
    coefficient's relative rounding grows at most like p^{3/2}), and
    converted to mpf once. Of A(p), about 2p bits, only the top bits
    that reach the term are read, floor(A(p)/2^cut), from
    _average_floors, whose fixed-point tail never carries A(p) whole.

    The stop is certified. A(p+1) <= 4 cos^2(pi/2^{n-1}) A(p), since
    4cos^2 t_i is largest at the first level-(n-1) angle, and the
    coefficient ratio rho_p = c_{p+1}/c_p = (a+2p)(a+2p+1)/((2p+1)(2p+2))
    decreases for a >= 1 and stays below 1 for a < 1. So with
    q = r max(1, rho_p), r = cos^2(pi/2^{n-1}) rounded up, the loop stops
    on series.tail_is_negligible with the fixed-point rounding, plus
    2^{8-precision_bits} of the partial sum for a caller's few mpf
    roundings, against the partial sum (the terms are positive).
    Otherwise it runs exactly max_terms terms and reports converged
    False. a > 0, n >= 3.
    """
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    u, v = a.numerator, a.denominator
    vv = v * v
    prec = ctx.precision_bits
    bits = prec + 2 * max_terms.bit_length() + 8
    tol_num, tol_den = ctx.to_fraction(ctx.tolerance).as_integer_ratio()
    r_num = _tail_ratio_above(n)
    # q >= r and gap <= den (2^RATIO_BITS - r_num), so the stop needs
    # upper tol_den r_num <= total tol_num (2^RATIO_BITS - r_num), upper =
    # term + term_err, which bit lengths rule out while upper is at least
    # screen bits longer than total: a pre-screen that never skips a stop
    screen = (tol_num * ((1 << RATIO_BITS) - r_num)).bit_length() \
        - (tol_den * r_num).bit_length() + 2
    floors = _average_floors(n - 1,
                             _coefficient_bits_above(a, bits, max_terms))
    next(floors)
    # coef is c_p 2^W rounded down, at most coef_err below it
    coef, coef_err = 1 << bits, 0
    total = rounding = used = 0
    converged = False
    for p in count():
        # only the top bits of A(p) matter: cut its low bits, losing less
        # than one unit of the term
        cut = max(2 * p - coef.bit_length(), 0)
        top = floors.send(cut)
        shift = 2 * p - cut
        term = (coef * top) >> shift
        term_err = ((coef_err * (top + 1)) >> shift) + 3
        total += term
        rounding += term_err
        used = p + 1
        x = u + 2 * p * v
        num = x * (x + v)
        den = vv * (2 * p + 1) * (2 * p + 2)
        upper = term + term_err
        # q = r_num max(num, den) / (2^RATIO_BITS den)
        if upper.bit_length() - total.bit_length() < screen \
                and tail_is_negligible(upper,
                                       r_num * (num if num > den else den),
                                       den << RATIO_BITS,
                                       rounding + (total >> (prec - 8)),
                                       total, tol_num, tol_den):
            converged = True
            break
        if used >= max_terms:
            break
        coef = coef * num // den
        coef_err = coef_err * num // den + 2
    value = ctx.to_real(total) * ctx.power(ctx.two, -bits)
    return SeriesResult(value, used, converged)


def _exact_s(s, n: int, route: str, ctx: EvalContext) -> Fraction:
    """s exactly, or ValueError naming route unless finite s > 1, n >= 3."""
    try:
        sq = ctx.to_fraction(s)
    except ValueError:
        raise ValueError(f"{route} requires finite s > 1") from None
    if not sq > 1:
        raise ValueError(f"{route} requires s > 1")
    if n < 3:
        raise ValueError(f"{route} requires n >= 3")
    return sq


def zeta_sine_sum(s, n: int, ctx: EvalContext) -> ZetaApproxResult:
    """(2^s pi^s/(2^s-1)) sum_{i=1}^{2^{n-2}} (2^n sin((2i-1)pi/2^n))^{-s}.

    Converges to zeta(s) as n grows; exact pi^2/6 at s = 2 for every n.
    Requires finite real s > 1 and n >= 3.
    """
    _exact_s(s, n, "zeta_sine_sum", ctx)
    tot = ctx.power_sum(odd_sin_basis(n).values(ctx), -s, n)
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
    cos^2(pi/2^{n-1}), which approaches 1 for large n, so the number of
    terms grows like 2^{2n}. Status "ok" means the certified tail bound
    of _level_series held within max_terms; otherwise "terms-exhausted"
    after exactly max_terms terms. Requires finite real s > 1, n >= 3,
    max_terms >= 1.
    """
    res = _level_series(_exact_s(s, n, "zeta_binomial_series", ctx) / 2,
                        n, max_terms, ctx)
    s2 = ctx.to_real(s) / 2
    p2s = ctx.power(ctx.two, s)
    pref = ctx.power(ctx.two, 3 * s2 - n * ctx.to_real(s) + n - 3) \
        * ctx.power(ctx.pi, s) / (p2s - 1)
    value = pref * (2 * res.value)
    ratio = math.cos(math.pi / 2 ** (n - 1)) ** 2
    return ZetaApproxResult(
        value, n, res.terms_used, METHOD_BINOMIAL,
        _reference_error(value, s, ctx),
        STATUS_OK if res.converged else STATUS_EXHAUSTED,
        tail_ratio=ratio,
    )


def _zeta_weights(s_odd: int, n: int) -> list[int]:
    """The integer weights of the zeta(3) and zeta(5) cosecant sums."""
    return [exact_div(_ZETA_ODD[s_odd][0] * w, 2, "zeta weight")
            for w in odd_csc_weights(s_odd, n)]


def _zeta_weighted(s: int, n: int, method: str, ctx: EvalContext):
    if n < 3:
        raise ValueError(f"zeta{s}_weighted requires n >= 3")
    den = _ZETA_ODD[s][0] * (2 ** s - 1) * 2 ** (s * n - s - 1)
    value = ctx.power(ctx.pi, s) / den \
        * weighted_csc_sum(_zeta_weights(s, n), n, ctx)
    return ZetaApproxResult(value, n, 0, method,
                            _reference_error(value, s, ctx))


def zeta3_weighted(n: int, ctx: EvalContext) -> ZetaApproxResult:
    """pi^3/(7*2^{3n-4}) times the quadratic-weighted cosecant sum; -> zeta(3)."""
    return _zeta_weighted(3, n, METHOD_WEIGHTED3, ctx)


def zeta5_weighted(n: int, ctx: EvalContext) -> ZetaApproxResult:
    """pi^5/(93*2^{5n-6}) times the quartic-weighted cosecant sum; -> zeta(5)."""
    return _zeta_weighted(5, n, METHOD_WEIGHTED5, ctx)


class LevelIdentity(NamedTuple):
    lhs: object
    rhs: object
    gap: object
    terms_used: int
    converged: bool


def finite_level_identity(s_odd: int, n: int, max_terms: int,
                          ctx: EvalContext) -> LevelIdentity:
    """Exact-at-level identity behind the weighted zeta(3)/zeta(5) sums.

    csc^s t = 2^{s/2} sum_q (s/2)_q/q! cos^q 2t; over the level the odd q
    cancel, so the weighted sum, scale/2 S(s, n), is the level series at
    a = s/2 times scale 2^{n-3+s/2}, for s = 3 and s = 5.
    The gap is pure series truncation; converged means the certified
    stop of _level_series held, so gap <= tolerance |rhs| up to rounding
    in rhs. Requires n >= 3.
    """
    if s_odd not in _ZETA_ODD:
        raise ValueError("finite_level_identity requires s in {3, 5}")
    if n < 3:
        raise ValueError("finite_level_identity requires n >= 3")
    pref = _ZETA_ODD[s_odd][0] \
        * ctx.power(ctx.two, n - ctx.to_real(Fraction(8 - s_odd, 2)))
    res = _level_series(Fraction(s_odd, 2), n, max_terms, ctx)
    lhs = pref * (2 * res.value)
    rhs = weighted_csc_sum(_zeta_weights(s_odd, n), n, ctx)
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
    pure truncation, below tolerance/2 when converged. The rising
    factorial is (j-1)! (j)_{2p}/(2p)!, so this is _level_series at
    a = j. Requires j >= 1, n >= 3.
    """
    if j < 1:
        raise ValueError("bernoulli_limit_check requires j >= 1")
    if n < 3:
        raise ValueError("bernoulli_limit_check requires n >= 3")
    res = _level_series(Fraction(j), n, max_terms, ctx)
    value = math.factorial(j - 1) \
        * ctx.power(ctx.two, 1 - n * (2 * j - 1)) * res.value
    closed = ctx.to_real(bernoulli_closed_value(j))
    return BernoulliCheck(value, closed, ctx.fabs(value - closed),
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
