"""Reference routes that only the tests use: plain algorithms that the
package's faster routes are checked against."""

from fractions import Fraction
from operator import add

from mpmath.libmp import (mpf_cos, mpf_mul_int, mpf_pi, mpf_shift, mpf_sin,
                          round_nearest)

from cospow.exact import IntPolynomial, odd_cos_basis, odd_sin_basis
from cospow.minpoly import _average_stream
from cospow.series import RATIO_BITS, SeriesResult, tail_is_negligible
from cospow.zeta import _tail_ratio_above


def schoolbook_product(a, b) -> list[int]:
    """Ascending coefficients of the product of two ascending coefficient
    lists by the double loop; an empty factor gives the empty list."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ci in enumerate(a):
        for j, cj in enumerate(b):
            out[i + j] += ci * cj
    return out


def poly_mod_reduce(p: IntPolynomial, f: IntPolynomial) -> tuple[Fraction, ...]:
    """Remainder of p modulo f over the rationals, ascending coefficients.

    f must be nonzero; its leading coefficient need not be 1 (the reduction
    divides through by it, so a leading power of two is fine).
    """
    if not f:
        raise ZeroDivisionError("poly_mod_reduce modulus is zero")
    rem = [Fraction(c) for c in p.coeffs]
    fc = [Fraction(c) for c in f.coeffs]
    lead = fc[-1]
    df = len(fc) - 1
    while len(rem) - 1 >= df and rem:
        q = rem[-1] / lead
        shift = len(rem) - 1 - df
        for k, c in enumerate(fc):
            rem[shift + k] -= q * c
        while rem and rem[-1] == 0:
            rem.pop()
    return tuple(rem)


def binomial_rows():
    """C(r, 0), ..., C(r, r) for r = 0, 1, 2, ... by Pascal's rule,
    additions only."""
    row = [1]
    while True:
        yield row
        row = [1, *map(add, row, row[1:]), 1]


def wrapped_binomial(row, n: int, a: int, b: int) -> int:
    """The binomial row C(r, 0..r), r = len(row) - 1, wrapped around
    level n with alternating signs:

        sum_{k>=0} (-1)^k [C(r, h - k 2^{n-1} - a) - C(r, h - (k+1) 2^{n-1} + b)]

    with h = floor(r/2), for 0 <= a, b <= 2^{n-1}. Every first row of a
    cosine power is this sum: odd r at column j takes (a, b) = (j-1, j)
    on the extended range 1 <= j <= 2^{n-1}, even r takes (j, j) and half
    of (0, 0) for the constant, and (0, 0) at r = 2p is the level average
    of (2cos)^{2p}. The loop stops once both lower indices are negative.
    """
    def binom(k):
        return row[k] if k >= 0 else 0

    step = 2 ** (n - 1)
    h = (len(row) - 1) // 2
    tot = 0
    for k in range(max(h - a, h + b - step) // step + 1):
        tot += (-1) ** k * (binom(h - k * step - a)
                            - binom(h - (k + 1) * step + b))
    return tot


def exact_level_series(a: Fraction, n: int, max_terms: int, ctx):
    """zeta._level_series as it read before the certified fixed-point
    tail: every exact average A_{n-1}(p) of the Newton stream, at its full
    2p bits, cut to its top bits term by term. Same coefficients, same
    certified stop, so the result must match the kernel's bit for bit."""
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    u, v = a.numerator, a.denominator
    vv = v * v
    prec = ctx.precision_bits
    bits = prec + 2 * max_terms.bit_length() + 8
    tol_num, tol_den = ctx.to_fraction(ctx.tolerance).as_integer_ratio()
    r_num = _tail_ratio_above(n)
    coef, coef_err = 1 << bits, 0
    total = rounding = used = 0
    converged = False
    for p, avg in enumerate(_average_stream(n - 1)):
        cut = max(2 * p - coef.bit_length(), 0)
        top = avg >> cut
        shift = 2 * p - cut
        term = (coef * top) >> shift
        term_err = ((coef_err * (top + 1)) >> shift) + 3
        total += term
        rounding += term_err
        used = p + 1
        x = u + 2 * p * v
        num = x * (x + v)
        den = vv * (2 * p + 1) * (2 * p + 2)
        if tail_is_negligible(term + term_err,
                              r_num * (num if num > den else den),
                              den << RATIO_BITS,
                              rounding + (total >> (prec - 8)), total,
                              tol_num, tol_den):
            converged = True
            break
        if used >= max_terms:
            break
        coef = coef * num // den
        coef_err = coef_err * num // den + 2
    value = ctx.to_real(total) * ctx.power(ctx.two, -bits)
    return SeriesResult(value, used, converged)


def scatter_by_cell(first_row, basis):
    """Entries of the scatter of first_row over basis, cell by cell: row
    i puts column j, at t = 2j+1 on the odd bases and t = j on the even
    one, at the column and sign basis.fold gives t(2i-1), read from a
    table of fold over one period, 4 dim on the even basis and 8 dim on
    the odd ones, at every t that has a column."""
    dim = basis.dim
    even = basis.kind == "even_cos"
    period = (4 if even else 8) * dim
    turn = {t: basis.fold(t) for t in range(period)
            if (t % (2 * dim) != dim if even else t % 2)}
    ts = range(dim) if even else range(1, 2 * dim, 2)
    rows = []
    for odd in range(1, 2 * dim, 2):
        row = [0] * dim
        for t, v in zip(ts, first_row):
            k, sign = turn[t * odd % period]
            row[k] = sign * v
        rows.append(tuple(row))
    return tuple(rows)


def basis_values_by_kind(basis, ctx):
    """Basis.values as Basis.element computed it with one branch per kind:
    cos((2k+1)pi/2^n), sin((2k+1)pi/2^n), and on the even basis the
    constant 1 at column 0 and cos(k pi/2^(n-1)) after it."""
    def element(k):
        if basis.kind == "odd_cos":
            return ctx.cos(ctx.pi * (2 * k + 1) / 2**basis.n)
        if basis.kind == "odd_sin":
            return ctx.sin(ctx.pi * (2 * k + 1) / 2**basis.n)
        if k == 0:
            return ctx.one
        return ctx.cos(ctx.pi * k / 2 ** (basis.n - 1))

    return tuple(map(element, range(basis.dim)))


def mpf_dyadic_trig(ctx, sine: bool, ts, n: int) -> tuple:
    """EvalContext.dyadic_trig as it evaluated every angle before the level
    tables were built by rotation: one mpf_sin or mpf_cos per t, at
    mpmath's argument round(round(pi) t)/2^n, on libmp tuples."""
    prec, rnd = ctx.precision_bits, round_nearest
    g = mpf_sin if sine else mpf_cos
    pi = mpf_pi(prec, rnd)
    return tuple(ctx._mp.make_mpf(g(mpf_shift(mpf_mul_int(pi, t, prec, rnd),
                                              -n), prec, rnd)) for t in ts)


# The oracle's loops on mpf objects, as the package ran them before
# EvalContext moved them onto mpmath's raw tuples; the package's results
# must equal them bit for bit.

def mpf_max_residual(m, r: int, ctx):
    """odd_power.verify_numeric as the mpf loop over EvalContext.row_sums."""
    scale = ctx.power(ctx.two, -m.log2_denom)
    vals = m.basis.values(ctx)
    if m.basis.kind == "even_cos":
        g_vals = odd_cos_basis(m.basis.n).values(ctx)
    else:
        g_vals = vals
    worst = ctx.zero
    for rhs, g in zip(ctx.row_sums(m.entries, vals), g_vals):
        worst = max(worst, ctx.fabs(ctx.power(g, r) - scale * rhs))
    return worst


def mpf_direct_csc_power_sum(s: int, n: int, ctx):
    """negative_power.direct_csc_power_sum as the mpf loop."""
    tot = ctx.zero
    for sin in odd_sin_basis(n).values(ctx):
        tot += sin ** (-s)
    return tot


def mpf_weighted_csc_sum(weights, n: int, ctx):
    """negative_power.weighted_csc_sum as the mpf loop."""
    tot = ctx.zero
    for w, sin in zip(weights, odd_sin_basis(n).values(ctx)):
        tot += ctx.to_real(w) / sin
    return tot


def mpf_zeta_sine_sum(s, n: int, ctx):
    """zeta.zeta_sine_sum's value as the mpf loop."""
    tot = ctx.zero
    big = 2**n
    for sin in odd_sin_basis(n).values(ctx):
        tot += ctx.power(big * sin, -s)
    p2s = ctx.power(ctx.two, s)
    return p2s * ctx.power(ctx.pi, s) / (p2s - 1) * tot


# The group law as the package wrote it before odd_power gave the
# composition fold and the modular inverse one body each: every function
# folds (2a-1)(2b-1) or reduces its own Euler power.

def folded_group_op(a: int, b: int, n: int) -> int:
    """odd_power.group_op: the 1-based fold of (2a-1)(2b-1)."""
    basis = odd_cos_basis(n)
    if not (1 <= a <= basis.dim and 1 <= b <= basis.dim):
        raise ValueError("group elements out of range")
    return basis.fold((2 * a - 1) * (2 * b - 1))[0] + 1


def euler_group_inverse(a: int, n: int) -> int:
    """odd_power.group_inverse: the fold of (2a-1)^{2^{n-2}-1} mod 2^n."""
    basis = odd_cos_basis(n)
    if not 1 <= a <= basis.dim:
        raise ValueError("group element out of range")
    return basis.fold(pow(2 * a - 1, basis.dim - 1, 4 * basis.dim))[0] + 1


def folded_element_order(a: int, n: int) -> int:
    """odd_power.element_order as the loop over folded_group_op."""
    x, order = a, 1
    while x != 1:
        x = folded_group_op(x, a, n)
        order += 1
    return order


def euler_inverse_index(i: int, n: int) -> int:
    """chebyshev.inverse_index: i (2i-1)^{2^{n-1}-1} mod 2^{n+1}."""
    if not 1 <= i <= 2 ** (n - 2):
        raise ValueError("inverse_index requires 1 <= i <= 2^(n-2)")
    mod = 2 ** (n + 1)
    return i * pow(2 * i - 1, 2 ** (n - 1) - 1, mod) % mod


def folded_composition_angle(i: int, j: int, n: int) -> tuple[int, int]:
    """chebyshev.signed_composition_angle: the 1-based odd-cosine fold of
    (2i-1)(2j-1) and its sign, for any i, j >= 1."""
    if i < 1 or j < 1:
        raise ValueError("signed_composition_angle requires i, j >= 1")
    k, sign = odd_cos_basis(n).fold((2 * i - 1) * (2 * j - 1))
    return k + 1, sign


def relabeling(basis, a: int) -> list[tuple[int, int]]:
    """odd_power.conjugation_invariance's relabeling by a over an odd
    basis: (0-based column, sign) of basis.fold((2a-1)(2i-1)), each i."""
    return [basis.fold((2 * a - 1) * (2 * i - 1))
            for i in range(1, basis.dim + 1)]


def relabeled_invariance(m, a: int) -> bool:
    """odd_power.conjugation_invariance on relabeling(m.basis, a)."""
    folds = relabeling(m.basis, a)
    return all(
        m.entries[i][j] == si * sj * m.entries[ki][kj]
        for i, (ki, si) in enumerate(folds)
        for j, (kj, sj) in enumerate(folds))
