"""Exact change-of-basis matrices for odd positive cosine powers.

For odd r >= 1 there is a 2^{n-2} x 2^{n-2} integer matrix M with

    cos^r((2i-1)pi/2^n) = (1/2^{r-1}) sum_k M[i,k] cos((2k-1)pi/2^n).

Row 1 comes from an alternating binomial sum; every later row is a signed
permutation of row 1. Two independent constructions are implemented and
must agree entrywise, which is the core self-check of the package:

  * scatter: walk row 1 through the permutation/sign law (perm_sign) and
    deposit each entry at its image position;
  * gather: compute each entry in place from a modular inverse power,
    looking it up in the row-1 formula evaluated once per call on the
    extended index range 1..2^{n-1}, where it is antisymmetric, so no
    manual folding is needed. Gather never uses perm_sign.

The unsigned permutation law makes {1..2^{n-2}} a cyclic abelian group
(group elements are plain ints here). The matrices are normal and any two
at the same level commute, all checkable in exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    Basis,
    BasisVector,
    EvalContext,
    ScaledMatrix,
    binom_int,
    floor_div,
    int_mat_mul,
    int_mat_transpose,
    make_matrix,
    mod_pos,
    odd_cos_basis,
)


def _check_odd_r(r: int):
    if r < 1 or r % 2 == 0:
        raise ValueError("power r must be odd and >= 1")


def first_row_entry(r: int, n: int, j: int) -> int:
    """Row-1 entry at (possibly extended) column j, 1 <= j <= 2^{n-1}.

    The alternating sum is antisymmetric under j -> 2^{n-1} - j + 1, which
    is what lets the gather construction skip explicit folding.
    """
    _check_odd_r(r)
    half = (r - 1) // 2
    tot = 0
    for k in range(floor_div(r + 1, 2**n) + 1):
        tot += (-1) ** k * (
            binom_int(r, half - (k * 2 ** (n - 1) + j - 1))
            - binom_int(r, half - ((k + 1) * 2 ** (n - 1) - j))
        )
    return tot


def first_row(r: int, n: int) -> tuple[int, ...]:
    """Coefficients of cos^r(pi/2^n) over the odd-cosine basis, times
    2^{r-1}. Requires odd r >= 1 and n >= 2."""
    if n < 2:
        raise ValueError("first_row requires n >= 2")
    return tuple(first_row_entry(r, n, j) for j in range(1, 2 ** (n - 2) + 1))


@dataclass(frozen=True)
class PermSign:
    m: int        # target column, 1-based
    q_parity: int  # sign is (-1)^q_parity

    @property
    def sign(self) -> int:
        return -1 if self.q_parity else 1


def perm_sign(i: int, j: int, n: int) -> PermSign:
    """Where row i sends row-1 column j, and with what sign.

    p = 2ij - i - j + 1 tracks the product of odd numbers (2i-1)(2j-1);
    the quotient/residue pair of p against 2^{n-2} and 2^{n-1} yields the
    folded position and the reflection sign.
    """
    dim = 2 ** (n - 2)
    if not (1 <= i <= dim and 1 <= j <= dim):
        raise ValueError("perm_sign indices out of range")
    p = 2 * i * j - i - j + 1
    s = floor_div(p - 1, dim)
    m = mod_pos((-1) ** s * (p - s * dim), dim + 1)
    q = floor_div(dim + 2 * i * j - i - j, 2 ** (n - 1))
    return PermSign(m, q & 1)


def matrix_scatter(r: int, n: int) -> ScaledMatrix:
    """Build M by scattering row 1 through the permutation/sign law."""
    _check_odd_r(r)
    if n < 2:
        raise ValueError("matrix_scatter requires n >= 2")
    dim = 2 ** (n - 2)
    fr = first_row(r, n)
    rows = [[0] * dim for _ in range(dim)]
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            ps = perm_sign(i, j, n)
            rows[i - 1][ps.m - 1] = ps.sign * fr[j - 1]
    return make_matrix(rows, r - 1, odd_cos_basis(n))


def matrix_gather(r: int, n: int) -> ScaledMatrix:
    """Build M entry by entry from the modular inverse power.

    (2i-1)^{2^{n-2}-1} inverts 2i-1 modulo 2^{n-1} (Euler); the full
    product X = (i+j-1)(2i-1)^{2^{n-2}-1} is reduced modulo 2^n so the
    parity of floor(X/2^{n-1}) survives as bit n-1 of the residue. The
    huge power is never materialized.

    The entry is then +-first_row_entry(r, n, X mod 2^{n-1}). The extended
    row of all 2^{n-1} such values is built once per call, so each entry
    is a lookup; the row is a local, nothing is cached across calls.
    """
    _check_odd_r(r)
    if n < 2:
        raise ValueError("matrix_gather requires n >= 2")
    dim = 2 ** (n - 2)
    half = 2 ** (n - 1)
    modulus = 2**n
    # ext[p] for extended column 1 <= p <= 2^{n-1}; ext[0] is unused
    ext = [0] + [first_row_entry(r, n, p) for p in range(1, half + 1)]
    rows = []
    for i in range(1, dim + 1):
        inv = pow(2 * i - 1, dim - 1, modulus)
        row = []
        for j in range(1, dim + 1):
            x = (i + j - 1) * inv % modulus
            v = ext[x % half]
            row.append(-v if x >= half else v)
        rows.append(row)
    return make_matrix(rows, r - 1, odd_cos_basis(n))


# the permutation law as a group on {1..2^{n-2}}

def group_op(a: int, b: int, n: int) -> int:
    """The composition index: a then b lands on group_op(a, b, n)."""
    return perm_sign(a, b, n).m


def group_inverse(a: int, n: int) -> int:
    dim = 2 ** (n - 2)
    for x in range(1, dim + 1):
        if group_op(a, x, n) == 1:
            return x
    raise ArithmeticError(f"no inverse for {a} at level {n}")


def element_order(a: int, n: int) -> int:
    x, order = a, 1
    while x != 1:
        x = group_op(x, a, n)
        order += 1
    return order


def find_generator(n: int) -> int | None:
    dim = 2 ** (n - 2)
    for g in range(1, dim + 1):
        if element_order(g, n) == dim:
            return g
    return None


def cayley_table(n: int) -> tuple[tuple[int, ...], ...]:
    dim = 2 ** (n - 2)
    return tuple(
        tuple(group_op(a, b, n) for b in range(1, dim + 1))
        for a in range(1, dim + 1)
    )


def verify_group_axioms(n: int) -> dict[str, bool]:
    """Closure, identity, commutativity, associativity, cyclicity of the
    unsigned permutation law, checked exhaustively at level n."""
    dim = 2 ** (n - 2)
    elems = range(1, dim + 1)
    table = cayley_table(n)
    closure = all(1 <= v <= dim for row in table for v in row)
    identity = all(table[0][b - 1] == b and table[b - 1][0] == b
                   for b in elems)
    commutative = all(table[a - 1][b - 1] == table[b - 1][a - 1]
                      for a in elems for b in elems)
    associative = all(
        table[table[a - 1][b - 1] - 1][c - 1]
        == table[a - 1][table[b - 1][c - 1] - 1]
        for a in elems for b in elems for c in elems
    )
    cyclic = find_generator(n) is not None
    return {
        "closure": closure,
        "identity": identity,
        "commutative": commutative,
        "associative": associative,
        "cyclic": cyclic,
    }


def verify_numeric(m: ScaledMatrix, r: int, ctx: EvalContext):
    """Max residual of the represented expansion at level n.

    Row i asserts g^r((2i-1)pi/2^n) = scale * sum_k entries[i][k] * basis_k
    where g is cos for cosine bases and sin for the sine basis; r may be
    negative. Works for every matrix this package constructs.
    """
    n = m.basis.n
    scale = ctx.power(ctx.two, -m.log2_denom)
    fn = ctx.sin if m.basis.kind == "odd_sin" else ctx.cos
    worst = ctx.zero
    for i in range(1, m.dim + 1):
        theta = ctx.pi * (2 * i - 1) / 2**n
        lhs = ctx.power(fn(theta), r)
        rhs = ctx.zero
        for k, entry in enumerate(m.row(i - 1)):
            if entry:
                rhs += entry * m.basis.element(k, ctx)
        worst = max(worst, ctx.fabs(lhs - scale * rhs))
    return worst


def is_normal(m: ScaledMatrix) -> bool:
    """Exact test of M M^T = M^T M."""
    t = int_mat_transpose(m.entries)
    return int_mat_mul(m.entries, t) == int_mat_mul(t, m.entries)


def commutes(a: ScaledMatrix, b: ScaledMatrix) -> bool:
    """Exact test of AB = BA; requires matching basis."""
    if a.basis != b.basis:
        raise ValueError("commutes requires matching bases")
    return int_mat_mul(a.entries, b.entries) == int_mat_mul(b.entries, a.entries)


def conjugation_invariance(m: ScaledMatrix, a: int) -> bool:
    """Entrywise invariance of M under the signed relabeling by a:

        M[i,j] = s_i s_j M[a o i, a o j]

    with (a o i, s_i) = perm_sign(a, i, n). The sign convention extends
    the group law by (-a) o b = -(a o b).
    """
    n = m.basis.n
    dim = m.dim
    if not 1 <= a <= dim:
        raise ValueError("group element out of range")
    for i in range(1, dim + 1):
        pi = perm_sign(a, i, n)
        for j in range(1, dim + 1):
            pj = perm_sign(a, j, n)
            if m.entries[i - 1][j - 1] != (
                pi.sign * pj.sign * m.entries[pi.m - 1][pj.m - 1]
            ):
                return False
    return True


def power_sum(r: int, n: int) -> BasisVector:
    """Coefficients c with sum_i cos^r((2i-1)pi/2^n) = sum_j c_j cos_j,
    as exact rationals (the 1/2^{r-1} scale folded in)."""
    m = matrix_gather(r, n)
    den = 2 ** (r - 1)
    cols = tuple(
        Fraction(sum(m.entries[i][j] for i in range(m.dim)), den)
        for j in range(m.dim)
    )
    return BasisVector(cols, m.basis)


def all_angles_power_sum(r: int, m: int) -> list[tuple[int, BasisVector]]:
    """Decompose sum_{i=1}^{2^{m-1}-1} cos^r(i pi/2^m) by level.

    Each i factors as (2t-1) 2^{m-n}, so the full sum splits into the
    per-level odd-angle sums for n = 2..m.
    """
    _check_odd_r(r)
    if m < 2:
        raise ValueError("all_angles_power_sum requires m >= 2")
    return [(n, power_sum(r, n)) for n in range(2, m + 1)]


def sine_basis_variant(m: ScaledMatrix) -> ScaledMatrix:
    """The same transform presented over the odd-sine basis.

    sin((2k-1)pi/2^n) = cos((2k'-1)pi/2^n) for k' = 2^{n-2}-k+1, so the
    conversion is exactly: reverse the row order and the column order.
    """
    if m.basis.kind != "odd_cos":
        raise ValueError("sine_basis_variant expects an odd_cos matrix")
    return m.reversed_rows_and_columns(Basis("odd_sin", m.basis.n))
