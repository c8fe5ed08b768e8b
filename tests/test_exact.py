"""Arithmetic kernel: folding rules, polynomials, evaluation contexts."""

import decimal
import math
import operator
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import fone, from_int, mpf_div, mpf_pi, round_nearest

from cospow import exact, minpoly, odd_power
from cospow.exact import (
    Basis,
    BasisVector,
    EvalContext,
    IntPolynomial,
    ScaledMatrix,
    ZeroBasisElementError,
    binom_int,
    binom_real,
    even_cos_basis,
    exact_div,
    int_mat_mul,
    odd_cos_basis,
    odd_sin_basis,
    poly_mul_coeffs,
)
from cospow.minpoly import closed_minpoly, nested_minpoly
from reference import (basis_values_by_kind, poly_mod_reduce,
                       schoolbook_product)

# +-(2^(8j-1) - 1): the largest magnitudes of j signed bytes
_BYTE_EDGES = [s * (2 ** (8 * j - 1) - 1) for j in range(1, 10) for s in (1, -1)]


@st.composite
def _factors(draw):
    """A coefficient list of up to 66 coefficients, with optional zero
    padding at both ends; a third are all-negative."""
    coeff = st.one_of(st.integers(-3, 3), st.integers(-2**80, 2**80),
                      st.sampled_from(_BYTE_EDGES))
    n = draw(st.integers(0, 66))
    cs = draw(st.lists(coeff, min_size=n, max_size=n))
    if draw(st.integers(0, 2)) == 0:
        cs = [-abs(c) for c in cs]
    pad = st.integers(0, 3)
    return [0] * draw(pad) + cs + [0] * draw(pad)


class TestFloorMod:
    def test_exact_div(self):
        assert exact_div(-24, 6, "test") == -4
        with pytest.raises(ArithmeticError, match="odd half"):
            exact_div(7, 2, "odd half")

    def test_exact_div_survives_optimize(self):
        """python -O strips asserts; the integrality guard must stay."""
        code = ("from cospow.exact import exact_div\n"
                "if __debug__:\n"
                "    raise SystemExit(2)\n"
                "try:\n"
                "    exact_div(7, 2, 'odd half')\n"
                "except ArithmeticError:\n"
                "    raise SystemExit(0)\n"
                "raise SystemExit(1)\n")
        proc = _run_python(["-O"], code)
        assert proc.returncode == 0, proc.stderr


class TestBinomial:
    def test_int_values(self):
        assert binom_int(5, 2) == 10
        assert binom_int(0, 0) == 1
        assert binom_int(5, 7) == 0
        assert binom_int(5, -1) == 0

    def test_int_rejects_negative_upper(self):
        with pytest.raises(ValueError):
            binom_int(-1, 0)

    def test_real_matches_int(self, ctx):
        for r in range(0, 12):
            for k in range(0, r + 1):
                assert ctx.close(binom_real(r, k, ctx),
                                 ctx.to_real(binom_int(r, k)))

    def test_real_half(self, ctx):
        # C(1/2, 2) = (1/2)(-1/2)/2 = -1/8
        v = binom_real(Fraction(1, 2), 2, ctx)
        assert ctx.close(v, ctx.to_real(Fraction(-1, 8)))

    @given(st.integers(1, 30), st.integers(0, 12))
    def test_negation_rule(self, a, k):
        """binom(-a, k) = (-1)^k a(a+1)...(a+k-1) / k!"""
        ctx = EvalContext(128)
        lhs = binom_real(-a, k, ctx)
        rhs = ctx.to_real(Fraction((-1) ** k * math.prod(range(a, a + k)),
                                   math.factorial(k)))
        assert ctx.close(lhs, rhs)

    def test_inexact_route(self, ctx):
        v = binom_real(ctx.to_real(0.5), 3, ctx)
        assert ctx.close(v, ctx.to_real(Fraction(1, 16)))


class TestFolding:
    def test_odd_fold_examples(self):
        # n=4: angles t*pi/16, canonical odd numerators 1,3,5,7 -> k=0..3
        b = odd_cos_basis(4)
        assert b.fold(1) == (0, 1)
        assert b.fold(7) == (3, 1)
        assert b.fold(9) == (3, -1)   # cos(9pi/16) = -cos(7pi/16)
        assert b.fold(15) == (0, -1)
        assert b.fold(17) == (0, -1)  # period 2pi in t is 32
        assert b.fold(-1) == (0, 1)

    def test_odd_fold_rejects_even(self):
        for b in (odd_cos_basis(4), odd_sin_basis(4)):
            with pytest.raises(ValueError):
                b.fold(2)

    def test_even_fold_examples(self):
        b = even_cos_basis(4)
        assert b.fold(0) == (0, 1)
        assert b.fold(3) == (3, 1)
        assert b.fold(5) == (3, -1)  # cos(5pi/8) = -cos(3pi/8)
        assert b.fold(8) == (0, -1)  # cos(pi) = -1
        assert b.fold(16) == (0, 1)

    def test_even_fold_zero_raises(self):
        with pytest.raises(ZeroBasisElementError):
            even_cos_basis(4).fold(4)
        with pytest.raises(ZeroBasisElementError):
            even_cos_basis(4).fold(12)

    @given(st.sampled_from(("odd_cos", "odd_sin")),
           st.integers(-500, 500).map(lambda v: 2 * v + 1),
           st.integers(2, 9))
    def test_odd_fold_numeric(self, kind, t, n):
        """sign * element(column) is the basis function at t*pi/2^n."""
        ctx = EvalContext(128)
        b = Basis(kind, n)
        k, sign = b.fold(t)
        assert 0 <= k < b.dim
        assert sign in (1, -1)
        g = ctx.sin if kind == "odd_sin" else ctx.cos
        assert ctx.close(g(ctx.pi * t / 2**n), sign * b.element(k, ctx))

    @given(st.integers(-500, 500), st.integers(3, 9))
    def test_even_fold_numeric(self, t, n):
        """sign * element(column) is cos(t*pi/2^{n-1}); the fold rejects
        exactly the angles whose cosine is cos(pi/2) = 0."""
        ctx = EvalContext(128)
        b = even_cos_basis(n)
        if t % 2 ** (n - 1) == 2 ** (n - 2):
            with pytest.raises(ZeroBasisElementError):
                b.fold(t)
            return
        k, sign = b.fold(t)
        assert 0 <= k < b.dim
        assert sign in (1, -1)
        assert ctx.close(ctx.cos(ctx.pi * t / 2 ** (n - 1)),
                         sign * b.element(k, ctx))

    @pytest.mark.parametrize("kind", ("odd_cos", "even_cos", "odd_sin"))
    @pytest.mark.parametrize("n", range(3, 10))
    def test_turn_is_fold_over_one_turn(self, kind, n):
        """fold over one full turn, t < 8 dim on the odd bases and t < 4 dim
        on the even one: the turn is fold's period, and fold raises exactly
        at the angles with no column, even t on the odd bases and
        cos(pi/2) = 0 on the even one."""
        b = Basis(kind, n)
        even = kind == "even_cos"
        period = (4 if even else 8) * b.dim
        for t in range(period):
            if t % (2 * b.dim) == b.dim if even else t % 2 == 0:
                with pytest.raises(ValueError):
                    b.fold(t)
                with pytest.raises(ValueError):
                    b.fold(t + period)
            else:
                assert b.fold(t) == b.fold(t + period), t

    @pytest.mark.parametrize("kind", ("odd_cos", "even_cos", "odd_sin"))
    @pytest.mark.parametrize("n", range(3, 8))
    def test_turn_numeric(self, kind, n):
        """g(t*pi/2^m) = sign * values[column] at 256 bits for every t of
        one full turn that fold gives a column; where it gives none, t is
        even on the odd bases and the cosine vanishes on the even one."""
        ctx = EvalContext(256)
        b = Basis(kind, n)
        g = ctx.sin if kind == "odd_sin" else ctx.cos
        m = n - 1 if kind == "even_cos" else n
        vals = b.values(ctx)
        for t in range(2 ** (m + 1)):
            x = g(ctx.pi * t / 2 ** m)
            try:
                k, sign = b.fold(t)
            except ValueError:
                assert ctx.close(x, 0) if kind == "even_cos" else t % 2 == 0
            else:
                assert ctx.close(x, sign * vals[k]), (kind, n, t)


class TestBases:
    def test_dimensions(self):
        assert odd_cos_basis(4).dim == 4
        assert even_cos_basis(5).dim == 8
        assert odd_sin_basis(3).dim == 2

    def test_element_values(self, ctx):
        b = odd_cos_basis(4)
        assert ctx.close(b.element(0, ctx), ctx.cos(ctx.pi / 16))
        assert ctx.close(b.element(3, ctx), ctx.cos(7 * ctx.pi / 16))
        e = even_cos_basis(4)
        assert ctx.close(e.element(0, ctx), ctx.one)
        assert ctx.close(e.element(2, ctx), ctx.cos(ctx.pi / 4))
        s = odd_sin_basis(4)
        assert ctx.close(s.element(1, ctx), ctx.sin(3 * ctx.pi / 16))

    @pytest.mark.parametrize("prec", (64, 128, 256, 2048))
    def test_values_equal_kind_branches(self, prec):
        """The one expression g(t*pi/2^n) of Basis.element gives bit for bit
        the values of one branch per kind, the even basis's cos 0 = 1
        included, on every kind at n = 2..12 (the even basis from 3)."""
        ctx = EvalContext(prec)
        for kind in ("odd_cos", "even_cos", "odd_sin"):
            for n in range(3 if kind == "even_cos" else 2, 13):
                b = Basis(kind, n)
                assert [v._mpf_ for v in b.values(ctx)] == [
                    v._mpf_ for v in basis_values_by_kind(b, ctx)], (kind, n)

    def test_bad_kind_and_range(self):
        with pytest.raises(ValueError):
            Basis("odd_tan", 4)
        with pytest.raises(ValueError):
            even_cos_basis(2)
        with pytest.raises(IndexError):
            odd_cos_basis(4).element(4, EvalContext(64))


class TestScaledMatrix:
    def test_shape_check(self):
        with pytest.raises(ValueError):
            ScaledMatrix(((1, 2),), 0, odd_cos_basis(4))

    def test_scale(self):
        """The scale 2^-log2_denom is kept as its exponent, which may be
        negative; a reader scales by an exact shift."""
        m = ScaledMatrix(((1, 0), (0, 1)), 3, odd_cos_basis(3))
        assert m.log2_denom == 3
        neg = ScaledMatrix(((1, 0), (0, 1)), -2, odd_sin_basis(3))
        assert neg.log2_denom == -2

    def test_reversal_involution(self):
        m = ScaledMatrix(((1, 2), (3, 4)), 1, odd_cos_basis(3))
        r = m.reversed_rows_and_columns(odd_sin_basis(3))
        assert r.entries == ((4, 3), (2, 1))
        assert r.basis.kind == "odd_sin"
        back = r.reversed_rows_and_columns(odd_cos_basis(3))
        assert back == m

    def test_basis_vector_value(self, ctx):
        v = BasisVector((Fraction(1), Fraction(-1)), odd_cos_basis(3))
        want = ctx.cos(ctx.pi / 8) - ctx.cos(3 * ctx.pi / 8)
        assert ctx.close(v.value(ctx), want)
        with pytest.raises(ValueError):
            BasisVector((Fraction(1),), odd_cos_basis(3))


class TestIntMat:
    def test_mul_and_transpose(self):
        a = [[1, 2], [3, 4]]
        b = [[0, 1], [1, 0]]
        assert int_mat_mul(a, b) == ((2, 1), (4, 3))

    def test_mul_shape_check(self):
        with pytest.raises(ValueError):
            int_mat_mul([[1, 2]], [[1], [2]])


class TestIntPolynomial:
    def test_normalization(self):
        assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPolynomial([]).degree == -1
        assert not IntPolynomial([0])
        assert bool(IntPolynomial([0, 1]))

    def test_rejects_non_integral_coefficients(self):
        """A coefficient that is not an int raises instead of being
        truncated, in the constructor and so in a product."""
        for coeffs in ([Fraction(1, 2), 1.9], [1.0], [Fraction(2)], ["1"]):
            with pytest.raises(TypeError):
                IntPolynomial(coeffs)
        with pytest.raises(TypeError):
            IntPolynomial([1, 2]) * IntPolynomial([Fraction(3, 2)])

    @pytest.mark.parametrize("op, a, b", [
        (operator.mul, IntPolynomial([1, 2]), Fraction(3, 2)),
        (operator.mul, 1.5, IntPolynomial([1, 2])),
        (operator.mul, IntPolynomial([1, 2]), 1.5),
        (operator.add, IntPolynomial([1, 2]), 1),
        (operator.add, 1, IntPolynomial([1, 2])),
        (operator.sub, IntPolynomial([1, 2]), 1),
        (operator.sub, Fraction(1, 2), IntPolynomial([1, 2])),
    ])
    def test_rejects_foreign_operands(self, op, a, b):
        """An operand that is not an IntPolynomial, nor an int factor of a
        product, raises TypeError, as a non-integral coefficient does."""
        with pytest.raises(TypeError):
            op(a, b)

    def test_ring_ops(self):
        p = IntPolynomial([1, 1])       # 1 + x
        q = IntPolynomial([-1, 1])      # -1 + x
        assert (p * q).coeffs == (-1, 0, 1)
        assert (p + q).coeffs == (0, 2)
        assert (p - p).degree == -1
        assert (3 * p).coeffs == (3, 3)

    def test_compose(self):
        p = IntPolynomial([0, 0, 1])    # x^2
        q = IntPolynomial([1, 1])       # 1 + x
        assert p.compose(q).coeffs == (1, 2, 1)
        assert p.compose(IntPolynomial([0, 1])) == p

    def test_eval_routes_agree(self, ctx):
        p = IntPolynomial([2, -3, 0, 5])
        assert p(Fraction(1, 2)) == Fraction(9, 8)
        assert p(2) == 36
        assert ctx.close(p(ctx.to_real(Fraction(1, 2))),
                         ctx.to_real(Fraction(9, 8)))
        z = p(ctx.mpc(0, 1))
        # p(i) = 2 - 3i - 5i = 2 - 8i
        assert ctx.close(z.real, ctx.two)
        assert ctx.close(z.imag, ctx.to_real(-8))

    def test_immutability(self):
        p = IntPolynomial([1])
        with pytest.raises(AttributeError):
            p.coeffs = (2,)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_product_matches_schoolbook(self, data):
        """Short and long factors, with small, large and byte-edge
        coefficients, all-negative factors and leading and trailing
        zeros."""
        a, b = data.draw(_factors()), data.draw(_factors())
        assert poly_mul_coeffs(a, b) == schoolbook_product(a, b)
        assert poly_mul_coeffs(a, a) == schoolbook_product(a, a)

    def test_product_edge_shapes(self):
        cut = 33
        mixed = [(-1) ** k * (k * k + 1) for k in range(600)]
        for a, b in [([], [1, 2]), ([3], []), ([], []), ([-7], [5]),
                     ([0, 0, 2], [0, -3, 0]), (mixed, [2, 0, -1]),
                     (mixed, mixed[:cut]), (mixed[:cut - 1], mixed),
                     ([0] * cut, mixed[:cut]), (mixed[:cut], [0] * 40),
                     ([-1] * 40, [-(2**300)] * cut)]:
            for x, y in ((a, b), (b, a)):
                assert poly_mul_coeffs(x, y) == schoolbook_product(x, y)

    def test_product_at_slot_edge(self):
        """Every product coefficient is a sum of at most L terms of size at
        most max|a| max|b|. With L = 33 and both factors constant at +-m,
        the middle one reaches that bound, and m is picked so the bound
        fills all but the top bit of a whole number of bytes."""
        for k in range(2, 9):
            m = math.isqrt((2 ** (8 * k - 1) - 1) // 33)
            assert (33 * m * m).bit_length() == 8 * k - 1
            for sa, sb in ((1, 1), (-1, -1), (1, -1)):
                a, b = [sa * m] * 33, [sb * m] * 33
                out = poly_mul_coeffs(a, b)
                assert out == schoolbook_product(a, b)
                assert max(map(abs, out)) == 33 * m * m

    def test_squaring(self):
        q = IntPolynomial([(-3) ** k + k for k in range(66)])
        assert q * q == IntPolynomial(schoolbook_product(q.coeffs, q.coeffs))
        cs = q.coeffs
        assert poly_mul_coeffs(cs, cs) == schoolbook_product(cs, list(cs))

    def test_mod_reduce(self):
        # x^4 mod (x^2 - 2) = 4
        p = IntPolynomial([0, 0, 0, 0, 1])
        f = IntPolynomial([-2, 0, 1])
        assert poly_mod_reduce(p, f) == (Fraction(4),)
        # non-monic modulus: x^3 mod (2x - 1) = 1/8
        g = IntPolynomial([-1, 2])
        assert poly_mod_reduce(IntPolynomial([0, 0, 0, 1]), g) == (
            Fraction(1, 8),)
        with pytest.raises(ZeroDivisionError):
            poly_mod_reduce(p, IntPolynomial())


def _run_python(flags: list[str], code: str) -> subprocess.CompletedProcess:
    """code in a fresh interpreter started with flags, importing cospow
    from this checkout."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True)


def _q_coefficients(n: int) -> list[int]:
    """The coefficients c_m of nested_minpoly's last iterate q in
    w = 4x^2, read off the closed form: 2 f_n's x^{2m} coefficient / 4^m."""
    return [exact_div(2 * c, 4 ** m, "q coefficient")
            for m, c in enumerate(closed_minpoly(n).coeffs[::2])]


def _q_at_minus_one(n: int) -> int:
    """q(-1) by the nested iteration v -> v^2 - 2 from -3."""
    v = -3
    for _ in range(n - 2):
        v = v * v - 2
    return v


class TestPackedSquares:
    """nested_minpoly squares q as one packed number q(-B): in bytes below
    minpoly._DECIMAL_MIN_LEVEL and in decimal from it on."""

    def test_levels_on_both_sides(self):
        assert 3 < minpoly._DECIMAL_MIN_LEVEL <= 14

    @pytest.mark.parametrize("n", range(3, 15))
    def test_slot_sum_is_q_at_minus_one(self, n):
        """q's coefficients alternate in sign, so their sizes sum to
        |q(-1)|. B = 256^kb or 10^kd, the fewest bytes or digits above that
        sum, exceeds every |c_m|, and the route nested_minpoly takes at n
        reads them as its slots."""
        cs = _q_coefficients(n)
        bound = _q_at_minus_one(n)
        assert bound > 0 and sum(map(abs, cs)) == bound
        assert all(c * (-1) ** m > 0 for m, c in enumerate(cs))
        if n < minpoly._DECIMAL_MIN_LEVEL:
            slots, base = minpoly._byte_slots, 256
            width = (bound.bit_length() + 7) // 8
        else:
            slots, base = minpoly._decimal_slots, 10
            width = len(str(bound))
        assert max(map(abs, cs)) <= bound < base ** width
        assert base ** (width - 1) <= bound
        assert slots(n - 2, bound) == list(map(abs, cs))

    @pytest.mark.parametrize("n", [6, 10, 11, 12])
    def test_both_routes_near_the_switch(self, n):
        cs = list(map(abs, _q_coefficients(n)))
        bound = _q_at_minus_one(n)
        assert minpoly._byte_slots(n - 2, bound) == cs
        assert minpoly._decimal_slots(n - 2, bound) == cs

    @pytest.mark.parametrize("slots", ["_byte_slots", "_decimal_slots"])
    def test_narrow_slots_fail_the_check(self, monkeypatch, slots):
        """Slots one byte or digit narrower than the largest |c_m| carry
        into each other, so their sum is not |q(-1)| and nested_minpoly
        raises instead of returning a wrong polynomial."""
        route = getattr(minpoly, slots)
        base = 256 if slots == "_byte_slots" else 10
        widest = max(map(abs, _q_coefficients(11)))
        monkeypatch.setattr(minpoly, slots,
                            lambda steps, bound: route(steps, widest // base))
        monkeypatch.setattr(minpoly, "_DECIMAL_MIN_LEVEL",
                            12 if slots == "_byte_slots" else 3)
        with pytest.raises(ArithmeticError, match="slot overflow"):
            nested_minpoly(11)

    def test_hostile_thread_context(self):
        """A thread context of 5 digits with no traps neither rounds the
        decimal squares nor is changed by them."""
        want = closed_minpoly(12)
        with decimal.localcontext() as hostile:
            hostile.prec = 5
            for signal in hostile.traps:
                hostile.traps[signal] = False
            before = repr(hostile)
            assert nested_minpoly(12) == want
            assert repr(decimal.getcontext()) == before

    def test_survives_optimize(self):
        """Exactness rests on trapped signals and a raised check, not on
        asserts, so python -O gives the same coefficients on both
        routes."""
        code = ("from cospow.minpoly import closed_minpoly, nested_minpoly\n"
                "if __debug__:\n"
                "    raise SystemExit(2)\n"
                "ok = all(nested_minpoly(n) == closed_minpoly(n)\n"
                "         for n in (9, 10, 11, 12, 13))\n"
                "raise SystemExit(0 if ok else 1)\n")
        proc = _run_python(["-O"], code)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("limit", [640, 4300, 0])
    def test_any_digit_limit(self, limit):
        """The slots of n = 13 (857 digits) and 14 (1,713) pass the lowest
        int-to-str limit Python accepts, 640, and are read in pieces under
        it; 0 means no limit. Each level gives the same coefficients."""
        code = ("import sys\n"
                "from cospow.minpoly import closed_minpoly, nested_minpoly\n"
                f"assert sys.get_int_max_str_digits() == {limit}\n"
                "ok = all(nested_minpoly(n) == closed_minpoly(n)\n"
                "         for n in (10, 13, 14))\n"
                "raise SystemExit(0 if ok else 1)\n")
        proc = _run_python(["-X", f"int_max_str_digits={limit}"], code)
        assert proc.returncode == 0, proc.stderr


class TestEvalContext:
    def test_immutable_and_independent(self):
        a = EvalContext(128)
        b = EvalContext(256)
        with pytest.raises(AttributeError):
            a.precision_bits = 512
        # distinct underlying precisions stay distinct
        assert a.pi != b.pi or a.precision_bits != b.precision_bits
        assert float(a.pi) == pytest.approx(math.pi)

    def test_minimum_precision(self):
        with pytest.raises(ValueError):
            EvalContext(32)

    def test_fraction_conversion(self, ctx):
        big = Fraction(10**60 + 1, 10**60)
        x = ctx.to_real(big)
        assert ctx.close(x, ctx.one + ctx.power(ctx.to_real(10), -60),
                         tol=ctx.power(ctx.two, -200))

    def test_tolerance_default(self):
        c = EvalContext(128)
        assert c.close(c.zero, c.power(c.two, -65))
        assert not c.close(c.zero, c.power(c.two, -63))

    def test_nstr(self, ctx):
        assert ctx.nstr(ctx.to_real(Fraction(1, 4)), 5) == "0.25"

    @pytest.mark.parametrize("prec", [64, 256])
    def test_integral_fraction_rounds_as_its_numerator(self, prec):
        """A Fraction with denominator 1 gives the tuple of its numerator,
        which is also the quotient by one that it used to be rounded as:
        exact, and for k wider than the precision rounded down, up, and
        to even from a tie either way."""
        c = EvalContext(prec)
        top = 2**(prec + 1)
        for k in (0, 1, -1, 2**(prec + 40), 3**prec + 1, top + 1, top + 3,
                  top + 2, top + 6):
            for k in (k, -k):
                got = c._round_exact(Fraction(k))
                assert got == c._round_exact(k), k
                assert got == mpf_div(from_int(k, prec, round_nearest), fone,
                                      prec, round_nearest), k

    @pytest.mark.parametrize("prec", [64, 256])
    def test_to_fraction_reads_exactly(self, prec):
        """to_fraction is _round_exact's inverse: an int, a Fraction or a
        float comes back as it is, an mpf as the dyadic rational it holds,
        sign included, also where float() would overflow (2^2000) or
        underflow (2^-2000)."""
        c = EvalContext(prec)
        for x in (0, 7, -7, 2**prec + 1, Fraction(-3, 8), Fraction(1, 3),
                  0.1, -2.5, 1e300):
            got = c.to_fraction(x)
            assert type(got) is Fraction and got == Fraction(x), x
        for k in (0, 1, -5, 2**2000, -(2**2000), Fraction(1, 2**2000),
                  Fraction(-3, 2**70), 3**(prec // 2)):
            assert c.to_fraction(c.to_real(k)) == k, k
        third = c.to_real(Fraction(1, 3))
        assert c.to_real(c.to_fraction(third)) == third
        assert c.to_fraction(c.tolerance) == Fraction(1, 2**(prec // 2))

    @pytest.mark.parametrize("x", ["inf", "-inf", "nan"])
    def test_to_fraction_refuses_non_finite(self, x):
        c = EvalContext(128)
        for value in (float(x), c.to_real(x), x):
            with pytest.raises(ValueError):
                c.to_fraction(value)


def _own_values(ctx):
    """pi, tolerance, a level table and a verify residual of ctx, as raw
    libmp tuples."""
    m = odd_power.matrix_scatter(7, 6)
    return (ctx.pi._mpf_, ctx.tolerance._mpf_,
            [v._mpf_ for v in odd_sin_basis(7).values(ctx)],
            odd_power.verify_numeric(m, 7, ctx)._mpf_)


class TestSharedContext:
    """EvalContexts at one precision share one mpmath context; those at
    different precisions share nothing, and no context shares a table."""

    @pytest.mark.parametrize("order", [(128, 256), (256, 128)])
    def test_precisions_keep_their_own_values(self, order, monkeypatch):
        """Each precision built alone, then both built first and used
        interleaved in either order: every value is its own precision's,
        pi and tolerance the libmp ones."""
        alone = {}
        for prec in order:
            monkeypatch.setattr(exact, "_SHARED", {})
            alone[prec] = _own_values(EvalContext(prec))
        monkeypatch.setattr(exact, "_SHARED", {})
        ctxs = [EvalContext(prec) for prec in order]
        ctxs += [EvalContext(prec) for prec in order]
        for ctx in ctxs:
            prec = ctx.precision_bits
            got = _own_values(ctx)
            assert got == alone[prec], prec
            assert got[0] == mpf_pi(prec, round_nearest)
            assert got[1] == (0, 1, -(prec // 2), 1)
        assert alone[128] != alone[256]

    def test_tables_stay_per_context(self, monkeypatch):
        """A new context at the same precision builds its own table, the
        same bits as the first's. Builds are counted at _dyadic_walk,
        which runs once per table built; dyadic_trig itself also answers
        from the context's store."""
        builds = []
        real = exact._dyadic_walk

        def counting(*args):
            builds.append(args)
            return real(*args)

        monkeypatch.setattr(exact, "_dyadic_walk", counting)
        b = odd_cos_basis(8)
        first, second = EvalContext(256), EvalContext(256)
        assert first._mp is second._mp
        table = b.values(first)
        assert b.values(first) is table
        assert first.dyadic_trig(b) is table
        assert len(builds) == 1
        other = b.values(second)
        assert len(builds) == 2
        assert other is not table
        assert [v._mpf_ for v in other] == [v._mpf_ for v in table]

    def test_one_mpmath_context_per_precision(self, monkeypatch):
        made = []

        class Counting(exact.MPContext):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(exact, "_SHARED", {})
        monkeypatch.setattr(exact, "MPContext", Counting)
        ctxs = [EvalContext(256) for _ in range(50)]
        assert len(made) == 1
        assert all(c._mp is made[0] for c in ctxs)
        assert made[0].prec == 256
        EvalContext(128)
        assert len(made) == 2 and made[1].prec == 128
        with pytest.raises(ValueError):
            EvalContext(32)
        assert len(made) == 2 and 32 not in exact._SHARED


def _mpf_row_sum(ctx, row, values):
    """The loop EvalContext.row_sums replaces: one mpf product and one mpf
    sum per nonzero entry, each rounded by mpmath."""
    acc = ctx.zero
    for entry, v in zip(row, values):
        if entry:
            acc += entry * v
    return acc


_PRECISIONS = st.one_of(st.sampled_from((64, 65, 128, 256, 2048)),
                        st.integers(64, 2048))
# small gaps drawn twice as often: they put sums on halfway cases
_GAPS = st.one_of(st.integers(-2, 2), st.integers(-8, 8),
                  st.integers(100, 3000), st.integers(-3000, -100))
_ENTRIES = st.one_of(
    st.just(0), st.integers(-3, 3), st.integers(-2**300, 2**300),
    st.sampled_from([s * (2**k + d) for k in (1, 64, 299) for d in (-1, 0)
                     for s in (1, -1)]))


def _mantissa(draw, prec: int) -> int:
    """Below 2^prec: at the top, just past half, small, or any."""
    top = 2 ** prec
    return draw(st.sampled_from((top - 1, top - 2, top // 2 + 1, 1, 2, 3))
                | st.integers(1, top - 1))


@st.composite
def _row_sum_cases(draw):
    """A precision and one row of entries against values m 2^e: mantissas
    at the top of the precision, exponent gaps past 100 bits (mpmath's
    shortcut for a far addend) and past the precision, signed entries of
    up to 300 bits, and optionally a leading pair that cancels exactly."""
    prec = draw(_PRECISIONS)
    exp = draw(st.integers(-3000, 100))
    pairs = []
    for _ in range(draw(st.integers(0, 10))):
        sign = draw(st.sampled_from((1, -1)))
        pairs.append((draw(_ENTRIES), sign * _mantissa(draw, prec), exp))
        exp += draw(_GAPS)
    if draw(st.booleans()) or not pairs:
        e, m = draw(_ENTRIES.filter(bool)), _mantissa(draw, prec)
        pairs[:0] = [(e, m, exp), (-e, m, exp)]
    ctx = EvalContext(prec)
    values = [ctx.to_real(Fraction(m) * Fraction(2) ** x) for _, m, x in pairs]
    return ctx, [e for e, _, _ in pairs], values


class TestRowSums:
    @settings(max_examples=150, deadline=None)
    @given(_row_sum_cases())
    def test_bit_for_bit_the_mpf_loop(self, case):
        ctx, row, values = case
        (got,) = ctx.row_sums([row], values)
        assert got == _mpf_row_sum(ctx, row, values)

    @pytest.mark.parametrize("row, values, want", [
        # 1 + half an ulp ties to the even 1; from the odd 1 + ulp it
        # rounds up to 1 + 2 ulp
        ([1, 1], [(1, 0), (1, -64)], (1, 0)),
        ([1, 1], [(2**63 + 1, -63), (1, -64)], (2**62 + 1, -62)),
        # a far addend, below or above, and its negation
        ([1, 1], [(1, 0), (1, -3000)], (1, 0)),
        ([1, -1], [(1, 0), (1, -3000)], (1, 0)),
        ([-1, 1], [(1, -3000), (1, 0)], (1, 0)),
        # exact cancellation, then a fresh start from zero
        ([5, -5], [(3, -7), (3, -7)], (0, 0)),
        ([5, -5, 1], [(3, -7), (3, -7), (1, 900)], (1, 900)),
    ])
    def test_rounding_edges(self, row, values, want):
        ctx = EvalContext(64)
        vals = [ctx.to_real(Fraction(m) * Fraction(2) ** x) for m, x in values]
        (got,) = ctx.row_sums([row], vals)
        assert got == _mpf_row_sum(ctx, row, vals)
        assert got == ctx.to_real(Fraction(want[0]) * Fraction(2) ** want[1])

    @pytest.mark.parametrize("row", [
        [0, 0, 0, 3, -1, 4, 1, -5],
        [3, -1, 4, 1, -5, 0, 0, 0],
        [0, 2, 0, 0, -7, 0, 0, 1],
        [0] * 8,
    ], ids=["zeros-first", "zeros-last", "zeros-between", "all-zero"])
    def test_zero_entries_are_skipped(self, ctx, row):
        vals = odd_cos_basis(5).values(ctx)
        (got,) = ctx.row_sums([row], vals)
        assert got == _mpf_row_sum(ctx, row, vals)
        assert (got == 0) == (not any(row))

    def test_one_sum_per_row(self, ctx):
        vals = odd_cos_basis(5).values(ctx)
        rows = [[1, 0, 0, 0, 0, 0, 0, 0], [0] * 8, [3, -1, 4, 1, -5, 9, 2, -6]]
        assert list(ctx.row_sums(rows, vals)) == [
            _mpf_row_sum(ctx, row, vals) for row in rows]
