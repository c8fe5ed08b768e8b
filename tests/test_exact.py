"""Arithmetic kernel: folding rules, polynomials, evaluation contexts."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cospow.exact import (
    Basis,
    BasisVector,
    DyadicAngle,
    EvalContext,
    IntPolynomial,
    ScaledMatrix,
    ZeroBasisElementError,
    binom_int,
    binom_real,
    even_cos_basis,
    exact_div,
    floor_div,
    fold_even_cos_index,
    fold_odd_cos_index,
    int_mat_mul,
    int_mat_transpose,
    make_matrix,
    mod_pos,
    odd_cos_basis,
    odd_sin_basis,
    pochhammer,
    poly_compose,
    poly_mod_reduce,
    poly_x,
)


class TestFloorMod:
    def test_floor_div_negative(self):
        assert floor_div(-7, 2) == -4
        assert floor_div(-1, 16) == -1
        assert floor_div(7, 2) == 3

    def test_mod_pos_negative(self):
        assert mod_pos(-7, 16) == 9
        assert mod_pos(-16, 16) == 0
        assert mod_pos(33, 16) == 1

    def test_rejects_nonpositive_modulus(self):
        with pytest.raises(ValueError):
            floor_div(5, 0)
        with pytest.raises(ValueError):
            mod_pos(5, -2)

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
    def test_division_identity(self, a, b):
        assert floor_div(a, b) * b + mod_pos(a, b) == a
        assert 0 <= mod_pos(a, b) < b

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
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True)
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

    def test_pochhammer_values(self, ctx):
        assert ctx.close(pochhammer(3, 4, ctx), ctx.to_real(360))
        assert ctx.close(pochhammer(Fraction(1, 2), 0, ctx), ctx.one)

    @given(st.integers(1, 30), st.integers(0, 12))
    def test_negation_rule(self, a, k):
        """binom(-a, k) = (-1)^k poch(a, k) / k!"""
        ctx = EvalContext(128)
        lhs = binom_real(-a, k, ctx)
        rhs = (-1) ** k * pochhammer(a, k, ctx) / math.factorial(k)
        assert ctx.close(lhs, rhs)

    def test_inexact_route(self, ctx):
        v = binom_real(ctx.to_real(0.5), 3, ctx)
        assert ctx.close(v, ctx.to_real(Fraction(1, 16)))


class TestFolding:
    def test_odd_fold_examples(self):
        # n=4: angles t*pi/16, canonical odd indices 1,3,5,7 -> k=1..4
        assert fold_odd_cos_index(1, 4) == (1, 1)
        assert fold_odd_cos_index(7, 4) == (4, 1)
        assert fold_odd_cos_index(9, 4) == (4, -1)   # cos(9pi/16) = -cos(7pi/16)
        assert fold_odd_cos_index(15, 4) == (1, -1)
        assert fold_odd_cos_index(17, 4) == (1, -1)  # period 2pi in t is 32
        assert fold_odd_cos_index(-1, 4) == (1, 1)

    def test_odd_fold_rejects_even(self):
        with pytest.raises(ValueError):
            fold_odd_cos_index(2, 4)

    @given(st.integers(-500, 500).map(lambda v: 2 * v + 1),
           st.integers(2, 9))
    def test_odd_fold_numeric(self, t, n):
        ctx = EvalContext(128)
        k, sign = fold_odd_cos_index(t, n)
        assert 1 <= k <= 2 ** (n - 2)
        assert sign in (1, -1)
        lhs = ctx.cos(ctx.pi * t / 2**n)
        rhs = sign * ctx.cos(ctx.pi * (2 * k - 1) / 2**n)
        assert ctx.close(lhs, rhs)

    def test_even_fold_examples(self):
        assert fold_even_cos_index(0, 4) == (0, 1)
        assert fold_even_cos_index(3, 4) == (3, 1)
        assert fold_even_cos_index(5, 4) == (3, -1)  # cos(5pi/8) = -cos(3pi/8)
        assert fold_even_cos_index(8, 4) == (0, -1)  # cos(pi) = -1
        assert fold_even_cos_index(16, 4) == (0, 1)

    def test_even_fold_zero_raises(self):
        with pytest.raises(ZeroBasisElementError):
            fold_even_cos_index(4, 4)
        with pytest.raises(ZeroBasisElementError):
            fold_even_cos_index(12, 4)

    @given(st.integers(-500, 500), st.integers(3, 9))
    def test_even_fold_numeric(self, t, n):
        ctx = EvalContext(128)
        try:
            k, sign = fold_even_cos_index(t, n)
        except ZeroBasisElementError:
            assert mod_pos(t, 2 ** (n - 1)) == 2 ** (n - 2)
            return
        assert 0 <= k < 2 ** (n - 2)
        lhs = ctx.cos(ctx.pi * t / 2 ** (n - 1))
        rhs = sign * (ctx.one if k == 0
                      else ctx.cos(ctx.pi * k / 2 ** (n - 1)))
        assert ctx.close(lhs, rhs)


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

    def test_bad_kind_and_range(self):
        with pytest.raises(ValueError):
            Basis("odd_tan", 4)
        with pytest.raises(ValueError):
            even_cos_basis(2)
        with pytest.raises(IndexError):
            odd_cos_basis(4).element(4, EvalContext(64))

    def test_dyadic_angle(self, ctx):
        a = DyadicAngle(2, 4)
        assert a.canonical
        assert not DyadicAngle(5, 4).canonical
        assert ctx.close(a.radians(ctx), 3 * ctx.pi / 16)
        assert ctx.close(ctx.angle(a), a.radians(ctx))
        with pytest.raises(ValueError):
            DyadicAngle(0, 4)


class TestScaledMatrix:
    def test_shape_check(self):
        with pytest.raises(ValueError):
            make_matrix([[1, 2]], 0, odd_cos_basis(4))

    def test_scale(self, ctx):
        m = make_matrix([[1, 0], [0, 1]], 3, odd_cos_basis(3))
        assert ctx.close(m.scale(ctx), ctx.to_real(Fraction(1, 8)))
        neg = make_matrix([[1, 0], [0, 1]], -2, odd_sin_basis(3))
        assert ctx.close(neg.scale(ctx), ctx.to_real(4))

    def test_reversal_involution(self):
        m = make_matrix([[1, 2], [3, 4]], 1, odd_cos_basis(3))
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
        assert int_mat_transpose(a) == ((1, 3), (2, 4))

    def test_mul_shape_check(self):
        with pytest.raises(ValueError):
            int_mat_mul([[1, 2]], [[1], [2]])


class TestIntPolynomial:
    def test_normalization(self):
        assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPolynomial([]).degree == -1
        assert not IntPolynomial([0])
        assert bool(IntPolynomial([0, 1]))

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
        assert poly_compose(p, q).coeffs == (1, 2, 1)
        assert p.compose(poly_x()) == p

    def test_eval_routes_agree(self, ctx):
        p = IntPolynomial([2, -3, 0, 5])
        assert p.eval_exact(Fraction(1, 2)) == Fraction(9, 8)
        assert p.eval_exact(2) == 36
        assert ctx.close(p.eval_real(ctx.to_real(Fraction(1, 2)), ctx),
                         ctx.to_real(Fraction(9, 8)))
        z = p.eval_complex(ctx.mpc(0, 1), ctx)
        # p(i) = 2 - 3i - 5i = 2 - 8i
        assert ctx.close(z.real, ctx.two)
        assert ctx.close(z.imag, ctx.to_real(-8))

    def test_immutability(self):
        p = IntPolynomial([1])
        with pytest.raises(AttributeError):
            p.coeffs = (2,)

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

    def test_tolerance_default_and_custom(self):
        c = EvalContext(128)
        assert c.close(c.zero, c.power(c.two, -65))
        assert not c.close(c.zero, c.power(c.two, -63))
        tight = EvalContext(128, tolerance=Fraction(1, 2**100))
        assert not tight.close(tight.zero, tight.power(tight.two, -90))
        with pytest.raises(ValueError):
            EvalContext(128, tolerance=0)

    def test_nstr(self, ctx):
        assert ctx.nstr(ctx.to_real(Fraction(1, 4)), 5) == "0.25"
