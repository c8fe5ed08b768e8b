"""The level tables EvalContext.dyadic_trig builds by one fixed-point walk,
against mpmath's per-angle route (reference.mpf_dyadic_trig): bit for bit
on whole tables across mpmath's regimes, with both of the rounding test's
branches taken, under python -O too; and the bounds the rounding test
assumes, on the walk's error and on mpmath's own."""

import hashlib
import os
import random
import subprocess
import sys

import pytest
from mpmath.libmp import (libelefun, mpf_cos, mpf_cos_sin, mpf_mul_int,
                          mpf_pi, mpf_shift, mpf_sin, pi_fixed,
                          round_nearest, to_fixed)

from cospow import exact
from cospow.exact import (Basis, EvalContext, _dyadic_walk,
                          _libmp_trig_error)
from reference import mpf_dyadic_trig

KINDS = ("odd_cos", "even_cos", "odd_sin")
# every level 2..12 below 1024 bits; 370-401 straddles mpmath's switch
# from its cached Taylor series (wp <= 400) to the exponential series
FULL_PRECISIONS = (64, 65, 96, 128, 256, 370, 383, 384, 390, 396, 401, 512)
# levels sampled at the widest precisions
SAMPLED = {1024: (2, 4, 7, 10, 12), 2048: (3, 6, 8, 11)}


def _bits(values):
    return [v._mpf_ for v in values]


def _table(kind, n, ctx):
    b = Basis(kind, n)
    ts = [2 * k + (kind != "even_cos") for k in range(b.dim)]
    return _bits(b.values(ctx)), _bits(
        mpf_dyadic_trig(ctx, kind == "odd_sin", ts, n))


def _compare(prec, levels, kinds=KINDS):
    ctx = EvalContext(prec)
    for n in levels:
        for kind in kinds:
            if kind == "even_cos" and n < 3:
                continue
            got, want = _table(kind, n, ctx)
            assert got == want, (prec, kind, n)


@pytest.mark.parametrize("prec", FULL_PRECISIONS)
def test_tables_equal_per_angle_route(prec):
    _compare(prec, range(2, 13))


@pytest.mark.parametrize("prec", sorted(SAMPLED))
def test_tables_equal_per_angle_route_wide(prec):
    _compare(prec, SAMPLED[prec])


@pytest.mark.parametrize("prec", (64, 256))
def test_tables_equal_per_angle_route_past_the_cap(prec):
    """The odd bases at n = 13..16, past the CLI's level cap."""
    _compare(prec, range(13, 17), ("odd_cos", "odd_sin"))


def _handoffs(monkeypatch) -> list:
    """The arguments of every per-angle mpf_cos/mpf_sin that dyadic_trig
    calls from now on: the values its rounding test hands off."""
    calls = []
    for name in ("mpf_cos", "mpf_sin"):
        def counting(x, prec, rnd, real=getattr(exact, name)):
            calls.append(x)
            return real(x, prec, rnd)
        monkeypatch.setattr(exact, name, counting)
    return calls


@pytest.mark.parametrize("kind", KINDS)
def test_both_branches(kind, monkeypatch):
    """At 256 bits and n = 10 some values are settled by the walk and
    some handed off; with a bound that never settles, every value is
    handed off and the table is the same."""
    calls = _handoffs(monkeypatch)
    b = Basis(kind, 10)
    table = _bits(b.values(EvalContext(256)))
    assert 0 < len(calls) < b.dim
    del calls[:]
    monkeypatch.setattr(exact, "_CACHED_TAYLOR_ERROR", 1 << 4096)
    assert _bits(b.values(EvalContext(256))) == table
    assert len(calls) == b.dim


@pytest.mark.parametrize("prec", (64, 256, 2048))
def test_even_basis_constant_and_one_angle(prec, monkeypatch):
    """The even basis's t = 0 is cos 0 = 1 exactly, and Basis.element is
    values[k]: once the table is built it calls mpmath for no angle."""
    ctx = EvalContext(prec)
    calls = _handoffs(monkeypatch)
    for kind, n, k in (("even_cos", 3, 0), ("even_cos", 7, 0),
                       ("even_cos", 10, 0), ("even_cos", 10, 77),
                       ("odd_sin", 9, 5)):
        b = Basis(kind, n)
        table = b.values(ctx)
        if kind == "even_cos":
            assert table[0]._mpf_ == (0, 1, 0, 1)
        del calls[:]
        assert b.element(k, ctx) is table[k]
        assert not calls


@pytest.mark.parametrize("prec", (64, 256))
def test_walk_contract(prec):
    """dyadic_trig takes a basis and gives its whole table, the
    per-angle route's values, kept in the context: Basis.values returns
    the same tuple, and a second call builds nothing."""
    ctx = EvalContext(prec)
    for kind in KINDS:
        b = Basis(kind, 9)
        table = ctx.dyadic_trig(b)
        got, want = _table(kind, 9, ctx)
        assert _bits(table) == got == want, kind
        assert b.values(ctx) is table
        assert ctx.dyadic_trig(Basis(kind, 9)) is table


@pytest.mark.parametrize("prec", (64, 401, 2048))
def test_walk_error_within_bound(prec):
    """Each entry j of the walk dyadic_trig reads, at its F = prec + 2n + 8
    bits, lies within 4.5 j + 3 units of 2^-F of a 2F-bit reference, on
    both parities: every entry at n = 2..12, and a seeded sample and the
    last entry at n = 13..16."""
    rng = random.Random(prec)
    for n in range(2, 17):
        F = prec + 2 * n + 8
        wide = 2 * F + 10
        pi = mpf_pi(wide, round_nearest)
        for odd in (0, 1):
            walk = _dyadic_walk(odd, n, F, pi_fixed(F))
            assert len(walk) == ((1 << (n - 2)) - odd) // 2 + 1
            js = range(len(walk))
            if n > 12:
                js = sorted({*rng.sample(js, 24), len(walk) - 1})
            for j in js:
                x = mpf_shift(mpf_mul_int(pi, 2 * j + odd, wide,
                                          round_nearest), -n)
                for got, ref in zip(walk[j], mpf_cos_sin(x, wide,
                                                         round_nearest)):
                    # the reference is within 2 units of 2^-2F
                    gap = abs((got << F) - to_fixed(ref, 2 * F)) + 2
                    assert 2 * gap <= (9 * j + 6) << F, (prec, n, odd, j)


def _libmp_fixed(g, x, prec, monkeypatch):
    """(c, wp): the integer c and working precision wp that mpmath's g
    hands to its final from_man_exp rounding at the mpf x."""
    seen = []
    real = libelefun.from_man_exp

    def spy(man, exp, *args):
        seen.append((man, -exp))
        return real(man, exp, *args)

    with monkeypatch.context() as m:
        m.setattr(libelefun, "from_man_exp", spy)
        g(x, prec, round_nearest)
    (c, wp), = seen
    return c, wp


# (precision, level, odd t sampled or None for a seeded sample): the
# cached Taylor series below 1 rad, angles from 1 rad on through mod_pi2
# in both series, and the exponential series, whose sines of small angles
# carry the largest error
_REGIMES = [(64, 8, None), (128, 12, None), (256, 16, None), (360, 12, None),
            (384, 10, None), (512, 12, None), (2048, 16, None),
            (2048, 16, range(1, 400, 2)), (3000, 16, range(1, 40, 2))]


@pytest.mark.parametrize("prec, n, ts", _REGIMES)
def test_libmp_error_within_bound(prec, n, ts, monkeypatch):
    """mpmath's fixed-point cosine and sine, before the rounding, lie
    within _libmp_trig_error units of 2^-wp of a 2 wp-bit reference, at
    the working precision dyadic_trig assumes: prec + 10 - mag below
    1 rad and prec + 30 from it. A later mpmath that computes them
    another way fails here, not by a silent change of a bit."""
    quarter = 1 << (n - 1)
    if ts is None:
        rng = random.Random(prec * 100 + n)
        ts = sorted({rng.randrange(1, quarter, 2) for _ in range(60)}
                    | {1, 3, quarter - 3, quarter - 1})
    pi = mpf_pi(prec, round_nearest)
    for t in ts:
        x = mpf_shift(mpf_mul_int(pi, t, prec, round_nearest), -n)
        mag = x[2] + x[3]
        for sine, g in ((False, mpf_cos), (True, mpf_sin)):
            c, wp = _libmp_fixed(g, x, prec, monkeypatch)
            assert wp == (prec + 10 - mag if mag <= 0 else prec + 30), t
            ref = to_fixed(g(x, 2 * wp, round_nearest), 2 * wp)
            bound = _libmp_trig_error(wp, mag, sine)
            assert abs((c << wp) - ref) < (bound - 1) << wp, (t, sine)


def test_tables_exact_under_optimize():
    """python -O strips asserts; dyadic_trig's rounding test uses none,
    so odd_sin at n = 12, 2048 bits and even_cos at n = 10, 384 bits
    built there equal the per-angle route's."""
    code = ("import hashlib\n"
            "from cospow.exact import Basis, EvalContext\n"
            "if __debug__:\n"
            "    raise SystemExit(2)\n"
            "for kind, n, prec in (('odd_sin', 12, 2048), "
            "('even_cos', 10, 384)):\n"
            "    vals = Basis(kind, n).values(EvalContext(prec))\n"
            "    print(hashlib.sha256(repr([v._mpf_ for v in vals])"
            ".encode()).hexdigest())\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    want = []
    for kind, n, prec in (("odd_sin", 12, 2048), ("even_cos", 10, 384)):
        _, bits = _table(kind, n, EvalContext(prec))
        want.append(hashlib.sha256(repr(bits).encode()).hexdigest())
    assert proc.stdout.split() == want
