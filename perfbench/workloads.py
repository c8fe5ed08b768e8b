"""The three workloads: their request domains, size classes and checks.

A workload is a list of size classes. Each class holds a domain of
requests sorted by a size proxy and says how many of them one cycle
sends. A seed fixes, per class, a start offset into a golden-ratio
(Weyl) walk over the sorted domain, so draws are without replacement
until the domain is used up, and any run of consecutive draws spreads
evenly over the sizes, so the draw adds little to run-to-run spread.
The requests of one cycle are then shuffled together.

Every request returns its output to the harness, which checks it outside
the timed region. Checks use a second route, never the route that made
the output. Outputs of the `cospow matrix` command are large, so the
worker spools them to disk and the parent process checks them after the
worker has exited; that keeps the check's memory out of the worker's
peak RSS.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, replace
from typing import Callable

from cospow import chebyshev, cli, minpoly, negative_power, odd_power, zeta
from cospow.exact import EvalContext, ScaledMatrix, even_cos_basis, \
    odd_cos_basis, odd_sin_basis

MAX_TERMS = 10000  # the CLI's default for the series routes

# cycles in a run's request list: about three quarters of a 25 s run on
# the host of WORKLOADS.md, so the list always runs in full. For
# zeta_series, 18 cycles hold every point of the three series domains
# (18 points each) the same number of times, whatever the seed
PASS_CYCLES = {"exact_kernel": 3, "cli_verify": 3, "zeta_series": 18}

# sha256 of the hex coefficients of nested_minpoly(n), computed once
# (n = 14 takes about a minute); the closed form is checked against it
NESTED_DIGESTS = {
    13: "f21a7d4449030d2a6c3e4afd77157436feacd4044633bc6468583ceb7bb37b9b",
    14: "1de620f6343b1331272b7c9bbf519970e315ee258e8644aac06ebdd36e471169",
}


@dataclass
class Request:
    label: str
    run: Callable[[], object]
    # returns (ok, gap/tolerance or None, reason); None when the parent
    # checks the spooled output instead
    check: Callable[[object], tuple] | None
    level: int
    precision: int | None = None
    # outcome governed by the series stop rule (known to miss tolerance)
    series: bool = False
    cls: str = "control"  # the size class that drew it


@dataclass
class SizeClass:
    name: str
    per_cycle: int
    domain: list  # parameter tuples, sorted by a size proxy
    make: Callable[[tuple], Request]


# drawing


def _stride(size: int) -> int:
    g = max(1, round(size * (math.sqrt(5) - 1) / 2))
    while math.gcd(g, size) != 1:
        g += 1
    return g


def cycles(classes: list[SizeClass], seed: int):
    """Yield cycles (lists of requests) forever, deterministically."""
    rng = random.Random(seed)
    walks = []
    for c in classes:
        size = len(c.domain)
        walks.append([c, rng.randrange(size), _stride(size)])
    while True:
        batch = []
        for walk in walks:
            c, pos, step = walk
            for _ in range(c.per_cycle):
                req = c.make(c.domain[pos])
                req.cls = c.name
                batch.append(req)
                pos = (pos + step) % len(c.domain)
            walk[1] = pos
        rng.shuffle(batch)
        yield batch


# helpers


def _ok(cond: bool, reason: str, ratio=None):
    return (True, ratio, "") if cond else (False, ratio, reason)


def poly_digest(p) -> str:
    return hashlib.sha256(
        ",".join(format(c, "x") for c in p.coeffs).encode()).hexdigest()


def _rel_gap_ratio(a, b, ctx: EvalContext) -> float:
    """|a - b| / |b| as a multiple of ctx.tolerance."""
    return float(ctx.fabs(a - b) / ctx.fabs(b) / ctx.tolerance)


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run `cospow ARGV` in-process, capturing stdout as the user sees it."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# exact_kernel: integers only, no EvalContext anywhere


def _minpoly_dual(p):
    (n,) = p
    return Request(f"closed==nested n={n}",
                   lambda: minpoly.closed_minpoly(n)
                   == minpoly.nested_minpoly(n),
                   lambda out: _ok(out is True, "routes differ"), n)


def _minpoly_closed(p):
    (n,) = p
    return Request(f"closed n={n}",
                   lambda: minpoly.closed_minpoly(n),
                   lambda out: _ok(poly_digest(out) == NESTED_DIGESTS[n],
                                   "digest differs from nested route"), n)


def _inverse(p):
    n, i = p
    return Request(f"inverse i={i} n={n}",
                   lambda: chebyshev.verify_inverse_composition(i, n),
                   lambda out: _ok(out is True, "s_k(s_i(x)) != x mod f_n"),
                   n)


def _scatter_gather(p):
    n, r = p
    return Request(f"scatter==gather r={r} n={n}",
                   lambda: odd_power.matrix_scatter(r, n)
                   == odd_power.matrix_gather(r, n),
                   lambda out: _ok(out is True, "scatter != gather"), n)


def _group(p):
    (n,) = p
    return Request(f"group axioms n={n}",
                   lambda: odd_power.verify_group_axioms(n),
                   lambda out: _ok(all(out.values()), f"axioms {out}"), n)


def exact_kernel() -> list[SizeClass]:
    inverse = sorted(((n, i) for n in (5, 6) for i in range(1, 2 ** (n - 2) + 1)),
                     key=lambda p: (p[0], chebyshev.inverse_index(p[1], p[0])))
    return [
        SizeClass("minpoly_dual", 4, [(n,) for n in (9, 10, 11, 12)],
                  _minpoly_dual),
        SizeClass("minpoly_closed", 2, [(13,), (14,)], _minpoly_closed),
        SizeClass("inverse_composition", 4, inverse, _inverse),
        SizeClass("scatter_gather_n8", 70,
                  [(8, r) for r in range(1, 2 ** 8 - 1, 2)], _scatter_gather),
        SizeClass("scatter_gather_n8_wrap", 14,
                  [(8, r) for r in range(2 ** 8 - 1, 2 ** 9, 2)],
                  _scatter_gather),
        SizeClass("scatter_gather_n9", 2,
                  [(9, r) for r in range(1, 2 ** 9 - 1, 2)], _scatter_gather),
        SizeClass("scatter_gather_n9_wrap", 1,
                  [(9, r) for r in range(2 ** 9 - 1, 2 ** 10, 2)],
                  _scatter_gather),
        SizeClass("group_axioms", 2, [(7,), (8,)], _group),
    ]


def exact_kernel_control() -> Request:
    """scatter==gather with one scatter entry flipped; must fail."""
    def run():
        m = odd_power.matrix_scatter(15, 6)
        rows = [list(row) for row in m.entries]
        rows[1][2] = -rows[1][2] or 1
        bad = ScaledMatrix(tuple(map(tuple, rows)), m.log2_denom, m.basis)
        return bad == odd_power.matrix_gather(15, 6)
    return Request("scatter==gather r=15 n=6, one entry flipped",
                   run, lambda out: _ok(out is True, "scatter != gather"), 6)


# cli_verify: the cospow command, one EvalContext per request


def _verify(p):
    n, r, basis, prec = p
    argv = ["verify", "--n", str(n), "--r", str(r), "--basis", basis,
            "--precision", str(prec)]
    return Request("cospow " + " ".join(argv),
                   lambda: cli_call(argv), _check_ok_payload, n, prec)


def _check_ok_payload(out):
    code, text = out
    if code != 0:
        return False, None, f"exit code {code}"
    return _ok(json.loads(text).get("ok") is True, "payload not ok")


def _sums(p):
    n, s = p
    argv = ["sums", "--s", str(s), "--n", str(n)]
    return Request("cospow " + " ".join(argv),
                   lambda: cli_call(argv), _check_ok_payload, n, 256)


def _check_group(n):
    def check(out):
        code, text = out
        if code != 0:
            return False, None, f"exit code {code}"
        payload = json.loads(text)
        dim = 2 ** (n - 2)
        table = payload["cayley"]
        shape = len(table) == dim and all(len(row) == dim for row in table)
        return _ok(all(payload["verdicts"].values()) and shape
                   and payload["order"] == str(dim), "group payload wrong")
    return check


def _group_cli(p):
    (n,) = p
    argv = ["group", "--n", str(n)]
    return Request("cospow " + " ".join(argv),
                   lambda: cli_call(argv), _check_group(n), n)


def _matrix(p):
    n, r, basis, fmt = p
    argv = ["matrix", "--n", str(n), "--r", str(r), "--basis", basis,
            "--format", fmt]
    return Request("cospow " + " ".join(argv),
                   lambda: cli_call(argv), None, n)


def _verify_domain(n):
    sparse, recip = [], []
    for prec in (128, 256, 384):
        for r in range(1, 64, 2):
            sparse += [(n, r, "cos", prec), (n, r, "sin", prec)]
        sparse += [(n, r, "cos", prec) for r in range(2, 33, 2)]
        recip += [(n, r, b, prec) for r in (-1, -3, -5) for b in ("cos", "sin")]
    key = lambda p: (abs(p[1]), p[3], p[2])  # noqa: E731
    return sorted(sparse, key=key), sorted(recip, key=key)


def _matrix_domain(n):
    rs = [(r, b) for r in range(1, 64, 2) for b in ("cos", "sin")]
    rs += [(r, "cos") for r in range(2, 33, 2)]
    rs += [(-3, "cos"), (-3, "sin")]
    return sorted(((n, r, b, fmt) for r, b in rs for fmt in ("json", "csv")),
                  key=lambda p: (abs(p[1]), p[3], p[2]))


def cli_verify() -> list[SizeClass]:
    v8, r8 = _verify_domain(8)
    v9, r9 = _verify_domain(9)
    v10, r10 = _verify_domain(10)
    # `sums` at its default precision, as users call it. At 128 bits it
    # fails on the six largest sums: it compares an absolute gap with
    # 2^-64 while S(s, n) grows like 2^{sn}
    sums = [(n, s) for n in (10, 11, 12) for s in range(2, 9)]
    return [
        SizeClass("verify_n8", 40, v8, _verify),
        SizeClass("sums", 12, sums, _sums),
        SizeClass("verify_n9", 4, v9, _verify),
        SizeClass("verify_n10", 1, v10, _verify),
        # p90 falls inside this class (100-200 ms), half its domain a cycle
        SizeClass("recip_n8", 9, r8, _verify),
        SizeClass("recip_n9", 1, r9, _verify),
        SizeClass("recip_n10", 1, r10, _verify),
        SizeClass("matrix_n9", 5, _matrix_domain(9), _matrix),
        SizeClass("matrix_n10", 1, _matrix_domain(10), _matrix),
        # n = 11 in json and without r = -3: every run then peaks on a
        # 2.9 MB document; rarer 0.7 MB (csv) or 4.2 MB (r = -3) ones would
        # make peak RSS depend on the draw
        SizeClass("matrix_n11", 1,
                  [p for p in _matrix_domain(11)
                   if p[3] == "json" and p[1] != -3], _matrix),
        SizeClass("group", 2, [(8,), (9,)], _group_cli),
    ]


def cli_verify_control() -> Request:
    """`verify --inject-error` corrupts one entry; must fail its check."""
    argv = ["verify", "--n", "8", "--r", "3", "--inject-error"]
    return Request("cospow " + " ".join(argv),
                   lambda: cli_call(argv), _check_ok_payload, 8, 256)


def _parse_matrix(fmt: str, text: str) -> dict:
    if fmt == "json":
        payload = json.loads(text)
        payload["entries"] = [[int(x) for x in row]
                              for row in payload["entries"]]
        return payload
    payload, rows, in_entries = {}, [], False
    for line in text.splitlines():
        cells = line.split(",")
        if in_entries:
            rows.append([int(x) for x in cells])
        elif cells == ["entries"]:
            in_entries = True
        else:
            payload[cells[0]] = cells[1]
    payload["entries"] = rows
    return payload


def check_matrix(label: str, out: tuple[int, str]) -> tuple:
    """Compare a `cospow matrix` output with a second route.

    Odd r against matrix_gather, r = -3 against matrix_neg3_gather, even
    r (no second exact route) by verify_numeric on the parsed entries.
    """
    code, text = out
    if code != 0:
        return False, None, f"exit code {code}"
    argv = label.split()[1:]
    opts = dict(zip(argv[1::2], argv[2::2]))
    n, r, basis = int(opts["--n"]), int(opts["--r"]), opts["--basis"]
    payload = _parse_matrix(opts["--format"], text)
    got = tuple(map(tuple, payload["entries"]))
    if r > 0 and r % 2 == 0:
        m = ScaledMatrix(got, int(payload["log2_denom"]), even_cos_basis(n))
        ctx = EvalContext(256)
        return _ok(odd_power.verify_numeric(m, r, ctx) < ctx.tolerance,
                   "entries fail the numeric oracle")
    if r == -3:
        ref = negative_power.matrix_neg3_gather(n)
        native = "sin"
    else:
        ref = odd_power.matrix_gather(r, n)
        native = "cos"
    if basis != native:
        ref = ref.reversed_rows_and_columns(
            odd_sin_basis(n) if basis == "sin" else odd_cos_basis(n))
    return _ok(got == ref.entries
               and int(payload["log2_denom"]) == ref.log2_denom,
               "entries differ from the gather route")


# zeta_series: library calls sharing one EvalContext per precision


class ZetaSeries:
    """Builds the zeta_series classes around one context per precision."""

    def __init__(self):
        self.ctx = {prec: EvalContext(prec) for prec in (128, 256)}

    def _series(self, p):
        n, route, s, prec = p
        ctx = self.ctx[prec]
        if route == "binomial":
            def check(res):
                ref = zeta.zeta_sine_sum(s, n, ctx)
                ratio = _rel_gap_ratio(res.value, ref.value, ctx)
                return _ok(res.status == "ok" and ratio <= 1,
                           f"status {res.status}, gap/tol {ratio:.3g}", ratio)
            return Request(f"zeta_binomial_series s={s} n={n} prec={prec}",
                           lambda: zeta.zeta_binomial_series(s, n, MAX_TERMS,
                                                             ctx),
                           check, n, prec, series=True)
        # looked up at call time, so the tracer's wrapper is the one called
        if route == "identity":
            fn, base = "finite_level_identity", "rhs"
        else:
            fn, base = "bernoulli_limit_check", "closed_value"

        def check_gap(res):
            ratio = float(res.gap / ctx.fabs(getattr(res, base))
                          / ctx.tolerance)
            return _ok(res.converged and ratio <= 1,
                       f"converged {res.converged}, gap/tol {ratio:.3g}",
                       ratio)
        return Request(f"{fn} {'s' if route == 'identity' else 'j'}={s} "
                       f"n={n} prec={prec}",
                       lambda: getattr(zeta, fn)(s, n, MAX_TERMS, ctx),
                       check_gap, n, prec, series=True)

    def _weighted(self, p):
        n, s, prec = p
        ctx = self.ctx[prec]
        fn = f"zeta{s}_weighted"

        def check(res):
            # the weighted sum equals the sine sum at the same level
            ratio = _rel_gap_ratio(res.value,
                                   zeta.zeta_sine_sum(s, n, ctx).value, ctx)
            return _ok(ratio <= 1, f"gap/tol {ratio:.3g}", ratio)
        return Request(f"{fn} n={n} prec={prec}",
                       lambda: getattr(zeta, fn)(n, ctx), check, n, prec)

    def _sine_sum(self, p):
        n, s, prec = p
        ctx = self.ctx[prec]

        def check(res):
            # (2^s pi^s / (2^s - 1)) 2^{-ns} S(s, n), S from its closed form
            closed = negative_power.S_closed_form(s, n).numeric(ctx)
            ref = ctx.power(2 * ctx.pi, s) / (2 ** s - 1) \
                * ctx.power(ctx.two, -n * s) * closed
            ratio = _rel_gap_ratio(res.value, ref, ctx)
            return _ok(ratio <= 1, f"gap/tol {ratio:.3g}", ratio)
        return Request(f"zeta_sine_sum s={s} n={n} prec={prec}",
                       lambda: zeta.zeta_sine_sum(s, n, ctx), check, n, prec)

    def _csc_sums(self, p):
        n, s, prec = p
        ctx = self.ctx[prec]

        def check(out):
            closed, direct = out
            ratio = _rel_gap_ratio(closed, direct, ctx)
            return _ok(ratio <= 1, f"gap/tol {ratio:.3g}", ratio)
        return Request(f"S_closed_form vs direct s={s} n={n} prec={prec}",
                       lambda: (negative_power.S_closed_form(s, n).numeric(ctx),
                                negative_power.direct_csc_power_sum(s, n,
                                                                    ctx)),
                       check, n, prec)

    def classes(self) -> list[SizeClass]:
        def series(n):
            dom = [(n, "binomial", s, prec) for s in (2, 2.5, 3, 4, 5, 7)
                   for prec in (128, 256)]
            dom += [(n, "identity", s, prec) for s in (3, 5)
                    for prec in (128, 256)]
            dom += [(n, "bernoulli", 1, prec) for prec in (128, 256)]
            return sorted(dom, key=lambda p: (p[3], p[1], p[2]))
        levels = range(3, 13)
        return [
            SizeClass("series_n4", 8, series(4), self._series),
            SizeClass("series_n5", 4, series(5), self._series),
            SizeClass("series_n6", 1, series(6), self._series),
            SizeClass("weighted", 4,
                      [(n, s, prec) for n in levels for s in (3, 5)
                       for prec in (128, 256)], self._weighted),
            SizeClass("sine_sum", 5,
                      [(n, s, prec) for n in levels for s in range(2, 9)
                       for prec in (128, 256)], self._sine_sum),
            SizeClass("csc_sums", 4,
                      [(n, s, prec) for n in levels for s in range(2, 9)
                       for prec in (128, 256)], self._csc_sums),
        ]

    def control(self) -> Request:
        """A binomial-series value pushed 100 tolerances off; must fail."""
        ctx = self.ctx[256]
        req = self._series((4, "binomial", 3, 256))
        good_run = req.run

        def run():
            res = good_run()
            return replace(res, value=res.value * (1 + 100 * ctx.tolerance))
        req.label, req.run = req.label + " corrupted", run
        return req


def build(name: str) -> tuple[list[SizeClass], Request]:
    if name == "exact_kernel":
        return exact_kernel(), exact_kernel_control()
    if name == "cli_verify":
        return cli_verify(), cli_verify_control()
    z = ZetaSeries()
    return z.classes(), z.control()


WORKLOADS = ("exact_kernel", "cli_verify", "zeta_series")
