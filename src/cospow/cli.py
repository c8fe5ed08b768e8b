"""Command-line front end: constructions and verifications as batch commands.

Every command writes machine-readable output (json, csv, or tex) to
stdout or --out FILE; diagnostics go to stderr. Exit codes: 0 success,
1 verification failure, 2 argument error. Integers are emitted as decimal
strings so arbitrary-precision entries survive JSON parsers.

The output is streamed: every list goes out one item at a time, a number
or a matrix row, and each distinct number is turned into text once per
output (a matrix's rows are signed permutations of its first row). What
can fail, a value JSON cannot carry or an --out file that cannot be
opened, fails before the first byte. When the reader of stdout closes the
pipe early, as `| head` does, the rest is dropped, nothing is printed to
stderr, and the command exits with its own code.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from typing import NamedTuple

from .even_power import even_matrix
from .exact import EvalContext, ScaledMatrix
from .minpoly import closed_minpoly, nested_minpoly
from .negative_power import (
    S_closed_form,
    cosine_basis_variant,
    direct_csc_power_sum,
    matrix_neg1,
    matrix_neg3,
    matrix_neg5,
)
from .odd_power import (
    cayley_table,
    find_generator,
    matrix_scatter,
    sine_basis_variant,
    verify_group_axioms,
    verify_numeric,
)
from .zeta import (
    METHOD_BINOMIAL,
    METHOD_SINE_SUM,
    METHOD_WEIGHTED3,
    METHOD_WEIGHTED5,
    zeta3_weighted,
    zeta5_weighted,
    zeta_binomial_series,
    zeta_sine_sum,
)


class ArgumentProblem(Exception):
    """Invalid argument combination detected after parsing; exits 2."""


def _context(args) -> EvalContext:
    _check(args.command, precision=args.precision)
    try:
        return EvalContext(args.precision)
    except ValueError as exc:
        raise ArgumentProblem(str(exc)) from None


def _real_str(x, ctx: EvalContext) -> str:
    return ctx.nstr(x, max(17, ctx.precision_bits * 301 // 1000))


class _Text(dict):
    """One output's text of each number in its lists, made by str at a
    value's first lookup and shared by equal ints and Fractions after. For
    the 65,536 entries of matrix --n 10 --r 63 this took 3.6 ms,
    functools.cache(str) 6.4 ms (2-vCPU Xeon)."""

    def __missing__(self, x):
        self[x] = s = str(x)
        return s


_SCALAR, _DICT, _LIST, _ROWS = "scalar", "dict", "list", "rows"


def _walk(payload: dict, scalar) -> list:
    """(key, shape, value) per payload item: a dict as (k, scalar(v))
    pairs, a list of numbers (or an empty list) as a lazy iterator of their
    texts from one _Text, a list of rows as an iterator of those, any other
    value as scalar(value), which thus raises before the first write."""
    text = _Text().__getitem__
    items = []
    for key, value in payload.items():
        if isinstance(value, dict):
            value = _DICT, [(k, scalar(v)) for k, v in value.items()]
        elif not isinstance(value, (list, tuple)):
            value = _SCALAR, scalar(value)
        elif value and isinstance(value[0], (list, tuple)):
            value = _ROWS, map(functools.partial(map, text), value)
        else:
            value = _LIST, map(text, value)
        items.append((key, *value))
    return items


def _join(write, cells, head: str, sep: str, tail: str, empty: str):
    """Write head, the strings of the iterator cells with sep between two,
    and tail, one cell per write; or empty alone when cells has none."""
    first = next(cells, None)
    if first is None:
        write(empty)
    else:
        write(head + first)
        for cell in cells:
            write(sep + cell)
        write(tail)


def _json_scalar(x) -> str:
    """x as json.dumps writes it, an int (bool aside) or a Fraction as its
    decimal string, "p/q" for a Fraction; a NaN raises ValueError."""
    keep = x is None or isinstance(x, (bool, str, float))
    return json.dumps(x if keep else str(x), allow_nan=False)


def _json_row(row) -> str:
    body = '",\n      "'.join(row)
    return '[\n      "' + body + '"\n    ]' if body else "[]"


def _write_json(items, fh) -> None:
    """json.dumps(payload, indent=2) and a newline, each number written as
    _json_scalar writes it, a row joined in one pass."""
    write = fh.write
    lead = "{"
    for key, shape, value in items:
        write(f"{lead}\n  {json.dumps(key)}: ")
        lead = ","
        if shape is _SCALAR:
            write(value)
            continue
        if shape is _DICT:
            value = (f"{json.dumps(k)}: {v}" for k, v in value)
        else:
            value = map(_json_row if shape is _ROWS else '"{}"'.format, value)
        o, c = "{}" if shape is _DICT else "[]"
        _join(write, value, f"{o}\n    ", ",\n    ", f"\n  {c}", o + c)
    write("\n}\n" if lead == "," else "{}\n")


def _flat_str(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    return "" if x is None else str(x)


def _csv_record(cells) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()[:-1]


def _write_csv(items, fh) -> None:
    """Records [name, value] per scalar and dict entry ("key.k"), [name,
    *cells] per list, [name] and its rows per list of rows. csv quotes names
    and scalars, and a lone empty name; a number's text needs no quoting."""
    write = fh.write
    for key, shape, value in items:
        if shape is _DICT:
            for k, v in value:
                write(_csv_record([f"{key}.{k}", v]) + "\n")
        elif shape is _SCALAR:
            write(_csv_record([key, value]) + "\n")
        else:
            alone = _csv_record([key]) + "\n"
            if shape is _ROWS:
                _join(write, map(",".join, value), alone, "\n", "\n", alone)
            else:
                _join(write, value, _csv_record([key, ""]), ",", "\n", alone)


def _write_tex(items, fh) -> None:
    """A comment line per scalar, list and dict entry, names escaped, and a
    pmatrix per list of rows; a payload of no line leaves an empty line."""
    write = fh.write
    if all(shape is _DICT and not value for _, shape, value in items):
        write("\n")
    for key, shape, value in items:
        name = key.replace("_", r"\_")
        if shape is _DICT:
            for k, v in value:
                write("% " + f"{key}.{k}".replace("_", r"\_") + f": {v}\n")
        elif shape is _SCALAR:
            write(f"% {name}: {value}\n")
        elif shape is _ROWS:
            begin = f"% {name}\n\\begin{{pmatrix}}\n"
            _join(write, map(" & ".join, value), begin + "  ", " \\\\\n  ",
                  " \\\\\n\\end{pmatrix}\n", begin + "\\end{pmatrix}\n")
        else:
            _join(write, value, f"% {name}: ", ", ", "\n", f"% {name}: \n")


def _emit(payload: dict, args) -> None:
    """Write payload, a flat dict, in --format to --out or stdout from one
    _walk, every list one item at a time. _walk renders what can raise and
    the --out file is opened before the first byte. When the reader of
    stdout closes the pipe early, the rest is dropped and the command ends
    with its own exit code, as after a single write the pipe refused."""
    scalar, write = {"json": (_json_scalar, _write_json),
                     "csv": (_flat_str, _write_csv),
                     "tex": (_flat_str, _write_tex)}[args.format]
    items = _walk(payload, scalar)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                write(items, fh)
        except OSError as exc:
            raise ArgumentProblem(
                f"cannot write {args.out}: {exc.strerror}") from None
        return
    try:
        write(items, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout now points at devnull, so the interpreter's last flush of
        # what is still buffered cannot fail as well
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


class Served(NamedTuple):
    """Served range lo..hi of a checked value and the error line for a value
    outside it. _check tests the bounds the line names; code that reads the
    cell tests the others (a relational check, or EvalContext)."""
    lo: float
    hi: float
    error: str = "{command} supports {name} in [{lo}, {hi}]"

    def span(self) -> str:
        return f"in [{self.lo}, {self.hi}]"


# `matrix` and `verify` serve odd powers from n = 2, the first level (dim =
# 2^{n-2} = 1). Largest level `matrix`, `verify` and `group` serve: the dense
# matrix and the Cayley table have 4^{n-2} entries, a million at n = 12
_MATRIX_N = Served(2, 12, "matrices are served for n <= {hi}")
# the even basis, the reciprocal matrices, the nested form, the group, zeta
# and sums start a level up. zeta: the sine sums take 2^{n-2} terms, and
# each binomial-series term a Newton step over 2^{n-3} integers. Largest
# level `sums` serves: s = 8 at n = 12 takes 0.2 s as a whole process on a
# 2-vCPU Xeon
_LEVELS = Served(3, _MATRIX_N.hi)
# largest |r| `matrix` and `verify` serve: a first row costs r/2 steps of
# r-bit binomials, and entries carry up to r bits. At 4096 `verify --n 12`
# takes 3-5 s at 256 bits, most of it the numeric oracle's row sums, and
# every entry prints within Python's 4300-digit limit on int-to-str
# conversion (r = 16385 breaks it)
_POWERS = Served(1, 4096, "matrices are served for |r| <= {hi}")
# largest --precision `verify`, `zeta` and `sums` serve. On a 2-vCPU Xeon the
# heaviest admitted request, verify --n 12 --r 4095, took 5.0 s at 256 bits
# and 15.7 s at 2048 in one run each (2.7-4.9 s and 13-23 s in others),
# and its oracle 40 s at 4096; sums and zeta at n = 12 took under 0.5 s
# at 2048 and 18 s at 16384. At 2^20 bits even
# verify --n 3 --r 1 did not finish in 40 s. EvalContext turns away fewer
# than 64 bits
_PRECISION = Served(64, 2048, "--precision is served up to {hi} bits")
# per command, each checked value's served range or, as a plain number, a
# bound that code compares with several arguments
SERVED = {
    # largest level `minpoly` serves: at n = 15 the closed coefficients pass
    # Python's 4300-digit limit on int-to-str conversion. On a 2-vCPU Xeon
    # `minpoly --n 14 --form both` took 1.0-1.3 s wall and 44 MB (n = 13:
    # 0.3-0.4 s), below the 2.7-5.0 s that `verify --n 12 --r 4095`, the
    # heaviest request `verify` serves, took at 256 bits
    "minpoly": {"n": Served(_MATRIX_N.lo, 14)},
    # printed: largest 4^{n-2} |r| `matrix` prints: entries carry up to ~|r|
    # bits (n = 11, r = 63 is 3 MB of JSON, n = 12, r = 4095 1.2 GB);
    # `verify` prints none
    "matrix": {"n": _MATRIX_N, "r": _POWERS, "printed": Served(
        0, 2**26, "matrix serves 4^(n-2)*|r| <= {hi}; verify checks larger "
        "matrices without printing them")},
    "verify": {"precision": _PRECISION, "n": _MATRIX_N, "r": _POWERS},
    # s: the reference value of an even s needs the Bernoulli numbers up to
    # B_s, quadratic in s (s = 1000 takes ~10 s), so s is capped as well.
    # work: largest T^2 dim (dim + 64), dim = 2^{n-3}, that `zeta --method
    # binomial` serves for --max-terms T. The bound was fitted when every
    # term's Newton step multiplied dim exact averages of about 2p bits; the
    # step now multiplies dim values of about min(2p, precision + 3 dim) bits
    # (a fixed-point word takes over once it is the cheaper operand) by
    # coefficients of up to about 3 dim bits, so time grows about linearly in
    # T at low levels and the bound is loose there. The heaviest admitted
    # request at s = 3 took under 1 s at n <= 6, 0.3-2.8 s at n = 7..10,
    # 2.9 s and 5.7 s at n = 11 and 6.8 s and 8.4 s at n = 12, at 256 and at
    # 2048 bits (2-vCPU Xeon, Python 3.11). The value is kept, so the set of
    # served requests is unchanged
    "zeta": {"s": Served(1, 100, "zeta supports s <= {hi}"), "n": _LEVELS,
             "max_terms": Served(1, math.inf,
                                 "zeta requires --max-terms >= {lo}"),
             "precision": _PRECISION, "work": 2**42,
             METHOD_WEIGHTED3: 3, METHOD_WEIGHTED5: 5},
    "sums": {"s": Served(2, 8), "n": _LEVELS, "precision": _PRECISION},
    "group": {"n": _LEVELS},
}


def _check(command: str, **values) -> None:
    """Turn away the first value outside its served range, in the order
    given, which fixes the error line of a request with several faults."""
    for name, value in values.items():
        lo, hi, error = SERVED[command][name]
        if "{lo}" in error and value < lo or "{hi}" in error and value > hi:
            raise ArgumentProblem(
                error.format(command=command, name=name, lo=lo, hi=hi))


def _build_matrix(r: int, n: int, basis: str) -> ScaledMatrix:
    """Dispatch on r's parity and sign (n and |r| are in range); basis 'sin'
    means the odd-sine presentation where one exists."""
    if r >= 1 and r % 2 == 1:
        if n < _MATRIX_N.lo:
            raise ArgumentProblem(f"odd powers require n >= {_MATRIX_N.lo}")
        m = matrix_scatter(r, n)
    elif r >= 2 and r % 2 == 0:
        if basis == "sin":
            raise ArgumentProblem(
                "even powers expand over the even cosine basis only")
        if n < _LEVELS.lo:
            raise ArgumentProblem(f"even powers require n >= {_LEVELS.lo}")
        return even_matrix(r, n)
    elif r in (-1, -3, -5):
        if n < _LEVELS.lo:
            raise ArgumentProblem(
                f"reciprocal powers require n >= {_LEVELS.lo}")
        m = {-1: matrix_neg1, -3: matrix_neg3, -5: matrix_neg5}[r](n)
    else:
        raise ArgumentProblem(
            f"unsupported power r={r}: need odd r >= 1, even r >= 2, "
            "or r in {-1, -3, -5}")
    if basis == "sin" and m.basis.kind == "odd_cos":
        return sine_basis_variant(m)
    if basis == "cos" and m.basis.kind == "odd_sin":
        return cosine_basis_variant(m)
    return m


def cmd_minpoly(args) -> int:
    n = args.n
    _check("minpoly", n=n)
    if args.form in ("nested", "both") and n < _LEVELS.lo:
        raise ArgumentProblem(
            f"the nested form starts at n = {_LEVELS.lo}; n = {n} has only "
            "the closed form")
    payload: dict = {"n": n, "form": args.form}
    if args.form in ("closed", "both"):
        payload["closed"] = closed_minpoly(n).coeffs
    if args.form in ("nested", "both"):
        payload["nested"] = nested_minpoly(n).coeffs
    if args.form == "both":
        payload["equal"] = payload["closed"] == payload["nested"]
    _emit(payload, args)
    return 0 if payload.get("equal", True) else 1


def cmd_matrix(args) -> int:
    _check("matrix", n=args.n)
    _check("matrix", printed=4 ** max(args.n - 2, 0) * abs(args.r),
           r=abs(args.r))
    m = _build_matrix(args.r, args.n, args.basis)
    d = m.log2_denom
    _emit({"n": m.basis.n, "r": args.r, "basis": m.basis.kind,
           "log2_denom": d, "scale": f"1/2^{d}" if d >= 0 else f"2^{-d}",
           "entries": m.entries}, args)
    return 0


def cmd_verify(args) -> int:
    ctx = _context(args)
    _check("verify", n=args.n, r=abs(args.r))
    m = _build_matrix(args.r, args.n, args.basis)
    if args.inject_error:
        # one unit of the value; an entry's unit, 2^-log2_denom, can pass
        bump = 1 << max(m.log2_denom, 0)
        first = (m.entries[0][0] + bump, *m.entries[0][1:])
        m = ScaledMatrix((first, *m.entries[1:]), m.log2_denom, m.basis)
    residual = verify_numeric(m, args.r, ctx)
    ok = residual < ctx.tolerance
    payload = {
        "n": args.n,
        "r": args.r,
        "basis": m.basis.kind,
        "precision_bits": ctx.precision_bits,
        "tolerance": _real_str(ctx.tolerance, ctx),
        "residual": _real_str(residual, ctx),
        "injected_error": bool(args.inject_error),
        "ok": ok,
    }
    _emit(payload, args)
    return 0 if ok else 1


def cmd_zeta(args) -> int:
    served = SERVED["zeta"]
    if not (math.isfinite(args.s) and args.s > served["s"].lo):
        raise ArgumentProblem(f"zeta requires finite s > {served['s'].lo}")
    _check("zeta", s=args.s, n=args.n, max_terms=args.max_terms)
    if args.method == METHOD_BINOMIAL:
        dim = 2 ** (args.n - 3)
        most = math.isqrt(served["work"] // (dim * (dim + 64)))
        if args.max_terms > most:
            raise ArgumentProblem(
                f"zeta --method binomial at n = {args.n} serves "
                f"--max-terms <= {most}")
    ctx = _context(args)
    s = int(args.s) if float(args.s).is_integer() else args.s
    if args.method == METHOD_SINE_SUM:
        res = zeta_sine_sum(s, args.n, ctx)
    elif args.method == METHOD_BINOMIAL:
        res = zeta_binomial_series(s, args.n, args.max_terms, ctx)
    else:
        if s != served[args.method]:
            raise ArgumentProblem(f"method {args.method} is the s = "
                                  f"{served[args.method]} sum")
        res = {METHOD_WEIGHTED3: zeta3_weighted,
               METHOD_WEIGHTED5: zeta5_weighted}[args.method](args.n, ctx)
    payload = {
        "method": res.method,
        "s": s,
        "n": res.n,
        "value": _real_str(res.value, ctx),
        "reference_error": None if res.reference_error is None
        else _real_str(res.reference_error, ctx),
        "terms_used": res.terms_used,
        "status": res.status,
    }
    if res.tail_ratio is not None:
        payload["tail_ratio"] = f"{res.tail_ratio:.12f}"
    _emit(payload, args)
    return 0


def cmd_sums(args) -> int:
    _check("sums", s=args.s, n=args.n)
    ctx = _context(args)
    closed = S_closed_form(args.s, args.n)
    closed_numeric = closed.numeric(ctx)
    direct = direct_csc_power_sum(args.s, args.n, ctx)
    gap = ctx.fabs(closed_numeric - direct)
    # relative: every csc sum is >= 1, and the large ones outgrow any
    # absolute tolerance at low precision
    ok = gap / ctx.fabs(direct) < ctx.tolerance
    payload: dict = {"s": args.s, "n": args.n}
    if closed.scalar is not None:
        payload["closed"] = closed.scalar
    else:
        payload["csc_weights"] = list(closed.csc_weights)
    payload.update({
        "closed_numeric": _real_str(closed_numeric, ctx),
        "direct_numeric": _real_str(direct, ctx),
        "gap": _real_str(gap, ctx),
        "ok": ok,
    })
    _emit(payload, args)
    return 0 if ok else 1


def cmd_group(args) -> int:
    _check("group", n=args.n)
    table = cayley_table(args.n)
    verdicts = verify_group_axioms(args.n, table)
    payload = {
        "n": args.n,
        "order": 2 ** (args.n - 2),
        "generator": find_generator(args.n),
        "verdicts": verdicts,
        "cayley": table,
    }
    _emit(payload, args)
    return 0 if all(verdicts.values()) else 1


def _add_common(sub, precision: bool = False):
    sub.add_argument("--format", choices=("json", "csv", "tex"),
                     default="json", help="output format (default json)")
    sub.add_argument("--out", metavar="FILE", default=None,
                     help="write output to FILE instead of stdout")
    if precision:
        sub.add_argument("--precision", type=int, default=256, metavar="BITS",
                         help=f"working precision in bits, {_PRECISION.lo} "
                              f"to {_PRECISION.hi} (default 256; tolerance "
                              "is 2^-BITS/2)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The cospow parser, built on the first call and shared by every later
    one in the process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cospow",
        description="Exact dyadic-angle trigonometry: minimal polynomials, "
                    "power-expansion matrices, cosecant sums, and zeta "
                    "approximations.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("minpoly", help="minimal polynomial of cos(pi/2^n) "
                                        "conjugates")
    p.add_argument("--n", type=int, required=True,
                   help=f"level n {SERVED['minpoly']['n'].span()}")
    p.add_argument("--form", choices=("nested", "closed", "both"),
                   default="closed")
    _add_common(p)
    p.set_defaults(handler=cmd_minpoly)

    p = subs.add_parser("matrix", help="exact change-of-basis matrix for "
                                       "cos^r (or 1/sin^|r|)")
    p.add_argument("--n", type=int, required=True,
                   help=f"level n <= {_MATRIX_N.hi}")
    p.add_argument("--r", type=int, required=True,
                   help="power: odd >= 1, even >= 2, or -1/-3/-5; "
                        f"|r| <= {_POWERS.hi}")
    p.add_argument("--basis", choices=("cos", "sin"), default="cos")
    _add_common(p)
    p.set_defaults(handler=cmd_matrix)

    p = subs.add_parser("verify", help="numeric residual of a matrix at "
                                       "high precision")
    p.add_argument("--n", type=int, required=True,
                   help=f"level n <= {_MATRIX_N.hi}")
    p.add_argument("--r", type=int, required=True,
                   help=f"power, as for matrix; |r| <= {_POWERS.hi}")
    p.add_argument("--basis", choices=("cos", "sin"), default="cos")
    p.add_argument("--inject-error", action="store_true",
                   help="corrupt one entry first (negative-control hook)")
    _add_common(p, precision=True)
    p.set_defaults(handler=cmd_verify)

    zeta = SERVED["zeta"]
    p = subs.add_parser("zeta", help="zeta(s) approximation at level n")
    p.add_argument("--s", type=float, required=True,
                   help=f"exponent {zeta['s'].lo} < s <= {zeta['s'].hi}")
    p.add_argument("--n", type=int, required=True,
                   help=f"level n {zeta['n'].span()}")
    p.add_argument("--method", choices=(METHOD_SINE_SUM, METHOD_BINOMIAL,
                                        METHOD_WEIGHTED3, METHOD_WEIGHTED5),
                   default=METHOD_SINE_SUM)
    p.add_argument("--max-terms", type=int, default=10000,
                   help=f"series term budget, >= {zeta['max_terms'].lo} "
                        "(default 10000); the binomial method caps it by "
                        "level")
    _add_common(p, precision=True)
    p.set_defaults(handler=cmd_zeta)

    p = subs.add_parser("sums", help="cosecant power sum S(s, n): closed "
                                     "form vs direct numeric")
    p.add_argument("--s", type=int, required=True,
                   help=f"power s {SERVED['sums']['s'].span()}")
    p.add_argument("--n", type=int, required=True,
                   help=f"level n {SERVED['sums']['n'].span()}")
    _add_common(p, precision=True)
    p.set_defaults(handler=cmd_sums)

    p = subs.add_parser("group", help="Cayley table and axioms of the "
                                      "angle-multiplication group")
    p.add_argument("--n", type=int, required=True,
                   help=f"level n {SERVED['group']['n'].span()}")
    _add_common(p)
    p.set_defaults(handler=cmd_group)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ArgumentProblem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
