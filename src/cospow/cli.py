"""Command-line front end: constructions and verifications as batch commands.

Every command writes machine-readable output (json, csv, or tex) to
stdout or --out FILE; diagnostics go to stderr. Exit codes: 0 success,
1 verification failure, 2 argument error. Integers are emitted as decimal
strings so arbitrary-precision entries survive JSON parsers.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

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
    try:
        return EvalContext(args.precision)
    except ValueError as exc:
        raise ArgumentProblem(str(exc)) from None


def _digits(ctx: EvalContext) -> int:
    return max(17, ctx.precision_bits * 301 // 1000)


def _real_str(x, ctx: EvalContext) -> str:
    return ctx.nstr(x, _digits(ctx))


# serialization: ints become decimal strings (bool checked first: it is an
# int subclass), Fractions become "p/q"

def _jsonable(x):
    if isinstance(x, bool):
        return x
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return x


def _flat_str(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return ""
    return str(x)


def _render_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for key, value in payload.items():
        if isinstance(value, (list, tuple)) and value \
                and isinstance(value[0], (list, tuple)):
            writer.writerow([key])
            for row in value:
                writer.writerow([_flat_str(v) for v in row])
        elif isinstance(value, (list, tuple)):
            writer.writerow([key, *(_flat_str(v) for v in value)])
        elif isinstance(value, dict):
            for k, v in value.items():
                writer.writerow([f"{key}.{k}", _flat_str(v)])
        else:
            writer.writerow([key, _flat_str(value)])
    return buf.getvalue()


def _tex_escape(s: str) -> str:
    return s.replace("_", r"\_")


def _render_tex(payload: dict) -> str:
    lines = []
    for key, value in payload.items():
        if isinstance(value, (list, tuple)) and value \
                and isinstance(value[0], (list, tuple)):
            lines.append(f"% {key}")
            lines.append(r"\begin{pmatrix}")
            for row in value:
                lines.append("  " + " & ".join(_flat_str(v) for v in row)
                             + r" \\")
            lines.append(r"\end{pmatrix}")
        elif isinstance(value, (list, tuple)):
            body = ", ".join(_flat_str(v) for v in value)
            lines.append(rf"% {key}: {body}")
        elif isinstance(value, dict):
            for k, v in value.items():
                lines.append(rf"% {key}.{k}: {_flat_str(v)}")
        else:
            lines.append(rf"% {_tex_escape(key)}: {_flat_str(value)}")
    return "\n".join(lines) + "\n"


def _emit(payload: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(_jsonable(payload), indent=2,
                          allow_nan=False) + "\n"
    elif args.format == "csv":
        text = _render_csv(payload)
    else:
        text = _render_tex(payload)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ArgumentProblem(
                f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _matrix_payload(m: ScaledMatrix, r: int) -> dict:
    if m.log2_denom >= 0:
        scale = f"1/2^{m.log2_denom}"
    else:
        scale = f"2^{-m.log2_denom}"
    return {
        "n": m.basis.n,
        "r": r,
        "basis": m.basis.kind,
        "log2_denom": m.log2_denom,
        "scale": scale,
        "entries": [list(row) for row in m.entries],
    }


# largest level `matrix` and `verify` serve: the dense matrix has 4^{n-2}
# entries, a million at n = 12
MAX_MATRIX_N = 12
# largest |r| they serve: an odd r costs about r/2^n rounds of r-bit
# binomials per first-row entry, and entries carry up to r bits. At 4096
# `verify --n 12` takes ~13 s and every entry prints within Python's
# 4300-digit limit on int-to-str conversion (r = 16385 breaks it)
MAX_MATRIX_R = 4096
# largest 4^{n-2} |r| `matrix` prints: entries carry up to ~|r| bits (n = 11,
# r = 63 is 3 MB of JSON, n = 12, r = 4095 1.2 GB); `verify` prints none
MAX_MATRIX_PRINT = 2**26
# largest level `minpoly` serves: at n = 15 the closed coefficients pass
# Python's 4300-digit limit on int-to-str conversion
MAX_MINPOLY_N = 14
# zeta: the sine sums take 2^{n-2} terms, and each binomial-series term
# a Newton step over 2^{n-3} integers. The reference value of an even s
# needs the Bernoulli numbers up to B_s, quadratic in s (s = 1000 takes
# ~10 s), so s is capped as well
MAX_ZETA_N = 12
MAX_ZETA_S = 100


def _build_matrix(r: int, n: int, basis: str) -> ScaledMatrix:
    """Dispatch on r's parity and sign; basis 'sin' means the odd-sine
    presentation where one exists."""
    if n > MAX_MATRIX_N:
        raise ArgumentProblem(f"matrices are served for n <= {MAX_MATRIX_N}")
    if abs(r) > MAX_MATRIX_R:
        raise ArgumentProblem(
            f"matrices are served for |r| <= {MAX_MATRIX_R}")
    if r >= 1 and r % 2 == 1:
        if n < 2:
            raise ArgumentProblem("odd powers require n >= 2")
        m = matrix_scatter(r, n)
    elif r >= 2 and r % 2 == 0:
        if basis == "sin":
            raise ArgumentProblem(
                "even powers expand over the even cosine basis only")
        if n < 3:
            raise ArgumentProblem("even powers require n >= 3")
        return even_matrix(r, n)
    elif r in (-1, -3, -5):
        if n < 3:
            raise ArgumentProblem("reciprocal powers require n >= 3")
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
    if not 2 <= n <= MAX_MINPOLY_N:
        raise ArgumentProblem(f"minpoly supports n in [2, {MAX_MINPOLY_N}]")
    if args.form in ("nested", "both") and n < 3:
        raise ArgumentProblem(
            "the nested form starts at n = 3; n = 2 has only the closed form")
    payload: dict = {"n": n, "form": args.form}
    if args.form in ("closed", "both"):
        payload["closed"] = list(closed_minpoly(n).coeffs)
    if args.form in ("nested", "both"):
        payload["nested"] = list(nested_minpoly(n).coeffs)
    if args.form == "both":
        payload["equal"] = payload["closed"] == payload["nested"]
    _emit(payload, args)
    return 0


def cmd_matrix(args) -> int:
    # checked before the build; _build_matrix rejects n > MAX_MATRIX_N
    if args.n <= MAX_MATRIX_N \
            and 4 ** max(args.n - 2, 0) * abs(args.r) > MAX_MATRIX_PRINT:
        raise ArgumentProblem(
            f"matrix serves 4^(n-2)*|r| <= {MAX_MATRIX_PRINT}; "
            "verify checks larger matrices without printing them")
    m = _build_matrix(args.r, args.n, args.basis)
    _emit(_matrix_payload(m, args.r), args)
    return 0


def cmd_verify(args) -> int:
    ctx = _context(args)
    m = _build_matrix(args.r, args.n, args.basis)
    if args.inject_error:
        rows = [list(row) for row in m.entries]
        rows[0][0] += 1
        m = ScaledMatrix(tuple(tuple(row) for row in rows),
                         m.log2_denom, m.basis)
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
    if not (math.isfinite(args.s) and args.s > 1):
        raise ArgumentProblem("zeta requires finite s > 1")
    if args.s > MAX_ZETA_S:
        raise ArgumentProblem(f"zeta supports s <= {MAX_ZETA_S}")
    if not 3 <= args.n <= MAX_ZETA_N:
        raise ArgumentProblem(f"zeta supports n in [3, {MAX_ZETA_N}]")
    if args.max_terms < 1:
        raise ArgumentProblem("zeta requires --max-terms >= 1")
    ctx = _context(args)
    s = int(args.s) if float(args.s).is_integer() else args.s
    if args.method == METHOD_SINE_SUM:
        res = zeta_sine_sum(s, args.n, ctx)
    elif args.method == METHOD_BINOMIAL:
        res = zeta_binomial_series(s, args.n, args.max_terms, ctx)
    elif args.method == METHOD_WEIGHTED3:
        if s != 3:
            raise ArgumentProblem("method weighted3 is the s = 3 sum")
        res = zeta3_weighted(args.n, ctx)
    else:
        if s != 5:
            raise ArgumentProblem("method weighted5 is the s = 5 sum")
        res = zeta5_weighted(args.n, ctx)
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
    if not 2 <= args.s <= 8:
        raise ArgumentProblem("sums supports s in [2, 8]")
    if not 3 <= args.n <= 12:
        raise ArgumentProblem("sums supports n in [3, 12]")
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
    if not 3 <= args.n <= 10:
        raise ArgumentProblem("group supports n in [3, 10]")
    table = cayley_table(args.n)
    verdicts = verify_group_axioms(args.n, table)
    payload = {
        "n": args.n,
        "order": 2 ** (args.n - 2),
        "generator": find_generator(args.n),
        "verdicts": verdicts,
        "cayley": [list(row) for row in table],
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
                         help="working precision in bits (default 256; "
                              "tolerance is 2^-BITS/2)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cospow",
        description="Exact dyadic-angle trigonometry: minimal polynomials, "
                    "power-expansion matrices, cosecant sums, and zeta "
                    "approximations.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("minpoly", help="minimal polynomial of cos(pi/2^n) "
                                        "conjugates")
    p.add_argument("--n", type=int, required=True,
                   help=f"level n in [2, {MAX_MINPOLY_N}]")
    p.add_argument("--form", choices=("nested", "closed", "both"),
                   default="closed")
    _add_common(p)
    p.set_defaults(handler=cmd_minpoly)

    p = subs.add_parser("matrix", help="exact change-of-basis matrix for "
                                       "cos^r (or 1/sin^|r|)")
    p.add_argument("--n", type=int, required=True,
                   help=f"level n <= {MAX_MATRIX_N}")
    p.add_argument("--r", type=int, required=True,
                   help="power: odd >= 1, even >= 2, or -1/-3/-5; "
                        f"|r| <= {MAX_MATRIX_R}")
    p.add_argument("--basis", choices=("cos", "sin"), default="cos")
    _add_common(p)
    p.set_defaults(handler=cmd_matrix)

    p = subs.add_parser("verify", help="numeric residual of a matrix at "
                                       "high precision")
    p.add_argument("--n", type=int, required=True,
                   help=f"level n <= {MAX_MATRIX_N}")
    p.add_argument("--r", type=int, required=True,
                   help=f"power, as for matrix; |r| <= {MAX_MATRIX_R}")
    p.add_argument("--basis", choices=("cos", "sin"), default="cos")
    p.add_argument("--inject-error", action="store_true",
                   help="corrupt one entry first (negative-control hook)")
    _add_common(p, precision=True)
    p.set_defaults(handler=cmd_verify)

    p = subs.add_parser("zeta", help="zeta(s) approximation at level n")
    p.add_argument("--s", type=float, required=True,
                   help=f"exponent 1 < s <= {MAX_ZETA_S}")
    p.add_argument("--n", type=int, required=True,
                   help=f"level n in [3, {MAX_ZETA_N}]")
    p.add_argument("--method", choices=(METHOD_SINE_SUM, METHOD_BINOMIAL,
                                        METHOD_WEIGHTED3, METHOD_WEIGHTED5),
                   default=METHOD_SINE_SUM)
    p.add_argument("--max-terms", type=int, default=10000,
                   help="series term budget, >= 1 (default 10000)")
    _add_common(p, precision=True)
    p.set_defaults(handler=cmd_zeta)

    p = subs.add_parser("sums", help="cosecant power sum S(s, n): closed "
                                     "form vs direct numeric")
    p.add_argument("--s", type=int, required=True, help="power s in [2, 8]")
    p.add_argument("--n", type=int, required=True, help="level n in [3, 12]")
    _add_common(p, precision=True)
    p.set_defaults(handler=cmd_sums)

    p = subs.add_parser("group", help="Cayley table and axioms of the "
                                      "angle-multiplication group")
    p.add_argument("--n", type=int, required=True, help="level n in [3, 10]")
    _add_common(p)
    p.set_defaults(handler=cmd_group)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ArgumentProblem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
