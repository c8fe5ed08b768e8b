"""In-memory tracing of cospow's public functions, installed from outside.

Spans wrap the layer boundaries: each keeps (name, start, end, parent)
in a list until the run ends. Hot leaves get a counting wrapper only,
because a span per call would cost more than the call. Every module that
imported a name directly (``from .exact import binom_int``) is patched as
well, so calls through those names are seen too.

Self time is a span's duration minus the time its direct children cover;
children are properly nested because the workload is single-threaded.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute, metric name, kind); kind "int" marks integer-only
# work, "mp" marks work done in mpmath, "io" is argument parsing plus
# serialization. Methods are written "Class.method".
SPANS = [
    ("minpoly", "closed_minpoly", "minpoly.closed_minpoly", "int"),
    ("minpoly", "nested_minpoly", "minpoly.nested_minpoly", "int"),
    ("exact", "IntPolynomial.__mul__", "exact.IntPolynomial.mul", "int"),
    ("chebyshev", "compose_mod", "chebyshev.compose_mod", "int"),
    ("chebyshev", "verify_inverse_composition",
     "chebyshev.verify_inverse_composition", "int"),
    ("odd_power", "matrix_scatter", "odd_power.matrix_scatter", "int"),
    ("odd_power", "matrix_gather", "odd_power.matrix_gather", "int"),
    ("odd_power", "verify_group_axioms", "odd_power.verify_group_axioms",
     "int"),
    ("odd_power", "verify_numeric", "odd_power.verify_numeric", "mp"),
    ("even_power", "even_matrix", "even_power.even_matrix", "int"),
    ("negative_power", "matrix_neg1", "negative_power.matrix_neg", "int"),
    ("negative_power", "matrix_neg3", "negative_power.matrix_neg", "int"),
    ("negative_power", "matrix_neg5", "negative_power.matrix_neg", "int"),
    ("negative_power", "S_closed_form", "negative_power.S_closed_form",
     "int"),
    ("negative_power", "CscPowerSum.numeric",
     "negative_power.CscPowerSum.numeric", "mp"),
    ("negative_power", "direct_csc_power_sum",
     "negative_power.direct_csc_power_sum", "mp"),
    ("series", "sum_until_negligible", "series.sum_until_negligible", "mp"),
    ("zeta", "AvgPowers.__init__", "zeta.AvgPowers", "int"),
    ("zeta", "AvgPowers.avg", "zeta.AvgPowers", "int"),
    ("zeta", "zeta_sine_sum", "zeta.zeta_sine_sum", "mp"),
    ("zeta", "zeta_binomial_series", "zeta.zeta_binomial_series", "mp"),
    ("zeta", "finite_level_identity", "zeta.finite_level_identity", "mp"),
    ("zeta", "bernoulli_limit_check", "zeta.bernoulli_limit_check", "mp"),
    ("zeta", "zeta3_weighted", "zeta.zeta3_weighted", "mp"),
    ("zeta", "zeta5_weighted", "zeta.zeta5_weighted", "mp"),
    ("cli", "main", "cli.main", "io"),
]

COUNTERS = [
    ("exact", "binom_int", "exact.binom_int.calls"),
    ("odd_power", "first_row_entry", "odd_power.first_row_entry.calls"),
    ("exact", "Basis.element", "exact.Basis.element.calls"),
    ("exact", "EvalContext.cos", "exact.EvalContext.trig_calls"),
    ("exact", "EvalContext.sin", "exact.EvalContext.trig_calls"),
    ("exact", "EvalContext.to_real", "exact.EvalContext.to_real.calls"),
]

_MATRIX_MAKERS = {"odd_power.matrix_scatter", "odd_power.matrix_gather",
                    "even_power.even_matrix", "negative_power.matrix_neg"}
_POLY_MAKERS = {"minpoly.closed_minpoly", "minpoly.nested_minpoly"}
_SIZED = _MATRIX_MAKERS | _POLY_MAKERS | {"series.sum_until_negligible"}


def _max_bits(rows) -> int:
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


class Tracer:
    """Installs the wrappers, records spans and counts, removes them."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self.coeff_bits_max = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[tuple[str, str], object] = {}
        self._targets = None
        self._build()

    # wrappers

    def _span(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        perf = time.perf_counter
        calls = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            idx = len(spans)
            spans.append([name, perf(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf()
                stack.pop()
            if name in _SIZED:
                # measuring the result is tracing cost: a "tracer" span
                # keeps it out of the caller's self time
                idx = len(spans)
                spans.append(["tracer", perf(), 0.0,
                              stack[-1] if stack else -1])
                self._measure(name, result)
                spans[idx][2] = perf()
            return result

        return wrapper

    def _measure(self, name, result):
        if name in _MATRIX_MAKERS:
            self.counts["odd_power.matrix_entries"] += result.dim ** 2
            self.coeff_bits_max = max(self.coeff_bits_max,
                                      _max_bits(result.entries))
        elif name in _POLY_MAKERS:
            self.coeff_bits_max = max(self.coeff_bits_max,
                                      _max_bits([result.coeffs]))
        elif name == "series.sum_until_negligible":
            self.counts["series.terms"] += result.terms_used

    def _counter(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _build(self):
        for module, attr, name, _ in SPANS:
            orig = _resolve(module, attr)
            self._wrappers[(module, attr)] = (orig, self._span(orig, name))
        for module, attr, name in COUNTERS:
            orig = _resolve(module, attr)
            self._wrappers[(module, attr)] = (orig, self._counter(orig, name))

    # installation

    def install(self):
        if self._targets is None:
            self._targets = self._find_targets()
        for owner, name, wrapper in self._targets:
            self._patched.append((owner, name, getattr(owner, name)))
            setattr(owner, name, wrapper)

    def _find_targets(self):
        modules = [m for k, m in sys.modules.items()
                   if k == "cospow" or k.startswith("cospow.")]
        targets = []
        for (module, attr), (orig, wrapper) in self._wrappers.items():
            if "." in attr:
                owners = [getattr(sys.modules[f"cospow.{module}"],
                                  attr.split(".")[0])]
            else:
                owners = modules
            targets += [(owner, k, wrapper) for owner in owners
                        for k, v in list(vars(owner).items()) if v is orig]
        return targets

    def uninstall(self):
        for owner, name, orig in reversed(self._patched):
            setattr(owner, name, orig)
        self._patched.clear()

    # results

    def self_times_ms(self) -> dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[name] += 1000 * (end - start - covered)
        return out


def _resolve(module: str, attr: str):
    obj = sys.modules[f"cospow.{module}"]
    for part in attr.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj
