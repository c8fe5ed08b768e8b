"""Run one workload in this (fresh) interpreter and report raw measurements.

Started by run.py, one process per run, so no cache carries between runs.
The load is a closed loop with one client and no think time: each request
starts when the previous one has returned. The seed fixes the run's
request list, the first PASS_CYCLES cycles of the workload. The list
runs once in full, then its cycles repeat in order until the requests'
own time reaches --seconds and at least MIN_REQUESTS have run, always
stopping after a whole cycle. Every execution is checked; each record
carries its position in the list, so the outcome per listed request,
and hence the failure count, depends on the seed alone and not on how
many repeats the host's speed allowed.

With --trace 1 every request runs twice, once plain and once with the
tracer installed, in alternating order, so the per-layer figures and the
tracing overhead come from the same requests. A traced run executes the
list exactly once. Checks always run with the tracer removed and outside
the timed region.

Set-up time is sampled SETUP_PROBES times, spread evenly over the run's
busy time, each in a fresh interpreter that imports cospow.cli, builds
its parser and builds EvalContext(256), which every `cospow` command
pays. Spreading the probes makes them see the same host conditions as
the requests.

Before every request, outside the timed region, the worker also times a
fixed reference computation that uses no cospow code (reference_work).
Its median over the requests next to a request tells how fast the host
ran at that time; run.py uses it to put the request times on a common
footing.

Prints one JSON object as the last line of stdout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import mpmath  # noqa: E402
import workloads  # noqa: E402
from tracer import SPANS, Tracer  # noqa: E402

# p90 then has at least ten samples beyond it
MIN_REQUESTS = 100
SETUP_PROBES = 12

SETUP_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import cospow.cli
from cospow.exact import EvalContext
cospow.cli.build_parser()
EvalContext(256)
print(time.perf_counter() - t0)
"""


def setup_time() -> float:
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, SRC],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return float(proc.stdout.split()[-1])


def reference_work() -> float:
    """Seconds taken by a fixed mix of the work the requests do: a Python
    loop, big-integer arithmetic, mpmath cosines at 256 bits and JSON.
    It calls no cospow code, so a change to cospow cannot move it."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += (i * i) % 7
    acc += math.comb(600, 300) ** 3 % 1000003
    with mpmath.workprec(256):
        x = mpmath.mpf(0)
        for k in range(1, 20):
            x += mpmath.cos(mpmath.mpf(k) / 7)
    json.dumps({str(i): [i, str(i)] for i in range(300)})
    return time.perf_counter() - t0


def execute(req):
    t0 = time.perf_counter()
    try:
        out, err = req.run(), None
    except (Exception, SystemExit) as exc:  # a failed request, counted
        out, err = None, f"raised {type(exc).__name__}: {exc}"
    return out, err, time.perf_counter() - t0


def judge(req, pos, out, err, latency, spool_path) -> dict:
    rec = {"pos": pos, "cls": req.cls, "label": req.label,
           "latency_s": latency,
           "level": req.level, "precision": req.precision,
           "series": req.series, "ok": False, "ratio": None, "reason": err}
    if err is not None:
        return rec
    if req.check is None:
        code, text = out
        with open(spool_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        rec.update(ok=None, code=code, spool=spool_path)
        return rec
    try:
        ok, ratio, reason = req.check(out)
    except Exception as exc:  # a malformed output fails its check
        ok, ratio, reason = False, None, f"check raised {exc!r}"
    rec.update(ok=ok, ratio=ratio, reason=reason)
    return rec


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spool", required=True)
    args = ap.parse_args()

    classes, control = workloads.build(args.workload)
    out, err, latency = execute(control)
    control_rec = judge(control, -1, out, err, latency,
                        os.path.join(args.spool, "control.out"))
    del out

    plan = list(itertools.islice(workloads.cycles(classes, args.seed),
                                 workloads.PASS_CYCLES[args.workload]))
    tracer = Tracer() if args.trace else None
    records, traced_s, n_cycles = [], 0.0, 0
    busy_s, setup_s, next_probe, reference_s = 0.0, [], 0.0, []
    for cycle_no, cycle in enumerate(itertools.cycle(plan)):
        base = (cycle_no % len(plan)) * len(cycle)
        for i, req in enumerate(cycle):
            if tracer is None:
                if busy_s >= next_probe:
                    setup_s.append(setup_time())
                    next_probe += args.seconds / SETUP_PROBES
                reference_s.append(reference_work())
            spool = os.path.join(args.spool, f"{len(records)}.out")
            if tracer is None:
                out, err, latency = execute(req)
            else:
                traced_first = len(records) % 2 == 1
                if traced_first:
                    t_out, t_lat = _traced(tracer, req)
                out, err, latency = execute(req)
                if not traced_first:
                    t_out, t_lat = _traced(tracer, req)
                traced_s += t_lat
                if args.workload == "cli_verify" and t_out is not None:
                    tracer.counts["cli.output_bytes"] += len(t_out[1])
                del t_out
            busy_s += latency
            records.append(judge(req, base + i, out, err, latency, spool))
            del out
        n_cycles += 1
        if n_cycles < len(plan):
            continue
        if tracer is not None or (busy_s >= args.seconds
                                  and len(records) >= MIN_REQUESTS):
            break
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"records": records, "cycles": n_cycles,
              "planned": sum(map(len, plan)), "busy_s": busy_s,
              "maxrss_kb": maxrss_kb, "setup_s": setup_s,
              "reference_s": reference_s, "control": control_rec}
    if tracer is not None:
        self_ms = tracer.self_times_ms()
        kinds = {metric: kind for _, _, metric, kind in SPANS}
        kind_ms: dict[str, float] = {}
        for name, ms in self_ms.items():
            kind = kinds.get(name, name)  # "tracer": the tracing cost
            kind_ms[kind] = kind_ms.get(kind, 0.0) + ms
        result["trace"] = {"traced_s": traced_s, "self_ms": self_ms,
                           "kind_ms": kind_ms, "counts": dict(tracer.counts),
                           "coeff_bits_max": tracer.coeff_bits_max}
    print(json.dumps(result))
    return 0


def _traced(tracer, req):
    tracer.install()
    try:
        out, _, latency = execute(req)
    finally:
        tracer.uninstall()
    return out, latency


if __name__ == "__main__":
    sys.exit(main())
