"""cospow benchmark: one workload, one seed, checked outputs, one JSON line.

    python3 perfbench/run.py --workload exact_kernel --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (it needs src/cospow). With
--trace 0 it measures the end-to-end metrics named in BENCHMARK.json;
with --trace 1 the per-layer metrics, from a separate traced run. The
last line of stdout is {"correct", "attempted", "failed", "metrics"};
a readable report, the environment and every failed request go to
stderr. "attempted" counts the requests of the run's seeded request
list and "failed" those of them with an execution that failed its check
(see worker.py), so both depend on the seed only.

The workload runs in a fresh interpreter (worker.py); its peak RSS is
that child's own ru_maxrss, and set-up time is the median of the fresh
interpreters it starts for that purpose.

A shared host's speed can drift by far more than any bound worth having
(1.9x over minutes on the 2-vCPU VM of WORKLOADS.md). So the three
request-time metrics are host-normalized: every raw request time is
multiplied by REFERENCE_S over the median time of a fixed reference
computation that uses no cospow code (worker.reference_work), timed
before every request, taken over the REFERENCE_HALF_WINDOW requests on
either side of it. The host switches between speeds within a run, so a
local median follows it where the run's median would not. The times
read as milliseconds (or requests per second) on a host that runs the
reference in REFERENCE_S. The raw figures and the reference time are
printed on stderr. Set-up time, peak RSS and the verified fraction are
reported as measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# the backend the recorded figures were measured with; gmpy would change
# every number, so results from another backend are not comparable
REFERENCE_BACKEND = "python"
WORKER_TIMEOUT_S = 170
# the reference computation's median time on the 2-vCPU Xeon VM the
# figures in WORKLOADS.md were taken on
REFERENCE_S = 0.0012
# reference times on either side of a request that set its scale
REFERENCE_HALF_WINDOW = 5


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def environment(seed: int) -> dict:
    import mpmath
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read_lines("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    pkg = os.path.join(SRC, "cospow")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src_hash.update(name.encode() + fh.read())
    return {"python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": os.cpu_count(), "cpu": cpu, "seed": seed,
            "git_commit": commit, "source_sha256": src_hash.hexdigest()}


def _read_lines(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except OSError:
        return []


def run_worker(args, spool: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spool", spool]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_spooled(records: list[dict]):
    """Check the outputs the worker left on disk (the matrix commands)."""
    from workloads import check_matrix
    for rec in records:
        if rec.get("spool") is None:
            continue
        with open(rec["spool"], encoding="utf-8") as fh:
            text = fh.read()
        try:
            ok, ratio, reason = check_matrix(rec["label"], (rec["code"], text))
        except Exception as exc:  # a malformed output fails its check
            ok, ratio, reason = False, None, f"check raised {exc!r}"
        rec.update(ok=ok, ratio=ratio, reason=reason)


def repeat_share(records, key) -> float:
    seen, repeats = set(), 0
    for rec in records:
        k = key(rec)
        repeats += k in seen
        seen.add(k)
    return repeats / len(records)


def failed_positions(records) -> set:
    """Positions in the run's request list with an execution that failed."""
    return {r["pos"] for r in records if not r["ok"]}


def host_scales(reference_s: list[float]) -> list[float]:
    """Per request, REFERENCE_S over the local median reference time."""
    h = REFERENCE_HALF_WINDOW
    return [REFERENCE_S
            / statistics.median(reference_s[max(0, i - h):i + h + 1])
            for i in range(len(reference_s))]


def end_to_end(result: dict, scales: list[float]) -> dict:
    """The end-to-end metrics; request i's time is multiplied by scales[i]."""
    recs = result["records"]
    lat_ms = [1000 * r["latency_s"] * k for r, k in zip(recs, scales)]
    verified = sum(1 for r in recs if r["ok"])
    return {
        "verified_per_s": 1000 * verified / sum(lat_ms),
        "request_p50_ms": statistics.median(lat_ms),
        "request_p90_ms": statistics.quantiles(lat_ms, n=10)[-1],
        "verified_fraction": 1 - len(failed_positions(recs))
        / result["planned"],
        "peak_rss_mb": result["maxrss_kb"] / 1024,
        "setup_s": statistics.median(result["setup_s"]),
    }


def per_layer(result: dict) -> dict:
    trace, cycles = result["trace"], result["cycles"]
    out = {f"{name}.self_ms": ms / cycles
           for name, ms in trace["self_ms"].items()}
    out.update({name: n / cycles for name, n in trace["counts"].items()})
    out["exact.coeff_bits_max"] = trace["coeff_bits_max"]
    out["trace.overhead_ratio"] = trace["traced_s"] / result["busy_s"]
    return out


def report(args, env, result, metrics, correct):
    recs = result["records"]
    err = sys.stderr
    print(f"environment: {json.dumps(env)}", file=err)
    if env["mpmath_backend"] != REFERENCE_BACKEND:
        print(f"WARNING: mpmath backend {env['mpmath_backend']!r}, the "
              f"recorded figures used {REFERENCE_BACKEND!r}: not comparable",
              file=err)
    print(f"workload {args.workload}: a list of {result['planned']} "
          f"requests; {len(recs)} executed in {result['cycles']} cycles, "
          f"{result['busy_s']:.2f} s busy, "
          f"trace={args.trace}", file=err)
    by_cls: dict[str, list] = {}
    for r in recs:
        by_cls.setdefault(r["cls"], []).append(r)
    print(f"  {'class':26s} {'count':>5s} {'p50 ms':>9s} {'max ms':>9s} "
          f"{'failed':>6s}", file=err)
    for cls, rs in by_cls.items():
        lat = [1000 * r["latency_s"] for r in rs]
        print(f"  {cls:26s} {len(rs):5d} {statistics.median(lat):9.1f} "
              f"{max(lat):9.1f} {sum(not r['ok'] for r in rs):6d}", file=err)
    failed = {r["pos"]: r for r in recs if not r["ok"]}
    print(f"  failed_fraction {len(failed) / result['planned']:.4f} "
          f"({len(failed)} of the {result['planned']} listed requests)",
          file=err)
    for pos, r in sorted(failed.items()):
        print(f"  FAILED #{pos} {r['label']}: {r['reason']}", file=err)
    ctl = result["control"]
    print(f"  negative control ({ctl['label']}): "
          f"{'caught' if not ctl['ok'] else 'NOT CAUGHT'}", file=err)
    print(f"  repeat share: level {repeat_share(recs, lambda r: r['level']):.3f}"
          f", (level, precision) "
          f"{repeat_share(recs, lambda r: (r['level'], r['precision'])):.3f}",
          file=err)
    if "trace" in result:
        busy_ms = 1000 * result["trace"]["traced_s"]
        shares = {k: round(v / busy_ms, 4)
                  for k, v in result["trace"]["kind_ms"].items()}
        print(f"  traced time share by kind (int = integer-only, mp = "
              f"mpmath, io = cli parsing and output, tracer = measuring "
              f"results): {shares}", file=err)
    if result["reference_s"]:  # untraced runs only
        ref = statistics.median(result["reference_s"])
        raw = end_to_end(result, [1.0] * len(result["records"]))
        print(f"  reference computation: median {1000 * ref:.4f} ms "
              f"(recorded {1000 * REFERENCE_S:.4f} ms); raw, as timed: "
              f"verified_per_s {raw['verified_per_s']:.4f}, request_p50_ms "
              f"{raw['request_p50_ms']:.4f}, request_p90_ms "
              f"{raw['request_p90_ms']:.4f}", file=err)
    print(f"correct={correct}", file=err)
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}", file=err)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("exact_kernel", "cli_verify", "zeta_series"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "cospow", "cli.py")):
        return fail(f"no cospow sources under {SRC}; run from a checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)

    env = environment(args.seed)
    spool = os.path.join(ROOT, ".perfbench_spool", str(os.getpid()))
    os.makedirs(spool)
    try:
        result = run_worker(args, spool)
        check_spooled(result["records"])
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        return fail(f"worker failed: {exc!r}")
    finally:
        shutil.rmtree(spool, ignore_errors=True)
        spool_root = os.path.dirname(spool)
        if os.path.isdir(spool_root) and not os.listdir(spool_root):
            os.rmdir(spool_root)

    recs = result["records"]
    if args.trace:
        wanted, values = spec["per_layer"], per_layer(result)
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(result, host_scales(result["reference_s"]))
    # a layer the workload never enters reads 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]} for m in wanted}
    # series requests miss tolerance through the known stop-rule defect;
    # they count as failed but do not make the run incorrect
    correct = (not result["control"]["ok"]
               and all(r["ok"] or r["series"] for r in recs))
    report(args, env, result, metrics, correct)
    print(json.dumps({"correct": correct, "attempted": result["planned"],
                      "failed": len(failed_positions(recs)),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
