"""b92sim benchmark: one workload, one seed, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and README.md): analytic-sweep,
finite-size-sim, exponent-queries.  The run

1. times SETUP_PROBES fresh interpreters from start to ``import b92sim.cli``
   plus one warm-up command (``setup_s``, median);
2. runs the workload in a fresh worker process, one closed-loop client that
   calls ``b92sim.cli.main(argv)`` in-process (worker.py);
3. checks every op's output here, outside the timed region (checks.py);
4. prints a detail line (environment, failures by class, tail percentile,
   baseline rows, tracing overhead), then, as the last line, the result:
   ``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
   metrics for ``--trace 0`` and the per-layer metrics for ``--trace 1``.

It exits non-zero without a result when the sources it measures are absent.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = (ROOT / "src" / "b92sim" / "cli.py", ROOT / "tests" / "oracles.py")
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# The ops are 4x4 linear algebra and sampling loops: one BLAS thread, so the
# two cores of the reference machine never oversubscribe.
BLAS_THREADS = "1"
# Half-width of the window of calibration samples that sets an op's speed.
CAL_WINDOW_S = 1.0

sys.path.insert(0, str(HERE))

import worker  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    return env


def environment() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: BLAS_THREADS for var in THREAD_VARS},
    }


def setup_seconds(env: dict) -> tuple[float, float]:
    """Fresh interpreter to 'import b92sim.cli' plus the warm-up op: the raw
    time and the time at the reference speed measured around it."""
    before = worker.calibration_sample()[1]
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), "--probe"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    try:
        _, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("set-up probe did not exit")
    if line.strip() != "ready" or proc.returncode != 0:
        sys.exit(f"set-up probe failed: {err.strip()}")
    after = worker.calibration_sample()[1]
    return elapsed, elapsed * worker.CAL_NOMINAL_S / (0.5 * (before + after))


def reference_speed(records, cal) -> list[float]:
    """Per op, CAL_NOMINAL_S over the median kernel time of the calibration
    samples within CAL_WINDOW_S of it (a sample always falls within
    CAL_INTERVAL_S before an op)."""
    mids = [c[0] for c in cal]
    out = []
    for rec in records:
        lo = bisect.bisect_left(mids, rec["start"] - CAL_WINDOW_S)
        hi = bisect.bisect_right(mids, rec["start"] + rec["latency_s"] + CAL_WINDOW_S)
        out.append(worker.CAL_NOMINAL_S / statistics.median(c[1] for c in cal[lo:hi]))
    return out


def run_worker(args, env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that
    has at least ten samples beyond it; the maximum when there are fewer
    than eleven samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def evaluate(ops, records) -> tuple[list[list[str]], bool]:
    """Problems per op, and whether every completed op's output was right."""
    import checks

    z = checks.sigma_for(ops)
    problems = [checks.check(op, rec, z) for op, rec in zip(ops, records)]
    for p, rec in zip(problems, records):
        if rec.get("replay_mismatch"):
            p.append("output differs between the traced and the untraced run")
    wrong = any(p and rec["status"] == "ok" for p, rec in zip(problems, records))
    return problems, not wrong


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("analytic-sweep", "finite-size-sim", "exponent-queries"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: sources to benchmark are missing: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    import workloads

    env = child_env()
    worker.reference_kernel()
    setups = [setup_seconds(env) for _ in range(SETUP_PROBES)]
    doc = run_worker(args, env)
    ops = [op for rnd in workloads.make_rounds(
        args.workload, args.seed, workloads.rounds_for(args.workload, args.seconds))
        for op in rnd]
    records = doc["records"]
    if len(records) != len(ops):
        sys.exit(f"worker returned {len(records)} records for {len(ops)} ops")

    problems, correct = evaluate(ops, records)
    failed = sum(1 for p in problems if p)
    attempted = len(ops)
    raw = [rec["latency_s"] for rec in records]
    if "calibration" in doc:
        # a timed-out op took the deadline, a wall-clock limit: not scaled
        latencies = [t if rec["status"] == "timeout" else t * f for t, f, rec in
                     zip(raw, reference_speed(records, doc["calibration"]), records)]
    else:
        latencies = raw
    ops_per_s = (attempted - failed) / sum(latencies)
    tail, tail_pct, beyond = tail_latency(latencies)

    by_class = Counter()
    failures = Counter()
    for op, p in zip(ops, problems):
        by_class[op.cls] += 1
        if p:
            failures[op.cls] += 1
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": doc["rounds"],
        "environment": environment(),
        "setup_samples_s": {"raw": [r for r, _ in setups],
                            "reference_speed": [n for _, n in setups]},
        "raw": {"ops_per_s": (attempted - failed) / sum(raw),
                "op_p50_ms": 1e3 * statistics.median(raw),
                "op_tail_ms": 1e3 * tail_latency(raw)[0],
                "setup_s": statistics.median(r for r, _ in setups)},
        "calibration": {"samples": len(doc.get("calibration", [])),
                        "median_s": statistics.median(c[1] for c in doc["calibration"])
                        if doc.get("calibration") else None,
                        "nominal_s": worker.CAL_NOMINAL_S},
        "failed_frac": failed / attempted,
        "failures_by_class": {c: {"attempted": by_class[c], "failed": failures[c]}
                              for c in sorted(by_class)},
        "failure_examples": [
            {"cls": op.cls, "op": op.label(), "problems": p[:3]}
            for op, p in zip(ops, problems) if p][:10],
        "op_tail": {"percentile": tail_pct, "samples": attempted,
                    "samples_beyond": beyond},
    }

    if args.trace:
        probe = doc["overhead_probe"]
        metrics = dict(doc["layers"])
        metrics["trace.ops_per_s"] = ops_per_s
        metrics["trace.overhead_frac"] = probe["traced_s"] / probe["untraced_s"] - 1.0
        detail.update(baseline_rows=doc["baseline"], spans_file=doc["spans_file"],
                      span_count=doc["span_count"], overhead_probe=probe)
        units = {k: ("count" if k.endswith((".calls", ".pairs", ".infeasible", ".raised"))
                     else "frac" if k.endswith("_frac")
                     else "1/s" if k.endswith("ops_per_s") else "ms")
                 for k in metrics}
    else:
        metrics = {
            "ops_per_s": ops_per_s,
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * tail,
            "peak_rss_mb": doc["peak_rss_mb"],
            "success_frac": (attempted - failed) / attempted,
            "setup_s": statistics.median(n for _, n in setups),
        }
        units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                 "peak_rss_mb": "MB", "success_frac": "frac", "setup_s": "s"}

    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
