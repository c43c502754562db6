"""Benchmark worker: executes one workload's ops in this process.

    python3 perfbench/worker.py --probe
        import b92sim.cli, run the warm-up op, print "ready" (set-up probe)
    python3 perfbench/worker.py --workload W --seed N --seconds S --trace T
        run the workload's ops and print one JSON document with every op's
        captured output and latency

Each op calls ``b92sim.cli.main(argv)`` with stdout and stderr captured, as
a shell user would run the command, or one library call.  Only the call is
timed; output checks run later in the parent (``run.py``), so they neither
count towards latency nor raise this process's peak memory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402

# Latency limit of one op.  Exponent queries on collinear bases run for a
# minute or more; past this limit the op is abandoned and counted failed.
OP_DEADLINE_S = 20.0
# Seconds between two runs of the calibration kernel, and the kernel's
# typical duration on the reference machine.  The host's speed swings by up
# to 1.7x for tens of seconds; timings are reported at the speed at which
# the kernel takes CAL_NOMINAL_S.
CAL_INTERVAL_S = 0.25
CAL_NOMINAL_S = 0.025


class Deadline(BaseException):
    """Raised by the alarm inside an op that overran OP_DEADLINE_S.  A
    BaseException, so no handler in the package catches it."""


def _on_alarm(signum, frame):
    raise Deadline()


def run_cli(argv) -> tuple[int, str, str]:
    import b92sim.cli as cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def run_b92_call(call: dict):
    import b92sim.protocol as protocol
    import b92sim.quantum as quantum

    params = protocol.ProtocolParams(
        alpha=math.sqrt(call["alpha_sq"]), n_pairs=call["n"],
        channel=quantum.depolarizing_channel(call["p"]), seed=call["seed"])
    return protocol.run_b92(params)


def b92_summary(record) -> dict:
    """Joint (Alice bit, Bob outcome) counts and value-range facts of a
    run_b92 record, small enough to send to the checker."""
    import numpy as np

    alice = np.asarray(record.alice_bits)
    bob = np.asarray(record.bob_outcomes)
    return {
        "len": [int(alice.size), int(bob.size)],
        "alice_ok": bool(np.all(alice <= 1)),
        "bob_ok": bool(np.all(bob <= 2)),
        "joint": np.bincount(alice.astype(np.intp) * 3 + bob, minlength=6).tolist(),
    }


def execute(op: workloads.Op) -> dict:
    """Run one op under the deadline; returns its record."""
    rec = {"status": "ok", "rc": 0, "stdout": "", "stderr": ""}
    signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
    start = time.perf_counter()
    try:
        if op.kind == "run_b92":
            result = run_b92_call(op.call)
        else:
            rec["rc"], rec["stdout"], rec["stderr"] = run_cli(op.argv)
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        end = time.perf_counter()
        rec["status"] = "timeout"
    except Exception:  # an op that escapes main is a failed op, not a crash here
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        rec["status"] = "raised"
        rec["stderr"] = traceback.format_exc()
    rec["start"], rec["latency_s"] = start, end - start
    if rec["status"] == "ok" and op.kind == "run_b92":
        rec["summary"] = b92_summary(result)
    elif rec["status"] == "ok" and rec["rc"] != 0:
        rec["status"] = "exit"
    return rec


def execute_ops(ops, tracer=None, replays: int = 0) -> list[dict]:
    """Run every op once in order, traced when a tracer is given.  The first
    ``replays`` ops each run again untraced straight after, so the tracing
    overhead is measured on the same op at the same host speed."""
    records = []
    signal.signal(signal.SIGALRM, _on_alarm)
    if tracer is not None:
        tracer.install()
    try:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = len(records)
            rec = execute(op)
            if i < replays:
                tracer.uninstall()
                again = execute(op)
                tracer.install()
                rec["untraced_latency_s"] = again["latency_s"]
                if _outcome(again) != _outcome(rec):
                    rec["replay_mismatch"] = True
            records.append(rec)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return records


def _outcome(rec: dict) -> tuple:
    return rec["status"], rec["stdout"], rec.get("summary")


def reference_kernel() -> None:
    """Fixed work that uses none of the package: small complex matrix
    products and eigensolves, argument parsing, and a 150k-element sort,
    the same mix of interpreter, small-array and memory work as the ops."""
    import argparse as ap

    import numpy as np

    a = np.eye(4, dtype=complex) * 0.5 + 0.1j
    for i in range(75):
        m = a @ a.conj().T
        float(np.trace(m).real) + float(np.linalg.eigvalsh(m)[0])
        parser = ap.ArgumentParser()
        parser.add_argument("--x", type=float)
        parser.parse_args(["--x", str(i)])
    np.sort(np.random.default_rng(0).random(150_000))


def calibration_sample() -> list[float]:
    """[midpoint, duration] of one run of the reference kernel."""
    start = time.perf_counter()
    reference_kernel()
    end = time.perf_counter()
    return [0.5 * (start + end), end - start]


def execute_calibrated(ops) -> tuple[list[dict], list[list[float]]]:
    """Run every op once, timing the reference kernel between ops at least
    every CAL_INTERVAL_S and after every op longer than that."""
    cal = [calibration_sample()]
    records = []
    for op in ops:
        if time.perf_counter() - cal[-1][0] > CAL_INTERVAL_S:
            cal.append(calibration_sample())
        records.extend(execute_ops([op]))
        if records[-1]["latency_s"] > CAL_INTERVAL_S:
            cal.append(calibration_sample())
    cal.append(calibration_sample())
    return records, cal


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe() -> None:
    import b92sim.cli  # noqa: F401  (the import is what is measured)

    rc, _, err = run_cli(workloads.WARMUP_ARGV)
    if rc != 0:
        sys.exit(f"warm-up op failed: {err}")
    print("ready", flush=True)


def write_spans(spans, workload: str, seed: int) -> str:
    out_dir = ROOT / "perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for op, name, start, end, parent, attrs in spans:
            fh.write(json.dumps({"op": op, "name": name, "start": start, "end": end,
                                 "parent": parent, "attrs": attrs}) + "\n")
    return str(path.relative_to(ROOT))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.probe:
        probe()
        return

    run_cli(workloads.WARMUP_ARGV)
    rounds = workloads.make_rounds(args.workload, args.seed,
                                   workloads.rounds_for(args.workload, args.seconds))
    ops = [op for rnd in rounds for op in rnd]
    doc = {"rounds": len(rounds)}
    if args.trace:
        import tracing

        # one traced pass, so every count belongs to exactly the run's ops;
        # the first half of round 0 also runs untraced, for the overhead
        tracer = tracing.Tracer()
        doc["records"] = execute_ops(ops, tracer, replays=max(1, len(rounds[0]) // 2))
        paired = [r for r in doc["records"] if "untraced_latency_s" in r]
        doc["overhead_probe"] = {
            "ops": len(paired),
            "traced_s": sum(r["latency_s"] for r in paired),
            "untraced_s": sum(r["untraced_latency_s"] for r in paired),
        }
        doc["layers"] = tracing.layer_metrics(tracer.spans)
        doc["baseline"] = tracing.baseline_rows(tracer.spans)
        doc["spans_file"] = write_spans(tracer.spans, args.workload, args.seed)
        doc["span_count"] = len(tracer.spans)
    else:
        reference_kernel()
        doc["records"], doc["calibration"] = execute_calibrated(ops)
    doc["peak_rss_mb"] = peak_rss_mb()
    json.dump(doc, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
