"""Stress the slacked finite-size ceiling on random draws; run by hand.

    PYTHONPATH=src python tests/stress_slacked.py --family mixed --seed 100 --count 4000
    PYTHONPATH=src python tests/stress_slacked.py --family one-zero-band --seed 101 \\
        --count 4000 --oracle-every 50 --passes 5

Each draw follows the stress recipe: p in [0, 0.12], alpha^2 in [0.02, 0.48],
n log-uniform in 1e3-1e7, tallies from run_protocol1 under the depolarizing
channel, and each slack 0 with probability 1/2, else U(0, 10^U(-5, -1)).  The
one-zero-band family then zeroes eps2 or eps4.  Every call is timed (the
least of ``--passes`` runs) and watched: an abort is an exception, an open
call ends with cells open above its best point (an over-report), a stuck one
had a Newton search run out of steps, a slow one took over ``--slow-ms``;
the Newton searches, constraint evaluations and cells bounded (Sectors.cell
calls on a box, not a point) per call are printed with the time per
call and the pinned searches' count and mean time (Sectors.pinned_top), and
on the next line how often
each row was in the working set of a converged search.  Every
reported point that is not an over-report must be witnessed
(test_security.witnessed).  The oracle (finite_size_oracle,
about 0.2 s a draw) checks the flagged draws and every k-th one; a shortfall is
a ceiling below it by more than 1e-11.  The script exits 1 on an abort, an
unwitnessed point or a shortfall.

``--add CORPUS`` appends this run's flagged and oracle-sampled draws to a
corpus file and
``--regenerate CORPUS`` recomputes every row of one (r_ph_bar, x_star and the
open flag), printing the rows that moved; name those in CHANGES.md.  The
oracle's value is computed only for a row that has none, a new one: the
oracle shares no code with the solver, so a stored value cannot move with
it.  After a change to finite_size_oracle, delete the stored ``oracle``
values first, and regenerate.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from b92sim import _sectors  # noqa: E402
from b92sim.protocol import ProtocolParams, run_protocol1  # noqa: E402
from b92sim.quantum import depolarizing_channel  # noqa: E402
from b92sim.security import SlackVector, finite_size_bound  # noqa: E402
from oracles import finite_size_oracle  # noqa: E402
from test_security import witnessed  # noqa: E402

SHORT = 1e-11


def draws(family: str, seed: int, count: int):
    """(n_err, n_fil, n_pairs), alpha and the eight slacks of each draw."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p, a2 = rng.uniform(0.0, 0.12), rng.uniform(0.02, 0.48)
        n = int(round(10 ** rng.uniform(3, 7)))
        eps = [0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 10 ** rng.uniform(-5, -1)))
               for _ in range(8)]
        if family == "one-zero-band":
            eps[1 if rng.random() < 0.5 else 3] = 0.0
        run = run_protocol1(ProtocolParams(math.sqrt(a2), n, depolarizing_channel(p),
                                           int(rng.integers(2**31))))
        yield (run.n_err, run.n_fil, n), math.sqrt(a2), tuple(eps)


def watched(tallies, alpha, eps, passes: int = 1):
    """finite_size_bound's result, the least time of ``passes`` calls in ms,
    and what one call did: whether it ended open ("open"), whether a search
    stuck ("stuck"), its Newton searches ("searches"), constraint evaluations
    ("constraints"), cells bounded ("cells"), pinned searches ("pinned")
    and their time in ms ("pinned_ms"), how often each row was in
    the working set of a converged search ("rows", a Counter), and each such
    search's working set with its multipliers ("kkt", (names, multipliers)
    pairs)."""
    seen = {"open": False, "stuck": False}
    sectors = _sectors.Sectors
    original = {name: getattr(sectors, name)
                for name in ("interior", "_search", "constraints", "cell", "pinned_top")}

    def interior(self, start):
        best, bound = original["interior"](self, start)
        seen["open"] |= bound > -math.inf
        return best, bound

    def _search(self, *args):
        out = original["_search"](self, *args)
        seen["stuck"] |= out[3] == "stuck"
        seen["searches"] += 1
        if out[3] is None:
            seen["rows"].update(args[0])
            seen["kkt"].append((tuple(args[0]), tuple(out[2])))
        return out

    def constraints(self, *args):
        seen["constraints"] += 1
        return original["constraints"](self, *args)

    def cell(self, lo0, hi0, lo1, hi1, w):
        seen["cells"] += lo0 != hi0 or lo1 != hi1
        return original["cell"](self, lo0, hi0, lo1, hi1, w)

    def pinned_top(self, *args):
        start = time.perf_counter()
        out = original["pinned_top"](self, *args)
        seen["pinned"] += 1
        seen["pinned_ms"] += 1e3 * (time.perf_counter() - start)
        return out

    for watch in (interior, _search, constraints, cell, pinned_top):
        setattr(sectors, watch.__name__, watch)
    try:
        times = []
        for _ in range(passes):
            # every pass does the same work; the last one's is counted
            seen.update(searches=0, constraints=0, cells=0, pinned=0, pinned_ms=0.0,
                        rows=Counter(), kkt=[])
            start = time.perf_counter()
            res = finite_size_bound(*tallies, alpha, SlackVector(*eps))
            times.append(1e3 * (time.perf_counter() - start))
    finally:
        for name, method in original.items():
            setattr(sectors, name, method)
    return res, min(times), seen


def oracle(tallies, alpha, eps):
    value = finite_size_oracle(*tallies, alpha, eps)
    return None if value is None else float(value)


def stress(args) -> tuple[int, list[dict]]:
    """Run the draws, print the tallies, and return the exit code and the
    flagged and oracle-sampled draws."""
    counts = dict.fromkeys(("draws", "aborts", "infeasible", "open", "stuck", "slow",
                            "unwitnessed", "oracle checks", "shortfalls"), 0)
    times, flagged, worst = [], [], 0.0
    work = {"searches": 0, "constraints": 0, "cells": 0, "pinned": 0, "pinned_ms": 0.0,
            "rows": Counter()}
    for i, (tallies, alpha, eps) in enumerate(draws(args.family, args.seed, args.count)):
        counts["draws"] += 1
        row = {"tallies": list(tallies), "alpha": alpha, "eps": list(eps)}
        try:
            res, ms, seen = watched(tallies, alpha, eps, args.passes)
        except Exception as exc:  # an abort: report it and go on
            counts["aborts"] += 1
            print(f"abort {exc!r}: {row}")
            continue
        times.append(ms)
        is_open, stuck, slow = seen["open"], seen["stuck"], ms > args.slow_ms
        for key in work:
            work[key] += seen[key]
        for key, hit in (("open", is_open), ("stuck", stuck), ("slow", slow)):
            counts[key] += hit
        if not res.feasible:
            counts["infeasible"] += 1
        elif not is_open and not witnessed(*tallies, alpha, eps, res):
            counts["unwitnessed"] += 1
            print(f"unwitnessed: {row}")
        short = False
        if is_open or stuck or slow or (args.oracle_every and i % args.oracle_every == 0):
            if args.oracle_every:
                counts["oracle checks"] += 1
                best = oracle(tallies, alpha, eps)
                if best is not None and (not res.feasible or res.r_ph_bar < best - SHORT):
                    short = True
                    counts["shortfalls"] += 1
                    gap = best - (res.r_ph_bar if res.feasible else -math.inf)
                    worst = max(worst, gap / abs(best) if best else math.inf)
                    print(f"short by {gap:.3g}: {row}")
        flags = [k for k, hit in (("open", is_open), ("stuck", stuck), ("slow", slow),
                                  ("short", short)) if hit]
        if flags or (args.oracle_every and i % args.oracle_every == 0):
            row["source"] = (f"stress {args.family} seed {args.seed} draw {i}: "
                             + (", ".join(flags) or "sampled"))
            flagged.append(row)
    ms = np.array(times) if times else np.zeros(1)
    print(", ".join(f"{k} {v}" for k, v in counts.items())
          + f"; worst shortfall {worst:.3g} relative" * bool(counts["shortfalls"]))
    print(f"time per call: mean {ms.mean():.3f} ms, p99 {np.percentile(ms, 99):.3f} ms, "
          f"max {ms.max():.3f} ms; per call {work['searches'] / ms.size:.2f} Newton searches, "
          f"{work['constraints'] / ms.size:.2f} constraint evaluations, "
          f"{work['cells'] / ms.size:.2f} cells bounded; {work['pinned']} pinned calls, mean "
          f"{work['pinned_ms'] / max(work['pinned'], 1):.3f} ms")
    print("rows in converged working sets: "
          + (", ".join(f"{k} {v}" for k, v in work["rows"].most_common()) or "none"))
    return int(bool(counts["aborts"] or counts["unwitnessed"] or counts["shortfalls"])), flagged


def regenerate(path: Path, extra: list[dict]) -> None:
    """Recompute every row of the corpus at ``path`` (plus ``extra``, rows
    whose inputs it lacks), print the rows that moved, and write it back;
    the oracle runs only on a row without an ``oracle`` value."""
    rows = json.loads(path.read_text()) if path.exists() else []
    known = {json.dumps([r["tallies"], r["alpha"], r["eps"]]) for r in rows}
    rows += [r for r in extra if json.dumps([r["tallies"], r["alpha"], r["eps"]]) not in known]
    for row in rows:
        tallies, alpha, eps = tuple(row["tallies"]), row["alpha"], tuple(row["eps"])
        res, _, seen = watched(tallies, alpha, eps)
        new = {"r_ph_bar": res.r_ph_bar if res.feasible else None,
               "x_star": res.x_star if res.feasible else None, "open": seen["open"]}
        if "oracle" not in row:
            new["oracle"] = oracle(tallies, alpha, eps)
        moved = {k: (row[k], v) for k, v in new.items() if k in row and row[k] != v}
        if moved:
            print(f"moved {row['source']}: {moved}")
        row.update(new)
    path.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"{len(rows)} rows written to {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--family", choices=("mixed", "one-zero-band"), default="mixed")
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--count", type=int, default=1000)
    parser.add_argument("--oracle-every", type=int, default=0, metavar="K",
                        help="oracle checks on the flagged draws and every K-th; 0: none")
    parser.add_argument("--passes", type=int, default=1, help="calls per draw, least time kept")
    parser.add_argument("--slow-ms", type=float, default=10.0)
    parser.add_argument("--add", type=Path, metavar="CORPUS")
    parser.add_argument("--regenerate", type=Path, metavar="CORPUS")
    args = parser.parse_args(argv)
    if args.regenerate is not None:
        regenerate(args.regenerate, [])
        return 0
    code, flagged = stress(args)
    if args.add is not None:
        regenerate(args.add, flagged)
    return code


if __name__ == "__main__":
    sys.exit(main())
