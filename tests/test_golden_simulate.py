"""Byte-for-byte output of seeded ``simulate`` runs against a stored fixture.

The fixture, golden_simulate.json, holds the argv, exit code and stdout of
every run in the corpus: the CI smoke ``simulate`` lines, the noiseless
sliver seeds and every ``simulate`` op of the benchmark's finite-size-sim
workload at seeds 1-8.  A seed pins its tallies, so any change to the Born
weights or to run_protocol1's draws shows here.  The argv lives in the
fixture, so this test needs nothing from the benchmark.  A change that moves
a run on purpose regenerates the fixture with

    PYTHONPATH=src python tests/test_golden_simulate.py

which prints the argv of every row whose exit code or stdout moved; name
those rows, and the tally that moved, in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

from test_golden import run

FIXTURE = Path(__file__).with_name("golden_simulate.json")

CI_SMOKE = [
    "--p 0.03 --alpha-sq 0.2 --n 100000 --seed 1 --eps2 0.001 --eps4 0.001 --eps6 0.001",
    "--p 0 --alpha-sq 0.0863 --n 1390 --eps2 0.023 --eps6 0.0029 --eps7 0.027"
    " --eps8 0.000026 --seed 17",
    "--p 1e-12 --alpha-sq 1e-20 --n 100000 --seed 1",
    "--p 0 --alpha-sq 1e-300 --n 1000 --seed 2",
    "--p 0.03 --alpha-sq 0.2 --n 100000000000000 --seed 1",
    "--p 0.03 --alpha-sq 0.2 --n 100000000000000000 --seed 1",
]
SLIVER_SEEDS = (0, 1, 2, 3, 4, 5, 18, 24, 34, 76, 100, 117, 121, 169)
BENCH_SEEDS = range(1, 9)
BENCH_SECONDS = 20


def corpus() -> list[list[str]]:
    """Every argv of the fixture; reads the benchmark's op generator."""
    sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
    import workloads

    out = [["simulate", *line.split()] for line in CI_SMOKE]
    out += [["simulate", "--p", "0", "--alpha-sq", "0.1", "--n", "1000", "--eps2", "0.025",
             "--seed", str(seed)] for seed in SLIVER_SEEDS]
    rounds = workloads.rounds_for("finite-size-sim", BENCH_SECONDS)
    for seed in BENCH_SEEDS:
        out += [list(op.argv) for rnd in workloads.make_rounds("finite-size-sim", seed, rounds)
                for op in rnd if op.kind == "simulate"]
    return out


def cases() -> list[dict]:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", cases(), ids=lambda case: " ".join(case["argv"]))
def test_output_matches_fixture(case):
    assert run(case["argv"]) == (case["code"], case["stdout"])


if __name__ == "__main__":
    old = {tuple(c["argv"]): (c["code"], c["stdout"]) for c in cases()}
    new = []
    for argv in corpus():
        code, stdout = run(argv)
        new.append({"argv": argv, "code": code, "stdout": stdout})
        if old.get(tuple(argv), (code, stdout)) != (code, stdout):
            print(" ".join(argv))
    FIXTURE.write_text(json.dumps(new, indent=1) + "\n")
    print(f"wrote {len(new)} cases to {FIXTURE}", file=sys.stderr)
