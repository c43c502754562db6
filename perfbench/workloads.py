"""Seeded op generators for the three benchmark workloads.

An op is one CLI command (``argv`` for ``b92sim.cli.main``) or one library
call (``call``).  Each workload is a fixed number of rounds; a round is a
list of ops drawn from ``random.Random`` seeded by the workload name and the
benchmark seed, so the same seed always gives the same argv.  Nothing here
imports the package: the program only ever sees the generated inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# Seconds one round takes on the reference machine (2 vCPUs, Python 3.11,
# numpy 2.4, scipy 1.17).  A run holds round(seconds / ROUND_S) rounds, a
# number fixed by the command line alone, so every run of a workload does the
# same amount and mix of work and its count metrics repeat exactly.
ROUND_S = {"analytic-sweep": 2.5, "finite-size-sim": 10.0, "exponent-queries": 40.0}

# Channel strength ranges: analytic points reach past the p ~ 0.034
# threshold so the G = 0 branch is exercised.
ANALYTIC_P_MAX = 0.06
ALPHA_SQ_RANGE = (0.01, 0.49)
SIM_P_MAX = 0.05
SIM_ALPHA_SQ_RANGE = (0.05, 0.45)
SLACK_RANGE = (1e-4, 1e-2)
# Log-spaced pair budgets 1e4 ... 1e7, a quarter decade apart.  A fixed
# ladder rather than random sizes keeps the largest run, which sets peak
# memory, identical in every round.
N_LADDER = tuple(int(round(10 ** (4 + 0.25 * i))) for i in range(13))
RATES_PER_ROUND = 20
SWEEP_STEPS = 3
SWEEP_WIDTH = 0.01

EXP_M_RANGE = (8, 30)
# Exponent queries take seconds each, far too few fit in a run for fresh
# random instances to give a steady mean, so every run solves the same
# corpus (drawn once from this seed); the benchmark seed sets the solver's
# restart seed and the i.i.d. check states instead.
EXP_CORPUS_SEED = 92
EXP_CORPUS_LAYOUT = ("interior", "exterior", "interior", "exterior",
                     "edge-boundary", "edge-collinear")


@dataclass(frozen=True)
class Op:
    """One benchmark operation with the metadata its checker needs."""

    kind: str
    cls: str
    argv: tuple[str, ...] = ()
    call: dict = field(default_factory=dict)

    def label(self) -> str:
        return " ".join(self.argv) if self.argv else f"{self.kind} {self.call}"


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


def _num(x: float) -> str:
    return repr(float(x))


# --------------------------------------------------------------------------
# analytic-sweep
# --------------------------------------------------------------------------


def _analytic_round(rng: random.Random, r: int, n_rounds: int) -> list[Op]:
    ops = []
    for i in range(RATES_PER_ROUND):
        p = 0.0 if i == 0 else rng.uniform(0.0, ANALYTIC_P_MAX)
        a2 = rng.uniform(*ALPHA_SQ_RANGE)
        fmt = rng.choice(("csv", "json"))
        ops.append(Op("rate", "rate", ("rate", "--p", _num(p), "--alpha-sq", _num(a2),
                                       "--format", fmt)))
    # optimize and sweep points are stratified over the run's rounds, so
    # every run has the same share past the threshold, where G = 0 is cheaper
    p = ANALYTIC_P_MAX * (r + rng.random()) / n_rounds
    ops.append(Op("optimize", "optimize",
                  ("optimize", "--p", _num(p), "--format", rng.choice(("csv", "json")))))
    lo = (ANALYTIC_P_MAX - SWEEP_WIDTH) * (n_rounds - 1 - r + rng.random()) / n_rounds
    ops.append(Op("sweep", "sweep",
                  ("sweep", "--p-min", _num(lo), "--p-max", _num(lo + SWEEP_WIDTH),
                   "--p-steps", str(SWEEP_STEPS), "--format", rng.choice(("csv", "json")))))
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------------------
# finite-size-sim
# --------------------------------------------------------------------------


def _finite_round(rng: random.Random, r: int, n_rounds: int) -> list[Op]:
    ops = []
    for i, n in enumerate(N_LADDER):
        # alternate rungs carry slacks, so each class keeps the same sizes
        with_slack = i % 2 == 1
        p = rng.uniform(0.0, SIM_P_MAX)
        a2 = rng.uniform(*SIM_ALPHA_SQ_RANGE)
        if n == N_LADDER[-1]:
            # memory grows with the filtered pairs: the top rung runs at the
            # corner with the most of them, so every run peaks alike
            p, a2 = SIM_P_MAX, SIM_ALPHA_SQ_RANGE[1]
        argv = ["simulate", "--p", _num(p), "--alpha-sq", _num(a2), "--n", str(n),
                "--seed", str(rng.randrange(2**31))]
        if with_slack:
            for k in range(1, 9):
                argv += [f"--eps{k}", _num(rng.uniform(*SLACK_RANGE))]
        ops.append(Op("simulate", "slack" if with_slack else "zero-slack", tuple(argv)))
    # run_b92 keeps per-signal arrays, so its memory grows with n by design;
    # stopping its ladder below the top size leaves the 1e7 simulate as the
    # peak-memory op, where a count-only sampler would show.
    for n in N_LADDER[:-1]:
        ops.append(Op("run_b92", "library", call={
            "p": rng.uniform(0.0, SIM_P_MAX),
            "alpha_sq": rng.uniform(*SIM_ALPHA_SQ_RANGE),
            "n": n,
            "seed": rng.randrange(2**31),
        }))
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------------------
# exponent-queries
# --------------------------------------------------------------------------


def bloch_axis(theta: float, phi: float) -> tuple[float, float, float]:
    """Bloch vector of the outcome-1 ket of the basis with angles (theta, phi)."""
    return (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
            math.cos(theta))


def bloch_fit_radius(u0, u1, d0: float, d1: float) -> float:
    """Norm of the smallest Bloch vector r with (1 + r.u_b)/2 = d_b, for
    non-collinear axes u0, u1."""
    c0, c1 = 2.0 * d0 - 1.0, 2.0 * d1 - 1.0
    cw = sum(a * b for a, b in zip(u0, u1))
    return math.sqrt(max((c0 * c0 + c1 * c1 - 2.0 * c0 * c1 * cw) / (1.0 - cw * cw), 0.0))


def _random_angles(rng: random.Random) -> tuple[float, float]:
    return math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)


def _exponent_instance(rng: random.Random, shape: str) -> dict:
    """Draw one instance of a named class; rejection keeps every instance
    clear of the class boundaries so its class does not hinge on rounding."""
    while True:
        m0, m1 = rng.randint(*EXP_M_RANGE), rng.randint(*EXP_M_RANGE)
        b0 = _random_angles(rng)
        if shape == "edge-collinear":
            # same axis, or the antipodal one; the observed fractions disagree
            # so no single-qubit state reproduces them
            b1 = b0 if rng.random() < 0.5 else (math.pi - b0[0], b0[1] + math.pi)
            k0, k1 = rng.randint(0, m0), rng.randint(0, m1)
            same = b1 is b0
            if abs(k0 / m0 - (k1 / m1 if same else 1.0 - k1 / m1)) < 0.25:
                continue
        else:
            b1 = _random_angles(rng)
            cw = sum(a * b for a, b in zip(bloch_axis(*b0), bloch_axis(*b1)))
            if abs(cw) > 0.9:
                continue
            if shape == "edge-boundary":
                k0, k1 = rng.choice((0, m0)), rng.randint(0, m1)
            else:
                k0, k1 = rng.randint(1, m0 - 1), rng.randint(1, m1 - 1)
            r = bloch_fit_radius(bloch_axis(*b0), bloch_axis(*b1), k0 / m0, k1 / m1)
            if shape == "interior" and r > 0.95:
                continue
            if shape == "exterior" and r < 1.05:
                continue
        return {"basis0": b0, "basis1": b1, "m0": m0, "m1": m1, "k0": k0, "k1": k1}


def exponent_corpus() -> list[tuple[str, dict]]:
    rng = random.Random(EXP_CORPUS_SEED)
    return [(shape, _exponent_instance(rng, shape)) for shape in EXP_CORPUS_LAYOUT]


def _exponent_round(rng: random.Random, r: int, n_rounds: int) -> list[Op]:
    ops = []
    for shape, inst in exponent_corpus():
        argv = ("exponent",
                "--basis0", f"{_num(inst['basis0'][0])},{_num(inst['basis0'][1])}",
                "--basis1", f"{_num(inst['basis1'][0])},{_num(inst['basis1'][1])}",
                "--m0", str(inst["m0"]), "--m1", str(inst["m1"]),
                "--delta0", _num(inst["k0"] / inst["m0"]),
                "--delta1", _num(inst["k1"] / inst["m1"]),
                "--seed", str(rng.randrange(2**31)))
        cls = shape.split("-")[0]
        ops.append(Op("exponent", cls, argv, call={"shape": shape,
                                                    "check_seed": rng.randrange(2**31)}))
    return ops


GENERATORS = {
    "analytic-sweep": _analytic_round,
    "finite-size-sim": _finite_round,
    "exponent-queries": _exponent_round,
}


def make_rounds(workload: str, seed: int, n_rounds: int) -> list[list[Op]]:
    """The ops of a run, round by round; a pure function of its arguments."""
    rng = random.Random(f"{workload}/{seed}")
    return [GENERATORS[workload](rng, r, n_rounds) for r in range(n_rounds)]


# The warm-up op every process runs before it is ready: the cheapest CLI
# command, which loads every layer.
WARMUP_ARGV = ("rate", "--p", "0.03", "--alpha-sq", "0.2")
