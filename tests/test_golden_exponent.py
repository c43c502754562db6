"""Output of ``exponent`` queries against a stored fixture.

The fixture, golden_exponent.json, holds the argv, exit code and stdout of
the six queries of the benchmark's exponent-queries corpus, the CI smoke
``exponent`` lines and 40 seeded instances: interior, exterior, a count at 0
or m, collinear and near-collinear bases, eight of each.  The test compares
parsed output: keys, booleans, nulls and exit codes exactly, and numbers to
1e-12 absolute, or to one unit in the last printed digit where that unit is
coarser (values of 0.1 and up print 12 significant digits, so a 1e-14 move
can flip the last one).  For bases an angle w apart, the fit's in-plane axis
is a difference of two nearly parallel axes, so rounding in the axes (the
last bit of a dot product) moves the point by about 1e-16 / sin w; the
point's numbers are compared to 1e-15 / sin w where that is coarser.  The
point of collinear bases is not unique, so it is checked by its certificate
alone: it reproduces the observed counts to CERT_TOL, and the solver's point
attains the reported exponent within GAP_TOL.  A change that moves a query on purpose regenerates the fixture
with

    PYTHONPATH=src python tests/test_golden_exponent.py

which prints the argv of every row whose exit code or stdout moved; name
those rows, and the value that moved, in CHANGES.md.
"""

import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from b92sim.cli import parse_basis
from b92sim.exponent import (CERT_TOL, GAP_TOL, TwoBasisSampling, bloch_vector,
                             exponent_decomposed, exponent_direct, min_exponent)
from test_golden import run

FIXTURE = Path(__file__).with_name("golden_exponent.json")

CI_SMOKE = [
    "--basis0 0 --basis1 0.9273 --m0 20 --m1 20 --delta0 0.1 --delta1 0.8",
    "--basis0 0 --basis1 0.9273 --m0 20 --m1 20 --delta0 0 --delta1 0",
    "--basis0 0.6,0.1,0.8,-0.3 --basis1 1,0.5,1,0 --m0 12 --m1 25 --delta0 0.9 --delta1 0.2",
    "--basis0 1.9320882482313846,2.9021905852649343 --basis1 1.932088270170213,"
    "2.9021905852649343 --m0 19 --m1 96 --delta0 0.631578947368421 --delta1 0.625 --seed 1",
    "--basis0 0.8529706049278587,4.89203417088622 --basis1 0.8529706188692087,"
    "4.892034170894268 --m0 93 --m1 124 --delta0 0.12903225806451613 --delta1 0.8467741935483871",
    "--basis0 0 --basis1 3.14159 --m0 5 --m1 5 --delta0 0.2 --delta1 0.8",
    "--basis0 0 --basis1 0 --m0 10 --m1 10 --delta0 0 --delta1 1",
    "--basis0 0 --basis1 3.141592653589793 --m0 10 --m1 10 --delta0 0.3 --delta1 0.7",
]
SHAPES = ("interior", "exterior", "edge", "collinear", "near-collinear")
PER_SHAPE = 8
SEED = 2038


def _axis(theta: float, phi: float) -> tuple[float, float, float]:
    return (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))


def _fit_radius(b0, b1, d0: float, d1: float) -> float:
    c0, c1 = 2.0 * d0 - 1.0, 2.0 * d1 - 1.0
    cw = sum(x * y for x, y in zip(_axis(*b0), _axis(*b1)))
    return math.sqrt(max((c0 * c0 + c1 * c1 - 2.0 * c0 * c1 * cw) / (1.0 - cw * cw), 0.0))


def _instance(rng: random.Random, shape: str) -> list[str]:
    """One seeded query of a named shape; rejection keeps the interior and
    exterior draws clear of the zero region's edge."""
    while True:
        m0, m1 = rng.randint(1, 60), rng.randint(1, 60)
        k0, k1 = rng.randint(0, m0), rng.randint(0, m1)
        b0 = (math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi))
        antipodal = rng.random() < 0.5
        if shape in ("collinear", "near-collinear"):
            eps = 0.0 if shape == "collinear" else 10.0 ** rng.uniform(-9.0, -3.0)
            theta = b0[0] + eps
            b1 = (math.pi - theta, b0[1] + math.pi) if antipodal else (theta, b0[1])
        else:
            b1 = (math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi))
            if abs(sum(x * y for x, y in zip(_axis(*b0), _axis(*b1)))) > 0.95:
                continue
            if shape == "edge":
                k0 = rng.choice((0, m0))
            else:
                r = _fit_radius(b0, b1, k0 / m0, k1 / m1)
                if (shape == "interior") != (r < 0.95) or 0.95 <= r <= 1.05:
                    continue
        return ["exponent", "--basis0", f"{b0[0]!r},{b0[1]!r}", "--basis1", f"{b1[0]!r},{b1[1]!r}",
                "--m0", str(m0), "--m1", str(m1), "--delta0", repr(k0 / m0),
                "--delta1", repr(k1 / m1), "--seed", str(rng.randrange(1000))]


def corpus() -> list[list[str]]:
    """Every argv of the fixture; reads the benchmark's op generator."""
    sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
    import workloads

    out = [list(op.argv) for op in workloads.make_rounds("exponent-queries", 1, 1)[0]]
    out += [["exponent", *line.split()] for line in CI_SMOKE]
    rng = random.Random(SEED)
    out += [_instance(rng, shape) for shape in SHAPES for _ in range(PER_SHAPE)]
    return out


def cases() -> list[dict]:
    return json.loads(FIXTURE.read_text())


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _problem(argv: list[str]) -> TwoBasisSampling:
    return TwoBasisSampling(parse_basis(_flag(argv, "--basis0")),
                            parse_basis(_flag(argv, "--basis1")),
                            int(_flag(argv, "--m0")), int(_flag(argv, "--m1")),
                            float(_flag(argv, "--delta0")), float(_flag(argv, "--delta1")))


def _angle(problem: TwoBasisSampling) -> tuple[float, float]:
    """cos w and sin w of the outcome-1 axes of the two bases."""
    u0, u1 = bloch_vector(problem.basis0[1]), bloch_vector(problem.basis1[1])
    return float(u0 @ u1), float(np.linalg.norm(np.cross(u0, u1)))


def _close(got, want, where: str, tol: float = 1e-12) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            _close(got[key], want[key], f"{where}.{key}", tol)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _close(g, w, f"{where}[{i}]", tol)
    elif isinstance(want, bool) or want is None:
        assert got is want, where
    else:
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        digit = 10.0 ** (math.floor(math.log10(abs(want))) - 11) if want else 0.0
        # the relative slack absorbs the binary spelling of a decimal step
        assert abs(got - want) <= max(tol, digit) * (1.0 + 1e-9), (where, got, want)


def _assert_certified(point: dict, r_nats: float, problem: TwoBasisSampling) -> None:
    """The printed point reproduces the counts, and the solver's point
    attains the printed exponent within its primal-dual gap."""
    q, p, k = np.array(point["q"]), np.array(point["p"]), point["k_frac"]
    assert 0.0 <= k <= 0.5
    assert abs(np.linalg.norm(point["bloch_n"]) - 1.0) <= 1e-9
    implied = (1.0 - 2.0 * k) * p + k * (q.sum(axis=(1, 3)) + q.sum(axis=(0, 2)))
    assert np.max(np.abs(implied - problem.count_fractions())) <= CERT_TOL
    sol = min_exponent(problem)
    assert sol.residual <= CERT_TOL and sol.gap <= GAP_TOL
    assert abs(sol.r_primal - r_nats) <= GAP_TOL


@pytest.mark.parametrize("case", cases(), ids=lambda case: " ".join(case["argv"][1:]))
def test_output_matches_fixture(case):
    code, stdout = run(case["argv"])
    assert code == case["code"]
    if code != 0:
        assert stdout == case["stdout"]
        return
    got, want = json.loads(stdout), json.loads(case["stdout"])
    problem = _problem(case["argv"])
    cos_w, sin_w = _angle(problem)
    point, want_point = got.pop("point"), want.pop("point")
    if abs(abs(cos_w) - 1.0) < 1e-12:
        _assert_certified(point, got["r_nats"], problem)
    else:
        _close(point, want_point, "point", max(1e-12, 1e-15 / sin_w))
    _close(got, want, "out")


@pytest.mark.parametrize("case", cases(), ids=lambda case: " ".join(case["argv"][1:]))
def test_decomposed_form_matches_direct_at_the_solver_point(case):
    # the solver's points hold what random points do not: counts at 0 or m,
    # k_frac = 0 (no pairs) and collinear bases, so every zero branch of the
    # regrouped form runs
    problem = _problem(case["argv"])
    point = min_exponent(problem).point
    assert exponent_decomposed(point, problem) == pytest.approx(
        exponent_direct(point, problem), rel=0.0, abs=1e-12)


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
