"""The slacked ceiling's gate: a committed corpus of draws with their stored
results, and the consistency of the sector problem's constraint rows.

slacked_corpus.json holds every pinned slacked draw of test_security.py and
the stress draws (stress_slacked.py) that ended open, stuck, slow or short,
or that the oracle sampled, each with finite_size_bound's stored r_ph_bar,
x_star and open-cell flag and finite_size_oracle's value.  A change that
moves a row regenerates the file with

    PYTHONPATH=src python tests/stress_slacked.py --regenerate tests/slacked_corpus.json

which prints every row that moved; name those rows in CHANGES.md.
"""

import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from b92sim import _sectors
from b92sim.protocol import ProtocolParams, run_protocol1
from b92sim.quantum import depolarizing_channel
from b92sim.security import SlackVector, delta_param
from stress_slacked import draws, watched
from test_security import witnessed

CORPUS = json.loads(Path(__file__).with_name("slacked_corpus.json").read_text())
# the rows known to fall short of the oracle: two with a higher maximum
# inside the zone around a KKT point that the cell refinement leaves to that
# point, and a sliver no node or polish reaches, its cells open, reported
# infeasible
SHORT = {"exclusion-zone under-report (ROADMAP item 2)": "ROADMAP item 2",
         "stress mixed seed 100 draw 2582: short": "ROADMAP item 2",
         "stress mixed seed 101 draw 5657: open, slow, short": "ROADMAP item 2, no point found"}


@functools.lru_cache(maxsize=None)
def result(i: int):
    row = CORPUS[i]
    res, _, seen = watched(tuple(row["tallies"]), row["alpha"], tuple(row["eps"]))
    return res, seen["open"]


def close(value, stored) -> bool:
    return abs(value - stored) <= 1e-15 * abs(stored)


ROWS = [pytest.param(i, id=row["source"]) for i, row in enumerate(CORPUS)]


@pytest.mark.parametrize("i", ROWS)
def test_corpus_row_matches_stored_result(i):
    row = CORPUS[i]
    res, is_open = result(i)
    assert is_open == row["open"]
    assert res.feasible == (row["r_ph_bar"] is not None)
    if res.feasible:
        assert close(res.r_ph_bar, row["r_ph_bar"]) and close(res.x_star, row["x_star"])


@pytest.mark.parametrize("i", [
    pytest.param(i, id=row["source"],
                 marks=[pytest.mark.xfail(strict=True, reason=SHORT[row["source"]])]
                 if row["source"] in SHORT else []) for i, row in enumerate(CORPUS)])
def test_corpus_row_reaches_the_oracle_and_is_witnessed(i):
    # at least the oracle, short only by its looser 1e-14 allowance, and the
    # reported point feasible unless the call over-reports an open cell
    row = CORPUS[i]
    res, is_open = result(i)
    if row["oracle"] is not None:
        assert res.feasible and res.r_ph_bar >= row["oracle"] - 1e-11
    if res.feasible and not is_open:
        assert witnessed(*row["tallies"], row["alpha"], row["eps"], res)


def problems(family: str, seed: int, count: int):
    """A Sectors problem for each stress draw."""
    for (n_err, n_fil, n), alpha, eps in draws(family, seed, count):
        yield _sectors.Sectors(alpha, n_err / n, delta_param(n_fil / n, alpha), eps)


@pytest.mark.parametrize("family", ["mixed", "one-zero-band"])
def test_constraint_rows_match_their_differences(family):
    # each row's gradient in (x, p0, p1) against central differences, and
    # its second derivatives, the listed ones and the vanishing others,
    # against differences of the gradient; a point within h of a kink,
    # where the one-sided differences part, is skipped.  A third of the
    # points lie within eps6 of x = 0 or 1, where the check's mass clips (2h
    # clear of the kink).  No two rows of one check are one row in value and
    # gradient, which the working set's name-only clash rule relies on
    rng, h = np.random.default_rng(7), 1e-6
    steps = [np.array(v) * h for v in np.eye(3)]
    checked = 0
    for sec in problems(family, 31, 40):
        for n in range(12):
            x = rng.uniform(2 * h, 1 - 2 * h)
            if n % 3 == 0 and sec.e6 > 4 * h:
                x = rng.uniform(2 * h, sec.e6 - 2 * h)
                x = x if rng.random() < 0.5 else 1.0 - x
            z = np.array([x, *rng.uniform(2 * h, 0.5 * math.pi - 2 * h, 2)])
            at = sec.constraints(*z)
            for check in "LU":
                rows = [g[:4] for key, g in at.items() if key[0] == check]
                assert len(set(rows)) == len(rows), (check, z)
            ups = [sec.constraints(*(z + e)) for e in steps]
            downs = [sec.constraints(*(z - e)) for e in steps]
            for key, (g, gx, g0, g1, hx0, hx1, h00, h11) in at.items():
                fwd = np.array([(up[key][0] - g) / h for up in ups])
                bwd = np.array([(g - down[key][0]) / h for down in downs])
                if np.abs(fwd - bwd).max() > 1e-3:
                    continue
                assert np.abs(0.5 * (fwd + bwd) - (gx, g0, g1)).max() <= 1e-8, (key, z)
                hess = np.array([[0.0, hx0, hx1], [hx0, h00, 0.0], [hx1, 0.0, h11]])
                diff = np.array([[(up[key][1 + i] - down[key][1 + i]) / (2 * h) for i in range(3)]
                                 for up, down in zip(ups, downs)])
                assert np.abs(diff - hess).max() <= 1e-6, (key, z)
                checked += 1
    assert checked >= 5000


@pytest.mark.parametrize("family", ["mixed", "one-zero-band"])
def test_grid_node_values_match_the_scalar_objective(family):
    # the array path's objective at the first grid's nodes is value() there,
    # infeasible at the same nodes; value() alone widens each bound on x by
    # x_top's rounding allowance, so they agree to 1e-13 absolute (1.5e-14
    # at worst over 250 000 nodes), up to 5e-13 relative where x is small
    nodes = feasible = 0
    for sec in problems(family, 32, 40):
        q0, q1, _, val = sec.bounds(None, None, None, None, _sectors._N0)
        for i, p0 in enumerate(q0[0]):
            for j, p1 in enumerate(q1[0]):
                want, got = sec.value(float(p0), float(p1)), float(val[0, i, j])
                assert (got == want == -math.inf) or abs(got - want) <= 1e-13, (i, j)
                nodes, feasible = nodes + 1, feasible + (got > -math.inf)
    assert nodes == 40 * 25 * 25 and feasible >= 20


def benchmark_shaped(seed: int, count: int):
    """Slacked calls shaped like the benchmark's: p in [0, 0.05], alpha^2 in
    [0.05, 0.45], n on the odd rungs of 10^(4 + k/4), every slack in
    [1e-4, 1e-2], tallies from run_protocol1."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(round(10 ** (4.25 + 0.5 * (i % 6))))
        p, alpha = rng.uniform(0.0, 0.05), math.sqrt(rng.uniform(0.05, 0.45))
        eps = SlackVector(*rng.uniform(1e-4, 1e-2, 8).tolist())
        run = run_protocol1(ProtocolParams(alpha, n, depolarizing_channel(p),
                                           int(rng.integers(2**31))))
        yield run.n_err, run.n_fil, n, alpha, eps


def test_newton_work_per_slacked_call_stays_low():
    # Newton searches and constraint evaluations per call, which repeat
    # exactly: 2.52 and 11.2 on these draws, 3.15 and 13.4 when the start
    # search picked its seed rows by least squares and stopped at a check's
    # kink, 4.07 and 15.1 when it climbed onto the zero-slack vertex's rows
    # one at a time; the bounds leave room for a numpy that rounds sin
    # differently
    work = {"searches": 0, "constraints": 0}
    calls = list(benchmark_shaped(11, 96))
    for n_err, n_fil, n, alpha, eps in calls:
        res, _, seen = watched((n_err, n_fil, n), alpha, eps.as_tuple())
        assert res.feasible
        for key in work:
            work[key] += seen[key]
    assert work["searches"] / len(calls) <= 2.6
    assert work["constraints"] / len(calls) <= 11.6


def test_pinned_top_reaches_a_fine_scan():
    # where both bands pin the skews, pinned_top is never below the highest
    # of 2 000 001 evenly spaced x that pass the same predicate by more than
    # 1e-9 relative; the fine scan runs down from the top in chunks
    checked = 0
    with np.errstate(all="ignore"):
        for sec in problems("one-zero-band", 34, 80):
            lo, hi = abs(sec.skews[1]), 1.0 - abs(sec.skews[0])
            if not sec.pinned or lo > hi:
                continue
            x, chunk, best = np.linspace(lo, hi, 2_000_001), 200_000, None
            for end in range(x.size, 0, -chunk):
                ok = np.flatnonzero(sec.pinned_feasible(x[max(end - chunk, 0):end]))
                if ok.size:
                    best = float(x[max(end - chunk, 0) + ok[-1]])
                    break
            top = sec.pinned_top()
            if best is not None:
                assert top is not None and top >= best - 1e-9 * abs(best)
                checked += 1
    assert checked >= 20
