"""The slacked ceiling's gate: a committed corpus of draws with their stored
results, and the consistency of the sector problem's constraint rows.

slacked_corpus.json holds every pinned slacked draw of test_security.py,
the stress draws (stress_slacked.py) that ended open, stuck, slow or short,
or that the oracle sampled, and the 96 benchmark-shaped calls
(benchmark_shaped(11, 96), stored as tallies), each with finite_size_bound's
stored r_ph_bar, x_star and open-cell flag and finite_size_oracle's value.
A change that moves a row regenerates the file with

    PYTHONPATH=src python tests/stress_slacked.py --regenerate tests/slacked_corpus.json

which prints every row that moved; name those rows in CHANGES.md.
"""

import functools
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from b92sim import _sectors
from b92sim.protocol import ProtocolParams, run_protocol1
from b92sim.quantum import depolarizing_channel
from b92sim.security import ObservedRates, SlackVector, delta_param, phase_error_bound
from oracles import _pinned_finite_size
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


def check_states(sec, z) -> dict:
    """Each check's end of its mass y = x -+ eps6 and whether y clips below 0
    or above 1 at z = (x, p0, p1), read as constraints() reads them: the end
    x + eps6 where the sector-1 window, held at the check's clip, is the
    lower."""
    x, p0, p1 = z
    out = {}
    for name, a, b in zip("LU", sec._windows(p0), sec._windows(p1)):
        y = x + sec.e6 if b < a else x - sec.e6
        out[name] = (b < a, y < 0.0, y > 1.0)
    return out


@pytest.mark.parametrize("family", ["mixed", "one-zero-band"])
def test_constraint_rows_match_their_differences(family):
    # each row's gradient in (x, p0, p1) against central differences, and
    # its second derivatives, the listed ones and the vanishing others,
    # against differences of the gradient; a check's rows are skipped at a
    # point whose +-h steps change the check's end or clip state
    # (check_states), its only kinks.  A third of the points lie within eps6
    # of x = 0 or 1, where the check's mass clips (2h clear of the kink).  No
    # two rows of one check are one row in value and gradient, which the
    # working set's name-only clash rule relies on
    rng, h = np.random.default_rng(7), 1e-6
    steps = [np.array(v) * h for v in np.eye(3)]
    checked = skipped = 0
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
            state = check_states(sec, z)
            kinked = {check for e in steps for w in (z + e, z - e)
                      for check, s in check_states(sec, w).items() if s != state[check]}
            for key, (g, gx, g0, g1, hx0, hx1, h00, h11) in at.items():
                if key[0] in kinked:
                    skipped += 1
                    continue
                fwd = np.array([(up[key][0] - g) / h for up in ups])
                bwd = np.array([(g - down[key][0]) / h for down in downs])
                assert np.abs(0.5 * (fwd + bwd) - (gx, g0, g1)).max() <= 1e-8, (key, z)
                hess = np.array([[0.0, hx0, hx1], [hx0, h00, 0.0], [hx1, 0.0, h11]])
                diff = np.array([[(up[key][1 + i] - down[key][1 + i]) / (2 * h) for i in range(3)]
                                 for up, down in zip(ups, downs)])
                assert np.abs(diff - hess).max() <= 1e-6, (key, z)
                checked += 1
    print(f"{checked} rows differenced, {skipped} skipped at a kink")
    assert checked >= 5000


# the first grid's edges on each axis, k/_N0 of the square as numpy.linspace cuts it
EDGES = 0.5 * math.pi * np.linspace(0.0, 1.0, _sectors._N0 + 1)


def cell_bound(sec, lo0, hi0, lo1, hi1):
    """Sectors.cell on one cell, its windows uncached."""
    return sec.cell(lo0, hi0, lo1, hi1, sec._windows)


@pytest.mark.parametrize("family", ["mixed", "one-zero-band"])
def test_grid_node_values_match_the_scalar_objective(family):
    # a node value, a zero-width cell's bound at tolerance ROUND, at the
    # first grid's nodes is value() there, infeasible at the same nodes;
    # value() alone widens each bound on x by x_top's rounding allowance, so
    # they agree to 1e-13 absolute (1.5e-14 at worst over 250 000 nodes), up
    # to 5e-13 relative where x is small
    nodes = feasible = 0
    for sec in problems(family, 32, 40):
        for i, p0 in enumerate(EDGES.tolist()):
            for j, p1 in enumerate(EDGES.tolist()):
                want, got = sec.value(p0, p1), cell_bound(sec, p0, p0, p1, p1)[1]
                assert (got == want == -math.inf) or abs(got - want) <= 1e-13, (i, j)
                nodes, feasible = nodes + 1, feasible + (got > -math.inf)
    assert nodes == 40 * 25 * 25 and feasible >= 20


def boxes(rng, count: int):
    """The first grid's cells and ``count`` random boxes as (a0, b0, a1, b1):
    squares of width 2^-k of a first-grid cell (k = 1-12), half of them
    centred on a line where a band's slope k vanishes (p0 = p1 for s, p0 +
    p1 = pi/2 for f), so that it crosses them."""
    i, j = np.divmod(np.arange(_sectors._N0 ** 2), _sectors._N0)
    edges = [EDGES[i], EDGES[i + 1], EDGES[j], EDGES[j + 1]]
    width = 0.5 * math.pi / _sectors._N0 * 2.0 ** -rng.integers(1, 13, count)
    p0 = rng.uniform(width, 0.5 * math.pi - width)
    p1 = np.where(rng.random(count) < 0.5, rng.uniform(width, 0.5 * math.pi - width),
                  np.where(rng.random(count) < 0.5, p0, 0.5 * math.pi - p0))
    p1 = p1 + rng.uniform(-0.25, 0.25, count) * width
    extra = [p0 - 0.5 * width, p0 + 0.5 * width, p1 - 0.5 * width, p1 + 0.5 * width]
    return [np.concatenate((e, x)) for e, x in zip(edges, extra)]


def grid(a0, b0, a1, b1, n: int):
    """The nodes of the boxes cut n x n, (m, n+1) on each axis."""
    t = np.linspace(0.0, 1.0, n + 1)
    return a0[:, None] + (b0 - a0)[:, None] * t, a1[:, None] + (b1 - a1)[:, None] * t


def band_ranges(sec, a0, b0, a1, b1, n: int):
    """Each band side's range (low, top) of x in [0, 1] at the nodes of the
    boxes cut n x n, (side, m, n+1, n+1), from its row in the row table
    (empty where low > top): _slopes on arrays, then the bounds on x that
    x_top reads, less its rounding allowance."""
    q0, q1 = grid(a0, b0, a1, b1, n)
    p0, p1 = q0[:, :, None], q1[:, None, :]
    slopes = np.cos(2.0 * p0), (-2.0 * np.sin(p0 + p1) * np.sin(p0 - p1),
                                2.0 * np.cos(p0 + p1) * np.cos(p0 - p1))
    num, den, _ = (np.stack(np.broadcast_arrays(*v)) for v in zip(*sec.rows((slopes,) * 4, (), ())))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = num / den
    up = np.where(num < np.minimum(den, 0.0) - _sectors.ROUND, -np.inf,
                  np.where(den > 0.0, ratio, np.inf))
    return np.maximum(np.where(den < 0.0, ratio, -np.inf), 0.0), np.minimum(up, 1.0)


@pytest.mark.parametrize("family", ["mixed", "one-zero-band"])
def test_each_band_side_binds_at_its_corner(family):
    # on the first grid's cells and on boxes down to 1/4096 of a cell, many
    # crossed by a slope's zero: each band side's range of x over a box, read
    # at the corner Sectors.cell picks, (p0, p1) = (lo, lo), (hi, hi), (lo,
    # hi), (hi, lo) for shi, slo, fhi, flo, against the hull of its ranges at
    # 9 x 9 points of the box (its edges included): the same to rounding.
    # The cell bound is then at most the objective's bound from the sampled
    # band ranges alone, and at least the objective at every sampled node
    # (node values, value() to 1e-13), on cells a slope's zero crosses too
    rng, sides = np.random.default_rng(9), 0
    corner = (0, 1, 0, 1), (0, 1, 1, 0)
    for sec in problems(family, 35, 16):
        a0, b0, a1, b1 = box = boxes(rng, 64)
        low, top = band_ranges(sec, *box, 1)
        corner_low, corner_top = (v[np.arange(4), :, corner[0], corner[1]] for v in (low, top))
        low, top = band_ranges(sec, *box, 8)
        held = low <= top
        hull_low = np.where(held, low, np.inf).min(axis=(2, 3))
        hull_top = np.where(held, top, -np.inf).max(axis=(2, 3))
        held = held.any(axis=(2, 3))
        # a range that closes to rounding may read either way
        assert ((corner_low <= corner_top) == held)[np.abs(corner_low - corner_top) > 1e-12].all()
        both = held & (corner_low <= corner_top)
        assert np.abs(corner_low[both] - hull_low[both]).max() <= 1e-12
        assert np.abs(corner_top[both] - hull_top[both]).max() <= 1e-12
        sides += int(both.sum())
        bound = np.array([cell_bound(sec, *cell)[0] for cell in zip(*(e.tolist() for e in box))])
        # a node value is at most the objective at its band rows' top, and
        # -inf where they alone leave no x; the other nodes are evaluated
        q0, q1 = grid(*box, 8)
        node_top = np.minimum(top.min(axis=0), 1.0) * (1.0 - sec.gap * np.cos(2.0 * q1))[:, None, :]
        m, i, j = np.nonzero((low.max(axis=0) <= top.min(axis=0) + 1e-12)
                             & (node_top > bound[:, None, None]))
        nodes = np.full(low.shape[1:], -np.inf)
        nodes[m, i, j] = [cell_bound(sec, p0, p0, p1, p1)[1]
                          for p0, p1 in zip(q0[m, i].tolist(), q1[m, j].tolist())]
        top_p1 = 1.0 - sec.gap * np.cos(2.0 * b1)
        x_low = np.maximum(np.where(held, hull_low, np.inf).max(axis=0), 0.0)
        x_top = np.minimum(np.where(held, hull_top, -np.inf).min(axis=0), 1.0)
        loose = np.where(x_low <= x_top + 1e-12, (x_top + 1e-12) * top_p1, -np.inf)
        assert (bound <= loose).all()
        assert (bound >= nodes.max(axis=(1, 2)) - 1e-13).all()
    assert sides >= 20000


def cell_bounds(sec, cells) -> list[tuple[float, float]]:
    """The objective's bounds on each cell (lo0, hi0, lo1, hi1), to within 0
    and to within ROUND."""
    return [cell_bound(sec, *cell) for cell in cells]


def within(kid, parent) -> bool:
    """Whether both of a cell's bounds are at most its parent's."""
    return kid[0] <= parent[0] and kid[1] <= parent[1]


def split(cell):
    """A cell's four children, its edges cut at a + (b - a) {0, 1/2, 1}."""
    e0, e1 = ([a + (b - a) * t for t in (0.0, 0.5, 1.0)] for a, b in (cell[:2], cell[2:]))
    return [(e0[i], e0[i + 1], e1[j], e1[j + 1]) for i in (0, 1) for j in (0, 1)]


def nodes_within(sec, cells, e0, e1, n: int) -> int:
    """Assert that the value of each node of an n x n cut, edges e0 x e1, is
    at most the bound to within ROUND of each of its cells (``cells``, in
    grid order) it is a corner of; the number of such pairs."""
    pairs = 0
    for i in range(n + 1):
        for j in range(n + 1):
            value = cell_bound(sec, e0[i], e0[i], e1[j], e1[j])[1]
            for u in (i - 1, i):
                for v in (j - 1, j):
                    if 0 <= u < n and 0 <= v < n:
                        assert value <= cells[u * n + v][1], (e0[i], e1[j])
                        pairs += 1
    return pairs


@pytest.mark.parametrize("family", ["benchmark", "mixed", "one-zero-band"])
def test_a_coarse_cell_bounds_its_children(family):
    # a cell's bounds, to within 0 and to within ROUND, are at least each of
    # its four children's, exactly: on the 3 x 3 cut of the square and its
    # halvings to 6 x 6 and 12 x 12 cells, as Sectors.interior cuts them, and
    # down chains of 2 x 2 splits from first-grid cells to 2^-13 of one.  So
    # the cells that a search from the 3 x 3 cut reaches, halving each cell
    # whose bound to within ROUND beats the best point, are all those whose
    # bound does.  A node's
    # value is at most that bound of each cell it is a corner of, on the first
    # grid and on each split, so a node that beats the best is a corner of a
    # cell that the search reaches
    if family == "benchmark":
        secs = [_sectors.Sectors(alpha, n_err / n, delta_param(n_fil / n, alpha), eps.as_tuple())
                for n_err, n_fil, n, alpha, eps in benchmark_shaped(19, 30)]
    else:
        secs = list(problems(family, 37, 60))
    edge = EDGES.tolist()
    rng, splits, finite, pairs = np.random.default_rng(23), 0, 0, 0
    t = [0.5 * math.pi * (k / 3.0) for k in range(3)] + [0.5 * math.pi]
    for sec in (s for s in secs if not (s.equal["s"] and s.equal["f"])):
        cells = [(t[i], t[i + 1], t[j], t[j + 1]) for i in range(3) for j in range(3)]
        while len(cells) < _sectors._N0 ** 2:
            children = [kid for cell in cells for kid in split(cell)]
            parents, kids = cell_bounds(sec, cells), cell_bounds(sec, children)
            for c, parent in enumerate(parents):
                assert all(within(kid, parent) for kid in kids[4 * c:4 * c + 4]), cells[c]
            splits += len(parents)
            finite += sum(kid[0] > -math.inf for kid in kids)
            cells = children
        # chains from up to 8 first-grid cells with a finite bound, each step
        # to a random child with one, while there is one
        grid = [(edge[i], edge[i + 1], edge[j], edge[j + 1])
                for i in range(_sectors._N0) for j in range(_sectors._N0)]
        grid_bounds = cell_bounds(sec, grid)
        pairs += nodes_within(sec, grid_bounds, edge, edge, _sectors._N0)
        live = [c for c, b in zip(grid, grid_bounds) if b[0] > -math.inf]
        chains = [live[k] for k in rng.choice(len(live), min(8, len(live)), replace=False)]
        for _ in range(13):
            if not chains:
                break
            parents = cell_bounds(sec, chains)
            children = [kid for cell in chains for kid in split(cell)]
            kids = cell_bounds(sec, children)
            nxt = []
            for c, parent in enumerate(parents):
                assert all(within(kid, parent) for kid in kids[4 * c:4 * c + 4]), chains[c]
                e0, e1 = ([a + (b - a) * t for t in (0.0, 0.5, 1.0)]
                          for a, b in (chains[c][:2], chains[c][2:]))
                pairs += nodes_within(sec, kids[4 * c:4 * c + 4], e0, e1, 2)
                live = [children[k] for k in range(4 * c, 4 * c + 4) if kids[k][0] > -math.inf]
                if live:
                    nxt.append(live[int(rng.integers(len(live)))])
            splits += len(parents)
            finite += sum(kid[0] > -math.inf for kid in kids)
            chains = nxt
    print(f"{splits} splits, {finite} children with a finite bound, {pairs} node-cell pairs")
    assert splits >= 7000 and finite >= 6000 and pairs >= 100000


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


def convex_draws(seed: int, count: int):
    """Stress draws (the mixed family) with eps3 and eps6 set to 0: the
    problem is then convex in (x, a, d), and r_ph_bar is (x + gap d)/2."""
    for tallies, alpha, eps in draws("mixed", seed, count):
        yield tallies, alpha, eps[:2] + (0.0,) + eps[3:5] + (0.0,) + eps[6:]


def ceiling(tallies, alpha, eps):
    """r_ph_bar (None if infeasible) and whether the call ended open."""
    res, _, seen = watched(tuple(tallies), alpha, tuple(eps))
    return (res.r_ph_bar if res.feasible else None), seen["open"]


def concavity_breaks(triples) -> tuple[int, list]:
    """The feasible (lo, mid, hi) triples and those whose midpoint falls below
    the ends' mean by more than 1e-12 relative plus the rounding allowance."""
    feasible, breaks = 0, []
    for alpha, ends in triples:
        values = [ceiling(tallies, alpha, eps) for tallies, eps in ends]
        if any(v is None for v, _ in values):
            continue
        feasible += 1
        (lo, _), (mid, _), (hi, _) = values
        if 0.5 * (lo + hi) - mid > 1e-12 * max(lo, mid, hi) + 1e-14:
            breaks.append((ends, [is_open for _, is_open in values]))
    return feasible, breaks


def test_ceiling_is_concave_at_zero_eps6():
    # at eps6 = 0 the problem is convex, and eps2, eps4, eps5 shift its
    # right-hand sides and the tallies its limits and filter band, so the
    # ceiling is concave along any nonnegative slack direction and any tally
    # direction; a midpoint may fall short only where an end over-reports
    # from open cells, and each such break is printed and counted
    rng, triples = np.random.default_rng(13), []
    for tallies, alpha, eps in convex_draws(300, 240):
        step = rng.uniform(0.0, 1.0, 3) * 10 ** rng.uniform(-5, -2)
        ends = [list(eps) for _ in range(3)]
        for t, end in enumerate(ends):
            for j, u in zip((1, 3, 4), step):
                end[j] += t * u
        triples.append((alpha, [(tallies, end) for end in ends]))
    for (n_err, n_fil, n), alpha, eps in convex_draws(400, 240):
        de, df = (int(rng.integers(-c // 20 - 2, c // 20 + 3)) for c in (n_err, n_fil))
        ends = [(n_err + t * de, n_fil + t * df, n) for t in (-1, 0, 1)]
        if all(0 <= a <= n and 0 <= b <= n for a, b, _ in ends):
            triples.append((alpha, [(end, eps) for end in ends]))
    feasible, breaks = concavity_breaks(triples)
    for ends, flags in breaks:
        print(f"concavity break, ends open {flags}: {ends}")
    print(f"{len(breaks)} concavity breaks in {feasible} feasible triples")
    assert feasible >= 350
    assert all(flags[0] or flags[2] for _, flags in breaks)


def test_pinned_ceiling_is_the_closed_form():
    # with eps2 = eps4 = eps6 = 0 both bands pin the skews, and where the
    # lower windows are unclipped at the optimum (sin^2(p - theta) >= eps7 in
    # both sectors) and the widened error weight 2 r = 2 (r_err + eps5 +
    # eps7/2) stays within r_fil, the L check is phase_error_bound's
    # constraint at r: the ceiling lies between that bound at r and at r +
    # 1e-14, which covers the limits' FEAS_TOL, each to 1e-12 relative
    compared = 0
    for tallies, alpha, eps in list(convex_draws(302, 200)) + list(convex_draws(303, 200)):
        eps = (eps[0], 0.0, 0.0, 0.0, eps[4], 0.0, eps[6], eps[7])
        (n_err, n_fil, n), e5, e7 = tallies, eps[4], eps[6]
        r = n_err / n + e5 + 0.5 * e7
        res, _, seen = watched(tallies, alpha, eps)
        if not res.feasible or n_fil / n < 2.0 * r:
            continue
        sec = _sectors.Sectors(alpha, n_err / n, delta_param(n_fil / n, alpha), eps)
        x = res.x_star
        if not 0.0 < x < 1.0 or min(math.sin(p - sec.theta) ** 2 for p in sec.angles(x)) < e7:
            continue
        lo, hi = (phase_error_bound(ObservedRates(r_err=r + dr, r_fil=n_fil / n, alpha=alpha))
                  for dr in (0.0, 1e-14))
        assert not seen["open"] and lo.feasible
        assert lo.r_ph_bar <= res.r_ph_bar * (1.0 + 1e-12), (tallies, alpha, eps)
        assert res.r_ph_bar <= hi.r_ph_bar * (1.0 + 1e-12), (tallies, alpha, eps)
        compared += 1
    assert compared >= 250


def wave(m: float, shift: float, offset: float):
    """m sin^2(p + shift) + offset as (A, B, C) of A + B cos 2p + C sin 2p."""
    return np.array([0.5 * m + offset, -0.5 * m * math.cos(2.0 * shift),
                     0.5 * m * math.sin(2.0 * shift)])


def lagrangian_top(sec, names, multipliers) -> float:
    """The largest x (1 - gap cos 2p1) - sum mu g over x in [0, 1], the angle
    square and each check's mass y at either end of clip(x -+ eps6), the rows
    g named as in Sectors.constraints with the multipliers mu; a band side's
    negative multiplier (a zero-width band) moves to its other side, and the
    bounds on x and the angles drop out, as the domain.  At fixed x and ends
    every row is (1 - y) F(p0) + y G(p1), y = x for a band, with F and G of
    the form A + B cos 2p + C sin 2p, and so is the objective, so the largest
    value over the angles is that of the F part plus that of the G part, each
    in closed form; y is linear in x between the clips, so the largest value
    over x lies at 0, eps6, 1 - eps6 or 1.  For mu >= 0 it bounds the ceiling
    x + gap d from above."""
    one, cos = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    # s = a + d = -(1 - x) cos 2p0 - x cos 2p1 and f = a - d, as (F, G) pairs
    (slo, shi), (flo, fhi) = sec.bands
    rows = {"shi": (-shi * one - cos, -shi * one - cos), "slo": (slo * one + cos, slo * one + cos),
            "fhi": (-fhi * one - cos, -fhi * one + cos), "flo": (flo * one + cos, flo * one - cos)}
    other = {"shi": "slo", "slo": "shi", "fhi": "flo", "flo": "fhi"}
    # each check's window (lower sin^2(p - theta) - eps7, upper negated),
    # its clip, and its limit; 00 mixes the windows, 01 and 10 hold one
    windows = {"L": (wave(1.0, -sec.theta, -sec.e7), 0.0, sec.lims[0]),
               "U": (wave(-1.0, sec.theta, -sec.e8), -1.0, sec.lims[1])}
    terms = []
    for name, mu in zip(names, multipliers):
        if name in rows and mu < 0.0:
            name, mu = other[name], -mu
        if name in rows:
            terms.append((None, max(mu, 0.0), *rows[name]))
        elif name[0] in windows:
            w, clip, lim = windows[name[0]]
            terms.append((name[0], max(mu, 0.0),
                          *((w if held == "0" else clip * one) - lim * one for held in name[1:])))

    def top(A, B, C):
        # over 2p in [0, pi]: the ends, and the crest at atan2(C, B) if C >= 0
        return max(A + B, A - B, A + math.hypot(B, C) if C >= 0.0 else -math.inf)

    best = -math.inf
    for x in {min(max(x, 0.0), 1.0) for x in (0.0, sec.e6, 1.0 - sec.e6, 1.0)}:
        for ends in itertools.product((-sec.e6, sec.e6), repeat=2):
            F, G = np.zeros(3), x * (one - sec.gap * cos)
            for check, mu, g0, g1 in terms:
                y = x if check is None else min(max(x + ends[check == "U"], 0.0), 1.0)
                F, G = F - mu * (1.0 - y) * g0, G - mu * y * g1
            best = max(best, top(*F) + top(*G))
    return best


def test_lagrangian_at_the_solver_multipliers_bounds_the_ceiling():
    # at eps6 = 0, with the multipliers of each converged working set, the
    # Lagrangian's largest value over the domain bounds the ceiling from
    # above; at a convex program's KKT point it equals the ceiling, so it
    # checks the solver without an oracle (ROADMAP item 5's eps6 = 0 half).
    # It lies at most 5e-14 under the ceiling (x_top's rounding allowance;
    # 1.5e-14 at worst on 2228 such stress draws) and 1e-8 relative over it
    # (the multipliers solve a least-squares system; 5.8e-9 at worst), and
    # within 1e-12 relative on nine draws in ten (98 % of the 2228)
    compared = close = 0
    for tallies, alpha, eps in convex_draws(500, 600):
        if eps[1] == eps[3] == 0.0:
            continue
        res, _, seen = watched(tallies, alpha, eps)
        if not res.feasible or seen["open"] or not seen["kkt"]:
            continue
        (n_err, n_fil, n) = tallies
        sec = _sectors.Sectors(alpha, n_err / n, delta_param(n_fil / n, alpha), eps)
        value = 2.0 * res.r_ph_bar
        top = min(lagrangian_top(sec, names, mu) for names, mu in seen["kkt"])
        assert value - 5e-14 <= top <= value * (1.0 + 1e-8), (tallies, alpha, eps)
        compared += 1
        close += top <= value * (1.0 + 1e-12)
    assert compared >= 250 and close >= 0.9 * compared


def test_lagrangian_bounds_the_ceiling_at_positive_eps6():
    # on the benchmark-shaped calls, every eps6 > 0, the Lagrangian at each
    # converged working set's multipliers, each check's mass at either end,
    # still bounds the ceiling from above, to x_top's rounding allowance; it
    # overshoots by a median of 2.3e-2 relative, as fixed multipliers cannot
    # follow the check's end around the optimum (ROADMAP item 2)
    compared = 0
    for n_err, n_fil, n, alpha, eps in benchmark_shaped(11, 96):
        res, _, seen = watched((n_err, n_fil, n), alpha, eps.as_tuple())
        sec = _sectors.Sectors(alpha, n_err / n, delta_param(n_fil / n, alpha), eps.as_tuple())
        value = 2.0 * (res.r_ph_bar - eps.eps3)
        for names, mu in seen["kkt"]:
            assert lagrangian_top(sec, names, mu) >= value - 5e-14, (n_err, n_fil, n, alpha, eps)
            compared += 1
    assert compared >= 96


def test_pinned_top_reaches_the_pinned_oracle():
    # where both bands pin the skews, the ceiling against the x scan of
    # oracles._pinned_finite_size, which shares no code with _sectors, on each
    # pinned one-zero-band draw with no zero-slack point (so the golden-section
    # start search runs) and on every 20th other: infeasible where the oracle
    # finds no point, else witnessed and within [oracle - 1e-12, oracle +
    # 1e-9] relative.  The oracle's predicate admits 1e-14 in each check's
    # units, so where the shortfall rises slowly in x it reaches past the
    # solver (2 draws here, by 3.5e-12 and 3.9e-12 relative); there the
    # oracle's x must fail the solver's shortfall by no more than that
    # allowance
    searched = found = compared = 0
    for i, ((n_err, n_fil, n), alpha, eps) in enumerate(draws("one-zero-band", 34, 1500)):
        if eps[1] != 0.0 or eps[3] != 0.0 or not any(eps[4:]):
            continue
        zero_slack = n_err / n <= 0.5 and phase_error_bound(
            ObservedRates(r_err=n_err / n, r_fil=n_fil / n, alpha=alpha)).feasible
        if zero_slack and i % 20:
            continue
        want = _pinned_finite_size(n_err, n_fil, n, alpha, eps)
        res, _, _ = watched((n_err, n_fil, n), alpha, eps)
        searched += not zero_slack
        assert res.feasible == (want is not None), (n_err, n_fil, n, alpha, eps)
        if want is None:
            continue
        found += not zero_slack
        compared += 1
        assert witnessed(n_err, n_fil, n, alpha, eps, res), (n_err, n_fil, n, alpha, eps)
        assert res.r_ph_bar <= want * (1.0 + 1e-9), (n_err, n_fil, n, alpha, eps)
        if res.r_ph_bar < want * (1.0 - 1e-12):
            sec = _sectors.Sectors(alpha, n_err / n, delta_param(n_fil / n, alpha), eps)
            x = 2.0 * (want - eps[2]) - sec.gap * sec.skews[1]
            assert 0.0 < sec.shortfall(x) <= 1e-14, (n_err, n_fil, n, alpha, eps)
    print(f"{compared} pinned draws against the oracle, {searched} with no zero-slack "
          f"point, {found} of them feasible")
    assert searched >= 5 and found >= 5 and compared >= 30


def test_pinned_shortfall_is_convex_and_its_feasible_x_one_interval():
    # the pinned search is exact because at eps6 = 0 each check is a
    # perspective and the shortfall convex in x: a midpoint check on random
    # x pairs, to 1e-12 relative plus 1e-15.  At eps6 > 0 the check's mass
    # sits at x -+ eps6 and convexity is not assured; on those pinned draws a
    # 2001-point scan must find the feasible x in one run of points, or none
    rng, pairs, scanned, split = np.random.default_rng(17), 0, 0, []
    for tallies, alpha, eps in draws("one-zero-band", 36, 300):
        if eps[1] != 0.0 or eps[3] != 0.0:
            continue
        n_err, n_fil, n = tallies
        sec = _sectors.Sectors(alpha, n_err / n, delta_param(n_fil / n, alpha), eps)
        lo, hi = abs(sec.skews[1]), 1.0 - abs(sec.skews[0])
        if lo >= hi:
            continue
        if eps[5] > 0.0:
            ok = [sec.shortfall(float(x)) <= 0.0 for x in np.linspace(lo, hi, 2001)]
            scanned += 1
            if ok[0] + sum(b and not a for a, b in zip(ok, ok[1:])) > 1:
                split.append((tallies, alpha, eps))
            continue
        for x0, x1 in rng.uniform(lo, hi, (20, 2)):
            g0, g1, mid = sec.shortfall(x0), sec.shortfall(x1), sec.shortfall(0.5 * (x0 + x1))
            assert mid <= 0.5 * (g0 + g1) + 1e-12 * max(abs(g0), abs(g1)) + 1e-15, (x0, x1)
            pairs += 1
    print(f"{pairs} midpoint pairs at eps6 = 0; {len(split)} of {scanned} pinned draws at "
          f"eps6 > 0 have a feasible x set that splits: {split}")
    assert pairs >= 1000 and scanned >= 50 and not split
