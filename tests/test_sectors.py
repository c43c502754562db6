"""The slacked ceiling's gate: a committed corpus of draws with their stored
results, and the consistency of the sector problem's constraint rows.

slacked_corpus.json holds every pinned slacked draw of test_security.py,
the stress draws (stress_slacked.py) that ended open, stuck, slow or short,
or that the oracle sampled, and the 96 benchmark-shaped calls
(benchmark_shaped(11, 96), stored as tallies), each with finite_size_bound's
stored r_ph_bar, x_star and open flag (an x-interval left open) and
finite_size_oracle's value.
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


@pytest.mark.parametrize("i", ROWS)
def test_corpus_row_reaches_the_oracle_and_is_witnessed(i):
    # at least the oracle, short only by its looser 1e-14 allowance, and the
    # reported point feasible unless the call over-reports an open interval
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


# a grid's edges on each axis, 24 steps across the angle square
EDGES = 0.5 * math.pi * np.linspace(0.0, 1.0, 25)


@pytest.mark.parametrize("family", ["mixed", "one-zero-band"])
def test_grid_node_values_match_the_scalar_objective(family):
    # value() at the grid's nodes and at the angles of each KKT point that
    # polish() reaches, read from the row table (x_top), against
    # constraints(), which computes each row afresh: where the point is
    # feasible, the largest row at x_top lies within 1e-14 of 0 (some row
    # binds, or x = 1 does; 1.1e-15 at worst); where it is -inf, some row
    # misses at x_top, at x = 0 and at x = 1.  Only bands bind at the grid's
    # 197 feasible nodes; a check binds at most KKT points
    nodes = feasible = polished = 0
    for (n_err, n_fil, n), alpha, eps in draws(family, 32, 40):
        sec = _sectors.Sectors(alpha, n_err / n, delta_param(n_fil / n, alpha), eps)
        kkt = [tuple(min(max(p, 0.0), 0.5 * math.pi) for p in z[1:])
               for _, _, z in watched((n_err, n_fil, n), alpha, eps)[2]["kkt"]]
        for p0, p1 in itertools.chain(itertools.product(EDGES.tolist(), repeat=2), kkt):
            top = sec.x_top(p0, p1)[0]
            worst = [max(g[0] for g in sec.constraints(x, p0, p1).values())
                     for x in (min(max(top, 0.0), 1.0), 0.0, 1.0)]
            value = sec.value(p0, p1)
            if value > -math.inf:
                assert value == top * (1.0 - sec.gap * math.cos(2.0 * p1)), (p0, p1)
                assert abs(worst[0]) <= 1e-14, (p0, p1)
                feasible += 1
            else:
                assert min(worst) > 0.0, (p0, p1)
            nodes += 1
        polished += len(kkt)
    assert nodes == 40 * 25 * 25 + polished and feasible >= 20 + polished // 2


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


def test_work_per_slacked_call_stays_low():
    # the work of a slacked call, which repeats exactly, per call over the
    # benchmark-shaped draws: polish()'s Newton searches and constraint
    # evaluations (2.47 and 11.08), and the x search's intervals, bound
    # evaluations and fixed-x solves (1.60, 52.3 and 0.52); no call ends
    # open.  With the search's time spread over these counts, bounds on them
    # guard its cost without timing anything; they leave room for a numpy
    # that rounds sin differently
    keys = ("searches", "constraints", "intervals", "bounds", "solves")
    work, calls = dict.fromkeys(keys, 0), list(benchmark_shaped(11, 96))
    for n_err, n_fil, n, alpha, eps in calls:
        res, _, seen = watched((n_err, n_fil, n), alpha, eps.as_tuple())
        assert res.feasible and not seen["open"]
        for key in keys:
            work[key] += seen[key]
    per_call = {key: value / len(calls) for key, value in work.items()}
    print(per_call)
    limits = {"searches": 2.6, "constraints": 11.6, "intervals": 1.8, "bounds": 56.0, "solves": 0.6}
    assert all(per_call[key] <= limit for key, limit in limits.items()), per_call


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
    # direction: no midpoint falls short (the polished point's multipliers
    # bound all of [0, 1] at once, so no end stays open)
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
    assert not breaks


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


def lagrangian_at(sec, names, multipliers, x, ends, objective=True) -> float:
    """The largest x (1 - gap cos 2p1) - sum mu g over the angle square at x,
    each check's mass y at clip(x + its end), ends = (L's, U's), the rows g
    named as in Sectors.constraints with the multipliers mu, and without the
    objective term if not ``objective``; a band side's negative multiplier (a
    zero-width band) moves to its other side, and the bounds on x and the
    angles drop out, as the domain.  At fixed x and ends every row is (1 - y)
    F(p0) + y G(p1), y = x for a band, with F and G of the form A + B cos 2p
    + C sin 2p, and so is the objective, so the largest value over the angles
    is that of the F part plus that of the G part, each in closed form."""
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
    F, G = np.zeros(3), x * (one - sec.gap * cos) if objective else np.zeros(3)
    for name, mu in zip(names, multipliers):
        if name in rows and mu < 0.0:
            name, mu = other[name], -mu
        if name in rows:
            y, (g0, g1) = x, rows[name]
        elif name[0] in windows:
            w, clip, lim = windows[name[0]]
            y = min(max(x + ends[name[0] == "U"], 0.0), 1.0)
            g0, g1 = ((w if held == "0" else clip * one) - lim * one for held in name[1:])
        else:
            continue
        F, G = F - max(mu, 0.0) * (1.0 - y) * g0, G - max(mu, 0.0) * y * g1

    def top(A, B, C):
        # over 2p in [0, pi]: the ends, and the crest at atan2(C, B) if C >= 0
        return max(A + B, A - B, A + math.hypot(B, C) if C >= 0.0 else -math.inf)

    return top(*F) + top(*G)


def lagrangian_top(sec, names, multipliers) -> float:
    """lagrangian_at's largest value over x in [0, 1] and each check's mass
    at either end of clip(x -+ eps6): y is linear in x between the clips, so
    the largest value over x lies at 0, eps6, 1 - eps6 or 1.  For mu >= 0 it
    bounds the ceiling x + gap d from above."""
    return max(lagrangian_at(sec, names, multipliers, x, ends)
               for x in {min(max(x, 0.0), 1.0) for x in (0.0, sec.e6, 1.0 - sec.e6, 1.0)}
               for ends in itertools.product((-sec.e6, sec.e6), repeat=2))


def optimum_ends(sec, z) -> tuple:
    """Each check's end of its mass at z = (x, p0, p1), as constraints() picks
    it: +eps6 where the sector-1 window, held at the check's clip, is the lower."""
    return tuple(sec.e6 if max(m * math.sin(z[2] + sh) ** 2 + off, h) < max(m * math.sin(z[1] + sh) ** 2 + off, h)
                 else -sec.e6 for m, sh, off, h, _ in sec.checks)


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
        top = min(lagrangian_top(sec, names, mu) for names, mu, _ in seen["kkt"])
        assert value - 5e-14 <= top <= value * (1.0 + 1e-8), (tallies, alpha, eps)
        compared += 1
        close += top <= value * (1.0 + 1e-12)
    assert compared >= 250 and close >= 0.9 * compared


def test_lagrangian_bounds_the_ceiling_at_positive_eps6():
    # on the benchmark-shaped calls, every eps6 > 0, the Lagrangian at each
    # converged working set's multipliers, each check's mass at either end,
    # still bounds the ceiling from above, to x_top's rounding allowance.
    # Over all of [0, 1] it overshoots by a median of 2.4e-2 relative, and as
    # much with each check's end fixed to the optimum's: the overshoot comes
    # from x far from x_star, which the search closes with multipliers of
    # their own
    compared = 0
    for n_err, n_fil, n, alpha, eps in benchmark_shaped(11, 96):
        res, _, seen = watched((n_err, n_fil, n), alpha, eps.as_tuple())
        sec = _sectors.Sectors(alpha, n_err / n, delta_param(n_fil / n, alpha), eps.as_tuple())
        value = 2.0 * (res.r_ph_bar - eps.eps3)
        for names, mu, _ in seen["kkt"]:
            assert lagrangian_top(sec, names, mu) >= value - 5e-14, (n_err, n_fil, n, alpha, eps)
            compared += 1
    assert compared >= 96


def test_lagrangian_closes_a_slab_around_the_optimum():
    # what the search relies on: the multipliers of the converged working set
    # at x_star, each check's mass at the optimum's end, bound the ceiling over
    # x_star +- 1e-6 (its ends and any clip point within) to 1e-12 relative on
    # 92 of the 96 benchmark-shaped calls (the others to 2.7e-11)
    tight = 0
    for n_err, n_fil, n, alpha, eps in benchmark_shaped(11, 96):
        res, _, seen = watched((n_err, n_fil, n), alpha, eps.as_tuple())
        sec = _sectors.Sectors(alpha, n_err / n, delta_param(n_fil / n, alpha), eps.as_tuple())
        value = 2.0 * (res.r_ph_bar - eps.eps3)
        if not seen["kkt"]:
            continue
        names, mu, z = min(seen["kkt"], key=lambda k: abs(k[2][0] - res.x_star))
        lo, hi = max(z[0] - 1e-6, 0.0), min(z[0] + 1e-6, 1.0)
        xs = [lo, hi] + [v for v in (sec.e6, 1.0 - sec.e6) if lo < v < hi]
        top = max(lagrangian_at(sec, names, mu, x, optimum_ends(sec, z)) for x in xs)
        assert top >= value - 5e-14, (n_err, n_fil, n, alpha, eps)
        tight += top <= value * (1.0 + 1e-12)
    assert tight >= 88


def test_in_package_lagrangian_matches_the_numpy_oracle():
    # Sectors.lagrangian, the search's bound, against lagrangian_at on seeded
    # x, check ends and nonnegative multipliers on random sets of rows: both
    # the bound and its objective-free part (a ray's), to 1e-13
    rng, compared = np.random.default_rng(29), 0
    for sec in problems("mixed", 38, 60):
        for _ in range(20):
            rows = rng.choice(len(_sectors.NAMES), int(rng.integers(1, 5)), replace=False)
            mu = {int(r): float(m) for r, m in zip(rows, rng.exponential(1.0, len(rows)))}
            x = float(rng.choice([rng.uniform(0.0, 1.0), 0.0, 1.0, sec.e6, 1.0 - sec.e6]))
            ends = tuple(float(v) for v in rng.choice([-sec.e6, sec.e6], 2))
            names, values = [_sectors.NAMES[r] for r in mu], list(mu.values())
            phi, psi = sec.lagrangian(x, ends, mu)
            assert abs(phi - lagrangian_at(sec, names, values, x, ends)) <= 1e-13, (x, ends, mu)
            assert abs(psi - lagrangian_at(sec, names, values, x, ends, False)) <= 1e-13, (x, ends, mu)
            compared += 1
    assert compared == 1200


@pytest.mark.parametrize("family", ["benchmark", "mixed", "one-zero-band"])
def test_an_interval_bound_covers_its_points(family):
    # what closing an x-interval by its ends relies on, for seeded
    # nonnegative multipliers on random sets of rows and seeded check ends:
    # on each piece of [0, 1] between the clips at eps6 and 1 - eps6, the
    # bound and its objective-free part at 7 inner points of an interval are
    # at most their larger value at its ends (convexity; 2.8e-16 over at
    # worst, relative to 1 + sum mu), and the bound at x_top, each check's
    # mass at its end there, is at least value() at every feasible grid node
    # (weak duality)
    if family == "benchmark":
        secs = [_sectors.Sectors(alpha, n_err / n, delta_param(n_fil / n, alpha), eps.as_tuple())
                for n_err, n_fil, n, alpha, eps in benchmark_shaped(19, 30)]
    else:
        secs = list(problems(family, 37, 60))
    rng, inner, nodes = np.random.default_rng(23), 0, 0
    for sec in secs:
        cuts = sorted({0.0, 1.0} | {v for v in (sec.e6, 1.0 - sec.e6) if 0.0 < v < 1.0})
        points = [(sec.value(p0, p1), sec.x_top(p0, p1)[0], p0, p1)
                  for p0 in EDGES.tolist() for p1 in EDGES.tolist()]
        points = [p for p in points if p[0] > -math.inf]
        for _ in range(8):
            rows = rng.choice(len(_sectors.NAMES), int(rng.integers(1, 5)), replace=False)
            mu = {int(r): float(m) for r, m in zip(rows, rng.exponential(1.0, len(rows)))}
            ends = tuple(float(v) for v in rng.choice([-sec.e6, sec.e6], 2))
            slack = 1e-15 * (1.0 + sum(mu.values()))
            for lo, hi in zip(cuts, cuts[1:]):
                a, b = sorted(rng.uniform(lo, hi, 2).tolist()) if rng.random() < 0.5 else (lo, hi)
                at_a, at_b = sec.lagrangian(a, ends, mu), sec.lagrangian(b, ends, mu)
                for x in np.linspace(a, b, 9)[1:-1].tolist():
                    for k, got in enumerate(sec.lagrangian(x, ends, mu)):
                        assert got <= max(at_a[k], at_b[k]) + slack, (x, ends, mu)
                    inner += 1
            for value, x, p0, p1 in points:
                phi = sec.lagrangian(x, optimum_ends(sec, (x, p0, p1)), mu)[0]
                assert phi >= value - slack, (p0, p1, ends, mu)
                nodes += 1
    print(f"{inner} inner points, {nodes} node bounds")
    assert inner >= 5000 and nodes >= 700


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
