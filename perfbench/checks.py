"""Output checks for every benchmark op, run outside the timed region.

``check(op, rec)`` returns a list of problems; an empty list means the op's
output is correct.  References are independent of the code under test
where the repository has them: the hand-derived depolarizing rates and the
dense grid scan of ``tests/oracles.py``, the classical closed form of the
exponent for collinear bases, and the exact i.i.d. probability computed here
from binomials.  The finite-size checks compare against the package's own
asymptotic bound, as acceptance criterion 11 does.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path
from statistics import NormalDist

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
from oracles import depolarizing_rates, grid_scan_phase_bound  # noqa: E402

from workloads import bloch_axis, bloch_fit_radius  # noqa: E402

CSV_HEADER = "alpha_sq,overlap,p,r_fil,r_err,r_ph_bar,r_ph_actual,r_bit_actual,G"
RATE_FIELDS = CSV_HEADER.split(",")
RATE_TOL = 1e-9
GRID_POINTS = 200_000
X_TOL = 1e-6
THRESHOLD = (0.032, 0.036)
EXPONENT_KEYS = {"r_nats", "r_bits", "zero_region_member", "converged", "point"}
# Monte Carlo tallies are held to 4 sigma each, widened (Bonferroni) so that
# the chance of any false alarm among all cells a run checks stays below
# FALSE_ALARM; with 4 sigma per cell a run of ~1000 cells would flag a
# correct program in several percent of runs.
FALSE_ALARM = 1e-6
MIN_SIGMA = 4.0


class CheckError(Exception):
    pass


def _reject_constant(name):
    raise CheckError(f"non-finite JSON token {name}")


def strict_json(text: str):
    """Parse under RFC 8259: NaN and Infinity tokens are errors."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"invalid JSON: {exc}") from exc


def strict_csv(text: str, header: str) -> list[dict]:
    """Rows of a CSV document with LF endings and finite numeric fields."""
    if "\r" in text or not text.endswith("\n"):
        raise CheckError("CSV must use LF line endings and end with a newline")
    lines = text[:-1].split("\n")
    if lines[0] != header:
        raise CheckError(f"CSV header {lines[0]!r} != {header!r}")
    names = header.split(",")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(names):
            raise CheckError(f"CSV row has {len(fields)} fields")
        values = [float(f) for f in fields]
        if not all(math.isfinite(v) for v in values):
            raise CheckError(f"non-finite CSV value in {line!r}")
        rows.append(dict(zip(names, values)))
    return rows


def parse_rows(text: str, fmt: str, header: str = CSV_HEADER) -> list[dict]:
    """Rows of a CSV or JSON report; a JSON object is one row."""
    if fmt == "csv":
        return strict_csv(text, header)
    out = strict_json(text)
    return out if isinstance(out, list) else [out]


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _key_rate(r_fil, r_err, r_ph_bar) -> float:
    if r_fil <= 0.0 or r_ph_bar / r_fil > 0.5:
        return 0.0
    g = r_fil * (1.0 - binary_entropy(min(r_err / r_fil, 1.0))
                 - binary_entropy(min(r_ph_bar / r_fil, 1.0)))
    return max(g, 0.0)


def _close(a, b, tol, what, problems):
    if not abs(a - b) <= tol:
        problems.append(f"{what}: {a!r} vs reference {b!r} (tol {tol:g})")


def _echo(a, b, what, problems):
    """An input echoed back with 12 significant digits."""
    _close(a, b, 1e-11 * abs(b) + 1e-300, what, problems)


# --------------------------------------------------------------------------
# analytic-sweep
# --------------------------------------------------------------------------


def _phase_interval(p: float, a2: float):
    """Bracket [lo, hi] of the exact phase-error ceiling from the grid scan,
    or None when the grid finds no feasible point."""
    r = depolarizing_rates(a2, p)
    alpha = math.sqrt(a2)
    x = grid_scan_phase_bound(min(max(r["r_err"], 0.0), 0.5), r["r_fil"], alpha,
                              points=GRID_POINTS)
    if x is None:
        return r, None
    gap = 1.0 - 2.0 * a2
    delta = (r["r_fil"] - 2.0 * a2 * (1.0 - a2)) / gap
    step = 1.0 / (GRID_POINTS - 1)
    lo = max(0.5 * (x - X_TOL + gap * delta), 0.0)
    hi = max(0.5 * (x + step + X_TOL + gap * delta), 0.0)
    return r, (lo, hi)


def check_rate_row(row: dict, p: float, a2: float, problems: list) -> None:
    r, interval = _phase_interval(p, a2)
    _echo(row["p"], p, "p", problems)
    _echo(row["alpha_sq"], a2, "alpha_sq", problems)
    _close(row["overlap"], (1.0 - 2.0 * a2) ** 2, 1e-11, "overlap", problems)
    for field, key in (("r_fil", "r_fil"), ("r_err", "r_err"),
                       ("r_ph_actual", "r_ph"), ("r_bit_actual", "r_bit")):
        _close(row[field], r[key], RATE_TOL, field, problems)
    rph = row["r_ph_bar"]
    if interval is None or rph is None:
        problems.append(f"phase bound feasibility: output {rph!r}, grid scan {interval!r}")
        return
    if not interval[0] <= rph <= interval[1]:
        problems.append(f"r_ph_bar {rph!r} outside grid-scan bracket {interval!r}")
    _close(row["G"], _key_rate(row["r_fil"], max(row["r_err"], 0.0), rph), 1e-9,
           "G from the reported rates", problems)


def _threshold(g: float, p: float, problems: list) -> None:
    """The optimized key rate is positive below the security threshold
    (p ~ 0.034) and zero above it."""
    if p <= THRESHOLD[0] and not g > 0.0:
        problems.append(f"optimized G = {g!r} at p = {p!r} below the threshold")
    if p >= THRESHOLD[1] and g != 0.0:
        problems.append(f"optimized G = {g!r} at p = {p!r} beyond the threshold")


def check_rate(op, rec, problems):
    a = op.argv
    rows = parse_rows(rec["stdout"], _flag(a, "--format", "csv"))
    if len(rows) != 1 or set(rows[0]) != set(RATE_FIELDS):
        problems.append(f"rate report {rows}")
        return
    check_rate_row(rows[0], float(_flag(a, "--p")), float(_flag(a, "--alpha-sq")), problems)


def check_optimize(op, rec, problems):
    a = op.argv
    header = "alpha_sq_star,overlap_star,G_star"
    rows = parse_rows(rec["stdout"], _flag(a, "--format", "csv"), header)
    if len(rows) != 1 or set(rows[0]) != set(header.split(",")):
        problems.append(f"optimize report {rows}")
        return
    out = rows[0]
    p, a2, g = float(_flag(a, "--p")), out["alpha_sq_star"], out["G_star"]
    if not 0.01 <= a2 <= 0.49:
        problems.append(f"alpha_sq_star {a2!r} outside [0.01, 0.49]")
        return
    _close(out["overlap_star"], (1.0 - 2.0 * a2) ** 2, 1e-11, "overlap_star", problems)
    _threshold(g, p, problems)
    r, interval = _phase_interval(p, a2)
    if interval is None:
        problems.append("grid scan finds no feasible phase bound at the optimum")
        return
    g_lo = _key_rate(r["r_fil"], r["r_err"], interval[1])
    g_hi = _key_rate(r["r_fil"], r["r_err"], interval[0])
    if not g_lo - 1e-9 <= g <= g_hi + 1e-9:
        problems.append(f"G_star {g!r} outside oracle bracket [{g_lo!r}, {g_hi!r}]")


def check_sweep(op, rec, problems):
    a = op.argv
    rows = parse_rows(rec["stdout"], _flag(a, "--format", "csv"))
    ps = np.linspace(float(_flag(a, "--p-min")), float(_flag(a, "--p-max")),
                     int(_flag(a, "--p-steps")))
    if len(rows) != len(ps):
        problems.append(f"sweep has {len(rows)} rows, expected {len(ps)}")
        return
    for row, p in zip(rows, ps):
        if set(row) != set(RATE_FIELDS):
            problems.append(f"sweep fields {sorted(row)}")
            return
        if not 0.01 <= row["alpha_sq"] <= 0.49:
            problems.append(f"sweep alpha_sq {row['alpha_sq']!r} outside [0.01, 0.49]")
            continue
        check_rate_row(row, float(p), row["alpha_sq"], problems)
        _threshold(row["G"], float(p), problems)


# --------------------------------------------------------------------------
# finite-size-sim
# --------------------------------------------------------------------------


CELLS_PER_SIMULATE = 12
CELLS_PER_B92 = 6


def sigma_for(ops) -> float:
    """z-score threshold for the Monte Carlo cells of one run's ops."""
    cells = sum(CELLS_PER_SIMULATE if op.kind == "simulate" else
                CELLS_PER_B92 if op.kind == "run_b92" else 0 for op in ops)
    tail = FALSE_ALARM / max(cells, 1) / 2.0
    return max(MIN_SIGMA, NormalDist().inv_cdf(1.0 - tail))


def _binomial_ok(count, n, prob, z, what, problems):
    prob = min(max(prob, 0.0), 1.0)
    sigma = math.sqrt(n * prob * (1.0 - prob))
    if abs(count - n * prob) > z * sigma + 1e-9:
        problems.append(f"{what} = {count} vs expected {n * prob:.6g} "
                        f"(> {z:.2f} sigma = {sigma:.4g})")


def check_simulate(op, rec, problems, z):
    from b92sim.security import ObservedRates, finite_size_bound, phase_error_bound

    a = op.argv
    out = strict_json(rec["stdout"])
    p, a2 = float(_flag(a, "--p")), float(_flag(a, "--alpha-sq"))
    n, seed = int(_flag(a, "--n")), int(_flag(a, "--seed"))
    eps = [float(_flag(a, f"--eps{k}", "0")) for k in range(1, 9)]
    prm = out["params"]
    if (prm["n_pairs"], prm["seed"]) != (n, seed):
        problems.append(f"params echo {prm}")
    _echo(prm["p"], p, "params.p", problems)
    _echo(prm["alpha_sq"], a2, "params.alpha_sq", problems)
    for got, want in zip(prm["eps"], eps):
        _echo(got, want, "params.eps", problems)

    t = out["tallies"]
    r = depolarizing_rates(a2, p)
    _binomial_ok(t["n_err"], n, r["r_err"], z, "n_err", problems)
    _binomial_ok(t["n_fil"], n, r["r_fil"], z, "n_fil", problems)
    _binomial_ok(t["n_bit"], t["n_fil"], r["r_bit"] / r["r_fil"], z, "n_bit", problems)
    _binomial_ok(t["n_ph"], t["n_fil"], r["r_ph"] / r["r_fil"], z, "n_ph", problems)
    for name, probs in (("n_xx", r["r_xx"]), ("m_check", r["s_check"])):
        cells = np.asarray(t[name])
        if cells.shape != (2, 2) or int(cells.sum()) != n:
            problems.append(f"{name} {t[name]} is not a 2x2 matrix summing to n")
            continue
        for (i, j), c in np.ndenumerate(cells):
            _binomial_ok(int(c), n, float(probs[i, j]), z, f"{name}[{i}][{j}]", problems)

    alpha = math.sqrt(a2)
    b = out["bound"]
    if not any(eps):
        ref = phase_error_bound(ObservedRates(r_err=t["n_err"] / n, r_fil=t["n_fil"] / n,
                                              alpha=alpha))
        if b["feasible"] != ref.feasible:
            problems.append(f"zero-slack feasibility {b['feasible']} vs asymptotic "
                            f"{ref.feasible}")
        elif ref.feasible:
            _close(b["r_ph_bar"], ref.r_ph_bar, 1e-6, "zero-slack r_ph_bar", problems)
    elif (zero := finite_size_bound(t["n_err"], t["n_fil"], n, alpha)).feasible:
        if not b["feasible"]:
            problems.append("slacked bound infeasible where the zero-slack one is feasible")
        elif b["r_ph_bar"] < zero.r_ph_bar - 1e-7:
            problems.append(f"slacked ceiling {b['r_ph_bar']!r} below zero-slack "
                            f"{zero.r_ph_bar!r}")

    key = 0.0
    if b["feasible"] and t["n_fil"] > 0:
        n_ph_bar = b["r_ph_bar"] * n
        n_bit_bar = min(t["n_err"] + eps[0] * n, float(t["n_fil"]))
        if n_ph_bar / t["n_fil"] <= 0.5:
            key = max(t["n_fil"] * (1.0 - binary_entropy(n_bit_bar / t["n_fil"])
                                    - binary_entropy(min(n_ph_bar / t["n_fil"], 1.0))), 0.0)
    _close(out["key_length"], key, 1e-6 * max(t["n_fil"], 1), "key_length", problems)
    e1, e2, e3, e4, e5, e6 = eps[:6]
    budget = (math.exp(-n * e1 * e1) + math.exp(-2 * n * e2 * e2) + math.exp(-2 * n * e3 * e3)
              + math.exp(-2 * n * e4 * e4) + math.exp(-2 * n * e5 * e5) + math.exp(-n * e6 * e6))
    _close(out["failure_budget"], budget, 1e-9 * max(budget, 1e-300), "failure_budget",
           problems)


def check_run_b92(op, rec, problems, z):
    c = op.call
    s = rec["summary"]
    n = c["n"]
    if s["len"] != [n, n] or not (s["alice_ok"] and s["bob_ok"]):
        problems.append(f"run_b92 record shape/values {s}")
        return
    r = depolarizing_rates(c["alpha_sq"], c["p"])
    # per sent bit: conclusive-and-right, conclusive-and-wrong, null
    cond = {0: (r["r_fil"] - r["r_err"], r["r_err"], 1.0 - r["r_fil"]),
            1: (r["r_err"], r["r_fil"] - r["r_err"], 1.0 - r["r_fil"])}
    for j in (0, 1):
        for b in range(3):
            _binomial_ok(s["joint"][3 * j + b], n, 0.5 * cond[j][b], z,
                         f"joint[{j}][{b}]", problems)


# --------------------------------------------------------------------------
# exponent-queries
# --------------------------------------------------------------------------


def _kl(p: float, q: float) -> float:
    out = 0.0
    for a, b in ((p, q), (1.0 - p, 1.0 - q)):
        if a > 0.0:
            out += math.inf if b <= 0.0 else a * math.log(a / b)
    return out


def collinear_exponent(m0, m1, d0, d1, antipodal: bool) -> float:
    """w0 D(d0||d) + w1 D(d1||d), d = w0 d0 + w1 d1 (nats): sampling without
    replacement from one classical population, for collinear bases."""
    if antipodal:
        d1 = 1.0 - d1
    w0, w1 = m0 / (m0 + m1), m1 / (m0 + m1)
    dbar = w0 * d0 + w1 * d1
    return w0 * _kl(d0, dbar) + w1 * _kl(d1, dbar)


def _iid_probability(s0, s1, m0, m1, k0, k1) -> float:
    """Exact probability of k_b ones among m_b i.i.d. outcomes with
    one-probabilities s_b."""
    return math.prod(math.comb(m, k) * s ** k * (1.0 - s) ** (m - k)
                     for s, m, k in ((s0, m0, k0), (s1, m1, k1)))


def _parse_angles(spec: str):
    theta, phi = (float(v) for v in spec.split(","))
    return theta, phi


def check_exponent(op, rec, problems):
    a = op.argv
    out = strict_json(rec["stdout"])
    if set(out) != EXPONENT_KEYS:
        problems.append(f"exponent keys {sorted(out)}")
        return
    m0, m1 = int(_flag(a, "--m0")), int(_flag(a, "--m1"))
    d0, d1 = float(_flag(a, "--delta0")), float(_flag(a, "--delta1"))
    k0, k1 = round(m0 * d0), round(m1 * d1)
    b0, b1 = _parse_angles(_flag(a, "--basis0")), _parse_angles(_flag(a, "--basis1"))
    u0, u1 = bloch_axis(*b0), bloch_axis(*b1)
    r = out["r_nats"]
    if not (isinstance(r, (int, float)) and r >= 0.0):
        problems.append(f"r_nats {r!r} is not a nonnegative number")
        return
    _close(out["r_bits"], r / math.log(2.0), 1e-9 * max(1.0, r), "r_bits", problems)

    pt = out["point"]
    q, pr = np.asarray(pt["q"], dtype=float), np.asarray(pt["p"], dtype=float)
    k = pt["k_frac"]
    if q.shape != (2, 2, 2, 2) or pr.shape != (2, 2) or not 0.0 <= k <= 0.5:
        problems.append("point has the wrong shape")
        return
    _close(float(np.linalg.norm(pt["bloch_n"])), 1.0, 1e-9, "|bloch_n|", problems)
    w0, w1 = m0 / (m0 + m1), m1 / (m0 + m1)
    observed = np.array([[w0 * (1 - d0), w0 * d0], [w1 * (1 - d1), w1 * d1]])
    implied = (1.0 - 2.0 * k) * pr + k * q.sum(axis=(1, 3)) + k * q.sum(axis=(0, 2))
    residual = float(np.max(np.abs(implied - observed)))
    if residual > 1e-8:
        problems.append(f"point misses the observed counts by {residual:.3e}")

    cos_w = sum(x * y for x, y in zip(u0, u1))
    collinear = abs(abs(cos_w) - 1.0) < 1e-12
    if collinear:
        antipodal = cos_w < 0.0
        member = abs(d0 - (1.0 - d1 if antipodal else d1)) < 1e-12
        closed = collinear_exponent(m0, m1, d0, d1, antipodal)
        _close(r, closed, 1e-6, "collinear closed form", problems)
        c_bar = 2.0 * (w0 * d0 + w1 * (1.0 - d1 if antipodal else d1)) - 1.0
        fit = [c_bar * x for x in u0]
    else:
        radius = bloch_fit_radius(u0, u1, d0, d1)
        if abs(radius - 1.0) < 1e-6:
            member = out["zero_region_member"]
        else:
            member = radius < 1.0
        c0, c1 = 2.0 * d0 - 1.0, 2.0 * d1 - 1.0
        g = np.array([[1.0, cos_w], [cos_w, 1.0]])
        coef = np.linalg.solve(g, [c0, c1])
        fit = list(coef[0] * np.array(u0) + coef[1] * np.array(u1))
    if out["zero_region_member"] != member:
        problems.append(f"zero_region_member {out['zero_region_member']} vs {member}")
    if out["zero_region_member"] and r > 1e-6:
        problems.append(f"zero-region member with R = {r!r}")

    # i.i.d. domination (acceptance criterion 10) over the closest state and
    # a few random ones
    norm = math.sqrt(sum(x * x for x in fit))
    states = [[x / max(norm, 1.0) for x in fit]]
    rng = random.Random(op.call.get("check_seed", 0))
    for _ in range(4):
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        scale = rng.random() ** (1.0 / 3.0) / math.sqrt(sum(x * x for x in v))
        states.append([x * scale for x in v])
    m = m0 + m1
    bound = (m + 1) ** 8 * math.exp(-m * r) + 1e-300
    for bloch in states:
        s0 = 0.5 * (1.0 + sum(x * y for x, y in zip(bloch, u0)))
        s1 = 0.5 * (1.0 + sum(x * y for x, y in zip(bloch, u1)))
        if _iid_probability(s0, s1, m0, m1, k0, k1) > bound:
            problems.append(f"i.i.d. probability exceeds poly * exp(-M R) at {bloch}")
            break


# --------------------------------------------------------------------------


def check(op, rec, z: float = MIN_SIGMA) -> list[str]:
    """Problems with one op's result; an op that did not complete is a
    problem of its own."""
    if rec["status"] != "ok":
        tail = rec["stderr"].strip().splitlines()[-1:] or [""]
        return [f"{rec['status']} (rc {rec['rc']}): {tail[0]}"]
    problems: list[str] = []
    try:
        if op.kind == "rate":
            check_rate(op, rec, problems)
        elif op.kind == "optimize":
            check_optimize(op, rec, problems)
        elif op.kind == "sweep":
            check_sweep(op, rec, problems)
        elif op.kind == "simulate":
            check_simulate(op, rec, problems, z)
        elif op.kind == "run_b92":
            check_run_b92(op, rec, problems, z)
        elif op.kind == "exponent":
            check_exponent(op, rec, problems)
        else:
            problems.append(f"no checker for op kind {op.kind!r}")
    except (CheckError, KeyError, TypeError, ValueError) as exc:
        problems.append(f"unparseable output: {type(exc).__name__}: {exc}")
    return problems

