"""Independent closed-form and brute-force oracles used by the test suite.

Everything here is derived separately from the package code paths: the
depolarizing-channel rates come from expanding the channel in Pauli terms by
hand, the bound oracles are a plain dense grid scan and the textbook
closed form in 700-digit decimals, the finite-size oracle
evaluates the raw (x, a, d) constraints by dense scans and local solves,
the two-basis region oracle samples the Bloch ball directly, the singlet
pair reference is built one cell at a time, the collinear-basis exponent
is the classical sampling-without-replacement closed form, and the exponent
scan minimizes over a (k_frac, n) grid by dual Newton solves refined with
L-BFGS-B, with none of min_exponent's closed forms (it shares only
singlet_pair_probs and the Bloch-fit radius).  The attaining channel
maximizes r_ph over Kraus operators by SLSQP, with each rate a quadratic
form read off kron_expected_rates.  The optimum oracle alone
reuses package code: it checks the search over alpha^2, so it scans the
very key rate that the rate command reports.
"""

from __future__ import annotations

import decimal
import math
from typing import NamedTuple

import numpy as np
from scipy import optimize


def depolarizing_rates(alpha_sq: float, p: float) -> dict[str, object]:
    """Hand-derived rates for the source state sent through depolarizing noise.

    With a2 = alpha^2, b2 = 1 - a2:
      r_fil = 2 a2 b2 + (2p/3)(1 - 4 a2 b2)
      r_err = (p/3) [2 a2 b2 + (b2-a2)^2/2 + 1/2]   (the bracket is exactly 1)
      r_bit = r_err
      r_ph  = (2p/3)(a2^2 + b2^2)
    plus the X (x) X and check-basis outcome probabilities.
    """
    a2 = alpha_sq
    b2 = 1.0 - a2
    prod = 2.0 * a2 * b2
    gap_sq = (b2 - a2) ** 2
    r_fil = prod + (2.0 * p / 3.0) * (1.0 - 2.0 * prod)
    r_err = (p / 3.0) * (prod + gap_sq / 2.0 + 0.5)
    r_ph = (2.0 * p / 3.0) * (a2 * a2 + b2 * b2)
    r_xx = np.array(
        [
            [(1.0 - 2.0 * p / 3.0) * b2, (2.0 * p / 3.0) * b2],
            [(2.0 * p / 3.0) * a2, (1.0 - 2.0 * p / 3.0) * a2],
        ]
    )
    s_check = np.array(
        [
            [1.0 - p + (p / 3.0) * gap_sq, (p / 3.0) * (gap_sq + 1.0)],
            [(p / 3.0) * 2.0 * prod, (p / 3.0) * 2.0 * prod],
        ]
    )
    return {
        "r_fil": r_fil,
        "r_err": r_err,
        "r_bit": r_err,
        "r_ph": r_ph,
        "r_xx": r_xx,
        "s_check": s_check,
    }


def kron_expected_rates(alpha: float, kraus_ops) -> dict[str, object]:
    """Rates of any single-qubit channel on B, built the direct way.

    Every two-qubit operator is an explicit Kronecker product and every weight
    a trace against the full 4x4 post-channel or filtered state.
    """
    beta = math.sqrt(1.0 - alpha * alpha)
    eye = np.eye(2, dtype=complex)
    kz = [np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)]
    kx = [np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
          np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)]

    def xx(i, j):
        return np.kron(kx[i], kx[j])

    def weight(m, ket):
        return float(np.vdot(ket, m @ ket).real)

    psi = beta * xx(0, 0) + alpha * xx(1, 1)
    rho = sum(
        np.kron(eye, k) @ np.outer(psi, psi.conj()) @ np.kron(eye, k).conj().T
        for k in kraus_ops
    )
    filt = np.kron(eye, alpha * np.outer(kx[0], kx[0]) + beta * np.outer(kx[1], kx[1]))
    filtered = filt @ rho @ filt
    check = [
        beta * xx(0, 0) + alpha * xx(1, 1),
        beta * xx(0, 1) - alpha * xx(1, 0),
        alpha * xx(0, 1) + beta * xx(1, 0),
        alpha * xx(0, 0) - beta * xx(1, 1),
    ]
    anti = ((0, 1), (1, 0))
    return {
        "r_fil": float(np.trace(filtered).real),
        "r_err": 0.5 * (weight(rho, check[1]) + weight(rho, check[3])),
        "r_bit": sum(weight(filtered, np.kron(kz[i], kz[j])) for i, j in anti),
        "r_ph": sum(weight(filtered, xx(i, j)) for i, j in anti),
        "r_xx": np.array([[weight(rho, xx(i, j)) for j in (0, 1)] for i in (0, 1)]),
        "s_check": np.array([weight(rho, g) for g in check]).reshape(2, 2),
    }


def decimal_born_table(alpha: float, kraus, prec: int = 700) -> dict[str, np.ndarray]:
    """Every Born weight of the post-channel state, as a trace Tr[rho P] in
    ``prec``-digit decimal arithmetic.

    rho is the Z-basis density matrix sum_k (I x K) psi psi^dag (I x K)^dag
    of the exact binary alpha and Kraus entries, with beta = sqrt(1 - a^2)
    to ``prec`` digits, and the filtered state is (I x F) rho (I x F) with
    F's Z-basis entries (alpha +- beta)/2.  Returns, as floats:
      xx, check   rho against the X x X and check-basis projectors;
      zz_f, xx_f  the filtered state against the Z x Z and X x X ones;
      joint       the check pairs' law of (A's Z outcome, B's B92 outcome),
                  from rho and the B92 elements |d><d|/2 on the two dual
                  kets, null being the rest of the identity.
    The Z-basis entries of psi and F are O(1) and cancel down to weights as
    small as alpha^2 p, about 1e-315 at the smallest test points, so the
    default 700 digits leave over 300 good digits in each.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = prec
        dec = decimal.Decimal
        a = dec(float(alpha))
        b = (1 - a * a).sqrt()
        h = 1 / dec(2).sqrt()
        x_kets = ([h, h], [h, -h])
        xx_kets = [[u * v for u in x_kets[i] for v in x_kets[j]] for i in (0, 1) for j in (0, 1)]

        def mix(g, c, d, e):
            return [c * x + d * y for x, y in zip(xx_kets[g], xx_kets[e])]

        check_kets = [mix(0, b, a, 3), mix(1, b, -a, 2), mix(1, a, b, 2), mix(0, a, -b, 3)]
        psi = check_kets[0]
        # complex entries as (re, im) pairs of Decimals
        rho = [[(dec(0), dec(0))] * 4 for _ in range(4)]
        for k in kraus:
            kd = [[(dec(float(z.real)), dec(float(z.imag))) for z in row] for row in np.asarray(k)]
            v = [tuple(sum(kd[j][m][part] * psi[2 * i + m] for m in (0, 1)) for part in (0, 1))
                 for i in (0, 1) for j in (0, 1)]
            for r in range(4):
                for c in range(4):
                    re, im = rho[r][c]
                    rho[r][c] = (re + v[r][0] * v[c][0] + v[r][1] * v[c][1],
                                 im + v[r][1] * v[c][0] - v[r][0] * v[c][1])
        f = [[(a + b) / 2, (a - b) / 2], [(a - b) / 2, (a + b) / 2]]
        fb = [[f[r % 2][c % 2] if r // 2 == c // 2 else dec(0) for c in range(4)]
              for r in range(4)]
        rho_f = [[tuple(sum(fb[r][s] * rho[s][t][part] * fb[t][c]
                            for s in range(4) for t in range(4)) for part in (0, 1))
                  for c in range(4)] for r in range(4)]

        def weight(m, ket):
            # real kets: the imaginary parts of a Hermitian m cancel
            return float(sum(ket[r] * m[r][c][0] * ket[c] for r in range(4) for c in range(4)))

        def cells(m, kets):
            return np.array([weight(m, g) for g in kets]).reshape(2, 2)

        dual = ([(a + b) * h, (a - b) * h], [(a - b) * h, (a + b) * h])
        elements = [[[u * v / 2 for v in d] for u in d] for d in dual]
        elements.append([[int(r == c) - elements[0][r][c] - elements[1][r][c]
                          for c in (0, 1)] for r in (0, 1)])
        joint = np.array([[float(sum(rho[2 * j + m][2 * j + l][0] * e[l][m]
                                     for m in (0, 1) for l in (0, 1)))
                           for e in elements] for j in (0, 1)])
        return {
            "xx": cells(rho, xx_kets),
            "check": cells(rho, check_kets),
            "zz_f": np.array([[float(rho_f[2 * i + j][2 * i + j][0]) for j in (0, 1)]
                              for i in (0, 1)]),
            "xx_f": cells(rho_f, xx_kets),
            "joint": joint,
        }


def grid_scan_phase_bound(
    r_err: float, r_fil: float, alpha: float, points: int = 1_000_000,
    graze_tol: float = 1e-12,
) -> float | None:
    """Largest x on a dense grid satisfying the trade-off inequality.

    ``graze_tol`` admits boundary-grazing points (exact-equality cases
    otherwise lost to floating-point noise).  Returns None when no grid
    point is feasible.
    """
    a2 = alpha * alpha
    b2a2 = 1.0 - 2.0 * a2
    ab = alpha * math.sqrt(1.0 - a2)
    delta = (r_fil - 2.0 * a2 * (1.0 - a2)) / b2a2
    c = b2a2 - delta
    x_lo, x_hi = abs(delta), 1.0 - abs(c)
    if x_lo > x_hi:
        return None
    xs = np.linspace(x_lo, x_hi, points)
    f = np.sqrt(np.clip(xs**2 - delta**2, 0.0, None)) + np.sqrt(
        np.clip((1.0 - xs) ** 2 - c * c, 0.0, None)
    )
    ok = np.nonzero(ab * f >= abs(r_fil - 2.0 * r_err) - graze_tol)[0]
    if len(ok) == 0:
        return None
    return float(xs[ok[-1]])


def decimal_ceiling(p: float, alpha_sq: float, prec: int = 700) -> tuple[float, float]:
    """(r_ph_bar, G) of the rate command's depolarizing row, from the
    textbook formulas evaluated in ``prec``-digit decimal arithmetic.

    The rates are depolarizing_rates' closed forms at the exact binary
    values of p and alpha_sq; delta = (r_fil - 2 a2 b2)/(1 - 2 a2),
    c = 1 - 2 a2 - delta, and the ceiling is the rightmost x in
    [|delta|, 1 - |c|] where alpha beta [sqrt(x^2 - delta^2) +
    sqrt((1-x)^2 - c^2)] reaches |r_fil - 2 r_err|: the domain's right end,
    or else the larger root of the squared equation.  Its O(p) coefficients
    are differences of O(1) terms, so at p = 1e-300 some 400 of the 700
    digits survive, far more than double precision needs.  r_ph_bar is nan
    (and G 0) where no x qualifies.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = prec
        zero, one, two = decimal.Decimal(0), decimal.Decimal(1), decimal.Decimal(2)
        a2 = decimal.Decimal(alpha_sq)
        b2 = one - a2
        t = decimal.Decimal(p) / 3
        r_fil = 2 * a2 * b2 + 2 * t * (1 - 4 * a2 * b2)
        gap = 1 - 2 * a2
        delta = (r_fil - 2 * a2 * b2) / gap
        c = gap - delta
        x_lo, x_hi = abs(delta), 1 - abs(c)
        ab = (a2 * b2).sqrt()
        target = abs(r_fil - 2 * t)

        def curve(x):
            return (max(x * x - delta * delta, zero).sqrt()
                    + max((1 - x) ** 2 - c * c, zero).sqrt())

        x_star = None
        if x_lo <= x_hi and ab * curve(x_hi) >= target:
            x_star = x_hi
        elif x_lo <= x_hi and target < ab:
            tt = target / ab
            m = tt * tt - (1 + delta * delta - c * c)
            a = 1 - tt * tt
            disc = m * m - 4 * a * delta * delta
            if disc >= 0:
                roots = [(-m + s * tt * disc.sqrt()) / (2 * a) for s in (-1, 1)]
                # the inputs' exact decimals outrun prec, so the noiseless
                # tangency at x = 0 lands within 10^(-prec/2) of its place
                tol = decimal.Decimal(10) ** (-prec // 2)
                inside = [min(max(x, x_lo), x_hi) for x in roots
                          if x_lo - tol <= x <= x_hi + tol]
                x_star = max(inside) if inside else None
        if x_star is None:
            return math.nan, 0.0
        r_ph_bar = max((x_star + gap * delta) / 2, zero)
        # G needs no cancellation-proof digits: its logs run at 40
        ctx.prec = 40

        def entropy(q):
            if q == 0 or q == 1:
                return zero
            return -(q * q.ln() + (1 - q) * (1 - q).ln()) / two.ln()

        e_ph = r_ph_bar / r_fil
        g = zero if e_ph > one / 2 else max(r_fil * (1 - entropy(t / r_fil) - entropy(e_ph)), zero)
        return float(r_ph_bar), float(g)


def optimize_oracle(p: float, points: int) -> tuple[float, float]:
    """(alpha_sq, G) of the best point of a dense alpha^2 scan of [0.01, 0.49].

    After the scan of the whole range, each of three zooms rescans the two
    grid cells around the best point so far with ``points`` points.  G is
    cmd_rate's key rate, so rounding matches what the optimum search reports;
    the first point wins ties, so a zero rate everywhere gives (0.01, 0.0).
    With 101 points the last step is 4e-8, about the search's own resolution
    in alpha^2; finer steps would only sample G's ~1e-11 rounding noise (at
    p = 0 the rates' rounding leaves r_ph_bar ~ 1e-12, not 0).
    """
    from b92sim.cli import cmd_rate

    lo, hi = 0.01, 0.49
    best = (lo, 0.0)
    for _ in range(4):
        grid = np.linspace(lo, hi, points)
        for alpha_sq in map(float, grid):
            g = cmd_rate(p, alpha_sq).G
            if g > best[1]:
                best = (alpha_sq, g)
        if best[1] == 0.0:
            break
        step = grid[1] - grid[0]
        lo, hi = max(best[0] - step, 0.01), min(best[0] + step, 0.49)
    return best


def _finite_size_setup(n_err, n_fil, n_pairs, alpha, eps):
    a2 = alpha * alpha
    gap = 1.0 - 2.0 * a2
    delta = (n_fil / n_pairs - 2.0 * a2 * (1.0 - a2)) / gap
    _, e2, e3, e4, e5, e6, e7, e8 = eps
    return {
        "gap": gap, "delta": delta, "theta": math.asin(alpha), "ab": alpha * math.sqrt(1.0 - a2),
        "r_err": n_err / n_pairs, "e3": e3, "e5": e5, "e6": e6, "e7": e7, "e8": e8,
        "s": (2.0 * delta - gap - 2.0 * e2 / gap, 2.0 * delta - gap + 2.0 * e2 / gap),
        "f": (-gap - 2.0 * e4, -gap + 2.0 * e4),
    }


def finite_size_predicate(n_err, n_fil, n_pairs, alpha, eps, x, a, d, tol=1e-14):
    """The slack-relaxed estimation constraints at raw points (x, a, d).

    The data-side count matrix is (v00, v01, v10, v11) = ((1-x-a), (x+d),
    (x-d), (1-x+a))/2; s = a + d and f = a - d must lie in the filter-rate and
    sender-marginal bands; each sector's outcome ratio sets eps7/eps8-widened
    check windows, and a check-side anticorrelated mass y within eps6 of x
    must mix them to within eps5 of the observed error weight.  ``tol``
    widens every comparison.  Broadcasts over arrays.
    """
    c = _finite_size_setup(n_err, n_fil, n_pairs, alpha, eps)
    x, a, d = (np.asarray(v, dtype=float) for v in (x, a, d))
    s, f = a + d, a - d
    ok = (s >= c["s"][0] - tol) & (s <= c["s"][1] + tol)
    ok = ok & (f >= c["f"][0] - tol) & (f <= c["f"][1] + tol)
    v00, v01, v10, v11 = 0.5 * (1 - x - a), 0.5 * (x + d), 0.5 * (x - d), 0.5 * (1 - x + a)
    ok = ok & (v00 >= -tol) & (v01 >= -tol) & (v10 >= -tol) & (v11 >= -tol)
    windows = []
    for mass, top in ((v00 + v11, v11), (v01 + v10, v01)):
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.clip(np.where(mass > 1e-300, top / np.maximum(mass, 1e-300), 0.0), 0.0, 1.0)
        phi = np.arcsin(np.sqrt(ratio))
        lo = np.maximum(0.0, np.sin(phi - c["theta"]) ** 2 - c["e7"])
        hi = np.minimum(1.0, np.sin(phi + c["theta"]) ** 2 + c["e8"])
        empty = mass <= 1e-300
        windows.append((np.where(empty, 0.0, lo), np.where(empty, 1.0, hi)))
    (l0, u0), (l1, u1) = windows
    ys = [np.clip(x - c["e6"], 0.0, 1.0), np.clip(x + c["e6"], 0.0, 1.0)]
    low = np.minimum(*[(1 - y) * l0 + y * l1 for y in ys])
    high = np.maximum(*[(1 - y) * u0 + y * u1 for y in ys])
    w = 2.0 * c["r_err"]
    return ok & (low <= w + 2.0 * c["e5"] + tol) & (high >= w - 2.0 * c["e5"] - tol)


def _dense_finite_size(n_err, n_fil, n_pairs, alpha, eps, shape, chunk_bytes):
    """Best objective and point on an (x, s, f) grid, evaluated in x-chunks
    that keep the predicate's temporaries near ``chunk_bytes``."""
    c = _finite_size_setup(n_err, n_fil, n_pairs, alpha, eps)
    nx, ns, nf = shape
    s = np.linspace(*c["s"], ns)[:, None]
    f = np.linspace(*c["f"], nf)[None, :]
    d, a = 0.5 * (s - f), 0.5 * (s + f)
    xs = np.linspace(0.0, 1.0, nx)
    step = max(1, int(chunk_bytes // (40 * 8 * ns * nf)))
    best = (-math.inf, None)
    for i in range(0, nx, step):
        x = xs[i:i + step, None, None]
        ok = finite_size_predicate(n_err, n_fil, n_pairs, alpha, eps, x, a[None], d[None])
        obj = np.where(ok, 0.5 * (x + c["gap"] * d[None]) + c["e3"], -np.inf)
        k = int(np.argmax(obj))
        if obj.flat[k] > best[0]:
            j, r = divmod(k, ns * nf)
            best = (float(obj.flat[k]), (float(x.flat[j]), float(a.flat[r]), float(d.flat[r])))
    return best


def _slsqp_finite_size(n_err, n_fil, n_pairs, alpha, eps, start, signs):
    """Local maximum of the objective for one choice of the check-side
    masses y = x -+ eps6 (one for the lower check, one for the upper).

    The skews are written through the sector angles, a = -(1-x) cos(2 phi0)
    and d = -x cos(2 phi1), so count nonnegativity becomes the bounds
    phi in [0, pi/2] and every window edge sin^2(phi -+ theta) is smooth.
    The clipped windows max(0, q - eps7) and min(1, q + eps8) are split
    into one smooth constraint per subset of clipped sectors.  Returns the
    solution as (x, a, d).
    """
    c = _finite_size_setup(n_err, n_fil, n_pairs, alpha, eps)
    gap, theta, w = c["gap"], c["theta"], 2.0 * c["r_err"]

    def raw(v):
        x, p0, p1 = v
        return x, -(1.0 - x) * math.cos(2.0 * p0), -x * math.cos(2.0 * p1)

    def cons(v):
        x, a, d = raw(v)
        y_low = min(max(x + signs[0] * c["e6"], 0.0), 1.0)
        y_up = min(max(x + signs[1] * c["e6"], 0.0), 1.0)
        l0, l1 = (math.sin(p - theta) ** 2 - c["e7"] for p in v[1:])
        u0, u1 = (math.sin(p + theta) ** 2 + c["e8"] for p in v[1:])
        out = [a + d - c["s"][0], c["s"][1] - a - d, a - d - c["f"][0], c["f"][1] - a + d]
        for t0 in (0.0, 1.0):
            for t1 in (0.0, 1.0):
                out.append(w + 2 * c["e5"] - (1 - y_low) * t0 * l0 - y_low * t1 * l1)
                out.append((1 - y_up) * (1.0 if t0 else u0) + y_up * (1.0 if t1 else u1)
                           - (w - 2 * c["e5"]))
        return np.array(out)

    def angle(skew, mass):
        # an empty sector leaves its ratio free, as in _slacked_width: pi/4
        if mass == 0.0:
            return 0.25 * math.pi
        return 0.5 * math.acos(min(max(-skew / mass, -1.0), 1.0))

    x, a, d = start
    angles = [angle(a, 1.0 - x), angle(d, x)]
    res = optimize.minimize(lambda v: -(v[0] + gap * raw(v)[2]), [x] + angles, method="SLSQP",
                            bounds=[(1e-9, 1 - 1e-9), (0.0, 0.5 * math.pi), (0.0, 0.5 * math.pi)],
                            constraints=[{"type": "ineq", "fun": cons}],
                            options={"maxiter": 300, "ftol": 1e-15})
    return raw(res.x)


def _pinned_finite_size(n_err, n_fil, n_pairs, alpha, eps, points=1_000_001, chunk=50_000):
    """Best objective when eps2 = eps4 = 0 pin s and f, and so a and d.

    Only x is free and the objective rises with x, so the ceiling is the
    largest feasible x: a dense x scan from the top down, in chunks, then
    bisection of the grid step above the highest feasible grid point.
    Returns None when no grid point is feasible.
    """
    c = _finite_size_setup(n_err, n_fil, n_pairs, alpha, eps)
    a, d = 0.5 * (c["s"][0] + c["f"][0]), 0.5 * (c["s"][0] - c["f"][0])

    def feasible(x):
        return finite_size_predicate(n_err, n_fil, n_pairs, alpha, eps, x, a, d)

    xs = np.linspace(0.0, 1.0, points)
    for stop in range(points, 0, -chunk):
        ok = np.nonzero(feasible(xs[max(0, stop - chunk):stop]))[0]
        if ok.size:
            i = max(0, stop - chunk) + int(ok[-1])
            break
    else:
        return None
    lo, hi = xs[i], xs[min(i + 1, points - 1)]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
    return 0.5 * (lo + c["gap"] * d) + c["e3"]


def finite_size_oracle(n_err, n_fil, n_pairs, alpha, eps, *, dense_shape=None,
                       chunk_bytes=200e6):
    """Largest phase-error ceiling the oracle can certify, or None.

    With eps2 = eps4 = 0 the bands have zero width and pin (a, d); then the
    answer is the exact x scan of _pinned_finite_size.  Otherwise it is the
    larger of two searches over raw (x, a, d) points: a chunked dense scan of
    the (x, s, f) predicate when ``dense_shape`` is given, and the best of
    the four y-branch SLSQP solves, started at the zero-slack witness
    (grid_scan_phase_bound's x with d = delta, a = delta - gap) and at the
    dense scan's best point.  A solve is kept only if it satisfies the
    predicate to 1e-9, and is then pulled back along the segment from its
    start until it satisfies it at the predicate's own 1e-14, so every value
    returned belongs to a feasible point.
    """
    if eps[1] == 0.0 and eps[3] == 0.0:
        return _pinned_finite_size(n_err, n_fil, n_pairs, alpha, eps)
    c = _finite_size_setup(n_err, n_fil, n_pairs, alpha, eps)

    def feasible(point):
        return bool(finite_size_predicate(n_err, n_fil, n_pairs, alpha, eps, *point))

    best, starts = -math.inf, []
    if dense_shape is not None:
        best, point = _dense_finite_size(n_err, n_fil, n_pairs, alpha, eps, dense_shape,
                                         chunk_bytes)
        if point is not None:
            starts.append(point)
    x_zero = grid_scan_phase_bound(c["r_err"], n_fil / n_pairs, alpha, points=200_001)
    if x_zero is not None and feasible(p := (x_zero, c["delta"] - c["gap"], c["delta"])):
        starts.append(p)
    for start in map(np.array, starts):
        for signs in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
            end = np.array(_slsqp_finite_size(n_err, n_fil, n_pairs, alpha, eps, start, signs))
            if not finite_size_predicate(n_err, n_fil, n_pairs, alpha, eps, *end, tol=1e-9):
                continue
            if not feasible(end):
                # SLSQP may stop up to ~1e-9 outside: bisect back toward the start
                lo, hi = 0.0, 1.0
                for _ in range(50):
                    mid = 0.5 * (lo + hi)
                    lo, hi = (mid, hi) if feasible(start + mid * (end - start)) else (lo, mid)
                end = start + lo * (end - start)
            best = max(best, 0.5 * (end[0] + c["gap"] * end[2]) + c["e3"])
    return None if best == -math.inf else best


def _binary_divergence(p: float, q: float) -> float:
    """D(p || q) between Bernoulli laws, in nats."""
    out = 0.0
    for a, b in ((p, q), (1.0 - p, 1.0 - q)):
        if a > 0.0:
            out += math.inf if b <= 0.0 else a * math.log(a / b)
    return out


def collinear_exponent(m0: int, m1: int, d0: float, d1: float, antipodal: bool) -> float:
    """Two-basis exponent for collinear bases, in nats.

    Both bases then measure one observable (the second with its outcomes
    swapped when its axis is antipodal), so the problem is classical sampling
    without replacement from one population: w0 D(d0 || d) + w1 D(d1 || d)
    with d = w0 d0 + w1 d1 and w_b = m_b / (m0 + m1).
    """
    if antipodal:
        d1 = 1.0 - d1
    w0, w1 = m0 / (m0 + m1), m1 / (m0 + m1)
    d_bar = w0 * d0 + w1 * d1
    return w0 * _binary_divergence(d0, d_bar) + w1 * _binary_divergence(d1, d_bar)


def singlet_pair_probs_loop(kets: np.ndarray) -> np.ndarray:
    """Singlet pair reference beta[b, b', j, j'] from kets indexed [b, j],
    one cell at a time: |<singlet| u (x) v>|^2 / 4 over the four basis pairs,
    with the singlet amplitude (u0 v1 - u1 v0)* / sqrt 2."""
    out = np.empty((2, 2, 2, 2))
    for b in (0, 1):
        for bp in (0, 1):
            for j in (0, 1):
                for jp in (0, 1):
                    u = kets[b, j].conj()
                    v = kets[bp, jp].conj()
                    amp = (u[0] * v[1] - u[1] * v[0]) / math.sqrt(2.0)
                    out[b, bp, j, jp] = abs(amp) ** 2 / 4.0
    return out


def bloch_vector(ket: np.ndarray) -> np.ndarray:
    a0, a1 = complex(ket[0]), complex(ket[1])
    return np.array(
        [
            2.0 * (a0.conjugate() * a1).real,
            2.0 * (a0.conjugate() * a1).imag,
            abs(a0) ** 2 - abs(a1) ** 2,
        ]
    )


def brute_force_region_distance(
    u0: np.ndarray, u1: np.ndarray, delta0: float, delta1: float, rng: np.random.Generator,
    samples: int = 1_000_000,
) -> float:
    """Min over sampled Bloch-ball states of the worst outcome-mean mismatch."""
    v = rng.normal(size=(samples, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = v * rng.random(samples)[:, None] ** (1.0 / 3.0)
    d0 = 0.5 * (1.0 + r @ u0)
    d1 = 0.5 * (1.0 + r @ u1)
    return float(np.min(np.maximum(np.abs(d0 - delta0), np.abs(d1 - delta1))))


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random density matrix via a Ginibre factor."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m)


def random_channel(rng: np.random.Generator, k: int) -> tuple[np.ndarray, ...]:
    """Kraus operators of a random single-qubit channel with k of them: the
    isometry Q of the QR factorization of a complex Gaussian 2k x 2 matrix,
    cut into k 2 x 2 blocks, so that sum_i K_i^dag K_i = Q^dag Q = I."""
    g = rng.normal(size=(2 * k, 2)) + 1j * rng.normal(size=(2 * k, 2))
    q, _ = np.linalg.qr(g)
    return tuple(q[2 * i:2 * i + 2] for i in range(k))


def _rate_forms(alpha: float) -> dict[str, np.ndarray]:
    """Each rate of kron_expected_rates as a real quadratic form y^T R y.

    A rate is linear in the channel, so for one Kraus operator K it is a
    Hermitian form q(x) = x^dag Q x in x = vec(K); Q is read off q by
    polarization.  For four operators and y = (Re x, Im x) of their
    stacked entries, the form is blockdiag(Q, Q, Q, Q) written over reals.
    The entries of sum K^dag K are forms too: "c00", "c11", "c01re", "c01im".
    """
    def q(name, x):
        return kron_expected_rates(alpha, [x.reshape(2, 2)])[name]

    unit = np.eye(4, dtype=complex)
    forms = {}
    for name in ("r_err", "r_fil", "r_ph"):
        mat = np.diag([q(name, e) for e in unit]).astype(complex)
        for i in range(4):
            for j in range(i + 1, 4):
                # q(e_i + e_j) and q(e_i + i e_j) add 2 Re Q_ij and -2 Im Q_ij
                re = 0.5 * (q(name, unit[i] + unit[j]) - mat[i, i] - mat[j, j])
                im = -0.5 * (q(name, unit[i] + 1j * unit[j]) - mat[i, i] - mat[j, j])
                mat[i, j], mat[j, i] = re + 1j * im, re - 1j * im
        forms[name] = mat
    # (K^dag K)_bc = sum_a conj(K_ab) K_ac, with vec(K) = (K00, K01, K10, K11)
    gram = np.zeros((2, 2, 4, 4), dtype=complex)
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                gram[b, c, 2 * a + b, 2 * a + c] = 1.0
    forms["c00"], forms["c11"] = gram[0, 0], gram[1, 1]
    forms["c01re"] = 0.5 * (gram[0, 1] + gram[0, 1].conj().T)
    forms["c01im"] = (gram[0, 1] - gram[0, 1].conj().T) / 2j
    blocks = {}
    for name, mat in forms.items():
        big = np.kron(np.eye(4), mat)
        blocks[name] = np.block([[big.real, -big.imag], [big.imag, big.real]])
    return blocks


def attaining_channel(alpha: float, r_err: float, r_fil: float) -> tuple[np.ndarray, ...]:
    """Kraus operators of a 4-Kraus channel that maximizes r_ph with r_err and
    r_fil held at the given values: scipy SLSQP from six seeded random channels,
    with every rate and the completeness of sum K^dag K as exact quadratic
    forms.  The best run's operators are returned, rescaled by S^(-1/2) for
    S = sum K^dag K, so that they form a channel to rounding; their own
    rates then differ from the targets by the solver's tolerance."""
    forms = _rate_forms(alpha)
    targets = {"r_err": r_err, "r_fil": r_fil, "c00": 1.0, "c11": 1.0,
               "c01re": 0.0, "c01im": 0.0}

    def form_value(name):
        return lambda y: y @ forms[name] @ y - targets[name]

    def form_grad(name):
        return lambda y: 2.0 * forms[name] @ y

    cons = [{"type": "eq", "fun": form_value(k), "jac": form_grad(k)} for k in targets]
    rng = np.random.default_rng(0)
    best = None
    for _ in range(6):
        start = np.concatenate(random_channel(rng, 4)).ravel()
        res = optimize.minimize(
            lambda y: -(y @ forms["r_ph"] @ y), np.concatenate([start.real, start.imag]),
            jac=lambda y: -2.0 * forms["r_ph"] @ y, constraints=cons, method="SLSQP",
            options={"ftol": 1e-15, "maxiter": 500})
        met = max(abs(c["fun"](res.x)) for c in cons) < 1e-10
        if met and (best is None or res.fun < best.fun):
            best = res
    if best is None:
        raise RuntimeError("no start met the rate constraints")
    x = best.x[:16] + 1j * best.x[16:]
    ops = x.reshape(4, 2, 2)
    gram = sum(k.conj().T @ k for k in ops)
    w, v = np.linalg.eigh(gram)
    root = v @ np.diag(w ** -0.5) @ v.conj().T
    return tuple(k @ root for k in ops)


# ---------------------------------------------------------------------------
# exponent scan: a (k_frac, n) grid with a batched dual Newton solve, refined
# by L-BFGS-B, the reference for min_exponent's closed forms
# ---------------------------------------------------------------------------

# largest count residual of a (q, p) whose dual value the scan accepts
_CERT_TOL = 1e-8


class _Dual(NamedTuple):
    """Dual solution for a batch of rows: value g, pair joint q (P,4,4),
    remainder p (P,4), log partition functions and multipliers (P,4)."""

    g: np.ndarray
    q: np.ndarray
    p: np.ndarray
    ln_zq: np.ndarray
    ln_zp: np.ndarray
    lam: np.ndarray


class _Refs(NamedTuple):
    """Observed fractions m (4,) flattened [b, j], the free (nonzero-count)
    cells, the outcome Bloch axes (4, 3), log beta as 4x4 over pair indices
    (-inf off the free cells), the largest feasible k_frac and the constant
    H(w) - ln 2 that turns a dual value into an exponent."""

    m_flat: np.ndarray
    free: np.ndarray
    axes: np.ndarray
    log_beta: np.ndarray
    k_max: float
    offset: float


def _dual_refs(problem) -> _Refs:
    from b92sim.exponent import singlet_pair_probs

    m_flat = problem.count_fractions().reshape(4)
    free = m_flat > 0.0
    bmat = singlet_pair_probs(problem).transpose(0, 2, 1, 3).reshape(4, 4)
    bmat[~free, :] = 0.0
    bmat[:, ~free] = 0.0
    with np.errstate(divide="ignore"):
        log_beta = np.log(bmat)
    axes = np.array([bloch_vector(ket) for ket in problem.kets().reshape(4, 2)])
    return _Refs(m_flat, free, axes, log_beta, 0.5 if bmat.any() else 0.0,
                 problem.weight_entropy() - math.log(2.0))


def _log_alpha(refs: _Refs, bloch: np.ndarray) -> np.ndarray:
    """log alpha (P,4) = log((1 + n.v) / 4) for remainder directions (P, 3)."""
    alpha = np.clip(1.0 + bloch @ refs.axes.T, 0.0, None) / 4.0
    alpha[:, ~refs.free] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(alpha)


def _gibbs(expo: np.ndarray, axes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Per row, log of the sum of exp(expo) over ``axes`` and the normalized
    weights; a row of all -inf gives -inf and uniform weights."""
    top = expo.max(axis=axes, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    z = np.exp(expo - top)
    s = z.sum(axis=axes, keepdims=True)
    empty = (s == 0.0).reshape(-1)
    z[empty] = s.size / z.size
    s[empty] = 1.0
    z /= s
    return np.where(empty, -np.inf, np.log(s).reshape(-1) + top.reshape(-1)), z


def _dual_at(lam, xi1, log_beta, log_alpha, m_flat) -> _Dual:
    """The entropic dual and its Gibbs distributions at multipliers ``lam``."""
    xi2 = 0.5 * (1.0 - xi1)
    ln_zq, q = _gibbs(log_beta[None, :, :] - lam[:, :, None] - lam[:, None, :], (1, 2))
    ln_zp, p = _gibbs(log_alpha - lam, (1,))
    with np.errstate(invalid="ignore"):
        g = (-np.where(xi2 > 0.0, xi2 * ln_zq, 0.0)
             - np.where(xi1 > 0.0, xi1 * ln_zp, 0.0) - lam @ m_flat)
    return _Dual(g, q, p, ln_zq, ln_zp, lam)


def _count_gap(xi1, q, p, m_flat) -> np.ndarray:
    """Implied minus observed count fractions per row: the dual's gradient."""
    xi2 = 0.5 * (1.0 - xi1)
    return xi2[:, None] * (q.sum(axis=2) + q.sum(axis=1)) + xi1[:, None] * p - m_flat


def _newton_step(xi1, q, p, grad, free) -> np.ndarray:
    """Newton direction for the dual, with a rank-one gauge term over the
    free multipliers and the zero-count ones pinned."""
    xi2 = 0.5 * (1.0 - xi1)
    eye = np.eye(4)
    v = q.sum(axis=2) + q.sum(axis=1)
    cov_q = v[:, :, None] * eye + q + q.transpose(0, 2, 1) - v[:, :, None] * v[:, None, :]
    cov_p = p[:, :, None] * eye - p[:, :, None] * p[:, None, :]
    hess = xi2[:, None, None] * cov_q + xi1[:, None, None] * cov_p
    scale = np.trace(hess, axis1=1, axis2=2)[:, None, None] / free.sum() + 1e-12
    hess += scale * (np.outer(free, free) / free.sum()) + np.diag(~free) + 1e-13 * eye
    try:
        return np.linalg.solve(hess, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return np.einsum("pij,pj->pi", np.linalg.pinv(hess), grad)


def _dual_solve(xi1, log_beta, log_alpha, m_flat, iters, grad_tol) -> _Dual:
    """Maximize the concave dual for a batch of (xi1, alpha) rows by damped
    Newton with backtracking, over the rows still in play."""
    free = m_flat > 0.0
    sol = _dual_at(np.zeros((xi1.shape[0], 4)), xi1, log_beta, log_alpha, m_flat)
    live = np.arange(xi1.shape[0])
    for _ in range(iters):
        grad = _count_gap(xi1[live], sol.q[live], sol.p[live], m_flat)
        going = np.isfinite(sol.g[live]) & (np.max(np.abs(grad), axis=1) >= grad_tol)
        live, grad = live[going], grad[going]
        if live.size == 0:
            break
        step = _newton_step(xi1[live], sol.q[live], sol.p[live], grad, free)
        base = sol.lam[live]
        todo = np.arange(live.size)
        t = 1.0
        for _ in range(30):
            rows = live[todo]
            trial = base[todo] + t * step[todo]
            trial[:, free] -= trial[:, free].mean(axis=1, keepdims=True)
            np.clip(trial, -200.0, 200.0, out=trial)
            new = _dual_at(trial, xi1[rows], log_beta, log_alpha[rows], m_flat)
            better = new.g >= sol.g[rows] - 1e-15
            for field, val in zip(sol, new):
                field[rows[better]] = val[better]
            todo = todo[~better]
            if todo.size == 0:
                break
            t *= 0.5
        live = np.delete(live, todo)
    return sol


def rate_batch(problem, k_fracs, blochs, iters, grad_tol) -> tuple[np.ndarray, _Dual]:
    """Exponent minimized over (q, p) for each (k_frac, bloch) row, plus its
    dual solution; +inf where the row's (q, p) misses the counts by more than
    1e-8 (infeasible, or not converged)."""
    refs = _dual_refs(problem)
    xi1 = 1.0 - 2.0 * k_fracs
    sol = _dual_solve(xi1, refs.log_beta, _log_alpha(refs, blochs), refs.m_flat, iters, grad_tol)
    residual = np.max(np.abs(_count_gap(xi1, sol.q, sol.p, refs.m_flat)), axis=1)
    return np.where(residual <= _CERT_TOL, refs.offset + sol.g, np.inf), sol


def rate_and_grad(problem, x, iters, grad_tol) -> tuple[float, np.ndarray]:
    """Exponent at x = (k_frac, u), n = u / |u|, and its gradient in x from
    the envelope theorem; +inf with a zero gradient where uncertified."""
    k_frac, u = x[0], x[1:]
    norm = np.linalg.norm(u)
    n = u / norm
    rate, sol = rate_batch(problem, np.array([k_frac]), n[None, :], iters, grad_tol)
    if not math.isfinite(rate[0]):
        return math.inf, np.zeros(4)
    xi1 = 1.0 - 2.0 * k_frac
    d_k = 2.0 * sol.ln_zp[0] - sol.ln_zq[0]
    d_n = np.zeros(3)
    if xi1 > 0.0:
        free = problem.count_fractions().reshape(4) > 0.0
        axes = np.array([bloch_vector(ket) for ket in problem.kets().reshape(4, 2)])
        p_over_alpha = np.where(free, np.exp(-sol.lam[0] - sol.ln_zp[0]), 0.0)
        d_n = -xi1 * (p_over_alpha @ axes) / 4.0
    d_u = (d_n - n * (n @ d_n)) / norm
    return float(rate[0]), np.concatenate([[d_k], d_u])


def _fibonacci_sphere(n: int) -> np.ndarray:
    idx = np.arange(n, dtype=float) + 0.5
    z = 1.0 - 2.0 * idx / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    ang = math.pi * (3.0 - math.sqrt(5.0)) * idx
    return np.stack([r * np.cos(ang), r * np.sin(ang), z], axis=1)


def scan_exponent(problem, k_grid=50, sphere_points=200, restarts=5, seed=0,
                  newton_iters=80, grad_tol=1e-11) -> float:
    """Minimum exponent (nats) from a (k_frac grid) x (Fibonacci sphere) scan
    of rate_batch, refined by bounded L-BFGS-B over (k_frac, n) from the best
    cells, the minimum-norm Bloch fit and seeded random starts.  Every value
    compared reproduces the counts to 1e-8."""
    from b92sim.exponent import bloch_fit_radius

    rng = np.random.default_rng(seed)
    refs = _dual_refs(problem)
    k_vals = np.linspace(0.0, 0.5, k_grid)
    sphere = _fibonacci_sphere(sphere_points)
    kk = np.repeat(k_vals, sphere.shape[0])
    nn = np.tile(sphere, (k_vals.size, 1))
    # a short Newton budget suffices to rank the coarse cells
    rates, _ = rate_batch(problem, kk, nn, 25, 1e-9)
    starts = [(float(kk[i]), nn[i].copy()) for i in np.argsort(rates)[:3]]
    radius = bloch_fit_radius(problem)
    if math.isfinite(radius):
        # the least-squares Bloch fit r: k_frac = (1 - |r|)/2 along r/|r|
        u = refs.axes[[1, 3]]
        c = np.array([2.0 * problem.delta0 - 1.0, 2.0 * problem.delta1 - 1.0])
        r = np.linalg.lstsq(u @ u.T, c, rcond=None)[0] @ u
        norm = float(np.linalg.norm(r))
        starts.append(((1.0 - min(radius, 1.0 - 1e-12)) / 2.0,
                       r / norm if norm > 1e-12 else u[0]))
    while len(starts) < restarts:
        v = rng.normal(size=3)
        starts.append((float(rng.uniform(0.0, 0.5)), v / np.linalg.norm(v)))

    def objective(x, seen):
        rate, grad = rate_and_grad(problem, x, newton_iters, grad_tol)
        if math.isfinite(rate):
            seen.append(rate)
        return rate, grad

    bounds = [(0.0, refs.k_max), (None, None), (None, None), (None, None)]
    best = math.inf
    for k0, n0 in starts[:restarts]:
        # keep the best certified evaluation, whatever point the search
        # reports when its line search ends abnormally
        seen = [math.inf]
        optimize.minimize(objective, np.concatenate([[min(k0, refs.k_max)], n0]),
                          args=(seen,), jac=True, method="L-BFGS-B", bounds=bounds,
                          options={"ftol": 1e-14, "gtol": 1e-10, "maxiter": 200})
        best = min(best, min(seen))
    if not best >= -1e-9:
        raise AssertionError(f"scan found no certified point or a negative exponent {best!r}")
    return max(best, 0.0)
