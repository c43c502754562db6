"""Independent closed-form and brute-force oracles used by the test suite.

Everything here is derived separately from the package code paths: the
depolarizing-channel rates come from expanding the channel in Pauli terms by
hand, the bound oracle is a plain dense grid scan, the finite-size oracle
evaluates the raw (x, a, d) constraints by dense scans and local solves,
the two-basis region oracle samples the Bloch ball directly, the singlet
pair reference is built one cell at a time, and the collinear-basis exponent
is the classical sampling-without-replacement closed form.
"""

from __future__ import annotations

import math

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

    x, a, d = start
    angles = [0.5 * math.acos(min(max(-a / (1.0 - x), -1.0), 1.0)),
              0.5 * math.acos(min(max(-d / x, -1.0), 1.0))]
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
