"""Independent closed-form and brute-force oracles used by the test suite.

Everything here is derived separately from the package code paths: the
depolarizing-channel rates come from expanding the channel in Pauli terms by
hand, the bound oracle is a plain dense grid scan, the two-basis region
oracle samples the Bloch ball directly, and the collinear-basis exponent is
the classical sampling-without-replacement closed form.
"""

from __future__ import annotations

import math

import numpy as np


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
