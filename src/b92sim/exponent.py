"""Large-deviation exponent for sampling with two nonorthogonal qubit bases.

The estimation problem: M = M0 + M1 qubits in an arbitrary permuted joint
state, the first M0 measured in one orthonormal basis and the rest in
another; the probability of observing "1"-outcome fractions (delta0, delta1)
decays as poly(M) * exp(-M * min R) unless a single-qubit state sigma
reproduces both outcome means.  R is a sum of relative entropies over a
candidate decomposition of the qubits into singlet pairs (fraction 2*k_frac)
and a pure-product remainder |n>.

R is computed in nats (so exp(-M*R) is literal) and convertible to bits.
For fixed (k_frac, n) the candidate distributions minimizing R solve a
convex program whose entropic dual is a smooth concave function of four
multipliers (one per outcome cell; cells with a zero count drop out).
min_exponent scans (k_frac, n), solving that dual by damped Newton on the
rows still unconverged, then refines with bounded L-BFGS-B, whose gradient
the envelope theorem gives from the optimal dual.  A value counts only when
the dual's distributions reproduce the observed counts to CERT_TOL, so the
returned exponent is certified by its point or min_exponent raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import optimize

from .errors import DomainError, ParameterError

LN2 = math.log(2.0)
# largest count residual of a point that certifies an exponent value
CERT_TOL = 1e-8


def _as_basis(mat) -> np.ndarray:
    """Validate a 2x2 array whose rows are an orthonormal ket pair."""
    b = np.asarray(mat, dtype=complex)
    if b.shape != (2, 2):
        raise ParameterError("a basis is a 2x2 array of row kets")
    gram = b @ b.conj().T
    # written so that a nan entry fails too
    if not np.max(np.abs(gram - np.eye(2))) <= 1e-12:
        raise ParameterError("basis rows are not orthonormal to 1e-12")
    out = b.copy()
    out.setflags(write=False)
    return out


def basis_from_bloch(theta: float, phi: float = 0.0) -> np.ndarray:
    """Basis whose outcome-1 ket points along Bloch angles (theta, phi)."""
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ParameterError("Bloch angles must be finite")
    one = np.array([math.cos(theta / 2.0), math.sin(theta / 2.0) * np.exp(1j * phi)])
    zero = np.array([-math.sin(theta / 2.0) * np.exp(-1j * phi), math.cos(theta / 2.0)])
    return np.stack([zero, one])


def bloch_vector(ket: np.ndarray) -> np.ndarray:
    a0, a1 = complex(ket[0]), complex(ket[1])
    cross = a0.conjugate() * a1
    return np.array([2.0 * cross.real, 2.0 * cross.imag, abs(a0) ** 2 - abs(a1) ** 2])


def ket_from_bloch(n: np.ndarray) -> np.ndarray:
    nx, ny, nz = (float(v) for v in n)
    theta = math.acos(max(-1.0, min(1.0, nz)))
    phi = math.atan2(ny, nx)
    return np.array([math.cos(theta / 2.0), math.sin(theta / 2.0) * np.exp(1j * phi)])


@dataclass(frozen=True)
class TwoBasisSampling:
    """Instance of the two-basis estimation problem.

    ``basis0``/``basis1`` are 2x2 arrays whose rows are the outcome kets
    |b,0>, |b,1>.  ``m0``/``m1`` count qubits measured in each basis and
    ``delta0``/``delta1`` are the observed "1" fractions (real-valued; only
    the exact i.i.d. oracle requires integral counts).
    """

    basis0: np.ndarray
    basis1: np.ndarray
    m0: int
    m1: int
    delta0: float
    delta1: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis0", _as_basis(self.basis0))
        object.__setattr__(self, "basis1", _as_basis(self.basis1))
        if not (1 <= self.m0 < math.inf and 1 <= self.m1 < math.inf):
            raise ParameterError("m0 and m1 must be finite and positive")
        for d in (self.delta0, self.delta1):
            if not 0.0 <= d <= 1.0:
                raise ParameterError("outcome fractions must lie in [0, 1]")

    @property
    def m_total(self) -> int:
        return self.m0 + self.m1

    def kets(self) -> np.ndarray:
        """(2, 2, 2) array of kets indexed [b, j]."""
        return np.stack([self.basis0, self.basis1])

    def count_fractions(self) -> np.ndarray:
        """(2, 2) array m[b, j] of observed count fractions n_{b,j} / M."""
        m = self.m_total
        w0, w1 = self.m0 / m, self.m1 / m
        return np.array(
            [
                [w0 * (1.0 - self.delta0), w0 * self.delta0],
                [w1 * (1.0 - self.delta1), w1 * self.delta1],
            ]
        )

    def weight_entropy(self) -> float:
        """Entropy of the basis-choice weights, in nats."""
        m = self.m_total
        out = 0.0
        for mb in (self.m0, self.m1):
            w = mb / m
            out -= w * math.log(w)
        return out


@dataclass(frozen=True)
class ExponentPoint:
    """Candidate decomposition entering the exponent.

    ``q`` is the joint distribution of paired outcomes indexed
    [b, b', j, j']; ``p`` the remainder outcome distribution [b, j];
    ``k_frac`` the paired fraction k/M and ``bloch_n`` the remainder
    direction.  The singlet weights are (1 - 2 k_frac, k_frac, k_frac).
    """

    k_frac: float
    bloch_n: np.ndarray
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        if not 0.0 <= self.k_frac <= 0.5:
            raise ParameterError("k_frac must lie in [0, 1/2]")
        n = np.asarray(self.bloch_n, dtype=float)
        q = np.asarray(self.q, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if not all(np.all(np.isfinite(arr)) for arr in (n, q, p)):
            raise ParameterError("bloch_n, q and p must be finite")
        if n.shape != (3,) or abs(np.linalg.norm(n) - 1.0) > 1e-9:
            raise ParameterError("bloch_n must be a unit 3-vector")
        if q.shape != (2, 2, 2, 2) or p.shape != (2, 2):
            raise ParameterError("q must be (2,2,2,2) and p (2,2)")
        for arr, name in ((q, "q"), (p, "p")):
            if np.any(arr < -1e-15):
                raise ParameterError(f"{name} has negative entries")
            if abs(arr.sum() - 1.0) > 1e-12:
                raise ParameterError(f"{name} does not sum to 1")
        for arr, name in ((n, "bloch_n"), (q, "q"), (p, "p")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def xi1(self) -> float:
        return 1.0 - 2.0 * self.k_frac

    def pair_marginal_first(self) -> np.ndarray:
        return self.q.sum(axis=(1, 3))

    def pair_marginal_second(self) -> np.ndarray:
        return self.q.sum(axis=(0, 2))

    def implied_count_fractions(self) -> np.ndarray:
        xi2 = self.k_frac
        return (
            self.xi1 * self.p
            + xi2 * self.pair_marginal_first()
            + xi2 * self.pair_marginal_second()
        )


@dataclass(frozen=True)
class ExponentSolution:
    """Minimum exponent and the decomposition attaining it.

    ``residual`` is the largest gap between the point's implied count
    fractions and the observed ones; ``r_primal`` is exponent_direct at the
    point, the primal value that the dual ``r_nats`` certifies.  Both are nan
    when not computed.
    """

    point: ExponentPoint
    r_nats: float
    r_bits: float
    converged: bool
    residual: float = math.nan
    r_primal: float = math.nan


@dataclass(frozen=True)
class SolverOptions:
    k_grid: int = 50
    sphere_points: int = 200
    restarts: int = 5
    seed: int = 0
    newton_iters: int = 80
    grad_tol: float = 1e-11

    def __post_init__(self) -> None:
        if not 0 <= self.seed < math.inf:
            raise ParameterError("seed must be finite and nonnegative")
        if not 2 <= self.k_grid < math.inf:
            raise ParameterError("k_grid must be finite and at least 2")
        for name in ("sphere_points", "restarts", "newton_iters"):
            if not 1 <= getattr(self, name) < math.inf:
                raise ParameterError(f"{name} must be finite and at least 1")
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0.0):
            raise ParameterError("grad_tol must be finite and positive")


def singlet_pair_probs(problem: TwoBasisSampling) -> np.ndarray:
    """Reference pair distribution beta[b, b', j, j'] = S / 4, where S is the
    probability of outcomes (j, j') when a singlet pair is measured in bases
    (b, b')."""
    kets = problem.kets()
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


def remainder_probs(problem: TwoBasisSampling, bloch_n: np.ndarray) -> np.ndarray:
    """Reference remainder distribution alpha[b, j] = |<b,j|n>|^2 / 2."""
    ket_n = ket_from_bloch(np.asarray(bloch_n, dtype=float))
    kets = problem.kets()
    amps = np.einsum("bjk,k->bj", kets.conj(), ket_n)
    return np.abs(amps) ** 2 / 2.0


def _rel_entropy_nats(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0.0
    if np.any(mask & (q <= 0.0)):
        return math.inf
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def count_residual(point: ExponentPoint, problem: TwoBasisSampling) -> float:
    """Largest gap between the point's implied count fractions and the
    observed ones (0 for a point that reproduces the counts)."""
    gapv = point.implied_count_fractions() - problem.count_fractions()
    return float(np.max(np.abs(gapv)))


def _check_count_matching(point: ExponentPoint, problem: TwoBasisSampling) -> None:
    residual = count_residual(point, problem)
    if not residual <= CERT_TOL:
        raise DomainError(
            f"point does not reproduce the observed counts (max deviation {residual:.3e})"
        )


def exponent_direct(point: ExponentPoint, problem: TwoBasisSampling) -> float:
    """Exponent in its raw type-counting form, in nats.

    Weight entropy plus the paired and remainder relative-entropy blocks,
    each offset by the log-size of its reference alphabet.
    """
    _check_count_matching(point, problem)
    xi2 = point.k_frac
    xi1 = point.xi1
    r = problem.weight_entropy()
    if xi2 > 0.0:
        r += xi2 * (_rel_entropy_nats(point.q, singlet_pair_probs(problem)) - 2.0 * LN2)
    if xi1 > 0.0:
        alpha_ref = remainder_probs(problem, point.bloch_n)
        r += xi1 * (_rel_entropy_nats(point.p, alpha_ref) - LN2)
    return r


def exponent_decomposed(point: ExponentPoint, problem: TwoBasisSampling) -> float:
    """Exponent regrouped into manifestly nonnegative terms, in nats.

    Algebraically equal to exponent_direct on every count-matching point:
    pair basis-index mutual information, conditional outcome divergences,
    remainder conditional divergence, and the mutual information between
    the decomposition label and the basis index.
    """
    _check_count_matching(point, problem)
    xi2 = point.k_frac
    xi1 = point.xi1
    q = point.q
    p = point.p
    r = 0.0

    if xi2 > 0.0:
        beta_ref = singlet_pair_probs(problem)
        q_bb = q.sum(axis=(2, 3))
        q_b = q_bb.sum(axis=1)
        q_bp = q_bb.sum(axis=0)
        r += xi2 * _rel_entropy_nats(q_bb, np.outer(q_b, q_bp))
        beta_bb = beta_ref.sum(axis=(2, 3))
        for b in (0, 1):
            for bp in (0, 1):
                if q_bb[b, bp] <= 0.0:
                    continue
                cond_q = q[b, bp] / q_bb[b, bp]
                cond_beta = beta_ref[b, bp] / beta_bb[b, bp]
                r += xi2 * q_bb[b, bp] * _rel_entropy_nats(cond_q, cond_beta)

    if xi1 > 0.0:
        alpha_ref = remainder_probs(problem, point.bloch_n)
        p_b = p.sum(axis=1)
        alpha_b = alpha_ref.sum(axis=1)
        for b in (0, 1):
            if p_b[b] <= 0.0:
                continue
            r += xi1 * p_b[b] * _rel_entropy_nats(p[b] / p_b[b], alpha_ref[b] / alpha_b[b])

    # decomposition-label vs basis-index mutual information
    gamma = np.stack(
        [
            xi1 * p.sum(axis=1),
            xi2 * point.pair_marginal_first().sum(axis=1),
            xi2 * point.pair_marginal_second().sum(axis=1),
        ]
    )
    gamma_a = gamma.sum(axis=1)
    gamma_b = gamma.sum(axis=0)
    r += _rel_entropy_nats(gamma, np.outer(gamma_a, gamma_b))
    return r


def bloch_fit_radius(problem: TwoBasisSampling) -> float:
    """Norm of the smallest Bloch vector reproducing both outcome means.

    Infinite when the two outcome kets are collinear on the Bloch sphere but
    the observed fractions disagree (no state can produce two different
    means of one observable).
    """
    u0 = bloch_vector(problem.basis0[1])
    u1 = bloch_vector(problem.basis1[1])
    c0 = 2.0 * problem.delta0 - 1.0
    c1 = 2.0 * problem.delta1 - 1.0
    cos_w = float(np.clip(np.dot(u0, u1), -1.0, 1.0))
    sin_sq = 1.0 - cos_w * cos_w
    if sin_sq < 1e-12:
        aligned = cos_w > 0.0
        mismatch = abs(c0 - c1) if aligned else abs(c0 + c1)
        if mismatch > 1e-9:
            return math.inf
        return abs(c0)
    norm_sq = (c0 * c0 + c1 * c1 - 2.0 * c0 * c1 * cos_w) / sin_sq
    return math.sqrt(max(norm_sq, 0.0))


def zero_region_contains(problem: TwoBasisSampling) -> bool:
    """Whether a single-qubit state reproduces both observed fractions."""
    return bloch_fit_radius(problem) <= 1.0 + 1e-9


def b92_angle_bounds(theta_l: float, theta: float, eps7: float = 0.0, eps8: float = 0.0) -> tuple[float, float]:
    """Allowed window for a check-side outcome fraction sin^2(phi_l), given
    the data-side angle theta_l and the basis angle theta."""
    for ang in (theta_l, theta):
        if not 0.0 <= ang <= math.pi / 2.0 + 1e-12:
            raise DomainError("angles must lie in [0, pi/2]")
    lo = max(0.0, math.sin(theta_l - theta) ** 2 - eps7)
    hi = min(1.0, math.sin(theta_l + theta) ** 2 + eps8)
    return lo, hi


def iid_probability(sigma: np.ndarray, problem: TwoBasisSampling) -> float:
    """Exact probability of the observed fractions for i.i.d. inputs
    sigma^(x)M: a product of two binomial point masses."""
    if problem.m_total > 60:
        raise DomainError("exact oracle limited to m0 + m1 <= 60")
    s = np.asarray(sigma, dtype=complex)
    if s.shape != (2, 2):
        raise DomainError("sigma must be a 2x2 density matrix")
    total = 1.0
    for basis, m_b, delta in (
        (problem.basis0, problem.m0, problem.delta0),
        (problem.basis1, problem.m1, problem.delta1),
    ):
        k_float = m_b * delta
        k = round(k_float)
        if abs(k_float - k) > 1e-9:
            raise DomainError("m_b * delta_b must be integral for the exact oracle")
        ket1 = basis[1]
        succ = float(np.real(np.vdot(ket1, s @ ket1)))
        succ = min(max(succ, 0.0), 1.0)
        pk = succ**k if k > 0 else 1.0
        pq = (1.0 - succ) ** (m_b - k) if m_b - k > 0 else 1.0
        total *= math.comb(m_b, k) * pk * pq
    return total


# ---------------------------------------------------------------------------
# dual solver for the inner convex problem
# ---------------------------------------------------------------------------


class _Dual(NamedTuple):
    """Dual solution for a batch of rows: value g, pair joint q (P,4,4),
    remainder p (P,4), log partition functions and multipliers (P,4)."""

    g: np.ndarray
    q: np.ndarray
    p: np.ndarray
    ln_zq: np.ndarray
    ln_zp: np.ndarray
    lam: np.ndarray


def _bloch_axes(problem: TwoBasisSampling) -> np.ndarray:
    """(4, 3) Bloch vectors v of the outcome kets, flattened [b, j]; the
    remainder reference is alpha = (1 + n.v) / 4."""
    return np.array([bloch_vector(ket) for ket in problem.kets().reshape(4, 2)])


def _log_refs(problem: TwoBasisSampling, bloch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log beta as 4x4 over pair indices, log alpha as (P,4)) for a batch of
    remainder directions ``bloch`` of shape (P, 3).

    Cells whose observed count is 0 get weight 0 (log -inf): count matching
    leaves no mass there, so their multipliers drop out of the dual.
    """
    beta = singlet_pair_probs(problem)
    bmat = beta.transpose(0, 2, 1, 3).reshape(4, 4)
    alpha = np.clip(1.0 + bloch @ _bloch_axes(problem).T, 0.0, None) / 4.0
    zero = problem.count_fractions().reshape(4) == 0.0
    bmat[zero, :] = 0.0
    bmat[:, zero] = 0.0
    alpha[:, zero] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(bmat), np.log(alpha)


def _gibbs(expo: np.ndarray, axes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Per row, log of the sum of exp(expo) over ``axes`` and the normalized
    weights.  A row of all -inf gives -inf and uniform weights: no
    distribution fits it, so its block must carry zero weight (else the dual
    is +inf) and any distribution stands in."""
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
    # a block with zero weight drops out even where its partition function is 0
    with np.errstate(invalid="ignore"):
        g = (
            -np.where(xi2 > 0.0, xi2 * ln_zq, 0.0)
            - np.where(xi1 > 0.0, xi1 * ln_zp, 0.0)
            - lam @ m_flat
        )
    return _Dual(g, q, p, ln_zq, ln_zp, lam)


def _count_gap(xi1: np.ndarray, q: np.ndarray, p: np.ndarray, m_flat: np.ndarray) -> np.ndarray:
    """Implied minus observed count fractions for each row (P,4): the count
    residual of the row's (q, p), and the gradient of the dual."""
    xi2 = 0.5 * (1.0 - xi1)
    return xi2[:, None] * (q.sum(axis=2) + q.sum(axis=1)) + xi1[:, None] * p - m_flat


def _newton_step(
    xi1: np.ndarray, q: np.ndarray, p: np.ndarray, grad: np.ndarray, free: np.ndarray
) -> np.ndarray:
    """Newton direction for the dual: minus its Hessian is the weighted
    covariance of the cell counts under (q, p).  A rank-one term pins the
    gauge (a common shift of the free multipliers) and the multipliers of
    zero-count cells are pinned at 0."""
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


def _dual_solve(
    xi1: np.ndarray,
    log_beta: np.ndarray,
    log_alpha: np.ndarray,
    m_flat: np.ndarray,
    iters: int,
    grad_tol: float,
) -> _Dual:
    """Maximize the entropic dual for a batch of (xi1, alpha) rows by damped
    Newton.

    The dual is concave.  Each Newton step and each backtracking halving
    touches only the rows still in play: a row leaves once its gradient (its
    count residual) is below ``grad_tol``, its dual is +inf (no distribution
    fits its reference weights), or backtracking cannot improve it.
    """
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

        # backtracking on the concave dual, over the rows not yet improved
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


def _fibonacci_sphere(n: int) -> np.ndarray:
    idx = np.arange(n, dtype=float) + 0.5
    z = 1.0 - 2.0 * idx / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    ang = golden * idx
    return np.stack([r * np.cos(ang), r * np.sin(ang), z], axis=1)


def _rate_batch(
    problem: TwoBasisSampling,
    k_fracs: np.ndarray,
    blochs: np.ndarray,
    iters: int,
    grad_tol: float,
) -> tuple[np.ndarray, _Dual]:
    """Exponent value for each (k_frac, bloch) row, plus its dual solution.

    A row whose (q, p) misses the observed counts by more than CERT_TOL gets
    +inf: its primal is infeasible (or its solve did not converge), so the
    dual value there certifies nothing.
    """
    m_flat = problem.count_fractions().reshape(4)
    log_beta, log_alpha = _log_refs(problem, blochs)
    xi1 = 1.0 - 2.0 * k_fracs
    sol = _dual_solve(xi1, log_beta, log_alpha, m_flat, iters, grad_tol)
    residual = np.max(np.abs(_count_gap(xi1, sol.q, sol.p, m_flat)), axis=1)
    rates = np.where(residual <= CERT_TOL, problem.weight_entropy() - LN2 + sol.g, np.inf)
    return rates, sol


def _rate_and_grad(
    problem: TwoBasisSampling, x: np.ndarray, iters: int, grad_tol: float
) -> tuple[float, np.ndarray]:
    """Exponent at x = (k_frac, u), with remainder direction n = u / |u|, and
    its gradient in x; +inf with a zero gradient where uncertified.

    Envelope theorem: at optimal multipliers only the explicit dependence of
    the dual on k_frac and on log alpha counts, with dg/dk_frac =
    2 ln Z_p - ln Z_q, dg/dlog alpha_i = -xi1 p_i and
    dlog alpha_i/dn = v_i / (4 alpha_i), so p_i / alpha_i = exp(-lam_i) / Z_p.
    """
    k_frac, u = x[0], x[1:]
    norm = np.linalg.norm(u)
    n = u / norm
    rate, sol = _rate_batch(problem, np.array([k_frac]), n[None, :], iters, grad_tol)
    if not math.isfinite(rate[0]):
        return math.inf, np.zeros(4)
    xi1 = 1.0 - 2.0 * k_frac
    d_k = 2.0 * sol.ln_zp[0] - sol.ln_zq[0]
    d_n = np.zeros(3)
    if xi1 > 0.0:
        free = problem.count_fractions().reshape(4) > 0.0
        p_over_alpha = np.where(free, np.exp(-sol.lam[0] - sol.ln_zp[0]), 0.0)
        d_n = -xi1 * (p_over_alpha @ _bloch_axes(problem)) / 4.0
    d_u = (d_n - n * (n @ d_n)) / norm
    return float(rate[0]), np.concatenate([[d_k], d_u])


def _point_from_solution(
    k_frac: float, bloch: np.ndarray, q_flat: np.ndarray, p_flat: np.ndarray
) -> ExponentPoint:
    q = q_flat.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
    q = np.clip(q, 0.0, None)
    q = q / q.sum()
    p = np.clip(p_flat.reshape(2, 2), 0.0, None)
    p = p / p.sum()
    n = np.asarray(bloch, dtype=float)
    n = n / np.linalg.norm(n)
    return ExponentPoint(k_frac=float(k_frac), bloch_n=n, q=q, p=p)


def min_exponent(problem: TwoBasisSampling, options: SolverOptions | None = None) -> ExponentSolution:
    """Certified global minimum of the exponent over all decompositions.

    Coarse stage: a (k_frac grid) x (Fibonacci sphere) scan with the batched
    dual solver.  Refinement: bounded L-BFGS-B over (k_frac, n) from the best
    scan cells, a smart start at the minimum-norm Bloch fit (the exact
    optimum whenever the observations sit inside the zero region) and
    jittered starts, with the gradient from the envelope theorem.  Every
    value compared is certified by a point reproducing the counts to
    CERT_TOL; DomainError when the returned point misses them.
    """
    opts = options or SolverOptions()
    rng = np.random.default_rng(opts.seed)

    k_vals = np.linspace(0.0, 0.5, opts.k_grid)
    sphere = _fibonacci_sphere(opts.sphere_points)
    kk = np.repeat(k_vals, sphere.shape[0])
    nn = np.tile(sphere, (k_vals.size, 1))
    # a short Newton budget suffices to rank the coarse cells
    rates, _ = _rate_batch(problem, kk, nn, 25, 1e-9)
    order = np.argsort(rates)

    starts: list[tuple[float, np.ndarray]] = []
    for idx in order[:3]:
        starts.append((float(kk[idx]), nn[idx].copy()))

    radius = bloch_fit_radius(problem)
    if math.isfinite(radius):
        # the minimum-norm Bloch fit r: k_frac = (1 - |r|)/2 with direction
        # r/|r| is the exact optimum whenever |r| <= 1
        u0 = bloch_vector(problem.basis0[1])
        u1 = bloch_vector(problem.basis1[1])
        c = np.array([2.0 * problem.delta0 - 1.0, 2.0 * problem.delta1 - 1.0])
        basis_mat = np.stack([u0, u1])
        coef = np.linalg.lstsq(basis_mat @ basis_mat.T, c, rcond=None)[0]
        r_vec = coef @ basis_mat
        nrm = np.linalg.norm(r_vec)
        direction = r_vec / nrm if nrm > 1e-12 else u0
        starts.append(((1.0 - min(radius, 1.0 - 1e-12)) / 2.0, direction))

    while len(starts) < opts.restarts:
        v = rng.normal(size=3)
        starts.append((float(rng.uniform(0.0, 0.5)), v / np.linalg.norm(v)))

    # with collinear bases and zero counts the singlet may give no pair of
    # outcomes with nonzero counts; then every k_frac > 0 is infeasible
    free = problem.count_fractions().reshape(4) > 0.0
    pair_ref = singlet_pair_probs(problem).transpose(0, 2, 1, 3).reshape(4, 4)
    k_max = 0.5 if pair_ref[np.ix_(free, free)].any() else 0.0

    def objective(x: np.ndarray, seen: list) -> tuple[float, np.ndarray]:
        rate, grad = _rate_and_grad(problem, x, opts.newton_iters, opts.grad_tol)
        if math.isfinite(rate):
            seen.append((rate, float(x[0]), x[1:] / np.linalg.norm(x[1:])))
        return rate, grad

    bounds = [(0.0, k_max), (None, None), (None, None), (None, None)]
    refined: list[tuple[float, float, np.ndarray]] = []
    for k0, n0 in starts[: opts.restarts]:
        # keep the best certified evaluation, whatever point the search
        # reports when its line search ends abnormally
        seen: list[tuple[float, float, np.ndarray]] = [(math.inf, k0, n0)]
        optimize.minimize(
            objective,
            np.concatenate([[min(k0, k_max)], n0]),
            args=(seen,),
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"ftol": 1e-14, "gtol": 1e-10, "maxiter": 200},
        )
        refined.append(min(seen, key=lambda t: t[0]))

    refined.sort(key=lambda t: t[0])
    best_val, best_k, best_n = refined[0]
    if not math.isfinite(best_val):
        raise DomainError("no start reproduced the observed counts; solver failure")
    near = sum(1 for v, _, _ in refined if v - best_val <= max(1e-6, 0.01 * abs(best_val)))
    converged = near >= 2

    _, sol = _rate_batch(
        problem, np.array([best_k]), best_n[None, :], opts.newton_iters, opts.grad_tol
    )
    point = _point_from_solution(best_k, best_n, sol.q[0], sol.p[0])
    # raises DomainError when the point misses the counts by more than CERT_TOL
    r_primal = exponent_direct(point, problem)
    r_nats = max(best_val, 0.0) if best_val > -1e-9 else best_val
    if r_nats < 0.0:
        raise DomainError(f"negative exponent {best_val!r}; solver failure")
    return ExponentSolution(
        point=point,
        r_nats=r_nats,
        r_bits=r_nats / LN2,
        converged=converged,
        residual=count_residual(point, problem),
        r_primal=r_primal,
    )
