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
multipliers lam (one per outcome cell; cells with a zero count drop out).

min_exponent is dual-first.  For any lam, minimizing the dual over n is
closed form (n* = V/|V| with V = sum exp(-lam_i) v_i over the outcome Bloch
axes v_i) and it is affine in k_frac, so weak duality gives a lower bound
L(lam) on min R.  Three candidate points are tried in order: the Bloch fit
inside the zero region (R = 0), the classical point of collinear bases, and
the minimizer of psi(k_frac) = max over lam of the n-minimized dual, a
convex function searched by a bracketed root find on its slope with damped
Newton in lam inside.  The first whose point reproduces the observed counts
to CERT_TOL and whose exponent exceeds L by at most GAP_TOL is returned.
Only if none certifies does the older path run: a (k_frac, n) scan with the
batched dual solver, refined by bounded L-BFGS-B with envelope-theorem
gradients.  Every returned exponent is certified by its point or
min_exponent raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ParameterError

LN2 = math.log(2.0)
# largest count residual of a point that certifies an exponent value
CERT_TOL = 1e-8
# largest primal-dual gap that certifies a point as the global minimum
GAP_TOL = 1e-8
_ANTISYM = np.array([[0.0, 1.0], [-1.0, 0.0]])


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
    point, the primal value that the dual ``r_nats`` certifies; ``gap`` is
    r_primal minus the dual lower bound on the global minimum, and
    ``converged`` means gap <= GAP_TOL.  The three are nan when not computed.
    """

    point: ExponentPoint
    r_nats: float
    r_bits: float
    converged: bool
    residual: float = math.nan
    r_primal: float = math.nan
    gap: float = math.nan


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
    (b, b').  The singlet amplitude of kets u (x) v is det[u; v]* / sqrt 2."""
    kets = problem.kets().conj()
    det = np.einsum("bjx,xy,cky->bcjk", kets, _ANTISYM, kets)
    return np.abs(det / math.sqrt(2.0)) ** 2 / 4.0


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


class _Refs(NamedTuple):
    """Per-instance data of the dual: observed fractions m (4,) flattened
    [b, j], the free (nonzero-count) cells, the outcome Bloch axes (4, 3),
    log beta as 4x4 over pair indices, the largest feasible k_frac and the
    constant H(w) - ln 2 that turns a dual value into an exponent.

    Cells whose observed count is 0 get weight 0 (log -inf): count matching
    leaves no mass there, so their multipliers drop out of the dual.
    """

    m_flat: np.ndarray
    free: np.ndarray
    axes: np.ndarray
    log_beta: np.ndarray
    k_max: float
    offset: float


def _refs(problem: TwoBasisSampling) -> _Refs:
    m_flat = problem.count_fractions().reshape(4)
    free = m_flat > 0.0
    bmat = singlet_pair_probs(problem).transpose(0, 2, 1, 3).reshape(4, 4)
    bmat[~free, :] = 0.0
    bmat[:, ~free] = 0.0
    # with collinear bases and zero counts the singlet may give no pair of
    # outcomes with nonzero counts; then every k_frac > 0 is infeasible
    k_max = 0.5 if bmat.any() else 0.0
    with np.errstate(divide="ignore"):
        log_beta = np.log(bmat)
    return _Refs(m_flat, free, _bloch_axes(problem), log_beta, k_max,
                 problem.weight_entropy() - LN2)


def _log_alpha(refs: _Refs, bloch: np.ndarray) -> np.ndarray:
    """log alpha (P,4) for a batch of remainder directions of shape (P, 3)."""
    alpha = np.clip(1.0 + bloch @ refs.axes.T, 0.0, None) / 4.0
    alpha[:, ~refs.free] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(alpha)


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
    xi1: np.ndarray,
    q: np.ndarray,
    p: np.ndarray,
    grad: np.ndarray,
    free: np.ndarray,
    curv: np.ndarray | None = None,
) -> np.ndarray:
    """Newton direction for the dual: minus its Hessian is the weighted
    covariance of the cell counts under (q, p), plus ``curv`` (P,4,4) in the
    remainder block when the remainder direction moves with the multipliers.
    A rank-one term pins the gauge (a common shift of the free multipliers)
    and the multipliers of zero-count cells are pinned at 0."""
    xi2 = 0.5 * (1.0 - xi1)
    eye = np.eye(4)
    v = q.sum(axis=2) + q.sum(axis=1)
    cov_q = v[:, :, None] * eye + q + q.transpose(0, 2, 1) - v[:, :, None] * v[:, None, :]
    cov_p = p[:, :, None] * eye - p[:, :, None] * p[:, None, :]
    if curv is not None:
        cov_p = cov_p + curv
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
    refs = _refs(problem)
    xi1 = 1.0 - 2.0 * k_fracs
    sol = _dual_solve(xi1, refs.log_beta, _log_alpha(refs, blochs), refs.m_flat, iters, grad_tol)
    residual = np.max(np.abs(_count_gap(xi1, sol.q, sol.p, refs.m_flat)), axis=1)
    rates = np.where(residual <= CERT_TOL, refs.offset + sol.g, np.inf)
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


# ---------------------------------------------------------------------------
# dual-first global minimum: the dual minimized over n in closed form
# ---------------------------------------------------------------------------


def _dual_star(lam: np.ndarray, k_frac: float, refs: _Refs) -> tuple[_Dual, np.ndarray, np.ndarray]:
    """The dual at multipliers ``lam`` (4,) minimized over remainder
    directions, the minimizing direction n*, and the curvature that n*'s
    motion adds to minus the Hessian of -ln Z_p*.

    With w_i = exp(-lam_i) on the free cells, S = sum w_i and
    V = sum w_i v_i, Z_p = (S + n.V) / 4 is largest, so the dual smallest,
    at n* = V / |V|.  Then Z_p* = (S + |V|) / 4 and the curvature is
    w_i w_j v_i.(I - n* n*^T) v_j / (|V| (S + |V|)).  At the kink V = 0
    n* is any axis and the term is dropped.
    """
    w = np.where(refs.free, np.exp(-lam), 0.0)
    vec = w @ refs.axes
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        n = vec / norm
        a = (w / (w.sum() + norm))[:, None] * refs.axes
        an = a @ n
        curv = (a @ a.T - np.outer(an, an)) * ((w.sum() + norm) / norm)
    else:
        n = refs.axes[int(np.argmax(refs.free))]
        curv = np.zeros((4, 4))
    xi1 = np.array([1.0 - 2.0 * k_frac])
    sol = _dual_at(lam[None], xi1, refs.log_beta, _log_alpha(refs, n[None]), refs.m_flat)
    return sol, n, curv


def _lower_bound(star: _Dual, refs: _Refs) -> float:
    """Weak-duality bound L(lam) <= min R at the multipliers of ``star`` (a
    _dual_star solution): the dual there, minimized over n in closed form and
    over k_frac at the ends of [0, k_max], since it is affine in k_frac."""
    ln_zq, ln_zp = float(star.ln_zq[0]), float(star.ln_zp[0])
    base = -float(star.lam[0] @ refs.m_flat)
    ends = [base - ln_zp]
    if refs.k_max > 0.0:
        ends.append(base - refs.k_max * ln_zq - (1.0 - 2.0 * refs.k_max) * ln_zp)
    return refs.offset + min(ends)


def _star_solve(
    k_frac: float, lam: np.ndarray, refs: _Refs, iters: int, grad_tol: float
) -> tuple[_Dual, np.ndarray, bool]:
    """psi(k_frac) = max over lam of the n-minimized dual, by damped Newton
    from ``lam`` with the exact Hessian.  Returns the solution, its n* and
    whether the count gap fell below ``grad_tol`` within ``iters`` steps."""
    xi1 = np.array([1.0 - 2.0 * k_frac])
    free = refs.free
    sol, n, curv = _dual_star(lam, k_frac, refs)
    for step_no in range(iters + 1):
        grad = _count_gap(xi1, sol.q, sol.p, refs.m_flat)
        if np.max(np.abs(grad)) < grad_tol:
            return sol, n, True
        if step_no == iters:
            break
        step = _newton_step(xi1, sol.q, sol.p, grad, free, curv[None])[0]
        t = 1.0
        for _ in range(30):
            trial = sol.lam[0] + t * step
            trial[free] -= trial[free].mean()
            np.clip(trial, -200.0, 200.0, out=trial)
            new = _dual_star(trial, k_frac, refs)
            if new[0].g[0] >= sol.g[0] - 1e-15:
                sol, n, curv = new
                break
            t *= 0.5
        else:
            break
    return sol, n, False


def _search_k(
    refs: _Refs, lam0: np.ndarray, iters0: int, iters: int, grad_tol: float
) -> tuple[float, _Dual, np.ndarray] | None:
    """Minimize the convex psi over k_frac in [0, k_max].

    psi's slope is 2 ln Z_p* - ln Z_q at the optimal multipliers.  After the
    endpoint slopes, an Illinois regula falsi brackets its root, each solve
    warm-started from the last converged one.  A solve that does not converge
    (psi may be +inf near k_max, where pairs alone cannot fit the counts) is
    treated as a positive slope.  The solve of psi(0) gets ``iters0`` Newton
    steps, the others ``iters``.  Returns the point of smallest |slope|, or
    None when psi(0) does not converge.
    """

    def solve(k: float, lam: np.ndarray, budget: int = iters):
        sol, n, ok = _star_solve(k, lam, refs, budget, grad_tol)
        return sol, n, ok, float(2.0 * sol.ln_zp[0] - sol.ln_zq[0])

    sol, n, ok, slope = solve(0.0, lam0, iters0)
    if not ok:
        return None
    best = (abs(slope), 0.0, sol, n)
    if refs.k_max == 0.0 or slope >= 0.0:
        return best[1:]
    lo, s_lo, warm = 0.0, slope, sol.lam[0]
    hi, s_hi, side = refs.k_max, math.inf, 0
    sol, n, ok, slope = solve(hi, warm)
    if ok:
        if slope <= 0.0:
            return hi, sol, n
        s_hi, warm = slope, sol.lam[0]
    for _ in range(100):
        k = lo + (hi - lo) * s_lo / (s_lo - s_hi) if math.isfinite(s_hi) else 0.5 * (lo + hi)
        if not lo < k < hi:
            k = 0.5 * (lo + hi)
        sol, n, ok, slope = solve(k, warm)
        if ok:
            warm = sol.lam[0]
            if abs(slope) < best[0]:
                best = (abs(slope), k, sol, n)
            if best[0] <= 1e-12:
                break
        if ok and slope < 0.0:
            lo, s_lo = k, slope
            if side < 0:
                s_hi *= 0.5
            side = -1
        else:
            hi, s_hi = k, slope if ok else math.inf
            if side > 0:
                s_lo *= 0.5
            side = 1
        if hi - lo <= 1e-15:
            break
    return best[1:]


def _bloch_fit(problem: TwoBasisSampling) -> tuple[float, np.ndarray]:
    """Norm and direction (u_0 when it is 0) of the minimum-norm Bloch vector
    r with (1 + r.u_b) / 2 = delta_b, in least squares when the two outcome
    axes are collinear and no r fits both."""
    u = np.stack([bloch_vector(problem.basis0[1]), bloch_vector(problem.basis1[1])])
    c = np.array([2.0 * problem.delta0 - 1.0, 2.0 * problem.delta1 - 1.0])
    r = np.linalg.lstsq(u @ u.T, c, rcond=None)[0] @ u
    norm = float(np.linalg.norm(r))
    return norm, (r / norm if norm > 1e-12 else u[0])


def _lam_fit(refs: _Refs, n: np.ndarray) -> np.ndarray:
    """Multipliers ln(alpha(n) / m) on the free cells (0 elsewhere), at which
    the remainder's Gibbs distribution at n is p = m."""
    alpha = np.clip(1.0 + refs.axes @ n, 1e-300, None) / 4.0
    ratio = alpha / np.where(refs.free, refs.m_flat, 1.0)
    return np.where(refs.free, np.clip(np.log(ratio), -200.0, 200.0), 0.0)


def _remainder_fit(
    refs: _Refs, n: np.ndarray, iters: int, grad_tol: float
) -> tuple[np.ndarray, int]:
    """Direction minimizing D(m || alpha(n)) = -sum m_i ln(1 + n.v_i) + const
    over the unit sphere (psi(0)'s primal, where p = m), by at most ``iters``
    Riemannian Newton steps from ``n``; returns it and the steps taken.

    Outside the zero region this convex problem over the Bloch ball has its
    minimum on the sphere, and there V is parallel to n, so ln(alpha(n) / m)
    is psi(0)'s optimal multiplier, away from the kink V = 0 that a Newton
    solve in lam can stall on.
    """
    m, v = refs.m_flat[refs.free], refs.axes[refs.free]

    def value(n: np.ndarray) -> float:
        a = 1.0 + v @ n
        return -float(m @ np.log(a)) if np.all(a > 0.0) else math.inf

    f = value(n)
    if not math.isfinite(f):
        # n is the antipode of a cell's axis, where a = 0 and D = +inf (a
        # Bloch fit along collinear axes); start instead perpendicular to
        # every axis, where each a = 1
        n = np.linalg.svd(v)[2][-1]
        f = value(n)
    for steps in range(iters):
        a = 1.0 + v @ n
        grad = -(m / a) @ v
        mu = -float(n @ grad)
        tangent = grad + mu * n
        if np.max(np.abs(tangent)) < grad_tol:
            return n, steps
        step = -tangent
        if mu > 0.0:
            # the Riemannian Hessian P H P + mu P, with n n^T on the normal
            proj = np.eye(3) - np.outer(n, n)
            hess = proj @ ((m / (a * a)) * v.T) @ v @ proj + mu * proj + np.outer(n, n)
            step = -np.linalg.solve(hess, tangent)
        t = 1.0
        for _ in range(30):
            trial = n + t * step
            trial /= np.linalg.norm(trial)
            f_trial = value(trial)
            if f_trial <= f + 1e-15:
                n, f = trial, f_trial
                break
            t *= 0.5
        else:
            return n, steps + 1
    return n, iters


# A candidate is (k_frac, n, a one-row _Dual whose (q, p) is the point at
# (k_frac, n), a lower bound on min R), or None when it does not apply.
_Candidate = tuple[float, np.ndarray, _Dual, float]


def _zero_region_candidate(
    problem: TwoBasisSampling, refs: _Refs, opts: SolverOptions
) -> _Candidate | None:
    """Inside the zero region the minimum-norm Bloch fit r gives R = 0 at
    k_frac = (1 - |r|) / 2 with n = r / |r|, and R >= 0 certifies it."""
    if not zero_region_contains(problem):
        return None
    norm, n = _bloch_fit(problem)
    k_frac = (1.0 - min(norm, 1.0 - 1e-12)) / 2.0
    _, sol = _rate_batch(problem, np.array([k_frac]), n[None], opts.newton_iters, opts.grad_tol)
    return k_frac, n, sol, 0.0


def _collinear_candidate(
    problem: TwoBasisSampling, refs: _Refs, opts: SolverOptions
) -> _Candidate | None:
    """Collinear bases measure one observable: k_frac = 0 with p = m and
    n.u_0 = 2 d - 1, d the pooled ones fraction (outcomes of an antipodal
    second basis swapped), n otherwise perpendicular to u_0.  At
    lam = ln(alpha(n) / m) V vanishes, so the dual bound there equals the
    classical sampling-without-replacement exponent that this point attains."""
    u0 = refs.axes[1]
    cos_w = float(u0 @ refs.axes[3])
    if 1.0 - cos_w * cos_w >= 1e-12:
        return None
    w0 = problem.m0 / problem.m_total
    d1 = problem.delta1 if cos_w > 0.0 else 1.0 - problem.delta1
    c_bar = 2.0 * (w0 * problem.delta0 + (1.0 - w0) * d1) - 1.0
    perp = np.cross(u0, np.eye(3)[int(np.argmin(np.abs(u0)))])
    n = c_bar * u0 + math.sqrt(max(0.0, 1.0 - c_bar * c_bar)) * perp / np.linalg.norm(perp)
    n /= np.linalg.norm(n)
    lam = _lam_fit(refs, n)
    sol = _dual_at(lam[None], np.array([1.0]), refs.log_beta, _log_alpha(refs, n[None]), refs.m_flat)
    star, _, _ = _dual_star(lam, 0.0, refs)
    return 0.0, n, sol, _lower_bound(star, refs)


def _dual_candidate(
    problem: TwoBasisSampling, refs: _Refs, opts: SolverOptions
) -> _Candidate | None:
    """The minimizer of the convex psi(k_frac), with n* and (q, p) from its
    optimal multipliers.  The search starts at lam_0 = ln(alpha(n_0) / m),
    n_0 the remainder fit from the normalized Bloch fit (not at lam = 0,
    where V = 0 is a kink)."""
    n0, steps = _remainder_fit(refs, _bloch_fit(problem)[1], opts.newton_iters, opts.grad_tol)
    # psi(0)'s solve spends one newton_iters budget across n and then lam
    found = _search_k(refs, _lam_fit(refs, n0), opts.newton_iters - steps,
                      opts.newton_iters, opts.grad_tol)
    if found is None:
        return None
    k_frac, sol, n = found
    return k_frac, n, sol, _lower_bound(sol, refs)


def _certified(
    problem: TwoBasisSampling, k_frac: float, n: np.ndarray, sol: _Dual, lower: float,
    r_nats: float | None = None,
) -> ExponentSolution:
    """The solution at (k_frac, n) with the row's (q, p).  ``r_nats``
    defaults to the lower bound (at least 0); ``gap`` is r_primal minus the
    bound.  DomainError when the point misses the counts by more than
    CERT_TOL."""
    point = _point_from_solution(k_frac, n, sol.q[0], sol.p[0])
    r_primal = exponent_direct(point, problem)
    residual = count_residual(point, problem)
    gap = r_primal - lower
    r = max(lower, 0.0) if r_nats is None else r_nats
    return ExponentSolution(
        point=point,
        r_nats=r,
        r_bits=r / LN2,
        converged=bool(gap <= GAP_TOL),
        residual=residual,
        r_primal=r_primal,
        gap=gap,
    )


# ---------------------------------------------------------------------------
# fallback: coarse scan plus L-BFGS-B restarts
# ---------------------------------------------------------------------------


def _fibonacci_sphere(n: int) -> np.ndarray:
    idx = np.arange(n, dtype=float) + 0.5
    z = 1.0 - 2.0 * idx / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    ang = golden * idx
    return np.stack([r * np.cos(ang), r * np.sin(ang), z], axis=1)


def _scan_min(problem: TwoBasisSampling, opts: SolverOptions) -> ExponentSolution:
    """Minimum from a (k_frac grid) x (Fibonacci sphere) scan with the batched
    dual solver, refined by bounded L-BFGS-B over (k_frac, n) from the best
    scan cells, the minimum-norm Bloch fit and seeded random starts, with the
    gradient from the envelope theorem.  Every value compared is certified by
    a point reproducing the counts to CERT_TOL; DomainError when the returned
    point misses them.  ``gap`` comes from the dual bound at the final
    point's multipliers."""
    # the package's one use of SciPy, imported here so that no other path
    # pays for loading it
    from scipy import optimize

    rng = np.random.default_rng(opts.seed)
    refs = _refs(problem)

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
        starts.append(((1.0 - min(radius, 1.0 - 1e-12)) / 2.0, _bloch_fit(problem)[1]))

    while len(starts) < opts.restarts:
        v = rng.normal(size=3)
        starts.append((float(rng.uniform(0.0, 0.5)), v / np.linalg.norm(v)))

    def objective(x: np.ndarray, seen: list) -> tuple[float, np.ndarray]:
        rate, grad = _rate_and_grad(problem, x, opts.newton_iters, opts.grad_tol)
        if math.isfinite(rate):
            seen.append((rate, float(x[0]), x[1:] / np.linalg.norm(x[1:])))
        return rate, grad

    bounds = [(0.0, refs.k_max), (None, None), (None, None), (None, None)]
    refined: list[tuple[float, float, np.ndarray]] = []
    for k0, n0 in starts[: opts.restarts]:
        # keep the best certified evaluation, whatever point the search
        # reports when its line search ends abnormally
        seen: list[tuple[float, float, np.ndarray]] = [(math.inf, k0, n0)]
        optimize.minimize(
            objective,
            np.concatenate([[min(k0, refs.k_max)], n0]),
            args=(seen,),
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"ftol": 1e-14, "gtol": 1e-10, "maxiter": 200},
        )
        refined.append(min(seen, key=lambda t: t[0]))

    best_val, best_k, best_n = min(refined, key=lambda t: t[0])
    if not math.isfinite(best_val):
        raise DomainError("no start reproduced the observed counts; solver failure")

    _, sol = _rate_batch(
        problem, np.array([best_k]), best_n[None, :], opts.newton_iters, opts.grad_tol
    )
    star, _, _ = _dual_star(sol.lam[0], best_k, refs)
    out = _certified(problem, best_k, best_n, sol, _lower_bound(star, refs), max(best_val, 0.0))
    if best_val < -1e-9:
        raise DomainError(f"negative exponent {best_val!r}; solver failure")
    return out


def min_exponent(problem: TwoBasisSampling, options: SolverOptions | None = None) -> ExponentSolution:
    """Certified global minimum of the exponent over all decompositions.

    Three candidates are tried in order; the first whose point reproduces
    the counts to CERT_TOL with a primal-dual gap r_primal - L <= GAP_TOL is
    returned, with r_nats the bound L (at least 0):

    1. inside the zero region, the minimum-norm Bloch fit (R = 0, and
       R >= 0 is the bound);
    2. for collinear bases, k_frac = 0 with p = m, whose dual bound is the
       classical sampling-without-replacement exponent;
    3. otherwise the minimizer of the convex psi(k_frac), the dual
       maximized over its multipliers after a closed-form minimum over n,
       found by a bracketed root search on its slope.

    L is the weak-duality bound at the candidate's multipliers.  Only when
    no candidate certifies does the coarse scan with L-BFGS-B refinement
    run (the fields of SolverOptions other than ``newton_iters`` and
    ``grad_tol`` only steer that fallback); its ``converged`` reports whether
    its own gap closed.  DomainError when the returned point misses the
    counts.
    """
    opts = options or SolverOptions()
    refs = _refs(problem)
    for candidate in (_zero_region_candidate, _collinear_candidate, _dual_candidate):
        found = candidate(problem, refs, opts)
        if found is None:
            continue
        try:
            sol = _certified(problem, *found)
        except DomainError:
            continue
        if sol.converged:
            return sol
    return _scan_min(problem, opts)
