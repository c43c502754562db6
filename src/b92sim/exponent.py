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
convex program whose entropic dual is a function of four multipliers lam,
one per outcome cell; cells with a zero count drop out.

min_exponent rests on one lemma.  The outcome Bloch axes v_i are +-u_b,
u_b the axis of basis b's outcome-1 ket, so all lie in the plane of u_0 and
u_1; the singlet reference is beta_ij = (1 - v_i.v_j) / 16.  With
w_i = exp(-lam_i) on the free cells, S = sum w_i and V = sum w_i v_i, the
pair partition function is Z_q = (S^2 - |V|^2) / 16 and the remainder's,
maximized over n, is Z_p* = (S + |V|) / 4 at n* = V / |V|.  The
n-minimized dual is affine in k_frac with slope
ln((S + |V|) / (S - |V|)) >= 0 at every lam, so:

- inside the zero region (a Bloch vector r with |r| <= 1 reproduces both
  outcome means) the minimum is 0, at a closed-form point with
  k_frac = (1 - |r|) / 2 and n = r / |r|;
- outside it the minimum sits at k_frac = 0 with p = m, at the n minimizing
  D(m || alpha(n)) on the great circle through u_0 and u_1, a 1-D fit.

Each answer is certified: the point reproduces the counts to CERT_TOL, and
its exponent exceeds the weak-duality bound at lam_0 = ln(alpha(n_0) / m),
taken at both ends of k_frac with Z_q from singlet_pair_probs itself, by at
most GAP_TOL.  Otherwise min_exponent raises DomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._brent import brent_root
from .errors import DomainError, ParameterError

LN2 = math.log(2.0)
# largest count residual of a point that certifies an exponent value
CERT_TOL = 1e-8
# largest primal-dual gap that certifies a point as the global minimum
GAP_TOL = 1e-8
_ZERO_REGION_EDGE = 1.0 + 1e-9  # largest Bloch-fit radius in the zero region
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
    return basis_from_ket(np.array([math.cos(theta / 2.0),
                                    math.sin(theta / 2.0) * np.exp(1j * phi)]))


def basis_from_ket(one: np.ndarray) -> np.ndarray:
    """Basis whose outcome-1 ket is the unit ket ``one``, completed by the
    orthogonal ket (-conj(one[1]), conj(one[0]))."""
    zero = np.array([-one[1].conjugate(), one[0].conjugate()])
    return np.stack([zero, one])


def bloch_vector(ket: np.ndarray) -> np.ndarray:
    a0, a1 = complex(ket[0]), complex(ket[1])
    cross = a0.conjugate() * a1
    return np.array([2.0 * cross.real, 2.0 * cross.imag, abs(a0) ** 2 - abs(a1) ** 2])


def ket_from_bloch(n: np.ndarray) -> np.ndarray:
    nx, ny, nz = (float(v) for v in n)
    # atan2 keeps full precision near the poles, where acos(n_z) loses ~sqrt(eps)
    theta = math.atan2(math.hypot(nx, ny), nz)
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
    """Solver settings: ``seed`` backs the CLI's ``exponent --seed`` and is
    validated, but min_exponent's closed forms and 1-D fit draw no samples."""

    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.seed < math.inf:
            raise ParameterError("seed must be finite and nonnegative")


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


def _bloch_fit(problem: TwoBasisSampling) -> tuple[float, np.ndarray | None]:
    """Norm and vector of the smallest Bloch vector r reproducing both
    outcome means, r.u_b = 2 delta_b - 1: r = c_0 u_0 + r_b b in the
    orthonormal axes (u_0, b) of _plane, with r_b = (c_1 - c_0 cos w) / u_1.b,
    or c_0 u_0 when the two are collinear.  Solving in those axes divides by
    sin w, not by the sin^2 w of the Gram solve, so bases a few microradians
    from aligned or antipodal still reproduce both means to rounding.
    (inf, None) when they are collinear but the observed fractions disagree
    (no state gives two different means of one observable)."""
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
            return math.inf, None
        return abs(c0), c0 * u0
    _, b = _plane(u0, u1)
    r_b = (c1 - c0 * cos_w) / (u1 @ b)
    return math.hypot(c0, r_b), c0 * u0 + r_b * b


def bloch_fit_radius(problem: TwoBasisSampling) -> float:
    """Norm of the smallest Bloch vector reproducing both outcome means
    (infinite when none does)."""
    return _bloch_fit(problem)[0]


def zero_region_contains(problem: TwoBasisSampling) -> bool:
    """Whether a single-qubit state reproduces both observed fractions."""
    return bloch_fit_radius(problem) <= _ZERO_REGION_EDGE


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
# the certified minimum
# ---------------------------------------------------------------------------


def _zero_region_point(problem: TwoBasisSampling, r: np.ndarray) -> ExponentPoint:
    """The R = 0 point of a Bloch fit r with |r| <= 1: k_frac = (1 - |r|) / 2,
    n = r / |r|, q = w_b w_b' 4 beta_bb' and p = w_b |<b,j|n>|^2.  Pairs then
    add k_frac w_b to every cell, so the implied counts are
    w_b (1 + r.v_bj) / 2, the observed ones."""
    norm = float(np.linalg.norm(r))
    n = r / norm if norm > 1e-12 else bloch_vector(problem.basis0[1])
    w = np.array([problem.m0, problem.m1]) / problem.m_total
    q = 4.0 * np.einsum("b,c,bcjk->bcjk", w, w, singlet_pair_probs(problem))
    p = 2.0 * w[:, None] * remainder_probs(problem, n)
    return ExponentPoint(k_frac=max(0.0, (1.0 - norm) / 2.0), bloch_n=n, q=q, p=p)


def _plane(u0: np.ndarray, u1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal axes (u0, b) of the plane through u0 and u1; b is any axis
    normal to u0 when the two are collinear to rounding.  The second
    Gram-Schmidt pass removes what rounding leaves of u0 in b, which at a
    1e-9 rad basis offset is of the order of b itself."""
    b = u1 - (u1 @ u0) * u0
    if np.linalg.norm(b) <= 1e-12:
        b = np.cross(u0, np.eye(3)[int(np.argmin(np.abs(u0)))])
    b = b - (b @ u0) * u0
    return u0, b / np.linalg.norm(b)


def _circle_fit(m: np.ndarray, axes: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unit n = cos(phi) a + sin(phi) b minimizing D(m || alpha(n)), that is
    -sum m_i ln(1 + n.v_i), for weights m (K,) > 0 on axes v (K, 3) in the
    plane of a and b.

    With psi_i the angle of v_i in the plane, 1 + n.v_i = 2 cos^2((phi -
    psi_i) / 2), so the slope in phi is sum m_i tan((phi - psi_i) / 2): it
    rises from -inf to +inf between consecutive poles psi_i + pi, and each
    arc between poles holds exactly one minimum.  Its root is found by
    brent_root on the slope times the product of the cosines, which is
    finite and keeps the slope's sign inside the arc; the lowest arc
    minimum wins.  The bracket stops 1e-12 short of each pole, where the
    cosine is still far above its rounding.  An arc with no sign change
    there (narrower than about 1e-11 rad, or with its minimum that close to
    a pole) is skipped; should its minimum be the global one, the
    certificate in min_exponent fails.
    """
    psi = np.arctan2(axes @ b, axes @ a)
    poles = sorted(np.mod(psi + math.pi, 2.0 * math.pi).tolist())
    psi_list, weights = psi.tolist(), m.tolist()

    def scaled_slope(phi: float) -> float:
        half = [(phi - s) / 2.0 for s in psi_list]
        cos_h = [math.cos(h) for h in half]
        total = 0.0
        for i, h in enumerate(half):
            term = weights[i] * math.sin(h)
            for j, c in enumerate(cos_h):
                if j != i:
                    term *= c
            total += term
        return total

    best = (math.inf, a)
    for lo, hi in zip(poles, poles[1:] + [poles[0] + 2.0 * math.pi]):
        if hi - lo <= 4e-12:
            continue
        try:
            phi = brent_root(scaled_slope, lo + 1e-12, hi - 1e-12, xtol=1e-15)
        except DomainError:
            continue
        n = math.cos(phi) * a + math.sin(phi) * b
        with np.errstate(divide="ignore"):
            value = -float(m @ np.log(np.clip(1.0 + axes @ n, 0.0, None)))
        if value < best[0]:
            best = (value, n)
    return best[1]


def _exterior_point(problem: TwoBasisSampling) -> tuple[ExponentPoint, float]:
    """Outside the zero region: the point k_frac = 0, p = m at the circle
    fit n0, and the weak-duality bound at lam0 = ln(alpha(n0) / m) on the
    free cells, minimized over n in closed form and over k_frac at both ends
    of [0, 1/2] (Z_q from singlet_pair_probs; the k_frac = 1/2 end drops
    when no pair of outcomes with nonzero counts is possible)."""
    m = problem.count_fractions().reshape(4)
    free = m > 0.0
    # outcome Bloch axes v, flattened [b, j]: alpha = (1 + n.v) / 4
    axes = np.array([bloch_vector(ket) for ket in problem.kets().reshape(4, 2)])
    n = _circle_fit(m[free], axes[free], *_plane(axes[1], axes[3]))
    alpha = (1.0 + axes @ n) / 4.0
    if not np.all(alpha[free] > 0.0):
        raise DomainError("exponent not certified: the remainder misses an observed outcome")
    # w = exp(-lam0) on the free cells, 0 on the others
    w = np.zeros(4)
    w[free] = m[free] / alpha[free]
    beta = singlet_pair_probs(problem).transpose(0, 2, 1, 3).reshape(4, 4)
    z_q = float(w @ beta @ w)
    z_p = (w.sum() + float(np.linalg.norm(w @ axes))) / 4.0
    base = problem.weight_entropy() - LN2 + float(m[free] @ np.log(w[free]))
    lower = base - math.log(z_p)
    if z_q > 0.0:
        lower = min(lower, base - 0.5 * math.log(z_q))
        q = beta * np.outer(w, w) / z_q
    else:
        # no pair fits the counts; at k_frac = 0 any q stands in
        q = np.full((4, 4), 1.0 / 16.0)
    q = q.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
    return ExponentPoint(k_frac=0.0, bloch_n=n, q=q, p=problem.count_fractions()), lower


def min_exponent(problem: TwoBasisSampling, options: SolverOptions | None = None) -> ExponentSolution:
    """Certified global minimum of the exponent over all decompositions.

    Inside the zero region it is 0, at the closed-form point of the Bloch
    fit; outside, the k_frac = 0 point of the circle fit, with r_nats the
    weak-duality bound L (at least 0).  ``gap`` = r_primal - L is at most
    GAP_TOL and ``converged`` is always true: DomainError when the point
    misses the counts by more than CERT_TOL or the gap is larger.
    ``options`` is accepted for compatibility and steers nothing.
    """
    norm, r = _bloch_fit(problem)
    if norm <= _ZERO_REGION_EDGE:
        point, lower = _zero_region_point(problem, r), 0.0
    else:
        point, lower = _exterior_point(problem)
    r_primal = exponent_direct(point, problem)
    gap = r_primal - lower
    if not gap <= GAP_TOL:
        raise DomainError(f"exponent not certified: primal-dual gap {gap:.3e}")
    r_nats = max(lower, 0.0)
    return ExponentSolution(
        point=point,
        r_nats=r_nats,
        r_bits=r_nats / LN2,
        converged=True,
        residual=count_residual(point, problem),
        r_primal=r_primal,
        gap=gap,
    )
