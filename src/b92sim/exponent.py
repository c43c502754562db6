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
taken at both ends of k_frac with the singlet reference Z_q, by at most
GAP_TOL.  Otherwise min_exponent raises DomainError.

A query runs on plain floats: an instance reads its four outcome kets, their
Bloch axes v_bj, its four count fractions and its Bloch fit once, and the
solver builds arrays only for the point it returns.  The array functions
singlet_pair_probs, remainder_probs, count_residual, exponent_direct,
exponent_decomposed and bloch_fit_radius wrap the same float kernels: beta
in its determinant form (so impossible pairs are exactly 0), alpha_i(n) =
(1 + n.v_i) / 4 and the divergence _divergence, which
security.relative_entropy reads too.  A point's floats are q as a 4x4
matrix [b j][b' j'] and p flattened [b j].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from ._brent import brent_root
from .errors import DomainError, ParameterError

if TYPE_CHECKING:
    import numpy as np

LN2 = math.log(2.0)
SQRT2 = math.sqrt(2.0)
# largest count residual of a point that certifies an exponent value
CERT_TOL = 1e-8
# largest primal-dual gap that certifies a point as the global minimum
GAP_TOL = 1e-8
_ZERO_REGION_EDGE = 1.0 + 1e-9  # largest Bloch-fit radius in the zero region


def _as_basis(mat) -> np.ndarray:
    """Validate a 2x2 array whose rows are an orthonormal ket pair."""
    import numpy as np

    b = np.array(mat, dtype=complex)
    if b.shape != (2, 2):
        raise ParameterError("a basis is a 2x2 array of row kets")
    (a0, a1), (c0, c1) = b.tolist()
    gram = (abs(a0) ** 2 + abs(a1) ** 2 - 1.0, abs(c0) ** 2 + abs(c1) ** 2 - 1.0,
            a0 * c0.conjugate() + a1 * c1.conjugate())
    # written so that a nan entry fails too
    if not all(abs(g) <= 1e-12 for g in gram):
        raise ParameterError("basis rows are not orthonormal to 1e-12")
    b.setflags(write=False)
    return b


def basis_from_bloch(theta: float, phi: float = 0.0) -> np.ndarray:
    """Basis whose outcome-1 ket points along Bloch angles (theta, phi)."""
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ParameterError("Bloch angles must be finite")
    return basis_from_ket((math.cos(theta / 2.0),
                           math.sin(theta / 2.0) * complex(math.cos(phi), math.sin(phi))))


def basis_from_ket(one) -> np.ndarray:
    """Basis whose outcome-1 ket is the unit ket ``one``, completed by the
    orthogonal ket (-conj(one[1]), conj(one[0]))."""
    import numpy as np

    a0, a1 = complex(one[0]), complex(one[1])
    return np.array([[-a1.conjugate(), a0.conjugate()], [a0, a1]])


def _bloch(a0: complex, a1: complex) -> tuple[float, float, float]:
    cross = a0.conjugate() * a1
    return 2.0 * cross.real, 2.0 * cross.imag, abs(a0) ** 2 - abs(a1) ** 2


def bloch_vector(ket: np.ndarray) -> np.ndarray:
    import numpy as np

    return np.array(_bloch(complex(ket[0]), complex(ket[1])))


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _comb(s: float, u, t: float, v) -> list[float]:
    """The 3-vector s u + t v."""
    return [s * u[0] + t * v[0], s * u[1] + t * v[1], s * u[2] + t * v[2]]


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
        import numpy as np

        return np.stack([self.basis0, self.basis1])

    def count_fractions(self) -> np.ndarray:
        """(2, 2) array m[b, j] of observed count fractions n_{b,j} / M."""
        import numpy as np

        return np.array(self._fractions).reshape(2, 2)

    def weight_entropy(self) -> float:
        """Entropy of the basis-choice weights, in nats."""
        m = self.m_total
        out = 0.0
        for mb in (self.m0, self.m1):
            w = mb / m
            out -= w * math.log(w)
        return out

    @cached_property
    def _fractions(self) -> list[float]:
        """The count fractions, flattened [b, j]."""
        m = self.m_total
        w0, w1 = self.m0 / m, self.m1 / m
        return [w0 * (1.0 - self.delta0), w0 * self.delta0,
                w1 * (1.0 - self.delta1), w1 * self.delta1]

    @cached_property
    def _axes(self) -> list[tuple[float, float, float]]:
        """Outcome Bloch axes v_bj, flattened [b, j]."""
        return [_bloch(*ket) for ket in self.basis0.tolist() + self.basis1.tolist()]

    @cached_property
    def _beta(self) -> list[list[float]]:
        """singlet_pair_probs as a 4x4 matrix [b j][b' j']: |det[u; v]*|^2 / 8."""
        kets = [(u.conjugate(), v.conjugate())
                for u, v in self.basis0.tolist() + self.basis1.tolist()]
        return [[abs((u0 * v1 - u1 * v0) / SQRT2) ** 2 / 4.0 for v0, v1 in kets]
                for u0, u1 in kets]

    @cached_property
    def _fit(self) -> tuple[float, list[float] | None]:
        """Norm and vector of the smallest Bloch vector r reproducing both
        outcome means, r.u_b = c_b = 2 delta_b - 1: r = c_0 u_0 + r_b b in the
        orthonormal axes (u_0, b) of _plane, with r_b = (c_1 - c_0 cos w) / u_1.b,
        or c_0 u_0 when the two are collinear.  Solving in those axes divides
        by sin w, not by the sin^2 w of the Gram solve, so bases a few
        microradians from aligned or antipodal still reproduce both means to
        rounding.  (inf, None) when they are collinear but the observed
        fractions disagree (no state gives two different means of one
        observable)."""
        u0, u1 = self._axes[1], self._axes[3]
        c0, c1 = 2.0 * self.delta0 - 1.0, 2.0 * self.delta1 - 1.0
        cos_w = min(max(_dot(u0, u1), -1.0), 1.0)
        if 1.0 - cos_w * cos_w < 1e-12:
            if abs(c0 - c1 if cos_w > 0.0 else c0 + c1) > 1e-9:
                return math.inf, None
            return abs(c0), [c0 * x for x in u0]
        b = _plane(u0, u1)
        r_b = (c1 - c0 * cos_w) / _dot(u1, b)
        return math.hypot(c0, r_b), _comb(c0, u0, r_b, b)


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
        import numpy as np

        if not 0.0 <= self.k_frac <= 0.5:
            raise ParameterError("k_frac must lie in [0, 1/2]")
        n = np.asarray(self.bloch_n, dtype=float)
        q = np.asarray(self.q, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if n.shape != (3,) or q.shape != (2, 2, 2, 2) or p.shape != (2, 2):
            raise ParameterError("bloch_n must be a 3-vector, q (2,2,2,2) and p (2,2)")
        flat_n, flat_q, flat_p = n.tolist(), q.ravel().tolist(), p.ravel().tolist()
        if not all(map(math.isfinite, flat_n + flat_q + flat_p)):
            raise ParameterError("bloch_n, q and p must be finite")
        if abs(math.hypot(*flat_n) - 1.0) > 1e-9:
            raise ParameterError("bloch_n must be a unit 3-vector")
        for flat, name in ((flat_q, "q"), (flat_p, "p")):
            if min(flat) < -1e-15:
                raise ParameterError(f"{name} has negative entries")
            if abs(sum(flat) - 1.0) > 1e-12:
                raise ParameterError(f"{name} does not sum to 1")
        for arr, name in ((n, "bloch_n"), (q, "q"), (p, "p")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def pair_marginal_first(self) -> np.ndarray:
        return self.q.sum(axis=(1, 3))

    def pair_marginal_second(self) -> np.ndarray:
        return self.q.sum(axis=(0, 2))

    def implied_count_fractions(self) -> np.ndarray:
        k = self.k_frac
        pairs = self.pair_marginal_first() + self.pair_marginal_second()
        return (1.0 - 2.0 * k) * self.p + k * pairs


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


def _alpha(axes, n) -> list[float]:
    """Remainder reference (1 + n.v_i) / 4 over axes v_i, for the unit vector
    along n."""
    norm = math.sqrt(_dot(n, n))
    return [max(0.0, 1.0 + _dot(n, v) / norm) / 4.0 for v in axes]


def singlet_pair_probs(problem: TwoBasisSampling) -> np.ndarray:
    """Reference pair distribution beta[b, b', j, j'] = S / 4, where S is the
    probability of outcomes (j, j') when a singlet pair is measured in bases
    (b, b').  The singlet amplitude of kets u (x) v is det[u; v]* / sqrt 2."""
    import numpy as np

    return np.array(problem._beta).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)


def remainder_probs(problem: TwoBasisSampling, bloch_n: np.ndarray) -> np.ndarray:
    """Reference remainder distribution alpha[b, j] = |<b,j|n>|^2 / 2
    = (1 + n.v_bj) / 4."""
    import numpy as np

    n = np.asarray(bloch_n, dtype=float).tolist()
    return np.array(_alpha(problem._axes, n)).reshape(2, 2)


def _divergence(p, q) -> float:
    """D(p || q) in nats over flat sequences."""
    if any(a > 0.0 >= b for a, b in zip(p, q)):
        return math.inf
    return sum(a * math.log(a / b) for a, b in zip(p, q) if a > 0.0)


def _point_floats(point: ExponentPoint) -> tuple[float, list, list, list]:
    """(k_frac, n, q [b j][b' j'], p [b j]) of a point."""
    return (point.k_frac, point.bloch_n.tolist(),
            point.q.transpose(0, 2, 1, 3).reshape(4, 4).tolist(), point.p.reshape(4).tolist())


def _residual(k: float, q4, p4, m4) -> float:
    """Largest gap between implied counts (1 - 2k) p + k (q row + q column
    sums) and the observed fractions m4."""
    xi1 = 1.0 - 2.0 * k
    return max(abs(xi1 * p4[i] + k * sum(q4[i]) + k * sum(row[i] for row in q4) - m4[i])
               for i in range(4))


def _check_residual(residual: float) -> float:
    if not residual <= CERT_TOL:
        raise DomainError(
            f"point does not reproduce the observed counts (max deviation {residual:.3e})"
        )
    return residual


def count_residual(point: ExponentPoint, problem: TwoBasisSampling) -> float:
    """Largest gap between the point's implied count fractions and the
    observed ones (0 for a point that reproduces the counts)."""
    k, _, q4, p4 = _point_floats(point)
    return _residual(k, q4, p4, problem._fractions)


def _direct(problem: TwoBasisSampling, k: float, n, q4, p4) -> float:
    """exponent_direct on a point's floats."""
    r = problem.weight_entropy()
    if k > 0.0:
        r += k * (_divergence(sum(q4, []), sum(problem._beta, [])) - 2.0 * LN2)
    xi1 = 1.0 - 2.0 * k
    if xi1 > 0.0:
        r += xi1 * (_divergence(p4, _alpha(problem._axes, n)) - LN2)
    return r


def exponent_direct(point: ExponentPoint, problem: TwoBasisSampling) -> float:
    """Exponent in its raw type-counting form, in nats.

    Weight entropy plus the paired and remainder relative-entropy blocks,
    each offset by the log-size of its reference alphabet.
    """
    k, n, q4, p4 = _point_floats(point)
    _check_residual(_residual(k, q4, p4, problem._fractions))
    return _direct(problem, k, n, q4, p4)


def exponent_decomposed(point: ExponentPoint, problem: TwoBasisSampling) -> float:
    """Exponent regrouped into manifestly nonnegative terms, in nats.

    Algebraically equal to exponent_direct on every count-matching point:
    pair basis-index mutual information, conditional outcome divergences,
    remainder conditional divergence, and the mutual information between
    the decomposition label and the basis index.
    """
    k, n, q4, p4 = _point_floats(point)
    _check_residual(_residual(k, q4, p4, problem._fractions))
    xi1 = 1.0 - 2.0 * k
    cells = ((0, 1), (2, 3))  # the cells [b j] of basis b
    # pair masses q_bb[b][b'] of bases (b, b'), and their marginals q_b, q_b'
    q_bb = [[sum(q4[i][j] for i in rows for j in cols) for cols in cells] for rows in cells]
    q_b, q_bp = [sum(row) for row in q_bb], [sum(col) for col in zip(*q_bb)]
    p_b = [p4[i] + p4[j] for i, j in cells]
    r = 0.0

    if k > 0.0:
        beta = problem._beta
        r += k * _divergence(sum(q_bb, []), [a * c for a in q_b for c in q_bp])
        for b, rows in enumerate(cells):
            for bp, cols in enumerate(cells):
                if q_bb[b][bp] <= 0.0:
                    continue
                beta_bb = sum(beta[i][j] for i in rows for j in cols)
                r += k * q_bb[b][bp] * _divergence(
                    [q4[i][j] / q_bb[b][bp] for i in rows for j in cols],
                    [beta[i][j] / beta_bb for i in rows for j in cols])

    if xi1 > 0.0:
        alpha = _alpha(problem._axes, n)
        for b, (i, j) in enumerate(cells):
            if p_b[b] <= 0.0:
                continue
            alpha_b = alpha[i] + alpha[j]
            r += xi1 * p_b[b] * _divergence([p4[i] / p_b[b], p4[j] / p_b[b]],
                                            [alpha[i] / alpha_b, alpha[j] / alpha_b])

    # decomposition-label vs basis-index mutual information
    gamma = [[xi1 * x for x in p_b], [k * x for x in q_b], [k * x for x in q_bp]]
    gamma_b = [sum(col) for col in zip(*gamma)]
    r += _divergence(sum(gamma, []), [sum(row) * c for row in gamma for c in gamma_b])
    return r


def bloch_fit_radius(problem: TwoBasisSampling) -> float:
    """Norm of the smallest Bloch vector reproducing both outcome means
    (infinite when none does)."""
    return problem._fit[0]


def zero_region_contains(problem: TwoBasisSampling) -> bool:
    """Whether a single-qubit state reproduces both observed fractions."""
    return problem._fit[0] <= _ZERO_REGION_EDGE


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
    import numpy as np

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


def _zero_region_point(problem: TwoBasisSampling, r) -> tuple[float, list, list, list]:
    """The R = 0 point of a Bloch fit r with |r| <= 1: k_frac = (1 - |r|) / 2,
    n = r / |r|, q = w_b w_b' 4 beta_bb' and p = w_b |<b,j|n>|^2.  Pairs then
    add k_frac w_b to every cell, so the implied counts are
    w_b (1 + r.v_bj) / 2, the observed ones."""
    norm = math.sqrt(_dot(r, r))
    n = [x / norm for x in r] if norm > 1e-12 else list(problem._axes[1])
    w = [problem.m0 / problem.m_total] * 2 + [problem.m1 / problem.m_total] * 2
    q4 = [[4.0 * (w[i] * w[j] * problem._beta[i][j]) for j in range(4)] for i in range(4)]
    p4 = [2.0 * w[i] * a for i, a in enumerate(_alpha(problem._axes, n))]
    return max(0.0, (1.0 - norm) / 2.0), n, q4, p4


def _plane(u0, u1) -> list[float]:
    """Unit axis b normal to u0 in the plane through u0 and u1; any axis
    normal to u0 when the two are collinear to rounding.  The second
    Gram-Schmidt pass removes what rounding leaves of u0 in b, which at a
    1e-9 rad basis offset is of the order of b itself."""
    b = _comb(1.0, u1, -_dot(u1, u0), u0)
    if math.hypot(*b) <= 1e-12:
        # u0 x e_k for the axis e_k of u0's smallest component
        k = min(range(3), key=lambda i: abs(u0[i]))
        b = [0.0, 0.0, 0.0]
        b[(k + 1) % 3], b[(k + 2) % 3] = u0[(k + 2) % 3], -u0[(k + 1) % 3]
    b = _comb(1.0, b, -_dot(b, u0), u0)
    norm = math.hypot(*b)
    return [x / norm for x in b]


def _circle_fit(m, axes, a, b) -> list[float]:
    """Unit n = cos(phi) a + sin(phi) b minimizing D(m || alpha(n)), that is
    -sum m_i ln(1 + n.v_i), for weights m_i > 0 on axes v_i in the plane of
    a and b.

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
    certificate in min_exponent fails.  A direction on an axis's antipode
    (1 + n.v_i <= 0) scores +inf.
    """
    psi = [math.atan2(_dot(v, b), _dot(v, a)) for v in axes]
    poles = sorted((s + math.pi) % (2.0 * math.pi) for s in psi)

    def scaled_slope(phi: float) -> float:
        # sum_i m_i sin(h_i) prod_{j != i} cos(h_j), one cell at a time:
        # ``prod`` is the product of the cosines seen so far
        total, prod = 0.0, 1.0
        for w, s in zip(m, psi):
            h = (phi - s) / 2.0
            c = math.cos(h)
            total = total * c + w * math.sin(h) * prod
            prod *= c
        return total

    best = (math.inf, list(a))
    for lo, hi in zip(poles, poles[1:] + [poles[0] + 2.0 * math.pi]):
        if hi - lo <= 4e-12:
            continue
        try:
            phi = brent_root(scaled_slope, lo + 1e-12, hi - 1e-12, xtol=1e-15)
        except DomainError:
            continue
        n = _comb(math.cos(phi), a, math.sin(phi), b)
        cells = [1.0 + _dot(n, v) for v in axes]
        if min(cells) <= 0.0:
            continue
        value = -sum(w * math.log(c) for w, c in zip(m, cells))
        if value < best[0]:
            best = (value, n)
    return best[1]


def _exterior_point(problem: TwoBasisSampling) -> tuple[tuple[float, list, list, list], float]:
    """Outside the zero region: the point k_frac = 0, p = m at the circle
    fit n0, and the weak-duality bound at lam0 = ln(alpha(n0) / m) on the
    free cells, minimized over n in closed form and over k_frac at both ends
    of [0, 1/2] (the k_frac = 1/2 end drops when no pair of outcomes with
    nonzero counts is possible)."""
    m, axes, beta = problem._fractions, problem._axes, problem._beta
    free = [i for i in range(4) if m[i] > 0.0]
    n = _circle_fit([m[i] for i in free], [axes[i] for i in free],
                    axes[1], _plane(axes[1], axes[3]))
    alpha = _alpha(axes, n)
    if not all(alpha[i] > 0.0 for i in free):
        raise DomainError("exponent not certified: the remainder misses an observed outcome")
    # w = exp(-lam0) on the free cells, 0 on the others
    w = [m[i] / alpha[i] if i in free else 0.0 for i in range(4)]
    z_q = sum(w[i] * beta[i][j] * w[j] for i in free for j in free)
    big_v = [sum(w[i] * axes[i][x] for i in free) for x in range(3)]
    z_p = (sum(w) + math.sqrt(_dot(big_v, big_v))) / 4.0
    base = problem.weight_entropy() - LN2 + sum(m[i] * math.log(w[i]) for i in free)
    lower = base - math.log(z_p)
    if z_q > 0.0:
        lower = min(lower, base - 0.5 * math.log(z_q))
        q4 = [[beta[i][j] * (w[i] * w[j]) / z_q for j in range(4)] for i in range(4)]
    else:
        # no pair fits the counts; at k_frac = 0 any q stands in
        q4 = [[1.0 / 16.0] * 4 for _ in range(4)]
    return (0.0, n, q4, m), lower


def min_exponent(problem: TwoBasisSampling, options: SolverOptions | None = None) -> ExponentSolution:
    """Certified global minimum of the exponent over all decompositions.

    Inside the zero region it is 0, at the closed-form point of the Bloch
    fit; outside, the k_frac = 0 point of the circle fit, with r_nats the
    weak-duality bound L (at least 0).  ``gap`` = r_primal - L is at most
    GAP_TOL and ``converged`` is always true: DomainError when the point
    misses the counts by more than CERT_TOL or the gap is larger.
    ``options`` is accepted for compatibility and steers nothing.
    """
    import numpy as np

    norm, r = problem._fit
    if norm <= _ZERO_REGION_EDGE:
        (k, n, q4, p4), lower = _zero_region_point(problem, r), 0.0
    else:
        (k, n, q4, p4), lower = _exterior_point(problem)
    residual = _check_residual(_residual(k, q4, p4, problem._fractions))
    r_primal = _direct(problem, k, n, q4, p4)
    gap = r_primal - lower
    if not gap <= GAP_TOL:
        raise DomainError(f"exponent not certified: primal-dual gap {gap:.3e}")
    r_nats = max(lower, 0.0)
    point = ExponentPoint(k_frac=k, bloch_n=np.array(n),
                          q=np.array(q4).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3),
                          p=np.array(p4).reshape(2, 2))
    return ExponentSolution(point=point, r_nats=r_nats, r_bits=r_nats / LN2, converged=True,
                            residual=residual, r_primal=r_primal, gap=gap)
