"""Exact complex linear algebra for one- and two-qubit objects.

States and operators are stored as dense complex arrays in the computational
(Z) basis.  The X basis is related by |j_z> = [|0_x> + (-1)^j |1_x>]/sqrt(2),
i.e. |0_x>, |1_x> are the +1/-1 eigenvectors of the Pauli X operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, ParameterError

ALPHA_SUP = 1.0 / math.sqrt(2.0)

NORM_TOL = 1e-12
HERM_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10

KET_0Z = np.array([1.0, 0.0], dtype=complex)
KET_1Z = np.array([0.0, 1.0], dtype=complex)
KET_0X = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
KET_1X = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# X-basis product kets |i_x j_x>, rows in index order (0,0), (0,1), (1,0), (1,1)
XX_KETS = np.array([np.kron(a, b) for a in (KET_0X, KET_1X) for b in (KET_0X, KET_1X)])


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def check_alpha(alpha: float, *, include_sup: bool = False) -> None:
    hi_ok = alpha <= ALPHA_SUP + 1e-15 if include_sup else alpha < ALPHA_SUP
    if not (0.0 < alpha and hi_ok):
        bound = "(0, 1/sqrt(2)]" if include_sup else "(0, 1/sqrt(2))"
        raise ParameterError(f"alpha={alpha!r} outside {bound}")


def projector(ket: np.ndarray) -> np.ndarray:
    """Rank-1 projector |psi><psi| of a state vector."""
    v = np.asarray(ket, dtype=complex)
    return np.outer(v, v.conj())


def projectors(kets: np.ndarray) -> np.ndarray:
    """Stack of rank-1 projectors, one per row of ``kets``."""
    return kets[:, :, None] * kets.conj()[:, None, :]


X_PROJECTORS = projectors(np.array([KET_0X, KET_1X]))


def born(rho: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Weights Tr[rho E_k] for a stack ``ops`` of operators E_k.

    ``rho`` may carry leading batch axes; the result then has shape
    ``rho.shape[:-2] + (len(ops),)``.
    """
    return np.einsum("...ij,kji->...k", rho, ops).real


def post_channel_states(psi: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """sum_k (I x K_k)|psi><psi|(I x K_k)^dagger for a two-qubit ket.

    ``ops`` has shape (..., n_kraus, 2, 2); each leading index gives one
    output matrix.  Uses (I x K)|psi> = psi.reshape(2, 2) @ K.T, so no 4x4
    Kronecker product is formed.
    """
    kets = (np.reshape(psi, (2, 2)) @ np.swapaxes(ops, -1, -2)).reshape(*ops.shape[:-2], 4)
    return np.einsum("...ki,...kj->...ij", kets, kets.conj())


@dataclass(frozen=True)
class StateVector:
    """Unit complex vector of dimension 2 or 4.

    ``basis_label`` is purely documentary; amplitudes are always stored in the
    computational basis.
    """

    amplitudes: np.ndarray
    basis_label: str = "Z"

    def __post_init__(self) -> None:
        amp = _frozen(self.amplitudes)
        if amp.shape not in ((2,), (4,)):
            raise ParameterError(f"state dimension must be 2 or 4, got shape {amp.shape}")
        norm = float(np.vdot(amp, amp).real)
        # written so that a nan or inf entry fails too, as in the checks below
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ParameterError(f"state not normalized: |psi|^2 = {norm!r}")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density(self) -> "DensityMatrix":
        return DensityMatrix(projector(self.amplitudes))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD complex matrix of dimension 2 or 4."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = _frozen(self.entries)
        if m.shape not in ((2, 2), (4, 4)):
            raise ParameterError(f"density matrix must be 2x2 or 4x4, got {m.shape}")
        if not np.max(np.abs(m - m.conj().T)) <= HERM_TOL:
            raise ParameterError("density matrix not finite and Hermitian")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
            raise ParameterError(f"density matrix trace {np.trace(m)!r} != 1")
        if np.min(np.linalg.eigvalsh(m)) < -PSD_TOL:
            raise ParameterError("density matrix has a significantly negative eigenvalue")
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class Povm:
    """Measurement given by PSD elements that sum to the identity."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        elems = tuple(_frozen(e) for e in self.elements)
        if not elems:
            raise ParameterError("POVM needs at least one element")
        d = elems[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for e in elems:
            if e.shape != (d, d):
                raise ParameterError("POVM elements must share one square shape")
            if not np.max(np.abs(e - e.conj().T)) <= HERM_TOL:
                raise ParameterError("POVM element not finite and Hermitian")
            if np.min(np.linalg.eigvalsh(e)) < -PSD_TOL:
                raise ParameterError("POVM element not positive semidefinite")
            total = total + e
        if np.max(np.abs(total - np.eye(d))) > NORM_TOL:
            raise ParameterError("POVM elements do not sum to the identity")
        object.__setattr__(self, "elements", elems)

    def __len__(self) -> int:
        return len(self.elements)

    def outcome_probabilities(self, rho: DensityMatrix | np.ndarray) -> np.ndarray:
        m = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
        return born(m, np.asarray(self.elements))


@dataclass(frozen=True)
class FilterOp:
    """Local filter alpha|0_x><0_x| + beta|1_x><1_x| with beta = sqrt(1-alpha^2)."""

    matrix: np.ndarray
    alpha: float

    def __post_init__(self) -> None:
        check_alpha(self.alpha)
        m = _frozen(self.matrix)
        if not np.isfinite(m).all():
            raise ParameterError("filter matrix must be finite")
        object.__setattr__(self, "matrix", m)

    @property
    def beta(self) -> float:
        return math.sqrt(1.0 - self.alpha**2)

    def squared(self) -> np.ndarray:
        return self.matrix @ self.matrix


@dataclass(frozen=True)
class KrausChannel:
    """Trace-preserving single-qubit channel in Kraus form."""

    kraus_ops: tuple[np.ndarray, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ops = tuple(_frozen(k) for k in self.kraus_ops)
        if not ops:
            raise ParameterError("channel needs at least one Kraus operator")
        total = sum(k.conj().T @ k for k in ops)
        if not np.max(np.abs(total - np.eye(2))) <= NORM_TOL:
            raise ParameterError("Kraus operators do not satisfy completeness")
        object.__setattr__(self, "kraus_ops", ops)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        m = np.asarray(rho, dtype=complex)
        return sum(k @ m @ k.conj().T for k in self.kraus_ops)


def identity_channel() -> KrausChannel:
    return KrausChannel((np.eye(2, dtype=complex),))


def ket_x(j: int) -> np.ndarray:
    """X-basis state |j_x> as computational-basis amplitudes."""
    return KET_0X if j == 0 else KET_1X


def ket_z(j: int) -> np.ndarray:
    return KET_0Z if j == 0 else KET_1Z


def signal_state(j: int, alpha: float) -> StateVector:
    """Sender's state beta|0_x> + (-1)^j alpha|1_x> for bit value j."""
    check_alpha(alpha)
    if j not in (0, 1):
        raise ParameterError("bit value must be 0 or 1")
    beta = math.sqrt(1.0 - alpha**2)
    return StateVector(beta * KET_0X + (-1) ** j * alpha * KET_1X, basis_label="X")


def dual_state(j: int, alpha: float) -> StateVector:
    """Unit state orthogonal to signal_state(j, alpha)."""
    check_alpha(alpha)
    if j not in (0, 1):
        raise ParameterError("bit value must be 0 or 1")
    return StateVector(_dual_ket(j, alpha), basis_label="X")


def _dual_ket(j: int, alpha: float) -> np.ndarray:
    beta = math.sqrt(1.0 - alpha**2)
    return alpha * KET_0X - (-1) ** j * beta * KET_1X


def b92_povm(alpha: float) -> Povm:
    """Receiver's three-outcome measurement, in outcome order (0, 1, null).

    Outcome j fires only on states orthogonal to the opposite signal, so a
    conclusive outcome identifies the sent bit; the null element absorbs the
    rest of the identity.
    """
    check_alpha(alpha)
    elements = b92_povm_elements(alpha)
    if np.min(np.linalg.eigvalsh(elements[2])) < -PSD_TOL:
        raise ConsistencyError("null element not PSD; invalid construction")
    return Povm(tuple(elements))


def b92_povm_elements(alpha: float) -> np.ndarray:
    """Elements of b92_povm(alpha) stacked in outcome order, unvalidated,
    for hot numeric paths."""
    f0 = projector(_dual_ket(1, alpha)) / 2.0
    f1 = projector(_dual_ket(0, alpha)) / 2.0
    return np.stack([f0, f1, np.eye(2, dtype=complex) - f0 - f1])


def filter_op(alpha: float) -> FilterOp:
    """Local filter diagonal in the X basis with eigenvalues (alpha, beta)."""
    check_alpha(alpha)
    return FilterOp(filter_matrix(alpha), alpha)


def filter_matrix(alpha: float) -> np.ndarray:
    """Matrix of filter_op(alpha), unvalidated, for hot numeric paths."""
    beta = math.sqrt(1.0 - alpha**2)
    return alpha * X_PROJECTORS[0] + beta * X_PROJECTORS[1]


def check_pair_basis(alpha: float) -> tuple[StateVector, StateVector, StateVector, StateVector]:
    """Orthonormal two-qubit basis used for the check-pair bookkeeping.

    Index (0,0) is the ideal entangled signal state; (1,1) and (0,1) span the
    error events of the local Z x B92 measurement; (1,0) completes the basis.
    Returned in index order ((0,0), (0,1), (1,0), (1,1)).
    """
    check_alpha(alpha)
    return tuple(StateVector(g, basis_label="X") for g in check_basis_kets(alpha))


def check_basis_kets(alpha: float) -> np.ndarray:
    """Kets of check_pair_basis(alpha) as rows of a 4x4 array, unvalidated."""
    beta = math.sqrt(1.0 - alpha**2)
    xx00, xx01, xx10, xx11 = XX_KETS
    return np.array([
        beta * xx00 + alpha * xx11,
        beta * xx01 - alpha * xx10,
        alpha * xx01 + beta * xx10,
        alpha * xx00 - beta * xx11,
    ])


def error_povm_element(alpha: float) -> np.ndarray:
    """Two-qubit POVM element whose weight is the check-pair error probability."""
    g00, g01, g10, g11 = check_pair_basis(alpha)
    return (projector(g11.amplitudes) + projector(g01.amplitudes)) / 2.0


def nonmax_entangled_state(alpha: float) -> StateVector:
    """Source state beta|0_x 0_x> + alpha|1_x 1_x> shared between A and B.

    The maximally entangled point alpha = 1/sqrt(2) is allowed here even
    though the protocol range excludes it.
    """
    check_alpha(alpha, include_sup=True)
    return StateVector(check_basis_kets(alpha)[0], basis_label="X")


def check_strength(p: float) -> None:
    """Reject a depolarizing strength outside [0, 1], nan included."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"depolarizing strength p={p!r} outside [0, 1]")


def depolarizing_channel(p: float) -> KrausChannel:
    """Channel rho -> (1-p) rho + p/3 sum_a sigma_a rho sigma_a."""
    check_strength(p)
    ops = [math.sqrt(1.0 - p) * np.eye(2, dtype=complex)]
    ops += [math.sqrt(p / 3.0) * s for s in (PAULI_X, PAULI_Y, PAULI_Z)]
    return KrausChannel(tuple(ops))


def depolarize(rho: DensityMatrix, p: float) -> DensityMatrix:
    """Apply the depolarizing channel of strength p to a single-qubit state."""
    if rho.dim != 2:
        raise ParameterError("depolarize acts on single-qubit states")
    return DensityMatrix(depolarizing_channel(p).apply(rho.entries))


def apply_channel_on_B(psi_ab: StateVector, channel: KrausChannel) -> DensityMatrix:
    """Send qubit B of a two-qubit pure state through a single-qubit channel."""
    if psi_ab.dim != 4:
        raise ParameterError("expected a two-qubit state")
    return DensityMatrix(post_channel_states(psi_ab.amplitudes, np.asarray(channel.kraus_ops)))


def measure_sample(rho: DensityMatrix, povm: Povm, rng: np.random.Generator) -> int:
    """Draw one outcome index from the Born distribution Tr[rho F_i]."""
    if povm.elements[0].shape[0] != rho.dim:
        raise ParameterError("POVM dimension does not match the state")
    cum = np.maximum(povm.outcome_probabilities(rho), 0.0).cumsum()
    total = float(cum[-1])
    if abs(total - 1.0) > 1e-6:
        raise ConsistencyError(f"outcome probabilities sum to {total!r}")
    # u * total < total for u in [0, 1), so the index is in range and never
    # lands on a zero-probability outcome
    return int(cum.searchsorted(rng.random() * total, side="right"))
