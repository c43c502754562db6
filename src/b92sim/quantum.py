"""Exact complex linear algebra for one- and two-qubit objects.

States and operators are stored as dense complex arrays in the computational
(Z) basis.  The X basis is related by |j_z> = [|0_x> + (-1)^j |1_x>]/sqrt(2),
i.e. |0_x>, |1_x> are the +1/-1 eigenvectors of the Pauli X operator.  Each
builder computes its object directly and returns it validated; the protocol's
rate laws read their own X-basis Born table (protocol._born_table) instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import ConsistencyError, ParameterError

if TYPE_CHECKING:
    import numpy as np

ALPHA_SUP = 1.0 / math.sqrt(2.0)

NORM_TOL = 1e-12
HERM_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10

_ARRAYS = ("KET_0Z", "KET_1Z", "KET_0X", "KET_1X", "PAULI_X", "PAULI_Y", "PAULI_Z")


@functools.cache
def _arrays() -> dict[str, np.ndarray]:
    """The Z- and X-basis kets and the Pauli matrices, by their names in _ARRAYS."""
    import numpy as np

    return dict(zip(_ARRAYS, (
        np.array([1.0, 0.0], dtype=complex),
        np.array([0.0, 1.0], dtype=complex),
        np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
        np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
        np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    )))


def __getattr__(name: str):
    """The constants KET_0Z, ..., PAULI_Z, built on first use; any other name,
    such as the __path__ that import machinery asks for, is AttributeError."""
    if name in _ARRAYS:
        return _arrays()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _frozen(a: np.ndarray) -> np.ndarray:
    import numpy as np

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
    import numpy as np

    v = np.asarray(ket, dtype=complex)
    return np.outer(v, v.conj())


@dataclass(frozen=True)
class StateVector:
    """Unit complex vector of dimension 2 or 4.

    ``basis_label`` is purely documentary; amplitudes are always stored in the
    computational basis.
    """

    amplitudes: np.ndarray
    basis_label: str = "Z"

    def __post_init__(self) -> None:
        import numpy as np

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
        import numpy as np

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
        import numpy as np

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
        """Weights Tr[rho F_k]; ``rho`` may carry leading batch axes."""
        import numpy as np

        m = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
        return np.einsum("...ij,kji->...k", m, np.asarray(self.elements)).real


@dataclass(frozen=True)
class FilterOp:
    """Local filter alpha|0_x><0_x| + beta|1_x><1_x| with beta = sqrt(1-alpha^2)."""

    matrix: np.ndarray
    alpha: float

    def __post_init__(self) -> None:
        import numpy as np

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
        import numpy as np

        ops = tuple(_frozen(k) for k in self.kraus_ops)
        if not ops:
            raise ParameterError("channel needs at least one Kraus operator")
        total = sum(k.conj().T @ k for k in ops)
        if not np.max(np.abs(total - np.eye(2))) <= NORM_TOL:
            raise ParameterError("Kraus operators do not satisfy completeness")
        object.__setattr__(self, "kraus_ops", ops)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        import numpy as np

        m = np.asarray(rho, dtype=complex)
        return sum(k @ m @ k.conj().T for k in self.kraus_ops)


def identity_channel() -> KrausChannel:
    import numpy as np

    return KrausChannel((np.eye(2, dtype=complex),))


def ket_x(j: int) -> np.ndarray:
    """X-basis state |j_x> as computational-basis amplitudes."""
    return _arrays()["KET_0X" if j == 0 else "KET_1X"]


def ket_z(j: int) -> np.ndarray:
    return _arrays()["KET_0Z" if j == 0 else "KET_1Z"]


def signal_state(j: int, alpha: float) -> StateVector:
    """Sender's state beta|0_x> + (-1)^j alpha|1_x> for bit value j."""
    check_alpha(alpha)
    if j not in (0, 1):
        raise ParameterError("bit value must be 0 or 1")
    beta = math.sqrt(1.0 - alpha**2)
    return StateVector(beta * ket_x(0) + (-1) ** j * alpha * ket_x(1), basis_label="X")


def dual_state(j: int, alpha: float) -> StateVector:
    """Unit state orthogonal to signal_state(j, alpha)."""
    check_alpha(alpha)
    if j not in (0, 1):
        raise ParameterError("bit value must be 0 or 1")
    return StateVector(_dual_ket(j, alpha), basis_label="X")


def _dual_ket(j: int, alpha: float) -> np.ndarray:
    beta = math.sqrt(1.0 - alpha**2)
    return alpha * ket_x(0) - (-1) ** j * beta * ket_x(1)


def b92_povm(alpha: float) -> Povm:
    """Receiver's three-outcome measurement, in outcome order (0, 1, null).

    Outcome j fires only on states orthogonal to the opposite signal, so a
    conclusive outcome identifies the sent bit; the null element absorbs the
    rest of the identity.
    """
    import numpy as np

    check_alpha(alpha)
    f0 = projector(_dual_ket(1, alpha)) / 2.0
    f1 = projector(_dual_ket(0, alpha)) / 2.0
    null = np.eye(2, dtype=complex) - f0 - f1
    if np.min(np.linalg.eigvalsh(null)) < -PSD_TOL:
        raise ConsistencyError("null element not PSD; invalid construction")
    return Povm((f0, f1, null))


def filter_op(alpha: float) -> FilterOp:
    """Local filter diagonal in the X basis with eigenvalues (alpha, beta)."""
    check_alpha(alpha)
    beta = math.sqrt(1.0 - alpha**2)
    return FilterOp(alpha * projector(ket_x(0)) + beta * projector(ket_x(1)), alpha)


def check_pair_basis(alpha: float) -> tuple[StateVector, StateVector, StateVector, StateVector]:
    """Orthonormal two-qubit basis used for the check-pair bookkeeping.

    Index (0,0) is the ideal entangled signal state; (1,1) and (0,1) span the
    error events of the local Z x B92 measurement; (1,0) completes the basis.
    Returned in index order ((0,0), (0,1), (1,0), (1,1)).
    """
    check_alpha(alpha)
    return tuple(StateVector(g, basis_label="X") for g in _check_kets(alpha))


def _check_kets(alpha: float) -> tuple[np.ndarray, ...]:
    """Kets of check_pair_basis(alpha) in index order, for any alpha in (0, 1/sqrt(2)]."""
    import numpy as np

    beta = math.sqrt(1.0 - alpha**2)
    kets = ket_x(0), ket_x(1)
    xx00, xx01, xx10, xx11 = (np.kron(a, b) for a in kets for b in kets)
    return (beta * xx00 + alpha * xx11, beta * xx01 - alpha * xx10,
            alpha * xx01 + beta * xx10, alpha * xx00 - beta * xx11)


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
    return StateVector(_check_kets(alpha)[0], basis_label="X")


def check_strength(p: float) -> None:
    """Reject a depolarizing strength outside [0, 1], nan included."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"depolarizing strength p={p!r} outside [0, 1]")


def depolarizing_channel(p: float) -> KrausChannel:
    """Channel rho -> (1-p) rho + p/3 sum_a sigma_a rho sigma_a."""
    import numpy as np

    check_strength(p)
    ops = [math.sqrt(1.0 - p) * np.eye(2, dtype=complex)]
    ops += [math.sqrt(p / 3.0) * _arrays()[f"PAULI_{a}"] for a in "XYZ"]
    return KrausChannel(tuple(ops))


def depolarize(rho: DensityMatrix, p: float) -> DensityMatrix:
    """Apply the depolarizing channel of strength p to a single-qubit state."""
    if rho.dim != 2:
        raise ParameterError("depolarize acts on single-qubit states")
    return DensityMatrix(depolarizing_channel(p).apply(rho.entries))


def apply_channel_on_B(psi_ab: StateVector, channel: KrausChannel) -> DensityMatrix:
    """Send qubit B of a two-qubit pure state through a single-qubit channel."""
    import numpy as np

    if psi_ab.dim != 4:
        raise ParameterError("expected a two-qubit state")
    # (I x K)|psi> = psi.reshape(2, 2) @ K.T, so no 4x4 Kronecker product is formed
    ops = np.asarray(channel.kraus_ops)
    kets = (psi_ab.amplitudes.reshape(2, 2) @ np.swapaxes(ops, -1, -2)).reshape(len(ops), 4)
    return DensityMatrix(np.einsum("ki,kj->ij", kets, kets.conj()))


def measure_sample(rho: DensityMatrix, povm: Povm, rng: np.random.Generator) -> int:
    """Draw one outcome index from the Born distribution Tr[rho F_i]."""
    import numpy as np

    if povm.elements[0].shape[0] != rho.dim:
        raise ParameterError("POVM dimension does not match the state")
    cum = np.maximum(povm.outcome_probabilities(rho), 0.0).cumsum()
    total = float(cum[-1])
    if abs(total - 1.0) > 1e-6:
        raise ConsistencyError(f"outcome probabilities sum to {total!r}")
    # u * total < total for u in [0, 1), so the index is in range and never
    # lands on a zero-probability outcome
    return int(cum.searchsorted(rng.random() * total, side="right"))
