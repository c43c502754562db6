"""Monte Carlo execution of the entanglement-based protocol and its
prepare-and-measure reduction, plus their exact analytic counterparts.

All randomness flows through a counter-based Philox generator seeded from the
run parameters, so identical parameters give identical tallies.  Because the
channel is i.i.d., a run's tallies are drawn directly from their exact
binomial/multinomial count laws, in O(1) time and memory in the number of
pairs.  Counterfactual ("gedanken") counters are independent Born-rule count
draws on the exact post-channel state within the same run; the physical
protocol could not measure these jointly, but the simulator can, and the
estimation tests need them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .quantum import (
    ALPHA_SUP,
    DensityMatrix,
    KrausChannel,
    b92_povm,
    error_povm_element,
    filter_op,
    ket_x,
    ket_z,
    nonmax_entangled_state,
    projector,
    check_pair_basis,
    signal_state,
)


@dataclass(frozen=True)
class ProtocolParams:
    """Run configuration: nonorthogonality, pair budget, channel, seed.

    ``n_pairs`` is the number of check pairs and also the number of data
    pairs; a run consumes 2 * n_pairs entangled pairs in total.
    """

    alpha: float
    n_pairs: int
    channel: KrausChannel
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < ALPHA_SUP:
            raise ParameterError(f"alpha={self.alpha!r} outside (0, 1/sqrt(2))")
        if self.n_pairs < 1:
            raise ParameterError("n_pairs must be at least 1")


@dataclass(frozen=True)
class Tallies:
    """Observed and counterfactual counters from one protocol run.

    n_err, n_fil are observable by the parties.  n_bit, n_ph, n_xx and
    m_check are simulator-only: joint X-basis outcomes of the data pairs
    (n_xx, all pairs, pre-filter), Z/X anticorrelation counts among filtered
    pairs (n_bit, n_ph), and check-basis outcomes of the check pairs
    (m_check).
    """

    n_pairs: int
    n_err: int
    n_fil: int
    n_bit: int
    n_ph: int
    n_xx: np.ndarray
    m_check: np.ndarray

    def __post_init__(self) -> None:
        for name in ("n_xx", "m_check"):
            arr = np.array(getattr(self, name), dtype=np.int64)
            if arr.shape != (2, 2):
                raise ParameterError(f"{name} must be a 2x2 count matrix")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.n_pairs
        if int(self.n_xx.sum()) != n or int(self.m_check.sum()) != n:
            raise ParameterError("count matrices must each sum to n_pairs")
        if not (0 <= self.n_fil <= n and 0 <= self.n_err <= n):
            raise ParameterError("n_fil and n_err must lie in [0, n_pairs]")
        if not (0 <= self.n_bit <= self.n_fil and 0 <= self.n_ph <= self.n_fil):
            raise ParameterError("n_bit and n_ph must lie in [0, n_fil]")


@dataclass(frozen=True)
class ExpectedRates:
    """Exact per-pair rates for a channel, the analytic twin of a run."""

    r_fil: float
    r_err: float
    r_bit: float
    r_ph: float
    r_xx: np.ndarray
    s_check: np.ndarray


@dataclass(frozen=True)
class B92Record:
    """Per-signal record of the prepare-and-measure protocol.

    ``bob_outcomes`` holds 0/1 for conclusive outcomes and 2 for null.
    """

    alice_bits: np.ndarray
    bob_outcomes: np.ndarray

    @property
    def null_flags(self) -> np.ndarray:
        return self.bob_outcomes == 2

    @property
    def sifted_alice(self) -> np.ndarray:
        return self.alice_bits[~self.null_flags]

    @property
    def sifted_bob(self) -> np.ndarray:
        return self.bob_outcomes[~self.null_flags]


def _post_channel_state(alpha: float, channel: KrausChannel) -> np.ndarray:
    psi = nonmax_entangled_state(alpha).amplitudes
    rho = projector(psi)
    out = np.zeros((4, 4), dtype=complex)
    for k in channel.kraus_ops:
        big = np.kron(np.eye(2, dtype=complex), k)
        out += big @ rho @ big.conj().T
    return out


def _born(rho: np.ndarray, ops: list[np.ndarray]) -> np.ndarray:
    probs = np.array([np.trace(rho @ op).real for op in ops])
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def _check_joint_probs(rho: np.ndarray, alpha: float) -> np.ndarray:
    """Joint distribution of (A's Z outcome, B's three-outcome result)."""
    pv = b92_povm(alpha)
    ops = [
        np.kron(projector(ket_z(j)), pv.elements[b]) for j in (0, 1) for b in range(3)
    ]
    return _born(rho, ops).reshape(2, 3)


def _xx_probs(rho: np.ndarray) -> np.ndarray:
    ops = [
        np.kron(projector(ket_x(i)), projector(ket_x(j))) for i in (0, 1) for j in (0, 1)
    ]
    return _born(rho, ops).reshape(2, 2)


def _zz_probs(rho: np.ndarray) -> np.ndarray:
    ops = [
        np.kron(projector(ket_z(i)), projector(ket_z(j))) for i in (0, 1) for j in (0, 1)
    ]
    return _born(rho, ops).reshape(2, 2)


def _check_basis_probs(rho: np.ndarray, alpha: float) -> np.ndarray:
    basis = check_pair_basis(alpha)
    ops = [projector(s.amplitudes) for s in basis]
    return _born(rho, ops).reshape(2, 2)


def _filtered_state(rho: np.ndarray, alpha: float) -> tuple[np.ndarray, float]:
    f = np.kron(np.eye(2, dtype=complex), filter_op(alpha).matrix)
    unnorm = f @ rho @ f
    weight = np.trace(unnorm).real
    return unnorm / weight, weight


def expected_rates(alpha: float, channel: KrausChannel) -> ExpectedRates:
    """Exact analytic rates of a run: the 4x4 numeric counterpart of sampling.

    r_fil/r_err are the filter-pass and check-error probabilities; r_bit and
    r_ph are the unnormalized weights of the filtered state in the Z- and
    X-anticorrelated subspaces; r_xx and s_check are the joint outcome
    distributions feeding the counterfactual counters.
    """
    if not 0.0 < alpha < ALPHA_SUP:
        raise ParameterError(f"alpha={alpha!r} outside (0, 1/sqrt(2))")
    rho = _post_channel_state(alpha, channel)
    fil_sq = np.kron(np.eye(2, dtype=complex), filter_op(alpha).squared())
    r_fil = np.trace(rho @ fil_sq).real
    r_err = np.trace(rho @ error_povm_element(alpha)).real
    filtered, weight = _filtered_state(rho, alpha)
    zz = _zz_probs(filtered)
    xx = _xx_probs(filtered)
    r_bit = weight * (zz[0, 1] + zz[1, 0])
    r_ph = weight * (xx[0, 1] + xx[1, 0])
    return ExpectedRates(
        r_fil=float(r_fil),
        r_err=float(r_err),
        r_bit=float(r_bit),
        r_ph=float(r_ph),
        r_xx=_xx_probs(rho),
        s_check=_check_basis_probs(rho, alpha),
    )


def run_protocol1(params: ProtocolParams) -> Tallies:
    """Simulate one full run of the entanglement-based protocol.

    Only the tallies are returned, so each block of per-pair Born-rule trials
    is replaced by its count law: the check-pair joint outcomes and check-basis
    outcomes, the data-pair filter trials and X x X outcomes (each over n
    pairs), then the filtered-pair Z x Z and X x X outcomes (each over the
    n_fil pairs that passed).  The draws come in that order from one seeded
    generator, so identical parameters give identical tallies.
    """
    rng = np.random.Generator(np.random.Philox(params.seed))
    n = params.n_pairs
    rho = _post_channel_state(params.alpha, params.channel)

    joint = rng.multinomial(n, _check_joint_probs(rho, params.alpha).ravel())
    n_err = int(joint[1] + joint[3])

    s_check = _check_basis_probs(rho, params.alpha)
    m_check = rng.multinomial(n, s_check.ravel()).reshape(2, 2)

    fil_sq = np.kron(np.eye(2, dtype=complex), filter_op(params.alpha).squared())
    n_fil = int(rng.binomial(n, np.trace(rho @ fil_sq).real))

    n_xx = rng.multinomial(n, _xx_probs(rho).ravel()).reshape(2, 2)

    filtered, _ = _filtered_state(rho, params.alpha)
    zz_f = rng.multinomial(n_fil, _zz_probs(filtered).ravel())
    n_bit = int(zz_f[1] + zz_f[2])
    xx_f = rng.multinomial(n_fil, _xx_probs(filtered).ravel())
    n_ph = int(xx_f[1] + xx_f[2])

    return Tallies(
        n_pairs=n,
        n_err=n_err,
        n_fil=n_fil,
        n_bit=n_bit,
        n_ph=n_ph,
        n_xx=n_xx,
        m_check=m_check,
    )


def run_b92(params: ProtocolParams) -> B92Record:
    """Simulate the reduced prepare-and-measure protocol.

    Per signal: a uniform bit selects the sent state, the channel acts, and
    the three-outcome measurement is sampled; sifting drops null outcomes.
    """
    rng = np.random.Generator(np.random.Philox(params.seed))
    n = params.n_pairs
    pv = b92_povm(params.alpha)
    cond = np.empty((2, 3))
    for j in (0, 1):
        sent = projector(signal_state(j, params.alpha).amplitudes)
        out = params.channel.apply(sent)
        cond[j] = np.clip(pv.outcome_probabilities(out), 0.0, None)
        cond[j] /= cond[j].sum()

    alice = rng.integers(0, 2, size=n).astype(np.uint8)
    u = rng.random(n)
    cum = np.cumsum(cond, axis=1)
    bob = (u >= np.where(alice, cum[1, 0], cum[0, 0])).astype(np.uint8)
    bob += u >= np.where(alice, cum[1, 1], cum[0, 1])
    return B92Record(alice_bits=alice, bob_outcomes=bob)


def reduction_equivalence(rho_b: DensityMatrix, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Outcome distributions of the two equivalent receiver strategies.

    Returns (three-outcome measurement, filter-then-Z measurement), each as
    probabilities over (0, 1, fail/null); the two must coincide.
    """
    if rho_b.dim != 2:
        raise ParameterError("expected a single-qubit state")
    pv = b92_povm(alpha)
    direct = pv.outcome_probabilities(rho_b)

    f = filter_op(alpha).matrix
    sandwich = f @ rho_b.entries @ f
    pass_prob = np.trace(sandwich).real
    via_filter = np.array(
        [
            np.vdot(ket_z(0), sandwich @ ket_z(0)).real,
            np.vdot(ket_z(1), sandwich @ ket_z(1)).real,
            1.0 - pass_prob,
        ]
    )
    return direct, via_filter
