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

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
# check_pair_basis, error_povm_element and nonmax_entangled_state are not
# called here, and b92_povm only by reduction_equivalence (the samplers use
# b92_povm_elements), but the benchmark's tracer (perfbench/tracing.py) wraps
# each of them as protocol.<name>, so they must stay resolvable in this module.
from .quantum import (  # noqa: F401
    XX_PROJECTORS,
    ZZ_PROJECTORS,
    DensityMatrix,
    KrausChannel,
    b92_povm,
    b92_povm_elements,
    born,
    check_alpha,
    check_basis_kets,
    check_pair_basis,
    check_strength,
    error_povm_element,
    filter_matrix,
    filter_op,
    ket_z,
    nonmax_entangled_state,
    post_channel_states,
    projector,
    projectors,
    signal_state,
)

# the largest pair budget: the samplers draw counts as int64
_MAX_PAIRS = 2**63 - 1


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
        check_alpha(self.alpha)
        if not 1 <= self.n_pairs <= _MAX_PAIRS:
            raise ParameterError(f"n_pairs must lie in [1, {_MAX_PAIRS}]")
        if not 0 <= self.seed < math.inf:
            raise ParameterError("seed must be finite and nonnegative")


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


# signals per draw in run_b92.  Even, so every chunk but the last takes
# exactly _CHUNK / 2 raw words for its bits; the last chunk's spare half-word
# is the one integers(0, 2) would leave unread, so nothing is carried.
_CHUNK = 1 << 16
assert _CHUNK % 2 == 0

# random() returns (x >> 11) * 2**-53 for a raw 64-bit word x
_DOUBLE_SHIFT = np.uint64(11)
_DOUBLE_SCALE = 2.0**53

_ZZ_XX_PROJECTORS = np.concatenate([ZZ_PROJECTORS, XX_PROJECTORS])


def _born_table(alpha: float, channel: KrausChannel) -> tuple[np.ndarray, np.ndarray]:
    """Born weights behind every rate and tally, plus the post-channel state.

    The table has shape (2, 3, 2, 2): state (post-channel, then its filtered
    and unnormalized image (I x F) rho (I x F)), projector family (Z x Z,
    X x X, check basis), then the two outcome indices.  Both states come from
    one post-channel evaluation and all 24 weights from one Born contraction;
    rounding-level negative weights are clipped to zero.
    """
    kets = check_basis_kets(alpha)
    kraus = np.asarray(channel.kraus_ops)
    states = post_channel_states(kets[0], np.stack([kraus, filter_matrix(alpha) @ kraus]))
    ops = np.concatenate([_ZZ_XX_PROJECTORS, projectors(kets)])
    table = np.clip(born(states, ops), 0.0, None).reshape(2, 3, 2, 2)
    return table, states[0]


def _normalized(w: np.ndarray) -> np.ndarray:
    return w / w.sum()


def _check_joint_probs(rho: np.ndarray, alpha: float) -> np.ndarray:
    """Joint distribution of (A's Z outcome, B's three-outcome result)."""
    conditional = rho.reshape(2, 2, 2, 2)[[0, 1], :, [0, 1], :]
    joint = born(conditional, b92_povm_elements(alpha))
    return _normalized(np.clip(joint, 0.0, None))


def expected_rates(alpha: float, channel: KrausChannel) -> ExpectedRates:
    """Exact analytic rates of a run: the numeric counterpart of sampling.

    r_fil/r_err are the filter-pass and check-error probabilities, clamped to
    [0, 1] and [0, 1/2] so rounding never leaves the range ObservedRates
    accepts; r_bit and r_ph are the weights of the filtered state in the Z-
    and X-anticorrelated subspaces; r_xx and s_check are the joint outcome
    distributions feeding the counterfactual counters.  Valid for any Kraus
    channel on B; every weight is one Born contraction on the post-channel
    state or its filtered image, with no two-qubit Kronecker products.
    """
    check_alpha(alpha)
    (zz, xx, check), (zz_f, xx_f, _) = _born_table(alpha, channel)[0]
    return ExpectedRates(
        r_fil=float(min(zz_f.sum(), 1.0)),
        r_err=float(min(0.5 * (check[0, 1] + check[1, 1]), 0.5)),
        r_bit=float(zz_f[0, 1] + zz_f[1, 0]),
        r_ph=float(xx_f[0, 1] + xx_f[1, 0]),
        r_xx=_normalized(xx),
        s_check=_normalized(check),
    )


def _depolarizing_scalars(alpha: float, p: float) -> tuple[float, float, float]:
    """(r_fil, r_err, r_ph) of depolarizing_rates, unchecked and math-only.

    The analytic commands' inner loop calls this directly; with a2 = alpha^2,
    b2 = 1 - a2 and t = p/3 it returns
      r_fil = 2 a2 b2 + 2t (1 - 4 a2 b2),  r_err = t,  r_ph = 2t (a2^2 + b2^2).
    a2 is formed as alpha * alpha, as delta_param forms it, so a noiseless
    r_fil is exactly the filter rate the bound subtracts and keeps its
    alpha^2 scale at any alpha, which the Born table's cancellations lose.
    """
    a2 = alpha * alpha
    b2 = 1.0 - a2
    prod = 2.0 * a2 * b2
    t = p / 3.0
    return prod + 2.0 * t * (1.0 - 2.0 * prod), t, 2.0 * t * (a2 * a2 + b2 * b2)


def depolarizing_rates(alpha: float, p: float) -> ExpectedRates:
    """expected_rates(alpha, depolarizing_channel(p)) in closed form.

    The scalar rates come from _depolarizing_scalars, and r_bit = r_err = t;
    the X x X and check-basis outcome distributions are added here.
    """
    check_strength(p)
    check_alpha(alpha)
    r_fil, t, r_ph = _depolarizing_scalars(alpha, p)
    a2 = alpha * alpha
    b2 = 1.0 - a2
    cross = 2.0 * t * (2.0 * a2 * b2)
    gap_sq = (b2 - a2) ** 2
    return ExpectedRates(
        r_fil=r_fil,
        r_err=t,
        r_bit=t,
        r_ph=r_ph,
        r_xx=np.array([[(1.0 - 2.0 * t) * b2, 2.0 * t * b2],
                       [2.0 * t * a2, (1.0 - 2.0 * t) * a2]]),
        s_check=np.array([[1.0 - p + t * gap_sq, t * (gap_sq + 1.0)],
                          [cross, cross]]),
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
    table, rho = _born_table(params.alpha, params.channel)
    (_, xx, check), (zz_f, xx_f, _) = table

    joint = rng.multinomial(n, _check_joint_probs(rho, params.alpha).ravel())
    n_err = int(joint[1] + joint[3])
    m_check = rng.multinomial(n, _normalized(check).ravel()).reshape(2, 2)
    n_fil = int(rng.binomial(n, min(zz_f.sum(), 1.0)))
    n_xx = rng.multinomial(n, _normalized(xx).ravel()).reshape(2, 2)
    n_bit = int(rng.multinomial(n_fil, _normalized(zz_f).ravel())[[1, 2]].sum())
    n_ph = int(rng.multinomial(n_fil, _normalized(xx_f).ravel())[[1, 2]].sum())

    return Tallies(
        n_pairs=n,
        n_err=n_err,
        n_fil=n_fil,
        n_bit=n_bit,
        n_ph=n_ph,
        n_xx=n_xx,
        m_check=m_check,
    )


def _uniform_thresholds(c: np.ndarray) -> np.ndarray:
    """Integer thresholds T with random() >= c exactly when k >= T.

    random() is k * 2**-53 with k = x >> 11, which is exact, and so is
    c * 2**53; hence u >= c holds exactly when k >= ceil(c * 2**53).  c <= 0
    gives 0 (always fires) and c >= 1 gives 2**53 (never fires, k < 2**53).
    Comparing the integers skips forming u and cannot round differently.
    """
    return np.clip(np.ceil(c * _DOUBLE_SCALE), 0.0, _DOUBLE_SCALE).astype(np.int64)


def run_b92(params: ProtocolParams) -> B92Record:
    """Simulate the reduced prepare-and-measure protocol.

    Per signal: a uniform bit selects the sent state, the channel acts, and
    the three-outcome measurement is sampled; sifting drops null outcomes.

    Stream contract: the record is the one that ``integers(0, 2)`` for every
    bit, then ``random()`` for every signal, drawn from a
    ``Generator(Philox(seed))`` would give, compared with the sent state's
    cumulative outcome probabilities.  The same Philox words are read raw
    instead, in fixed chunks, so memory is the two outputs plus O(1).
    """
    bit_gen = np.random.Philox(params.seed)
    n = params.n_pairs
    elements = b92_povm_elements(params.alpha)
    cond = np.empty((2, 3))
    for j in (0, 1):
        sent = projector(signal_state(j, params.alpha).amplitudes)
        out = params.channel.apply(sent)
        cond[j] = np.clip(born(out, elements), 0.0, None)
        cond[j] /= cond[j].sum()

    # integers(0, 2) is the top bit of a 32-bit Lemire draw, and the 32-bit
    # draws are each raw word's low half, then its high half ("<u8" makes
    # the uint32 view put the low half first on any host)
    alice = np.empty(n, dtype=np.uint8)
    for i in range(0, n, _CHUNK):
        m = min(_CHUNK, n - i)
        words = bit_gen.random_raw((m + 1) // 2).astype("<u8", copy=False)
        np.right_shift(words.view("<u4")[:m], 31, out=alice[i:i + m], casting="unsafe")

    # each signal's two thresholds are base + sent * step, exact in int64,
    # in place of a gather of the sent state's row
    thresholds = _uniform_thresholds(np.cumsum(cond, axis=1)[:, :2])
    base, step = thresholds[0], thresholds[1] - thresholds[0]
    bob = np.empty(n, dtype=np.uint8)
    sent64 = np.empty(min(_CHUNK, n), dtype=np.int64)
    thr = np.empty_like(sent64)
    fired = np.empty(sent64.size, dtype=bool)
    for i in range(0, n, _CHUNK):
        m = min(_CHUNK, n - i)
        # shift as uint64 before the int64 view: an arithmetic shift of the
        # view would smear the sign bit
        k = bit_gen.random_raw(m)
        k >>= _DOUBLE_SHIFT
        k = k.view(np.int64)
        s, t, f, out = sent64[:m], thr[:m], fired[:m], bob[i:i + m]
        np.copyto(s, alice[i:i + m])
        out[:] = 0
        for b, st in zip(base, step):
            np.multiply(s, st, out=t)
            t += b
            np.greater_equal(k, t, out=f)
            out += f
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
