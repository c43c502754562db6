"""Monte Carlo execution of the entanglement-based protocol and its
prepare-and-measure reduction, plus their exact analytic counterparts.

All randomness flows through generators seeded from the run parameters, so
identical parameters give identical results: run_protocol1 draws its few
counts from Philox, run_b92 about 17 random bits per signal from three
PCG64 streams.  Because the channel is i.i.d., a run's tallies are drawn
directly from their exact binomial/multinomial count laws, in O(1) time and
memory in the number of pairs.  Counterfactual ("gedanken") counters are
independent Born-rule count draws on the exact post-channel state within the
same run; the physical protocol could not measure these jointly, but the
simulator can, and the estimation tests need them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
# check_pair_basis, error_povm_element and nonmax_entangled_state are not
# called here, but the benchmark's tracer (perfbench/tracing.py) wraps each
# of them, as well as b92_povm and filter_op, as protocol.<name>, so they
# must stay resolvable in this module.
from .quantum import (  # noqa: F401
    DensityMatrix,
    KrausChannel,
    b92_povm,
    check_alpha,
    check_pair_basis,
    check_strength,
    error_povm_element,
    filter_op,
    ket_z,
    nonmax_entangled_state,
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
        # the generators' SeedSequence takes integers only
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ParameterError("seed must be a nonnegative integer")


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


# signals per chunk in run_b92.  A multiple of 64, so every chunk but the
# last takes whole raw words of bits and of lanes, and the record does not
# depend on the chunk size.
_CHUNK = 1 << 16
assert _CHUNK % 64 == 0

# run_b92's k < 2**53 is a 16-bit lane above _LOW_BITS refinement bits
_DOUBLE_SCALE = 2.0**53
_LOW_BITS = 37

# S = sqrt 2 H for the Hadamard H, which maps Z-basis coordinates to X-basis
# ones and back
_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0]])


def _weights(amps: np.ndarray) -> np.ndarray:
    """sum_k |amps[k]|^2: the Born weights of a mixture of unnormalized kets."""
    return (amps.real**2 + amps.imag**2).sum(axis=0)


def _born_table(alpha: float, channel: KrausChannel) -> tuple[np.ndarray, ...]:
    """Born weights behind every rate and tally: (xx, check, zz_f, xx_f).

    Each is a 2x2 array indexed by the two outcomes: the post-channel state
    measured in X x X and in the check basis, and its filtered, unnormalized
    image (I x F) rho (I x F) measured in Z x Z and in X x X.  Every weight is
    sum_k |amplitude|^2 in X-basis coordinates, where the source ket is
    (beta, 0, 0, alpha): Kraus term K leaves the amplitudes
    M = diag(beta, alpha) K_X^T, for K_X = S K S / 2, the filter
    F = diag(alpha, beta) scales M's columns, and the check kets are
    (beta, 0, 0, alpha), (0, beta, -alpha, 0), (0, alpha, beta, 0) and
    (alpha, 0, 0, -beta).  So no weight is negative, and a term that leaves
    the source state alone adds alpha beta - beta alpha = 0 to every error
    cell, whatever the scale of alpha.  The Z x Z amplitudes S (M F) S leave
    the Hadamard's 1/sqrt 2 factors out, as one 1/4 on their weights.
    """
    beta = math.sqrt(1.0 - alpha * alpha)
    kraus_x = 0.5 * (_SIGNS @ np.asarray(channel.kraus_ops) @ _SIGNS)
    amps = np.array([[beta], [alpha]]) * np.swapaxes(kraus_x, 1, 2)
    m00, m01, m10, m11 = amps.reshape(-1, 4).T
    check = np.stack([beta * m00 + alpha * m11, beta * m01 - alpha * m10,
                      alpha * m01 + beta * m10, alpha * m00 - beta * m11], axis=-1)
    filtered = amps * np.array([alpha, beta])
    return (_weights(amps), _weights(check.reshape(amps.shape)),
            0.25 * _weights(_SIGNS @ filtered @ _SIGNS), _weights(filtered))


def _normalized(w: np.ndarray) -> np.ndarray:
    return w / w.sum()


def expected_rates(alpha: float, channel: KrausChannel) -> ExpectedRates:
    """Exact analytic rates of a run: the numeric counterpart of sampling.

    Every field is read off _born_table for any Kraus channel on B.  r_fil is
    the filter-pass probability; r_bit and r_ph are the weights of the
    filtered state in the Z- and X-anticorrelated cells.  The check-pair
    error probability equals r_bit for every channel: the check pairs'
    conclusive outcomes are the filtered Z x Z outcomes, as B92 element k is
    F|k><k|F.  So r_err is r_bit capped at 1/2, and r_fil is capped at 1:
    rounding never leaves the range ObservedRates accepts.  r_xx and
    s_check are the normalized X x X and check-basis outcome distributions
    that feed the counterfactual counters.
    """
    check_alpha(alpha)
    xx, check, zz_f, xx_f = _born_table(alpha, channel)
    r_bit = float(zz_f[0, 1] + zz_f[1, 0])
    return ExpectedRates(
        r_fil=float(min(zz_f.sum(), 1.0)),
        r_err=min(r_bit, 0.5),
        r_bit=r_bit,
        r_ph=float(xx_f[0, 1] + xx_f[1, 0]),
        r_xx=_normalized(xx),
        s_check=_normalized(check),
    )


def _depolarizing_scalars(alpha: float, p: float) -> tuple[float, float, float, float, float]:
    """(r_fil, r_err, r_ph) of depolarizing_rates and phase_error_bound's
    excesses (delta, excess), unchecked and math-only; the analytic commands'
    inner loop calls this directly.  With a2 = alpha^2, b2 = 1 - a2,
    h = 2 a2 b2, gap = 1 - 2 a2 and t = p/3 (so 1 - 2h = gap^2) it returns
      r_fil = h + 2t (1 - 2h),  r_err = t,  r_ph = 2t (a2^2 + b2^2),
      delta = (r_fil - h)/gap = 2t gap,  excess = r_fil - h - 2 r_err = -4t h.
    The rates agree with the Born table's to rounding, with no channel and no
    arrays; the excesses keep the digits that differences of rates lose.
    """
    a2 = alpha * alpha
    b2 = 1.0 - a2
    prod = 2.0 * a2 * b2
    t = p / 3.0
    return (prod + 2.0 * t * (1.0 - 2.0 * prod), t, 2.0 * t * (a2 * a2 + b2 * b2),
            2.0 * t * (1.0 - 2.0 * a2), -4.0 * t * prod)


def depolarizing_rates(alpha: float, p: float) -> ExpectedRates:
    """expected_rates(alpha, depolarizing_channel(p)) in closed form.

    The scalar rates come from _depolarizing_scalars, and r_bit = r_err = t;
    the X x X and check-basis outcome distributions are added here.
    """
    check_strength(p)
    check_alpha(alpha)
    r_fil, t, r_ph, _, _ = _depolarizing_scalars(alpha, p)
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
    xx, check, zz_f, xx_f = _born_table(params.alpha, params.channel)

    # the check pairs' joint law of (A's Z outcome, B's B92 outcome): B92
    # element k is F|k><k|F, so the conclusive cells are the filtered Z x Z
    # cells, and each row sums to A's Z marginal 1/2, whatever the channel
    null = np.maximum(0.5 - zz_f.sum(axis=1, keepdims=True), 0.0)
    joint = rng.multinomial(n, np.hstack([zz_f, null]).ravel())
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
    """Integer thresholds T with k * 2**-53 >= c exactly when k >= T, for
    integers k in [0, 2**53).

    c * 2**53 is exact, so the float comparison holds exactly when
    k >= ceil(c * 2**53).  c <= 0 gives 0 (always fires) and c >= 1 gives
    2**53 (never fires).  Comparing integers cannot round differently, and
    lets run_b92 split k into a lane and refinement bits.
    """
    return np.clip(np.ceil(c * _DOUBLE_SCALE), 0.0, _DOUBLE_SCALE).astype(np.int64)


def run_b92(params: ProtocolParams) -> B92Record:
    """Simulate the reduced prepare-and-measure protocol.

    Per signal: a uniform bit selects the sent state, the channel acts, and
    the three-outcome measurement is sampled; sifting drops null outcomes.

    Outcome law: each signal draws k uniform on [0, 2**53), and its outcome
    counts the sent state's two thresholds T = _uniform_thresholds(c) with
    k >= T, for c its cumulative outcome probabilities: the outcome law is c
    quantized to 2**-53.

    Stream contract: three PCG64 streams, the children of
    SeedSequence(seed).spawn(3), read raw, in this order:
      bits:   bit i is bit i % 64 of word i // 64, least significant first;
      lanes:  k's top 16 bits are lane i % 4 of word i // 4, low lane first;
      refine: k's low 37 bits are the top 37 bits of one word, drawn in
              signal order only by a signal whose lane equals T >> 37 for one
              of its thresholds (T = 2**53 never ties).
    A lane above T >> 37 fires T and one below does not, whatever the low
    bits, so about 2**-15 of the signals draw a refinement word and a signal
    costs about 17 random bits.  Work is done in chunks, so memory is the
    two outputs plus O(1).
    """
    bits, lanes, refine = map(np.random.PCG64, np.random.SeedSequence(params.seed).spawn(3))
    n = params.n_pairs
    # A's Z outcome j, of probability 1/2, leaves B in the sent state j, so
    # twice row j of the check pairs' conclusive cells (run_protocol1) is the
    # sent state's law of the conclusive outcomes
    zz_f = _born_table(params.alpha, params.channel)[2]
    thresholds = _uniform_thresholds(np.cumsum(2.0 * zz_f, axis=1))
    exact = thresholds.tolist()
    # each signal's two lane thresholds are base + sent * step mod 2**16, in
    # place of a gather of the sent state's row.  A T of 2**53 has the lane
    # threshold 2**16, taken as 2**16 - 1, which no lane exceeds; its
    # would-be ties are dropped when the candidates are checked against T
    top = np.minimum(thresholds >> _LOW_BITS, 0xFFFF)
    base, step = top[0].astype(np.uint16), (top[1] - top[0]).astype(np.uint16)

    alice = np.empty(n, dtype=np.uint8)
    bob = np.empty(n, dtype=np.uint8)
    thr = np.empty(min(_CHUNK, n), dtype=np.uint16)
    fired, tied = np.empty((2, thr.size), dtype=bool)
    for i in range(0, n, _CHUNK):
        m = min(_CHUNK, n - i)
        s, t, f, tie, out = alice[i:i + m], thr[:m], fired[:m], tied[:m], bob[i:i + m]
        # "<u8" puts each word's low byte, so its low bits and its low
        # lane, first on any host
        words = bits.random_raw(-(-m // 64)).astype("<u8", copy=False)
        s[:] = np.unpackbits(words.view(np.uint8), count=m, bitorder="little")
        lane = lanes.random_raw(-(-m // 4)).astype("<u8", copy=False).view("<u2")[:m]
        out[:] = 0
        tie[:] = False
        for b, st in zip(base, step):
            np.multiply(s, st, out=t)
            t += b
            np.greater(lane, t, out=f)
            out += f
            np.equal(lane, t, out=f)
            tie |= f
        # about 2**-15 of the signals tie; the refinement bits settle them
        for j in np.flatnonzero(tie).tolist():
            lo, hi = exact[s[j]]
            h = int(lane[j])
            if h in (lo >> _LOW_BITS, hi >> _LOW_BITS):
                k = h << _LOW_BITS | refine.random_raw() >> (64 - _LOW_BITS)
                out[j] = (k >= lo) + (k >= hi)
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
