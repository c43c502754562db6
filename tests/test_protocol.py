"""Tests for the protocol runners and their analytic counterparts."""

import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from b92sim import protocol
from b92sim.errors import ParameterError
from b92sim.protocol import (
    B92Record,
    ProtocolParams,
    Tallies,
    expected_rates,
    reduction_equivalence,
    run_b92,
    run_protocol1,
)
from b92sim.quantum import (
    DensityMatrix,
    KrausChannel,
    apply_channel_on_B,
    b92_povm,
    depolarizing_channel,
    identity_channel,
    nonmax_entangled_state,
    projector,
    signal_state,
)
from b92sim.security import ObservedRates, key_rate
from oracles import (
    decimal_born_table,
    depolarizing_rates,
    kron_expected_rates,
    random_channel,
    random_density_matrix,
)

ALPHA_02 = math.sqrt(0.2)


def binom_sigma(n: int, q: float) -> float:
    return math.sqrt(n * q * (1.0 - q))


def sent_state_law(alpha: float, channel: KrausChannel) -> np.ndarray:
    """Row j: the outcome law (0, 1, null) of sent state j after the channel,
    from the channel applied to the signal state and the B92 measurement."""
    pv = b92_povm(alpha)
    cond = np.empty((2, 3))
    for j in (0, 1):
        out = channel.apply(projector(signal_state(j, alpha).amplitudes))
        cond[j] = np.clip(pv.outcome_probabilities(out), 0.0, None)
        cond[j] /= cond[j].sum()
    return cond


def one_shot_b92(params: ProtocolParams) -> tuple[np.ndarray, np.ndarray]:
    """run_b92's record drawn the direct way, in one piece: bit i and lane i
    shifted out of whole words, every threshold gathered per signal, and the
    ties settled in a plain loop over the tied signals.

    The thresholds are T = ceil(c * 2**53) of the sent state's cumulative
    outcome probabilities c; an outcome fires when k >= T, where k's top 16
    bits are the signal's lane and its low 37 bits the top of one refinement
    word, drawn only when the lane is T >> 37 for one of the two thresholds.
    """
    cum = np.cumsum(sent_state_law(params.alpha, params.channel), axis=1)
    thresholds = [[min(math.ceil(c * 2**53), 2**53) for c in row[:2]] for row in cum]
    n = params.n_pairs
    bits, lanes, refine = (np.random.PCG64(s)
                           for s in np.random.SeedSequence(params.seed).spawn(3))
    i = np.arange(n)
    shift = (i % 64).astype(np.uint64)
    alice = (bits.random_raw(-(-n // 64))[i // 64] >> shift & np.uint64(1)).astype(np.uint8)
    shift = (16 * (i % 4)).astype(np.uint64)
    lane = (lanes.random_raw(-(-n // 4))[i // 4] >> shift & np.uint64(0xFFFF)).astype(np.int64)
    top = np.array(thresholds, dtype=np.int64)[alice] >> 37
    bob = (lane[:, None] > top).sum(axis=1).astype(np.uint8)
    for j in np.flatnonzero((lane[:, None] == top).any(axis=1)):
        k = int(lane[j]) << 37 | refine.random_raw() >> 27
        bob[j] = sum(k >= t for t in thresholds[alice[j]])
    return alice, bob


class TestExpectedRates:
    def test_identity_channel(self):
        alpha = 0.4
        r = expected_rates(alpha, identity_channel())
        assert r.r_err == pytest.approx(0.0, abs=1e-14)
        assert r.r_bit == pytest.approx(0.0, abs=1e-14)
        assert r.r_ph == pytest.approx(0.0, abs=1e-14)
        assert r.r_fil == pytest.approx(2 * alpha**2 * (1 - alpha**2), abs=1e-13)

    def test_benchmark_point_two_paths(self):
        # numeric 4x4 path against the hand-derived closed forms
        r = expected_rates(ALPHA_02, depolarizing_channel(0.03))
        oracle = depolarizing_rates(0.2, 0.03)
        assert r.r_fil == pytest.approx(0.3272, abs=1e-9)
        assert r.r_fil == pytest.approx(oracle["r_fil"], abs=1e-12)
        assert r.r_err == pytest.approx(0.01, abs=1e-9)
        assert r.r_err == pytest.approx(oracle["r_err"], abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.01, 0.03, 0.1, 0.4])
    @pytest.mark.parametrize("alpha_sq", [0.1, 0.2, 0.35])
    def test_closed_forms_across_grid(self, p, alpha_sq):
        r = expected_rates(math.sqrt(alpha_sq), depolarizing_channel(p))
        oracle = depolarizing_rates(alpha_sq, p)
        assert r.r_fil == pytest.approx(oracle["r_fil"], abs=1e-12)
        assert r.r_err == pytest.approx(oracle["r_err"], abs=1e-12)
        assert r.r_bit == pytest.approx(oracle["r_bit"], abs=1e-12)
        assert r.r_ph == pytest.approx(oracle["r_ph"], abs=1e-12)
        np.testing.assert_allclose(r.r_xx, oracle["r_xx"], atol=1e-12)
        np.testing.assert_allclose(r.s_check, oracle["s_check"], atol=1e-12)

    def test_fully_depolarizing_closed_form(self):
        alpha = 0.35
        r = expected_rates(alpha, depolarizing_channel(0.75))
        # output state is rho_A (x) I/2, so every rate is elementary
        a2, b2 = alpha**2, 1 - alpha**2
        assert r.r_fil == pytest.approx(0.5, abs=1e-12)
        assert r.r_err == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_allclose(
            r.r_xx, np.array([[b2 / 2, b2 / 2], [a2 / 2, a2 / 2]]), atol=1e-12
        )
        # filtered state carries weight (a2+b2^2... ) check via direct sums
        assert r.r_bit == pytest.approx(r.r_fil / 2.0, abs=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("alpha_sq", [0.05, 0.2, 0.45])
    def test_amplitude_damping_against_kron_reference(self, gamma, alpha_sq):
        # a non-unital channel: every field against explicit 4x4 products
        channel = KrausChannel((
            np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex),
            np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex),
        ))
        alpha = math.sqrt(alpha_sq)
        r = expected_rates(alpha, channel)
        ref = kron_expected_rates(alpha, channel.kraus_ops)
        for name in ("r_fil", "r_err", "r_bit", "r_ph"):
            assert getattr(r, name) == pytest.approx(ref[name], abs=1e-14), name
        np.testing.assert_allclose(r.r_xx, ref["r_xx"], rtol=0, atol=1e-14)
        np.testing.assert_allclose(r.s_check, ref["s_check"], rtol=0, atol=1e-14)

    def test_readme_pattern_at_zero_noise(self):
        # the rates feed ObservedRates unchanged: rounding below zero is
        # clamped at the source, and the noiseless key rate is r_fil
        for alpha_sq in np.linspace(0.01, 0.49, 49):
            alpha = math.sqrt(alpha_sq)
            rates = expected_rates(alpha, depolarizing_channel(0.0))
            assert 0.0 <= rates.r_err <= 0.5 and 0.0 <= rates.r_fil <= 1.0
            obs = ObservedRates(r_err=rates.r_err, r_fil=rates.r_fil, alpha=alpha)
            assert key_rate(obs) == pytest.approx(rates.r_fil, abs=1e-9)

    def test_error_rate_equals_bit_rate(self):
        # the check-pair error probability, read off the check basis, must
        # equal the filtered bit-error weight for every channel: r_err is
        # r_bit on that identity, which underlies the estimation
        rng = np.random.default_rng(5)
        channels = [depolarizing_channel(p) for p in (0.0, 0.02, 0.2, 0.6)]
        channels += [KrausChannel(random_channel(rng, k)) for k in (1, 2, 3, 4) for _ in range(5)]
        for channel in channels:
            r = expected_rates(0.45, channel)
            assert r.r_err == r.r_bit
            assert r.r_bit == pytest.approx(0.5 * (r.s_check[0, 1] + r.s_check[1, 1]),
                                            rel=1e-14, abs=1e-16)


class TestDepolarizingRates:
    # seeded points plus both ends of p, the fully depolarizing point, and
    # alpha^2 from tiny to next to the singular end of the bound
    P_GRID = [0.0, 0.75, 1.0, *np.random.default_rng(15).uniform(0.0, 1.0, 7)]
    ALPHA_SQ_GRID = [1e-12, 0.01, 0.49, 0.4999,
                     *np.random.default_rng(16).uniform(0.0, 0.5, 6)]
    FIELDS = ("r_fil", "r_err", "r_bit", "r_ph", "r_xx", "s_check")

    @pytest.mark.parametrize("p", P_GRID)
    def test_matches_born_table_and_kron_reference(self, p):
        channel = depolarizing_channel(p)
        for alpha_sq in self.ALPHA_SQ_GRID:
            alpha = math.sqrt(alpha_sq)
            closed = protocol.depolarizing_rates(alpha, p)
            table = expected_rates(alpha, channel)
            kron = kron_expected_rates(alpha, channel.kraus_ops)
            for name in self.FIELDS:
                value = np.asarray(getattr(closed, name))
                for ref in (np.asarray(getattr(table, name)), np.asarray(kron[name])):
                    assert np.max(np.abs(value - ref)) <= 2e-15, (name, alpha_sq)

    @pytest.mark.parametrize("p", P_GRID)
    def test_error_rates_are_exactly_a_third_of_p(self, p):
        r = protocol.depolarizing_rates(0.45, p)
        assert r.r_err == r.r_bit == p / 3.0

    @pytest.mark.parametrize("alpha_sq", [1e-300, 1e-100, 1e-12, 0.2, 0.49])
    def test_noiseless_filter_rate_is_exact(self, alpha_sq):
        # the very expression delta_param subtracts, so delta is exactly 0
        alpha = math.sqrt(alpha_sq)
        a2 = alpha * alpha
        r = protocol.depolarizing_rates(alpha, 0.0)
        assert r.r_fil == 2.0 * a2 * (1.0 - a2)
        assert r.r_err == r.r_bit == r.r_ph == 0.0

    @pytest.mark.parametrize("alpha_sq", [1e-8, 1e-20, 1e-30, 1e-100, 1e-300, 0.2, 0.49])
    @pytest.mark.parametrize("p", [0.0, 1e-25, 1e-15, 1e-12, 1e-6, 0.03, 0.7])
    def test_born_table_filter_rate_keeps_its_scale(self, p, alpha_sq):
        # Z-basis entries (alpha +- beta)/2 would leave each weight an
        # absolute error of order eps: 11 % of r_fil at alpha^2 = 1e-30, and
        # 12 % of r_err at p = 1e-15, alpha^2 = 1e-20
        alpha = math.sqrt(alpha_sq)
        table = expected_rates(alpha, depolarizing_channel(p))
        closed = protocol.depolarizing_rates(alpha, p)
        for name in self.FIELDS:
            got, want = np.asarray(getattr(table, name)), np.asarray(getattr(closed, name))
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0, err_msg=name)
            assert np.array_equal(got == 0.0, want == 0.0), name

    @pytest.mark.parametrize("alpha_sq", [0.2, 1e-20, 1e-300])
    def test_identity_channel_has_no_error_weight(self, alpha_sq, monkeypatch):
        # a Kraus term that leaves the source alone adds alpha beta - beta
        # alpha = 0 to each error cell, so no conclusive outcome of run_b92
        # names the wrong bit: sent 0 never gives 1 (equal thresholds) and
        # sent 1 never gives 0 (threshold 0, which every k reaches)
        alpha = math.sqrt(alpha_sq)
        r = expected_rates(alpha, identity_channel())
        assert r.r_err == r.r_bit == r.r_ph == 0.0
        seen = []
        uniform_thresholds = protocol._uniform_thresholds
        monkeypatch.setattr(protocol, "_uniform_thresholds",
                            lambda c: seen.append(uniform_thresholds(c)) or seen[-1])
        rec = run_b92(ProtocolParams(alpha=alpha, n_pairs=1_000, channel=identity_channel()))
        (t00, t01), (t10, _) = seen[0].tolist()
        assert t00 == t01 and t10 == 0
        np.testing.assert_array_equal(rec.sifted_alice, rec.sifted_bob)

    @pytest.mark.parametrize("p", [-0.1, 1.5, math.nan, math.inf, -math.inf])
    def test_rejects_strength_like_the_channel(self, p):
        with pytest.raises(ParameterError) as channel_error:
            depolarizing_channel(p)
        with pytest.raises(ParameterError) as rates_error:
            protocol.depolarizing_rates(0.45, p)
        assert str(rates_error.value) == str(channel_error.value)

    def test_rejects_alpha_outside_range(self):
        with pytest.raises(ParameterError):
            protocol.depolarizing_rates(0.75, 0.03)

    @pytest.mark.parametrize("p", P_GRID)
    def test_wrapper_is_the_scalar_kernel(self, p):
        # the analytic commands' inner loop calls the kernel directly; numpy
        # scalars must take the same float operations as Python floats
        for alpha_sq in [*self.ALPHA_SQ_GRID, 1e-300]:
            alpha = math.sqrt(alpha_sq)
            r = protocol.depolarizing_rates(alpha, p)
            kernel = protocol._depolarizing_scalars(alpha, p)
            assert type(kernel) is tuple
            assert kernel[:3] == (r.r_fil, r.r_err, r.r_ph)
            # the closed-form excesses are what the bound forms from the rates,
            # to the rounding of those rates
            a2 = alpha * alpha
            gap, fil_excess = 1.0 - 2.0 * a2, r.r_fil - 2.0 * a2 * (1.0 - a2)
            assert kernel[3] == pytest.approx(fil_excess / gap, rel=1e-12, abs=1e-15 / gap)
            assert kernel[4] == pytest.approx(fil_excess - 2.0 * r.r_err, rel=1e-12, abs=1e-15)
            assert protocol._depolarizing_scalars(np.float64(alpha), np.float64(p)) == kernel


class TestBornTable:
    @staticmethod
    def assert_matches_decimal(alpha, channel):
        # 1e-12 relative, or exactly 0 where the exact weight is 0; the check
        # pairs' law is the filtered Z x Z cells plus 1/2 minus each row's sum
        xx, check, zz_f, xx_f = protocol._born_table(alpha, channel)
        null = np.maximum(0.5 - zz_f.sum(axis=1, keepdims=True), 0.0)
        ref = decimal_born_table(alpha, channel.kraus_ops)
        got = {"xx": xx, "check": check, "zz_f": zz_f, "xx_f": xx_f,
               "joint": np.hstack([zz_f, null])}
        for name, weights in got.items():
            np.testing.assert_allclose(weights, ref[name], rtol=1e-12, atol=0.0, err_msg=name)
            assert np.array_equal(weights == 0.0, ref[name] == 0.0), name

    @pytest.mark.parametrize("kraus_count", [1, 2, 3, 4])
    def test_matches_decimal_oracle_on_random_channels(self, kraus_count):
        rng = np.random.default_rng(40 + kraus_count)
        for _ in range(8):
            channel = KrausChannel(random_channel(rng, kraus_count))
            self.assert_matches_decimal(math.sqrt(rng.uniform(0.02, 0.48)), channel)

    @pytest.mark.parametrize("p", [0.0, 1e-15, 1e-12, 1e-6, 0.03, 0.7])
    def test_matches_decimal_oracle_on_depolarizing_channels(self, p):
        for alpha_sq in (1e-300, 1e-100, 1e-20, 1e-8, 0.2, 0.49):
            self.assert_matches_decimal(math.sqrt(alpha_sq), depolarizing_channel(p))


class TestRunProtocol1:
    def test_noiseless_run_has_no_errors(self):
        params = ProtocolParams(alpha=ALPHA_02, n_pairs=20_000, channel=identity_channel(), seed=3)
        t = run_protocol1(params)
        assert t.n_err == 0
        assert t.n_bit == 0
        assert t.n_ph == 0

    def test_noiseless_filter_rate(self):
        n = 100_000
        params = ProtocolParams(alpha=ALPHA_02, n_pairs=n, channel=identity_channel(), seed=11)
        t = run_protocol1(params)
        assert abs(t.n_fil - 0.32 * n) < 4 * binom_sigma(n, 0.32)

    def test_benchmark_error_rate(self):
        n = 100_000
        params = ProtocolParams(
            alpha=ALPHA_02, n_pairs=n, channel=depolarizing_channel(0.03), seed=17
        )
        t = run_protocol1(params)
        assert abs(t.n_err - 0.01 * n) < 4 * binom_sigma(n, 0.01)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("p", [0.01, 0.03])
    def test_all_tallies_track_expected_rates(self, seed, p):
        n = 100_000
        params = ProtocolParams(
            alpha=ALPHA_02, n_pairs=n, channel=depolarizing_channel(p), seed=seed
        )
        t = run_protocol1(params)
        r = expected_rates(ALPHA_02, depolarizing_channel(p))
        checks = [
            (t.n_err, r.r_err),
            (t.n_fil, r.r_fil),
            (t.n_bit, r.r_bit),
            (t.n_ph, r.r_ph),
        ]
        checks += [(t.n_xx[i, j], r.r_xx[i, j]) for i in (0, 1) for j in (0, 1)]
        checks += [(t.m_check[i, j], r.s_check[i, j]) for i in (0, 1) for j in (0, 1)]
        for count, rate in checks:
            sigma = binom_sigma(n, rate)
            assert abs(count - n * rate) <= max(4 * sigma, 1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_bernoulli_consistency_at_hoeffding_scale(self, seed):
        # the filter acts diagonally in X, so the weighted X-outcome counts
        # must track n_fil and n_ph within a few sqrt(N)
        n = 100_000
        a2, b2 = 0.2, 0.8
        params = ProtocolParams(
            alpha=ALPHA_02, n_pairs=n, channel=depolarizing_channel(0.03), seed=seed
        )
        t = run_protocol1(params)
        weighted_fil = a2 * (t.n_xx[0, 0] + t.n_xx[1, 0]) + b2 * (t.n_xx[0, 1] + t.n_xx[1, 1])
        assert abs(weighted_fil - t.n_fil) < 5 * math.sqrt(n)
        weighted_ph = a2 * t.n_xx[1, 0] + b2 * t.n_xx[0, 1]
        assert abs(weighted_ph - t.n_ph) < 5 * math.sqrt(n)

    @pytest.mark.parametrize(
        "channel",
        [
            identity_channel(),
            depolarizing_channel(0.1),
            KrausChannel(
                (
                    math.sqrt(0.7) * np.eye(2, dtype=complex),
                    math.sqrt(0.3) * np.array([[0, 1], [1, 0]], dtype=complex),
                )
            ),
        ],
    )
    def test_alice_marginal_untouched_by_channel(self, channel):
        n = 100_000
        params = ProtocolParams(alpha=ALPHA_02, n_pairs=n, channel=channel, seed=23)
        t = run_protocol1(params)
        assert abs(0.2 * n - (t.n_xx[1, 0] + t.n_xx[1, 1])) < 5 * math.sqrt(n)

    def test_deterministic_given_seed(self):
        params = ProtocolParams(
            alpha=0.4, n_pairs=5_000, channel=depolarizing_channel(0.05), seed=99
        )
        t1 = run_protocol1(params)
        t2 = run_protocol1(params)
        assert t1.n_err == t2.n_err and t1.n_fil == t2.n_fil
        np.testing.assert_array_equal(t1.n_xx, t2.n_xx)
        np.testing.assert_array_equal(t1.m_check, t2.m_check)

    def test_count_only_run_is_constant_in_n(self):
        # the tallies are drawn from their count laws, so a run over 10^12
        # pairs holds no per-pair array
        params = ProtocolParams(
            alpha=ALPHA_02, n_pairs=10**12, channel=depolarizing_channel(0.03), seed=4
        )
        tracemalloc.start()
        try:
            start = time.perf_counter()
            t = run_protocol1(params)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 1_000_000
        assert t.n_pairs == 10**12 and int(t.n_xx.sum()) == 10**12

    def test_invalid_params_rejected(self):
        with pytest.raises(ParameterError):
            ProtocolParams(alpha=0.8, n_pairs=10, channel=identity_channel())
        with pytest.raises(ParameterError):
            ProtocolParams(alpha=0.2, n_pairs=0, channel=identity_channel())
        with pytest.raises(ParameterError):
            ProtocolParams(alpha=0.2, n_pairs=10, channel=identity_channel(), seed=-1)

    @pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
    @pytest.mark.parametrize("kraus_count", [None, 3], ids=["depolarizing", "random"])
    def test_draw_order_is_pinned_to_public_philox_calls(self, seed, kraus_count):
        # the seed-pinned simulate regressions rest on this stream: one
        # Generator(Philox(seed)) draws the check-pair joint outcomes, m_check,
        # the filter trials, n_xx, then n_bit and n_ph
        rng = np.random.default_rng(seed)
        channel = (depolarizing_channel(0.03) if kraus_count is None
                   else KrausChannel(random_channel(rng, kraus_count)))
        n = 100_003
        params = ProtocolParams(alpha=ALPHA_02, n_pairs=n, channel=channel, seed=seed)
        xx, check, zz_f, xx_f = protocol._born_table(params.alpha, channel)
        gen = np.random.Generator(np.random.Philox(seed))
        null = np.maximum(0.5 - zz_f.sum(axis=1, keepdims=True), 0.0)
        joint = gen.multinomial(n, np.hstack([zz_f, null]).ravel())
        m_check = gen.multinomial(n, (check / check.sum()).ravel())
        n_fil = gen.binomial(n, min(zz_f.sum(), 1.0))
        n_xx = gen.multinomial(n, (xx / xx.sum()).ravel())
        n_bit = gen.multinomial(n_fil, (zz_f / zz_f.sum()).ravel())[[1, 2]].sum()
        n_ph = gen.multinomial(n_fil, (xx_f / xx_f.sum()).ravel())[[1, 2]].sum()

        t = run_protocol1(params)
        assert (t.n_err, t.n_fil, t.n_bit, t.n_ph) == (joint[1] + joint[3], n_fil, n_bit, n_ph)
        np.testing.assert_array_equal(t.m_check, m_check.reshape(2, 2))
        np.testing.assert_array_equal(t.n_xx, n_xx.reshape(2, 2))

    @pytest.mark.parametrize("runner", [run_protocol1, run_b92])
    @pytest.mark.parametrize("seed", [1.5, 2.0, "3", None])
    def test_non_integral_seed_rejected(self, runner, seed):
        # the generators' SeedSequence would end either runner in a TypeError
        with pytest.raises(ParameterError, match="seed"):
            runner(ProtocolParams(alpha=0.2, n_pairs=10, channel=identity_channel(), seed=seed))

    def test_numpy_integer_seed_is_the_same_seed(self):
        def params(seed):
            return ProtocolParams(alpha=0.4, n_pairs=1_000, channel=identity_channel(), seed=seed)

        np.testing.assert_array_equal(run_b92(params(np.int64(7))).bob_outcomes,
                                      run_b92(params(7)).bob_outcomes)
        assert run_protocol1(params(np.uint8(7))).n_fil == run_protocol1(params(7)).n_fil

    def test_pair_budget_beyond_int64_rejected(self):
        # the count samplers overflowed on such a budget instead
        ProtocolParams(alpha=0.2, n_pairs=2**63 - 1, channel=identity_channel())
        for n in (2**63, 10**20):
            with pytest.raises(ParameterError, match="n_pairs"):
                ProtocolParams(alpha=0.2, n_pairs=n, channel=identity_channel())


class TestRunB92:
    def test_noiseless_sifted_bits_agree(self):
        params = ProtocolParams(alpha=0.3, n_pairs=20_000, channel=identity_channel(), seed=2)
        rec = run_b92(params)
        np.testing.assert_array_equal(rec.sifted_alice, rec.sifted_bob)

    def test_noiseless_conclusive_fraction(self):
        n = 100_000
        params = ProtocolParams(alpha=ALPHA_02, n_pairs=n, channel=identity_channel(), seed=8)
        rec = run_b92(params)
        kept = n - int(rec.null_flags.sum())
        assert abs(kept - 0.32 * n) < 4 * binom_sigma(n, 0.32)

    def test_benchmark_sifted_error_fraction(self):
        # conditional error rate = r_err / r_fil = (p/3) / 0.3272
        n = 200_000
        params = ProtocolParams(
            alpha=ALPHA_02, n_pairs=n, channel=depolarizing_channel(0.03), seed=31
        )
        rec = run_b92(params)
        errors = int(np.sum(rec.sifted_alice != rec.sifted_bob))
        kept = rec.sifted_alice.size
        rate = 0.01 / 0.3272
        assert abs(errors - kept * rate) < 4 * binom_sigma(kept, rate)

    def test_outcomes_match_gathered_thresholds(self):
        # the per-signal lane thresholds must reproduce the gather of each
        # signal's thresholds bit for bit on the same draws
        alpha = 0.4
        params = ProtocolParams(
            alpha=alpha, n_pairs=50_000, channel=depolarizing_channel(0.05), seed=12
        )
        rec = run_b92(params)
        alice, bob = one_shot_b92(params)
        np.testing.assert_array_equal(rec.alice_bits, alice)
        np.testing.assert_array_equal(rec.bob_outcomes, bob)
        assert rec.bob_outcomes.dtype == np.uint8

    def test_chunked_draw_equals_one_shot_draw(self):
        # n spans several draw chunks and ends part-way through one
        params = ProtocolParams(
            alpha=0.4, n_pairs=3 * 2**16 + 4_321, channel=depolarizing_channel(0.05), seed=12
        )
        rec = run_b92(params)
        alice, bob = one_shot_b92(params)
        np.testing.assert_array_equal(rec.alice_bits, alice)
        np.testing.assert_array_equal(rec.bob_outcomes, bob)

    @pytest.mark.parametrize("n", [1, 2, 3, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 4_321])
    @pytest.mark.parametrize(
        "alpha_sq, channel",
        [(0.2, identity_channel()), (0.2, depolarizing_channel(0.03)),
         (0.1, depolarizing_channel(0.75))],
        ids=["identity", "p0.03", "p0.75"],
    )
    def test_raw_stream_equals_public_draws(self, n, alpha_sq, channel):
        # run_b92 reads its bits and lanes through little-endian byte views
        # of chunked draws; the reference shifts them out of whole words, so
        # a slipped view, chunk boundary or refinement draw shows here
        for seed in (0, 7, 2**40 + 3):
            params = ProtocolParams(
                alpha=math.sqrt(alpha_sq), n_pairs=n, channel=channel, seed=seed
            )
            rec = run_b92(params)
            alice, bob = one_shot_b92(params)
            np.testing.assert_array_equal(rec.alice_bits, alice)
            np.testing.assert_array_equal(rec.bob_outcomes, bob)

    @pytest.mark.parametrize("n", [1, 3, 2**16 + 1, 200_000])
    def test_raw_stream_equals_public_draws_on_random_channels(self, n):
        # run_b92 takes its outcome law from the Born table's check-pair law,
        # one_shot_b92 from the channel applied to each sent state: the two
        # must agree on random channels too, which are in general not unital
        rng = np.random.default_rng(31)
        for seed in range(60):
            channel = KrausChannel(random_channel(rng, int(rng.integers(1, 5))))
            alpha = math.sqrt(rng.uniform(0.02, 0.48))
            params = ProtocolParams(alpha=alpha, n_pairs=n, channel=channel, seed=seed)
            rec = run_b92(params)
            alice, bob = one_shot_b92(params)
            np.testing.assert_array_equal(rec.alice_bits, alice)
            np.testing.assert_array_equal(rec.bob_outcomes, bob)

    @pytest.mark.parametrize("seed, digest", [
        (0, "28bd3c477a975e9b2249aefe37c5add5805e9cd88424ab44be9e99c4a2e8600b"),
        (2**40 + 3, "bb0fadb6269f5a1936a55cb5fa93c78796c0fc0dbb4c25351ef0db190780e269"),
    ], ids=["0", "2**40+3"])
    def test_record_digest_is_pinned(self, seed, digest):
        # the records of a seed change only with a visible edit here; the
        # digest rests on SeedSequence.spawn and PCG64's raw words, which
        # numpy keeps stable
        params = ProtocolParams(
            alpha=ALPHA_02, n_pairs=2**16 + 3, channel=depolarizing_channel(0.03), seed=seed
        )
        rec = run_b92(params)
        got = hashlib.sha256(rec.alice_bits.tobytes() + rec.bob_outcomes.tobytes()).hexdigest()
        assert got == digest

    @pytest.mark.parametrize("chunk", [64, 128, 4160])
    def test_chunk_size_does_not_change_the_record(self, chunk, monkeypatch):
        monkeypatch.setattr(protocol, "_CHUNK", chunk)
        for n in (1, chunk - 1, chunk + 1, 3 * chunk + 1):
            params = ProtocolParams(
                alpha=0.4, n_pairs=n, channel=depolarizing_channel(0.05), seed=n
            )
            rec = run_b92(params)
            alice, bob = one_shot_b92(params)
            np.testing.assert_array_equal(rec.alice_bits, alice)
            np.testing.assert_array_equal(rec.bob_outcomes, bob)

    def test_uniform_thresholds_match_float_comparison(self):
        # k * 2**-53 >= c exactly when k >= T, checked on both sides of T
        rng = np.random.default_rng(3)
        c = np.concatenate([
            [0.0, 5e-324, 2.0**-53, 2.0**-54, 0.5, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52],
            rng.random(200),
        ])
        t = protocol._uniform_thresholds(c)
        assert t.dtype == np.int64
        assert t[0] == 0 and t[6] == 2**53 and t[7] == 2**53
        for ci, ti in zip(c, t):
            for k in (ti - 1, ti, ti + 1):
                if 0 <= k < 2**53:
                    assert (float(k) * 2.0**-53 >= ci) == (k >= ti)

    # thresholds T on both sides of a lane boundary and at both ends, where
    # 2**53 never fires and its top bits, 2**16, fit no lane
    SPLIT_T = [0, 1, 2**37 - 1, 2**37, 2**37 + 1, 2**53 - 1, 2**53,
               *np.random.default_rng(19).integers(0, 2**53, size=20, endpoint=True).tolist()]

    @staticmethod
    def _split_run(monkeypatch, thresholds, signals):
        """run_b92 with the given integer thresholds on signals given as
        (sent bit, k): its three streams are replaced by words that carry the
        bits, the lanes k >> 37 and, for each signal whose lane is T >> 37 for
        one of its thresholds, k's low 37 bits above 27 junk bits.  Returns the
        outcomes and the refinement words left unread."""
        n = len(signals)
        bits = [sum(b << (i % 64) for i, (b, _) in enumerate(signals) if i // 64 == w)
                for w in range(-(-n // 64))]
        lanes = [sum((k >> 37) << (16 * (i % 4)) for i, (_, k) in enumerate(signals)
                     if i // 4 == w) for w in range(-(-n // 4))]
        refine = [(k & (2**37 - 1)) << 27 | (0x5BD1E99 * (i + 1)) % 2**27
                  for i, (b, k) in enumerate(signals)
                  if k >> 37 in [t >> 37 for t in thresholds[b]]]

        class Words:
            def __init__(self, words):
                self.words = words

            def random_raw(self, size=None):
                if size is None:
                    return self.words.pop(0)
                out, self.words[:size] = self.words[:size], []
                return np.array(out, dtype=np.uint64)

        streams = iter([Words(bits), Words(lanes), Words(refine)])
        monkeypatch.setattr(np.random, "PCG64", lambda seed: next(streams))
        monkeypatch.setattr(protocol, "_uniform_thresholds",
                            lambda c: np.array(thresholds, dtype=np.int64))
        params = ProtocolParams(alpha=0.4, n_pairs=n, channel=identity_channel())
        out = run_b92(params).bob_outcomes
        monkeypatch.undo()
        return out, refine

    @pytest.mark.parametrize("t", SPLIT_T)
    def test_lane_then_refinement_fires_exactly_when_k_reaches_t(self, t, monkeypatch):
        # the 16-bit lane decides unless it ties T >> 37; a tie reads one
        # word, whose top 37 bits are k's low bits for both thresholds
        ks = [k for k in (t - 1, t, t + 1) if 0 <= k < 2**53]
        for thresholds in ([[t, 2**53], [0, t]], [[t, min(t + 1, 2**53)], [t, t]]):
            signals = [(b, k) for k in ks for b in (0, 1)]
            out, unread = self._split_run(monkeypatch, thresholds, signals)
            want = [sum(k >= x for x in thresholds[b]) for b, k in signals]
            assert out.tolist() == want, thresholds
            assert unread == []

    def test_refinement_words_are_read_only_on_ties(self, monkeypatch):
        # at n = 2**20 about 32 signals tie: the run reads n/64 words of bits,
        # n/4 of lanes, one per tie, so about 17 random bits per signal
        n = 2**20
        made = []
        pcg64 = np.random.PCG64

        class Counted:
            def __init__(self, seed_seq):
                self.gen, self.words = pcg64(seed_seq), 0
                made.append(self)

            def random_raw(self, size=None):
                self.words += 1 if size is None else size
                return self.gen.random_raw(size)

        params = ProtocolParams(
            alpha=ALPHA_02, n_pairs=n, channel=depolarizing_channel(0.03), seed=9
        )
        monkeypatch.setattr(np.random, "PCG64", Counted)
        rec = run_b92(params)
        monkeypatch.undo()
        alice, bob = one_shot_b92(params)
        np.testing.assert_array_equal(rec.alice_bits, alice)
        np.testing.assert_array_equal(rec.bob_outcomes, bob)
        bits, lanes, refine = (c.words for c in made)
        assert (bits, lanes) == (n // 64, n // 4)
        assert 0 < refine < 2 * 2 * n * 2**-16
        assert 64 * (bits + lanes + refine) / n < 17.01

    @pytest.mark.parametrize("alpha_sq, channel", [
        (0.2, depolarizing_channel(0.03)),
        (0.05, identity_channel()),
        (0.3, KrausChannel(random_channel(np.random.default_rng(37), 3))),
    ], ids=["p0.03", "identity", "random"])
    def test_joint_counts_follow_the_sent_state_law(self, alpha_sq, channel):
        # the six (sent, outcome) counts against n * law / 2, from the channel
        # applied to each signal state, within 5 sigma Bonferroni-corrected
        # over the six cells
        n = 4_000_000
        alpha = math.sqrt(alpha_sq)
        rec = run_b92(ProtocolParams(alpha=alpha, n_pairs=n, channel=channel, seed=1))
        counts = np.bincount(3 * rec.alice_bits + rec.bob_outcomes, minlength=6)
        q = 0.5 * sent_state_law(alpha, channel).ravel()
        z = stats.norm.isf(stats.norm.sf(5.0) / 6)
        assert np.all(np.abs(counts - n * q) <= z * np.sqrt(n * q * (1.0 - q)))

    def test_peak_memory_below_three_times_output(self):
        params = ProtocolParams(
            alpha=ALPHA_02, n_pairs=1_000_000, channel=depolarizing_channel(0.03), seed=5
        )
        tracemalloc.start()
        try:
            rec = run_b92(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * (rec.alice_bits.nbytes + rec.bob_outcomes.nbytes)

    def test_sifted_statistics_match_check_pairs(self):
        # the reduction: joint (sent bit, outcome) statistics of the
        # prepare-and-measure run equal the check-pair statistics
        n = 100_000
        p = 0.03
        params_a = ProtocolParams(
            alpha=ALPHA_02, n_pairs=n, channel=depolarizing_channel(p), seed=41
        )
        params_b = ProtocolParams(
            alpha=ALPHA_02, n_pairs=n, channel=depolarizing_channel(p), seed=42
        )
        rec = run_b92(params_a)
        b92_counts = np.zeros((2, 3), dtype=np.int64)
        for j in (0, 1):
            for b in (0, 1, 2):
                b92_counts[j, b] = np.sum((rec.alice_bits == j) & (rec.bob_outcomes == b))

        rng = np.random.Generator(np.random.Philox(params_b.seed))
        rng.permutation(2 * n)
        # the check pairs' law from the quantum layer: B's state given A's
        # Z outcome j, measured with the B92 POVM
        rho = apply_channel_on_B(
            nonmax_entangled_state(ALPHA_02), depolarizing_channel(p)
        ).entries.reshape(2, 2, 2, 2)
        pv = b92_povm(ALPHA_02)
        joint = np.array([pv.outcome_probabilities(rho[j, :, j, :]) for j in (0, 1)])
        outcomes = rng.choice(6, size=n, p=(joint / joint.sum()).reshape(-1))
        check_counts = np.bincount(outcomes, minlength=6).reshape(2, 3)

        table = np.vstack([b92_counts.reshape(-1), check_counts.reshape(-1)])
        _, p_value, _, _ = stats.chi2_contingency(table)
        assert p_value > 1e-3


class TestReductionEquivalence:
    def test_clean_signal_cannot_err(self):
        alpha = 0.37
        rho = DensityMatrix(projector(signal_state(0, alpha).amplitudes))
        direct, via_filter = reduction_equivalence(rho, alpha)
        assert direct[1] == pytest.approx(0.0, abs=1e-14)
        assert via_filter[1] == pytest.approx(0.0, abs=1e-14)

    def test_maximally_mixed_input(self):
        direct, via_filter = reduction_equivalence(DensityMatrix(np.eye(2) / 2), ALPHA_02)
        np.testing.assert_allclose(direct, [0.25, 0.25, 0.5], atol=1e-13)
        np.testing.assert_allclose(via_filter, [0.25, 0.25, 0.5], atol=1e-13)

    def test_total_variation_vanishes_on_random_states(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            rho = DensityMatrix(random_density_matrix(2, rng))
            direct, via_filter = reduction_equivalence(rho, 0.3)
            assert 0.5 * np.abs(direct - via_filter).sum() < 1e-12


class TestTalliesValidation:
    def test_count_sums_enforced(self):
        with pytest.raises(ParameterError):
            Tallies(
                n_pairs=10,
                n_err=0,
                n_fil=5,
                n_bit=0,
                n_ph=0,
                n_xx=np.zeros((2, 2), dtype=int),
                m_check=np.full((2, 2), 25, dtype=int),
            )

    def test_filtered_counts_bounded(self):
        good = np.array([[5, 2], [2, 1]])
        with pytest.raises(ParameterError):
            Tallies(n_pairs=10, n_err=0, n_fil=3, n_bit=4, n_ph=0, n_xx=good, m_check=good)
