"""Tests for the protocol runners and their analytic counterparts."""

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
from oracles import depolarizing_rates, kron_expected_rates, random_density_matrix

ALPHA_02 = math.sqrt(0.2)


def binom_sigma(n: int, q: float) -> float:
    return math.sqrt(n * q * (1.0 - q))


def one_shot_b92(params: ProtocolParams) -> tuple[np.ndarray, np.ndarray]:
    """run_b92's record drawn the direct way: every bit in one draw, then
    every uniform in one draw, each compared with its sent state's
    cumulative outcome probabilities."""
    alpha = params.alpha
    pv = b92_povm(alpha)
    cond = np.empty((2, 3))
    for j in (0, 1):
        out = params.channel.apply(projector(signal_state(j, alpha).amplitudes))
        cond[j] = np.clip(pv.outcome_probabilities(out), 0.0, None)
        cond[j] /= cond[j].sum()
    rng = np.random.Generator(np.random.Philox(params.seed))
    alice = rng.integers(0, 2, size=params.n_pairs).astype(np.uint8)
    u = rng.random(params.n_pairs)
    cum = np.cumsum(cond, axis=1)
    return alice, (u[:, None] >= cum[alice][:, :2]).sum(axis=1).astype(np.uint8)


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
        # the check-pair error probability must equal the filtered bit-error
        # weight for every channel (this identity underlies the estimation)
        rng = np.random.default_rng(5)
        for p in (0.0, 0.02, 0.2, 0.6):
            r = expected_rates(0.45, depolarizing_channel(p))
            assert r.r_err == pytest.approx(r.r_bit, abs=1e-12)


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
            assert kernel == (r.r_fil, r.r_err, r.r_ph)
            assert protocol._depolarizing_scalars(np.float64(alpha), np.float64(p)) == kernel


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
        # the per-signal thresholds must reproduce the cumulative-probability
        # gather bit for bit on the same draws
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
        # run_b92 reads Philox's words raw and relies on numpy's Lemire
        # integers, next_double and 32-bit buffering; the oracle uses the
        # public Generator calls, so a numpy that changes any of them shows here
        for seed in (0, 7, 2**40 + 3):
            params = ProtocolParams(
                alpha=math.sqrt(alpha_sq), n_pairs=n, channel=channel, seed=seed
            )
            rec = run_b92(params)
            alice, bob = one_shot_b92(params)
            np.testing.assert_array_equal(rec.alice_bits, alice)
            np.testing.assert_array_equal(rec.bob_outcomes, bob)

    @pytest.mark.parametrize("chunk", [2, 64, 4098])
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
        from b92sim.protocol import _check_joint_probs

        rho = apply_channel_on_B(
            nonmax_entangled_state(ALPHA_02), depolarizing_channel(p)
        ).entries
        joint = _check_joint_probs(rho, ALPHA_02)
        outcomes = rng.choice(6, size=n, p=joint.reshape(-1))
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
