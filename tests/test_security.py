"""Tests for entropies, the phase-error bound, key rates and finite-size
relaxations."""

import math
import tracemalloc

import numpy as np
import scipy.stats
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b92sim import _sectors, security
from b92sim.errors import DomainError, ParameterError, SingularityError
from b92sim.security import (
    BoundResult,
    ObservedRates,
    SlackVector,
    binary_entropy,
    delta_param,
    failure_budget,
    finite_key_length,
    finite_size_bound,
    key_rate,
    phase_error_bound,
    relative_entropy,
    tradeoff_curve,
)
from oracles import (
    attaining_channel,
    depolarizing_rates,
    finite_size_oracle,
    finite_size_predicate,
    finite_size_witness,
    grid_scan_phase_bound,
    random_channel,
)

ALPHA_02 = math.sqrt(0.2)

# p = 0 puts the bound's crossing at x = 0, where f(0) = 2 alpha beta equals
# the target; (0.125, 0.4) puts it on the domain's right end, where the
# second radical vanishes; both must stay feasible
EDGE_POINTS = [(0.0, a) for a in np.linspace(0.01, 0.49, 25)] + [(0.125, 0.4)]


def observed(p: float, alpha_sq: float) -> ObservedRates:
    r = depolarizing_rates(alpha_sq, p)
    return ObservedRates(r_err=r["r_err"], r_fil=r["r_fil"], alpha=math.sqrt(alpha_sq))


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_known_value(self):
        assert binary_entropy(0.11) == pytest.approx(0.4999158, abs=1e-6)

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            binary_entropy(bad)


class TestRelativeEntropy:
    def test_zero_on_equal(self):
        p = [0.2, 0.3, 0.5]
        assert relative_entropy(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_one_bit(self):
        assert relative_entropy([1.0, 0.0], [0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)

    def test_known_value(self):
        assert relative_entropy([0.3, 0.7], [0.5, 0.5]) == pytest.approx(0.118709, abs=1e-5)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            assert relative_entropy(p, q) >= -1e-12

    def test_support_violation(self):
        with pytest.raises(DomainError):
            relative_entropy([0.5, 0.5], [1.0, 0.0])
        assert relative_entropy([0.5, 0.5], [1.0, 0.0], allow_infinite=True) == math.inf

    @pytest.mark.parametrize("p, q", [([math.nan, 1.0], [0.5, 0.5]), ([0.5, 0.5], [math.inf, 1.0]),
                                      ([math.inf, 0.0], [0.5, 0.5]), ([0.5, 0.5], [math.nan, 0.5])])
    def test_non_finite_entries_raise(self, p, q):
        # a nan cell would drop out of the sum, and an infinite q_i would
        # reach log(0)
        with pytest.raises(DomainError):
            relative_entropy(p, q, allow_infinite=True)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_scipy_entropy(self, seed):
        # seeded p and q with zero cells, flat and as 2x2 arrays; a p cell
        # where q is 0 raises, or gives +inf under allow_infinite
        rng = np.random.default_rng(seed)
        p = rng.random(4) * (rng.random(4) < 0.6)
        q = rng.random(4) * (rng.random(4) < 0.8)
        p[rng.integers(4)] += 0.1
        q[p > 0.0] += 0.05 * (rng.random() < 0.7)
        p, q = p / p.sum(), q / q.sum()
        expected = scipy.stats.entropy(p, q, base=2)
        for pp, qq in ((p, q), (p.reshape(2, 2), q.reshape(2, 2)), (p.tolist(), q.tolist())):
            if math.isinf(expected):
                with pytest.raises(DomainError):
                    relative_entropy(pp, qq)
                assert relative_entropy(pp, qq, allow_infinite=True) == math.inf
            else:
                assert relative_entropy(pp, qq) == pytest.approx(expected, rel=1e-12, abs=1e-15)
                assert relative_entropy(pp, qq, allow_infinite=True) == relative_entropy(pp, qq)


class TestDeltaParam:
    def test_noiseless_rate_gives_zero(self):
        alpha = 0.4
        assert delta_param(2 * alpha**2 * (1 - alpha**2), alpha) == pytest.approx(0.0, abs=1e-15)

    def test_benchmark_value(self):
        assert delta_param(0.3272, ALPHA_02) == pytest.approx(0.012, abs=1e-12)

    def test_singularity_guard(self):
        with pytest.raises(SingularityError):
            delta_param(0.4, math.sqrt(0.49999))


class TestTradeoffCurve:
    def test_zero_delta_at_origin(self):
        alpha = 0.3
        ab2 = 2 * alpha * math.sqrt(1 - alpha**2)
        assert tradeoff_curve(0.0, 0.0, alpha) == pytest.approx(ab2, abs=1e-14)

    def test_upper_endpoint_drops_second_radical(self):
        alpha, delta = ALPHA_02, 0.012
        gap = 1 - 2 * 0.2
        x_hi = 1 - abs(gap - delta)
        expected = math.sqrt(x_hi**2 - delta**2)
        assert tradeoff_curve(x_hi, delta, alpha) == pytest.approx(expected, abs=1e-14)

    def test_known_value(self):
        assert tradeoff_curve(0.1, 0.0, ALPHA_02) == pytest.approx(0.77082, abs=1e-5)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            tradeoff_curve(0.9, 0.0, ALPHA_02)
        # the allowance scales with the domain: [1e-20, 3e-20] here
        with pytest.raises(DomainError):
            tradeoff_curve(5e-13, 1e-20, 1e-10)


class TestPhaseErrorBound:
    def test_noiseless_gives_zero(self):
        for alpha_sq in np.linspace(0.02, 0.45, 10):
            res = phase_error_bound(observed(0.0, alpha_sq))
            assert res.feasible
            assert abs(res.r_ph_bar) < 1e-9

    def test_benchmark_matches_grid_oracle(self):
        obs = observed(0.03, 0.2)
        res = phase_error_bound(obs)
        x_grid = grid_scan_phase_bound(obs.r_err, obs.r_fil, obs.alpha)
        assert res.feasible and x_grid is not None
        assert res.x_star == pytest.approx(x_grid, abs=1e-6)

    @pytest.mark.parametrize("p", np.linspace(0.0, 0.045, 10))
    @pytest.mark.parametrize("alpha_sq", np.linspace(0.05, 0.45, 10))
    def test_grid_oracle_agreement(self, p, alpha_sq):
        obs = observed(p, alpha_sq)
        res = phase_error_bound(obs)
        x_grid = grid_scan_phase_bound(obs.r_err, obs.r_fil, obs.alpha)
        if x_grid is None:
            assert not res.feasible
        else:
            assert res.feasible
            assert abs(res.x_star - x_grid) < 1e-6

    @pytest.mark.parametrize("p, alpha_sq", EDGE_POINTS)
    def test_grid_oracle_agreement_at_edge_points(self, p, alpha_sq):
        obs = observed(p, alpha_sq)
        res = phase_error_bound(obs)
        x_grid = grid_scan_phase_bound(obs.r_err, obs.r_fil, obs.alpha)
        assert x_grid is not None and res.feasible
        assert abs(res.x_star - x_grid) < 1e-6

    @pytest.mark.parametrize("p, alpha_sq", EDGE_POINTS)
    def test_edge_points_feasible_from_numeric_rates(self, p, alpha_sq):
        # the 4x4 rates carry rounding the closed forms do not; it may push
        # the root just outside the domain or the discriminant below zero
        from b92sim.protocol import expected_rates
        from b92sim.quantum import depolarizing_channel

        alpha = math.sqrt(alpha_sq)
        rates = expected_rates(alpha, depolarizing_channel(p))
        res = phase_error_bound(ObservedRates(r_err=rates.r_err, r_fil=rates.r_fil, alpha=alpha))
        exact = phase_error_bound(observed(p, alpha_sq))
        assert res.feasible
        assert res.r_ph_bar == pytest.approx(exact.r_ph_bar, abs=1e-12)

    @pytest.mark.parametrize("alpha_sq", [1e-15, 1e-17, 1e-20, 1e-30])
    def test_noiseless_tiny_alpha_stays_feasible(self, alpha_sq):
        # 1 - 2 alpha^2 rounds to 1 below alpha^2 ~ 1e-16; the domain's right
        # end must not round away with it
        from b92sim.protocol import expected_rates
        from b92sim.quantum import depolarizing_channel

        alpha = math.sqrt(alpha_sq)
        rates = expected_rates(alpha, depolarizing_channel(0.0))
        res = phase_error_bound(ObservedRates(r_err=rates.r_err, r_fil=rates.r_fil, alpha=alpha))
        assert res.feasible
        assert 0.0 <= res.r_ph_bar <= 10.0 * alpha_sq

    @pytest.mark.parametrize("r_fil, alpha", [(1e-60, 1e-50), (1e-150, 1e-100),
                                              (1e-170, 1e-100)])
    def test_tiny_rates_nothing_explains_are_infeasible(self, r_fil, alpha):
        # the domain collapses to x = |delta| ~ r_fil, where alpha beta f stays
        # far below T = r_fil; the quadratic's roots lie outside it by many
        # times its scale, yet within an absolute 1e-12
        res = phase_error_bound(ObservedRates(r_err=0.0, r_fil=r_fil, alpha=alpha))
        assert not res.feasible
        assert grid_scan_phase_bound(0.0, r_fil, alpha, graze_tol=0.0) is None

    def test_closed_form_against_grid_on_random_rates(self):
        # arbitrary observed rates, not only depolarizing ones: no grid point
        # right of the closed-form x_star is feasible, and x_star is either
        # the domain's right end or a point exactly on the target level
        rng = np.random.default_rng(61)
        for _ in range(300):
            alpha = math.sqrt(rng.uniform(0.01, 0.49))
            r_fil = rng.uniform(0.0, 1.0)
            obs = ObservedRates(r_err=rng.uniform(0.0, min(0.5, r_fil)), r_fil=r_fil,
                                alpha=alpha)
            res = phase_error_bound(obs)
            x_grid = grid_scan_phase_bound(obs.r_err, obs.r_fil, alpha, points=20_001)
            if not res.feasible:
                assert x_grid is None
                continue
            assert x_grid is None or x_grid <= res.x_star + 1e-12
            a2 = alpha * alpha
            ab = alpha * math.sqrt(1.0 - a2)
            f = tradeoff_curve(res.x_star, res.delta, alpha)
            x_hi = security._domain(res.delta, alpha)[1]
            assert res.x_star == x_hi or ab * f == pytest.approx(
                abs(obs.r_fil - 2.0 * obs.r_err), abs=1e-12)

    def test_abort_branch(self):
        # error-free but excessive filter rate cannot be explained
        res = phase_error_bound(ObservedRates(r_err=0.0, r_fil=0.9, alpha=ALPHA_02))
        assert not res.feasible
        assert math.isnan(res.r_ph_bar)

    def test_monotone_in_error_rate(self):
        prev = -1.0
        for r_err in np.linspace(0.0, 0.05, 30):
            res = phase_error_bound(ObservedRates(r_err=r_err, r_fil=0.3272, alpha=ALPHA_02))
            if res.feasible:
                assert res.r_ph_bar >= prev - 1e-9
                prev = res.r_ph_bar

    @pytest.mark.parametrize("p", [0.0, 0.01, 0.02, 0.03])
    def test_ceiling_dominates_simulated_phase_errors(self, p):
        from b92sim.protocol import ProtocolParams, expected_rates, run_protocol1
        from b92sim.quantum import depolarizing_channel

        n = 100_000
        rates = expected_rates(ALPHA_02, depolarizing_channel(p))
        obs = ObservedRates(
            r_err=min(max(rates.r_err, 0.0), 0.5),
            r_fil=min(max(rates.r_fil, 0.0), 1.0),
            alpha=ALPHA_02,
        )
        res = phase_error_bound(obs)
        assert res.feasible
        for seed in range(5):
            t = run_protocol1(
                ProtocolParams(
                    alpha=ALPHA_02, n_pairs=n, channel=depolarizing_channel(p), seed=seed
                )
            )
            assert t.n_ph / n <= res.r_ph_bar + 1e-12

    def test_ceiling_dominates_random_channels(self):
        # the ceiling against quantum mechanics rather than its own curve:
        # the phase errors of any channel's Born table stay below the
        # ceiling of that channel's observed rates
        from b92sim.protocol import expected_rates
        from b92sim.quantum import KrausChannel

        rng = np.random.default_rng(23)
        for _ in range(5000):
            channel = KrausChannel(random_channel(rng, int(rng.integers(1, 5))))
            alpha = math.sqrt(rng.uniform(0.02, 0.48))
            r = expected_rates(alpha, channel)
            res = phase_error_bound(ObservedRates(r_err=r.r_err, r_fil=r.r_fil, alpha=alpha))
            assert res.feasible
            assert r.r_ph <= res.r_ph_bar + 1e-12

    @pytest.mark.parametrize("p, alpha_sq", [(0.03, 0.2), (0.01, 0.1), (0.05, 0.3), (0.02, 0.4)])
    def test_ceiling_is_attained_by_a_channel(self, p, alpha_sq):
        # the ceiling is tight: a search over 4-Kraus channels that holds the
        # depolarizing (r_err, r_fil) reaches the ceiling of the channel's
        # own rates, so the search's constraint tolerance cannot hide an
        # excess, and a ceiling set too high would show as a shortfall
        from b92sim.protocol import expected_rates
        from b92sim.quantum import KrausChannel

        alpha = math.sqrt(alpha_sq)
        target = depolarizing_rates(alpha_sq, p)
        channel = KrausChannel(attaining_channel(alpha, target["r_err"], target["r_fil"]))
        r = expected_rates(alpha, channel)
        assert r.r_err == pytest.approx(target["r_err"], abs=1e-12)
        assert r.r_fil == pytest.approx(target["r_fil"], abs=1e-12)
        res = phase_error_bound(ObservedRates(r_err=r.r_err, r_fil=r.r_fil, alpha=alpha))
        assert res.feasible
        assert r.r_ph == pytest.approx(res.r_ph_bar, rel=1e-9, abs=0.0)


def _same(a, b) -> bool:
    """Bitwise equality of two tuples of floats and flags, nan included."""
    return all(x == y or (math.isnan(x) and math.isnan(y)) for x, y in zip(a, b, strict=True))


class TestScalarKernels:
    """phase_error_bound is a thin wrapper over security._phase_ceiling, which
    evaluates tradeoff_curve as security._curve, first at the domain's right
    end and then, on the double-root branch, at the vertex: the analytic
    commands' inner loop calls the kernel directly, so they must agree bit
    for bit."""

    @staticmethod
    def _cases():
        # depolarizing points, the edge points, tiny alpha, then arbitrary
        # observed rates, nearly all of them infeasible
        grid = [(p, a2) for p in np.linspace(0.0, 0.3, 31)
                for a2 in np.linspace(0.01, 0.49, 25)]
        out = []
        for p, a2 in grid + EDGE_POINTS:
            r = depolarizing_rates(a2, p)
            out.append((r["r_err"], r["r_fil"], math.sqrt(a2)))
        out += [(0.0, 2.0 * a2 * (1.0 - a2), math.sqrt(a2)) for a2 in (1e-12, 1e-20, 1e-300)]
        rng = np.random.default_rng(16)
        for _ in range(400):
            r_fil = rng.uniform(0.0, 1.0)
            out.append((rng.uniform(0.0, min(0.5, r_fil)), r_fil,
                        math.sqrt(rng.uniform(0.01, 0.49))))
        return out

    def test_bound_is_the_kernel_on_every_branch(self, monkeypatch):
        calls = []
        curve = security._curve

        def spied(x, delta, x_hi):
            calls.append((x, delta, x_hi))
            return curve(x, delta, x_hi)

        monkeypatch.setattr(security, "_curve", spied)
        branches = set()
        for r_err, r_fil, alpha in self._cases():
            calls.clear()
            res = phase_error_bound(ObservedRates(r_err=r_err, r_fil=r_fil, alpha=alpha))
            seen = list(calls)
            # the kernel takes the two excesses as phase_error_bound forms them
            a2 = alpha * alpha
            excess = r_fil - 2.0 * a2 * (1.0 - a2) - 2.0 * r_err
            kernel = security._phase_ceiling(delta_param(r_fil, alpha), excess, alpha)
            assert type(kernel) is tuple
            assert _same(kernel, (res.r_ph_bar, res.x_star, res.delta, res.feasible))
            # tradeoff_curve's array path is _curve at each point
            for x, delta, x_hi in seen:
                [f] = tradeoff_curve(np.array([x]), delta, alpha)
                assert curve(x, delta, x_hi) == f
            x_hi = security._domain(res.delta, alpha)[1]
            branches.add("double root" if len(seen) > 1 else
                         "infeasible" if not res.feasible else
                         "x_hi" if res.x_star == x_hi else "crossing")
        assert branches == {"double root", "infeasible", "x_hi", "crossing"}

    @settings(max_examples=300, deadline=None)
    @given(a2=st.floats(1e-300, 0.49), delta=st.floats(-0.2, 0.5),
           u=st.floats(0.0, 1.0))
    def test_curve_kernel_matches_array_curve(self, a2, delta, u):
        # f(x) has one formula: the array path is _curve at each point, the
        # second radical vanishes exactly at the right end, and f is concave
        alpha = math.sqrt(a2)
        x_lo, x_hi = security._domain(delta, alpha)
        if x_lo > x_hi:
            return
        xs = np.array([x_lo, x_lo + u * (x_hi - x_lo), x_hi])
        fs = tradeoff_curve(xs, delta, alpha)
        assert fs.shape == xs.shape
        for x, f in zip(xs, fs):
            assert security._curve(float(x), delta, x_hi) == f
        assert fs[2] == math.sqrt((x_hi - x_lo) * (x_hi + x_lo))
        assert fs[1] >= min(fs[0], fs[2]) - 1e-15


class TestKeyRate:
    def test_noiseless_value(self):
        assert key_rate(observed(0.0, 0.2)) == pytest.approx(0.32, abs=1e-9)

    @pytest.mark.parametrize("alpha_sq", np.linspace(0.05, 0.45, 12))
    def test_beyond_threshold_rate_zero(self, alpha_sq):
        assert key_rate(observed(0.05, alpha_sq)) == 0.0

    def test_benchmark_positive(self):
        g = key_rate(observed(0.03, 0.2))
        assert 0.0 < g <= 0.3272

    def test_zero_sifted_fraction(self):
        assert key_rate(ObservedRates(r_err=0.0, r_fil=0.0, alpha=0.3)) == 0.0

    def test_more_errors_than_sifted_bits_give_no_key(self):
        # e_bit = r_err / r_fil above 1 has no binary entropy: no key, even
        # with a caller's bound that claims no phase errors
        obs = ObservedRates(r_err=0.3, r_fil=0.1, alpha=ALPHA_02)
        assert key_rate(obs, BoundResult(0.0, 0.0, 0.0, True)) == 0.0

    def test_half_phase_ratio_kills_rate(self):
        # manufactured rates where the returned ceiling hits r_fil/2
        obs = ObservedRates(r_err=0.12, r_fil=0.3272, alpha=ALPHA_02)
        res = phase_error_bound(obs)
        if res.feasible and res.r_ph_bar / obs.r_fil > 0.5:
            assert key_rate(obs) == 0.0

    def test_never_exceeds_sifted_fraction(self):
        for p in np.linspace(0.0, 0.05, 8):
            for alpha_sq in (0.1, 0.2, 0.3):
                obs = observed(p, alpha_sq)
                assert key_rate(obs) <= obs.r_fil + 1e-12


class TestFiniteKeyLength:
    N = 1_000_000

    @pytest.mark.parametrize("p", [0.0, 0.03, 0.05])
    @pytest.mark.parametrize("alpha_sq", [0.1, 0.3])
    def test_zero_slack_is_the_asymptotic_rate(self, p, alpha_sq):
        # with the asymptotic bound the key length is n times the key rate
        r = depolarizing_rates(alpha_sq, p)
        obs = ObservedRates(r_err=r["r_err"], r_fil=r["r_fil"], alpha=math.sqrt(alpha_sq))
        bound = phase_error_bound(obs)
        n_err, n_fil = r["r_err"] * self.N, r["r_fil"] * self.N
        assert finite_key_length(n_err, n_fil, self.N, bound) == pytest.approx(
            self.N * key_rate(obs, bound), rel=1e-12, abs=1e-6)

    def test_no_key_without_a_feasible_bound_or_sifted_pairs(self):
        bound = BoundResult(r_ph_bar=0.0, x_star=0.0, delta=0.0, feasible=True)
        assert finite_key_length(0, 0, self.N, bound) == 0.0
        infeasible = BoundResult(math.nan, math.nan, 0.0, feasible=False)
        assert finite_key_length(0, 1_000, self.N, infeasible) == 0.0

    @pytest.mark.parametrize("n_bit_bar", [500, 501, 700, 999, 1_000])
    def test_bit_error_bound_above_half_leaves_no_key(self, n_bit_bar):
        # n_err + eps1 n is an upper bound, so any rate up to it is possible
        bound = BoundResult(r_ph_bar=0.0, x_star=0.0, delta=0.0, feasible=True)
        slacks = SlackVector(eps1=(n_bit_bar - 100) / self.N)
        assert finite_key_length(100, 1_000, self.N, bound, slacks) == pytest.approx(0.0, abs=1e-9)


class TestFiniteSizeBound:
    N = 1_000_000

    def rates_to_counts(self, p, alpha_sq):
        r = depolarizing_rates(alpha_sq, p)
        return int(round(r["r_err"] * self.N)), int(round(r["r_fil"] * self.N))

    @pytest.mark.parametrize("p", [0.01, 0.02, 0.03, 0.04])
    @pytest.mark.parametrize("alpha_sq", [0.1, 0.2, 0.3])
    def test_zero_slack_matches_asymptotic_bound(self, p, alpha_sq):
        n_err, n_fil = self.rates_to_counts(p, alpha_sq)
        alpha = math.sqrt(alpha_sq)
        res = finite_size_bound(n_err, n_fil, self.N, alpha)
        exact = phase_error_bound(
            ObservedRates(r_err=n_err / self.N, r_fil=n_fil / self.N, alpha=alpha)
        )
        assert res.feasible == exact.feasible
        if exact.feasible:
            assert res.r_ph_bar == pytest.approx(exact.r_ph_bar, abs=1e-6)

    def test_zero_slack_feasible_at_tiny_error_rate(self):
        # a run with almost no errors: the exact problem is feasible, and the
        # zero-slack relaxation must say so too
        n_err, n_fil, n = 88, 321_586, 3_162_278
        alpha = math.sqrt(0.054)
        res = finite_size_bound(n_err, n_fil, n, alpha)
        exact = phase_error_bound(ObservedRates(r_err=n_err / n, r_fil=n_fil / n, alpha=alpha))
        assert exact.feasible and res.feasible
        assert res.r_ph_bar == pytest.approx(exact.r_ph_bar, abs=1e-12)

    @pytest.mark.parametrize("n_err,n_fil,n,alpha_sq", [
        (9, 1_231_037, 2_701_347, 0.3512),
        (107, 3_149_803, 9_709_746, 0.2037),
        (99, 1_178_648, 4_175_037, 0.1701),
        (128, 136_634, 1_230_781, 0.0589),
    ])
    def test_zero_slack_seeded_optimum_stays_feasible(self, n_err, n_fil, n, alpha_sq):
        # near-error-free runs whose feasible x-interval is narrower than the
        # grid spacing: only the seeded x_star of phase_error_bound finds it,
        # so that root must lie on the feasible side of the crossing
        alpha = math.sqrt(alpha_sq)
        res = finite_size_bound(n_err, n_fil, n, alpha)
        exact = phase_error_bound(ObservedRates(r_err=n_err / n, r_fil=n_fil / n, alpha=alpha))
        assert exact.feasible and res.feasible
        assert res.r_ph_bar == pytest.approx(exact.r_ph_bar, abs=1e-12)

    def test_tiny_slack_never_shrinks_tiny_error_rate_ceiling(self):
        # slacks far below the x-grid spacing must keep the narrow feasible
        # interval of a near-error-free run, and only raise the ceiling
        n_err, n_fil, n = 88, 321_586, 3_162_278
        alpha = math.sqrt(0.054)
        base = finite_size_bound(n_err, n_fil, n, alpha)
        res = finite_size_bound(n_err, n_fil, n, alpha, SlackVector(eps2=1e-12, eps3=1e-12))
        assert base.feasible and res.feasible
        assert res.r_ph_bar >= base.r_ph_bar

    def test_zero_slack_error_weight_above_half_is_infeasible(self):
        res = finite_size_bound(600, 400, 1_000, ALPHA_02)
        assert not res.feasible

    @pytest.mark.parametrize("idx", range(8))
    def test_monotone_in_each_slack(self, idx):
        n_err, n_fil = self.rates_to_counts(0.03, 0.2)
        base = finite_size_bound(n_err, n_fil, self.N, ALPHA_02)
        kwargs = {f"eps{idx + 1}": 0.002}
        relaxed = finite_size_bound(n_err, n_fil, self.N, ALPHA_02, SlackVector(**kwargs))
        assert relaxed.feasible
        assert relaxed.r_ph_bar >= base.r_ph_bar - 1e-7

    def test_small_slacks_against_dense_grid_oracle(self):
        # independent brute force over the six raw count fractions with
        # two zoom levels; the solver must land within 1e-4
        n_err, n_fil = self.rates_to_counts(0.03, 0.2)
        eps = SlackVector(*([0.001] * 8))
        res = finite_size_bound(n_err, n_fil, self.N, ALPHA_02, eps)
        oracle = self._grid_oracle(n_err / self.N, n_fil / self.N, 0.001)
        assert res.feasible
        assert res.r_ph_bar == pytest.approx(oracle, abs=1e-4)

    def test_zero_slack_is_phase_error_bound(self):
        # eps1 enters the key length and eps3 only lifts the ceiling
        n_err, n_fil = self.rates_to_counts(0.03, 0.2)
        exact = phase_error_bound(
            ObservedRates(r_err=n_err / self.N, r_fil=n_fil / self.N, alpha=ALPHA_02))
        res = finite_size_bound(n_err, n_fil, self.N, ALPHA_02, SlackVector(eps1=0.01, eps3=0.002))
        assert res.x_star == exact.x_star and res.delta == exact.delta
        assert res.r_ph_bar == exact.r_ph_bar + 0.002

    @staticmethod
    def seeded_batch(size, seed):
        """Slacked instances as a run would produce them: depolarizing
        channel p in [0, 0.06], alpha^2 in [0.05, 0.45], n log-uniform in
        [1e4, 1e7], binomial counts, each slack log-uniform in [1e-4, 1e-2]."""
        rng = np.random.default_rng(seed)
        for _ in range(size):
            p, a2 = rng.uniform(0.0, 0.06), rng.uniform(0.05, 0.45)
            n = int(round(10 ** rng.uniform(4, 7)))
            r = depolarizing_rates(a2, p)
            n_err, n_fil = int(rng.binomial(n, r["r_err"])), int(rng.binomial(n, r["r_fil"]))
            eps = tuple(float(10 ** rng.uniform(-4, -2)) for _ in range(8))
            yield n_err, n_fil, n, math.sqrt(a2), eps

    def test_slacked_ceiling_matches_oracle_on_seeded_batch(self):
        # every ceiling is feasible and at least as high as any feasible
        # point the oracle finds, within 1e-9 each way; the first three also
        # get a finer dense scan
        for i, (n_err, n_fil, n, alpha, eps) in enumerate(self.seeded_batch(150, 2024)):
            res = finite_size_bound(n_err, n_fil, n, alpha, SlackVector(*eps))
            shape = (513, 65, 65) if i < 3 else (201, 17, 17)
            oracle = finite_size_oracle(n_err, n_fil, n, alpha, eps, dense_shape=shape)
            assert res.feasible and oracle is not None
            assert res.r_ph_bar == pytest.approx(oracle, abs=1e-9), (n_err, n_fil, n, alpha, eps)

    def test_newton_solves_end_on_their_surfaces(self, monkeypatch):
        # each active-set solve the slacked search reports as converged ends
        # on every surface of its working set to rounding, with the objective
        # stationary along them: the point the ceiling reports is one of these,
        # a point of a fixed-x solve, or an empty-sector edge
        ends = []

        def checked(self, W, z, cons, rho):
            out = search(self, W, z, cons, rho)
            z, cons, lam, blocker = out
            if blocker is None:
                assert max(abs(cons[key][0]) for key in W) <= 1e-13, W
                c1, s1 = math.cos(2.0 * z[2]), math.sin(2.0 * z[2])
                grad = (1.0 - self.gap * c1, 0.0, 2.0 * self.gap * s1 * z[0])
                resid = [g - sum(l * cons[key][1 + i] for l, key in zip(lam, W))
                         for i, g in enumerate(grad)]
                assert max(map(abs, resid)) <= 1e-9 * max(map(abs, grad)), W
                ends.append(W)
            return out

        search = _sectors.Sectors._search
        monkeypatch.setattr(_sectors.Sectors, "_search", checked)
        for n_err, n_fil, n, alpha, eps in self.seeded_batch(10, 2024):
            assert finite_size_bound(n_err, n_fil, n, alpha, SlackVector(*eps)).feasible
        assert len(ends) >= 10

    @pytest.mark.parametrize("eps6", [None, 0.03, 0.07], ids=["drawn", "eps6=0.03", "eps6=0.07"])
    @pytest.mark.parametrize("zeroed", [1, 3], ids=["eps2", "eps4"])
    def test_one_zero_width_band_matches_pinned_oracle(self, zeroed, eps6):
        # eps2 = 0 pins s (a = s - d) and eps4 = 0 pins f (a = f + d); the
        # oracle's scan over the free skew then applies.  A large eps6 puts
        # the maximum where the check's mass meets the end of its range
        for n_err, n_fil, n, alpha, eps in self.seeded_batch(4, 77):
            eps = eps[:zeroed] + (0.0,) + eps[zeroed + 1:]
            if eps6 is not None:
                eps = eps[:5] + (eps6,) + eps[6:]
            res = finite_size_bound(n_err, n_fil, n, alpha, SlackVector(*eps))
            oracle = finite_size_oracle(n_err, n_fil, n, alpha, eps)
            assert res.feasible and oracle is not None
            assert res.r_ph_bar == pytest.approx(oracle, abs=1e-10), (n_err, n_fil, n, alpha, eps)

    def test_zero_width_bands_match_pinned_oracle(self):
        # eps2 = eps4 = 0 pin a and d, so the oracle's exact x scan applies;
        # the ceiling never drops below it and overshoots by at most 1e-9
        for n_err, n_fil, n, alpha, eps in self.seeded_batch(5, 77):
            eps = (eps[0], 0.0, eps[2], 0.0) + eps[4:]
            res = finite_size_bound(n_err, n_fil, n, alpha, SlackVector(*eps))
            oracle = finite_size_oracle(n_err, n_fil, n, alpha, eps)
            assert res.feasible and oracle is not None
            assert oracle - 1e-12 <= res.r_ph_bar <= oracle + 1e-9, (n_err, n_fil, n, alpha, eps)

    def test_feasible_where_only_the_slacks_explain_the_data(self):
        # no error in 2069 pairs is too few for the zero-slack problem; the
        # slacked one is feasible only on a small set near the lowest x
        eps = (3e-3, 2e-4, 4e-3, 3e-3, 7e-4, 2e-3, 8e-4, 8e-4)
        alpha = math.sqrt(0.0876)
        assert not finite_size_bound(0, 341, 2069, alpha).feasible
        res = finite_size_bound(0, 341, 2069, alpha, SlackVector(*eps))
        oracle = finite_size_oracle(0, 341, 2069, alpha, eps, dense_shape=(1001, 33, 33))
        assert res.feasible and oracle is not None
        assert res.r_ph_bar == pytest.approx(oracle, abs=1e-9)

    def test_non_convex_set_with_both_bands_open(self):
        # the feasible set has a small nub by the corner x ~ eps6, d ~ x,
        # joined to its body through a neck; a start in the nub leaves the
        # ray search at the nub's local maximum, 0.0021021
        eps = (2.7940939813901293e-05, 0.0010493583196562054, 0.0, 0.01629534966557457,
               0.0, 0.0019360978987065815, 0.003105174443197792, 0.021888525852119905)
        args = (570, 425234, 4343946, 0.22678126115145866)
        res = finite_size_bound(*args, SlackVector(*eps))
        oracle = finite_size_oracle(*args, eps, dense_shape=(1001, 33, 33))
        assert res.feasible and oracle is not None
        assert res.r_ph_bar >= oracle - 1e-9

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_noiseless_sliver_reaches_the_oracle(self):
        # no error and 180 filtered pairs in 1000 at alpha^2 = 0.1, eps2 =
        # 0.025 alone: the set is a sliver by the corner where both sectors'
        # angles equal theta, a few 1e-8 across, on which rounding decides
        # feasibility.  The ceiling covers the oracle's and stays witnessed
        eps = (0.0, 0.025, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        alpha = math.sqrt(0.1)
        res = finite_size_bound(0, 180, 1000, alpha, SlackVector(*eps))
        oracle = finite_size_oracle(0, 180, 1000, alpha, eps, dense_shape=(1001, 33, 33))
        assert res.feasible and oracle is not None
        assert res.r_ph_bar >= oracle - 1e-12
        assert witnessed(0, 180, 1000, alpha, eps, res)

    def test_slacked_call_peaks_below_one_megabyte(self):
        n_err, n_fil = self.rates_to_counts(0.03, 0.2)
        tracemalloc.start()
        try:
            finite_size_bound(n_err, n_fil, self.N, ALPHA_02, SlackVector(*([1e-3] * 8)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @staticmethod
    def _mu_feasible(x, lo0, hi0, lo1, hi1, r_err, e):
        """Dense grid over check-side count splits in simplex coordinates.

        The split is (m01, m10, m11, m00) = (y t1, y (1-t1), (1-y) t0,
        (1-y)(1-t0)); gridding the (y, t0, t1) box keeps the binding corner
        configurations exactly on the grid.
        """
        ys = np.linspace(max(0.0, x - e), min(1.0, x + e), 9)
        t0s = np.linspace(lo0, hi0, 9)
        t1s = np.linspace(lo1, hi1, 9)
        yg, t0g, t1g = np.meshgrid(ys, t0s, t1s, indexing="ij")
        mix = (1.0 - yg) * t0g + yg * t1g
        ok = (mix >= 2 * (r_err - e) - 1e-12) & (mix <= 2 * (r_err + e) + 1e-12)
        return bool(np.any(ok))

    @classmethod
    def _grid_oracle(cls, r_err, r_fil, e):
        """Zooming dense grid over the six raw count fractions.

        The filter-rate band pins v01 + v11 and the sender-marginal band pins
        v10 + v11; for a gridded v01 their overlap confines v10 and then v11
        to thin intervals, which are scanned densely.  A separate dense scan
        covers the three check-side fractions.
        """
        a2, b2 = 0.2, 0.8
        gap = b2 - a2
        theta = math.asin(ALPHA_02)
        sum01_lo = (r_fil - a2 - e) / gap
        sum01_hi = (r_fil - a2 + e) / gap

        best = -math.inf
        center = None
        for span, n_pts in [(1.0, 401), (0.005, 201)]:
            if center is None:
                v01s = np.linspace(1.0, 0.0, n_pts)
            else:
                v01s = np.linspace(min(1.0, center + span), max(0.0, center - span), n_pts)
            for v01 in v01s:
                if b2 * v01 + a2 < best:  # even a maximal v10 cannot win
                    continue
                v10_lo = max(0.0, v01 + a2 - e - sum01_hi)
                v10_hi = min(1.0 - v01, v01 + a2 + e - sum01_lo)
                if v10_lo > v10_hi + 1e-12:
                    continue
                for v10 in np.linspace(v10_hi, v10_lo, 27):
                    v11_lo = max(sum01_lo - v01, a2 - e - v10, 0.0)
                    v11_hi = min(sum01_hi - v01, a2 + e - v10, 1.0 - v01 - v10)
                    if v11_lo > v11_hi + 1e-12:
                        continue
                    obj = a2 * v10 + b2 * v01
                    if obj <= best:
                        continue
                    for v11 in np.linspace(v11_lo, v11_hi, 7):
                        v00 = 1.0 - v01 - v10 - v11
                        if v00 < -1e-12:
                            continue
                        anti = v01 + v10
                        corr = v00 + v11
                        r0 = v11 / corr if corr > 1e-300 else 0.0
                        r1 = v01 / anti if anti > 1e-300 else 0.0
                        th0 = math.asin(math.sqrt(min(max(r0, 0.0), 1.0)))
                        th1 = math.asin(math.sqrt(min(max(r1, 0.0), 1.0)))
                        lo0 = max(0.0, math.sin(th0 - theta) ** 2 - e)
                        hi0 = min(1.0, math.sin(th0 + theta) ** 2 + e)
                        lo1 = max(0.0, math.sin(th1 - theta) ** 2 - e)
                        hi1 = min(1.0, math.sin(th1 + theta) ** 2 + e)
                        if corr <= 1e-300:
                            lo0, hi0 = 0.0, 1.0
                        if anti <= 1e-300:
                            lo1, hi1 = 0.0, 1.0
                        if cls._mu_feasible(anti, lo0, hi0, lo1, hi1, r_err, e):
                            best = obj
                            center = v01
                            break
        return best + e


def witnessed(n_err, n_fil, n_pairs, alpha, eps, res) -> bool:
    """Whether some skew a makes the point behind ``res`` pass the predicate:
    x = x_star and d from r_ph_bar = (x + gap d)/2 + eps3."""
    gap = 1.0 - 2.0 * alpha * alpha
    d = (2.0 * (res.r_ph_bar - eps[2]) - res.x_star) / gap
    return finite_size_witness(n_err, n_fil, n_pairs, alpha, eps, res.x_star, d) is not None


# slacked runs where finite_size_bound once stopped below its own feasible set:
# (n_err, n_fil, n_pairs), alpha, slacks, a raw feasible (x, a, d) and its
# objective.  The first returns 0.0072786457026831055 (the ray-angle gain
# from its zero-slack start has two modes and the golden section keeps the
# lower); the second aborts (its fallback start _widest_point misses the set)
SLACKED_UNDER_REPORTS = [
    ((2, 212, 1974), 0.23659774053116908,
     (0.0007468926456829118, 0.009729025156224912, 0.00017024727629191776,
      0.0024527896259221873, 0.00015223328374449092, 0.004938322013571505,
      0.009456685424799015, 0.00023209973586536657),
     (0.028250630095960624, -0.894624333853006, -0.011486894753758806), 0.009195133979967587),
    ((0, 255, 1228), 0.33210780862241424,
     (0.001129009195199313, 0.000706144458490584, 0.002081164683119335,
      0.00733389080626951, 0.0005088434786340427, 0.007323847363374834,
      0.0002740523158736592, 0.00758226219076311),
     (0.008532578097920572, -0.7583761069078313, 0.008449233354193678), 0.009640157176002561),
]

# slacked runs whose maximum sits where the check's mass y = x -+ eps6 meets
# 0, or past it; a search that took y as one smooth form stopped short there,
# by 2.6e-2, 4.0e-5 and 2.4e-5 of the ceiling
SLACKED_KINK_MISSES = [
    ((53, 26646, 83208), 0.445626965672654,
     (0.0, 0.0, 0.0, 0.017194204790552663, 0.0, 0.07127121132851778, 4.619477773397801e-06, 0.0)),
    ((15414, 403068, 8176383), 0.15329667730712523,
     (0.0, 0.0, 0.0, 0.04439649737918453, 0.0, 0.022542056843987086, 5.62136522868173e-06, 0.0)),
    ((0, 181, 1084), 0.3073728659877903,
     (1.5321986239636932e-05, 0.0, 5.090831012981262e-05, 0.002569934886554594, 0.0,
      0.042843590670087264, 0.00022621790200319042, 1.6245918698125066e-05)),
]

# slacked runs whose Newton solves stopped one rounding step short of the
# convergence test (a full step under 1e-15, about 4 ulps of the angles):
# the cells around the point stayed open and the ceiling over-reported by
# 2.5e-4, 1.4e-4 and 5.1e-5 relative
SLACKED_STOP_MISSES = [
    ((13, 463, 1067), 0.5360580173969828,
     (0.0, 0.0, 0.0030197794122817064, 4.3499242753385985e-07, 2.356378369832594e-05, 0.0,
      5.040951471168503e-05, 0.0)),
    ((21, 580, 2139), 0.3826906084425279,
     (0.0, 1.206789982134033e-05, 0.0, 0.0, 7.512635464157641e-06, 0.00303698182860079, 0.0,
      0.0)),
    ((4377, 1268094, 4761878), 0.39707398247296544,
     (0.02628289666357728, 0.0008343363901314098, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
]


class TestSlackedUnderReport:
    @pytest.mark.parametrize("tallies,alpha,eps,point,value", SLACKED_UNDER_REPORTS,
                             ids=["under-report", "abort"])
    def test_witness_is_feasible(self, tallies, alpha, eps, point, value):
        assert finite_size_predicate(*tallies, alpha, eps, *point, tol=1e-14)
        gap = 1.0 - 2.0 * alpha * alpha
        assert 0.5 * (point[0] + gap * point[2]) + eps[2] == value

    @pytest.mark.parametrize("tallies,alpha,eps,point,value", SLACKED_UNDER_REPORTS,
                             ids=["under-report", "abort"])
    def test_ceiling_dominates_witness(self, tallies, alpha, eps, point, value):
        res = finite_size_bound(*tallies, alpha, SlackVector(*eps))
        assert res.feasible
        assert res.r_ph_bar >= value - 1e-12
        assert witnessed(*tallies, alpha, eps, res)

    @pytest.mark.parametrize("tallies,alpha,eps", SLACKED_KINK_MISSES, ids=["a", "b", "c"])
    def test_ceiling_reaches_the_oracle_at_the_check_clip(self, tallies, alpha, eps):
        res = finite_size_bound(*tallies, alpha, SlackVector(*eps))
        oracle = finite_size_oracle(*tallies, alpha, eps)
        assert res.feasible and oracle is not None
        assert res.r_ph_bar >= oracle - 1e-12
        assert witnessed(*tallies, alpha, eps, res)

    @pytest.mark.parametrize("tallies,alpha,eps", SLACKED_STOP_MISSES, ids=["a", "b", "c"])
    def test_newton_solves_converge_above_rounding(self, tallies, alpha, eps):
        res = finite_size_bound(*tallies, alpha, SlackVector(*eps))
        oracle = finite_size_oracle(*tallies, alpha, eps)
        assert res.feasible and oracle is not None
        assert res.r_ph_bar == pytest.approx(oracle, rel=1e-10, abs=0.0)
        assert witnessed(*tallies, alpha, eps, res)

    def test_reported_points_are_witnessed(self):
        # the point behind every reported ceiling passes the predicate at
        # 1e-14: d from r_ph_bar and x_star, and some skew a in the bands
        batch = list(TestFiniteSizeBound.seeded_batch(500, 31))
        batch += [(*tallies, alpha, eps) for tallies, alpha, eps, _, _ in SLACKED_UNDER_REPORTS]
        reported = 0
        for n_err, n_fil, n, alpha, eps in batch:
            res = finite_size_bound(n_err, n_fil, n, alpha, SlackVector(*eps))
            if res.feasible:
                reported += 1
                assert witnessed(n_err, n_fil, n, alpha, eps, res), (n_err, n_fil, n, alpha, eps)
        assert reported >= 490


SLACK = st.one_of(st.just(0.0), st.floats(-6.0, -2.0).map(lambda e: 10.0 ** e))


class TestFiniteSizeProperties:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(100, 10_000_000), fil=st.floats(0.0, 1.0), err=st.floats(0.0, 0.5),
           alpha_sq=st.floats(0.01, 0.49), eps=st.lists(SLACK, min_size=8, max_size=8),
           idx=st.integers(0, 7), factor=st.floats(1.0, 10.0))
    def test_slacks_only_relax(self, n, fil, err, alpha_sq, eps, idx, factor):
        # feasible and no lower than the zero-slack ceiling, and raising any
        # one slack never lowers the ceiling
        n_fil, n_err = int(fil * n), int(err * n)
        alpha = math.sqrt(alpha_sq)
        zero = finite_size_bound(n_err, n_fil, n, alpha)
        res = finite_size_bound(n_err, n_fil, n, alpha, SlackVector(*eps))
        if zero.feasible:
            assert res.feasible and res.r_ph_bar >= zero.r_ph_bar - 1e-12
        raised = list(eps)
        raised[idx] = max(raised[idx] * factor, 1e-6)
        more = finite_size_bound(n_err, n_fil, n, alpha, SlackVector(*raised))
        if res.feasible:
            assert more.feasible and more.r_ph_bar >= res.r_ph_bar - 1e-12

    def test_doubling_eps2_never_lowers_an_open_ceiling(self):
        # a pair that test_slacks_only_relax drew (n=551, fil=0.5546875,
        # err=0.5, alpha^2=1/3, idx=1, factor=2).  At eps2 = 10^-2.75 a search
        # over angle cells once ended open: best x + gap d 1.1103689, open
        # bound 1.1113488, reported 0.55567442.  At twice eps2 it closed at
        # 1.1113219 (0.55566096), which bounds the smaller set too;
        # finite_size_oracle finds no point for either.  The x search closes
        # both, and the larger eps2 never reports less
        alpha, eps = math.sqrt(1.0 / 3.0), [0.0, 10.0 ** -2.75, 0.0, 10.0 ** -3.5, 0.0, 0.0, 0.0, 0.0]
        res = finite_size_bound(275, 305, 551, alpha, SlackVector(*eps))
        eps[1] *= 2.0
        more = finite_size_bound(275, 305, 551, alpha, SlackVector(*eps))
        assert res.feasible and more.feasible
        assert more.r_ph_bar >= res.r_ph_bar - 1e-12


class TestFailureBudget:
    def test_vacuous_bound(self):
        assert failure_budget(100, SlackVector(), 1, 0.0) == pytest.approx(7.0, abs=1e-15)

    def test_omitted_sampling_term(self):
        eps = SlackVector(*([0.005] * 8))
        val = failure_budget(1_000_000, eps, 0, 0.0)
        expected = 2 * math.exp(-25.0) + 4 * math.exp(-50.0)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_n_and_eps(self):
        eps_small = SlackVector(*([0.003] * 8))
        eps_large = SlackVector(*([0.006] * 8))
        assert failure_budget(10_000, eps_small, 0, 0.0) > failure_budget(
            100_000, eps_small, 0, 0.0
        )
        assert failure_budget(10_000, eps_small, 0, 0.0) > failure_budget(
            10_000, eps_large, 0, 0.0
        )

    def test_negative_inputs_rejected(self):
        with pytest.raises(ParameterError):
            failure_budget(-1, SlackVector(), 0, 0.0)


class TestValidation:
    def test_observed_rates_ranges(self):
        with pytest.raises(ParameterError):
            ObservedRates(r_err=0.6, r_fil=0.3, alpha=0.3)
        with pytest.raises(ParameterError):
            ObservedRates(r_err=0.1, r_fil=1.2, alpha=0.3)

    def test_slack_vector_nonnegative(self):
        with pytest.raises(ParameterError):
            SlackVector(eps3=-0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("idx", range(1, 9))
    def test_slack_vector_rejects_non_finite(self, bad, idx):
        with pytest.raises(ParameterError):
            SlackVector(**{f"eps{idx}": bad})

    @pytest.mark.parametrize("args", [(10, 300, 1_000, -0.3), (0, 0, 0, 0.4)])
    def test_finite_size_bound_rejects_bad_inputs(self, args):
        # a negative alpha, and a run of no pairs
        with pytest.raises(ParameterError):
            finite_size_bound(*args)

    def test_bound_result_fields(self):
        res = BoundResult(r_ph_bar=0.1, x_star=0.2, delta=0.0, feasible=True)
        assert res.feasible and res.r_ph_bar == 0.1
