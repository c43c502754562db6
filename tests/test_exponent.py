"""Tests for the two-basis sampling exponent machinery."""

import math
import time
import warnings

import numpy as np
import pytest

from b92sim.errors import DomainError, ParameterError
from b92sim.exponent import (
    ExponentPoint,
    ExponentSolution,
    SolverOptions,
    TwoBasisSampling,
    b92_angle_bounds,
    basis_from_bloch,
    bloch_fit_radius,
    bloch_vector,
    count_residual,
    exponent_decomposed,
    exponent_direct,
    iid_probability,
    min_exponent,
    remainder_probs,
    singlet_pair_probs,
    zero_region_contains,
)
from b92sim import exponent
from b92sim.cli import main
from oracles import (
    brute_force_region_distance,
    collinear_exponent,
    random_density_matrix,
    rate_and_grad,
    rate_batch,
    scan_exponent,
    singlet_pair_probs_loop,
)


def random_basis(rng) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(g)
    return q.T.copy()


def random_unit_vector(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def problem_from_point(basis0, basis1, k_frac, bloch_n, q, p, m0, m1) -> TwoBasisSampling:
    """Sampling instance whose observed counts match the point exactly."""
    xi1 = 1.0 - 2.0 * k_frac
    q1 = q.sum(axis=(1, 3))
    q2 = q.sum(axis=(0, 2))
    m = xi1 * p + k_frac * (q1 + q2)
    big = m0 + m1
    return TwoBasisSampling(
        basis0=basis0,
        basis1=basis1,
        m0=m0,
        m1=m1,
        delta0=float(m[0, 1] * big / m0),
        delta1=float(m[1, 1] * big / m1),
    )


def random_valid_point(rng, basis0=None, basis1=None):
    """Random decomposition point plus a matching sampling instance.

    The point is sampled with basis marginals equal to the instance weights,
    which count matching requires exactly.
    """
    if basis0 is None:
        basis0 = random_basis(rng)
    if basis1 is None:
        basis1 = random_basis(rng)
    m0 = int(rng.integers(2, 30))
    m1 = int(rng.integers(2, 30))
    w = np.array([m0, m1], dtype=float) / (m0 + m1)
    k_frac = rng.uniform(0.02, 0.48)
    bloch_n = random_unit_vector(rng)

    # remainder block with exact basis marginals w
    p = np.empty((2, 2))
    for b in (0, 1):
        p[b] = w[b] * rng.dirichlet(np.ones(2))

    # pair block: row sums r and column sums c with r + c = 2w
    probe = TwoBasisSampling(basis0, basis1, m0, m1, 0.5, 0.5)
    beta = singlet_pair_probs(probe)
    off = rng.uniform(0.0, 0.9 * min(w)) if min(w) > 0 else 0.0
    s, t = rng.uniform(0.0, off, size=2)
    q_bb = np.array([[w[0] - (s + t) / 2.0, s], [t, w[1] - (s + t) / 2.0]])
    q = np.zeros((2, 2, 2, 2))
    for b in (0, 1):
        for bp in (0, 1):
            support = beta[b, bp].reshape(-1) > 1e-12
            cond = np.zeros(4)
            cond[support] = rng.dirichlet(np.ones(int(support.sum())))
            q[b, bp] = q_bb[b, bp] * cond.reshape(2, 2)

    point = ExponentPoint(k_frac=k_frac, bloch_n=bloch_n, q=q, p=p)
    problem = problem_from_point(basis0, basis1, k_frac, bloch_n, q, p, m0, m1)
    return point, problem


def zero_rate_point(problem: TwoBasisSampling, k_frac: float, bloch_n: np.ndarray):
    """The decomposition making every divergence in the exponent vanish."""
    m = problem.m_total
    w = np.array([problem.m0 / m, problem.m1 / m])
    alpha = remainder_probs(problem, bloch_n)
    p = w[:, None] * alpha / alpha.sum(axis=1, keepdims=True) * 1.0
    # conditional outcome distribution equal to the singlet reference
    beta = singlet_pair_probs(problem)
    beta_bb = beta.sum(axis=(2, 3), keepdims=True)
    q = (w[:, None] * w[None, :])[:, :, None, None] * beta / beta_bb
    return ExponentPoint(k_frac=k_frac, bloch_n=bloch_n, q=q, p=p)


class TestReferenceDistributions:
    def test_singlet_pair_probs_normalization(self):
        rng = np.random.default_rng(1)
        prob = TwoBasisSampling(random_basis(rng), random_basis(rng), 3, 5, 0.5, 0.5)
        beta = singlet_pair_probs(prob)
        assert beta.sum() == pytest.approx(1.0, abs=1e-12)
        # same-basis equal outcomes are impossible on a singlet
        for b in (0, 1):
            for j in (0, 1):
                assert beta[b, b, j, j] == pytest.approx(0.0, abs=1e-14)

    def test_singlet_pair_probs_anticorrelation(self):
        basis = np.eye(2, dtype=complex)
        prob = TwoBasisSampling(basis, basis, 2, 2, 0.5, 0.5)
        beta = singlet_pair_probs(prob)
        assert beta[0, 0, 0, 1] == pytest.approx(0.125, abs=1e-14)
        assert beta[0, 0, 1, 0] == pytest.approx(0.125, abs=1e-14)

    def test_singlet_pair_probs_matches_cell_loop(self):
        rng = np.random.default_rng(3)
        for case in range(200):
            basis0 = random_basis(rng)
            basis1 = basis0 if case % 4 == 0 else random_basis(rng)
            prob = TwoBasisSampling(basis0, basis1, 3, 5, 0.5, 0.5)
            beta = singlet_pair_probs(prob)
            loop = singlet_pair_probs_loop(prob.kets())
            assert np.max(np.abs(beta - loop)) <= 1e-16
            # impossible outcome pairs stay exactly impossible
            np.testing.assert_array_equal(beta == 0.0, loop == 0.0)

    def test_singlet_pair_probs_from_bloch_axes(self):
        # beta[b, b', j, j'] = (1 - v_bj . v_b'j') / 16 for the outcome Bloch
        # axes v, so Z_q = sum beta_ij w_i w_j = (S^2 - |V|^2) / 16 with
        # S = sum w_i and V = sum w_i v_i: the lemma that puts min_exponent's
        # minimum at k_frac = 0 outside the zero region
        rng = np.random.default_rng(4)
        for _ in range(200):
            prob = TwoBasisSampling(random_basis(rng), random_basis(rng), 3, 5, 0.5, 0.5)
            v = np.array([bloch_vector(ket) for ket in prob.kets().reshape(4, 2)])
            lemma = (1.0 - v @ v.T) / 16.0
            beta = singlet_pair_probs(prob).transpose(0, 2, 1, 3).reshape(4, 4)
            assert np.max(np.abs(beta - lemma)) <= 1e-15
            w = rng.exponential(size=4)
            z_q = (w.sum() ** 2 - np.linalg.norm(w @ v) ** 2) / 16.0
            assert w @ beta @ w == pytest.approx(z_q, rel=1e-12, abs=1e-15)

    def test_remainder_probs_normalization(self):
        rng = np.random.default_rng(2)
        prob = TwoBasisSampling(random_basis(rng), random_basis(rng), 3, 5, 0.5, 0.5)
        alpha = remainder_probs(prob, random_unit_vector(rng))
        assert alpha.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(alpha.sum(axis=1), [0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("pole", [1.0, -1.0])
    def test_remainder_probs_exact_near_the_poles(self, pole):
        # |<b,j|n>|^2 / 2 = (1 + n . v_bj) / 4 for the outcome Bloch axes v;
        # n swept 1e-9 ... 3e-8 rad from a pole, where acos(n_z) lost ~1e-8 rad
        prob = TwoBasisSampling(basis_from_bloch(math.pi / 2),
                                basis_from_bloch(math.pi / 2, math.pi / 2), 3, 5, 0.5, 0.5)
        v = np.array([bloch_vector(ket) for ket in prob.kets().reshape(4, 2)]).reshape(2, 2, 3)
        rng = np.random.default_rng(27)
        for tilt in np.geomspace(1e-9, 3e-8, 40):
            for phi in rng.uniform(0.0, 2.0 * math.pi, 4):
                n = np.array([math.sin(tilt) * math.cos(phi), math.sin(tilt) * math.sin(phi),
                              pole * math.cos(tilt)])
                assert np.max(np.abs(remainder_probs(prob, n) - (1.0 + v @ n) / 4.0)) <= 1e-15


class TestExponentForms:
    def test_forms_agree_on_random_points(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            point, problem = random_valid_point(rng)
            r13 = exponent_direct(point, problem)
            r14 = exponent_decomposed(point, problem)
            assert abs(r13 - r14) < 1e-10

    def test_decomposed_form_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            point, problem = random_valid_point(rng)
            assert exponent_decomposed(point, problem) >= -1e-12

    def test_zero_rate_point_gives_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            basis0, basis1 = random_basis(rng), random_basis(rng)
            k_frac = rng.uniform(0.0, 0.5)
            n = random_unit_vector(rng)
            probe = TwoBasisSampling(basis0, basis1, 2, 2, 0.5, 0.5)
            point = zero_rate_point(probe, k_frac, n)
            problem = problem_from_point(basis0, basis1, k_frac, n, point.q, point.p, 2, 2)
            assert exponent_direct(point, problem) == pytest.approx(0.0, abs=1e-9)
            assert exponent_decomposed(point, problem) == pytest.approx(0.0, abs=1e-9)

    def test_classical_sampling_consistency(self):
        # identical bases, matching fractions, no pairs: rate is zero
        basis = np.eye(2, dtype=complex)
        delta = 0.3
        # outcome-1 ket is |1>, so |<1|n>|^2 = (1 - nz)/2 = delta requires
        # nz = 1 - 2 delta, with the unit norm made up in the x component
        nz = 1.0 - 2.0 * delta
        n = np.array([math.sqrt(1.0 - nz * nz), 0.0, nz])
        prob = TwoBasisSampling(basis, basis, 10, 10, delta, delta)
        p = prob.count_fractions()
        point = ExponentPoint(
            k_frac=0.0, bloch_n=n, q=singlet_pair_probs(prob) / 0.25 / 4.0, p=p
        )
        assert exponent_direct(point, prob) == pytest.approx(0.0, abs=1e-12)

    def test_boundary_k_fracs_drop_blocks(self):
        rng = np.random.default_rng(10)
        basis0, basis1 = random_basis(rng), random_basis(rng)
        probe = TwoBasisSampling(basis0, basis1, 2, 2, 0.5, 0.5)
        n = random_unit_vector(rng)

        point0 = zero_rate_point(probe, 0.0, n)
        problem0 = problem_from_point(basis0, basis1, 0.0, n, point0.q, point0.p, 2, 2)
        # at k_frac = 0 the paired block is absent: perturbing q is invisible
        q_alt = singlet_pair_probs(probe)
        q_alt = q_alt / q_alt.sum()
        point0_alt = ExponentPoint(k_frac=0.0, bloch_n=n, q=q_alt, p=point0.p)
        assert exponent_direct(point0, problem0) == pytest.approx(
            exponent_direct(point0_alt, problem0), abs=1e-12
        )

        point5 = zero_rate_point(probe, 0.5, n)
        problem5 = problem_from_point(basis0, basis1, 0.5, n, point5.q, point5.p, 2, 2)
        # at k_frac = 1/2 the remainder block is absent: moving n is invisible
        point5_alt = ExponentPoint(
            k_frac=0.5, bloch_n=random_unit_vector(rng), q=point5.q, p=point5.p
        )
        assert exponent_direct(point5, problem5) == pytest.approx(
            exponent_direct(point5_alt, problem5), abs=1e-12
        )

    def test_count_mismatch_rejected(self):
        rng = np.random.default_rng(11)
        point, problem = random_valid_point(rng)
        bad = TwoBasisSampling(
            problem.basis0,
            problem.basis1,
            problem.m0,
            problem.m1,
            min(problem.delta0 + 0.1, 1.0),
            problem.delta1,
        )
        with pytest.raises(DomainError):
            exponent_direct(point, bad)

    def test_perturbed_point_positive_and_consistent(self):
        rng = np.random.default_rng(12)
        basis0, basis1 = random_basis(rng), random_basis(rng)
        probe = TwoBasisSampling(basis0, basis1, 2, 2, 0.5, 0.5)
        n = random_unit_vector(rng)
        base = zero_rate_point(probe, 0.3, n)
        p = base.p.copy()
        # move mass within one basis row so the weights stay matched
        shift = min(0.05, p[0, 0] * 0.9)
        p[0, 0] -= shift
        p[0, 1] += shift
        point = ExponentPoint(k_frac=0.3, bloch_n=n, q=base.q, p=p)
        problem = problem_from_point(basis0, basis1, 0.3, n, base.q, p, 2, 2)
        r13 = exponent_direct(point, problem)
        r14 = exponent_decomposed(point, problem)
        assert r13 > 1e-6
        assert abs(r13 - r14) < 1e-10


class TestZeroRegion:
    def test_maximally_mixed_always_inside(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            prob = TwoBasisSampling(random_basis(rng), random_basis(rng), 4, 4, 0.5, 0.5)
            assert zero_region_contains(prob)

    def test_identical_bases_mismatched_fractions(self):
        basis = np.eye(2, dtype=complex)
        assert not zero_region_contains(TwoBasisSampling(basis, basis, 4, 4, 0.2, 0.6))
        assert zero_region_contains(TwoBasisSampling(basis, basis, 4, 4, 0.4, 0.4))

    def test_agrees_with_bloch_ball_brute_force(self):
        rng = np.random.default_rng(21)
        tested = 0
        while tested < 60:
            basis0, basis1 = random_basis(rng), random_basis(rng)
            d0, d1 = rng.random(), rng.random()
            prob = TwoBasisSampling(basis0, basis1, 4, 4, d0, d1)
            radius = bloch_fit_radius(prob)
            if not math.isfinite(radius) or abs(radius - 1.0) < 0.08:
                continue  # brute force cannot resolve the boundary shell
            tested += 1
            d_min = brute_force_region_distance(
                bloch_vector(basis0[1]),
                bloch_vector(basis1[1]),
                d0,
                d1,
                np.random.default_rng(1000 + tested),
                samples=200_000,
            )
            if zero_region_contains(prob):
                assert d_min < 1e-2
            else:
                assert d_min > 1e-2

    def test_slices_match_angle_windows(self):
        theta = math.asin(math.sqrt(0.2))
        basis0 = basis_from_bloch(0.0)
        basis1 = basis_from_bloch(2.0 * theta)
        for delta0 in (0.1, 0.3, 0.5, 0.75):
            psi0 = math.asin(math.sqrt(delta0))
            lo, hi = b92_angle_bounds(psi0, theta)

            def member(d1):
                return zero_region_contains(
                    TwoBasisSampling(basis0, basis1, 4, 4, delta0, d1)
                )

            for target, inside_dir in ((lo, +1), (hi, -1)):
                if 0.0 < target < 1.0:
                    edge = _bisect_membership(member, target, inside_dir)
                    assert edge == pytest.approx(target, abs=1e-9)

    def test_b92_angle_bounds_basics(self):
        # identical bases collapse the window to a point
        lo, hi = b92_angle_bounds(0.7, 0.0)
        assert lo == pytest.approx(math.sin(0.7) ** 2, abs=1e-12)
        assert hi == pytest.approx(math.sin(0.7) ** 2, abs=1e-12)
        # at theta_l = 0 the window degenerates to the point sin^2(theta):
        # a zero fraction on the data side pins the Bloch vector to a pole,
        # which fixes the check-side fraction exactly
        theta = math.asin(math.sqrt(0.2))
        lo, hi = b92_angle_bounds(0.0, theta)
        assert lo == pytest.approx(0.2, abs=1e-12)
        assert hi == pytest.approx(0.2, abs=1e-12)
        prob_point = TwoBasisSampling(
            basis_from_bloch(0.0), basis_from_bloch(2 * theta), 4, 4, 0.0, 0.2
        )
        assert zero_region_contains(prob_point)
        prob_off = TwoBasisSampling(
            basis_from_bloch(0.0), basis_from_bloch(2 * theta), 4, 4, 0.0, 0.1
        )
        assert not zero_region_contains(prob_off)
        with pytest.raises(DomainError):
            b92_angle_bounds(-0.1, 0.3)


def _bisect_membership(member, target, inside_dir, span=2e-4):
    """Locate the membership boundary near ``target`` by bisection."""
    lo = target + inside_dir * span
    hi = target - inside_dir * span
    lo = min(max(lo, 0.0), 1.0)
    hi = min(max(hi, 0.0), 1.0)
    assert member(lo) and not member(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if member(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestIidProbability:
    def test_binomial_mode_formula(self):
        rng = np.random.default_rng(30)
        basis0, basis1 = random_basis(rng), random_basis(rng)
        sigma = random_density_matrix(2, rng)
        d0 = float(np.real(np.vdot(basis0[1], sigma @ basis0[1])))
        d1 = float(np.real(np.vdot(basis1[1], sigma @ basis1[1])))
        k0, k1 = round(10 * d0), round(10 * d1)
        prob = TwoBasisSampling(basis0, basis1, 10, 10, k0 / 10, k1 / 10)
        expected = (
            math.comb(10, k0) * d0**k0 * (1 - d0) ** (10 - k0)
            * math.comb(10, k1) * d1**k1 * (1 - d1) ** (10 - k1)
        )
        assert iid_probability(sigma, prob) == pytest.approx(expected, rel=1e-12)

    def test_deterministic_outcome(self):
        basis = np.eye(2, dtype=complex)
        sigma = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        prob = TwoBasisSampling(basis, basis, 10, 10, 0.0, 0.0)
        assert iid_probability(sigma, prob) == pytest.approx(1.0, abs=1e-12)

    def test_nonintegral_counts_rejected(self):
        basis = np.eye(2, dtype=complex)
        prob = TwoBasisSampling(basis, basis, 10, 10, 0.55, 0.0)
        with pytest.raises(DomainError):
            iid_probability(np.eye(2) / 2, prob)

    def test_large_m_rejected(self):
        basis = np.eye(2, dtype=complex)
        prob = TwoBasisSampling(basis, basis, 40, 40, 0.5, 0.5)
        with pytest.raises(DomainError):
            iid_probability(np.eye(2) / 2, prob)


FAST_OPTS = SolverOptions(seed=5)


def assert_certified(sol, prob):
    """The solution's point reproduces the counts and its primal value is the
    reported exponent."""
    assert sol.residual == count_residual(sol.point, prob)
    assert sol.residual <= 1e-8
    assert sol.r_primal == exponent_direct(sol.point, prob)
    assert abs(sol.r_primal - sol.r_nats) <= 1e-8


class TestMinExponent:
    def test_zero_inside_region(self):
        rng = np.random.default_rng(40)
        found = 0
        while found < 5:
            basis0, basis1 = random_basis(rng), random_basis(rng)
            d0, d1 = rng.random(), rng.random()
            prob = TwoBasisSampling(basis0, basis1, 5, 7, d0, d1)
            if bloch_fit_radius(prob) > 0.9:
                continue
            found += 1
            sol = min_exponent(prob, FAST_OPTS)
            assert sol.r_nats < 1e-6
            assert_certified(sol, prob)

    def test_positive_outside_region(self):
        theta = math.pi / 4.0
        prob = TwoBasisSampling(
            basis_from_bloch(0.0), basis_from_bloch(2 * theta), 8, 8, 0.0, 1.0
        )
        assert not zero_region_contains(prob)
        sol = min_exponent(prob, FAST_OPTS)
        assert sol.r_nats > 1e-4
        assert sol.r_bits == pytest.approx(sol.r_nats / math.log(2.0), rel=1e-12)
        assert_certified(sol, prob)

    def test_rate_decreases_toward_region(self):
        theta = math.asin(math.sqrt(0.2))
        basis0, basis1 = basis_from_bloch(0.0), basis_from_bloch(2 * theta)
        lo, hi = b92_angle_bounds(math.asin(math.sqrt(0.3)), theta)
        rates = []
        for d1 in np.linspace(min(hi + 0.25, 1.0), hi + 0.02, 5):
            prob = TwoBasisSampling(basis0, basis1, 8, 8, 0.3, float(d1))
            sol = min_exponent(prob, FAST_OPTS)
            assert_certified(sol, prob)
            rates.append(sol.r_nats)
        for a, b in zip(rates, rates[1:]):
            assert b <= a + 1e-7

    def test_solution_point_is_consistent(self):
        prob = TwoBasisSampling(
            basis_from_bloch(0.0), basis_from_bloch(1.1), 9, 11, 0.1, 0.85
        )
        sol = min_exponent(prob, FAST_OPTS)
        r_direct = exponent_direct(sol.point, prob)
        assert r_direct == pytest.approx(sol.r_nats, abs=1e-6)
        assert_certified(sol, prob)


# the benchmark's collinear edge instance: one basis for both, m = 17/17
COLLINEAR_ANGLES = (1.2386489116583281, 4.866353449734718)


class TestCertifiedSolver:
    @pytest.mark.parametrize("basis1_theta, d0, d1, opts, expected", [
        # identical bases, default options
        (0.0, 0.1, 0.8, None, 0.275396),
        # identical bases, all outcomes 0: no singlet pair fits, so k_frac = 0
        (0.0, 0.0, 0.0, None, 0.0),
        # antipodal bases, explicit options
        (math.pi, 0.2, 0.6, SolverOptions(seed=3), 0.024157),
    ])
    def test_collinear_bases_match_closed_form(self, basis1_theta, d0, d1, opts, expected):
        prob = TwoBasisSampling(basis_from_bloch(0.0), basis_from_bloch(basis1_theta),
                                20, 20, d0, d1)
        sol = min_exponent(prob, opts)
        closed = collinear_exponent(20, 20, d0, d1, antipodal=basis1_theta > 0.0)
        assert closed == pytest.approx(expected, abs=1e-6)
        assert sol.r_nats == pytest.approx(closed, abs=1e-6)
        assert_certified(sol, prob)

    @pytest.mark.parametrize("delta0, expected", [(0.1, 0.041190997), (0.0, 0.123452347)])
    def test_general_bases_match_reference_values(self, delta0, expected):
        # reference values from a derivative-free simplex search over
        # (k_frac, n), which agrees with this solver to 1e-11
        prob = TwoBasisSampling(basis_from_bloch(0.0), basis_from_bloch(1.1), 9, 11, delta0, 0.85)
        sol = min_exponent(prob)
        assert sol.r_nats == pytest.approx(expected, abs=1e-6)
        assert_certified(sol, prob)

    def test_benchmark_collinear_instance(self):
        basis = basis_from_bloch(*COLLINEAR_ANGLES)
        prob = TwoBasisSampling(basis, basis, 17, 17, 16 / 17, 1 / 17)
        sol = min_exponent(prob)
        closed = collinear_exponent(17, 17, 16 / 17, 1 / 17, antipodal=False)
        assert closed == pytest.approx(0.469429, abs=1e-6)
        assert sol.r_nats == pytest.approx(closed, abs=1e-6)
        assert_certified(sol, prob)

    def test_infeasible_cell_scores_infinity(self):
        # with n on the shared axis the remainder is deterministic, every pair
        # gives one 1 and one 0, so the ones fraction 1/2 needs k_frac = 1/2;
        # at k_frac = 0.49 no (q, p) reproduces the counts
        basis = basis_from_bloch(*COLLINEAR_ANGLES)
        prob = TwoBasisSampling(basis, basis, 17, 17, 16 / 17, 1 / 17)
        axis = bloch_vector(basis[1])
        rates, _ = rate_batch(prob, np.array([0.49, 0.49]), np.stack([axis, -axis]), 80, 1e-11)
        assert np.all(rates == np.inf)

    def test_envelope_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(51)
        for case in range(6):
            # counts at 0, in the middle and at m0 on the first basis
            k0 = (0, 3, 7)[case % 3]
            prob = TwoBasisSampling(random_basis(rng), random_basis(rng), 7, 9,
                                    k0 / 7, int(rng.integers(0, 10)) / 9)
            x = np.concatenate([[rng.uniform(0.05, 0.45)], 1.3 * random_unit_vector(rng)])
            rate, grad = rate_and_grad(prob, x, 80, 1e-12)
            assert math.isfinite(rate)
            h = 1e-6
            for i in range(4):
                step = np.zeros(4)
                step[i] = h
                up, _ = rate_and_grad(prob, x + step, 80, 1e-12)
                down, _ = rate_and_grad(prob, x - step, 80, 1e-12)
                assert grad[i] == pytest.approx((up - down) / (2.0 * h), abs=1e-6)

    def test_seeded_batch_certified(self):
        rng = np.random.default_rng(50)
        opts = SolverOptions(seed=6)
        for case in range(12):
            m0, m1 = (int(v) for v in rng.integers(3, 13, size=2))
            k0 = int(rng.choice([0, m0, rng.integers(0, m0 + 1)]))
            k1 = int(rng.choice([0, m1, rng.integers(0, m1 + 1)]))
            theta, phi = math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)
            basis0 = basis_from_bloch(theta, phi)
            kind = case % 3
            if kind == 0:
                basis1 = random_basis(rng)
            elif kind == 1:
                basis1 = basis_from_bloch(math.pi - theta, phi + math.pi)
            else:
                basis1 = basis0
            prob = TwoBasisSampling(basis0, basis1, m0, m1, k0 / m0, k1 / m1)
            sol = min_exponent(prob, opts)
            assert_certified(sol, prob)
            if kind > 0:
                closed = collinear_exponent(m0, m1, k0 / m0, k1 / m1, antipodal=kind == 1)
                assert sol.r_nats == pytest.approx(closed, abs=1e-6)

    def test_uncertified_solution_raises(self, monkeypatch, capsys):
        # a circle fit that returns a wrong direction (the in-plane normal of
        # u_0) leaves a primal-dual gap far above GAP_TOL: min_exponent
        # raises, and the CLI exits 2 with nothing on stdout
        monkeypatch.setattr(exponent, "_circle_fit", lambda m, axes, a, b: b)
        prob = TwoBasisSampling(basis_from_bloch(0.0), basis_from_bloch(1.1), 9, 11, 0.1, 0.85)
        with pytest.raises(DomainError, match="not certified"):
            min_exponent(prob)
        code = main(["exponent", "--basis0", "0", "--basis1", "1.1", "--m0", "9", "--m1", "11",
                     "--delta0", "0.1", "--delta1", "0.85"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "not certified" in err

    def test_solution_diagnostics_default_to_nan(self):
        prob = TwoBasisSampling(np.eye(2), np.eye(2), 2, 2, 0.5, 0.5)
        point = zero_rate_point(prob, 0.2, np.array([1.0, 0.0, 0.0]))
        sol = ExponentSolution(point=point, r_nats=0.0, r_bits=0.0, converged=True)
        assert math.isnan(sol.residual) and math.isnan(sol.r_primal)
        assert math.isnan(sol.gap)


def criterion_10_instances():
    """The 20 instances of acceptance criterion 10, drawn the same way."""
    rng = np.random.default_rng(1010)
    for _ in range(20):
        m0 = int(rng.integers(8, 31))
        m1 = int(rng.integers(8, 31))
        if m0 + m1 > 60:
            m1 = 60 - m0
        random_density_matrix(2, rng)
        basis0, basis1 = random_basis(rng), random_basis(rng)
        k0 = int(rng.integers(0, m0 + 1))
        k1 = int(rng.integers(0, m1 + 1))
        yield TwoBasisSampling(basis0, basis1, m0, m1, k0 / m0, k1 / m1)


# the six exponent-queries benchmark instances: Bloch angles of the two
# bases, (m0, m1) and the ones counts (k0, k1)
BENCHMARK_CORPUS = (
    ((1.4405993451072054, 3.5068998601808077), (1.392147308823917, 5.031459034864608), 21, 24, 4, 19),
    ((2.3215763481225338, 5.216228780585104), (2.5753261021740275, 4.196704113991341), 24, 23, 11, 2),
    ((1.2832619957076763, 3.981183847147571), (2.305142645737157, 3.652413974650182), 9, 8, 3, 6),
    ((1.0619826861838721, 4.901463261832676), (1.1307281323577043, 4.233829896184263), 21, 23, 5, 15),
    ((1.8496661797238123, 0.22090935003420673), (0.615620946249653, 4.328371260886526), 10, 21, 0, 19),
    (COLLINEAR_ANGLES, COLLINEAR_ANGLES, 17, 17, 16, 1),
)


def benchmark_instances():
    for b0, b1, m0, m1, k0, k1 in BENCHMARK_CORPUS:
        yield TwoBasisSampling(basis_from_bloch(*b0), basis_from_bloch(*b1), m0, m1,
                               k0 / m0, k1 / m1)


def certification_batch(size=150, seed=2027):
    """General, identical and antipodal bases in turn, m0 and m1 in [1, 30],
    each ones count 0, all, or uniform."""
    rng = np.random.default_rng(seed)
    for case in range(size):
        m0, m1 = (int(v) for v in rng.integers(1, 31, size=2))
        k0 = int(rng.choice([0, m0, rng.integers(0, m0 + 1)]))
        k1 = int(rng.choice([0, m1, rng.integers(0, m1 + 1)]))
        theta, phi = math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)
        basis0 = basis_from_bloch(theta, phi)
        basis1 = (random_basis(rng), basis0,
                  basis_from_bloch(math.pi - theta, phi + math.pi))[case % 3]
        yield TwoBasisSampling(basis0, basis1, m0, m1, k0 / m0, k1 / m1)


def near_collinear_batch(size=300, seed=2028):
    """Near-collinear and near-antipodal bases in turn, m0 and m1 in
    [1, 200], uniform ones counts.  The second axis sits eps rad from the
    first (or from its antipode) along a meridian, eps log-uniform in
    [1e-9, 1e-2], and exactly on it for two instances in ten.  Yields
    (problem, antipodal, eps)."""
    rng = np.random.default_rng(seed)
    for case in range(size):
        m0, m1 = (int(v) for v in rng.integers(1, 201, size=2))
        k0, k1 = int(rng.integers(0, m0 + 1)), int(rng.integers(0, m1 + 1))
        theta, phi = math.acos(rng.uniform(-0.98, 0.98)), rng.uniform(0.0, 2.0 * math.pi)
        eps = 0.0 if case % 10 < 2 else 10.0 ** rng.uniform(-9.0, -2.0)
        theta1 = theta + eps * rng.choice([-1.0, 1.0])
        antipodal = case % 2 == 1
        basis1 = (basis_from_bloch(math.pi - theta1, phi + math.pi) if antipodal
                  else basis_from_bloch(theta1, phi))
        prob = TwoBasisSampling(basis_from_bloch(theta, phi), basis1, m0, m1, k0 / m0, k1 / m1)
        yield prob, antipodal, eps


def near_collinear_grid(seed=2029):
    """Bases eps = 10^(-k/4) rad from aligned or antipodal, k = 4..49, with
    m0 = 5, m1 = 7, delta0 in {0.1, 0.2, 0.3, 0.5} and delta1 = delta0,
    1 - delta0 or a seeded uniform draw: 1104 queries."""
    rng = np.random.default_rng(seed)
    for k in range(4, 50):
        eps = 10.0 ** (-k / 4)
        for antipodal in (False, True):
            basis1 = basis_from_bloch(math.pi - eps if antipodal else eps)
            for d0 in (0.1, 0.2, 0.3, 0.5):
                for d1 in (d0, 1.0 - d0, float(rng.random())):
                    yield TwoBasisSampling(basis_from_bloch(0.0), basis1, 5, 7, d0, d1)


def assert_gap_certified(sol, prob):
    assert_certified(sol, prob)
    assert sol.converged and sol.gap <= 1e-8


def dual_bound(prob, n):
    """min_exponent's weak-duality bound outside the zero region, at
    lam0 = ln(alpha(n) / m) on the free cells, from the public array
    functions: base - max(ln Z_p*, ln Z_q / 2)."""
    m = prob.count_fractions().reshape(4)
    free = m > 0.0
    w = np.zeros(4)
    w[free] = m[free] / remainder_probs(prob, n).reshape(4)[free]
    beta = singlet_pair_probs(prob).transpose(0, 2, 1, 3).reshape(4, 4)
    axes = np.array([bloch_vector(ket) for ket in prob.kets().reshape(4, 2)])
    z_q = float(w @ beta @ w)
    z_p = (w.sum() + np.linalg.norm(w @ axes)) / 4.0
    base = prob.weight_entropy() - math.log(2.0) + float(m[free] @ np.log(w[free]))
    lower = base - math.log(z_p)
    return min(lower, base - 0.5 * math.log(z_q)) if z_q > 0.0 else lower


class TestDualFirstSolver:
    @pytest.mark.parametrize("instances", [criterion_10_instances, benchmark_instances])
    def test_certified_without_the_scan(self, instances):
        for prob in instances():
            assert_gap_certified(min_exponent(prob), prob)

    def test_diagnostics_match_the_returned_arrays(self):
        # the solver works on floats and builds the point's arrays last; its
        # residual, primal value and gap are those of the returned arrays,
        # and the array method agrees (a transposed q index [b, b', j, j']
        # moves the implied counts)
        near = [prob for prob, _, _ in near_collinear_batch(size=60, seed=2031)]
        for prob in list(certification_batch(size=60, seed=2030)) + near:
            sol = min_exponent(prob)
            assert sol.residual == count_residual(sol.point, prob)
            implied = sol.point.implied_count_fractions() - prob.count_fractions()
            assert np.max(np.abs(implied)) == pytest.approx(sol.residual, abs=1e-15)
            assert sol.r_primal == exponent_direct(sol.point, prob)
            lower = 0.0 if zero_region_contains(prob) else dual_bound(prob, sol.point.bloch_n)
            assert sol.gap == pytest.approx(sol.r_primal - lower, abs=1e-12)
            assert sol.r_nats == pytest.approx(max(lower, 0.0), abs=1e-12)

    def test_collinear_candidate_meets_closed_form(self):
        basis = basis_from_bloch(*COLLINEAR_ANGLES)
        prob = TwoBasisSampling(basis, basis, 17, 17, 16 / 17, 1 / 17)
        sol = min_exponent(prob)
        assert_gap_certified(sol, prob)
        assert sol.point.k_frac == 0.0
        assert sol.r_nats == pytest.approx(collinear_exponent(17, 17, 16 / 17, 1 / 17, False),
                                           abs=1e-12)

    def test_batch_agrees_with_scan(self):
        # the scan uses a small grid; its Bloch-fit start and L-BFGS-B
        # refinement still reach the minimum on every instance here
        for prob in certification_batch():
            sol = min_exponent(prob)
            assert_gap_certified(sol, prob)
            scan = scan_exponent(prob, k_grid=11, sphere_points=40, restarts=4)
            assert sol.r_nats <= scan + 1e-9
            assert sol.r_nats == pytest.approx(scan, abs=1e-9)

    def test_options_steer_nothing(self):
        probs = [next(criterion_10_instances())] + list(benchmark_instances())
        other = SolverOptions(seed=2)
        for prob in probs:
            a, b = min_exponent(prob, SolverOptions(seed=1)), min_exponent(prob, other)
            assert (a.r_nats, a.r_primal, a.gap, a.residual) == (b.r_nats, b.r_primal, b.gap, b.residual)
            for field in ("bloch_n", "q", "p"):
                np.testing.assert_array_equal(getattr(a.point, field), getattr(b.point, field))
            assert a.point.k_frac == b.point.k_frac

    def test_near_collinear_batch_certified(self):
        # every query certified in at most 10 ms on average; r_nats meets the
        # collinear closed form on collinear bases and moves from it by less
        # than the basis offset, never upward, off them
        start, size = time.perf_counter(), 0
        for prob, antipodal, eps in near_collinear_batch():
            sol = min_exponent(prob)
            size += 1
            assert_gap_certified(sol, prob)
            closed = collinear_exponent(prob.m0, prob.m1, prob.delta0, prob.delta1, antipodal)
            if eps == 0.0:
                assert sol.r_nats == pytest.approx(closed, abs=1e-12)
            else:
                assert sol.r_nats <= closed + 1e-12
                assert sol.r_nats >= closed - eps
        assert time.perf_counter() - start <= 0.01 * size

    def test_near_collinear_grid_reproduces_counts_to_rounding(self):
        # the Bloch fit solves in the plane's orthonormal axes, dividing by
        # sin w rather than sin^2 w, so microradian offsets certify too
        for prob in near_collinear_grid():
            sol = min_exponent(prob)
            assert_gap_certified(sol, prob)
            assert sol.residual <= 1e-12

    def test_near_collinear_fit_on_an_axis_antipode(self):
        # bases 2.2e-8 rad apart: outside the zero region, with the pooled
        # collinear Bloch fit on a cell's antipode, where 1 + v.n = 0 and
        # D(m || alpha(n)) is +inf; certified with no division by zero or nan
        prob = TwoBasisSampling(basis_from_bloch(1.9320882482313846, 2.9021905852649343),
                                basis_from_bloch(1.932088270170213, 2.9021905852649343),
                                19, 96, 0.631578947368421, 0.625)
        assert not zero_region_contains(prob)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = min_exponent(prob, SolverOptions(seed=1))
        assert_gap_certified(sol, prob)
        assert sol.r_nats == pytest.approx(1.2770318066873676e-05, abs=1e-12)


class TestValidation:
    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("k_grid", 1), ("sphere_points", 0), ("restarts", 0),
        ("newton_iters", 0), ("grad_tol", 0.0), ("grad_tol", -1e-9),
        ("grad_tol", math.nan), ("grad_tol", math.inf),
    ])
    def test_solver_options_rejected(self, field, value):
        # seed is validated; the five fields that steered nothing are gone,
        # so passing one is an error rather than silently ignored
        with pytest.raises(ParameterError if field == "seed" else TypeError):
            SolverOptions(**{field: value})

    def test_basis_orthonormality_enforced(self):
        with pytest.raises(ParameterError):
            TwoBasisSampling(np.ones((2, 2)), np.eye(2), 2, 2, 0.5, 0.5)

    def test_fraction_range_enforced(self):
        with pytest.raises(ParameterError):
            TwoBasisSampling(np.eye(2), np.eye(2), 2, 2, 1.5, 0.5)

    def test_point_normalization_enforced(self):
        with pytest.raises(ParameterError):
            ExponentPoint(
                k_frac=0.2,
                bloch_n=np.array([0.0, 0.0, 1.0]),
                q=np.full((2, 2, 2, 2), 0.5),
                p=np.full((2, 2), 0.25),
            )
