"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (visible with ``pytest -s`` or on failure).

Run with:  pytest tests/test_acceptance.py -v -s
"""

import json
import math
import time

import numpy as np
import pytest

from b92sim.cli import cmd_sweep, SweepConfig
from b92sim.exponent import (
    SolverOptions,
    TwoBasisSampling,
    b92_angle_bounds,
    basis_from_bloch,
    bloch_fit_radius,
    bloch_vector,
    exponent_decomposed,
    exponent_direct,
    iid_probability,
    min_exponent,
    zero_region_contains,
)
from b92sim.protocol import ProtocolParams, expected_rates, run_protocol1, reduction_equivalence
from b92sim.quantum import (
    DensityMatrix,
    b92_povm,
    depolarizing_channel,
    filter_op,
    ket_z,
    projector,
)
from b92sim.security import (
    ObservedRates,
    SlackVector,
    finite_size_bound,
    key_rate,
    phase_error_bound,
)
from oracles import depolarizing_rates, grid_scan_phase_bound, random_density_matrix
from test_exponent import random_basis, random_valid_point

ALPHA_02 = math.sqrt(0.2)


def report(num: int, description: str, ok: bool, elapsed: float | None = None,
           limit: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    timing = ""
    if elapsed is not None:
        timing = f" [{elapsed:.1f}s" + (f" < {limit:.0f}s]" if limit else "]")
    print(f"criterion {num:2d} {status}: {description}{timing}")
    assert ok, f"criterion {num} failed: {description}"


class TestAcceptance:
    def test_criterion_01_security_threshold(self):
        start = time.time()
        cfg = SweepConfig(
            p_values=tuple(np.linspace(0.02, 0.05, 31)), alpha_sq_values=None
        )
        rows = cmd_sweep(cfg)
        secure = [r.p for r in rows if r.G > 1e-6]
        elapsed = time.time() - start
        largest = max(secure) if secure else math.nan
        ok = bool(secure) and 0.032 <= largest <= 0.036 and elapsed < 60.0
        report(
            1,
            f"optimized sweep threshold p = {largest:.3f} in [0.032, 0.036]",
            ok,
            elapsed,
            60.0,
        )

    def test_criterion_02_filter_measurement_identity(self):
        start = time.time()
        worst = 0.0
        for alpha in np.linspace(0.01, 0.705, 50):
            f = filter_op(alpha).matrix
            pv = b92_povm(alpha)
            for j in (0, 1):
                dev = np.max(np.abs(f @ projector(ket_z(j)) @ f - pv.elements[j]))
                worst = max(worst, float(dev))
        elapsed = time.time() - start
        ok = worst < 1e-12 and elapsed < 1.0
        report(2, f"filter/measurement identity, max deviation {worst:.2e}", ok,
               elapsed, 1.0)

    def test_criterion_03_reduction_equivalence(self):
        start = time.time()
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            rho = DensityMatrix(random_density_matrix(2, rng))
            direct, via_filter = reduction_equivalence(rho, ALPHA_02)
            worst = max(worst, 0.5 * float(np.abs(direct - via_filter).sum()))
        elapsed = time.time() - start
        ok = worst < 1e-12 and elapsed < 1.0
        report(3, f"strategy equivalence, max TV distance {worst:.2e}", ok,
               elapsed, 1.0)

    def test_criterion_04_oracle_agreement(self):
        start = time.time()
        numeric = expected_rates(ALPHA_02, depolarizing_channel(0.03))
        closed = depolarizing_rates(0.2, 0.03)
        # frozen oracle values at (p = 0.03, alpha^2 = 0.2); both derivations
        # give r_err = p/3 = 0.01 (the closed-form bracket is identically 1)
        ok = (
            abs(numeric.r_fil - 0.3272) < 1e-9
            and abs(closed["r_fil"] - 0.3272) < 1e-9
            and abs(numeric.r_err - 0.01) < 1e-9
            and abs(closed["r_err"] - 0.01) < 1e-9
            and abs(numeric.r_fil - closed["r_fil"]) < 1e-9
            and abs(numeric.r_err - closed["r_err"]) < 1e-9
        )
        elapsed = time.time() - start
        report(
            4,
            f"two-path rates ({numeric.r_fil:.6f}, {numeric.r_err:.6f}) "
            "= (0.3272, 0.01)",
            ok,
            elapsed,
            1.0,
        )

    def test_criterion_05_monte_carlo_validity(self):
        start = time.time()
        n = 100_000
        ok = True
        worst_z = 0.0
        for p in (0.0, 0.01, 0.03):
            rates = expected_rates(ALPHA_02, depolarizing_channel(p))
            obs = ObservedRates(
                r_err=min(max(rates.r_err, 0.0), 0.5),
                r_fil=min(max(rates.r_fil, 0.0), 1.0),
                alpha=ALPHA_02,
            )
            bound = phase_error_bound(obs)
            assert bound.feasible
            for seed in range(20):
                t = run_protocol1(
                    ProtocolParams(
                        alpha=ALPHA_02, n_pairs=n,
                        channel=depolarizing_channel(p), seed=seed,
                    )
                )
                checks = [
                    (t.n_err, rates.r_err),
                    (t.n_fil, rates.r_fil),
                    (t.n_bit, rates.r_bit),
                    (t.n_ph, rates.r_ph),
                ]
                checks += [
                    (t.n_xx[i, j], rates.r_xx[i, j]) for i in (0, 1) for j in (0, 1)
                ]
                checks += [
                    (t.m_check[i, j], rates.s_check[i, j])
                    for i in (0, 1)
                    for j in (0, 1)
                ]
                for count, rate in checks:
                    rate = min(max(rate, 0.0), 1.0)
                    sigma = math.sqrt(n * rate * (1.0 - rate))
                    dev = abs(count - n * rate)
                    if sigma == 0.0:
                        ok &= dev == 0.0
                    else:
                        worst_z = max(worst_z, dev / sigma)
                        ok &= dev <= 4.0 * sigma
                ok &= t.n_ph / n <= bound.r_ph_bar + 1e-12
        elapsed = time.time() - start
        ok = ok and elapsed < 120.0
        report(5, f"60 runs within 4 sigma (worst z = {worst_z:.2f}), bound never "
                  "violated", ok, elapsed, 120.0)

    def test_criterion_06_bound_solver_vs_grid(self):
        start = time.time()
        worst = 0.0
        ok = True
        # the 10 x 10 grid, plus the noiseless column (crossing at x = 0,
        # where f(0) = 2 alpha beta equals the target) and (0.125, 0.4),
        # whose crossing is the domain's right end
        points = [(p, a) for p in np.linspace(0.0, 0.045, 10)
                  for a in np.linspace(0.05, 0.45, 10)]
        points += [(0.0, a) for a in np.linspace(0.01, 0.49, 25)] + [(0.125, 0.4)]
        for p, alpha_sq in points:
            r = depolarizing_rates(alpha_sq, p)
            alpha = math.sqrt(alpha_sq)
            res = phase_error_bound(
                ObservedRates(r_err=r["r_err"], r_fil=r["r_fil"], alpha=alpha)
            )
            x_grid = grid_scan_phase_bound(r["r_err"], r["r_fil"], alpha)
            if x_grid is None:
                ok &= not res.feasible
            else:
                ok &= res.feasible and abs(res.x_star - x_grid) < 1e-6
                if res.feasible:
                    worst = max(worst, abs(res.x_star - x_grid))
        elapsed = time.time() - start
        ok = ok and elapsed < 30.0
        report(6, f"closed-form root vs 1e6-point scan, max |dx| = {worst:.2e}", ok,
               elapsed, 30.0)

    def test_criterion_07_noiseless_fixed_point(self):
        start = time.time()
        ok = True
        for alpha_sq in np.linspace(0.02, 0.48, 20):
            alpha = math.sqrt(alpha_sq)
            r_fil = 2.0 * alpha_sq * (1.0 - alpha_sq)
            obs = ObservedRates(r_err=0.0, r_fil=r_fil, alpha=alpha)
            res = phase_error_bound(obs)
            ok &= res.feasible and abs(res.r_ph_bar) < 1e-9
            ok &= abs(key_rate(obs) - r_fil) < 1e-9
        elapsed = time.time() - start
        report(7, "noiseless channel: zero phase ceiling and full sifted yield",
               ok, elapsed, 5.0)

    def test_criterion_08_exponent_form_equivalence(self):
        start = time.time()
        rng = np.random.default_rng(88)
        worst = 0.0
        for _ in range(1000):
            point, problem = random_valid_point(rng)
            gap = abs(
                exponent_direct(point, problem) - exponent_decomposed(point, problem)
            )
            worst = max(worst, gap)
        elapsed = time.time() - start
        ok = worst < 1e-10 and elapsed < 5.0
        report(8, f"exponent forms agree on 1000 points, max gap {worst:.2e}",
               ok, elapsed, 5.0)

    def test_criterion_09_zero_region_correctness(self):
        start = time.time()
        rng = np.random.default_rng(99)
        ball_rng = np.random.default_rng(991)
        v = ball_rng.normal(size=(1_000_000, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        ball = v * ball_rng.random(1_000_000)[:, None] ** (1.0 / 3.0)

        ok = True
        tested = 0
        while tested < 200:
            basis0, basis1 = random_basis(rng), random_basis(rng)
            d0, d1 = rng.random(), rng.random()
            prob = TwoBasisSampling(basis0, basis1, 4, 4, d0, d1)
            radius = bloch_fit_radius(prob)
            if not math.isfinite(radius) or abs(radius - 1.0) < 0.08:
                continue  # too close to the boundary for a sampled oracle
            tested += 1
            u0 = bloch_vector(basis0[1])
            u1 = bloch_vector(basis1[1])
            dev = np.maximum(
                np.abs(0.5 * (1.0 + ball @ u0) - d0),
                np.abs(0.5 * (1.0 + ball @ u1) - d1),
            )
            d_min = float(dev.min())
            if zero_region_contains(prob):
                ok &= d_min < 1e-2
            else:
                ok &= d_min > 1e-2

        # slices of the region for the protocol's basis pairs match the
        # angle-window formula to 1e-9
        for alpha_sq in (0.1, 0.2, 0.35):
            theta = math.asin(math.sqrt(alpha_sq))
            basis0 = basis_from_bloch(0.0)
            basis1 = basis_from_bloch(2.0 * theta)
            for delta0 in (0.15, 0.4, 0.6):
                psi0 = math.asin(math.sqrt(delta0))
                lo, hi = b92_angle_bounds(psi0, theta)

                def member(d1):
                    return zero_region_contains(
                        TwoBasisSampling(basis0, basis1, 4, 4, delta0, float(d1))
                    )

                for target, inward in ((lo, +1.0), (hi, -1.0)):
                    if not 1e-4 < target < 1.0 - 1e-4:
                        continue
                    a, b = target + inward * 2e-4, target - inward * 2e-4
                    ok &= member(a) and not member(b)
                    for _ in range(60):
                        mid = 0.5 * (a + b)
                        if member(mid):
                            a = mid
                        else:
                            b = mid
                    ok &= abs(0.5 * (a + b) - target) < 1e-9
        elapsed = time.time() - start
        ok = ok and elapsed < 30.0
        report(9, "zero region matches Bloch-ball brute force and angle windows",
               ok, elapsed, 30.0)

    def test_criterion_10_large_deviation_domination(self):
        start = time.time()
        rng = np.random.default_rng(1010)
        ok = True
        for case in range(20):
            m0 = int(rng.integers(8, 31))
            m1 = int(rng.integers(8, 31))
            if m0 + m1 > 60:
                m1 = 60 - m0
            sigma = random_density_matrix(2, rng)
            basis0, basis1 = random_basis(rng), random_basis(rng)
            k0 = int(rng.integers(0, m0 + 1))
            k1 = int(rng.integers(0, m1 + 1))
            prob = TwoBasisSampling(basis0, basis1, m0, m1, k0 / m0, k1 / m1)
            sol = min_exponent(prob, SolverOptions(seed=case))
            p_exact = iid_probability(sigma, prob)
            m = m0 + m1
            ok &= p_exact <= (m + 1) ** 8 * math.exp(-m * sol.r_nats) + 1e-300
        elapsed = time.time() - start
        ok = ok and elapsed < 120.0
        report(10, "exact i.i.d. probability dominated by poly * exp(-M minR)",
               ok, elapsed, 120.0)

    def test_criterion_11_finite_size_consistency(self):
        start = time.time()
        n = 1_000_000
        ok = True
        worst = 0.0
        for p in np.linspace(0.005, 0.045, 10):
            for alpha_sq in np.linspace(0.08, 0.42, 10):
                r = depolarizing_rates(alpha_sq, p)
                alpha = math.sqrt(alpha_sq)
                n_err = int(round(r["r_err"] * n))
                n_fil = int(round(r["r_fil"] * n))
                fs = finite_size_bound(n_err, n_fil, n, alpha)
                exact = phase_error_bound(
                    ObservedRates(r_err=n_err / n, r_fil=n_fil / n, alpha=alpha)
                )
                ok &= fs.feasible == exact.feasible
                if exact.feasible:
                    gap = abs(fs.r_ph_bar - exact.r_ph_bar)
                    worst = max(worst, gap)
                    ok &= gap < 1e-6

        # relaxing any single slack never shrinks the ceiling
        n_err = int(round(0.01 * n))
        n_fil = int(round(0.3272 * n))
        base = finite_size_bound(n_err, n_fil, n, ALPHA_02)
        for idx in range(8):
            slacks = SlackVector(**{f"eps{idx + 1}": 0.002})
            relaxed = finite_size_bound(n_err, n_fil, n, ALPHA_02, slacks)
            ok &= relaxed.feasible and relaxed.r_ph_bar >= base.r_ph_bar - 1e-7
        elapsed = time.time() - start
        report(11, f"zero-slack solver matches asymptotic bound, max gap {worst:.2e}; "
                   "monotone in every slack", ok, elapsed, 60.0)
