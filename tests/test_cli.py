"""End-to-end tests of the command-line interface."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from b92sim import cli
from b92sim.errors import ConsistencyError
from b92sim.protocol import _depolarizing_scalars
from b92sim.security import SlackVector, _domain, _phase_ceiling
from b92sim.cli import (
    CSV_HEADER,
    cmd_optimize,
    cmd_rate,
    cmd_simulate,
    fmt,
    main,
    overlap_to_alpha_sq,
    parse_basis,
)
from oracles import finite_size_oracle, optimize_oracle

# the secure window finely, the threshold (p ~ 0.034), then seeded points
# up to the end of the channel range
OPTIMIZE_P = (
    [round(0.001 * i, 3) for i in range(61)]
    + [0.0339, 0.034, 0.0341]
    + list(np.random.default_rng(10).uniform(0.06, 0.75, 20))
)


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # -h prints help and leaves
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRateCommand:
    def test_noiseless_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "rate", "--p", "0", "--alpha-sq", "0.2", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["G"] == pytest.approx(0.32, abs=1e-9)
        assert data["r_ph_bar"] == pytest.approx(0.0, abs=1e-9)

    def test_benchmark_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "rate", "--p", "0.03", "--alpha-sq", "0.2", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["r_fil"] == pytest.approx(0.3272, abs=1e-9)
        assert data["r_err"] == pytest.approx(0.01, abs=1e-9)
        assert data["G"] > 0.0

    @pytest.mark.parametrize("alpha_sq", [0.1, 0.2, 0.3, 0.4])
    def test_beyond_threshold_zero_rate(self, capsys, alpha_sq):
        code, out, _ = run_cli(
            capsys, "rate", "--p", "0.05", "--alpha-sq", str(alpha_sq), "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["G"] == 0.0

    def test_overlap_parameterization_exact(self, capsys):
        overlap = 0.36
        assert overlap_to_alpha_sq(overlap) == pytest.approx(0.2, abs=1e-15)
        _, out_a, _ = run_cli(capsys, "rate", "--p", "0.02", "--alpha-sq", "0.2")
        _, out_b, _ = run_cli(capsys, "rate", "--p", "0.02", "--overlap", "0.36")
        assert out_a == out_b

    def test_csv_schema(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--p", "0.01", "--alpha-sq", "0.25")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 9


class TestClosedFormPrecision:
    """Points where the Born-table rates lost the alpha^2 scale or the last
    bits of r_fil, and the closed-form rates do not."""

    def test_noiseless_upper_end_is_exact(self, capsys):
        report = cmd_rate(0.0, 0.49)
        assert report.r_ph_bar == 0.0
        assert report.G == pytest.approx(0.4998, abs=1e-16)
        code, out, _ = run_cli(capsys, "rate", "--p", "0", "--alpha-sq", "0.49",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert (data["r_ph_bar"], data["G"]) == (0.0, 0.4998)

    def test_noiseless_rate_is_monotone_below_the_upper_end(self):
        assert cmd_rate(0.0, 0.489999999952).G <= cmd_rate(0.0, 0.49).G

    @pytest.mark.parametrize("alpha_sq", [1e-100, 1e-300])
    def test_tiny_alpha_keeps_its_scale(self, capsys, alpha_sq):
        report = cmd_rate(0.0, alpha_sq)
        assert report.r_fil == pytest.approx(2.0 * alpha_sq * (1.0 - alpha_sq), rel=1e-15)
        assert report.r_ph_bar == 0.0
        assert report.G == report.r_fil
        code, out, _ = run_cli(capsys, "rate", "--p", "0", "--alpha-sq", str(alpha_sq),
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["r_ph_bar"] == 0.0
        assert data["G"] == pytest.approx(2.0 * alpha_sq, rel=1e-11)

    @pytest.mark.parametrize("p", ["1.5", "nan"])
    def test_rate_strength_out_of_range_exits_2(self, capsys, p):
        code, out, err = run_cli(capsys, "rate", "--p", p, "--alpha-sq", "0.2")
        assert (code, out) == (2, "")
        assert err == f"error: depolarizing strength p={float(p)!r} outside [0, 1]\n"

    @pytest.mark.parametrize("p", ["0.75", "1.0", "nan"])
    def test_optimize_rejects_strength_from_three_quarters(self, capsys, p):
        code, out, err = run_cli(capsys, "optimize", "--p", p)
        assert (code, out) == (2, "")
        assert err == "error: depolarizing strength must lie in [0, 3/4)\n"


class TestOptimizeCommand:
    def test_noiseless_optimum_at_upper_boundary(self):
        alpha_sq, overlap, g = cmd_optimize(0.0)
        assert alpha_sq == pytest.approx(0.49, abs=1e-3)
        assert g == pytest.approx(2 * 0.49 * 0.51, abs=1e-3)
        assert overlap == pytest.approx((1 - 2 * alpha_sq) ** 2, abs=1e-12)

    def test_secure_point_positive(self):
        _, _, g = cmd_optimize(0.03)
        assert g > 0.0

    def test_threshold_point_near_zero(self):
        _, _, g = cmd_optimize(0.034)
        assert g < 1e-4

    def test_noiseless_optimum_is_exactly_the_upper_end(self):
        alpha_sq, _, g = cmd_optimize(0.0)
        assert alpha_sq == 0.49
        assert g == cmd_rate(0.0, 0.49).G

    @pytest.mark.parametrize("p", OPTIMIZE_P)
    def test_optimum_is_at_least_a_dense_scan(self, p):
        alpha_sq, _, g = cmd_optimize(p)
        _, scan_g = optimize_oracle(p, 101)
        assert g >= scan_g - 1e-12
        if scan_g == 0.0:
            assert (alpha_sq, g) == (0.01, 0.0)

    def test_optimum_is_at_least_scipys_bounded_search(self):
        # SciPy's bounded Brent search on S, compared with both ends, as the
        # optimizer searched before it took the root of dS/dalpha^2
        for p in [0.001 * i for i in range(750)] + [1e-7, 1e-320]:
            res = optimize.minimize_scalar(lambda a: -cli._key_rate_slope(p, a)[0],
                                           method="bounded", bounds=(0.01, 0.49),
                                           options={"xatol": 1e-12})
            scipy_g = max(cmd_rate(p, a).G for a in (res.x, 0.01, 0.49))
            assert cmd_optimize(p)[2] >= scipy_g - 1e-12, p

    def test_slope_matches_central_differences(self):
        # a five-point central difference of S, away from the kink where
        # e_ph reaches 1/2 and S turns into -r_fil h(e_bit)
        rng = np.random.default_rng(12)
        h, checked = 1e-4, 0
        for p, alpha_sq in zip(rng.uniform(0.0, 0.75, 600), rng.uniform(0.011, 0.489, 600)):
            alpha = math.sqrt(alpha_sq)
            r_fil, r_err, _ = _depolarizing_scalars(alpha, p)
            if abs(_phase_ceiling(r_err, r_fil, alpha)[0] / r_fil - 0.5) <= 1e-3:
                continue
            s = [cli._key_rate_slope(p, alpha_sq + k * h)[0] for k in (-2, -1, 1, 2)]
            central = (8.0 * (s[2] - s[1]) - (s[3] - s[0])) / (12.0 * h)
            assert cli._key_rate_slope(p, alpha_sq)[1] == pytest.approx(central, rel=1e-7)
            checked += 1
        assert checked > 500

    def test_ceiling_at_the_domain_end_only_past_half(self):
        # the slope takes r_ph_bar from the quadratic's right root wherever
        # e_ph < 1/2: the ceiling sits at the domain's right end only past it
        for p in np.linspace(0.0, 0.75, 301)[:-1]:
            for alpha_sq in np.linspace(0.01, 0.49, 49):
                alpha = math.sqrt(alpha_sq)
                r_fil, r_err, _ = _depolarizing_scalars(alpha, p)
                r_ph_bar, x_star, delta, _ = _phase_ceiling(r_err, r_fil, alpha)
                if x_star == _domain(delta, alpha)[1]:
                    assert r_ph_bar / r_fil >= 0.5, (p, alpha_sq)

    def test_optimum_is_stable_under_one_ulp_of_p(self):
        # G is flat at its peak, so the optimum is the slope's root, which
        # one rounding step in p moves by far less than the printed digits
        secure = 0
        for i in range(1, 340):
            p = round(0.0001 * i, 4)
            alpha_sq, _, g = cmd_optimize(p)
            if g > 0.0:
                secure += 1
                assert fmt(cmd_optimize(math.nextafter(p, 1.0))[0]) == fmt(alpha_sq), p
        assert secure > 300

    def test_evaluation_budget(self, monkeypatch):
        # the search's evaluations go through the scalar rates kernel
        calls = []
        rates = cli._depolarizing_scalars

        def counted(*args):
            calls.append(None)
            return rates(*args)

        monkeypatch.setattr(cli, "_depolarizing_scalars", counted)
        for p in OPTIMIZE_P:
            calls.clear()
            cmd_optimize(p)
            assert 3 <= len(calls) <= 60, f"{len(calls)} rate evaluations at p = {p}"

    @pytest.mark.parametrize("p", [0.0, 0.02, 0.03])
    def test_optimum_is_the_rate_report_at_that_point(self, p):
        # the search evaluates S through the scalar kernels; the optimum's G
        # must be exactly the G that the rate command reports
        alpha_sq, _, g = cmd_optimize(p)
        assert g == cmd_rate(p, alpha_sq).G

    def test_command_output(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--p", "0.02", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"alpha_sq_star", "overlap_star", "G_star"}


class TestSweepCommand:
    def test_deterministic_output(self, capsys, tmp_path):
        args = (
            "sweep", "--p-min", "0", "--p-max", "0.04", "--p-steps", "5",
            "--alpha-sq", "0.2",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        path = tmp_path / "rows.csv"
        code, _, _ = run_cli(capsys, *args, "--out", str(path))
        assert code == 0
        assert path.read_text() == out1

    def test_threshold_crossing_with_optimization(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--p-min", "0.030", "--p-max", "0.038",
            "--p-steps", "9", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        secure = [r["p"] for r in rows if r["G"] > 1e-6]
        assert secure, "no secure points found"
        assert 0.032 <= max(secure) <= 0.036

    def test_alpha_sweep_gap_widens_as_overlap_shrinks(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--p", "0.03", "--alpha-min", "0.05",
            "--alpha-max", "0.45", "--alpha-steps", "9", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        rows.sort(key=lambda r: r["overlap"])  # overlap increasing
        gaps = [r["r_ph_bar"] - r["r_ph_actual"] for r in rows]
        for wide, narrow in zip(gaps, gaps[1:]):
            assert wide >= narrow - 1e-12

    def test_alpha_sweep_errors_grow_with_overlap(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--p", "0.03", "--alpha-min", "0.05",
            "--alpha-max", "0.45", "--alpha-steps", "9", "--format", "json",
        )
        rows = json.loads(out)
        rows.sort(key=lambda r: r["overlap"])
        bit_ratio = [r["r_bit_actual"] / r["r_fil"] for r in rows]
        ph_ratio = [r["r_ph_actual"] / r["r_fil"] for r in rows]
        for seq in (bit_ratio, ph_ratio):
            for a, b in zip(seq, seq[1:]):
                assert b >= a - 1e-12

    def test_bound_dominates_truth_on_grid(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--p-min", "0.0", "--p-max", "0.03", "--p-steps", "4",
            "--alpha-min", "0.1", "--alpha-max", "0.4", "--alpha-steps", "4",
            "--format", "json",
        )
        for r in json.loads(out):
            if not math.isnan(r["r_ph_bar"]):
                assert r["r_ph_bar"] >= r["r_ph_actual"] - 1e-9
                assert r["G"] <= r["r_fil"] + 1e-12


class TestSimulateCommand:
    def test_deterministic_given_seed(self, capsys):
        args = ("simulate", "--p", "0.03", "--alpha-sq", "0.2", "--n", "20000",
                "--seed", "7", "--eps2", "0.003")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_noiseless_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--p", "0", "--alpha-sq", "0.2",
            "--n", "100000", "--seed", "1",
        )
        assert code == 0
        data = json.loads(out)
        assert data["tallies"]["n_err"] == 0
        assert data["tallies"]["n_bit"] == 0
        assert data["tallies"]["n_ph"] == 0
        # at zero slack the exact asymptotic constraints sit on the boundary
        # of what noiseless data can satisfy, so finite-sample fluctuation in
        # n_fil makes the chain abort; small slacks restore the full yield
        if data["bound"]["feasible"]:
            n_fil = data["tallies"]["n_fil"]
            assert data["key_length"] >= n_fil * (1 - 1e-3)
        else:
            assert data["key_length"] == 0.0

    def test_noiseless_run_with_slacks_keeps_most_of_key(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--p", "0", "--alpha-sq", "0.2", "--n", "100000",
            "--seed", "1", "--eps2", "0.002", "--eps4", "0.002", "--eps5", "0.002",
        )
        assert code == 0
        data = json.loads(out)
        assert data["bound"]["feasible"]
        assert data["key_length"] > 0.5 * data["tallies"]["n_fil"]

    def test_filter_rate_tracks_oracle(self, capsys):
        _, out, _ = run_cli(
            capsys, "simulate", "--p", "0.03", "--alpha-sq", "0.2",
            "--n", "100000", "--seed", "3",
        )
        data = json.loads(out)
        n = 100_000
        sigma = math.sqrt(n * 0.3272 * (1 - 0.3272))
        assert abs(data["tallies"]["n_fil"] - 0.3272 * n) < 4 * sigma

    def test_key_length_never_grows_with_eps1(self):
        # eps1 widens the upper bound on the bit errors, so it can only cost key
        lengths = [
            cmd_simulate(0.01, 0.2, 100_000, 1, SlackVector(eps1=e))["key_length"]
            for e in (0.0, 0.01, 0.1, 0.3, 1.0)
        ]
        assert lengths[0] > 0.0
        assert all(b <= a for a, b in zip(lengths, lengths[1:]))

    @pytest.mark.parametrize("seed", [0, 17])
    def test_ceiling_covers_the_oracle_on_a_non_convex_set(self, capsys, seed):
        # the slacked feasible set has a small nub by the corner x ~ eps6,
        # d ~ x; a ray search started in it stops at the nub's corner,
        # 0.00264973 whatever the tallies
        eps = ("0", "0.023", "0", "0", "0", "0.0029", "0.027", "0.000026")
        code, out, _ = run_cli(
            capsys, "simulate", "--p", "0", "--alpha-sq", "0.0863", "--n", "1390",
            "--seed", str(seed), *(f"--eps{i}={e}" for i, e in enumerate(eps, 1)),
        )
        assert code == 0
        data = json.loads(out)
        tallies = data["tallies"]
        oracle = finite_size_oracle(tallies["n_err"], tallies["n_fil"], 1390,
                                    math.sqrt(0.0863), tuple(map(float, eps)),
                                    dense_shape=(1001, 33, 33))
        assert data["bound"]["feasible"] and oracle is not None
        # the printed ceiling carries 12 significant digits
        assert data["bound"]["r_ph_bar"] >= oracle - 1e-9

    def test_noiseless_runs_with_one_open_band_never_raise(self, capsys):
        # with eps2 = 0.025 alone, noiseless tallies leave a slacked set that
        # is empty (an abort, feasible: false) or, at 180 filtered pairs, a
        # sliver at x ~ 1e-10 around the origin.  There both chords of the
        # start have length 0, and the ray search once gave up after 100
        # root-search steps (exit 2) on seeds 18, 24, 34, 76, 100, 117, 121
        # and 169 of 0-299
        eps = (0.0, 0.025, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        oracle = {}
        for seed in [*range(30), 34, 76, 100, 117, 121, 169]:
            code, out, err = run_cli(capsys, "simulate", "--p", "0", "--alpha-sq", "0.1",
                                     "--n", "1000", "--eps2", "0.025", "--seed", str(seed))
            assert (code, err) == (0, ""), seed
            data = json.loads(out)
            counts = data["tallies"]["n_err"], data["tallies"]["n_fil"]
            if counts not in oracle:
                oracle[counts] = finite_size_oracle(*counts, 1000, math.sqrt(0.1), eps)
            assert data["bound"]["feasible"] == (oracle[counts] is not None), seed
            if data["bound"]["feasible"]:
                assert data["bound"]["r_ph_bar"] >= oracle[counts] - 1e-12, seed
        assert oracle[0, 180] is not None

    def test_billion_pair_run_emits_strict_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--p", "0.03", "--alpha-sq", "0.2",
            "--n", "1000000000", "--seed", "5",
        )
        assert code == 0

        def reject(token):
            raise ValueError(f"non-RFC 8259 token {token}")

        data = json.loads(out, parse_constant=reject)
        assert data["params"]["n_pairs"] == 1_000_000_000
        assert sum(map(sum, data["tallies"]["n_xx"])) == 1_000_000_000


# near-collinear exponent queries: the first once ended in a LinAlgError,
# the second printed an uncertified value
NEAR_COLLINEAR_REPROS = (
    ["exponent", "--basis0", "0.8529706049278587,4.89203417088622",
     "--basis1", "0.8529706188692087,4.892034170894268", "--m0", "93", "--m1", "124",
     "--delta0", "0.12903225806451613", "--delta1", "0.8467741935483871"],
    ["exponent", "--basis0", "1.0129376613401553,4.854508878081949",
     "--basis1", "1.0129376910975731,4.854508878081949", "--m0", "28", "--m1", "38",
     "--delta0", "0.7857142857142857", "--delta1", "0.2894736842105263"],
)


class TestExponentCommand:
    def test_identical_bases_zero_rate(self, capsys):
        code, out, _ = run_cli(
            capsys, "exponent", "--basis0", "0", "--basis1", "0",
            "--m0", "10", "--m1", "10", "--delta0", "0.3", "--delta1", "0.3",
        )
        assert code == 0
        data = json.loads(out)
        assert data["zero_region_member"] is True
        assert data["r_nats"] < 1e-6

    def test_outside_window_positive_rate(self, capsys):
        theta = math.asin(math.sqrt(0.2))
        code, out, _ = run_cli(
            capsys, "exponent", "--basis0", "0", "--basis1", str(2 * theta),
            "--m0", "12", "--m1", "12", "--delta0", "0.0", "--delta1", "0.9",
        )
        assert code == 0
        data = json.loads(out)
        assert data["zero_region_member"] is False
        assert data["r_nats"] > 1e-4

    def test_output_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "exponent", "--basis0", "0.4,0.3", "--basis1", "1.0",
            "--m0", "6", "--m1", "9", "--delta0", "0.5", "--delta1", "0.25",
        )
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"r_nats", "r_bits", "zero_region_member", "converged", "point"}
        assert set(data["point"]) == {"k_frac", "bloch_n", "p", "q"}
        assert data["r_bits"] == pytest.approx(data["r_nats"] / math.log(2), rel=1e-9)

    @pytest.mark.parametrize("argv, r_nats", [
        (NEAR_COLLINEAR_REPROS[0], 0.280548974100),
        (NEAR_COLLINEAR_REPROS[1], 0.126297685735),
    ])
    def test_near_collinear_queries_certified(self, capsys, argv, r_nats):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        data = json.loads(out)
        assert data["converged"] is True
        assert data["r_nats"] == pytest.approx(r_nats, abs=1e-9)

    def test_amplitude_basis_spec(self):
        b = parse_basis("0.6,0,0.8,0")
        np.testing.assert_allclose(np.abs(b @ b.conj().T), np.eye(2), atol=1e-12)


class TestConfigFile:
    def test_config_supplies_options(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 0.02, "alpha-sq": 0.25, "format": "json"}))
        code, out_cfg, _ = run_cli(capsys, "rate", "--config", str(cfg))
        assert code == 0
        _, out_flags, _ = run_cli(
            capsys, "rate", "--p", "0.02", "--alpha-sq", "0.25", "--format", "json"
        )
        assert out_cfg == out_flags

    def test_flags_win_over_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 0.02, "alpha_sq": 0.25}))
        _, out, _ = run_cli(capsys, "rate", "--config", str(cfg), "--p", "0.01")
        _, expected, _ = run_cli(capsys, "rate", "--p", "0.01", "--alpha-sq", "0.25")
        assert out == expected

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 0.02, "alpha_sq": 0.25, "bogus": 1}))
        code, _, err = run_cli(capsys, "rate", "--config", str(cfg))
        assert code == 1
        assert "bogus" in err

    def test_flag_with_equals_wins_over_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 0.02}))
        _, out, _ = run_cli(capsys, "rate", "--config", str(cfg), "--p=0.01",
                            "--alpha-sq", "0.25")
        _, expected, _ = run_cli(capsys, "rate", "--p", "0.01", "--alpha-sq", "0.25")
        assert out == expected

    @pytest.mark.parametrize("command,config", [
        ("rate", {"p": 0.02, "alpha-sq": 0.25, "format": "xml"}),
        ("rate", {"p": "abc", "alpha-sq": 0.25}),
        ("simulate", {"p": 0.03, "alpha-sq": 0.2, "n": 1.5}),
        ("rate", {"p": None, "alpha-sq": 0.25}),
        ("rate", {"p": True, "alpha-sq": 0.25}),
        ("rate", {"p": [0.02], "alpha-sq": 0.25}),
        ("rate", {"p": {"value": 0.02}, "alpha-sq": 0.25}),
        ("rate", {"p": 0.02, "alpha-sq": 0.25, "config": "other.json"}),
    ])
    def test_config_values_checked_like_flags(self, capsys, tmp_path, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    def test_invalid_json_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, _ = run_cli(capsys, "rate", "--config", str(cfg))
        assert code == 1


class TestExitCodes:
    def test_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--p", "0.03")
        assert code == 1
        assert "error" in err

    def test_conflicting_parameterizations(self, capsys):
        code, _, _ = run_cli(
            capsys, "rate", "--p", "0.03", "--alpha-sq", "0.2", "--overlap", "0.36"
        )
        assert code == 1

    def test_unparseable_basis(self, capsys):
        code, _, _ = run_cli(
            capsys, "exponent", "--basis0", "zzz", "--basis1", "0",
            "--m0", "5", "--m1", "5", "--delta0", "0.5", "--delta1", "0.5",
        )
        assert code == 1

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_slack_exits_2(self, capsys, bad):
        code, out, err = run_cli(
            capsys, "simulate", "--p", "0.03", "--alpha-sq", "0.2", "--n", "1000",
            f"--eps2={bad}",
        )
        assert code == 2
        assert out == ""
        assert "eps2" in err

    @pytest.mark.parametrize("argv", [
        ("rate", "--p", "0.03", "--alpha-sq", "-0.1"),
        ("sweep", "--p", "0.01", "--alpha-min", "-0.1", "--alpha-max", "0.2",
         "--alpha-steps", "3"),
        ("simulate", "--p", "0.03", "--alpha-sq", "-0.2", "--n", "1000"),
        ("rate", "--p", "0.03", "--alpha-sq", "0.6"),
    ])
    def test_alpha_sq_out_of_range_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "alpha" in err

    def test_negative_exponent_seed_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "exponent", "--basis0", "0", "--basis1", "1.0",
            "--m0", "5", "--m1", "5", "--delta0", "0.5", "--delta1", "0.5", "--seed", "-1",
        )
        assert code == 2
        assert out == ""
        assert "seed" in err

    def test_solver_that_does_not_converge_exits_2(self, capsys, monkeypatch):
        def fails(*args):
            raise ConsistencyError("root search: no convergence after 100 steps")

        monkeypatch.setattr(cli, "finite_size_bound", fails)
        code, out, err = run_cli(capsys, "simulate", "--p", "0.03", "--alpha-sq", "0.2",
                                 "--n", "1000", "--eps2", "0.001")
        assert (code, out) == (2, "")
        assert err == "error: root search: no convergence after 100 steps\n"

    def test_singularity_exit(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--p", "0.03", "--alpha-sq", "0.4999")
        assert code == 2
        assert "error" in err

    def test_io_error(self, capsys, tmp_path):
        missing = tmp_path / "nope" / "out.csv"
        code, _, _ = run_cli(
            capsys, "rate", "--p", "0.03", "--alpha-sq", "0.2", "--out", str(missing)
        )
        assert code == 3

    def test_pair_budget_beyond_int64_exits_2(self, capsys):
        # the count sampler raised OverflowError on it
        code, out, err = run_cli(capsys, "simulate", "--p", "0.03", "--alpha-sq", "0.2",
                                 "--n", str(10**20))
        assert (code, out) == (2, "")
        assert err.startswith("error: n_pairs must lie in [1, 9223372036854775807]")

    def test_largest_pair_budget_runs(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--p", "0.03", "--alpha-sq", "0.2",
                               "--n", str(2**63 - 1))
        assert code == 0
        assert json.loads(out)["params"]["n_pairs"] == 2**63 - 1

    # linspace raises ValueError, IndexError (at 2**63 - 1) or, at 2**55 steps
    # (256 PiB, past any address space), MemoryError
    @pytest.mark.parametrize("steps", [10**20, 2**63, 2**63 - 1, 2**62, 2**60 - 1, 2**55])
    @pytest.mark.parametrize("axis", ["p", "alpha"])
    def test_grid_too_large_for_an_array_exits_1(self, capsys, axis, steps):
        grid = {"p": ["--p-min", "0.01", "--p-max", "0.02", "--p-steps", str(steps)],
                "alpha": ["--p", "0.01", "--alpha-min", "0.1", "--alpha-max", "0.2",
                          "--alpha-steps", str(steps)]}[axis]
        code, out, err = run_cli(capsys, "sweep", *grid)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: a grid of {steps} steps is too large")


class TestParserReuse:
    def test_cached_parser_matches_fresh_parsers(self, capsys, tmp_path):
        # one parser serves every call in a process; back-to-back commands,
        # config files and usage errors must behave as with a fresh parser
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 0.02, "alpha-sq": 0.25, "format": "json"}))
        runs = [
            ["rate", "--p", "0.03", "--alpha-sq", "0.2"],
            ["optimize", "--p", "0.02", "--format", "json"],
            ["rate", "--config", str(cfg)],
            ["rate", "--config", str(cfg), "--p", "0.01"],
            ["sweep", "--p", "0.03", "--alpha-min", "0.1", "--alpha-max", "0.3",
             "--alpha-steps", "3"],
            ["rate", "--p", "0.03"],
            ["no-such-command"],
            ["simulate", "--p", "0.03", "--alpha-sq", "0.2", "--n", "1000", "--seed", "3"],
            ["rate", "--p", "0.03", "--alpha-sq", "0.2", "--format", "json"],
            ["rate", "--p", "0.03", "--alpha-sq", "0.2", "--format", "xml"],
            ["rate", "--p=0.03", "--alpha-sq", "0.2"],
        ]

        def run_all(fresh):
            results = []
            for argv in runs:
                if fresh:
                    cli._parser.cache_clear()
                code = main(argv)
                results.append((code, capsys.readouterr().out))
            return results

        cached = run_all(fresh=False)
        assert cached == run_all(fresh=True)
        assert [code for code, _ in cached] == [0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0]


class TestDirectDispatch:
    """main hands the tokens after a command name to that command's parser;
    every outcome must be the full parser's."""

    @pytest.fixture
    def corpus(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 0.02, "alpha-sq": 0.25, "format": "json"}))
        bad_cfg = tmp_path / "bad.json"
        bad_cfg.write_text(json.dumps({"p": 0.02, "bogus": 1}))
        rate = ["rate", "--p", "0.03", "--alpha-sq", "0.2"]
        help_exit = ("SystemExit", 0)
        # (argv, the exit code that both parsers give)
        return [
            (rate, 0),
            (["optimize", "--p", "0.02", "--format", "json"], 0),
            (["sweep", "--p-min", "0", "--p-max", "0.04", "--p-steps", "3"], 0),
            (["sweep", "--p", "0.01", "--alpha-min", "0.1", "--alpha-max", "0.2",
              "--alpha-steps", "2", "--format", "json"], 0),
            (["simulate", "--p", "0.03", "--alpha-sq", "0.2", "--n", "1000", "--seed", "3"], 0),
            (["exponent", "--basis0", "0", "--basis1", "0.9273", "--m0", "20", "--m1", "20",
              "--delta0", "0.1", "--delta1", "0.8"], 0),
            (["rate", "--p=0.03", "--alpha-sq=0.2", "--format=json"], 0),
            # flags are spelled in full
            (["rate", "--alpha-s", "0.2", "--p", "0.03"], 1),
            (["rate", "--p", "0.03", "--alpha", "0.2"], 1),
            (["optimize", "--p", "0.03", "--form", "json"], 1),
            (["simulate", "--p", "0.03", "--alpha-sq", "0.2", "--n", "1000", "--se", "3"], 1),
            (["rate", "--config", str(cfg)], 0),
            (["rate", f"--config={cfg}"], 0),
            (["rate", "--p", "0.01", "--config", str(cfg)], 0),
            (["rate", "--config", str(cfg), "--p", "0.01", "--format", "csv"], 0),
            ([f"--config={cfg}"], 1),
            (["rate", "--config", str(bad_cfg)], 1),
            (["rate", "--config", str(tmp_path / "missing.json")], 3),
            (rate + ["--bogus"], 1),
            (rate + ["extra"], 1),
            (rate + ["--", "--p", "0.01"], 1),
            (["rate", "--p"], 1),
            (["rate", "--p", "abc", "--alpha-sq", "0.2"], 1),
            (rate + ["--format", "xml"], 1),
            (["rate", "--p", "0.03"], 1),
            (["rate", "--p", "0.03", "--alpha-sq", "0.6"], 2),
            (["rate", "--p", "-0.5", "--alpha-sq", "0.2"], 2),
            (rate + ["--p"], 1),
            (["rate", "--p", "0.03", "--alpha-sq", "--", "0.2"], 1),
            (["rate", "optimize", "--p", "0.03"], 1),
            (["nope"], 1),
            (["nope", "--p", "0.03"], 1),
            (["--p", "0.03", "rate"], 1),
            ([], 1),
            (["--"] + rate, 1),
            (["--", "rate"], 1),
            (["rate", "-h"], help_exit),
            (["sweep", "--help"], help_exit),
            (["-h"], help_exit),
            (["-h", "rate"], help_exit),
        ]

    def test_outcomes_match_the_full_parser(self, capsys, monkeypatch, corpus):
        direct = [run_cli(capsys, *argv) for argv, _ in corpus]
        assert [code for code, _, _ in direct] == [code for _, code in corpus]
        monkeypatch.setattr(cli, "_parse", lambda argv: cli.make_parser().parse_args(argv))
        assert direct == [run_cli(capsys, *argv) for argv, _ in corpus]


def _outcome(argv):
    """(exit code, stdout, stderr) of main(argv), run in a scratch directory
    so that an --out value writes nowhere else."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # -h prints help and leaves
                    code = ("SystemExit", exc.code)
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


_TABLES = cli.make_parser().flags
_ALL_FLAGS = sorted({flag for options, _ in _TABLES.values() for flag in options})
# values that parse, that fail a type or a choice, that argparse reads in
# its own way (a leading dash, a flag name, '--', a space, a non-ASCII
# digit), and small --n, --p-steps and --seed values that keep a run short
_VALUES = ["0.03", "0.2", "0", "3", "json", "csv", "-0.5", "nan", "1e999", "", " 3",
           "\u0663", "0x10", "xml", "rate", "--p", "--format", "-h", "--"]


@st.composite
def _argvs(draw):
    """A command and tokens that are mostly --flag value pairs of its own
    flags, sometimes with a stray token: another command's flag, -h, --,
    a --flag=value token or a lone value."""
    command = draw(st.sampled_from(sorted(_TABLES)))
    own = sorted(_TABLES[command][0])
    flag = st.one_of(st.sampled_from(own), st.sampled_from(own), st.sampled_from(_ALL_FLAGS))
    value = st.sampled_from(_VALUES)
    tokens = [t for pair in draw(st.lists(st.tuples(flag, value), max_size=6)) for t in pair]
    if draw(st.booleans()):
        stray = st.one_of(flag, value, st.sampled_from(["-h", "--help", "--"]),
                          st.builds("{}={}".format, flag, value))
        tokens.insert(draw(st.integers(0, len(tokens))), draw(stray))
    return [command] + tokens


class TestFlagTables:
    """Well-formed --flag value argv is read from each command's flag table;
    argparse reads everything else, and every outcome is the full parser's."""

    @settings(max_examples=400, deadline=None)
    @given(argv=_argvs())
    def test_outcomes_match_argparse(self, argv):
        # an exponent solve can take seconds: its inputs are echoed instead
        stub = lambda *args: {"args": [repr(a) for a in args]}  # noqa: E731
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "cmd_exponent", stub)
            fast = _outcome(argv)
            mp.setattr(cli, "_read_flags", lambda *_: None)  # argparse reads every argv
            assert fast == _outcome(argv)

        # whatever the table reads, the command's own parser reads alike
        # (compared by repr, where nan equals nan and -0.0 differs from 0.0)
        command, tokens = argv[0], argv[1:]
        args = cli._read_flags(_TABLES[command], command, tokens)
        if args is not None:
            sub = cli._parser().commands[command]
            expected = sub.parse_args(tokens, argparse.Namespace(command=command))
            assert repr(sorted(vars(args).items())) == repr(sorted(vars(expected).items()))

    def test_well_formed_argv_skips_argparse(self, capsys, monkeypatch):
        # the argv shapes the analytic, simulation and exponent clients send:
        # with every argparse parse disabled they still run, so a change that
        # sends them back through argparse fails here, not only in timings
        corpus = [
            ["rate", "--p", "0.03", "--alpha-sq", "0.2"],
            ["rate", "--p", "0", "--alpha-sq", "0.4", "--format", "json"],
            ["rate", "--p", "0.03", "--overlap", "0.36", "--out", os.devnull],
            ["optimize", "--p", "0.02", "--format", "json"],
            ["sweep", "--p-min", "0", "--p-max", "0.01", "--p-steps", "3", "--format", "csv"],
            ["sweep", "--p", "0.01", "--alpha-min", "0.1", "--alpha-max", "0.2",
             "--alpha-steps", "2"],
            ["simulate", "--p", "0.03", "--alpha-sq", "0.2", "--n", "10000", "--seed", "3",
             *(tok for i in range(1, 9) for tok in (f"--eps{i}", "0.001"))],
            ["exponent", "--basis0", "0", "--basis1", "0.9273", "--m0", "20", "--m1", "20",
             "--delta0", "0.1", "--delta1", "0.8", "--seed", "1"],
        ]
        expected = [run_cli(capsys, *argv) for argv in corpus]
        assert [code for code, _, _ in expected] == [0] * len(corpus)

        def refuse(*args, **kwargs):
            raise AssertionError("argparse parsed a well-formed argv")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
        assert [run_cli(capsys, *argv) for argv in corpus] == expected


class TestTracerTargets:
    def test_every_traced_name_resolves(self, monkeypatch):
        # the benchmark's tracer wraps functions by (module, attribute); a name
        # that moved away would leave its layer untraced
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import tracing

        for module, attr, span, _ in tracing.targets():
            assert callable(getattr(module, attr, None)), (module.__name__, attr, span)


class TestRunTimeImports:
    def test_no_command_loads_scipy(self):
        # a fresh process runs each command once: optimize and sweep run the
        # root finder on the key rate's slope, simulate with slacks the
        # slacked bound's, and exponent queries, near-collinear ones too, the
        # circle fit's
        script = """
import contextlib, io, sys
from b92sim import _brent, cli, security
calls = []
def counted(module):
    return lambda *args, **kw: calls.append(module.__name__) or _brent.brent_root(*args, **kw)
cli.brent_root = counted(cli)
security.brent_root = counted(security)
runs = [
    ["rate", "--p", "0.03", "--alpha-sq", "0.2"],
    ["optimize", "--p", "0.02"],
    ["sweep", "--p-min", "0", "--p-max", "0.04", "--p-steps", "3"],
    ["simulate", "--p", "0.03", "--alpha-sq", "0.2", "--n", "10000"]
    + [f"--eps{i}=1e-3" for i in range(2, 9)],
    ["exponent", "--basis0", "1.4405993451072054,3.5068998601808077",
     "--basis1", "1.392147308823917,5.031459034864608", "--m0", "21", "--m1", "24",
     "--delta0", "0.19047619047619047", "--delta1", "0.7916666666666666"],
] + %r
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted(set(calls)), sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
""" % [list(argv) for argv in NEAR_COLLINEAR_REPROS]
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "['b92sim.cli', 'b92sim.security'] []\n"


class TestDeterministicFormatting:
    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "rate", "--p", "0.03", "--alpha-sq", "0.2")
        value_line = out.splitlines()[1]
        for tok in value_line.split(","):
            digits = tok.split("e")[0].replace("-", "").replace(".", "").lstrip("0")
            assert len(digits) <= 12

    def test_report_fields_consistent(self):
        report = cmd_rate(0.02, 0.3)
        assert report.overlap == pytest.approx((1 - 2 * 0.3) ** 2, abs=1e-15)
        assert report.G <= report.r_fil

    @pytest.mark.parametrize("argv", [
        ("rate", "--p", "-0.0", "--alpha-sq", "0.2"),
        ("rate", "--p", "-0.0", "--alpha-sq", "0.2", "--format", "json"),
        ("sweep", "--p", "-0.0", "--format", "json"),
        ("sweep", "--p-min", "-0", "--p-max", "0", "--p-steps", "2"),
        ("simulate", "--p", "-0.0", "--eps1", "-0.0", "--alpha-sq", "0.2",
         "--n", "100"),
    ])
    def test_negative_zero_reads_as_zero(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        negative_zero = ("-0", "-0.0")
        positive = ["0" if tok in negative_zero else tok for tok in argv]
        assert out == run_cli(capsys, *positive)[1]
        assert not set(out.replace(",", " ").split()) & set(negative_zero)

    def test_negative_zero_in_config_reads_as_zero(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"p": -0.0, "alpha-sq": 0.2}')
        _, out, _ = run_cli(capsys, "rate", "--config", str(cfg))
        assert out == run_cli(capsys, "rate", "--p", "0", "--alpha-sq", "0.2")[1]

    def test_computed_negative_zero_prints_as_zero(self, capsys):
        # no flag is negative, but the fit's Bloch vector has a -0.0 component
        code, out, _ = run_cli(capsys, "exponent", "--basis0", "0", "--basis1", "0.9273",
                               "--m0", "20", "--m1", "20", "--delta0", "0", "--delta1", "0")
        assert code == 0
        data = json.loads(out)
        values = data["point"]["bloch_n"] + np.ravel(data["point"]["q"]).tolist()
        assert 0.0 in values
        assert all(math.copysign(1.0, v) > 0.0 for v in values if v == 0.0)
        assert fmt(-0.0) == "0"
