"""End-to-end tests of the command-line interface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

from b92sim import cli
from b92sim._brent import brent_min
from b92sim.security import SlackVector
from b92sim.cli import (
    CSV_HEADER,
    cmd_optimize,
    cmd_rate,
    cmd_simulate,
    main,
    overlap_to_alpha_sq,
    parse_basis,
)
from oracles import optimize_oracle

# the secure window finely, the threshold (p ~ 0.034), then seeded points
# up to the end of the channel range
OPTIMIZE_P = (
    [round(0.001 * i, 3) for i in range(61)]
    + [0.0339, 0.034, 0.0341]
    + list(np.random.default_rng(10).uniform(0.06, 0.75, 20))
)


def run_cli(capsys, *argv):
    code = main(list(argv))
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
    def test_optimum_is_at_least_a_dense_scan(self, p, monkeypatch):
        searches = []

        def recorded(f, lo, hi, xatol):
            found = brent_min(f, lo, hi, xatol)
            searches.append((f, lo, hi, xatol, found))
            return found

        monkeypatch.setattr(cli, "brent_min", recorded)
        alpha_sq, _, g = cmd_optimize(p)
        _, scan_g = optimize_oracle(p, 101)
        assert g >= scan_g - 1e-12
        if scan_g == 0.0:
            assert (alpha_sq, g) == (0.01, 0.0)
        # the search is SciPy's bounded Brent, bit for bit
        [(f, lo, hi, xatol, found)] = searches
        res = optimize.minimize_scalar(f, method="bounded", bounds=(lo, hi),
                                       options={"xatol": xatol})
        assert found == (res.x, res.fun)

    def test_evaluation_budget(self, monkeypatch):
        calls = []
        rates = cli.depolarizing_rates

        def counted(*args):
            calls.append(None)
            return rates(*args)

        monkeypatch.setattr(cli, "depolarizing_rates", counted)
        for p in OPTIMIZE_P:
            calls.clear()
            cmd_optimize(p)
            assert len(calls) <= 60, f"{len(calls)} rate evaluations at p = {p}"

    @pytest.mark.parametrize("p", [0.0, 0.02, 0.03])
    def test_optimum_is_the_rate_report_at_that_point(self, p):
        # the search evaluates G through its own closure over the rates; it
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
        assert [code for code, _ in cached] == [0, 0, 0, 0, 0, 1, 1, 0, 0]


class TestRunTimeImports:
    def test_no_command_loads_scipy(self):
        # a fresh process runs each command once: optimize and sweep run the
        # bounded Brent search, simulate with slacks the slacked bound's
        # root finder, and exponent queries, near-collinear ones too, the
        # circle fit's root finder
        script = """
import contextlib, io, sys
from b92sim import _brent, cli, security
calls = []
def counted(fn):
    return lambda *args, **kw: calls.append(fn.__name__) or fn(*args, **kw)
cli.brent_min = counted(_brent.brent_min)
security.brent_root = counted(_brent.brent_root)
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
        assert proc.stdout == "['brent_min', 'brent_root'] []\n"


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
