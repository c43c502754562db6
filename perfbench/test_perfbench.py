"""Self-tests of the benchmark: deterministic inputs, checkers that catch
wrong outputs, and count metrics that repeat exactly."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

WORKLOADS = sorted(workloads.GENERATORS)
COUNT_SUFFIXES = (".calls", ".pairs", ".infeasible", ".raised")


def run(op: Op) -> dict:
    return worker.execute_ops([op])[0]


def replace_number(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new, 1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_in_its_seed(workload):
    first = workloads.make_rounds(workload, 7, 2)
    assert first == workloads.make_rounds(workload, 7, 2)
    assert first != workloads.make_rounds(workload, 8, 2)


def test_exponent_corpus_classes():
    corpus = workloads.exponent_corpus()
    assert [shape for shape, _ in corpus] == list(workloads.EXP_CORPUS_LAYOUT)
    for shape, inst in corpus:
        u0, u1 = (workloads.bloch_axis(*inst[b]) for b in ("basis0", "basis1"))
        d0, d1 = inst["k0"] / inst["m0"], inst["k1"] / inst["m1"]
        if shape == "edge-collinear":
            assert abs(abs(sum(a * b for a, b in zip(u0, u1))) - 1.0) < 1e-12
        elif shape == "edge-boundary":
            assert inst["k0"] in (0, inst["m0"])
        else:
            radius = workloads.bloch_fit_radius(u0, u1, d0, d1)
            assert (radius < 1.0) == (shape == "interior")


def test_collinear_closed_form_reproduces_known_exponents():
    # the two collinear repros whose true exponents are known
    assert checks.collinear_exponent(20, 20, 0.1, 0.8, False) == pytest.approx(0.275396, abs=1e-6)
    assert checks.collinear_exponent(20, 20, 0.2, 0.6, True) == pytest.approx(0.024157, abs=1e-6)


def test_strict_parsers_reject_non_finite_tokens():
    with pytest.raises(checks.CheckError):
        checks.strict_json('{"r_ph_bar": NaN}')
    with pytest.raises(checks.CheckError):
        checks.strict_json('{"x": Infinity}')
    with pytest.raises(checks.CheckError):
        checks.strict_csv(checks.CSV_HEADER + "\n" + ",".join(["nan"] * 9) + "\n",
                          checks.CSV_HEADER)
    with pytest.raises(checks.CheckError):
        checks.strict_csv(checks.CSV_HEADER + "\r\n" + ",".join(["0"] * 9) + "\r\n",
                          checks.CSV_HEADER)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_checker_flags_planted_analytic_output(fmt):
    op = Op("rate", "rate", ("rate", "--p", "0.03", "--alpha-sq", "0.2", "--format", fmt))
    rec = run(op)
    assert checks.check(op, rec) == []
    bad = dict(rec, stdout=replace_number(rec["stdout"], "0.3272", "0.3273"))
    assert checks.check(op, bad)

    opt = Op("optimize", "optimize", ("optimize", "--p", "0.05", "--format", "csv"))
    planted = {"status": "ok", "rc": 0, "stderr": "",
               "stdout": "alpha_sq_star,overlap_star,G_star\n0.2,0.36,0.01\n"}
    assert any("beyond the threshold" in p for p in checks.check(opt, planted))


def test_checker_flags_planted_finite_size_output():
    op = Op("simulate", "zero-slack", ("simulate", "--p", "0.03", "--alpha-sq", "0.2",
                                        "--n", "10000", "--seed", "3"))
    rec = run(op)
    assert checks.check(op, rec) == []
    out = json.loads(rec["stdout"])
    out["tallies"]["n_err"] += 60  # ~6 sigma at n = 1e4, r_err = 0.01
    assert any("n_err" in p for p in checks.check(op, dict(rec, stdout=json.dumps(out))))
    out = json.loads(rec["stdout"])
    out["bound"]["r_ph_bar"] *= 1.01
    assert checks.check(op, dict(rec, stdout=json.dumps(out)))

    lib = Op("run_b92", "library", call={"p": 0.03, "alpha_sq": 0.2, "n": 20000, "seed": 5})
    rec = run(lib)
    assert checks.check(lib, rec) == []
    joint = list(rec["summary"]["joint"])
    joint[1], joint[2] = joint[1] + 200, joint[2] - 200
    bad = dict(rec, summary=dict(rec["summary"], joint=joint))
    assert checks.check(lib, bad)


def _collinear_output(m0, m1, d0, d1, r_nats):
    """A well-formed exponent answer whose point reproduces the counts."""
    w0, w1 = m0 / (m0 + m1), m1 / (m0 + m1)
    p = [[w0 * (1 - d0), w0 * d0], [w1 * (1 - d1), w1 * d1]]
    q = [[[[1 / 16] * 2] * 2] * 2] * 2
    return json.dumps({"r_nats": r_nats, "r_bits": r_nats / math.log(2),
                       "zero_region_member": False, "converged": True,
                       "point": {"k_frac": 0.0, "bloch_n": [0.0, 0.0, 1.0], "p": p, "q": q}})


def test_checker_flags_planted_exponent_output():
    op = Op("exponent", "edge", ("exponent", "--basis0", "0.0,0.0", "--basis1", "0.0,0.0",
                                  "--m0", "20", "--m1", "20", "--delta0", "0.1",
                                  "--delta1", "0.8", "--seed", "0"),
            call={"shape": "edge-collinear", "check_seed": 1})
    good = {"status": "ok", "rc": 0, "stderr": "",
            "stdout": _collinear_output(20, 20, 0.1, 0.8,
                                        checks.collinear_exponent(20, 20, 0.1, 0.8, False))}
    assert checks.check(op, good) == []
    # the known defect: R ~ 0 reported for a collinear instance
    wrong = dict(good, stdout=_collinear_output(20, 20, 0.1, 0.8, 2.7e-15))
    assert any("collinear closed form" in p for p in checks.check(op, wrong))
    out = json.loads(good["stdout"])
    out["point"]["p"][0] = [0.3, 0.2]
    assert any("misses the observed counts" in p
               for p in checks.check(op, dict(good, stdout=json.dumps(out))))


def test_checker_accepts_a_real_exponent_answer_and_flags_a_planted_one():
    shape, _ = workloads.exponent_corpus()[0]
    op = workloads.make_rounds("exponent-queries", 1, 1)[0][0]
    assert op.call["shape"] == shape == "interior"
    rec = run(op)
    assert checks.check(op, rec) == []
    out = json.loads(rec["stdout"])
    out["r_nats"], out["r_bits"] = 0.3, 0.3 / math.log(2)
    assert any("zero-region member" in p
               for p in checks.check(op, dict(rec, stdout=json.dumps(out))))


def pairs(op: Op) -> int:
    return op.call["n"] if op.kind == "run_b92" else int(op.argv[op.argv.index("--n") + 1])


def _count_metrics(ops) -> dict:
    tracer = tracing.Tracer()
    records = worker.execute_ops(ops, tracer)
    assert all(r["status"] == "ok" for r in records)
    return {k: v for k, v in tracing.layer_metrics(tracer.spans).items()
            if k.endswith(COUNT_SUFFIXES)}


def test_count_metrics_repeat_exactly_for_a_fixed_seed():
    analytic = [op for op in workloads.make_rounds("analytic-sweep", 3, 1)[0]
                if op.kind != "sweep"]
    finite = [op for op in workloads.make_rounds("finite-size-sim", 3, 1)[0]
              if pairs(op) <= 100_000]
    exponent = workloads.make_rounds("exponent-queries", 3, 1)[0][:1]
    ops = analytic + finite + exponent
    first = _count_metrics(ops)
    assert first == _count_metrics(ops)
    assert first["cli.main.calls"] == len(ops) - sum(op.kind == "run_b92" for op in ops)
    assert first["protocol.run_protocol1.pairs"] > 0
    assert first["exponent.min_exponent.calls"] == 1


def test_self_time_subtracts_direct_children():
    spans = [(0, "cli.main", 0.0, 10.0, -1, None),
             (0, "protocol.expected_rates", 1.0, 4.0, 0, None),
             (0, "quantum.filter_op", 2.0, 3.0, 1, None),
             (0, "security.phase_error_bound", 5.0, 7.0, 0, None)]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_tail_latency_has_ten_samples_beyond():
    import run as bench

    value, pct, beyond = bench.tail_latency([float(i) for i in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)
    assert bench.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
