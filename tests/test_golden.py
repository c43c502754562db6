"""Byte-for-byte output of the analytic commands against a stored fixture.

The fixture, golden_analytic.json, holds the exit code and stdout of every
invocation in ``invocations()``.  It pins the documented promise that the
analytic commands are deterministic byte-for-byte across code changes, not
only within one version.  A change that moves an analytic output on purpose
regenerates it with

    PYTHONPATH=src python tests/test_golden.py

and names the moved outputs in CHANGES.md.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from b92sim.cli import main

FIXTURE = Path(__file__).with_name("golden_analytic.json")

# the noiseless point, a subnormal strength, both sides of the secure
# window's edge (p ~ 0.034), past it, and the end of the channel range
P_VALUES = ("0", "1e-320", "0.0171", "0.0302", "0.0335", "0.06", "0.3", "0.7499")
ALPHA_SQ_VALUES = ("0.01", "0.2", "0.49", "1e-12", "1e-300")
FORMATS = ("csv", "json")


def invocations() -> list[list[str]]:
    out = []
    for fmt in FORMATS:
        for p in P_VALUES:
            out += [["rate", "--p", p, "--alpha-sq", a, "--format", fmt]
                    for a in ALPHA_SQ_VALUES]
        out.append(["rate", "--p", "0.0302", "--overlap", "0.36", "--format", fmt])
        out += [["optimize", "--p", p, "--format", fmt] for p in P_VALUES]
        out.append(["sweep", "--p-min", "0", "--p-max", "0.06", "--p-steps", "13",
                    "--format", fmt])
        out.append(["sweep", "--p", "0.0302", "--alpha-min", "0.01",
                    "--alpha-max", "0.49", "--alpha-steps", "13", "--format", fmt])
    return out


def run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def golden() -> dict:
    cases = json.loads(FIXTURE.read_text())
    return {tuple(case["argv"]): (case["code"], case["stdout"]) for case in cases}


@pytest.mark.parametrize("argv", invocations(), ids=" ".join)
def test_output_matches_fixture(argv, golden):
    assert run(argv) == golden[tuple(argv)]


if __name__ == "__main__":
    cases = []
    for argv in invocations():
        code, stdout = run(argv)
        cases.append({"argv": argv, "code": code, "stdout": stdout})
    FIXTURE.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {FIXTURE}", file=sys.stderr)
