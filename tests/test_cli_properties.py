"""Property tests over the command line: whatever the numbers or the config
file, ``main`` returns a documented exit code instead of raising, and a
successful JSON command prints strict RFC 8259 JSON.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from b92sim.cli import RateReport, _dump, _number, _render, jf, main

# floats with the edge values drawn often: negatives, zeros, nan, +-inf, and
# the ranges where the commands succeed
NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, -0.1, math.nan, math.inf, -math.inf, 0.5, 1.0]),
    st.floats(0.0, 0.06),
    st.floats(0.005, 0.45),
    st.floats(-0.1, 0.8),
    st.floats(allow_nan=True, allow_infinity=True),
)
STEPS = st.integers(-1, 3)
# nonzero eps2..eps8 send simulate through the slow slacked bound, and one
# bad slack of eight ends the run; keep both rare
SLACKS = st.sampled_from([0.0] * 12 + [-1e-3, math.nan, math.inf, 2e-3])

OPTIONS = {
    "rate": ("p", "alpha-sq", "overlap", "format"),
    "optimize": ("p", "format"),
    "sweep": ("p", "p-min", "p-max", "p-steps", "alpha-sq", "overlap",
              "alpha-min", "alpha-max", "alpha-steps", "format"),
    "simulate": ("p", "alpha-sq", "overlap", "n", "seed") + tuple(f"eps{i}" for i in range(1, 9)),
}
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 10_000), NUMBERS, st.text(max_size=8),
    st.sampled_from(["csv", "json", "xml", "0.02", "abc"]),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=3), st.integers(), max_size=1),
)


def reject(token):
    raise ValueError(f"non-RFC 8259 token {token}")


def flag(name, value):
    return f"--{name}={value!r}"


def maybe(name, values):
    """A flag token for ``name`` or nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [flag(name, v)]))


def always(name, values):
    """A flag token for ``name``."""
    return values.map(lambda v: [flag(name, v)])


def with_flags(command, *groups):
    return st.tuples(*groups).map(lambda gs: [command] + [tok for g in gs for tok in g])


# the nonorthogonality as alpha^2 or as overlap; neither or both is a usage error
ALPHA = st.one_of(
    always("alpha-sq", NUMBERS), always("overlap", NUMBERS), st.just([]),
    st.tuples(always("alpha-sq", NUMBERS), always("overlap", NUMBERS)).map(lambda t: t[0] + t[1]),
)


# exponent inputs: collinear, antipodal and general bases as Bloch angles or
# amplitudes, qubit counts up to 12 (a solve then takes a fraction of a
# second) and outcome fractions on the count grid; each value is one of
# nan, +-inf, a negative or another invalid token one time in eight
EDGE = [math.nan, math.inf, -math.inf, -1.0]


def mostly(valid, invalid):
    return st.integers(0, 7).flatmap(lambda r: invalid if r == 0 else valid)


BASES = mostly(
    st.one_of(st.sampled_from(["0", "3.141592653589793", "1.0", "0.4,0.3", "0.6,0,0.8,0",
                               "1.2386489116583281,4.866353449734718"]),
              st.tuples(st.floats(0.0, 3.2), st.floats(-7.0, 7.0))
              .map(lambda t: f"{t[0]!r},{t[1]!r}")),
    st.sampled_from(["nan", "inf,0", "0,-inf", "0,0,nan,0", "zzz"]),
)
COUNTS = mostly(st.integers(1, 12), st.sampled_from([0, -2] + EDGE))
DELTAS = mostly(st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.integers(0, 12).map(lambda k: k / 12)),
                st.one_of(st.sampled_from(EDGE), st.floats(1.0, 2.0, exclude_min=True)))
SEEDS = mostly(st.integers(0, 3), st.sampled_from([-2, 2**64] + EDGE))

ARGVS = st.one_of(
    with_flags("rate", always("p", NUMBERS), ALPHA),
    with_flags("optimize", always("p", NUMBERS)),
    with_flags("sweep", maybe("p", NUMBERS), maybe("p-min", NUMBERS), maybe("p-max", NUMBERS),
               maybe("p-steps", STEPS), maybe("alpha-sq", NUMBERS), maybe("overlap", NUMBERS),
               maybe("alpha-min", NUMBERS), maybe("alpha-max", NUMBERS),
               maybe("alpha-steps", STEPS.map(lambda k: 2 * k))),
    with_flags("simulate", always("p", NUMBERS), ALPHA, always("n", st.integers(-2, 10_000)),
               maybe("seed", st.one_of(st.integers(-2, 3), st.just(2**64))),
               *(maybe(f"eps{i}", SLACKS) for i in range(1, 9))),
)
# basis specs are passed as typed, not as a Python repr
EXPONENT_ARGVS = with_flags(
    "exponent", *(BASES.map(lambda spec, b=b: [f"--{b}={spec}"]) for b in ("basis0", "basis1")),
    always("m0", COUNTS), always("m1", COUNTS), always("delta0", DELTAS),
    always("delta1", DELTAS), maybe("seed", SEEDS),
)


@st.composite
def configs(draw, command):
    keys = st.one_of(st.sampled_from(OPTIONS[command] + ("config",)),
                     st.sampled_from(("bogus", "alpha", "P", "n_pairs")))
    config = draw(st.dictionaries(keys, JSON_VALUES, max_size=4))
    # as on the command line, keep the slow slacked bound rare
    for key in [k for k in config if k.startswith("eps") and k != "eps1"]:
        config[key] = draw(SLACKS)
    return config


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    if code == 0:
        json.loads(out, parse_constant=reject)
    else:
        assert out == "" and err.startswith("error: "), (argv, out, err)
    return code


def json_format(argv):
    # simulate always prints JSON; the analytic commands print CSV by default
    return argv if argv[0] == "simulate" else argv + ["--format", "json"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestCliProperties:
    @settings(max_examples=400, deadline=None)
    @given(ARGVS)
    # an alpha^2 this small makes the bound infeasible: r_ph_bar prints null
    @example(["rate", "--p=0.0", "--alpha-sq=1.3472021460402302e-272"])
    # alpha^2 below the rounding of 1: noiseless data must stay feasible
    @example(["rate", "--p=0.0", "--alpha-sq=1e-17"])
    @example(["simulate", "--p=0.03", "--alpha-sq=0.2", "--n=1000", "--seed=-1"])
    def test_flags_give_documented_exit_code_and_strict_json(self, argv):
        check(json_format(argv))

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=ARGVS, data=st.data())
    def test_config_files_give_documented_exit_code_and_strict_json(
            self, tmp_path, argv, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data.draw(configs(argv[0]))))
        # flags after the config options win, so --format json still holds
        check(json_format(argv[:1] + ["--config", str(path)] + argv[1:]))

    @settings(max_examples=30, deadline=None)
    @given(EXPONENT_ARGVS)
    @example(["exponent", "--basis0=0", "--basis1=1.0", "--m0=5", "--m1=5",
              "--delta0=0.5", "--delta1=0.5", "--seed=-1"])
    @example(["exponent", "--basis0=0", "--basis1=0", "--m0=8", "--m1=12",
              "--delta0=0.0", "--delta1=0.0"])
    def test_exponent_gives_documented_exit_code_and_strict_json(self, argv):
        # exponent always prints JSON
        check(argv)


# report values with the cases a JSON writer can get wrong: nan, +-inf, -0.0,
# subnormals, the ends of the float range and values already at 12 digits
ROW_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-310,
                     2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e6, 1e6).map(lambda x: float(f"{x:.12g}")),
    st.tuples(st.integers(-10**12 + 1, 10**12 - 1), st.integers(-320, 300))
    .map(lambda t: float(f"{t[0]}e{t[1]}")),
)


def jf_tree(value):
    """value with every float leaf replaced by jf of it."""
    if isinstance(value, dict):
        return {key: jf_tree(v) for key, v in value.items()}
    if isinstance(value, list):
        return [jf_tree(v) for v in value]
    return jf(value) if isinstance(value, float) else value


def np64_tree(value):
    """value with every float leaf as an np.float64."""
    if isinstance(value, dict):
        return {key: np64_tree(v) for key, v in value.items()}
    if isinstance(value, list):
        return [np64_tree(v) for v in value]
    return np.float64(value) if isinstance(value, float) else value


# the leaves and containers that simulate and exponent print: nested dicts
# with plain keys, lists (empty ones too), ints, bools, None and floats
NESTED = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10**20, 10**20), ROW_VALUES),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.from_regex(r"[a-z_][a-z0-9_]{0,7}", fullmatch=True), children,
                        max_size=4)),
    max_leaves=40,
)
SIMULATE_SHAPE = {
    "params": {"p": 0.03, "alpha_sq": -0.0, "n_pairs": 1000, "seed": 0,
               "eps": [0.0, 1e-310, 0.0, 0.001, 0.0, 0.0, 0.0, 0.0]},
    "tallies": {"n_err": 0, "n_fil": 12, "n_bit": 3, "n_ph": 5,
                "n_xx": [[1, 2], [3, 4]], "m_check": []},
    "bound": {"feasible": False, "r_ph_bar": math.nan, "x_star": math.inf,
              "delta": -math.inf},
    "key_length": 1e300,
    "failure_budget": -1e300,
}
EXPONENT_SHAPE = {
    "r_nats": 0.1234567890123456, "r_bits": 1.0 / 3.0,
    "zero_region_member": True, "converged": True,
    "point": {"k_frac": 0.0, "bloch_n": [0.6, -0.0, 0.8],
              "p": [[0.25, 0.25], [math.nan, 0.5]],
              "q": [[[[1.0 / 16.0, 0.0], [2e-13, -1e-13]]] * 2] * 2},
    "empty": {},
}


class TestJsonRows:
    @settings(max_examples=500, deadline=None)
    @given(rows=st.lists(st.tuples(*[ROW_VALUES] * 9), min_size=1, max_size=3),
           many=st.booleans())
    @example(rows=[(-0.0, 1e-310, math.nan, math.inf, -math.inf, 1e300, -1e300,
                    123456789012.0, 0.1)], many=False)
    # where the layout changes: .12g prints an exponent from 1e12 and repr
    # from 1e16, both below 1e-4; and the ends of the normal range
    @example(rows=[(1e12, 999999999999.5, 1.23456789012e15, 9.999999999995e15, 1e16,
                    1e-4, 9.99999999999e-5, 1e-5, 2.0**53),
                   (1.7976931348623157e308, 2.2250738585072014e-308,
                    math.nextafter(2.2250738585072014e-308, 0.0), -1.23456789012e15,
                    -1e12, -9.999999999995e15, -1e-5, 5e-324, 0.0)], many=True)
    def test_rows_are_json_dumps_with_indent(self, rows, many):
        if not many:
            rows = rows[:1]
        fields = RateReport._fields
        objs = [{name: jf(v) for name, v in zip(fields, row)} for row in rows]
        expected = json.dumps(objs if many else objs[0], indent=2) + "\n"
        out = _render(fields, rows, "json", many=many)
        assert out == expected
        json.loads(out, parse_constant=reject)

    def test_number_is_repr_of_jf_on_a_seeded_sweep(self):
        digits = ("1", "1.5", "9.99999999999", "9.999999999995", "1.23456789012345")
        values = [float(f"{sign}{d}e{e}") for e in range(-324, 309) for d in digits
                  for sign in ("", "-")]
        bits = np.random.default_rng(44).integers(0, 2**64, 10**5, dtype=np.uint64)
        floats = bits.view(np.float64)
        for x in [*values, *floats.tolist(), *floats]:
            y = jf(x)
            assert _number(x) == ("null" if y is None else repr(y)), repr(x)

    @settings(max_examples=500, deadline=None)
    @given(value=NESTED)
    @example(value=SIMULATE_SHAPE)
    @example(value=EXPONENT_SHAPE)
    def test_nested_values_are_json_dumps_with_indent(self, value):
        mapped = jf_tree(value)
        expected = json.dumps(mapped, indent=2)
        # the writer applies jf itself, to Python floats and np.float64 alike
        for given in (mapped, value, np64_tree(value)):
            out = _dump(given)
            assert out == expected
            json.loads(out, parse_constant=reject)

