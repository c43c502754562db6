"""Command-line front end: rate queries, channel sweeps, nonorthogonality
optimization, protocol simulation, and sampling-exponent queries.

Analytic commands are deterministic byte-for-byte for a given invocation:
floating-point output uses 12 significant digits and CSV rows use LF line
endings with the fixed column order

    alpha_sq,overlap,p,r_fil,r_err,r_ph_bar,r_ph_actual,r_bit_actual,G

Exit codes: 0 success, 1 usage/parse error, 2 mathematical
infeasibility/singularity or a solver that did not converge, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._brent import brent_root
from .errors import ConsistencyError, DomainError, ParameterError
from .exponent import SolverOptions, TwoBasisSampling, min_exponent, zero_region_contains
from .protocol import ProtocolParams, _depolarizing_scalars, run_protocol1
# expected_rates and phase_error_bound are not called here, but the
# benchmark's tracer (perfbench/tracing.py) wraps them as cli.expected_rates
# and cli.phase_error_bound, so they must stay resolvable in this module.
from .protocol import expected_rates  # noqa: F401
from .quantum import check_alpha, check_strength, depolarizing_channel
from .security import (  # noqa: F401
    SlackVector,
    _key_rate,
    _phase_ceiling,
    binary_entropy,
    failure_budget,
    finite_key_length,
    finite_size_bound,
    phase_error_bound,
)

ALPHA_SQ_MIN = 0.01
ALPHA_SQ_MAX = 0.49


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102  (argparse hook)
        raise CliUsageError(message)


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The options of a JSON config file as ``--key=value`` flag tokens.

    Config keys use flag spelling without the leading dashes (either - or _
    separators); values are strings or numbers, which the parser then
    type-checks exactly as it does flags.
    """
    with open(args.config) as fh:
        try:
            loaded = json.load(fh)
        except ValueError as exc:  # also a file that is not UTF-8
            raise CliUsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise CliUsageError("config file must hold a JSON object")
    flags = []
    for key, value in loaded.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr) or attr in ("command", "config"):
            raise CliUsageError(f"config key {key!r} is not an option of this command")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise CliUsageError(f"config key {key!r} must hold a string or a number")
        flags.append(f"--{attr.replace('_', '-')}={value}")
    return flags


class RateReport(NamedTuple):
    """One analytic row: channel point, observed-rate analogue, bound, rate.
    The field order is the CSV column order."""

    alpha_sq: float
    overlap: float
    p: float
    r_fil: float
    r_err: float
    r_ph_bar: float
    r_ph_actual: float
    r_bit_actual: float
    G: float


CSV_HEADER = ",".join(RateReport._fields)
OPTIMUM_FIELDS = ("alpha_sq_star", "overlap_star", "G_star")


@dataclass(frozen=True)
class SweepConfig:
    """Channel and nonorthogonality grid of a sweep."""

    p_values: tuple[float, ...]
    alpha_sq_values: tuple[float, ...] | None  # None means optimize per p

    def __post_init__(self) -> None:
        if not self.p_values:
            raise ParameterError("empty channel grid")
        if self.alpha_sq_values is not None and not self.alpha_sq_values:
            raise ParameterError("empty alpha grid")


def fmt(v) -> str:
    """v at 12 significant digits, with -0.0 printed as 0."""
    return f"{float(v) + 0.0:.12g}"


def jf(v) -> float | None:
    """A JSON value at 12 significant digits, -0.0 as 0.0: null for nan and
    +-inf, which RFC 8259 cannot spell."""
    x = float(fmt(v))
    return x if math.isfinite(x) else None


def overlap_to_alpha_sq(overlap: float) -> float:
    if not 0.0 <= overlap <= 1.0:
        raise ParameterError("overlap must lie in [0, 1]")
    return (1.0 - math.sqrt(overlap)) / 2.0


def _alpha(alpha_sq: float) -> float:
    """The amplitude alpha of a nonorthogonality alpha^2, range-checked."""
    if not alpha_sq > 0.0:
        raise ParameterError(f"alpha_sq={alpha_sq!r} must be positive")
    alpha = math.sqrt(alpha_sq)
    check_alpha(alpha)
    return alpha


def cmd_rate(p: float, alpha_sq: float) -> RateReport:
    """Analytic report for one (channel strength, nonorthogonality) point.

    The numbers are those of depolarizing_rates, phase_error_bound and
    key_rate, taken from the scalar kernels they wrap once p and alpha are
    checked, so no object is built but the report; r_bit = r_err = p/3.
    """
    alpha = _alpha(alpha_sq)
    check_strength(p)
    r_fil, r_err, r_ph = _depolarizing_scalars(alpha, p)
    r_ph_bar, _, _, feasible = _phase_ceiling(r_err, r_fil, alpha)
    return RateReport(alpha_sq, (1.0 - 2.0 * alpha_sq) ** 2, p, r_fil, r_err,
                      r_ph_bar, r_ph, r_err, _key_rate(r_err, r_fil, r_ph_bar, feasible))


def _key_rate_slope(p: float, alpha_sq: float) -> tuple[float, float]:
    """(S, dS/dalpha^2) of the unfloored key rate
    S = r_fil (1 - h(e_bit) - h(min(e_ph, 1/2))), where G = max(S, 0).

    S and e_ph come from the scalar kernels that depolarizing_rates and
    phase_error_bound wrap, so no object is built per step.  With
    g = 1 - 2 alpha^2, t = p/3, u = 1 - 4t and s^2 = 4 alpha^2 (1 - alpha^2),
    r_fil = s^2 u / 2 + 2t and r_err = t.  Where e_ph < 1/2 the ceiling is the
    right root x+ = 2t (1 + s^2 u (2 + u)) / (1 - u^2 s^2) of _phase_ceiling's
    quadratic, so r_ph_bar = (x+ + 2 t g^2) / 2.  Differentiating r h(y/r)
    in r and y gives
      S' = r_fil' (1 + log2(1 - e_bit) + log2(1 - e_ph))
           - r_ph_bar' log2((1 - e_ph) / e_ph),
    whose last term vanishes with e_ph = 0; where e_ph >= 1/2,
    S = -r_fil h(e_bit) and S' = r_fil' log2(1 - e_bit).
    """
    alpha = math.sqrt(alpha_sq)
    r_fil, r_err, _ = _depolarizing_scalars(alpha, p)
    e_bit, e_ph = r_err / r_fil, _phase_ceiling(r_err, r_fil, alpha)[0] / r_fil
    s = r_fil * (1.0 - binary_entropy(e_bit) - binary_entropy(min(e_ph, 0.5)))
    g, t = 1.0 - 2.0 * alpha_sq, p / 3.0
    u = 1.0 - 4.0 * t
    d_fil = 2.0 * g * u
    if e_ph >= 0.5:
        return s, d_fil * math.log2(1.0 - e_bit)
    slope = d_fil * (1.0 + math.log2(1.0 - e_bit) + math.log2(1.0 - e_ph))
    if e_ph > 0.0:
        s2u = 4.0 * alpha_sq * (1.0 - alpha_sq) * u
        d_ph = 8.0 * g * t * u * (1.0 + u) / (1.0 - u * s2u) ** 2 - 4.0 * t * g
        slope -= d_ph * math.log2((1.0 - e_ph) / e_ph)
    return s, slope


# alpha^2 = 0.01, 0.09, ..., 0.49; on every channel with a secure point the
# rise of S to its peak spans [0.03, 0.15] at least, so this step finds it
_SLOPE_GRID = tuple(ALPHA_SQ_MIN + 0.08 * k for k in range(7))


def _best_alpha_sq(p: float) -> float:
    """The nonorthogonality cmd_optimize reports for a channel.

    The peak of S over alpha_sq in [0.01, 0.49] is an end of the range or a
    root of dS/dalpha^2: the grid's first pair where the slope turns from
    rising to falling brackets it for a Brent root search.  The answer is
    the best of that root and both ends, or 0.01 when no S > 0 (G = S
    wherever S > 0).
    """
    if not 0.0 <= p < 0.75:
        raise ParameterError("depolarizing strength must lie in [0, 3/4)")

    # each point's (S, slope) once: the bracket's ends and the root are
    # points that the grid or the root search has already evaluated
    at = functools.cache(lambda alpha_sq: _key_rate_slope(p, alpha_sq))
    found = [(at(a)[0], a) for a in (ALPHA_SQ_MIN, ALPHA_SQ_MAX)]
    for a, b in zip(_SLOPE_GRID, _SLOPE_GRID[1:]):
        if at(a)[1] > 0.0 >= at(b)[1]:
            x = brent_root(lambda alpha_sq: at(alpha_sq)[1], a, b, xtol=1e-15)
            found.append((at(x)[0], x))
            break
    s_best, best = max(found)
    return best if s_best > 0.0 else ALPHA_SQ_MIN


def cmd_optimize(p: float) -> tuple[float, float, float]:
    """Best nonorthogonality for a channel over alpha_sq in [0.01, 0.49]:
    (alpha_sq, overlap, G) of cmd_rate's report at _best_alpha_sq(p), so no
    S > 0 gives (0.01, 0.9604, 0.0)."""
    report = cmd_rate(p, _best_alpha_sq(p))
    return report.alpha_sq, report.overlap, report.G


def cmd_sweep(cfg: SweepConfig) -> list[RateReport]:
    """One analytic report per grid point, optimization mode when no alpha
    grid is given."""
    rows: list[RateReport] = []
    for p in cfg.p_values:
        if cfg.alpha_sq_values is None:
            rows.append(cmd_rate(p, _best_alpha_sq(p)))
        else:
            rows += [cmd_rate(p, alpha_sq) for alpha_sq in cfg.alpha_sq_values]
    return rows


def cmd_simulate(p: float, alpha_sq: float, n_pairs: int, seed: int,
                 slacks: SlackVector) -> dict:
    """Run the protocol once and evaluate the finite-size estimation chain."""
    alpha = _alpha(alpha_sq)
    params = ProtocolParams(alpha=alpha, n_pairs=n_pairs,
                            channel=depolarizing_channel(p), seed=seed)
    t = run_protocol1(params)
    bound = finite_size_bound(t.n_err, t.n_fil, n_pairs, alpha, slacks)
    key_length = finite_key_length(t.n_err, t.n_fil, n_pairs, bound, slacks)
    budget = failure_budget(n_pairs, slacks, 0, 0.0)
    return {
        "params": {
            "p": jf(p),
            "alpha_sq": jf(alpha_sq),
            "n_pairs": n_pairs,
            "seed": seed,
            "eps": [jf(e) for e in slacks.as_tuple()],
        },
        "tallies": {
            "n_err": t.n_err,
            "n_fil": t.n_fil,
            "n_bit": t.n_bit,
            "n_ph": t.n_ph,
            "n_xx": t.n_xx.tolist(),
            "m_check": t.m_check.tolist(),
        },
        "bound": {
            "feasible": bound.feasible,
            "r_ph_bar": jf(bound.r_ph_bar),
            "x_star": jf(bound.x_star),
            "delta": jf(bound.delta),
        },
        "key_length": jf(key_length),
        "failure_budget": jf(budget),
    }


def cmd_exponent(basis0_spec: str, basis1_spec: str, m0: int, m1: int,
                 delta0: float, delta1: float, seed: int) -> dict:
    """Solve the sampling-exponent minimization for one problem instance."""
    problem = TwoBasisSampling(
        basis0=parse_basis(basis0_spec),
        basis1=parse_basis(basis1_spec),
        m0=m0,
        m1=m1,
        delta0=delta0,
        delta1=delta1,
    )
    sol = min_exponent(problem, SolverOptions(seed=seed))
    return {
        "r_nats": jf(sol.r_nats),
        "r_bits": jf(sol.r_bits),
        "zero_region_member": zero_region_contains(problem),
        "converged": sol.converged,
        "point": {
            "k_frac": jf(sol.point.k_frac),
            "bloch_n": [jf(v) for v in sol.point.bloch_n],
            "p": [[jf(v) for v in row] for row in sol.point.p],
            "q": (sol.point.q.round(12) + 0.0).tolist(),
        },
    }


def parse_basis(spec: str) -> np.ndarray:
    """Basis from "theta[,phi]" Bloch angles or four amplitude components
    "re0,im0,re1,im1" of the outcome-1 ket."""
    from .exponent import basis_from_bloch

    try:
        parts = [float(tok) for tok in spec.split(",")]
    except ValueError as exc:
        raise CliUsageError(f"cannot parse basis spec {spec!r}") from exc
    if not all(map(math.isfinite, parts)):
        raise ParameterError(f"basis spec {spec!r} holds a non-finite number")
    if len(parts) == 1:
        return basis_from_bloch(parts[0])
    if len(parts) == 2:
        return basis_from_bloch(parts[0], parts[1])
    if len(parts) == 4:
        one = np.array([parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]])
        norm = np.linalg.norm(one)
        if norm < 1e-12:
            raise CliUsageError("basis amplitudes must be nonzero")
        one = one / norm
        zero = np.array([-one[1].conjugate(), one[0].conjugate()])
        return np.stack([zero, one])
    raise CliUsageError(f"basis spec {spec!r} needs 1, 2 or 4 numbers")


def _resolve_alpha_sq(args) -> float:
    if args.alpha_sq is not None and args.overlap is not None:
        raise CliUsageError("give --alpha-sq or --overlap, not both")
    if args.alpha_sq is not None:
        return args.alpha_sq
    if args.overlap is not None:
        return overlap_to_alpha_sq(args.overlap)
    raise CliUsageError("one of --alpha-sq or --overlap is required")


def _grid(lo: float, hi: float, steps: int) -> tuple[float, ...]:
    if steps < 1 or hi < lo:
        raise CliUsageError("grid bounds must be ordered with steps >= 1")
    if steps == 1:
        return (lo,)
    # past sys.maxsize // 8 steps no float64 array fits in the address space,
    # and linspace fails in several ways (IndexError at 2**63 - 1)
    if steps > sys.maxsize // 8:
        raise CliUsageError(f"a grid of {steps} steps is too large")
    try:
        values = np.linspace(lo, hi, steps)
    except (ValueError, MemoryError) as exc:  # more steps than memory can hold
        raise CliUsageError(f"a grid of {steps} steps is too large: {exc}") from exc
    return tuple(float(v) for v in values)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w", newline="") as fh:
        fh.write(text)


def _render(fields: tuple[str, ...], rows: list[tuple], fmt_name: str,
            *, many: bool = False) -> str:
    """CSV with a header line, or JSON: a list of objects when ``many``,
    else the one row's object."""
    if fmt_name == "csv":
        lines = [",".join(fields)] + [",".join(map(fmt, row)) for row in rows]
        return "\n".join(lines) + "\n"
    # json.dumps(..., indent=2) of the jf values, written here: json spells a
    # float as repr(x) and None as null, and its indent encoder is pure Python
    pad = "    " if many else "  "
    objs = []
    for row in rows:
        items = []
        for name, v in zip(fields, row):
            x = jf(v)
            items.append(f'{pad}"{name}": {"null" if x is None else repr(x)}')
        objs.append("{\n" + ",\n".join(items) + "\n" + pad[2:] + "}")
    if not many:
        return objs[0] + "\n"
    return "[\n  " + ",\n  ".join(objs) + "\n]\n"


def _float(text: str) -> float:
    """A float option's value, with -0.0 read as 0.0 so that an output
    echoes a -0 flag as 0."""
    try:
        return float(text) + 0.0
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def make_parser() -> _Parser:
    parser = _Parser(prog="b92sim", description=__doc__, allow_abbrev=False,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    tables: dict[_Parser, tuple[dict, dict]] = {}

    def add(sp, flag, **kwargs):
        action = sp.add_argument(flag, **kwargs)
        options, defaults = tables.setdefault(sp, ({}, {}))
        options[flag] = (action.dest, action.type, action.choices)
        defaults[action.dest] = action.default

    def add_common(sp, formats=True):
        if formats:
            add(sp, "--format", choices=("csv", "json"), default="csv")
        add(sp, "--out", metavar="PATH")
        add(sp, "--config", metavar="PATH", help="JSON file of option defaults; flags win")

    def add_floats(sp, *flags):
        for flag in flags:
            add(sp, flag, type=_float)

    sp = sub.add_parser("rate", help="analytic report for one channel point", allow_abbrev=False)
    add_floats(sp, "--p", "--alpha-sq", "--overlap")
    add_common(sp)

    sp = sub.add_parser("optimize", help="best nonorthogonality for a channel",
                        allow_abbrev=False)
    add_floats(sp, "--p")
    add_common(sp)

    sp = sub.add_parser("sweep", help="grid of analytic reports", allow_abbrev=False)
    add_floats(sp, "--p", "--p-min", "--p-max")
    add(sp, "--p-steps", type=int)
    add_floats(sp, "--alpha-sq", "--overlap", "--alpha-min", "--alpha-max")
    add(sp, "--alpha-steps", type=int)
    add_common(sp)

    sp = sub.add_parser("simulate", help="one protocol run plus finite-size report",
                        allow_abbrev=False)
    add_floats(sp, "--p", "--alpha-sq", "--overlap")
    add(sp, "--n", type=int)
    add(sp, "--seed", type=int, default=0)
    for i in range(1, 9):
        add(sp, f"--eps{i}", type=_float, default=0.0)
    add_common(sp, formats=False)

    sp = sub.add_parser("exponent", help="two-basis sampling exponent", allow_abbrev=False)
    add(sp, "--basis0", metavar="SPEC")
    add(sp, "--basis1", metavar="SPEC")
    add(sp, "--m0", type=int)
    add(sp, "--m1", type=int)
    add_floats(sp, "--delta0", "--delta1")
    add(sp, "--seed", type=int, default=0)
    add_common(sp, formats=False)

    # for _parse: command name -> its parser, and -> its flag table, which
    # maps each option string to (dest, type, choices) next to every dest's
    # default
    parser.commands = sub.choices
    parser.flags = {name: tables[sp] for name, sp in sub.choices.items()}
    return parser


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise CliUsageError(f"--{name.replace('_', '-')} is required "
                                "(flag or config file)")


def _run(args) -> int:
    if args.command == "rate":
        _require(args, "p")
        report = cmd_rate(args.p, _resolve_alpha_sq(args))
        _emit(_render(RateReport._fields, [report], args.format), args.out)
        return 0

    if args.command == "optimize":
        _require(args, "p")
        _emit(_render(OPTIMUM_FIELDS, [cmd_optimize(args.p)], args.format), args.out)
        return 0

    if args.command == "sweep":
        if args.p is not None:
            p_values = (args.p,)
        elif None not in (args.p_min, args.p_max, args.p_steps):
            p_values = _grid(args.p_min, args.p_max, args.p_steps)
        else:
            raise CliUsageError("give --p or --p-min/--p-max/--p-steps")
        if args.alpha_sq is not None or args.overlap is not None:
            alpha_values: tuple[float, ...] | None = (_resolve_alpha_sq(args),)
        elif None not in (args.alpha_min, args.alpha_max, args.alpha_steps):
            alpha_values = _grid(args.alpha_min, args.alpha_max, args.alpha_steps)
        else:
            alpha_values = None  # optimize per p
        rows = cmd_sweep(SweepConfig(p_values=p_values, alpha_sq_values=alpha_values))
        _emit(_render(RateReport._fields, rows, args.format, many=True), args.out)
        return 0

    if args.command == "simulate":
        _require(args, "p", "n")
        slacks = SlackVector(*(getattr(args, f"eps{i}") for i in range(1, 9)))
        result = cmd_simulate(args.p, _resolve_alpha_sq(args), args.n, args.seed, slacks)
        _emit(json.dumps(result, indent=2) + "\n", args.out)
        return 0

    # the parser admits no other command
    _require(args, "basis0", "basis1", "m0", "m1", "delta0", "delta1")
    result = cmd_exponent(
        args.basis0, args.basis1, args.m0, args.m1,
        args.delta0, args.delta1, args.seed,
    )
    _emit(json.dumps(result, indent=2) + "\n", args.out)
    return 0


@functools.cache
def _parser() -> _Parser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    return make_parser()


def _read_flags(table: tuple[dict, dict], command: str,
                tokens: list[str]) -> argparse.Namespace | None:
    """tokens as the command's parser reads them when they are ``--flag
    value`` pairs of known flags whose values start with no dash, convert
    with the flag's type and lie among its choices; None for any other
    tokens, which are left to argparse."""
    options, defaults = table
    if len(tokens) % 2:
        return None
    values = dict(defaults, command=command)
    for flag, text in zip(tokens[::2], tokens[1::2]):
        option = options.get(flag)
        if option is None or text.startswith("-"):
            return None
        dest, kind, choices = option
        value = text
        if kind is not None:
            try:
                value = kind(text)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    args = argparse.Namespace()
    vars(args).update(values)
    return args


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed as the full parser parses it.  When argv[0] names a
    command, the rest is read from that command's flag table or, when
    _read_flags declines it (-h, --flag=value, --, an unknown flag or a bad
    value), by the command's parser, which the full parser would hand it to
    after scanning every token itself; anything else (no argument, -h, an
    unknown command, --) takes the full parser."""
    parser = _parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args = _read_flags(parser.flags[argv[0]], argv[0], argv[1:])
    if args is None:
        args = sub.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        # argparse before Python 3.12 reads --flag=-- as an empty list
        for dest, value in vars(args).items():
            if isinstance(value, list):
                raise CliUsageError(f"argument --{dest.replace('_', '-')}: "
                                    "expected one argument")
    return args


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _parse(argv)
        if args.config is not None:
            # config options go ahead of the command's own flags, which win
            at = argv.index(args.command) + 1
            args = _parse(argv[:at] + _config_flags(args) + argv[at:])
        return _run(args)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, ParameterError, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
