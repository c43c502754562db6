"""Command-line front end: rate queries, channel sweeps, nonorthogonality
optimization, protocol simulation, and sampling-exponent queries.

Output is deterministic byte-for-byte for a given invocation: every
command prints its floats at 12 significant digits (-0 as 0; nan and +-inf
as null in JSON), and CSV rows use LF line endings with the fixed column
order

    alpha_sq,overlap,p,r_fil,r_err,r_ph_bar,r_ph_actual,r_bit_actual,G

Exit codes: 0 success, 1 usage/parse error, 2 mathematical
infeasibility/singularity or a solver that did not converge, 3 I/O error.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

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
    _phase_ceiling,
    _secret_bits,
    failure_budget,
    finite_key_length,
    finite_size_bound,
    phase_error_bound,
)

if TYPE_CHECKING:
    import numpy as np

ALPHA_SQ_MIN = 0.01
ALPHA_SQ_MAX = 0.49


class CliUsageError(Exception):
    pass


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
    """Analytic report for one (channel strength, nonorthogonality) point:
    _key_rate_slope's numbers once p and alpha are checked, with
    G = max(0, S) and r_bit = r_err = p/3."""
    _alpha(alpha_sq)
    check_strength(p)
    r_fil, r_err, r_ph, r_ph_bar, s, _ = _key_rate_slope(p, alpha_sq)
    return RateReport(alpha_sq, (1.0 - 2.0 * alpha_sq) ** 2, p, r_fil, r_err,
                      r_ph_bar, r_ph, r_err, max(0.0, s))


def _key_rate_slope(p: float, alpha_sq: float
                    ) -> tuple[float, float, float, float, float, float]:
    """(r_fil, r_err, r_ph, r_ph_bar, S, dS/dalpha^2) of a depolarizing point,
    unchecked, with S = _secret_bits(r_fil, e_bit, e_ph) the unfloored key
    rate, so that G = max(0, S).

    The rates are those of depolarizing_rates and phase_error_bound, taken
    from the scalar kernels they wrap, so no object is built per point.  An
    infeasible ceiling (none seen over p in [0, 1], alpha^2 down to 1e-300)
    gives S = -inf and a nan slope.  With g = 1 - 2 alpha^2, t = p/3,
    u = 1 - 4t and s^2 = 4 alpha^2 (1 - alpha^2), r_fil = s^2 u / 2 + 2t and
    r_err = t.  Where e_ph < 1/2 the ceiling is the right root
    x+ = 2t (1 + s^2 u (2 + u)) / (1 - u^2 s^2) of _phase_ceiling's
    quadratic, so r_ph_bar = (x+ + 2 t g^2) / 2.  Differentiating r h(y/r)
    in r and y gives
      S' = r_fil' (1 + log2(1 - e_bit) + log2(1 - e_ph))
           - r_ph_bar' log2((1 - e_ph) / e_ph),
    whose last term vanishes with e_ph = 0; where e_ph >= 1/2,
    S = -r_fil h(e_bit) and S' = r_fil' log2(1 - e_bit).
    """
    alpha = math.sqrt(alpha_sq)
    r_fil, r_err, r_ph, delta, excess = _depolarizing_scalars(alpha, p)
    r_ph_bar, _, _, feasible = _phase_ceiling(delta, excess, alpha)
    if not feasible:
        return r_fil, r_err, r_ph, r_ph_bar, -math.inf, math.nan
    e_bit, e_ph = r_err / r_fil, r_ph_bar / r_fil
    s = _secret_bits(r_fil, e_bit, e_ph)
    g, t = 1.0 - 2.0 * alpha_sq, p / 3.0
    u = 1.0 - 4.0 * t
    d_fil = 2.0 * g * u
    if e_ph >= 0.5:
        return r_fil, r_err, r_ph, r_ph_bar, s, d_fil * math.log2(1.0 - e_bit)
    slope = d_fil * (1.0 + math.log2(1.0 - e_bit) + math.log2(1.0 - e_ph))
    if e_ph > 0.0:
        s2u = 4.0 * alpha_sq * (1.0 - alpha_sq) * u
        d_ph = 8.0 * g * t * u * (1.0 + u) / (1.0 - u * s2u) ** 2 - 4.0 * t * g
        slope -= d_ph * math.log2((1.0 - e_ph) / e_ph)
    return r_fil, r_err, r_ph, r_ph_bar, s, slope


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
    at = functools.cache(lambda alpha_sq: _key_rate_slope(p, alpha_sq)[4:])
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


def cmd_sweep(p_values: tuple[float, ...],
              alpha_sq_values: tuple[float, ...] | None) -> list[RateReport]:
    """One analytic report per grid point, optimization mode (the best
    alpha_sq per p) when alpha_sq_values is None."""
    rows: list[RateReport] = []
    for p in p_values:
        if alpha_sq_values is None:
            rows.append(cmd_rate(p, _best_alpha_sq(p)))
        else:
            rows += [cmd_rate(p, alpha_sq) for alpha_sq in alpha_sq_values]
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
            "p": p,
            "alpha_sq": alpha_sq,
            "n_pairs": n_pairs,
            "seed": seed,
            "eps": list(slacks.as_tuple()),
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
            "r_ph_bar": bound.r_ph_bar,
            "x_star": bound.x_star,
            "delta": bound.delta,
        },
        "key_length": key_length,
        "failure_budget": budget,
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
        "r_nats": sol.r_nats,
        "r_bits": sol.r_bits,
        "zero_region_member": zero_region_contains(problem),
        "converged": sol.converged,
        "point": {
            "k_frac": sol.point.k_frac,
            "bloch_n": sol.point.bloch_n.tolist(),
            "p": sol.point.p.tolist(),
            "q": sol.point.q.tolist(),
        },
    }


def parse_basis(spec: str) -> np.ndarray:
    """Basis from "theta[,phi]" Bloch angles or four amplitude components
    "re0,im0,re1,im1" of the outcome-1 ket."""
    import numpy as np

    from .exponent import basis_from_bloch, basis_from_ket

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
        return basis_from_ket(one / norm)
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
    import numpy as np

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


def _render(fields: tuple[str, ...], rows: list[tuple], fmt_name: str,
            *, many: bool = False) -> str:
    """CSV with a header line, or JSON (_dump): a list of objects when
    ``many``, else the one row's object."""
    if fmt_name == "json":
        objs = [dict(zip(fields, row)) for row in rows]
        return _dump(objs if many else objs[0]) + "\n"
    lines = [",".join(fields)] + [",".join(map(fmt, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _number(v: float) -> str:
    """A float as JSON: repr(jf(v)), or null when jf gives None, from one
    float-to-text conversion.

    s = fmt(v) holds the digits that repr(float(s)) prints. In the normal
    range a decimal of at most 15 significant digits maps to a double that
    reads back to it (DBL_DIG = 15), so two such decimals never share a
    double: no other string of as many digits as s or fewer reaches
    float(s), and repr, the shortest string that round-trips, spells exactly
    s's digits. Only the layout differs, and is mended here: repr appends .0
    to an integral value, and it prints positionally up to 1e16 where .12g
    switches to an exponent at 1e12 (below 1e-4 both use one). Subnormals,
    where fewer than 15 digits round-trip, go through jf and repr."""
    x = float(v) + 0.0
    s = f"{x:.12g}"
    if "e" not in s:
        if "." in s:
            return s
        return "null" if s[-1] in "fn" else s + ".0"  # nan, inf, -inf
    if abs(x) < sys.float_info.min:
        return repr(jf(x))
    head, _, power = s.partition("e")
    if power in ("+12", "+13", "+14", "+15"):
        return head.replace(".", "").ljust(int(power) + 1 + (x < 0), "0") + ".0"
    return s


def _dump(value, pad: str = "") -> str:
    """json.dumps(value, indent=2), byte for byte, of the nested dicts,
    lists, Python ints, bools and None that the commands print (keys are
    plain names), with each float (np.float64 too) replaced by jf of it.
    The one JSON writer, and the one place that jf's rule is applied,
    without json's pure-Python indent encoder: _number writes each float
    from one conversion to text."""
    inner = pad + "  "
    # a float, the common leaf, skips the recursion
    if isinstance(value, dict):
        items = [f'"{key}": {_number(v) if isinstance(v, float) else _dump(v, inner)}'
                 for key, v in value.items()]
        ends = "{}"
    elif isinstance(value, list):
        items = [_number(v) if isinstance(v, float) else _dump(v, inner) for v in value]
        ends = "[]"
    elif value is None:
        return "null"
    elif isinstance(value, bool):
        return "true" if value else "false"
    else:
        return _number(value) if isinstance(value, float) else repr(value)
    if not items:
        return ends
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{ends[1]}"


def _float(text: str) -> float:
    """A float flag's value, with -0.0 read as 0.0 so that an output echoes
    a -0 flag as 0."""
    return float(text) + 0.0


class _Command(NamedTuple):
    """A command's grammar: its help line, each flag's dest and the type that
    reads its value or the tuple of its choices, and each dest's default."""

    help: str
    flags: dict[str, tuple[str, object]]
    defaults: dict[str, object]


def _command(help_line: str, kinds: dict[str, object], defaults=(), *,
             formats: bool = True) -> _Command:
    """A command's table from its dests' types, with --format (when the
    command prints CSV or JSON), --out and --config added; a dest missing
    from ``defaults`` defaults to None."""
    kinds = {**kinds, **({"format": ("csv", "json")} if formats else {}),
             "out": str, "config": str}
    defaults = dict(defaults, format="csv") if formats else dict(defaults)
    return _Command(help_line,
                    {"--" + dest.replace("_", "-"): (dest, kind) for dest, kind in kinds.items()},
                    {dest: defaults.get(dest) for dest in kinds})


_ALPHA = {"alpha_sq": _float, "overlap": _float}
# the only grammar of the command line: main reads every argv from it, and
# help prints from it
COMMANDS = {
    "rate": _command("analytic report for one channel point", {"p": _float, **_ALPHA}),
    "optimize": _command("best nonorthogonality for a channel", {"p": _float}),
    "sweep": _command("grid of analytic reports", {
        "p": _float, "p_min": _float, "p_max": _float, "p_steps": int, **_ALPHA,
        "alpha_min": _float, "alpha_max": _float, "alpha_steps": int}),
    "simulate": _command("one protocol run plus finite-size report", {
        "p": _float, **_ALPHA, "n": int, "seed": int,
        **{f"eps{i}": _float for i in range(1, 9)}},
        {"seed": 0, **{f"eps{i}": 0.0 for i in range(1, 9)}}, formats=False),
    "exponent": _command("two-basis sampling exponent", {
        "basis0": str, "basis1": str, "m0": int, "m1": int, "delta0": _float,
        "delta1": _float, "seed": int}, {"seed": 0}, formats=False),
}


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise CliUsageError(f"--{name.replace('_', '-')} is required "
                                "(flag or config file)")


def _run(args) -> int:
    if args.command == "rate":
        _require(args, "p")
        text = _render(RateReport._fields, [cmd_rate(args.p, _resolve_alpha_sq(args))],
                       args.format)
    elif args.command == "optimize":
        _require(args, "p")
        text = _render(OPTIMUM_FIELDS, [cmd_optimize(args.p)], args.format)
    elif args.command == "sweep":
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
        text = _render(RateReport._fields, cmd_sweep(p_values, alpha_values), args.format,
                       many=True)
    elif args.command == "simulate":
        _require(args, "p", "n")
        slacks = SlackVector(*(getattr(args, f"eps{i}") for i in range(1, 9)))
        text = _dump(cmd_simulate(args.p, _resolve_alpha_sq(args), args.n, args.seed, slacks)) + "\n"
    else:  # COMMANDS holds no other command
        _require(args, "basis0", "basis1", "m0", "m1", "delta0", "delta1")
        text = _dump(cmd_exponent(args.basis0, args.basis1, args.m0, args.m1,
                                  args.delta0, args.delta1, args.seed)) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    return 0


def _help(command: str | None) -> None:
    """Print the program's help, or a command's, to stdout and exit 0."""
    if command is None:
        lines = [__doc__.strip(), "", "commands:"]
        lines += [f"  {name:<8}  {table.help}" for name, table in COMMANDS.items()]
    else:
        lines = [COMMANDS[command].help, "", "flags:"]
        lines += [f"  {flag} " + ("{" + ",".join(kind) + "}" if isinstance(kind, tuple)
                                  else dest.upper())
                  for flag, (dest, kind) in COMMANDS[command].flags.items()]
    sys.stdout.write(
        f"usage: b92sim {command or 'COMMAND'} [--flag VALUE | --flag=VALUE] ...\n\n"
        + "\n".join(lines) + "\n\nA value after a space may start with '-' only if it reads"
        " as a number.\n--config reads a JSON object of flags named without their dashes;"
        " flags given on the command line win.\nb92sim COMMAND -h lists a command's flags.\n")
    raise SystemExit(0)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _read(command: str, tokens) -> dict:
    """The command's options: its defaults, then its flags in ``tokens`` left
    to right, the last of a flag winning.  A flag is spelled in full and takes
    one value: ``--flag=value``, or ``--flag value`` where a value may start
    with a dash only if it reads as a number (-0.5, -1e5, -inf).  -h or --help
    prints the command's help; any other token is a usage error."""
    flags, values = COMMANDS[command].flags, dict(COMMANDS[command].defaults)
    tokens = iter(tokens)
    for token in tokens:
        flag, eq, text = token.partition("=")
        option = flags.get(flag)
        if option is None:
            if token in ("-h", "--help"):
                _help(command)
            raise CliUsageError(f"unrecognized argument {token!r} for {command}")
        if not eq:
            text = next(tokens, None)
            if text is None or text.startswith("-") and not _is_number(text):
                raise CliUsageError(f"argument {flag}: expected one argument")
        dest, kind = option
        try:
            values[dest] = kind[kind.index(text)] if isinstance(kind, tuple) else kind(text)
        except ValueError:
            hint = f" (choose from {', '.join(kind)})" if isinstance(kind, tuple) else ""
            raise CliUsageError(f"argument {flag}: invalid value {text!r}{hint}") from None
    return values


def _config_flags(command: str, path: str) -> list[str]:
    """The options of a JSON config file as ``--key=value`` tokens: keys are
    flags without their dashes (either - or _ separators), and values strings
    or numbers, which _read then checks exactly as it does flags."""
    with open(path) as fh:
        try:
            loaded = json.load(fh)
        except ValueError as exc:  # also a file that is not UTF-8
            raise CliUsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise CliUsageError("config file must hold a JSON object")
    tokens = []
    for key, value in loaded.items():
        flag = "--" + key.replace("_", "-")
        if flag not in COMMANDS[command].flags or flag == "--config":
            raise CliUsageError(f"config key {key!r} is not an option of this command")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise CliUsageError(f"config key {key!r} must hold a string or a number")
        tokens.append(f"{flag}={value}")
    return tokens


def _parse(argv: list[str]) -> SimpleNamespace:
    """The command that argv names and its options: the command's defaults,
    then a --config file's options, then the flags, which win."""
    if argv and argv[0] in ("-h", "--help"):
        _help(None)
    if not argv or argv[0] not in COMMANDS:
        raise CliUsageError(f"the first argument must be a command: {', '.join(COMMANDS)}")
    command, tokens = argv[0], argv[1:]
    values = _read(command, tokens)
    if values["config"] is not None:
        values = _read(command, _config_flags(command, values["config"]) + tokens)
    return SimpleNamespace(command=command, **values)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        return _run(_parse(argv))
    except (CliUsageError, DomainError, ParameterError, ConsistencyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, CliUsageError) else 3 if isinstance(exc, OSError) else 2


if __name__ == "__main__":
    sys.exit(main())
