"""Command-line front end: rate queries, channel sweeps, nonorthogonality
optimization, protocol simulation, and sampling-exponent queries.

Analytic commands are deterministic byte-for-byte for a given invocation:
floating-point output uses 12 significant digits and CSV rows use LF line
endings with the fixed column order

    alpha_sq,overlap,p,r_fil,r_err,r_ph_bar,r_ph_actual,r_bit_actual,G

Exit codes: 0 success, 1 usage/parse error, 2 mathematical
infeasibility/singularity, 3 I/O error.
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

from ._brent import brent_min
from .errors import DomainError, ParameterError
from .exponent import SolverOptions, TwoBasisSampling, min_exponent, zero_region_contains
from .protocol import ProtocolParams, depolarizing_rates, run_protocol1
# expected_rates is not called here, but the benchmark's tracer
# (perfbench/tracing.py) wraps it as cli.expected_rates, so it must stay
# resolvable in this module.
from .protocol import expected_rates  # noqa: F401
from .quantum import check_alpha, depolarizing_channel
from .security import (
    ObservedRates,
    SlackVector,
    binary_entropy,
    failure_budget,
    finite_key_length,
    finite_size_bound,
    key_rate,
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
    return f"{float(v):.12g}"


def jf(v) -> float | None:
    """A JSON value at 12 significant digits: null for nan and +-inf, which
    RFC 8259 cannot spell."""
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
    """Analytic report for one (channel strength, nonorthogonality) point,
    from the closed-form depolarizing rates."""
    alpha = _alpha(alpha_sq)
    rates = depolarizing_rates(alpha, p)
    obs = ObservedRates(r_err=rates.r_err, r_fil=rates.r_fil, alpha=alpha)
    bound = phase_error_bound(obs)
    return RateReport(
        alpha_sq=alpha_sq,
        overlap=(1.0 - 2.0 * alpha_sq) ** 2,
        p=p,
        r_fil=rates.r_fil,
        r_err=rates.r_err,
        r_ph_bar=bound.r_ph_bar,
        r_ph_actual=rates.r_ph,
        r_bit_actual=rates.r_bit,
        G=key_rate(obs, bound),
    )


def cmd_optimize(p: float) -> tuple[float, float, float]:
    """Best nonorthogonality for a channel over alpha_sq in [0.01, 0.49].

    One bounded Brent search maximizes the unfloored key rate
    S = r_fil (1 - h(e_bit) - h(min(e_ph, 1/2))), or -r_fil (its least value)
    where the bound is infeasible: unlike G = max(S, 0), S keeps a slope
    outside the secure window, and G = S wherever S > 0.  The best of the
    Brent point and both ends is reported with G from key_rate; no S > 0
    gives (0.01, 0.9604, 0.0).  Every evaluation takes cmd_rate's
    closed-form rates, so G_star is cmd_rate's G at the reported alpha_sq.
    """
    if not 0.0 <= p < 0.75:
        raise ParameterError("depolarizing strength must lie in [0, 3/4)")

    def observed(alpha_sq: float) -> ObservedRates:
        alpha = math.sqrt(alpha_sq)
        rates = depolarizing_rates(alpha, p)
        return ObservedRates(r_err=rates.r_err, r_fil=rates.r_fil, alpha=alpha)

    def unfloored(alpha_sq: float) -> float:
        obs = observed(alpha_sq)
        bound = phase_error_bound(obs)
        if not bound.feasible:
            return -obs.r_fil
        e_ph = min(bound.r_ph_bar / obs.r_fil, 0.5)
        return obs.r_fil * (1.0 - binary_entropy(obs.r_err / obs.r_fil) - binary_entropy(e_ph))

    # xatol ~ 0 leaves Brent's sqrt(eps) |x| to stop it: ~1e-8 in alpha^2
    x, fun = brent_min(lambda a: -unfloored(a), ALPHA_SQ_MIN, ALPHA_SQ_MAX, xatol=1e-12)
    s_best, best = max((-fun, x),
                       *((unfloored(a), a) for a in (ALPHA_SQ_MIN, ALPHA_SQ_MAX)))
    if s_best <= 0.0:
        return ALPHA_SQ_MIN, (1.0 - 2.0 * ALPHA_SQ_MIN) ** 2, 0.0
    return best, (1.0 - 2.0 * best) ** 2, key_rate(observed(best))


def cmd_sweep(cfg: SweepConfig) -> list[RateReport]:
    """One analytic report per grid point, optimization mode when no alpha
    grid is given."""
    rows: list[RateReport] = []
    for p in cfg.p_values:
        if cfg.alpha_sq_values is None:
            alpha_sq, _, _ = cmd_optimize(p)
            rows.append(cmd_rate(p, alpha_sq))
        else:
            for alpha_sq in cfg.alpha_sq_values:
                rows.append(cmd_rate(p, alpha_sq))
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
            "q": sol.point.q.round(12).tolist(),
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
    return tuple(float(v) for v in np.linspace(lo, hi, steps))


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
    objs = [{name: jf(v) for name, v in zip(fields, row)} for row in rows]
    return json.dumps(objs if many else objs[0], indent=2) + "\n"


def make_parser() -> _Parser:
    parser = _Parser(prog="b92sim", description=__doc__, allow_abbrev=False,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, formats=True):
        if formats:
            sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", metavar="PATH")
        sp.add_argument("--config", metavar="PATH",
                        help="JSON file of option defaults; flags win")

    def add_floats(sp, *flags):
        for flag in flags:
            sp.add_argument(flag, type=float)

    sp = sub.add_parser("rate", help="analytic report for one channel point")
    add_floats(sp, "--p", "--alpha-sq", "--overlap")
    add_common(sp)

    sp = sub.add_parser("optimize", help="best nonorthogonality for a channel")
    add_floats(sp, "--p")
    add_common(sp)

    sp = sub.add_parser("sweep", help="grid of analytic reports")
    add_floats(sp, "--p", "--p-min", "--p-max")
    sp.add_argument("--p-steps", type=int)
    add_floats(sp, "--alpha-sq", "--overlap", "--alpha-min", "--alpha-max")
    sp.add_argument("--alpha-steps", type=int)
    add_common(sp)

    sp = sub.add_parser("simulate", help="one protocol run plus finite-size report")
    add_floats(sp, "--p", "--alpha-sq", "--overlap")
    sp.add_argument("--n", type=int)
    sp.add_argument("--seed", type=int, default=0)
    for i in range(1, 9):
        sp.add_argument(f"--eps{i}", type=float, default=0.0)
    add_common(sp, formats=False)

    sp = sub.add_parser("exponent", help="two-basis sampling exponent")
    sp.add_argument("--basis0", metavar="SPEC")
    sp.add_argument("--basis1", metavar="SPEC")
    sp.add_argument("--m0", type=int)
    sp.add_argument("--m1", type=int)
    add_floats(sp, "--delta0", "--delta1")
    sp.add_argument("--seed", type=int, default=0)
    add_common(sp, formats=False)

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


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
        if args.config is not None:
            # config options go ahead of the command's own flags, which win
            at = argv.index(args.command) + 1
            args = _parser().parse_args(argv[:at] + _config_flags(args) + argv[at:])
        return _run(args)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
