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

import numpy as np

from .errors import DomainError, ParameterError
from .exponent import SolverOptions, TwoBasisSampling, min_exponent, zero_region_contains
from .protocol import ProtocolParams, expected_rates, run_protocol1
from .quantum import depolarizing_channel
from .security import (
    ObservedRates,
    SlackVector,
    binary_entropy,
    failure_budget,
    finite_size_bound,
    key_rate,
    phase_error_bound,
)

CSV_HEADER = "alpha_sq,overlap,p,r_fil,r_err,r_ph_bar,r_ph_actual,r_bit_actual,G"

ALPHA_SQ_MIN = 0.01
ALPHA_SQ_MAX = 0.49


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102  (argparse hook)
        raise CliUsageError(message)


def _apply_config(args: argparse.Namespace, argv: list[str]) -> None:
    """Fill options from a JSON config file; explicit flags win.

    Config keys use flag spelling without the leading dashes (either - or _
    separators).  A key is ignored when the matching flag appears in argv.
    """
    if getattr(args, "config", None) is None:
        return
    try:
        with open(args.config) as fh:
            loaded = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CliUsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise CliUsageError("config file must hold a JSON object")
    for key, value in loaded.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr) or attr in ("command", "config"):
            raise CliUsageError(f"config key {key!r} is not an option of this command")
        flag = "--" + attr.replace("_", "-")
        if flag in argv:
            continue
        setattr(args, attr, value)


@dataclass(frozen=True)
class RateReport:
    """One analytic row: channel point, observed-rate analogue, bound, rate."""

    alpha_sq: float
    overlap: float
    p: float
    r_fil: float
    r_err: float
    r_ph_bar: float
    r_ph_actual: float
    r_bit_actual: float
    G: float

    def row(self) -> str:
        return ",".join(
            fmt(v)
            for v in (
                self.alpha_sq,
                self.overlap,
                self.p,
                self.r_fil,
                self.r_err,
                self.r_ph_bar,
                self.r_ph_actual,
                self.r_bit_actual,
                self.G,
            )
        )

    def as_dict(self) -> dict:
        return {
            "alpha_sq": jf(self.alpha_sq),
            "overlap": jf(self.overlap),
            "p": jf(self.p),
            "r_fil": jf(self.r_fil),
            "r_err": jf(self.r_err),
            "r_ph_bar": jf(self.r_ph_bar),
            "r_ph_actual": jf(self.r_ph_actual),
            "r_bit_actual": jf(self.r_bit_actual),
            "G": jf(self.G),
        }


@dataclass(frozen=True)
class SweepConfig:
    """Grid specification for sweep/simulate runs."""

    p_values: tuple[float, ...]
    alpha_sq_values: tuple[float, ...] | None  # None means optimize per p
    n_pairs: int = 0
    seed: int = 0
    fmt: str = "csv"
    out: str | None = None

    def __post_init__(self) -> None:
        if not self.p_values:
            raise ParameterError("empty channel grid")
        if self.alpha_sq_values is not None and not self.alpha_sq_values:
            raise ParameterError("empty alpha grid")


def fmt(v) -> str:
    return f"{float(v):.12g}"


def jf(v) -> float:
    return float(fmt(v))


def overlap_to_alpha_sq(overlap: float) -> float:
    if not 0.0 <= overlap <= 1.0:
        raise ParameterError("overlap must lie in [0, 1]")
    return (1.0 - math.sqrt(overlap)) / 2.0


def cmd_rate(p: float, alpha_sq: float) -> RateReport:
    """Analytic report for one (channel strength, nonorthogonality) point."""
    alpha = math.sqrt(alpha_sq)
    rates = expected_rates(alpha, depolarizing_channel(p))
    obs = ObservedRates(r_err=rates.r_err, r_fil=rates.r_fil, alpha=alpha)
    bound = phase_error_bound(obs)
    return RateReport(
        alpha_sq=alpha_sq,
        overlap=(1.0 - 2.0 * alpha_sq) ** 2,
        p=p,
        r_fil=rates.r_fil,
        r_err=rates.r_err,
        r_ph_bar=bound.r_ph_bar if bound.feasible else math.nan,
        r_ph_actual=rates.r_ph,
        r_bit_actual=rates.r_bit,
        G=key_rate(obs, bound),
    )


def cmd_optimize(p: float) -> tuple[float, float, float]:
    """Best nonorthogonality for a channel: 200-point grid plus golden-section
    refinement of the key rate over alpha_sq in [0.01, 0.49]."""
    if not 0.0 <= p < 0.75:
        raise ParameterError("depolarizing strength must lie in [0, 3/4)")
    # cmd_rate's G, with the channel built once rather than per evaluation
    channel = depolarizing_channel(p)

    def g_of(alpha_sq: float) -> float:
        alpha = math.sqrt(alpha_sq)
        rates = expected_rates(alpha, channel)
        return key_rate(ObservedRates(r_err=rates.r_err, r_fil=rates.r_fil, alpha=alpha))

    grid = np.linspace(ALPHA_SQ_MIN, ALPHA_SQ_MAX, 200)
    values = np.array([g_of(a) for a in grid])
    i = int(np.argmax(values))
    if values[i] <= 0.0:
        best = float(grid[i])
        return best, (1.0 - 2.0 * best) ** 2, 0.0

    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, grid.size - 1)])
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    gc, gd = g_of(c), g_of(d)
    for _ in range(60):
        if b - a < 1e-10:
            break
        if gc > gd:
            b, d, gd = d, c, gc
            c = b - inv_phi * (b - a)
            gc = g_of(c)
        else:
            a, c, gc = c, d, gd
            d = a + inv_phi * (b - a)
            gd = g_of(d)
    best = 0.5 * (a + b)
    return best, (1.0 - 2.0 * best) ** 2, g_of(best)


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
    alpha = math.sqrt(alpha_sq)
    params = ProtocolParams(alpha=alpha, n_pairs=n_pairs,
                            channel=depolarizing_channel(p), seed=seed)
    t = run_protocol1(params)
    bound = finite_size_bound(t.n_err, t.n_fil, n_pairs, alpha, slacks)
    if bound.feasible and t.n_fil > 0:
        n_ph_bar = bound.r_ph_bar * n_pairs
        n_bit_bar = min(t.n_err + slacks.eps1 * n_pairs, float(t.n_fil))
        if n_ph_bar / t.n_fil <= 0.5:
            key_length = t.n_fil * (
                1.0
                - binary_entropy(n_bit_bar / t.n_fil)
                - binary_entropy(min(n_ph_bar / t.n_fil, 1.0))
            )
            key_length = max(key_length, 0.0)
        else:
            key_length = 0.0
    else:
        key_length = 0.0
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
            "r_ph_bar": jf(bound.r_ph_bar) if bound.feasible else None,
            "x_star": jf(bound.x_star) if bound.feasible else None,
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


def _render_rows(rows: list[RateReport], fmt_name: str) -> str:
    if fmt_name == "csv":
        return "\n".join([CSV_HEADER] + [r.row() for r in rows]) + "\n"
    return json.dumps([r.as_dict() for r in rows], indent=2) + "\n"


def make_parser() -> _Parser:
    parser = _Parser(prog="b92sim", description=__doc__, allow_abbrev=False,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None, metavar="PATH")
        sp.add_argument("--config", default=None, metavar="PATH",
                        help="JSON file of option defaults; flags win")

    sp = sub.add_parser("rate", help="analytic report for one channel point")
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--alpha-sq", type=float, default=None)
    sp.add_argument("--overlap", type=float, default=None)
    add_common(sp)

    sp = sub.add_parser("optimize", help="best nonorthogonality for a channel")
    sp.add_argument("--p", type=float, default=None)
    add_common(sp)

    sp = sub.add_parser("sweep", help="grid of analytic reports")
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--p-min", type=float, default=None)
    sp.add_argument("--p-max", type=float, default=None)
    sp.add_argument("--p-steps", type=int, default=None)
    sp.add_argument("--alpha-sq", type=float, default=None)
    sp.add_argument("--overlap", type=float, default=None)
    sp.add_argument("--alpha-min", type=float, default=None)
    sp.add_argument("--alpha-max", type=float, default=None)
    sp.add_argument("--alpha-steps", type=int, default=None)
    add_common(sp)

    sp = sub.add_parser("simulate", help="one protocol run plus finite-size report")
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--alpha-sq", type=float, default=None)
    sp.add_argument("--overlap", type=float, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    for i in range(1, 9):
        sp.add_argument(f"--eps{i}", type=float, default=0.0)
    sp.add_argument("--out", default=None, metavar="PATH")
    sp.add_argument("--config", default=None, metavar="PATH",
                    help="JSON file of option defaults; flags win")

    sp = sub.add_parser("exponent", help="two-basis sampling exponent")
    sp.add_argument("--basis0", default=None, metavar="SPEC")
    sp.add_argument("--basis1", default=None, metavar="SPEC")
    sp.add_argument("--m0", type=int, default=None)
    sp.add_argument("--m1", type=int, default=None)
    sp.add_argument("--delta0", type=float, default=None)
    sp.add_argument("--delta1", type=float, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None, metavar="PATH")
    sp.add_argument("--config", default=None, metavar="PATH",
                    help="JSON file of option defaults; flags win")

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
        if args.format == "csv":
            _emit(CSV_HEADER + "\n" + report.row() + "\n", args.out)
        else:
            _emit(json.dumps(report.as_dict(), indent=2) + "\n", args.out)
        return 0

    if args.command == "optimize":
        _require(args, "p")
        alpha_sq, overlap, g = cmd_optimize(args.p)
        if args.format == "csv":
            _emit(
                "alpha_sq_star,overlap_star,G_star\n"
                f"{fmt(alpha_sq)},{fmt(overlap)},{fmt(g)}\n",
                args.out,
            )
        else:
            _emit(
                json.dumps(
                    {
                        "alpha_sq_star": jf(alpha_sq),
                        "overlap_star": jf(overlap),
                        "G_star": jf(g),
                    },
                    indent=2,
                )
                + "\n",
                args.out,
            )
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
        cfg = SweepConfig(p_values=p_values, alpha_sq_values=alpha_values,
                          fmt=args.format, out=args.out)
        rows = cmd_sweep(cfg)
        _emit(_render_rows(rows, cfg.fmt), cfg.out)
        return 0

    if args.command == "simulate":
        _require(args, "p", "n")
        slacks = SlackVector(*(getattr(args, f"eps{i}") for i in range(1, 9)))
        result = cmd_simulate(args.p, _resolve_alpha_sq(args), args.n, args.seed, slacks)
        _emit(json.dumps(result, indent=2) + "\n", args.out)
        return 0

    if args.command == "exponent":
        _require(args, "basis0", "basis1", "m0", "m1", "delta0", "delta1")
        result = cmd_exponent(
            args.basis0, args.basis1, args.m0, args.m1,
            args.delta0, args.delta1, args.seed,
        )
        _emit(json.dumps(result, indent=2) + "\n", args.out)
        return 0

    raise CliUsageError(f"unknown command {args.command!r}")


@functools.cache
def _parser() -> _Parser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    return make_parser()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
        _apply_config(args, argv)
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
