"""Spans around the calls into each layer, recorded from outside the package.

``Tracer.install`` replaces layer functions at the module attributes their
callers resolve (``b92sim.cli.run_protocol1``, ``b92sim.protocol.filter_op``,
...) with wrappers that append a span (op, name, start, end, parent, attrs)
to an in-memory list; ``uninstall`` restores the originals.  Per-layer
metrics are derived from the spans afterwards, self time being a span's
duration minus that of its direct children (calls are sequential, so the
children never overlap).
"""

from __future__ import annotations

import time

import numpy as np

QUANTUM_CTORS = ("b92_povm", "filter_op", "nonmax_entangled_state",
                 "check_pair_basis", "error_povm_element")


def _run_protocol1_attrs(args, kwargs, out):
    return {"pairs": args[0].n_pairs}


def _bound_attrs(args, kwargs, out):
    return {"infeasible": int(not out.feasible)}


def _finite_size_attrs(args, kwargs, out):
    slacks = args[4] if len(args) > 4 else kwargs.get("slacks")
    zero = slacks is None or not any(slacks.as_tuple())
    return {"infeasible": int(not out.feasible), "zero_slack": int(zero)}


def count_residual(problem, sol) -> float:
    """Max deviation of the solution point's implied count fractions from
    the observed ones (0 for a point that reproduces the counts)."""
    gap = sol.point.implied_count_fractions() - problem.count_fractions()
    return float(np.max(np.abs(gap)))


def _min_exponent_attrs(args, kwargs, out):
    return {"certified": int(count_residual(args[0], out) <= 1e-8),
            "converged": int(out.converged)}


def targets():
    """(module, attribute, span name, attrs hook) for every traced call."""
    import b92sim.cli as cli
    import b92sim.protocol as protocol
    import b92sim.quantum as quantum
    import b92sim.security as security

    out = [(cli, "main", "cli.main", None)]
    out += [(protocol, name, f"quantum.{name}", None) for name in QUANTUM_CTORS]
    out += [
        (cli, "depolarizing_channel", "quantum.depolarizing_channel", None),
        (quantum, "depolarizing_channel", "quantum.depolarizing_channel", None),
        (cli, "expected_rates", "protocol.expected_rates", None),
        (cli, "run_protocol1", "protocol.run_protocol1", _run_protocol1_attrs),
        (protocol, "run_b92", "protocol.run_b92", None),
        (cli, "phase_error_bound", "security.phase_error_bound", _bound_attrs),
        (security, "phase_error_bound", "security.phase_error_bound", _bound_attrs),
        (cli, "finite_size_bound", "security.finite_size_bound", _finite_size_attrs),
        (cli, "min_exponent", "exponent.min_exponent", _min_exponent_attrs),
        (cli, "zero_region_contains", "exponent.zero_region_contains", None),
    ]
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, attrs_hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (self.op, name, start, end, parent, {"raised": 1})
                raise
            end = time.perf_counter()
            stack.pop()
            attrs = attrs_hook(args, kwargs, out) if attrs_hook else None
            spans[idx] = (self.op, name, start, end, parent, attrs)
            return out

        return traced

    def install(self) -> None:
        for module, attr, name, hook in targets():
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, hook))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, _, start, end, _, _ in spans]
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _stat(spans, selected) -> tuple[int, float]:
    idx = [i for i, s in enumerate(spans) if selected(s)]
    return len(idx), 1e3 * sum(spans[i][3] - spans[i][2] for i in idx)


def _attr_sum(spans, name, key) -> int:
    return sum((s[5] or {}).get(key, 0) for s in spans if s[1] == name)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and times (ms) derived from the spans."""
    selfs = self_times(spans)
    m: dict[str, float] = {}

    main = [i for i, s in enumerate(spans) if s[1] == "cli.main"]
    m["cli.main.calls"] = len(main)
    m["cli.main.self_ms"] = 1e3 * sum(selfs[i] for i in main)

    quantum = [i for i, s in enumerate(spans) if s[1].startswith("quantum.")]
    m["quantum.calls"] = len(quantum)
    m["quantum.self_ms"] = 1e3 * sum(selfs[i] for i in quantum)

    for name in ("protocol.expected_rates", "protocol.run_protocol1", "protocol.run_b92",
                 "security.phase_error_bound", "exponent.min_exponent",
                 "exponent.zero_region_contains"):
        calls, total = _stat(spans, lambda s, name=name: s[1] == name)
        m[f"{name}.calls"] = calls
        m[f"{name}.total_ms"] = total
    m["protocol.run_protocol1.pairs"] = _attr_sum(spans, "protocol.run_protocol1", "pairs")
    m["security.phase_error_bound.infeasible"] = _attr_sum(
        spans, "security.phase_error_bound", "infeasible")

    fsb = "security.finite_size_bound"
    for label, zero in (("zero_slack", 1), ("slack", 0)):
        calls, total = _stat(
            spans, lambda s, zero=zero: s[1] == fsb and (s[5] or {}).get("zero_slack") == zero)
        m[f"{fsb}.{label}.calls"] = calls
        m[f"{fsb}.{label}.total_ms"] = total
    m[f"{fsb}.infeasible"] = _attr_sum(spans, fsb, "infeasible")

    me = "exponent.min_exponent"
    returned = sum(1 for s in spans if s[1] == me and "raised" not in (s[5] or {}))
    m[f"{me}.raised"] = _attr_sum(spans, me, "raised")
    m[f"{me}.certified_frac"] = _attr_sum(spans, me, "certified") / returned if returned else 0.0
    m[f"{me}.converged_frac"] = _attr_sum(spans, me, "converged") / returned if returned else 0.0
    return m


def baseline_rows(spans) -> dict[str, dict]:
    """Mean per-call time of the rows of the ROADMAP baseline table."""

    def row(selected):
        calls, total = _stat(spans, selected)
        return {"calls": calls, "mean_ms": total / calls if calls else None}

    fsb = "security.finite_size_bound"
    rows = {
        "expected_rates": row(lambda s: s[1] == "protocol.expected_rates"),
        "phase_error_bound": row(lambda s: s[1] == "security.phase_error_bound"),
        "finite_size_bound zero slack": row(
            lambda s: s[1] == fsb and (s[5] or {}).get("zero_slack") == 1),
        "finite_size_bound nonzero slacks": row(
            lambda s: s[1] == fsb and (s[5] or {}).get("zero_slack") == 0),
        "min_exponent (returned)": row(
            lambda s: s[1] == "exponent.min_exponent" and "raised" not in (s[5] or {})),
    }
    for n in (10_000, 1_000_000, 10_000_000):
        rows[f"run_protocol1 n={n:.0e}"] = row(
            lambda s, n=n: s[1] == "protocol.run_protocol1" and (s[5] or {}).get("pairs") == n)
    return rows
