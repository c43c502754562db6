"""Entropy kernels, the phase-error upper bound, key rates, and the
finite-size relaxation of the estimation constraints.

Entropies for key-rate formulas are in bits; the failure-probability budget
uses natural exponentials, following each formula's own convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, SingularityError
from .quantum import check_alpha

GRAZE_TOL = 1e-12


@dataclass(frozen=True)
class ObservedRates:
    """Publicly observable per-pair rates of a run."""

    r_err: float
    r_fil: float
    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.r_err <= 0.5:
            raise ParameterError("r_err must lie in [0, 1/2]")
        if not 0.0 <= self.r_fil <= 1.0:
            raise ParameterError("r_fil must lie in [0, 1]")
        check_alpha(self.alpha)


@dataclass(frozen=True)
class BoundResult:
    """Solution of the phase-error estimation problem.

    ``r_ph_bar`` is the per-pair phase-error ceiling, ``x_star`` the
    maximizing anticorrelated fraction, ``delta`` the filter-rate excess.
    When ``feasible`` is False the observed data admit no consistent
    explanation and the protocol aborts; the other fields are then NaN.
    """

    r_ph_bar: float
    x_star: float
    delta: float
    feasible: bool


@dataclass(frozen=True)
class SlackVector:
    """Finite, nonnegative finite-size slacks for the eight estimation
    constraints."""

    eps1: float = 0.0
    eps2: float = 0.0
    eps3: float = 0.0
    eps4: float = 0.0
    eps5: float = 0.0
    eps6: float = 0.0
    eps7: float = 0.0
    eps8: float = 0.0

    def __post_init__(self) -> None:
        for name in ("eps1", "eps2", "eps3", "eps4", "eps5", "eps6", "eps7", "eps8"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ParameterError(f"{name}={value!r} must be finite and nonnegative")

    def as_tuple(self) -> tuple[float, ...]:
        return (self.eps1, self.eps2, self.eps3, self.eps4,
                self.eps5, self.eps6, self.eps7, self.eps8)


def binary_entropy(p: float) -> float:
    """Entropy of a coin with bias p, in bits, with 0 log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"binary_entropy argument {p!r} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def relative_entropy(p, q, *, allow_infinite: bool = False) -> float:
    """Kullback-Leibler divergence sum_i p_i log2(p_i / q_i) in bits.

    With ``allow_infinite`` a support violation (p_i > 0 where q_i = 0)
    returns +inf instead of raising.
    """
    pa = np.asarray(p, dtype=float)
    qa = np.asarray(q, dtype=float)
    if pa.shape != qa.shape:
        raise DomainError("distributions must have equal length")
    if np.any(pa < 0.0) or np.any(qa < 0.0):
        raise DomainError("distributions must be nonnegative")
    bad = (pa > 0.0) & (qa == 0.0)
    if np.any(bad):
        if allow_infinite:
            return math.inf
        raise DomainError("support violation: p_i > 0 where q_i = 0")
    mask = pa > 0.0
    return float(np.sum(pa[mask] * np.log2(pa[mask] / qa[mask])))


def delta_param(r_fil: float, alpha: float, *, delta_min: float = 1e-3) -> float:
    """Excess of the filter rate over its noiseless value, normalized by the
    basis gap beta^2 - alpha^2 = 1 - 2 alpha^2."""
    gap = 1.0 - 2.0 * alpha * alpha
    if gap < delta_min:
        raise SingularityError(
            f"beta^2 - alpha^2 = {gap!r} below {delta_min!r}; bound is singular"
        )
    a2 = alpha * alpha
    return (r_fil - 2.0 * a2 * (1.0 - a2)) / gap


def _domain(delta: float, alpha: float) -> tuple[float, float, float]:
    gap = 1.0 - 2.0 * alpha * alpha
    c = gap - delta
    return abs(delta), 1.0 - abs(c), c


def tradeoff_curve(x, delta: float, alpha: float):
    """Curve f(x) = sqrt(x^2 - delta^2) + sqrt((1-x)^2 - (gap - delta)^2).

    Defined for |delta| <= x <= 1 - |gap - delta| where the underlying count
    matrices stay nonnegative.  Accepts scalars or arrays.
    """
    x_lo, x_hi, c = _domain(delta, alpha)
    xs = np.asarray(x, dtype=float)
    if np.any(xs < x_lo - 1e-12) or np.any(xs > x_hi + 1e-12):
        raise DomainError(f"x outside the positivity domain [{x_lo!r}, {x_hi!r}]")
    val = np.sqrt(np.clip(xs * xs - delta * delta, 0.0, None)) + np.sqrt(
        np.clip((1.0 - xs) ** 2 - c * c, 0.0, None)
    )
    return float(val) if np.isscalar(x) else val


def _infeasible(delta: float) -> BoundResult:
    return BoundResult(r_ph_bar=math.nan, x_star=math.nan, delta=delta, feasible=False)


def phase_error_bound(obs: ObservedRates) -> BoundResult:
    """Largest phase-error rate consistent with the observed (r_err, r_fil).

    The ceiling sits at the rightmost x of the curve's domain where
    alpha*beta*f(x) still covers |r_fil - 2 r_err|.  f is concave, so that is
    the domain's right end when f reaches the target there, and otherwise the
    right root of f(x) = T.  With u, v the two radicals, u + v = T and
    u^2 - v^2 = L(x) is linear in x, so u = (T^2 + L)/(2T); squaring
    u^2 = x^2 - delta^2 leaves a quadratic in x.  Each of its real roots in
    the domain has f >= T, so the rightmost such root is the crossing; a root
    within GRAZE_TOL outside the domain is rounding and is clipped onto it.
    A tangency (double root, e.g. every noiseless point, where f(0) = 2 alpha
    beta is exactly the target) can round to a slightly negative
    discriminant; its vertex then counts as feasible when alpha*beta*f misses
    the target there by at most GRAZE_TOL.  Infeasible data (no such point)
    means abort.
    """
    alpha = obs.alpha
    a2 = alpha * alpha
    ab = alpha * math.sqrt(1.0 - a2)
    gap = 1.0 - 2.0 * a2
    delta = delta_param(obs.r_fil, alpha)
    x_lo, x_hi, c = _domain(delta, alpha)
    if x_lo > x_hi:
        return _infeasible(delta)

    target = abs(obs.r_fil - 2.0 * obs.r_err)
    # the second radical vanishes at the domain's right end
    if ab * math.sqrt(max(x_hi * x_hi - delta * delta, 0.0)) >= target:
        x_star = x_hi
    else:
        t = target / ab
        if t >= 1.0:
            # f < 1 on its whole domain, since delta and c cannot both vanish
            return _infeasible(delta)
        # roots of a x^2 + m x + k = 0, the squared form of f(x) = t; its
        # discriminant m^2 - 4ak is t^2 * disc
        m = t * t - (1.0 + delta * delta - c * c)
        a = 1.0 - t * t
        k = 0.25 * m * m + t * t * delta * delta
        disc = m * m - 4.0 * a * delta * delta
        if disc < 0.0:
            # a double root that rounding pushed off the axis: the vertex
            roots = (-0.5 * m / a,)
        else:
            q = -0.5 * (m + math.copysign(t * math.sqrt(disc), m))
            roots = (q / a, k / q) if q != 0.0 else (0.0,)
        inside = [r for r in roots if x_lo - GRAZE_TOL <= r <= x_hi + GRAZE_TOL]
        if not inside:
            return _infeasible(delta)
        x_star = min(max(max(inside), x_lo), x_hi)
        if disc < 0.0 and ab * tradeoff_curve(x_star, delta, alpha) < target - GRAZE_TOL:
            return _infeasible(delta)

    r_ph_bar = 0.5 * (x_star + gap * delta)
    return BoundResult(r_ph_bar=max(r_ph_bar, 0.0), x_star=x_star, delta=delta, feasible=True)


def _secret_fraction(e_bit: float, e_ph: float) -> float:
    """Secret bits per sifted bit, 1 - h(e_bit) - h(e_ph), floored at zero;
    zero when the phase-error ceiling e_ph exceeds 1/2 or e_bit exceeds 1."""
    if e_ph > 0.5 or e_bit > 1.0:
        return 0.0
    return max(1.0 - binary_entropy(e_bit) - binary_entropy(e_ph), 0.0)


def key_rate(obs: ObservedRates, bound: BoundResult | None = None) -> float:
    """Asymptotic secret bits per pair for the observed rates.

    Zero whenever the bound is infeasible, the phase ceiling exceeds half the
    sifted fraction, or the entropy costs consume the whole sifted output.
    ``bound`` is phase_error_bound(obs) when the caller already has it.
    """
    if obs.r_fil <= 0.0:
        return 0.0
    if bound is None:
        bound = phase_error_bound(obs)
    if not bound.feasible:
        return 0.0
    return obs.r_fil * _secret_fraction(obs.r_err / obs.r_fil, bound.r_ph_bar / obs.r_fil)


def finite_key_length(
    n_err: int,
    n_fil: int,
    n_pairs: int,
    bound: BoundResult,
    slacks: SlackVector | None = None,
) -> float:
    """Secret bits n_fil [1 - h(e_bit) - h(e_ph)] of a finite run.

    ``bound`` is finite_size_bound for the same tallies and slacks, and
    e_ph = r_ph_bar n_pairs / n_fil.  e_bit is the upper bound
    (n_err + eps1 n_pairs) / n_fil on the sifted bit-error rate, charged at
    most h(1/2) = 1: any rate up to the bound is possible, so a bound above
    1/2 leaves no key.  Zero when the bound is infeasible or no pair passed
    the filter.
    """
    if n_fil <= 0 or not bound.feasible:
        return 0.0
    eps1 = 0.0 if slacks is None else slacks.eps1
    e_bit = min((n_err + eps1 * n_pairs) / n_fil, 0.5)
    return n_fil * _secret_fraction(e_bit, bound.r_ph_bar * n_pairs / n_fil)


def finite_size_bound(
    n_err: int,
    n_fil: int,
    n_pairs: int,
    alpha: float,
    slacks: SlackVector | None = None,
) -> BoundResult:
    """Maximize the phase-error count over all count matrices consistent with
    the observed tallies under the slack-relaxed estimation constraints.

    Counts are relaxed to reals.  With all slacks zero this reduces to
    phase_error_bound.  The data-side count matrix is parametrized by its
    anticorrelated mass x and two skews (d, a); the filter-rate and
    sender-marginal bands confine (d, a) to a box per x, the check side
    reduces to a closed-form interval condition, and the objective
    (x + gap*d)/2 + eps3 is maximized by a grid scan, seeded with the
    zero-slack optimum, with bisection refinement of the feasibility edge.
    """
    if slacks is None:
        slacks = SlackVector()
    if n_pairs < 1 or not 0 <= n_err <= n_pairs or not 0 <= n_fil <= n_pairs:
        raise ParameterError("counts must lie in [0, n_pairs] with n_pairs >= 1")
    check_alpha(alpha)
    # eps1 enters the key-length formula, not the phase ceiling
    _, e2, e3, e4, e5, e6, e7, e8 = slacks.as_tuple()
    gap = 1.0 - 2.0 * alpha * alpha
    r_fil = n_fil / n_pairs
    r_err = n_err / n_pairs
    theta = math.asin(alpha)
    delta_mid = delta_param(r_fil, alpha)

    # the filter-rate band pins a + d, the sender-marginal band pins a - d
    sum_lo = 2.0 * delta_mid - gap - 2.0 * e2 / gap
    sum_hi = 2.0 * delta_mid - gap + 2.0 * e2 / gap
    diff_lo = -gap - 2.0 * e4
    diff_hi = -gap + 2.0 * e4

    def evaluate(xs: np.ndarray, nd: int, na: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized feasibility and best objective per x.

        The two bands act on s = a + d and f = a - d independently, so
        (s, f) is gridded over its exact box; count nonnegativity is
        enforced pointwise below.
        """
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        s = np.linspace(sum_hi, sum_lo, nd if sum_hi - sum_lo > 1e-14 else 1)
        f = np.linspace(diff_lo, diff_hi, na if diff_hi - diff_lo > 1e-14 else 1)
        x3 = xs[:, None, None]
        d3 = (0.5 * (s[:, None] - f[None, :]))[None, :, :]
        a3 = (0.5 * (s[:, None] + f[None, :]))[None, :, :]

        v00 = 0.5 * (1.0 - x3 - a3)
        v01 = 0.5 * (x3 + d3)
        v10 = 0.5 * (x3 - d3)
        v11 = 0.5 * (1.0 - x3 + a3)
        nonneg = (
            (v00 >= -1e-14) & (v01 >= -1e-14) & (v10 >= -1e-14) & (v11 >= -1e-14)
        )

        corr = v00 + v11
        anti = v01 + v10
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio0 = np.clip(np.where(corr > 1e-300, v11 / np.maximum(corr, 1e-300), 0.0), 0.0, 1.0)
            ratio1 = np.clip(np.where(anti > 1e-300, v01 / np.maximum(anti, 1e-300), 0.0), 0.0, 1.0)
        th0 = np.arcsin(np.sqrt(ratio0))
        th1 = np.arcsin(np.sqrt(ratio1))
        l0 = np.maximum(0.0, np.sin(th0 - theta) ** 2 - e7)
        u0 = np.minimum(1.0, np.sin(th0 + theta) ** 2 + e8)
        l1 = np.maximum(0.0, np.sin(th1 - theta) ** 2 - e7)
        u1 = np.minimum(1.0, np.sin(th1 + theta) ** 2 + e8)
        # empty sectors leave their outcome ratio unconstrained
        l0 = np.where(corr <= 1e-300, 0.0, l0)
        u0 = np.where(corr <= 1e-300, 1.0, u0)
        l1 = np.where(anti <= 1e-300, 0.0, l1)
        u1 = np.where(anti <= 1e-300, 1.0, u1)

        # check side: anticorrelated mass y within eps6 of x, mixture of the
        # window ratios must reproduce the observed error weight
        y_lo = np.clip(x3 - e6, 0.0, 1.0)
        y_hi = np.clip(x3 + e6, 0.0, 1.0)
        lo_reach = np.minimum(
            (1.0 - y_lo) * l0 + y_lo * l1, (1.0 - y_hi) * l0 + y_hi * l1
        )
        hi_reach = np.maximum(
            (1.0 - y_lo) * u0 + y_lo * u1, (1.0 - y_hi) * u0 + y_hi * u1
        )
        mu_ok = (lo_reach <= 2.0 * r_err + 2.0 * e5 + 1e-14) & (
            hi_reach >= 2.0 * r_err - 2.0 * e5 - 1e-14
        )

        ok = nonneg & mu_ok
        obj = np.where(ok, 0.5 * (x3 + gap * d3), -np.inf)
        best = obj.max(axis=(1, 2))
        return ok.any(axis=(1, 2)), best

    xs = np.linspace(0.0, 1.0, 2_001)
    if alpha > 0.0 and r_err <= 0.5:
        # the slacks only relax the constraints, so the zero-slack optimum
        # stays feasible; seeding the grid with it keeps a feasible interval
        # narrower than the grid spacing (tiny error rates) from being missed
        exact = phase_error_bound(ObservedRates(r_err=r_err, r_fil=r_fil, alpha=alpha))
        if exact.feasible:
            xs = np.union1d(xs, [exact.x_star])
    feas, vals = evaluate(xs, nd=9, na=9)
    if not feas.any():
        return _infeasible(delta_mid)

    # rightmost feasible x, refined by bisection on the feasibility edge
    i_last = int(np.nonzero(feas)[0][-1])
    lo = float(xs[i_last])
    if i_last + 1 < xs.size:
        hi = float(xs[i_last + 1])
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            ok, _ = evaluate(np.array([mid]), nd=9, na=9)
            if ok[0]:
                lo = mid
            else:
                hi = mid
    edge_ok, edge_val = evaluate(np.array([lo]), nd=129, na=65)
    candidates = [(float(edge_val[0]), lo)] if edge_ok[0] else []

    # the objective can peak before the feasibility edge when the skew box
    # shrinks with x, so also refine around the best interior grid point
    i_best = int(np.argmax(vals))
    local = np.linspace(
        xs[max(i_best - 1, 0)], xs[min(i_best + 1, xs.size - 1)], 201
    )
    loc_ok, loc_val = evaluate(local, nd=129, na=65)
    if loc_ok.any():
        j = int(np.argmax(np.where(loc_ok, loc_val, -np.inf)))
        candidates.append((float(loc_val[j]), float(local[j])))
    if not candidates:
        return _infeasible(delta_mid)

    val, x_star = max(candidates)
    return BoundResult(r_ph_bar=max(val + e3, 0.0), x_star=x_star,
                       delta=delta_mid, feasible=True)


def failure_budget(n_pairs: int, slacks: SlackVector, m_samples: int, min_rate: float) -> float:
    """Union-bound total failure probability of the estimation chain.

    Six Hoeffding-style terms for the classical sampling slacks plus, when
    m_samples > 0, the exponential term for the two-basis estimation.
    """
    if n_pairs < 0 or m_samples < 0 or min_rate < 0.0:
        raise ParameterError("inputs must be nonnegative")
    e1, e2, e3, e4, e5, e6, _, _ = slacks.as_tuple()
    n = float(n_pairs)
    total = (
        math.exp(-n * e1 * e1)
        + math.exp(-2.0 * n * e2 * e2)
        + math.exp(-2.0 * n * e3 * e3)
        + math.exp(-2.0 * n * e4 * e4)
        + math.exp(-2.0 * n * e5 * e5)
        + math.exp(-n * e6 * e6)
    )
    if m_samples > 0:
        total += math.exp(-float(m_samples) * min_rate)
    return total
