"""Entropy kernels, the phase-error upper bound, key rates, and the
finite-size relaxation of the estimation constraints.

Entropies for key-rate formulas are in bits; the failure-probability budget
uses natural exponentials, following each formula's own convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._sectors import Sectors
from .errors import DomainError, ParameterError, SingularityError
from .exponent import LN2, _divergence
from .quantum import check_alpha

GRAZE_TOL = 1e-12
_GAP_MIN = 1e-3


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
    """Kullback-Leibler divergence sum_i p_i log2(p_i / q_i) in bits: the
    exponent module's float kernel, in nats, over ln 2.

    With ``allow_infinite`` a support violation (p_i > 0 where q_i = 0)
    returns +inf instead of raising.
    """
    import numpy as np

    pa = np.asarray(p, dtype=float)
    qa = np.asarray(q, dtype=float)
    if pa.shape != qa.shape:
        raise DomainError("distributions must have equal length")
    flat_p, flat_q = pa.ravel().tolist(), qa.ravel().tolist()
    if not all(0.0 <= x < math.inf for x in flat_p + flat_q):
        raise DomainError("distributions must be finite and nonnegative")
    if any(a > 0.0 == b for a, b in zip(flat_p, flat_q)):
        if allow_infinite:
            return math.inf
        raise DomainError("support violation: p_i > 0 where q_i = 0")
    return _divergence(flat_p, flat_q) / LN2


def _gap(a2: float) -> float:
    """beta^2 - alpha^2 = 1 - 2 a2, checked against _GAP_MIN on every path to the bound."""
    gap = 1.0 - 2.0 * a2
    if gap < _GAP_MIN:
        raise SingularityError(f"beta^2 - alpha^2 = {gap!r} below {_GAP_MIN!r}; bound is singular")
    return gap


def delta_param(r_fil: float, alpha: float) -> float:
    """Excess of the filter rate over its noiseless value, normalized by the
    basis gap beta^2 - alpha^2 = 1 - 2 alpha^2."""
    a2 = alpha * alpha
    return (r_fil - 2.0 * a2 * (1.0 - a2)) / _gap(a2)


def _domain(delta: float, alpha: float) -> tuple[float, float]:
    """Ends |delta| and 1 - |gap - delta| of the curve's domain, the right one
    as 2 alpha^2 + delta or 2 beta^2 - delta, which keep a small alpha^2."""
    a2 = alpha * alpha
    return abs(delta), 2.0 * a2 + delta if 1.0 - 2.0 * a2 >= delta else 2.0 * (1.0 - a2) - delta


def _curve(x: float, delta: float, x_hi: float) -> float:
    """tradeoff_curve at a scalar x in [|delta|, x_hi], math-only; its second
    radicand is (x_hi - x)(2 - x - x_hi), not a difference of O(1) squares."""
    d = abs(delta)
    return (math.sqrt(max(x - d, 0.0) * (x + d))
            + math.sqrt(max(x_hi - x, 0.0) * (2.0 - x - x_hi)))


def tradeoff_curve(x, delta: float, alpha: float):
    """Curve f(x) = sqrt(x^2 - delta^2) + sqrt((1-x)^2 - (gap - delta)^2).

    Defined for |delta| <= x <= 1 - |gap - delta| where the underlying count
    matrices stay nonnegative, to within GRAZE_TOL * x_hi as in _phase_ceiling.
    Accepts scalars or arrays.
    """
    import numpy as np

    x_lo, x_hi = _domain(delta, alpha)
    xs = np.asarray(x, dtype=float)
    tol = GRAZE_TOL * x_hi
    if np.any(xs < x_lo - tol) or np.any(xs > x_hi + tol):
        raise DomainError(f"x outside the positivity domain [{x_lo!r}, {x_hi!r}]")
    val = np.vectorize(_curve, otypes=[float])(xs, delta, x_hi)
    return float(val) if np.isscalar(x) else val


def _phase_ceiling(delta: float, excess: float, alpha: float
                   ) -> tuple[float, float, float, bool]:
    """phase_error_bound from the excesses delta = (r_fil - h)/gap and
    excess = r_fil - h - 2 r_err over the noiseless h = 2 alpha^2 beta^2,
    math-only, as a (r_ph_bar, x_star, delta, feasible) tuple in
    BoundResult's field order; the analytic commands call it directly.

    The ceiling is the rightmost x of the curve's domain where alpha*beta*f(x)
    covers T = |h + excess|: f is concave, so it is the domain's right end if
    f reaches T there, else the right root of f(x) = t = T/(alpha beta).  For
    radicals u + v = t, with u^2 - v^2 = 2x - s^2 - 2 gap delta linear in x
    (s = 2 alpha beta), squaring u = (t^2 + u^2 - v^2)/(2t) leaves
    a x^2 + m x + m^2/4 + t^2 delta^2 = 0, m = (t^2 - s^2) - 2 gap delta,
    a = gap^2 - (t^2 - s^2), t^2 - s^2 = (T - h)(T + h)/(alpha beta)^2: no
    coefficient is a difference of O(1) rates.  The roots are solved in units
    of |m| + |delta|, as m^2 and delta^2 underflow below p ~ 1e-154.  Each
    real root in the domain has f >= t, so the rightmost is the crossing; one
    within GRAZE_TOL * x_hi outside the domain is rounding, clipped onto it
    (a tolerance relative to the domain's scale, so that at tiny rates a root
    far outside a tiny domain still means that no x qualifies).  A
    tangency (double root) can round to a slightly negative discriminant; its
    vertex then counts as feasible when f misses t there by at most GRAZE_TOL,
    a miss relative to alpha*beta so that it means the same at every alpha.
    """
    a2 = alpha * alpha
    ab = alpha * math.sqrt(1.0 - a2)
    gap = _gap(a2)
    x_lo, x_hi = _domain(delta, alpha)
    if x_lo > x_hi:
        return math.nan, math.nan, delta, False

    h = 2.0 * a2 * (1.0 - a2)
    target = abs(h + excess)
    if ab * _curve(x_hi, delta, x_hi) >= target:  # the second radical vanishes at x_hi
        x_star = x_hi
    else:
        t = target / ab
        if t >= 1.0:
            # f < 1 on its whole domain, since delta and gap - delta cannot both vanish
            return math.nan, math.nan, delta, False
        diff = (excess if h + excess >= 0.0 else -2.0 * h - excess) / ab * ((target + h) / ab)
        a, m = gap * gap - diff, diff - 2.0 * gap * delta
        unit = abs(m) + abs(delta) or 1.0  # 1 where both vanish, at p = 0
        m, d = m / unit, delta / unit
        # the discriminant m^2 - 4ak of the squared form is t^2 * disc
        disc = m * m - 4.0 * a * d * d
        if disc < 0.0:
            # a double root that rounding pushed off the axis: the vertex
            roots = (unit * (-0.5 * m / a),)
        else:
            q = -0.5 * (m + math.copysign(t * math.sqrt(disc), m))
            k = 0.25 * m * m + t * t * d * d
            roots = (unit * (q / a), unit * (k / q)) if q != 0.0 else (0.0,)
        tol = GRAZE_TOL * x_hi
        inside = [r for r in roots if x_lo - tol <= r <= x_hi + tol]
        if not inside:
            return math.nan, math.nan, delta, False
        x_star = min(max(max(inside), x_lo), x_hi)
        if disc < 0.0 and _curve(x_star, delta, x_hi) < t - GRAZE_TOL:
            return math.nan, math.nan, delta, False

    return max(0.5 * (x_star + gap * delta), 0.0), x_star, delta, True


def phase_error_bound(obs: ObservedRates) -> BoundResult:
    """Largest phase-error rate consistent with the observed (r_err, r_fil),
    solved by _phase_ceiling from their excesses.  Infeasible data (no
    consistent point) means abort: feasible is False and r_ph_bar, x_star are nan."""
    a2 = obs.alpha * obs.alpha
    excess = obs.r_fil - 2.0 * a2 * (1.0 - a2) - 2.0 * obs.r_err
    return BoundResult(*_phase_ceiling(delta_param(obs.r_fil, obs.alpha), excess, obs.alpha))


def _secret_bits(sifted: float, e_bit: float, e_ph: float) -> float:
    """Secret bits sifted (1 - h(e_bit) - h(min(e_ph, 1/2))) of ``sifted``
    bits at bit-error rate e_bit in [0, 1] and phase-error ceiling e_ph,
    unfloored: a ceiling past 1/2 costs h(1/2) = 1, as any rate up to it is
    possible.  key_rate and finite_key_length floor it at zero; the analytic
    commands' optimizer searches the unfloored value, which keeps a slope
    where the key is zero.
    """
    return sifted * (1.0 - binary_entropy(e_bit) - binary_entropy(min(e_ph, 0.5)))


def key_rate(obs: ObservedRates, bound: BoundResult | None = None) -> float:
    """Asymptotic secret bits per pair for the observed rates.

    Zero whenever the bound is infeasible, the error rate exceeds the sifted
    fraction, the phase ceiling exceeds half of it, or the entropy costs
    consume the whole sifted output.  ``bound`` is phase_error_bound(obs)
    when the caller already has it.
    """
    if obs.r_fil <= 0.0:
        return 0.0
    if bound is None:
        bound = phase_error_bound(obs)
    e_bit = obs.r_err / obs.r_fil
    if not bound.feasible or e_bit > 1.0:
        return 0.0
    return max(0.0, _secret_bits(obs.r_fil, e_bit, bound.r_ph_bar / obs.r_fil))


def finite_key_length(
    n_err: int,
    n_fil: int,
    n_pairs: int,
    bound: BoundResult,
    slacks: SlackVector | None = None,
) -> float:
    """Secret bits n_fil [1 - h(e_bit) - h(e_ph)] of a finite run, floored
    at zero.

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
    return max(0.0, _secret_bits(n_fil, e_bit, bound.r_ph_bar * n_pairs / n_fil))


def finite_size_bound(
    n_err: int,
    n_fil: int,
    n_pairs: int,
    alpha: float,
    slacks: SlackVector | None = None,
) -> BoundResult:
    """Maximize the phase-error count over all count matrices consistent with
    the observed tallies under the slack-relaxed estimation constraints.

    Counts are relaxed to reals.  The data-side count matrix has
    anticorrelated mass x and skews (d, a); the objective is
    (x + gap*d)/2 + eps3 with gap = 1 - 2 alpha^2.  eps1 enters the key
    length, not this ceiling.  When eps2 and eps4..eps8 are all zero the
    constraints are exactly those of phase_error_bound, whose optimum is
    used directly (error weights above 1/2 are infeasible).  Otherwise the
    problem is solved over the two sectors' outcome angles (_sectors), where
    every constraint is linear in x: Newton steps on the active constraints,
    started at the zero-slack optimum, solve it to rounding, and a branch and
    bound over x alone certifies it, each interval of x closed by a
    closed-form Lagrangian bound to within _sectors.TOL (1e-12 in x + gap*d)
    of the best point or by a Farkas ray.  The reported point meets every
    constraint to within 6e-15 in that constraint's own units (the bands and
    error-weight limits widened by _sectors.FEAS_TOL, and each bound on x by
    the rounding allowance _sectors.ROUND more), under the 1e-14 of a
    feasibility check.  Every path gives the best witnessed x + gap*d and the
    largest bound of an interval left open above it after the work budget
    (-inf if none); r_ph_bar is half the larger plus eps3, so an open
    interval is an over-report.  ``x_star`` is the best point's x and
    ``delta`` the filter-rate excess of the observed tallies.
    """
    if slacks is None:
        slacks = SlackVector()
    if n_pairs < 1 or not 0 <= n_err <= n_pairs or not 0 <= n_fil <= n_pairs:
        raise ParameterError("counts must lie in [0, n_pairs] with n_pairs >= 1")
    check_alpha(alpha)
    gap = 1.0 - 2.0 * alpha * alpha
    r_fil = n_fil / n_pairs
    r_err = n_err / n_pairs
    delta = delta_param(r_fil, alpha)

    seed = None
    if r_err <= 0.5:
        exact = phase_error_bound(ObservedRates(r_err=r_err, r_fil=r_fil, alpha=alpha))
        seed = (exact.x_star, delta) if exact.feasible else None
    # eps1 enters the key length and eps3 only lifts the ceiling
    if not any((slacks.eps2, slacks.eps4, slacks.eps5, slacks.eps6, slacks.eps7, slacks.eps8)):
        point = None if seed is None else (seed[0] + gap * delta, seed[0], -math.inf)
    else:
        point = Sectors(alpha, r_err, delta, slacks.as_tuple()).ceiling(seed)
    if point is None:
        return BoundResult(r_ph_bar=math.nan, x_star=math.nan, delta=delta, feasible=False)
    value, x, open_bound = point
    return BoundResult(r_ph_bar=max(0.5 * max(value, open_bound) + slacks.eps3, 0.0), x_star=x,
                       delta=delta, feasible=True)


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
