"""Entropy kernels, the phase-error upper bound, key rates, and the
finite-size relaxation of the estimation constraints.

Entropies for key-rate formulas are in bits; the failure-probability budget
uses natural exponentials, following each formula's own convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._brent import brent_root
from .errors import DomainError, ParameterError, SingularityError
from .quantum import check_alpha

GRAZE_TOL = 1e-12
# rounding allowance on the bands and the error weight of the slacked check
ROUND_TOL = 1e-14
_INV_PHI = 0.5 * (math.sqrt(5.0) - 1.0)


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
    x_hi = 1.0 - abs(c)
    if x_hi < abs(delta) and c > 0.0:
        # 1 - c lost alpha^2 to the rounding of 1; recover it as 2 alpha^2 + delta
        x_hi = 2.0 * alpha * alpha + delta
    return abs(delta), x_hi, c


def _curve(x: float, delta: float, c: float) -> float:
    """tradeoff_curve at a scalar x in its domain, math-only, for
    _phase_ceiling's double-root check; c = gap - delta.  The squares are
    products, as numpy squares an array, so it equals tradeoff_curve."""
    return (math.sqrt(max(x * x - delta * delta, 0.0))
            + math.sqrt(max((1.0 - x) * (1.0 - x) - c * c, 0.0)))


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


def _phase_ceiling(r_err: float, r_fil: float, alpha: float
                   ) -> tuple[float, float, float, bool]:
    """phase_error_bound from unchecked rates, math-only, as a plain
    (r_ph_bar, x_star, delta, feasible) tuple in BoundResult's field order;
    the analytic commands' inner loop calls it directly.

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
    discriminant; its vertex then counts as feasible when f misses T there
    by at most GRAZE_TOL, a miss relative to alpha*beta so that it means the
    same at every alpha.  Where alpha^2 is below the rounding of 1, the
    domain's right end 1 - (gap - delta) is taken as 2 alpha^2 + delta.
    """
    a2 = alpha * alpha
    ab = alpha * math.sqrt(1.0 - a2)
    gap = 1.0 - 2.0 * a2
    delta = delta_param(r_fil, alpha)
    x_lo, x_hi, c = _domain(delta, alpha)
    if x_lo > x_hi:
        return math.nan, math.nan, delta, False

    target = abs(r_fil - 2.0 * r_err)
    # the second radical vanishes at the domain's right end
    if ab * math.sqrt(max(x_hi * x_hi - delta * delta, 0.0)) >= target:
        x_star = x_hi
    else:
        t = target / ab
        if t >= 1.0:
            # f < 1 on its whole domain, since delta and c cannot both vanish
            return math.nan, math.nan, delta, False
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
            return math.nan, math.nan, delta, False
        x_star = min(max(max(inside), x_lo), x_hi)
        if disc < 0.0 and _curve(x_star, delta, c) < t - GRAZE_TOL:
            return math.nan, math.nan, delta, False

    r_ph_bar = 0.5 * (x_star + gap * delta)
    return max(r_ph_bar, 0.0), x_star, delta, True


def phase_error_bound(obs: ObservedRates) -> BoundResult:
    """Largest phase-error rate consistent with the observed (r_err, r_fil),
    solved by _phase_ceiling.  Infeasible data (no consistent point) means
    abort: feasible is False and r_ph_bar, x_star are nan."""
    return BoundResult(*_phase_ceiling(obs.r_err, obs.r_fil, obs.alpha))


def _secret_fraction(e_bit: float, e_ph: float) -> float:
    """Secret bits per sifted bit, 1 - h(e_bit) - h(e_ph), floored at zero;
    zero when the phase-error ceiling e_ph exceeds 1/2 or e_bit exceeds 1."""
    if e_ph > 0.5 or e_bit > 1.0:
        return 0.0
    return max(1.0 - binary_entropy(e_bit) - binary_entropy(e_ph), 0.0)


def _key_rate(r_err: float, r_fil: float, r_ph_bar: float, feasible: bool) -> float:
    """key_rate from unchecked rates and _phase_ceiling's (r_ph_bar,
    feasible), math-only; the rate command calls it directly."""
    if r_fil <= 0.0 or not feasible:
        return 0.0
    return r_fil * _secret_fraction(r_err / r_fil, r_ph_bar / r_fil)


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
    return _key_rate(obs.r_err, obs.r_fil, bound.r_ph_bar, bound.feasible)


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


def _slacked_width(alpha: float, r_err: float, delta: float, slacks: SlackVector):
    """Feasibility margin of (x, d) under the slacked constraints, with the
    skew a eliminated in closed form.

    The data-side count matrix is (v00, v01, v10, v11) = ((1-x-a), (x+d),
    (x-d), (1-x+a))/2.  Its correlated and anticorrelated sectors have
    outcome ratios sin^2(phi0) = v11/(1-x) and sin^2(phi1) = v01/x, so
    a = -(1-x) cos(2 phi0), d = -x cos(2 phi1), and each check window edge
    sin^2(phi -+ theta) is algebraic in (x, d) or (x, a).  For fixed (x, d)
    the check side (mass y within eps6 of x, eps7/eps8-widened windows,
    error weight within eps5) confines phi0 to two intervals, one centred on
    theta and one on pi/2 - theta; either endpoint y gives intervals with the
    same centre, so the wider one is the union.  Mapped through the
    increasing a(phi0) and intersected with the two linear bands this is an
    interval of a.  ``width(x, d)`` is the smallest of its length and the
    two margins no choice of a can change (the lower check needs l0 <= some
    l0_max >= 0, the upper u0 >= some u0_min <= 1); it is >= 0 exactly when
    some a is feasible and falls continuously with the violation otherwise.
    Also returns the band limits on d = (s - f)/2.
    """
    _, e2, _, e4, e5, e6, e7, e8 = slacks.as_tuple()
    a2 = alpha * alpha
    b2 = 1.0 - a2
    ab4 = 4.0 * alpha * math.sqrt(b2)
    gap = 1.0 - 2.0 * a2
    # the filter-rate band pins s = a + d, the sender-marginal band f = a - d
    s_lo = 2.0 * delta - gap - 2.0 * e2 / gap
    s_hi = 2.0 * delta - gap + 2.0 * e2 / gap
    f_lo = -gap - 2.0 * e4
    f_hi = -gap + 2.0 * e4
    d_bot, d_top = 0.5 * (s_lo - f_hi), 0.5 * (s_hi - f_lo)
    # zero-width bands make the a-window a single point, which rounding
    # alone must not empty
    s_lo, f_lo, s_hi, f_hi = s_lo - ROUND_TOL, f_lo - ROUND_TOL, s_hi + ROUND_TOL, f_hi + ROUND_TOL
    w_hi = 2.0 * r_err + 2.0 * e5 + ROUND_TOL
    w_lo = 2.0 * r_err - 2.0 * e5 - ROUND_TOL

    def width(x: float, d: float) -> float:
        m = 1.0 - x
        if x > 0.0:
            mid = 0.5 * (x + gap * d) / x
            spread = 0.25 * ab4 * math.sqrt(max(x * x - d * d, 0.0)) / x
            l1 = max(mid - spread - e7, 0.0)
            u1 = min(mid + spread + e8, 1.0)
        else:  # an empty sector leaves its outcome ratio unconstrained
            l1, u1 = 0.0, 1.0
        y_lo = max(x - e6, 0.0)
        y_hi = min(x + e6, 1.0)
        m_lo = max(1.0 - y_lo, 1e-300)
        m_hi = max(1.0 - y_hi, 1e-300)
        # largest lower window ratio l0 and smallest upper u0 some y allows
        l0_max = max((w_hi - y_lo * l1) / m_lo, (w_hi - y_hi * l1) / m_hi)
        u0_min = min((w_lo - y_lo * u1) / m_lo, (w_lo - y_hi * u1) / m_hi)
        # phi0 within asin(sqrt(k)) of theta, and phi0 + theta within
        # [asin(sqrt(j)), pi - asin(sqrt(j))]; edges a = -m cos(2 phi0)
        k = min(max(l0_max + e7, 0.0), 1.0)
        j = min(max(u0_min - e8, 0.0), 1.0)
        gk, rk = gap * (1.0 - 2.0 * k), ab4 * math.sqrt(k * (1.0 - k))
        gj, rj = gap * (1.0 - 2.0 * j), ab4 * math.sqrt(j * (1.0 - j))
        lo = max(-m if k >= a2 else -m * (gk + rk), -m if j <= a2 else -m * (gj + rj),
                 s_lo - d, f_lo + d, -m)
        hi = min(m if k >= b2 else -m * (gk - rk), m if j <= b2 else -m * (gj - rj),
                 s_hi - d, f_hi + d, m)
        return min(hi - lo, l0_max, 1.0 - u0_min)

    return width, d_bot, d_top


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section search for the maximum of a unimodal f on [lo, hi];
    returns (argmax, max)."""
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def _widest_point(width, d_bot: float, d_top: float) -> tuple[float, float, float]:
    """(x, d, width) at the largest width found by golden sections over d
    nested in golden sections over x, one per piece of the x range between
    the corners of the count box.

    The start when the zero-slack optimum is not feasible.  A start needs
    only width >= 0, since the ray search fixes the ceiling, so each section
    stops at 1e-6.  width is not unimodal away from the feasible set, so a
    feasible set much smaller than the x range can be missed and the data
    then abort.
    """
    def column(x: float) -> tuple[float, float]:
        return _golden_max(lambda d: width(x, d), max(-x, d_bot), min(x, d_top), 1e-6)

    x_lo = min(max(0.0, d_bot, -d_top), 1.0)
    cuts = sorted({x_lo, 1.0} | {c for c in (d_top, -d_bot) if x_lo < c < 1.0})
    best = (-math.inf, 0.0, 0.0)
    for lo, hi in zip(cuts, cuts[1:]):
        x, _ = _golden_max(lambda x: column(x)[1], lo, hi, 1e-6)
        d, w = column(x)
        best = max(best, (w, x, d))
    return best[1], best[2], best[0]


def _slacked_optimum(width, gap: float, d_bot: float, d_top: float,
                     start: tuple[float, float] | None) -> tuple[float, float] | None:
    """Largest x + gap*d over {width(x, d) >= 0} within the count box
    |d| <= x <= 1, d_bot <= d <= d_top; None when that set is empty.

    With eps6 = eps7 = eps8 = 0 the set is convex: the check reduces to
    2 alpha beta [sqrt(x^2 - d^2) + sqrt((1-x)^2 - a^2)] >= |1 + gap (a + d)
    - 4 r_err|, whose left side is jointly concave.  With them it need not
    be: with 0 errors and 195 filtered pairs in 1390, alpha^2 = 0.0863,
    eps2 = 0.023, eps6 = 0.0029, eps7 = 0.027 and eps8 = 2.6e-5, a small nub
    by the corner x ~ eps6, d ~ x joins the body through a narrow neck, and
    rays from the nub stop at its own maximum.  The solver starts at
    ``start``, the zero-slack optimum, when it is feasible, and otherwise at
    _widest_point, in the body; centres the start on its x and d chords;
    then runs a golden section over the angles that gain on the start, each
    ray's exit a bracketed root of width (Brent's method, brent_root).  That
    finds the optimum when every ray from the start leaves the set once and
    the objective along the exits is unimodal in the angle, as on a convex
    set.
    """
    best = [-math.inf, 0.0, 0.0]

    def reach(px: float, pd: float, ux: float, ud: float) -> float:
        # distance along (ux, ud), in units of its length, to the count box,
        # then to the set's edge; the search runs along the unit direction,
        # so a chord scale at its 1e-15 floor does not stretch its bracket
        # past what brent_root closes in 100 steps
        norm = math.hypot(ux, ud)
        ux, ud = ux / norm, ud / norm
        t = math.inf
        for gx, gd, b in ((-1.0, 1.0, 0.0), (-1.0, -1.0, 0.0), (1.0, 0.0, 1.0),
                          (0.0, 1.0, d_top), (0.0, -1.0, -d_bot)):
            rate = gx * ux + gd * ud
            if rate > 0.0:
                t = min(t, max(b - gx * px - gd * pd, 0.0) / rate)
        if width(px + t * ux, pd + t * ud) < 0.0:
            t = brent_root(lambda s: width(px + s * ux, pd + s * ud), 0.0, t, xtol=1e-15)
        x, d = px + t * ux, pd + t * ud
        if x + gap * d > best[0]:
            best[:] = [x + gap * d, x, d]
        return t / norm

    if start is None or width(*start) < 0.0:
        *start, margin = _widest_point(width, d_bot, d_top)
        if margin < 0.0:
            return None
    px, pd = start
    best[:] = [px + gap * pd, px, pd]
    if d_top - d_bot < 1e-15:
        reach(px, pd, 1.0, 0.0)
        return best[1], best[2]

    # centre the start on its chords; their lengths scale the ray directions
    right, left = reach(px, pd, 1.0, 0.0), reach(px, pd, -1.0, 0.0)
    if width(px + 0.5 * (right - left), pd) >= 0.0:
        px += 0.5 * (right - left)
    up, down = reach(px, pd, 0.0, 1.0), reach(px, pd, 0.0, -1.0)
    if width(px, pd + 0.5 * (up - down)) >= 0.0:
        pd += 0.5 * (up - down)
    sx, sd = max(right + left, 1e-15), max(up + down, 1e-15)

    def gain(psi: float) -> float:
        ux, ud = sx * math.cos(psi), sd * math.sin(psi)
        return reach(px, pd, ux, ud) * (ux + gap * ud)

    # the optimum gains on the centre, so it lies within pi/2 of the
    # objective's direction in the scaled frame
    psi0 = math.atan2(gap * sd, sx)
    _golden_max(gain, psi0 - 0.5 * math.pi, psi0 + 0.5 * math.pi, 1e-12)
    return best[1], best[2]


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
    used directly (error weights above 1/2 are infeasible).  Otherwise a is
    eliminated in closed form (see _slacked_width) and the remaining
    two-variable problem is solved by bracketed 1-D root finds and golden
    sections (see _slacked_optimum); ``x_star`` is the maximizing x and
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

    exact = _infeasible(delta)
    if r_err <= 0.5:
        exact = phase_error_bound(ObservedRates(r_err=r_err, r_fil=r_fil, alpha=alpha))
    seed = (exact.x_star, delta) if exact.feasible else None
    # eps1 enters the key length and eps3 only lifts the ceiling
    if not any((slacks.eps2, slacks.eps4, slacks.eps5, slacks.eps6, slacks.eps7, slacks.eps8)):
        point = seed
    else:
        width, d_bot, d_top = _slacked_width(alpha, r_err, delta, slacks)
        point = _slacked_optimum(width, gap, d_bot, d_top, seed)
    if point is None:
        return _infeasible(delta)
    x, d = point
    return BoundResult(r_ph_bar=max(0.5 * (x + gap * d) + slacks.eps3, 0.0), x_star=x,
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
