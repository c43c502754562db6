"""The slacked finite-size ceiling, solved over the two sectors' outcome angles.

The data-side count matrix is (v00, v01, v10, v11) = ((1-x-a), (x+d),
(x-d), (1-x+a))/2.  Its correlated and anticorrelated sectors have outcome
ratios sin^2(p0) = v11/(1-x) and sin^2(p1) = v01/x, so a = -(1-x) cos 2p0
and d = -x cos 2p1, and each sector's check windows [sin^2(p -+ theta)
-+ eps7/eps8] depend on its angle alone.  At fixed angles every constraint
is then linear in x, a row of one table (Sectors.rows) that x_top, the
Newton steps and the pinned search read: the filter-rate band on s = a + d,
the sender-marginal band on f = a - d, and each check, whose check-side mass
y within eps6 of x need only sit at the end of its range where the windows
mix best.  The largest feasible x is a minimum of ratios (Sectors.x_top), and
the ceiling is the maximum of x (1 - gap cos 2p1) over the angle square.

Newton steps on the active rows from the zero-slack optimum find the best
point (Sectors.polish), and a search over x alone certifies it
(Sectors.search).  With multipliers mu >= 0 on the rows and each check's
mass at one end, the Lagrangian x (1 - gap cos 2p1) - sum mu g is, at fixed
x, one sinusoid in 2p0 plus one in 2p1, so its largest value over the angles
is closed form (Sectors.lagrangian) and bounds the ceiling at x; between the
points eps6 and 1 - eps6, where a check's mass clips, it is convex in x, so
on an interval it is largest at an end.  Multipliers come from the polished
KKT point and from a fixed-x active-set solve (Sectors.fixed) at a point of
each interval left, which gives a Farkas ray instead where x admits no
point.  An interval closes when its bound lies within TOL of the best point,
or the ray's falls below 0; one still open when the work budget runs out
raises the ceiling to its bound, so a miss shows as a flagged over-report,
never a shortfall beyond TOL.  With (a, d) pinned, x alone is searched, by
bisection.
"""

from __future__ import annotations

import functools
import math

from .exponent import _dot, b92_angle_bounds

# the bands and error-weight limits are widened by FEAS_TOL in their own
# units; ROUND, the rounding allowance, widens each bound on x in its row's
# units (6e-15 in all, under a feasibility check's 1e-14); an interval that
# closes by less touches, and a solve within it, relative, of the best met
# reaches that best
FEAS_TOL, ROUND = 5e-15, 1e-15

_HALF_PI = 0.5 * math.pi
# an interval of x closes when the Lagrangian bound at both its ends lies
# within TOL of the best point's x + gap d, the scale of the rounding
# allowances above in the objective's units; _WORK caps a call's fixed-x solves
TOL, _WORK = 1e-12, 60
# the rows of constraints() in the order of Sectors.table; rows 10-13 are the
# angle box, t0 >= 0, t0 <= pi, t1 >= 0, t1 <= pi (t = 2p), as (g, dg/dt)
NAMES = ("shi", "slo", "fhi", "flo", "L00", "L01", "L10", "U00", "U01", "U10")
_BOX = ((-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0))
_CLASH = {0: 1, 1: 0, 2: 3, 3: 2, 10: 11, 11: 10, 12: 13, 13: 12}


# 1-3 dimensional algebra in plain floats: numpy.linalg.solve and an SVD null
# space cost 6-8 us a call against 0.4-3.4 us here, and a slacked call makes
# about 11 such solves
def _norm(g) -> float:
    """Length of a constraint's gradient."""
    return math.sqrt(g[1] * g[1] + g[2] * g[2] + g[3] * g[3])


def _cramer(A, *bs):
    """Solutions of a 1x1, 2x2 or 3x3 linear system, one per right-hand side;
    None if it is singular."""
    if len(A) == 1:
        return None if A[0][0] == 0.0 else [[b[0] / A[0][0]] for b in bs]
    if len(A) == 2:
        det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
        return None if det == 0.0 else [[(b[0] * A[1][1] - A[0][1] * b[1]) / det,
                                         (A[0][0] * b[1] - b[0] * A[1][0]) / det] for b in bs]
    cols = [[row[j] for row in A] for j in range(3)]
    c12 = _cross(cols[1], cols[2])
    det = _dot(cols[0], c12)
    if det == 0.0:
        return None
    return [[_dot(b, c12) / det, _dot(cols[0], _cross(b, cols[2])) / det,
             _dot(cols[0], _cross(cols[1], b)) / det] for b in bs]


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _tangents(rows):
    """Orthonormal directions normal to each of one or two rows; None if the
    rows are parallel or vanish."""
    def unit(v):
        norm = math.sqrt(_dot(v, v))
        return (v[0] / norm, v[1] / norm, v[2] / norm) if norm > 0.0 else None

    if len(rows) == 2:
        t = unit(_cross(*rows))
        return None if t is None else [t]
    u = unit(rows[0])
    if u is None:
        return None
    t = unit(_cross(u, (1.0, 0.0, 0.0) if abs(u[0]) < 0.9 else (0.0, 1.0, 0.0)))
    return [t, _cross(u, t)]


def _clash(a: str, b: str) -> bool:
    """Whether constraints a and b cannot share a working set: one row, or the
    two sides of one band or bound (no two rows of one check coincide)."""
    return a == b or ({a[-2:], b[-2:]} == {"hi", "lo"} and a[:-2] == b[:-2])


def _slopes(p0, p1):
    """cos 2p0 and the bands' slopes in x, k = c0 -+ c1 with c1 = cos 2p1,
    in forms free of cancellation."""
    return math.cos(2.0 * p0), (-2.0 * math.sin(p0 + p1) * math.sin(p0 - p1),
                                2.0 * math.cos(p0 + p1) * math.cos(p0 - p1))


class Sectors:
    """The slacked estimation problem for one set of tallies and slacks: rows()
    is its constraint table; x_top() solves it for x at given angles,
    polish() by Newton steps on its active rows (constraints()), fixed() at a
    fixed x; lagrangian() bounds it at x, search() certifies the best point
    over x; pinned_top() searches x when both bands pin the skews, edge() an
    empty sector."""

    def __init__(self, alpha: float, r_err: float, delta: float, slacks: tuple[float, ...]):
        _, e2, _, e4, e5, self.e6, self.e7, self.e8 = slacks
        self.gap = gap = 1.0 - 2.0 * alpha * alpha
        self.theta = theta = math.asin(alpha)
        self.bands = ((2.0 * delta - gap - 2.0 * e2 / gap - FEAS_TOL,
                       2.0 * delta - gap + 2.0 * e2 / gap + FEAS_TOL),
                      (-gap - 2.0 * e4 - FEAS_TOL, -gap + 2.0 * e4 + FEAS_TOL))
        # the band rows as (name, A, s, j): num = A + s c0, den = s k_j
        (slo, shi), (flo, fhi) = self.bands
        self.band_rows = (("shi", shi, 1.0, 0), ("slo", -slo, -1.0, 0),
                          ("fhi", fhi, 1.0, 1), ("flo", -flo, -1.0, 1))
        # each check bounds a mix of windows by its limit, L the lower ones and
        # U the upper ones negated: window sign sin^2(p + shift) + offset, held
        # at its clip (an empty sector's window), loosest at the last angle
        self.lims = (2.0 * r_err + 2.0 * e5 + FEAS_TOL, -2.0 * r_err + 2.0 * e5 + FEAS_TOL)
        self.checks = ((1.0, -theta, -self.e7, 0.0, theta),
                       (-1.0, theta, -self.e8, -1.0, _HALF_PI - theta))
        # the zero-slack skews (a, d), which zero-width bands pin
        self.skews = (delta - gap, delta)
        # a zero-width band's sides are one surface, its multiplier of either sign
        self.equal = {"s": e2 == 0.0, "f": e4 == 0.0}
        # each row of constraints() as (check, F, G): g = (1 - y) F(t0) + y G(t1),
        # F and G the (A, B, C) of A + B cos t + C sin t, y = x for a band (check
        # None), a check's mass otherwise; a window's C is -sin(2 theta)/2
        c2, s2 = math.cos(2.0 * theta), math.sin(2.0 * theta)
        self.table = [(None, (-shi, -1.0, 0.0), (-shi, -1.0, 0.0)), (None, (slo, 1.0, 0.0), (slo, 1.0, 0.0)),
                      (None, (-fhi, -1.0, 0.0), (-fhi, 1.0, 0.0)), (None, (flo, 1.0, 0.0), (flo, -1.0, 0.0))]
        for c, (A, B, clip) in enumerate(((0.5 - self.e7, -0.5 * c2, 0.0), (-0.5 - self.e8, 0.5 * c2, -1.0))):
            w, held = (A - self.lims[c], B, -0.5 * s2), (clip - self.lims[c], 0.0, 0.0)
            self.table += [(c, w, w), (c, w, held), (c, held, w)]

    def angles(self, x: float):
        """Sector angles at x for the zero-slack skews, None for an empty sector's."""
        return tuple(0.5 * math.acos(min(max(-skew / mass, -1.0), 1.0)) if mass > 0.0 else None
                     for skew, mass in zip(self.skews, (1.0 - x, x)))

    def _windows(self, p):
        """Each check's window at sector angle p, held at its clip: b92_angle_bounds' lo and -hi."""
        lo, hi = b92_angle_bounds(p, self.theta, self.e7, self.e8)
        return lo, -hi

    def rows(self, slopes, a, b):
        """The row table: each constraint as (num, den, shift), met where x <=
        num/den + shift if den > 0, x >= num/den - shift if den < 0, and
        nowhere if num < min(den, 0).  The band rows, shi, slo, fhi, flo, each
        at its (c0, k) in ``slopes`` (none if it is empty), lo <= -c0 + x k <=
        hi: (hi + c0, k), (-lo - c0, -k); then a row per check and its windows
        a, b in the two sectors: some y in [0, 1] within eps6 of x with a + y
        (b - a) <= lim, (lim - a, b - a)."""
        return ([(A + s * c0, s * k[j], 0.0) for (_, A, s, j), (c0, k) in zip(self.band_rows, slopes)]
                + [(lim - u, v - u, self.e6) for lim, u, v in zip(self.lims, a, b)])

    def x_top(self, p0: float, p1: float) -> tuple[float, float]:
        """The largest x at (p0, p1) meeting each row that bounds x from above
        to within ROUND in the row's units, and the largest shortfall there,
        in its units, of one bounding x from below (0 and inf if a row misses
        by more everywhere).  Not in x: a check whose windows nearly vanish
        moves little with x, so rounding can move its bound far past a band's."""
        top, lows = 1.0, [(0.0, 1.0)]
        for num, den, shift in self.rows((_slopes(p0, p1),) * 4, self._windows(p0), self._windows(p1)):
            if num < (den if den < 0.0 else 0.0) - ROUND:
                return 0.0, math.inf
            if den > 0.0:
                top = min(top, num / den + shift + ROUND / den)
            elif den < 0.0:
                lows.append((num / den - shift, -den))
        return top, max((x - top) * scale for x, scale in lows)

    def value(self, p0: float, p1: float) -> float:
        """x (1 - gap cos 2p1) at x_top; -inf where a lower bound falls short by over ROUND."""
        top, short = self.x_top(p0, p1)
        return top * (1.0 - self.gap * math.cos(2.0 * p1)) if short <= ROUND else -math.inf

    def constraints(self, x: float, p0: float, p1: float) -> dict:
        """Every constraint g <= 0 at (x, p0, p1) as name -> (g, its gradient,
        and its second derivatives in x p0, x p1, p0 p0, p1 p1; the others
        vanish): each table row as g = y den - num, y = x for a band.  As
        the check's mass y = x -+ eps6 is clipped to [0, 1], a check is the
        larger of its raw row (00) and its rows with the sector-1 or -0
        window held (01, 10) at the clipped y; the raw row stays implied past
        the clip, so a solve may cross the kink.  No row marks the kink: the
        raw row at y's end, eased by y's distance to it, lies (1 - y)(h + 1 - b)
        >= 0 below the held row 10 if y < 1, y (h + 1 - a) below 01 if y > 0
        (a window lies within 1 of its clip), and is that held row past it."""
        c0, k = _slopes(p0, p1)
        c1, d0, d1 = math.cos(2.0 * p1), -2.0 * math.sin(2.0 * p0), -2.0 * math.sin(2.0 * p1)
        out = {"one": (x - 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
               "p0lo": (-p0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
               "p0hi": (p0 - _HALF_PI, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
               "p1lo": (-p1, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0),
               "p1hi": (p1 - _HALF_PI, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)}
        # a band row: num = A + s c0 and den = s k_j, k_j = c0 -+ c1
        m4c0 = -4.0 * c0
        for name, A, s, j in self.band_rows:
            sg = s if j else -s
            out[name] = (x * (s * k[j]) - (A + s * c0), s * k[j], s * (x * d0 - d0), sg * x * d1,
                         s * d0, sg * d1, s * (x * m4c0 - m4c0), -4.0 * sg * x * c1)
        # a check row: num = lim - u and den = v - u, its windows u and v the
        # sector-0 and -1 ones (a, b) or the held one (h)
        for name, lim, (m, shift, offset, h, _) in zip("LU", self.lims, self.checks):
            (a, a1, a2), (b, b1, b2) = [
                (m * math.sin(q + shift) ** 2 + offset, m * math.sin(2.0 * (q + shift)),
                 2.0 * m * math.cos(2.0 * (q + shift)))
                for q in (p0, p1)]
            end = max(b, h) < max(a, h)
            y = x + self.e6 if end else x - self.e6
            yc = min(max(y, 0.0), 1.0)
            dy = float(yc == y)
            out[name + "00"] = (y * (b - a) - (lim - a), b - a, a1 - y * a1, y * b1, -a1, b1,
                                a2 - y * a2, y * b2)
            out[name + "01"] = (yc * (h - a) - (lim - a), dy * (h - a), a1 - yc * a1, 0.0, -dy * a1, 0.0,
                                a2 - yc * a2, 0.0)
            out[name + "10"] = (yc * (b - h) - (lim - h), dy * (b - h), 0.0, yc * b1, 0.0, dy * b1,
                                0.0, yc * b2)
        return out

    def _search(self, W, z, cons, rho):
        """Newton steps for the largest x (1 - gap cos 2p1) on g_W = 0 from z:
        a least-norm step back onto the linearised surface, then a reduced
        Newton step along it, or a climb where the objective has no maximum
        along it; multipliers by least squares; angle steps capped at rho,
        which doubles.  Returns (z, its constraints, multipliers, blocker):
        blocker None when the steps vanish, "stuck" when twelve do not,
        "singular" when the surfaces are degenerate, else the constraint the
        last step crossed, with z put back onto it."""
        for _ in range(12):
            x, p0, p1 = z
            c1, dw = math.cos(2.0 * p1), 2.0 * self.gap * math.sin(2.0 * p1)
            grad = (1.0 - self.gap * c1, 0.0, x * dw)
            rows = [cons[key][1:4] for key in W]
            gram = [[_dot(u, v) for v in rows] for u in rows]
            solved = _cramer(gram, [_dot(r, grad) for r in rows], [-cons[key][0] for key in W])
            if solved is None:
                return z, cons, [0.0] * len(W), "singular"
            lam, mu = solved
            step = [0.0, 0.0, 0.0]
            for m, r in zip(mu, rows):
                step = [step[0] + m * r[0], step[1] + m * r[1], step[2] + m * r[2]]
            climb = False
            if len(W) < 3:
                H = [[0.0, 0.0, dw], [0.0, 0.0, 0.0], [dw, 0.0, 4.0 * self.gap * c1 * x]]
                lg = list(grad)
                for l, key in zip(lam, W):
                    _, gx, g0, g1, hx0, hx1, h00, h11 = cons[key]
                    lg = [lg[0] - l * gx, lg[1] - l * g0, lg[2] - l * g1]
                    H[0][1] = H[1][0] = H[0][1] - l * hx0
                    H[0][2] = H[2][0] = H[0][2] - l * hx1
                    H[1][1], H[2][2] = H[1][1] - l * h00, H[2][2] - l * h11
                T = _tangents(rows)
                if T is None:
                    return z, cons, lam, "singular"
                HT = [[_dot(H[i], t) for i in range(3)] for t in T]
                R = [[_dot(u, t) for t in T] for u in HT]
                concave = R[0][0] < 0.0 and (len(T) == 1 or R[0][0] * R[1][1] > R[0][1] * R[1][0])
                rhs = [-_dot(t, lg) - _dot(u, step) for t, u in zip(T, HT)]
                solved = _cramer(R, rhs) if concave else None
                if solved is not None:
                    move = solved[0]
                else:
                    slope = [_dot(t, lg) for t in T]
                    norm = math.sqrt(sum(s * s for s in slope))
                    # a flat surface, as at x = 1 where p0 is free, is no climb
                    if norm > 1e-12 * (abs(grad[0]) + abs(grad[2])):
                        move, climb = [rho * s / norm for s in slope], True
                    else:
                        move = [0.0] * len(T)
                for m, t in zip(move, T):
                    step = [s + m * u for s, u in zip(step, t)]
            size = abs(step[0]) + abs(step[1]) + abs(step[2])
            scale = min(1.0, rho / max(abs(step[1]), abs(step[2]), 1e-300))
            new = [u + scale * s for u, s in zip(z, step)]
            after = self.constraints(*new)
            # the far side of a band on the surface is met once the steps vanish
            crossed = [(max(cons[key][0] / (cons[key][0] - g[0]), 0.0) if cons[key][0] < g[0]
                        else 0.0, key) for key, g in after.items()
                       if g[0] > 1e-12 and key not in W and not any(_clash(key, k) for k in W)]
            if crossed:
                t, key = min(crossed)
                z = [u + t * (v - u) for u, v in zip(z, new)]
                return z, self.constraints(*z), lam, key
            z, cons = new, after
            # converged: 1e-14 is about 30 ulps of an angle near pi/2, where
            # a stop at a tenth of it left searches stuck
            if scale == 1.0 and size < 1e-14 and not climb:
                return z, cons, lam, None
            rho *= 2.0
        return z, cons, lam, "stuck"

    def polish(self, p0: float, p1: float, h: float, vertex: bool = False):
        """The best (value, p0, p1) an active-set search meets from the angles
        (p0, p1), h their distance scale, and the KKT point it ends at as (z,
        working set, multipliers), None if it ends at none:
        the working set starts as the constraints active there, gains each
        one a step crosses, and drops one whose multiplier is negative.  With
        ``vertex``, (p0, p1) are the zero-slack vertex's angles, and two rows
        that bind there start the set: the sender-marginal band's upper side
        and the raw L check (a seeded row whose multiplier is negative is
        dropped like any other)."""
        z = [self.x_top(p0, p1)[0], p0, p1]
        best = (self.value(p0, p1), p0, p1)
        if best[0] == -math.inf:
            return best, None
        cons = self.constraints(*z)
        W = ["fhi", "L00"] if vertex else []
        for dist, key in sorted((-g[0] / _norm(g), key) for key, g in cons.items() if _norm(g)):
            if dist <= 1e-6 * h and len(W) < 3 and not any(_clash(key, k) for k in W):
                W.append(key)
        stuck = False
        for _ in range(12):
            z, cons, lam, blocker = self._search(W, z, cons, 2.0 * h)
            # a step to the edge of the square may round past it
            z[1:] = [min(max(p, 0.0), _HALF_PI) if -1e-12 < p < _HALF_PI + 1e-12 else p
                     for p in z[1:]]
            inside = 0.0 <= z[1] <= _HALF_PI and 0.0 <= z[2] <= _HALF_PI
            v = self.value(z[1], z[2]) if inside else -math.inf
            best = max(best, (v, z[1], z[2]))
            # a singular set ends the search; one that runs out of steps goes on
            # once from where it stopped
            if blocker == "singular" or (blocker == "stuck" and stuck):
                break
            stuck = blocker == "stuck"
            if stuck:
                continue
            if blocker is not None:
                # keep the two surfaces the blocked step had come closest to
                W = sorted((k for k in W if not _clash(k, blocker)),
                           key=lambda k: abs(cons[k][0]) / max(_norm(cons[k]), 1e-300))[:2]
                W.append(blocker)
            else:
                signed = [(l, n) for n, (l, k) in enumerate(zip(lam, W))
                          if not self.equal.get(k[0], False)]
                if min(signed, default=(0.0, 0))[0] >= -1e-10:
                    # the search's earlier points may round a little higher
                    return best, (z, W, lam) if v >= best[0] - ROUND * abs(best[0]) else None
                W.pop(min(signed)[1])
        return best, None

    def shortfall(self, x: float) -> float:
        """The largest check-row shortfall y den - num at x when both bands pin the
        skews, <= 0 where x is feasible: y is x -+ eps6 clipped to [0, 1], an empty
        sector's window its clip."""
        clip = [check[3] for check in self.checks]
        w0, w1 = (clip if p is None else self._windows(p) for p in self.angles(x))
        ys = [min(max(x + e, 0.0), 1.0) for e in (-self.e6, self.e6)]
        return max(min(y * den for y in ys) - num for num, den, _ in self.rows((), w0, w1))

    def pinned_top(self, seed):
        """The largest feasible x when both bands pin the skews, or None: the
        domain's top if feasible, else bisection, until no float lies between
        the ends, up from the zero-slack x if it is feasible, else from the first
        feasible x of a golden section on the shortfall (convex at eps6 = 0)."""
        lo, hi = abs(self.skews[1]), 1.0 - abs(self.skews[0])
        if lo > hi or self.shortfall(hi) <= 0.0:
            return hi if lo <= hi else None
        if seed is None or self.shortfall(x := min(max(seed[0], lo), hi)) > 0.0:
            g = functools.cache(self.shortfall)
            a, b, r = lo, hi, 0.5 * (3.0 - math.sqrt(5.0))
            c, d = a + r * (b - a), b - r * (b - a)
            while min(g(c), g(d)) > 0.0:
                if not a < c < d < b:
                    return None
                if g(c) <= g(d):
                    b, d, c = d, c, a + r * (d - a)
                else:
                    a, c, d = c, d, b - r * (b - c)
            x = c if g(c) <= 0.0 else d
        while x < (mid := 0.5 * (x + hi)) < hi:
            x, hi = (mid, hi) if self.shortfall(mid) <= 0.0 else (x, mid)
        return x

    def edge(self, x: float):
        """x (1 - gap cos 2p) at the best angle p of the occupied sector when
        x = 0 or 1 empties the other; None if no angle is feasible."""
        m = min(self.e6, 1.0)
        (slo, shi), (flo, fhi) = self.bands
        # s = -c, and f = -c at x = 0 or c at x = 1
        c_lo, c_hi = max(-shi, flo if x else -fhi, -1.0), min(-slo, fhi if x else -flo, 1.0)
        if c_lo > c_hi + ROUND:
            return None
        lo, hi = 0.5 * math.acos(min(c_hi, 1.0)), 0.5 * math.acos(max(c_lo, -1.0))
        # the check mixes a window with an empty sector's: (1-m) L <= Wh, (1-m) U + m >= Wl
        if m == 1.0:
            return None if -self.lims[1] > 1.0 else x * (1.0 - self.gap * math.cos(2.0 * hi))
        cap, need = self.lims[0] / (1.0 - m) + self.e7, (-self.lims[1] - m) / (1.0 - m)
        if need > 1.0:
            return None
        if cap < 1.0:
            r = math.asin(math.sqrt(cap))
            lo, hi = max(lo, self.theta - r), min(hi, self.theta + r)
        if need - self.e8 > 0.0:
            r = math.asin(math.sqrt(need - self.e8))
            lo, hi = max(lo, r - self.theta), min(hi, math.pi - r - self.theta)
        # an angle window that closes to rounding is a touching point
        return None if lo > hi + ROUND else x * (1.0 - self.gap * math.cos(2.0 * hi))

    def _sums(self, x, ends, mu):
        """(A0, B0, C0, A1, B1, C1): -sum mu_r g_r as A + B cos t + C sin t in
        each sector at x, mu a dict of table rows to multipliers and each
        check's mass x + ends[check] clipped to [0, 1]."""
        a0 = b0 = c0 = a1 = b1 = c1 = 0.0
        for r, m in mu.items():
            c, F, G = self.table[r]
            y = x if c is None else min(max(x + ends[c], 0.0), 1.0)
            u, v = m * (1.0 - y), m * y
            a0, b0, c0 = a0 - u * F[0], b0 - u * F[1], c0 - u * F[2]
            a1, b1, c1 = a1 - v * G[0], b1 - v * G[1], c1 - v * G[2]
        return a0, b0, c0, a1, b1, c1

    def lagrangian(self, x: float, ends, mu) -> tuple[float, float]:
        """The largest value over the angles of x (1 - gap cos t1) - sum mu_r
        g_r at x (_sums), and of the sum alone (psi; negative where x admits
        no point).  Each sector's part is largest over t in [0, pi] at its
        crest, A + hypot(B, C), as C >= 0 (a window's C is -sin(2 theta)/2
        and a band's 0, so -mu g adds C >= 0)."""
        a0, b0, c0, a1, b1, c1 = self._sums(x, ends, mu)
        rest = a0 + math.hypot(b0, c0) + a1
        return rest + x + math.hypot(b1 - x * self.gap, c1), rest + math.hypot(b1, c1)

    def _parts(self, x, ends, t0, t1, W):
        """(g, dg/dt0, dg/dt1) of each row of W at (x, t0, t1)."""
        c0, s0, c1, s1 = math.cos(t0), math.sin(t0), math.cos(t1), math.sin(t1)
        out = []
        for r in W:
            if r >= 10:
                out.append(((-t0, t0 - math.pi, -t1, t1 - math.pi)[r - 10], *_BOX[r - 10]))
                continue
            c, F, G = self.table[r]
            y = x if c is None else min(max(x + ends[c], 0.0), 1.0)
            out.append(((1.0 - y) * (F[0] + F[1] * c0 + F[2] * s0) + y * (G[0] + G[1] * c1 + G[2] * s1),
                        (1.0 - y) * (F[2] * c0 - F[1] * s0), y * (G[2] * c1 - G[1] * s1)))
        return out

    def _vertex(self, x, ends, W, t0, t1):
        """(t0, t1, multipliers) where the rows W bind at x and the objective
        is stationary along them; a ray {row: 1} where one row alone admits
        no angles; None where no point is found."""
        if not W:
            return t0, math.pi, {}
        if len(W) == 1:
            r, = W
            if r >= 10:
                return (0.0 if r == 10 else math.pi if r == 11 else t0), math.pi, {r: 0.0}
            c, F, G = self.table[r]
            y = x if c is None else min(max(x + ends[c], 0.0), 1.0)
            if y < 1.0 and (F[1] or F[2]):
                # F's least value on [0, pi]
                t0 = math.atan2(0.0 - F[2], -F[1])
            rest = (1.0 - y) * (F[0] + F[1] * math.cos(t0) + F[2] * math.sin(t0)) + y * G[0]
            R, phase = y * math.hypot(G[1], G[2]), math.atan2(G[2], G[1])
            # y (G - G0) = R cos(t1 - phase) <= -rest: at t1 = pi if it holds there,
            # else at the foot of the arc around pi where it fails; a ray if no t1 passes
            if R * math.cos(math.pi - phase) <= -rest:
                return t0, math.pi, {r: 0.0}
            if R == 0.0 or -rest < -R:
                return {r: 1.0}
            centre = phase + 2.0 * math.pi * round((math.pi - phase) / (2.0 * math.pi))
            if (t1 := centre - math.acos(-rest / R)) < 0.0:
                return {r: 1.0}
            slope = y * (G[2] * math.cos(t1) - G[1] * math.sin(t1))
            return (t0, t1, {r: x * self.gap * math.sin(t1) / slope}) if slope else None
        # two rows: Newton steps on (t0, t1) until both rows bind to rounding
        for _ in range(16):
            (ga, a0, a1), (gb, b0, b1) = self._parts(x, ends, t0, t1, W)
            det = a0 * b1 - a1 * b0
            if abs(ga) + abs(gb) <= 1e-15 or det == 0.0:
                break
            t0, t1 = t0 - (ga * b1 - a1 * gb) / det, t1 - (a0 * gb - ga * b0) / det
        if abs(ga) + abs(gb) > 1e-15:
            return None
        if not (-1e-12 <= t0 <= math.pi + 1e-12 and -1e-12 <= t1 <= math.pi + 1e-12):
            return None
        t0, t1 = min(max(t0, 0.0), math.pi), min(max(t1, 0.0), math.pi)
        (_, a0, a1), (_, b0, b1) = self._parts(x, ends, t0, t1, W)
        det, pull = a0 * b1 - a1 * b0, x * self.gap * math.sin(t1)
        return (t0, t1, {W[0]: -b0 * pull / det, W[1]: a0 * pull / det}) if det else None

    def _ray(self, x, ends, rows):
        """A ray on up to three table rows, a mix nu of them where their psi
        at x falls below 0, or None.  psi is convex and smooth in the mix, so
        Newton steps on the mix's last k - 1 weights, cut back to the
        simplex and to a fall in psi, find its least value."""
        sums = [self._sums(x, ends, {r: 1.0}) for r in rows]
        d = [[v - w for w, v in zip(sums[0], t)] for t in sums[1:]]

        def psi(u):
            s = [w + sum(ui * e[k] for ui, e in zip(u, d)) for k, w in enumerate(sums[0])]
            return s, math.hypot(s[1], s[2]), math.hypot(s[4], s[5])

        u = [0.5] + [0.0] * (len(d) - 1)
        s, h0, h1 = psi(u)
        for _ in range(20):
            value = s[0] + h0 + s[3] + h1
            if value < -1e-14:
                return dict(zip(rows, [1.0 - sum(u)] + u))
            if h0 == 0.0 or h1 == 0.0:
                return None
            # off the simplex's faces, where a sector's part may have a kink
            g = [e[0] + e[3] + (s[1] * e[1] + s[2] * e[2]) / h0 + (s[4] * e[4] + s[5] * e[5]) / h1 for e in d]
            q = [((e[1] * s[2] - s[1] * e[2]) / h0 ** 1.5, (e[4] * s[5] - s[4] * e[5]) / h1 ** 1.5) for e in d]
            H = [[a[0] * b[0] + a[1] * b[1] for b in q] for a in q]
            step = _cramer(H, [-v for v in g])
            step = step[0] if step else [-v for v in g]
            # stop where Newton's predicted fall is at rounding: psi's least value is >= 0
            if -0.5 * sum(a * b for a, b in zip(g, step)) < 1e-15 * (1.0 + abs(value)):
                return None
            for k in range(12):
                t = [max(ui + 0.5 ** k * di, 1e-12) for ui, di in zip(u, step)]
                t = [v * min(1.0, (1.0 - 1e-12) / sum(t)) for v in t]
                trial = psi(t)
                if trial[0][0] + trial[1] + trial[0][3] + trial[2] < value:
                    u, (s, h0, h1) = t, trial
                    break
            else:
                return None
        return None

    def _start(self, x):
        """The largest d at x under the bands and |a| <= 1 - x, |d| <= x alone,
        as a working set and angles for fixed(), or a ray of two band rows
        where they admit no point."""
        (slo, shi), (flo, fhi) = self.bands
        up = min(((x, ()), ((shi - flo) / 2.0, (0, 3)), (shi + 1.0 - x, (0, 10)), (1.0 - x - flo, (3, 11))))
        low = max(((-x, ()), ((slo - fhi) / 2.0, (1, 2)), (slo - 1.0 + x, (1, 11)), (x - 1.0 - fhi, (2, 10))))
        if low[0] > up[0]:
            return {r: 1.0 for r in up[1] + low[1] if r < 10}
        d = up[0]
        a = {(0, 3): 0.5 * (shi + flo), (0, 10): x - 1.0, (3, 11): 1.0 - x}.get(
            up[1], 0.5 * (max(slo - d, flo + d, x - 1.0) + min(shi - d, fhi + d, 1.0 - x)))
        return (list(up[1]), math.acos(min(max(-a / (1.0 - x), -1.0), 1.0)) if x < 1.0 else _HALF_PI,
                math.acos(min(max(-d / x, -1.0), 1.0)) if x > 0.0 else _HALF_PI)

    def fixed(self, x, ends, W, t0, t1, rays=True):
        """The largest x (1 - gap cos t1) at a fixed x and check ends by an
        active-set (dual simplex) search from the rows W and angles (t0, t1):
        ("point", t0, t1, multipliers, W), ("ray", multipliers) where x
        admits no point, or None where the search fails.  A violated row
        enters; the null combination of the three rows' angle gradients
        either proves x infeasible (all of one sign) or names the row that
        leaves.  Where two rows do not cross, ``rays`` lets _ray look for a
        ray on them and the row most violated without the first."""
        W, failed = list(W), set()
        for _ in range(12):
            sol = self._vertex(x, ends, W, t0, t1)
            if sol is None and len(W) == 2:
                # two rows that do not cross: the entering one alone where its
                # point meets the other, else a ray on the two and the row the
                # lone point violates most, if there is one
                alone, rows = self._vertex(x, ends, W[1:], t0, t1), W
                if isinstance(alone, tuple):
                    g = [p[0] for p in self._parts(x, ends, alone[0], alone[1], range(10))]
                    if g[W[0]] <= 1e-14:
                        W = W[1:]
                        continue
                    rows = W + [max((r for r in range(10) if r not in W), key=g.__getitem__)]
                for k in ((0, 1), (1, 2), (0, 2), (0, 1, 2)) if rays else ():
                    sub = [rows[i] for i in k if i < len(rows)]
                    if len(sub) == len(k) and max(sub) < 10 and (ray := self._ray(x, ends, sub)):
                        return "ray", ray
                if frozenset(W) in failed:
                    return None
                failed.add(frozenset(W))
                W = W[1:]
                continue
            if not isinstance(sol, tuple):
                return sol and ("ray", sol)
            t0, t1, mu = sol
            if W and mu[low := min(W, key=mu.get)] < 0.0:
                W.remove(low)
                continue
            g = [p[0] for p in self._parts(x, ends, t0, t1, range(14))]
            worst, w = max((g[r], r) for r in range(14) if r not in W)
            if worst <= 1e-14:
                return "point", t0, t1, {r: m for r, m in mu.items() if r < 10}, W
            if _CLASH.get(w) in W:
                W.remove(_CLASH[w])
            elif len(W) == 2:
                parts = self._parts(x, ends, t0, t1, W + [w])
                nu = _cross([p[1] for p in parts], [p[2] for p in parts])
                nu = nu if nu[2] > 0.0 else [-v for v in nu]
                if min(nu) >= 0.0:
                    return "ray", {r: v for r, v in zip(W + [w], nu) if r < 10 and v > 0.0}
                W.remove(min((mu[r] / -v, r) for r, v in zip(W, nu) if v < 0.0)[1])
            W.append(w)
        return None

    def _combos(self, ends, mu):
        """The check ends a bound must cover: a check's fixed end, else both
        ends if mu weighs its rows, else one."""
        used = {self.table[r][0] for r in mu}
        out = [()]
        for c, end in enumerate(ends):
            opts = (end,) if end is not None else (-self.e6, self.e6) if c in used else (self.e6,)
            out = [o + (v,) for o in out for v in opts]
        return out

    def excess(self, x, ray, mu, ends, target):
        """How far the bound at x, over the check ends ``ends`` (from
        _combos), lies above target, or a ray's psi above -1e-14 sum(mu), so
        that no point misses every row by under 1e-14: x is closed where it
        is <= 0."""
        k, lim = (1, -1e-14 * sum(mu.values())) if ray else (0, target)
        return max(self.lagrangian(x, e, mu)[k] for e in ends) - lim

    def extend(self, x0, lim, ray, mu, ends, target, step):
        """A point toward lim that the bound closes, x0 closed: lim itself, or
        the last closed point of steps growing 8-fold from ``step``, moved
        toward the first open one by Illinois steps on the convex excess."""
        f = functools.partial(self.excess, ray=ray, mu=mu, ends=self._combos(ends, mu), target=target)
        if (f_lim := f(lim)) <= 0.0:
            return lim
        a, fa, b, fb = x0, None, x0 + step, f_lim
        while a != b and abs(b - x0) < abs(lim - x0) and (fb := f(b)) <= 0.0:
            a, fa, b = b, fb, x0 + 8.0 * (b - x0)
        if a == b or abs(b - x0) >= abs(lim - x0):
            b, fb = lim, f_lim
        fa, side = f(a) if fa is None else fa, 0
        for _ in range(3):
            c = a + (b - a) * fa / (fa - fb)
            if (fc := f(c)) <= 0.0:
                a, fa, fb, side = c, fc, fb * (0.5 if side < 0 else 1.0), -1
            else:
                b, fb, fa, side = c, fc, fa * (0.5 if side > 0 else 1.0), 1
            if abs(b - a) <= 0.1 * abs(a - x0):
                break
        return a

    def _cert(self, x, ends, hint):
        """fixed() at x, from the working set and angles of ``hint`` (a
        neighbour's; no ray search, as a start far from x may fail where x has
        points) and then from _start's; a ray where the bands alone admit no
        point."""
        start = self._start(x)
        if isinstance(start, dict):
            return "ray", start
        for W, t0, t1, rays in ([(*hint[:3], False)] if hint else []) + [(*start, True)]:
            if out := self.fixed(x, ends, W, t0, t1, rays):
                return out
        return None

    def _seeds(self, kkt):
        """The check ends at polish()'s KKT point (z, working set,
        multipliers) and multipliers certifying x near it: its own, and where
        three table rows bind, for each side along x the same less the null
        combination of their angle gradients until a row drops, or that
        combination as a ray where no row drops."""
        (x, p0, p1), W, lam = kkt
        ends = tuple(self.e6 if max(m * math.sin(p1 + sh) ** 2 + off, h) < max(m * math.sin(p0 + sh) ** 2 + off, h)
                     else -self.e6 for m, sh, off, h, _ in self.checks)
        other, mu = {"shi": "slo", "slo": "shi", "fhi": "flo", "flo": "fhi"}, {}
        for name, m in zip(W, lam):
            name, m = (other[name], -m) if name in other and m < 0.0 else (name, m)
            if name in NAMES and m > 0.0:
                mu[NAMES.index(name)] = m
        seeds, rows = [(False, mu)], list(mu)
        if len(rows) == 3:
            parts = self._parts(x, ends, 2.0 * p0, 2.0 * p1, rows)
            nu = _cross([p[1] for p in parts], [p[2] for p in parts])
            for n in (nu, [-v for v in nu]):
                if cut := [mu[r] / -v for r, v in zip(rows, n) if v < 0.0]:
                    seeds.append((False, {r: max(mu[r] + min(cut) * v, 0.0) for r, v in zip(rows, n)}))
                else:
                    seeds.append((True, {r: v for r, v in zip(rows, n) if v > 0.0}))
        return x, ends, seeds

    def _around(self, items, kkt, target):
        """The x-intervals ``items`` less what the multipliers of polish()'s
        KKT point ``kkt`` close (_seeds), each over both ends of the checks it
        weighs, else over the optimum's ends, from the point, or from an end
        of a part left; and the optimum's check ends."""
        x_star, ends0, seeds = self._seeds(kkt)
        for ray, mu in seeds:
            kept = []
            for a, b, ends, ca, cb, hint in items:
                own = tuple(ends0[c] if e is None and c in {self.table[r][0] for r in mu} else e
                            for c, e in enumerate(ends))
                # from the point, or from the end of a part that a seed closed up to
                starts = [x_star] if a <= x_star <= b else [v for v, c in ((a, ca), (b, cb)) if c == x_star]
                x0 = None
                for trial in (ends, own) if own != ends else (ends,):
                    x0 = next((v for v in starts if self.excess(v, ray, mu, self._combos(trial, mu), target) <= 0.0),
                              None)
                    if x0 is not None:
                        break
                if x0 is None:
                    kept.append((a, b, ends, ca, cb, hint))
                    continue
                for c, e in enumerate(trial):
                    if ends[c] is None and e is not None:
                        kept.append((a, b, trial[:c] + (-e,) + ends[c + 1:], ca, cb, hint))
                left = self.extend(x0, a, ray, mu, trial, target, -1e-7) if x0 > a else a
                right = self.extend(x0, b, ray, mu, trial, target, 1e-7) if x0 < b else b
                kept += [(a, left, trial, ca, x0, hint)] if left > a else []
                kept += [(right, b, trial, x0, cb, hint)] if right < b else []
            items = kept
        return items, ends0

    def search(self, point, kkt):
        """Certify the best point (value, x) over x in [0, 1] by branch and
        bound, from polish()'s KKT point ``kkt`` (or None): the range is cut
        at eps6 and 1 - eps6, where a check's mass clips, and an interval is
        closed by the bound of some multipliers, over both ends of each check
        they weigh, at its two ends (by convexity), first by the KKT point's
        (_around), then by fixed() at a point stepped out from the nearer
        closed neighbour.  A point that beats the best by TOL is witnessed,
        polished and closed around in turn.  Returns the best point and the
        largest bound of an interval left open when _WORK fixed-x solves are
        spent (-inf if none)."""
        work, bound, ends0 = 0, -math.inf, (self.e6, self.e6)
        cuts = sorted({0.0, 1.0} | {v for v in (self.e6, 1.0 - self.e6) if 0.0 < v < 1.0})
        free = (None, None) if self.e6 > 0.0 else (0.0, 0.0)
        stack = [(lo, hi, free, None, None, None) for lo, hi in zip(cuts, cuts[1:])]
        if kkt:
            stack, ends0 = self._around(stack, kkt, point[0] + TOL)
        while stack:
            lo, hi, ends, lo_c, hi_c, hint = stack.pop()
            target = point[0] + TOL
            if hi * (1.0 + self.gap) <= target:
                continue  # the bound with no multipliers, x (1 - gap cos t1) at x = hi
            if work == _WORK:
                mu = hint[3] if hint else {}
                bound = max(bound, *(self.excess(v, False, mu, self._combos(ends, mu), 0.0) for v in (lo, hi)))
                continue
            work += 1
            steps = ([(lo - lo_c, lo + 0.85 * (lo - lo_c))] if lo_c is not None else []) + (
                [(hi_c - hi, hi - 0.85 * (hi_c - hi))] if hi_c is not None else [])
            x0 = min(steps)[1] if steps else 0.5 * (lo + hi)
            x0 = x0 if lo < x0 < hi else 0.5 * (lo + hi)
            out = self._cert(x0, tuple(ends0[c] if e is None else e for c, e in enumerate(ends)), hint)
            if out and out[0] == "point":
                _, t0, t1, mu, W = out
                hint = (W, t0, t1, mu)
                if x0 * (1.0 - self.gap * math.cos(t1)) > target:
                    p0, p1 = 0.5 * t0, 0.5 * t1
                    best, kkt = self._climb(max((self.value(p0, p1), p0, p1), (point[0], -1.0, -1.0)), p0, p1)
                    if best[0] <= target:
                        # no witness beats the best: the interval stays open at its bound
                        bound = max(bound, *(self.excess(v, False, mu, self._combos(ends, mu), 0.0)
                                             for v in (lo, hi)))
                        continue
                    # without a KKT point, bisect: a step out would creep along a sliver
                    point, item = (best[0], self.x_top(*best[1:])[0]), [
                        (lo, hi, ends, lo_c, hi_c, hint) if kkt else (lo, hi, ends, None, None, hint)]
                    stack += self._around(item, kkt, best[0] + TOL)[0] if kkt else item
                    continue
            elif out:
                mu = out[1]
            ray = bool(out) and out[0] == "ray"
            if out and self.excess(x0, ray, mu, self._combos(ends, mu), target) > 0.0:
                out = None
            if out is None and None in ends:
                c = ends.index(None)
                stack += [(lo, hi, ends[:c] + (e,) + ends[c + 1:], lo_c, hi_c, hint) for e in (-self.e6, self.e6)]
            elif out is None:
                mid = 0.5 * (lo + hi)
                stack += [(lo, mid, ends, None, None, hint), (mid, hi, ends, None, None, hint)]
            else:
                step = 1e-3 * (hi - lo)
                right = self.extend(x0, hi, ray, mu, ends, target, step)
                left = self.extend(x0, lo, ray, mu, ends, target, -step)
                stack += [(right, hi, ends, x0, hi_c, hint)] if right < hi else []
                stack += [(lo, left, ends, lo_c, x0, hint)] if left > lo else []
        return point, bound

    def _climb(self, best, p0, p1, vertex=False):
        """The better of best and the best (value, p0, p1) polish() meets
        from (p0, p1), on ever finer scales until it ends at a KKT point
        (first on the zero-slack vertex's two rows if ``vertex``), and that
        KKT point (None if none): on a sliver the maximum lies a few 1e-8
        from the start."""
        for h, v in ((0.02, True), (0.02, False), (1e-4, False), (1e-7, False))[0 if vertex else 1:]:
            cand, kkt = self.polish(p0, p1, h, v)
            best = max(best, cand)
            if kkt:
                return best, kkt
        return best, None

    def ceiling(self, seed):
        """(value, x, open bound): the best witnessed x + gap d, over the
        interior angles, from those of the zero-slack optimum ``seed`` = (x,
        delta) if 0 < x < 1, and over the empty-sector edges, or along x alone
        when the bands pin the skews, certified over x by search(); its x; and
        the largest bound of an interval left open (-inf if none).  None
        where no point is found, open intervals or not: no key."""
        if self.equal["s"] and self.equal["f"]:
            x = self.pinned_top(seed)
            return None if x is None else (x + self.gap * self.skews[1], x, -math.inf)
        best, kkt = (-math.inf, 0.0, 0.0), None
        if seed is not None and 0.0 < seed[0] < 1.0:
            best, kkt = self._climb(best, *self.angles(seed[0]), vertex=True)
        point = (best[0], self.x_top(*best[1:])[0])
        for side in (1.0, 0.0):
            if (found := self.edge(side)) is not None and found > point[0]:
                point = (found, side)
        (value, x), bound = self.search(point, kkt)
        return None if value == -math.inf else (value, x, bound)
