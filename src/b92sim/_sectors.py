"""The slacked finite-size ceiling, solved over the two sectors' outcome angles.

The data-side count matrix is (v00, v01, v10, v11) = ((1-x-a), (x+d),
(x-d), (1-x+a))/2.  Its correlated and anticorrelated sectors have outcome
ratios sin^2(p0) = v11/(1-x) and sin^2(p1) = v01/x, so a = -(1-x) cos 2p0
and d = -x cos 2p1, and each sector's check windows [sin^2(p -+ theta)
-+ eps7/eps8] depend on its angle alone.  At fixed angles every constraint
is then linear in x, a row of one table (Sectors.rows) that all but the
closed-form edges read: the filter-rate band on s = a + d, the sender-
marginal band on f = a - d, and each check, whose check-side mass y within
eps6 of x need only sit at the end of its range where the windows mix
best.  The largest feasible x is a minimum of ratios (Sectors.x_top), and
the ceiling is the maximum of x (1 - gap cos 2p1) over the angle square.

One refinement loop closes every part of the square that cannot beat the
best point found: from a 3 x 3 cut, it halves each cell whose bound, read
from the same table, beats the best, polishes from the best node a level
finds, and leaves to the KKT point giving the best the cells within a
shrinking distance of it.  A cell still open when the work budget runs out
raises the ceiling to its bound, so outside that zone a miss shows as an
over-report, never a shortfall.  With (a, d) pinned, x alone is searched,
by bisection.
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
# the cells a side at refinement level 0, reached by halving a 3 x 3 cut of
# the angle square; the factor r of the distance r sqrt(w) within which a
# KKT point explains a cell of width w, as a cell's bound overshoots by O(w)
# and the objective falls off quadratically along a ridge through the point;
# the refinement levels, and the open cells a level may refine (a work budget)
_N0, _RADIUS, _LEVELS, _CAP = 24, 0.5, 16, 1024


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
    is its constraint table; x_top() solves it for x at given angles, cell()
    bounds it on a cell of angles, polish() by Newton steps on its active rows
    (constraints()); interior() refines cells and polishes nodes in one loop,
    pinned_top() searches x when both bands pin the skews, edge() an empty sector."""

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

    def cell(self, lo0, hi0, lo1, hi1, w):
        """Upper bounds of the objective on the cell [lo0, hi0] x [lo1, hi1],
        -inf where no x in [0, 1] meets every row to within 0, and ROUND, in x;
        on a point the second is its node value, value() to x_top's allowance.
        s = a + d rises with both angles and f = a - d with p0 and against p1,
        so a band side holds on the cell just where it holds at one corner,
        (lo, lo) for shi, (hi, hi) slo, (lo, hi) fhi, (hi, lo) flo; a check
        holds where it does at its loosest windows on the cell's sides, w
        (_windows or a cache of it); the objective rises with p1."""
        t0, t1 = self.checks[0][4], self.checks[1][4]
        a = (w(lo0 if t0 < lo0 else hi0 if t0 > hi0 else t0)[0],
             w(lo0 if t1 < lo0 else hi0 if t1 > hi0 else t1)[1])
        b = (w(lo1 if t0 < lo1 else hi1 if t0 > hi1 else t0)[0],
             w(lo1 if t1 < lo1 else hi1 if t1 > hi1 else t1)[1])
        top, low = 1.0, 0.0
        for num, den, shift in self.rows((_slopes(lo0, lo1), _slopes(hi0, hi1), _slopes(lo0, hi1),
                                          _slopes(hi0, lo1)), a, b):
            if num < (den if den < 0.0 else 0.0) - ROUND:
                return -math.inf, -math.inf
            if den > 0.0 and (v := num / den + shift) < top:
                top = v
            elif den < 0.0 and (v := num / den - shift) > low:
                low = v
        bound = top * (1.0 - self.gap * math.cos(2.0 * hi1)) if low <= top + ROUND else -math.inf
        return bound if low <= top else -math.inf, bound

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
            # a stop at a tenth of it left searches stuck, their cells open
            if scale == 1.0 and size < 1e-14 and not climb:
                return z, cons, lam, None
            rho *= 2.0
        return z, cons, lam, "stuck"

    def polish(self, p0: float, p1: float, h: float, vertex: bool = False):
        """The best (value, p0, p1) an active-set search meets from the angles
        (p0, p1), h their distance scale, and whether it ends at a KKT point:
        the working set starts as the constraints active there, gains each
        one a step crosses, and drops one whose multiplier is negative.  With
        ``vertex``, (p0, p1) are the zero-slack vertex's angles, and two rows
        that bind there start the set: the sender-marginal band's upper side
        and the raw L check (a seeded row whose multiplier is negative is
        dropped like any other)."""
        z = [self.x_top(p0, p1)[0], p0, p1]
        best = (self.value(p0, p1), p0, p1)
        if best[0] == -math.inf:
            return best, False
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
                    return best, v >= best[0] - ROUND * abs(best[0])
                W.pop(min(signed)[1])
        return best, False

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

    def interior(self, start):
        """The best (value, p0, p1) found over the open angle square, and the
        largest bound of a cell left open (-inf if none).  Polish from
        ``start`` (the zero-slack optimum's angles); then, from a 3 x 3 cut
        of the square, halve 2 x 2 each cell whose bound to within ROUND
        beats the best value (a child's bounds never exceed its cell's).
        From level 0, whose cells are as wide as an _N0 x _N0 grid's, polish
        from the best node of the cells kept, drop those whose bound does not
        beat the best value, and leave to the KKT point giving it each cell
        within _RADIUS sqrt(w) of it, w the level's cell width (in p1 alone
        on the x = 1 face).  Cells stay open when more than _CAP of them, or
        more than _LEVELS levels, would be needed."""
        best, centre = (-math.inf, 0.0, 0.0), None
        if start is not None:
            # from the zero-slack optimum: first on two rows that bind there,
            # then from the rows active at it, on ever finer scales while no
            # KKT point is met: on a sliver the maximum lies a few 1e-8 from it
            for h, vertex in ((0.02, True), (0.02, False), (1e-4, False), (1e-7, False)):
                cand, kkt = self.polish(*start, h, vertex)
                best = max(best, cand)
                if kkt:
                    centre = cand[1:]
                    break
        # one windows cache for the search: a child shares two sides with its cell
        w = functools.cache(self._windows)
        t = [_HALF_PI * (k / 3.0) for k in range(3)] + [_HALF_PI]
        cells = [(t[i], t[i + 1], t[j], t[j + 1]) for i in range(3) for j in range(3)]
        # the levels below 0 halve the 3 x 3 cut to _N0 cells a side (_N0 / 3 a power of 2)
        width, level = t[1], 1 - (_N0 // 3).bit_length()
        while True:
            kept = [(bound[0], *c) for c in cells if (bound := self.cell(*c, w))[1] > best[0]]
            if level >= 0:
                # the kept cells' nodes in cell order, each with its first cell's
                # width; the first largest is polished (nodes tie along p0 at x = 1)
                widths = {}
                for _, lo0, hi0, lo1, hi1 in kept:
                    for q in ((lo0, lo1), (lo0, hi1), (hi0, lo1), (hi0, hi1)):
                        widths.setdefault(q, hi0 - lo0)
                values = {q: self.cell(q[0], q[0], q[1], q[1], w)[1] for q in widths}
                node = max(values, key=values.get, default=None)
                if node is not None and values[node] > best[0]:
                    cand, kkt = self.polish(*node, widths[node])
                    if cand[0] > best[0]:
                        best, centre = cand, (cand[1:] if kkt else None)
                kept = [c for c in kept if c[0] > best[0]]
                if centre is not None:
                    r = _RADIUS * math.sqrt(width)
                    # at x = 1 the empty sector's angle p0 is free along the face
                    face = self.x_top(*centre)[0] >= 1.0
                    kept = [c for c in kept if c[3] - r > centre[1] or c[4] + r < centre[1]
                            or not face and (c[1] - r > centre[0] or c[2] + r < centre[0])]
                if not kept:
                    return best, -math.inf
                if level == _LEVELS or len(kept) > _CAP:
                    return best, max(c[0] for c in kept)
            cells = [(e0[u], e0[u + 1], e1[v], e1[v + 1]) for c in kept
                     for e0, e1 in [[[lo + (hi - lo) * t for t in (0.0, 0.5, 1.0)]
                                     for lo, hi in (c[1:3], c[3:])]] for u in (0, 1) for v in (0, 1)]
            width, level = 0.5 * width, level + 1

    def ceiling(self, seed):
        """(value, x, open bound): the best witnessed x + gap d, over the
        interior angles, from those of the zero-slack optimum ``seed`` = (x,
        delta) if 0 < x < 1, and over the empty-sector edges, or along x alone
        when the bands pin the skews; its x; and the largest bound of a cell
        left open (-inf if none).  None where no point is found, open cells
        or not: no key."""
        if self.equal["s"] and self.equal["f"]:
            x = self.pinned_top(seed)
            return None if x is None else (x + self.gap * self.skews[1], x, -math.inf)
        start = self.angles(seed[0]) if seed is not None and 0.0 < seed[0] < 1.0 else None
        (value, p0, p1), bound = self.interior(start)
        point = (value, self.x_top(p0, p1)[0])
        for side in (1.0, 0.0):
            if (found := self.edge(side)) is not None and found > point[0]:
                point = (found, side)
        return None if point[0] == -math.inf else (*point, bound)
