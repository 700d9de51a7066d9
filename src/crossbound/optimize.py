"""One-dimensional minimization and root finding on phi-derived objectives.

The two consumers are the tail-exponent infimum  inf_{s in (0, R)} phi(+-s) - gamma s
and the largest usable s on a side, i.e. the domain edge or the root of
phi(+-s)/s = gamma.  Each probe grid is one array call of phi, made once per
(phi, side) and kept with the rest of the gamma-free work in ``MgfBound.memo``
(``_SideTable``).  The minimizer and the root then come from one shared
bisection of a monotone predicate, which calls phi only inside a box that a
bracketed secant puts around the switch (see ``_bisect``).  Central differences (a Custom phi without
phi_deriv) may move s* by up to 1e-9 relative from the plain bisection's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Tuple

import numpy as np

from .errors import (
    DomainViolation,
    InvalidParameter,
    MonotonicityViolation,
    NotUnimodal,
    UnsupportedSide,
)
from .mgf import MgfBound

_S_CAP = 1e9  # doubling limit for unbounded domains
_TOL = 1e-10  # relative bracket width of the slope-root bisection
_BOX = 1e-13  # relative width of the secant's box around the switch

# Grids that depend on neither phi nor gamma (read-only: phi sees them).
_POW2 = 2.0 ** np.arange(51)
_HALVINGS = 2.0 ** -np.arange(1, 50, dtype=float)
_PROBES_INF = np.sort(np.concatenate([np.geomspace(1e-9, _S_CAP, 80), [1e-6]]))
_RATIO_GRID_INF = np.geomspace(max(1e-12, _S_CAP * 1e-12), _S_CAP, 60)
for _grid in (_POW2, _HALVINGS, _PROBES_INF, _RATIO_GRID_INF):
    _grid.flags.writeable = False


@dataclass(frozen=True)
class OptResult:
    """Outcome of minimizing phi(+-s) - gamma s over one side of the domain.

    ``location`` is "interior" (minimum attained), "boundary" (infimum at the
    domain edge, possibly at infinity) or "origin" (no decrease: the infimum
    is 0 at s -> 0+, a signal rather than a failure).
    """

    s_opt: float
    value: float
    slope: float
    attained: bool
    location: str
    side: str


@dataclass(frozen=True)
class SlopeRoot:
    """Largest usable s on a side: interior root of phi(+-s)/s = gamma or the
    edge; ``empty`` when phi(+-s)/s > gamma already at s <= 1e-9 (no
    feasible s), which eta_bound reads as a vacuous bound."""

    s_root: float
    side: str
    is_boundary: bool
    empty: bool = False


class _SideTable:
    """What both entry points compute from (phi, side) alone: ``g``, phi(+-s)
    as an array function of s > 0, the domain radius on the side, and parts
    that are each filled on first use and then read at every gamma."""

    def __init__(self, phi: MgfBound, side: str):
        if side not in ("upper", "lower"):
            raise InvalidParameter(f"side must be 'upper' or 'lower', got {side!r}")
        if side == "lower" and not phi.lower_tail_supported:
            raise UnsupportedSide(f"{phi.label} is defined for upper-tail use only")
        p = phi.phi
        if side == "upper":
            self.g, self.radius = (lambda s: np.asarray(p(s), dtype=float)), phi.b
        else:
            self.g, self.radius = (
                lambda s: np.asarray(p(np.negative(s)), dtype=float)), phi.a
        self.finite = math.isfinite(self.radius)
        # top of the slope root's ratio grid: just inside a finite edge
        self.hi_probe = (self.radius * (1.0 - 2.0 ** -40) if self.finite
                         else _S_CAP)

    @cached_property
    def probes(self) -> Tuple[np.ndarray, np.ndarray, float]:
        """The minimizer's decrease probes, phi(+-s) on them, and phi(s)/s at
        the small-s point among them that proxies "phi < gamma |s" near 0"."""
        radius = self.radius
        # log-spaced grid, on a finite domain also radius (1 - 2^-k) up to k = 49
        s_heur = 1e-6 * min(1.0, radius if self.finite else 1.0)
        if self.finite:
            probes = np.sort(np.concatenate([
                np.geomspace(radius * 1e-9, radius * 0.5, 40),
                radius * (1.0 - _HALVINGS),
                [s_heur],
            ]))
            # drop repeats (radius/2 is on both grids) as np.unique would,
            # without the numpy.ma import np.unique costs
            probes = probes[np.append(True, probes[1:] != probes[:-1])]
        else:
            probes = _PROBES_INF
        with np.errstate(over="ignore", invalid="ignore"):
            gv = self.g(probes)
        return probes, gv, float(gv[np.searchsorted(probes, s_heur)]) / s_heur

    @cached_property
    def edge_ratio(self) -> float:
        """Richardson-extrapolated lim_{s -> radius-} phi(+-s)/s from
        s = radius (1 - 2^-k), k = 43, 44."""
        s = self.radius * (1.0 - _HALVINGS[42:44])
        r_prev, r_last = self.g(s) / s
        return float(r_last + (r_last - r_prev))

    @cached_property
    def infinity_ratio(self) -> float:
        """lim_{s -> inf} phi(+-s)/s read along s = 2^k, k <= 40 (may be +inf)."""
        s = _POW2[:41]
        with np.errstate(over="ignore", invalid="ignore"):
            r = self.g(s) / s
            settled = np.abs(np.diff(r)) <= 1e-12 * (1.0 + np.abs(r[1:]))
        return float(r[1:][settled][0] if settled.any() else r[-1])

    @cached_property
    def ratio_drop(self) -> float:
        """Where phi(+-s)/s first decreases on the slope root's probe grid,
        or NaN when it never does."""
        hi = self.hi_probe
        pts = (np.geomspace(max(1e-12, hi * 1e-12), hi, 60) if self.finite
               else _RATIO_GRID_INF)
        with np.errstate(over="ignore", invalid="ignore"):
            rv = self.g(pts) / pts
        keep = np.isfinite(rv)
        pts, rv = pts[keep], rv[keep]
        drops = np.nonzero(np.diff(rv) < -1e-9 * (1.0 + np.abs(rv[1:])))[0]
        return float(pts[drops[0] + 1]) if drops.size else math.nan

    @cached_property
    def doubling_ratios(self) -> np.ndarray:
        """phi(+-s)/s along s = 2^k, k < 40, where an unbounded domain's
        slope root looks for its bracket."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.g(_POW2[:40]) / _POW2[:40]


def _side_table(phi: MgfBound, side: str) -> _SideTable:
    """phi's table for the side, made on first use (a side phi does not
    support raises and stores nothing)."""
    table = phi.memo.get(side)
    if table is None:
        table = phi.memo.setdefault(side, _SideTable(phi, side))
    return table


def _weight(fx: float, f_moved: float) -> float:
    """Anderson-Bjorck factor 1 - fx/f_moved for the kept end's f when the
    other end moves twice in a row; 0.5 (Illinois) when it is not positive
    or f_moved is 0."""
    m = 1.0 - fx / f_moved if f_moved != 0.0 else 0.0
    return m if m > 0.0 else 0.5


def _bisect(f: Callable[[float], float], above: Callable[[float], bool],
            lo: float, hi: float, rtol: float,
            f_lo: float, f_hi: float) -> Tuple[float, float]:
    """Halve [lo, hi] toward the switch of the monotone predicate above(f(s)),
    keeping it false at lo and true at hi, until hi - lo <= rtol max(1, lo)
    or 200 steps.

    First a bracketed secant (Anderson-Bjorck rule; a bisection step when it
    leaves the bracket or fails to halve it in 3 steps) boxes the switch in
    [a, b], above false at a and true at b, no wider than
    w = 1e-13 max(1, |a|, |b|).
    Then the halvings are replayed from (lo, hi): a midpoint below a - w
    reads false, one above b + w reads true, and only those in between call
    f.  Midpoints depend only on (lo, hi) and the outcomes, so for a monotone
    predicate this is the plain bisection's (lo, hi), bit for bit.
    """
    a, fa, b, fb = lo, f_lo, hi, f_hi
    moved, widths = 0, [math.inf] * 3  # the end moved last; the last 3 widths
    for _ in range(200):
        w = _BOX * max(1.0, abs(a), abs(b))
        if b - a <= w:
            break
        x = b - fb * (b - a) / (fb - fa) if fb != fa else math.nan
        if not a <= x <= b or b - a > 0.5 * widths[0]:
            x = 0.5 * (a + b)  # off the bracket, or 3 steps without halving it
        widths = widths[1:] + [b - a]
        x = min(max(x, a + 0.5 * w), b - 0.5 * w)
        fx = f(x)
        if above(fx):
            if moved == 1:  # a kept twice: scale its weight
                fa *= _weight(fx, fb)
            b, fb, moved = x, fx, 1
        else:
            if moved == -1:
                fb *= _weight(fx, fa)
            a, fa, moved = x, fx, -1
    below, beyond = a - w, b + w
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid > beyond or (mid >= below and above(f(mid))):
            hi = mid
        else:
            lo = mid
        if hi - lo <= rtol * (lo if lo > 1.0 else 1.0):  # rtol max(1, lo)
            break
    return lo, hi


def _limit_value_at_infinity(h: Callable) -> float:
    """Asymptote of a decreasing objective along s = 2^k, k <= 50, or -inf when
    it keeps falling without leveling off."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = h(_POW2)
        stop = ~np.isfinite(v[1:]) | (
            np.abs(np.diff(v)) <= 1e-10 * (1.0 + np.abs(v[1:])))
    if not stop.any():
        return -math.inf
    k = int(np.argmax(stop)) + 1
    if math.isfinite(v[k]):
        return float(v[k])
    return -math.inf if v[k] == -math.inf else float(v[k - 1])


def minimize_tail_exponent(phi: MgfBound, gamma: float,
                           side: str = "upper") -> OptResult:
    """Minimize h(s) = phi(+-s) - gamma s over the open interval (0, domain radius).

    One array call probes h on a log-spaced grid.  Its first minimum brackets
    the minimizer, which one bisection of h'(s) = +-phi'(+-s) - gamma then
    pins down; h on 31 points of the bracket plus s* must form a single
    valley, or NotUnimodal is raised.  Returns the interior minimizer when
    one exists; otherwise marks a boundary infimum and reports the edge limit
    of phi(s)/s found by extrapolation, or the origin signal when
    phi(s) >= gamma s throughout the probe grid.
    """
    if not (gamma > 0.0):
        raise DomainViolation(f"gamma must be positive, got {gamma}")
    table = _side_table(phi, side)
    g, radius, finite = table.g, table.radius, table.finite
    h = lambda s: g(s) - gamma * s

    probes, gv, slope0 = table.probes
    with np.errstate(over="ignore", invalid="ignore"):
        hv = gv - gamma * probes
    hv = np.where(np.isnan(hv), np.inf, hv)
    if np.all(hv >= -1e-13 * (1.0 + np.abs(hv))):
        return OptResult(s_opt=0.0, value=0.0, slope=slope0,
                         attained=False, location="origin", side=side)

    i = int(np.argmin(hv))
    sign = 1.0 if side == "upper" else -1.0
    if phi.phi_deriv is not None:  # h'(s) = +-phi'(+-s) - gamma
        dh = lambda s: sign * float(np.asarray(phi.phi_deriv(sign * s))) - gamma
    else:
        def dh(s, _p=phi.phi):
            step = 6e-6 * (1.0 + abs(s))
            return (float(np.asarray(_p(sign * (s + step)))) -
                    float(np.asarray(_p(sign * (s - step))))) / (2.0 * step) - gamma
    if not finite:
        # Convex objective with a decrease: double until the slope turns up.
        s = max(1.0, float(probes[i]))
        hs = float(h(s))
        while s <= _S_CAP and (h2 := float(h(2.0 * s))) <= hs:
            s, hs = 2.0 * s, h2
        lo_b, hi_b = 0.0, 2.0 * s
        # Past the cap, or still falling where rounding noise stopped the
        # doubling (a flat tail): the infimum is the limit at infinity.
        if s > _S_CAP or (d_hi := dh(hi_b)) < 0.0:
            return OptResult(s_opt=math.inf,
                             value=min(_limit_value_at_infinity(h), 0.0),
                             slope=table.infinity_ratio, attained=False,
                             location="boundary", side=side)
    elif i == probes.size - 1:
        # The argmin hugs the edge: the infimum is at the boundary.
        slope_limit = table.edge_ratio
        value = radius * (slope_limit - gamma)
        return OptResult(s_opt=radius, value=min(value, 0.0),
                         slope=slope_limit, attained=False,
                         location="boundary", side=side)
    else:
        # argmin takes the first minimum, so on a convex h the neighbours
        # give h'(lo) < 0 <= h'(hi).
        lo_b = float(probes[i - 1]) if i > 0 else 0.0
        hi_b = float(probes[i + 1])
        d_hi = dh(hi_b)

    lo_b = max(lo_b, _TOL * 1e-3)
    d_lo = dh(lo_b)
    if not d_lo < 0.0 <= d_hi:
        raise NotUnimodal(
            f"h' does not change sign on [{lo_b:g}, {hi_b:g}] on the {side} side")
    lo, hi = _bisect(dh, lambda d: not d < 0.0, lo_b, hi_b, 1e-15, d_lo, d_hi)
    s_opt = 0.5 * (lo + hi)
    pts = np.append(np.linspace(lo_b, hi_b, 33)[1:-1], s_opt)
    with np.errstate(over="ignore", invalid="ignore"):
        gp = g(pts)
    order = np.argsort(pts)
    y = (gp - gamma * pts)[order]
    d = np.diff(y)
    # where terms of order s cancel in h, its rounding grows like s
    slack = 1e-9 * (1.0 + np.abs(y[1:])) + 1e-15 * (1.0 + gamma) * pts[order][1:]
    rise = np.flatnonzero(d > slack)
    if rise.size and np.any(d[rise[0]:] < -slack[rise[0]:]):
        raise NotUnimodal(
            f"phi(s) - gamma s has more than one valley on [{lo_b:g}, {hi_b:g}] "
            f"on the {side} side")
    g_opt = float(gp[-1])
    return OptResult(s_opt=s_opt, value=min(g_opt - gamma * s_opt, 0.0),
                     slope=g_opt / s_opt, attained=True, location="interior",
                     side=side)


def solve_slope_root(phi: MgfBound, gamma: float,
                     side: str = "upper") -> SlopeRoot:
    """Find b* (or a*): the domain edge if lim phi(s)/s <= gamma, else the
    unique interior root of phi(+-s)/s = gamma, located by bisection.

    Requires phi(+-s)/s to be monotone increasing on the side, checked on a
    probe grid; a decreasing stretch raises MonotonicityViolation.
    """
    if not (gamma > 0.0):
        raise DomainViolation(f"gamma must be positive, got {gamma}")
    table = _side_table(phi, side)
    if not math.isnan(s_bad := table.ratio_drop):
        raise MonotonicityViolation(
            f"phi(s)/s decreases near s={s_bad:g} on the {side} side"
        )
    g, radius = table.g, table.radius
    f = lambda s: float(g(s)) / s - gamma  # > 0 exactly where phi(s)/s > gamma

    if table.finite:
        if table.edge_ratio <= gamma:
            return SlopeRoot(s_root=radius, side=side, is_boundary=True)
        hi = table.hi_probe
        while (f_hi := f(hi)) <= 0.0:  # push the bracket into the unchecked sliver
            hi = radius - (radius - hi) / 2.0
    else:
        above = ~(table.doubling_ratios <= gamma)
        if not above.any():
            return SlopeRoot(s_root=math.inf, side=side, is_boundary=True)
        hi = float(_POW2[np.argmax(above)])
        f_hi = f(hi)
    lo = min(1e-9, hi * 1e-9)
    if (f_lo := f(lo)) >= 0.0:
        # phi(s)/s already above gamma arbitrarily close to 0: empty side set.
        return SlopeRoot(s_root=0.0, side=side, is_boundary=False, empty=True)
    lo, hi = _bisect(f, lambda v: v > 0.0, lo, hi, _TOL, f_lo, f_hi)
    return SlopeRoot(s_root=0.5 * (lo + hi), side=side, is_boundary=False)
