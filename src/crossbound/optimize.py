"""One-dimensional minimization and root finding on phi-derived objectives.

The two consumers are the tail-exponent infimum  inf_{s in (0, R)} phi(+-s) - gamma s
and the largest usable s on a side, i.e. the domain edge or the root of
phi(+-s)/s = gamma.  Each probe grid is one array call of phi; the minimizer
and the root then come from one shared bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    """Largest usable s on a side: interior root of phi(+-s)/s = gamma or the edge."""

    s_root: float
    side: str
    is_boundary: bool
    empty: bool = False


def _side_objective(phi: MgfBound, side: str) -> Tuple[Callable, float]:
    """phi(+-s) as an array function of s > 0, and the domain radius on the side."""
    if side == "upper":
        return (lambda s: np.asarray(phi.phi(s), dtype=float)), phi.b
    if side == "lower":
        if not phi.lower_tail_supported:
            raise UnsupportedSide(
                f"{phi.label} is defined for upper-tail use only"
            )
        return (lambda s: np.asarray(phi.phi(np.negative(s)), dtype=float)), phi.a
    raise InvalidParameter(f"side must be 'upper' or 'lower', got {side!r}")


def _bisect(above: Callable[[float], bool], lo: float, hi: float,
            done: Callable[[float, float], bool]) -> Tuple[float, float]:
    """Halve [lo, hi] toward the switch of a monotone predicate, keeping
    above(lo) false and above(hi) true, until done(lo, hi) or 200 steps."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if above(mid):
            hi = mid
        else:
            lo = mid
        if done(lo, hi):
            break
    return lo, hi


def _derivative_root(phi: MgfBound, gamma: float, side: str,
                     lo: float, hi: float) -> float:
    """Smallest minimizer of the convex h(s) = phi(+-s) - gamma s in [lo, hi],
    by bisection of h'(s) = +-phi'(+-s) - gamma (central differences when phi
    has no derivative).  Raises NotUnimodal unless h'(lo) < 0 <= h'(hi)."""
    sign = 1.0 if side == "upper" else -1.0
    if phi.phi_deriv is not None:
        dh = lambda s: sign * float(np.asarray(phi.phi_deriv(sign * s))) - gamma
    else:
        def dh(s, _p=phi.phi):
            step = 6e-6 * (1.0 + abs(s))
            return (float(np.asarray(_p(sign * (s + step)))) -
                    float(np.asarray(_p(sign * (s - step))))) / (2.0 * step) - gamma
    if not dh(lo) < 0.0 <= dh(hi):
        raise NotUnimodal(
            f"h' does not change sign on [{lo:g}, {hi:g}] on the {side} side")
    lo, hi = _bisect(lambda s: not dh(s) < 0.0, lo, hi,
                     lambda a, b: b - a <= 1e-15 * max(1.0, a))
    return 0.5 * (lo + hi)


def _limit_ratio_at_edge(g: Callable, radius: float) -> float:
    """Richardson-extrapolated lim_{s -> radius-} g(s)/s from s = radius (1 - 2^-k),
    k = 43, 44."""
    s = radius * (1.0 - 2.0 ** -np.array([43.0, 44.0]))
    r_prev, r_last = g(s) / s
    return float(r_last + (r_last - r_prev))


def _limit_ratio_at_infinity(g: Callable) -> float:
    """lim_{s -> inf} g(s)/s read along s = 2^k, k <= 40 (may be +inf)."""
    s = 2.0 ** np.arange(41)
    with np.errstate(over="ignore", invalid="ignore"):
        r = g(s) / s
        settled = np.abs(np.diff(r)) <= 1e-12 * (1.0 + np.abs(r[1:]))
    return float(r[1:][settled][0] if settled.any() else r[-1])


def _limit_value_at_infinity(h: Callable) -> float:
    """Asymptote of a decreasing objective along s = 2^k, k <= 50, or -inf when
    it keeps falling without leveling off."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = h(2.0 ** np.arange(51))
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
    g, radius = _side_objective(phi, side)
    h = lambda s: g(s) - gamma * s

    finite = math.isfinite(radius)
    # Decrease probe: log-spaced grid (on a finite domain also radius (1 - 2^-k)
    # up to k = 49) plus the small-s heuristic point used to proxy the
    # "phi < gamma |s| near 0" hypothesis.
    s_heur = 1e-6 * min(1.0, radius if finite else 1.0)
    if finite:
        probes = np.unique(np.concatenate([
            np.geomspace(radius * 1e-9, radius * 0.5, 40),
            radius * (1.0 - 2.0 ** -np.arange(1, 50, dtype=float)),
            [s_heur],
        ]))
    else:
        probes = np.unique(np.concatenate([np.geomspace(1e-9, _S_CAP, 80),
                                           [s_heur]]))
    with np.errstate(over="ignore", invalid="ignore"):
        gv = g(probes)
        hv = gv - gamma * probes
    hv = np.where(np.isnan(hv), np.inf, hv)
    if np.all(hv >= -1e-13 * (1.0 + np.abs(hv))):
        slope0 = float(gv[np.searchsorted(probes, s_heur)]) / s_heur
        return OptResult(s_opt=0.0, value=0.0, slope=slope0,
                         attained=False, location="origin", side=side)

    i = int(np.argmin(hv))
    if not finite:
        # Convex objective with a decrease: double until the slope turns up.
        s = max(1.0, float(probes[i]))
        hs = float(h(s))
        while (h2 := float(h(2.0 * s))) <= hs:
            s, hs = 2.0 * s, h2
            if s > _S_CAP:
                slope_limit = _limit_ratio_at_infinity(g)
                value = _limit_value_at_infinity(h)
                return OptResult(s_opt=math.inf, value=min(value, 0.0),
                                 slope=slope_limit, attained=False,
                                 location="boundary", side=side)
        lo_b, hi_b = 0.0, 2.0 * s
    elif i == probes.size - 1:
        # The argmin hugs the edge: the infimum is at the boundary.
        slope_limit = _limit_ratio_at_edge(g, radius)
        value = radius * (slope_limit - gamma)
        return OptResult(s_opt=radius, value=min(value, 0.0),
                         slope=slope_limit, attained=False,
                         location="boundary", side=side)
    else:
        # argmin takes the first minimum, so on a convex h the neighbours
        # give h'(lo) < 0 <= h'(hi).
        lo_b = float(probes[i - 1]) if i > 0 else 0.0
        hi_b = float(probes[i + 1])

    lo_b = max(lo_b, _TOL * 1e-3)
    s_opt = _derivative_root(phi, gamma, side, lo_b, hi_b)
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
    g, radius = _side_objective(phi, side)
    r = lambda s: float(g(s)) / s

    finite = math.isfinite(radius)
    hi_probe = radius * (1.0 - 2.0 ** -40) if finite else 1e9
    pts = np.geomspace(max(1e-12, hi_probe * 1e-12), hi_probe, 60)
    with np.errstate(over="ignore", invalid="ignore"):
        rv = g(pts) / pts
    keep = np.isfinite(rv)
    pts, rv = pts[keep], rv[keep]
    drops = np.nonzero(np.diff(rv) < -1e-9 * (1.0 + np.abs(rv[1:])))[0]
    if drops.size:
        s_bad = float(pts[drops[0] + 1])
        raise MonotonicityViolation(
            f"phi(s)/s decreases near s={s_bad:g} on the {side} side"
        )

    if finite:
        if _limit_ratio_at_edge(g, radius) <= gamma:
            return SlopeRoot(s_root=radius, side=side, is_boundary=True)
        hi = hi_probe
        while r(hi) <= gamma:  # push the bracket into the unchecked sliver
            hi = radius - (radius - hi) / 2.0
    else:
        doubling = 2.0 ** np.arange(40)
        with np.errstate(over="ignore", invalid="ignore"):
            above = ~(g(doubling) / doubling <= gamma)
        if not above.any():
            return SlopeRoot(s_root=math.inf, side=side, is_boundary=True)
        hi = float(doubling[np.argmax(above)])
    lo = min(1e-9, hi * 1e-9)
    if r(lo) >= gamma:
        # phi(s)/s already above gamma arbitrarily close to 0: empty side set.
        return SlopeRoot(s_root=0.0, side=side, is_boundary=False, empty=True)
    lo, hi = _bisect(lambda s: r(s) > gamma, lo, hi,
                     lambda a, b: b - a <= _TOL * max(1.0, a))
    return SlopeRoot(s_root=0.5 * (lo + hi), side=side, is_boundary=False)
