"""Evaluators producing BoundReports for every supported maximal inequality.

Every evaluator returns the raw (unclamped) value alongside the [0, 1]-clamped
probability bound so that algebraic identity tests can compare exact
exponentials even when the display exceeds one.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainViolation, InvalidParameter
from .mgf import MgfBound
from .optimize import minimize_tail_exponent, solve_slope_root
from .sim import check_whole

@dataclass(frozen=True)
class BoundReport:
    """A computed bound: clamped value, raw value, optimizing s and slope, and
    the crossing event it bounds as validate.EventSpec fields (None for the
    cbb bounds, whose events live on a step-count V grid)."""

    inequality: str
    bound: float
    raw: float
    s_used: Optional[float]
    slope_used: Optional[float]
    params: dict = field(default_factory=dict)
    event: Optional[dict] = None
    vacuous: bool = False
    exact: bool = False

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _exp(x: float) -> float:
    if x > 700.0:
        return math.inf
    return math.exp(x)


def _clamp(raw: float) -> float:
    return min(1.0, max(0.0, raw))


def _report(inequality, exponent, s_used, slope_used, params, event,
            vacuous=False, exact=False, factor=1.0) -> BoundReport:
    raw = factor * _exp(exponent)
    return BoundReport(inequality=inequality, bound=_clamp(raw), raw=raw,
                       s_used=s_used, slope_used=slope_used, params=params,
                       event=event, vacuous=vacuous, exact=exact)


def _check_positive(**kwargs):
    for name, value in kwargs.items():
        if not (0.0 < value < math.inf):
            raise DomainViolation(f"{name} must be positive and finite, got {value}")


def _side_id(base: str, side: str) -> str:
    if side not in ("upper", "lower"):
        raise InvalidParameter(f"side must be 'upper' or 'lower', got {side!r}")
    return f"{base}_{side}"


def _phi_side(phi: MgfBound, s: float, side: str) -> float:
    return float(np.asarray(phi.phi(s if side == "upper" else -s)))


# ---------------------------------------------------------------------------
# Generic Chernoff-line bounds
# ---------------------------------------------------------------------------


def line_bound(phi: MgfBound, s: float, gamma: float, v_tau: float,
               side: str = "upper") -> BoundReport:
    """Fixed-s line bound  [exp(phi(+-s) - gamma s)]^{V_tau}.

    The continuation line past tau has slope phi(+-s)/s.
    """
    _check_positive(gamma=gamma, v_tau=v_tau)
    ineq = _side_id("gen_line", side)
    radius = phi.b if side == "upper" else phi.a
    if not (0.0 < s < radius):
        raise DomainViolation(
            f"s={s} outside the open interval (0, {radius}) for side={side}"
        )
    with np.errstate(over="ignore"):
        ph = _phi_side(phi, s, side)
    if not math.isfinite(ph):
        raise DomainViolation(
            f"phi is {ph} at s={s} for side={side}: no finite bound there")
    exponent = v_tau * (ph - gamma * s)
    return _report(ineq, exponent, s, ph / s,
                   {"gamma": gamma, "v_tau": v_tau, "s": s, **phi.describe()},
                   dict(kind="line", side=side, gamma=gamma, v_tau=v_tau,
                        slope=ph / s))


def optimized_line_bound(phi: MgfBound, gamma: float, v_tau: float,
                         side: str = "upper") -> BoundReport:
    """Optimized line bound  inf_s [exp(phi(+-s) - gamma s)]^{V_tau}  with the
    continuation slope alpha(gamma) / beta(gamma) from the optimizer."""
    _check_positive(gamma=gamma, v_tau=v_tau)
    opt = minimize_tail_exponent(phi, gamma, side=side)
    exponent = v_tau * opt.value
    return _report(_side_id("opt_line", side), exponent, opt.s_opt, opt.slope,
                   {"gamma": gamma, "v_tau": v_tau, "location": opt.location,
                    **phi.describe()},
                   dict(kind="line", side=side, gamma=gamma, v_tau=v_tau,
                        slope=opt.slope))


def vee_bound(phi: MgfBound, gamma: float, v_tau: float,
              side: str = "upper") -> BoundReport:
    """Bound for crossing the envelope gamma (V_tau v V_t).

    The infimum of phi(+-s) - gamma s over (0, b*) (resp. (0, a*)), with b*
    = sup {s : phi(+-s) <= gamma s}, is the unrestricted one: phi is convex
    with phi(0) = 0, so the minimizer, where the exponent is negative, lies
    in (0, b*].  A nonnegative infimum (empty feasible set) yields a
    vacuous bound of 1.
    """
    _check_positive(gamma=gamma, v_tau=v_tau)
    ineq = _side_id("vee", side)
    params = {"gamma": gamma, "v_tau": v_tau, **phi.describe()}
    event = dict(kind="vee", side=side, gamma=gamma, v_tau=v_tau)
    opt = minimize_tail_exponent(phi, gamma, side=side)
    if opt.value >= 0.0:
        return _report(ineq, 0.0, None, None, params, event, vacuous=True)
    exponent = v_tau * opt.value
    return _report(ineq, exponent, opt.s_opt, opt.slope, params, event)


def eta_bound(phi: MgfBound, gamma: float, eta: float, v_tau: float = 0.0,
              side: str = "upper", variant: str = "ray") -> BoundReport:
    """Bounds for the shifted events with intercept eta.

    variant="ray":  inf_{s in feasible} e^{-eta s} = e^{-eta sup feasible};
    v_tau is ignored.
    variant="vee":  inf_{s in feasible} e^{-eta s} [exp(phi(+-s) - gamma s)]^{V_tau},
    the ray at V_tau = 0.  eta, and the vee's v_tau, must be >= 0, not NaN.
    Both return 1 (vacuous) when solve_slope_root, whose b* (a*) is sup
    feasible, reports the feasible set empty; only the vee's shifted gamma
    calls the minimizer.  A phi whose phi(+-s)/s decreases, which no convex
    phi with phi(0) = 0 does, raises MonotonicityViolation.
    """
    _check_positive(gamma=gamma)
    if not eta >= 0.0:
        raise InvalidParameter(f"eta must be nonnegative, got {eta}")
    if variant not in ("ray", "vee"):
        raise InvalidParameter(f"variant must be 'ray' or 'vee', got {variant!r}")
    ineq = _side_id("eta_" + variant, side)
    params = {"gamma": gamma, "eta": eta, **phi.describe()}
    event = dict(kind="vee" if variant == "vee" else "eta_ray", side=side,
                 gamma=gamma, eta=eta)
    if variant == "vee":
        if not v_tau >= 0.0:
            raise InvalidParameter(f"v_tau must be nonnegative, got {v_tau}")
        params["v_tau"] = event["v_tau"] = v_tau

    root = solve_slope_root(phi, gamma, side=side)
    if root.empty:
        return _report(ineq, 0.0, None, None, params, event, vacuous=True)
    params["s_star"] = s_star = root.s_root

    if variant == "ray" or v_tau == 0.0:
        # e^{-eta s*}: 0 at s* = inf unless eta = 0, where the event is certain
        return _report(ineq, -eta * s_star if eta > 0.0 else 0.0, s_star, None,
                       params, event)
    shifted = minimize_tail_exponent(phi, gamma + eta / v_tau, side=side)
    s_c = min(shifted.s_opt, s_star)
    if not math.isfinite(s_c):
        return _report(ineq, -math.inf, s_c, None, params, event)
    ph = _phi_side(phi, s_c, side)
    exponent = -eta * s_c + v_tau * (ph - gamma * s_c)
    return _report(ineq, exponent, s_c, ph / s_c, params, event)


# ---------------------------------------------------------------------------
# Named classical bounds
# ---------------------------------------------------------------------------


def azuma_bound(gamma: float, v_tau: float, kind: str = "upper") -> BoundReport:
    """Hoeffding-Azuma envelope bound exp(-gamma^2 / (2 V_tau)).

    The crossed boundary is (gamma/2)(1 + V_t / V_tau); the two-sided variant
    doubles the raw value before clamping.
    """
    _check_positive(gamma=gamma, v_tau=v_tau)
    if kind not in ("upper", "lower", "two_sided"):
        raise InvalidParameter(f"kind must be upper|lower|two_sided, got {kind!r}")
    exponent = -gamma * gamma / (2.0 * v_tau)
    factor = 2.0 if kind == "two_sided" else 1.0
    params = {"gamma": gamma, "v_tau": v_tau,
              "envelope_intercept": gamma / 2.0,
              "envelope_slope": gamma / (2.0 * v_tau)}
    # the envelope reaches gamma at V_tau: gamma/V_tau per unit of V there
    return _report(f"azuma_{kind}", exponent, gamma / v_tau, gamma / (2.0 * v_tau),
                   params, dict(kind="line", side=kind, gamma=gamma / v_tau,
                                v_tau=v_tau, slope=gamma / (2.0 * v_tau)),
                   factor=factor)


def cbb_bounds(gamma: float, v_m: float, b: float,
               which: str = "bennett") -> BoundReport:
    """Bennett / Bernstein / sub-Gaussian Chernoff bounds for bounded-increment
    martingales with variance proxy V_m."""
    _check_positive(gamma=gamma, v_m=v_m, b=b)
    params = {"gamma": gamma, "v_m": v_m, "b": b}
    # Bernstein and sub-Gaussian bound the envelope (gamma/2)(1 + V_t/V_m)
    envelope = {**params, "envelope_intercept": gamma / 2.0,
                "envelope_slope": gamma / (2.0 * v_m)}
    if which == "bennett":
        lg = math.log1p(b * gamma)
        exponent = v_m * (gamma / b - (1.0 + b * gamma) * lg / (b * b))
        slope = gamma / lg - 1.0 / b
        return _report("bennett_cbb", exponent, lg / b, slope, params, event=None)
    if which == "bernstein":
        exponent = -gamma * gamma / (2.0 * (v_m + b * gamma / 3.0))
        return _report("bernstein_cbb", exponent, 1.0 / (1.0 / gamma + b / 3.0),
                       None, envelope, event=None)
    if which == "chernoff_sub":
        if b != 1.0:
            raise DomainViolation("chernoff_sub requires b = 1")
        if gamma >= 3.5 * v_m:
            raise DomainViolation(
                f"chernoff_sub requires gamma < 3.5 V_m, got gamma={gamma}, V_m={v_m}"
            )
        exponent = -gamma * gamma / (4.0 * v_m)
        return _report("chernoff_sub", exponent, gamma / (2.0 * v_m), None,
                       envelope, event=None)
    raise InvalidParameter(f"which must be bennett|bernstein|chernoff_sub, got {which!r}")


# ---------------------------------------------------------------------------
# Exponential families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpFamily:
    """Natural-parameter description f(y; theta) = w(y) exp(u(theta) y - v(theta)).

    The defining hypothesis dv/dtheta = theta du/dtheta is verified numerically
    on a grid at construction; w is never needed by the computed bounds.
    """

    u: Callable[[float], float]
    v: Callable[[float], float]
    theta_lo: float
    theta_hi: float
    name: str = "custom"

    def __post_init__(self):
        if not self.theta_lo < self.theta_hi:
            raise InvalidParameter("need theta_lo < theta_hi")
        lo = self.theta_lo if math.isfinite(self.theta_lo) else -5.0
        hi = self.theta_hi if math.isfinite(self.theta_hi) else 5.0
        w = hi - lo
        grid = np.linspace(lo + 0.05 * w, hi - 0.05 * w, 15)
        for th in grid:
            h = 1e-5 * (1.0 + abs(th))
            if not (self.theta_lo < th - h and th + h < self.theta_hi):
                continue
            du = (self.u(th + h) - self.u(th - h)) / (2 * h)
            dv = (self.v(th + h) - self.v(th - h)) / (2 * h)
            if abs(dv - th * du) > 1e-6 * (1.0 + abs(th * du)):
                raise InvalidParameter(
                    f"family {self.name!r}: dv/dtheta != theta du/dtheta at "
                    f"theta={th:.6g} (dv={dv:.6g}, theta*du={th * du:.6g})"
                )

    def contains(self, theta: float) -> bool:
        return self.theta_lo < theta < self.theta_hi


def bernoulli_family() -> ExpFamily:
    """Bernoulli(theta) in natural form: u = logit, v = -ln(1 - theta)."""
    return ExpFamily(
        u=lambda t: math.log(t / (1.0 - t)),
        v=lambda t: -math.log(1.0 - t),
        theta_lo=0.0, theta_hi=1.0, name="bernoulli",
    )


def expfam_bound(fam: ExpFamily, theta: float, gamma: float, m: int,
                 side: str = "upper") -> BoundReport:
    """Bound [M(theta +- gamma, theta)]^m for raw-sum crossings of the envelope
    theta n + gamma (n v m), plus the rho boundary-line coefficients in n."""
    ineq = _side_id("expfam", side)
    if not fam.contains(theta):
        raise DomainViolation(f"theta={theta} outside open domain of {fam.name}")
    if gamma < 0.0:
        raise InvalidParameter(f"gamma must be nonnegative, got {gamma}")
    params = {"theta": theta, "gamma": gamma, "m": check_whole("m", m, 1),
              "family": fam.name}
    event = dict(kind="vee", side=side, gamma=gamma, v_tau=float(params["m"]))
    if gamma == 0.0:
        return _report(ineq, 0.0, None, None, params, event, vacuous=True)
    z = theta + gamma if side == "upper" else theta - gamma
    if not fam.contains(z):
        raise DomainViolation(
            f"theta {'+' if side == 'upper' else '-'} gamma = {z} outside "
            f"open domain ({fam.theta_lo}, {fam.theta_hi}) of {fam.name}"
        )
    ln_m_factor = fam.v(z) - fam.v(theta) - z * (fam.u(z) - fam.u(theta))
    rho_slope = (fam.v(z) - fam.v(theta)) / (fam.u(z) - fam.u(theta))
    s_star = abs(fam.u(z) - fam.u(theta))
    params.update({"z": z, "rho_at_m": m * z, "rho_slope": rho_slope})
    # Continuation slope of the centered process X_n - n theta.
    centered_slope = rho_slope - theta if side == "upper" else theta - rho_slope
    return _report(ineq, m * ln_m_factor, s_star, centered_slope, params, event)


# ---------------------------------------------------------------------------
# Poisson process bounds
# ---------------------------------------------------------------------------


def poisson_bounds(lam: float, gamma: float, tau: float,
                   side: str = "upper") -> BoundReport:
    """Crossing bounds for a Poisson counting path against its tilted lines:
    [(lam/(lam+gamma))^{lam+gamma} e^gamma]^tau and the lower-side twin."""
    _check_positive(lam=lam, gamma=gamma, tau=tau)
    ineq = _side_id("poisson", side)
    if side == "upper":
        lg = math.log1p(gamma / lam)
        exponent = tau * (gamma - (lam + gamma) * lg)
    elif gamma >= lam:
        raise DomainViolation(
            f"lower side requires gamma < lam, got gamma={gamma}, lam={lam}"
        )
    else:
        lg = math.log(1.0 - gamma / lam)  # negative
        exponent = tau * ((lam - gamma) * math.log(lam / (lam - gamma)) - gamma)
    slope = gamma / lg
    # continuation slope of the centered path N_t - lam t (alpha(gamma) below)
    centered = slope - lam if side == "upper" else lam + slope
    return _report(ineq, exponent, lg if side == "upper" else -lg, slope,
                   {"lam": lam, "gamma": gamma, "tau": tau},
                   dict(kind="line", side=side, gamma=gamma, v_tau=tau,
                        slope=centered))


# ---------------------------------------------------------------------------
# Supremum bounds for nonnegative supermartingales
# ---------------------------------------------------------------------------


def supermartingale_sup_bound(mean0: float, c: float, gamma: float,
                              continuous_martingale: bool = False) -> BoundReport:
    """P{sup X_t >= gamma} <= (E[X_0] - c)/(gamma - c) for a nonnegative
    right-continuous supermartingale converging to c; an equality (and 1 for
    gamma <= E[X_0]) when the caller asserts the continuous-martingale case."""
    if not (0.0 <= c <= mean0):
        raise InvalidParameter(f"need 0 <= c <= mean0, got c={c}, mean0={mean0}")
    if not (c < gamma < math.inf):
        raise DomainViolation(
            f"gamma must be finite and exceed c, got gamma={gamma}, c={c}")
    return _report("supermartingale_sup", 0.0, None, None,
                   {"mean0": mean0, "c": c, "gamma": gamma},
                   dict(kind="sup_level", gamma=gamma),
                   exact=continuous_martingale, factor=(mean0 - c) / (gamma - c))


def doob_exp_bound(gamma: float, phi: Optional[MgfBound] = None) -> BoundReport:
    """P{sup Y_t >= gamma} <= 1/gamma for the exponential supermartingale Y;
    an equality for gamma >= 1 when phi is an exact log-MGF on a continuous
    process."""
    _check_positive(gamma=gamma)
    exact = bool(gamma >= 1.0 and phi is not None and phi.claims_equality)
    params = {"gamma": gamma}
    if phi is not None:
        params.update(phi.describe())
    return _report("doob_exp", 0.0, None, None, params,
                   dict(kind="sup_level", gamma=gamma), exact=exact,
                   factor=1.0 / gamma)
