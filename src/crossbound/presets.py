"""Named validation suites pairing processes, phi functions, events and bounds.

Three suites ship with the package:

* ``theorem9_all``       - the full domination sweep (~40 rows, all verdicts
                           expected "holds");
* ``expexact_brownian``  - exactness of sup-level probabilities 1/gamma for
                           the Brownian exponential martingale, with the
                           horizon-doubling rule and the dt-halving grid
                           allowance;
* ``optional_stopping``  - nested first-exit expectations for the symmetric
                           walk and its drifted supermartingale variant.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Optional

import numpy as np

from . import bounds as B
from .errors import InvalidParameter
from .mgf import (
    Bennett,
    Gaussian,
    HoeffdingBernoulli,
    PoissonCentered,
    Uniform24,
    make_phi,
)
from .sim import (
    BernoulliIncrements,
    Brownian,
    ExpSupermartingale,
    IidSum,
    LazyWalk,
    PoissonCounting,
    TwoPointIncrements,
    UniformIncrements,
    path_rng,  # noqa: F401  (kept importable; benchmarks/tracing.py patches it)
)
from .stopping import ContinuityRegion, RegionPair
from .validate import (
    EventSpec,
    _check_run,
    _sweep_groups,
    clopper_pearson,  # noqa: F401  (likewise)
    halving_allowance,
    stopping_rows,
    sweep,
)


@dataclasses.dataclass(frozen=True)
class Preset:
    description: str
    runner: Callable


# ---------------------------------------------------------------------------
# theorem9_all: domination sweep
# ---------------------------------------------------------------------------


def _event(report, label, **override):
    """The crossing event whose probability ``report.bound`` bounds.

    The event is read off the report alone: its inequality id, its params and
    its continuation slope.  ``override`` replaces fields of the derived
    event (the rho line of an exponential family is a line, not a vee).
    """
    ineq, p = report.inequality, report.params
    family, fields = ineq, {}
    for side in ("upper", "lower", "two_sided"):
        if ineq.endswith("_" + side):
            family, fields = ineq[:-len(side) - 1], {"side": side}
    if family in ("gen_line", "opt_line"):
        fields.update(kind="line", gamma=p["gamma"], v_tau=p["v_tau"],
                      slope=report.slope_used)
    elif family == "azuma":
        # the envelope (gamma/2)(1 + V_t/V_tau) reaches gamma at V_tau
        fields.update(kind="line", gamma=p["gamma"] / p["v_tau"],
                      v_tau=p["v_tau"], slope=report.slope_used)
    elif family in ("vee", "eta_vee"):
        fields.update(kind="vee", gamma=p["gamma"], v_tau=p["v_tau"],
                      eta=p.get("eta", 0.0))
    elif family == "eta_ray":
        fields.update(kind="eta_ray", gamma=p["gamma"], eta=p["eta"])
    elif family == "poisson":
        fields.update(kind="line", gamma=p["gamma"], v_tau=p["tau"],
                      slope=p["centered_slope"])
    elif family == "expfam":
        fields.update(kind="vee", gamma=p["gamma"], v_tau=float(p["m"]))
    elif family in ("doob_exp", "supermartingale_sup"):
        fields.update(kind="sup_level", gamma=p["gamma"])
    else:
        raise InvalidParameter(f"no crossing event is derived for {ineq!r}")
    return EventSpec(**{**fields, **override}, bound=report.bound, label=label)


def _events(*rows):
    """The events of (label, report[, override]) rows."""
    return [_event(report, label, **(override[0] if override else {}))
            for label, report, *override in rows]


def theorem9_groups():
    """(group name, process spec, events) triples for the domination sweep."""
    # -- Brownian motion, phi(s) = s^2/2 (exact log-MGF) --------------------
    phi_g = make_phi(Gaussian(1.0))
    bm = Brownian(dt=1e-3, horizon=20.0)
    brownian_x = _events(
        ("bm_line_upper_s2_g2", B.line_bound(phi_g, s=2.0, gamma=2.0, v_tau=1.0)),
        ("bm_line_upper_s1_g2", B.line_bound(phi_g, s=1.0, gamma=2.0, v_tau=1.0)),
        ("bm_line_lower_s1_g1",
         B.line_bound(phi_g, s=1.0, gamma=1.0, v_tau=1.0, side="lower")),
        ("bm_opt_line_upper_g1", B.optimized_line_bound(phi_g, gamma=1.0, v_tau=1.0)),
        ("bm_opt_line_lower_g1",
         B.optimized_line_bound(phi_g, gamma=1.0, v_tau=1.0, side="lower")),
        ("bm_vee_upper_g1", B.vee_bound(phi_g, gamma=1.0, v_tau=1.0)),
        ("bm_vee_lower_g1", B.vee_bound(phi_g, gamma=1.0, v_tau=1.0, side="lower")),
        ("bm_eta_ray_upper", B.eta_bound(phi_g, gamma=0.5, eta=1.0, variant="ray")),
        ("bm_eta_ray_lower",
         B.eta_bound(phi_g, gamma=0.5, eta=1.0, variant="ray", side="lower")),
        ("bm_eta_vee_upper",
         B.eta_bound(phi_g, gamma=1.0, eta=1.0, v_tau=1.0, variant="vee")),
        ("bm_eta_vee_lower", B.eta_bound(phi_g, gamma=1.0, eta=1.0, v_tau=1.0,
                                         variant="vee", side="lower")),
        ("bm_azuma_upper", B.azuma_bound(gamma=2.0, v_tau=1.0, kind="upper")),
        ("bm_azuma_lower", B.azuma_bound(gamma=2.0, v_tau=1.0, kind="lower")),
        ("bm_azuma_two_sided", B.azuma_bound(gamma=2.5, v_tau=1.0, kind="two_sided")),
    )

    # -- exponential martingale over Brownian motion ------------------------
    brownian_y = _events(
        *((f"bm_doob_g{g:g}", B.doob_exp_bound(g, phi_g)) for g in (2.0, 1.25)),
        ("bm_them5_g4",
         B.supermartingale_sup_bound(1.0, 0.0, 4.0, continuous_martingale=True)),
        ("bm_them5_certain_g1",
         B.supermartingale_sup_bound(1.0, 0.0, 1.0, continuous_martingale=True)),
    )

    # -- i.i.d. Uniform(-1/2, 1/2), phi(s) = s^2/24 --------------------------
    phi_u = make_phi(Uniform24())
    usp = IidSum(UniformIncrements(), n=400)
    uniform = _events(
        ("unif_opt_line_upper", B.optimized_line_bound(phi_u, gamma=0.2, v_tau=10.0)),
        ("unif_opt_line_lower",
         B.optimized_line_bound(phi_u, gamma=0.2, v_tau=10.0, side="lower")),
        ("unif_vee_upper", B.vee_bound(phi_u, gamma=0.2, v_tau=10.0)),
        ("unif_eta_ray_upper", B.eta_bound(phi_u, gamma=0.2, eta=0.5, variant="ray")),
        ("unif_eta_vee_upper",
         B.eta_bound(phi_u, gamma=0.15, eta=0.3, v_tau=10.0, variant="vee")),
    )
    uniform_y = _events(("unif_cthm7_g2", B.doob_exp_bound(2.0, phi_u)))

    # -- i.i.d. centered Bernoulli(0.3), Hoeffding phi -----------------------
    phi_h = make_phi(HoeffdingBernoulli(0.3))
    fam = B.bernoulli_family()
    rho = B.expfam_bound(fam, theta=0.3, gamma=0.2, m=20)
    bernoulli = _events(
        ("bern_opt_line_upper_g015",
         B.optimized_line_bound(phi_h, gamma=0.15, v_tau=20.0)),
        ("bern_opt_line_upper_g02",
         B.optimized_line_bound(phi_h, gamma=0.2, v_tau=20.0)),
        ("bern_opt_line_lower_g02",
         B.optimized_line_bound(phi_h, gamma=0.2, v_tau=20.0, side="lower")),
        ("bern_vee_upper", B.vee_bound(phi_h, gamma=0.2, v_tau=20.0)),
        ("bern_eta_vee_upper",
         B.eta_bound(phi_h, gamma=0.1, eta=2.0, v_tau=20.0, variant="vee")),
        ("bern_expfam_vee_upper", rho),
        ("bern_expfam_rho_line_upper", rho, dict(kind="line", slope=rho.slope_used)),
        ("bern_expfam_vee_lower",
         B.expfam_bound(fam, theta=0.3, gamma=0.2, m=20, side="lower")),
    )

    # -- Poisson counting process, centered, exact jump grid ----------------
    phi_p = make_phi(PoissonCentered(1.0))
    poisson = _events(
        ("pois_line_upper_t1", B.poisson_bounds(1.0, gamma=1.0, tau=1.0)),
        ("pois_line_upper_t3", B.poisson_bounds(1.0, gamma=1.0, tau=3.0)),
        ("pois_line_lower_t2",
         B.poisson_bounds(1.0, gamma=0.5, tau=2.0, side="lower")),
        ("pois_vee_upper", B.vee_bound(phi_p, gamma=1.0, v_tau=2.0)),
        ("pois_eta_ray_upper", B.eta_bound(phi_p, gamma=2.0, eta=0.8, variant="ray")),
    )

    # -- bounded-increment martingale corollaries (Bernoulli(1/2) steps) ----
    # Steps +-1/2: variance 1/4 per step, b = 1, a_n = 0, V_n = n/4.  Event
    # parameters are rescaled to the step-count vproxy grid, so these events
    # are stated here rather than derived by _event.
    v_m, b_inc = 10.0, 1.0
    m_steps = v_m / 0.25
    r = B.cbb_bounds(gamma=0.6, v_m=v_m, b=b_inc, which="bennett")
    cbb = [EventSpec(kind="line", side="upper", gamma=0.6 * v_m / m_steps,
                     v_tau=m_steps, slope=r.slope_used * 0.25, bound=r.bound,
                     label="cbb_bennett")]
    for g, which in ((4.0, "bernstein"), (4.0, "chernoff_sub")):
        r = B.cbb_bounds(gamma=g, v_m=v_m, b=b_inc, which=which)
        cbb.append(EventSpec(kind="line", side="upper", gamma=g / m_steps,
                             v_tau=m_steps, slope=(g / (2.0 * v_m)) * 0.25,
                             bound=r.bound, label=f"cbb_{which}"))

    # -- two-point increments matching the Bennett phi exactly --------------
    phi_b = make_phi(Bennett(sigma2=1.0, b=2.0))
    bennett_two_point = _events(
        ("bennett2p_opt_line_upper",
         B.optimized_line_bound(phi_b, gamma=0.5, v_tau=5.0)),
        ("bennett2p_opt_line_lower",
         B.optimized_line_bound(phi_b, gamma=0.4, v_tau=5.0, side="lower")),
    )

    # -- +-1 walk against the two-sided envelope -----------------------------
    walk = _events(("walk_azuma_two_sided",
                    B.azuma_bound(gamma=5.0, v_tau=9.0, kind="two_sided")))

    # group seeds are seed + 7919 i, so the order is part of the results
    return [
        ("brownian_x", bm, brownian_x),
        ("brownian_y", ExpSupermartingale(base=bm, s=1.0, phi=phi_g), brownian_y),
        ("uniform", usp, uniform),
        ("uniform_y", ExpSupermartingale(base=usp, s=0.5, phi=phi_u), uniform_y),
        ("bernoulli", IidSum(BernoulliIncrements(0.3), n=1000), bernoulli),
        ("poisson", PoissonCounting(lam=1.0, horizon=60.0, centered=True), poisson),
        ("cbb", IidSum(BernoulliIncrements(0.5), n=1500), cbb),
        ("bennett_two_point",
         IidSum(TwoPointIncrements(hi=2.0, lo=-0.5, p_hi=0.2), n=400),
         bennett_two_point),
        ("walk", LazyWalk(p_move=1.0, n=400), walk),
    ]


def run_theorem9_all(paths: int = 50_000, seed: int = 0, alpha: float = 0.01,
                     threads: Optional[int] = None) -> list:
    """Every group's sweep at seed + 7919 i, its chunks on one pool."""
    groups = theorem9_groups()
    per_group = _sweep_groups(
        [(spec, events, seed + 7919 * i)
         for i, (_, spec, events) in enumerate(groups)], paths, alpha, threads)
    reports = []
    for (name, _, _), reps in zip(groups, per_group):
        for rep in reps:
            rep.extra["group"] = name
        reports.extend(reps)
    return reports


# ---------------------------------------------------------------------------
# expexact_brownian: exactness suite for sup Y >= gamma, Y = exp(W_t - t/2)
# ---------------------------------------------------------------------------


def _exp_brownian(dt: float, horizon: float) -> ExpSupermartingale:
    """Y_t = exp(W_t - t/2); sweep counts sup Y >= g as max(W - t/2) >= log g."""
    return ExpSupermartingale(Brownian(dt=dt, horizon=horizon), s=1.0,
                              phi=make_phi(Gaussian(1.0)))


def choose_horizon_by_doubling(gammas, paths, seed, dt=1e-3, t0=30.0,
                               alpha: float = 0.01, pilot_paths: int = 10_000,
                               threads: Optional[int] = None):
    """Double the horizon, at most three times, until the paired
    crossing-probability change from T to 2T is below half the main run's CI
    width for every gamma; the T crossings are a prefix event on the same 2T
    pilot paths."""
    if paths <= 0:
        raise InvalidParameter("paths must be positive")
    from scipy.special import ndtri  # loaded at the first horizon rule
    z = float(ndtri(1.0 - alpha / 2.0))
    T = t0
    for _ in range(3):
        events = [EventSpec(kind="sup_level", gamma=g, steps=steps)
                  for steps in (int(round(T / dt)), None) for g in gammas]
        reps = sweep(_exp_brownian(dt, 2 * T), events, pilot_paths,
                     seed=seed + 911, alpha=alpha, threads=threads)
        k = np.array([r.n_crossed for r in reps]).reshape(2, len(gammas))
        p_t = k[0] / pilot_paths
        deltas = (k[1] - k[0]) / pilot_paths
        half_width = z * np.sqrt(np.maximum(p_t * (1 - p_t), 1e-12) / paths)
        if np.all(deltas < half_width):
            return T
        T *= 2.0
    return T


def run_expexact_brownian(paths: int = 200_000, seed: int = 0,
                          alpha: float = 0.01, threads: Optional[int] = None,
                          dt: float = 1e-3, gammas=(1.5, 2.0, 4.0),
                          t0: float = 30.0, pilot_paths: int = 10_000) -> list:
    """Check P{sup_t exp(W_t - t/2) >= gamma} = 1/gamma empirically.

    The grid supremum under-counts continuous crossings; the report carries a
    dt-halving grid allowance (Richardson-extrapolated from the paired 2dt
    coarsening of the same paths, a stride-2 event, sqrt(dt) bias order) and
    the verdict-style flags used by the acceptance suite.
    """
    t_start = time.perf_counter()
    T = choose_horizon_by_doubling(gammas, paths, seed, dt=dt, t0=t0,
                                   alpha=alpha, pilot_paths=pilot_paths,
                                   threads=threads)
    events = [EventSpec(kind="sup_level", gamma=g, bound=1.0 / g,
                        label=f"expexact_g{g:g}", stride=stride)
              for stride in (1, 2) for g in gammas]
    reps = sweep(_exp_brownian(dt, T), events, paths, seed=seed, alpha=alpha,
                 threads=threads)
    elapsed = time.perf_counter() - t_start
    out = []
    for fine, coarse in zip(reps, reps[len(gammas):]):
        allowance = halving_allowance(fine.p_hat, coarse.p_hat)
        out.append(dataclasses.replace(
            fine, verdict="violated" if fine.ci_lo > fine.bound else "holds",
            runtime_seconds=elapsed,
            extra={
                "horizon": T, "dt": dt, "p_coarse": coarse.p_hat,
                "grid_allowance": allowance,
                "contains_inverse_gamma": bool(
                    fine.ci_lo <= fine.bound <= fine.ci_hi + allowance),
                "abs_error": abs(fine.p_hat - fine.bound),
                "exact": True,
            }))
    return out


# ---------------------------------------------------------------------------
# optional_stopping: nested first-exit expectations for the +-1 walk
# ---------------------------------------------------------------------------


def walk_region_pair() -> RegionPair:
    return RegionPair(inner=ContinuityRegion.constant(-3.0, 3.0, envelope=5.0),
                      outer=ContinuityRegion.constant(-5.0, 5.0, envelope=5.0))


def run_optional_stopping(paths: int = 100_000, seed: int = 0,
                          alpha: float = 0.01,
                          threads: Optional[int] = None) -> list:
    """One stopping row per 10 000-step walk, both from one serial harvest
    pass that draws each path once (validate.stopping_rows); threads is
    checked like every preset's."""
    _check_run(paths, alpha, threads)
    return stopping_rows(
        [(LazyWalk(p_move=1.0, n=10_000, drift=drift), kind, label)
         for label, drift, kind in (
             ("walk_martingale", 0.0, "martingale"),
             ("walk_supermartingale", -0.1, "supermartingale"))],
        walk_region_pair(), paths, seed, alpha=alpha)


PRESETS = {
    "theorem9_all": Preset(
        description="Domination sweep: every inequality family against its "
                    "matched process (~40 rows, expect all holds).",
        runner=run_theorem9_all,
    ),
    "expexact_brownian": Preset(
        description="Exactness of P{sup exp(W_t - t/2) >= gamma} = 1/gamma "
                    "with horizon doubling and dt-halving grid allowance.",
        runner=run_expexact_brownian,
    ),
    "optional_stopping": Preset(
        description="Nested first-exit expectations for the symmetric walk "
                    "(equality) and its drifted variant (inequality).",
        runner=run_optional_stopping,
    ),
}
