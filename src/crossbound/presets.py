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
from scipy import stats as _scipy_stats

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
    clopper_pearson,  # noqa: F401  (likewise)
    halving_allowance,
    stopping_row,
    sweep,
)


@dataclasses.dataclass(frozen=True)
class Preset:
    name: str
    description: str
    default_paths: int
    runner: Callable


# ---------------------------------------------------------------------------
# theorem9_all: domination sweep
# ---------------------------------------------------------------------------


def _line_event(report, side, label, gamma, v_tau, slope=None):
    return EventSpec(kind="line", side=side, gamma=gamma, v_tau=v_tau,
                     slope=report.slope_used if slope is None else slope,
                     bound=report.bound, label=label)


def theorem9_groups():
    """(group name, process spec, events) triples for the domination sweep."""
    groups = []

    # -- Brownian motion, phi(s) = s^2/2 (exact log-MGF) --------------------
    phi_g = make_phi(Gaussian(1.0))
    bm = Brownian(dt=1e-3, horizon=20.0)
    ev = []
    r = B.line_bound(phi_g, s=2.0, gamma=2.0, v_tau=1.0)
    ev.append(_line_event(r, "upper", "bm_line_upper_s2_g2", 2.0, 1.0))
    r = B.line_bound(phi_g, s=1.0, gamma=2.0, v_tau=1.0)
    ev.append(_line_event(r, "upper", "bm_line_upper_s1_g2", 2.0, 1.0))
    r = B.line_bound(phi_g, s=1.0, gamma=1.0, v_tau=1.0, side="lower")
    ev.append(_line_event(r, "lower", "bm_line_lower_s1_g1", 1.0, 1.0))
    r = B.optimized_line_bound(phi_g, gamma=1.0, v_tau=1.0)
    ev.append(_line_event(r, "upper", "bm_opt_line_upper_g1", 1.0, 1.0))
    r = B.optimized_line_bound(phi_g, gamma=1.0, v_tau=1.0, side="lower")
    ev.append(_line_event(r, "lower", "bm_opt_line_lower_g1", 1.0, 1.0))
    r = B.vee_bound(phi_g, gamma=1.0, v_tau=1.0)
    ev.append(EventSpec(kind="vee", side="upper", gamma=1.0, v_tau=1.0,
                        bound=r.bound, label="bm_vee_upper_g1"))
    r = B.vee_bound(phi_g, gamma=1.0, v_tau=1.0, side="lower")
    ev.append(EventSpec(kind="vee", side="lower", gamma=1.0, v_tau=1.0,
                        bound=r.bound, label="bm_vee_lower_g1"))
    r = B.eta_bound(phi_g, gamma=0.5, eta=1.0, variant="ray")
    ev.append(EventSpec(kind="eta_ray", side="upper", gamma=0.5, eta=1.0,
                        bound=r.bound, label="bm_eta_ray_upper"))
    r = B.eta_bound(phi_g, gamma=0.5, eta=1.0, variant="ray", side="lower")
    ev.append(EventSpec(kind="eta_ray", side="lower", gamma=0.5, eta=1.0,
                        bound=r.bound, label="bm_eta_ray_lower"))
    r = B.eta_bound(phi_g, gamma=1.0, eta=1.0, v_tau=1.0, variant="vee")
    ev.append(EventSpec(kind="vee", side="upper", gamma=1.0, eta=1.0, v_tau=1.0,
                        bound=r.bound, label="bm_eta_vee_upper"))
    r = B.eta_bound(phi_g, gamma=1.0, eta=1.0, v_tau=1.0, variant="vee",
                    side="lower")
    ev.append(EventSpec(kind="vee", side="lower", gamma=1.0, eta=1.0, v_tau=1.0,
                        bound=r.bound, label="bm_eta_vee_lower"))
    r = B.azuma_bound(gamma=2.0, v_tau=1.0, kind="upper")
    ev.append(EventSpec(kind="line", side="upper", gamma=2.0, v_tau=1.0,
                        slope=1.0, bound=r.bound, label="bm_azuma_upper"))
    r = B.azuma_bound(gamma=2.0, v_tau=1.0, kind="lower")
    ev.append(EventSpec(kind="line", side="lower", gamma=2.0, v_tau=1.0,
                        slope=1.0, bound=r.bound, label="bm_azuma_lower"))
    r = B.azuma_bound(gamma=2.5, v_tau=1.0, kind="two_sided")
    ev.append(EventSpec(kind="line", side="two_sided", gamma=2.5, v_tau=1.0,
                        slope=1.25, bound=r.bound, label="bm_azuma_two_sided"))
    groups.append(("brownian_x", bm, ev))

    # -- exponential martingale over Brownian motion ------------------------
    yspec = ExpSupermartingale(base=bm, s=1.0, phi=phi_g)
    ev = []
    for g in (2.0, 1.25):
        r = B.doob_exp_bound(g, phi_g)
        ev.append(EventSpec(kind="sup_level", gamma=g, bound=r.bound,
                            label=f"bm_doob_g{g:g}"))
    r = B.supermartingale_sup_bound(1.0, 0.0, 4.0, continuous_martingale=True)
    ev.append(EventSpec(kind="sup_level", gamma=4.0, bound=r.bound,
                        label="bm_them5_g4"))
    r = B.supermartingale_sup_bound(1.0, 0.0, 1.0, continuous_martingale=True)
    ev.append(EventSpec(kind="sup_level", gamma=1.0, bound=r.bound,
                        label="bm_them5_certain_g1"))
    groups.append(("brownian_y", yspec, ev))

    # -- i.i.d. Uniform(-1/2, 1/2), phi(s) = s^2/24 --------------------------
    phi_u = make_phi(Uniform24())
    usp = IidSum(UniformIncrements(), n=400)
    ev = []
    r = B.optimized_line_bound(phi_u, gamma=0.2, v_tau=10.0)
    ev.append(_line_event(r, "upper", "unif_opt_line_upper", 0.2, 10.0))
    r = B.optimized_line_bound(phi_u, gamma=0.2, v_tau=10.0, side="lower")
    ev.append(_line_event(r, "lower", "unif_opt_line_lower", 0.2, 10.0))
    r = B.vee_bound(phi_u, gamma=0.2, v_tau=10.0)
    ev.append(EventSpec(kind="vee", side="upper", gamma=0.2, v_tau=10.0,
                        bound=r.bound, label="unif_vee_upper"))
    r = B.eta_bound(phi_u, gamma=0.2, eta=0.5, variant="ray")
    ev.append(EventSpec(kind="eta_ray", side="upper", gamma=0.2, eta=0.5,
                        bound=r.bound, label="unif_eta_ray_upper"))
    r = B.eta_bound(phi_u, gamma=0.15, eta=0.3, v_tau=10.0, variant="vee")
    ev.append(EventSpec(kind="vee", side="upper", gamma=0.15, eta=0.3,
                        v_tau=10.0, bound=r.bound, label="unif_eta_vee_upper"))
    groups.append(("uniform", usp, ev))

    yu = ExpSupermartingale(base=usp, s=0.5, phi=phi_u)
    r = B.doob_exp_bound(2.0, phi_u)
    groups.append(("uniform_y", yu, [EventSpec(
        kind="sup_level", gamma=2.0, bound=r.bound, label="unif_cthm7_g2")]))

    # -- i.i.d. centered Bernoulli(0.3), Hoeffding phi -----------------------
    phi_h = make_phi(HoeffdingBernoulli(0.3))
    bsp = IidSum(BernoulliIncrements(0.3), n=1000)
    ev = []
    r = B.optimized_line_bound(phi_h, gamma=0.15, v_tau=20.0)
    ev.append(_line_event(r, "upper", "bern_opt_line_upper_g015", 0.15, 20.0))
    r = B.optimized_line_bound(phi_h, gamma=0.2, v_tau=20.0)
    ev.append(_line_event(r, "upper", "bern_opt_line_upper_g02", 0.2, 20.0))
    r = B.optimized_line_bound(phi_h, gamma=0.2, v_tau=20.0, side="lower")
    ev.append(_line_event(r, "lower", "bern_opt_line_lower_g02", 0.2, 20.0))
    r = B.vee_bound(phi_h, gamma=0.2, v_tau=20.0)
    ev.append(EventSpec(kind="vee", side="upper", gamma=0.2, v_tau=20.0,
                        bound=r.bound, label="bern_vee_upper"))
    r = B.eta_bound(phi_h, gamma=0.1, eta=2.0, v_tau=20.0, variant="vee")
    ev.append(EventSpec(kind="vee", side="upper", gamma=0.1, eta=2.0,
                        v_tau=20.0, bound=r.bound, label="bern_eta_vee_upper"))
    fam = B.bernoulli_family()
    r = B.expfam_bound(fam, theta=0.3, gamma=0.2, m=20)
    ev.append(EventSpec(kind="vee", side="upper", gamma=0.2, v_tau=20.0,
                        bound=r.bound, label="bern_expfam_vee_upper"))
    ev.append(EventSpec(kind="line", side="upper", gamma=0.2, v_tau=20.0,
                        slope=r.slope_used, bound=r.bound,
                        label="bern_expfam_rho_line_upper"))
    r = B.expfam_bound(fam, theta=0.3, gamma=0.2, m=20, side="lower")
    ev.append(EventSpec(kind="vee", side="lower", gamma=0.2, v_tau=20.0,
                        bound=r.bound, label="bern_expfam_vee_lower"))
    groups.append(("bernoulli", bsp, ev))

    # -- Poisson counting process, centered, exact jump grid ----------------
    phi_p = make_phi(PoissonCentered(1.0))
    psp = PoissonCounting(lam=1.0, horizon=60.0, centered=True)
    ev = []
    r = B.poisson_bounds(1.0, gamma=1.0, tau=1.0)
    ev.append(EventSpec(kind="line", side="upper", gamma=1.0, v_tau=1.0,
                        slope=r.params["centered_slope"], bound=r.bound,
                        label="pois_line_upper_t1"))
    r = B.poisson_bounds(1.0, gamma=1.0, tau=3.0)
    ev.append(EventSpec(kind="line", side="upper", gamma=1.0, v_tau=3.0,
                        slope=r.params["centered_slope"], bound=r.bound,
                        label="pois_line_upper_t3"))
    r = B.poisson_bounds(1.0, gamma=0.5, tau=2.0, side="lower")
    ev.append(EventSpec(kind="line", side="lower", gamma=0.5, v_tau=2.0,
                        slope=r.params["centered_slope"], bound=r.bound,
                        label="pois_line_lower_t2"))
    r = B.vee_bound(phi_p, gamma=1.0, v_tau=2.0)
    ev.append(EventSpec(kind="vee", side="upper", gamma=1.0, v_tau=2.0,
                        bound=r.bound, label="pois_vee_upper"))
    r = B.eta_bound(phi_p, gamma=2.0, eta=0.8, variant="ray")
    ev.append(EventSpec(kind="eta_ray", side="upper", gamma=2.0, eta=0.8,
                        bound=r.bound, label="pois_eta_ray_upper"))
    groups.append(("poisson", psp, ev))

    # -- bounded-increment martingale corollaries (Bernoulli(1/2) steps) ----
    # Steps +-1/2: variance 1/4 per step, b = 1, a_n = 0, V_n = n/4.  Event
    # parameters are rescaled to the step-count vproxy grid.
    csp = IidSum(BernoulliIncrements(0.5), n=1500)
    v_m, b_inc = 10.0, 1.0
    m_steps = v_m / 0.25
    ev = []
    r = B.cbb_bounds(gamma=0.6, v_m=v_m, b=b_inc, which="bennett")
    ev.append(EventSpec(kind="line", side="upper",
                        gamma=0.6 * v_m / m_steps, v_tau=m_steps,
                        slope=r.slope_used * 0.25, bound=r.bound,
                        label="cbb_bennett"))
    for g, which in ((4.0, "bernstein"), (4.0, "chernoff_sub")):
        r = B.cbb_bounds(gamma=g, v_m=v_m, b=b_inc, which=which)
        ev.append(EventSpec(kind="line", side="upper",
                            gamma=g / m_steps, v_tau=m_steps,
                            slope=(g / (2.0 * v_m)) * 0.25, bound=r.bound,
                            label=f"cbb_{which}"))
    groups.append(("cbb", csp, ev))

    # -- two-point increments matching the Bennett phi exactly --------------
    phi_b = make_phi(Bennett(sigma2=1.0, b=2.0))
    tsp = IidSum(TwoPointIncrements(hi=2.0, lo=-0.5, p_hi=0.2), n=400)
    ev = []
    r = B.optimized_line_bound(phi_b, gamma=0.5, v_tau=5.0)
    ev.append(_line_event(r, "upper", "bennett2p_opt_line_upper", 0.5, 5.0))
    r = B.optimized_line_bound(phi_b, gamma=0.4, v_tau=5.0, side="lower")
    ev.append(_line_event(r, "lower", "bennett2p_opt_line_lower", 0.4, 5.0))
    groups.append(("bennett_two_point", tsp, ev))

    # -- +-1 walk against the two-sided envelope -----------------------------
    wsp = LazyWalk(p_move=1.0, n=400)
    r = B.azuma_bound(gamma=5.0, v_tau=9.0, kind="two_sided")
    groups.append(("walk", wsp, [EventSpec(
        kind="line", side="two_sided", gamma=5.0 / 9.0, v_tau=9.0,
        slope=5.0 / 18.0, bound=r.bound, label="walk_azuma_two_sided")]))

    return groups


def run_theorem9_all(paths: int = 50_000, seed: int = 0, alpha: float = 0.01,
                     threads: Optional[int] = None) -> list:
    reports = []
    for i, (name, spec, events) in enumerate(theorem9_groups()):
        reps = sweep(spec, events, n_paths=paths, seed=seed + 7919 * i,
                     alpha=alpha, threads=threads)
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
                               threads: Optional[int] = None,
                               max_doublings: int = 3):
    """Double the horizon until the paired crossing-probability change from T
    to 2T is below half the main run's CI width for every gamma; the T
    crossings are a prefix event on the same 2T pilot paths."""
    if paths <= 0:
        raise InvalidParameter("paths must be positive")
    z = float(_scipy_stats.norm.ppf(1.0 - alpha / 2.0))
    T = t0
    for _ in range(max_doublings):
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
                          alpha: float = 0.01, threads: Optional[int] = None,
                          horizon: int = 10_000) -> list:
    """One stopping row per walk; the harvest is serial, and threads is
    checked like every preset's."""
    _check_run(paths, alpha, threads)
    pair = walk_region_pair()
    return [stopping_row(LazyWalk(p_move=1.0, n=horizon, drift=drift), pair,
                         paths, horizon, seed, kind=kind, label=label,
                         alpha=alpha)
            for label, drift, kind in (
                ("walk_martingale", 0.0, "martingale"),
                ("walk_supermartingale", -0.1, "supermartingale"))]


PRESETS = {
    "theorem9_all": Preset(
        name="theorem9_all",
        description="Domination sweep: every inequality family against its "
                    "matched process (~40 rows, expect all holds).",
        default_paths=50_000,
        runner=run_theorem9_all,
    ),
    "expexact_brownian": Preset(
        name="expexact_brownian",
        description="Exactness of P{sup exp(W_t - t/2) >= gamma} = 1/gamma "
                    "with horizon doubling and dt-halving grid allowance.",
        default_paths=200_000,
        runner=run_expexact_brownian,
    ),
    "optional_stopping": Preset(
        name="optional_stopping",
        description="Nested first-exit expectations for the symmetric walk "
                    "(equality) and its drifted variant (inequality).",
        default_paths=100_000,
        runner=run_optional_stopping,
    ),
}
