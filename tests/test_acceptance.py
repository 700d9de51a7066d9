"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The Monte Carlo criteria
use fixed seeds; the heavy ones (1 and 2) take a few minutes on a desktop.
"""

import math
import time

import numpy as np
import pytest

from crossbound import (
    CbbExp,
    Gaussian,
    PoissonCentered,
    azuma_bound,
    bernoulli_family,
    cbb_bounds,
    expfam_bound,
    make_phi,
    minimize_tail_exponent,
    optimized_line_bound,
    poisson_bounds,
)
from crossbound.presets import (
    run_expexact_brownian,
    run_optional_stopping,
    run_theorem9_all,
)

GAMMA_GRID = (0.1, 0.5, 1.0, 2.0, 5.0)


def _report(num, name, ok, detail):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.mark.filterwarnings("ignore:truncation fraction")
def test_criterion_1_expexact_brownian():
    t0 = time.perf_counter()
    reps = run_expexact_brownian(paths=200_000, seed=20_240_808, alpha=0.01,
                                 dt=1e-3, gammas=(1.5, 2.0, 4.0), t0=30.0)
    elapsed = time.perf_counter() - t0
    ok = True
    details = []
    for rep in reps:
        contains = rep.extra["contains_inverse_gamma"]
        within = rep.extra["abs_error"] <= 0.02
        ok = ok and contains and within
        details.append(
            f"{rep.label}: p={rep.p_hat:.5f} 1/g={rep.bound:.5f} "
            f"ci=({rep.ci_lo:.5f},{rep.ci_hi:.5f}) "
            f"allow={rep.extra['grid_allowance']:.5f} T={rep.extra['horizon']:g} "
            f"contains={contains} |err|={rep.extra['abs_error']:.5f}")
    _report(1, "exactness of sup-level probabilities", ok,
            "; ".join(details) + f" [{elapsed:.0f}s]")
    for rep in reps:
        assert rep.extra["contains_inverse_gamma"], rep.label
        assert rep.extra["abs_error"] <= 0.02, rep.label


def test_criterion_2_bound_domination():
    t0 = time.perf_counter()
    reps = run_theorem9_all(paths=50_000, seed=1234, alpha=0.01)
    elapsed = time.perf_counter() - t0
    violated = [r.label for r in reps if r.verdict == "violated"]
    not_holds = [(r.label, r.verdict) for r in reps if r.verdict != "holds"]
    ok = not violated and not not_holds
    _report(2, "bound domination sweep", ok,
            f"{len(reps)} rows, violations={violated or 'none'}, "
            f"non-holds={not_holds or 'none'} [{elapsed:.0f}s]")
    assert len(reps) >= 40
    assert not violated, violated
    assert not not_holds, not_holds


def test_criterion_3_optional_stopping():
    t0 = time.perf_counter()
    reps = run_optional_stopping(paths=100_000, seed=77)
    elapsed = time.perf_counter() - t0
    mart = next(r.extra for r in reps if r.label == "walk_martingale")
    sup = next(r.extra for r in reps if r.label == "walk_supermartingale")
    ok_inner = abs(mart["mean_inner"]) <= 3.0 * mart["se_inner"]
    ok_outer = abs(mart["mean_outer"]) <= 3.0 * mart["se_outer"]
    ok_trunc = mart["truncated_outer"] < 0.001 and mart["truncated_inner"] < 0.001
    ok_sup = sup["mean_diff"] <= 3.0 * sup["se_diff"]
    ok = ok_inner and ok_outer and ok_trunc and ok_sup
    _report(3, "optional stopping", ok,
            f"martingale inner={mart['mean_inner']:+.5f} (se {mart['se_inner']:.5f}), "
            f"outer={mart['mean_outer']:+.5f} (se {mart['se_outer']:.5f}), "
            f"trunc={mart['truncated_outer']:.2e}; supermartingale "
            f"diff={sup['mean_diff']:+.5f} (se {sup['se_diff']:.5f}) [{elapsed:.0f}s]")
    assert ok_inner and ok_outer
    assert ok_trunc
    assert ok_sup


def test_criterion_4_optimizer_closed_forms():
    t0 = time.perf_counter()
    worst = 0.0
    for b in (0.5, 1.0, 2.0):
        phi = make_phi(CbbExp(b))
        for g in GAMMA_GRID:
            r = minimize_tail_exponent(phi, g)
            worst = max(worst, abs(r.s_opt - math.log1p(b * g) / b))
    for lam in (0.5, 1.0, 2.0):
        phi = make_phi(PoissonCentered(lam))
        for g in GAMMA_GRID:
            r = minimize_tail_exponent(phi, g)
            worst = max(worst, abs(r.s_opt - math.log((lam + g) / lam)))
    phi = make_phi(Gaussian(1.0))
    for g in GAMMA_GRID:
        r = minimize_tail_exponent(phi, g)
        worst = max(worst, abs(r.s_opt - g))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8
    _report(4, "optimizer closed forms", ok,
            f"max |s* - closed form| = {worst:.2e} [{elapsed:.2f}s]")
    assert ok


def test_criterion_5_pipeline_identities():
    t0 = time.perf_counter()
    worst = 0.0
    phi_g = make_phi(Gaussian(1.0))
    for g in (0.5, 1.0, 2.0, 4.0):
        for v in (0.5, 1.0, 2.0, 10.0):
            a = azuma_bound(g, v).raw
            o = optimized_line_bound(phi_g, g / v, v).raw
            worst = max(worst, abs(a - o) / abs(a))
    for b in (0.5, 1.0, 2.0):
        phi = make_phi(CbbExp(b))
        for g in (0.25, 1.0, 3.0):
            for v in (1.0, 5.0):
                a = cbb_bounds(g, v, b, which="bennett").raw
                o = optimized_line_bound(phi, g, v).raw
                worst = max(worst, abs(a - o) / abs(a))
    for lam in (0.5, 1.0, 2.0):
        phi = make_phi(PoissonCentered(lam))
        for g in (0.5, 1.0, 2.0):
            for tau in (1.0, 3.0):
                a = poisson_bounds(lam, g, tau).raw
                o = optimized_line_bound(phi, g, tau).raw
                worst = max(worst, abs(a - o) / abs(a))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12
    _report(5, "pipeline identities", ok,
            f"max relative mismatch = {worst:.2e} [{elapsed:.2f}s]")
    assert ok


def test_criterion_6_auxiliary_inequalities():
    t0 = time.perf_counter()
    s = np.linspace(-50.0, 50.0, 10_000)
    s = s[s != 0.0]
    uniform_ok = bool(np.all(np.log(np.sinh(s / 2.0) / (s / 2.0))
                             <= np.square(s) / 24.0 + 1e-12))

    u = np.linspace(1e-6, 3.0 - 1e-9, 10_000)
    series = 0.5 + u / 6.0 + u ** 2 / 24.0 + u ** 3 / 120.0 + u ** 4 / 720.0
    g = np.where(u < 1e-3, series, (np.expm1(u) - u) / np.square(u))
    ratio_ok = bool(np.all(g <= 1.0 / (2.0 * (1.0 - u / 3.0)) + 1e-12))

    w = np.linspace(1e-9, 1.75, 10_000)
    sub_ok = bool(np.all(np.expm1(w) - w <= np.square(w) + 1e-12))

    fam = bernoulli_family()
    slope_ok = True
    for theta in np.linspace(0.05, 0.9, 18):
        for gamma in np.linspace(0.02, 0.9, 15):
            if theta + gamma >= 0.999:
                continue
            r = expfam_bound(fam, theta=float(theta), gamma=float(gamma), m=1)
            slope_ok = slope_ok and (0.0 < r.slope_used < gamma)
    elapsed = time.perf_counter() - t0
    ok = uniform_ok and ratio_ok and sub_ok and slope_ok
    _report(6, "auxiliary numeric inequalities", ok,
            f"uniform24={uniform_ok} exp-ratio={ratio_ok} subgaussian={sub_ok} "
            f"expfam-slope={slope_ok} [{elapsed:.2f}s]")
    assert uniform_ok and ratio_ok and sub_ok and slope_ok


def test_criterion_7_certain_crossing_at_gamma_one():
    from crossbound import Brownian, ExpSupermartingale
    from crossbound.validate import EventSpec, sweep

    t0 = time.perf_counter()
    phi = make_phi(Gaussian(1.0))
    spec = ExpSupermartingale(Brownian(dt=1e-3, horizon=1.0), s=1.0, phi=phi)
    ev = EventSpec(kind="sup_level", gamma=1.0, bound=1.0, label="certain")
    rep = sweep(spec, [ev], n_paths=20_000, seed=5150)[0]
    elapsed = time.perf_counter() - t0
    ok = rep.p_hat >= 0.999
    _report(7, "certain crossing for gamma <= E[Y_0]", ok,
            f"frequency={rep.p_hat:.6f} at gamma=1 [{elapsed:.0f}s]")
    assert ok
