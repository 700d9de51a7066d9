import dataclasses
import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossbound import (
    Bennett,
    Bernstein,
    CbbExp,
    CrossboundError,
    Custom,
    DomainViolation,
    Gaussian,
    HoeffdingBernoulli,
    MonotonicityViolation,
    NotUnimodal,
    PoissonCentered,
    Uniform24,
    UnsupportedSide,
    azuma_bound,
    cbb_bounds,
    eta_bound,
    line_bound,
    make_phi,
    minimize_tail_exponent,
    optimized_line_bound,
    poisson_bounds,
    solve_slope_root,
    vee_bound,
)
from crossbound import optimize

# independent oracle (bisection on e^s - 1 - 2s, frozen before the build)
CBB_ROOT_G1 = 1.2564312086261697


CATALOG = (Gaussian(1.0), Bennett(1.0, 2.0), HoeffdingBernoulli(0.3),
           Uniform24(), PoissonCentered(1.0), CbbExp(1.0), Bernstein(1.0))
GAMMAS = st.floats(0.05, 5.0)
VS = st.floats(0.2, 20.0)


def _rel(a, b):
    return abs(a - b) / abs(a)


class TestMinimizerShape:
    def test_wavy_phi_not_unimodal(self):
        phi = make_phi(Custom(
            phi=lambda s: 1.0 - np.cos(3.0 * np.asarray(s)) + 0.05 * np.square(s)))
        for side in ("upper", "lower"):
            with pytest.raises(NotUnimodal):
                minimize_tail_exponent(phi, 1.0, side=side)

    def test_kinked_convex_phi_without_derivative(self):
        phi = make_phi(Custom(phi=lambda s: 2.0 * np.maximum(0.0, np.abs(s) - 1.0)))
        for side in ("upper", "lower"):
            r = minimize_tail_exponent(phi, 0.5, side=side)
            assert r.location == "interior"
            assert r.s_opt == pytest.approx(1.0, abs=1e-5)
            assert r.value == pytest.approx(-0.5, abs=1e-5)

    def test_finite_difference_derivative_on_lower_side(self):
        # no phi_deriv: h' comes from central differences of phi(-s)
        phi = make_phi(Custom(phi=lambda s: np.expm1(np.asarray(s)) - s))
        r = minimize_tail_exponent(phi, 0.5, side="lower")
        assert r.s_opt == pytest.approx(math.log(2.0), rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(gamma=GAMMAS, v=VS)
    def test_azuma_is_optimized_gaussian(self, gamma, v):
        a = azuma_bound(gamma * v, v).raw
        o = optimized_line_bound(make_phi(Gaussian(1.0)), gamma, v).raw
        assert _rel(a, o) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(gamma=GAMMAS, v=VS, b=st.floats(0.25, 4.0))
    def test_bennett_is_optimized_cbb_exp(self, gamma, v, b):
        a = cbb_bounds(gamma, v, b, which="bennett").raw
        o = optimized_line_bound(make_phi(CbbExp(b)), gamma, v).raw
        assert _rel(a, o) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(gamma=GAMMAS, v=VS, lam=st.floats(0.25, 4.0))
    def test_poisson_is_optimized_poisson_centered(self, gamma, v, lam):
        a = poisson_bounds(lam, gamma, v).raw
        o = optimized_line_bound(make_phi(PoissonCentered(lam)), gamma, v).raw
        assert _rel(a, o) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(gamma=GAMMAS, kind=st.sampled_from(CATALOG),
           side=st.sampled_from(("upper", "lower")))
    def test_interior_optimum_is_stationary(self, gamma, kind, side):
        phi = make_phi(kind)
        if side == "lower" and not phi.lower_tail_supported:
            return
        r = minimize_tail_exponent(phi, gamma, side=side)
        if r.location != "interior":
            return
        sign = 1.0 if side == "upper" else -1.0
        slope = sign * float(np.asarray(phi.phi_deriv(sign * r.s_opt)))
        assert abs(slope - gamma) <= 1e-9 * (1.0 + gamma)


class TestMinimizeTailExponent:
    def test_gaussian_example(self):
        r = minimize_tail_exponent(make_phi(Gaussian(1.0)), 2.0)
        assert r.attained and r.location == "interior"
        assert r.s_opt == pytest.approx(2.0, abs=1e-10)
        assert r.value == pytest.approx(-2.0, abs=1e-12)
        assert r.slope == pytest.approx(1.0, abs=1e-10)

    def test_cbb_exp_example(self):
        r = minimize_tail_exponent(make_phi(CbbExp(1.0)), 1.0)
        assert r.s_opt == pytest.approx(math.log(2.0), abs=1e-10)
        assert r.value == pytest.approx(1.0 - 2.0 * math.log(2.0), rel=1e-12)

    def test_poisson_example(self):
        r = minimize_tail_exponent(make_phi(PoissonCentered(1.0)), 1.0)
        assert r.s_opt == pytest.approx(math.log(2.0), abs=1e-10)
        assert r.slope == pytest.approx(1.0 / math.log(2.0) - 1.0, rel=1e-10)

    def test_origin_signal(self):
        phi = make_phi(Custom(phi=lambda s: 2.0 * np.abs(s), a=10.0, b=10.0))
        r = minimize_tail_exponent(phi, 1.0)
        assert r.location == "origin"
        assert r.value == 0.0 and r.s_opt == 0.0
        assert not r.attained

    def test_boundary_finite_radius(self):
        phi = make_phi(Custom(phi=lambda s: np.abs(s), a=1.0, b=1.0))
        r = minimize_tail_exponent(phi, 2.0)
        assert r.location == "boundary"
        assert r.s_opt == pytest.approx(1.0)
        assert r.value == pytest.approx(-1.0, rel=1e-6)
        assert r.slope == pytest.approx(1.0, rel=1e-6)

    def test_boundary_infinite_radius(self):
        phi = make_phi(Custom(phi=lambda s: np.abs(s), a=math.inf, b=math.inf))
        r = minimize_tail_exponent(phi, 2.0)
        assert r.location == "boundary"
        assert r.s_opt == math.inf
        assert r.value == -math.inf

    def test_bernstein_lower_rejected(self):
        with pytest.raises(UnsupportedSide):
            minimize_tail_exponent(make_phi(Bernstein(1.0)), 1.0, side="lower")

    def test_gamma_validation(self):
        with pytest.raises(DomainViolation):
            minimize_tail_exponent(make_phi(Gaussian(1.0)), 0.0)

    @pytest.mark.parametrize("kind", [Gaussian(1.0), Uniform24(), CbbExp(1.0),
                                      PoissonCentered(2.0),
                                      HoeffdingBernoulli(0.3),
                                      Bernstein(1.0)],
                             ids=lambda k: type(k).__name__)
    def test_global_domination_and_slope_sandwich(self, kind):
        phi = make_phi(kind)
        rng = np.random.default_rng(12)
        for gamma in np.geomspace(1e-2, 1e2, 9):
            r = minimize_tail_exponent(phi, float(gamma))
            if not r.attained:
                continue
            assert 0.0 < r.slope < gamma
            s = rng.uniform(1e-6, min(phi.b * (1.0 - 1e-9), 50.0), size=1000)
            h = np.asarray(phi.phi(s)) - gamma * s
            assert r.value <= h.min() + 1e-12 * (1.0 + abs(r.value))

    def test_bennett_lower_side_cases(self):
        from crossbound import Bennett
        phi = make_phi(Bennett(1.0, 2.0))  # phi(-s)/s -> sigma2/b = 0.5
        interior = minimize_tail_exponent(phi, 0.4, side="lower")
        assert interior.attained and 0.0 < interior.slope < 0.4
        knife = minimize_tail_exponent(phi, 0.5, side="lower")
        assert knife.location == "boundary"
        assert knife.value == pytest.approx(math.log(0.8), rel=1e-9)
        steep = minimize_tail_exponent(phi, 0.7, side="lower")
        assert steep.location == "boundary" and steep.value == -math.inf

    def test_consistency_against_grid(self):
        phi = make_phi(CbbExp(1.0))
        for gamma in (0.3, 1.0, 4.0):
            r = minimize_tail_exponent(phi, gamma)
            s = np.linspace(1e-9, 4.0 * r.s_opt, 100_000)
            grid_min = float(np.exp(np.asarray(phi.phi(s)) - gamma * s).min())
            assert math.exp(r.value) == pytest.approx(grid_min, rel=1e-6)

    def test_interior_value_matches_objective(self):
        phi = make_phi(PoissonCentered(1.5))
        r = minimize_tail_exponent(phi, 0.7)
        direct = float(np.asarray(phi.phi(r.s_opt))) - 0.7 * r.s_opt
        assert r.value == pytest.approx(direct, rel=1e-10)


class TestSlopeRoot:
    def test_gaussian_closed_form(self):
        r = solve_slope_root(make_phi(Gaussian(1.0)), 3.0)
        assert not r.is_boundary
        assert r.s_root == pytest.approx(6.0, rel=1e-9)

    def test_cbb_exp_oracle(self):
        r = solve_slope_root(make_phi(CbbExp(1.0)), 1.0)
        assert r.s_root == pytest.approx(CBB_ROOT_G1, abs=1e-9)

    def test_bernstein_pole(self):
        r = solve_slope_root(make_phi(Bernstein(1.0)), 1e6)
        assert r.s_root < 3.0

    def test_boundary_when_limit_below_gamma(self):
        phi = make_phi(Custom(phi=lambda s: np.square(s) / 2.0, a=1.0, b=1.0))
        r = solve_slope_root(phi, 5.0)
        assert r.is_boundary and r.s_root == pytest.approx(1.0)

    def test_infinite_boundary(self):
        # Bennett ratio tends to b; any gamma >= b leaves the boundary at inf
        from crossbound import Bennett
        r = solve_slope_root(make_phi(Bennett(1.0, 2.0)), 3.0)
        assert r.is_boundary and r.s_root == math.inf

    def test_root_satisfies_equation(self):
        for kind, gamma in ((CbbExp(0.5), 2.0), (PoissonCentered(1.0), 3.0),
                            (Gaussian(2.0), 1.3)):
            phi = make_phi(kind)
            r = solve_slope_root(phi, gamma)
            ratio = float(np.asarray(phi.phi(r.s_root))) / r.s_root
            assert ratio == pytest.approx(gamma, rel=1e-8)

    def test_monotonicity_violation(self):
        phi = make_phi(Custom(
            phi=lambda s: np.abs(s) * (2.0 + np.sin(5.0 * s)), a=20.0, b=20.0))
        with pytest.raises(MonotonicityViolation):
            solve_slope_root(phi, 2.0)

    def test_empty_feasible_set(self):
        phi = make_phi(Custom(phi=lambda s: 2.0 * np.abs(s), a=10.0, b=10.0))
        r = solve_slope_root(phi, 1.0)
        assert r.empty

    def test_gamma_validation(self):
        with pytest.raises(DomainViolation):
            solve_slope_root(make_phi(Gaussian(1.0)), -1.0)


def test_infinite_domain_probes_are_the_unique_grid():
    # a sort of the 81 distinct points, without np.unique (which loads
    # numpy.ma), is the array np.unique made, bit for bit
    want = np.unique(np.concatenate([np.geomspace(1e-9, 1e9, 80), [1e-6]]))
    assert optimize._PROBES_INF.tobytes() == want.tobytes()
    assert optimize._PROBES_INF.dtype == want.dtype and want.size == 81


@pytest.mark.parametrize("phi", [
    make_phi(Bernstein(1.0)), make_phi(Bernstein(0.7)),
    make_phi(Custom(phi=lambda s: s * s, a=1e-3, b=7.0)),
    make_phi(Custom(phi=lambda s: s * s, a=1.0, b=1e-3)),
], ids=["bernstein", "bernstein_0.7", "custom_b7", "custom_b1e-3"])
def test_finite_domain_probes_are_the_unique_grid(phi):
    # the first phi call gets the probe grid; sorted with repeats dropped
    # (radius / 2 is on both of its grids), it is the array np.unique made,
    # bit for bit
    seen = []

    def recording(s):
        seen.append(np.array(s, dtype=float))
        return phi.phi(s)
    minimize_tail_exponent(dataclasses.replace(phi, phi=recording), 0.5)
    radius = phi.b
    parts = [np.geomspace(radius * 1e-9, radius * 0.5, 40),
             radius * (1.0 - 2.0 ** -np.arange(1, 50, dtype=float)),
             [1e-6 * min(1.0, radius)]]
    want = np.unique(np.concatenate(parts))
    assert seen[0].tobytes() == want.tobytes()
    assert want.size < sum(map(len, parts))


def _one_call_bisect(f, above, lo, hi, rtol, f_lo, f_hi):
    """Frozen oracle: the bisection as it was before the secant box, one f
    call per midpoint."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if above(f(mid)):
            hi = mid
        else:
            lo = mid
        if hi - lo <= rtol * max(1.0, lo):
            break
    return lo, hi


def _outcome(fn, *args):
    try:
        return repr(fn(*args))  # repr round-trips every float exactly
    except CrossboundError as exc:  # refusals must match too
        return f"{type(exc).__name__}: {exc}"


def _counting_phi(kind):
    """make_phi(kind) with its phi and phi_deriv calls counted."""
    calls = {"phi": 0, "deriv": 0}

    def counting(fn, key):
        def wrapped(s):
            calls[key] += 1
            return fn(s)
        return wrapped
    phi = make_phi(kind)
    return dataclasses.replace(phi, phi=counting(phi.phi, "phi"),
                               phi_deriv=counting(phi.phi_deriv, "deriv")), calls


class TestRootFinder:
    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(CATALOG), side=st.sampled_from(("upper", "lower")),
           log_gamma=st.floats(math.log(1e-3), math.log(1e3)))
    def test_same_bits_as_one_call_per_midpoint(self, kind, side, log_gamma):
        phi, gamma = make_phi(kind), math.exp(log_gamma)
        for fn in (minimize_tail_exponent, solve_slope_root):
            boxed = _outcome(fn, phi, gamma, side)
            with mock.patch.object(optimize, "_bisect", _one_call_bisect):
                assert _outcome(fn, phi, gamma, side) == boxed

    def test_call_budget(self):
        # the one-call-per-midpoint bisection takes about 50 and 42
        phi, calls = _counting_phi(Gaussian(1.0))
        optimized_line_bound(phi, 1.0, 1.0)
        assert calls["deriv"] <= 20
        phi, calls = _counting_phi(Gaussian(1.0))
        eta_bound(phi, 1.0, 0.5, variant="ray")
        assert calls["phi"] <= 16
        # near Bernstein's pole phi(s)/s - gamma is about 1e12 at the
        # bracket's upper end 3 - 3e-12; halving the kept end's f (Illinois)
        # crept up from below in 40-46 calls
        for gamma in (100.0, 300.0, 564.0, 1000.0):
            phi, calls = _counting_phi(Bernstein(1.0))
            solve_slope_root(phi, gamma)
            assert calls["phi"] <= 12, (gamma, calls)

    def test_warm_call_budget(self):
        # a second call reads the probe grids from phi's table
        phi, calls = _counting_phi(Gaussian(1.0))
        eta_bound(phi, 1.0, 0.5, variant="ray")
        first = calls["phi"]
        eta_bound(phi, 2.0, 0.5, variant="ray")
        assert calls["phi"] - first <= 4, (first, calls)
        phi, calls = _counting_phi(Gaussian(1.0))
        vee_bound(phi, 1.0, 1.0)
        first = calls["phi"]
        vee_bound(phi, 2.0, 1.0)
        assert calls["phi"] - first < first, (first, calls)

    def test_flat_tail_a_few_ulps_off_the_slope_at_infinity(self):
        # gamma = 1 - mu + 1.1e-16: rounding noise used to stop the doubling
        # with h' < 0 at both ends and raise NotUnimodal
        mu = 0.8266666666666667
        r = optimized_line_bound(make_phi(HoeffdingBernoulli(mu)),
                                 0.17333333333333345, 3.0)
        assert r.bound == pytest.approx(mu ** 3, abs=1e-9)


# (gamma, eta, v_tau) from gamma = 1e-3 to 1e3
TABLE_GRID = [(g, eta, v) for g, (eta, v) in zip(
    np.geomspace(1e-3, 1e3, 13).tolist(),
    [(0.5, 1.0), (2.0, 0.3), (0.1, 5.0)] * 5)]
EVALUATORS = {
    "minimize": lambda phi, g, eta, v, side: minimize_tail_exponent(phi, g, side),
    "slope_root": lambda phi, g, eta, v, side: solve_slope_root(phi, g, side),
    "line": lambda phi, g, eta, v, side: line_bound(
        phi, min(g, 0.5 * (phi.b if side == "upper" else phi.a), 10.0), g, v,
        side),
    "opt_line": lambda phi, g, eta, v, side: optimized_line_bound(phi, g, v, side),
    "vee": lambda phi, g, eta, v, side: vee_bound(phi, g, v, side),
    "eta_ray": lambda phi, g, eta, v, side: eta_bound(
        phi, g, eta, side=side, variant="ray"),
    "eta_vee": lambda phi, g, eta, v, side: eta_bound(
        phi, g, eta, v, side=side, variant="vee"),
}


class TestSideTable:
    """What optimize computes from (phi, side) alone is kept in phi.memo."""

    @pytest.mark.parametrize("kind", CATALOG + (
        Custom(phi=lambda s: s * s, a=1.0, b=7.0),), ids=repr)
    def test_warm_phi_same_outcomes_as_fresh(self, kind):
        shared = make_phi(kind)
        for side in ("upper", "lower"):
            for gamma, eta, v in TABLE_GRID:
                for name, fn in EVALUATORS.items():
                    args = (gamma, eta, v, side)
                    assert (_outcome(fn, shared, *args)
                            == _outcome(fn, make_phi(kind), *args)), (name, args)

    def test_decreasing_ratio_raises_on_every_call(self):
        phi, calls = _counting_phi(Custom(
            phi=lambda s: np.abs(s) * (2.0 + np.sin(5.0 * s)), a=20.0, b=20.0))
        seen = set()
        for gamma in (2.0, 2.0, 0.5):
            with pytest.raises(MonotonicityViolation) as info:
                eta_bound(phi, gamma, 1.0, variant="ray")
            seen.add(str(info.value))
        assert len(seen) == 1
        assert calls["phi"] == 1  # the verdict is read from the table

    def test_replace_copy_starts_empty(self):
        phi = make_phi(Bernstein(1.0))
        minimize_tail_exponent(phi, 0.5)
        seen = []

        def recording(s):
            seen.append(np.array(s, dtype=float))
            return phi.phi(s)
        minimize_tail_exponent(dataclasses.replace(phi, phi=recording), 0.5)
        assert seen and seen[0].size > 80  # the probe grid, phi'd again

    def test_shared_cold_phi_across_threads(self):
        kinds = (Gaussian(1.0), Bernstein(1.0), HoeffdingBernoulli(0.3))
        jobs = [(kind, side, name, args)
                for kind in kinds for side in ("upper", "lower")
                for name in EVALUATORS for args in TABLE_GRID[::4]]
        want = [_outcome(EVALUATORS[name], make_phi(kind), *args, side)
                for kind, side, name, args in jobs]
        shared = {kind: make_phi(kind) for kind in kinds}
        got = [[] for _ in range(6)]

        def work(out):
            out.extend(_outcome(EVALUATORS[name], shared[kind], *args, side)
                       for kind, side, name, args in jobs)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(out,)) for out in got]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(out == want for out in got)
