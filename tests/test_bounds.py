import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crossbound import (
    Bennett,
    Bernstein,
    CbbExp,
    DomainViolation,
    ExpFamily,
    Gaussian,
    HoeffdingBernoulli,
    InvalidParameter,
    MonotonicityViolation,
    NotUnimodal,
    PoissonCentered,
    Uniform24,
    azuma_bound,
    bernoulli_family,
    cbb_bounds,
    doob_exp_bound,
    eta_bound,
    expfam_bound,
    line_bound,
    make_phi,
    optimized_line_bound,
    poisson_bounds,
    supermartingale_sup_bound,
    vee_bound,
)

PHI_G = make_phi(Gaussian(1.0))
PHI_P = make_phi(PoissonCentered(1.0))
E_QUARTER = math.e / 4.0  # 0.6795704571147613


class TestLineBound:
    def test_gaussian_example(self):
        r = line_bound(PHI_G, s=2.0, gamma=2.0, v_tau=1.0)
        assert r.bound == pytest.approx(math.exp(-2.0), rel=1e-14)
        assert r.slope_used == pytest.approx(1.0)

    def test_zero_exponent_gives_one(self):
        # phi(s) = gamma * s exactly at s = 2 gamma for the Gaussian
        r = line_bound(PHI_G, s=2.0, gamma=1.0, v_tau=3.0)
        assert r.bound == 1.0 and r.raw == 1.0

    def test_poisson_example(self):
        r = line_bound(PHI_P, s=math.log(2.0), gamma=1.0, v_tau=1.0)
        assert r.bound == pytest.approx(E_QUARTER, rel=1e-14)

    def test_domain_violation(self):
        from crossbound import Bernstein
        phi = make_phi(Bernstein(1.0))
        with pytest.raises(DomainViolation):
            line_bound(phi, s=3.0, gamma=1.0, v_tau=1.0)
        with pytest.raises(DomainViolation):
            line_bound(PHI_G, s=-1.0, gamma=1.0, v_tau=1.0)

    @pytest.mark.parametrize("kind", [PoissonCentered(1.0), CbbExp(1.0)],
                             ids=lambda k: type(k).__name__)
    def test_phi_overflow_refuses_without_a_warning(self, kind):
        # expm1(1000) overflows: the bound would read a raw inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainViolation, match="s=1000.0"):
                line_bound(make_phi(kind), 1000.0, 1000.0, 1.0)


class TestOptimizedLineBound:
    def test_gaussian(self):
        r = optimized_line_bound(PHI_G, gamma=2.0, v_tau=1.0)
        assert r.bound == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert r.slope_used == pytest.approx(1.0, rel=1e-10)

    def test_cbb_exp(self):
        r = optimized_line_bound(make_phi(CbbExp(1.0)), gamma=1.0, v_tau=1.0)
        assert r.bound == pytest.approx(E_QUARTER, rel=1e-12)
        assert r.slope_used == pytest.approx(1.0 / math.log(2.0) - 1.0, rel=1e-10)

    def test_small_gamma_tends_to_one(self):
        r = optimized_line_bound(PHI_G, gamma=1e-6, v_tau=1.0)
        assert r.bound == pytest.approx(1.0, abs=1e-6)


class TestVeeBound:
    def test_matches_optimized_line(self):
        r = vee_bound(PHI_G, gamma=2.0, v_tau=1.0)
        assert r.bound == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_needs_no_slope_root(self, monkeypatch):
        # s_opt <= b* by convexity, so the restricted infimum needs no root
        def solve_slope_root(*args, **kwargs):
            raise AssertionError("slope root solved")
        monkeypatch.setattr("crossbound.bounds.solve_slope_root",
                            solve_slope_root)
        r = vee_bound(PHI_G, gamma=2.0, v_tau=1.0, side="lower")
        assert r.bound == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert r.s_used == pytest.approx(2.0, rel=1e-8)

    def test_vacuous_when_no_decrease(self):
        from crossbound import Custom
        phi = make_phi(Custom(phi=lambda s: 2.0 * np.abs(s), a=9.0, b=9.0))
        r = vee_bound(phi, gamma=1.0, v_tau=1.0)
        assert r.bound == 1.0 and r.vacuous

    def test_vtau_scales_exponent(self):
        r = vee_bound(PHI_P, gamma=1.0, v_tau=2.0)
        assert r.bound == pytest.approx(E_QUARTER ** 2, rel=1e-12)
        assert r.bound == pytest.approx(0.4618160061831656, rel=1e-12)


class TestEtaBound:
    def test_ray_example(self):
        r = eta_bound(PHI_G, gamma=2.0, eta=1.0, variant="ray")
        assert r.bound == pytest.approx(math.exp(-4.0), rel=1e-8)
        assert r.params["s_star"] == pytest.approx(4.0, rel=1e-8)

    def test_eta_zero_vee_reduces_to_vee(self):
        a = eta_bound(PHI_G, gamma=2.0, eta=0.0, v_tau=1.5, variant="vee")
        b = vee_bound(PHI_G, gamma=2.0, v_tau=1.5)
        assert a.bound == pytest.approx(b.bound, rel=1e-10)

    def test_vee_example(self):
        r = eta_bound(PHI_G, gamma=2.0, eta=1.0, v_tau=1.0, variant="vee")
        assert r.bound == pytest.approx(math.exp(-4.5), rel=1e-10)
        assert r.s_used == pytest.approx(3.0, rel=1e-8)

    def test_vacuous(self):
        from crossbound import Custom
        phi = make_phi(Custom(phi=lambda s: 2.0 * np.abs(s), a=9.0, b=9.0))
        r = eta_bound(phi, gamma=1.0, eta=1.0, variant="ray")
        assert r.bound == 1.0 and r.vacuous

    def test_negative_eta_rejected(self):
        # NaN too: it used to give a bound of 0
        for eta in (-0.5, math.nan):
            for variant in ("ray", "vee"):
                with pytest.raises(InvalidParameter, match="eta"):
                    eta_bound(PHI_G, gamma=1.0, eta=eta, v_tau=1.0,
                              variant=variant)

    @pytest.mark.parametrize("v_tau", [-1.0, math.nan])
    def test_bad_vtau_rejected_before_phi(self, v_tau):
        # phi(s) = 2|s| makes gamma = 0.5 vacuous: the check comes first, so
        # a negative or NaN v_tau is not answered with a bound of 1, and NaN
        # is not reported as a bad gamma
        from crossbound import Custom
        phi = make_phi(Custom(phi=lambda s: 2.0 * np.abs(s), a=9.0, b=9.0))
        for p in (phi, PHI_G):
            with pytest.raises(InvalidParameter, match="v_tau"):
                eta_bound(p, 0.5, 1.0, v_tau=v_tau, variant="vee")

    @pytest.mark.parametrize("kind, gamma, eta, side", [
        # s* = inf, and eta = 0: X_0 = 0 already meets the boundary
        (HoeffdingBernoulli(0.3), 0.8, 0.0, "upper"),
        (HoeffdingBernoulli(0.3), 0.8, 0.0, "lower"),
        (HoeffdingBernoulli(0.3), 0.8, 0.5, "upper"),
        (Gaussian(1.0), 2.0, 0.0, "lower"),
        (Gaussian(1.0), 2.0, 1.0, "upper"),
        (Bernstein(1.0), 1.0, 0.7, "upper"),
    ])
    def test_vee_from_vtau_zero_is_the_ray(self, kind, gamma, eta, side):
        phi = make_phi(kind)
        vee = eta_bound(phi, gamma, eta, v_tau=0.0, side=side, variant="vee")
        ray = eta_bound(phi, gamma, eta, side=side, variant="ray")
        assert (vee.bound, vee.raw, vee.s_used, vee.vacuous) == \
            (ray.bound, ray.raw, ray.s_used, ray.vacuous)
        if eta == 0.0:
            assert vee.bound == 1.0


    @pytest.mark.parametrize("kind, var", [
        (Gaussian(1.0), 1.0),
        (PoissonCentered(1.0), 1.0),
        (Uniform24(), 1.0 / 12.0),
        (CbbExp(1.0), 1.0),
        (HoeffdingBernoulli(0.3), 0.21),
        (Bernstein(1.0), 1.0),
        (Bennett(1.0, 1.0), 1.0),
    ], ids=["gaussian", "poisson", "uniform24", "cbb_exp", "hoeffding",
            "bernstein", "bennett"])
    def test_tiny_gamma_ray_is_not_vacuous(self, kind, var):
        # phi(s) ~ var s^2 / 2 near 0, so s* = 2 gamma / var; the minimizer's
        # absolute "origin" tolerance used to call this set empty (bound 1).
        # The slope root's bracket is 1e-10 wide below s = 1; Hoeffding's
        # s* was 7e-9 off (1.0225e-7) while its phi lost digits near 0
        gamma, eta = 1e-8, 1.0
        r = eta_bound(make_phi(kind), gamma, eta, variant="ray")
        s_star = 2.0 * gamma / var
        assert not r.vacuous and r.bound < 1.0
        assert r.params["s_star"] == pytest.approx(s_star, abs=1e-10)
        assert r.bound == pytest.approx(math.exp(-eta * s_star), abs=1e-8)


class TestMinimizerCalls:
    """eta_bound reads vacuity and s* from the slope root; the minimizer
    serves only the vee's shifted gamma."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import crossbound.bounds as bounds_mod
        seen = []
        real = bounds_mod.minimize_tail_exponent

        def counted(phi, gamma, **kwargs):
            seen.append(gamma)
            return real(phi, gamma, **kwargs)
        monkeypatch.setattr(bounds_mod, "minimize_tail_exponent", counted)
        return seen

    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_calls_per_evaluator(self, calls, side):
        for call, n in [
            (lambda: eta_bound(PHI_G, 2.0, 1.0, side=side, variant="ray"), 0),
            (lambda: eta_bound(PHI_G, 2.0, 1.0, v_tau=1.0, side=side,
                               variant="vee"), 1),
            (lambda: vee_bound(PHI_G, 2.0, 1.0, side=side), 1),
            (lambda: optimized_line_bound(PHI_G, 2.0, 1.0, side=side), 1),
        ]:
            calls.clear()
            call()
            assert len(calls) == n
        # the vee's one call is at the shifted gamma + eta / V_tau
        calls.clear()
        eta_bound(PHI_G, 2.0, 1.0, v_tau=0.5, side=side, variant="vee")
        assert calls == [4.0]

    def test_empty_set_is_vacuous_without_the_minimizer(self, calls):
        from crossbound import Custom
        phi = make_phi(Custom(phi=lambda s: 2.0 * np.abs(s), a=9.0, b=9.0))
        for variant, v_tau in (("ray", 0.0), ("vee", 1.0)):
            r = eta_bound(phi, gamma=1.0, eta=1.0, v_tau=v_tau,
                          variant=variant)
            assert (r.bound, r.raw, r.vacuous) == (1.0, 1.0, True)
        assert calls == []


class TestSlopeRootFailures:
    CALLS = [
        lambda: eta_bound(PHI_G, gamma=2.0, eta=1.0, variant="ray"),
        lambda: eta_bound(PHI_G, gamma=2.0, eta=1.0, v_tau=1.0, variant="vee"),
    ]

    @staticmethod
    def _failing_root(monkeypatch, exc):
        def solve_slope_root(*args, **kwargs):
            raise exc("probe")
        monkeypatch.setattr("crossbound.bounds.solve_slope_root",
                            solve_slope_root)

    @pytest.mark.parametrize("call", CALLS, ids=["eta_ray", "eta_vee"])
    def test_other_errors_propagate(self, monkeypatch, call):
        # b* has one solver: a decreasing phi(s)/s marks an invalid phi, and
        # no fallback hides it
        for exc in (NotUnimodal, MonotonicityViolation):
            self._failing_root(monkeypatch, exc)
            with pytest.raises(exc):
                call()

    def test_decreasing_ratio_raises(self):
        from crossbound import Custom
        phi = make_phi(Custom(
            phi=lambda s: np.abs(s) * (2.0 + np.sin(5.0 * s)), a=20.0, b=20.0))
        with pytest.raises(MonotonicityViolation):
            eta_bound(phi, gamma=2.0, eta=1.0, variant="ray")


class TestAzuma:
    def test_upper(self):
        assert azuma_bound(2.0, 1.0).bound == pytest.approx(math.exp(-2.0))

    def test_two_sided(self):
        r = azuma_bound(2.0, 1.0, kind="two_sided")
        assert r.bound == pytest.approx(2.0 * math.exp(-2.0), rel=1e-14)
        assert r.bound == pytest.approx(0.2706705664732254, rel=1e-14)

    def test_small_gamma_clamped(self):
        r = azuma_bound(1e-9, 1.0, kind="two_sided")
        assert r.bound == 1.0 and r.raw == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(DomainViolation):
            azuma_bound(-1.0, 1.0)
        with pytest.raises(DomainViolation):
            azuma_bound(1.0, 0.0)


class TestCbb:
    def test_bennett(self):
        r = cbb_bounds(1.0, 1.0, 1.0, which="bennett")
        assert r.bound == pytest.approx(E_QUARTER, rel=1e-14)
        assert r.slope_used == pytest.approx(0.4426950408889634, rel=1e-12)

    def test_bernstein(self):
        r = cbb_bounds(1.0, 1.0, 1.0, which="bernstein")
        assert r.bound == pytest.approx(math.exp(-0.375), rel=1e-14)

    def test_chernoff_sub(self):
        r = cbb_bounds(1.0, 1.0, 1.0, which="chernoff_sub")
        assert r.bound == pytest.approx(math.exp(-0.25), rel=1e-14)

    def test_chernoff_sub_domain(self):
        with pytest.raises(DomainViolation):
            cbb_bounds(3.5, 1.0, 1.0, which="chernoff_sub")
        with pytest.raises(DomainViolation):
            cbb_bounds(1.0, 1.0, 2.0, which="chernoff_sub")


class TestExpFam:
    def test_bernoulli_m_factor(self):
        fam = bernoulli_family()
        r = expfam_bound(fam, theta=0.5, gamma=0.3, m=1)
        assert r.bound == pytest.approx(2.5 * 4.0 ** -0.8, rel=1e-12)
        assert r.bound == pytest.approx(0.8246924442330589, rel=1e-12)
        # m is a whole number of at least 1: True ran as m = 1
        for m in (True, 2.5, 0):
            with pytest.raises(InvalidParameter, match="whole number"):
                expfam_bound(fam, theta=0.5, gamma=0.3, m=m)

    def test_rho_example(self):
        # rho(z, theta, m, n) = m z + (n - m) slope at z = 0.8, theta = 0.5,
        # m = 2, n = 4, from the params of the bound at gamma = 0.3
        params = expfam_bound(bernoulli_family(), theta=0.5, gamma=0.3,
                              m=2).params
        assert params["z"] == pytest.approx(0.8, rel=1e-15)
        val = params["rho_at_m"] + (4 - params["m"]) * params["rho_slope"]
        assert val == pytest.approx(1.6 + 2.0 * math.log(2.5) / math.log(4.0),
                                    rel=1e-12)
        assert val == pytest.approx(2.9219280948873623, rel=1e-12)

    def test_gamma_zero_gives_one(self):
        r = expfam_bound(bernoulli_family(), theta=0.5, gamma=0.0, m=3)
        assert r.bound == 1.0

    def test_domain_violation(self):
        with pytest.raises(DomainViolation):
            expfam_bound(bernoulli_family(), theta=0.8, gamma=0.3, m=1)

    def test_slope_in_zero_gamma_window(self):
        fam = bernoulli_family()
        for theta in (0.2, 0.4, 0.6):
            for gamma in (0.05, 0.15, 0.3):
                if theta + gamma >= 1.0:
                    continue
                r = expfam_bound(fam, theta=theta, gamma=gamma, m=2)
                assert 0.0 < r.slope_used < gamma

    def test_derivative_hypothesis_enforced(self):
        with pytest.raises(InvalidParameter):
            ExpFamily(u=lambda t: t, v=lambda t: t, theta_lo=0.0, theta_hi=1.0)


class TestPoisson:
    def test_upper_example(self):
        r = poisson_bounds(1.0, 1.0, 1.0)
        assert r.bound == pytest.approx(E_QUARTER, rel=1e-14)

    def test_lower_example(self):
        r = poisson_bounds(1.0, 0.5, 1.0, side="lower")
        assert r.bound == pytest.approx(math.sqrt(2.0) * math.exp(-0.5), rel=1e-14)

    def test_tau_powers(self):
        r = poisson_bounds(1.0, 1.0, 2.0)
        assert r.bound == pytest.approx(E_QUARTER ** 2, rel=1e-14)

    def test_lower_requires_gamma_below_lam(self):
        with pytest.raises(DomainViolation):
            poisson_bounds(1.0, 1.0, 1.0, side="lower")


class TestSupAndDoob:
    def test_supermartingale_example(self):
        r = supermartingale_sup_bound(1.0, 0.0, 4.0)
        assert r.bound == pytest.approx(0.25)

    def test_certain_case(self):
        r = supermartingale_sup_bound(1.0, 0.0, 0.5, continuous_martingale=True)
        assert r.bound == 1.0 and r.exact

    def test_zero_numerator(self):
        r = supermartingale_sup_bound(0.5, 0.5, 2.0)
        assert r.bound == 0.0

    def test_gamma_le_c(self):
        with pytest.raises(DomainViolation):
            supermartingale_sup_bound(1.0, 0.5, 0.5)

    def test_doob(self):
        assert doob_exp_bound(2.0).bound == pytest.approx(0.5)
        assert doob_exp_bound(8.0).bound == pytest.approx(0.125)
        assert doob_exp_bound(0.5).bound == 1.0
        assert doob_exp_bound(2.0, PHI_G).exact
        assert not doob_exp_bound(0.9, PHI_G).exact
        from crossbound import Uniform24
        assert not doob_exp_bound(2.0, make_phi(Uniform24())).exact


class TestIdentitiesAndMonotonicity:
    def test_azuma_equals_optimized_gaussian(self):
        for g in (0.5, 1.0, 2.0, 4.0):
            for v in (0.5, 1.0, 2.0, 10.0):
                a = azuma_bound(g, v).raw
                o = optimized_line_bound(PHI_G, g / v, v).raw
                assert abs(a - o) <= 1e-12 * abs(a)

    def test_bennett_equals_optimized_cbb_exp(self):
        for b in (0.5, 1.0, 2.0):
            phi = make_phi(CbbExp(b))
            for g in (0.25, 1.0, 3.0):
                a = cbb_bounds(g, 2.0, b, which="bennett").raw
                o = optimized_line_bound(phi, g, 2.0).raw
                assert abs(a - o) <= 1e-12 * abs(a)

    def test_poisson_equals_optimized_poisson_phi(self):
        for lam in (0.5, 1.0, 2.0):
            phi = make_phi(PoissonCentered(lam))
            for g in (0.5, 1.0, 2.0):
                for tau in (1.0, 3.0):
                    a = poisson_bounds(lam, g, tau).raw
                    o = optimized_line_bound(phi, g, tau).raw
                    assert abs(a - o) <= 1e-12 * abs(a)

    def test_raw_monotone_decreasing_in_gamma(self):
        gammas = np.linspace(0.2, 4.0, 12)
        seqs = [
            [optimized_line_bound(PHI_G, g, 1.0).raw for g in gammas],
            [azuma_bound(g, 1.0).raw for g in gammas],
            [cbb_bounds(g, 1.0, 1.0, "bennett").raw for g in gammas],
            [poisson_bounds(2.0, g, 1.0).raw for g in gammas],
            [doob_exp_bound(g).raw for g in gammas],
            [eta_bound(PHI_G, g, 1.0, variant="ray").raw for g in gammas],
        ]
        for seq in seqs:
            assert all(b <= a + 1e-14 for a, b in zip(seq, seq[1:]))

    def test_hoeffding_lower_side_at_gamma_mu(self):
        # a [0, 1] variable lies at most mu below its mean: at gamma = mu the
        # lower line bound is P{every step 0} = (1 - mu)^V, where the
        # objective's terms cancel, and a ray beyond it is never crossed
        phi = make_phi(HoeffdingBernoulli(0.25))
        for rep in (optimized_line_bound(phi, 0.25, 2.0, side="lower"),
                    vee_bound(phi, 0.25, 2.0, side="lower")):
            assert rep.raw == pytest.approx(0.75 ** 2, rel=1e-12)
        assert eta_bound(phi, 0.25, 1.0, side="lower").bound == 0.0

    def test_all_bounds_in_unit_interval(self):
        reports = [
            line_bound(PHI_G, 0.1, 0.05, 1.0),
            optimized_line_bound(PHI_G, 1e-4, 1.0),
            azuma_bound(1e-6, 1.0, "two_sided"),
            doob_exp_bound(1e-3),
            supermartingale_sup_bound(1.0, 0.0, 1.0 + 1e-12),
        ]
        for r in reports:
            assert 0.0 <= r.bound <= 1.0
            assert r.raw >= r.bound - 1e-15


# Every evaluator as a function of gamma alone, on both sides where it has two.
GAMMA_EVALUATORS = [
    lambda g, side: line_bound(PHI_G, 0.5, g, 1.0, side=side),
    lambda g, side: optimized_line_bound(PHI_G, g, 1.0, side=side),
    lambda g, side: vee_bound(PHI_G, g, 1.0, side=side),
    lambda g, side: eta_bound(PHI_G, g, 1.0, side=side, variant="ray"),
    lambda g, side: eta_bound(PHI_G, g, 1.0, v_tau=1.0, side=side,
                              variant="vee"),
    lambda g, side: azuma_bound(g, 1.0, kind=side),
    lambda g, side: azuma_bound(g, 1.0, kind="two_sided"),
    lambda g, side: cbb_bounds(g, 1.0, 1.0, which="bennett"),
    lambda g, side: cbb_bounds(g, 1.0, 1.0, which="bernstein"),
    lambda g, side: cbb_bounds(g, 1.0, 1.0, which="chernoff_sub"),
    lambda g, side: expfam_bound(bernoulli_family(), 0.3, g, 5, side=side),
    lambda g, side: poisson_bounds(1.0, g, 1.0, side=side),
    lambda g, side: supermartingale_sup_bound(1.0, 0.0, g),
    lambda g, side: doob_exp_bound(g, PHI_G),
]


class TestNonFiniteGamma:
    @settings(max_examples=60, deadline=None)
    @given(evaluator=st.sampled_from(GAMMA_EVALUATORS),
           gamma=st.sampled_from([math.inf, math.nan]),
           side=st.sampled_from(["upper", "lower"]))
    def test_every_evaluator_raises(self, evaluator, gamma, side):
        with pytest.raises(DomainViolation):
            evaluator(gamma, side)

    @pytest.mark.parametrize("call", [
        lambda: azuma_bound(1.0, math.inf),
        lambda: poisson_bounds(math.nan, 1.0, 1.0),
        lambda: cbb_bounds(1.0, 1.0, math.inf),
    ])
    def test_other_non_finite_parameters_raise(self, call):
        with pytest.raises(DomainViolation):
            call()


# Bound invariants as properties: every catalog phi over a range of its
# parameters, both sides (Bernstein has no lower tail), and every evaluator.
CATALOG_KINDS = st.one_of(
    st.builds(Gaussian, st.floats(0.1, 10.0)),
    st.builds(Bennett, st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
    st.builds(HoeffdingBernoulli, st.floats(0.02, 0.98)),
    st.just(Uniform24()),
    st.builds(PoissonCentered, st.floats(0.1, 10.0)),
    st.builds(Bernstein, st.floats(0.1, 10.0)),
    st.builds(CbbExp, st.floats(0.1, 10.0)),
)
GAMMAS = st.floats(1e-3, 20.0)


def _fixed_s(phi, side, u):
    """The fixed s of a line bound: u of phi's radius on the side, capped at
    20 where the radius is infinite."""
    return u * min(phi.b if side == "upper" else phi.a, 20.0)


def _at_fixed_v(phi, v, eta, u):
    """Every evaluator as a function of (gamma, side) at variance proxy v:
    the five that take a phi on phi (the line at _fixed_s), the rest at
    fixed parameters of their own."""
    return [
        lambda g, side: line_bound(phi, _fixed_s(phi, side, u), g, v,
                                   side=side),
        lambda g, side: optimized_line_bound(phi, g, v, side=side),
        lambda g, side: vee_bound(phi, g, v, side=side),
        lambda g, side: eta_bound(phi, g, eta, side=side, variant="ray"),
        lambda g, side: eta_bound(phi, g, eta, v_tau=v, side=side,
                                  variant="vee"),
        lambda g, side: azuma_bound(g, v, kind=side),
        lambda g, side: azuma_bound(g, v, kind="two_sided"),
        lambda g, side: cbb_bounds(g, v, 1.0, which="bennett"),
        lambda g, side: cbb_bounds(g, v, 1.0, which="bernstein"),
        lambda g, side: cbb_bounds(g, v, 1.0, which="chernoff_sub"),
        lambda g, side: expfam_bound(bernoulli_family(), 0.5, g,
                                     max(1, round(v)), side=side),
        lambda g, side: poisson_bounds(2.0, g, v, side=side),
        lambda g, side: supermartingale_sup_bound(1.0, 0.0, g),
        lambda g, side: doob_exp_bound(g, phi),
    ]


def _report_or_none(evaluator, gamma, side):
    """The evaluator's report, or None where gamma leaves its domain."""
    try:
        return evaluator(gamma, side)
    except DomainViolation:
        return None


def _phi_on_side(kind, side):
    phi = make_phi(kind)
    assume(side == "upper" or phi.lower_tail_supported)
    return phi


class TestBoundProperties:
    @settings(max_examples=100, deadline=None)
    @given(kind=CATALOG_KINDS, side=st.sampled_from(["upper", "lower"]),
           gamma=GAMMAS, v=st.floats(0.01, 20.0), eta=st.floats(0.0, 5.0),
           u=st.floats(0.01, 0.99))
    def test_every_bound_lies_in_unit_interval(self, kind, side, gamma, v,
                                               eta, u):
        phi = _phi_on_side(kind, side)
        for evaluator in _at_fixed_v(phi, v, eta, u):
            rep = _report_or_none(evaluator, gamma, side)
            if rep is not None:
                # the clamp of a nan raw value would read 0
                assert rep.raw >= 0.0 and rep.bound == min(1.0, rep.raw)

    @settings(max_examples=100, deadline=None)
    @given(kind=CATALOG_KINDS, side=st.sampled_from(["upper", "lower"]),
           gammas=st.lists(GAMMAS, min_size=2, max_size=2),
           v=st.floats(0.01, 20.0), eta=st.floats(0.0, 5.0),
           u=st.floats(0.01, 0.99))
    def test_no_bound_increases_with_gamma(self, kind, side, gammas, v, eta,
                                           u):
        phi = _phi_on_side(kind, side)
        lo, hi = sorted(gammas)
        for evaluator in _at_fixed_v(phi, v, eta, u):
            at_lo = _report_or_none(evaluator, lo, side)
            at_hi = _report_or_none(evaluator, hi, side)
            if at_lo is not None and at_hi is not None:
                assert at_hi.bound <= at_lo.bound, (at_lo, at_hi)

    @settings(max_examples=100, deadline=None)
    @given(kind=CATALOG_KINDS, side=st.sampled_from(["upper", "lower"]),
           gamma=GAMMAS, v=st.floats(0.01, 20.0), u=st.floats(0.001, 0.999))
    def test_optimized_line_is_below_every_fixed_s(self, kind, side, gamma, v,
                                                   u):
        phi = _phi_on_side(kind, side)
        opt = optimized_line_bound(phi, gamma, v, side=side)
        line = line_bound(phi, _fixed_s(phi, side, u), gamma, v, side=side)
        # up to rounding: where phi's slope at infinity is gamma, the line's
        # terms cancel, and it reads Bennett(7, 0.5)'s infimum 7/7.25 two
        # ulps low at s = 10
        assert opt.raw <= line.raw * (1.0 + 1e-12), (opt, line)
