import dataclasses
import math

import numpy as np
import pytest

from crossbound import (
    Bennett,
    Bernstein,
    CbbExp,
    ConfigError,
    Custom,
    DomainViolation,
    Gaussian,
    HoeffdingBernoulli,
    InvalidParameter,
    PoissonCentered,
    Uniform24,
    check_phi_validity,
    make_phi,
    phi_kind_from_dict,
    phi_kind_to_dict,
)
from crossbound.mgf import PhiViolation

ALL_KINDS = [
    Gaussian(1.0), Gaussian(0.25), Bennett(1.0, 1.0), Bennett(2.0, 0.5),
    HoeffdingBernoulli(0.3), Uniform24(), PoissonCentered(1.0),
    PoissonCentered(2.5), CbbExp(1.0), CbbExp(2.0), Bernstein(1.0),
]


def test_catalog_examples():
    assert make_phi(Gaussian(1.0)).phi(1.0) == pytest.approx(0.5, abs=0)
    assert make_phi(Uniform24()).phi(0.0) == 0.0
    val = make_phi(PoissonCentered(1.0)).phi(math.log(2.0))
    assert val == pytest.approx(1.0 - math.log(2.0), rel=1e-15)


# phis whose log-sum-exp form cancels its terms of order s near 0, with
# phi''(0) and the scale M of the exponents (max(1, b, sigma2/b) for Bennett):
# the log1p/expm1 form serves below |s| = min(1e-3, 1/M), so its expm1 terms
# stay far from overflow (at about 709.8) for a large b or sigma2/b.
NEAR_ZERO = [(HoeffdingBernoulli(0.3), 0.21, 1.0), (Bennett(1.0, 1.0), 1.0, 1.0),
             (Bennett(1.0, 2.0), 1.0, 2.0), (Bennett(2.0, 0.5), 2.0, 4.0),
             (Bennett(1.0, 1e6), 1.0, 1e6), (Bennett(1e12, 1e6), 1e12, 1e6)]


def _log_sum_exp_phi(kind, s):
    """Frozen reference: the log-sum-exp forms, which make_phi keeps from
    the cut up."""
    s = np.asarray(s, dtype=float)
    if isinstance(kind, HoeffdingBernoulli):
        mu = kind.mu
        return np.logaddexp(np.log(1.0 - mu), np.log(mu) + s) - mu * s
    b, sigma2 = kind.b, kind.sigma2
    wb, ws, r = b * b / (b * b + sigma2), sigma2 / (b * b + sigma2), sigma2 / b
    e1 = -r * s + np.log(wb)
    e2 = b * s + np.log(ws)
    m = np.maximum(e1, e2)
    return m + np.log(np.exp(e1 - m) + np.exp(e2 - m))


@pytest.mark.parametrize("kind, var, scale", NEAR_ZERO, ids=repr)
class TestNearZero:
    def test_keeps_the_s2_term(self, kind, var, scale):
        # the log-sum-exp form read phi(1e-8) = -8.5e-17 for Hoeffding(0.3)
        phi = make_phi(kind)
        for s in (1e-8, -1e-8, 1e-7, -1e-7):
            v = float(phi.phi(s / scale))
            assert v > 0.0
            assert v == pytest.approx(0.5 * var * (s / scale) ** 2,
                                      rel=1e-6, abs=0.0)

    def test_same_bits_from_the_cut_up(self, kind, var, scale):
        # 8e-4 and 9.99e-4 lie above 709.8 / M for M = 1e6, where the
        # log1p/expm1 form would overflow to inf
        cut = min(1e-3, 1.0 / scale)
        s = np.array(sorted({x for x in [1e-3, 2e-3, 0.5, 3.0, 40.0, 800.0,
                                         8e-4, 9.99e-4, cut, 2 * cut, 10 * cut]
                             if x >= cut}))
        s = np.concatenate([-s[::-1], s])
        phi = make_phi(kind)
        want = _log_sum_exp_phi(kind, s)
        assert np.all(np.isfinite(want))
        small = [1e-8 / scale, -1e-7 / scale]
        mixed = np.asarray(phi.phi(np.concatenate([s, small])))
        assert mixed[:s.size].tobytes() == want.tobytes()
        assert [float(phi.phi(x)) for x in s] == [float(w) for w in want]
        assert mixed[s.size:].tolist() == [float(phi.phi(x)) for x in small]

    def test_valid_across_the_cut(self, kind, var, scale):
        cut = min(1e-3, 1.0 / scale)
        grid = [-2.0, -cut, -0.999 * cut, -1e-8 / scale, 1e-8 / scale,
                0.999 * cut, cut, 1.1 * cut, 0.5, 2.0]
        # the derivative's first step, 1e-6 (1 + |s|), moves b s by 1 at
        # M = 1e6, so those points pass at a smaller step
        report = check_phi_validity(make_phi(kind), grid)
        assert report.ok, report.violations


def test_describe_hands_out_copies():
    phi = make_phi(Bennett(1.0, 2.0))
    want = phi.describe()
    got = phi.describe()
    got["phi"] = "edited"
    got["phi_kind"]["b"] = -1.0
    assert phi.describe() == want and want["phi"] == "bennett"
    # a copy with another label starts with an empty memo
    assert dataclasses.replace(phi, label="other").describe()["phi"] == "other"


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: type(k).__name__)
def test_describe_keeps_the_domain_and_nests_the_kind(kind):
    # Bernstein(2.0)'s own b once overwrote its domain edge 1.5
    phi = make_phi(kind)
    rec = phi.describe()
    assert (rec["a"], rec["b"]) == (phi.a, phi.b)
    assert rec["phi_kind"] == phi_kind_to_dict(kind)
    assert phi_kind_from_dict(rec["phi_kind"]) == kind
    assert set(rec) == {"phi", "a", "b", "phi_kind"}
    custom = make_phi(Custom(phi=np.square, a=2.0, b=3.0)).describe()
    assert custom == {"phi": "custom", "a": 2.0, "b": 3.0}


def test_domains():
    for kind in (Gaussian(1.0), Bennett(1.0, 1.0), HoeffdingBernoulli(0.5),
                 Uniform24(), PoissonCentered(1.0), CbbExp(1.0)):
        phi = make_phi(kind)
        assert phi.a == math.inf and phi.b == math.inf
    bern = make_phi(Bernstein(2.0))
    assert bern.b == pytest.approx(1.5)
    assert bern.a == math.inf
    assert not bern.lower_tail_supported
    assert not bern.contains(1.5) and bern.contains(1.4999)
    assert not bern.contains([0.5, 1.5]) and bern.contains([-9.0, 1.4999])


def test_invalid_parameters():
    with pytest.raises(InvalidParameter):
        make_phi(Gaussian(0.0))
    with pytest.raises(InvalidParameter):
        make_phi(Bennett(-1.0, 1.0))
    with pytest.raises(InvalidParameter):
        make_phi(Bennett(1.0, 0.0))
    with pytest.raises(InvalidParameter):
        make_phi(HoeffdingBernoulli(0.0))
    with pytest.raises(InvalidParameter):
        make_phi(HoeffdingBernoulli(1.0))
    with pytest.raises(InvalidParameter):
        make_phi(PoissonCentered(-2.0))
    with pytest.raises(InvalidParameter):
        make_phi(Bernstein(0.0))


def test_claims_equality_flags():
    assert make_phi(Gaussian(1.0)).claims_equality
    assert make_phi(PoissonCentered(1.0)).claims_equality
    for kind in (Bennett(1.0, 1.0), HoeffdingBernoulli(0.3), Uniform24(),
                 CbbExp(1.0), Bernstein(1.0)):
        assert not make_phi(kind).claims_equality


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: type(k).__name__)
def test_builtin_validity_checks(kind):
    phi, calls = _counted(make_phi(kind))
    hi = min(phi.b, 3.0) * 0.9
    grid = np.linspace(-min(phi.a, 3.0) * 0.9, hi, 21)
    if not phi.lower_tail_supported:
        grid = np.linspace(hi * 1e-3, hi, 21)
    report = check_phi_validity(phi, grid)
    assert report.ok, report.violations
    # phi(0), the grid, the midpoints, one difference step: no retry
    assert len(calls) == 4


def _counted(phi):
    """phi, with the sizes of the s arrays its phi is called on recorded."""
    calls = []

    def counting(s, inner=phi.phi):
        calls.append(np.size(s))
        return inner(s)
    return dataclasses.replace(phi, phi=counting), calls


def test_validity_flags_negative_phi():
    phi = make_phi(Custom(phi=lambda s: -np.square(s), a=5.0, b=5.0))
    report = check_phi_validity(phi, [-1.0, 0.0, 1.0])
    bad = {v.s for v in report.violations if v.check == "nonnegative"}
    assert bad == {-1.0, 1.0}


def test_validity_flags_convexity():
    phi = make_phi(Custom(phi=lambda s: np.abs(s) - 0.2 * np.square(s),
                          a=2.0, b=2.0))
    report = check_phi_validity(phi, [-1.5, -0.5, 0.5, 1.5])
    assert any(v.check == "convexity" for v in report.violations)


def _pairwise_convexity(phi, grid):
    """Reference: the scalar midpoint loop over every pair i < j."""
    grid = np.asarray(sorted(grid), dtype=float)
    vals = np.asarray(phi.phi(grid), dtype=float)
    out = []
    for i in range(grid.size):
        for j in range(i + 1, grid.size):
            mid = 0.5 * (grid[i] + grid[j])
            fm = float(np.asarray(phi.phi(mid)))
            avg = 0.5 * (vals[i] + vals[j])
            if fm > avg + 1e-12 * (1.0 + abs(fm)):
                out.append(PhiViolation(
                    "convexity", float(mid),
                    f"phi(mid)={fm!r} > chord {float(avg)!r} "
                    f"for [{grid[i]}, {grid[j]}]"))
    return out


@pytest.mark.parametrize("phi", [
    make_phi(Custom(phi=lambda s: np.abs(s) - 0.2 * np.square(s), a=2.0, b=2.0)),
    make_phi(Custom(phi=lambda s: np.sin(3.0 * np.asarray(s)) ** 2, a=3.0, b=3.0)),
    make_phi(Bennett(1.0, 1.0)),
], ids=["concave_arms", "wavy", "bennett"])
def test_convexity_violations_match_pairwise_loop(phi):
    grid = [1.9 - 3.8 * i / 29 for i in range(30)]
    got = [v for v in check_phi_validity(phi, grid).violations
           if v.check == "convexity"]
    assert got == _pairwise_convexity(phi, grid)


def test_validity_grid_outside_domain():
    phi = make_phi(Bernstein(1.0))
    with pytest.raises(DomainViolation):
        check_phi_validity(phi, [0.5, 3.5])


def test_validity_flags_bad_derivative():
    phi = make_phi(Custom(phi=lambda s: np.square(s),
                          phi_deriv=lambda s: 2.5 * np.asarray(s), a=3.0, b=3.0))
    report = check_phi_validity(phi, [0.5, 1.0])
    assert any(v.check == "derivative" for v in report.violations)
    # s +- 1e-6 (1 + |s|) leaves the domain at the edge points: not checked
    edge = 3.0 - 1e-6
    report = check_phi_validity(phi, [-edge, -1.0, 0.0, 0.5, 1.0, edge])
    assert [v.s for v in report.violations if v.check == "derivative"] == [
        -1.0, 0.5, 1.0]


def test_validity_retries_only_the_points_that_miss():
    # wrong for s > 0 only: both points miss at the first step and at every
    # one of the five smaller steps, which see those two points alone
    phi, calls = _counted(make_phi(Custom(
        phi=np.square, phi_deriv=lambda s: np.where(s > 0, 2.5, 2.0) * s,
        a=3.0, b=3.0)))
    report = check_phi_validity(phi, [-1.0, -0.5, 0.5, 1.0])
    assert [v.s for v in report.violations] == [0.5, 1.0]
    assert calls == [1, 4, 6, 8] + [4] * 5


def test_validity_details_print_plain_floats():
    phi = make_phi(Custom(phi=lambda s: np.sin(np.asarray(s)),
                          phi_deriv=lambda s: 2.0 * np.cos(np.asarray(s)),
                          label="sin"))
    report = check_phi_validity(phi, [-1.0, -0.5, 0.5, 1.0])
    assert {v.check for v in report.violations} == {
        "nonnegative", "convexity", "derivative"}
    for v in report.violations:
        assert "np.float64" not in v.detail, v.detail


def test_kind_serialization_roundtrip():
    for kind in ALL_KINDS:
        rec = phi_kind_to_dict(kind)
        assert rec["kind"]
        assert phi_kind_from_dict(rec) == kind
    with pytest.raises(ConfigError):
        phi_kind_from_dict({"kind": "nope"})


@pytest.mark.parametrize("rec, named", [
    ({"kind": "nope"}, "'nope'"),
    ({"v": 1.0}, "kind None"),
    ([1], "'phi'"),
    ({"kind": "bennett", "sigma2": "x", "b": 1}, "'sigma2'"),
    ({"kind": "bennett", "sigma2": 1.0}, "'b'"),
    ({"kind": "gaussian", "v": 1.0, "w": 2.0}, "'w'"),
])
def test_bad_kind_records_are_config_errors(rec, named):
    # a tag, key or type error; a value out of range is make_phi's to refuse
    with pytest.raises(ConfigError, match=named):
        phi_kind_from_dict(rec)


def test_kind_records_are_cast_and_range_checked_by_make_phi():
    assert phi_kind_from_dict({"kind": "bennett", "sigma2": "1", "b": 2}) == \
        Bennett(1.0, 2.0)
    with pytest.raises(InvalidParameter):
        make_phi(phi_kind_from_dict({"kind": "gaussian", "v": -1.0}))


# --- auxiliary inequalities behind the catalog --------------------------------------


def test_uniform_mgf_domination_dense():
    s = np.linspace(-50.0, 50.0, 2001)
    s = s[s != 0.0]
    lhs = np.log(np.sinh(s / 2.0) / (s / 2.0))
    assert np.all(lhs <= np.square(s) / 24.0 + 1e-12)
    # spec anchor: raw MGF values at s = 1
    assert math.sinh(0.5) / 0.5 == pytest.approx(1.0421906109874948, rel=1e-12)
    assert math.exp(1.0 / 24.0) == pytest.approx(1.0425469051899914, rel=1e-12)


def _exp_ratio(s):
    """(e^s - 1 - s) / s^2 via its power series near 0 (cancellation-safe)."""
    s = np.asarray(s, dtype=float)
    series = 0.5 + s / 6.0 + s ** 2 / 24.0 + s ** 3 / 120.0 + s ** 4 / 720.0
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = (np.expm1(s) - s) / np.square(s)
    return np.where(np.abs(s) < 1e-3, series, direct)


def test_exp_ratio_bound_on_0_3():
    s = np.linspace(1e-9, 3.0 - 1e-9, 4001)
    assert np.all(_exp_ratio(s) <= 1.0 / (2.0 * (1.0 - s / 3.0)) + 1e-12)


def test_subgaussian_exp_bound_on_0_175():
    s = np.linspace(1e-9, 1.75, 4001)
    assert np.all(np.expm1(s) - s <= np.square(s) + 1e-12)


# --- Monte Carlo domination of each built-in phi ----------------------------

N_MC = 1_000_000


def _mc_dominates(phi, sampler, s_grid, seed):
    rng = np.random.default_rng(seed)
    y = sampler(rng, N_MC)
    for s in s_grid:
        w = np.exp(s * y)
        mean = float(w.mean())
        se = float(w.std(ddof=1) / math.sqrt(N_MC))
        cap = math.exp(float(np.asarray(phi.phi(s))))
        assert mean <= cap + 4.0 * se, (s, mean, cap, se)


def test_mc_gaussian():
    _mc_dominates(make_phi(Gaussian(1.0)),
                  lambda rng, n: rng.standard_normal(n),
                  [-2.0, -0.5, 0.5, 2.0], seed=1)


def test_mc_uniform():
    _mc_dominates(make_phi(Uniform24()),
                  lambda rng, n: rng.random(n) - 0.5,
                  [-6.0, -1.0, 1.0, 6.0], seed=2)


def test_mc_bernoulli():
    mu = 0.3
    _mc_dominates(make_phi(HoeffdingBernoulli(mu)),
                  lambda rng, n: (rng.random(n) < mu) - mu,
                  [-2.0, -1.0, 1.0, 2.0], seed=3)


def test_mc_poisson_and_cbb():
    lam = 1.0
    sampler = lambda rng, n: rng.poisson(lam, n) - lam
    _mc_dominates(make_phi(PoissonCentered(lam)), sampler,
                  [-1.0, 0.5, 1.0], seed=4)
    # CbbExp with b = 1 equals the centered-Poisson(1) log-MGF
    _mc_dominates(make_phi(CbbExp(1.0)), sampler, [-1.0, 0.5, 1.0], seed=5)


def test_mc_bennett_two_point():
    sigma2, b = 1.0, 2.0
    p_hi = sigma2 / (b * b + sigma2)

    def sampler(rng, n):
        return np.where(rng.random(n) < p_hi, b, -sigma2 / b)

    _mc_dominates(make_phi(Bennett(sigma2, b)), sampler,
                  [-1.0, -0.3, 0.4, 1.0], seed=6)


def test_walk_and_cbb_preset_pairings_dominate():
    # +-1 steps vs Gaussian phi with V = n: cosh(s) <= exp(s^2/2)
    s = np.linspace(-10.0, 10.0, 2001)
    assert np.all(np.log(np.cosh(s)) <= np.square(s) / 2.0 + 1e-12)
    # +-1/2 steps vs CbbExp(1) phi with V = n/4: cosh(s/2) <= exp(phi(s)/4)
    phi = make_phi(CbbExp(1.0))
    s = np.linspace(0.0, 8.0, 2001)
    assert np.all(np.log(np.cosh(s / 2.0)) <= np.asarray(phi.phi(s)) / 4.0 + 1e-12)


def test_mc_bernstein_upper_side():
    # scaled centered Poisson dominates through cbb_exp <= bernstein on (0, 3/b)
    b = 1.0
    sampler = lambda rng, n: rng.poisson(1.0, n) - 1.0
    _mc_dominates(make_phi(Bernstein(b)), sampler, [0.5, 1.5, 2.5], seed=7)
