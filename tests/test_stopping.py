import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossbound import (
    BernoulliIncrements,
    Brownian,
    ContinuityRegion,
    CustomIncrements,
    ExpSupermartingale,
    Gaussian,
    IidSum,
    InvalidParameter,
    InvalidSpec,
    LazyWalk,
    Path,
    PoissonCentered,
    PoissonCounting,
    RegionPair,
    TwoPointIncrements,
    UniformIncrements,
    first_exit,
    generate,
    make_phi,
    stopping,
    verify_optional_stopping,
)
from crossbound.presets import walk_region_pair

PAIR_3_5 = RegionPair(inner=ContinuityRegion.constant(-3.0, 3.0, envelope=5.0),
                      outer=ContinuityRegion.constant(-5.0, 5.0, envelope=5.0))


def _path(values, times=None):
    values = np.asarray(values, dtype=float)
    t = np.arange(values.size, dtype=float) if times is None else np.asarray(times)
    return Path(times=t, values=values, vproxy=t.copy())


class TestRegions:
    def test_envelope_enforced(self):
        with pytest.raises(InvalidParameter):
            ContinuityRegion.constant(-3.0, 3.0, envelope=2.0)
        with pytest.raises(InvalidParameter):
            ContinuityRegion.constant(2.0, -2.0, envelope=5.0)

    @pytest.mark.parametrize("lower, upper", [(math.nan, 1.0), (-1.0, math.nan)])
    def test_nan_bound_refused(self, lower, upper):
        with pytest.raises(InvalidParameter):
            ContinuityRegion.constant(lower, upper, envelope=2.0)
        with pytest.raises(InvalidParameter):
            ContinuityRegion(breakpoints=np.array([0.0]),
                             lower=np.array([lower]), upper=np.array([upper]),
                             envelope=2.0)

    def test_nesting_enforced(self):
        with pytest.raises(InvalidParameter):
            RegionPair(inner=ContinuityRegion.constant(-5.0, 5.0, envelope=5.0),
                       outer=ContinuityRegion.constant(-3.0, 3.0, envelope=5.0))

    def test_piecewise_lookup(self):
        reg = ContinuityRegion(breakpoints=np.array([0.0, 2.0]),
                               lower=np.array([-1.0, -2.0]),
                               upper=np.array([1.0, 2.0]), envelope=3.0)
        assert reg.lower_at(0.5) == -1.0
        assert reg.lower_at(2.0) == -2.0  # right-continuous at breakpoints
        assert reg.upper_at(10.0) == 2.0


class TestFirstExit:
    def test_deterministic_ramp(self):
        res = first_exit(_path([0.0, 1.0, 2.0, 3.0]),
                         ContinuityRegion.constant(-2.5, 2.5))
        assert res.tau == 3.0 and res.value_at_stop == 3.0
        assert not res.truncated

    def test_never_exits_truncates(self):
        res = first_exit(_path([0.0, 1.0, 0.5, -1.0]),
                         ContinuityRegion.constant(-2.5, 2.5))
        assert res.tau == math.inf and res.truncated
        assert res.value_at_stop == -1.0

    def test_tie_at_zero(self):
        res = first_exit(_path([3.0, 0.0]), ContinuityRegion.constant(-2.5, 2.5, 3.0))
        assert res.tau == 0.0 and res.value_at_stop == 3.0

    def test_walk_exit_value_support(self):
        spec = LazyWalk(1.0, 2000)
        region = ContinuityRegion.constant(-3.0, 3.0)
        for i in range(200):
            res = first_exit(generate(spec, seed=5, path_index=i), region)
            assert not res.truncated
            assert abs(res.value_at_stop) == 3.0

    def test_monotone_in_regions_and_bounded(self):
        spec = LazyWalk(1.0, 2000)
        for i in range(200):
            path = generate(spec, seed=6, path_index=i)
            r1 = first_exit(path, PAIR_3_5.inner)
            r2 = first_exit(path, PAIR_3_5.outer)
            assert r1.tau <= r2.tau
            if not r2.truncated:
                before = path.values[path.times < r2.tau]
                assert np.all(np.abs(before) <= 5.0)

    def test_empty_path_rejected(self):
        with pytest.raises(InvalidParameter):
            first_exit(Path(times=np.array([]), values=np.array([]),
                            vproxy=np.array([])),
                       ContinuityRegion.constant(-1.0, 1.0))


# (spec, horizon): spec(horizon) builds a spec at that horizon, and each
# fails as it is built, before any draw
INVALID_SPECS = [
    (lambda h: LazyWalk(p_move=1.5, n=h), 100),
    (lambda h: LazyWalk(1.0, h, drift=0.0), 0),
    (lambda h: IidSum(BernoulliIncrements(1.5), h), 100),
    (lambda h: IidSum(TwoPointIncrements(hi=-1.0, lo=1.0, p_hi=0.5), h), 100),
    (lambda h: LazyWalk(1.0, h), math.inf),
    (lambda h: LazyWalk(1.0, h), math.nan),
    (lambda h: Brownian(dt=0.01, horizon=h), math.inf),
    (lambda h: LazyWalk(1.0, h), 2.5),
    (lambda h: LazyWalk(1.0, h), True),
    (lambda h: Brownian(dt=0.3, horizon=h), 1.0),
]


class TestOptionalStopping:
    def test_symmetric_walk_equality(self):
        rep = verify_optional_stopping(LazyWalk(1.0, 3000), PAIR_3_5,
                                       n_paths=30_000, seed=17)
        assert rep.verdict == "holds"
        assert abs(rep.mean_inner) <= 3.0 * rep.se_inner
        assert abs(rep.mean_outer) <= 3.0 * rep.se_outer
        assert rep.truncated_outer == 0.0

    def test_drifted_walk_supermartingale(self):
        rep = verify_optional_stopping(LazyWalk(1.0, 3000, drift=-0.1),
                                       PAIR_3_5, n_paths=30_000, seed=18,
                                       kind="supermartingale")
        assert rep.verdict == "holds"
        assert rep.mean_diff <= 3.0 * rep.se_diff
        assert rep.mean_outer < rep.mean_inner  # strict drift effect

    @pytest.mark.filterwarnings("ignore:truncation fraction")
    def test_exponential_supermartingale_equality(self):
        # Most paths never leave (0, 4): Y -> 0, so tau = inf and the terminal
        # value stands in for X_tau, exactly the lim X_{tau ^ t} convention.
        phi = make_phi(Gaussian(1.0))
        spec = ExpSupermartingale(Brownian(dt=2e-3, horizon=60.0), s=1.0, phi=phi)
        pair = RegionPair(
            inner=ContinuityRegion.constant(0.0, 4.0, envelope=8.0),
            outer=ContinuityRegion.constant(0.0, 8.0, envelope=8.0))
        rep = verify_optional_stopping(spec, pair, n_paths=4000, seed=19)
        # martingale started at 1: both stopped means estimate E[Y_0] = 1
        assert abs(rep.mean_inner - 1.0) <= 4.0 * rep.se_inner
        assert abs(rep.mean_outer - 1.0) <= 4.0 * rep.se_outer
        assert rep.verdict == "holds"

    def test_truncation_warning(self):
        tight = RegionPair(inner=ContinuityRegion.constant(-40.0, 40.0, 50.0),
                           outer=ContinuityRegion.constant(-50.0, 50.0, 50.0))
        with pytest.warns(UserWarning, match="truncation"):
            verify_optional_stopping(LazyWalk(1.0, 30), tight, n_paths=500,
                                     seed=20)

    @pytest.mark.parametrize("spec, horizon", INVALID_SPECS, ids=[
        f"spec{i}-{h}" for i, (_, h) in enumerate(INVALID_SPECS)])
    def test_invalid_spec_raises_before_drawing(self, monkeypatch, spec,
                                                horizon):
        def no_draws(*args):
            raise AssertionError("a path was drawn")

        monkeypatch.setattr(stopping, "path_streams", no_draws)
        with pytest.raises(InvalidSpec):
            verify_optional_stopping(spec(horizon), walk_region_pair(), 200, 1)

    def test_kind_validated(self):
        with pytest.raises(InvalidParameter):
            verify_optional_stopping(LazyWalk(1.0, 10), PAIR_3_5, 10, 1,
                                     kind="submartingale")


def _pair(lo1, up1, lo2, up2):
    env = max(abs(lo2), abs(up2))
    return RegionPair(inner=ContinuityRegion.constant(lo1, up1, envelope=env),
                      outer=ContinuityRegion.constant(lo2, up2, envelope=env))


def _normal_half(rng, n):
    return 0.5 * rng.standard_normal(n)


def _pw_pair(time_scale=1.0, value_scale=1.0, shift=0.0):
    """Piecewise-constant nested regions with breakpoints on both sides of
    the first 128-step block (at unit scales)."""
    def region(bp, lower, upper):
        return ContinuityRegion(
            breakpoints=time_scale * np.array(bp),
            lower=shift + value_scale * np.array(lower),
            upper=shift + value_scale * np.array(upper),
            envelope=abs(shift) + 6.0 * value_scale)
    return RegionPair(inner=region([0.0, 20.0, 150.0], [-3.0, -4.0, -2.0],
                                   [3.0, 2.0, 4.0]),
                      outer=region([0.0, 100.0, 200.0], [-5.0, -6.0, -4.0],
                                   [5.0, 6.0, 4.5]))


PAIR_1_2 = _pair(-1.0, 1.0, -2.0, 2.0)
HARVEST_CASES = [
    (LazyWalk(1.0, 300), PAIR_3_5),
    (LazyWalk(1.0, 300, drift=-0.1), PAIR_3_5),
    (LazyWalk(1.0, 300, drift=-0.1), _pair(-5.0, 5.0, -15.0, 15.0)),
    (LazyWalk(0.6, 300), PAIR_3_5),
    (IidSum(BernoulliIncrements(0.3), 300), PAIR_1_2),
    (IidSum(UniformIncrements(), 300), PAIR_3_5),
    (IidSum(TwoPointIncrements(hi=1.0, lo=-0.5, p_hi=1.0 / 3.0), 300), PAIR_1_2),
    (IidSum(CustomIncrements(_normal_half), 300), PAIR_1_2),
    (LazyWalk(1.0, 300), _pair(0.0, 3.0, -5.0, 5.0)),   # X_0 on the inner boundary
    (LazyWalk(1.0, 300), _pair(-3.0, 0.0, -3.0, 0.0)),  # ... and on the outer one
]


def _generate_loop(spec, pair, n_paths, seed):
    """Reference: first_exit of each whole generate path, one path at a
    time; the engine must equal it bit for bit."""
    t1 = np.empty(n_paths); v1 = np.empty(n_paths)
    t2 = np.empty(n_paths); v2 = np.empty(n_paths)
    for i in range(n_paths):
        path = generate(spec, seed, i)
        r1 = first_exit(path, pair.inner)
        r2 = first_exit(path, pair.outer)
        t1[i], v1[i] = r1.tau, r1.value_at_stop
        t2[i], v2[i] = r2.tau, r2.value_at_stop
    return t1, v1, t2, v2


def _horizon(spec):
    """The horizon a spec states: n steps, or a time; an
    ExpSupermartingale's is its base's."""
    base = getattr(spec, "base", spec)
    return base.n if isinstance(base, (IidSum, LazyWalk)) else base.horizon


def _cut(spec, steps):
    """spec at steps/300 of its horizon; a walk at n = steps."""
    if isinstance(spec, ExpSupermartingale):
        return dataclasses.replace(spec, base=_cut(spec.base, steps))
    if isinstance(spec, (IidSum, LazyWalk)):
        return dataclasses.replace(spec, n=steps)
    return dataclasses.replace(spec, horizon=spec.horizon * steps / 300)


PHI_G = make_phi(Gaussian(1.0))
# (spec, pair): piecewise-constant regions on every kind of process, each
# spec at the horizon it runs to
ENGINE_CASES = [
    (LazyWalk(1.0, 300), _pw_pair(1.0, 2.0)),
    (IidSum(BernoulliIncrements(0.3), 299), _pw_pair(1.0, 1.23)),
    # bounds on the lattice k - 0.3 n of the values (5.4, -4.8, ...): a value
    # summed in any other order than generate's can miss or make a tie
    (IidSum(BernoulliIncrements(0.3), 299), _pw_pair(1.0, 1.2)),
    (Brownian(dt=0.01, horizon=3.0), _pw_pair(0.01, 0.25)),
    (ExpSupermartingale(Brownian(dt=0.01, horizon=3.0), s=1.0, phi=PHI_G),
     _pw_pair(0.01, 0.2, shift=1.0)),
    (ExpSupermartingale(LazyWalk(1.0, 300), s=0.05, phi=PHI_G),
     _pw_pair(1.0, 0.2, shift=1.0)),
    (PoissonCounting(lam=2.0, horizon=20.0, centered=True), _pw_pair(0.1)),
    (PoissonCounting(lam=2.0, horizon=4.0), _pw_pair(0.02, 2.0, shift=3.0)),
    (ExpSupermartingale(PoissonCounting(lam=2.0, horizon=4.0, centered=True),
                        s=0.5, phi=make_phi(PoissonCentered(2.0))),
     _pw_pair(0.02, 0.15, shift=1.0)),
    # the last two start on the inner region's boundary, X_0 = 0 on L(0) = 0
    # and Y_0 = 1 on U(0) = 1, as two LazyWalk cases in HARVEST_CASES do:
    # the search of each block from its column 0 finds those exits at t = 0
    (PoissonCounting(lam=2.0, horizon=4.0), _pw_pair(0.02, 1.0, shift=3.0)),
    (ExpSupermartingale(Brownian(dt=0.01, horizon=3.0), s=1.0, phi=PHI_G),
     _pw_pair(0.01, 0.25, shift=0.25)),
]
ENGINE_IDS = ["walk", "bernoulli", "bernoulli_lattice", "brownian",
              "exp_brownian", "exp_walk", "poisson_centered", "poisson",
              "exp_poisson", "poisson_start_on_boundary",
              "exp_brownian_start_on_boundary"]


class TestOneEngine:
    @pytest.mark.parametrize("spec,pair", ENGINE_CASES, ids=ENGINE_IDS)
    def test_matches_generate_loop(self, spec, pair):
        got = stopping._harvest_exits([spec], pair, 300, 78)[0]
        want = _generate_loop(spec, pair, 300, 78)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("spec,pair", ENGINE_CASES[:-2],
                             ids=ENGINE_IDS[:-2])
    def test_cases_cover_exits_and_truncation(self, spec, pair):
        # each case has paths that leave both regions, after the first block
        # and after a breakpoint, and paths that never leave the outer one
        t1, _, t2, _ = stopping._harvest_exits([spec], pair, 300, 78)[0]
        late = pair.inner.breakpoints[1]
        assert np.any(np.isfinite(t1) & (t1 >= late))
        assert np.any(np.isfinite(t2) & (t2 > pair.outer.breakpoints[1]))
        assert np.isinf(t2).any()
        if not isinstance(spec, PoissonCounting):
            assert np.any(np.isfinite(t2) & (t2 > _horizon(spec) * 128 / 300))

    @pytest.mark.parametrize("spec,pair", ENGINE_CASES[-2:],
                             ids=ENGINE_IDS[-2:])
    def test_start_on_boundary_cases_exit_at_zero(self, spec, pair):
        # every inner exit is at t = 0, and the outer exits still come after
        # the first block and after a breakpoint, or never
        t1, v1, t2, _ = stopping._harvest_exits([spec], pair, 300, 78)[0]
        assert np.all(t1 == 0.0) and np.all(v1 == v1[0])
        assert np.all(t2 > 0.0) and np.isinf(t2).any()
        assert np.any(np.isfinite(t2) & (t2 > pair.outer.breakpoints[1]))

    @pytest.mark.filterwarnings("ignore:truncation fraction")
    def test_verify_reads_the_harvest(self, monkeypatch):
        # no generate + first_exit fallback is left for any spec or region
        monkeypatch.setattr(stopping, "first_exit", None)
        monkeypatch.setattr(stopping, "generate", None, raising=False)
        monkeypatch.setattr("crossbound.sim.generate", None)
        for spec, pair in ENGINE_CASES:
            rep = verify_optional_stopping(spec, pair, 50, 79)
            t1, v1, t2, v2 = stopping._harvest_exits([spec], pair, 50, 79)[0]
            assert rep.mean_inner == v1.mean() and rep.mean_outer == v2.mean()
            assert rep.truncated_outer == np.isinf(t2).mean()


class TestHarvest:
    @pytest.mark.parametrize("horizon", [300, 20])
    @pytest.mark.parametrize("spec,pair", HARVEST_CASES)
    def test_matches_serial_loop(self, spec, pair, horizon):
        spec = dataclasses.replace(spec, n=horizon)
        got = stopping._harvest_exits([spec], pair, 300, 77)[0]
        want = _generate_loop(spec, pair, 300, 77)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_truncation_and_ties_covered(self):
        # horizon 20 truncates some paths; at horizon 300 some paths exit in
        # the third, partial block and some are truncated after it
        t1, _, t2, _ = stopping._harvest_exits([LazyWalk(1.0, 20)], PAIR_3_5,
                                               300, 77)[0]
        assert np.isinf(t2).any() and np.isfinite(t2).any()
        for spec, pair in HARVEST_CASES[2], HARVEST_CASES[5]:
            t1, _, t2, _ = stopping._harvest_exits([spec], pair, 300, 77)[0]
            assert np.any(np.isfinite(t2) & (t2 > 256)) and np.isinf(t2).any()
        spec, pair = HARVEST_CASES[-2]
        t1, _, t2, _ = stopping._harvest_exits([spec], pair, 300, 77)[0]
        assert np.all(t1 == 0.0) and np.all(t2 > 0.0)

    @settings(max_examples=15, deadline=None)
    @given(case=st.sampled_from(HARVEST_CASES + ENGINE_CASES),
           rows=st.integers(1, 200), n_paths=st.integers(2, 260),
           steps=st.integers(1, 300), seed=st.integers(0, 2 ** 32))
    def test_does_not_depend_on_group_size(self, case, rows, n_paths, steps,
                                           seed):
        spec, pair = case
        spec = _cut(spec, steps)
        want = stopping._harvest_exits([spec], pair, n_paths, seed)[0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stopping, "HARVEST_ROWS", rows)
            got = stopping._harvest_exits([spec], pair, n_paths, seed)[0]
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


# Spec sets that draw one stream (one fill on one grid), each against one
# pair: some paths leave the outer region within the first 128-step block
# under one spec and after it, or never, under another; some are truncated.
BM = Brownian(dt=0.01, horizon=3.0)
SHARED_SETS = [
    ([LazyWalk(1.0, 300), LazyWalk(1.0, 300, drift=-0.1),
      LazyWalk(0.5, 300, drift=0.05)], _pair(-5.0, 5.0, -15.0, 15.0)),
    ([IidSum(BernoulliIncrements(0.3), 300),
      IidSum(BernoulliIncrements(0.5), 300), IidSum(UniformIncrements(), 300),
      IidSum(TwoPointIncrements(hi=1.0, lo=-0.5, p_hi=1.0 / 3.0), 300)],
     _pair(-3.0, 3.0, -8.0, 8.0)),
    ([BM, ExpSupermartingale(BM, s=1.0, phi=PHI_G)],
     _pair(-0.5, 1.5, -1.0, 2.5)),
]
SHARED_IDS = ["walks", "uniform_laws", "brownian_and_exp"]


class TestSharedHarvest:
    @pytest.mark.parametrize("seed", [77, 6007])
    @pytest.mark.parametrize("specs,pair", SHARED_SETS, ids=SHARED_IDS)
    def test_equals_one_harvest_per_spec(self, specs, pair, seed):
        got = stopping._harvest_exits(specs, pair, 300, seed)
        assert len(got) == len(specs)
        for spec, exits in zip(specs, got):
            want = stopping._harvest_exits([spec], pair, 300, seed)[0]
            for g, w in zip(exits, want):
                assert np.array_equal(g, w)
        # the set covers what a shared pass must keep apart
        first_block = _horizon(specs[0]) * 128 / 300
        t2 = np.array([t for _, _, t, _ in got])
        assert np.isinf(t2).any() and np.isfinite(t2).any()
        assert np.any((t2.min(axis=0) <= first_block)
                      & (t2.max(axis=0) > first_block))

    @pytest.mark.parametrize("specs", [
        [BM, LazyWalk(1.0, 300)],
        [LazyWalk(1.0, 300), LazyWalk(1.0, 200)],
        [BM, Brownian(dt=0.02, horizon=3.0)],
        [BM, Brownian(dt=0.02, horizon=6.0)],       # same step count
        [IidSum(CustomIncrements(_normal_half), 300)] * 2,
        [PoissonCounting(lam=2.0, horizon=4.0),
         PoissonCounting(lam=2.0, horizon=4.0, centered=True)],
        [PoissonCounting(lam=2.0, horizon=4.0), LazyWalk(1.0, 300)],
    ], ids=["brownian_walk", "walk_n", "brownian_dt", "brownian_dt_same_n",
            "two_custom", "two_poisson", "poisson_walk"])
    def test_other_streams_refused_before_drawing(self, monkeypatch, specs):
        def no_draws(*args):
            raise AssertionError("a path was drawn")

        monkeypatch.setattr(stopping, "path_streams", no_draws)
        monkeypatch.setattr(stopping, "path_blocks", no_draws)
        with pytest.raises(InvalidParameter, match="harvest pass"):
            stopping.verify_shared_stopping(
                [(spec, "martingale") for spec in specs], PAIR_3_5, 200, 1)

    def test_one_spec_is_verify_optional_stopping(self):
        spec = LazyWalk(1.0, 300, drift=-0.1)
        shared = stopping.verify_shared_stopping(
            [(LazyWalk(1.0, 300), "martingale"), (spec, "supermartingale")],
            PAIR_3_5, 500, 21)
        assert shared[1] == verify_optional_stopping(
            spec, PAIR_3_5, 500, 21, kind="supermartingale")
