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
    EmptyPath,
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
from crossbound.sim import _draw_increments, path_rng, walk_increments

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

    def test_serialization_roundtrip(self):
        from crossbound import region_from_dict, region_pair_from_dict
        reg = ContinuityRegion(breakpoints=np.array([0.0, 2.0]),
                               lower=np.array([-1.0, -2.0]),
                               upper=np.array([1.0, 2.0]), envelope=3.0)
        back = region_from_dict(
            __import__("crossbound").region_to_dict(reg))
        assert np.array_equal(back.breakpoints, reg.breakpoints)
        assert np.array_equal(back.lower, reg.lower)
        assert back.envelope == reg.envelope
        pair = region_pair_from_dict(PAIR_3_5.to_dict())
        assert pair.outer.upper_at(0.0) == 5.0


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
        with pytest.raises((EmptyPath, InvalidParameter)):
            first_exit(Path(times=np.array([]), values=np.array([]),
                            vproxy=np.array([])),
                       ContinuityRegion.constant(-1.0, 1.0))


class TestOptionalStopping:
    def test_symmetric_walk_equality(self):
        rep = verify_optional_stopping(LazyWalk(1.0, 100), PAIR_3_5,
                                       n_paths=30_000, horizon=3000, seed=17)
        assert rep.verdict == "holds"
        assert abs(rep.mean_inner) <= 3.0 * rep.se_inner
        assert abs(rep.mean_outer) <= 3.0 * rep.se_outer
        assert rep.truncated_outer == 0.0

    def test_drifted_walk_supermartingale(self):
        rep = verify_optional_stopping(LazyWalk(1.0, 100, drift=-0.1), PAIR_3_5,
                                       n_paths=30_000, horizon=3000, seed=18,
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
        rep = verify_optional_stopping(spec, pair, n_paths=4000, horizon=60.0,
                                       seed=19)
        # martingale started at 1: both stopped means estimate E[Y_0] = 1
        assert abs(rep.mean_inner - 1.0) <= 4.0 * rep.se_inner
        assert abs(rep.mean_outer - 1.0) <= 4.0 * rep.se_outer
        assert rep.verdict == "holds"

    def test_truncation_warning(self):
        tight = RegionPair(inner=ContinuityRegion.constant(-40.0, 40.0, 50.0),
                           outer=ContinuityRegion.constant(-50.0, 50.0, 50.0))
        with pytest.warns(UserWarning, match="truncation"):
            verify_optional_stopping(LazyWalk(1.0, 30), tight, n_paths=500,
                                     horizon=30, seed=20)

    @pytest.mark.parametrize("spec, horizon", [
        (LazyWalk(p_move=1.5, n=100), 100),
        (LazyWalk(1.0, 100, drift=0.0), 0),
        (IidSum(BernoulliIncrements(1.5), 100), 100),
        (IidSum(TwoPointIncrements(hi=-1.0, lo=1.0, p_hi=0.5), 100), 100),
    ])
    def test_invalid_spec_raises_before_drawing(self, monkeypatch, spec,
                                                horizon):
        def no_draws(*args):
            raise AssertionError("a path was drawn")

        monkeypatch.setattr(stopping, "path_streams", no_draws)
        with pytest.raises(InvalidSpec):
            verify_optional_stopping(spec, walk_region_pair(), 200, horizon, 1)

    def test_kind_validated(self):
        with pytest.raises(InvalidParameter):
            verify_optional_stopping(LazyWalk(1.0, 10), PAIR_3_5, 10, 10, 1,
                                     kind="submartingale")


def _serial_harvest(spec, pair, n_paths, horizon, seed):
    """Reference: the one-path-at-a-time early-exit loop that the grouped
    harvest replaced, kept as it was."""
    lo1 = float(pair.inner.lower[0]); up1 = float(pair.inner.upper[0])
    lo2 = float(pair.outer.lower[0]); up2 = float(pair.outer.upper[0])
    block = 128
    v1 = np.empty(n_paths); v2 = np.empty(n_paths)
    t1 = np.empty(n_paths); t2 = np.empty(n_paths)
    if isinstance(spec, LazyWalk):
        draw = lambda rng, m: walk_increments(dataclasses.replace(spec, n=m), rng)
    else:
        draw = lambda rng, m: _draw_increments(spec.dist, rng, m)
    horizon = int(horizon)
    for i in range(n_paths):
        rng = path_rng(seed, i)
        x = 0.0
        done1 = False
        step = 0
        r1 = r2 = None
        if x <= lo1 or x >= up1:
            r1 = (0.0, 0.0); done1 = True
        if x <= lo2 or x >= up2:
            r2 = (0.0, 0.0)
        while r2 is None and step < horizon:
            m = min(block, horizon - step)
            cum = x + np.cumsum(draw(rng, m))
            if not done1:
                out1 = (cum <= lo1) | (cum >= up1)
                j = int(np.argmax(out1))
                if out1[j]:
                    r1 = (float(step + j + 1), float(cum[j]))
                    done1 = True
            out2 = (cum <= lo2) | (cum >= up2)
            j = int(np.argmax(out2))
            if out2[j]:
                r2 = (float(step + j + 1), float(cum[j]))
            x = float(cum[-1])
            step += m
        if r2 is None:
            r2 = (math.inf, x)
        if r1 is None:
            r1 = (math.inf, x)
        t1[i], v1[i] = r1
        t2[i], v2[i] = r2
    return t1, v1, t2, v2


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


def _generate_loop(spec, pair, n_paths, horizon, seed):
    """Reference: the per-path generate + first_exit loop that the harvest
    replaced for every other spec and region, kept as it was."""
    spec = stopping._with_horizon(spec, horizon)
    t1 = np.empty(n_paths); v1 = np.empty(n_paths)
    t2 = np.empty(n_paths); v2 = np.empty(n_paths)
    for i in range(n_paths):
        path = generate(spec, seed, i)
        r1 = first_exit(path, pair.inner)
        r2 = first_exit(path, pair.outer)
        t1[i], v1[i] = r1.tau, r1.value_at_stop
        t2[i], v2[i] = r2.tau, r2.value_at_stop
    return t1, v1, t2, v2


PHI_G = make_phi(Gaussian(1.0))
# (spec, pair, horizon): piecewise-constant regions on every kind of process
ENGINE_CASES = [
    (LazyWalk(1.0, 300), _pw_pair(1.0, 2.0), 300),
    # bounds off the lattice k - 0.3 n of the values: on it, a value summed
    # per block can tie a bound that generate's single cumsum misses
    (IidSum(BernoulliIncrements(0.3), 300), _pw_pair(1.0, 1.23), 299),
    (Brownian(dt=0.01, horizon=3.0), _pw_pair(0.01, 0.25), 3.0),
    (ExpSupermartingale(Brownian(dt=0.01, horizon=3.0), s=1.0, phi=PHI_G),
     _pw_pair(0.01, 0.2, shift=1.0), 3.0),
    (ExpSupermartingale(LazyWalk(1.0, 300), s=0.05, phi=PHI_G),
     _pw_pair(1.0, 0.2, shift=1.0), 300),
    (PoissonCounting(lam=2.0, horizon=20.0, centered=True), _pw_pair(0.1), 20.0),
    (PoissonCounting(lam=2.0, horizon=4.0),
     _pw_pair(0.02, 2.0, shift=3.0), 4.0),
    (ExpSupermartingale(PoissonCounting(lam=2.0, horizon=4.0, centered=True),
                        s=0.5, phi=make_phi(PoissonCentered(2.0))),
     _pw_pair(0.02, 0.15, shift=1.0), 4.0),
]
ENGINE_IDS = ["walk", "bernoulli", "brownian", "exp_brownian", "exp_walk",
              "poisson_centered", "poisson", "exp_poisson"]


class TestOneEngine:
    @pytest.mark.parametrize("spec,pair,horizon", ENGINE_CASES, ids=ENGINE_IDS)
    def test_matches_generate_loop(self, spec, pair, horizon):
        got = stopping._harvest_exits_blockwise(spec, pair, 300, horizon, 78)
        want = _generate_loop(spec, pair, 300, horizon, 78)
        for g, w in zip(got[::2], want[::2]):
            assert np.array_equal(g, w)
        for g, w in zip(got[1::2], want[1::2]):
            if isinstance(spec, PoissonCounting):    # read, not re-summed
                assert np.array_equal(g, w)
            else:
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("spec,pair,horizon", ENGINE_CASES, ids=ENGINE_IDS)
    def test_cases_cover_exits_and_truncation(self, spec, pair, horizon):
        # each case has paths that leave both regions, after the first block
        # and after a breakpoint, and paths that never leave the outer one
        t1, _, t2, _ = stopping._harvest_exits_blockwise(spec, pair, 300,
                                                         horizon, 78)
        late = pair.inner.breakpoints[1]
        assert np.any(np.isfinite(t1) & (t1 >= late))
        assert np.any(np.isfinite(t2) & (t2 > pair.outer.breakpoints[1]))
        assert np.isinf(t2).any()
        if not isinstance(spec, PoissonCounting):
            assert np.any(np.isfinite(t2) & (t2 > horizon * 128 / 300))

    @pytest.mark.filterwarnings("ignore:truncation fraction")
    def test_verify_reads_the_harvest(self, monkeypatch):
        # no generate + first_exit fallback is left for any spec or region
        monkeypatch.setattr(stopping, "first_exit", None)
        monkeypatch.setattr(stopping, "generate", None, raising=False)
        monkeypatch.setattr("crossbound.sim.generate", None)
        for spec, pair, horizon in ENGINE_CASES:
            rep = verify_optional_stopping(spec, pair, 50, horizon, 79)
            t1, v1, t2, v2 = stopping._harvest_exits_blockwise(spec, pair, 50,
                                                               horizon, 79)
            assert rep.mean_inner == v1.mean() and rep.mean_outer == v2.mean()
            assert rep.truncated_outer == np.isinf(t2).mean()


class TestHarvest:
    @pytest.mark.parametrize("horizon", [300, 20])
    @pytest.mark.parametrize("spec,pair", HARVEST_CASES)
    def test_matches_serial_loop(self, spec, pair, horizon):
        got = stopping._harvest_exits_blockwise(spec, pair, 300, horizon, 77)
        want = _serial_harvest(spec, pair, 300, horizon, 77)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_truncation_and_ties_covered(self):
        # horizon 20 truncates some paths; at horizon 300 some paths exit in
        # the third, partial block and some are truncated after it
        t1, _, t2, _ = stopping._harvest_exits_blockwise(
            LazyWalk(1.0, 300), PAIR_3_5, 300, 20, 77)
        assert np.isinf(t2).any() and np.isfinite(t2).any()
        for spec, pair in HARVEST_CASES[2], HARVEST_CASES[5]:
            t1, _, t2, _ = stopping._harvest_exits_blockwise(spec, pair, 300,
                                                             300, 77)
            assert np.any(np.isfinite(t2) & (t2 > 256)) and np.isinf(t2).any()
        t1, _, t2, _ = stopping._harvest_exits_blockwise(
            *HARVEST_CASES[-2], 300, 300, 77)
        assert np.all(t1 == 0.0) and np.all(t2 > 0.0)

    @settings(max_examples=15, deadline=None)
    @given(case=st.sampled_from(
               [(spec, pair, 1) for spec, pair in HARVEST_CASES]
               + [(spec, pair, h / 300) for spec, pair, h in ENGINE_CASES]),
           rows=st.integers(1, 200), n_paths=st.integers(2, 260),
           steps=st.integers(1, 300), seed=st.integers(0, 2 ** 32))
    def test_does_not_depend_on_group_size(self, case, rows, n_paths, steps,
                                           seed):
        spec, pair, unit = case
        horizon = steps * unit
        want = stopping._harvest_exits_blockwise(spec, pair, n_paths, horizon,
                                                 seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stopping, "HARVEST_ROWS", rows)
            got = stopping._harvest_exits_blockwise(spec, pair, n_paths,
                                                    horizon, seed)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
