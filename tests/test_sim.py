import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossbound import (
    BernoulliIncrements,
    Bernstein,
    Brownian,
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
    TwoPointIncrements,
    Uniform24,
    UniformIncrements,
    generate,
    make_phi,
    sim,
    verify_optional_stopping,
)
from crossbound.presets import walk_region_pair
from crossbound.sim import (
    increments_matrix,
    path_blocks,
    path_rng,
    path_streams,
    poisson_jump_times,
    step_draws,
)


def _normal_half(rng, n):
    return 0.5 * rng.standard_normal(n)


class TestPathInvariants:
    def test_validation(self):
        with pytest.raises(InvalidParameter):
            Path(times=[0.0, 1.0, 1.0], values=[0, 0, 0], vproxy=[0, 1, 2])
        with pytest.raises(InvalidParameter):
            Path(times=[0.5, 1.0], values=[0, 0], vproxy=[0, 1])
        with pytest.raises(InvalidParameter):
            Path(times=[0.0, 1.0], values=[0, 0], vproxy=[1, 0])

    def test_generated_paths_satisfy_invariants(self):
        for spec in (IidSum(UniformIncrements(), 50),
                     LazyWalk(0.6, 50, drift=-0.05),
                     PoissonCounting(2.0, 5.0),
                     PoissonCounting(2.0, 5.0, centered=True),
                     Brownian(0.1, 5.0)):
            p = generate(spec, seed=5, path_index=3)
            assert p.times[0] == 0.0
            assert np.all(np.diff(p.times) > 0)
            assert np.all(np.diff(p.vproxy) >= 0)


class TestDeterminism:
    @pytest.mark.parametrize("spec", [
        IidSum(BernoulliIncrements(0.3), 64),
        LazyWalk(0.8, 64, drift=0.1),
        PoissonCounting(1.5, 12.0, centered=True),
        Brownian(0.01, 2.0),
    ], ids=lambda s: type(s).__name__)
    def test_same_key_same_path(self, spec):
        a = generate(spec, seed=123, path_index=7)
        b = generate(spec, seed=123, path_index=7)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.times, b.times)

    def test_different_indices_differ(self):
        spec = Brownian(0.01, 2.0)
        a = generate(spec, seed=123, path_index=0)
        b = generate(spec, seed=123, path_index=1)
        assert not np.array_equal(a.values, b.values)

    def test_batch_rows_match_single_paths(self):
        spec = IidSum(UniformIncrements(), 32)
        mat = increments_matrix(spec, seed=9, indices=np.arange(5))
        for i in range(5):
            path = generate(spec, seed=9, path_index=i)
            rebuilt = np.concatenate([[0.0], np.cumsum(mat[i])])
            assert np.array_equal(path.values, rebuilt)


STREAM_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, -7, 2 ** 64 + 5]
STREAM_INDICES = list(range(301)) + [2 ** 31, 2 ** 32 - 1]


def _assert_streams_match(seed, indices, draw, gens):
    """Each stream from path_streams has path_rng's state and draws."""
    n = 0
    for i, rng in zip(indices, path_streams(seed, indices, gens)):
        ref = path_rng(seed, i)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(draw(rng), draw(ref))
        n += 1
    assert n == len(indices)


class TestPathStreams:
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_equal_to_path_rng(self, seed):
        gens = [np.random.default_rng(0)]
        _assert_streams_match(seed, STREAM_INDICES, lambda r: r.random(1000),
                              gens)
        _assert_streams_match(seed, np.array(STREAM_INDICES),
                              lambda r: r.standard_normal(1000), gens)

    def test_pool_generators_are_used_in_turn(self):
        gens = [np.random.default_rng(0) for _ in range(3)]
        got = list(path_streams(5, range(3), gens))
        assert [id(g) for g in got] == [id(g) for g in gens]
        # all three stay valid together while no further stream is taken
        for i, rng in enumerate(got):
            assert np.array_equal(rng.random(50), path_rng(5, i).random(50))

    def test_uncovered_indices_fall_back_to_path_rng(self, monkeypatch):
        import crossbound.sim as sim

        calls = []

        def counting_path_rng(seed, i):
            calls.append(i)
            return path_rng(seed, i)

        monkeypatch.setattr(sim, "path_rng", counting_path_rng)
        gens = [np.random.default_rng(0)]
        indices = [3, 2 ** 32, 4, 2 ** 40 + 1]
        got = list(path_streams(11, indices, gens))
        assert calls == [2 ** 32, 2 ** 40 + 1]
        assert got[1] is not gens[0] and got[3] is not gens[0]
        for i, rng in zip(indices[1::2], got[1::2]):
            assert np.array_equal(rng.random(100), path_rng(11, i).random(100))
        with pytest.raises(InvalidParameter):
            list(path_streams(11, [1, -1], gens))

    def test_longer_than_one_hashed_slice(self):
        indices = range(2500)
        gens = [np.random.default_rng(0)]
        for i, rng in zip(indices, path_streams(2 ** 40 + 3, indices, gens)):
            assert rng.bit_generator.state == \
                path_rng(2 ** 40 + 3, i).bit_generator.state

    def test_uint32_draws_after_restating(self):
        # a uint32 draw leaves has_uint32 set, with half a word buffered;
        # re-stating clears both, as the state dict setter does
        gens = [np.random.default_rng(0)]
        for i, rng in zip(range(4), path_streams(3, range(4), gens)):
            ref = path_rng(3, i)
            assert rng.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(rng.integers(0, 2 ** 32, 5, dtype=np.uint32),
                                  ref.integers(0, 2 ** 32, 5, dtype=np.uint32))
            assert rng.bit_generator.state["has_uint32"] == 1

    def test_state_layout_check_reads_true(self):
        assert sim._state_layout_ok()

    def test_layout_mismatch_falls_back_to_path_rng(self, monkeypatch):
        monkeypatch.setattr(sim, "_state_layout_ok", lambda: False)
        gens = [np.random.default_rng(0)]
        indices = [0, 5, 2 ** 32 - 1, 2 ** 32]
        got = list(path_streams(9, indices, gens))
        assert all(rng is not gens[0] for rng in got)
        for i, rng in zip(indices, got):
            ref = path_rng(9, i)
            assert rng.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(rng.random(50), ref.random(50))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(-2 ** 70, 2 ** 70),
           indices=st.lists(st.integers(0, 2 ** 33), min_size=1, max_size=20),
           pool=st.integers(1, 4))
    def test_equal_to_path_rng_property(self, seed, indices, pool):
        gens = [np.random.default_rng(0) for _ in range(pool)]
        _assert_streams_match(seed, indices, lambda r: r.random(20), gens)
        _assert_streams_match(seed, indices, lambda r: r.standard_normal(20),
                              gens)


class TestPathBlocks:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("spec", [
        IidSum(TwoPointIncrements(hi=1.0, lo=-0.5, p_hi=1.0 / 3.0), 40),
        LazyWalk(0.8, 40, drift=0.1),
        Brownian(0.05, 2.0),
        PoissonCounting(1.5, 6.0, centered=True),
        IidSum(CustomIncrements(_normal_half), 40),
    ], ids=["IidSum", "LazyWalk", "Brownian", "PoissonCounting",
            "CustomIncrements"])
    def test_rows_equal_generate(self, spec, threads):
        chunks = [np.arange(s, min(s + 7, 30)) for s in range(0, 30, 7)]
        work = lambda ix: path_blocks(spec, 3, ix)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(work, chunks))
        rows = [r for X, V in blocks for r in zip(X, np.broadcast_to(V, X.shape))]
        assert len(rows) == 30
        for i, (x, v) in enumerate(rows):
            # a Poisson row repeats its horizon point past the path's end
            path = generate(spec, 3, i)
            m = path.values.size
            assert np.array_equal(x[:m], path.values)
            assert np.array_equal(v[:m], path.vproxy)
            assert np.all(x[m:] == x[m - 1]) and np.all(v[m:] == v[m - 1])


# every grid law; 40 steps a row, 30 rows from index 5
ROW_BLOCK_SPECS = {
    "bernoulli": IidSum(BernoulliIncrements(0.3), 40),
    "uniform": IidSum(UniformIncrements(), 40),
    "two_point": IidSum(TwoPointIncrements(hi=1.0, lo=-0.5, p_hi=1.0 / 3.0),
                        40),
    "lazy_walk": LazyWalk(0.8, 40, drift=0.1),
    "custom": IidSum(CustomIncrements(_normal_half), 40),
    "brownian": Brownian(0.05, 2.0),
}


def _count_maps(monkeypatch):
    """Record the shape of each block that path_blocks's step map maps."""
    maps = []

    def counting_step_draws(spec):
        V, fill, steps = step_draws(spec)
        return V, fill, lambda blk: maps.append(blk.shape) or steps(blk)

    monkeypatch.setattr(sim, "step_draws", counting_step_draws)
    return maps


class TestRowBlocks:
    @pytest.mark.parametrize("kind", list(ROW_BLOCK_SPECS))
    @pytest.mark.parametrize("budget, per", [(80, 2), (175, 4), (39, 1)],
                             ids=["2_rows", "4_rows", "under_a_row"])
    def test_blocks_equal_the_per_row_oracle(self, monkeypatch, kind, budget,
                                             per):
        # 30 rows of 40 steps: 15 blocks of 2, 8 of 4 (the last one of 2),
        # or one row a block where the budget holds less than a row
        spec = ROW_BLOCK_SPECS[kind]
        _, fill, steps = step_draws(spec)
        monkeypatch.setattr(sim, "_ROW_BLOCK", budget)
        maps = _count_maps(monkeypatch)
        indices = range(5, 35)
        X, _ = path_blocks(spec, 2012, indices)
        # frozen oracle: each path's own stream, step map and cumsum
        for x, i in zip(X, indices):
            row = np.empty(40)
            fill(path_rng(2012, i), row)
            want = np.concatenate([[0.0], np.cumsum(steps(row))])
            assert x.tobytes() == want.tobytes()
        assert maps == [(per, 40)] * (30 // per) + [(30 % per, 40)] * (
            30 % per > 0)

    def test_default_budget_maps_a_short_chunk_once(self, monkeypatch):
        maps = _count_maps(monkeypatch)
        path_blocks(ROW_BLOCK_SPECS["bernoulli"], 2012, range(30))
        assert maps == [(30, 40)]


# generate(spec, seed=2012, path_index=4).values, recorded before every grid
# producer drew through sim.step_draws: a change to every stream at once
# (draw order, step map or summation) still fails here
PHI_G = make_phi(Gaussian(1.0))
PINNED_PATHS = {
    "bernoulli": (IidSum(BernoulliIncrements(0.3), 6), [
        0.0, -0.3, 0.39999999999999997, 0.09999999999999998,
        0.7999999999999999, 0.49999999999999994, 0.19999999999999996]),
    "uniform": (IidSum(UniformIncrements(), 6), [
        0.0, 0.22878168934484444, -0.12922690972561535, 0.08439494718491225,
        -0.4004206608474148, 0.0689388454270905, 0.2956421350884222]),
    "two_point": (IidSum(TwoPointIncrements(hi=1.0, lo=-0.5, p_hi=1.0 / 3.0),
                         6), [0.0, -0.5, 0.5, 0.0, 1.0, 0.5, 0.0]),
    "custom": (IidSum(CustomIncrements(_normal_half), 6), [
        0.0, -0.5871807286631439, -0.4360630597206321, 0.589866467859661,
        0.4668295294646726, 0.5935496356682739, -0.11096626572931167]),
    "lazy_walk": (LazyWalk(0.8, 6, drift=0.1), [
        0.0, -0.9, 0.20000000000000007, -0.7, 0.40000000000000013,
        -0.4999999999999999, -1.4]),
    "brownian": (Brownian(0.1, 0.6), [
        0.0, -0.3713657001465701, -0.2757904944358449, 0.37306431075900715,
        0.29524891842661016, 0.3753937506149727, -0.070181228629622]),
    "poisson": (PoissonCounting(1.5, 4.0, centered=True), [
        0.0, -0.6934684624251113, 0.13195336632797705, 0.22320286054157013,
        1.1848576488455502, -2.0]),
    "exp_brownian": (ExpSupermartingale(Brownian(0.1, 0.6), s=1.0, phi=PHI_G), [
        1.0, 0.6561501033392181, 0.686746195120862, 1.2499009532303091,
        1.0999326145485977, 1.1335947188200184, 0.6906091611436709]),
}


class TestStepDraws:
    @pytest.mark.parametrize("kind", list(PINNED_PATHS))
    def test_generate_pinned(self, kind):
        spec, values = PINNED_PATHS[kind]
        assert generate(spec, seed=2012, path_index=4).values.tolist() == values

    def test_poisson_pinned_times(self):
        spec = PINNED_PATHS["poisson"][0]
        assert generate(spec, seed=2012, path_index=4).times.tolist() == [
            0.0, 1.1289789749500743, 1.2453644224480154, 1.8511980929722867,
            1.8767615674362998, 4.0]

    @settings(max_examples=200, deadline=None)
    @given(p_move=st.sampled_from([1.0, 0.5, 0.0]) | st.floats(0.0, 1.0),
           drift=st.sampled_from([0.0, -0.1, 0.3]) | st.floats(-2.0, 2.0),
           u=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=30))
    def test_lazy_walk_steps_are_the_three_way_map(self, p_move, drift, u):
        # frozen oracle: +1 below half, -1 from 1 - half on, else 0, + drift;
        # u exactly at both cut points and one ulp below each
        half = p_move / 2.0
        cuts = [half, 1.0 - half]
        u = np.array(u + cuts + [np.nextafter(c, -1.0) for c in cuts])
        want = np.where(u < half, 1.0, np.where(
            u >= 1.0 - half, -1.0, 0.0)) + drift
        got = step_draws(LazyWalk(p_move, 5, drift))[2](u)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_generate_refuses_a_negative_index(self):
        for spec in (Brownian(0.1, 1.0), PoissonCounting(1.0, 2.0)):
            with pytest.raises(InvalidParameter):
                generate(spec, seed=2012, path_index=-1)

    @pytest.mark.parametrize("spec", [
        Brownian(0.1, 2.0), PoissonCounting(1.5, 4.0, centered=True)],
        ids=["brownian", "poisson"])
    def test_generate_past_the_hashed_indices(self, spec):
        # path_streams hashes indices below 2**32 itself; past them,
        # generate reads the stream of path_rng
        i = 2 ** 32 + 5
        rng = path_rng(2012, i)
        if isinstance(spec, Brownian):
            times, fill, steps = step_draws(spec)
            row = np.empty(times.size - 1)
            fill(rng, row)
            values = np.concatenate([[0.0], np.cumsum(steps(row))])
        else:
            jumps = poisson_jump_times(spec, rng)
            jumps = jumps[jumps < spec.horizon]
            times = np.concatenate([[0.0], jumps, [spec.horizon]])
            counts = np.concatenate([np.arange(jumps.size + 1.0),
                                     [jumps.size]])
            values = counts - spec.lam * times
        path = generate(spec, seed=2012, path_index=i)
        assert np.array_equal(path.times, times)
        assert np.array_equal(path.values, values)
        assert not np.array_equal(path.values,
                                  generate(spec, 2012, 5).values)

    @pytest.mark.parametrize("produce", [
        lambda spec: generate(spec, 3, 0),
        lambda spec: path_blocks(spec, 3, range(4)),
        lambda spec: verify_optional_stopping(spec, walk_region_pair(), 4, 3),
    ], ids=["generate", "path_blocks", "verify_optional_stopping"])
    @pytest.mark.parametrize("sampler", [
        lambda rng, n: rng.standard_normal(n + 1),
        lambda rng, n: rng.standard_normal((n, 1)),
    ], ids=["long", "column"])
    def test_wrong_shape_sampler_raises(self, produce, sampler):
        with pytest.raises(InvalidSpec, match="shape"):
            produce(IidSum(CustomIncrements(sampler), 300))


class TestIidSum:
    def test_bernoulli_increment_support(self):
        p = 0.3
        path = generate(IidSum(BernoulliIncrements(p), 200), seed=1)
        inc = np.diff(path.values)
        assert set(np.round(inc, 12)) <= {-p, 1.0 - p}

    def test_vproxy_counts_steps(self):
        path = generate(IidSum(UniformIncrements(), 10), seed=1)
        assert np.array_equal(path.vproxy, np.arange(11.0))

    def test_two_point_validation(self):
        with pytest.raises(InvalidSpec):
            generate(IidSum(TwoPointIncrements(1.0, 2.0, 0.5), 10), seed=1)


class TestPoisson:
    def test_mean_count(self):
        lam, horizon, n = 1.0, 10.0, 100_000
        spec = PoissonCounting(lam, horizon)
        total = 0.0
        for lo in range(0, n, 10_000):
            X, _ = path_blocks(spec, 42, range(lo, lo + 10_000))
            total += X[:, -1].sum()
        mean = total / n
        se = math.sqrt(lam * horizon / n)
        assert abs(mean - lam * horizon) <= 4.0 * se

    def test_counting_path_shape(self):
        p = generate(PoissonCounting(2.0, 10.0), seed=3, path_index=1)
        jumps = len(p.times) - 2
        assert p.values[-1] == jumps
        assert np.array_equal(p.vproxy, p.times)
        assert np.all(np.diff(p.values) >= 0)

    def test_centered_flag(self):
        raw = generate(PoissonCounting(2.0, 10.0), seed=3, path_index=1)
        cen = generate(PoissonCounting(2.0, 10.0, centered=True), seed=3,
                       path_index=1)
        assert np.allclose(cen.values, raw.values - 2.0 * raw.times)

    def test_scaled_standard_exponentials_are_the_exponential_draws(self):
        # drawing a block of rows into one buffer needs the in-place draw
        # to equal the scaled one that poisson_jump_times makes
        lam, buf = 1.7, np.empty(64)
        for i in range(200):
            want = path_rng(23, i).exponential(1.0 / lam, 64)
            path_rng(23, i).standard_exponential(out=buf)
            assert np.array_equal(buf * (1.0 / lam), want)


class TestExpSupermartingale:
    def test_starts_at_one(self):
        phi = make_phi(Gaussian(1.0))
        spec = ExpSupermartingale(Brownian(0.01, 1.0), s=0.7, phi=phi)
        path = generate(spec, seed=11)
        assert path.values[0] == 1.0

    def test_brownian_exponential_is_mean_one(self):
        # E[exp(W_t - t/2)] = 1 at every checkpoint
        # rows of generate(ExpSupermartingale(Brownian(0.02, 1.0), 1.0, phi))
        ph = float(np.asarray(make_phi(Gaussian(1.0)).phi(1.0)))
        n, chunk = 100_000, 10_000
        cols = [10, 20, 30, 40, 50]
        acc = np.zeros((n, len(cols)))
        for lo in range(0, n, chunk):
            X, V = path_blocks(Brownian(0.02, 1.0), 77, range(lo, lo + chunk))
            acc[lo:lo + chunk] = np.exp(1.0 * X - ph * V)[:, cols]
        for j in range(len(cols)):
            mean = acc[:, j].mean()
            se = acc[:, j].std(ddof=1) / math.sqrt(n)
            assert abs(mean - 1.0) <= 4.0 * se, (j, mean, se)

    def test_poisson_exponential_is_mean_one(self):
        lam = 1.0
        phi = make_phi(PoissonCentered(lam))
        s = math.log(2.0)
        horizon, n = 5.0, 50_000
        ph = float(np.asarray(phi.phi(s)))
        X, V = path_blocks(PoissonCounting(lam, horizon, centered=True), 13,
                           range(n))
        mean = np.exp(s * X[:, -1] - ph * V[:, -1]).mean()
        # terminal variance of exp(s X - phi(s) t): E Y^2 = exp((phi(2s)-2phi(s)) t)
        var = math.exp((2.0 * lam * (math.expm1(2 * s) - 2 * s) / 2
                        - 2 * lam * (math.expm1(s) - s)) * horizon) - 1.0
        se = math.sqrt(var / n)
        assert abs(mean - 1.0) <= 4.0 * se, (mean, se)


class TestMartingaleIncrements:
    def test_iid_and_brownian_mean_zero(self):
        n = 20_000
        for spec, cols in ((IidSum(UniformIncrements(), 100), (20, 80)),
                           (Brownian(0.01, 1.0), (30, 90))):
            t1, t2 = cols
            X, _ = path_blocks(spec, 21, range(n))
            vals = X[:, t2] - X[:, t1]
            se = vals.std(ddof=1) / math.sqrt(n)
            assert abs(vals.mean()) <= 4.0 * se

    def test_mgf_domination_of_increments(self):
        # E[exp(s (X_t2 - X_t1))] <= exp(phi(s) (V_t2 - V_t1)) + 4 se
        cases = [
            (IidSum(UniformIncrements(), 60), make_phi(Uniform24()), 2.0),
            (IidSum(BernoulliIncrements(0.3), 60),
             make_phi(__import__("crossbound").HoeffdingBernoulli(0.3)), 1.0),
            (Brownian(0.05, 3.0), make_phi(Gaussian(1.0)), 1.0),
        ]
        n = 20_000
        for spec, phi, s in cases:
            X, (V,) = path_blocks(spec, 33, range(n))
            t1, t2 = V.size // 3, V.size - 1
            dv = V[t2] - V[t1]
            w = np.array([math.exp(x) for x in s * (X[:, t2] - X[:, t1])])
            cap = math.exp(float(np.asarray(phi.phi(s))) * dv)
            se = w.std(ddof=1) / math.sqrt(n)
            assert w.mean() <= cap + 4.0 * se


class TestValidation:
    def test_invalid_specs(self):
        # a spec checks itself when built, so an invalid one never exists:
        # a missing check fails here rather than hangs in a draw
        two_point = lambda hi, lo: IidSum(TwoPointIncrements(hi, lo, 0.5), 5)
        for build in [
                lambda: IidSum(BernoulliIncrements(1.5), 10),
                lambda: LazyWalk(1.5, 10),
                lambda: PoissonCounting(0.0, 1.0),
                lambda: Brownian(0.0, 1.0),
                lambda: Brownian(math.nan, 1.0),
                lambda: Brownian(0.1, math.nan),
                lambda: Brownian(math.inf, 1.0),
                lambda: Brownian(0.1, math.inf),
                lambda: PoissonCounting(math.nan, 1.0),
                lambda: PoissonCounting(1.0, math.nan),
                lambda: PoissonCounting(math.inf, 1.0),
                lambda: PoissonCounting(1.0, math.inf),
                lambda: LazyWalk(1.0, 5, drift=math.nan),
                lambda: LazyWalk(1.0, 5, drift=math.inf),
                lambda: LazyWalk(1.0, 5, drift=-math.inf),
                lambda: two_point(math.inf, -0.5),
                lambda: two_point(math.nan, -0.5),
                lambda: two_point(1.0, -math.inf),
                lambda: two_point(1.0, math.nan),
                lambda: ExpSupermartingale(PoissonCounting(1.0, math.inf),
                                           s=0.5,
                                           phi=make_phi(PoissonCentered(1.0))),
                lambda: ExpSupermartingale(Brownian(0.1, 1.0), s=5.0,
                                           phi=make_phi(Bernstein(1.0))),
                # at s = 0, Y is identically 1 (its ray divided by s)
                lambda: ExpSupermartingale(Brownian(0.01, 1.0), s=0.0,
                                           phi=make_phi(Gaussian(1.0))),
                lambda: dataclasses.replace(LazyWalk(1.0, 5), n=0),
                # n is an integer >= 1: never a fraction, inf, nan or a bool
                lambda: LazyWalk(1.0, 2.5), lambda: LazyWalk(1.0, math.inf),
                lambda: LazyWalk(1.0, math.nan), lambda: LazyWalk(1.0, True),
                lambda: IidSum(UniformIncrements(), 5.0),
                # a Brownian horizon is a whole number (>= 1) of dt steps
                lambda: Brownian(0.3, 1.0), lambda: Brownian(0.5, 0.1),
                # fields are typed: a string or a bool is no float, and a
                # number no bool
                lambda: BernoulliIncrements("0.3"),
                lambda: TwoPointIncrements("1", "0", 0.5),
                lambda: Brownian(dt=True, horizon=2),
                lambda: PoissonCounting(1.0, 1.0, centered=1),
                lambda: LazyWalk(1.0, 5, drift="0"),
                lambda: ExpSupermartingale(Brownian(0.1, 1.0), s="0.5",
                                           phi=make_phi(Gaussian(1.0)))]:
            with pytest.raises(InvalidSpec):
                build()

    def test_numeric_fields_take_ints_and_numpy_scalars(self):
        assert Brownian(1, 2).dt == 1
        assert BernoulliIncrements(np.float32(0.25)).p == 0.25
        assert TwoPointIncrements(np.int64(1), 0, 0.5).hi == 1
        assert LazyWalk(1, np.int64(5), drift=np.float64(0.1)).n == 5
        assert PoissonCounting(np.float64(1.0), 2,
                               centered=np.bool_(True)).centered
        assert ExpSupermartingale(Brownian(1, 2), s=1,
                                  phi=make_phi(Gaussian(1.0))).s == 1

    def test_uniform_grid(self):
        V = step_draws(Brownian(0.25, 1.0))[0]
        assert np.allclose(V, [0.0, 0.25, 0.5, 0.75, 1.0])
        path = generate(Brownian(0.25, 1.0), seed=1)
        assert np.array_equal(path.times, V) and np.array_equal(path.vproxy, V)
        # 0.9 / 0.3 is 3 up to rounding: a whole number of steps
        assert np.allclose(step_draws(Brownian(0.3, 0.9))[0],
                           [0.0, 0.3, 0.6, 0.9])
