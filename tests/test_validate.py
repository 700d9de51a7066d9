import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossbound import (
    Brownian,
    ContinuityRegion,
    Custom,
    DomainViolation,
    ExpSupermartingale,
    Gaussian,
    IidSum,
    InvalidParameter,
    LazyWalk,
    PoissonCounting,
    RegionPair,
    Uniform24,
    UniformIncrements,
    clopper_pearson,
    generate,
    halving_allowance,
    make_phi,
    optimized_line_bound,
    sweep,
    verify_optional_stopping,
)
from crossbound import presets, stopping, validate
from crossbound.presets import (
    choose_horizon_by_doubling,
    exact_sup_probability,
    run_expexact_brownian,
    run_optional_stopping,
    run_theorem9_all,
    walk_region_pair,
)
from crossbound.validate import (
    EventSpec,
    _event_rows,
    _RowStats,
    _verdict,
    stopping_rows,
)


class TestClopperPearson:
    def test_zero_successes_closed_form(self):
        lo, hi = clopper_pearson(0, 100, 0.10)
        assert lo == 0.0
        assert hi == pytest.approx(1.0 - 0.05 ** 0.01, rel=1e-12)
        assert hi == pytest.approx(0.02951304960703993, rel=1e-10)

    def test_all_successes(self):
        lo, hi = clopper_pearson(100, 100, 0.10)
        assert hi == 1.0
        assert lo == pytest.approx(0.05 ** 0.01, rel=1e-12)

    def test_half_successes_oracle(self):
        # Beta-quantile oracle computed independently before the build
        lo, hi = clopper_pearson(50, 100, 0.05)
        assert lo == pytest.approx(0.39832112950330106, rel=1e-10)
        assert hi == pytest.approx(0.6016788704966989, rel=1e-10)

    def test_interval_brackets_p_hat(self):
        for k, n in ((1, 40), (17, 60), (59, 60)):
            lo, hi = clopper_pearson(k, n, 0.01)
            assert lo <= k / n <= hi

    def test_equals_scipy_stats_beta_ppf(self):
        # the Beta quantiles come from scipy.special.betaincinv directly;
        # scipy.stats.beta.ppf is the reference, bit for bit
        from scipy import stats
        for n in (1, 2, 7, 60, 1000, 50_000, 200_000):
            ks = sorted({0, 1, n // 3, n // 2, n - 1, n})
            for k in ks:
                for alpha in (0.01, 0.05, 0.1, 0.5):
                    lo = 0.0 if k == 0 else float(
                        stats.beta.ppf(alpha / 2.0, k, n - k + 1))
                    hi = 1.0 if k == n else float(
                        stats.beta.ppf(1.0 - alpha / 2.0, k + 1, n - k))
                    assert clopper_pearson(k, n, alpha) == (lo, hi), (k, n,
                                                                      alpha)

    def test_validation(self):
        with pytest.raises(DomainViolation):
            clopper_pearson(-1, 10, 0.05)
        with pytest.raises(DomainViolation):
            clopper_pearson(11, 10, 0.05)
        with pytest.raises(DomainViolation):
            clopper_pearson(1, 10, 1.5)


class TestVerdictRule:
    def test_violated_iff_ci_lo_above_bound(self):
        assert _verdict(0.31, 0.33, 0.30) == "violated"
        assert _verdict(0.29, 0.33, 0.30) != "violated"

    def test_inconclusive_when_interval_dwarfs_bound(self):
        assert _verdict(0.0, 0.2, 0.05) == "inconclusive"
        assert _verdict(0.0, 0.02, 0.05) == "holds"

    def test_nan_bound_passes_through(self):
        assert _verdict(0.1, 0.2, math.nan) == "holds"


class TestEventSpec:
    def test_kind_validated(self):
        with pytest.raises(InvalidParameter):
            EventSpec(kind="wiggle")
        with pytest.raises(InvalidParameter):
            EventSpec(kind="vee", side="two_sided")
        with pytest.raises(InvalidParameter):
            EventSpec(kind="stopping")   # stopping_rows builds those rows
        with pytest.raises(InvalidParameter):
            EventSpec(kind="line", stride=3)

    @pytest.mark.parametrize("field, value", [
        ("stride", 2.0), ("stride", True)])
    def test_steps_and_stride_must_be_whole(self, field, value):
        # a float reached the chunk's slice only after its paths were
        # drawn, and a bool counted as 1
        with pytest.raises(InvalidParameter, match=field):
            EventSpec(kind="line", gamma=1.0, v_tau=1.0, **{field: value})
        ok = EventSpec(kind="line", gamma=1.0, v_tau=1.0,
                       **{field: np.int64(2)})
        assert sweep(IidSum(UniformIncrements(), 50), [ok], 20, seed=1)

    @pytest.mark.parametrize("field", ["gamma", "v_tau", "slope", "eta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_refused(self, field, value):
        for kind in ("line", "vee", "eta_ray", "sup_level"):
            with pytest.raises(InvalidParameter, match=field):
                EventSpec(kind=kind, **{"gamma": 2.0, field: value})

    @pytest.mark.parametrize("gamma", [0.0, -1.0])
    def test_sup_level_gamma_must_be_positive(self, gamma):
        # log(gamma) would fail in a worker, after the paths were drawn
        with pytest.raises(InvalidParameter, match="gamma"):
            EventSpec(kind="sup_level", gamma=gamma)
        EventSpec(kind="line", gamma=gamma)


class TestEstimateCrossing:
    def test_doob_brownian_near_half(self):
        phi = make_phi(Gaussian(1.0))
        spec = ExpSupermartingale(Brownian(dt=2e-3, horizon=15.0), 1.0, phi)
        ev = EventSpec(kind="sup_level", gamma=2.0, bound=0.5, label="doob")
        rep = sweep(spec, [ev], n_paths=20_000, seed=40)[0]
        assert 0.45 <= rep.p_hat <= 0.51
        assert rep.verdict == "holds"
        assert rep.ci_lo <= rep.p_hat <= rep.ci_hi

    def test_rare_event_zero_crossings(self):
        # optimized vee bound e^{-60}: expect literally no crossings
        phi = make_phi(Uniform24())
        bound = optimized_line_bound(phi, 1.0, 10.0).bound
        assert bound == pytest.approx(math.exp(-60.0), rel=1e-9)
        ev = EventSpec(kind="vee", gamma=1.0, v_tau=10.0, bound=bound,
                       label="rare")
        rep = sweep(IidSum(UniformIncrements(), 100), [ev], n_paths=2000,
                    seed=41)[0]
        assert rep.n_crossed == 0
        assert rep.verdict != "violated"


class TestStoppingRow:
    # run_optional_stopping(paths=4000, seed=42) as sweep's stopping branch
    # built it at 500 steps, every field but bound (nan) and the runtime: no
    # path survives 500 steps, so the 10 000-step walks give the same rows
    PINNED = [
        {"label": "walk_martingale", "n_paths": 4000, "n_crossed": 4000,
         "p_hat": 1.0, "ci_lo": 0.998676297526376, "ci_hi": 1.0,
         "verdict": "holds", "truncation_fraction": 0.0, "alpha": 0.01,
         "seed": 42, "schema_version": "1",
         "extra": {"n_paths": 4000, "mean_inner": -0.06,
                   "se_inner": 0.04743060631705967, "mean_outer": 0.05,
                   "se_outer": 0.07906287203506845, "mean_diff": 0.11,
                   "se_diff": 0.06387875330484263, "truncated_inner": 0.0,
                   "truncated_outer": 0.0, "kind": "martingale",
                   "ci_multiple": 3.0, "verdict": "holds"}},
        {"label": "walk_supermartingale", "n_paths": 4000, "n_crossed": 4000,
         "p_hat": 1.0, "ci_lo": 0.998676297526376, "ci_hi": 1.0,
         "verdict": "holds", "truncation_fraction": 0.0, "alpha": 0.01,
         "seed": 42, "schema_version": "1",
         "extra": {"n_paths": 4000, "mean_inner": -1.1985750000000004,
                   "se_inner": 0.05109836472983519,
                   "mean_outer": -2.639975000000001,
                   "se_outer": 0.07479782619531558,
                   "mean_diff": -1.4414000000000007,
                   "se_diff": 0.05832317856812653, "truncated_inner": 0.0,
                   "truncated_outer": 0.0, "kind": "supermartingale",
                   "ci_multiple": 3.0, "verdict": "holds"}},
    ]

    def test_preset_rows_pinned(self):
        rows = run_optional_stopping(paths=4000, seed=42)
        assert len(rows) == len(self.PINNED)
        for row, want in zip(rows, self.PINNED):
            got = row.to_dict()
            assert got.pop("runtime_seconds") >= 0.0
            assert math.isnan(got.pop("bound"))
            assert got == want

    def test_preset_seeds_each_path_once(self, monkeypatch):
        # both rows read path_rng(42, i): one shared pass sets up each
        # stream once, not once per row
        streams = stopping.path_streams
        made = []

        def counting(*args):
            for gen in streams(*args):
                made.append(gen)
                yield gen

        monkeypatch.setattr(stopping, "path_streams", counting)
        rows = run_optional_stopping(paths=4000, seed=42)
        assert len(made) == 4000
        # each row reports the shared pass's measured time, not a share
        assert rows[0].runtime_seconds == rows[1].runtime_seconds > 0.0

    def test_rows_equal_one_row_each(self):
        pair = walk_region_pair()
        checks = [(LazyWalk(1.0, 300), "martingale", "a"),
                  (LazyWalk(1.0, 300, drift=-0.1), "supermartingale", "b")]
        shared = stopping_rows(checks, pair, 500, seed=5, alpha=0.05)
        for row, (spec, kind, label) in zip(shared, checks):
            (one,) = stopping_rows([(spec, kind, label)], pair, 500, seed=5,
                                   alpha=0.05)
            assert (dataclasses.replace(row, runtime_seconds=0.0)
                    == dataclasses.replace(one, runtime_seconds=0.0))

    def test_no_rows_draw_nothing(self, monkeypatch):
        monkeypatch.setattr(stopping, "path_streams", None)
        assert stopping_rows([], walk_region_pair(), 100, seed=1) == []

    @pytest.mark.filterwarnings("ignore:truncation fraction")
    def test_counts_outer_exits(self):
        (row,) = stopping_rows([(LazyWalk(1.0, 30), "martingale", "short")],
                               walk_region_pair(), 500, seed=3, alpha=0.05)
        k = round(500 * (1.0 - row.extra["truncated_outer"]))
        assert 0 < k < 500 and row.n_crossed == k and row.p_hat == k / 500
        assert (row.ci_lo, row.ci_hi) == clopper_pearson(k, 500, 0.05)
        assert row.label == "short" and row.alpha == 0.05

    @pytest.mark.parametrize("n_paths, alpha, exc", [
        (0, 0.01, InvalidParameter), (100, 0.0, DomainViolation),
        (100, 1.5, DomainViolation)])
    def test_bad_settings_raise_before_drawing(self, monkeypatch, n_paths,
                                               alpha, exc):
        def no_draws(*args):
            raise AssertionError("a path was drawn")

        monkeypatch.setattr(stopping, "path_streams", no_draws)
        with pytest.raises(exc):
            stopping_rows([(LazyWalk(1.0, 100), "martingale", "walk")],
                          walk_region_pair(), n_paths, seed=1, alpha=alpha)


WALK_EVENT = EventSpec(kind="line", gamma=1.0, v_tau=1.0)
WALK_ROW = [(LazyWalk(1.0, 50), "martingale", "walk")]   # one stopping row
# each takes a path or thread count and must refuse a bad one before drawing
COUNTED_RUNS = {
    "sweep_n_paths": lambda n: sweep(LazyWalk(1.0, 50), [WALK_EVENT], n),
    "sweep_threads": lambda n: sweep(LazyWalk(1.0, 50), [WALK_EVENT], 100,
                                     threads=n),
    "stopping_row": lambda n: stopping_rows(WALK_ROW, walk_region_pair(), n,
                                            seed=1),
    "stopping_threads": lambda n: run_optional_stopping(paths=100, threads=n),
    "verify_optional_stopping": lambda n: verify_optional_stopping(
        LazyWalk(1.0, 50), walk_region_pair(), n, seed=1),
    "verify_shared_stopping": lambda n: stopping.verify_shared_stopping(
        [(LazyWalk(1.0, 50), "martingale")], walk_region_pair(), n, seed=1),
    "horizon_paths": lambda n: choose_horizon_by_doubling([2.0], n, t0=1.0),
}


class TestWholeCounts:
    @pytest.mark.parametrize("value", [0, -1, 2.5, 100.0, True])
    @pytest.mark.parametrize("run", sorted(COUNTED_RUNS))
    def test_bad_count_raises_before_drawing(self, monkeypatch, run, value):
        # a bool ran as a count of 1 (a report read n_paths true), and a
        # float failed inside numpy or, as a thread count, ran
        def no_draws(*args):
            raise AssertionError("a path was drawn")

        for module in (validate, stopping):
            monkeypatch.setattr(module, "path_blocks", no_draws)
        monkeypatch.setattr(stopping, "path_streams", no_draws)
        with pytest.raises(InvalidParameter, match="whole number"):
            COUNTED_RUNS[run](value)

    @pytest.mark.filterwarnings("ignore:truncation fraction")
    @pytest.mark.parametrize("run", sorted(COUNTED_RUNS))
    def test_numpy_integer_counts_run(self, run):
        COUNTED_RUNS[run](np.int64(2))

    @pytest.mark.filterwarnings("ignore:truncation fraction")
    def test_numpy_count_is_reported_as_an_int(self):
        # an np.int64 count would reach the JSON report as a string
        row = sweep(LazyWalk(1.0, 50), [WALK_EVENT], np.int64(20))[0]
        (stop,) = stopping_rows(WALK_ROW, walk_region_pair(), np.int64(20),
                                seed=1)
        for rec in (row.to_dict(), stop.to_dict(), stop.extra):
            assert type(rec["n_paths"]) is int


# each takes a seed, which must be a whole number, refused before drawing
SEEDED_RUNS = {
    "sweep": lambda seed: sweep(LazyWalk(1.0, 50), [WALK_EVENT], 20,
                                seed=seed),
    "stopping_row": lambda seed: stopping_rows(WALK_ROW, walk_region_pair(),
                                               20, seed=seed),
    "theorem9_all": lambda seed: run_theorem9_all(paths=20, seed=seed,
                                                  threads=1),
    "optional_stopping": lambda seed: run_optional_stopping(paths=20,
                                                            seed=seed),
    "expexact_brownian": lambda seed: run_expexact_brownian(
        paths=20, seed=seed, dt=0.1, t0=1.0, threads=1),
    "generate": lambda seed: generate(LazyWalk(1.0, 50), seed),
}


class TestWholeSeeds:
    @pytest.mark.parametrize("seed", [2.5, True, "7"])
    @pytest.mark.parametrize("run", sorted(SEEDED_RUNS))
    def test_bad_seed_raises_before_drawing(self, monkeypatch, run, seed):
        # 2.5 drew seed 2's streams and True seed 1's, each reported as given
        def no_draws(*args):
            raise AssertionError("a path was drawn")

        for module in (validate, stopping):
            monkeypatch.setattr(module, "path_blocks", no_draws)
        monkeypatch.setattr(stopping, "path_streams", no_draws)
        with pytest.raises(InvalidParameter, match="whole number"):
            SEEDED_RUNS[run](seed)

    @pytest.mark.filterwarnings("ignore:truncation fraction")
    @pytest.mark.parametrize("run", ["sweep", "stopping_row", "theorem9_all",
                                     "optional_stopping", "expexact_brownian"])
    def test_numpy_seed_runs_as_its_int(self, run):
        # an np.int64 seed reached the JSON report as a string
        got, want = SEEDED_RUNS[run](np.int64(7)), SEEDED_RUNS[run](7)
        assert all(type(rep.to_dict()["seed"]) is int for rep in got)
        assert [(r.seed, r.n_crossed, r.extra) for r in got] == \
            [(r.seed, r.n_crossed, r.extra) for r in want]


class TestTilt:
    @pytest.mark.filterwarnings("ignore:truncation fraction")
    def test_phi_is_evaluated_once_per_spec(self):
        # generate, a sweep of several chunks and a harvest pass all read
        # the spec's tilt, evaluated when the spec was built
        calls = []

        def phi(s):
            calls.append(s)
            return np.square(s) / 2.0

        gaussian = make_phi(Custom(phi, label="counting"))
        calls.clear()
        spec = ExpSupermartingale(Brownian(dt=0.01, horizon=1.0), 1.0,
                                  gaussian)
        paths = [generate(spec, 3, i) for i in range(50)]
        events = [EventSpec(kind="sup_level", gamma=g) for g in (1.5, 2.0)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(validate, "_CHUNK_ELEMENTS", 1)   # 16-row chunks
            reps = sweep(spec, events, 50, seed=3, threads=1)
        pair = RegionPair(inner=ContinuityRegion.constant(0.8, 1.25, 3.0),
                          outer=ContinuityRegion.constant(0.5, 2.0, 3.0))
        verify_optional_stopping(spec, pair, 50, seed=3)
        assert calls == [1.0]
        # the tilt is the one generate applies
        assert [r.n_crossed for r in reps] == [
            sum(bool(p.values.max() >= g) for p in paths) for g in (1.5, 2.0)]


class TestSweep:
    def test_empty_events(self):
        assert sweep(Brownian(0.01, 1.0), [], 100, seed=1) == []

    def test_monotone_in_gamma_on_shared_paths(self):
        phi = make_phi(Gaussian(1.0))
        spec = ExpSupermartingale(Brownian(dt=5e-3, horizon=10.0), 1.0, phi)
        events = [EventSpec(kind="sup_level", gamma=g, bound=1.0 / g,
                            label=f"g{g}") for g in (0.5, 1.0, 2.0, 4.0)]
        reps = sweep(spec, events, n_paths=5000, seed=43)
        phats = [r.p_hat for r in reps]
        assert phats == sorted(phats, reverse=True)
        assert phats[0] == 1.0  # gamma = 0.5 < Y_0

    def test_cache_matches_fresh_runs(self):
        spec = IidSum(UniformIncrements(), 80)
        events = [EventSpec(kind="line", side="upper", gamma=0.3, v_tau=10.0,
                            slope=0.15, bound=0.5, label="a"),
                  EventSpec(kind="eta_ray", side="upper", gamma=0.2, eta=1.0,
                            bound=0.5, label="b")]
        batch = sweep(spec, events, 3000, seed=44)
        singles = [sweep(spec, [ev], 3000, seed=44)[0] for ev in events]
        for b, s in zip(batch, singles):
            assert b.p_hat == s.p_hat
            assert b.n_crossed == s.n_crossed

    def test_thread_count_does_not_change_counts(self):
        spec = Brownian(dt=5e-3, horizon=5.0)
        ev = EventSpec(kind="line", side="upper", gamma=1.0, v_tau=1.0,
                       slope=0.5, bound=0.61, label="t")
        a = sweep(spec, [ev], 2000, seed=45, threads=1)[0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(validate, "_CHUNK_ELEMENTS", 64 * 1001)  # 64-row chunks
            b = sweep(spec, [ev], 2000, seed=45, threads=2)[0]
        assert a.n_crossed == b.n_crossed

    def test_report_roundtrip_fields(self):
        spec = IidSum(UniformIncrements(), 50)
        ev = EventSpec(kind="vee", gamma=0.5, v_tau=5.0, bound=0.2, label="v")
        rep = sweep(spec, [ev], 500, seed=46)[0]
        rec = rep.to_dict()
        assert rec["schema_version"] == "1"
        assert rec["label"] == "v"
        assert 0.0 <= rec["p_hat"] <= 1.0
        row = rep.csv_row()
        assert row.split(",")[1] == "v"

    @pytest.mark.filterwarnings("ignore:truncation fraction")
    def test_csv_bytes(self):
        # a sweep row with a nan bound and a stopping row, each field but
        # extra in order: floats to 17 significant digits, runtime_seconds
        # to 3 decimals
        ev = EventSpec(kind="line", gamma=1.0, v_tau=1.0, label="walk_line")
        (row,) = sweep(LazyWalk(1.0, 50), [ev], 30, seed=5, alpha=0.1)
        (stop,) = stopping_rows(WALK_ROW, walk_region_pair(), 30, seed=1)
        assert validate.ValidationReport.csv_header() == (
            "schema_version,label,n_paths,n_crossed,p_hat,ci_lo,ci_hi,bound,"
            "verdict,truncation_fraction,runtime_seconds,alpha,seed")
        assert dataclasses.replace(row, runtime_seconds=2.5).csv_row() == (
            "1,walk_line,30,26,0.8666666666666667,0.72038483410651788,"
            "0.95314517308539926,nan,holds,0.1333333333333333,2.500,"
            "0.10000000000000001,5")
        assert dataclasses.replace(stop, runtime_seconds=0.0123).csv_row() == (
            "1,walk,30,29,0.96666666666666667,0.77724893497556624,"
            "0.99983292923042422,nan,holds,0.033333333333333333,0.012,0.01,1")

    def test_prefix_and_stride_events_match_sliced_paths(self):
        # 60 rows of 10 001 grid points: both views are long enough for the
        # blockwise row reduction
        spec = Brownian(dt=1e-3, horizon=10.0)
        cases = [(stride, side) for stride in (1, 2)
                 for side in ("upper", "lower")]
        events = [EventSpec(kind="line", side=side, gamma=1.5, v_tau=1.0,
                            slope=0.2, stride=stride)
                  for stride, side in cases]
        reps = sweep(spec, events, 60, seed=47, threads=1)
        paths = [generate(spec, 47, i) for i in range(60)]
        c = (1.5 - 0.2) * 1.0
        for (stride, side), rep in zip(cases, reps):
            want = 0
            for p in paths:
                x, v = p.values[::stride], p.vproxy[::stride]
                want += (bool((x - 0.2 * v).max() >= c) if side == "upper"
                         else bool((x + 0.2 * v).min() <= -c))
            assert rep.n_crossed == want, (stride, side)
        assert 0 < reps[0].n_crossed < 60

    def test_steps_and_stride_need_a_uniform_grid(self):
        ev = EventSpec(kind="line", gamma=1.0, v_tau=1.0, stride=2)
        with pytest.raises(InvalidParameter):
            sweep(PoissonCounting(1.0, 5.0), [ev], 10, seed=1)

    @pytest.mark.parametrize("spec, ev", [
        (ExpSupermartingale(Brownian(0.01, 1.0), 1.0, make_phi(Gaussian(1.0))),
         EventSpec(kind="line", gamma=1.0, v_tau=1.0)),
        (ExpSupermartingale(Brownian(0.01, 1.0), 1.0, make_phi(Gaussian(1.0))),
         EventSpec(kind="vee", gamma=1.0, v_tau=1.0)),
        (ExpSupermartingale(IidSum(UniformIncrements(), 50), 0.5,
                            make_phi(Uniform24())),
         EventSpec(kind="eta_ray", gamma=0.2, eta=1.0)),
        (Brownian(0.01, 1.0), EventSpec(kind="sup_level", gamma=2.0)),
        (PoissonCounting(1.0, 5.0), EventSpec(kind="sup_level", gamma=2.0)),
    ], ids=["line_on_exp", "vee_on_exp", "eta_ray_on_exp", "sup_on_brownian",
            "sup_on_poisson"])
    def test_event_the_spec_cannot_carry_raises_before_drawing(
            self, monkeypatch, spec, ev):
        # a line on Y = exp(s X - phi(s) V) would be counted on X
        def no_draws(*args):
            raise AssertionError("a path was drawn")

        monkeypatch.setattr("crossbound.validate.path_blocks", no_draws)
        ok = EventSpec(kind="sup_level" if ev.kind != "sup_level" else "line",
                       gamma=2.0, v_tau=1.0)
        with pytest.raises(InvalidParameter, match=ev.kind):
            sweep(spec, [ok, ev], 100, seed=1)

    def test_poisson_sweep_matches_per_path_loop(self):
        spec = PoissonCounting(lam=2.0, horizon=5.0, centered=True)
        events = [EventSpec(kind="line", side="upper", gamma=1.0, v_tau=1.0,
                            slope=0.5),
                  EventSpec(kind="line", side="lower", gamma=0.5, v_tau=2.0,
                            slope=0.3),
                  EventSpec(kind="vee", side="upper", gamma=0.8, v_tau=2.0),
                  EventSpec(kind="eta_ray", side="lower", gamma=0.4, eta=1.0)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(validate, "_CHUNK_ELEMENTS", 50 * 12)  # 50-row chunks
            reps = sweep(spec, events, 300, seed=48, threads=2)
        want = [0] * len(events)
        for i in range(300):
            path = generate(spec, 48, i)
            stats = _RowStats(path.values[None, :], path.vproxy[None, :])
            for j, ev in enumerate(events):
                want[j] += bool(_event_rows(ev.ray(None), stats)[0])
        assert [r.n_crossed for r in reps] == want
        assert all(0 < k < 300 for k in want)

    @settings(max_examples=12, deadline=None)
    @given(spec=st.sampled_from([IidSum(UniformIncrements(), 60),
                                 PoissonCounting(1.5, 8.0, centered=True)]),
           threads=st.sampled_from([1, 2]), elements=st.integers(1, 5000),
           seed=st.integers(0, 2 ** 32))
    def test_counts_do_not_depend_on_threads_or_chunks(self, spec, threads,
                                                       elements, seed):
        events = [EventSpec(kind="line", side="two_sided", gamma=0.4,
                            v_tau=5.0, slope=0.2),
                  EventSpec(kind="vee", side="lower", gamma=0.3, v_tau=4.0)]
        ref = sweep(spec, events, 150, seed=seed, threads=1)
        with pytest.MonkeyPatch.context() as mp:
            # chunks of 16 to 81 rows of 61 points, or 16 to 357 Poisson rows
            mp.setattr(validate, "_CHUNK_ELEMENTS", elements)
            got = sweep(spec, events, 150, seed=seed, threads=threads)
        assert [r.n_crossed for r in got] == [r.n_crossed for r in ref]


class TestExpexactBrownian:
    @pytest.mark.parametrize("t0, fine, coarse, horizon", [
        (30.0, [251, 190, 102], [243, 189, 101], 30.0),
        # reaches the cap 8 t0: the mass beyond T = 2 is 0.091 at gamma = 2,
        # against a half-width of 0.063
        (0.5, [234, 167, 74], [225, 166, 72], 4.0),
    ])
    def test_counts_and_horizon_pinned(self, t0, fine, coarse, horizon):
        # pinned to the counts of the dedicated kernel that sweep replaced
        reps = run_expexact_brownian(paths=400, seed=5, dt=1e-2, t0=t0,
                                     threads=2)
        assert [r.n_crossed for r in reps] == fine
        assert [round(r.extra["p_coarse"] * 400) for r in reps] == coarse
        assert {r.extra["horizon"] for r in reps} == {horizon}


class TestHorizonRule:
    GAMMAS = (1.5, 2.0, 4.0)

    def test_exact_sup_probability_at_30(self):
        # p_T at criterion 1's horizon
        got = [round(exact_sup_probability(g, 30.0), 5) for g in self.GAMMAS]
        assert got == [0.66655, 0.49983, 0.24977]

    def test_exact_sup_probability_limits_and_growth(self):
        for g in self.GAMMAS:
            assert abs(exact_sup_probability(g, 1e4) - 1.0 / g) <= 1e-12
            p = [exact_sup_probability(g, T)
                 for T in (0.01, 0.1, 1.0, 4.0, 30.0, 240.0)]
            assert all(a < b for a, b in zip(p, p[1:])), (g, p)
        for g in (0.5, 1.0):
            assert exact_sup_probability(g, 30.0) == 1.0

    @pytest.mark.parametrize("paths, t0, want", [
        (200_000, 30.0, 30.0), (3000, 30.0, 30.0), (400, 0.5, 4.0)])
    def test_rule_picks_the_run_horizons(self, paths, t0, want):
        assert choose_horizon_by_doubling(self.GAMMAS, paths, t0=t0) == want

    @settings(max_examples=30, deadline=None)
    @given(paths=st.integers(1, 10 ** 9), t0=st.floats(1e-3, 1e3),
           gamma=st.floats(1e-3, 1e3), alpha=st.floats(1e-6, 0.5))
    def test_rule_returns_a_doubling_of_t0(self, paths, t0, gamma, alpha):
        T = choose_horizon_by_doubling([gamma], paths, t0=t0, alpha=alpha)
        assert T in (t0, 2 * t0, 4 * t0, 8 * t0)
        # gamma <= 1 is crossed at t = 0, so no mass lies beyond t0
        assert gamma > 1.0 or T == t0

    def test_draws_no_path(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a path was drawn")

        monkeypatch.setattr(validate, "path_blocks", no_draws)
        assert choose_horizon_by_doubling(self.GAMMAS, 400, t0=0.5) == 4.0

    @pytest.mark.parametrize("exc, kwargs", [
        (DomainViolation, dict(alpha=0.0)),
        (DomainViolation, dict(alpha=1.0)),
        (DomainViolation, dict(alpha=math.nan)),
        (InvalidParameter, dict(gammas=[2.0, 0.0])),
        (InvalidParameter, dict(gammas=[-1.0])),
        (InvalidParameter, dict(gammas=[math.nan])),
        (InvalidParameter, dict(t0=0.0)),
        (InvalidParameter, dict(t0=-1.0)),
        (InvalidParameter, dict(t0=math.inf)),
        (InvalidParameter, dict(t0=math.nan)),
    ], ids=["alpha_0", "alpha_1", "alpha_nan", "gamma_0", "gamma_neg",
            "gamma_nan", "t0_0", "t0_neg", "t0_inf", "t0_nan"])
    def test_bad_input_raises_before_any_arithmetic(self, monkeypatch, exc,
                                                    kwargs):
        def no_arithmetic(*args):
            raise AssertionError("p_T was computed")

        monkeypatch.setattr(presets, "exact_sup_probability", no_arithmetic)
        args = dict(gammas=self.GAMMAS, paths=400, t0=30.0, alpha=0.01)
        with pytest.raises(exc):
            choose_horizon_by_doubling(**{**args, **kwargs})


class TestHalvingAllowance:
    def test_richardson_factor(self):
        assert halving_allowance(0.5, 0.5) == 0.0
        est = halving_allowance(0.50, 0.49)
        assert est == pytest.approx(0.01 / (math.sqrt(2.0) - 1.0), rel=1e-12)

    def test_never_negative(self):
        assert halving_allowance(0.4, 0.5) == 0.0
