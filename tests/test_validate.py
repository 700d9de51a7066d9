import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossbound import (
    Brownian,
    DomainViolation,
    ExpSupermartingale,
    Gaussian,
    IidSum,
    InvalidParameter,
    LazyWalk,
    PoissonCounting,
    Uniform24,
    UniformIncrements,
    clopper_pearson,
    generate,
    halving_allowance,
    make_phi,
    optimized_line_bound,
    sweep,
)
from crossbound import stopping
from crossbound.presets import (
    run_expexact_brownian,
    run_optional_stopping,
    walk_region_pair,
)
from crossbound.validate import (
    EventSpec,
    _event_rows,
    _RowStats,
    _verdict,
    stopping_row,
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
            EventSpec(kind="stopping")   # stopping_row builds those rows
        with pytest.raises(InvalidParameter):
            EventSpec(kind="line", stride=3)

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
            one = stopping_row(spec, pair, 500, seed=5, kind=kind,
                               label=label, alpha=0.05)
            assert (dataclasses.replace(row, runtime_seconds=0.0)
                    == dataclasses.replace(one, runtime_seconds=0.0))

    def test_no_rows_draw_nothing(self, monkeypatch):
        monkeypatch.setattr(stopping, "path_streams", None)
        assert stopping_rows([], walk_region_pair(), 100, seed=1) == []

    @pytest.mark.filterwarnings("ignore:truncation fraction")
    def test_counts_outer_exits(self):
        row = stopping_row(LazyWalk(1.0, 30), walk_region_pair(), 500,
                           seed=3, label="short", alpha=0.05)
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
            stopping_row(LazyWalk(1.0, 100), walk_region_pair(), n_paths,
                         seed=1, alpha=alpha)


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
        b = sweep(spec, [ev], 2000, seed=45, threads=2, chunk_size=64)[0]
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


    def test_prefix_and_stride_events_match_sliced_paths(self):
        # 60 rows of 10 001 grid points: every view but the 3-step prefix
        # is long enough for the blockwise row reduction
        spec = Brownian(dt=1e-3, horizon=10.0)
        cases = [(steps, stride, side) for steps in (None, 9000, 3)
                 for stride in (1, 2) for side in ("upper", "lower")]
        events = [EventSpec(kind="line", side=side, gamma=1.5, v_tau=1.0,
                            slope=0.2, steps=steps, stride=stride)
                  for steps, stride, side in cases]
        reps = sweep(spec, events, 60, seed=47, threads=1)
        paths = [generate(spec, 47, i) for i in range(60)]
        c = (1.5 - 0.2) * 1.0
        for (steps, stride, side), rep in zip(cases, reps):
            stop = None if steps is None else steps + 1
            want = 0
            for p in paths:
                x, v = p.values[:stop:stride], p.vproxy[:stop:stride]
                want += (bool((x - 0.2 * v).max() >= c) if side == "upper"
                         else bool((x + 0.2 * v).min() <= -c))
            assert rep.n_crossed == want, (steps, stride, side)
        assert 0 < reps[0].n_crossed < 60

    def test_steps_and_stride_need_a_uniform_grid(self):
        ev = EventSpec(kind="line", gamma=1.0, v_tau=1.0, stride=2)
        with pytest.raises(InvalidParameter):
            sweep(PoissonCounting(1.0, 5.0), [ev], 10, seed=1)
        for steps in (0, 51):
            ev = EventSpec(kind="line", gamma=1.0, v_tau=1.0, steps=steps)
            with pytest.raises(InvalidParameter):
                sweep(IidSum(UniformIncrements(), 50), [ev], 10, seed=1)

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

    @pytest.mark.parametrize("chunk_size", [0, -5, 2.5, True])
    def test_chunk_size_below_one_raises_before_drawing(self, monkeypatch,
                                                        chunk_size):
        def no_draws(*args):
            raise AssertionError("a path was drawn")

        monkeypatch.setattr("crossbound.validate.path_blocks", no_draws)
        ev = EventSpec(kind="line", gamma=1.0, v_tau=1.0)
        for spec in (IidSum(UniformIncrements(), 50), PoissonCounting(1.0, 5.0)):
            with pytest.raises(InvalidParameter, match="chunk_size"):
                sweep(spec, [ev], 100, seed=1, chunk_size=chunk_size)

    def test_poisson_sweep_matches_per_path_loop(self):
        spec = PoissonCounting(lam=2.0, horizon=5.0, centered=True)
        events = [EventSpec(kind="line", side="upper", gamma=1.0, v_tau=1.0,
                            slope=0.5),
                  EventSpec(kind="line", side="lower", gamma=0.5, v_tau=2.0,
                            slope=0.3),
                  EventSpec(kind="vee", side="upper", gamma=0.8, v_tau=2.0),
                  EventSpec(kind="eta_ray", side="lower", gamma=0.4, eta=1.0)]
        reps = sweep(spec, events, 300, seed=48, threads=2, chunk_size=50)
        want = [0] * len(events)
        for i in range(300):
            path = generate(spec, 48, i)
            stats = _RowStats(path.values[None, :], path.vproxy[None, :])
            for j, ev in enumerate(events):
                want[j] += bool(_event_rows(ev, stats, None)[0])
        assert [r.n_crossed for r in reps] == want
        assert all(0 < k < 300 for k in want)

    @settings(max_examples=12, deadline=None)
    @given(spec=st.sampled_from([IidSum(UniformIncrements(), 60),
                                 PoissonCounting(1.5, 8.0, centered=True)]),
           threads=st.sampled_from([1, 2]), chunk=st.integers(1, 90),
           seed=st.integers(0, 2 ** 32))
    def test_counts_do_not_depend_on_threads_or_chunks(self, spec, threads,
                                                       chunk, seed):
        events = [EventSpec(kind="line", side="two_sided", gamma=0.4,
                            v_tau=5.0, slope=0.2),
                  EventSpec(kind="vee", side="lower", gamma=0.3, v_tau=4.0)]
        ref = sweep(spec, events, 150, seed=seed, threads=1)
        got = sweep(spec, events, 150, seed=seed, threads=threads,
                    chunk_size=chunk)
        assert [r.n_crossed for r in got] == [r.n_crossed for r in ref]


class TestExpexactBrownian:
    @pytest.mark.parametrize("t0, fine, coarse, horizon", [
        (30.0, [251, 190, 102], [243, 189, 101], 30.0),
        (0.5, [216, 139, 47], [205, 136, 47], 2.0),   # doubles twice
    ])
    def test_counts_and_horizon_pinned(self, t0, fine, coarse, horizon):
        # pinned to the counts of the dedicated kernel that sweep replaced
        reps = run_expexact_brownian(paths=400, seed=5, dt=1e-2, t0=t0,
                                     pilot_paths=40, threads=2)
        assert [r.n_crossed for r in reps] == fine
        assert [round(r.extra["p_coarse"] * 400) for r in reps] == coarse
        assert {r.extra["horizon"] for r in reps} == {horizon}


class TestHalvingAllowance:
    def test_richardson_factor(self):
        assert halving_allowance(0.5, 0.5) == 0.0
        est = halving_allowance(0.50, 0.49)
        assert est == pytest.approx(0.01 / (math.sqrt(2.0) - 1.0), rel=1e-12)

    def test_never_negative(self):
        assert halving_allowance(0.4, 0.5) == 0.0
