"""The batched path blocks and the one-ray event reduction, checked against
frozen copies of the forms they replaced: per-event column ranges (the vee
split at V_tau, the b = 0 pass) over one shared time row, one (1, m) block
per Poisson path, and the full pass over every column of a long row."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossbound import (
    BernoulliIncrements,
    Brownian,
    ContinuityRegion,
    ExpSupermartingale,
    Gaussian,
    IidSum,
    LazyWalk,
    PoissonCounting,
    RegionPair,
    TwoPointIncrements,
    generate,
    make_phi,
    sim,
    stopping,
    sweep,
    validate,
)
from crossbound.sim import path_blocks, path_rng, poisson_jump_times
from crossbound.validate import EventSpec


# --- frozen oracles ---------------------------------------------------------


class _OracleRowStats:
    """max/min of X -+ b V over the columns lo:hi of one shared time row V."""

    def __init__(self, X, V):
        self.X, self.V = X, V

    def get(self, op, b, lo, hi):
        Xs = self.X[:, lo:hi]
        reduce = np.maximum if op == "max" else np.minimum
        if b == 0.0:
            return reduce.reduce(Xs, axis=1)
        shift = (-b if op == "max" else b) * self.V[lo:hi]
        return reduce.reduce(Xs + shift, axis=1)


def _oracle_event_rows(event, st, transform):
    n_cols = st.V.size
    if event.kind == "sup_level":
        s, phi_s = transform
        level = math.log(event.gamma)
        if s > 0:
            return st.get("max", phi_s / s, 0, None) >= level / s
        return st.get("min", -phi_s / s, 0, None) <= level / s
    if event.kind == "line":
        c = (event.gamma - event.slope) * event.v_tau
        up = st.get("max", event.slope, 0, None) >= c
        dn = st.get("min", event.slope, 0, None) <= -c
        return {"upper": up, "lower": dn, "two_sided": up | dn}[event.side]
    if event.kind == "eta_ray":
        if event.side == "upper":
            return st.get("max", event.gamma, 0, None) >= event.eta
        return st.get("min", event.gamma, 0, None) <= -event.eta
    i_tau = int(np.searchsorted(st.V, event.v_tau, side="right"))
    thresh = event.eta + event.gamma * event.v_tau
    if event.side == "upper":
        hit = st.get("max", 0.0, 0, i_tau) >= thresh
        if i_tau < n_cols:
            hit = hit | (st.get("max", event.gamma, i_tau, None) >= event.eta)
        return hit
    hit = st.get("min", 0.0, 0, i_tau) <= -thresh
    if i_tau < n_cols:
        hit = hit | (st.get("min", event.gamma, i_tau, None) <= -event.eta)
    return hit


def _oracle_poisson_block(spec, rng):
    """One Poisson path as its own (1, m) block on its jump-time grid."""
    jumps = poisson_jump_times(spec, rng)
    jumps = jumps[(jumps > 0.0) & (jumps < spec.horizon)]
    V = np.concatenate([[0.0], jumps, [spec.horizon]])
    X = np.concatenate([np.arange(jumps.size + 1.0), [jumps.size]])
    return (X - spec.lam * V if spec.centered else X)[None, :], V


def _oracle_blocks(base, seed, n_paths):
    """(X, V) blocks with one shared time row each, as the oracle reads."""
    if isinstance(base, PoissonCounting):
        return [_oracle_poisson_block(base, path_rng(seed, i))
                for i in range(n_paths)]
    X, V = path_blocks(base, seed, range(n_paths))
    return [(X, V[0])]


def _oracle_counts(spec, events, seed, n_paths):
    base, transform = spec, None
    if isinstance(spec, ExpSupermartingale):
        base = spec.base
        transform = spec.s, float(np.asarray(spec.phi.phi(spec.s)))
    counts = [0] * len(events)
    for X, V in _oracle_blocks(base, seed, n_paths):
        st = _OracleRowStats(X, V)
        for j, ev in enumerate(events):
            counts[j] += int(_oracle_event_rows(ev, st, transform).sum())
    return counts


# --- counts equal the oracle's ----------------------------------------------

# lattice paths, where a path value can equal a threshold exactly, and
# centered Poisson paths on their own jump times
BASES = {
    "bernoulli": IidSum(BernoulliIncrements(0.3), 40),
    "two_point": IidSum(TwoPointIncrements(hi=1.0, lo=-0.5, p_hi=1.0 / 3.0),
                        40),
    "lazy_walk": LazyWalk(0.8, 40),
    "walk": LazyWalk(1.0, 40),
    "poisson": PoissonCounting(1.5, 12.0, centered=True),
}
PHI_G = make_phi(Gaussian(1.0))
# thresholds on the lattices above, so ties with a path value are real.
# Lines and eta_rays compute their sides as before, bit for bit, at any
# values.  A vee now compares X - gamma V_tau with eta where it compared X
# with eta + gamma V_tau: the two round alike when gamma V_tau and eta are
# dyadic and eta >= 0, but a path value within an ulp of the threshold may
# count differently otherwise (e.g. Bernoulli(0.3), gamma 0.1, V_tau 13,
# eta -0.1, seed 0).
LEVELS = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
ANY_LEVELS = st.sampled_from([0.0, 0.1, 0.3, 1.0, 2.5, -0.3, -1.0, -0.5])
RATES = st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0])
ANY_RATES = st.sampled_from([0.0, 0.05, 0.1, 0.125, 0.3, 0.5, 1.0])
V_TAUS = st.sampled_from([0.0, 1.0, 5.0, 12.0, 20.0, 39.0, 40.0, 60.0])
SIDES = st.sampled_from(["upper", "lower"])

# bern_eta_vee_upper: eta = 2, gamma = 0.1, V_tau = 20 on a grid point
BERN_ETA_VEE = EventSpec(kind="vee", side="upper", gamma=0.1, v_tau=20.0,
                         eta=2.0)

EVENTS = st.one_of(
    st.builds(EventSpec, kind=st.just("line"),
              side=st.sampled_from(["upper", "lower", "two_sided"]),
              gamma=ANY_RATES, v_tau=V_TAUS, slope=ANY_RATES),
    st.builds(EventSpec, kind=st.just("eta_ray"), side=SIDES,
              gamma=ANY_RATES, eta=ANY_LEVELS),
    st.builds(EventSpec, kind=st.just("vee"), side=SIDES, gamma=RATES,
              v_tau=V_TAUS, eta=LEVELS),
)


class TestCountsEqualOracle:
    @settings(max_examples=60, deadline=None)
    @given(base=st.sampled_from(sorted(BASES)),
           events=st.lists(EVENTS, min_size=1, max_size=6),
           seed=st.integers(0, 2 ** 32), chunk=st.sampled_from([None, 7]))
    @example(base="bernoulli", events=[BERN_ETA_VEE], seed=11, chunk=None)
    @example(base="two_point", events=[BERN_ETA_VEE], seed=11, chunk=None)
    def test_plain_events(self, base, events, seed, chunk):
        spec = BASES[base]
        got = sweep(spec, events, 60, seed=seed, threads=1, chunk_size=chunk)
        assert [r.n_crossed for r in got] == _oracle_counts(spec, events,
                                                            seed, 60)

    @settings(max_examples=30, deadline=None)
    @given(base=st.sampled_from(sorted(BASES)),
           s=st.sampled_from([-1.0, -0.5, 0.5, 1.0]),
           gammas=st.lists(st.sampled_from([1.0, 1.5, 2.0, math.e, 4.0]),
                           min_size=1, max_size=4),
           seed=st.integers(0, 2 ** 32))
    def test_sup_level_events(self, base, s, gammas, seed):
        # s > 0 counts the upper side of X, s < 0 the lower side
        spec = ExpSupermartingale(BASES[base], s=s, phi=PHI_G)
        events = [EventSpec(kind="sup_level", gamma=g) for g in gammas]
        got = sweep(spec, events, 60, seed=seed, threads=1)
        assert [r.n_crossed for r in got] == _oracle_counts(spec, events,
                                                            seed, 60)

    def test_vee_crosses_before_and_after_v_tau(self):
        # the oracle's two column ranges both count here, so a dropped
        # floor, which leaves only the ray eta + gamma V_t, cannot pass
        spec = BASES["walk"]
        events = [EventSpec(kind="vee", side=side, gamma=0.25, v_tau=20.0,
                            eta=eta) for side in ("upper", "lower")
                  for eta in (-1.0, 0.0, 1.0, 2.0)]
        got = [r.n_crossed for r in sweep(spec, events, 400, seed=5)]
        assert got == _oracle_counts(spec, events, 5, 400)
        assert all(0 < k < 400 for k in got)


# --- blockwise row extremes ------------------------------------------------

# four rows of 9001 or more points each, so that the stride-2 views are long
# enough for blocks too; 9001 is not a multiple of the block width
LONG = {
    "walk": LazyWalk(1.0, 9000),    # lattice rows: X - b V ties often
    "brownian": Brownian(dt=1e-3, horizon=9.0),
    "poisson": PoissonCounting(60.0, 150.0, centered=True),  # V per row
}
VIEWS = [slice(None), slice(None, None, 2), slice(None, 8501),
         slice(None, 8501, 2)]


@functools.cache
def _long_rows(name):
    return path_blocks(LONG[name], 3, range(4))


def _full_pass(X, V, op, b, floor):
    reduce = np.maximum if op == "max" else np.minimum
    return reduce.reduce(X + (-b if op == "max" else b)
                         * np.maximum(V, floor), axis=1)


class TestBlockwiseRowStats:
    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(sorted(LONG)), view=st.sampled_from(VIEWS),
           op=st.sampled_from(["max", "min"]),
           b=st.one_of(st.sampled_from([0.0, -0.5, 0.25, 1.0, 3.0]),
                       st.floats(-4.0, 4.0)),
           at=st.one_of(st.just(None), st.floats(0.0, 1.2)))
    @example(name="walk", view=slice(None), op="max", b=0.0, at=None)
    @example(name="walk", view=slice(None, None, 2), op="min", b=-0.5,
             at=0.3)
    @example(name="poisson", view=slice(None), op="max", b=1.0, at=1.1)
    def test_blocks_give_the_full_pass_bit_for_bit(self, name, view, op, b,
                                                   at):
        # at: the floor as a share of the view's last time (None: no
        # floor); below 1 it falls inside a block, above 1 past the row
        X, V = _long_rows(name)
        X, V = X[:, view], V[:, view]
        assert X.shape[1] >= validate._MIN_BLOCKS * validate._BLOCK
        assert X.shape[1] % validate._BLOCK
        floor = 0.0 if at is None else at * float(V[:, -1].max())
        got = validate._RowStats(X, V).get(op, b, floor)
        want = _full_pass(X, V, op, b, floor)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_blocks_serve_every_key_of_a_view(self):
        # the block extremes of X are shared between keys of one op
        X, V = _long_rows("walk")
        stats = validate._RowStats(X, V)
        keys = [(op, b, floor) for op in ("max", "min")
                for b in (0.0, 0.5, -1.0) for floor in (0.0, 4500.0)]
        for key in keys * 2:
            assert np.array_equal(stats.get(*key), _full_pass(X, V, *key))


# --- row blocks of the full pass ------------------------------------------

# short rows (under _MIN_BLOCKS blocks): a lattice walk on one shared time
# row, and centered Poisson paths on a time row each
SHORT = {"walk": LazyWalk(1.0, 40),
         "poisson": PoissonCounting(1.5, 12.0, centered=True)}


class TestRowBlockedFullPass:
    @pytest.mark.parametrize("name", sorted(SHORT))
    @pytest.mark.parametrize("n_rows", [7, 9])
    @pytest.mark.parametrize("per", [1, 2, 4])
    def test_blocks_equal_the_oracle_bit_for_bit(self, monkeypatch, name,
                                                 n_rows, per):
        # per rows a block: 7 and 9 rows leave a short last block
        X, V = path_blocks(SHORT[name], 3, range(n_rows))
        monkeypatch.setattr(sim, "_ROW_BLOCK", per * X.shape[1])
        stats = validate._RowStats(X, V)
        assert stats._starts is None
        for op in ("max", "min"):
            for b in (-0.5, 0.75):
                for floor in (0.0, 0.4 * float(V.max())):
                    got = stats.get(op, b, floor)
                    # the oracle reads one shared row: max(V, floor) is it
                    want = np.concatenate([
                        _OracleRowStats(x[None, :], np.maximum(v, floor))
                        .get(op, b, 0, None)
                        for x, v in zip(X, np.broadcast_to(V, X.shape))])
                    assert got.tobytes() == want.tobytes()


# --- Poisson rows --------------------------------------------------------


class TestPoissonRows:
    @pytest.mark.parametrize("centered", [True, False])
    def test_rows_are_paths_padded_with_the_horizon_point(self, centered):
        spec = PoissonCounting(2.0, 6.0, centered=centered)
        X, V = path_blocks(spec, 19, range(40))
        assert X.shape == V.shape
        lengths = set()
        for i, (x, v) in enumerate(zip(X, V)):
            path = generate(spec, 19, i)
            want_x, want_v = _oracle_poisson_block(spec, path_rng(19, i))
            m = path.values.size
            lengths.add(m)
            assert np.array_equal(want_x[0], path.values)
            assert np.array_equal(want_v, path.times)
            assert np.array_equal(x[:m], path.values)
            assert np.array_equal(v[:m], path.times)
            assert np.all(x[m:] == path.values[-1])
            assert np.all(v[m:] == spec.horizon)
        assert len(lengths) > 1 and max(lengths) == X.shape[1]

    def test_generate_reads_one_unpadded_row(self):
        spec = PoissonCounting(2.0, 6.0, centered=True)
        X, V = path_blocks(spec, 19, [3])
        assert X.shape == V.shape == (1, generate(spec, 19, 3).values.size)


# --- memory budget at a long horizon ------------------------------------


def _recorder(monkeypatch, module):
    """Patch module.path_blocks to record len(indices) and return a two-column
    block of zeros, so that no long path is drawn or held."""
    seen = []

    def fake(spec, seed, indices):
        seen.append(len(indices))
        V = np.tile([0.0, spec.horizon], (len(indices), 1))
        return np.zeros_like(V), V

    monkeypatch.setattr(module, "path_blocks", fake)
    return seen


class TestBudget:
    def test_sweep_chunks_hold_the_chunk_elements(self, monkeypatch):
        seen = _recorder(monkeypatch, validate)
        # rows of about a 30th of the budget: more than 16 fit in a chunk
        spec = PoissonCounting(1.0, validate._CHUNK_ELEMENTS / 30.0,
                               centered=True)
        ev = EventSpec(kind="line", gamma=1.0, v_tau=1.0)
        sweep(spec, [ev], 100, seed=1, threads=1)
        row_len = spec.lam * spec.horizon + 2.0
        assert sum(seen) == 100
        assert 16 <= max(seen) and max(seen) * row_len <= validate._CHUNK_ELEMENTS

    def test_sweep_chunk_floor_is_16_rows(self, monkeypatch):
        seen = _recorder(monkeypatch, validate)
        ev = EventSpec(kind="line", gamma=1.0, v_tau=1.0)
        sweep(PoissonCounting(1.0, 1e7), [ev], 40, seed=1, threads=1)
        assert seen == [16, 16, 8]

    def test_harvest_groups_hold_a_grid_block(self, monkeypatch):
        seen = _recorder(monkeypatch, stopping)
        spec = PoissonCounting(1.0, 1e3, centered=True)
        pair = RegionPair(inner=ContinuityRegion.constant(-3.0, 3.0),
                          outer=ContinuityRegion.constant(-5.0, 5.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # no path leaves: all truncated
            stopping.verify_optional_stopping(spec, pair, 100, seed=1)
        budget = stopping.HARVEST_ROWS * stopping.HARVEST_BLOCK
        assert sum(seen) == 100 and len(seen) > 1
        assert max(seen) * (spec.lam * spec.horizon + 2.0) <= budget
