"""Bounded continuity regions, first-exit times, and the optional-stopping
verification harness.

A region is the time-indexed open interval (L(t), U(t)) inside a fixed
envelope [-C, C]; the process is observed while strictly inside, and exits on
the first grid time with X_t <= L(t) or X_t >= U(t).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidParameter
from .sim import (
    Path,
    PoissonCounting,
    ProcessSpec,
    check_whole,
    path_blocks,
    path_rng,  # noqa: F401  (kept importable; benchmarks/tracing.py patches it)
    path_streams,
    row_length,
    step_draws,
    walk_increments,  # noqa: F401  (likewise)
)

TRUNCATION_WARN_FRACTION = 0.01
# The early-exit harvest draws HARVEST_BLOCK steps at a time for a group of
# HARVEST_ROWS paths; a 128 x 128 block keeps the block matrix and each of
# its temporaries at 16k elements (128 KB), so peak memory does not grow.
HARVEST_ROWS = 128
HARVEST_BLOCK = 128


@dataclass(frozen=True)
class ContinuityRegion:
    """Piecewise-constant interval (L(t), U(t)) on declared breakpoints.

    Requirement: -C <= L(t) < U(t) <= C at every breakpoint; the piecewise
    constant representation makes the dyadic-approximation condition hold
    automatically against step-interpolated paths, so it is not re-checked at
    runtime.
    """

    breakpoints: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    envelope: float

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=np.float64)
        lo = np.asarray(self.lower, dtype=np.float64)
        up = np.asarray(self.upper, dtype=np.float64)
        if bp.size == 0 or bp[0] != 0.0:
            raise InvalidParameter("breakpoints must start at t = 0")
        if bp.size > 1 and not np.all(np.diff(bp) > 0.0):
            raise InvalidParameter("breakpoints must be strictly increasing")
        if lo.shape != bp.shape or up.shape != bp.shape:
            raise InvalidParameter("lower/upper must match the breakpoints")
        C = float(self.envelope)
        if not (C > 0.0) or not math.isfinite(C):
            raise InvalidParameter("envelope C must be positive and finite")
        if np.any(lo < -C) or np.any(up > C) or np.any(lo >= up):
            raise InvalidParameter("need -C <= L(t) < U(t) <= C at every breakpoint")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "envelope", C)

    @classmethod
    def constant(cls, lower: float, upper: float,
                 envelope: Optional[float] = None) -> "ContinuityRegion":
        if envelope is None:
            envelope = max(abs(lower), abs(upper))
        return cls(breakpoints=np.array([0.0]), lower=np.array([float(lower)]),
                   upper=np.array([float(upper)]), envelope=envelope)

    def _idx(self, t: np.ndarray) -> np.ndarray:
        # breakpoints[0] = 0, so only t < 0 needs the floor
        return np.maximum(np.searchsorted(self.breakpoints, t, side="right") - 1,
                          0)

    def lower_at(self, t):
        return self.lower[self._idx(np.asarray(t, dtype=np.float64))]

    def upper_at(self, t):
        return self.upper[self._idx(np.asarray(t, dtype=np.float64))]


@dataclass(frozen=True)
class RegionPair:
    """Nested regions: inner(t) a subset of outer(t) at every breakpoint."""

    inner: ContinuityRegion
    outer: ContinuityRegion

    def __post_init__(self):
        grid = np.union1d(self.inner.breakpoints, self.outer.breakpoints)
        if (np.any(self.inner.lower_at(grid) < self.outer.lower_at(grid)) or
                np.any(self.inner.upper_at(grid) > self.outer.upper_at(grid))):
            raise InvalidParameter("inner region must be nested in outer region")


@dataclass(frozen=True)
class StopResult:
    """First grid exit: tau (inf marker when none), X at the stop, truncation."""

    tau: float
    value_at_stop: float
    truncated: bool


def first_exit(path: Path, region: ContinuityRegion) -> StopResult:
    """Scan the grid in time order for the first X_t outside (L(t), U(t)).

    A path that never leaves within its grid is truncated: tau is the +inf
    marker and the terminal value stands in for X_tau = lim X_{tau ^ t}.
    """
    lo = region.lower_at(path.times)
    up = region.upper_at(path.times)
    outside = (path.values <= lo) | (path.values >= up)
    idx = int(np.argmax(outside))
    if outside[idx]:
        return StopResult(tau=float(path.times[idx]),
                          value_at_stop=float(path.values[idx]),
                          truncated=False)
    return StopResult(tau=math.inf, value_at_stop=float(path.values[-1]),
                      truncated=True)


# ---------------------------------------------------------------------------
# Optional-stopping harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OsReport:
    """Empirical E[X_tau] at nested stopping times with paired uncertainty."""

    n_paths: int
    mean_inner: float
    se_inner: float
    mean_outer: float
    se_outer: float
    mean_diff: float       # outer minus inner, paired
    se_diff: float
    truncated_inner: float
    truncated_outer: float
    kind: str
    ci_multiple: float
    verdict: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _first_out(vals, t, region):
    """Per row of vals (one column per grid time in t): the first column
    outside the region, and whether there is one."""
    out = (vals <= region.lower_at(t)) | (vals >= region.upper_at(t))
    j = out.argmax(axis=1)
    return j, out[np.arange(j.size), j]


def _harvest_exits(specs, pair, n_paths, seed):
    """(t1, v1, t2, v2) of each spec: the first exits of every path from
    both regions of ``pair`` within the horizon, with early exit.  The
    specs share one pass, so they must draw one stream (the same fill on
    equal grids; a Poisson spec goes alone): else InvalidParameter.

    On a uniform grid the paths go HARVEST_ROWS at a time: path i draws the
    stream of generate(spec, seed, i) through sim.step_draws, HARVEST_BLOCK
    steps per block and only while the outer exit of some spec on it is
    pending, and each spec maps and searches only its own pending rows.
    Column 0 of a mapped block holds each row's running sum, so one cumsum
    along the rows adds in generate's order and every value is generate's,
    bit for bit.  Poisson paths are read whole from path_blocks, in groups
    of rows that hold about as many elements as a grid block.  Every block
    goes through the same exit search from its column 0, against the
    region bounds at the block's times: in the first block that column is
    t = 0, and after it a column already searched, which adds no exit.
    """
    # the regions test X, or an ExpSupermartingale's tilt of its base's X
    bases = [getattr(spec, "base", spec) for spec in specs]
    tests = [getattr(spec, "tilt", lambda X, V: X) for spec in specs]
    # per spec: t1, v1, t2, v2, the value at the last time searched, and
    # whether the inner exit is pending
    exits = [(np.full(n_paths, math.inf), np.empty(n_paths),
              np.full(n_paths, math.inf), np.empty(n_paths),
              np.empty(n_paths), np.ones(n_paths, dtype=bool))
             for _ in specs]

    def search(k, rows, t, vals):
        """Record spec k's exits in vals (paths ``rows``, grid times t shared
        by every row or one row each); True where the outer exit was found."""
        t1, v1, t2, v2, last, open1 = exits[k]
        times = np.broadcast_to(t, vals.shape)
        pending = open1[rows]
        if pending.any():
            j, hit = _first_out(vals, t, pair.inner)
            hit &= pending
            t1[rows[hit]] = times[hit, j[hit]]
            v1[rows[hit]] = vals[hit, j[hit]]
            open1[rows[hit]] = False
        j, hit = _first_out(vals, t, pair.outer)
        t2[rows[hit]] = times[hit, j[hit]]
        v2[rows[hit]] = vals[hit, j[hit]]
        last[rows] = vals[:, -1]
        return hit

    if any(isinstance(base, PoissonCounting) for base in bases):
        if len(specs) > 1:
            raise InvalidParameter("a Poisson spec shares no harvest pass")
        base = bases[0]
        # as many rows as fill a grid block's elements at the mean length
        group = max(1, int(HARVEST_ROWS * HARVEST_BLOCK // row_length(base)))
        for g0 in range(0, n_paths, group):
            rows = np.arange(g0, min(g0 + group, n_paths))
            X, V = path_blocks(base, seed, rows)
            search(0, rows, V, tests[0](X, V))
    else:
        draws = [step_draws(base) for base in bases]
        V, fill, _ = draws[0]
        if any(f is not fill or not np.array_equal(v, V) for v, f, _ in draws):
            raise InvalidParameter("the specs of one harvest pass must draw "
                                   "one stream: one fill on one grid")
        # Its own block loop, not path_blocks: here the streams are hashed
        # once per call and a path draws only while it is live.  Prefixes
        # of doubling length read from path_blocks give the same exits, but
        # pay the stream hash on every call and redraw each prefix.
        n_steps = V.size - 1
        rows = HARVEST_ROWS
        # steps maps whole blocks, column 0 too, before that column takes
        # each row's running sum: zeros keep what it maps there finite
        buf = np.zeros((rows, HARVEST_BLOCK + 1))
        # one pool of generators per call, re-stated for each group of rows
        pool = [np.random.default_rng(0) for _ in range(min(rows, n_paths))]
        streams = path_streams(seed, range(n_paths), pool)
        for g0 in range(0, n_paths, rows):
            rngs = list(itertools.islice(streams, rows))
            x = [np.zeros(len(rngs)) for _ in specs]
            live = [np.arange(len(rngs))] * len(specs)
            drawn = live[0]                  # rows some spec searches
            step = 0
            while drawn.size and step < n_steps:
                m = min(HARVEST_BLOCK, n_steps - step)
                blk = buf[:drawn.size, :m + 1]
                for row, j in zip(blk[:, 1:], drawn.tolist()):
                    fill(rngs[j], row)
                cols = slice(step, step + m + 1)
                for k, own in enumerate(live):
                    # spec k maps and searches its own rows, a subset of drawn
                    cum = draws[k][2](blk if own.size == drawn.size else
                                      blk[np.searchsorted(drawn, own)])
                    cum[:, 0] = x[k][own]
                    np.cumsum(cum, axis=1, out=cum)
                    x[k][own] = cum[:, -1]
                    hit = search(k, g0 + own, V[cols], tests[k](cum, V[cols]))
                    live[k] = own[~hit]
                drawn = functools.reduce(np.union1d, live)
                step += m
    for t1, v1, t2, v2, last, open1 in exits:
        # truncated: the last value stands in for X_tau
        trunc = np.isinf(t2)
        v2[trunc] = last[trunc]
        v1[open1] = last[open1]
    return [e[:4] for e in exits]


def verify_optional_stopping(spec: ProcessSpec, pair: RegionPair,
                             n_paths: int, seed: int,
                             kind: str = "martingale") -> OsReport:
    """Estimate E[X_tau] at the nested first-exit times and compare.

    kind="martingale" expects equality of the two means within three
    paired standard errors; "supermartingale" expects mean_outer <= mean_inner
    up to the same allowance.  A path that stays in a region up to the
    spec's horizon is truncated: it contributes its terminal value, and a
    warning is issued when their fraction exceeds 1%.
    """
    return verify_shared_stopping([(spec, kind)], pair, n_paths, seed)[0]


def verify_shared_stopping(checks, pair: RegionPair, n_paths: int,
                           seed: int) -> list:
    """verify_optional_stopping of each (spec, kind) in checks, from one
    harvest pass: path i of every spec draws the same stream, seeded and
    drawn once (_harvest_exits says which specs may share one)."""
    for _, kind in checks:
        if kind not in ("martingale", "supermartingale"):
            raise InvalidParameter(
                f"kind must be martingale|supermartingale, got {kind!r}")
    check_whole("n_paths", n_paths, 2)
    if not checks:
        return []
    exits = _harvest_exits([spec for spec, _ in checks], pair, n_paths, seed)
    reps = []
    for (t1, v1, t2, v2), (_, kind) in zip(exits, checks):
        diff = v2 - v1
        mean_diff, se_diff, ci_multiple = float(diff.mean()), _se(diff), 3.0
        excess = abs(mean_diff) if kind == "martingale" else mean_diff
        rep = OsReport(
            n_paths=int(n_paths), mean_inner=float(v1.mean()), se_inner=_se(v1),
            mean_outer=float(v2.mean()), se_outer=_se(v2),
            mean_diff=mean_diff, se_diff=se_diff,
            truncated_inner=float(np.mean(np.isinf(t1))),
            truncated_outer=float(np.mean(np.isinf(t2))),
            kind=kind, ci_multiple=ci_multiple,
            verdict="holds" if excess <= ci_multiple * se_diff else "violated")
        reps.append(rep)
        if rep.truncated_outer > TRUNCATION_WARN_FRACTION:
            warnings.warn(
                f"truncation fraction {rep.truncated_outer:.3%} exceeds "
                f"{TRUNCATION_WARN_FRACTION:.0%}; expectations are biased "
                "toward terminal values", stacklevel=3)
    return reps


def _se(a):
    return float(a.std(ddof=1) / math.sqrt(a.size))
