"""Bounded continuity regions, first-exit times, and the optional-stopping
verification harness.

A region is the time-indexed open interval (L(t), U(t)) inside a fixed
envelope [-C, C]; the process is observed while strictly inside, and exits on
the first grid time with X_t <= L(t) or X_t >= U(t).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EmptyPath, InvalidParameter, InvalidSpec
from .sim import (
    Brownian,
    CustomIncrements,
    ExpSupermartingale,
    IidSum,
    LazyWalk,
    Path,
    PoissonCounting,
    ProcessSpec,
    _draw_increments,
    increments_from_uniforms,
    path_blocks,
    path_rng,  # noqa: F401  (kept importable; benchmarks/tracing.py patches it)
    path_streams,
    uniform_grid,
    validate_spec,
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

    def to_dict(self) -> dict:
        return {"inner": region_to_dict(self.inner),
                "outer": region_to_dict(self.outer)}


def region_to_dict(region: ContinuityRegion) -> dict:
    """Breakpoint-list form used by CLI configs and JSON reports."""
    return {"breakpoints": region.breakpoints.tolist(),
            "lower": region.lower.tolist(),
            "upper": region.upper.tolist(),
            "envelope": region.envelope}


def region_from_dict(rec: dict) -> ContinuityRegion:
    try:
        return ContinuityRegion(
            breakpoints=np.asarray(rec["breakpoints"], dtype=np.float64),
            lower=np.asarray(rec["lower"], dtype=np.float64),
            upper=np.asarray(rec["upper"], dtype=np.float64),
            envelope=float(rec["envelope"]))
    except KeyError as exc:
        raise InvalidParameter(f"region record missing key {exc}") from exc


def region_pair_from_dict(rec: dict) -> RegionPair:
    try:
        return RegionPair(inner=region_from_dict(rec["inner"]),
                          outer=region_from_dict(rec["outer"]))
    except KeyError as exc:
        raise InvalidParameter(f"region pair record missing key {exc}") from exc


@dataclass(frozen=True)
class StopResult:
    """First grid exit: tau (inf marker when none), X at the stop, truncation."""

    tau: float
    value_at_stop: float
    truncated: bool
    index: Optional[int] = None


def first_exit(path: Path, region: ContinuityRegion) -> StopResult:
    """Scan the grid in time order for the first X_t outside (L(t), U(t)).

    A path that never leaves within its grid is truncated: tau is the +inf
    marker and the terminal value stands in for X_tau = lim X_{tau ^ t}.
    """
    if path.times.size == 0:
        raise EmptyPath("path has no grid points")
    lo = region.lower_at(path.times)
    up = region.upper_at(path.times)
    outside = (path.values <= lo) | (path.values >= up)
    idx = int(np.argmax(outside))
    if outside[idx]:
        return StopResult(tau=float(path.times[idx]),
                          value_at_stop=float(path.values[idx]),
                          truncated=False, index=idx)
    return StopResult(tau=math.inf, value_at_stop=float(path.values[-1]),
                      truncated=True, index=None)


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


def _with_horizon(spec: ProcessSpec, horizon) -> ProcessSpec:
    if isinstance(spec, (IidSum, LazyWalk)):
        return dataclasses.replace(spec, n=int(horizon))
    if isinstance(spec, (PoissonCounting, Brownian)):
        return dataclasses.replace(spec, horizon=float(horizon))
    if isinstance(spec, ExpSupermartingale):
        return dataclasses.replace(spec, base=_with_horizon(spec.base, horizon))
    raise InvalidSpec(f"cannot set a horizon on {type(spec).__name__}")


def _block_draws(base):
    """(fill, increments) for a uniform-grid base process: fill(rng, row)
    draws the next row.size steps of the path's stream into row, in
    generate's order, and increments maps a block of such rows to steps."""
    if isinstance(base, Brownian):
        scale = math.sqrt(base.dt)
        return (lambda rng, row: rng.standard_normal(out=row),
                lambda blk: blk * scale)
    law = base if isinstance(base, LazyWalk) else base.dist
    if isinstance(law, CustomIncrements):
        def fill(rng, row):
            row[:] = _draw_increments(law, rng, row.size)
        return fill, lambda blk: blk
    return (lambda rng, row: rng.random(out=row),
            lambda blk: increments_from_uniforms(law, blk))


def _first_out(vals, t, region):
    """Per row of vals (one column per grid time in t): the first column
    outside the region, and whether there is one."""
    out = (vals <= region.lower_at(t)) | (vals >= region.upper_at(t))
    j = out.argmax(axis=1)
    return j, out[np.arange(j.size), j]


def _harvest_exits_blockwise(spec, pair, n_paths, horizon, seed):
    """First exits of every path from both regions of ``pair``, with early
    exit.  The regions test X, or exp(s X - phi(s) V) for an
    ExpSupermartingale over X.

    On a uniform grid the paths go HARVEST_ROWS at a time: path i draws the
    stream of generate(spec, seed, i), HARVEST_BLOCK steps per block and
    only while its outer exit is pending.  Each block is summed as
    x + cumsum(block), so a value can differ in the last bits from
    generate's single cumsum past the first block.  Poisson paths are read
    whole, one row at a time, from path_blocks.  Every block goes through
    the same exit search, against the region bounds at the block's times.
    """
    spec = _with_horizon(spec, horizon)
    base = spec
    if isinstance(spec, ExpSupermartingale):
        base = spec.base
        s, ph = spec.s, float(np.asarray(spec.phi.phi(spec.s)))
        tested = lambda X, V: np.exp(s * X - ph * V)
    else:
        tested = lambda X, V: X
    y0 = float(tested(0.0, 0.0))
    # t = 0 tie: a region that already excludes the start stops at tau = 0
    inside1 = pair.inner.lower_at(0.0) < y0 < pair.inner.upper_at(0.0)
    inside2 = pair.outer.lower_at(0.0) < y0 < pair.outer.upper_at(0.0)
    t1 = np.full(n_paths, math.inf if inside1 else 0.0)
    t2 = np.full(n_paths, math.inf if inside2 else 0.0)
    v1 = np.full(n_paths, y0); v2 = np.full(n_paths, y0)
    last = np.full(n_paths, y0)          # value at the last time searched
    open1 = np.full(n_paths, inside1)

    def search(rows, t, vals):
        """Record the exits in vals (paths ``rows``, grid times t); True
        where the outer exit was found."""
        pending = open1[rows]
        if pending.any():
            j, hit = _first_out(vals, t, pair.inner)
            hit &= pending
            t1[rows[hit]] = t[j[hit]]
            v1[rows[hit]] = vals[hit, j[hit]]
            open1[rows[hit]] = False
        j, hit = _first_out(vals, t, pair.outer)
        t2[rows[hit]] = t[j[hit]]
        v2[rows[hit]] = vals[hit, j[hit]]
        last[rows] = vals[:, -1]
        return hit

    todo = range(n_paths if inside2 else 0)
    if isinstance(base, PoissonCounting):
        for i, (X, V) in zip(todo, path_blocks(base, seed, todo)):
            search(np.array([i]), V[1:], tested(X[:, 1:], V[1:]))
    else:
        times, V = uniform_grid(base)
        n_steps = times.size - 1
        fill, increments = _block_draws(base)
        rows = HARVEST_ROWS
        buf = np.empty((rows, HARVEST_BLOCK))
        # one pool of generators per call, re-stated for each group of rows
        streams = path_streams(seed, todo, [np.random.default_rng(0)
                                            for _ in range(min(rows, n_paths))])
        for g0 in todo[::rows]:
            rngs = list(itertools.islice(streams, rows))
            x = np.zeros(len(rngs))
            live = np.arange(len(rngs))
            step = 0
            while live.size and step < n_steps:
                m = min(HARVEST_BLOCK, n_steps - step)
                blk = buf[:live.size, :m]
                for r, j in enumerate(live):
                    fill(rngs[j], blk[r])
                cum = np.cumsum(increments(blk), axis=1)
                cum += x[live, None]
                x[live] = cum[:, -1]
                cols = slice(step + 1, step + m + 1)
                hit = search(g0 + live, times[cols], tested(cum, V[cols]))
                live = live[~hit]
                step += m
    # truncated: the last value stands in for X_tau
    trunc = np.isinf(t2)
    v2[trunc] = last[trunc]
    v1[open1] = last[open1]
    return t1, v1, t2, v2


def verify_optional_stopping(spec: ProcessSpec, pair: RegionPair,
                             n_paths: int, horizon, seed: int,
                             kind: str = "martingale",
                             ci_multiple: float = 3.0) -> OsReport:
    """Estimate E[X_tau] at the nested first-exit times and compare.

    kind="martingale" expects equality of the two means within ci_multiple
    paired standard errors; "supermartingale" expects mean_outer <= mean_inner
    up to the same allowance.  Truncated paths contribute their terminal value
    and a warning is issued when their fraction exceeds 1%.
    """
    if kind not in ("martingale", "supermartingale"):
        raise InvalidParameter(f"kind must be martingale|supermartingale, got {kind!r}")
    if n_paths <= 1:
        raise InvalidParameter("need at least 2 paths")
    validate_spec(_with_horizon(spec, horizon))
    t1, v1, t2, v2 = _harvest_exits_blockwise(spec, pair, n_paths, horizon, seed)
    diff = v2 - v1
    n = n_paths
    rep = OsReport(
        n_paths=n,
        mean_inner=float(v1.mean()), se_inner=float(v1.std(ddof=1) / math.sqrt(n)),
        mean_outer=float(v2.mean()), se_outer=float(v2.std(ddof=1) / math.sqrt(n)),
        mean_diff=float(diff.mean()), se_diff=float(diff.std(ddof=1) / math.sqrt(n)),
        truncated_inner=float(np.mean(np.isinf(t1))),
        truncated_outer=float(np.mean(np.isinf(t2))),
        kind=kind, ci_multiple=ci_multiple,
        verdict="",
    )
    allowance = ci_multiple * rep.se_diff
    if kind == "martingale":
        verdict = "holds" if abs(rep.mean_diff) <= allowance else "violated"
    else:
        verdict = "holds" if rep.mean_diff <= allowance else "violated"
    rep = dataclasses.replace(rep, verdict=verdict)
    if rep.truncated_outer > TRUNCATION_WARN_FRACTION:
        warnings.warn(
            f"truncation fraction {rep.truncated_outer:.3%} exceeds "
            f"{TRUNCATION_WARN_FRACTION:.0%}; expectations are biased toward "
            "terminal values", stacklevel=2)
    return rep
