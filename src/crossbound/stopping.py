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
    generate,
    increments_from_uniforms,
    path_rng,  # noqa: F401  (kept importable; benchmarks/tracing.py patches it)
    path_streams,
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

    @property
    def is_constant(self) -> bool:
        return self.breakpoints.size == 1

    def _idx(self, t: np.ndarray) -> np.ndarray:
        return np.clip(np.searchsorted(self.breakpoints, t, side="right") - 1,
                       0, self.breakpoints.size - 1)

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


def crossing_indicator(path: Path, boundary, direction: str = "up") -> bool:
    """True iff some grid point has X_t >= boundary(t) (up) or <= (down).

    ``boundary`` is a callable of t or an array aligned with the path grid;
    comparisons are closed, matching ">= 0" crossing events.
    """
    if direction not in ("up", "down"):
        raise InvalidParameter(f"direction must be 'up' or 'down', got {direction!r}")
    if callable(boundary):
        b = np.asarray(boundary(path.times), dtype=np.float64)
    else:
        b = np.asarray(boundary, dtype=np.float64)
        if b.shape != path.times.shape:
            raise InvalidParameter("boundary array must match the path grid")
    if direction == "up":
        return bool(np.any(path.values >= b))
    return bool(np.any(path.values <= b))


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


def _harvest_exits_blockwise(spec, pair, n_paths, horizon, seed):
    """First exits of a walk-like spec from two constant regions, with early
    exit, for HARVEST_ROWS paths at a time.

    Path i draws the stream of generate(spec, seed, i), HARVEST_BLOCK steps
    per block, and only while its outer exit is pending.  Each block is
    summed as x + cumsum(block), so a value can differ in the last bits from
    generate's single cumsum past the first block.
    """
    lo1 = float(pair.inner.lower[0]); up1 = float(pair.inner.upper[0])
    lo2 = float(pair.outer.lower[0]); up2 = float(pair.outer.upper[0])
    law = spec if isinstance(spec, LazyWalk) else spec.dist
    custom = isinstance(law, CustomIncrements)
    horizon = int(horizon)
    # t = 0 tie: a region that already excludes X_0 = 0 stops at tau = 0
    inside1 = lo1 < 0.0 < up1
    inside2 = lo2 < 0.0 < up2
    t1 = np.full(n_paths, math.inf if inside1 else 0.0); v1 = np.zeros(n_paths)
    t2 = np.full(n_paths, math.inf if inside2 else 0.0); v2 = np.zeros(n_paths)
    rows = HARVEST_ROWS
    buf = np.empty((rows, HARVEST_BLOCK))
    # one pool of generators per call, re-stated for each group of rows
    streams = path_streams(seed, range(n_paths),
                           [np.random.default_rng(0)
                            for _ in range(min(rows, n_paths))])
    for g0 in range(0, n_paths, rows):
        rngs = list(itertools.islice(streams, rows))
        k = len(rngs)
        x = np.zeros(k)
        open1 = np.full(k, inside1)
        live = np.arange(k if inside2 else 0)
        step = 0
        while live.size and step < horizon:
            m = min(HARVEST_BLOCK, horizon - step)
            blk = buf[:live.size, :m]
            for r, j in enumerate(live):
                if custom:
                    blk[r] = _draw_increments(law, rngs[j], m)
                else:
                    rngs[j].random(out=blk[r])
            cum = np.cumsum(blk if custom else increments_from_uniforms(law, blk),
                            axis=1)
            cum += x[live, None]
            at = np.arange(live.size)
            if open1[live].any():
                out1 = (cum <= lo1) | (cum >= up1)
                j1 = out1.argmax(axis=1)
                hit = out1[at, j1] & open1[live]
                t1[g0 + live[hit]] = step + j1[hit] + 1
                v1[g0 + live[hit]] = cum[at[hit], j1[hit]]
                open1[live[hit]] = False
            out2 = (cum <= lo2) | (cum >= up2)
            j2 = out2.argmax(axis=1)
            hit = out2[at, j2]
            t2[g0 + live[hit]] = step + j2[hit] + 1
            v2[g0 + live[hit]] = cum[at[hit], j2[hit]]
            x[live] = cum[:, -1]
            live = live[~hit]
            step += m
        # truncated: the terminal value stands in for X_tau
        v2[g0 + live] = x[live]
        v1[g0 + np.flatnonzero(open1)] = x[open1]
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
    spec = _with_horizon(spec, horizon)
    validate_spec(spec)
    if (isinstance(spec, (IidSum, LazyWalk)) and pair.inner.is_constant
            and pair.outer.is_constant):
        t1, v1, t2, v2 = _harvest_exits_blockwise(spec, pair, n_paths, horizon, seed)
    else:
        t1 = np.empty(n_paths); v1 = np.empty(n_paths)
        t2 = np.empty(n_paths); v2 = np.empty(n_paths)
        for i in range(n_paths):
            path = generate(spec, seed, i)
            r1 = first_exit(path, pair.inner)
            r2 = first_exit(path, pair.outer)
            t1[i], v1[i] = r1.tau, r1.value_at_stop
            t2[i], v2[i] = r2.tau, r2.value_at_stop

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
