"""Monte Carlo estimation of boundary-crossing probabilities and statistically
sound comparison against theoretical bounds.

A finite horizon can only under-count crossings, so a "violated" verdict
(exact lower confidence limit above the bound) is a sound conclusion, while
"holds" is conservative.  Intervals are exact Clopper-Pearson throughout.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DomainViolation, InvalidParameter
from .sim import (
    PoissonCounting,
    ProcessSpec,
    Tilt,
    check_whole,
    generate,  # noqa: F401  (kept importable; benchmarks/tracing.py patches it)
    increments_matrix,  # noqa: F401  (likewise)
    path_blocks,
    row_blocks,
    row_length,
)
from .stopping import RegionPair, verify_shared_stopping
from .stopping import verify_optional_stopping  # noqa: F401  (likewise)

SCHEMA_VERSION = "1"

EVENT_KINDS = ("line", "vee", "eta_ray", "sup_level")
# Elements per simulated chunk of 16 to 8192 rows: it stays in cache.
_CHUNK_ELEMENTS = 1_000_000
# Column blocks of the bounded row reduction, taken from _MIN_BLOCKS blocks
# up: on shorter rows one full pass is faster.
_BLOCK = 128
_MIN_BLOCKS = 32


def fmt17(x) -> str:
    """Round-trip-safe numeric formatting (17 significant digits)."""
    return "" if x is None else format(float(x), ".17g")


def clopper_pearson(k: int, n: int, alpha: float) -> tuple:
    """Exact two-sided binomial interval via Beta quantiles.

    k = 0 gives (0, 1 - (alpha/2)^(1/n)); k = n gives ((alpha/2)^(1/n), 1).
    """
    if not (0 < alpha < 1):
        raise DomainViolation(f"alpha must lie in (0, 1), got {alpha}")
    if n <= 0 or k < 0 or k > n:
        raise DomainViolation(f"need 0 <= k <= n with n >= 1, got k={k}, n={n}")
    from scipy.special import betaincinv  # loaded at the first interval
    lo = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, alpha / 2.0))
    hi = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1.0 - alpha / 2.0))
    return lo, hi


@dataclass(frozen=True)
class EventSpec:
    """A crossing event paired with the theoretical bound it must respect.

    kinds: "line" (moving boundary gamma V_tau + slope (V_t - V_tau); side may
    be two_sided for the absolute-value envelope), "vee" (eta + gamma
    (V_tau v V_t)) and "eta_ray" (eta + gamma V_t) on a plain process, and
    "sup_level" (sup Y_t >= gamma) on an ExpSupermartingale Y.

    On a uniform grid an event with stride=2 sees only every second grid
    point of each path, the 2 dt subgrid of the same paths.
    """

    kind: str
    side: str = "upper"
    gamma: float = 0.0
    v_tau: float = 0.0
    slope: float = 0.0
    eta: float = 0.0
    bound: float = math.nan
    label: str = ""
    stride: int = 1

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise InvalidParameter(f"unknown event kind {self.kind!r}")
        if self.side not in ("upper", "lower", "two_sided"):
            raise InvalidParameter(f"unknown side {self.side!r}")
        if self.side == "two_sided" and self.kind != "line":
            raise InvalidParameter("two_sided applies to line events only")
        check_whole("stride", self.stride, 1)
        if self.stride > 2:
            raise InvalidParameter(f"stride must be 1 or 2, got {self.stride}")
        for name in ("gamma", "v_tau", "slope", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameter(f"event {name} must be finite")
        if self.kind == "sup_level" and not self.gamma > 0.0:
            raise InvalidParameter(f"sup_level gamma must be > 0, got {self.gamma}")

    def ray(self, tilt: Optional[Tilt]) -> tuple:
        """(side, b, floor, c): the event as X crossing the ray c + b max(V,
        floor), upward where max(X - b max(V, floor)) >= c, downward where
        min(X + b max(V, floor)) <= -c.  A vee is the ray from the floor
        V_tau.  sup_level Y >= gamma on an ExpSupermartingale's tilt Y is X
        crossing the ray log(gamma)/|s| + (phi(s)/|s|) V, upper if s > 0."""
        if (self.kind == "sup_level") != (tilt is not None):
            raise InvalidParameter(
                f"a {self.kind} event cannot be counted on this process:"
                " sup_level needs an ExpSupermartingale, the rest a plain process")
        if tilt is not None:
            s, phi_s = tilt
            return ("upper" if s > 0 else "lower", phi_s / abs(s), 0.0,
                    math.log(self.gamma) / abs(s))
        return (self.side, *{
            "line": (self.slope, 0.0, (self.gamma - self.slope) * self.v_tau),
            "eta_ray": (self.gamma, 0.0, self.eta),
            "vee": (self.gamma, self.v_tau, self.eta)}[self.kind])


@dataclass(frozen=True)
class ValidationReport:
    label: str
    n_paths: int
    n_crossed: int
    p_hat: float
    ci_lo: float
    ci_hi: float
    bound: float
    verdict: str
    truncation_fraction: float
    runtime_seconds: float
    alpha: float
    seed: int
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        rec = dataclasses.asdict(self)
        rec["schema_version"] = SCHEMA_VERSION
        return rec

    @staticmethod
    def csv_header() -> str:
        return ",".join(["schema_version", *(name for name, _ in _CSV_COLUMNS)])

    def csv_row(self) -> str:
        return ",".join([SCHEMA_VERSION, *(
            cell(getattr(self, name)) for name, cell in _CSV_COLUMNS)])


# The CSV columns after schema_version: each report field but extra, in
# order, with its cell format: a float to 17 significant digits but
# runtime_seconds to 3 decimals, an int or a str as it is.
_CSV_COLUMNS = [(f.name, "{:.3f}".format if f.name == "runtime_seconds"
                 else fmt17 if f.type == "float" else str)
                for f in dataclasses.fields(ValidationReport)
                if f.name != "extra"]


def _row(label: str, k: int, n_paths: int, alpha: float, seed: int,
         bound: float, runtime_seconds: float, **given) -> ValidationReport:
    """The report row of k crossings in n_paths paths: p_hat = k / n_paths
    and its Clopper-Pearson interval, with _verdict's verdict and 1 - p_hat
    as truncation_fraction unless ``given`` (which may also give extra)."""
    lo, hi = clopper_pearson(k, n_paths, alpha)
    p_hat = k / n_paths
    given.setdefault("verdict", _verdict(lo, hi, bound))
    given.setdefault("truncation_fraction", 1.0 - p_hat)
    return ValidationReport(
        label=label, n_paths=int(n_paths), n_crossed=k, p_hat=p_hat,
        ci_lo=lo, ci_hi=hi, bound=bound, runtime_seconds=runtime_seconds,
        alpha=alpha, seed=int(seed), **given)


def _verdict(ci_lo: float, ci_hi: float, bound: float) -> str:
    if math.isnan(bound):
        return "holds"
    if ci_lo > bound:
        return "violated"
    if (ci_hi - ci_lo) > 0.5 * bound:
        return "inconclusive"
    return "holds"


# ---------------------------------------------------------------------------
# Event evaluation on path matrices
# ---------------------------------------------------------------------------


class _RowStats:
    """Cached row statistics max/min of X -+ b max(V, floor), where V is one
    nondecreasing time row shared by every row of X or one per row (Poisson
    jump times).  Events sharing (b, floor) share one result.

    A row shorter than _MIN_BLOCKS blocks of _BLOCK columns takes one full
    pass over X + shift, one row block of sim.row_blocks at a time into a
    preallocated result, with no chunk-sized temporary.  A longer row is
    reduced blockwise: one reduceat of X per op gives each block's extreme,
    and with the shift at the block's two end columns it bounds every
    element of the block from both sides, since fl(x + fl(c max(v, floor)))
    is monotone in x and in v for either sign of c.  Only the blocks whose
    outer bound reaches the best inner bound of the row are evaluated, with
    the full pass's arithmetic, so the result is the full pass's, value for
    value.
    """

    def __init__(self, X: np.ndarray, V: np.ndarray):
        self.X = X
        self.V = V
        self._cache: dict = {}
        n = X.shape[1]
        self._starts = (np.arange(0, n, _BLOCK)
                        if n >= _MIN_BLOCKS * _BLOCK else None)
        self._extremes: dict = {}   # op -> per-block max or min of X

    def get(self, op: str, b: float, floor: float = 0.0):
        key = (op, float(b), float(floor))
        if key not in self._cache:
            reduce = np.maximum if op == "max" else np.minimum
            c = -b if op == "max" else b
            if self._starts is None:
                X, V = self.X, self.V
                out = np.empty(X.shape[0])
                for rows in row_blocks(X.shape[0], X.shape[1]):
                    v = V[rows] if V.shape[0] > 1 else V
                    reduce.reduce(X[rows] + c * np.maximum(v, floor), axis=1,
                                  out=out[rows])
                self._cache[key] = out
            else:
                self._cache[key] = self._blockwise(op, c, floor)
        return self._cache[key]

    def _blockwise(self, op: str, c: float, floor: float) -> np.ndarray:
        X, V, starts = self.X, self.V, self._starts
        n = X.shape[1]
        reduce, other = ((np.maximum, np.minimum) if op == "max"
                         else (np.minimum, np.maximum))
        if op not in self._extremes:
            self._extremes[op] = reduce.reduceat(X, starts, axis=1)
        ext = self._extremes[op]
        # the shift is monotone along a row, so its extremes over a block lie
        # at the block's first and last columns
        first = c * np.maximum(V[:, starts], floor)
        last = c * np.maximum(V[:, np.minimum(starts + _BLOCK, n) - 1], floor)
        # no element of a block lies beyond its reach, and the row's extreme
        # lies at or beyond sure, so only blocks reaching sure can hold it
        reach = ext + reduce(first, last)
        sure = reduce.reduce(ext + other(first, last), axis=1)
        rows, blocks = np.nonzero(reach >= sure[:, None] if op == "max"
                                  else reach <= sure[:, None])
        # a short last block repeats its last column, which moves no extreme
        cols = np.minimum(starts[blocks][:, None] + np.arange(_BLOCK), n - 1)
        v_rows = rows[:, None] if V.shape[0] > 1 else 0
        found = reduce.reduce(X[rows[:, None], cols]
                              + c * np.maximum(V[v_rows, cols], floor), axis=1)
        # rows come sorted, and the block that gives sure is a candidate
        return reduce.reduceat(found, np.flatnonzero(np.diff(rows, prepend=-1)))


def _event_rows(ray: tuple, st: _RowStats) -> np.ndarray:
    """Crossed-indicator per path row of one event's ray (EventSpec.ray)."""
    side, b, floor, c = ray
    up = st.get("max", b, floor) >= c if side != "lower" else False
    down = st.get("min", b, floor) <= -c if side != "upper" else False
    return up | down


def _count_chunk(base, events, rays, seed, indices) -> np.ndarray:
    """Crossing counts of each event's ray over the paths ``indices``."""
    X, V = path_blocks(base, seed, indices)
    views = {stride: _RowStats(X[:, ::stride], V[:, ::stride])
             for stride in {ev.stride for ev in events}}   # a cache per view
    return np.array([_event_rows(ray, views[ev.stride]).sum()
                     for ev, ray in zip(events, rays)], dtype=np.int64)


def sweep(spec: ProcessSpec, events: Sequence[EventSpec], n_paths: int,
          seed: int = 0, alpha: float = 0.01,
          threads: Optional[int] = None) -> list:
    """Estimate every event on one shared set of simulated paths.

    Identical (spec, seed) always reproduces identical p_hat values whether
    events are estimated together or one at a time, and whatever the thread
    count (None: one per CPU; at least 1).
    """
    if not events:
        return []
    return _sweep_groups([(spec, events, seed)], n_paths, alpha, threads)[0]


def _chunk_jobs(spec: ProcessSpec, events: Sequence[EventSpec], n_paths: int,
                seed: int) -> list:
    """Check one group before any path is drawn; return its chunks as
    (elements, count function) pairs."""
    base, tilt = getattr(spec, "base", spec), getattr(spec, "tilt", None)
    rays = [ev.ray(tilt) for ev in events]
    row_len = row_length(base)
    rows = max(16, min(8192, int(_CHUNK_ELEMENTS // row_len)))
    if isinstance(base, PoissonCounting) and any(ev.stride != 1
                                                 for ev in events):
        raise InvalidParameter("stride events need a uniform grid")
    return [(ix.size * row_len,
             functools.partial(_count_chunk, base, events, rays, seed, ix))
            for ix in (np.arange(s, min(s + rows, n_paths))
                       for s in range(0, n_paths, rows))]


def _sweep_groups(groups: Sequence[tuple], n_paths: int, alpha: float,
                  threads: Optional[int]) -> list:
    """sweep's reports for each (spec, events, seed) group, n_paths paths
    each.  Every group is checked before any path is drawn, and the chunks
    of all groups share one pool, largest first.  A row's runtime_seconds is
    its group's summed chunk seconds over the group's event count."""
    n_workers = _check_run(n_paths, alpha, threads,
                           [seed for _, _, seed in groups])
    jobs = sorted(((size, g, work) for g, (spec, events, seed)
                   in enumerate(groups) for size, work
                   in _chunk_jobs(spec, events, n_paths, seed)),
                  key=lambda job: -job[0])

    def timed(job):
        t0 = time.perf_counter()
        counts = job[2]()
        return counts, time.perf_counter() - t0

    if n_workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            done = list(pool.map(timed, jobs))
    else:
        done = [timed(job) for job in jobs]
    counts = [np.zeros(len(events), dtype=np.int64) for _, events, _ in groups]
    seconds = [0.0] * len(groups)
    for (_, g, _), (k, dt) in zip(jobs, done):
        counts[g] += k
        seconds[g] += dt

    return [[_row(ev.label or ev.kind, k, n_paths, alpha, seed, ev.bound,
                  secs / len(events)) for ev, k in zip(events, k_group.tolist())]
            for (_, events, seed), k_group, secs in zip(groups, counts, seconds)]


def _check_run(n_paths: int, alpha: float, threads: Optional[int] = 1,
               seeds: Sequence = ()) -> int:
    """Check the run settings before any path is drawn; return the worker
    thread count (threads None: one per CPU)."""
    check_whole("n_paths", n_paths, 1)
    for seed in seeds:
        check_whole("seed", seed)
    if not (0 < alpha < 1):
        raise DomainViolation(f"alpha must lie in (0, 1), got {alpha}")
    n_workers = (os.cpu_count() or 1) if threads is None else threads
    check_whole("threads", n_workers, 1)
    return n_workers


def stopping_rows(rows: Sequence[tuple], pair: RegionPair, n_paths: int,
                  seed: int, alpha: float = 0.01) -> list:
    """A report row per (spec, kind, label) of rows, from one harvest pass
    (stopping.verify_shared_stopping) that draws each path once.

    n_crossed counts the paths that left the outer region within the
    spec's horizon; p_hat, ci_lo and ci_hi are their fraction and its
    Clopper-Pearson interval, to which alone alpha applies.  The verdict is
    verify_optional_stopping's fixed paired-SE rule, and extra is its
    OsReport.  runtime_seconds is the whole pass's measured time, in
    every row, not a share of it.
    """
    _check_run(n_paths, alpha, seeds=[seed])
    t0 = time.perf_counter()
    reps = verify_shared_stopping([(spec, kind) for spec, kind, _ in rows],
                                  pair, n_paths, seed)
    secs = time.perf_counter() - t0
    return [_row(label, int(round((1.0 - rep.truncated_outer) * n_paths)),
                 n_paths, alpha, seed, math.nan, secs, verdict=rep.verdict,
                 truncation_fraction=rep.truncated_outer, extra=rep.to_dict())
            for (_, _, label), rep in zip(rows, reps)]


def halving_allowance(p_fine: float, p_coarse: float) -> float:
    """Richardson estimate of the fine-grid crossing deficit from a paired
    (coarse = 2 dt, fine = dt) run, assuming sqrt(dt) bias order:
    bias(dt) ~= (p_fine - p_coarse) / (sqrt(2) - 1)."""
    return max(0.0, (p_fine - p_coarse) / (math.sqrt(2.0) - 1.0))
