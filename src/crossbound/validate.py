"""Monte Carlo estimation of boundary-crossing probabilities and statistically
sound comparison against theoretical bounds.

A finite horizon can only under-count crossings, so a "violated" verdict
(exact lower confidence limit above the bound) is a sound conclusion, while
"holds" is conservative.  Intervals are exact Clopper-Pearson throughout.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy import stats as _scipy_stats

from .errors import DomainViolation, InvalidParameter
from .sim import (
    ExpSupermartingale,
    PoissonCounting,
    ProcessSpec,
    generate,  # noqa: F401  (kept importable; benchmarks/tracing.py patches it)
    increments_matrix,  # noqa: F401  (likewise)
    path_blocks,
    uniform_grid,
    validate_spec,
)
from .stopping import RegionPair, _with_horizon, verify_optional_stopping

SCHEMA_VERSION = "1"

EVENT_KINDS = ("line", "vee", "eta_ray", "sup_level")
# Elements per simulated chunk, and per block of rows in a row reduction:
# together they bound the memory a chunk holds beyond its path matrix.
_CHUNK_ELEMENTS = 3_000_000
_REDUCE_ELEMENTS = 262_144


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
    lo = 0.0 if k == 0 else float(_scipy_stats.beta.ppf(alpha / 2.0, k, n - k + 1))
    hi = 1.0 if k == n else float(_scipy_stats.beta.ppf(1.0 - alpha / 2.0, k + 1, n - k))
    return lo, hi


@dataclass(frozen=True)
class EventSpec:
    """A crossing event paired with the theoretical bound it must respect.

    kinds: "line" (moving boundary gamma V_tau + slope (V_t - V_tau); side may
    be two_sided for the absolute-value envelope), "vee" (eta + gamma
    (V_tau v V_t)), "eta_ray" (eta + gamma V_t) and "sup_level"
    (sup Y_t >= gamma).

    On a uniform grid an event may see part of each path: its first
    ``steps`` grid steps (None: all), and with stride=2 only every second
    grid point of those, the 2 dt subgrid of the same paths.
    """

    kind: str
    side: str = "upper"
    gamma: float = 0.0
    v_tau: float = 0.0
    slope: float = 0.0
    eta: float = 0.0
    bound: float = math.nan
    label: str = ""
    steps: Optional[int] = None
    stride: int = 1

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise InvalidParameter(f"unknown event kind {self.kind!r}")
        if self.side not in ("upper", "lower", "two_sided"):
            raise InvalidParameter(f"unknown side {self.side!r}")
        if self.side == "two_sided" and self.kind != "line":
            raise InvalidParameter("two_sided applies to line events only")
        if self.stride not in (1, 2):
            raise InvalidParameter(f"stride must be 1 or 2, got {self.stride}")


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
        return ("schema_version,label,n_paths,n_crossed,p_hat,ci_lo,ci_hi,"
                "bound,verdict,truncation_fraction,runtime_seconds,alpha,seed")

    def csv_row(self) -> str:
        return ",".join([
            SCHEMA_VERSION, self.label, str(self.n_paths), str(self.n_crossed),
            fmt17(self.p_hat), fmt17(self.ci_lo), fmt17(self.ci_hi),
            fmt17(self.bound), self.verdict, fmt17(self.truncation_fraction),
            f"{self.runtime_seconds:.3f}", fmt17(self.alpha), str(self.seed),
        ])


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
    """Cached row statistics max/min of X -+ b V over column ranges.

    Events sharing a slope reuse one pass over the chunk, which dominates the
    evaluation cost for long grids.  X -+ b V is formed a block of rows at a
    time, so the pass needs no temporary the size of the chunk.
    """

    def __init__(self, X: np.ndarray, V: np.ndarray):
        self.X = X
        self.V = V
        self._cache: dict = {}

    def get(self, op: str, b: float, lo: int, hi: Optional[int]):
        key = (op, float(b), lo, hi)
        got = self._cache.get(key)
        if got is not None:
            return got
        Xs = self.X[:, lo:hi]
        reduce = np.maximum if op == "max" else np.minimum
        if b == 0.0:
            out = reduce.reduce(Xs, axis=1)
        else:
            shift = (-b if op == "max" else b) * self.V[lo:hi]
            out = np.empty(Xs.shape[0])
            rows = max(1, _REDUCE_ELEMENTS // shift.size)
            for r in range(0, out.size, rows):
                reduce.reduce(Xs[r:r + rows] + shift, axis=1,
                              out=out[r:r + rows])
        self._cache[key] = out
        return out


def _event_rows(event: EventSpec, st: _RowStats,
                transform: Optional[tuple]) -> np.ndarray:
    """Boolean crossed-indicator per path row for one event."""
    n_cols = st.V.size
    if event.kind == "sup_level":
        if transform is None:
            return st.get("max", 0.0, 0, None) >= event.gamma
        s, phi_s = transform
        level = math.log(event.gamma)
        if s > 0:
            return st.get("max", phi_s / s, 0, None) >= level / s
        return st.get("min", -phi_s / s, 0, None) <= level / s
    if event.kind == "line":
        c = (event.gamma - event.slope) * event.v_tau
        if event.side == "upper":
            return st.get("max", event.slope, 0, None) >= c
        if event.side == "lower":
            return st.get("min", event.slope, 0, None) <= -c
        up = st.get("max", event.slope, 0, None) >= c
        dn = st.get("min", event.slope, 0, None) <= -c
        return up | dn
    if event.kind == "eta_ray":
        if event.side == "upper":
            return st.get("max", event.gamma, 0, None) >= event.eta
        return st.get("min", event.gamma, 0, None) <= -event.eta
    if event.kind == "vee":
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
    raise InvalidParameter(f"cannot evaluate event kind {event.kind!r} here")


def _count_chunk(base, events, seed, indices, transform) -> np.ndarray:
    """Crossing counts per event over the paths ``indices`` of the base
    process; transform = (s, phi(s)) for an exponential supermartingale."""
    counts = np.zeros(len(events), dtype=np.int64)
    for X, V in path_blocks(base, seed, indices):
        views = {}
        for j, ev in enumerate(events):
            key = (ev.steps, ev.stride)
            if key not in views:
                stop = None if ev.steps is None else ev.steps + 1
                views[key] = _RowStats(X[:, :stop:ev.stride], V[:stop:ev.stride])
            counts[j] += int(_event_rows(ev, views[key], transform).sum())
    return counts


def sweep(spec: ProcessSpec, events: Sequence[EventSpec], n_paths: int,
          horizon=None, seed: int = 0, alpha: float = 0.01,
          threads: Optional[int] = None,
          chunk_size: Optional[int] = None) -> list:
    """Estimate every event on one shared set of simulated paths.

    Identical (spec, seed) always reproduces identical p_hat values whether
    events are estimated together or one at a time, and whatever the thread
    count (None: one per CPU; at least 1) and chunk size.
    """
    if not events:
        return []
    validate_spec(spec)
    n_workers = _check_run(n_paths, alpha, threads)
    if horizon is not None:
        spec = _with_horizon(spec, horizon)
    t0 = time.perf_counter()

    base, transform = spec, None
    if isinstance(spec, ExpSupermartingale):
        base = spec.base
        transform = spec.s, float(np.asarray(spec.phi.phi(spec.s)))
    if isinstance(base, PoissonCounting):
        n_cols, chunk = None, chunk_size or 2048
    else:
        n_cols = uniform_grid(base)[1].size
        chunk = chunk_size or max(16, min(8192, _CHUNK_ELEMENTS // n_cols))
    if any((ev.steps, ev.stride) != (None, 1) and (n_cols is None or not (
            ev.steps is None or 0 < ev.steps < n_cols)) for ev in events):
        raise InvalidParameter("steps/stride events need a uniform grid "
                               "and 1 <= steps <= its number of steps")
    jobs = [np.arange(s, min(s + chunk, n_paths))
            for s in range(0, n_paths, chunk)]
    work = lambda ix: _count_chunk(base, events, seed, ix, transform)
    if n_workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            counts = np.sum(list(pool.map(work, jobs)), axis=0)
    else:
        counts = np.sum([work(ix) for ix in jobs], axis=0)

    elapsed = time.perf_counter() - t0
    out = []
    for ev, k in zip(events, counts.tolist()):
        lo, hi = clopper_pearson(k, n_paths, alpha)
        p_hat = k / n_paths
        out.append(ValidationReport(
            label=ev.label or ev.kind, n_paths=n_paths, n_crossed=k,
            p_hat=p_hat, ci_lo=lo, ci_hi=hi, bound=ev.bound,
            verdict=_verdict(lo, hi, ev.bound),
            truncation_fraction=1.0 - p_hat,
            runtime_seconds=elapsed / len(events),
            alpha=alpha, seed=seed))
    return out


def _check_run(n_paths: int, alpha: float, threads: Optional[int] = 1) -> int:
    """Check the run settings before any path is drawn; return the worker
    thread count (threads None: one per CPU)."""
    if n_paths <= 0:
        raise InvalidParameter("n_paths must be positive")
    if not (0 < alpha < 1):
        raise DomainViolation(f"alpha must lie in (0, 1), got {alpha}")
    n_workers = (os.cpu_count() or 1) if threads is None else threads
    if n_workers < 1:
        raise InvalidParameter(f"threads must be at least 1, got {threads}")
    return n_workers


def stopping_row(spec: ProcessSpec, pair: RegionPair, n_paths: int, horizon,
                 seed: int, kind: str = "martingale", label: str = "stopping",
                 alpha: float = 0.01) -> ValidationReport:
    """One optional-stopping check as a report row.

    n_crossed counts the paths that left the outer region within the
    horizon; p_hat, ci_lo and ci_hi are their fraction and its
    Clopper-Pearson interval, to which alone alpha applies.  The verdict is
    verify_optional_stopping's fixed paired-SE rule, and extra is its
    OsReport.
    """
    _check_run(n_paths, alpha)
    t0 = time.perf_counter()
    rep = verify_optional_stopping(spec, pair, n_paths, horizon, seed, kind=kind)
    k = int(round((1.0 - rep.truncated_outer) * n_paths))
    lo, hi = clopper_pearson(k, n_paths, alpha)
    return ValidationReport(
        label=label, n_paths=n_paths, n_crossed=k, p_hat=k / n_paths,
        ci_lo=lo, ci_hi=hi, bound=math.nan, verdict=rep.verdict,
        truncation_fraction=rep.truncated_outer,
        runtime_seconds=time.perf_counter() - t0, alpha=alpha, seed=seed,
        extra=rep.to_dict())


def halving_allowance(p_fine: float, p_coarse: float) -> float:
    """Richardson estimate of the fine-grid crossing deficit from a paired
    (coarse = 2 dt, fine = dt) run, assuming sqrt(dt) bias order:
    bias(dt) ~= (p_fine - p_coarse) / (sqrt(2) - 1)."""
    return max(0.0, (p_fine - p_coarse) / (math.sqrt(2.0) - 1.0))
