"""Deterministic, seeded generators for the stochastic processes under test.

Every path is produced from its own random stream derived from
(master seed, path_index) via numpy SeedSequence, so results do not depend on
execution order, chunking, or thread count.  Draw order per process kind is
canonical: generating a path in blocks consumes the identical stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainViolation, InvalidParameter, InvalidSpec
from .mgf import MgfBound

_EXP_BLOCK = 64          # block size for Poisson interarrival draws


# ---------------------------------------------------------------------------
# Increment distributions for i.i.d. sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BernoulliIncrements:
    """Centered Bernoulli(p): increments in {-p, 1-p}."""

    p: float


@dataclass(frozen=True)
class UniformIncrements:
    """Uniform(-1/2, 1/2) increments."""


@dataclass(frozen=True)
class TwoPointIncrements:
    """Bounded two-point increments: hi with probability p_hi, else lo."""

    hi: float
    lo: float
    p_hi: float


@dataclass(frozen=True)
class CustomIncrements:
    """Arbitrary bounded increments drawn by sampler(rng, n). Not serializable."""

    sampler: Callable[[np.random.Generator, int], np.ndarray]
    label: str = "custom"


IncrementDist = Union[BernoulliIncrements, UniformIncrements,
                      TwoPointIncrements, CustomIncrements]


def _draw_increments(dist: IncrementDist, rng: np.random.Generator,
                     n: int) -> np.ndarray:
    if isinstance(dist, CustomIncrements):
        out = np.asarray(dist.sampler(rng, n), dtype=np.float64)
        if out.shape != (n,):
            raise InvalidSpec("custom sampler must return shape (n,)")
        return out
    return increments_from_uniforms(dist, rng.random(n))


def _validate_dist(dist: IncrementDist):
    if isinstance(dist, BernoulliIncrements) and not (0.0 < dist.p < 1.0):
        raise InvalidSpec(f"Bernoulli p must lie in (0, 1), got {dist.p}")
    if isinstance(dist, TwoPointIncrements):
        if not (0.0 < dist.p_hi < 1.0):
            raise InvalidSpec(f"p_hi must lie in (0, 1), got {dist.p_hi}")
        if not dist.lo < dist.hi:
            raise InvalidSpec("need lo < hi for two-point increments")


# ---------------------------------------------------------------------------
# Process specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IidSum:
    """Centered partial sums X_n with X_0 = 0 on the grid t = 0..n, V_n = n."""

    dist: IncrementDist
    n: int


@dataclass(frozen=True)
class LazyWalk:
    """Walk with steps +-1 (each with probability p_move/2) plus a drift."""

    p_move: float = 1.0
    n: int = 1000
    drift: float = 0.0


@dataclass(frozen=True)
class PoissonCounting:
    """Poisson counting path on its exact jump-time grid, V_t = t.

    centered=True yields X_t = N_t - lam t at the same sample points.  Upward
    crossings are detected exactly (the supremum of a counting path against an
    increasing boundary sits at jump times or the horizon); downward crossings
    of the centered sawtooth between jumps are under-counted, which is the
    conservative direction when checking empirical frequency <= bound.
    """

    lam: float
    horizon: float
    centered: bool = False


@dataclass(frozen=True)
class Brownian:
    """Brownian increments with variance dt on a uniform grid, V_t = t."""

    dt: float
    horizon: float


@dataclass(frozen=True)
class ExpSupermartingale:
    """Pointwise transform Y_t = exp(s X_t - phi(s) V_t) of a base process."""

    base: "ProcessSpec"
    s: float
    phi: MgfBound


ProcessSpec = Union[IidSum, LazyWalk, PoissonCounting, Brownian, ExpSupermartingale]


@dataclass(frozen=True)
class Path:
    """A sampled trajectory with its variance-proxy trajectory."""

    times: np.ndarray
    values: np.ndarray
    vproxy: np.ndarray
    interpolation: str = "step"

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        vproxy = np.asarray(self.vproxy, dtype=np.float64)
        if times.size == 0:
            raise InvalidParameter("path must have at least one grid point")
        if times[0] != 0.0:
            raise InvalidParameter("time grid must start at 0")
        if times.size > 1 and not np.all(np.diff(times) > 0.0):
            raise InvalidParameter("time grid must be strictly increasing")
        if values.shape != times.shape or vproxy.shape != times.shape:
            raise InvalidParameter("values/vproxy must match the time grid")
        if vproxy.size > 1 and np.any(np.diff(vproxy) < 0.0):
            raise InvalidParameter("vproxy must be non-decreasing")
        if self.interpolation not in ("step", "linear"):
            raise InvalidParameter("interpolation must be 'step' or 'linear'")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "vproxy", vproxy)


def path_rng(seed: int, path_index: int) -> np.random.Generator:
    """Per-path generator derived from (seed, path_index); order-independent."""
    if path_index < 0:
        raise InvalidParameter("path_index must be nonnegative")
    return np.random.default_rng(
        np.random.SeedSequence((int(seed) & (2 ** 64 - 1), int(path_index)))
    )


def validate_spec(spec: ProcessSpec):
    if isinstance(spec, IidSum):
        _validate_dist(spec.dist)
        if spec.n <= 0:
            raise InvalidSpec(f"IidSum needs n >= 1, got {spec.n}")
    elif isinstance(spec, LazyWalk):
        if not (0.0 <= spec.p_move <= 1.0):
            raise InvalidSpec(f"p_move must lie in [0, 1], got {spec.p_move}")
        if spec.n <= 0:
            raise InvalidSpec(f"LazyWalk needs n >= 1, got {spec.n}")
    elif isinstance(spec, PoissonCounting):
        if spec.lam <= 0 or spec.horizon <= 0:
            raise InvalidSpec("PoissonCounting needs lam > 0 and horizon > 0")
    elif isinstance(spec, Brownian):
        if spec.dt <= 0 or spec.horizon <= 0:
            raise InvalidSpec("Brownian needs dt > 0 and horizon > 0")
        if spec.horizon < spec.dt:
            raise InvalidSpec("Brownian horizon must cover at least one step")
    elif isinstance(spec, ExpSupermartingale):
        validate_spec(spec.base)
        if not spec.phi.contains(spec.s):
            raise InvalidSpec(
                f"s={spec.s} outside the domain of phi {spec.phi.label}"
            )
    else:
        raise InvalidSpec(f"unknown process spec {spec!r}")


# --- canonical increment draws (shared by single-path and batched drivers) --


def increments_from_uniforms(law, u: np.ndarray) -> np.ndarray:
    """The canonical uniform -> increment map of a LazyWalk or of a Bernoulli,
    Uniform or TwoPoint increment law, elementwise on u of any shape.

    Every draw of these laws goes through here, one uniform per step, so a
    (paths, steps) matrix of uniforms maps to the same increments as each
    row drawn on its own.
    """
    if isinstance(law, LazyWalk):
        half = law.p_move / 2.0
        inc = np.where(u < half, 1.0, np.where(u >= 1.0 - half, -1.0, 0.0))
        return inc + law.drift
    if isinstance(law, BernoulliIncrements):
        return (u < law.p).astype(np.float64) - law.p
    if isinstance(law, UniformIncrements):
        return u - 0.5
    if isinstance(law, TwoPointIncrements):
        return np.where(u < law.p_hi, law.hi, law.lo)
    raise InvalidSpec(f"no uniform transform for {law!r}")


def walk_increments(spec: LazyWalk, rng: np.random.Generator) -> np.ndarray:
    return increments_from_uniforms(spec, rng.random(spec.n))


def poisson_jump_times(spec: PoissonCounting, rng: np.random.Generator) -> np.ndarray:
    """Exact jump times in (0, horizon], drawn in fixed-size blocks."""
    jumps = []
    t = 0.0
    while True:
        gaps = rng.exponential(1.0 / spec.lam, size=_EXP_BLOCK)
        cum = t + np.cumsum(gaps)
        inside = cum[cum <= spec.horizon]
        jumps.append(inside)
        if inside.size < _EXP_BLOCK:
            break
        t = float(cum[-1])
    return np.concatenate(jumps) if jumps else np.empty(0)


def uniform_grid(spec: ProcessSpec):
    """(times, vproxy) for specs that live on a shared deterministic grid."""
    if isinstance(spec, (IidSum, LazyWalk)):
        t = np.arange(spec.n + 1, dtype=np.float64)
        return t, t.copy()
    if isinstance(spec, Brownian):
        n = int(round(spec.horizon / spec.dt))
        t = np.arange(n + 1, dtype=np.float64) * spec.dt
        return t, t.copy()
    if isinstance(spec, ExpSupermartingale):
        return uniform_grid(spec.base)
    raise InvalidSpec(f"{type(spec).__name__} has no shared uniform grid")


def generate(spec: ProcessSpec, seed: int, path_index: int = 0) -> Path:
    """Generate one path; a pure function of (spec, seed, path_index)."""
    validate_spec(spec)
    rng = path_rng(seed, path_index)
    return _generate_with_rng(spec, rng)


def _generate_with_rng(spec: ProcessSpec, rng: np.random.Generator) -> Path:
    if isinstance(spec, PoissonCounting):
        jumps = poisson_jump_times(spec, rng)
        jumps = jumps[(jumps > 0.0) & (jumps < spec.horizon)]
        times = np.concatenate([[0.0], jumps, [spec.horizon]])
        counts = np.concatenate([[0.0],
                                 np.arange(1, jumps.size + 1, dtype=np.float64),
                                 [float(jumps.size)]])
        values = counts - spec.lam * times if spec.centered else counts
        return Path(times=times, values=values, vproxy=times.copy())
    if isinstance(spec, ExpSupermartingale):
        base = _generate_with_rng(spec.base, rng)
        return transform_exp_martingale(base, spec.s, spec.phi)
    t, v = uniform_grid(spec)
    values = np.concatenate([[0.0], np.cumsum(_grid_increments(spec, rng))])
    return Path(times=t, values=values, vproxy=v)


def transform_exp_martingale(path: Path, s: float, phi: MgfBound) -> Path:
    """Pointwise transform exp(s X_t - phi(s) V_t) on the same grid."""
    if not phi.contains(s):
        raise DomainViolation(
            f"s={s} outside the open domain (-{phi.a}, {phi.b}) of {phi.label}"
        )
    ph = float(np.asarray(phi.phi(s)))
    values = np.exp(s * path.values - ph * path.vproxy)
    return Path(times=path.times, values=values, vproxy=path.vproxy,
                interpolation=path.interpolation)


def _grid_increments(spec: ProcessSpec,
                     rng: np.random.Generator) -> np.ndarray:
    """One path's increments on a shared uniform grid, in canonical order."""
    if isinstance(spec, IidSum):
        return _draw_increments(spec.dist, rng, spec.n)
    if isinstance(spec, LazyWalk):
        return walk_increments(spec, rng)
    if isinstance(spec, Brownian):
        n = int(round(spec.horizon / spec.dt))
        return rng.standard_normal(n) * math.sqrt(spec.dt)
    raise InvalidSpec(f"{type(spec).__name__} has no shared uniform grid")


def increments_matrix(spec: ProcessSpec, seed: int,
                      indices: np.ndarray) -> np.ndarray:
    """Increment rows for a batch of paths on a shared uniform grid.

    Row i uses exactly the stream of generate(spec, seed, indices[i]), so
    batched and single-path results are bit-identical.
    """
    if isinstance(spec, ExpSupermartingale):
        return increments_matrix(spec.base, seed, indices)
    out = np.empty((len(indices), uniform_grid(spec)[0].size - 1))
    for row, idx in enumerate(indices):
        out[row] = _grid_increments(spec, path_rng(seed, int(idx)))
    return out


def path_blocks(spec: ProcessSpec, seed: int, indices):
    """Yield (X, V) blocks of a base process (not an ExpSupermartingale):
    row i of X is generate(spec, seed, indices[i]).values and V the variance
    proxy of X's columns.  A shared uniform grid gives one (len(indices),
    n + 1) block; Poisson paths come one (1, m) block each, on their own grid.
    """
    if isinstance(spec, PoissonCounting):
        for idx in indices:
            path = _generate_with_rng(spec, path_rng(seed, int(idx)))
            yield path.values[None, :], path.vproxy
        return
    _, V = uniform_grid(spec)
    X = np.empty((len(indices), V.size))
    X[:, 0] = 0.0
    for row, idx in enumerate(indices):
        # a 1-D cumsum straight into the row needs no (k, n) increment matrix
        np.cumsum(_grid_increments(spec, path_rng(seed, int(idx))),
                  out=X[row, 1:])
    yield X, V


# ---------------------------------------------------------------------------
# CLI serialization
# ---------------------------------------------------------------------------

_DIST_TAGS = {"bernoulli": BernoulliIncrements, "uniform": UniformIncrements,
              "two_point": TwoPointIncrements}


def spec_from_dict(rec: dict) -> ProcessSpec:
    rec = dict(rec)
    proc = rec.pop("process", None)
    try:
        if proc == "iid_sum":
            tag = rec.pop("dist")
            cls = _DIST_TAGS[tag]
            n = rec.pop("n")
            return IidSum(dist=cls(**rec), n=int(n))
        if proc == "lazy_walk":
            return LazyWalk(**{k: rec[k] for k in rec})
        if proc == "poisson":
            return PoissonCounting(**rec)
        if proc == "brownian":
            return Brownian(**rec)
    except (KeyError, TypeError) as exc:
        raise InvalidSpec(f"bad process record: {exc}") from exc
    raise InvalidSpec(f"unknown process tag {proc!r}")
