"""Deterministic, seeded generators for the stochastic processes under test.

Every path is produced from its own random stream derived from
(master seed, path_index) via numpy SeedSequence, so results do not depend on
execution order, chunking, or thread count.  Draw order per process kind is
canonical: generating a path in blocks consumes the identical stream.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable, Union

import numpy as np

from .errors import ConfigError, DomainViolation, InvalidParameter, InvalidSpec
from .mgf import MgfBound, _from_record

_EXP_BLOCK = 64          # block size for Poisson interarrival draws
# Elements of a row block: the rows that path_blocks maps and sums, and that
# validate's full pass reduces, in one numpy call while they sit in cache.
_ROW_BLOCK = 1 << 16
_FIELD_TYPES = {"float": numbers.Real, "int": numbers.Integral, "bool": (bool, np.bool_)}


# ---------------------------------------------------------------------------
# Increment distributions for i.i.d. sums
# ---------------------------------------------------------------------------


def _typed(spec):
    """Raise InvalidSpec unless each float, int and bool field of spec holds
    one (a numpy scalar too): a bool is no number, and a number no bool."""
    for f in fields(spec):
        want, val = _FIELD_TYPES.get(f.type), getattr(spec, f.name)
        is_bool = isinstance(val, (bool, np.bool_))
        if want and (not isinstance(val, want) or is_bool != (f.type == "bool")):
            raise InvalidSpec(f"{type(spec).__name__}.{f.name} must be "
                              f"{f.type}, got {val!r}")


@dataclass(frozen=True)
class BernoulliIncrements:
    """Centered Bernoulli(p): increments in {-p, 1-p}."""

    p: float

    def __post_init__(self):
        _typed(self)
        if not (0.0 < self.p < 1.0):
            raise InvalidSpec(f"Bernoulli p must lie in (0, 1), got {self.p}")


@dataclass(frozen=True)
class UniformIncrements:
    """Uniform(-1/2, 1/2) increments."""


@dataclass(frozen=True)
class TwoPointIncrements:
    """Bounded two-point increments: hi with probability p_hi, else lo."""

    hi: float
    lo: float
    p_hi: float

    def __post_init__(self):
        _typed(self)
        if not (0.0 < self.p_hi < 1.0):
            raise InvalidSpec(f"p_hi must lie in (0, 1), got {self.p_hi}")
        if not -math.inf < self.lo < self.hi < math.inf:
            raise InvalidSpec("need finite lo < hi for two-point increments")


@dataclass(frozen=True)
class CustomIncrements:
    """Arbitrary bounded increments drawn by sampler(rng, n). Not serializable.
    The stopping harvest draws 128 steps at a time, so it matches generate
    only if sampler(rng, a + b) is sampler(rng, a) then sampler(rng, b).
    Its fill is its own, so it shares a harvest pass with no other spec."""

    sampler: Callable[[np.random.Generator, int], np.ndarray]
    label: str = "custom"


IncrementDist = Union[BernoulliIncrements, UniformIncrements,
                      TwoPointIncrements, CustomIncrements]


# ---------------------------------------------------------------------------
# Process specifications: each checks itself when built or replaced
# ---------------------------------------------------------------------------


def _check_steps(spec):
    _typed(spec)
    if spec.n < 1:
        raise InvalidSpec(f"{type(spec).__name__} needs n >= 1, got {spec.n}")


@dataclass(frozen=True)
class IidSum:
    """Centered partial sums X_n with X_0 = 0 on the grid t = 0..n, V_n = n."""

    dist: IncrementDist
    n: int

    __post_init__ = _check_steps


@dataclass(frozen=True)
class LazyWalk:
    """Walk with steps +-1 (each with probability p_move/2) plus a drift."""

    p_move: float = 1.0
    n: int = 1000
    drift: float = 0.0

    def __post_init__(self):
        _check_steps(self)
        if not (0.0 <= self.p_move <= 1.0):
            raise InvalidSpec(f"p_move must lie in [0, 1], got {self.p_move}")
        if not math.isfinite(self.drift):
            raise InvalidSpec(f"LazyWalk drift must be finite, got {self.drift}")


@dataclass(frozen=True)
class PoissonCounting:
    """Poisson counting path on its exact jump-time grid, V_t = t; a block
    of them is one row each, padded with its horizon point (path_blocks).

    centered=True yields X_t = N_t - lam t at the same sample points.  Upward
    crossings are detected exactly (the supremum of a counting path against an
    increasing boundary sits at jump times or the horizon); downward crossings
    of the centered sawtooth between jumps are missed.  pois_line_lower_t2
    reads p ~ 0.364 on this grid, against ~ 0.735 with each jump's left limit
    and a bound of 2/e = 0.7358, so a "holds" on a lower-side row tests little.
    """

    lam: float
    horizon: float
    centered: bool = False

    def __post_init__(self):
        _typed(self)
        if not (0 < self.lam < math.inf and 0 < self.horizon < math.inf):
            raise InvalidSpec(
                "PoissonCounting needs finite lam > 0 and horizon > 0")


@dataclass(frozen=True)
class Brownian:
    """Brownian increments with variance dt on a uniform grid, V_t = t; the
    horizon is a whole number of dt steps, at least one."""

    dt: float
    horizon: float

    def __post_init__(self):
        _typed(self)
        if not (0 < self.dt < math.inf and 0 < self.horizon < math.inf):
            raise InvalidSpec("Brownian needs finite dt > 0 and horizon > 0")
        n = round(min(self.horizon / self.dt, 2.0 ** 62))  # a finite int
        if n < 1 or abs(n * self.dt - self.horizon) > 1e-9 * self.horizon:
            raise InvalidSpec(f"Brownian horizon {self.horizon} must be a "
                              f"whole number >= 1 of dt = {self.dt} steps")


@dataclass(frozen=True)
class ExpSupermartingale:
    """Pointwise transform Y_t = exp(s X_t - phi(s) V_t) of a base process."""

    base: "ProcessSpec"
    s: float
    phi: MgfBound

    def __post_init__(self):
        _typed(self)
        if not self.phi.contains(self.s):
            raise InvalidSpec(
                f"s={self.s} outside the domain of phi {self.phi.label}")


ProcessSpec = Union[IidSum, LazyWalk, PoissonCounting, Brownian, ExpSupermartingale]


@dataclass(frozen=True)
class Path:
    """A sampled trajectory with its variance-proxy trajectory."""

    times: np.ndarray
    values: np.ndarray
    vproxy: np.ndarray

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


# numpy's SeedSequence hash (pool size 4) and the PCG64 seeding step
# (O'Neill 2014, pcg_setseq_128_srandom_r), restated so that path_streams
# can seed a block of paths in one vectorized pass.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_STREAM_SLICE = 1024     # indices hashed per vectorized pass


def _seed_words(n: int) -> list:
    """The little-endian uint32 words SeedSequence takes from an int."""
    words = []
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words or [0]


def _pcg64_states(seed_words: list, idx: np.ndarray) -> list:
    """(state, inc) of default_rng(SeedSequence((seed, i))) for each uint32
    index i, where seed_words are the seed's words.

    Each hash step works alike on Python ints (words shared by every row)
    and on uint32 arrays (one entry per row).  At most 3 entropy words fit
    the pool of 4, so SeedSequence's mixing of surplus words never runs.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    words = seed_words + [idx]
    pool = [hashmix(words[i] if i < len(words) else 0)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = ((_MIX_MULT_L * pool[dst] & _MASK32)
                         - (_MIX_MULT_R * hashmix(pool[src]) & _MASK32)) & _MASK32
                pool[dst] = mixed ^ mixed >> 16
    # generate_state(4, np.uint64): 8 words, each pair one little-endian uint64
    const = _INIT_B
    out = []
    for j in range(8):
        value = pool[j % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        out.append((value ^ value >> 16).astype(np.uint64))
    seed_hi, seed_lo, seq_hi, seq_lo = (
        (out[2 * q] | out[2 * q + 1] << 32).tolist() for q in range(4))
    states = []
    for s_hi, s_lo, q_hi, q_lo in zip(seed_hi, seed_lo, seq_hi, seq_lo):
        # state = 0, inc = 2 seq + 1; step; state += seed; step
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        state = (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


def path_streams(seed: int, indices, gens: list):
    """Yield, for each i in indices in order, a generator whose stream is
    path_rng(seed, i)'s, bit for bit.

    The PCG64 states of up to _STREAM_SLICE indices are computed in one
    vectorized pass of the SeedSequence hash, and each is set into the next
    generator of ``gens`` in turn, so a yielded generator is re-stated once
    len(gens) more have been yielded.  An index the hash does not cover
    (2**32 or more, or negative) gets path_rng(seed, i) itself.
    """
    words = _seed_words(int(seed) & (2 ** 64 - 1))
    turn = 0
    for s0 in range(0, len(indices), _STREAM_SLICE):
        part = [int(i) for i in indices[s0:s0 + _STREAM_SLICE]]
        idx = np.array([i for i in part if 0 <= i <= _MASK32], dtype=np.uint32)
        states = iter(_pcg64_states(words, idx))
        for i in part:
            if not 0 <= i <= _MASK32:
                yield path_rng(seed, i)
                continue
            state, inc = next(states)
            gen = gens[turn % len(gens)]
            turn += 1
            gen.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0, "uinteger": 0}
            yield gen


# --- step draws: every grid producer draws through step_draws -------------


def _fill_uniform(rng, row):
    rng.random(out=row)


def _fill_normal(rng, row):
    rng.standard_normal(out=row)


def step_draws(spec: ProcessSpec):
    """(V, fill, steps) of a process on a shared uniform grid V (V_t = t).

    fill(rng, row) draws the next row.size steps of a path's stream into
    row, and steps(blk) maps rows of any shape elementwise to increments.
    A step takes one normal (Brownian) or one uniform (walks and the
    Bernoulli, Uniform and TwoPoint laws); a CustomIncrements sampler is
    called once per fill and must split as its docstring says.  So a path
    filled a block at a time draws one whole-path fill's stream, and a
    (paths, steps) matrix maps to each row's own increments.  Specs whose
    fill is the same object (a custom one never is) on equal grids V draw
    the same stream.
    """
    if isinstance(spec, Brownian):
        scale = math.sqrt(spec.dt)
        V = np.arange(round(spec.horizon / spec.dt) + 1.0) * spec.dt
        return V, _fill_normal, lambda blk: blk * scale
    if not isinstance(spec, (IidSum, LazyWalk)):
        raise InvalidSpec(f"{type(spec).__name__} has no shared uniform grid")
    V = np.arange(spec.n + 1.0)
    law = spec.dist if isinstance(spec, IidSum) else spec
    if isinstance(law, CustomIncrements):
        def fill(rng, row):
            out = np.asarray(law.sampler(rng, row.size), dtype=np.float64)
            if out.shape != row.shape:
                raise InvalidSpec("custom sampler must return shape (n,)")
            row[:] = out
        return V, fill, lambda blk: blk
    if isinstance(law, LazyWalk):
        half = law.p_move / 2.0
        steps = lambda u: ((u < half).astype(np.float64) - (u >= 1.0 - half)
                           + law.drift)
    elif isinstance(law, BernoulliIncrements):
        steps = lambda u: (u < law.p).astype(np.float64) - law.p
    elif isinstance(law, UniformIncrements):
        steps = lambda u: u - 0.5
    elif isinstance(law, TwoPointIncrements):
        steps = lambda u: np.where(u < law.p_hi, law.hi, law.lo)
    else:
        raise InvalidSpec(f"unknown increment law {law!r}")
    return V, _fill_uniform, steps


def walk_increments(spec: LazyWalk, rng: np.random.Generator) -> np.ndarray:
    _, fill, steps = step_draws(spec)
    row = np.empty(spec.n)
    fill(rng, row)
    return steps(row)


def poisson_jump_times(spec: PoissonCounting, rng: np.random.Generator) -> np.ndarray:
    """Exact jump times in (0, horizon), drawn in blocks of _EXP_BLOCK
    interarrivals into one reused buffer.

    A block is rng.exponential(1 / lam, _EXP_BLOCK) accumulated onto the
    last jump, bit for bit, drawn in place as scaled standard exponentials.
    """
    buf = np.empty(_EXP_BLOCK)
    jumps, t = [], 0.0
    while True:
        rng.standard_exponential(out=buf)
        buf *= 1.0 / spec.lam
        np.add.accumulate(buf, out=buf)
        buf += t
        jumps.append(buf[(buf > 0.0) & (buf < spec.horizon)])
        if buf[-1] > spec.horizon:
            return np.concatenate(jumps) if len(jumps) > 1 else jumps[0]
        t = float(buf[-1])


def generate(spec: ProcessSpec, seed: int, path_index: int = 0) -> Path:
    """One path, a pure function of (spec, seed, path_index): the row of
    path_blocks(spec, seed, [path_index]), transformed for an ExpSupermartingale."""
    if isinstance(spec, ExpSupermartingale):
        return transform_exp_martingale(generate(spec.base, seed, path_index),
                                        spec.s, spec.phi)
    X, V = path_blocks(spec, seed, [path_index])
    return Path(times=V[0], values=X[0], vproxy=V[0].copy())


def transform_exp_martingale(path: Path, s: float, phi: MgfBound) -> Path:
    """Pointwise transform exp(s X_t - phi(s) V_t) on the same grid."""
    if not phi.contains(s):
        raise DomainViolation(
            f"s={s} outside the open domain (-{phi.a}, {phi.b}) of {phi.label}"
        )
    ph = float(np.asarray(phi.phi(s)))
    values = np.exp(s * path.values - ph * path.vproxy)
    return Path(times=path.times, values=values, vproxy=path.vproxy)


def increments_matrix(spec: ProcessSpec, seed: int,
                      indices: np.ndarray) -> np.ndarray:
    """Increment rows for a batch of paths on a shared uniform grid.

    Row i uses exactly the stream of generate(spec, seed, indices[i]), so
    batched and single-path results are bit-identical.
    """
    V, fill, steps = step_draws(spec)
    out = np.empty((len(indices), V.size - 1))
    streams = path_streams(seed, indices, [np.random.default_rng(0)])
    for row, rng in enumerate(streams):
        fill(rng, out[row])
    return steps(out)


def path_blocks(spec: ProcessSpec, seed: int, indices):
    """(X, V) of a base process (not an ExpSupermartingale): row i of X is
    the path of index indices[i], and V the times and variance proxy of X's
    columns.  Every path is built here but the grid paths of the stopping
    harvest (stopping._harvest_exits), which stop drawing at their outer
    exit.  On a shared uniform grid V is one (1, n + 1) row.
    Poisson paths are built in one batch, X and V (len(indices), m) on each
    row's own jump times, where m is the longest row's length and a shorter
    row repeats its horizon point to the end, which moves no max, min or
    first exit.
    """
    # one generator per call, re-stated per row: threads share no state
    streams = path_streams(seed, indices, [np.random.default_rng(0)])
    if isinstance(spec, PoissonCounting):
        jumps = [poisson_jump_times(spec, rng) for rng in streams]
        n_jumps = np.array([j.size for j in jumps])[:, None]
        cols = np.arange(n_jumps.max() + 2.0)
        V = np.full((len(jumps), cols.size), spec.horizon)
        V[:, 0] = 0.0
        V[:, 1:][cols[1:] <= n_jumps] = np.concatenate(jumps)
        X = np.minimum(cols, n_jumps)
        return (X - spec.lam * V if spec.centered else X), V
    V, fill, steps = step_draws(spec)
    X = np.empty((len(indices), V.size))
    X[:, 0] = 0.0
    # only the stream set-up and fill run per path; the step map and the
    # cumsum, elementwise and per row, run once per row block
    for rows in row_blocks(len(indices), V.size - 1):
        blk = X[rows, 1:]
        for row, rng in zip(blk, streams):
            fill(rng, row)
        np.cumsum(steps(blk), axis=1, out=blk)
    return X, V[None, :]


def row_blocks(n_rows: int, row_len: int) -> list:
    """Slices of consecutive rows, each as many as hold _ROW_BLOCK elements
    of row_len each (at least one row)."""
    per = max(1, _ROW_BLOCK // row_len)
    return [slice(r, r + per) for r in range(0, n_rows, per)]


# ---------------------------------------------------------------------------
# CLI serialization
# ---------------------------------------------------------------------------

_DIST_TAGS = {"bernoulli": BernoulliIncrements, "uniform": UniformIncrements,
              "two_point": TwoPointIncrements}
_PROCESS_TAGS = {"iid_sum": IidSum, "lazy_walk": LazyWalk,
                 "poisson": PoissonCounting, "brownian": Brownian}


def spec_from_dict(rec: dict) -> ProcessSpec:
    """The process of a tagged record, e.g. ``{"process": "brownian", "dt":
    0.001, "horizon": 30.0}``, each value cast to its field's type (a bad tag,
    key or value raises ConfigError); an iid_sum names its law in ``dist``
    (default "uniform")."""
    rec = dict(rec)
    proc = rec.pop("process", None)
    cls = _PROCESS_TAGS.get(proc) if isinstance(proc, str) else None
    if cls is None:
        raise ConfigError(f"unknown process {proc!r}")
    built = {}
    if cls is IidSum:
        law = rec.pop("dist", "uniform")
        if not (isinstance(law, str) and law in _DIST_TAGS):
            raise ConfigError(f"unknown increment law {law!r}")
        built["dist"] = _from_record(_DIST_TAGS[law], rec)
    spec = _from_record(cls, rec, **built)
    if rec:
        raise ConfigError(f"unknown key {next(iter(rec))!r} for {proc}")
    return spec


def spec_to_dict(spec: ProcessSpec) -> dict:
    """The tagged record that spec_from_dict reads back as spec."""
    tag = {cls: tag for tag, cls in {**_PROCESS_TAGS, **_DIST_TAGS}.items()}
    rec = {"process": tag[type(spec)], **vars(spec)}
    if isinstance(spec, IidSum):
        rec.update(vars(spec.dist), dist=tag[type(spec.dist)])
    return rec
