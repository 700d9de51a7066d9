"""Catalog of log-MGF upper bounds ("phi functions") and validity diagnostics.

Each entry supplies a function phi(s) with phi(0) = 0, phi >= 0 and phi convex
on an open interval (-a, b), such that increments Y of the paired process
satisfy  E[exp(s (Y - mu))] <= exp(phi(s) * dV)  per unit of variance proxy dV.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, DomainViolation, InvalidParameter

INF = math.inf


# ---------------------------------------------------------------------------
# phi-kind descriptors (serializable parameter records)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gaussian:
    """phi(s) = v s^2 / 2; exact log-MGF of a centered normal with variance v."""

    v: float = 1.0


@dataclass(frozen=True)
class Bennett:
    """Two-point MGF bound for a centered variable with E[Y^2] = sigma2, Y <= b."""

    sigma2: float
    b: float


@dataclass(frozen=True)
class HoeffdingBernoulli:
    """phi(s) = ln(1 - mu + mu e^s) - mu s for variables in [0, 1] with mean mu."""

    mu: float


@dataclass(frozen=True)
class Uniform24:
    """phi(s) = s^2 / 24, dominating the MGF of Uniform(-1/2, 1/2)."""


@dataclass(frozen=True)
class PoissonCentered:
    """phi(s) = lam (e^s - 1 - s); exact log-MGF of a centered Poisson count."""

    lam: float


@dataclass(frozen=True)
class Bernstein:
    """phi(s) = s^2 / (2 (1 - b s / 3)) on (0, 3/b); upper tail only."""

    b: float


@dataclass(frozen=True)
class CbbExp:
    """phi(s) = (e^{sb} - 1 - sb) / b^2 for martingale differences <= b."""

    b: float


@dataclass(frozen=True)
class Custom:
    """User-supplied phi with an explicit open domain (-a, b)."""

    phi: Callable[[np.ndarray], np.ndarray]
    a: float = INF
    b: float = INF
    phi_deriv: Optional[Callable[[np.ndarray], np.ndarray]] = None
    claims_equality: bool = False
    label: str = "custom"


PhiKind = Union[
    Gaussian, Bennett, HoeffdingBernoulli, Uniform24, PoissonCentered,
    Bernstein, CbbExp, Custom,
]


# ---------------------------------------------------------------------------
# MgfBound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MgfBound:
    """A phi function together with its open domain (-a, b) and validity flags.

    ``phi`` accepts scalars or numpy arrays and is not domain-checked; callers
    check s with :meth:`contains`.  It must be a pure function of s, because
    what is derived from it is cached on the instance, in ``memo``: the record
    :meth:`describe` echoes, and per side (``"upper"``, ``"lower"``) the
    optimizer's gamma-free work (its probe grid and phi on it, the slope
    root's monotonicity verdict and its doubling ratios or edge limit, and
    phi(s)/s at the domain edge and at infinity), each filled on first use.
    Filling is idempotent: threads that race compute the same values and one
    is kept, so an instance stays safe to share across workers.  The other
    fields are frozen; a ``dataclasses.replace`` copy starts with an empty
    memo.
    """

    a: float
    b: float
    phi: Callable[[np.ndarray], np.ndarray]
    phi_deriv: Optional[Callable[[np.ndarray], np.ndarray]] = None
    claims_equality: bool = False
    lower_tail_supported: bool = True
    label: str = "custom"
    kind: Optional[PhiKind] = field(default=None, repr=False)
    memo: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)

    def contains(self, s) -> bool:
        s = np.asarray(s, dtype=float)
        return bool(np.all(s > -self.a) and np.all(s < self.b))

    def describe(self) -> dict:
        """Serializable parameter echo for reports (a fresh copy per call):
        the label, the domain radii ``a`` and ``b``, and for a catalog kind
        its tagged record under ``phi_kind``, which ``--phi`` reads back."""
        rec = self.memo.get("describe")
        if rec is None:
            rec = {"phi": self.label, "a": self.a, "b": self.b}
            if self.kind is not None and not isinstance(self.kind, Custom):
                rec["phi_kind"] = phi_kind_to_dict(self.kind)
            rec = self.memo.setdefault("describe", rec)
        rec = dict(rec)
        if "phi_kind" in rec:
            rec["phi_kind"] = dict(rec["phi_kind"])
        return rec


def _positive(name: str, value: float) -> float:
    value = float(value)
    if not (value > 0.0) or not math.isfinite(value):
        raise InvalidParameter(f"{name} must be a positive finite number, got {value}")
    return value


_SMALL_S = 1e-3  # below this |s|, _near_zero's second form serves


def _near_zero(phi_big: Callable, phi_small: Callable,
               cut: float = _SMALL_S) -> Callable:
    """phi_big(s), but phi_small(s) at |s| < cut (cut <= _SMALL_S).

    phi_big's terms of order s cancel near 0 and leave rounding noise as
    large as the order-s^2 value (Hoeffding's phi read -8.5e-17 at s = 1e-8);
    the log1p/expm1 form keeps the digits there but overflows at large s.
    Values at |s| >= cut are phi_big's, bit for bit.
    """
    def phi(s):
        s = np.asarray(s, dtype=float)
        if s.ndim == 0:
            return (phi_small if abs(s) < cut else phi_big)(s)
        small = np.abs(s) < cut
        if not small.any():
            return phi_big(s)
        return np.where(small, phi_small(np.where(small, s, 0.0)), phi_big(s))
    return phi


def make_phi(kind: PhiKind) -> MgfBound:
    """Build the MgfBound for a catalog entry, validating its parameters."""
    if isinstance(kind, Gaussian):
        v = _positive("v", kind.v)
        return MgfBound(
            a=INF, b=INF,
            phi=lambda s, v=v: 0.5 * v * np.square(s),
            phi_deriv=lambda s, v=v: v * np.asarray(s, dtype=float),
            claims_equality=True,
            label="gaussian", kind=kind,
        )
    if isinstance(kind, Bennett):
        sigma2 = _positive("sigma2", kind.sigma2)
        b = _positive("b", kind.b)
        wb = b * b / (b * b + sigma2)
        ws = sigma2 / (b * b + sigma2)
        r = sigma2 / b

        def phi_big(s, wb=wb, ws=ws, r=r, b=b):
            # log-sum-exp for numerical stability at large |s|
            e1 = -r * s + np.log(wb)
            e2 = b * s + np.log(ws)
            m = np.maximum(e1, e2)
            return m + np.log(np.exp(e1 - m) + np.exp(e2 - m))

        # The expm1 terms overflow once b|s| or r|s| passes ~709.8, which a
        # large b or sigma2/b reaches below |s| = 1e-3; keep both at most 1.
        phi = _near_zero(
            phi_big,
            lambda s, wb=wb, ws=ws, r=r, b=b:
                np.log1p(wb * np.expm1(-r * s) + ws * np.expm1(b * s)),
            cut=min(_SMALL_S, 1.0 / max(b, r)))

        def phi_deriv(s, wb=wb, ws=ws, r=r, b=b):
            s = np.asarray(s, dtype=float)
            e1 = -r * s + np.log(wb)
            e2 = b * s + np.log(ws)
            m = np.maximum(e1, e2)
            p1 = np.exp(e1 - m)
            p2 = np.exp(e2 - m)
            return (-r * p1 + b * p2) / (p1 + p2)

        return MgfBound(a=INF, b=INF, phi=phi, phi_deriv=phi_deriv,
                        label="bennett", kind=kind)
    if isinstance(kind, HoeffdingBernoulli):
        mu = float(kind.mu)
        if not (0.0 < mu < 1.0):
            raise InvalidParameter(f"mu must lie in (0, 1), got {mu}")

        # ln(1 - mu + mu e^s) - mu s, stable for large positive s
        phi = _near_zero(
            lambda s, mu=mu:
                np.logaddexp(np.log(1.0 - mu), np.log(mu) + s) - mu * s,
            lambda s, mu=mu: np.log1p(mu * np.expm1(s)) - mu * s)

        def phi_deriv(s, mu=mu):
            s = np.asarray(s, dtype=float)
            w = np.exp(np.log(mu) + s - np.logaddexp(np.log(1.0 - mu), np.log(mu) + s))
            return w - mu

        return MgfBound(a=INF, b=INF, phi=phi, phi_deriv=phi_deriv,
                        label="hoeffding_bernoulli", kind=kind)
    if isinstance(kind, Uniform24):
        return MgfBound(
            a=INF, b=INF,
            phi=lambda s: np.square(s) / 24.0,
            phi_deriv=lambda s: np.asarray(s, dtype=float) / 12.0,
            label="uniform24", kind=kind,
        )
    if isinstance(kind, PoissonCentered):
        lam = _positive("lam", kind.lam)
        return MgfBound(
            a=INF, b=INF,
            phi=lambda s, lam=lam: lam * (np.expm1(s) - np.asarray(s, dtype=float)),
            phi_deriv=lambda s, lam=lam: lam * np.expm1(s),
            claims_equality=True,
            label="poisson_centered", kind=kind,
        )
    if isinstance(kind, Bernstein):
        b = _positive("b", kind.b)

        def phi(s, b=b):
            s = np.asarray(s, dtype=float)
            return np.square(s) / (2.0 * (1.0 - b * s / 3.0))

        def phi_deriv(s, b=b):
            s = np.asarray(s, dtype=float)
            d = 1.0 - b * s / 3.0
            return s * (2.0 - b * s / 3.0) / (2.0 * d * d)

        # Pole at s = 3/b limits the upper domain; the negative branch is not
        # defined by the source inequality, so lower-tail use is rejected.
        return MgfBound(a=INF, b=3.0 / b, phi=phi, phi_deriv=phi_deriv,
                        lower_tail_supported=False, label="bernstein", kind=kind)
    if isinstance(kind, CbbExp):
        b = _positive("b", kind.b)

        def phi(s, b=b):
            s = np.asarray(s, dtype=float)
            return (np.expm1(b * s) - b * s) / (b * b)

        def phi_deriv(s, b=b):
            s = np.asarray(s, dtype=float)
            return np.expm1(b * s) / b

        return MgfBound(a=INF, b=INF, phi=phi, phi_deriv=phi_deriv,
                        label="cbb_exp", kind=kind)
    if isinstance(kind, Custom):
        a = float(kind.a)
        b = float(kind.b)
        if not (a > 0.0 and b > 0.0):
            raise InvalidParameter("custom domain radii a, b must be positive")
        return MgfBound(a=a, b=b, phi=kind.phi, phi_deriv=kind.phi_deriv,
                        claims_equality=kind.claims_equality,
                        label=kind.label, kind=kind)
    raise InvalidParameter(f"unknown phi kind: {kind!r}")


# ---------------------------------------------------------------------------
# Tagged records: phi kinds, and the field decoder sim's process records share
# ---------------------------------------------------------------------------

_KIND_TAGS = {
    "gaussian": Gaussian,
    "bennett": Bennett,
    "hoeffding_bernoulli": HoeffdingBernoulli,
    "uniform24": Uniform24,
    "poisson_centered": PoissonCentered,
    "bernstein": Bernstein,
    "cbb_exp": CbbExp,
}


def phi_kind_to_dict(kind: PhiKind) -> dict:
    for tag, cls in _KIND_TAGS.items():
        if isinstance(kind, cls):
            return {"kind": tag,
                    **{f.name: getattr(kind, f.name) for f in fields(cls)}}
    raise InvalidParameter(f"phi kind {kind!r} is not serializable")


def _strict(cast, *takes):
    """cast, for a value of a type in takes only (a bool is an int to
    isinstance, so it passes only where takes names bool)."""
    def check(val):
        if not isinstance(val, takes) or (isinstance(val, bool)
                                          and bool not in takes):
            raise TypeError(val)
        return cast(val)
    return check


# a type's name -> its strict cast, for config values and record fields: an
# int takes a JSON integer or a string int() parses (not 1.9 or true), a float
# any JSON number or a string, a bool a JSON boolean only (bool(1) is True)
_CASTS = {"float": _strict(float, int, float, str),
          "int": _strict(int, int, str),
          "bool": _strict(bool, bool)}


def _from_record(cls, rec: dict, **built):
    """cls from ``built`` and the keys of rec that name its other fields,
    popped from rec and each cast to its field's annotated type."""
    for f in fields(cls):
        if f.name in rec:
            try:
                built[f.name] = _CASTS[f.type](rec.pop(f.name))
            except (KeyError, TypeError, ValueError):
                raise ConfigError(f"key {f.name!r} must be {f.type}") from None
        elif f.name not in built and f.default is MISSING:
            raise ConfigError(f"missing required key {f.name!r}")
    return cls(**built)


def phi_kind_from_dict(rec: dict) -> PhiKind:
    """The phi kind of a tagged record, e.g. ``{"kind": "bennett", "sigma2":
    1.0, "b": 1.0}``, each value cast to its field's type (a bad tag, key or
    value raises ConfigError; make_phi checks the ranges)."""
    if not isinstance(rec, dict):
        raise ConfigError(f"key 'phi' must be a JSON object, got {rec!r}")
    rec = dict(rec)
    tag = rec.pop("kind", None)
    cls = _KIND_TAGS.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise ConfigError(f"unknown phi kind {tag!r}")
    kind = _from_record(cls, rec)
    if rec:
        raise ConfigError(f"unknown key {next(iter(rec))!r} for phi kind {tag}")
    return kind


# ---------------------------------------------------------------------------
# Validity diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhiViolation:
    check: str
    s: float
    detail: str


@dataclass(frozen=True)
class DiagnosticReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0


CONVEXITY_SLACK = 1e-12


def check_phi_validity(phi: MgfBound, grid: Sequence[float]) -> DiagnosticReport:
    """Run the runtime invariants of a phi function on a grid of s values.

    Checks phi(0) = 0, nonnegativity, convexity (midpoint test with slack
    1e-12 * (1 + |phi|)), and, when an analytic derivative is attached,
    agreement with central finite differences to 1e-6 relative at the step
    h = 1e-6 (1 + |s|) or, where that misses, at any of h 4^-k, k = 1..5.
    """
    grid = np.asarray(sorted(float(s) for s in grid), dtype=float)
    if grid.size and not phi.contains(grid):
        raise DomainViolation(
            f"grid extends outside the open domain (-{phi.a}, {phi.b})"
        )
    out = []

    z = float(np.asarray(phi.phi(0.0)))
    if abs(z) > 1e-12:
        out.append(PhiViolation("zero_at_origin", 0.0, f"phi(0) = {z!r}"))

    vals = np.asarray(phi.phi(grid), dtype=float)
    for s, v in zip(grid, vals):
        if v < -1e-12 * (1.0 + abs(v)):
            out.append(PhiViolation("nonnegative", float(s),
                                    f"phi({s}) = {float(v)!r}"))

    # every pair i < j in one phi call, in row-major (i, j) order
    i, j = np.triu_indices(grid.size, k=1)
    mid = 0.5 * (grid[i] + grid[j])
    fm = np.asarray(phi.phi(mid), dtype=float)
    avg = 0.5 * (vals[i] + vals[j])
    for q in np.flatnonzero(fm > avg + CONVEXITY_SLACK * (1.0 + np.abs(fm))):
        out.append(PhiViolation(
            "convexity", float(mid[q]),
            f"phi(mid)={float(fm[q])!r} > chord {float(avg[q])!r} "
            f"for [{grid[i[q]]}, {grid[j[q]]}]",
        ))

    if phi.phi_deriv is not None:
        h = 1e-6 * (1.0 + np.abs(grid))
        inside = (grid - h > -phi.a) & (grid + h < phi.b)
        s, h = grid[inside], h[inside]
        an = np.asarray(phi.phi_deriv(s), dtype=float)
        fd = _central_difference(phi, s, h)
        miss = np.abs(fd - an) > 1e-6 * (1.0 + np.abs(an))
        # a large exponent scale curves phi across the step: a point that
        # misses is retried at steps h 4^-k, and fails only if every one does
        for k in range(1, 6):
            q = np.flatnonzero(miss)
            if not q.size:
                break
            fd_k = _central_difference(phi, s[q], h[q] / 4.0 ** k)
            miss[q] = np.abs(fd_k - an[q]) > 1e-6 * (1.0 + np.abs(an[q]))
        for q in np.flatnonzero(miss):
            out.append(PhiViolation(
                "derivative", float(s[q]),
                f"finite diff {float(fd[q])!r} vs analytic {float(an[q])!r}"
            ))

    return DiagnosticReport(violations=tuple(out))


def _central_difference(phi: MgfBound, s: np.ndarray, h: np.ndarray):
    """(phi(s + h) - phi(s - h)) / 2h, from one phi call."""
    f_hi, f_lo = np.split(
        np.asarray(phi.phi(np.concatenate([s + h, s - h])), dtype=float), 2)
    return (f_hi - f_lo) / (2 * h)
