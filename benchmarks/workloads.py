"""The four benchmark workloads: inputs made from a seed, one pass, checks.

Every workload is driven by a single caller in a closed loop: the next pass
starts when the previous one has returned.  A pass returns its outputs as
plain, comparable records; ``run.py`` compares them with the first pass of
the run, ``compare`` with the reference recorded in ``reference.json`` (on the
default and held-out seeds at full size), and ``check_rows`` checks the
workload's invariants.

Why these four:

* ``domination_sweep`` - the ``theorem9_all`` preset through the CLI.  Its
  brownian_x group (14 events on 20 000-step rows) makes event reduction in
  ``validate`` about half the time: the one workload where reductions and
  increment draws dominate.
* ``exactness_brownian`` - ``presets.run_expexact_brownian`` at dt=1e-3 with
  the acceptance pilot:main ratio (pilot = paths/20).  Normal draws and cumsum
  dominate and it never calls ``validate.sweep``: the control for reduction
  changes, and the workload that shows draw-kernel and thread-pool changes.
* ``optional_stopping`` - the ``optional_stopping`` preset through the CLI.
  Walks exit after a few dozen steps in a serial per-path loop, so per-path
  stream set-up (``sim.path_rng``) and loop overhead in ``stopping`` dominate.
* ``bound_grid`` - no simulation: every ``bounds`` evaluator over the phi
  catalog, a seeded gamma grid and both sides, plus ``check_phi_validity``.
  The only workload where the optimizer (``optimize``) and ``mgf`` show.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import random
import sys
from pathlib import Path
from time import perf_counter

import crossbound.cli as cli
from crossbound import bounds, errors, mgf, presets

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

REL_TOL = 1e-12        # recorded floats and closed-form identities
S_STAR_TOL = 1e-8      # optimizer s* against its closed form


def rel_close(a, b, tol=REL_TOL) -> bool:
    if a == b:
        return True
    if a is None or b is None:
        return False
    return abs(a - b) <= tol * max(abs(a), abs(b))


class Workload:
    """Base class: subclasses set the sizes and implement ``run_pass``."""

    name = ""
    default_seed = 0
    heldout_seed = 0
    simulates = True

    def __init__(self, seed: int, scale: float, workdir: Path):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir

    def run_pass(self, threads: int) -> list:
        raise NotImplementedError

    def units(self) -> int:
        """Work units per pass: paths simulated, or evaluator calls."""
        raise NotImplementedError

    def params(self) -> dict:
        """Sizes and seeds that define the inputs; stored with the reference."""
        raise NotImplementedError

    def record(self, outputs: list) -> dict:
        """Run-record fields derived from one pass's outputs."""
        return {}

    def layer_counts(self, outputs: list) -> dict:
        """Per-layer counts the workload takes itself in a traced pass."""
        return {}

    def plain(self, outputs: list) -> list:
        """Outputs without anything only a traced pass records."""
        return outputs

    def checks(self, outputs: list) -> int:
        """Number of checked operations in one pass."""
        return len(outputs)

    def check_rows(self, outputs: list) -> list:
        """Invariant failures of one pass (messages); empty when all hold."""
        return [f"{r['label']}: verdict violated" for r in outputs
                if r.get("verdict") == "violated"]

    def compare(self, got: list, want: list) -> list:
        """Differences between one pass and the reference (messages)."""
        if len(got) != len(want):
            return [f"{len(got)} rows, reference has {len(want)}"]
        out = []
        for g, w in zip(got, want):
            for key, wv in w.items():
                gv = g.get(key)
                ok = rel_close(gv, wv) if isinstance(wv, float) else gv == wv
                if not ok:
                    out.append(f"{w.get('label')}: {key} = {gv!r}, "
                               f"reference {wv!r}")
        return out

    def reference(self):
        """Recorded outputs for this seed and size, or None."""
        if self.scale != 1.0 or not REFERENCE_FILE.exists():
            return None
        rec = json.loads(REFERENCE_FILE.read_text())
        entry = rec.get(self.name, {}).get(str(self.seed))
        if entry is None:
            return None
        if entry["params"] != self.params():
            raise RuntimeError(f"reference for {self.name} seed {self.seed} "
                               "was recorded with other parameters")
        return entry["outputs"]


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, int(round(n * scale)))


def _run_cli(argv: list) -> int:
    """cli.main with its stdout echo and stderr note captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


class _CliPreset(Workload):
    preset = ""
    full_paths = 0

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.paths = _scaled(self.full_paths, scale, 20)
        self.run_cli = _run_cli

    def argv(self, threads: int) -> list:
        return ["validate", "--preset", self.preset, "--paths", str(self.paths),
                "--seed", str(self.seed), "--threads", str(threads),
                "--out", str(self.workdir)]

    def run_pass(self, threads):
        report = self.workdir / f"{self.preset}_report.json"
        report.unlink(missing_ok=True)
        rc = self.run_cli(self.argv(threads))
        rows = json.loads(report.read_text()) if report.exists() else []
        return [{"exit_code": rc}] + [self.row(r) for r in rows]

    def check_rows(self, outputs):
        msgs = super().check_rows(outputs[1:])
        if outputs[0]["exit_code"] != 0:
            msgs.append(f"cli exit code {outputs[0]['exit_code']}")
        return msgs


class DominationSweep(_CliPreset):
    name = "domination_sweep"
    default_seed = 1234
    heldout_seed = 8191
    preset = "theorem9_all"
    full_paths = 1000
    groups = 9          # row groups of theorem9_all, each simulating `paths`

    def row(self, r):
        return {"label": r["label"], "group": r["extra"]["group"],
                "n_crossed": r["n_crossed"], "verdict": r["verdict"]}

    def units(self):
        return self.paths * self.groups

    def params(self):
        return {"preset": self.preset, "paths": self.paths}

    def record(self, outputs):
        names = list(dict.fromkeys(r["group"] for r in outputs[1:]))
        return {"paths_per_group": self.paths, "rows": len(outputs) - 1,
                "group_seeds": {g: self.seed + 7919 * i
                                for i, g in enumerate(names)}}


class OptionalStopping(_CliPreset):
    name = "optional_stopping"
    default_seed = 77
    heldout_seed = 6007
    preset = "optional_stopping"
    full_paths = 10_000
    rows = 2            # martingale and supermartingale walks

    def row(self, r):
        x = r["extra"]
        return {"label": r["label"], "n_crossed": r["n_crossed"],
                "verdict": r["verdict"], "mean_inner": x["mean_inner"],
                "mean_outer": x["mean_outer"], "mean_diff": x["mean_diff"],
                "truncated_outer": x["truncated_outer"]}

    def units(self):
        return self.paths * self.rows

    def params(self):
        return {"preset": self.preset, "paths": self.paths}

    def record(self, outputs):
        return {"paths_per_row": self.paths, "row_seed": self.seed,
                "horizon_steps": 10_000}


class ExactnessBrownian(Workload):
    name = "exactness_brownian"
    default_seed = 20_240_808
    heldout_seed = 1729
    full_paths = 3000
    dt = 1e-3
    pilot_ratio = 20     # acceptance criterion 1: 200 000 main, 10 000 pilot

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.paths = _scaled(self.full_paths, scale, 40)
        self.pilot_paths = max(2, self.paths // self.pilot_ratio)
        self.runner = presets.run_expexact_brownian

    def run_pass(self, threads):
        reps = self.runner(paths=self.paths, seed=self.seed, threads=threads,
                           dt=self.dt, pilot_paths=self.pilot_paths)
        return [{"label": r.label, "n_crossed": r.n_crossed,
                 "verdict": r.verdict, "horizon": r.extra["horizon"],
                 "n_coarse": int(round(r.extra["p_coarse"] * r.n_paths))}
                for r in reps]

    def units(self):
        return self.paths + self.pilot_paths

    def params(self):
        return {"paths": self.paths, "pilot_paths": self.pilot_paths,
                "dt": self.dt}

    def record(self, outputs):
        return {"paths": self.paths, "pilot_paths": self.pilot_paths,
                "dt": self.dt, "horizon": outputs[0]["horizon"],
                "main_seed": self.seed, "pilot_seed": self.seed + 911}


# ---------------------------------------------------------------------------
# bound_grid
# ---------------------------------------------------------------------------

PHI_CATALOG = (
    ("gaussian", mgf.Gaussian(1.0)),
    ("bennett", mgf.Bennett(sigma2=1.0, b=2.0)),
    ("hoeffding", mgf.HoeffdingBernoulli(0.3)),
    ("uniform24", mgf.Uniform24()),
    ("poisson", mgf.PoissonCentered(1.0)),
    ("cbb_exp", mgf.CbbExp(1.0)),
    ("bernstein", mgf.Bernstein(1.0)),
)
PHI_FAMILIES = ("line", "opt_line", "vee", "eta_ray", "eta_vee")
# The anchor point is the first grid point on every seed; the traced run
# reports the Gaussian phi-call counts of each family there.
ANCHOR = {"gamma": 1.0, "v_tau": 1.0, "eta": 0.5}
# Calls that must refuse: Bernstein's phi is defined for the upper tail only.
EXPECTED_REFUSALS = {("bernstein", fam, "lower"): "UnsupportedSide"
                     for fam in ("opt_line", "vee", "eta_ray", "eta_vee")}
IDENTITIES_PER_POINT = 7
VALIDITY_GRID = tuple(-2.0 + 4.0 * i / 49 for i in range(50))


@dataclasses.dataclass
class Call:
    """One evaluator call: crossbound.bounds.<fn>(*args, **kwargs).

    The function is looked up when called, so the traced phase sees it.
    """

    key: str
    family: str
    phi: str
    side: str
    fn: str
    args: tuple
    kwargs: dict
    anchor: bool = False

    def __call__(self):
        return getattr(bounds, self.fn)(*self.args, **self.kwargs)


class BoundGrid(Workload):
    name = "bound_grid"
    default_seed = 2012
    heldout_seed = 3733
    simulates = False
    full_points = 6

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        rng = random.Random(seed)
        self.points = [dict(ANCHOR)]
        for _ in range(_scaled(self.full_points, scale, 2) - 1):
            self.points.append({
                "gamma": math.exp(rng.uniform(math.log(0.1), math.log(4.0))),
                "v_tau": math.exp(rng.uniform(math.log(0.5), math.log(5.0))),
                "eta": rng.uniform(0.1, 2.0)})
        self.family = bounds.bernoulli_family()
        self.phis = {name: mgf.make_phi(kind) for name, kind in PHI_CATALOG}
        self.calls = self.build_calls(self.phis)
        self.latencies = []
        self.tracer = None

    def counting_calls(self, tracer) -> list:
        """The calls, on phis whose phi/phi_deriv calls count into tracer."""
        def counting(fn, attr):
            def wrapped(s):
                setattr(tracer, attr, getattr(tracer, attr) + 1)
                return fn(s)
            return wrapped
        phis = {name: dataclasses.replace(
                    p, phi=counting(p.phi, "phi_calls"),
                    phi_deriv=counting(p.phi_deriv, "deriv_calls"))
                for name, p in self.phis.items()}
        return self.build_calls(phis)

    def build_calls(self, phis) -> list:
        calls = []
        for i, pt in enumerate(self.points):
            g, v, eta = pt["gamma"], pt["v_tau"], pt["eta"]
            for name, phi in phis.items():
                for side in ("upper", "lower"):
                    radius = phi.b if side == "upper" else phi.a
                    grid_calls = {
                        "line": ("line_bound", (phi, min(g, 0.5 * radius), g, v),
                                 {}),
                        "opt_line": ("optimized_line_bound", (phi, g, v), {}),
                        "vee": ("vee_bound", (phi, g, v), {}),
                        "eta_ray": ("eta_bound", (phi, g, eta),
                                    {"variant": "ray"}),
                        "eta_vee": ("eta_bound", (phi, g, eta),
                                    {"v_tau": v, "variant": "vee"}),
                    }
                    for fam in PHI_FAMILIES:
                        fn, args, kwargs = grid_calls[fam]
                        calls.append(Call(f"{i}/{name}/{fam}/{side}", fam, name,
                                          side, fn, args,
                                          {**kwargs, "side": side}, i == 0))
            m = max(1, int(round(4.0 * v)))
            closed = [("azuma", kind, "azuma_bound", (g * v, v), {"kind": kind})
                      for kind in ("upper", "lower", "two_sided")]
            closed += [("cbb", which, "cbb_bounds",
                        (g, v + g if which == "chernoff_sub" else v, 1.0, which),
                        {})
                       for which in ("bennett", "bernstein", "chernoff_sub")]
            closed += [
                ("poisson", "upper", "poisson_bounds", (1.0, g, v), {}),
                ("poisson", "lower", "poisson_bounds", (1.0, g / (1.0 + g), v),
                 {"side": "lower"}),
                ("doob_exp", "gaussian", "doob_exp_bound",
                 (1.0 + g, phis["gaussian"]), {}),
                ("supermartingale_sup", "c0", "supermartingale_sup_bound",
                 (1.0, 0.0, 1.0 + g), {}),
            ]
            closed += [("expfam", side, "expfam_bound",
                        (self.family, 0.3, 0.07 * g, m), {"side": side})
                       for side in ("upper", "lower")]
            for fam, variant, fn, args, kwargs in closed:
                calls.append(Call(f"{i}/{fam}/{variant}", fam, "", variant, fn,
                                  args, kwargs))
        return calls

    def run_pass(self, threads):
        out = []
        lat = []
        tr = self.tracer
        for call in self.calls:
            before = (tr.phi_calls, tr.deriv_calls) if tr else (0, 0)
            t0 = perf_counter()
            try:
                rep = call()
                rec = {"raw": rep.raw, "s_used": rep.s_used}
            except errors.CrossboundError as exc:
                rec = {"refused": type(exc).__name__}
            except Exception as exc:  # a bug, not a refusal: check_rows fails it
                rec = {"error": f"{type(exc).__name__}: {exc}"}
            lat.append(perf_counter() - t0)
            rec["key"] = call.key
            if tr:
                rec["phi_calls"] = tr.phi_calls - before[0]
                rec["deriv_calls"] = tr.deriv_calls - before[1]
            out.append(rec)
        for name, phi in self.phis.items():
            diag = mgf.check_phi_validity(phi, VALIDITY_GRID)
            out.append({"key": f"validity/{name}", "ok": diag.ok})
        self.latencies.append(lat)
        return out

    def units(self):
        return len(self.calls)

    def params(self):
        return {"points": self.points}

    def record(self, outputs):
        return {"grid_points": len(self.points), "evals_per_pass": len(self.calls),
                "phis": [name for name, _ in PHI_CATALOG]}

    def check_rows(self, outputs):
        msgs = []
        by_key = {r["key"]: r for r in outputs}
        for call in self.calls:
            want = EXPECTED_REFUSALS.get((call.phi, call.family, call.side))
            rec = by_key[call.key]
            if rec.get("refused") != want or "error" in rec:
                msgs.append(f"{call.key}: raised "
                            f"{rec.get('refused') or rec.get('error')}, "
                            f"expected {want}")
        for r in outputs:
            if r["key"].startswith("validity/") and not r["ok"]:
                msgs.append(f"{r['key']}: check_phi_validity reports violations")
        for i, pt in enumerate(self.points):
            g = pt["gamma"]

            def val(key, field="raw"):
                return by_key[f"{i}/{key}"].get(field)
            pairs = [
                ("azuma == opt_line gaussian", val("azuma/upper"),
                 val("gaussian/opt_line/upper"), REL_TOL),
                ("bennett == opt_line cbb_exp", val("cbb/bennett"),
                 val("cbb_exp/opt_line/upper"), REL_TOL),
                ("poisson == opt_line poisson", val("poisson/upper"),
                 val("poisson/opt_line/upper"), REL_TOL),
                ("s* gaussian upper", g,
                 val("gaussian/opt_line/upper", "s_used"), None),
                ("s* gaussian lower", g,
                 val("gaussian/opt_line/lower", "s_used"), None),
                ("s* cbb_exp upper", math.log1p(g),
                 val("cbb_exp/opt_line/upper", "s_used"), None),
                ("s* poisson upper", math.log1p(g),
                 val("poisson/opt_line/upper", "s_used"), None),
            ]
            for label, want, got, tol in pairs:
                ok = (got is not None and abs(got - want) <= S_STAR_TOL
                      if tol is None else rel_close(got, want, tol))
                if not ok:
                    msgs.append(f"point {i}: {label}: {got!r} vs {want!r}")
        return msgs

    def compare(self, got, want):
        got_by = {r["key"]: r for r in got}
        if set(got_by) != {r["key"] for r in want}:
            return ["grid keys differ from the reference"]
        out = []
        for w in want:
            g = got_by[w["key"]]
            for field in ("raw", "s_used", "refused", "ok"):
                if not rel_close(g.get(field), w.get(field)):
                    out.append(f"{w['key']}: {field} = {g.get(field)!r}, "
                               f"reference {w.get(field)!r}")
        return out

    def checks(self, outputs):
        return len(outputs) + IDENTITIES_PER_POINT * len(self.points)

    def plain(self, outputs):
        return [{k: v for k, v in r.items()
                 if k not in ("phi_calls", "deriv_calls")} for r in outputs]

    def layer_counts(self, outputs):
        """mgf call counts from a pass made on counting phis."""
        m = {}
        counted = [(c, r) for c, r in zip(self.calls, outputs)
                   if c.phi and "raw" in r]
        for c, r in counted:
            if (c.anchor and c.phi == "gaussian" and c.side == "upper"
                    and c.family != "line"):
                m[f"mgf.phi_calls_per_eval.{c.family}"] = r["phi_calls"]
        m["mgf.phi_calls_per_eval.grid"] = (
            sum(r["phi_calls"] for _, r in counted) / len(counted))
        m["mgf.deriv_calls_per_eval"] = (
            sum(r["deriv_calls"] for _, r in counted) / len(counted))
        return m


WORKLOADS = {w.name: w for w in (DominationSweep, ExactnessBrownian,
                                 OptionalStopping, BoundGrid)}


def write_reference(workdir: Path, threads: int) -> None:
    """Record every workload's outputs at full size on both fixed seeds."""
    rec = {}
    for name, cls in WORKLOADS.items():
        rec[name] = {}
        for seed in (cls.default_seed, cls.heldout_seed):
            wl = cls(seed, 1.0, workdir)
            rec[name][str(seed)] = {"params": wl.params(),
                                    "outputs": wl.run_pass(threads)}
            print(f"recorded {name} seed {seed}", file=sys.stderr)
    REFERENCE_FILE.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
