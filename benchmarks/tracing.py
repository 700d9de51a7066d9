"""Spans around calls into each crossbound layer, taken from the outside.

For the traced phase the public functions are replaced in the module
namespace of the code that calls them: names are bound at import, so the name
``sweep`` calls is ``crossbound.validate.increments_matrix``, not
``crossbound.sim.increments_matrix``.  Each span is kept in memory as
(id, name, start, end, parent, thread, size) and written out when the run
ends; ``size`` is an exact count taken at the same boundary (steps drawn,
paths, crossing events).  The originals are restored when the phase ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import itertools
import statistics
import threading
from collections import defaultdict
from time import perf_counter

from crossbound import bounds, cli, mgf, presets, sim, stopping, validate


class Tracer:
    def __init__(self):
        self.spans = []
        self.phi_calls = 0
        self.deriv_calls = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, size=None):
        """fn with a span around every call.

        name is a string or a function of (args, kwargs); size, if given, maps
        (args, kwargs, result) to the span's exact count.
        """
        spans, ids, stack_of = self.spans, self._ids, self._stack

        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            out = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, name if isinstance(name, str) else
                              name(args, kwargs), t0, t1, parent,
                              threading.get_ident(),
                              size(args, kwargs, out) if size and out is not None
                              else 0))
        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tthread\tsize\n")
            for rec in self.spans:
                fh.write("\t".join(map(str, rec)) + "\n")


def _crossing_events(args, kwargs, out):
    events = args[1] if len(args) > 1 else kwargs["events"]
    return sum(1 for ev in events if ev.kind != "stopping")


# (module, attribute, span name, size) for every patched boundary.
_EVAL_FAMILIES = {
    "line_bound": "line", "optimized_line_bound": "opt_line",
    "vee_bound": "vee", "azuma_bound": "azuma", "cbb_bounds": "cbb",
    "expfam_bound": "expfam", "poisson_bounds": "poisson",
    "doob_exp_bound": "doob_exp",
    "supermartingale_sup_bound": "supermartingale_sup",
}
TARGETS = [
    (bounds, fn, "bounds." + fam, None) for fn, fam in _EVAL_FAMILIES.items()
] + [
    (bounds, "eta_bound", lambda a, k: "bounds.eta_" + k.get("variant", "ray"),
     None),
    (bounds, "minimize_tail_exponent", "optimize.minimize_tail_exponent", None),
    (bounds, "solve_slope_root", "optimize.solve_slope_root", None),
    (mgf, "check_phi_validity", "mgf.check_phi_validity", None),
    (sim, "path_rng", "sim.path_rng", None),
    (stopping, "path_rng", "sim.path_rng", None),
    (presets, "path_rng", "sim.path_rng", None),
    (validate, "increments_matrix", "sim.increments_matrix",
     lambda a, k, out: out.size),
    (validate, "generate", "sim.generate",
     lambda a, k, out: out.values.size - 1),
    (stopping, "walk_increments", "sim.walk_increments",
     lambda a, k, out: out.size),
    (validate, "clopper_pearson", "validate.clopper_pearson", None),
    (presets, "clopper_pearson", "validate.clopper_pearson", None),
    (validate, "verify_optional_stopping", "stopping.verify_optional_stopping",
     lambda a, k, out: out.n_paths),
    (presets, "sweep", "validate.sweep", _crossing_events),
    (presets, "theorem9_groups", "presets.theorem9_groups", None),
    (presets, "choose_horizon_by_doubling", "presets.choose_horizon_by_doubling",
     None),
]


@contextlib.contextmanager
def traced(tracer: Tracer, workload):
    """Patch every boundary, and the workload's own entry point, for a phase."""
    saved = []

    def patch(obj, attr, new):
        saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    try:
        for module, attr, name, size in TARGETS:
            patch(module, attr, tracer.wrap(getattr(module, attr), name, size))
        for key, preset in list(cli.PRESETS.items()):
            cli.PRESETS[key] = dataclasses.replace(
                preset, runner=tracer.wrap(preset.runner, "presets.runner"))
            saved.append((cli.PRESETS, key, preset))
        if hasattr(workload, "counting_calls"):
            patch(workload, "calls", workload.counting_calls(tracer))
            patch(workload, "tracer", tracer)
        if hasattr(workload, "runner"):
            patch(workload, "runner", tracer.wrap(
                workload.runner, "presets.run_expexact_brownian"))
        if hasattr(workload, "run_cli"):
            patch(workload, "run_cli", tracer.wrap(workload.run_cli, "cli.main"))
        yield tracer
    finally:
        for obj, attr, orig in reversed(saved):
            if isinstance(obj, dict):
                obj[attr] = orig
            else:
                setattr(obj, attr, orig)


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

PER_LAYER_UNITS = {
    "mgf.phi_calls_per_eval.opt_line": "count",
    "mgf.phi_calls_per_eval.vee": "count",
    "mgf.phi_calls_per_eval.eta_ray": "count",
    "mgf.phi_calls_per_eval.eta_vee": "count",
    "mgf.phi_calls_per_eval.grid": "count",
    "mgf.deriv_calls_per_eval": "count",
    "mgf.check_validity_ms": "ms",
    "optimize.minimize_us": "us",
    "optimize.slope_root_us": "us",
    "optimize.calls_per_eval": "count",
    **{f"bounds.eval_us.{fam}": "us" for fam in (
        "line", "opt_line", "vee", "eta_ray", "eta_vee", "azuma", "cbb",
        "expfam", "poisson", "doob_exp", "supermartingale_sup")},
    "bounds.eval_us_p50": "us",
    "bounds.eval_us_p99": "us",
    "sim.path_rng_us": "us",
    "sim.path_rng_calls": "count",
    "sim.increments_ns_per_step": "ns",
    "sim.steps_drawn": "count",
    "validate.sweep_self_s": "s",
    "validate.reduce_ns_per_path_step_event": "ns",
    "validate.clopper_pearson_us": "us",
    "stopping.verify_self_s": "s",
    "stopping.ns_per_path": "ns",
    "presets.groups_s": "s",
    "presets.pilot_s": "s",
    "presets.pilot_share": "ratio",
    "presets.main_run_s": "s",
    "presets.parallel_efficiency": "ratio",
    "cli.report_write_ms": "ms",
    "trace.overhead_s": "s",
}

DRAWS = ("sim.increments_matrix", "sim.generate", "sim.walk_increments")
PHI_EVALS = ("bounds.line", "bounds.opt_line", "bounds.vee", "bounds.eta_ray",
             "bounds.eta_vee")


def _ratio(num, den):
    return num / den if den else 0.0


def _quantile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list, passes: int) -> dict:
    """Per-layer metrics from the spans of ``passes`` traced passes.

    Self time is a span's duration minus its direct children's; spans nest
    per thread, so children never overlap.  Totals are per pass; _us/_ns
    metrics are per call, step or path.  A layer a workload does not reach
    reads 0.
    """
    dur = {}
    child_time = defaultdict(float)      # (parent id, child name) -> seconds
    child_size = defaultdict(int)        # (parent id, child name) -> size
    by_name = defaultdict(list)
    for sid, name, t0, t1, parent, _thread, size in spans:
        dur[sid] = t1 - t0
        by_name[name].append((sid, size))
        if parent:
            child_time[parent, name] += t1 - t0
            child_size[parent, name] += size

    def total(name):
        return sum(dur[sid] for sid, _ in by_name[name])

    def count(name):
        return len(by_name[name])

    def minus_children(name, children):
        return sum(dur[sid] - sum(child_time[sid, c] for c in children)
                   for sid, _ in by_name[name])

    m = {}
    evals = [dur[sid] for name in by_name if name.startswith("bounds.")
             for sid, _ in by_name[name]]
    for key in PER_LAYER_UNITS:
        if key.startswith("bounds.eval_us."):
            name = "bounds." + key.rsplit(".", 1)[1]
            m[key] = 1e6 * _ratio(total(name), count(name))
    m["bounds.eval_us_p50"] = 1e6 * _quantile(evals, 50)
    m["bounds.eval_us_p99"] = 1e6 * _quantile(evals, 99)

    m["optimize.minimize_us"] = 1e6 * _ratio(
        total("optimize.minimize_tail_exponent"),
        count("optimize.minimize_tail_exponent"))
    m["optimize.slope_root_us"] = 1e6 * _ratio(
        total("optimize.solve_slope_root"), count("optimize.solve_slope_root"))
    m["optimize.calls_per_eval"] = _ratio(
        count("optimize.minimize_tail_exponent")
        + count("optimize.solve_slope_root"),
        sum(count(name) for name in PHI_EVALS))
    m["mgf.check_validity_ms"] = 1e3 * _ratio(
        total("mgf.check_phi_validity"), count("mgf.check_phi_validity"))

    m["sim.path_rng_us"] = 1e6 * _ratio(total("sim.path_rng"),
                                        count("sim.path_rng"))
    m["sim.path_rng_calls"] = _ratio(count("sim.path_rng"), passes)
    steps = sum(size for name in DRAWS for _, size in by_name[name])
    draw_self = sum(minus_children(name, ("sim.path_rng",)) for name in DRAWS)
    m["sim.steps_drawn"] = _ratio(steps, passes)
    m["sim.increments_ns_per_step"] = 1e9 * _ratio(draw_self, steps)

    sweep_self = minus_children("validate.sweep", DRAWS + (
        "stopping.verify_optional_stopping",))
    reduce_s = sweep_self - sum(child_time[sid, "validate.clopper_pearson"]
                                for sid, _ in by_name["validate.sweep"])
    path_step_events = sum(
        events * sum(child_size[sid, name] for name in DRAWS)
        for sid, events in by_name["validate.sweep"])
    m["validate.sweep_self_s"] = _ratio(sweep_self, passes)
    m["validate.reduce_ns_per_path_step_event"] = 1e9 * _ratio(
        reduce_s, path_step_events)
    m["validate.clopper_pearson_us"] = 1e6 * _ratio(
        total("validate.clopper_pearson"), count("validate.clopper_pearson"))

    verify_self = minus_children("stopping.verify_optional_stopping",
                                 ("sim.path_rng", "sim.walk_increments"))
    verify_paths = sum(size for _, size in
                       by_name["stopping.verify_optional_stopping"])
    m["stopping.verify_self_s"] = _ratio(verify_self, passes)
    m["stopping.ns_per_path"] = 1e9 * _ratio(verify_self, verify_paths)

    pilot = total("presets.choose_horizon_by_doubling")
    main = minus_children("presets.run_expexact_brownian",
                          ("presets.choose_horizon_by_doubling",))
    m["presets.groups_s"] = _ratio(total("presets.theorem9_groups"), passes)
    m["presets.pilot_s"] = _ratio(pilot, passes)
    m["presets.main_run_s"] = _ratio(main, passes)
    m["presets.pilot_share"] = _ratio(pilot, pilot + main)
    m["cli.report_write_ms"] = 1e3 * _ratio(
        minus_children("cli.main", ("presets.runner",)), count("cli.main"))
    return m
