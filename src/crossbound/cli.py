"""Command-line surface: compute bounds, dump paths, run validation suites.

Subcommands: ``bound``, ``validate``, ``simulate``, ``presets list``.
Configuration comes from an optional JSON config file (``--config``) merged
with command-line flags (flags win); unknown config keys are errors.  Exit
codes: 0 success, 1 validation found a violated row, 2 config error, 3 domain
violation.  stdout carries data only; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path as FsPath

from . import bounds as B
from .errors import ConfigError, CrossboundError
from .mgf import make_phi, phi_kind_from_dict
from .presets import PRESETS
from .sim import generate, spec_from_dict
from .validate import SCHEMA_VERSION, ValidationReport, fmt17

OUTPUT_DIR_ENV = "CROSSBOUND_OUTPUT_DIR"


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

_BOUND_KEYS = {
    "ineq", "gamma", "vtau", "eta", "s", "lam", "tau", "b", "vm", "phi",
    "theta", "m", "mean0", "c", "format",
}
_VALIDATE_KEYS = {"preset", "paths", "seed", "alpha", "threads", "out"}
_SIMULATE_KEYS = {"process", "paths", "seed", "out", "dt", "horizon", "lam",
                  "p", "n", "centered", "drift", "p_move", "dist"}

_COMMAND_KEYS = {"bound": _BOUND_KEYS, "validate": _VALIDATE_KEYS,
                 "simulate": _SIMULATE_KEYS}


def _merge_config(command: str, args: argparse.Namespace,
                  flag_names) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        file_cmd = raw.pop("command", command)
        if file_cmd != command:
            raise ConfigError(
                f"config file is for command {file_cmd!r}, not {command!r}")
        allowed = _COMMAND_KEYS[command]
        for key in raw:
            if key not in allowed:
                raise ConfigError(f"unknown config key {key!r} for {command}")
        cfg.update(raw)
    for name in flag_names:
        val = getattr(args, name, None)
        if val is not None:
            cfg[name] = val
    return cfg


def _print_config(command: str, cfg: dict) -> None:
    print(json.dumps({"command": command, **cfg}, sort_keys=True, default=str))


# ---------------------------------------------------------------------------
# bound subcommand
# ---------------------------------------------------------------------------

_PHI_INEQS = {"gen_line_upper", "gen_line_lower", "opt_line_upper",
              "opt_line_lower", "vee_upper", "vee_lower", "eta_ray_upper",
              "eta_ray_lower", "eta_vee_upper", "eta_vee_lower", "doob_exp"}


def _need(cfg: dict, *names):
    for name in names:
        if cfg.get(name) is None:
            raise ConfigError(f"missing required key {name!r}")
    return [cfg[name] for name in names]


def _compute_bound(cfg: dict) -> B.BoundReport:
    (ineq,) = _need(cfg, "ineq")
    phi = None
    if ineq in _PHI_INEQS and cfg.get("phi") is not None:
        rec = cfg["phi"]
        if isinstance(rec, str):
            rec = json.loads(rec)
        phi = make_phi(phi_kind_from_dict(rec))
    if ineq in ("gen_line_upper", "gen_line_lower"):
        if phi is None:
            raise ConfigError("missing required key 'phi'")
        side = "upper" if ineq.endswith("upper") else "lower"
        s, gamma, vtau = _need(cfg, "s", "gamma", "vtau")
        return B.line_bound(phi, s=s, gamma=gamma, v_tau=vtau, side=side)
    if ineq in ("opt_line_upper", "opt_line_lower"):
        if phi is None:
            raise ConfigError("missing required key 'phi'")
        side = "upper" if ineq.endswith("upper") else "lower"
        gamma, vtau = _need(cfg, "gamma", "vtau")
        return B.optimized_line_bound(phi, gamma=gamma, v_tau=vtau, side=side)
    if ineq in ("vee_upper", "vee_lower"):
        if phi is None:
            raise ConfigError("missing required key 'phi'")
        side = "upper" if ineq.endswith("upper") else "lower"
        gamma, vtau = _need(cfg, "gamma", "vtau")
        return B.vee_bound(phi, gamma=gamma, v_tau=vtau, side=side)
    if ineq in ("eta_ray_upper", "eta_ray_lower", "eta_vee_upper", "eta_vee_lower"):
        if phi is None:
            raise ConfigError("missing required key 'phi'")
        side = "upper" if ineq.endswith("upper") else "lower"
        variant = "ray" if "ray" in ineq else "vee"
        gamma, eta = _need(cfg, "gamma", "eta")
        vtau = cfg.get("vtau", 0.0)
        return B.eta_bound(phi, gamma=gamma, eta=eta, v_tau=vtau, side=side,
                           variant=variant)
    if ineq in ("azuma_upper", "azuma_lower", "azuma_two_sided"):
        gamma, vtau = _need(cfg, "gamma", "vtau")
        return B.azuma_bound(gamma=gamma, v_tau=vtau,
                             kind=ineq.replace("azuma_", ""))
    if ineq in ("bennett_cbb", "bernstein_cbb", "chernoff_sub"):
        gamma, vm, b = _need(cfg, "gamma", "vm", "b")
        which = {"bennett_cbb": "bennett", "bernstein_cbb": "bernstein",
                 "chernoff_sub": "chernoff_sub"}[ineq]
        return B.cbb_bounds(gamma=gamma, v_m=vm, b=b, which=which)
    if ineq in ("expfam_upper", "expfam_lower"):
        theta, gamma, m = _need(cfg, "theta", "gamma", "m")
        side = "upper" if ineq.endswith("upper") else "lower"
        return B.expfam_bound(B.bernoulli_family(), theta=theta, gamma=gamma,
                              m=int(m), side=side)
    if ineq in ("poisson_upper", "poisson_lower"):
        lam, gamma, tau = _need(cfg, "lam", "gamma", "tau")
        side = "upper" if ineq.endswith("upper") else "lower"
        return B.poisson_bounds(lam=lam, gamma=gamma, tau=tau, side=side)
    if ineq == "supermartingale_sup":
        mean0, c, gamma = _need(cfg, "mean0", "c", "gamma")
        return B.supermartingale_sup_bound(mean0=mean0, c=c, gamma=gamma)
    if ineq == "doob_exp":
        (gamma,) = _need(cfg, "gamma")
        return B.doob_exp_bound(gamma=gamma, phi=phi)
    raise ConfigError(f"unknown inequality {ineq!r}")


def _cmd_bound(args) -> int:
    cfg = _merge_config("bound", args, [
        "ineq", "gamma", "vtau", "eta", "s", "lam", "tau", "b", "vm", "phi",
        "theta", "m", "mean0", "c", "format"])
    if args.print_config:
        _print_config("bound", cfg)
        return 0
    rep = _compute_bound(cfg)
    if cfg.get("format") == "json":
        print(json.dumps({"schema_version": SCHEMA_VERSION, **rep.to_dict()},
                         default=str))
    else:
        print(",".join([
            SCHEMA_VERSION, rep.inequality, fmt17(rep.bound), fmt17(rep.raw),
            fmt17(rep.s_used), fmt17(rep.slope_used), str(rep.exact).lower(),
            str(rep.vacuous).lower()]))
    return 0


# ---------------------------------------------------------------------------
# validate subcommand
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    cfg = _merge_config("validate", args,
                        ["preset", "paths", "seed", "alpha", "threads", "out"])
    if args.print_config:
        _print_config("validate", cfg)
        return 0
    name = cfg.get("preset")
    if name is None:
        raise ConfigError("missing required key 'preset'")
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; see 'crossbound presets list'")
    if cfg.get("seed") is None:
        raise ConfigError("missing required key 'seed' (mandatory for validate)")
    preset = PRESETS[name]
    paths = cfg.get("paths")
    alpha, threads = cfg.get("alpha"), cfg.get("threads")
    reports = preset.runner(
        paths=preset.default_paths if paths is None else int(paths),
        seed=int(cfg["seed"]), alpha=0.01 if alpha is None else float(alpha),
        threads=None if threads is None else int(threads))
    out_dir = FsPath(cfg.get("out") or os.environ.get(OUTPUT_DIR_ENV, "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}_report.csv"
    json_path = out_dir / f"{name}_report.json"
    lines = [ValidationReport.csv_header()]
    lines += [rep.csv_row() for rep in reports]
    # Rewriting an existing file truncates it in place, which some
    # filesystems make slow; a fresh file is cheap.
    csv_path.unlink(missing_ok=True)
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    json_path.unlink(missing_ok=True)
    json_path.write_text(
        json.dumps([rep.to_dict() for rep in reports], indent=2, default=str),
        encoding="utf-8")
    for line in lines:
        print(line)
    print(f"wrote {csv_path} and {json_path}", file=sys.stderr)
    return 1 if any(rep.verdict == "violated" for rep in reports) else 0


# ---------------------------------------------------------------------------
# simulate subcommand
# ---------------------------------------------------------------------------


def _spec_from_cfg(cfg: dict):
    proc = cfg.get("process")
    if proc is None:
        raise ConfigError("missing required key 'process'")
    if isinstance(proc, dict):
        return spec_from_dict(proc)
    rec = {"process": proc}
    if proc == "brownian":
        _need(cfg, "dt", "horizon")
        rec.update(dt=float(cfg["dt"]), horizon=float(cfg["horizon"]))
    elif proc == "poisson":
        _need(cfg, "lam", "horizon")
        rec.update(lam=float(cfg["lam"]), horizon=float(cfg["horizon"]),
                   centered=bool(cfg.get("centered", False)))
    elif proc == "iid_sum":
        _need(cfg, "n")
        dist = cfg.get("dist", "uniform")
        rec.update(n=int(cfg["n"]), dist=dist)
        if dist == "bernoulli":
            _need(cfg, "p")
            rec["p"] = float(cfg["p"])
    elif proc == "lazy_walk":
        _need(cfg, "n")
        rec.update(n=int(cfg["n"]), p_move=float(cfg.get("p_move", 1.0)),
                   drift=float(cfg.get("drift", 0.0)))
    else:
        raise ConfigError(f"unknown process {proc!r}")
    return spec_from_dict(rec)


def _path_csv(path) -> str:
    lines = ["time,value,vproxy"]
    for t, x, v in zip(path.times, path.values, path.vproxy):
        lines.append(f"{fmt17(t)},{fmt17(x)},{fmt17(v)}")
    return "\n".join(lines) + "\n"


def _cmd_simulate(args) -> int:
    cfg = _merge_config("simulate", args,
                        ["process", "paths", "seed", "out", "dt", "horizon",
                         "lam", "p", "n", "centered", "drift", "p_move", "dist"])
    if args.print_config:
        _print_config("simulate", cfg)
        return 0
    if cfg.get("seed") is None:
        raise ConfigError("missing required key 'seed'")
    spec = _spec_from_cfg(cfg)
    n_paths = int(cfg.get("paths") or 1)
    seed = int(cfg["seed"])
    out = cfg.get("out")
    if out is None:
        if n_paths != 1:
            raise ConfigError("writing multiple paths requires 'out'")
        sys.stdout.write(_path_csv(generate(spec, seed, 0)))
        return 0
    out_dir = FsPath(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(n_paths):
        (out_dir / f"path_{i:05d}.csv").write_text(
            _path_csv(generate(spec, seed, i)), encoding="utf-8")
    print(f"wrote {n_paths} path file(s) under {out_dir}", file=sys.stderr)
    return 0


def _cmd_presets(args) -> int:
    if args.action != "list":
        raise ConfigError(f"unknown presets action {args.action!r}")
    for name, preset in sorted(PRESETS.items()):
        print(f"{name}: {preset.description}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="crossbound",
        description="Boundary-crossing probability bounds and their Monte "
                    "Carlo validation.")
    sub = ap.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("bound", help="evaluate one inequality")
    pb.add_argument("--config")
    pb.add_argument("--print-config", action="store_true")
    pb.add_argument("--ineq")
    for flag in ("gamma", "vtau", "eta", "s", "tau", "b", "vm", "theta",
                 "mean0", "c"):
        pb.add_argument(f"--{flag}", type=float)
    pb.add_argument("--lambda", dest="lam", type=float)
    pb.add_argument("--m", type=int)
    pb.add_argument("--phi", help="phi kind as JSON, e.g. "
                                  '\'{"kind": "gaussian", "v": 1.0}\'')
    pb.add_argument("--format", choices=["csv", "json"])
    pb.set_defaults(fn=_cmd_bound)

    pv = sub.add_parser("validate", help="run a named validation suite")
    pv.add_argument("--config")
    pv.add_argument("--print-config", action="store_true")
    pv.add_argument("--preset")
    pv.add_argument("--paths", type=int)
    pv.add_argument("--seed", type=int)
    pv.add_argument("--alpha", type=float)
    pv.add_argument("--threads", type=int)
    pv.add_argument("--out")
    pv.set_defaults(fn=_cmd_validate)

    ps = sub.add_parser("simulate", help="dump simulated paths to CSV")
    ps.add_argument("--config")
    ps.add_argument("--print-config", action="store_true")
    ps.add_argument("--process")
    ps.add_argument("--paths", type=int)
    ps.add_argument("--seed", type=int)
    ps.add_argument("--out")
    ps.add_argument("--dt", type=float)
    ps.add_argument("--horizon", type=float)
    ps.add_argument("--lambda", dest="lam", type=float)
    ps.add_argument("--p", type=float)
    ps.add_argument("--n", type=int)
    ps.add_argument("--centered", action="store_const", const=True)
    ps.add_argument("--drift", type=float)
    ps.add_argument("--p-move", dest="p_move", type=float)
    ps.add_argument("--dist", choices=["uniform", "bernoulli"])
    ps.set_defaults(fn=_cmd_simulate)

    pp = sub.add_parser("presets", help="inspect shipped validation presets")
    pp.add_argument("action", choices=["list"])
    pp.set_defaults(fn=_cmd_presets)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CrossboundError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
