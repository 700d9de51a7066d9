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
from .mgf import (_CASTS, MgfBound, make_phi, phi_kind_from_dict,
                  phi_kind_to_dict)
from .presets import PRESETS
from .sim import check_whole, generate, spec_from_dict, spec_to_dict
from .validate import SCHEMA_VERSION, ValidationReport, fmt17

OUTPUT_DIR_ENV = "CROSSBOUND_OUTPUT_DIR"


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

_NOT_CONFIG_KEYS = {"help", "config", "print_config"}
# untyped flags whose config value may also be a JSON object (a record)
_RECORD_KEYS = {"phi", "process"}


def _config_keys(parser: argparse.ArgumentParser) -> dict:
    """A subcommand's config keys: each flag's dest, mapped to the flag."""
    return {a.dest: a for a in parser._actions
            if a.dest not in _NOT_CONFIG_KEYS}


def _config_value(flag: argparse.Action, val):
    """A config file's value for ``flag``, checked as the flag checks its own:
    strictly cast by its type (a switch's is bool), or, untyped, a string (or
    a record where the flag takes one); then one of its choices, if any."""
    key = flag.dest
    if val is None:
        return None
    kind = flag.type.__name__ if flag.type else "bool" if flag.const else None
    if kind is not None:
        try:
            val = _CASTS[kind](val)
        except (TypeError, ValueError):
            raise ConfigError(f"config key {key!r} must be {kind}, "
                              f"got {val!r}") from None
    elif not (isinstance(val, str)
              or key in _RECORD_KEYS and isinstance(val, dict)):
        raise ConfigError(f"config key {key!r} must be a string, got {val!r}")
    if flag.choices is not None and val not in flag.choices:
        raise ConfigError(f"config key {key!r} must be one of "
                          f"{list(flag.choices)}, got {val!r}")
    return val


def _merge_config(command: str, args: argparse.Namespace) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        try:
            raw = json.loads(FsPath(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        file_cmd = raw.pop("command", command)
        if file_cmd != command:
            raise ConfigError(
                f"config file is for command {file_cmd!r}, not {command!r}")
        for key, val in raw.items():
            if key not in args.config_keys:
                raise ConfigError(f"unknown config key {key!r} for {command}")
            cfg[key] = _config_value(args.config_keys[key], val)
    for name in args.config_keys:
        val = getattr(args, name, None)
        if val is not None:
            cfg[name] = val
    # records decode here, once, so --print-config refuses what a run refuses
    phi = cfg.get("phi")
    if phi is not None:
        try:
            rec = json.loads(phi) if isinstance(phi, str) else phi
        except json.JSONDecodeError as exc:
            raise ConfigError(f"key 'phi' is not JSON: {exc}") from None
        cfg["phi"] = make_phi(phi_kind_from_dict(rec))
    if isinstance(cfg.get("process"), dict):
        cfg["process"] = spec_from_dict(cfg["process"])
    if cfg.get("out") == "":
        raise ConfigError("key 'out' must name a directory, got ''")
    return cfg


def _record(val) -> dict:
    """A decoded phi or process as --print-config shows it: its record."""
    return phi_kind_to_dict(val.kind) if isinstance(val, MgfBound) else spec_to_dict(val)


# ---------------------------------------------------------------------------
# bound subcommand
# ---------------------------------------------------------------------------

def _need(cfg: dict, *names):
    for name in names:
        if cfg.get(name) is None:
            raise ConfigError(f"missing required key {name!r}")
    return [cfg[name] for name in names]


def _bound_table() -> dict:
    """Inequality id -> (evaluator, required config keys, fixed keywords).

    A fixed keyword that is also a config key is a default the config may
    override (vtau of eta_vee, phi of doob_exp).  Any other key set besides
    ineq and format is one the inequality does not read.
    """
    expfam = lambda **kw: B.expfam_bound(B.bernoulli_family(), **kw)
    table = {
        "azuma_two_sided": (B.azuma_bound, ("gamma", "vtau"),
                            {"kind": "two_sided"}),
        "bennett_cbb": (B.cbb_bounds, ("gamma", "vm", "b"),
                        {"which": "bennett"}),
        "bernstein_cbb": (B.cbb_bounds, ("gamma", "vm", "b"),
                          {"which": "bernstein"}),
        "chernoff_sub": (B.cbb_bounds, ("gamma", "vm", "b"),
                         {"which": "chernoff_sub"}),
        "supermartingale_sup": (B.supermartingale_sup_bound,
                                ("mean0", "c", "gamma"), {}),
        "doob_exp": (B.doob_exp_bound, ("gamma",), {"phi": None}),
    }
    for side in ("upper", "lower"):
        table.update({
            f"gen_line_{side}": (B.line_bound, ("phi", "s", "gamma", "vtau"),
                                 {"side": side}),
            f"opt_line_{side}": (B.optimized_line_bound,
                                 ("phi", "gamma", "vtau"), {"side": side}),
            f"vee_{side}": (B.vee_bound, ("phi", "gamma", "vtau"),
                            {"side": side}),
            f"azuma_{side}": (B.azuma_bound, ("gamma", "vtau"), {"kind": side}),
            f"expfam_{side}": (expfam, ("theta", "gamma", "m"), {"side": side}),
            f"poisson_{side}": (B.poisson_bounds, ("lam", "gamma", "tau"),
                                {"side": side}),
        })
        table[f"eta_ray_{side}"] = (B.eta_bound, ("phi", "gamma", "eta"),
                                    {"side": side, "variant": "ray"})
        table[f"eta_vee_{side}"] = (B.eta_bound, ("phi", "gamma", "eta"),
                                    {"side": side, "variant": "vee",
                                     "vtau": 0.0})
    return table


_BOUNDS = _bound_table()
# config key -> evaluator keyword, where the two differ
_KEYWORDS = {"vtau": "v_tau", "vm": "v_m"}


def _compute_bound(cfg: dict) -> B.BoundReport:
    (ineq,) = _need(cfg, "ineq")
    if ineq not in _BOUNDS:
        raise ConfigError(f"unknown inequality {ineq!r}")
    fn, keys, fixed = _BOUNDS[ineq]
    unread = [key for key, val in sorted(cfg.items()) if val is not None
              and key not in ("ineq", "format", *keys, *fixed)]
    if unread:
        raise ConfigError(f"{ineq} does not read key(s) "
                          f"{', '.join(map(repr, unread))}")
    kwargs = dict(fixed)
    kwargs.update((key, cfg[key]) for key in fixed if cfg.get(key) is not None)
    kwargs.update(zip(keys, _need(cfg, *keys)))
    return fn(**{_KEYWORDS.get(k, k): v for k, v in kwargs.items()})


def _cmd_bound(cfg: dict) -> int:
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


def _cmd_validate(cfg: dict) -> int:
    (name,) = _need(cfg, "preset")
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; see 'crossbound presets list'")
    (seed,) = _need(cfg, "seed")
    # a key left unset takes the runner's own default
    reports = PRESETS[name].runner(seed=seed, **{
        key: cfg[key] for key in ("paths", "alpha", "threads")
        if cfg.get(key) is not None})
    out = cfg.get("out")
    out_dir = FsPath(os.environ.get(OUTPUT_DIR_ENV, ".") if out is None else out)
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
    """The spec of a nested process record (decoded by _merge_config), or of
    the flat flags, whose dests are the record's keys."""
    (proc,) = _need(cfg, "process")
    if not isinstance(proc, str):
        return proc
    return spec_from_dict({key: val for key, val in cfg.items()
                           if key not in ("paths", "seed", "out")
                           and val is not None})


def _path_csv(path) -> str:
    lines = ["time,value,vproxy"]
    for t, x, v in zip(path.times, path.values, path.vproxy):
        lines.append(f"{fmt17(t)},{fmt17(x)},{fmt17(v)}")
    return "\n".join(lines) + "\n"


def _cmd_simulate(cfg: dict) -> int:
    (seed,) = _need(cfg, "seed")
    spec = _spec_from_cfg(cfg)
    n_paths = 1 if cfg.get("paths") is None else cfg["paths"]
    check_whole("paths", n_paths, 1)
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


def _cmd_presets(cfg: dict) -> int:
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
    # flags shared by subcommands: the config file, and a run's size and output
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config")
    config.add_argument("--print-config", action="store_true")
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--paths", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--out")

    pb = sub.add_parser("bound", parents=[config],
                        help="evaluate one inequality")
    pb.add_argument("--ineq")
    for flag in ("gamma", "vtau", "eta", "s", "tau", "b", "vm", "theta",
                 "mean0", "c"):
        pb.add_argument(f"--{flag}", type=float)
    pb.add_argument("--lambda", dest="lam", type=float)
    pb.add_argument("--m", type=int)
    pb.add_argument("--phi", help="phi kind as JSON, e.g. "
                                  '\'{"kind": "gaussian", "v": 1.0}\'')
    pb.add_argument("--format", choices=["csv", "json"])
    pb.set_defaults(fn=_cmd_bound, config_keys=_config_keys(pb))

    pv = sub.add_parser("validate", parents=[config, run],
                        help="run a named validation suite")
    pv.add_argument("--preset")
    pv.add_argument("--alpha", type=float)
    pv.add_argument("--threads", type=int)
    pv.set_defaults(fn=_cmd_validate, config_keys=_config_keys(pv))

    ps = sub.add_parser("simulate", parents=[config, run],
                        help="dump simulated paths to CSV")
    ps.add_argument("--process")
    ps.add_argument("--dt", type=float)
    ps.add_argument("--horizon", type=float)
    ps.add_argument("--lambda", dest="lam", type=float)
    ps.add_argument("--p", type=float)
    ps.add_argument("--n", type=int)
    ps.add_argument("--centered", action="store_const", const=True)
    ps.add_argument("--drift", type=float)
    ps.add_argument("--p-move", dest="p_move", type=float)
    ps.add_argument("--dist", choices=["uniform", "bernoulli"])
    ps.set_defaults(fn=_cmd_simulate, config_keys=_config_keys(ps))

    pp = sub.add_parser("presets", help="inspect shipped validation presets")
    pp.add_argument("action", choices=["list"])
    pp.set_defaults(fn=_cmd_presets, config_keys={})
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args.command, args)
        if getattr(args, "print_config", False):
            print(json.dumps({"command": args.command, **cfg}, sort_keys=True,
                             default=_record))
            return 0
        return args.fn(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CrossboundError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
