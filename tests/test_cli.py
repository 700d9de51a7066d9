import json
import math

import pytest

from crossbound import bounds as B
from crossbound.cli import (_BOUNDS, _compute_bound, _merge_config,
                            _spec_from_cfg, build_parser, main)
from crossbound.mgf import Gaussian, make_phi
from crossbound.sim import (BernoulliIncrements, Brownian, IidSum, LazyWalk,
                            PoissonCounting, UniformIncrements, spec_from_dict)
from crossbound.validate import EventSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _merged(*argv):
    """The config _merge_config makes of a command line."""
    args = build_parser().parse_args(list(argv))
    return _merge_config(args.command, args)


class TestBoundCommand:
    def test_azuma_two_sided(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--ineq", "azuma_two_sided",
                               "--gamma", "2", "--vtau", "1")
        assert code == 0
        fields = out.strip().split(",")
        assert fields[1] == "azuma_two_sided"
        assert float(fields[2]) == pytest.approx(0.2706705664732254, rel=1e-12)

    def test_doob(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--ineq", "doob_exp",
                               "--gamma", "2")
        assert code == 0
        assert float(out.strip().split(",")[2]) == pytest.approx(0.5)

    def test_poisson_upper(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--ineq", "poisson_upper",
                               "--lambda", "1", "--gamma", "1", "--tau", "1")
        assert code == 0
        assert float(out.strip().split(",")[2]) == pytest.approx(
            math.e / 4.0, rel=1e-12)

    def test_expfam_gamma_zero_is_vacuous(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--ineq", "expfam_upper",
                               "--gamma", "0", "--theta", "0.3", "--m", "5")
        assert code == 0
        assert out.strip().split(",")[-1] == "true"

    def test_phi_json_flag(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--ineq", "opt_line_upper",
                               "--gamma", "2", "--vtau", "1",
                               "--phi", '{"kind": "gaussian", "v": 1.0}')
        assert code == 0
        fields = out.strip().split(",")
        assert fields[1] == "opt_line_upper"
        assert float(fields[2]) == pytest.approx(math.exp(-2.0), rel=1e-10)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--ineq", "doob_exp",
                               "--gamma", "4", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["bound"] == pytest.approx(0.25)
        assert rec["schema_version"] == "1"

    def test_json_carries_the_event(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--ineq", "poisson_upper",
                               "--lambda", "1", "--gamma", "1", "--tau", "1",
                               "--format", "json")
        assert code == 0
        rec = json.loads(out)
        # the line of the centered path N_t - t, as the domination sweep counts it
        assert rec["event"] == {"kind": "line", "side": "upper", "gamma": 1.0,
                                "v_tau": 1.0, "slope": 0.4426950408889634}
        assert "centered_slope" not in rec["params"]

    def test_missing_key_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--ineq", "poisson_upper",
                               "--gamma", "1", "--tau", "1")
        assert code == 2
        assert "lam" in err

    def test_domain_violation_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--ineq", "poisson_lower",
                               "--lambda", "1", "--gamma", "2", "--tau", "1")
        assert code == 3
        assert "gamma" in err

    def test_phi_overflow_exit_3(self, capsys):
        code, out, err = run_cli(
            capsys, "bound", "--ineq", "gen_line_upper", "--s", "1000",
            "--gamma", "1000", "--vtau", "1",
            "--phi", '{"kind": "poisson_centered", "lam": 1.0}')
        assert code == 3 and out == "" and "s=1000.0" in err

    def test_phi_kind_echo_reads_back_as_phi(self, capsys):
        # the domain edge b = 1.5 and the kind's own b = 2.0 both survive
        argv = ["bound", "--ineq", "opt_line_upper", "--gamma", "0.5",
                "--vtau", "1", "--format", "json", "--phi"]
        code, out, _ = run_cli(capsys, *argv,
                               '{"kind": "bernstein", "b": 2.0}')
        params = json.loads(out)["params"]
        assert code == 0 and params["b"] == 1.5
        assert params["phi_kind"] == {"kind": "bernstein", "b": 2.0}
        code, again, _ = run_cli(capsys, *argv, json.dumps(params["phi_kind"]))
        assert code == 0 and again == out

    @pytest.mark.parametrize("gamma", ["inf", "nan"])
    def test_non_finite_gamma_exit_3(self, capsys, gamma):
        code, out, err = run_cli(capsys, "bound", "--ineq", "azuma_upper",
                                 "--gamma", gamma, "--vtau", "1")
        assert code == 3 and out == ""
        assert "gamma" in err

    @pytest.mark.parametrize("ineq, eta, vtau, named", [
        ("eta_ray_upper", "nan", None, "eta"),
        ("eta_vee_lower", "nan", "0", "eta"),
        ("eta_vee_upper", "1", "nan", "v_tau"),
    ], ids=["ray_eta", "vee_eta", "vee_vtau"])
    def test_nan_eta_or_vtau_exit_3(self, capsys, ineq, eta, vtau, named):
        # only the vee reads V_tau, so the ray gets no --vtau
        extra = [] if vtau is None else ["--vtau", vtau]
        code, out, err = run_cli(capsys, "bound", "--ineq", ineq, "--gamma",
                                 "1", "--eta", eta, *extra, "--phi", PHI_REC)
        assert code == 3 and out == "" and named in err

    @pytest.mark.parametrize("argv, named", [
        (["--ineq", "eta_ray_upper", "--gamma", "1", "--eta", "1",
          "--vtau", "nan", "--phi", '{"kind": "gaussian", "v": 1.0}'],
         ["'vtau'"]),
        (["--ineq", "azuma_upper", "--gamma", "2", "--vtau", "1",
          "--eta", "5"], ["'eta'"]),
        (["--ineq", "doob_exp", "--gamma", "2", "--s", "1", "--m", "3"],
         ["'m'", "'s'"]),
    ], ids=["eta_ray_vtau", "azuma_eta", "doob_s_m"])
    def test_unread_key_exit_2(self, capsys, argv, named):
        # a key the inequality does not read is refused, not ignored
        code, out, err = run_cli(capsys, "bound", *argv)
        assert code == 2 and out == ""
        assert all(name in err for name in named)

    def test_eta_vee_at_default_vtau_is_the_ray(self, capsys):
        # eta = 0 and V_tau = 0: X_0 = 0 already meets the boundary, so
        # P = 1; with this phi s* is infinite, where the vee read 0
        phi = '{"kind": "hoeffding_bernoulli", "mu": 0.3}'
        reps = {}
        for ineq in ("eta_vee_upper", "eta_ray_upper"):
            code, out, _ = run_cli(capsys, "bound", "--ineq", ineq, "--gamma",
                                   "0.8", "--eta", "0", "--phi", phi,
                                   "--format", "json")
            assert code == 0
            reps[ineq] = json.loads(out)
        vee, ray = reps["eta_vee_upper"], reps["eta_ray_upper"]
        assert (vee["bound"], vee["raw"]) == (ray["bound"], ray["raw"]) == \
            (1.0, 1.0)

    # phi records decode like process records: a tag, key or type error
    # exits 2 and names the key; an out-of-range value exits 3
    @pytest.mark.parametrize("phi, code, named", [
        ("notjson", 2, "'phi'"),
        ("[1]", 2, "'phi'"),
        ('{"kind": "bennett", "sigma2": "x", "b": 1}', 2, "'sigma2'"),
        ('{"kind": "nope", "v": 1}', 2, "'nope'"),
        ('{"kind": "gaussian", "v": 1, "w": 2}', 2, "'w'"),
        ('{"kind": "gaussian", "v": 0}', 3, "v must be"),
    ], ids=["not_json", "not_object", "bad_type", "bad_tag", "bad_key",
            "out_of_range"])
    def test_bad_phi_exit_code(self, capsys, phi, code, named):
        got, out, err = run_cli(capsys, "bound", "--ineq", "opt_line_upper",
                                "--gamma", "2", "--vtau", "1", "--phi", phi)
        assert (got, out) == (code, "") and named in err

    def test_custom_phi_with_decreasing_ratio_exits_3(self, capsys,
                                                      monkeypatch):
        # a phi(s)/s that decreases is no valid phi: eta_bound refuses it
        import numpy as np
        from crossbound import Custom
        bad = make_phi(Custom(phi=lambda s: np.abs(s) * (2.0 + np.sin(5.0 * s)),
                              a=20.0, b=20.0))
        monkeypatch.setattr("crossbound.cli.make_phi", lambda kind: bad)
        code, out, err = run_cli(capsys, "bound", "--ineq", "eta_ray_upper",
                                 "--gamma", "2", "--eta", "1", "--phi", PHI_REC)
        assert code == 3 and out == "" and "decreases" in err


_COLD_PROBE = """
import contextlib, io, sys
from crossbound.cli import main
argv = {argv!r}
with contextlib.redirect_stdout(io.StringIO()):
    code = main(argv) if argv else 0
print(code, *sorted(m for m in sys.modules
                    if m.startswith(("scipy", "numpy.ma"))))
"""


@pytest.mark.parametrize("argv, banned", [
    ([], ("scipy", "numpy.ma")),
    (["bound", "--ineq", "opt_line_upper", "--gamma", "2", "--vtau", "1",
      "--phi", '{"kind": "bernstein", "b": 1.0}'], ("scipy", "numpy.ma")),
    (["simulate", "--process", "poisson", "--lambda", "1", "--horizon", "5",
      "--seed", "3"], ("scipy",)),
], ids=["import", "bound", "simulate"])
def test_cold_start_leaves_scipy_out(argv, banned):
    # scipy.special serves only Clopper-Pearson intervals and the horizon
    # rule, so importing the CLI, a bound and a path load none of scipy; a
    # bound on a finite domain (Bernstein) loads no numpy.ma either
    import subprocess
    import sys
    got = subprocess.run([sys.executable, "-c", _COLD_PROBE.format(argv=argv)],
                         capture_output=True, text=True, check=True)
    code, *loaded = got.stdout.split()
    assert code == "0", got.stderr
    came = [m for m in loaded
            if any(m == b or m.startswith(b + ".") for b in banned)]
    assert not came, f"loaded: {came}"


PHI_REC = '{"kind": "gaussian", "v": 1.0}'
_G = make_phi(Gaussian(1.0))


def _sides(ineq, keys, call):
    return {f"{ineq}_{side}": (keys, lambda side=side: call(side))
            for side in ("upper", "lower")}


# inequality id -> (required config keys, the direct evaluator call)
BOUND_CASES = {
    **_sides("gen_line", {"phi": PHI_REC, "s": 0.5, "gamma": 2.0, "vtau": 1.5},
             lambda side: B.line_bound(_G, s=0.5, gamma=2.0, v_tau=1.5,
                                       side=side)),
    **_sides("opt_line", {"phi": PHI_REC, "gamma": 2.0, "vtau": 1.5},
             lambda side: B.optimized_line_bound(_G, gamma=2.0, v_tau=1.5,
                                                 side=side)),
    **_sides("vee", {"phi": PHI_REC, "gamma": 2.0, "vtau": 1.5},
             lambda side: B.vee_bound(_G, gamma=2.0, v_tau=1.5, side=side)),
    **_sides("eta_ray", {"phi": PHI_REC, "gamma": 2.0, "eta": 0.5},
             lambda side: B.eta_bound(_G, gamma=2.0, eta=0.5, v_tau=0.0,
                                      side=side, variant="ray")),
    **_sides("eta_vee", {"phi": PHI_REC, "gamma": 2.0, "eta": 0.5},
             lambda side: B.eta_bound(_G, gamma=2.0, eta=0.5, v_tau=0.0,
                                      side=side, variant="vee")),
    **_sides("azuma", {"gamma": 2.0, "vtau": 1.5},
             lambda side: B.azuma_bound(gamma=2.0, v_tau=1.5, kind=side)),
    "azuma_two_sided": ({"gamma": 2.0, "vtau": 1.5}, lambda: B.azuma_bound(
        gamma=2.0, v_tau=1.5, kind="two_sided")),
    **{ineq: ({"gamma": 2.0, "vm": 1.5, "b": 1.0},
              lambda which=which: B.cbb_bounds(gamma=2.0, v_m=1.5, b=1.0,
                                               which=which))
       for ineq, which in [("bennett_cbb", "bennett"),
                           ("bernstein_cbb", "bernstein"),
                           ("chernoff_sub", "chernoff_sub")]},
    **_sides("expfam", {"theta": 0.3, "gamma": 0.2, "m": 5},
             lambda side: B.expfam_bound(B.bernoulli_family(), theta=0.3,
                                         gamma=0.2, m=5, side=side)),
    **_sides("poisson", {"lam": 1.0, "gamma": 0.5, "tau": 2.0},
             lambda side: B.poisson_bounds(lam=1.0, gamma=0.5, tau=2.0,
                                           side=side)),
    "supermartingale_sup": ({"mean0": 1.0, "c": 0.0, "gamma": 4.0},
                            lambda: B.supermartingale_sup_bound(
                                mean0=1.0, c=0.0, gamma=4.0)),
    "doob_exp": ({"gamma": 4.0}, lambda: B.doob_exp_bound(gamma=4.0)),
}


@pytest.mark.parametrize("ineq", sorted(BOUND_CASES))
def test_bound_table_matches_evaluators(capsys, ineq):
    keys, call = BOUND_CASES[ineq]
    flags = {key: "--lambda" if key == "lam" else f"--{key}" for key in keys}
    argv = [a for key, val in keys.items() for a in (flags[key], str(val))]
    assert _compute_bound(_merged("bound", "--ineq", ineq, *argv)) == call()
    # each required key, left out in turn, exits 2 and is named
    for missing in keys:
        argv = [a for key, val in keys.items() if key != missing
                for a in (flags[key], str(val))]
        code, out, err = run_cli(capsys, "bound", "--ineq", ineq, *argv)
        assert code == 2 and out == "" and repr(missing) in err


def test_bound_table_covers_every_id():
    assert sorted(_BOUNDS) == sorted(BOUND_CASES) and len(BOUND_CASES) == 22
    # vtau stays optional for eta_vee, and phi for doob_exp; the phi of a
    # merged config is decoded
    phi = {"phi": _G}
    assert _compute_bound({"ineq": "eta_vee_upper", "gamma": 2.0, "eta": 0.5,
                           "vtau": 1.5, **phi}) == B.eta_bound(
        _G, gamma=2.0, eta=0.5, v_tau=1.5, variant="vee")
    assert _compute_bound({"ineq": "doob_exp", "gamma": 4.0, **phi}) == \
        B.doob_exp_bound(gamma=4.0, phi=_G)


def test_every_report_but_cbb_states_its_event():
    # the cbb events live on the step-count V grid, so presets states them
    no_event = {"bennett_cbb", "bernstein_cbb", "chernoff_sub"}
    for ineq, (_, call) in BOUND_CASES.items():
        report = call()
        assert (report.event is None) == (ineq in no_event), ineq
        if report.event is not None:
            side = next((side for side in ("two_sided", "upper", "lower")
                         if ineq.endswith(side)), "upper")
            assert EventSpec(**report.event).side == side, ineq


class TestConfigHandling:
    def test_config_file_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "bound", "ineq": "doob_exp",
                                   "gamma": 2.0}))
        code, out, _ = run_cli(capsys, "bound", "--config", str(cfg))
        assert code == 0 and float(out.split(",")[2]) == pytest.approx(0.5)
        code, out, _ = run_cli(capsys, "bound", "--config", str(cfg),
                               "--gamma", "4")
        assert code == 0 and float(out.split(",")[2]) == pytest.approx(0.25)

    def test_unknown_key_named_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "bound", "ineq": "doob_exp",
                                   "gamma": 2.0, "gammma": 3.0}))
        code, _, err = run_cli(capsys, "bound", "--config", str(cfg))
        assert code == 2
        assert "gammma" in err

    @pytest.mark.parametrize("command, rec, key", [
        ("validate", {"preset": "optional_stopping", "seed": "x"}, "seed"),
        ("bound", {"ineq": "doob_exp", "gamma": [2]}, "gamma"),
        ("simulate", {"process": "brownian", "dt": "abc", "horizon": 1,
                      "seed": 1}, "dt"),
        ("simulate", {"process": {"process": "brownian", "dt": "abc",
                                  "horizon": 1}, "seed": 1}, "dt"),
        ("simulate", {"process": "brownian", "dt": 0.1, "seed": 1},
         "horizon"),
        ("simulate", {"process": {"process": "brownian", "dt": 0.1},
                      "seed": 1}, "horizon"),
        ("simulate", {"process": {"process": "poisson", "lam": 1,
                                  "horizon": 1, "centered": "false"},
                      "seed": 1}, "centered"),
        ("simulate", {"process": {"process": "brownian", "dt": 0.1,
                                  "horizon": 1, "n": 3}, "seed": 1}, "n"),
        ("simulate", {"process": "brownian", "dt": 0.1, "horizon": 1,
                      "n": 3, "seed": 1}, "n"),
        ("simulate", {"process": {"process": "walk"}, "seed": 1}, "walk"),
        ("bound", {"ineq": "doob_exp", "gamma": 2, "format": "xml"}, "format"),
        ("simulate", {"process": "iid_sum", "n": 5, "dist": "two_point",
                      "seed": 1}, "dist"),
        ("validate", {"preset": ["x"], "seed": 1}, "preset"),
        ("bound", {"ineq": 3, "gamma": 2}, "ineq"),
        ("bound", {"ineq": "doob_exp", "gamma": 2, "phi": [1]}, "phi"),
        ("simulate", {"process": "poisson", "lam": 1, "horizon": 1,
                      "centered": "yes", "seed": 1}, "centered"),
        # strict casts: an int is never a bool or a fraction, a float never
        # a bool, a bool never a number
        ("validate", {"preset": "optional_stopping", "seed": True,
                      "paths": 1}, "seed"),
        ("validate", {"preset": "optional_stopping", "seed": 1,
                      "paths": 1.9}, "paths"),
        ("bound", {"ineq": "doob_exp", "gamma": True}, "gamma"),
        ("simulate", {"process": {"process": "lazy_walk", "n": 5.7},
                      "seed": 1}, "n"),
        ("simulate", {"process": {"process": "lazy_walk", "n": True},
                      "seed": 1}, "n"),
        ("simulate", {"process": "lazy_walk", "n": 5.7, "seed": 1}, "n"),
        ("simulate", {"process": {"process": "poisson", "lam": 1,
                                  "horizon": 1, "centered": 1},
                      "seed": 1}, "centered"),
        ("simulate", {"process": "poisson", "lam": 1, "horizon": 1,
                      "centered": 1, "seed": 1}, "centered"),
        ("bound", {"ineq": "opt_line_upper", "gamma": 2, "vtau": 1,
                   "phi": {"kind": "gaussian", "v": True}}, "v"),
    ], ids=["validate_seed", "bound_gamma", "flat_dt", "nested_dt",
            "flat_missing", "nested_missing", "nested_bool", "nested_unknown",
            "flat_unused", "nested_tag", "format_choice", "dist_choice",
            "preset_list", "ineq_number", "phi_list", "switch_string",
            "int_bool", "int_fraction", "float_bool", "nested_int_fraction",
            "nested_int_bool", "flat_int_fraction", "nested_bool_int",
            "switch_int", "phi_float_bool"])
    def test_bad_config_value_exits_2(self, capsys, tmp_path, command, rec,
                                      key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": command, **rec}))
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 2 and out == ""
        assert repr(key) in err

    # a process or phi record decodes once, when the config is merged, so
    # --print-config refuses what the run refuses, with the same exit code
    @pytest.mark.parametrize("command, rec, flags, named", [
        ("simulate", {"process": {"process": "lazy_walk", "n": 5.7},
                      "seed": 1}, [], "'n'"),
        ("simulate", {"process": {"process": "walk"}, "seed": 1}, [],
         "'walk'"),
        ("simulate", {"process": {"process": "brownian", "dt": 0.1},
                      "seed": 1}, [], "'horizon'"),
        ("simulate", {"process": {"process": "lazy_walk", "n": 0},
                      "seed": 1}, [], "n >= 1"),
        ("bound", {"ineq": "opt_line_upper", "gamma": 2, "vtau": 1},
         ["--phi", '{"kind": "gaussian", "v": "x"}'], "'v'"),
        ("bound", {"ineq": "opt_line_upper", "gamma": 2, "vtau": 1},
         ["--phi", "notjson"], "'phi'"),
        ("bound", {"ineq": "opt_line_upper", "gamma": 2, "vtau": 1,
                   "phi": {"kind": "gaussian", "w": 1}}, [], "'w'"),
        ("bound", {"ineq": "opt_line_upper", "gamma": 2, "vtau": 1,
                   "phi": {"kind": "gaussian", "v": 0}}, [], "v must be"),
    ], ids=["nested_int_fraction", "nested_tag", "nested_missing",
            "nested_range", "phi_flag_type", "phi_flag_json", "phi_key",
            "phi_range"])
    def test_print_config_refuses_what_the_run_refuses(
            self, capsys, tmp_path, command, rec, flags, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": command, **rec}))
        argv = [command, "--config", str(cfg), *flags]
        run = run_cli(capsys, *argv)
        assert run[0] in (2, 3) and run[1] == "" and named in run[2]
        assert run_cli(capsys, *argv, "--print-config") == run

    @pytest.mark.parametrize("command, key, given, shown", [
        ("simulate", "process",
         {"process": "iid_sum", "dist": "bernoulli", "p": "0.3", "n": 5},
         {"process": "iid_sum", "dist": "bernoulli", "p": 0.3, "n": 5}),
        ("simulate", "process",
         {"process": "poisson", "lam": 2, "horizon": 3, "centered": True},
         {"process": "poisson", "lam": 2.0, "horizon": 3.0,
          "centered": True}),
        ("bound", "phi", '{"kind": "bennett", "sigma2": 1, "b": "2"}',
         {"kind": "bennett", "sigma2": 1.0, "b": 2.0}),
    ], ids=["iid_sum", "poisson", "phi"])
    def test_print_config_shows_decoded_records(self, capsys, tmp_path,
                                                command, key, given, shown):
        # a record prints as it decodes, its values cast, and the printed
        # config runs as the given one does
        rec = ({"command": "simulate", "seed": 1} if command == "simulate"
               else {"command": "bound", "ineq": "opt_line_upper",
                     "gamma": 2, "vtau": 1})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**rec, key: given}))
        code, printed, _ = run_cli(capsys, command, "--config", str(cfg),
                                   "--print-config")
        assert code == 0 and json.loads(printed)[key] == shown
        again = tmp_path / "printed.json"
        again.write_text(printed)
        ran = run_cli(capsys, command, "--config", str(cfg))
        assert ran[0] == 0
        assert run_cli(capsys, command, "--config", str(again)) == ran

    def test_config_strings_are_cast_like_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        flags = run_cli(capsys, "bound", "--ineq", "doob_exp", "--gamma", "2")
        cfg.write_text(json.dumps({"command": "bound", "ineq": "doob_exp",
                                   "gamma": "2"}))
        assert run_cli(capsys, "bound", "--config", str(cfg)) == flags
        flags = run_cli(capsys, "simulate", "--process", "brownian", "--dt",
                        "0.1", "--horizon", "1", "--seed", "1")
        assert flags[0] == 0
        for proc in ({"process": "brownian", "dt": "0.1", "horizon": "1"},
                     {"process": {"process": "brownian", "dt": "0.1",
                                  "horizon": 1}}):
            cfg.write_text(json.dumps({"command": "simulate", "seed": "1",
                                       **proc}))
            assert run_cli(capsys, "simulate", "--config", str(cfg)) == flags

    @pytest.mark.parametrize("argv", [
        ["validate", "--preset", "optional_stopping", "--seed", "1",
         "--format", "json"],
        ["bound", "--ineq", "azuma_upper", "--gamma", "2", "--vtau", "1",
         "--side", "upper"],
        ["bound", "--ineq", "eta_ray_upper", "--gamma", "2", "--eta", "1",
         "--phi", '{"kind": "gaussian", "v": 1.0}', "--variant", "ray"],
    ])
    def test_removed_flags_exit_2(self, capsys, argv):
        # side and variant come from --ineq; validate always writes CSV and JSON
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, key, value", [
        ("validate", "format", "json"),
        ("bound", "side", "upper"),
        ("bound", "variant", "ray"),
    ])
    def test_removed_config_keys_exit_2(self, capsys, tmp_path, command, key,
                                        value):
        cfg = tmp_path / "cfg.json"
        base = ({"preset": "optional_stopping", "seed": 1} if command == "validate"
                else {"ineq": "azuma_upper", "gamma": 2.0, "vtau": 1.0})
        cfg.write_text(json.dumps({"command": command, **base, key: value}))
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 2 and out == ""
        assert repr(key) in err

    def test_print_config_roundtrip(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "bound", "--ineq", "azuma_upper",
                               "--gamma", "2", "--vtau", "1", "--print-config")
        assert code == 0
        cfg = tmp_path / "printed.json"
        cfg.write_text(out)
        code, out2, _ = run_cli(capsys, "bound", "--config", str(cfg),
                                "--print-config")
        assert code == 0
        assert json.loads(out) == json.loads(out2)


def _flags(command):
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    return {a.dest: a for a in sub.choices[command]._actions
            if a.option_strings and a.dest not in ("help", "config",
                                                   "print_config")}


def _good_value(flag):
    """A config value that passes the flag's own checks."""
    if flag.choices:
        return flag.choices[0]
    if flag.type is not None:
        return 1              # casts to int and to float
    if flag.const is not None:
        return True           # a switch
    if flag.dest == "phi":
        return {"kind": "gaussian", "v": 1.0}   # decoded when merged
    return f"value-{flag.dest}"


@pytest.mark.parametrize("command", ["bound", "validate", "simulate"])
def test_every_flag_is_a_config_key(capsys, tmp_path, command):
    flags = _flags(command)
    types = {d: f.type for d, f in flags.items()}
    assert types
    rec = {"command": command, **{d: _good_value(f) for d, f in flags.items()}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(rec))
    code, out, _ = run_cli(capsys, command, "--config", str(cfg),
                           "--print-config")
    assert code == 0 and json.loads(out) == rec
    printed = json.loads(out)
    assert all(type(printed[d]) is t for d, t in types.items() if t)
    for key in [d for d, t in types.items() if t]:
        bad = tmp_path / f"{key}.json"
        bad.write_text(json.dumps({**rec, key: f"value-{key}"}))
        code, out, err = run_cli(capsys, command, "--config", str(bad),
                                 "--print-config")
        assert code == 2 and out == "" and repr(key) in err
    # an untyped flag takes a string, a switch a boolean, and a flag with
    # choices only those
    for key, flag in flags.items():
        if flag.type is not None:
            continue
        for val in [7, ["x"]] + (["not-a-choice"] if flag.choices else []):
            bad = tmp_path / f"{key}.json"
            bad.write_text(json.dumps({**rec, key: val}))
            code, out, err = run_cli(capsys, command, "--config", str(bad),
                                     "--print-config")
            assert code == 2 and out == "" and repr(key) in err, (key, val)
    for key in ("config", "print_config", "not_a_flag"):
        cfg.write_text(json.dumps({**rec, key: 1}))
        code, out, err = run_cli(capsys, command, "--config", str(cfg),
                                 "--print-config")
        assert code == 2 and out == "" and repr(key) in err


class TestSimulateCommand:
    def test_brownian_row_count(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--process", "brownian",
                               "--dt", "0.25", "--horizon", "1", "--seed", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "time,value,vproxy"
        assert len(lines) - 1 == 5

    def test_byte_identical_reruns(self, capsys):
        args = ("simulate", "--process", "brownian", "--dt", "0.1",
                "--horizon", "1", "--seed", "9")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_poisson_row_count_and_mean(self, capsys):
        total_jumps = 0
        n_seeds = 200
        for seed in range(n_seeds):
            code, out, _ = run_cli(capsys, "simulate", "--process", "poisson",
                                   "--lambda", "2", "--horizon", "10",
                                   "--seed", str(seed))
            assert code == 0
            lines = out.strip().splitlines()
            jumps = len(lines) - 1 - 2  # header + endpoints
            last = float(lines[-1].split(",")[1])
            assert jumps == last
            total_jumps += jumps
        mean = total_jumps / n_seeds
        assert abs(mean - 20.0) <= 4.0 * math.sqrt(20.0 / n_seeds)

    def test_multi_path_files(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "simulate", "--process", "lazy_walk",
                             "--n", "10", "--paths", "3", "--seed", "4",
                             "--out", str(tmp_path))
        assert code == 0
        files = sorted(p.name for p in tmp_path.glob("path_*.csv"))
        assert files == ["path_00000.csv", "path_00001.csv", "path_00002.csv"]

    def test_seed_required(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--process", "brownian",
                               "--dt", "0.25", "--horizon", "1")
        assert code == 2 and "seed" in err

    @pytest.mark.parametrize("paths", ["0", "-1"])
    @pytest.mark.parametrize("to_dir", [True, False])
    def test_nonpositive_paths_exit_3(self, capsys, tmp_path, paths, to_dir):
        out = ("--out", str(tmp_path)) if to_dir else ()
        code, stdout, err = run_cli(capsys, "simulate", "--process", "brownian",
                                    "--dt", "0.5", "--horizon", "1", "--seed",
                                    "1", "--paths", paths, *out)
        assert code == 3 and "paths" in err and stdout == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("from_file", [False, True])
    def test_empty_out_exits_2(self, capsys, tmp_path, monkeypatch,
                               from_file):
        # an empty directory name is no directory, not the working one
        monkeypatch.chdir(tmp_path)
        argv = ["--process", "lazy_walk", "--n", "5", "--paths", "2",
                "--seed", "1"]
        if from_file:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"command": "simulate", "out": ""}))
            argv += ["--config", str(cfg)]
        else:
            argv += ["--out", ""]
        code, out, err = run_cli(capsys, "simulate", *argv)
        assert code == 2 and out == "" and "'out'" in err
        assert not list(tmp_path.glob("path_*"))

    @pytest.mark.parametrize("argv, spec", [
        (("brownian", "--dt", "0.1", "--horizon", "2"), Brownian(0.1, 2.0)),
        (("poisson", "--lambda", "2", "--horizon", "3", "--centered"),
         PoissonCounting(2.0, 3.0, centered=True)),
        (("iid_sum", "--n", "5"), IidSum(UniformIncrements(), 5)),
        (("iid_sum", "--n", "5", "--dist", "bernoulli", "--p", "0.3"),
         IidSum(BernoulliIncrements(0.3), 5)),
        (("lazy_walk", "--n", "5", "--p-move", "0.5", "--drift", "-0.1"),
         LazyWalk(0.5, 5, -0.1)),
    ], ids=["brownian", "poisson", "uniform", "bernoulli", "lazy_walk"])
    def test_flags_and_record_give_one_spec(self, tmp_path, argv, spec):
        cfg = _merged("simulate", "--process", *argv)
        assert _spec_from_cfg(cfg) == spec
        nested = tmp_path / "nested.json"
        nested.write_text(json.dumps({"process": cfg}))
        assert _spec_from_cfg(_merged("simulate", "--config",
                                      str(nested))) == spec
        assert spec_from_dict(cfg) == spec

    @pytest.mark.parametrize("argv", [
        ("brownian", "--dt", "nan", "--horizon", "1"),
        ("brownian", "--dt", "0.1", "--horizon", "inf"),
        ("poisson", "--lambda", "nan", "--horizon", "1"),
        ("lazy_walk", "--n", "5", "--drift", "nan"),
    ], ids=["dt_nan", "horizon_inf", "lambda_nan", "drift_nan"])
    def test_non_finite_parameter_exits_3(self, capsys, argv):
        code, stdout, err = run_cli(capsys, "simulate", "--process", *argv,
                                    "--seed", "3")
        assert code == 3 and stdout == "" and "finite" in err

    def test_brownian_horizon_off_the_dt_grid_exits_3(self, capsys):
        # 1.0 is not a whole number of 0.3 steps: no path ending at t = 0.9
        code, stdout, err = run_cli(capsys, "simulate", "--process",
                                    "brownian", "--dt", "0.3", "--horizon",
                                    "1.0", "--seed", "3")
        assert code == 3 and stdout == "" and "whole number" in err


class TestValidateCommand:
    def test_preset_required_and_seed_required(self, capsys):
        code, _, err = run_cli(capsys, "validate")
        assert code == 2 and "preset" in err
        code, _, err = run_cli(capsys, "validate", "--preset",
                               "optional_stopping")
        assert code == 2 and "seed" in err

    def test_unknown_preset(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--preset", "nope",
                               "--seed", "1")
        assert code == 2 and "nope" in err

    def test_small_run_writes_reports(self, capsys, tmp_path):
        stale = tmp_path / "optional_stopping_report.csv"
        stale.write_text("stale\n" * 1000)
        code, out, _ = run_cli(capsys, "validate", "--preset",
                               "optional_stopping", "--paths", "2000",
                               "--seed", "7", "--out", str(tmp_path))
        assert code == 0
        assert stale.read_text() == out
        recs = json.loads(
            (tmp_path / "optional_stopping_report.json").read_text())
        assert {r["label"] for r in recs} == {"walk_martingale",
                                              "walk_supermartingale"}
        header = out.splitlines()[0]
        assert header.startswith("schema_version,label")

    @pytest.mark.parametrize("preset, flag, value", [
        ("theorem9_all", "--alpha", "0"),
        ("expexact_brownian", "--paths", "0"),
        ("optional_stopping", "--threads", "0"),
        ("theorem9_all", "--threads", "-1"),
    ])
    def test_bad_run_setting_exits_3_before_drawing(self, capsys, tmp_path,
                                                    monkeypatch, preset, flag,
                                                    value):
        import crossbound.sim
        import crossbound.stopping

        def no_draws(*args):
            raise AssertionError("a path was drawn")

        for module in (crossbound.sim, crossbound.stopping):
            monkeypatch.setattr(module, "path_rng", no_draws)
            monkeypatch.setattr(module, "path_streams", no_draws)
        code, _, err = run_cli(capsys, "validate", "--preset", preset,
                               "--seed", "1", flag, value,
                               "--out", str(tmp_path))
        assert code == 3
        assert flag.lstrip("-") in err

    @pytest.mark.parametrize("from_file", [False, True])
    def test_empty_out_exits_2_before_running(self, capsys, tmp_path,
                                              monkeypatch, from_file):
        import crossbound.cli as cli_mod
        from crossbound.presets import Preset

        def no_run(**kwargs):
            raise AssertionError("the preset ran")

        monkeypatch.setitem(cli_mod.PRESETS, "fake", Preset(
            description="synthetic", runner=no_run))
        monkeypatch.chdir(tmp_path)
        argv = ["--preset", "fake", "--seed", "1"]
        if from_file:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"command": "validate", "out": ""}))
            argv += ["--config", str(cfg)]
        else:
            argv += ["--out", ""]
        code, out, err = run_cli(capsys, "validate", *argv)
        assert code == 2 and out == "" and "'out'" in err
        assert not list(tmp_path.glob("fake_report.*"))

    def test_violated_row_exits_1(self, capsys, tmp_path, monkeypatch):
        import crossbound.cli as cli_mod
        from crossbound.presets import Preset
        from crossbound.validate import ValidationReport

        def fake_runner(seed, paths=10, alpha=0.01, threads=None):
            return [ValidationReport(
                label="fake", n_paths=paths, n_crossed=paths,
                p_hat=1.0, ci_lo=0.9, ci_hi=1.0, bound=0.5,
                verdict="violated", truncation_fraction=0.0,
                runtime_seconds=0.0, alpha=alpha, seed=seed)]

        monkeypatch.setitem(
            cli_mod.PRESETS, "fake",
            Preset(description="synthetic", runner=fake_runner))
        code, _, _ = run_cli(capsys, "validate", "--preset", "fake",
                             "--seed", "1", "--out", str(tmp_path))
        assert code == 1

    @pytest.mark.parametrize("flags, passed", [
        ([], {}),
        (["--paths", "5", "--alpha", "0.05", "--threads", "2"],
         {"paths": 5, "alpha": 0.05, "threads": 2}),
    ], ids=["unset", "set"])
    def test_only_set_keys_reach_the_runner(self, capsys, tmp_path,
                                            monkeypatch, flags, passed):
        # an unset paths, alpha or threads takes the runner's own default
        import crossbound.cli as cli_mod
        from crossbound.presets import Preset
        got = []

        def recording(**kwargs):
            got.append(kwargs)
            return []

        monkeypatch.setitem(cli_mod.PRESETS, "fake",
                            Preset(description="synthetic", runner=recording))
        code, _, _ = run_cli(capsys, "validate", "--preset", "fake",
                             "--seed", "1", "--out", str(tmp_path), *flags)
        assert code == 0 and got == [{"seed": 1, **passed}]


class TestPresetsCommand:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "presets", "list")
        assert code == 0
        for name in ("theorem9_all", "expexact_brownian", "optional_stopping"):
            assert name in out
