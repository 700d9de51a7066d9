import json
import math

import pytest

from crossbound.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    @pytest.mark.parametrize("gamma", ["inf", "nan"])
    def test_non_finite_gamma_exit_3(self, capsys, gamma):
        code, out, err = run_cli(capsys, "bound", "--ineq", "azuma_upper",
                                 "--gamma", gamma, "--vtau", "1")
        assert code == 3 and out == ""
        assert "gamma" in err


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

        def no_draws(seed, path_index):
            raise AssertionError("a path was drawn")

        monkeypatch.setattr(crossbound.sim, "path_rng", no_draws)
        monkeypatch.setattr(crossbound.stopping, "path_rng", no_draws)
        code, _, err = run_cli(capsys, "validate", "--preset", preset,
                               "--seed", "1", flag, value,
                               "--out", str(tmp_path))
        assert code == 3
        assert flag.lstrip("-") in err

    def test_violated_row_exits_1(self, capsys, tmp_path, monkeypatch):
        import crossbound.cli as cli_mod
        from crossbound.presets import Preset
        from crossbound.validate import ValidationReport

        def fake_runner(paths, seed, alpha, threads):
            return [ValidationReport(
                label="fake", n_paths=paths, n_crossed=paths,
                p_hat=1.0, ci_lo=0.9, ci_hi=1.0, bound=0.5,
                verdict="violated", truncation_fraction=0.0,
                runtime_seconds=0.0, alpha=alpha, seed=seed)]

        monkeypatch.setitem(
            cli_mod.PRESETS, "fake",
            Preset(name="fake", description="synthetic", default_paths=10,
                   runner=fake_runner))
        code, _, _ = run_cli(capsys, "validate", "--preset", "fake",
                             "--seed", "1", "--out", str(tmp_path))
        assert code == 1


class TestPresetsCommand:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "presets", "list")
        assert code == 0
        for name in ("theorem9_all", "expexact_brownian", "optional_stopping"):
            assert name in out
