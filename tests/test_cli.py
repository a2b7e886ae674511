import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from piezobeam.cli import (ConfigError, build_model, load_config, main,
                           recompute_metrics_from_csv, run_scenario)

README = Path(__file__).resolve().parent.parent / "README.md"


def write(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, ""))
        assert cfg.beam.L == 0.15
        assert cfg.beam.t_b == 0.8e-3
        assert cfg.beam.b == 1.5e-2
        assert cfg.beam.rho_b == 3960
        assert cfg.beam.E_b == 70e9
        assert cfg.beam.G_b == 30e9
        assert cfg.beam.zeta_flex == (0.01, 0.0016)
        assert cfg.beam.zeta_tors == (0.01, 0.0033)
        assert cfg.Omega == 20.0
        assert cfg.n_modes == 2

    def test_no_file_gives_defaults(self):
        cfg = load_config(None)
        assert cfg.beam.L == 0.15

    def test_damping_out_of_range(self, tmp_path):
        path = write(tmp_path, "beam:\n  zeta_flex: [1.5, 0.0016]\n")
        with pytest.raises(ConfigError, match="damping ratio out of"):
            load_config(path)

    def test_bad_patch_interval(self, tmp_path):
        path = write(tmp_path, "piezo:\n  l1: 0.08\n  l2: 0.02\n")
        with pytest.raises(ConfigError, match="l1"):
            load_config(path)

    def test_patch_beyond_beam(self, tmp_path):
        path = write(tmp_path, "piezo:\n  l2: 0.2\n")
        with pytest.raises(ConfigError, match="l2"):
            load_config(path)

    def test_unparseable_field_named(self, tmp_path):
        path = write(tmp_path, "sim:\n  dt: fast\n")
        with pytest.raises(ConfigError, match="sim.dt"):
            load_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/nope.yaml")

    @pytest.mark.parametrize("text, key", [
        ("beam:\n  E: 1.0e9\n", "beam.E"),
        ("rotation:\n  Omega: 900\n", "rotation"),
        ("sim:\n  omega: 900\n", "sim.omega"),
    ])
    def test_unknown_key_named(self, tmp_path, text, key):
        with pytest.raises(ConfigError, match=re.escape(key) + ": unknown"):
            load_config(write(tmp_path, text))

    def test_null_keeps_default(self, tmp_path):
        text = "beam:\n  zeta_flex: null\nsim:\n  dt: null\ncontroller:\n  v_max: null\n"
        assert load_config(write(tmp_path, text)) == load_config(None)

    def test_derived_defaults_follow(self, tmp_path):
        cfg = load_config(write(tmp_path, "beam:\n  b: 2.0e-2\n"))
        assert cfg.piezo.w_p == 2.0e-2
        cfg = load_config(write(tmp_path, "piezo:\n  v_max: 150\n"))
        assert cfg.ctrl_v_max == 150.0
        # set explicitly, neither follows
        cfg = load_config(write(tmp_path, "beam: {b: 2.0e-2}\npiezo: {w_p: 1.0e-2, v_max: 150}\n"
                                          "controller: {v_max: 90}\n"))
        assert (cfg.piezo.w_p, cfg.ctrl_v_max) == (1.0e-2, 90.0)

    def test_integral_float_is_an_int(self, tmp_path):
        cfg = load_config(write(tmp_path, "sim: {n_modes: 2.0}\n"))
        assert cfg.n_modes == 2 and type(cfg.n_modes) is int

    def test_readme_block_is_the_defaults(self, tmp_path):
        blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(), re.S)
        assert len(blocks) == 1
        assert load_config(write(tmp_path, blocks[0])) == load_config(None)

    def test_zero_spin_propagates_to_decoupling(self, tmp_path):
        from piezobeam.cli import _sim_config
        from piezobeam.dynamics import simulate
        cfg = load_config(write(tmp_path, "sim:\n  Omega: 0\n  t_final: 0.05\n"))
        basis, mats = build_model(cfg)
        tr = simulate(_sim_config(cfg, basis, "free", False), mats, basis)
        assert np.max(np.abs(tr.tip_theta)) < 1e-14


@pytest.fixture(scope="module")
def short_cfg(tmp_path_factory):
    # small release keeps the controller useful under the 200 V saturation
    path = tmp_path_factory.mktemp("cfg") / "short.yaml"
    path.write_text("sim:\n  t_final: 0.5\n  tip_w0: 0.5e-3\n")
    return load_config(str(path))


@pytest.fixture(scope="module")
def short_model(short_cfg):
    return build_model(short_cfg)


class TestRunScenario:
    def test_free_controller_shrinks_settling(self, short_cfg, short_model, tmp_path):
        m_off = run_scenario("free", short_cfg, *short_model, tmp_path / "off",
                             controller_on=False)
        m_on = run_scenario("free", short_cfg, *short_model, tmp_path / "on",
                            controller_on=True)
        t_off = m_off["settling_time_s"] or math.inf
        t_on = m_on["settling_time_s"] or math.inf
        assert t_on < t_off

    def test_csv_format_and_row_count(self, short_cfg, short_model, tmp_path):
        run_scenario("free", short_cfg, *short_model, tmp_path, controller_on=False)
        lines = (tmp_path / "free_off.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["t", "p1", "p2", "q1", "q2", "dp1", "dp2",
                          "dq1", "dq2", "w_tip", "theta_tip", "v_p"]
        n_expected = math.floor(short_cfg.t_final / short_cfg.dt + 1e-9) + 1
        assert len(lines) - 1 == n_expected
        t = np.array([float(l.split(",", 1)[0]) for l in lines[1:]])
        dt = np.diff(t)
        assert np.all(dt > 0)
        assert np.max(np.abs(dt - short_cfg.dt)) < 1e-12

    def test_manifest_written_and_determinism(self, short_cfg, tmp_path):
        # each run on its own model, so a rebuild must reproduce it too
        run_scenario("free", short_cfg, *build_model(short_cfg), tmp_path / "a",
                     controller_on=True)
        run_scenario("free", short_cfg, *build_model(short_cfg), tmp_path / "b",
                     controller_on=True)
        csv_a = (tmp_path / "a" / "free_on.csv").read_bytes()
        csv_b = (tmp_path / "b" / "free_on.csv").read_bytes()
        assert csv_a == csv_b
        man_a = json.loads((tmp_path / "a" / "free_on_manifest.json").read_text())
        man_b = json.loads((tmp_path / "b" / "free_on_manifest.json").read_text())
        assert man_a == man_b
        assert man_a["matrices_sha256"]
        assert man_a["config"]["beam"]["L"] == 0.15
        # the config block is itself a config file for the same run
        config = write(tmp_path, json.dumps(man_a["config"]), "manifest_config.yaml")
        assert load_config(config) == short_cfg

    def test_metrics_recomputable_from_csv(self, short_cfg, short_model, tmp_path):
        from piezobeam.assembly import linear_frequencies
        metrics = run_scenario("free", short_cfg, *short_model, tmp_path, controller_on=True)
        _, mats = short_model
        om_f, _ = linear_frequencies(mats, 0.0)
        redo = recompute_metrics_from_csv(tmp_path / "free_on.csv",
                                          2 * math.pi / om_f[0])
        for key, val in redo.items():
            assert metrics[key] == val

    def test_disturbance_attenuation_and_fft_peak(self, short_cfg, short_model, tmp_path):
        metrics = run_scenario("disturbance", short_cfg, *short_model, tmp_path,
                               controller_on=True)
        assert metrics["attenuation_db"] > 0
        # dominant FFT peak of the uncontrolled companion sits at 24 Hz
        data = np.genfromtxt(tmp_path / "disturbance_off.csv",
                             delimiter=",", names=True)
        w = data["w_tip"] * np.hanning(data["w_tip"].size)
        spec = np.abs(np.fft.rfft(w))
        freqs = np.fft.rfftfreq(w.size, d=short_cfg.dt)
        f_peak = freqs[np.argmax(spec[1:]) + 1]
        assert abs(f_peak - 24.0) < 1.5 * freqs[1] + 0.5

    def test_disturbance_manifest_lists_companion(self, short_cfg, short_model, tmp_path):
        cfg = replace(short_cfg, t_final=0.01)
        run_scenario("disturbance", cfg, *short_model, tmp_path, controller_on=True)
        outputs = json.loads((tmp_path / "disturbance_on_manifest.json").read_text())["outputs"]
        assert outputs["companion_csv"] == "disturbance_off.csv"
        assert sorted(outputs.values()) == sorted(
            p.name for p in tmp_path.iterdir() if not p.name.endswith("_manifest.json"))

    def test_unknown_scenario(self, short_cfg, short_model, tmp_path):
        with pytest.raises(ConfigError):
            run_scenario("bogus", short_cfg, *short_model, tmp_path)


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        cfg = write(tmp_path, "sim:\n  t_final: 0.02\n  tip_w0: 0.2e-3\n")
        rc = main(["--config", cfg, "--scenario", "free", "--controller", "off",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "free" in capsys.readouterr().out

    def test_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "beam:\n  zeta_flex: [2.0, 0.1]\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_numeric_failure(self, tmp_path, capsys):
        # absurd release amplitude blows up the fixed-step integrator
        cfg = write(tmp_path, "sim:\n  t_final: 0.3\n  tip_w0: 0.5\n  dt: 3.0e-5\n")
        rc = main(["--config", cfg, "--scenario", "free", "--controller", "off",
                   "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_authority_failure(self, tmp_path, capsys):
        # degenerate patch: F1 = 0, the controller has no authority
        cfg = write(tmp_path, "piezo:\n  l1: 0.03\n  l2: 0.03\n"
                              "sim:\n  t_final: 0.01\n")
        rc = main(["--config", cfg, "--scenario", "free", "--controller", "on",
                   "--out", str(tmp_path / "o")])
        assert rc == 4

    def test_export_matrices(self, tmp_path):
        out = tmp_path / "mats.txt"
        rc = main(["--export-matrices", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("# modal system matrices, n = 2")
        assert "K1 2 2" in text and "F1 2" in text

    def test_override_flags(self, tmp_path, capsys):
        rc = main(["--scenario", "free", "--controller", "off",
                   "--tfinal", "0.01", "--omega", "0", "--modes", "2",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        data = np.genfromtxt(tmp_path / "o" / "free_off.csv",
                             delimiter=",", names=True)
        assert np.max(np.abs(data["theta_tip"])) < 1e-14

    @pytest.mark.parametrize("text, flags, message", [
        ("beam: {E: 1.0e9, rho: 10}\nrotation: {Omega: 900}\nbogus: 3\n", [], "beam.E"),
        ("", ["--tfinal", "-1"], "sim.t_final"),
        ("", ["--dt", "1e-3"], "too coarse"),
        ("disturbance: {target: 2}\n", ["--modes", "1", "--scenario", "disturbance"],
         "disturbance.target"),
        ("", ["--tfinal", "inf"], "sim.t_final"),
        ("", ["--omega", "nan"], "sim.Omega"),
    ], ids=["unknown_keys", "negative_tfinal", "coarse_dt", "target_beyond_modes",
            "infinite_tfinal_flag", "nan_omega_flag"])
    def test_config_error_writes_nothing(self, tmp_path, capsys, text, flags, message):
        out = tmp_path / "o"
        out.mkdir()
        # the leading --tfinal keeps a wrongly accepted run short; a later one wins
        rc = main(["--config", write(tmp_path, text), "--tfinal", "0.01",
                   "--out", str(out)] + flags)
        assert rc == 2
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("text, message", [
        ("controller: {v_max: -5}\n", "controller.v_max"),
        ("controller: {v_max: 0}\n", "controller.v_max"),
        ("piezo: {v_max: -5}\n", "piezo.v_max"),
        ("sim: {n_modes: 1.9}\n", "sim.n_modes"),
        ("sim: {n_modes: true}\n", "sim.n_modes"),
        ("disturbance: {target: 1.5}\n", "disturbance.target"),
        ("controller: {omega_cl: 0}\n", "controller.omega_cl"),
        ("controller: {omega_cl: -5}\n", "controller.omega_cl"),
        ("controller: {omega_cl: .nan}\n", "controller.omega_cl"),
        ("sim: {t_final: .inf}\n", "sim.t_final"),
        ("sim: {Omega: .nan}\n", "sim.Omega"),
        ("sim: {tip_w0: .nan}\n", "sim.tip_w0"),
        ("piezo: {d31: .nan}\n", "piezo.d31"),
        ("beam: {L: .nan}\n", "beam.L"),
    ], ids=["negative_controller_vmax", "zero_controller_vmax", "negative_piezo_vmax",
            "fractional_modes", "bool_modes", "fractional_target", "zero_omega_cl",
            "negative_omega_cl", "nan_omega_cl", "infinite_tfinal", "nan_omega",
            "nan_tip_w0", "nan_d31", "nan_beam_length"])
    def test_bad_value_writes_nothing(self, tmp_path, capsys, text, message):
        out = tmp_path / "o"
        out.mkdir()
        rc = main(["--config", write(tmp_path, text), "--tfinal", "0.01",
                   "--scenario", "all", "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []
