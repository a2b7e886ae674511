import json
import math
import re
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from piezobeam.cli import (CSV_BLOCK_ROWS, ConfigError, _named_by_key, build_model,
                           load_config, main, run_scenario, write_csv)
from piezobeam.control import ControllerConfig
from piezobeam.dynamics import Trajectory, compute_metrics

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
        assert cfg.ctrl_v_max == 200.0

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

    def test_vmax_rule_text(self, tmp_path, capsys):
        # null keeps the 200 V default like every other key, so the rule
        # offers no null
        cfg = load_config(write(tmp_path, "controller: {v_max: null}\n"))
        assert cfg.ctrl_v_max == 200.0
        rc = main(["--config", write(tmp_path, "controller: {v_max: -5}\n"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "controller.v_max: must be > 0" in capsys.readouterr().err

    def test_derived_defaults_follow(self, tmp_path):
        cfg = load_config(write(tmp_path, "beam:\n  b: 2.0e-2\n"))
        assert cfg.piezo.w_p == 2.0e-2
        # set explicitly, it does not follow
        cfg = load_config(write(tmp_path, "beam: {b: 2.0e-2}\npiezo: {w_p: 1.0e-2}\n"))
        assert cfg.piezo.w_p == 1.0e-2

    def test_integral_float_is_an_int(self, tmp_path):
        cfg = load_config(write(tmp_path, "sim: {n_modes: 2.0}\n"))
        assert cfg.n_modes == 2 and type(cfg.n_modes) is int

    def test_readme_block_is_the_defaults(self, tmp_path):
        blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(), re.S)
        assert len(blocks) == 1
        assert load_config(write(tmp_path, blocks[0])) == load_config(None)

    def test_config_is_frozen(self):
        # its rules hold for its life: a NaN release assigned later would end
        # the run as a numerical failure at t = 0, not as a config error
        cfg = load_config(None)
        with pytest.raises(FrozenInstanceError):
            cfg.tip_w0 = float("nan")
        assert cfg.tip_w0 == 5e-3
        with pytest.raises(ConfigError, match="controller.v_max"):
            replace(cfg, ctrl_v_max=-5.0)
        with pytest.raises(ConfigError, match="sim.tip_w0: must be finite"):
            replace(cfg, tip_w0=float("nan"))

    @pytest.mark.parametrize("field, value, key", [
        ("dt", math.inf, "sim.dt"), ("t_final", math.inf, "sim.t_final"),
        ("Omega", math.nan, "sim.Omega"), ("dist_amplitude", math.inf, "disturbance.amplitude"),
        ("dist_frequency", math.inf, "disturbance.frequency"),
        ("dt", 1e-300, "sim.t_final: must be below"), ("n_modes", 0, "sim.n_modes"),
        ("dist_target", 3, "disturbance.target: outside 1..n_modes"),
        ("dist_target", 1.0, "disturbance.target: must be an integer")])
    def test_run_rules_hold_from_load(self, field, value, key):
        # SimConfig's and Disturbance's own rules, finiteness and the sample
        # count included, hold for the resolved config, named by YAML key
        with pytest.raises(ConfigError, match="^" + re.escape(key)):
            replace(load_config(None), **{field: value})

    def test_error_of_a_kind_without_a_section_passes_through(self):
        with pytest.raises(ValueError, match="Hurwitz") as info:
            ControllerConfig(k0=-1.0, k1=1.0, output_weights=[1.0])
        assert _named_by_key(info.value) is info.value

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
                             controller_on=False)["free"]
        m_on = run_scenario("free", short_cfg, *short_model, tmp_path / "on",
                            controller_on=True)["free"]
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

    def test_csv_special_values_byte_for_byte(self, tmp_path):
        tiny = 5e-324  # the least subnormal
        traj = Trajectory(times=np.array([0.0, 2e-5]),
                          states=np.array([[-0.0, np.nan, np.inf, -np.inf],
                                           [tiny, -2.2250738585072e-308, 1 / 3, -1e300]]),
                          tip_w=np.array([-0.0, 0.1]), tip_theta=np.array([np.nan, -tiny]),
                          voltage=np.array([-np.inf, 200.0]))
        write_csv(tmp_path / "s.csv", traj)
        assert (tmp_path / "s.csv").read_bytes() == (
            b"t,p1,q1,dp1,dq1,w_tip,theta_tip,v_p\n"
            b"0,-0,nan,inf,-inf,-0,nan,-inf\n"
            b"2.0000000000000002e-05,4.9406564584124654e-324,-2.2250738585071999e-308,"
            b"0.33333333333333331,-1.0000000000000001e+300,0.10000000000000001,"
            b"-4.9406564584124654e-324,200\n")

    @pytest.mark.parametrize("n", [1, 3])
    def test_csv_header_follows_the_trajectory(self, tmp_path, n):
        # the header names as many modal columns as the states hold
        rows = 3
        traj = Trajectory(times=np.arange(rows) * 2e-5,
                          states=np.arange(rows * 4.0 * n).reshape(rows, 4 * n),
                          tip_w=np.ones(rows), tip_theta=np.ones(rows), voltage=np.ones(rows))
        write_csv(tmp_path / "n.csv", traj)
        header, *lines = (tmp_path / "n.csv").read_text().splitlines()
        modes = range(1, n + 1)
        assert header.split(",") == (["t"] + [f"{f}{i}" for f in ("p", "q", "dp", "dq")
                                              for i in modes]
                                     + ["w_tip", "theta_tip", "v_p"])
        assert [len(line.split(",")) for line in lines] == [4 * n + 4] * rows

    def test_csv_blocks_match_savetxt_byte_for_byte(self, tmp_path):
        # two full blocks and a partial one, against np.savetxt on the same table
        rows, n = 2 * CSV_BLOCK_ROWS + 123, 2
        rng = np.random.default_rng(5)
        table = rng.normal(size=(rows, 4 * n + 4)) * 10.0 ** rng.integers(-300, 300, (rows, 1))
        special = [-0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072e-308]
        table[CSV_BLOCK_ROWS - 3:CSV_BLOCK_ROWS + 3, 3] = special  # across a block edge
        traj = Trajectory(times=table[:, 0], states=table[:, 1:4 * n + 1],
                          tip_w=table[:, -3], tip_theta=table[:, -2], voltage=table[:, -1])
        write_csv(tmp_path / "blocks.csv", traj)
        header = ",".join(["t", "p1", "p2", "q1", "q2", "dp1", "dp2", "dq1", "dq2",
                           "w_tip", "theta_tip", "v_p"])
        with open(tmp_path / "savetxt.csv", "w", newline="") as fh:
            np.savetxt(fh, table, fmt="%.17g", delimiter=",", header=header, comments="")
        written = (tmp_path / "blocks.csv").read_bytes()
        assert written.count(b"\n") == rows + 1
        assert written == (tmp_path / "savetxt.csv").read_bytes()

    @pytest.mark.parametrize("kind", ["bit_patterns", "scaled_mantissas", "decades",
                                      "ties_and_specials"])
    def test_csv_is_percent_17g_byte_for_byte(self, tmp_path, kind):
        # write_csv's numpy formatter against Python's "%.17g" on values that
        # probe each of its paths; the last column stays all zero, like the
        # companion run's v_p, and the rows straddle two block edges
        rows, n = 3 * CSV_BLOCK_ROWS + 77, 2
        rng = np.random.default_rng(7)
        count = rows * (4 * n + 3)
        if kind == "bit_patterns":
            values = rng.integers(-2 ** 63, 2 ** 63, count, dtype=np.int64).view(np.float64)
        elif kind == "scaled_mantissas":
            values = rng.uniform(-10.0, 10.0, count) * 10.0 ** rng.uniform(-320, 20, count)
        elif kind == "decades":
            powers = np.array([float(f"1e{k}") for k in range(-300, 17)])
            values = np.concatenate([powers, np.nextafter(powers, 0.0),
                                     np.nextafter(powers, np.inf), -powers,
                                     0.5 * powers, 5.0 * powers, 9.5 * powers])
        else:
            odd = 2 * np.arange(64) + 1  # M / 4 with M odd: ties of the 17th digit
            values = np.concatenate([
                1e15 + odd / 4, 2.0 ** 50 + odd / 4, -(2.0 ** 49 + odd / 8), odd / 4,
                [1000000000000000.25, 0.0, -0.0, np.inf, -np.inf, np.nan,
                 1.7976931348623157e308, -1.7976931348623157e308, 5e-324, -5e-324,
                 2.2250738585072014e-308, 2.225073858507201e-308, 1e-280, 9.99e-281,
                 1e16, 9999999999999998.0, 1e-4, 9.9999999999999995e-5]])
        table = np.zeros((rows, 4 * n + 4))
        table[:, :-1] = np.resize(values, (rows, 4 * n + 3))
        traj = Trajectory(times=table[:, 0], states=table[:, 1:4 * n + 1],
                          tip_w=table[:, -3], tip_theta=table[:, -2], voltage=table[:, -1])
        write_csv(tmp_path / "t.csv", traj)
        row = ",".join(["%.17g"] * (4 * n + 4)) + "\n"
        expected = "".join(row % tuple(r) for r in table.tolist())
        header = b"t,p1,p2,q1,q2,dp1,dp2,dq1,dq2,w_tip,theta_tip,v_p\n"
        assert (tmp_path / "t.csv").read_bytes() == header + expected.encode()

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
        metrics = run_scenario("free", short_cfg, *short_model, tmp_path,
                               controller_on=True)["free"]
        _, mats = short_model
        om_f, _ = linear_frequencies(mats, 0.0)
        data = np.genfromtxt(tmp_path / "free_on.csv", delimiter=",", names=True)
        redo = compute_metrics(data["t"], data["w_tip"], data["v_p"], 2 * math.pi / om_f[0])
        for key, val in redo.items():
            assert metrics[key] == val

    def test_disturbance_attenuation_and_fft_peak(self, short_cfg, short_model, tmp_path):
        metrics = run_scenario("disturbance", short_cfg, *short_model, tmp_path,
                               controller_on=True)["disturbance"]
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

    @pytest.mark.parametrize("controller_on", [True, False], ids=["on", "off"])
    def test_all_is_each_scenario_in_turn(self, short_cfg, short_model, tmp_path,
                                          controller_on):
        cfg = replace(short_cfg, t_final=0.01)
        both = run_scenario("all", cfg, *short_model, tmp_path / "all", controller_on)
        each = {}
        for name in ("free", "disturbance"):
            each.update(run_scenario(name, cfg, *short_model, tmp_path / "each",
                                     controller_on))
        assert list(both) == ["free", "disturbance"]
        assert both == each
        written = [{p.name: p.read_bytes() for p in sorted((tmp_path / d).iterdir())}
                   for d in ("all", "each")]
        assert written[0] == written[1]
        assert len(written[0]) == (7 if controller_on else 6)


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

    def test_failed_call_writes_nothing(self, tmp_path, capsys):
        # the free release succeeds; the forced run then blows up
        cfg = write(tmp_path, "disturbance: {amplitude: 1.0e6}\n")
        out = tmp_path / "o"
        rc = main(["--config", cfg, "--scenario", "all", "--controller", "off",
                   "--tfinal", "0.05", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().out == ""
        assert not out.exists() or list(out.iterdir()) == []

    def test_authority_failure(self, tmp_path, capsys):
        # degenerate patch: F1 = 0, the controller has no authority
        cfg = write(tmp_path, "piezo:\n  l1: 0.03\n  l2: 0.03\n"
                              "sim:\n  t_final: 0.01\n")
        rc = main(["--config", cfg, "--scenario", "free", "--controller", "on",
                   "--out", str(tmp_path / "o")])
        assert rc == 4

    @pytest.mark.parametrize("text, flags", [
        ("disturbance: {amplitude: 0}\n", []),
        ("", ["--tfinal", "0"]),
    ], ids=["zero_amplitude", "zero_duration"])
    def test_attenuation_of_zero_rms_is_null(self, tmp_path, capsys, text, flags):
        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        out = tmp_path / "o"
        rc = main(["--config", write(tmp_path, text), "--tfinal", "0.002",
                   "--scenario", "disturbance", "--out", str(out)] + flags)
        assert rc == 0
        printed = capsys.readouterr().out.strip()
        assert printed.startswith("disturbance [controller on]: ")
        for doc in (printed.split(": ", 1)[1],
                    (out / "disturbance_on_metrics.json").read_text()):
            assert json.loads(doc, parse_constant=no_constant)["attenuation_db"] is None

    def test_overflowing_omega_is_a_numerical_failure(self, tmp_path, capsys):
        # Omega^2 overflows to inf: the run blows up at t = 0
        out = tmp_path / "o"
        rc = main(["--omega", "1e200", "--tfinal", "0.01", "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--tfinal", "0.01"], ["--export-matrices", "m.txt"]],
                             ids=["run", "export"])
    def test_singular_mass_matrix_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch,
                                                         flags):
        # densities that pass every config rule but round the mass matrix to 0
        monkeypatch.chdir(tmp_path)
        cfg = write(tmp_path, "beam: {rho_b: 1.0e-320}\npiezo: {rho_p: 1.0e-320}\n")
        rc = main(["--config", cfg, "--out", "o"] + flags)
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: M1 ") and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml"]

    @pytest.mark.parametrize("flags, message", [
        (["--tfinal", "1e300"], "sim.t_final: must be below"),
        (["--dt", "-1"], "sim.dt: must be finite and > 0"),
    ], ids=["sample_count_beyond_intp", "negative_dt"])
    def test_export_checks_the_run_rules(self, tmp_path, capsys, flags, message):
        out = tmp_path / "mats.txt"
        rc = main(["--export-matrices", str(out)] + flags)
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out.exists()

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

    def test_negative_exponent_override_is_a_value(self, tmp_path, capsys):
        outputs = {}
        for name, flags in (("spaced", ["--omega", "-1e3"]), ("joined", ["--omega=-1e3"])):
            out = tmp_path / name
            rc = main(["--scenario", "free", "--controller", "off", "--tfinal", "0.002",
                       "--out", str(out)] + flags)
            assert rc == 0
            outputs[name] = (capsys.readouterr().out,
                             {p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs["spaced"] == outputs["joined"]
        manifest = json.loads(outputs["spaced"][1]["free_off_manifest.json"])
        assert manifest["config"]["sim"]["Omega"] == -1000.0

    @pytest.mark.parametrize("text, flags, message", [
        ("beam: {E: 1.0e9, rho: 10}\nrotation: {Omega: 900}\nbogus: 3\n", [], "beam.E"),
        ("", ["--tfinal", "-1"], "sim.t_final"),
        ("", ["--dt", "1e-3"], "too coarse"),
        ("disturbance: {target: 2}\n", ["--modes", "1", "--scenario", "disturbance"],
         "disturbance.target"),
        ("", ["--tfinal", "inf"], "sim.t_final"),
        ("", ["--omega", "nan"], "sim.Omega"),
        ("", ["--dt", "-inf"], "sim.dt"),
        ("", ["--tfinal", "1e300", "--dt", "1e-300", "--scenario", "free",
              "--controller", "off"], "t_final"),
        ("", ["--tfinal", "1e300"], "t_final"),
    ], ids=["unknown_keys", "negative_tfinal", "coarse_dt", "target_beyond_modes",
            "infinite_tfinal_flag", "nan_omega_flag", "negative_infinite_dt_flag",
            "infinite_sample_count", "sample_count_beyond_intp"])
    def test_config_error_writes_nothing(self, tmp_path, capsys, text, flags, message):
        out = tmp_path / "o"
        out.mkdir()
        # the leading --tfinal keeps a wrongly accepted run short; a later one wins
        rc = main(["--config", write(tmp_path, text), "--tfinal", "0.01",
                   "--out", str(out)] + flags)
        assert rc == 2
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("flags, message", [
        (["--tfinal", "1e300"], "sim.t_final: must be below"),
        (["--dt", "1e-3"], "sim.dt: 0.001 too coarse"),
    ], ids=["sample_count_beyond_intp", "coarse_dt"])
    def test_run_rules_name_their_yaml_key(self, tmp_path, capsys, flags, message):
        # the SimConfig and simulate rules report the key the value came from,
        # as the AppConfig rules do
        out = tmp_path / "o"
        out.mkdir()
        rc = main(["--scenario", "all", "--out", str(out)] + flags)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}")
        assert "SimConfig" not in err
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
        ("controller: {omega_cl: 1.0e200}\n", "controller.omega_cl"),
        ("controller: {zeta_cl: 1.0e308}\n", "controller.zeta_cl"),
        ("beam: {L: -0.15}\n", "beam.L: must be finite and > 0"),
        ("piezo: {t_p: 0}\n", "piezo.t_p: must be finite and > 0"),
        ("piezo: {l1: 0.05, l2: 0.02}\n", "piezo.l1: need 0 <= l1 <= l2"),
        ("beam: {zeta_flex: [0.01, 1.0]}\n", "beam.zeta_flex: damping ratio out of [0,1)"),
        ("sim: 3\n", "config section 'sim' must be a mapping"),
        ("sim: [1\n", "config parse error"),
        ("- 1\n", "top-level config must be a mapping"),
    ], ids=["negative_controller_vmax", "zero_controller_vmax", "negative_piezo_vmax",
            "fractional_modes", "bool_modes", "fractional_target", "zero_omega_cl",
            "negative_omega_cl", "nan_omega_cl", "infinite_tfinal", "nan_omega",
            "nan_tip_w0", "nan_d31", "nan_beam_length", "overflowing_omega_cl",
            "overflowing_zeta_cl", "negative_beam_length", "zero_patch_thickness",
            "patch_ends_swapped", "beam_damping_ratio_of_one", "section_not_a_mapping",
            "unclosed_list", "top_level_not_a_mapping"])
    def test_bad_value_writes_nothing(self, tmp_path, capsys, text, message):
        out = tmp_path / "o"
        out.mkdir()
        rc = main(["--config", write(tmp_path, text), "--tfinal", "0.01",
                   "--scenario", "all", "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []
