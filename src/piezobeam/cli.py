"""Batch front end: config loading, the two shipped scenarios, CSV/JSON output.

Scenarios:
  free         release from an initial tip deflection, no external forcing
  disturbance  zero initial state, harmonic force on one flexural modal
               equation

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 loss of
control authority.
"""

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from itertools import chain
from pathlib import Path

import numpy as np
import yaml

from .assembly import (BeamSpec, PiezoSpec, assemble, export_matrices,
                       SpinDestabilizedError)
from .basis import ModalBasis
from .control import ControlAuthorityError, ControllerConfig, design_gains, make_policy
from .dynamics import (Disturbance, IntegrationBlowupError, SimConfig,
                       compute_metrics, simulate)

SCENARIOS = ("free", "disturbance")


class ConfigError(Exception):
    pass


def _key(key, default):
    """A config field read from the YAML key `section.name`."""
    return field(default=default, metadata={"key": key})


@dataclass
class AppConfig:
    """The resolved run configuration, validated on construction; every run
    default is written here or in BeamSpec/PiezoSpec, and nowhere else.

    The `beam` and `piezo` YAML sections hold the BeamSpec and PiezoSpec
    fields under their own names; every other field names its YAML key.  A
    key that is absent or null keeps its default.  Two defaults follow other
    fields: piezo.w_p is beam.b, and controller.v_max is piezo.v_max.
    """

    beam: BeamSpec
    piezo: PiezoSpec
    n_modes: int = _key("sim.n_modes", 2)
    Omega: float = _key("sim.Omega", 20.0)
    dt: float = _key("sim.dt", 2e-5)
    t_final: float = _key("sim.t_final", 2.0)
    tip_w0: float = _key("sim.tip_w0", 5e-3)
    dist_amplitude: float = _key("disturbance.amplitude", 0.001)
    dist_frequency: float = _key("disturbance.frequency", 24.0)
    dist_target: int = _key("disturbance.target", 1)
    # None -> first flexural frequency at Omega = 0
    ctrl_omega_cl: float = _key("controller.omega_cl", None)
    ctrl_zeta_cl: float = _key("controller.zeta_cl", 0.8)
    ctrl_v_max: float = _key("controller.v_max", None)

    def __post_init__(self):
        if self.ctrl_v_max is None:
            self.ctrl_v_max = self.piezo.v_max
        n = self.n_modes
        for key, ok, rule in (
                ("piezo.l2", self.piezo.l2 <= self.beam.L, "patch end beyond beam length"),
                ("sim.n_modes", n >= 1, "must be >= 1"),
                ("sim.dt", self.dt > 0, "must be > 0"),
                ("sim.t_final", self.t_final >= 0, "must be >= 0"),
                ("disturbance.amplitude", self.dist_amplitude >= 0, "must be >= 0"),
                ("disturbance.frequency", self.dist_frequency > 0, "must be > 0"),
                ("disturbance.target", 1 <= self.dist_target <= n, "outside 1..n_modes"),
                ("beam.zeta_flex", len(self.beam.zeta_flex) >= n,
                 "need one damping ratio per mode"),
                ("beam.zeta_tors", len(self.beam.zeta_tors) >= n,
                 "need one damping ratio per mode"),
                ("controller.omega_cl", self.ctrl_omega_cl is None or self.ctrl_omega_cl > 0,
                 "must be null or > 0"),
                ("controller.zeta_cl", self.ctrl_zeta_cl > 0, "must be > 0"),
                ("piezo.v_max", self.piezo.v_max is None or self.piezo.v_max > 0,
                 "must be null or > 0"),
                ("controller.v_max", self.ctrl_v_max is None or self.ctrl_v_max > 0,
                 "must be null or > 0")):
            if not ok:
                raise ConfigError(f"{key}: {rule}")

    def as_dict(self):
        """Every value under its YAML key: the config block of the manifest,
        itself a valid config file."""
        out = {}
        for key, (owner, f) in SCHEMA.items():
            section, name = key.split(".")
            holder = getattr(self, owner) if owner else self
            out.setdefault(section, {})[name] = getattr(holder, f.name)
        return out


def _schema():
    """(YAML key, (AppConfig attribute holding the value or None, field))."""
    for f in fields(AppConfig):
        if is_dataclass(f.type):
            for g in fields(f.type):
                yield f"{f.name}.{g.name}", (f.name, g)
        else:
            yield f.metadata["key"], (None, f)


SCHEMA = dict(_schema())
SECTIONS = {key.split(".")[0] for key in SCHEMA}


def _parse(key, value, kind):
    """value as the field type; a bool, a NaN or infinity, and an int key's
    fractional value do not parse."""
    try:
        if isinstance(value, bool):
            raise TypeError
        if kind is tuple:
            return tuple(_parse(key, v, float) for v in value)
        out = kind(value)
        if not math.isfinite(out) or (kind is int and out != float(value)):
            raise ValueError
        return out
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key}: cannot parse {value!r} as a finite "
                          f"{kind.__name__}") from None


def _entries(raw):
    """(YAML key, value) for each entry of a config mapping, in file order."""
    for section, entries in raw.items():
        if section not in SECTIONS:
            raise ConfigError(f"{section}: unknown config section")
        entries = {} if entries is None else entries
        if not isinstance(entries, dict):
            raise ConfigError(f"config section '{section}' must be a mapping")
        for name, value in entries.items():
            yield f"{section}.{name}", value


def load_config(path=None, overrides=None):
    """The resolved configuration of a YAML file (None gives every default)
    with overrides, a {YAML key: value} mapping, applied on top.

    An unknown section or key, a value that does not parse and a broken rule
    each raise ConfigError naming the key; an override of None is ignored.
    """
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = yaml.safe_load(fh) or {}
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except yaml.YAMLError as exc:
            raise ConfigError(f"config parse error: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a mapping")

    given = {"beam": {}, "piezo": {}, None: {}}  # by SCHEMA owner
    for key, value in chain(_entries(raw), (overrides or {}).items()):
        if key not in SCHEMA:
            raise ConfigError(f"{key}: unknown config key")
        if value is not None:
            owner, f = SCHEMA[key]
            given[owner][f.name] = _parse(key, value, f.type)
    try:
        beam = BeamSpec(**given["beam"])
        piezo = PiezoSpec(**{"w_p": beam.b, **given["piezo"]})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return AppConfig(beam=beam, piezo=piezo, **given[None])


def build_model(cfg):
    """(basis, matrices) for a resolved configuration."""
    basis = ModalBasis.build(cfg.n_modes, cfg.beam.L)
    mats = assemble(cfg.beam, cfg.piezo, basis)
    return basis, mats


def _build_controller(cfg, mats, basis):
    om_f, _ = mats.natural_frequencies
    omega_cl = om_f[0] if cfg.ctrl_omega_cl is None else cfg.ctrl_omega_cl
    k0, k1 = design_gains(omega_cl, cfg.ctrl_zeta_cl)
    return ControllerConfig(k0=k0, k1=k1, output_weights=basis.flexural_tip_values(),
                            v_max=cfg.ctrl_v_max)


def _sim_config(cfg, basis, scenario, controller_on):
    x0 = np.zeros(4 * cfg.n_modes)
    dist = None
    if scenario == "free":
        x0[0] = cfg.tip_w0 / basis.flexural_tip_values()[0]
    else:
        dist = Disturbance(amplitude=cfg.dist_amplitude,
                           frequency=cfg.dist_frequency, target=cfg.dist_target)
    return SimConfig(Omega=cfg.Omega, dt=cfg.dt, t_final=cfg.t_final,
                     initial_state=x0, disturbance=dist, controller_on=controller_on)


def write_csv(path, traj, n):
    cols = (["t"] + [f"p{i}" for i in range(1, n + 1)]
            + [f"q{i}" for i in range(1, n + 1)]
            + [f"dp{i}" for i in range(1, n + 1)]
            + [f"dq{i}" for i in range(1, n + 1)]
            + ["w_tip", "theta_tip", "v_p"])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(traj.times.size):
            row = ([traj.times[i]] + list(traj.states[i])
                   + [traj.tip_w[i], traj.tip_theta[i], traj.voltage[i]])
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def run_scenario(name, cfg, basis, mats, out_dir, controller_on=True):
    """Run one scenario on the model build_model(cfg) returned, then write
    its CSV trajectory, metrics JSON and manifest.

    Nothing is written unless every simulation of the scenario succeeds.
    For the disturbance scenario with the controller on, an uncontrolled
    companion run is performed and exported alongside, and the manifest
    lists it, so the attenuation figure is reproducible from the written
    files.
    """
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; expected one of {SCENARIOS}")
    controller = make_policy(mats, _build_controller(cfg, mats, basis), cfg.Omega) \
        if controller_on else None
    tag = f"{name}_{'on' if controller_on else 'off'}"
    runs = {tag: simulate(_sim_config(cfg, basis, name, controller_on), mats, basis,
                          controller=controller)}
    outputs = {"csv": f"{tag}.csv", "metrics": f"{tag}_metrics.json"}

    metrics = dict(runs[tag].metrics)
    if name == "disturbance" and controller_on:
        companion = runs[f"{name}_off"] = simulate(_sim_config(cfg, basis, name, False),
                                                   mats, basis)
        outputs["companion_csv"] = f"{name}_off.csv"
        rms_off = companion.metrics["rms_tip_after_transient_m"]
        rms_on = metrics["rms_tip_after_transient_m"]
        metrics["attenuation_db"] = (20.0 * math.log10(rms_off / rms_on)
                                     if rms_on > 0 else float("inf"))

    manifest = {
        "scenario": name,
        "controller": "on" if controller_on else "off",
        "config": cfg.as_dict(),
        "matrices_sha256": hashlib.sha256(mats.tobytes()).hexdigest(),
        "outputs": outputs,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    for run_tag, traj in runs.items():
        write_csv(out_dir / f"{run_tag}.csv", traj, cfg.n_modes)
    for path, record in ((outputs["metrics"], metrics), (f"{tag}_manifest.json", manifest)):
        with open(out_dir / path, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
    return metrics


def recompute_metrics_from_csv(csv_path, period1):
    """Re-derive the metrics from a written trajectory CSV (no hidden state)."""
    data = np.genfromtxt(csv_path, delimiter=",", names=True)
    return compute_metrics(np.atleast_1d(data["t"]), np.atleast_1d(data["w_tip"]),
                           np.atleast_1d(data["v_p"]), period1)


def make_parser():
    ap = argparse.ArgumentParser(
        prog="piezobeam",
        description="Rotating piezo-actuated cantilever: batch vibration "
                    "simulation and active control scenarios.")
    ap.add_argument("--config", type=str, default=None, help="YAML config file")
    ap.add_argument("--scenario", choices=list(SCENARIOS) + ["all"], default="free")
    ap.add_argument("--controller", choices=["on", "off"], default="on")
    ap.add_argument("--out", type=str, default="out", help="output directory")
    # an override's destination is the config key it replaces
    ap.add_argument("--dt", dest="sim.dt", type=float, help="time step override [s]")
    ap.add_argument("--tfinal", dest="sim.t_final", type=float, help="duration override [s]")
    ap.add_argument("--omega", dest="sim.Omega", type=float,
                    help="base rotation override [rad/s]")
    ap.add_argument("--modes", dest="sim.n_modes", type=int, help="mode count per field")
    ap.add_argument("--export-matrices", type=str, default=None,
                    help="write assembled matrices to a plain-text file and exit")
    return ap


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, {k: v for k, v in vars(args).items() if k in SCHEMA})
        basis, mats = build_model(cfg)
        if args.export_matrices:
            export_matrices(mats, args.export_matrices)
            return 0

        names = SCENARIOS if args.scenario == "all" else (args.scenario,)
        for name in names:
            metrics = run_scenario(name, cfg, basis, mats, Path(args.out),
                                   controller_on=args.controller == "on")
            print(f"{name} [controller {args.controller}]: "
                  + json.dumps(metrics, sort_keys=True))
        return 0
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationBlowupError, SpinDestabilizedError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ControlAuthorityError as exc:
        print(f"control failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
