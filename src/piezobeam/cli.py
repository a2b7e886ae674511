"""Batch front end: config loading, the two shipped scenarios, CSV/JSON output.

Scenarios:
  free         release from an initial tip deflection, no external forcing
  disturbance  zero initial state, harmonic force on one flexural modal
               equation

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 loss of
control authority.
"""

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .assembly import (AssemblyError, BeamSpec, PiezoSpec, SpecError, assemble, check,
                       export_matrices, SpinDestabilizedError)
from .basis import ModalBasis
from .control import (ClosedLoopSpec, ControlAuthorityError, ControllerConfig, design_gains,
                      make_policy)
from .dynamics import Disturbance, IntegrationBlowupError, SimConfig, simulate

SCENARIOS = ("free", "disturbance")


class ConfigError(Exception):
    pass


def _key(key, default):
    """A config field read from the YAML key `section.name`."""
    return field(default=default, metadata={"key": key})


@dataclass(frozen=True)
class AppConfig:
    """The resolved run configuration, validated on construction (and frozen);
    every run default is written here or in BeamSpec/PiezoSpec, and nowhere else.

    The `beam` and `piezo` YAML sections hold the BeamSpec and PiezoSpec
    fields under their own names; every other field names its YAML key.  A
    key that is absent or null keeps its default.  One default follows
    another field: piezo.w_p is beam.b.  Each value meets the rules of the
    BeamSpec, PiezoSpec, SimConfig or Disturbance that runs it; here are only
    the rules that tie values together or that no such object states.  A
    broken rule raises ConfigError naming the YAML key.
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
    ctrl_v_max: float = _key("controller.v_max", 200.0)

    def __post_init__(self):
        n = self.n_modes
        try:
            SimConfig(self.Omega, self.dt, self.t_final)
            Disturbance(self.dist_amplitude, self.dist_frequency, self.dist_target)
            check(self, (("n_modes", n >= 1, "must be >= 1"),
                         ("tip_w0", math.isfinite(self.tip_w0), "must be finite"),
                         ("dist_target", self.dist_target <= n, "outside 1..n_modes"),
                         ("ctrl_omega_cl", self.ctrl_omega_cl is None or self.ctrl_omega_cl > 0,
                          "must be null or > 0"),
                         ("ctrl_zeta_cl", self.ctrl_zeta_cl > 0, "must be > 0"),
                         ("ctrl_v_max", self.ctrl_v_max > 0, "must be > 0")))
            check(self.piezo, (("l2", self.piezo.l2 <= self.beam.L,
                                "patch end beyond beam length"),))
            check(self.beam, ((name, len(getattr(self.beam, name)) >= n,
                               "need one damping ratio per mode")
                              for name in ("zeta_flex", "zeta_tors")))
        except SpecError as exc:
            raise _named_by_key(exc) from None

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
KIND_OF = {"beam": BeamSpec, "piezo": PiezoSpec, "sim": SimConfig,
           "disturbance": Disturbance,
           "controller": ClosedLoopSpec}  # the kind that runs each YAML section
# the YAML key of each (SpecError kind, field name) a key sets: an AppConfig
# field by its key metadata, a field of a section's kind by its name there
KEY_OF = {**{(KIND_OF[key.split(".")[0]], key.split(".")[1]): key for key in SCHEMA},
          **{(AppConfig, f.name): key for key, (owner, f) in SCHEMA.items() if owner is None}}


def _named_by_key(exc):
    """exc, or for a SpecError on a field that a YAML key sets, the
    ConfigError that names the field by that key."""
    key = KEY_OF.get((exc.kind, exc.name)) if isinstance(exc, SpecError) else None
    return exc if key is None else ConfigError(f"{key}: {exc.rule}")


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
        import yaml  # the parser is needed only for a file, and takes time to import
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
    except SpecError as exc:
        raise _named_by_key(exc) from None
    return AppConfig(beam=beam, piezo=piezo, **given[None])


def build_model(cfg):
    """(basis, matrices) for a resolved configuration."""
    basis = ModalBasis.build(cfg.n_modes, cfg.beam.L)
    mats = assemble(cfg.beam, cfg.piezo, basis)
    return basis, mats


def _build_controller(cfg, mats, basis):
    om_f, _ = mats.natural_frequencies
    omega_cl = om_f[0] if cfg.ctrl_omega_cl is None else cfg.ctrl_omega_cl
    k0, k1 = design_gains(omega_cl, cfg.ctrl_zeta_cl)  # main names a broken rule's key
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


CSV_BLOCK_ROWS = 512  # rows per formatting pass: few numpy calls, ~2.3 MB of temporaries

# The source row of one value in _format_block: the 16 digits after the
# first (bytes 0-15), the 3 digits of |exponent| (16-18), then these bytes.
_FIRST, _POINT, _SIGN, _E, _ZERO, _NUL, _SEP, _MINUS = range(19, 27)
_SOURCE = 28  # bytes per value in the source
_TEXT = 24  # the longest "%.17g" text, as -2.2250738585071999e-308
_E_MIN, _E_MAX = -284, 16  # the decimal exponents the tables cover
_TIE = 0.5 - 1e-9  # |fraction| beyond which the rounding is left to "%.17g"
_SPLITTER = 134217729.0  # 2**27 + 1: Dekker's split of a double into two halves


@functools.cache
def _csv_tables():
    """The tables of _format_block, by index:
      quad:    the 4 ASCII digits of 0..9999, one uint32 each;
      sig:     at 10 000 k + g, for g as the k-th group of 4 digits after
               the first (k from 0), the count of digits after the first up
               to g's last non-zero one, 0 for g = 0;
      pow10:   row e - _E_MIN: 10**(16 - e) as hi + lo, exact to 2**-106
               relative, and hi's two Dekker halves;
      expo:    at e - _E_MIN, the 3 ASCII digits of |e|, one uint32;
      cls:     at e - _E_MIN, the layout class of exponent e times 17, less 1;
      layouts: at 17 class + kept digits - 1, the source bytes of the text
               and its separator, NUL-padded to _TEXT.
    The classes are e = 0..16 (fixed), 17..20 for e = -1..-4 (fixed with
    leading zeros), 21 and 22 for a 2- and a 3-digit exponent."""
    groups = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)
    quad = np.ascontiguousarray((groups + ord("0")).T).view(np.uint32).ravel()
    last = ((groups != 0) * np.arange(1, 5, dtype=np.uint8)[:, None]).max(axis=0)
    sig = np.where(last > 0, last + np.arange(0, 16, 4, dtype=np.uint8)[:, None], 0)
    pow10, power = [], 10 ** (16 - _E_MAX)
    for _ in range(_E_MAX - _E_MIN + 1):  # e from _E_MAX down
        hi = float(power)
        pow10.append((hi, float(power - int(hi))))
        power *= 10
    hi, lo = np.array(pow10[::-1]).T
    split = hi * _SPLITTER
    hh = split - (split - hi)
    es = np.arange(_E_MIN, _E_MAX + 1)
    ex = np.abs(es)
    expo = np.zeros((es.size, 4), np.uint8)
    expo[:, :3] = np.stack((ex // 100, ex // 10 % 10, ex % 10), axis=1) + ord("0")
    cls = np.select([es >= 0, es >= -4, es >= -99], [es, 16 - es, 21], 22) * 17 - 1
    # each class's text at all 17 digits, as (source byte, rank): a digit's
    # rank is its index from 0, the point's the count of digits before it,
    # other bytes' -1; the text with k digits kept has NUL for rank >= k
    digit = [(_FIRST, 0)] + [(j, j + 1) for j in range(16)]
    full = []
    for c in range(23):
        if c <= 16:
            text = digit[:c + 1] + [(_POINT, c + 1)] + digit[c + 1:]
        elif c <= 20:
            text = [(_ZERO, -1), (_POINT, -1)] + [(_ZERO, -1)] * (c - 17) + digit
        else:
            text = (digit[:1] + [(_POINT, 1)] + digit[1:] + [(_E, -1), (_MINUS, -1)]
                    + [(j, -1) for j in range(38 - c, 19)])
        full.append([(_SIGN, -1)] + text + [(_NUL, -1)] * (_TEXT - 1 - len(text))
                    + [(_SEP, -1)])
    byte, rank = np.array(full).transpose(2, 0, 1)
    layouts = np.where(rank[:, None] >= np.arange(1, 18)[:, None], _NUL, byte[:, None])
    tables = (quad, sig.astype(np.uint8).ravel(), np.stack((hi, lo, hh, hi - hh), axis=1),
              expo.view(np.uint32).ravel(), cls, layouts.reshape(-1, _TEXT + 1))
    for table in tables:  # shared by every caller
        table.flags.writeable = False
    return tables


def _scaled(a, e, pow10):
    """(D, d): a 10**(16 - e) = D + d to about 1e-14, with D an int64 and
    |d| <= 1/2, for a in [1e-280, 1e16) and e within one of its exponent.
    The product is the double-double p + t of Dekker's exact a * hi plus
    a * lo; where it is at least 2**53, p is an integer."""
    hi, lo, hh, hl = pow10.take(e - _E_MIN, axis=0).T
    split = a * _SPLITTER
    ah = split - (split - a)
    al = a - ah
    p = a * hi
    t = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo
    n = np.rint(t)
    D = p.astype(np.int64)
    D += n.astype(np.int64)
    return D, t - n


def _format_block(x, source):
    """The "%.17g" texts of the float64 values x, each followed by its
    separator byte in source (an array from _csv_source), as bytes."""
    quad, sig, pow10, expo, cls, layouts = _csv_tables()
    size = x.size
    a = np.abs(x)
    fast = (a >= 1e-280) & (a < 1e16)
    plain = fast | (a == 0.0)
    a = np.where(fast, a, 1.0)  # the rest are laid out as 1, then replaced
    e = np.floor(np.log10(a)).astype(np.intp)
    D, d = _scaled(a, e, pow10)
    # e is one off near powers of ten, and rounding can carry into an 18th
    # digit: a * 10**(16 - e) must lie in [1e16 - 0.05, 1e17 - 0.5)
    odd = np.flatnonzero((D <= 10 ** 16) | (D >= 10 ** 17))
    if odd.size:
        Do, do = D[odd], d[odd]
        edge = Do == 10 ** 16
        tie = odd[edge & (np.abs(do + 0.05) < 1e-9)]  # a tie one digit further
        step = (Do >= 10 ** 17).astype(np.intp) - ((Do < 10 ** 16) | (edge & (do < -0.05)))
        odd = odd[step != 0]
        e[odd] += step[step != 0]
        D[odd], d[odd] = _scaled(a[odd], e[odd], pow10)
        # d = 1/2 leaves a value to "%.17g"
        d[odd[(D[odd] < 10 ** 16) | (D[odd] >= 10 ** 17)]] = 0.5
        d[tie] = 0.5
    head, tail = np.divmod(D, 10 ** 8)
    first, head = np.divmod(head, 10 ** 8)
    groups = np.empty((4, size), np.intp)
    np.divmod(head, 10 ** 4, out=(groups[0], groups[1]))
    np.divmod(tail, 10 ** 4, out=(groups[2], groups[3]))
    src = source[:size]
    words = src.view(np.uint32)
    words[:, :4] = quad.take(groups).T
    eo = e - _E_MIN
    words[:, 4] = expo.take(eo)
    src[:, _FIRST] = first * fast + ord("0")
    src[:, _SIGN] = np.signbit(x) * ord("-")
    groups += np.arange(0, 40000, 10000)[:, None]
    keep = np.maximum(sig.take(groups).max(axis=0) + 1, e + 1)
    at = layouts.take(cls.take(eo) + keep, axis=0)
    at += np.arange(0, size * _SOURCE, _SOURCE)[:, None]
    out = source.ravel().take(at)
    for i in np.flatnonzero(~plain | (np.abs(d) > _TIE)).tolist():
        text = b"%.17g" % x.item(i)
        out[i, :_TEXT] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out.tobytes().translate(None, b"\0")


def _csv_source(rows, cols):
    """_format_block's source for up to rows rows of cols values, with its
    constant bytes set."""
    source = np.zeros((rows * cols, _SOURCE), np.uint8)
    for at, char in ((_POINT, "."), (_E, "e"), (_ZERO, "0"), (_SEP, ","), (_MINUS, "-")):
        source[:, at] = ord(char)
    source[cols - 1::cols, _SEP] = ord("\n")
    return source


def write_csv(path, traj):
    """The trajectory as CSV, every value "%.17g" (what np.savetxt with that
    fmt writes, byte for byte), formatted and written CSV_BLOCK_ROWS rows at
    a time.

    The texts are made in numpy (_format_block): each |x| in [1e-280, 1e16)
    is scaled to a 17-digit integer in double-double arithmetic, correctly
    rounded, and its digits are laid out by the %g rules; zeros are written
    as 0 and -0.  Python's own "%.17g" writes the rest (non-finite values,
    |x| < 1e-280 including subnormals, |x| >= 1e16) and every value whose
    rounding fraction lies within 1e-9 of a tie."""
    n = traj.states.shape[1] // 4  # the state is [p; q; pdot; qdot]
    cols = (["t"] + [f"p{i}" for i in range(1, n + 1)]
            + [f"q{i}" for i in range(1, n + 1)]
            + [f"dp{i}" for i in range(1, n + 1)]
            + [f"dq{i}" for i in range(1, n + 1)]
            + ["w_tip", "theta_tip", "v_p"])
    columns = (traj.times, traj.states, traj.tip_w, traj.tip_theta, traj.voltage)
    rows = len(traj.times)
    source = _csv_source(min(rows, CSV_BLOCK_ROWS), len(cols))
    with open(path, "wb") as fh:
        fh.write((",".join(cols) + "\n").encode())
        for start in range(0, rows, CSV_BLOCK_ROWS):
            block = np.column_stack([c[start:start + CSV_BLOCK_ROWS] for c in columns])
            fh.write(_format_block(block.ravel(), source))


def run_scenario(name, cfg, basis, mats, out_dir, controller_on=True):
    """Run one scenario, or both for name="all", on the model build_model(cfg)
    returned, then write each one's CSV trajectory, metrics JSON and
    manifest; returns {scenario: metrics} in SCENARIOS order.

    Every simulation of the call runs before out_dir is created, so a call
    that fails writes nothing.  For the disturbance scenario with the
    controller on, an uncontrolled companion run is performed and exported
    alongside, and the manifest lists it, so the attenuation figure is
    reproducible from the written files.
    """
    if name not in SCENARIOS + ("all",):
        raise ConfigError(f"unknown scenario {name!r}; expected one of {SCENARIOS} or 'all'")
    controller = make_policy(mats, _build_controller(cfg, mats, basis), cfg.Omega) \
        if controller_on else None
    state = "on" if controller_on else "off"
    record = {"controller": state, "config": cfg.as_dict(),
              "matrices_sha256": hashlib.sha256(mats.tobytes()).hexdigest()}
    runs, results, docs = {}, {}, {}  # docs: {file name: JSON record}
    for scenario in SCENARIOS if name == "all" else (name,):
        tag = f"{scenario}_{state}"
        runs[tag] = simulate(_sim_config(cfg, basis, scenario, controller_on), mats, basis,
                             controller=controller)
        metrics = results[scenario] = dict(runs[tag].metrics)
        outputs = {"csv": f"{tag}.csv", "metrics": f"{tag}_metrics.json"}
        if scenario == "disturbance" and controller_on:
            companion = runs[f"{scenario}_off"] = simulate(
                _sim_config(cfg, basis, scenario, False), mats, basis)
            outputs["companion_csv"] = f"{scenario}_off.csv"
            rms_off = companion.metrics["rms_tip_after_transient_m"]
            rms_on = metrics["rms_tip_after_transient_m"]
            # a zero RMS has no finite dB ratio, and JSON has no Infinity
            metrics["attenuation_db"] = (20.0 * math.log10(rms_off / rms_on)
                                         if rms_on > 0 and rms_off > 0 else None)
        docs[outputs["metrics"]] = metrics
        docs[f"{tag}_manifest.json"] = {"scenario": scenario, **record, "outputs": outputs}

    out_dir.mkdir(parents=True, exist_ok=True)
    for tag, traj in runs.items():
        write_csv(out_dir / f"{tag}.csv", traj)
    for path, doc in docs.items():
        with open(out_dir / path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
    return results


# (flag, the config key it overrides and stores its value under, type, help)
OVERRIDE_FLAGS = (
    ("--dt", "sim.dt", float, "time step override [s]"),
    ("--tfinal", "sim.t_final", float, "duration override [s]"),
    ("--omega", "sim.Omega", float, "base rotation override [rad/s]"),
    ("--modes", "sim.n_modes", int, "mode count per field"),
)


def _join_override_values(argv):
    """argv with each override flag and the value after it joined as
    '--flag=value'.  argparse takes a value that starts with '-' for an
    option unless it reads like -1 or -1.5, so '--omega -1e3' and
    '--dt -inf' would not parse."""
    flags = {flag for flag, *_ in OVERRIDE_FLAGS}
    out = []
    for arg in argv:
        if out and out[-1] in flags:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def make_parser():
    ap = argparse.ArgumentParser(
        prog="piezobeam",
        description="Rotating piezo-actuated cantilever: batch vibration "
                    "simulation and active control scenarios.")
    ap.add_argument("--config", type=str, default=None, help="YAML config file")
    ap.add_argument("--scenario", choices=list(SCENARIOS) + ["all"], default="free")
    ap.add_argument("--controller", choices=["on", "off"], default="on")
    ap.add_argument("--out", type=str, default="out", help="output directory")
    for flag, key, kind, text in OVERRIDE_FLAGS:
        ap.add_argument(flag, dest=key, type=kind, help=text)
    ap.add_argument("--export-matrices", type=str, default=None,
                    help="write assembled matrices to a plain-text file and exit")
    return ap


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = make_parser().parse_args(_join_override_values(argv))
    try:
        cfg = load_config(args.config, {k: v for k, v in vars(args).items() if k in SCHEMA})
        basis, mats = build_model(cfg)
        if args.export_matrices:
            export_matrices(mats, args.export_matrices)
            return 0

        results = run_scenario(args.scenario, cfg, basis, mats, Path(args.out),
                               controller_on=args.controller == "on")
        for name, metrics in results.items():
            print(f"{name} [controller {args.controller}]: "
                  + json.dumps(metrics, sort_keys=True))
        return 0
    except (ConfigError, ValueError) as exc:
        print(f"config error: {_named_by_key(exc)}", file=sys.stderr)
        return 2
    except (AssemblyError, IntegrationBlowupError, SpinDestabilizedError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ControlAuthorityError as exc:
        print(f"control failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
