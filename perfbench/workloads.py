"""The two benchmark workloads.

Each workload has
  setup()                 the model and controller its rounds need; this is
                          what `setup_s` times in a fresh process;
  draw(rng)               the inputs of one round, from the seeded generator;
  run(ctx, inputs)        the timed work of one round: one outcome per
                          operation, either its output or the exception the
                          program raised;
  check(ctx, inputs, out) one list of problems per operation, from
                          `checks`, computed apart from the program.

Program functions are always looked up through their module at call time, so
the tracer's replacements see every call.
"""

import contextlib
import io
import json
import math
import shutil

import numpy as np

import piezobeam as pb
from piezobeam import cli

import checks

DT = 2e-5                 # the default time step
ZETA_CL = 0.8             # the default closed-loop damping
DRIVE_AMPLITUDE = 0.001   # the default disturbance amplitude


def _attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # one failed operation; the round goes on
        return exc


class ScenarioAll:
    """`piezobeam --scenario all --controller on` in process, default config.

    One operation is one `cli.main` call: a saturated controlled free
    release, a controlled disturbance run and its uncontrolled companion,
    three CSVs into an empty directory.  The timed rounds run for
    T_ROUND = 0.002 s of model time (100 steps per trajectory), short enough
    for hundreds of rounds per run (see README.md on why rounds are
    short).  Their outputs are
    checked: the printed metrics and attenuation against the CSVs, |v| <=
    v_max, and the controlled disturbance run's tip history against the
    closed-form response from rest.

    Once per run, before the timed rounds, one untimed `--scenario free`
    call runs for T_LONG = 0.6 s and gets the decay check: the saturated
    release settles at 0.55 s, so 0.6 s leaves 25 ms (about one first-mode
    period) of decayed tail.  The default 2 s would take about a minute.
    """

    name = "scenario_all"
    T_ROUND = 0.002
    T_LONG = 0.6
    TAIL = 0.025         # seconds of decayed tail the release must show

    def __init__(self, out_dir):
        self.out_dir = out_dir

    def setup(self):
        cfg = cli.load_config(None)
        basis, mats = cli.build_model(cfg)
        om_f, _ = pb.linear_frequencies(mats, 0.0)
        k0, k1 = pb.design_gains(om_f[0], cfg.ctrl_zeta_cl)
        ctrl = pb.ControllerConfig(k0=k0, k1=k1, output_weights=basis.flexural_tip_values(),
                                   v_max=cfg.ctrl_v_max)
        pb.make_policy(mats, ctrl, cfg.Omega)
        return {"cfg": cfg, "mats": mats}

    def _argv(self, scenario, t_final):
        return ["--scenario", scenario, "--controller", "on",
                "--tfinal", repr(t_final), "--out", str(self.out_dir)]

    def opening(self):
        """Inputs of the untimed operations run once before the rounds."""
        return [self._argv("free", self.T_LONG)]

    def draw(self, rng):
        return self._argv("all", self.T_ROUND)

    def run(self, ctx, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = _attempt(cli.main, argv)
        if isinstance(rc, Exception):
            return [rc]
        if rc != 0:
            return [RuntimeError(f"exit code {rc}: {stderr.getvalue().strip()}")]
        return [stdout.getvalue()]

    def _printed(self, text):
        printed = {}
        for line in text.splitlines():
            head, _, body = line.partition(": ")
            printed[head.split()[0]] = json.loads(body)
        return printed

    def _read(self, name):
        path = self.out_dir / name
        with open(path) as fh:
            cols = fh.readline().strip().split(",")
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        return {c: data[:, i] for i, c in enumerate(cols)}

    def check(self, ctx, argv, outcomes):
        try:
            return self._check(ctx, argv, outcomes)
        finally:
            # every call writes new files: on ext4, truncating and rewriting
            # a file starts its writeback at close, inside the timed call
            shutil.rmtree(self.out_dir, ignore_errors=True)

    def _check(self, ctx, argv, outcomes):
        (text,) = outcomes
        if isinstance(text, Exception):
            return [[]]
        cfg, mats = ctx["cfg"], ctx["mats"]
        scenarios = {"free"} if argv == self.opening()[0] else {"free", "disturbance"}
        printed = self._printed(text)
        if set(printed) != scenarios:
            return [[f"printed scenarios {sorted(printed)}"]]
        w1 = checks.first_flexural_frequency(mats.M1, mats.K1)
        period1 = 2.0 * math.pi / w1
        problems = []

        free = self._read("free_on.csv")
        problems += checks.saturation_problems("free_on", free["v_p"], cfg.ctrl_v_max)
        problems += checks.metrics_problems(
            "free_on", printed["free"],
            checks.summary_metrics(free["t"], free["w_tip"], free["v_p"], period1))
        if "disturbance" not in scenarios:
            return [problems + checks.decay_problems("free_on", free["t"], free["w_tip"],
                                                     self.TAIL)]

        on, off = self._read("disturbance_on.csv"), self._read("disturbance_off.csv")
        m_on = checks.summary_metrics(on["t"], on["w_tip"], on["v_p"], period1)
        m_off = checks.summary_metrics(off["t"], off["w_tip"], off["v_p"], period1)
        m_on["attenuation_db"] = checks.attenuation_db(m_off["rms_tip_after_transient_m"],
                                                       m_on["rms_tip_after_transient_m"])
        problems += checks.saturation_problems("disturbance_on", on["v_p"], cfg.ctrl_v_max)
        problems += checks.metrics_problems("disturbance_on", printed["disturbance"], m_on)
        expected = checks.closed_loop_response(on["t"], mats.M1, cfg.dist_target,
                                               cfg.dist_amplitude, w1 ** 2,
                                               2.0 * cfg.ctrl_zeta_cl * w1, cfg.dist_frequency)
        problems += checks.response_problems("disturbance_on", on["w_tip"], expected)
        return [problems]

    def cleanup(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)


class FreqSweep:
    """Short controlled disturbance runs through the library API, with an
    unsaturated controller on one model.  Each round is one trajectory at
    a seeded point of the (drive frequency, Omega) grid.

    Each trajectory is T_FINAL = 0.002 s (100 steps) from rest, mostly
    closed-loop transient, so its whole tip history is checked against the
    closed-form response; short trajectories give hundreds of rounds per
    run and weigh the per-trajectory costs as a sweep of many members does.
    """

    name = "freq_sweep"
    T_FINAL = 0.002
    FREQUENCY = (25.0, 150.0)     # Hz
    OMEGA = (5.0, 200.0)          # rad/s; the damped model stays stable far beyond

    def setup(self):
        beam, piezo = pb.BeamSpec(), pb.PiezoSpec()
        basis = pb.ModalBasis.build(2, beam.L)
        mats = pb.assemble(beam, piezo, basis)
        om_f, _ = pb.linear_frequencies(mats, 0.0)
        k0, k1 = pb.design_gains(om_f[0], ZETA_CL)
        ctrl = pb.ControllerConfig(k0=k0, k1=k1, output_weights=basis.flexural_tip_values(),
                                   v_max=None)
        return {"basis": basis, "mats": mats, "ctrl": ctrl}

    def draw(self, rng):
        return float(rng.uniform(*self.FREQUENCY)), float(rng.uniform(*self.OMEGA))

    def _one(self, ctx, freq, omega):
        cfg = pb.SimConfig(Omega=omega, dt=DT, t_final=self.T_FINAL,
                           disturbance=pb.Disturbance(amplitude=DRIVE_AMPLITUDE,
                                                      frequency=freq, target=1),
                           controller_on=True)
        policy = pb.make_policy(ctx["mats"], ctx["ctrl"], omega)
        return pb.simulate(cfg, ctx["mats"], ctx["basis"], controller=policy)

    def run(self, ctx, point):
        return [_attempt(self._one, ctx, *point)]

    def check(self, ctx, point, outcomes):
        (traj,) = outcomes
        if isinstance(traj, Exception):
            return [[]]
        freq, omega = point
        ctrl = ctx["ctrl"]
        expected = checks.closed_loop_response(traj.times, ctx["mats"].M1, 1, DRIVE_AMPLITUDE,
                                               ctrl.k0, ctrl.k1, freq)
        return [checks.response_problems(f"{freq:.3f} Hz at Omega {omega:.2f}",
                                         traj.tip_w, expected)]


def make(name, out_dir):
    """The workload called `name`, at its benchmark size."""
    return ScenarioAll(out_dir) if name == ScenarioAll.name else FreqSweep()
