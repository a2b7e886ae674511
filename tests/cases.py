"""Test cases on the public API: the n-mode model, the tip law, the release
and the oracles that more than one test module checks against.

Every test module imports what it needs from here, so a case is stated
once: model(3, **ZETA_3) is the 3-mode model of the kernel tests, and
tip_law(mats, basis, 50.0) the law the CLI builds, clipped at 50 V.
"""

import dataclasses
import math

import numpy as np
import pytest

from piezobeam import (BeamSpec, ControllerConfig, IntegrationBlowupError, ModalBasis,
                       PiezoSpec, SimConfig, assemble, closed_loop, design_gains,
                       make_policy, rhs, rk4_step, section_properties, simulate)
from piezobeam import dynamics

# damping ratios of the models of up to 3 and of up to 6 modes that the
# kernel tests step: the default two, then padded
ZETA_3 = {"zeta_flex": (0.01, 0.0016, 0.002), "zeta_tors": (0.01, 0.0033, 0.004)}
ZETA_6 = {"zeta_flex": (0.01, 0.0016) + (0.01,) * 4, "zeta_tors": (0.01, 0.0033) + (0.01,) * 4}


def model(n, piezo=PiezoSpec(), **damping):
    """(basis, matrices) of the default beam with n modes, as cli.build_model
    gives them; damping holds zeta_flex and zeta_tors in place of the
    default ratios, and piezo=None models the bare beam."""
    beam = BeamSpec(**damping)
    basis = ModalBasis.build(n, beam.L)
    return basis, assemble(beam, piezo, basis)


def tip_controller(mats, basis, v_max=None):
    """The CLI's default ControllerConfig: omega_cl the first flexural
    frequency at Omega = 0, zeta_cl 0.8, the tip values for the output
    weights, and clipped at v_max unless it is None or inf."""
    k0, k1 = design_gains(mats.natural_frequencies[0][0], 0.8)
    return ControllerConfig(k0=k0, k1=k1, output_weights=basis.flexural_tip_values(),
                            v_max=None if v_max == math.inf else v_max)


def tip_law(mats, basis, v_max=None, omega=20.0):
    """make_policy's law for tip_controller, the law the CLI builds."""
    return make_policy(mats, tip_controller(mats, basis, v_max), omega)


def release(basis, tip_w0=5e-3):
    """[p; q; pdot; qdot] at rest with the tip deflected by tip_w0 in mode 1."""
    x = np.zeros(4 * basis.n)
    x[0] = tip_w0 / basis.flexural_tip_values()[0]
    return x


def config(law=None, **fields):
    """SimConfig(**fields) for a run under law (None for none): Omega = 20
    rad/s and dt = 2e-5 s unless fields give others, controller_on if law."""
    return SimConfig(**{"Omega": 20.0, "dt": 2e-5, **fields}, controller_on=law is not None)


def sim(mats, basis, law=None, **fields):
    """simulate's run of config(law, **fields) under law."""
    return simulate(config(law, **fields), mats, basis, controller=law)


def guard_dt(mats):
    """2e-5, or below it the dt guard's bound at the model's highest frequency."""
    om_f, om_t = mats.natural_frequencies
    return min(2e-5, 1.0 / (20.0 * max(om_f[-1], om_t[-1]) / (2.0 * math.pi)))


def reference_run(cfg, mats, law):
    """(states, voltage) of the RK4 loop composed from the public pieces: the
    law (None for none) is evaluated afresh at every stage, and once more
    for each voltage sample."""
    omega, dist = cfg.Omega, cfg.disturbance
    f_law = closed_loop(mats, omega, law)

    def f(x, t):
        return rhs(x, t, f_law(x, t)[1], mats, omega, dist)

    x = cfg.initial_state
    states, voltage = [], []
    for i in range(cfg.nsteps + 1):
        t = i * cfg.dt
        states.append(x)
        voltage.append(f_law(x, t)[1])
        if i < cfg.nsteps:
            x = rk4_step(f, x, t, cfg.dt)
    return np.array(states), np.array(voltage)


def assert_within_peaks(tr, states, voltage):
    """The simulated run against a reference run: each state column within
    1e-12 of that column's peak, the voltage within 1e-10 of its peak (the
    stage maps sum RK4's terms in another order)."""
    for j in range(states.shape[1]):
        peak = np.max(np.abs(states[:, j]))
        assert np.max(np.abs(tr.states[:, j] - states[:, j])) <= 1e-12 * peak, j
    assert np.max(np.abs(tr.voltage - voltage)) <= 1e-10 * np.max(np.abs(voltage))


def blowup_times(cfg, mats, basis, law):
    """The times at which simulate fails cfg's run under law (None for none)
    on the stage maps and on the step loop, which calls the law, or a zero
    voltage, behind a plain function."""
    called = (lambda x, t, a0: 0.0) if law is None else (lambda x, t, a0: law(x, t, a0))
    times = []
    for controller in (law, called):
        with pytest.raises(IntegrationBlowupError) as info:
            simulate(dataclasses.replace(cfg, controller_on=controller is not None),
                     mats, basis, controller=controller)
        times.append(info.value.t)
    return times


def record_stage_maps(monkeypatch):
    """The list to which each later dynamics._rk4_stage_maps call appends
    (the row count of each stage map, D's shape or None)."""
    built = []
    stage_maps = dynamics._rk4_stage_maps

    def recording(A, lattice, E, dt, *readout):
        S, F, D = stage_maps(A, lattice, E, dt, *readout)
        built.append(([maps.shape[0] for maps in S], None if D is None else D.shape))
        return S, F, D
    monkeypatch.setattr(dynamics, "_rk4_stage_maps", recording)
    return built


def trapezoid_panels(breakpoints, total_points):
    """Composite trapezoid grids split at the given breakpoints.

    Yields one (x, w) pair per panel so callers can evaluate one-sided limits
    of piecewise section properties; points are spread proportionally to
    panel length.  Independent brute-force oracle for the Gauss assembly path.
    """
    panels = []
    spans = list(zip(breakpoints[:-1], breakpoints[1:]))
    total_len = sum(b - a for a, b in spans)
    for a, b in spans:
        if b - a <= 0:
            continue
        m = max(2, int(round(total_points * (b - a) / total_len)))
        x = np.linspace(a, b, m)
        w = np.full(m, (b - a) / (m - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        panels.append((x, w))
    return panels


def oracle_matrices(beam, piezo, basis, total_points=20000):
    """Brute-force piecewise-trapezoid evaluation of every coefficient
    integral; independent of the Gauss-Legendre assembly path."""
    breaks = [0.0, beam.L]
    if piezo is not None and piezo.l2 > piezo.l1:
        breaks = sorted({0.0, piezo.l1, piezo.l2, beam.L})
    panels = trapezoid_panels(breaks, total_points)
    # Section properties are piecewise constant, so evaluate once per panel
    # at the midpoint; panel endpoints then carry the correct one-sided value
    # at the patch edges.
    xs, ws, props = [], [], []
    for px, pw in panels:
        s = section_properties(0.5 * (px[0] + px[-1]), beam, piezo)
        xs.append(px)
        ws.append(pw)
        props.extend([s] * len(px))
    x = np.concatenate(xs)
    w = np.concatenate(ws)
    rhoA = np.array([s.rhoA for s in props])
    Ix = np.array([s.Ix for s in props])
    EIy = np.array([s.EIy for s in props])
    GJ = np.array([s.GJ for s in props])
    EA = np.array([s.EA for s in props])
    n = basis.n
    phi = np.array([basis.flexural_mode(j, x)[0] for j in range(1, n + 1)])
    dphi = np.array([basis.flexural_mode(j, x)[1] for j in range(1, n + 1)])
    ddphi = np.array([basis.flexural_mode(j, x)[2] for j in range(1, n + 1)])
    psi = np.array([basis.torsional_mode(j, x)[0] for j in range(1, n + 1)])
    dpsi = np.array([basis.torsional_mode(j, x)[1] for j in range(1, n + 1)])
    return {
        "M1": np.einsum("m,im,jm->ij", w * rhoA, phi, phi),
        "M2": np.einsum("m,im,jm->ij", w * Ix, psi, psi),
        "C1": np.einsum("m,im,jm->ij", w * Ix, phi, dpsi),
        "C2": np.einsum("m,im,jm->ij", w * Ix, psi, dphi),
        "K1": np.einsum("m,im,jm->ij", w * EIy, ddphi, ddphi),
        "K2": np.einsum("m,im,jm->ij", w * GJ, dpsi, dpsi),
        "D1": np.einsum("m,im,jm->ij", w * Ix, phi, ddphi),
        "G1": np.einsum("m,im,jm,km,lm->ijkl", w * EA, dphi, dphi, dphi, dphi),
    }
