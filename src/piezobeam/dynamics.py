"""Right-hand side, time stepping and energy oracle for the modal equations.

The state is one flat vector x = [p; q; pdot; qdot] of length 4n, with p the
flexural and q the torsional modal coordinates; this is the layout of every
x below, of SimConfig.initial_state and of each row of Trajectory.states.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import StateOperator


class IntegrationBlowupError(RuntimeError):
    def __init__(self, t, reason="non-finite state"):
        super().__init__(f"{reason} at t = {t:.6g} s")
        self.t = t


def _check(obj, rules):
    """Raise ValueError for the first (field, holds, rule) that does not hold."""
    for name, ok, rule in rules:
        if not ok:
            raise ValueError(f"{type(obj).__name__}.{name} must be {rule}")


@dataclass(frozen=True)
class Disturbance:
    """Additive harmonic generalized force on one flexural modal equation."""

    amplitude: float
    frequency: float  # Hz
    target: int       # 1-based flexural equation index

    def __post_init__(self):
        _check(self, (("amplitude", 0 <= self.amplitude < math.inf, "finite and >= 0"),
                      ("frequency", 0 < self.frequency < math.inf, "finite and > 0"),
                      ("target", 1 <= self.target, ">= 1")))

    def force(self, t):
        return self.amplitude * math.sin(2.0 * math.pi * self.frequency * t)


@dataclass
class SimConfig:
    """One run; the run defaults live in the CLI config, not here."""

    Omega: float
    dt: float
    t_final: float
    initial_state: np.ndarray = None  # length 4n; None starts at rest
    disturbance: Disturbance = None
    controller_on: bool = False
    integrator: str = "rk4"  # key of INTEGRATORS

    def __post_init__(self):
        _check(self, (("Omega", math.isfinite(self.Omega), "finite"),
                      ("dt", 0 < self.dt < math.inf, "finite and > 0"),
                      ("t_final", 0 <= self.t_final < math.inf, "finite and >= 0"),
                      ("integrator", self.integrator in INTEGRATORS,
                       f"one of {sorted(INTEGRATORS)}, got {self.integrator!r}")))


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray          # (N, 4n)
    tip_w: np.ndarray
    tip_theta: np.ndarray
    voltage: np.ndarray
    metrics: dict = field(default_factory=dict)


def _contract3(T, p):
    """sum_jkl T_ijkl p_j p_k p_l for a tensor T flattened to shape (n^3, n)."""
    n = p.size
    return T.dot(p).reshape(n * n, n).dot(p).reshape(n, n).dot(p)


def cubic_force(G1, p):
    """g_i = sum_jkl G1_ijkl p_j p_k p_l."""
    return _contract3(G1.reshape(-1, p.size), p)


def closed_loop(mats, omega, policy=None, disturbance=None):
    """The modal equations at base rotation omega under a voltage policy, as
    f(x, t) -> (x', v); the Omega-dependent operator is built once, here.

    Each call evaluates the equations once.  The policy is called as
    policy(x, t, a0), where a0 is the flexural acceleration at zero voltage
    without the disturbance (the drift a linearizing law cancels); a0 is a
    view that the call then completes in place, so the policy reads it and
    neither keeps nor writes it.  Its voltage v (0 without a policy) and the
    disturbance force are then added.  No finiteness check is made; a
    disturbance target outside 1..n raises ValueError here.
    """
    A, N, b = StateOperator.build(mats, omega).A, mats.N, mats.b
    n = mats.n
    flex = slice(2 * n, 3 * n)
    if disturbance is not None:
        if not 1 <= disturbance.target <= n:
            raise ValueError(f"Disturbance.target = {disturbance.target} is outside "
                             f"the model's flexural equations 1..{n}")
        column, force = mats.M1inv[:, disturbance.target - 1], disturbance.force

    def f(x, t):
        out = A.dot(x)
        acc = out[flex]
        acc -= _contract3(N, x[:n])
        v = policy(x, t, acc) if policy is not None else 0.0
        if v:
            acc += b * v
        if disturbance is not None:
            acc += column * force(t)
        return out, v
    return f


def rhs(x, t, v_p, mats, omega, disturbance=None):
    """Time derivative of the stacked state under piezo voltage v_p.

    Raises IntegrationBlowupError if the state or its derivative is not
    finite: a non-finite entry of x reaches every entry of A @ x.
    """
    out, _ = closed_loop(mats, omega, lambda xs, ts, a0: v_p, disturbance)(x, t)
    if not np.isfinite(out).all():
        raise IntegrationBlowupError(t)
    return out


def rk4_step(f, x, t, dt, k1=None):
    """One classical Runge-Kutta step of x' = f(x, t); k1 = f(x, t) when the
    caller has it already."""
    if k1 is None:
        k1 = f(x, t)
    k2 = f(x + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = f(x + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = f(x + dt * k3, t + dt)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


AVF_RTOL = 1e-12
AVF_MAX_ITER = 30
_GAUSS_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)


def avf_step(f, x, t, dt, k1=None):
    """One average-vector-field step of x = [y; y'], x' = f(x, t) = [y'; a];
    k1 = f(x, t) when the caller has it already.

    The velocity increment is dt times the 2-point Gauss average of a along
    the segment from x to the new state, and the positions follow as the
    trapezoid of the velocities (the AVF integral of y', which is linear).
    When f is the skew-gradient of an energy that is at most quartic, the
    Gauss rule is exact and the step conserves that energy (dissipates it
    under positive damping) up to the fixed-point tolerance; Quispel and
    McLaren, J. Phys. A 41 (2008) 045206.

    The implicit equations are solved by fixed-point iteration on the
    increment, starting from its second-order Taylor predictor, until no
    entry moves by more than AVF_RTOL of its state entry's size plus its
    increment; IntegrationBlowupError is raised if that takes more than
    AVF_MAX_ITER sweeps.
    """
    m = x.size // 2
    hdt = 0.5 * dt
    sa, sb = _GAUSS_NODES
    d = dt * (f(x, t) if k1 is None else k1)
    d[:m] += hdt * d[m:]
    dy = dt * x[m:]
    tol = AVF_RTOL * np.abs(x)
    for _ in range(AVF_MAX_ITER):
        dv = hdt * (f(x + sa * d, t + sa * dt)[m:] + f(x + sb * d, t + sb * dt)[m:])
        prev, d = d, np.concatenate((dy + hdt * dv, dv))
        if (np.abs(d - prev) <= tol + AVF_RTOL * np.abs(d)).all():
            return x + d
    raise IntegrationBlowupError(t + dt, "AVF fixed point not converged")


INTEGRATORS = {"rk4": rk4_step, "avf": avf_step}


def step(x, t, dt, mats, omega, policy=None, disturbance=None,
         integrator="rk4"):
    """One step of the named integrator; the voltage policy (x, t, a0) -> v
    is evaluated at every right-hand-side evaluation (see closed_loop)."""
    f = closed_loop(mats, omega, policy, disturbance)
    out = INTEGRATORS[integrator](lambda xs, ts: f(xs, ts)[0], x, t, dt)
    if not np.all(np.isfinite(out)):
        raise IntegrationBlowupError(t + dt)
    return out


def energy(x, mats):
    """Mechanical energy of the Omega-independent part of the model.

    Conserved along undamped, unforced trajectories at Omega = 0; the
    rigid-rotation and gyroscopic contributions are deliberately excluded.
    """
    n = mats.n
    p, q = x[:n], x[n:2 * n]
    pd, qd = x[2 * n:3 * n], x[3 * n:]
    quartic = 0.25 * np.einsum("ijkl,i,j,k,l->", mats.G1, p, p, p, p)
    return (0.5 * pd @ mats.M1 @ pd + 0.5 * qd @ mats.M2 @ qd
            + 0.5 * p @ mats.K1 @ p + 0.5 * q @ mats.K2 @ q + quartic)


def _settling_time(times, tip_w, period1):
    """Earliest time after which |tip_w| stays below 1% of its peak for at
    least five first-mode periods; None if never sustained."""
    peak = np.max(np.abs(tip_w))
    if peak == 0.0:
        return 0.0
    thr = 0.01 * peak
    above = np.abs(tip_w) >= thr
    if not above.any():
        t_last = times[0]
    else:
        t_last = times[np.nonzero(above)[0][-1]]
    if times[-1] - t_last >= 5.0 * period1:
        return float(t_last)
    return None


def compute_metrics(times, tip_w, voltage, period1):
    """Scalar summary metrics; recomputable from the CSV columns alone."""
    half = times >= 0.5 * times[-1] if times.size > 1 else slice(None)
    return {
        "settling_time_s": _settling_time(times, tip_w, period1),
        "peak_tip_m": float(np.max(np.abs(tip_w))),
        "rms_tip_after_transient_m": float(np.sqrt(np.mean(tip_w[half] ** 2))),
        "peak_voltage_V": float(np.max(np.abs(voltage))),
    }


def simulate(config, mats, basis, controller=None):
    """Fixed-step run with config.integrator; returns the sampled Trajectory
    with metrics.

    The controller is a voltage policy (x, t, a0) -> volts (see
    closed_loop).  The voltage logged at each sample is the one the first
    stage of the step from that sample used.
    """
    n = mats.n
    om_f, om_t = mats.natural_frequencies
    f_max = max(om_f[-1], om_t[-1]) / (2.0 * math.pi)
    if config.dt > 1.0 / (20.0 * f_max):
        raise ValueError(f"SimConfig.dt = {config.dt} too coarse for highest "
                         f"retained frequency {f_max:.1f} Hz (need dt <= {1.0 / (20.0 * f_max):.3g})")

    policy = None
    if config.controller_on:
        if controller is None:
            raise ValueError("controller_on set but no control policy supplied")
        policy = controller

    f = closed_loop(mats, config.Omega, policy, config.disturbance)
    advance = INTEGRATORS[config.integrator]

    def deriv(xs, ts):
        return f(xs, ts)[0]

    x = np.zeros(4 * n) if config.initial_state is None else \
        np.array(config.initial_state, dtype=float)
    if x.shape != (4 * n,):
        raise ValueError(f"SimConfig.initial_state has shape {x.shape}, "
                         f"need ({4 * n},) for [p; q; pdot; qdot]")
    nsteps = int(math.floor(config.t_final / config.dt + 1e-9))
    times = np.arange(nsteps + 1) * config.dt
    states = np.empty((nsteps + 1, 4 * n))
    voltage = np.empty(nsteps + 1)
    # overflow surfaces as IntegrationBlowupError, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(nsteps + 1):
            states[i] = x
            k1, voltage[i] = f(x, times[i])
            if not np.isfinite(k1).all():
                raise IntegrationBlowupError(times[i])
            if i < nsteps:
                x = advance(deriv, x, times[i], config.dt, k1=k1)
    phiL = basis.flexural_tip_values()
    psiL = basis.torsional_tip_values()
    tip_w = states[:, :n] @ phiL
    tip_theta = states[:, n:2 * n] @ psiL
    metrics = compute_metrics(times, tip_w, voltage, 2.0 * math.pi / om_f[0])
    return Trajectory(times=times, states=states, tip_w=tip_w,
                      tip_theta=tip_theta, voltage=voltage, metrics=metrics)
