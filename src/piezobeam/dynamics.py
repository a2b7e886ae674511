"""Right-hand side, time stepping and energy oracle for the modal equations.

The state is one flat vector x = [p; q; pdot; qdot] of length 4n, with p the
flexural and q the torsional modal coordinates; this is the layout of every
x below, of SimConfig.initial_state and of each row of Trajectory.states.

The modal equations read x' = A(Omega) x + E u, with u = [N(p, p, p); v; d]
the cubic force, the piezo voltage and the disturbance value.  closed_loop
evaluates them once per call for rhs, step and the AVF runs; simulate's RK4
runs step them through the stage maps of _rk4_stage_maps instead.
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
                      ("target", isinstance(self.target, (int, np.integer))
                       and not isinstance(self.target, bool) and self.target >= 1,
                       "an integer >= 1")))

    def force(self, t):
        """The force at time t, a float or an array of times."""
        return self.amplitude * np.sin(2.0 * math.pi * self.frequency * t)


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


def _modal_terms(mats, omega, disturbance):
    """The pieces of the modal equations that every kernel reads: the
    Omega-dependent operator A, the flattened cubic tensor N, the voltage
    column b = M1^-1 F1 and the disturbance column M1^-1 e_target (None
    without a disturbance).

    With them, x' = A x + [0; 0; -N(p, p, p) + b v + column d; 0].  A target
    outside the model's flexural equations 1..n raises ValueError.
    """
    column = None
    if disturbance is not None:
        if not 1 <= disturbance.target <= mats.n:
            raise ValueError(f"Disturbance.target = {disturbance.target} is outside "
                             f"the model's flexural equations 1..{mats.n}")
        column = mats.M1inv[:, disturbance.target - 1]
    return StateOperator.build(mats, omega).A, mats.N, mats.b, column


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
    A, N, b, column = _modal_terms(mats, omega, disturbance)
    n = mats.n
    flex = slice(2 * n, 3 * n)
    force = None if disturbance is None else disturbance.force

    def f(x, t):
        out = A.dot(x)
        acc = out[flex]
        acc -= _contract3(N, x[:n])
        v = policy(x, t, acc) if policy is not None else 0.0
        if v:
            acc += b * v
        if column is not None:
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


def rk4_step(f, x, t, dt):
    """One classical Runge-Kutta step of x' = f(x, t).

    The step is x + (dt/6)*(((k1 + 2 k2) + 2 k3) + k4), rounded in that
    order.  It writes into neither its arguments nor any array f returns, so
    f may return the same array on every call.
    """
    k1 = f(x, t)
    h = 0.5 * dt
    k2 = f(x + h * k1, t + h)
    k3 = f(x + h * k2, t + h)
    k4 = f(x + dt * k3, t + dt)
    s = k2 * 2.0
    s += k1
    s += k3 * 2.0
    s += k4
    s *= dt / 6.0
    s += x
    return s


_RK4_NODES = (0.0, 0.5, 0.5, 1.0)  # stage times, as fractions of the step
_RK4_WEIGHTS = np.array([1.0, 2.0, 2.0, 1.0]) / 6.0
_FORCE_BLOCK = 256  # steps per vectorised disturbance evaluation


def _rk4_stage_maps(A, N, b, column, dt):
    """Classical RK4 on x' = A x + E u as linear maps of one step's operand
    z = [x; u1; u2; u3; u4], where u_s = [N(p_s, p_s, p_s); v_s; d_s] holds
    stage s's cubic force, voltage and disturbance value, and E puts -I, b
    and the disturbance column into the flexural-acceleration rows.

    Returns (S, F).  S[s] (s = 0 .. 3) maps the prefix z[:d + s m] = [x; u1
    .. u_s], d = 4n and m = n + 2, to [y; A_flex y; N p] for the input y =
    [p; ...] of stage s + 1 (y = x for the first).  A_flex are the
    flexural-acceleration rows of A, so A_flex y - N(p, p, p) is the drift
    that stage hands the policy, and N p, N the flattened cubic tensor (n^3,
    n), is the first of the cubic force's three contractions.  F maps z to
    the step's new state.

    So a step, with the maps built once per run, is per stage one matvec
    with a prefix of z, the two remaining contractions, which write the
    cubic force into u_s, and one policy call, which writes v_s; the d_s of
    a block of steps come from one vectorised Disturbance.force call, and
    the new state is F z.
    """
    d = A.shape[0]
    n = d // 4
    m = n + 2
    flex = slice(2 * n, 3 * n)
    E = np.zeros((n, m))
    np.fill_diagonal(E, -1.0)
    E[:, n] = b
    if column is not None:
        E[:, n + 1] = column
    eye = np.eye(d, d + 4 * m)
    S = np.empty((4, d + n + N.shape[0], d + 4 * m))
    K = np.empty((4, d, d + 4 * m))  # k_s = A y_s + E u_s as maps of z
    y = eye  # y1 = x
    for s in range(4):
        S[s, :d] = y
        k = A.dot(y, out=K[s])
        S[s, d:d + n] = k[flex]
        N.dot(y[:n], out=S[s, d + n:])
        k[flex, d + s * m:d + (s + 1) * m] = E  # A y_s does not read u_s
        if s < 3:
            y = eye + (_RK4_NODES[s + 1] * dt) * k
    F = eye + dt * _RK4_WEIGHTS.dot(K.reshape(4, -1)).reshape(d, -1)
    return [np.ascontiguousarray(S[s, :, :d + s * m]) for s in range(4)], F


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


def _run_rk4(mats, config, policy, x, states, voltage):
    """Fill states and voltage with RK4 steps from x through the stage maps
    (see _rk4_stage_maps), in buffers made once per run; the logged voltage
    is the first stage's, closed_loop's at the logged state."""
    A, N, b, column = _modal_terms(mats, config.Omega, config.disturbance)
    dt = float(config.dt)
    S, F = _rk4_stage_maps(A, N, b, column, dt)
    n = mats.n
    d, m = 4 * n, n + 2
    z = np.zeros(d + 4 * m)
    z[:d] = states[0] = x
    x = z[:d]
    first = z[:d + m]  # [x; u1], all that k1 reads
    probe = np.zeros(d + m)  # probe . [x; u1] is 0 unless an entry is NaN or infinite
    forcing = z[d + n + 1::m]  # d_1 .. d_4
    offsets = np.array([c * dt for c in _RK4_NODES])
    contracted = np.empty(n * n)
    contracted_nn = contracted.reshape(n, n)
    W = np.empty((4, S[0].shape[0]))  # each stage's [y; A_flex y; N p]
    starts = range(d, d + 4 * m, m)  # of u1 .. u4 in z, so z[:u] is what S[s] reads
    stages = [(maps, z[:u], w, w[:d], w[:n], w[d:d + n], w[d + n:].reshape(n * n, n),
               z[u:u + n], u + n, c * dt, s == 0)
              for s, (maps, w, c, u) in enumerate(zip(S, W, _RK4_NODES, starts))]
    nsteps = states.shape[0] - 1
    for i in range(nsteps + 1):
        t = i * dt  # times[i] bit for bit, as a Python float
        if column is not None:
            j = i % _FORCE_BLOCK
            if j == 0:
                block = np.arange(i, min(i + _FORCE_BLOCK, nsteps + 1)) * dt
                values = config.disturbance.force(block[:, None] + offsets)
            forcing[...] = values[j]
        for maps, prefix, w, y, p, a0, Np, cubic, v_at, c, logged in stages:
            maps.dot(prefix, out=w)
            Np.dot(p, out=contracted)
            contracted_nn.dot(p, out=cubic)
            if policy is not None:
                a0 -= cubic
                z[v_at] = policy(y, t + c, a0)
            if logged:
                voltage[i] = z[v_at]
                if probe.dot(first) != 0.0:
                    raise IntegrationBlowupError(t)
                if i == nsteps:
                    return
        row = states[i + 1]
        F.dot(z, out=row)
        x[...] = row


def _run_avf(mats, config, policy, x, states, voltage):
    """Fill states and voltage with AVF steps from x, each right-hand side
    one closed_loop evaluation."""
    f = closed_loop(mats, config.Omega, policy, config.disturbance)

    def deriv(xs, ts):
        return f(xs, ts)[0]

    dt = float(config.dt)
    nsteps = states.shape[0] - 1
    for i in range(nsteps + 1):
        t = i * dt
        states[i] = x
        k1, voltage[i] = f(x, t)
        if not np.isfinite(k1).all():
            raise IntegrationBlowupError(t)
        if i < nsteps:
            x = avf_step(deriv, x, t, dt, k1=k1)


def simulate(config, mats, basis, controller=None):
    """Fixed-step run with config.integrator; returns the sampled Trajectory
    with metrics.

    The controller is a voltage policy (x, t, a0) -> volts (see
    closed_loop), supplied exactly when config.controller_on is set, and
    called once per stage.  The voltage logged at each sample is the one
    the first stage of the step from that sample used.
    """
    n = mats.n
    om_f, om_t = mats.natural_frequencies
    f_max = max(om_f[-1], om_t[-1]) / (2.0 * math.pi)
    if config.dt > 1.0 / (20.0 * f_max):
        raise ValueError(f"SimConfig.dt = {config.dt} too coarse for highest "
                         f"retained frequency {f_max:.1f} Hz (need dt <= {1.0 / (20.0 * f_max):.3g})")

    if config.controller_on != (controller is not None):
        raise ValueError("SimConfig.controller_on must be set exactly when a control "
                         "policy is supplied")

    x = np.zeros(4 * n) if config.initial_state is None else \
        np.array(config.initial_state, dtype=float)
    if x.shape != (4 * n,):
        raise ValueError(f"SimConfig.initial_state has shape {x.shape}, "
                         f"need ({4 * n},) for [p; q; pdot; qdot]")
    dt = float(config.dt)
    nsteps = int(math.floor(config.t_final / dt + 1e-9))
    times = np.arange(nsteps + 1) * dt
    states = np.empty((nsteps + 1, 4 * n))
    voltage = np.empty(nsteps + 1)
    run = _run_rk4 if config.integrator == "rk4" else _run_avf
    # overflow surfaces as IntegrationBlowupError, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        run(mats, config, controller, x, states, voltage)
    tip_w = states[:, :n] @ basis.flexural_tip_values()
    tip_theta = states[:, n:2 * n] @ basis.torsional_tip_values()
    metrics = compute_metrics(times, tip_w, voltage, 2.0 * math.pi / om_f[0])
    return Trajectory(times=times, states=states, tip_w=tip_w,
                      tip_theta=tip_theta, voltage=voltage, metrics=metrics)
