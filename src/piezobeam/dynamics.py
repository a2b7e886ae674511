"""Right-hand side, time stepping and energy oracle for the modal equations.

The state is one flat vector x = [p; q; pdot; qdot] of length 4n, with p the
flexural and q the torsional modal coordinates; this is the layout of every
x below, of SimConfig.initial_state and of each row of Trajectory.states.

The modal equations read x' = A(Omega) x + E u, with u = [N(p, p, p); v; d]
the cubic force, the piezo voltage and the disturbance value.  closed_loop
evaluates them once per call, calling the voltage policy; rhs, step and
every simulate run that calls a policy step it.  A simulate run under RK4
with no policy or with a control.VoltageLaw calls none: it steps the stage
maps of _rk4_stage_maps, with the law (without v_max, its closed loop)
folded into them.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import StateOperator
from .control import VoltageLaw, closed_loop_matrices


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


def _contract3_rows(T, P):
    """_contract3 at every row p of P, shape (samples, n)."""
    n = P.shape[1]
    TP = np.einsum("tak,tk->ta", P.dot(T.T).reshape(-1, n * n, n), P)
    return np.einsum("tak,tk->ta", TP.reshape(-1, n, n), P)


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


def rk4_step(f, x, t, dt, k1=None):
    """One classical Runge-Kutta step of x' = f(x, t); k1 = f(x, t) when
    the caller has it already, as simulate's step loop does.

    The step is x + (dt/6)*(((k1 + 2 k2) + 2 k3) + k4), rounded in that
    order.  It writes into neither its arguments nor any array f returns, so
    f may return the same array on every call.
    """
    k1 = f(x, t) if k1 is None else k1
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


def _rk4_stage_maps(A, N, E, dt, law=None):
    """Classical RK4 on x' = A x + [0; 0; E u; 0] as linear maps of one
    step's operand z = [x; u1; u2; u3; u4], where u_s = [N(p_s, p_s, p_s);
    v_s; d_s] holds stage s's cubic force, voltage and disturbance value,
    and E (n, n + 2) maps u into the flexural-acceleration rows: -I, b and
    the disturbance column for the open loop.

    Returns (S, F).  S[s] (s = 0 .. 3) maps the prefix z[:d + s m] = [x; u1
    .. u_s], d = 4n and m = n + 2, to [y; N p] for the input y = [p; ...] of
    stage s + 1 (y = x for the first); N p, N the flattened cubic tensor
    (n^3, n), is the first of the cubic force's three contractions.  F maps
    z to the step's new state.

    Given a control.VoltageLaw (g, c, beta), S[s] maps to [y; h; N' p]
    instead: h = -(g y + c A_flex y) / beta is the law's voltage row, A_flex
    the flexural-acceleration rows of A, and N' is N with its first index
    extended by the row (c / beta) N, so the two remaining contractions give
    [N(p, p, p); c N(p, p, p) / beta] and the unclipped voltage is h plus
    the last of these.  The maps read no other policy (see simulate); a law
    without v_max comes as its closed loop (A_cl, E_cl), with no law.

    So a step, with the maps built once per run, is per stage one matvec
    with a prefix of z and the two remaining contractions, which write the
    cubic force into u_s, and under a law one clipped scalar sum for v_s.
    The d_s of a block of steps come from one vectorised Disturbance.force
    call, and the new state is F z.
    """
    d = A.shape[0]
    n, m = E.shape
    flex = slice(2 * n, 3 * n)
    eye = np.eye(d, d + 4 * m)
    cubic = d if law is None else d + 1  # first row of the cubic block
    folded = cubic + N.shape[0]  # first row of the law's cubic rows, if any
    S = np.empty((4, folded + (0 if law is None else n * n), d + 4 * m))
    K = np.empty((4, d, d + 4 * m))  # k_s = A y_s + E u_s as maps of z
    y = eye  # y1 = x
    for s in range(4):
        S[s, :d] = y
        k = A.dot(y, out=K[s])
        Np = N.dot(y[:n], out=S[s, cubic:folded])
        if law is not None:
            h = law.g.dot(y, out=S[s, d])
            h += law.c.dot(k[flex])
            h /= -law.beta
            (law.c / law.beta).dot(Np.reshape(n, -1), out=S[s, folded:].reshape(-1))
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
    k1 = f(x, t) when the caller has it already, as simulate's step loop does.

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


def _run_rk4(mats, config, law, x, states, voltage):
    """Fill states and voltage with RK4 steps from x through the stage maps
    (see _rk4_stage_maps), in buffers made once per run; law is None or a
    control.VoltageLaw, folded into the maps and never called.  The logged
    voltage is the first stage's, closed_loop's at the logged state; without
    v_max the maps step the law's closed loop (control.closed_loop_matrices),
    and its voltage h x + c N(p, p, p) / beta is filled after the last step."""
    A, N, b, column = _modal_terms(mats, config.Omega, config.disturbance)
    dt = float(config.dt)
    n = mats.n
    d, m = 4 * n, n + 2
    E = np.column_stack((-np.eye(n), b, np.zeros(n) if column is None else column))
    unclipped = law is not None and law.v_max is None
    if unclipped:  # linear feedback: the maps step its closed loop, with no law
        h, A, E[:, :n] = closed_loop_matrices(A, b, law)
        c_beta, law = law.c / law.beta, None
    S, F = _rk4_stage_maps(A, N, E, dt, law)
    r = 0 if law is None else 1  # rows of the law's h
    q = n + r  # N(p, p, p), and c N(p, p, p) / beta
    v_max = math.inf if law is None else law.v_max
    z = np.zeros(d + 4 * m)
    z[:d] = states[0] = x
    x = z[:d]
    first = z[:d + m]  # [x; u1], all that k1 reads
    probe = np.zeros(d + m)  # probe . [x; u1] is 0 unless an entry is NaN or infinite
    forcing = z[d + n + 1::m]  # d_1 .. d_4
    offsets = np.array([c * dt for c in _RK4_NODES])
    contracted = np.empty(q * n)
    contracted_nn = contracted.reshape(q, n)
    W = np.empty((4, S[0].shape[0]))  # each stage's [y; h if a law; N p]
    starts = range(d, d + 4 * m, m)  # of u1 .. u4 in z, so z[:u] is what S[s] reads
    stages = [(maps, z[:u], w, w[:n], w[d + r:].reshape(q * n, n), z[u:u + q], u + n, s == 0)
              for s, (maps, w, u) in enumerate(zip(S, W, starts))]
    nsteps = states.shape[0] - 1
    for i in range(nsteps + 1):
        if column is not None:
            j = i % _FORCE_BLOCK
            if j == 0:
                block = np.arange(i, min(i + _FORCE_BLOCK, nsteps + 1)) * dt
                values = config.disturbance.force(block[:, None] + offsets)
            forcing[...] = values[j]
        for maps, prefix, w, p, Np, cubic, v_at, logged in stages:
            maps.dot(prefix, out=w)
            Np.dot(p, out=contracted)
            contracted_nn.dot(p, out=cubic)
            if law is not None:  # z[v_at] holds c N(p, p, p) / beta
                z[v_at] = min(max(w[d] + z[v_at], -v_max), v_max)
            if logged:
                voltage[i] = z[v_at]
                if probe.dot(first) != 0.0:
                    raise IntegrationBlowupError(i * dt)
                if i == nsteps:
                    break
        else:  # the last sample breaks out before this step
            row = states[i + 1]
            F.dot(z, out=row)
            x[...] = row
    if unclipped:
        voltage[...] = states.dot(h) + _contract3_rows(N, states[:, :n]).dot(c_beta)


def _run_called(mats, config, policy, x, states, voltage):
    """Fill states and voltage with the step loop from x: config.integrator
    steps one closed_loop, whose evaluation at each sample gives the logged
    voltage and the step's k1."""
    f = closed_loop(mats, config.Omega, policy, config.disturbance)

    def deriv(xs, ts):
        return f(xs, ts)[0]

    advance = INTEGRATORS[config.integrator]
    dt = float(config.dt)
    nsteps = states.shape[0] - 1
    for i in range(nsteps + 1):
        t = i * dt
        states[i] = x
        k1, voltage[i] = f(x, t)
        if not np.isfinite(k1).all():
            raise IntegrationBlowupError(t)
        if i < nsteps:
            x = advance(deriv, x, t, dt, k1=k1)


def simulate(config, mats, basis, controller=None):
    """Fixed-step run with config.integrator; returns the sampled Trajectory
    with metrics.

    The controller is a voltage policy (x, t, a0) -> volts (see
    closed_loop), supplied exactly when config.controller_on is set.  An RK4
    run folds a control.VoltageLaw (without v_max, its closed loop) into its
    stage maps; any other callable, and every AVF run, takes the step loop,
    which calls the policy at every right-hand side (4 nsteps + 1 times under
    RK4).  The voltage logged at each sample is the policy's at that sample.
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
    folded = controller is None or isinstance(controller, VoltageLaw)
    run = _run_rk4 if folded and config.integrator == "rk4" else _run_called
    # overflow surfaces as IntegrationBlowupError, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        run(mats, config, controller, x, states, voltage)
    tip_w = states[:, :n] @ basis.flexural_tip_values()
    tip_theta = states[:, n:2 * n] @ basis.torsional_tip_values()
    metrics = compute_metrics(times, tip_w, voltage, 2.0 * math.pi / om_f[0])
    return Trajectory(times=times, states=states, tip_w=tip_w,
                      tip_theta=tip_theta, voltage=voltage, metrics=metrics)
