"""Right-hand side, time stepping and energy oracle for the modal equations.

The state is one flat vector x = [p; q; pdot; qdot] of length 4n, with p the
flexural and q the torsional modal coordinates; this is the layout of every
x below, of SimConfig.initial_state and of each row of Trajectory.states.

The modal equations read x' = A(Omega) x + E u, with u = [(lattice p)^3; v;
d]: the cubes of fixed linear forms of p, which E's first block combines
into the cubic force, the piezo voltage and the disturbance value (see
assembly.StateOperator).  closed_loop evaluates them once per call, calling
the voltage policy; rhs, step and every simulate run that calls a policy
step it.  A simulate run under RK4 with no policy or with a
control.VoltageLaw calls none outside the steps named below: _run_rk4
steps the stage maps of _rk4_stage_maps on A or on the law's closed loop:
10 numpy calls a step at few modes, where the maps apply the cubic force
(one matvec and one power per stage), and 14 at more (see _run_rk4);
assembly.StateOperator.build forms both, with E.  A law with v_max is
stepped in the same loop, at every mode count, on one set of stage maps per
saturation regime (its closed loop, or the open loop with the voltage at
+v_max or -v_max), with one more matvec that reads out the four stage
demands; a step whose demands leave its regime is the law's own RK4 step on
closed_loop, which calls it.
"""

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .assembly import StateOperator, check
from .control import VoltageLaw


class IntegrationBlowupError(RuntimeError):
    def __init__(self, t, reason="non-finite state"):
        super().__init__(f"{reason} at t = {t:.6g} s")
        self.t = t


@dataclass(frozen=True)
class Disturbance:
    """Additive harmonic generalized force on one flexural modal equation."""

    amplitude: float
    frequency: float  # Hz
    target: int       # 1-based flexural equation index

    def __post_init__(self):
        check(self, (("amplitude", 0 <= self.amplitude < math.inf, "must be finite and >= 0"),
                     ("frequency", 0 < self.frequency < math.inf, "must be finite and > 0"),
                     ("target", isinstance(self.target, (int, np.integer))
                      and not isinstance(self.target, bool) and self.target >= 1,
                      "must be an integer >= 1")))

    def force(self, t):
        """The force at time t, a float or an array of times."""
        return self.amplitude * np.sin(2.0 * math.pi * self.frequency * t)


_MAX_STEPS = np.iinfo(np.intp).max  # the nsteps + 1 samples must be indexable


@dataclass(frozen=True)
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
        check(self, (("Omega", math.isfinite(self.Omega), "must be finite"),
                     ("dt", 0 < self.dt < math.inf, "must be finite and > 0"),
                     ("t_final", 0 <= self.t_final < math.inf, "must be finite and >= 0"),
                     ("integrator", self.integrator in INTEGRATORS,
                      f"must be one of {sorted(INTEGRATORS)}, got {self.integrator!r}")))
        steps = self.t_final / self.dt  # dt > 0 holds from here on
        check(self, (("t_final", steps < _MAX_STEPS, f"must be below {_MAX_STEPS} steps "
                      f"of dt, got t_final / dt = {steps:.6g}"),))

    @property
    def nsteps(self):
        """Steps of the run: t_final / dt, rounded down unless within 1e-9 of
        the next integer."""
        return math.floor(self.t_final / self.dt + 1e-9)


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray          # (N, 4n)
    tip_w: np.ndarray
    tip_theta: np.ndarray
    voltage: np.ndarray
    metrics: dict = field(default_factory=dict)


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
    n = mats.n
    op = StateOperator.build(mats, omega, disturbance)
    A, cubes, b = op.A, op.cubes, mats.b
    cubic, column = op.E[:, :-2], op.E[:, -1]
    flex = slice(2 * n, 3 * n)
    force = None if disturbance is None else disturbance.force

    def f(x, t):
        out = A.dot(x)
        acc = out[flex]
        acc += cubic.dot(cubes(x[:n]))
        v = policy(x, t, acc) if policy is not None else 0.0
        if v:
            acc += b * v
        if force is not None:
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


_RK4_NODES = np.array([0.0, 0.5, 0.5, 1.0])  # stage times, as fractions of the step
_RK4_WEIGHTS = np.array([1.0, 2.0, 2.0, 1.0]) / 6.0
_FORCE_BLOCK = 256  # samples per vectorised disturbance evaluation


def _rk4_stage_maps(A, lattice, E, dt, readout=None):
    """Classical RK4 on x' = A x + [0; 0; E [u; d]; 0] as linear maps of one
    step's operand z = [x; d1 .. d4; u1 .. u4], where d_s is stage s's
    disturbance value and u_s the rest of its input, m entries that end in
    its voltage v_s, and E (n, m + 1) maps [u_s; d_s] into the
    flexural-acceleration rows.

    Returns (S, F, D).  S[s] (s = 0 .. 3) maps the prefix z[:4n + 4 + s m] =
    [x; d1 .. d4; u1 .. u_s] to lattice p, the (R, n) lattice's linear forms
    of the flexural coordinates p of stage s + 1's input y (x for the first).
    F maps z to the step's new state.  Given the readout (rho, h), a row on
    the head of each u_s and one of length 4n, D (4, len z) maps z to the
    four stage demands h y_s + rho u_s, which do not read v_s: the law's rho
    on u_s = [(lattice p_s)^3; v_s], or a unit row on the entry of u_s that
    holds rho (lattice p_s)^3.  Without one D is None.  _run_rk4 steps the
    maps.
    """
    d = A.shape[0]
    n, m = E.shape[0], E.shape[1] - 1  # m entries of u_s
    flex = slice(2 * n, 3 * n)
    eye = np.eye(d, d + 4 + 4 * m)
    K = np.empty((4, d, eye.shape[1]))  # k_s = A y_s + E [u_s; d_s] as maps of z
    D = None if readout is None else np.empty((4, eye.shape[1]))
    E_u, E_d = E[:, :m], E[:, m]
    nodes = (_RK4_NODES * dt).tolist()
    S = []
    y = eye  # y1 = x
    for s, k in enumerate(K):
        u = d + 4 + s * m  # z[:u] is what stage s + 1 reads
        S.append(lattice.dot(y[:n, :u]))
        if D is not None:
            rho, h = readout
            D[s] = h.dot(y)
            D[s, u:u + rho.size] += rho  # the cubes at the head of u_s
        A.dot(y, k)
        k[flex, u:u + m] = E_u  # A y_s does not read u_s or d_s
        k[flex, d + s] = E_d
        if s < 3:
            y = eye + nodes[s + 1] * k
    F = eye + dt * _RK4_WEIGHTS.dot(K.reshape(4, -1)).reshape(d, -1)
    return S, F, D


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


def _settling_time(times, abs_w, peak, period1):
    """Earliest time after which |tip_w| (abs_w, of maximum peak) stays below
    1% of its peak for at least five first-mode periods; None if never
    sustained."""
    if peak == 0.0:
        return 0.0
    above = (abs_w >= 0.01 * peak).nonzero()[0]
    t_last = times[above[-1]] if above.size else times[0]
    if times[-1] - t_last >= 5.0 * period1:
        return float(t_last)
    return None


def compute_metrics(times, tip_w, voltage, period1):
    """Scalar summary metrics; recomputable from the CSV columns alone."""
    half = times >= 0.5 * times[-1] if times.size > 1 else slice(None)
    abs_w = np.abs(tip_w)
    peak = np.maximum.reduce(abs_w)
    squares = tip_w[half] ** 2
    return {
        "settling_time_s": _settling_time(times, abs_w, peak, period1),
        "peak_tip_m": float(peak),
        "rms_tip_after_transient_m": math.sqrt(np.add.reduce(squares) / squares.size),
        "peak_voltage_V": float(np.maximum.reduce(np.abs(voltage))),
    }


def _fails(row, op, clipped):
    """Whether a sample row [x; d1 .. d4] of _run_rk4 on the StateOperator op
    fails: x, d1 or the cubic force E's cubic block makes of (lattice p)^3
    is not finite, or, under an unclipped law, its demand (see
    StateOperator.demand); a clipped law's voltage stays finite."""
    x = row[:-4]
    cubes = op.cubes(x[:x.size // 4])
    force = op.E[:, :cubes.size].dot(cubes)
    demand = 0.0 if clipped or op.readout is None else op.demand(x, cubes)
    return not (np.isfinite(row[:-3]).all() and np.isfinite(force).all() and math.isfinite(demand))


# Modes up to which a stage writes its cubes straight into z, for E's cubic
# block to apply them within the maps.  Each map then has R = C(n + 2, 3) rows
# and up to about 3 R columns, so its cost grows as R^2; above, a stage applies
# the block with one more matvec, and the maps' columns grow as n only.
# Measured on 2 cores (Python 3.11.7, numpy 2.4.6), us per step of an
# uncontrolled disturbance run at the dt guard's limit, best of 7, folded
# against unfolded, two sweeps: n = 4: 6.4-6.9 against 7.9-8.2; 5: 8.9-9.5
# against 9.4-9.7; 6: 12.8-13.2 against 11.4-12.0; 8: 31-33 against 20-21.
_FOLDED_MAX_MODES = 5


def _run_rk4(mats, config, law, x, states, voltage):
    """Fill states and voltage with RK4 steps from x through the stage maps
    of _rk4_stage_maps, on the operand z = [x; d1 .. d4; u1 .. u4]; law is
    None or a control.VoltageLaw, which is called only in a step that
    leaves its saturation regime.

    The cubic force is E's cubic block applied to (lattice p)^3 (see
    assembly.StateOperator).  Up to _FOLDED_MAX_MODES modes u_s = [(lattice
    p_s)^3; v_s], and E is the loop's: a stage is one matvec with a prefix
    of z, which gives lattice p_s, and one float_power, which writes its
    cubes into u_s, so a step is 10 numpy calls with F z and one copy.
    Above, the maps' E has I for its cubic block, and u_s = [C (lattice
    p_s)^3; v_s] with C the loop's cubic block: the cubes are raised in
    place and one more matvec writes u_s, 14 calls a step.  Under a clipped
    law C has rho for one more row and the maps' E a zero column for it, so
    u_s = [C (lattice p_s)^3; rho (lattice p_s)^3; v_s] and D reads that
    entry through the readout (e, h), e its unit row.  Samples are kept as
    rows [x_i; d_i1 .. d_i4] of a buffer of _FORCE_BLOCK + 1 rows, whose
    disturbance values come from one Disturbance.force call per block;
    copying a row into z's head sets both the state and the forcing of a
    step, and F z writes x_i+1 into the next row.  The rows go to states
    once per block, after one check of its last sample before a non-finite
    state, or of its end: a failing sample (see _fails) makes the next state
    not finite, so IntegrationBlowupError is raised there if it fails, else
    at the next.  That is where _run_called raises.

    A law is stepped as its closed loop (A, E) of
    assembly.StateOperator.build.  With v_max, between switches the loop is
    one of three fixed linear systems, each a set of stage maps: the closed
    loop with every voltage entry of z at 0, or the open loop (A, E of the
    operator without the law) with every voltage entry at +v_max or at
    -v_max.  Their D reads out the four stage demands (see
    StateOperator.demand) after the stages, before F.  enter(x) enters the
    regime of sample x's demand: +1 or -1 for a finite demand beyond +v_max
    or -v_max, else 0, so a non-finite demand never counts as saturated; a
    run without v_max has the one regime 0, op's own loop, and no D.  A step
    runs in the regime of its first sample, or of the step before it, and
    is kept if its four demands are finite and in that regime.  Otherwise
    it is the law's own rk4_step on one closed_loop, built the first time a
    run needs it, and the next step enters the regime of the new sample.
    Each set of maps is built the first time a step needs it.  The voltage
    is filled after the last step, _FORCE_BLOCK samples at a time, as the
    clipped demand; without a law it is 0.
    """
    op = StateOperator.build(mats, config.Omega, config.disturbance, law)
    dt = float(config.dt)
    n = mats.n
    R = op.lattice.shape[0]
    d = 4 * n
    v_max = None if law is None else law.v_max
    readout = None if v_max is None else op.readout
    folded = n <= _FOLDED_MAX_MODES
    E = op.E
    if not folded:  # u_s = [cubic force; v_s]
        E = np.hstack((np.eye(n), op.E[:, R:]))
        if readout is not None:  # u_s = [cubic force; rho (lattice p_s)^3; v_s]
            E = np.insert(E, n, 0.0, axis=1)
            readout = (np.eye(n + 1)[n], readout[1])
    m = E.shape[1] - 1  # entries of u_s, the last its voltage
    power, three = np.float_power, np.array(3.0)  # a Python 3 costs ~0.8 us more
    z = np.zeros(d + 4 + 4 * m)
    head = z[:d + 4]
    volts = z[d + 3 + m::m]  # the voltage entries of u1 .. u4
    heads = [z[a:a + m - 1] for a in range(d + 4, z.size, m)]  # u1 .. u4 but v_s
    forms, demands = np.empty(R), np.empty(4)
    big = sys.float_info.max
    # regime: the lowest and highest demand it keeps, and its voltage entries
    bounds = {0: (-big, big, 0.0)} if v_max is None else \
        {0: (-v_max, v_max, 0.0), 1: (math.nextafter(v_max, math.inf), big, v_max),
         -1: (-big, math.nextafter(-v_max, -math.inf), -v_max)}
    built = {}  # the closed (False) and open (True) loop's stages, D and F.dot

    def enter(x):
        r = 0
        if v_max is not None:
            v = float(op.demand(x))
            r = (v > v_max) - (v < -v_max) if math.isfinite(v) else 0
        if bool(r) not in built:
            loop = StateOperator.build(mats, config.Omega, config.disturbance) if r else op
            # unfolded, apply writes the head of u_s from the cubes, from a
            # contiguous matrix, whose dot costs ~1 us less than a view's
            apply = None if folded else (loop.E[:, :R].copy() if readout is None else
                                         np.vstack((loop.E[:, :R], op.readout[0]))).dot
            S, F, D = _rk4_stage_maps(loop.A, op.lattice, loop.E if folded else E, dt, readout)
            # per stage: its map's dot, the prefix of z it reads, where its
            # cubes go, apply and the head of u_s
            stages = [(maps.dot, z[:a], out if apply is None else forms, apply, out)
                      for maps, a, out in zip(S, range(d + 4, z.size, m), heads)]
            built[bool(r)] = stages, D, F.dot
        lo, hi, volts[...] = bounds[r]
        return built[bool(r)] + (lo, hi)

    f = None  # the law's closed_loop, for a step that leaves its regime
    nsteps = states.shape[0] - 1
    if nsteps:
        stages, D, advance, lo, hi = enter(x)
    rows = np.zeros((min(nsteps, _FORCE_BLOCK) + 1, d + 4))
    rows[0, :d] = states[0] = x
    for start in range(0, max(nsteps, 1), _FORCE_BLOCK):
        stop = min(start + _FORCE_BLOCK, nsteps)  # steps start .. stop - 1
        if config.disturbance is not None:
            times = np.add.outer(np.arange(start, stop + 1) * dt, _RK4_NODES * dt)
            rows[:stop - start + 1, d:] = config.disturbance.force(times)
        block = rows[1:stop - start + 1]
        # each call's out goes by position: as a keyword it costs ~0.2 us more
        for i, row, new_x in zip(range(start, stop), rows, block[:, :d]):
            head[...] = row
            for forms_of, prefix, cubes, apply, out in stages:
                forms_of(prefix, forms)
                power(forms, three, cubes)
                if apply is not None:
                    apply(forms, out)
            if D is not None:
                D.dot(z, demands)
                # four chained compares: ~0.3 us, where numpy's min and max take ~2 us
                a, b, c, e = demands.tolist()
                if not (lo <= a <= hi and lo <= b <= hi and lo <= c <= hi and lo <= e <= hi):
                    if f is None:
                        f = closed_loop(mats, config.Omega, law, config.disturbance)
                    new_x[...] = rk4_step(lambda xs, ts: f(xs, ts)[0], z[:d], i * dt, dt)
                    stages, D, advance, lo, hi = enter(new_x)
                    continue
            advance(z, new_x)
        # rows[k]: the last sample before a non-finite state, or the block's end
        k = int(np.logical_and.accumulate(np.isfinite(block[:, :d]).all(axis=1)).sum())
        fails = _fails(rows[k], op, v_max is not None)
        if fails or k < stop - start:
            raise IntegrationBlowupError((start + k + (not fails)) * dt)
        states[start + 1:stop + 1] = block[:, :d]
        rows[0] = rows[stop - start]  # the next block's first sample
    if law is None:
        voltage[...] = 0.0
    else:  # a block at a time, which bounds the cubes' temporaries
        for start in range(0, nsteps + 1, _FORCE_BLOCK):
            voltage[start:start + _FORCE_BLOCK] = op.demand(states[start:start + _FORCE_BLOCK])
    if v_max is not None:
        np.clip(voltage, -v_max, v_max, out=voltage)


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
    run steps no policy or a control.VoltageLaw in one loop on stage maps
    (see _run_rk4): a law as its closed loop, a clipped one as its closed
    or open loop by saturation regime, whose four stage demands one more
    matvec reads, and a step that leaves its regime as the law's own RK4
    step.  Any other callable and every AVF run take the step loop, which
    calls the policy at every right-hand side (4 nsteps + 1 times under
    RK4).  The voltage logged at each sample is the policy's at that
    sample.  Either loop raises IntegrationBlowupError at the first sample
    whose right-hand side is not finite.
    """
    n = mats.n
    om_f, om_t = mats.natural_frequencies
    f_max = max(om_f[-1], om_t[-1]) / (2.0 * math.pi)
    dt_max = 1.0 / (20.0 * f_max)
    check(config, (("dt", config.dt <= dt_max, f"{config.dt} too coarse for highest "
                    f"retained frequency {f_max:.1f} Hz (need dt <= {dt_max:.3g})"),))

    if config.controller_on != (controller is not None):
        raise ValueError("SimConfig.controller_on must be set exactly when a control "
                         "policy is supplied")

    x = np.zeros(4 * n) if config.initial_state is None else \
        np.array(config.initial_state, dtype=float)
    if x.shape != (4 * n,):
        raise ValueError(f"SimConfig.initial_state has shape {x.shape}, "
                         f"need ({4 * n},) for [p; q; pdot; qdot]")
    dt = float(config.dt)
    nsteps = config.nsteps
    times = np.arange(nsteps + 1) * dt
    states = np.empty((nsteps + 1, 4 * n))
    voltage = np.empty(nsteps + 1)
    on_maps = controller is None or isinstance(controller, VoltageLaw)
    run = _run_rk4 if on_maps and config.integrator == "rk4" else _run_called
    # overflow surfaces as IntegrationBlowupError, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        run(mats, config, controller, x, states, voltage)
    tip_w = states[:, :n] @ basis.flexural_tip_values()
    tip_theta = states[:, n:2 * n] @ basis.torsional_tip_values()
    metrics = compute_metrics(times, tip_w, voltage, 2.0 * math.pi / om_f[0])
    return Trajectory(times=times, states=states, tip_w=tip_w,
                      tip_theta=tip_theta, voltage=voltage, metrics=metrics)
