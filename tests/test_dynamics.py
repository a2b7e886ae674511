import dataclasses
import math
import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

from piezobeam import (BeamSpec, ControllerConfig, Disturbance,
                       IntegrationBlowupError, ModalBasis, PiezoSpec, SimConfig,
                       assemble, avf_step, closed_loop, design_gains, energy,
                       linear_frequencies, make_policy,
                       rhs, rk4_step, simulate, step)
from piezobeam.assembly import StateOperator


def tip_release_state(basis, tip_w0=5e-3):
    """[p; q; pdot; qdot] at rest with the tip deflected by tip_w0 in mode 1."""
    x = np.zeros(4 * basis.n)
    x[0] = tip_w0 / basis.flexural_tip_values()[0]
    return x


def kernel_cubic_force(mats, p):
    """G1(p, p, p) as the kernel applies it: at rest and Omega = 0 the
    flexural acceleration a of rhs solves M1 a = -(K1 p + G1(p, p, p))."""
    n = mats.n
    x = np.zeros(4 * n)
    x[:n] = p
    acc = rhs(x, 0.0, 0.0, mats, 0.0)[2 * n:3 * n]
    return -(mats.M1 @ acc + mats.K1 @ p)


class TestCubicForce:
    def test_zero(self, mats):
        assert np.all(kernel_cubic_force(mats, np.zeros(2)) == 0.0)

    def test_odd(self, mats):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.normal(scale=1e-3, size=2)
            assert_allclose(kernel_cubic_force(mats, -p), -kernel_cubic_force(mats, p),
                            rtol=1e-12)

    def test_n1_direct_expansion(self, beam, piezo):
        basis = ModalBasis.build(1, beam.L)
        m = assemble(beam, piezo, basis)
        p = np.array([1.7e-3])
        assert_allclose(kernel_cubic_force(m, p)[0], m.G1[0, 0, 0, 0] * p[0] ** 3,
                        rtol=1e-14)


class TestRhs:
    def test_equilibrium(self, mats):
        x = np.zeros(8)
        assert np.all(rhs(x, 0.0, 0.0, mats, 20.0) == 0.0)

    def test_no_torsion_without_spin(self, mats):
        x = np.zeros(8)
        x[0], x[4] = 1e-3, 0.05  # flexural-only state
        dx = rhs(x, 0.0, 0.0, mats, 0.0)
        assert np.all(dx[6:8] == 0.0)  # torsional accelerations

    def test_nonfinite_state_raises(self, mats):
        # one finiteness check on the output catches a bad entry anywhere in
        # x, including entries whose coupling coefficients are zero at Omega=0
        for i in range(8):
            for bad in (np.nan, np.inf, -np.inf):
                x = np.zeros(8)
                x[i] = bad
                with pytest.raises(IntegrationBlowupError) as info, \
                        np.errstate(invalid="ignore"):
                    rhs(x, 0.3, 0.0, mats, 0.0)
                assert info.value.t == 0.3

    def test_n1_hand_expansion(self, beam, piezo):
        basis = ModalBasis.build(1, beam.L)
        m = assemble(beam, piezo, basis)
        rng = np.random.default_rng(3)
        omega, v = 20.0, 37.5
        dist = Disturbance(amplitude=0.002, frequency=24.0, target=1)
        for _ in range(10):
            p, q, pd, qd = rng.normal(scale=1e-3, size=4)
            t = rng.uniform(0, 1)
            x = np.array([p, q, pd, qd])
            got = rhs(x, t, v, m, omega, dist)
            d = dist.amplitude * np.sin(2 * np.pi * dist.frequency * t)
            pdd = (m.F1[0] * v + d - m.CB[0, 0] * pd - omega * m.C1[0, 0] * qd
                   - (m.K1[0, 0] + omega ** 2 * m.D1[0, 0]) * p
                   - m.G1[0, 0, 0, 0] * p ** 3) / m.M1[0, 0]
            qdd = (-m.CT[0, 0] * qd - omega * m.C2[0, 0] * pd
                   - m.K2[0, 0] * q) / m.M2[0, 0]
            assert_allclose(got, [pd, qd, pdd, qdd], rtol=1e-12)


    def test_n2_matches_direct_solve(self, mats):
        # couplings between modes: the mass-scaled operator against solving
        # the modal equations as written, term by term
        m = mats
        rng = np.random.default_rng(7)
        omega, v = 20.0, -12.0
        dist = Disturbance(amplitude=0.003, frequency=24.0, target=2)
        for _ in range(10):
            x = rng.normal(scale=1e-3, size=8)
            p, q, pd, qd = x[:2], x[2:4], x[4:6], x[6:]
            t = rng.uniform(0, 1)
            h1 = (m.F1 * v - m.CB @ pd - omega * m.C1 @ qd
                  - (m.K1 + omega ** 2 * m.D1) @ p
                  - np.einsum("ijkl,j,k,l->i", m.G1, p, p, p))
            h1[1] += dist.force(t)
            h2 = -m.CT @ qd - omega * m.C2 @ pd - m.K2 @ q
            expected = np.concatenate([pd, qd, np.linalg.solve(m.M1, h1),
                                       np.linalg.solve(m.M2, h2)])
            got = rhs(x, t, v, m, omega, dist)
            assert_allclose(got, expected, rtol=1e-12)


class TestStep:
    def test_scalar_rk4_order(self):
        # x' = -x: local error O(dt^5) observed under step halving
        errs = []
        for dt in (0.1, 0.05):
            x = rk4_step(lambda x, t: -x, np.array([1.0]), 0.0, dt)
            errs.append(abs(x[0] - np.exp(-dt)))
        assert 25 < errs[0] / errs[1] < 40   # ~2^5

    def test_rk4_writes_into_nothing_it_is_given(self):
        # f returns one shared array on every call: a step that scaled or
        # summed a stage in place would change it, and every later stage
        dt, t = 1e-3, 0.25
        x = np.array([1.0, -2.0, 0.5, 3.0])
        shared = np.array([0.3, -1.1, 2.0, -0.7])
        held = [a.copy() for a in (x, shared)]
        out = rk4_step(lambda xs, ts: shared, x, t, dt)
        assert all(np.array_equal(a, b) for a, b in zip((x, shared), held))
        assert not any(out is a for a in (x, shared))
        s = shared
        assert np.array_equal(out, x + (dt / 6.0) * (s + 2.0 * s + 2.0 * s + s))

        # fresh stages: the result is the out-of-place formula bit for bit
        stages = []

        def f(xs, ts):
            k = np.array([xs[1], -xs[0] * ts, xs[3] ** 2, -xs[2]])
            stages.append(k.copy())
            return k

        out = rk4_step(f, x, t, dt)
        k1, k2, k3, k4 = stages
        assert np.array_equal(out, x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))

    def test_zero_dynamics(self, mats):
        x = np.zeros(8)
        out = step(x, 0.0, 1e-4, mats, 20.0)
        assert np.all(out == 0.0)

    def test_oscillator_energy_drift(self):
        # undamped unit oscillator, 1e4 steps
        x = np.array([1.0, 0.0])
        f = lambda x, t: np.array([x[1], -x[0]])
        dt = 2 * np.pi / 1000.0
        for i in range(10000):
            x = rk4_step(f, x, i * dt, dt)
        E = 0.5 * (x[0] ** 2 + x[1] ** 2)
        assert abs(E - 0.5) / 0.5 < 1e-8

    def test_global_order_on_full_system(self, mats, basis2):
        ic = tip_release_state(basis2)

        def run(dt, t_end=4e-3):
            x = ic.copy()
            n = int(round(t_end / dt))
            for i in range(n):
                x = step(x, i * dt, dt, mats, 20.0)
            return x

        ref = run(2.5e-6)
        e1 = np.linalg.norm(run(2e-5) - ref)
        e2 = np.linalg.norm(run(1e-5) - ref)
        assert 10 < e1 / e2 < 22


class TestAvfStep:
    def test_global_order_on_full_system(self, mats, basis2):
        # damped, spinning n = 2 system against a fine RK4 reference
        ic = tip_release_state(basis2)

        def run(dt, integrator, t_end=4e-3):
            x = ic.copy()
            for i in range(int(round(t_end / dt))):
                x = step(x, i * dt, dt, mats, 20.0, integrator=integrator)
            return x

        ref = run(2.5e-6, "rk4")
        e1 = np.linalg.norm(run(2e-5, "avf") - ref)
        e2 = np.linalg.norm(run(1e-5, "avf") - ref)
        assert 3.6 < e1 / e2 < 4.4   # ~2^2

    def test_oscillator_energy_round_off(self):
        # same undamped unit oscillator RK4 holds only to 1e-8
        x = np.array([1.0, 0.0])
        f = lambda x, t: np.array([x[1], -x[0]])
        dt = 2 * np.pi / 1000.0
        E = np.empty(10000)
        for i in range(E.size):
            x = avf_step(f, x, i * dt, dt)
            E[i] = 0.5 * (x[0] ** 2 + x[1] ** 2)
        assert np.max(np.abs(E - 0.5)) / 0.5 < 1e-13

    def test_energy_nonincreasing_with_damping(self, mats, basis2):
        ic = tip_release_state(basis2)
        tr = simulate(SimConfig(Omega=0.0, dt=2e-5, t_final=0.2,
                                initial_state=ic, integrator="avf"),
                      mats, basis2)
        E = np.array([energy(s, mats) for s in tr.states])
        # every step, up to the round-off of evaluating E
        assert np.all(np.diff(E) <= 1e-14 * E[0])
        assert E[-1] < 0.5 * E[0]

    def test_broken_index_symmetry_drifts(self, mats_undamped, basis2):
        # cubic forces that are not the gradient of energy()'s quartic term
        # must show up as drift: the scheme itself never evaluates energy()
        G1 = mats_undamped.G1.copy()
        G1[0, 1, 0, 0] *= 1.01
        broken = dataclasses.replace(mats_undamped, G1=G1)
        cfg = SimConfig(Omega=0.0, dt=1e-5, t_final=0.02,
                        initial_state=tip_release_state(basis2),
                        integrator="avf")

        def drift(m):
            E = np.array([energy(s, m) for s in simulate(cfg, m, basis2).states])
            return np.max(np.abs(E - E[0])) / E[0]

        assert drift(mats_undamped) < 1e-10
        assert drift(broken) > 1e-6

    def test_nonconvergence_raises_with_time(self):
        # omega*dt = 4: the fixed-point map expands instead of contracting
        f = lambda x, t: np.array([x[1], -x[0]])
        with pytest.raises(IntegrationBlowupError, match="not converged") as info:
            avf_step(f, np.array([1.0, 0.0]), 0.5, 4.0)
        assert info.value.t == 4.5

    def test_unknown_integrator_rejected(self):
        with pytest.raises(ValueError, match="integrator"):
            SimConfig(Omega=20.0, dt=2e-5, t_final=0.01, integrator="euler")


class TestEnergy:
    def test_zero_state(self, mats):
        assert energy(np.zeros(8), mats) == 0.0

    def test_static_state_is_potential_only(self, mats):
        x = np.zeros(8)
        x[0], x[1] = 1e-3, -5e-4
        p = x[:2]
        expected = 0.5 * p @ mats.K1 @ p \
            + 0.25 * np.einsum("ijkl,i,j,k,l->", mats.G1, p, p, p, p)
        assert_allclose(energy(x, mats), expected, rtol=1e-12)

    def test_quartic_gradient_matches_cubic_force(self, mats):
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = rng.normal(scale=2e-3, size=2)
            g = np.einsum("ijkl,j,k,l->i", mats.G1, p, p, p)
            h = 1e-7
            for i in range(2):
                pp, pm = p.copy(), p.copy()
                pp[i] += h
                pm[i] -= h
                quart = lambda v: 0.25 * np.einsum("ijkl,i,j,k,l->", mats.G1, v, v, v, v)
                fd = (quart(pp) - quart(pm)) / (2 * h)
                assert abs(fd - g[i]) <= 1e-6 * max(1.0, abs(g[i]))

    def test_conserved_at_zero_spin(self, beam_undamped, piezo, basis2, mats_undamped):
        # moderate release so the pinned dt resolves the hardened dynamics
        ic = tip_release_state(basis2, tip_w0=5e-4)
        cfg = SimConfig(Omega=0.0, dt=1e-5, t_final=1.0, initial_state=ic)
        tr = simulate(cfg, mats_undamped, basis2)
        E = np.array([energy(s, mats_undamped) for s in tr.states[::50]])
        assert np.max(np.abs(E - E[0])) / E[0] < 1e-6


class TestSimulate:
    def test_zero_duration_single_sample(self, mats, basis2):
        ic = tip_release_state(basis2)
        cfg = SimConfig(Omega=20.0, dt=2e-5, t_final=0.0, initial_state=ic)
        tr = simulate(cfg, mats, basis2)
        assert tr.times.shape == (1,)
        assert_allclose(tr.states[0], ic)
        assert abs(tr.tip_w[0] - 5e-3) < 1e-12

    def test_small_release_oscillates_at_omega1(self, mats_undamped, basis2):
        # FFT peak (parabolic interpolation) vs eigenanalysis, linear regime
        ic = tip_release_state(basis2, tip_w0=2e-5)
        cfg = SimConfig(Omega=0.0, dt=3e-5, t_final=1.5, initial_state=ic)
        tr = simulate(cfg, mats_undamped, basis2)
        w = tr.tip_w * np.hanning(tr.tip_w.size)
        spec = np.abs(np.fft.rfft(w))
        k = np.argmax(spec[1:]) + 1
        # parabolic refinement of the peak bin
        a, b, c = np.log(spec[k - 1]), np.log(spec[k]), np.log(spec[k + 1])
        delta = 0.5 * (a - c) / (a - 2 * b + c)
        f_peak = (k + delta) / (tr.times[-1] + cfg.dt)
        om_f, _ = linear_frequencies(mats_undamped, 0.0)
        assert abs(2 * np.pi * f_peak - om_f[0]) / om_f[0] < 0.005

    def test_spin_induces_torsion(self, mats, basis2):
        ic = tip_release_state(basis2)
        tr = simulate(SimConfig(Omega=20.0, dt=2e-5, t_final=0.3,
                                initial_state=ic), mats, basis2)
        assert np.max(np.abs(tr.tip_theta)) > 1e-6

    def test_no_spin_no_torsion(self, mats, basis2):
        ic = tip_release_state(basis2)
        tr = simulate(SimConfig(Omega=0.0, dt=2e-5, t_final=0.3,
                                initial_state=ic), mats, basis2)
        assert np.max(np.abs(tr.tip_theta)) < 1e-14
        assert np.max(np.abs(tr.states[:, 2:4])) < 1e-14

    def test_linear_regime_superposition(self, mats, basis2):
        # halving the small IC halves the response to O(eps^3)
        def run(eps):
            ic = tip_release_state(basis2, tip_w0=eps)
            return simulate(SimConfig(Omega=20.0, dt=2e-5, t_final=0.05,
                                      initial_state=ic), mats, basis2)

        eps = 2e-5
        d1 = run(2 * eps).tip_w / 2 - run(eps).tip_w
        d2 = run(eps).tip_w / 2 - run(eps / 2).tip_w
        r1 = np.max(np.abs(d1)) / (2 * eps)
        r2 = np.max(np.abs(d2)) / eps
        assert r1 / r2 > 3.0  # cubic-only nonlinearity: factor ~4 per halving

    def test_energy_monotone_with_damping(self, mats, basis2):
        ic = tip_release_state(basis2, tip_w0=1e-3)
        tr = simulate(SimConfig(Omega=0.0, dt=2e-5, t_final=0.2,
                                initial_state=ic), mats, basis2)
        E = np.array([energy(s, mats) for s in tr.states[::25]])
        assert np.all(np.diff(E) <= 1e-9 * E[0])
        assert E[-1] < E[0]

    def test_linear_rk4_is_the_degree4_taylor_polynomial(self, mats, basis2):
        # without the cubic term one RK4 step is x -> P x, P = sum_k (dt A)^k / k!
        # for k = 0..4, whatever order the kernel sums its stages in
        linear = dataclasses.replace(mats, G1=np.zeros_like(mats.G1))
        assert not np.any(linear.N)
        omega, dt = 20.0, 2e-5
        hA = dt * StateOperator.build(linear, omega).A
        P = term = np.eye(8)
        for k in range(1, 5):
            term = term @ hA / k
            P = P + term
        x0 = np.random.default_rng(2).normal(size=8) * np.repeat([1e-3, 1e-4, 0.3, 0.03], 2)
        for nsteps in (1, 200):
            tr = simulate(SimConfig(Omega=omega, dt=dt, t_final=nsteps * dt,
                                    initial_state=x0), linear, basis2)
            assert tr.times.size == nsteps + 1
            assert_allclose(tr.states[-1], np.linalg.matrix_power(P, nsteps) @ x0,
                            rtol=1e-12)

    def test_controller_flag_must_match_policy(self, mats, basis2):
        policy = lambda x, t, a0: 0.0
        for on, controller in ((True, None), (False, policy)):
            cfg = SimConfig(Omega=20.0, dt=2e-5, t_final=0.001, controller_on=on)
            with pytest.raises(ValueError, match="controller_on"):
                simulate(cfg, mats, basis2, controller=controller)

    def test_dt_guard(self, mats, basis2):
        with pytest.raises(ValueError):
            simulate(SimConfig(Omega=0.0, dt=1e-3, t_final=0.1), mats, basis2)

    def test_blowup_reported_with_time(self, beam, piezo, basis2):
        m = assemble(beam, piezo, basis2)
        ic = tip_release_state(basis2, tip_w0=0.5)  # absurd release
        cfg = SimConfig(Omega=0.0, dt=3e-5, t_final=0.5, initial_state=ic)
        with pytest.raises(IntegrationBlowupError) as info:
            simulate(cfg, m, basis2)
        # the first sample at which the rk4_step loop's right-hand side is
        # not finite: a non-finite state or cubic force
        f = closed_loop(m, 0.0)
        x, i = ic, 0
        with np.errstate(over="ignore", invalid="ignore"):
            while np.isfinite(f(x, i * cfg.dt)[0]).all():
                x = rk4_step(lambda xs, ts: f(xs, ts)[0], x, i * cfg.dt, cfg.dt)
                i += 1
        assert i > 0
        assert info.value.t == i * cfg.dt

    # dt = 2e-5: 23*dt + dt rounds below 24*dt, 24*dt + dt above 25*dt, so
    # the NaN reaches the state first at step k or already in step k - 1's
    # last stage
    @pytest.mark.parametrize("k", [24, 25], ids=["last_stage_before_tk",
                                                 "last_stage_after_tk"])
    def test_blowup_time_is_the_first_nonfinite_voltage(self, mats, basis2, k):
        om_f, _ = linear_frequencies(mats, 0.0)
        k0, k1 = design_gains(om_f[0], 0.8)
        ctrl = ControllerConfig(k0=k0, k1=k1, output_weights=basis2.flexural_tip_values())
        law = make_policy(mats, ctrl, 20.0)
        dt = 2e-5
        t_k = k * dt

        def failing(x, t, a0):
            return math.nan if t >= t_k else law(x, t, a0)

        cfg = SimConfig(Omega=20.0, dt=dt, t_final=0.002, controller_on=True,
                        initial_state=tip_release_state(basis2, 1e-4))
        with pytest.raises(IntegrationBlowupError) as info:
            simulate(cfg, mats, basis2, controller=failing)
        assert info.value.t == t_k


def reference_run(cfg, mats, ctrl):
    """The RK4 loop composed from the public pieces: the law (none when ctrl
    is None) is evaluated afresh at every stage, and once more for each
    voltage sample."""
    omega, dist = cfg.Omega, cfg.disturbance
    law = closed_loop(mats, omega, None if ctrl is None else make_policy(mats, ctrl, omega))

    def f(x, t):
        return rhs(x, t, law(x, t)[1], mats, omega, dist)

    nsteps = int(math.floor(cfg.t_final / cfg.dt + 1e-9))
    x = cfg.initial_state
    states, voltage = [], []
    for i in range(nsteps + 1):
        t = i * cfg.dt
        states.append(x)
        voltage.append(law(x, t)[1])
        if i < nsteps:
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


class TestClosedLoopKernel:
    @pytest.mark.parametrize("v_max, tip_w0, dist", [
        (50.0, 5e-3, None),
        (None, 0.0, Disturbance(amplitude=0.002, frequency=40.0, target=2)),
    ], ids=["saturated_release", "unsaturated_disturbance"])
    def test_matches_reference_loop(self, mats, basis2, v_max, tip_w0, dist):
        om_f, _ = linear_frequencies(mats, 0.0)
        k0, k1 = design_gains(om_f[0], 0.8)
        ctrl = ControllerConfig(k0=k0, k1=k1, output_weights=basis2.flexural_tip_values(),
                                v_max=v_max)
        cfg = SimConfig(Omega=20.0, dt=2e-5, t_final=0.004, controller_on=True,
                        initial_state=tip_release_state(basis2, tip_w0), disturbance=dist)
        tr = simulate(cfg, mats, basis2, controller=make_policy(mats, ctrl, 20.0))
        states, voltage = reference_run(cfg, mats, ctrl)
        assert_within_peaks(tr, states, voltage)
        assert np.any(voltage != 0.0)
        if v_max is not None:
            assert np.any(np.abs(voltage) == v_max)  # the release saturates

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("case", ["controller_off", "unsaturated_disturbance",
                                      "saturated_release"])
    def test_matches_reference_loop_per_mode_count(self, beam, piezo, n, case):
        spec = dataclasses.replace(beam, zeta_flex=(0.01, 0.0016, 0.002),
                                   zeta_tors=(0.01, 0.0033, 0.004))
        basis = ModalBasis.build(n, beam.L)
        m = assemble(spec, piezo, basis)
        om_f, _ = linear_frequencies(m, 0.0)
        k0, k1 = design_gains(om_f[0], 0.8)
        ctrl = ControllerConfig(k0=k0, k1=k1, output_weights=basis.flexural_tip_values(),
                                v_max=50.0 if case == "saturated_release" else None)
        dist = Disturbance(amplitude=0.002, frequency=40.0, target=n)
        x0, policy = tip_release_state(basis), make_policy(m, ctrl, 20.0)
        if case == "controller_off":
            ctrl = policy = None
        elif case == "unsaturated_disturbance":
            x0 = np.zeros(4 * n)
        else:
            dist = None
        cfg = SimConfig(Omega=20.0, dt=1e-5, t_final=2e-3, initial_state=x0,
                        disturbance=dist, controller_on=policy is not None)
        tr = simulate(cfg, m, basis, controller=policy)
        states, voltage = reference_run(cfg, m, ctrl)
        assert_within_peaks(tr, states, voltage)  # exact zeros without a controller
        assert np.any(voltage != 0.0) == (policy is not None)
        if case == "saturated_release":
            assert np.any(np.abs(voltage) == 50.0)

    def test_no_per_omega_state(self, mats, basis2):
        def run(omega):
            simulate(SimConfig(Omega=omega, dt=2e-5, t_final=4e-5,
                               initial_state=tip_release_state(basis2)), mats, basis2)

        run(20.0)
        held, size = dict(vars(mats)), len(pickle.dumps(mats))
        for omega in np.linspace(1.0, 500.0, 50):
            run(omega)
        assert vars(mats).keys() == held.keys()
        assert all(vars(mats)[k] is v for k, v in held.items())
        assert len(pickle.dumps(mats)) == size


class TestStateLayout:
    def test_bad_length(self, mats, basis2):
        with pytest.raises(ValueError, match="initial_state"):
            simulate(SimConfig(Omega=20.0, dt=2e-5, t_final=0.01,
                               initial_state=np.zeros(7)), mats, basis2)

    def test_rest_is_the_zero_vector(self, mats, basis2):
        cfg = SimConfig(Omega=20.0, dt=2e-5, t_final=0.0)
        assert np.all(simulate(cfg, mats, basis2).states == np.zeros((1, 8)))


class TestRunValues:
    @pytest.mark.parametrize("kwargs, name", [
        ({"dt": math.nan}, "dt"), ({"dt": math.inf}, "dt"),
        ({"t_final": math.inf}, "t_final"), ({"t_final": math.nan}, "t_final"),
        ({"Omega": math.nan}, "Omega"), ({"Omega": -math.inf}, "Omega"),
    ])
    def test_sim_config_rejects_nonfinite(self, kwargs, name):
        with pytest.raises(ValueError, match=f"SimConfig.{name} must be finite"):
            SimConfig(**{"Omega": 20.0, "dt": 2e-5, "t_final": 0.01, **kwargs})

    @pytest.mark.parametrize("kwargs, name", [
        ({"amplitude": math.nan}, "amplitude"), ({"amplitude": math.inf}, "amplitude"),
        ({"frequency": math.nan}, "frequency"), ({"frequency": math.inf}, "frequency"),
        ({"target": 0}, "target"), ({"target": 1.5}, "target"),
        ({"target": 1.0}, "target"), ({"target": True}, "target"),
    ])
    def test_disturbance_rejects_bad_values(self, kwargs, name):
        with pytest.raises(ValueError, match=f"Disturbance.{name} must be"):
            Disturbance(**{"amplitude": 0.001, "frequency": 24.0, "target": 1, **kwargs})

    @pytest.mark.parametrize("amplitude, frequency", [(0.001, 24.0), (2.5, 149.7)])
    def test_disturbance_force_scalar_and_array_agree(self, amplitude, frequency):
        # at the stage times of a 100-step run, bit for bit
        dist = Disturbance(amplitude=amplitude, frequency=frequency, target=1)
        dt = 2e-5
        times = [i * dt + c * dt for i in range(101) for c in (0.0, 0.5, 0.5, 1.0)]
        values = dist.force(np.array(times))
        assert values.shape == (404,)
        assert [float(v) for v in values] == [float(dist.force(t)) for t in times]

    def test_disturbance_target_beyond_model(self, mats):
        dist = Disturbance(amplitude=0.001, frequency=24.0, target=3)
        with pytest.raises(ValueError, match="Disturbance.target = 3"):
            rhs(np.zeros(8), 0.0, 0.0, mats, 20.0, dist)
