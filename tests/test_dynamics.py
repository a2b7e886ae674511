import dataclasses
import math
import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

from piezobeam import (Disturbance, IntegrationBlowupError, SimConfig, avf_step, closed_loop,
                       energy, linear_frequencies, rhs, rk4_step, simulate, step)
from piezobeam import dynamics
from piezobeam.dynamics import compute_metrics
from piezobeam.assembly import StateOperator

from cases import (ZETA_3, ZETA_6, assert_within_peaks, blowup_times, config, guard_dt, model,
                   reference_run, release, sim, tip_law)


def first_nonfinite_sample(mats, omega, law, dist, x, dt):
    """The first sample from x of an rk4_step loop on closed_loop whose
    right-hand side is not finite."""
    f = closed_loop(mats, omega, law, dist)
    i = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while np.isfinite(f(x, i * dt)[0]).all():
            x = rk4_step(lambda xs, ts: f(xs, ts)[0], x, i * dt, dt)
            i += 1
    return i


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

    def test_n1_direct_expansion(self):
        _, m = model(1)
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

    def test_n1_hand_expansion(self):
        _, m = model(1)
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

        # a k1 handed in stands for the first evaluation and is not written
        held = k1.copy()
        stages.clear()
        assert np.array_equal(rk4_step(f, x, t, dt, k1=k1), out)
        assert len(stages) == 3 and np.array_equal(k1, held)

    def test_zero_dynamics(self, mats):
        x = np.zeros(8)
        out = step(x, 0.0, 1e-4, mats, 20.0)
        assert np.all(out == 0.0)

    def test_nonfinite_result_raises_with_time(self, mats):
        # a NaN raises no numpy warning: step's own finiteness check fails it
        x = np.zeros(8)
        x[3] = np.nan
        with pytest.raises(IntegrationBlowupError) as info:
            step(x, 0.5, 1e-5, mats, 20.0)
        assert info.value.t == 0.50001

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
        ic = release(basis2)

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
        ic = release(basis2)

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
        tr = sim(mats, basis2, Omega=0.0, t_final=0.2, initial_state=release(basis2),
                 integrator="avf")
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
                        initial_state=release(basis2),
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

    def test_conserved_at_zero_spin(self, basis2, mats_undamped):
        # moderate release so the pinned dt resolves the hardened dynamics
        tr = sim(mats_undamped, basis2, Omega=0.0, dt=1e-5, t_final=1.0,
                 initial_state=release(basis2, tip_w0=5e-4))
        E = np.array([energy(s, mats_undamped) for s in tr.states[::50]])
        assert np.max(np.abs(E - E[0])) / E[0] < 1e-6


class TestSimulate:
    def test_zero_duration_single_sample(self, mats, basis2):
        ic = release(basis2)
        tr = sim(mats, basis2, t_final=0.0, initial_state=ic)
        assert tr.times.shape == (1,)
        assert_allclose(tr.states[0], ic)
        assert abs(tr.tip_w[0] - 5e-3) < 1e-12

    def test_small_release_oscillates_at_omega1(self, mats_undamped, basis2):
        # FFT peak (parabolic interpolation) vs eigenanalysis, linear regime
        ic = release(basis2, tip_w0=2e-5)
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
        tr = sim(mats, basis2, t_final=0.3, initial_state=release(basis2))
        assert np.max(np.abs(tr.tip_theta)) > 1e-6

    def test_no_spin_no_torsion(self, mats, basis2):
        tr = sim(mats, basis2, Omega=0.0, t_final=0.3, initial_state=release(basis2))
        assert np.max(np.abs(tr.tip_theta)) < 1e-14
        assert np.max(np.abs(tr.states[:, 2:4])) < 1e-14

    def test_linear_regime_superposition(self, mats, basis2):
        # halving the small IC halves the response to O(eps^3)
        def run(eps):
            return sim(mats, basis2, t_final=0.05, initial_state=release(basis2, tip_w0=eps))

        eps = 2e-5
        d1 = run(2 * eps).tip_w / 2 - run(eps).tip_w
        d2 = run(eps).tip_w / 2 - run(eps / 2).tip_w
        r1 = np.max(np.abs(d1)) / (2 * eps)
        r2 = np.max(np.abs(d2)) / eps
        assert r1 / r2 > 3.0  # cubic-only nonlinearity: factor ~4 per halving

    def test_energy_monotone_with_damping(self, mats, basis2):
        tr = sim(mats, basis2, Omega=0.0, t_final=0.2, initial_state=release(basis2, tip_w0=1e-3))
        E = np.array([energy(s, mats) for s in tr.states[::25]])
        assert np.all(np.diff(E) <= 1e-9 * E[0])
        assert E[-1] < E[0]

    def test_linear_rk4_is_the_degree4_taylor_polynomial(self, mats, basis2):
        # without the cubic term one RK4 step is x -> P x, P = sum_k (dt A)^k / k!
        # for k = 0..4, whatever order the kernel sums its stages in
        linear = dataclasses.replace(mats, G1=np.zeros_like(mats.G1))
        assert not np.any(linear.W)
        omega, dt = 20.0, 2e-5
        hA = dt * StateOperator.build(linear, omega).A
        P = term = np.eye(8)
        for k in range(1, 5):
            term = term @ hA / k
            P = P + term
        x0 = np.random.default_rng(2).normal(size=8) * np.repeat([1e-3, 1e-4, 0.3, 0.03], 2)
        for nsteps in (1, 200):
            tr = sim(linear, basis2, Omega=omega, dt=dt, t_final=nsteps * dt, initial_state=x0)
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

    @pytest.mark.parametrize("last", [False, True], ids=["mid_run", "last_sample"])
    @pytest.mark.parametrize("forced", [False, True], ids=["release", "forced_release"])
    # at n = 1 the unclipped law cancels the cubic force exactly, so its
    # closed loop is linear and stable and no release blows it up
    @pytest.mark.parametrize("v_max, n", [
        pytest.param(v_max, n, id=f"{name}-n{n}") for n in (1, 2, 3)
        for name, v_max in (("no_law", None), ("clipped_law", 50.0), ("unclipped_law", math.inf))
        if (n, v_max) != (1, math.inf)])
    def test_blowup_reported_with_time(self, v_max, n, forced, last):
        # the first sample at which the rk4_step loop's right-hand side is
        # not finite: a non-finite state or cubic force; with last, that
        # sample ends the run.  At n = 1 a law's closed-loop cubic block is
        # zero, so a non-finite cubic force reaches the next state as 0 inf.
        basis, m = model(n, **ZETA_3)
        law = None if v_max is None else tip_law(m, basis, v_max, 0.0)
        dist = Disturbance(amplitude=1e3, frequency=40.0, target=1) if forced else None
        ic = release(basis, tip_w0=0.5)  # absurd release
        dt = 3e-5 if n < 3 else 1e-5  # the dt guard's bound falls below 3e-5 at n = 3
        i = first_nonfinite_sample(m, 0.0, law, dist, ic, dt)
        assert i > 0
        cfg = SimConfig(Omega=0.0, dt=dt, t_final=i * dt if last else 0.5, initial_state=ic,
                        disturbance=dist)
        assert (cfg.nsteps == i) == last
        assert blowup_times(cfg, m, basis, law) == [i * dt, i * dt]

    @pytest.mark.parametrize("nsteps", [0, 1, 300])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("v_max", [None, 50.0, math.inf],
                             ids=["no_law", "clipped_law", "unclipped_law"])
    def test_nonfinite_initial_state_fails_at_t0(self, mats, basis2, v_max, bad, nsteps):
        x0 = release(basis2, 1e-3)
        x0[-1] = bad  # the last torsional velocity
        cfg = config(t_final=nsteps * 2e-5, initial_state=x0)
        assert cfg.nsteps == nsteps
        law = None if v_max is None else tip_law(mats, basis2, v_max)
        assert blowup_times(cfg, mats, basis2, law) == [0.0, 0.0]

    # dt = 2e-5: 24*dt + dt rounds above 25*dt, so the last stage of step 24
    # and the first of sample 25 read the forcing at different times
    @pytest.mark.parametrize("time_of", [lambda dt: 24 * dt + 0.5 * dt, lambda dt: 24 * dt + dt,
                                         lambda dt: 25 * dt],
                             ids=["mid_step", "step_end", "next_sample"])
    @pytest.mark.parametrize("nsteps", [25, 300])
    @pytest.mark.parametrize("v_max", [None, 50.0, math.inf],
                             ids=["no_law", "clipped_law", "unclipped_law"])
    def test_nonfinite_forcing_after_a_sample_fails_the_next(self, mats, basis2, v_max,
                                                             nsteps, time_of):
        # forcing that is infinite only at one stage time in (t_24, t_25]
        # reaches no right-hand side at a sample before t_25 but does reach
        # x_25 or sample 25's own, so both loops fail at t_25; with nsteps =
        # 25 that is the run's last sample
        dt = 2e-5
        assert 24 * dt + dt != 25 * dt
        at = time_of(dt)

        class Spike(Disturbance):
            def force(self, t):
                return np.where(t == at, math.inf, 0.0)

        cfg = config(dt=dt, t_final=nsteps * dt, initial_state=release(basis2, 1e-3),
                     disturbance=Spike(amplitude=1.0, frequency=1.0, target=1))
        law = None if v_max is None else tip_law(mats, basis2, v_max)
        assert blowup_times(cfg, mats, basis2, law) == [25 * dt, 25 * dt]

    @pytest.mark.parametrize("nsteps", [256, 512])
    @pytest.mark.parametrize("v_max", [None, 50.0, math.inf],
                             ids=["no_law", "clipped_law", "unclipped_law"])
    def test_blowup_at_a_block_end_is_reported(self, mats, basis2, v_max, nsteps):
        # a finite kick in the middle stages of the second-to-last step
        # overflows the last stage's cubic force, so the run's last sample,
        # which ends a block of forcing values, is the first non-finite one
        assert nsteps % dynamics._FORCE_BLOCK == 0
        dt = 2e-5
        kick_at = (nsteps - 1) * dt + 0.5 * dt

        class Kick(Disturbance):
            def force(self, t):
                return np.where(t == kick_at, self.amplitude, 0.0)

        law = None if v_max is None else tip_law(mats, basis2, v_max)
        kick = Kick(amplitude=1e200, frequency=1.0, target=1)
        ic = release(basis2, 1e-3)
        assert first_nonfinite_sample(mats, 20.0, law, kick, ic, dt) == nsteps
        cfg = config(law, dt=dt, t_final=nsteps * dt, initial_state=ic, disturbance=kick)
        with pytest.raises(IntegrationBlowupError) as info:
            simulate(cfg, mats, basis2, controller=law)
        assert info.value.t == nsteps * dt

    @pytest.mark.parametrize("n, tip_w0, dt", [(2, 0.1, 2e-5), (3, 1e-3, 1e-5)],
                             ids=["n2", "n3"])
    def test_blowup_under_an_unclipped_law(self, monkeypatch, n, tip_w0, dt):
        # the closed loop stepped with no law in the maps is still checked at
        # every sample, and a failed run never computes the logged voltage;
        # at n = 3 a 1 mm release grows through the law's unstable zero dynamics
        basis, m = model(n, **ZETA_3)
        law = tip_law(m, basis)
        cfg = config(law, dt=dt, t_final=0.5, initial_state=release(basis, tip_w0))
        with pytest.raises(IntegrationBlowupError) as called:
            simulate(cfg, m, basis, controller=lambda x, t, a0: law(x, t, a0))
        voltages = []  # the after-loop fill is the only caller with rows of p
        cubes = StateOperator.cubes
        monkeypatch.setattr(StateOperator, "cubes", lambda op, p: voltages.append(p)
                            if p.ndim == 2 else cubes(op, p))
        with pytest.raises(IntegrationBlowupError) as folded:
            simulate(cfg, m, basis, controller=law)
        assert called.value.t > 0.0
        assert folded.value.t == called.value.t
        assert voltages == []

    # dt = 2e-5: 23*dt + dt rounds below 24*dt, 24*dt + dt above 25*dt, so
    # the NaN reaches the state first at step k or already in step k - 1's
    # last stage
    @pytest.mark.parametrize("k", [24, 25], ids=["last_stage_before_tk",
                                                 "last_stage_after_tk"])
    def test_blowup_time_is_the_first_nonfinite_voltage(self, mats, basis2, k):
        law = tip_law(mats, basis2)
        dt = 2e-5
        t_k = k * dt

        def failing(x, t, a0):
            return math.nan if t >= t_k else law(x, t, a0)

        cfg = config(law, dt=dt, t_final=0.002, initial_state=release(basis2, 1e-4))
        with pytest.raises(IntegrationBlowupError) as info:
            simulate(cfg, mats, basis2, controller=failing)
        assert info.value.t == t_k


class TestClosedLoopKernel:
    @pytest.mark.parametrize("v_max, tip_w0, dist", [
        (50.0, 5e-3, None),
        (None, 0.0, Disturbance(amplitude=0.002, frequency=40.0, target=2)),
    ], ids=["saturated_release", "unsaturated_disturbance"])
    def test_matches_reference_loop(self, mats, basis2, v_max, tip_w0, dist):
        law = tip_law(mats, basis2, v_max)
        cfg = config(law, t_final=0.004, initial_state=release(basis2, tip_w0), disturbance=dist)
        tr = simulate(cfg, mats, basis2, controller=law)
        states, voltage = reference_run(cfg, mats, law)
        assert_within_peaks(tr, states, voltage)
        assert np.any(voltage != 0.0)
        if v_max is not None:
            assert np.any(np.abs(voltage) == v_max)  # the release saturates

    @pytest.mark.parametrize("nsteps", [255, 256, 257, 512, 600])
    @pytest.mark.parametrize("v_max", [None, 50.0, 1e6, math.inf],
                             ids=["no_law", "clipped_law", "unsaturated_clipped_law",
                                  "unclipped_law"])
    def test_forcing_blocks_match_reference_loop(self, mats, basis2, v_max, nsteps):
        # the disturbance is evaluated one block of samples at a time; runs
        # that end inside, at and past a block's end see the same forcing,
        # and the last sample's logged voltage is the law's at that sample
        assert dynamics._FORCE_BLOCK == 256
        law = None if v_max is None else tip_law(mats, basis2, v_max)
        dt = 2e-5
        cfg = config(law, dt=dt, t_final=nsteps * dt, initial_state=release(basis2, 1e-3),
                     disturbance=Disturbance(amplitude=0.5, frequency=150.0, target=1))
        tr = simulate(cfg, mats, basis2, controller=law)
        states, voltage = reference_run(cfg, mats, law)
        assert tr.times.size == nsteps + 1
        assert_within_peaks(tr, states, voltage)  # exact zeros without a law
        if v_max == 50.0:
            assert np.any(np.abs(voltage) == 50.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("case", ["controller_off", "unsaturated_disturbance",
                                      "saturated_release"])
    def test_matches_reference_loop_per_mode_count(self, n, case):
        basis, m = model(n, **ZETA_3)
        saturated = case == "saturated_release"
        law = None if case == "controller_off" else tip_law(m, basis, 50.0 if saturated else None)
        cfg = config(law, dt=1e-5, t_final=2e-3,
                     initial_state=np.zeros(4 * n) if case == "unsaturated_disturbance"
                     else release(basis),
                     disturbance=None if saturated else
                     Disturbance(amplitude=0.002, frequency=40.0, target=n))
        tr = simulate(cfg, m, basis, controller=law)
        states, voltage = reference_run(cfg, m, law)
        assert_within_peaks(tr, states, voltage)  # exact zeros without a controller
        assert np.any(voltage != 0.0) == (law is not None)
        if saturated:
            assert np.any(np.abs(voltage) == 50.0)

    @pytest.mark.parametrize("n", [2, 6])
    @pytest.mark.parametrize("case", ["controller_off", "unsaturated_disturbance",
                                      "saturated_release"])
    def test_unfolded_stages_match_reference_loop(self, monkeypatch, n, case):
        # above _FOLDED_MAX_MODES a stage applies E's cubic block with one
        # more matvec, and the maps' E has I there; a clipped law's loops
        # also write rho (lattice p)^3 into u_s for D, which E's zero column
        # skips; at n = 2 the fold is switched off to step that path
        monkeypatch.setattr(dynamics, "_FOLDED_MAX_MODES", 1)
        shapes = []  # E's shape in each stage-map build
        stage_maps = dynamics._rk4_stage_maps
        monkeypatch.setattr(dynamics, "_rk4_stage_maps", lambda A, lattice, E, *rest:
                            shapes.append(E.shape) or stage_maps(A, lattice, E, *rest))
        basis, m = model(n, **ZETA_6)
        saturated = case == "saturated_release"
        law = None if case == "controller_off" else tip_law(m, basis, 50.0 if saturated else None)
        cfg = config(law, dt=5e-6, t_final=1e-3,
                     initial_state=release(basis) if saturated else np.zeros(4 * n),
                     disturbance=None if saturated else
                     Disturbance(amplitude=0.002, frequency=40.0, target=n))
        tr = simulate(cfg, m, basis, controller=law)
        states, voltage = reference_run(cfg, m, law)
        if saturated:  # each loop the clipped law enters, closed or open
            assert shapes and set(shapes) == {(n, n + 3)}
        else:
            assert shapes == [(n, n + 2)]
        assert_within_peaks(tr, states, voltage)  # exact zeros without a controller
        assert np.any(voltage != 0.0) == (law is not None)
        assert np.any(np.abs(voltage) == 50.0) == saturated

    @pytest.mark.parametrize("n", [1, 2])
    def test_clip_that_never_saturates_is_the_unclipped_law(self, n):
        # a clipped law that stays within +-v_max steps the unclipped law's
        # closed loop with every voltage entry at 0, bit for bit
        basis, m = model(n, zeta_flex=(0.01, 0.0016)[:n], zeta_tors=(0.01, 0.0033)[:n])
        dist = Disturbance(amplitude=0.001, frequency=24.0, target=1)
        clipped, unclipped = (sim(m, basis, tip_law(m, basis, v_max), dt=5e-6, t_final=0.05,
                                  disturbance=dist) for v_max in (200.0, None))
        assert clipped.times.size == 10001
        assert 0.0 < np.max(np.abs(clipped.voltage)) < 200.0
        assert np.array_equal(clipped.states, unclipped.states)
        assert np.array_equal(clipped.voltage, unclipped.voltage)

    def test_switching_regimes_match_reference_loop(self, mats, basis2):
        # a 1 mm release under a 200 V clip goes in and out of saturation at
        # both limits, so steps run in each regime and in between
        law = tip_law(mats, basis2, 200.0)
        cfg = config(law, t_final=0.04, initial_state=release(basis2, 1e-3))
        tr = simulate(cfg, mats, basis2, controller=law)
        states, voltage = reference_run(cfg, mats, law)
        assert tr.times.size == 2001
        assert_within_peaks(tr, states, voltage)
        assert np.any(voltage == 200.0) and np.any(voltage == -200.0)
        assert np.any(np.abs(voltage) < 200.0)

    def test_overflow_while_saturated_ends_at_the_parents_sample(self, mats, basis2):
        # a kick drives a 5 mm release, saturated at 50 V, until the cubes
        # and the demand at a finite state overflow: the run ends at that
        # sample, 77, where it ends when every stage clips on the closed loop
        law = tip_law(mats, basis2, 50.0)
        cfg = config(law, t_final=0.004, initial_state=release(basis2),
                     disturbance=Disturbance(amplitude=3e6, frequency=24.0, target=1))
        with pytest.raises(IntegrationBlowupError) as info:
            simulate(cfg, mats, basis2, controller=law)
        assert info.value.t == 77 * 2e-5
        before = simulate(dataclasses.replace(cfg, t_final=76 * 2e-5), mats, basis2,
                          controller=law)
        assert before.times.size == 77
        assert np.all(np.abs(before.voltage[-10:]) == 50.0)

    @pytest.mark.parametrize("n", [2, 6])
    def test_demand_far_beyond_the_clip_matches_the_called_law(self, n):
        # a gain of 1e12 V per unit of p1 keeps a 5 mm release saturated,
        # flipping between the limits; each regime is an exact linear system
        # and a step that leaves it is the law's own, so the run leaves the
        # called law's by round-off, folded at n = 2 and unfolded at n = 6
        basis, m = model(n, **ZETA_6)
        dt = guard_dt(m)
        law = tip_law(m, basis, 50.0)
        g = law.g.copy()
        g[0] = -1e12 * law.beta
        huge = dataclasses.replace(law, g=g)
        cfg = config(huge, dt=dt, t_final=600 * dt, initial_state=release(basis))
        called = simulate(cfg, m, basis, controller=lambda x, t, a0: huge(x, t, a0))
        tr = simulate(cfg, m, basis, controller=huge)
        assert tr.times.size == 601
        assert np.any(called.voltage == 50.0) and np.any(called.voltage == -50.0)
        assert_within_peaks(tr, called.states, called.voltage)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("case", ["unsaturated_disturbance", "saturated_release"])
    def test_folded_law_matches_the_called_law(self, n, case):
        # simulate folds make_policy's law into the stage maps, but calls
        # the same law behind a plain function at every stage
        basis, m = model(n, **ZETA_3)
        saturated = case == "saturated_release"
        law = tip_law(m, basis, 50.0 if saturated else None)
        cfg = config(law, dt=1e-5, t_final=2e-3,
                     initial_state=release(basis) if saturated else None,
                     disturbance=None if saturated else
                     Disturbance(amplitude=0.002, frequency=40.0, target=n))
        called = simulate(cfg, m, basis, controller=lambda x, t, a0: law(x, t, a0))
        assert_within_peaks(simulate(cfg, m, basis, controller=law),
                            called.states, called.voltage)
        assert np.any(called.voltage != 0.0)
        assert np.any(np.abs(called.voltage) == 50.0) == saturated

    @pytest.mark.parametrize("integrator", ["rk4", "avf"])
    def test_called_policy_runs_the_step_loop(self, mats, basis2, integrator):
        # any policy but a VoltageLaw is stepped exactly as step steps it
        law = tip_law(mats, basis2, 50.0)
        policy = lambda x, t, a0: law(x, t, a0)
        dist = Disturbance(amplitude=0.002, frequency=40.0, target=2)
        cfg = config(policy, t_final=0.004, initial_state=release(basis2), disturbance=dist,
                     integrator=integrator)
        tr = simulate(cfg, mats, basis2, controller=policy)
        f = closed_loop(mats, 20.0, policy, dist)
        x = cfg.initial_state
        for i in range(tr.times.size):
            t = i * cfg.dt
            assert np.array_equal(tr.states[i], x), i
            assert tr.voltage[i] == f(x, t)[1], i
            x = step(x, t, cfg.dt, mats, 20.0, policy, dist, integrator)
        assert np.any(np.abs(tr.voltage) == 50.0)  # the release saturates

    def test_no_per_omega_state(self, mats, basis2):
        def run(omega):
            sim(mats, basis2, Omega=omega, t_final=4e-5, initial_state=release(basis2))

        run(20.0)
        held, size = dict(vars(mats)), len(pickle.dumps(mats))
        for omega in np.linspace(1.0, 500.0, 50):
            run(omega)
        assert vars(mats).keys() == held.keys()
        assert all(vars(mats)[k] is v for k, v in held.items())
        assert len(pickle.dumps(mats)) == size


def plain_metrics(times, tip_w, voltage, period1):
    """compute_metrics' definitions, written out as they first read."""
    peak = np.max(np.abs(tip_w))
    if peak == 0.0:
        settling = 0.0
    else:
        above = np.abs(tip_w) >= 0.01 * peak
        t_last = times[np.nonzero(above)[0][-1]] if above.any() else times[0]
        settling = float(t_last) if times[-1] - t_last >= 5.0 * period1 else None
    half = times >= 0.5 * times[-1] if times.size > 1 else slice(None)
    return {"settling_time_s": settling,
            "peak_tip_m": float(np.max(np.abs(tip_w))),
            "rms_tip_after_transient_m": float(np.sqrt(np.mean(tip_w[half] ** 2))),
            "peak_voltage_V": float(np.max(np.abs(voltage)))}


def bits(metrics):
    """Each metric as its exact bits (None stays None)."""
    return {k: v if v is None else (type(v), float(v).hex()) for k, v in metrics.items()}


class TestMetrics:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_histories(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 3000))
        times = np.arange(size) * 2e-5
        decay = np.exp(-times / rng.uniform(1e-3, 0.02))
        tip_w = rng.normal(size=size) * decay * rng.uniform(1e-6, 1e-2)
        voltage = rng.normal(size=size) * 100.0
        period1 = rng.uniform(1e-4, 5e-3)
        assert bits(compute_metrics(times, tip_w, voltage, period1)) == \
            bits(plain_metrics(times, tip_w, voltage, period1))

    # (times, tip_w, period1, settling time): exact binary times; the tail's
    # last sample at or above 1 % of its peak is at t = 0.5, 2.0 s before
    # the end
    _T, _TAIL = np.arange(11) * 0.25, np.r_[1.0, 0.5, 0.2, np.zeros(8)]
    EDGE_CASES = {
        "zero_peak": (_T, np.zeros(11), 0.1, 0.0),
        "single_sample": (np.zeros(1), np.array([3e-3]), 0.1, None),
        "single_zero_sample": (np.zeros(1), np.zeros(1), 0.1, 0.0),
        "never_settles": (_T, np.r_[np.zeros(10), 1.0], 0.1, None),
        "tail_short_of_five_periods": (_T, _TAIL, 0.4001, None),
        "tail_of_exactly_five_periods": (_T, _TAIL, 0.4, 0.5),  # settles at the end
        "negative_peak": (_T, -_TAIL, 0.01, 0.5),
    }

    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_edge_cases(self, case):
        times, tip_w, period1, settling = self.EDGE_CASES[case]
        voltage = np.linspace(-3.0, 2.0, times.size)
        ours = compute_metrics(times, tip_w, voltage, period1)
        assert bits(ours) == bits(plain_metrics(times, tip_w, voltage, period1))
        assert ours["settling_time_s"] == settling


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
        with pytest.raises(ValueError, match=f"SimConfig.{name}: must be finite"):
            SimConfig(**{"Omega": 20.0, "dt": 2e-5, "t_final": 0.01, **kwargs})

    @pytest.mark.parametrize("t_final, dt", [(1e300, 1e-300), (1e300, 2e-5), (2.0 ** 63, 1.0)],
                             ids=["infinite_count", "count_beyond_intp", "count_of_2_63"])
    def test_sim_config_rejects_sample_counts_beyond_intp(self, t_final, dt):
        # rejected when built, before simulate allocates nsteps + 1 samples
        with pytest.raises(ValueError, match="SimConfig.t_final: must be below"):
            SimConfig(Omega=20.0, dt=dt, t_final=t_final)

    def test_sim_config_is_frozen(self):
        # its rules hold for its life: a value assigned later would skip them
        cfg = SimConfig(Omega=20.0, dt=2e-5, t_final=0.01)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.t_final = 1e300
        assert cfg.nsteps == 500

    def test_nsteps_rounds_down_unless_within_1e_9(self):
        assert SimConfig(Omega=0.0, dt=2e-5, t_final=0.002).nsteps == 100
        assert SimConfig(Omega=0.0, dt=0.1, t_final=0.3).nsteps == 3  # 0.3 / 0.1 < 3
        assert SimConfig(Omega=0.0, dt=0.1, t_final=0.35).nsteps == 3
        assert SimConfig(Omega=0.0, dt=2e-5, t_final=0.0).nsteps == 0

    @pytest.mark.parametrize("kwargs, name", [
        ({"amplitude": math.nan}, "amplitude"), ({"amplitude": math.inf}, "amplitude"),
        ({"frequency": math.nan}, "frequency"), ({"frequency": math.inf}, "frequency"),
        ({"target": 0}, "target"), ({"target": 1.5}, "target"),
        ({"target": 1.0}, "target"), ({"target": True}, "target"),
    ])
    def test_disturbance_rejects_bad_values(self, kwargs, name):
        with pytest.raises(ValueError, match=f"Disturbance.{name}: must be"):
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
