import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from piezobeam import (ControlAuthorityError, ControllerConfig, Disturbance, closed_loop,
                       design_gains, linear_frequencies, make_policy, simulate)
from piezobeam import dynamics
from piezobeam.assembly import SpecError, StateOperator
from piezobeam.control import ClosedLoopSpec, VoltageLaw

from cases import (ZETA_6, config, model, record_stage_maps, release, sim, tip_controller,
                   tip_law)


class TestClosedLoopOperator:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("clip", [False, True], ids=["unclipped", "clipped"])
    def test_flexural_rows_are_the_law(self, n, clip):
        # A x + E [(lattice p)^3; sat(v) - v; d] of the operator closed by
        # the law, with the clip's excess 0 for an unclipped law, is
        # closed_loop's flexural acceleration, and h x + rho (lattice p)^3
        # the unclipped voltage v, which demand gives for one state and for
        # rows of states
        basis, mats = model(n, zeta_flex=(0.01, 0.0016, 0.002)[:n],
                            zeta_tors=(0.01, 0.0033, 0.004)[:n])
        law = tip_law(mats, basis)
        dist = Disturbance(amplitude=0.002, frequency=40.0, target=n)
        op = StateOperator.build(mats, 20.0, dist, law=law)
        rho, h = op.readout
        A = StateOperator.build(mats, 20.0).A
        flex = slice(2 * n, 3 * n)
        assert np.array_equal(np.delete(op.A, flex, axis=0), np.delete(A, flex, axis=0))
        rng = np.random.default_rng(18 + n)
        xs = rng.normal(size=(50, 4 * n)) * np.repeat([1e-3, 1e-4, 0.3, 0.03], n)
        ts = rng.uniform(0.0, 0.1, size=50)
        cubes = [op.cubes(x[:n]) for x in xs]
        vs = np.array([h @ x + rho @ c3 for x, c3 in zip(xs, cubes)])
        v_max = float(np.median(np.abs(vs))) if clip else math.inf
        f = closed_loop(mats, 20.0, dataclasses.replace(law, v_max=v_max if clip else None),
                        dist)
        for x, t, c3, v in zip(xs, ts, cubes, vs):
            out, logged = f(x, t)
            excess = min(max(v, -v_max), v_max) - v
            got = op.A[flex] @ x + op.E @ np.concatenate((c3, [excess, dist.force(t)]))
            assert_allclose(got, out[flex], rtol=1e-12, atol=0.0)
            assert_allclose(v + excess, logged, rtol=1e-12, atol=0.0)
            assert_allclose(op.demand(x), v, rtol=1e-12, atol=0.0)
        assert op.demand(xs).shape == vs.shape
        assert_allclose(op.demand(xs), vs, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("loop", ["closed", "open"])
    def test_demand_map_is_the_law_at_each_rk4_stage(self, n, loop):
        # one step's operand z, stepped through the stage maps by hand with
        # every voltage entry at 0 on the closed loop or at +v_max on the
        # open loop, makes D z the law's unclipped voltage at the four stage
        # inputs of rk4_step on closed_loop, whose policy applies that
        # voltage (closed loop) or +v_max (open loop)
        basis, mats = model(n, zeta_flex=(0.01, 0.0016, 0.002)[:n],
                            zeta_tors=(0.01, 0.0033, 0.004)[:n])
        v_max = 50.0
        law = tip_law(mats, basis, v_max)
        dist = Disturbance(amplitude=0.002, frequency=40.0, target=n)
        op = StateOperator.build(mats, 20.0, dist, law=law)
        stepped = op if loop == "closed" else StateOperator.build(mats, 20.0, dist)
        dt, t = 2e-5, 0.0131
        S, F, D = dynamics._rk4_stage_maps(stepped.A, op.lattice, stepped.E, dt, op.readout)
        R = op.lattice.shape[0]
        rng = np.random.default_rng(28 + n)
        x = rng.normal(size=4 * n) * np.repeat([1e-3, 1e-4, 0.3, 0.03], n)
        z = np.zeros(4 * n + 4 + 4 * (R + 1))
        z[:4 * n] = x
        z[4 * n:4 * n + 4] = dist.force(t + dt * np.array([0.0, 0.5, 0.5, 1.0]))
        for s, maps in enumerate(S):
            a = 4 * n + 4 + s * (R + 1)
            z[a:a + R] = (maps @ z[:a]) ** 3
            z[a + R] = 0.0 if loop == "closed" else v_max
        assert D.shape == (4, z.size)
        unclipped, demands = dataclasses.replace(law, v_max=None), []

        def policy(xs, ts, a0):
            demands.append(unclipped(xs, ts, a0))
            return demands[-1] if loop == "closed" else v_max
        f = closed_loop(mats, 20.0, policy, dist)
        dynamics.rk4_step(lambda xs, ts: f(xs, ts)[0], x, t, dt)
        assert len(demands) == 4
        peak = max(abs(v) for v in demands)
        assert np.isfinite(peak) and peak > 0.0
        assert_allclose(D @ z, demands, rtol=0.0, atol=1e-12 * peak)


class TestDesignGains:
    def test_direct_formulas(self):
        assert design_gains(100.0, 1.0) == (10000.0, 200.0)
        assert design_gains(50.0, 0.7) == (2500.0, 70.0)

    def test_hurwitz_roots(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            k0, k1 = design_gains(rng.uniform(1, 500), rng.uniform(0.05, 2.0))
            assert np.all(np.roots([1.0, k1, k0]).real < 0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            design_gains(-1.0, 0.5)
        with pytest.raises(ValueError):
            design_gains(100.0, 0.0)


    @pytest.mark.parametrize("omega_cl, zeta_cl", [
        (float("nan"), 0.8), (100.0, float("nan")), (float("inf"), 0.8), (100.0, float("inf"))])
    def test_rejects_nonfinite(self, omega_cl, zeta_cl):
        with pytest.raises(ValueError, match="finite"):
            design_gains(omega_cl, zeta_cl)

    @pytest.mark.parametrize("omega_cl, zeta_cl, name", [
        (0.0, 0.8, "omega_cl"), (1e200, 0.8, "omega_cl"), (100.0, -1.0, "zeta_cl"),
        (100.0, 1e308, "zeta_cl")])
    def test_a_broken_rule_is_a_spec_error_on_its_argument(self, omega_cl, zeta_cl, name):
        # cli names it by its YAML key, as every other rule
        with pytest.raises(SpecError) as info:
            design_gains(omega_cl, zeta_cl)
        assert (info.value.kind, info.value.name) == (ClosedLoopSpec, name)


class TestOutput:
    def test_ydot_consistency_with_trajectory(self, mats, basis2):
        tr = sim(mats, basis2, t_final=0.02, initial_state=release(basis2, 1e-4))
        c = basis2.flexural_tip_values()
        y = tr.states[:, :2] @ c
        yd = tr.states[:, 4:6] @ c
        fd = (y[2:] - y[:-2]) / (2 * 2e-5)
        assert np.max(np.abs(fd - yd[1:-1])) < 1e-3 * np.max(np.abs(yd))


class TestControlVoltage:
    def test_zero_state_zero_voltage(self, mats, basis2):
        law = closed_loop(mats, 20.0, tip_law(mats, basis2))
        assert law(np.zeros(8), 0.0)[1] == 0.0

    def test_n1_hand_formula(self):
        basis, m = model(1)
        phiL = basis.flexural_tip_values()[0]
        k0, k1 = design_gains(151.7, 0.8)
        ctrl = ControllerConfig(k0=k0, k1=k1, output_weights=[phiL])
        omega = 20.0
        law = closed_loop(m, omega, make_policy(m, ctrl, omega))
        rng = np.random.default_rng(5)
        for _ in range(10):
            p, q, pd, qd = rng.normal(scale=1e-3, size=4)
            x = np.array([p, q, pd, qd])
            num = (-k0 * phiL * p - k1 * phiL * pd
                   + phiL / m.M1[0, 0] * (m.CB[0, 0] * pd + omega * m.C1[0, 0] * qd
                                          + (m.K1[0, 0] + omega ** 2 * m.D1[0, 0]) * p
                                          + m.G1[0, 0, 0, 0] * p ** 3))
            expected = num / (phiL * m.F1[0] / m.M1[0, 0])
            got = law(x, 0.0)[1]
            assert_allclose(got, expected, rtol=1e-12)

    def test_closed_loop_residual(self, mats, basis2):
        # disturbance-free, unsaturated: ydd + k1 yd + k0 y -> 0 to O(dt^2)
        ctrl = tip_controller(mats, basis2)
        dt = 2e-5
        tr = sim(mats, basis2, make_policy(mats, ctrl, 20.0), dt=dt, t_final=0.2,
                 initial_state=release(basis2, 1e-3))
        y = tr.tip_w
        ydd = (y[2:] - 2 * y[1:-1] + y[:-2]) / dt ** 2
        yd = (y[2:] - y[:-2]) / (2 * dt)
        res = ydd + ctrl.k1 * yd + ctrl.k0 * y[1:-1]
        assert np.max(np.abs(res)) < 1e-3 * ctrl.k0 * abs(y[0])

    def test_exponential_output_decay(self, mats, basis2):
        pol = tip_law(mats, basis2)
        tr = sim(mats, basis2, pol, t_final=0.15, initial_state=release(basis2, 1e-4))
        om_f, _ = linear_frequencies(mats, 0.0)
        rate = 0.9 * 0.8 * om_f[0]
        # underdamped 2nd-order response with yd(0)=0 peaks at |y0|/sqrt(1-zeta^2)
        amp = 1.05 * abs(tr.tip_w[0]) / np.sqrt(1.0 - 0.8 ** 2)
        envelope = amp * np.exp(-rate * tr.times)
        assert np.all(np.abs(tr.tip_w) <= envelope + 1e-15)

    def test_internal_dynamics_bounded_and_decaying(self, mats, basis2):
        pol = tip_law(mats, basis2)
        tr = sim(mats, basis2, pol, t_final=1.5, initial_state=release(basis2, 1e-3))
        q = tr.states[:, 2:4]
        assert np.all(np.isfinite(q))
        peak = np.max(np.abs(q), axis=0)
        tail = np.max(np.abs(q[-500:]), axis=0)
        assert np.all(tail <= 0.2 * peak + 1e-18)

    def test_saturation_clips_every_evaluation(self, mats, basis2):
        seen = []
        pol = tip_law(mats, basis2, 50.0)

        def recording(x, t, a0):
            v = pol(x, t, a0)
            seen.append(v)
            return v

        sim(mats, basis2, recording, t_final=0.01, initial_state=release(basis2, 5e-3))
        seen = np.asarray(seen)
        assert np.max(np.abs(seen)) <= 50.0
        assert np.any(np.abs(seen) == 50.0)  # the release actually saturates

    def test_authority_loss(self, mats, basis2):
        # output weights orthogonal to M1^-1 F1 kill the decoupling gain
        w = np.linalg.solve(mats.M1, mats.F1)
        c = np.array([-w[1], w[0]])
        ctrl = ControllerConfig(k0=1.0, k1=1.0, output_weights=c)
        x = np.zeros(8)
        x[0] = 1e-3
        with pytest.raises(ControlAuthorityError):
            closed_loop(mats, 20.0, make_policy(mats, ctrl, 20.0))(x, 0.0)


class TestPolicy:
    def test_logged_voltage_is_the_law_at_each_sample(self, mats, basis2):
        pol = tip_law(mats, basis2, 50.0)
        tr = sim(mats, basis2, pol, t_final=0.004, initial_state=release(basis2, 5e-3))
        law = closed_loop(mats, 20.0, pol)
        for i in range(tr.times.size):
            assert tr.voltage[i] == law(tr.states[i], tr.times[i])[1]

    def test_logged_voltage_below_the_limit_is_the_law_to_round_off(self, mats, basis2):
        # a 1 mm release leaves the limit within 4 ms; the stage maps sum the
        # law's terms in another order than closed_loop, so an unclipped
        # sample agrees to round-off: within 1e-12 of v_max
        pol = tip_law(mats, basis2, 50.0)
        tr = sim(mats, basis2, pol, t_final=0.004, initial_state=release(basis2, 1e-3))
        law = closed_loop(mats, 20.0, pol)
        below = np.abs(tr.voltage) < 50.0
        assert 0 < below.sum() < below.size
        expected = np.array([law(x, t)[1] for x, t in zip(tr.states[below], tr.times[below])])
        assert np.max(np.abs(tr.voltage[below] - expected)) <= 1e-12 * 50.0

    def test_logged_unclipped_voltage_is_the_law_to_round_off(self, mats, basis2,
                                                              monkeypatch):
        # without v_max the law is linear feedback: RK4 steps its closed loop
        # on maps with no demand map D and logs h x + rho (lattice p)^3
        # after the run, another order of the law's terms than closed_loop's
        built = record_stage_maps(monkeypatch)
        pol = tip_law(mats, basis2)
        tr = sim(mats, basis2, pol, t_final=0.004, initial_state=release(basis2, 1e-3))
        law = closed_loop(mats, 20.0, pol)
        expected = np.array([law(x, t)[1] for x, t in zip(tr.states, tr.times)])
        # lattice p for the rows of each map, and no D
        assert built == [([math.comb(2 + 2, 3)] * 4, None)]
        assert np.all(expected != 0.0)
        assert np.max(np.abs(tr.voltage - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("t_final", [0.0, 2e-5], ids=["last_sample", "in_a_step"])
    def test_overflowing_demand_at_a_finite_state_runs_on(self, mats, basis2, t_final):
        # a demand that overflows at a finite state is clipped to v_max by
        # the called law; on the stage maps a non-finite demand never counts
        # as saturated, so the step is the law's own and the run goes on
        law = tip_law(mats, basis2, 50.0)
        g = np.zeros(8)
        g[0] = -1e307 * law.beta
        huge = VoltageLaw(g, law.c, law.beta, 50.0)
        x = np.zeros(8)
        x[0] = 100.0  # h x = 1e309
        cfg = config(huge, t_final=t_final, initial_state=x)
        called = simulate(cfg, mats, basis2, controller=lambda x, t, a0: huge(x, t, a0))
        folded = simulate(cfg, mats, basis2, controller=huge)
        assert np.all(called.voltage == 50.0)
        assert np.all(np.isfinite(called.states))
        assert np.array_equal(folded.states, called.states)
        assert np.array_equal(folded.voltage, called.voltage)

    @pytest.mark.parametrize("v_max", [50.0, None])
    def test_rk4_folds_the_law_and_avf_calls_it(self, mats, basis2, monkeypatch, v_max):
        # RK4 calls the law only in a step that leaves its saturation
        # regime, once per stage of that step's rk4_step; AVF calls it at
        # every stage
        law = tip_law(mats, basis2, v_max)
        calls, own_steps = [], []
        call, rk4 = VoltageLaw.__call__, dynamics.rk4_step
        monkeypatch.setattr(VoltageLaw, "__call__",
                            lambda law, x, t, a0: calls.append(t) or call(law, x, t, a0))
        monkeypatch.setattr(dynamics, "rk4_step",
                            lambda f, x, t, dt: own_steps.append(t) or rk4(f, x, t, dt))
        built = record_stage_maps(monkeypatch)
        dt = 2e-5
        fields = dict(dt=dt, t_final=0.002, initial_state=release(basis2, 1e-3))
        sim(mats, basis2, **fields)
        tr = sim(mats, basis2, law, **fields)
        assert np.any(tr.voltage != 0.0)
        # every stage map of every loop has the lattice's C(n + 2, 3) forms
        # of p for its rows.  A clipped law also steps the open loop, where
        # this release starts saturated, and each of its two loops reads
        # out the four stage demands through one (4, len z) D; no other
        # build has a D
        R = math.comb(2 + 2, 3)
        D = None if v_max is None else (4, 8 + 4 + 4 * (R + 1))
        assert built == \
            [([R] * 4, None)] + [([R] * 4, D)] * (1 if v_max is None else 2)
        assert (len(own_steps) > 0) == (v_max is not None)
        assert calls == [s for t in own_steps for s in (t, t + 0.5 * dt, t + 0.5 * dt, t + dt)]
        calls.clear()
        sim(mats, basis2, law, integrator="avf", **fields)
        assert calls

    def test_clipped_law_above_the_fold_steps_stage_maps(self, monkeypatch):
        # above _FOLDED_MAX_MODES a clipped law steps the regime maps too:
        # u_s = [cubic force; rho (lattice p)^3; v_s], so each loop it
        # enters reads the four stage demands through one (4, len z) D
        n = 6
        assert n > dynamics._FOLDED_MAX_MODES
        basis, m = model(n, **ZETA_6)
        law = tip_law(m, basis, 200.0)
        built = record_stage_maps(monkeypatch)
        sim(m, basis, law, dt=2e-6, t_final=4e-5, initial_state=release(basis, 1e-3))
        R, z = math.comb(n + 2, 3), 4 * n + 4 + 4 * (n + 2)
        assert built and all(entry == ([R] * 4, (4, z)) for entry in built)

    def test_one_law_evaluation_per_rk4_stage(self, mats, basis2):
        # four stages per step, the first one shared with the voltage sample,
        # plus the sample at the last time
        pol = tip_law(mats, basis2)
        calls = []

        def counting(x, t, a0):
            calls.append(t)
            return pol(x, t, a0)

        tr = sim(mats, basis2, counting, t_final=0.002, initial_state=release(basis2, 1e-4))
        nsteps = tr.times.size - 1
        assert nsteps == 100
        assert len(calls) == 4 * nsteps + 1

    @pytest.mark.parametrize("case", ["unsaturated", "clipped", "nan"])
    def test_law_is_the_textbook_law(self, mats, basis2, case):
        # v = (-k0*y - k1*yd - c.a0)/beta with y = c.p and yd = c.pdot, at
        # random states and drifts of the sizes a release produces
        ctrl = tip_controller(mats, basis2)
        c, beta = ctrl.output_weights, float(ctrl.output_weights @ mats.b)
        rng = np.random.default_rng(11)
        xs = rng.normal(size=(200, 8)) * np.repeat([1e-3, 1e-4, 0.3, 0.03], 2)
        a0s = rng.normal(scale=300.0, size=(200, 2))
        if case == "nan":  # p1, pd2 or a0_2 is NaN, in turn; saturation keeps it
            xs[0::3, 0] = xs[1::3, 5] = a0s[2::3, 1] = np.nan
            ctrl = dataclasses.replace(ctrl, v_max=50.0)
        expected = []
        for x, a0 in zip(xs, a0s):
            y, yd = float(c @ x[:2]), float(c @ x[4:6])
            expected.append((-ctrl.k0 * y - ctrl.k1 * yd - float(c @ a0)) / beta)
        expected = np.array(expected)
        if case == "clipped":
            ctrl = dataclasses.replace(ctrl, v_max=float(np.median(np.abs(expected))))
            expected = np.clip(expected, -ctrl.v_max, ctrl.v_max)
        law = make_policy(mats, ctrl, 20.0)
        got = np.array([law(x, 0.0, a0) for x, a0 in zip(xs, a0s)])
        if case == "nan":
            assert np.all(np.isnan(got)) and np.all(np.isnan(expected))
            return
        assert_allclose(got, expected, rtol=1e-13, atol=0.0)
        if case == "clipped":
            clipped = np.abs(expected) == ctrl.v_max
            assert 50 < clipped.sum() < 150
            assert np.array_equal(got[clipped], expected[clipped])

    def test_authority_checked_when_built(self, mats):
        w = np.linalg.solve(mats.M1, mats.F1)
        ctrl = ControllerConfig(k0=1.0, k1=1.0, output_weights=np.array([-w[1], w[0]]))
        with pytest.raises(ControlAuthorityError):
            make_policy(mats, ctrl, 20.0)

    @pytest.mark.parametrize("weights", [[1.0], [1.0, 0.0, 0.0]])
    def test_weights_of_another_length_rejected_when_built(self, mats, weights):
        ctrl = ControllerConfig(k0=1.0, k1=1.0, output_weights=weights)
        with pytest.raises(ValueError, match=r"output_weights .* n = 2"):
            make_policy(mats, ctrl, 20.0)


class TestControllerConfig:
    def test_rejects_non_hurwitz(self):
        with pytest.raises(ValueError):
            ControllerConfig(k0=-1.0, k1=1.0, output_weights=[1.0])
        with pytest.raises(ValueError):
            ControllerConfig(k0=1.0, k1=0.0, output_weights=[1.0])

    @pytest.mark.parametrize("k0, k1", [
        (float("nan"), float("nan")), (1.0, float("nan")), (float("inf"), 1.0)])
    def test_rejects_nonfinite_gains(self, k0, k1):
        with pytest.raises(ValueError, match="Hurwitz"):
            ControllerConfig(k0=k0, k1=k1, output_weights=[1.0, 0.0])

    @pytest.mark.parametrize("weights", [[0.0, 0.0], [float("nan"), 1.0], [1.0, float("inf")]])
    def test_rejects_zero_weights(self, weights):
        with pytest.raises(ValueError, match="output_weights"):
            ControllerConfig(k0=1.0, k1=1.0, output_weights=weights)

    @pytest.mark.parametrize("v_max", [0.0, -5.0, float("nan")])
    def test_rejects_nonpositive_v_max(self, v_max):
        with pytest.raises(ValueError, match="v_max"):
            ControllerConfig(k0=1.0, k1=1.0, output_weights=[1.0], v_max=v_max)

    def test_is_frozen(self):
        # its rules hold for its life: a value assigned later would skip them,
        # and a law built from it would log -5 V at every sample
        ctrl = ControllerConfig(k0=1.0, k1=1.0, output_weights=[1.0], v_max=50.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctrl.v_max = -5.0
        assert ctrl.v_max == 50.0
        with pytest.raises(ValueError, match="v_max"):
            dataclasses.replace(ctrl, v_max=-5.0)
