import numpy as np
import pytest
from numpy.testing import assert_allclose

from piezobeam import (ControlAuthorityError, ControllerConfig, ModalBasis,
                       SimConfig, assemble, control_voltage,
                       design_gains, linear_frequencies, make_policy, output,
                       simulate)

from test_dynamics import tip_release_state


def build_controller(mats, basis, zeta_cl=0.8, v_max=None):
    om_f, _ = linear_frequencies(mats, 0.0)
    k0, k1 = design_gains(om_f[0], zeta_cl)
    return ControllerConfig(k0=k0, k1=k1,
                            output_weights=basis.flexural_tip_values(),
                            v_max=v_max)


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


class TestOutput:
    def test_zero_state(self, basis2):
        y, yd = output(np.zeros(8), basis2.flexural_tip_values())
        assert y == 0.0 and yd == 0.0

    def test_n1_tip_scaling(self, beam, piezo):
        basis = ModalBasis.build(1, beam.L)
        a = 3.2e-4
        x = np.array([a, 0.0, 0.0, 0.0])
        y, _ = output(x, basis.flexural_tip_values())
        assert abs(y - basis.flexural_tip_values()[0] * a) < 1e-18
        assert abs(y - 2 * a) < 1e-9  # phi_1(L) ~ 2

    def test_ydot_consistency_with_trajectory(self, mats, basis2):
        ic = tip_release_state(basis2, 1e-4)
        tr = simulate(SimConfig(Omega=20.0, dt=2e-5, t_final=0.02,
                                initial_state=ic), mats, basis2)
        c = basis2.flexural_tip_values()
        y = tr.states[:, :2] @ c
        yd = tr.states[:, 4:6] @ c
        fd = (y[2:] - y[:-2]) / (2 * 2e-5)
        assert np.max(np.abs(fd - yd[1:-1])) < 1e-3 * np.max(np.abs(yd))


class TestControlVoltage:
    def test_zero_state_zero_voltage(self, mats, basis2):
        ctrl = build_controller(mats, basis2)
        assert control_voltage(np.zeros(8), 0.0, mats, ctrl, 20.0) == 0.0

    def test_n1_hand_formula(self, beam, piezo):
        basis = ModalBasis.build(1, beam.L)
        m = assemble(beam, piezo, basis)
        phiL = basis.flexural_tip_values()[0]
        k0, k1 = design_gains(151.7, 0.8)
        ctrl = ControllerConfig(k0=k0, k1=k1, output_weights=[phiL])
        omega = 20.0
        rng = np.random.default_rng(5)
        for _ in range(10):
            p, q, pd, qd = rng.normal(scale=1e-3, size=4)
            x = np.array([p, q, pd, qd])
            num = (-k0 * phiL * p - k1 * phiL * pd
                   + phiL / m.M1[0, 0] * (m.CB[0, 0] * pd + omega * m.C1[0, 0] * qd
                                          + (m.K1[0, 0] + omega ** 2 * m.D1[0, 0]) * p
                                          + m.G1[0, 0, 0, 0] * p ** 3))
            expected = num / (phiL * m.F1[0] / m.M1[0, 0])
            got = control_voltage(x, 0.0, m, ctrl, omega)
            assert_allclose(got, expected, rtol=1e-12)

    def test_closed_loop_residual(self, mats, basis2):
        # disturbance-free, unsaturated: ydd + k1 yd + k0 y -> 0 to O(dt^2)
        ctrl = build_controller(mats, basis2)
        pol = make_policy(mats, ctrl, 20.0)
        ic = tip_release_state(basis2, 1e-3)
        dt = 2e-5
        tr = simulate(SimConfig(Omega=20.0, dt=dt, t_final=0.2,
                                initial_state=ic, controller_on=True),
                      mats, basis2, controller=pol)
        y = tr.tip_w
        ydd = (y[2:] - 2 * y[1:-1] + y[:-2]) / dt ** 2
        yd = (y[2:] - y[:-2]) / (2 * dt)
        res = ydd + ctrl.k1 * yd + ctrl.k0 * y[1:-1]
        assert np.max(np.abs(res)) < 1e-3 * ctrl.k0 * abs(y[0])

    def test_exponential_output_decay(self, mats, basis2):
        ctrl = build_controller(mats, basis2)
        pol = make_policy(mats, ctrl, 20.0)
        ic = tip_release_state(basis2, 1e-4)
        tr = simulate(SimConfig(Omega=20.0, dt=2e-5, t_final=0.15,
                                initial_state=ic, controller_on=True),
                      mats, basis2, controller=pol)
        om_f, _ = linear_frequencies(mats, 0.0)
        rate = 0.9 * 0.8 * om_f[0]
        # underdamped 2nd-order response with yd(0)=0 peaks at |y0|/sqrt(1-zeta^2)
        amp = 1.05 * abs(tr.tip_w[0]) / np.sqrt(1.0 - 0.8 ** 2)
        envelope = amp * np.exp(-rate * tr.times)
        assert np.all(np.abs(tr.tip_w) <= envelope + 1e-15)

    def test_internal_dynamics_bounded_and_decaying(self, mats, basis2):
        ctrl = build_controller(mats, basis2)
        pol = make_policy(mats, ctrl, 20.0)
        ic = tip_release_state(basis2, 1e-3)
        tr = simulate(SimConfig(Omega=20.0, dt=2e-5, t_final=1.5,
                                initial_state=ic, controller_on=True),
                      mats, basis2, controller=pol)
        q = tr.states[:, 2:4]
        assert np.all(np.isfinite(q))
        peak = np.max(np.abs(q), axis=0)
        tail = np.max(np.abs(q[-500:]), axis=0)
        assert np.all(tail <= 0.2 * peak + 1e-18)

    def test_saturation_clips_every_evaluation(self, mats, basis2):
        ctrl = build_controller(mats, basis2, v_max=50.0)
        seen = []
        pol = make_policy(mats, ctrl, 20.0)

        def recording(x, t, a0):
            v = pol(x, t, a0)
            seen.append(v)
            return v

        ic = tip_release_state(basis2, 5e-3)
        simulate(SimConfig(Omega=20.0, dt=2e-5, t_final=0.01,
                           initial_state=ic, controller_on=True),
                 mats, basis2, controller=recording)
        seen = np.asarray(seen)
        assert np.max(np.abs(seen)) <= 50.0
        assert np.any(np.abs(seen) == 50.0)  # the release actually saturates

    def test_authority_loss(self, mats, basis2):
        # output weights orthogonal to M1^-1 F1 kill the decoupling gain
        w = np.linalg.solve(mats.M1, mats.F1)
        c = np.array([-w[1], w[0]])
        ctrl = ControllerConfig(k0=1.0, k1=1.0, output_weights=c,
                               authority_tolerance=1e-9)
        x = np.zeros(8)
        x[0] = 1e-3
        with pytest.raises(ControlAuthorityError):
            control_voltage(x, 0.0, mats, ctrl, 20.0)


class TestPolicy:
    def test_logged_voltage_is_the_law_at_each_sample(self, mats, basis2):
        ctrl = build_controller(mats, basis2, v_max=50.0)
        ic = tip_release_state(basis2, 5e-3)
        tr = simulate(SimConfig(Omega=20.0, dt=2e-5, t_final=0.004,
                                initial_state=ic, controller_on=True),
                      mats, basis2, controller=make_policy(mats, ctrl, 20.0))
        for i in range(tr.times.size):
            assert tr.voltage[i] == control_voltage(tr.states[i], tr.times[i],
                                                    mats, ctrl, 20.0)

    def test_one_law_evaluation_per_rk4_stage(self, mats, basis2):
        # four stages per step, the first one shared with the voltage sample,
        # plus the sample at the last time
        pol = make_policy(mats, build_controller(mats, basis2), 20.0)
        calls = []

        def counting(x, t, a0):
            calls.append(t)
            return pol(x, t, a0)

        ic = tip_release_state(basis2, 1e-4)
        tr = simulate(SimConfig(Omega=20.0, dt=2e-5, t_final=0.002,
                                initial_state=ic, controller_on=True),
                      mats, basis2, controller=counting)
        nsteps = tr.times.size - 1
        assert nsteps == 100
        assert len(calls) == 4 * nsteps + 1

    def test_authority_checked_when_built(self, mats):
        w = np.linalg.solve(mats.M1, mats.F1)
        ctrl = ControllerConfig(k0=1.0, k1=1.0, output_weights=np.array([-w[1], w[0]]),
                                authority_tolerance=1e-9)
        with pytest.raises(ControlAuthorityError):
            make_policy(mats, ctrl, 20.0)


class TestControllerConfig:
    def test_rejects_non_hurwitz(self):
        with pytest.raises(ValueError):
            ControllerConfig(k0=-1.0, k1=1.0, output_weights=[1.0])
        with pytest.raises(ValueError):
            ControllerConfig(k0=1.0, k1=0.0, output_weights=[1.0])

    def test_rejects_zero_weights(self):
        with pytest.raises(ValueError):
            ControllerConfig(k0=1.0, k1=1.0, output_weights=[0.0, 0.0])

    @pytest.mark.parametrize("v_max", [0.0, -5.0, float("nan")])
    def test_rejects_nonpositive_v_max(self, v_max):
        with pytest.raises(ValueError, match="v_max"):
            ControllerConfig(k0=1.0, k1=1.0, output_weights=[1.0], v_max=v_max)
