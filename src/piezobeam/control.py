"""Feedback-linearization voltage law on the tip-deflection output.

The tip deflection y = sum_j phi_j(L) p_j has relative degree two with
respect to the piezo voltage, so cancelling the modeled flexural dynamics
through the input leaves ydd + k1*yd + k0*y = 0 in closed loop.
"""

import math
from dataclasses import dataclass

import numpy as np

from .assembly import check

AUTHORITY_TOLERANCE = 1e-12  # least |beta|, the output's acceleration per volt


class ControlAuthorityError(RuntimeError):
    def __init__(self, beta):
        super().__init__(f"loss of control authority: decoupling gain {beta:.3g} "
                         "below tolerance (output weights nearly orthogonal to F1)")
        self.beta = beta


@dataclass(frozen=True)
class ClosedLoopSpec:
    """A closed-loop bandwidth omega_cl and damping ratio zeta_cl, for the
    polynomial s^2 + k1 s + k0 with k0 = omega_cl^2 and k1 = 2 zeta_cl
    omega_cl; frozen, so its rules always hold."""

    omega_cl: float
    zeta_cl: float

    def __post_init__(self):
        k0, k1 = self.gains
        rule = "must be finite and > 0 and give a finite closed-loop gain > 0"
        check(self, (("omega_cl", 0 < self.omega_cl < math.inf and 0 < k0 < math.inf, rule),
                     ("zeta_cl", 0 < self.zeta_cl < math.inf and 0 < k1 < math.inf, rule)))

    @property
    def gains(self):
        return self.omega_cl * self.omega_cl, 2.0 * self.zeta_cl * self.omega_cl


def design_gains(omega_cl, zeta_cl):
    """Closed-loop polynomial s^2 + k1*s + k0 from (bandwidth, damping), as
    (k0, k1); assembly.SpecError (a ValueError) unless ClosedLoopSpec's rules
    hold."""
    return ClosedLoopSpec(omega_cl, zeta_cl).gains


@dataclass(frozen=True)
class ControllerConfig:
    """The law's gains, weights and limit; frozen, so its rules always hold."""

    k0: float
    k1: float
    output_weights: np.ndarray
    v_max: float = None

    def __post_init__(self):
        w = np.asarray(self.output_weights, dtype=float)
        object.__setattr__(self, "output_weights", w)
        hurwitz = "closed-loop polynomial must be Hurwitz (k0, k1 finite and > 0)"
        check(self, (("k0", 0 < self.k0 < math.inf, hurwitz),
                     ("k1", 0 < self.k1 < math.inf, hurwitz),
                     ("output_weights", np.isfinite(w).all() and np.any(w),
                      "must be finite and not all zero"),
                     ("v_max", self.v_max is None or self.v_max > 0,
                      "must be > 0, or None for no saturation")))


@dataclass(frozen=True, eq=False)
class VoltageLaw:
    """The linearizing voltage law as data: v = -(g . x + c . a0) / beta,
    clipped to +-v_max unless v_max is None.  g is k0*y + k1*yd, for the
    output y = c . p and its rate yd = c . pdot, as one row on the state, c
    the output weights and beta = c b the output's acceleration per volt; g
    and c are read-only.

    Called as law(x, t, a0) it is a voltage policy (see closed_loop) that
    does not read t.  simulate's RK4 runs step its closed loop
    (assembly.StateOperator.build) and, with v_max, the open loop at
    +-v_max while it saturates, read its four stage demands through one
    map, and call it only in a step that leaves its regime, at every mode
    count (see dynamics.simulate).
    """

    g: np.ndarray
    c: np.ndarray
    beta: float
    v_max: float  # None for no saturation

    def __call__(self, x, t, a0):
        v = -(float(self.g.dot(x)) + float(self.c.dot(a0))) / self.beta
        if self.v_max is not None:
            v = min(max(v, -self.v_max), self.v_max)
        return v


def make_policy(mats, ctrl, omega):
    """The linearizing VoltageLaw (x, t, a0) -> volts for closed_loop, where
    a0 is the flexural acceleration at zero voltage; the measured
    disturbance is not fed forward.

    The output's acceleration per volt, beta = c M1^-1 F1, does not depend
    on omega, and omega is not read.  Raises ValueError unless there are n
    output weights, and ControlAuthorityError if |beta| < AUTHORITY_TOLERANCE.
    """
    c = np.array(ctrl.output_weights, dtype=float)
    if c.shape != (mats.n,):
        raise ValueError(f"output_weights has shape {c.shape}, need the model's n = {mats.n}")
    beta = float(c @ mats.b)
    if abs(beta) < AUTHORITY_TOLERANCE:
        raise ControlAuthorityError(beta)
    n = mats.n
    g = np.zeros(4 * n)
    g[:n] = ctrl.k0 * c
    g[2 * n:3 * n] = ctrl.k1 * c
    g.flags.writeable = c.flags.writeable = False
    return VoltageLaw(g, c, beta, ctrl.v_max)
