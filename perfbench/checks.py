"""Correctness checks for the benchmark, computed apart from piezobeam.

Every check compares a program output with a closed form or with a property
the method must have; none compares with a stored copy of earlier output.
Each returns a list of problems, empty when the output passes.
"""

import math

import numpy as np

RESPONSE_RTOL = 1e-6       # RK4 at dt = 2e-5: see README.md for the measured error
METRIC_RTOL = 1e-9         # CSV and printed JSON both carry 17 digits


def tip_weights(n):
    """phi_j(L) of the sigma-normalized clamped-free modes: 2*(-1)^(j+1)."""
    return np.array([2.0 if j % 2 else -2.0 for j in range(1, n + 1)])


def closed_loop_response(t, M1, target, amplitude, k0, k1, freq):
    """Tip deflection from rest under the linearizing law: the output obeys
    y'' + k1 y' + k0 y = F sin(w t), F = c.M1^-1 e_target * amplitude, with
    y(0) = y'(0) = 0; underdamped (k1^2 < 4 k0).  Steady part plus the
    decaying part that cancels it at t = 0."""
    n = M1.shape[0]
    force = amplitude * (tip_weights(n) @ np.linalg.solve(M1, np.eye(n)[:, target - 1]))
    w = 2.0 * math.pi * freq
    H = force / (k0 - w * w + 1j * k1 * w)
    sigma = 0.5 * k1
    wd = math.sqrt(k0 - sigma * sigma)
    c1 = -H.imag                          # -y_steady(0)
    c2 = (sigma * c1 - w * H.real) / wd   # from y'(0) = 0
    steady = np.imag(H * np.exp(1j * w * t))
    return steady + np.exp(-sigma * t) * (c1 * np.cos(wd * t) + c2 * np.sin(wd * t))


def response_problems(label, measured, expected, rtol=RESPONSE_RTOL):
    """The whole tip history, sample by sample, against the closed form,
    relative to its largest value."""
    if measured.shape != expected.shape:
        return [f"{label}: {measured.size} samples, the closed form has {expected.size}"]
    err = float(np.max(np.abs(measured - expected)) / np.max(np.abs(expected)))
    if not err <= rtol:
        return [f"{label}: tip history off the closed form by {err:.3g} "
                f"of its peak (> {rtol:g})"]
    return []


def first_flexural_frequency(M1, K1):
    """Lowest root of det(K1 - w^2 M1) = 0, in rad/s."""
    return math.sqrt(np.min(np.linalg.eigvals(np.linalg.solve(M1, K1)).real))


def summary_metrics(t, w, v, period1):
    """The documented run metrics, from the CSV columns alone: peak |w|,
    RMS of w over the second half, peak |v|, and the settling time (last
    time |w| reaches 1 % of its peak, if five first-mode periods follow)."""
    aw = np.abs(w)
    peak = float(aw.max())
    above = np.nonzero(aw >= 0.01 * peak)[0]
    t_last = float(t[above[-1]]) if above.size else float(t[0])
    settle = t_last if t[-1] - t_last >= 5.0 * period1 else None
    if peak == 0.0:
        settle = 0.0
    second_half = w[t >= 0.5 * t[-1]]
    return {
        "settling_time_s": settle,
        "peak_tip_m": peak,
        "rms_tip_after_transient_m": float(math.sqrt(np.dot(second_half, second_half)
                                                     / second_half.size)),
        "peak_voltage_V": float(np.abs(v).max()),
    }


def _close(a, b, rtol):
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def metrics_problems(label, printed, recomputed, rtol=METRIC_RTOL):
    problems = []
    for key, value in recomputed.items():
        if key not in printed:
            problems.append(f"{label}: metric {key} not printed")
        elif not _close(printed[key], value, rtol):
            problems.append(f"{label}: printed {key} = {printed[key]!r}, "
                            f"recomputed from the CSV {value!r}")
    return problems


def attenuation_db(rms_off, rms_on):
    return 20.0 * math.log10(rms_off / rms_on)


def saturation_problems(label, v, v_max):
    worst = float(np.abs(v).max())
    if worst > v_max:
        return [f"{label}: |v| reaches {worst!r} V above v_max = {v_max} V"]
    return []


def decay_problems(label, t, w, window):
    """The tip stays below 1 % of its peak over the final `window` seconds."""
    tail = np.abs(w[t >= t[-1] - window]).max()
    peak = np.abs(w).max()
    if not tail < 0.01 * peak:
        return [f"{label}: tip {tail:.3g} m over the last {window:.3g} s, "
                f"not below 1 % of its peak {peak:.3g} m"]
    return []
