"""Tests of the benchmark itself: each workload at a tiny size, each check
against a perturbed result, and the command's output contract.

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def run_round(wl, seed=0):
    ctx = wl.setup()
    inputs = wl.draw(np.random.default_rng(seed))
    outcomes = wl.run(ctx, inputs)
    return ctx, inputs, outcomes, wl.check(ctx, inputs, outcomes)


def assert_clean(outcomes, found):
    assert len(found) == len(outcomes)
    assert not [o for o in outcomes if isinstance(o, Exception)]
    assert not [p for ps in found for p in ps]


def test_scenario_all_round(tmp_path):
    _, _, outcomes, found = run_round(workloads.ScenarioAll(tmp_path / "out"))
    assert_clean(outcomes, found)
    assert len(outcomes) == 1


def test_freq_sweep_round():
    _, (freq, omega), outcomes, found = run_round(workloads.FreqSweep())
    assert_clean(outcomes, found)
    assert 25.0 <= freq <= 150.0 and 5.0 <= omega <= 200.0


def test_grids_follow_the_seed():
    wl = workloads.FreqSweep()
    a = wl.draw(np.random.default_rng(7))
    assert a == wl.draw(np.random.default_rng(7))
    assert a != wl.draw(np.random.default_rng(8))


def test_response_check_rejects_a_small_error():
    fs = workloads.FreqSweep()
    ctx, (freq, _), (traj,), _ = run_round(fs, seed=3)
    expected = checks.closed_loop_response(traj.times, ctx["mats"].M1, 1,
                                           workloads.DRIVE_AMPLITUDE,
                                           ctx["ctrl"].k0, ctx["ctrl"].k1, freq)
    assert checks.response_problems("exact", traj.tip_w, expected) == []
    for scale in (1.01, 0.99, 1.0 + 1e-5):
        assert checks.response_problems("scaled", scale * traj.tip_w, expected)
    assert checks.response_problems("late", traj.tip_w[1:], expected[:-1])
    assert checks.response_problems("short", traj.tip_w[:-1], expected)


def test_closed_loop_response_solves_its_ode():
    M1 = np.diag([2.0, 3.0])
    k0, k1, freq = 150.0 ** 2, 2.0 * 0.8 * 150.0, 40.0
    t = np.linspace(0.0, 0.05, 20001)
    y = checks.closed_loop_response(t, M1, 1, 0.5, k0, k1, freq)
    h = t[1] - t[0]
    yd = np.gradient(y, h)
    ydd = np.gradient(yd, h)
    force = 0.5 * np.sin(2 * np.pi * freq * t)   # c_1 / M1_11 = 2 / 2
    residual = ydd + k1 * yd + k0 * y - force
    assert np.max(np.abs(residual[2:-2])) < 1e-4 * np.max(np.abs(force))
    assert y[0] == pytest.approx(0.0, abs=1e-18)
    assert yd[0] == pytest.approx(0.0, abs=1e-4 * np.max(np.abs(yd)))


def test_fastest_sums_the_minimum_of_each_stretch():
    rounds = [([1.0, 5.0, 2.0], 100), ([2.0, 4.0, 3.0], 100),
              ([0.5], 0)]          # a round that never reached simulate
    seconds, rate = run.fastest(rounds)
    assert seconds == 7.0 and rate == 25.0


def command(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_result_last(trace):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    kind = "end_to_end" if trace == "0" else "per_layer"
    p = command(BENCH.parent, "--workload", "freq_sweep", "--seed", "3",
                "--seconds", "1", "--trace", trace)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec[kind]} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    p = command(tmp_path, "--workload", "freq_sweep", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert "{" not in p.stdout
