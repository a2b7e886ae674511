import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_modes.py"
spec = importlib.util.spec_from_file_location("bench_modes", PATH)
bench_modes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_modes)


def test_summary_of_canned_calls():
    calls = {"uncontrolled_n2": {"n": 2, "dt": 2e-5, "steps": 2000,
                                 "parent": [6.0, 6.5, 7.0], "change": [5.0, 5.5, 4.5]},
             "clipped_release_n2": {"n": 2, "dt": 2e-5, "steps": 2000,
                                    "parent": [9.0, 9.5, 9.0], "change": [9.0, 9.6, 8.0],
                                    "saturated": {"parent": True, "change": True}}}
    cases = bench_modes.summarize(calls)
    uncontrolled = cases["uncontrolled_n2"]
    assert (uncontrolled["n"], uncontrolled["dt"], uncontrolled["steps"]) == (2, 2e-5, 2000)
    assert uncontrolled["parent"]["runs"] == [6.0, 6.5, 7.0]
    assert uncontrolled["change"]["median"] == 5.0
    assert uncontrolled["change_wins"] == 3
    assert uncontrolled["speedup_of_medians"] == pytest.approx(6.5 / 5.0, rel=1e-15)
    assert "saturated" not in uncontrolled
    # a tie counts for neither side
    released = cases["clipped_release_n2"]
    assert released["change_wins"] == 1
    assert released["saturated"] == {"parent": True, "change": True}


def test_cases_cover_the_mode_counts_and_the_clipped_law():
    names = [name for name, _, _ in bench_modes.CASES]
    assert len(set(names)) == len(names)
    assert [n for name, n, law in bench_modes.CASES if law is None] == [1, 2, 3, 4, 6, 8, 12]
    assert {law for _, _, law in bench_modes.CASES} == {
        None, "unclipped", "clipped", "clipped_release"}
