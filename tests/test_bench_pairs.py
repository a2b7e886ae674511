import importlib.util
import json
from pathlib import Path

import pytest

from piezobeam import dynamics

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


# TIMING's output for two cases, three pairs of calls each
CALLS = {"uncontrolled_n2": {"n": 2, "dt": 2e-5, "steps": 2000,
                             "parent": [6.0, 6.5, 7.0], "change": [5.0, 5.5, 4.5]},
         "clipped_release_n2": {"n": 2, "dt": 2e-5, "steps": 2000,
                                "parent": [9.0, 9.5, 9.0], "change": [9.0, 9.6, 8.0],
                                "saturated": {"parent": True, "change": True}}}


def last_line(steps_per_s, run_s, attempted, failed=0):
    """The last-line JSON object of one perfbench/run.py --trace 0 run."""
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"steps_per_s": {"value": steps_per_s, "unit": "1/s"},
                        "run_s": {"value": run_s, "unit": "s"}}}


def test_summary_of_canned_pairs():
    pairs = [(last_line(100.0, 2.0, 10), last_line(150.0, 2.0, 12)),
             (last_line(110.0, 1.0, 11), last_line(105.0, 0.5, 13, failed=1)),
             (last_line(90.0, 3.0, 9), last_line(160.0, 4.0, 14)),
             (last_line(120.0, 4.0, 12), last_line(170.0, 1.0, 15))]
    out = bench_pairs.summarize(pairs, {"steps_per_s": "higher", "run_s": "lower"})
    assert out["pairs"] == 4
    assert out["operations"] == {
        "parent": {"attempted": 42, "failed": 0, "all_correct": True},
        "change": {"attempted": 54, "failed": 1, "all_correct": False}}
    steps = out["metrics"]["steps_per_s"]
    assert steps["unit"] == "1/s" and steps["better"] == "higher"
    assert steps["parent"]["runs"] == [100.0, 110.0, 90.0, 120.0]
    # numpy.percentile([90, 100, 110, 120], [25, 50, 75]) = 97.5, 105, 112.5
    assert (steps["parent"]["q1"], steps["parent"]["median"], steps["parent"]["q3"]) \
        == pytest.approx((97.5, 105.0, 112.5), rel=1e-15)
    assert steps["change"]["median"] == pytest.approx(155.0, rel=1e-15)
    assert steps["change_wins"] == 3
    assert steps["ratio_of_medians"] == pytest.approx(155.0 / 105.0, rel=1e-15)
    # lower is better; the tie in the first pair counts for neither side
    run = out["metrics"]["run_s"]
    assert run["change_wins"] == 2
    assert run["parent"]["median"] == 2.5 and run["change"]["median"] == 1.5


def test_one_pair_is_its_own_quartiles():
    out = bench_pairs.summarize([(last_line(1.0, 1.0, 1), last_line(2.0, 1.0, 1))],
                                {"steps_per_s": "higher"})
    assert out["metrics"]["steps_per_s"]["change"] == {
        "median": 2.0, "q1": 2.0, "q3": 2.0, "runs": [2.0]}


def test_traced_entry_of_a_canned_run():
    result = {"correct": True, "attempted": 196, "failed": 0,
              "metrics": {"control.policy_calls": {"value": 802.0, "unit": "count"},
                          "cli.csv_bytes": {"value": 78440.0, "unit": "B"},
                          "trace.overhead_s": {"value": 0.5, "unit": "s"}}}
    out = bench_pairs.traced(result, ["control.policy_calls", "cli.csv_bytes"])
    assert out == {"control.policy_calls": 802.0, "cli.csv_bytes": 78440.0,
                   "operations": {"attempted": 196, "failed": 0, "all_correct": True}}
    with pytest.raises(KeyError):
        bench_pairs.traced(result, ["dynamics.steps"])


def test_summary_of_canned_step_times():
    cases = bench_pairs.summarize_steps(CALLS)
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
    names = [name for name, _, _ in bench_pairs.CASES]
    assert len(set(names)) == len(names)
    assert [n for name, n, law in bench_pairs.CASES if law is None] == [1, 2, 3, 4, 6, 8, 12]
    assert {law for _, _, law in bench_pairs.CASES} == {
        None, "unclipped", "clipped", "clipped_switching", "clipped_release"}
    # a saturating release and a switching one on the regime maps at each
    # side of the layout boundary: with the cubes in u_s up to
    # _FOLDED_MAX_MODES, with the cubic force in u_s above
    released = [n for _, n, law in bench_pairs.CASES if law == "clipped_release"]
    switching = [n for _, n, law in bench_pairs.CASES if law == "clipped_switching"]
    assert released == [6, 2] and switching == [2, 6]
    assert released[1] <= dynamics._FOLDED_MAX_MODES < released[0]


def test_timing_in_a_fresh_process(monkeypatch):
    # TIMING itself, this checkout on both sides, shortened to 10 steps
    cases = [bench_pairs.CASES[0], bench_pairs.CASES[-1]]
    for name, value in (("CASES", cases), ("STEPS", 10), ("ROUNDS", 3)):
        monkeypatch.setattr(bench_pairs, name, value)
    out = bench_pairs.timing(bench_pairs.ROOT, bench_pairs.ROOT)
    assert list(out) == ["uncontrolled_n1", "clipped_release_n2"]
    for name, n, _ in cases:
        assert (out[name]["n"], out[name]["dt"], out[name]["steps"]) == (n, 2e-5, 10)
        assert len(out[name]["parent"]) == len(out[name]["change"]) == 3
        assert all(us > 0.0 for us in out[name]["parent"] + out[name]["change"])
    assert "saturated" not in out["uncontrolled_n1"]
    # a 5 mm release saturates the 200 V clip within its first 10 steps
    assert out["clipped_release_n2"]["saturated"] == {"parent": True, "change": True}


def test_parent_tree_is_removed_on_exit(monkeypatch):
    revs = []

    def git(*args):
        revs.append(args)
        return b"1" * 40 + b"\n"

    monkeypatch.setattr(bench_pairs, "git", git)
    monkeypatch.setattr(bench_pairs, "extract",
                        lambda ref, into: (Path(into) / "REF").write_text(ref))
    with pytest.raises(KeyError):
        with bench_pairs.parent_tree("base") as (commit, tree):
            assert commit == "1" * 40 and (tree / "REF").read_text() == commit
            raise KeyError
    assert revs == [("rev-parse", "--verify", "base^{commit}")]
    assert not tree.exists()


def test_default_call_in_a_fresh_process():
    # DEFAULT_CALL itself, on this checkout, shortened to 101 samples
    record = bench_pairs.default_call(bench_pairs.ROOT, "--tfinal", "0.002")
    assert record["exit_code"] == 0
    assert record["write_csv_calls"] == 3
    assert 0.0 < record["write_csv_s"] < record["wall_s"]
    assert record["peak_rss_mb"] > 0.0
    assert sorted(record["csv_sha256"]) == ["disturbance_off.csv", "disturbance_on.csv",
                                            "free_on.csv"]


def test_main_records_each_sides_default_call(tmp_path, monkeypatch):
    # no benchmark runs: run_once and default_call give canned records
    bench = {"workloads": [{"name": "w"}],
             "end_to_end": [{"name": "run_s", "better": "lower"}],
             "per_layer": [{"name": "cli.csv_bytes"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))
    parent_trees, calls, timed = [], [], []

    def extract(ref, into):
        parent_trees.append(Path(into))

    def timing(parent, change):
        timed.append((Path(parent), Path(change)))
        return CALLS

    def run_once(root, workload, seed, seconds, trace=0):
        result = last_line(1.0, 2.0 if root == tmp_path else 3.0, 5)
        result["metrics"]["cli.csv_bytes"] = {"value": 9.0, "unit": "B"}
        return result

    def default_call(root):
        calls.append(Path(root))
        parent = root != tmp_path
        return {"exit_code": 0, "wall_s": (6.0 if parent else 4.0) + len(calls),
                "write_csv_s": 1.0, "write_csv_calls": 3, "peak_rss_mb": 80.0,
                "csv_sha256": {"free_on.csv": "ab"}}

    for name, fake in (("git", lambda *args: b"1" * 40 + b"\n"), ("extract", extract),
                       ("run_once", run_once), ("default_call", default_call),
                       ("timing", timing), ("ROOT", tmp_path)):
        monkeypatch.setattr(bench_pairs, name, fake)
    assert bench_pairs.main(["--parent", "base", "--pr", "7", "--seeds", "1", "2"]) == 0
    out = json.loads((tmp_path / "BENCH_7.json").read_text())
    # one parent tree, removed at the end, serves every section
    assert len(parent_trees) == 1 and not parent_trees[0].exists()
    parent = parent_trees[0]
    assert timed == [(parent, tmp_path)]
    assert out["us_per_step"]["cases"] == bench_pairs.summarize_steps(CALLS)
    # three calls a side, alternating, the parent first on odd calls
    assert calls == [parent, tmp_path, tmp_path, parent, parent, tmp_path]
    calls_out = out["default_call"]
    assert calls_out["parent"]["exit_codes"] == [0, 0, 0]
    assert calls_out["parent"]["wall_s"] == {"median": 10.0, "q1": 8.5, "q3": 10.5,
                                             "runs": [7.0, 10.0, 11.0]}
    assert calls_out["change"]["wall_s"] == {"median": 7.0, "q1": 6.5, "q3": 8.5,
                                             "runs": [6.0, 7.0, 10.0]}
    assert calls_out["change"]["write_csv_calls"]["runs"] == [3, 3, 3]
    assert calls_out["same_csv_bytes"] is True
    assert out["workloads"]["w"]["metrics"]["run_s"]["change_wins"] == 2
    assert out["traced"]["w"]["change"]["cli.csv_bytes"] == 9.0


def test_one_differing_csv_clears_same_csv_bytes(tmp_path, monkeypatch):
    bench = {"workloads": [], "end_to_end": [], "per_layer": []}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))
    calls = []

    def default_call(root):
        calls.append(root)
        sha = "cd" if len(calls) == 5 else "ab"
        return {"exit_code": 0, "wall_s": 1.0, "write_csv_s": 0.5, "write_csv_calls": 3,
                "peak_rss_mb": 80.0, "csv_sha256": {"free_on.csv": sha}}

    for name, fake in (("git", lambda *args: b"1" * 40 + b"\n"),
                       ("extract", lambda ref, into: None),
                       ("default_call", default_call),
                       ("timing", lambda parent, change: {}), ("ROOT", tmp_path)):
        monkeypatch.setattr(bench_pairs, name, fake)
    assert bench_pairs.main(["--parent", "base", "--pr", "7", "--seeds", "1"]) == 0
    out = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert len(calls) == 6
    assert out["default_call"]["same_csv_bytes"] is False
