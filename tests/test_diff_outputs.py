import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))  # diff_outputs imports bench_pairs, as it does when run
spec = importlib.util.spec_from_file_location("diff_outputs", TOOLS / "diff_outputs.py")
diff_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(diff_outputs)
bench_pairs = sys.modules["bench_pairs"]  # the module whose parent_tree diff_outputs uses

CSV = "t,p1,v_p\n0,1,0\n1,-4,0\n2,2,0\n"


def tree(top, texts):
    """Write {relative path: text} under top."""
    for name, text in texts.items():
        path = top / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return top


def manifest(sha, peak):
    return json.dumps({"matrices_sha256": sha, "outputs": {"csv": "free_on.csv"},
                       "config": {"sim": {"dt": 2e-05}}, "peak": peak})


def test_ledger_of_canned_trees(tmp_path):
    common = {"export/matrices.txt": "M1 2 2\n1 0\n0 1\n",
              "free_on/free_on.csv": CSV}
    parent = tree(tmp_path / "parent", {
        **common, "free_on/stdout.txt": "free: 1\nsame\n",
        "free_on/free_on_manifest.json": manifest("fa44", 1.0),
        "all_on/disturbance_on.csv": CSV, "old.txt": "x"})
    change = tree(tmp_path / "change", {
        **common, "free_on/stdout.txt": "free: 2\nsame\nextra\n",
        "free_on/free_on_manifest.json": manifest("fa44", 1.5),
        # p1 moves by 2e-12 at its -4 peak; v_p moves off an all-zero column
        "all_on/disturbance_on.csv": "t,p1,v_p\n0,1,0\n1,-4.000000000002,1e-300\n2,2,0\n",
        "new.txt": "y"})
    out = diff_outputs.compare(parent, change)
    assert out["identical"] == ["export/matrices.txt", "free_on/free_on.csv"]
    assert out["parent_only"] == ["old.txt"] and out["change_only"] == ["new.txt"]
    different = out["different"]
    assert sorted(different) == ["all_on/disturbance_on.csv",
                                 "free_on/free_on_manifest.json", "free_on/stdout.txt"]
    shift = different["all_on/disturbance_on.csv"]
    assert shift["t"] == {"shift": 0.0, "first_row": None}
    assert shift["v_p"] == {"shift": None, "first_row": 1}
    assert shift["p1"]["shift"] == pytest.approx(0.5e-12, rel=1e-3)
    assert different["free_on/free_on_manifest.json"] == {"peak": [1.0, 1.5]}
    assert different["free_on/stdout.txt"] == [[1, "free: 1", "free: 2"],
                                               [3, None, "extra"]]


def test_first_differing_row_of_each_column():
    change = "t,p1,v_p\n0,1,0\n1,-4,1e-300\n2,2.5,-1e-300\n"
    shift = diff_outputs.csv_shift(CSV, change)
    assert {name: col["first_row"] for name, col in shift.items()} == \
        {"t": None, "p1": 2, "v_p": 1}
    assert shift["p1"]["shift"] == 0.5 / 4


def test_tables_of_another_shape_are_not_compared():
    shift = diff_outputs.csv_shift(CSV, CSV + "3,1,0\n")
    assert shift == {"shape": [[["t", "p1", "v_p"], [3, 3]], [["t", "p1", "v_p"], [4, 3]]]}
    assert "shape" in diff_outputs.csv_shift(CSV, CSV.replace("v_p", "v"))


def test_json_leaves_by_key_path():
    parent = json.dumps({"a": {"b": 1, "c": [1, 2]}, "d": None, "e": {}})
    change = json.dumps({"a": {"b": 1, "c": [1, 3]}, "f": 0})
    assert diff_outputs.json_shift(parent, change) == {
        "a.c": [[1, 2], [1, 3]], "e": [{}, None], "f": [None, 0]}


def test_shas_of_manifests_and_exported_matrices(tmp_path):
    top = tree(tmp_path, {"free_on/free_on_manifest.json": manifest("fa44", 1.0),
                          "all_on/disturbance_on_manifest.json": manifest("fa44", 2.0),
                          "all_on/free_on_manifest.json": manifest("0b1c", 2.0),
                          "all_on/free_on_metrics.json": "{}",
                          "export/matrices.txt": ""})
    assert diff_outputs.shas(top) == {
        "manifests": ["0b1c", "fa44"],
        "exported": {"export/matrices.txt":
                     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"}}


def test_the_cli_matrix():
    cases = diff_outputs.cases()
    assert cases.pop("export") == ["--export-matrices", "matrices.txt"]
    assert sorted(cases) == ["all_off", "all_on", "disturbance_off", "disturbance_on",
                             "free_off", "free_on"]
    for name, argv in cases.items():
        scenario, state = name.split("_")
        assert argv == ["--scenario", scenario, "--controller", state,
                        "--tfinal", "0.05", "--out", "."]


def test_sides_to_compare(tmp_path, monkeypatch):
    # the parent side is extracted from its ref, the change side is the
    # checkout.  No CLI runs: each fake matrix writes the name of the tree
    # it ran in.
    commit = "1" * 40
    extracted, ran = [], []

    def git(*args):
        assert args == ("rev-parse", "--verify", "base^{commit}")
        return (commit + "\n").encode()

    def extract(ref, into):
        assert ref == commit
        extracted.append(Path(into))
        tree(Path(into), {"NAME": "parent"})

    def run_matrix(root, into):
        ran.append(Path(root))
        name = (Path(root) / "NAME").read_text() if root != tmp_path else "checkout"
        tree(Path(into), {"free_on/stdout.txt": name + "\n", "export/matrices.txt": "M\n"})
        return {"free_on": 0, "export": 0}

    for module, name, fake in ((bench_pairs, "git", git), (bench_pairs, "extract", extract),
                               (diff_outputs, "run_matrix", run_matrix),
                               (diff_outputs, "ROOT", tmp_path)):
        monkeypatch.setattr(module, name, fake)
    assert diff_outputs.main(["--parent", "base", "--pr", "7"]) == 0
    out = json.loads((tmp_path / "ROUNDOFF_7.json").read_text())
    assert out["parent_commit"] == commit
    assert ran == extracted + [tmp_path]
    assert out["identical"] == ["export/matrices.txt"]
    assert out["different"] == {"free_on/stdout.txt": [[1, "parent", "checkout"]]}
    assert out["exit_codes"] == {side: {"free_on": 0, "export": 0}
                                 for side in ("parent", "change")}
    assert not extracted[0].exists()  # the temporary tree is gone
