"""Diff the CLI outputs of a parent commit against the working tree and write ROUNDOFF_<pr>.json.

    python3 tools/diff_outputs.py --parent REF --pr N

The parent ref is extracted with `git archive` into a temporary directory
outside the repository (bench_pairs.parent_tree; removed at the end, as
are both sides' outputs); the change side is this checkout's working tree.
Each side runs the same CLI matrix, one call at a time, with its own `src`
on PYTHONPATH:
`--scenario {free, disturbance, all} x --controller {on, off}` at
`--tfinal TFINAL` and the default config, each call into its own directory
with its stdout kept there as `stdout.txt`, and one `--export-matrices`
call.  The file written lists every output file as byte-identical,
different, or present on one side only.  For a CSV that differs it gives
each column's largest |change - parent| relative to the column's peak
|parent| (null where that peak is 0 but the column moved) and the first
data row, counted from 0, where the column differs (null where it does
not); for a JSON file,
every value that differs, under its dotted key path; for any other file,
the lines that differ.  It also records each call's exit code per side,
the `matrices_sha256` values of each side's manifests and the SHA-256 of
each side's exported matrices.  Standard library and numpy only.
"""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from bench_pairs import ROOT, parent_tree

TFINAL = 0.05  # s: 2 501 samples at the default dt, seconds per call
MATRICES = "matrices.txt"


def cases():
    """{directory name: CLI arguments} of the matrix, each call writing
    into its working directory."""
    out = {f"{scenario}_{state}": ["--scenario", scenario, "--controller", state,
                                   "--tfinal", repr(TFINAL), "--out", "."]
           for scenario in ("free", "disturbance", "all") for state in ("on", "off")}
    out["export"] = ["--export-matrices", MATRICES]
    return out


def run_matrix(root, into):
    """Run every case with the checkout root's package, each in its own
    directory under into; returns {case: exit code}."""
    env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"))
    codes = {}
    for name, argv in cases().items():
        where = Path(into) / name
        where.mkdir(parents=True)
        proc = subprocess.run([sys.executable, "-m", "piezobeam.cli", *argv], cwd=where,
                              env=env, capture_output=True)
        (where / "stdout.txt").write_bytes(proc.stdout)
        codes[name] = proc.returncode
    return codes


def files(top):
    """Every file under top, by its '/'-separated path relative to top."""
    top = Path(top)
    return {p.relative_to(top).as_posix(): p for p in sorted(top.rglob("*")) if p.is_file()}


def csv_shift(parent, change):
    """{column: {"shift": its largest |change - parent| over its peak
    |parent|, "first_row": its first differing data row}} from two CSV texts
    with one header line; a table of another shape or header gives
    {"shape": [parent's, change's]} instead."""
    heads = [text.split("\n", 1)[0].split(",") for text in (parent, change)]
    a, b = (np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
            for text in (parent, change))
    if heads[0] != heads[1] or a.shape != b.shape:
        return {"shape": [[heads[0], list(a.shape)], [heads[1], list(b.shape)]]}
    shift, peak = np.abs(b - a).max(axis=0), np.abs(a).max(axis=0)
    first = [int(moved.argmax()) if moved.any() else None for moved in (b != a).T]
    return {name: {"shift": float(s / p) if p > 0 else (0.0 if s == 0 else None),
                   "first_row": row}
            for name, s, p, row in zip(heads[0], shift, peak, first)}


def flatten(doc, prefix=""):
    """{dotted key path: leaf value} of a JSON document."""
    if isinstance(doc, dict) and doc:
        out = {}
        for key, value in doc.items():
            out.update(flatten(value, f"{prefix}{key}."))
        return out
    return {prefix[:-1]: doc}


def json_shift(parent, change):
    """{key path: [parent's value, change's value]} for every leaf that
    differs between two JSON texts; a missing leaf reads null."""
    a, b = flatten(json.loads(parent)), flatten(json.loads(change))
    return {key: [a.get(key), b.get(key)] for key in sorted(a.keys() | b.keys())
            if a.get(key) != b.get(key)}


def line_shift(parent, change):
    """[line number, parent's line, change's line] for every line that
    differs; a missing line reads null."""
    a, b = parent.splitlines(), change.splitlines()
    a, b = a + [None] * (len(b) - len(a)), b + [None] * (len(a) - len(b))
    return [[k + 1, x, y] for k, (x, y) in enumerate(zip(a, b)) if x != y]


def compare(parent, change):
    """The ledger of two output trees: byte-identical files, the shift of
    each file that differs, and the files present on one side only."""
    a, b = files(parent), files(change)
    out = {"identical": [], "different": {},
           "parent_only": sorted(a.keys() - b.keys()),
           "change_only": sorted(b.keys() - a.keys())}
    for name in sorted(a.keys() & b.keys()):
        old, new = a[name].read_bytes(), b[name].read_bytes()
        if old == new:
            out["identical"].append(name)
            continue
        shift = {".csv": csv_shift, ".json": json_shift}.get(a[name].suffix, line_shift)
        out["different"][name] = shift(old.decode(), new.decode())
    return out


def shas(top):
    """The sorted matrices_sha256 values of the manifests under top, and
    the SHA-256 of each exported matrices file."""
    found = files(top)
    manifests = {json.loads(p.read_text()).get("matrices_sha256")
                 for name, p in found.items() if name.endswith("_manifest.json")}
    return {"manifests": sorted(manifests - {None}),
            "exported": {name: hashlib.sha256(p.read_bytes()).hexdigest()
                         for name, p in found.items() if p.name == MATRICES}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent commit")
    ap.add_argument("--pr", required=True, type=int, help="N of the ROUNDOFF_N.json written")
    args = ap.parse_args(argv)

    with parent_tree(args.parent) as (parent_commit, tree), tempfile.TemporaryDirectory(
            prefix="diff-outputs-", ignore_cleanup_errors=True) as tmp:
        tmp, sides = Path(tmp), {"parent": tree, "change": ROOT}
        codes = {name: run_matrix(root, tmp / name) for name, root in sides.items()}
        out = {"what": ("piezobeam CLI outputs, parent commit (a git archive) against "
                        "the working tree: every --scenario x --controller case at "
                        f"--tfinal {TFINAL:g} and the default config, and "
                        "--export-matrices. CSV shifts are per column, largest "
                        "|change - parent| over the column's peak |parent|, "
                        "and the first data row (from 0) where it differs."),
               "parent_commit": parent_commit, "cases": cases(), "exit_codes": codes,
               "matrices_sha256": {name: shas(tmp / name) for name in sides},
               **compare(tmp / "parent", tmp / "change")}
    path = ROOT / f"ROUNDOFF_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"written {path}: {len(out['identical'])} identical, "
          f"{len(out['different'])} different, "
          f"{len(out['parent_only']) + len(out['change_only'])} on one side only")
    return 0


if __name__ == "__main__":
    sys.exit(main())
