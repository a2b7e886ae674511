"""Benchmark a parent commit against the working tree and write BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent REF --pr N --seeds S1 S2 ...

The parent ref is extracted with `git archive` into a temporary directory
outside the repository (removed at the end); the change side is this
checkout's working tree.  For each workload of BENCHMARK.json, and each seed
in turn, it runs `perfbench/run.py --trace 0` for BENCHMARK.json's
run_seconds once on each side, one run at a time, the parent first on the
first, third, ... pair; then one
`--trace 1` run of TRACE_SECONDS per side with the first seed.  Each run's
value of a metric is the `value` that run.py's last-line JSON gives it.  The
file written holds, per workload and end-to-end metric of BENCHMARK.json,
every run, the median and quartiles of each side, the pairs the change won
and the ratio of the medians; the operations attempted and failed per side;
under "traced", each side's per-layer metrics of BENCHMARK.json and
operations from its traced run; under "default_call", DEFAULT_CALLS
default-length `piezobeam --scenario all --controller on` calls per side
(DEFAULT_CALL), alternating as the pairs do, which the workloads' short
rounds cannot show: each side's exit codes and the runs, median and
quartiles of each timed value, and whether every call wrote the same CSV
bytes; under "us_per_step", the µs per RK4 step of each case of CASES
(TIMING); nproc and the Python and numpy versions.  Standard library only.

Each case of CASES is one `simulate` run of STEPS steps, timed as its
wall time over its steps.  Both sides run in one fresh interpreter, each
checkout's `src/piezobeam` loaded as its own package, so that a pair of
calls sees one phase of a shared machine: after one untimed call per side,
ROUNDS pairs alternate as the workloads' pairs do.  Per case the section
holds n, dt and steps, each side's calls with their median and quartiles,
the pairs the change won, the parent's median over the change's and, under
a law, whether each side's run saturated.
"""

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 perfbench/run.py --workload W --seed N --seconds S --trace 0"
TRACE_SECONDS = 10.0
DEFAULT_CALLS = 3  # DEFAULT_CALL runs per side
DEFAULT_TIMED = ("wall_s", "write_csv_s", "write_csv_calls", "peak_rss_mb")
STEPS, ROUNDS = 2000, 20  # TIMING's steps per call and pairs of calls per case
# (name, n, law): uncontrolled disturbance runs at each n, then runs under
# the linearizing law, unclipped or clipped at 200 V.  The clipped
# disturbance run never saturates, a 1 mm release switches in and out of
# saturation (saturated at 46 % of its samples at n = 2, and at 95 % with 103
# switches at n = 6), and a 5 mm release stays saturated (98 %, 99 %); at
# n = 6, where the stage maps no longer apply the cubic force themselves
# (see dynamics._run_rk4), a clipped law steps the same regime maps, whose
# u_s holds the cubic force
CASES = [(f"uncontrolled_n{n}", n, None) for n in (1, 2, 3, 4, 6, 8, 12)] + [
    ("unclipped_disturbance_n2", 2, "unclipped"),
    ("clipped_disturbance_n2", 2, "clipped"),
    ("clipped_switching_n2", 2, "clipped_switching"),
    ("clipped_switching_n6", 6, "clipped_switching"),
    ("clipped_release_n6", 6, "clipped_release"),
    ("clipped_release_n2", 2, "clipped_release"),
]

# One default-length call to cli.main in process, in a fresh interpreter with
# a checkout's src first on sys.path (argv[1]) and argv[2:] appended to the
# CLI's arguments.  It prints one JSON line: the exit code, the call's wall
# time, the summed time and count of its cli.write_csv calls, the peak RSS
# after the call, and the SHA-256 of each CSV written.
DEFAULT_CALL = """
import contextlib, hashlib, io, json, resource, sys, tempfile, time
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from piezobeam import cli
write_csv, spent = cli.write_csv, []
def timed(*args):
    start = time.perf_counter()
    write_csv(*args)
    spent.append(time.perf_counter() - start)
cli.write_csv = timed
argv = ["--scenario", "all", "--controller", "on", *sys.argv[2:]]
with tempfile.TemporaryDirectory() as out:
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv + ["--out", out])
        wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sha = {}
    for path in sorted(Path(out).glob("*.csv")):
        with open(path, "rb") as fh:
            sha[path.name] = hashlib.file_digest(fh, "sha256").hexdigest()
print(json.dumps({"exit_code": code, "wall_s": wall, "write_csv_s": sum(spent),
                  "write_csv_calls": len(spent), "peak_rss_mb": peak, "csv_sha256": sha}))
"""


# argv: the parent's and the change's src, steps, rounds, then cases as
# JSON; prints one JSON line {case name: {"n", "dt", "steps", "parent":
# [us per step, ...], "change": [...][, "saturated": {side: bool}]}}
TIMING = """
import importlib.util, json, math, sys, time
from pathlib import Path
import numpy as np

def load(name, src):
    init = Path(src) / "piezobeam" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

def case(pb, steps, n, law):
    beam = pb.BeamSpec(zeta_flex=((0.01, 0.0016) + (0.01,) * n)[:n],
                       zeta_tors=((0.01, 0.0033) + (0.01,) * n)[:n])
    basis = pb.ModalBasis.build(n, beam.L)
    mats = pb.assemble(beam, pb.PiezoSpec(), basis)
    om_f, om_t = mats.natural_frequencies
    f_max = max(om_f[-1], om_t[-1]) / (2.0 * math.pi)  # as simulate's guard has it
    dt = min(2e-5, 1.0 / (20.0 * f_max))
    policy = None
    if law is not None:
        k0, k1 = pb.design_gains(om_f[0], 0.8)
        ctrl = pb.ControllerConfig(k0=k0, k1=k1, output_weights=basis.flexural_tip_values(),
                                   v_max=None if law == "unclipped" else 200.0)
        policy = pb.make_policy(mats, ctrl, 20.0)
    x0 = np.zeros(4 * n)
    release = {"clipped_release": 5e-3, "clipped_switching": 1e-3}.get(law)  # tip, m
    if release:
        x0[0] = release / basis.flexural_tip_values()[0]
    cfg = pb.SimConfig(Omega=20.0, dt=dt, t_final=steps * dt, initial_state=x0,
                       disturbance=None if release else pb.Disturbance(0.001, 24.0, 1),
                       controller_on=policy is not None)
    return dt, cfg.nsteps, lambda: pb.simulate(cfg, mats, basis, controller=policy)

sides = {"parent": load("piezobeam_parent", sys.argv[1]),
         "change": load("piezobeam_change", sys.argv[2])}
steps, rounds = int(sys.argv[3]), int(sys.argv[4])
out = {}
for name, n, law in json.loads(sys.argv[5]):
    runs = {side: case(pb, steps, n, law) for side, pb in sides.items()}
    dt, nsteps, _ = runs["change"]
    entry = out[name] = {"n": n, "dt": dt, "steps": nsteps, "parent": [], "change": []}
    saturated = {side: bool(np.any(np.abs(run().voltage) == 200.0))
                 for side, (_, _, run) in runs.items()}  # also the untimed call
    if law is not None:
        entry["saturated"] = saturated
    for k in range(rounds):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            run = runs[side][2]
            start = time.perf_counter()
            run()
            entry[side].append((time.perf_counter() - start) / nsteps * 1e6)
print(json.dumps(out))
"""


def default_calls(records):
    """One side's DEFAULT_CALL records: the exit codes, and side() of each
    value in DEFAULT_TIMED."""
    return {"exit_codes": [r["exit_code"] for r in records],
            **{key: side([r[key] for r in records]) for key in DEFAULT_TIMED}}


def side(runs):
    """One side's runs with their median and quartiles, linearly
    interpolated as numpy's default percentiles."""
    q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                      if len(runs) > 1 else runs * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def summarize(pairs, better):
    """One workload's entry from its pairs of last-line JSON objects
    [(parent, change), ...]; better maps each metric reported to "lower" or
    "higher".  A pair counts as won when the change's value is strictly
    better; ties count for neither side."""
    operations = {name: tally([pair[k] for pair in pairs])
                  for k, name in enumerate(("parent", "change"))}
    metrics = {}
    for name, direction in better.items():
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = 1.0 if direction == "higher" else -1.0
        entry = {"unit": pairs[0][0]["metrics"][name]["unit"], "better": direction,
                 "parent": side(parent), "change": side(change)}
        entry["change_wins"] = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        entry["ratio_of_medians"] = entry["change"]["median"] / entry["parent"]["median"]
        metrics[name] = entry
    return {"pairs": len(pairs), "operations": operations, "metrics": metrics}


def summarize_steps(calls):
    """The us_per_step cases from TIMING's output."""
    cases = {}
    for name, record in calls.items():
        entry = cases[name] = {**record, "parent": side(record["parent"]),
                               "change": side(record["change"])}
        entry["change_wins"] = sum(c < p for p, c in zip(record["parent"], record["change"]))
        entry["speedup_of_medians"] = entry["parent"]["median"] / entry["change"]["median"]
    return cases


def tally(results):
    """The operations of a side's last-line JSON objects."""
    return {"attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "all_correct": all(r["correct"] for r in results)}


def traced(result, names):
    """One side's traced entry from the last-line JSON of its --trace 1 run:
    the value of each per-layer metric in names, and its operations."""
    return {**{name: result["metrics"][name]["value"] for name in names},
            "operations": tally([result])}


def last_json(argv, root):
    """The JSON object on the last line that argv, run in root, prints."""
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {root} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_once(root, workload, seed, seconds, trace=0):
    """run.py's last-line JSON for one run in checkout root."""
    return last_json([sys.executable, "perfbench/run.py", "--workload", workload,
                      "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)],
                     root)


def default_call(root, *extra):
    """DEFAULT_CALL's record for checkout root, with extra CLI arguments."""
    return last_json([sys.executable, "-c", DEFAULT_CALL, str(Path(root) / "src"), *extra],
                     root)


def timing(parent, change):
    """TIMING's output for the checkouts parent and change."""
    return last_json([sys.executable, "-c", TIMING, str(Path(parent) / "src"),
                      str(Path(change) / "src"), str(STEPS), str(ROUNDS), json.dumps(CASES)],
                     ROOT)


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def extract(ref, into):
    """Write the committed tree of ref into the directory into."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", ref))) as tar:
        tar.extractall(into, filter="data")


@contextlib.contextmanager
def parent_tree(ref):
    """(commit, directory): ref's commit, and its committed tree extracted
    into a temporary directory outside the repository, removed on exit."""
    commit = git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
    with tempfile.TemporaryDirectory(prefix="bench-parent-",
                                     ignore_cleanup_errors=True) as tmp:
        extract(commit, tmp)
        yield commit, Path(tmp)


def machine():
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           check=True, capture_output=True, text=True).stdout.strip()
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    return {"nproc": nproc, "python": sys.version.split()[0], "numpy": numpy}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent commit")
    ap.add_argument("--pr", required=True, type=int, help="N of the BENCH_N.json written")
    ap.add_argument("--seeds", required=True, type=int, nargs="+",
                    help="one seed per pair, the same on both sides")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    layers = [m["name"] for m in bench["per_layer"]]
    with parent_tree(args.parent) as (parent_commit, tree):
        roots = {"parent": tree, "change": ROOT}
        out = {"what": ("perfbench/run.py end-to-end metrics, parent commit (a git archive) "
                        "against the working tree, alternating pairs (parent first on odd "
                        f"pairs), --seconds {seconds:g}, --trace 0, one seed per pair. "
                        "Each value is the metric's 'value' from the last-line JSON that "
                        "run.py prints. Quartiles are linearly interpolated, as numpy's "
                        "default percentiles. Then, per side, one run of the first seed at "
                        f"--seconds {TRACE_SECONDS:g}, --trace 1, under 'traced'. Then, "
                        f"{DEFAULT_CALLS} default-length in-process `--scenario all "
                        "--controller on` calls per side, alternating (parent first on odd "
                        "calls), under 'default_call': wall time and summed write_csv time "
                        "in s, peak RSS in MB, each side's runs with their median and "
                        "quartiles. Last, us per RK4 step under 'us_per_step'."),
               "command": COMMAND, "parent_commit": parent_commit, "machine": machine(),
               "workloads": {}, "traced": {}}
        for workload in (w["name"] for w in bench["workloads"]):
            pairs = []
            for k, seed in enumerate(args.seeds):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                result = {}
                for name in order:
                    result[name] = run_once(roots[name], workload, seed, seconds)
                    print(f"{workload} pair {k + 1} seed {seed} {name}: "
                          f"{json.dumps(result[name]['metrics'])}", file=sys.stderr)
                pairs.append((result["parent"], result["change"]))
            entry = summarize(pairs, better)
            out["workloads"][workload] = {"pairs": entry.pop("pairs"), "seeds": args.seeds,
                                          **entry}
            seed = args.seeds[0]
            out["traced"][workload] = {"seed": seed}
            for name in ("parent", "change"):
                result = run_once(roots[name], workload, seed, TRACE_SECONDS, trace=1)
                out["traced"][workload][name] = traced(result, layers)
                print(f"{workload} traced seed {seed} {name}: "
                      f"{json.dumps(out['traced'][workload][name])}", file=sys.stderr)
        calls = {"parent": [], "change": []}
        for k in range(DEFAULT_CALLS):
            for name in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                calls[name].append(default_call(roots[name]))
                print(f"default call {k + 1} {name}: {json.dumps(calls[name][-1])}",
                      file=sys.stderr)
        shas = [r["csv_sha256"] for r in calls["parent"] + calls["change"]]
        out["default_call"] = {**{name: default_calls(records)
                                  for name, records in calls.items()},
                               "same_csv_bytes": all(sha == shas[0] for sha in shas)}
        out["us_per_step"] = {
            "what": (f"us per RK4 step of one simulate call of {STEPS} steps; per case "
                     f"{ROUNDS} alternating pairs of calls (parent first in odd pairs) "
                     "in one interpreter after one untimed call per side; dt = min(2e-5, "
                     "the dt guard's limit at n), Omega = 20 rad/s, the CLI's default "
                     "disturbance or a 5 mm or 1 mm tip release; the law's damping ratio 0.8, "
                     "clipped at 200 V. speedup_of_medians is the parent's median over "
                     "the change's."),
            "cases": summarize_steps(timing(tree, ROOT))}
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"written {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
