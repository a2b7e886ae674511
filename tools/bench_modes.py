"""Time RK4 steps against the mode count, parent commit against the working
tree, into the "us_per_step" section of BENCH_<pr>.json.

    python3 tools/bench_modes.py --parent REF --pr N [--rounds 20] [--steps 2000]

Each case of CASES is one `simulate` run of --steps steps at dt = min(2e-5,
the largest dt that simulate's guard allows at its n), at Omega = 20 rad/s
with the CLI's default disturbance or a 5 mm tip release; its time per step
is the wall time of the call over its steps.  Both sides run in one fresh
interpreter, each checkout's `src/piezobeam` loaded as its own package, so
that a pair of calls sees one phase of a shared machine: for each case, after
one untimed call per side, --rounds pairs of calls alternate, the parent
first in odd pairs.  The parent is extracted with `git archive` into a
temporary directory (removed at the end).  The section written holds, per
case, its n, dt and steps, each side's calls with median and quartiles (as
tools/bench_pairs.py gives them), the pairs the change won and the parent's
median over the change's; for a controlled case, also whether each side's
run saturated.  Other keys of an existing BENCH file are kept, so run this
after tools/bench_pairs.py, which writes the whole file.
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_pairs  # noqa: E402

ROOT = bench_pairs.ROOT
# (name, n, law): uncontrolled disturbance runs at each n, then n = 2 runs
# under the linearizing law, unclipped or clipped at 200 V
CASES = [(f"uncontrolled_n{n}", n, None) for n in (1, 2, 3, 4, 6, 8, 12)] + [
    ("unclipped_disturbance_n2", 2, "unclipped"),
    ("clipped_disturbance_n2", 2, "clipped"),
    ("clipped_release_n2", 2, "clipped_release"),
]

# argv: the parent's and the change's src, steps, rounds, then CASES as
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
    release = law == "clipped_release"
    if release:
        x0[0] = 5e-3 / basis.flexural_tip_values()[0]
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


def summarize(calls):
    """The section's cases from TIMING's output."""
    cases = {}
    for name, record in calls.items():
        entry = {key: record[key] for key in ("n", "dt", "steps")}
        entry.update({side: bench_pairs.side(record[side]) for side in ("parent", "change")})
        entry["change_wins"] = sum(c < p for p, c in zip(record["parent"], record["change"]))
        entry["speedup_of_medians"] = entry["parent"]["median"] / entry["change"]["median"]
        if "saturated" in record:
            entry["saturated"] = record["saturated"]
        cases[name] = entry
    return cases


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent commit")
    ap.add_argument("--pr", required=True, type=int, help="N of the BENCH_N.json written")
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--steps", type=int, default=2000)
    args = ap.parse_args(argv)

    parent_commit = bench_pairs.git("rev-parse", "--verify",
                                    f"{args.parent}^{{commit}}").decode().strip()
    tmp = tempfile.mkdtemp(prefix="bench-parent-")
    try:
        bench_pairs.extract(parent_commit, tmp)
        calls = bench_pairs.last_json(
            [sys.executable, "-c", TIMING, str(Path(tmp) / "src"), str(ROOT / "src"),
             str(args.steps), str(args.rounds), json.dumps(CASES)], ROOT)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    path = ROOT / f"BENCH_{args.pr}.json"
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc["us_per_step"] = {
        "what": (f"us per RK4 step of one simulate call of {args.steps} steps; per case "
                 f"{args.rounds} alternating pairs of calls (parent first in odd pairs) "
                 "in one interpreter after one untimed call per side; dt = min(2e-5, "
                 "the dt guard's limit at n), Omega = 20 rad/s, the CLI's default "
                 "disturbance or a 5 mm tip release; the law's damping ratio 0.8, "
                 "clipped at 200 V. speedup_of_medians is the parent's median over the "
                 "change's."),
        "parent_commit": parent_commit, "machine": bench_pairs.machine(),
        "cases": summarize(calls)}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"written {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
