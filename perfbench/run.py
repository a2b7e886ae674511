"""piezobeam benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
The command sets the workload up in this process, then runs whole rounds of
the workload one after another until S seconds have passed, checking every
operation's output.  With --trace 0 it also sets the workload up in
SETUP_REPEATS fresh processes spread evenly over those S seconds (the
median is `setup_s`) and prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced rounds and prints the per-layer metrics.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread, set before numpy loads; fresh set-up processes inherit it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
NAMES = ("scenario_all", "freq_sweep")


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def time_setup(workload):
    """Wall time of one fresh process that imports piezobeam and sets the
    workload up, from spawn to exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--workload", workload, "--setup-only"],
                   check=True, stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0


def metric(value, unit):
    return {"value": value, "unit": unit}


def per_call(total, calls, scale):
    return total / calls * scale if calls else 0.0


def fastest(rounds):
    """Seconds and integration steps per second of a round run at the best
    speed seen: each stretch of a round (before, inside, between and after
    its `simulate` calls) at its minimum over the rounds, summed."""
    n = statistics.mode(len(stretches) for stretches, _ in rounds)
    same = [r for r in rounds if len(r[0]) == n]
    best = [min(col) for col in zip(*(stretches for stretches, _ in same))]
    in_simulate = sum(best[1::2])
    return sum(best), (same[0][1] / in_simulate if in_simulate else 0.0)


def layer_metrics(tracer, rounds, overhead_s):
    """Per-layer metrics from the traced rounds: counts are per round, times
    per call unless the name says otherwise."""
    def t(name):
        return tracer.totals(name)

    build, asm, lf, sop = (t("basis.build"), t("assembly.assemble"),
                           t("assembly.linear_frequencies"), t("assembly.state_operator"))
    step, rhs, policy = t("dynamics.step"), t("dynamics.rhs"), t("control.policy")
    sim, cm = t("dynamics.simulate"), t("dynamics.compute_metrics")
    load, csv, scen = t("cli.load_config"), t("cli.write_csv"), t("cli.run_scenario")
    steps = step[0]
    return {
        "basis.build_calls": metric(build[0] / rounds, "count"),
        "basis.build_ms": metric(per_call(build[1], build[0], 1e3), "ms"),
        "assembly.assemble_calls": metric(asm[0] / rounds, "count"),
        "assembly.assemble_ms": metric(per_call(asm[1], asm[0], 1e3), "ms"),
        "assembly.linear_frequencies_calls": metric(lf[0] / rounds, "count"),
        "assembly.linear_frequencies_us": metric(per_call(lf[1], lf[0], 1e6), "us"),
        "assembly.state_operator_builds": metric(sop[0] / rounds, "count"),
        "assembly.state_operator_us": metric(per_call(sop[1], sop[0], 1e6), "us"),
        "dynamics.steps": metric(steps / rounds, "count"),
        "dynamics.step_us": metric(per_call(step[1], steps, 1e6), "us"),
        "dynamics.rhs_calls": metric(rhs[0] / rounds, "count"),
        "dynamics.rhs_us": metric(per_call(rhs[1], rhs[0], 1e6), "us"),
        "dynamics.rhs_per_step": metric(per_call(rhs[0], steps, 1.0), "ratio"),
        "dynamics.simulate_self_ms": metric(per_call(sim[2], sim[0], 1e3), "ms"),
        "dynamics.compute_metrics_ms": metric(per_call(cm[1], cm[0], 1e3), "ms"),
        "control.policy_calls": metric(policy[0] / rounds, "count"),
        "control.policy_us": metric(per_call(policy[1], policy[0], 1e6), "us"),
        "control.policy_per_step": metric(per_call(policy[0], steps, 1.0), "ratio"),
        "cli.load_config_ms": metric(per_call(load[1], load[0], 1e3), "ms"),
        "cli.write_csv_s": metric(csv[1] / rounds, "s"),
        "cli.write_csv_us_per_row": metric(per_call(csv[1], tracer.csv_rows, 1e6), "us"),
        "cli.csv_bytes": metric(tracer.csv_bytes / rounds, "B"),
        "cli.run_scenario_self_s": metric(scen[2] / rounds, "s"),
        "trace.overhead_s": metric(overhead_s, "s"),
    }


def measure(args):
    import numpy as np

    import tracer as tracing
    import workloads

    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    wl = workloads.make(args.workload, out_dir)
    setup = []
    ctx = wl.setup()
    rng = np.random.default_rng(args.seed)
    clock = tracing.SimClock()
    tracer = tracing.Tracer() if args.trace else None
    plain, traced = [], []     # per round: (seconds of each stretch, steps)
    attempted = failed = 0
    problems = []

    def run_checked(inputs, traced_round=False):
        """One round's outcomes, checked and counted; returns when its
        timed part started and ended."""
        nonlocal attempted, failed
        if traced_round:
            tracer.round = len(traced)
            tracer.install()
        t0 = time.perf_counter()
        try:
            outcomes = wl.run(ctx, inputs)
        finally:
            t1 = time.perf_counter()
            if traced_round:
                tracer.remove()
        for outcome, found in zip(outcomes, wl.check(ctx, inputs, outcomes)):
            attempted += 1
            if isinstance(outcome, Exception):
                failed += 1
                print(f"operation failed: {outcome!r}", file=sys.stderr)
            elif found:
                failed += 1
                problems.extend(found)
        return t0, t1

    try:
        for inputs in getattr(wl, "opening", list)():
            run_checked(inputs)
        clock.install()
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or not plain or (tracer and not traced):
            # fresh-process set-ups at even times, so their median spans the
            # machine's phases over the whole run
            if tracer is None and len(setup) < SETUP_REPEATS and \
                    time.perf_counter() - start >= len(setup) * args.seconds / SETUP_REPEATS:
                setup.append(time_setup(args.workload))
                continue
            inputs = wl.draw(rng)
            on = tracer is not None and len(plain) > len(traced)
            steps, clock.marks = clock.steps, []
            t0, t1 = run_checked(inputs, on)
            marks = [t0] + [m for m in clock.marks if m <= t1] + [t1]
            (traced if on else plain).append(
                ([b - a for a, b in zip(marks, marks[1:])], clock.steps - steps))
    finally:
        clock.remove()
        if hasattr(wl, "cleanup"):
            wl.cleanup()
    while tracer is None and len(setup) < SETUP_REPEATS:
        setup.append(time_setup(args.workload))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    # A shared machine runs at up to half speed for seconds to minutes, with
    # short fast spells between, so timings come from the fastest stretches
    # (see README.md).
    run_s, steps_per_s = fastest(plain)
    if tracer is None:
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "run_s": metric(run_s, "s"),
            "steps_per_s": metric(steps_per_s, "1/s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "MB"),
        }
    else:
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        print(f"trace written to {trace_path}")
        metrics = layer_metrics(tracer, len(traced), fastest(traced)[0] - run_s)
    rounds = len(plain) + len(traced)
    print(f"{args.workload}: seed {args.seed}, {rounds} rounds, "
          f"{attempted} operations, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    args = parse(argv)
    if not (SRC / "piezobeam" / "__init__.py").is_file():
        print(f"piezobeam sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        import workloads
        workloads.make(args.workload, None).setup()
        return 0
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
