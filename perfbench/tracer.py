"""Call tracing from outside piezobeam, by replacing module attributes.

A traced function is replaced under every name the package binds it to (so
`rhs` is traced both inside `piezobeam.dynamics` and where
`piezobeam.control` imported it).  Coarse calls are kept as spans (name,
start, end, parent, self time, round).  The calls made hundreds of thousands
of times per run (`step`, `rhs`, the voltage policy) keep only a per-name
count, total time and self time.  Self time is a call's duration minus the
time spent in traced calls it made.
"""

import json
import os
import time

import piezobeam
from piezobeam import assembly, basis, cli, control, dynamics

MODULES = (piezobeam, basis, assembly, dynamics, control, cli)

# (owner, attribute, recorded name); the owner is a module or a class whose
# attribute is a classmethod
SPANS = (
    (cli, "main", "cli.main"),
    (cli, "load_config", "cli.load_config"),
    (cli, "run_scenario", "cli.run_scenario"),
    (cli, "build_model", "cli.build_model"),
    (cli, "write_csv", "cli.write_csv"),
    (basis.ModalBasis, "build", "basis.build"),
    (assembly, "assemble", "assembly.assemble"),
    (assembly, "linear_frequencies", "assembly.linear_frequencies"),
    (assembly.StateOperator, "build", "assembly.state_operator"),
    (dynamics, "simulate", "dynamics.simulate"),
    (dynamics, "compute_metrics", "dynamics.compute_metrics"),
    (control, "make_policy", "control.make_policy"),
)
HOT = (
    (dynamics, "step", "dynamics.step"),
    (dynamics, "rhs", "dynamics.rhs"),
)
POLICY = "control.policy"


def replace_everywhere(owner, attr, make_wrapper):
    """Replace owner.attr, and every module-level name bound to the same
    function, by make_wrapper(function); return the undo list."""
    undo = []
    if isinstance(owner, type):
        original = owner.__dict__[attr]
        setattr(owner, attr, classmethod(make_wrapper(original.__func__)))
        return [(owner, attr, original)]
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    for module in MODULES:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapper)
                undo.append((module, name, original))
    return undo


class SimClock:
    """Integration steps, and when each `simulate` call started and ended;
    the only hook the untimed run installs, one wrapper call per trajectory."""

    def __init__(self):
        self.steps = 0
        self.marks = []
        self._undo = []

    def install(self):
        def make(simulate):
            def timed(*args, **kwargs):
                self.marks.append(time.perf_counter())
                traj = simulate(*args, **kwargs)
                self.marks.append(time.perf_counter())
                self.steps += traj.times.size - 1
                return traj
            return timed
        self._undo = replace_everywhere(dynamics, "simulate", make)

    def remove(self):
        restore(self._undo)
        self._undo = []


def restore(undo):
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index, self s, round]
        self.hot = {}          # name -> [calls, total s, self s]
        self.csv_rows = 0
        self.csv_bytes = 0
        self.round = 0
        self._child = []       # per open traced call: time in traced callees
        self._open = []        # indices of the open spans
        self._undo = []

    def install(self):
        for owner, attr, name in SPANS:
            after = self._count_csv if name == "cli.write_csv" else None
            if name == "control.make_policy":
                make = self._policy_factory
            else:
                def make(fn, name=name, after=after):
                    return self._span(name, fn, after)
            self._undo += replace_everywhere(owner, attr, make)
        for owner, attr, name in HOT:
            self._undo += replace_everywhere(
                owner, attr, lambda fn, name=name: self._hot(name, fn))

    def remove(self):
        restore(self._undo)
        self._undo = []

    def _hot(self, name, fn):
        rec = self.hot.setdefault(name, [0, 0.0, 0.0])
        child = self._child
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                inner = child.pop()
                rec[0] += 1
                rec[1] += d
                rec[2] += d - inner
                if child:
                    child[-1] += d
        return traced

    def _span(self, name, fn, after=None):
        spans, open_, child = self.spans, self._open, self._child
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, open_[-1] if open_ else None, 0.0, self.round])
            open_.append(idx)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_.pop()
                span = spans[idx]
                span[1], span[2], span[4] = t0, t1, (t1 - t0) - child.pop()
                if child:
                    child[-1] += t1 - t0
            if after is not None:
                after(args, result)
            return result
        return traced

    def _policy_factory(self, make_policy):
        span = self._span("control.make_policy", make_policy)

        def traced(*args, **kwargs):
            return self._hot(POLICY, span(*args, **kwargs))
        return traced

    def _count_csv(self, args, _result):
        path, traj = args[0], args[1]
        self.csv_rows += traj.times.size
        self.csv_bytes += os.path.getsize(path)

    def totals(self, name):
        """(calls, total s, self s) of one traced name over the whole run."""
        if name in self.hot:
            return tuple(self.hot[name])
        calls, total, own = 0, 0.0, 0.0
        for span in self.spans:
            if span[0] == name:
                calls += 1
                total += span[2] - span[1]
                own += span[4]
        return calls, total, own

    def write(self, path):
        """Write the spans and counters out as JSON."""
        spans = [dict(zip(("name", "start", "end", "parent", "self", "round"), s))
                 for s in self.spans]
        hot = {name: dict(zip(("calls", "total_s", "self_s"), rec))
               for name, rec in self.hot.items()}
        with open(path, "w") as fh:
            json.dump({"spans": spans, "counters": hot,
                       "csv_rows": self.csv_rows, "csv_bytes": self.csv_bytes}, fh)
