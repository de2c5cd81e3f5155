"""Spans around fracpme's public entry points, installed from outside the package.

The package imports names directly (`from .diagnostics import record`), so a
wrapper goes wherever a caller looks the name up, not only where it is
defined.  One original function gets one wrapper, shared by every place it is
installed.  A name a later version no longer has is skipped, and the metrics
that depend on it read 0.

Spans are `[name, start, end, parent]` rows kept in memory and written once
the run ends.  A span's self time is its duration minus that of its direct
children.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

from workloads import VERIFY_CHECKS, unknown_count

MIB = 2.0 ** 20


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(float)
        self._wrapped = {}

    def wrap(self, name, fn, after=None):
        """fn inside a span; after(args, result) runs once the span closed."""
        key = (name, id(fn))
        if key in self._wrapped:
            return self._wrapped[key]
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        self._wrapped[key] = traced
        return traced

    def install(self, name, places, after=None):
        """Wrap `module:attr` (or `module:Class.attr`) at each place."""
        for place in places:
            module, _, attr = place.partition(":")
            owner = sys.modules.get(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if fn is not None:
                setattr(owner, leaf, self.wrap(name, fn, after))

    def count_calls(self, place, counter):
        """Count calls of `module:Class.attr` without a span (too frequent)."""
        module, _, attr = place.partition(":")
        cls_name, leaf = attr.split(".")
        cls = getattr(sys.modules.get(module), cls_name, None)
        fn = getattr(cls, leaf, None)
        if fn is None:
            return
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        setattr(cls, leaf, counted)

    def write(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(a - t0, 9), round(b - t0, 9), p] for n, a, b, p in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent"],
                       "spans": rows}, fh)


def install_all(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics need.  Call after
    `import fracpme.cli` and `import fracpme.verify`."""
    counts = tracer.counts

    def after_run(args, traj):
        counts["evolution.steps"] += getattr(traj, "steps", 0)
        counts["evolution.records"] += len(getattr(traj, "times", ()))

    def after_submatrix(args, result):
        counts["fracops.submatrix_mb"] += 8.0 * len(args[1]) ** 2 / MIB

    def after_solve(args, sol):
        counts["obstacle.sweeps"] += getattr(sol, "sweeps", 0)
        counts["obstacle.unknowns"] += unknown_count(args[0])

    def after_snapshot(args, result):
        counts["io.snapshot_mb"] += os.path.getsize(args[0]) / MIB

    def after_diagnostics(args, result):
        counts["io.csv_rows"] += len(args[1])

    def after_check(args, result):
        counts["verify.passed"] += bool(getattr(result, "passed", False))

    tracer.install("cli.main", ["fracpme.cli:main"])
    tracer.install("evolution.run", ["fracpme.cli:run", "fracpme.verify:run"], after_run)
    tracer.install("diagnostics.record",
                   ["fracpme.evolution:record", "fracpme.diagnostics:record"])
    tracer.install("fracops.build", ["fracpme.fracops:FracOperator.__init__"])
    tracer.install("fracops.inverse", ["fracpme.fracops:FracOperator.inverse"])
    tracer.install("fracops.submatrix", ["fracpme.fracops:FracOperator.kernel_submatrix"],
                   after_submatrix)
    tracer.install("obstacle.solve", ["fracpme.cli:solve_obstacle",
                                      "fracpme.verify:solve_obstacle",
                                      "fracpme.obstacle:solve_obstacle"], after_solve)
    tracer.install("obstacle.match_mass",
                   ["fracpme.verify:match_mass", "fracpme.obstacle:match_mass"])
    tracer.install("io.write_snapshot", ["fracpme.cli:write_snapshot"], after_snapshot)
    tracer.install("io.write_diagnostics",
                   ["fracpme.cli:write_diagnostics", "fracpme.verify:write_diagnostics"],
                   after_diagnostics)
    tracer.install("remap.resample", ["fracpme.evolution:resample",
                                      "fracpme.obstacle:resample"])
    tracer.install("oracles.lemke", ["fracpme.verify:lemke_lcp"])
    verify = sys.modules.get("fracpme.verify")
    checks = getattr(verify, "CHECKS", None)
    if checks is not None:
        verify.CHECKS = tuple(tracer.wrap(f"verify.check_{k:02d}", fn, after_check)
                              for k, fn in enumerate(checks, 1))
    tracer.count_calls("fracpme.grid:Field.__post_init__", "grid.fields_built")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer totals from the spans and counters of one traced run."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    in_match = [False] * len(spans)
    for i, (name, a, b, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += b - a
            in_match[i] = in_match[parent] or spans[parent][0] == "obstacle.match_mass"
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    match_solves = 0
    for i, (name, a, b, parent) in enumerate(spans):
        total[name] += b - a
        self_time[name] += b - a - child[i]
        calls[name] += 1
        match_solves += name == "obstacle.solve" and in_match[i]
    c = tracer.counts
    steps = c["evolution.steps"]
    out = {
        "grid.fields_built": c["grid.fields_built"],
        "fracops.build_s": total["fracops.build"],
        "fracops.inverse_calls": calls["fracops.inverse"],
        "fracops.inverse_s": total["fracops.inverse"],
        "fracops.submatrix_s": total["fracops.submatrix"],
        "fracops.submatrix_mb": c["fracops.submatrix_mb"],
        "evolution.steps": steps,
        "evolution.records": c["evolution.records"],
        "evolution.self_s": self_time["evolution.run"],
        "evolution.self_us_per_step":
            1e6 * self_time["evolution.run"] / steps if steps else 0.0,
        "diagnostics.record_calls": calls["diagnostics.record"],
        "diagnostics.record_s": total["diagnostics.record"],
        "diagnostics.record_self_s": self_time["diagnostics.record"],
        "io.write_snapshot_s": total["io.write_snapshot"],
        "io.snapshot_mb": c["io.snapshot_mb"],
        "io.write_diagnostics_s": total["io.write_diagnostics"],
        "io.csv_rows": c["io.csv_rows"],
        "obstacle.solves": calls["obstacle.solve"],
        "obstacle.solve_s": total["obstacle.solve"],
        "obstacle.solve_self_s": self_time["obstacle.solve"],
        "obstacle.sweeps": c["obstacle.sweeps"],
        "obstacle.unknowns": c["obstacle.unknowns"],
        "obstacle.match_mass_s": total["obstacle.match_mass"],
        "obstacle.match_mass_solves": match_solves,
        "remap.resample_calls": calls["remap.resample"],
        "remap.resample_s": total["remap.resample"],
        "oracles.lemke_calls": calls["oracles.lemke"],
        "oracles.lemke_s": total["oracles.lemke"],
    }
    for k in range(1, VERIFY_CHECKS + 1):
        out[f"verify.check_{k:02d}_s"] = total[f"verify.check_{k:02d}"]
    out["verify.passed"] = c["verify.passed"]
    out["cli.self_s"] = self_time["cli.main"]
    return out


# Counts that must repeat exactly across runs of one seed.
REPEAT_COUNTS = ("evolution.steps", "evolution.records", "fracops.inverse_calls",
                 "grid.fields_built", "diagnostics.record_calls",
                 "obstacle.sweeps", "obstacle.unknowns")
