"""fracpme benchmark: run one workload through the CLI and print its metrics.

    python3 perfbench/run.py --workload evolve_1d --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 0

Run from the repository root; the package is imported from ./src.  A server
process (`child.py serve`) imports `fracpme.cli` once and forks one process
per repetition, which calls `fracpme.cli.main(argv)` once, so every
repetition starts from the same freshly imported state and its peak RSS
belongs to that workload alone.  Repetitions run one at a time until the
next would end after --seconds (at least three).  Set-up is timed in fresh
set-up-only children spread over the same window, five samples.  Every value
reported is a median.

Times are scaled to the machine's current speed.  The reference computation
in `calibrate.py` is timed right before and after each repetition and each
set-up sample, and a time t is reported as t * NOMINAL_S / (mean of those two
reference times): seconds of a machine on which the reference takes
NOMINAL_S.  On a shared host the speed left to one process drifts by tens of
per cent over minutes; the scaling cancels most of that drift, so that two
commits measured at different times compare.  The unscaled medians are in the
record line.

--trace 0 prints the end-to-end metrics:
  wall_s        time for cli.main to return, outputs written (scaled)
  setup_s       import fracpme.cli + build grid, operator, datum or problem
                (scaled)
  peak_rss_mb   ru_maxrss of the repetition's process
  steps_per_s   workload steps per scaled wall second: accepted time steps
                (evolve), unknowns of the solve (obstacle), checks (verify)
  success_rate  passed runs over attempted runs (1 - error rate)
A run fails if the CLI exits non-zero, fails its output check, or does not
repeat the previous run's printed step count and output digest exactly.

--trace 1 alternates traced and untraced repetitions (at least two traced) and
prints the per-layer metrics of the traced ones (layer times unscaled), the
traced wall_s and the tracing overhead (traced minus untraced wall_s, both
scaled), and fails on any count that does not repeat.

The last stdout line is the result JSON; the line before it is the full
record (seed, argv, environment, every repetition), also written under
.perfbench_work/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from calibrate import NOMINAL_S, reference
from workloads import WORKLOADS
from tracing import REPEAT_COUNTS

HERE = Path(__file__).resolve().parent
MIN_REPS = 3
MIN_SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
              "steps_per_s": "1/s", "success_rate": "ratio"}
UNITS = {"_s": "s", "_mb": "MiB", "_us_per_step": "us"}


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _env(root: Path, nproc: int) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            env[var] = str(min(int(env.get(var, nproc)), nproc))
        except ValueError:
            env[var] = str(nproc)
    return env


def _git_commit(root: Path):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.root = root
        self.wl = WORKLOADS[workload]
        self.params = self.wl.params(seed)
        self.nproc = _nproc()
        self.env = _env(root, self.nproc)
        self.work = root / ".perfbench_work" / f"{workload}-seed{seed}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.seconds = seconds
        self.started = perf_counter()
        self.spec = json.dumps({"workload": self.wl.name, "params": self.params})
        self.server = None
        reference()  # the first call fills numpy's caches
        self.last_ref = None

    def _reference(self) -> float:
        t = perf_counter()
        reference()
        self.last_ref = perf_counter() - t
        return self.last_ref

    def gauged(self, fn):
        """fn() with the reference timed right before and after it; returns
        (result, mean reference time).  Every measurement is gauged, so the
        reference after one serves as the reference before the next."""
        before = self.last_ref or self._reference()
        res = fn()
        return res, (before + self._reference()) / 2

    def _left(self) -> float:
        return max(10.0, RUN_LIMIT_S - (perf_counter() - self.started))

    def setup_child(self) -> dict:
        """Set-up alone, in a fresh interpreter."""
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), "setup", self.spec],
                                  cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=self._left())
            res = json.loads(proc.stdout.strip().splitlines()[-1])
        except (subprocess.TimeoutExpired, IndexError, ValueError) as exc:
            raise SystemExit(f"perfbench: set-up failed: {exc!r}") from None
        self._check_package(res)
        if res["problems"]:
            raise SystemExit(f"perfbench: set-up failed: {res['problems']}")
        return res

    def setup_sample(self) -> dict:
        res, ref_s = self.gauged(self.setup_child)
        return {"setup_s": res["setup_s"], "ref_s": ref_s}

    def start_server(self) -> dict:
        self.server = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "serve", self.spec],
            cwd=self.root, env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, start_new_session=True)
        return self._answer()

    def _answer(self) -> dict:
        ready, _, _ = select.select([self.server.stdout], [], [], self._left())
        line = self.server.stdout.readline() if ready else ""
        if not line:
            self.stop_server()
            return {"problems": ["server gave no answer" if ready else "timed out"],
                    "timed_out": True}
        return self._check_package(json.loads(line))

    def stop_server(self) -> None:
        """Ends the server and any repetition it forked, and waits for them."""
        if self.server is None:
            return
        with contextlib.suppress(OSError):
            self.server.stdin.close()
        try:
            self.server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(self.server.pid, signal.SIGKILL)  # the forked repetition too
        self.server.wait()
        self.server = None

    def _check_package(self, res: dict) -> dict:
        res.setdefault("problems", [])
        expected = str((self.root / "src" / "fracpme").resolve())
        if "package" in res and res["package"] != expected:
            res["problems"].append(f"imported fracpme from {res['package']}, not {expected}")
        return res

    def child(self, trace: bool, spans: str) -> dict:
        out = self.work / "out"  # only the latest outputs are kept
        shutil.rmtree(out, ignore_errors=True)
        req = {"trace": trace, "out": str(out), "spans": str(self.work / spans)}
        self.server.stdin.write(json.dumps(req) + "\n")
        self.server.stdin.flush()
        return self._answer()

    def reps(self, trace: bool) -> tuple:
        """Repetitions until --seconds pass, set-up samples spread among them;
        traced runs alternate with untraced.  Returns (reps, setup samples)."""
        reps, setup = [], []
        t0 = perf_counter()
        rep_s = setup_s = 0.0  # how long the latest of each took
        while True:
            elapsed = perf_counter() - t0
            due = len(setup) < MIN_SETUP_SAMPLES * elapsed / self.seconds
            traced = trace and len(reps) % 2 == 0
            n_traced = sum(r["traced"] for r in reps)
            done = len(reps) >= MIN_REPS and (not trace or n_traced >= 2)
            # stop before a repetition that would end after --seconds, and
            # before one that would end after the run's time limit
            if done and elapsed + rep_s + due * setup_s > self.seconds:
                break
            if reps and perf_counter() - self.started + 1.5 * rep_s > RUN_LIMIT_S:
                break
            if due:
                t1 = perf_counter()
                setup.append(self.setup_sample())
                setup_s = perf_counter() - t1
            t1 = perf_counter()
            res, ref_s = self.gauged(lambda: self.child(traced, f"spans-{len(reps)}.json"))
            rep_s = perf_counter() - t1
            res["ref_s"] = ref_s
            res["traced"] = traced
            reps.append(res)
            if res.get("timed_out"):
                break
        while len(setup) < MIN_SETUP_SAMPLES:
            setup.append(self.setup_sample())
        self._repeat_check(reps)
        return reps, setup

    @staticmethod
    def _repeat_check(reps: list) -> None:
        """Runs of one seed must agree exactly on steps, digests and counts."""
        first = {}
        for r in reps:
            keys = {"printed_steps": r.get("printed_steps"), "digest": r.get("digest")}
            if "layers" in r:
                keys.update({k: r["layers"][k] for k in REPEAT_COUNTS})
            for k, v in keys.items():
                if r.get("problems") or v is None:
                    continue
                if k not in first:
                    first[k] = v
                elif v != first[k]:
                    r["problems"].append(f"{k} {v} differs from first run's {first[k]}")


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> tuple:
    runner = Runner(root, name, seed, seconds)
    runner.setup_child()  # compiles bytecode, fills the file cache
    try:
        stamp = runner.start_server()
        if stamp["problems"]:
            raise SystemExit(f"perfbench: {name}: server failed: {stamp['problems']}")
        reps, setup = runner.reps(trace)
    finally:
        runner.stop_server()
    passed = [r for r in reps if not r["problems"]]
    failed = len(reps) - len(passed)
    # a failed run never counts as a fast one; if every run failed, the
    # figures come from all measured runs and `correct` is false
    plain = _measured([r for r in passed if not r["traced"]]
                      or [r for r in reps if not r["traced"]])
    if not plain or (trace and not _measured(reps, traced=True)):
        raise SystemExit(f"perfbench: {name}: no run was measured: {reps[-1]['problems']}")
    if trace:
        traced = _measured([r for r in passed if r["traced"]]
                           or [r for r in reps if r["traced"]], traced=True)
        layers = {k: median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        layers["trace.wall_s"] = median(_scaled(r, "wall_s") for r in traced)
        layers["trace.overhead_s"] = (layers["trace.wall_s"]
                                      - median(_scaled(r, "wall_s") for r in plain))
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in layers.items()}
    else:
        values = {
            "wall_s": median(_scaled(r, "wall_s") for r in plain),
            "setup_s": median(_scaled(x, "setup_s") for x in setup),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
            "steps_per_s": median(r["units"] / _scaled(r, "wall_s") for r in plain),
            "success_rate": len(passed) / len(reps),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    result = {"correct": failed == 0 and bool(reps), "attempted": len(reps),
              "failed": failed, "metrics": metrics}
    record = {
        "workload": name, "seed": seed, "trace": trace, "seconds": seconds,
        "params": runner.params, "argv": runner.wl.argv(runner.params, "<out>"),
        "environment": {"nproc": runner.nproc, "git_commit": _git_commit(root),
                        "versions": stamp.get("versions"),
                        "blas_threads": stamp.get("blas_threads"),
                        "thread_env": {k: runner.env[k] for k in
                                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}},
        "setup_samples": setup,
        "unscaled_medians_s": {"wall_s": median(r["wall_s"] for r in plain),
                               "setup_s": median(x["setup_s"] for x in setup),
                               "reference_s": median(r["ref_s"] for r in plain)},
        "reps": [{k: v for k, v in r.items() if k not in ("versions", "blas_threads")}
                 for r in reps],
        "result": result,
    }
    (runner.work / f"record-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return result, record


def _scaled(r: dict, key: str) -> float:
    """A time in seconds of a machine on which `reference()` takes NOMINAL_S."""
    return r[key] * NOMINAL_S / r["ref_s"]


def _measured(reps: list, traced: bool = False) -> list:
    return [r for r in reps if "wall_s" in r and (not traced or "layers" in r)]


def _unit(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "fracpme" / "cli.py").is_file():
        print(f"perfbench: no src/fracpme/cli.py under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, record = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        results[name] = result
        print(json.dumps(record))
        for key, m in result["metrics"].items():
            print(f"{name:<13} {key:<28} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:<13} {'error_rate':<28} {result['failed'] / result['attempted']:>14.6g}"
              f" ratio ({result['failed']}/{result['attempted']} failed)")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": m for n, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
