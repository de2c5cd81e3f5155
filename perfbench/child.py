"""Measured repetitions in processes of their own; speaks JSON lines.

    python3 perfbench/child.py setup '<spec json>'
    python3 perfbench/child.py serve '<spec json>'

The spec names the workload and its parameters.  "setup" times
`import fracpme.cli` plus the workload's set-up through public constructors
in a fresh interpreter, prints one line and exits.  "serve" imports
`fracpme.cli`, prints one ready line, then reads one request per stdin line
(`{"trace": bool, "out": dir, "spans": file}`): for each it forks a process
that calls `fracpme.cli.main(argv)` once, checks the outputs and, if traced,
writes its spans, and it prints that process's result as one line.  Every
repetition thus starts from the same freshly imported state and its peak RSS
is its own, without paying the interpreter start-up between repetitions.
Timing covers only `main`; peak RSS is read before the checks run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS


def _blas_threads() -> dict:
    """Threads of each loaded OpenBLAS, asked through its own entry point."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def setup(spec: dict) -> dict:
    wl = WORKLOADS[spec["workload"]]
    t0 = perf_counter()
    import fracpme.cli  # noqa: F401
    built = wl.build(spec["params"])
    setup_s = perf_counter() - t0
    del built
    return {"setup_s": setup_s, **_stamp()}


def _stamp() -> dict:
    import fracpme
    import numpy
    import scipy

    return {
        "package": os.path.dirname(os.path.abspath(fracpme.__file__)),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "blas_threads": _blas_threads(),
    }


def run_once(spec: dict, req: dict) -> dict:
    """One call of `fracpme.cli.main` with its checks; runs in a forked process."""
    import fracpme.cli

    wl = WORKLOADS[spec["workload"]]
    params = spec["params"]
    out = Path(req["out"])
    tracer = None
    if req["trace"]:
        import fracpme.verify  # noqa: F401  the CLI imports it lazily; wrap it up front
        import tracing

        tracer = tracing.Tracer()
        tracing.install_all(tracer)
    argv = wl.argv(params, str(out))
    captured = io.StringIO()
    result = {}
    code = None
    cpu = resource.getrusage(resource.RUSAGE_SELF)
    t = perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = fracpme.cli.main(argv)
    except Exception:
        result["error"] = traceback.format_exc(limit=4)
    wall = perf_counter() - t
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu_s = usage.ru_utime + usage.ru_stime - cpu.ru_utime - cpu.ru_stime
    rss_mb = usage.ru_maxrss / 1024.0
    stdout = captured.getvalue()
    problems = [] if code == 0 else [result.get("error") or f"exit code {code}"]
    units, printed_steps, digest = 0, None, None
    if code == 0:
        try:
            more, units, printed_steps, digest_path = wl.check(params, out, stdout)
            digest = hashlib.sha256(digest_path.read_bytes()).hexdigest()
        except (OSError, ValueError, KeyError, StopIteration) as exc:
            more = [f"output check: {exc!r}"]
        problems += more
    result.update(wall_s=wall, cpu_s=cpu_s, peak_rss_mb=rss_mb, units=units,
                  printed_steps=printed_steps, digest=digest,
                  stdout_tail=stdout.splitlines()[-3:])
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        steps = result["layers"]["evolution.steps"]
        if printed_steps is not None and printed_steps != steps:
            problems.append(f"CLI printed {printed_steps} steps, traced {steps:g}")
        tracer.write(req["spans"])
    result["problems"] = problems
    return result


def _forked(spec: dict, req: dict) -> dict:
    """run_once in a forked process; its result comes back through a pipe."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        # stray writes to fd 1 must not reach the request/answer channel
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        try:
            res = run_once(spec, req)
        except BaseException:
            res = {"problems": [traceback.format_exc(limit=4)]}
        with os.fdopen(wfd, "w") as fh:
            fh.write(json.dumps(res))
        os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    try:
        return json.loads(text)
    except ValueError:
        return {"problems": [f"repetition ended with status {status} and no result"]}


def serve(spec: dict) -> None:
    import fracpme.cli  # noqa: F401  every forked repetition starts from here

    print(json.dumps(_stamp()), flush=True)
    for line in sys.stdin:
        print(json.dumps(_forked(spec, json.loads(line))), flush=True)


if __name__ == "__main__":
    mode, spec = sys.argv[1], json.loads(sys.argv[2])
    if mode == "setup":
        print(json.dumps(setup(spec)))
    else:
        serve(spec)
