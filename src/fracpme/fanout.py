"""Independent calls run side by side: the package's one process pool."""

import multiprocessing
import os
import sys
import threading
from concurrent.futures import Future, ProcessPoolExecutor


def _value(call, arg):
    try:
        return call(arg)
    except Exception as exc:
        return exc


def fan_out(fn, items: list) -> list:
    """fn(item), or the Exception that call raised, for each item in order.

    The calls run on min(CPU affinity, len(items)) forked workers, or here in
    order when that is under two or another thread runs (fork copies no
    thread, so a lock one holds would stay locked in the worker).  A dead
    worker leaves BrokenProcessPool.  Forked workers see fn's module as this
    process has it and import nothing again; fn must pickle by reference."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cores, len(items))
    if workers < 2 or threading.active_count() > 1:
        return [_value(fn, item) for item in items]
    sys.stdout.flush()  # each worker flushes its copy of the buffers on exit
    sys.stderr.flush()
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(fn, item) for item in items]
        return [_value(Future.result, future) for future in futures]
