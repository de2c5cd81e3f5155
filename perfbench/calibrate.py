"""A fixed reference computation that gauges how fast the machine runs now.

On a shared host the speed available to one process drifts by tens of
per cent over minutes, and a wall time alone then measures the neighbours
as much as the program.  `reference()` does a fixed amount of work of the
kind fracpme does (small numpy array operations driven from Python, FFT
convolutions, object construction) and is timed right
before and after every repetition; the benchmark scales each repetition's
wall time by the reference's nominal time over its measured time.  The
reference depends on numpy alone, never on fracpme, so a change to the
program cannot move it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Nominal time of one `reference()` call.  A scaled wall time reads in
# seconds of a machine on which the reference takes this long.
NOMINAL_S = 0.15


@dataclass
class _State:
    values: np.ndarray
    time: float


def reference(steps: int = 1800, n: int = 1024) -> float:
    """Upwind-style steps on a 1-D grid with an FFT pressure; returns a
    checksum so no step can be skipped."""
    x = np.linspace(-6.0, 6.0, n)
    u = _State(np.where(np.abs(x) < 1.0, 1.0, 0.0), 0.0)
    kernel = np.fft.rfft(1.0 / (1.0 + x * x), n=2 * n)
    kept = []
    for _ in range(steps):
        p = np.fft.irfft(np.fft.rfft(u.values, n=2 * n) * kernel, n=2 * n)[:n]
        w = -np.diff(p) / (x[1] - x[0])
        face = np.where(w > 0.0, u.values[:-1], u.values[1:]) * w
        flux = np.concatenate(([0.0], face, [0.0]))
        dt = 0.2 * (x[1] - x[0]) / max(float(np.abs(w).max()), 1e-12)
        u = _State(np.maximum(u.values - dt * np.diff(flux) / (x[1] - x[0]), 0.0),
                   u.time + dt)
        kept.append((u.time, float(u.values.sum()), float(u.values.max())))
    return sum(k[1] for k in kept)
