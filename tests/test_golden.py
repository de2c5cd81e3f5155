"""Byte-identity gate: sha256 digests of the outputs of short CLI runs.

The digests pin every byte of diagnostics.csv, the snapshots, the obstacle
report and the quick verify scoreboard, so a change meant to leave the
numerics alone cannot move a last bit unnoticed.  They were recorded with the
library versions, the machine and the SIMD targets numpy dispatches log and
power to in RECORDED; another numpy or scipy, or another target, may round
differently, so the test skips there and says why.
"""

import hashlib
import platform

import numpy as np
import pytest
import scipy
from numpy.lib.introspect import opt_func_info

from fracpme.cli import EXIT_OK, main

RECORDED = {"numpy": "2.4.6", "scipy": "1.17.1", "machine": "x86_64",
            "log": "X86_V4", "power": "X86_V4"}

RUNS = {
    "evolve_1d": (["evolve", "--N", "256", "--L", "6", "--s", "0.25",
                   "--end-time", "2", "--datum", "box(0.1,2,1)",
                   "--snapshot-every", "20"],
                  "d6e2abdc3329609fcfe22965fac25a61f4495d01ae06ee11ff1d18ebdb5e4ce3"),
    "evolve_2d": (["evolve", "--n", "2", "--s", "0.5", "--N", "48", "--L", "6",
                   "--end-time", "2", "--snapshot-stride", "3",
                   "--snapshot-every", "5"],
                  "c6a5ed755b835e8f1d32856c04a2ef5562e08dae1800416f187bf0e35fe8131c"),
    "rescaled_1d": (["rescaled", "--N", "128", "--L", "6", "--end-time", "0.5",
                     "--datum", "gaussian_truncated(0.8)", "--snapshot-stride", "2",
                     "--snapshot-every", "10"],
                    "e05b9b3aa11742cfbab4393e720ce4b3f7c65c2cf13d2ecdd5211d1f220efb92"),
    "obstacle_1d": (["obstacle", "--N", "256", "--L", "4", "--C", "1"],
                    "735d155828bd4bce8c74d398a0a2340b236ebdffb5317dfeeda59cae1398340b"),
    "obstacle_2d": (["obstacle", "--n", "2", "--s", "0.5", "--N", "32", "--L", "8",
                     "--C", "4"],
                    "3009ad71cddcb552460f11c189da8088b4b8a86e3a9cd7ead4fbb18b5cf4aa9c"),
    "obstacle_mass": (["obstacle", "--M", "2", "--N", "256", "--L", "4"],
                      "4c00e55ae668f4a20d2af30f07540a7b6f8d040c2382e9097acacc06ae8c2cae"),
    # verify_results.csv, the same bytes on one core and on two
    "verify_quick": (["verify", "--quick"],
                     "9fcd2ccbc00eef63f7afd52df1f888de52b63ea61d64f0cc82400b5683a199f2"),
}


def _digest(out) -> str:
    """sha256 over the name and bytes of every output file, in name order."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_recorded_digests(tmp_path, capsys, name):
    installed = {"numpy": np.__version__, "scipy": scipy.__version__,
                 "machine": platform.machine()}
    for ufunc, loops in opt_func_info(func_name="^(log|power)$",
                                      signature="^float64").items():
        installed[ufunc] = " ".join(loop["current"] for loop in loops.values())
    if installed != RECORDED:
        pytest.skip(f"digests recorded with {RECORDED}, installed {installed}")
    argv, digest = RUNS[name]
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert _digest(out) == digest
