"""The benchmark workloads: inputs from a seed, set-up, and output checks.

Each workload drives the public CLI (`fracpme.cli.main`) with an argv made
from the seed.  The seed moves the inputs only inside narrow ranges: the box
centre (which leaves the step count unchanged) and +-1% of the box width and
height or of the obstacle level.  Wider ranges change the amount of work by
more than the run-to-run noise, and the benchmark's spread across seeds would
then measure the seed rather than the program.

Importing this module loads no third-party package; `build` and `check` run
in the child process after `fracpme` is imported there.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

# Relative tolerance of the mass check against the analytic box mass w^n h.
MASS_RTOL = 1e-9
# Solver tolerance of `solve_obstacle` (its default); report residuals must
# stay below ten times it, relative to max(C, max V).
OBSTACLE_TOL = 1e-9
VERIFY_CHECKS = 14


def _num(x: float) -> str:
    return f"{x:.6f}"


class Evolve:
    """`evolve` from a box datum; the step is an accepted time step."""

    def __init__(self, name, n, N, L, s, end_time, stride, every):
        self.name = name
        self.n, self.N, self.L, self.s, self.end_time = n, N, L, s, end_time
        self.stride, self.every = stride, every

    def params(self, seed: int) -> dict:
        rng = random.Random(seed)
        c = rng.uniform(-0.25, 0.25)
        w = 2.0 * rng.uniform(0.99, 1.01)
        h = rng.uniform(0.99, 1.01)
        # round-trip through the argv text so the checks use what the CLI reads
        return {"c": float(_num(c)), "w": float(_num(w)), "h": float(_num(h))}

    def datum(self, p: dict) -> str:
        return f"box({_num(p['c'])},{_num(p['w'])},{_num(p['h'])})"

    def argv(self, p: dict, out: str) -> list:
        return [
            "evolve", "--n", str(self.n), "--N", str(self.N), "--L", str(self.L),
            "--s", str(self.s), "--end-time", str(self.end_time),
            "--datum", self.datum(p),
            "--snapshot-stride", str(self.stride),
            "--snapshot-every", str(self.every), "--out", out,
        ]

    def build(self, p: dict):
        from fracpme.fracops import FREESPACE, FracOperator, FracParams
        from fracpme.grid import Grid
        from fracpme.io import build_datum, parse_datum

        grid = Grid(self.n, self.L, self.N)
        op = FracOperator(grid, FracParams(s=self.s, dim=self.n), FREESPACE)
        datum = build_datum(*parse_datum(self.datum(p)), grid)
        return grid, op, datum

    def check(self, p: dict, out: Path, stdout: str) -> tuple:
        """(problems, work units, printed step count, file to digest).
        A missing or malformed output raises OSError, ValueError or KeyError."""
        line = next(x for x in stdout.splitlines() if x.startswith("physical run:"))
        words = line.split()
        steps, records = int(words[2]), int(words[4])
        path = out / "diagnostics.csv"
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        problems = []
        if len(rows) != records:
            problems.append(f"{len(rows)} CSV rows, {records} records printed")
        mass = p["w"] ** self.n * p["h"]
        worst = max(abs(float(r["mass"]) - mass) / mass for r in rows)
        if not worst <= MASS_RTOL:
            problems.append(f"mass off the analytic {mass:.17g} by {worst:.3e}")
        linf = min(float(r["linf"]) for r in rows)
        if not linf >= 0.0:
            problems.append(f"minimum linf {linf!r} below 0")
        return problems, steps, steps, path


class Obstacle:
    """2-D `obstacle` at level C; the step is one solved unknown."""

    def __init__(self, name, n, N, L, s, C):
        self.name = name
        self.n, self.N, self.L, self.s, self.C = n, N, L, s, C

    def params(self, seed: int) -> dict:
        rng = random.Random(seed)
        return {"C": float(_num(self.C * rng.uniform(0.99, 1.01)))}

    def argv(self, p: dict, out: str) -> list:
        return ["obstacle", "--n", str(self.n), "--s", str(self.s),
                "--N", str(self.N), "--L", str(self.L), "--C", _num(p["C"]),
                "--out", out]

    def problem(self, p: dict):
        from fracpme.evolution import Exponents
        from fracpme.grid import Grid
        from fracpme.obstacle import ObstacleProblem

        grid = Grid(self.n, self.L, self.N)
        a = Exponents(self.n, self.s).a
        return ObstacleProblem(C=p["C"], a=a, s=self.s, grid=grid)

    def build(self, p: dict):
        from fracpme.fracops import FREESPACE, FracOperator, FracParams

        prob = self.problem(p)
        op = FracOperator(prob.grid, FracParams(s=self.s, dim=self.n), FREESPACE)
        return prob, op

    def check(self, p: dict, out: Path, stdout: str) -> tuple:
        report = dict(line.split(": ", 1) for line in
                      (out / "report.txt").read_text().splitlines())
        _, body = (out / "density.txt").read_text().split("\n\n", 1)
        vmax = max(float(x) for x in body.split())
        limit = 10.0 * OBSTACLE_TOL * max(p["C"], vmax)
        residuals = {k: float(v) for k, v in report.items() if k.startswith("residual_")}
        problems = [f"{k} = {v:.3e} above {limit:.3e}" for k, v in residuals.items()
                    if not v <= limit]
        if not residuals:
            problems.append("report.txt lists no residuals")
        if not float(report["contact_radius"]) < float(report["parabola_radius"]):
            problems.append("contact radius not inside the parabola radius")
        return problems, unknown_count(self.problem(p)), None, out / "report.txt"


class Verify:
    """`verify --quick`, fixed inputs; the step is one self-check."""

    def __init__(self, name):
        self.name = name

    def params(self, seed: int) -> dict:
        return {}

    def argv(self, p: dict, out: str) -> list:
        return ["verify", "--quick", "--out", out]

    def build(self, p: dict):
        return None

    def check(self, p: dict, out: Path, stdout: str) -> tuple:
        path = out / "verify_results.csv"
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        problems = [f"check {r['criterion']} failed" for r in rows if r["pass"] != "true"]
        if len(rows) != VERIFY_CHECKS:
            problems.append(f"{len(rows)} rows, expected {VERIFY_CHECKS}")
        return problems, len(rows), None, path


def unknown_count(prob) -> int:
    """Cells inside the parabola radius plus two cells, from the problem's
    public fields; the size of the complementarity problem."""
    if prob.C <= 0.0:
        return 0
    reach = prob.parabola_radius + 2.0 * prob.grid.spacing
    return int((prob.grid.radius2() <= reach * reach).sum())


# Why each workload is in the set is recorded in BENCHMARK.json.  obstacle_2d
# runs by name but is not listed there: the run time the benchmark may spend
# goes to long, steady runs of the two listed workloads instead.
WORKLOADS = {w.name: w for w in (
    Evolve("evolve_1d", n=1, N=1024, L=12, s=0.25, end_time=10, stride=1, every=1000),
    Obstacle("obstacle_2d", n=2, N=96, L=8, s=0.5, C=4.0),
    Verify("verify_quick"),
)}
