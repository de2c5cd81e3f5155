"""Command-line front end.

Subcommands: evolve (physical flow), rescaled (confined flow), obstacle
(stationary profile), verify (acceptance suite).  KEYS holds every setting
with the commands that read it; flags are the only way to set one.  Each
subcommand accepts the flag of every key but lists only the keys it reads: a
flag it does not read is a violation.  A flag must be spelled in full: a
prefix such as `--c` for `--cfl` is a usage error.  Every violation is
collected before reporting, so a bad command line fails once with the full
list.  Only the subcommand sets the mode: no flag does.

Exit codes, fixed for scripting: 0 success, 1 criterion failure,
2 configuration error (an allocation the machine refuses included), 3 numerical
abort.  The commands catch nothing: `main` alone maps a fault to its
FRACPME-FAIL line and exit code, a RuntimeError (NumericalAbort included) to
numerical and a ValueError, an OSError or a MemoryError to config.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import make_dataclass
from pathlib import Path
from typing import NamedTuple

from .evolution import run
from .grid import Grid
from .io import (
    build_datum,
    parse_datum,
    snapshot_datum,
    write_diagnostics,
    write_snapshot,
)
from .obstacle import ObstacleProblem, match_mass, solve_obstacle

EXIT_OK = 0
EXIT_CRITERION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_COMMANDS = {  # command -> (the mode it sets, its help)
    "evolve": ("physical", "advance the physical flow"),
    "rescaled": ("rescaled", "advance the confined self-similar flow"),
    "obstacle": ("obstacle", "solve the stationary profile at level C (or mass M)"),
    "verify": ("verify", "run the acceptance suite"),
}
_MODE_COMMAND = {mode: command for command, (mode, _) in _COMMANDS.items()}


class _Key(NamedTuple):
    kind: type  # bool, int, float or str
    default: object
    flag: str
    help: str
    commands: tuple  # the commands that read the key


_FLOW, _GRID = ("evolve", "rescaled"), ("evolve", "rescaled", "obstacle")
KEYS = {
    "n": _Key(int, 1, "--n", "space dimension (1 or 2)", _GRID),
    "s": _Key(float, 0.25, "--s", "fractional order in (0, 1)", _GRID),
    "L": _Key(float, 6.0, "--L", "half-width of the box", _GRID),
    "N": _Key(int, 256, "--N", "cells per axis (even, >= 8)", _GRID),
    "end_time": _Key(float, 1.0, "--end-time", "time at which the run stops", _FLOW),
    "datum": _Key(str, "box(0,2,1)", "--datum", "box(c,w,h) | parabola_cap(a,b) | "
                  "gaussian_truncated(sigma) | from_file(path)", _FLOW),
    "out": _Key(str, "out", "--out", "output directory", (*_GRID, "verify")),
    "C": _Key(float, None, "--C", "obstacle level", ("obstacle",)),
    "M": _Key(float, None, "--M", "target mass, in place of C", ("obstacle",)),
    "cfl_safety": _Key(float, 0.4, "--cfl", "time-step safety factor in (0, 1]", _FLOW),
    "snapshot_stride": _Key(int, 1, "--snapshot-stride", "record every k-th step", _FLOW),
    "snapshot_every": _Key(int, 50, "--snapshot-every", "write every k-th record", _FLOW),
    "quick": _Key(bool, False, "--quick", "coarse grids, doubled tolerances", ("verify",)),
}
# a run's settings: the mode, which only the subcommand sets, and every key
RunConfig = make_dataclass("RunConfig", [("mode", str, "physical")] + [
    (key, spec.kind, spec.default) for key, spec in KEYS.items()])


def read_keys(mode: str) -> set:
    """The keys a run of `mode` reads."""
    return {key for key, spec in KEYS.items() if _MODE_COMMAND[mode] in spec.commands}


def validate_config(cfg: RunConfig) -> list:
    """Every constraint cfg violates, in field order; empty means runnable.
    A key its mode does not read holds its valid default (parse_argv refuses
    its flag), so only the C/M rules wait for the obstacle mode."""
    bad = []
    if cfg.n not in (1, 2):
        bad.append(f"n must be 1 or 2, got {cfg.n}")
    if not 0.0 < cfg.s < 1.0:
        bad.append(f"s must lie in (0, 1), got {cfg.s}")
    elif cfg.n == 1 and cfg.s >= 0.5:
        bad.append(f"s = {cfg.s} violates the s < 1/2 restriction in one dimension "
                   "(kernel positivity)")
    if not 0.0 < cfg.L < math.inf:
        bad.append(f"L must be positive and finite, got {cfg.L}")
    if cfg.N < 8 or cfg.N % 2:
        bad.append(f"N must be even and >= 8, got {cfg.N}")
    elif cfg.n in (1, 2) and 0.0 < cfg.L < math.inf:
        try:
            Grid(cfg.n, cfg.L, cfg.N)
        except ValueError as exc:  # a spacing or cell volume that over- or underflows
            bad.append(str(exc))
    if not 0.0 < cfg.end_time < math.inf:
        bad.append(f"end_time must be positive and finite, got {cfg.end_time}")
    try:
        parse_datum(cfg.datum)
    except ValueError as exc:
        bad.append(str(exc))
    if not 0.0 < cfg.cfl_safety <= 1.0:
        bad.append(f"cfl_safety must lie in (0, 1], got {cfg.cfl_safety}")
    if cfg.snapshot_stride < 1:
        bad.append(f"snapshot_stride must be >= 1, got {cfg.snapshot_stride}")
    if cfg.snapshot_every < 1:
        bad.append(f"snapshot_every must be >= 1, got {cfg.snapshot_every}")
    if cfg.mode == "obstacle":
        if (cfg.C is None) == (cfg.M is None):
            bad.append("obstacle mode needs exactly one of C, M")
        if cfg.C is not None and not math.isfinite(cfg.C):
            bad.append(f"C must be finite, got {cfg.C}")
        if cfg.M is not None and not 0.0 < cfg.M < math.inf:
            bad.append(f"M must be positive and finite, got {cfg.M}")
    return bad


def _machine_line(kind: str, detail: str) -> None:
    # single greppable failure line, format pinned for scripting
    print(f"FRACPME-FAIL {kind}: {detail}")


def cmd_evolve(cfg: RunConfig) -> int:
    grid = Grid(cfg.n, cfg.L, cfg.N)
    name, args = parse_datum(cfg.datum)
    if name == "from_file":
        u0, start = snapshot_datum(args[0], grid, cfg.mode, cfg.s, cfg.end_time)
    else:
        u0, start = build_datum(name, args, grid), 0.0
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    kept = []  # (record, time, state): every snapshot_every-th and the latest

    def keep(k, t, state):
        if kept and kept[-1][0] % cfg.snapshot_every:
            kept.pop()  # a later record arrived, so that one was not the last
        kept.append((k, t, state))

    traj = run(u0, cfg.mode, cfg.s, cfg.end_time, snapshot_stride=cfg.snapshot_stride,
               cfl_safety=cfg.cfl_safety, start_time=start, on_record=keep)
    write_diagnostics(out / "diagnostics.csv", traj.diagnostics)
    for k, t, snap in kept:
        write_snapshot(out / f"snapshot_{k:06d}.txt", snap,
                       s=cfg.s, time=t, mode=cfg.mode)
    print(f"{cfg.mode} run: {traj.steps} steps, {len(traj.times)} records -> {out}")
    return EXIT_OK


def cmd_obstacle(cfg: RunConfig) -> int:
    """Solve for the profile at level C, or the one whose discrete mass is M,
    and write its snapshots and report."""
    grid = Grid(cfg.n, cfg.L, cfg.N)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.M is not None:
        sol = match_mass(cfg.M, cfg.s, grid)
    else:
        sol = solve_obstacle(ObstacleProblem(C=cfg.C, s=cfg.s, grid=grid))
    write_snapshot(out / "pressure.txt", sol.pressure, s=cfg.s, time=0.0,
                   mode="obstacle")
    write_snapshot(out / "density.txt", sol.density, s=cfg.s, time=0.0,
                   mode="obstacle")
    report = [
        f"C: {sol.problem.C:.17g}",
        f"a: {sol.problem.a:.17g}",
        f"s: {cfg.s:.17g}",
        f"mass: {sol.mass:.17g}",
        f"contact_radius: {sol.contact_radius:.17g}",
        f"parabola_radius: {sol.problem.parabola_radius:.17g}",
        f"sweeps: {sol.sweeps}",
    ]
    report.extend(f"residual_{k}: {v:.6e}" for k, v in sorted(sol.residuals.items()))
    (out / "report.txt").write_text("\n".join(report) + "\n")
    print(f"obstacle solve: C = {sol.problem.C:.6g}, R = {sol.contact_radius:.6g}, "
          f"mass = {sol.mass:.6g} -> {out}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    from .verify import run_suite  # deferred: pulls in the whole stack

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return EXIT_OK if run_suite(quick=cfg.quick, out_dir=out) else EXIT_CRITERION


def build_parser() -> argparse.ArgumentParser:
    """The fracpme parser: one subparser per command, each holding the flag
    of every key (see KEYS); the flags the command does not read are hidden
    from its help and usage, and no flag may be abbreviated."""
    parser = argparse.ArgumentParser(
        prog="fracpme", allow_abbrev=False,
        description="Nonlocal porous-medium flow: evolution, stationary "
                    "profiles, and the verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (mode, blurb) in _COMMANDS.items():
        p = sub.add_parser(name, help=blurb, allow_abbrev=False)
        reads = read_keys(mode)
        for key, spec in KEYS.items():
            switch = {"action": "store_const", "const": True} if spec.kind is bool else {}
            p.add_argument(spec.flag, dest=key,
                           help=spec.help if key in reads else argparse.SUPPRESS, **switch)
    return parser


def parse_argv(argv) -> tuple:
    """(config, violations) of a command line: the violations are a bad
    value of a flag the command reads, then each flag of KEYS it does not
    read, then validate_config's.  The config is returned even when
    violations exist, so callers can report against it; never run it.  An
    unknown argument is a usage error (SystemExit 2)."""
    args = build_parser().parse_args(argv)
    cfg = RunConfig(mode=_COMMANDS[args.command][0])
    reads = read_keys(cfg.mode)
    violations, unread = [], []
    for key, spec in KEYS.items():
        value = getattr(args, key)
        if value is None:
            continue
        if key not in reads:
            unread.append(f"flag {spec.flag}: {args.command} does not read {key}")
            continue
        try:
            setattr(cfg, key, value if spec.kind is bool else spec.kind(value.strip()))
        except ValueError as exc:
            violations.append(f"flag {spec.flag}: {exc}")
    return cfg, violations + unread + validate_config(cfg)


def main(argv=None) -> int:
    cfg, violations = parse_argv(argv)
    if violations:
        for v in violations:
            _machine_line("config", v)
        return EXIT_CONFIG
    try:
        if cfg.mode in ("physical", "rescaled"):
            return cmd_evolve(cfg)
        if cfg.mode == "obstacle":
            return cmd_obstacle(cfg)
        return cmd_verify(cfg)
    except ValueError as exc:  # a datum, snapshot, time span, s or mass refused
        _machine_line("config", str(exc))
        return EXIT_CONFIG
    except RuntimeError as exc:  # NumericalAbort, an obstacle guard, a dead verify worker
        _machine_line("numerical", str(exc))
        return EXIT_NUMERICAL
    except OSError as exc:  # the output directory or a file in it
        _machine_line("config", f"cannot write outputs: {exc}")
        return EXIT_CONFIG
    except MemoryError as exc:  # a grid too large for this machine
        _machine_line("config", f"out of memory: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
