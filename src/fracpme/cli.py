"""Command-line front end.

Subcommands: evolve (physical flow), rescaled (confined flow), obstacle
(stationary profile), verify (acceptance suite), sweep (parameter study).
KEYS holds every setting with the commands that read it; a sweep also reads
the keys of its sweep_mode.  Settings come from an optional ``key = value``
file plus flags; flags override the file.  Each subcommand registers and
checks only the keys it reads: an unread flag or file key, a sweep_key its
sweep_mode does not read, a value set for the swept key and two sweep values
that share an output directory are violations.  Every violation is collected
before reporting, so a bad config fails once with the full list.  Only the
subcommand sets the mode: no flag or file key does.

Exit codes, fixed for scripting: 0 success, 1 criterion failure,
2 configuration error (an allocation the machine refuses included), 3 numerical
abort.

Sweep members run on the available cores (`fanout.fan_out`); their stdout
is written in value order, then their fault lines, as a serial run would.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import sys
from dataclasses import make_dataclass, replace
from pathlib import Path
from typing import NamedTuple

from .evolution import NumericalAbort, SolverConfig, check_time_span, run
from .fracops import FracOperator, FracParams
from .grid import Grid
from .io import (
    build_datum,
    parse_datum,
    snapshot_datum,
    write_diagnostics,
    write_snapshot,
)
from .obstacle import ObstacleProblem, mass_law, match_mass, solve_obstacle

EXIT_OK = 0
EXIT_CRITERION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

SWEEPABLE = ("N", "L", "s", "end_time", "C", "cfl_safety")
SWEEP_MODES = ("physical", "rescaled", "obstacle")
_COMMANDS = {  # command -> (the mode it sets, its help)
    "evolve": ("physical", "advance the physical flow"),
    "rescaled": ("rescaled", "advance the confined self-similar flow"),
    "obstacle": ("obstacle", "solve the stationary profile at level C (or mass M)"),
    "verify": ("verify", "run the acceptance suite"),
    "sweep": ("sweep", "repeat a run over a list of parameter values"),
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
    "out": _Key(str, "out", "--out", "output directory", (*_GRID, "verify", "sweep")),
    "C": _Key(float, None, "--C", "obstacle level", ("obstacle",)),
    "M": _Key(float, None, "--M", "target mass, in place of C", ("obstacle",)),
    "cfl_safety": _Key(float, 0.4, "--cfl", "time-step safety factor in (0, 1]", _FLOW),
    "snapshot_stride": _Key(int, 1, "--snapshot-stride", "record every k-th step", _FLOW),
    "snapshot_every": _Key(int, 50, "--snapshot-every", "write every k-th record", _FLOW),
    "quick": _Key(bool, False, "--quick", "coarse grids, doubled tolerances", ("verify",)),
    "sweep_key": _Key(str, None, "--sweep-key", "one of " + ", ".join(SWEEPABLE), ("sweep",)),
    "sweep_values": _Key(str, None, "--sweep-values", "comma-separated list", ("sweep",)),
    "sweep_mode": _Key(str, None, "--sweep-mode", " | ".join(SWEEP_MODES), ("sweep",)),
}
# a run's settings: the mode, which only the subcommand sets, and every key
RunConfig = make_dataclass("RunConfig", [("mode", str, "physical")] + [
    (key, spec.kind, spec.default) for key, spec in KEYS.items()],
    namespace={"__module__": __name__})  # so that sweep workers can pickle it


def read_keys(*modes: str) -> set:
    """The keys a run of any of `modes` reads; a sweep's own keys only."""
    commands = {_MODE_COMMAND[mode] for mode in modes}
    return {key for key, spec in KEYS.items() if commands.intersection(spec.commands)}


def _coerce(key: str, raw: str):
    raw = raw.strip()
    if KEYS[key].kind is bool:
        low = raw.lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        raise ValueError(f"{key} expects a boolean, got {raw!r}")
    return KEYS[key].kind(raw)


def parse_config(path: str | None, overrides: dict) -> tuple:
    """Merge config file and flag overrides into a RunConfig; an override
    "mode" sets the mode.

    Returns (config, violations).  A key the mode does not accept is a
    violation.  The config is still returned when violations exist so
    callers can report against it; never run it."""
    violations = []
    cfg = RunConfig(mode=overrides.get("mode", RunConfig.mode))
    given = {}  # key -> (where it was set, value); a flag replaces the file's
    if path is not None:
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            return cfg, [f"config file: {exc}"]
        for lineno, line in enumerate(text.splitlines(), 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            key, sep, value = body.partition("=")
            key = key.strip()
            if not sep:
                violations.append(f"{path}:{lineno}: expected key = value, got {line!r}")
            elif key not in KEYS:
                violations.append(f"{path}:{lineno}: unknown key {key!r}")
            else:
                given[key] = (f"{path}:{lineno}", value)
    given.update((key, (f"flag {KEYS[key].flag}", value)) for key, value in overrides.items()
                 if key != "mode" and value is not None)
    # a sweep accepts the keys of its sweep_mode, or of every one while it names none
    sweep_mode = given["sweep_mode"][1].strip() if "sweep_mode" in given else None
    reader, modes = _MODE_COMMAND[cfg.mode], [cfg.mode]
    if cfg.mode == "sweep":
        modes += [sweep_mode] if sweep_mode in SWEEP_MODES else SWEEP_MODES
        reader += f" --sweep-mode {sweep_mode}" if sweep_mode in SWEEP_MODES else ""
    accepted = read_keys(*modes)
    swept = given["sweep_key"][1].strip() if cfg.mode == "sweep" and "sweep_key" in given else None
    for key, (where, value) in given.items():
        if key not in accepted:
            violations.append(f"{where}: {reader} does not read {key}")
            continue
        if key == swept:
            violations.append(f"{where}: sweep takes {key} from sweep_values")
            continue
        try:
            setattr(cfg, key, _coerce(key, value) if isinstance(value, str) else value)
        except ValueError as exc:
            violations.append(f"{where}: {exc}")
    violations.extend(validate_config(cfg))
    return cfg, violations


def validate_config(cfg: RunConfig) -> list:
    """Every constraint violated by a key cfg's mode reads, in field order;
    empty means runnable.  A sweep's members are checked when it runs."""
    reads = read_keys(cfg.mode)
    bad = []
    if "n" in reads and cfg.n not in (1, 2):
        bad.append(f"n must be 1 or 2, got {cfg.n}")
    if "s" in reads and not 0.0 < cfg.s < 1.0:
        bad.append(f"s must lie in (0, 1), got {cfg.s}")
    elif "s" in reads and cfg.n == 1 and cfg.s >= 0.5:
        bad.append(f"s = {cfg.s} violates the s < 1/2 restriction in one dimension "
                   "(kernel positivity)")
    if "L" in reads and not 0.0 < cfg.L < math.inf:
        bad.append(f"L must be positive and finite, got {cfg.L}")
    if "N" in reads and (cfg.N < 8 or cfg.N % 2):
        bad.append(f"N must be even and >= 8, got {cfg.N}")
    elif "N" in reads and cfg.n in (1, 2) and 0.0 < cfg.L < math.inf:
        try:
            Grid(cfg.n, cfg.L, cfg.N)
        except ValueError as exc:  # a spacing or cell volume that over- or underflows
            bad.append(str(exc))
    if "end_time" in reads and not 0.0 < cfg.end_time < math.inf:
        bad.append(f"end_time must be positive and finite, got {cfg.end_time}")
    if "datum" in reads:
        try:
            parse_datum(cfg.datum)
        except ValueError as exc:
            bad.append(str(exc))
    if "cfl_safety" in reads and not 0.0 < cfg.cfl_safety <= 1.0:
        bad.append(f"cfl_safety must lie in (0, 1], got {cfg.cfl_safety}")
    if "snapshot_stride" in reads and cfg.snapshot_stride < 1:
        bad.append(f"snapshot_stride must be >= 1, got {cfg.snapshot_stride}")
    if "snapshot_every" in reads and cfg.snapshot_every < 1:
        bad.append(f"snapshot_every must be >= 1, got {cfg.snapshot_every}")
    if "C" in reads:
        if (cfg.C is None) == (cfg.M is None):
            bad.append("obstacle mode needs exactly one of C, M")
        if cfg.C is not None and not math.isfinite(cfg.C):
            bad.append(f"C must be finite, got {cfg.C}")
        if cfg.M is not None and not 0.0 < cfg.M < math.inf:
            bad.append(f"M must be positive and finite, got {cfg.M}")
    if "sweep_key" in reads:
        if cfg.sweep_key is None or cfg.sweep_values is None:
            bad.append("sweep mode needs sweep_key and sweep_values")
        elif cfg.sweep_key not in SWEEPABLE:
            bad.append(f"sweep_key must be one of {SWEEPABLE}, got {cfg.sweep_key!r}")
        elif cfg.sweep_mode in SWEEP_MODES and cfg.sweep_key not in read_keys(cfg.sweep_mode):
            bad.append(f"sweep_key {cfg.sweep_key!r} is not read by "
                       f"{_MODE_COMMAND[cfg.sweep_mode]} (sweep_mode {cfg.sweep_mode})")
        else:
            try:
                if len(_sweep_members(cfg)) < 2:
                    bad.append("sweep_values needs at least 2 values")
            except ValueError as exc:
                bad.append(str(exc))
        if cfg.sweep_mode not in SWEEP_MODES:
            bad.append(
                f"sweep_mode must be physical, rescaled or obstacle, got {cfg.sweep_mode!r}"
            )
    return bad


def _sweep_members(cfg: RunConfig) -> dict:
    """label -> value of each sweep value, in order.  The label names the
    member's output directory, so two values of one label raise ValueError."""
    members = {}
    for part in cfg.sweep_values.split(","):
        part = part.strip()
        if not part:
            continue
        value = int(part) if cfg.sweep_key == "N" else float(part)
        label = f"{cfg.sweep_key}={value:g}"
        if label in members:
            raise ValueError(f"sweep_values {members[label]} and {value} both write to {label}")
        members[label] = value
    if not members:
        raise ValueError(f"sweep_values {cfg.sweep_values!r} parse to nothing")
    return members


def _machine_line(kind: str, detail: str) -> None:
    # single greppable failure line, format pinned for scripting
    print(f"FRACPME-FAIL {kind}: {detail}")


def _restart_time(path: str, header: dict, cfg: RunConfig) -> float:
    """Time a run from snapshot `path` starts at: the snapshot's own time for
    a physical or rescaled snapshot of the same s and mode, 0 for obstacle
    data.  Raises ValueError on a mismatch or an end time already reached."""
    if header["mode"] == "obstacle":
        return 0.0
    if header["mode"] != cfg.mode:
        raise ValueError(f"{path}: snapshot mode {header['mode']!r} does not "
                         f"match the {cfg.mode} run")
    if header["s"] != cfg.s:
        raise ValueError(f"{path}: snapshot s = {header['s']:g} does not match "
                         f"s = {cfg.s:g}")
    if cfg.end_time <= header["time"]:
        raise ValueError(f"{path}: end_time {cfg.end_time:g} does not exceed the "
                         f"snapshot time {header['time']:.17g}")
    return header["time"]


def cmd_evolve(cfg: RunConfig) -> int:
    grid = Grid(cfg.n, cfg.L, cfg.N)
    name, args = parse_datum(cfg.datum)
    try:
        if name == "from_file":
            u0, header = snapshot_datum(args[0], grid)
            start = _restart_time(args[0], header, cfg)
        else:
            u0, start = build_datum(name, args, grid), 0.0
        check_time_span(start, cfg.end_time)
        op = FracOperator(grid, FracParams(s=cfg.s, dim=cfg.n))
    except (ValueError, OSError) as exc:
        _machine_line("config", str(exc))
        return EXIT_CONFIG
    solver = SolverConfig(
        cfl_safety=cfg.cfl_safety, end_time=cfg.end_time,
        snapshot_stride=cfg.snapshot_stride,
    )
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    kept = []  # (record, time, state): every snapshot_every-th and the latest

    def keep(k, t, state):
        if kept and kept[-1][0] % cfg.snapshot_every:
            kept.pop()  # a later record arrived, so that one was not the last
        kept.append((k, t, state))

    try:
        traj = run(u0, cfg.mode, solver, op, start_time=start, on_record=keep)
    except NumericalAbort as exc:
        _machine_line("numerical", str(exc))
        return EXIT_NUMERICAL
    write_diagnostics(out / "diagnostics.csv", traj.diagnostics)
    for k, t, snap in kept:
        write_snapshot(out / f"snapshot_{k:06d}.txt", snap,
                       s=cfg.s, time=t, mode=cfg.mode)
    print(f"{cfg.mode} run: {traj.steps} steps, {len(traj.times)} records -> {out}")
    return EXIT_OK


def cmd_obstacle(cfg: RunConfig) -> tuple:
    """(exit code, solution or None): the profile at level C, or the one whose
    discrete mass is M, with its snapshots and report written."""
    grid = Grid(cfg.n, cfg.L, cfg.N)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        if cfg.M is not None:
            sol = match_mass(cfg.M, cfg.s, grid)
        else:
            sol = solve_obstacle(ObstacleProblem(C=cfg.C, s=cfg.s, grid=grid))
    except ValueError as exc:
        _machine_line("config", str(exc))
        return EXIT_CONFIG, None
    except RuntimeError as exc:
        _machine_line("numerical", str(exc))
        return EXIT_NUMERICAL, None
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
    return EXIT_OK, sol


def cmd_verify(cfg: RunConfig) -> int:
    from .verify import run_suite  # deferred: pulls in the whole stack

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        all_pass = run_suite(quick=cfg.quick, out_dir=out)
    except (ValueError, RuntimeError) as exc:  # NumericalAbort included
        code, _, fault = _fault("verify", exc)
        _machine_line(*fault)
        return code
    return EXIT_OK if all_pass else EXIT_CRITERION


def _sweep_member(job: tuple) -> tuple:
    """(exit code, solution or None, fault or None, stdout text) of a sweep
    member (label, config); an OSError propagates for main to report."""
    label, sub = job
    with contextlib.redirect_stdout(io.StringIO()) as text:
        try:
            code, sol = (cmd_obstacle(sub) if sub.mode == "obstacle"
                         else (cmd_evolve(sub), None))
        except OSError:
            raise
        except Exception as exc:  # any other fault: a FRACPME-FAIL line, no traceback
            return (*_fault(label, exc), text.getvalue())
    return code, sol, None, text.getvalue()


def _fault(label: str, exc: Exception) -> tuple:
    """(exit code, None, (kind, detail)) of the fault `exc` raised under `label`."""
    kind, code = (("config", EXIT_CONFIG) if isinstance(exc, (ValueError, MemoryError))
                  else ("numerical", EXIT_NUMERICAL))
    return code, None, (kind, f"{label}: {type(exc).__name__}: {exc}")


def cmd_sweep(cfg: RunConfig) -> int:
    from .fanout import fan_out  # deferred: pulls in the process pool

    jobs = []
    for label, value in _sweep_members(cfg).items():
        sub = replace(cfg, mode=cfg.sweep_mode, out=str(Path(cfg.out) / label),
                      **{cfg.sweep_key: value})
        problems = validate_config(sub)
        if problems:
            _machine_line("config", f"{label}: " + "; ".join(problems))
            return EXIT_CONFIG
        jobs.append((label, sub))
    results = fan_out(_sweep_member, jobs)
    sys.stdout.write("".join(r[3] for r in results if isinstance(r, tuple)))
    for r in results:
        if isinstance(r, OSError):
            raise r  # main reports unwritable outputs
    # any other exception comes from a worker that died (BrokenProcessPool)
    codes, sols, faults, _ = zip(*(r if isinstance(r, tuple) else (*_fault(label, r), "")
                                   for (label, _), r in zip(jobs, results)))
    for fault in faults:
        if fault is not None:
            _machine_line(*fault)
    worst = max(codes)
    if (cfg.sweep_mode == "obstacle" and cfg.sweep_key == "C"
            and worst == EXIT_OK and len(jobs) >= 4):
        try:
            slope, coeff = mass_law(sols)
        except ValueError as exc:
            _machine_line("config", f"mass-law study skipped: {exc}")
        else:
            text = f"exponent: {slope:.17g}\ncoefficient: {coeff:.17g}\n"
            (Path(cfg.out) / "mass_law.txt").write_text(text)
            print(f"mass law over C sweep: exponent {slope:.6g}, "
                  f"coefficient {coeff:.6g}")
    return worst


def _add_keys(parser: argparse.ArgumentParser, keys) -> None:
    for key, spec in KEYS.items():
        if key in keys:
            switch = {"action": "store_const", "const": True} if spec.kind is bool else {}
            parser.add_argument(spec.flag, dest=key, help=spec.help, **switch)


def build_parser() -> argparse.ArgumentParser:
    """The fracpme parser: one subparser per command, holding --config and
    the flag of each key the command may be given (see KEYS)."""
    parser = argparse.ArgumentParser(
        prog="fracpme",
        description="Nonlocal porous-medium flow: evolution, stationary "
                    "profiles, and the verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (mode, blurb) in _COMMANDS.items():
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", help="key = value file; flags override it")
        _add_keys(p, read_keys(mode, *(SWEEP_MODES if mode == "sweep" else ())))
    return parser


def parse_argv(argv) -> tuple:
    """(config, violations) of a command line, as parse_config returns them.
    A flag of KEYS that the command does not read is a violation; any other
    unknown argument is a usage error (SystemExit 2)."""
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    every_flag = argparse.ArgumentParser(prog=f"fracpme {args.command}", add_help=False)
    _add_keys(every_flag, KEYS)
    unread, rest = every_flag.parse_known_args(extras)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    overrides = {key: value for space in (args, unread) for key, value in vars(space).items()
                 if key in KEYS and value is not None}
    overrides["mode"] = _COMMANDS[args.command][0]
    return parse_config(args.config, overrides)


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
            return cmd_obstacle(cfg)[0]
        if cfg.mode == "verify":
            return cmd_verify(cfg)
        return cmd_sweep(cfg)
    except OSError as exc:  # the output directory or a file in it
        _machine_line("config", f"cannot write outputs: {exc}")
        return EXIT_CONFIG
    except MemoryError as exc:  # a grid too large for this machine
        _machine_line("config", f"out of memory: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
