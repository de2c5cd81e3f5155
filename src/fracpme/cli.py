"""Command-line front end.

Subcommands: evolve (physical flow), rescaled (confined flow), obstacle
(stationary profile), verify (acceptance suite), sweep (parameter study).
Configuration comes from an optional ``key = value`` file plus flags; flags
override the file, and every violation is collected before reporting so a bad
config fails once with the full list.  Only the subcommand sets the mode: no
flag or file key does.

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
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .evolution import NumericalAbort, SolverConfig, check_time_span, run
from .fracops import Exponents, FracOperator, FracParams
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


@dataclass
class RunConfig:
    n: int = 1
    s: float = 0.25
    mode: str = "physical"
    L: float = 6.0
    N: int = 256
    end_time: float = 1.0
    datum: str = "box(0,2,1)"
    out: str = "out"
    C: float | None = None
    M: float | None = None
    cfl_safety: float = 0.4
    snapshot_stride: int = 1
    snapshot_every: int = 50
    quick: bool = False
    allow_supercritical: bool = False
    sweep_key: str | None = None
    sweep_values: str | None = None
    sweep_mode: str | None = None


_BOOL_KEYS = {"quick", "allow_supercritical"}
_INT_KEYS = {"n", "N", "snapshot_stride", "snapshot_every"}
_FLOAT_KEYS = {"s", "L", "end_time", "C", "M", "cfl_safety"}
_KNOWN_KEYS = {f.name for f in fields(RunConfig)}
_FILE_KEYS = _KNOWN_KEYS - {"mode"}  # the subcommand sets the mode


def _coerce(key: str, raw: str):
    raw = raw.strip()
    if key in _BOOL_KEYS:
        low = raw.lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        raise ValueError(f"{key} expects a boolean, got {raw!r}")
    if key in _INT_KEYS:
        return int(raw)
    if key in _FLOAT_KEYS:
        return float(raw)
    return raw


def parse_config(path: str | None, overrides: dict) -> tuple:
    """Merge config file and flag overrides into a RunConfig.

    Returns (config, violations).  The config is still returned when
    violations exist so callers can report against it; never run it."""
    violations = []
    cfg = RunConfig()
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            return cfg, [f"config file: {exc}"]
        for lineno, line in enumerate(text.splitlines(), 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            key, sep, value = body.partition("=")
            key = key.strip()
            if not sep:
                violations.append(f"{path}:{lineno}: expected key = value, got {line!r}")
                continue
            if key not in _FILE_KEYS:
                violations.append(f"{path}:{lineno}: unknown key {key!r}")
                continue
            try:
                setattr(cfg, key, _coerce(key, value))
            except ValueError as exc:
                violations.append(f"{path}:{lineno}: {exc}")
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in _KNOWN_KEYS:
            violations.append(f"flag: unknown key {key!r}")
            continue
        if isinstance(value, str):
            try:
                value = _coerce(key, value)
            except ValueError as exc:
                violations.append(f"flag --{key.replace('_', '-')}: {exc}")
                continue
        setattr(cfg, key, value)
    violations.extend(validate_config(cfg))
    return cfg, violations


def validate_config(cfg: RunConfig) -> list:
    """Every constraint violated by cfg, in field order; empty means runnable."""
    bad = []
    if cfg.n not in (1, 2):
        bad.append(f"n must be 1 or 2, got {cfg.n}")
    if not 0.0 < cfg.s < 1.0:
        bad.append(f"s must lie in (0, 1), got {cfg.s}")
    elif cfg.n == 1 and cfg.s >= 0.5 and not cfg.allow_supercritical:
        bad.append(
            f"s = {cfg.s} violates the s < 1/2 restriction in one dimension "
            "(kernel positivity); pass --allow-supercritical to bypass"
        )
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
    if cfg.mode == "sweep":
        if cfg.sweep_key is None or cfg.sweep_values is None:
            bad.append("sweep mode needs sweep_key and sweep_values")
        else:
            if cfg.sweep_key not in SWEEPABLE:
                bad.append(f"sweep_key must be one of {SWEEPABLE}, got {cfg.sweep_key!r}")
            else:
                try:
                    values = _sweep_values(cfg)
                except ValueError as exc:
                    bad.append(str(exc))
                else:
                    if len(values) < 2:
                        bad.append("sweep_values needs at least 2 values")
            if cfg.sweep_mode not in ("physical", "rescaled", "obstacle"):
                bad.append(
                    f"sweep_mode must be physical, rescaled or obstacle, got {cfg.sweep_mode!r}"
                )
    return bad


def _sweep_values(cfg: RunConfig) -> list:
    out = []
    for part in cfg.sweep_values.split(","):
        part = part.strip()
        if not part:
            continue
        out.append(int(part) if cfg.sweep_key == "N" else float(part))
    if not out:
        raise ValueError(f"sweep_values {cfg.sweep_values!r} parse to nothing")
    return out


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
        params = FracParams(s=cfg.s, dim=cfg.n,
                            allow_supercritical=cfg.allow_supercritical)
        op = FracOperator(grid, params)
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
            a = Exponents(cfg.n, cfg.s).a
            sol = solve_obstacle(ObstacleProblem(C=cfg.C, a=a, s=cfg.s, grid=grid))
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
    all_pass = run_suite(quick=cfg.quick, out_dir=out)
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
            return (*_sweep_fault(label, exc), text.getvalue())
    return code, sol, None, text.getvalue()


def _sweep_fault(label: str, exc: Exception) -> tuple:
    kind, code = (("config", EXIT_CONFIG) if isinstance(exc, (ValueError, MemoryError))
                  else ("numerical", EXIT_NUMERICAL))
    return code, None, (kind, f"{label}: {type(exc).__name__}: {exc}")


def cmd_sweep(cfg: RunConfig) -> int:
    from .fanout import fan_out  # deferred: pulls in the process pool

    values = _sweep_values(cfg)
    jobs = []
    for value in values:
        label = f"{cfg.sweep_key}={value:g}"
        sub = replace(cfg, mode=cfg.sweep_mode, out=str(Path(cfg.out) / label),
                      sweep_key=None, sweep_values=None, sweep_mode=None)
        setattr(sub, cfg.sweep_key, value)
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
    codes, sols, faults, _ = zip(*(r if isinstance(r, tuple) else (*_sweep_fault(label, r), "")
                                   for (label, _), r in zip(jobs, results)))
    for fault in faults:
        if fault is not None:
            _machine_line(*fault)
    worst = max(codes)
    if (cfg.sweep_mode == "obstacle" and cfg.sweep_key == "C"
            and worst == EXIT_OK and len(values) >= 4):
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracpme",
        description="Nonlocal porous-medium flow: evolution, stationary "
                    "profiles, and the verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("evolve", "advance the physical flow"),
        ("rescaled", "advance the confined self-similar flow"),
        ("obstacle", "solve the stationary profile at level C (or mass M)"),
        ("verify", "run the acceptance suite"),
        ("sweep", "repeat a run over a list of parameter values"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", help="key = value file; flags override it")
        p.add_argument("--n", help="space dimension (1 or 2)")
        p.add_argument("--s", help="fractional order in (0, 1)")
        p.add_argument("--L", help="half-width of the box")
        p.add_argument("--N", help="cells per axis (even, >= 8)")
        p.add_argument("--end-time", dest="end_time")
        p.add_argument("--datum", help="box(c,w,h) | parabola_cap(a,b) | "
                                       "gaussian_truncated(sigma) | from_file(path)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--C", help="obstacle level")
        p.add_argument("--M", help="target mass (obstacle mode)")
        p.add_argument("--cfl", dest="cfl_safety")
        p.add_argument("--snapshot-stride", dest="snapshot_stride")
        p.add_argument("--snapshot-every", dest="snapshot_every")
        p.add_argument("--quick", action="store_const", const=True)
        p.add_argument("--allow-supercritical", action="store_const", const=True,
                       dest="allow_supercritical")
        p.add_argument("--sweep-key", dest="sweep_key", choices=SWEEPABLE)
        p.add_argument("--sweep-values", dest="sweep_values",
                       help="comma-separated list")
        p.add_argument("--sweep-mode", dest="sweep_mode",
                       choices=("physical", "rescaled", "obstacle"))
    return parser


_COMMAND_MODE = {"evolve": "physical", "rescaled": "rescaled",
                 "obstacle": "obstacle", "verify": "verify", "sweep": "sweep"}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config") and v is not None}
    overrides["mode"] = _COMMAND_MODE[args.command]
    cfg, violations = parse_config(args.config, overrides)
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
