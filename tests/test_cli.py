import argparse
import json
import os
import re
import resource
import shlex
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from fracpme import cli, evolution, obstacle
from fracpme.cli import (EXIT_CONFIG, EXIT_CRITERION, EXIT_NUMERICAL, EXIT_OK,
                         RunConfig, main, parse_config, validate_config)
from fracpme.evolution import NumericalAbort
from fracpme.grid import Field, Grid
from fracpme.io import read_snapshot, write_snapshot
from fracpme.fracops import FracParams
from fracpme.obstacle import ObstacleProblem, solve_obstacle


def test_flag_overrides_file(tmp_path):
    # config precedence is part of the interface; pin it on its own
    f = tmp_path / "cfg.txt"
    f.write_text("N = 64\nL = 5.0\nend_time = 0.1\n")
    cfg, violations = parse_config(str(f), {"N": 32})
    assert violations == []
    assert cfg.N == 32 and cfg.L == 5.0


def test_flag_overrides_file_end_to_end(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text("N = 64\nL = 5.0\nend_time = 0.05\n")
    out = tmp_path / "run"
    assert main(["evolve", "--config", str(f), "--L", "4",
                 "--out", str(out)]) == EXIT_OK
    _, header = read_snapshot(out / "snapshot_000000.txt")
    assert header["L"] == 4.0 and header["N"] == 64


def test_config_file_comments_and_blanks(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text("# a comment\n\nN = 32   # trailing note\n")
    cfg, violations = parse_config(str(f), {})
    assert violations == [] and cfg.N == 32


def test_all_violations_collected():
    cfg, violations = parse_config(None, {"N": 63, "s": 0.7, "end_time": -1.0})
    assert len(violations) == 3
    joined = " | ".join(violations)
    assert "N must be even" in joined
    assert "s < 1/2 restriction" in joined
    assert "end_time must be positive" in joined


def test_unknown_file_key_reports_position(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text("N = 64\nbogus = 3\n")
    _, violations = parse_config(str(f), {})
    assert any(f"{f}:2: unknown key 'bogus'" in v for v in violations)


def test_malformed_file_line(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text("just words\n")
    _, violations = parse_config(str(f), {})
    assert any("expected key = value" in v for v in violations)


def test_bad_boolean_in_file(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text("quick = maybe\n")
    _, violations = parse_config(str(f), {"mode": "verify"})
    assert any("expects a boolean" in v for v in violations)


def test_missing_config_file():
    _, violations = parse_config("/nonexistent/cfg.txt", {})
    assert len(violations) == 1 and "config file:" in violations[0]


def test_undecodable_config_file(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"N = 32\n\xff\n")
    _, violations = parse_config(str(path), {})
    assert len(violations) == 1 and violations[0].startswith("config file: ")
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "run")]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out.startswith("FRACPME-FAIL config: ") and "config file: " in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_one_dimension_refuses_s_from_one_half(tmp_path, capsys):
    # the Riesz kernel inverts the fractional Laplacian only for 2s < n
    out = ["--out", str(tmp_path / "run")]
    for argv in (["evolve", *out], ["rescaled", *out], ["obstacle", "--C", "1", *out]):
        for s in ("0.5", "0.6"):
            assert main([*argv, "--s", s]) == EXIT_CONFIG
            assert capsys.readouterr().out == (
                f"FRACPME-FAIL config: s = {s} violates the s < 1/2 restriction in "
                "one dimension (kernel positivity)\n")
    assert not (tmp_path / "run").exists()
    assert validate_config(RunConfig(n=2, s=0.6)) == []


@pytest.mark.parametrize("field,value,msg", [
    ("n", 3, "n must be 1 or 2"),
    ("s", 1.5, "s must lie in"),
    ("L", -2.0, "L must be positive"),
    ("N", 6, "N must be even and >= 8"),
    ("cfl_safety", 0.0, "cfl_safety must lie in"),
    ("snapshot_stride", 0, "snapshot_stride must be >= 1"),
    ("snapshot_every", -1, "snapshot_every must be >= 1"),
    ("datum", "blob(1)", "unknown datum shape"),
])
def test_validate_config_rejects(field, value, msg):
    cfg = RunConfig(**{field: value})
    assert any(msg in v for v in validate_config(cfg))


def test_obstacle_needs_exactly_one_of_c_and_m():
    needs = "exactly one of C, M"
    assert any(needs in v for v in validate_config(RunConfig(mode="obstacle")))
    both = RunConfig(mode="obstacle", C=1.0, M=2.0)
    assert any(needs in v for v in validate_config(both))
    assert validate_config(RunConfig(mode="obstacle", C=1.0)) == []


def test_evolve_exit_ok_and_outputs(tmp_path, read_diagnostics):
    out = tmp_path / "run"
    code = main(["evolve", "--N", "64", "--L", "6", "--end-time", "0.1",
                 "--out", str(out)])
    assert code == EXIT_OK
    table = read_diagnostics(out / "diagnostics.csv")
    assert len(table["time"]) >= 2
    assert (out / "snapshot_000000.txt").exists()
    field, header = read_snapshot(sorted(out.glob("snapshot_*.txt"))[-1])
    assert header["mode"] == "physical"
    assert field.values.min() >= 0.0


def test_rescaled_subcommand_pins_mode(tmp_path):
    out = tmp_path / "run"
    assert main(["rescaled", "--N", "64", "--L", "6", "--end-time", "0.2",
                 "--out", str(out)]) == EXIT_OK
    _, header = read_snapshot(out / "snapshot_000000.txt")
    assert header["mode"] == "rescaled"


# only the subcommand sets the mode: neither a flag nor a file key can
@pytest.mark.parametrize("value", ["physical", "rescaled"])
def test_mode_flag_is_rejected(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--mode", value, "--out", str(tmp_path / "run")])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --mode" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_no_flag_or_file_key_lifts_the_one_dimensional_rule(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--s", "0.6", "--allow-supercritical", "--out", str(tmp_path / "run")])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --allow-supercritical" in capsys.readouterr().err
    f = tmp_path / "cfg.txt"
    f.write_text("allow_supercritical = true\n")
    _, violations = parse_config(str(f), {})
    assert violations == [f"{f}:1: unknown key 'allow_supercritical'"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [
    ["sweep"],
    ["sweep", "--sweep-key", "C", "--sweep-values", "0.5,1,2,4", "--sweep-mode", "obstacle"],
])
def test_sweep_command_is_rejected(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "run")])
    assert exc.value.code == EXIT_CONFIG
    assert "invalid choice: 'sweep'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, value", [
    ("sweep_key", "N"), ("sweep_values", "32,64"), ("sweep_mode", "physical")])
def test_sweep_settings_are_rejected(tmp_path, capsys, key, value):
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        main(["evolve", flag, value, "--out", str(tmp_path / "run")])
    assert exc.value.code == EXIT_CONFIG
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    f = tmp_path / "cfg.txt"
    f.write_text(f"{key} = {value}\n")
    assert main(["evolve", "--config", str(f), "--out", str(tmp_path / "run")]) == EXIT_CONFIG
    assert capsys.readouterr().out == f"FRACPME-FAIL config: {f}:1: unknown key {key!r}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", ["physical", "rescaled"])
def test_mode_file_key_is_config_error(tmp_path, capsys, value):
    f = tmp_path / "cfg.txt"
    f.write_text(f"N = 32\nmode = {value}\n")
    code = main(["evolve", "--config", str(f), "--out", str(tmp_path / "run")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().out == f"FRACPME-FAIL config: {f}:2: unknown key 'mode'\n"
    assert not (tmp_path / "run").exists()


FLOW_KEYS = {"n", "s", "L", "N", "end_time", "datum", "out", "cfl_safety",
             "snapshot_stride", "snapshot_every"}
OBSTACLE_KEYS = {"n", "s", "L", "N", "C", "M", "out"}


def test_each_command_registers_only_its_keys():
    (commands,) = [action.choices for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    expected = {"evolve": FLOW_KEYS, "rescaled": FLOW_KEYS, "obstacle": OBSTACLE_KEYS,
                "verify": {"quick", "out"}}
    registered = {name: {action.dest for action in sub._actions} - {"help", "config"}
                  for name, sub in commands.items()}
    assert registered == expected


@pytest.mark.parametrize("argv, lines", [
    (["verify", "--quick", "--s", "0.9"], ["flag --s: verify does not read s"]),
    (["obstacle", "--C", "1", "--end-time", "-1"],
     ["flag --end-time: obstacle does not read end_time"]),
    (["obstacle", "--C", "1", "--datum", "box(0,0,0)"],
     ["flag --datum: obstacle does not read datum"]),
    (["evolve", "--M", "3", "--C", "2", "--quick"],
     ["flag --C: evolve does not read C", "flag --M: evolve does not read M",
      "flag --quick: evolve does not read quick"]),
    (["obstacle", "--C", "1", "--cfl", "0.9", "--snapshot-stride", "7"],
     ["flag --cfl: obstacle does not read cfl_safety",
      "flag --snapshot-stride: obstacle does not read snapshot_stride"]),
], ids=["verify_s", "obstacle_end_time", "obstacle_datum", "evolve_obstacle_verify",
        "obstacle_flow"])
def test_unread_setting_is_config_error(tmp_path, capsys, argv, lines):
    code = main(argv + ["--out", str(tmp_path / "run")])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out.splitlines() == [f"FRACPME-FAIL config: {line}" for line in lines]
    assert captured.err == ""
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv, lines", [
    (["verify", "--quick"], ["1: verify does not read N", "2: verify does not read L",
                             "3: verify does not read end_time"]),
    (["obstacle", "--C", "1"], ["3: obstacle does not read end_time"]),
], ids=["verify", "obstacle"])
def test_unread_file_key_is_config_error(tmp_path, capsys, argv, lines):
    f = tmp_path / "cfg.txt"
    f.write_text("N = 32\nL = 4\nend_time = 0.05\n")
    code = main([*argv, "--config", str(f), "--out", str(tmp_path / "run")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().out.splitlines() == [
        f"FRACPME-FAIL config: {f}:{line}" for line in lines]
    assert not (tmp_path / "run").exists()


def test_readme_commands_are_valid():
    # every fracpme command in the README's code blocks parses and validates
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
    commands = [shlex.split(line, comments=True)[1:]
                for block in blocks for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("fracpme ")]
    assert len(commands) >= 6
    for argv in commands:
        assert cli.parse_argv(argv)[1] == [], argv


def test_readme_key_table_matches_keys():
    # the "keys it reads" table: one row per command or pair of commands
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = {}
    for first, rest in re.findall(r"^\| (`[^|]*`) \| ([^|]*) \|$", readme, re.M):
        commands = re.findall(r"`(\w+)`", first)
        if set(commands) <= set(cli._COMMANDS):
            table.update((command, set(re.findall(r"`(\w+)`", rest))) for command in commands)
    for command in ("evolve", "rescaled", "obstacle", "verify"):
        assert table[command] == cli.read_keys(cli._COMMANDS[command][0]), command


def test_config_error_exit_and_machine_line(tmp_path, capsys):
    code = main(["evolve", "--N", "63", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "FRACPME-FAIL config: N must be even" in capsys.readouterr().out


SMALL_RUN = ["--N", "32", "--L", "4", "--end-time", "0.01"]


@pytest.mark.parametrize("argv, message", [
    (["evolve", *SMALL_RUN, "--L", "inf"], "L must be positive and finite, got inf"),
    (["evolve", *SMALL_RUN, "--L", "nan"], "L must be positive and finite, got nan"),
    (["evolve", *SMALL_RUN, "--datum", "box(0,1,inf)"], "datum box: non-finite argument"),
    (["evolve", *SMALL_RUN, "--end-time", "inf"], "end_time must be positive and finite"),
    (["evolve", *SMALL_RUN, "--end-time", "nan"], "end_time must be positive and finite"),
    (["obstacle", "--N", "32", "--L", "4", "--C", "nan"], "C must be finite, got nan"),
    (["evolve", *SMALL_RUN, "--L", "1e308"],
     "grid spacing inf and cell volume inf must be positive and finite"),
    (["obstacle", "--n", "2", "--N", "32", "--L", "1e200", "--C", "1"],
     "grid spacing 6.25e+198 and cell volume inf must be positive and finite"),
    (["evolve", *SMALL_RUN, "--end-time", "1e300", "--datum", "box(0,1e-300,1)"],
     "end_time 1e+300 from t = 0 needs more than 10000000 steps"),
    (["evolve", *SMALL_RUN, "--L", "1e-320"], "grid spacing 6.22523e-322 is too fine"),
    (["evolve", *SMALL_RUN, "--L", "1e-160"], "grid spacing 6.25e-162 is too fine"),
    (["evolve", *SMALL_RUN, "--L", "1e160"], "grid half-width 1e+160 is too large"),
    (["rescaled", *SMALL_RUN, "--L", "1e160"], "grid half-width 1e+160 is too large"),
    (["obstacle", "--C", "1", "--N", "32", "--L", "1e155"],
     "grid half-width 1e+155 is too large"),
    (["evolve", *SMALL_RUN, "--datum", "box(1e308,2,1)"],
     "datum box(1e+308, 2.0, 1.0): no mass on the grid"),
    (["evolve", *SMALL_RUN, "--datum", "gaussian_truncated(1e-320)"],
     "datum gaussian_truncated(1e-320,): no mass on the grid"),
], ids=["L_inf", "L_nan",
        "datum_inf", "end_time_inf", "end_time_nan", "obstacle_C_nan",
        "L_spacing_overflows", "obstacle_cell_volume_overflows",
        "end_time_beyond_step_budget", "spacing_squared_underflows",
        "stiffness_scale_overflows", "evolve_corner_radius_overflows",
        "rescaled_corner_radius_overflows", "obstacle_corner_radius_overflows",
        "datum_off_grid", "datum_below_the_cells"])
def test_degenerate_config_is_config_error(tmp_path, capsys, argv, message):
    code = main(argv + ["--out", str(tmp_path / "run")])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"FRACPME-FAIL config: {message}")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "run" / "diagnostics.csv").exists()


def test_from_file_grid_mismatch_is_config_error(tmp_path, capsys):
    out = tmp_path / "a"
    assert main(["evolve", "--N", "64", "--L", "6", "--end-time", "0.05",
                 "--out", str(out)]) == EXIT_OK
    snap = sorted(out.glob("snapshot_*.txt"))[-1]
    code = main(["evolve", "--N", "128", "--L", "6", "--end-time", "0.05",
                 "--datum", f"from_file({snap})", "--out", str(tmp_path / "b")])
    assert code == EXIT_CONFIG
    assert "does not match the configured grid" in capsys.readouterr().out


def test_negative_snapshot_is_config_error(tmp_path, capsys):
    vals = np.ones(32)
    vals[5] = -1e-3
    snap = tmp_path / "negative.txt"
    write_snapshot(snap, Field(Grid(1, 4.0, 32), vals), s=0.25, time=0.0, mode="physical")
    code = main(["evolve", *SMALL_RUN, "--datum", f"from_file({snap})",
                 "--out", str(tmp_path / "run")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().out == (
        "FRACPME-FAIL config: density field has negative entries (min -1.000e-03)\n")
    assert not (tmp_path / "run").exists()


def test_step_budget_ends_a_fine_grid_run(tmp_path, monkeypatch, capsys):
    # the stiffness bound makes every step on this grid tiny; the run stops
    # at MAX_STEPS instead of stepping for days
    monkeypatch.setattr(evolution, "MAX_STEPS", 100)
    code = main(["evolve", *SMALL_RUN, "--L", "1e-100", "--out", str(tmp_path / "run")])
    assert code == EXIT_NUMERICAL
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert re.fullmatch(r"FRACPME-FAIL numerical: 100 steps did not reach end_time "
                        r"\(t = \S+\)", lines[0])
    assert not (tmp_path / "run" / "diagnostics.csv").exists()


def test_numerical_abort_maps_to_exit_3(tmp_path, monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise NumericalAbort("mass drifted")

    monkeypatch.setattr(cli, "run", explode)
    code = main(["evolve", "--N", "32", "--L", "4", "--end-time", "0.05",
                 "--out", str(tmp_path)])
    assert code == EXIT_NUMERICAL
    assert "FRACPME-FAIL numerical: mass drifted" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["evolve", "--datum", "box(0,2,1e200)"],
    ["rescaled", "--datum", "box(0,2,1e200)"],
    ["evolve", "--datum", "parabola_cap(1e300,1)"],
    ["rescaled", "--datum", "parabola_cap(1e300,1)"],
    ["evolve", "--n", "2", "--s", "0.5", "--datum", "box(0,2,1e200)"],
], ids=["evolve_box", "rescaled_box", "evolve_cap", "rescaled_cap", "evolve_2d_box"])
def test_overflowing_flux_is_numerical_abort(tmp_path, capsys, argv):
    # the step stops before it multiplies out a flux that overflows, so no
    # RuntimeWarning (an error under this suite) and no NaN state
    code = main([*argv, "--N", "32", "--L", "4", "--end-time", "0.05",
                 "--out", str(tmp_path / "run")])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("FRACPME-FAIL numerical: flux overflows: ")
    assert captured.err == ""
    assert not (tmp_path / "run" / "diagnostics.csv").exists()


@pytest.mark.parametrize("argv", [
    ["evolve", "--N", "32", "--L", "4", "--end-time", "0.05", "--datum", "box(0,2,1e150)"],
    ["evolve", "--N", "32", "--L", "4", "--end-time", "0.05", "--datum", "box(0,2,1e150)",
     "--snapshot-stride", "100000"],
    ["evolve", "--N", "32", "--L", "4", "--datum", "parabola_cap(1e307,1)"],
    ["obstacle", "--M", "1e300", "--N", "32", "--L", "1e100"],
], ids=["diagnostics", "diagnostics_stride", "datum_pressure", "obstacle_cg"])
def test_overflow_is_one_numerical_line(tmp_path, argv):
    # a fresh interpreter with RuntimeWarnings as errors and the real step
    # budget: an overflowing record, datum pressure or CG norm must stop the
    # command at once with its one line, no warning and no diagnostics
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = tmp_path / "run"
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "fracpme.cli", *argv,
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_NUMERICAL, done.stdout + done.stderr
    (line,) = done.stdout.splitlines()
    assert line.startswith("FRACPME-FAIL numerical: ")
    assert done.stderr == ""
    assert not (out / "diagnostics.csv").exists()


def test_obstacle_nonconvergence_maps_to_exit_3(tmp_path, monkeypatch, capsys):
    def stall(*args, **kwargs):
        raise RuntimeError("sweeps exhausted")

    monkeypatch.setattr(cli, "solve_obstacle", stall)
    code = main(["obstacle", "--C", "1", "--N", "32", "--L", "4",
                 "--out", str(tmp_path)])
    assert code == EXIT_NUMERICAL
    assert "FRACPME-FAIL numerical: sweeps exhausted" in capsys.readouterr().out


def test_obstacle_pass_cap_maps_to_exit_3(tmp_path, monkeypatch, capsys):
    argv = ["obstacle", "--C", "1", "--N", "32", "--L", "4"]
    assert main(argv + ["--out", str(tmp_path / "ok")]) == EXIT_OK
    passes = int((tmp_path / "ok" / "report.txt").read_text()
                 .split("sweeps: ")[1].split()[0])
    assert passes >= 2  # so one pass cannot settle the active set
    capsys.readouterr()
    monkeypatch.setattr(obstacle, "ACTIVE_SET_MAX_PASSES", 1)
    code = main(argv + ["--out", str(tmp_path / "capped")])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL
    line = captured.out.strip().splitlines()[-1]
    assert line.startswith("FRACPME-FAIL numerical: ")
    assert re.search(r"residual \d\.\d{3}e[+-]\d+", line)
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "capped" / "report.txt").exists()


def test_obstacle_trivial_level_zero(tmp_path):
    out = tmp_path / "run"
    assert main(["obstacle", "--C", "0", "--N", "32", "--L", "4",
                 "--out", str(out)]) == EXIT_OK
    density, _ = read_snapshot(out / "density.txt")
    assert np.all(density.values == 0.0)
    report = (out / "report.txt").read_text()
    assert "mass: 0" in report


def test_obstacle_mass_route_round_trip(tmp_path):
    out = tmp_path / "run"
    assert main(["obstacle", "--M", "2", "--N", "128", "--L", "4",
                 "--out", str(out)]) == EXIT_OK
    report = (out / "report.txt").read_text()
    mass = float([ln for ln in report.splitlines()
                  if ln.startswith("mass:")][0].split(":")[1])
    assert abs(mass - 2.0) <= 0.01 * 2.0


def _report_mass(out):
    report = (out / "report.txt").read_text()
    return float([ln for ln in report.splitlines()
                  if ln.startswith("mass:")][0].split(":")[1])


@pytest.mark.parametrize("argv, mass", [
    (["--M", "0.1", "--L", "3", "--N", "256"], 0.1),  # level 1 would not fit
    (["--M", "2", "--N", "512", "--L", "4"], 2.0),    # the README example
], ids=["small_box", "readme"])
def test_obstacle_mass_is_exact(tmp_path, argv, mass):
    out = tmp_path / "run"
    assert main(["obstacle", *argv, "--out", str(out)]) == EXIT_OK
    assert abs(_report_mass(out) - mass) <= 1e-12 * mass


@pytest.mark.parametrize("mass", [1e-300, 1e-30, 1e-16, 1e-14, 1e-12])
def test_obstacle_tiny_mass_matches_the_nearest_level(tmp_path, capsys, mass):
    # the power-law seed lies far below a (h/2)^2, where the first cell
    # switches on; the search starts there instead.  One level ulp there moves
    # the mass by about 5e-20, and no float level holds a mass nearer to M
    # than the one returned
    out = tmp_path / "run"
    assert main(["obstacle", "--M", str(mass), "--N", "64", "--L", "4",
                 "--out", str(out)]) == EXIT_OK
    assert "FRACPME-FAIL" not in capsys.readouterr().out
    grid = Grid(1, 4.0, 64)
    a = FracParams(0.25, 1).a
    level = float((out / "report.txt").read_text().splitlines()[0].split(":")[1])
    assert level >= a * (grid.spacing / 2.0) ** 2
    miss = abs(_report_mass(out) - mass)
    for neighbour in (np.nextafter(level, -np.inf), np.nextafter(level, np.inf)):
        other = solve_obstacle(ObstacleProblem(C=neighbour, s=0.25, grid=grid)).mass
        assert miss <= abs(other - mass)


def test_out_of_memory_is_config_error(tmp_path):
    # a grid whose arrays the process may not allocate: one FRACPME-FAIL line
    # and exit 2, no traceback; the child runs under a 2 GiB address-space cap
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    out = tmp_path / "run"
    done = subprocess.run(
        [sys.executable, "-m", "fracpme.cli", "evolve", "--n", "2", "--N", "100000",
         "--end-time", "0.01", "--out", str(out)],
        env=env, preexec_fn=cap, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_CONFIG, done.stderr
    (line,) = done.stdout.splitlines()
    assert line.startswith("FRACPME-FAIL config: out of memory: Unable to allocate")
    assert "Traceback" not in done.stderr
    assert not out.exists()


# Runs each case in a process forked from one capped interpreter, so the
# package is imported once: the case's exit code, or minus the signal that
# ended it (the alarm is the per-case timeout).  Every run stops after 2000
# steps, so a case that asks for tiny steps ends in exit 3 within the alarm.
EDGE_DRIVER = """
import json, os, signal, sys, traceback
from fracpme import cli, evolution
evolution.MAX_STEPS = 2000
codes = []
for k, argv in enumerate(json.load(sys.stdin)):
    pid = os.fork()
    if pid == 0:
        signal.alarm(60)
        with open(f"{k}.out", "w") as out, open(f"{k}.err", "w") as err:
            os.dup2(out.fileno(), 1)
            os.dup2(err.fileno(), 2)
            try:
                code = cli.main(argv + ["--out", f"run{k}"])
            except SystemExit as exc:
                code = exc.code
            except BaseException:
                traceback.print_exc()
                code = 1
            sys.stdout.flush()
            sys.stderr.flush()
        os._exit(code)
    codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
print(json.dumps(codes))
"""
EDGE_VALUES = ("0", "-1", "nan", "inf", "1e-320", "1e308", str(2 ** 64), "")
FLOW_BASE = ["--N=32", "--L=4", "--end-time=0.05"]
FLOW_FLAGS = ("n", "s", "L", "N", "end-time", "cfl", "snapshot-stride", "snapshot-every")
EDGE_FLAGS = {
    "evolve": (FLOW_BASE, FLOW_FLAGS),
    "rescaled": (FLOW_BASE, FLOW_FLAGS),
    "obstacle": (["--N=32", "--L=4"], ("n", "s", "L", "N", "C", "M")),
    "verify": (["--quick"], FLOW_FLAGS),  # verify reads none of them
}
EDGE_DATA = {"box": ("0", "2", "1"), "parabola_cap": ("1", "1"), "gaussian_truncated": ("1",)}
# one case per class of refused setting: (argv, the line it must print alone)
EDGE_UNREAD = [
    (["obstacle", "--N=32", "--L=4", "--M=1", "--end-time=1"],
     "FRACPME-FAIL config: flag --end-time: obstacle does not read end_time"),
    (["verify", "--quick", "--config=unread.cfg"],
     "FRACPME-FAIL config: unread.cfg:1: verify does not read s"),
]


def test_flag_edge_values_fail_cleanly(tmp_path):
    # every number flag of evolve, rescaled and obstacle, each flow flag of
    # verify (which reads none), and every argument of each analytic --datum
    # of evolve and rescaled, at each edge value, under a 2 GiB address-space
    # cap: exit 0-3, stdout only FRACPME-FAIL lines when the exit is not 0,
    # and nothing on stderr (no traceback, no warning).  Each EDGE_UNREAD case
    # prints its one line and exits 2.
    (tmp_path / "unread.cfg").write_text("s = 0.9\n")
    cases = [argv for argv, _ in EDGE_UNREAD]
    for command, (base, flags) in EDGE_FLAGS.items():
        for flag in flags:
            # an obstacle run needs one of C and M: the mass, unless the flag is one
            level = ["--M=1"] if command == "obstacle" and flag not in ("C", "M") else []
            cases.extend([command, *base, f"--{flag}={value}", *level]
                         for value in EDGE_VALUES)
    for command in ("evolve", "rescaled"):
        for name, args in EDGE_DATA.items():
            for k in range(len(args)):
                specs = (",".join(args[:k] + (value,) + args[k + 1:]) for value in EDGE_VALUES)
                cases.extend([command, *FLOW_BASE, f"--datum={name}({spec})"] for spec in specs)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    done = subprocess.run([sys.executable, "-c", EDGE_DRIVER], input=json.dumps(cases),
                          cwd=tmp_path, env=env, preexec_fn=cap, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    codes = json.loads(done.stdout)
    assert len(codes) == len(cases) == 338
    bad = []
    for k, (argv, code) in enumerate(zip(cases, codes)):
        out = (tmp_path / f"{k}.out").read_text().splitlines()
        err = (tmp_path / f"{k}.err").read_text()
        failing = [line for line in out if line.startswith("FRACPME-FAIL ")]
        clean = bool(out) and failing == out if code else not failing
        if code not in (0, 1, 2, 3) or not clean or err:
            bad.append((" ".join(argv), code, out, err[-500:]))
    assert bad == []
    for k, (_, line) in enumerate(EDGE_UNREAD):
        assert (codes[k], (tmp_path / f"{k}.out").read_text()) == (EXIT_CONFIG, line + "\n")


def test_obstacle_mass_beyond_the_box_is_config_error(tmp_path, capsys):
    code = main(["obstacle", "--M", "50", "--L", "3", "--N", "64",
                 "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "FRACPME-FAIL config: box too small for mass 50" in capsys.readouterr().out


def test_diagnostics_deterministic_across_runs(tmp_path):
    args = ["evolve", "--N", "64", "--L", "6", "--end-time", "0.2"]
    assert main(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
    a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
    b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
    assert a == b


def test_snapshot_every_thins_output(tmp_path):
    out = tmp_path / "run"
    assert main(["evolve", "--N", "32", "--L", "4", "--end-time", "0.2",
                 "--snapshot-every", "3", "--out", str(out)]) == EXIT_OK
    indices = sorted(int(p.stem.split("_")[1])
                     for p in out.glob("snapshot_*.txt"))
    assert indices[0] == 0
    assert all(i % 3 == 0 for i in indices[:-1])  # last is always kept


def _nan_snapshot(tmp_path):
    assert main(["evolve", "--N", "32", "--L", "4", "--end-time", "0.05",
                 "--out", str(tmp_path / "first")]) == EXIT_OK
    snap = tmp_path / "first" / "snapshot_000000.txt"
    head, body = snap.read_text().split("\n\n", 1)
    values = body.split()
    values[5] = "nan"
    bad = tmp_path / "nan.txt"
    bad.write_text(head + "\n\n" + " ".join(values) + "\n")
    return bad


def test_non_finite_snapshot_is_config_error(tmp_path, capsys):
    bad = _nan_snapshot(tmp_path)
    capsys.readouterr()
    code = main(["evolve", "--end-time", "0.1", "--N", "32", "--L", "4",
                 "--datum", f"from_file({bad})", "--out", str(tmp_path / "b")])
    assert code == EXIT_CONFIG
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines and all(line == f"FRACPME-FAIL config: {bad}: value 5 is nan, not finite"
                         for line in lines)


def test_verify_failure_maps_to_exit_1(tmp_path, monkeypatch):
    import fracpme.verify

    monkeypatch.setattr(fracpme.verify, "run_suite",
                        lambda quick, out_dir: False)
    assert main(["verify", "--out", str(tmp_path)]) == EXIT_CRITERION


@pytest.mark.parametrize("fault, kind, code", [
    (NumericalAbort("positivity lost"), "numerical", EXIT_NUMERICAL),
    (ValueError("bad grid"), "config", EXIT_CONFIG),
], ids=["numerical", "config"])
def test_verify_fault_maps_to_exit_code(tmp_path, monkeypatch, capsys, fault, kind, code):
    # a fault inside a check's artifact is one FRACPME-FAIL line, not a traceback
    import fracpme.verify

    def broken(*args):
        raise fault

    monkeypatch.setitem(fracpme.verify._BUILDERS, "settled", broken)
    monkeypatch.setattr(fracpme.verify, "CHECKS", (fracpme.verify._check_convergence,))
    assert main(["verify", "--quick", "--out", str(tmp_path)]) == code
    captured = capsys.readouterr()
    fail = [line for line in captured.out.splitlines() if line.startswith("FRACPME-FAIL")]
    assert fail == [f"FRACPME-FAIL {kind}: verify: {type(fault).__name__}: {fault}"]
    assert "Traceback" not in captured.out + captured.err


def test_dead_verify_worker_is_numerical_abort(tmp_path, monkeypatch, capsys, cores):
    import fracpme.verify

    parent = os.getpid()

    def die(*args):
        if os.getpid() == parent:  # never end the test process itself
            raise AssertionError("the artifact was built in the test process")
        os._exit(1)

    monkeypatch.setitem(fracpme.verify._BUILDERS, "settled", die)
    monkeypatch.setattr(fracpme.verify, "CHECKS", (fracpme.verify._check_entropy_budget,
                                                   fracpme.verify._check_convergence))
    forks = cores(2)
    assert main(["verify", "--quick", "--out", str(tmp_path)]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    fail = [line for line in captured.out.splitlines() if line.startswith("FRACPME-FAIL")]
    assert forks and len(fail) == 1
    assert fail[0].startswith("FRACPME-FAIL numerical: verify: BrokenProcessPool: ")
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("command", [
    ["evolve", "--N", "32", "--L", "4", "--end-time", "0.05"],
    ["obstacle", "--C", "1", "--N", "32", "--L", "4"],
    ["verify", "--quick"],
], ids=["evolve", "obstacle", "verify"])
def test_unwritable_out_is_config_error(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    code = main(command + ["--out", str(blocker / "sub")])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert "FRACPME-FAIL config: cannot write outputs: " in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_evolve_keeps_only_the_snapshots_it_writes(tmp_path, monkeypatch, read_diagnostics):
    # stride 1: every step is a record, one in five is written
    every = 5
    seen, stray = [], []
    real_run = cli.run

    def tracking_run(*args, on_record, **kwargs):
        def spy(k, t, state):
            seen.append(weakref.ref(state))
            on_record(k, t, state)
            stray.extend(j for j, ref in enumerate(seen)
                         if ref() is not None and j % every and j != k)

        return real_run(*args, on_record=spy, **kwargs)

    monkeypatch.setattr(cli, "run", tracking_run)
    out = tmp_path / "run"
    assert main(["evolve", "--N", "128", "--L", "6", "--end-time", "0.3",
                 "--snapshot-stride", "1", "--snapshot-every", str(every),
                 "--out", str(out)]) == EXIT_OK
    assert len(seen) > 3 * every and (len(seen) - 1) % every
    assert stray == []
    written = sorted(int(p.stem.split("_")[1]) for p in out.glob("snapshot_*.txt"))
    last = len(seen) - 1
    assert written == sorted({j for j in range(len(seen)) if j % every == 0} | {last})
    times = read_diagnostics(out / "diagnostics.csv")["time"]
    for j in (0, last):
        _, header = read_snapshot(out / f"snapshot_{j:06d}.txt")
        assert header["time"] == times[j]


def _first_run(tmp_path, command):
    out = tmp_path / "first"
    assert main([command, "--N", "64", "--L", "6", "--end-time", "0.1",
                 "--out", str(out)]) == EXIT_OK
    snap = sorted(out.glob("snapshot_*.txt"))[-1]
    return snap, read_snapshot(snap)[1]["time"]


@pytest.mark.parametrize("command", ["evolve", "rescaled"])
def test_restart_continues_the_clock(tmp_path, command, read_diagnostics):
    snap, t_snap = _first_run(tmp_path, command)
    assert t_snap == pytest.approx(0.1, abs=1e-12)
    out = tmp_path / "second"
    assert main([command, "--N", "64", "--L", "6", "--end-time", "0.25",
                 "--datum", f"from_file({snap})", "--out", str(out)]) == EXIT_OK
    times = read_diagnostics(out / "diagnostics.csv")["time"]
    assert times[0] == t_snap
    assert times[-1] == pytest.approx(0.25, abs=1e-12)
    first, _ = read_snapshot(out / "snapshot_000000.txt")
    np.testing.assert_array_equal(first.values, read_snapshot(snap)[0].values)
    _, header = read_snapshot(sorted(out.glob("snapshot_*.txt"))[-1])
    assert header["time"] == times[-1]


@pytest.mark.parametrize("first, argv, message", [
    ("evolve", ["evolve", "--end-time", "0.1"], "does not exceed the snapshot time"),
    ("evolve", ["evolve", "--end-time", "0.05"], "does not exceed the snapshot time"),
    ("evolve", ["evolve", "--end-time", "0.3", "--s", "0.3"], "does not match s = 0.3"),
    ("evolve", ["rescaled", "--end-time", "0.3"], "'physical' does not match the rescaled"),
    ("rescaled", ["evolve", "--end-time", "0.3"], "'rescaled' does not match the physical"),
], ids=["end_at_snapshot", "end_before_snapshot", "s_mismatch",
        "physical_into_rescaled", "rescaled_into_physical"])
def test_restart_mismatch_is_config_error(tmp_path, capsys, first, argv, message):
    snap, _ = _first_run(tmp_path, first)
    capsys.readouterr()
    out = tmp_path / "second"
    code = main(argv + ["--N", "64", "--L", "6", "--datum", f"from_file({snap})",
                        "--out", str(out)])
    assert code == EXIT_CONFIG
    line = capsys.readouterr().out.strip()
    assert line.startswith("FRACPME-FAIL config: ") and message in line
    assert not (out / "diagnostics.csv").exists()


@pytest.mark.parametrize("stride", ["1", "3"])
def test_restart_below_clock_resolution_is_numerical_abort(tmp_path, capsys, stride):
    # at t = 0.1 a step of about 1e-19 leaves t + dt == t: one fault line and
    # exit 3, not a repeated record time (stride 1) or a spin to MAX_STEPS
    snap, _ = _first_run(tmp_path, "evolve")
    capsys.readouterr()
    out = tmp_path / "second"
    code = main(["evolve", "--N", "64", "--L", "6", "--end-time", "0.3", "--cfl", "1e-18",
                 "--snapshot-stride", stride, "--datum", f"from_file({snap})",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL
    line = captured.out.strip()
    assert line.startswith("FRACPME-FAIL numerical: ") and "does not advance the clock" in line
    assert "Traceback" not in captured.out + captured.err
    assert not (out / "diagnostics.csv").exists()


def test_obstacle_snapshot_is_time_zero_data(tmp_path, read_diagnostics):
    prof = tmp_path / "profile"
    assert main(["obstacle", "--C", "1", "--N", "64", "--L", "6",
                 "--out", str(prof)]) == EXIT_OK
    out = tmp_path / "run"
    assert main(["rescaled", "--N", "64", "--L", "6", "--end-time", "0.05",
                 "--datum", f"from_file({prof / 'density.txt'})",
                 "--out", str(out)]) == EXIT_OK
    assert read_diagnostics(out / "diagnostics.csv")["time"][0] == 0.0


@pytest.mark.parametrize("failure", ["cg_info", "cycling"])
def test_obstacle_guard_maps_to_exit_3(tmp_path, monkeypatch, capsys, failure):
    real_cg = obstacle._cg
    calls = []

    def broken_cg(matvec, b):
        calls.append(b.size)
        if failure == "cg_info":
            return np.zeros(b.size), 7
        # the true solve first, then a zero solve that sends the free set
        # back to {phi > 0}, the set it started from
        return real_cg(matvec, b) if len(calls) == 1 else (np.zeros(b.size), 0)

    monkeypatch.setattr(obstacle, "_cg", broken_cg)
    code = main(["obstacle", "--C", "1", "--N", "32", "--L", "4",
                 "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL
    line = captured.out.strip().splitlines()[-1]
    expected = "CG stopped with info 7" if failure == "cg_info" else "active set cycles"
    assert line.startswith("FRACPME-FAIL numerical: obstacle ") and expected in line
    assert re.search(r"residual \d\.\d{3}e[+-]\d+", line)
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "report.txt").exists()
