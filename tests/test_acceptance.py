"""One test per numbered acceptance check, at full-size parameters.

Each test prints a single pass/fail line with the measured values and the
pinned target, so `pytest -s tests/test_acceptance.py` reads as a
scoreboard.  The checks themselves live in fracpme.verify; this module runs
them in full (not quick) mode and adds the end-to-end harness check: the
quick suite run twice through the real CLI must be bit-identical and fit
the time budget.
"""

import time

import pytest

from fracpme.cli import EXIT_OK, main
from fracpme.verify import CHECKS, Suite

_BY_NUMBER = {i + 1: check for i, check in enumerate(CHECKS)}


@pytest.fixture(scope="module")
def ctx():
    # shared across criteria: several checks reuse the same long runs
    return Suite(quick=False, started=time.perf_counter())


def _run(ctx, number):
    result = _BY_NUMBER[number](ctx)
    mark = "PASS" if result.passed else "FAIL"
    line = (f"criterion {result.number:2d} {mark}  {result.name}: "
            f"{result.measured}  [target {result.target}]")
    print(line)
    assert result.passed, line


def test_criterion_01_operator_identities(ctx):
    _run(ctx, 1)


def test_criterion_02_conservation_and_positivity(ctx):
    _run(ctx, 2)


def test_criterion_03_monotone_norms(ctx):
    _run(ctx, 3)


def test_criterion_04_peak_decay_exponents(ctx):
    _run(ctx, 4)


def test_criterion_05_finite_propagation(ctx):
    _run(ctx, 5)


def test_criterion_06_entropy_dissipation_identity(ctx):
    _run(ctx, 6)


def test_criterion_07_entropy_monotonicity_and_budget(ctx):
    _run(ctx, 7)


def test_criterion_08_obstacle_solution(ctx):
    _run(ctx, 8)


def test_criterion_09_scaling_and_mass_law(ctx):
    _run(ctx, 9)


def test_criterion_10_self_similar_one_step(ctx):
    _run(ctx, 10)


def test_criterion_11_convergence_to_profile(ctx):
    _run(ctx, 11)


def test_criterion_12_stationary_limit_equals_profile(ctx):
    _run(ctx, 12)


def test_criterion_13_moment_and_energy_rates(ctx):
    _run(ctx, 13)


def test_criterion_14_harness_determinism_and_budget(tmp_path):
    # the real thing: the quick suite through the CLI, twice
    t0 = time.perf_counter()
    assert main(["verify", "--quick", "--out", str(tmp_path / "a")]) == EXIT_OK
    first = time.perf_counter() - t0
    t1 = time.perf_counter()
    assert main(["verify", "--quick", "--out", str(tmp_path / "b")]) == EXIT_OK
    second = time.perf_counter() - t1
    csv_a = (tmp_path / "a" / "verify_results.csv").read_bytes()
    csv_b = (tmp_path / "b" / "verify_results.csv").read_bytes()
    identical = csv_a == csv_b
    slowest = max(first, second)
    mark = "PASS" if identical and slowest < 300.0 else "FAIL"
    print(f"criterion 14 {mark}  harness: identical {identical}; "
          f"runs {first:.1f} s / {second:.1f} s  [target bit-identical; < 300 s]")
    assert identical
    assert slowest < 300.0
