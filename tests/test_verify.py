import threading
import time

import pytest

import fracpme.verify as verify
from fracpme.evolution import FlowKernel, NumericalAbort
from fracpme.verify import CheckResult, Suite


def test_tolerance_doubles_in_quick_mode():
    full = Suite(quick=False, tamper=None, started=0.0)
    quick = Suite(quick=True, tamper=None, started=0.0)
    assert full.tol(3, 1e-8) == 1e-8
    assert quick.tol(3, 1e-8) == 2e-8


def test_tamper_makes_tolerance_unsatisfiable():
    s = Suite(quick=False, tamper=5, started=0.0)
    assert s.tol(5, 1e-8) == float("-inf")
    assert s.tol(4, 1e-8) == 1e-8  # other checks untouched


def test_pick_switches_on_mode():
    assert Suite(quick=False, tamper=None, started=0.0).pick(512, 256) == 512
    assert Suite(quick=True, tamper=None, started=0.0).pick(512, 256) == 256


def test_one_step_check_aborts_on_lost_positivity(monkeypatch):
    # check 10 steps through FlowKernel itself and keeps the step's sign guard
    def overshoot(self, vals, *args):
        return vals - 1.0, 0.1, float((vals - 1.0).min())

    monkeypatch.setattr(FlowKernel, "step", overshoot)
    with pytest.raises(NumericalAbort, match="positivity lost in step"):
        verify._check_one_step(Suite(quick=True, tamper=None, started=0.0))


def _fake_checks():
    return (
        lambda ctx: CheckResult(1, "alpha", "x 1.0", "<= 2", True),
        lambda ctx: CheckResult(2, "beta", "y 3.0", "<= 2", False),
    )


def test_run_suite_reports_and_writes_csv(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(verify, "CHECKS", _fake_checks())
    ok = verify.run_suite(quick=True, out_dir=tmp_path)
    assert ok is False
    out = capsys.readouterr().out
    assert "[ 1] PASS" in out and "[ 2] FAIL" in out
    assert "1/2 passed" in out
    lines = (tmp_path / "verify_results.csv").read_text().splitlines()
    assert lines[0] == "criterion,name,measured,target,pass"
    assert lines[1] == "1,alpha,x 1.0,<= 2,true"
    assert lines[2] == "2,beta,y 3.0,<= 2,false"


def test_run_suite_all_green_returns_true(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(verify, "CHECKS",
                        (lambda ctx: CheckResult(1, "alpha", "m", "t", True),))
    assert verify.run_suite(quick=False, out_dir=tmp_path) is True
    capsys.readouterr()


def test_tamper_env_reaches_the_context(tmp_path, monkeypatch, capsys):
    seen = {}

    def spy(ctx):
        seen["tamper"] = ctx.tamper
        return CheckResult(1, "spy", "m", "t", True)

    monkeypatch.setattr(verify, "CHECKS", (spy,))
    monkeypatch.setenv("FRACPME_TAMPER", "7")
    verify.run_suite(quick=True, out_dir=tmp_path)
    assert seen["tamper"] == 7
    # a non-integer setting must still poison something
    monkeypatch.setenv("FRACPME_TAMPER", "yes")
    verify.run_suite(quick=True, out_dir=tmp_path)
    assert seen["tamper"] == 1
    capsys.readouterr()


def test_tampered_check_makes_the_suite_return_false(tmp_path, monkeypatch, capsys):
    # the checks' comparisons are numpy booleans; the suite must not pass them on
    monkeypatch.setattr(verify, "CHECKS", (verify._check_entropy_budget,))
    monkeypatch.setenv("FRACPME_TAMPER", "7")
    assert verify.run_suite(quick=True, out_dir=tmp_path) is False
    assert "[ 7] FAIL" in capsys.readouterr().out


def test_harness_check_runs_and_times(tmp_path):
    ctx = Suite(quick=False, tamper=None, started=time.perf_counter())
    r = verify._check_harness(ctx)
    assert r.passed
    assert "repeat identical True" in r.measured
    # the tamper hook must defeat even a fast, correct probe
    poisoned = Suite(quick=False, tamper=14, started=time.perf_counter())
    assert not verify._check_harness(poisoned).passed


def _scoreboard(monkeypatch, capsys, tmp_path, cores, count):
    """(stdout without the elapsed-time line, CSV bytes, forks) of a quick
    suite of checks 6, 7 and 11, which read five artifacts, on `count`
    cores."""
    monkeypatch.setattr(verify, "CHECKS", (verify._check_entropy_identity,
                                           verify._check_entropy_budget,
                                           verify._check_convergence))
    forks = cores(count)
    out = tmp_path / f"cores{count}"
    assert verify.run_suite(quick=True, out_dir=out) is True
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("3/3 passed in ")
    return lines[:-1], (out / "verify_results.csv").read_bytes(), len(forks)


def test_two_workers_write_the_serial_scoreboard(tmp_path, monkeypatch, capsys, cores):
    serial = _scoreboard(monkeypatch, capsys, tmp_path, cores, 1)
    pooled = _scoreboard(monkeypatch, capsys, tmp_path, cores, 2)
    assert serial[2] == 0 and pooled[2] == 2
    assert pooled[:2] == serial[:2]
    assert [line[5:9] for line in serial[0][1:]] == ["PASS"] * 3


@pytest.mark.parametrize("error", [NumericalAbort, RuntimeError])
def test_worker_fault_surfaces_at_the_reading_check(tmp_path, error, monkeypatch, capsys,
                                                    cores):
    def fail(n_pts, width, height):
        raise error(f"settled run at N = {n_pts} failed")

    monkeypatch.setitem(verify._BUILDERS, "settled", fail)
    monkeypatch.setattr(verify, "CHECKS", (verify._check_entropy_budget,
                                           verify._check_convergence))
    seen = []
    for count in (1, 2):
        forks = cores(count)
        with pytest.raises(Exception) as info:
            verify.run_suite(quick=True, out_dir=tmp_path)
        seen.append((type(info.value), str(info.value), capsys.readouterr().out,
                     len(forks)))
    (kind, message, out, forks), pooled = seen
    assert kind is error and message == "settled run at N = 256 failed"
    assert "[ 7] PASS" in out and "[11]" not in out
    assert forks == 0 and pooled == (kind, message, out, 2)


def test_checks_that_read_no_artifact_start_no_process(tmp_path, monkeypatch, capsys, cores):
    forks = cores(2)
    monkeypatch.setattr(verify, "CHECKS", _fake_checks())
    verify.run_suite(quick=True, out_dir=tmp_path)
    capsys.readouterr()
    assert forks == []


def test_no_fork_while_another_thread_runs(tmp_path, monkeypatch, capsys, cores):
    forks = cores(2)
    monkeypatch.setattr(verify, "CHECKS", (verify._check_entropy_identity,))
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30.0,))
    waiter.start()
    try:
        assert verify.run_suite(quick=True, out_dir=tmp_path)
    finally:
        release.set()
        waiter.join(timeout=30.0)
    capsys.readouterr()
    assert not waiter.is_alive()
    assert forks == []


def test_scaling_check_solves_nothing_itself(monkeypatch):
    # check 9's two scaling levels and its eight mass-law solves are all
    # prefetched artifacts, so they run on the worker pool
    ctx = Suite(quick=True, tamper=None, started=0.0)
    keys = verify._check_scaling.reads(ctx)
    assert [k[0] for k in keys] == ["profile"] * 10
    ctx.cache.update((key, verify._build(key)) for key in keys)
    calls = []
    monkeypatch.setattr(verify, "solve_obstacle", lambda prob: calls.append(prob))
    assert verify._check_scaling(ctx).passed
    assert calls == []
