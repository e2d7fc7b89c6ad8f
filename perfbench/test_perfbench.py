"""Fast tests of the benchmark itself: checks, time base, hooks, contract.

    python -m pytest perfbench
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import carnotflow  # noqa: E402
import run as bench  # noqa: E402
import workloads as wl  # noqa: E402
from timebase import Clock  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402


# ------------------------------------------------------------- checks ----


def exact_snapshot(resolution=8, t=0.005, r=1.0):
    h = 4.0 / resolution
    ax = -2.0 + (np.arange(resolution) + 0.5) * h
    x1, x2, x3 = (a.ravel() for a in np.meshgrid(ax, ax, ax, indexing="ij"))
    u = r - 2.0 * t - (x1 ** 2 + x2 ** 2)
    return np.stack([np.full(u.size, t), x1, x2, x3, u], axis=-1)


def test_snapshot_check_accepts_exact_and_rejects_perturbed():
    data = exact_snapshot()
    assert wl.check_snapshot("t,x1,x2,x3,u", data, 8, 1.0) == []
    rh = np.hypot(data[:, 1], data[:, 2])
    inside = np.nonzero((rh > 0.3) & (rh < 1.2))[0][0]
    bad = data.copy()
    bad[inside, 4] += 1e-8
    assert wl.check_snapshot("t,x1,x2,x3,u", bad, 8, 1.0)
    assert wl.check_snapshot("t,x1,x2,x3,u", data[:-1], 8, 1.0)
    assert wl.check_snapshot("t,x1,x2,u", data, 8, 1.0)
    bad = data.copy()
    bad[0, 0] += 1e-3
    assert wl.check_snapshot("t,x1,x2,x3,u", bad, 8, 1.0)


def test_front_check_rejects_a_front_off_by_more_than_a_cell():
    t, h = 0.01, 4.0 / 64
    ang = np.linspace(0.0, 2 * np.pi, 50, endpoint=False)

    def front(radius):
        return np.stack([np.full(ang.size, t), radius * np.cos(ang), radius * np.sin(ang),
                         np.zeros(ang.size)], axis=-1)

    exact = math.sqrt(1.0 - 2.0 * t)
    assert wl.check_front(front(exact + 0.5 * h), t, 1.0, h) == []
    assert wl.check_front(front(exact + 1.5 * h), t, 1.0, h)
    assert wl.check_front(np.empty((0, 4)), t, 1.0, h)


def test_extinction_check_bounds_and_violation():
    assert wl.check_extinction(0.2815, 4.8e-14, 2, 3, 1.0) == []
    assert wl.check_extinction(0.1, 4.8e-14, 2, 3, 1.0)
    assert wl.check_extinction(0.55, 4.8e-14, 2, 3, 1.0)
    assert wl.check_extinction(None, 4.8e-14, 2, 3, 1.0)
    assert wl.check_extinction(0.2815, 2e-12, 2, 3, 1.0)
    assert wl.check_extinction(0.2815, None, 2, 3, 1.0)


def verify_text(verdicts):
    body = "\n".join(f"[{v}] suite {i}\n    detail" for i, v in enumerate(verdicts))
    tail = "all suites passed" if all(v == "PASS" for v in verdicts) else "FAILURES above"
    return f"{body}\nverify: {tail}\n"


def test_verify_report_check():
    assert wl.check_verify_report(0, verify_text(["PASS"] * 7)) == []
    assert wl.check_verify_report(1, verify_text(["PASS"] * 6 + ["FAIL"]))
    assert wl.check_verify_report(0, verify_text(["PASS"] * 6))
    assert wl.check_verify_report(1, verify_text(["PASS"] * 7))


def test_barrier_rows_check():
    rows = [{"numeric_op": "0.5", "verdict": "ok"} for _ in range(5)]
    assert wl.check_barrier_rows("cylinder", rows, 2, -1.5) == []
    assert wl.check_barrier_rows("cylinder", rows, 2, -2.0)
    rows[2] = {"numeric_op": "0.5000001", "verdict": "ok"}
    assert wl.check_barrier_rows("cylinder", rows, 2, -1.5)
    rows[2] = {"numeric_op": "0.5", "verdict": "fail"}
    assert wl.check_barrier_rows("gauge", rows, 2, None)
    assert wl.check_barrier_rows("gauge", [], 2, None)


def test_drifted_sqrt_gauge_fixture_fails_verify_suites(tmp_path):
    work = wl.VerifySuites(4, tmp_path / "w", drifts={"sqrt_gauge": 4.0}, samples=50)
    work.lattice = 3
    failures = work.check(work.job(0))
    assert any("barriers" in f for f in failures), failures


# ---------------------------------------------------------- time base ----


class FakeMachine:
    """A timer whose work and kernel runs cost time at a given speed."""

    def __init__(self, speed):
        self.now = 0.0
        self.speed = speed  # seconds per unit of work at time now

    def timer(self):
        return self.now

    def work(self, units):
        steps = max(1, math.ceil(units / 1e-3))
        for _ in range(steps):
            self.now += units / steps * self.speed(self.now)

    def kernel(self):
        self.work(0.01)


def synthetic_job_time(units, pieces, speed):
    machine = FakeMachine(speed)
    clock = Clock(machine.kernel, spacing=None, timer=machine.timer)
    clock.start_job()
    for _ in range(pieces):
        machine.work(units / pieces)
        clock.cut()
    return clock.end_job()


@pytest.mark.parametrize("speed", [lambda t: 1.0, lambda t: 1.7])
def test_time_ref_ignores_splitting_and_scales_with_work(speed):
    base = synthetic_job_time(10.0, 8, speed).time_ref
    assert synthetic_job_time(10.0, 16, speed).time_ref == pytest.approx(base, rel=1e-12)
    assert synthetic_job_time(20.0, 16, speed).time_ref == pytest.approx(2 * base, rel=1e-12)
    assert base == pytest.approx(1000.0, rel=1e-12)


def test_time_ref_follows_a_drifting_machine():
    slow = synthetic_job_time(10.0, 200, lambda t: 1.0 + 0.05 * t)
    assert slow.wall_s > 12.0
    assert slow.time_ref == pytest.approx(1000.0, rel=1e-3)


# -------------------------------------------------------------- hooks ----


def test_hooks_replace_every_binding_and_restore():
    import carnotflow.calculus as calculus
    import carnotflow.cli as cli
    import carnotflow.verdicts as verdicts

    original = calculus.horizontal_gradient
    clock = Clock(lambda: 0.0)
    tracer = Tracer(clock)
    tracer.install(TARGETS)
    try:
        hooked = calculus.horizontal_gradient
        assert hooked is not original
        assert verdicts.horizontal_gradient is hooked
        assert cli.horizontal_gradient is hooked
        assert carnotflow.horizontal_gradient is hooked
        g = carnotflow.heisenberg()
        bar = carnotflow.make_barrier("cylinder", g, -2.0, 1.0)
        verdicts.sweep(g, bar.field, [np.array([0.5, 0.2, 0.1])] * 3, expect="solution")
        bar.closed_form_operator(np.array([0.5, 0.2, 0.1]))
    finally:
        tracer.uninstall()
    assert calculus.horizontal_gradient is original
    assert verdicts.horizontal_gradient is original
    stats = tracer.stats
    assert stats["verdicts.sweep"].calls == 1 and stats["verdicts.sweep"].units == 3
    assert stats["verdicts.check_point"].calls == 3
    assert stats["calculus.ScalarField.jet"].calls == 3
    assert stats["calculus.horizontal_gradient"].calls == 3
    assert stats["barriers.closed_form_operator"].calls == 1
    sweep = stats["verdicts.sweep"]
    assert 0.0 <= sweep.self_s < sweep.total_s


# ----------------------------------------------------------- contract ----


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"time_ref", "setup_s", "peak_rss_mb"}
    clock = Clock(lambda: 0.0)
    clock.samples.append(0.001)
    layers = bench.layer_metrics(Tracer(clock), clock, 1, 0.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert all(m["unit"] == layers[m["name"]]["unit"] for m in spec["per_layer"])


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify-suites", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
