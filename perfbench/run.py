"""carnotflow benchmark: one workload per process, drift-calibrated time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; carnotflow is imported from its
``src/`` directory.  The run repeats whole jobs of the workload until the
next one would end after ``--seconds`` (at least one job, two when traced),
then checks every job's outputs against closed-form references.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": jobs, "failed": jobs that raised,
     "metrics": {name: {"value": ..., "unit": ...}}}

``--trace 0`` reports the end-to-end metrics (time_ref, setup_s,
peak_rss_mb); ``--trace 1`` alternates untraced and traced jobs and reports
the per-layer metrics, with the tracing overhead taken from the difference.
The exit code is 0 only when every job ran and passed its checks.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("cylinder-64-evolve", "gauge-ball-sandwich-32", "verify-suites")
# set-up probes before and after the jobs, so that the median samples the
# machine at both ends of the run
SETUP_PROBES = (5, 4)
WORKERS_ENV_VAR = "CARNOTFLOW_WORKERS"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ------------------------------------------------------------- set-up ----


def setup_probe(args) -> int:
    """Child process: set the workload up, then print when that was done."""
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, OUT / f"probe-{os.getpid()}")
    try:
        wl.setup()
        print(f"SETUP_DONE {time.perf_counter()!r}", flush=True)
    finally:
        wl.cleanup()
    return 0


def measure_setup(args, probes: int) -> list[float]:
    """Seconds from process start to the first timed unit, per fresh probe.

    perf_counter is CLOCK_MONOTONIC, shared by parent and child, so the
    child's stamp minus the parent's stamp before the spawn covers
    interpreter start, imports, config, init and Engine construction.
    """
    times = []
    for _ in range(probes):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        stamp = float(proc.stdout.split("SETUP_DONE", 1)[1].split()[0])
        times.append(stamp - t0)
    return times


# ------------------------------------------------------ per-layer table ---


def _div(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, clock, traced_jobs: int, overhead_pct: float) -> dict:
    s = tracer.stat
    J = traced_jobs
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    for scheme in ("regularized", "envelope_min", "envelope_max"):
        op = s(f"solver.operator.{scheme}")
        put(f"solver.operator.{scheme}.ns_per_node", _div(op.total_s, op.units) * 1e9, "ns/node")
        put(f"solver.operator.{scheme}.calls", op.calls / J, "count")
        put(f"solver.operator.{scheme}.peak_alloc_mb", op.peak_alloc / 2 ** 20, "MB")
    put("solver.advance.self_ns_per_node",
        _div(s("solver.advance").self_s, s("solver.advance").units) * 1e9, "ns/node")
    run_ = s("solver.run")
    put("solver.run.self_s", run_.self_s / J, "s")
    put("solver.steps", run_.units / J, "count")
    put("solver.dt", run_.last.dt if run_.last is not None else 0.0, "model_t")
    put("solver.extract_front.ns_per_node",
        _div(s("solver.extract_front").total_s, s("solver.extract_front").units) * 1e9, "ns/node")
    snap = s("solver.write_snapshot_csv")
    put("solver.write_snapshot_csv.ns_per_row", _div(snap.total_s, snap.units) * 1e9, "ns/row")
    put("solver.write_snapshot_csv.mb", snap.nbytes / 2 ** 20 / J, "MB")
    front = s("solver.write_front_csv")
    put("solver.write_front_csv.ns_per_row", _div(front.total_s, front.units) * 1e9, "ns/row")
    put("cli.evolve.self_s", s("cli.evolve").self_s / J, "s")
    put("solver.Engine.setup_ms", _div(s("solver.Engine").total_s, s("solver.Engine").calls) * 1e3, "ms")
    put("solver.init.ms", _div(s("solver.init").total_s, s("solver.init").calls) * 1e3, "ms")

    def us_per_call(name):
        put(f"{name}.us_per_call", _div(s(name).total_s, s(name).calls) * 1e6, "us")

    us_per_call("calculus.ScalarField.jet")
    put("calculus.ScalarField.jet.calls", s("calculus.ScalarField.jet").calls / J, "count")
    for name in ("calculus.horizontal_gradient", "calculus.horizontal_hessian",
                 "calculus.full_operator_G", "verdicts.check_point"):
        us_per_call(name)
    for name in ("verdicts.sweep", "verdicts.check_norm_lemma"):
        put(f"{name}.points_per_s", _div(s(name).units, s(name).total_s), "1/s")
    for name in ("barriers.closed_form_operator", "barriers.change_of_variables_check",
                 "groups.compose", "groups.gauge_distance"):
        us_per_call(name)
    for suite in ("group-axioms", "norm-lemma", "barriers", "envelopes", "change-of-variables"):
        put(f"cli.suite.{suite}.s", s(f"cli.suite.{suite}").total_s / J, "s")
    put("cli.barrier.rows_per_s", _div(s("cli.barrier").units, s("cli.barrier").total_s), "1/s")
    put("bench.calib.ms", clock.median_calibration() * 1e3, "ms")
    put("bench.trace_overhead_pct", overhead_pct, "%")
    return out


# --------------------------------------------------------------- main ----


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "carnotflow" / "__init__.py").is_file():
        print(f"perfbench: no carnotflow sources under {SRC}", file=sys.stderr)
        return 2
    # the program's default of one worker
    os.environ.pop(WORKERS_ENV_VAR, None)
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)

    setup_times = measure_setup(args, SETUP_PROBES[0])

    import workloads
    from timebase import Clock
    from tracing import TARGETS, Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed, OUT / f"{args.workload}-{os.getpid()}")
    clock = Clock(wl.kernel())
    tracer = Tracer(clock)
    jobs = []  # (JobTime, traced, record or None)
    failed = 0
    try:
        begin = time.perf_counter()
        min_jobs = 2 if args.trace else 1
        while True:
            traced = bool(args.trace) and len(jobs) % 2 == 1
            if traced:
                tracer.install(TARGETS)
            clock.start_job()
            try:
                record = wl.job(len(jobs))
            except Exception:
                traceback.print_exc()
                record = None
                failed += 1
            jt = clock.end_job()
            tracer.uninstall()
            jobs.append((jt, traced, record))
            elapsed = time.perf_counter() - begin
            if len(jobs) >= min_jobs and elapsed * (1 + 1 / len(jobs)) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_times += measure_setup(args, SETUP_PROBES[1])
        failures = []
        for k, (_, _, record) in enumerate(jobs):
            if record is not None:
                failures += [f"job {k}: {f}" for f in wl.check(record)]
    finally:
        wl.cleanup()

    for f in failures:
        print(f"perfbench: CHECK FAILED {f}", file=sys.stderr)
    untraced = [jt for jt, t, _ in jobs if not t]
    traced_jobs = [jt for jt, t, _ in jobs if t]
    time_ref = statistics.median(jt.time_ref for jt in untraced)
    print(f"perfbench: {args.workload} seed={args.seed} jobs={len(jobs)} "
          f"time_ref={[round(jt.time_ref, 1) for jt in untraced]} "
          f"wall_s={[round(jt.wall_s, 3) for jt, _, _ in jobs]} "
          f"calib_ms={clock.median_calibration() * 1e3:.4f} "
          f"setup_s={[round(t, 4) for t in setup_times]}")
    if args.trace:
        overhead = (statistics.median(jt.time_ref for jt in traced_jobs) / time_ref - 1) * 100
        metrics = layer_metrics(tracer, clock, len(traced_jobs), overhead)
    else:
        metrics = {
            "time_ref": {"value": time_ref, "unit": "ref"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
