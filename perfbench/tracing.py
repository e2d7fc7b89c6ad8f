"""Hooks around carnotflow's public functions, installed from outside.

The program has no timers of its own, so the benchmark wraps the functions
at each layer boundary (`groups`, `calculus`, `barriers`, `verdicts`,
`solver`, `cli`).  Modules bind names with ``from .calculus import
horizontal_gradient`` and the like, so a wrapper replaces the original at
every carnotflow module that binds it, or calls through the other names
would be missed.  Methods are replaced on their class.

Hooks are installed for traced jobs only and removed after them, so
untraced jobs run the program untouched.  A hook records a span: calls,
inclusive time, self time (inclusive minus the time of traced callees) and
units of work, all net of the calibrations that ran inside it.
"""
from __future__ import annotations

import dataclasses
import functools
import os
import sys
import tracemalloc
from dataclasses import dataclass
from typing import Any, Callable

# Operator calls sampled per scheme for their peak allocation; the rest run
# without tracemalloc.
ALLOC_SAMPLES = 2


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    units: float = 0.0
    nbytes: int = 0
    peak_alloc: int = 0
    alloc_samples: int = 0
    last: Any = None


@dataclass(frozen=True)
class Target:
    """One hooked callable.

    module/attr: where the original lives; attr may be "Class.method".
    span: stat name, or a function of (args, kwargs) giving it.
    units: work count of one call, from (args, kwargs, result).
    nbytes: bytes written by one call, from (args, kwargs, result).
    post: result transform (used to hook callables that the call returns).
    alloc: sample the call's peak allocation with tracemalloc.
    keep: keep the last result.
    """

    module: str
    attr: str
    span: str | Callable | None = None
    units: Callable | None = None
    nbytes: Callable | None = None
    post: Callable | None = None
    alloc: bool = False
    keep: bool = False


def arg(args, kwargs, i: int, name: str):
    return kwargs[name] if name in kwargs else args[i]


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[float]] = []
        self._installed: list[tuple[Any, str, Any]] = []

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    # -- wrappers ---------------------------------------------------------

    def wrap(self, fn: Callable, target: Target) -> Callable:
        timer = self.clock.timer

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if target.span is None:
                result = fn(*args, **kwargs)
            else:
                result = self._traced(fn, target, args, kwargs, timer)
            if target.post is not None:
                result = target.post(self, result)
            return result

        return hooked

    def _traced(self, fn, target: Target, args, kwargs, timer):
        name = target.span(args, kwargs) if callable(target.span) else target.span
        st = self.stat(name)
        sample = target.alloc and st.alloc_samples < ALLOC_SAMPLES
        frame = [0.0]
        self._stack.append(frame)
        cal0 = self.clock.cal_total
        if sample:
            tracemalloc.start()
        t0 = timer()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = timer() - t0 - (self.clock.cal_total - cal0)
            if sample:
                st.peak_alloc = max(st.peak_alloc, tracemalloc.get_traced_memory()[1])
                st.alloc_samples += 1
                tracemalloc.stop()
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += dur
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - frame[0]
        if target.units is not None:
            st.units += target.units(args, kwargs, result)
        if target.nbytes is not None:
            st.nbytes += target.nbytes(args, kwargs, result)
        if target.keep:
            st.last = result
        return result

    # -- installation -----------------------------------------------------

    def install(self, targets) -> None:
        self.uninstall()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "carnotflow" or n.startswith("carnotflow."))]
        for t in targets:
            owner = sys.modules[t.module]
            cls_name, _, attr = t.attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = owner.__dict__.get(attr)
            if original is None:
                continue  # the program no longer has this function
            hooked = self.wrap(original, t)
            if cls_name:
                self._replace(owner, attr, original, hooked)
            else:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, original, hooked)

    def _replace(self, owner, key, original, hooked) -> None:
        setattr(owner, key, hooked)
        self._installed.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed = []


# ------------------------------------------------------------- targets ----


def _interior_nodes(args, kwargs, result):
    u = arg(args, kwargs, 1, "u")
    count = 1
    for s in u.shape:
        count *= s - 2
    return count


def _hook_closed_form(tracer: Tracer, barrier):
    """Hook the closed-form operator of each barrier the program builds."""
    hooked = tracer.wrap(barrier.closed_form_operator,
                         Target("", "", span="barriers.closed_form_operator"))
    return dataclasses.replace(barrier, closed_form_operator=hooked)


def _csv_rows_written(args, kwargs, result):
    a = arg(args, kwargs, 0, "args")
    path = os.path.join(a.out, f"barrier_{a.kind}.csv")
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def _operator_span(args, kwargs):
    scheme = kwargs.get("scheme", args[2] if len(args) > 2 else None)
    return f"solver.operator.{scheme or args[0].config.scheme}"


TARGETS = (
    # solver
    Target("carnotflow.solver", "Engine.operator", span=_operator_span,
           units=_interior_nodes, alloc=True),
    Target("carnotflow.solver", "Engine.advance", span="solver.advance",
           units=lambda a, k, r: r.size),
    Target("carnotflow.solver", "Engine.__init__", span="solver.Engine"),
    Target("carnotflow.solver", "init", span="solver.init"),
    Target("carnotflow.solver", "run", span="solver.run", keep=True,
           units=lambda a, k, r: r.n_steps),
    Target("carnotflow.solver", "extract_front", span="solver.extract_front",
           units=lambda a, k, r: arg(a, k, 0, "grid").values.size),
    Target("carnotflow.solver", "write_snapshot_csv", span="solver.write_snapshot_csv",
           units=lambda a, k, r: arg(a, k, 0, "grid").values.size,
           nbytes=lambda a, k, r: os.path.getsize(arg(a, k, 1, "path"))),
    Target("carnotflow.solver", "write_front_csv", span="solver.write_front_csv",
           units=lambda a, k, r: arg(a, k, 0, "cloud").points.shape[0]),
    # cli
    Target("carnotflow.cli", "cmd_evolve", span="cli.evolve"),
    Target("carnotflow.cli", "cmd_barrier", span="cli.barrier", units=_csv_rows_written),
    Target("carnotflow.cli", "suite_group_axioms", span="cli.suite.group-axioms"),
    Target("carnotflow.cli", "suite_norm_lemma", span="cli.suite.norm-lemma"),
    Target("carnotflow.cli", "suite_barriers", span="cli.suite.barriers"),
    Target("carnotflow.cli", "suite_envelopes", span="cli.suite.envelopes"),
    Target("carnotflow.cli", "suite_change_of_variables", span="cli.suite.change-of-variables"),
    # verdicts
    Target("carnotflow.verdicts", "check_point", span="verdicts.check_point"),
    Target("carnotflow.verdicts", "sweep", span="verdicts.sweep",
           units=lambda a, k, r: r.n_points),
    Target("carnotflow.verdicts", "check_norm_lemma", span="verdicts.check_norm_lemma",
           units=lambda a, k, r: r.n_points + r.n_pairs),
    # barriers
    Target("carnotflow.barriers", "make_barrier", post=_hook_closed_form),
    Target("carnotflow.barriers", "change_of_variables_check",
           span="barriers.change_of_variables_check"),
    # calculus
    Target("carnotflow.calculus", "ScalarField.jet", span="calculus.ScalarField.jet"),
    Target("carnotflow.calculus", "horizontal_gradient", span="calculus.horizontal_gradient"),
    Target("carnotflow.calculus", "horizontal_hessian", span="calculus.horizontal_hessian"),
    Target("carnotflow.calculus", "full_operator_G", span="calculus.full_operator_G"),
    # groups
    Target("carnotflow.groups", "compose", span="groups.compose"),
    Target("carnotflow.groups", "gauge_distance", span="groups.gauge_distance"),
)
