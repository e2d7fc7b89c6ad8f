"""The package's public surface: one name for each thing the modules export."""

import dataclasses
import inspect

import carnotflow
from carnotflow import barriers, calculus, cli, groups, solver, verdicts

MODULES = (groups, calculus, barriers, verdicts, solver)

# The public surface, written out so that every name added or removed shows
# up in a diff of this file.
PUBLIC = [
    "BARRIER_KINDS", "BarrierEval", "BarrierSpec", "Const", "Coord", "Engine",
    "Expr", "FrontCloud", "GridField", "GroupSpec", "InitialSpec", "Jet",
    "NormLemmaReport", "OperatorBounds", "PointVerdict", "Power", "Product",
    "REGIME_CHAR_ENVELOPE", "REGIME_CHAR_NULL", "REGIME_REGULAR", "RunResult",
    "SQRT_GAUGE_EXCLUSION", "ScalarField", "SmoothMap1D", "SolverConfig", "Sum",
    "SweepReport", "TimeVar", "bracket", "change_of_variables_check",
    "check_norm_lemma", "check_point", "classification_holds", "compose", "dilate",
    "extinction_time", "extract_front", "gauge", "gauge_distance",
    "gauge_profile_hgrad", "gauge_profile_hhess", "gauge_profile_value",
    "heisenberg", "homogeneous_norm", "horizontal_gradient", "horizontal_hessian",
    "init", "inverse", "is_heisenberg_like", "m3n5",
    "make_barrier", "make_cylinder", "make_euclid_ball", "make_gauge",
    "make_sqrt_gauge", "operator_bounds", "psi_identity", "psi_s_plus_s3",
    "psi_sqrt", "psi_square", "require_heisenberg_like", "residual_on_exact",
    "restricted_test_class_filter", "run", "sigma",
    "sq_norm", "sqrt", "sweep", "v_convexity_witness", "validate_spec",
    "write_front_csv", "write_snapshot_csv",
]
# Engine's public attributes: one step is `step`, so a second step path
# shows up here
ENGINE_PUBLIC = [
    "b", "chunks", "close", "config", "delta2", "dt", "eps2", "h", "m", "n",
    "operators", "step", "symbol_bound",
]
# RunResult's fields: run hands every snapshot to on_snapshot, so a second
# snapshot path shows up here
RUN_RESULT_FIELDS = [
    "extinction_time", "dt", "n_steps", "sandwich_max_violation", "regularization_gap",
]
CLI_PUBLIC = [
    "ConfigError", "SUITES", "build_group", "build_solver_config", "load_config",
    "main", "suite_barriers", "suite_change_of_variables", "suite_envelopes",
    "suite_group_axioms", "suite_norm_lemma",
]


def test_public_surface_is_pinned():
    assert PUBLIC == sorted(PUBLIC) and CLI_PUBLIC == sorted(CLI_PUBLIC)
    assert sorted(set().union(*(module.__all__ for module in MODULES))) == PUBLIC
    assert sorted(cli.__all__) == CLI_PUBLIC


def test_engine_surface_is_pinned():
    assert ENGINE_PUBLIC == sorted(ENGINE_PUBLIC)
    engine = solver.Engine(solver.SolverConfig(groups.heisenberg(), ((-1.0, 1.0),) * 3, (4, 4, 4)))
    assert [name for name in dir(engine) if not name.startswith("_")] == ENGINE_PUBLIC


def test_run_result_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(solver.RunResult)] == RUN_RESULT_FIELDS


def test_package_reexports_exactly_the_module_apis():
    exported = {
        name
        for name, value in vars(carnotflow).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == set().union(*(module.__all__ for module in MODULES))
    for module in MODULES:
        for name in module.__all__:
            assert getattr(carnotflow, name) is getattr(module, name), name


def test_every_listed_name_exists():
    for module in MODULES + (cli,):
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
