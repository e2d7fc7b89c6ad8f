"""The package's public surface: one name for each thing the modules export."""

import inspect

import carnotflow
from carnotflow import barriers, calculus, cli, groups, solver, verdicts

MODULES = (groups, calculus, barriers, verdicts, solver)


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
