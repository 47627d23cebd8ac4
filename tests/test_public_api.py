"""The package's public names come from its modules' ``__all__`` lists."""

import importlib
import types

import slicealg

MODULES = ("errors", "quaternion", "series", "sliceexpr", "eigensolve",
           "monogenic", "pde")


def test_exports_are_the_union_of_module_all():
    homes = {}
    for name in MODULES:
        module = importlib.import_module(f"slicealg.{name}")
        for public in module.__all__:
            homes[public] = module
    homes["run_suites"] = importlib.import_module("slicealg.verify")
    exported = {n for n, v in vars(slicealg).items()
                if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert exported == set(homes)
    for name, module in homes.items():
        assert getattr(slicealg, name) is getattr(module, name)


def test_every_exception_class_is_public():
    errors = importlib.import_module("slicealg.errors")
    classes = {n for n, v in vars(errors).items()
               if isinstance(v, type) and issubclass(v, Exception)
               and v.__module__ == errors.__name__}
    assert set(errors.__all__) == classes
