"""slicealg: slice-function algebra over the quaternions.

Truncated power-series arithmetic for slice-regular entire functions,
closed-form eigenvalue solvers for the slice derivative, the Laplacian
bridge to axially monogenic functions, and grid-verified solutions of
Helmholtz / Klein-Gordon / Yukawa equations built from them.
"""

import importlib

__version__ = "0.1.0"

# Each module's ``__all__`` is its public API; the package exports them
# all, and verify's run_suites.  The names load on first use (PEP 562), so
# that a command imports only the modules it needs: a name is looked up
# in the modules in dependency order, importing each until one holds it
# (eigensolve before sliceexpr, whose dataclasses gen_exp does not need).
_MODULES = ("errors", "quaternion", "series", "eigensolve", "sliceexpr",
            "monogenic", "pde", "verify")


def _exports():
    """(module, the names the package takes from it), in module order."""
    for name in _MODULES:
        module = importlib.import_module(f".{name}", __name__)
        yield module, ("run_suites",) if name == "verify" else module.__all__


def __getattr__(name):
    # ``from slicealg import quaternion`` asks for the submodule by name:
    # import that one alone
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name == "__all__":
        return [public for _, names in _exports() for public in names]
    for module, names in _exports():
        if name in names:
            globals()[name] = value = getattr(module, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
