"""slicealg: slice-function algebra over the quaternions.

Truncated power-series arithmetic for slice-regular entire functions,
closed-form eigenvalue solvers for the slice derivative, the Laplacian
bridge to axially monogenic functions, and grid-verified solutions of
Helmholtz / Klein-Gordon / Yukawa equations built from them.
"""

# Each module's ``__all__`` is its public API; the package exports them all.
from .errors import *
from .quaternion import *
from .series import *
from .sliceexpr import *
from .eigensolve import *
from .monogenic import *
from .pde import *
from .verify import run_suites

__version__ = "0.1.0"
