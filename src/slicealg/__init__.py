"""slicealg: slice-function algebra over the quaternions.

Truncated power-series arithmetic for slice-regular entire functions,
closed-form eigenvalue solvers for the slice derivative, the Laplacian
bridge to axially monogenic functions, and grid-verified solutions of
Helmholtz / Klein-Gordon / Yukawa equations built from them.
"""

from .errors import (
    SliceAlgError,
    ParseError,
    IoError,
    DomainError,
    DegenerateUnits,
    StemSymmetryError,
    ZeroEigenvalue,
    RangeError,
    CertificateViolation,
    GridTooSmall,
)
from .quaternion import (
    Quaternion,
    SlicePoint,
    ZERO,
    ONE,
    I,
    J,
    K,
    as_quaternion,
    commutes,
    decompose,
    format_quaternion,
    parse_quaternion,
)
from .series import (
    PowerSeries,
    exp_series,
    exp_tail_bound,
    exp_truncation,
    load_coeffs,
    normal,
    save_coeffs,
    slice_conjugate,
    slice_derivative,
    slice_product,
    spherical_derivative_eval,
)
from .sliceexpr import (
    SliceConstant,
    SliceExpr,
    constant_expr,
    lift,
    mu,
    pointwise_slice_product,
    product_expr,
    recover_constants,
    slice_constant_from_two_values,
    slice_derivative_pointwise,
    verify_stem_symmetry,
)
from .eigensolve import (
    CoeffBoundCert,
    EigenTuple,
    E_lambda_op,
    S_lambda,
    apply_D,
    f_mu_lambda,
    gen_exp,
    kernel_basis,
    solve_with_initial,
)
from .monogenic import (
    MonogenicSeries,
    apply_L,
    delta_exp,
    eval_P,
    eval_Z,
    fd_crf,
    fd_laplacian,
    fd_partial,
    fueter_laplacian,
    inv_laplacian,
    laplacian_pointwise,
    laplacian_via_partials,
    load_monogenic,
    richardson_order,
    save_monogenic,
)
from .pde import (
    GridSpec,
    PdeProblem,
    PdeReport,
    SolutionEvaluator,
    general_quadratic_kernel,
    helmholtz_solution,
    klein_gordon_solution,
    verify_pde,
    yukawa_solve,
)
from .verify import run_suites

__version__ = "0.1.0"
