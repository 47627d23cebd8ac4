"""Exception types shared across the package."""

__all__ = ["SliceAlgError", "ParseError", "IoError", "DomainError",
           "DegenerateUnits", "StemSymmetryError", "ZeroEigenvalue",
           "RangeError", "CertificateViolation", "GridTooSmall"]


class SliceAlgError(Exception):
    """Base class for all slicealg-specific errors."""


class ParseError(SliceAlgError, ValueError):
    """An input was refused: it does not parse, or breaks a rule of its reader."""


class IoError(SliceAlgError, OSError):
    """A required input file is missing or an output path is unwritable."""


class DomainError(SliceAlgError, ValueError):
    """Evaluation was requested outside the domain of a slice function.

    Typical case: a product-domain function (such as mu_I) evaluated at
    a real point, where Im(x) = 0 leaves the defining formula undefined.
    """


class DegenerateUnits(SliceAlgError, ValueError):
    """The pair of imaginary units handed to a two-value constant is
    (numerically) degenerate, e.g. J = K."""


class StemSymmetryError(SliceAlgError, ValueError):
    """An evaluator violates the stem symmetry F(conj z) = conj2(F(z));
    the data does not describe a slice function."""


class ZeroEigenvalue(SliceAlgError, ValueError):
    """An operation that inverts the eigenvalue received lambda = 0, or a
    lambda whose |lambda|^2 is not a normal float (no accurate inverse)."""


class RangeError(SliceAlgError, ValueError):
    """Eigenvalue moduli violate a strict hypothesis (e.g. |mu| < |lambda|),
    or a series overflows at a point where it is evaluated."""


class CertificateViolation(SliceAlgError, ValueError):
    """A coefficient-growth certificate failed on the supplied data."""


class GridTooSmall(SliceAlgError, ValueError):
    """The verification grid has no interior points for the FD stencil."""
