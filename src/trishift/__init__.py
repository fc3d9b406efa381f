"""Finite-section laboratory for shifts on tridiagonal reproducing-kernel
spaces: coefficient families, explicit operator sections, a trailing-window
compact-plus-isometry criterion, polar splits, and kernel-side identities.

The public API republishes the ``__all__`` of :mod:`~trishift.analysis`,
:mod:`~trishift.kernels` and :mod:`~trishift.operators` in full, and the
names of :mod:`~trishift.expr` and :mod:`~trishift.sequences` imported
below."""

from . import analysis, kernels, operators
from .analysis import *
from .expr import (
    EvalError,
    ExprSyntaxError,
    SequenceExpr,
    parse_sequence_expr,
)
from .kernels import *
from .operators import *
from .sequences import (
    AssumptionReport,
    CoefficientSpec,
    HorizonError,
    SequencePair,
    SequenceSpecError,
    ZeroCoefficientError,
    c_coefficients,
    d_coefficients,
    load_spec_file,
    materialize,
    spec_from_document,
    validate_assumptions,
)

__version__ = "0.1.0"

__all__ = [
    *analysis.__all__,
    *kernels.__all__,
    *operators.__all__,
    "EvalError",
    "ExprSyntaxError",
    "SequenceExpr",
    "parse_sequence_expr",
    "AssumptionReport",
    "CoefficientSpec",
    "HorizonError",
    "SequencePair",
    "SequenceSpecError",
    "ZeroCoefficientError",
    "c_coefficients",
    "d_coefficients",
    "load_spec_file",
    "materialize",
    "spec_from_document",
    "validate_assumptions",
    "__version__",
]
