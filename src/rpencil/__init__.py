"""Exact verification of R-matrix Poisson pencils, quantum matrix algebras
and generalized Lie brackets.
"""

from .scalars import (
    DEFAULT_ASSIGNMENT,
    PARAMETERS,
    DivisionByZero,
    PoleError,
    Scalar,
    ScalarError,
    scalar,
)
from .linalg import DimensionMismatch, Mat, SubspaceBasis
from .commpoly import GeneratorError, Poly
from .poisson import (
    PoissonStructure,
    are_compatible,
    constant_symplectic,
    double_lie_check,
    gl_bracket,
    lambda_linear_term,
    linearized,
    pencil,
    rmatrix_bracket,
    schouten_bracket,
    sd_quadratic,
)
from .rmatrix import (
    BraidOperator,
    NormalizationError,
    RMatrixElement,
    canonical_r,
    canonical_r_sp,
    closes_under_commutator,
    eigen_split,
    hecke_check,
    hecke_s,
    is_modified,
    qybe_check,
    s_w,
    schouten,
    sklyanin_from_r,
    sl_fundamental,
    sp_fundamental,
)
from .freealg import FreeElement
from .groebner import (
    DegreeBoundExceeded,
    IdealCollapse,
    NcIdeal,
    complete,
    filtration_dims,
    hilbert,
    normal_form,
)
from .quadratic import (
    ConsistencyError,
    QuadraticPresentation,
    a0q,
    certify_flat_filtered,
    certify_flat_graded,
    jhq,
    lambda_substitute,
    same_ideal,
)
from .glie import (
    GeneralizedLieBracket,
    SplittingError,
    bracket_table,
    check_axiom7,
    check_axiom8,
    classical_glie,
    enveloping,
    overlap_space,
    slie_jacobi_check,
    type2_bracket,
)
from .serialize import FormatError
from .suites import SUITES, SuiteError, run_suite

__version__ = "1.0.0"
