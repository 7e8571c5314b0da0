"""Matrix-valued orthogonal functions that are simultaneous eigenfunctions of a
Schrodinger-type differential operator and a Fourier-type integral operator.
"""

from .families import (
    ConsistencyError,
    FamilyContext,
    FamilySpec,
    build_family,
    closed_form_N2,
    gamma_seq,
    weight_eval,
)
from .expansion import (
    BandMatrix,
    CoefficientExpansion,
    band_pattern,
    expand,
    inner_product,
    inner_product_weighted,
    matrix_element,
    reconstruct,
)
from .hermite import QuadratureRule, gauss_hermite, wave_function
from .matpoly import MatrixGaussian
from .structmat import StructuredPair, build_structured, nilpotent_series, phase_diag, trig_diag

__all__ = [
    "BandMatrix",
    "CoefficientExpansion",
    "ConsistencyError",
    "band_pattern",
    "expand",
    "inner_product",
    "inner_product_weighted",
    "matrix_element",
    "reconstruct",
    "FamilyContext",
    "FamilySpec",
    "MatrixGaussian",
    "QuadratureRule",
    "StructuredPair",
    "build_family",
    "build_structured",
    "closed_form_N2",
    "gamma_seq",
    "gauss_hermite",
    "nilpotent_series",
    "phase_diag",
    "trig_diag",
    "wave_function",
    "weight_eval",
]

__version__ = "0.1.0"
