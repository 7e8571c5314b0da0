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
from .matpoly import MatrixGaussian

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
    "build_family",
    "closed_form_N2",
    "gamma_seq",
    "weight_eval",
]

__version__ = "0.1.0"
