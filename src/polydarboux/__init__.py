"""polydarboux: exact classification and normal forms for polysymplectic
and multisymplectic linear structures, with a polynomial homotopy operator
and a floating-point Moser-flow demonstrator."""

__version__ = "0.1.0"

from .linalg import Matrix, Subspace, frac
from .exterior import (AlternatingForm, Flag, VectorValuedForm, contract, coordinate_flag,
                       form, pullback, project, wedge)
from .lagrangian import (StructureReport, check_multilagrangian, check_polylagrangian,
                         classify_horizontal_form, classify_vector_form, kernel_of_form,
                         symbol, uniform_rank)
from .darboux import (CanonicalModel, DarbouxBasis, canonical_multi_model,
                      canonical_poly_model, darboux_basis_multi, darboux_basis_poly)
from .polyforms import PolyForm, Polynomial, exterior_d, homotopy_primitive
from .lie import LieAlgebra, chevalley_eilenberg_d, su2, su2_example

__all__ = [
    "AlternatingForm", "CanonicalModel", "DarbouxBasis", "Flag", "LieAlgebra",
    "Matrix", "PolyForm", "Polynomial", "StructureReport", "Subspace",
    "VectorValuedForm", "canonical_multi_model", "canonical_poly_model",
    "check_multilagrangian", "check_polylagrangian", "chevalley_eilenberg_d",
    "classify_horizontal_form", "classify_vector_form", "contract", "coordinate_flag",
    "darboux_basis_multi", "darboux_basis_poly", "exterior_d", "form", "frac",
    "homotopy_primitive", "kernel_of_form", "project", "pullback", "su2", "su2_example",
    "symbol", "uniform_rank", "wedge",
]
