"""coalgkit: an exact kernel for finite-dimensional cocommutative coalgebras.

Everything is computed over Q, F_p or F_q with exact arithmetic: coalgebras
and Artinian algebras as structure tensors, their etale decompositions via
Hensel lifting, finite Galois descent data, and Day convolution of
presheaves over finite linear monoidal categories together with the purity
and invariance closures that produce small subcoalgebras.

The public names below resolve on first access (PEP 562), so importing the
package, or one of its modules, loads only the modules actually used.  A
resolved name is not stored in the package namespace: every access reads it
from its defining module.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the public names it exports through the package
_EXPORTS = {
    "coalgebra": (
        "ArtinAlgebra", "Coalgebra", "CoalgebraMorphism", "diagonal_coalgebra", "direct_sum",
        "dual_algebra", "dual_coalgebra", "generated_subcoalgebra",
        "polynomial_quotient_algebra", "pushout", "quotient", "sub", "tensor",
        "trivial_coalgebra", "validate",
    ),
    "fields": ("GF", "QQ", "Field", "FieldElement", "field_arith", "field_from_json"),
    "factor": ("factor_polynomial", "roots_in_field"),
    "linalg": (
        "Matrix", "Subspace", "coequalizer", "kernel", "kronecker", "minimal_polynomial",
        "rref", "subspace_ops", "tensor_swap",
    ),
    "polys": ("Polynomial",),
    "structure": (
        "EtaleData", "FieldDatum", "GroupLikeSet", "LocalDecomposition", "decomposition",
        "etale_part", "gp_adjunction_checks", "group_likes", "hensel_lift_root",
        "irreducible_components", "local_decomposition", "naturality_suite", "radical",
        "wedderburn_splitting",
    ),
    "galois": (
        "FiniteGSet", "GaloisDatum", "adjunction_checks", "fixed_field",
        "frobenius_galois_datum", "kbar_functor", "orbits_and_stabilizers", "right_adjoint_R",
    ),
    "day": (
        "DayCoalgebra", "DayPresheaf", "LinearMonoidalCategory", "day_convolve",
        "internal_hom", "representable",
    ),
    "dayclosure": (
        "SubPresheaf", "generated_day_subcoalgebra", "invariant_closure", "pure_closure",
        "separate_by_generator",
    ),
    "presheaf": (
        "CoalgebraPresheaf", "FiniteCategory", "SetPresheaf", "etale_subpresheaf",
        "presheaf_gp_adjunction",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
