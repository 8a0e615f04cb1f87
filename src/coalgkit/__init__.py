"""coalgkit: an exact kernel for finite-dimensional cocommutative coalgebras.

Everything is computed over Q, F_p or F_q with exact arithmetic: coalgebras
and Artinian algebras as structure tensors, their etale decompositions via
Hensel lifting, finite Galois descent data, and Day convolution of
presheaves over finite linear monoidal categories together with the purity
and invariance closures that produce small subcoalgebras.
"""

from .coalgebra import (
    ArtinAlgebra,
    Coalgebra,
    CoalgebraMorphism,
    diagonal_coalgebra,
    direct_sum,
    dual_algebra,
    dual_coalgebra,
    generated_subcoalgebra,
    polynomial_quotient_algebra,
    pushout,
    quotient,
    sub,
    tensor,
    trivial_coalgebra,
    validate,
)
from .fields import GF, QQ, Field, FieldElement, field_arith, field_from_json
from .factor import factor_polynomial, roots_in_field
from .linalg import (
    Matrix,
    Subspace,
    coequalizer,
    kernel,
    kronecker,
    minimal_polynomial,
    rref,
    subspace_ops,
    tensor_swap,
)
from .polys import Polynomial
from .structure import (
    EtaleData,
    FieldDatum,
    GroupLikeSet,
    LocalDecomposition,
    decomposition,
    etale_part,
    gp_adjunction_checks,
    group_likes,
    hensel_lift_root,
    irreducible_components,
    local_decomposition,
    naturality_suite,
    radical,
    wedderburn_splitting,
)
from .galois import (
    FiniteGSet,
    GaloisDatum,
    adjunction_checks,
    fixed_field,
    frobenius_galois_datum,
    kbar_functor,
    orbits_and_stabilizers,
    right_adjoint_R,
)
from .day import (
    DayCoalgebra,
    DayPresheaf,
    LinearMonoidalCategory,
    day_convolve,
    internal_hom,
    representable,
)
from .dayclosure import (
    SubPresheaf,
    generated_day_subcoalgebra,
    invariant_closure,
    pure_closure,
    separate_by_generator,
)
from .presheaf import (
    CoalgebraPresheaf,
    FiniteCategory,
    SetPresheaf,
    etale_subpresheaf,
    presheaf_gp_adjunction,
)

__version__ = "0.1.0"
