"""Exception hierarchy shared across the kernel.

CoalgkitError is the common base; the CLI maps subclasses onto exit codes
(ParseError -> 2, ValidationError -> 3, everything computational -> 4).
"""


class CoalgkitError(Exception):
    pass


class ParseError(CoalgkitError):
    """Malformed input file or string (carries file/position context)."""


class ValidationError(CoalgkitError):
    """An entity failed its structural axioms."""


class ComputationError(CoalgkitError):
    """A kernel operation could not be carried out."""


class SpecMismatch(ComputationError):
    """Operands live over different fields."""


class DivisionByZero(ComputationError):
    pass


class DegreeCapExceeded(ComputationError):
    """Rational factorization request above the configured degree cap."""


class KbarDimensionExceeded(ComputationError):
    """A G-set whose equivariant function algebra is larger than the cap
    `galois.KBAR_DIM_CAP`: its dual coalgebra would be dense in dim^3."""


class SearchExhausted(ComputationError):
    """A bounded search ran out: the candidate elements of a primitive
    element or splitting element, the seeded draws of the Frobenius split,
    or the odd primes tried for Hensel lifting.  The message names its
    bounds and the count tried."""


class NotSupported(ComputationError):
    """Operation not implemented for this field kind."""


class ShapeMismatch(ComputationError):
    pass


class AmbientMismatch(ComputationError):
    """Subspaces with different ambient dimensions."""


class NotASubcoalgebra(ComputationError):
    """Subspace is not closed under the comultiplication; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotACoideal(ComputationError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NonSeparableResidue(ComputationError):
    """Residue field with vanishing derivative of its minimal polynomial.

    Cannot happen over the implemented (perfect) fields; guards corrupt input.
    """


class InvalidAction(ComputationError):
    """Permutation data that is not a group action."""


class NotASubgroup(ComputationError):
    pass


class CategoryMismatch(ComputationError):
    """Presheaves over different index categories."""


class MapsEqual(ComputationError):
    """Separation was requested for a pair of equal morphisms."""


class ReportedFailure(CoalgkitError):
    """A verification suite found a violated identity."""

    def __init__(self, message, failures=None):
        super().__init__(message)
        self.failures = failures or []
