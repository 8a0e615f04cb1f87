"""Independent brute-force oracles used by the verification suites.

Everything here recomputes a property by exhaustive enumeration, staying off
the code paths it checks: subspace enumeration instead of generated spans,
direct searches instead of decompositions.
"""

import itertools

from .coalgebra import is_subcoalgebra
from .dayclosure import SubPresheaf, purity_kernels
from .linalg import Matrix, Subspace


def enumerate_subspaces(field, n):
    """All subspaces of k^n for a small finite field, via spans of small
    vector subsets (canonical RREF deduplication)."""
    if field.order is None:
        raise ValueError("cannot enumerate subspaces over an infinite field")
    vectors = [list(v) for v in itertools.product(field.elements(), repeat=n)]
    vectors = [v for v in vectors if any(not field.is_zero(c) for c in v)]
    seen = {}
    out = [Subspace.zero(field, n)]
    seen[out[0].basis] = True
    for size in range(1, n + 1):
        for combo in itertools.combinations(vectors, size):
            S = Subspace.from_vectors(field, n, list(combo))
            if S.basis not in seen:
                seen[S.basis] = True
                out.append(S)
    return out


def minimal_subcoalgebra(C, S):
    """Smallest subcoalgebra containing S, by filtering all subspaces."""
    best = None
    for T in enumerate_subspaces(C.field, C.dim):
        if not T.contains(S):
            continue
        if not is_subcoalgebra(C, T):
            continue
        if best is None or T.dim < best.dim:
            best = T
    return best


def unique_retraction(C, etale_data):
    """All coalgebra-morphism retractions of the etale inclusion, by
    exhaustive matrix enumeration (tiny finite cases only)."""
    from .coalgebra import CoalgebraMorphism, validate

    F = C.field
    d, n = etale_data.etale.dim, C.dim
    if F.order is None or F.order ** (d * n) > 1 << 16:
        raise ValueError("retraction enumeration out of range")
    ident = Matrix.identity(F, d)
    out = []
    for entries in itertools.product(F.elements(), repeat=d * n):
        M = Matrix(F, d, n, [list(entries[i * n : (i + 1) * n]) for i in range(d)])
        if not (M @ etale_data.inclusion.matrix == ident):
            continue
        phi = CoalgebraMorphism(C, etale_data.etale, M)
        if not validate(phi):
            out.append(M)
    return out


def primitive_idempotents(A):
    """All primitive idempotents of a commutative algebra A, by walking every
    element (q^dim at most 2^16): the nonzero e with e^2 = e such that every
    idempotent f gives ef = 0 or ef = e."""
    F = A.field
    if F.order is None or F.order**A.dim > 1 << 16:
        raise ValueError("idempotent enumeration out of range")
    zero = [F.zero] * A.dim
    elements = [list(v) for v in itertools.product(F.elements(), repeat=A.dim)]
    idempotents = [e for e in elements if e != zero and A.mul(e, e) == e]
    return [e for e in idempotents if all(A.mul(e, f) in (zero, e) for f in idempotents)]


def enumerate_subpresheaves(F):
    """All restriction-closed subspace families of a presheaf (tiny cases)."""
    field = F.category.field
    per_object = [enumerate_subspaces(field, d) for d in F.dims]
    out = []
    for choice in itertools.product(*per_object):
        sub = SubPresheaf(F, list(choice))
        if sub.is_closed():
            out.append(sub)
    return out


def is_pure_subpresheaf(M, sub, N):
    kernels, _, _, _ = purity_kernels(M, sub, N)
    return all(k.dim == 0 for k in kernels)


def is_invariant_subpresheaf(FC, sub):
    from .dayclosure import invariant_kernels

    failures, _, _ = invariant_kernels(FC, sub)
    return not failures


def is_day_subcoalgebra_carrier(FC, sub):
    """Whether delta restricts to sub with an injective convolution square."""
    from .day import convolve_nat, DayTensor

    subp, incl = sub.as_presheaf()
    conv_sub = DayTensor(subp, subp)
    kappa = convolve_nat(conv_sub, FC.conv, incl, incl)
    for U in range(FC.category.size):
        if kappa.at(U).kernel().dim != 0:
            return False
        if kappa.at(U).solve_matrix(FC.delta.at(U) @ incl.at(U)) is None:
            return False
    return True


def minimal_enlargements(F, M0, predicate):
    """Subpresheaves containing M0 satisfying predicate and minimal with it."""
    candidates = [
        sub for sub in enumerate_subpresheaves(F) if sub.contains(M0) and predicate(sub)
    ]
    out = []
    for sub in candidates:
        if not any(
            other is not sub and sub.contains(other) and sub.dims() != other.dims()
            for other in candidates
        ):
            out.append(sub)
    return out
