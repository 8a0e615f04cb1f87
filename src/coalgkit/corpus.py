"""Seeded random generators for coalgebras, algebras and morphisms.

The coalgebra corpus mixes the constructions the kernel supports: pointwise
coalgebras on finite sets, duals of random commutative algebras (conjugated
by random basis changes so nothing stays in split coordinates), direct sums,
tensor products, generated subcoalgebras and quotients by coideals.  All
randomness flows through the caller's rng, so corpora are reproducible.
"""

import random

from .coalgebra import (
    CoalgebraMorphism,
    diagonal_coalgebra,
    direct_sum,
    dual_coalgebra,
    generated_subcoalgebra,
    polynomial_quotient_algebra,
    quotient,
    tensor,
    tensor_morphism,
    trivial_coalgebra,
)
from .factor import is_irreducible
from .linalg import Matrix, Subspace, kronecker
from .polys import Polynomial
from .structure import etale_part, product_algebra


def random_invertible(rng, field, n):
    while True:
        M = Matrix(
            field, n, n, [[field.random(rng) for _ in range(n)] for _ in range(n)]
        )
        if M.rank() == n:
            return M


def conjugate_algebra(A, P):
    """The same algebra in the basis given by the columns of P."""
    from .coalgebra import ArtinAlgebra

    Pinv = P.inverse()
    mult = Pinv @ A.mult @ kronecker(P, P)
    unit = Pinv.apply(A.unit)
    return ArtinAlgebra(A.field, A.dim, mult, unit)


def random_monic(rng, field, degree):
    coeffs = [field.random(rng) for _ in range(degree)] + [field.one]
    return Polynomial(field, coeffs)


def random_irreducible(rng, field, degree):
    while True:
        f = random_monic(rng, field, degree)
        if f.degree == degree and is_irreducible(f):
            return f


def _in_random_basis(rng, field, parts):
    """The product of the parts in a random basis."""
    A = product_algebra(field, parts)
    if A.dim > 0:
        A = conjugate_algebra(A, random_invertible(rng, field, A.dim))
    return A


def random_algebra(rng, field, dim):
    """Product of univariate quotient algebras in a random basis."""
    parts = []
    remaining = dim
    while remaining > 0:
        d = rng.randint(1, remaining)
        parts.append(polynomial_quotient_algebra(field, random_monic(rng, field, d)))
        remaining -= d
    return _in_random_basis(rng, field, parts)


def random_split_algebra(rng, field, dim):
    """All residue fields equal to the base: products of k[x]/((x-c)^e)."""
    parts = []
    remaining = dim
    while remaining > 0:
        e = rng.randint(1, remaining)
        c = field.random(rng)
        linear = Polynomial(field, [field.neg(c), field.one])
        parts.append(polynomial_quotient_algebra(field, linear**e))
        remaining -= e
    return _in_random_basis(rng, field, parts)


def random_subfield_compatible_algebra(rng, field, dim, residue_degrees):
    """Residue degrees restricted to the given divisors (so that every
    residue field embeds into a chosen extension)."""
    parts = []
    remaining = dim
    while remaining > 0:
        choices = [d for d in residue_degrees if d <= remaining]
        d = rng.choice(choices)
        e = rng.randint(1, remaining // d)
        f = random_irreducible(rng, field, d)
        parts.append(polynomial_quotient_algebra(field, f**e))
        remaining -= d * e
    return _in_random_basis(rng, field, parts)


def random_vector(rng, field, n, nonzero=False):
    while True:
        v = [field.random(rng) for _ in range(n)]
        if not nonzero or any(not field.is_zero(c) for c in v):
            return v


def random_coalgebra(rng, field, max_dim=6, depth=2):
    """A corpus coalgebra built from the supported constructions."""
    recipes = ["diag", "dualalg", "dualalg", "split"]
    if depth > 0 and max_dim >= 2:
        recipes += ["sum", "tensor", "sub", "quotient"]
    kind = rng.choice(recipes)
    if kind == "diag":
        return diagonal_coalgebra(rng.randint(1, max_dim), field)
    if kind == "dualalg":
        return dual_coalgebra(random_algebra(rng, field, rng.randint(1, max_dim)))
    if kind == "split":
        return dual_coalgebra(random_split_algebra(rng, field, rng.randint(1, max_dim)))
    if kind == "sum":
        a = rng.randint(1, max_dim - 1)
        C = random_coalgebra(rng, field, a, depth - 1)
        D = random_coalgebra(rng, field, max_dim - C.dim, depth - 1)
        return direct_sum(C, D)[0]
    if kind == "tensor":
        a = rng.randint(1, max_dim // 2) if max_dim >= 2 else 1
        C = random_coalgebra(rng, field, a, depth - 1)
        b = max(1, max_dim // max(C.dim, 1))
        D = random_coalgebra(rng, field, b, depth - 1)
        return tensor(C, D)
    if kind == "sub":
        C = random_coalgebra(rng, field, max_dim, depth - 1)
        if C.dim <= 1:
            return C
        S = Subspace.from_vectors(field, C.dim, [random_vector(rng, field, C.dim, True)])
        return generated_subcoalgebra(C, S)[0]
    # quotient by the kernel of the etale retraction (a coideal)
    C = random_coalgebra(rng, field, max_dim, depth - 1)
    data = etale_part(C)
    ker = data.retraction.matrix.kernel()
    if ker.dim == 0:
        return C
    return quotient(C, ker)[0]


def random_morphism(rng, field, max_dim=6, depth=1):
    """A corpus morphism assembled from canonical maps and combinators."""
    kind = rng.choice(
        ["identity", "counit", "inclusion", "retraction", "component", "tensor-collapse"]
        + (["sum", "tensor"] if depth > 0 else [])
    )
    if kind == "identity":
        C = random_coalgebra(rng, field, max_dim)
        return CoalgebraMorphism(C, C, Matrix.identity(field, C.dim))
    if kind == "counit":
        C = random_coalgebra(rng, field, max_dim)
        return CoalgebraMorphism(C, trivial_coalgebra(field), C.epsilon)
    if kind == "inclusion":
        C = random_coalgebra(rng, field, max_dim)
        S = Subspace.from_vectors(field, C.dim, [random_vector(rng, field, C.dim, True)])
        return generated_subcoalgebra(C, S)[1]
    if kind == "retraction":
        C = random_coalgebra(rng, field, max_dim)
        return etale_part(C).retraction
    if kind == "component":
        from .structure import irreducible_components

        C = random_coalgebra(rng, field, max_dim)
        comps, iso = irreducible_components(C)
        if rng.random() < 0.5:
            return rng.choice(comps)[1]
        return iso
    if kind == "tensor-collapse":
        a = max(1, max_dim // 2)
        C = random_coalgebra(rng, field, a)
        D = random_coalgebra(rng, field, max(1, max_dim // max(C.dim, 1)))
        T = tensor(C, D)
        return CoalgebraMorphism(T, D, kronecker(C.epsilon, Matrix.identity(field, D.dim)))
    if kind == "sum":
        from .coalgebra import direct_sum_morphism

        f = random_morphism(rng, field, max(1, max_dim // 2), depth - 1)
        g = random_morphism(rng, field, max(1, max_dim // 2), depth - 1)
        return direct_sum_morphism(f, g)
    f = random_morphism(rng, field, 2, depth - 1)
    g = random_morphism(rng, field, 2, depth - 1)
    return tensor_morphism(f, g)


def corpus_fields():
    from .fields import GF, QQ

    return [QQ, GF(2), GF(3), GF(5)]


def corpus(seed, count, fields=None):
    """The shared coalgebra corpus: count instances cycling over the fields."""
    fields = fields or corpus_fields()
    rng = random.Random(seed)
    out = []
    for i in range(count):
        field = fields[i % len(fields)]
        out.append(random_coalgebra(rng, field))
    return out
