"""Finite Galois data and the adjunction between G-sets and coalgebras.

For an explicit extension L/k with group G, a finite G-set X goes to the
dual of its algebra of equivariant maps X -> L; one orbit with stabilizer H
contributes (L^H)^dual.  The right adjoint sends a coalgebra C to the G-set
of algebra maps C^dual -> L, one per root in L of each residue polynomial
p, read off the primitive idempotents of L (x) k[t]/(p).  That route is the
same over every base field: the demo runs it over F_2 and over Q, where
Q(i)/Q is given by hand.  The unit is always an equivariant bijection; the
counit lands exactly on the etale part when every dual residue field embeds
into L.
"""

from coalgkit.coalgebra import dual_coalgebra, polynomial_quotient_algebra, trivial_coalgebra, direct_sum
from coalgkit.fields import GF, QQ
from coalgkit.galois import (
    GaloisDatum,
    adjunction_checks,
    coset_gset,
    disjoint_union,
    fixed_field,
    frobenius_galois_datum,
    kbar_functor,
    orbits_and_stabilizers,
    right_adjoint_R,
)
from coalgkit.linalg import Matrix
from coalgkit.polys import Polynomial

F2 = GF(2)
D = frobenius_galois_datum(2, [1, 1, 0, 0, 1])  # F_16 / F_2, G = Z/4 via Frobenius
print("Galois group of F_16/F_2 has subgroups", D.subgroups())
for H in D.subgroups():
    print(f"  fixed field of {H}: degree {fixed_field(D, H).dim}")

print()
print("== the left adjoint on G-sets ==")
X = disjoint_union(D, [coset_gset(D, (0,)), coset_gset(D, (0, 2))])
print("X = regular orbit + index-2 orbit:",
      [(len(o), s) for o, s, _ in orbits_and_stabilizers(D, X)])
k = kbar_functor(D, X)
print("kbar[X] is a coalgebra of dimension", k.coalgebra.dim, "= 4 + 2")

print()
print("== the right adjoint on coalgebras ==")
D4 = frobenius_galois_datum(2, [1, 1, 1])
C4 = dual_coalgebra(polynomial_quotient_algebra(F2, Polynomial.from_ints(F2, [1, 1, 1])))
embeddings, data = right_adjoint_R(D4, C4, (0,))
print("embeddings of (F_4)^dual into itself at H = {e}:", len(embeddings),
      "; Frobenius permutes them freely:", data.gset.action[1])
none, _ = right_adjoint_R(D4, C4, (0, 1))
print("at H = G there are", len(none), "embeddings (F_4 does not fit in F_2)")

print()
print("== unit and counit ==")
print("unit on the regular Z/2-set:", adjunction_checks(D4, X=coset_gset(D4, (0,)))["checks"])
S, _, _ = direct_sum(trivial_coalgebra(F2), C4)
print("counit on k (+) (F_4)^dual:", adjunction_checks(D4, C=S)["checks"])

print()
print("== over Q: Q(i)/Q, conjugation as the automorphism ==")
Li = polynomial_quotient_algebra(QQ, Polynomial.from_ints(QQ, [1, 0, 1]))
Di = GaloisDatum(QQ, Li, [Matrix.identity(QQ, 2), Matrix.from_int_rows(QQ, [[1, 0], [0, -1]])],
                 [[0, 1], [1, 0]])
Ci = dual_coalgebra(Li)
embeddings, data = right_adjoint_R(Di, Ci, (0,))
print("embeddings of Q(i)^dual into itself at H = {e}:", len(embeddings),
      "(the roots i and -i of t^2 + 1); conjugation swaps them:", data.gset.action[1])
print("unit and counit on the free orbit and Q(i)^dual:",
      adjunction_checks(Di, X=coset_gset(Di, (0,)), C=Ci)["ok"])
