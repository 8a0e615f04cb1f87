
import pytest

from coalgkit.coalgebra import (
    direct_sum,
    dual_coalgebra,
    polynomial_quotient_algebra,
    trivial_coalgebra,
    validate,
)
from coalgkit.errors import NotASubgroup, ValidationError
from coalgkit.fields import GF, QQ
from coalgkit.galois import (
    FiniteGSet,
    GaloisDatum,
    adjunction_checks,
    coset_gset,
    disjoint_union,
    equivariant_maps,
    fixed_field,
    frobenius_galois_datum,
    kbar_functor,
    kbar_on_map,
    orbits_and_stabilizers,
    right_adjoint,
    right_adjoint_R,
    trivial_datum,
    trivial_gset,
    unit_map,
)
from coalgkit.linalg import Matrix
from coalgkit.polys import Polynomial
from coalgkit.structure import etale_part

F2 = GF(2)
F3 = GF(3)

D4 = frobenius_galois_datum(2, [1, 1, 1])
D8 = frobenius_galois_datum(2, [1, 1, 0, 1])
D9 = frobenius_galois_datum(3, [1, 0, 1])
D16 = frobenius_galois_datum(2, [1, 1, 0, 0, 1])


def pqa(field, ints):
    return polynomial_quotient_algebra(field, Polynomial.from_ints(field, ints))


def test_datum_validation():
    assert D4.size == 2 and D4.subgroups() == [(0,), (0, 1)]
    assert D16.subgroups() == [(0,), (0, 2), (0, 1, 2, 3)]
    # a datum whose "Frobenius" is the identity is not Galois (fixed space too big)
    bad_autos = [D4.automorphisms[0], D4.automorphisms[0]]
    with pytest.raises(ValidationError):
        GaloisDatum(F2, D4.L, bad_autos, D4.table)
    # a map that moves the unit is rejected
    with pytest.raises(ValidationError, match="does not fix the unit"):
        GaloisDatum(F2, D4.L, [D4.automorphisms[0], Matrix.from_int_rows(F2, [[0, 1], [1, 0]])], D4.table)
    # non-multiplicative automorphism is rejected: in F_2[x]/(x^4 + x + 1),
    # swapping x and x^2 fixes 1 and is invertible, but sends x*x to x, not x^2*x^2 = x + 1
    swap = Matrix.from_int_rows(F2, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    with pytest.raises(ValidationError, match="automorphism 1 is not multiplicative"):
        GaloisDatum(F2, D16.L, [D16.automorphisms[0], swap] + D16.automorphisms[2:], D16.table)


FROBENIUS_MODULI = [(2, [1, 1, 1]), (2, [1, 1, 0, 1]), (3, [1, 0, 1]), (2, [1, 1, 0, 0, 1]),
                    (5, [2, 0, 1]), (3, [1, 2, 0, 1]), (2, [1, 0, 1, 0, 0, 1])]  # F4 .. F32


def test_datum_validation_builds_one_frobenius_matrix(monkeypatch):
    """Over F_q the field check of a Galois datum reads rad L and the
    primitive idempotents of L off one Frobenius matrix, and
    frobenius_galois_datum builds no other: its Phi has the columns
    x^(ip) mod f.  The automorphisms are the powers of that matrix."""
    from coalgkit import galois, structure

    built = []
    frobenius = structure._frobenius

    def counting(A):
        built.append(A)
        return frobenius(A)

    monkeypatch.setattr(structure, "_frobenius", counting)
    monkeypatch.setattr(galois, "_frobenius", counting, raising=False)
    for D in (D4, D8, D9, D16):
        GaloisDatum(D.base, D.L, D.automorphisms, D.table)
    assert [A.dim for A in built] == [2, 3, 2, 4]
    built.clear()
    data = [frobenius_galois_datum(p, ints) for p, ints in FROBENIUS_MODULI]
    assert [A.dim for A in built] == [len(ints) - 1 for _, ints in FROBENIUS_MODULI]
    for D in data:
        phi = frobenius(D.L)
        power = Matrix.identity(D.base, D.L.dim)
        for M in D.automorphisms:
            assert M == power
            power = power @ phi
        assert power == Matrix.identity(D.base, D.L.dim)


def test_rational_datum():
    # Q(i)/Q supplied by hand: L = Q[x]/(x^2+1), conjugation as the automorphism
    L = pqa(QQ, [1, 0, 1])
    conj = Matrix.from_int_rows(QQ, [[1, 0], [0, -1]])
    D = GaloisDatum(QQ, L, [Matrix.identity(QQ, 2), conj], [[0, 1], [1, 0]])
    assert fixed_field(D, (0, 1)).dim == 1
    assert fixed_field(D, (0,)).dim == 2
    X = coset_gset(D, (0,))
    k = kbar_functor(D, X)
    assert k.coalgebra.dim == 2 and validate(k.coalgebra) == []
    rep = adjunction_checks(D, X=trivial_gset(D, 2), C=trivial_coalgebra(QQ))
    assert rep["ok"]
    # the residue polynomial t^2 + 1 of L's own dual has the roots x and -x:
    # the algebra maps L -> L are the two automorphisms, swapped by conjugation
    R = right_adjoint(D, dual_coalgebra(L))
    assert sorted(m.sort_key() for m in R.maps) == sorted(M.sort_key() for M in D.automorphisms)
    assert R.gset.action == [[0, 1], [1, 0]] and R.image_dims == [2, 2]
    assert adjunction_checks(D, X=X, C=dual_coalgebra(L))["ok"]


def test_orbits_and_stabilizers():
    X = trivial_gset(D4, 3)
    orbits = orbits_and_stabilizers(D4, X)
    assert [len(o) for o, _, _ in orbits] == [1, 1, 1]
    assert all(s == (0, 1) for _, s, _ in orbits)

    reg = coset_gset(D4, (0,))
    orbits = orbits_and_stabilizers(D4, reg)
    assert [len(o) for o, _, _ in orbits] == [2]
    assert orbits[0][1] == (0,)

    X42 = disjoint_union(D16, [coset_gset(D16, (0,)), coset_gset(D16, (0, 2))])
    orbits = orbits_and_stabilizers(D16, X42)
    assert sorted((len(o), len(s)) for o, s, _ in orbits) == [(2, 2), (4, 1)]


def test_invalid_action_rejected():
    from coalgkit.errors import InvalidAction

    with pytest.raises(InvalidAction):
        FiniteGSet(2, [[0, 1], [0, 0]], D4.table)  # not a permutation
    with pytest.raises(InvalidAction):
        FiniteGSet(2, [[1, 0], [0, 1]], D4.table)  # identity must act trivially


def test_fixed_field_examples():
    assert fixed_field(D4, (0, 1)).dim == 1
    assert fixed_field(D4, (0,)).dim == 2
    ff = fixed_field(D16, (0, 2))
    assert ff.dim == 2
    with pytest.raises(NotASubgroup):
        fixed_field(D16, (0, 1))


def test_galois_correspondence_order_8():
    D256 = frobenius_galois_datum(2, [1, 0, 1, 1, 1, 0, 0, 0, 1])  # F256/F2
    subs = D256.subgroups()
    assert [len(H) for H in subs] == [1, 2, 4, 8]
    spans = {}
    for H in subs:
        ff = fixed_field(D256, H)
        assert ff.dim == 8 // len(H)
        spans[H] = ff.embedding.column_space()
    for H1 in subs:
        for H2 in subs:
            if set(H1) <= set(H2):
                assert spans[H1].contains(spans[H2])  # inclusion-reversing


def test_kbar_examples():
    k1 = kbar_functor(D4, trivial_gset(D4, 1))
    assert k1.coalgebra == trivial_coalgebra(F2)

    kreg = kbar_functor(D4, coset_gset(D4, (0,)))
    assert kreg.coalgebra.dim == 2
    data = etale_part(kreg.coalgebra)
    assert len(data.simples) == 1 and data.etale.dim == 2  # simple

    Xmix = disjoint_union(D4, [trivial_gset(D4, 2), coset_gset(D4, (0,))])
    kmix = kbar_functor(D4, Xmix)
    assert kmix.coalgebra.dim == 4
    assert etale_part(kmix.coalgebra).etale.dim == 4


def test_kbar_builds_one_fixed_field_per_stabilizer(monkeypatch):
    """k̄[X] is the product of its orbits' fixed fields, each built once per
    distinct stabilizer, and its basis rows are placed, not reduced or
    solved for."""
    from coalgkit import galois
    from coalgkit.linalg import Subspace

    built = []
    fixed = galois.fixed_field

    def counting(D, H):
        built.append(H)
        return fixed(D, H)

    def refuse(*args):
        raise AssertionError("a subspace was reduced or solved")

    monkeypatch.setattr(galois, "fixed_field", counting)
    monkeypatch.setattr(Subspace, "from_sparse", refuse)
    monkeypatch.setattr(Subspace, "coordinates", refuse)
    parts = [(0,), (0, 2), (0,), (0, 1, 2, 3), (0, 2), (0, 1, 2, 3)]
    X = disjoint_union(D16, [coset_gset(D16, H) for H in parts])
    kX = kbar_functor(D16, X)
    assert built == [(0,), (0, 2), (0, 1, 2, 3)]
    assert kX.algebra.dim == 4 + 2 + 4 + 1 + 2 + 1


def test_kbar_disjoint_union_is_direct_sum():
    X = trivial_gset(D4, 1)
    Y = coset_gset(D4, (0,))
    kXY = kbar_functor(D4, disjoint_union(D4, [X, Y]))
    kX, kY = kbar_functor(D4, X), kbar_functor(D4, Y)
    assert kXY.coalgebra == direct_sum(kX.coalgebra, kY.coalgebra)[0]


def test_kbar_functorial_on_equivariant_maps():
    X = coset_gset(D4, (0,))
    Y = trivial_gset(D4, 1)
    kX, kY = kbar_functor(D4, X), kbar_functor(D4, Y)
    for f in equivariant_maps(D4, X, Y):
        phi = kbar_on_map(D4, f, kX, kY)
        assert validate(phi) == []


def test_right_adjoint_examples():
    C4 = dual_coalgebra(pqa(F2, [1, 1, 1]))
    morphs, data = right_adjoint_R(D4, C4, (0,))
    assert len(morphs) == 2
    assert all(validate(m) == [] and m.is_injective() for m in morphs)
    # the two embeddings are permuted freely by Frobenius: the regular G-set
    assert data.gset.size == 2 and data.gset.action[1] == [1, 0]

    morphs_G, _ = right_adjoint_R(D4, C4, (0, 1))
    assert morphs_G == []

    k = trivial_coalgebra(F2)
    morphs_k, _ = right_adjoint_R(D4, k, (0, 1))
    assert len(morphs_k) == 1

    # hom-variant picks up the non-injective morphisms as well
    homs, _ = right_adjoint_R(D4, C4, (0,), embeddings=False)
    assert len(homs) == 2
    homs_G, _ = right_adjoint_R(D4, C4, (0, 1), embeddings=False)
    assert homs_G == []  # no embedding F4 -> F2 at all
    S, _, _ = direct_sum(k, C4)
    homs_S, _ = right_adjoint_R(D4, S, (0, 1), embeddings=False)
    embs_S, _ = right_adjoint_R(D4, S, (0, 1), embeddings=True)
    assert len(homs_S) == 1 and len(embs_S) == 1


def test_unit_examples():
    X = coset_gset(D4, (0,))
    kX = kbar_functor(D4, X)
    _, rep = unit_map(D4, X, kX, right_adjoint(D4, kX.coalgebra))
    assert rep["bijective"] and rep["equivariant"]


def test_adjunction_examples():
    X = coset_gset(D4, (0,))
    assert adjunction_checks(D4, X=X)["ok"]

    k = trivial_coalgebra(F2)
    C4 = dual_coalgebra(pqa(F2, [1, 1, 1]))
    S, _, _ = direct_sum(k, C4)
    rep = adjunction_checks(D4, C=S)
    assert rep["ok"]  # counit image = Et(C) = C here

    delta = Matrix.zeros(F2, 4, 2)
    delta.data[0][0] = 1
    delta.data[1][1] = 1
    delta.data[2][1] = 1
    from coalgkit.coalgebra import Coalgebra

    Dn = Coalgebra(F2, 2, delta, Matrix(F2, 1, 2, [[1, 0]]))
    rep = adjunction_checks(D4, C=Dn)
    assert rep["ok"]  # counit image = span{g} = Et(C), a proper subspace


@pytest.mark.parametrize("datum", ["F4/F2", "F3/F3"])
def test_unit_missing_a_map_is_reported(monkeypatch, datum):
    """One root of one residue polynomial is dropped, so R(kbar[X]) misses a
    map: the unit and the triangle report False instead of raising."""
    import coalgkit.galois as galois

    D = D4 if datum == "F4/F2" else trivial_datum(F3)
    original = galois._roots_in_extension
    calls = []

    def dropping(D, poly):
        calls.append(poly)
        roots = original(D, poly)
        return roots[1:] if len(calls) == 1 else roots

    monkeypatch.setattr(galois, "_roots_in_extension", dropping)
    rep = adjunction_checks(D, X=trivial_gset(D, 3))
    assert rep == {"checks": [("unit-bijective", False), ("unit-equivariant", False),
                              ("triangle-kbar", False)], "ok": False}


def test_right_adjoint_finds_the_roots_of_each_residue_polynomial_once(monkeypatch):
    """Two copies each of G/1 and G/{0,2} over F16/F2 give four residue
    fields but two distinct residue polynomials, of degrees 4 and 2: the
    right adjoint looks for the roots of each once."""
    import coalgkit.galois as galois

    original = galois._roots_in_extension
    degrees = []

    def counting(D, poly):
        degrees.append(poly.degree)
        return original(D, poly)

    monkeypatch.setattr(galois, "_roots_in_extension", counting)
    X = disjoint_union(D16, [coset_gset(D16, H) for H in [(0,), (0,), (0, 2), (0, 2)]])
    assert adjunction_checks(D16, X=X)["ok"]
    assert sorted(degrees) == [2, 4]


# index tuples outside range(|G|): 5 is past the end of the F4/F2 group table,
# and -1 would alias index 0 of the trivial group's
OUT_OF_RANGE = [("F4/F2", fixed_field, (0, 5)), ("F4/F2", coset_gset, (0, 5)),
                ("F2/F2", fixed_field, (0, -1))]


@pytest.mark.parametrize("datum,call,H", OUT_OF_RANGE,
                         ids=[f"{d}-{c.__name__}-{H}" for d, c, H in OUT_OF_RANGE])
def test_subgroup_with_an_index_out_of_range_is_refused(datum, call, H):
    D = D4 if datum == "F4/F2" else trivial_datum(F2)
    assert not D.is_subgroup(H)
    with pytest.raises(NotASubgroup):
        call(D, H)


def test_adjunction_all_data():
    for D in (D4, D8, D9, D16):
        for H in D.subgroups():
            X = coset_gset(D, H)
            assert adjunction_checks(D, X=X)["ok"]


def test_counit_image_with_incompatible_residue():
    # residue F4 does not embed into F8, so the counit must miss that simple
    C4 = dual_coalgebra(pqa(F2, [1, 1, 1]))
    rep = adjunction_checks(D8, C=C4)
    assert not rep["ok"]
    assert ("counit-image-is-etale", False) in rep["checks"]


def test_faithfulness_shadow():
    small = [
        trivial_gset(D4, 1),
        trivial_gset(D4, 2),
        coset_gset(D4, (0,)),
        disjoint_union(D4, [trivial_gset(D4, 1), coset_gset(D4, (0,))]),
    ]
    for X in small:
        for Y in small:
            maps = equivariant_maps(D4, X, Y)
            kX, kY = kbar_functor(D4, X), kbar_functor(D4, Y)
            images = [kbar_on_map(D4, f, kX, kY).matrix for f in maps]
            for a in range(len(images)):
                for b in range(a + 1, len(images)):
                    assert not (images[a] == images[b])


def test_right_adjoint_deterministic_order():
    C4 = dual_coalgebra(pqa(F2, [1, 1, 1]))
    d1 = right_adjoint(D4, C4)
    d2 = right_adjoint(D4, C4)
    assert [m.data for m in d1.maps] == [m.data for m in d2.maps]


def test_order_six_group_lattice():
    # F64/F2: Z/6 with proper subgroups of orders 2 and 3
    D64 = frobenius_galois_datum(2, [1, 1, 0, 0, 0, 0, 1])
    assert [len(H) for H in D64.subgroups()] == [1, 2, 3, 6]
    for H in D64.subgroups():
        assert fixed_field(D64, H).dim == 6 // len(H)
    X = disjoint_union(D64, [coset_gset(D64, H) for H in D64.subgroups()])
    assert X.size == 12
    assert adjunction_checks(D64, X=X)["ok"]


def tower_datum():
    """F16/F4 supplied by hand over the extension base field: L = F4[x]/(q)
    for the first monic irreducible quadratic q, with x -> x^4."""
    from coalgkit.factor import is_irreducible

    F4 = GF(2, [1, 1, 1])
    quad = next(f for a in F4.elements() for b in F4.elements()
                if is_irreducible(f := Polynomial(F4, [a, b, F4.one])))
    L = pqa_field(F4, quad)
    basis = [[F4.one, F4.zero], [F4.zero, F4.one]]
    frob2 = Matrix.from_cols(F4, [L.power(e, 4) for e in basis], 2)
    return GaloisDatum(F4, L, [Matrix.identity(F4, 2), frob2], [[0, 1], [1, 0]])


def test_tower_base_extension_field():
    # F16/F4: fixed fields, functor values and the roots of the nonlinear
    # residue polynomial of L
    D = tower_datum()
    F4, L = D.base, D.L
    assert [fixed_field(D, H).dim for H in D.subgroups()] == [2, 1]
    assert kbar_functor(D, coset_gset(D, (0,))).coalgebra.dim == 2
    assert adjunction_checks(D, X=trivial_gset(D, 2), C=trivial_coalgebra(F4))["ok"]
    R = right_adjoint(D, dual_coalgebra(L))
    assert sorted(m.sort_key() for m in R.maps) == sorted(M.sort_key() for M in D.automorphisms)
    assert R.gset.action == [[0, 1], [1, 0]] and R.image_dims == [2, 2]
    assert adjunction_checks(D, X=coset_gset(D, (0,)), C=dual_coalgebra(L))["ok"]


def pqa_field(field, poly):
    return polynomial_quotient_algebra(field, poly)


def test_empty_gset_and_zero_coalgebra():
    from coalgkit.coalgebra import diagonal_coalgebra

    empty = FiniteGSet(0, [[] for _ in range(2)], D4.table)
    assert kbar_functor(D4, empty).coalgebra.dim == 0
    assert adjunction_checks(D4, X=empty)["ok"]
    Z = diagonal_coalgebra(0, F2)
    assert right_adjoint(D4, Z).gset.size == 0
    assert adjunction_checks(D4, C=Z)["ok"]


# -- pinned bytes of the functor, the right adjoint and the checks ---------------

DATA = {"F4/F2": D4, "F8/F2": D8, "F9/F3": D9, "F16/F2": D16}


def coset_unions(D, max_size=6):
    """Every disjoint union of cosets G/H of total size <= max_size, the empty
    one first, with its parts in the order of `D.subgroups()`."""
    subs = D.subgroups()
    out = []

    def extend(start, parts, size):
        out.append(disjoint_union(D, [coset_gset(D, H) for H in parts]))
        for i in range(start, len(subs)):
            orbit = D.size // len(subs[i])
            if size + orbit <= max_size:
                extend(i, parts + [subs[i]], size + orbit)

    extend(0, [], 0)
    return out


def relabelled(D, X, rng):
    """X with its points renamed by a random permutation, so that the orbits
    interleave."""
    perm = list(range(X.size))
    rng.shuffle(perm)
    action = []
    for g in range(D.size):
        moved = [0] * X.size
        for x in range(X.size):
            moved[perm[x]] = perm[X.action[g][x]]
        action.append(moved)
    return FiniteGSet(X.size, action, D.table)


def galois_gsets(D, seed=3):
    import random

    rng = random.Random(seed)
    unions = coset_unions(D)
    return unions + [relabelled(D, X, rng) for X in unions]


def _right_adjoint_json(R):
    from coalgkit import jsonio

    return {
        "maps": [jsonio.matrix_to_json(m) for m in R.maps],
        "action": R.gset.action,
        "components": R.components,
        "image_dims": R.image_dims,
    }


def _kbar_json(D, X):
    from coalgkit import jsonio

    kX = kbar_functor(D, X)
    return {
        "basis": jsonio.matrix_to_json(kX.basis),
        "mult": jsonio.matrix_to_json(kX.algebra.mult),
        "unit": jsonio.vector_to_json(D.base, kX.algebra.unit),
        "right_adjoint": _right_adjoint_json(right_adjoint(D, kX.coalgebra)),
    }


def galois_coalgebras(D, seed=11):
    """30 corpus coalgebras over the base, then 10 duals of algebras whose
    residue fields all embed into L."""
    import random

    from coalgkit import corpus

    rng = random.Random(seed)
    out = [corpus.random_coalgebra(rng, D.base, 5) for _ in range(30)]
    degrees = [k for k in range(1, D.size + 1) if D.size % k == 0]
    for _ in range(10):
        A = corpus.random_subfield_compatible_algebra(rng, D.base, rng.randint(1, 6), degrees)
        out.append(dual_coalgebra(A))
    return out


# sha256 of the k̄[X] basis, multiplication and unit and of R(k̄[X]) on every
# coset union of size <= 6 (and a relabelling of each), then of the adjunction
# reports and the right adjoints of seeded coalgebras, per datum; recorded
# while k̄[X] was still the kernel of the equivariance equations and the roots
# came from a full factorization over L
GALOIS_SHA256 = {
    "F4/F2": "55f8cca87c9a990107e93f38562b07ea6f195b6323c9964a2a0900f0951f422b",
    "F8/F2": "cfcc32d987c6212f0658a28f2224597a2603b9b847b1e9f83c6f5d23e1ce0efa",
    "F9/F3": "1ed08bcca6ce4ef286d80becbc7c46670524710f2e3f942f86c7d47e60e2cda8",
    "F16/F2": "8e07a4c1d026e838664748f0057f9b13f606f993f57f687b6724ec14b0ccf747",
}


@pytest.mark.parametrize("name", sorted(DATA))
def test_galois_golden_digest(name):
    import hashlib

    from coalgkit import jsonio

    D = DATA[name]
    h = hashlib.sha256()
    for X in galois_gsets(D):
        h.update(jsonio.canonical_json(_kbar_json(D, X)).encode())
    for C in galois_coalgebras(D):
        h.update(jsonio.canonical_json(adjunction_checks(D, C=C)).encode())
        h.update(jsonio.canonical_json(_right_adjoint_json(right_adjoint(D, C))).encode())
    assert h.hexdigest() == GALOIS_SHA256[name]


def _demo_document(name):
    import os

    from coalgkit import jsonio

    path = os.path.join(os.path.dirname(__file__), "..", "demos", "data", name)
    with open(path, encoding="utf-8") as f:
        return jsonio.parse_entity(jsonio.load_document(f.read(), path))


def right_adjoint_R_cases(name):
    """The datum and the coalgebras of the right_adjoint_R digest."""
    if name == "Q(i)":
        return _demo_document("galois_Qi.json"), [_demo_document("Qi_dual.json"), trivial_coalgebra(QQ)]
    return DATA[name], galois_coalgebras(DATA[name])


# sha256 of fixed_field(D, H) (mult, unit, embedding) for every subgroup H,
# then of right_adjoint_R(D, C, H, embeddings) (each morphism's matrix and
# source coalgebra) for every coalgebra C, subgroup H and both embeddings
# values; recorded while every morphism built its own fixed field
RIGHT_ADJOINT_R_SHA256 = {
    "F4/F2": "925953ca517901ce3bd56f6d986be14b1975beaf204803db22c1fb04c2835e6a",
    "F8/F2": "a508422bfd79775b8e5cbbce2937d63a78e796915599d84c9da55de06f07dd71",
    "F9/F3": "5f995a05e560f01d7baa5cc262ab0382bf108b647f98ef3102201d9a7b68b43b",
    "F16/F2": "d43848bd154695c546376b9469a598e012057910806176aeaa2bee599fb6e333",
    "Q(i)": "8f4eb8dd87b50ee63128acbd70270656376dbddd0befb22523a6953920f1e635",
}


@pytest.mark.parametrize("name", sorted(RIGHT_ADJOINT_R_SHA256))
def test_right_adjoint_R_golden_digest(name):
    import hashlib

    from coalgkit import jsonio

    D, coalgebras = right_adjoint_R_cases(name)
    h = hashlib.sha256()
    for H in D.subgroups():
        ff = fixed_field(D, H)
        K = ff.algebra
        h.update(jsonio.canonical_json({
            "subgroup": list(H),
            "mult": jsonio.matrix_to_json(K.mult),
            "unit": jsonio.vector_to_json(D.base, K.unit),
            "embedding": jsonio.matrix_to_json(ff.embedding),
        }).encode())
    for C in coalgebras:
        for H in D.subgroups():
            for embeddings in (True, False):
                morphisms, _ = right_adjoint_R(D, C, H, embeddings)
                h.update(jsonio.canonical_json([
                    {"matrix": jsonio.matrix_to_json(m.matrix), "source": jsonio.coalgebra_to_json(m.source)}
                    for m in morphisms
                ]).encode())
    assert h.hexdigest() == RIGHT_ADJOINT_R_SHA256[name]


def equivariance_kernel(D, X):
    """The functions f: X -> L with f(g.x) = sigma_g(f(x)) for all g and x,
    as the kernel of those linear equations on L^X (slot-major)."""
    from coalgkit.linalg import Subspace

    F = D.base
    n = D.L.dim
    N = n * X.size
    rows = []
    for g in range(D.size):
        M = D.automorphisms[g]
        for x in range(X.size):
            y = X.action[g][x]
            for c in range(n):
                row = [F.zero] * N
                row[y * n + c] = F.add(row[y * n + c], F.one)
                for d in range(n):
                    row[x * n + d] = F.sub(row[x * n + d], M.data[c][d])
                rows.append(row)
    return Matrix.from_rows(F, rows, N).kernel() if rows else Subspace.full(F, N)


@pytest.mark.parametrize("name", sorted(DATA))
def test_kbar_basis_is_the_equivariance_kernel(name):
    D = DATA[name]
    for X in galois_gsets(D, seed=5):
        kX = kbar_functor(D, X)
        assert kX.basis == equivariance_kernel(D, X).basis
        assert kX.basis.rows == X.size  # dim k̄[G/H] = [L^H : k] = |G/H|


@pytest.mark.parametrize("name", sorted(DATA))
def test_roots_in_extension_against_factoring_over_L(name):
    """The roots read off the idempotents of L (x) k[t]/(p) are the roots
    that factoring the lift of p to L finds, for seeded irreducible p of
    degree 1 to 4."""
    import random

    from coalgkit import corpus
    from coalgkit.factor import roots_in_field
    from coalgkit.fields import ExtensionField
    from coalgkit.galois import _roots_in_extension
    from coalgkit.structure import primitive_element

    D = DATA[name]
    F, L = D.base, D.L
    theta, f_L = primitive_element(L)
    ext = ExtensionField(F.p, [int(c) for c in f_L.coeffs])
    rng = random.Random(17)
    for degree in range(1, 5):
        for _ in range(6):
            p = corpus.random_irreducible(rng, F, degree)
            roots = _roots_in_extension(D, p)
            lifted = Polynomial(ext, [ext.from_int(c) for c in p.coeffs])
            expected = {
                tuple(L.eval_poly(Polynomial(F, list(r)), theta)) for r, _ in roots_in_field(lifted)
            }
            assert {tuple(r) for r in roots} == expected
            assert len(roots) == (degree if L.dim % degree == 0 else 0)
            assert all(L.eval_poly(p, r) == [F.zero] * L.dim for r in roots)


@pytest.mark.parametrize("name", sorted(DATA))
def test_roots_in_extension_rejects_a_missing_idempotent_and_a_false_root(name, monkeypatch):
    import coalgkit.galois as galois
    from coalgkit.errors import ComputationError
    from coalgkit.structure import primitive_element

    D = DATA[name]
    _, p = primitive_element(D.L)  # irreducible of degree [L:k], so it splits in L
    assert len(galois._roots_in_extension(D, p)) == p.degree
    split = galois._split_reduced
    # one primitive idempotent of L (x) k[t]/(p) dropped: one root short
    monkeypatch.setattr(galois, "_split_reduced", lambda B: split(B)[1:])
    with pytest.raises(ComputationError, match=f"gave {p.degree - 1} roots"):
        galois._roots_in_extension(D, p)
    # the unit in place of the idempotents: 1 (x) t is no r (x) 1, so the
    # unit is skipped, and over a finite field no root is one count short
    monkeypatch.setattr(galois, "_split_reduced", lambda B: [list(B.unit)])
    with pytest.raises(ComputationError, match="gave 0 roots"):
        galois._roots_in_extension(D, p)
    # zero among the idempotents: r = 0 solves 0 = 0, and p(0) != 0
    monkeypatch.setattr(galois, "_split_reduced", lambda B: [[B.field.zero] * B.dim] + split(B))
    with pytest.raises(ComputationError, match="not a root"):
        galois._roots_in_extension(D, p)


def test_right_adjoint_builds_no_extension_field(monkeypatch):
    """The roots come from linear algebra over the prime field: no
    `ExtensionField` is built for L."""
    from coalgkit.fields import ExtensionField

    coalgebras = {name: galois_coalgebras(D)[30:] for name, D in DATA.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("an ExtensionField was built")

    monkeypatch.setattr(ExtensionField, "__init__", refuse)
    for name, D in DATA.items():
        D = GaloisDatum(D.base, D.L, D.automorphisms, D.table)  # nothing cached
        for C in [dual_coalgebra(D.L)] + coalgebras[name]:
            right_adjoint(D, C)


def test_right_adjoint_rejects_an_action_outside_its_maps(monkeypatch):
    """With one of the two roots of x^2 + x + 1 in F_4 dropped, Frobenius sends
    the remaining map to one that is not computed."""
    import coalgkit.galois as galois
    from coalgkit.errors import ComputationError

    original = galois._roots_in_extension
    monkeypatch.setattr(galois, "_roots_in_extension", lambda D, poly: original(D, poly)[1:])
    with pytest.raises(ComputationError, match="left the computed map set"):
        right_adjoint(D4, dual_coalgebra(pqa(F2, [1, 1, 1])))


# -- the Galois adjunction at k/k on coalgebras that are not split ---------------


def non_split_coalgebras(field, seed=29, count=6):
    """Seeded duals of algebras with a residue field of degree 2 or 3: at
    L = k their residue polynomials of degree > 1 have no root."""
    import random

    from coalgkit import corpus

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        A = corpus.random_subfield_compatible_algebra(rng, field, rng.randint(2, 5), [1, 2, 3])
        C = dual_coalgebra(A)
        if not etale_part(C).is_split():
            out.append(C)
    return out


# sha256 of the adjunction reports and the right adjoints at k/k of
# non_split_coalgebras over F_2, F_3 and Q, recorded while the roots at L = k
# still came from factoring each residue polynomial
TRIVIAL_DATUM_SHA256 = "1f3b8c4bfb01e4e6606353fef7109a1fcfc5a15aa0b98947619216fc8a6b80d4"


def test_trivial_datum_on_non_split_coalgebras_golden_digest():
    import hashlib

    from coalgkit import jsonio

    h = hashlib.sha256()
    for field in (F2, F3, QQ):
        D = trivial_datum(field)
        for C in non_split_coalgebras(field):
            h.update(jsonio.canonical_json(adjunction_checks(D, C=C)).encode())
            h.update(jsonio.canonical_json(_right_adjoint_json(right_adjoint(D, C))).encode())
    assert h.hexdigest() == TRIVIAL_DATUM_SHA256


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "Q"])
def test_roots_at_k_of_an_irreducible_need_no_factoring(field, monkeypatch):
    """A residue polynomial is irreducible, so at L = k one of degree 2 to 4
    has no root, and no factorization is needed to say so."""
    import random

    from coalgkit import corpus, factor
    from coalgkit.galois import _roots_in_extension

    rng = random.Random(31)
    D = trivial_datum(field)
    polys = [corpus.random_irreducible(rng, field, degree) for degree in (2, 3, 4) for _ in range(4)]

    def refuse(*args, **kwargs):
        raise AssertionError("a residue polynomial was factored at L = k")

    monkeypatch.setattr(factor, "factor_polynomial", refuse)
    for p in polys:
        assert _roots_in_extension(D, p) == []


# -- the same root path over Q and over an F_q tower ----------------------------


def rational_datum(modulus, images):
    """Q[x]/(modulus) with the automorphisms x -> image (integer coefficient
    lists, constant first), each matrix's columns the powers of the image;
    the table is read off the products of the matrices."""
    L = pqa(QQ, modulus)
    autos = []
    for image in images:
        y = [QQ.from_int(c) for c in image] + [QQ.zero] * (L.dim - len(image))
        autos.append(Matrix.from_cols(QQ, [L.power(y, k) for k in range(L.dim)], L.dim))
    table = [[next(k for k, M in enumerate(autos) if M == A @ B) for B in autos] for A in autos]
    return GaloisDatum(QQ, L, autos, table)


# L = Q[x]/(f) with its automorphisms x -> sigma(x), the generators of L as
# sympy extensions, and monic residue polynomials irreducible over Q: for
# Q(sqrt 2, sqrt 3), x = sqrt 2 + sqrt 3 has x^3 - 10x = sqrt 2 - sqrt 3
RATIONAL = {
    "Q(i)": ([1, 0, 1], [[0, 1], [0, -1]], ["I"]),
    "Q(sqrt2)": ([-2, 0, 1], [[0, 1], [0, -1]], ["sqrt(2)"]),
    "Q(zeta3)": ([1, 1, 1], [[0, 1], [-1, -1]], ["sqrt(-3)"]),
    "Q(sqrt2,sqrt3)": ([1, 0, -10, 0, 1], [[0, 1], [0, -1], [0, -10, 0, 1], [0, 10, 0, -1]],
                       ["sqrt(2)", "sqrt(3)"]),
}
RESIDUES = [[1, 0, 1], [-2, 0, 1], [-3, 0, 1], [3, 0, 1], [1, 1, 1], [-6, 0, 1], [-2, 0, 0, 1],
            [1, 0, 0, 0, 1], [1, 0, -10, 0, 1], [5, 1]]
RATIONAL_DATA = {name: rational_datum(f, images) for name, (f, images, _) in RATIONAL.items()}


@pytest.mark.parametrize("name", sorted(RATIONAL))
def test_rational_roots_against_sympy(name):
    """Every root is a root, and there are as many as sympy finds linear
    factors of p over L."""
    sympy = pytest.importorskip("sympy", reason="sympy is not installed: Q root cross-check skipped")
    from coalgkit.galois import _roots_in_extension

    D = RATIONAL_DATA[name]
    t = sympy.Symbol("t")
    extension = [sympy.sympify(g) for g in RATIONAL[name][2]]
    for ints in RESIDUES:
        p = Polynomial.from_ints(QQ, ints)
        roots = _roots_in_extension(D, p)
        assert all(D.L.eval_poly(p, r) == [QQ.zero] * D.L.dim for r in roots)
        assert len({tuple(r) for r in roots}) == len(roots)
        expr = sum(c * t**k for k, c in enumerate(ints))
        _, factors = sympy.factor_list(expr, t, extension=extension)
        assert len(roots) == sum(1 for g, _ in factors if sympy.degree(g, t) == 1), ints


@pytest.mark.parametrize("name", sorted(RATIONAL))
def test_rational_unit_on_every_small_gset(name):
    """The unit is bijective and equivariant (and the kbar triangle holds) on
    every G-set of size <= 4, and on a relabelling of each."""
    import random

    D = RATIONAL_DATA[name]
    rng = random.Random(7)
    unions = coset_unions(D, max_size=4)
    for X in unions + [relabelled(D, X, rng) for X in unions]:
        report = adjunction_checks(D, X=X)
        assert report["ok"], report


# subfields of each L, by defining polynomials over Q
SUBFIELDS = {
    "Q(i)": [[1, 0, 1]],
    "Q(sqrt2)": [[-2, 0, 1]],
    "Q(zeta3)": [[1, 1, 1], [3, 0, 1]],
    "Q(sqrt2,sqrt3)": [[-2, 0, 1], [-3, 0, 1], [-6, 0, 1], [1, 0, -10, 0, 1]],
}


@pytest.mark.parametrize("name", sorted(RATIONAL))
def test_rational_counit_on_seeded_coalgebras(name):
    """The counit checks pass on seeded duals of conjugated products of
    K[t]/(f^e), K = Q or a subfield of L given by f."""
    import random

    from coalgkit import corpus
    from coalgkit.structure import product_algebra

    D = RATIONAL_DATA[name]
    rng = random.Random(13)
    for _ in range(6):
        parts = []
        for _ in range(rng.randint(1, 3)):
            f = rng.choice([[rng.randint(-3, 3), 1]] + SUBFIELDS[name])
            e = rng.randint(1, 2) if len(f) <= 3 else 1
            parts.append(polynomial_quotient_algebra(QQ, Polynomial.from_ints(QQ, f) ** e))
        A = product_algebra(QQ, parts)
        A = corpus.conjugate_algebra(A, corpus.random_invertible(rng, QQ, A.dim))
        report = adjunction_checks(D, C=dual_coalgebra(A))
        assert report["ok"], report


def test_tower_roots_of_every_quadratic_against_evaluation():
    """F_16/F_4: the roots of each of the 6 monic irreducible quadratics over
    F_4 are the elements of L at which it vanishes."""
    import itertools

    from coalgkit.factor import is_irreducible
    from coalgkit.galois import _roots_in_extension

    F4 = GF(2, [1, 1, 1])
    quadratics = [Polynomial(F4, [a, b, F4.one]) for a in F4.elements() for b in F4.elements()]
    quadratics = [f for f in quadratics if is_irreducible(f)]
    assert len(quadratics) == 6
    D = tower_datum()
    L = D.L
    elements = [list(v) for v in itertools.product(F4.elements(), repeat=2)]
    assert len(elements) == 16
    for f in quadratics:
        expected = {tuple(v) for v in elements if all(F4.is_zero(c) for c in L.eval_poly(f, v))}
        roots = _roots_in_extension(D, f)
        assert len(expected) == 2 and len(roots) == 2
        assert {tuple(r) for r in roots} == expected


def test_rational_roots_respect_the_degree_cap(monkeypatch):
    """The split of L (x) Q[t]/(t^4 - 10t^2 + 1), of dimension 16, factors
    minimal polynomials of degree 6 and 8: below them the cap is hit."""
    from coalgkit import factor
    from coalgkit.errors import DegreeCapExceeded
    from coalgkit.galois import _roots_in_extension

    D = RATIONAL_DATA["Q(sqrt2,sqrt3)"]
    p = Polynomial.from_ints(QQ, [1, 0, -10, 0, 1])
    assert len(_roots_in_extension(D, p)) == 4
    monkeypatch.setattr(factor, "DEFAULT_DEGREE_CAP", 5)
    with pytest.raises(DegreeCapExceeded):
        _roots_in_extension(D, p)


def kbar_repr_digest(D):
    """sha256 of the repr, entry types included, of the k̄[X] basis,
    multiplication, unit and coproduct on every set of `galois_gsets(D)`."""
    import hashlib

    h = hashlib.sha256()
    for X in galois_gsets(D):
        kX = kbar_functor(D, X)
        for part in (kX.basis.data, kX.algebra.mult.data, kX.algebra.unit, kX.coalgebra.delta.data):
            h.update(repr(part).encode())
    return h.hexdigest()


# recorded while k̄[X] was spanned by `Subspace.from_sparse` and multiplied
# slot by slot over each orbit; the repr sees what JSON does not: Fraction
# or int entries over Q, tuples over F_4
KBAR_REPR_SHA256 = {
    "F16/F4": "93ca4dc3c69c0b83c6ffbb5b7028df83461d30028e6211ccade4d4a92a4218b3",
    "Q(i)": "3f6eff6141deaadb246600f96009f05c7ef671614bd79c740ee4123e9e197e78",
    "Q(sqrt2)": "434a884cbe438b725fe49707f867428f87e0dfc221dcfd65e91d6e1f20b7a815",
    "Q(sqrt2,sqrt3)": "d01a5ceefda8f08f915b976726e27ad8e33e26d410bb23d53f441272b8b6a334",
    "Q(zeta3)": "1eb897f120c42c28fe4479ebf0a8d0a5cf5af10b71835b16cd70d16e9fdfe99f",
}


@pytest.mark.parametrize("name", sorted(KBAR_REPR_SHA256))
def test_kbar_repr_golden_digest(name):
    D = tower_datum() if name == "F16/F4" else RATIONAL_DATA[name]
    assert kbar_repr_digest(D) == KBAR_REPR_SHA256[name]


# Q[x]/(x^2), Q x Q and F_3 x F_3, with x -> -x: a valid algebra, group table
# and automorphism with the right fixed space, but the carrier is not a field
NON_FIELDS = {"Q[x]/(x^2)": (QQ, [0, 0, 1]), "Q[x]/(x^2-1)": (QQ, [-1, 0, 1]),
              "F3[x]/(x^2-1)": (F3, [-1, 0, 1])}


@pytest.mark.parametrize("name", sorted(NON_FIELDS))
def test_datum_rejects_a_carrier_that_is_not_a_field(name, tmp_path):
    from coalgkit import cli, jsonio

    field, modulus = NON_FIELDS[name]
    L = pqa(field, modulus)
    autos = [Matrix.identity(field, 2), Matrix.from_int_rows(field, [[1, 0], [0, -1]])]
    with pytest.raises(ValidationError, match="extension carrier is not a field"):
        GaloisDatum(field, L, autos, [[0, 1], [1, 0]])
    path = tmp_path / "galois.json"
    document = {
        "schema": jsonio.SCHEMA,
        "type": "galois",
        "base": field.to_json(),
        "extension": {"dim": 2, "mult": jsonio.matrix_to_json(L.mult), "unit": jsonio.vector_to_json(field, L.unit)},
        "automorphisms": [jsonio.matrix_to_json(M) for M in autos],
        "table": [[0, 1], [1, 0]],
    }
    path.write_text(jsonio.canonical_json(document), encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 3
