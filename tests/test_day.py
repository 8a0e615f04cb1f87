import hashlib
import random

import pytest

from coalgkit import cli, jsonio, suites

from coalgkit.coalgebra import polynomial_quotient_algebra, subalgebra_on_basis
from coalgkit.errors import ComputationError, ValidationError
from coalgkit.fields import GF, QQ
from coalgkit.linalg import Matrix, Subspace
from coalgkit.polys import Polynomial
from coalgkit.day import (
    DayCoalgebra,
    DayPresheaf,
    DayTensor,
    LinearMonoidalCategory,
    NatTransform,
    associator_iso,
    convolve_nat,
    cyclic_group_category,
    d_level_nat,
    day_convolve,
    day_direct_sum,
    group_discrete_category,
    identity_nat,
    internal_hom,
    is_day_morphism,
    nat_space,
    one_object_algebra_category,
    poset_max_category,
    representable,
    representable_day_coalgebra,
    symmetry_iso,
    unit_day_coalgebra,
    unit_left_iso,
    unit_right_iso,
    yoneda_iso,
)
from coalgkit.dayclosure import SubPresheaf, pure_closure

F2 = GF(2)
F3 = GF(3)

Z2 = cyclic_group_category(F2, 2)
Z3 = cyclic_group_category(F3, 3)
P2 = poset_max_category(F2, 2)
OB = one_object_algebra_category(
    F2, polynomial_quotient_algebra(F2, Polynomial.from_ints(F2, [0, 0, 1]))
)
CATS = [("Z2", Z2), ("Z3", Z3), ("poset2", P2), ("dualnum", OB)]


def identity_actions(cat, dims):
    actions = {}
    for (a, b, i) in cat.all_basis_mors():
        actions[(a, b, i)] = Matrix.identity(cat.field, dims[a])
    return actions


def graded_presheaf(cat, dims):
    return DayPresheaf(cat, dims, identity_actions(cat, dims))


def graded_dual_numbers(cat=Z2):
    fld = cat.field
    F = graded_presheaf(cat, [1, 1])
    conv = DayTensor(F, F)
    mats = [
        Matrix.from_cols(fld, [conv.insert(0, 0, 0, [fld.one], [fld.one], [fld.one])], conv.dim(0))
    ]
    dt1 = conv.insert(1, 0, 1, [fld.one], [fld.one], [fld.one])
    dt2 = conv.insert(1, 1, 0, [fld.one], [fld.one], [fld.one])
    mats.append(Matrix.from_cols(fld, [[fld.add(a, b) for a, b in zip(dt1, dt2)]], conv.dim(1)))
    delta = NatTransform(F, conv.presheaf, mats)
    h1 = representable(cat, cat.unit)
    eps = NatTransform(F, h1, [Matrix.from_int_rows(fld, [[1]]), Matrix.zeros(fld, 0, 1)])
    return DayCoalgebra(F, delta, eps, conv)


def test_category_axioms():
    for name, cat in CATS:
        assert cat.validate() == [], name
    with pytest.raises(ValidationError):
        group_discrete_category(F2, [[0, 1, 2], [1, 2, 0], [2, 1, 0]])  # not a group table


def test_representables_valid():
    for name, cat in CATS:
        for X in range(cat.size):
            assert representable(cat, X).validate() == [], (name, X)


def test_yoneda_monoidality_all_pairs():
    for name, cat in CATS:
        for X in range(cat.size):
            for Y in range(cat.size):
                T = day_convolve(representable(cat, X), representable(cat, Y))
                fwd, back = yoneda_iso(T, X, Y)
                assert fwd.is_natural() and back.is_natural(), (name, X, Y)
                assert fwd.compose(back).is_identity(), (name, X, Y)
                assert back.compose(fwd).is_identity(), (name, X, Y)


def test_graded_convolution_dimension_oracle():
    rng = random.Random(51)
    for n, cat in ((2, Z2), (3, Z3)):
        for _ in range(10):
            F = graded_presheaf(cat, [rng.randint(0, 3) for _ in range(n)])
            G = graded_presheaf(cat, [rng.randint(0, 3) for _ in range(n)])
            T = day_convolve(F, G)
            for z in range(n):
                expected = sum(F.dims[x] * G.dims[(z - x) % n] for x in range(n))
                assert T.dim(z) == expected


def test_unit_laws():
    rng = random.Random(52)
    for name, cat in CATS:
        h1 = representable(cat, cat.unit)
        for _ in range(4):
            F = _random_presheaf(cat, rng)
            TR = day_convolve(F, h1)
            lam = unit_right_iso(TR)
            assert lam.is_natural()
            assert all(
                lam.at(U).rank() == F.dims[U] == TR.dim(U) for U in range(cat.size)
            ), name
            TL = day_convolve(h1, F)
            rho = unit_left_iso(TL)
            assert rho.is_natural()
            assert all(
                rho.at(U).rank() == F.dims[U] == TL.dim(U) for U in range(cat.size)
            ), name


def _random_presheaf(cat, rng, maxdim=2):
    for _ in range(40):
        dims = [rng.randint(0, maxdim) for _ in range(cat.size)]
        actions = {}
        for (a, b, i) in cat.all_basis_mors():
            if a == b and cat.hom_dim(a, a) == 1:
                actions[(a, b, i)] = Matrix.identity(cat.field, dims[a])
            else:
                actions[(a, b, i)] = Matrix(
                    cat.field,
                    dims[a],
                    dims[b],
                    [
                        [cat.field.random(rng) for _ in range(dims[b])]
                        for _ in range(dims[a])
                    ],
                )
        F = DayPresheaf(cat, dims, actions)
        if not F.validate():
            return F
    return representable(cat, cat.unit)


def test_symmetry_involution_and_naturality():
    rng = random.Random(53)
    for name, cat in CATS:
        for _ in range(4):
            F = _random_presheaf(cat, rng)
            G = _random_presheaf(cat, rng)
            TFG, TGF = day_convolve(F, G), day_convolve(G, F)
            s1 = symmetry_iso(TFG, TGF)
            s2 = symmetry_iso(TGF, TFG)
            assert s1.is_natural() and s2.is_natural(), name
            assert s2.compose(s1).is_identity(), name


def test_associator_on_random_triples():
    rng = random.Random(54)
    for name, cat in CATS:
        for _ in range(2):
            F = _random_presheaf(cat, rng)
            G = _random_presheaf(cat, rng)
            H = _random_presheaf(cat, rng)
            TFG = day_convolve(F, G)
            TFG_H = day_convolve(TFG.presheaf, H)
            TGH = day_convolve(G, H)
            TF_GH = day_convolve(F, TGH.presheaf)
            assoc = associator_iso(TFG, TFG_H, TGH, TF_GH)
            assert assoc.is_natural(), name
            for U in range(cat.size):
                assert TFG_H.dim(U) == TF_GH.dim(U)
                assert assoc.at(U).rank() == TFG_H.dim(U), name


def test_convolution_presheaf_functoriality():
    """the induced restriction maps of a convolution satisfy functoriality
    (composites through the canonical quotient coordinates)"""
    rng = random.Random(60)
    for name, cat in CATS:
        for _ in range(4):
            F = _random_presheaf(cat, rng)
            G = _random_presheaf(cat, rng)
            T = day_convolve(F, G)
            assert T.presheaf.validate() == [], name
            IH = internal_hom(F, G)
            assert IH.presheaf.validate() == [], name


def test_convolution_additive_in_each_variable():
    from coalgkit.day import direct_sum_presheaf

    rng = random.Random(55)
    for name, cat in CATS[:3]:
        F1 = _random_presheaf(cat, rng)
        F2_ = _random_presheaf(cat, rng)
        G = _random_presheaf(cat, rng)
        lhs = day_convolve(direct_sum_presheaf(F1, F2_), G)
        for U in range(cat.size):
            assert lhs.dim(U) == day_convolve(F1, G).dim(U) + day_convolve(F2_, G).dim(U)


def test_internal_hom_unit_law():
    G = graded_presheaf(Z2, [2, 1])
    IH = internal_hom(representable(Z2, Z2.unit), G)
    assert IH.presheaf.dims == G.dims
    # the poset analogue: [h_unit, G] = G
    Gp = _random_presheaf(P2, random.Random(56))
    IHp = internal_hom(representable(P2, P2.unit), Gp)
    assert IHp.presheaf.dims == Gp.dims


def test_internal_hom_poset_end_by_hand():
    # [h_X, G](U) = Nat(h_X, G(U (x) -)) = G(U (x) X) by the Yoneda lemma;
    # on the chain with max and X = top this is G(top) at every object
    G = _random_presheaf(P2, random.Random(57))
    IH = internal_hom(representable(P2, 1), G)
    assert IH.presheaf.dims == [G.dims[1], G.dims[1]]
    F = _random_presheaf(P2, random.Random(58))
    T = day_convolve(F, representable(P2, 1))
    assert len(nat_space(T.presheaf, G)) == len(nat_space(F, IH.presheaf))


def test_hom_tensor_dimension_identity():
    rng = random.Random(59)
    done = 0
    while done < 50:
        cat = [Z2, Z3, P2, OB][done % 4]
        F = _random_presheaf(cat, rng)
        G = _random_presheaf(cat, rng)
        H = _random_presheaf(cat, rng)
        T = day_convolve(F, G)
        IH = internal_hom(G, H)
        assert len(nat_space(T.presheaf, H)) == len(nat_space(F, IH.presheaf))
        done += 1


def test_unit_day_coalgebra_valid():
    for name, cat in CATS:
        assert unit_day_coalgebra(cat).validate() == [], name


def test_graded_coalgebra_valid_and_morphisms():
    GD = graded_dual_numbers()
    assert GD.validate() == []
    ident = identity_nat(GD.presheaf)
    assert is_day_morphism(GD, GD, ident)
    collapse = NatTransform(
        GD.presheaf, GD.presheaf, [Matrix.identity(F2, 1), Matrix.zeros(F2, 1, 1)]
    )
    assert is_day_morphism(GD, GD, collapse)
    swap_fail = NatTransform(
        GD.presheaf, GD.presheaf, [Matrix.zeros(F2, 1, 1), Matrix.identity(F2, 1)]
    )
    assert not is_day_morphism(GD, GD, swap_fail)


def test_convolution_ring_dual_coalgebra():
    # one-dimensional grading pieces with delta y_g = sum_{ab=g} y_a (x) y_b
    for cat in (Z2, Z3):
        fld = cat.field
        n = cat.size
        F = graded_presheaf(cat, [1] * n)
        conv = DayTensor(F, F)
        mats = []
        for g in range(n):
            acc = [fld.zero] * conv.dim(g)
            for a in range(n):
                for b in range(n):
                    if cat.tensor_obj[a][b] == g:
                        ins = conv.insert(g, a, b, [fld.one], [fld.one], [fld.one])
                        acc = [fld.add(u, v) for u, v in zip(acc, ins)]
            mats.append(Matrix.from_cols(fld, [acc], conv.dim(g)))
        delta = NatTransform(F, conv.presheaf, mats)
        h1 = representable(cat, cat.unit)
        eps_mats = [
            Matrix.from_int_rows(fld, [[1 if g == cat.unit else 0]])
            if cat.hom_dim(g, cat.unit)
            else Matrix.zeros(fld, 0, 1)
            for g in range(n)
        ]
        eps = NatTransform(F, h1, eps_mats)
        assert DayCoalgebra(F, delta, eps, conv).validate() == []


def test_day_direct_sum_coalgebra():
    S = day_direct_sum(unit_day_coalgebra(Z2), graded_dual_numbers())
    assert S.validate() == []
    assert S.presheaf.dims == [2, 1]


def test_representable_day_coalgebra_poset():
    RC = representable_day_coalgebra(P2, 0, P2.id_mor(0))
    assert RC.validate() == []
    with pytest.raises(ValidationError):
        representable_day_coalgebra(Z2, 1, Z2.id_mor(1))  # g (x) g = e != g


def test_convolve_nat_functorial():
    GD = graded_dual_numbers()
    ident = identity_nat(GD.presheaf)
    both = convolve_nat(GD.conv, GD.conv, ident, ident)
    assert both.is_identity()


# Test categories over Q and F_4.  The relations of a cyclic group category
# are all identity (x) identity and cancel to zero; those of the posets and
# of the dual numbers are not.
F4 = GF(2, [1, 1, 1])
GENERIC_CATS = [
    ("Z2/Q", cyclic_group_category(QQ, 2)),
    ("Z3/F4", cyclic_group_category(F4, 3)),
    ("poset2/Q", poset_max_category(QQ, 2)),
    ("poset3/F4", poset_max_category(F4, 3)),
    ("dualnum/Q", one_object_algebra_category(
        QQ, polynomial_quotient_algebra(QQ, Polynomial.from_ints(QQ, [0, 0, 1])))),
]


def _seeded_pairs(cats):
    """Per category: 15 seeded random presheaf pairs and (top, top)."""
    rng = random.Random(11)
    for name, cat in cats:
        top = representable(cat, cat.size - 1)
        pairs = [
            (suites._random_day_presheaf(cat, rng, 3), suites._random_day_presheaf(cat, rng, 3))
            for _ in range(15)
        ] + [(top, top)]
        for F, G in pairs:
            yield name, cat, F, G


def _day_outputs_digest(cats):
    h = hashlib.sha256()
    for name, cat, F, G in _seeded_pairs(cats):
        fld = cat.field
        h1 = representable(cat, cat.unit)
        IH = internal_hom(F, G)
        doc = {
            "hom": jsonio.day_presheaf_to_json(IH.presheaf, category_name=name),
            "offsets": IH.offsets,
            "bases": [[jsonio.vector_to_json(fld, v) for v in B.vectors()] for B in IH.bases],
            "nat": [[jsonio.matrix_to_json(m) for m in t.mats] for t in nat_space(F, G)],
            "rho": [jsonio.matrix_to_json(m) for m in unit_right_iso(day_convolve(F, h1)).mats],
            "lam": [jsonio.matrix_to_json(m) for m in unit_left_iso(day_convolve(h1, G)).mats],
        }
        h.update(jsonio.canonical_json(doc).encode())
    return h.hexdigest()


# sha256 of the canonical internal homs, natural transformation spaces and
# unit isomorphisms of a seeded set of random presheaves (recorded before the
# naturality builder and the unit isomorphisms were merged; the Q and F_4
# digest before the sparse relation builder)
DAY_OUTPUTS_SHA256 = "a5a6679dd1831a132cc2bea744a6edb4157633e35c4bd2e43a2d2d4be6f36e79"
DAY_OUTPUTS_GENERIC_SHA256 = "163de84f1c9412ee3cc54d39cd1723dd9cf49f61d6ea3f6e513d8fd328aa9aec"


def test_day_outputs_golden_digest():
    assert _day_outputs_digest(suites._day_categories()) == DAY_OUTPUTS_SHA256


def test_day_outputs_golden_digest_over_q_and_f4():
    assert _day_outputs_digest(GENERIC_CATS) == DAY_OUTPUTS_GENERIC_SHA256


def _d_vector(T, U, X, Y, phi, svec, tvec):
    """phi (x) svec (x) tvec in D(U) as an {index: value} map, read from the
    block layout of T."""
    fld = T.category.field
    vec = {}
    if (X, Y) not in T.block_index[U]:
        return vec
    _, _, off, _, fd, gd = T.blocks[U][T.block_index[U][(X, Y)]]
    for pi, pv in enumerate(phi):
        for s, sv in enumerate(svec):
            for t, tv in enumerate(tvec):
                c = fld.mul(pv, fld.mul(sv, tv))
                if not fld.is_zero(c):
                    idx = off + (pi * fd + s) * gd + t
                    vec[idx] = fld.add(vec.get(idx, fld.zero), c)
    return {i: v for i, v in vec.items() if not fld.is_zero(v)}


def _two_sided_relations(T, U):
    """Reference: the coend relation of D(U) for every pair of basis
    morphisms alpha: Xp -> X, beta: Yp -> Y and basis phi, s, t,
    ((alpha (x) beta) o phi) (x) s (x) t - phi (x) F(alpha)(s) (x) G(beta)(t),
    as {index: value} maps."""
    cat, F, G = T.category, T.F, T.G
    fld = cat.field
    cols = []
    for (Xp, X, ai) in cat.all_basis_mors():
        alpha = cat.basis_mor(Xp, X, ai)
        for (Yp, Y, bi) in cat.all_basis_mors():
            beta = cat.basis_mor(Yp, Y, bi)
            tm = cat.tensor_mor_pair(alpha, beta)
            src = cat.tensor_obj[Xp][Yp]
            for pi in range(cat.hom_dim(U, src)):
                phi = cat.basis_mor(U, src, pi)
                chi = cat.compose_mor(tm, phi)[2]
                for s in range(F.dims[X]):
                    svec = [fld.one if i == s else fld.zero for i in range(F.dims[X])]
                    for t in range(G.dims[Y]):
                        tvec = [fld.one if i == t else fld.zero for i in range(G.dims[Y])]
                        col = _d_vector(T, U, X, Y, chi, svec, tvec)
                        back = _d_vector(T, U, Xp, Yp, phi[2], F.action(Xp, X, ai).apply(svec),
                                         G.action(Yp, Y, bi).apply(tvec))
                        for i, v in back.items():
                            col[i] = fld.sub(col.get(i, fld.zero), v)
                        cols.append({i: v for i, v in col.items() if not fld.is_zero(v)})
    return cols


def _random_matrix(fld, rng, rows, cols):
    return Matrix(fld, rows, cols, [[fld.random(rng) for _ in range(cols)] for _ in range(rows)])


def _nilpotent_presheaf(cat, rng):
    """A random module over k[x]/(x^n) on one object: x acts by a random
    strictly upper triangular S with S^n = 0, in a random basis."""
    fld, n = cat.field, cat.hom_dim(0, 0)
    d = rng.randint(0, 3)
    while True:
        S = Matrix(fld, d, d, [[fld.random(rng) if j > i else fld.zero for j in range(d)]
                               for i in range(d)])
        powers = [Matrix.identity(fld, d)]
        for _ in range(n):
            powers.append(powers[-1] @ S)
        if powers[n].is_zero():
            break
    while True:
        P = _random_matrix(fld, rng, d, d)
        if P.rank() == d:
            break
    Pinv = P.inverse() if d else P
    return DayPresheaf(cat, [d], {(0, 0, j): P @ powers[j] @ Pinv for j in range(n)})


def _nilpotent_pairs():
    """15 seeded pairs of modules with x acting nilpotently
    (`_nilpotent_presheaf`) on each of k[x]/(x^2) and k[x]/(x^3) over F_2,
    F_3 and Q, where `suites._random_day_presheaf` mostly draws zero."""
    rng = random.Random(13)
    for fname, fld in (("F2", F2), ("F3", F3), ("Q", QQ)):
        for n in (2, 3):
            cat = one_object_algebra_category(
                fld, polynomial_quotient_algebra(fld, Polynomial.from_ints(fld, [0] * n + [1])))
            for _ in range(15):
                yield f"x^{n}/{fname}", cat, _nilpotent_presheaf(cat, rng), _nilpotent_presheaf(cat, rng)


# k[x]/(x^2) over F_3 in the basis 1 + x, x: its identity 1 = (1, -1) is
# not a basis morphism
SKEW_DUALNUM = ("skew-dualnum/F3", one_object_algebra_category(
    F3, subalgebra_on_basis(
        polynomial_quotient_algebra(F3, Polynomial.from_ints(F3, [0, 0, 1])), [[1, 1], [0, 1]]
    )[0]))


def test_day_relations_span_the_two_sided_family():
    """The one-sided relations (alpha, id) and (id, beta) span the same
    subspace of D(U) as the relations of all pairs of basis morphisms, also
    on modules over k[x]/(x^n) where x does not act by a scalar."""
    cats = suites._day_categories() + GENERIC_CATS + [SKEW_DUALNUM]
    assert SKEW_DUALNUM[1].id_mor(0)[2] == (1, 2)
    nilpotent = list(_nilpotent_pairs())
    modules = [P for _, _, F, G in nilpotent for P in (F, G)]
    assert sum(1 for P in modules if P.total_dim()) > len(modules) / 2
    for name, cat, F, G in list(_seeded_pairs(cats)) + nilpotent:
        T = DayTensor(F, G)
        for U in range(cat.size):
            fld, amb = cat.field, T.d_dims[U]
            built = [
                {i: v for i, v in enumerate(T.relations[U].col(j)) if not fld.is_zero(v)}
                for j in range(T.relations[U].cols)
            ]
            assert Subspace.from_sparse(fld, amb, built) == Subspace.from_sparse(
                fld, amb, _two_sided_relations(T, U)
            ), (name, U)


# sha256 of repr(relations[U]) and relation_tags[U] of every DayTensor(F, G)
# above, recorded when the relations were cut to the one-sided pairs
DAY_RELATIONS_SHA256 = "f30601dfd6874ef1c95610fc0ea3f3565de600f0f63e93da0d290ba269756b6c"


def test_day_one_sided_relation_data_golden_digest():
    h = hashlib.sha256()
    for name, cat, F, G in _seeded_pairs(suites._day_categories() + GENERIC_CATS):
        T = DayTensor(F, G)
        for U in range(cat.size):
            h.update(f"{name} {U} {T.relations[U]!r} {T.relation_tags[U]!r}\n".encode())
    assert h.hexdigest() == DAY_RELATIONS_SHA256


def test_day_quotient_does_not_depend_on_the_relation_order():
    """DayTensor reduces its relation columns sparsest first; the free
    indices and projection columns it reads off them are those of the
    columns in build order and in a seeded shuffle, over F_2, F_3 and Q
    (Q through _FieldMethods.sparse_rref).  The relation columns and tags
    it keeps stay in build order, which the purity closure reads by index."""
    from coalgkit.day import _quotient_cols
    from coalgkit.linalg import row_kernel

    rng = random.Random(23)
    cats = suites._day_categories() + [c for c in GENERIC_CATS if c[1].field == QQ] + [SKEW_DUALNUM]
    fields, reordered = set(), 0
    for name, cat, F, G in list(_seeded_pairs(cats)) + list(_nilpotent_pairs()):
        fld = cat.field
        fields.add(fld)
        T = DayTensor(F, G)
        terms = T._relation_terms()
        for U in range(cat.size):
            tags, cols = T._relation_matrix(U, terms)
            assert T.relation_tags[U] == tags and T._relation_cols[U] == cols, (name, U)
            shuffled = list(cols)
            rng.shuffle(shuffled)
            by_length = sorted(cols, key=len)
            reordered += by_length != cols
            for order in (cols, by_length, shuffled):
                rows = row_kernel(fld).sparse_rref(fld, T.d_dims[U], order)
                assert _quotient_cols(fld, T.d_dims[U], rows) == (T.free[U], T.qcols[U]), (name, U)
    assert fields == {F2, F3, QQ} and reordered > 50


def test_basis_morphism_acts_by_its_stored_matrix(monkeypatch):
    """action_of a basis morphism with coefficient 1 is the stored matrix
    itself, with no field arithmetic; on k[x]/(x^2) over F_3 in the basis
    1 + x, x the identity (1, 2) still acts by the sum of the scaled
    actions, a single coefficient 2 by the scaled action and the zero
    morphism by zero."""
    from coalgkit.fields import PrimeField

    name, cat = SKEW_DUALNUM
    pairs = [(F, G) for _, _, F, G in _seeded_pairs(suites._day_categories())][::8]
    pairs.append((representable(cat, 0), representable(cat, 0)))
    presheaves = [P for F, G in pairs
                  for P in (F, G, internal_hom(F, G).presheaf, day_convolve(F, G).presheaf)]
    stored = [(P, P.category.basis_mor(*key), M) for P in presheaves for key, M in P.actions.items()]
    ops = []

    def counted(op, method):
        def wrapper(self, *args):
            ops.append(op)
            return method(self, *args)
        return wrapper

    for op in ("add", "sub", "neg", "mul", "div", "inv"):  # the ops of fields.ops.fp
        monkeypatch.setattr(PrimeField, op, counted(op, getattr(PrimeField, op)))
    assert all(P.action_of(f) is M for P, f, M in stored) and len(stored) > 50
    assert ops == []
    monkeypatch.undo()
    for P in presheaves[-4:]:
        first, second = P.action(0, 0, 0), P.action(0, 0, 1)
        assert not second.is_zero() and cat.id_mor(0) == (0, 0, (1, 2))
        assert P.action_of(cat.id_mor(0)) == first + second.scale(2)
        assert P.action_of((0, 0, (2, 0))) == first.scale(2)
        assert P.action_of((0, 0, (0, 0))) == Matrix.zeros(F3, P.dims[0], P.dims[0])


def _matrices_json(mats):
    return [jsonio.matrix_to_json(m) for m in mats]


def _quotient_digest():
    """sha256 of the quotient every DayTensor(F, G) above computes: the
    convolution's dims and actions, its projections and sections, and the
    matrices of the symmetry isomorphism and of convolve_nat(id, id)."""
    h = hashlib.sha256()
    for name, cat, F, G in _seeded_pairs(suites._day_categories() + GENERIC_CATS):
        T = DayTensor(F, G)
        doc = {
            "presheaf": jsonio.day_presheaf_to_json(T.presheaf, category_name=name),
            "projections": _matrices_json(T.projections),
            "sections": _matrices_json(T.sections),
            "symmetry": _matrices_json(symmetry_iso(T, DayTensor(G, F)).mats),
            "id": _matrices_json(convolve_nat(T, T, identity_nat(F), identity_nat(G)).mats),
        }
        h.update(jsonio.canonical_json(doc).encode())
    return h.hexdigest()


# recorded before the quotient was taken from the sparse relation columns
DAY_QUOTIENT_SHA256 = "9a20b8855de9289605c6b5a4383d20c853678372a28e0ea0e14271bd4bd6dc32"


def test_day_quotient_golden_digest():
    assert _quotient_digest() == DAY_QUOTIENT_SHA256


def _nilpotent_digest():
    """sha256 of what DayTensor(F, G) computes on _nilpotent_pairs, where
    most modules are not zero: the convolution, its projections, sections
    and tagged relations, the symmetry isomorphism, convolve_nat(id, id),
    and the pure_closure in F, against G, of one seeded line."""
    rng = random.Random(17)
    h = hashlib.sha256()
    for name, cat, F, G in _nilpotent_pairs():
        fld = cat.field
        T = DayTensor(F, G)
        line = [fld.random(rng) for _ in range(F.dims[0])]
        closed = pure_closure(F, SubPresheaf.from_vectors(F, {0: [line]}), G)
        doc = {
            "presheaf": jsonio.day_presheaf_to_json(T.presheaf, category_name=name),
            "projections": _matrices_json(T.projections),
            "sections": _matrices_json(T.sections),
            "relations": _matrices_json(T.relations),
            "tags": [[list(tag) for tag in tags] for tags in T.relation_tags],
            "symmetry": _matrices_json(symmetry_iso(T, DayTensor(G, F)).mats),
            "id": _matrices_json(convolve_nat(T, T, identity_nat(F), identity_nat(G)).mats),
            "closure": {
                "dims": closed.dims(),
                "bases": _matrices_json([s.basis for s in closed.spaces]),
            },
        }
        h.update(jsonio.canonical_json(doc).encode())
    return h.hexdigest()


# recorded before the quotient was read straight off the sparse RREF rows
DAY_NILPOTENT_SHA256 = "3d5922bbd249afe8b764bb033efded005d253c992bd625dc882a5da126e57120"


def test_day_nilpotent_golden_digest():
    assert _nilpotent_digest() == DAY_NILPOTENT_SHA256


def _isos_digest():
    """sha256 of the Yoneda isomorphisms, both ways, of every pair of
    representables, and of the associator on 8 seeded triples per category
    of suites._day_categories() and GENERIC_CATS and on triples of modules
    from consecutive _nilpotent_pairs() of one category."""
    rng = random.Random(19)
    h = hashlib.sha256()
    triples = []
    for name, cat in suites._day_categories() + GENERIC_CATS:
        for X in range(cat.size):
            for Y in range(cat.size):
                fwd, back = yoneda_iso(DayTensor(representable(cat, X), representable(cat, Y)), X, Y)
                doc = {"yoneda": [name, X, Y], "forward": _matrices_json(fwd.mats),
                       "backward": _matrices_json(back.mats)}
                h.update(jsonio.canonical_json(doc).encode())
        triples += [(name, *(suites._random_day_presheaf(cat, rng, 3) for _ in range(3)))
                    for _ in range(8)]
    nilpotent = list(_nilpotent_pairs())
    triples += [(name, F, G, H) for (name, _, F, G), (name2, _, H, _) in zip(nilpotent, nilpotent[1:])
                if name == name2]
    for name, F, G, H in triples:
        TFG, TGH = DayTensor(F, G), DayTensor(G, H)
        assoc = associator_iso(TFG, DayTensor(TFG.presheaf, H), TGH, DayTensor(F, TGH.presheaf))
        doc = {"associator": name, "mats": _matrices_json(assoc.mats)}
        h.update(jsonio.canonical_json(doc).encode())
    return h.hexdigest()


# recorded before the structural isomorphisms descended through the sparse
# quotient
DAY_ISOS_SHA256 = "9e5ca2b4492e91d07d64d1022403d2a62da8f10c60b52ac0e31d17814b97badc"


def test_day_isos_golden_digest():
    assert _isos_digest() == DAY_ISOS_SHA256


def _typed(M):
    return f"{type(M).__name__} {M.rows}x{M.cols} {M.data!r}"


def _typed_day_digest():
    """sha256 of the repr, entry types and matrix classes included, of the
    internal hom and the convolution of the seeded pairs (with SKEW_DUALNUM)
    and the nilpotent pairs: every stored action of both presheaves, the
    internal hom's bases, and in both presheaves action_of of every basis
    morphism and of every identity."""
    h = hashlib.sha256()
    cats = suites._day_categories() + GENERIC_CATS + [SKEW_DUALNUM]
    for name, cat, F, G in list(_seeded_pairs(cats)) + list(_nilpotent_pairs()):
        IH = internal_hom(F, G)
        parts = [name] + [_typed(B.basis) for B in IH.bases]
        for P in (IH.presheaf, day_convolve(F, G).presheaf):
            parts += [f"{key} {_typed(M)}" for key, M in P.actions.items()]
            parts += [_typed(P.action_of(cat.basis_mor(*key))) for key in cat.all_basis_mors()]
            parts += [_typed(P.action_of(cat.id_mor(a))) for a in range(cat.size)]
        h.update("\n".join(parts).encode())
    return h.hexdigest()


# recorded before basis morphisms acted by their stored matrices; the repr
# sees what JSON does not: int or Fraction entries, and the matrix class
DAY_TYPED_SHA256 = "2156032ae4e6192893e1134c0d51c2d62ea7c8805455ca2b59ae8f7b1270a002"


def test_day_typed_golden_digest():
    assert _typed_day_digest() == DAY_TYPED_SHA256


def _natural_sum(P):
    """The sum of a basis of the natural endomorphisms of P."""
    mats = [Matrix.zeros(P.category.field, d, d) for d in P.dims]
    for nat in nat_space(P, P):
        mats = [m + n for m, n in zip(mats, nat.mats)]
    return NatTransform(P, P, mats)


def test_convolution_builds_no_dense_quotient_until_read(monkeypatch):
    """A convolution, convolve_nat and internal_hom run without a dense
    quotient (linalg.quotient_maps), and build no dense relation,
    projection or section matrix; nor do the unit, Yoneda, symmetry and
    associator isomorphisms, DayTensor.insert and the comonoid checks of
    DayCoalgebra.validate, in any convolution they build.  Read afterwards,
    those equal the dense reference, the quotient_maps of the span of the
    relation columns, and convolve_nat equals
    projections @ d_level_nat @ sections."""
    from coalgkit import day, linalg

    def refuse(sub):
        raise AssertionError("dense quotient built")

    built = []
    init = DayTensor.__init__

    def recording_init(T, F, G):
        init(T, F, G)
        built.append(T)

    monkeypatch.setattr(day, "quotient_maps", refuse, raising=False)
    monkeypatch.setattr(linalg, "quotient_maps", refuse)
    monkeypatch.setattr(DayTensor, "__init__", recording_init)
    rng = random.Random(29)
    for name, cat in suites._day_categories() + GENERIC_CATS:
        h1 = representable(cat, cat.unit)
        for X in range(cat.size):
            for Y in range(cat.size):
                yoneda_iso(day_convolve(representable(cat, X), representable(cat, Y)), X, Y)
        for _ in range(2):
            F, G, H = (suites._random_day_presheaf(cat, rng, 3) for _ in range(3))
            unit_right_iso(day_convolve(F, h1))
            unit_left_iso(day_convolve(h1, F))
            symmetry_iso(day_convolve(F, G), day_convolve(G, F))
            TFG, TGH = day_convolve(F, G), day_convolve(G, H)
            associator_iso(TFG, day_convolve(TFG.presheaf, H), TGH, day_convolve(F, TGH.presheaf))
        assert unit_day_coalgebra(cat).validate() == [], name
    GD = suites._graded_dual_numbers(Z2)
    unitC = unit_day_coalgebra(Z2)
    for FC in (GD, day_direct_sum(unitC, GD), day_direct_sum(GD, GD),
               day_direct_sum(GD, day_direct_sum(GD, GD))):
        assert FC.validate() == []
    assert len(built) > 200
    assert not any({"relations", "projections", "sections"} & set(vars(T)) for T in built)
    runs = []
    for name, cat, F, G in list(_seeded_pairs(suites._day_categories() + GENERIC_CATS)) + list(
        _nilpotent_pairs()
    ):
        T = day_convolve(F, G)
        assert T.presheaf.validate() == [], name
        alpha, beta = _natural_sum(F), _natural_sum(G)
        nat = convolve_nat(T, T, alpha, beta)
        internal_hom(F, G)
        assert not {"relations", "projections", "sections"} & set(vars(T)), name
        runs.append((name, T, alpha, beta, nat))
    monkeypatch.undo()
    for name, T, alpha, beta, nat in runs:
        fld = T.category.field
        for U, rel in enumerate(T.relations):
            assert (rel.rows, rel.cols) == (T.d_dims[U], len(T.relation_tags[U])), name
            cols = [{i: v for i, v in enumerate(rel.col(j)) if not fld.is_zero(v)}
                    for j in range(rel.cols)]
            q, s = linalg.quotient_maps(Subspace.from_sparse(fld, T.d_dims[U], cols))
            assert (T.projections[U], T.sections[U]) == (q, s), (name, U)
        dense = d_level_nat(T, T, alpha, beta)
        assert nat.mats == [q @ M @ s for q, M, s in zip(T.projections, dense, T.sections)], name


def test_descent_refuses_a_map_that_does_not_kill_the_relations():
    """_descend_iso checks every relation column: a D-level map whose only
    entry sits on the support of the first or of the last relation column
    is refused, while the zero map descends."""
    from coalgkit.day import _descend_iso

    F = representable(OB, 0)
    T = day_convolve(F, F)
    cols = T._relation_cols[0]
    assert cols and _descend_iso(T, [[]], F).mats == [Matrix.zeros(F2, 2, T.dim(0))]
    for col in (cols[0], cols[-1]):
        j = min(col)
        with pytest.raises(ComputationError, match="does not respect the coequalizer"):
            _descend_iso(T, [[(1, j, F2.one)]], F)


def _dense_naturality_kernel(F, G):
    """Reference for day._naturality_kernel: every equation as a dense row,
    and the kernel of the dense matrix of those rows."""
    cat = F.category
    fld = cat.field
    offsets = []
    total = 0
    for U in range(cat.size):
        offsets.append(total)
        total += G.dims[U] * F.dims[U]
    rows = []
    for (a, b, i) in cat.all_basis_mors():
        Fa = F.action(a, b, i)
        Ga = G.action(a, b, i)
        for r in range(G.dims[a]):
            for c in range(F.dims[b]):
                row = [fld.zero] * total
                for k in range(F.dims[a]):
                    if not fld.is_zero(Fa.data[k][c]):
                        row[offsets[a] + r * F.dims[a] + k] = Fa.data[k][c]
                for k in range(G.dims[b]):
                    if not fld.is_zero(Ga.data[r][k]):
                        idx = offsets[b] + k * F.dims[b] + c
                        row[idx] = fld.sub(row[idx], Ga.data[r][k])
                if any(not fld.is_zero(x) for x in row):
                    rows.append(row)
    space = Matrix.from_rows(fld, rows, total).kernel() if rows else Subspace.full(fld, total)
    return offsets, space


def test_naturality_kernel_matches_the_dense_equations():
    """The kernel read off the sparse RREF rows of the naturality equations
    is the canonical kernel of their dense matrix, entry for entry and of
    the same types, for (F, G) and for every shift G(U (x) -) that the
    internal hom solves against."""
    from coalgkit.day import _naturality_kernel, _shifted

    pairs = list(_seeded_pairs(suites._day_categories() + GENERIC_CATS)) + list(_nilpotent_pairs())
    nonzero = 0
    for name, cat, F, G in pairs:
        for H in [G] + [_shifted(G, U) for U in range(cat.size)]:
            want = _dense_naturality_kernel(F, H)
            got = _naturality_kernel(F, H)
            assert got == want, name
            assert [[type(a) for a in r] for r in got[1].basis.data] == \
                   [[type(a) for a in r] for r in want[1].basis.data], name
            nonzero += 0 < want[1].dim < want[1].ambient
    assert nonzero > 100  # many kernels are neither zero nor everything


def test_naturality_kernel_runs_one_sparse_reduction(monkeypatch):
    """The kernel's RREF basis is read off the one sparse RREF of the
    equations, over F_p, Q and F_q: the kernel vectors are not reduced a
    second time."""
    from coalgkit import linalg
    from coalgkit.day import _naturality_kernel, _shifted

    calls = []
    for kernel in {linalg.row_kernel(fld) for fld in (F2, QQ, F4)}:
        def counted(fld, ambient, vectors, reduce=kernel.sparse_rref):
            calls.append(fld)
            return reduce(fld, ambient, vectors)

        monkeypatch.setattr(kernel, "sparse_rref", staticmethod(counted))
    pairs = list(_seeded_pairs(suites._day_categories() + GENERIC_CATS)) + list(_nilpotent_pairs())
    fields = set()
    for name, cat, F, G in pairs[::3]:
        for H in [G] + [_shifted(G, U) for U in range(cat.size)]:
            calls.clear()
            _naturality_kernel(F, H)
            assert calls == [cat.field], name
            fields.add(cat.field)
    assert fields == {F2, F3, QQ, F4}


def test_basis_precomposition_is_kept_per_category():
    """The category keeps the precomposition matrix of each basis morphism
    and object, equal to precompose_matrix of that morphism."""
    for name, cat in CATS + GENERIC_CATS:
        for (a, b, i) in cat.all_basis_mors():
            for X in range(cat.size):
                P = cat._basis_precompose(a, b, i, X)
                assert P == cat.precompose_matrix(cat.basis_mor(a, b, i), X), name
                assert cat._basis_precompose(a, b, i, X) is P


def _swapping_category():
    """A category over F_2 whose symmetry joins distinct objects: objects 1
    (the unit), a, b, ab, ba and z, with a (x) b = ab, b (x) a = ba and z
    every other product of two non-unit objects.  hom(x, x) is the line of
    id_x; hom(ab, ba) and hom(ba, ab) are the lines of mutually inverse s and
    t.  The symmetry is s at (a, b), t at (b, a) and the identity elsewhere."""
    one, a, b, ab, ba, z = range(6)
    pair = {(a, b): ab, (b, a): ba}
    tensor_obj = [[y if x == one else x if y == one else pair.get((x, y), z)
                   for y in range(6)] for x in range(6)]
    hom_dims = {(x, x): 1 for x in range(6)}
    hom_dims.update({(ab, ba): 1, (ba, ab): 1})
    # composites of basis morphisms: id o f = f o id = f, t o s = id_ab, s o t = id_ba
    compose = {(x, y, w): [[[1]]] for (x, y) in hom_dims for (y2, w) in hom_dims if y2 == y}
    # f (x) g is f or g beside the unit, and id_z between two non-unit objects
    tensor_mor = {(x, y, u, v): [[[1]]] for (x, y) in hom_dims for (u, v) in hom_dims}
    symmetry = {(x, y): (tensor_obj[x][y], tensor_obj[y][x], (1,))
                for x in range(6) for y in range(6)}
    return LinearMonoidalCategory(F2, ["1", "a", "b", "ab", "ba", "z"], hom_dims, compose,
                                  {x: [1] for x in range(6)}, tensor_obj, tensor_mor, one,
                                  symmetry=symmetry)


def test_day_category_document_keeps_a_symmetry_between_distinct_objects(tmp_path):
    """The loaded symmetry is the document's, so a valid category whose tensor
    table is not commutative loads, round-trips and validates."""
    cat = _swapping_category()
    assert cat.validate() == []
    doc = jsonio.day_category_to_json(cat)
    loaded = jsonio.day_category_from_json(doc)
    assert loaded.symmetry == cat.symmetry
    assert jsonio.day_category_to_json(loaded) == doc
    path = tmp_path / "swap.json"
    path.write_text(jsonio.canonical_json(doc), encoding="utf-8")
    assert cli.main(["--format", "json", "validate", str(path)]) == 0


def _identity_run_inputs():
    """The seeded pairs (with SKEW_DUALNUM), the nilpotent pairs, and the
    graded dual numbers over F_2 and F_3 with seeds for their closures."""
    cats = suites._day_categories() + GENERIC_CATS + [SKEW_DUALNUM]
    pairs = list(_seeded_pairs(cats)) + list(_nilpotent_pairs())
    closures = []
    for GD in (graded_dual_numbers(), graded_dual_numbers(cyclic_group_category(F3, 2))):
        d0, d1 = GD.presheaf.dims
        for assignment in ({}, {0: [[1] * d0]}, {1: [[1] * d1]}):
            closures.append((GD, SubPresheaf.from_vectors(GD.presheaf, assignment)))
    return pairs, closures


def _identity_run_outputs(pairs, closures):
    """Typed reprs of what reads the category's identity basis morphisms:
    the convolution and internal-hom actions, the naturality kernel against
    every shift of G and those shifts' actions, the realization of a seeded
    line of F closed under restrictions, and the closures of the graded
    dual numbers with their realizations."""
    from coalgkit.day import InternalHom, _naturality_kernel, _shifted
    from coalgkit.dayclosure import generated_day_subcoalgebra, invariant_closure

    def actions(P):
        return [f"{key} {_typed(M)}" for key, M in P.actions.items()]

    def realized(sub):
        P, incl = sub.as_presheaf()
        return actions(P) + [_typed(M) for M in incl.mats]

    rng = random.Random(23)
    out = []
    for name, cat, F, G in pairs:
        fld = cat.field
        out.append(name)
        out += actions(DayTensor(F, G).presheaf) + actions(InternalHom(F, G).presheaf)
        for U in range(cat.size):
            H = _shifted(G, U)
            offsets, space = _naturality_kernel(F, H)
            out += actions(H) + [f"{offsets} {_typed(space.basis)}"]
        U = rng.randrange(cat.size)
        line = [fld.random(rng) for _ in range(F.dims[U])]
        out += realized(SubPresheaf.from_vectors(F, {U: [line]}).close())
    for GD, M0 in closures:
        sub, incl, spaces = generated_day_subcoalgebra(GD, M0)
        inv = invariant_closure(GD, M0)
        out += actions(sub.presheaf) + [_typed(M) for M in sub.delta.mats + incl.mats]
        out += [_typed(s.basis) for s in spaces.spaces + inv.spaces]
        out += realized(spaces) + realized(inv)
    return out


def test_identity_closed_forms_match_the_general_path(monkeypatch):
    """An identity basis morphism acts by the identity on convolutions,
    internal homs and realized sub-presheaves, gives no naturality equation,
    and shifts by G(id): with every category's identity set emptied, the
    general path computes the same matrices, entry types and matrix
    classes included."""
    pairs, closures = _identity_run_inputs()
    cats = {id(cat): cat for _, cat, _, _ in pairs}
    cats.update({id(GD.category): GD.category for GD, _ in closures})
    assert sum(bool(cat._identity_mors) for cat in cats.values()) >= len(cats) - 1
    assert SKEW_DUALNUM[1]._identity_mors == frozenset()
    want = _identity_run_outputs(pairs, closures)
    for cat in cats.values():
        monkeypatch.setattr(cat, "_identity_mors", frozenset())
    got = _identity_run_outputs(pairs, closures)
    assert len(got) == len(want) > 1000
    assert got == want


def test_identity_basis_morphisms_build_no_action(monkeypatch):
    """On a cyclic group category every basis morphism is an identity:
    convolutions, internal homs and realizations run no action and no
    coordinate solve, and the naturality kernels reduce no equation.  On a
    chain poset exactly the non-identity basis morphisms run their actions;
    on k[x]/(x^2) in the basis 1 + x, x, whose identity is no basis
    morphism, every basis morphism does."""
    from coalgkit import linalg
    from coalgkit.day import InternalHom, _naturality_kernel, _shifted

    calls = []

    def recording(kind, method):
        def wrapper(self, *args):
            calls.append((kind, args[:3]))
            return method(self, *args)
        return wrapper

    monkeypatch.setattr(DayTensor, "_action", recording("conv", DayTensor._action))
    monkeypatch.setattr(InternalHom, "_action", recording("hom", InternalHom._action))
    monkeypatch.setattr(Subspace, "coordinates", recording("coords", Subspace.coordinates))
    equations = []
    for kernel in {linalg.row_kernel(fld) for fld in (F2, F3)}:
        def counted(fld, ambient, vectors, reduce=kernel.sparse_rref):
            equations.append(len(vectors))
            return reduce(fld, ambient, vectors)

        monkeypatch.setattr(kernel, "sparse_rref", staticmethod(counted))
    rng = random.Random(31)
    cyclic = cyclic_group_category(F3, 3)
    poset = poset_max_category(F2, 3)
    skew = SKEW_DUALNUM[1]
    assert cyclic._identity_mors == frozenset(cyclic.all_basis_mors())
    assert poset._identity_mors == {(a, a, 0) for a in range(3)}
    solves = 0
    for cat in (cyclic, poset, skew):
        moving = [key for key in cat.all_basis_mors() if key not in cat._identity_mors]
        for _ in range(4):
            F, G = (suites._random_day_presheaf(cat, rng, 3) for _ in range(2))
            lines = {U: [[cat.field.random(rng) for _ in range(d)]] for U, d in enumerate(F.dims)}
            sub = SubPresheaf.from_vectors(F, lines).close()
            calls.clear()
            DayTensor(F, G)
            assert calls == [("conv", key) for key in moving]
            calls.clear()
            InternalHom(F, G)
            assert [key for kind, key in calls if kind == "hom"] == moving
            assert moving or calls == []
            calls.clear()
            sub.as_presheaf()
            assert [kind for kind, _ in calls] == ["coords"] * sum(sub.spaces[b].dim for _, b, _ in moving)
            solves += len(calls)
            equations.clear()
            for U in range(cat.size):
                _naturality_kernel(F, _shifted(G, U))
            assert moving or equations == [0] * cat.size
        assert (not moving) == (cat is cyclic)
        assert (moving == list(cat.all_basis_mors())) == (cat is skew)
    assert solves > 0
