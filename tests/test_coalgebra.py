import random

import pytest

from coalgkit import corpus
from coalgkit.coalgebra import (
    Coalgebra,
    CoalgebraMorphism,
    counit_morphism,
    diagonal_coalgebra,
    direct_sum,
    dual_algebra,
    dual_coalgebra,
    dual_morphism,
    generated_subcoalgebra,
    is_multiplicative,
    polynomial_quotient_algebra,
    pushout,
    quotient,
    sub,
    tensor,
    trivial_coalgebra,
    validate,
)
from coalgkit.errors import NotACoideal, NotASubcoalgebra
from coalgkit.fields import GF, QQ
from coalgkit.linalg import Matrix, Subspace, kronecker
from coalgkit.oracles import minimal_subcoalgebra
from coalgkit.polys import Polynomial
from coalgkit.structure import brute_force_group_likes

F2 = GF(2)
F3 = GF(3)


def dual_numbers(field=F2):
    delta = Matrix.zeros(field, 4, 2)
    delta.data[0][0] = field.one  # g -> g (x) g
    delta.data[1][1] = field.one  # t -> g (x) t
    delta.data[2][1] = field.one  #      + t (x) g
    eps = Matrix(field, 1, 2, [[field.one, field.zero]])
    return Coalgebra(field, 2, delta, eps)


def test_validate_examples():
    assert validate(trivial_coalgebra(F2)) == []
    assert validate(dual_numbers()) == []
    # breaking the counit: delta(t) = t (x) t fails with witness index 1
    delta = Matrix.zeros(F2, 4, 2)
    delta.data[0][0] = 1
    delta.data[3][1] = 1
    bad = Coalgebra(F2, 2, delta, Matrix(F2, 1, 2, [[1, 0]]))
    report = validate(bad)
    assert ("counit-left", 1) in report and ("counit-right", 1) in report


def test_dual_examples():
    # pointwise coalgebra on two points dualizes to the split product algebra
    A = dual_algebra(diagonal_coalgebra(2, F2))
    assert A.mul([1, 0], [1, 0]) == [1, 0]
    assert A.mul([1, 0], [0, 1]) == [0, 0]
    assert validate(A) == []

    # F2[x]/(x^2) dualizes to the dual-numbers coalgebra
    Ax = polynomial_quotient_algebra(F2, Polynomial.from_ints(F2, [0, 0, 1]))
    assert dual_coalgebra(Ax) == dual_numbers()


def test_double_dual_round_trip():
    rng = random.Random(21)
    for i in range(100):
        field = [QQ, F2, F3][i % 3]
        C = corpus.random_coalgebra(rng, field, 5)
        assert dual_coalgebra(dual_algebra(C)) == C
        A = corpus.random_algebra(rng, field, rng.randint(1, 4))
        assert dual_algebra(dual_coalgebra(A)) == A


def test_dual_morphism_contravariant():
    rng = random.Random(22)
    for i in range(40):
        field = [QQ, F2, F3][i % 3]
        phi = corpus.random_morphism(rng, field, 4)
        M = dual_morphism(phi)
        A, B = dual_algebra(phi.target), dual_algebra(phi.source)
        # M: A -> B is an algebra morphism
        assert M.apply(A.unit) == list(B.unit)
        assert M @ A.mult == B.mult @ kronecker(M, M)
        # transposing back recovers phi on the double duals
        back = CoalgebraMorphism(
            dual_coalgebra(dual_algebra(phi.source)),
            dual_coalgebra(dual_algebra(phi.target)),
            M.transpose(),
        )
        assert validate(back) == [] and back.matrix == phi.matrix


def test_diagonal_examples():
    empty = diagonal_coalgebra(0, F2)
    assert empty.dim == 0 and validate(empty) == []
    assert diagonal_coalgebra(1, F2) == trivial_coalgebra(F2)
    D3 = diagonal_coalgebra(3, F2)
    assert validate(D3) == []
    gl = brute_force_group_likes(D3)
    assert sorted(gl.elements) == sorted(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    )


def test_direct_sum_is_diagonal_on_points():
    k = trivial_coalgebra(F2)
    S, i1, i2 = direct_sum(k, k)
    assert S == diagonal_coalgebra(2, F2)
    assert validate(i1) == [] and validate(i2) == []


def test_sub_examples():
    D = dual_numbers()
    Dg, incl = sub(D, Subspace.from_vectors(F2, 2, [[1, 0]]))
    assert Dg == trivial_coalgebra(F2)
    assert validate(incl) == []
    with pytest.raises(NotASubcoalgebra) as err:
        sub(D, Subspace.from_vectors(F2, 2, [[0, 1]]))
    assert err.value.witness == [0, 1]


def test_quotient_examples():
    D = dual_numbers()
    Q, proj = quotient(D, Subspace.from_vectors(F2, 2, [[0, 1]]))
    assert Q.dim == 1 and validate(Q) == [] and validate(proj) == []
    with pytest.raises(NotACoideal):
        quotient(D, Subspace.from_vectors(F2, 2, [[1, 0]]))  # eps(g) = 1 != 0


def test_pushout():
    D = dual_numbers()
    k = trivial_coalgebra(F2)
    eps = counit_morphism(D)
    P, fB, fC = pushout(eps, eps)
    assert validate(P) == [] and validate(fB) == [] and validate(fC) == []
    assert fB @ eps == fC @ eps  # pushout square commutes
    # pushout along identities collapses to the object itself
    ident = CoalgebraMorphism(D, D, Matrix.identity(F2, 2))
    P2, g1, g2 = pushout(ident, ident)
    assert P2.dim == 2 and g1.matrix == g2.matrix


def test_generated_subcoalgebra_examples():
    D = dual_numbers()
    span_g = Subspace.from_vectors(F2, 2, [[1, 0]])
    span_t = Subspace.from_vectors(F2, 2, [[0, 1]])
    G1, _ = generated_subcoalgebra(D, span_g)
    G2, i2 = generated_subcoalgebra(D, span_t)
    assert G1.dim == 1 and G2.dim == 2
    assert i2.image().contains(span_t)

    # (F2[x]/(x^3))^dual: generated by the top dual vector is everything
    A3 = polynomial_quotient_algebra(F2, Polynomial.from_ints(F2, [0, 0, 0, 1]))
    C3 = dual_coalgebra(A3)
    top, _ = generated_subcoalgebra(C3, Subspace.from_vectors(F2, 3, [[0, 0, 1]]))
    assert top.dim == 3
    mid, _ = generated_subcoalgebra(C3, Subspace.from_vectors(F2, 3, [[0, 1, 0]]))
    assert mid.dim == 2
    # brute-force minimal subcoalgebra agrees
    oracle = minimal_subcoalgebra(C3, Subspace.from_vectors(F2, 3, [[0, 0, 1]]))
    assert oracle.dim == 3


def test_generated_equals_intersection_of_subcoalgebras():
    """Exhaustive check that the generated subcoalgebra is the minimal one,
    over F_2 at dim <= 4."""
    rng = random.Random(23)
    done = 0
    while done < 40:
        C = corpus.random_coalgebra(rng, F2, 4)
        if not 1 <= C.dim <= 4:
            continue
        v = corpus.random_vector(rng, F2, C.dim, nonzero=True)
        S = Subspace.from_vectors(F2, C.dim, [v])
        D, incl = generated_subcoalgebra(C, S)
        assert incl.image() == minimal_subcoalgebra(C, S)
        done += 1


def test_constructions_all_validate():
    rng = random.Random(24)
    for i in range(60):
        field = [QQ, F2, F3][i % 3]
        C = corpus.random_coalgebra(rng, field, 6)
        assert validate(C) == []


def test_tensor_group_likes_on_diagonals():
    C = diagonal_coalgebra(2, F2)
    D = diagonal_coalgebra(2, F2)
    T = tensor(C, D)
    assert validate(T) == []
    gl = brute_force_group_likes(T)
    expected = []
    for i in range(2):
        for j in range(2):
            v = [0] * 4
            v[i * 2 + j] = 1
            expected.append(v)
    assert sorted(gl.elements) == sorted(expected)


def test_zero_dimensional_coalgebra():
    Z = diagonal_coalgebra(0, F2)
    assert validate(Z) == []
    S, _, _ = direct_sum(Z, trivial_coalgebra(F2))
    assert S.dim == 1


def test_pushout_universal_property():
    D = dual_coalgebra(
        polynomial_quotient_algebra(F2, Polynomial.from_ints(F2, [0, 0, 1]))
    )
    eps = counit_morphism(D)
    P, fB, fC = pushout(eps, eps)
    k = trivial_coalgebra(F2)
    u = CoalgebraMorphism(k, k, Matrix.identity(F2, 1))
    # (u, u) is a cocone since u o eps = u o eps; it factors through P
    stacked = fB.matrix.hstack(fC.matrix)
    cocone = u.matrix.hstack(u.matrix)
    w = stacked.transpose().solve_matrix(cocone.transpose())
    assert w is not None
    w = w.transpose()
    assert w @ fB.matrix == u.matrix and w @ fC.matrix == u.matrix
    assert validate(CoalgebraMorphism(P, k, w)) == []
    # uniqueness: (fB, fC) jointly surject onto P
    assert stacked.rank() == P.dim


def test_is_multiplicative():
    F5 = GF(5)
    A = polynomial_quotient_algebra(F5, Polynomial.from_ints(F5, [2, 0, 1]))  # F_25
    frobenius = Matrix.from_cols(F5, [A.power(b, 5) for b in ([1, 0], [0, 1])], 2)
    assert is_multiplicative(A, A, Matrix.identity(F5, 2))
    assert is_multiplicative(A, A, frobenius)
    # x -> 2x fixes the unit but (2x)^2 = 4x^2 is not 2x^2
    assert not is_multiplicative(A, A, Matrix.from_int_rows(F5, [[1, 0], [0, 2]]))
    # the projection of F_5 x F_5 onto a factor is an algebra map; onto the sum it is not
    P = dual_algebra(diagonal_coalgebra(2, F5))
    K = dual_algebra(diagonal_coalgebra(1, F5))
    assert is_multiplicative(P, K, Matrix.from_int_rows(F5, [[1, 0]]))
    assert not is_multiplicative(P, K, Matrix.from_int_rows(F5, [[1, 1]]))


# -- planted axiom violations -------------------------------------------------

FAULT_FIELDS = [GF(2), GF(3), GF(5), GF(2**31 - 1), QQ, GF(2, [1, 1, 1])]


def _nonzero(rng, F):
    while True:
        c = F.random(rng)
        if not F.is_zero(c):
            return c


def _perturbed(rng, M):
    """M with one seeded entry moved by a nonzero amount."""
    F = M.field
    out = M.copy()
    r, c = rng.randrange(M.rows), rng.randrange(M.cols)
    out.data[r][c] = F.add(out.data[r][c], _nonzero(rng, F))
    return out


def _fault_reports(rng, F):
    """Axiom reports of seeded corpus objects and of copies with one planted
    fault each: a perturbed coproduct entry, a perturbed counit, a
    non-cocommutative column; a perturbed morphism matrix, a column scaled by
    2 (zeroed in characteristic 2) and the zero matrix (neither preserves the counit); group-like
    tests of the group-likes, of perturbed and of scaled copies; and
    `is_multiplicative` of the Wedderburn retracts and of perturbed ones."""
    from coalgkit.structure import _group_like_quadratic, etale_part, group_likes

    reports = []
    for _ in range(20):
        C = corpus.random_coalgebra(rng, F, 5)
        n = C.dim
        reports.append(validate(C))
        if n == 0:
            continue
        reports.append(validate(Coalgebra(F, n, _perturbed(rng, C.delta), C.epsilon)))
        reports.append(validate(Coalgebra(F, n, C.delta, _perturbed(rng, C.epsilon))))
        if n >= 2:
            i, k = rng.sample(range(n), 2)
            delta = C.delta.copy()
            j = rng.randrange(n)
            delta.data[i * n + k][j] = F.add(delta.data[k * n + i][j], _nonzero(rng, F))
            reports.append(validate(Coalgebra(F, n, delta, C.epsilon)))
        for g in group_likes(C).elements:
            reports.append(_group_like_quadratic(C, g))
            bad = list(g)
            t = rng.randrange(n)
            bad[t] = F.add(bad[t], _nonzero(rng, F))
            reports.append(_group_like_quadratic(C, bad))
            c = _nonzero(rng, F)
            reports.append(_group_like_quadratic(C, [F.mul(c, a) for a in g]))
        reports.append(_group_like_quadratic(C, corpus.random_vector(rng, F, n)))
        data = etale_part(C)
        for comp, w in zip(data.decomposition.components, data.splittings):
            K = w.field_datum.as_algebra
            reports.append(is_multiplicative(comp.algebra, K, w.retract))
            reports.append(is_multiplicative(comp.algebra, K, _perturbed(rng, w.retract)))
    for _ in range(20):
        phi = corpus.random_morphism(rng, F, 4)
        C, D = phi.source, phi.target
        reports.append(validate(phi))
        if C.dim == 0 or D.dim == 0:
            continue
        reports.append(validate(CoalgebraMorphism(C, D, _perturbed(rng, phi.matrix))))
        scaled = phi.matrix.copy()
        j, two = rng.randrange(C.dim), F.from_int(2)
        for row in scaled.data:
            row[j] = F.mul(two, row[j])
        reports.append(validate(CoalgebraMorphism(C, D, scaled)))
        reports.append(validate(CoalgebraMorphism(C, D, Matrix.zeros(F, D.dim, C.dim))))
    return reports


# sha256 of repr(_fault_reports(random.Random(1313), F)) per field, recorded
# before the axiom checks moved onto the row kernels
FAULT_REPORTS_SHA256 = {
    "GF(2)": "67bc15a184e73b96b301e41884f2903cace2005a54efff40fbfbaf2cd84042ce",
    "GF(3)": "98c28faf20b0bdc8c014ecbbbca4f3afcde302729705e9b37043a2b0ca68e975",
    "GF(5)": "9a7df08d6501d96d88af0d5d3fc97be0d9daf159880257f89072fb31686f80bd",
    "GF(2147483647)": "48f576e8946b36a57f3a45660030c8b261302c889c4761e067ea060f41db21a7",
    "QQ": "4409cc457b4529b229573802b079cf55e9ccd690a6f2697e58fb3a2a88ef51ce",
    "GF(2^2)": "2eae62716d92dca4b15d1b4a7290e7448b84b3e4f6f1699a1f41cc12253fe308",
}


@pytest.mark.parametrize("field", FAULT_FIELDS, ids=repr)
def test_planted_faults_report_identically(monkeypatch, field):
    """The failure lists of `validate`, witnesses and order included, and
    the answers of `_group_like_quadratic` and `is_multiplicative`, on valid
    corpus objects and on planted faults: equal to the reference path (every
    entry through the field's methods) and to the recorded digest.  F_4 runs
    on the reference path only."""
    import hashlib

    from coalgkit import linalg

    reports = _fault_reports(random.Random(1313), field)
    flat = [item for r in reports if isinstance(r, list) for item in r]
    for identity in ("coassociativity", "cocommutativity", "counit-left", "counit-right",
                     "comultiplicativity", "counit-preservation"):
        assert any(name == identity for name, _ in flat), identity
    assert [] in reports and True in reports and False in reports
    if field.kind != "Fq":
        monkeypatch.setattr(linalg, "_ROW_KERNELS", {})
        assert _fault_reports(random.Random(1313), field) == reports
    digest = hashlib.sha256(repr(reports).encode()).hexdigest()
    assert digest == FAULT_REPORTS_SHA256[repr(field)]


def _algebra_fault_reports(rng, F):
    """`validate` reports of seeded corpus algebras and of copies with one
    planted fault each: a perturbed structure constant, a perturbed unit and
    a non-commutative pair of products."""
    from coalgkit.coalgebra import ArtinAlgebra

    reports = []
    for _ in range(20):
        A = corpus.random_algebra(rng, F, rng.randint(1, 5))
        n = A.dim
        reports.append(validate(A))
        reports.append(validate(ArtinAlgebra(F, n, _perturbed(rng, A.mult), A.unit)))
        unit = list(A.unit)
        t = rng.randrange(n)
        unit[t] = F.add(unit[t], _nonzero(rng, F))
        reports.append(validate(ArtinAlgebra(F, n, A.mult, unit)))
        if n >= 2:
            j, k = rng.sample(range(n), 2)
            mult = A.mult.copy()
            i = rng.randrange(n)
            mult.data[i][j * n + k] = F.add(mult.data[i][k * n + j], _nonzero(rng, F))
            reports.append(validate(ArtinAlgebra(F, n, mult, A.unit)))
    return reports


# sha256 of repr(_algebra_fault_reports(random.Random(1717), F)) per field,
# recorded before the algebra axioms moved onto the row kernels
ALGEBRA_FAULT_REPORTS_SHA256 = {
    "GF(2)": "90f2187d2796656866c46e3615ba2f3a2dff35246a1404d2563f82a090da81a7",
    "GF(3)": "ce586917a5c2572b2644c16c53be5b013f6e4abff012af8bd634cb1691e30e9d",
    "GF(5)": "59cb01f1d105aa632f53b4aa1161287298196e8041850866cd31f4fe2b121c9d",
    "GF(2147483647)": "bf2a180a968490c33272e3775ea7dc760b2295be357cd3e3ab1b3427806e765d",
    "QQ": "5bbdba48ed1fd7f8d95ff0351a4ece1d10ec4e766da9444091df3266a5fc51c8",
    "GF(2^2)": "ce93f195c943341eacc6fead817fc18346022f40205a24e7a0d31c87e1d21aa8",
}


@pytest.mark.parametrize("field", FAULT_FIELDS, ids=repr)
def test_planted_algebra_faults_report_identically(monkeypatch, field):
    """The failure lists of `validate` on algebras, witnesses and order
    included: equal to the reference path and to the recorded digest."""
    import hashlib

    from coalgkit import linalg

    reports = _algebra_fault_reports(random.Random(1717), field)
    flat = [name for r in reports for name, _ in r]
    for identity in ("unitality", "commutativity", "associativity"):
        assert identity in flat, identity
    assert [] in reports
    if field.kind != "Fq":
        monkeypatch.setattr(linalg, "_ROW_KERNELS", {})
        assert _algebra_fault_reports(random.Random(1717), field) == reports
    digest = hashlib.sha256(repr(reports).encode()).hexdigest()
    assert digest == ALGEBRA_FAULT_REPORTS_SHA256[repr(field)]


def _dual_algebra_outputs():
    """validate and A.mul on every basis pair, for the duals of the seeded
    Q coalgebras of a corpus."""
    out = []
    for C in corpus.corpus(7, 24, fields=[QQ]):
        A = dual_algebra(C)
        basis = Matrix.identity(QQ, A.dim).data
        out.append((validate(A), [A.mul(x, y) for x in basis for y in basis]))
    return out


def test_dual_algebra_takes_the_form_of_the_row_kernel(monkeypatch):
    """Over Q on the reference path (every entry through the field's
    methods) the dual of a coalgebra is a plain matrix algebra, whose axiom
    report and products equal those of the integer-row dual of the fast path."""
    from coalgkit import linalg

    fast = _dual_algebra_outputs()
    assert all(report == [] for report, _ in fast)
    monkeypatch.setattr(linalg, "_ROW_KERNELS", {})
    assert _dual_algebra_outputs() == fast


F4 = GF(2, [1, 1, 1])
F9 = GF(3, [1, 0, 1])


def _planted_matrix(rng, field, rows, cols):
    """A seeded matrix with a few rows replaced by combinations of others."""
    data = [corpus.random_vector(rng, field, cols) for _ in range(rows)]
    for _ in range(rng.randint(0, rows)):
        i, j, k = (rng.randrange(rows) for _ in range(3))
        a, b = field.random(rng), field.random(rng)
        data[i] = [field.add(field.mul(a, x), field.mul(b, y)) for x, y in zip(data[j], data[k])]
    return Matrix(field, rows, cols, data)


def _structure_tensor_digest():
    """sha256 over the canonical JSON of generated_subcoalgebra (dims,
    coalgebra, inclusion) on seeded subspaces of the corpus over Q, F_2, F_3
    and F_5 and of seeded F_4 and F_9 coalgebras; direct_sum of seeded pairs
    over one field; radical and the trace form of the duals of the Q corpus;
    minimal_polynomial of seeded matrices and of multiplication matrices;
    and rref, kernel and Subspace.from_vectors over F_4 and F_9."""
    import hashlib

    from coalgkit import jsonio
    from coalgkit.linalg import minimal_polynomial
    from coalgkit.structure import _trace_form, radical

    h = hashlib.sha256()

    def put(doc):
        h.update(jsonio.canonical_json(doc).encode())

    def mat(M):
        return jsonio.matrix_to_json(M)

    rng = random.Random(2424)
    coalgebras = corpus.corpus(24, 32)
    coalgebras += [corpus.random_coalgebra(rng, F, 4) for F in (F4, F9) for _ in range(6)]
    for C in coalgebras:
        F, n = C.field, C.dim
        for k in (1, 2, n):
            S = Subspace.from_vectors(F, n, [corpus.random_vector(rng, F, n) for _ in range(k)])
            D, inc = generated_subcoalgebra(C, S)
            put({"generated": [n, S.dim, D.dim], "coalgebra": jsonio.coalgebra_to_json(D),
                 "inclusion": mat(inc.matrix)})
    for F in corpus.corpus_fields() + [F4, F9]:
        same = [C for C in coalgebras if C.field == F]
        for C, D in zip(same, same[1:] + same[:1]):
            S, inc_C, inc_D = direct_sum(C, D)
            put({"direct_sum": jsonio.coalgebra_to_json(S), "inclusions": [mat(inc_C.matrix), mat(inc_D.matrix)]})
    algebras = [dual_algebra(C) for C in coalgebras + corpus.corpus(25, 16, fields=[QQ]) if C.field == QQ]
    for coeffs in ([0, 0, 0, 1], [4, 0, -4, 0, 1], [1, -2, 2, -2, 1], [0, 0, 27, 27, 9, 1]):
        p = Polynomial.from_ints(QQ, coeffs)  # t^3, (t^2-2)^2, (t-1)^2 (t^2+1), t^2 (t+3)^3
        A = polynomial_quotient_algebra(QQ, p)
        algebras.append(corpus.conjugate_algebra(A, corpus.random_invertible(rng, QQ, A.dim)))
    for A in algebras:
        put({"radical": mat(radical(A).basis), "trace_form": mat(_trace_form(A))})
    for F in corpus.corpus_fields() + [F4, F9]:
        for n in range(1, 7):
            T = _planted_matrix(rng, F, n, n)
            put({"minimal_polynomial": [F.format(c) for c in minimal_polynomial(T).coeffs]})
        for C in coalgebras:
            if C.field == F and C.dim:
                L = dual_algebra(C).mult_matrix(corpus.random_vector(rng, F, C.dim))
                put({"minimal_polynomial": [F.format(c) for c in minimal_polynomial(L).coeffs]})
    for F in (F4, F9):
        for rows, cols in [(0, 3), (3, 0), (1, 1)] + [(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(30)]:
            M = _planted_matrix(rng, F, rows, cols)
            R, rank, pivots = M.rref()
            put({"rref": mat(R), "rank": rank, "pivots": pivots, "kernel": mat(M.kernel().basis),
                 "span": mat(Subspace.from_vectors(F, cols, M.data).basis)})
    return h.hexdigest()


# recorded before generated_subcoalgebra and the trace form moved onto
# Matrix products and the F_q row reduction onto the sparse one
STRUCTURE_TENSOR_SHA256 = "0d140de1cda3559b0e88a051c05f311800ec13ce5c7818fea3320cdc7b9dc07a"


def test_structure_tensor_golden_digest():
    assert _structure_tensor_digest() == STRUCTURE_TENSOR_SHA256


def _tensor_digest():
    """sha256 over `tensor` of seeded coalgebra pairs (a zero-dimensional
    factor included) and `tensor_morphism` of seeded morphism pairs over F_2,
    F_3, F_4, F_9 and Q: the coproduct, the counit and the morphism matrix,
    each entry as its format and its type."""
    import hashlib

    from coalgkit import jsonio
    from coalgkit.coalgebra import tensor_morphism

    h = hashlib.sha256()

    def put(*matrices):
        doc = [[[[M.field.format(a), type(a).__name__] for a in row] for row in M.data] for M in matrices]
        h.update(jsonio.canonical_json(doc).encode())

    rng = random.Random(2727)
    for F in (F2, F3, F4, F9, QQ):
        coalgebras = [corpus.random_coalgebra(rng, F, 4) for _ in range(9)] + [diagonal_coalgebra(0, F)]
        for C, D in zip(coalgebras, coalgebras[1:] + coalgebras[:1]):
            T = tensor(C, D)
            put(T.delta, T.epsilon)
        for _ in range(3):
            f = tensor_morphism(corpus.random_morphism(rng, F, 3), corpus.random_morphism(rng, F, 3))
            put(f.source.delta, f.source.epsilon, f.target.delta, f.target.epsilon, f.matrix)
    return h.hexdigest()


# recorded while the tensor coproduct was the shuffle permutation times the
# Kronecker product of the two coproducts
TENSOR_SHA256 = "60fb640e926af60df6cfb4b6c5a0cfc66389dc5ef0c6f131982c7b980b3e05be"


def test_tensor_golden_digest():
    assert _tensor_digest() == TENSOR_SHA256


def test_power_squares_left_to_right(monkeypatch):
    """`ArtinAlgebra.power` takes one product per bit of m after the first and
    one more per further one bit, and agrees with repeated multiplication."""
    from coalgkit.coalgebra import ArtinAlgebra

    A = polynomial_quotient_algebra(F3, Polynomial.from_ints(F3, [1, 2, 0, 1, 1]))
    x = [0, 1, 2, 0]
    calls = []
    mul = ArtinAlgebra.mul
    monkeypatch.setattr(ArtinAlgebra, "mul", lambda self, a, b: calls.append(1) or mul(self, a, b))
    for m, products in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (9, 4)):
        calls.clear()
        A.power(x, m)
        assert len(calls) == products
    expected = list(A.unit)
    for m in range(20):
        assert A.power(x, m) == expected
        expected = mul(A, expected, x)
