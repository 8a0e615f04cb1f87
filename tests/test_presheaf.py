import hashlib

import pytest

from coalgkit import jsonio
from coalgkit.coalgebra import (
    Coalgebra,
    CoalgebraMorphism,
    diagonal_coalgebra,
    dual_coalgebra,
    polynomial_quotient_algebra,
    trivial_coalgebra,
)
from coalgkit.fields import GF, QQ
from coalgkit.linalg import Matrix
from coalgkit.polys import Polynomial
from coalgkit.presheaf import (
    CoalgebraPresheaf,
    FiniteCategory,
    SetPresheaf,
    arrow_category,
    etale_subpresheaf,
    pointwise_coalgebra_presheaf,
    presheaf_gp_adjunction,
)

F2 = GF(2)


def dual_numbers():
    delta = Matrix.zeros(F2, 4, 2)
    delta.data[0][0] = 1
    delta.data[1][1] = 1
    delta.data[2][1] = 1
    return Coalgebra(F2, 2, delta, Matrix(F2, 1, 2, [[1, 0]]))


def arrow_presheaf(C0, C1, restriction):
    idx = arrow_category()
    return CoalgebraPresheaf(
        idx,
        [C0, C1],
        [
            CoalgebraMorphism(C0, C0, Matrix.identity(F2, C0.dim)),
            CoalgebraMorphism(C1, C1, Matrix.identity(F2, C1.dim)),
            CoalgebraMorphism(C1, C0, restriction),
        ],
    )


def test_finite_category_validation():
    from coalgkit.errors import ValidationError

    arrow_category()  # validates on construction
    # the one-object Z/2 category is fine
    FiniteCategory(
        ["0"], [("id0", 0, 0), ("e", 0, 0)], [0],
        {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0},
    )
    with pytest.raises(ValidationError):
        FiniteCategory(["0"], [("id0", 0, 0)], [0], {})  # missing id o id


def test_presheaf_validation():
    D = dual_numbers()
    k = trivial_coalgebra(F2)
    F = arrow_presheaf(k, D, D.epsilon)
    assert F.validate() == []
    # a non-morphism restriction is reported
    bad = arrow_presheaf(k, D, Matrix.from_int_rows(F2, [[0, 1]]))
    assert any(item[0] == "restriction-morphism" for item in bad.validate())


def test_etale_subpresheaf_constant_diagonal():
    X = diagonal_coalgebra(3, F2)
    F = arrow_presheaf(X, X, Matrix.identity(F2, 3))
    E, incl, split = etale_subpresheaf(F)
    assert [c.dim for c in E.sections] == [3, 3]
    assert incl.validate() == [] and split.validate() == []


def test_etale_subpresheaf_counit_restriction():
    D = dual_numbers()
    k = trivial_coalgebra(F2)
    F = arrow_presheaf(k, D, D.epsilon)
    E, incl, split = etale_subpresheaf(F)
    assert [c.dim for c in E.sections] == [1, 1]
    # idempotence: applying the construction again reproduces E on the nose
    E2, incl2, _ = etale_subpresheaf(E)
    assert E2.sections == E.sections
    assert all(a.matrix == b.matrix for a, b in zip(E2.restrictions, E.restrictions))
    assert all(
        c.matrix == Matrix.identity(F2, s.dim)
        for c, s in zip(incl2.components, E.sections)
    )


def test_etale_subpresheaf_component_permutation():
    # (F2 x F2)^dual with the restriction swapping its two group-likes:
    # the sectionwise splitting stays natural under the permutation
    A = polynomial_quotient_algebra(F2, Polynomial.from_ints(F2, [0, 1, 1]))
    C = dual_coalgebra(A)
    from coalgkit.coalgebra import validate
    from coalgkit.structure import group_likes

    gl = group_likes(C)
    B = Matrix.from_cols(F2, gl.elements, 2)
    P = Matrix.from_int_rows(F2, [[0, 1], [1, 0]])
    swap = B @ P @ B.inverse()
    phi = CoalgebraMorphism(C, C, swap)
    assert validate(phi) == []
    F = arrow_presheaf(C, C, swap)
    E, incl, split = etale_subpresheaf(F)
    assert incl.validate() == [] and split.validate() == []


def test_gp_adjunction_set_presheaf():
    idx = arrow_category()
    X = SetPresheaf(idx, [2, 3], [[0, 1], [0, 1, 2], [0, 1, 1]])
    assert X.validate() == []
    rep = presheaf_gp_adjunction(X=X, field=F2)
    assert rep["ok"]
    KX = pointwise_coalgebra_presheaf(X, F2)
    assert KX.validate() == []


def test_gp_unit_reports_a_missing_group_like(monkeypatch):
    """When the unit of a section misses a group-like (one root of one
    residue polynomial is dropped in the Galois adjunction at k/k), the X
    branch reports the unit as failed instead of raising."""
    from coalgkit import galois

    original = galois._roots_in_extension
    calls = []

    def dropping(D, poly):
        calls.append(poly)
        roots = original(D, poly)
        return roots[1:] if len(calls) == 1 else roots

    monkeypatch.setattr(galois, "_roots_in_extension", dropping)
    X = SetPresheaf(arrow_category(), [2, 3], [[0, 1], [0, 1, 2], [0, 1, 1]])
    rep = presheaf_gp_adjunction(X=X, field=F2)
    assert ("unit-sectionwise-bijective", False) in rep["checks"]
    assert rep["ok"] is False


def test_gp_counit_reports_a_missing_group_like(monkeypatch):
    """When the group-like search of the source section misses the image of a
    group-like of the target section, the F branch reports the counit as not
    natural instead of raising."""
    from coalgkit import presheaf
    from coalgkit.structure import GroupLikeSet

    original = presheaf.group_likes
    calls = []

    def dropping(C, **kwargs):
        found = original(C, **kwargs)
        calls.append(C)
        return GroupLikeSet(C, found.elements[:-1]) if len(calls) == 1 else found

    monkeypatch.setattr(presheaf, "group_likes", dropping)
    D = diagonal_coalgebra(2, F2)
    rep = presheaf_gp_adjunction(F=arrow_presheaf(D, D, Matrix.identity(F2, 2)))
    assert calls
    assert rep == {"checks": [("counit-sectionwise-valid", True), ("counit-lands-in-etale", True),
                              ("counit-natural", False), ("split-iso-onto-etale-sections", True)],
                   "ok": False}


def test_gp_adjunction_coalgebra_presheaf():
    D = dual_numbers()
    F = arrow_presheaf(D, D, Matrix.identity(F2, 2))
    rep = presheaf_gp_adjunction(F=F)
    assert rep["ok"]
    assert ("split-iso-onto-etale-sections", True) in rep["checks"]


def test_gp_adjunction_skips_iso_when_not_split():
    C4 = dual_coalgebra(
        polynomial_quotient_algebra(F2, Polynomial.from_ints(F2, [1, 1, 1]))
    )
    k = trivial_coalgebra(F2)
    F = arrow_presheaf(k, C4, C4.epsilon)
    rep = presheaf_gp_adjunction(F=F)
    assert rep["ok"]
    assert all(name != "split-iso-onto-etale-sections" for name, _ in rep["checks"])


def chain3_category():
    """Three objects 0 -> 1 -> 2 with the composite arrow."""
    return FiniteCategory(
        ["0", "1", "2"],
        [("id0", 0, 0), ("id1", 1, 1), ("id2", 2, 2), ("u", 0, 1), ("v", 1, 2), ("w", 0, 2)],
        [0, 1, 2],
        {
            (0, 0): 0, (1, 1): 1, (2, 2): 2,
            (3, 0): 3, (1, 3): 3,
            (4, 1): 4, (2, 4): 4,
            (5, 0): 5, (2, 5): 5,
            (4, 3): 5,
        },
    )


def test_gp_unit_checks_each_section_size_once(monkeypatch):
    """A section's unit report depends only on its size, so sections of
    equal size share one k/k check."""
    from coalgkit import presheaf

    original = presheaf.gp_adjunction_checks
    sizes = []

    def counting(**kwargs):
        sizes.append(kwargs["X"])
        return original(**kwargs)

    monkeypatch.setattr(presheaf, "gp_adjunction_checks", counting)
    X = SetPresheaf(chain3_category(), [2, 2, 3],
                    [[0, 1], [0, 1], [0, 1, 2], [1, 0], [0, 1, 1], [1, 0, 0]])
    assert X.validate() == []
    rep = presheaf_gp_adjunction(X=X, field=F2)
    assert sizes == [2, 3]
    assert rep == {"checks": [("unit-sectionwise-bijective", True), ("unit-natural", True)],
                   "ok": True}


def random_presheaves():
    """100 randomized presheaves over F_2 on the arrow and the three-object
    chain, restricting along the idempotent inclusion o retraction."""
    import random

    from coalgkit import corpus
    from coalgkit.coalgebra import validate
    from coalgkit.structure import etale_part

    rng = random.Random(61)
    arrow = arrow_category()
    chain = chain3_category()
    count = 0
    while count < 100:
        C = corpus.random_coalgebra(rng, F2, 4)
        data = etale_part(C)
        # the idempotent self-restriction given by inclusion o retraction
        proj = data.inclusion.matrix @ data.retraction.matrix
        phi = CoalgebraMorphism(C, C, proj)
        if validate(phi):
            continue
        if count % 2 == 0:
            F = arrow_presheaf(C, C, proj)
        else:
            ident = CoalgebraMorphism(C, C, Matrix.identity(F2, C.dim))
            projm = CoalgebraMorphism(C, C, proj)
            F = CoalgebraPresheaf(
                chain,
                [C, C, C],
                [ident, ident, ident, projm, projm,
                 CoalgebraMorphism(C, C, proj @ proj)],
            )
            assert F.validate() == []
        yield F
        count += 1


def test_random_presheaves_all_reports_clean():
    """Etale subpresheaf and adjunction reports stay clean on 100 randomized
    presheaves over index categories with up to three objects."""
    for F in random_presheaves():
        E, incl, split = etale_subpresheaf(F)
        assert incl.validate() == [] and split.validate() == []
        assert presheaf_gp_adjunction(F=F)["ok"]


# sha256 of the canonical presheaf gp-adjunction reports (both branches),
# recorded while the presheaf still ran its own sectionwise counit checks
PRESHEAF_GP_SHA256 = "6398009a458914e008b93a1edb69e3799cbb84f35276eba3af8547aecb76bb03"


def test_presheaf_gp_adjunction_golden_digest():
    X = SetPresheaf(arrow_category(), [2, 3], [[0, 1], [0, 1, 2], [0, 1, 1]])
    D = dual_numbers()
    C4 = dual_coalgebra(
        polynomial_quotient_algebra(F2, Polynomial.from_ints(F2, [1, 1, 1]))
    )
    reports = [
        presheaf_gp_adjunction(X=X, field=F2),
        presheaf_gp_adjunction(F=arrow_presheaf(D, D, Matrix.identity(F2, 2))),
        presheaf_gp_adjunction(F=arrow_presheaf(trivial_coalgebra(F2), C4, C4.epsilon)),
    ]
    reports += [presheaf_gp_adjunction(F=F) for F in random_presheaves()]
    h = hashlib.sha256()
    for rep in reports:
        h.update(jsonio.canonical_json(rep).encode())
    assert h.hexdigest() == PRESHEAF_GP_SHA256


def unit_presheaves():
    """Set presheaves with an empty section and with maps that are not
    injective, on the arrow and the three-object chain."""
    arrow = arrow_category()
    chain = chain3_category()
    return [
        SetPresheaf(arrow, [3, 0], [[0, 1, 2], [], []]),
        SetPresheaf(arrow, [0, 0], [[], [], []]),
        SetPresheaf(arrow, [2, 4], [[0, 1], [0, 1, 2, 3], [1, 0, 0, 1]]),
        SetPresheaf(arrow, [1, 3], [[0], [0, 1, 2], [0, 0, 0]]),
        SetPresheaf(chain, [2, 3, 0], [[0, 1], [0, 1, 2], [], [1, 1, 0], [], []]),
        SetPresheaf(chain, [2, 3, 4], [[0, 1], [0, 1, 2], [0, 1, 2, 3], [1, 1, 0],
                                       [2, 0, 0, 1], [0, 1, 1, 1]]),
    ]


# sha256 of the X-branch reports on unit_presheaves() over F_2 and Q, recorded
# while the branch still searched each section for its group-likes
PRESHEAF_UNIT_SHA256 = "27b351b53711e9d0dd8216927a8053051fcb8a17fb3e62e42849f6cac9b2bf3c"


def test_presheaf_gp_unit_golden_digest():
    h = hashlib.sha256()
    for field in (F2, QQ):
        for X in unit_presheaves():
            assert X.validate() == []
            h.update(jsonio.canonical_json(presheaf_gp_adjunction(X=X, field=field)).encode())
    assert h.hexdigest() == PRESHEAF_UNIT_SHA256
