import hashlib
import random

import pytest

from coalgkit import jsonio

from coalgkit.coalgebra import polynomial_quotient_algebra
from coalgkit.errors import MapsEqual
from coalgkit.fields import GF, QQ
from coalgkit.linalg import Matrix
from coalgkit.polys import Polynomial
from coalgkit.day import (
    DayPresheaf,
    DayTensor,
    NatTransform,
    identity_nat,
    is_day_morphism,
    one_object_algebra_category,
    poset_max_category,
    representable,
    cyclic_group_category,
    day_direct_sum,
    unit_day_coalgebra,
)
from coalgkit.dayclosure import (
    SubPresheaf,
    generated_day_subcoalgebra,
    invariant_closure,
    pure_closure,
    purity_kernels,
    separate_by_generator,
)
from coalgkit.oracles import (
    enumerate_subpresheaves,
    is_day_subcoalgebra_carrier,
    is_invariant_subpresheaf,
    is_pure_subpresheaf,
    minimal_enlargements,
)
from tests.test_day import _nilpotent_presheaf, _random_matrix, graded_dual_numbers

F2 = GF(2)
Z2 = cyclic_group_category(F2, 2)
P2 = poset_max_category(F2, 2)
OB = one_object_algebra_category(
    F2, polynomial_quotient_algebra(F2, Polynomial.from_ints(F2, [0, 0, 1]))
)


def poset_fixture():
    """M with a rank-1 restriction; N with a vanishing restriction; the line
    e2 at the bottom object forces a purity kernel at the top object."""
    res = Matrix.from_int_rows(F2, [[0, 0], [0, 1]])
    actM = {}
    for (a, b, i) in P2.all_basis_mors():
        actM[(a, b, i)] = Matrix.identity(F2, 2) if a == b else res
    M = DayPresheaf(P2, [2, 2], actM)
    actN = {}
    for (a, b, i) in P2.all_basis_mors():
        actN[(a, b, i)] = Matrix.identity(F2, 1) if a == b else Matrix.zeros(F2, 1, 1)
    N = DayPresheaf(P2, [1, 1], actN)
    return M, N


def test_subpresheaf_closure():
    M, _ = poset_fixture()
    sub = SubPresheaf.from_vectors(M, {1: [[0, 1]]})
    assert not sub.is_closed()
    closed = sub.close()
    assert closed.is_closed() and closed.dims() == [1, 1]


def test_pure_closure_trivial_cases():
    M, N = poset_fixture()
    full = SubPresheaf.full(M)
    assert pure_closure(M, full, N).dims() == full.dims()
    zero = SubPresheaf.zero(M)
    assert pure_closure(M, zero, N).total_dim() == 0


def test_pure_closure_poset_kernel():
    M, N = poset_fixture()
    M0 = SubPresheaf.from_vectors(M, {0: [[0, 1]]})
    kernels, _, _, _ = purity_kernels(M, M0.close(), N)
    assert any(k.dim > 0 for k in kernels)  # the line really forces a kernel
    closed = pure_closure(M, M0, N)
    assert is_pure_subpresheaf(M, closed, N)
    assert closed.dims() == [1, 1]
    # minimal among pure enlargements, by exhaustive search
    minimal = minimal_enlargements(
        M, M0.close(), lambda s: is_pure_subpresheaf(M, s, N)
    )
    assert any(closed.contains(m) and m.contains(closed) for m in minimal)


def test_pure_closure_one_object_module():
    """The classical non-flatness witness: xR inside R = k[t]/(t^2) against
    the residue module k kills x (x) 1, so purity forces all of R."""
    Mob = representable(OB, 0)  # R as a module over itself
    Nob = DayPresheaf(OB, [1], {(0, 0, 0): Matrix.identity(F2, 1), (0, 0, 1): Matrix.zeros(F2, 1, 1)})
    assert Nob.validate() == []
    M0 = SubPresheaf.from_vectors(Mob, {0: [[0, 1]]})  # the submodule xR
    assert M0.close().dims() == [1]
    kernels, _, _, _ = purity_kernels(Mob, M0.close(), Nob)
    assert [k.dim for k in kernels] == [1]
    closed = pure_closure(Mob, M0, Nob)
    assert closed.dims() == [2]
    assert is_pure_subpresheaf(Mob, closed, Nob)


def test_invariant_closure_examples():
    GD = graded_dual_numbers()
    fixed = invariant_closure(GD, SubPresheaf.from_vectors(GD.presheaf, {0: [[1]]}))
    assert fixed.dims() == [1, 0]
    grown = invariant_closure(GD, SubPresheaf.from_vectors(GD.presheaf, {1: [[1]]}))
    assert grown.dims() == [1, 1]
    assert is_invariant_subpresheaf(GD, grown)
    full = invariant_closure(GD, SubPresheaf.full(GD.presheaf))
    assert full.dims() == [1, 1]


def test_generated_day_subcoalgebra():
    GD = graded_dual_numbers()
    zero, _, sp0 = generated_day_subcoalgebra(GD, SubPresheaf.zero(GD.presheaf))
    assert sp0.total_dim() == 0 and zero.validate() == []

    line_g = SubPresheaf.from_vectors(GD.presheaf, {0: [[1]]})
    sub_g, incl_g, sp_g = generated_day_subcoalgebra(GD, line_g)
    assert sp_g.dims() == [1, 0]
    assert sub_g.validate() == []
    assert is_day_morphism(sub_g, GD, incl_g)

    line_t = SubPresheaf.from_vectors(GD.presheaf, {1: [[1]]})
    sub_t, incl_t, sp_t = generated_day_subcoalgebra(GD, line_t)
    assert sp_t.dims() == [1, 1]
    assert sub_t.validate() == []
    assert sp_t.contains(line_t.close())


def test_generated_minimality_exhaustive():
    GD = graded_dual_numbers()
    for assignment in ({0: [[1]]}, {1: [[1]]}, {}):
        M0 = SubPresheaf.from_vectors(GD.presheaf, assignment).close()
        _, _, spaces = generated_day_subcoalgebra(GD, M0)
        carriers = [
            s
            for s in enumerate_subpresheaves(GD.presheaf)
            if s.contains(M0) and is_day_subcoalgebra_carrier(GD, s)
        ]
        # no strictly smaller valid carrier sits inside our result
        for c in carriers:
            if spaces.contains(c) and c.dims() != spaces.dims():
                pytest.fail(f"smaller carrier {c.dims()} inside {spaces.dims()}")


def test_closures_follow_endomorphisms():
    """In the dual-numbers category the endomorphism x is not a scalar, so
    closing under restrictions must apply it: 1 + x in h_1 generates all of
    h_1, and the coproduct legs of x + x' in h_1 + h_1 all of it.  Each
    result is the only invariant sub-presheaf containing the seed."""
    H = unit_day_coalgebra(OB)
    for FC, vec, dims in ((H, [1, 1], [2]), (day_direct_sum(H, H), [0, 1, 0, 1], [4])):
        M0 = SubPresheaf.from_vectors(FC.presheaf, {0: [vec]})
        assert M0.close().is_closed()
        inv = invariant_closure(FC, M0)
        sub, incl, spaces = generated_day_subcoalgebra(FC, M0)
        assert inv.dims() == spaces.dims() == dims
        assert inv.is_closed() and spaces.is_closed()
        assert sub.validate() == [] and is_day_morphism(sub, FC, incl)
        assert [s.dims() for s in enumerate_subpresheaves(FC.presheaf)
                if s.contains(M0) and is_invariant_subpresheaf(FC, s)] == [dims]


def test_separate_by_generator():
    GD = graded_dual_numbers()
    eta = identity_nat(GD.presheaf)
    psi = NatTransform(
        GD.presheaf, GD.presheaf, [Matrix.identity(F2, 1), Matrix.zeros(F2, 1, 1)]
    )
    assert is_day_morphism(GD, GD, psi)
    subc, incl, spaces = separate_by_generator(GD, eta, psi)
    assert subc.validate() == []
    assert spaces.dims() == [1, 1]  # the witness line generates everything
    assert any(
        not (eta.at(U) @ incl.at(U) == psi.at(U) @ incl.at(U))
        for U in range(2)
    )
    with pytest.raises(MapsEqual):
        separate_by_generator(GD, eta, eta)


def _closure_examples():
    """(name, FC, seed assignments): the graded dual numbers of the examples
    above over F_2 and F_3 and direct sums of two and three copies (whose
    relations cancel), and the unit coalgebra h_1 of the dual numbers
    category, alone and doubled."""
    GD = graded_dual_numbers()
    GD3 = graded_dual_numbers(cyclic_group_category(GF(3), 2))
    GD2 = day_direct_sum(GD, GD)
    H = unit_day_coalgebra(OB)
    for name, FC in (("GD", GD), ("GD/F3", GD3), ("GD+GD", GD2), ("GD+GD+GD", day_direct_sum(GD2, GD))):
        d0, d1 = FC.presheaf.dims
        yield name, FC, [{}, {0: [[1] * d0]}, {1: [[1] * d1]},
                         {0: [[1] + [0] * (d0 - 1)], 1: [[0] * (d1 - 1) + [1]]}]
    yield "h1/dualnum", H, [{}, {0: [[0, 1]]}]
    yield "h1+h1/dualnum", day_direct_sum(H, H), [{0: [[0, 1, 0, 0]]}, {0: [[0, 0, 0, 1]]}]


def _pure_examples():
    """(name, M, M0, N): the purity examples above."""
    M, N = poset_fixture()
    yield "poset", M, SubPresheaf.from_vectors(M, {0: [[0, 1]]}), N
    yield "poset-top", M, SubPresheaf.from_vectors(M, {1: [[1, 1]]}), M
    Mob = representable(OB, 0)
    Nob = DayPresheaf(OB, [1], {(0, 0, 0): Matrix.identity(F2, 1), (0, 0, 1): Matrix.zeros(F2, 1, 1)})
    yield "dualnum", Mob, SubPresheaf.from_vectors(Mob, {0: [[0, 1]]}), Nob
    yield "dualnum-self", Mob, SubPresheaf.from_vectors(Mob, {0: [[0, 1]]}), Mob


def _spaces_json(sub):
    fld = sub.presheaf.category.field
    return [[jsonio.vector_to_json(fld, v) for v in s.vectors()] for s in sub.spaces]


# sha256 of the spaces of every closure of _closure_examples and
# _pure_examples, and of the coproduct of each generated subcoalgebra,
# recorded before the quotient was taken from the sparse relation columns
CLOSURE_SPACES_SHA256 = "0e45790e05f252e5e683c49678964e0c0379617994e96097c6d7c34cc5d1a1de"


def test_closure_spaces_golden_digest():
    h = hashlib.sha256()
    for name, FC, assignments in _closure_examples():
        for assignment in assignments:
            M0 = SubPresheaf.from_vectors(FC.presheaf, assignment)
            sub, _, spaces = generated_day_subcoalgebra(FC, M0)
            doc = {
                "fc": name,
                "seed": {str(U): v for U, v in assignment.items()},
                "invariant": _spaces_json(invariant_closure(FC, M0)),
                "generated": _spaces_json(spaces),
                "delta": [jsonio.matrix_to_json(m) for m in sub.delta.mats],
            }
            h.update(jsonio.canonical_json(doc).encode())
    for name, M, M0, N in _pure_examples():
        h.update(f"{name} {jsonio.canonical_json(_spaces_json(pure_closure(M, M0, N)))}\n".encode())
    assert h.hexdigest() == CLOSURE_SPACES_SHA256


def _chain_presheaf(cat, rng):
    """A random presheaf on a poset_max_category: a random restriction
    along each a -> a + 1 and their products along the longer morphisms."""
    fld, n = cat.field, cat.size
    dims = [rng.randint(0, 3) for _ in range(n)]
    steps = [_random_matrix(fld, rng, dims[a], dims[a + 1]) for a in range(n - 1)]
    actions = {}
    for a in range(n):
        M = Matrix.identity(fld, dims[a])
        for b in range(a, n):
            actions[(a, b, 0)] = M
            if b + 1 < n:
                M = M @ steps[b]
    return DayPresheaf(cat, dims, actions)


def _random_pure_examples():
    """(name, M, M0, N): 15 seeded random triples on each of the chains with
    2 and 3 objects and k[x]/(x^2), k[x]/(x^3), over F_2, F_3 and Q.  M0 is
    spanned by the images of one random vector under the endomorphisms of
    its object, so it is closed under them."""
    rng = random.Random(12)
    for fname, fld in (("F2", F2), ("F3", GF(3)), ("Q", QQ)):
        cats = [(f"chain{n}", poset_max_category(fld, n), _chain_presheaf) for n in (2, 3)]
        cats += [
            (f"x^{n}", one_object_algebra_category(
                fld, polynomial_quotient_algebra(fld, Polynomial.from_ints(fld, [0] * n + [1]))),
             _nilpotent_presheaf)
            for n in (2, 3)
        ]
        for name, cat, make in cats:
            for _ in range(15):
                M, N = make(cat, rng), make(cat, rng)
                objs = [U for U in range(cat.size) if M.dims[U]]
                seed = {}
                if objs:
                    U = rng.choice(objs)
                    v = [fld.random(rng) for _ in range(M.dims[U])]
                    seed[U] = [M.action(U, U, j).apply(v) for j in range(cat.hom_dim(U, U))]
                yield f"{name}/{fname}", M, SubPresheaf.from_vectors(M, seed), N


# sha256 of the pure_closure spaces of _random_pure_examples, recorded
# before the relation columns were cut to the one-sided (alpha, id) and
# (id, beta) pairs; pure_closure solves against the relation columns and
# reads their tags
RANDOM_PURE_CLOSURES_SHA256 = "17224a3d467f5d948d9bb92f14452f42bdbd4561d670ec2021996a138e44313d"


def test_random_pure_closures_golden_digest():
    h = hashlib.sha256()
    grown = 0
    for name, M, M0, N in _random_pure_examples():
        assert M.validate() == [] and N.validate() == [], name
        closed = pure_closure(M, M0, N)
        grown += closed.dims() != M0.close().dims()
        h.update(f"{name} {jsonio.canonical_json(_spaces_json(closed))}\n".encode())
    assert grown  # some closures grow past their seed
    assert h.hexdigest() == RANDOM_PURE_CLOSURES_SHA256


def test_generated_subcoalgebra_builds_no_second_square(monkeypatch):
    """The ambient square F (x) F is FC.conv: the closures build no other
    DayTensor(F, F), and pure_closure builds M (x) N once, not per round."""
    from coalgkit import dayclosure

    built = []

    def counting(F, G):
        built.append((F, G))
        return DayTensor(F, G)

    monkeypatch.setattr(dayclosure, "DayTensor", counting)
    H = unit_day_coalgebra(OB)
    FC = day_direct_sum(H, H)
    F = FC.presheaf
    generated_day_subcoalgebra(FC, SubPresheaf.from_vectors(F, {0: [[0, 1, 0, 0]]}))
    assert built and not any(a is F and b is F for a, b in built)

    M, N = poset_fixture()
    built.clear()
    pure_closure(M, SubPresheaf.from_vectors(M, {0: [[0, 1]]}), N)
    assert [(a, b) for a, b in built if a is M] == [(M, N)]


def _nilpotent_seeds():
    """10 seeded (FC, seed) pairs: h_1 or h_1 + h_1 over k[x]/(x^2) or
    k[x]/(x^3), over F_2 or F_3, where x acts nilpotently, seeded by one
    random vector."""
    rng = random.Random(19)
    for _ in range(10):
        fld = rng.choice([F2, GF(3)])
        n = rng.choice([2, 3])
        cat = one_object_algebra_category(
            fld, polynomial_quotient_algebra(fld, Polynomial.from_ints(fld, [0] * n + [1])))
        FC = unit_day_coalgebra(cat)
        if rng.random() < 0.5:
            FC = day_direct_sum(FC, FC)
        vec = [fld.random(rng) for _ in range(FC.presheaf.dims[0])]
        yield FC, SubPresheaf.from_vectors(FC.presheaf, {0: [vec]})


def test_generated_subcoalgebra_computes_each_object_once(monkeypatch):
    """One generated_day_subcoalgebra call realizes each sub-presheaf once
    and builds each convolution once: no spaces tuple reaches as_presheaf
    twice, and no DayTensor is built twice over equal presheaves or again
    over the carrier's, whose square FC.conv already is."""
    from coalgkit import dayclosure

    built, realized = [], []

    def counting(F, G):
        built.append((F, G))
        return DayTensor(F, G)

    as_presheaf = SubPresheaf.as_presheaf

    def recording(self):
        realized.append(tuple(self.spaces))
        return as_presheaf(self)

    monkeypatch.setattr(dayclosure, "DayTensor", counting)
    monkeypatch.setattr(SubPresheaf, "as_presheaf", recording)
    runs = [(FC, SubPresheaf.from_vectors(FC.presheaf, assignment))
            for _, FC, assignments in _closure_examples() for assignment in assignments]
    counts = [0, 0]
    for FC, M0 in runs + list(_nilpotent_seeds()):
        built.clear()
        realized.clear()
        generated_day_subcoalgebra(FC, M0)
        assert len(set(realized)) == len(realized)
        seen = [(FC.presheaf, FC.presheaf)]
        for pair in built:
            assert not any(pair[0] == F and pair[1] == G for F, G in seen)
            seen.append(pair)
        counts[0] += len(realized)
        counts[1] += len(built)
    assert min(counts) > 0


def test_day_closures_leave_no_cyclic_garbage():
    """The closures keep what they compute in a memo that dies with the
    call and holds no reference cycle, and the convolutions, internal homs
    and realizations hold none either: with DEBUG_SAVEALL every unreachable
    object would land in gc.garbage."""
    import gc

    from coalgkit import suites
    from coalgkit.day import internal_hom
    from tests.test_day import GENERIC_CATS, _seeded_pairs

    flags = gc.get_debug()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _, FC, assignments in _closure_examples():
            for assignment in assignments:
                M0 = SubPresheaf.from_vectors(FC.presheaf, assignment)
                generated_day_subcoalgebra(FC, M0)
                invariant_closure(FC, M0)
        for _, M, M0, N in _pure_examples():
            pure_closure(M, M0, N)
        for _, _, F, G in _seeded_pairs(suites._day_categories() + GENERIC_CATS):
            internal_hom(F, G)
        FC = M0 = M = N = F = G = None
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
