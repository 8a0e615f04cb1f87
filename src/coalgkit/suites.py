"""Property-based verification suites.

Each suite function takes a seed (and size knobs), returns a JSON-ready
report {"suite", "seed", "counts", "failures", "ok"}, and is deterministic
for a fixed seed: rerunning must produce byte-identical canonical JSON.
run_all executes every suite at its default scale.
"""


from . import corpus as corpus_mod
from . import day as day_mod
from . import dayclosure as closure_mod
from . import galois as galois_mod
from . import oracles
from . import structure as structure_mod
from .coalgebra import (
    dual_coalgebra,
    generated_subcoalgebra,
    polynomial_quotient_algebra,
    validate,
)
from .fields import GF
from .linalg import Matrix, Subspace
from .polys import Polynomial
from .seeding import derived_rng

_corpus_cache = {}


def _corpus(seed, count):
    key = (seed, count)
    if key not in _corpus_cache:
        _corpus_cache[key] = corpus_mod.corpus(seed, count)
    return _corpus_cache[key]


def _report(name, seed, counts, failures):
    return {
        "suite": name,
        "seed": seed,
        "counts": counts,
        "failures": failures[:20],
        "ok": not failures,
    }


# 1 -- axiom suite -----------------------------------------------------------


def suite_axioms(seed=0, count=1000, morphisms=200):
    failures = []
    instances = _corpus(seed, count)
    for i, C in enumerate(instances):
        bad = validate(C)
        if bad:
            failures.append(["coalgebra", i, str(bad[:2])])
    rng = derived_rng(seed, "morphisms")
    fields = corpus_mod.corpus_fields()
    for i in range(morphisms):
        phi = corpus_mod.random_morphism(rng, fields[i % len(fields)], 6)
        bad = validate(phi)
        if bad:
            failures.append(["morphism", i, str(bad[:2])])
    return _report(
        "axioms", seed, {"coalgebras": count, "morphisms": morphisms}, failures
    )


# 2 -- fundamental theorem oracle -------------------------------------------


def suite_ftc(seed=0, count=200):
    failures = []
    rng = derived_rng(seed, "ftc")
    F2 = GF(2)
    done = 0
    while done < count:
        C = corpus_mod.random_coalgebra(rng, F2, 4)
        if C.dim > 4 or C.dim == 0:
            continue
        k = rng.randint(1, 2)
        vecs = [corpus_mod.random_vector(rng, F2, C.dim, True) for _ in range(k)]
        S = Subspace.from_vectors(F2, C.dim, vecs)
        D, incl = generated_subcoalgebra(C, S)
        span = incl.image()
        minimal = oracles.minimal_subcoalgebra(C, S)
        if minimal is None or span != minimal:
            failures.append(["ftc", done, C.dim])
        done += 1
    return _report("ftc-oracle", seed, {"instances": count}, failures)


# 3 -- etale / retraction suite ----------------------------------------------


def suite_etale(seed=0, count=1000, morphisms=200):
    failures = []
    instances = _corpus(seed, count)
    for i, C in enumerate(instances):
        data = structure_mod.etale_part(C)
        ident = Matrix.identity(C.field, data.etale.dim)
        if not (data.retraction.matrix @ data.inclusion.matrix == ident):
            failures.append(["retract", i])
        if validate(data.inclusion) or validate(data.retraction):
            failures.append(["morphisms", i])
        again = structure_mod.etale_part(data.etale)
        if again.etale != data.etale or not (
            again.inclusion.matrix == Matrix.identity(C.field, data.etale.dim)
        ):
            failures.append(["idempotent", i])
        comps, iso = structure_mod.irreducible_components(C)
        if validate(iso) or iso.matrix.rank() != C.dim:
            failures.append(["component-sum", i])
        if sum(c.dim for c, _ in comps) != C.dim:
            failures.append(["component-dims", i])
    rng = derived_rng(seed, "etale-morphisms")
    fields = corpus_mod.corpus_fields()
    for i in range(morphisms):
        phi = corpus_mod.random_morphism(rng, fields[i % len(fields)], 5)
        rep = structure_mod.naturality_suite(phi)
        if not rep["ok"]:
            failures.append(["naturality", i, str(rep["checks"])])
    return _report(
        "etale-retraction", seed, {"coalgebras": count, "morphisms": morphisms}, failures
    )


# 4 -- group-like oracle -------------------------------------------------------


def suite_grouplike(seed=0, count=1000, bound=10**4):
    failures = []
    instances = _corpus(seed, count)
    checked = 0
    for i, C in enumerate(instances):
        data = structure_mod.etale_part(C)
        gl = structure_mod.group_likes(C, data)
        order = C.field.order
        if order is not None and order**C.dim <= bound:
            brute = structure_mod.brute_force_group_likes(C)
            if {tuple(v) for v in gl.elements} != {tuple(v) for v in brute.elements}:
                failures.append(["enumeration", i])
            checked += 1
        splits = [c.residue.dim for c in data.decomposition.components]
        if len(gl.elements) != sum(1 for d in splits if d == 1):
            failures.append(["count-vs-components", i])
        rep = structure_mod.gp_adjunction_checks(C=C)
        if not rep["ok"]:
            failures.append(["gp-adjunction", i, str(rep["checks"])])
    for size in (1, 2, 3):
        for field in corpus_mod.corpus_fields():
            rep = structure_mod.gp_adjunction_checks(X=size, field=field)
            if not rep["ok"]:
                failures.append(["unit", size, repr(field)])
    return _report(
        "group-like", seed, {"coalgebras": count, "enumerated": checked}, failures
    )


# 5 -- Hensel witness ----------------------------------------------------------


def suite_hensel(seed=0):
    failures = []
    F2 = GF(2)
    p = Polynomial.from_ints(F2, [1, 1, 1])
    A = polynomial_quotient_algebra(F2, p * p)
    # exhaustive root search over all 16 elements
    roots = []
    for bits in range(16):
        x = [(bits >> k) & 1 for k in range(4)]
        if all(F2.is_zero(c) for c in A.eval_poly(p, x)):
            roots.append(x)
    lifted = structure_mod.hensel_lift_root(A, p, [0, 1, 0, 0])
    if lifted != [1, 0, 1, 0]:
        failures.append(["lifted-root", lifted])
    dec = structure_mod.local_decomposition(A)
    expected_congruent = [r for r in roots if dec.components[0].radical.contains_vector(
        [F2.sub(a, b) for a, b in zip(r, [0, 1, 0, 0])]
    )]
    if expected_congruent != [[1, 0, 1, 0]]:
        failures.append(["unique-congruent-root", expected_congruent])
    comp = dec.components[0]
    if len(dec.components) != 1 or comp.dim != 4 or comp.residue.dim != 2:
        failures.append(["decomposition-shape"])
    w = structure_mod.wedderburn_splitting(comp)
    K_span = Subspace.from_vectors(
        F2, 4, [w.embedding.col(j) for j in range(w.embedding.cols)]
    )
    expected_K = Subspace.from_vectors(F2, 4, [[1, 0, 0, 0], [1, 0, 1, 0]])
    if K_span != expected_K:
        failures.append(["subfield", K_span.basis.data])
    stacked = Matrix.from_cols(
        F2, [w.embedding.col(j) for j in range(2)] + comp.radical.vectors(), 4
    )
    if stacked.rank() != 4:
        failures.append(["K-plus-m"])
    if validate(w.field_datum.as_algebra):
        failures.append(["residue-algebra"])
    return _report("hensel-witness", seed, {"roots": len(roots)}, failures)


# 6 -- Galois adjunction --------------------------------------------------------


def _galois_data():
    return [
        ("F4/F2", galois_mod.frobenius_galois_datum(2, [1, 1, 1])),
        ("F8/F2", galois_mod.frobenius_galois_datum(2, [1, 1, 0, 1])),
        ("F9/F3", galois_mod.frobenius_galois_datum(3, [1, 0, 1])),
        ("F16/F2", galois_mod.frobenius_galois_datum(2, [1, 1, 0, 0, 1])),
    ]


def _gsets_up_to(D, max_size):
    """Iso classes of G-sets of size <= max_size: multisets of coset orbits."""
    subgroups = D.subgroups()
    orbit_types = [(D.size // len(H), H) for H in subgroups]
    out = []

    def extend(prefix, start, remaining):
        if prefix:
            out.append(list(prefix))
        for idx in range(start, len(orbit_types)):
            size, H = orbit_types[idx]
            if size <= remaining:
                extend(prefix + [idx], idx, remaining - size)

    extend([], 0, max_size)
    gsets = []
    for combo in out:
        parts = [galois_mod.coset_gset(D, orbit_types[i][1]) for i in combo]
        gsets.append(galois_mod.disjoint_union(D, parts))
    return gsets


def suite_galois(seed=0, counit_count=100, unit_size=6, faithful_size=4):
    failures = []
    data = _galois_data()
    unit_checked = 0
    for name, D in data:
        for H in D.subgroups():
            fixed = galois_mod.fixed_field(D, H)
            if fixed.dim != D.size // len(H):
                failures.append(["fixed-field-degree", name, H])
        subs = D.subgroups()
        for i, H1 in enumerate(subs):
            for H2 in subs:
                if set(H1) <= set(H2):
                    f1 = galois_mod.fixed_field(D, H1)
                    f2 = galois_mod.fixed_field(D, H2)
                    span1 = f1.embedding.column_space()
                    span2 = f2.embedding.column_space()
                    if not span1.contains(span2):
                        failures.append(["correspondence", name, H1, H2])
        for X in _gsets_up_to(D, unit_size):
            rep = galois_mod.adjunction_checks(D, X=X)
            unit_checked += 1
            if not rep["ok"]:
                failures.append(["unit", name, X.size, str(rep["checks"])])
    rng = derived_rng(seed, "galois-counit")
    per = max(1, counit_count // len(data))
    counit_checked = 0
    for name, D in data:
        degree = D.size
        divisors = [d for d in range(1, degree + 1) if degree % d == 0]
        for i in range(per):
            dim = rng.randint(1, 5)
            A = corpus_mod.random_subfield_compatible_algebra(
                rng, D.base, dim, divisors
            )
            C = dual_coalgebra(A)
            rep = galois_mod.adjunction_checks(D, C=C)
            counit_checked += 1
            if not rep["ok"]:
                failures.append(["counit", name, i, str(rep["checks"])])
    faithful_checked = 0
    for name, D in data:
        small = [X for X in _gsets_up_to(D, faithful_size)]
        for X in small:
            for Y in small:
                maps = galois_mod.equivariant_maps(D, X, Y)
                kX = galois_mod.kbar_functor(D, X)
                kY = galois_mod.kbar_functor(D, Y)
                keys = set()
                for f in maps:
                    keys.add(galois_mod.kbar_on_map(D, f, kX, kY).matrix.sort_key())
                faithful_checked += len(maps)
                if len(keys) != len(maps):
                    failures.append(["faithful", name, X.size, Y.size])
    return _report(
        "galois-adjunction",
        seed,
        {
            "unit-gsets": unit_checked,
            "counit-coalgebras": counit_checked,
            "map-pairs": faithful_checked,
        },
        failures,
    )


# 7 -- Day convolution suite ----------------------------------------------------


def _day_categories():
    F2, F3 = GF(2), GF(3)
    cats = [
        ("Z2", day_mod.cyclic_group_category(F2, 2)),
        ("Z3", day_mod.cyclic_group_category(F3, 3)),
        ("poset2", day_mod.poset_max_category(F2, 2)),
        (
            "dualnum",
            day_mod.one_object_algebra_category(
                F2, polynomial_quotient_algebra(F2, Polynomial.from_ints(F2, [0, 0, 1]))
            ),
        ),
    ]
    return cats


def _random_day_presheaf(cat, rng, maxdim=2):
    """A valid random presheaf: free on chosen generator dims.

    For the categories in play (group-discrete, chain posets, one object)
    a presheaf is determined by choosing actions along the generating
    morphisms; we build one and discard invalid draws.
    """
    fld = cat.field
    for _ in range(40):
        dims = [rng.randint(0, maxdim) for _ in range(cat.size)]
        actions = {}
        ok = True
        for (a, b, i) in cat.all_basis_mors():
            if a == b and cat.hom_dim(a, a) == 1:
                actions[(a, b, i)] = Matrix.identity(fld, dims[a])
            else:
                actions[(a, b, i)] = Matrix(
                    fld,
                    dims[a],
                    dims[b],
                    [[fld.random(rng) for _ in range(dims[b])] for _ in range(dims[a])],
                )
        F = day_mod.DayPresheaf(cat, dims, actions)
        if not F.validate():
            return F
    return day_mod.representable(cat, cat.unit)


def suite_day(seed=0, hom_triples=50, iso_rounds=6):
    failures = []
    cats = _day_categories()
    yoneda_pairs = 0
    for name, cat in cats:
        bad = cat.validate()
        if bad:
            failures.append(["category", name, str(bad[:3])])
        for X in range(cat.size):
            for Y in range(cat.size):
                hX = day_mod.representable(cat, X)
                hY = day_mod.representable(cat, Y)
                T = day_mod.day_convolve(hX, hY)
                fwd, back = day_mod.yoneda_iso(T, X, Y)
                yoneda_pairs += 1
                if not (fwd.is_natural() and back.is_natural()):
                    failures.append(["yoneda-natural", name, X, Y])
                if not (fwd.compose(back).is_identity() and back.compose(fwd).is_identity()):
                    failures.append(["yoneda-iso", name, X, Y])
    rng = derived_rng(seed, "day-graded")
    F3 = GF(3)
    for n, fld in ((2, GF(2)), (3, F3)):
        cat = day_mod.cyclic_group_category(fld, n)
        for _ in range(5):
            F = _random_day_presheaf(cat, rng, 3)
            G = _random_day_presheaf(cat, rng, 3)
            T = day_mod.day_convolve(F, G)
            for z in range(n):
                expect = sum(F.dims[x] * G.dims[(z - x) % n] for x in range(n))
                if T.dim(z) != expect:
                    failures.append(["graded-dims", n, z])
    rng = derived_rng(seed, "day-hom")
    done = 0
    cat_cycle = [c for _, c in cats]
    while done < hom_triples:
        cat = cat_cycle[done % len(cat_cycle)]
        F = _random_day_presheaf(cat, rng)
        G = _random_day_presheaf(cat, rng)
        H = _random_day_presheaf(cat, rng)
        T = day_mod.day_convolve(F, G)
        IH = day_mod.internal_hom(G, H)
        lhs = len(day_mod.nat_space(T.presheaf, H))
        rhs = len(day_mod.nat_space(F, IH.presheaf))
        if lhs != rhs:
            failures.append(["hom-tensor-dim", done, lhs, rhs])
        done += 1
    rng = derived_rng(seed, "day-isos")
    for i in range(iso_rounds):
        name, cat = cats[i % len(cats)]
        F = _random_day_presheaf(cat, rng)
        G = _random_day_presheaf(cat, rng)
        H = _random_day_presheaf(cat, rng)
        h1 = day_mod.representable(cat, cat.unit)
        TH = day_mod.day_convolve(F, h1)
        lam = day_mod.unit_right_iso(TH)
        if not lam.is_natural() or any(
            lam.at(U).rank() != F.dims[U] or TH.dim(U) != F.dims[U]
            for U in range(cat.size)
        ):
            failures.append(["unit-law", name, i])
        TFG = day_mod.day_convolve(F, G)
        TGF = day_mod.day_convolve(G, F)
        s1 = day_mod.symmetry_iso(TFG, TGF)
        s2 = day_mod.symmetry_iso(TGF, TFG)
        if not s1.is_natural() or not s2.compose(s1).is_identity():
            failures.append(["symmetry", name, i])
        TFG_H = day_mod.day_convolve(TFG.presheaf, H)
        TGH = day_mod.day_convolve(G, H)
        TF_GH = day_mod.day_convolve(F, TGH.presheaf)
        assoc = day_mod.associator_iso(TFG, TFG_H, TGH, TF_GH)
        if not assoc.is_natural():
            failures.append(["assoc-natural", name, i])
        if any(
            assoc.at(U).rank() != TFG_H.dim(U) or TFG_H.dim(U) != TF_GH.dim(U)
            for U in range(cat.size)
        ):
            failures.append(["assoc-iso", name, i])
    # explicit unit/counit of the hom-tensor adjunction on an instance
    cat = cats[0][1]
    F = day_mod.representable(cat, 1)
    G = day_mod.representable(cat, 1)
    T = day_mod.day_convolve(F, G)
    IH = day_mod.internal_hom(G, T.presheaf)
    unit_mats = []
    ok_unit = True
    for U in range(cat.size):
        cols = []
        for s in range(F.dims[U]):
            family = [None] * cat.size
            raw = [cat.field.zero] * IH.bases[U].ambient
            for X in range(cat.size):
                idmor = cat.id_mor(cat.tensor_obj[U][X])
                for t in range(G.dims[X]):
                    svec = [cat.field.one if j == s else cat.field.zero for j in range(F.dims[U])]
                    tvec = [cat.field.one if j == t else cat.field.zero for j in range(G.dims[X])]
                    val = T.insert(cat.tensor_obj[U][X], U, X, idmor[2], svec, tvec)
                    off = IH.offsets[U][X]
                    for r, v in enumerate(val):
                        raw[off + r * G.dims[X] + t] = v
            coords = IH.bases[U].coordinates(raw)
            if coords is None:
                ok_unit = False
                coords = [cat.field.zero] * IH.bases[U].dim
            cols.append(coords)
        unit_mats.append(Matrix.from_cols(cat.field, cols, IH.bases[U].dim))
    unit = day_mod.NatTransform(F, IH.presheaf, unit_mats)
    if not ok_unit or not unit.is_natural():
        failures.append(["adjunction-unit"])
    return _report(
        "day-convolution",
        seed,
        {"yoneda-pairs": yoneda_pairs, "hom-triples": hom_triples},
        failures,
    )


# 8 -- closure suite -------------------------------------------------------------


def _graded_dual_numbers(cat):
    fld = cat.field
    dims = [1, 1]
    actions = {}
    for (a, b, i) in cat.all_basis_mors():
        actions[(a, b, i)] = Matrix.identity(fld, dims[a])
    F = day_mod.DayPresheaf(cat, dims, actions)
    conv = day_mod.DayTensor(F, F)
    mats = [
        Matrix.from_cols(fld, [conv.insert(0, 0, 0, [fld.one], [fld.one], [fld.one])], conv.dim(0))
    ]
    dt1 = conv.insert(1, 0, 1, [fld.one], [fld.one], [fld.one])
    dt2 = conv.insert(1, 1, 0, [fld.one], [fld.one], [fld.one])
    mats.append(
        Matrix.from_cols(fld, [[fld.add(a, b) for a, b in zip(dt1, dt2)]], conv.dim(1))
    )
    delta = day_mod.NatTransform(F, conv.presheaf, mats)
    h1 = day_mod.representable(cat, cat.unit)
    eps = day_mod.NatTransform(
        F, h1, [Matrix.from_int_rows(fld, [[1]]), Matrix.zeros(fld, 0, 1)]
    )
    return day_mod.DayCoalgebra(F, delta, eps, conv)


def _closure_fixtures():
    F2 = GF(2)
    Z2 = day_mod.cyclic_group_category(F2, 2)
    fixtures = {"Z2": Z2, "graded": _graded_dual_numbers(Z2)}
    P2 = day_mod.poset_max_category(F2, 2)
    res = Matrix.from_int_rows(F2, [[0, 0], [0, 1]])
    actM = {}
    for (a, b, i) in P2.all_basis_mors():
        actM[(a, b, i)] = Matrix.identity(F2, 2) if a == b else res
    fixtures["posetM"] = day_mod.DayPresheaf(P2, [2, 2], actM)
    actN = {}
    for (a, b, i) in P2.all_basis_mors():
        actN[(a, b, i)] = Matrix.identity(F2, 1) if a == b else Matrix.zeros(F2, 1, 1)
    fixtures["posetN"] = day_mod.DayPresheaf(P2, [1, 1], actN)
    OB = day_mod.one_object_algebra_category(
        F2, polynomial_quotient_algebra(F2, Polynomial.from_ints(F2, [0, 0, 1]))
    )
    fixtures["OB"] = OB
    # free rank-1 module over k[t]/(t^2) and its residue module
    fixtures["obM"] = day_mod.representable(OB, 0)
    actK = {(0, 0, 0): Matrix.identity(F2, 1), (0, 0, 1): Matrix.zeros(F2, 1, 1)}
    fixtures["obN"] = day_mod.DayPresheaf(OB, [1], actK)
    return fixtures


def suite_closure(seed=0, separation_pairs=50):
    failures = []
    fx = _closure_fixtures()
    F2 = GF(2)
    # purity: poset instance with a genuine kernel
    M, N = fx["posetM"], fx["posetN"]
    M0 = closure_mod.SubPresheaf.from_vectors(M, {0: [[0, 1]]})
    closed = closure_mod.pure_closure(M, M0, N)
    if not oracles.is_pure_subpresheaf(M, closed, N):
        failures.append(["pure-predicate", "poset"])
    if closed.dims() == M0.close().dims():
        failures.append(["pure-growth", "poset"])
    minimal = oracles.minimal_enlargements(
        M, M0.close(), lambda sub: oracles.is_pure_subpresheaf(M, sub, N)
    )
    if not any(closed.dims() == m.dims() and closed.contains(m) and m.contains(closed) for m in minimal):
        failures.append(["pure-minimality", "poset"])
    # purity: one-object k[t]/(t^2): xR inside R against the residue module
    Mob, Nob = fx["obM"], fx["obN"]
    M0ob = closure_mod.SubPresheaf.from_vectors(Mob, {0: [[0, 1]]})
    kers, _, _, _ = closure_mod.purity_kernels(Mob, M0ob.close(), Nob)
    if all(k.dim == 0 for k in kers):
        failures.append(["pure-kernel-expected", "one-object"])
    closed_ob = closure_mod.pure_closure(Mob, M0ob, Nob)
    if not oracles.is_pure_subpresheaf(Mob, closed_ob, Nob):
        failures.append(["pure-predicate", "one-object"])
    if closed_ob.dims() != [2]:
        failures.append(["pure-closure-size", "one-object", closed_ob.dims()])
    # trivial purity cases
    full = closure_mod.SubPresheaf.full(M)
    if closure_mod.pure_closure(M, full, N).dims() != full.dims():
        failures.append(["pure-full"])
    zero = closure_mod.SubPresheaf.zero(M)
    if closure_mod.pure_closure(M, zero, N).total_dim() != 0:
        failures.append(["pure-zero"])
    # invariance and generation on the graded coalgebra
    GD = fx["graded"]
    inv_cases = [
        ({0: [[1]]}, [1, 0]),
        ({1: [[1]]}, [1, 1]),
        ({}, [0, 0]),
    ]
    for assignment, expected in inv_cases:
        M0g = closure_mod.SubPresheaf.from_vectors(GD.presheaf, assignment)
        inv = closure_mod.invariant_closure(GD, M0g)
        if not oracles.is_invariant_subpresheaf(GD, inv):
            failures.append(["invariant-predicate", str(assignment)])
        if inv.dims() != expected:
            failures.append(["invariant-size", str(assignment), inv.dims()])
        sub, incl, spaces = closure_mod.generated_day_subcoalgebra(GD, M0g)
        if sub.validate():
            failures.append(["generated-validate", str(assignment)])
        if not spaces.contains(M0g.close()):
            failures.append(["generated-contains", str(assignment)])
        if not day_mod.is_day_morphism(sub, GD, incl):
            failures.append(["generated-inclusion", str(assignment)])
        carriers = oracles.minimal_enlargements(
            GD.presheaf,
            M0g.close(),
            lambda s: oracles.is_day_subcoalgebra_carrier(GD, s),
        )
        if not any(spaces.dims() == c.dims() and spaces.contains(c) for c in carriers):
            failures.append(["generated-minimality", str(assignment)])
    # separation on random pairs of distinct Day morphisms
    rng = derived_rng(seed, "separation")
    Z2 = fx["Z2"]
    unitC = day_mod.unit_day_coalgebra(Z2)
    pool_sources = [
        GD,
        unitC,
        day_mod.day_direct_sum(unitC, GD),
        day_mod.day_direct_sum(GD, GD),
    ]
    morphism_pool = []
    for FC1 in pool_sources:
        for FC2 in pool_sources:
            basis = day_mod.nat_space(FC1.presheaf, FC2.presheaf)
            found = []
            for combo in range(1, min(2 ** len(basis), 256)):
                mats = None
                for bit, base in enumerate(basis):
                    if not (combo >> bit) & 1:
                        continue
                    if mats is None:
                        mats = base.mats
                    else:
                        mats = [a + b for a, b in zip(mats, base.mats)]
                nat = day_mod.NatTransform(FC1.presheaf, FC2.presheaf, mats)
                if day_mod.is_day_morphism(FC1, FC2, nat):
                    found.append(nat)
                if len(found) >= 5:
                    break
            for nat in found:
                morphism_pool.append((FC1, FC2, nat))
    by_signature = {}
    for FC1, FC2, nat in morphism_pool:
        by_signature.setdefault((id(FC1), id(FC2)), []).append((FC1, FC2, nat))
    eligible = [group for group in by_signature.values() if len(group) >= 2]
    pairs_done = 0
    while pairs_done < separation_pairs and eligible:
        group = eligible[pairs_done % len(eligible)]
        eta_entry, psi_entry = rng.sample(group, 2)
        FC1, FC2, eta = eta_entry
        psi = psi_entry[2]
        if eta == psi:
            continue
        try:
            subc, incl, spaces = closure_mod.separate_by_generator(FC1, eta, psi)
        except Exception as exc:
            failures.append(["separation-error", type(exc).__name__])
            pairs_done += 1
            continue
        pairs_done += 1
        if subc.validate():
            failures.append(["separation-validate", pairs_done])
        if not any(
            not (eta.at(U) @ incl.at(U) == psi.at(U) @ incl.at(U))
            for U in range(FC1.category.size)
        ):
            failures.append(["separation-still-equal", pairs_done])
    if pairs_done < separation_pairs:
        failures.append(["separation-pool-exhausted", pairs_done])
    return _report(
        "closure", seed, {"separation-pairs": pairs_done}, failures
    )


# 9 -- determinism ---------------------------------------------------------------


def suite_determinism(seed=0):
    """Every suite, rerun with the same seed, must emit byte-identical JSON."""
    from .jsonio import canonical_json

    failures = []
    runs = [
        ("axioms", lambda: suite_axioms(seed, count=48, morphisms=12)),
        ("ftc", lambda: suite_ftc(seed, count=12)),
        ("etale", lambda: suite_etale(seed, count=48, morphisms=12)),
        ("grouplike", lambda: suite_grouplike(seed, count=48)),
        ("hensel", lambda: suite_hensel(seed)),
        ("galois", lambda: suite_galois(seed, counit_count=8, unit_size=4, faithful_size=2)),
        ("day", lambda: suite_day(seed, hom_triples=6, iso_rounds=2)),
        ("closure", lambda: suite_closure(seed, separation_pairs=6)),
    ]
    for name, run in runs:
        _corpus_cache.clear()
        first = canonical_json(run())
        _corpus_cache.clear()
        second = canonical_json(run())
        if first != second:
            failures.append(["nondeterministic", name])
    return _report("determinism", seed, {"suites": len(runs)}, failures)


SUITES = {
    "axioms": suite_axioms,
    "ftc": suite_ftc,
    "etale": suite_etale,
    "grouplike": suite_grouplike,
    "hensel": suite_hensel,
    "galois": suite_galois,
    "day": suite_day,
    "closure": suite_closure,
    "determinism": suite_determinism,
}


def run_all(seed=0, names=None):
    reports = []
    for name in names or list(SUITES):
        reports.append(SUITES[name](seed))
    return {
        "schema": "coalgkit/1",
        "type": "suite-report",
        "seed": seed,
        "reports": reports,
        "ok": all(r["ok"] for r in reports),
    }
