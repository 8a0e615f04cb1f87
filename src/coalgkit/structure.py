"""Structure theory: radicals, local decomposition, Wedderburn splitting,
etale part, irreducible components, group-like elements.

Everything runs through the duality with Artinian algebras: a coalgebra C is
decomposed by decomposing A = C^dual into local pieces via idempotents, and
every piece of data is transported back by transposing.

The radical is computed characteristic-aware: over Q it is the kernel of the
trace form (a, b) -> tr(mult_ab); in characteristic p that form can vanish
identically (already on F_2[x]/(x^2)), so there we use the kernel of the
additive map x -> x^(p^m) with p^m >= dim, linearized through a coordinate
Frobenius substitution.  Both are exact over the implemented perfect fields.
"""


from .coalgebra import (
    ArtinAlgebra,
    Coalgebra,
    CoalgebraMorphism,
    diagonal_coalgebra,
    direct_sum,
    dual_algebra,
    dual_coalgebra,
    polynomial_quotient_algebra,
    std_basis,
)
from .errors import ComputationError, NonSeparableResidue, ValidationError
from .factor import factor_polynomial
from .linalg import Matrix, Subspace, minimal_polynomial, quotient_maps
from .polys import Polynomial
from .seeding import derived_rng

_SEARCH_SEED = 20870  # fixed seed for primitive-element / splitting searches
_EXHAUSTIVE_BOUND = 1 << 16


def radical(A):
    """Jacobson radical (= nilpotent elements) as a subspace of A."""
    F = A.field
    n = A.dim
    if n == 0:
        return Subspace.zero(F, 0)
    p = F.characteristic
    if p == 0:
        G = _trace_form(A)
        return G.kernel()
    m = 1
    power = p
    while power < n:
        power *= p
        m += 1
    basis = std_basis(F, n)
    P = Matrix.from_cols(F, [A.power(b, power) for b in basis], n)
    vectors = []
    for v in P.kernel().vectors():
        w = v
        for _ in range(m):
            w = [F.pth_root(c) for c in w]
        vectors.append(w)
    return Subspace.from_vectors(F, n, vectors)


def _trace_form(A):
    F = A.field
    n = A.dim
    basis = std_basis(F, n)
    traces = [A.mult_matrix(b).trace() for b in basis]
    table = A.table()
    G = Matrix.zeros(F, n, n)
    for i in range(n):
        for j in range(i, n):
            acc = F.zero
            prod = table[i][j]
            for t in range(n):
                if not F.is_zero(prod[t]):
                    acc = F.add(acc, F.mul(prod[t], traces[t]))
            G.data[i][j] = acc
            G.data[j][i] = acc
    return G


def trace_form_nondegenerate(A):
    return _trace_form(A).rank() == A.dim


def quotient_algebra(A, ideal):
    """Quotient by a two-sided ideal; returns (Q, projection, section)."""
    from .linalg import kronecker

    q, s = quotient_maps(ideal)
    mult = q @ A.mult @ kronecker(s, s)
    unit = q.apply(A.unit)
    return ArtinAlgebra(A.field, q.rows, mult, unit), q, s


def element_min_poly(A, x):
    return minimal_polynomial(A.mult_matrix(x))


def _candidate_elements(B, rng):
    """Search stream for splitting/primitive elements: basis vectors, short
    combinations, seeded random vectors, then exhaustive for tiny fields."""
    F = B.field
    n = B.dim
    basis = std_basis(F, n)
    for b in basis:
        yield b
    for i in range(n):
        for j in range(i + 1, n):
            yield [F.add(a, c) for a, c in zip(basis[i], basis[j])]
            yield B.mul(basis[i], basis[j])
    for _ in range(400):
        yield [F.random(rng) for _ in range(n)]
    order = F.order
    if order is not None and order**n <= _EXHAUSTIVE_BOUND:
        def all_vectors(prefix, k):
            if k == n:
                yield list(prefix)
                return
            for c in F.elements():
                yield from all_vectors(prefix + [c], k + 1)

        yield from all_vectors([], 0)


def primitive_element(B, seed=_SEARCH_SEED):
    """An element generating B, plus its minimal polynomial.

    B must be a (commutative) field for this to succeed; separability over
    the implemented perfect base fields guarantees existence.
    """
    rng = derived_rng(seed, B.dim)
    for x in _candidate_elements(B, rng):
        m = element_min_poly(B, x)
        if m.degree == B.dim:
            return x, m
    raise ComputationError("no primitive element found; input is not a field?")


def split_semisimple(B, seed=_SEARCH_SEED):
    """Primitive orthogonal idempotents of a commutative semisimple algebra."""
    F = B.field
    if B.dim == 0:
        return []
    out = []
    stack = [(B, Matrix.identity(F, B.dim))]
    while stack:
        Balg, embed = stack.pop()
        pieces = _split_once(Balg, seed)
        if pieces is None:
            out.append(embed.apply(Balg.unit))
            continue
        for e in pieces:
            comp, E, _ = component_of_idempotent(Balg, e)
            stack.append((comp, embed @ E))
    out.sort(key=lambda v: tuple(F.sort_key(c) for c in v))
    return out


def _split_once(B, seed):
    """Nontrivial orthogonal idempotents of semisimple B, or None if a field."""
    if B.dim == 1:
        return None
    F = B.field
    rng = derived_rng(seed, B.dim, 1)
    for x in _candidate_elements(B, rng):
        m = element_min_poly(B, x)
        _, factors = factor_polynomial(m)
        if any(mult > 1 for _, mult in factors):
            raise ValidationError("repeated factor in a semisimple algebra; corrupt input")
        if len(factors) == 1:
            if m.degree == B.dim:
                return None  # primitive element of a field
            continue
        idems = []
        for f, _ in factors:
            g = m // f
            d, u, _ = _poly_ext_gcd(g, f)
            if not d.is_one():
                raise ValidationError("minimal polynomial factors not coprime")
            idems.append(B.eval_poly(u * g, x))
        return idems
    raise ComputationError("could not split semisimple algebra")


def _poly_ext_gcd(a, b):
    F = a.field
    r0, r1 = a, b
    s0, s1 = Polynomial.one(F), Polynomial.zero(F)
    t0, t1 = Polynomial.zero(F), Polynomial.one(F)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    lead = r0.leading()
    inv = F.inv(lead)
    return r0.scale(inv), s0.scale(inv), t0.scale(inv)


def lift_idempotent(A, a):
    """The unique idempotent of A congruent to a mod radical.

    Characteristic-free: the minimal polynomial of a is t^i (t-1)^j, and the
    Bezout identity u t^i + v (t-1)^j = 1 produces the idempotent (u g)(a)
    inside k[a].
    """
    F = A.field
    m = element_min_poly(A, a)
    t = Polynomial.x(F)
    one = Polynomial.one(F)
    alpha = 0
    while m.degree > 0 and (m % t).is_zero():
        m = m // t
        alpha += 1
    beta = 0
    tm1 = t - one
    while m.degree > 0 and (m % tm1).is_zero():
        m = m // tm1
        beta += 1
    if not m.is_one():
        raise ValidationError("element is not idempotent modulo the radical")
    if alpha == 0:
        return list(A.unit)
    if beta == 0:
        return [F.zero] * A.dim
    g = t**alpha
    h = tm1**beta
    # e = (u*g)(a) with u*g + v*h = 1: kills the t-part, is 1 on the (t-1)-part
    d, u, _ = _poly_ext_gcd(g, h)
    if not d.is_one():
        raise ValidationError("idempotent lift Bezout failure")
    e = A.eval_poly(u * g, a)
    if A.mul(e, e) != e:
        raise ComputationError("idempotent lift did not converge")
    return e


def component_of_idempotent(A, e):
    """The unital subalgebra e*A: (algebra, embedding, projection)."""
    F = A.field
    Me = A.mult_matrix(e)
    basis_rows = Me.column_space().vectors()
    d = len(basis_rows)
    E = Matrix.from_cols(F, basis_rows, A.dim)
    P = E.solve_matrix(Me)
    if P is None:
        raise ComputationError("projection onto idempotent component failed")
    prods = []
    for bi in basis_rows:
        for bj in basis_rows:
            prods.append(A.mul(bi, bj))
    X = E.solve_matrix(Matrix.from_cols(F, prods, A.dim))
    unit = E.solve(e)
    if X is None or unit is None:
        raise ComputationError("component structure constants failed")
    comp = ArtinAlgebra(F, d, X, unit)
    return comp, E, P


class FieldDatum:
    """A finite field extension presented as an algebra with a chosen
    primitive element and its minimal polynomial."""

    __slots__ = ("as_algebra", "primitive_element", "minimal_poly")

    def __init__(self, as_algebra, primitive_element, minimal_poly):
        self.as_algebra = as_algebra
        self.primitive_element = primitive_element
        self.minimal_poly = minimal_poly

    @property
    def dim(self):
        return self.as_algebra.dim

    def __repr__(self):
        return f"FieldDatum(degree {self.dim} over {self.as_algebra.field})"


class LocalComponent:
    __slots__ = (
        "algebra",
        "embedding",
        "projection",
        "idempotent",
        "radical",
        "nilpotency_index",
        "residue",
        "residue_projection",
        "residue_section",
    )

    def __init__(self, algebra, embedding, projection, idempotent, rad, nilp, residue, rproj, rsect):
        self.algebra = algebra
        self.embedding = embedding
        self.projection = projection
        self.idempotent = idempotent
        self.radical = rad
        self.nilpotency_index = nilp
        self.residue = residue
        self.residue_projection = rproj
        self.residue_section = rsect

    @property
    def dim(self):
        return self.algebra.dim

    def __repr__(self):
        return f"LocalComponent(dim {self.dim}, residue degree {self.residue.dim})"


class LocalDecomposition:
    __slots__ = ("algebra", "idempotents", "components")

    def __init__(self, algebra, idempotents, components):
        self.algebra = algebra
        self.idempotents = idempotents
        self.components = components

    @property
    def radicals(self):
        return [c.radical for c in self.components]

    def __repr__(self):
        dims = [c.dim for c in self.components]
        return f"LocalDecomposition({self.algebra!r} = {dims})"


def local_decomposition(A, seed=_SEARCH_SEED):
    F = A.field
    if A.dim == 0:
        return LocalDecomposition(A, [], [])
    rad = radical(A)
    Abar, proj, sect = quotient_algebra(A, rad)
    idem_bars = split_semisimple(Abar, seed)
    idems = [lift_idempotent(A, sect.apply(e)) for e in idem_bars]
    total = [F.zero] * A.dim
    for i, e in enumerate(idems):
        for j, f in enumerate(idems):
            prod = A.mul(e, f)
            expected = e if i == j else [F.zero] * A.dim
            if prod != expected:
                raise ComputationError("lifted idempotents not orthogonal")
        total = [F.add(a, b) for a, b in zip(total, e)]
    if total != list(A.unit):
        raise ComputationError("lifted idempotents do not sum to 1")
    components = []
    for e in idems:
        comp, E, P = component_of_idempotent(A, e)
        rad_i = radical(comp)
        nilp = _nilpotency_index(comp, rad_i)
        Kbar, rproj, rsect = quotient_algebra(comp, rad_i)
        prim, minpoly = primitive_element(Kbar, seed)
        residue = FieldDatum(Kbar, prim, minpoly)
        components.append(
            LocalComponent(comp, E, P, e, rad_i, nilp, residue, rproj, rsect)
        )
    # residue degree leads and coordinates are compared reversed: both are
    # needed so that an already block-diagonal semisimple algebra decomposes
    # into its blocks in block order, which makes the etale construction a
    # literal fixed point
    components.sort(
        key=lambda c: (
            c.residue.dim,
            c.dim,
            tuple(F.sort_key(v) for v in reversed(c.idempotent)),
        )
    )
    return LocalDecomposition(A, [c.idempotent for c in components], components)


def _nilpotency_index(A, rad):
    if rad.dim == 0:
        return 1
    F = A.field
    current = rad
    index = 1
    while current.dim > 0:
        index += 1
        products = []
        for u in current.vectors():
            for v in rad.vectors():
                products.append(A.mul(u, v))
        nxt = Subspace.from_vectors(F, A.dim, products)
        if nxt.dim == current.dim:
            raise ComputationError("radical is not nilpotent; corrupt algebra")
        current = nxt
    return index


def hensel_lift_root(A, p, start, max_steps=64):
    """Newton iteration x <- x - p(x)/p'(x) from a residue root upward.

    Requires p'(start) invertible in A (separability); converges
    quadratically against the nilpotent radical.
    """
    F = A.field
    x = list(start)
    dp = p.derivative()
    for _ in range(max_steps):
        px = A.eval_poly(p, x)
        if all(F.is_zero(c) for c in px):
            return x
        inv = A.inv(A.eval_poly(dp, x))
        if inv is None:
            raise NonSeparableResidue("derivative not invertible during Hensel lift")
        correction = A.mul(px, inv)
        x = [F.sub(a, b) for a, b in zip(x, correction)]
    raise ComputationError("Hensel lift did not converge")


class WedderburnSplitting:
    __slots__ = ("field_datum", "embedding", "retract", "root")

    def __init__(self, field_datum, embedding, retract, root):
        self.field_datum = field_datum
        self.embedding = embedding
        self.retract = retract
        self.root = root


def wedderburn_splitting(component, seed=_SEARCH_SEED):
    """Subfield K of a local algebra with A = K (+) m, by Hensel lifting.

    Returns (K as FieldDatum over the base, embedding K -> A, retract A -> K);
    the retract is verified to be an algebra map.
    """
    A = component.algebra
    F = A.field
    residue = component.residue
    p = residue.minimal_poly
    if p.gcd(p.derivative()).degree != 0:
        raise NonSeparableResidue("residue minimal polynomial is not separable")
    start = component.residue_projection.solve(residue.primitive_element)
    if start is None:
        raise ComputationError("cannot lift residue primitive element")
    root = hensel_lift_root(A, p, start)
    d = p.degree
    powers = []
    acc = list(A.unit)
    for _ in range(d):
        powers.append(acc)
        acc = A.mul(acc, root)
    E = Matrix.from_cols(F, powers, A.dim)
    rad_basis = component.radical.vectors()
    P = Matrix.from_cols(F, powers + rad_basis, A.dim)
    Pinv = P.inverse()
    if Pinv is None:
        raise ComputationError("A is not K (+) m; Hensel data inconsistent")
    retract = Matrix(F, d, A.dim, [Pinv.data[i] for i in range(d)])
    K = polynomial_quotient_algebra(F, p)
    _verify_algebra_map(A, K, retract)
    prim = std_basis(F, d)[1] if d > 1 else [F.neg(p.coeffs[0])]
    datum = FieldDatum(K, prim, p)
    return WedderburnSplitting(datum, E, retract, root)


def _verify_algebra_map(A, B, M):
    """Check M: A -> B respects unit and multiplication."""
    from .linalg import kronecker

    if M.apply(A.unit) != list(B.unit):
        raise ComputationError("retract does not preserve the unit")
    lhs = M @ A.mult
    rhs = B.mult @ kronecker(M, M)
    if not (lhs == rhs):
        raise ComputationError("retract is not multiplicative")


def product_algebra(field, algebras):
    dims = [B.dim for B in algebras]
    n = sum(dims)
    mult = Matrix.zeros(field, n, n * n)
    unit = []
    offset = 0
    for B in algebras:
        d = B.dim
        for i in range(d):
            for j in range(d):
                col = B.mult.col(i * d + j)
                for a in range(d):
                    mult.data[offset + a][(offset + i) * n + (offset + j)] = col[a]
        unit.extend(B.unit)
        offset += d
    return ArtinAlgebra(field, n, mult, unit)


class EtaleData:
    __slots__ = (
        "coalgebra",
        "simples",
        "etale",
        "inclusion",
        "retraction",
        "decomposition",
        "splittings",
        "offsets",
    )

    def __init__(self, coalgebra, simples, etale, inclusion, retraction, decomposition, splittings, offsets):
        self.coalgebra = coalgebra
        self.simples = simples
        self.etale = etale
        self.inclusion = inclusion
        self.retraction = retraction
        self.decomposition = decomposition
        self.splittings = splittings
        self.offsets = offsets

    def is_split(self):
        """All residue fields equal to the base field."""
        return all(c.residue.dim == 1 for c in self.decomposition.components)

    def __repr__(self):
        return f"EtaleData(dim {self.etale.dim} inside dim {self.coalgebra.dim})"


def _memoized(C, key, build):
    """build(), computed once and stored on the (immutable) coalgebra C;
    every caller shares the result and must not modify it."""
    if C._structure is None:
        C._structure = {}
    if key not in C._structure:
        C._structure[key] = build()
    return C._structure[key]


def decomposition(C, seed=_SEARCH_SEED):
    """Local decomposition of the dual algebra C^dual, memoized on C."""
    return _memoized(
        C, ("decomposition", seed), lambda: local_decomposition(dual_algebra(C), seed)
    )


def etale_part(C, seed=_SEARCH_SEED):
    """Simple subcoalgebras, their sum Et(C), the inclusion, and the unique
    coalgebra retraction C -> Et(C) obtained from Wedderburn splittings.

    Memoized on C like `decomposition`."""
    return _memoized(C, ("etale", seed), lambda: _etale_data(C, seed))


def _etale_data(C, seed):
    F = C.field
    dec = decomposition(C, seed)
    splittings = [wedderburn_splitting(c, seed) for c in dec.components]
    q_blocks = []
    s_blocks = []
    simples = []
    offsets = []
    offset = 0
    for comp, w in zip(dec.components, splittings):
        q_i = w.retract @ comp.projection  # A -> K_i
        s_i = comp.embedding @ w.embedding  # K_i -> A
        q_blocks.append(q_i)
        s_blocks.append(s_i)
        simple = dual_coalgebra(w.field_datum.as_algebra)
        simples.append((simple, CoalgebraMorphism(simple, C, q_i.transpose())))
        offsets.append(offset)
        offset += q_i.rows
    if q_blocks:
        Q = q_blocks[0]
        for b in q_blocks[1:]:
            Q = Q.vstack(b)
        S = s_blocks[0]
        for b in s_blocks[1:]:
            S = S.hstack(b)
    else:
        Q = Matrix.zeros(F, 0, C.dim)
        S = Matrix.zeros(F, C.dim, 0)
    P = product_algebra(F, [w.field_datum.as_algebra for w in splittings])
    etale = dual_coalgebra(P)
    inclusion = CoalgebraMorphism(etale, C, Q.transpose())
    retraction = CoalgebraMorphism(C, etale, S.transpose())
    check = retraction.matrix @ inclusion.matrix
    if not (check == Matrix.identity(F, etale.dim)):
        raise ComputationError("retraction does not split the inclusion")
    return EtaleData(C, simples, etale, inclusion, retraction, dec, splittings, offsets)


def irreducible_components(C, seed=_SEARCH_SEED):
    """Duals of the local factors of C^dual; returns (components, iso).

    components is a list of (Coalgebra, inclusion); iso is the coalgebra
    isomorphism from their direct sum onto C.
    """
    dec = decomposition(C, seed)
    comps = []
    for comp in dec.components:
        coalg = dual_coalgebra(comp.algebra)
        comps.append((coalg, CoalgebraMorphism(coalg, C, comp.projection.transpose())))
    if comps:
        total = comps[0][0]
        M = comps[0][1].matrix
        for coalg, inc in comps[1:]:
            total, _, _ = direct_sum(total, coalg)
            M = M.hstack(inc.matrix)
    else:
        total = Coalgebra(C.field, 0, Matrix.zeros(C.field, 0, 0), Matrix.zeros(C.field, 1, 0))
        M = Matrix.zeros(C.field, C.dim, 0)
    iso = CoalgebraMorphism(total, C, M)
    if M.rank() != C.dim:
        raise ComputationError("component sum is not an isomorphism")
    return comps, iso


class GroupLikeSet:
    __slots__ = ("coalgebra", "elements")

    def __init__(self, coalgebra, elements):
        self.coalgebra = coalgebra
        self.elements = elements

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        return f"GroupLikeSet({len(self.elements)} elements of dim-{self.coalgebra.dim} coalgebra)"


def group_likes(C, etale=None, seed=_SEARCH_SEED):
    """Group-like elements: one per dual local component with residue k."""
    data = etale if etale is not None else etale_part(C, seed)
    elements = []
    for comp, w, off in zip(
        data.decomposition.components, data.splittings, data.offsets
    ):
        if w.field_datum.dim == 1:
            q_i = w.retract @ comp.projection
            elements.append(q_i.row(0))
    return GroupLikeSet(C, elements)


def counit_of_gp_adjunction(C, seed=_SEARCH_SEED):
    """The canonical morphism from the pointwise coalgebra on the group-likes
    of C into C (basis vector -> group-like element)."""
    data = etale_part(C, seed)
    gl = group_likes(C, data)
    source = diagonal_coalgebra(len(gl.elements), C.field)
    M = Matrix.from_cols(C.field, gl.elements, C.dim) if gl.elements else Matrix.zeros(C.field, C.dim, 0)
    return CoalgebraMorphism(source, C, M), gl, data


def gp_adjunction_checks(C=None, X=None, field=None, seed=_SEARCH_SEED):
    """Verification report for the pointwise-coalgebra / group-like adjunction.

    With X (a set size) and a field: checks the unit X -> gp(k^delta[X]) is a
    bijection.  With a coalgebra C: checks the counit lands in the etale part,
    the triangle identities on the instance, and (when every dual residue
    field is the base field) that the counit corestricts to an isomorphism
    onto Et(C) compatible with the retraction.
    """
    from .coalgebra import validate

    checks = []
    if X is not None:
        D = diagonal_coalgebra(X, field)
        gl = brute_force_group_likes(D) if field.order and field.order**X <= 4096 else None
        basis = std_basis(field, X)
        found = gl.elements if gl is not None else group_likes(D, seed=seed).elements
        checks.append(("unit-bijective", sorted(found) == sorted(basis)))
        # triangle on the pointwise side: counit o (pointwise functor of the
        # unit) is the identity on the pointwise coalgebra
        found_sorted = found if gl is not None else sorted(found)
        triangle = all(
            found_sorted[_index_of(found_sorted, basis[x])] == basis[x]
            for x in range(X)
        ) and len(found_sorted) == X
        counit_cols = Matrix.from_cols(field, found_sorted, X) if X else Matrix.zeros(field, 0, 0)
        unit_perm = Matrix.zeros(field, X, X)
        for x in range(X):
            unit_perm.data[_index_of(found_sorted, basis[x])][x] = field.one
        triangle = triangle and (counit_cols @ unit_perm == Matrix.identity(field, X))
        checks.append(("triangle-pointwise", triangle))
    if C is not None:
        counit, gl, data = counit_of_gp_adjunction(C, seed=seed)
        checks.append(("counit-valid-morphism", not validate(counit)))
        image_ok = all(
            data.inclusion.image().contains_vector(c) for c in gl.elements
        )
        checks.append(("counit-lands-in-etale", image_ok))
        # triangle on the instance: gp(counit) o unit = id on gp(C)
        source_gl = group_likes(counit.source, seed=seed)
        unit_indices = []
        for c in source_gl.elements:
            img = counit.matrix.apply(c)
            unit_indices.append(img in gl.elements)
        checks.append(("triangle-gp", all(unit_indices) and len(source_gl.elements) == len(gl.elements)))
        if data.is_split():
            core = data.retraction.matrix @ counit.matrix
            iso = CoalgebraMorphism(counit.source, data.etale, core)
            ok = not validate(iso) and core.rank() == data.etale.dim == counit.source.dim
            checks.append(("split-counit-iso-onto-etale", ok))
            recomposed = data.inclusion.matrix @ core
            checks.append(("retraction-retracts-counit", recomposed == counit.matrix))
    return {"checks": checks, "ok": all(ok for _, ok in checks)}


def _index_of(vectors, target):
    for i, v in enumerate(vectors):
        if v == target:
            return i
    raise ValidationError("group-like basis vector missing")


def brute_force_group_likes(C):
    """Exhaustive solution of delta(c) = c (x) c, eps(c) = 1 (finite fields).

    Enumerates only the affine subspace eps(c) = 1 and short-circuits the
    quadratic check, keeping p^(dim-1) candidates instead of p^dim.
    """
    F = C.field
    n = C.dim
    eps = Matrix(F, 1, n, [C.epsilon.row(0)])
    base = eps.solve([F.one])
    if base is None:
        return GroupLikeSet(C, [])
    kernel = eps.kernel().vectors()
    out = []
    stack = [base]
    for k in kernel:
        stack = [
            [F.add(v[i], F.mul(c, k[i])) for i in range(n)]
            for v in stack
            for c in F.elements()
        ]
    for vec in stack:
        if _group_like_quadratic(C, vec):
            out.append(vec)
    out.sort(key=lambda v: tuple(F.sort_key(c) for c in v))
    return GroupLikeSet(C, out)


def _group_like_quadratic(C, vec):
    F = C.field
    n = C.dim
    cols = C.delta_columns()
    expected = {}
    for i in range(n):
        vi = vec[i]
        if F.is_zero(vi):
            continue
        for k in range(n):
            if not F.is_zero(vec[k]):
                expected[(i, k)] = F.mul(vi, vec[k])
    actual = {}
    for j in range(n):
        c = vec[j]
        if F.is_zero(c):
            continue
        for key, v in cols[j]:
            acc = F.add(actual.get(key, F.zero), F.mul(c, v))
            if F.is_zero(acc):
                actual.pop(key, None)
            else:
                actual[key] = acc
    return actual == expected


def naturality_suite(phi, seed=_SEARCH_SEED):
    """Naturality of the etale machinery along a morphism phi: C -> D:
    phi maps Et(C) into Et(D), respects irreducible components, and commutes
    with the retractions."""
    C, D = phi.source, phi.target
    EC = etale_part(C, seed)
    ED = etale_part(D, seed)
    checks = []
    et_image = ED.inclusion.image()
    ok_incl = all(
        et_image.contains_vector(phi.matrix.apply(col))
        for col in EC.inclusion.matrix.transpose().data
    )
    checks.append(("maps-etale-into-etale", ok_incl))
    comps_C, _ = irreducible_components(C, seed)
    comps_D, _ = irreducible_components(D, seed)
    comp_ok = True
    # simples and components are produced in the same component order
    for (simple, s_inc), (comp, c_inc) in zip(EC.simples, comps_C):
        image_simple = Subspace.from_vectors(
            C.field, D.dim, [phi.matrix.apply(col) for col in s_inc.matrix.transpose().data]
        )
        target_idx = None
        for j, (_, d_inc) in enumerate(comps_D):
            if d_inc.image().contains(image_simple):
                target_idx = j
                break
        if target_idx is None:
            comp_ok = False
            break
        target_image = comps_D[target_idx][1].image()
        for col in c_inc.matrix.transpose().data:
            if not target_image.contains_vector(phi.matrix.apply(col)):
                comp_ok = False
                break
    checks.append(("respects-components", comp_ok))
    induced = ED.retraction.matrix @ phi.matrix @ EC.inclusion.matrix
    square = induced @ EC.retraction.matrix == ED.retraction.matrix @ phi.matrix
    checks.append(("retraction-square", square))
    return {"checks": checks, "ok": all(ok for _, ok in checks)}
