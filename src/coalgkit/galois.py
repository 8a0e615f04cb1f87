"""Explicit finite Galois extensions, discrete actions of their groups, and
the induced adjunction between finite G-sets and coalgebras.

A GaloisDatum packages a field extension L/k as an ArtinAlgebra with its
automorphism matrices and group multiplication table (table[i][j] is the
index of sigma_i o sigma_j).  The left adjoint sends a finite G-set X to the
dual coalgebra of the algebra of equivariant maps X -> L.  It is built one
orbit at a time: on an orbit with stabilizer H the equivariant maps are the
fixed field L^H, spread over the orbit by the automorphisms, so the algebra
is the product of the orbits' fixed fields and disjoint unions go to direct
sums.  Spread from the RREF basis of each L^H, the functions are already the
RREF of the equivariance kernel, since each orbit's pivots sit at its
smallest point, where the spreading automorphism fixes L^H.  The right
adjoint of a coalgebra C is the G-set of algebra maps C^dual -> L, one per
root in L of the residue minimal polynomial of each dual local component.
Over any base field the roots of p are read off the primitive idempotents of
L (x) k[t]/(p), one copy of L per root and one larger field per nonlinear
factor of p over L; G acts on the maps by postcomposition, that is, by
moving the roots.
"""

from .coalgebra import (
    ArtinAlgebra,
    CoalgebraMorphism,
    dual_algebra,
    dual_coalgebra,
    is_multiplicative,
    _quotient_frobenius,
    polynomial_quotient_algebra,
    subalgebra_on_basis,
    tensor,
    validate,
)
from .errors import (
    ComputationError,
    InvalidAction,
    KbarDimensionExceeded,
    NotASubgroup,
    SpecMismatch,
    ValidationError,
)
from .fields import PrimeField
from .linalg import Matrix, Subspace
from .polys import Polynomial
from .structure import _is_field, _split_reduced, etale_part, power_basis, product_algebra

# the largest dimension m of the equivariant function algebra kbar_functor
# builds: its basis is dense m x (dim L |X|) and its dual coalgebra's
# coproduct dense m x m^2.  Through `galois-functor` (the cap raised for the
# larger one), with CPython 3.11 on one Xeon core, a free F_4 action on 64
# points (m = 64) takes 0.08 s and 45 MB peak RSS, on 128 points 0.6 s and
# 198 MB, most of it the coproduct and its JSON; the cost grows as m^3
KBAR_DIM_CAP = 64


class GaloisDatum:
    __slots__ = ("base", "L", "automorphisms", "table", "size", "identity", "_fixed")

    def __init__(self, base, L, automorphisms, table):
        self.base = base
        self.L = L
        self.automorphisms = automorphisms
        self.table = [list(row) for row in table]
        self.size = len(automorphisms)
        self.identity = _table_identity(self.table)
        self._fixed = {}
        self._validate()

    def validate(self):
        """No violations to report: the checks of _validate raise while the
        datum is built."""
        return []

    def _validate(self):
        g = self.size
        L = self.L
        if L.field != self.base:
            raise SpecMismatch("extension algebra not over the base field")
        if g != L.dim:
            raise ValidationError("group order must equal the extension degree")
        if len(self.table) != g or any(len(r) != g for r in self.table):
            raise ValidationError("group table shape mismatch")
        if self.identity is None:
            raise ValidationError("group table has no identity")
        for row in self.table:
            if sorted(row) != list(range(g)):
                raise ValidationError("group table rows are not permutations")
        for col in zip(*self.table):
            if sorted(col) != list(range(g)):
                raise ValidationError("group table columns are not permutations")
        for i in range(g):
            for j in range(g):
                for k in range(g):
                    if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                        raise ValidationError("group table not associative")
        if validate(L):
            raise ValidationError("extension carrier is not a valid algebra")
        if not _is_field(L):
            raise ValidationError("extension carrier is not a field")
        unit = list(L.unit)
        for i, M in enumerate(self.automorphisms):
            if M.rows != g or M.cols != g:
                raise ValidationError("automorphism matrix shape mismatch")
            if M.apply(unit) != unit:
                raise ValidationError(f"automorphism {i} does not fix the unit")
            if M.rank() != g:
                raise ValidationError(f"automorphism {i} is not invertible")
            if not is_multiplicative(L, L, M):
                raise ValidationError(f"automorphism {i} is not multiplicative")
        for i in range(g):
            for j in range(g):
                if not (self.automorphisms[i] @ self.automorphisms[j] == self.automorphisms[self.table[i][j]]):
                    raise ValidationError("automorphisms do not realize the group table")
        fixed = self.fixed_space(tuple(range(g)))
        if fixed.dim != 1 or not fixed.contains_vector(unit):
            raise ValidationError("full fixed space is not the base field (not Galois)")

    def fixed_space(self, H):
        """L^H as a subspace of L (cached per index tuple H)."""
        if H not in self._fixed:
            F = self.base
            g = self.L.dim
            rows = []
            I = Matrix.identity(F, g)
            for h in H:
                rows.extend((self.automorphisms[h] - I).data)
            self._fixed[H] = (
                Matrix.from_rows(F, rows, g).kernel() if rows else Subspace.full(F, g)
            )
        return self._fixed[H]

    def subgroups(self):
        """All subgroups, as sorted index tuples (exhaustive; small groups)."""
        found = {(self.identity,)}
        frontier = [(self.identity,)]
        while frontier:
            H = frontier.pop()
            for x in range(self.size):
                if x in H:
                    continue
                closure = _close_subgroup(self.table, set(H) | {x}, self.identity)
                key = tuple(sorted(closure))
                if key not in found:
                    found.add(key)
                    frontier.append(key)
        return sorted(found, key=lambda H: (len(H), H))

    def is_subgroup(self, H):
        Hs = set(H)
        if self.identity not in Hs or not Hs <= set(range(self.size)):
            return False
        return all(self.table[a][b] in Hs for a in Hs for b in Hs)

    def __repr__(self):
        return f"GaloisDatum(|G|={self.size} over {self.base})"


def _table_identity(table):
    for i, row in enumerate(table):
        if all(row[j] == j for j in range(len(row))):
            return i
    return None


def _close_subgroup(table, seed, identity):
    out = set(seed) | {identity}
    changed = True
    while changed:
        changed = False
        for a in list(out):
            for b in list(out):
                c = table[a][b]
                if c not in out:
                    out.add(c)
                    changed = True
    return out


def frobenius_galois_datum(p, modulus_ints):
    """The extension F_p[x]/(modulus) with its automorphisms, the powers
    Phi^0 ... Phi^(e-1) of the Frobenius Phi: x -> x^p, read off the
    quotient by `_quotient_frobenius`, so the field check of the datum
    builds the one Frobenius matrix of L."""
    base = PrimeField(p)
    poly = Polynomial.from_ints(base, modulus_ints)
    L = polynomial_quotient_algebra(base, poly)
    e = poly.degree
    autos = [Matrix.identity(base, e)]
    phi = _quotient_frobenius(base, poly)
    for _ in range(e - 1):
        autos.append(autos[-1] @ phi)
    table = [[(i + j) % e for j in range(e)] for i in range(e)]
    return GaloisDatum(base, L, autos, table)


class FiniteGSet:
    """A finite set with a group action: action[g][x] = g . x."""

    __slots__ = ("size", "action")

    def __init__(self, size, action, table=None):
        self.size = size
        self.action = [list(p) for p in action]
        if table is not None:
            self._validate(table)

    def validate(self):
        """No violations to report: the action is checked against a group
        table while the set is built, and without a table there is nothing
        to check it against."""
        return []

    def _validate(self, table):
        g = len(table)
        if len(self.action) != g:
            raise InvalidAction("one permutation per group element required")
        for p in self.action:
            # the length first: a declared size is not allocated unchecked
            if len(p) != self.size or sorted(p) != list(range(self.size)):
                raise InvalidAction("action entries must be permutations")
        identity = _table_identity(table)
        if self.action[identity] != list(range(self.size)):
            raise InvalidAction("identity does not act trivially")
        for i in range(g):
            for j in range(g):
                composed = [self.action[i][self.action[j][x]] for x in range(self.size)]
                if composed != self.action[table[i][j]]:
                    raise InvalidAction("action is not a homomorphism")

    def __repr__(self):
        return f"FiniteGSet(size {self.size})"


def trivial_datum(field):
    """The trivial extension k/k: L = k, G = 1.  Its G-sets are plain sets,
    and its adjunction is the pointwise-coalgebra / group-like one."""
    one = Matrix.identity(field, 1)
    return GaloisDatum(field, ArtinAlgebra(field, 1, one, [field.one]), [one], [[0]])


def trivial_gset(D, n):
    return FiniteGSet(n, [list(range(n)) for _ in range(D.size)], D.table)


def coset_gset(D, H):
    """The orbit G/H with the left translation action."""
    if not D.is_subgroup(H):
        raise NotASubgroup(f"{H} is not a subgroup")
    Hs = sorted(set(H))
    cosets = []
    seen = {}
    for g in range(D.size):
        coset = tuple(sorted(D.table[g][h] for h in Hs))
        if coset not in seen:
            seen[coset] = len(cosets)
            cosets.append(coset)
    action = []
    for g in range(D.size):
        perm = []
        for coset in cosets:
            moved = tuple(sorted(D.table[g][x] for x in coset))
            perm.append(seen[moved])
        action.append(perm)
    return FiniteGSet(len(cosets), action, D.table)


def disjoint_union(D, gsets):
    size = sum(X.size for X in gsets)
    action = []
    for g in range(D.size):
        perm = []
        offset = 0
        for X in gsets:
            perm.extend(offset + X.action[g][x] for x in range(X.size))
            offset += X.size
        action.append(perm)
    return FiniteGSet(size, action, D.table)


def orbits_and_stabilizers(D, X):
    """[(orbit indices, stabilizer subgroup, coset representatives)].

    The representative of each orbit is its smallest element; the g-th coset
    representative maps it onto the listed orbit elements in order.
    """
    seen = set()
    out = []
    for x in range(X.size):
        if x in seen:
            continue
        orbit = []
        reps = {}
        for g in range(D.size):
            y = X.action[g][x]
            if y not in reps:
                reps[y] = g
                orbit.append(y)
        seen.update(orbit)
        stab = tuple(sorted(g for g in range(D.size) if X.action[g][x] == x))
        if len(orbit) * len(stab) != D.size:
            raise InvalidAction("orbit-stabilizer count failed; invalid action")
        out.append((orbit, stab, [reps[y] for y in orbit]))
    return out


class FixedField:
    __slots__ = ("algebra", "embedding", "subgroup")

    def __init__(self, algebra, embedding, subgroup):
        self.algebra = algebra
        self.embedding = embedding  # Matrix dim(L) x dim(L^H), L^H -> L
        self.subgroup = subgroup

    @property
    def dim(self):
        return self.algebra.dim


def fixed_field(D, H):
    """L^H as an algebra with its embedding into L."""
    if not D.is_subgroup(H):
        raise NotASubgroup(f"{H} is not a subgroup")
    H = tuple(sorted(set(H)))
    space = D.fixed_space(H)
    if space.dim != D.size // len(H):
        raise ComputationError("fixed space dimension violates Galois theory")
    K, E = subalgebra_on_basis(D.L, space.vectors())
    return FixedField(K, E, H)


class KbarResult:
    """kbar[X]: the dual coalgebra of the equivariant function algebra."""

    __slots__ = ("coalgebra", "algebra", "basis", "gset", "datum")

    def __init__(self, coalgebra, algebra, basis, gset, datum):
        self.coalgebra = coalgebra
        self.algebra = algebra
        self.basis = basis  # rows: equivariant functions X -> L, slot-major
        self.gset = gset
        self.datum = datum

    def evaluation_at(self, x):
        """The algebra map A_X -> L given by evaluating functions at x."""
        n = self.datum.L.dim
        cols = [self.basis.row(j)[x * n : (x + 1) * n] for j in range(self.basis.rows)]
        return Matrix.from_cols(self.datum.base, cols, n)


def kbar_functor(D, X):
    """Equivariant maps X -> L as an algebra; its dual is the value on X.

    On the orbit of x with stabilizer H, an equivariant f is fixed by
    v = f(x) in L^H through f(g.x) = sigma_g(v), and f f' by v v': the
    orbit's functions are a copy of L^H (kbar[G/H] = (L^H)^dual), so A_X is
    the product of the fixed fields in orbit order, one built per distinct
    stabilizer.  The row of v, for v in the RREF basis of L^H, puts
    sigma_g(v) at slot g.x.  The rows are already the canonical RREF, that
    of the equivariance kernel: the orbits come in the order of their
    smallest points x, and the coset representative at x lies in H and
    fixes v, so each row's pivot is v's pivot at slot x, where every other
    row is zero.  The dimension, the sum of the dim L^H, is checked against
    KBAR_DIM_CAP before any function is built.
    """
    F = D.base
    n = D.L.dim
    orbits = orbits_and_stabilizers(D, X)
    m = sum(D.fixed_space(H).dim for _, H, _ in orbits)
    if m > KBAR_DIM_CAP:
        raise KbarDimensionExceeded(
            f"equivariant function algebra of dimension {m} exceeds galois.KBAR_DIM_CAP = {KBAR_DIM_CAP}")
    fields = {}
    rows = []
    for orbit, H, reps in orbits:
        if H not in fields:
            fields[H] = fixed_field(D, H).algebra
        for v in D.fixed_space(H).vectors():
            row = [F.zero] * (n * X.size)
            for y, g in zip(orbit, reps):
                row[y * n : (y + 1) * n] = D.automorphisms[g].apply(v)
            rows.append(row)
    A_X = product_algebra(F, [fields[H] for _, H, _ in orbits])
    return KbarResult(dual_coalgebra(A_X), A_X, Matrix(F, m, n * X.size, rows), X, D)


def is_equivariant(D, X, Y, f):
    return all(
        f[X.action[g][x]] == Y.action[g][f[x]]
        for g in range(D.size)
        for x in range(X.size)
    )


def kbar_on_map(D, f, kX, kY):
    """Induced coalgebra morphism kbar[X] -> kbar[Y] of an equivariant f."""
    if not is_equivariant(D, kX.gset, kY.gset, f):
        raise InvalidAction("map is not equivariant")
    F = D.base
    n = D.L.dim
    cols = []
    for j in range(kY.basis.rows):
        u = kY.basis.row(j)
        vec = []
        for x in range(kX.gset.size):
            vec.extend(u[f[x] * n : (f[x] + 1) * n])
        cols.append(vec)
    pulled = Matrix.from_cols(F, cols, n * kX.gset.size)
    coords = kX.basis.transpose().solve_matrix(pulled)
    if coords is None:
        raise ComputationError("pullback left the function algebra")
    return CoalgebraMorphism(kX.coalgebra, kY.coalgebra, coords.transpose())


def _roots_in_extension(D, poly):
    """Roots of a residue polynomial inside L, as coordinate vectors.

    A residue polynomial p is irreducible (the minimal polynomial of a
    primitive element of a field), and a root generates a subfield of
    degree d = deg p, so p has none unless d divides [L:k] (at L = k none
    of degree > 1, with no factoring).  B = L (x) k[t]/(p) = L[t]/(p) is
    the product of the fields L[t]/(q_j) over the factors q_j of p in L[t].
    On the component eB of q_j = t - r, 1 (x) t is r (x) 1, so r is the one
    solution of (r (x) 1) e = (1 (x) t) e; where deg q_j > 1 there is none.
    The idempotents come from `structure._split_reduced`: over F_q the
    split of the Frobenius fixed algebra inside itself, with no polynomial
    (Ronyai, J. Symb. Comput. 9, 1990), over Q the seeded CRT split
    (Eberly and Giesbrecht, J. Symb. Comput. 29, 2000).
    L/k is normal, so p has 0 or d roots in L, over a finite field d.
    """
    F = D.base
    L = D.L
    if poly.degree == 1:
        c = F.neg(poly.coeffs[0])
        return [[F.mul(c, u) for u in L.unit]]
    d = poly.degree
    if L.dim % d:
        return []
    K = polynomial_quotient_algebra(F, poly)
    B = dual_algebra(tensor(dual_coalgebra(L), dual_coalgebra(K)))
    t = [F.zero] * B.dim  # 1 (x) t; e_i (x) t^k has index i*d + k
    for i, u in enumerate(L.unit):
        t[i * d + 1] = u
    roots = {}
    for e in _split_reduced(B):
        M = B.mult_matrix(e)
        r = Matrix.from_cols(F, [M.col(i * d) for i in range(L.dim)], B.dim).solve(M.apply(t))
        if r is None:
            continue  # eB = L[t]/(q) with deg q > 1
        if any(not F.is_zero(c) for c in L.eval_poly(poly, r)):
            raise ComputationError("the solution at an idempotent of L (x) k[t]/(p) is not a root of p in L")
        roots[tuple(r)] = r
    if len(roots) != d and (len(roots) or F.order is not None):
        raise ComputationError(
            f"L (x) k[t]/(p) gave {len(roots)} roots of a degree-{d} residue polynomial"
        )
    return list(roots.values())


class RightAdjointData:
    """The G-set of algebra maps C^dual -> L with its bookkeeping."""

    __slots__ = ("datum", "coalgebra", "maps", "gset", "components", "image_dims", "etale")

    def __init__(self, datum, coalgebra, maps, gset, components, image_dims, etale):
        self.datum = datum
        self.coalgebra = coalgebra
        self.maps = maps  # psi: Matrix dim(L) x dim(C), algebra maps C^dual -> L
        self.gset = gset
        self.components = components
        self.image_dims = image_dims
        self.etale = etale

    def stabilizer(self, idx):
        return tuple(
            sorted(g for g in range(self.datum.size) if self.gset.action[g][idx] == idx)
        )


def right_adjoint(D, C):
    """All algebra maps C^dual -> L as a G-set (postcomposition action).

    The maps of a dual local component are psi_r = (t -> r) o q onto its
    residue field k[t]/(p), one per root r of p in L, and
    sigma_g o psi_r = psi_(sigma_g(r)): the action permutes the roots.  q is
    read off `etale_part`: the inclusion of the component's simple
    subcoalgebra is q^T.  The roots of each distinct p are found once."""
    if C.field != D.base:
        raise SpecMismatch("coalgebra and Galois datum over different fields")
    data = etale_part(C)
    maps = []
    comp_idx = []
    dims = []
    moved = []  # moved[t][g]: the index of sigma_g o maps[t]
    roots_of = {}  # residue polynomial -> its roots in L, found once
    for i, ((_, inc), w) in enumerate(zip(data.simples, data.splittings)):
        q_i = inc.matrix.transpose()  # A -> K_i = k[t]/(p_i)
        p_i = w.field_datum.minimal_poly
        if p_i not in roots_of:
            roots_of[p_i] = _roots_in_extension(D, p_i)
        roots = roots_of[p_i]
        index_of = {tuple(r): len(maps) + j for j, r in enumerate(roots)}
        for root in roots:
            emb = power_basis(D.L, root, p_i.degree).transpose()
            images = []
            for M in D.automorphisms:
                key = tuple(M.apply(root))
                if key not in index_of:
                    raise ComputationError("Galois action left the computed map set")
                images.append(index_of[key])
            maps.append(emb @ q_i)
            comp_idx.append(i)
            dims.append(p_i.degree)
            moved.append(images)
    order = sorted(range(len(maps)), key=lambda t: maps[t].sort_key())
    position = [0] * len(maps)
    for s, t in enumerate(order):
        position[t] = s
    action = [[position[moved[t][g]] for t in order] for g in range(D.size)]
    gset = FiniteGSet(len(maps), action, D.table)
    maps = [maps[t] for t in order]
    comp_idx = [comp_idx[t] for t in order]
    dims = [dims[t] for t in order]
    return RightAdjointData(D, C, maps, gset, comp_idx, dims, data)


def right_adjoint_R(D, C, H, embeddings=True):
    """Morphisms (L^H)^dual -> C plus the ambient G-set of all maps to L.

    embeddings=True keeps the maps whose stabilizer is exactly H, those with
    image L^H: the injective morphisms.  embeddings=False keeps the H-fixed
    points, the maps whose stabilizer contains H, those with image inside
    L^H: all morphisms.  Either way every kept map factors through the one
    L^H built here.
    """
    data = right_adjoint(D, C)
    fixed = fixed_field(D, H)
    H = set(fixed.subgroup)
    source = dual_coalgebra(fixed.algebra)
    morphisms = []
    for idx, psi in enumerate(data.maps):
        stab = set(data.stabilizer(idx))
        if H <= stab and (stab == H or not embeddings):
            factored = fixed.embedding.solve_matrix(psi)
            if factored is None:
                raise ComputationError("map does not land in the fixed field")
            morphisms.append(CoalgebraMorphism(source, C, factored.transpose()))
    return morphisms, data


def unit_map(D, X, kX, R):
    """x -> evaluation-at-x, as indices into R(kbar[X]), for kX = kbar[X]
    and R = right_adjoint(D, kX.coalgebra); checks bijectivity and
    equivariance, returning (indices, report)."""
    index_of = {m.sort_key(): t for t, m in enumerate(R.maps)}
    indices = []
    ok = True
    for x in range(X.size):
        key = kX.evaluation_at(x).sort_key()
        if key not in index_of:
            ok = False
            break
        indices.append(index_of[key])
    bijective = ok and sorted(indices) == list(range(len(R.maps)))
    equivariant = bijective and all(
        indices[X.action[g][x]] == R.gset.action[g][indices[x]]
        for g in range(D.size)
        for x in range(X.size)
    )
    return indices, {"bijective": bijective, "equivariant": equivariant}


def counit_morphism(D, C, R):
    """kbar[R(C)] -> C, dual to evaluation a -> (psi -> psi(a)), for
    R = right_adjoint(D, C); returns (morphism, kbar[R(C)])."""
    kY = kbar_functor(D, R.gset)
    T = Matrix.from_rows(D.base, [row for psi in R.maps for row in psi.data], C.dim)
    coords = kY.basis.transpose().solve_matrix(T)
    if coords is None:
        raise ComputationError("evaluation image is not equivariant")
    return CoalgebraMorphism(kY.coalgebra, C, coords.transpose()), kY


def adjunction_checks(D, X=None, C=None):
    """Unit bijectivity/equivariance on X, counit image = etale part on C,
    and both triangle identities on the given instances."""
    checks = []
    if X is not None:
        kX = kbar_functor(D, X)
        R = right_adjoint(D, kX.coalgebra)
        unit_idx, unit_report = unit_map(D, X, kX, R)
        checks.append(("unit-bijective", unit_report["bijective"]))
        checks.append(("unit-equivariant", unit_report["equivariant"]))
        # triangle 2: counit_{kbar X} o kbar[unit] = id; kbar[unit] exists only
        # for an equivariant unit, so one that misses a map fails here
        triangle = unit_report["equivariant"]
        if triangle:
            counit2, kY2 = counit_morphism(D, kX.coalgebra, R)
            kbar_unit = kbar_on_map(D, unit_idx, kX, kY2)
            composite = counit2.matrix @ kbar_unit.matrix
            triangle = composite == Matrix.identity(D.base, kX.coalgebra.dim)
        checks.append(("triangle-kbar", triangle))
    if C is not None:
        R = right_adjoint(D, C)
        counit, kY = counit_morphism(D, C, R)
        checks.append(("counit-valid-morphism", not validate(counit)))
        image = counit.matrix.column_space()
        etale_image = R.etale.inclusion.image()
        checks.append(("counit-image-is-etale", image == etale_image))
        # triangle 1: R(counit) o unit_{R(C)} = id as maps of G-sets
        ok = True
        for y, psi in enumerate(R.maps):
            ev = kY.evaluation_at(y)
            if not (ev @ counit.matrix.transpose() == psi):
                ok = False
                break
        checks.append(("triangle-R", ok))
    return {"checks": checks, "ok": all(ok for _, ok in checks)}


def equivariant_maps(D, X, Y):
    """All equivariant maps X -> Y by exhaustive enumeration (small sets)."""
    if X.size == 0:
        return [[]]
    out = []
    f = [0] * X.size
    while True:
        if is_equivariant(D, X, Y, f):
            out.append(list(f))
        i = 0
        while i < X.size:
            f[i] += 1
            if f[i] < Y.size:
                break
            f[i] = 0
            i += 1
        if i == X.size:
            break
    return out
