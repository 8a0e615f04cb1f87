"""Finite k-linear strict monoidal categories, presheaves of finite
dimensional vector spaces, and Day convolution.

Conventions.  Objects are indices into `objects`; a morphism is a triple
(src, dst, coordinate tuple) over the chosen basis of hom(src, dst).
Presheaves are contravariant: the action of a basis morphism f: a -> b is a
matrix F(b) -> F(a).

The convolution (F (*) G)(U) is the cokernel of one relation matrix inside
the direct sum over object pairs (X, Y) of hom(U, X (x) Y) (x) F(X) (x) G(Y).
The coend relations are, for alpha: Xp -> X, beta: Yp -> Y,
phi: U -> Xp (x) Yp, s in F(X) and t in G(Y),

    R(alpha, beta)(phi, s, t)
        = ((alpha (x) beta) o phi) (x) s (x) t  -  phi (x) alpha*(s) (x) beta*(t).

The matrix holds only the one-sided ones, (alpha, id_Y) and (id_X, beta), for
basis morphisms alpha and beta and basis vectors phi, s and t; (id, id)
gives zero and is skipped.  They span all the others:

    R(alpha, beta)(phi, s, t)
        = R(alpha, 1)((1 (x) beta) o phi, s, t) + R(1, beta)(phi, alpha*(s), t)

by the interchange law (alpha (x) 1) o (1 (x) beta) = alpha (x) beta, and
each side is linear in phi, s and t.  Bilinearity in (alpha, beta) then
leaves the basis pairs.  An identity that is not a basis morphism (as may
happen in a one-object category) enters as id_mor and acts by the identity
matrix; that it acts so is functoriality, which every valid presheaf has.
The basis morphisms that are identities are listed once per category.
Each acts by the identity on convolutions, internal homs and realized
sub-presheaves, which store that matrix with no product and no coordinate
solve, and its naturality equations theta_a - theta_a = 0 vanish, so none
is built.  This too rests on functoriality, which DayPresheaf.validate
checks and the CLI enforces on load (exit 3).
The quotient coordinates come from the canonical non-pivot projection, so
convolutions are deterministic and do not depend on the spanning set.

The quotient is taken from the relation columns as they are built:
{index: value} maps of their nonzero entries, whose span the row kernel's
`sparse_rref` reduces to sparse RREF rows, keyed by leading index, without
a dense matrix or a transpose.  The quotient is read straight off those
rows.  The indices of D(U) that lead no row, DayTensor.free[U], are the
quotient coordinates; DayTensor.qcols[U] holds, per index of D(U), the
nonzero entries of that column of the canonical projection: a free index
is its own coordinate, and a leading index goes to minus the rest of its
row.  The action of a basis morphism f: a -> b comes from the blocks of
D(b): in each, the precomposition matrix of f, which the category keeps
once built, sends a free index of D(b) to indices of D(a), which map
through qcols[a].  No D-level action matrix is built.  Every descent to
the quotient takes D-level maps by their nonzero entries and keeps those
in free columns, since the section Q(U) -> D(U) is the identity on the
free indices: quotient_nat, which projects them through qcols, and
_descend_iso (the unit, Yoneda and associator isos), which first checks
them on every relation column.  insert projects through qcols too.  The
dense relations, projections and sections are built only when something
reads them, once per convolution: the purity closure's relation solve and
readers outside the kernel.

D-level layout.  The direct sum D(U) is stored as one block per object pair
(X, Y) with hom(U, X (x) Y), F(X) and G(Y) all nonzero, in the order of X,
then Y.  DayTensor.blocks[U] lists them as (X, Y, off, hd, fd, gd), the
block's offset in D(U) and its three dimensions; block_index[U] maps (X, Y)
to its position there.  Inside a block, the basis tensor
phi (x) s (x) t (phi < hd, s < fd, t < gd) has index

    off + (phi * fd + s) * gd + t.

Only this module reads that index.  Callers elsewhere go through
DayTensor.insert, DayTensor.legs and d_level_nat (or its entries,
_d_level_entries), and through the free indices (the section Q(U) ->
D(U)) and qcols (the projection D(U) -> Q(U)) of the quotient.
"""

from bisect import bisect_left, bisect_right
from functools import cached_property, partial

from .errors import CategoryMismatch, ComputationError, ShapeMismatch, ValidationError
from .linalg import Matrix, Subspace, _dense_rows, row_kernel


class LinearMonoidalCategory:
    """Strict symmetric monoidal category enriched in finite vector spaces."""

    def __init__(self, field, objects, hom_dims, compose, identities, tensor_obj,
                 tensor_mor, unit, symmetry=None):
        self.field = field
        self.objects = list(objects)
        self.hom_dims = dict(hom_dims)
        self.compose = compose
        self.identities = identities
        self.tensor_obj = tensor_obj
        self.tensor_mor = tensor_mor
        self.unit = unit
        m = len(self.objects)
        if symmetry is None:
            symmetry = {}
            for a in range(m):
                for b in range(m):
                    if tensor_obj[a][b] != tensor_obj[b][a]:
                        raise ValidationError(
                            "default identity symmetry needs a commutative tensor table"
                        )
                    symmetry[(a, b)] = self.id_mor(tensor_obj[a][b])
        self.symmetry = symmetry
        self._precompose = {}  # (a, b, i, X) -> precompose_matrix of basis i of hom(a, b)
        self._basis_mors = tuple((a, b, i) for a in range(m) for b in range(m)
                                 for i in range(self.hom_dim(a, b)))
        # the basis morphisms that are identities, which every valid presheaf
        # and every Day construction on valid presheaves act on by the identity
        self._identity_mors = frozenset((a, a, i) for a in range(m) for i in range(self.hom_dim(a, a))
                                        if self.basis_mor(a, a, i) == self.id_mor(a))

    # -- basic structure -------------------------------------------------
    @property
    def size(self):
        return len(self.objects)

    def hom_dim(self, a, b):
        return self.hom_dims.get((a, b), 0)

    def id_mor(self, a):
        return (a, a, tuple(self.identities[a]))

    def basis_mor(self, a, b, i):
        return (a, b, tuple(_basis_vector(self.field, self.hom_dim(a, b), i)))

    def all_basis_mors(self):
        """Every (a, b, i), basis i of hom(a, b), listed once at construction."""
        return self._basis_mors

    def compose_basis(self, a, b, c, j, i):
        """Coordinates of (basis j of hom(b,c)) o (basis i of hom(a,b))."""
        table = self.compose.get((a, b, c))
        if table is None:
            return [self.field.zero] * self.hom_dim(a, c)
        return table[j][i]

    def _bilinear(self, xc, yc, basis, dim):
        """Sum over i, j of xc[i] * yc[j] * basis(i, j), as a coordinate tuple."""
        F = self.field
        out = [F.zero] * dim
        for i, xv in enumerate(xc):
            if F.is_zero(xv):
                continue
            for j, yv in enumerate(yc):
                if F.is_zero(yv):
                    continue
                coef = F.mul(xv, yv)
                for t, cv in enumerate(basis(i, j)):
                    if not F.is_zero(cv):
                        out[t] = F.add(out[t], F.mul(coef, cv))
        return tuple(out)

    def compose_mor(self, g, f):
        """g o f for f: a -> b, g: b -> c."""
        a, b1, fc = f
        b2, c, gc = g
        if b1 != b2:
            raise ShapeMismatch("composition target/source mismatch")
        basis = partial(self.compose_basis, a, b1, c)
        return (a, c, self._bilinear(gc, fc, basis, self.hom_dim(a, c)))

    def tensor_basis(self, a, b, c, d, i, j):
        """(basis i of hom(a,b)) (x) (basis j of hom(c,d))."""
        table = self.tensor_mor.get((a, b, c, d))
        if table is None:
            return [self.field.zero] * self.hom_dim(
                self.tensor_obj[a][c], self.tensor_obj[b][d]
            )
        return table[i][j]

    def tensor_mor_pair(self, f, g):
        a, b, fc = f
        c, d, gc = g
        src = self.tensor_obj[a][c]
        dst = self.tensor_obj[b][d]
        basis = partial(self.tensor_basis, a, b, c, d)
        return (src, dst, self._bilinear(fc, gc, basis, self.hom_dim(src, dst)))

    def precompose_matrix(self, f, X):
        """Matrix of hom(b, X) -> hom(a, X), g -> g o f, for f: a -> b."""
        a, b, _ = f
        F = self.field
        rows, cols = self.hom_dim(a, X), self.hom_dim(b, X)
        comps = [self.compose_mor(self.basis_mor(b, X, j), f)[2] for j in range(cols)]
        return Matrix(F, rows, cols, [[comp[t] for comp in comps] for t in range(rows)])

    def _basis_precompose(self, a, b, i, X):
        """precompose_matrix of basis i of hom(a, b), built on first use."""
        key = (a, b, i, X)
        P = self._precompose.get(key)
        if P is None:
            P = self._precompose[key] = self.precompose_matrix(self.basis_mor(a, b, i), X)
        return P

    def validate(self):
        """Category, strict monoidal, and symmetry axioms on basis elements."""
        F = self.field
        failures = []
        m = self.size
        for a in range(m):
            if self.tensor_obj[self.unit][a] != a or self.tensor_obj[a][self.unit] != a:
                failures.append(("strict-unit-object", a))
            for b in range(m):
                for c in range(m):
                    lhs = self.tensor_obj[self.tensor_obj[a][b]][c]
                    rhs = self.tensor_obj[a][self.tensor_obj[b][c]]
                    if lhs != rhs:
                        failures.append(("strict-associativity-object", (a, b, c)))
        for (a, b, i) in self.all_basis_mors():
            f = self.basis_mor(a, b, i)
            if self.compose_mor(self.id_mor(b), f) != f:
                failures.append(("left-identity", (a, b, i)))
            if self.compose_mor(f, self.id_mor(a)) != f:
                failures.append(("right-identity", (a, b, i)))
        for (a, b, i) in self.all_basis_mors():
            for (b2, c, j) in self.all_basis_mors():
                if b2 != b:
                    continue
                for (c2, d, k) in self.all_basis_mors():
                    if c2 != c:
                        continue
                    f = self.basis_mor(a, b, i)
                    g = self.basis_mor(b, c, j)
                    h = self.basis_mor(c, d, k)
                    if self.compose_mor(self.compose_mor(h, g), f) != self.compose_mor(
                        h, self.compose_mor(g, f)
                    ):
                        failures.append(("associativity", (a, b, c, d, i, j, k)))
        for a in range(m):
            for b in range(m):
                if self.tensor_mor_pair(self.id_mor(a), self.id_mor(b)) != self.id_mor(
                    self.tensor_obj[a][b]
                ):
                    failures.append(("tensor-identities", (a, b)))
        # interchange on basis morphisms
        basis = self.all_basis_mors()
        for (a, b, i) in basis:
            for (b2, c, j) in basis:
                if b2 != b:
                    continue
                for (x, y, k) in basis:
                    for (y2, z, l) in basis:
                        if y2 != y:
                            continue
                        f = self.basis_mor(a, b, i)
                        g = self.basis_mor(b, c, j)
                        u = self.basis_mor(x, y, k)
                        v = self.basis_mor(y, z, l)
                        lhs = self.tensor_mor_pair(
                            self.compose_mor(g, f), self.compose_mor(v, u)
                        )
                        rhs = self.compose_mor(
                            self.tensor_mor_pair(g, v), self.tensor_mor_pair(f, u)
                        )
                        if lhs != rhs:
                            failures.append(("interchange", (a, b, c, x, y, z)))
        for a in range(m):
            for b in range(m):
                s = self.symmetry[(a, b)]
                sb = self.symmetry[(b, a)]
                if self.compose_mor(sb, s) != self.id_mor(self.tensor_obj[a][b]):
                    failures.append(("symmetry-involution", (a, b)))
        for (a, b, i) in self.all_basis_mors():
            for (c, d, j) in self.all_basis_mors():
                f = self.basis_mor(a, b, i)
                g = self.basis_mor(c, d, j)
                lhs = self.compose_mor(self.symmetry[(b, d)], self.tensor_mor_pair(f, g))
                rhs = self.compose_mor(self.tensor_mor_pair(g, f), self.symmetry[(a, c)])
                if lhs != rhs:
                    failures.append(("symmetry-naturality", (a, b, c, d, i, j)))
        return failures


def _basis_vector(fld, n, i):
    return [fld.one if j == i else fld.zero for j in range(n)]


def _identity_action(fld, n):
    """The action of an identity basis morphism on an n-dimensional value:
    a plain Matrix of field.one and field.zero, as the general path writes
    it (Matrix.identity is an integer-row matrix over Q)."""
    return Matrix(fld, n, n, [_basis_vector(fld, n, i) for i in range(n)])


# -- example categories ---------------------------------------------------


def group_discrete_category(field, table):
    """Objects are group elements; only scalar endomorphisms; tensor is the
    group multiplication.  The group must be abelian."""
    m = len(table)
    for i in range(m):
        for j in range(m):
            if table[i][j] != table[j][i]:
                raise ValidationError("group-discrete category needs an abelian group")
    one = field.one
    hom_dims = {(a, a): 1 for a in range(m)}
    compose = {(a, a, a): [[[one]]] for a in range(m)}
    identities = {a: [one] for a in range(m)}
    tensor_mor = {}
    for a in range(m):
        for b in range(m):
            tensor_mor[(a, a, b, b)] = [[[one]]]
    unit = _table_identity(table)
    return LinearMonoidalCategory(
        field, [f"g{a}" for a in range(m)], hom_dims, compose, identities,
        [list(r) for r in table], tensor_mor, unit,
    )


def cyclic_group_category(field, n):
    return group_discrete_category(
        field, [[(i + j) % n for j in range(n)] for i in range(n)]
    )


def _table_identity(table):
    for i, row in enumerate(table):
        if all(row[j] == j for j in range(len(row))):
            return i
    raise ValidationError("tensor table has no unit")


def poset_max_category(field, n):
    """The total order 0 <= 1 <= ... <= n-1 with tensor = max, unit = 0."""
    one = field.one
    hom_dims = {}
    compose = {}
    identities = {a: [one] for a in range(n)}
    for a in range(n):
        for b in range(a, n):
            hom_dims[(a, b)] = 1
            for c in range(b, n):
                compose[(a, b, c)] = [[[one]]]
    tensor_obj = [[max(a, b) for b in range(n)] for a in range(n)]
    tensor_mor = {}
    for a in range(n):
        for b in range(a, n):
            for c in range(n):
                for d in range(c, n):
                    tensor_mor[(a, b, c, d)] = [[[one]]]
    return LinearMonoidalCategory(
        field, [str(a) for a in range(n)], hom_dims, compose, identities,
        tensor_obj, tensor_mor, 0,
    )


def one_object_algebra_category(field, algebra):
    """A single object whose endomorphisms are a commutative algebra; both
    composition and the tensor of morphisms are the multiplication."""
    n = algebra.dim
    struct = [[algebra.mult.col(j * n + i) for i in range(n)] for j in range(n)]
    hom_dims = {(0, 0): n}
    compose = {(0, 0, 0): struct}
    tensor_mor = {(0, 0, 0, 0): struct}
    identities = {0: list(algebra.unit)}
    return LinearMonoidalCategory(
        field, ["*"], hom_dims, compose, identities, [[0]], tensor_mor, 0,
    )


# -- presheaves ------------------------------------------------------------


class DayPresheaf:
    """Contravariant functor to finite dimensional vector spaces."""

    def __init__(self, category, dims, actions):
        self.category = category
        self.dims = list(dims)
        self.actions = actions  # (a, b, i) -> Matrix dims[a] x dims[b]

    def action(self, a, b, i):
        M = self.actions.get((a, b, i))
        if M is None:
            return Matrix.zeros(self.category.field, self.dims[a], self.dims[b])
        return M

    def action_of(self, f):
        """Action matrix of an arbitrary morphism (linear in f).  A basis
        morphism with coefficient 1 acts by its stored matrix itself, which
        is never written, so f (x) id and the identities build nothing."""
        a, b, coords = f
        F = self.category.field
        terms = []
        for i, c in enumerate(coords):
            if not F.is_zero(c):
                M = self.action(a, b, i)
                terms.append(M if F.is_one(c) else M.scale(c))
        if not terms:
            return Matrix.zeros(F, self.dims[a], self.dims[b])
        return sum(terms[1:], terms[0])

    def total_dim(self):
        return sum(self.dims)

    def validate(self):
        cat = self.category
        failures = []
        for a in range(cat.size):
            ida = cat.id_mor(a)
            if self.action_of(ida) != Matrix.identity(cat.field, self.dims[a]):
                failures.append(("identity-action", a))
        for (a, b, i) in cat.all_basis_mors():
            for (b2, c, j) in cat.all_basis_mors():
                if b2 != b:
                    continue
                comp = cat.compose_mor(cat.basis_mor(b, c, j), cat.basis_mor(a, b, i))
                lhs = self.action_of(comp)
                rhs = self.action(a, b, i) @ self.action(b, c, j)
                if lhs != rhs:
                    failures.append(("functoriality", (a, b, c, i, j)))
        return failures

    def __eq__(self, other):
        if not isinstance(other, DayPresheaf):
            return NotImplemented
        if self.category is not other.category or self.dims != other.dims:
            return False
        keys = set(self.actions) | set(other.actions)
        return all(
            self.action(a, b, i) == other.action(a, b, i) for (a, b, i) in keys
        )

    def __repr__(self):
        return f"DayPresheaf(dims {self.dims})"


def representable(category, X):
    """h_X with h_X(U) = hom(U, X) and precomposition actions."""
    dims = [category.hom_dim(U, X) for U in range(category.size)]
    actions = {}
    for (a, b, i) in category.all_basis_mors():
        actions[(a, b, i)] = category._basis_precompose(a, b, i, X)
    return DayPresheaf(category, dims, actions)


def direct_sum_presheaf(F, G):
    if F.category is not G.category:
        raise CategoryMismatch("direct sum across categories")
    cat = F.category
    dims = [F.dims[a] + G.dims[a] for a in range(cat.size)]
    actions = {}
    for (a, b, i) in cat.all_basis_mors():
        MF = F.action(a, b, i)
        MG = G.action(a, b, i)
        top = MF.hstack(Matrix.zeros(cat.field, MF.rows, MG.cols))
        actions[(a, b, i)] = top.vstack(Matrix.zeros(cat.field, MG.rows, MF.cols).hstack(MG))
    return DayPresheaf(cat, dims, actions)


class NatTransform:
    """Per-object matrices source(U) -> target(U)."""

    def __init__(self, source, target, mats):
        self.source = source
        self.target = target
        self.mats = list(mats)

    def at(self, U):
        return self.mats[U]

    def is_natural(self):
        cat = self.source.category
        for (a, b, i) in cat.all_basis_mors():
            lhs = self.mats[a] @ self.source.action(a, b, i)
            rhs = self.target.action(a, b, i) @ self.mats[b]
            if not (lhs == rhs):
                return False
        return True

    def compose(self, other):
        return NatTransform(
            other.source, self.target,
            [m1 @ m2 for m1, m2 in zip(self.mats, other.mats)],
        )

    def is_identity(self):
        return all(
            m == Matrix.identity(m.field, m.rows) and m.rows == m.cols
            for m in self.mats
        )

    def is_zero(self):
        return all(m.is_zero() for m in self.mats)

    def __eq__(self, other):
        if not isinstance(other, NatTransform):
            return NotImplemented
        return self.mats == other.mats

    def __repr__(self):
        return f"NatTransform({self.source.dims} -> {self.target.dims})"


def identity_nat(F):
    return NatTransform(
        F, F, [Matrix.identity(F.category.field, d) for d in F.dims]
    )


def _naturality_kernel(F, G):
    """Solve theta_a o F(f) = G(f) o theta_b for every basis f: a -> b.

    The unknown theta_U: F(U) -> G(U) is stored row-major at offsets[U] of
    one vector; returns (offsets, kernel of the equations).  Each equation
    is built from its nonzero entries as an {index: value} map, the unknown
    j numbered total - 1 - j, so each sparse RREF row leads at its largest
    j.  The kernel vectors, per j that leads no row 1 at j and minus the
    j-th entry of each row at that row's leading index, are then already
    the kernel's canonical RREF basis.  An identity basis morphism gives no
    equation: F and G act on it by the identity, so its equations read
    theta_a - theta_a = 0."""
    cat = F.category
    fld = cat.field
    offsets = []
    total = 0
    for U in range(cat.size):
        offsets.append(total)
        total += G.dims[U] * F.dims[U]
    last = total - 1
    eqs = []
    for (a, b, i) in cat.all_basis_mors():
        if (a, b, i) in cat._identity_mors:
            continue
        Fcols = _nonzero_cols(fld, F.action(a, b, i))
        Grows = [[(k, y) for k, y in enumerate(row) if not fld.is_zero(y)]
                 for row in G.action(a, b, i).data]
        fa, fb = F.dims[a], F.dims[b]
        # entry (r, c) of the equation: r < G.dims[a], c < F.dims[b]
        for r, grow in enumerate(Grows):
            base = last - offsets[a] - r * fa
            for c, fcol in enumerate(Fcols):
                row = {base - k: x for k, x in fcol}
                for k, y in grow:
                    idx = last - offsets[b] - k * fb - c
                    row[idx] = fld.sub(row.get(idx, fld.zero), y)
                if row:
                    eqs.append(row)
    rows = row_kernel(fld).sparse_rref(fld, total, eqs)
    vecs = {j: {j: fld.one} for j in range(total) if last - j not in rows}
    for c, row in rows.items():
        for j, v in row.items():
            if j != c:
                vecs[last - j][last - c] = fld.neg(v)
    basis = _dense_rows(fld.zero, total, vecs)
    return offsets, Subspace(fld, total, Matrix(fld, len(basis), total, basis))


def _component(fld, vec, off, rows, cols):
    """The rows x cols matrix stored row-major at off in vec."""
    return Matrix(fld, rows, cols, [vec[off + r * cols : off + (r + 1) * cols] for r in range(rows)])


def nat_space(F, G):
    """Basis of all natural transformations F -> G."""
    offsets, space = _naturality_kernel(F, G)
    fld = F.category.field
    return [
        NatTransform(F, G, [
            _component(fld, vec, off, G.dims[U], F.dims[U]) for U, off in enumerate(offsets)
        ])
        for vec in space.vectors()
    ]


# -- Day convolution -------------------------------------------------------


class DayTensor:
    """The convolution of two presheaves plus its structural bookkeeping.
    An identity basis morphism precomposes by the identity, so it acts by
    the identity matrix, with no projection; every other one by `_action`."""

    def __init__(self, F, G):
        if F.category is not G.category:
            raise CategoryMismatch("convolution across categories")
        self.F = F
        self.G = G
        cat = F.category
        self.category = cat
        fld = cat.field
        self.blocks = []      # per U: list of (X, Y, offset, hd, fd, gd)
        self.block_index = [] # per U: dict (X, Y) -> position in blocks[U]
        self.d_dims = []
        self.free = []        # per U: the indices of D(U) the sections pick
        self.qcols = []       # per U, per index of D(U): the nonzero
                              # (row, value) of that column of projections[U]
        self.relation_tags = []
        self._relation_cols = []  # per U: the relation columns, {index: value}
        dims = []
        terms = self._relation_terms()
        for U in range(cat.size):
            blocks = []
            index = {}
            off = 0
            for X in range(cat.size):
                fd = F.dims[X]
                if fd == 0:
                    continue
                for Y in range(cat.size):
                    gd = G.dims[Y]
                    hd = cat.hom_dim(U, cat.tensor_obj[X][Y])
                    if gd == 0 or hd == 0:
                        continue
                    index[(X, Y)] = len(blocks)
                    blocks.append((X, Y, off, hd, fd, gd))
                    off += hd * fd * gd
            self.blocks.append(blocks)
            self.block_index.append(index)
            self.d_dims.append(off)
            tags, cols = self._relation_matrix(U, terms)
            self.relation_tags.append(tags)
            self._relation_cols.append(cols)
            # sparsest first: the RREF of a span does not depend on the order,
            # and a short column reduces in few steps (most reduce to zero)
            rows = row_kernel(fld).sparse_rref(fld, off, sorted(cols, key=len))
            free, qcols = _quotient_cols(fld, off, rows)
            self.free.append(free)
            self.qcols.append(qcols)
            dims.append(len(free))
        actions = {}
        for (a, b, i) in cat.all_basis_mors():
            if (a, b, i) in cat._identity_mors:
                actions[(a, b, i)] = _identity_action(fld, dims[a])
            else:
                actions[(a, b, i)] = self._action(a, b, i, dims)
        self.presheaf = DayPresheaf(cat, dims, actions)

    @cached_property
    def relations(self):
        """Per U, the relation columns as one d_dims[U]-row matrix."""
        fld = self.category.field
        return [
            Matrix.from_entries(fld, d, len(cols),
                                [(i, j, v) for j, col in enumerate(cols) for i, v in col.items()])
            for d, cols in zip(self.d_dims, self._relation_cols)
        ]

    @cached_property
    def projections(self):
        """Per U, the canonical projection D(U) -> Q(U) of
        `linalg.quotient_maps`, assembled from qcols."""
        fld = self.category.field
        return [
            Matrix.from_entries(fld, len(free), d,
                                [(r, j, v) for j, col in enumerate(qcols) for r, v in col])
            for d, free, qcols in zip(self.d_dims, self.free, self.qcols)
        ]

    @cached_property
    def sections(self):
        """Per U, the section Q(U) -> D(U): the k-th quotient basis vector
        goes to the basis vector free[k] of D(U)."""
        fld = self.category.field
        return [
            Matrix.from_entries(fld, d, len(free), [(j, k, fld.one) for k, j in enumerate(free)])
            for d, free in zip(self.d_dims, self.free)
        ]

    def _relation_terms(self):
        """The part of the relations that does not depend on U, per pair
        (alpha, beta) with one side an identity (see the module docstring):
        alpha: Xp -> X and beta: Yp -> Y with F(X), G(Y) nonzero, as
        (X, Y, Xp, Yp, ai, bi, alpha (x) beta, minus).  The basis index ai
        or bi of the identity side is None; minus[s][t] lists the nonzero
        entries of -F(alpha)(s) (x) G(beta)(t) as (offset in a phi row of
        the (Xp, Yp) block, value)."""
        cat = self.category
        fld = cat.field
        F, G = self.F, self.G
        neg = partial(fld.sub, fld.zero)
        terms = []
        for (Xp, X, ai) in cat.all_basis_mors():
            if F.dims[X] == 0 or (Xp, X, ai) in cat._identity_mors:
                continue
            alpha = cat.basis_mor(Xp, X, ai)
            Fcols = _nonzero_cols(fld, F.action(Xp, X, ai))
            for Y in range(cat.size):
                gd = G.dims[Y]
                if gd:
                    minus = [[[(i2 * gd + t, neg(u)) for i2, u in fs] for t in range(gd)]
                             for fs in Fcols]
                    tm = cat.tensor_mor_pair(alpha, cat.id_mor(Y))
                    terms.append((X, Y, Xp, Y, ai, None, tm, minus))
        for (Yp, Y, bi) in cat.all_basis_mors():
            if G.dims[Y] == 0 or (Yp, Y, bi) in cat._identity_mors:
                continue
            beta = cat.basis_mor(Yp, Y, bi)
            Gcols = _nonzero_cols(fld, G.action(Yp, Y, bi))
            gd_p = G.dims[Yp]
            for X in range(cat.size):
                if F.dims[X]:
                    minus = [[[(s * gd_p + j2, neg(v)) for j2, v in gt] for gt in Gcols]
                             for s in range(F.dims[X])]
                    tm = cat.tensor_mor_pair(cat.id_mor(X), beta)
                    terms.append((X, Y, X, Yp, None, bi, tm, minus))
        return terms

    def _relation_matrix(self, U, terms):
        """Relation columns of D(U), one per term of _relation_terms and
        (phi, s, t), each built from its nonzero entries; a column that
        cancels to zero is left out.  Returns the column tags and the
        columns as {index: value} maps."""
        cat = self.category
        fld = cat.field
        cols = []  # {index: nonzero value}
        tags = []  # per column: (X, Y, Xp, Yp, ai, bi, pi, s, t)
        index = self.block_index[U]
        blocks = self.blocks[U]
        for X, Y, Xp, Yp, ai, bi, tm, minus in terms:
            src_obj = cat.tensor_obj[Xp][Yp]
            hd_src = cat.hom_dim(U, src_obj)
            if hd_src == 0:
                continue
            fd, gd = self.F.dims[X], self.G.dims[Y]
            # minus is empty unless F(Xp), G(Yp) and so the (Xp, Yp) block
            # are nonzero
            if (Xp, Yp) in index:
                _, _, off_p, _, fd_p, gd_p = blocks[index[(Xp, Yp)]]
            for pi in range(hd_src):
                # chi (x) s (x) t with chi = (alpha (x) beta) o phi: the
                # offsets of chi's nonzero coordinates at s = t = 0
                chi_at = []
                if (X, Y) in index:
                    off = blocks[index[(X, Y)]][2]
                    chi = cat.compose_mor(tm, cat.basis_mor(U, src_obj, pi))
                    chi_at = [
                        (off + ci * fd * gd, cv) for ci, cv in enumerate(chi[2]) if not fld.is_zero(cv)
                    ]
                if (Xp, Yp) in index:
                    base = off_p + pi * fd_p * gd_p
                for s in range(fd):
                    for t in range(gd):
                        st = s * gd + t
                        col = {c + st: cv for c, cv in chi_at}
                        for k, m in minus[s][t]:
                            idx = base + k
                            if idx in col:
                                w = fld.add(col[idx], m)
                                if fld.is_zero(w):
                                    del col[idx]
                                else:
                                    col[idx] = w
                            else:
                                col[idx] = m
                        if col:
                            cols.append(col)
                            tags.append((X, Y, Xp, Yp, ai, bi, pi, s, t))
        return tags, cols

    def _action(self, a, b, i, dims):
        """The action of f: a -> b on the convolution,
        projections[a] @ D(f) @ sections[b], from the blocks of D(b).

        The section picks the free indices of D(b).  D(f) precomposes the
        hom factor: it sends index (pj, s, t) of block (X, Y) of D(b) to
        the sum over pi of P[pi][pj] times index (pi, s, t) of block
        (X, Y) of D(a), P being the matrix of g -> g o f."""
        cat = self.category
        fld = cat.field
        free = self.free[b]
        entries = []  # (index of D(a), column, value) of D(f) @ sections[b]
        index_a = self.block_index[a]
        for (X, Y, off, hd, fd, gd) in self.blocks[b]:
            if (X, Y) not in index_a:
                continue
            off_a = self.blocks[a][index_a[(X, Y)]][2]
            P = cat._basis_precompose(a, b, i, cat.tensor_obj[X][Y]).data
            size = fd * gd
            for k in range(bisect_left(free, off), bisect_left(free, off + hd * size)):
                pj, st = divmod(free[k] - off, size)
                for pi, prow in enumerate(P):
                    if not fld.is_zero(prow[pj]):
                        entries.append((off_a + pi * size + st, k, prow[pj]))
        return self.project(a, dims[b], entries)

    def project(self, U, ncols, entries):
        """projections[U] @ X for the D(U)-level matrix X with ncols columns
        whose nonzero entries are the (index, column, value) triples: each
        adds value times the column of the projection at index, read from
        its nonzero entries.  Most entries of the result are written once,
        and most values are one, so those take no field operation."""
        fld = self.category.field
        qcols = self.qcols[U]
        triples = []
        for idx, k, c in entries:
            if fld.is_one(c):
                triples += [(r, k, v) for r, v in qcols[idx]]
            else:
                triples += [(r, k, fld.mul(c, v)) for r, v in qcols[idx]]
        return Matrix.from_entries(fld, len(self.free[U]), ncols, triples)

    def insert(self, U, X, Y, phi_coords, svec, tvec):
        """Image in the convolution of phi (x) svec (x) tvec."""
        fld = self.category.field
        entries = []  # (index of D(U), 0, value)
        index = self.block_index[U]
        if (X, Y) in index:
            _, _, off, hd, fd, gd = self.blocks[U][index[(X, Y)]]
            entries = [(off + (pi * fd + s) * gd + t, 0, fld.mul(fld.mul(pv, sv), tv))
                       for pi, pv in enumerate(phi_coords) if not fld.is_zero(pv)
                       for s, sv in enumerate(svec) if not fld.is_zero(sv)
                       for t, tv in enumerate(tvec) if not fld.is_zero(tv)]
        return self.project(U, 1, entries).col(0)

    def legs(self, U, vec):
        """Both tensor legs of a D-level element of D(U), given as an
        {index: value} map, as (object, vector) pairs: per block the nonzero
        G-legs (one per phi, s), then the nonzero F-legs (one per t, phi)."""
        fld = self.category.field
        out = []
        for (X, Y, off, hd, fd, gd) in self.blocks[U]:
            for pi in range(hd):
                for s in range(fd):
                    row = [vec.get(off + (pi * fd + s) * gd + t, fld.zero) for t in range(gd)]
                    if any(not fld.is_zero(c) for c in row):
                        out.append((Y, row))
            for t in range(gd):
                for pi in range(hd):
                    col = [vec.get(off + (pi * fd + s) * gd + t, fld.zero) for s in range(fd)]
                    if any(not fld.is_zero(c) for c in col):
                        out.append((X, col))
        return out

    def dim(self, U):
        return self.presheaf.dims[U]


def _nonzero_cols(fld, M):
    """Per column of M, its nonzero entries as (row, value) pairs."""
    return [
        [(i, row[j]) for i, row in enumerate(M.data) if not fld.is_zero(row[j])]
        for j in range(M.cols)
    ]


def _quotient_cols(fld, ambient, rows):
    """The free indices of k^ambient modulo the span of the sparse RREF rows
    ({leading index: {index: value}}), and per index the nonzero (row,
    value) entries of that column of the canonical projection, as
    `linalg.quotient_maps` builds it: a free index is its own quotient
    coordinate, and a leading index c goes to minus the other entries of
    its row, which all sit at free indices."""
    free = [j for j in range(ambient) if j not in rows]
    pos = {j: k for k, j in enumerate(free)}
    one, neg = fld.one, fld.neg
    qcols = []
    for j in range(ambient):
        row = rows.get(j)
        if row is None:
            qcols.append([(pos[j], one)])
        else:
            qcols.append(sorted((pos[i], neg(v)) for i, v in row.items() if i != j))
    return free, qcols


def day_convolve(F, G):
    return DayTensor(F, G)


def d_level_nat(tensor_src, tensor_dst, alpha, beta):
    """alpha (x) beta on the direct sums: one matrix D_src(U) -> D_dst(U) per
    object U."""
    fld = tensor_src.category.field
    return [
        Matrix.from_entries(fld, tensor_dst.d_dims[U], tensor_src.d_dims[U], entries)
        for U, entries in enumerate(_d_level_entries(tensor_src, tensor_dst, alpha, beta))
    ]


def _d_level_entries(tensor_src, tensor_dst, alpha, beta):
    """The matrices of d_level_nat by their nonzero entries: per object U,
    (index of D_dst(U), index of D_src(U), value) triples."""
    cat = tensor_src.category
    fld = cat.field
    out = []
    for U in range(cat.size):
        entries = []
        index_dst = tensor_dst.block_index[U]
        for (X, Y, off_s, hd, fd_s, gd_s) in tensor_src.blocks[U]:
            if (X, Y) not in index_dst:
                continue
            _, _, off_d, hd_d, fd_d, gd_d = tensor_dst.blocks[U][index_dst[(X, Y)]]
            A = alpha.at(X)
            B = beta.at(Y)
            for pi in range(hd):
                for s in range(fd_s):
                    for t in range(gd_s):
                        src_idx = off_s + (pi * fd_s + s) * gd_s + t
                        for s2 in range(fd_d):
                            a = A.data[s2][s]
                            if fld.is_zero(a):
                                continue
                            for t2 in range(gd_d):
                                b = B.data[t2][t]
                                if fld.is_zero(b):
                                    continue
                                dst_idx = off_d + (pi * fd_d + s2) * gd_d + t2
                                entries.append((dst_idx, src_idx, fld.mul(a, b)))
            if hd != hd_d:
                raise ComputationError("hom dimensions disagree between convolutions")
        out.append(entries)
    return out


def _free_entries(free, entries):
    """M @ sections[U] for M out of D(U) given by its (row, index of D(U),
    value) entries: the section sends the k-th quotient basis vector to the
    basis vector free[k], so the entries in free columns are kept."""
    pos = {j: k for k, j in enumerate(free)}
    return [(r, pos[j], v) for r, j, v in entries if j in pos]


def quotient_nat(tensor_src, tensor_dst, d_level):
    """The map of convolutions induced by D-level maps M (one per object)
    that carry relations into relations:
    projections[U] @ M @ sections[U] of the two convolutions.  Each M is
    given by its nonzero entries, (index of D_dst(U), index of D_src(U),
    value) triples."""
    mats = []
    for U, entries in enumerate(d_level):
        free = tensor_src.free[U]
        mats.append(tensor_dst.project(U, len(free), _free_entries(free, entries)))
    return NatTransform(tensor_src.presheaf, tensor_dst.presheaf, mats)


def convolve_nat(tensor_src, tensor_dst, alpha, beta):
    """alpha (x) beta on convolutions: (F (*) G) -> (F' (*) G')."""
    return quotient_nat(tensor_src, tensor_dst,
                        _d_level_entries(tensor_src, tensor_dst, alpha, beta))


# -- structural isomorphisms ----------------------------------------------


def _descend_iso(tensor, d_level, target):
    """The NatTransform out of the convolution induced by D-level maps
    M: D(U) -> target(U), one per object, given by their nonzero (row, index
    of D(U), value) entries: M @ sections[U], once M kills every relation
    column."""
    fld = tensor.category.field
    mats = []
    for U, entries in enumerate(d_level):
        at = {}  # index of D(U) -> the (row, value) entries of that column
        for r, j, v in entries:
            at.setdefault(j, []).append((r, v))
        for col in tensor._relation_cols[U]:
            image = {}
            for j, c in col.items():
                for r, v in at.get(j, ()):
                    image[r] = fld.add(image.get(r, fld.zero), fld.mul(v, c))
            if not all(map(fld.is_zero, image.values())):
                raise ComputationError("candidate map does not respect the coequalizer")
        mats.append(Matrix.from_entries(fld, target.dims[U], tensor.dim(U),
                                        _free_entries(tensor.free[U], entries)))
    return NatTransform(tensor.presheaf, target, mats)


def _unit_iso(tensor, right):
    """(F (*) h_1) -> F if right, else (h_1 (*) F) -> F: phi (x) s (x) t goes
    to F(chi) of the F-leg, chi = (id (x) psi) o phi or (psi (x) id) o phi for
    the h_1-leg psi."""
    cat = tensor.category
    fld = cat.field
    F = tensor.F if right else tensor.G
    d_level = []
    for U in range(cat.size):
        entries = []
        for (X, Y, off, hd, fd, gd) in tensor.blocks[U]:
            for pi in range(hd):
                phi = cat.basis_mor(U, cat.tensor_obj[X][Y], pi)
                for j in range(gd if right else fd):
                    if right:
                        leg = cat.tensor_mor_pair(cat.id_mor(X), cat.basis_mor(Y, cat.unit, j))
                    else:
                        leg = cat.tensor_mor_pair(cat.basis_mor(X, cat.unit, j), cat.id_mor(Y))
                    act = F.action_of(cat.compose_mor(leg, phi))  # F(leg source) -> F(U)
                    for k in range(fd if right else gd):
                        s, t = (k, j) if right else (j, k)
                        col = off + (pi * fd + s) * gd + t
                        entries += [
                            (r, col, v) for r, v in enumerate(act.col(k)) if not fld.is_zero(v)
                        ]
        d_level.append(entries)
    return _descend_iso(tensor, d_level, F)


def unit_right_iso(tensor):
    """(F (*) h_1) -> F via s (x) psi -> F((id (x) psi) o phi)(s)."""
    return _unit_iso(tensor, right=True)


def unit_left_iso(tensor):
    """(h_1 (*) F) -> F."""
    return _unit_iso(tensor, right=False)


def yoneda_iso(tensor, X, Y):
    """(h_X (*) h_Y) -> h_{X (x) Y} via (phi, s, t) -> (s (x) t) o phi.

    Returns (forward, backward) natural transformations; forward o backward
    and backward o forward are identities (checked by the caller's tests).
    """
    cat = tensor.category
    fld = cat.field
    target_obj = cat.tensor_obj[X][Y]
    target = representable(cat, target_obj)
    d_level = []
    for U in range(cat.size):
        entries = []
        for (A, B, off, hd, fd, gd) in tensor.blocks[U]:
            for s in range(fd):
                smor = cat.basis_mor(A, X, s)
                for t in range(gd):
                    tmor = cat.basis_mor(B, Y, t)
                    tm = cat.tensor_mor_pair(smor, tmor)
                    for pi in range(hd):
                        phi = cat.basis_mor(U, cat.tensor_obj[A][B], pi)
                        chi = cat.compose_mor(tm, phi)
                        idx = off + (pi * fd + s) * gd + t
                        entries += [
                            (r, idx, cv) for r, cv in enumerate(chi[2]) if not fld.is_zero(cv)
                        ]
        d_level.append(entries)
    forward = _descend_iso(tensor, d_level, target)
    back_mats = []
    idX = cat.id_mor(X)[2]
    idY = cat.id_mor(Y)[2]
    for U in range(cat.size):
        cols = []
        for pi in range(target.dims[U]):
            phi = cat.basis_mor(U, target_obj, pi)
            cols.append(tensor.insert(U, X, Y, phi[2], idX, idY))
        back_mats.append(Matrix.from_cols(fld, cols, tensor.dim(U)))
    backward = NatTransform(target, tensor.presheaf, back_mats)
    return forward, backward


def symmetry_iso(tensor_FG, tensor_GF):
    """(F (*) G) -> (G (*) F) by post-composing with the symmetry and
    swapping the tensor legs."""
    cat = tensor_FG.category
    fld = cat.field
    d_level = []
    for U in range(cat.size):
        entries = []
        index_t = tensor_GF.block_index[U]
        for (X, Y, off, hd, fd, gd) in tensor_FG.blocks[U]:
            if (Y, X) not in index_t:
                raise ComputationError("swapped block missing")
            _, _, off2, hd2, gd2, fd2 = tensor_GF.blocks[U][index_t[(Y, X)]]
            sym = cat.symmetry[(X, Y)]
            for pi in range(hd):
                phi = cat.basis_mor(U, cat.tensor_obj[X][Y], pi)
                chi = cat.compose_mor(sym, phi)  # hom(U, Y (x) X)
                for s in range(fd):
                    for t in range(gd):
                        src = off + (pi * fd + s) * gd + t
                        for r, cv in enumerate(chi[2]):
                            if fld.is_zero(cv):
                                continue
                            dst = off2 + (r * gd2 + t) * fd2 + s
                            entries.append((dst, src, cv))
        d_level.append(entries)
    return quotient_nat(tensor_FG, tensor_GF, d_level)


def associator_iso(tensor_FG, tensor_FG_H, tensor_GH, tensor_F_GH):
    """((F (*) G) (*) H) -> (F (*) (G (*) H)) through the strict structure:
    the section lifts the s-th basis vector of (F (*) G)(W) to the basis
    tensor psi (x) e_i (x) e_j at index free[s] of D_FG(W)."""
    cat = tensor_FG.category
    fld = cat.field
    d_level = []
    for U in range(cat.size):
        entries = []
        for (W, Z, off, hd, fdW, gdZ) in tensor_FG_H.blocks[U]:
            inner = tensor_FG.blocks[W]
            starts = [block[2] for block in inner]
            for s, j in enumerate(tensor_FG.free[W]):
                X, Y, off2, _, fd2, gd2 = inner[bisect_right(starts, j) - 1]
                pj, rest = divmod(j - off2, fd2 * gd2)
                i2, j2 = divmod(rest, gd2)
                psi = cat.tensor_mor_pair(cat.basis_mor(W, cat.tensor_obj[X][Y], pj), cat.id_mor(Z))
                YZ = cat.tensor_obj[Y][Z]
                fvec = _basis_vector(fld, tensor_F_GH.F.dims[X], i2)
                gvec = _basis_vector(fld, tensor_GH.F.dims[Y], j2)
                for t in range(gdZ):
                    # e_j (x) e_t in (G (*) H)(Y (x) Z)
                    ghelt = tensor_GH.insert(YZ, Y, Z, cat.id_mor(YZ)[2], gvec,
                                             _basis_vector(fld, tensor_GH.G.dims[Z], t))
                    for pi in range(hd):
                        shifted = cat.compose_mor(psi, cat.basis_mor(U, cat.tensor_obj[W][Z], pi))
                        outer = tensor_F_GH.insert(U, X, YZ, shifted[2], fvec, ghelt)
                        col = off + (pi * fdW + s) * gdZ + t
                        entries += [(r, col, v) for r, v in enumerate(outer) if not fld.is_zero(v)]
        d_level.append(entries)
    return _descend_iso(tensor_FG_H, d_level, tensor_F_GH.presheaf)


# -- internal hom ----------------------------------------------------------


class InternalHom:
    """[F, G](U) = natural families F(X) -> G(U (x) X), computed as the
    kernel of the naturality constraints (the end as an equalizer).  An
    identity basis morphism moves theta by G(id (x) id_X) = id, so it acts
    by the identity matrix, with no product and no coordinate solve; every
    other one by `_action`."""

    def __init__(self, F, G):
        if F.category is not G.category:
            raise CategoryMismatch("internal hom across categories")
        self.F = F
        self.G = G
        cat = F.category
        self.category = cat
        self.offsets = []
        self.bases = []
        for U in range(cat.size):
            offsets, basis = _naturality_kernel(F, _shifted(G, U))
            self.offsets.append(offsets)
            self.bases.append(basis)
        dims = [basis.dim for basis in self.bases]
        actions = {}
        for (a, b, i) in cat.all_basis_mors():
            if (a, b, i) in cat._identity_mors:
                actions[(a, b, i)] = _identity_action(cat.field, dims[a])
            else:
                actions[(a, b, i)] = self._action(a, b, i)
        self.presheaf = DayPresheaf(cat, dims, actions)

    def _action(self, a, b, i):
        """[F,G](b) -> [F,G](a) along f: a -> b: theta -> G(f (x) id) o theta.

        Per object X, one product of G(f (x) id_X) with the components
        theta_X: F(X) -> G(b (x) X) of all basis vectors of [F,G](b), placed
        side by side."""
        cat = self.category
        fld = cat.field
        f = cat.basis_mor(a, b, i)
        vecs = self.bases[b].vectors()
        imgs = [[fld.zero] * self.bases[a].ambient for _ in vecs]
        for X in range(cat.size):
            fd = self.F.dims[X]
            if fd == 0 or not vecs:
                continue
            off_b, off_a = self.offsets[b][X], self.offsets[a][X]
            rows = self.G.dims[cat.tensor_obj[b][X]]
            theta = Matrix(fld, rows, len(vecs) * fd, [
                [v for vec in vecs for v in vec[off_b + r * fd : off_b + (r + 1) * fd]]
                for r in range(rows)
            ])
            moved = self.G.action_of(cat.tensor_mor_pair(f, cat.id_mor(X))) @ theta
            for k, img in enumerate(imgs):
                img[off_a : off_a + moved.rows * fd] = [
                    v for row in moved.data for v in row[k * fd : (k + 1) * fd]
                ]
        cols = []
        for img in imgs:
            coords = self.bases[a].coordinates(img)
            if coords is None:
                raise ComputationError("internal hom action left the end")
            cols.append(coords)
        return Matrix.from_cols(fld, cols, self.bases[a].dim)


def _shifted(G, U):
    """The presheaf G(U (x) -), acting by G(id_U (x) f); an identity f acts
    by G(id_(U (x) X)), since id_U (x) id_X = id_(U (x) X)."""
    cat = G.category
    actions = {
        (X, Y, i): G.action_of(cat.id_mor(cat.tensor_obj[U][X]) if (X, Y, i) in cat._identity_mors
                               else cat.tensor_mor_pair(cat.id_mor(U), cat.basis_mor(X, Y, i)))
        for (X, Y, i) in cat.all_basis_mors()
    }
    return DayPresheaf(cat, [G.dims[cat.tensor_obj[U][X]] for X in range(cat.size)], actions)


def internal_hom(F, G):
    return InternalHom(F, G)


# -- Day coalgebras ---------------------------------------------------------


class DayCoalgebra:
    """A comonoid for the convolution product: a presheaf F with natural
    delta: F -> F (*) F and epsilon: F -> h_1; conv is the DayTensor F (*) F
    that delta lands in."""

    def __init__(self, presheaf, delta, epsilon, conv):
        self.presheaf = presheaf
        self.conv = conv
        self.delta = delta
        self.epsilon = epsilon

    @property
    def category(self):
        return self.presheaf.category

    def validate(self):
        """Comonoid axioms through the structural isomorphisms."""
        cat = self.category
        F = self.presheaf
        failures = []
        if not self.delta.is_natural():
            failures.append("delta-naturality")
        if not self.epsilon.is_natural():
            failures.append("epsilon-naturality")
        sym = symmetry_iso(self.conv, self.conv)
        if sym.compose(self.delta) != self.delta:
            failures.append("cocommutativity")
        h1 = representable(cat, cat.unit)
        ident = identity_nat(F)
        conv_h1F = DayTensor(h1, F)
        conv_Fh1 = DayTensor(F, h1)
        left = convolve_nat(self.conv, conv_h1F, self.epsilon, ident)
        lam = unit_left_iso(conv_h1F)
        if lam.compose(left).compose(self.delta) != ident:
            failures.append("counit-left")
        right = convolve_nat(self.conv, conv_Fh1, ident, self.epsilon)
        rho = unit_right_iso(conv_Fh1)
        if rho.compose(right).compose(self.delta) != ident:
            failures.append("counit-right")
        TL = DayTensor(self.conv.presheaf, F)
        TR = DayTensor(F, self.conv.presheaf)
        lhs = convolve_nat(self.conv, TL, self.delta, ident).compose(self.delta)
        rhs = convolve_nat(self.conv, TR, ident, self.delta).compose(self.delta)
        assoc = associator_iso(self.conv, TL, self.conv, TR)
        if assoc.compose(lhs) != rhs:
            failures.append("coassociativity")
        return failures

    def __repr__(self):
        return f"DayCoalgebra(dims {self.presheaf.dims})"


def is_day_morphism(FC1, FC2, nat):
    """Compatibility of a natural transformation with both comonoid maps."""
    conv_map = convolve_nat(FC1.conv, FC2.conv, nat, nat)
    if conv_map.compose(FC1.delta) != FC2.delta.compose(nat):
        return False
    return FC2.epsilon.compose(nat) == FC1.epsilon


def unit_day_coalgebra(cat):
    """h_1 with the inverse Yoneda map as its coproduct."""
    F = representable(cat, cat.unit)
    conv = DayTensor(F, F)
    _, backward = yoneda_iso(conv, cat.unit, cat.unit)
    return DayCoalgebra(F, backward, identity_nat(F), conv)


def representable_day_coalgebra(cat, X, eps_mor):
    """h_X for an idempotent object (X (x) X = X) with augmentation
    eps_mor: X -> 1; the coproduct is the inverse Yoneda isomorphism."""
    if cat.tensor_obj[X][X] != X:
        raise ValidationError("object is not tensor-idempotent")
    F = representable(cat, X)
    conv = DayTensor(F, F)
    _, backward = yoneda_iso(conv, X, X)
    h1 = representable(cat, cat.unit)
    fld = cat.field
    mats = []
    for U in range(cat.size):
        cols = []
        for s in range(F.dims[U]):
            comp = cat.compose_mor(eps_mor, cat.basis_mor(U, X, s))
            cols.append(list(comp[2]))
        mats.append(Matrix.from_cols(fld, cols, h1.dims[U]))
    eps = NatTransform(F, h1, mats)
    return DayCoalgebra(F, backward, eps, conv)


def day_direct_sum(FC1, FC2):
    """Direct sum of Day coalgebras (coproduct in the comonoid category)."""
    F = direct_sum_presheaf(FC1.presheaf, FC2.presheaf)
    conv = DayTensor(F, F)
    cat = F.category
    fld = cat.field
    inc1 = _sum_inclusion(FC1.presheaf, FC2.presheaf, F, first=True)
    inc2 = _sum_inclusion(FC1.presheaf, FC2.presheaf, F, first=False)
    m1 = convolve_nat(FC1.conv, conv, inc1, inc1)
    m2 = convolve_nat(FC2.conv, conv, inc2, inc2)
    mats = []
    for U in range(cat.size):
        d1 = FC1.presheaf.dims[U]
        left = m1.at(U) @ FC1.delta.at(U)
        right = m2.at(U) @ FC2.delta.at(U)
        mats.append(left.hstack(right))
    delta = NatTransform(F, conv.presheaf, mats)
    h1 = representable(cat, cat.unit)
    eps_mats = [
        FC1.epsilon.at(U).hstack(FC2.epsilon.at(U)) for U in range(cat.size)
    ]
    eps = NatTransform(F, h1, eps_mats)
    return DayCoalgebra(F, delta, eps, conv)


def _sum_inclusion(F1, F2, S, first):
    fld = S.category.field
    mats = []
    for U in range(S.category.size):
        n = F1.dims[U] if first else F2.dims[U]
        off = 0 if first else F1.dims[U]
        entries = [(off + i, i, fld.one) for i in range(n)]
        mats.append(Matrix.from_entries(fld, S.dims[U], n, entries))
    return NatTransform(F1 if first else F2, S, mats)
