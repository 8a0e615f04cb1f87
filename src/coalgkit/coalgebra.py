"""Finite-dimensional cocommutative counital coalgebras as structure tensors.

A coalgebra of dimension n is stored as delta (n^2 x n, column j holding the
coordinates of the coproduct of e_j in the e_i (x) e_k basis, index i*n + k)
and epsilon (1 x n).  An ArtinAlgebra is the dual picture: mult (n x n^2) and
a unit vector.  Dualizing transposes the structure tensors, and transposing
a coalgebra morphism gives an algebra morphism the other way.

Zero-dimensional objects are allowed; they arise as initial objects in
pushouts.
"""

from .errors import (
    NotACoideal,
    NotASubcoalgebra,
    ShapeMismatch,
    SpecMismatch,
    ValidationError,
)
from .gfpoly import primitive
from .linalg import Matrix, Subspace, _IntRowMatrix, _RationalKernel, kronecker, row_kernel


class Coalgebra:
    """A coalgebra is immutable once constructed: data derived from it (the
    cleared coproduct columns here, the local decomposition and etale data
    kept by `structure`) is computed on first use and stored on the
    object.  No stored entry refers back to the object, so a
    coalgebra never sits in a reference cycle of its own memo."""

    __slots__ = ("field", "dim", "delta", "epsilon", "_cleared", "_structure")

    def __init__(self, field, dim, delta, epsilon):
        if delta.rows != dim * dim or delta.cols != dim:
            raise ShapeMismatch(f"delta must be {dim * dim}x{dim}")
        if epsilon.rows != 1 or epsilon.cols != dim:
            raise ShapeMismatch(f"epsilon must be 1x{dim}")
        self.field = field
        self.dim = dim
        self.delta = delta
        self.epsilon = epsilon
        self._cleared = None
        self._structure = None

    def cleared(self):
        """(cols, d, eps, e, one): the coproduct and the counit on the footing
        of the field's row kernel (`Matrix.cleared_columns`), which the axiom
        checks contract.  cols[j] lists (i * n + k, i, k, v) for the nonzero
        coproduct entries of column j, eps maps i to the nonzero counit
        entries, and the true values are v / d and eps[i] / e; one is 1 on
        that footing."""
        if self._cleared is None:
            F, n = self.field, self.dim
            cols, d = self.delta.cleared_columns()
            cols = [[(r, r // n, r % n, v) for r, v in col] for col in cols]
            kernel = row_kernel(F)
            eps, e = kernel.cleared(F, self.epsilon.data[0])
            ((_, one),), _ = kernel.cleared(F, [F.one])
            self._cleared = cols, d, dict(eps), e, one
        return self._cleared

    def counit_of(self, vec):
        return self.epsilon.apply(vec)[0]

    def __eq__(self, other):
        if not isinstance(other, Coalgebra):
            return NotImplemented
        return (
            self.field == other.field
            and self.dim == other.dim
            and self.delta == other.delta
            and self.epsilon == other.epsilon
        )

    def __hash__(self):
        return hash((self.field, self.dim, self.delta, self.epsilon))

    def __repr__(self):
        return f"Coalgebra(dim {self.dim} over {self.field})"


class CoalgebraMorphism:
    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ShapeMismatch("morphism matrix shape does not match source/target")
        if source.field != target.field or matrix.field != source.field:
            raise SpecMismatch("morphism fields disagree")
        self.source = source
        self.target = target
        self.matrix = matrix

    def __matmul__(self, other):
        """Composition self o other."""
        if other.target is not self.source and other.target != self.source:
            raise ShapeMismatch("composition source/target mismatch")
        return CoalgebraMorphism(other.source, self.target, self.matrix @ other.matrix)

    def image(self):
        return self.matrix.column_space()

    def is_injective(self):
        return self.matrix.rank() == self.source.dim

    def __eq__(self, other):
        if not isinstance(other, CoalgebraMorphism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.matrix == other.matrix
        )

    def __repr__(self):
        return f"CoalgebraMorphism({self.source.dim} -> {self.target.dim} over {self.source.field})"


class ArtinAlgebra:
    """Finite-dimensional commutative unital algebra via structure constants."""

    __slots__ = ("field", "dim", "mult", "unit", "_table", "_int_table")

    def __init__(self, field, dim, mult, unit):
        if mult.rows != dim or mult.cols != dim * dim:
            raise ShapeMismatch(f"mult must be {dim}x{dim * dim}")
        if len(unit) != dim:
            raise ShapeMismatch("unit vector length mismatch")
        self.field = field
        self.dim = dim
        self.mult = mult
        self.unit = list(unit)
        self._table = None
        self._int_table = None

    def table(self):
        """table[j][k] = coordinate vector of e_j * e_k."""
        if self._table is None:
            n = self.dim
            self._table = [
                [self.mult.col(j * n + k) for k in range(n)] for j in range(n)
            ]
        return self._table

    def int_table(self):
        """(terms, den): the structure constants on the footing of the
        field's row kernel (`Matrix.cleared_columns`), e_j * e_k being the
        sum of a / den * e_i over (i, a) in terms[j][k], a != 0.  The Q and
        F_p kernels multiply on it, and the axiom checks contract it."""
        if self._int_table is None:
            n = self.dim
            cols, den = self.mult.cleared_columns()
            self._int_table = [cols[j * n:(j + 1) * n] for j in range(n)], den
        return self._int_table

    def mul(self, x, y):
        return row_kernel(self.field).algebra_mul(self.field, self, x, y)

    def mult_matrix(self, x):
        """Matrix of multiplication by x."""
        return row_kernel(self.field).mult_matrix(self.field, self, x)

    def power(self, x, m):
        """x^m, squaring left to right over the bits of m as `linalg._int_power`
        does: x^2 takes one product and x^3 two; x^0 is the unit."""
        if m == 0:
            return list(self.unit)
        out = list(x)
        for bit in bin(m)[3:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, x)
        return out

    def inv(self, x):
        """Inverse of x, or None if x is not a unit."""
        sol = self.mult_matrix(x).solve(self.unit)
        if sol is None:
            return None
        return sol

    def eval_poly(self, poly, x):
        """poly(x) inside the algebra, Horner style on the field's row kernel."""
        return row_kernel(self.field).eval_poly(self.field, self, poly, x)

    def __eq__(self, other):
        if not isinstance(other, ArtinAlgebra):
            return NotImplemented
        return (
            self.field == other.field
            and self.dim == other.dim
            and self.mult == other.mult
            and self.unit == other.unit
        )

    def __repr__(self):
        return f"ArtinAlgebra(dim {self.dim} over {self.field})"


def is_multiplicative(A, B, M):
    """Whether the linear map M: A -> B satisfies M(xy) = M(x)M(y).

    M(e_j e_k) is compared with M(e_j) M(e_k) for every pair (j, k), as
    sparse contractions of the cleared structure constants of A and B
    (`ArtinAlgebra.int_table`) and the cleared columns of M on the field's
    row kernel (see `validate`); no Kronecker square of M is built."""
    if A.field != B.field or M.field != A.field:
        raise SpecMismatch("algebras and map over different fields")
    if M.rows != B.dim or M.cols != A.dim:
        raise ShapeMismatch("map shape does not match the algebras")
    F = A.field
    n = A.dim
    contract = row_kernel(F).contract
    mult_A, alpha = A.int_table()
    mult_B, beta = B.int_table()
    cols, mu = M.cleared_columns()
    for j in range(n):
        for k in range(n):
            # M(e_j e_k) over alpha mu; M(e_j) (x) M(e_k) over mu^2, multiplied
            # out in B over mu^2 beta
            lhs = contract(F, ((r, t, a) for i, t in mult_A[j][k] for r, a in cols[i]), mu * beta)
            outer = contract(F, (((a, b), x, y) for a, x in cols[j] for b, y in cols[k]))
            rhs = contract(F, ((r, xy, u) for (a, b), xy in outer.items() for r, u in mult_B[a][b]), alpha)
            if lhs != rhs:
                return False
    return True


def std_basis(field, n):
    """The standard basis vectors e_0 .. e_(n-1) of k^n."""
    z, o = field.zero, field.one
    return [[o if i == j else z for i in range(n)] for j in range(n)]


def polynomial_quotient_algebra(field, poly):
    """k[t]/(poly) in the power basis 1, t, .., t^(deg-1): t^i t^j is the
    remainder of t^(i+j), and each remainder is the previous one times t.
    On the Q row kernel mult is built on integer rows: for the primitive
    integer form f of poly, with leading coefficient c, c^k (t^k mod poly)
    is an integer vector r_k, and r_(k+1) = c t r_k - (top of r_k) f."""
    d = poly.degree
    if d < 1:
        raise ShapeMismatch("quotient by a constant polynomial")
    unit = [field.one] + [field.zero] * (d - 1)
    if row_kernel(field) is _RationalKernel:
        f = primitive(poly.coeffs)
        c, top = f[-1], 2 * d - 2
        rems = [[1] + [0] * (d - 1)]
        for _ in range(top):
            r = rems[-1]
            rems.append([c * a - r[-1] * b for a, b in zip([0] + r[:-1], f)])
        rows = [([rems[i + j][a] * c ** (top - i - j) for i in range(d) for j in range(d)], c**top)
                for a in range(d)]
        return ArtinAlgebra(field, d, _IntRowMatrix(field, d, d * d, rows), unit)
    from .polys import Polynomial

    t = Polynomial.x(field)
    rems = [Polynomial.one(field)]
    for _ in range(2 * d - 2):
        rems.append((rems[-1] * t) % poly)
    mult = Matrix.from_entries(field, d, d * d, [
        (a, i * d + j, c)
        for i in range(d) for j in range(d) for a, c in enumerate(rems[i + j].coeffs)
    ])
    return ArtinAlgebra(field, d, mult, unit)


def _quotient_frobenius(field, poly):
    """The matrix of the Frobenius x -> x^q on F_q[t]/(poly) in the power
    basis: column i is h^i mod poly, the image of t^i, for h = t^q mod poly,
    so one `pow_mod` builds it."""
    from .polys import Polynomial

    d = poly.degree
    h = Polynomial.x(field).pow_mod(field.order, poly)
    cols = [Polynomial.one(field)]
    for _ in range(d - 1):
        cols.append((cols[-1] * h) % poly)
    return Matrix.from_cols(field, [list(c.coeffs) + [field.zero] * (d - len(c.coeffs)) for c in cols], d)


def subalgebra_on_basis(A, basis_rows):
    """Unital subalgebra spanned by basis_rows (must contain 1 and be closed
    under multiplication); returns (algebra, embedding matrix)."""
    F = A.field
    B = Matrix.from_rows(F, basis_rows, A.dim)
    E = B.transpose()
    X = E.solve_matrix(row_kernel(F).basis_products(F, A, B, B))
    unit = E.solve(list(A.unit))
    if X is None or unit is None:
        raise ValidationError("span is not a unital subalgebra")
    return ArtinAlgebra(F, B.rows, X, unit), E


# -- validation ---------------------------------------------------------


def validate(obj):
    """Axiom report for a Coalgebra, CoalgebraMorphism or ArtinAlgebra.

    Returns a list of (identity, witness-index) pairs; empty means valid.
    The identities are checked column by column as sparse contractions on
    the field's row kernel (`linalg.row_kernel`): over Q on the integers of
    `Coalgebra.cleared`, `ArtinAlgebra.int_table` and `Matrix.cleared_columns`,
    each side compared cross-multiplied by the other's denominator; over F_p
    on ints with one `% p` per key; over F_q through the field's methods.
    A morphism's columns are iterated over their nonzero entries.
    """
    if isinstance(obj, Coalgebra):
        return _validate_coalgebra(obj)
    if isinstance(obj, CoalgebraMorphism):
        return _validate_morphism(obj)
    if isinstance(obj, ArtinAlgebra):
        return _validate_algebra(obj)
    raise ValidationError(f"cannot validate {type(obj).__name__}")


def _validate_coalgebra(C):
    F = C.field
    n = C.dim
    contract = row_kernel(F).contract
    cols, d, eps, e, one = C.cleared()
    failures = []
    for j, col in enumerate(cols):
        # cocommutativity: tau . delta = delta, on one denominator
        sym = {r: v for r, _, _, v in col}
        if any(sym.get(k * n + i) != v for _, i, k, v in col):
            failures.append(("cocommutativity", j))
        # counitality on both legs: e_j over e d
        unit = contract(F, [(j, one, one)], e * d)
        if contract(F, ((k, eps[i], v) for _, i, k, v in col if i in eps)) != unit:
            failures.append(("counit-left", j))
        if contract(F, ((i, v, eps[k]) for _, i, k, v in col if k in eps)) != unit:
            failures.append(("counit-right", j))
        # coassociativity: both sides over d^2, keyed by the index of e_a (x) e_b (x) e_c
        lhs = contract(F, ((r * n + k, w, v) for _, i, k, v in col for r, _, _, w in cols[i]))
        rhs = contract(F, ((i * n * n + r, v, w) for _, i, k, v in col for r, _, _, w in cols[k]))
        if lhs != rhs:
            failures.append(("coassociativity", j))
    return failures


def _validate_morphism(phi):
    C, D = phi.source, phi.target
    if C.field != D.field:
        return [("field-mismatch", None)]
    F = C.field
    n, m = C.dim, D.dim
    contract = row_kernel(F).contract
    cols_C, d_C, eps_C, e_C, one = C.cleared()
    cols_D, d_D, eps_D, e_D, _ = D.cleared()
    M, mu = phi.matrix.cleared_columns()
    failures = []
    for j in range(n):
        # delta_D(phi e_j) over mu d_D against (phi (x) phi) delta_C(e_j) over
        # d_C mu^2, the latter through (phi (x) id) delta_C(e_j) keyed (r, k)
        lhs = contract(F, ((r * m + s, a, w) for i, a in M[j] for _, r, s, w in cols_D[i]), d_C * mu)
        half = contract(F, (((r, k), v, a) for _, i, k, v in cols_C[j] for r, a in M[i]))
        rhs = contract(F, ((r * m + s, x, b) for (r, k), x in half.items() for s, b in M[k]), d_D)
        if lhs != rhs:
            failures.append(("comultiplicativity", j))
        # counit preservation: eps_D(phi e_j) over e_D mu against eps_C(e_j) over e_C
        image = contract(F, ((0, eps_D[i], a) for i, a in M[j] if i in eps_D), e_C)
        if image != contract(F, [(0, eps_C[j], one)] if j in eps_C else [], e_D * mu):
            failures.append(("counit-preservation", j))
    return failures


def _validate_algebra(A):
    F = A.field
    n = A.dim
    kernel = row_kernel(F)
    contract = kernel.contract
    terms, d = A.int_table()
    unit, v = kernel.cleared(F, A.unit)
    ((_, one),), _ = kernel.cleared(F, [F.one])
    failures = []
    for j in range(n):
        # 1 e_j and e_j 1 over d v against e_j
        e_j = contract(F, [(j, one, one)], d * v)
        left = contract(F, ((i, u, t) for r, u in unit for i, t in terms[r][j]))
        right = contract(F, ((i, u, t) for r, u in unit for i, t in terms[j][r]))
        if left != e_j or right != e_j:
            failures.append(("unitality", j))
    for j in range(n):
        for k in range(n):
            if terms[j][k] != terms[k][j]:
                failures.append(("commutativity", (j, k)))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                # (e_i e_j) e_k against e_i (e_j e_k), both over d^2
                lhs = contract(F, ((s, a, b) for r, a in terms[i][j] for s, b in terms[r][k]))
                rhs = contract(F, ((s, a, b) for r, a in terms[j][k] for s, b in terms[i][r]))
                if lhs != rhs:
                    failures.append(("associativity", (i, j, k)))
    return failures


# -- duality ------------------------------------------------------------


def dual_algebra(C):
    """mult is delta transposed.  On the Q row kernel its integer rows are
    the columns of `C.cleared()`, so one clearing of delta serves the axiom
    checks of C and the kernel ops of its dual (`int_table` reads those rows)."""
    F, n = C.field, C.dim
    if row_kernel(F) is not _RationalKernel:
        return ArtinAlgebra(F, n, C.delta.transpose(), C.epsilon.row(0))
    cols, d = C.cleared()[:2]
    rows = [[0] * (n * n) for _ in range(n)]
    for row, col in zip(rows, cols):
        for r, _, _, v in col:
            row[r] = v
    return ArtinAlgebra(F, n, _IntRowMatrix(F, n, n * n, [(row, d) for row in rows]), C.epsilon.row(0))


def dual_coalgebra(A):
    eps = Matrix(A.field, 1, A.dim, [list(A.unit)])
    return Coalgebra(A.field, A.dim, A.mult.transpose(), eps)


def dual_morphism(phi):
    """Transpose of a coalgebra morphism as a map of dual algebras."""
    return phi.matrix.transpose()


# -- basic constructions -------------------------------------------------


def trivial_coalgebra(field):
    return diagonal_coalgebra(1, field)


def diagonal_coalgebra(size, field):
    """Free pointwise coalgebra on a finite set: each basis vector group-like."""
    n = size
    delta = Matrix.from_entries(field, n * n, n, [(j * n + j, j, field.one) for j in range(n)])
    eps = Matrix(field, 1, n, [[field.one] * n])
    return Coalgebra(field, n, delta, eps)


def direct_sum(C, D):
    if C.field != D.field:
        raise SpecMismatch("direct sum over different fields")
    F = C.field
    m, n = C.dim, D.dim
    t = m + n
    entries = []
    for X, off in ((C, 0), (D, m)):
        for r, row in enumerate(X.delta.data):
            i, k = divmod(r, X.dim)
            entries += [((off + i) * t + off + k, off + j, v) for j, v in enumerate(row) if not F.is_zero(v)]
    delta = Matrix.from_entries(F, t * t, t, entries)
    eps = Matrix(F, 1, t, [C.epsilon.row(0) + D.epsilon.row(0)])
    S = Coalgebra(F, t, delta, eps)
    inc_C = Matrix.from_entries(F, t, m, [(i, i, F.one) for i in range(m)])
    inc_D = Matrix.from_entries(F, t, n, [(m + i, i, F.one) for i in range(n)])
    return S, CoalgebraMorphism(C, S, inc_C), CoalgebraMorphism(D, S, inc_D)


def tensor(C, D):
    """C (x) D, e_j (x) f_k at index j*n + k: each pair of nonzero coproduct
    entries, e_a (x) e_b and f_c (x) f_d, gives (e_a (x) f_c) (x) (e_b (x) f_d)."""
    if C.field != D.field:
        raise SpecMismatch("tensor over different fields")
    F = C.field
    m, n = C.dim, D.dim
    N = m * n

    def nonzero(M):
        return [(r, j, v) for r, row in enumerate(M.data) for j, v in enumerate(row) if not F.is_zero(v)]

    dD = nonzero(D.delta)
    delta = Matrix.from_entries(F, N * N, N, [
        ((a // m * n + c // n) * N + a % m * n + c % n, j * n + k, F.mul(v, w))
        for a, j, v in nonzero(C.delta) for c, k, w in dD
    ])
    eps = Matrix(F, 1, N, [[F.mul(v, w) for v in C.epsilon.data[0] for w in D.epsilon.data[0]]])
    return Coalgebra(F, N, delta, eps)


def tensor_morphism(phi, psi):
    source = tensor(phi.source, psi.source)
    target = tensor(phi.target, psi.target)
    return CoalgebraMorphism(source, target, kronecker(phi.matrix, psi.matrix))


def direct_sum_morphism(phi, psi):
    src, _, _ = direct_sum(phi.source, psi.source)
    tgt, _, _ = direct_sum(phi.target, psi.target)
    A, B = phi.matrix, psi.matrix
    top = A.hstack(Matrix.zeros(A.field, A.rows, B.cols))
    return CoalgebraMorphism(src, tgt, top.vstack(Matrix.zeros(A.field, B.rows, A.cols).hstack(B)))


def counit_morphism(C):
    """The counit as a coalgebra morphism onto the trivial coalgebra."""
    return CoalgebraMorphism(C, trivial_coalgebra(C.field), C.epsilon)


def sub(C, S):
    """Subcoalgebra on a subspace S (must satisfy delta(S) <= S (x) S).

    Returns (D, inclusion).  Raises NotASubcoalgebra with a witness vector
    when the coproduct leaves S (x) S.
    """
    F = C.field
    n = C.dim
    if S.ambient != n:
        raise ShapeMismatch("subspace ambient dimension mismatch")
    r = S.dim
    B = S.basis  # r x n
    BB_t = kronecker(B, B).transpose()  # n^2 x r^2, columns b_i (x) b_j
    delta_cols = []
    for idx in range(r):
        v = B.row(idx)
        dv = C.delta.apply(v)
        x = BB_t.solve(dv)
        if x is None:
            raise NotASubcoalgebra("coproduct leaves the subspace", witness=v)
        delta_cols.append(x)
    delta = Matrix.from_cols(F, delta_cols, r * r)
    eps = Matrix(F, 1, r, [[C.counit_of(B.row(i)) for i in range(r)]])
    D = Coalgebra(F, r, delta, eps)
    inclusion = CoalgebraMorphism(D, C, B.transpose())
    return D, inclusion


def is_subcoalgebra(C, S):
    try:
        sub(C, S)
        return True
    except NotASubcoalgebra:
        return False


def quotient(C, S):
    """Quotient by a coideal S (delta(S) <= S(x)C + C(x)S, eps(S) = 0).

    Returns (Q, projection).
    """
    from .linalg import quotient_maps

    F = C.field
    n = C.dim
    if S.ambient != n:
        raise ShapeMismatch("subspace ambient dimension mismatch")
    if S.dim:
        coideal_space = Subspace.from_vectors(
            F,
            n * n,
            kronecker(S.basis, Matrix.identity(F, n)).data
            + kronecker(Matrix.identity(F, n), S.basis).data,
        )
        for v in S.vectors():
            if not F.is_zero(C.counit_of(v)):
                raise NotACoideal("counit does not vanish on subspace", witness=v)
            if not coideal_space.contains_vector(C.delta.apply(v)):
                raise NotACoideal("coproduct leaves S(x)C + C(x)S", witness=v)
    q, sect = quotient_maps(S)
    qq = kronecker(q, q)
    delta = qq @ C.delta @ sect
    eps = C.epsilon @ sect
    Q = Coalgebra(F, q.rows, delta, eps)
    return Q, CoalgebraMorphism(C, Q, q)


def pushout(f, g):
    """Pushout of coalgebra morphisms f: A -> B, g: A -> C.

    Computed as the vector-space pushout (B (+) C) / im(f - g) with the
    induced structure.  Returns (P, from_B, from_C).
    """
    if f.source != g.source:
        raise ShapeMismatch("pushout requires a common source")
    B, C = f.target, g.target
    S, inc_B, inc_C = direct_sum(B, C)
    F = S.field
    cols = []
    for j in range(f.source.dim):
        col = [f.matrix.data[i][j] for i in range(B.dim)]
        col += [F.neg(g.matrix.data[i][j]) for i in range(C.dim)]
        cols.append(col)
    W = Subspace.from_vectors(F, S.dim, cols)
    P, proj = quotient(S, W)
    return P, proj @ inc_B, proj @ inc_C


def generated_subcoalgebra(C, S):
    """Smallest subcoalgebra containing the subspace S.

    Spanned by the middle tensor legs of (delta (x) id) o delta applied to a
    basis of S: applying functionals f, g on the outer legs of
    sum a (x) b (x) c collects the vectors b, and coassociativity makes that
    span a subcoalgebra.  With delta(v) as the n x n matrix M (row i,
    column k the coefficient of e_i (x) e_k), row a*n + b, column k of
    delta @ M is the coefficient of e_a (x) e_b (x) e_k, so the middle leg
    for (a, k) is column k of the a-th block of n rows.
    """
    F = C.field
    n = C.dim
    middles = []
    for v in S.vectors():
        dv = C.delta.apply(v)
        P = (C.delta @ Matrix(F, n, n, [dv[i * n:(i + 1) * n] for i in range(n)])).data
        middles += [[P[a * n + b][k] for b in range(n)] for a in range(n) for k in range(n)]
    span = Subspace.from_vectors(F, n, middles)
    for v in S.vectors():
        if not span.contains_vector(v):
            raise ValidationError("generated span lost a generator; kernel bug")
    return sub(C, span)
