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
from .linalg import Matrix, Subspace, clear_denominators, kronecker, row_kernel, tensor_swap


class Coalgebra:
    """A coalgebra is immutable once constructed: data derived from it (the
    sparse coproduct columns here, the local decomposition and etale data
    kept by `structure`) is computed on first use and stored on the object."""

    __slots__ = ("field", "dim", "delta", "epsilon", "_cols", "_structure")

    def __init__(self, field, dim, delta, epsilon):
        if delta.rows != dim * dim or delta.cols != dim:
            raise ShapeMismatch(f"delta must be {dim * dim}x{dim}")
        if epsilon.rows != 1 or epsilon.cols != dim:
            raise ShapeMismatch(f"epsilon must be 1x{dim}")
        self.field = field
        self.dim = dim
        self.delta = delta
        self.epsilon = epsilon
        self._cols = None
        self._structure = None

    def delta_columns(self):
        """Sparse coproduct columns: per j, a list of ((i, k), value)."""
        if self._cols is None:
            F = self.field
            n = self.dim
            cols = []
            for j in range(n):
                col = []
                for r in range(n * n):
                    v = self.delta.data[r][j]
                    if not F.is_zero(v):
                        col.append(((r // n, r % n), v))
                cols.append(col)
            self._cols = cols
        return self._cols

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
        """(terms, dens): e_j * e_k is the sum of a / dens[i] * e_i over
        (i, a) in terms[j][k], with integer a != 0.  The Q and F_p kernels
        multiply on it."""
        if self._int_table is None:
            n = self.dim
            rows = [clear_denominators(row) for row in self.mult.data]
            terms = [
                [[(i, nums[j * n + k]) for i, (nums, _) in enumerate(rows) if nums[j * n + k]]
                 for k in range(n)]
                for j in range(n)
            ]
            self._int_table = terms, [den for _, den in rows]
        return self._int_table

    def mul(self, x, y):
        return row_kernel(self.field).algebra_mul(self.field, self, x, y)

    def mult_matrix(self, x):
        """Matrix of multiplication by x."""
        n = self.dim
        cols = []
        basis = std_basis(self.field, n)
        for k in range(n):
            cols.append(self.mul(x, basis[k]))
        return Matrix.from_cols(self.field, cols, n)

    def power(self, x, m):
        out = list(self.unit)
        base = x
        while m > 0:
            if m & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            m >>= 1
        return out

    def inv(self, x):
        """Inverse of x, or None if x is not a unit."""
        sol = self.mult_matrix(x).solve(self.unit)
        if sol is None:
            return None
        return sol

    def eval_poly(self, poly, x):
        """poly(x) inside the algebra, Horner style."""
        F = self.field
        n = self.dim
        out = [F.zero] * n
        for c in reversed(poly.coeffs):
            out = self.mul(out, x)
            for i in range(n):
                out[i] = F.add(out[i], F.mul(c, self.unit[i]))
        return out

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


def std_basis(field, n):
    """The standard basis vectors e_0 .. e_(n-1) of k^n."""
    z, o = field.zero, field.one
    return [[o if i == j else z for i in range(n)] for j in range(n)]


def polynomial_quotient_algebra(field, poly):
    """k[t]/(poly) in the power basis 1, t, .., t^(deg-1)."""
    d = poly.degree
    if d < 1:
        raise ShapeMismatch("quotient by a constant polynomial")
    mult = Matrix.zeros(field, d, d * d)
    from .polys import Polynomial

    t = Polynomial.x(field)
    for i in range(d):
        for j in range(d):
            rem = (t ** (i + j)) % poly
            for a, c in enumerate(rem.coeffs):
                mult.data[a][i * d + j] = c
    unit = [field.one] + [field.zero] * (d - 1)
    return ArtinAlgebra(field, d, mult, unit)


def subalgebra_on_basis(A, basis_rows):
    """Unital subalgebra spanned by basis_rows (must contain 1 and be closed
    under multiplication); returns (algebra, embedding matrix)."""
    F = A.field
    d = len(basis_rows)
    E = Matrix.from_cols(F, basis_rows, A.dim)
    prods = []
    for bi in basis_rows:
        for bj in basis_rows:
            prods.append(A.mul(bi, bj))
    X = E.solve_matrix(Matrix.from_cols(F, prods, A.dim))
    unit = E.solve(list(A.unit))
    if X is None or unit is None:
        raise ValidationError("span is not a unital subalgebra")
    return ArtinAlgebra(F, d, X, unit), E


# -- validation ---------------------------------------------------------


def validate(obj):
    """Axiom report for a Coalgebra, CoalgebraMorphism or ArtinAlgebra.

    Returns a list of (identity, witness-index) pairs; empty means valid.
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
    failures = []
    cols = C.delta_columns()
    eps = C.epsilon.data[0]
    for j in range(n):
        col = cols[j]
        # cocommutativity: tau . delta = delta
        sym = {}
        for (i, k), v in col:
            sym[(i, k)] = v
        if any(sym.get((k, i), F.zero) != v for (i, k), v in col):
            failures.append(("cocommutativity", j))
        # counitality on both legs
        left = [F.zero] * n
        right = [F.zero] * n
        for (i, k), v in col:
            if not F.is_zero(eps[i]):
                left[k] = F.add(left[k], F.mul(eps[i], v))
            if not F.is_zero(eps[k]):
                right[i] = F.add(right[i], F.mul(v, eps[k]))
        unit_j = [F.one if t == j else F.zero for t in range(n)]
        if left != unit_j:
            failures.append(("counit-left", j))
        if right != unit_j:
            failures.append(("counit-right", j))
        # coassociativity by sparse contraction of both sides
        lhs = {}
        rhs = {}
        for (i, k), v in col:
            for (a, b), w in cols[i]:
                key = (a, b, k)
                acc = lhs.get(key, F.zero)
                acc = F.add(acc, F.mul(w, v))
                if F.is_zero(acc):
                    lhs.pop(key, None)
                else:
                    lhs[key] = acc
            for (a, b), w in cols[k]:
                key = (i, a, b)
                acc = rhs.get(key, F.zero)
                acc = F.add(acc, F.mul(v, w))
                if F.is_zero(acc):
                    rhs.pop(key, None)
                else:
                    rhs[key] = acc
        if lhs != rhs:
            failures.append(("coassociativity", j))
    return failures


def _validate_morphism(phi):
    C, D = phi.source, phi.target
    if C.field != D.field:
        return [("field-mismatch", None)]
    F = C.field
    m = D.dim
    failures = []
    cols_C = C.delta_columns()
    M = phi.matrix
    for j in range(C.dim):
        # delta_D(phi e_j)
        lhs = {}
        for i in range(m):
            a = M.data[i][j]
            if F.is_zero(a):
                continue
            for (r, s), v in D.delta_columns()[i]:
                key = (r, s)
                acc = F.add(lhs.get(key, F.zero), F.mul(a, v))
                if F.is_zero(acc):
                    lhs.pop(key, None)
                else:
                    lhs[key] = acc
        # (phi (x) phi) delta_C(e_j)
        rhs = {}
        for (i, k), v in cols_C[j]:
            for r in range(m):
                a = M.data[r][i]
                if F.is_zero(a):
                    continue
                av = F.mul(a, v)
                for s in range(m):
                    b = M.data[s][k]
                    if F.is_zero(b):
                        continue
                    key = (r, s)
                    acc = F.add(rhs.get(key, F.zero), F.mul(av, b))
                    if F.is_zero(acc):
                        rhs.pop(key, None)
                    else:
                        rhs[key] = acc
        if lhs != rhs:
            failures.append(("comultiplicativity", j))
        # counit preservation
        eps_phi = F.zero
        for i in range(m):
            a = M.data[i][j]
            if not F.is_zero(a):
                eps_phi = F.add(eps_phi, F.mul(D.epsilon.data[0][i], a))
        if eps_phi != C.epsilon.data[0][j]:
            failures.append(("counit-preservation", j))
    return failures


def _validate_algebra(A):
    F = A.field
    n = A.dim
    failures = []
    table = A.table()
    basis = std_basis(F, n)
    for j in range(n):
        if A.mul(A.unit, basis[j]) != basis[j] or A.mul(basis[j], A.unit) != basis[j]:
            failures.append(("unitality", j))
    for j in range(n):
        for k in range(n):
            if table[j][k] != table[k][j]:
                failures.append(("commutativity", (j, k)))
    for i in range(n):
        for j in range(n):
            left = table[i][j]
            for k in range(n):
                if A.mul(left, basis[k]) != A.mul(basis[i], table[j][k]):
                    failures.append(("associativity", (i, j, k)))
    return failures


# -- duality ------------------------------------------------------------


def dual_algebra(C):
    return ArtinAlgebra(C.field, C.dim, C.delta.transpose(), C.epsilon.row(0))


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
    delta = Matrix.zeros(field, n * n, n)
    for j in range(n):
        delta.data[j * n + j][j] = field.one
    eps = Matrix(field, 1, n, [[field.one] * n])
    return Coalgebra(field, n, delta, eps)


def direct_sum(C, D):
    if C.field != D.field:
        raise SpecMismatch("direct sum over different fields")
    F = C.field
    m, n = C.dim, D.dim
    t = m + n
    delta = Matrix.zeros(F, t * t, t)
    for j in range(m):
        for (i, k), v in C.delta_columns()[j]:
            delta.data[i * t + k][j] = v
    for j in range(n):
        for (i, k), v in D.delta_columns()[j]:
            delta.data[(m + i) * t + (m + k)][m + j] = v
    eps = Matrix(F, 1, t, [C.epsilon.row(0) + D.epsilon.row(0)])
    S = Coalgebra(F, t, delta, eps)
    inc_C = Matrix.zeros(F, t, m)
    for i in range(m):
        inc_C.data[i][i] = F.one
    inc_D = Matrix.zeros(F, t, n)
    for i in range(n):
        inc_D.data[m + i][i] = F.one
    return S, CoalgebraMorphism(C, S, inc_C), CoalgebraMorphism(D, S, inc_D)


def tensor(C, D):
    if C.field != D.field:
        raise SpecMismatch("tensor over different fields")
    F = C.field
    m, n = C.dim, D.dim
    shuffle = kronecker(
        Matrix.identity(F, m), kronecker(tensor_swap(F, m, n), Matrix.identity(F, n))
    )
    delta = shuffle @ kronecker(C.delta, D.delta)
    eps = kronecker(C.epsilon, D.epsilon)
    return Coalgebra(F, m * n, delta, eps)


def tensor_morphism(phi, psi):
    source = tensor(phi.source, psi.source)
    target = tensor(phi.target, psi.target)
    return CoalgebraMorphism(source, target, kronecker(phi.matrix, psi.matrix))


def direct_sum_morphism(phi, psi):
    src, _, _ = direct_sum(phi.source, psi.source)
    tgt, _, _ = direct_sum(phi.target, psi.target)
    F = phi.matrix.field
    M = Matrix.zeros(F, tgt.dim, src.dim)
    for i in range(phi.target.dim):
        for j in range(phi.source.dim):
            M.data[i][j] = phi.matrix.data[i][j]
    oi, oj = phi.target.dim, phi.source.dim
    for i in range(psi.target.dim):
        for j in range(psi.source.dim):
            M.data[oi + i][oj + j] = psi.matrix.data[i][j]
    return CoalgebraMorphism(src, tgt, M)


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
    span a subcoalgebra.
    """
    F = C.field
    n = C.dim
    cols = C.delta_columns()
    middles = []
    for v in S.vectors():
        # dv = delta(v), then expand the first leg once more
        dv = {}
        for j, c in enumerate(v):
            if F.is_zero(c):
                continue
            for (i, k), w in cols[j]:
                key = (i, k)
                acc = F.add(dv.get(key, F.zero), F.mul(c, w))
                if F.is_zero(acc):
                    dv.pop(key, None)
                else:
                    dv[key] = acc
        legs = {}
        for (i, k), w in dv.items():
            for (a, b), u in cols[i]:
                key = (a, k)
                if key not in legs:
                    legs[key] = [F.zero] * n
                legs[key][b] = F.add(legs[key][b], F.mul(u, w))
        middles.extend(legs.values())
    span = Subspace.from_vectors(F, n, middles)
    for v in S.vectors():
        if not span.contains_vector(v):
            raise ValidationError("generated span lost a generator; kernel bug")
    return sub(C, span)
