"""Exact dense linear algebra over the kernel's fields.

Matrices act on column vectors; a morphism into an m-dimensional space from
an n-dimensional one is an m x n matrix.  Vectors are plain lists of raw
field values.

Tensor index convention, used by every module: the basis vector e_i (x) e_j
of k^m (x) k^n sits at index i*n + j (row-major on the factors).

Row reduction over Q runs fraction-free (Bareiss) on integer-cleared rows to
control coefficient growth; finite fields use plain Gauss-Jordan.  Reduced
row echelon form is canonical, so equal subspaces have identical bases.
"""

from fractions import Fraction

from .errors import AmbientMismatch, ShapeMismatch, SpecMismatch
from .fields import QQ
from .polys import Polynomial


class Matrix:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, rows, cols, data):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ShapeMismatch(f"data does not match shape {rows}x{cols}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    # -- constructors --------------------------------------------------
    @classmethod
    def zeros(cls, field, rows, cols):
        z = field.zero
        return cls(field, rows, cols, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, n, n, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_rows(cls, field, rows, cols=None):
        rows = [list(r) for r in rows]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        return cls(field, len(rows), cols, rows)

    @classmethod
    def from_cols(cls, field, cols, rows=None):
        cols = [list(c) for c in cols]
        if rows is None:
            rows = len(cols[0]) if cols else 0
        data = [[cols[j][i] for j in range(len(cols))] for i in range(rows)]
        return cls(field, rows, len(cols), data)

    @classmethod
    def from_int_rows(cls, field, rows):
        return cls.from_rows(field, [[field.from_int(c) for c in r] for r in rows])

    @classmethod
    def column(cls, field, vec):
        return cls(field, len(vec), 1, [[v] for v in vec])

    # -- basic ops ------------------------------------------------------
    def _check(self, other):
        if self.field != other.field:
            raise SpecMismatch("matrices over different fields")

    def __matmul__(self, other):
        self._check(other)
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        F = self.field
        z = F.zero
        bt = list(zip(*other.data)) if other.data else []
        out = []
        for arow in self.data:
            orow = [z] * other.cols
            for k, a in enumerate(arow):
                if F.is_zero(a):
                    continue
                brow = other.data[k]
                for j, b in enumerate(brow):
                    if not F.is_zero(b):
                        orow[j] = F.add(orow[j], F.mul(a, b))
            out.append(orow)
        return Matrix(F, self.rows, other.cols, out)

    def apply(self, vec):
        """Matrix times column vector (a plain list)."""
        if len(vec) != self.cols:
            raise ShapeMismatch("vector length mismatch")
        F = self.field
        z = F.zero
        out = []
        for row in self.data:
            acc = z
            for a, v in zip(row, vec):
                if not (F.is_zero(a) or F.is_zero(v)):
                    acc = F.add(acc, F.mul(a, v))
            out.append(acc)
        return out

    def __add__(self, other):
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("matrix addition shape mismatch")
        F = self.field
        return Matrix(
            F,
            self.rows,
            self.cols,
            [[F.add(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
        )

    def __sub__(self, other):
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("matrix subtraction shape mismatch")
        F = self.field
        return Matrix(
            F,
            self.rows,
            self.cols,
            [[F.sub(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
        )

    def __neg__(self):
        F = self.field
        return Matrix(F, self.rows, self.cols, [[F.neg(a) for a in r] for r in self.data])

    def scale(self, c):
        F = self.field
        c = F.coerce(c)
        return Matrix(F, self.rows, self.cols, [[F.mul(c, a) for a in r] for r in self.data])

    def transpose(self):
        data = [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        return Matrix(self.field, self.cols, self.rows, data)

    def hstack(self, other):
        self._check(other)
        if self.rows != other.rows:
            raise ShapeMismatch("hstack row mismatch")
        return Matrix(
            self.field,
            self.rows,
            self.cols + other.cols,
            [r1 + r2 for r1, r2 in zip(self.data, other.data)],
        )

    def vstack(self, other):
        self._check(other)
        if self.cols != other.cols:
            raise ShapeMismatch("vstack column mismatch")
        return Matrix(
            self.field,
            self.rows + other.rows,
            self.cols,
            [list(r) for r in self.data] + [list(r) for r in other.data],
        )

    def row(self, i):
        return list(self.data[i])

    def col(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def is_zero(self):
        F = self.field
        return all(F.is_zero(a) for r in self.data for a in r)

    def trace(self):
        F = self.field
        acc = F.zero
        for i in range(min(self.rows, self.cols)):
            acc = F.add(acc, self.data[i][i])
        return acc

    def copy(self):
        return Matrix(self.field, self.rows, self.cols, [list(r) for r in self.data])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def sort_key(self):
        F = self.field
        return tuple(tuple(F.sort_key(a) for a in r) for r in self.data)

    def __repr__(self):
        F = self.field
        body = "; ".join(" ".join(F.format(a) for a in r) for r in self.data)
        return f"Matrix({self.rows}x{self.cols} over {F}: [{body}])"

    # -- reductions -----------------------------------------------------
    def rref(self):
        """Canonical reduced row echelon form.

        Returns (R, rank, pivot_cols); R has the shape of self with zero
        rows at the bottom.
        """
        if self.field == QQ:
            rows, pivots = _rref_bareiss(self.data, self.rows, self.cols)
        else:
            rows, pivots = _rref_generic(self.field, self.data, self.rows, self.cols)
        return Matrix(self.field, self.rows, self.cols, rows), len(pivots), pivots

    def rank(self):
        return self.rref()[1]

    def kernel(self):
        """Right kernel as a Subspace of k^cols."""
        R, _, pivots = self.rref()
        F = self.field
        pivot_set = set(pivots)
        free = [j for j in range(self.cols) if j not in pivot_set]
        basis = []
        for j in free:
            v = [F.zero] * self.cols
            v[j] = F.one
            for i, p in enumerate(pivots):
                v[p] = F.neg(R.data[i][j])
            basis.append(v)
        return Subspace.from_vectors(F, self.cols, basis)

    def column_space(self):
        return Subspace.from_vectors(self.field, self.rows, self.transpose().data)

    def solve(self, rhs):
        """One solution of self @ x = rhs, or None if inconsistent."""
        sols = self.solve_matrix(Matrix.column(self.field, rhs))
        return sols.col(0) if sols is not None else None

    def solve_matrix(self, B):
        """X with self @ X = B, or None; free variables are set to zero."""
        self._check(B)
        if B.rows != self.rows:
            raise ShapeMismatch("solve: rhs row mismatch")
        F = self.field
        aug = self.hstack(B)
        R, _, pivots = aug.rref()
        n = self.cols
        for i, p in enumerate(pivots):
            if p >= n:
                return None  # a pivot in the rhs block: inconsistent
        X = Matrix.zeros(F, n, B.cols)
        for i, p in enumerate(pivots):
            for j in range(B.cols):
                X.data[p][j] = R.data[i][n + j]
        return X

    def inverse(self):
        if self.rows != self.cols:
            raise ShapeMismatch("inverse of a non-square matrix")
        X = self.solve_matrix(Matrix.identity(self.field, self.rows))
        if X is None or not (self @ X == Matrix.identity(self.field, self.rows)):
            return None
        return X

    def det(self):
        """Cofactor-expansion determinant; oracle use only (tiny matrices)."""
        if self.rows != self.cols:
            raise ShapeMismatch("determinant of a non-square matrix")
        F = self.field
        n = self.rows
        if n == 0:
            return F.one
        if n == 1:
            return self.data[0][0]
        acc = F.zero
        for j in range(n):
            a = self.data[0][j]
            if F.is_zero(a):
                continue
            minor = Matrix(
                F,
                n - 1,
                n - 1,
                [[self.data[i][k] for k in range(n) if k != j] for i in range(1, n)],
            )
            term = F.mul(a, minor.det())
            acc = F.add(acc, term) if j % 2 == 0 else F.sub(acc, term)
        return acc


def _rref_generic(F, data, nrows, ncols):
    rows = [list(r) for r in data]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if not F.is_zero(rows[i][c]):
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv(rows[r][c])
        if not F.is_one(rows[r][c]):
            rows[r] = [F.mul(inv, a) for a in rows[r]]
        for i in range(nrows):
            if i != r and not F.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _rref_bareiss(data, nrows, ncols):
    # clear denominators per row, then fraction-free forward elimination
    rows = []
    for r in data:
        den = 1
        for a in r:
            den = den * a.denominator // _gcd(den, a.denominator)
        rows.append([int(a * den) for a in r])
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            ric = rows[i][c]
            rows[i] = [(piv * rows[i][j] - ric * rows[r][j]) // prev for j in range(ncols)]
        prev = piv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    # normalize to reduced form with exact rational steps
    out = [[Fraction(a) for a in row] for row in rows]
    for i in reversed(range(len(pivots))):
        p = pivots[i]
        piv = out[i][p]
        out[i] = [a / piv for a in out[i]]
        for k in range(i):
            f = out[k][p]
            if f:
                out[k] = [a - f * b for a, b in zip(out[k], out[i])]
    for i in range(len(pivots), nrows):
        out[i] = [Fraction(0)] * ncols
    return out, pivots


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


class Subspace:
    """A subspace of k^n held as a canonical RREF basis (rows)."""

    __slots__ = ("field", "ambient", "basis")

    def __init__(self, field, ambient, basis):
        self.field = field
        self.ambient = ambient
        self.basis = basis  # Matrix, dim x ambient, already canonical

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        M = Matrix.from_rows(field, [list(v) for v in vectors], ambient)
        R, rank, _ = M.rref()
        return cls(field, ambient, Matrix(field, rank, ambient, R.data[:rank]))

    @classmethod
    def zero(cls, field, ambient):
        return cls(field, ambient, Matrix.zeros(field, 0, ambient))

    @classmethod
    def full(cls, field, ambient):
        return cls(field, ambient, Matrix.identity(field, ambient))

    @property
    def dim(self):
        return self.basis.rows

    def _check(self, other):
        if self.ambient != other.ambient or self.field != other.field:
            raise AmbientMismatch("subspaces in different ambient spaces")

    def vectors(self):
        return [self.basis.row(i) for i in range(self.dim)]

    def pivots(self):
        F = self.field
        out = []
        for row in self.basis.data:
            for j, a in enumerate(row):
                if not F.is_zero(a):
                    out.append(j)
                    break
        return out

    def coordinates(self, vec):
        """Coefficients of vec over the basis rows, or None if outside."""
        F = self.field
        v = list(vec)
        coords = []
        for i, p in enumerate(self.pivots()):
            c = v[p]
            coords.append(c)
            if not F.is_zero(c):
                row = self.basis.data[i]
                v = [F.sub(a, F.mul(c, b)) for a, b in zip(v, row)]
        if any(not F.is_zero(a) for a in v):
            return None
        return coords

    def contains_vector(self, vec):
        return self.coordinates(vec) is not None

    def contains(self, other):
        self._check(other)
        return all(self.contains_vector(v) for v in other.vectors())

    def sum(self, other):
        self._check(other)
        return Subspace.from_vectors(
            self.field, self.ambient, self.vectors() + other.vectors()
        )

    def intersect(self, other):
        """Zassenhaus-style: kernel of [A^T | -B^T] yields intersection."""
        self._check(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, self.ambient)
        At = self.basis.transpose()
        Bt = (-other.basis).transpose()
        ker = At.hstack(Bt).kernel()
        vecs = []
        for w in ker.vectors():
            x = w[: self.dim]
            vecs.append(self.basis.transpose().apply(x))
        return Subspace.from_vectors(self.field, self.ambient, vecs)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field == other.field
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient})"


def subspace_ops(A, B, op):
    """Dispatch by name: sum, intersect, contains, member (B a vector)."""
    if op == "sum":
        return A.sum(B)
    if op == "intersect":
        return A.intersect(B)
    if op == "contains":
        return A.contains(B)
    if op == "member":
        return A.contains_vector(B)
    raise ShapeMismatch(f"unknown subspace operation {op!r}")


def rref(M):
    R, rank, _ = M.rref()
    return R, rank


def kernel(M):
    return M.kernel()


def kronecker(A, B):
    """Kronecker product under the global e_i (x) e_j -> i*dim2 + j layout."""
    if A.field != B.field:
        raise SpecMismatch("kronecker over different fields")
    F = A.field
    z = F.zero
    out = Matrix.zeros(F, A.rows * B.rows, A.cols * B.cols)
    for i in range(A.rows):
        for k in range(A.cols):
            a = A.data[i][k]
            if F.is_zero(a):
                continue
            for j in range(B.rows):
                brow = B.data[j]
                orow = out.data[i * B.rows + j]
                base = k * B.cols
                for l in range(B.cols):
                    b = brow[l]
                    if not F.is_zero(b):
                        orow[base + l] = F.add(orow[base + l], F.mul(a, b)) if orow[base + l] != z else F.mul(a, b)
    return out


def tensor_swap(field, m, n):
    """Permutation matrix k^m (x) k^n -> k^n (x) k^m, e_i(x)e_j -> e_j(x)e_i."""
    T = Matrix.zeros(field, m * n, m * n)
    for i in range(m):
        for j in range(n):
            T.data[j * m + i][i * n + j] = field.one
    return T


def quotient_maps(sub):
    """Projection q and section s for k^n -> k^n / sub.

    q is (n-r) x n with kernel exactly sub, s is n x (n-r) with q @ s = I;
    the quotient coordinates are the non-pivot coordinates of the subspace
    basis, which makes the construction canonical.
    """
    F = sub.field
    n = sub.ambient
    pivots = sub.pivots()
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    q = Matrix.zeros(F, len(free), n)
    for idx, j in enumerate(free):
        q.data[idx][j] = F.one
    for i, p in enumerate(pivots):
        row = sub.basis.data[i]
        for idx, j in enumerate(free):
            q.data[idx][p] = F.neg(row[j])
    s = Matrix.zeros(F, n, len(free))
    for idx, j in enumerate(free):
        s.data[j][idx] = F.one
    return q, s


class Coequalizer:
    """Coequalizer of two parallel maps, realized as the cokernel of f - g."""

    __slots__ = ("projection", "section", "dim", "image")

    def __init__(self, projection, section, dim, image):
        self.projection = projection
        self.section = section
        self.dim = dim
        self.image = image

    def factor(self, h):
        """For h with h @ (f - g) = 0, the unique u with u @ projection = h."""
        u = h @ self.section
        if not (u @ self.projection == h):
            raise ShapeMismatch("map does not coequalize the pair")
        return u


def coequalizer(f, g):
    if (f.rows, f.cols) != (g.rows, g.cols) or f.field != g.field:
        raise ShapeMismatch("coequalizer of maps with different shapes")
    h = f - g
    image = h.column_space()
    q, s = quotient_maps(image)
    return Coequalizer(q, s, q.rows, image)


class RowReducer:
    """Incremental row reduction with dependence tracking.

    add() returns None while vectors stay independent; on the first
    dependence it returns coefficients c (over all vectors added so far,
    last coefficient 1) with sum_i c_i v_i = 0.
    """

    def __init__(self, field):
        self.field = field
        self.rows = []  # (vector, pivot, combo)
        self.count = 0

    def add(self, vec):
        F = self.field
        v = list(vec)
        combo = [F.zero] * self.count + [F.one]
        for row, pivot, rcombo in self.rows:
            c = v[pivot]
            if F.is_zero(c):
                continue
            v = [F.sub(a, F.mul(c, b)) for a, b in zip(v, row)]
            for i, b in enumerate(rcombo):
                combo[i] = F.sub(combo[i], F.mul(c, b))
        self.count += 1
        pivot = None
        for j, a in enumerate(v):
            if not F.is_zero(a):
                pivot = j
                break
        if pivot is None:
            return combo
        inv = F.inv(v[pivot])
        v = [F.mul(inv, a) for a in v]
        combo = [F.mul(inv, a) for a in combo]
        self.rows.append((v, pivot, combo))
        return None

    @property
    def rank(self):
        return len(self.rows)


def minimal_polynomial(T):
    """Monic least-degree annihilating polynomial of a square matrix."""
    if T.rows != T.cols:
        raise ShapeMismatch("minimal polynomial of a non-square matrix")
    F = T.field
    n = T.rows
    if n == 0:
        return Polynomial.one(F)
    red = RowReducer(F)
    power = Matrix.identity(F, n)
    while True:
        vec = [a for row in power.data for a in row]
        combo = red.add(vec)
        if combo is not None:
            return Polynomial(F, combo)
        power = power @ T
