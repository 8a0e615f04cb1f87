"""Exact dense linear algebra over the kernel's fields.

Matrices act on column vectors; a morphism into an m-dimensional space from
an n-dimensional one is an m x n matrix.  Vectors are plain lists of raw
field values.

A Matrix holds dense rows of raw field values, and only this module writes
them.  A matrix is built by a constructor (`from_rows`, `from_cols`, `zeros`,
`hstack`, ..., or entry by entry with `from_entries`) and never written after
construction; code elsewhere only reads `data`.  Over Q a kernel result keeps
the integer rows the kernel computed (`_IntRowMatrix`), the next kernel op
reads them, and its `data` is a view of Fractions built on first read.

Tensor index convention, used by every module: the basis vector e_i (x) e_j
of k^m (x) k^n sits at index i*n + j (row-major on the factors).

Row reduction, products, incremental dependence (`add_row`), subspace
coordinates, the span of sparse vectors, the products, multiplication
matrices, power chains and idempotent lift of an ArtinAlgebra and the
sparse contractions of the axiom checks run on a kernel per field kind
(see `row_kernel`): Q on integer rows over a common denominator,
fraction-free, to control coefficient growth (the sparse span excepted,
which runs on the field's methods); F_p on plain ints reduced mod p; F_q
through the field's methods, with one row reduction, the sparse one.
Reduced row echelon form is canonical, so equal subspaces have identical
bases.

`minimal_polynomial` is that of a matrix.  The minimal polynomial of an
algebra element x (`structure.element_min_poly`) is the first dependence
among the powers 1, x, x^2, ... in the algebra, which is that of its
multiplication matrix without building it.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import AmbientMismatch, ShapeMismatch, SpecMismatch
from .gfpoly import clear_denominators
from .polys import Polynomial


class Matrix:
    """rows lists of cols raw field values in data.  Built by a constructor,
    `from_entries` entry by entry, and never written afterwards: `__hash__`
    reads the rows, and results may share rows with their inputs."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, rows, cols, data):
        """data must be rows lists of cols entries; it is not checked here,
        since the kernel's own results have that shape by construction.
        Data from outside goes through `checked`."""
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    # -- constructors --------------------------------------------------
    @classmethod
    def checked(cls, field, rows, cols, data):
        """Matrix(field, rows, cols, data) after checking the shape of data."""
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ShapeMismatch(f"data does not match shape {rows}x{cols}")
        return cls(field, rows, cols, data)

    @classmethod
    def zeros(cls, field, rows, cols):
        z = field.zero
        return cls(field, rows, cols, [[z] * cols for _ in range(rows)])

    @classmethod
    def from_entries(cls, field, rows, cols, entries):
        """The (i, j) entry is the sum of the values of the (i, j, value)
        triples, zero where there are none; a value on an untouched cell is
        stored as it is (zero + value = value in every field)."""
        z, add = field.zero, field.add
        data = [[z] * cols for _ in range(rows)]
        for i, j, v in entries:
            row = data[i]
            if row[j] is z:
                row[j] = v
            else:
                row[j] = add(row[j], v)
        return cls(field, rows, cols, data)

    @classmethod
    def identity(cls, field, n):
        if row_kernel(field) is _RationalKernel:
            return _IntRowMatrix(field, n, n, [([0] * i + [1] + [0] * (n - 1 - i), 1) for i in range(n)])
        z, o = field.zero, field.one
        return cls(field, n, n, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_rows(cls, field, rows, cols=None):
        rows = [list(r) for r in rows]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        return cls.checked(field, len(rows), cols, rows)

    @classmethod
    def from_cols(cls, field, cols, rows=None):
        cols = [list(c) for c in cols]
        if rows is None:
            rows = len(cols[0]) if cols else 0
        if any(len(c) != rows for c in cols):
            raise ShapeMismatch(f"columns do not have {rows} entries")
        data = [[c[i] for c in cols] for i in range(rows)]
        return cls(field, rows, len(cols), data)

    @classmethod
    def from_int_rows(cls, field, rows):
        return cls.from_rows(field, [[field.from_int(c) for c in r] for r in rows])

    @classmethod
    def column(cls, field, vec):
        if row_kernel(field) is _RationalKernel:
            nums, den = clear_denominators(vec)
            return _IntRowMatrix(field, len(vec), 1, [([a], den) for a in nums])
        return cls(field, len(vec), 1, [[v] for v in vec])

    # -- basic ops ------------------------------------------------------
    def _check(self, other):
        if self.field != other.field:
            raise SpecMismatch("matrices over different fields")

    def __matmul__(self, other):
        self._check(other)
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return row_kernel(self.field).matmul(self.field, self, other)

    def apply(self, vec):
        """Matrix times column vector (a plain list)."""
        if len(vec) != self.cols:
            raise ShapeMismatch("vector length mismatch")
        return row_kernel(self.field).apply(self.field, self, vec)

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
        data = [list(col) for col in zip(*self.data)] if self.rows else [[] for _ in range(self.cols)]
        return Matrix(self.field, self.cols, self.rows, data)

    def hstack(self, other):
        self._check(other)
        if self.rows != other.rows:
            raise ShapeMismatch("hstack row mismatch")
        if _IntRowMatrix in (type(self), type(other)):
            rows = []
            for (a, d), (b, e) in zip(_int_rows(self), _int_rows(other)):
                den = lcm(d, e)
                rows.append((a + b if d == e else [x * (den // d) for x in a] + [x * (den // e) for x in b], den))
            return _IntRowMatrix(self.field, self.rows, self.cols + other.cols, rows)
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
        return _stack(self.field, self.cols, [self, other])

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

    def cleared_columns(self):
        """(cols, scale): cols[j] lists the (i, a) of the nonzero entries of
        column j on the footing of the row kernel, the entry being a / scale
        (`row_kernel(F).cleared`)."""
        F = self.field
        n = self.cols
        pairs, scale = row_kernel(F).cleared(F, [a for row in self.data for a in row])
        cols = [[] for _ in range(n)]
        for t, a in pairs:
            i, j = divmod(t, n)
            cols[j].append((i, a))
        return cols, scale

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
        R, pivots = row_kernel(self.field).rref(self.field, self)
        return R, len(pivots), pivots

    def rank(self):
        return self.rref()[1]

    def kernel(self):
        """Right kernel as a Subspace of k^cols."""
        R, _, pivots = self.rref()
        return _row_space(_null_rows(R, pivots))

    def column_space(self):
        return _row_space(self.transpose())

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
        if any(p >= n for p in pivots):
            return None  # a pivot in the rhs block: inconsistent
        if type(R) is _IntRowMatrix:
            rows = [([0] * B.cols, 1)] * n
            for (nums, den), p in zip(R.ints, pivots):
                rows[p] = (nums[n:], den)
            return _IntRowMatrix(F, n, B.cols, rows)
        rows = [[F.zero] * B.cols for _ in range(n)]
        for i, p in enumerate(pivots):
            rows[p] = R.data[i][n:]
        return Matrix(F, n, B.cols, rows)

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


class _IntRowMatrix(Matrix):
    """A Q matrix as the Q row kernel computed it: `ints` holds each row as
    (numerators, denominator > 0), which the kernel ops read, and `data`
    builds its Fractions on first read.  rref, kernel and @ are Matrix's."""

    __slots__ = ("ints", "_view")

    def __init__(self, field, rows, cols, ints):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.ints = ints
        self._view = None

    @property
    def data(self):
        if self._view is None:
            self._view = [[_fraction(a, d) for a in nums] for nums, d in self.ints]
        return self._view

    def transpose(self):
        cols, den = _common_columns(self.ints, self.cols)
        return _IntRowMatrix(self.field, self.cols, self.rows, [(col, den) for col in cols])

    def is_zero(self):
        return not any(any(nums) for nums, _ in self.ints)

    def cleared_columns(self):
        # a reduced row's denominator is the lcm of its entries' ones
        cols, scale = _common_columns([_reduced(nums, d) for nums, d in self.ints], self.cols)
        return [[(i, a) for i, a in enumerate(col) if a] for col in cols], scale

    def __eq__(self, other):
        """Rows compared cross-multiplied, with no Fraction built."""
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field, self.rows, self.cols) == (other.field, other.rows, other.cols) and all(
            a == b if d == e else [x * e for x in a] == [y * d for y in b]
            for (a, d), (b, e) in zip(self.ints, _int_rows(other)))

    __hash__ = Matrix.__hash__

    def __reduce__(self):  # copy and pickle: `data` has no setter
        return _IntRowMatrix, (self.field, self.rows, self.cols, self.ints)


def _int_rows(M):
    """The rows of a Q matrix as (numerators, denominator > 0)."""
    if type(M) is _IntRowMatrix:
        return M.ints
    return [clear_denominators(row) for row in M.data]


def _reduced(nums, den):
    """nums / den with the common factor of the numerators and den divided out."""
    g = gcd(den, *nums)
    return ([a // g for a in nums], den // g) if g > 1 else (nums, den)


def _common_columns(rows, ncols):
    """(cols, den): the columns of integer rows as numerator lists over one
    denominator, the lcm of the rows' ones."""
    den = lcm(*[d for _, d in rows])
    scaled = [nums if d == den else [a * (den // d) for a in nums] for nums, d in rows]
    return [list(col) for col in zip(*scaled)] if rows else [[] for _ in range(ncols)], den


def _block(M, rows, cols=None):
    """The rows of M with the indices rows, on the columns cols (all of them
    when None), as a matrix of M's kind."""
    ints = type(M) is _IntRowMatrix
    rows = [(M.ints if ints else M.data)[i] for i in rows]
    if cols is not None:
        rows = [([a[c] for c in cols], d) for a, d in rows] if ints else [[r[c] for c in cols] for r in rows]
    return type(M)(M.field, len(rows), M.cols if cols is None else len(cols), rows)


def _stack(F, cols, blocks):
    """The matrices in blocks, each with cols columns, on top of each other,
    as a matrix of the row kernel's kind: over Q their integer rows."""
    if row_kernel(F) is _RationalKernel:
        rows = [r for M in blocks for r in _int_rows(M)]
        return _IntRowMatrix(F, len(rows), cols, rows)
    rows = [r for M in blocks for r in M.data]
    return Matrix(F, len(rows), cols, rows)


def _placed(F, cols, blocks):
    """The matrices M of blocks, (M, where) pairs, on top of each other,
    column k of M at column where[k] of cols columns and zero elsewhere, as a
    matrix of the row kernel's kind: over Q from their integer rows."""
    ints = row_kernel(F) is _RationalKernel
    zero = 0 if ints else F.zero
    rows = []
    for M, where in blocks:
        for r in (_int_rows(M) if ints else M.data):
            row = [zero] * cols
            for j, a in zip(where, r[0] if ints else r):
                row[j] = a
            rows.append((row, r[1]) if ints else row)
    return (_IntRowMatrix if ints else Matrix)(F, len(rows), cols, rows)


def _row_space(M):
    """The Subspace of k^cols spanned by the rows of M."""
    R, rank, _ = M.rref()
    return Subspace(M.field, M.cols, _block(R, range(rank)))


def _free(n, pivots):
    """The coordinates of k^n without a pivot: the quotient's, and the kernel's free variables."""
    return sorted(set(range(n)) - set(pivots))


def _null_rows(R, pivots):
    """For R in RREF with the given pivots, a basis of its right kernel as a matrix
    of R's kind: for each column j without a pivot, 1 at j and minus column j at the pivots."""
    F, n = R.field, R.cols
    free, out = _free(n, pivots), []
    if type(R) is _IntRowMatrix:
        rows = R.ints[:len(pivots)]
        den = lcm(*[d for _, d in rows])
        for j in free:
            v = [0] * n
            v[j] = den
            for (nums, d), p in zip(rows, pivots):
                v[p] = -nums[j] * (den // d)
            out.append((v, den))
        return _IntRowMatrix(F, len(free), n, out)
    for j in free:
        v = [F.zero] * n
        v[j] = F.one
        for row, p in zip(R.data, pivots):
            v[p] = F.neg(row[j])
        out.append(v)
    return Matrix(F, len(free), n, out)


# -- per-field row kernels --------------------------------------------------
#
# The entry loops of rref, matrix products, add_row (the incremental
# dependence of minimal_polynomial), ArtinAlgebra.mul, mult_matrix and
# eval_poly, the products of two bases in an algebra, the power chain of a
# minimal polynomial, the Newton lift of an idempotent, the sparse RREF
# (Subspace.from_sparse, DayTensor), Subspace.pivots/coordinates, and the
# sparse contraction the axiom checks compare, one implementation per field
# kind, picked by `row_kernel`.  The Q kernel returns its matrices on integer
# rows (`_IntRowMatrix`) and reads them, so a chain of products, reductions
# and solves clears each Fraction input once.  F_p and F_q matrices keep
# `data` a plain slot, which each of their kernel ops reads: a property on
# every Matrix cost the Day workload about 2% of its throughput.
# `cleared` puts a vector on a kernel's footing: its nonzero (index, value)
# pairs and an int scale, the entry being value / scale;
# `contract(F, terms, scale)` sums a * b per key over the (key, a, b) of
# terms, times scale, and drops the zero sums.  Two sides
# over scales s and t are equal when contract(lhs, t) == contract(rhs, s).
# `_FieldMethods` sends every entry through the field's own methods; F_q
# runs on it, and the F_p and Q kernels return byte-identical results to it.
# Its one row reduction is the sparse one; its dense `rref` is that result
# written out.  The F_p and Q kernels keep a dense rref of their own: sending
# F_p through the sparse one cost the finite-field workload 9% of its
# throughput.


def _min_poly_powers(F, A, x):
    """(combo, powers): the first dependence among 1, x, x^2, .. of an
    algebra element, as `add_row` returns it, and the independent powers
    before it as the rows of a matrix."""
    add_row = row_kernel(F).add_row
    rows, powers = [], []
    power = list(A.unit)
    while True:
        combo = add_row(F, rows, power, len(powers))
        if combo is not None:
            return combo, Matrix(F, len(powers), A.dim, powers)
        powers.append(power)
        power = A.mul(power, x)


def _basis_products(F, A, B, C):
    """The matrix whose column i*m + j is b_i c_j in A, for the rows b of B
    and the m rows c of C."""
    return Matrix.from_cols(F, [A.mul(u, v) for u in B.data for v in C.data], A.dim)


def _lift_idempotent(F, A, a, steps):
    """`structure.lift_idempotent` through A.mul: e, or None when the
    steps end without an idempotent e with a - e nilpotent."""
    two, three = F.from_int(2), F.from_int(3)
    e = list(a)
    for _ in range(steps):
        square = A.mul(e, e)
        if square == e:
            diff = [F.sub(x, y) for x, y in zip(a, e)]
            return e if all(F.is_zero(c) for c in A.power(diff, A.dim)) else None
        cube = A.mul(square, e)
        e = [F.sub(F.mul(three, s), F.mul(two, c)) for s, c in zip(square, cube)]
    return None


class _FieldMethods:
    """Every entry through F.add/F.mul/F.is_zero: the F_q kernel, and the
    reference the other kernels are tested against."""

    @staticmethod
    def rref(F, M):
        """`sparse_rref`, dense, padded with zero rows."""
        rows = _FieldMethods.sparse_rref(F, M.cols, [dict(enumerate(r)) for r in M.data])
        pad = [[F.zero] * M.cols for _ in range(M.rows - len(rows))]
        return Matrix(F, M.rows, M.cols, _dense_rows(F.zero, M.cols, rows) + pad), sorted(rows)

    @staticmethod
    def matmul(F, A, B):
        z = F.zero
        out = []
        for arow in A.data:
            orow = [z] * B.cols
            for x, brow in zip(arow, B.data):
                if F.is_zero(x):
                    continue
                for j, y in enumerate(brow):
                    if not F.is_zero(y):
                        orow[j] = F.add(orow[j], F.mul(x, y))
            out.append(orow)
        return Matrix(F, A.rows, B.cols, out)

    @staticmethod
    def apply(F, M, vec):
        out = []
        for row in M.data:
            acc = F.zero
            for a, v in zip(row, vec):
                if not (F.is_zero(a) or F.is_zero(v)):
                    acc = F.add(acc, F.mul(a, v))
            out.append(acc)
        return out

    @staticmethod
    def add_row(F, rows, vec, count):
        """Reduce vec against rows of (vector, pivot, combo), the count
        vectors added so far: None, having appended vec's row, while vec is
        independent of them, else the coefficients c over them and vec (the
        last one 1) with sum_i c_i v_i = 0."""
        v = list(vec)
        combo = [F.zero] * count + [F.one]
        for row, pivot, rcombo in rows:
            c = v[pivot]
            if F.is_zero(c):
                continue
            v = [F.sub(a, F.mul(c, b)) for a, b in zip(v, row)]
            for i, b in enumerate(rcombo):
                combo[i] = F.sub(combo[i], F.mul(c, b))
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
        rows.append((v, pivot, combo))
        return None

    @staticmethod
    def algebra_mul(F, A, x, y):
        out = [F.zero] * A.dim
        table = A.table()
        for j, a in enumerate(x):
            if F.is_zero(a):
                continue
            row = table[j]
            for k, b in enumerate(y):
                if F.is_zero(b):
                    continue
                c = F.mul(a, b)
                col = row[k]
                for i, t in enumerate(col):
                    if not F.is_zero(t):
                        out[i] = F.add(out[i], F.mul(c, t))
        return out

    @staticmethod
    def mult_matrix(F, A, x):
        """Rows of the matrix of multiplication by x: column k is x * e_k."""
        n = A.dim
        z, o = F.zero, F.one
        cols = [_FieldMethods.algebra_mul(F, A, x, [o if i == k else z for i in range(n)])
                for k in range(n)]
        return Matrix.from_cols(F, cols, n)

    @staticmethod
    def eval_poly(F, A, poly, x):
        """poly(x) in A, Horner style."""
        out = [F.zero] * A.dim
        for c in reversed(poly.coeffs):
            out = [F.add(s, F.mul(c, u)) for s, u in zip(A.mul(out, x), A.unit)]
        return out

    min_poly_powers = staticmethod(_min_poly_powers)
    lift_idempotent = staticmethod(_lift_idempotent)
    basis_products = staticmethod(_basis_products)

    @staticmethod
    def sparse_rref(F, ambient, vectors):
        """The RREF rows spanned by {index: value} maps, as {leading index:
        {index: nonzero value}}.  An echelon pass keeps one row per leading
        index, scaled to lead with one, and stops once the rank is the
        ambient dimension; back-substitution, from the last leading index
        down, then clears the other rows' leading indices out of each row,
        so a row's other entries sit at indices that lead no row."""
        rows = {}  # leading index -> {index: nonzero value}
        for vec in vectors:
            v = {j: a for j, a in vec.items() if not F.is_zero(a)}
            while v:
                c = min(v)
                if c not in rows:
                    inv = F.inv(v[c])
                    rows[c] = {j: F.mul(inv, a) for j, a in v.items()}
                    break
                _FieldMethods._sub_multiple(F, v, v[c], rows[c])
            if len(rows) == ambient:
                break
        for c in sorted(rows, reverse=True):
            row = rows[c]
            for k in [j for j in row if j != c and j in rows]:
                _FieldMethods._sub_multiple(F, row, row[k], rows[k])
        return rows

    @staticmethod
    def _sub_multiple(F, v, f, row):
        """v -= f * row on {index: nonzero value} maps."""
        for j, b in row.items():
            w = F.sub(v.get(j, F.zero), F.mul(f, b))
            if F.is_zero(w):
                v.pop(j, None)
            else:
                v[j] = w

    @staticmethod
    def pivots(F, M):
        out = []
        for row in M.data:
            for j, a in enumerate(row):
                if not F.is_zero(a):
                    out.append(j)
                    break
        return out

    @staticmethod
    def coordinates(F, M, pivots, vec):
        """Subspace.coordinates over the RREF rows of M with the given pivots."""
        v = list(vec)
        coords = []
        for row, p in zip(M.data, pivots):
            c = v[p]
            coords.append(c)
            if not F.is_zero(c):
                v = [F.sub(a, F.mul(c, b)) for a, b in zip(v, row)]
        if any(not F.is_zero(a) for a in v):
            return None
        return coords

    @staticmethod
    def cleared(F, vec):
        return [(i, a) for i, a in enumerate(vec) if not F.is_zero(a)], 1

    @staticmethod
    def contract(F, terms, scale=1):
        """`cleared` puts every vector on scale 1 here, so scale is 1."""
        acc = {}
        for key, a, b in terms:
            ab = F.mul(a, b)
            acc[key] = F.add(acc[key], ab) if key in acc else ab
        return {key: v for key, v in acc.items() if not F.is_zero(v)}


def _dense_rows(zero, ambient, rows):
    """The {index: value} rows of a sparse_rref, dense, by leading index."""
    out = []
    for c in sorted(rows):
        dense = [zero] * ambient
        for j, a in rows[c].items():
            dense[j] = a
        out.append(dense)
    return out


def _nonzero_pivots(F, M):
    """Subspace.pivots where a zero entry is falsy: F_p, and Q (on the
    numerators of integer rows)."""
    out = []
    for row in [nums for nums, _ in M.ints] if type(M) is _IntRowMatrix else M.data:
        for j, a in enumerate(row):
            if a:
                out.append(j)
                break
    return out


class _PrimeKernel:
    """F_p on plain ints: a product or a sum of products is reduced by one
    `% p`.  Outputs are ints in [0, p)."""

    @staticmethod
    def rref(F, M):
        p, nrows, ncols = F.p, M.rows, M.cols
        rows = [[a % p for a in r] for r in M.data]
        pivots = []
        r = 0
        for c in range(ncols):
            for i in range(r, nrows):
                if rows[i][c]:
                    break
            else:
                continue
            pr = rows[i]
            rows[i] = rows[r]
            if pr[c] != 1:
                inv = pow(pr[c], -1, p)
                pr = [a * inv % p for a in pr]
            rows[r] = pr
            # the pivot row is zero left of c; only its nonzero columns move
            nonzero = [(j, pr[j]) for j in range(c, ncols) if pr[j]]
            for i, row in enumerate(rows):
                f = row[c]
                if f and i != r:
                    for j, b in nonzero:
                        row[j] = (row[j] - f * b) % p
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        return Matrix(F, nrows, ncols, rows), pivots

    @staticmethod
    def matmul(F, A, B):
        p = F.p
        out = []
        for arow in A.data:
            acc = [0] * B.cols
            for x, brow in zip(arow, B.data):
                if x:
                    acc = [s + x * y for s, y in zip(acc, brow)]
            out.append([s % p for s in acc])
        return Matrix(F, A.rows, B.cols, out)

    @staticmethod
    def apply(F, M, vec):
        p = F.p
        return [sum(map(mul, row, vec)) % p for row in M.data]

    @staticmethod
    def add_row(F, rows, vec, count):
        """_FieldMethods.add_row over rows of (vector + combo, pivot), pivot
        entry 1."""
        p = F.p
        n = len(vec)
        w = [a % p for a in vec] + [0] * count + [1]
        for row, pivot in rows:
            c = w[pivot]
            if c:
                w[: len(row)] = [(a - c * b) % p for a, b in zip(w, row)]
        for j in range(n):
            if w[j]:
                break
        else:
            return w[n:]
        inv = pow(w[j], -1, p)
        rows.append(([a * inv % p for a in w], j))
        return None

    @staticmethod
    def algebra_mul(F, A, x, y):
        p = F.p
        return [s % p for s in _int_algebra_mul(A, x, y)]

    @staticmethod
    def mult_matrix(F, A, x):
        p = F.p
        return Matrix(F, A.dim, A.dim, [[s % p for s in row] for row in _int_mult_matrix(A, x)])

    @staticmethod
    def eval_poly(F, A, poly, x):
        """Horner on ints, one `% p` per coordinate and step."""
        out = [0] * A.dim
        for c in reversed(poly.coeffs):
            out = [(s + c * u) % F.p for s, u in zip(_int_algebra_mul(A, out, x), A.unit)]
        return out

    min_poly_powers = staticmethod(_min_poly_powers)
    lift_idempotent = staticmethod(_lift_idempotent)
    basis_products = staticmethod(_basis_products)

    @staticmethod
    def sparse_rref(F, ambient, vectors):
        """_FieldMethods.sparse_rref on ints, one `% p` per entry written."""
        p = F.p
        rows = {}
        for vec in vectors:
            v = {j: a % p for j, a in vec.items() if a % p}
            while v:
                c = min(v)
                if c not in rows:
                    inv = pow(v[c], -1, p)
                    rows[c] = {j: a * inv % p for j, a in v.items()}
                    break
                _sub_multiple_mod(p, v, v[c], rows[c])
            if len(rows) == ambient:
                break
        for c in sorted(rows, reverse=True):
            row = rows[c]
            for k in [j for j in row if j != c and j in rows]:
                _sub_multiple_mod(p, row, row[k], rows[k])
        return rows

    pivots = staticmethod(_nonzero_pivots)

    @staticmethod
    def coordinates(F, M, pivots, vec):
        """In RREF every pivot column is zero in the other rows, so the
        coordinates are vec's pivot entries; vec is inside when it equals
        their combination of the rows."""
        p = F.p
        coords = [vec[j] % p for j in pivots]
        v = list(vec)
        for c, row in zip(coords, M.data):
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        return None if any(a % p for a in v) else coords

    @staticmethod
    def cleared(F, vec):
        return [(i, a) for i, a in enumerate(vec) if a], 1

    @staticmethod
    def contract(F, terms, scale=1):
        """One `% p` per key."""
        p = F.p
        out = {}
        for key, s in _int_contract(terms).items():
            s = s * scale % p
            if s:
                out[key] = s
        return out


def _sub_multiple_mod(p, v, f, row):
    """v -= f * row mod p on {index: nonzero int} maps."""
    for j, b in row.items():
        w = (v.get(j, 0) - f * b) % p
        if w:
            v[j] = w
        else:
            v.pop(j, None)


_Q_ZERO = Fraction(0)


def _fraction(num, den):
    if not num:
        return _Q_ZERO
    return Fraction(num, den) if den != 1 else Fraction(num)


class _RationalKernel:
    """Q on integer rows (numerators, denominator), fraction-free like
    Bareiss elimination.  Matrix results are `_IntRowMatrix`es; a vector
    result is one Fraction(num, den) per entry."""

    @staticmethod
    def rref(F, M):
        # a row stands for its rational multiples, so elimination
        # cross-multiplies and then divides out the row's content
        nrows, ncols = M.rows, M.cols
        rows = [nums for nums, _ in _int_rows(M)]
        pivots = []
        r = 0
        for c in range(ncols):
            for i in range(r, nrows):
                if rows[i][c]:
                    break
            else:
                continue
            pr = rows[i]
            rows[i] = rows[r]
            rows[r] = pr
            piv = pr[c]
            for i, row in enumerate(rows):
                f = row[c]
                if f and i != r:
                    row = [piv * a - f * b for a, b in zip(row, pr)]
                    g = gcd(*row)
                    rows[i] = [a // g for a in row] if g > 1 else row
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        # each nonzero row over its pivot entry, made positive
        out = [(row, row[c]) if row[c] > 0 else ([-a for a in row], -row[c])
               for row, c in zip(rows, pivots)]
        out += [([0] * ncols, 1)] * (nrows - len(pivots))
        return _IntRowMatrix(F, nrows, ncols, out), pivots

    @staticmethod
    def matmul(F, A, B):
        cols, den = _common_columns(_int_rows(B), B.cols)
        out = [_reduced([sum(map(mul, nums, col)) for col in cols], d * den)
               for nums, d in _int_rows(A)]
        return _IntRowMatrix(F, A.rows, B.cols, out)

    @staticmethod
    def apply(F, M, vec):
        nums, den = clear_denominators(vec)
        return [_fraction(sum(map(mul, rn, nums)), rd * den) for rn, rd in _int_rows(M)]

    @staticmethod
    def add_row(F, rows, vec, count):
        return _add_int_row(rows, *clear_denominators(vec), count)

    @staticmethod
    def algebra_mul(F, A, x, y):
        xn, xd = clear_denominators(x)
        yn, yd = clear_denominators(y)
        den = A.int_table()[1] * xd * yd
        return [_fraction(s, den) for s in _int_algebra_mul(A, xn, yn)]

    @staticmethod
    def mult_matrix(F, A, x):
        xn, xd = clear_denominators(x)
        den = A.int_table()[1] * xd
        return _IntRowMatrix(F, A.dim, A.dim, [(row, den) for row in _int_mult_matrix(A, xn)])

    @staticmethod
    def basis_products(F, A, B, C):
        """_basis_products on the integer rows of B and C."""
        d = A.int_table()[1]
        prods = [(_int_algebra_mul(A, u, v), d * e * f) for u, e in _int_rows(B) for v, f in _int_rows(C)]
        return _IntRowMatrix(F, len(prods), A.dim, prods).transpose()

    @staticmethod
    def eval_poly(F, A, poly, x):
        """Horner on integer numerators over one denominator, x and the unit cleared once."""
        xn, xd = clear_denominators(x)
        un, ud = clear_denominators(A.unit)
        step = A.int_table()[1] * xd
        nums, den = [0] * A.dim, 1
        for c in reversed(poly.coeffs):
            prod, den, cd = _int_algebra_mul(A, nums, xn), den * step, c.denominator * ud
            t = lcm(den, cd)
            f, g = t // den, c.numerator * (t // cd)
            nums, den = _reduced([a * f + g * u for a, u in zip(prod, un)], t)
        return [_fraction(a, den) for a in nums]

    @staticmethod
    def min_poly_powers(F, A, x):
        """The powers of x as integer numerators over one denominator: x is
        cleared once, each power goes to the reducer as it is, and the
        powers are returned on those integer rows."""
        xn, xd = clear_denominators(x)
        step = A.int_table()[1] * xd
        rows, powers = [], []
        nums, den = clear_denominators(A.unit)
        while True:
            combo = _add_int_row(rows, nums, den, len(powers))
            if combo is not None:
                return combo, _IntRowMatrix(F, len(powers), A.dim, powers)
            powers.append((nums, den))
            nums = _int_algebra_mul(A, nums, xn)
            den *= step
            g = gcd(den, *nums)
            if g > 1:
                nums, den = [a // g for a in nums], den // g

    @staticmethod
    def lift_idempotent(F, A, a, steps):
        """On integer numerators e over one denominator D: e^2 is s / (D^2 d)
        and e^3 is c / (D^3 d^2) over the int_table's d, and whether
        (a - e)^dim is 0 does not depend on the scale of a - e."""
        d = A.int_table()[1]
        an, ad = clear_denominators(a)
        e, den = an, ad
        for _ in range(steps):
            square = _int_algebra_mul(A, e, e)
            step = den * d
            if square == [x * step for x in e]:
                diff = [x * den - y * ad for x, y in zip(an, e)]  # (a - e) ad D
                return None if any(_int_power(A, diff, A.dim)) else [_fraction(x, den) for x in e]
            cube = _int_algebra_mul(A, square, e)
            e = [3 * s * step - 2 * c for s, c in zip(square, cube)]
            den *= step * step
            g = gcd(den, *e)
            if g > 1:
                e, den = [x // g for x in e], den // g
        return None

    sparse_rref = staticmethod(_FieldMethods.sparse_rref)
    pivots = staticmethod(_nonzero_pivots)

    @staticmethod
    def coordinates(F, M, pivots, vec):
        """As over F_p, with vec and the combination compared on integers
        over one common denominator."""
        coords = [vec[j] for j in pivots]
        terms = [(c, row) for c, row in zip(coords, _int_rows(M)) if c]
        nums, den = clear_denominators(vec)
        scale = lcm(den, *(c.denominator * rd for c, (_, rd) in terms))
        v = [a * (scale // den) for a in nums]
        for c, (rn, rd) in terms:
            f = c.numerator * (scale // (c.denominator * rd))
            v = [a - f * b for a, b in zip(v, rn)]
        return None if any(v) else coords

    @staticmethod
    def cleared(F, vec):
        """The numerators over the lcm of the denominators."""
        pairs = [(i, a) for i, a in enumerate(vec) if a]
        den = lcm(*[a.denominator for _, a in pairs])
        return [(i, a.numerator * (den // a.denominator)) for i, a in pairs], den

    @staticmethod
    def contract(F, terms, scale=1):
        """On integers: the sides of a check are compared cross-multiplied
        by each other's scale, and no Fraction is built."""
        return {key: s * scale for key, s in _int_contract(terms).items() if s}


def _add_int_row(rows, nums, den, count):
    """_FieldMethods.add_row over integer rows of (vector + combo, pivot),
    each standing for its rational multiples, for the vector nums / den."""
    n = len(nums)
    w = nums + [0] * count + [den]
    for row, pivot in rows:
        c = w[pivot]
        if c:
            pv = row[pivot]
            w = [pv * a - c * b for a, b in zip(w, row)] + [pv * a for a in w[len(row):]]
            g = gcd(*w)
            if g > 1:
                w = [a // g for a in w]
    for j in range(n):
        if w[j]:
            break
    else:
        return [Fraction(a, w[-1]) for a in w[n:]]
    rows.append((w, j))
    return None


def _int_contract(terms):
    """The integer sums of a * b per key over the (key, a, b) of terms."""
    acc = {}
    for key, a, b in terms:
        acc[key] = acc.get(key, 0) + a * b
    return acc


def _int_algebra_mul(A, x, y):
    """Numerators of x * y over A.int_table() for integer coordinates."""
    out = [0] * A.dim
    for a, row in zip(x, A.int_table()[0]):
        if a:
            for b, terms in zip(y, row):
                if b:
                    c = a * b
                    for i, t in terms:
                        out[i] += c * t
    return out


def _int_power(A, x, m):
    """Numerators of x^m, m >= 1, up to a nonzero scale, for integer
    coordinates x."""
    out = x
    for bit in bin(m)[3:]:
        out = _int_algebra_mul(A, out, out)
        if bit == "1":
            out = _int_algebra_mul(A, out, x)
    return out


def _int_mult_matrix(A, x):
    """Numerator rows of the matrix of multiplication by x over
    A.int_table(), for integer coordinates x, filled in one pass."""
    n = A.dim
    out = [[0] * n for _ in range(n)]
    for a, row in zip(x, A.int_table()[0]):
        if a:
            for k, terms in enumerate(row):
                for i, t in terms:
                    out[i][k] += a * t
    return out


_ROW_KERNELS = {"Fp": _PrimeKernel, "Q": _RationalKernel}


def row_kernel(F):
    return _ROW_KERNELS.get(F.kind, _FieldMethods)

class Subspace:
    """A subspace of k^n held as a canonical RREF basis (rows)."""

    __slots__ = ("field", "ambient", "basis", "_pivots", "_hash")

    def __init__(self, field, ambient, basis):
        self.field = field
        self.ambient = ambient
        self.basis = basis  # Matrix, dim x ambient, already canonical, never written
        self._pivots = self._hash = None

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        return _row_space(Matrix.from_rows(field, vectors, ambient))

    @classmethod
    def from_sparse(cls, field, ambient, vectors):
        """from_vectors for vectors given as {index: value} maps of their
        nonzero entries; the basis is the same."""
        rows = row_kernel(field).sparse_rref(field, ambient, vectors)
        basis = _dense_rows(field.zero, ambient, rows)
        return cls(field, ambient, Matrix(field, len(basis), ambient, basis))

    @classmethod
    def zero(cls, field, ambient):
        return cls(field, ambient, _stack(field, ambient, []))

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
        """The leading column of each basis row, scanned once and kept."""
        if self._pivots is None:
            self._pivots = row_kernel(self.field).pivots(self.field, self.basis)
        return self._pivots

    def coordinates(self, vec):
        """Coefficients of vec over the basis rows, or None if outside."""
        return row_kernel(self.field).coordinates(self.field, self.basis, self.pivots(), vec)

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
        ker = At.hstack((-other.basis).transpose()).kernel()
        # a kernel vector (x, y) has A^T x = B^T y, in both subspaces
        return (At @ _block(ker.basis, range(ker.dim), range(self.dim)).transpose()).column_space()

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field == other.field
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        """Computed once, from the ambient dimension and the rows only: the
        hash of an int, a Fraction or a tuple of them is the same in every
        process, that of a field (a string in it) is not, so a pickled
        Subspace keeps a valid hash under another PYTHONHASHSEED."""
        if self._hash is None:
            self._hash = hash((self.ambient, tuple(tuple(r) for r in self.basis.data)))
        return self._hash

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
    if row_kernel(F) is _RationalKernel:
        brows = _int_rows(B)
        rows = [([x * y for x in a for y in b], d * e) for a, d in _int_rows(A) for b, e in brows]
        return _IntRowMatrix(F, A.rows * B.rows, A.cols * B.cols, rows)
    rows = [[F.zero] * (A.cols * B.cols) for _ in range(A.rows * B.rows)]
    for i in range(A.rows):
        for k in range(A.cols):
            a = A.data[i][k]
            if F.is_zero(a):
                continue
            for j in range(B.rows):
                brow = B.data[j]
                orow = rows[i * B.rows + j]
                base = k * B.cols
                for l in range(B.cols):
                    b = brow[l]
                    if not F.is_zero(b):
                        orow[base + l] = F.mul(a, b)
    return Matrix(F, A.rows * B.rows, A.cols * B.cols, rows)


def tensor_swap(field, m, n):
    """Permutation matrix k^m (x) k^n -> k^n (x) k^m, e_i(x)e_j -> e_j(x)e_i."""
    entries = [(j * m + i, i * n + j, field.one) for i in range(m) for j in range(n)]
    return Matrix.from_entries(field, m * n, m * n, entries)


def quotient_maps(sub):
    """Projection q and section s for k^n -> k^n / sub.

    q is (n-r) x n with kernel exactly sub, s is n x (n-r) with q @ s = I;
    the quotient coordinates are the non-pivot coordinates of the subspace
    basis, which makes the construction canonical.
    """
    F, n, pivots = sub.field, sub.ambient, sub.pivots()
    free = _free(n, pivots)
    s = Matrix.from_entries(F, n, len(free), [(j, i, F.one) for i, j in enumerate(free)])
    return _null_rows(sub.basis, pivots), s


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


def minimal_polynomial(T):
    """Monic least-degree annihilating polynomial of a square matrix."""
    if T.rows != T.cols:
        raise ShapeMismatch("minimal polynomial of a non-square matrix")
    F = T.field
    n = T.rows
    if n == 0:
        return Polynomial.one(F)
    add_row = row_kernel(F).add_row
    rows = []
    power = Matrix.identity(F, n)
    while True:
        # len(rows) vectors are in: each independent one adds a row
        combo = add_row(F, rows, [a for row in power.data for a in row], len(rows))
        if combo is not None:
            return Polynomial(F, combo)
        power = power @ T
