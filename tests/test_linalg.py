import ast
import copy
import itertools
import pathlib
import pickle
import random

import pytest
from fractions import Fraction

from coalgkit import linalg
from coalgkit.errors import AmbientMismatch
from coalgkit.fields import GF, QQ
from coalgkit.linalg import (
    Matrix,
    Subspace,
    coequalizer,
    kernel,
    kronecker,
    minimal_polynomial,
    quotient_maps,
    rref,
    subspace_ops,
    tensor_swap,
)
from coalgkit.polys import Polynomial

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)
F4 = GF(2, [1, 1, 1])
FIELDS = [QQ, F2, F3, F5]


def rand_matrix(rng, field, rows, cols):
    return Matrix(
        field, rows, cols, [[field.random(rng) for _ in range(cols)] for _ in range(rows)]
    )


def test_rref_examples():
    Z = Matrix.zeros(QQ, 2, 2)
    R, rank = rref(Z)
    assert R == Z and rank == 0

    M = Matrix.from_rows(QQ, [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]])
    R, rank = rref(M)
    assert rank == 1
    assert R.data == [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(0)]]


def test_rref_invertible_det_oracle():
    rng = random.Random(4)
    found = 0
    while found < 12:
        M = rand_matrix(rng, F3, 5, 5)
        if F3.is_zero(M.det()):  # cofactor-expansion oracle
            continue
        R, rank = rref(M)
        assert rank == 5 and R == Matrix.identity(F3, 5)
        found += 1


def test_rref_idempotent():
    rng = random.Random(5)
    for field in FIELDS:
        for _ in range(60):
            M = rand_matrix(rng, field, rng.randint(1, 5), rng.randint(1, 5))
            R, _ = rref(M)
            R2, _ = rref(R)
            assert R2 == R


def test_kernel_examples():
    assert kernel(Matrix.identity(F5, 4)).dim == 0
    K = kernel(Matrix.from_int_rows(F2, [[1, 1]]))
    assert K.vectors() == [[1, 1]]


def test_kernel_rank3_rational():
    # a 4x6 rational matrix of rank exactly 3 has a 3-dimensional kernel
    rng = random.Random(3)
    while True:
        rows = [[QQ.random(rng) for _ in range(6)] for _ in range(3)]
        base = Matrix.from_rows(QQ, rows, 6)
        if base.rank() == 3:
            break
    mix = [QQ.random(rng) for _ in range(3)]
    fourth = [
        sum((mix[i] * rows[i][j] for i in range(3)), start=QQ.zero)
        for j in range(6)
    ]
    M = Matrix.from_rows(QQ, rows + [fourth], 6)
    assert M.rank() == 3
    K = kernel(M)
    assert K.dim == 3
    for v in K.vectors():
        assert all(QQ.is_zero(c) for c in M.apply(v))


def test_rank_nullity():
    rng = random.Random(6)
    for field in FIELDS:
        for _ in range(250):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            M = rand_matrix(rng, field, rows, cols)
            K = kernel(M)
            assert K.dim + M.rank() == cols
            for v in K.vectors():
                assert all(field.is_zero(c) for c in M.apply(v))


def test_subspace_examples():
    A = Subspace.from_vectors(F2, 3, [[1, 0, 0], [0, 1, 0]])
    Z = Subspace.zero(F2, 3)
    assert subspace_ops(A, Z, "sum") == A
    e1 = Subspace.from_vectors(QQ, 2, [[Fraction(1), Fraction(0)]])
    e2 = Subspace.from_vectors(QQ, 2, [[Fraction(0), Fraction(1)]])
    assert subspace_ops(e1, e2, "intersect").dim == 0
    assert subspace_ops(A, Subspace.from_vectors(F2, 3, [[1, 1, 0]]), "contains")
    assert subspace_ops(A, [1, 1, 0], "member")
    with pytest.raises(AmbientMismatch):
        A.sum(Subspace.zero(F2, 4))


def test_subspace_canonical_form():
    rng = random.Random(7)
    for _ in range(100):
        vecs = [[F3.random(rng) for _ in range(4)] for _ in range(3)]
        A = Subspace.from_vectors(F3, 4, vecs)
        shuffled = list(vecs)
        rng.shuffle(shuffled)
        scaled = [[F3.mul(2, c) for c in v] for v in shuffled]
        B = Subspace.from_vectors(F3, 4, scaled + vecs)
        assert A.contains(B) and B.contains(A)
        assert A.basis == B.basis  # identical canonical representation


def test_modular_law_with_enumeration_oracle():
    """dim A + dim B = dim(A+B) + dim(A^B) on 500 random pairs, ambient 6 over
    F_2, with the intersection double-checked by exhaustive enumeration."""
    rng = random.Random(8)
    all_vectors = list(itertools.product([0, 1], repeat=6))
    for trial in range(500):
        A = Subspace.from_vectors(
            F2, 6, [[F2.random(rng) for _ in range(6)] for _ in range(rng.randint(1, 4))]
        )
        B = Subspace.from_vectors(
            F2, 6, [[F2.random(rng) for _ in range(6)] for _ in range(rng.randint(1, 4))]
        )
        S = A.sum(B)
        I = A.intersect(B)
        assert A.dim + B.dim == S.dim + I.dim
        if trial % 25 == 0:
            members = [
                list(v)
                for v in all_vectors
                if A.contains_vector(list(v)) and B.contains_vector(list(v))
            ]
            expected = Subspace.from_vectors(F2, 6, members)
            assert expected == I


def test_kronecker_examples():
    assert kronecker(Matrix.identity(QQ, 2), Matrix.identity(QQ, 3)) == Matrix.identity(QQ, 6)
    rng = random.Random(9)
    for _ in range(30):
        A = rand_matrix(rng, F5, 3, 3)
        B = rand_matrix(rng, F5, 3, 3)
        u = [F5.random(rng) for _ in range(3)]
        v = [F5.random(rng) for _ in range(3)]
        uv = [F5.mul(a, b) for a in u for b in v]
        lhs = kronecker(A, B).apply(uv)
        Au, Bv = A.apply(u), B.apply(v)
        rhs = [F5.mul(a, b) for a in Au for b in Bv]
        assert lhs == rhs


def test_tensor_swap():
    rng = random.Random(10)
    tau = tensor_swap(F5, 2, 2)
    u = [F5.random(rng) for _ in range(2)]
    v = [F5.random(rng) for _ in range(2)]
    uv = [F5.mul(a, b) for a in u for b in v]
    vu = [F5.mul(a, b) for a in v for b in u]
    assert tau.apply(uv) == vu


def test_kronecker_clears_each_row_of_a_plain_factor_once(monkeypatch):
    """Over Q, kronecker clears the rows of plain factors once each: A.rows +
    B.rows clear_denominators calls, not A.rows + A.rows * B.rows."""
    rng = random.Random(1228)
    A = Matrix(QQ, 4, 2, [[QQ.random(rng) for _ in range(2)] for _ in range(4)])
    B = Matrix(QQ, 3, 3, [[QQ.random(rng) for _ in range(3)] for _ in range(3)])
    calls = []
    clear = linalg.clear_denominators

    def counting(vec):
        calls.append(vec)
        return clear(vec)

    monkeypatch.setattr(linalg, "clear_denominators", counting)
    K = kronecker(A, B)
    assert len(calls) == A.rows + B.rows == 7
    monkeypatch.undo()
    assert K.data == [[QQ.mul(a, b) for a in A.data[i] for b in B.data[j]] for i in range(4) for j in range(3)]


def test_kronecker_associative():
    rng = random.Random(11)
    A = rand_matrix(rng, F3, 2, 3)
    B = rand_matrix(rng, F3, 2, 2)
    C = rand_matrix(rng, F3, 3, 2)
    assert kronecker(kronecker(A, B), C) == kronecker(A, kronecker(B, C))


def test_coequalizer_examples():
    rng = random.Random(12)
    f = rand_matrix(rng, F5, 4, 3)
    coeq = coequalizer(f, f)
    assert coeq.dim == 4 and coeq.projection == Matrix.identity(F5, 4)

    # f - g surjective -> dim 0
    f = Matrix.identity(F5, 3)
    g = Matrix.zeros(F5, 3, 3)
    assert coequalizer(f, g).dim == 0

    for field in FIELDS:
        for _ in range(40):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            f = rand_matrix(rng, field, rows, cols)
            g = rand_matrix(rng, field, rows, cols)
            coeq = coequalizer(f, g)
            h = f - g
            assert coeq.dim + h.rank() == rows
            assert (coeq.projection @ h).is_zero()
            assert coeq.projection.rank() == coeq.dim


def test_coequalizer_universal_property():
    rng = random.Random(13)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        f = rand_matrix(rng, QQ, rows, cols)
        g = rand_matrix(rng, QQ, rows, cols)
        coeq = coequalizer(f, g)
        u = rand_matrix(rng, QQ, 3, coeq.dim)
        h = u @ coeq.projection  # a cone: h(f - g) = 0
        recovered = coeq.factor(h)
        assert recovered == u  # uniqueness: projection is surjective


def test_quotient_maps():
    S = Subspace.from_vectors(F2, 4, [[1, 0, 1, 0], [0, 1, 1, 1]])
    q, s = quotient_maps(S)
    assert q.rows == 2 and (q @ s) == Matrix.identity(F2, 2)
    for v in S.vectors():
        assert all(F2.is_zero(c) for c in q.apply(v))


def test_minimal_polynomial_examples():
    assert minimal_polynomial(Matrix.identity(QQ, 3)) == Polynomial.from_ints(QQ, [-1, 1])
    J = Matrix.from_int_rows(F3, [[0, 0], [1, 0]])
    assert minimal_polynomial(J) == Polynomial.from_ints(F3, [0, 0, 1])
    C = Matrix.from_int_rows(F2, [[0, 1], [1, 1]])
    m = minimal_polynomial(C)
    assert m == Polynomial.from_ints(F2, [1, 1, 1])
    # direct matrix substitution oracle
    acc = Matrix.zeros(F2, 2, 2)
    power = Matrix.identity(F2, 2)
    for c in m.coeffs:
        acc = acc + power.scale(c)
        power = power @ C
    assert acc.is_zero()


def test_minimal_polynomial_divides_characteristic_and_is_minimal():
    rng = random.Random(14)
    for _ in range(40):
        T = rand_matrix(rng, F2, 3, 3)
        m = minimal_polynomial(T)
        # m(T) = 0
        acc = Matrix.zeros(F2, 3, 3)
        power = Matrix.identity(F2, 3)
        for c in m.coeffs:
            acc = acc + power.scale(c)
            power = power @ T
        assert acc.is_zero()
        # no proper monic divisor annihilates T: divide out each factor once
        from coalgkit.factor import factor_polynomial

        _, factors = factor_polynomial(m)
        for g, _ in factors:
            q = m // g
            acc = Matrix.zeros(F2, 3, 3)
            power = Matrix.identity(F2, 3)
            for c in q.coeffs:
                acc = acc + power.scale(c)
                power = power @ T
            assert not acc.is_zero()


def test_bareiss_against_plain_gauss_jordan():
    """Row reduction agrees with a dense Gauss-Jordan oracle on the field's
    own methods: the fraction-free Q kernel on mid-size rational matrices,
    and the F_q reduction (the sparse one, written out dense) on F_4 and
    F_9 matrices, all with planted row dependencies."""
    rng = random.Random(888)

    def plain_rref(F, rows_in):
        rows = [list(r) for r in rows_in]
        nr, nc = len(rows), len(rows[0])
        piv = []
        r = 0
        for c in range(nc):
            pr = next((i for i in range(r, nr) if not F.is_zero(rows[i][c])), None)
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            inv = F.inv(rows[r][c])
            rows[r] = [F.mul(inv, a) for a in rows[r]]
            for i in range(nr):
                if i != r and not F.is_zero(rows[i][c]):
                    f = rows[i][c]
                    rows[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(rows[i], rows[r])]
            piv.append(c)
            r += 1
            if r == nr:
                break
        return rows, piv

    def check(F, data):
        M = Matrix(F, len(data), len(data[0]), [list(r) for r in data])
        R, rank, pivots = M.rref()
        oracle_rows, oracle_piv = plain_rref(F, data)
        assert pivots == oracle_piv
        assert R.data[: len(pivots)] == oracle_rows[: len(oracle_piv)]
        assert all(F.is_zero(a) for row in R.data[rank:] for a in row)
        return rank

    for trial in range(6):
        nr, nc = rng.randint(10, 24), rng.randint(10, 24)
        data = [
            [Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(nc)]
            for _ in range(nr)
        ]
        for _ in range(rng.randint(0, 4)):
            i, j = rng.randrange(nr), rng.randrange(nr)
            c = Fraction(rng.randint(-3, 3))
            data[i] = [a + c * b for a, b in zip(data[i], data[j])]
        check(QQ, data)
    deficient = 0
    for F in (GF(2, [1, 1, 1]), GF(3, [1, 0, 1])):
        for trial in range(12):
            nr, nc = rng.randint(2, 16), rng.randint(2, 16)
            # every row a combination of at most `rank` seeded rows
            rank = rng.randint(1, min(nr, nc))
            base = [[F.random(rng) for _ in range(nc)] for _ in range(rank)]
            data = []
            for _ in range(nr):
                row = [F.zero] * nc
                for b in base:
                    c = F.random(rng)
                    row = [F.add(x, F.mul(c, y)) for x, y in zip(row, b)]
                data.append(row)
            deficient += check(F, data) < min(nr, nc)
    assert deficient >= 12


# -- per-field row kernels ---------------------------------------------------

KERNEL_FIELDS = [GF(2), GF(3), GF(5), GF(2**31 - 1), QQ]


def _sparse_matrix(rng, field, rows, cols):
    """A seeded matrix that is sparse, usually rank-deficient, and often has
    zero rows and zero columns."""
    density = rng.choice([0.15, 0.4, 1.0])
    data = [
        [field.random(rng) if rng.random() < density else field.zero for _ in range(cols)]
        for _ in range(rows)
    ]
    for _ in range(rng.randint(0, rows)):  # planted row dependencies
        i, j = rng.randrange(rows), rng.randrange(rows)
        c = field.random(rng)
        data[i] = [field.add(a, field.mul(c, b)) for a, b in zip(data[i], data[j])]
    if rows and cols and rng.random() < 0.5:
        data[rng.randrange(rows)] = [field.zero] * cols
        j = rng.randrange(cols)
        for row in data:
            row[j] = field.zero
    return Matrix(field, rows, cols, data)


def _kernel_outputs(rng, field):
    """repr of rref/kernel/@/apply/solve_matrix/solve/inverse/column_space/
    transpose/hstack/kronecker/==, ArtinAlgebra.mul/mult_matrix/eval_poly,
    the products of two bases in an algebra, minimal_polynomial and Subspace
    pivots/coordinates results on seeded inputs, and every entry they hold."""
    from coalgkit.coalgebra import ArtinAlgebra

    outs, entries = [], []
    shapes = [(0, 4), (4, 0), (0, 0), (1, 1), (30, 12), (12, 30)]
    shapes += [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(30)]
    for rows, cols in shapes:
        M = _sparse_matrix(rng, field, rows, cols)
        N = _sparse_matrix(rng, field, cols, rng.randint(0, 7))
        vec = _sparse_matrix(rng, field, 1, cols).data[0] if cols else []
        R, rank, pivots = M.rref()
        K = M.kernel()
        P = M @ N
        image = M.apply(vec)
        B = _sparse_matrix(rng, field, rows, 2)
        solved = [M.solve_matrix(X) for X in (B, M @ _sparse_matrix(rng, field, cols, 2))]
        solved += [R.solve_matrix(P) if P.cols else None, (R @ M.transpose()).inverse()]
        solved = [X for X in solved if X is not None]
        built = [M.column_space().basis, M.transpose(), P.transpose(), M.hstack(R), R.hstack(P),
                 kronecker(M, R), kronecker(P, N)] + solved
        sols = [M.solve(B.col(0)) if rows else None, R.solve(image)]
        same = [M == R, R == R.rref()[0], P == M @ N, P.transpose() == N.transpose() @ M.transpose()]
        outs.append(repr((R.data, rank, pivots, K.basis.data, P.data, image, sols, same)))
        outs += [repr(X.data) for X in built]
        entries += [a for m in [R, K.basis, P] + built for row in m.data for a in row] + image
        entries += [a for v in sols if v is not None for a in v]
    for n in (1, 2, 3, 5, 6):
        A = ArtinAlgebra(field, n, _sparse_matrix(rng, field, n, n * n), [field.one] * n)
        x, y = (_sparse_matrix(rng, field, 1, n).data[0] for _ in range(2))
        pairs = [(x, y), (y, x), (A.unit, x)] + [(x, e) for e in Matrix.identity(field, n).data]
        for u, v in pairs:
            product = A.mul(u, v)
            outs.append(repr(product))
            entries += product
        for u in (x, y, A.unit, [field.zero] * n):
            L = A.mult_matrix(u)
            outs.append(repr(L.data))
            entries += [a for row in L.data for a in row]
            value = A.eval_poly(Polynomial(field, [field.random(rng) for _ in range(n)]), u)
            outs.append(repr(value))
            entries += value
        B = Subspace.from_vectors(field, n, [x, y]).basis
        products = linalg.row_kernel(field).basis_products(field, A, B, Matrix.from_rows(field, [y, A.unit]))
        outs.append(repr(products.data))
        entries += [a for row in products.data for a in row]
        T = _sparse_matrix(rng, field, n, n)
        outs.append(repr(minimal_polynomial(T).coeffs))
        entries += minimal_polynomial(T).coeffs
    for rows, cols in [(0, 3), (3, 0), (1, 1), (20, 9)] + shapes[6:]:
        M = _sparse_matrix(rng, field, rows, cols)
        outs += _subspace_outputs(rng, field, M, entries)
    return outs, entries


def _subspace_outputs(rng, field, M, entries):
    """repr of pivots and coordinates on the row space of M, the zero
    subspace and the full space, for a vector inside the row space, one
    outside it (when it is proper) and a random one."""
    S = Subspace.from_vectors(field, M.cols, M.data)
    inside = [field.zero] * M.cols
    for v in S.vectors():
        c = field.random(rng)
        inside = [field.add(a, field.mul(c, b)) for a, b in zip(inside, v)]
    free = [j for j in range(M.cols) if j not in S.pivots()]
    outside = list(inside)
    if free:
        j = rng.choice(free)
        outside[j] = field.add(outside[j], field.one)
    other = _sparse_matrix(rng, field, 1, M.cols).data[0] if M.cols else []
    assert S.coordinates(inside) is not None
    assert (S.coordinates(outside) is None) == bool(free)
    outs = []
    zero, full = Subspace.zero(field, M.cols), Subspace.full(field, M.cols)
    assert zero.coordinates(outside) is None or not any(outside)
    assert full.coordinates(other) == other
    for space in (S, zero, full):
        coords = [space.coordinates(v) for v in (inside, outside, other)]
        outs.append(repr((space.pivots(), coords)))
        entries += [a for c in coords if c is not None for a in c]
    return outs


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_row_kernels_match_field_methods(monkeypatch, field):
    """The F_p and Q kernels return byte-identical results to the reference
    path that runs every entry through the field's own methods, including
    Subspace.coordinates returning None outside the span."""
    from coalgkit import linalg

    assert linalg.row_kernel(field) is not linalg._FieldMethods
    fast, entries = _kernel_outputs(random.Random(2024), field)
    monkeypatch.setattr(linalg, "_ROW_KERNELS", {})
    assert linalg.row_kernel(field) is linalg._FieldMethods
    reference, _ = _kernel_outputs(random.Random(2024), field)
    assert fast == reference
    if field == QQ:
        assert all(type(a) is Fraction for a in entries)
    else:
        assert all(type(a) is int and 0 <= a < field.p for a in entries)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_rank_and_rref_against_sympy(field):
    sympy = pytest.importorskip(
        "sympy", reason="sympy is not installed: rank/rref cross-check against sympy skipped")
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(77)
    for _ in range(25):
        M = _sparse_matrix(rng, field, rng.randint(1, 10), rng.randint(1, 10))
        R, rank, pivots = M.rref()
        if field == QQ:
            S = sympy.Matrix([[sympy.Rational(a.numerator, a.denominator) for a in row]
                              for row in M.data])
            SR, spivots = S.rref()
            want = [[Fraction(int(e.p), int(e.q)) for e in SR.row(i)] for i in range(S.rows)]
            assert S.rank() == rank
        else:
            K = sympy.GF(field.p)
            D = DomainMatrix([[K(a) for a in row] for row in M.data], (M.rows, M.cols), K)
            SR, spivots = D.rref()
            want = [[int(e) % field.p for e in row] for row in SR.to_list()]
            assert D.rank() == rank
        assert list(spivots) == pivots
        assert R.data == want


@pytest.mark.parametrize("field", [QQ, F2, F3, F5], ids=repr)
def test_minimal_polynomial_against_sympy(field):
    """sympy's characteristic polynomial, with each irreducible factor
    divided out while the quotient still annihilates the matrix, is the
    minimal polynomial."""
    sympy = pytest.importorskip(
        "sympy", reason="sympy is not installed: minimal polynomial cross-check against sympy skipped")
    from sympy.polys.matrices import DomainMatrix

    if field == QQ:
        K = sympy.QQ
        to_sympy = lambda a: K(a.numerator, a.denominator)
        back = lambda c: Fraction(int(c.numerator), int(c.denominator))
    else:
        K = sympy.GF(field.p)
        to_sympy = K
        back = lambda c: int(c) % field.p
    x = sympy.Symbol("x")
    rng = random.Random(91)
    smaller = 0
    for trial in range(24):
        n = rng.randint(1, 6)
        T = _sparse_matrix(rng, field, n, n)
        if trial % 4 == 0:  # block diagonal diag(T, T): degree below the size
            T = kronecker(Matrix.identity(field, 2), T)
        n = T.rows
        D = DomainMatrix([[to_sympy(a) for a in row] for row in T.data], (n, n), K)
        P = sympy.Poly.from_list(D.charpoly(), x, domain=K)
        for g, _ in P.factor_list()[1]:
            while True:
                q, r = P.div(g.monic())
                if not r.is_zero or not D.eval_poly([K.convert(c) for c in q.all_coeffs()]).is_zero_matrix:
                    break
                P = q
        want = [back(K.convert(c)) for c in reversed(P.all_coeffs())]
        assert list(minimal_polynomial(T).coeffs) == want
        smaller += len(want) - 1 < n
    assert smaller >= 6


# -- Subspace.from_sparse -------------------------------------------------------

SPARSE_FIELDS = KERNEL_FIELDS + [GF(2, [1, 1, 1])]


def _sparse_vectors(rng, field, ambient):
    """Seeded {index: value} maps, with zero maps, explicit zero entries,
    duplicates and nonzero scalar multiples planted among them."""
    vecs = []
    for _ in range(rng.randint(0, 14)):
        kind = rng.random()
        if vecs and kind < 0.15:
            vecs.append(dict(rng.choice(vecs)))
        elif vecs and kind < 0.3:
            c = field.random(rng)
            while field.is_zero(c):
                c = field.random(rng)
            vecs.append({j: field.mul(c, a) for j, a in rng.choice(vecs).items()})
        elif kind < 0.4 or not ambient:
            vecs.append({j: field.zero for j in rng.sample(range(ambient), min(ambient, 2))})
        else:
            density = rng.choice([0.1, 0.3, 1.0])
            vecs.append({j: field.random(rng) for j in range(ambient) if rng.random() < density})
    return vecs


def _stops_at_full_rank(vectors):
    """vectors, then an error if the span reads further."""
    yield from vectors
    raise AssertionError("read past full rank")


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=repr)
def test_from_sparse_matches_from_vectors(field):
    """The same basis, entry for entry and of the same types, as the dense
    RREF of the same vectors."""
    one, zero = field.one, field.zero
    rng = random.Random(31)
    cases = [(0, []), (0, [{}, {}]), (3, []), (3, [{}, {1: zero}])]
    for n in range(1, 6):
        # rank n after n vectors, the first leading at the last index
        cases.append((n, [{j: one} for j in reversed(range(n))] + [{0: one, n - 1: one}]))
        cases.append((n, [{j: one, n - 1: one} for j in range(n)] + [{0: one}]))
    cases += [(n, _sparse_vectors(rng, field, n)) for n in [0, 1, 2] + list(range(1, 15)) * 6]
    full = 0
    for ambient, vecs in cases:
        dense = [[v.get(j, zero) for j in range(ambient)] for v in vecs]
        want = Subspace.from_vectors(field, ambient, dense)
        got = Subspace.from_sparse(field, ambient, vecs)
        assert got == want, (ambient, vecs)
        # the sparse rows are keyed by the pivots of the dense basis
        assert sorted(linalg.row_kernel(field).sparse_rref(field, ambient, vecs)) == got.pivots()
        assert [[type(a) for a in r] for r in got.basis.data] == \
               [[type(a) for a in r] for r in want.basis.data]
        if want.dim == ambient > 0:
            full += 1
            # the span reads no vector once its rank is the ambient dimension
            reached = next(i for i in range(len(vecs) + 1)
                           if Subspace.from_vectors(field, ambient, dense[:i]).dim == ambient)
            assert Subspace.from_sparse(field, ambient, _stops_at_full_rank(vecs[:reached])) == want
    assert full > 12


@pytest.mark.parametrize("field", [QQ, F3, GF(2, [1, 1, 1])], ids=repr)
def test_from_entries_matches_the_dense_build(field):
    """Values at one position are summed and every other entry is zero: the
    result equals, entry for entry and of the same types, the matrix built
    by Matrix.zeros and field.add, and a sum that cancels reads as zero."""
    rng = random.Random(43)
    shapes = [(0, 0, 0), (0, 4, 0), (4, 0, 0), (3, 3, 0)]
    shapes += [(rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 20)) for _ in range(40)]
    zero = Matrix.zeros(field, 1, 1).data[0][0]
    cancelled = 0
    for rows, cols, count in shapes:
        entries = []
        for _ in range(count):
            i, j, v = rng.randrange(rows), rng.randrange(cols), field.random(rng)
            entries.append((i, j, v))
            if rng.random() < 0.3:
                entries.append((i, j, field.neg(v)))
        rng.shuffle(entries)
        dense = Matrix.zeros(field, rows, cols)
        for i, j, v in entries:
            dense.data[i][j] = field.add(dense.data[i][j], v)
        built = Matrix.from_entries(field, rows, cols, entries)
        assert (built.rows, built.cols, len(built.data)) == (rows, cols, rows)
        assert built == dense and hash(built) == hash(dense)
        assert [[type(a) for a in r] for r in built.data] == \
               [[type(a) for a in r] for r in dense.data]
        touched = {(i, j) for i, j, _ in entries}
        for i in range(rows):
            for j in range(cols):
                if (i, j) not in touched:
                    assert built.data[i][j] is field.zero
                elif field.is_zero(dense.data[i][j]):
                    cancelled += 1
                    assert built.data[i][j] == zero
    assert cancelled >= 5


def _data_writes(tree, attr="data"):
    """Line numbers of the assignments in tree that write into a subscript
    of an attribute named attr (`.data` by default) or rebind one."""

    def writes(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(writes(t) for t in target.elts)
        if isinstance(target, ast.Starred):
            return writes(target.value)
        while isinstance(target, ast.Subscript):
            target = target.value
        return isinstance(target, ast.Attribute) and target.attr == attr

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(writes(t) for t in targets):
            lines.append(node.lineno)
    return lines


def test_data_writes_are_detected():
    source = "\n".join([
        "M.data[0][1] = v",
        "M.data[i] += [v]",
        "a, M.data[0][0] = 1, 2",
        "M.data = []",
        "x: int = M.data[0][0]",
        "row = M.data[0]",
        "data[0][0] = v",
        "M.other[0] = v",
        "M.ints[0] = (nums, den)",
    ])
    assert _data_writes(ast.parse(source)) == [1, 2, 3, 4]
    assert _data_writes(ast.parse(source), "ints") == [9]


def test_only_linalg_writes_matrix_entries():
    """A matrix is built by a constructor and never written afterwards: no
    kernel module but linalg assigns into a Matrix's data or the integer
    rows of a Q kernel result."""
    package = pathlib.Path(linalg.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        if path.name != "linalg.py":
            tree = ast.parse(path.read_text(), str(path))
            lines = _data_writes(tree) + _data_writes(tree, "ints")
            if lines:
                found[path.name] = lines
    assert found == {}


def test_no_assert_statements_in_the_package():
    """A kernel check raises a typed error: `python -O` strips an assert,
    and a failed one would leave the CLI with exit 1 instead of 4."""
    package = pathlib.Path(linalg.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        if lines:
            found[path.name] = lines
    assert found == {}


def test_linalg_writes_matrix_entries_only_in_the_constructor():
    """Inside linalg too, a matrix is filled in local rows and then built:
    the one assignment to a `.data` is the constructor's own, and the one to
    an `.ints` (the integer rows of a Q kernel result) is `_IntRowMatrix`'s."""
    tree = ast.parse(pathlib.Path(linalg.__file__).read_text())

    def init(name):
        cls = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == name)
        return next(node for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "__init__")

    assert len(_data_writes(init("Matrix"))) == 1
    assert _data_writes(tree) == _data_writes(init("Matrix"))
    assert len(_data_writes(init("_IntRowMatrix"), "ints")) == 1
    assert _data_writes(tree, "ints") == _data_writes(init("_IntRowMatrix"), "ints")


def test_rational_kernel_builds_fractions_only_when_data_is_read(monkeypatch):
    """Over Q, rank, the pivots and coordinates of a span and solve_matrix
    run on integer rows: none of them builds a Fraction, and a solution
    builds its Fractions when its data is first read."""
    rng = random.Random(707)
    M = _sparse_matrix(rng, QQ, 6, 8)
    X = _sparse_matrix(rng, QQ, 8, 3)
    targets = [M @ X, Matrix(QQ, 6, 3, (M @ X).data), _sparse_matrix(rng, QQ, 6, 3)]
    inside = M.transpose().apply([Fraction(k, 3) for k in range(6)])
    outside = _sparse_matrix(rng, QQ, 1, 8).data[0]
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    rank = M.rank()
    S = Subspace.from_vectors(QQ, 8, M.data)
    coords = [S.coordinates(v) for v in (inside, outside)]
    pivots = S.pivots()
    solutions = [M.solve_matrix(B) for B in targets]
    assert built == []
    assert len(pivots) == S.dim == rank and coords[0] is not None
    assert solutions[0] is not None and solutions[0] == solutions[1] and solutions[2] is None
    assert solutions[0].data and built
    monkeypatch.undo()
    assert M @ solutions[0] == targets[0]
    for X in (solutions[0], S.basis, targets[0]):
        assert copy.copy(X) == X == pickle.loads(pickle.dumps(X)) and type(copy.copy(X)) is type(X)


# -- rational matrices: golden digest ------------------------------------------


def _rational_digest():
    """sha256 over the repr (entry types included) of rref (data, rank,
    pivots), rank, kernel, column_space, solve_matrix and solve (inconsistent
    systems included), inverse (singular matrices included), transpose,
    hstack, kronecker, == between equal matrices over different
    denominators, Subspace pivots/coordinates and cleared_columns on seeded
    Q matrices, products and reductions among them; and of the canonical
    JSON of component_of_idempotent and quotient_algebra on the duals of the
    Q corpus."""
    import hashlib

    from coalgkit import corpus, jsonio
    from coalgkit.coalgebra import dual_algebra
    from coalgkit.structure import component_of_idempotent, local_decomposition, quotient_algebra, radical

    h = hashlib.sha256()

    def put(*values):
        h.update(repr(values).encode())

    rng = random.Random(2525)
    shapes = [(0, 3), (3, 0), (1, 1), (4, 4), (6, 6), (6, 9), (9, 6)]
    shapes += [(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(40)]
    for rows, cols in shapes:
        M = _sparse_matrix(rng, QQ, rows, cols)
        N = _sparse_matrix(rng, QQ, cols, rng.randint(0, 6))
        B = _sparse_matrix(rng, QQ, rows, rng.randint(1, 3))
        R, rank, pivots = M.rref()
        products = [M @ N, R @ N, M.transpose() @ M]
        put(R.data, rank, pivots, M.rank(), M.kernel().basis.data, M.column_space().basis.data)
        for X in (M, R, products[0]):
            inside = X @ _sparse_matrix(rng, QQ, X.cols, 2)
            rhs = _sparse_matrix(rng, QQ, X.rows, 1).data
            for target in (B if X.rows == B.rows else inside, inside):
                sol = X.solve_matrix(target)
                put(None if sol is None else sol.data)
            vec = [r[0] for r in rhs]
            put(X.solve(vec), X.solve([row[0] for row in inside.data]) if inside.cols else None)
            put(X.transpose().data, X.hstack(X @ Matrix.identity(QQ, X.cols)).data)
            put(X.cleared_columns())
            S = Subspace.from_vectors(QQ, X.cols, X.data)
            for space in (S, X.kernel(), X.transpose().column_space()):
                v = _sparse_matrix(rng, QQ, 1, space.ambient).data[0] if space.ambient else []
                w = space.basis.transpose().apply([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                                   for _ in range(space.dim)])
                put(space.pivots(), space.coordinates(v), space.coordinates(w), space.basis.data)
        for P in products:
            put(P.data, P.cleared_columns(), P.rref()[0].data)
        put(kronecker(M, N).data, kronecker(R, products[0]).data)
        # equal matrices written over different denominators
        half = Matrix.identity(QQ, M.cols).scale(Fraction(1, 2))
        twice = Matrix.identity(QQ, M.cols).scale(2)
        put(M == M @ half @ twice, M @ half == M.scale(Fraction(1, 2)), R == R.rref()[0],
            M @ N == (N.transpose() @ M.transpose()).transpose(), M == M.scale(3), R == M)
    for n in range(1, 7):
        M = corpus.random_invertible(rng, QQ, n)
        singular = Matrix(QQ, n, n, M.data[:-1] + [[a + a for a in M.data[0]] if n > 1 else [QQ.zero]])
        for X in (M, M @ M, singular, singular @ M):
            inv = X.inverse()
            put(None if inv is None else (inv.data, inv.inverse().data))
    for C in corpus.corpus(26, 40, fields=[QQ]):
        A = dual_algebra(C)
        if not A.dim:
            continue
        rad = radical(A)
        Q, q, s = quotient_algebra(A, rad)
        put(jsonio.canonical_json([jsonio.matrix_to_json(X) for X in (Q.mult, q, s)]),
            jsonio.vector_to_json(QQ, Q.unit))
        for e in local_decomposition(A).idempotents:
            comp, E, P = component_of_idempotent(A, e)
            put(jsonio.canonical_json([jsonio.matrix_to_json(X) for X in (comp.mult, E, P)]),
                jsonio.vector_to_json(QQ, comp.unit), comp.mult.cleared_columns())
    return h.hexdigest()


# recorded before Q matrices kept their integer rows between kernel calls
RATIONAL_MATRIX_SHA256 = "2a28e7793feabfed6b4594bdc2faae84f9e6852440dffdf4b396a84a932c14ba"


def test_rational_matrix_golden_digest():
    assert _rational_digest() == RATIONAL_MATRIX_SHA256


# -- Subspace: pivots and hash kept ---------------------------------------------


def test_subspace_scans_its_pivots_once(monkeypatch):
    """coordinates, contains_vector and pivots scan the basis for its pivots
    on first use only, and give what a fresh scan gives."""
    scans = []

    def counting(scan):
        def wrapper(F, M):
            scans.append(F)
            return scan(F, M)
        return staticmethod(wrapper)

    for kernel in (linalg._PrimeKernel, linalg._RationalKernel, linalg._FieldMethods):
        monkeypatch.setattr(kernel, "pivots", counting(kernel.pivots))
    rng = random.Random(808)
    for field in (F2, QQ, F4):
        M = rand_matrix(rng, field, 3, 6)
        S = Subspace.from_vectors(field, 6, M.data)
        scans.clear()
        inside = M.transpose().apply([field.random(rng) for _ in range(3)])
        vecs = [inside, [field.random(rng) for _ in range(6)], list(S.basis.data[0])]
        got = [S.coordinates(v) for v in vecs + vecs] + [S.contains_vector(v) for v in vecs]
        assert S.pivots() is S.pivots()
        assert scans == [field], field
        kernel = linalg.row_kernel(field)
        assert got[:3] == [kernel.coordinates(field, S.basis, kernel.pivots(field, S.basis), v)
                           for v in vecs], field
        assert got[0] is not None and got[:3] == got[3:6]


_HASH_CHILD = """
import pickle, sys
from coalgkit.fields import GF, QQ
from coalgkit.linalg import Subspace

def spaces():
    for field in (GF(2), QQ, GF(2, [1, 1, 1])):
        one, two = field.one, field.add(field.one, field.one)
        yield Subspace.from_vectors(field, 3, [[one, two, field.zero], [field.zero, one, one]])

if sys.argv[1] == "dump":
    spaces = list(spaces())
    for S in spaces:
        hash(S)
    sys.stdout.buffer.write(pickle.dumps(spaces))
else:
    for loaded, fresh in zip(pickle.load(sys.stdin.buffer), spaces()):
        assert loaded == fresh and hash(loaded) == hash(fresh), fresh.field
        assert {fresh: 1}[loaded] == 1 and {loaded: 1}[fresh] == 1, fresh.field
    print("ok")
"""


def test_pickled_subspace_hash_holds_under_another_hash_seed():
    """A Subspace hashed and pickled under PYTHONHASHSEED=0 hashes equal to
    a freshly built equal one, and finds it as a dict key, in a process
    under PYTHONHASHSEED=1, over F_2, Q and F_4: its kept hash reads the
    ambient dimension and the rows only, never the field."""
    import os
    import subprocess
    import sys

    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def child(seed, mode, data=None):
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed)
        return subprocess.run([sys.executable, "-c", _HASH_CHILD, mode], input=data,
                              capture_output=True, env=env, timeout=60, check=True).stdout

    assert child("1", "load", child("0", "dump")) == b"ok\n"
