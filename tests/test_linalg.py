import itertools
import random

import pytest
from fractions import Fraction

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
    """Fraction-free elimination agrees with a dense Fraction oracle on
    mid-size rational matrices with planted row dependencies."""
    rng = random.Random(888)

    def plain_rref(rows_in):
        rows = [list(r) for r in rows_in]
        nr, nc = len(rows), len(rows[0])
        piv = []
        r = 0
        for c in range(nc):
            pr = next((i for i in range(r, nr) if rows[i][c] != 0), None)
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            inv = Fraction(1) / rows[r][c]
            rows[r] = [a * inv for a in rows[r]]
            for i in range(nr):
                if i != r and rows[i][c] != 0:
                    f = rows[i][c]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            piv.append(c)
            r += 1
            if r == nr:
                break
        return rows, piv

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
        M = Matrix(QQ, nr, nc, [list(r) for r in data])
        R, rank, pivots = M.rref()
        oracle_rows, oracle_piv = plain_rref(data)
        assert pivots == oracle_piv
        assert R.data[: len(pivots)] == oracle_rows[: len(oracle_piv)]


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
    """repr of rref/kernel/@/apply/ArtinAlgebra.mul/minimal_polynomial results
    on seeded inputs, and every entry they hold."""
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
        outs.append(repr((R.data, rank, pivots, K.basis.data, P.data, image)))
        entries += [a for m in (R, K.basis, P) for row in m.data for a in row] + image
    for n in (1, 2, 3, 5, 6):
        A = ArtinAlgebra(field, n, _sparse_matrix(rng, field, n, n * n), [field.one] * n)
        x, y = (_sparse_matrix(rng, field, 1, n).data[0] for _ in range(2))
        pairs = [(x, y), (y, x), (A.unit, x)] + [(x, e) for e in Matrix.identity(field, n).data]
        for u, v in pairs:
            product = A.mul(u, v)
            outs.append(repr(product))
            entries += product
        T = _sparse_matrix(rng, field, n, n)
        outs.append(repr(minimal_polynomial(T).coeffs))
        entries += minimal_polynomial(T).coeffs
    return outs, entries


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_row_kernels_match_field_methods(monkeypatch, field):
    """The F_p and Q kernels return byte-identical results to the reference
    path that runs every entry through the field's own methods."""
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
