"""Rational polynomial arithmetic: a golden digest of factoring, gcd,
division and the CRT inverse on a seeded corpus, of the minimal polynomials
and CRT idempotents of the rational structure search, and cross-checks of
the same routines with sympy."""

import hashlib
import random
from fractions import Fraction

import pytest

from coalgkit import corpus, structure
from coalgkit.coalgebra import dual_algebra, dual_coalgebra, polynomial_quotient_algebra
from coalgkit.factor import factor_polynomial
from coalgkit.fields import QQ
from coalgkit.linalg import Matrix
from coalgkit.polys import Polynomial


def _ints(coeffs):
    return Polynomial.from_ints(QQ, coeffs)


def _product(*factors):
    out = Polynomial.one(QQ)
    for f in factors:
        out = out * f
    return out


def _seeded_q_polynomials(rng, count=40):
    """Non-monic rational polynomials of degree 1..7; copies with a large
    content; products with a repeated factor; and inputs on which the first
    odd primes fail: 3, 5, 7 or 11 divides the leading coefficient or the
    discriminant."""
    def draw(lo, hi):
        coeffs = [Fraction(rng.randint(-12, 12), rng.randint(1, 9)) for _ in range(rng.randint(lo, hi))]
        lead = Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 9))
        return Polynomial(QQ, coeffs + [lead])

    polys = [draw(1, 7) for _ in range(count)]
    polys += [p.scale(Fraction(10**12 + 39, 7**9)) for p in polys[:10]]
    for _ in range(10):
        g, h = draw(1, 2), draw(1, 3)
        polys.append(g * g * h)
    x = _ints([0, 1])
    polys += [
        _ints([0, 0, -2, 0, 1]),  # x^2 (x^2 - 2)
        _ints([2, -3, 0, 1]),  # (x - 1)^2 (x + 2)
        _product(_ints([1, 3]), _ints([1, 3]), _ints([2, 1])),  # (3x + 1)^2 (x + 2)
        _product(_ints([1, 0, 3]), _ints([1, 0, 3]), _ints([2, 0, 1])),  # (3x^2 + 1)^2 (x^2 + 2)
        _product(_ints([1, 0, 5]), _ints([1, 0, 5]), _ints([3, 0, 1])),  # (5x^2 + 1)^2 (x^2 + 3)
        _ints([1, 1, 0, 1155]),  # 1155 = 3 5 7 11 divides the leading coefficient
        _ints([7, 0, -1, 0, 0, 1155]),
        _product(x, _ints([-1155, 1]), _ints([2, 0, 1])),  # 1155^2 divides the discriminant
        _product(_ints([1, 1155]), _ints([3, 0, 1]), _ints([5, 1, 1])),
        _product(_ints([-2, 0, 1]), _ints([-2 - 1155**2, 0, 1])),
        _product(_ints([1, 0, 1]), _ints([1 + 2 * 1155, 2 * 1155, 1])),  # x^2 + 1 and (x + 1155)^2 + 1
    ]
    return polys


def _coprime_pairs(polys):
    out = []
    for a, b in zip(polys, polys[1:]):
        if b.degree >= 1 and a.gcd(b).degree == 0:
            out.append((a, b))
    return out


def _q_polynomial_results():
    polys = _seeded_q_polynomials(random.Random(1414))
    results = []
    for f in polys:
        unit, factors = factor_polynomial(f)
        results.append(("factor", f.coeffs, unit, [(g.coeffs, m) for g, m in factors]))
    for a, b in zip(polys, polys[1:]):
        c = polys[(len(a.coeffs) * 7) % len(polys)]
        results.append(("gcd", a.gcd(b).coeffs, (a * c).gcd(b * c).coeffs, a.gcd(a.derivative()).coeffs))
        q, r = a.divmod(b)
        results.append(("divmod", q.coeffs, r.coeffs, (a * b).divmod(b)[0] == a))
    for g, f in _coprime_pairs(polys):
        results.append(("inverse", structure._inverse_mod(g, f).coeffs))
    return results


def _split_results(monkeypatch):
    """Per decomposition of a seed-0 corpus coalgebra over Q, as one algebra
    (`structure._local_block`): every minimal polynomial the search finds,
    its factors, the CRT idempotents eps_f = (u g)(x) and the idempotents
    `split_semisimple` returns."""
    coalgebras = corpus.corpus(0, 30, fields=[QQ])
    coalgebras.append(dual_coalgebra(polynomial_quotient_algebra(QQ, _ints([0, 0, -2, 0, 1]))))
    results = []
    original_min_poly = structure.element_min_poly
    original_split = structure.split_semisimple

    def recording_min_poly(A, x):
        m = original_min_poly(A, x)
        _, factors = factor_polynomial(m)
        P = Matrix.from_cols(QQ, m.basis.data, A.dim)
        crt = []
        for f, _ in factors:
            g = m // f
            c = list((structure._inverse_mod(g, f) * g).coeffs)
            crt.append(P.apply(c + [QQ.zero] * (m.degree - len(c))))
        results.append(("min_poly", x, m.coeffs, [(f.coeffs, k) for f, k in factors], crt))
        return m

    def recording_split(B, *args):
        idempotents = original_split(B, *args)
        results.append(("split", idempotents))
        return idempotents

    monkeypatch.setattr(structure, "element_min_poly", recording_min_poly)
    monkeypatch.setattr(structure, "split_semisimple", recording_split)
    for C in coalgebras:
        structure._local_block(dual_algebra(C))
    return results


# sha256 of repr(_q_polynomial_results()) and of repr(_split_results()),
# recorded before rational polynomial arithmetic moved onto integers
Q_POLYNOMIAL_SHA256 = "424c55b75e200b91e3643b9b8621941ecc6fba438c0f2ab3a9851540de84d861"
Q_SPLIT_SHA256 = "8de3df97c64e64680dc4d683e31e6d51705bb104a052dbdfca97bd3b832bcfc3"


def test_q_polynomial_golden_digest():
    digest = hashlib.sha256(repr(_q_polynomial_results()).encode()).hexdigest()
    assert digest == Q_POLYNOMIAL_SHA256


def test_q_split_golden_digest(monkeypatch):
    """Also equal on the reference path, every entry through the field's
    methods, which runs the power chains and the idempotent lift on
    `Fraction`s."""
    from coalgkit import linalg

    results = _split_results(monkeypatch)
    assert sum(kind == "split" for kind, *_ in results) >= 20
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == Q_SPLIT_SHA256
    monkeypatch.undo()
    monkeypatch.setattr(linalg, "_ROW_KERNELS", {})
    assert _split_results(monkeypatch) == results


def _sympy_pairs(rng, count=220):
    """Seeded pairs (a, b) of rational polynomials; every third pair shares
    a factor, and every fifth a has a repeated factor."""
    def draw(lo, hi):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(lo, hi))]
        return Polynomial(QQ, coeffs + [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))])

    pairs = []
    for i in range(count):
        a, b = draw(0, 6), draw(1, 4)
        if i % 3 == 0:
            c = draw(1, 2)
            a, b = a * c, b * c
        if i % 5 == 0:
            c = draw(1, 2)
            a = a * c * c
        pairs.append((a, b))
    return pairs


def test_q_polynomial_routines_against_sympy():
    """gcd, quotient and remainder, the CRT inverse and the squarefree
    parts agree with sympy on seeded pairs, and within the bound of
    `_good_prime` a prime certifies exactly the squarefree inputs."""
    sympy = pytest.importorskip(
        "sympy", reason="sympy is not installed: rational polynomial cross-check skipped")
    from coalgkit.factor import _prime_bound, _squarefree, _squarefree_prime, is_separable
    from coalgkit.gfpoly import primitive

    x = sympy.Symbol("x")

    def to_sympy(f):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)],
                          x, domain=sympy.QQ)

    def back(poly):
        if poly.is_zero:
            return ()
        return tuple(Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs()))

    inverses = squarefree = 0
    pairs = _sympy_pairs(random.Random(2323))
    assert len(pairs) >= 200
    for a, b in pairs:
        sa, sb = to_sympy(a), to_sympy(b)
        assert a.gcd(b).coeffs == back(sa.gcd(sb))
        q, r = a.divmod(b)
        sq, sr = sa.div(sb)
        assert (q.coeffs, r.coeffs) == (back(sq), back(sr))
        if a.degree >= 1 and a.gcd(b).degree == 0:
            assert structure._inverse_mod(a, b).coeffs == back(sa.invert(sb))
            inverses += 1
        if a.degree >= 1:
            _, parts = sa.sqf_list()
            assert [(p.coeffs, m) for p, m in _squarefree(a.monic())] == [(back(p), m) for p, m in parts]
            separable = sa.gcd(sa.diff(x)).degree() == 0
            assert is_separable(a) == separable
            g = primitive(a.coeffs)
            assert (_squarefree_prime(g, _prime_bound(g)) is not None) == separable
            assert _squarefree_prime(g, 1) is None or separable
            squarefree += separable
    assert inverses >= 100 and 50 <= squarefree < len(pairs) - 50


def test_q_errors_are_still_raised():
    """The repeated-factor check of `split_semisimple` on an algebra that is
    not semisimple, the separability check of `wedderburn_splitting` on a
    corrupt residue, and the coprimality check of `_inverse_mod`."""
    from coalgkit.errors import NonSeparableResidue, ValidationError
    from coalgkit.fields import GF
    from coalgkit.structure import FieldDatum, local_decomposition, wedderburn_splitting

    with pytest.raises(ValidationError, match="^repeated factor in a semisimple algebra; corrupt input$"):
        structure.split_semisimple(polynomial_quotient_algebra(QQ, _ints([0, 0, 1])))
    for field, p in [(QQ, [-2, 0, 1]), (GF(3), [1, 0, 1])]:
        q = Polynomial.from_ints(field, p)
        comp = local_decomposition(polynomial_quotient_algebra(field, q * q)).components[0]
        residue = comp.residue
        comp.residue = FieldDatum(residue.as_algebra, residue.primitive_element, q * q)
        with pytest.raises(NonSeparableResidue, match="^residue minimal polynomial is not separable$"):
            wedderburn_splitting(comp)
    with pytest.raises(ValidationError, match="^minimal polynomial factors not coprime$"):
        structure._inverse_mod(_ints([-2, 1, 1]), _ints([-1, 1]) * _ints([3, 1]))
