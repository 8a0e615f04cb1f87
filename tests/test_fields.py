import hashlib
import math
import random

import pytest
from fractions import Fraction

from coalgkit import factor, gfpoly
from coalgkit.errors import (
    DegreeCapExceeded,
    DivisionByZero,
    ParseError,
    SearchExhausted,
    ValidationError,
)
from coalgkit.factor import factor_polynomial, is_irreducible, roots_in_field
from coalgkit.fields import GF, QQ, field_arith, field_from_json, is_prime
from coalgkit.polys import Polynomial

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, [1, 1, 1])
F5 = GF(5)
F9 = GF(3, [1, 0, 1])
F257 = GF(257)
F_MERSENNE = GF(2**31 - 1)
F512 = GF(2, [1, 1, 0, 0, 0, 0, 0, 0, 0, 1])  # x^9 + x + 1
F7 = GF(7)
F8 = GF(2, [1, 1, 0, 1])  # x^3 + x + 1
F101 = GF(101)
F65537 = GF(65537)
FACTOR_FIELDS = (F2, F3, F7, F101, F65537, F_MERSENNE, F4, F8, F9)


def test_rational_arithmetic():
    a = QQ.element(Fraction(1, 2))
    b = QQ.element(Fraction(1, 3))
    assert (a + b).value == Fraction(5, 6)
    assert (a * b).value == Fraction(1, 6)
    assert (a / b).value == Fraction(3, 2)


def test_f4_inverse_exhaustive():
    # inv(x) = x + 1, checked against every element
    x = F4.element((0, 1))
    inv = x.inverse()
    assert inv.value == (1, 1)
    for v in F4.elements():
        if F4.is_zero(v):
            continue
        prod = F4.mul(v, F4.inv(v))
        assert F4.is_one(prod)


def test_f5_inverses():
    for a in range(1, 5):
        e = F5.element(a)
        assert (e * e.inverse()).value == 1


def test_field_arith_dispatch():
    a = F5.element(3)
    b = F5.element(4)
    assert field_arith(a, b, "add").value == 2
    assert field_arith(a, b, "mul").value == 2
    assert field_arith(a, b, "eq") is False
    assert field_arith(a, None, "inv").value == 2
    with pytest.raises(DivisionByZero):
        field_arith(a, F5.element(0), "div")


def test_spec_mismatch():
    from coalgkit.errors import SpecMismatch

    with pytest.raises(SpecMismatch):
        F5.element(1) + F3.element(1)


def test_primality():
    assert is_prime(2) and is_prime(3) and is_prime(2**31 - 1)
    assert not is_prime(1) and not is_prime(561) and not is_prime(2**30)
    with pytest.raises(ValidationError):
        GF(15)
    with pytest.raises(ValidationError):
        GF(2, [1, 0, 0, 1])  # x^3 + 1 reducible


def test_element_parsing_round_trip():
    cases = [
        (QQ, Fraction(-3, 4)),
        (F5, 3),
        (F4, (1, 1)),
        (F9, (2, 1)),
    ]
    for field, value in cases:
        assert field.parse(field.format(value)) == value
    assert F4.parse("x+1") == (1, 1)
    assert F9.parse("2*x+2") == (2, 2)
    with pytest.raises(ParseError):
        F4.parse("y+1")


def test_field_json_round_trip():
    for field in (QQ, F5, F4, F9):
        assert field_from_json(field.to_json()) == field


def test_factor_examples():
    unit, fs = factor_polynomial(Polynomial.from_ints(F2, [0, 1, 1]))
    assert F2.is_one(unit)
    assert [(f.coeffs, m) for f, m in fs] == [((0, 1), 1), ((1, 1), 1)]

    # exhaustive check over the eight monic quadratics mod 2: x^4+x^2+1 is a square
    f = Polynomial.from_ints(F2, [1, 0, 1, 0, 1])
    candidates = [
        Polynomial.from_ints(F2, [a, b, 1]) for a in (0, 1) for b in (0, 1)
    ]
    squares = [g for g in candidates if g * g == f]
    assert len(squares) == 1 and squares[0].coeffs == (1, 1, 1)
    _, fs = factor_polynomial(f)
    assert [(g.coeffs, m) for g, m in fs] == [((1, 1, 1), 2)]

    _, fs = factor_polynomial(Polynomial.from_ints(QQ, [-2, 0, 1]))
    assert len(fs) == 1 and fs[0][1] == 1 and fs[0][0].degree == 2


def test_degree_cap(monkeypatch):
    f = Polynomial.from_ints(QQ, [1] * 18)
    with pytest.raises(DegreeCapExceeded):
        factor_polynomial(f)
    monkeypatch.setattr(factor, "DEFAULT_DEGREE_CAP", 20)
    factor_polynomial(f)


def test_roots_in_field():
    f = Polynomial.from_ints(F5, [1, 0, 1])  # x^2 + 1 = (x-2)(x-3) mod 5
    roots = sorted(r for r, _ in roots_in_field(f))
    assert roots == [2, 3]


def _seeded_polynomials(rng, field):
    """Random polynomials of degree 1..9, and products g^2 h k of random
    factors so that repeated factors occur."""
    def draw(lo, hi):
        while True:
            f = Polynomial.from_ints(field, [rng.randint(-6, 6) for _ in range(rng.randint(lo, hi) + 1)])
            if f.degree >= lo:
                return f

    out = [draw(1, 9) for _ in range(15)]
    for _ in range(10):
        g, h, k = draw(1, 3), draw(1, 2), draw(1, 4)
        out.append(g * g * h * k)
    return out


@pytest.mark.parametrize("field", [QQ, F2, F3, F5, F257, F_MERSENNE], ids=repr)
def test_factor_polynomial_against_sympy(field):
    sympy = pytest.importorskip(
        "sympy", reason="sympy is not installed: factoring cross-check against sympy skipped")
    x = sympy.Symbol("x")
    if field == QQ:
        options = {"domain": sympy.QQ}
        to_sympy = lambda c: sympy.Rational(c.numerator, c.denominator)
        back = lambda c: Fraction(int(c.p), int(c.q))
    else:
        options = {"modulus": field.p}
        to_sympy = int
        back = lambda c: int(c) % field.p
    rng = random.Random(5)
    for f in _seeded_polynomials(rng, field):
        expr = sum(to_sympy(c) * x**i for i, c in enumerate(f.coeffs))
        _, sympy_factors = sympy.Poly(expr, x, **options).factor_list()
        want = sorted(
            (tuple(back(c) for c in reversed(g.monic().all_coeffs())), m)
            for g, m in sympy_factors
        )
        unit, factors = factor_polynomial(f)
        assert unit == f.leading()
        assert sorted((g.coeffs, m) for g, m in factors) == want, f.coeffs


@pytest.mark.parametrize(
    "field,count",
    [(F2, 1000), (F3, 1000), (F5, 1000), (QQ, 1000), (F4, 400), (F9, 400), (F512, 30)],
)
def test_refactor_property(field, count):
    """factor_polynomial output re-multiplies to the input exactly, and
    every returned factor is itself irreducible."""
    rng = random.Random(repr(field) + "/99")
    for i in range(count):
        deg = rng.randint(1, 8)
        f = Polynomial(field, [field.random(rng) for _ in range(deg + 1)])
        if f.degree < 1:
            continue
        unit, factors = factor_polynomial(f)
        prod = Polynomial(field, [unit])
        for g, m in factors:
            assert g.is_monic()
            prod = prod * g**m
        assert prod == f
        if i % 17 == 0:
            for g, _ in factors:
                u2, fs2 = factor_polynomial(g)
                assert field.is_one(u2) and fs2 == [(g, 1)]


def test_factorization_does_not_depend_on_the_seed(monkeypatch):
    """The seed only steers the draws of the Frobenius split, which splits
    F_q[t]/(g) for each squarefree part g; the factorization is unique."""
    from coalgkit import structure

    drawn = []
    original = structure.derived_rng

    def recording(seed, *path):
        drawn.append(seed)
        return original(seed, *path)

    monkeypatch.setattr(structure, "derived_rng", recording)
    rng = random.Random(13)
    for field in (F2, F3, F4, F9, F257, F_MERSENNE, F512):
        polys = _seeded_polynomials(rng, field)
        # products of distinct linear factors: the basis of the fixed
        # algebra is 1, t, t^2, .., whose characters seldom separate them
        roots = {field.random(rng) for _ in range(6)}
        split = Polynomial.one(field)
        for r in roots:
            split = split * Polynomial(field, [field.neg(r), field.one])
        for f in polys[:5] + [split]:
            results = []
            for seed in range(5):
                monkeypatch.setattr(structure, "_SPLIT_SEED", seed)
                results.append(factor_polynomial(f))
            assert all(r == results[0] for r in results), (field, f.coeffs)
        assert len(factor_polynomial(split)[1]) == len(roots)
    # every seed reached the draws, and only the patched seeds did
    assert set(drawn) == set(range(5))


def _finite_factor_inputs(field):
    """Seeded polynomials over field: one of each degree 1..8, 12, 16 and
    24, products of same-degree factors, products g^2 h and g^3 with
    repeated factors, and in small characteristic p the inputs g(x^p) and
    g(x^p) h, on which Yun's algorithm takes p-th roots."""
    rng = random.Random(f"finite-factor/{field!r}")
    p = field.characteristic

    def draw(d):
        while True:
            f = Polynomial(field, [field.random(rng) for _ in range(d)] + [field.random(rng)])
            if f.degree == d:
                return f

    def product(*factors):
        out = Polynomial.one(field)
        for f in factors:
            out = out * f
        return out

    out = [draw(d) for d in (1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24)]
    out += [product(*(draw(1) for _ in range(6))), product(*(draw(2) for _ in range(5))),
            product(*(draw(4) for _ in range(4)))]
    for _ in range(3):
        g = draw(rng.randint(1, 4))
        out += [g * g * draw(rng.randint(1, 6)), g * g * g]
    if p <= 7:
        for d in (1, 2, 24 // p):
            coeffs = [field.zero] * (d * p + 1)
            coeffs[::p] = draw(d).coeffs
            g = Polynomial(field, coeffs)
            out += [g, g * draw(rng.randint(1, 3))]
    return out


def _finite_factor_results():
    return [(repr(field), repr(f), factor_polynomial(f)) for field in FACTOR_FIELDS
            for f in _finite_factor_inputs(field)]


# sha256 of repr(_finite_factor_results()), recorded on the distinct-degree
# and Cantor-Zassenhaus factoring
FINITE_FACTOR_SHA256 = "0560908b39a5a394b8ffd04aa9081599bf495539a73161343be43072beefa093"


def test_finite_factor_golden_digest():
    """Factorizations are unique and sorted, so they do not depend on the
    splitting method: the digest pins every output over the nine fields."""
    results = _finite_factor_results()
    # Yun's p-th roots ran: some factor of an input over F_2 .. F_9 has
    # multiplicity p
    assert {m for field, _, (_, factors) in results for _, m in factors} >= {2, 3, 7}
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == FINITE_FACTOR_SHA256


@pytest.mark.parametrize("field", FACTOR_FIELDS, ids=repr)
def test_squarefree_factoring_is_one_frobenius_split(monkeypatch, field):
    """A squarefree g of degree >= 2 takes one `pow_mod`, t^q mod g, which
    gives the Frobenius matrix of F_q[t]/(g), and one split of its fixed
    algebra; an irreducible g comes back as [g]."""
    from coalgkit import structure

    pow_mods, splits = [], []
    original_pow_mod, original_split = Polynomial.pow_mod, structure._frobenius_idempotents

    def pow_mod(self, n, modulus):
        pow_mods.append(n)
        return original_pow_mod(self, n, modulus)

    def split(A, phi):
        splits.append(A.dim)
        return original_split(A, phi)

    def factors_of(g):
        pow_mods.clear()
        splits.clear()
        _, factors = factor_polynomial(g)
        assert pow_mods == [field.order] and splits == [g.degree]
        return factors

    monkeypatch.setattr(Polynomial, "pow_mod", pow_mod)
    monkeypatch.setattr(structure, "_frobenius_idempotents", split)
    squarefree = [f for f in _finite_factor_inputs(field)
                  if f.degree >= 2 and f.gcd(f.derivative()).degree == 0]
    assert len(squarefree) >= 4
    for f in squarefree:
        for g, mult in factors_of(f):
            assert mult == 1
            if g.degree >= 2:
                assert factors_of(g) == [(g, 1)]


class _ZeroRng:
    """A random source that only ever draws 0: no trial can split."""

    def __init__(self):
        self.draws = 0

    def randrange(self, n):
        self.draws += 1
        return 0


@pytest.mark.parametrize("name, draws_per_coefficient", [("F5", 1), ("F9", 2), ("F_mersenne", 1)])
def test_factoring_split_draws_are_bounded(monkeypatch, name, draws_per_coefficient):
    """On the products g of three linear factors whose nonzero roots are
    squares, the basis 1, t, t^2 of the fixed algebra of F_q[t]/(g)
    separates no factor, so factoring reaches the seeded draws, and a
    source that draws only 0 exhausts them."""
    from coalgkit import structure
    from coalgkit.structure import _SPLIT_TRIALS

    from .test_structure import UNSEPARATED

    field, ints = UNSEPARATED[name]
    rng = _ZeroRng()
    monkeypatch.setattr(structure, "derived_rng", lambda *parts: rng)
    with pytest.raises(SearchExhausted) as info:
        factor_polynomial(Polynomial.from_ints(field, ints))
    assert rng.draws == _SPLIT_TRIALS * 3 * draws_per_coefficient
    message = str(info.value)
    assert f"after {_SPLIT_TRIALS} seeded draws" in message and "_SPLIT_TRIALS" in message


def _int_long_division(f, g):
    """f = q*g + r over the integers, for monic g."""
    r = list(f)
    q = [0] * max(len(f) - len(g) + 1, 0)
    for d in range(len(f) - len(g), -1, -1):
        c = r[d + len(g) - 1]
        q[d] = c
        for i, b in enumerate(g):
            r[d + i] -= c * b
    return q, r[: len(g) - 1]


def test_gfpoly_divmod_at_a_prime_power():
    m = 3**5
    reduce = lambda f: gfpoly.trim([c % m for c in f])
    rng = random.Random(35)
    for _ in range(200):
        f = [rng.randrange(m) for _ in range(rng.randint(0, 9))]
        g = [rng.randrange(m) for _ in range(rng.randint(0, 4))] + [1]
        q, r = _int_long_division(f, g)
        assert gfpoly.divmod_(reduce(f), g, m) == (reduce(q), reduce(r))
        # a leading coefficient that is a unit mod 3^5 but not 1
        g = g[:-1] + [rng.choice([2, 4, 5, 242])]
        q, r = gfpoly.divmod_(reduce(f), g, m)
        assert len(r) < len(g)
        assert gfpoly.add(gfpoly.mul(q, g, m), r, m) == reduce(f)


def test_hensel_multifactor_lifts_to_a_prime_power():
    from coalgkit.factor import _good_prime, _hensel_multifactor

    rng = random.Random(71)
    lifted_any = 0
    tried = 0
    while tried < 40:
        f = [1]
        for _ in range(rng.randint(2, 4)):
            f = _int_poly_mul(f, [rng.randint(-9, 9) for _ in range(rng.randint(1, 3))] + [1])
        fq = Polynomial.from_ints(QQ, f)
        if fq.gcd(fq.derivative()).degree > 0:
            continue
        tried += 1
        p = _good_prime(f)
        _, modular = factor_polynomial(Polynomial(GF(p), [c % p for c in f]))
        mods = [list(g.coeffs) for g, _ in modular]
        for e in (1, 2, 5):
            target = p**e
            lifts = _hensel_multifactor(f, mods, p, target)
            assert len(lifts) == len(mods)
            prod = [1]
            for lift, mod in zip(lifts, mods):
                assert lift[-1] == 1 and len(lift) == len(mod)
                assert all(0 <= c < target for c in lift)
                assert gfpoly.trim([c % p for c in lift]) == mod
                prod = gfpoly.mul(prod, lift, target)
            assert prod == gfpoly.trim([c % target for c in f])
        lifted_any += len(mods) > 1
    assert lifted_any >= 20


def test_good_prime_search_is_bounded():
    """(x - 1)^2 (x + 2) is not squarefree, so every prime fails: the search
    stops at its named bound, 11 odd primes here, within a second."""
    import signal

    from coalgkit.factor import _good_prime

    def too_slow(signum, frame):
        raise TimeoutError("_good_prime ran past 1 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(SearchExhausted) as info:
            _good_prime([2, -3, 0, 1])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    message = str(info.value)
    assert "all 11 tried failed" in message and "Hadamard bound" in message


def test_is_irreducible():
    assert is_irreducible(Polynomial.from_ints(F2, [1, 1, 1]))
    assert not is_irreducible(Polynomial.from_ints(F2, [1, 0, 1]))
    assert is_irreducible(Polynomial.from_ints(QQ, [-2, 0, 1]))


def test_perfectness_pth_roots():
    # Frobenius is invertible in characteristic p; characteristic zero is trivially perfect
    for field in (F2, F3, F5, F4, F9):
        p = field.characteristic
        for v in field.elements():
            root = field.pth_root(v)
            assert field.pow(root, p) == v
    q = QQ.element(7)
    assert QQ.pth_root(q.value) == q.value


def test_rational_factor_hard_cases():
    # splits modulo every prime, so recombination must reassemble all of it
    sd = Polynomial.from_ints(QQ, [1, 0, -10, 0, 1])
    unit, factors = factor_polynomial(sd)
    assert QQ.is_one(unit) and factors == [(sd, 1)]
    # several quadratic factors force subset search among modular factors
    parts = [[1, 0, 1], [2, 0, 1], [-2, 0, 1], [1, 1, 1]]
    f = Polynomial.from_ints(QQ, [1])
    for c in parts:
        f = f * Polynomial.from_ints(QQ, c)
    _, factors = factor_polynomial(f)
    assert len(factors) == 4 and all(m == 1 for _, m in factors)


def _rational_root_by_fractions(g):
    """The rational-root search with Horner's rule on Fractions: candidates
    +-u/v, u | g_0 and v | g_n coprime, ascending, + before -."""
    a0, an = g[0], g[-1]
    if a0 == 0:
        return Fraction(0)
    if abs(a0) > 10**7 or abs(an) > 10**7:
        return None
    divisors = lambda n: [d for d in range(1, n + 1) if n % d == 0]
    for u in divisors(abs(a0)):
        for v in divisors(abs(an)):
            if math.gcd(u, v) != 1:
                continue
            for r in (Fraction(u, v), Fraction(-u, v)):
                acc = Fraction(0)
                for c in reversed(g):
                    acc = acc * r + c
                if acc == 0:
                    return r
    return None


def _int_poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def test_rational_root_test_against_fraction_evaluation():
    from coalgkit.factor import _find_rational_root

    rng = random.Random(57)
    cases = []
    for _ in range(60):
        h = [rng.randint(-20, 20) for _ in range(rng.randint(2, 6))]
        h[0] = h[0] or 7
        h[-1] = h[-1] or 3
        u, v = rng.randint(1, 12), rng.randint(1, 12)
        g = u // math.gcd(u, v), v // math.gcd(u, v)
        cases.append(_int_poly_mul([rng.choice([-1, 1]) * g[0], -g[1]], h))  # root +-u/v
        cases.append(h)  # usually no rational root
        cases.append([0] + h)  # a0 == 0
    N = 10**7 + 3
    big = [_int_poly_mul([-1, 1], [N, 0, 1]), _int_poly_mul([-1, 1], [1, N])]  # root 1
    planted = 0
    for g in cases + big:
        root = _find_rational_root(g)
        assert root == _rational_root_by_fractions(g)
        assert root is None or type(root) is Fraction
        planted += root is not None
    assert planted >= 120
    assert [_find_rational_root(g) for g in big] == [None, None]
