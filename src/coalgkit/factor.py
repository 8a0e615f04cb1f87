"""Univariate polynomial factorization.

Finite fields: Yun's squarefree decomposition, then Berlekamp's algorithm:
the factors of a squarefree part g are read off the primitive idempotents
of F_q[t]/(g), which the Frobenius split of `structure` finds, the one split
over F_q.
Rationals, on integer coefficient lists: a modular certificate that f is
squarefree (else the same squarefree decomposition, its gcds on integers),
rational-root extraction, then Zassenhaus (the certificate's prime,
quadratic Hensel lifting on a factor tree in `gfpoly` arithmetic mod p^e,
bounded subset recombination), up to the degree cap DEFAULT_DEGREE_CAP.

factor_polynomial returns (leading unit, [(monic irreducible, multiplicity)])
with factors sorted deterministically.
"""

import math

from . import gfpoly
from .errors import ComputationError, DegreeCapExceeded, NotSupported, SearchExhausted
from .fields import ExtensionField, PrimeField, QQ, RationalField, is_prime
from .polys import Polynomial

DEFAULT_DEGREE_CAP = 16
# odd primes the squarefree certificate tries before Yun's algorithm: every
# prime fails on a polynomial that is not squarefree, and the search to the
# bound of `_good_prime` costs more than Yun's gcds
_CERTIFICATE_PRIMES = 5


def factor_polynomial(f):
    if f.is_zero():
        raise NotSupported("factorization of the zero polynomial")
    F = f.field
    unit = f.leading()
    if f.degree == 0:
        return unit, []
    if isinstance(F, (PrimeField, ExtensionField)):
        factors = _factor_finite(f.monic())
    elif isinstance(F, RationalField):
        factors = _factor_rationals(f.monic())
    else:
        raise NotSupported(f"factorization over {F} not implemented")
    factors.sort(key=lambda pair: pair[0].sort_key())
    return unit, factors


def roots_in_field(f):
    """Roots of f inside its coefficient field, with multiplicity."""
    _, factors = factor_polynomial(f)
    F = f.field
    out = []
    for g, mult in factors:
        if g.degree == 1:
            out.append((F.neg(g.coeffs[0]), mult))
    return out


def is_irreducible(f):
    if f.degree <= 0:
        return False
    _, factors = factor_polynomial(f)
    return len(factors) == 1 and factors[0][1] == 1


# -- finite fields -----------------------------------------------------


def _factor_finite(f):
    return [(g, mult) for part, mult in _squarefree(f) for g in _berlekamp(part)]


def _berlekamp(g):
    """The monic irreducible factors of monic squarefree g over F_q
    (Berlekamp, Bell Syst. Tech. J. 46, 1967): each primitive idempotent e
    of A = F_q[t]/(g), split inside the fixed algebra of the Frobenius
    matrix of A, gives the factor gcd(g, e - 1)."""
    if g.degree == 1:
        return [g]
    from . import structure  # structure imports this module
    from .coalgebra import _quotient_frobenius, polynomial_quotient_algebra

    F = g.field
    phi = _quotient_frobenius(F, g)
    idempotents = structure._frobenius_idempotents(polynomial_quotient_algebra(F, g), phi)
    return [g.gcd(Polynomial(F, e) - Polynomial.one(F)) for e in idempotents]


def _squarefree(f):
    """Yun's algorithm: monic f -> [(squarefree part, multiplicity)].

    In characteristic p the part of f that is a polynomial in x^p is taken
    apart by p-th roots; in characteristic zero that branch never runs."""
    F = f.field
    p = F.characteristic
    out = {}
    e = 1
    while f.degree > 0:
        fp = f.derivative()
        if fp.is_zero():
            f = _pth_root_poly(f)
            e *= p
            continue
        g = f.gcd(fp)
        w = (f // g).monic()
        i = 1
        while w.degree > 0:
            y = w.gcd(g)
            z = (w // y).monic()
            if z.degree > 0:
                key = i * e
                out[key] = out[key] * z if key in out else z
            w = y
            g = (g // y).monic()
            i += 1
        if g.degree > 0:
            f = _pth_root_poly(g)
            e *= p
        else:
            break
    return [(poly, mult) for mult, poly in sorted(out.items())]


def _pth_root_poly(f):
    """For f(x) = g(x^p), recover g; coefficientwise p-th roots."""
    F = f.field
    p = F.characteristic
    coeffs = []
    for i in range(0, len(f.coeffs), p):
        coeffs.append(F.pth_root(f.coeffs[i]))
    return Polynomial(F, coeffs)


# -- rationals ---------------------------------------------------------


def _factor_rationals(f):
    if f.degree > DEFAULT_DEGREE_CAP:
        raise DegreeCapExceeded(
            f"degree {f.degree} exceeds rational factorization cap {DEFAULT_DEGREE_CAP}"
        )
    g = gfpoly.primitive(f.coeffs)
    p = _squarefree_prime(g, _CERTIFICATE_PRIMES)
    if p is not None:
        return [(h, 1) for h in _factor_squarefree_q(g, p)]
    out = {}
    for part, mult in _squarefree(f):
        g = gfpoly.primitive(part.coeffs)
        for h in _factor_squarefree_q(g, _good_prime(g)):
            out[h] = out.get(h, 0) + mult
    return list(out.items())


def is_separable(f):
    """Whether gcd(f, f') = 1.  Over Q a certifying prime among the first
    few (see `_squarefree_prime`) answers first; without one, the gcd
    decides."""
    if f.field.kind == "Q" and f.degree > 0:
        if _squarefree_prime(gfpoly.primitive(f.coeffs), _CERTIFICATE_PRIMES):
            return True
    return f.gcd(f.derivative()).degree == 0


def _factor_squarefree_q(g, p):
    """Primitive squarefree integer g of degree >= 1, p a prime that
    certifies it squarefree -> the monic irreducible factors over Q.  p
    serves every factor of g as well."""
    factors = []
    # peel off rational roots first
    while len(g) > 2:
        root = _find_rational_root(g)
        if root is None:
            break
        factors.append(Polynomial(QQ, [-root, QQ.one]))
        # Gauss's lemma: the quotient is primitive with a positive leading
        # coefficient, like g
        g = gfpoly.zdivide_exact(g, [-root.numerator, root.denominator])
    if len(g) == 2:
        factors.append(Polynomial.from_ints(QQ, g).monic())
        return factors
    if len(g) <= 1:
        return factors
    factors.extend(_zassenhaus(g, p))
    return factors


def _find_rational_root(g):
    a0, an = g[0], g[-1]
    if a0 == 0:
        return QQ.zero
    if abs(a0) > 10**7 or abs(an) > 10**7:
        return None  # divisor enumeration not worth it; Zassenhaus will catch it
    from fractions import Fraction

    # g(u/v) = 0 exactly when the homogeneous form sum g_i u^i v^(n-i) is 0
    for u in _divisors(abs(a0)):
        for v in _divisors(abs(an)):
            if math.gcd(u, v) != 1:
                continue
            for su in (u, -u):
                acc, vpow = 0, 1
                for c in reversed(g):
                    acc = acc * su + c * vpow
                    vpow *= v
                if acc == 0:
                    return Fraction(su, v)
    return None


def _divisors(n):
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _zassenhaus(g, p):
    """Primitive squarefree integer poly, degree >= 2, no rational roots; p
    a prime that certifies it squarefree."""
    lc = g[-1]
    if lc != 1:
        # monicize by substitution y = lc*x (p does not divide lc, so it
        # certifies the result too), factor, substitute back
        monic = _monicize(g)
        parts = _zassenhaus(monic, p)
        out = []
        for part in parts:
            coeffs = part.coeffs
            n = part.degree
            from fractions import Fraction

            scaled = [coeffs[i] * Fraction(lc) ** i for i in range(n + 1)]
            out.append(Polynomial(QQ, scaled).monic())
        return out
    field = PrimeField(p)
    fbar = Polynomial(field, [c % p for c in g])
    _, modular = factor_polynomial(fbar)
    mods = [m for m, _ in modular]
    if len(mods) == 1:
        return [Polynomial.from_ints(QQ, g)]
    bound = 2 ** (len(g)) * (math.isqrt(sum(c * c for c in g)) + 1)
    e = 1
    while p**e <= 2 * bound:
        e += 1
    lifted = _hensel_multifactor(g, [list(m.coeffs) for m in mods], p, p**e)
    return _recombine(g, lifted, p**e)


def _monicize(g):
    lc = g[-1]
    n = len(g) - 1
    return [g[i] * lc ** (n - 1 - i) for i in range(n)] + [1]


def _squarefree_prime(g, limit):
    """The least of the first `limit` odd primes that certifies the integer
    polynomial g squarefree over Q, or None.

    p certifies g when it does not divide lc(g) and gcd(g, g') = 1 mod p:
    then p does not divide Res(g, g'), which is therefore not 0 (von zur
    Gathen and Gerhard, Modern Computer Algebra, ch. 14-15).  A prime that
    fails proves nothing."""
    dg = _derivative(g)
    p, tried = 3, 0
    while tried < limit:
        if is_prime(p):
            tried += 1
            if g[-1] % p and gfpoly.gcd(_modlist(g, p), _modlist(dg, p), p) == [1]:
                return p
        p += 2
    return None


def _derivative(g):
    return [i * g[i] for i in range(1, len(g))]


def _prime_bound(g):
    n = len(g) - 1
    dg = _derivative(g)
    hadamard = math.isqrt(sum(c * c for c in g) ** (n - 1) * sum(c * c for c in dg) ** n) + 1
    return (abs(g[-1]) * hadamard).bit_length()


def _good_prime(g):
    """The least odd prime that certifies g squarefree.

    Only the primes dividing lc(g) * Res(g, g') fail, and for squarefree g
    there are fewer odd ones than the bit length of |lc(g)| times the
    Hadamard bound |g|^(n-1) |g'|^n on the Sylvester matrix of g and g'.
    When that many odd primes all fail, g is not squarefree."""
    bound = _prime_bound(g)
    p = _squarefree_prime(g, bound)
    if p is None:
        raise SearchExhausted(
            f"no odd prime keeps the degree-{len(g) - 1} integer polynomial squarefree: all {bound} "
            f"tried failed (bound: bit length of lc(g) times the Hadamard bound on "
            f"Sylvester(g, g'), {bound}); the polynomial is not squarefree"
        )
    return p


def _symmetric(f, m):
    half = m // 2
    return [c - m if c > half else c for c in f]


def _hensel_step(f, g, h, s, t, m):
    """One quadratic step: from f = g*h, s*g + t*h = 1 (mod m) to mod m^2."""
    m2 = m * m
    add, sub, mul = gfpoly.add, gfpoly.sub, gfpoly.mul
    e = sub(f, mul(g, h, m2), m2)
    q, r = gfpoly.divmod_(mul(s, e, m2), h, m2)
    g1 = add(add(g, mul(t, e, m2), m2), mul(q, g, m2), m2)
    h1 = add(h, r, m2)
    b = sub(add(mul(s, g1, m2), mul(t, h1, m2), m2), [1], m2)
    c, d = gfpoly.divmod_(mul(s, b, m2), h1, m2)
    s1 = sub(s, d, m2)
    t1 = sub(sub(t, mul(t, b, m2), m2), mul(c, g1, m2), m2)
    return g1, h1, s1, t1


def _hensel_pair(f, g, h, s, t, p, target):
    m = p
    while m < target:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m = m * m
    return _modlist(g, target), _modlist(h, target)


def _modlist(f, m):
    return gfpoly.trim([c % m for c in f])


def _hensel_multifactor(f, mods, p, target):
    """Lift monic f = prod(mods) from mod p to mod target = p^e."""
    if len(mods) == 1:
        return [_modlist(f, target)]
    k = len(mods) // 2
    g0 = [1]
    for m in mods[:k]:
        g0 = gfpoly.mul(g0, m, p)
    h0 = [1]
    for m in mods[k:]:
        h0 = gfpoly.mul(h0, m, p)
    d, s, t = gfpoly.ext_gcd(g0, h0, p)
    if d != [1]:
        raise ComputationError("modular factors not coprime")
    g, h = _hensel_pair(_modlist(f, target), g0, h0, s, t, p, target)
    return _hensel_multifactor(g, mods[:k], p, target) + _hensel_multifactor(
        h, mods[k:], p, target
    )


def _recombine(f, lifted, modulus):
    """Bounded subset recombination; f monic, lifted factors mod p^e."""
    import itertools

    remaining = list(range(len(lifted)))
    current = list(f)
    out = []
    size = 1
    while 2 * size <= len(remaining):
        hit = False
        for combo in itertools.combinations(remaining, size):
            cand = [1]
            for i in combo:
                cand = gfpoly.mul(cand, lifted[i], modulus)
            cand = _symmetric(cand, modulus)
            quotient = gfpoly.zdivide_exact(current, cand)
            if quotient is not None:
                out.append(Polynomial.from_ints(QQ, cand))
                current = quotient
                remaining = [i for i in remaining if i not in combo]
                hit = True
                break
        if not hit:
            size += 1
    if len(current) > 1:
        out.append(Polynomial.from_ints(QQ, current))
    return out
