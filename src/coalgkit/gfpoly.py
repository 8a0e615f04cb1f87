"""Dense polynomial arithmetic on plain coefficient lists mod m.

A polynomial a_0 + a_1*x + ... + a_n*x^n is the list [a_0, ..., a_n] of ints
in [0, m); the zero polynomial is [].  With m a prime p these helpers back
the extension-field element arithmetic and the irreducibility test used when
constructing F_q.  `add`, `sub`, `mul` and `divmod_` (by a divisor whose
leading coefficient is a unit mod m) work for any modulus: the Hensel
lifting of rational factorization runs on them mod p^e.  `monic`, `gcd`,
`ext_gcd` and `is_irreducible` need m prime.

Without a modulus the lists hold integer polynomials, the footing of
rational polynomial arithmetic: a rational polynomial is its integer
numerators over one denominator (`clear_denominators`), and by Gauss's
lemma its gcds and exact quotients are those of its primitive form.
"""

from math import gcd as _igcd, lcm


def trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def add(f, g, m):
    out = list(f) + [0] * (len(g) - len(f))
    for i, c in enumerate(g):
        out[i] += c
    return trim([c % m for c in out])


def sub(f, g, m):
    out = list(f) + [0] * (len(g) - len(f))
    for i, c in enumerate(g):
        out[i] -= c
    return trim([c % m for c in out])


def mul(f, g, m):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim([c % m for c in out])


def scale(f, c, p):
    c %= p
    if c == 0:
        return []
    return trim([(a * c) % p for a in f])


def divmod_(f, g, m):
    """(q, r) with f = q*g + r mod m and deg r < deg g; the leading
    coefficient of g must be a unit mod m."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = trim(list(f))
    q = [0] * max(len(f) - len(g) + 1, 0)
    inv_lead = pow(g[-1], -1, m)
    # f stays trimmed, so it is zero exactly when it is empty
    while len(f) >= len(g):
        c = (f[-1] * inv_lead) % m
        d = len(f) - len(g)
        q[d] = c
        for i, b in enumerate(g):
            f[d + i] = (f[d + i] - c * b) % m
        trim(f)
    return trim(q), f


def mod(f, g, p):
    return divmod_(f, g, p)[1]


def monic(f, p):
    if not f:
        return []
    return scale(f, pow(f[-1], p - 2, p), p)


def gcd(f, g, p):
    while g:
        f, g = g, mod(f, g, p)
    return monic(f, p)


def ext_gcd(f, g, p):
    """Return (d, s, t) with s*f + t*g = d, d monic."""
    r0, r1 = list(f), list(g)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = divmod_(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
        t0, t1 = t1, sub(t0, mul(q, t1, p), p)
    if not r0:
        return [], s0, t0
    lead_inv = pow(r0[-1], p - 2, p)
    return scale(r0, lead_inv, p), scale(s0, lead_inv, p), scale(t0, lead_inv, p)


def pow_mod(f, n, g, p):
    """f^n mod g."""
    result = [1]
    f = mod(f, g, p)
    while n > 0:
        if n & 1:
            result = mod(mul(result, f, p), g, p)
        f = mod(mul(f, f, p), g, p)
        n >>= 1
    return result


def is_irreducible(f, p):
    """Rabin test: f of degree d is irreducible over F_p iff x^(p^d) = x
    mod f and gcd(x^(p^(d/q)) - x, f) = 1 for every prime q dividing d."""
    d = len(f) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    x = [0, 1]
    for q in sorted({q for q in _prime_factors(d)}):
        h = pow_mod(x, p ** (d // q), f, p)
        if gcd(sub(h, x, p), f, p) != [1]:
            return False
    return pow_mod(x, p ** d, f, p) == x


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- integer polynomials ------------------------------------------------


def clear_denominators(vec):
    """(nums, den): vec == [Fraction(a, den) for a in nums], den the lcm."""
    dens = [a.denominator for a in vec]
    den = lcm(*dens)
    if den == 1:
        return [a.numerator for a in vec], 1
    return [a.numerator * (den // d) for a, d in zip(vec, dens)], den


def primitive(coeffs):
    """The primitive integer form of a polynomial with rational (or integer)
    coefficients, trimmed: its multiple with coprime integer coefficients and
    a positive leading coefficient; [] for zero."""
    nums, _ = clear_denominators(coeffs)
    c = _igcd(*nums)
    if c == 0:
        return []
    if nums[-1] < 0:
        c = -c
    return nums if c == 1 else [a // c for a in nums]


def zmul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def pseudo_divmod(f, g):
    """(q, r, scale) with scale * f = q * g + r and deg r < deg g, where
    scale = lc(g)^k and k = max(deg f - deg g + 1, 0); g nonzero."""
    lead, n = g[-1], len(g)
    r = list(f)
    q = [0] * max(len(r) - n + 1, 0)
    scale = 1
    for d in range(len(q) - 1, -1, -1):
        c = r[d + n - 1]
        if lead != 1:
            r = [lead * a for a in r]
            q = [lead * a for a in q]
            scale *= lead
        q[d] = c
        if c:
            for i, b in enumerate(g):
                r[d + i] -= c * b
    return q, trim(r[: n - 1]), scale


def zdivide_exact(f, g):
    """Exact integer polynomial division f / g, or None."""
    if not g or len(g) > len(f):
        return None
    f = list(f)
    q = [0] * (len(f) - len(g) + 1)
    for d in range(len(f) - len(g), -1, -1):
        if f[d + len(g) - 1] % g[-1] != 0:
            return None
        c = f[d + len(g) - 1] // g[-1]
        q[d] = c
        if c:
            for i, b in enumerate(g):
                f[d + i] -= c * b
    return q if not any(f) else None


def zgcd(f, g):
    """The primitive gcd of polynomials with rational (or integer)
    coefficients, by a primitive remainder sequence (Collins, J. ACM 14,
    1967): each pseudo-remainder over its content."""
    f, g = primitive(f), primitive(g)
    if len(f) < len(g):
        f, g = g, f
    while g:
        f, g = g, primitive(pseudo_divmod(f, g)[1])
    return f


def zinverse_mod(g, f):
    """(s, c) with s * g = c mod f over Z, c a nonzero integer and
    deg s < deg f, when g and f are coprime over Q; None otherwise.

    The extended Euclidean algorithm, fraction-free: each remainder r is a
    pseudo-remainder, its cofactor s follows it, and the content of r and s
    together is divided out, which keeps r = s g mod f."""
    r0, r1 = list(g), list(f)
    s0, s1 = [1], []
    while r1:
        q, r, scale = pseudo_divmod(r0, r1)
        qs = zmul(q, s1)
        s = [scale * a for a in s0] + [0] * max(len(qs) - len(s0), 0)
        for i, a in enumerate(qs):
            s[i] -= a
        trim(s)
        c = _igcd(*r, *s)
        if c > 1:
            r, s = [a // c for a in r], [a // c for a in s]
        r0, r1, s0, s1 = r1, r, s1, s
    if len(r0) != 1:
        return None
    return s0, r0[0]
