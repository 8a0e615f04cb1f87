"""Univariate polynomials over an exact field.

Coefficients are raw field values in ascending order; the zero polynomial
has an empty coefficient list.  Construction normalizes away trailing zeros,
so equal polynomials compare equal structurally.

Over Q, division and gcd run on integer coefficient lists (`gfpoly`): each
operand is its numerators over one denominator, division is pseudo-division
and the gcd a primitive remainder sequence, and only the result is built
from `Fraction`s.
"""

from fractions import Fraction

from . import gfpoly
from .errors import DivisionByZero, SpecMismatch


class Polynomial:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = [field.coerce(c) for c in coeffs]
        while coeffs and field.is_zero(coeffs[-1]):
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def _trusted(cls, field, coeffs):
        """From a list of field values that an operation has just computed:
        trims trailing zeros, skips `coerce`."""
        while coeffs and field.is_zero(coeffs[-1]):
            coeffs.pop()
        poly = cls.__new__(cls)
        poly.field = field
        poly.coeffs = tuple(coeffs)
        return poly

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def one(cls, field):
        return cls(field, [field.one])

    @classmethod
    def x(cls, field):
        return cls(field, [field.zero, field.one])

    @classmethod
    def from_ints(cls, field, ints):
        return cls(field, [field.from_int(n) for n in ints])

    @property
    def degree(self):
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return len(self.coeffs) == 1 and self.field.is_one(self.coeffs[0])

    def leading(self):
        if not self.coeffs:
            return self.field.zero
        return self.coeffs[-1]

    def is_monic(self):
        return bool(self.coeffs) and self.field.is_one(self.coeffs[-1])

    def _check(self, other):
        if self.field != other.field:
            raise SpecMismatch("polynomials over different fields")

    def __add__(self, other):
        self._check(other)
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        out = [F.zero] * n
        for i, c in enumerate(self.coeffs):
            out[i] = c
        for i, c in enumerate(other.coeffs):
            out[i] = F.add(out[i], c)
        return Polynomial._trusted(F, out)

    def __sub__(self, other):
        self._check(other)
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        out = [F.zero] * n
        for i, c in enumerate(self.coeffs):
            out[i] = c
        for i, c in enumerate(other.coeffs):
            out[i] = F.sub(out[i], c)
        return Polynomial._trusted(F, out)

    def __neg__(self):
        F = self.field
        return Polynomial._trusted(F, [F.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        F = self.field
        if not self.coeffs or not other.coeffs:
            return Polynomial.zero(F)
        out = [F.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if F.is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                if not F.is_zero(b):
                    out[i + j] = F.add(out[i + j], F.mul(a, b))
        return Polynomial._trusted(F, out)

    def scale(self, c):
        F = self.field
        c = F.coerce(c)
        return Polynomial._trusted(F, [F.mul(c, a) for a in self.coeffs])

    def __pow__(self, n):
        result = Polynomial.one(self.field)
        base = self
        while n > 0:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other):
        self._check(other)
        F = self.field
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        if F.kind == "Q":
            # scale a = q b + r on numerators, a = A / da and b = B / db
            A, da = gfpoly.clear_denominators(self.coeffs)
            B, db = gfpoly.clear_denominators(other.coeffs)
            q, r, scale = gfpoly.pseudo_divmod(A, B)
            den = scale * da
            return (Polynomial._trusted(F, [Fraction(c * db, den) for c in q]),
                    Polynomial._trusted(F, [Fraction(c, den) for c in r]))
        rem = list(self.coeffs)
        dn, dd = len(rem) - 1, other.degree
        if dn < dd:
            return Polynomial.zero(F), self
        q = [F.zero] * (dn - dd + 1)
        inv_lead = F.inv(other.coeffs[-1])
        for k in range(dn - dd, -1, -1):
            c = F.mul(rem[dd + k], inv_lead)
            q[k] = c
            if not F.is_zero(c):
                for i, b in enumerate(other.coeffs):
                    rem[k + i] = F.sub(rem[k + i], F.mul(c, b))
        return Polynomial._trusted(F, q), Polynomial._trusted(F, rem[:dd])

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def gcd(self, other):
        """The monic gcd; 0 when both are 0."""
        if self.field.kind == "Q":
            self._check(other)
            g = gfpoly.zgcd(self.coeffs, other.coeffs)
            return Polynomial._trusted(self.field, [Fraction(c, g[-1]) for c in g])
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def derivative(self):
        F = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(F.mul(F.from_int(i), self.coeffs[i]))
        return Polynomial._trusted(F, out)

    def pow_mod(self, n, modulus):
        result = Polynomial.one(self.field)
        base = self % modulus
        while n > 0:
            if n & 1:
                result = (result * base) % modulus
            base = (base * base) % modulus
            n >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def sort_key(self):
        F = self.field
        return (len(self.coeffs), tuple(F.sort_key(c) for c in reversed(self.coeffs)))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        F = self.field
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if F.is_zero(c):
                continue
            cs = F.format(c)
            if i == 0:
                terms.append(cs)
            else:
                var = "t" if i == 1 else f"t^{i}"
                terms.append(var if cs == "1" else f"({cs})*{var}")
        return " + ".join(terms)
