"""Exact field arithmetic over Q, F_p and F_q = F_p[x]/(f).

Raw values are plain Python objects manipulated through a Field instance:
Fraction for the rationals, int in [0, p) for prime fields, and a tuple of
deg(f) ints for extension fields.  Keeping values unboxed keeps the linear
algebra loops cheap; FieldElement wraps (field, value) with operators for
use at the API boundary.

All three kinds are perfect fields: characteristic zero, or positive
characteristic with a computable p-th root (Frobenius is invertible).
"""

from fractions import Fraction

from . import gfpoly
from .errors import DivisionByZero, NotSupported, ParseError, SpecMismatch, ValidationError

_MR_BASES = (2, 3, 5, 7)  # deterministic Miller-Rabin witnesses below 3215031751 > 2^31


def is_prime(n):
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Base class; subclasses implement exact arithmetic on raw values."""

    kind = None

    # -- arithmetic on raw values ------------------------------------
    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        if self.is_zero(b):
            raise DivisionByZero(f"division by zero in {self}")
        return self.mul(a, self.inv(b))

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        result = self.one
        while n > 0:
            if n & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            n >>= 1
        return result

    def is_zero(self, a):
        return a == self.zero

    def is_one(self, a):
        return a == self.one

    def from_int(self, n):
        raise NotImplementedError

    def pth_root(self, a):
        """Inverse of Frobenius; identity in characteristic zero."""
        raise NotImplementedError

    def sort_key(self, a):
        raise NotImplementedError

    # -- metadata ----------------------------------------------------
    @property
    def characteristic(self):
        raise NotImplementedError

    @property
    def order(self):
        """Number of elements, or None for infinite fields."""
        return None

    def elements(self):
        raise NotSupported(f"cannot enumerate elements of {self}")

    def random(self, rng):
        raise NotImplementedError

    def format(self, a):
        raise NotImplementedError

    def parse(self, s):
        raise NotImplementedError

    def to_json(self):
        raise NotImplementedError

    def __ne__(self, other):
        return not self.__eq__(other)

    def element(self, value):
        return FieldElement(self, self.coerce(value))

    def coerce(self, value):
        if isinstance(value, FieldElement):
            if value.field != self:
                raise SpecMismatch(f"element of {value.field} used over {self}")
            return value.value
        if isinstance(value, int):
            return self.from_int(value)
        return value


class RationalField(Field):
    kind = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0 in Q")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by zero in Q")
        return a / b

    def is_zero(self, a):
        return a == 0

    def is_one(self, a):
        return a == 1

    def from_int(self, n):
        return Fraction(n)

    def pth_root(self, a):
        return a

    def sort_key(self, a):
        return (a.numerator, a.denominator)

    @property
    def characteristic(self):
        return 0

    def random(self, rng):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def format(self, a):
        return str(a)

    def parse(self, s):
        try:
            return Fraction(s.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {s!r}: {exc}") from None

    def to_json(self):
        return {"kind": "Q"}

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class PrimeField(Field):
    kind = "Fp"

    def __init__(self, p):
        if not isinstance(p, int) or not 2 <= p < 2**31:
            raise ValidationError(f"prime field characteristic out of range: {p}")
        if not is_prime(p):
            raise ValidationError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero(f"inverse of 0 in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def from_int(self, n):
        return n % self.p

    def pth_root(self, a):
        return a  # Frobenius is the identity on F_p

    def sort_key(self, a):
        return a

    @property
    def characteristic(self):
        return self.p

    @property
    def order(self):
        return self.p

    def elements(self):
        return range(self.p)

    def random(self, rng):
        return rng.randrange(self.p)

    def format(self, a):
        return str(a)

    def parse(self, s):
        try:
            return int(s.strip()) % self.p
        except ValueError as exc:
            raise ParseError(f"bad residue {s!r}: {exc}") from None

    def to_json(self):
        return {"kind": "Fp", "p": self.p}

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


class ExtensionField(Field):
    """F_q = F_p[x]/(modulus), elements as coefficient tuples of length deg."""

    kind = "Fq"

    def __init__(self, p, modulus):
        base = PrimeField(p)
        modulus = [c % p for c in modulus]
        if len(modulus) < 3 or modulus[-1] != 1:
            raise ValidationError("extension modulus must be monic of degree >= 2")
        if not gfpoly.is_irreducible(modulus, p):
            raise ValidationError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.base = base
        self.modulus = tuple(modulus)
        self.deg = len(modulus) - 1
        self.zero = (0,) * self.deg
        self.one = tuple([1] + [0] * (self.deg - 1))

    def _wrap(self, coeffs):
        return tuple(coeffs[i] if i < len(coeffs) else 0 for i in range(self.deg))

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        prod = gfpoly.mul(list(a), list(b), self.p)
        return self._wrap(gfpoly.mod(prod, list(self.modulus), self.p))

    def inv(self, a):
        if not any(a):
            raise DivisionByZero(f"inverse of 0 in {self}")
        d, s, _ = gfpoly.ext_gcd(gfpoly.trim(list(a)), list(self.modulus), self.p)
        if d != [1]:
            raise DivisionByZero("modulus not coprime; corrupt field")
        return self._wrap(s)

    def is_zero(self, a):
        return not any(a)

    def from_int(self, n):
        return self._wrap([n % self.p])

    def pth_root(self, a):
        # x -> x^p has order deg on F_q, so the inverse is x -> x^(p^(deg-1))
        return self.pow(a, self.p ** (self.deg - 1))

    def sort_key(self, a):
        return tuple(reversed(a))

    @property
    def characteristic(self):
        return self.p

    @property
    def order(self):
        return self.p**self.deg

    def elements(self):
        def gen(prefix, i):
            if i == self.deg:
                yield tuple(prefix)
                return
            for c in range(self.p):
                yield from gen(prefix + [c], i + 1)

        return gen([], 0)

    def random(self, rng):
        return tuple(rng.randrange(self.p) for _ in range(self.deg))

    def format(self, a):
        terms = []
        for i in range(self.deg - 1, -1, -1):
            c = a[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                terms.append(xpow if c == 1 else f"{c}*{xpow}")
        return "+".join(terms) if terms else "0"

    def parse(self, s):
        text = s.replace(" ", "").replace("-", "+-")
        if not text:
            raise ParseError("empty field element")
        coeffs = [0] * self.deg
        for term in text.split("+"):
            if not term:
                continue
            neg = term.startswith("-")
            if neg:
                term = term[1:]
            try:
                if "x" in term:
                    coef_part, _, pow_part = term.partition("x")
                    coef = int(coef_part.rstrip("*")) if coef_part.rstrip("*") else 1
                    exp = int(pow_part[1:]) if pow_part.startswith("^") else (1 if not pow_part else None)
                else:
                    coef, exp = int(term), 0
            except ValueError:
                exp = None
            if exp is None:
                raise ParseError(f"bad term {term!r} in {s!r}")
            if exp >= self.deg:
                raise ParseError(f"exponent {exp} exceeds field degree in {s!r}")
            coeffs[exp] = (coeffs[exp] + (-coef if neg else coef)) % self.p
        return tuple(coeffs)

    def to_json(self):
        return {"kind": "Fq", "p": self.p, "modulus": list(self.modulus)}

    def __repr__(self):
        return f"GF({self.p}^{self.deg})"

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.p == self.p
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("Fq", self.p, self.modulus))


QQ = RationalField()


def GF(p, modulus=None):
    """Convenience constructor: GF(5) or GF(2, [1, 1, 1]) for F_4."""
    if modulus is None:
        return PrimeField(p)
    return ExtensionField(p, list(modulus))


def field_from_json(obj):
    try:
        kind = obj["kind"]
        if kind == "Q":
            return QQ
        if kind == "Fp":
            return PrimeField(obj["p"])
        if kind == "Fq":
            return ExtensionField(obj["p"], list(obj["modulus"]))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad field spec {obj!r}: {exc}") from None
    raise ParseError(f"unknown field kind {kind!r}")


class FieldElement:
    """A raw value tagged with its field; supports operators exactly."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = field.coerce(value)

    def _rhs(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise SpecMismatch(f"mixed fields {self.field} and {other.field}")
            return other.value
        if isinstance(other, int):
            return self.field.from_int(other)
        return NotImplemented

    def __add__(self, other):
        v = self._rhs(other)
        return FieldElement(self.field, self.field.add(self.value, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._rhs(other)
        return FieldElement(self.field, self.field.sub(self.value, v))

    def __rsub__(self, other):
        v = self._rhs(other)
        return FieldElement(self.field, self.field.sub(v, self.value))

    def __mul__(self, other):
        v = self._rhs(other)
        return FieldElement(self.field, self.field.mul(self.value, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._rhs(other)
        return FieldElement(self.field, self.field.div(self.value, v))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.value))

    def __pow__(self, n):
        return FieldElement(self.field, self.field.pow(self.value, n))

    def inverse(self):
        return FieldElement(self.field, self.field.inv(self.value))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.value == other.value
        if isinstance(other, int):
            return self.value == self.field.from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def __bool__(self):
        return not self.field.is_zero(self.value)

    def __repr__(self):
        return f"{self.field.format(self.value)}"


def field_arith(a, b, op):
    """Dispatch a binary field operation by name; 'inv' ignores b."""
    if not isinstance(a, FieldElement):
        raise SpecMismatch("field_arith expects FieldElement operands")
    if op == "inv":
        return a.inverse()
    if op == "eq":
        return a == b
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise NotSupported(f"unknown field operation {op!r}")
