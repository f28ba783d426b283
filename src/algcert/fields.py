"""Exact base fields: the rationals and prime fields GF(p).

Scalars are plain Python values: ``fractions.Fraction`` over Q and ``int``
residues in [0, p) over GF(p).  A field object supplies the arithmetic so the
rest of the package is field-agnostic.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadScalar

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981  # least strong pseudoprime to all _MR_BASES


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases _MR_BASES: a proof for n < MR_EXACT_BELOW."""
    if n < 2:
        return False
    for q in _MR_BASES:
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
    """Common interface; concrete fields are RationalField and PrimeField."""

    characteristic: int

    def coerce(self, x):
        raise NotImplementedError

    def is_zero(self, s) -> bool:
        return not s

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def format(self, s) -> str:
        return str(s)


class RationalField(Field):
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, bool):
            raise BadScalar(f"boolean is not a scalar: {x!r}")
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            try:
                return Fraction(x.strip())
            except (ValueError, ZeroDivisionError) as exc:
                raise BadScalar(f"bad rational literal {x!r}") from exc
        raise BadScalar(f"cannot coerce {type(x).__name__} into Q")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return 1 / a

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField(Field):
    """GF(p) for a prime 2 <= p < 2**31; residues stored reduced."""

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p < 2**31 or not is_prime(p):
            raise BadScalar(f"modulus must be a prime in [2, 2^31): {p!r}")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        if isinstance(x, bool):
            raise BadScalar(f"boolean is not a scalar: {x!r}")
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            return self._from_ratio(x.numerator, x.denominator)
        if isinstance(x, str):
            text = x.strip()
            try:
                if "/" in text:
                    num, den = text.split("/", 1)
                    return self._from_ratio(int(num), int(den))
                return int(text) % self.p
            except ValueError as exc:
                raise BadScalar(f"bad GF({self.p}) literal {x!r}") from exc
        raise BadScalar(f"cannot coerce {type(x).__name__} into GF({self.p})")

    def _from_ratio(self, num: int, den: int) -> int:
        if den % self.p == 0:
            raise BadScalar(f"denominator {den} is 0 mod {self.p}")
        return num * pow(den, -1, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in GF({self.p})")
        return pow(a, -1, self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_json(obj) -> Field:
    if not isinstance(obj, dict) or "type" not in obj:
        raise BadScalar(f"bad field descriptor: {obj!r}")
    if obj["type"] == "Q":
        return QQ
    if obj["type"] == "GFp":
        return PrimeField(obj.get("p"))
    raise BadScalar(f"unknown field type: {obj['type']!r}")


def parse_field_flag(text: str) -> Field:
    """Parse a CLI field flag: 'Q' or 'GFp:<p>'."""
    if text == "Q":
        return QQ
    if text.startswith("GFp:"):
        try:
            return PrimeField(int(text[4:]))
        except ValueError as exc:
            raise BadScalar(f"bad field flag {text!r}") from exc
    raise BadScalar(f"bad field flag {text!r} (expected Q or GFp:<p>)")


def scalar_to_json(field: Field, s):
    """JSON form: GF(p) residues as ints, rationals as 'p/q' strings or ints."""
    if isinstance(field, PrimeField):
        return int(s)
    fr = field.coerce(s)
    if fr.denominator == 1:
        return int(fr.numerator)
    return str(fr)
