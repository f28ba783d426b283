"""Multivariate polynomials, the truncated ring k[X1..Xn]/<X1..Xn>^l,
a text parser for polynomial expressions, and linear changes of variables.

Monomials are exponent tuples.  Terms are kept in a dict with no zero
coefficients; the serialization order is graded lexicographic (lower total
degree first, higher X1-power first within a degree).
"""

from __future__ import annotations

import itertools
import re

from .algebra import MAX_RING_MONOMIALS
from .errors import (AmbientMismatch, NotAdmissible, NotInvertible, NotSHomogeneous,
                     OutOfRangeVariable, PolySyntaxError, SearchSpaceTooLarge, ZeroInput)
from .fields import Field, PrimeField
from .linalg import row_rank


def grlex_key(m: tuple):
    return (sum(m), tuple(-e for e in m))


class Poly:
    """Polynomial in n_vars variables over an exact field."""

    __slots__ = ("n_vars", "field", "terms")

    def __init__(self, n_vars: int, field: Field, terms=None):
        self.n_vars = n_vars
        self.field = field
        self.terms = {}
        if terms:
            for mono, coeff in terms.items():
                c = field.coerce(coeff)
                if not field.is_zero(c):
                    if len(mono) != n_vars:
                        raise AmbientMismatch("monomial arity != n_vars")
                    self.terms[tuple(mono)] = c

    @classmethod
    def zero(cls, n_vars: int, field: Field) -> Poly:
        return cls(n_vars, field)

    @classmethod
    def constant(cls, n_vars: int, field: Field, c) -> Poly:
        return cls(n_vars, field, {(0,) * n_vars: c})

    @classmethod
    def monomial(cls, n_vars: int, field: Field, exponents, coeff=1) -> Poly:
        return cls(n_vars, field, {tuple(exponents): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def coefficient(self, mono: tuple):
        return self.terms.get(tuple(mono), self.field.zero)

    def _binop(self, other: Poly, op) -> Poly:
        if other.n_vars != self.n_vars or other.field != self.field:
            raise AmbientMismatch("polynomials over different rings")
        f = self.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = op(out.get(m, f.zero), c)
        return Poly(self.n_vars, f, out)

    def add(self, other: Poly) -> Poly:
        return self._binop(other, self.field.add)

    def sub(self, other: Poly) -> Poly:
        return self._binop(other, self.field.sub)

    def neg(self) -> Poly:
        f = self.field
        return Poly(self.n_vars, f, {m: f.neg(c) for m, c in self.terms.items()})

    def scale(self, c) -> Poly:
        f = self.field
        c = f.coerce(c)
        return Poly(self.n_vars, f, {m: f.mul(c, v) for m, v in self.terms.items()})

    def mul(self, other: Poly) -> Poly:
        if other.n_vars != self.n_vars or other.field != self.field:
            raise AmbientMismatch("polynomials over different rings")
        f = self.field
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                v = f.mul(c1, c2)
                cur = out.get(m)
                out[m] = v if cur is None else f.add(cur, v)
        return Poly(self.n_vars, f, out)

    def pow(self, e: int) -> Poly:
        if e < 0:
            raise ValueError("negative power")
        result = Poly.constant(self.n_vars, self.field, 1)
        base = self
        while e:
            if e & 1:
                result = result.mul(base)
            base = base.mul(base)
            e >>= 1
        return result

    def evaluate(self, point):
        f = self.field
        point = [f.coerce(x) for x in point]
        acc = f.zero
        for m, c in self.terms.items():
            v = c
            for e, x in zip(m, point):
                for _ in range(e):
                    v = f.mul(v, x)
            acc = f.add(acc, v)
        return acc

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def support_variables(self) -> list[int]:
        """0-based indices of variables that actually occur."""
        out = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    out.add(i)
        return sorted(out)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.n_vars == other.n_vars
                and self.field == other.field and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n_vars, self.field, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        f = self.field
        pieces = []
        for idx, (m, c) in enumerate(self.sorted_terms()):
            factors = [f"X{i + 1}" + (f"^{e}" if e > 1 else "")
                       for i, e in enumerate(m) if e > 0]
            neg = False
            if not isinstance(f, PrimeField) and c < 0:
                neg = True
                c = -c
            coeff_txt = f.format(c)
            if factors and coeff_txt == "1":
                body = "*".join(factors)
            elif factors:
                body = coeff_txt + "*" + "*".join(factors)
            else:
                body = coeff_txt
            if idx == 0:
                pieces.append(("-" if neg else "") + body)
            else:
                pieces.append(("- " if neg else "+ ") + body)
        return " ".join(pieces)

    def __repr__(self):
        return f"Poly({self})"


def homogeneous_components(f: Poly) -> dict[int, Poly]:
    """Map degree -> homogeneous part; empty for the zero polynomial."""
    buckets: dict[int, dict] = {}
    for m, c in f.terms.items():
        buckets.setdefault(sum(m), {})[m] = c
    return {d: Poly(f.n_vars, f.field, t) for d, t in sorted(buckets.items())}


def partial_derivative(f: Poly, i: int) -> Poly:
    """Formal derivative with respect to X_{i+1} (0-based i)."""
    if not 0 <= i < f.n_vars:
        raise OutOfRangeVariable(f"variable index {i} out of range")
    fld = f.field
    out: dict = {}
    for m, c in f.terms.items():
        e = m[i]
        if e == 0:
            continue
        coeff = fld.mul(c, fld.coerce(e))
        if fld.is_zero(coeff):
            continue
        mono = tuple(x - 1 if j == i else x for j, x in enumerate(m))
        out[mono] = fld.add(out.get(mono, fld.zero), coeff)
    return Poly(f.n_vars, fld, out)


class LinearChange:
    """Invertible linear substitution X_j -> sum_i m[i][j] X_i, i.e. f -> f(XM),
    for M given by its rows.  Each entry goes through field.coerce, so a bad
    scalar raises BadScalar; ragged rows raise AmbientMismatch, and rows
    that are not square or are singular NotInvertible."""

    __slots__ = ("field", "rows")

    def __init__(self, field: Field, rows):
        self.field = field
        self.rows = [[field.coerce(x) for x in row] for row in rows]
        if len({len(row) for row in self.rows}) > 1:
            raise AmbientMismatch("ragged change-of-variables rows")
        if any(len(row) != len(self.rows) for row in self.rows):
            raise NotInvertible("change-of-variables matrix must be square")
        if row_rank(self.rows, field) < len(self.rows):
            raise NotInvertible("change-of-variables matrix is singular")

    @property
    def n_vars(self) -> int:
        return len(self.rows)

    def __repr__(self):
        return f"LinearChange({self.field!r}, {self.rows!r})"


def apply_linear_change(change: LinearChange, f: Poly) -> Poly:
    """Substitute X_j -> column j of the matrix; degree-preserving."""
    if change.n_vars != f.n_vars:
        raise AmbientMismatch("change of variables has wrong arity")
    fld = f.field
    n = f.n_vars
    images = []
    for j in range(n):
        img = Poly(n, fld, {tuple(1 if t == i else 0 for t in range(n)):
                            change.rows[i][j] for i in range(n)})
        images.append(img)
    out = Poly.zero(n, fld)
    power_cache: dict[tuple[int, int], Poly] = {}
    for m, c in f.terms.items():
        term = Poly.constant(n, fld, c)
        for j, e in enumerate(m):
            if e == 0:
                continue
            key = (j, e)
            if key not in power_cache:
                power_cache[key] = images[j].pow(e)
            term = term.mul(power_cache[key])
        out = out.add(term)
    return out


def monomial_gcd_factor(f: Poly) -> tuple[tuple, Poly]:
    """Split f = M * g with M the componentwise-min monomial of f's support."""
    if f.is_zero():
        raise ZeroInput("cannot factor the zero polynomial")
    monos = list(f.terms)
    m_gcd = tuple(min(m[i] for m in monos) for i in range(f.n_vars))
    rest = {tuple(a - b for a, b in zip(m, m_gcd)): c for m, c in f.terms.items()}
    return m_gcd, Poly(f.n_vars, f.field, rest)


def s_index(g: Poly) -> int | None:
    """Largest s with g supported on variables X_s..X_n (1-based).

    Raises NotSHomogeneous on constant or single-monomial input; returns
    None if g is not homogeneous.
    """
    if g.is_zero() or g.is_constant() or g.is_monomial():
        raise NotSHomogeneous("need a non-constant, non-monomial polynomial")
    if not g.is_homogeneous():
        return None
    return min(g.support_variables()) + 1


# -- truncated ring ------------------------------------------------------------

def degree_monomials(n_vars: int, d: int) -> list[tuple]:
    """The C(n+d-1, d) exponent tuples of degree d in n variables, in grlex order."""
    # stars and bars: n-1 bar positions among d+n-1 slots give each tuple
    # once.  Bar k stands at e_1 + ... + e_(k+1) + k, so the bars in reverse
    # lexicographic order give the exponents in reverse lexicographic order,
    # which is grlex within one degree
    slots = d + n_vars - 1
    return [tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))
            for bars in reversed(list(itertools.combinations(range(slots), n_vars - 1)))]


def check_ring(n_vars: int, trunc_degree: int) -> int:
    """The number C(n+l-1, k), k = min(n, l-1), of monomials of
    k[X1..Xn]/<X1..Xn>^l.  The ring is refused when n or l is below 1 or
    that number is above MAX_RING_MONOMIALS, before anything of that size
    is built.  C(N, i) = C(N, i-1) (N-i+1)/i grows with i up to k <= N/2,
    so the product stops once it passes the bound, and the refusal then
    names the bound as a lower bound."""
    if n_vars < 1 or trunc_degree < 1:
        raise NotAdmissible(f"need n_vars >= 1, trunc_degree >= 1; got {n_vars}, {trunc_degree}")
    top, k, size = n_vars + trunc_degree - 1, min(n_vars, trunc_degree - 1), 1
    for i in range(1, k + 1):
        if (size := size * (top - i + 1) // i) > MAX_RING_MONOMIALS:
            raise SearchSpaceTooLarge(size if i == k else f"more than {MAX_RING_MONOMIALS}",
                                      MAX_RING_MONOMIALS, "truncated ring", "monomials")
    return size


class TruncatedRing:
    """k[X1..Xn]/<X1..Xn>^l with the graded-lex monomial coordinate system."""

    __slots__ = ("n_vars", "trunc_degree", "monomials", "index")

    def __init__(self, n_vars: int, trunc_degree: int):
        check_ring(n_vars, trunc_degree)
        self.n_vars = n_vars
        self.trunc_degree = trunc_degree
        monos = [m for d in range(trunc_degree) for m in degree_monomials(n_vars, d)]
        self.monomials = monos
        self.index = {m: i for i, m in enumerate(monos)}

    @property
    def dim(self) -> int:
        return len(self.monomials)

    def degree_slice(self, d: int) -> list[int]:
        """Coordinate positions of the degree-d monomials."""
        return [i for i, m in enumerate(self.monomials) if sum(m) == d]

    def truncate(self, f: Poly) -> dict:
        """Coordinates {index: c} of f modulo <X>^l; drops terms of degree >= l."""
        if f.n_vars != self.n_vars:
            raise AmbientMismatch("polynomial arity != ring arity")
        return {self.index[m]: c for m, c in f.terms.items() if sum(m) < self.trunc_degree}

    def times(self, pairs, m: tuple) -> dict:
        """The monomial m times the element with these (index, c) pairs, as
        {index: c}: each term goes to one monomial, or past the cut."""
        monos, cut = self.monomials, self.trunc_degree - sum(m)
        return {self.index[tuple(a + b for a, b in zip(monos[j], m))]: c
                for j, c in pairs if sum(monos[j]) < cut}

    def poly_from_vector(self, v, field: Field) -> Poly:
        """The polynomial with coordinates v, a list or a dict {index: c}."""
        pairs = v.items() if isinstance(v, dict) else enumerate(v)
        return Poly(self.n_vars, field, {self.monomials[j]: c for j, c in pairs})

    def __repr__(self):
        return f"TruncatedRing(n={self.n_vars}, l={self.trunc_degree})"


# -- parser --------------------------------------------------------------------

_TOKEN = re.compile(r"\d+|\S")  # a run of decimal digits, or one other character


def parse_poly(text: str, n_vars: int, field: Field) -> Poly:
    """Parse 'expr := term (('+'|'-') term)*' with X<i>[^e] factors.

    A term is a coefficient 'a' or 'a/b', a '*'-product of factors, or a
    coefficient '*' such a product; the field reads the coefficient, so over
    GF(p) b is inverted mod p.  Digits are decimal digits, the characters
    ``int`` reads.  A unary sign may prefix the first term.
    """
    toks = [(m.group(), m.start()) for m in _TOKEN.finditer(text)] + [("", len(text))]
    at = 0

    def integer() -> int:
        nonlocal at
        tok, pos = toks[at]
        at += 1
        try:
            return int(tok)
        except ValueError:
            raise PolySyntaxError("expected an integer", pos) from None

    def skip(ch: str) -> bool:
        nonlocal at
        at += (found := toks[at][0] == ch)
        return found

    terms: dict = {}
    sign = toks[0][0]
    while True:
        at += sign in ("+", "-")
        tok, pos = toks[at]
        if not tok:
            raise PolySyntaxError("expected a term", pos)
        exps, coeff, more = [0] * n_vars, field.one, True
        if tok.isdecimal():
            num = integer()
            coeff = field.coerce(f"{num}/{integer()}" if skip("/") else str(num))
            more = skip("*")
        while more:
            if not skip("X"):
                raise PolySyntaxError("expected a variable like X1", toks[at][1])
            idx = integer()
            if not 1 <= idx <= n_vars:
                raise OutOfRangeVariable(f"variable X{idx} exceeds n_vars={n_vars}")
            exps[idx - 1] += integer() if skip("^") else 1
            more = skip("*")
        mono = tuple(exps)
        terms[mono] = field.add(terms.get(mono, field.zero),
                                field.neg(coeff) if sign == "-" else coeff)
        if field.is_zero(terms[mono]):
            del terms[mono]  # as Poly.add drops it: a later term re-enters at the end
        sign, pos = toks[at]
        if not sign:
            return Poly(n_vars, field, terms)
        if sign not in ("+", "-"):
            raise PolySyntaxError(f"unexpected character {sign[0]!r}", pos)
