"""Minimal polynomials of linear sequences and root extraction in a base field.

Used by idempotent splitting (roots of the minimal polynomial of an element)
and by the rational-flag search (eigenvalues of restricted actions).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .errors import InternalInconsistency, UnfactoredInteger
from .fields import MR_EXACT_BELOW, QQ, Field, PrimeField, is_prime
from .linalg import Coordinates, combine, int_terms, scalars


def minimal_polynomial(vectors, field: Field) -> list:
    """Monic minimal polynomial (ascending coefficients) of a power sequence.

    ``vectors`` yields v0, v1, v2, ... where v_{k+1} is the image of v_k
    under a fixed linear map.  Each v_k, times its least common denominator
    s_k, joins one echelon that records combinations, until the first v_n
    dependent on the earlier ones: its coordinates r s_n v_n = sum c_k s_k
    v_k give the polynomial t^n - sum (c_k s_k / (r s_n)) t^k.
    """
    grown, scales = Coordinates(field, [], []), []
    for v in vectors:
        s, (terms,) = int_terms([[(k, x) for k, x in enumerate(scalars(v, field)) if x]])
        if not grown.add(dict(terms)):
            r, c = grown.coords(dict(terms))
            return [field.div(field.coerce(-c.get(k, 0) * a), field.coerce(r * s))
                    for k, a in enumerate(scales)] + [field.one]
        scales.append(s)
    raise InternalInconsistency("a power sequence ended with no dependent power")


def operator_power_sequence(rows, field: Field):
    """Yields I, M, M^2, ... flattened row by row, for M the square matrix
    with these rows of the field's scalars."""
    n = len(rows)
    cur = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    while True:
        yield [x for row in cur for x in row]
        cur = [combine(field, zip(row, rows), n) for row in cur]


_TRIAL_BOUND = 10**6
_RHO_STEPS = 1 << 18  # longest cycle one rho walk looks for


def factor_integer(n: int) -> dict[int, int]:
    """{prime: exponent} of the nonzero n, by trial division to _TRIAL_BOUND,
    then seeded Brent-Pollard rho.  Each prime is proved so (below the next
    trial divisor squared, or by ``is_prime`` below MR_EXACT_BELOW); a
    cofactor neither split nor proved prime raises UnfactoredInteger."""
    n, factors, d = abs(n), {}, 2
    while d * d <= n and d <= _TRIAL_BOUND:
        while n % d == 0:
            n //= d
            factors[d] = factors.get(d, 0) + 1
        d += 1 if d == 2 else 2
    rng, rest = random.Random(0x5eed), [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if m < d * d or (m < MR_EXACT_BELOW and is_prime(m)):
            factors[m] = factors.get(m, 0) + 1
        elif f := _rho_factor(m, rng):
            rest += [f, m // f]
        else:
            raise UnfactoredInteger(f"cofactor {m} could be neither split nor proved prime")
    return dict(sorted(factors.items()))


def _rho_factor(n: int, rng: random.Random) -> int | None:
    """A proper factor of the odd n by Brent's cycle search on y -> y^2 + c,
    or None when two walks of up to _RHO_STEPS steps find none."""
    for _ in range(2):
        c, y, r, g = rng.randrange(1, n), rng.randrange(n), 1, 1
        while g == 1 and r <= _RHO_STEPS:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                if (g := gcd(x - y, n)) != 1:
                    break
            r *= 2
        if 1 < g < n:
            return g
    return None


def _divisors(n: int) -> list[int]:
    """All positive divisors of the nonzero integer n."""
    divs = [1]
    for prime, e in factor_integer(n).items():
        divs = [dv * prime**k for dv in divs for k in range(e + 1)]
    return divs


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots of a nonzero polynomial with Fraction coefficients."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    low = next(i for i, c in enumerate(ints) if c)
    roots = [Fraction(0)] if low else []
    ints = ints[low:]
    if len(ints) == 1:
        return roots
    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            if gcd(p, q) == 1:
                roots += [c for c in (Fraction(p, q), Fraction(-p, q))
                          if poly_eval(ints, c, QQ) == 0]
    return sorted(set(roots))


# -- univariate polynomials: ascending coefficient lists over a Field --------

def _trim(a: list, field: Field) -> list:
    while a and field.is_zero(a[-1]):
        a.pop()
    return a


def poly_divmod(a: list, b: list, field: Field) -> tuple[list, list]:
    """(q, r) with a = q b + r and deg r < deg b, both trimmed; b nonzero."""
    b = _trim(list(b), field)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = _trim(list(a), field)
    inv = field.inv(b[-1])
    q = [field.zero] * max(len(r) - len(b) + 1, 0)
    for shift in range(len(q) - 1, -1, -1):
        c = q[shift] = field.mul(r[shift + len(b) - 1], inv)
        for i, m in enumerate(b):
            r[shift + i] = field.sub(r[shift + i], field.mul(c, m))
    return _trim(q, field), _trim(r[:len(b) - 1], field)


def poly_gcd(a: list, b: list, field: Field) -> list:
    """Monic gcd of a and b; [] when both are zero."""
    a, b = _trim(list(a), field), _trim(list(b), field)
    while b:
        a, b = b, poly_divmod(a, b, field)[1]
    if not a:
        return a
    inv = field.inv(a[-1])
    return [field.mul(inv, c) for c in a]


def poly_eval(f: list, x, field: Field):
    """f(x) by Horner's rule."""
    acc = field.zero
    for c in reversed(f):
        acc = field.add(field.mul(acc, x), c)
    return acc


def _powmod(base: list, e: int, mod: list, field: Field) -> list:
    """base^e modulo mod for e >= 1, by repeated squaring."""
    def mulmod(x, y):
        prod = [field.zero] * max(len(x) + len(y) - 1, 0)
        for i, u in enumerate(x):
            for j, v in enumerate(y):
                prod[i + j] = field.add(prod[i + j], field.mul(u, v))
        return poly_divmod(prod, mod, field)[1]

    result = [field.one]
    base = poly_divmod(base, mod, field)[1]
    while e:
        if e & 1:
            result = mulmod(result, base)
        base = mulmod(base, base)
        e >>= 1
    return result


def _gfp_roots(f: list, field: PrimeField) -> list[int]:
    """Distinct roots in GF(p) of a nonzero trimmed polynomial."""
    p = field.p
    if p <= 4096 or len(f) - 1 >= p:
        return [a for a in range(p) if field.is_zero(poly_eval(f, a, field))]
    # split off the product of distinct linear factors: gcd(t^p - t, f)
    tp = _powmod([0, 1], p, f, field) + [0, 0]
    tp[1] = field.sub(tp[1], field.one)
    g = poly_gcd(tp, f, field)
    return sorted(_gfp_split_linear(g, field, random.Random(0x5eed)))


def _gfp_split_linear(g: list, field: PrimeField, rng: random.Random) -> list[int]:
    """Equal-degree (degree 1) splitting of a monic squarefree product of
    linear factors (Cantor-Zassenhaus)."""
    deg = len(g) - 1
    if deg <= 0:
        return []
    if deg == 1:
        return [field.neg(g[0])]
    if field.is_zero(g[0]):
        return [0] + _gfp_split_linear(g[1:], field, rng)
    while True:
        a = rng.randrange(field.p)
        probe = _powmod([a, 1], (field.p - 1) // 2, g, field) or [0]
        probe[0] = field.sub(probe[0], field.one)
        h = poly_gcd(probe, g, field)
        if 0 < len(h) - 1 < deg:
            rest = poly_divmod(g, h, field)[0]
            return _gfp_split_linear(h, field, rng) + _gfp_split_linear(rest, field, rng)


def roots_in_field(coeffs, field: Field) -> list:
    """Distinct roots lying in the base field, sorted deterministically."""
    f = _trim([field.coerce(c) for c in coeffs], field)
    if not f:
        raise ValueError("zero polynomial has every root")
    if isinstance(field, PrimeField):
        return _gfp_roots(f, field)
    return _rational_roots(f)
