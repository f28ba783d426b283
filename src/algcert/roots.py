"""Minimal polynomials of linear sequences and root extraction in a base field.

Used by idempotent splitting (roots of the minimal polynomial of an element)
and by the rational-flag search (eigenvalues of restricted actions).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .errors import InternalInconsistency
from .fields import Field, PrimeField
from .linalg import Echelon, Matrix, Subspace, solve


def minimal_polynomial(vectors, field: Field) -> list:
    """Monic minimal polynomial (ascending coefficients) of a power sequence.

    ``vectors`` yields v0, v1, v2, ... where v_{k+1} is the image of v_k
    under a fixed linear map; the minimal k with v_k dependent on the
    earlier ones gives the polynomial sum(c_i t^i) + t^k.
    """
    it = iter(vectors)
    v = [field.coerce(x) for x in next(it)]
    seen = Echelon(Subspace.zero(field, len(v)))
    collected: list[list] = []
    while seen.add(v):
        collected.append(v)
        v = [field.coerce(x) for x in next(it)]
    coeffs = solve(Matrix.from_columns(field, collected), v)
    if coeffs is None:
        raise InternalInconsistency("a dependent power is not a combination of earlier ones")
    return [field.neg(c) for c in coeffs] + [field.one]


def operator_power_sequence(mat: Matrix):
    """Yields flatten(I), flatten(M), flatten(M^2), ..."""
    cur = Matrix.identity(mat.field, mat.nrows)
    while True:
        yield cur.flatten()
        cur = cur.mul(mat)


def _divisors_bounded(n: int, trial_bound: int = 10**6) -> list[int]:
    """All positive divisors of |n|; trial division with a cofactor fallback.

    If a composite cofactor above the trial bound remains, it is kept as a
    single candidate factor (its internal splits are not enumerated).
    """
    n = abs(n)
    if n == 0:
        return []
    factors: list[tuple[int, int]] = []
    m = n
    d = 2
    while d * d <= m and d <= trial_bound:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        factors.append((m, 1))
    divs = [1]
    for prime, e in factors:
        divs = [dv * prime**k for dv in divs for k in range(e + 1)]
    return sorted(set(divs))


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots of a nonzero polynomial with Fraction coefficients."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        return []
    roots = []
    low = 0
    while low < len(ints) and ints[low] == 0:
        low += 1
    if low > 0:
        roots.append(Fraction(0))
        ints = ints[low:]
    if len(ints) <= 1:
        return sorted(set(roots))
    a0, an = ints[0], ints[-1]
    for p in _divisors_bounded(a0):
        for q in _divisors_bounded(an):
            if gcd(p, q) != 1:
                continue
            for cand in (Fraction(p, q), Fraction(-p, q)):
                acc = Fraction(0)
                for c in reversed(ints):
                    acc = acc * cand + c
                if acc == 0:
                    roots.append(cand)
    return sorted(set(roots))


# -- univariate polynomials over GF(p), dense ascending coefficient lists ----

def _gfp_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _gfp_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] = (prod[i + j] + x * y) % p
    return _gfp_rem(prod, mod, p)


def _gfp_rem(a: list[int], mod: list[int], p: int) -> list[int]:
    a = [x % p for x in a]
    _gfp_trim(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], -1, p)
    while len(a) - 1 >= dm:
        c = a[-1] * inv_lead % p
        shift = len(a) - 1 - dm
        for i, m in enumerate(mod):
            a[shift + i] = (a[shift + i] - c * m) % p
        _gfp_trim(a)
    return a


def _gfp_powmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _gfp_rem(list(base), mod, p)
    while e:
        if e & 1:
            result = _gfp_mulmod(result, base, mod, p)
        base = _gfp_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _gfp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = [x % p for x in a], [x % p for x in b]
    _gfp_trim(a)
    _gfp_trim(b)
    while b:
        a, b = b, _gfp_rem(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [x * inv % p for x in a]
    return a


def _gfp_roots(coeffs: list[int], p: int) -> list[int]:
    """Distinct roots in GF(p) of a nonzero polynomial (ascending coeffs)."""
    f = [c % p for c in coeffs]
    _gfp_trim(f)
    if not f:
        return []
    if p <= 4096 or len(f) - 1 >= p:
        return [a for a in range(p) if _gfp_eval(f, a, p) == 0]
    # split off the product of distinct linear factors: gcd(t^p - t, f)
    tp = _gfp_powmod([0, 1], p, f, p)
    tp_minus_t = list(tp)
    while len(tp_minus_t) < 2:
        tp_minus_t.append(0)
    tp_minus_t[1] = (tp_minus_t[1] - 1) % p
    g = _gfp_gcd(tp_minus_t, f, p)
    return sorted(_gfp_split_linear(g, p, random.Random(0x5eed)))


def _gfp_eval(f: list[int], a: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * a + c) % p
    return acc


def _gfp_split_linear(g: list[int], p: int, rng: random.Random) -> list[int]:
    """Equal-degree (degree 1) splitting of a squarefree product of linears."""
    deg = len(g) - 1
    if deg <= 0:
        return []
    if deg == 1:
        return [(-g[0] * pow(g[1], -1, p)) % p]
    if g[0] == 0:
        reduced = g[1:]
        return [0] + _gfp_split_linear(reduced, p, rng)
    while True:
        a = rng.randrange(p)
        probe = _gfp_powmod([a, 1], (p - 1) // 2, g, p)
        probe = list(probe)
        if not probe:
            probe = [0]
        probe[0] = (probe[0] - 1) % p
        h = _gfp_gcd(probe, g, p)
        if 0 < len(h) - 1 < deg:
            rest = _gfp_quot(g, h, p)
            return _gfp_split_linear(h, p, rng) + _gfp_split_linear(rest, p, rng)


def _gfp_quot(a: list[int], b: list[int], p: int) -> list[int]:
    a = [x % p for x in a]
    out = [0] * (len(a) - len(b) + 1)
    inv_lead = pow(b[-1], -1, p)
    while len(a) >= len(b) and any(a):
        _gfp_trim(a)
        if len(a) < len(b):
            break
        c = a[-1] * inv_lead % p
        shift = len(a) - len(b)
        out[shift] = c
        for i, m in enumerate(b):
            a[shift + i] = (a[shift + i] - c * m) % p
    return out


def roots_in_field(coeffs, field: Field) -> list:
    """Distinct roots lying in the base field, sorted deterministically."""
    coeffs = [field.coerce(c) for c in coeffs]
    if all(field.is_zero(c) for c in coeffs):
        raise ValueError("zero polynomial has every root")
    if isinstance(field, PrimeField):
        return _gfp_roots(list(coeffs), field.p)
    return _rational_roots(list(coeffs))
