"""Ready-made structure-constant algebras used by tests, docs and the CLI."""

from __future__ import annotations

from .algebra import StructureAlgebra
from .fields import Field
from .poly import TruncatedRing
from .roots import poly_divmod


def componentwise_algebra(field: Field, n: int) -> StructureAlgebra:
    """k^n with componentwise multiplication."""
    z, o = field.zero, field.one
    table = [[[o if i == j == k else z for k in range(n)]
              for j in range(n)] for i in range(n)]
    return StructureAlgebra(field, table, [o] * n)


def matrix_algebra(field: Field, n: int) -> StructureAlgebra:
    """Full matrix algebra M_n(k); basis e_{rc} at index r*n + c."""
    d = n * n
    z, o = field.zero, field.one
    table = [[[z] * d for _ in range(d)] for _ in range(d)]
    for r in range(n):
        for c in range(n):
            for r2 in range(n):
                for c2 in range(n):
                    if c == r2:
                        table[r * n + c][r2 * n + c2][r * n + c2] = o
    one = [o if r == c else z for r in range(n) for c in range(n)]
    return StructureAlgebra(field, table, one)


def upper_triangular_algebra(field: Field, n: int) -> StructureAlgebra:
    """Upper-triangular matrices in M_n(k); basis e_{rc} with r <= c."""
    pairs = [(r, c) for r in range(n) for c in range(r, n)]
    index = {p: i for i, p in enumerate(pairs)}
    d = len(pairs)
    z, o = field.zero, field.one
    table = [[[z] * d for _ in range(d)] for _ in range(d)]
    for (r, c), i in index.items():
        for (r2, c2), j in index.items():
            if c == r2:
                table[i][j][index[(r, c2)]] = o
    one = [z] * d
    for r in range(n):
        one[index[(r, r)]] = o
    return StructureAlgebra(field, table, one)


def truncated_polynomial_algebra(field: Field, n_vars: int, trunc: int) -> StructureAlgebra:
    """k[X1..Xn]/<X1..Xn>^l with the monomial basis."""
    ring = TruncatedRing(n_vars, trunc)
    d = ring.dim
    z, o = field.zero, field.one
    table = [[[z] * d for _ in range(d)] for _ in range(d)]
    for i, mi in enumerate(ring.monomials):
        for j, mj in enumerate(ring.monomials):
            prod = tuple(a + b for a, b in zip(mi, mj))
            if sum(prod) < trunc:
                table[i][j][ring.index[prod]] = o
    one = [o if k == 0 else z for k in range(d)]
    return StructureAlgebra(field, table, one)


def univariate_quotient_algebra(field: Field, modulus) -> StructureAlgebra:
    """k[t]/(f) for a monic f given by ascending coefficients."""
    coeffs = [field.coerce(c) for c in modulus]
    if not coeffs or not field.is_zero(field.sub(coeffs[-1], field.one)):
        raise ValueError("modulus must be monic with ascending coefficients")
    d = len(coeffs) - 1
    powers = []                       # t^k mod f for k up to 2d-2
    for k in range(2 * d - 1):
        r = poly_divmod([field.zero] * k + [field.one], coeffs, field)[1]
        powers.append(r + [field.zero] * (d - len(r)))
    table = [[powers[i + j] for j in range(d)] for i in range(d)]
    one = [field.one] + [field.zero] * (d - 1)
    return StructureAlgebra(field, table, one)


def exterior_algebra(field: Field, n: int) -> StructureAlgebra:
    """Exterior algebra on n generators; basis indexed by subsets of {1..n}."""
    import itertools

    subsets = []
    for size in range(n + 1):
        subsets.extend(itertools.combinations(range(n), size))
    index = {s: i for i, s in enumerate(subsets)}
    d = len(subsets)
    z, o = field.zero, field.one
    table = [[[z] * d for _ in range(d)] for _ in range(d)]
    for s, i in index.items():
        for t, j in index.items():
            if set(s) & set(t):
                continue
            inversions = sum(1 for a in s for b in t if a > b)
            merged = tuple(sorted(s + t))
            sign = o if inversions % 2 == 0 else field.neg(o)
            table[i][j][index[merged]] = sign
    one = [o if not s else z for s in subsets]
    return StructureAlgebra(field, table, one)


def direct_sum(a: StructureAlgebra, b: StructureAlgebra) -> StructureAlgebra:
    """A + B with componentwise multiplication and unit (1_A, 1_B)."""
    if a.field != b.field:
        raise ValueError("direct sum needs a common field")
    f = a.field
    d = a.dim + b.dim
    z = f.zero
    table = [[[z] * d for _ in range(d)] for _ in range(d)]
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                table[i][j][k] = a.table[i][j][k]
    for i in range(b.dim):
        for j in range(b.dim):
            for k in range(b.dim):
                table[a.dim + i][a.dim + j][a.dim + k] = b.table[i][j][k]
    one = list(a.one) + list(b.one)
    return StructureAlgebra(f, table, one)
