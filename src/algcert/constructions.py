"""Ready-made structure-constant algebras used by tests, docs and the CLI.
Each builder hands its nonzero structure constants to StructureAlgebra as
cells {(i, j): [(k, c), ...]}."""

from __future__ import annotations

import itertools
from fractions import Fraction

from .algebra import StructureAlgebra
from .fields import Field
from .poly import TruncatedRing
from .roots import poly_divmod


def componentwise_algebra(field: Field, n: int) -> StructureAlgebra:
    """k^n with componentwise multiplication."""
    o = field.one
    return StructureAlgebra(field, {(i, i): [(i, o)] for i in range(n)}, [o] * n)


def matrix_algebra(field: Field, n: int) -> StructureAlgebra:
    """Full matrix algebra M_n(k); basis e_{rc} at index r*n + c."""
    z, o = field.zero, field.one
    cells = {(r * n + c, c * n + c2): [(r * n + c2, o)]
             for r, c, c2 in itertools.product(range(n), repeat=3)}
    one = [o if r == c else z for r in range(n) for c in range(n)]
    return StructureAlgebra(field, cells, one)


def upper_triangular_algebra(field: Field, n: int) -> StructureAlgebra:
    """Upper-triangular matrices in M_n(k); basis e_{rc} with r <= c."""
    pairs = [(r, c) for r in range(n) for c in range(r, n)]
    index = {p: i for i, p in enumerate(pairs)}
    z, o = field.zero, field.one
    cells = {(i, index[(c, c2)]): [(index[(r, c2)], o)]
             for (r, c), i in index.items() for c2 in range(c, n)}
    one = [o if r == c else z for r, c in pairs]
    return StructureAlgebra(field, cells, one)


def truncated_polynomial_algebra(field: Field, n_vars: int, trunc: int) -> StructureAlgebra:
    """k[X1..Xn]/<X1..Xn>^l with the monomial basis."""
    ring = TruncatedRing(n_vars, trunc)
    z, o = field.zero, field.one
    cells = {(i, j): [(k, o) for k in ring.times([(j, 1)], mi)]
             for i, mi in enumerate(ring.monomials) for j in range(ring.dim)}
    one = [o if k == 0 else z for k in range(ring.dim)]
    return StructureAlgebra(field, cells, one)


def univariate_quotient_algebra(field: Field, modulus) -> StructureAlgebra:
    """k[t]/(f) for a monic f given by ascending coefficients."""
    coeffs = [field.coerce(c) for c in modulus]
    if not coeffs or not field.is_zero(field.sub(coeffs[-1], field.one)):
        raise ValueError("modulus must be monic with ascending coefficients")
    d = len(coeffs) - 1
    powers = []                       # t^k mod f for k up to 2d-2, as its (index, c)
    for k in range(2 * d - 1):
        r = poly_divmod([field.zero] * k + [field.one], coeffs, field)[1]
        powers.append([(t, c) for t, c in enumerate(r) if c])
    cells = {(i, j): powers[i + j] for i in range(d) for j in range(d)}
    one = [field.one] + [field.zero] * (d - 1)
    return StructureAlgebra(field, cells, one)


def exterior_algebra(field: Field, n: int) -> StructureAlgebra:
    """Exterior algebra on n generators; basis indexed by subsets of {1..n}."""
    subsets = []
    for size in range(n + 1):
        subsets.extend(itertools.combinations(range(n), size))
    index = {s: i for i, s in enumerate(subsets)}
    z, o = field.zero, field.one
    cells = {}
    for (s, i), (t, j) in itertools.product(index.items(), repeat=2):
        if not set(s) & set(t):
            inversions = sum(1 for a in s for b in t if a > b)
            sign = o if inversions % 2 == 0 else field.neg(o)
            cells[i, j] = [(index[tuple(sorted(s + t))], sign)]
    one = [o if not s else z for s in subsets]
    return StructureAlgebra(field, cells, one)


def direct_sum(a: StructureAlgebra, b: StructureAlgebra) -> StructureAlgebra:
    """A + B with componentwise multiplication and unit (1_A, 1_B): the
    cells of both summands, B's indices shifted by dim A."""
    if a.field != b.field:
        raise ValueError("direct sum needs a common field")
    cells = {}
    for alg, s in ((a, 0), (b, a.dim)):
        for i, j in itertools.product(range(alg.dim), repeat=2):
            cells[i + s, j + s] = [(k + s, Fraction(c, alg._den))
                                   for k, c in alg._sparse[i][j]]
    return StructureAlgebra(a.field, cells, list(a.one) + list(b.one))
