import random

import pytest

from algcert.algebra import StructureAlgebra
from algcert.fields import QQ
from algcert.linalg import Coordinates, Subspace, combine, quotient_basis
from algcert.poly import Poly, parse_poly


@pytest.fixture
def rng():
    return random.Random(20240811)


def pp(text: str, n_vars: int, field=QQ) -> Poly:
    return parse_poly(text, n_vars, field)


def random_poly(rng: random.Random, n_vars: int, field, max_degree: int,
                n_terms: int = 4) -> Poly:
    terms = {}
    for _ in range(n_terms):
        mono = [0] * n_vars
        deg = rng.randint(0, max_degree)
        for _ in range(deg):
            mono[rng.randrange(n_vars)] += 1
        coeff = rng.randint(-5, 5)
        if coeff:
            terms[tuple(mono)] = field.coerce(coeff)
    return Poly(n_vars, field, terms)


def transvected(algebra, rng, count=30):
    """algebra in the basis f_i = sum_a T[a][i] e_a, T a product of count
    signed integer transvections I + s E_ij, so T^-1 is integral too."""
    d = algebra.dim
    t = [[int(i == j) for j in range(d)] for i in range(d)]
    t_inv = [row[:] for row in t]
    for _ in range(count):
        i, j = rng.sample(range(d), 2)
        s = rng.choice((-1, 1))
        for row in t:                   # T <- T (I + s E_ij)
            row[j] += s * row[i]
        t_inv[i] = [a - s * b for a, b in zip(t_inv[i], t_inv[j])]
    return in_basis(algebra, t, t_inv)


def in_basis(algebra, t, t_inv):
    """algebra in the basis f_i = sum_a t[a][i] e_a, for an invertible t
    with inverse t_inv."""
    d = algebra.dim

    def coords(v):                      # e coordinates -> f coordinates
        nonzero = [(k, x) for k, x in enumerate(v) if x]
        return [sum(row[k] * x for k, x in nonzero) for row in t_inv]
    basis = [[t[a][i] for a in range(d)] for i in range(d)]
    cells = {(i, j): [(k, c) for k, c in enumerate(coords(algebra.multiply(x, y))) if c]
             for i, x in enumerate(basis) for j, y in enumerate(basis)}
    return StructureAlgebra(algebra.field, cells, coords(algebra.one))


def dense_table(algebra):
    """The structure constants as a dense d x d x d list of field scalars,
    table[i][j] = e_i e_j, read off multiply on basis vectors."""
    f, d = algebra.field, algebra.dim
    units = [[f.one if k == i else f.zero for k in range(d)] for i in range(d)]
    return [[algebra.multiply(x, y) for y in units] for x in units]


def matrix_sum(field, n, terms):
    """The n x n matrix sum of c m over the pairs (c, m) in terms, each m a
    list of rows."""
    rows = [[field.zero] * n for _ in range(n)]
    for c, m in terms:
        c = field.coerce(c)
        for out, row in zip(rows, m):
            for k, x in enumerate(row):
                out[k] = field.add(out[k], field.mul(c, field.coerce(x)))
    return rows


def matmul(field, a, b):
    """The product of the matrices with rows a and b."""
    return [combine(field, zip(row, b), len(b[0])) for row in a]


def flatten(m):
    """The entries of a matrix, row by row."""
    return [x for row in m for x in row]


def identity(field, n):
    """The rows of the n x n identity matrix."""
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def own_coordinates(s):
    """The subspace s in the coordinates of its canonical basis."""
    full = Subspace.full(s.field, s.ambient_dim)
    return Coordinates(s.field, s.basis, quotient_basis(s, full))
