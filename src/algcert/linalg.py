"""Exact linear algebra over Q and GF(p) on one elimination core.

Matrices are row-major lists of scalars (Fraction over Q, int residues over
GF(p)).  Every full elimination is ``rref_rows``: one Gauss-Jordan loop on
integer rows for both fields.  Rows go in as they are (ints, or over Q ints
and Fractions, scaled to integers by their common denominator), so callers
that build integer systems pass them straight in.  The field decides only how
a row is kept (primitive over Z for Q, monic pivot mod p for GF(p)) and how
the leading 1 is written at the end.  Pivots are always the first nonzero
entry in column order, so every RREF is the unique canonical one.

A ``Subspace`` keeps, next to its canonical basis, the pivot column and the
nonzero entries of each basis row; reducing a vector reads only those.  An
``Echelon`` grows such a basis one vector at a time, for scans that keep a
vector when it is independent of the ones before it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import AmbientMismatch, NotContained
from .fields import Field


# -- the elimination core ----------------------------------------------------

_QQ_ZERO = Fraction(0)


def _integer_row(row, p: int) -> list[int]:
    """The row as the core works on it: residues mod p, or over Q the row
    times the common denominator of its entries (ints or Fractions)."""
    if p:
        return [x % p for x in row]
    den = lcm(*[x.denominator for x in row])
    return [x.numerator * (den // x.denominator) for x in row]


def _normalise(row: list[int], col: int, p: int) -> list[int]:
    """A pivot row with leading entry at col: monic mod p, primitive over Z."""
    if p:
        inv = pow(row[col], -1, p)
        return [x * inv % p for x in row]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _eliminate(row: list[int], prow: list[int], col: int, p: int) -> list[int]:
    """row minus the multiple of the pivot row prow that clears column col."""
    v = row[col]
    if p:
        # prow is monic and zero before col
        return row[:col] + [(x - v * y) % p for x, y in zip(row[col:], prow[col:])]
    g = gcd(prow[col], v)
    a, b = prow[col] // g, v // g
    return _normalise([a * x - b * y for x, y in zip(row, prow)], col, 0)


def rref_rows(rows, ncols: int, field: Field):
    """Canonical RREF of raw rows; returns (canonical rows, pivot columns).

    Rows hold ints, or over Q ints and Fractions.  Gauss-Jordan with the
    first nonzero entry in column order as pivot, on integer rows for both
    fields; the canonical rows carry a leading 1 in the field's scalar type.
    """
    p = field.characteristic
    work = [r for r in (_integer_row(r, p) for r in rows) if any(r)]
    pivots: list[int] = []
    for col in range(ncols):
        k = len(pivots)
        sel = next((i for i in range(k, len(work)) if work[i][col]), None)
        if sel is None:
            continue
        prow = _normalise(work[sel], col, p)
        work[sel] = work[k]
        work[k] = prow
        for i, row in enumerate(work):
            if row[col] and i != k:
                work[i] = _eliminate(row, prow, col, p)
        pivots.append(col)
        work[k + 1:] = [r for r in work[k + 1:] if any(r)]
    if p:
        return work, pivots
    return [[Fraction(x, row[col]) if x else _QQ_ZERO for x in row]
            for row, col in zip(work, pivots)], pivots


# -- matrices -----------------------------------------------------------------

class Matrix:
    """Immutable-by-convention dense matrix over a fixed field."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: Field, rows):
        self.field = field
        self.rows = [[field.coerce(x) for x in r] for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise AmbientMismatch("ragged matrix rows")

    @classmethod
    def identity(cls, field: Field, n: int) -> Matrix:
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> Matrix:
        zero = field.zero
        return cls(field, [[zero] * ncols for _ in range(nrows)])

    @classmethod
    def from_columns(cls, field: Field, cols) -> Matrix:
        cols = [list(c) for c in cols]
        n = len(cols[0]) if cols else 0
        return cls(field, [[cols[j][i] for j in range(len(cols))] for i in range(n)])

    def transpose(self) -> Matrix:
        return Matrix(self.field, [[self.rows[i][j] for i in range(self.nrows)]
                                   for j in range(self.ncols)])

    def mul(self, other: Matrix) -> Matrix:
        if self.ncols != other.nrows or self.field != other.field:
            raise AmbientMismatch("matrix product shape/field mismatch")
        f = self.field
        ot = other.rows
        out = []
        for row in self.rows:
            acc = [f.zero] * other.ncols
            for k, a in enumerate(row):
                if f.is_zero(a):
                    continue
                rk = ot[k]
                for j, b in enumerate(rk):
                    if not f.is_zero(b):
                        acc[j] = f.add(acc[j], f.mul(a, b))
            out.append(acc)
        return Matrix(f, out)

    def matvec(self, v) -> list:
        if len(v) != self.ncols:
            raise AmbientMismatch("matvec length mismatch")
        f = self.field
        out = []
        for row in self.rows:
            s = f.zero
            for a, b in zip(row, v):
                if not (f.is_zero(a) or f.is_zero(b)):
                    s = f.add(s, f.mul(a, b))
            out.append(s)
        return out

    def add(self, other: Matrix) -> Matrix:
        f = self.field
        return Matrix(f, [[f.add(a, b) for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)])

    def scale(self, c) -> Matrix:
        f = self.field
        c = f.coerce(c)
        return Matrix(f, [[f.mul(c, a) for a in r] for r in self.rows])

    def flatten(self) -> list:
        return [x for row in self.rows for x in row]

    def is_zero(self) -> bool:
        f = self.field
        return all(f.is_zero(x) for r in self.rows for x in r)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, tuple(tuple(r) for r in self.rows)))

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.rows!r})"


def mat_bracket(a: Matrix, b: Matrix) -> Matrix:
    """Commutator ab - ba."""
    ab = a.mul(b)
    ba = b.mul(a)
    f = a.field
    return Matrix(f, [[f.sub(x, y) for x, y in zip(r1, r2)]
                      for r1, r2 in zip(ab.rows, ba.rows)])


def rref(m: Matrix) -> tuple[Matrix, int, list[int]]:
    """Reduced row-echelon form; returns (rref matrix, rank, pivot columns).

    The returned matrix has the same shape as the input, zero rows at the
    bottom, so re-running rref is idempotent.
    """
    rows, pivots = rref_rows(m.rows, m.ncols, m.field)
    zero = m.field.zero
    padded = rows + [[zero] * m.ncols for _ in range(m.nrows - len(rows))]
    return Matrix(m.field, padded), len(pivots), pivots


def kernel(m: Matrix) -> "Subspace":
    """Exact right kernel {v : m v = 0}."""
    return kernel_rows(m.rows, m.ncols, m.field)


def kernel_rows(rows, ncols: int, field: Field) -> "Subspace":
    """Exact right kernel of the matrix with these rows, taken as rref_rows
    takes them; with no rows it is the whole space."""
    rows, pivots = rref_rows(rows, ncols, field)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [field.zero] * ncols
        v[fc] = field.one
        for row, pc in zip(rows, pivots):
            v[pc] = field.neg(row[fc])
        basis.append(v)
    return Subspace.from_vectors(field, ncols, basis)


def solve(m: Matrix, b) -> list | None:
    """One solution of m x = b, or None when inconsistent."""
    if len(b) != m.nrows:
        raise AmbientMismatch("rhs length mismatch")
    f = m.field
    b = [f.coerce(x) for x in b]
    aug = [list(row) + [bv] for row, bv in zip(m.rows, b)]
    rows, pivots = rref_rows(aug, m.ncols + 1, f)
    if m.ncols in pivots:
        return None
    x = [f.zero] * m.ncols
    for row, pc in zip(rows, pivots):
        x[pc] = row[m.ncols]
    return x


def invert(m: Matrix) -> Matrix | None:
    """Inverse of a square matrix, or None when singular."""
    if m.nrows != m.ncols:
        raise AmbientMismatch("inverse of a non-square matrix")
    n = m.nrows
    f = m.field
    eye = Matrix.identity(f, n)
    aug = [list(r) + list(e) for r, e in zip(m.rows, eye.rows)]
    rows, pivots = rref_rows(aug, 2 * n, f)
    if pivots[:n] != list(range(n)) or len(pivots) < n:
        return None
    return Matrix(f, [r[n:] for r in rows[:n]])


# -- subspaces ----------------------------------------------------------------

def _reduce(field: Field, ambient_dim: int, pivots, terms, v) -> list:
    """Residual of v against rows given by pivot and nonzero (column, entry)
    pairs, each row 1 at its pivot and 0 at the pivots of the rows before it."""
    v = [field.coerce(x) for x in v]
    if len(v) != ambient_dim:
        raise AmbientMismatch("vector length != ambient dimension")
    p = field.characteristic
    for pc, row in zip(pivots, terms):
        c = v[pc] % p if p else v[pc]
        if c:
            for j, x in row:
                v[j] -= c * x
    return [x % p for x in v] if p else v


class Subspace:
    """Row space in canonical RREF basis form, with the pivot column of each
    basis row."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots", "_terms")

    def __init__(self, field: Field, ambient_dim: int, canonical_rows):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = canonical_rows
        self._terms = [[(j, x) for j, x in enumerate(row) if x] for row in canonical_rows]
        self.pivots = [terms[0][0] for terms in self._terms]

    @classmethod
    def from_vectors(cls, field: Field, ambient_dim: int, vectors) -> Subspace:
        vecs = [[field.coerce(x) for x in v] for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise AmbientMismatch("vector length != ambient dimension")
        rows, _ = rref_rows(vecs, ambient_dim, field)
        return cls(field, ambient_dim, rows)

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> Subspace:
        return cls(field, ambient_dim, [])

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> Subspace:
        return cls(field, ambient_dim, Matrix.identity(field, ambient_dim).rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _check_compatible(self, other: Subspace) -> None:
        if self.ambient_dim != other.ambient_dim or self.field != other.field:
            raise AmbientMismatch("subspaces in different ambients")

    def reduce(self, v) -> list:
        """Residual of v after elimination against the basis (0 iff contained)."""
        return _reduce(self.field, self.ambient_dim, self.pivots, self._terms, v)

    def contains(self, v) -> bool:
        return not any(self.reduce(v))

    def contains_space(self, other: Subspace) -> bool:
        self._check_compatible(other)
        return all(self.contains(v) for v in other.basis)

    def sum(self, other: Subspace) -> Subspace:
        self._check_compatible(other)
        return Subspace.from_vectors(self.field, self.ambient_dim,
                                     list(self.basis) + list(other.basis))

    def intersect(self, other: Subspace) -> Subspace:
        self._check_compatible(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, self.ambient_dim)
        f = self.field
        cols = [list(r) for r in self.basis] + \
               [[f.neg(x) for x in r] for r in other.basis]
        stacked = Matrix.from_columns(f, cols)
        coeffs = kernel(stacked)
        vecs = []
        for w in coeffs.basis:
            v = [f.zero] * self.ambient_dim
            for a, row in zip(w[:self.dim], self.basis):
                if not f.is_zero(a):
                    v = [f.add(x, f.mul(a, y)) for x, y in zip(v, row)]
            vecs.append(v)
        return Subspace.from_vectors(f, self.ambient_dim, vecs)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field, self.ambient_dim,
                     tuple(tuple(r) for r in self.basis)))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


class Echelon:
    """A basis grown one vector at a time, starting from a subspace's.

    ``add`` keeps the residual of an independent vector scaled to a leading
    1, so every row is 0 at the pivots of the rows before it and reducing in
    insertion order clears all pivot columns.
    """

    __slots__ = ("field", "ambient_dim", "pivots", "_terms")

    def __init__(self, space: Subspace):
        self.field = space.field
        self.ambient_dim = space.ambient_dim
        self.pivots = list(space.pivots)
        self._terms = list(space._terms)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce(self, v) -> list:
        """Residual of v against the rows so far (0 iff in their span)."""
        return _reduce(self.field, self.ambient_dim, self.pivots, self._terms, v)

    def add(self, v) -> bool:
        """Add v when it is independent of the rows so far; say whether it was."""
        f = self.field
        terms = [(j, x) for j, x in enumerate(self.reduce(v)) if x]
        if not terms:
            return False
        lead, inv = terms[0][0], f.inv(terms[0][1])
        self.pivots.append(lead)
        self._terms.append([(j, f.mul(inv, x)) for j, x in terms])
        return True


def quotient_basis(u: Subspace, v: Subspace) -> list:
    """Vectors of V extending a basis of U; length = dim V - dim U.

    Raises NotContained unless U <= V.  Deterministic: V's canonical basis
    rows are scanned in order and kept when independent from U and the rows
    kept before them.
    """
    u._check_compatible(v)
    if not v.contains_space(u):
        raise NotContained("first subspace is not contained in the second")
    grown = Echelon(u)
    out = []
    for row in v.basis:
        if grown.dim < v.dim and grown.add(row):
            out.append(list(row))
    return out
