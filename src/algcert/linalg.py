"""Exact dense linear algebra over Q and GF(p).

Matrices are row-major lists of scalars (Fraction over Q, int residues over
GF(p)).  Elimination over Q runs on integer-scaled rows with content
stripping, so entries stay in Z until the final leading-one normalization;
over GF(p) it is plain modular Gauss-Jordan.  Pivots are always the first
nonzero entry in column order, which keeps every RREF deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import AmbientMismatch, NotContained
from .fields import Field, PrimeField


# -- integer-row kernels (internal) ------------------------------------------

def _row_to_int(row) -> list[int]:
    den = 1
    for x in row:
        if isinstance(x, Fraction):
            den = lcm(den, x.denominator)
    ints = [int(x * den) if isinstance(x, Fraction) else int(x) * den for x in row]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _strip_row(row: list[int]) -> None:
    g = 0
    for v in row:
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        for i, v in enumerate(row):
            row[i] = v // g
    for v in row:
        if v:
            if v < 0:
                for i, w in enumerate(row):
                    row[i] = -w
            break


def rref_int_rows(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan over Z by cross-multiplication; returns (rows, pivots).

    Output rows are primitive with positive leading entry, fully reduced
    (each pivot column has a single nonzero entry), in pivot order.
    """
    work = [r for r in rows if any(r)]
    pivots: list[int] = []
    piv = 0
    for col in range(ncols):
        sel = None
        for i in range(piv, len(work)):
            if work[i][col]:
                sel = i
                break
        if sel is None:
            continue
        work[piv], work[sel] = work[sel], work[piv]
        prow = work[piv]
        pval = prow[col]
        for i in range(len(work)):
            if i == piv:
                continue
            ri = work[i]
            v = ri[col]
            if not v:
                continue
            g = gcd(pval, v)
            a, b = pval // g, v // g
            for c in range(ncols):
                ri[c] = a * ri[c] - b * prow[c]
            _strip_row(ri)
        _strip_row(prow)
        pivots.append(col)
        piv += 1
        work = [work[i] for i in range(len(work)) if i < piv or any(work[i])]
    return work[:piv], pivots


def rref_mod_rows(rows: list[list[int]], ncols: int, p: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan mod p; rows come back with leading 1, fully reduced."""
    work = [[v % p for v in r] for r in rows]
    work = [r for r in work if any(r)]
    pivots: list[int] = []
    piv = 0
    for col in range(ncols):
        sel = None
        for i in range(piv, len(work)):
            if work[i][col]:
                sel = i
                break
        if sel is None:
            continue
        work[piv], work[sel] = work[sel], work[piv]
        prow = work[piv]
        inv = pow(prow[col], -1, p)
        for c in range(col, ncols):
            prow[c] = prow[c] * inv % p
        for i in range(len(work)):
            if i == piv:
                continue
            ri = work[i]
            f = ri[col]
            if f:
                for c in range(col, ncols):
                    ri[c] = (ri[c] - f * prow[c]) % p
        pivots.append(col)
        piv += 1
        work = [work[i] for i in range(len(work)) if i < piv or any(work[i])]
    return work[:piv], pivots


def rref_rows(rows, ncols: int, field: Field):
    """Field-dispatching RREF on raw rows; returns (canonical rows, pivots).

    Canonical rows carry leading coefficient 1 in the field's scalar type.
    """
    if isinstance(field, PrimeField):
        work, pivots = rref_mod_rows([list(r) for r in rows], ncols, field.p)
        return work, pivots
    ints = [_row_to_int(r) for r in rows]
    work, pivots = rref_int_rows(ints, ncols)
    out = []
    for row, col in zip(work, pivots):
        lead = row[col]
        out.append([Fraction(v, lead) for v in row])
    return out, pivots


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
    rows, pivots = rref_rows(m.rows, m.ncols, m.field)
    f = m.field
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [f.zero] * m.ncols
        v[fc] = f.one
        for row, pc in zip(rows, pivots):
            v[pc] = f.neg(row[fc])
        basis.append(v)
    return Subspace.from_vectors(f, m.ncols, basis)


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

class Subspace:
    """Row space in canonical RREF basis form."""

    __slots__ = ("field", "ambient_dim", "basis")

    def __init__(self, field: Field, ambient_dim: int, canonical_rows):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = canonical_rows

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
        return cls.from_vectors(field, ambient_dim,
                                Matrix.identity(field, ambient_dim).rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _check_compatible(self, other: Subspace) -> None:
        if self.ambient_dim != other.ambient_dim or self.field != other.field:
            raise AmbientMismatch("subspaces in different ambients")

    def reduce(self, v) -> list:
        """Residual of v after elimination against the basis (0 iff contained)."""
        f = self.field
        v = [f.coerce(x) for x in v]
        if len(v) != self.ambient_dim:
            raise AmbientMismatch("vector length != ambient dimension")
        for row in self.basis:
            pc = next(i for i, x in enumerate(row) if not f.is_zero(x))
            c = v[pc]
            if not f.is_zero(c):
                v = [f.sub(a, f.mul(c, b)) for a, b in zip(v, row)]
        return v

    def contains(self, v) -> bool:
        f = self.field
        return all(f.is_zero(x) for x in self.reduce(v))

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


def quotient_basis(u: Subspace, v: Subspace) -> list:
    """Vectors of V extending a basis of U; length = dim V - dim U.

    Raises NotContained unless U <= V.  Deterministic: V's canonical basis
    rows are scanned in order and kept when independent from U.
    """
    u._check_compatible(v)
    if not v.contains_space(u):
        raise NotContained("first subspace is not contained in the second")
    f = u.field
    current = list(u.basis)
    out = []
    for row in v.basis:
        if len(current) == v.dim:
            break
        cand, _ = rref_rows(current + [list(row)], u.ambient_dim, f)
        if len(cand) > len(current):
            out.append(list(row))
            current = cand
    return out
