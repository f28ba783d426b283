"""Exact linear algebra over Q and GF(p) on one elimination core.

Matrices are row-major lists of scalars (Fraction over Q, int residues over
GF(p)).  Every full elimination is ``rref_rows``, one sparse reduced echelon
for both fields: rows go in as they are (lists of ints, or over Q ints and
Fractions, or dicts {col: entry} of such entries), become dicts of their
nonzero integers and are reduced one at a time against pivot rows kept fully
reduced.  The field decides only how a row is kept (primitive over Z for Q,
monic pivot mod p for GF(p)) and how the leading 1 is written.  The RREF is
unique, so it is the canonical one.

A ``Subspace`` keeps, next to its canonical basis, the pivot column and the
nonzero entries of each basis row; reducing a vector reads only those.  An
``Echelon`` grows such a basis one vector at a time, for scans that keep a
vector when it is independent of the ones before it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm

from .errors import AmbientMismatch, NotContained
from .fields import Field


# -- the elimination core ----------------------------------------------------

_INT, _FRACTION, _INT_OR_FRACTION = {int}, {Fraction}, {int, Fraction}


def scalars(row, field: Field, ints: bool = True) -> list:
    """The row as a new list that exact arithmetic reads as it is: ints over
    GF(p); over Q Fractions, and ints too unless ``ints`` is false.  Other
    entries go through field.coerce, so a bad scalar raises BadScalar."""
    taken = _INT if field.characteristic else _INT_OR_FRACTION if ints else _FRACTION
    if set(map(type, row)) <= taken:
        return list(row)
    return [x if type(x) in taken else field.coerce(x) for x in row]


def _sparse_row(row, field: Field) -> dict[int, int]:
    """The nonzero entries of a row as the core works on them: residues mod
    p, or over Q the row times the common denominator of its entries.  A
    dict row {col: entry} is read as it is, explicit zeros allowed, and never
    changed in place."""
    p = field.characteristic
    if isinstance(row, dict):
        entries = row if p else {j: x for j, x in row.items() if x}
    else:
        row = scalars(row, field)
        entries = dict(zip(compress(count(), row), filter(None, row)))
    if p:
        return _normalise(entries, None, p)
    if not set(map(type, entries.values())) <= _INT:
        den = lcm(*[x.denominator for x in entries.values()])
        entries = {j: x.numerator * (den // x.denominator) for j, x in entries.items()}
    return entries


def _normalise(row: dict, col: int | None, p: int) -> dict:
    """The row's nonzero entries: divided by their gcd over Z, or mod p and,
    unless col is None, made monic at col."""
    if p:
        inv = 1 if col is None else pow(row[col], -1, p)
        return {j: r for j, x in row.items() if (r := x * inv % p)}
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items() if x}


def _eliminate(row: dict, found: dict, cols, p: int) -> dict:
    """row, normalised, minus the multiples of the pivot rows found[c] that
    clear the columns c in cols (each pivot row is 0 at the others' pivots).
    Reads only the pivot rows' nonzeros; may reuse row's dict."""
    # the least scale of row that makes each multiple integral (mod p, pivots are 1)
    scale = 1 if p else lcm(*[found[c][c] // gcd(found[c][c], row[c]) for c in cols])
    steps = [(scale * row[c] // found[c][c], found[c]) for c in cols]
    if scale != 1:
        row = {j: scale * x for j, x in row.items()}
    for v, prow in steps:
        for j, y in prow.items():
            row[j] = row.get(j, 0) - v * y
    return _normalise(row, None, p)


def rref_rows(rows, ncols: int, field: Field):
    """Canonical RREF of raw rows; returns (canonical rows, pivot columns).

    Rows (lists of ints, or over Q ints and Fractions, or dicts {col: entry}
    of such entries) are reduced sparsest first; a row left nonzero becomes a
    pivot row at its first nonzero column, which is then cleared from the
    earlier pivot rows.  The canonical rows carry a leading 1 in the field's
    scalar type.
    """
    p = field.characteristic
    found: dict[int, dict] = {}         # pivot column -> row, 0 at the other pivots
    for row in sorted((_sparse_row(r, field) for r in rows), key=len):
        cols = [c for c in row if c in found]
        if cols:
            row = _eliminate(row, found, cols, p)
        if not row:
            continue
        lead = min(row)
        found[lead] = row = _normalise(row, lead, p)
        for col, prow in found.items():
            if lead in prow and col != lead:
                found[col] = _eliminate(prow, found, (lead,), p)
    pivots = sorted(found)
    out = [[field.zero] * ncols for _ in pivots]
    for dense, col in zip(out, pivots):
        for j, x in found[col].items():
            dense[j] = x if p else Fraction(x, found[col][col])
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
    takes them; with no rows it is the whole space.  Free column fc gives
    e_fc - sum_pc row[fc] e_pc over the pivot rows, as a dict row."""
    rows, pivots = rref_rows(rows, ncols, field)
    basis = [{fc: 1, **{pc: -row[fc] for row, pc in zip(rows, pivots) if row[fc]}}
             for fc in sorted(set(range(ncols)) - set(pivots))]
    return Subspace(field, ncols, rref_rows(basis, ncols, field)[0])


def solve(m: Matrix, b) -> list | None:
    """One solution of m x = b, or None when inconsistent."""
    if len(b) != m.nrows:
        raise AmbientMismatch("rhs length mismatch")
    f = m.field
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
    pairs, each row 1 at its pivot and 0 at the pivots of the rows before it.
    Over GF(p) any int is taken as it is; over Q the residual holds Fractions.
    """
    p = field.characteristic
    v = scalars(v, field, ints=False)
    if len(v) != ambient_dim:
        raise AmbientMismatch("vector length != ambient dimension")
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
        vecs = list(vectors)            # rows as rref_rows takes them
        if any(len(v) != ambient_dim for v in vecs if not isinstance(v, dict)):
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
        n = self.ambient_dim
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, n)
        # u = v for u in U, v in V: the kernel of the columns (U's basis, -V's)
        cols = [[r[k] for r in self.basis] + [-r[k] for r in other.basis] for k in range(n)]
        vecs = []
        for w in kernel_rows(cols, self.dim + other.dim, self.field).basis:
            terms = [(a, r) for a, r in zip(w, self.basis) if a]
            vecs.append([sum(a * r[k] for a, r in terms) for k in range(n)])
        return Subspace.from_vectors(self.field, n, vecs)

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
