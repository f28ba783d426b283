"""Exact linear algebra over Q and GF(p) on one elimination core.

A matrix is the list of its rows, each a list of scalars (Fraction over Q,
int residues over GF(p)); there is no matrix class.  ``solve``, ``invert``
and ``kernel_rows`` take the rows, and row i of a product AB is the
``combine`` of B's rows with the entries of A's row i.  Every full
elimination is ``_canonical``, one sparse reduced echelon for both fields:
rows go in as they are (lists of ints, or over Q ints and Fractions, or
dicts {col: entry} of such entries), become dicts of their nonzero integers
and are reduced one at a time against pivot rows kept fully reduced.  The
field decides only how a row is kept (primitive over Z for Q,
monic pivot mod p for GF(p)) and how the leading 1 is written.  The RREF is
unique, so it is the canonical one; the core hands it out as the sorted
(column, entry) pairs of each row's nonzeros, and ``rref_rows`` writes them
out as dense rows; ``row_rank`` only counts them.

A ``Subspace`` keeps those sparse rows as they come from the core, with the
pivot column of each (its first pair); reducing a vector reads only their
nonzeros, and a vector may be a list or a dict {col: entry}.  Its dense
``basis`` is a view built the first time something reads it.  An
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


def scalars(row, field: Field, ints: bool = True):
    """The row's entries as exact arithmetic reads them: ints over GF(p);
    over Q Fractions, and ints too unless ``ints`` is false.  Other entries
    go through field.coerce, so a bad scalar raises BadScalar.  The row
    itself when every entry is read as it is, else a new list."""
    taken = _INT if field.characteristic else _INT_OR_FRACTION if ints else _FRACTION
    if set(map(type, row)) <= taken:
        return row
    return [x if type(x) in taken else field.coerce(x) for x in row]


def _entries(row, field: Field, ints: bool = True) -> dict:
    """{col: x} for a list row or a dict row {col: entry}, each entry read by
    ``scalars``: without the zeros of a list row, but with any explicit
    zeros of a dict row, which may be returned as it is and so must not be
    changed."""
    if not isinstance(row, dict):
        row = scalars(row, field, ints)
        return dict(zip(compress(count(), row), filter(None, row)))
    vals = row.values()
    read = scalars(vals, field, ints)
    return row if read is vals else dict(zip(row, read))


def _check_ambient(v, n: int) -> None:
    """AmbientMismatch unless the list or dict vector v lies in k^n."""
    if isinstance(v, dict):
        if v and (min(v) < 0 or max(v) >= n):
            raise AmbientMismatch("vector index outside the ambient dimension")
    elif len(v) != n:
        raise AmbientMismatch("vector length != ambient dimension")


def _sparse_row(row, field: Field) -> dict[int, int]:
    """The nonzero entries of a row as the core works on them, in a new
    dict: residues mod p, or over Q the row times the common denominator of
    its entries."""
    p = field.characteristic
    entries = _entries(row, field)
    if p:
        return _normalise(entries, None, p)
    if set(map(type, entries.values())) <= _INT:
        return {j: x for j, x in entries.items() if x}
    den = lcm(*[x.denominator for x in entries.values()])
    return {j: x.numerator * (den // x.denominator) for j, x in entries.items() if x}


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


def _canonical(rows, field: Field, last: bool = False) -> list[list]:
    """Canonical RREF of raw rows, each row the sorted (column, entry) pairs
    of its nonzeros, with a leading 1 in the field's scalar type.

    Rows (lists of ints, or over Q ints and Fractions, or dicts {col: entry}
    of such entries) are reduced sparsest first; a row left nonzero becomes a
    pivot row at its first nonzero column (its last with ``last``), which is
    then cleared from the earlier pivot rows.
    """
    p = field.characteristic
    found: dict[int, dict] = {}         # pivot column -> row, 0 at the other pivots
    for row in sorted((_sparse_row(r, field) for r in rows if r), key=len):
        cols = [c for c in row if c in found]
        if cols:
            row = _eliminate(row, found, cols, p)
        if not row:
            continue
        lead = max(row) if last else min(row)
        found[lead] = row = _normalise(row, lead, p)
        for col, prow in found.items():
            if lead in prow and col != lead:
                found[col] = _eliminate(prow, found, (lead,), p)
    out = []
    for col, row in sorted(found.items()):
        pairs = sorted(row.items())
        out.append(pairs if p else [(j, Fraction(x, row[col])) for j, x in pairs])
    return out


def _dense(pairs, n: int, zero) -> list:
    """The length-n list with the (column, entry) pairs and zero elsewhere."""
    out = [zero] * n
    for j, x in pairs:
        out[j] = x
    return out


def combine(field: Field, pairs, n: int) -> list:
    """sum c v over the (c, v) in pairs, each v a list of n scalars."""
    out = [field.zero] * n
    for c, v in pairs:
        if not field.is_zero(c):
            out = [field.add(a, field.mul(c, b)) for a, b in zip(out, v)]
    return out


def rref_rows(rows, ncols: int, field: Field):
    """Canonical RREF of raw rows, taken as ``_canonical`` takes them;
    returns (dense canonical rows, pivot columns)."""
    terms = _canonical(rows, field)
    return [_dense(t, ncols, field.zero) for t in terms], [t[0][0] for t in terms]


def row_rank(rows, field: Field) -> int:
    """Rank of raw rows, taken as ``_canonical`` takes them, read from the
    count of the core's sparse canonical rows; no dense row is written."""
    return len(_canonical(rows, field))


# -- systems -----------------------------------------------------------------

def kernel_rows(rows, ncols: int, field: Field) -> "Subspace":
    """Exact right kernel of the matrix with these rows, taken as rref_rows
    takes them; with no rows it is the whole space.  With each pivot at its
    row's last column, free column fc gives e_fc - sum_pc row[fc] e_pc over
    pivots pc > fc, 0 at the other free ones: the kernel's canonical rows."""
    terms, p = _canonical(rows, field, last=True), field.characteristic
    pivots = {row[-1][0] for row in terms}
    basis = {fc: [(fc, field.one)] for fc in range(ncols) if fc not in pivots}
    for row in terms:                   # 0 at the other pivots: the rest are free
        for j, x in row[:-1]:
            basis[j].append((row[-1][0], -x % p if p else -x))
    return Subspace(field, ncols, list(basis.values()))


def solve(rows, b, field: Field) -> list | None:
    """One solution x of the system with these rows and right side b, or
    None when it is inconsistent."""
    if len(b) != len(rows):
        raise AmbientMismatch("rhs length mismatch")
    n = len(rows[0]) if rows else 0
    out, pivots = rref_rows([[*row, c] for row, c in zip(rows, b)], n + 1, field)
    if n in pivots:
        return None
    x = [field.zero] * n
    for row, pc in zip(out, pivots):
        x[pc] = row[n]
    return x


def invert(rows, field: Field) -> list | None:
    """The rows of the inverse of the square matrix with these rows, or None
    when it is singular."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise AmbientMismatch("inverse of a non-square matrix")
    aug = [[*row, *(field.one if j == i else field.zero for j in range(n))]
           for i, row in enumerate(rows)]
    out, pivots = rref_rows(aug, 2 * n, field)
    if pivots[:n] != list(range(n)) or len(pivots) < n:
        return None
    return [row[n:] for row in out[:n]]


# -- subspaces ----------------------------------------------------------------

class _Rows:
    """Rows given by pivot and sorted nonzero (column, entry) pairs, each row
    1 at its pivot and 0 at the pivots of the rows before it."""

    __slots__ = ("field", "ambient_dim", "pivots", "_terms")

    @property
    def dim(self) -> int:
        return len(self._terms)

    def _residual(self, v) -> dict:
        """The nonzero entries of v's residual against the rows, for v a list
        or a dict {col: entry}.  Over GF(p) any int is taken as it is and
        the residual holds residues; over Q it holds Fractions."""
        _check_ambient(v, self.ambient_dim)
        res, p = dict(_entries(v, self.field, ints=False)), self.field.characteristic
        for pc, row in zip(self.pivots, self._terms):
            c = res.get(pc, 0) % p if p else res.get(pc)
            if c:
                for j, x in row:
                    res[j] = res.get(j, 0) - c * x
        return {j: r for j, x in res.items() if (r := x % p if p else x)}

    def reduce(self, v):
        """Residual of v after elimination against the rows (0 iff in their
        span): a list for a list v, a dict of its nonzeros for a dict v."""
        res = self._residual(v)
        return res if isinstance(v, dict) else _dense(res.items(), len(v), self.field.zero)


class Subspace(_Rows):
    """Row space in canonical RREF form: the sorted (column, entry) pairs of
    each basis row, whose first pair is at the row's pivot column."""

    __slots__ = ("_basis",)

    def __init__(self, field: Field, ambient_dim: int, canonical_rows):
        """``canonical_rows`` as the core hands them out, or as dense lists
        of scalars (as ``basis`` gives them)."""
        self.field = field
        self.ambient_dim = ambient_dim
        self._terms = [row if isinstance(row[0], tuple) else
                       [(j, x) for j, x in enumerate(row) if x] for row in canonical_rows]
        self.pivots = [row[0][0] for row in self._terms]
        self._basis = None

    @classmethod
    def from_vectors(cls, field: Field, ambient_dim: int, vectors) -> Subspace:
        vecs = list(vectors)            # rows as _canonical takes them
        for v in vecs:
            _check_ambient(v, ambient_dim)
        return cls(field, ambient_dim, _canonical(vecs, field))

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> Subspace:
        return cls(field, ambient_dim, [])

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> Subspace:
        return cls(field, ambient_dim, [[(i, field.one)] for i in range(ambient_dim)])

    @property
    def basis(self) -> list:
        """The canonical basis as dense rows, built the first time it is read."""
        if self._basis is None:
            self._basis = [_dense(r, self.ambient_dim, self.field.zero) for r in self._terms]
        return self._basis

    def _check_compatible(self, other: Subspace) -> None:
        if self.ambient_dim != other.ambient_dim or self.field != other.field:
            raise AmbientMismatch("subspaces in different ambients")

    def contains(self, v) -> bool:
        return not self._residual(v)

    def contains_space(self, other: Subspace) -> bool:
        self._check_compatible(other)
        return all(not self._residual(dict(row)) for row in other._terms)

    def sum(self, other: Subspace) -> Subspace:
        self._check_compatible(other)
        return Subspace(self.field, self.ambient_dim,
                        _canonical(map(dict, self._terms + other._terms), self.field))

    def intersect(self, other: Subspace) -> Subspace:
        self._check_compatible(other)
        n, m = self.ambient_dim, self.dim
        if m == 0 or other.dim == 0:
            return Subspace.zero(self.field, n)
        # u = v for u in U, v in V: the kernel of the columns (U's basis,
        # -V's), one row per column in their supports
        cols: dict[int, dict] = {}
        for i, row in enumerate(self._terms + other._terms):
            for k, x in row:
                cols.setdefault(k, {})[i] = x if i < m else -x
        vecs = []
        for w in kernel_rows(cols.values(), m + other.dim, self.field)._terms:
            vecs.append(vec := {})
            for i, a in w:
                for k, x in self._terms[i] if i < m else ():
                    vec[k] = vec.get(k, 0) + a * x
        return Subspace.from_vectors(self.field, n, vecs)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient_dim == other.ambient_dim
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.field, self.ambient_dim, tuple(map(tuple, self._terms))))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


class Echelon(_Rows):
    """A basis grown one vector at a time, starting from a subspace's.

    ``add`` keeps the residual of an independent vector scaled to a leading
    1, so every row is 0 at the pivots of the rows before it and reducing in
    insertion order clears all pivot columns.
    """

    __slots__ = ()

    def __init__(self, space: Subspace):
        self.field = space.field
        self.ambient_dim = space.ambient_dim
        self.pivots = list(space.pivots)
        self._terms = list(space._terms)

    def add(self, v) -> bool:
        """Add v when it is independent of the rows so far; say whether it was."""
        res = self._residual(v)
        if not res:
            return False
        lead = min(res)
        inv = self.field.inv(res[lead])
        self.pivots.append(lead)
        self._terms.append([(j, self.field.mul(inv, res[j])) for j in sorted(res)])
        return True


def quotient_rows(u: Subspace, v: Subspace) -> list[dict]:
    """Rows of V extending a basis of U, as dicts {col: entry} of their
    nonzeros; length = dim V - dim U.

    Raises NotContained unless U <= V.  Deterministic: V's canonical basis
    rows are scanned in order and kept when independent from U and the rows
    kept before them.
    """
    u._check_compatible(v)
    if not v.contains_space(u):
        raise NotContained("first subspace is not contained in the second")
    grown = Echelon(u)
    out = []
    for row in map(dict, v._terms):
        if grown.dim < v.dim and grown.add(row):
            out.append(row)
    return out


def quotient_basis(u: Subspace, v: Subspace) -> list:
    """``quotient_rows`` as dense lists."""
    return [_dense(row.items(), v.ambient_dim, v.field.zero) for row in quotient_rows(u, v)]
