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
``basis`` is a view built the first time something reads it.

A basis grows one vector at a time on ``Coordinates``' fraction-free
echelon of integer vectors {col: int} (``int_terms`` scales rows to them):
``add`` keeps a vector when it is independent of those before it, and,
unless told not to, records each pivot row as the combination of the
vectors it is, so ``coords`` reads a vector's coordinates in one pass.
``quotient_rows`` and the minimal polynomials of ``roots`` grow on it, and
so do the words and J's rows in ``algebra``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm

from .errors import AmbientMismatch, InternalInconsistency, NotContained
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

class Subspace:
    """Row space in canonical RREF form: the sorted (column, entry) pairs of
    each basis row, whose first pair is at the row's pivot column."""

    __slots__ = ("field", "ambient_dim", "pivots", "_terms", "_basis")

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


# -- growing a basis on integer vectors -----------------------------------------

def int_terms(rows) -> tuple[int, list]:
    """(s, [the (column, s x) of each row]) for rows of (column, x) pairs,
    as a Subspace or Coordinates keeps them in ``_terms``; s the least
    common denominator (1 over GF(p))."""
    s = lcm(*[x.denominator for row in rows for _, x in row])
    return s, [[(k, x.numerator * (s // x.denominator)) for k, x in row] for row in rows]


def mod_p(v: dict, p: int) -> dict:
    """The nonzero entries of the integer vector v, taken mod p over GF(p)."""
    return {k: r for k, x in v.items() if (r := x % p if p else x)}


def axpy(out: dict, c: int, v: dict) -> dict:
    """out + c v, in place, for int vectors {k: int}."""
    for k, x in v.items():
        out[k] = out.get(k, 0) + c * x
    return out


class Coordinates:
    """Coordinates along ``reps`` for the direct sum k^d = span(reps) + span(rest).

    ``project`` keeps a vector's coefficients on ``reps`` and drops its part
    in span(rest); ``lift`` maps coefficients back to sum x_i reps_i, so
    project(lift(x)) = x.  With rest a basis of an ideal J this is A -> A/J;
    with reps a basis of a subalgebra, that subalgebra's own coordinates.  No
    inverse is formed: the vectors times their common denominator ``_scale``
    are ``vecs`` {index: int}, and ``_terms`` an echelon of them, each pivot
    row (primitive over Q, 1 at its pivot mod p) with the combination it is.
    ``Coordinates(field, [], [])`` is an empty echelon that ``add`` grows."""

    def __init__(self, field: Field, reps, rest):
        self.field, self.p, self.reps = field, field.characteristic, [list(r) for r in reps]
        self._terms, self.vecs, stacked = [], {}, self.reps + [list(r) for r in rest]
        self.dim, self._ambient_dim = len(self.reps), len(stacked[0]) if stacked else 0
        self._scale, rows = int_terms([[(k, x) for k, x in enumerate(r) if x] for r in stacked])
        if len(stacked) != self._ambient_dim or not all(self.add(dict(r)) for r in rows):
            raise InternalInconsistency("coordinate vectors are not a basis")

    @classmethod
    def quotient(cls, j: Subspace) -> Coordinates:
        """k^d / j through its canonical coset representatives."""
        return cls(j.field, quotient_basis(j, Subspace.full(j.field, j.ambient_dim)), j.basis)

    def project(self, v) -> list:
        f, (s, (terms,)) = self.field, int_terms([[(k, x) for k, x in enumerate(v) if x]])
        c, comb = self.coords(dict(terms))      # c s v = sum comb_k _scale vecs_k
        return [f.div(f.coerce(comb.get(k, 0) * self._scale), f.coerce(c * s))
                for k in range(self.dim)]

    def lift(self, x) -> list:
        return combine(self.field, zip(x, self.reps), self._ambient_dim)

    def _reduce(self, v: dict) -> tuple[int, dict, dict]:
        """(s, res, comb): s v = res + sum_k comb[k] vecs[k], res 0 at the pivots."""
        p, s, res, comb = self.p, 1, dict(v), {}
        for pc, row, record in self._terms:
            if not (c := res.get(pc, 0) % p if p else res.get(pc, 0)):
                continue
            if not p and row[pc] != 1:
                a, c = row[pc] // gcd(row[pc], c), c // gcd(row[pc], c)
                s, res, comb = a * s, axpy({}, a, res), axpy({}, a, comb)
            axpy(res, -c, row)
            axpy(comb, c, record)
        return s, mod_p(res, p), comb

    def add(self, v: dict, records: bool = True) -> bool:
        """Keep the integer vector v as the next vector when it is independent
        of those so far; say whether it was.  A scan that reads no
        coordinates keeps no records."""
        s, res, comb = self._reduce(v)
        if res:
            record = axpy({len(self.vecs): s}, -1, comb) if records else {}
            p, lead = self.p, min(res)
            a, g = (pow(res[lead], -1, p), 1) if p else (1, gcd(*res.values(), *record.values()))
            self._terms.append((lead, *({j: x * a % p if p else x // g for j, x in r.items()}
                                        for r in (res, record))))
            self.vecs[len(self.vecs)] = v
        return bool(res)

    def coords(self, v: dict) -> tuple[int, dict]:
        """(s, c) with s v = sum_k c[k] vecs[k], c the nonzeros, for an
        integer v: residues and s = 1 over GF(p), coprime integers over Q."""
        s, _, comb = self._reduce(v)
        p, g = self.p, 1 if self.p else gcd(s, *comb.values())
        return s // g, {k: r for k, x in comb.items() if (r := x % p if p else x // g)}


def quotient_rows(u: Subspace, v: Subspace) -> list[dict]:
    """Rows of V extending a basis of U, as dicts {col: entry} of their
    nonzeros; length = dim V - dim U.

    Deterministic: on an echelon grown from U's rows, V's canonical basis
    rows are scanned in order and kept when independent from U and the rows
    kept before them.  The scan reads all of V, so U + V has dim U + (rows
    kept), which is dim V iff U <= V: NotContained is raised otherwise.
    """
    u._check_compatible(v)
    grown = Coordinates(u.field, [], [])
    kept = [grown.add(dict(row), records=False) for row in int_terms(u._terms + v._terms)[1]]
    out = list(map(dict, compress(v._terms, kept[u.dim:])))
    if len(out) != v.dim - u.dim:
        raise NotContained("first subspace is not contained in the second")
    return out


def quotient_basis(u: Subspace, v: Subspace) -> list:
    """``quotient_rows`` as dense lists."""
    return [_dense(row.items(), v.ambient_dim, v.field.zero) for row in quotient_rows(u, v)]
