"""Structure-constant algebras: axioms, center, Jacobson radical and its
filtration, Wedderburn-Malcev complements for split basic algebras, and the
derivation Lie algebra with its nilpotency and solvability.

Each algebra carries a generating set G and a basis of words in it, so
associativity, the center, the radical's ideal check and Der(A) are checked
or solved on G alone, Der(A) on the |G| d entries D(e_g).  Every product
runs on one sparse integer table, the structure constants times their common
denominator; spans of products, Leibniz rows and Lie series go to the
elimination core as dict rows {column: int}, and a Lie algebra's structure
constants are computed once, on its determining columns, under one scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import (AmbientMismatch, InternalInconsistency, NonAssociative,
                     NotSplitBasic, NotUnital, UnsupportedRadicalComputation)
from .fields import Field, PrimeField, QQ
from .linalg import (Echelon, Matrix, Subspace, combine, invert, kernel_rows,
                     quotient_basis, scalars)
from .roots import minimal_polynomial, poly_divmod, poly_eval, roots_in_field

DEFAULT_MAX_ENUM = 10**7   # largest search space enumerated by default
MAX_RING_MONOMIALS = 10**5  # largest truncated ring built, checked before allocating


class StructureAlgebra:
    """Finite-dimensional unital associative algebra given by a d x d x d
    structure tensor: e_i * e_j = sum_k table[i][j][k] e_k.

    ``gens`` generate it, with the word basis ``words`` (see _word_basis).
    Load verifies unitality exhaustively and associativity on ``gens``
    (Light's test).  A presentation-derived one may carry ``known_radical``.
    """

    def __init__(self, field: Field, table, one, known_radical: Subspace | None = None):
        d, p = len(table), field.characteristic
        self.field = field
        self.dim = d
        # ints as they are, other entries through field.coerce (BadScalar)
        cells = [[scalars(cell, field) for cell in row] for row in table]
        for row in cells:
            if len(row) != d or any(len(cell) != d for cell in row):
                raise AmbientMismatch("structure tensor is not d x d x d")
        self.one = [field.coerce(x) for x in one]
        if len(self.one) != d:
            raise AmbientMismatch("identity vector has wrong length")
        self.known_radical = known_radical
        # x o y = den x y on integer coordinates: the one product table, as
        # the nonzero (k, c) of each cell of the scaled table
        self._den = den = 1 if p else lcm(*{x.denominator for row in cells for cell in row
                                            for x in cell if type(x) is not int})
        self._int_table = [[[x % p if p else x * den if type(x) is int
                             else x.numerator * (den // x.denominator) for x in cell]
                            for cell in row] for row in cells]
        self._sparse = [[[(k, c) for k, c in enumerate(cell) if c]
                         for cell in row] for row in self._int_table]
        self._verify_unital()
        self.gens, self.edges, self.words = _word_basis(self)
        self._verify_associative()
        self.commutative = all(self._sparse[i][j] == self._sparse[j][i]
                               for i in range(d) for j in range(i + 1, d))

    @cached_property
    def table(self) -> list:
        """The structure constants as field scalars, read off ``_int_table``."""
        p, den = self.field.characteristic, self._den
        return [[[x if p else Fraction(x, den) for x in cell] for cell in row]
                for row in self._int_table]

    # -- load-time checks ------------------------------------------------

    def _verify_unital(self):
        """one o e_j = s den e_j = e_j o one for each j, in integers, s the
        least common denominator of one."""
        s, one = self._int_vector(self.one)
        p = self.field.characteristic
        for j in range(self.dim):
            for v in (self._times(one, [(j, 1)]), self._times([(j, 1)], one)):
                v[j] = v.get(j, 0) - s * self._den
                if any(x % p if p else x for x in v.values()):
                    raise NotUnital(f"declared identity fails on basis element {j}")

    def _verify_associative(self):
        """Light's test (Clifford & Preston, The Algebraic Theory of
        Semigroups I, 1.2): the middles b with (a b) c = a (b c) for all a, c
        are closed under products, as (a (b b')) c = ((a b) b') c = (a b)(b' c)
        = a (b (b' c)) = a ((b b') c), and hold 1.  So the middles in G cover
        the words in G, which span A.  A failure reruns the full scan, which
        names the first bad triple."""
        if self._bad_triple(self.gens):
            raise NonAssociative(*self._bad_triple(range(self.dim)))

    def _bad_triple(self, middles):
        """The first (i, j, k), j in middles, with (e_i e_j) e_k != e_i (e_j e_k)."""
        d, sparse, p = self.dim, self._sparse, self.field.characteristic
        for i, j, k in itertools.product(range(d), middles, range(d)):
            diff: dict[int, int] = {}
            for t, c in sparse[i][j]:
                for s, c2 in sparse[t][k]:
                    diff[s] = diff.get(s, 0) + c * c2
            for t, c in sparse[j][k]:
                for s, c2 in sparse[i][t]:
                    diff[s] = diff.get(s, 0) - c * c2
            if any(x % p for x in diff.values()) if p else any(diff.values()):
                return i, j, k
        return None

    # -- arithmetic --------------------------------------------------------

    def _int_vector(self, x) -> tuple[int, list]:
        """(s, the nonzero (i, s x_i)), x read as rref_rows reads a row and s
        its least common denominator (1 over GF(p))."""
        s, (terms,) = _int_terms([[(i, a) for i, a in enumerate(scalars(x, self.field)) if a]])
        return s, terms

    def _times(self, x, y) -> dict:
        """x o y = den x y as {k: int}, unreduced, for x, y as (index, int) pairs."""
        out: dict[int, int] = {}
        for (i, a), (j, b) in itertools.product(x, y):
            ab = a * b
            for k, c in self._sparse[i][j]:
                out[k] = out.get(k, 0) + ab * c
        return out

    def multiply(self, x, y) -> list:
        """x y, reading the factors as exact elimination reads rows: ints as
        they are, and over Q Fractions too.  They are scaled to integers, and
        their product s_x x o s_y y is divided by s_x s_y den once over Q,
        and reduced once over GF(p)."""
        f = self.field
        (sx, xs), (sy, ys) = self._int_vector(x), self._int_vector(y)
        p, scale = f.characteristic, self._den * sx * sy
        out = [f.zero] * self.dim
        for k, v in self._times(xs, ys).items():
            out[k] = v % p if p else Fraction(v, scale)
        return out

    def subspace_product(self, u: Subspace, v: Subspace) -> Subspace:
        """span{a b : a in u, b in v}, from their integer basis rows."""
        us, vs = _int_terms(u._terms)[1], _int_terms(v._terms)[1]
        rows = (self._times(a, b) for a in us for b in vs)
        return Subspace.from_vectors(self.field, self.dim, rows)

    def product_span(self, left, space: Subspace, right=None) -> Subspace:
        """span{left v right : v in space}; without ``right``, span{left v}."""
        lefts = self._int_vector(left)[1]
        rows = (self._times(lefts, v) for v in _int_terms(space._terms)[1])
        if right is not None:
            rights = self._int_vector(right)[1]
            rows = (self._times(row.items(), rights) for row in rows)
        return Subspace.from_vectors(self.field, self.dim, rows)

    def __repr__(self):
        return f"StructureAlgebra(dim={self.dim}, field={self.field!r})"


def load_algebra(table, one, field: Field, known_radical: Subspace | None = None) -> StructureAlgebra:
    return StructureAlgebra(field, table, one, known_radical=known_radical)


# -- a generating set and its word basis ---------------------------------------

def _word_basis(algebra: StructureAlgebra) -> tuple[list, list, Coordinates]:
    """(G, edges, words): left-normed words in {1} and generators G, a basis
    of A, and their coordinates, with the words as its reps.

    Words are integer vectors in the scaled product x o e_g = den x e_g of
    ``_sparse``: word 0 is a multiple of 1, and word k >= 1 is words[m] o e_g
    for its tree edge edges[k - 1] = (m, g).  G is taken among the basis
    indices in order: e_i joins G when it lies outside the span of the words
    so far, which then grows breadth first by the products word o e_g, g in
    G, that the span lacks.  The Echelon only chooses the words: Coordinates
    inverts them once, and raises InternalInconsistency unless they are a
    basis."""
    f, d, p = algebra.field, algebra.dim, algebra.field.characteristic
    s = lcm(*[x.denominator for x in algebra.one])
    one = [x.numerator * (s // x.denominator) for x in algebra.one]
    grown = Echelon(Subspace.zero(f, d))
    words = [one] if grown.add(one) else []
    gens, edges, pending = [], [], []
    for i in range(d):
        if grown.dim == d or not grown.reduce({i: 1}):
            continue
        gens.append(i)
        pending.extend((k, i) for k in range(len(words)))
        while pending and grown.dim < d:
            k, g = pending.pop(0)
            prod = algebra._times([(u, c) for u, c in enumerate(words[k]) if c], [(g, 1)])
            if grown.add(word := [prod.get(t, 0) % p if p else prod.get(t, 0) for t in range(d)]):
                pending.extend((len(words), h) for h in gens)
                words.append(word)
                edges.append((k, g))
    return gens, edges, Coordinates(f, words, [])


# -- induced algebras: quotients, subalgebras, corners -------------------------

class Coordinates:
    """Coordinates along ``reps`` for the direct sum k^d = span(reps) + span(rest).

    ``project`` keeps a vector's coefficients on ``reps`` and drops its part
    in span(rest); ``lift`` maps coefficients back to sum x_i reps_i, so
    project(lift(x)) = x.  With rest a basis of an ideal J this is A -> A/J;
    with reps a basis of a subalgebra, that subalgebra's own coordinates.
    """

    def __init__(self, field: Field, reps, rest):
        self.field = field
        self.reps = [list(r) for r in reps]
        self.dim = len(self.reps)
        stacked = Matrix(field, self.reps + [list(r) for r in rest])
        self._ambient_dim = stacked.ncols
        binv = invert(stacked.transpose()) if stacked.nrows == stacked.ncols else None
        if binv is None:
            raise InternalInconsistency("coordinate vectors are not a basis")
        # row i of the inverse yields coefficient i; keep the reps' rows, sparse
        self._terms = [[(k, c) for k, c in enumerate(row) if c]
                       for row in binv.rows[:self.dim]]

    @classmethod
    def quotient(cls, j: Subspace) -> Coordinates:
        """k^d / j through its canonical coset representatives."""
        full = Subspace.full(j.field, j.ambient_dim)
        return cls(j.field, quotient_basis(j, full), j.basis)

    def project(self, v) -> list:
        f = self.field
        return [f.coerce(sum(c * v[k] for k, c in row if v[k])) for row in self._terms]

    def lift(self, x) -> list:
        return combine(self.field, zip(x, self.reps), self._ambient_dim)


def induced_algebra(multiply, coords: Coordinates, one,
                    known_radical: Subspace | None = None) -> StructureAlgebra:
    """The algebra on span(coords.reps) with x * y = project(lift(x) lift(y)).

    ``multiply`` is the ambient product and ``one`` the unit in ambient
    coordinates: the quotient's unit for A/J, the subalgebra's own unit (an
    idempotent of A) for a subalgebra or a corner eAe.
    """
    reps = coords.reps
    table = [[coords.project(multiply(a, b)) for b in reps] for a in reps]
    try:
        return StructureAlgebra(coords.field, table, coords.project(one),
                                known_radical=known_radical)
    except (NotUnital, NonAssociative) as exc:
        raise InternalInconsistency(f"induced algebra: {exc}") from exc


def center(algebra: StructureAlgebra) -> Subspace:
    """Z(A) as the kernel of x -> (x e_g - e_g x)_g over the generators G:
    what commutes with G commutes with every word in G, and they span A."""
    d, tbl = algebra.dim, algebra._int_table
    rows = [[tbl[j][g][k] - tbl[g][j][k] for j in range(d)]
            for g in algebra.gens for k in range(d)]
    return kernel_rows(rows, d, algebra.field)


# -- radical -------------------------------------------------------------------

@dataclass
class RadicalData:
    radical: Subspace
    powers: list          # [J, J^2, ..., J^l] with the last entry zero
    lowey_length: int
    jj2_dim: int

    @property
    def square(self) -> Subspace:
        return self.powers[1] if len(self.powers) > 1 else self.powers[0]


def _radical_data(algebra: StructureAlgebra, j: Subspace) -> RadicalData:
    """J's powers J, J^2, ... until 0, each J^(k+1) = J^k J the span of the
    products of their integer basis rows on the scaled table, by
    subspace_product, with no Fraction vector in between."""
    powers = [j]
    while powers[-1].dim > 0:
        nxt = algebra.subspace_product(powers[-1], j)
        if nxt.dim >= powers[-1].dim:
            # not nilpotent: cannot happen for a genuine radical
            raise UnsupportedRadicalComputation("candidate radical is not nilpotent")
        powers.append(nxt)
    lowey = len(powers)  # J^lowey = 0, and J^(lowey-1) != 0 (or J = 0, lowey = 1)
    jj2 = powers[0].dim - (powers[1].dim if len(powers) > 1 else 0)
    return RadicalData(j, powers, lowey, jj2)


def _verify_ideal(algebra: StructureAlgebra, j: Subspace) -> bool:
    """Whether J is a two-sided ideal, from e_g J and, unless A is
    commutative, J e_g for g in the generators G.  That is enough: the a
    with a J <= J are closed under products, (a b) J = a (b J) <= a J <= J,
    and hold 1; so once they hold G they hold every word in G, and the
    words span A.  The same goes for J a on the right.  Each product of
    integer rows is reduced against J by _scaled_residual."""
    Subspace.zero(algebra.field, algebra.dim)._check_compatible(j)  # J must lie in A
    s, scaled = _int_terms(j._terms)
    units = [[(g, 1)] for g in algebra.gens]
    products = [algebra._times(u, b) for u in units for b in scaled]
    if not algebra.commutative:
        products += [algebra._times(b, u) for u in units for b in scaled]
    p = algebra.field.characteristic
    return not any(x % p if p else x for v in products
                   for x in _scaled_residual(v, j, s, scaled).values())


def dickson_radical(algebra: StructureAlgebra) -> Subspace:
    """Characteristic-0 radical: kernel of the Gram matrix of the trace form
    tau(x, y) = trace(L_x L_y) of the left regular representation."""
    d, tbl = algebra.dim, algebra._int_table
    # L_i[a][b] = c_ib^a, so trace(L_i L_j) = sum_b sum_{c_ib^a != 0} c_ib^a c_ja^b
    gram = [[sum(x * tbl[j][a][b] for b in range(d) for a, x in algebra._sparse[i][b])
             for j in range(d)] for i in range(d)]
    return kernel_rows(gram, d, QQ)


def frobenius_radical(algebra: StructureAlgebra, bound: int = DEFAULT_MAX_ENUM) -> Subspace:
    """J of a commutative GF(p) algebra: the kernel of x -> x^q, q = p^k >= d,
    which is F_p-linear in characteristic p and kills exactly the nilpotents
    (x^d = 0 for a nilpotent x).  p^d > ``bound`` is refused as the element
    scan this replaced refused it, so certificates stay the same."""
    f = algebra.field
    p, d = f.p, algebra.dim
    if p**d > bound:
        raise UnsupportedRadicalComputation(f"scan needs {p**d} elements, bound is {bound}")
    q = p
    while q < d:
        q *= p
    columns = []
    for x in Subspace.full(f, d).basis:
        power = x
        for bit in bin(q)[3:]:          # square-and-multiply below the top bit
            power = algebra.multiply(power, power)
            if bit == "1":
                power = algebra.multiply(power, x)
        columns.append(power)
    return kernel_rows(list(zip(*columns)), d, f)


def jacobson_radical(algebra: StructureAlgebra, scan_bound: int = DEFAULT_MAX_ENUM) -> RadicalData:
    """Radical with its power filtration.

    Over Q the Dickson trace criterion is used; over GF(p) only commutative
    algebras are handled, as the kernel of a Frobenius power, unless the
    radical is already known from a presentation.  The result is
    post-verified to be a nilpotent two-sided ideal.
    """
    if algebra.known_radical is not None:
        j = algebra.known_radical
    elif not isinstance(algebra.field, PrimeField):
        j = dickson_radical(algebra)
    elif algebra.commutative:
        j = frobenius_radical(algebra, bound=scan_bound)
    else:
        raise UnsupportedRadicalComputation(
            "GF(p) non-commutative input needs a presentation-supplied radical")
    if not _verify_ideal(algebra, j):
        raise UnsupportedRadicalComputation("computed radical is not an ideal")
    return _radical_data(algebra, j)


def jj2_basis(rad: RadicalData) -> list:
    """Lift of a basis of J/J^2 into J (extends a basis of J^2 inside J)."""
    return quotient_basis(rad.square, rad.radical)


# -- Wedderburn-Malcev ---------------------------------------------------------

@dataclass
class WMDecomposition:
    semisimple_part: Subspace
    radical: Subspace
    idempotents: list


def element_idempotents(alg: StructureAlgebra, z, unit) -> tuple[list, list]:
    """The idempotents that z cuts out of the algebra with identity ``unit``
    (an idempotent of alg that z lies under), and the rest of ``unit``.

    With m the minimal polynomial of z on unit, z, z^2, ..., each simple
    root lam of m in the base field gives the Chinese-remainder idempotent
    e = h(z) / h(lam) of the factor t - lam, where h = m / (t - lam); a
    multiple root has h(lam) = 0 and gives none.  Returns (idems, rest) with
    rest = unit - sum(idems).  Each e is checked exactly to satisfy e e = e.
    """
    f = alg.field
    powers = []

    def power_sequence():
        cur = list(unit)
        while True:
            powers.append(cur)
            yield cur
            cur = alg.multiply(cur, z)
    m = minimal_polynomial(power_sequence(), f)
    idems = []
    for lam in roots_in_field(m, f):
        h = poly_divmod(m, [f.neg(lam), f.one], f)[0]
        h_lam = poly_eval(h, lam, f)
        if f.is_zero(h_lam):
            continue
        scale = f.inv(h_lam)
        e = combine(f, ((f.mul(c, scale), power) for c, power in zip(h, powers)), alg.dim)
        if alg.multiply(e, e) != e:
            raise InternalInconsistency("a split element's idempotent is not idempotent")
        idems.append(e)
    rest = list(unit)
    for e in idems:
        rest = [f.sub(x, y) for x, y in zip(rest, e)]
    return idems, rest


def _split_components(alg: StructureAlgebra, space: Subspace) -> list:
    """Primitive idempotents of ``space``, a commutative semisimple
    subalgebra of alg that contains alg.one, in alg's coordinates; raises
    NotSplitBasic when a component is a proper field extension of the base
    field."""
    f = alg.field
    units = [alg.one]
    done = []
    while units:
        unit = units.pop()
        piece = alg.product_span(unit, space)
        if piece.dim == 1:
            done.append(unit)
            continue
        for z in piece.basis:
            idems, rest = element_idempotents(alg, z, unit)
            parts = idems + [rest] if any(rest) else idems
            if len(parts) > 1:
                units.extend(parts)
                break
        else:
            raise NotSplitBasic(
                f"a {piece.dim}-dimensional block of A/J has no eigenbasis over {f!r}")
    return done


def wm_complement(algebra: StructureAlgebra, rad: RadicalData) -> WMDecomposition:
    """Semisimple complement A_s with A = A_s + J for split basic algebras.

    A/J must be commutative with an eigenbasis of idempotents over the base
    field; primitive idempotents are lifted one at a time by the Newton map
    e -> 3e^2 - 2e^3, sandwiched to stay orthogonal, until exactly idempotent.
    Commutativity is checked before A/J's table is built, as [e_g, e_h] in J
    for g, h in the generators G: their images generate A/J.
    """
    f = algebra.field
    j = rad.radical
    sparse = algebra._sparse
    for g, h in itertools.combinations(algebra.gens, 2):
        bracket = dict(sparse[g][h])    # den [e_g, e_h] on the scaled table
        for k, c in sparse[h][g]:
            bracket[k] = bracket.get(k, 0) - c
        if not j.contains(bracket):
            raise NotSplitBasic("A/J is not commutative")
    coords = Coordinates.quotient(j)
    quot = induced_algebra(algebra.multiply, coords, algebra.one)
    pieces = _split_components(quot, Subspace.full(f, quot.dim))
    prims = sorted(pieces, key=lambda u: [str(c) for c in u])
    lifted = []
    rest = list(algebra.one)            # 1 - E, E the sum of the lifted idempotents
    max_steps = 2 * max(1, rad.lowey_length).bit_length() + 4
    for fbar in prims:
        g = coords.lift(fbar)
        # u = (1 - E) g (1 - E) keeps u orthogonal to every lifted idempotent
        u = algebra.multiply(algebra.multiply(rest, g), rest)
        for _ in range(max_steps):
            uu = algebra.multiply(u, u)
            if uu == u:
                break
            uuu = algebra.multiply(uu, u)
            u = [f.sub(f.mul(f.coerce(3), a), f.mul(f.coerce(2), b))
                 for a, b in zip(uu, uuu)]
        else:
            raise NotSplitBasic("Newton idempotent lifting failed to converge")
        if coords.project(u) != fbar:
            raise NotSplitBasic("lifted idempotent drifted from its coset")
        lifted.append(u)
        rest = [f.sub(a, b) for a, b in zip(rest, u)]
    if any(rest):
        raise NotSplitBasic("lifted idempotents do not sum to the identity")
    a_s = Subspace.from_vectors(f, algebra.dim, lifted)
    if a_s.dim != len(lifted) or a_s.intersect(j).dim != 0 \
            or a_s.sum(j).dim != algebra.dim:
        raise NotSplitBasic("complement does not split the algebra")
    return WMDecomposition(a_s, j, lifted)


# -- derivations and Lie structure ----------------------------------------------

def _int_terms(rows) -> tuple[int, list]:
    """(s, [the (column, s x) of each row]) for rows of (column, x) pairs,
    as a Subspace or Coordinates keeps them in ``_terms``; s the least
    common denominator (1 over GF(p))."""
    s = lcm(*[x.denominator for row in rows for _, x in row])
    return s, [[(k, x.numerator * (s // x.denominator)) for k, x in row] for row in rows]


def _scaled_residual(v: dict, space: Subspace, s: int, scaled: list) -> dict:
    """s v - sum_l v[p_l] s B_l, s times the residual of the integer row v
    against the canonical rows B_l of ``space``, (s, [s B_l]) by _int_terms:
    B_l is 1 at its pivot p_l and 0 at the others.  0 (mod p) iff v is in."""
    res = {k: s * x for k, x in v.items()}
    for pc, row in zip(space.pivots, scaled):
        for k, x in row if v.get(pc) else ():
            res[k] = res.get(k, 0) - v[pc] * x
    return res


def _apply(m: dict, v) -> dict:
    """m v as {a: int}, m held by its nonzero columns {b: {a: int}} and v
    given by its (b, int) pairs."""
    out: dict[int, int] = {}
    for b, x in v:
        for a, y in m.get(b, {}).items():
            out[a] = out.get(a, 0) + x * y
    return out


class LieSubalgebra:
    """Bracket-closed Lie algebra of n x n matrices, each fixed by its
    columns in C (all n unless ``cols`` names them): ``space`` holds entry
    (a, c) at a |C| + pos(c).  ``lift`` maps such integer entries, as pairs,
    to ``den`` times the whole matrix by columns {b: {a: int}}; brackets
    read the lifted canonical basis B_l times its least common denominator."""

    def __init__(self, field: Field, n: int, space: Subspace, cols=None, lift=None, den=1):
        self.field, self.n, self.space, self.den = field, n, space, den
        self.cols = list(range(n)) if cols is None else cols
        self.lift = lift

    @property
    def dim(self) -> int:
        return self.space.dim

    def _regroup(self, terms) -> dict:
        """{c: {a: x}} for the entries (a |C| + pos(c), x) in terms."""
        w, out = len(self.cols), {}
        for k, x in terms:
            out.setdefault(self.cols[k % w], {})[k // w] = x
        return out

    @cached_property
    def _columns(self) -> tuple[int, list]:
        """(s den, [s den B_l by columns])."""
        s, terms = _int_terms(self.space._terms)
        return s * self.den, list(map(self.lift or self._regroup, terms))

    def basis_matrices(self) -> list[Matrix]:
        """The basis as matrices; only their nonzero entries are divided by s den."""
        f, n, (s, mats) = self.field, self.n, self._columns
        cells = [{(a, b): f.div(f.coerce(x), f.coerce(s)) for b, col in m.items()
                  for a, x in col.items()} for m in mats]
        return [Matrix(f, [[c.get((a, b), f.zero) for b in range(n)] for a in range(n)])
                for c in cells]

    def _bracket(self, x: dict, y: dict, cols) -> dict:
        """[x, y] e_c = x (y e_c) - y (x e_c) for the (pos(c), c) in cols, x
        and y held by their columns, as the sparse row {a |C| + pos(c): int}."""
        w, out = len(self.cols), {}
        for i, c in cols:
            for u, v, sign in ((x, y, 1), (y, x, -1)):
                for k, t in v.get(c, {}).items():
                    t *= sign
                    for a, z in u.get(k, {}).items():
                        out[a * w + i] = out.get(a * w + i, 0) + t * z
        return out

    @cached_property
    def structure_constants(self) -> tuple[int, list]:
        """(scale, c) with [B_i, B_j] = sum_l C B_l / scale over the nonzero
        pairs (l, C) in c[i][j]; scale = (s den)^2, C is an int (read mod p
        over GF(p)), and one scale for all constants keeps every span.

        B_l is 1 at its pivot p_l, where every other B is 0; so, the space
        being bracket-closed, C is the entry of [s den B_i, s den B_j] at p_l,
        read on the columns in C that hold a pivot.  Der(A) is closed since
        the commutator of derivations is a derivation, and
        forms._bracket_closure closes its span by construction.
        """
        s, mats = self._columns
        p, w = self.field.characteristic, len(self.cols)
        where = {q: l for l, q in enumerate(self.space.pivots)}
        cols = [(i, self.cols[i]) for i in sorted({q % w for q in where})]
        c = [[[] for _ in mats] for _ in mats]
        for i, j in itertools.combinations(range(len(mats)), 2):
            for q, v in self._bracket(mats[i], mats[j], cols).items():
                if q in where and (v := v % p if p else v):
                    c[i][j].append((where[q], v))
                    c[j][i].append((where[q], -v))
        return s * s, c

    def bracket_span(self) -> Subspace:
        """The span of the basis and the brackets of its pairs."""
        _, mats = self._columns
        cols = list(enumerate(self.cols))
        rows = [dict(row) for row in self.space._terms] + [
            self._bracket(a, b, cols) for a, b in itertools.combinations(mats, 2)]
        return Subspace.from_vectors(self.field, self.space.ambient_dim, rows)

    def is_bracket_closed(self) -> bool:
        return self.bracket_span().dim == self.dim


def derivation_algebra(algebra: StructureAlgebra) -> LieSubalgebra:
    """Der(A): matrices D with D(e_i e_j) = D(e_i) e_j + e_i D(e_j), kept as
    the kernel in the |G| d unknowns X_g = D(e_g), g in the generators G.

    D(1) = 0 and D(v_k) = D(v_m) e_g + v_m X_g along the word tree give D on
    the word basis as sparse integer linear forms in X.  Each non-tree pair
    (v_k, g) adds the d rows of D(v_k e_g) = D(v_k) e_g + v_k X_g, v_k e_g
    read in the word basis.  That is enough: S' = {b : D(x b) = D(x) b +
    x D(b) for all x} is closed under products, as D(x b b') = D(x b) b' +
    x b D(b') = D(x) b b' + x D(b b') for b, b' in S'; it holds 1 and G, so
    it holds the words, which span A.  A whole matrix, delta D(e_b) =
    sum_m M_mb D(v_m), is read off the same forms when a bracket needs it.
    """
    f, d, p = algebra.field, algebra.dim, algebra.field.characteristic
    sparse, words = algebra._sparse, algebra.words.reps
    w, pos = len(algebra.gens), {g: i for i, g in enumerate(algebra.gens)}
    left = [[{} for _ in range(d)] for _ in words]  # left[k][t][a] = (v_k o e_a)[t]
    for rows, word in zip(left, words):
        for (s, x), a in itertools.product(enumerate(word), range(d)):
            for t, c in sparse[s][a] if x else ():
                rows[t][a] = rows[t].get(a, 0) + x * c
    # delta e_b = sum_m M_mb v_m, the M_mb integers in inverse[m]
    delta, inverse = _int_terms(algebra.words._terms)

    def leibniz(k: int, g: int) -> list:
        """The forms of D(v_k) o e_g + v_k o X_g, one per e_t coefficient."""
        out = [{a * w + pos[g]: c for a, c in row.items()} for row in left[k]]
        for u, form in enumerate(forms[k]):
            for t, c in sparse[u][g]:
                for col, x in form.items():
                    out[t][col] = out[t].get(col, 0) + c * x
        return [{col: x % p for col, x in row.items()} for row in out] if p else out

    forms = [[{} for _ in range(d)] for _ in words[:1]]    # D(v_0) = D(1) = 0
    for k, g in algebra.edges:          # a word's parent comes before it
        forms.append(leibniz(k, g))
    tree, rows = set(algebra.edges), set()  # sorted (column, entry) pairs, mod p, each once
    for k, g in itertools.product(range(len(words)), algebra.gens):
        if (k, g) in tree:
            continue
        y = {b: row[g] for b, row in enumerate(left[k]) if g in row}   # v_k o e_g
        coords = [sum(x * y.get(b, 0) for b, x in row) for row in inverse]
        for t, rhs in enumerate(leibniz(k, g)):
            row = {col: -delta * x for col, x in rhs.items()}
            for m, c in enumerate(coords):
                for col, x in forms[m][t].items() if c else ():
                    row[col] = row.get(col, 0) + c * x
            rows.add(tuple(sorted((col, r) for col, x in row.items()
                                  if (r := x % p if p else x))))

    def lift(x) -> dict:
        """delta D by columns {b: {a: int}} for D with the entries x on G."""
        x, out = dict(x), {}
        for m, row in enumerate(inverse):
            image = [(a, v) for a, form in enumerate(forms[m])
                     if (v := sum(c * x[col] for col, c in form.items() if col in x))]
            for b, mb in row:
                col = out.setdefault(b, {})
                for a, v in image:
                    col[a] = col.get(a, 0) + mb * v
        return {b: {a: v % p for a, v in col.items()} for b, col in out.items()} if p else out
    return LieSubalgebra(f, d, kernel_rows(map(dict, rows), w * d, f), algebra.gens, lift, delta)


def der_into(algebra: StructureAlgebra, rad: RadicalData, target: Subspace,
             der: LieSubalgebra | None = None) -> LieSubalgebra:
    """{D in Der(A) : D(J) <= target}, in der's coordinates: D(v) = sum_b v_b
    D(e_b), for each integer row v of J, is read off each basis D's columns
    and reduced against the target by _scaled_residual.  Over GF(p) the rows
    stay unreduced; rref_rows reduces them."""
    if der is None:
        der = derivation_algebra(algebra)
    f, (_, mats) = algebra.field, der._columns
    s, scaled = _int_terms(target._terms)
    rows = []
    for v in _int_terms(rad.radical._terms)[1]:
        by_coefficient: dict[int, dict] = {}    # e_t coefficient -> {l: residual}
        for l, m in enumerate(mats):
            for t, r in _scaled_residual(_apply(m, v), target, s, scaled).items():
                by_coefficient.setdefault(t, {})[l] = r
        rows.extend(by_coefficient.values())
    entries = dict(enumerate(map(dict, _int_terms(der.space._terms)[1])))
    vecs = [_apply(entries, u) for u in _int_terms(kernel_rows(rows, der.dim, f)._terms)[1]]
    space = Subspace.from_vectors(f, der.space.ambient_dim, vecs)
    return LieSubalgebra(f, der.n, space, der.cols, der.lift, der.den)


def _series_limit(lie: LieSubalgebra, derived: bool) -> int:
    """Dimension of the last term of the derived (or lower central) series
    of a bracket-closed lie: 0, or that of the first term equal to its
    predecessor.  Each term is an ideal containing the next, so equal
    dimensions mean the series is constant from there on.  Terms are integer
    rows in lie's basis, bracketed through its structure constants."""
    f, m = lie.field, lie.dim
    _, c = lie.structure_constants
    term = units = [[(i, 1)] for i in range(m)]
    while term:
        brackets = []
        for x, y in (itertools.combinations(term, 2) if derived
                     else itertools.product(units, term)):
            v: dict[int, int] = {}
            for i, a in x:
                ci = c[i]
                for j, b in y:
                    ab = a * b
                    for l, s in ci[j]:
                        v[l] = v.get(l, 0) + ab * s
            brackets.append(v)
        span = Subspace.from_vectors(f, m, brackets)
        if span.dim == len(term):
            break
        term = _int_terms(span._terms)[1]
    return len(term)


def is_nilpotent(lie: LieSubalgebra) -> bool:
    """Whether the lower central series of the bracket-closed lie reaches 0."""
    return _series_limit(lie, derived=False) == 0


def is_solvable(lie: LieSubalgebra) -> bool:
    """Whether the derived series of the bracket-closed lie reaches 0."""
    return _series_limit(lie, derived=True) == 0
