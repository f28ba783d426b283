"""Structure-constant algebras: axioms, center, Jacobson radical and its
filtration, Wedderburn-Malcev complements for split basic algebras, and the
derivation Lie algebra with its nilpotency and solvability.

Every algebra, given or induced (A/J, a corner, T/I), is loaded from its
nonzero structure constants as cells {(i, j): [(k, c), ...]}; a dense
tensor goes through StructureAlgebra.from_table, which drops its zeros.
Each algebra carries a generating set G and a basis of words in it, so
associativity, the center and the radical's ideal check run on G alone, and
Der(A) is solved in word coordinates on the |G| d entries D(g).  Every
product runs on one sparse integer table, the structure constants times their
common denominator; spans of products, Leibniz rows and Lie series go to the
elimination core as dict rows {column: int}, and a Lie algebra's structure
constants are computed once, on its determining columns, under one scale.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import (AmbientMismatch, InternalInconsistency, NonAssociative,
                     NotSplitBasic, NotUnital, UnsupportedRadicalComputation)
from .fields import Field, PrimeField, QQ
from .linalg import (Coordinates, Subspace, axpy, combine, int_terms, kernel_rows,
                     mod_p, quotient_basis, scalars)
from .roots import minimal_polynomial, poly_divmod, poly_eval, roots_in_field

DEFAULT_MAX_ENUM = 10**7   # largest search space enumerated by default
MAX_RING_MONOMIALS = 10**5  # largest truncated ring built, checked before allocating


class StructureAlgebra:
    """Finite-dimensional unital associative algebra of dimension d =
    len(one), given by its structure constants: ``cells`` maps (i, j) to
    the (k, c) pairs with e_i * e_j = sum c e_k, in any order and each k at
    most once.  A missing pair (i, j), or a k that its cell lacks, is a
    zero constant.  An index outside range(d) or a repeated k raises
    AmbientMismatch, and a c that is not a scalar BadScalar.

    ``gens`` generate it, with the word basis ``words`` (see Words).
    Load verifies unitality exhaustively and associativity on ``gens``
    (Light's test).  A presentation-derived one may carry ``known_radical``.
    """

    def __init__(self, field: Field, cells, one, known_radical: Subspace | None = None):
        p = field.characteristic
        self.field = field
        self.one = [field.coerce(x) for x in one]
        self.dim = d = len(self.one)
        self.known_radical = known_radical
        read = {}                       # (i, j) -> its (k, c) sorted by k, c read by scalars
        for (i, j), cell in cells.items():
            ks, cs = zip(*cell) if cell else ((), ())
            ts = (i, j, *ks)
            if set(map(type, ts)) != {int} or min(ts) < 0 or max(ts) >= d:
                raise AmbientMismatch(f"structure cell ({i}, {j}) has an index outside range({d})")
            if len(set(ks)) != len(ks):
                raise AmbientMismatch(f"structure cell ({i}, {j}) repeats an index k")
            read[i, j] = sorted(zip(ks, scalars(cs, field)))
        # x o y = den x y on integer coordinates: the one product table, as
        # the nonzero (k, c) of each cell of the scaled constants
        self._den = den = 1 if p else lcm(*{x.denominator for cell in read.values()
                                            for _, x in cell if type(x) is not int})
        self._sparse = [[[(k, c) for k, x in read.get((i, j), ())
                          if (c := x % p if p else x * den if type(x) is int
                              else x.numerator * (den // x.denominator))]
                         for j in range(d)] for i in range(d)]
        self._verify_unital()
        self.words = Words(self, ())
        self.gens = [min(g) for g in self.words.gens]
        self.edges = [(m, self.gens[i]) for m, i in self.words.edges]
        self._verify_associative()
        self.commutative = all(self._sparse[i][j] == self._sparse[j][i]
                               for i in range(d) for j in range(i + 1, d))

    @classmethod
    def from_table(cls, field: Field, table, one) -> StructureAlgebra:
        """The algebra of a dense d x d x d tensor, e_i * e_j = sum_k
        table[i][j][k] e_k, loaded from the tensor's nonzero entries."""
        d = len(table)
        if any(len(row) != d or any(len(cell) != d for cell in row) for row in table):
            raise AmbientMismatch("structure tensor is not d x d x d")
        if len(one) != d:
            raise AmbientMismatch("identity vector has wrong length")
        return cls(field, {(i, j): [(k, c) for k, c in enumerate(scalars(cell, field)) if c]
                           for i, row in enumerate(table) for j, cell in enumerate(row)}, one)

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
        """The first (i, j, k), j in middles, with (e_i e_j) e_k != e_i (e_j e_k).

        Each product e_a e_b is read as the integer sum_s c_s 2^(w s)
        (Kronecker substitution; Harvey, J. Symbolic Comput. 44, 2009), c on
        balanced residues over GF(p).  For each pair (i, j) the d columns of
        L_(e_i e_j) and L_(e_i) L_(e_j) are compared as integers: a digit of
        their difference is at most 2 d m^2 < 2^(w-1) in size, m the largest
        |c|, so a column is 0 iff its integer is, and over GF(p) a nonzero
        one is read digit by digit mod p."""
        d, p = self.dim, self.field.characteristic
        sparse = [[cell and [(k, c - p if 2 * c > p else c) for k, c in cell] for cell in row]
                  for row in self._sparse] if p else self._sparse
        m = max((abs(c) for row in sparse for cell in row for _, c in cell), default=0)
        w = (2 * d * m * m).bit_length() + 1
        packed = [[sum([c << w * s for s, c in cell]) if cell else 0 for cell in row]
                  for row in sparse]
        by_k = {j: [(k, t, c) for k, cell in enumerate(sparse[j]) for t, c in cell]
                for j in middles}
        for i, j in itertools.product(range(d), middles):
            lhs, rhs, row = [0] * d, [0] * d, packed[i]
            for t, c in sparse[i][j]:                # column k: (e_i e_j) e_k
                lhs = [x + c * y for x, y in zip(lhs, packed[t])]
            for k, t, c in by_k[j]:                  # column k: e_i (e_j e_k)
                rhs[k] += c * row[t]
            for k, x in enumerate([x - y for x, y in zip(lhs, rhs)] if lhs != rhs else ()):
                if x and (not p or any(r % p for r in _digits(x, w))):
                    return i, j, k
        return None

    # -- arithmetic --------------------------------------------------------

    def _int_vector(self, x) -> tuple[int, list]:
        """(s, the nonzero (i, s x_i)), x read as rref_rows reads a row and s
        its least common denominator (1 over GF(p))."""
        s, (terms,) = int_terms([[(i, a) for i, a in enumerate(scalars(x, self.field)) if a]])
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
        us, vs = int_terms(u._terms)[1], int_terms(v._terms)[1]
        rows = (self._times(a, b) for a in us for b in vs)
        return Subspace.from_vectors(self.field, self.dim, rows)

    def product_span(self, left, space: Subspace, right=None) -> Subspace:
        """span{left v right : v in space}; without ``right``, span{left v}."""
        lefts = self._int_vector(left)[1]
        rows = (self._times(lefts, v) for v in int_terms(space._terms)[1])
        if right is not None:
            rights = self._int_vector(right)[1]
            rows = (self._times(row.items(), rights) for row in rows)
        return Subspace.from_vectors(self.field, self.dim, rows)

    def __repr__(self):
        return f"StructureAlgebra(dim={self.dim}, field={self.field!r})"


# -- coordinates: quotients, subalgebras, corners, and a word basis ------------

class Words(Coordinates):
    """The Coordinates of A along left-normed words ``vecs`` in {1} and
    generators G, in the scaled product x o y = den x y: word 0 is a multiple
    of 1, and word k >= 1 is vecs[m] o gens[i] for its tree edge edges[k - 1]
    = (m, i).  G is taken from ``lifts``, then from the e_i: each joins when
    outside the span of the words so far, which then grows breadth first by
    the products word o g, g in G, that the span lacks."""

    def __init__(self, algebra: StructureAlgebra, lifts):
        super().__init__(algebra.field, [], [])
        d, self.algebra, self.gens, self.edges, self.products = algebra.dim, algebra, [], [], {}
        self.depth, pending = [0], collections.deque()     # generators in each word; pairs to try
        self.add(dict(int_terms([[(i, x) for i, x in enumerate(algebra.one) if x]])[1][0]))
        for g in itertools.chain(lifts, ({i: 1} for i in range(d))):
            if len(self.vecs) == d or not self._reduce(g)[1]:
                continue
            self.gens.append(g)
            pending.extend((k, len(self.gens) - 1) for k in range(len(self.vecs)))
            while pending and len(self.vecs) < d:
                k, i = pending.popleft()
                if self.add(self.product(k, i)):
                    pending.extend((len(self.vecs) - 1, h) for h in range(len(self.gens)))
                    self.edges.append((k, i))
                    self.depth.append(self.depth[k] + 1)
        self.reps = [[w.get(t, 0) for t in range(d)] for w in self.vecs.values()]
        self.dim = self._ambient_dim = d

    def product(self, k: int, i: int, left: bool = False) -> dict:
        """vecs[k] o gens[i] (gens[i] o vecs[k] if ``left``) mod p, formed once."""
        if (key := (k, i, left)) not in self.products:
            x, y = self.vecs[k].items(), self.gens[i].items()
            self.products[key] = mod_p(self.algebra._times(*((y, x) if left else (x, y))), self.p)
        return self.products[key]


def induced_algebra(algebra: StructureAlgebra, coords: Coordinates, one) -> StructureAlgebra:
    """The algebra on span(coords.reps) with x * y = project(lift(x) lift(y)).

    ``one`` is its unit in the coordinates of ``algebra``: the quotient's
    unit for A/J, the subalgebra's own unit (an idempotent of A) for a
    subalgebra or a corner eAe.
    """
    reps = coords.reps
    cells = {(i, j): [(k, c) for k, c in enumerate(coords.project(algebra.multiply(a, b))) if c]
             for i, a in enumerate(reps) for j, b in enumerate(reps)}
    try:
        return StructureAlgebra(coords.field, cells, coords.project(one))
    except (NotUnital, NonAssociative) as exc:
        raise InternalInconsistency(f"induced algebra: {exc}") from exc


def quotient_structure(algebra: StructureAlgebra,
                       rad: RadicalData) -> tuple[StructureAlgebra, Coordinates]:
    """A/J as a structure-constant algebra, on J's canonical coset
    representatives, with the coordinates that lift it back into A."""
    coords = Coordinates.quotient(rad.radical)
    return induced_algebra(algebra, coords, algebra.one), coords


def center(algebra: StructureAlgebra) -> Subspace:
    """Z(A) as the kernel of x -> (x e_g - e_g x)_g over the generators G:
    what commutes with G commutes with every word in G, and they span A."""
    d, sparse, rows = algebra.dim, algebra._sparse, []
    for g in algebra.gens:
        by_k = [{} for _ in range(d)]   # by_k[k][j] = den (e_j e_g - e_g e_j)[k]
        for j in range(d):
            for k, c in sparse[j][g]:
                by_k[k][j] = c
            for k, c in sparse[g][j]:
                by_k[k][j] = by_k[k].get(j, 0) - c
        rows += by_k
    return kernel_rows(rows, d, algebra.field)


# -- radical -------------------------------------------------------------------

@dataclass
class RadicalData:
    radical: Subspace
    powers: list          # [J, J^2, ..., J^l] with the last entry zero
    lowey_length: int
    lifts: list           # rows of J extending a basis of J^2: a J/J^2 basis, lifted

    @property
    def jj2_dim(self) -> int:
        return len(self.lifts)

    @property
    def square(self) -> Subspace:
        return self.powers[1] if len(self.powers) > 1 else self.powers[0]


def _radical_data(algebra: StructureAlgebra, j: Subspace) -> RadicalData:
    """J's powers J, J^2, ... until 0.  A row of J joins B' when it lies
    outside span B' + J B' so far; then J = span B' + J B' and J^2 = J B' +
    J^2 B' = J B', |B'| products per row of J.  The lifts L of a J/J^2 basis
    are the quotient rows of J^2 in J.  The words L^k = L^(k-1) L run until
    0, and J^k = L^k + J^(k+1) comes from the top down, on integer rows.

    That also checks that J is nilpotent.  A nilpotent J = L + J^2 is the
    span S of the words in L (J = L + J^2 = L + L^2 + J^3 = ...), so L^k =
    0 once k > dim J, and J^k = S^k = L^k + L^(k+1) + ....  Conversely, if
    L^m = 0 then S is nilpotent, and L^2 + L^3 + ... = J^2 gives S = J."""
    f, d = algebra.field, algebra.dim
    rows, grown, products = int_terms(j._terms)[1], Coordinates(f, [], []), []
    for b in rows:
        if len(grown.vecs) < j.dim and grown.add(dict(b), records=False):
            products += [algebra._times(a, b) for a in rows]
            for v in products[-len(rows):]:
                if len(grown.vecs) < j.dim:
                    grown.add(v, records=False)
    square = Subspace.from_vectors(f, d, products)
    lifts = quotient_basis(square, j)   # rows of J's canonical basis, so canonical themselves
    words = [span := Subspace(f, d, lifts)]     # L, L^2, ..., the last 0
    while words[-1].dim:
        if len(words) > j.dim:
            raise UnsupportedRadicalComputation("candidate radical is not nilpotent")
        # L^2 <= J^2, so J^2 = 0 ends the words at L
        words.append(algebra.subspace_product(words[-1], span) if square.dim else square)
    powers = [words.pop()]
    while len(words) > 1:               # J^k = L^k + J^(k+1) for k >= 2
        word = words.pop()
        powers.insert(0, word.sum(powers[0]) if powers[0].dim else word)
    # L^2 + L^3 + ... <= J^2, with equality iff J = L + L^2 + ... is nilpotent
    if powers[0] != square:
        raise UnsupportedRadicalComputation("candidate radical is not nilpotent")
    if j.dim:
        powers.insert(0, j)
    # J^lowey = 0, and J^(lowey-1) != 0 (or J = 0, lowey = 1)
    return RadicalData(j, powers, len(powers), lifts)


def _verify_ideal(algebra: StructureAlgebra, j: Subspace) -> bool:
    """Whether J is a two-sided ideal, from e_g J and, unless A is
    commutative, J e_g for g in the generators G.  That is enough: the a
    with a J <= J are closed under products, (a b) J = a (b J) <= a J <= J,
    and hold 1; so once they hold G they hold every word in G, and the
    words span A.  The same goes for J a on the right.  Each product of
    integer rows is reduced against J by _scaled_residual."""
    Subspace.zero(algebra.field, algebra.dim)._check_compatible(j)  # J must lie in A
    s, scaled = int_terms(j._terms)
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
    d, sparse = algebra.dim, algebra._sparse
    # L_x L_y = L_xy, A being associative (checked at load), so trace(L_i L_j)
    # = sum_k c_ij^k trace(L_k), with trace(L_k) = sum_a c_ka^a
    trace = [sum(c for a in range(d) for b, c in sparse[k][a] if b == a) for k in range(d)]
    gram = [[sum(c * trace[k] for k, c in sparse[i][j]) for j in range(d)] for i in range(d)]
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


# -- Wedderburn-Malcev ---------------------------------------------------------

@dataclass
class WMDecomposition:
    semisimple_part: Subspace
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
    subalgebra of alg that contains alg.one, in alg's coordinates and sorted
    by them; raises NotSplitBasic when a component is a proper field
    extension of the base field."""
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
    return sorted(done, key=lambda u: [str(c) for c in u])


def lift_idempotents(algebra: StructureAlgebra, rad: RadicalData, prims: list) -> WMDecomposition:
    """The complement A_s spanned by orthogonal idempotents of A, one over
    each of ``prims``: elements of A whose images in A/J are the primitive
    idempotents of a split basic A/J, kept in their order.  Each is lifted by
    the Newton map e -> 3e^2 - 2e^3, sandwiched to stay orthogonal, until
    exactly idempotent."""
    f, j = algebra.field, rad.radical
    lifted = []
    rest = list(algebra.one)            # 1 - E, E the sum of the lifted idempotents
    max_steps = 2 * max(1, rad.lowey_length).bit_length() + 4
    for g in prims:
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
        if not j.contains([f.sub(a, b) for a, b in zip(u, g)]):
            raise NotSplitBasic("lifted idempotent drifted from its coset")
        lifted.append(u)
        rest = [f.sub(a, b) for a, b in zip(rest, u)]
    if any(rest):
        raise NotSplitBasic("lifted idempotents do not sum to the identity")
    a_s = Subspace.from_vectors(f, algebra.dim, lifted)
    if a_s.dim != len(lifted) or a_s.intersect(j).dim != 0 \
            or a_s.sum(j).dim != algebra.dim:
        raise NotSplitBasic("complement does not split the algebra")
    return WMDecomposition(a_s, lifted)


def wm_complement(algebra: StructureAlgebra, rad: RadicalData) -> WMDecomposition:
    """Semisimple complement A_s with A = A_s + J for split basic algebras.

    A/J must be commutative with an eigenbasis of idempotents over the base
    field; its primitive idempotents go to lift_idempotents.  Commutativity
    is checked before A/J's table is built, as [e_g, e_h] in J for g, h in
    the generators G: their images generate A/J.
    """
    sparse = algebra._sparse
    for g, h in itertools.combinations(algebra.gens, 2):
        bracket = dict(sparse[g][h])    # den [e_g, e_h] on the scaled table
        for k, c in sparse[h][g]:
            bracket[k] = bracket.get(k, 0) - c
        if not rad.radical.contains(bracket):
            raise NotSplitBasic("A/J is not commutative")
    quot, coords = quotient_structure(algebra, rad)
    units = _split_components(quot, Subspace.full(algebra.field, quot.dim))
    return lift_idempotents(algebra, rad, [coords.lift(u) for u in units])


# -- derivations and Lie structure ----------------------------------------------

def _scaled_residual(v: dict, space: Subspace, s: int, scaled: list) -> dict:
    """s v - sum_l v[p_l] s B_l, s times the residual of the integer row v
    against the canonical rows B_l of ``space``, (s, [s B_l]) by int_terms:
    B_l is 1 at its pivot p_l and 0 at the others.  0 (mod p) iff v is in."""
    res = {k: s * x for k, x in v.items()}
    for pc, row in zip(space.pivots, scaled):
        for k, x in row if v.get(pc) else ():
            res[k] = res.get(k, 0) - v[pc] * x
    return res


def _digits(x: int, w: int):
    """The base-2^w digits of x, each in [-2^(w-1), 2^(w-1)), lowest first."""
    while x:
        q = (x + (1 << w - 1)) >> w
        yield x - (q << w)
        x = q


def _apply(m: dict, v) -> dict:
    """m v as {a: int}, m held by its nonzero columns {b: {a: int}} and v
    given by its (b, int) pairs."""
    out: dict[int, int] = {}
    for b, x in v:
        axpy(out, x, m.get(b, {}))
    return out


class LieSubalgebra:
    """Bracket-closed Lie algebra of n x n matrices, each fixed by its
    columns in C (all n unless ``cols`` names them): ``space`` holds entry
    (a, c) at a |C| + pos(c).  ``lift`` maps such integer entries, as pairs,
    to ``den`` times the whole matrix by columns {b: {a: int}}; brackets
    read the lifted canonical basis B_l times its least common denominator,
    in the basis ``frame`` (Words) if given; basis_matrices is in e_i's;
    ``image`` takes v's frame coordinates, as pairs, to den D(v) by entry."""

    def __init__(self, field: Field, n: int, space: Subspace, cols=None, lift=None, den=1,
                 frame=None, image=None):
        self.field, self.n, self.space, self.den = field, n, space, den
        self.cols, self.lift, self.frame = list(range(n)) if cols is None else cols, lift, frame
        self.image, self._rows = image, {}      # rows of the structure constants formed so far

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
        s, terms = int_terms(self.space._terms)
        return s * self.den, list(map(self.lift or self._regroup, terms))

    def basis_matrices(self) -> list[list]:
        """The basis as n x n lists of rows; only their nonzero entries are
        divided by s den."""
        f, n, (s, mats), scales = self.field, self.n, self._columns, [1] * self.n
        if self.frame is not None:      # s_b e_b = sum c_k w_k: M e_b = sum c_k M w_k / s_b
            scales, at = zip(*[self.frame.coords({b: 1}) for b in range(n)])
            mats = [{b: _apply(self.frame.vecs, _apply(m, at[b].items()).items())
                     for b in range(n)} for m in mats]
        cells = [{(a, b): f.div(f.coerce(x), f.coerce(s * scales[b])) for b, col in m.items()
                  for a, x in col.items()} for m in mats]
        return [[[c.get((a, b), f.zero) for b in range(n)] for a in range(n)] for c in cells]

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

    @property
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
        return self._columns[0] ** 2, [self._constants_row(i) for i in range(self.dim)]

    def _constants_row(self, i: int) -> list:
        """c[i] of structure_constants, formed on first use: each pair is
        bracketed once, and a row formed before this one gives its cell for
        i back with the sign flipped."""
        if i not in self._rows:
            (_, mats), p, w = self._columns, self.field.characteristic, len(self.cols)
            where = {q: l for l, q in enumerate(self.space.pivots)}
            cols = [(a, self.cols[a]) for a in sorted({q % w for q in where})]
            self._rows[i] = [
                [(l, -v) for l, v in self._rows[j][i]] if j in self._rows else [] if j == i else
                [(where[q], r) for q, v in self._bracket(mats[i], y, cols).items()
                 if q in where and (r := v % p if p else v)] for j, y in enumerate(mats)]
        return self._rows[i]

    def bracket_span(self) -> Subspace:
        """The span of the basis and the brackets of its pairs."""
        _, mats = self._columns
        cols = list(enumerate(self.cols))
        rows = [dict(row) for row in self.space._terms] + [
            self._bracket(a, b, cols) for a, b in itertools.combinations(mats, 2)]
        return Subspace.from_vectors(self.field, self.space.ambient_dim, rows)

    def is_bracket_closed(self) -> bool:
        return self.bracket_span().dim == self.dim


def derivation_algebra(algebra: StructureAlgebra, rad: RadicalData | None = None) -> LieSubalgebra:
    """Der(A) as the kernel in the |G| d unknowns Y_g = D(w_0 o g) = den s
    D(g) in word coordinates: of Words grown from the J/J^2 lifts of ``rad``
    (a graded A gets its standard table back), else of ``algebra.words``.
    Only R_g: w -> w o g and, unless A is commutative, L_g: w -> g o w are
    read: 2 |G| d products.  D(w_0) = 0, and along the tree D(w_m o g) =
    R_g D(w_m) + L'_m Y_g, with L'_m = L_h1 ... L_hr for w_m = w_0 o h1 o
    ... o hr composed edge by edge and dropped once w_m is done; each
    non-tree pair (w_m, g) adds the rows sum_k R_g[k, m] D(w_k) = R_g D(w_m)
    + L'_m Y_g.  That is enough: S' = {b : D(x b) = D(x) b + x D(b) for all
    x} holds 1 and G and is closed under products, as D(x b b') = D(x b) b'
    + x b D(b') = D(x) b b' + x D(b b'), so it holds the words, which span
    A.  Over Q, R_g and L_g are integers over delta, and forms[k] =
    delta^depth(k) D(w_k) by rows {t: {Y column: int}}, so R_g D(w_m) and a
    pair's rows are sums of rows; ``lift`` and ``image`` read them by column."""
    f, d, p = algebra.field, algebra.dim, algebra.field.characteristic
    words = algebra.words if rad is None or not rad.lifts else Words(algebra, map(dict, int_terms(
        [[(k, x) for k, x in enumerate(u) if x] for u in rad.lifts])[1]))
    n, tree = len(words.gens), {e: k for k, e in enumerate(words.edges, 1)}
    left = not algebra.commutative      # L_g = R_g when A is commutative
    cols = {(m, i, side): (1, {tree[m, i]: 1}) if (m, i) in tree and not side
            else words.coords(words.product(m, i, side))
            for m, i, side in itertools.product(range(d), range(n), {False, left})}
    delta = lcm(*[s for s, _ in cols.values()])
    mat = {key: {k: c * (delta // s) for k, c in cs.items()} for key, (s, cs) in cols.items()}
    right = [{m: mat[m, i, False] for m in range(d)} for i in range(n)]
    weight = [delta ** (max(words.depth) - a) for a in words.depth]   # den D(w_k) : forms[k]
    forms, lefts = [{}] + [None] * (d - 1), {0: {j: {j: 1} for j in range(d)}}
    pending, rows = [], set()           # rows: sorted (column, entry) pairs, mod p, each once

    def add_rows(m: int, i: int, new: dict):    # those of the non-tree pair (w_m, g_i)
        by_t, terms = {}, [(c * weight[k], forms[k]) for k, c in right[i][m].items()]
        for c, form in terms + [(-weight[m], new)]:
            for t, row in form.items():
                axpy(by_t.setdefault(t, {}), c, row)
        rows.update(tuple(r) for row in by_t.values() if (r := sorted(mod_p(row, p).items())))
    for m in range(d):                  # a word's parent comes before it
        lm = lefts.pop(m)               # delta^depth(m) L'_m by columns
        for i in range(n):              # delta^(depth(m) + 1) (R_g D(w_m) + L'_m Y_g)
            new = {}
            for t, row in forms[m].items():
                for a, c in right[i][t].items():
                    axpy(new.setdefault(a, {}), c, row)
            for j, v in lm.items():
                for t, x in v.items():
                    row = new.setdefault(t, {})
                    row[j * n + i] = row.get(j * n + i, 0) + delta * x
            if (m, i) in tree:
                forms[k := tree[m, i]] = {t: mod_p(row, p) for t, row in new.items()}
                lefts[k] = {j: mod_p(_apply(lm, mat[j, i, left].items()), p) for j in range(d)}
            elif any(forms[k] is None for k in right[i][m]):    # a word of w_m o g comes later
                pending.append((m, i, new))
            else:
                add_rows(m, i, new)
    for m, i, new in pending:
        add_rows(m, i, new)

    columns = [{} for _ in forms]       # forms[k] by Y column {col: {t: int}}
    for form, by_col in zip(forms, columns):
        for t, row in form.items():
            for col, x in row.items():
                by_col.setdefault(col, {})[t] = x

    def lift(x) -> dict:                # den D by columns {m: {t: int}}, D with entries x on Y
        return {m: mod_p(axpy({}, weight[m], _apply(c, x)), p) for m, c in enumerate(columns)}

    def image(at) -> dict:              # den D(v) = sum_k at_k weight_k forms[k], by Y column
        out: dict[int, dict] = {}
        for k, a in at:
            for col, v in columns[k].items():
                axpy(out.setdefault(col, {}), a * weight[k], v)
        return out
    return LieSubalgebra(f, d, kernel_rows(map(dict, rows), n * d, f),
                         [tree[0, i] for i in range(n)], lift, weight[0], words, image)


def der_into(der: LieSubalgebra, rad: RadicalData) -> LieSubalgebra:
    """{D in der : D(J) <= J^2}, der = Der(A), in der's coordinates.

    It reads D on the lifts L of a J/J^2 basis alone, jj2_dim vectors and
    not dim J.  J is nilpotent and J = L + J^2, so J = sum_{m >= 1} L^m,
    and D(l_1 ... l_m) = sum_i l_1 ... D(l_i) ... l_m has the factor D(l_i)
    in each term; J^2 being an ideal, D(J) <= J^2 iff D(L) <= J^2.  D(v) is
    formed once per lift on the Y entries, from v's word coordinates (Y_v
    alone when the words grew from L), and reduced against J^2 through its
    words' _scaled_residual; each basis derivation reads it, unreduced mod p
    until kernel_rows."""
    f, square, words = der.field, rad.square, der.frame
    (s, scaled), basis, rows = int_terms(square._terms), int_terms(der.space._terms)[1], []
    residuals = {t: _scaled_residual(w, square, s, scaled) for t, w in words.vecs.items()}
    for v in int_terms([[(k, x) for k, x in enumerate(u) if x] for u in rad.lifts])[1]:
        reduced = {col: _apply(residuals, image.items())    # Y entry -> residual of den D(v)
                   for col, image in der.image(words.coords(dict(v))[1].items()).items()}
        by_coefficient: dict[int, dict] = {}    # e_t coefficient -> {l: residual}
        for l, b in enumerate(basis):
            for t, r in _apply(reduced, b).items():
                by_coefficient.setdefault(t, {})[l] = r
        rows.extend(by_coefficient.values())
    entries = dict(enumerate(map(dict, basis)))
    vecs = [_apply(entries, u) for u in int_terms(kernel_rows(rows, der.dim, f)._terms)[1]]
    space = Subspace.from_vectors(f, der.space.ambient_dim, vecs)
    return LieSubalgebra(f, der.n, space, der.cols, der.lift, der.den, der.frame, der.image)


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
        term = int_terms(span._terms)[1]
    return len(term)


def _killing_diagonal(lie: LieSubalgebra):
    """kappa(B_i, B_i) = tr (ad B_i)^2 = sum_{j, l} C_ij^l C_il^j for each
    basis element B_i, on the integer structure constants: over Q times
    scale^2, a nonzero integer, and over GF(p) (scale 1) mod p.  So each is
    0 exactly when the Killing form's value is."""
    p = lie.field.characteristic
    for row in map(lie._constants_row, range(lie.dim)):    # each formed as it is read
        ad = [dict(cell) for cell in row]      # ad[l][j] = C_il^j
        k = sum(x * ad[l].get(j, 0) for j, cell in enumerate(row) for l, x in cell)
        yield k % p if p else k


def is_nilpotent(lie: LieSubalgebra) -> bool:
    """Whether the lower central series of the bracket-closed lie reaches 0.

    A Killing-form witness is read first.  In a nilpotent Lie algebra each
    (ad x)^k maps into the k+1-th term of the series, so ad x is nilpotent,
    and so is (ad x)^2: kappa(x, x) = 0 in every characteristic (Humphreys,
    Introduction to Lie Algebras, ch. I).  A basis element with kappa(B_i,
    B_i) != 0 therefore says no; when there is none, the series decides."""
    return not any(_killing_diagonal(lie)) and _series_limit(lie, derived=False) == 0


def is_solvable(lie: LieSubalgebra) -> bool:
    """Whether the derived series of the bracket-closed lie reaches 0."""
    return _series_limit(lie, derived=True) == 0
