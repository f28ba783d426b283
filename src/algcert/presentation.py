"""Quiver-style presentations of split local commutative algebras:
admissible ideals inside the truncated ring, normal-form generators,
monomial detection, the star property and minimal-degree subspaces.

The ideal of a presentation is stored as a subspace of the truncated-ring
coordinates (the part of degree < l; the power <X>^l is implicit).  Because
coordinates are in graded-lex order, the rows of the canonical RREF basis
sort by valuation, which makes every degree filtration a row filter.  Only
the sparse rows of that basis are read, and ring elements are dicts
{index: c}, multiplied by a monomial through ``TruncatedRing.times``.  The
algebra T/I itself sits on the standard monomials, the indices at no pivot.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb

from .algebra import (MAX_RING_MONOMIALS, RadicalData, StructureAlgebra,
                      element_idempotents, quotient_structure)
from .errors import (InternalInconsistency, NotAdmissible, NotCommutative,
                     NotLocal, NotSplit, LoweyMismatch, SearchSpaceTooLarge)
from .fields import Field
from .linalg import Subspace, kernel_rows, quotient_rows
from .poly import (Poly, TruncatedRing, degree_monomials, monomial_gcd_factor,
                   s_index)


class Presentation:
    """Admissible ideal <X>^l + <P_1..P_m> presenting k[X1..Xn]/I."""

    def __init__(self, field: Field, n_vars: int, lowey: int,
                 ring: TruncatedRing, ideal: Subspace):
        self.field = field
        self.n_vars = n_vars
        self.lowey = lowey
        self.ring = ring
        self.ideal = ideal
        self._validate()

    def _validate(self):
        # constant + linear coordinates come first, and a row's pivot is its
        # first nonzero
        if any(pc <= self.n_vars for pc in self.ideal.pivots):
            raise NotAdmissible("ideal meets the constant/linear slice")
        if not all(self.ideal.contains(self.ring.times(row, x))
                   for row in self.ideal._terms
                   for x in self.ring.monomials[1:self.n_vars + 1]):
            raise NotAdmissible("ideal is not closed under X_i multiplication")

    def valuations(self) -> list[int]:
        """Degree of the leading monomial of each ideal basis row."""
        return [sum(self.ring.monomials[pc]) for pc in self.ideal.pivots]

    def filtered(self, d: int) -> Subspace:
        """Ideal part supported on degree >= d (a row filter in RREF form)."""
        rows = [r for r, v in zip(self.ideal._terms, self.valuations()) if v >= d]
        return Subspace(self.field, self.ring.dim, rows)

    def degree_projection(self, d: int):
        """(slice monomial list, projected subspace of the valuation-d rows)."""
        ring = self.ring
        slice_pos = {p: k for k, p in enumerate(ring.degree_slice(d))}
        vecs = [{slice_pos[j]: x for j, x in r if j in slice_pos}
                for r, v in zip(self.ideal._terms, self.valuations()) if v == d]
        monos = [ring.monomials[p] for p in slice_pos]
        return monos, Subspace.from_vectors(self.field, len(slice_pos), vecs)

    def row_poly(self, row) -> Poly:
        return self.ring.poly_from_vector(row, self.field)

    def contains_poly(self, f: Poly) -> bool:
        return self.ideal.contains(self.ring.truncate(f))

    def algebra_dim(self) -> int:
        return self.ring.dim - self.ideal.dim

    def __repr__(self):
        return (f"Presentation(n={self.n_vars}, l={self.lowey}, "
                f"ideal_dim={self.ideal.dim}, field={self.field!r})")


def _saturate(ring: TruncatedRing, field: Field, gens: list[Poly]) -> Subspace:
    """Span of all truncated monomial multiples of the generators."""
    vecs = []
    l = ring.trunc_degree
    for g in gens:
        pairs = ring.truncate(g).items()
        val = min((sum(ring.monomials[j]) for j, _ in pairs), default=l)
        vecs += [prod for m in ring.monomials
                 if sum(m) + val < l and (prod := ring.times(pairs, m))]
    return Subspace.from_vectors(field, ring.dim, vecs)


def presentation_from_ideal(n_vars: int, lowey: int, generators: list[Poly],
                            field: Field) -> Presentation:
    """Build the presentation of <X>^l + <generators>.

    Generators must have no constant or linear component after truncation.
    If the generated ideal already contains a smaller power of <X>, the
    stored Lowey length is corrected and a LoweyMismatch warning is issued
    (also when a supplied generator is entirely absorbed by <X>^l).
    """
    if lowey < 2:
        raise NotAdmissible("truncation degree must be at least 2")
    ring = TruncatedRing(n_vars, lowey)
    absorbed = False
    truncated = []
    for g in generators:
        if g.n_vars != n_vars:
            raise NotAdmissible("generator arity mismatch")
        vec = ring.truncate(g)
        cut = ring.poly_from_vector(vec, field)
        if cut.is_zero():
            absorbed = True
            continue
        if any(sum(m) < 2 for m in cut.terms):
            raise NotAdmissible(f"generator {g} has a constant or linear part")
        truncated.append(cut)
    ideal = _saturate(ring, field, truncated)
    actual = _actual_lowey(ring, ideal)
    if actual < lowey:
        warnings.warn(
            f"supplied Lowey length {lowey} corrected to {actual}", LoweyMismatch)
        return presentation_from_ideal(n_vars, actual, truncated, field)
    if absorbed:
        warnings.warn(
            "a generator was absorbed into the implicit power ideal", LoweyMismatch)
    return Presentation(field, n_vars, lowey, ring, ideal)


def _actual_lowey(ring: TruncatedRing, ideal: Subspace) -> int:
    """Least m >= 2 with every degree-m monomial in the ideal, else l.

    The ideal holds every monomial multiple of its rows, so it contains the
    degree-m monomials exactly when it contains all of degree m..l-1, that
    is when its rows of valuation >= m are as many as those monomials.
    """
    vals = [sum(ring.monomials[p]) for p in ideal.pivots]
    for m in range(2, ring.trunc_degree):
        if sum(v >= m for v in vals) == ring.dim - comb(ring.n_vars + m - 1, ring.n_vars):
            return m
    return ring.trunc_degree


def presentation_from_algebra(algebra: StructureAlgebra, rad: RadicalData) -> Presentation:
    """Realize a split local commutative algebra as k[X1..Xn]/I.

    Picks lifts of a J/J^2 basis, evaluates all truncated-ring monomials on
    them, and returns the kernel of the (surjective) evaluation map.
    """
    if not algebra.commutative:
        raise NotCommutative("presentations need a commutative algebra")
    codim = algebra.dim - rad.radical.dim
    if codim > 1:
        quot, _ = quotient_structure(algebra, rad)
        for z in Subspace.full(algebra.field, quot.dim).basis:
            idems, rest = element_idempotents(quot, z, quot.one)
            if len(idems) + any(rest) > 1:
                raise NotLocal("A/J splits into several components")
        raise NotSplit("A/J is a proper extension of the base field")
    if rad.jj2_dim == 0:
        raise NotAdmissible("radical is trivial; no admissible presentation")
    n = rad.jj2_dim
    l = rad.lowey_length
    ring = TruncatedRing(n, l)
    images: dict[tuple, list] = {}
    cols = [eval_monomial(algebra, rad.lifts, m, images) for m in ring.monomials]
    ideal = kernel_rows(zip(*cols), len(cols), algebra.field)
    if ring.dim - ideal.dim != algebra.dim:
        raise NotAdmissible("evaluation map is not surjective")
    return Presentation(algebra.field, n, l, ring, ideal)


def eval_monomial(algebra: StructureAlgebra, ys: list, m: tuple, cache: dict) -> list:
    """The element m(ys) of the algebra, with ys[i] in place of X_{i+1}: the
    image of m with one factor of its first variable taken off, times that
    variable's y.  Images are kept in ``cache`` by monomial, so each costs
    one product."""
    if m in cache:
        return cache[m]
    if sum(m) == 0:
        val = list(algebra.one)
    else:
        i = next(j for j, e in enumerate(m) if e)
        parent = tuple(e - 1 if j == i else e for j, e in enumerate(m))
        val = algebra.multiply(eval_monomial(algebra, ys, parent, cache), ys[i])
    cache[m] = val
    return val


# -- normal form and derived data ------------------------------------------------

@dataclass
class NormalForm:
    generators: list[Poly]
    property_star_r: int | None


def normal_form(pres: Presentation) -> NormalForm:
    """Minimal degreewise generator extraction.

    Working up through degrees d = 2..l-1, new generators form a basis of
    the valuation-(>= d) part of the ideal modulo both the ideal generated
    by earlier generators and the valuation-(>= d+1) part.  Ties are broken
    by graded-lex RREF pivots, so the output is canonical.
    """
    f = pres.field
    ring = pres.ring
    gens: list[Poly] = []
    span = Subspace.zero(f, ring.dim)
    for d in range(2, pres.lowey):
        f_d = pres.filtered(d)
        if f_d.dim == 0:
            continue
        base = span.intersect(f_d).sum(pres.filtered(d + 1))
        for vec in quotient_rows(base, f_d):
            gens.append(pres.row_poly(vec))
        span = _saturate(ring, f, gens)
    if span != pres.ideal:
        raise InternalInconsistency(
            "normal-form generators failed to reconstruct the ideal")
    return NormalForm(gens, _property_star(gens))


def is_monomial_ideal(pres: Presentation) -> bool:
    """True iff the ideal subspace has a basis of single monomials."""
    return all(len(row) == 1 for row in pres.ideal._terms)


def _property_star(gens: list[Poly]) -> int | None:
    """Largest r such that every non-monomial generator is an s-monomial
    homogeneous polynomial with s >= r (None when all generators are
    monomials or some generator is inhomogeneous)."""
    non_monomial = [g for g in gens if not g.is_monomial()]
    if not non_monomial:
        return None
    best = None
    for g in non_monomial:
        _, core = monomial_gcd_factor(g)
        s = s_index(core)
        if s is None:
            return None
        best = s if best is None else min(best, s)
    return best


@dataclass
class MinimalDegreeSubspace:
    degree: int
    monomials: list          # labels for the slice coordinates
    space: Subspace          # inside the degree slice
    polys: list[Poly]
    is_power_slice: bool     # ideal had no part below degree l

    @property
    def dim(self) -> int:
        return self.space.dim


def minimal_degree_subspace(pres: Presentation) -> MinimalDegreeSubspace:
    """Span of the lowest-degree components of the ideal.

    When the ideal subspace is trivial (pure power <X>^l), the full slice of
    degree-l monomials is returned with ``is_power_slice`` set.
    """
    f = pres.field
    if pres.ideal.dim == 0:
        n, l = pres.n_vars, pres.lowey
        monos = degree_monomials(n, l)
        polys = [Poly.monomial(n, f, m) for m in monos]
        return MinimalDegreeSubspace(l, monos, Subspace.full(f, len(monos)),
                                     polys, True)
    d_min = min(pres.valuations())
    monos, space = pres.degree_projection(d_min)
    polys = [Poly(pres.n_vars, f, {monos[j]: c for j, c in row}) for row in space._terms]
    return MinimalDegreeSubspace(d_min, monos, space, polys, False)


def is_graded_presentation(nf: NormalForm) -> bool:
    """Sufficient criterion: all normal-form generators are homogeneous."""
    return all(g.is_homogeneous() for g in nf.generators)


# -- quotient algebra -------------------------------------------------------------

def quotient_algebra(pres: Presentation) -> StructureAlgebra:
    """Structure constants of T(n, l)/I on its standard monomials, the ring
    indices at no pivot of the ideal, the positive-degree ones spanning the
    known radical.  A pivot monomial is minus the rest of its canonical row,
    which is 0 at every other pivot, so each product's cell is read off the
    rows, and a product past the truncation has no cell.  A table of more
    than MAX_RING_MONOMIALS cells is refused before it is built."""
    f, ring = pres.field, pres.ring
    free = sorted(set(range(ring.dim)).difference(pres.ideal.pivots))
    d = len(free)
    if d * d > MAX_RING_MONOMIALS:
        raise SearchSpaceTooLarge(d * d, MAX_RING_MONOMIALS, "T/I table", "cells")
    col = {j: k for k, j in enumerate(free)}
    # each ring monomial modulo I, as (standard monomial, c) pairs: the cell
    # of every product of standard monomials that is this monomial
    normal = {j: [(k, f.one)] for j, k in col.items()}
    normal.update((row[0][0], [(col[t], f.neg(c)) for t, c in row[1:]])
                  for row in pres.ideal._terms)
    cells = {(a, b): normal[k] for a, i in enumerate(free) for b, j in enumerate(free)
             for k in ring.times([(j, 1)], ring.monomials[i])}
    positive = [[(k, f.one)] for k in range(1, d)]
    return StructureAlgebra(f, cells, [f.one] + [f.zero] * (d - 1),
                            known_radical=Subspace(f, d, positive))
