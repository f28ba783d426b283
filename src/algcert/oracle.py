"""Brute-force ground truth over small finite fields: automorphism
enumeration and the action on J/J^2.

Deliberately naive; a candidate-count guard is the only optimization.
Automorphisms and their J/J^2 blocks are matrices held as lists of rows,
whose columns are the images of the basis vectors.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .algebra import DEFAULT_MAX_ENUM, Coordinates, RadicalData, StructureAlgebra
from .errors import (InternalInconsistency, SearchSpaceTooLarge,
                     UnsupportedRadicalComputation)
from .fields import PrimeField
from .linalg import Subspace, combine, invert, kernel_rows, quotient_basis, rref_rows
from .poly import TruncatedRing
from .presentation import eval_monomial


@dataclass
class EnumeratedGroup:
    elements: list          # automorphism matrices as lists of rows, sorted by entries
    order: int


def _is_algebra_map(algebra: StructureAlgebra, m: list) -> bool:
    """Whether m(e_i) m(e_j) = m(e_i e_j) for all i, j, for m the rows of a
    matrix, with e_i e_j read off its cell (residues: the algebra is over
    GF(p))."""
    f, d = algebra.field, algebra.dim
    cols = list(map(list, zip(*m)))
    for i in range(d):
        for j in range(d):
            image = combine(f, ((c, cols[k]) for k, c in algebra._sparse[i][j]), d)
            if image != algebra.multiply(cols[i], cols[j]):
                return False
    return True


def enumerate_automorphisms(algebra: StructureAlgebra, rad: RadicalData | None,
                            max_enum: int = DEFAULT_MAX_ENUM) -> EnumeratedGroup:
    """All algebra automorphisms of a GF(p) algebra by exhaustive search.

    Local commutative algebras (by ``rad``, None when the radical is not
    known) enumerate generator images inside J (p^(n dim J) candidates);
    any other algebra enumerates arbitrary images of a complement of the
    identity (p^(d(d-1)) candidates).  Every returned map is verified
    multiplicative, unital and invertible.
    """
    f = algebra.field
    if not isinstance(f, PrimeField):
        raise UnsupportedRadicalComputation("enumeration works over GF(p) only")
    d = algebra.dim
    if rad is not None and algebra.commutative and rad.radical.dim == d - 1:
        elements = _enumerate_local_commutative(algebra, rad, max_enum)
    else:
        elements = _enumerate_general(algebra, max_enum)
    elements.sort(key=lambda m: tuple(x for row in m for x in row))
    group = EnumeratedGroup(elements, len(elements))
    if group.order <= 1000:
        _verify_group(algebra, group)
    return group


def _enumerate_local_commutative(algebra: StructureAlgebra, rad: RadicalData,
                                 max_enum: int) -> list:
    f = algebra.field
    p, d = f.p, algebra.dim
    jj2 = _jj2_coordinates(algebra, rad)
    gens = jj2.reps
    n = len(gens)
    jdim = rad.radical.dim
    count = p**(n * jdim)
    if count > max_enum:
        raise SearchSpaceTooLarge(count, max_enum)
    # monomial basis of the algebra: pivots of the evaluation map
    ring = TruncatedRing(n, rad.lowey_length)
    images: dict = {}
    cols = [eval_monomial(algebra, gens, m, images) for m in ring.monomials]
    ev = list(map(list, zip(*cols)))
    _, pivots = rref_rows(ev, len(cols), f)
    if len(pivots) != d:
        raise InternalInconsistency("lifts of a J/J^2 basis do not generate the algebra")
    basis_monos = [ring.monomials[c] for c in pivots]
    binv = invert([[row[c] for c in pivots] for row in ev], f)
    if binv is None:
        raise InternalInconsistency("pivot monomials are not a basis")
    relations = [[(pos, c) for pos, c in enumerate(row) if c]
                 for row in kernel_rows(ev, len(cols), f).basis]
    jbasis = rad.radical.basis
    # J/J^2 coordinates of every radical basis vector, for the linear block
    jj2_coords = [jj2.project(row) for row in jbasis]
    out = []
    for assign in itertools.product(range(p), repeat=n * jdim):
        block = []
        for i in range(n):
            chunk = assign[i * jdim:(i + 1) * jdim]
            block.append([sum(c * jc[t] for c, jc in zip(chunk, jj2_coords))
                          for t in range(n)])
        _, piv = rref_rows(block, n, f)
        if len(piv) < n:
            continue
        ys = [combine(f, zip(assign[i * jdim:(i + 1) * jdim], jbasis), d) for i in range(n)]
        # a generator assignment defines an endomorphism iff every ideal
        # relation evaluates to zero on it
        vals: dict = {}
        if any(any(_poly_value(algebra, ys, rel, ring, vals)) for rel in relations):
            continue
        img_cols = [eval_monomial(algebra, ys, m, vals) for m in basis_monos]
        cand = [combine(f, zip(row, binv), d) for row in zip(*img_cols)]
        if invert(cand, f) is None:
            continue
        if _is_algebra_map(algebra, cand):
            out.append(cand)
    return out


def _jj2_coordinates(algebra: StructureAlgebra, rad: RadicalData) -> Coordinates:
    """Coordinates along lifts of a J/J^2 basis, modulo J^2 and a complement of J."""
    f = algebra.field
    return Coordinates(f, rad.lifts, list(rad.square.basis) + quotient_basis(
        rad.radical, Subspace.full(f, algebra.dim)))


def _poly_value(algebra, ys, relation, ring, cache):
    return combine(algebra.field, ((c, eval_monomial(algebra, ys, ring.monomials[pos], cache))
                                   for pos, c in relation), algebra.dim)


def _enumerate_general(algebra: StructureAlgebra, max_enum: int) -> list:
    f = algebra.field
    p, d = f.p, algebra.dim
    one_line = Subspace.from_vectors(f, d, [algebra.one])
    comp = quotient_basis(one_line, Subspace.full(f, d))
    free = len(comp)
    count = p**(d * free)
    if count > max_enum:
        raise SearchSpaceTooLarge(count, max_enum)
    binv = invert(list(zip(algebra.one, *comp)), f)
    if binv is None:
        raise InternalInconsistency("identity and its complement are not a basis")
    out = []
    for assign in itertools.product(range(p), repeat=d * free):
        img_cols = [list(algebra.one)]
        for t in range(free):
            img_cols.append(list(assign[t * d:(t + 1) * d]))
        cand = [combine(f, zip(row, binv), d) for row in zip(*img_cols)]
        if invert(cand, f) is None:
            continue
        if _is_algebra_map(algebra, cand):
            out.append(cand)
    return out


def _verify_group(algebra: StructureAlgebra, group: EnumeratedGroup) -> None:
    """Sanity checks: identity and inverses always, composition closure in
    full for small groups and on a seeded sample of pairs beyond that
    (closure is implied by exhaustiveness; the check guards against bugs)."""
    f, d = algebra.field, algebra.dim
    mats = [tuple(tuple(int(x) for x in row) for row in m) for m in group.elements]
    keys = set(mats)
    eye = tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))
    if eye not in keys:
        raise InternalInconsistency("automorphism group: identity missing")
    for m in group.elements:
        inv = invert(m, f)
        if inv is None or tuple(tuple(int(x) for x in row) for row in inv) not in keys:
            raise InternalInconsistency("automorphism group: inverse missing")
    order = len(mats)
    if order * order <= 40000:
        pairs = ((a, b) for a in mats for b in mats)
    else:
        rng = random.Random(0xa11c)
        pairs = ((rng.choice(mats), rng.choice(mats)) for _ in range(40000))
    for a, b in pairs:
        prod = tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(d)) % f.p
                  for j in range(d))
            for i in range(d))
        if prod not in keys:
            raise InternalInconsistency("automorphism group: not closed under composition")


@dataclass
class InducedAction:
    matrices: list           # J/J^2 blocks aligned with the group elements
    kernel_count: int        # elements acting as the identity on J/J^2
    image_order: int         # number of distinct blocks


def induced_jj2_matrices(group: EnumeratedGroup, algebra: StructureAlgebra,
                         rad: RadicalData) -> InducedAction:
    """The J/J^2 block of every enumerated automorphism."""
    f = algebra.field
    coords = _jj2_coordinates(algebra, rad)

    def block(m: list) -> list:
        cols = list(zip(*m))
        return list(map(list, zip(*[coords.project(combine(f, zip(x, cols), algebra.dim))
                                    for x in coords.reps])))

    eye = [[f.one if i == j else f.zero for j in range(coords.dim)] for i in range(coords.dim)]
    mats = [block(m) for m in group.elements]
    kernel_count = sum(1 for b in mats if b == eye)
    distinct = {tuple(x for row in b for x in row) for b in mats}
    return InducedAction(mats, kernel_count, len(distinct))
