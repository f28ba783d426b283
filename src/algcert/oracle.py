"""Ground truth over small finite fields: the automorphism group of a GF(p)
algebra by a backtracking search on the images of its generators, and its
action on J/J^2.

A branch is cut at the first product its images break; ``max_enum`` bounds
the images tried.  Automorphisms and their J/J^2 blocks are matrices held as
lists of rows, whose columns are the images of the basis vectors.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from operator import mul

from .algebra import DEFAULT_MAX_ENUM, RadicalData, StructureAlgebra
from .errors import (InternalInconsistency, SearchSpaceTooLarge,
                     UnsupportedRadicalComputation)
from .fields import PrimeField
from .linalg import Coordinates, Subspace, combine, invert, quotient_basis, row_rank


@dataclass
class EnumeratedGroup:
    elements: list          # automorphism matrices as lists of rows, sorted by entries
    order: int


def _product(algebra: StructureAlgebra, x: dict, y: dict) -> dict:
    """x y for x, y as {index: residue}, its zeros dropped."""
    p = algebra.field.p
    return {k: r for k, c in algebra._times(x.items(), y.items()).items() if (r := c % p)}


def _sum(p: int, pairs) -> dict:
    """sum c v mod p over the (c, v) in pairs, each v as {index: residue}."""
    out: dict[int, int] = {}
    for c, v in pairs:
        for k, x in v.items():
            out[k] = out.get(k, 0) + c * x
    return {k: r for k, x in out.items() if (r := x % p)}


def _is_algebra_map(algebra: StructureAlgebra, m: list) -> bool:
    """Whether m(e_i) m(e_j) = m(e_i e_j) for all i, j, for m the rows of a
    matrix, with e_i e_j read off its cell (residues: the algebra is over
    GF(p))."""
    p, d = algebra.field.p, algebra.dim
    cols = [{a: x for a, x in enumerate(col) if x} for col in zip(*m)]
    return all(_sum(p, ((c, cols[k]) for k, c in algebra._sparse[i][j]))
               == _product(algebra, cols[i], cols[j]) for i in range(d) for j in range(d))


def enumerate_automorphisms(algebra: StructureAlgebra, rad: RadicalData | None,
                            max_enum: int = DEFAULT_MAX_ENUM) -> EnumeratedGroup:
    """All algebra automorphisms of a GF(p) algebra, by backtracking on the
    images of its generators G (Holt, Eick & O'Brien, Handbook of
    Computational Group Theory, 2005, ch. 4).

    phi(1) = 1, and phi(e_g) is tried for one g in G after another: over the
    vectors of J when ``rad`` (None when the radical is not known) puts e_g
    in J, as phi(J) = J, and over all p^d vectors otherwise.  Word k = w_m
    e_g takes the image phi(w_m) phi(e_g) once every generator on its path
    has one.  Each non-tree pair (k, g), w_k e_g = sum c_m w_m, is checked,
    phi(w_k) phi(e_g) = sum c_m phi(w_m), at the first generator after which
    all its words have images.  That is enough, by derivation_algebra's
    argument: the b with phi(x b) = phi(x) phi(b) for all x are closed under
    products and hold 1 and G, so they hold every word.  A leaf, phi(e_b) =
    sum_m M_mb phi(w_m), is kept when it is invertible.  Each image tried is
    one search node, and more than ``max_enum`` of them raise
    SearchSpaceTooLarge.  Every returned map is verified multiplicative,
    unital and invertible.
    """
    f = algebra.field
    if not isinstance(f, PrimeField):
        raise UnsupportedRadicalComputation("enumeration works over GF(p) only")
    p, d, gens, words = f.p, algebra.dim, algebra.gens, algebra.words
    full = Subspace.full(f, d)
    pos = {g: i for i, g in enumerate(gens)}
    level = [-1]                        # the last generator on each word's path
    grown: list = [[] for _ in gens]    # (k, m, i): w_k = w_m e_(gens[i]), per level
    for k, (m, g) in enumerate(algebra.edges, 1):
        level.append(max(level[m], pos[g]))
        grown[level[k]].append((k, m, pos[g]))
    checks: list = [[] for _ in gens]   # (k, i, the (c, m) of w_k e_(gens[i])), per level
    tree = set(algebra.edges)
    for k, g in itertools.product(range(d), gens):
        if (k, g) not in tree:
            terms = [(c, m) for m, c in words.coords(words.product(k, pos[g]))[1].items()]
            last = max(level[k], pos[g], *(level[m] for _, m in terms))
            checks[last].append((k, pos[g], terms))
    inside = [rad is not None and rad.radical.contains({g: 1}) for g in gens]
    spans = [[dict(row) for row in (rad.radical if j else full)._terms] for j in inside]
    inverse = [words.coords({b: 1})[1].items() for b in range(d)]
    images = [{a: x for a, x in enumerate(algebra.one) if x}] + [{}] * (d - 1)
    ys, out, nodes = [{}] * len(gens), [], 0

    def search(i: int) -> None:
        nonlocal nodes
        if i == len(gens):              # column b: phi(e_b) = sum_m M_mb phi(w_m)
            cols = [_sum(p, ((c, images[m]) for m, c in row)) for row in inverse]
            cand = [[col.get(a, 0) for col in cols] for a in range(d)]
            if row_rank(cand, f) == d:
                if not _is_algebra_map(algebra, cand):
                    raise InternalInconsistency("a search leaf is not an algebra map")
                out.append(cand)
            return
        for cs in itertools.product(range(p), repeat=len(spans[i])):
            if (nodes := nodes + 1) > max_enum:
                raise SearchSpaceTooLarge(f"more than {max_enum}", max_enum,
                                          "automorphism search", "nodes")
            ys[i] = _sum(p, zip(cs, spans[i]))
            for k, m, t in grown[i]:
                images[k] = _product(algebra, images[m], ys[t])
            if all(_product(algebra, images[k], ys[t])
                   == _sum(p, ((c, images[m]) for c, m in terms)) for k, t, terms in checks[i]):
                search(i + 1)
    search(0)
    out.sort(key=lambda m: tuple(x for row in m for x in row))
    group = EnumeratedGroup(out, len(out))
    if group.order <= 1000:
        _verify_group(algebra, group)
    return group


def _jj2_coordinates(algebra: StructureAlgebra, rad: RadicalData) -> Coordinates:
    """Coordinates along lifts of a J/J^2 basis, modulo J^2 and a complement of J."""
    f = algebra.field
    return Coordinates(f, rad.lifts, list(rad.square.basis) + quotient_basis(
        rad.radical, Subspace.full(f, algebra.dim)))


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
        cols = list(zip(*b))
        if tuple(tuple(sum(map(mul, row, col)) % f.p for col in cols) for row in a) not in keys:
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
