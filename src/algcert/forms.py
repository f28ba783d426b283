"""Quadratic and higher homogeneous forms: Gram extraction, diagonalization,
isotropy and nonsingularity evidence, the linearized stabilizer/similarity
algebras of a polynomial, the linear-change stabilizer of an ideal, and the
rational flag search on a stable subspace.

A linear change of variables acts through one linearised action, delta_M(h)
= sum_ij M_ij X_i dh/dX_j: ``_delta_columns`` builds its n^2 columns once,
each Lie algebra here is the kernel of a linear residual of them
(``_lie_kernel``), and ``restricted_action`` sums the same columns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import comb

from .algebra import DEFAULT_MAX_ENUM, Coordinates, LieSubalgebra, is_solvable
from .errors import (CharTwo, NotDegreeTwo, NotGraded, NotHomogeneous,
                     NotStable, SearchSpaceTooLarge, ZeroPolynomial)
from .fields import Field, PrimeField
from .linalg import Matrix, Subspace, combine, kernel, kernel_rows, row_rank
from .poly import Poly, degree_monomials, partial_derivative
from .presentation import MinimalDegreeSubspace, Presentation
from .roots import (minimal_polynomial, operator_power_sequence, poly_gcd,
                    roots_in_field)

DEFAULT_HEIGHT_BOUND = 50
DEFAULT_PRIMES = (5, 7, 11, 13)


# -- quadratic forms --------------------------------------------------------------

@dataclass
class QuadraticForm:
    gram: Matrix
    poly: Poly

    @property
    def n(self) -> int:
        return self.gram.nrows

    @property
    def field(self) -> Field:
        return self.gram.field

    def evaluate(self, v):
        f = self.field
        v = [f.coerce(x) for x in v]
        gv = self.gram.matvec(v)
        s = f.zero
        for a, b in zip(v, gv):
            s = f.add(s, f.mul(a, b))
        return s


def quadratic_from_poly(f: Poly) -> QuadraticForm:
    """Symmetric Gram matrix of a homogeneous degree-2 polynomial (char != 2)."""
    fld = f.field
    if fld.characteristic == 2:
        raise CharTwo("quadratic-form machinery needs characteristic != 2")
    if f.is_zero() or not f.is_homogeneous() or f.degree() != 2:
        raise NotDegreeTwo("need a nonzero homogeneous polynomial of degree 2")
    n = f.n_vars
    half = fld.inv(fld.coerce(2))
    gram = [[fld.zero] * n for _ in range(n)]
    for m, c in f.terms.items():
        support = [i for i, e in enumerate(m) if e]
        if len(support) == 1:
            i = support[0]
            gram[i][i] = c
        else:
            i, j = support
            gram[i][j] = fld.mul(half, c)
            gram[j][i] = gram[i][j]
    return QuadraticForm(Matrix(fld, gram), f)


def diagonalize(q: QuadraticForm) -> tuple[Matrix, list]:
    """Congruence transformation P with P^T G P diagonal; returns (P, diagonal)."""
    f = q.field
    n = q.n
    g = [list(row) for row in q.gram.rows]
    p = [[f.one if i == j else f.zero for j in range(n)] for i in range(n)]

    def add_col(dst, src, c):
        for r in range(n):
            g[r][dst] = f.add(g[r][dst], f.mul(c, g[r][src]))
        for r in range(n):
            g[dst][r] = f.add(g[dst][r], f.mul(c, g[src][r]))
        for r in range(n):
            p[r][dst] = f.add(p[r][dst], f.mul(c, p[r][src]))

    def swap_cols(a, b):
        for r in range(n):
            g[r][a], g[r][b] = g[r][b], g[r][a]
        g[a], g[b] = g[b], g[a]
        for r in range(n):
            p[r][a], p[r][b] = p[r][b], p[r][a]

    for i in range(n):
        if f.is_zero(g[i][i]):
            j = next((t for t in range(i + 1, n) if not f.is_zero(g[t][t])), None)
            if j is not None:
                swap_cols(i, j)
            else:
                j = next((t for t in range(i + 1, n) if not f.is_zero(g[i][t])), None)
                if j is None:
                    continue
                add_col(i, j, f.one)  # char != 2: g[i][i] becomes 2 g[i][j]
        pivot = g[i][i]
        for j in range(i + 1, n):
            if not f.is_zero(g[i][j]):
                add_col(j, i, f.neg(f.div(g[i][j], pivot)))
    return Matrix(f, p), [g[i][i] for i in range(n)]


@dataclass
class IsotropyEvidence:
    verdict: str                  # ANISOTROPIC_CERTIFIED | ISOTROPIC_WITNESS | UNKNOWN
    method: str                   # definiteness | exhaustive_finite_field | bounded_search | degenerate
    witness: list | None = None


def isotropy(q: QuadraticForm, height_bound: int = DEFAULT_HEIGHT_BOUND,
             max_enum: int = DEFAULT_MAX_ENUM) -> IsotropyEvidence:
    """Isotropy evidence.

    Over GF(p) the point set is scanned exhaustively (complete).  Over Q,
    definiteness of the diagonalized form certifies anisotropy; otherwise a
    bounded integer search either produces a witness or reports UNKNOWN.
    """
    f = q.field
    n = q.n
    if isinstance(f, PrimeField):
        if f.p**n > max_enum:
            raise SearchSpaceTooLarge(f.p**n, max_enum)
        for vec in itertools.product(range(f.p), repeat=n):
            if any(vec) and f.is_zero(q.evaluate(list(vec))):
                return IsotropyEvidence("ISOTROPIC_WITNESS",
                                        "exhaustive_finite_field", list(vec))
        return IsotropyEvidence("ANISOTROPIC_CERTIFIED", "exhaustive_finite_field")
    rad = kernel(q.gram)
    if rad.dim > 0:
        return IsotropyEvidence("ISOTROPIC_WITNESS", "degenerate",
                                list(rad.basis[0]))
    _, diag = diagonalize(q)
    if all(d > 0 for d in diag) or all(d < 0 for d in diag):
        return IsotropyEvidence("ANISOTROPIC_CERTIFIED", "definiteness")
    h = _capped_height(height_bound, n, max_enum)
    for vec in itertools.product(range(-h, h + 1), repeat=n):
        if any(vec) and q.evaluate(list(vec)) == 0:
            return IsotropyEvidence("ISOTROPIC_WITNESS", "bounded_search",
                                    [Fraction(x) for x in vec])
    return IsotropyEvidence("UNKNOWN", "bounded_search")


def _capped_height(height_bound: int, n: int, max_enum: int) -> int:
    h = height_bound
    while h > 1 and (2 * h + 1) ** n > max_enum:
        h -= max(1, h // 4)
    return h


# -- nonsingularity ----------------------------------------------------------------

@dataclass
class NonsingularityEvidence:
    verdict: str                  # NONSINGULAR_CERTIFIED | SINGULAR_WITNESS | PROBABLY_NONSINGULAR | UNKNOWN
    method: str
    witness: list | None = None
    primes_used: list = dc_field(default_factory=list)


def _binary_coeff_vector(f: Poly, degree: int) -> list:
    """Coefficients [c_0..c_degree] with c_i the coefficient of X1^i X2^(d-i)."""
    fld = f.field
    out = [fld.zero] * (degree + 1)
    for (e1, e2), c in f.terms.items():
        out[e1] = c
    return out


def macaulay_rank(forms: list[Poly], degree: int) -> tuple[int, int]:
    """(rank, size) of the Macaulay matrix of n forms of declared degree e
    in n variables: its rows are x^a * g_i with |a| = (n-1)(e-1), its size
    columns the monomials of degree D = n(e-1)+1.  A full rank puts every
    x_j^D in the ideal of the forms, so they have no common zero in
    P^(n-1) over the algebraic closure, in any characteristic (Macaulay
    1916).  For n = 2 it is the Sylvester matrix up to row and column order.
    Each row goes to the elimination core as a dict {column: coefficient}.
    """
    n = forms[0].n_vars
    top = n * (degree - 1) + 1
    cols = {m: j for j, m in enumerate(degree_monomials(n, top))}
    shifts = degree_monomials(n, top - degree)
    rows = ({cols[tuple(x + y for x, y in zip(a, m))]: c for m, c in g.terms.items()}
            for g in forms for a in shifts)
    return row_rank(rows, forms[0].field), len(cols)


def _no_common_zero(parts: list[Poly], d: int, points: int) -> bool:
    """True when the Macaulay rank of the partials of a degree-d form is
    full, so they have no common zero over the algebraic closure.  Declines
    (False) when the rank is short, and without building the matrix when its
    rows x columns exceed the work of the scan it would spare: its ``points``
    times the total terms of the partials, each evaluated at every point."""
    n = len(parts)
    top = n * (d - 2) + 1
    cells = n * comb(top - d + n, n - 1) * comb(top + n - 1, n - 1)
    if cells > points * sum(len(g.terms) for g in parts):
        return False
    rank, size = macaulay_rank(parts, d - 1)
    return rank == size


def _diagonal_profile(f: Poly) -> list | None:
    """Coefficients [a_1..a_n] when f = sum a_i X_i^d; None otherwise."""
    fld = f.field
    d = f.degree()
    out = [fld.zero] * f.n_vars
    for m, c in f.terms.items():
        support = [i for i, e in enumerate(m) if e]
        if len(support) != 1 or m[support[0]] != d:
            return None
        out[support[0]] = c
    return out


def _partials(f: Poly) -> list[Poly]:
    return [partial_derivative(f, i) for i in range(f.n_vars)]


def _is_common_zero(parts: list[Poly], v) -> bool:
    fld = parts[0].field
    return all(fld.is_zero(p.evaluate(v)) for p in parts)


def nonsingularity(f: Poly, height_bound: int = DEFAULT_HEIGHT_BOUND,
                   primes=DEFAULT_PRIMES,
                   max_enum: int = DEFAULT_MAX_ENUM) -> NonsingularityEvidence:
    """Evidence that 0 is the only common root of the partial derivatives.

    Diagonal forms and binary forms get exact verdicts; for n >= 3 over Q
    the common zero locus of the partials is scanned over several prime
    reductions (empty scans => PROBABLY_NONSINGULAR), over GF(p) only the
    rational points are scanned.

    A full Macaulay rank of the partials (``macaulay_rank``) shows that they
    have no common zero at all, so it fixes what a scan would find: the
    GF(p) scan and a prime reduction's scan find no point, and the bounded
    height search over Q finds no witness.  Such a scan is skipped, with the
    same evidence as it would give, whenever the matrix has no more
    rows x columns than the scan's evaluation work: its points (p^n for a
    prime, (2h+1)^n for the height search up to h) times the total terms of
    the partials.  The height search takes each shell max |x_i| = r once.
    """
    fld = f.field
    if f.is_zero() or not f.is_homogeneous():
        raise NotHomogeneous("need a nonzero homogeneous polynomial")
    d = f.degree()
    if d < 2:
        raise NotHomogeneous("need degree at least 2")
    n = f.n_vars
    char = fld.characteristic
    diag = _diagonal_profile(f)
    if diag is not None:
        missing = next((i for i, a in enumerate(diag) if fld.is_zero(a)), None)
        if char and d % char == 0:
            witness = [fld.one] + [fld.zero] * (n - 1)
            return NonsingularityEvidence("SINGULAR_WITNESS", "diagonal", witness)
        if missing is not None:
            witness = [fld.one if i == missing else fld.zero for i in range(n)]
            return NonsingularityEvidence("SINGULAR_WITNESS", "diagonal", witness)
        return NonsingularityEvidence("NONSINGULAR_CERTIFIED", "diagonal")
    parts = _partials(f)
    if n == 2:
        return _nonsingularity_binary(f, parts)
    if isinstance(fld, PrimeField):
        if fld.p**n > max_enum:
            raise SearchSpaceTooLarge(fld.p**n, max_enum)
        if not _no_common_zero(parts, d, fld.p**n):
            for vec in itertools.product(range(fld.p), repeat=n):
                if any(vec) and _is_common_zero(parts, list(vec)):
                    return NonsingularityEvidence("SINGULAR_WITNESS",
                                                  "exhaustive_finite_field",
                                                  list(vec), [fld.p])
        return NonsingularityEvidence("PROBABLY_NONSINGULAR",
                                      "exhaustive_finite_field",
                                      primes_used=[fld.p])
    used = []
    any_nonempty = False
    for p in primes:
        if any(c.denominator % p == 0 for c in f.terms.values()):
            continue
        gf = PrimeField(p)
        if p**n > max_enum:
            continue
        red = Poly(n, gf, {m: gf.coerce(c) for m, c in f.terms.items()})
        red_parts = _partials(red)
        nonempty = not _no_common_zero(red_parts, d, p**n) and any(
            any(vec) and _is_common_zero(red_parts, list(vec))
            for vec in itertools.product(range(p), repeat=n))
        used.append(p)
        any_nonempty = any_nonempty or nonempty
    if used and not any_nonempty:
        return NonsingularityEvidence("PROBABLY_NONSINGULAR", "prime_reductions",
                                      primes_used=used)
    # some reduction is singular: look for a rational witness of bounded height
    h = _capped_height(height_bound, n, max_enum)
    if not _no_common_zero(parts, d, (2 * h + 1) ** n):
        for radius in range(1, h + 1):
            for vec in _shell(n, radius):
                if _is_common_zero(parts, [Fraction(x) for x in vec]):
                    return NonsingularityEvidence("SINGULAR_WITNESS", "bounded_search",
                                                  [Fraction(x) for x in vec], used)
    return NonsingularityEvidence("UNKNOWN", "prime_reductions", primes_used=used)


def _shell(n: int, r: int):
    """The integer n-tuples with max |x_i| = r, in the lexicographic order of
    [-r, r]^n: a tuple whose first entry is +-r continues with any tail, one
    whose first entry is smaller with a tail in the shell of n - 1."""
    for x in range(-r, r + 1) if n else ():
        tails = (itertools.product(range(-r, r + 1), repeat=n - 1) if abs(x) == r
                 else _shell(n - 1, r))
        for tail in tails:
            yield (x, *tail)


def _nonsingularity_binary(f: Poly, parts: list[Poly]) -> NonsingularityEvidence:
    fld = f.field
    d = f.degree()
    fx, fy = parts
    if fx.is_zero() and fy.is_zero():
        witness = [fld.one, fld.zero]
        return NonsingularityEvidence("SINGULAR_WITNESS", "resultant", witness)
    if fx.is_zero() or fy.is_zero():
        g = fy if fx.is_zero() else fx
        witness = _binary_rational_root(g)
        if witness is not None:
            return NonsingularityEvidence("SINGULAR_WITNESS", "resultant", witness)
        return NonsingularityEvidence("UNKNOWN", "resultant")
    rank, size = macaulay_rank(parts, d - 1)
    if rank == size:
        return NonsingularityEvidence("NONSINGULAR_CERTIFIED", "resultant")
    if _is_common_zero(parts, [fld.one, fld.zero]):
        return NonsingularityEvidence("SINGULAR_WITNESS", "resultant",
                                      [fld.one, fld.zero])
    g = poly_gcd(*(_binary_coeff_vector(p, d - 1) for p in parts), fld)
    if len(g) > 1:
        roots = roots_in_field(g, fld)
        if roots:
            return NonsingularityEvidence("SINGULAR_WITNESS", "resultant",
                                          [roots[0], fld.one])
    return NonsingularityEvidence("UNKNOWN", "resultant")


def _binary_rational_root(g: Poly) -> list | None:
    """A base-field projective zero of a nonzero binary form, if any."""
    fld = g.field
    coeffs = _binary_coeff_vector(g, g.degree())
    if fld.is_zero(coeffs[-1]):
        return [fld.one, fld.zero]
    roots = roots_in_field(coeffs, fld)
    if roots:
        return [roots[0], fld.one]
    return None


# -- the linearised action delta_M ---------------------------------------------------

def _delta_columns(h: Poly) -> list[dict]:
    """The n^2 columns of delta_M(h) = sum_ij M_ij X_i dh/dX_j, the derivative
    of t -> h(X (I + tM)) at t = 0: column i n + j is X_i dh/dX_j as
    {monomial: c}, where each term c X^m with m_j > 0 gives m_j c at m with
    one X_j traded for an X_i."""
    if h.is_zero():
        raise ZeroPolynomial("Lie algebra of the zero polynomial")
    if not h.is_homogeneous():
        raise NotHomogeneous("need a homogeneous polynomial")
    fld, n = h.field, h.n_vars
    cols = [{} for _ in range(n * n)]
    for m, c in h.terms.items():
        for j, e in enumerate(m):
            if e and (x := fld.mul(e, c)):
                lower = m[:j] + (e - 1,) + m[j + 1:]
                for i in range(n):
                    cols[i * n + j][lower[:i] + (lower[i] + 1,) + lower[i + 1:]] = x
    return cols


def _lie_kernel(fld: Field, n: int, polys: list[Poly], residual) -> LieSubalgebra:
    """{M in gl_n : residual(delta_M(h)) = 0 for each h in polys}, residual
    a linear map of a column to a dict {coordinate: c} of its nonzeros: one
    kernel row per (h, coordinate), holding M_ij's coefficient at i n + j."""
    rows: dict[tuple, dict] = {}
    for r, h in enumerate(polys):
        for k, col in enumerate(_delta_columns(h)):
            for c, x in residual(col).items():
                rows.setdefault((r, c), {})[k] = x
    return LieSubalgebra(fld, n, kernel_rows(rows.values(), n * n, fld))


def stab_lie(f: Poly) -> LieSubalgebra:
    """Lie algebra of the stabilizer of f: {M : delta_M(f) = 0}."""
    return _lie_kernel(f.field, f.n_vars, [f], dict)


def sim_lie(f: Poly) -> LieSubalgebra:
    """Lie algebra of the similarity group: {M : delta_M(f) in span{f}}.  A
    column's residual against span{f} is the column less the multiple of f
    that clears it at f's first monomial."""
    fld = f.field

    def residual(col: dict) -> dict:
        mono, lead = next(iter(f.terms.items()))      # f != 0: it has columns
        t = fld.div(col.get(mono, fld.zero), lead)
        return {m: c for m in col.keys() | f.terms.keys()
                if (c := fld.sub(col.get(m, fld.zero), fld.mul(t, f.coefficient(m))))}

    return _lie_kernel(fld, f.n_vars, [f], residual)


def im_phi_lie(pres: Presentation) -> LieSubalgebra:
    """{M in gl_n : delta_M(ideal) <= ideal} for a graded presentation: the
    residual of each column of each ideal basis row h against the ideal.  A
    column has h's degree, below l, so it is its own truncation."""
    polys = [pres.row_poly(dict(row)) for row in pres.ideal._terms]
    if not all(h.is_homogeneous() for h in polys):
        raise NotGraded("presentation ideal has no homogeneous basis")
    index = pres.ring.index
    return _lie_kernel(pres.field, pres.n_vars, polys,
                       lambda col: pres.ideal.reduce({index[m]: c for m, c in col.items()}))


# -- flag search --------------------------------------------------------------------

@dataclass
class FlagSearchResult:
    status: str                   # FULL_FLAG | NO_RATIONAL_FLAG | NOT_SOLVABLE
    flag: list | None = None      # chain vectors in the W coordinates


def restricted_action(lie: LieSubalgebra, w: MinimalDegreeSubspace) -> list[Matrix]:
    """Matrices of delta_M acting on W for each basis M of the Lie algebra:
    delta_M(w) = sum_k M_k column_k(w) over M's nonzero entries, with W's
    columns built once per basis vector w.

    Raises NotStable when some delta_M image leaves W.
    """
    f = lie.field
    index = {m: i for i, m in enumerate(w.monomials)}
    columns = [[{index[m]: c for m, c in col.items()} for col in _delta_columns(wp)]
               for wp in w.polys]
    ops = []
    for m in lie.basis_matrices():
        entries = [(k, x) for k, x in enumerate(m.flatten()) if x]
        cols = []
        for wcols in columns:
            img: dict = {}
            for k, x in entries:
                for pos, c in wcols[k].items():
                    img[pos] = f.add(img.get(pos, f.zero), f.mul(x, c))
            if not w.space.contains(img):
                raise NotStable("subspace is not stable under the action")
            # a vector of W has its coordinates on the canonical basis at the pivots
            cols.append([img.get(p, f.zero) for p in w.space.pivots])
        ops.append(Matrix.from_columns(f, cols))
    return ops


def _bracket_closure(field: Field, n: int, ops: list[Matrix]) -> Subspace:
    span = Subspace.from_vectors(field, n * n, [m.flatten() for m in ops])
    while (grown := LieSubalgebra(field, n, span).bracket_span()).dim > span.dim:
        span = grown
    return span


def flag_search(operators: list[Matrix], field: Field,
                dim_w: int | None = None) -> FlagSearchResult:
    """Search a full flag of subspaces stable under all operators.

    Works over the base field only: each step needs a common eigenvector
    whose eigenvalues lie in the field; a solvable action without one yields
    NO_RATIONAL_FLAG.  Non-solvable spans are rejected outright.
    """
    if dim_w is None:
        if not operators:
            raise ValueError("need dim_w when no operators are given")
        dim_w = operators[0].nrows
    if operators:
        closure = _bracket_closure(field, dim_w, operators)
        if not is_solvable(LieSubalgebra(field, dim_w, closure)):
            return FlagSearchResult("NOT_SOLVABLE")
    flag: list[list] = []
    reps = Matrix.identity(field, dim_w).rows
    ops = [Matrix(field, m.rows) for m in operators]
    cur = dim_w
    while cur > 0:
        candidates = [Subspace.full(field, cur)]
        for op in ops:
            mp = minimal_polynomial(operator_power_sequence(op), field)
            eigi = roots_in_field(mp, field)
            refined = []
            for lam in eigi:
                shifted = Matrix(field, [[field.sub(x, lam if i == j else field.zero)
                                          for j, x in enumerate(row)]
                                         for i, row in enumerate(op.rows)])
                eig = kernel(shifted)
                for s in candidates:
                    meet = s.intersect(eig)
                    if meet.dim > 0:
                        refined.append(meet)
            candidates = refined
            if not candidates:
                return FlagSearchResult("NO_RATIONAL_FLAG")
        v = list(candidates[0].basis[0])
        flag.append(combine(field, zip(v, reps), len(reps[0])))
        if cur == 1:
            break
        # continue on the quotient by the line through v
        coords = Coordinates.quotient(Subspace.from_vectors(field, cur, [v]))
        ops = [Matrix.from_columns(field, [coords.project(op.matvec(w))
                                           for w in coords.reps])
               for op in ops]
        reps = [combine(field, zip(w, reps), len(reps[0])) for w in coords.reps]
        cur -= 1
    return FlagSearchResult("FULL_FLAG", flag)
