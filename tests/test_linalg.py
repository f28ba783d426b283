import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from algcert.constructions import componentwise_algebra
from algcert.errors import AmbientMismatch, BadScalar, NotContained
from algcert.fields import GF, QQ
from algcert.linalg import (Coordinates, Subspace, _canonical, _sparse_row, invert,
                            kernel_rows, quotient_basis, rref_rows, solve)
from algcert.roots import minimal_polynomial, operator_power_sequence
from conftest import identity, matmul, matrix_sum

GF2 = GF(2)
GF3 = GF(3)
GF5 = GF(5)
GF_BIG = GF(2**31 - 1)


def test_rref_proportional_rows():
    r, pivots = rref_rows([[1, 2], [2, 4]], 2, QQ)
    assert pivots == [0]
    assert r[0] == [Fraction(1), Fraction(2)]


def test_rref_identity_fixed_point():
    m = identity(QQ, 3)
    r, pivots = rref_rows(m, 3, QQ)
    assert len(pivots) == 3
    assert r == m


def test_rref_gf2():
    # [[1,1],[1,2]] = [[1,1],[1,0]] mod 2 reduces to the identity
    r, pivots = rref_rows([[1, 1], [1, 2]], 2, GF2)
    assert len(pivots) == 2
    assert r == [[1, 0], [0, 1]]


def test_rref_idempotent():
    r1, _ = rref_rows([[2, 4, 1], [3, 1, 0], [5, 5, 1]], 3, QQ)
    r2, _ = rref_rows(r1, 3, QQ)
    assert r1 == r2


def test_kernel_single_relation():
    k = kernel_rows([[1, 2]], 2, QQ)
    assert k.dim == 1
    assert k.contains([-2, 1])


def test_kernel_invertible_is_zero():
    assert kernel_rows([[1, 2], [3, 4]], 2, QQ).dim == 0


def test_kernel_gf3_nullity():
    k = kernel_rows([[1, 1, 1], [0, 0, 0]], 3, GF3)
    assert k.dim == 2
    for v in k.basis:
        assert sum(v) % 3 == 0


def test_solve_examples():
    assert solve([[2]], [1], QQ) == [Fraction(1, 2)]
    assert solve([[1], [1]], [0, 1], QQ) is None
    assert solve([[1, 1], [0, 1]], [3, 1], QQ) == [Fraction(2), Fraction(1)]


def test_subspace_sum_intersect():
    u = Subspace.from_vectors(QQ, 3, [[1, 0, 0]])
    v = Subspace.from_vectors(QQ, 3, [[0, 1, 0]])
    assert u.sum(v).dim == 2
    assert u.intersect(v).dim == 0


def test_subspace_self_operations():
    u = Subspace.from_vectors(QQ, 3, [[1, 1, 0], [0, 1, 1]])
    assert u.intersect(u) == u
    assert quotient_basis(u, u) == []


def test_quotient_basis_extension():
    u = Subspace.from_vectors(QQ, 3, [[1, 1, 0]])
    v = Subspace.from_vectors(QQ, 3, [[1, 1, 0], [0, 0, 1]])
    ext = quotient_basis(u, v)
    assert len(ext) == 1
    reduced = u.reduce(ext[0])
    assert reduced == [Fraction(0), Fraction(0), Fraction(1)]


def test_quotient_basis_not_contained():
    u = Subspace.from_vectors(QQ, 2, [[1, 0]])
    v = Subspace.from_vectors(QQ, 2, [[0, 1]])
    with pytest.raises(NotContained):
        quotient_basis(u, v)


def test_ambient_mismatch():
    u = Subspace.from_vectors(QQ, 2, [[1, 0]])
    v = Subspace.from_vectors(QQ, 3, [[1, 0, 0]])
    with pytest.raises(AmbientMismatch):
        u.sum(v)


def test_invert_round_trip():
    m = [[1, 2], [3, 4]]
    inv = invert(m, QQ)
    assert matmul(QQ, m, inv) == identity(QQ, 2)
    assert invert([[1, 2], [2, 4]], QQ) is None


def _random_subspace(draw, field, ambient):
    nvecs = draw(st.integers(0, ambient))
    vecs = draw(st.lists(
        st.lists(st.integers(-4, 4), min_size=ambient, max_size=ambient),
        min_size=nvecs, max_size=nvecs))
    return Subspace.from_vectors(field, ambient, vecs)


@st.composite
def two_subspaces(draw, field, ambient=4):
    return (_random_subspace(draw, field, ambient),
            _random_subspace(draw, field, ambient))


@settings(max_examples=40, deadline=None)
@given(two_subspaces(QQ))
def test_grassmann_identity_q(pair):
    u, v = pair
    assert u.sum(v).dim + u.intersect(v).dim == u.dim + v.dim


@settings(max_examples=40, deadline=None)
@given(two_subspaces(GF5))
def test_grassmann_identity_gf5(pair):
    u, v = pair
    assert u.sum(v).dim + u.intersect(v).dim == u.dim + v.dim


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4),
                min_size=1, max_size=5))
def test_kernel_vectors_annihilate(rows):
    k = kernel_rows(rows, 4, QQ)
    assert k.dim == 4 - len(rref_rows(rows, 4, QQ)[1])
    for v in k.basis:
        assert matmul(QQ, rows, [[x] for x in v]) == [[0]] * len(rows)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                min_size=2, max_size=4),
       st.lists(st.integers(-6, 6), min_size=2, max_size=4))
def test_solve_substitutes_exactly(rows, b):
    if len(b) != len(rows):
        b = (b + [0] * len(rows))[:len(rows)]
    x = solve(rows, b, QQ)
    if x is not None:
        assert matmul(QQ, rows, [[t] for t in x]) == [[Fraction(t)] for t in b]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_rref_idempotence_gf5(rows):
    r1, _ = rref_rows(rows, 3, GF5)
    r2, _ = rref_rows(r1, 3, GF5)
    assert r1 == r2


# -- differential checks against textbook elimination -------------------------

def _textbook_rref(rows, ncols, field):
    """Gauss-Jordan in field arithmetic, scaling each pivot row to 1 as it is
    chosen; the reference for the integer-row core."""
    work = [[field.coerce(x) for x in r] for r in rows]
    done, pivots = [], []
    for col in range(ncols):
        sel = next((i for i, r in enumerate(work) if not field.is_zero(r[col])), None)
        if sel is None:
            continue
        prow = work.pop(sel)
        inv = field.inv(prow[col])
        prow = [field.mul(inv, x) for x in prow]

        def clear(r):
            return [field.sub(x, field.mul(r[col], y)) for x, y in zip(r, prow)]
        done = [clear(r) for r in done] + [prow]
        work = [clear(r) for r in work]
        pivots.append(col)
    return done, pivots


def _textbook_residual(field, canonical, pivots, v):
    v = [field.coerce(x) for x in v]
    for row, pc in zip(canonical, pivots):
        c = v[pc]
        v = [field.sub(x, field.mul(c, y)) for x, y in zip(v, row)]
    return v


_Q_ENTRY = st.one_of(st.just(0), st.integers(-7, 7),
                     st.fractions(-5, 5, max_denominator=12))
_FIELDS = {"GF2": (GF2, st.integers(-3, 3)),
           "GF5": (GF5, st.integers(-12, 12)),
           "GF_BIG": (GF_BIG, st.one_of(st.just(0), st.integers(-2**40, 2**40)))}


@st.composite
def messy_rows(draw, entry, max_cols=6):
    """Rows with sparse and mixed entries, plus duplicate and zero rows."""
    ncols = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=0, max_size=6))
    if rows:
        rows += [list(rows[i]) for i in draw(st.lists(
            st.integers(0, len(rows) - 1), max_size=2))]
    rows += [[0] * ncols] * draw(st.integers(0, 2))
    return draw(st.permutations(rows)), ncols


@st.composite
def low_rank_rows(draw, field, max_cols=30):
    """Tall rows of low rank: many more rows than rank, each a small integer
    combination of a few sparse base rows.  Entries are written as ints or
    Fractions at random; over GF(p) as representatives >= p or < 0 too."""
    ncols = draw(st.integers(1, max_cols))
    rank = draw(st.integers(0, min(ncols, 5)))
    sparse = st.one_of(st.just(0), st.just(0), _Q_ENTRY if field == QQ else st.integers(-9, 9))
    base = [[field.coerce(x) for x in row] for row in draw(
        st.lists(st.lists(sparse, min_size=ncols, max_size=ncols),
                 min_size=rank, max_size=rank))]
    rnd = draw(st.randoms(use_true_random=False))
    rows = []
    for _ in range(draw(st.integers(rank, rank + 30))):
        row = [field.zero] * ncols
        for b in base:
            c = field.coerce(rnd.randint(-3, 3))
            row = [field.add(x, field.mul(c, y)) for x, y in zip(row, b)]
        rows.append([_written(rnd, field, x) for x in row])
    return rows, ncols


def _written(rnd, field, x):
    """x as an int or a Fraction that the field reads back as x."""
    if field == QQ:
        return int(x) if x.denominator == 1 and rnd.random() < 0.5 else x
    p = field.characteristic
    rep = x + p * rnd.randint(-2, 2)
    if rnd.random() < 0.5:
        return rep
    den = 3 if p == 2 else 2
    return Fraction(rep * den + p * rnd.randint(-2, 2), den)


def _check_rref_rows(rows, ncols, field):
    got, pivots = rref_rows([list(r) for r in rows], ncols, field)
    want, want_pivots = _textbook_rref(rows, ncols, field)
    assert (got, pivots) == (want, want_pivots)
    scalar = Fraction if field == QQ else int
    assert all(type(x) is scalar for r in got for x in r)


@settings(max_examples=150, deadline=None)
@given(messy_rows(_Q_ENTRY))
def test_rref_rows_matches_textbook_q(case):
    # ints and Fractions with non-unit denominators, mixed within and across rows
    _check_rref_rows(*case, QQ)


@pytest.mark.parametrize("name", sorted(_FIELDS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_rref_rows_matches_textbook_gfp(name, data):
    field, entry = _FIELDS[name]
    _check_rref_rows(*data.draw(messy_rows(entry)), field)


@pytest.mark.parametrize("field", [QQ, GF2, GF5, GF_BIG], ids=["QQ", "GF2", "GF5", "GF_BIG"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_rref_rows_matches_textbook_tall_low_rank(field, data):
    _check_rref_rows(*data.draw(low_rank_rows(field)), field)


# -- dict rows {col: entry} into the same core -------------------------------

_INT_FIELDS = {"QQ": (QQ, st.integers(-7, 7)), **_FIELDS}


def _check_dict_rows(rows, ncols, field, dict_rows):
    copies = [dict(r) for r in dict_rows]
    assert rref_rows(dict_rows, ncols, field) == rref_rows(rows, ncols, field)
    assert kernel_rows(dict_rows, ncols, field) == kernel_rows(rows, ncols, field)
    assert dict_rows == copies          # read, never changed in place


@pytest.mark.parametrize("name", sorted(_INT_FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dict_rows_match_list_rows(name, data):
    # int entries, negative or >= p, with explicit zeros kept at random; the
    # zero rows messy_rows adds become empty dicts or all-zero dicts
    field, entry = _INT_FIELDS[name]
    rows, ncols = data.draw(messy_rows(entry))
    rnd = data.draw(st.randoms(use_true_random=False))
    dict_rows = [{j: x for j, x in enumerate(r) if x or rnd.random() < 0.3}
                 for r in rows]
    _check_dict_rows(rows, ncols, field, dict_rows)


@pytest.mark.parametrize("field", [QQ, GF2, GF5, GF_BIG], ids=["QQ", "GF2", "GF5", "GF_BIG"])
def test_dict_rows_edge_cases(field):
    p = field.characteristic or 9
    rows = [[0, 0, 0, 0], [2, 0, -3, 0], [2, 0, -3, 0], [p, 1, 0, p + 1],
            [0, -1, 0, 2 * p - 1], [0, 0, 0, 0]]
    dict_rows = [{}, {0: 2, 1: 0, 2: -3}, {2: -3, 0: 2, 3: 0}, {3: p + 1, 0: p, 1: 1},
                 {1: -1, 3: 2 * p - 1}, {0: 0, 2: 0}]
    _check_dict_rows(rows, 4, field, dict_rows)
    _check_dict_rows([], 4, field, [])
    # Fraction entries over Q take the list rows' common-denominator path
    _check_dict_rows([[Fraction(1, 2), 0, Fraction(-2, 3)]], 3, QQ,
                     [{0: Fraction(1, 2), 2: Fraction(-2, 3), 1: 0}])


def test_q_spaces_from_ints_hold_fractions():
    # an int entry left in a Q row would make RationalField.inv return a float
    space = Subspace.from_vectors(QQ, 3, [[0, 3, 1], [0, 6, 2], [2, 4, 0]])
    assert all(type(x) is Fraction for row in space.basis for x in row)
    assert all(type(x) is Fraction for x in space.reduce([1, 1, 1]))
    assert all(type(x) is Fraction for row in kernel_rows([[0, 3, 1]], 3, QQ).basis
               for x in row)
    # coordinates along int vectors: (0, 1, 0) = (0, 3, 1) / 3 - (0, 0, 1) / 3
    coords = Coordinates(QQ, [[0, 3, 1], [2, 4, 0]], [[0, 0, 1]])
    projected = coords.project([0, 1, 0])
    lifted = coords.lift(projected)
    assert projected == [Fraction(1, 3), 0]
    assert [x - y for x, y in zip([0, 1, 0], lifted)] == [0, 0, Fraction(-1, 3)]
    assert all(type(x) is Fraction for x in projected + lifted)


def test_scalar_types_read_or_rejected():
    assert Subspace.from_vectors(GF5, 2, [[Fraction(1, 2), 7]]).basis == [[1, 4]]
    assert Subspace.from_vectors(QQ, 2, [["1/2", 1]]).basis == [[1, 2]]
    # StructureAlgebra.multiply reads factors the same way; its product
    # holds Fractions over Q and residues in [0, p) over GF(p)
    product = componentwise_algebra(QQ, 2).multiply([1, Fraction(1, 2)], [3, 4])
    assert product == [3, 2] and all(type(x) is Fraction for x in product)
    assert componentwise_algebra(GF5, 2).multiply([-1, 7], [3, Fraction(1, 2)]) == [2, 1]
    for field in (QQ, GF5):
        algebra = componentwise_algebra(field, 2)
        for bad in (False, True, "x", 0.5):
            with pytest.raises(BadScalar):
                Subspace.from_vectors(field, 2, [[bad, 1]])
            with pytest.raises(BadScalar):
                Subspace.full(field, 2).reduce([1, bad])
            with pytest.raises(BadScalar):
                algebra.multiply([1, bad], [1, 1])
            with pytest.raises(BadScalar):
                algebra.multiply([1, 1], [bad, 1])


_FIELD_CASES = [pytest.param(QQ, _Q_ENTRY, id="QQ")] + [
    pytest.param(f, e, id=name) for name, (f, e) in sorted(_FIELDS.items())]


@pytest.mark.parametrize("field, entry", _FIELD_CASES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_subspace_reduce_matches_textbook(field, entry, data):
    rows, ncols = data.draw(messy_rows(entry))
    space = Subspace.from_vectors(field, ncols, rows)
    canonical, pivots = _textbook_rref(rows, ncols, field)
    assert space.pivots == pivots
    inside = [field.zero] * ncols
    for row in rows:
        c = field.coerce(data.draw(entry))
        inside = [field.add(x, field.mul(c, field.coerce(y))) for x, y in zip(inside, row)]
    outside = data.draw(st.lists(entry, min_size=ncols, max_size=ncols))
    for v in (inside, outside):
        residual = _textbook_residual(field, canonical, pivots, v)
        assert space.reduce(v) == residual
        assert space.contains(v) == all(field.is_zero(x) for x in residual)
    assert space.contains(inside)
    assert space.contains_space(Subspace.from_vectors(field, ncols, [inside]))


def _grown(u):
    """The integer echelon grown from U's rows, as the core reads them."""
    grown = Coordinates(u.field, [], [])
    assert all(grown.add(_sparse_row(row, u.field)) for row in u.basis)
    return grown


def _quotient_basis_reference(u, v):
    # one RREF of the growing span per row of V
    current, out = list(u.basis), []
    for row in v.basis:
        if len(current) == v.dim:
            break
        cand, _ = _textbook_rref(current + [list(row)], u.ambient_dim, u.field)
        if len(cand) > len(current):
            out.append(list(row))
            current = cand
    return out


@pytest.mark.parametrize("field, entry", _FIELD_CASES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_quotient_basis_matches_one_rref_per_row(field, entry, data):
    rows, ncols = data.draw(messy_rows(entry))
    v = Subspace.from_vectors(field, ncols, rows)
    picks = data.draw(st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=3))
    u = Subspace.from_vectors(field, ncols, [rows[i] for i in picks if rows])
    ext = quotient_basis(u, v)
    assert ext == _quotient_basis_reference(u, v)
    assert len(ext) == v.dim - u.dim
    grown = _grown(u)
    assert all(grown.add(_sparse_row(row, field)) for row in ext)
    assert len(grown.vecs) == v.dim
    assert not any(grown.add(_sparse_row(row, field)) for row in v.basis)
    # U drawn with rows from outside V too: NotContained exactly when U is
    # not inside V, and the same rows as the reference otherwise
    outside = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=2))
    w = Subspace.from_vectors(field, ncols, [rows[i] for i in picks if rows] + outside)
    if v.contains_space(w):
        assert quotient_basis(w, v) == _quotient_basis_reference(w, v)
    else:
        with pytest.raises(NotContained):
            quotient_basis(w, v)


def _minimal_polynomial_reference(vectors, field):
    # one RREF of the earlier powers per power
    seen, collected = [], []
    for v in vectors:
        v = [field.coerce(x) for x in v]
        cand, _ = _textbook_rref(seen + [v], len(v), field)
        if len(cand) == len(seen):
            coeffs = solve(list(zip(*collected)), v, field)
            return [field.neg(c) for c in coeffs] + [field.one]
        seen = cand
        collected.append(v)


@pytest.mark.parametrize("field, entry", _FIELD_CASES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_minimal_polynomial_matches_one_rref_per_power(field, entry, data):
    n = data.draw(st.integers(1, 4))
    m = [[field.coerce(x) for x in row]
         for row in data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                       min_size=n, max_size=n))]
    got = minimal_polynomial(operator_power_sequence(m, field), field)
    assert got == _minimal_polynomial_reference(operator_power_sequence(m, field), field)
    value = matrix_sum(field, n, [(c, [power[i * n:(i + 1) * n] for i in range(n)])
                                  for c, power in zip(got, operator_power_sequence(m, field))])
    assert not any(map(any, value))


def _two_pass_kernel(rows, ncols, field):
    """Reference: the kernel's canonical rows from a second elimination of
    e_fc - sum_pc row[fc] e_pc, the pivots pc read at each row's first
    nonzero column."""
    terms = _canonical(rows, field)
    pivots = {row[0][0] for row in terms}
    basis = {fc: {fc: 1} for fc in range(ncols) if fc not in pivots}
    for row in terms:
        for j, x in row[1:]:
            basis[j][row[0][0]] = -x
    return _canonical(basis.values(), field)


@pytest.mark.parametrize("field", [QQ, GF2, GF(7), GF_BIG], ids=["QQ", "GF2", "GF7", "GF_BIG"])
def test_kernel_rows_matches_two_pass_reference(field):
    # one elimination on reversed columns gives the same canonical rows, with
    # the same entry types, as the kernel taken again through the core: low
    # rank and random rows, list and dict rows, explicit zeros, empty rows,
    # entries >= p or negative, Fractions over Q, and no rows at all
    rnd, p = random.Random(29), field.characteristic
    big = p or 2**40

    def entry():
        x = rnd.choice([0, 0, 1, -1, rnd.randrange(-big, big)])
        return Fraction(x, rnd.randrange(1, 9)) if not p and rnd.random() < 0.3 else x
    for _ in range(400):
        nrows, ncols, rank = rnd.randrange(9), rnd.randrange(1, 10), rnd.randrange(1, 5)
        basis = [[entry() for _ in range(ncols)] for _ in range(rank)]
        rows = [[sum(c * x for c, x in zip(coeffs, col)) for col in zip(*basis)]
                for coeffs in ([rnd.choice([0, 1, -1, 2]) for _ in basis]
                               for _ in range(nrows))] if rnd.random() < 0.5 else \
            [[entry() for _ in range(ncols)] for _ in range(nrows)]
        if rnd.random() < 0.5:
            rows = [{j: x for j, x in enumerate(r) if x or rnd.random() < 0.3} for r in rows]
        if rows and rnd.random() < 0.3:
            rows.insert(rnd.randrange(len(rows)), {} if isinstance(rows[0], dict) else [0] * ncols)
        got, want = kernel_rows(rows, ncols, field)._terms, _two_pass_kernel(rows, ncols, field)
        assert got == want
        assert [type(x) for row in got for _, x in row] == [type(x) for row in want for _, x in row]


def test_kernel_rows_without_rows_is_full():
    assert kernel_rows([], 3, QQ) == Subspace.full(QQ, 3)
    assert kernel_rows([[0, 2, 4]], 3, GF5) == Subspace.from_vectors(GF5, 3, [[1, 0, 0],
                                                                           [0, 3, 1]])


# -- dict and list vectors against dense references ---------------------------

def test_dict_vectors_refused_like_lists():
    for field in (QQ, GF5):
        space = Subspace.from_vectors(field, 3, [[1, 2, 0]])
        checks = [space.reduce, space.contains,
                  lambda v: Subspace.from_vectors(field, 3, [{0: 1}, v])]
        for check in checks:
            for key in (-1, 3, 10):
                with pytest.raises(AmbientMismatch):
                    check({0: 1, key: 1})
            for bad in (False, True, "x", 0.5):
                with pytest.raises(BadScalar):
                    check({0: 1, 2: bad})


def _dense_in(field, n, v):
    return [field.coerce(v.get(j, 0)) for j in range(n)] if isinstance(v, dict) else \
        [field.coerce(x) for x in v]


def _zassenhaus(u, v):
    # rows (a | a) for a in U and (b | 0) for b in V: the rows with a zero
    # left half span the intersection in their right half
    n, f = u.ambient_dim, u.field
    rows, _ = _textbook_rref([list(a) + list(a) for a in u.basis]
                             + [list(b) + [0] * n for b in v.basis], 2 * n, f)
    return _textbook_rref([r[n:] for r in rows if all(f.is_zero(x) for x in r[:n])], n, f)[0]


def _random_vectors(rnd, field, n, count):
    """Sparse vectors, as lists or dicts with explicit zeros at random, with
    an empty dict and vectors whose only nonzero is in column 0 among them."""
    p = field.characteristic or 7
    vecs = [{}, {0: rnd.randint(1, p - 1)}, [rnd.randint(1, p - 1)] + [0] * (n - 1)]
    for _ in range(count):
        row = [rnd.choice([0, 0, rnd.randint(-2 * p, 2 * p)]) for _ in range(n)]
        if field == QQ and rnd.random() < 0.3:
            row = [Fraction(x, rnd.randint(1, 4)) for x in row]
        vecs.append(row if rnd.random() < 0.5 else
                    {j: x for j, x in enumerate(row) if x or rnd.random() < 0.2})
    rnd.shuffle(vecs)
    return vecs


@pytest.mark.parametrize("field", [QQ, GF2, GF3, GF(7)], ids=["QQ", "GF2", "GF3", "GF7"])
@pytest.mark.parametrize("seed", range(12))
def test_dict_and_list_vectors_match_dense_reference(field, seed):
    rnd = random.Random(seed)
    n = rnd.randint(1, 7)
    pool = _random_vectors(rnd, field, n, 3 * n)
    k = rnd.randint(0, n + 1)
    spaces = []
    for vecs in (pool[:k], pool[k:k + rnd.randint(0, n + 1)]):
        space = Subspace.from_vectors(field, n, vecs)
        # list and dict inputs give one space; its dense basis is the
        # textbook RREF, written as the dense rows always were
        canonical, pivots = _textbook_rref([_dense_in(field, n, v) for v in vecs], n, field)
        assert repr(space.basis) == repr(canonical)
        assert space.pivots == pivots
        assert space == Subspace.from_vectors(field, n, [_dense_in(field, n, v) for v in vecs])
        spaces.append(space)
    u, v = spaces
    for w in pool:
        want = _textbook_residual(field, u.basis, u.pivots, _dense_in(field, n, w))
        got = u.reduce(w)
        if isinstance(w, dict):
            assert got == {j: x for j, x in enumerate(want) if x}
        else:
            assert repr(got) == repr(want)
        assert u.contains(w) == all(field.is_zero(x) for x in want)
    total = u.sum(v)
    assert repr(total.basis) == repr(_textbook_rref(u.basis + v.basis, n, field)[0])
    meet = u.intersect(v)
    assert repr(meet.basis) == repr(_zassenhaus(u, v))
    assert u.contains_space(meet) and v.contains_space(meet) and total.contains_space(u)
    assert u.contains_space(v) == all(
        all(field.is_zero(x) for x in _textbook_residual(field, u.basis, u.pivots, b))
        for b in v.basis)
    for small, big in ((meet, u), (u, total), (Subspace.zero(field, n), v)):
        assert quotient_basis(small, big) == _quotient_basis_reference(small, big)
    # the integer echelon grown from U on each vector as given (a list, or a
    # dict with explicit zeros) and as its dense field entries, both read as
    # the core reads rows: the same rows, each kept iff the textbook rank grows
    grown = [_grown(u), _grown(u)]
    span = list(u.basis)
    for w in pool:
        dense = _dense_in(field, n, w)
        cand = _textbook_rref(span + [dense], n, field)[0]
        assert grown[0].add(_sparse_row(dense, field)) == grown[1].add(_sparse_row(w, field)) \
            == (len(cand) > len(span))
        span = cand
    assert grown[0]._terms == grown[1]._terms
