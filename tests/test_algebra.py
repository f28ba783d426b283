import itertools
import json
import random
import re
import warnings
from fractions import Fraction

import pytest

from algcert.algebra import (DEFAULT_MAX_ENUM, LieSubalgebra, StructureAlgebra,
                             _killing_diagonal, _radical_data, _series_limit,
                             _verify_ideal,
                             center, der_into,
                             derivation_algebra, induced_algebra,
                             is_nilpotent, is_solvable, jacobson_radical,
                             wm_complement)
from algcert.certify import certify
from algcert.cli import main
from algcert.errors import (AmbientMismatch, BadScalar, InternalInconsistency, LoweyMismatch,
                            NonAssociative, NotSplitBasic, NotUnital,
                            UnsupportedRadicalComputation)
from algcert.fields import GF, QQ, PrimeField
from algcert.forms import _bracket_closure
from algcert.linalg import Coordinates, Subspace, invert, kernel_rows, quotient_basis
from algcert.constructions import (componentwise_algebra, direct_sum,
                                   exterior_algebra, matrix_algebra,
                                   truncated_polynomial_algebra,
                                   univariate_quotient_algebra,
                                   upper_triangular_algebra)
from algcert.presentation import presentation_from_ideal, quotient_algebra
from conftest import (dense_table, flatten, in_basis, matmul, matrix_sum, own_coordinates, pp,
                      random_poly, transvected)

GF2, GF3, GF5, GF7 = GF(2), GF(3), GF(5), GF(7)
GF_BIG = GF(2**31 - 1)


def nilpotent_scan_radical(algebra: StructureAlgebra, bound: int = DEFAULT_MAX_ENUM) -> Subspace:
    """Span of all nilpotent elements of a commutative GF(p) algebra,
    found by exhaustive enumeration (guarded by ``bound``)."""
    f = algebra.field
    if not isinstance(f, PrimeField):
        raise UnsupportedRadicalComputation("the nilpotent scan needs a GF(p) algebra")
    p, d = f.p, algebra.dim
    total = p**d
    if total > bound:
        raise UnsupportedRadicalComputation(
            f"scan needs {total} elements, bound is {bound}")
    steps = max(1, (d - 1).bit_length())  # x^(2^steps) >= x^d
    span = Coordinates(f, [], [])
    nilpotents = []
    for vec in itertools.product(range(p), repeat=d):
        if not any(vec):
            continue
        v, row = list(vec), {k: x for k, x in enumerate(vec) if x}
        if not span._reduce(row)[1]:
            continue
        y = v
        for _ in range(steps):
            y = algebra.multiply(y, y)
            if not any(y):
                break
        if not any(y):
            span.add(row, records=False)
            nilpotents.append(v)
            if len(span.vecs) == d - 1:
                # cannot exceed codimension 1 in a unital algebra
                break
    return Subspace.from_vectors(f, d, nilpotents)


def qx_mod(power, field=QQ):
    return univariate_quotient_algebra(field, [0] * power + [1])


def commutator(field, a, b):
    """ab - ba of two dense matrices: the reference for the sparse bracket."""
    return matrix_sum(field, len(a), [(1, matmul(field, a, b)), (-1, matmul(field, b, a))])


def matrix_span(lie):
    """The span of lie's basis as flattened n x n matrices, in k^(n^2)."""
    return Subspace.from_vectors(lie.field, lie.n ** 2,
                                 [flatten(m) for m in lie.basis_matrices()])


def _ref_multiply(field, table, x, y):
    """Reference product: sum x_i y_j table[i][j] in the field's arithmetic,
    on the coerced table (Fractions over Q), for factors taken by coerce."""
    d = len(table)
    x, y = [field.coerce(v) for v in x], [field.coerce(v) for v in y]
    out = [field.zero] * d
    for i, j in itertools.product(range(d), repeat=2):
        if not (field.is_zero(x[i]) or field.is_zero(y[j])):
            xy = field.mul(x[i], y[j])
            out = [field.add(o, field.mul(xy, c)) for o, c in zip(out, table[i][j])]
    return out


def _cells(algebra):
    """The algebra's constants as cells that list every k, zeros too."""
    return {(i, j): list(enumerate(cell))
            for i, row in enumerate(dense_table(algebra)) for j, cell in enumerate(row)}


class TestLoad:
    def test_componentwise_loads_commutative(self):
        a = componentwise_algebra(QQ, 2)
        assert a.commutative

    def test_upper_triangular_noncommutative(self):
        assert not upper_triangular_algebra(QQ, 2).commutative

    def test_not_unital(self):
        # e1*e1 = e2, e2*e2 = e1 has no identity among the declared one
        table = [[[0, 1], [0, 0]], [[0, 0], [1, 0]]]
        with pytest.raises(NotUnital, match="^declared identity fails on basis element 0$"):
            StructureAlgebra.from_table(QQ, table, [1, 0])

    def test_non_associative_names_triple(self):
        # basis 1, x, y with x*x = y, x*y = 0, y*x = x: (xx)x != x(xx)
        zero = [0, 0, 0]
        table = [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 1], zero],
            [[0, 0, 1], [0, 1, 0], zero],
        ]
        with pytest.raises(NonAssociative) as err:
            StructureAlgebra.from_table(QQ, table, [1, 0, 0])
        assert err.value.triple == (1, 1, 1)
        assert str(err.value) == "associativity fails on basis triple (1, 1, 1)"

    @pytest.mark.parametrize("field", [QQ, GF7], ids=["QQ", "GF7"])
    def test_int_fraction_and_string_tables_load_alike(self, field):
        # the integer table is read straight off the input: ints as they
        # are, Fractions and strings through field.coerce; an integral
        # table given all three ways, and a rescaled one with denominators
        integral = upper_triangular_algebra(QQ, 3)
        scaled = _rescaled(truncated_polynomial_algebra(QQ, 2, 3),
                           [3, Fraction(1, 2), 5, 1, Fraction(1, 2), 3])
        assert scaled._den > 1
        for base, kinds in ((integral, (int, Fraction, str)), (scaled, (Fraction, str))):
            table = dense_table(base)
            want = [[[field.coerce(x) for x in cell] for cell in row] for row in table]
            loaded = [StructureAlgebra.from_table(field, [[[kind(x) for x in cell] for cell in row]
                                                         for row in table], base.one)
                      for kind in kinds]
            for a in loaded:
                assert dense_table(a) == want
                assert a._sparse == loaded[0]._sparse
                assert a.commutative == base.commutative
        assert not integral.commutative and scaled.commutative

    @pytest.mark.parametrize("field", [QQ, GF7], ids=["QQ", "GF7"])
    def test_bad_cells_are_refused(self, field):
        # k[x]/(x^2) from its cells, then one fault at a time: an index
        # outside range(d), a k twice in one cell (a dense tensor cannot say
        # that, so it must not be read as the last pair), a bad scalar
        good = {(0, 0): [(0, 1)], (0, 1): [(1, 1)], (1, 0): [(1, 1)]}
        assert StructureAlgebra(field, good, [1, 0]).commutative
        outside = "has an index outside range(2)"
        for key, cell, text in (((2, 0), [(0, 1)], outside), ((0, -1), [], outside),
                                ((1, 1), [(2, 1)], outside), ((1, 1), [(-1, 1)], outside),
                                ((1, 1), [(0, 1), (0, 0)], "repeats an index k"),
                                ((0, 1), [(1, 1), (1, 1)], "repeats an index k")):
            with pytest.raises(AmbientMismatch, match=re.escape(f"structure cell {key} {text}")):
                StructureAlgebra(field, {**good, key: cell}, [1, 0])
        for bad, text in ((True, "boolean is not a scalar: True"), ("x", "bad .* literal .x.$")):
            with pytest.raises(BadScalar, match=text):
                StructureAlgebra(field, {**good, (1, 1): [(0, bad)]}, [1, 0])

    @pytest.mark.parametrize("field", [QQ, GF7], ids=["QQ", "GF7"])
    def test_bool_constant_is_bad_scalar(self, field):
        table = [[[1, 0], [0, 1]], [[0, 1], [0, True]]]
        with pytest.raises(BadScalar, match="boolean is not a scalar: True"):
            StructureAlgebra.from_table(field, table, [1, 0])

    def test_multiply_bilinear(self):
        a = upper_triangular_algebra(QQ, 2)
        x, x2, y = [1, 2, 0], [0, 1, 1], [3, 0, 1]
        lhs = a.multiply([p + q for p, q in zip(x, x2)], y)
        rhs = [p + q for p, q in zip(a.multiply(x, y), a.multiply(x2, y))]
        assert lhs == rhs

    @pytest.mark.parametrize("field", [QQ, GF2, GF3, GF7], ids=["QQ", "GF2", "GF3", "GF7"])
    def test_multiply_matches_fraction_reference(self, field, rng):
        # factors with ints, Fractions, negative entries and entries >= p,
        # on tables in the standard basis, a transvected one and a rescaled
        # one (constants with denominators over Q)
        p = field.characteristic or 11
        bases = [upper_triangular_algebra(field, 3), exterior_algebra(field, 3),
                 truncated_polynomial_algebra(field, 2, 3)]
        bases += [transvected(bases[0], rng),
                  _rescaled(bases[2], [5, Fraction(1, 5), 11, 1, Fraction(5, 11), 25])]
        if field == QQ:
            assert bases[-1]._den > 1
        entries = [0, 1, -1, p, p + 3, -2 * p - 1, Fraction(1, 5), Fraction(-11, 25),
                   Fraction(3 * p + 1, 5)]
        for a in bases:
            table = dense_table(a)
            for _ in range(12):
                x, y = ([rng.choice(entries) for _ in range(a.dim)] for _ in range(2))
                got = a.multiply(x, y)
                assert got == _ref_multiply(field, table, x, y)
                assert all(type(v) is (int if field.characteristic else Fraction) for v in got)
                if field.characteristic:
                    assert all(0 <= v < field.characteristic for v in got)

    @pytest.mark.parametrize("field, c", [(QQ, Fraction(1, 2)), (GF7, 3)], ids=["QQ", "GF7"])
    def test_perturbed_identity_names_first_failure(self, field, c):
        # in UT_2 (basis E11, E12, E22), 1' = 1 + c E12 has 1' E11 = E11 but
        # E11 1' = E11 + c E12: the first failure, at E11, is on the right
        # only; in the opposite algebra it is on the left only
        base = upper_triangular_algebra(field, 2)
        one = [field.add(x, field.coerce(c) if k == 1 else field.zero)
               for k, x in enumerate(base.one)]
        standard = dense_table(base)
        opposite = [[standard[j][i] for j in range(3)] for i in range(3)]
        for table, side in ((standard, "right"), (opposite, "left")):
            # the first e_j with 1 e_j != e_j or e_j 1 != e_j, and its sides
            fails = [(j, _ref_multiply(field, table, one, e) != e,
                      _ref_multiply(field, table, e, one) != e)
                     for j, e in enumerate(_unit(field, 3, j) for j in range(3))]
            first, left, right = next(fail for fail in fails if fail[1] or fail[2])
            assert (left, right) == (side == "left", side == "right")
            with pytest.raises(NotUnital, match=f"declared identity fails on basis element {first}$"):
                StructureAlgebra.from_table(field, table, one)


class TestSubspaceProduct:
    def test_strictly_upper_squares_to_zero(self):
        a = upper_triangular_algebra(QQ, 2)
        j = Subspace.from_vectors(QQ, 3, [[0, 1, 0]])  # e12
        assert a.subspace_product(j, j).dim == 0

    def test_powers_in_truncated(self):
        a = qx_mod(3)
        u = Subspace.from_vectors(QQ, 3, [[0, 1, 0]])
        prod = a.subspace_product(u, u)
        assert prod.dim == 1
        assert prod.contains([0, 0, 1])

    def test_matrix_unit_product(self):
        a = upper_triangular_algebra(QQ, 2)  # basis e11, e12, e22
        u = Subspace.from_vectors(QQ, 3, [[1, 0, 0]])
        v = Subspace.from_vectors(QQ, 3, [[0, 1, 0]])
        prod = a.subspace_product(u, v)
        assert prod.dim == 1 and prod.contains([0, 1, 0])


class TestCenter:
    def test_commutative_center_is_everything(self):
        a = componentwise_algebra(QQ, 3)
        assert center(a).dim == 3

    def test_upper_triangular_center(self):
        assert center(upper_triangular_algebra(QQ, 2)).dim == 1

    def test_matrix_algebra_center(self):
        z = center(matrix_algebra(QQ, 2))
        assert z.dim == 1
        assert z.contains(matrix_algebra(QQ, 2).one)


class TestRadical:
    def test_dual_numbers_gram(self):
        a = qx_mod(2)
        rad = jacobson_radical(a)
        assert rad.radical.dim == 1
        assert rad.radical.contains([0, 1])
        assert rad.lowey_length == 2

    def test_semisimple_matrix_algebra(self):
        rad = jacobson_radical(matrix_algebra(QQ, 2))
        assert rad.radical.dim == 0
        assert rad.lowey_length == 1

    def test_gf3_scan(self):
        rad = jacobson_radical(qx_mod(3, GF3))
        assert rad.radical.dim == 2
        assert rad.radical.contains([0, 1, 0]) and rad.radical.contains([0, 0, 1])

    def test_gf_noncommutative_unsupported(self):
        with pytest.raises(UnsupportedRadicalComputation):
            jacobson_radical(upper_triangular_algebra(GF3, 2))

    def test_scan_bound(self):
        with pytest.raises(UnsupportedRadicalComputation):
            jacobson_radical(qx_mod(3, GF3), scan_bound=10)

    def test_radical_is_ideal_and_nilpotent(self):
        for a in (qx_mod(4), truncated_polynomial_algebra(QQ, 2, 3),
                  upper_triangular_algebra(QQ, 3)):
            rad = jacobson_radical(a)
            full = Subspace.full(QQ, a.dim)
            assert rad.radical.contains_space(a.subspace_product(full, rad.radical))
            assert rad.radical.contains_space(a.subspace_product(rad.radical, full))
            assert rad.powers[-1].dim == 0

    def test_power_products_nest(self):
        a = qx_mod(4)
        rad = jacobson_radical(a)
        powers = rad.powers
        for i in range(len(powers)):
            for j in range(len(powers)):
                prod = a.subspace_product(powers[i], powers[j])
                target = powers[min(i + j + 1, len(powers) - 1)]
                assert target.contains_space(prod)

    def test_lowey_and_jj2(self):
        a = qx_mod(3)
        rad = jacobson_radical(a)
        assert rad.lowey_length == 3
        assert rad.jj2_dim == 1
        assert len(quotient_basis(rad.square, rad.radical)) == 1
        b = truncated_polynomial_algebra(QQ, 2, 2)
        radb = jacobson_radical(b)
        assert radb.lowey_length == 2 and radb.jj2_dim == 2
        semi = componentwise_algebra(QQ, 2)
        assert jacobson_radical(semi).lowey_length == 1


def _ref_subspace_product(a, u, v):
    """Reference: the span of the Fraction-table products of all basis pairs."""
    table = dense_table(a)
    return Subspace.from_vectors(a.field, a.dim, [_ref_multiply(a.field, table, x, y)
                                                  for x in u.basis for y in v.basis])


def _ref_verify_ideal(a, j):
    """Reference: A J <= J and J A <= J, over every basis element of A."""
    full = Subspace.full(a.field, a.dim)
    return (j.contains_space(_ref_subspace_product(a, full, j))
            and j.contains_space(_ref_subspace_product(a, j, full)))


def _ref_powers(a, j):
    """Reference: [J, J^2, ...] down to 0, or None once a power stops falling."""
    powers = [j]
    while powers[-1].dim:
        nxt = _ref_subspace_product(a, powers[-1], j)
        if nxt.dim >= powers[-1].dim:
            return None
        powers.append(nxt)
    return powers


def _candidate_ideals(a, rng):
    """Subspaces to judge: the radical and its square where they are
    computed, the ideal of the commutators, the left ideal A x and the ideal
    A x A of a random x, and a random plane."""
    f, d = a.field, a.dim
    full = Subspace.full(f, d)
    out = []
    try:
        rad = jacobson_radical(a)
        out += [rad.radical, rad.square]
    except UnsupportedRadicalComputation:
        pass
    units, table = full.basis, dense_table(a)
    commutators = Subspace.from_vectors(f, d, [
        [f.sub(s, t) for s, t in zip(_ref_multiply(f, table, x, y),
                                     _ref_multiply(f, table, y, x))]
        for x, y in itertools.combinations(units, 2)])
    x = Subspace.from_vectors(f, d, [[rng.randint(-3, 3) for _ in range(d)]])
    left = _ref_subspace_product(a, full, x)
    out += [_ref_subspace_product(a, _ref_subspace_product(a, full, commutators), full),
            left, _ref_subspace_product(a, left, full),
            Subspace.from_vectors(f, d, [[rng.randint(-3, 3) for _ in range(d)]
                                         for _ in range(2)])]
    return out


@pytest.mark.parametrize("field", [QQ, GF2, GF3, GF7], ids=["QQ", "GF2", "GF3", "GF7"])
def test_ideal_check_and_powers_match_all_basis_reference(field, rng):
    # the ideal check on the generators and the integer powers J^k J agree
    # with the all-basis products of the Fraction table
    cases = [componentwise_algebra(field, 3), matrix_algebra(field, 2),
             upper_triangular_algebra(field, 3), truncated_polynomial_algebra(field, 2, 3),
             qx_mod(4, field),
             univariate_quotient_algebra(field, _poly_times([1, 0, 1], [-1, 1], [-1, 1])),
             exterior_algebra(field, 3),
             direct_sum(upper_triangular_algebra(field, 2), qx_mod(2, field))]
    cases += [transvected(a, rng) for a in cases]
    if field in (QQ, GF3):
        # dense bases (3d transvections), where B' grows from mixed rows of J
        cases += [transvected(a, rng, 3 * a.dim) for a in (
            truncated_polynomial_algebra(field, 3, 3), upper_triangular_algebra(field, 4))]
    if field == QQ:
        # Fraction constants, and an identity with denominators 1/3 and 2
        scaled = _rescaled(truncated_polynomial_algebra(QQ, 2, 3),
                           [3, Fraction(1, 2), 3, 1, Fraction(1, 2), 3])
        assert scaled._den > 1 and scaled.one[0] == Fraction(1, 3)
        cases += [scaled, _rescaled(upper_triangular_algebra(QQ, 3),
                                    [Fraction(1, 2), 3, Fraction(2, 5), 7, 1, Fraction(1, 3)])]
    verdicts, lengths = set(), set()      # lengths of the filtrations; None: not nilpotent
    for a in cases:
        for j in _candidate_ideals(a, rng):
            ideal = _verify_ideal(a, j)
            assert ideal == _ref_verify_ideal(a, j)
            verdicts.add(ideal)
            if not ideal:
                continue
            want = _ref_powers(a, j)
            lengths.add(want and len(want))
            if want is None:
                with pytest.raises(UnsupportedRadicalComputation, match="not nilpotent"):
                    _radical_data(a, j)
            else:
                assert _radical_data(a, j).powers == want
    assert verdicts == {True, False}
    assert None in lengths and max(lengths - {None}) >= 4


@pytest.mark.parametrize("field", [QQ, GF3], ids=["QQ", "GF3"])
def test_crafted_non_ideals_are_refused(field):
    # span{E12, E22} in UT_3 (basis E11, E12, E13, E22, E23, E33) is a left
    # ideal and no right ideal: E12 E23 = E13.  span{x, x^2} in
    # k[x, y]/(x, y)^3 is closed under x and not under y: y x = xy.
    ut = upper_triangular_algebra(field, 3)
    trunc = truncated_polynomial_algebra(field, 2, 3)   # basis 1, x, y, x^2, xy, y^2
    crafted = [(ut, Subspace.from_vectors(field, 6, [_unit(field, 6, 1), _unit(field, 6, 3)])),
               (trunc, Subspace.from_vectors(field, 6, [_unit(field, 6, 1), _unit(field, 6, 3)]))]
    full = Subspace.full(field, 6)
    left_ideal = crafted[0][1]
    assert left_ideal.contains_space(_ref_subspace_product(ut, full, left_ideal))
    assert not left_ideal.contains_space(_ref_subspace_product(ut, left_ideal, full))
    plane = crafted[1][1]
    closed = [g for g in trunc.gens if plane.contains_space(
        _ref_subspace_product(trunc, Subspace.from_vectors(field, 6, [_unit(field, 6, g)]), plane))]
    assert closed and closed != trunc.gens
    for a, j in crafted:
        assert not _verify_ideal(a, j) and not _ref_verify_ideal(a, j)
        with pytest.raises(UnsupportedRadicalComputation, match="computed radical is not an ideal"):
            jacobson_radical(StructureAlgebra(field, _cells(a), a.one, known_radical=j))
    with pytest.raises(AmbientMismatch):
        jacobson_radical(StructureAlgebra(field, _cells(ut), ut.one,
                                          known_radical=Subspace.zero(field, 5)))


def _poly_times(*factors):
    """Product of integer polynomials given by ascending coefficients."""
    out = [1]
    for g in factors:
        prod = [0] * (len(out) + len(g) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(g):
                prod[i + j] += a * b
        out = prod
    return out


# a monic irreducible quadratic over each field
_IRREDUCIBLE = {2: [1, 1, 1], 3: [1, 0, 1], 5: [2, 0, 1], 7: [1, 0, 1]}


def _commutative_cases(field):
    """Commutative algebras whose radical the element scan can check: local
    ones, products, and factors that do not split over the field."""
    irr = _IRREDUCIBLE[field.p]

    def kt(*factors):
        return univariate_quotient_algebra(field, _poly_times(*factors))
    return [("t^4", qx_mod(4, field)),          # nilpotency index 4 > p for p = 2, 3
            ("trunc_2_3", truncated_polynomial_algebra(field, 2, 3)),
            ("trunc_3_2", truncated_polynomial_algebra(field, 3, 2)),
            ("irr", kt(irr)),
            ("irr^2", kt(irr, irr)),
            ("irr(t-1)^2", kt(irr, [-1, 1], [-1, 1])),
            ("t^3 irr", kt([0, 0, 0, 1], irr)),
            ("t^2+t^2", direct_sum(qx_mod(2, field), qx_mod(2, field))),
            ("k+irr", direct_sum(componentwise_algebra(field, 1), kt(irr))),
            ("trunc_2_2+t^2(t+1)", direct_sum(truncated_polynomial_algebra(field, 2, 2),
                                             kt([0, 0, 1], [1, 1])))]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_frobenius_radical_matches_element_scan(p, rng):
    # over GF(p) the radical of a commutative algebra is the kernel of
    # x -> x^q; the scan enumerates elements, so only p^d <= 10^4 is checked
    field = GF(p)
    checked = 0
    for name, a in _commutative_cases(field):
        if p**a.dim > 10**4:
            continue
        for b in (a, transvected(a, rng), transvected(a, rng)):
            assert jacobson_radical(b).radical == nilpotent_scan_radical(b), name
            checked += 1
    assert checked >= 21


def _unit(field, d, i):
    return [field.one if t == i else field.zero for t in range(d)]


def _induced_cases(field):
    """(name, A, basis indices of J, basis indices summing to an idempotent e).

    J is given by basis indices, since the GF(p) radical of a non-commutative
    algebra is not computed; e = E_11 + E_22 in the matrix algebras, 1 in the
    local one."""
    tri = [(r, c) for r in range(4) for c in range(r, 4)]
    return [("matrix_3", matrix_algebra(field, 3), [], [0, 4]),
            ("upper_4", upper_triangular_algebra(field, 4),
             [i for i, (r, c) in enumerate(tri) if r < c], [0, 4]),
            ("trunc_2_3", truncated_polynomial_algebra(field, 2, 3), range(1, 6), [0])]


class TestCoordinates:
    @pytest.mark.parametrize("field", [QQ, GF5], ids=["QQ", "GF5"])
    def test_quotient_center_and_corner(self, field, rng):
        for name, a, j_idx, e_idx in _induced_cases(field):
            d = a.dim
            full = Subspace.full(field, d)
            j = Subspace.from_vectors(field, d, [_unit(field, d, i) for i in j_idx])
            if field is QQ:
                assert jacobson_radical(a).radical == j, name
            e = [field.one if t in e_idx else field.zero for t in range(d)]
            views = {"A/J": (Coordinates.quotient(j), a.one),
                     "center": (own_coordinates(center(a)), a.one),
                     "eAe": (own_coordinates(a.product_span(e, full, e)), e)}
            for view, (coords, one) in views.items():
                induced = induced_algebra(a, coords, one)
                n = induced.dim
                vecs = [_unit(field, n, i) for i in range(n)] + [
                    [field.coerce(rng.randint(-3, 3)) for _ in range(n)]
                    for _ in range(3)]
                for x in vecs:
                    assert coords.project(coords.lift(x)) == x, (name, view)
                    for y in vecs:
                        want = coords.project(a.multiply(coords.lift(x), coords.lift(y)))
                        assert induced.multiply(x, y) == want, (name, view)
            assert all(not any(Coordinates.quotient(j).project(v)) for v in j.basis)

    def test_product_span_dimensions(self):
        a = matrix_algebra(QQ, 3)
        e = _unit(QQ, 9, 0)
        full = Subspace.full(QQ, 9)
        assert a.product_span(e, full, e).dim == 1         # E_11 A E_11
        assert a.product_span(e, full).dim == 3            # E_11 A
        assert a.product_span(a.one, full, e).dim == 3     # A E_11

    @pytest.mark.parametrize("field", [QQ, GF5], ids=["QQ", "GF5"])
    def test_dependent_vectors_raise(self, field):
        u = [_unit(field, 3, i) for i in range(3)]
        twice = [field.add(x, x) for x in u[0]]
        with pytest.raises(InternalInconsistency):
            Coordinates(field, [u[0], twice], [u[2]])
        with pytest.raises(InternalInconsistency):
            Coordinates(field, [u[0]], [u[1]])      # not spanning

    def test_scan_needs_prime_field(self):
        with pytest.raises(UnsupportedRadicalComputation):
            nilpotent_scan_radical(qx_mod(2))


class TestWMComplement:
    def test_upper_triangular_diagonal_complement(self):
        a = upper_triangular_algebra(QQ, 2)
        rad = jacobson_radical(a)
        wm = wm_complement(a, rad)
        # basis order e11, e12, e22: the complement is the diagonal matrices
        assert wm.semisimple_part == Subspace.from_vectors(QQ, 3, [[1, 0, 0], [0, 0, 1]])
        assert len(wm.idempotents) == 2

    def test_local_complement_is_span_of_one(self):
        a = qx_mod(3)
        wm = wm_complement(a, jacobson_radical(a))
        assert wm.semisimple_part == Subspace.from_vectors(QQ, 3, [[1, 0, 0]])
        assert wm.idempotents == [[Fraction(1), Fraction(0), Fraction(0)]]

    def test_newton_converges_in_log_steps(self):
        # k[t]/t^2(t-1)^2: lifting t rounds to an exact idempotent in one pass
        a = univariate_quotient_algebra(QQ, [0, 0, 1, -2, 1])
        rad = jacobson_radical(a)
        assert rad.lowey_length == 2
        wm = wm_complement(a, rad)
        for e in wm.idempotents:
            assert a.multiply(e, e) == e
        total = [sum(col) for col in zip(*wm.idempotents)]
        assert total == a.one

    def test_wm_invariants(self):
        a = direct_sum(componentwise_algebra(QQ, 1), qx_mod(2))
        rad = jacobson_radical(a)
        wm = wm_complement(a, rad)
        s = wm.semisimple_part
        assert s.intersect(rad.radical).dim == 0
        assert s.sum(rad.radical).dim == a.dim
        for x in s.basis:
            for y in s.basis:
                assert s.contains(a.multiply(x, y))

    def test_not_split_basic_for_field_extension(self):
        # Q[x]/(x^2+1) is a field, A/J = Q(i) over Q
        a = univariate_quotient_algebra(QQ, [1, 0, 1])
        with pytest.raises(NotSplitBasic):
            wm_complement(a, jacobson_radical(a))

    def test_not_split_basic_for_matrix_quotient(self):
        a = matrix_algebra(QQ, 2)
        with pytest.raises(NotSplitBasic):
            wm_complement(a, jacobson_radical(a))


def _wm_outcome(algebra, rad):
    """wm_complement's result, or its NotSplitBasic as (type, text)."""
    try:
        return wm_complement(algebra, rad)
    except NotSplitBasic as exc:
        return type(exc), str(exc)


def _radical_mod_p(make, field):
    """(A, its RadicalData) for a construction over GF(p) whose radical over
    Q is spanned by basis vectors, as in the standard bases here; that span
    is its radical over GF(p) as well."""
    rows = jacobson_radical(make(QQ)).radical.basis
    assert all(sum(1 for x in row if x) == 1 for row in rows)
    algebra = make(field)
    return algebra, _radical_data(algebra, Subspace.from_vectors(
        field, algebra.dim, [[int(x) for x in row] for row in rows]))


@pytest.mark.parametrize("field", [QQ, GF3, GF7], ids=["QQ", "GF3", "GF7"])
def test_quotient_commutativity_on_generators_matches_table(field, rng):
    # wm_complement reads A/J's commutativity from [e_g, e_h] in J over the
    # generators; the table of A/J must give the same result or exception
    commutative = [qx_mod(3, field), truncated_polynomial_algebra(field, 2, 3),
                   componentwise_algebra(field, 2),
                   direct_sum(componentwise_algebra(field, 1), qx_mod(2, field)),
                   univariate_quotient_algebra(field, [1, 0, 1]),
                   univariate_quotient_algebra(field, [0, 0, 1, -2, 1])]
    makes = [lambda k: upper_triangular_algebra(k, 3), lambda k: matrix_algebra(k, 2),
             lambda k: exterior_algebra(k, 3),
             lambda k: direct_sum(upper_triangular_algebra(k, 2), qx_mod(2, k)),
             lambda k: direct_sum(matrix_algebra(k, 2), componentwise_algebra(k, 1))]
    cases = [(a, jacobson_radical(a))
             for a in commutative + [transvected(a, rng) for a in commutative]]
    if field == QQ:
        rest = [make(QQ) for make in makes] + [matrix_algebra(QQ, 4)]
        cases += [(a, jacobson_radical(a)) for a in rest + [transvected(a, rng) for a in rest]]
    else:
        cases += [_radical_mod_p(make, field) for make in makes]
    refused = (NotSplitBasic, "A/J is not commutative")
    seen = set()
    for algebra, rad in cases:
        quot = induced_algebra(algebra, Coordinates.quotient(rad.radical), algebra.one)
        got = _wm_outcome(algebra, rad)
        assert (got == refused) == (not quot.commutative), repr(algebra)
        seen.add(quot.commutative)
    assert seen == {True, False}


class TestDerivations:
    def test_dual_numbers(self):
        assert derivation_algebra(qx_mod(2)).dim == 1

    @pytest.mark.parametrize("n,l", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
    def test_free_truncated_dimension_law(self, n, l):
        a = truncated_polynomial_algebra(QQ, n, l)
        rad = jacobson_radical(a)
        assert derivation_algebra(a).dim == n * rad.radical.dim

    def test_matrix_algebra_inner(self):
        # every derivation of M_2 is inner: Der = span{ad_x}, of dimension
        # dim A - dim Z(A)
        a = matrix_algebra(QQ, 2)
        der, table = derivation_algebra(a), dense_table(a)
        ad = Subspace.from_vectors(QQ, a.dim ** 2, [
            [table[i][j][t] - table[j][i][t] for t in range(a.dim) for j in range(a.dim)]
            for i in range(a.dim)])
        assert der.dim == ad.dim == a.dim - center(a).dim == 3
        assert matrix_span(der) == ad

    def test_bracket_closed(self):
        for a in (qx_mod(3), matrix_algebra(QQ, 2),
                  truncated_polynomial_algebra(QQ, 2, 3)):
            assert derivation_algebra(a).is_bracket_closed()

    def test_der_into_square(self):
        a = qx_mod(3)
        rad = jacobson_radical(a)
        der = derivation_algebra(a)
        sub = der_into(der, rad)
        assert sub.dim == 1
        assert der.space.contains_space(sub.space)

    def test_der_into_is_lie_ideal(self):
        a = truncated_polynomial_algebra(QQ, 2, 3)
        rad = jacobson_radical(a)
        der = derivation_algebra(a)
        sub = der_into(der, rad)
        span = matrix_span(sub)
        for dm in der.basis_matrices():
            for sm in sub.basis_matrices():
                assert span.contains(flatten(commutator(QQ, dm, sm)))


@pytest.mark.parametrize("field", [QQ, GF(2**31 - 1)], ids=["QQ", "GF_BIG"])
def test_der_in_dense_basis(field, rng):
    # dense bases give the derivation system many nonzeros and a low rank
    # ratio; dim Der and dim {D : D(J) <= J^2} do not depend on the basis
    cases = [(matrix_algebra(field, 3), 8, 8), (upper_triangular_algebra(field, 4), 9, 6),
             (truncated_polynomial_algebra(field, 2, 4), 18, 14)]
    for algebra, dim_der, dim_into in cases:
        dense = transvected(algebra, rng)
        assert sum(1 for row in dense_table(dense) for cell in row for x in cell if x) \
            > 2 * sum(1 for row in dense_table(algebra) for cell in row for x in cell if x)
        der = derivation_algebra(dense)
        assert der.dim == derivation_algebra(algebra).dim == dim_der
        if field == QQ:
            rad, dense_rad = jacobson_radical(algebra), jacobson_radical(dense)
            assert der_into(der, dense_rad).dim \
                == der_into(derivation_algebra(algebra), rad).dim == dim_into


def _dense_derivations(algebra):
    """Der(A) from d^3 dense Leibniz rows in the d^2 entries of D, one per
    (i, j, t), plus the rows of D(1) = 0: the reference for the system in
    the images of the generators."""
    d = algebra.dim
    tbl = dense_table(algebra)
    rows = set()
    for i in range(d):
        for j in range(d):
            for t in range(d):
                row = [0] * (d * d)
                row[t * d:(t + 1) * d] = tbl[i][j]
                for a in range(d):
                    row[a * d + i] -= tbl[a][j][t]
                for b in range(d):
                    row[b * d + j] -= tbl[i][b][t]
                rows.add(tuple(row))
    for t in range(d):
        row = [0] * (d * d)
        row[t * d:(t + 1) * d] = algebra.one
        rows.add(tuple(row))
    return kernel_rows(list(rows), d * d, algebra.field)


def _rescaled(algebra, scales):
    """algebra in the basis f_i = scales[i] e_i, from its nonzero cells:
    f_i f_j = sum_k scales[i] scales[j] c_ij^k / scales[k] f_k."""
    f = algebra.field
    lam = [f.coerce(x) for x in scales]
    cells = {(i, j): [(k, f.div(f.mul(f.mul(lam[i], lam[j]), c), lam[k]))
                      for k, c in enumerate(cell) if c]
             for i, row in enumerate(dense_table(algebra)) for j, cell in enumerate(row)}
    return StructureAlgebra(f, cells, [f.div(x, y) for x, y in zip(algebra.one, lam)])


def _load(algebra) -> tuple:
    """What a load decides: the scaled table, its scale, the generators
    with their word tree and word coordinates, and commutativity."""
    words = algebra.words
    return (algebra._sparse, algebra._den, algebra.gens, algebra.edges, words.reps,
            words._terms, algebra.commutative)


@pytest.mark.parametrize("field", [QQ, GF2, GF7, GF_BIG], ids=["QQ", "GF2", "GF7", "GF_BIG"])
def test_dense_load_matches_builder_cells(field, rng):
    # the CLI loads a dense tensor through from_table; the builders hand
    # over their nonzero cells.  Every construction, in its standard basis,
    # a transvected one and a rescaled one (Fraction scales), loads the
    # same from its tensor written as an input may write it (explicit
    # zeros; over GF(p) entries < 0 and >= p; over Q also strings), and
    # from cells that list the zeros too, in no order
    p = field.characteristic
    scales = [3, Fraction(1, 5), 5, 1, Fraction(3, 5), Fraction(1, 3), 9, Fraction(5, 3)]
    cases = [componentwise_algebra(field, 3), matrix_algebra(field, 2),
             upper_triangular_algebra(field, 3), truncated_polynomial_algebra(field, 2, 3),
             univariate_quotient_algebra(field, _poly_times([1, 0, 1], [-1, 1], [-1, 1])),
             exterior_algebra(field, 3),
             direct_sum(upper_triangular_algebra(field, 2), qx_mod(2, field))]
    cases += [transvected(a, rng) for a in cases] + [_rescaled(a, scales[:a.dim]) for a in cases]

    def written(x):
        if p:
            return x + p * rng.randint(-2, 2)
        return rng.choice([x, str(x)] + [int(x)] * (x.denominator == 1))
    dens = set()
    for a in cases:
        table = [[[written(x) for x in cell] for cell in row] for row in dense_table(a)]
        one = [written(x) for x in a.one]
        loads = [StructureAlgebra.from_table(field, table, one),
                 StructureAlgebra(field, {(i, j): rng.sample(list(enumerate(cell)), len(cell))
                                          for i, row in enumerate(table)
                                          for j, cell in enumerate(row)}, one)]
        for b in loads:
            assert _load(b) == _load(a)
            assert json.dumps(certify(b).to_dict(), sort_keys=True) \
                == json.dumps(certify(a).to_dict(), sort_keys=True)
        dens.add(a._den)
    assert p or max(dens) > 1


FIELDS = [QQ, GF2, GF3, GF7, GF_BIG]
FIELD_IDS = ["QQ", "GF2", "GF3", "GF7", "GF_BIG"]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_sparse_der_matches_dense_rows(field, rng):
    cases = [qx_mod(3, field), truncated_polynomial_algebra(field, 2, 3),
             upper_triangular_algebra(field, 3), matrix_algebra(field, 2),
             exterior_algebra(field, 3),
             direct_sum(componentwise_algebra(field, 1), qx_mod(2, field))]
    if field == QQ:
        # Fraction constants and an identity with denominators, 1/3 and 2
        scaled = _rescaled(truncated_polynomial_algebra(QQ, 2, 3),
                           [3, Fraction(1, 2), 3, 1, Fraction(1, 2), 3])
        assert any(x.denominator > 1 for row in dense_table(scaled) for cell in row for x in cell)
        assert scaled.one[0] == Fraction(1, 3)
        cases.append(scaled)
    for algebra in cases:
        for basis in (algebra, transvected(algebra, rng)):
            assert matrix_span(derivation_algebra(basis)) == _dense_derivations(basis)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_der_with_many_generators(field):
    # many generators: no fewer than 8 basis elements generate UT_5, and no
    # fewer than 4 generate M_4; in these bases the identity is no basis vector
    for algebra, dim_der, least in ((upper_triangular_algebra(field, 5), 14, 8),
                                    (matrix_algebra(field, 4), 15, 4)):
        assert len(algebra.gens) >= least
        assert sum(1 for x in algebra.one if x) > 1
        der = derivation_algebra(algebra)
        assert matrix_span(der) == _dense_derivations(algebra)
        assert der.dim == dim_der


def _unit(field, d, i):
    return [field.one if k == i else field.zero for k in range(d)]


@pytest.mark.parametrize("field", [QQ, GF2, GF7], ids=["QQ", "GF2", "GF7"])
def test_words_span_and_follow_their_tree(field, rng):
    cases = [qx_mod(4, field), truncated_polynomial_algebra(field, 2, 3),
             upper_triangular_algebra(field, 3), matrix_algebra(field, 2),
             exterior_algebra(field, 3),
             direct_sum(componentwise_algebra(field, 2), qx_mod(2, field))]
    for algebra in cases + [transvected(a, rng) for a in cases]:
        d, words = algebra.dim, algebra.words.reps
        # the words of {1} and G are a basis, word 0 spans k 1
        assert len(words) == d
        assert Subspace.from_vectors(field, d, words).dim == d
        assert Subspace.from_vectors(field, d, [words[0], algebra.one]).dim == 1
        # word k is a multiple of words[m] e_g for its edge (m, g); each
        # generator's first word is a multiple of e_g itself
        assert [g for m, g in algebra.edges if m == 0] == algebra.gens
        for k, (m, g) in enumerate(algebra.edges, 1):
            assert m < k and g in algebra.gens
            prod = algebra.multiply(words[m], _unit(field, d, g))
            assert Subspace.from_vectors(field, d, [prod, words[k]]).dim == 1
        # a generator lies outside the span of the words before it
        for g in algebra.gens:
            first = [m for m, (_, h) in enumerate(algebra.edges, 1) if h == g][0]
            assert not Subspace.from_vectors(field, d, words[:first]).contains(
                _unit(field, d, g))


def _first_bad_triple(field, table):
    """Reference: the first (i, j, k) in order with (e_i e_j) e_k != e_i (e_j e_k)."""
    d = len(table)
    for i, j, k in itertools.product(range(d), repeat=3):
        lhs = [sum(table[i][j][t] * table[t][k][s] for t in range(d)) for s in range(d)]
        rhs = [sum(table[j][k][t] * table[i][t][s] for t in range(d)) for s in range(d)]
        if any(not field.is_zero(field.coerce(a - b)) for a, b in zip(lhs, rhs)):
            return i, j, k
    return None


@pytest.mark.parametrize("field", [QQ, GF2, GF3, GF_BIG], ids=["QQ", "GF2", "GF3", "GF_BIG"])
def test_non_associative_triple_matches_full_scan(field, monkeypatch):
    # one perturbed constant (two, now and then) in the standard, a
    # transvected and, over Q, a rescaled basis: over Q with denominators
    # and constants of 2^40 and more, added 1, -1/3 or 2^41; over GF(p)
    # added 1 or a random residue, so residues lie on both sides of p/2
    rng, p = random.Random(11), field.characteristic
    bases = [matrix_algebra(field, 2), upper_triangular_algebra(field, 3),
             truncated_polynomial_algebra(field, 2, 3), exterior_algebra(field, 3)]
    bases += [transvected(b, rng) for b in bases]
    if not p:
        scales = [2**21, 3, Fraction(1, 2**20), 5, 2**22, Fraction(7, 3), 1, Fraction(1, 2)]
        bases += [_rescaled(b, scales[:b.dim]) for b in bases[:4]]
        assert max(abs(x) for b in bases for row in dense_table(b) for cell in row
                   for x in cell) >= 2**40
    middles, residues = [], set()       # (first bad middle, G) of each failure
    for base in bases:
        for _ in range(8):
            table = dense_table(base)
            for _ in range(rng.choice([1, 1, 2])):
                i, j, k = (rng.randrange(base.dim) for _ in range(3))
                bump = rng.choice([1, Fraction(-1, 3), 2**41] if not p else [1, rng.randrange(p)])
                table[i][j][k] = field.add(table[i][j][k], field.coerce(bump))
            want = _first_bad_triple(field, table)
            with monkeypatch.context() as m:  # the generators, read without the check
                m.setattr(StructureAlgebra, "_verify_associative", lambda self: None)
                try:
                    unchecked = StructureAlgebra.from_table(field, table, base.one)
                except NotUnital:
                    continue
            residues |= {2 * c > p for row in unchecked._sparse for cell in row for _, c in cell}
            assert unchecked._bad_triple(range(base.dim)) == want
            try:
                StructureAlgebra.from_table(field, table, base.one)
            except NonAssociative as err:
                assert err.triple == want
            else:
                assert want is None
                continue
            middles.append((want[1], unchecked.gens))
    # both kinds occur: a first bad middle in G, and one outside it, found
    # only by the full scan that follows the check on G
    assert any(j in gens for j, gens in middles)
    assert any(j not in gens for j, gens in middles)
    assert residues == ({False} if p == 2 else {True, False})


@pytest.mark.parametrize("field, kind", [(GF_BIG, "transvected"), (GF_BIG, "random"),
                                         (GF7, "random")], ids=["GF_BIG-transvected",
                                                                "GF_BIG-random", "GF7-random"])
def test_associative_loads_on_both_residue_paths(field, kind, monkeypatch):
    # over GF(p) Light's test packs balanced residues.  A transvected table
    # over GF(2^31 - 1) is a small integer table reduced mod p, so every
    # column difference is 0 over Z and no digit is read; in a random basis
    # the differences are 0 only mod p, and their digits are read.  Each
    # table loads, and the full scan finds no bad triple either
    import algcert.algebra as algebra_module
    rng = random.Random(31)
    digits, real = [], algebra_module._digits
    monkeypatch.setattr(algebra_module, "_digits", lambda x, w: digits.append(x) or real(x, w))
    for base in [matrix_algebra(field, 2), upper_triangular_algebra(field, 3),
                 truncated_polynomial_algebra(field, 2, 3), exterior_algebra(field, 3)]:
        if kind == "transvected":
            a = transvected(base, rng, 3 * base.dim)
        else:
            t, t_inv = None, None
            while t_inv is None:
                t = [[rng.randrange(field.p) for _ in range(base.dim)] for _ in range(base.dim)]
                t_inv = invert(t, field)
            a = in_basis(base, t, t_inv)
        assert a._bad_triple(range(a.dim)) is None
        assert bool(digits) == (kind == "random"), repr(base)
        del digits[:]


def _dense_center(algebra):
    """Z(A) from the d^2 rows of x e_i = e_i x over all basis elements."""
    d, tbl = algebra.dim, dense_table(algebra)
    rows = [[tbl[j][i][k] - tbl[i][j][k] for j in range(d)]
            for i in range(d) for k in range(d)]
    return kernel_rows(rows, d, algebra.field)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_center_on_generators_is_canonical(field, rng):
    cases = [upper_triangular_algebra(field, 3), matrix_algebra(field, 2),
             exterior_algebra(field, 3),
             direct_sum(matrix_algebra(field, 2), qx_mod(2, field))]
    for algebra in cases + [transvected(a, rng) for a in cases]:
        got, want = center(algebra), _dense_center(algebra)
        assert repr(got.basis) == repr(want.basis)


def _reduced_der_into(algebra, rad, der):
    """Reference: {D in der : D(J) <= J^2} with J^2.reduce on D(v) for every
    basis vector v of J, not only the lifts of a J/J^2 basis."""
    f, d, square = algebra.field, algebra.dim, rad.square
    mats = [flatten(m) for m in der.basis_matrices()]
    rows = []
    for v in rad.radical.basis:
        residuals = [square.reduce([sum(m[a * d + c] * v[c] for c in range(d))
                                    for a in range(d)]) for m in mats]
        rows.extend(zip(*residuals))
    vecs = [[sum(w_i * m[k] for w_i, m in zip(w, mats)) for k in range(d * d)]
            for w in kernel_rows(rows, der.dim, f).basis]
    return Subspace.from_vectors(f, d * d, vecs)


@pytest.mark.parametrize("field", [QQ, GF3], ids=["QQ", "GF3"])
def test_der_stays_on_generator_columns(field, rng, monkeypatch):
    # Der(A), {D : D(J) <= J^2} and the lower central series of Der(A) run
    # on the |G| d entries D(e_g): no kernel or span in algebra.py is taken
    # in a larger ambient, such as the d^2 entries of whole matrices
    import algcert.algebra as algebra_module
    ambients = []
    kernel, from_vectors = algebra_module.kernel_rows, Subspace.from_vectors.__func__

    def record(n):
        ambients.append(n)
        return n
    cases = [transvected(a, rng) for a in (
        matrix_algebra(field, 3), upper_triangular_algebra(field, 3),
        truncated_polynomial_algebra(field, 2, 4), exterior_algebra(field, 3))]
    assert any(len(a.gens) < a.dim for a in cases)
    for algebra in cases:
        try:
            rad = jacobson_radical(algebra)
        except UnsupportedRadicalComputation:   # non-commutative over GF(p)
            rad = None
        ambients.clear()
        with monkeypatch.context() as m:
            m.setattr(algebra_module, "kernel_rows",
                      lambda rows, n, f: kernel(rows, record(n), f))
            m.setattr(Subspace, "from_vectors", classmethod(
                lambda cls, f, n, vecs: from_vectors(cls, f, record(n), vecs)))
            der = derivation_algebra(algebra)
            if rad is not None:
                der_into(der, rad)
            is_nilpotent(der)
        assert ambients and max(ambients) <= len(algebra.gens) * algebra.dim


@pytest.mark.parametrize("field", [QQ, GF3], ids=["QQ", "GF3"])
def test_der_into_matches_reduce(field, rng):
    cases = [qx_mod(4, field), truncated_polynomial_algebra(field, 2, 3),
             truncated_polynomial_algebra(field, 3, 3)]
    for algebra in cases + [transvected(a, rng) for a in cases]:
        rad = jacobson_radical(algebra)
        der = derivation_algebra(algebra)
        assert matrix_span(der_into(der, rad)) == _reduced_der_into(algebra, rad, der)


@pytest.mark.parametrize("field", [QQ, GF3], ids=["QQ", "GF3"])
def test_der_into_reads_only_the_lifts(field, rng):
    # D is formed on the Y entries once for each of the jj2_dim lifts of a
    # J/J^2 basis, not for a basis of J, and der_into never lifts Der's basis
    # to matrices; Der is built on the lifts' words and on the load-time ones
    cases = [qx_mod(4, field), truncated_polynomial_algebra(field, 2, 4),
             truncated_polynomial_algebra(field, 3, 3)]
    if field == QQ:     # GF(p) radicals are computed for commutative algebras
        cases += [truncated_polynomial_algebra(field, 2, 5), exterior_algebra(field, 3),
                  upper_triangular_algebra(field, 4)]
    cases += [transvected(a, rng) for a in cases]
    fewer = 0
    for algebra in cases:
        rad = jacobson_radical(algebra)
        fewer += rad.jj2_dim < rad.radical.dim
        assert rad.jj2_dim == len(rad.lifts) == rad.radical.dim - rad.square.dim
        for der in (derivation_algebra(algebra), derivation_algebra(algebra, rad)):
            forms, image = [], der.image
            der.image = lambda at, image=image: forms.append(at) or image(at)
            der_into(der, rad)
            assert len(forms) == rad.jj2_dim
            assert "_columns" not in vars(der)
    assert fewer >= 4


def _double_loop_constants(lie):
    """Reference: every structure constant from one bracket per unordered
    pair i < j, the pair's cell for (j, i) the same with the sign flipped."""
    s, mats = lie._columns
    p, w = lie.field.characteristic, len(lie.cols)
    where = {q: l for l, q in enumerate(lie.space.pivots)}
    cols = [(i, lie.cols[i]) for i in sorted({q % w for q in where})]
    c = [[[] for _ in mats] for _ in mats]
    for i, j in itertools.combinations(range(len(mats)), 2):
        for q, v in lie._bracket(mats[i], mats[j], cols).items():
            if q in where and (v := v % p if p else v):
                c[i][j].append((where[q], v))
                c[j][i].append((where[q], -v))
    return s * s, c


def _benchmark_algebras(field):
    """The structure-constant and presented algebras that the benchmark
    certifies over Q (field QQ) or GF(p) (field None)."""
    if field is not None:
        made = [truncated_polynomial_algebra(field, 2, 5),
                truncated_polynomial_algebra(field, 3, 3), exterior_algebra(field, 3),
                upper_triangular_algebra(field, 5), matrix_algebra(field, 4)]
        given = [(field, 6, 2, []), (field, 2, 5, ["X1^3+X2^3"])]
    else:
        made = [truncated_polynomial_algebra(GF5, 2, 4), truncated_polynomial_algebra(GF2, 2, 5),
                truncated_polynomial_algebra(GF3, 3, 3)]
        given = [(GF7, 3, 4, ["X1^2+X2^2+X3^2"]), (GF5, 2, 4, ["X1^3+X2^3"])]
    return made + [quotient_algebra(presentation_from_ideal(
        n, trunc, [pp(g, n, f) for g in gens], f)) for f, n, trunc, gens in given]


@pytest.mark.parametrize("field", [QQ, None], ids=["QQ", "GFp"])
def test_structure_constants_match_double_loop(field, rng):
    # the rows, formed one at a time (the Killing witness first), equal the
    # constants of one bracket per pair, entry for entry: on the benchmark's
    # certify algebras and in a transvected basis of each
    cases = _benchmark_algebras(field)
    for algebra in cases + [transvected(a, rng) for a in cases]:
        try:
            rad = jacobson_radical(algebra)
        except UnsupportedRadicalComputation:
            rad = None
        der = derivation_algebra(algebra, rad)
        is_nilpotent(der)
        assert der.structure_constants == _double_loop_constants(der)


@pytest.mark.parametrize("make, rows", [
    (lambda: truncated_polynomial_algebra(QQ, 2, 5), [0]),
    (lambda: matrix_algebra(QQ, 4), list(range(7)))], ids=["trunc_q_2_5", "matrix_q_4"])
def test_killing_witness_forms_only_its_rows(make, rows):
    # the witness fires at B_0 on k[x, y]/m^5 and at B_6 on M_4, having formed
    # only the rows of the structure constants that it read
    algebra = make()
    der = derivation_algebra(algebra, jacobson_radical(algebra))
    assert not is_nilpotent(der)
    assert sorted(der._rows) == rows < list(range(der.dim))


def test_der_without_radical_words_reuses_the_load_words(monkeypatch):
    # J = 0 has no lifts, so Der is solved on the words that loading grew
    import algcert.algebra as algebra_module
    built, init = [], algebra_module.Words.__init__
    monkeypatch.setattr(algebra_module.Words, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    for algebra in (matrix_algebra(QQ, 3), transvected(matrix_algebra(QQ, 3), random.Random(3)),
                    componentwise_algebra(GF3, 3)):
        rad = jacobson_radical(algebra)
        del built[:]
        der = derivation_algebra(algebra, rad)
        assert not rad.lifts and not built and der.frame is algebra.words
    algebra = truncated_polynomial_algebra(QQ, 2, 3)
    rad = jacobson_radical(algebra)
    del built[:]
    derivation_algebra(algebra, rad)
    assert len(built) == 1 and rad.lifts


def _dense_der_outcome(algebra, rad):
    """Reference (dim Der, dim {D : D(J) <= J^2} or None, Der nilpotent):
    Der(A) from the d^3 dense Leibniz rows of _dense_derivations as whole
    matrices in the standard basis, D(J) <= J^2 checked on every basis
    vector of J.  Its nilpotency is decided on those matrices (the Lie
    decisions themselves are checked in test_lie_decisions_match_dense_reference)."""
    der = LieSubalgebra(algebra.field, algebra.dim, _dense_derivations(algebra))
    into = None if rad is None else _reduced_der_into(algebra, rad, der).dim
    return der.dim, into, is_nilpotent(der)


@pytest.mark.parametrize("field", [QQ, GF2, GF3, GF_BIG], ids=["QQ", "GF2", "GF3", "GF_BIG"])
def test_der_solver_matches_dense_reference(field):
    # the solver in word coordinates, grown from the J/J^2 lifts when the
    # radical is known and from the load-time generators when it is not,
    # gives the certificate's dim_der, dim_ker_phi_lie and R-NILP input of
    # the dense reference: every construction, in its standard basis and in
    # two transvected ones
    rng = random.Random(17)
    cases = [componentwise_algebra(field, 2), matrix_algebra(field, 2),
             upper_triangular_algebra(field, 3), upper_triangular_algebra(field, 4),
             truncated_polynomial_algebra(field, 2, 3),
             univariate_quotient_algebra(field, [1, 0, 1]), qx_mod(3, field),
             exterior_algebra(field, 3), direct_sum(upper_triangular_algebra(field, 2),
                                                    qx_mod(2, field))]
    known = 0
    for algebra in cases + [transvected(a, rng) for a in cases for _ in range(2)]:
        try:
            rad = jacobson_radical(algebra)
        except UnsupportedRadicalComputation:   # non-commutative, or too large a scan
            rad = None
        der = derivation_algebra(algebra, rad)
        got = der.dim, None if rad is None else der_into(der, rad).dim, is_nilpotent(der)
        assert got == _dense_der_outcome(algebra, rad), repr(algebra)
        known += rad is not None
    assert known >= (24 if field == QQ else 0 if field == GF_BIG else 12)


def _count_products(monkeypatch) -> list:
    """A list that records each StructureAlgebra._times call from now on."""
    calls, times = [], StructureAlgebra._times
    monkeypatch.setattr(StructureAlgebra, "_times",
                        lambda self, x, y: calls.append(1) or times(self, x, y))
    return calls


def test_square_is_j_times_few_rows(monkeypatch):
    # J^2 = J B' for the rows B' of J that span J modulo J B': on
    # k[X1..X4]/m^7 (d = 210) B' is the 4 variables, so J^2 takes 4 dim J
    # products and not dim J^2 = 43,681, and the words in the lifts as many
    a = truncated_polynomial_algebra(QQ, 4, 7)
    j = Subspace.from_vectors(QQ, a.dim, [_unit(QQ, a.dim, i) for i in range(1, a.dim)])
    calls = _count_products(monkeypatch)
    rad = _radical_data(a, j)
    assert [p.dim for p in rad.powers] == [209, 205, 195, 175, 140, 84, 0]
    assert rad.jj2_dim == 4
    assert len(calls) <= 2 * rad.jj2_dim * j.dim


@pytest.mark.parametrize("field", [QQ, GF3], ids=["QQ", "GF3"])
def test_der_solver_reads_generator_products(field, monkeypatch):
    # the solver reads R_g and, unless A is commutative, L_g in word
    # coordinates: at most 2 |G| d products, and on the transvected
    # k[X1..X3]/m^5 (d = 35) far fewer than the d^2 of the table.  Over
    # GF(3) its radical scan is out of bounds, so the load-time G serves
    rng = random.Random(23)
    cases = [(transvected(truncated_polynomial_algebra(field, 3, 5), rng), 102)]
    if field == QQ:
        cases.append((transvected(upper_triangular_algebra(field, 4), rng), 9))
    for algebra, dim_der in cases:
        rad = jacobson_radical(algebra) if field == QQ else None
        with monkeypatch.context() as patch:
            calls = _count_products(patch)
            der = derivation_algebra(algebra, rad)
        width = 1 if algebra.commutative else 2
        assert len(calls) <= width * len(der.cols) * algebra.dim
        if algebra.commutative:
            assert len(calls) * 10 < algebra.dim ** 2
            # a local A with its radical known: G is the lifts of a J/J^2 basis
            assert len(der.cols) == (rad.jj2_dim if rad else len(algebra.gens))
        assert der.dim == dim_der


def _dense_series(lie, derived):
    """Reference: the derived or lower central series of lie as bracket spans
    of n x n matrices, until it reaches 0 or repeats a dimension."""
    f, n = lie.field, lie.n
    base = lie.basis_matrices()
    terms = [matrix_span(lie)]
    while terms[-1].dim:
        cur = LieSubalgebra(f, n, terms[-1]).basis_matrices()
        left = cur if derived else base
        nxt = Subspace.from_vectors(
            f, n * n, [flatten(commutator(f, a, b)) for a in left for b in cur])
        if nxt.dim == terms[-1].dim:
            break
        terms.append(nxt)
    return terms


def _random_ops(rng, field, n, shape):
    """Two random n x n matrices; shape restricts their support to the
    strict upper triangle, the upper triangle, or nothing."""
    lowest = {"strict": 1, "upper": 0, "full": -n}[shape]
    return [[[field.coerce(rng.randint(-2, 2) if c - r >= lowest else 0)
              for c in range(n)] for r in range(n)]
            for _ in range(2)]


def _random_closed(rng, field, n, shape):
    """Bracket closure of two random n x n matrices of the given shape."""
    return LieSubalgebra(field, n, _bracket_closure(field, n, _random_ops(rng, field, n, shape)))


def _dense_closure(field, n, ops):
    """Reference for _bracket_closure: add dense commutators of basis pairs
    until the span stops growing."""
    span = Subspace.from_vectors(field, n * n, [flatten(m) for m in ops])
    while True:
        mats = LieSubalgebra(field, n, span).basis_matrices()
        grown = span.sum(Subspace.from_vectors(field, n * n, [
            flatten(commutator(field, a, b)) for a, b in itertools.combinations(mats, 2)]))
        if grown.dim == span.dim:
            return span
        span = grown


@pytest.mark.parametrize("field", [QQ, GF7])
def test_bracket_closure_matches_dense_commutators(rng, field):
    for n in (2, 3):
        for shape in ("strict", "upper", "full"):
            for _ in range(3):
                ops = _random_ops(rng, field, n, shape)
                closure = _bracket_closure(field, n, ops)
                assert closure == _dense_closure(field, n, ops)
                assert LieSubalgebra(field, n, closure).is_bracket_closed()
    # span{E_01, E_10} misses [E_01, E_10] = E_00 - E_11
    open_span = Subspace.from_vectors(field, 4, [[0, 1, 0, 0], [0, 0, 1, 0]])
    assert not LieSubalgebra(field, 2, open_span).is_bracket_closed()
    assert _bracket_closure(field, 2, [[[0, 1], [0, 0]], [[0, 0], [1, 0]]]).dim == 3


class TestLieSeries:
    def test_abelian(self):
        diag = Subspace.from_vectors(QQ, 4, [[1, 0, 0, 0], [0, 0, 0, 1]])
        lie = LieSubalgebra(QQ, 2, diag)
        assert is_solvable(lie) and is_nilpotent(lie)

    def test_strictly_upper_triangular_nilpotent(self):
        vecs = []
        for (r, c) in [(0, 1), (0, 2), (1, 2)]:
            m = [[0] * 3 for _ in range(3)]
            m[r][c] = 1
            vecs.append([x for row in m for x in row])
        lie = LieSubalgebra(QQ, 3, Subspace.from_vectors(QQ, 9, vecs))
        assert is_nilpotent(lie) and is_solvable(lie)

    def test_gl2_not_solvable(self):
        gl2 = LieSubalgebra(QQ, 2, Subspace.full(QQ, 4))
        assert not is_solvable(gl2)
        assert not is_nilpotent(gl2)
        # derived series stabilizes at sl2
        assert _series_limit(gl2, derived=True) == 3
        assert _dense_series(gl2, derived=True)[-1].dim == 3

    @pytest.mark.parametrize("n", [3, 4])
    def test_killing_witness_silent_on_strictly_upper(self, n):
        vecs = [[int(k == r * n + c) for k in range(n * n)]
                for r in range(n) for c in range(r + 1, n)]
        lie = LieSubalgebra(QQ, n, Subspace.from_vectors(QQ, n * n, vecs))
        assert list(_killing_diagonal(lie)) == [0] * lie.dim
        assert is_nilpotent(lie)

    @pytest.mark.parametrize("make", [
        lambda: LieSubalgebra(QQ, 2, Subspace.full(QQ, 4)),
        lambda: derivation_algebra(truncated_polynomial_algebra(QQ, 2, 2))],
        ids=["gl2", "der_m2"])
    def test_killing_witness_fires(self, make, monkeypatch):
        # a nonzero kappa(B_i, B_i) decides: the series is not run
        import algcert.algebra as algebra_module
        lie = make()
        assert lie.dim == 4 and any(_killing_diagonal(lie))
        with monkeypatch.context() as m:
            m.setattr(algebra_module, "_series_limit",
                      lambda lie, derived: pytest.fail("the series ran"))
            assert not is_nilpotent(lie)

    def test_series_decides_when_killing_is_silent(self, monkeypatch):
        # over GF(2) every kappa(B_i, B_i) of Der(k[x,y]/m^5) is 0, though
        # Der holds the Euler derivation: the lower central series decides
        import algcert.algebra as algebra_module
        der = derivation_algebra(truncated_polynomial_algebra(GF2, 2, 5))
        assert der.dim == 28 and not any(_killing_diagonal(der))
        calls = []
        series = algebra_module._series_limit
        with monkeypatch.context() as m:
            m.setattr(algebra_module, "_series_limit",
                      lambda lie, derived: calls.append(derived) or series(lie, derived))
            assert not is_nilpotent(der)
        assert calls == [False]

    @pytest.mark.parametrize("field", [QQ, GF5])
    def test_heisenberg_nilpotent_not_abelian(self, field):
        # the Heisenberg algebra in a non-triangular 3 x 3 realisation:
        # e_01, e_02, e_12 conjugated by an invertible matrix
        t = [[1, 2, 0], [0, 1, 1], [1, 0, 1]]
        t_inv = invert(t, field)
        vecs = []
        for (r, c) in [(0, 1), (0, 2), (1, 2)]:
            e = [[1 if (i, j) == (r, c) else 0 for j in range(3)] for i in range(3)]
            vecs.append(flatten(matmul(field, matmul(field, t, e), t_inv)))
        lie = LieSubalgebra(field, 3, Subspace.from_vectors(field, 9, vecs))
        assert lie.dim == 3 and lie.is_bracket_closed()
        assert is_nilpotent(lie) and is_solvable(lie)
        assert list(_killing_diagonal(lie)) == [0, 0, 0]
        assert [s.dim for s in _dense_series(lie, derived=False)] == [3, 1, 0]

    def test_der_dual_numbers_nilpotent(self):
        # Der(k[x]/(x^2)) = span{x d/dx}
        der = derivation_algebra(qx_mod(2))
        assert der.dim == 1
        assert is_nilpotent(der) and is_solvable(der)

    def test_der_dual_numbers_fires_r_nilp(self, tmp_path, capsys):
        path = tmp_path / "dual.json"
        path.write_text(json.dumps({
            "kind": "structure_constants", "field": {"type": "Q"}, "dim": 2,
            "one": [1, 0], "table": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]}))
        assert main(["analyze", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {"flag": "RATIONAL", "rule": "R-NILP",
                "evidence": {"dim_der": 1, "lie_nilpotent": True}} \
            in payload["verdicts"]


def _with_denominators(field):
    """Closed spans whose canonical bases have denominators 2 and 3 over Q:
    a Heisenberg algebra of 4 x 4 matrices, and a solvable, not nilpotent
    algebra of 3 x 3 ones.  Matrices are given by their nonzero entries."""
    for n, mats in ((4, [{(0, 1): 1}, {(0, 3): 2, (1, 2): 3}, {(0, 2): 1}]),
                    (3, [{(0, 0): 3, (1, 1): 2}, {(0, 1): 1}, {(0, 2): 1}])):
        vecs = [[m.get(divmod(k, n), 0) for k in range(n * n)] for m in mats]
        yield LieSubalgebra(field, n, Subspace.from_vectors(field, n * n, vecs))


def _lie_cases(rng, field):
    for alg in (qx_mod(3, field), qx_mod(4, field),
                truncated_polynomial_algebra(field, 2, 3),
                upper_triangular_algebra(field, 2), upper_triangular_algebra(field, 3),
                matrix_algebra(field, 2), componentwise_algebra(field, 2),
                direct_sum(componentwise_algebra(field, 1), qx_mod(2, field))):
        yield derivation_algebra(alg)
    yield from _with_denominators(field)
    for n in (2, 3):
        for shape in ("strict", "upper", "full"):
            for _ in range(2):
                yield _random_closed(rng, field, n, shape)
    # dense bases, where the constants are read on |G| < d columns
    for alg in (qx_mod(4, field), upper_triangular_algebra(field, 3), matrix_algebra(field, 2),
                truncated_polynomial_algebra(field, 2, 3)):
        yield derivation_algebra(transvected(alg, rng))


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_lie_decisions_match_dense_reference(rng, field):
    seen, scales, narrow = set(), set(), 0
    for lie in _lie_cases(rng, field):
        narrow += len(lie.cols) < lie.n
        mats = lie.basis_matrices()
        # [B_i, B_j] = sum_l C B_l / scale over the pairs (l, C) in consts[i][j]
        scale, consts = lie.structure_constants
        scales.add(scale)
        for i, a in enumerate(mats):
            for j, b in enumerate(mats):
                total = matrix_sum(field, lie.n, [(Fraction(v, scale), mats[l])
                                                  for l, v in consts[i][j]])
                assert total == commutator(field, a, b)
        derived = _dense_series(lie, derived=True)
        lower = _dense_series(lie, derived=False)
        assert is_solvable(lie) == (derived[-1].dim == 0)
        assert is_nilpotent(lie) == (lower[-1].dim == 0)
        assert is_nilpotent(lie) == (_series_limit(lie, derived=False) == 0)
        assert _series_limit(lie, derived=True) == derived[-1].dim
        assert _series_limit(lie, derived=False) == lower[-1].dim
        seen.add((is_solvable(lie), is_nilpotent(lie)))
    # every branch is exercised: nilpotent, solvable only, neither
    assert seen == {(True, True), (True, False), (False, False)}
    assert narrow >= 4
    # over Q the canonical bases with denominators 2 and 3 give scales 4 and 9
    assert scales == {1} if field.characteristic else {4, 9} <= scales


class TestPresentedAgreement:
    def test_dickson_matches_presented_radical(self, rng):
        # structure constants from random presentations: trace-form radical
        # must equal the span of positive-degree monomial images
        for _ in range(6):
            n = rng.choice([1, 2])
            l = rng.choice([2, 3])
            gens = []
            if rng.random() < 0.7:
                g = random_poly(rng, n, QQ, l - 1)
                g = _strip_low(g, n)
                if not g.is_zero():
                    gens.append(g)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LoweyMismatch)
                pres = presentation_from_ideal(n, l, gens, QQ)
            presented = quotient_algebra(pres)
            a = StructureAlgebra.from_table(QQ, dense_table(presented), presented.one)
            rad = jacobson_radical(a)
            assert rad.radical == presented.known_radical

    def test_base_change_dimension_agreement(self, rng):
        # radical dimension of a presented algebra agrees with its reduction
        # at a prime where the ideal keeps its dimension
        checked = 0
        while checked < 20:
            n, l = 2, 3
            g = _strip_low(random_poly(rng, n, QQ, l - 1), n)
            gens = [g] if not g.is_zero() else []
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LoweyMismatch)
                pres_q = presentation_from_ideal(n, l, gens, QQ)
            a_q = quotient_algebra(pres_q)
            dim_q = jacobson_radical(StructureAlgebra.from_table(
                QQ, dense_table(a_q), a_q.one)).radical.dim
            for p in (3, 5, 7, 11):
                gf = GF(p)
                try:
                    gens_p = [pp(str(g), n, gf) for g in gens]
                except Exception:
                    continue
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", LoweyMismatch)
                    pres_p = presentation_from_ideal(n, l, gens_p, gf)
                if pres_p.ideal.dim != pres_q.ideal.dim:
                    continue
                a_p = quotient_algebra(pres_p)
                bare_p = StructureAlgebra.from_table(gf, dense_table(a_p), a_p.one)
                assert jacobson_radical(bare_p).radical.dim == dim_q
                checked += 1
                break
            else:
                checked += 1  # no good prime in range; sample still counts


def _strip_low(g, n):
    from algcert.poly import Poly
    terms = {m: c for m, c in g.terms.items() if sum(m) >= 2}
    return Poly(n, QQ, terms)
