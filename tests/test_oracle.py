import itertools
from math import prod

import pytest

from algcert.algebra import jacobson_radical
from algcert.constructions import (exterior_algebra, matrix_algebra,
                                   truncated_polynomial_algebra,
                                   univariate_quotient_algebra,
                                   upper_triangular_algebra)
from algcert.errors import SearchSpaceTooLarge, UnsupportedRadicalComputation
from algcert.fields import GF, QQ
from algcert.linalg import combine, row_rank
from algcert.oracle import enumerate_automorphisms, induced_jj2_matrices
from conftest import identity, matmul

GF2, GF3 = GF(2), GF(3)


def _key(m):
    return tuple(x for row in m for x in row)


class TestEnumeration:
    def test_gf3_truncated_cubic(self):
        a = univariate_quotient_algebra(GF3, [0, 0, 0, 1])
        group = enumerate_automorphisms(a, jacobson_radical(a))
        assert group.order == 6

    def test_gf2_dual_numbers(self):
        a = univariate_quotient_algebra(GF2, [0, 0, 1])
        assert enumerate_automorphisms(a, jacobson_radical(a)).order == 1

    def test_gf2_two_variables_square_zero(self):
        a = truncated_polynomial_algebra(GF2, 2, 2)
        group = enumerate_automorphisms(a, jacobson_radical(a))
        assert group.order == 6  # |GL_2(GF(2))|

    def test_matrix_algebra_general_path(self):
        a = matrix_algebra(GF2, 2)
        assert enumerate_automorphisms(a, None).order == 6  # PGL_2(GF(2))

    def test_rejects_rationals(self):
        a = univariate_quotient_algebra(QQ, [0, 0, 1])
        with pytest.raises(UnsupportedRadicalComputation):
            enumerate_automorphisms(a, None)

    def test_search_space_guard(self):
        a = truncated_polynomial_algebra(GF3, 2, 3)
        with pytest.raises(SearchSpaceTooLarge):
            enumerate_automorphisms(a, jacobson_radical(a), max_enum=10)

    def test_search_nodes_are_generator_images(self):
        # k[x]/(x^3) over GF(3): one generator, x, whose image ranges over
        # the 3^2 vectors of J, so the search tries 9 images
        a = univariate_quotient_algebra(GF3, [0, 0, 0, 1])
        rad = jacobson_radical(a)
        with pytest.raises(SearchSpaceTooLarge,
                           match="automorphism search needs more than 8 nodes, bound is 8"):
            enumerate_automorphisms(a, rad, max_enum=8)
        assert enumerate_automorphisms(a, rad, max_enum=9).order == 6

    def test_every_element_is_an_automorphism(self):
        a = univariate_quotient_algebra(GF3, [0, 0, 0, 1])
        group = enumerate_automorphisms(a, jacobson_radical(a))
        for rows in group.elements:
            def m(v):
                return combine(GF3, zip(v, zip(*rows)), a.dim)
            assert m(a.one) == list(a.one)
            for i in range(a.dim):
                for j in range(a.dim):
                    ei = [1 if t == i else 0 for t in range(a.dim)]
                    ej = [1 if t == j else 0 for t in range(a.dim)]
                    assert m(a.multiply(ei, ej)) == a.multiply(m(ei), m(ej))

    def test_order_divides_gl_of_reduced_dim(self):
        # sanity bound when the action on A/k.1 is faithful
        cases = [
            (truncated_polynomial_algebra(GF2, 2, 2), 2),
            (univariate_quotient_algebra(GF3, [0, 0, 0, 1]), 2),
        ]
        for a, reduced in cases:
            group = enumerate_automorphisms(a, jacobson_radical(a))
            p = a.field.p
            gl = 1
            for i in range(reduced):
                gl *= p**reduced - p**i
            assert gl % group.order == 0


def _gl(n, q):
    """|GL_n(F_q)|."""
    return prod(q**n - q**i for i in range(n))


def _inner(a):
    """|A^x| / |Z^x|, the order of Inn(A)(F_q), with the units and the
    central units counted among the q^d elements of A."""
    f, d = a.field, a.dim
    basis = identity(f, d)
    units = [x for x in itertools.product(range(f.p), repeat=d)
             if row_rank([a.multiply(x, e) for e in basis], f) == d]
    central = [x for x in units if all(a.multiply(x, e) == a.multiply(e, x) for e in basis)]
    return len(units) // len(central)


# Aut(A) is connected on each input, so the oracle's order is the point count
# of the group: GL(J/J^2) times q to the dimension of the unipotent radical
# for the local algebras, and Inn(A) = A^x/Z^x for M_n (Skolem-Noether) and
# UT_n, all of whose automorphisms are inner (Kezlan, 1990)
@pytest.mark.parametrize("build,predict", [
    pytest.param(lambda: truncated_polynomial_algebra(GF2, 2, 2), _gl(2, 2),
                 id="k[x,y]/m^2-GF2"),
    pytest.param(lambda: truncated_polynomial_algebra(GF3, 2, 2), _gl(2, 3),
                 id="k[x,y]/m^2-GF3"),
    pytest.param(lambda: truncated_polynomial_algebra(GF2, 3, 2), _gl(3, 2),
                 id="k[x,y,z]/m^2-GF2"),
    pytest.param(lambda: univariate_quotient_algebra(GF2, [0, 0, 0, 1]), (2 - 1) * 2,
                 id="k[x]/x^3-GF2"),
    pytest.param(lambda: univariate_quotient_algebra(GF3, [0, 0, 0, 1]), (3 - 1) * 3,
                 id="k[x]/x^3-GF3"),
    pytest.param(lambda: truncated_polynomial_algebra(GF2, 2, 3), _gl(2, 2) * 2**6,
                 id="k[x,y]/m^3-GF2"),
    pytest.param(lambda: exterior_algebra(GF3, 2), _gl(2, 3) * 3**2,
                 id="Lambda(k^2)-GF3"),
    pytest.param(lambda: matrix_algebra(GF2, 2), _inner, id="M2-GF2"),
    pytest.param(lambda: matrix_algebra(GF3, 2), _inner, id="M2-GF3"),
    pytest.param(lambda: upper_triangular_algebra(GF2, 2), _inner, id="UT2-GF2"),
    pytest.param(lambda: upper_triangular_algebra(GF3, 2), _inner, id="UT2-GF3"),
    pytest.param(lambda: upper_triangular_algebra(GF2, 3), _inner, id="UT3-GF2"),
])
def test_order_equals_point_count(build, predict):
    a = build()
    rad = jacobson_radical(a) if a.commutative else None
    order = predict(a) if callable(predict) else predict
    assert enumerate_automorphisms(a, rad).order == order


class TestInducedAction:
    def test_gf3_blocks_and_kernel(self):
        a = univariate_quotient_algebra(GF3, [0, 0, 0, 1])
        rad = jacobson_radical(a)
        group = enumerate_automorphisms(a, rad)
        act = induced_jj2_matrices(group, a, rad)
        blocks = sorted({_key(b) for b in act.matrices})
        assert blocks == [(1,), (2,)]
        assert act.kernel_count == 3
        assert act.image_order * act.kernel_count == group.order

    def test_square_zero_faithful(self):
        a = truncated_polynomial_algebra(GF2, 2, 2)
        rad = jacobson_radical(a)
        group = enumerate_automorphisms(a, rad)
        act = induced_jj2_matrices(group, a, rad)
        assert act.kernel_count == 1
        assert act.image_order == group.order

    def test_dual_numbers_identity_block(self):
        a = univariate_quotient_algebra(GF2, [0, 0, 1])
        rad = jacobson_radical(a)
        group = enumerate_automorphisms(a, rad)
        act = induced_jj2_matrices(group, a, rad)
        assert act.matrices == [[[1]]]

    def test_block_map_is_homomorphism(self):
        a = univariate_quotient_algebra(GF3, [0, 0, 0, 1])
        rad = jacobson_radical(a)
        group = enumerate_automorphisms(a, rad)
        act = induced_jj2_matrices(group, a, rad)
        index = {_key(m): i for i, m in enumerate(group.elements)}
        for i, m1 in enumerate(group.elements):
            for j, m2 in enumerate(group.elements):
                k = index[_key(matmul(GF3, m1, m2))]
                assert act.matrices[k] == matmul(GF3, act.matrices[i], act.matrices[j])

    def test_order_factorization_across_examples(self):
        examples = [
            univariate_quotient_algebra(GF3, [0, 0, 0, 1]),
            truncated_polynomial_algebra(GF2, 2, 2),
            univariate_quotient_algebra(GF2, [0, 0, 0, 1]),
            truncated_polynomial_algebra(GF3, 1, 3),
        ]
        for a in examples:
            rad = jacobson_radical(a)
            group = enumerate_automorphisms(a, rad)
            act = induced_jj2_matrices(group, a, rad)
            assert act.image_order * act.kernel_count == group.order
