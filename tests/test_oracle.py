import pytest

from algcert.algebra import jacobson_radical
from algcert.constructions import (matrix_algebra,
                                   truncated_polynomial_algebra,
                                   univariate_quotient_algebra)
from algcert.errors import SearchSpaceTooLarge, UnsupportedRadicalComputation
from algcert.fields import GF, QQ
from algcert.linalg import combine
from algcert.oracle import enumerate_automorphisms, induced_jj2_matrices
from conftest import matmul

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
