import itertools
import random
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from algcert import poly
from algcert.errors import (AlgcertError, AmbientMismatch, BadScalar, NotInvertible,
                            NotSHomogeneous, OutOfRangeVariable, PolySyntaxError,
                            SearchSpaceTooLarge, ZeroInput)
from algcert.fields import GF, QQ
from algcert.poly import (LinearChange, Poly, TruncatedRing,
                          apply_linear_change, check_ring, degree_monomials, grlex_key,
                          homogeneous_components,
                          monomial_gcd_factor, parse_poly, partial_derivative,
                          s_index)
from conftest import identity, matmul, pp, random_poly

GF3 = GF(3)


class TestParser:
    def test_basic(self):
        f = pp("X1^2*X2 + 3*X3^2", 3)
        assert len(f.terms) == 2
        assert sorted(sum(m) for m in f.terms) == [2, 3]

    def test_cancellation(self):
        assert pp("X1 - X1", 1).is_zero()

    def test_modular_inverse_coefficient(self):
        f = pp("1/2*X1^4", 1, GF3)
        assert f.terms == {(4,): 2}

    def test_unary_minus(self):
        f = pp("-X1 + X2", 2)
        assert f.coefficient((1, 0)) == Fraction(-1)
        assert f.coefficient((0, 1)) == Fraction(1)

    def test_syntax_error_position(self):
        with pytest.raises(PolySyntaxError) as err:
            pp("X1 + ^2", 2)
        assert err.value.position == 5

    def test_out_of_range_variable(self):
        with pytest.raises(OutOfRangeVariable):
            pp("X3", 2)

    def test_zero_denominator(self):
        with pytest.raises(BadScalar):
            pp("1/0*X1", 1)

    def test_denominator_zero_mod_p(self):
        with pytest.raises(BadScalar):
            pp("1/3*X1", 1, GF3)

    def test_repeated_factors_accumulate(self):
        assert pp("X1*X1^2", 1) == pp("X1^3", 1)

    def test_round_trip_random(self):
        rng = random.Random(7)
        for field in (QQ, GF(7)):
            for _ in range(100):
                f = random_poly(rng, 3, field, 4)
                if f.is_zero():
                    continue
                assert parse_poly(str(f), 3, field) == f


@pytest.mark.parametrize("text, field, error, position", [
    ("", QQ, PolySyntaxError, 0),
    ("X1 +", QQ, PolySyntaxError, 4),
    ("--X1", QQ, PolySyntaxError, 1),
    ("X1 X2", QQ, PolySyntaxError, 3),
    ("3X1", QQ, PolySyntaxError, 1),
    ("2*3", QQ, PolySyntaxError, 2),
    ("X1*2", QQ, PolySyntaxError, 3),
    ("X1^", QQ, PolySyntaxError, 3),
    ("x1", QQ, PolySyntaxError, 0),
    ("X0", QQ, OutOfRangeVariable, None),
    ("X3", QQ, OutOfRangeVariable, None),
    ("1/0*X1", QQ, BadScalar, None),
    ("1/3*X1", GF3, BadScalar, None),
    # digits are decimal digits: a superscript two is str.isdigit but not int
    ("X1^\u00b2", QQ, PolySyntaxError, 3),
    ("\u00b2*X1", QQ, PolySyntaxError, 0),
])
def test_text_that_is_not_a_polynomial(text, field, error, position):
    with pytest.raises(error) as err:
        parse_poly(text, 2, field)
    assert getattr(err.value, "position", None) == position


def test_decimal_digits_of_any_script_are_read():
    # Arabic-Indic three is a decimal digit, which int reads
    assert parse_poly("\u0663*X1^\u0662", 2, QQ) == parse_poly("3*X1^2", 2, QQ)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="X0123456789\u00b2\u0663+-*/^x ", max_size=24),
       st.sampled_from([QQ, GF3]))
def test_parser_raises_only_its_own_errors(text, field):
    try:
        assert isinstance(parse_poly(text, 2, field), Poly)
    except AlgcertError:
        pass


class TestOps:
    def test_homogeneous_components(self):
        comps = homogeneous_components(pp("X1^2 + X2^3", 2))
        assert set(comps) == {2, 3}
        assert comps[2] == pp("X1^2", 2)
        assert comps[3] == pp("X2^3", 2)

    def test_homogeneous_components_zero(self):
        assert homogeneous_components(Poly.zero(2, QQ)) == {}

    def test_homogeneous_components_reassemble(self):
        f = pp("X1+X2", 2).pow(2)
        comps = homogeneous_components(f)
        assert list(comps) == [2]
        assert comps[2] == pp("X1^2 + 2*X1*X2 + X2^2", 2)

    def test_partial_derivative(self):
        assert partial_derivative(pp("X1^3", 1), 0) == pp("3*X1^2", 1)
        assert partial_derivative(pp("X1^2*X2^3", 2), 1) == pp("3*X1^2*X2^2", 2)

    def test_partial_derivative_char_p(self):
        assert partial_derivative(pp("X1^3", 1, GF3), 0).is_zero()

    def test_linear_change_identity(self):
        f = pp("X1^2*X2 + X2^3", 2)
        ident = LinearChange(QQ, identity(QQ, 2))
        assert apply_linear_change(ident, f) == f

    def test_linear_change_diagonal(self):
        change = LinearChange(QQ, [[2, 0], [0, 1]])
        assert apply_linear_change(change, pp("X1*X2", 2)) == pp("2*X1*X2", 2)

    def test_linear_change_swap(self):
        change = LinearChange(QQ, [[0, 1], [1, 0]])
        assert apply_linear_change(change, pp("X1^2", 2)) == pp("X2^2", 2)

    def test_linear_change_rejects_singular(self):
        with pytest.raises(NotInvertible):
            LinearChange(QQ, [[1, 2], [2, 4]])
        with pytest.raises(NotInvertible):
            LinearChange(GF3, [[1, 2], [2, 1]])
        with pytest.raises(NotInvertible):
            LinearChange(QQ, [[1, 0, 0], [0, 1, 0]])

    def test_linear_change_rejects_ragged_rows(self):
        for rows in ([[1, 0], [0]], [[1], [0, 1]], [[1, 0], [0, 1, 0]]):
            with pytest.raises(AmbientMismatch):
                LinearChange(QQ, rows)

    def test_linear_change_rejects_bad_scalar(self):
        for field, bad in ((QQ, "x"), (QQ, True), (QQ, 0.5), (GF3, "1/3"), (GF3, None)):
            with pytest.raises(BadScalar):
                LinearChange(field, [[1, 0], [0, bad]])

    def test_linear_change_degree_and_linearity(self):
        rng = random.Random(3)
        change = LinearChange(QQ, [[1, 2], [1, 3]])
        for _ in range(20):
            f = random_poly(rng, 2, QQ, 3)
            g = random_poly(rng, 2, QQ, 3)
            left = apply_linear_change(change, f.add(g))
            right = apply_linear_change(change, f).add(apply_linear_change(change, g))
            assert left == right
            prod = apply_linear_change(change, f.mul(g))
            assert prod == apply_linear_change(change, f).mul(apply_linear_change(change, g))
            if not f.is_zero():
                assert apply_linear_change(change, f).degree() == f.degree()

    def test_linear_change_right_action(self):
        rng = random.Random(5)
        mf = [[1, 1], [0, 1]]
        mg = [[2, 0], [1, 1]]
        composed = LinearChange(QQ, matmul(QQ, mg, mf))
        cf, cg = LinearChange(QQ, mf), LinearChange(QQ, mg)
        for _ in range(10):
            f = random_poly(rng, 2, QQ, 3)
            assert apply_linear_change(composed, f) == \
                apply_linear_change(cg, apply_linear_change(cf, f))

    def test_truncate(self):
        ring = TruncatedRing(1, 3)
        assert ring.truncate(pp("X1^3", 1)) == {}
        vec = ring.truncate(pp("X1 + X1^2", 1))
        assert vec == {1: Fraction(1), 2: Fraction(1)}
        assert ring.poly_from_vector(vec, QQ) == pp("X1 + X1^2", 1)
        ring2 = TruncatedRing(2, 3)
        assert ring2.truncate(pp("X1+X2", 2).pow(3)) == {}

    def test_truncated_ring_dimension(self):
        assert TruncatedRing(2, 3).dim == 6
        assert TruncatedRing(3, 4).dim == 20
        assert TruncatedRing(4, 18).dim == 5985

    def test_truncated_ring_monomials_match_filtered_enumeration(self):
        # reference: filter all (d+1)^n tuples of each degree, sort by grlex
        for n in range(1, 5):
            for l in range(1, 6):
                want = []
                for d in range(l):
                    want.extend(sorted(
                        (m for m in itertools.product(range(d + 1), repeat=n)
                         if sum(m) == d), key=grlex_key))
                ring = TruncatedRing(n, l)
                assert ring.monomials == want
                assert ring.index == {m: i for i, m in enumerate(want)}

    def test_degree_monomials_in_grlex_order(self):
        # reference: each multiset of d variables as an exponent tuple, sorted
        for n in range(1, 7):
            for d in range(11):
                want = sorted({tuple(c.count(i) for i in range(n))
                               for c in itertools.combinations_with_replacement(range(n), d)},
                              key=grlex_key)
                assert degree_monomials(n, d) == want
                assert len(want) == comb(n + d - 1, d)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("l", range(1, 6))
    def test_check_ring_counts_the_monomials(self, n, l):
        assert check_ring(n, l) == TruncatedRing(n, l).dim == comb(n + l - 1, n)

    def test_check_ring_refuses_a_huge_ring_at_once(self, monkeypatch):
        # C(2 10^6 - 1, 10^6) has about 600,000 digits; the count stops at
        # the bound instead, and names it as a lower bound
        def uncalled(*args):
            pytest.fail("the exact binomial was computed")

        monkeypatch.setattr(poly, "comb", uncalled, raising=False)
        start = time.perf_counter()
        with pytest.raises(SearchSpaceTooLarge, match="needs more than 100000 monomials"):
            check_ring(10**6, 10**6)
        assert time.perf_counter() - start < 1.0

    def test_truncated_ring_many_variables(self):
        start = time.perf_counter()
        ring = TruncatedRing(14, 3)
        assert time.perf_counter() - start < 1.0
        assert ring.dim == len(ring.monomials) == comb(16, 14)

    def test_monomial_gcd_factor_reference_example(self):
        f = pp("X1^2*X2^3*X3^4*X4^8 + X1^2*X2^3*X3^12", 4)
        mono, core = monomial_gcd_factor(f)
        assert mono == (2, 3, 4, 0)
        assert core == pp("X3^8 + X4^8", 4)
        assert Poly.monomial(4, QQ, mono).mul(core) == f

    def test_monomial_gcd_single_monomial(self):
        mono, core = monomial_gcd_factor(pp("X1^2", 2))
        assert mono == (2, 0)
        assert core == Poly.constant(2, QQ, 1)

    def test_monomial_gcd_coprime(self):
        mono, core = monomial_gcd_factor(pp("X1+X2", 2))
        assert mono == (0, 0)
        assert core == pp("X1+X2", 2)

    def test_monomial_gcd_zero_rejected(self):
        with pytest.raises(ZeroInput):
            monomial_gcd_factor(Poly.zero(2, QQ))

    def test_multiply_back_random(self):
        rng = random.Random(11)
        for _ in range(30):
            f = random_poly(rng, 3, QQ, 5)
            if f.is_zero():
                continue
            mono, core = monomial_gcd_factor(f)
            assert Poly.monomial(3, QQ, mono).mul(core) == f
            _, core2 = monomial_gcd_factor(core)
            assert core2 == core

    def test_s_index(self):
        assert s_index(pp("X3^8 + X4^8", 4)) == 3
        assert s_index(pp("X1 + X2", 2)) == 1
        assert s_index(pp("X2^2 + X2*X3", 3)) == 2

    def test_s_index_rejects_monomial_and_constant(self):
        with pytest.raises(NotSHomogeneous):
            s_index(pp("X1^2", 2))
        with pytest.raises(NotSHomogeneous):
            s_index(Poly.constant(2, QQ, 3))

    def test_s_index_inhomogeneous_is_none(self):
        assert s_index(pp("X1^2 + X2^3", 2)) is None

    def test_homogeneity_scaling(self):
        comps = homogeneous_components(pp("X1^2 + X1*X2 + X2^3 + X1", 2))
        for d, part in comps.items():
            for point in ([2, 3], [1, -1], [5, 7]):
                scaled = part.evaluate([3 * x for x in point])
                assert scaled == (3 ** d) * part.evaluate(point)
