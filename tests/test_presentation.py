import itertools
import random
import time
import warnings
from math import comb

import pytest

from algcert.algebra import StructureAlgebra, jacobson_radical
from algcert.certify import certify
from algcert.constructions import (componentwise_algebra,
                                   univariate_quotient_algebra)
from algcert.errors import (LoweyMismatch, NotAdmissible, NotLocal, NotSplit,
                            NotCommutative)
from algcert.fields import GF, QQ
from algcert.forms import im_phi_lie
from algcert.linalg import Coordinates, Subspace, combine, invert
from algcert.poly import LinearChange, Poly, TruncatedRing, apply_linear_change
from algcert.presentation import (_actual_lowey, _saturate,
                                  is_graded_presentation, is_monomial_ideal,
                                  minimal_degree_subspace, normal_form,
                                  presentation_from_algebra,
                                  presentation_from_ideal, quotient_algebra)
from conftest import dense_table, identity, pp, random_poly

GF2, GF3, GF5 = GF(2), GF(3), GF(5)


def build(n, l, texts, field=QQ):
    return presentation_from_ideal(n, l, [pp(t, n, field) for t in texts], field)


def bare(pres):
    """T/I on its standard monomials, with no known radical attached."""
    a = quotient_algebra(pres)
    return StructureAlgebra.from_table(a.field, dense_table(a), a.one)


class TestFromIdeal:
    def test_pure_power(self):
        p = build(2, 3, [])
        assert p.ideal.dim == 0
        assert is_monomial_ideal(p)
        assert normal_form(p).generators == []

    def test_quadric_slice(self):
        p = build(2, 3, ["X1^2+X2^2"])
        # degree-2 slice is one-dimensional; X1*(X1^2+X2^2) etc. vanish at l=3
        assert p.ideal.dim == 1
        assert p.algebra_dim() == 5

    def test_generator_absorbed_warns(self):
        with pytest.warns(LoweyMismatch):
            p = build(1, 2, ["X1^2"])
        assert p.lowey == 2
        assert p.ideal.dim == 0

    def test_lowey_corrected_downwards(self):
        with pytest.warns(LoweyMismatch):
            p = build(1, 4, ["X1^2"])
        assert p.lowey == 2
        assert p.ideal.dim == 0

    def test_rejects_linear_part(self):
        with pytest.raises(NotAdmissible):
            build(2, 3, ["X1 + X1^2"])

    def test_rejects_small_lowey(self):
        with pytest.raises(NotAdmissible):
            presentation_from_ideal(1, 1, [], QQ)

    def test_ideal_closed_under_variables(self):
        p = build(2, 4, ["X1^2+X2^3"])
        for row in p.ideal._terms:
            for x in [(1, 0), (0, 1)]:
                assert p.ideal.contains(p.ring.times(row, x))


def _actual_lowey_reference(ring, field, ideal):
    # membership of every degree-m unit vector, degree by degree
    for m in range(2, ring.trunc_degree):
        units = [[field.one if q == p else field.zero for q in range(ring.dim)]
                 for p in ring.degree_slice(m)]
        if all(ideal.contains(v) for v in units):
            return m
    return ring.trunc_degree


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
def test_actual_lowey_matches_unit_vector_check(field):
    rng = random.Random(4242)
    lowered = kept = 0
    for _ in range(60):
        n, l = rng.randint(1, 3), rng.randint(2, 6)
        ring = TruncatedRing(n, l)
        monos = [m for m in ring.monomials if sum(m) >= 2]
        gens = []
        for _ in range(rng.randint(0, 4)):
            if monos and rng.random() < 0.5:    # monomials drive the Lowey length down
                g = Poly.monomial(n, field, rng.choice(monos))
            else:
                g = random_poly(rng, n, field, l)
                g = Poly(n, field, {m: c for m, c in g.terms.items() if sum(m) >= 2})
            if any(sum(m) < l for m in g.terms):
                gens.append(g)
        ideal = _saturate(ring, field, gens)
        want = _actual_lowey_reference(ring, field, ideal)
        assert _actual_lowey(ring, ideal) == want
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", LoweyMismatch)
            pres = presentation_from_ideal(n, l, gens, field)
        assert pres.lowey == want
        assert any(issubclass(w.category, LoweyMismatch) for w in caught) == (want < l)
        lowered += want < l
        kept += want == l
    assert lowered and kept


class TestFromAlgebra:
    def test_truncated_univariate(self):
        a = univariate_quotient_algebra(QQ, [0, 0, 0, 1])
        pres = presentation_from_algebra(a, jacobson_radical(a))
        assert pres.n_vars == 1 and pres.lowey == 3
        assert pres.ideal.dim == 0
        assert normal_form(pres).generators == []

    def test_recovers_relations(self):
        # basis 1, x, y, x^2 with xy = 0, y^2 = x^2, x^3 = 0
        p = build(2, 3, ["X1*X2", "X2^2 - X1^2"])
        a = bare(p)
        pres = presentation_from_algebra(a, jacobson_radical(a))
        assert pres.n_vars == 2 and pres.lowey == 3
        assert pres.ideal.dim == p.ideal.dim
        gens = {str(g) for g in normal_form(pres).generators}
        assert gens == {"X1*X2", "X1^2 - X2^2"}

    def test_round_trip_multiplicative(self):
        p = build(2, 3, ["X1^2+X2^2"])
        a = bare(p)
        rad = jacobson_radical(a)
        pres = presentation_from_algebra(a, rad)
        b = bare(pres)
        assert b.dim == a.dim
        assert jacobson_radical(b).lowey_length == rad.lowey_length
        # the evaluation map (monomials at the chosen J/J^2 lifts) is an
        # algebra isomorphism from b to a: check it multiplicatively
        lifts = rad.lifts
        # b's basis: the standard monomials, the ring indices at no pivot
        reps = [[QQ.one if t == j else QQ.zero for t in range(pres.ring.dim)]
                for j in range(pres.ring.dim) if j not in pres.ideal.pivots]

        def evaluate(t_vec):
            out = [QQ.zero] * a.dim
            for pos, c in enumerate(t_vec):
                if c == 0:
                    continue
                mono = pres.ring.monomials[pos]
                val = list(a.one)
                for i, e in enumerate(mono):
                    for _ in range(e):
                        val = a.multiply(val, lifts[i])
                out = [x + c * y for x, y in zip(out, val)]
            return out

        images = [evaluate(r) for r in reps]
        for i in range(b.dim):
            for j in range(b.dim):
                ei = [QQ.one if t == i else QQ.zero for t in range(b.dim)]
                ej = [QQ.one if t == j else QQ.zero for t in range(b.dim)]
                via_b = combine(QQ, zip(b.multiply(ei, ej), images), a.dim)
                via_a = a.multiply(images[i], images[j])
                assert via_b == via_a

    def test_not_local(self):
        a = componentwise_algebra(QQ, 2)
        with pytest.raises(NotLocal):
            presentation_from_algebra(a, jacobson_radical(a))

    def test_not_split(self):
        a = univariate_quotient_algebra(QQ, [1, 0, 1])  # Q(i)
        with pytest.raises(NotSplit):
            presentation_from_algebra(a, jacobson_radical(a))

    def test_not_commutative(self):
        from algcert.constructions import upper_triangular_algebra
        a = upper_triangular_algebra(QQ, 2)
        with pytest.raises(NotCommutative):
            presentation_from_algebra(a, jacobson_radical(a))


class TestNormalForm:
    def test_monomial_power(self):
        nf = normal_form(build(2, 3, []))
        assert nf.generators == []

    def test_absorbed_cubic(self):
        nf = normal_form(build(2, 4, ["X1^2", "X1^3+X2^3"]))
        assert [str(g) for g in nf.generators] == ["X1^2", "X2^3"]

    def test_single_quadric(self):
        nf = normal_form(build(2, 3, ["X1^2+X2^2"]))
        assert [str(g) for g in nf.generators] == ["X1^2 + X2^2"]

    def test_reconstruction_is_checked(self, rng):
        from conftest import random_poly
        for _ in range(8):
            g = random_poly(rng, 2, QQ, 3)
            g = Poly(2, QQ, {m: c for m, c in g.terms.items() if sum(m) >= 2})
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LoweyMismatch)
                p = presentation_from_ideal(2, 4, [g] if not g.is_zero() else [], QQ)
            nf = normal_form(p)
            rebuilt = presentation_from_ideal(p.n_vars, p.lowey, nf.generators, QQ)
            assert rebuilt.ideal == p.ideal


class TestMonomialDetection:
    def test_monomial_ideal(self):
        assert is_monomial_ideal(build(2, 4, ["X1*X2", "X1^3"]))

    def test_rational_quadric_not_monomial(self):
        assert not is_monomial_ideal(build(2, 3, ["X1^2+X2^2"]))

    def test_gf2_quadric_not_monomial_in_given_coordinates(self):
        assert not is_monomial_ideal(build(2, 3, ["X1^2+X2^2"], GF2))

    def test_normal_form_flag_agrees(self):
        for p in (build(2, 4, ["X1*X2", "X1^3"]),
                  build(2, 3, ["X1^2+X2^2"]),
                  build(2, 3, [])):
            assert all(g.is_monomial() for g in normal_form(p).generators) \
                == is_monomial_ideal(p)


def _star(pres):
    return normal_form(pres).property_star_r


class TestPropertyStar:
    def test_reference_generator(self):
        p = build(4, 18, ["X1^2*X2^3*X3^4*X4^8 + X1^2*X2^3*X3^12"])
        assert _star(p) == 3

    def test_plain_quadric(self):
        assert _star(build(2, 3, ["X1^2+X2^2"])) == 1

    def test_inhomogeneous_none(self):
        assert _star(build(2, 4, ["X1^2 + X2^3"])) is None

    def test_monomial_only_none(self):
        assert _star(build(2, 4, ["X1*X2"])) is None

    def test_mixed_generators(self):
        p = build(3, 4, ["X1^3", "X2^2 + X2*X3"])
        assert _star(p) == 2

    def test_diagonal_stabilization(self, rng):
        # forward direction: D(r) diagonals stabilize the ideal subspace
        cases = [
            build(4, 18, ["X1^2*X2^3*X3^4*X4^8 + X1^2*X2^3*X3^12"]),
            build(2, 3, ["X1^2+X2^2"]),
            build(3, 4, ["X1^3", "X2^2 + X2*X3"]),
        ]
        for p in cases:
            r = _star(p)
            assert r is not None
            for _ in range(5):
                diag = _random_d_matrix(rng, p.n_vars, r, p.field)
                change = LinearChange(p.field, diag)
                for row in p.ideal.basis:
                    image = apply_linear_change(change, p.row_poly(row))
                    assert p.contains_poly(image)

    def test_monomial_ideal_full_torus(self, rng):
        p = build(2, 4, ["X1*X2", "X1^3"])
        assert is_monomial_ideal(p)
        for _ in range(5):
            diag = _random_d_matrix(rng, 2, 2, QQ)
            change = LinearChange(QQ, diag)
            for row in p.ideal.basis:
                assert p.contains_poly(apply_linear_change(change, p.row_poly(row)))


def _random_d_matrix(rng, n, r, field):
    # diag(a_1..a_{r-1}, b, ..., b) with units a_i, b
    entries = []
    for i in range(n):
        if i < r - 1:
            entries.append(rng.choice([1, 2, 3, 5, -1, -2]))
        else:
            entries.append(None)
    shared = rng.choice([1, 2, 3, 7, -3])
    vals = [field.coerce(e if e is not None else shared) for e in entries]
    return [[vals[i] if i == j else field.zero for j in range(n)] for i in range(n)]


class TestMinimalDegreeSubspace:
    def test_filtration_projection(self):
        w = minimal_degree_subspace(build(2, 4, ["X1^2", "X1^3+X2^3"]))
        assert w.degree == 2 and w.dim == 1
        assert [str(q) for q in w.polys] == ["X1^2"]

    def test_single_generator(self):
        w = minimal_degree_subspace(build(2, 3, ["X1^2+X2^2"]))
        assert w.degree == 2 and w.dim == 1
        assert [str(q) for q in w.polys] == ["X1^2 + X2^2"]

    def test_two_dimensional(self):
        w = minimal_degree_subspace(build(2, 3, ["X1^2", "X2^2"]))
        assert w.degree == 2 and w.dim == 2

    def test_pure_power_slice(self):
        w = minimal_degree_subspace(build(2, 3, []))
        assert w.is_power_slice and w.degree == 3 and w.dim == 4

    def test_power_slice_matches_filtered_tuples(self):
        # reference: filter all (l+1)^n tuples for degree l, X1-power first
        for n in range(1, 5):
            for l in range(2, 6):
                want = sorted((m for m in itertools.product(range(l + 1), repeat=n)
                               if sum(m) == l), key=lambda m: tuple(-e for e in m))
                w = minimal_degree_subspace(build(n, l, []))
                assert w.monomials == want
                assert [q.terms for q in w.polys] == [{m: 1} for m in want]

    def test_power_slice_many_variables(self):
        start = time.perf_counter()
        cert = certify(build(14, 3, []))
        assert time.perf_counter() - start < 10.0
        assert cert.invariants["w_is_power_slice"]
        assert cert.invariants["dim_w"] == comb(16, 3)
        assert "RATIONAL" in cert.flags()


def _homogeneous_rows(pres):
    """Whether every canonical basis row of the ideal is homogeneous."""
    return all(pres.row_poly(r).is_homogeneous() for r in pres.ideal.basis)


class TestGraded:
    def test_homogeneous_generators(self):
        assert is_graded_presentation(normal_form(build(2, 3, ["X1^2+X2^2"])))
        assert is_graded_presentation(normal_form(build(2, 3, [])))

    def test_inhomogeneous(self):
        p = build(2, 4, ["X1^2+X2^3"])
        assert not is_graded_presentation(normal_form(p))
        assert not _homogeneous_rows(p)

    def test_subspace_criterion_agrees(self):
        for p in (build(2, 3, ["X1^2+X2^2"]), build(2, 4, ["X1^2+X2^3"]),
                  build(2, 4, ["X1^2", "X1^3+X2^3"])):
            assert is_graded_presentation(normal_form(p)) == _homogeneous_rows(p)


class TestQuotientAlgebra:
    def test_known_radical_matches_positive_span(self):
        p = build(2, 3, ["X1^2+X2^2"])
        a = quotient_algebra(p)
        assert a.known_radical is not None
        rad = jacobson_radical(a)
        assert rad.radical.dim == a.dim - 1
        assert rad.lowey_length == p.lowey

    def test_gf_quotient(self):
        p = build(2, 2, [], GF3)
        a = quotient_algebra(p)
        assert a.dim == 3
        assert jacobson_radical(a).radical.dim == 2

    @pytest.mark.parametrize("field", [QQ, GF2, GF3, GF(7)], ids=["QQ", "GF2", "GF3", "GF7"])
    def test_standard_monomials_match_reference(self, field):
        # reference basis vector k -> its normal form modulo I, read at the
        # standard monomials: a unital algebra isomorphism onto
        # quotient_algebra that carries known radical onto known radical
        rng = random.Random(1919)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LoweyMismatch)
            cases = [build(3, 2, [], field),                              # l = 2
                     build(2, 4, ["X1^2", "X1*X2^2"], field),             # monomial
                     build(2, 3, ["X1^2+X2^2"], field),                   # non-monomial
                     build(2, 4, ["X1^2", "X2^2"], field),                # Lowey 4 -> 3
                     build(2, 5, ["X1^3+X2^3", "X1^2*X2"], field)]
            for _ in range(6):
                n, l = rng.randint(1, 3), rng.randint(2, 5)
                g = random_poly(rng, n, field, l)
                g = Poly(n, field, {m: c for m, c in g.terms.items() if sum(m) >= 2})
                cases.append(presentation_from_ideal(n, l, [g] if g.terms else [], field))
        kinds = {(p.lowey == 2, is_monomial_ideal(p)) for p in cases}
        assert {(True, True), (False, True), (False, False)} <= kinds
        for pres in cases:
            coords, ref = _reference_quotient(pres)
            got = quotient_algebra(pres)
            free = [j for j in range(pres.ring.dim) if j not in pres.ideal.pivots]
            images = [[r[j] for j in free] for r in map(pres.ideal.reduce, coords.reps)]
            def phi(v):
                return combine(field, zip(v, images), got.dim)
            assert got.dim == ref.dim and invert(list(zip(*images)), field) is not None
            assert phi(ref.one) == got.one
            for i, x in enumerate(images):
                e_i = [field.one if t == i else field.zero for t in range(ref.dim)]
                for j, y in enumerate(images):
                    e_j = [field.one if t == j else field.zero for t in range(ref.dim)]
                    assert phi(ref.multiply(e_i, e_j)) == got.multiply(x, y)
            mapped = [phi(v) for v in ref.known_radical.basis]
            assert Subspace.from_vectors(field, got.dim, mapped) == got.known_radical


def _reference_quotient(pres):
    """T/I on canonical coset representatives, through a dense inverse and
    Poly products: (its coordinates, the algebra with its known radical)."""
    f, ring = pres.field, pres.ring
    coords = Coordinates.quotient(pres.ideal)

    def multiply(u, v):
        prod = ring.poly_from_vector(u, f).mul(ring.poly_from_vector(v, f))
        out = [f.zero] * ring.dim
        for j, c in ring.truncate(prod).items():
            out[j] = c
        return out

    units = identity(f, ring.dim)
    cells = {(i, j): list(enumerate(coords.project(multiply(a, b))))
             for i, a in enumerate(coords.reps) for j, b in enumerate(coords.reps)}
    known = Subspace.from_vectors(f, coords.dim, [coords.project(v) for v in units[1:]])
    return coords, StructureAlgebra(f, cells, coords.project(units[0]), known_radical=known)


def test_presentation_layer_reads_no_dense_ring_vector(monkeypatch):
    # the truncated ring has 5985 coordinates and the ideal one row: every
    # step reads the ideal's sparse rows, never a dense basis of the ring
    ring_dim = comb(4 + 18 - 1, 4)
    dense_view = Subspace.basis

    def guarded(space):
        if space.ambient_dim == ring_dim:
            raise AssertionError("dense basis of the truncated ring was read")
        return dense_view.fget(space)

    monkeypatch.setattr(Subspace, "basis", property(guarded))
    pres = build(4, 18, ["X1^2*X2^3*X3^4*X4^8 + X1^2*X2^3*X3^12"])
    assert pres.ring.dim == ring_dim and pres.ideal.pivots == [5603]
    gen = "X1^2*X2^3*X3^12 + X1^2*X2^3*X3^4*X4^8"
    nf = normal_form(pres)
    assert ([str(g) for g in nf.generators], nf.property_star_r) == ([gen], 3)
    assert not is_monomial_ideal(pres)
    w = minimal_degree_subspace(pres)
    assert (w.degree, w.dim, w.is_power_slice, len(w.monomials)) == (17, 1, False, 1140)
    assert [str(q) for q in w.polys] == [gen] and w.space.pivots == [758]
    # M_11, M_22 and M_33 + M_44 in gl_4, flattened row-major
    lie = im_phi_lie(pres)
    assert lie.space.basis == [[int(k == 0) for k in range(16)], [int(k == 5) for k in range(16)],
                               [int(k in (10, 15)) for k in range(16)]]
