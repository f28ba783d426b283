import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from algcert import forms
from algcert.algebra import (DEFAULT_MAX_ENUM, LieSubalgebra, der_into, derivation_algebra,
                             jacobson_radical)
from algcert.errors import (CharTwo, NotDegreeTwo, NotGraded, NotHomogeneous,
                            NotStable, ZeroPolynomial)
from algcert.fields import GF, QQ
from algcert.linalg import Matrix, Subspace, invert, kernel, rref_rows
from algcert.poly import (LinearChange, Poly, apply_linear_change, degree_monomials,
                          partial_derivative)
from algcert.forms import (diagonalize, flag_search, im_phi_lie, isotropy,
                           macaulay_rank, nonsingularity, quadratic_from_poly,
                           restricted_action, sim_lie, stab_lie)
from algcert.presentation import (minimal_degree_subspace,
                                  presentation_from_ideal, quotient_algebra)
from conftest import pp

GF2, GF3, GF5, GF7 = GF(2), GF(3), GF(5), GF(7)


def build(n, l, texts, field=QQ):
    return presentation_from_ideal(n, l, [pp(t, n, field) for t in texts], field)


class TestQuadraticForm:
    def test_identity_gram(self):
        q = quadratic_from_poly(pp("X1^2+X2^2", 2))
        assert q.gram.rows == [[1, 0], [0, 1]]

    def test_hyperbolic_gram(self):
        q = quadratic_from_poly(pp("X1*X2", 2))
        assert q.gram.rows == [[0, Fraction(1, 2)], [Fraction(1, 2), 0]]

    def test_gf5_gram(self):
        q = quadratic_from_poly(pp("2*X1^2+3*X1*X2", 2, GF5))
        assert q.gram.rows == [[2, 4], [4, 0]]

    def test_char_two_rejected(self):
        with pytest.raises(CharTwo):
            quadratic_from_poly(pp("X1^2", 1, GF2))

    def test_wrong_degree_rejected(self):
        with pytest.raises(NotDegreeTwo):
            quadratic_from_poly(pp("X1^3", 1))

    def test_gram_evaluates_like_poly(self):
        f = pp("X1^2 + 4*X1*X2 - 3*X2^2 + X2*X3", 3)
        q = quadratic_from_poly(f)
        for v in ([1, 2, 3], [0, 1, -1], [5, -2, 7]):
            assert q.evaluate(v) == f.evaluate(v)


class TestDiagonalize:
    def test_hyperbolic(self):
        q = quadratic_from_poly(pp("X1*X2", 2))
        p, diag = diagonalize(q)
        assert diag[0] > 0 and diag[1] < 0
        self._check_congruence(q, p, diag)

    def test_identity_fixed(self):
        q = quadratic_from_poly(pp("X1^2+X2^2", 2))
        p, diag = diagonalize(q)
        assert diag == [1, 1]

    def test_degenerate_rank_one(self):
        q = quadratic_from_poly(pp("X1^2", 2))
        p, diag = diagonalize(q)
        assert diag == [1, 0]

    def _check_congruence(self, q, p, diag):
        n = q.n
        got = p.transpose().mul(q.gram).mul(p)
        want = [[diag[i] if i == j else Fraction(0) for j in range(n)]
                for i in range(n)]
        assert got.rows == want


class TestIsotropy:
    def test_definite_certified(self):
        ev = isotropy(quadratic_from_poly(pp("X1^2+X2^2", 2)))
        assert ev.verdict == "ANISOTROPIC_CERTIFIED"
        assert ev.method == "definiteness"

    def test_gf5_witness(self):
        ev = isotropy(quadratic_from_poly(pp("X1^2+X2^2", 2, GF5)))
        assert ev.verdict == "ISOTROPIC_WITNESS"
        assert ev.witness == [1, 2]

    def test_bounded_search_unknown(self):
        ev = isotropy(quadratic_from_poly(pp("X1^2 - 2*X2^2", 2)))
        assert ev.verdict == "UNKNOWN"
        assert ev.method == "bounded_search"

    def test_bounded_search_witness(self):
        ev = isotropy(quadratic_from_poly(pp("X1^2 - 4*X2^2", 2)))
        assert ev.verdict == "ISOTROPIC_WITNESS"
        assert quadratic_from_poly(pp("X1^2 - 4*X2^2", 2)).evaluate(ev.witness) == 0

    def test_degenerate_witness(self):
        ev = isotropy(quadratic_from_poly(pp("X1^2", 2)))
        assert ev.verdict == "ISOTROPIC_WITNESS"
        assert ev.witness == [0, 1]

    def test_ternary_gf3_chevalley_warning(self):
        # nondegenerate forms in >= 3 variables over GF(p) are isotropic
        for text in ("X1^2+X2^2+X3^2", "X1^2+2*X2^2+X3^2", "X1^2-X2^2+2*X3^2"):
            ev = isotropy(quadratic_from_poly(pp(text, 3, GF5)))
            assert ev.verdict == "ISOTROPIC_WITNESS"


class TestNonsingularity:
    def test_fermat_cubic_certified(self):
        assert nonsingularity(pp("X1^3+X2^3", 2)).verdict == "NONSINGULAR_CERTIFIED"

    def test_resultant_path_agrees_on_fermat_cubic(self):
        f = pp("X1^3+X2^3", 2)
        rank, size = macaulay_rank([partial_derivative(f, 0), partial_derivative(f, 1)], 2)
        assert rank == size

    def test_coordinate_axis_witness(self):
        ev = nonsingularity(pp("X1^2*X2", 2))
        assert ev.verdict == "SINGULAR_WITNESS"
        assert ev.witness == [0, 1]

    @pytest.mark.parametrize("text,n,field,expect", [
        ("X1^3+X2^3", 2, QQ, "NONSINGULAR_CERTIFIED"),
        ("X1^3+X2^3+X3^3", 3, QQ, "NONSINGULAR_CERTIFIED"),
        ("X1^4+X2^4", 2, GF3, "NONSINGULAR_CERTIFIED"),
        ("X1^3+X2^3", 2, GF3, "SINGULAR_WITNESS"),   # char divides the degree
        ("X1^3", 2, QQ, "SINGULAR_WITNESS"),          # missing variable
    ])
    def test_diagonal_rule(self, text, n, field, expect):
        assert nonsingularity(pp(text, n, field)).verdict == expect

    def test_binary_resultant_zero_with_witness(self):
        ev = nonsingularity(pp("X1^2*X2^2", 2))
        assert ev.verdict == "SINGULAR_WITNESS"
        parts = [partial_derivative(pp("X1^2*X2^2", 2), i) for i in range(2)]
        assert all(p.evaluate(ev.witness) == 0 for p in parts)

    def test_cubic_family_good_primes(self):
        # lambda = 2: the reduction at 7 is singular (2^3 = 1 mod 7), the
        # other default primes are fine
        f = pp("X1^3+X2^3+X3^3 - 6*X1*X2*X3", 3)
        ev = nonsingularity(f, primes=(5, 11, 13))
        assert ev.verdict == "PROBABLY_NONSINGULAR"
        assert ev.primes_used == [5, 11, 13]
        ev_bad = nonsingularity(f, primes=(5, 7, 11, 13), height_bound=3)
        assert ev_bad.verdict == "UNKNOWN"

    def test_rational_singular_point_found(self):
        # (X1+X2+X3)^3 is singular along a rational plane
        f = pp("X1+X2+X3", 3).pow(3)
        ev = nonsingularity(f)
        assert ev.verdict == "SINGULAR_WITNESS"
        parts = [partial_derivative(f, i) for i in range(3)]
        assert all(p.evaluate(ev.witness) == 0 for p in parts)

    def test_gfp_scan(self):
        ev = nonsingularity(pp("X1^2*X2 + X2^2*X3", 3, GF3))
        assert ev.verdict in ("SINGULAR_WITNESS", "PROBABLY_NONSINGULAR")
        assert ev.primes_used == [3]

    def test_inhomogeneous_rejected(self):
        with pytest.raises(NotHomogeneous):
            nonsingularity(pp("X1^2 + X1", 2))


def _sylvester_rank(fx, fy, degree):
    """The Sylvester matrix of two binary forms, built as in the textbook."""
    fld = fx.field
    rows = []
    for g in (fx, fy):
        coeffs = [g.coefficient((i, degree - i)) for i in range(degree + 1)]
        for shift in range(degree):
            row = [fld.zero] * (2 * degree)
            row[shift:shift + degree + 1] = coeffs
            rows.append(row)
    return len(rref_rows(rows, 2 * degree, fld)[1]), 2 * degree


def _random_form(rng, n, d, field, kind):
    """A degree-d form in n variables: ``dense`` or ``sparse`` random
    coefficients, or a line times a random form of degree d - 1, which is
    singular over the algebraic closure."""
    monos = degree_monomials(n, d)
    if kind == "line":
        line = Poly(n, field, {m: rng.randint(-2, 2) for m in degree_monomials(n, 1)})
        rest = _random_form(rng, n, d - 1, field, "dense")
        return line.mul(rest)
    spread = 3 if kind == "dense" else 1
    return Poly(n, field, {m: rng.randint(-spread, spread) for m in monos})


def _scan_only(monkeypatch, f, **kw):
    with monkeypatch.context() as m:
        m.setattr(forms, "_no_common_zero", lambda parts, d, points: False)
        return nonsingularity(f, **kw)


def _gfp_common_zeros(f):
    parts = [partial_derivative(f, i) for i in range(f.n_vars)]
    return [v for v in itertools.product(range(f.field.p), repeat=f.n_vars)
            if any(v) and all(p.evaluate(list(v)) == 0 for p in parts)]


def test_macaulay_rank_is_sylvester_for_binary_forms():
    rng = random.Random(7)
    for field in (QQ, GF5, GF7):
        for degree in (1, 2, 3, 4):
            for _ in range(10):
                fx = _random_form(rng, 2, degree, field, "sparse")
                fy = _random_form(rng, 2, degree, field, "sparse")
                if fx.is_zero() or fy.is_zero():
                    continue
                want = _sylvester_rank(fx, fy, degree)
                assert macaulay_rank([fx, fy], degree) == want


def test_macaulay_shortcut_changes_no_evidence(monkeypatch):
    # forms whose partials have a full Macaulay rank skip scans; the
    # evidence must be what the scans alone give, field by field
    rng = random.Random(11)
    cases = [(pp("X1+X2+X3", 3).pow(3), {}),
             (pp("X1^3+X2^3+X3^3-6*X1*X2*X3", 3), {}),        # singular mod 7
             (pp("X1^3+X2^3+X3^3+X1*X2*X3", 3), {})]          # Hesse, nonsingular
    for field in (GF5, GF7):
        cases += [(_random_form(rng, 3, 3, field, kind), {})
                  for kind in ("dense", "sparse", "line") for _ in range(8)]
    cases += [(_random_form(rng, 3, 3, QQ, kind), {})
              for kind in ("dense", "sparse", "line") for _ in range(3)]
    cases += [(_random_form(rng, 4, 3, QQ, kind), {"primes": (5, 7, 11)})
              for kind in ("dense", "line")]
    # ranked where a guard on the scan's points alone scanned: p^n points
    # against 80 x 56 and 18 x 15 matrices
    ranked = [pp(text, 4, field) for field in (GF5, GF7)
              for text in ("X1^3+X1^2*X2+X2^2*X3+X2*X4^2+X3^3+X4^3",
                           "X1^3-X1^2*X2+X2^2*X3+X2*X4^2-X3^3-X4^3")]
    ranked.append(pp("X1^3+X2^3+X3^3+X1*X2*X3", 3, GF5))
    cases += [(f, {}) for f in ranked]
    fired = []
    real = forms._no_common_zero

    def counted(parts, d, points):
        fired.append(real(parts, d, points))
        return fired[-1]

    monkeypatch.setattr(forms, "_no_common_zero", counted)
    for f, kw in cases:
        if f.is_zero():
            continue
        kw = {"height_bound": 4, **kw}
        got = nonsingularity(f, **kw)
        assert got == _scan_only(monkeypatch, f, **kw), str(f)
        if f.field.characteristic:
            singular = got.verdict == "SINGULAR_WITNESS"
            assert singular == bool(_gfp_common_zeros(f)), str(f)
        if any(f is g for g in ranked):
            assert fired[-1], str(f)
    assert any(fired) and not all(fired)


def test_full_macaulay_rank_leaves_no_gfp_point():
    rng = random.Random(13)
    full = short = 0
    for field in (GF5, GF7):
        for kind in ("dense", "sparse", "line"):
            for _ in range(15):
                f = _random_form(rng, 3, 3, field, kind)
                if f.is_zero():
                    continue
                rank, size = macaulay_rank([partial_derivative(f, i) for i in range(3)], 2)
                if rank == size:
                    full += 1
                    assert _gfp_common_zeros(f) == [], str(f)
                else:
                    short += 1
    assert full and short


def test_height_shells_follow_the_filtered_cube():
    # each shell max |x_i| = r once, in the order of the filtered cube
    for n in range(1, 5):
        for r in range(1, 5):
            want = [v for v in itertools.product(range(-r, r + 1), repeat=n)
                    if max(map(abs, v)) == r]
            assert list(forms._shell(n, r)) == want
        for h in range(1, 5):
            total = sum(1 for r in range(1, h + 1) for _ in forms._shell(n, r))
            assert total == (2 * h + 1) ** n - 1


@pytest.mark.parametrize("text,n,kw,built", [
    # d = 17: the matrix would be 69,184 x 41,664, more than any scan's work
    ("X1^2*X2^3*X3^4*X4^8 + X1^2*X2^3*X3^12", 4, {}, 0),
    # 18 x 15, built in place of the scans mod 5, 7, 11, 13 and of the height search
    ("X1^3+X2^3+X3^3+X1*X2*X3", 3, {"height_bound": 4}, 5),
])
def test_macaulay_matrix_never_outgrows_the_scan(monkeypatch, text, n, kw, built):
    f = pp(text, n)
    scans, work, shapes = [], [], []
    real_guard, real_rank = forms._no_common_zero, forms.row_rank

    def guard(parts, d, points):
        scans.append(points)
        work.append(points * sum(len(g.terms) for g in parts))
        return real_guard(parts, d, points)

    def rank(rows, field):
        ncols = comb(n * (f.degree() - 1), n - 1)      # the monomials of degree n(d-2)+1
        kept = []
        for row in rows:       # stop before a matrix larger than the scan's work is built
            kept.append(row)
            assert len(kept) * ncols <= work[-1]
        shapes.append((len(kept), ncols))
        return real_rank(kept, field)

    monkeypatch.setattr(forms, "_no_common_zero", guard)
    monkeypatch.setattr(forms, "row_rank", rank)
    got = nonsingularity(f, **kw)
    height = forms._capped_height(kw.get("height_bound", forms.DEFAULT_HEIGHT_BOUND),
                                  n, DEFAULT_MAX_ENUM)
    real_scans = {p**n for p in forms.DEFAULT_PRIMES} | {(2 * height + 1) ** n}
    assert set(scans) <= real_scans
    assert len(shapes) == built
    assert got == _scan_only(monkeypatch, f, **kw)


class TestStabSim:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sum_of_squares_dims(self, n):
        f = pp("+".join(f"X{i + 1}^2" for i in range(n)), n)
        assert stab_lie(f).dim == n * (n - 1) // 2
        assert sim_lie(f).dim == n * (n - 1) // 2 + 1

    def test_hyperbolic_stabilizer(self):
        st = stab_lie(pp("X1*X2", 2))
        assert st.dim == 1
        assert st.space.contains([1, 0, 0, -1])

    def test_fermat_cubic_finite(self):
        assert stab_lie(pp("X1^3+X2^3", 2)).dim == 0

    def test_euler_identity(self):
        # span{I} acts on W = span{f} as deg f times the identity
        for text, n in (("X1^2+X2^2", 2), ("X1^3+X2^3", 2), ("X1^2*X2^2+X1*X2^3", 2)):
            f = pp(text, n)
            eye = Matrix.identity(QQ, n)
            w = minimal_degree_subspace(build(n, f.degree() + 1, [text]))
            scalars = LieSubalgebra(QQ, n, Subspace.from_vectors(QQ, n * n, [eye.flatten()]))
            assert restricted_action(scalars, w) == [Matrix(QQ, [[f.degree()]])]
            assert sim_lie(f).space.contains(eye.flatten())

    def test_bracket_closed_and_nested(self):
        for text in ("X1^2+X2^2+X3^2", "X1*X2", "X1^3+X2^3"):
            n = 3 if "X3" in text else 2
            st, si = stab_lie(pp(text, n)), sim_lie(pp(text, n))
            assert st.is_bracket_closed()
            assert si.is_bracket_closed()
            assert si.space.contains_space(st.space)
            assert si.dim - st.dim <= 1

    def test_conjugation_covariance(self):
        # for g(X) = f(XA): Stab(g) = A Stab(f) A^{-1}
        f = pp("X1^2+X2^2", 2)
        m = Matrix(QQ, [[1, 2], [0, 1]])
        g = apply_linear_change(LinearChange(m), f)
        minv = invert(m)
        conj = []
        for b in stab_lie(f).basis_matrices():
            conj.append(m.mul(b).mul(minv).flatten())
        assert stab_lie(g).space == Subspace.from_vectors(QQ, 4, conj)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            stab_lie(Poly.zero(2, QQ))


class TestImPhi:
    def test_free_truncated_full_gl(self):
        assert im_phi_lie(build(2, 3, [])).dim == 4
        assert im_phi_lie(build(3, 2, [])).dim == 9

    def test_quadric_matches_similarity(self):
        p = build(2, 3, ["X1^2+X2^2"])
        assert im_phi_lie(p).space == sim_lie(pp("X1^2+X2^2", 2)).space

    def test_monomial_contains_diagonals(self):
        lie = im_phi_lie(build(2, 3, ["X1*X2"]))
        assert lie.dim == 2
        assert lie.space.contains([1, 0, 0, 0])
        assert lie.space.contains([0, 0, 0, 1])

    def test_not_graded_rejected(self):
        with pytest.raises(NotGraded):
            im_phi_lie(build(2, 4, ["X1^2+X2^3"]))

    @pytest.mark.parametrize("n,l,texts", [
        (2, 3, ["X1^2+X2^2"]),
        (2, 3, ["X1*X2"]),
        (2, 4, ["X1^3+X2^3"]),
        (3, 3, ["X1^2+X2^2+X3^2"]),
        (2, 4, ["X1^2"]),
    ])
    def test_single_generator_equality(self, n, l, texts):
        p = build(n, l, texts)
        f = pp(texts[0], n)
        assert im_phi_lie(p).space == sim_lie(f).space

    @pytest.mark.parametrize("n,l,texts", [
        (2, 3, ["X1^2+X2^2"]),
        (2, 3, ["X1*X2"]),
        (2, 3, []),
        (2, 3, ["X1^2", "X2^2"]),
        (3, 2, []),
    ])
    def test_derivation_dimension_identity(self, n, l, texts):
        p = build(n, l, texts)
        a = quotient_algebra(p)
        rad = jacobson_radical(a)
        dim_der = derivation_algebra(a).dim
        dim_ker = der_into(a, rad, rad.square).dim
        assert dim_der == im_phi_lie(p).dim + dim_ker


class TestFlagSearch:
    def test_rotation_no_rational_flag(self):
        res = flag_search([Matrix(QQ, [[0, -1], [1, 0]])], QQ)
        assert res.status == "NO_RATIONAL_FLAG"

    def test_rotation_splits_over_gf5(self):
        # t^2 + 1 factors mod 5, so the flag exists there
        res = flag_search([Matrix(GF5, [[0, 4], [1, 0]])], GF5)
        assert res.status == "FULL_FLAG"

    def test_upper_triangular_flag(self):
        ops = [Matrix(QQ, [[1, 0], [0, 0]]), Matrix(QQ, [[0, 1], [0, 0]]),
               Matrix(QQ, [[0, 0], [0, 1]])]
        res = flag_search(ops, QQ)
        assert res.status == "FULL_FLAG"
        assert res.flag[0] == [1, 0]

    def test_dim_one_trivial(self):
        assert flag_search([Matrix(QQ, [[7]])], QQ).status == "FULL_FLAG"

    def test_gl2_not_solvable(self):
        ops = [Matrix(QQ, [[1, 0], [0, 0]]), Matrix(QQ, [[0, 1], [0, 0]]),
               Matrix(QQ, [[0, 0], [1, 0]]), Matrix(QQ, [[0, 0], [0, 1]])]
        assert flag_search(ops, QQ).status == "NOT_SOLVABLE"

    def test_no_operators_full_flag(self):
        res = flag_search([], QQ, dim_w=3)
        assert res.status == "FULL_FLAG" and len(res.flag) == 3


class TestWStability:
    def test_restricted_action_stable(self):
        p = build(2, 3, ["X1^2", "X2^2"])
        w = minimal_degree_subspace(p)
        lie = im_phi_lie(p)
        ops = restricted_action(lie, w)
        assert len(ops) == lie.dim
        for op in ops:
            assert op.nrows == w.dim

    def test_unstable_rejected(self):
        # a made-up operator outside im(Phi) moves W out of itself
        p = build(2, 4, ["X1^2"])
        w = minimal_degree_subspace(p)
        from algcert.algebra import LieSubalgebra
        rogue = LieSubalgebra(QQ, 2, Subspace.from_vectors(QQ, 4, [[0, 0, 1, 0]]))
        with pytest.raises(NotStable):
            restricted_action(rogue, w)

    def test_graded_w_always_stable(self):
        for texts, n, l in ((["X1^2+X2^2"], 2, 3), (["X1^2", "X2^2"], 2, 3),
                            (["X1*X2", "X1^3"], 2, 4)):
            p = build(n, l, texts)
            w = minimal_degree_subspace(p)
            restricted_action(im_phi_lie(p), w)  # must not raise


# -- delta_M against a dense reference ------------------------------------------------

def _ref_delta_polys(f):
    """q[i][j] = X_i df/dX_j, each a product of polynomials."""
    n = f.n_vars
    parts = [partial_derivative(f, j) for j in range(n)]
    xs = [Poly.monomial(n, f.field, [int(t == i) for t in range(n)]) for i in range(n)]
    return [[xs[i].mul(parts[j]) for j in range(n)] for i in range(n)]


def _ref_delta_action(m, f):
    """delta_M(f) = sum_ij M_ij X_i df/dX_j for a dense matrix M."""
    q = _ref_delta_polys(f)
    out = Poly.zero(f.n_vars, f.field)
    for i, j in itertools.product(range(f.n_vars), repeat=2):
        out = out.add(q[i][j].scale(m.rows[i][j]))
    return out


def _ref_lie(f, span):
    """{M : delta_M(f) in the span of the polynomials in span}: the kernel on
    n^2 + |span| unknowns of dense rows over every monomial, projected to M."""
    fld, n = f.field, f.n_vars
    q = _ref_delta_polys(f)
    monos = sorted({m for row in q for p in row for m in p.terms}
                   | {m for g in span for m in g.terms})
    rows = [[q[i][j].coefficient(m) for i in range(n) for j in range(n)]
            + [fld.neg(g.coefficient(m)) for g in span] for m in monos]
    sol = kernel(Matrix(fld, rows)) if rows else Subspace.full(fld, n * n + len(span))
    return Subspace.from_vectors(fld, n * n, [v[:n * n] for v in sol.basis])


def _ref_im_phi(pres):
    """The meet over the ideal basis rows h of {M : delta_M(h) in the ideal};
    delta_M(h) has h's degree, below l, so no truncation is needed."""
    fld, n = pres.field, pres.n_vars
    rows = [pres.row_poly(dict(row)) for row in pres.ideal._terms]
    out = Subspace.full(fld, n * n)
    for h in rows:
        out = out.intersect(_ref_lie(h, rows))
    return out


def _ref_restricted_action(lie, w):
    """The operators of delta_M on W, M read densely off the basis of lie.space."""
    fld, n = lie.field, lie.n
    ops = []
    for v in lie.space.basis:
        m = Matrix(fld, [v[i * n:(i + 1) * n] for i in range(n)])
        cols = []
        for wp in w.polys:
            img = _ref_delta_action(m, wp)
            vec = [img.coefficient(mono) for mono in w.monomials]
            if not w.space.contains(vec):
                raise NotStable("reference: W is not stable")
            cols.append([vec[p] for p in w.space.pivots])
        ops.append(Matrix.from_columns(fld, cols))
    return ops


def _action_or_error(lie, w, action):
    try:
        return action(lie, w)
    except NotStable:
        return NotStable


@pytest.mark.filterwarnings("ignore::algcert.errors.LoweyMismatch")
@pytest.mark.parametrize("field", [QQ, GF2, GF3, GF5, GF7], ids=repr)
def test_delta_kernels_match_dense_reference(field):
    # seeded random forms, among them char | deg ones over GF(p): there the
    # Euler identity puts I in stab, and sim need not be stab + scalars
    rng = random.Random(31 + field.characteristic)
    char_divides = 0
    for _ in range(40):
        n, d = rng.randint(1, 4), rng.randint(2, 5)
        monos = degree_monomials(n, d)
        f = Poly(n, field, {m: rng.choice([-3, -2, -1, 1, 2, 3])
                            for m in rng.sample(monos, min(len(monos), rng.randint(1, 5)))})
        if f.is_zero():
            continue
        stab, sim = stab_lie(f), sim_lie(f)
        assert stab.space == _ref_lie(f, [])
        assert sim.space == _ref_lie(f, [f])
        eye = Matrix.identity(field, n).flatten()
        if field.characteristic and d % field.characteristic == 0:
            char_divides += 1
            assert stab.space.contains(eye)
        else:
            assert not stab.space.contains(eye) and sim.dim == stab.dim + 1
        gens = [f, Poly(n, field, {m: rng.randint(-2, 2) for m in rng.sample(monos, 1)})]
        pres = presentation_from_ideal(n, d + rng.randint(1, 2), gens[:rng.randint(1, 2)], field)
        im = im_phi_lie(pres)
        assert im.space == _ref_im_phi(pres)
        w = minimal_degree_subspace(pres)
        for lie in (im, stab):
            assert (_action_or_error(lie, w, restricted_action)
                    == _action_or_error(lie, w, _ref_restricted_action))
    assert char_divides > 0 or field.characteristic not in (2, 3, 5)
