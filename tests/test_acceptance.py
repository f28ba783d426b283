"""Acceptance suite: every criterion runs at its stated tolerance (exact,
since all arithmetic is exact) and prints one pass line on success."""

import random
import warnings

from algcert.algebra import der_into, derivation_algebra, jacobson_radical
from algcert.certify import certify, torus_shape_check
from algcert.constructions import (componentwise_algebra, direct_sum,
                                   truncated_polynomial_algebra,
                                   univariate_quotient_algebra)
from algcert.errors import LoweyMismatch
from algcert.fields import GF, QQ
from algcert.linalg import Matrix
from algcert.forms import (im_phi_lie, macaulay_rank, nonsingularity, sim_lie,
                           stab_lie)
from algcert.oracle import enumerate_automorphisms, induced_jj2_matrices
from algcert.poly import (LinearChange, Poly, apply_linear_change,
                          partial_derivative)
from algcert.presentation import (minimal_degree_subspace,
                                  presentation_from_ideal, property_star,
                                  quotient_algebra)
from conftest import pp

GF2, GF3, GF5 = GF(2), GF(3), GF(5)


def build(n, l, texts, field=QQ):
    return presentation_from_ideal(n, l, [pp(t, n, field) for t in texts], field)


def _report(number, message):
    print(f"ACCEPTANCE {number}: PASS - {message}")


def _random_admissible(rng, n, l):
    if l == 2:
        return []  # the only admissible ideal at l = 2 is <X>^2 itself
    texts = []
    for _ in range(rng.randint(0, 2)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(2, l - 1)
            mono = [0] * n
            for _ in range(deg):
                mono[rng.randrange(n)] += 1
            coeff = rng.choice([-3, -2, -1, 1, 2, 3])
            terms[tuple(mono)] = QQ.coerce(coeff)
        g = Poly(n, QQ, terms)
        if not g.is_zero():
            texts.append(g)
    return texts


def test_acceptance_1_radical_correctness():
    rng = random.Random(0xabc1)
    cases = 0
    while cases < 20:
        n = rng.choice([1, 2, 2, 3])
        l = rng.choice([2, 3, 3, 4]) if n < 3 else rng.choice([2, 3])
        gens = _random_admissible(rng, n, l)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LoweyMismatch)
            pres = presentation_from_ideal(n, l, gens, QQ)
        bare = quotient_algebra(pres, attach_radical=False)
        claimed = quotient_algebra(pres, attach_radical=True).known_radical
        dickson = jacobson_radical(bare)
        assert dickson.radical == claimed
        cases += 1
    _report(1, "Dickson radical equals the positive-degree monomial span on "
               "20 random presented algebras (exact subspace equality)")


def test_acceptance_2_derivation_dimension_law():
    for n, l in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]:
        a = truncated_polynomial_algebra(QQ, n, l)
        rad = jacobson_radical(a)
        # independent oracle: any linear assignment X_i -> J extends, so
        # dim Der = n * dim J with dim J = dim A - 1
        expected = n * (a.dim - 1)
        assert rad.radical.dim == a.dim - 1
        assert derivation_algebra(a).dim == expected
    _report(2, "dim Der(k[X1..Xn]/<X>^l) = n dim J for all five (n, l) pairs")


def test_acceptance_3_classical_stabilizer_dims():
    for n in range(2, 6):
        f = pp("+".join(f"X{i + 1}^2" for i in range(n)), n)
        assert stab_lie(f).dim == n * (n - 1) // 2
        assert sim_lie(f).dim == n * (n - 1) // 2 + 1
    _report(3, "stab/sim dimensions n(n-1)/2 and n(n-1)/2 + 1 for n = 2..5")


def test_acceptance_4_finite_field_oracle():
    expected = [
        (univariate_quotient_algebra(GF3, [0, 0, 0, 1]), 6),
        (univariate_quotient_algebra(GF2, [0, 0, 1]), 1),
        (truncated_polynomial_algebra(GF2, 2, 2), 6),
    ]
    for a, order in expected:
        rad = jacobson_radical(a)
        group = enumerate_automorphisms(a, rad)
        assert group.order == order
        act = induced_jj2_matrices(group, a, rad)
        assert act.image_order * act.kernel_count == group.order
    _report(4, "automorphism orders 6/1/6 with exact image x kernel "
               "factorization of each group order")


GRADED_PRESENTATIONS = [
    (2, 3, ["X1^2+X2^2"]),
    (2, 3, []),
    (2, 3, ["X1*X2"]),
    (2, 4, ["X1^2"]),
    (2, 4, ["X1^3+X2^3"]),
    (3, 2, []),
    (3, 3, ["X1^2+X2^2+X3^2"]),
    (2, 4, ["X1*X2", "X1^3"]),
    (3, 3, ["X1*X2", "X1*X3", "X2*X3"]),
    (2, 4, ["X1^2+X1*X2"]),
]


def test_acceptance_5_derivation_splits_along_phi():
    for n, l, texts in GRADED_PRESENTATIONS:
        pres = build(n, l, texts)
        a = quotient_algebra(pres)
        rad = jacobson_radical(a)
        dim_der = derivation_algebra(a).dim
        dim_im = im_phi_lie(pres).dim
        dim_ker = der_into(a, rad, rad.square).dim
        assert dim_der == dim_im + dim_ker, (n, l, texts)
    _report(5, "dim Der = dim im_phi_lie + dim ker_phi_lie on 10 graded "
               "presentations (exact)")


def test_acceptance_6_star_property_diagonal_stabilization():
    rng = random.Random(0xabc6)
    cases = [
        (build(4, 18, ["X1^2*X2^3*X3^4*X4^8 + X1^2*X2^3*X3^12"]), 3),
        (build(2, 3, ["X1^2+X2^2"]), 1),
        (build(3, 4, ["X1^3", "X2^2+X2*X3"]), 2),
        (build(3, 3, ["X2*X3+X3^2"]), 2),
    ]
    for pres, expect_r in cases:
        r = property_star(pres)
        assert r == expect_r
        for _ in range(5):
            entries = []
            for i in range(pres.n_vars):
                if i < r - 1:
                    entries.append(rng.choice([1, 2, 3, 5, -2]))
                else:
                    entries.append(None)
            shared = rng.choice([1, 2, 3, 7])
            diag = Matrix(QQ, [[(entries[i] if entries[i] is not None else shared)
                                if i == j else 0
                                for j in range(pres.n_vars)]
                               for i in range(pres.n_vars)])
            change = LinearChange(diag)
            for row in pres.ideal.basis:
                assert pres.contains_poly(
                    apply_linear_change(change, pres.row_poly(row)))
    _report(6, "property * holds with the expected r (3 for the reference "
               "generator) and D(r) diagonals stabilize each ideal exactly")


def test_acceptance_7_certificate_scenarios():
    # (a) J^2 = 0 in six variables
    cert_a = certify(truncated_polynomial_algebra(QQ, 6, 2))
    assert "R_TRIVIAL" in {v.flag for v in cert_a.verdict_for("R-J2")}
    # (b) anisotropic quadric over Q: R-trivial and not k-split coexist
    cert_b = certify(build(2, 3, ["X1^2+X2^2"]))
    assert "R_TRIVIAL" in {v.flag for v in cert_b.verdict_for("R-DIM5")}
    assert "NOT_K_SPLIT" in {v.flag for v in cert_b.verdict_for("R-QANIS")}
    # (c) the same algebra over GF(5): the isotropy witness suppresses R-QANIS
    cert_c = certify(build(2, 3, ["X1^2+X2^2"], GF5))
    assert "R-QANIS" not in cert_c.rules_fired()
    assert cert_c.invariants["quadratic_isotropy"]["witness"] == [1, 2]
    assert "R_TRIVIAL" in {v.flag for v in cert_c.verdict_for("R-DIM5")}
    # (d) torus shapes
    yes = torus_shape_check(direct_sum(componentwise_algebra(QQ, 1),
                                       univariate_quotient_algebra(QQ, [0, 0, 1])))
    assert yes.matches and yes.torus_rank == 1
    no = torus_shape_check(direct_sum(univariate_quotient_algebra(QQ, [0, 0, 0, 1]),
                                      componentwise_algebra(QQ, 1)))
    assert not no.matches
    triv = torus_shape_check(componentwise_algebra(QQ, 3))
    assert triv.matches and triv.torus_rank == 0
    _report(7, "certificate scenarios (a)-(d): R-J2, R-DIM5 + R-QANIS, "
               "GF(5) suppression with witness (1,2), torus shapes")


def test_acceptance_8_image_equals_similarity():
    cases = [
        (2, 3, "X1^2+X2^2"),
        (2, 3, "X1*X2"),
        (2, 4, "X1^3+X2^3"),
        (3, 3, "X1^2+X2^2+X3^2"),
        (2, 4, "X1^2"),
    ]
    for n, l, text in cases:
        pres = build(n, l, [text])
        assert im_phi_lie(pres).space == sim_lie(pp(text, n)).space, text
    _report(8, "im_phi_lie equals sim_lie(f) as subspaces on 5 "
               "single-generator graded presentations")


def test_acceptance_9_nonsingularity():
    fermat = pp("X1^3+X2^3", 2)
    assert nonsingularity(fermat).verdict == "NONSINGULAR_CERTIFIED"
    rank, size = macaulay_rank(
        [partial_derivative(fermat, 0), partial_derivative(fermat, 1)], 2)
    assert rank == size  # the n = 2 resultant path certifies it as well
    witness_case = nonsingularity(pp("X1^2*X2", 2))
    assert witness_case.verdict == "SINGULAR_WITNESS"
    assert witness_case.witness == [0, 1]
    diagonal_cases = [
        (pp("X1^3+X2^3", 2), True),
        (pp("2*X1^4+5*X2^4+X3^4", 3), True),
        (pp("X1^3", 2), False),                 # a_2 = 0
        (pp("X1^3+X2^3", 2, GF3), False),       # char divides the degree
        (pp("X1^4+X2^4", 2, GF3), True),
        (pp("X1^5+X2^5+X3^5", 3, GF5), False),  # char divides the degree
    ]
    for f, expect in diagonal_cases:
        got = nonsingularity(f).verdict == "NONSINGULAR_CERTIFIED"
        assert got == expect, str(f)
    _report(9, "X1^3+X2^3 certified (resultant path agrees), X1^2*X2 has a "
               "singular witness, diagonal rule fires exactly when all "
               "coefficients are nonzero and char does not divide d")


def test_acceptance_10_minimal_degree_subspace_extraction():
    pres = build(2, 4, ["X1^2", "X1^3+X2^3"])
    w = minimal_degree_subspace(pres)
    assert w.degree == 2
    assert w.dim == 1
    assert [str(q) for q in w.polys] == ["X1^2"]
    cert = certify(pres)
    assert cert.invariants["dim_w"] == 1
    assert cert.invariants["w_degree"] == 2
    # the R-W1 rule engages and evaluates its nonsingularity side-condition;
    # X1^2 in two variables is singular with witness (0, 1), so the RATIONAL
    # verdict is recorded as withheld (see the decisions ledger)
    evaluations = [n for n in cert.notes if n.rule == "R-W1"]
    assert len(evaluations) == 1
    ev = evaluations[0].evidence
    assert ev["nonsingularity"] == "SINGULAR_WITNESS"
    assert ev["witness"] == [0, 1]
    assert ev["degree_constraint_met"] is False
    _report(10, "W extraction gives d_min = 2, W = span{X1^2}, dim 1; R-W1 "
                "engaged with its nonsingularity side-condition evaluated "
                "(singular witness (0,1) recorded, verdict withheld)")
