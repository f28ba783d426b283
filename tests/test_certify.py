import os
import subprocess
import sys
from pathlib import Path

import pytest

import algcert
from algcert.algebra import jacobson_radical
from algcert.certify import (certify, reductive_shape,
                             verify_invariant_pair, semisimple_block_sizes,
                             torus_shape_check)
from algcert.constructions import (componentwise_algebra, direct_sum,
                                   matrix_algebra,
                                   truncated_polynomial_algebra,
                                   univariate_quotient_algebra,
                                   upper_triangular_algebra)
from algcert.errors import DegreeOutOfRange
from algcert.fields import GF, QQ
from algcert.oracle import enumerate_automorphisms, induced_jj2_matrices
from algcert.presentation import presentation_from_ideal
from conftest import pp

GF3, GF5 = GF(3), GF(5)


def build(n, l, texts, field=QQ):
    return presentation_from_ideal(n, l, [pp(t, n, field) for t in texts], field)


class TestScenarioCertificates:
    def test_square_zero_six_variables(self):
        cert = certify(truncated_polynomial_algebra(QQ, 6, 2))
        j2 = cert.verdict_for("R-J2")
        assert [v.flag for v in j2] == ["R_TRIVIAL"]
        assert j2[0].evidence["dim_j2"] == 0
        # dim J/J^2 = 6 > 5: the dimension rule must stay silent
        assert "R-DIM5" not in cert.rules_fired()

    def test_anisotropic_quadric_rational_and_nonsplit(self):
        cert = certify(build(2, 3, ["X1^2+X2^2"]))
        assert {"R_TRIVIAL", "STABLY_RATIONAL"} <= {
            v.flag for v in cert.verdict_for("R-DIM5")}
        qanis = cert.verdict_for("R-QANIS")
        assert [v.flag for v in qanis] == ["NOT_K_SPLIT"]
        assert qanis[0].evidence["isotropy"] == "ANISOTROPIC_CERTIFIED"
        assert "RATIONAL" in cert.flags()  # R-QRAT

    def test_gf5_isotropic_suppresses_nonsplit(self):
        cert = certify(build(2, 3, ["X1^2+X2^2"], GF5))
        assert "R-QANIS" not in cert.rules_fired()
        assert "NOT_K_SPLIT" not in cert.flags()
        iso = cert.invariants["quadratic_isotropy"]
        assert iso["verdict"] == "ISOTROPIC_WITNESS"
        assert iso["witness"] == [1, 2]
        assert "R_TRIVIAL" in {v.flag for v in cert.verdict_for("R-DIM5")}

    def test_matrix_algebra_semisimple(self):
        cert = certify(matrix_algebra(QQ, 2))
        assert {"SEMISIMPLE", "R_TRIVIAL"} <= cert.flags()
        assert cert.summary["matrix_blocks"] == [2]

    def test_semisimple_implies_reductive_chain(self):
        for a in (matrix_algebra(QQ, 2), componentwise_algebra(QQ, 3)):
            cert = certify(a)
            flags = cert.flags()
            assert "SEMISIMPLE" in flags
            assert "REDUCTIVE" in flags
            assert "R_TRIVIAL" in flags

    def test_rank_bounds_consistent(self):
        for pres in (build(2, 3, ["X1^2+X2^2"]), build(2, 3, []),
                     build(2, 4, ["X1*X2", "X1^3"]),
                     build(3, 3, ["X1^2+X2^2+X3^2"])):
            cert = certify(pres)
            lowers = [v.evidence["bound"] for v in cert.verdicts
                      if v.flag == "RANK_LOWER_BOUND"]
            uppers = [v.evidence["bound"] for v in cert.verdicts
                      if v.flag == "RANK_UPPER_BOUND"]
            assert uppers and max(lowers, default=0) <= min(uppers)

    def test_monomial_rule(self):
        cert = certify(build(2, 3, []))
        mono = cert.verdict_for("R-MONO")
        assert {v.flag for v in mono} == {"RANK_LOWER_BOUND", "RATIONAL", "R_TRIVIAL"}
        bound = [v for v in mono if v.flag == "RANK_LOWER_BOUND"][0]
        assert bound.evidence["bound"] == 2

    def test_star_rule(self):
        cert = certify(build(3, 3, ["X2^2 + X2*X3"]))
        star = [v for v in cert.verdict_for("R-STAR")]
        assert star and star[0].evidence["bound"] == 2

    def test_nonsingular_cubic_rule(self):
        cert = certify(build(2, 4, ["X1^3+X2^3"]))
        rules = cert.rules_fired()
        assert "R-NONSING" in rules and "R-W1" in rules
        ns = cert.verdict_for("R-NONSING")
        assert {v.flag for v in ns} == {"RATIONAL", "RANK_LOWER_BOUND"}

    def test_deterministic_output(self):
        a = certify(build(2, 3, ["X1^2+X2^2"])).to_dict()
        b = certify(build(2, 3, ["X1^2+X2^2"])).to_dict()
        assert a == b

    def test_unknown_radical_for_gf_noncommutative(self):
        cert = certify(upper_triangular_algebra(GF3, 2))
        assert any(u.get("invariant") == "radical" for u in cert.unknowns)
        assert cert.verdicts == []

    def test_nilpotent_derivations_rule_fires(self):
        # Q + Q[x]/x^2 has abelian one-dimensional derivations: the nilpotent
        # criterion applies and the group (a torus) is rational
        a = direct_sum(componentwise_algebra(QQ, 1),
                       univariate_quotient_algebra(QQ, [0, 0, 1]))
        cert = certify(a)
        nilp = cert.verdict_for("R-NILP")
        assert [v.flag for v in nilp] == ["RATIONAL"]

    def test_nilpotent_derivations_rule_silent(self):
        # k[x]/x^3: Der is solvable but not nilpotent ([x d/dx, x^2 d/dx] != 0)
        cert = certify(univariate_quotient_algebra(QQ, [0, 0, 0, 1]))
        assert "R-NILP" not in cert.rules_fired()

    def test_nilpotent_derivations_char_p_downgraded(self):
        a = direct_sum(componentwise_algebra(GF3, 1),
                       univariate_quotient_algebra(GF3, [0, 0, 1]))
        cert = certify(a)
        assert "R-NILP" not in cert.rules_fired()
        assert any(n.rule == "R-NILP" for n in cert.notes)


class TestExteriorAlgebra:
    # associative automorphisms of the exterior algebra form GL_n extended
    # by a unipotent part; the derivation dimensions below were derived by
    # hand from the Leibniz constraints on generator images
    def test_two_generators(self):
        from algcert.constructions import exterior_algebra
        from algcert.algebra import derivation_algebra
        a = exterior_algebra(QQ, 2)
        assert not a.commutative
        rad = jacobson_radical(a)
        assert (a.dim, rad.radical.dim, rad.jj2_dim, rad.lowey_length) == (4, 3, 2, 3)
        assert derivation_algebra(a).dim == 6  # gl_2 plus Hom(V, top degree)
        cert = certify(a)
        assert "R_TRIVIAL" in {v.flag for v in cert.verdict_for("R-DIM5")}

    def test_three_generators(self):
        from algcert.constructions import exterior_algebra
        from algcert.algebra import derivation_algebra
        a = exterior_algebra(QQ, 3)
        rad = jacobson_radical(a)
        assert (a.dim, rad.jj2_dim) == (8, 3)
        # 9 linear + 3 top-degree + 3 admissible degree-two assignments
        assert derivation_algebra(a).dim == 15
        cert = certify(a)
        assert "R_TRIVIAL" in cert.flags()
        uppers = [v.evidence["bound"] for v in cert.verdicts
                  if v.flag == "RANK_UPPER_BOUND"]
        assert uppers == [3]


class TestEdgeCases:
    def test_base_field_itself(self):
        cert = certify(componentwise_algebra(QQ, 1))
        assert {"SEMISIMPLE", "REDUCTIVE", "R_TRIVIAL"} <= cert.flags()
        assert cert.summary["local"] is True

    def test_char_two_quadratic_analysis_skipped(self):
        from algcert.fields import GF
        cert = certify(build(2, 3, ["X1^2+X2^2"], GF(2)))
        assert "quadratic_isotropy" not in cert.invariants
        assert "R-QANIS" not in cert.rules_fired()
        assert "R-QRAT" not in cert.rules_fired()
        # the dimension rules still apply
        assert "R_TRIVIAL" in {v.flag for v in cert.verdict_for("R-DIM5")}

    def test_gf3_structure_constants_full_pipeline(self):
        # scan radical, derive the presentation, fire the monomial rule
        a = univariate_quotient_algebra(GF3, [0, 0, 0, 1])
        cert = certify(a)
        assert cert.invariants["is_monomial"] is True
        assert {"RATIONAL", "R_TRIVIAL", "RANK_LOWER_BOUND"} <= {
            v.flag for v in cert.verdict_for("R-MONO")}
        uppers = [v.evidence["bound"] for v in cert.verdicts
                  if v.flag == "RANK_UPPER_BOUND"]
        assert uppers == [1]


class TestW1Evaluation:
    def test_w1_note_with_failed_side_condition(self):
        cert = certify(build(2, 4, ["X1^2", "X1^3+X2^3"]))
        assert cert.invariants["dim_w"] == 1
        assert cert.invariants["w_degree"] == 2
        notes = [n for n in cert.notes if n.rule == "R-W1"]
        assert len(notes) == 1
        ev = notes[0].evidence
        assert ev["nonsingularity"] == "SINGULAR_WITNESS"
        assert ev["degree_constraint_met"] is False
        assert not any(v.rule == "R-W1" for v in cert.verdicts)

    def test_w1_fires_on_certified_cubic(self):
        cert = certify(build(2, 4, ["X1^3+X2^3"]))
        w1 = cert.verdict_for("R-W1")
        assert [v.flag for v in w1] == ["RATIONAL"]
        assert w1[0].evidence["nonsingularity"] == "NONSINGULAR_CERTIFIED"


class TestShapes:
    def test_torus_shape_positive(self):
        a = direct_sum(componentwise_algebra(QQ, 1),
                       univariate_quotient_algebra(QQ, [0, 0, 1]))
        report = torus_shape_check(a)
        assert report.matches and report.torus_rank == 1
        assert report.component_dims == [1, 2]

    def test_torus_shape_negative(self):
        report = torus_shape_check(univariate_quotient_algebra(QQ, [0, 0, 0, 1]))
        assert not report.matches and report.torus_rank is None

    def test_torus_shape_trivial_group(self):
        report = torus_shape_check(componentwise_algebra(QQ, 3))
        assert report.matches and report.torus_rank == 0

    def test_torus_shape_requires_commutative(self):
        assert torus_shape_check(upper_triangular_algebra(QQ, 2)) is None

    def test_reductive_shape_gl3(self):
        a = truncated_polynomial_algebra(QQ, 3, 2)
        report = reductive_shape(a, jacobson_radical(a))
        assert report.gl_factors == [3]

    def test_reductive_shape_gl1(self):
        a = univariate_quotient_algebra(QQ, [0, 0, 1])
        report = reductive_shape(a, jacobson_radical(a))
        assert report.gl_factors == [1]

    def test_reductive_shape_two_blocks(self):
        a = direct_sum(univariate_quotient_algebra(QQ, [0, 0, 1]),
                       truncated_polynomial_algebra(QQ, 2, 2))
        report = reductive_shape(a, jacobson_radical(a))
        assert report.gl_factors == [1, 2]
        assert sum(report.gl_factors) == jacobson_radical(a).radical.dim

    def test_reductive_shape_requires_square_zero(self):
        a = univariate_quotient_algebra(QQ, [0, 0, 0, 1])
        assert reductive_shape(a, jacobson_radical(a)) is None

    def test_block_sizes(self):
        assert semisimple_block_sizes(matrix_algebra(QQ, 2)) == [2]
        assert semisimple_block_sizes(componentwise_algebra(QQ, 3)) == [1, 1, 1]
        assert semisimple_block_sizes(
            direct_sum(matrix_algebra(QQ, 2), componentwise_algebra(QQ, 1))) == [1, 2]
        # Q(i) is not split
        assert semisimple_block_sizes(
            univariate_quotient_algebra(QQ, [1, 0, 1])) is None


class TestSection6:
    def test_square_of_quadric_accepted(self):
        q = pp("X1^2+X2^2+X3^2+X4^2", 4)
        report = verify_invariant_pair(q, q.mul(q), 5)
        assert report["dim_sim_lie"] == 7
        assert report["dim_stab_lie"] == 6
        assert report["im_phi_equals_sim"]
        assert report["stab_meets_scalars_trivially"]
        assert report["sim_is_stab_plus_scalars"]
        assert report["q_isotropy"] == "ANISOTROPIC_CERTIFIED"

    def test_diagonal_quartic(self):
        report = verify_invariant_pair(pp("X1^2+X2^2+X3^2", 3),
                                 pp("X1^4+X2^4+X3^4", 3), 5)
        assert report["dim_stab_lie"] == 0
        assert report["dim_im_phi_lie"] == 1

    def test_degree_boundary_rejected(self):
        with pytest.raises(DegreeOutOfRange):
            verify_invariant_pair(pp("X1^2+X2^2", 2), pp("X1^4+X2^4", 2), 4)
        with pytest.raises(DegreeOutOfRange):
            verify_invariant_pair(pp("X1^2+X2^2", 2), pp("X1^2+X2^2", 2), 5)


class TestBruteForceAgreement:
    def test_rank_lower_bound_witnessed_by_enumeration(self):
        # monomial GF(3) algebra: certificate claims a rank-2 torus; the
        # enumerated J/J^2 images must contain the full diagonal torus
        pres = build(2, 3, ["X1*X2"], GF3)
        cert = certify(pres)
        bounds = [v.evidence["bound"] for v in cert.verdicts
                  if v.flag == "RANK_LOWER_BOUND"]
        assert max(bounds) == 2
        from algcert.presentation import quotient_algebra
        a = quotient_algebra(pres)
        rad = jacobson_radical(a)
        group = enumerate_automorphisms(a, rad)
        act = induced_jj2_matrices(group, a, rad)
        keys = {tuple(x for row in b.rows for x in row) for b in act.matrices}
        for a1 in (1, 2):
            for a2 in (1, 2):
                assert (a1, 0, 0, a2) in keys

    def test_star_bound_witnessed_on_gf3(self):
        pres = build(2, 3, ["X1^2+X2^2"], GF3)
        cert = certify(pres)
        bounds = [v.evidence["bound"] for v in cert.verdicts
                  if v.flag == "RANK_LOWER_BOUND"]
        assert max(bounds) == 1  # property * with r = 1: scalar torus
        from algcert.presentation import quotient_algebra
        a = quotient_algebra(pres)
        rad = jacobson_radical(a)
        group = enumerate_automorphisms(a, rad)
        act = induced_jj2_matrices(group, a, rad)
        assert act.image_order * act.kernel_count == group.order
        keys = {tuple(x for row in b.rows for x in row) for b in act.matrices}
        for c in (1, 2):
            assert (c, 0, 0, c) in keys


def test_crossed_rank_bounds_raise_under_optimize():
    code = (
        "from algcert.certify import Verdict, _check_rank_bounds\n"
        "from algcert.errors import InternalInconsistency\n"
        "print(__debug__)\n"
        "try:\n"
        "    _check_rank_bounds([Verdict('RANK_LOWER_BOUND', 'R-ISO', {'bound': 3}),\n"
        "                        Verdict('RANK_UPPER_BOUND', 'R-RANKUB', {'bound': 2})])\n"
        "except InternalInconsistency as exc:\n"
        "    print(exc)\n")
    src = str(Path(algcert.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-O", "-c", code],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["False",
                                       "rank bounds crossed: lower 3 > upper 2"]
