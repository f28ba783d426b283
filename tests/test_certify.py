import hashlib
import importlib
import itertools
import json
import logging
import os
import pkgutil
import random
import subprocess
import sys
import types
from math import isqrt
from pathlib import Path

import pytest

import algcert
from algcert.algebra import (StructureAlgebra, _split_components, center,
                             element_idempotents, induced_algebra,
                             jacobson_radical, quotient_structure, wm_complement)
from algcert.certify import (RULES, CertifyConfig,
                             _build_context_from_presentation, _run_rules,
                             certify, reductive_shape,
                             verify_invariant_pair, semisimple_block_sizes,
                             torus_shape_check)
from algcert.constructions import (componentwise_algebra, direct_sum,
                                   exterior_algebra, matrix_algebra,
                                   truncated_polynomial_algebra,
                                   univariate_quotient_algebra,
                                   upper_triangular_algebra)
from algcert.errors import (DegreeOutOfRange, InternalInconsistency, NotLocal,
                            NotSplit, NotSplitBasic)
from algcert.fields import GF, QQ
from algcert.linalg import Subspace, invert, kernel_rows, solve
from algcert.oracle import enumerate_automorphisms, induced_jj2_matrices
from algcert.presentation import presentation_from_algebra, presentation_from_ideal
from algcert.roots import minimal_polynomial, roots_in_field
from conftest import identity, matmul, matrix_sum, own_coordinates, pp, transvected

GF3, GF5, GF7 = GF(3), GF(5), GF(7)


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


def _shape(check, a):
    """check(a, rad, wm) on A's radical and Wedderburn-Malcev complement."""
    rad = jacobson_radical(a)
    return check(a, rad, wm_complement(a, rad))


def _block_sizes(a):
    """semisimple_block_sizes on the split of A's center, None when it fails."""
    try:
        units = _split_components(a, center(a))
    except NotSplitBasic:
        return None
    return semisimple_block_sizes(a, units)


class TestShapes:
    def test_torus_shape_positive(self):
        a = direct_sum(componentwise_algebra(QQ, 1),
                       univariate_quotient_algebra(QQ, [0, 0, 1]))
        report = _shape(torus_shape_check, a)
        assert report.matches and report.torus_rank == 1
        assert report.component_dims == [1, 2]

    def test_torus_shape_negative(self):
        report = _shape(torus_shape_check, univariate_quotient_algebra(QQ, [0, 0, 0, 1]))
        assert not report.matches and report.torus_rank is None

    def test_torus_shape_trivial_group(self):
        report = _shape(torus_shape_check, componentwise_algebra(QQ, 3))
        assert report.matches and report.torus_rank == 0

    def test_torus_shape_requires_commutative(self):
        assert _shape(torus_shape_check, upper_triangular_algebra(QQ, 2)) is None

    def test_reductive_shape_gl3(self):
        report = _shape(reductive_shape, truncated_polynomial_algebra(QQ, 3, 2))
        assert report.gl_factors == [3]

    def test_reductive_shape_gl1(self):
        report = _shape(reductive_shape, univariate_quotient_algebra(QQ, [0, 0, 1]))
        assert report.gl_factors == [1]

    def test_reductive_shape_two_blocks(self):
        a = direct_sum(univariate_quotient_algebra(QQ, [0, 0, 1]),
                       truncated_polynomial_algebra(QQ, 2, 2))
        report = _shape(reductive_shape, a)
        assert report.gl_factors == [1, 2]
        assert sum(report.gl_factors) == jacobson_radical(a).radical.dim

    def test_reductive_shape_requires_square_zero(self):
        assert _shape(reductive_shape, univariate_quotient_algebra(QQ, [0, 0, 0, 1])) is None

    def test_block_sizes(self):
        assert _block_sizes(matrix_algebra(QQ, 2)) == [2]
        assert _block_sizes(componentwise_algebra(QQ, 3)) == [1, 1, 1]
        assert _block_sizes(
            direct_sum(matrix_algebra(QQ, 2), componentwise_algebra(QQ, 1))) == [1, 2]
        # Q(i) is not split
        assert _block_sizes(univariate_quotient_algebra(QQ, [1, 0, 1])) is None


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
        keys = {tuple(x for row in b for x in row) for b in act.matrices}
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
        keys = {tuple(x for row in b for x in row) for b in act.matrices}
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


def test_certify_module_is_not_shadowed():
    # the package exports no name that rebinds algcert.certify from the
    # module to its function
    import algcert.certify as m
    assert isinstance(m, types.ModuleType)
    assert m.RULES


def test_full_flag_fires_r_flag():
    # W = <X1^3, X2^3> carries a full rational flag and X1^3 + X2^3 is a
    # certified nonsingular element of it
    cert = certify(build(2, 5, ["X1^3", "X2^3"]))
    assert [(v.flag, v.evidence) for v in cert.verdict_for("R-FLAG")] == [
        ("RATIONAL", {"element": "X1^3 + X2^3", "degree": 3,
                      "degree_constraint_met": True,
                      "nonsingularity": "NONSINGULAR_CERTIFIED",
                      "flag": "FULL_FLAG", "dim_w": 2})]
    assert cert.invariants["nonsingularity"]["element"] == "X1^3 + X2^3"


def _k_plus_dual_numbers(field):
    return direct_sum(componentwise_algebra(field, 1),
                      univariate_quotient_algebra(field, [0, 0, 1]))


# sha256 of the canonical JSON of each certificate, with its (rule, flag) and
# note-rule sets; together the corpus fires every rule and every note text
GOLDEN = {
    "matrix_q_3": (
        lambda: matrix_algebra(QQ, 3),
        "3c225ab128f952eaf6ebeb8b17c13ad4d8461a8ec28e7f615ce2f892317d0a77",
        {("R-DIM5", "R_TRIVIAL"), ("R-J2", "R_TRIVIAL"), ("R-RED", "REDUCTIVE"),
         ("R-RED", "R_TRIVIAL"), ("R-SEMI", "R_TRIVIAL"), ("R-SEMI", "SEMISIMPLE")},
        set()),
    "sum_k3_q": (
        lambda: componentwise_algebra(QQ, 3),
        "31838d580930e60e6ea7f9f88d3bbbb488e467d64424b7dcb3e517fe733633fa",
        {("R-DIM5", "R_TRIVIAL"), ("R-J2", "R_TRIVIAL"), ("R-NILP", "RATIONAL"),
         ("R-RED", "REDUCTIVE"), ("R-RED", "R_TRIVIAL"), ("R-SEMI", "R_TRIVIAL"),
         ("R-SEMI", "SEMISIMPLE")},
        set()),
    "uppertri_gf3_2": (
        lambda: upper_triangular_algebra(GF3, 2),
        "f7c8fea4966f7149e710775869c4b05cadfb300f48f1adcb07773dc7c182a7b8",
        set(), set()),
    "k_dual_q": (
        lambda: _k_plus_dual_numbers(QQ),
        "a15e8ce0c3732e036f6bf259c33b6441f9e559070b3b01287bc560d2815f2c95",
        {("R-DIM5", "R_TRIVIAL"), ("R-J2", "R_TRIVIAL"), ("R-NILP", "RATIONAL"),
         ("R-RED", "REDUCTIVE"), ("R-RED", "R_TRIVIAL")},
        set()),
    "k_dual_gf3": (
        lambda: _k_plus_dual_numbers(GF3),
        "b9492b2fc5685ff18b97e8c1803a0b49ed36b9eb543bff35b61cfaf1ea8c5f66",
        {("R-DIM5", "R_TRIVIAL"), ("R-J2", "R_TRIVIAL"), ("R-RED", "REDUCTIVE"),
         ("R-RED", "R_TRIVIAL")},
        {"R-NILP"}),
    "quadric_q": (
        lambda: build(2, 3, ["X1^2+X2^2"]),
        "93c8babd28754d28e62c6ef2b2e1571a23dfdfcdff25f501cabf5a9418485d72",
        {("R-DIM5", "R_TRIVIAL"), ("R-DIM5", "STABLY_RATIONAL"),
         ("R-DIM7", "R_TRIVIAL"), ("R-DIM7", "STABLY_RATIONAL"),
         ("R-ISO", "RANK_LOWER_BOUND"), ("R-QANIS", "NOT_K_SPLIT"),
         ("R-QRAT", "RATIONAL"), ("R-RANKUB", "RANK_UPPER_BOUND"),
         ("R-STAR", "RANK_LOWER_BOUND")},
        {"R-ISO", "R-W1"}),
    "quadric_gf2": (
        lambda: build(2, 3, ["X1^2+X2^2"], GF(2)),
        "6d07a3a140b9880736ae3904744d3801f346329074f3ae00a34c5de936b32cd1",
        {("R-DIM5", "R_TRIVIAL"), ("R-DIM5", "STABLY_RATIONAL"),
         ("R-DIM7", "R_TRIVIAL"), ("R-DIM7", "STABLY_RATIONAL"),
         ("R-ISO", "RANK_LOWER_BOUND"), ("R-RANKUB", "RANK_UPPER_BOUND"),
         ("R-STAR", "RANK_LOWER_BOUND")},
        {"R-ISO", "R-W1"}),
    "cubic_q_l4": (
        lambda: build(2, 4, ["X1^3+X2^3"]),
        "d4ce5dbf9cc22e0c19677f673b01fe85509dc790bed5b0180082985e8172e04c",
        {("R-DIM5", "R_TRIVIAL"), ("R-DIM5", "STABLY_RATIONAL"),
         ("R-ISO", "RANK_LOWER_BOUND"), ("R-NONSING", "RANK_LOWER_BOUND"),
         ("R-NONSING", "RATIONAL"), ("R-RANKUB", "RANK_UPPER_BOUND"),
         ("R-STAR", "RANK_LOWER_BOUND"), ("R-W1", "RATIONAL")},
        {"R-ISO"}),
    "w1_note_q": (
        lambda: build(2, 4, ["X1^2", "X1^3+X2^3"]),
        "4844ef6f26d25f9be68594afd041bffae558714464815dc4c35eaf527ef83bc1",
        {("R-DIM5", "R_TRIVIAL"), ("R-DIM5", "STABLY_RATIONAL"),
         ("R-DIM7", "R_TRIVIAL"), ("R-DIM7", "STABLY_RATIONAL"),
         ("R-ISO", "RANK_LOWER_BOUND"), ("R-MONO", "RANK_LOWER_BOUND"),
         ("R-MONO", "RATIONAL"), ("R-MONO", "R_TRIVIAL"),
         ("R-RANKUB", "RANK_UPPER_BOUND")},
        {"R-ISO", "R-W1"}),
    "flag_note_q": (
        lambda: build(3, 4, ["X1^2", "X2^2+X1*X3"]),
        "b300ba2439d521dad1a9a36b70bdc16c1d2f7caabac7227234af56f0b7534251",
        {("R-DIM5", "R_TRIVIAL"), ("R-DIM5", "STABLY_RATIONAL"),
         ("R-ISO", "RANK_LOWER_BOUND"), ("R-RANKUB", "RANK_UPPER_BOUND"),
         ("R-STAR", "RANK_LOWER_BOUND")},
        {"R-FLAG", "R-ISO"}),
    "sq0_6vars_q": (
        lambda: build(6, 2, []),
        "2ec8f215359628fcc09695ba3737b3a77a587277d663decdf5d5c6a045396891",
        {("R-DIM7", "R_TRIVIAL"), ("R-DIM7", "STABLY_RATIONAL"),
         ("R-ISO", "RANK_LOWER_BOUND"), ("R-J2", "R_TRIVIAL"),
         ("R-MONO", "RANK_LOWER_BOUND"), ("R-MONO", "RATIONAL"),
         ("R-MONO", "R_TRIVIAL"), ("R-RANKUB", "RANK_UPPER_BOUND"),
         ("R-RED", "REDUCTIVE"), ("R-RED", "R_TRIVIAL")},
        {"R-ISO"}),
    "cubic_gf13_4vars": (
        lambda: build(4, 4, ["X1^3+X2^3+X3^3+X4^3+X1*X2*X3"], GF(13)),
        "07addbcafb3c11b71b759be7cd85ab75ce854214b1954e92124dff594a30e3e6",
        {("R-DIM5", "R_TRIVIAL"), ("R-DIM5", "STABLY_RATIONAL"),
         ("R-ISO", "RANK_LOWER_BOUND"), ("R-RANKUB", "RANK_UPPER_BOUND"),
         ("R-STAR", "RANK_LOWER_BOUND")},
        {"R-ISO", "R-NONSING", "R-W1"}),
    "flag_fires_q": (
        lambda: build(2, 5, ["X1^3", "X2^3"]),
        "6061f8b599455d331dd8e424f695da2f642b615a8dc3b66d949afc1aebac945f",
        {("R-DIM5", "R_TRIVIAL"), ("R-DIM5", "STABLY_RATIONAL"),
         ("R-FLAG", "RATIONAL"), ("R-ISO", "RANK_LOWER_BOUND"),
         ("R-MONO", "RANK_LOWER_BOUND"), ("R-MONO", "RATIONAL"),
         ("R-MONO", "R_TRIVIAL"), ("R-RANKUB", "RANK_UPPER_BOUND")},
        {"R-ISO"}),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_certificate(name):
    make, digest, fired, noted = GOLDEN[name]
    payload = certify(make()).to_dict()
    assert {(v["rule"], v["flag"]) for v in payload["verdicts"]} == fired
    assert {n["rule"] for n in payload["notes"]} == noted
    text = json.dumps(payload, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_golden_corpus_covers_every_rule():
    assert {r for _, _, fired, _ in GOLDEN.values() for r, _ in fired} \
        == {rule.id for rule in RULES}
    assert set().union(*(noted for *_, noted in GOLDEN.values())) \
        == {"R-NILP", "R-W1", "R-FLAG", "R-ISO", "R-NONSING"}


def test_skipped_rule_logs_its_failing_guard(caplog):
    with caplog.at_level(logging.DEBUG, logger="algcert.certify"):
        certify(_k_plus_dual_numbers(QQ))
    skipped = [r.getMessage() for r in caplog.records
               if r.name == "algcert.certify" and "skipped" in r.getMessage()]
    assert "rule R-SEMI skipped: guard failed: J = 0" in skipped
    assert "rule R-ISO skipped: guard failed: graded presentation" in skipped
    # rules that fired are not reported as skipped
    assert not any(m.startswith("rule R-J2 ") for m in skipped)


@pytest.mark.parametrize("obj", [build(2, 4, ["X1^3+X2^3"]),
                                 build(2, 5, ["X1^3", "X2^3"])],
                         ids=["w1", "flag"])
def test_rules_only_read_the_context(obj):
    ctx = _build_context_from_presentation(obj, CertifyConfig())
    before = dict(vars(ctx))
    evidence = dict(ctx.side_condition[1])
    verdicts, _ = _run_rules(ctx)
    assert verdicts
    assert vars(ctx) == before
    assert ctx.side_condition[1] == evidence


def test_center_computed_once_per_algebra(monkeypatch):
    # the center of A (read by R-RED, the invariants and, when J = 0, the
    # block sizes) and that of A/J are each computed once
    calls = []

    def counting_center(algebra):
        calls.append(algebra)
        return center(algebra)

    monkeypatch.setattr(importlib.import_module("algcert.certify"), "center",
                        counting_center)
    for obj, count in ((matrix_algebra(QQ, 2), 1),
                       (_k_plus_dual_numbers(QQ), 2),
                       (upper_triangular_algebra(QQ, 2), 2),
                       (build(6, 2, []), 0)):
        calls.clear()
        certify(obj)
        assert len(calls) == count
        assert len({id(a) for a in calls}) == count


# -- the structure step against the splitters it replaced ----------------------
#
# References: the eigenspace splitter (kernels of M_z - lam and of the
# non-linear cofactor of the minimal polynomial, units from one solve) and
# the corner check on induced corner algebras, both run in the coordinates
# of induced algebras as the structure step did before it split centers
# and corners inside the algebra.

def _ref_try_split(alg, unit, space):
    f = alg.field
    for z in space.basis:
        def powers():
            cur = list(unit)
            while True:
                yield cur
                cur = alg.multiply(cur, z)
        mp = minimal_polynomial(powers(), f)
        if len(mp) <= 2:
            continue
        roots = roots_in_field(mp, f)
        if not roots:
            continue
        mz = list(map(list, zip(*[alg.multiply(z, e) for e in identity(f, alg.dim)])))
        parts = []
        remaining = mp
        for lam in roots:
            shifted = [[f.sub(x, lam if i == j else f.zero) for j, x in enumerate(row)]
                       for i, row in enumerate(mz)]
            eig = kernel_rows(shifted, alg.dim, f).intersect(space)
            if eig.dim > 0:
                parts.append(eig)
            deflated = [f.zero] * (len(remaining) - 1)
            carry = f.zero
            for i in range(len(remaining) - 1, 0, -1):
                carry = f.add(remaining[i], f.mul(carry, lam))
                deflated[i - 1] = carry
            remaining = deflated
        if sum(p.dim for p in parts) < space.dim:
            if len(remaining) <= 1:
                return None
            acc = matrix_sum(f, alg.dim, [])
            for c in reversed(remaining):
                acc = matrix_sum(f, alg.dim, [(f.one, matmul(f, acc, mz)),
                                              (c, identity(f, alg.dim))])
            rest = kernel_rows(acc, alg.dim, f).intersect(space)
            if rest.dim in (0, space.dim):
                return None
            parts.append(rest)
        if len(parts) < 2:
            continue
        coeffs = solve(list(zip(*[r for p in parts for r in p.basis])), unit, f)
        assert coeffs is not None
        out, offset = [], 0
        for p in parts:
            u = [f.zero] * alg.dim
            for c, row in zip(coeffs[offset:offset + p.dim], p.basis):
                u = [f.add(x, f.mul(c, y)) for x, y in zip(u, row)]
            offset += p.dim
            out.append((u, p))
        return out
    return None


def _ref_split_components(alg):
    """Units of the one-dimensional components of a commutative semisimple
    algebra, in its own coordinates; None where a block does not split."""
    components = [(alg.one, Subspace.full(alg.field, alg.dim))]
    done = []
    while components:
        unit, space = components.pop()
        if space.dim == 1:
            done.append(unit)
            continue
        parts = _ref_try_split(alg, unit, space)
        if parts is None:
            return None
        components.extend(parts)
    return done


def _ref_lagrange_idempotents(alg, b):
    f = alg.field

    def powers():
        cur = list(alg.one)
        while True:
            yield cur
            cur = alg.multiply(cur, b)
    mp = minimal_polynomial(powers(), f)
    roots = roots_in_field(mp, f)
    if len(mp) < 3 or len(roots) != len(mp) - 1:
        return []
    out = []
    for lam in roots:
        e, scale = list(alg.one), f.one
        for mu in roots:
            if mu != lam:
                e = alg.multiply(e, [f.sub(x, f.mul(mu, u)) for x, u in zip(b, alg.one)])
                scale = f.mul(scale, f.sub(lam, mu))
        out.append([f.mul(f.inv(scale), x) for x in e])
    return out


def _ref_corner_has_rank_one(alg):
    if alg.dim == 1:
        return True
    full = Subspace.full(alg.field, alg.dim)
    for b in full.basis:
        for e in _ref_lagrange_idempotents(alg, b):
            corner = alg.product_span(e, full, e)
            if corner.dim == 1:
                return True
            if 1 < corner.dim < alg.dim and _ref_corner_has_rank_one(
                    induced_algebra(alg, own_coordinates(corner), e)):
                return True
    return False


def _ref_center_idempotents(algebra):
    zcoords = own_coordinates(center(algebra))
    units = _ref_split_components(induced_algebra(algebra, zcoords, algebra.one))
    return None if units is None else [zcoords.lift(u) for u in units]


def _ref_block_sizes(algebra):
    units = _ref_center_idempotents(algebra)
    if units is None:
        return None
    full = Subspace.full(algebra.field, algebra.dim)
    sizes = []
    for zi in units:
        comp = algebra.product_span(zi, full)
        m = isqrt(comp.dim)
        if m * m != comp.dim or not _ref_corner_has_rank_one(
                induced_algebra(algebra, own_coordinates(comp), zi)):
            return None
        sizes.append(m)
    return sorted(sizes)


def _quaternion_algebra(field, a, b):
    """(a, b) over field: basis 1, i, j, k with i^2 = a, j^2 = b, ij = -ji = k."""
    # products of basis indices as (sign-and-scale, index): k^2 = -ab
    rule = {(1, 1): (a, 0), (2, 2): (b, 0), (3, 3): (-a * b, 0),
            (1, 2): (1, 3), (2, 1): (-1, 3), (1, 3): (a, 2), (3, 1): (-a, 2),
            (2, 3): (-b, 1), (3, 2): (b, 1)}
    cells = {}
    for x in range(4):
        for y in range(4):
            c, k = (1, x + y) if 0 in (x, y) else rule[(x, y)]
            cells[x, y] = [(k, c)]
    return StructureAlgebra(field, cells, [1, 0, 0, 0])


def _m3_in_turn_basis(field):
    """M_3 in a basis of conjugates P J P^-1, P unimodular, of J = (1) + a
    quarter turn in the other two coordinates.  Every basis element has the
    minimal polynomial (t - 1)(t^2 + 1), which does not split unless -1 is
    a square; its root 1 alone cuts a rank-one corner, a partial split that
    the corner check does not take."""
    rng = random.Random(3)
    turn = [[1, 0, 0], [0, 0, -1], [0, 1, 0]]

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
                for i in range(3)]
    basis = []
    while len(basis) < 9:
        p = [[int(i == j) for j in range(3)] for i in range(3)]
        for _ in range(4):              # p <- p (I + s E_ij): unimodular
            i, j = rng.sample(range(3), 2)
            s = rng.choice((-1, 1))
            for row in p:
                row[j] += s * row[i]
        cand = [x for row in mul(mul(p, turn), invert(p, QQ)) for x in row]
        if Subspace.from_vectors(field, 9, basis + [cand]).dim > len(basis):
            basis.append(cand)
    cols = list(zip(*basis))

    def coords(m):
        return solve(cols, [x for row in m for x in row], field)
    mats = [[b[3 * i:3 * i + 3] for i in range(3)] for b in basis]
    table = [[coords(mul(x, y)) for y in mats] for x in mats]
    return StructureAlgebra.from_table(field, table, coords([[int(i == j) for j in range(3)]
                                                             for i in range(3)]))


def _splitter_cases():
    # (name, algebra builder); t^2 + 1, t^3 - 2 split over some GF(p) only
    def circle(f):
        return univariate_quotient_algebra(f, [1, 0, 1])
    return [("k3", lambda f: componentwise_algebra(f, 3)),
            ("M2", lambda f: matrix_algebra(f, 2)),
            ("M3", lambda f: matrix_algebra(f, 3)),
            ("M2+k", lambda f: direct_sum(matrix_algebra(f, 2), componentwise_algebra(f, 1))),
            ("circle", circle),
            ("cube_root_2", lambda f: univariate_quotient_algebra(f, [-2, 0, 0, 1])),
            ("circle+k2", lambda f: direct_sum(circle(f), componentwise_algebra(f, 2))),
            ("quaternion", lambda f: _quaternion_algebra(f, -1, -1)),
            ("M3_turns", _m3_in_turn_basis)]


@pytest.mark.parametrize("field", [QQ, GF3, GF5, GF7], ids=["QQ", "GF3", "GF5", "GF7"])
@pytest.mark.parametrize("name, build_algebra", _splitter_cases(),
                         ids=[name for name, _ in _splitter_cases()])
def test_structure_step_matches_eigenspace_splitter(name, build_algebra, field):
    rng = random.Random(f"{name}/{field!r}")
    standard = build_algebra(field)
    for algebra in [standard] + [transvected(standard, rng, count=12) for _ in range(2)]:
        semi = algebra          # the non-commutative cases are semisimple
        if algebra.commutative:
            # split A/J, as certify does (t^3 - 2 = (t + 1)^3 over GF(3))
            rad = jacobson_radical(algebra)
            semi, _ = quotient_structure(algebra, rad)
            if semi.dim > 1:
                want_local = _ref_try_split(semi, semi.one, Subspace.full(field, semi.dim))
                with pytest.raises(NotLocal if want_local else NotSplit):
                    presentation_from_algebra(algebra, rad)
        want = _ref_center_idempotents(semi)
        try:
            got = _split_components(semi, center(semi))
        except NotSplitBasic:
            got = None
        if want is None:
            assert got is None
        else:
            assert got is not None and sorted(map(tuple, got)) == sorted(map(tuple, want))
        assert _block_sizes(semi) == _ref_block_sizes(semi)


# the structure steps a certificate takes at most once: A/J's table, the split
# of its center, the idempotent lift and the normal form
ONCE = (("algcert.algebra", "induced_algebra"), ("algcert.algebra", "_split_components"),
        ("algcert.algebra", "lift_idempotents"), ("algcert.presentation", "normal_form"))


@pytest.mark.parametrize("make, lifts", [
    (lambda: _k_plus_dual_numbers(QQ), 1),
    (lambda: direct_sum(componentwise_algebra(GF5, 2),
                        univariate_quotient_algebra(GF5, [0, 0, 1])), 1),
    (lambda: truncated_polynomial_algebra(QQ, 2, 3), 1),
    (lambda: build(3, 2, []), 1),
    # no shape reads a complement: J is not central, and J^2 != 0
    (lambda: upper_triangular_algebra(QQ, 3), 0),
    (lambda: exterior_algebra(QQ, 3), 0),
], ids=["k+dual_QQ", "k2+dual_GF5", "xy_m3_QQ", "pres_n3_l2", "UT3_QQ", "ext3_QQ"])
def test_structure_invariants_computed_once(make, lifts, monkeypatch):
    # each step is wrapped at every algcert name bound to it, so calls from
    # any module are counted
    obj = make()
    calls = {}
    mods = [importlib.import_module(f"algcert.{m.name}")
            for m in pkgutil.iter_modules(algcert.__path__)]
    for home, name in ONCE:
        original = getattr(importlib.import_module(home), name)
        calls[name] = 0

        def counted(*args, _f=original, _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    cert = certify(obj)
    assert calls["lift_idempotents"] == lifts
    shapes = {"torus_shape", "reductive_shape"} & set(cert.invariants)
    assert bool(shapes) == bool(lifts)
    assert max(calls.values()) <= 1, calls


def test_non_root_from_root_finder_is_inconsistent(monkeypatch):
    # a non-root taken as a root gives a non-idempotent h(z)/h(lam); the
    # structure step must abort, not certify with it
    algebra_module = importlib.import_module("algcert.algebra")
    real = algebra_module.roots_in_field

    def with_non_root(coeffs, field):
        roots = real(coeffs, field)
        return roots + [next(field.coerce(c) for c in itertools.count(2)
                             if field.coerce(c) not in roots)]

    monkeypatch.setattr(algebra_module, "roots_in_field", with_non_root)
    with pytest.raises(InternalInconsistency):
        element_idempotents(componentwise_algebra(QQ, 2), [1, 0], [1, 1])
    # the center split, the corner check, and the split of A/J
    for algebra in (componentwise_algebra(GF5, 3), matrix_algebra(QQ, 2),
                    _k_plus_dual_numbers(QQ)):
        with pytest.raises(InternalInconsistency):
            certify(algebra)
