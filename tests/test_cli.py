import importlib
import json
import time

import pytest

from algcert import cli
from algcert.cli import main
from algcert.errors import InternalInconsistency
from algcert.linalg import Subspace


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def quadric_presentation(tmp_path):
    return _write(tmp_path, "pres.json", {
        "kind": "presentation",
        "field": {"type": "Q"},
        "n_vars": 2,
        "trunc_degree": 3,
        "generators": ["X1^2+X2^2"],
    })


@pytest.fixture
def m2q_structure(tmp_path):
    return _write(tmp_path, "m2q.json", {
        "kind": "structure_constants",
        "field": {"type": "Q"},
        "dim": 4,
        "one": [1, 0, 0, 1],
        "table": [
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
            [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]],
            [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]],
            [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        ],
    })


@pytest.fixture
def gf3_cubic(tmp_path):
    # GF(3)[x]/x^3 as structure constants with basis 1, x, x^2
    return _write(tmp_path, "gf3cubic.json", {
        "kind": "structure_constants",
        "field": {"type": "GFp", "p": 3},
        "dim": 3,
        "one": [1, 0, 0],
        "table": [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
        ],
    })


def test_analyze_presentation(quadric_presentation, capsys):
    assert main(["analyze", quadric_presentation]) == 0
    payload = json.loads(capsys.readouterr().out)
    flags = {(v["flag"], v["rule"]) for v in payload["verdicts"]}
    assert ("R_TRIVIAL", "R-DIM5") in flags
    assert ("NOT_K_SPLIT", "R-QANIS") in flags


def test_analyze_structure(m2q_structure, capsys):
    assert main(["analyze", m2q_structure]) == 0
    payload = json.loads(capsys.readouterr().out)
    flags = {v["flag"] for v in payload["verdicts"]}
    assert {"SEMISIMPLE", "R_TRIVIAL"} <= flags


def test_analyze_json_round_trip(quadric_presentation, capsys):
    main(["analyze", quadric_presentation])
    out = capsys.readouterr().out
    reparsed = json.loads(out)
    assert json.dumps(reparsed, sort_keys=True, indent=2) + "\n" == out


def test_text_and_json_verdicts_agree(quadric_presentation, capsys):
    main(["analyze", quadric_presentation, "--format", "json"])
    json_out = json.loads(capsys.readouterr().out)
    json_set = {(v["flag"], v["rule"]) for v in json_out["verdicts"]}
    main(["analyze", quadric_presentation, "--format", "text"])
    text = capsys.readouterr().out
    import re
    text_set = set()
    for line in text.splitlines():
        m = re.match(r"^\s*([A-Z_]+)\s+\[(R-[A-Z0-9]+)\]", line)
        if m:
            text_set.add((m.group(1), m.group(2)))
    assert json_set == text_set


def test_parser_is_built_once_and_keeps_no_options(quadric_presentation, capsys):
    # main reuses one parser; a call's flags must not reach the next call,
    # whose output equals that of a call on a freshly built parser
    assert cli.build_parser() is cli.build_parser()
    flagged = main(["analyze", quadric_presentation, "--field", "GFp:7", "--format", "text"])
    flagged_out = capsys.readouterr().out
    plain = main(["analyze", quadric_presentation]), capsys.readouterr().out
    cli.build_parser.cache_clear()
    fresh = main(["analyze", quadric_presentation]), capsys.readouterr().out
    assert plain == fresh
    assert (flagged, flagged_out) != plain


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "structure_constants", ', encoding="utf-8")
    assert main(["analyze", str(path)]) == 2


def test_wrong_dimensions_exit_2(tmp_path):
    path = _write(tmp_path, "short.json", {
        "kind": "structure_constants",
        "field": {"type": "Q"},
        "dim": 2,
        "one": [1],
        "table": [[[1]]],
    })
    assert main(["analyze", path]) == 2


def test_present_on_product_exits_3(tmp_path):
    # Q x Q is not local
    path = _write(tmp_path, "qxq.json", {
        "kind": "structure_constants",
        "field": {"type": "Q"},
        "dim": 2,
        "one": [1, 1],
        "table": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
    })
    assert main(["present", path]) == 3


def test_analyze_gf_noncommutative_exits_3(tmp_path):
    # upper triangular 2x2 over GF(3): radical not computable from scratch
    path = _write(tmp_path, "ut.json", {
        "kind": "structure_constants",
        "field": {"type": "GFp", "p": 3},
        "dim": 3,
        "one": [1, 0, 1],
        "table": [
            [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
        ],
    })
    assert main(["analyze", path]) == 3


def test_analyze_full_flag_exits_0(tmp_path, capsys):
    # R-FLAG fires here: W = <X1^3, X2^3> has a full rational flag
    path = _write(tmp_path, "flag.json", {
        "kind": "presentation",
        "field": {"type": "Q"},
        "n_vars": 2,
        "trunc_degree": 5,
        "generators": ["X1^3", "X2^3"],
    })
    assert main(["analyze", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {"flag": "RATIONAL", "rule": "R-FLAG"} in [
        {"flag": v["flag"], "rule": v["rule"]} for v in payload["verdicts"]]


def test_radical_report(gf3_cubic, capsys):
    assert main(["radical", gf3_cubic]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"dim_radical": 2, "lowey_length": 3, "dim_jj2": 1,
                       "power_dims": [2, 1, 0]}


def test_der_report(tmp_path, capsys):
    path = _write(tmp_path, "qx3.json", {
        "kind": "structure_constants",
        "field": {"type": "Q"},
        "dim": 3,
        "one": [1, 0, 0],
        "table": [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
        ],
    })
    assert main(["der", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"dim_der": 2, "dim_ker_phi_lie": 1}


def test_oracle_aut(gf3_cubic, capsys):
    assert main(["oracle-aut", gf3_cubic]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"order": 6, "image_order": 2, "kernel_count": 3}


def test_oracle_aut_rejects_rationals(m2q_structure):
    assert main(["oracle-aut", m2q_structure]) == 3


def test_field_override(tmp_path, capsys):
    path = _write(tmp_path, "pres.json", {
        "kind": "presentation",
        "field": {"type": "Q"},
        "n_vars": 2,
        "trunc_degree": 3,
        "generators": ["X1^2+X2^2"],
    })
    assert main(["analyze", path, "--field", "GFp:5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["field"] == "GF(5)"
    assert not any(v["rule"] == "R-QANIS" for v in payload["verdicts"])


def test_present_report(quadric_presentation, capsys):
    assert main(["present", quadric_presentation]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["generators"] == ["X1^2 + X2^2"]
    assert payload["is_monomial"] is False
    assert payload["property_star_r"] == 1
    assert payload["is_graded"] is True


def test_invariant_pair_subcommand(tmp_path, capsys):
    path = _write(tmp_path, "s6.json", {
        "kind": "invariant_pair",
        "field": {"type": "Q"},
        "n_vars": 3,
        "trunc_degree": 5,
        "q": "X1^2+X2^2+X3^2",
        "f": "X1^4+X2^4+X3^4",
    })
    assert main(["invariant-pair", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim_stab_lie"] == 0
    assert payload["dim_im_phi_lie"] == 1
    assert payload["im_phi_equals_sim"] is True


def test_invariant_pair_degree_out_of_range(tmp_path):
    path = _write(tmp_path, "s6bad.json", {
        "kind": "invariant_pair",
        "field": {"type": "Q"},
        "n_vars": 2,
        "trunc_degree": 4,
        "q": "X1^2+X2^2",
        "f": "X1^4+X2^4",
    })
    assert main(["invariant-pair", path]) == 3


def test_bad_generator_syntax_exits_2(tmp_path):
    path = _write(tmp_path, "pres.json", {
        "kind": "presentation",
        "field": {"type": "Q"},
        "n_vars": 2,
        "trunc_degree": 3,
        "generators": ["X1^ +"],
    })
    assert main(["analyze", path]) == 2


def test_normal_form_inconsistency_exits_4(tmp_path, monkeypatch, capsys):
    # keep only X1^2+X2^2 of the l=4 ideal slice: normal_form's generators
    # then span more than the slice and its reconstruction check fails
    path = _write(tmp_path, "pres.json", {
        "kind": "presentation", "field": {"type": "Q"}, "n_vars": 2,
        "trunc_degree": 4, "generators": ["X1^2+X2^2"]})
    real = cli.presentation_from_ideal

    def truncated_ideal(*args):
        pres = real(*args)
        pres.ideal = Subspace(pres.field, pres.ring.dim, pres.ideal.basis[:1])
        return pres

    monkeypatch.setattr(cli, "presentation_from_ideal", truncated_ideal)
    assert main(["present", path]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert "failed to reconstruct the ideal" in out.err


@pytest.mark.parametrize("module, name, document", [
    ("algcert.presentation", "normal_form", "gf3_cubic"),
    ("algcert.certify", "semisimple_block_sizes", "gf3_cubic"),
    ("algcert.certify", "isotropy", "quadric_presentation"),
    ("algcert.certify", "flag_search", "quadric_presentation"),
], ids=["normal_form", "semisimple_block_sizes", "isotropy", "flag_search"])
def test_inconsistency_inside_analyze_is_not_degraded(module, name, document,
                                                      request, monkeypatch,
                                                      capsys):
    # analyze records any other error raised at these points as an unknown
    # invariant; an internal inconsistency must abort with exit 4 instead
    def broken(*args, **kwargs):
        raise InternalInconsistency(f"{name} check failed")

    monkeypatch.setattr(importlib.import_module(module), name, broken)
    assert main(["analyze", request.getfixturevalue(document)]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert f"{name} check failed" in out.err


@pytest.mark.parametrize("primes", ["0", "4", "1", "-5", "2147483648", "5,x", "", "5,,7"])
def test_bad_primes_exit_2(tmp_path, primes, capsys):
    # a non-diagonal cubic, so the nonsingularity scan reads the primes
    path = _write(tmp_path, "hesse.json", {
        "kind": "presentation", "field": {"type": "Q"}, "n_vars": 3,
        "trunc_degree": 5, "generators": ["X1^3+X2^3+X3^3+X1*X2*X3"]})
    assert main(["analyze", path, "--height-bound", "2", "--primes", primes]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--primes" in out.err


@pytest.mark.parametrize("flag,value", [("--height-bound", "-3"), ("--max-enum", "-1")])
def test_negative_bound_exit_2(tmp_path, flag, value, capsys):
    # a negative bound is refused up front, not read as an empty search
    path = _write(tmp_path, "quadric.json", {
        "kind": "presentation", "field": {"type": "Q"}, "n_vars": 3,
        "trunc_degree": 4, "generators": ["X1^2+X2^2-3*X3^2"]})
    assert main(["analyze", path, flag, value]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert flag in out.err


def test_good_primes_accepted(tmp_path, capsys):
    path = _write(tmp_path, "hesse.json", {
        "kind": "presentation", "field": {"type": "Q"}, "n_vars": 3,
        "trunc_degree": 5, "generators": ["X1^3+X2^3+X3^3+X1*X2*X3"]})
    assert main(["analyze", path, "--height-bound", "2", "--primes", "5, 7,2147483647"]) == 0
    assert json.loads(capsys.readouterr().out)


def test_analyze_over_enumeration_bound_exits_3(gf3_cubic, capsys):
    # the radical is refused when p^d exceeds --max-enum, as the element
    # enumeration the Frobenius kernel replaced refused it
    assert main(["analyze", gf3_cubic, "--max-enum", "26"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert {"invariant": "radical",
            "reason": "scan needs 27 elements, bound is 26"} in payload["unknowns"]
    assert main(["analyze", gf3_cubic, "--max-enum", "27"]) == 0


def test_der_over_large_prime_has_no_ker_phi(gf3_cubic, capsys):
    assert main(["der", gf3_cubic, "--field", "GFp:2147483647"]) == 0
    assert json.loads(capsys.readouterr().out) == {"dim_der": 2, "dim_ker_phi_lie": None}


def test_huge_truncated_ring_exits_3_quickly(tmp_path, capsys):
    path = _write(tmp_path, "huge.json", {
        "kind": "presentation",
        "field": {"type": "Q"},
        "n_vars": 30,
        "trunc_degree": 30,
        "generators": ["X1^2"],
    })
    start = time.perf_counter()
    assert main(["analyze", path]) == 3
    assert time.perf_counter() - start < 1
    assert "bound is 100000" in capsys.readouterr().err
