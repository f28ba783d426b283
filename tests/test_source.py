"""Checks on the package source itself."""

import ast
import dataclasses
from pathlib import Path

import pytest

import algcert
from algcert.certify import CertifyConfig

SOURCES = sorted(Path(algcert.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert statements; a check that guards soundness must
    # raise a typed error instead
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES
    assert found == []


def test_elimination_stays_in_linalg():
    # linalg.py is the one elimination core: other modules reach it through
    # rref_rows and the public helpers, never through its internals
    found = [f"{path.name}:{node.lineno}:{alias.name}"
             for path in SOURCES if path.name != "linalg.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom)
             and (node.module, node.level) in (("linalg", 1), ("algcert.linalg", 0))
             for alias in node.names
             if alias.name.startswith(("_", "rref_")) and alias.name != "rref_rows"]
    assert found == []


@pytest.mark.parametrize("names", [
    # brackets of matrix Lie algebras are taken on sparse integer rows in
    # algebra.py; no module keeps a dense commutator beside them
    pytest.param({"mat_bracket"}, id="lie_bracket"),
    # forms.py builds delta_M(h) = sum M_ij X_i dh/dX_j once, as its columns;
    # no module keeps a second construction of it beside them
    pytest.param({"delta_action", "_delta_polys"}, id="linearised_action"),
    # a matrix is the list of its rows, eliminated by rref_rows and
    # kernel_rows; no module keeps a matrix class or wrappers beside them
    pytest.param({"Matrix", "rref", "kernel"}, id="matrix_format"),
    # parse_poly reads polynomial text in one pass over its token list; no
    # module keeps a token class or per-rule parsers beside it
    pytest.param({"_Tokens", "_parse_term", "_parse_factor", "_parse_coeff"},
                 id="poly_parser"),
    # enumerate_automorphisms is one backtracking search on generator
    # images; no module keeps a candidate enumeration or its evaluator beside it
    pytest.param({"_enumerate_general", "_enumerate_local_commutative", "_poly_value"},
                 id="oracle_search"),
    # Der(A) has one solver, derivation_algebra, in the coordinates of the
    # words that Words grows; no module keeps a second word-basis builder or
    # Leibniz forms in the standard basis beside it
    pytest.param({"_word_basis", "leibniz"}, id="derivation_solver"),
    # every basis grows one vector at a time on Coordinates' integer
    # echelon; no module keeps a Fraction echelon beside it
    pytest.param({"Echelon"}, id="basis_growth"),
])
def test_one_construction(names):
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                 and node.name in names)
             or (isinstance(node, ast.Name) and node.id in names
                 and isinstance(node.ctx, ast.Store))
             or (isinstance(node, (ast.Import, ast.ImportFrom))
                 and any(names & {alias.name.split(".")[-1], alias.asname}
                         for alias in node.names))]
    assert SOURCES
    assert found == []


def test_one_product_table():
    # a structure algebra multiplies on its one sparse integer table; no
    # module keeps or reads a second copy of the constants, as field entries
    # or as a dense d x d x d tensor
    found = [f"{path.name}:{node.lineno}: {node.attr}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute)
             and node.attr in {"_cells", "_int_table", "table"}]
    assert SOURCES
    assert found == []


def test_jj2_lifts_taken_once():
    # _radical_data takes the quotient rows of J^2 in J once, as
    # RadicalData.lifts; every other reader of a J/J^2 basis reads those
    found = [f"{path.name}:{call.lineno}"
             for path in SOURCES
             for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             and func.name != "_radical_data"
             for call in ast.walk(func)
             if isinstance(call, ast.Call)
             and getattr(call.func, "id", getattr(call.func, "attr", None))
             in {"quotient_rows", "quotient_basis"}
             and call.args and ast.unparse(call.args[0]).endswith((".square", ".powers[1]"))]
    assert SOURCES
    assert found == []


def test_algebra_grows_bases_in_integers():
    # algebra.py grows a basis (the words, and J's rows B' in _radical_data)
    # on the fraction-free echelon that Coordinates keeps; it neither
    # imports nor names a Fraction Echelon
    tree = ast.parse((Path(algcert.__file__).parent / "algebra.py").read_text(encoding="utf-8"))
    found = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.ImportFrom)
                 and any(alias.name == "Echelon" for alias in node.names))
             or (isinstance(node, ast.Name) and node.id == "Echelon")
             or (isinstance(node, ast.Attribute) and node.attr == "Echelon")]
    assert found == []


def test_minimal_polynomial_takes_one_elimination():
    # roots.minimal_polynomial reads the polynomial off the coordinates of
    # the first dependent power on the echelon that the powers grow; it
    # solves no second system for it
    tree = ast.parse((Path(algcert.__file__).parent / "roots.py").read_text(encoding="utf-8"))
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "minimal_polynomial")
    found = [call.lineno for call in ast.walk(func)
             if isinstance(call, ast.Call)
             and getattr(call.func, "id", getattr(call.func, "attr", None)) == "solve"]
    assert found == []


def test_defaults_defined_once():
    # each DEFAULT_* bound is assigned in one module and imported elsewhere,
    # and CertifyConfig takes its field defaults from those names
    owners = {}
    config_defaults = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            for target in targets:
                if isinstance(target, ast.Name) and target.id.startswith("DEFAULT_"):
                    owners.setdefault(target.id, []).append(path.name)
            if isinstance(node, ast.ClassDef) and node.name == "CertifyConfig":
                config_defaults += [(item.target.id, item.value) for item in node.body
                                    if isinstance(item, ast.AnnAssign)]
    assert owners
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}
    assert config_defaults
    assert [name for name, value in config_defaults
            if not isinstance(value, ast.Name)] == []


def test_config_fields_have_cli_flags():
    # a CertifyConfig field that no command-line flag sets is a knob no
    # caller turns: it should be a constant instead
    cli = ast.parse((Path(algcert.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    func = next(node for node in ast.walk(cli)
                if isinstance(node, ast.FunctionDef) and node.name == "_config_from_args")
    set_by_flags = {target.attr for node in ast.walk(func) if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Attribute)}
    assert {f.name for f in dataclasses.fields(CertifyConfig)} == set_by_flags


def test_parameters_are_read():
    # a parameter the body never reads is one no caller can use: drop it.
    # self and cls are exempt, and so are stubs whose body only raises;
    # lambdas are callbacks whose signature their caller fixes
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stmts = [s for s in node.body if not (isinstance(s, ast.Expr)
                                                  and isinstance(s.value, ast.Constant))]
            if stmts and all(isinstance(s, ast.Raise) for s in stmts):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                      + [a for a in (args.vararg, args.kwarg) if a is not None]]
            read = {n.id for s in node.body for n in ast.walk(s)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [f"{path.name}:{node.lineno}:{name}" for name in params
                      if name not in ("self", "cls") and name not in read]
    assert SOURCES
    assert found == []


def test_no_recompute_defaults():
    # a parameter that defaults to None and that the body fills in when it
    # is left out recomputes a value its caller may hold already: make it
    # required.  The config of the two library entry points is exempt
    exempt = {("certify", "config"), ("verify_invariant_pair", "config")}
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            pairs += list(zip(args.kwonlyargs, args.kw_defaults))
            none_default = {a.arg for a, d in pairs
                            if isinstance(d, ast.Constant) and d.value is None}
            stored = {n.id for s in node.body for n in ast.walk(s)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            found += [f"{path.name}:{node.lineno}:{name}"
                      for name in sorted(none_default & stored)
                      if (node.name, name) not in exempt]
    assert SOURCES
    assert found == []


def test_truncated_ring_has_one_product():
    # TruncatedRing.times is the one monomial product of the presentation
    # layer: presentation.py multiplies no Polys, and T/I is read off the
    # presentation alone, with no option beside it
    tree = ast.parse((Path(algcert.__file__).parent / "presentation.py")
                     .read_text(encoding="utf-8"))
    found = [f"presentation.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "mul"]
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "quotient_algebra")
    args = func.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
              + [a for a in (args.vararg, args.kwarg) if a is not None]]
    assert found == []
    assert params == ["pres"]


def test_der_into_reads_no_matrices():
    # der_into forms D(v) on the Y entries once per J/J^2 lift, through
    # Der's image map; it neither lifts Der's basis to matrices nor reads
    # the structure constants
    tree = ast.parse((Path(algcert.__file__).parent / "algebra.py").read_text(encoding="utf-8"))
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "der_into")
    names = {"_columns", "structure_constants", "basis_matrices"}
    found = [node.lineno for node in ast.walk(func)
             if (isinstance(node, ast.Attribute) and node.attr in names)
             or (isinstance(node, ast.Name) and node.id in names)]
    assert found == []
