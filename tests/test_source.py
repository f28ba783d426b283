"""Checks on the package source itself."""

import ast
import dataclasses
from pathlib import Path

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


def test_one_lie_bracket():
    # brackets of matrix Lie algebras are taken on sparse integer rows in
    # algebra.py; no module keeps a dense commutator beside them
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and node.name == "mat_bracket")
             or (isinstance(node, ast.Name) and node.id == "mat_bracket"
                 and isinstance(node.ctx, ast.Store))
             or (isinstance(node, (ast.Import, ast.ImportFrom))
                 and any("mat_bracket" in (alias.name.split(".")[-1], alias.asname)
                         for alias in node.names))]
    assert SOURCES
    assert found == []


def test_one_linearised_action():
    # forms.py builds delta_M(h) = sum M_ij X_i dh/dX_j once, as its columns;
    # no module keeps a second construction of it beside them
    names = {"delta_action", "_delta_polys"}
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
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
    # module keeps or reads a second copy of the constants as field entries
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "_cells"]
    assert SOURCES
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
