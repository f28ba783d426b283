"""Command-line front end: parse input documents, dispatch analyses, and emit
certificates as canonical JSON or plain text.

Exit codes: 0 success, 2 malformed input (schema, scalars, axioms),
3 unsupported computation for the given input, 4 internal inconsistency
(a computed result contradicted itself; no certificate is printed).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .algebra import StructureAlgebra, der_into, derivation_algebra, jacobson_radical
from .certify import CertifyConfig, certify, verify_invariant_pair
from .errors import (AlgcertError, BadScalar, InternalInconsistency,
                     NonAssociative, NotAdmissible, NotUnital,
                     OutOfRangeVariable, PolySyntaxError, SchemaError,
                     UnsupportedRadicalComputation)
from .fields import Field, PrimeField, field_from_json, parse_field_flag
from .oracle import enumerate_automorphisms, induced_jj2_matrices
from .poly import parse_poly
from .presentation import (Presentation, is_graded_presentation,
                           is_monomial_ideal, normal_form,
                           presentation_from_algebra, presentation_from_ideal,
                           quotient_algebra)

_SCHEMA_ERRORS = (SchemaError, BadScalar, PolySyntaxError, OutOfRangeVariable,
                  NonAssociative, NotUnital, NotAdmissible, json.JSONDecodeError)


def _load_document(path: str, field_override: Field | None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SchemaError("input document must be an object with a 'kind' key")
    field = field_override
    if field is None:
        if "field" not in doc:
            raise SchemaError("input document is missing 'field'")
        field = field_from_json(doc["field"])
    kind = doc["kind"]
    if kind == "structure_constants":
        return _load_structure(doc, field), doc
    if kind == "presentation":
        return _load_presentation(doc, field), doc
    if kind == "invariant_pair":
        return _load_invariant_pair(doc, field), doc
    raise SchemaError(f"unknown document kind {kind!r}")


def _load_structure(doc: dict, field: Field) -> StructureAlgebra:
    try:
        dim = int(doc["dim"])
        one = doc["one"]
        table = doc["table"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad structure-constant document: {exc}") from exc
    if not (isinstance(table, list) and len(table) == dim
            and isinstance(one, list) and len(one) == dim):
        raise SchemaError("structure-constant dimensions are inconsistent")
    for row in table:
        if not (isinstance(row, list) and len(row) == dim
                and all(isinstance(c, list) and len(c) == dim for c in row)):
            raise SchemaError("structure tensor is not dim x dim x dim")
    return StructureAlgebra(field, table, one)


def _load_presentation(doc: dict, field: Field) -> Presentation:
    try:
        n = int(doc["n_vars"])
        trunc = int(doc["trunc_degree"])
        gens = doc["generators"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad presentation document: {exc}") from exc
    if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
        raise SchemaError("presentation generators must be strings")
    polys = [parse_poly(g, n, field) for g in gens]
    return presentation_from_ideal(n, trunc, polys, field)


def _load_invariant_pair(doc: dict, field: Field):
    try:
        n = int(doc["n_vars"])
        trunc = int(doc["trunc_degree"])
        q_text = doc["q"]
        f_text = doc["f"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad invariant-pair document: {exc}") from exc
    return {"q": parse_poly(q_text, n, field),
            "f": parse_poly(f_text, n, field),
            "trunc_degree": trunc}


def _prime_entry(text: str) -> int:
    try:
        return PrimeField(int(text)).p
    except (ValueError, BadScalar) as exc:
        raise BadScalar(f"--primes entry {text!r} is not a prime in [2, 2^31)") from exc


def _config_from_args(args) -> CertifyConfig:
    for flag, bound in (("--height-bound", args.height_bound), ("--max-enum", args.max_enum)):
        if bound is not None and bound < 0:
            raise SchemaError(f"{flag} must be a nonnegative integer, got {bound}")
    cfg = CertifyConfig()
    if args.height_bound is not None:
        cfg.height_bound = args.height_bound
    if args.primes is not None:
        cfg.primes = tuple(_prime_entry(p) for p in args.primes.split(","))
    if args.max_enum is not None:
        cfg.max_enum = args.max_enum
    return cfg


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
        return
    _emit_text(payload)


def _emit_text(payload: dict, indent: str = "") -> None:
    for key in sorted(payload):
        val = payload[key]
        if isinstance(val, dict):
            print(f"{indent}{key}:")
            _emit_text(val, indent + "  ")
        elif key == "verdicts" and isinstance(val, list):
            print(f"{indent}verdicts:")
            for v in val:
                ev = " ".join(f"{k}={v['evidence'][k]}" for k in sorted(v["evidence"]))
                print(f"{indent}  {v['flag']}  [{v['rule']}]  {ev}".rstrip())
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            print(f"{indent}{key}:")
            for item in val:
                _emit_text(item, indent + "  ")
        else:
            print(f"{indent}{key}: {val}")


def _radical_report(algebra: StructureAlgebra, cfg: CertifyConfig) -> dict:
    rad = jacobson_radical(algebra, scan_bound=cfg.max_enum)
    return {"dim_radical": rad.radical.dim,
            "lowey_length": rad.lowey_length,
            "dim_jj2": rad.jj2_dim,
            "power_dims": [p.dim for p in rad.powers]}


def _present_report(pres: Presentation) -> dict:
    nf = normal_form(pres)
    return {"n_vars": pres.n_vars,
            "trunc_degree": pres.lowey,
            "dim_ideal_slice": pres.ideal.dim,
            "generators": [str(g) for g in nf.generators],
            "is_monomial": is_monomial_ideal(pres),
            "property_star_r": nf.property_star_r,
            "is_graded": is_graded_presentation(pres, nf)}


def _der_report(algebra: StructureAlgebra, cfg: CertifyConfig) -> dict:
    der = derivation_algebra(algebra)
    out = {"dim_der": der.dim}
    try:
        rad = jacobson_radical(algebra, scan_bound=cfg.max_enum)
        out["dim_ker_phi_lie"] = der_into(algebra, rad, rad.square, der=der).dim
    except UnsupportedRadicalComputation:
        out["dim_ker_phi_lie"] = None
    return out


def _as_algebra(obj) -> StructureAlgebra:
    if isinstance(obj, StructureAlgebra):
        return obj
    return quotient_algebra(obj)


def _run(args) -> int:
    field_override = parse_field_flag(args.field) if args.field else None
    cfg = _config_from_args(args)
    obj, _doc = _load_document(args.input, field_override)
    if args.command == "analyze":
        target = obj if not isinstance(obj, dict) else None
        if target is None:
            raise SchemaError("analyze expects structure constants or a presentation")
        cert = certify(target, cfg)
        payload = cert.to_dict()
        _emit(payload, args.format)
        if any(u.get("invariant") == "radical" for u in cert.unknowns):
            return 3
        return 0
    if args.command == "radical":
        _emit(_radical_report(_as_algebra(obj), cfg), args.format)
        return 0
    if args.command == "present":
        if isinstance(obj, StructureAlgebra):
            rad = jacobson_radical(obj, scan_bound=cfg.max_enum)
            pres = presentation_from_algebra(obj, rad)
        else:
            pres = obj
        _emit(_present_report(pres), args.format)
        return 0
    if args.command == "der":
        _emit(_der_report(_as_algebra(obj), cfg), args.format)
        return 0
    if args.command == "oracle-aut":
        algebra = _as_algebra(obj)
        if not isinstance(algebra.field, PrimeField):
            raise UnsupportedRadicalComputation("oracle-aut needs a GF(p) input")
        try:
            rad = jacobson_radical(algebra, scan_bound=cfg.max_enum)
        except UnsupportedRadicalComputation:
            rad = None
        group = enumerate_automorphisms(algebra, rad, max_enum=cfg.max_enum)
        payload = {"order": group.order}
        if rad is not None:
            act = induced_jj2_matrices(group, algebra, rad)
            payload["image_order"] = act.image_order
            payload["kernel_count"] = act.kernel_count
        _emit(payload, args.format)
        return 0
    if args.command == "invariant-pair":
        if not isinstance(obj, dict):
            raise SchemaError("invariant-pair expects an invariant-pair document")
        report = verify_invariant_pair(obj["q"], obj["f"], obj["trunc_degree"], cfg)
        _emit(report, args.format)
        return 0
    raise SchemaError(f"unknown command {args.command!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algcert",
        description="Structural invariants and rationality certificates for "
                    "finite-dimensional associative algebras over Q and GF(p).")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
            ("analyze", "full pipeline: radical, complement, presentation, "
                        "forms, certificate"),
            ("radical", "Jacobson radical and its power filtration"),
            ("present", "quiver-style presentation of a split local "
                        "commutative algebra"),
            ("der", "derivation Lie algebra dimensions"),
            ("oracle-aut", "exhaustive automorphism enumeration over GF(p)"),
            ("invariant-pair", "structural checks for a user-supplied (q, f) pair")):
        p = sub.add_parser(name, help=desc)
        p.add_argument("input", help="path to a JSON input document")
        p.add_argument("--field", default=None,
                       help="override the document field: Q or GFp:<p>")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--height-bound", type=int, default=None)
        p.add_argument("--primes", default=None,
                       help="comma-separated primes for nonsingularity scans")
        p.add_argument("--max-enum", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except _SCHEMA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistency as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except AlgcertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
