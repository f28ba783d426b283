"""Decision engine: combines the computed invariants into a certificate of
verdict flags, each tied to one applicability-guarded rule with the concrete
numbers it used.  Rules whose guards fail are skipped (logged at debug
level); failed sub-computations degrade to UNKNOWN entries instead of
aborting, and properties no rule could decide are listed as unknown.  An
InternalInconsistency is not an input failure and always propagates.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as dc_field
from math import isqrt

from .algebra import (Coordinates, RadicalData, StructureAlgebra,
                      _split_components, center, der_into, derivation_algebra,
                      induced_algebra, is_nilpotent, jacobson_radical,
                      wm_complement)
from .errors import (AlgcertError, DegreeOutOfRange, InternalInconsistency,
                     NotHomogeneous, NotSplitBasic, UnsupportedRadicalComputation)
from .fields import Field, scalar_to_json
from .forms import (FlagSearchResult, IsotropyEvidence, NonsingularityEvidence,
                    flag_search, im_phi_lie, isotropy, nonsingularity,
                    quadratic_from_poly, restricted_action, sim_lie, stab_lie)
from .linalg import Matrix, Subspace, kernel
from .poly import Poly
from .presentation import (MinimalDegreeSubspace, NormalForm, Presentation,
                           is_graded_presentation, is_monomial_ideal,
                           minimal_degree_subspace, normal_form,
                           presentation_from_algebra, quotient_algebra)
from .roots import minimal_polynomial, roots_in_field


logger = logging.getLogger(__name__)

RULE_IDS = ("R-SEMI", "R-RED", "R-J2", "R-DIM5", "R-RANKUB", "R-MONO",
            "R-STAR", "R-QRAT", "R-QANIS", "R-NONSING", "R-W1", "R-FLAG",
            "R-NILP", "R-DIM7", "R-ISO")

DECIDABLE_FLAGS = ("SEMISIMPLE", "REDUCTIVE", "R_TRIVIAL", "RATIONAL",
                   "STABLY_RATIONAL", "NOT_K_SPLIT")


@dataclass
class CertifyConfig:
    height_bound: int = 50
    primes: tuple = (5, 7, 11, 13)
    max_enum: int = 10**7
    max_structure_dim: int = 30   # skip d^2-unknown solves above this dimension
    max_flag_dim: int = 16


@dataclass
class Verdict:
    flag: str
    rule: str
    evidence: dict


@dataclass
class Note:
    rule: str
    text: str
    evidence: dict


@dataclass
class Certificate:
    summary: dict
    invariants: dict
    verdicts: list
    notes: list
    unknowns: list

    def flags(self) -> set:
        return {v.flag for v in self.verdicts}

    def rules_fired(self) -> set:
        return {v.rule for v in self.verdicts}

    def verdict_for(self, rule: str) -> list:
        return [v for v in self.verdicts if v.rule == rule]

    def to_dict(self) -> dict:
        return {
            "summary": self.summary,
            "invariants": self.invariants,
            "verdicts": [{"flag": v.flag, "rule": v.rule, "evidence": v.evidence}
                         for v in self.verdicts],
            "notes": [{"rule": n.rule, "text": n.text, "evidence": n.evidence}
                      for n in self.notes],
            "unknowns": self.unknowns,
        }


# -- splitness of semisimple quotients ------------------------------------------

def _element_min_poly(alg: StructureAlgebra, b) -> list:
    def powers():
        cur = list(alg.one)
        while True:
            yield cur
            cur = alg.multiply(cur, b)
    return minimal_polynomial(powers(), alg.field)


def _idempotents_from_element(alg: StructureAlgebra, b) -> list:
    """Lagrange idempotents of an element whose minimal polynomial splits
    into distinct linear factors; empty list otherwise."""
    f = alg.field
    mp = _element_min_poly(alg, b)
    deg = len(mp) - 1
    if deg < 2:
        return []
    roots = roots_in_field(mp, f)
    if len(roots) != deg:
        return []
    out = []
    for lam in roots:
        e = list(alg.one)
        scale = f.one
        for mu in roots:
            if mu == lam:
                continue
            shifted = [f.sub(x, f.mul(mu, u)) for x, u in zip(b, alg.one)]
            e = alg.multiply(e, shifted)
            scale = f.mul(scale, f.sub(lam, mu))
        inv = f.inv(scale)
        out.append([f.mul(inv, x) for x in e])
    return out


def _corner_has_rank_one(alg: StructureAlgebra) -> bool:
    """True when the algebra contains a primitive idempotent with a
    one-dimensional corner (certifying a split block)."""
    if alg.dim == 1:
        return True
    full = Subspace.full(alg.field, alg.dim)
    for b in full.basis:
        for e in _idempotents_from_element(alg, b):
            corner = alg.product_span(e, full, e)
            if corner.dim == 1:
                return True
            if 1 < corner.dim < alg.dim and _corner_has_rank_one(
                    induced_algebra(alg.multiply, Coordinates.subspace(corner), e)):
                return True
    return False


def semisimple_block_sizes(algebra: StructureAlgebra) -> list | None:
    """Certify a semisimple algebra as a sum of split matrix blocks.

    Returns the sorted block sizes [n_1..n_m] with sum n_i^2 = dim, or None
    when splitness could not be established over the base field.
    """
    full = Subspace.full(algebra.field, algebra.dim)
    zcoords = Coordinates.subspace(center(algebra))
    try:
        pieces = _split_components(
            induced_algebra(algebra.multiply, zcoords, algebra.one))
    except NotSplitBasic:
        return None
    sizes = []
    for ubar, _ in pieces:
        zi = zcoords.lift(ubar)
        comp = algebra.product_span(zi, full)
        m = isqrt(comp.dim)
        if m * m != comp.dim:
            return None
        if not _corner_has_rank_one(
                induced_algebra(algebra.multiply, Coordinates.subspace(comp), zi)):
            return None
        sizes.append(m)
    return sorted(sizes)


def quotient_structure(algebra: StructureAlgebra, rad: RadicalData) -> StructureAlgebra:
    """A/J as a structure-constant algebra."""
    coords = Coordinates.quotient(rad.radical)
    return induced_algebra(algebra.multiply, coords, algebra.one,
                           known_radical=Subspace.zero(algebra.field, coords.dim))


# -- shape reports ----------------------------------------------------------------

@dataclass
class TorusShapeReport:
    matches: bool
    torus_rank: int | None
    component_dims: list


def torus_shape_check(algebra: StructureAlgebra,
                      rad: RadicalData | None = None) -> TorusShapeReport | None:
    """Whether A is a sum of copies of k and of k[X]/<X>^2 (the only split
    basic commutative shapes whose automorphism group is a torus)."""
    if not algebra.commutative:
        return None
    if rad is None:
        try:
            rad = jacobson_radical(algebra)
        except UnsupportedRadicalComputation:
            return None
    try:
        wm = wm_complement(algebra, rad)
    except NotSplitBasic:
        return None
    full = Subspace.full(algebra.field, algebra.dim)
    dims = []
    rank = 0
    ok = True
    for e in wm.idempotents:
        comp = algebra.product_span(e, full)
        dims.append(comp.dim)
        if comp.dim == 1:
            continue
        if comp.dim == 2:
            ji = comp.intersect(rad.radical)
            sq = algebra.subspace_product(ji, ji)
            if ji.dim == 1 and sq.dim == 0:
                rank += 1
                continue
        ok = False
    return TorusShapeReport(ok, rank if ok else None, sorted(dims))


@dataclass
class ReductiveShapeReport:
    gl_factors: list
    sandwich_dims: dict


def reductive_shape(algebra: StructureAlgebra, rad: RadicalData) -> ReductiveShapeReport | None:
    """Isotypic multiplicities of J as an A_s-bimodule when J^2 = 0 and the
    algebra is split basic; the connected automorphism group is the product
    of GL over the returned factors."""
    if rad.square.dim != 0:
        return None
    try:
        wm = wm_complement(algebra, rad)
    except NotSplitBasic:
        return None
    factors = []
    sandwich = {}
    for i, ei in enumerate(wm.idempotents):
        for j, ej in enumerate(wm.idempotents):
            lam = algebra.product_span(ei, rad.radical, ej).dim
            if lam > 0:
                sandwich[f"e{i + 1}.J.e{j + 1}"] = lam
                factors.append(lam)
    if sum(factors) != rad.radical.dim:
        return None
    return ReductiveShapeReport(sorted(factors), sandwich)


# -- invariant context -------------------------------------------------------------

@dataclass
class _Context:
    field: Field
    dim: int | None = None
    algebra: StructureAlgebra | None = None
    rad: RadicalData | None = None
    blocks: list | None = None            # certified split block sizes of A/J
    split: bool = False
    split_basic: bool = False
    split_local: bool = False
    commutative: bool | None = None
    center_dim: int | None = None
    pres: Presentation | None = None
    nf: NormalForm | None = None
    graded: bool | None = None
    star_r: int | None = None
    monomial: bool | None = None
    w: MinimalDegreeSubspace | None = None
    quad: IsotropyEvidence | None = None
    quad_nondegenerate: bool | None = None
    single_generator: bool | None = None
    gen_degree: int | None = None
    nonsing: NonsingularityEvidence | None = None
    nonsing_poly: Poly | None = None
    flag: FlagSearchResult | None = None
    side_cache: dict = dc_field(default_factory=dict)
    dim_der: int | None = None
    dim_ker_phi: int | None = None
    dim_im_phi: int | None = None
    der_nilpotent: bool | None = None
    unknowns: list = dc_field(default_factory=list)
    torus_report: TorusShapeReport | None = None
    reductive_report: ReductiveShapeReport | None = None

    def unknown(self, invariant: str, reason: str):
        self.unknowns.append({"invariant": invariant, "reason": reason})

    def unknown_property(self, flag: str):
        self.unknowns.append({"property": flag, "reason": "no rule fired"})


def _nonsingular_side_condition(ctx: _Context, poly: Poly,
                                config: CertifyConfig) -> tuple[bool, dict]:
    """Evaluate the nonsingular-element hypothesis (with its characteristic
    and degree constraints) on one polynomial; returns (met, evidence)."""
    key = str(poly)
    if key in ctx.side_cache:
        met, ev = ctx.side_cache[key]
        return met, dict(ev)
    char = ctx.field.characteristic
    d = poly.degree()
    evidence: dict = {"element": str(poly), "degree": d}
    if char == 0:
        degree_ok = d >= 3
    else:
        degree_ok = char > 3 and 2 < d < char
    evidence["degree_constraint_met"] = degree_ok
    try:
        ev = nonsingularity(poly, height_bound=config.height_bound,
                            primes=config.primes, max_enum=config.max_enum)
    except AlgcertError as exc:
        evidence["nonsingularity"] = f"not evaluated: {exc}"
        ctx.side_cache[key] = (False, evidence)
        return False, evidence
    evidence["nonsingularity"] = ev.verdict
    if ev.witness is not None:
        evidence["witness"] = [scalar_to_json(ctx.field, x) for x in ev.witness]
    ctx.nonsing = ev
    ctx.nonsing_poly = poly
    met = degree_ok and ev.verdict == "NONSINGULAR_CERTIFIED"
    ctx.side_cache[key] = (met, dict(evidence))
    return met, evidence


def _build_context_from_algebra(algebra: StructureAlgebra,
                                config: CertifyConfig) -> _Context:
    ctx = _Context(field=algebra.field)
    ctx.algebra = algebra
    ctx.dim = algebra.dim
    ctx.commutative = algebra.commutative
    try:
        ctx.rad = jacobson_radical(algebra, scan_bound=config.max_enum)
    except UnsupportedRadicalComputation as exc:
        ctx.unknown("radical", str(exc))
        return ctx
    ctx.center_dim = center(algebra).dim
    try:
        quot = quotient_structure(algebra, ctx.rad) \
            if ctx.rad.radical.dim else algebra
        ctx.blocks = semisimple_block_sizes(quot)
    except AlgcertError as exc:
        ctx.blocks = None
        ctx.unknown("splitness", str(exc))
    if ctx.blocks is not None:
        ctx.split = True
        ctx.split_basic = all(n == 1 for n in ctx.blocks)
        ctx.split_local = ctx.blocks == [1]
    else:
        ctx.unknown("splitness", "A/J not certified split over the base field")
    if ctx.split_basic and ctx.commutative:
        ctx.torus_report = torus_shape_check(algebra, ctx.rad)
    _attach_derivations(ctx, algebra, config)
    if ctx.split_local and ctx.commutative and ctx.rad.jj2_dim >= 1:
        try:
            ctx.pres = presentation_from_algebra(algebra, ctx.rad)
        except AlgcertError as exc:
            ctx.unknown("presentation", str(exc))
    if ctx.pres is not None:
        _attach_presentation_invariants(ctx, config)
    return ctx


def _attach_derivations(ctx: _Context, algebra: StructureAlgebra,
                        config: CertifyConfig):
    if algebra.dim > config.max_structure_dim:
        ctx.unknown("derivations",
                    f"dimension {algebra.dim} exceeds limit {config.max_structure_dim}")
        return
    der = derivation_algebra(algebra)
    ctx.dim_der = der.dim
    if ctx.rad is not None:
        ctx.dim_ker_phi = der_into(algebra, ctx.rad, ctx.rad.square, der=der).dim
    ctx.der_nilpotent = is_nilpotent(der)


def _build_context_from_presentation(pres: Presentation,
                                     config: CertifyConfig) -> _Context:
    ctx = _Context(field=pres.field)
    ctx.pres = pres
    ctx.commutative = True
    ctx.split = True
    ctx.split_basic = True
    ctx.split_local = True
    ctx.dim = pres.algebra_dim()
    ctx.center_dim = ctx.dim
    if ctx.dim <= config.max_structure_dim:
        algebra = quotient_algebra(pres)
        ctx.algebra = algebra
        ctx.rad = jacobson_radical(algebra)
        _attach_derivations(ctx, algebra, config)
        if algebra.commutative:
            ctx.torus_report = torus_shape_check(algebra, ctx.rad)
    else:
        ctx.unknown("structure_constants",
                    f"dimension {ctx.dim} exceeds limit {config.max_structure_dim}")
    _attach_presentation_invariants(ctx, config)
    return ctx


def _attach_presentation_invariants(ctx: _Context, config: CertifyConfig):
    pres = ctx.pres
    ctx.nf = normal_form(pres)
    ctx.monomial = is_monomial_ideal(pres)
    ctx.star_r = ctx.nf.property_star_r
    ctx.graded = is_graded_presentation(pres, ctx.nf)
    ctx.w = minimal_degree_subspace(pres)
    gens = ctx.nf.generators
    ctx.single_generator = len(gens) == 1
    if ctx.single_generator:
        ctx.gen_degree = gens[0].degree()
        if gens[0].is_homogeneous() and ctx.gen_degree == 2 \
                and ctx.field.characteristic != 2:
            q = quadratic_from_poly(gens[0])
            ctx.quad_nondegenerate = kernel(q.gram).dim == 0
            try:
                ctx.quad = isotropy(q, height_bound=config.height_bound,
                                    max_enum=config.max_enum)
            except AlgcertError as exc:
                ctx.unknown("isotropy", str(exc))
    if ctx.graded and not ctx.w.is_power_slice and ctx.w.dim <= config.max_flag_dim:
        try:
            lie = im_phi_lie(pres)
            ctx.dim_im_phi = lie.dim
            ops = restricted_action(lie, ctx.w)
            ctx.flag = flag_search(ops, ctx.field, dim_w=ctx.w.dim)
        except AlgcertError as exc:
            ctx.unknown("flag_search", str(exc))
    elif ctx.graded:
        try:
            ctx.dim_im_phi = im_phi_lie(pres).dim
        except AlgcertError as exc:
            ctx.unknown("im_phi_lie", str(exc))


# -- the rules ---------------------------------------------------------------------

def _run_rules(ctx: _Context, config: CertifyConfig) -> tuple[list, list]:
    verdicts: list[Verdict] = []
    notes: list[Note] = []

    def fire(flag, rule, **evidence):
        verdicts.append(Verdict(flag, rule, evidence))

    rad = ctx.rad
    dim_j = rad.radical.dim if rad else None
    dim_j2 = rad.square.dim if rad else None
    dim_jj2 = rad.jj2_dim if rad else (ctx.pres.n_vars if ctx.pres else None)
    lowey = rad.lowey_length if rad else (ctx.pres.lowey if ctx.pres else None)

    # R-SEMI
    if rad is not None and dim_j == 0 and ctx.split:
        fire("SEMISIMPLE", "R-SEMI", dim_j=0, blocks=ctx.blocks)
        fire("R_TRIVIAL", "R-SEMI", dim_j=0, blocks=ctx.blocks)

    # R-RED
    if rad is not None and ctx.split and dim_j2 == 0 and ctx.algebra is not None:
        zed = center(ctx.algebra)
        if zed.contains_space(rad.radical):
            fire("REDUCTIVE", "R-RED", dim_j2=0, radical_central=True)
            fire("R_TRIVIAL", "R-RED", dim_j2=0, radical_central=True)
            rep = reductive_shape(ctx.algebra, rad)
            if rep is not None:
                ctx.reductive_report = rep

    # R-J2
    if ctx.split and dim_j2 == 0 and rad is not None:
        fire("R_TRIVIAL", "R-J2", dim_j2=0)

    # R-DIM5
    if ctx.split and dim_jj2 is not None and dim_jj2 <= 5:
        fire("R_TRIVIAL", "R-DIM5", dim_jj2=dim_jj2)
        if ctx.split_local:
            fire("STABLY_RATIONAL", "R-DIM5", dim_jj2=dim_jj2)

    # R-RANKUB
    if ctx.split_local and dim_jj2 is not None:
        fire("RANK_UPPER_BOUND", "R-RANKUB", bound=dim_jj2)

    # R-MONO
    if ctx.pres is not None and ctx.monomial:
        n = ctx.pres.n_vars
        fire("RANK_LOWER_BOUND", "R-MONO", bound=n)
        fire("RATIONAL", "R-MONO", rank=n, dim_jj2=n)
        fire("R_TRIVIAL", "R-MONO", rank=n)

    # R-STAR
    if ctx.pres is not None and ctx.star_r is not None:
        fire("RANK_LOWER_BOUND", "R-STAR", bound=ctx.star_r)

    # R-QRAT
    if ctx.single_generator and ctx.quad_nondegenerate \
            and ctx.field.characteristic != 2:
        fire("RATIONAL", "R-QRAT", generator=str(ctx.nf.generators[0]),
             gram_nondegenerate=True)

    # R-QANIS
    if ctx.single_generator and ctx.quad is not None \
            and ctx.quad.verdict == "ANISOTROPIC_CERTIFIED" \
            and ctx.field.characteristic != 2 and lowey is not None and lowey > 2:
        fire("NOT_K_SPLIT", "R-QANIS", generator=str(ctx.nf.generators[0]),
             isotropy="ANISOTROPIC_CERTIFIED", method=ctx.quad.method,
             lowey=lowey)

    # R-NONSING
    if ctx.pres is not None and ctx.graded and ctx.w is not None \
            and not ctx.w.is_power_slice and ctx.w.dim == 1 \
            and ctx.w.degree >= 3:
        met, evidence = _nonsingular_side_condition(ctx, ctx.w.polys[0], config)
        if met:
            fire("RATIONAL", "R-NONSING", **evidence)
            fire("RANK_LOWER_BOUND", "R-NONSING", bound=1, exact_rank=1)
        elif evidence.get("nonsingularity") == "PROBABLY_NONSINGULAR":
            notes.append(Note("R-NONSING",
                              "RATIONAL probable only: nonsingularity is "
                              "supported by prime reductions, not certified",
                              evidence))

    # R-W1
    if ctx.pres is not None and ctx.graded and ctx.w is not None \
            and not ctx.w.is_power_slice and ctx.w.dim == 1:
        met, evidence = _nonsingular_side_condition(ctx, ctx.w.polys[0], config)
        evidence["dim_w"] = 1
        evidence["w_degree"] = ctx.w.degree
        if met:
            fire("RATIONAL", "R-W1", **evidence)
        elif evidence.get("nonsingularity") == "PROBABLY_NONSINGULAR":
            notes.append(Note("R-W1",
                              "RATIONAL probable only: dim W = 1 but the "
                              "nonsingular element is not certified",
                              evidence))
        else:
            notes.append(Note("R-W1",
                              "verdict withheld: dim W = 1 but the "
                              "nonsingularity side-condition failed",
                              evidence))

    # R-FLAG
    if ctx.flag is not None and ctx.flag.status == "FULL_FLAG" \
            and ctx.w is not None and ctx.w.dim > 1:
        found = None
        for cand in _w_element_candidates(ctx):
            met, evidence = _nonsingular_side_condition(ctx, cand, config)
            if met:
                found = (cand, evidence)
                break
        if found is not None:
            _, evidence = found
            evidence["flag"] = "FULL_FLAG"
            evidence["dim_w"] = ctx.w.dim
            fire("RATIONAL", "R-FLAG", **evidence)
        else:
            notes.append(Note("R-FLAG",
                              "full rational flag found but no certified "
                              "nonsingular element in W",
                              {"dim_w": ctx.w.dim}))

    # R-NILP
    if ctx.der_nilpotent and ctx.split:
        if ctx.field.characteristic == 0:
            fire("RATIONAL", "R-NILP", dim_der=ctx.dim_der, lie_nilpotent=True)
        else:
            notes.append(Note("R-NILP",
                              "derivation algebra is nilpotent, but the "
                              "group-level nilpotency identification is not "
                              "claimed in characteristic p",
                              {"dim_der": ctx.dim_der}))

    # R-DIM7
    if ctx.split_local and ctx.dim is not None and ctx.dim <= 7:
        fire("STABLY_RATIONAL", "R-DIM7", dim=ctx.dim)
        fire("R_TRIVIAL", "R-DIM7", dim=ctx.dim)

    # R-ISO
    if ctx.pres is not None and ctx.graded:
        fire("RANK_LOWER_BOUND", "R-ISO", bound=1)
        notes.append(Note("R-ISO",
                          "automorphism group is k-isotropic (central "
                          "one-dimensional torus), in particular not unipotent",
                          {}))

    _check_rank_bounds(verdicts)
    fired = {v.rule for v in verdicts}
    for rule in RULE_IDS:
        if rule not in fired:
            logger.debug("rule %s skipped (guard not met)", rule)
    return verdicts, notes


def _w_element_candidates(ctx: _Context):
    polys = ctx.w.polys
    for p in polys:
        yield p
    for i, a in enumerate(polys):
        for b in polys[i + 1:]:
            yield a.add(b)
            yield a.sub(b)


def _check_rank_bounds(verdicts: list):
    lowers = [v.evidence["bound"] for v in verdicts if v.flag == "RANK_LOWER_BOUND"]
    uppers = [v.evidence["bound"] for v in verdicts if v.flag == "RANK_UPPER_BOUND"]
    if lowers and uppers and max(lowers) > min(uppers):
        raise InternalInconsistency(
            f"rank bounds crossed: lower {max(lowers)} > upper {min(uppers)}")


# -- entry points -------------------------------------------------------------------

def certify(obj, config: CertifyConfig | None = None) -> Certificate:
    """Full decision pipeline on a StructureAlgebra or a Presentation."""
    config = config or CertifyConfig()
    if isinstance(obj, Presentation):
        ctx = _build_context_from_presentation(obj, config)
    elif isinstance(obj, StructureAlgebra):
        ctx = _build_context_from_algebra(obj, config)
    else:
        raise TypeError(f"cannot certify {type(obj).__name__}")
    verdicts, notes = _run_rules(ctx, config)
    decided = {v.flag for v in verdicts}
    for flag in DECIDABLE_FLAGS:
        if flag not in decided:
            ctx.unknown_property(flag)
    return Certificate(_summary(ctx), _invariants(ctx), verdicts, notes,
                       ctx.unknowns)


def _summary(ctx: _Context) -> dict:
    out = {
        "dim": ctx.dim,
        "field": repr(ctx.field),
        "commutative": ctx.commutative,
        "split": ctx.split if ctx.blocks is not None or ctx.split else None,
        "split_basic": ctx.split_basic if ctx.split else None,
        "local": ctx.split_local if ctx.split else None,
    }
    if ctx.blocks is not None:
        out["matrix_blocks"] = ctx.blocks
    return out


def _invariants(ctx: _Context) -> dict:
    inv: dict = {}
    if ctx.rad is not None:
        inv["dim_j"] = ctx.rad.radical.dim
        inv["dim_j2"] = ctx.rad.square.dim
        inv["dim_jj2"] = ctx.rad.jj2_dim
        inv["lowey_length"] = ctx.rad.lowey_length
    elif ctx.pres is not None:
        inv["dim_jj2"] = ctx.pres.n_vars
        inv["lowey_length"] = ctx.pres.lowey
        inv["dim_j"] = ctx.pres.algebra_dim() - 1
    if ctx.center_dim is not None:
        inv["dim_center"] = ctx.center_dim
    for key, val in (("dim_der", ctx.dim_der),
                     ("dim_ker_phi_lie", ctx.dim_ker_phi),
                     ("dim_im_phi_lie", ctx.dim_im_phi),
                     ("derivations_nilpotent", ctx.der_nilpotent),
                     ("is_monomial", ctx.monomial),
                     ("property_star_r", ctx.star_r),
                     ("is_graded", ctx.graded)):
        if val is not None:
            inv[key] = val
    if ctx.nf is not None:
        inv["normal_form_generators"] = [str(g) for g in ctx.nf.generators]
    if ctx.w is not None:
        inv["w_degree"] = ctx.w.degree
        inv["dim_w"] = ctx.w.dim
        inv["w_is_power_slice"] = ctx.w.is_power_slice
    if ctx.quad is not None:
        entry = {"verdict": ctx.quad.verdict, "method": ctx.quad.method}
        if ctx.quad.witness is not None:
            entry["witness"] = [scalar_to_json(ctx.field, x) for x in ctx.quad.witness]
        entry["nondegenerate"] = ctx.quad_nondegenerate
        inv["quadratic_isotropy"] = entry
    if ctx.nonsing is not None:
        entry = {"verdict": ctx.nonsing.verdict, "method": ctx.nonsing.method,
                 "element": str(ctx.nonsing_poly)}
        if ctx.nonsing.witness is not None:
            entry["witness"] = [scalar_to_json(ctx.field, x)
                                for x in ctx.nonsing.witness]
        if ctx.nonsing.primes_used:
            entry["primes_used"] = list(ctx.nonsing.primes_used)
        inv["nonsingularity"] = entry
    if ctx.flag is not None:
        inv["flag_search"] = ctx.flag.status
    if ctx.torus_report is not None:
        inv["torus_shape"] = {"matches": ctx.torus_report.matches,
                              "torus_rank": ctx.torus_report.torus_rank,
                              "component_dims": ctx.torus_report.component_dims}
    if ctx.reductive_report is not None:
        inv["reductive_shape"] = {"gl_factors": ctx.reductive_report.gl_factors,
                                  "sandwich_dims": ctx.reductive_report.sandwich_dims}
    return inv


def verify_invariant_pair(q: Poly, f: Poly, lowey: int,
                    config: CertifyConfig | None = None) -> dict:
    """Structural checks for a user-supplied invariant pair (q, f).

    Builds <X>^l + <f>, verifies the linear-stabilizer chain the single
    generator is expected to satisfy, and reports the dimensions; it never
    claims anything about R-triviality itself.
    """
    config = config or CertifyConfig()
    from .presentation import presentation_from_ideal
    if q.n_vars != f.n_vars:
        raise DegreeOutOfRange("q and f must share the variable count")
    d = f.degree()
    if not (2 < d < lowey):
        raise DegreeOutOfRange(f"need 2 < deg f < l, got deg f = {d}, l = {lowey}")
    if not f.is_homogeneous():
        raise NotHomogeneous("f must be homogeneous")
    pres = presentation_from_ideal(f.n_vars, lowey, [f], f.field)
    im = im_phi_lie(pres)
    sim = sim_lie(f)
    stab = stab_lie(f)
    n = f.n_vars
    eye = Matrix.identity(f.field, n).flatten()
    scalars = Subspace.from_vectors(f.field, n * n, [eye])
    stab_scalars = stab.space.intersect(scalars)
    report = {
        "n_vars": n,
        "lowey": lowey,
        "deg_f": d,
        "dim_im_phi_lie": im.dim,
        "dim_sim_lie": sim.dim,
        "dim_stab_lie": stab.dim,
        "im_phi_equals_sim": im.space == sim.space,
        "stab_meets_scalars_trivially": stab_scalars.dim == 0,
        "sim_is_stab_plus_scalars": sim.dim == stab.dim + 1,
    }
    if q.degree() == 2 and q.field.characteristic != 2 and q.is_homogeneous():
        quad = quadratic_from_poly(q)
        ev = isotropy(quad, height_bound=config.height_bound,
                      max_enum=config.max_enum)
        report["q_isotropy"] = ev.verdict
        report["q_nondegenerate"] = kernel(quad.gram).dim == 0
    return report
