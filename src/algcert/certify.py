"""Decision engine: computes the invariants once into a context, then applies
`RULES`, a table of `Rule(id, guards, fire)` that only reads it.  Guards are
(description, test) pairs checked in order; a rule whose guards all hold
fires its verdicts (each with the concrete numbers it used) and notes, and
for a skipped rule the first failing guard is logged at debug level on the
``algcert.certify`` logger.  Failed sub-computations degrade to UNKNOWN
entries instead of aborting, and properties no rule could decide are listed
as unknown.  An InternalInconsistency is not an input failure and always
propagates.
"""

from __future__ import annotations

import itertools
import logging
from collections.abc import Callable
from dataclasses import dataclass, field as dc_field
from math import isqrt

from .algebra import (DEFAULT_MAX_ENUM, RadicalData, StructureAlgebra,
                      WMDecomposition, _split_components, center, der_into,
                      derivation_algebra, element_idempotents, is_nilpotent,
                      jacobson_radical, lift_idempotents, quotient_structure)
from .errors import (AlgcertError, DegreeOutOfRange, InternalInconsistency,
                     NotHomogeneous, NotSplitBasic, UnsupportedRadicalComputation)
from .fields import Field, scalar_to_json
from .forms import (DEFAULT_HEIGHT_BOUND, DEFAULT_PRIMES, FlagSearchResult,
                    IsotropyEvidence, NonsingularityEvidence, flag_search,
                    im_phi_lie, isotropy, nonsingularity, quadratic_from_poly,
                    restricted_action, sim_lie, stab_lie)
from .linalg import Subspace, kernel_rows
from .poly import Poly
from .presentation import (MinimalDegreeSubspace, NormalForm, Presentation,
                           is_graded_presentation, is_monomial_ideal,
                           minimal_degree_subspace, normal_form,
                           presentation_from_algebra, presentation_from_ideal,
                           quotient_algebra)


logger = logging.getLogger(__name__)

DEFAULT_MAX_STRUCTURE_DIM = 30   # no structure constants or Der(A) above this dimension
DEFAULT_MAX_FLAG_DIM = 16

DECIDABLE_FLAGS = ("SEMISIMPLE", "REDUCTIVE", "R_TRIVIAL", "RATIONAL",
                   "STABLY_RATIONAL", "NOT_K_SPLIT")


@dataclass
class CertifyConfig:
    height_bound: int = DEFAULT_HEIGHT_BOUND
    primes: tuple = DEFAULT_PRIMES
    max_enum: int = DEFAULT_MAX_ENUM


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

def _corner_has_rank_one(alg: StructureAlgebra, unit, space: Subspace) -> bool:
    """True when ``space``, a subalgebra of alg with identity ``unit``,
    contains a primitive idempotent with a one-dimensional corner
    (certifying a split block).  Only elements whose minimal polynomial
    splits into distinct linear factors are used to cut corners."""
    if space.dim == 1:
        return True
    for z in space.basis:
        idems, rest = element_idempotents(alg, z, unit)
        if any(rest):
            continue
        for e in idems:
            corner = alg.product_span(e, space, e)
            if corner.dim == 1:
                return True
            if 1 < corner.dim < space.dim and _corner_has_rank_one(alg, e, corner):
                return True
    return False


def semisimple_block_sizes(algebra: StructureAlgebra, units: list) -> list | None:
    """Certify a semisimple algebra as a sum of split matrix blocks.

    ``units`` are the primitive idempotents of its center, by
    _split_components.  Returns the sorted block sizes [n_1..n_m] with
    sum n_i^2 = dim, or None when splitness could not be established over
    the base field.  The corners are split inside the algebra, in its own
    coordinates.
    """
    full = Subspace.full(algebra.field, algebra.dim)
    sizes = []
    for zi in units:
        comp = algebra.product_span(zi, full)
        m = isqrt(comp.dim)
        if m * m != comp.dim or not _corner_has_rank_one(algebra, zi, comp):
            return None
        sizes.append(m)
    return sorted(sizes)


# -- shape reports ----------------------------------------------------------------

@dataclass
class TorusShapeReport:
    matches: bool
    torus_rank: int | None
    component_dims: list


def torus_shape_check(algebra: StructureAlgebra, rad: RadicalData,
                      wm: WMDecomposition) -> TorusShapeReport | None:
    """Whether A is a sum of copies of k and of k[X]/<X>^2 (the only split
    basic commutative shapes whose automorphism group is a torus), read off
    the components e A of the idempotents of its complement ``wm``."""
    if not algebra.commutative:
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


def reductive_shape(algebra: StructureAlgebra, rad: RadicalData,
                    wm: WMDecomposition) -> ReductiveShapeReport | None:
    """Isotypic multiplicities of J as a bimodule over the complement ``wm``
    when J^2 = 0; the connected automorphism group is the product of GL over
    the returned factors."""
    if rad.square.dim != 0:
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
    rad: RadicalData | None = None
    blocks: list | None = None            # certified split block sizes of A/J
    split: bool = False
    split_basic: bool = False
    split_local: bool = False
    commutative: bool | None = None
    center_dim: int | None = None
    radical_central: bool | None = None
    pres: Presentation | None = None
    nf: NormalForm | None = None
    graded: bool | None = None
    star_r: int | None = None
    monomial: bool | None = None
    w: MinimalDegreeSubspace | None = None
    quad: IsotropyEvidence | None = None
    quad_nondegenerate: bool | None = None
    single_generator: bool | None = None
    nonsing: NonsingularityEvidence | None = None
    nonsing_poly: Poly | None = None
    side_condition: tuple | None = None   # (met, evidence) of the element of W
    flag: FlagSearchResult | None = None
    dim_der: int | None = None
    dim_ker_phi: int | None = None
    dim_im_phi: int | None = None
    der_nilpotent: bool | None = None
    unknowns: list = dc_field(default_factory=list)
    torus_report: TorusShapeReport | None = None
    reductive_report: ReductiveShapeReport | None = None

    @property
    def dim_jj2(self) -> int | None:
        if self.rad is not None:
            return self.rad.jj2_dim
        return self.pres.n_vars if self.pres is not None else None

    @property
    def lowey(self) -> int | None:
        if self.rad is not None:
            return self.rad.lowey_length
        return self.pres.lowey if self.pres is not None else None

    def unknown(self, invariant: str, reason: str):
        self.unknowns.append({"invariant": invariant, "reason": reason})


def _nonsingular_side_condition(ctx: _Context, poly: Poly,
                                config: CertifyConfig) -> tuple[bool, dict]:
    """Evaluate the nonsingular-element hypothesis (with its characteristic
    and degree constraints) on one polynomial; returns (met, evidence)."""
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
        return False, evidence
    evidence["nonsingularity"] = ev.verdict
    if ev.witness is not None:
        evidence["witness"] = [scalar_to_json(ctx.field, x) for x in ev.witness]
    ctx.nonsing = ev
    ctx.nonsing_poly = poly
    return degree_ok and ev.verdict == "NONSINGULAR_CERTIFIED", evidence


def _w_element_candidates(polys: list):
    """The basis of W, then the pairwise sums and differences, each once."""
    pairs = (c for i, a in enumerate(polys) for b in polys[i + 1:]
             for c in (a.add(b), a.sub(b)))
    seen = set()
    for cand in itertools.chain(polys, pairs):
        if str(cand) not in seen:
            seen.add(str(cand))
            yield cand


def _build_context_from_algebra(algebra: StructureAlgebra,
                                config: CertifyConfig) -> _Context:
    ctx = _Context(field=algebra.field)
    ctx.dim = algebra.dim
    ctx.commutative = algebra.commutative
    try:
        ctx.rad = jacobson_radical(algebra, scan_bound=config.max_enum)
    except UnsupportedRadicalComputation as exc:
        ctx.unknown("radical", str(exc))
        return ctx
    zed = center(algebra)
    ctx.center_dim = zed.dim
    ctx.radical_central = zed.contains_space(ctx.rad.radical)
    # A/J is built and its center split once; with every block 1 x 1 the
    # units are A/J's primitive idempotents, taken into A for the lift
    reason = "A/J not certified split over the base field"
    try:
        if ctx.rad.radical.dim:
            quot, coords = quotient_structure(algebra, ctx.rad)
            units = _split_components(quot, center(quot))
            prims = [coords.lift(u) for u in units]
        else:
            quot, units = algebra, _split_components(algebra, zed)
            prims = units
        ctx.blocks = semisimple_block_sizes(quot, units)
    except NotSplitBasic:               # a block of A/J is not split over k
        pass
    except AlgcertError as exc:         # its reason replaces the generic one
        reason = str(exc)
    if ctx.blocks is not None:
        ctx.split = True
        ctx.split_basic = all(n == 1 for n in ctx.blocks)
        ctx.split_local = ctx.blocks == [1]
    else:
        ctx.unknown("splitness", reason)
    if ctx.split_basic:
        _attach_shapes(ctx, algebra, prims)
    _attach_derivations(ctx, algebra)
    if ctx.split_local and ctx.commutative and ctx.rad.jj2_dim >= 1:
        try:
            ctx.pres = presentation_from_algebra(algebra, ctx.rad)
        except AlgcertError as exc:
            ctx.unknown("presentation", str(exc))
    if ctx.pres is not None:
        _attach_presentation_invariants(ctx, config)
    return ctx


def _attach_shapes(ctx: _Context, algebra: StructureAlgebra, prims: list):
    """The torus and reductive shapes of a split basic A, read off one
    Wedderburn-Malcev complement lifted from ``prims``, A/J's primitive
    idempotents taken into A.  It is lifted only when a shape reads it: A
    commutative, or J central with J^2 = 0."""
    if not (ctx.commutative or ctx.radical_central and ctx.rad.square.dim == 0):
        return
    try:
        wm = lift_idempotents(algebra, ctx.rad, prims)
    except NotSplitBasic:
        return
    if ctx.commutative:
        ctx.torus_report = torus_shape_check(algebra, ctx.rad, wm)
    if ctx.radical_central:
        ctx.reductive_report = reductive_shape(algebra, ctx.rad, wm)


def _attach_derivations(ctx: _Context, algebra: StructureAlgebra):
    if algebra.dim > DEFAULT_MAX_STRUCTURE_DIM:
        ctx.unknown("derivations",
                    f"dimension {algebra.dim} exceeds limit {DEFAULT_MAX_STRUCTURE_DIM}")
        return
    der = derivation_algebra(algebra, ctx.rad)     # the radical is known on both paths here
    ctx.dim_der, ctx.dim_ker_phi = der.dim, der_into(der, ctx.rad).dim
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
    if ctx.dim <= DEFAULT_MAX_STRUCTURE_DIM:
        algebra = quotient_algebra(pres)
        ctx.rad = jacobson_radical(algebra)
        ctx.radical_central = True       # commutative: the center is all of A
        _attach_shapes(ctx, algebra, [algebra.one])     # A/J = k, its one idempotent 1
        _attach_derivations(ctx, algebra)
    else:
        ctx.unknown("structure_constants",
                    f"dimension {ctx.dim} exceeds limit {DEFAULT_MAX_STRUCTURE_DIM}")
    _attach_presentation_invariants(ctx, config)
    return ctx


def _attach_presentation_invariants(ctx: _Context, config: CertifyConfig):
    pres = ctx.pres
    ctx.nf = normal_form(pres)
    ctx.monomial = is_monomial_ideal(pres)
    ctx.star_r = ctx.nf.property_star_r
    ctx.graded = is_graded_presentation(ctx.nf)
    ctx.w = minimal_degree_subspace(pres)
    gens = ctx.nf.generators
    ctx.single_generator = len(gens) == 1
    if ctx.single_generator and gens[0].is_homogeneous() \
            and gens[0].degree() == 2 and ctx.field.characteristic != 2:
        q = quadratic_from_poly(gens[0])
        ctx.quad_nondegenerate = kernel_rows(q.gram, q.n, q.field).dim == 0
        try:
            ctx.quad = isotropy(q, height_bound=config.height_bound,
                                max_enum=config.max_enum)
        except AlgcertError as exc:
            ctx.unknown("isotropy", str(exc))
    if ctx.graded and not ctx.w.is_power_slice and ctx.w.dim <= DEFAULT_MAX_FLAG_DIM:
        try:
            lie = im_phi_lie(pres)
            ctx.dim_im_phi = lie.dim
            ops = restricted_action(lie, ctx.w)
            ctx.flag = flag_search(ops, ctx.field, ctx.w.dim)
        except AlgcertError as exc:
            ctx.unknown("flag_search", str(exc))
    elif ctx.graded:
        try:
            ctx.dim_im_phi = im_phi_lie(pres).dim
        except AlgcertError as exc:
            ctx.unknown("im_phi_lie", str(exc))
    # the nonsingular-element hypothesis of R-NONSING and R-W1 (dim W = 1) and
    # of R-FLAG (a full flag): the first candidate in W that meets it, else
    # the last one tried
    full_flag = ctx.flag is not None and ctx.flag.status == "FULL_FLAG"
    if ctx.graded and not ctx.w.is_power_slice and (ctx.w.dim == 1 or full_flag):
        for cand in _w_element_candidates(ctx.w.polys):
            ctx.side_condition = _nonsingular_side_condition(ctx, cand, config)
            if ctx.side_condition[0]:
                break


# -- the rules ---------------------------------------------------------------------

@dataclass(frozen=True)
class Rule:
    """One criterion.  `guards` are (description, test) pairs checked in order
    on the context; when all hold, `fire(ctx, rule_id)` returns the rule's
    Verdicts and Notes.  Neither writes to the context."""
    id: str
    guards: tuple
    fire: Callable


def _verdicts(rule: str, flags: tuple, evidence: dict) -> list:
    return [Verdict(flag, rule, dict(evidence)) for flag in flags]


def _fire_dim5(ctx: _Context, rule: str) -> list:
    flags = ("R_TRIVIAL", "STABLY_RATIONAL") if ctx.split_local else ("R_TRIVIAL",)
    return _verdicts(rule, flags, {"dim_jj2": ctx.dim_jj2})


def _fire_nonsing(ctx: _Context, rule: str) -> list:
    met, evidence = ctx.side_condition
    if met:
        return [Verdict("RATIONAL", rule, dict(evidence)),
                Verdict("RANK_LOWER_BOUND", rule, {"bound": 1, "exact_rank": 1})]
    if evidence["nonsingularity"] == "PROBABLY_NONSINGULAR":
        return [Note(rule, "RATIONAL probable only: nonsingularity is "
                           "supported by prime reductions, not certified",
                     dict(evidence))]
    return []


def _fire_w1(ctx: _Context, rule: str) -> list:
    met, evidence = ctx.side_condition
    evidence = {**evidence, "dim_w": 1, "w_degree": ctx.w.degree}
    if met:
        return [Verdict("RATIONAL", rule, evidence)]
    if evidence["nonsingularity"] == "PROBABLY_NONSINGULAR":
        return [Note(rule, "RATIONAL probable only: dim W = 1 but the "
                           "nonsingular element is not certified", evidence)]
    return [Note(rule, "verdict withheld: dim W = 1 but the "
                       "nonsingularity side-condition failed", evidence)]


def _fire_flag(ctx: _Context, rule: str) -> list:
    met, evidence = ctx.side_condition
    if met:
        return [Verdict("RATIONAL", rule,
                        {**evidence, "flag": "FULL_FLAG", "dim_w": ctx.w.dim})]
    return [Note(rule, "full rational flag found but no certified "
                       "nonsingular element in W", {"dim_w": ctx.w.dim})]


def _fire_nilp(ctx: _Context, rule: str) -> list:
    if ctx.field.characteristic == 0:
        return [Verdict("RATIONAL", rule,
                        {"dim_der": ctx.dim_der, "lie_nilpotent": True})]
    return [Note(rule, "derivation algebra is nilpotent, but the group-level "
                       "nilpotency identification is not claimed in "
                       "characteristic p", {"dim_der": ctx.dim_der})]


_RAD = ("radical known", lambda c: c.rad is not None)
_SPLIT = ("A/J split", lambda c: c.split)
_LOCAL = ("split local", lambda c: c.split_local)
_J2_ZERO = ("J^2 = 0", lambda c: c.rad.square.dim == 0)
_ONE_GEN = ("single generator", lambda c: c.single_generator)
_ODD = ("characteristic not 2", lambda c: c.field.characteristic != 2)
_GRADED = ("graded presentation", lambda c: c.graded)
_W_SLICE = ("W not a power slice", lambda c: not c.w.is_power_slice)
_W_DIM1 = ("dim W = 1", lambda c: c.w.dim == 1)

RULES = (
    Rule("R-SEMI", (_RAD, ("J = 0", lambda c: c.rad.radical.dim == 0), _SPLIT),
         lambda c, r: _verdicts(r, ("SEMISIMPLE", "R_TRIVIAL"),
                                {"dim_j": 0, "blocks": c.blocks})),
    Rule("R-RED", (_RAD, _SPLIT, _J2_ZERO,
                   ("J central", lambda c: c.radical_central)),
         lambda c, r: _verdicts(r, ("REDUCTIVE", "R_TRIVIAL"),
                                {"dim_j2": 0, "radical_central": True})),
    Rule("R-J2", (_SPLIT, _RAD, _J2_ZERO),
         lambda c, r: [Verdict("R_TRIVIAL", r, {"dim_j2": 0})]),
    Rule("R-DIM5", (_SPLIT, ("dim J/J^2 <= 5", lambda c: c.dim_jj2 <= 5)),
         _fire_dim5),
    Rule("R-RANKUB", (_LOCAL,),
         lambda c, r: [Verdict("RANK_UPPER_BOUND", r, {"bound": c.dim_jj2})]),
    Rule("R-MONO", (("monomial ideal", lambda c: c.monomial),), lambda c, r: [
        Verdict("RANK_LOWER_BOUND", r, {"bound": c.pres.n_vars}),
        Verdict("RATIONAL", r, {"rank": c.pres.n_vars, "dim_jj2": c.pres.n_vars}),
        Verdict("R_TRIVIAL", r, {"rank": c.pres.n_vars})]),
    Rule("R-STAR", (("property (*_r)", lambda c: c.star_r is not None),),
         lambda c, r: [Verdict("RANK_LOWER_BOUND", r, {"bound": c.star_r})]),
    Rule("R-QRAT", (_ONE_GEN, ("nondegenerate quadric",
                               lambda c: c.quad_nondegenerate), _ODD),
         lambda c, r: [Verdict("RATIONAL", r, {
             "generator": str(c.nf.generators[0]), "gram_nondegenerate": True})]),
    Rule("R-QANIS", (_ONE_GEN, ("anisotropic quadric", lambda c: c.quad is not None
                                and c.quad.verdict == "ANISOTROPIC_CERTIFIED"),
                     _ODD, ("Loewy length > 2", lambda c: c.lowey > 2)),
         lambda c, r: [Verdict("NOT_K_SPLIT", r, {
             "generator": str(c.nf.generators[0]),
             "isotropy": "ANISOTROPIC_CERTIFIED", "method": c.quad.method,
             "lowey": c.lowey})]),
    Rule("R-NONSING", (_GRADED, _W_SLICE, _W_DIM1,
                       ("deg W >= 3", lambda c: c.w.degree >= 3)), _fire_nonsing),
    Rule("R-W1", (_GRADED, _W_SLICE, _W_DIM1), _fire_w1),
    Rule("R-FLAG", (("full flag in W", lambda c: c.flag is not None
                     and c.flag.status == "FULL_FLAG"),
                    ("dim W > 1", lambda c: c.w.dim > 1)), _fire_flag),
    Rule("R-NILP", (("Der(A) nilpotent", lambda c: c.der_nilpotent), _SPLIT),
         _fire_nilp),
    Rule("R-DIM7", (_LOCAL, ("dim A <= 7", lambda c: c.dim <= 7)),
         lambda c, r: _verdicts(r, ("STABLY_RATIONAL", "R_TRIVIAL"),
                                {"dim": c.dim})),
    Rule("R-ISO", (_GRADED,), lambda c, r: [
        Verdict("RANK_LOWER_BOUND", r, {"bound": 1}),
        Note(r, "automorphism group is k-isotropic (central one-dimensional "
                "torus), in particular not unipotent", {})]),
)


def _run_rules(ctx: _Context) -> tuple[list, list]:
    verdicts: list[Verdict] = []
    notes: list[Note] = []
    for rule in RULES:
        failed = next((desc for desc, test in rule.guards if not test(ctx)), None)
        if failed is not None:
            logger.debug("rule %s skipped: guard failed: %s", rule.id, failed)
            continue
        for item in rule.fire(ctx, rule.id):
            (verdicts if isinstance(item, Verdict) else notes).append(item)
    _check_rank_bounds(verdicts)
    return verdicts, notes


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
    verdicts, notes = _run_rules(ctx)
    decided = {v.flag for v in verdicts}
    for flag in DECIDABLE_FLAGS:
        if flag not in decided:
            ctx.unknowns.append({"property": flag, "reason": "no rule fired"})
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
    elif ctx.pres is not None:
        inv["dim_j"] = ctx.dim - 1
    for key, val in (("dim_jj2", ctx.dim_jj2),
                     ("lowey_length", ctx.lowey),
                     ("dim_center", ctx.center_dim),
                     ("dim_der", ctx.dim_der),
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
    report = {
        "n_vars": n,
        "lowey": lowey,
        "deg_f": d,
        "dim_im_phi_lie": im.dim,
        "dim_sim_lie": sim.dim,
        "dim_stab_lie": stab.dim,
        "im_phi_equals_sim": im.space == sim.space,
        "stab_meets_scalars_trivially":
            not stab.space.contains({i * (n + 1): 1 for i in range(n)}),
        "sim_is_stab_plus_scalars": sim.dim == stab.dim + 1,
    }
    if q.degree() == 2 and q.field.characteristic != 2 and q.is_homogeneous():
        quad = quadratic_from_poly(q)
        ev = isotropy(quad, height_bound=config.height_bound,
                      max_enum=config.max_enum)
        report["q_isotropy"] = ev.verdict
        report["q_nondegenerate"] = kernel_rows(quad.gram, quad.n, quad.field).dim == 0
    return report
