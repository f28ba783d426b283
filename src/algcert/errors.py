"""Exception and warning types shared across the package."""


class AlgcertError(Exception):
    """Base class for the package's errors, except InternalInconsistency."""


# -- linear algebra ----------------------------------------------------------

class AmbientMismatch(AlgcertError):
    """Two subspaces or vectors live in different ambient dimensions or fields."""


class NotContained(AlgcertError):
    """quotient_basis was asked for U <= V but U is not contained in V."""


# -- scalars and polynomials -------------------------------------------------

class BadScalar(AlgcertError):
    """A scalar literal could not be coerced (zero denominator, bad format)."""


class PolySyntaxError(AlgcertError):
    """Polynomial text failed to parse; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class OutOfRangeVariable(AlgcertError):
    """A variable index in polynomial text exceeds the declared n_vars."""


class NotInvertible(AlgcertError):
    """A linear change of variables was built from a singular matrix."""


class ZeroInput(AlgcertError):
    """Operation requires a nonzero polynomial."""


class NotSHomogeneous(AlgcertError):
    """s-index requested for a constant or a single monomial."""


# -- structure algebras ------------------------------------------------------

class NonAssociative(AlgcertError):
    """Structure constants fail associativity; names the first bad triple."""

    def __init__(self, i: int, j: int, k: int):
        super().__init__(f"associativity fails on basis triple ({i}, {j}, {k})")
        self.triple = (i, j, k)


class NotUnital(AlgcertError):
    """The declared identity coordinates do not act as a two-sided unit."""


class UnsupportedRadicalComputation(AlgcertError):
    """Radical not computable for this input (see jacobson_radical contract)."""


class NotSplitBasic(AlgcertError):
    """A/J is not a product of copies of the base field."""


# -- presentations -----------------------------------------------------------

class NotAdmissible(AlgcertError):
    """A presentation's data is not admissible: a ring with no variables, a
    truncation degree below 2, or a generator with a constant or linear
    component after truncation."""


class NotLocal(AlgcertError):
    """Algebra has more than one simple block modulo the radical."""


class NotCommutative(AlgcertError):
    """Operation requires a commutative algebra."""


class NotSplit(AlgcertError):
    """A/J is not isomorphic to the base field over the base field."""


class LoweyMismatch(UserWarning):
    """Supplied truncation degree disagrees with the ideal; it was corrected."""


# -- forms -------------------------------------------------------------------

class CharTwo(AlgcertError):
    """Quadratic form machinery rejects characteristic 2."""


class NotDegreeTwo(AlgcertError):
    """Expected a homogeneous polynomial of degree 2."""


class NotHomogeneous(AlgcertError):
    """Expected a homogeneous polynomial."""


class ZeroPolynomial(AlgcertError):
    """Expected a nonzero polynomial."""


class NotGraded(AlgcertError):
    """Operation requires a presentation with a homogeneous ideal."""


class NotStable(AlgcertError):
    """The given operators do not preserve the given subspace."""


# -- certificates and oracles ------------------------------------------------

class DegreeOutOfRange(AlgcertError):
    """User-supplied polynomial degree violates 2 < deg f < l."""


class UnfactoredInteger(AlgcertError):
    """An integer cofactor could be neither split nor proved prime."""


class SearchSpaceTooLarge(AlgcertError):
    """An exhaustive enumeration, a search, or a table or ring about to be
    built would exceed its bound; ``what`` names it, ``unit`` what it counts,
    and ``needed`` is the count or, where counting stopped at the bound,
    the text "more than" the bound."""

    def __init__(self, needed: int | str, bound: int, what: str = "enumeration",
                 unit: str = "candidates"):
        super().__init__(f"{what} needs {needed} {unit}, bound is {bound}")
        self.needed = needed
        self.bound = bound


class InternalInconsistency(Exception):
    """A computed result contradicts a guarantee of its own computation.

    Deliberately not an AlgcertError: the handlers that turn a failed
    sub-computation into an unknown entry catch AlgcertError, and a fault in
    algcert itself must never be absorbed that way.
    """


# -- cli ---------------------------------------------------------------------

class SchemaError(AlgcertError):
    """Input document does not match the structure-constant or presentation schema."""
