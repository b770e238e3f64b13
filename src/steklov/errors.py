"""Exception hierarchy shared by all steklov modules. An input outside a
statement's hypotheses raises HypothesesNotMetError; NotATreeError and
NotUnitWeightError are its kinds that ``geometry.require_tree`` and
``geometry.require_unit_tree`` raise."""


class SteklovError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(SteklovError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class SelfLoopError(GraphError):
    pass


class NonPositiveWeightError(GraphError):
    pass


class NonPositiveMeasureError(GraphError):
    pass


class IndexOutOfRangeError(GraphError):
    pass


class EdgeNotFoundError(GraphError):
    pass


class ParseError(GraphError):
    pass


class NoBoundaryError(SteklovError):
    """The operator needs at least one boundary vertex."""


class SingularInteriorError(SteklovError):
    """Some component has no boundary, so the interior block is singular."""


class DisconnectedError(SteklovError):
    pass


class InvalidParamsError(SteklovError):
    pass


class NotBipartiteError(SteklovError):
    pass


class NotASubgraphError(SteklovError):
    pass


class AllZeroError(SteklovError):
    """A function that must be nonzero is zero to tolerance."""


class HypothesisViolatedError(SteklovError):
    """Input does not satisfy the hypotheses of the statement being checked."""


class HypothesesNotMetError(HypothesisViolatedError):
    pass


class NotATreeError(HypothesesNotMetError):
    pass


class NotUnitWeightError(HypothesesNotMetError):
    pass


class OutOfSupportedRangeError(SteklovError):
    pass


class CertificationError(SteklovError):
    """A guaranteed certificate search failed; signals a bug, never swallowed."""
