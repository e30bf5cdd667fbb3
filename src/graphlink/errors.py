"""Exception hierarchy shared by the whole package.

Three layers matter to callers: format errors (bad input files),
domain errors (a well-formed request whose mathematical preconditions
fail), and internal errors (a structural fact the theory guarantees
was found violated, which means a bug, not bad input).
"""

from __future__ import annotations

__all__ = [
    "GraphlinkError",
    "GraphFormatError",
    "DuplicateName",
    "SelfLoop",
    "SamePartEdge",
    "DuplicateEdge",
    "GraphSyntaxError",
    "ScriptError",
    "GraphTooLarge",
    "MoveError",
    "UnknownVertex",
    "NotIsolated",
    "SignsNotOpposite",
    "NeighborhoodMixedParts",
    "NotTwins",
    "PUViolation",
    "BadSigns",
    "BadNeighborhood",
    "BadDirections",
    "NotPU",
    "NotInverseConfiguration",
    "NotAdjacent",
    "MoveFailed",
    "NotBipartite",
    "StructureMismatch",
    "GiveUp",
    "TorsionDetected",
    "NotAFace",
    "AssignmentInfeasible",
    "InternalInvariantError",
    "LemmaViolation",
    "DSquaredNonzero",
]


class GraphlinkError(Exception):
    """Base class for every error raised by this package."""


class GraphFormatError(GraphlinkError):
    """A graph or script file could not be parsed.

    `line` is the 1-based line number of the offending line, or None
    when the error is not tied to a single line.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateName(GraphFormatError):
    pass


class SelfLoop(GraphFormatError):
    pass


class SamePartEdge(GraphFormatError):
    pass


class DuplicateEdge(GraphFormatError):
    pass


class GraphSyntaxError(GraphFormatError):
    pass


class ScriptError(GraphFormatError):
    """A move-script line could not be parsed or replayed."""


class GraphTooLarge(GraphlinkError):
    """More vertices than the hard size guard allows."""


class MoveError(GraphlinkError):
    """A move's preconditions do not hold on the given graph."""


class UnknownVertex(MoveError):
    pass


class NotIsolated(MoveError):
    pass


class SignsNotOpposite(MoveError):
    pass


class NeighborhoodMixedParts(MoveError):
    pass


class NotTwins(MoveError):
    pass


class PUViolation(MoveError):
    """The guarded twin addition would leave the PU class.

    `witness` is the violating state (tuple of vertex names) together
    with its determinant.
    """

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


class BadSigns(MoveError):
    pass


class BadNeighborhood(MoveError):
    pass


class BadDirections(MoveError):
    pass


class NotPU(MoveError):
    """The requested untwisting is impossible on any PU graph."""

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


class NotInverseConfiguration(MoveError):
    pass


class NotAdjacent(MoveError):
    pass


class MoveFailed(MoveError):
    """A script move failed; `index` is its 0-based position, `cause` why."""

    def __init__(self, index: int, cause: Exception):
        self.index = index
        self.cause = cause
        super().__init__(f"move {index}: {cause}")


class NotBipartite(GraphlinkError):
    """An edge joins two vertices of the same part."""


class StructureMismatch(GraphlinkError):
    """Two graphs do not share vertices, labels, and underlying edges."""


class GiveUp(GraphlinkError):
    """Random search exhausted its attempt budget."""

    def __init__(self, attempts: int):
        self.attempts = attempts
        super().__init__(f"gave up after {attempts} attempts")


class TorsionDetected(GraphlinkError):
    """A state module is not free.

    Never happens on PU inputs; seeing this on one means a bug.
    """

    def __init__(self, message: str, factors=None):
        self.factors = factors
        super().__init__(message)


class NotAFace(GraphlinkError):
    """The given corner and coordinates do not name a 2-face source."""


class AssignmentInfeasible(GraphlinkError):
    """No edge assignment satisfies the face parity system."""

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


class InternalInvariantError(GraphlinkError):
    """A structural invariant the theory guarantees failed to hold."""


class LemmaViolation(InternalInvariantError):
    """Generator vanishing and corank growth disagreed on an edge."""


class DSquaredNonzero(InternalInvariantError):
    """The assembled differential does not square to zero.

    `witness` is (source corner, vertex i, vertex j, face class, value)
    for the first face whose two signed composites do not cancel.
    """

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)
