"""Exception types shared across the library.

Every error raised on a violated precondition derives from HyperlinError so
callers (and the command line front end) can tell contract violations apart
from plain bugs.
"""

__all__ = [
    "HyperlinError",
    "HypergraphSyntaxError",
    "DuplicateHyperedgeSetError",
    "EmptyHyperedgeError",
    "UnknownVertexError",
    "EmptyStarError",
    "UnknownLabelError",
    "NotSquareError",
    "SingularError",
    "TooSmallError",
    "NotInNullspaceError",
    "NotDisjointError",
    "OverlapError",
    "NotCardinalityPreservingError",
    "InvalidCertificateError",
    "WeightDomainMismatchError",
    "SingletonEdgeError",
    "IsolatedVertexError",
    "SingletonEdgeNonLazyError",
    "NotSymmetrizableError",
    "NoConvergenceError",
    "BadDistributionError",
    "BadHorizonError",
    "UnreachableError",
    "NotUniformPolicyError",
    "DisconnectedError",
    "TooFewEdgesError",
]


class HyperlinError(Exception):
    """Base class for all library errors."""


class HypergraphSyntaxError(HyperlinError):
    """Input text is not well formed for the chosen format."""


class DuplicateHyperedgeSetError(HyperlinError):
    """Two hyperedges have identical member sets."""


class EmptyHyperedgeError(HyperlinError):
    """A hyperedge has no members."""


class UnknownVertexError(HyperlinError):
    """A hyperedge member is not a declared vertex."""


class EmptyStarError(HyperlinError):
    """A vertex with an empty star cannot become a dual hyperedge."""


class UnknownLabelError(HyperlinError):
    """A vertex or hyperedge label does not exist in the hypergraph."""


class NotSquareError(HyperlinError):
    """The operation needs a square matrix."""


class SingularError(HyperlinError):
    """The linear system has no unique solution."""


class TooSmallError(HyperlinError):
    """The vertex set is too small for the requested check."""


class NotInNullspaceError(HyperlinError):
    """The supplied vector is not annihilated by the required matrix."""


class NotDisjointError(HyperlinError):
    """The two sets overlap but must be disjoint."""


class OverlapError(HyperlinError):
    """The distinguished element may not appear among the parts."""


class NotCardinalityPreservingError(HyperlinError):
    """The map is not a cardinality preserving covering projection."""


class InvalidCertificateError(HyperlinError):
    """The certificate does not fit the operation's requirements."""


class WeightDomainMismatchError(HyperlinError):
    """Weight functions must cover exactly the vertices and hyperedges."""


class SingletonEdgeError(HyperlinError):
    """A hyperedge of size one breaks the requested normalization."""


class IsolatedVertexError(HyperlinError):
    """A vertex with no incident hyperedge blocks the operation."""


class SingletonEdgeNonLazyError(HyperlinError):
    """A non-lazy walk cannot leave a hyperedge of size one."""


class NotSymmetrizableError(HyperlinError):
    """The matrix is neither symmetric nor of the declared similar form."""


class NoConvergenceError(HyperlinError):
    """An iterative procedure hit its iteration cap before converging."""


class BadDistributionError(HyperlinError):
    """Probability vectors must be nonnegative and sum to one."""


class BadHorizonError(HyperlinError):
    """Horizons must be positive integers."""


class UnreachableError(HyperlinError):
    """The target state cannot be reached from every state."""


class NotUniformPolicyError(HyperlinError):
    """The check is only defined for the uniform walk policies."""


class DisconnectedError(HyperlinError):
    """The operation requires a connected structure."""


class TooFewEdgesError(HyperlinError):
    """At least two hyperedges are required here."""
