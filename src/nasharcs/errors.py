"""Exception hierarchy shared by all nasharcs modules; the CLI prints
each as one `error:` line and exits 2."""


class NashArcsError(Exception):
    """Base class for every error raised by this package."""


class MalformedDocument(NashArcsError):
    """Input document violates the graph JSON schema."""


class NotATree(NashArcsError):
    """Graph has a cycle or is disconnected."""


class BadWeight(NashArcsError):
    """Vertex weight below the allowed minimum, or weights too large to
    print det(-M) or to attach their weight-1 vertices."""


class NotNegativeDefinite(NashArcsError):
    """Operation only defined over negative-definite intersection matrices."""


class SameVertex(NashArcsError):
    """Operation requires two distinct vertices."""


class InconsistentRelation(NashArcsError):
    """Internal check failed: a relation disagrees with its witnesses, or
    a certificate's supergraph does not blow down to empty."""


class NotMinimal(NashArcsError):
    """Graph fails the minimality criterion required by the operation."""


class BadParameter(NashArcsError):
    """Parameter out of range: the size of a graph file or of the built-in
    A_n, or an arc sample count or truncation; or a command line that the
    argument parser rejects."""


class BadFamilyIndex(NashArcsError):
    """Arc family index outside 1..n."""


class TruncationTooSmall(NashArcsError):
    """Requested power-series truncation cannot witness the needed orders."""

