"""Exception taxonomy shared by all hamdec modules.

Input-contract violations raise subclasses of :class:`HamdecError` so the CLI
can map them to a uniform exit code.  Exceptions that abort a multi-step
randomized procedure carry enough payload to diagnose the failing step.

A class exists for each contract that a caller, the CLI, the bench or a
documented fault order tells apart; checks of one contract share its class
and differ only in their messages.
"""


class HamdecError(Exception):
    """Base class for all hamdec errors."""


# --- graph construction / io ---

class LoopEdgeError(HamdecError):
    """An edge (v, v) was supplied."""


class AntiparallelPairError(HamdecError):
    """Both (u, v) and (v, u) were supplied; oriented graphs forbid this."""


class DuplicateEdgeError(HamdecError):
    """The same directed edge was supplied twice."""


class VertexOutOfRangeError(HamdecError):
    """An edge endpoint lies outside [0, n)."""


class EvenOrderError(HamdecError):
    """Rotational tournaments require odd order."""


class FormatError(HamdecError):
    """Malformed edge-list or certificate file."""


class UnequalSidesError(HamdecError):
    """Bipartite side sets have different sizes."""


# --- factors and matchings ---

class ROutOfRangeError(HamdecError):
    """Requested degree outside its range: [0, m] for a factor of a bipartite
    graph, [0, (n - 1) / 2] for a random regular oriented graph."""


class TooLargeError(HamdecError):
    """Instance exceeds ``graphs.MAX_N`` or the cap of an exact (exponential) routine."""


class NoFactorError(HamdecError):
    """The requested factor does not exist."""


class HypothesisViolatedError(HamdecError):
    """A degree-window precondition failed; the message names the inequality."""


class NotRegularError(HamdecError):
    """A regular (spanning) graph was required."""


# --- path covers ---

class OddOrderError(HamdecError):
    """The complete-digraph path decomposition needs an even order."""


class PartsTooSmallError(HamdecError):
    """Too many parts requested for the vertex count."""


# --- assembly ---

class BudgetExhaustedError(HamdecError):
    """Search hit its node-expansion budget before settling the instance."""

    def __init__(self, message, expansions=0):
        super().__init__(message)
        self.expansions = expansions


class ConnectorDegreeTooLowError(HamdecError):
    """A path endpoint has too few reservoir neighbours.

    ``endpoint`` is the offending vertex, ``direction`` is "in" or "out".
    """

    def __init__(self, message, endpoint=None, direction=None):
        super().__init__(message)
        self.endpoint = endpoint
        self.direction = direction


class SpliceFailedError(HamdecError):
    """All partition resamples failed while splicing a cover into a cycle."""

    def __init__(self, message, block_index=None, attempts=0):
        super().__init__(message)
        self.block_index = block_index
        self.attempts = attempts


class ReservoirMismatchError(HamdecError):
    """Reservoir size cannot host the requested number of blocks."""


class InvariantViolationError(HamdecError):
    """A domain-type invariant failed on re-check of supplied data: path
    endpoints that coincide or leave the graph, bipartite sides or vertex
    parts that overlap, matchings that leave their parts, or subproblem specs
    that are not edge-disjoint or not contained in their parts."""


# --- partition ---

class KTooLargeError(HamdecError):
    """K is below 2, or K**3 exceeds n / 8 and subproblem reservoirs would be
    trivial."""
