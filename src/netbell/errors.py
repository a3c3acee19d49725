"""Exception hierarchy shared across the package."""


class NetbellError(Exception):
    """Base class for all domain errors raised by this package."""


class TopologyError(NetbellError):
    pass


class SelfLoopError(TopologyError):
    pass


class DuplicateEdgeError(TopologyError):
    pass


class IndexOutOfRangeError(TopologyError):
    pass


class DisconnectedError(TopologyError):
    pass


class IsolatedPartyError(TopologyError):
    pass


class FcbiError(NetbellError):
    pass


class BadKError(FcbiError):
    pass


class TooLargeError(FcbiError):
    """Enumeration problem exceeds the configured cap."""


class StateError(NetbellError):
    pass


class NotAStateError(StateError):
    pass


class BadVisibilityError(StateError):
    pass


class BadSchmidtError(StateError):
    pass


class BuildError(NetbellError):
    pass


class TooFewLeavesError(BuildError):
    pass


class MissingFcbiError(BuildError):
    pass


class ColumnMismatchError(BuildError):
    pass


class LeafPairSourceError(BuildError):
    pass


class DegenerateBipartiteError(BuildError):
    """A two-party network is a plain bipartite Bell test, not a network inequality."""


class EvaluationError(NetbellError):
    pass


class IncompleteStrategyError(EvaluationError):
    pass


class UnsupportedFcbiError(EvaluationError):
    pass


class SearchError(NetbellError):
    pass


class NonConvergenceError(SearchError):
    """Optimizer failed to converge; carries the best value found."""

    def __init__(self, message, best_value=None):
        super().__init__(message)
        self.best_value = best_value


class TooLargeForExhaustiveError(SearchError):
    pass


class BadRestartsError(SearchError):
    """A see-saw search was asked for fewer than one restart."""


class PartyCountMismatchError(SearchError):
    pass


class AnalysisError(NetbellError):
    pass


class NegativeEntryError(AnalysisError):
    pass


class UnsupportedMapError(AnalysisError):
    pass


class ConfigError(NetbellError):
    """Invalid or incomplete run configuration."""
