"""Exception hierarchy shared across the package."""


class NetbellError(Exception):
    """Base class for all domain errors raised by this package."""


class SelfLoopError(NetbellError):
    pass


class DuplicateEdgeError(NetbellError):
    pass


class IndexOutOfRangeError(NetbellError):
    pass


class DisconnectedError(NetbellError):
    pass


class IsolatedPartyError(NetbellError):
    pass


class BadKError(NetbellError):
    pass


class TooLargeError(NetbellError):
    """Enumeration problem exceeds the configured cap."""


class NotAStateError(NetbellError):
    pass


class BadVisibilityError(NetbellError):
    pass


class BadSchmidtError(NetbellError):
    pass


class TooFewLeavesError(NetbellError):
    pass


class MissingFcbiError(NetbellError):
    pass


class ColumnMismatchError(NetbellError):
    pass


class DegenerateBipartiteError(NetbellError):
    """A two-party network is a plain bipartite Bell test, not a network inequality."""


class IncompleteStrategyError(NetbellError):
    pass


class UnsupportedFcbiError(NetbellError):
    pass


class NonConvergenceError(NetbellError):
    """Optimizer failed to converge; carries the best value found."""

    def __init__(self, message, best_value=None):
        super().__init__(message)
        self.best_value = best_value


class TooLargeForExhaustiveError(NetbellError):
    pass


class BadRestartsError(NetbellError):
    """A see-saw search was asked for fewer than one restart."""


class PartyCountMismatchError(NetbellError):
    pass


class NegativeEntryError(NetbellError):
    pass


class ConfigError(NetbellError):
    """Invalid or incomplete run configuration."""
