"""Exception types shared across the toolkit."""


class LdimkitError(Exception):
    """Base class for all ldimkit errors."""


class ParameterError(LdimkitError, ValueError):
    """A constructor or operation received invalid parameters."""


class RangeError(LdimkitError, ValueError):
    """An element id lies outside the poset's id range."""


class FormatError(LdimkitError, ValueError):
    """A text input (orders file, DIMACS file, model file) is malformed."""


class ContractError(LdimkitError):
    """A precondition on supplied data does not hold (e.g. an input family
    that was required to verify as a local realizer does not)."""


class DecodeError(LdimkitError):
    """A family the program produced, decoded or built, fails verification:
    the program, not its input, is at fault."""


class SolverEnvironmentError(LdimkitError):
    """The external SAT solver could not be launched, or it failed."""


class SolverProtocolError(LdimkitError):
    """The external SAT solver produced unusable output."""


class BoundExceededError(LdimkitError):
    """An exact search exhausted its configured bound without an answer."""
