"""Exception types shared across the package."""


class ConfigError(Exception):
    """Invalid configuration value or file; maps to CLI exit code 1."""


class ContractError(ValueError):
    """A caller violated an operation's precondition."""


class DegenerateBatchError(ContractError):
    """Batch statistics requested for a batch too small to define them."""


class EmptyBufferError(RuntimeError):
    """Replay was requested from a buffer that holds no samples."""


class BufferGapError(RuntimeError):
    """The replay buffer is missing a class required by the session."""


class NonFiniteError(RuntimeError):
    """A model holds a NaN or infinite value; the message names where."""
