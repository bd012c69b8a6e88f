"""Exception types shared across the package."""

__all__ = ["ArbitrageError", "DataFormatError", "DomainError"]


class DomainError(ValueError):
    """A model parameter or argument violates its admissible range."""


class ArbitrageError(ValueError):
    """A risk-neutral probability left [0, 1]; the rate sits outside the
    one-step no-arbitrage band implied by the tree factors.
    """


class DataFormatError(ValueError):
    """An input file is malformed; the message carries the line number."""
