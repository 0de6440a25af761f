"""Exception types shared across the package.

Numerical failures are reported through exceptions rather than NaN payloads
so that the CLI can map them onto its exit-code contract.
"""

from __future__ import annotations


class HeckeKernelError(Exception):
    """Base class for all package errors."""


class PoleAt(HeckeKernelError):
    """A special function was evaluated at (or too close to) a pole."""

    def __init__(self, location, message: str | None = None):
        self.location = location
        super().__init__(message or f"evaluation at a pole: {location!r}")


class TailTooLarge(HeckeKernelError):
    """A reported tail bound exceeds the requested tolerance."""


class NotConverged(HeckeKernelError):
    """A truncated sum's error estimate is far above its tolerance."""


class NearDiagonal(HeckeKernelError):
    """z1 and z2 are too close to Gamma-equivalent for a stable evaluation."""


class AmbiguousNormalization(HeckeKernelError):
    """Zero or several normalization candidates satisfied an identity check."""


class UsageError(HeckeKernelError):
    """Bad command-line arguments or malformed configuration."""
