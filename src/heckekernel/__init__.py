"""Numerical Hecke-kernel lattice series, their analytic continuation,
and end-to-end identity checkers."""

__version__ = "0.1.0"

from .errors import (
    AmbiguousNormalization,
    HeckeKernelError,
    NearDiagonal,
    NotConverged,
    PoleAt,
    TailTooLarge,
    UsageError,
)
from .types import (
    CheckReport,
    EvalResult,
    FourierAssemblyConfig,
    TruncationPolicy,
)

__all__ = [
    "AmbiguousNormalization",
    "CheckReport",
    "EvalResult",
    "FourierAssemblyConfig",
    "HeckeKernelError",
    "NearDiagonal",
    "NotConverged",
    "PoleAt",
    "TailTooLarge",
    "TruncationPolicy",
    "UsageError",
]
