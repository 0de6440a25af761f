"""Shared value types: points, matrices, truncation policies, results.

Upper half-plane points are plain ``complex`` numbers; ``upper_half``
validates them at API boundaries instead of wrapping them in a class.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, field

from .errors import NotConverged


def upper_half(z: complex, name: str = "z") -> complex:
    """Validate Im(z) > 0 and return z as a python complex."""
    z = complex(z)
    if not z.imag > 0:
        raise ValueError(f"{name} must lie in the upper half-plane, got {z}")
    return z


def nonzero_imag(z: complex, name: str = "z") -> complex:
    z = complex(z)
    if z.imag == 0:
        raise ValueError(f"{name} must have nonzero imaginary part, got {z}")
    return z


@dataclass(frozen=True)
class IntMatrix2:
    """Integer 2x2 matrix (a, b; c, d)."""

    a: int
    b: int
    c: int
    d: int

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def height(self) -> int:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))


@dataclass(frozen=True)
class KloostermanParams:
    """Arguments of the exponential sum K(a, b; c)."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.c < 1:
            raise ValueError(f"modulus c must be >= 1, got {self.c}")


@dataclass(frozen=True)
class PhiArgs:
    """Arguments of the derivative factor Phi_sgn(Y, n, lam).

    ``n`` is the derivative order (implementation ceiling 8), ``lam`` the
    Bessel order parameter, ``sign`` the sign carried by the exponential.
    """

    sign: int
    Y: float
    n: int
    lam: float

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if not self.Y > 0:
            raise ValueError(f"Y must be positive, got {self.Y}")
        if not (0 <= self.n <= 8):
            raise ValueError(f"derivative order n must be in [0, 8], got {self.n}")


@dataclass(frozen=True)
class TruncationPolicy:
    """All truncation cutoffs in one value.

    H      matrix height bound (max |entry|), also the lattice-shift window
           used by the c-sliced sums,
    B      b-range for c = 0 sums,
    C      c-cutoff for Kloosterman-zeta / correction sums,
    R      Fourier index cutoff,
    tol    requested tolerance (in (0, 1e-2]),
    workers  validated and echoed in the JSON policy; evaluation is serial,
             so it changes no value and no timing,
    refine   height limit of slowly decaying matrix sums: "lsq" (the
             least-squares power-law fit over six cutoffs of the height
             ladder H 2^(-j/4)) or "none" (the raw sum); the error estimate
             is the largest change as H drops to H 2^(-j/4), j = 1..4.
    """

    H: int = 400
    B: int = 100_000
    C: int = 4000
    R: int = 8
    tol: float = 1e-6
    workers: int = 1
    refine: str = "lsq"

    def __post_init__(self):
        if min(self.H, self.B, self.C, self.R) < 1:
            raise ValueError("all cutoffs must be positive")
        if not (0.0 < self.tol <= 1e-2):
            raise ValueError(f"tol must be in (0, 1e-2], got {self.tol}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.refine not in ("lsq", "none"):
            raise ValueError(f"unknown refine mode {self.refine!r}")


@dataclass(frozen=True)
class FourierAssemblyConfig:
    """Cutoffs for the Fourier-side evaluation of the c > 0 series.

    R           max |r| and |r'| of the retained modes,
    C           c-cutoff of the Kloosterman-zeta sums (every mode pair
                sums c = 1..C; the rest is bounded by the Weil tail),
    corr_C      c-cutoff of the 1/c-shift correction series,
    corr_K      lattice window of the correction series,
    pairing     "derived" uses K(r, -r'; c) with phases (r, Re z2),
                (r', Re z1); "printed" is the alternative convention kept
                for the overlap experiment that rejects it,
    workers     validated and echoed in the JSON policy, like
                TruncationPolicy.workers.
    """

    R: int = 8
    C: int = 4000
    corr_C: int = 160
    corr_K: int = 48
    tol: float = 1e-6
    pairing: str = "derived"
    workers: int = 1

    def __post_init__(self):
        if self.R < 1:
            raise ValueError("R must be >= 1")
        if self.C < 16:
            raise ValueError("C must be >= 16")
        if self.corr_C < 1 or self.corr_K < 1:
            raise ValueError("correction cutoffs must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.pairing not in ("derived", "printed"):
            raise ValueError(f"unknown pairing {self.pairing!r}")


@dataclass(frozen=True)
class EvalResult:
    """Complex value with an error estimate and provenance tags."""

    value: complex
    err_estimate: float
    method: str  # "direct" | "fourier" | "extrapolated"
    policy: object = None
    warnings: tuple = ()

    def __post_init__(self):
        if self.method not in ("direct", "fourier", "extrapolated"):
            raise ValueError(f"unknown method tag {self.method!r}")
        if not (self.err_estimate >= 0.0 and self.err_estimate == self.err_estimate):
            raise ValueError("err_estimate must be finite and nonnegative")


def accept(value: complex, err: float, method: str, tol: float, policy=None,
           warnings: tuple = ()) -> EvalResult:
    """The acceptance gate of every route: the EvalResult, or NotConverged
    where the value is not finite or err (nan and inf fail the comparison)
    exceeds min(1000 tol, 0.1) max(1, |value|), leaving the value meaningless."""
    if not (cmath.isfinite(value) and err <= min(1000.0 * tol, 0.1) * max(1.0, abs(value))):
        raise NotConverged(f"{method} err estimate {err:.3e} far above tolerance {tol:.1e} "
                           f"(|value| ~ {abs(value):.3e})")
    return EvalResult(value=value, err_estimate=err, method=method, policy=policy, warnings=warnings)


def _format_float(x: float) -> float:
    # round-trip through the 17-significant-digit decimal form used in JSON
    return float(f"{float(x):.17g}")


def complex_to_json(z: complex) -> dict:
    return {"re": _format_float(z.real), "im": _format_float(z.imag)}


@dataclass
class CheckReport:
    """Outcome of one identity check; pass recomputes from residuals."""

    name: str
    points: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    tolerance: float = 0.0
    details: str = ""

    @property
    def passed(self) -> bool:
        if not self.residuals:
            return False
        # bool(): residuals may be numpy scalars, whose numpy.bool_ verdict
        # json cannot serialise
        return bool(max(self.residuals) <= self.tolerance)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "points": [str(p) for p in self.points],
            "residuals": [_format_float(r) for r in self.residuals],
            "tolerance": _format_float(self.tolerance),
            "pass": self.passed,
            "details": self.details,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(", ", ": "))
