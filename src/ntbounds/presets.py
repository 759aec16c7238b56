"""Built-in data: the two ambient curves with their rank-1 generators and
the family identifiers.

f1: curves cut by x1^n = y2       in E x E,  E: y^2 = x^3 + x - 1, g = (1, 1)
f2: curves cut by x1^n + 1 = y2   in E x E,  E: y^2 = x^3 - x - 2, g = (2, 2)

The rank and generator are trusted catalogue input; only on-curve and
non-torsion are verified here.
"""

from __future__ import annotations

from .elliptic import ECPoint, EllipticCurveQ, validate_curve
from .errors import DomainError
from .search import GammaSpec

__all__ = [
    "ambient_curve",
    "ambient_gamma",
    "PRESET_NAMES",
]

PRESET_NAMES = ("f1", "f2")


def ambient_curve(family: str) -> tuple[EllipticCurveQ, ECPoint]:
    if family == "f1":
        return validate_curve(1, -1), ECPoint.affine(1, 1)
    if family == "f2":
        return validate_curve(-1, -2), ECPoint.affine(2, 2)
    raise DomainError(f"unknown family {family!r}; presets: {PRESET_NAMES}")


def ambient_gamma(family: str) -> GammaSpec:
    curve, gen = ambient_curve(family)
    return GammaSpec(curve, gen)
