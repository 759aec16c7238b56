"""Multidegrees in the Chow ring of a product of projective spaces, and genus
via the Riemann-Hurwitz formula from a ramification profile.

Classes are truncated multigraded polynomials in the hyperplane classes of the
factors: any monomial with an exponent exceeding its factor's dimension is
identically zero.  Profiles are caller-supplied data; the curve-family preset
(built by :func:`family_curve_profile`) carries the branch structure of the
degree-6n projection of the curves cut out by x1^n + 1 = y2 in E x E.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .rounding import DomainError

__all__ = [
    "ChowClass",
    "chow_mul",
    "top_coefficient",
    "hyperplane_combination",
    "BranchPoint",
    "RamificationProfile",
    "CheckedProfile",
    "validate_profile",
    "hurwitz_genus",
    "family_curve_profile",
    "family_curve_degree_class",
    "family_degree_upper",
]


@dataclass(frozen=True)
class ChowClass:
    """Truncated polynomial in the hyperplane classes of P^(m1) x ... x P^(mk)."""

    ambient: tuple[int, ...]
    coefficients: Mapping[tuple[int, ...], int] = field(default_factory=dict)

    def __post_init__(self):
        ambient = tuple(int(m) for m in self.ambient)
        if not ambient or any(m < 0 for m in ambient):
            raise DomainError(f"bad ambient {ambient}")
        cleaned = {}
        for exps, c in dict(self.coefficients).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(ambient) or any(e < 0 for e in exps):
                raise DomainError(f"exponent tuple {exps} does not fit ambient {ambient}")
            if c and all(e <= m for e, m in zip(exps, ambient)):
                cleaned[exps] = cleaned.get(exps, 0) + int(c)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "coefficients",
                           {k: v for k, v in cleaned.items() if v})

    def __mul__(self, other: "ChowClass") -> "ChowClass":
        if self.ambient != other.ambient:
            raise DomainError("ambient mismatch")
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.coefficients.items():
            for e2, c2 in other.coefficients.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if all(x <= m for x, m in zip(e, self.ambient)):
                    out[e] = out.get(e, 0) + c1 * c2
        return ChowClass(self.ambient, out)


def hyperplane_combination(ambient: Sequence[int], coeffs: Sequence[int]) -> ChowClass:
    """Linear class sum coeffs[i] * h_i, h_i the hyperplane class of factor i."""
    ambient = tuple(ambient)
    data = {}
    for i, c in enumerate(coeffs):
        if c:
            exps = tuple(1 if j == i else 0 for j in range(len(ambient)))
            data[exps] = c
    return ChowClass(ambient, data)


def chow_mul(classes: Sequence[ChowClass]) -> ChowClass:
    """Product of classes sharing an ambient; commutative and associative."""
    if not classes:
        raise DomainError("need at least one class")
    result = classes[0]
    for c in classes[1:]:
        result = result * c
    return result


def top_coefficient(c: ChowClass) -> int:
    """Coefficient of the full top class (m1, ..., mk); 0 if absent."""
    return c.coefficients.get(c.ambient, 0)


# ---------------------------------------------------------------------------
# Ramification profiles and Hurwitz genus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BranchPoint:
    label: str
    fibers: tuple[tuple[int, int], ...]  # (ramification index, count)

    def __post_init__(self):
        fibers = tuple((int(e), int(c)) for e, c in self.fibers)
        for e, c in fibers:
            if e < 1 or c < 1:
                raise DomainError(f"branch {self.label}: indices and counts must be >= 1")
        object.__setattr__(self, "fibers", fibers)

    def fiber_sum(self) -> int:
        return sum(e * c for e, c in self.fibers)

    def ramification_excess(self) -> int:
        """sum over preimages of (e_P - 1)."""
        return sum((e - 1) * c for e, c in self.fibers)


@dataclass(frozen=True)
class RamificationProfile:
    branches: tuple[BranchPoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))


@dataclass(frozen=True)
class CheckedProfile:
    degree: int
    profile: RamificationProfile
    excess_per_branch: tuple[tuple[str, int], ...]

    @property
    def total_excess(self) -> int:
        return sum(e for _, e in self.excess_per_branch)


def validate_profile(deg: int, profile: RamificationProfile) -> CheckedProfile:
    """Check every fiber sums to the covering degree; annotate the excesses."""
    if deg < 1:
        raise DomainError("covering degree must be >= 1")
    excesses = []
    for branch in profile.branches:
        total = branch.fiber_sum()
        if total != deg:
            raise DomainError(
                f"branch {branch.label!r}: fiber sums to {total}, not the degree {deg}")
        excesses.append((branch.label, branch.ramification_excess()))
    return CheckedProfile(deg, profile, tuple(excesses))


def hurwitz_genus(deg: int, base_genus: int, profile: RamificationProfile) -> int:
    """Genus from 2 - 2g = deg * (2 - 2*base_genus) - sum (e_P - 1)."""
    if base_genus < 0:
        raise DomainError("base genus must be >= 0")
    checked = validate_profile(deg, profile)
    euler = deg * (2 - 2 * base_genus) - checked.total_excess
    two_g = 2 - euler
    if two_g % 2 != 0:
        raise DomainError(f"profile gives non-integer genus (2-2g = {euler})")
    g = two_g // 2
    if g < 0:
        raise DomainError(f"profile gives negative genus {g}; inconsistent data")
    return g


# ---------------------------------------------------------------------------
# Presets for the curve family in E x E
# ---------------------------------------------------------------------------


def family_curve_profile(n: int) -> tuple[int, RamificationProfile]:
    """(degree, profile) of the y2-projection for the curve x1^n + 1 = y2.

    The covering has degree 6n; four branch values each have 2n doubled
    preimages and 2n unramified ones, one value has 6 preimages of index n,
    three values have 3 doubled preimages, and the point at infinity is
    totally ramified.  Only this family's profile is known here: the profile
    of the x1^n = y2 family is not derived in this toolkit's sources.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    deg = 6 * n
    branches = [
        BranchPoint(f"double-cover-branch-{i}", ((2, 2 * n), (1, 2 * n)))
        for i in range(1, 5)
    ]
    branches.append(BranchPoint("power-branch-at-1", ((n, 6),)))
    cubic_fibers = ((2, 3), (1, 6 * n - 6)) if n > 1 else ((2, 3),)
    branches.extend(BranchPoint(f"cubic-branch-{j}", cubic_fibers) for j in (1, 2, 3))
    branches.append(BranchPoint("infinity", ((deg, 1),)))
    return deg, RamificationProfile(tuple(branches))


def family_curve_degree_class(n: int, family: str = "f2") -> ChowClass:
    """Intersection product bounding the family curve's degree in P2 x P2.

    Both families are cut by an equation of bidegree (n, 1), so they share the
    class product (n*l + m) * (3l) * (3m) * (l + m) = 9(n+1) (l m)^2.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if family not in ("f1", "f2"):
        raise DomainError(f"unknown family {family!r}")
    ambient = (2, 2)
    extra_eq = hyperplane_combination(ambient, (n, 1))
    weierstrass_1 = hyperplane_combination(ambient, (3, 0))
    weierstrass_2 = hyperplane_combination(ambient, (0, 3))
    hyperplane_restriction = hyperplane_combination(ambient, (1, 1))
    return chow_mul([extra_eq, weierstrass_1, weierstrass_2, hyperplane_restriction])


def family_degree_upper(n: int, family: str = "f2") -> int:
    """Degree bound for the family curve, read off the Chow product."""
    return top_coefficient(family_curve_degree_class(n, family))
