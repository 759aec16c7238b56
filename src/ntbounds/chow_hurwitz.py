"""Degree and genus of the family curves in E x E, from two integers per n.

The degree bound is an intersection number of linear classes in the Chow ring
of a product of projective spaces P^(m1) x ... x P^(mk), where a monomial with
an exponent above its factor's dimension is zero.  The genus comes from the
Riemann-Hurwitz formula and a ramification profile: a tuple of
(label, ((ramification index, count), ...)) pairs, one per branch value.  The
profile here (built by :func:`family_curve_profile`) is that of the degree-6n
projection of the curves cut out by x1^n + 1 = y2 in E x E.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DomainError

__all__ = [
    "intersection_number",
    "hurwitz_genus",
    "family_curve_profile",
    "family_degree_upper",
]

Profile = tuple[tuple[str, tuple[tuple[int, int], ...]], ...]


def intersection_number(ambient: Sequence[int], classes: Sequence[Sequence[int]]) -> int:
    """Coefficient of h_1^m1 ... h_k^mk in the product of the linear classes
    sum_i c_i h_i, h_i the hyperplane class of factor i of
    P^(m1) x ... x P^(mk); each class is its coefficient list (c_1, ..., c_k).

    The product is expanded one class at a time over the monomials left by the
    classes before it, dropping every exponent above its factor's dimension.
    """
    ambient = tuple(ambient)
    if not ambient or any(m < 0 for m in ambient):
        raise DomainError(f"bad ambient {ambient}")
    product = {(0,) * len(ambient): 1}
    for cls in classes:
        if len(cls) != len(ambient):
            raise DomainError(f"class {tuple(cls)} does not fit ambient {ambient}")
        step: dict[tuple[int, ...], int] = {}
        for exps, c in product.items():
            for i, ci in enumerate(cls):
                if ci and exps[i] < ambient[i]:
                    e = exps[:i] + (exps[i] + 1,) + exps[i + 1:]
                    step[e] = step.get(e, 0) + c * ci
        product = step
    return product.get(ambient, 0)


def hurwitz_genus(deg: int, base_genus: int, profile: Profile) -> int:
    """Genus from 2 - 2g = deg * (2 - 2*base_genus) - sum (e_P - 1).

    Every index and count must be >= 1 and every fiber must sum to the
    covering degree; a rejected fiber is named by its branch label.
    """
    if deg < 1:
        raise DomainError("covering degree must be >= 1")
    if base_genus < 0:
        raise DomainError("base genus must be >= 0")
    excess = 0
    for label, fibers in profile:
        total = 0
        for e, c in fibers:
            if e < 1 or c < 1:
                raise DomainError(f"branch {label!r}: indices and counts must be >= 1")
            total += e * c
            excess += (e - 1) * c
        if total != deg:
            raise DomainError(
                f"branch {label!r}: fiber sums to {total}, not the degree {deg}")
    euler = deg * (2 - 2 * base_genus) - excess
    if euler % 2 != 0:
        raise DomainError(f"profile gives non-integer genus (2-2g = {euler})")
    g = (2 - euler) // 2
    if g < 0:
        raise DomainError(f"profile gives negative genus {g}; inconsistent data")
    return g


def family_curve_profile(n: int) -> tuple[int, Profile]:
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
    cubic_fibers = ((2, 3), (1, 6 * n - 6)) if n > 1 else ((2, 3),)
    return deg, (
        *((f"double-cover-branch-{i}", ((2, 2 * n), (1, 2 * n))) for i in range(1, 5)),
        ("power-branch-at-1", ((n, 6),)),
        *((f"cubic-branch-{j}", cubic_fibers) for j in (1, 2, 3)),
        ("infinity", ((deg, 1),)),
    )


def family_degree_upper(n: int, family: str = "f2") -> int:
    """Degree bound for the family curve in P2 x P2, an intersection number.

    Both families are cut by an equation of bidegree (n, 1), so they share the
    product (n*l + m) * (3l) * (3m) * (l + m) = 9(n+1) (l m)^2.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if family not in ("f1", "f2"):
        raise DomainError(f"unknown family {family!r}")
    return intersection_number((2, 2), ((n, 1), (3, 0), (0, 3), (1, 1)))
