"""Bounded-height enumeration of rank-1 Mordell-Weil groups in E x E and
membership testing against the curve families.

Exhaustiveness holds only up to the caller's height bound B: the free part is
cut off at |a| <= ceil(sqrt((B + tol)/h-hat(g))) and every candidate is then
confirmed by its own certified canonical height.  The published bounds
(~10^38) are far beyond any search; B is always desk-scale and explicit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

from .elliptic import ECPoint, EllipticCurveQ, add, scalar_mul, torsion_order
from .heights import canonical_height_enclosure
from .rounding import DomainError

__all__ = [
    "GammaSpec",
    "FoundPoint",
    "SearchReport",
    "FAMILY_IDS",
    "enumerate_rank1",
    "family_membership",
    "search_rational_points",
]

FAMILY_IDS = ("f1", "f2")


@dataclass(frozen=True)
class GammaSpec:
    """A rank-1 subgroup: curve, non-torsion generator, explicit torsion list."""

    curve: EllipticCurveQ
    generator: ECPoint
    torsion_points: tuple[ECPoint, ...] = (ECPoint.infinity(),)

    def __post_init__(self):
        self.curve.require(self.generator)
        if self.generator.is_infinity or torsion_order(self.curve, self.generator) is not None:
            raise DomainError("generator must be a non-torsion affine point")
        pts = tuple(self.torsion_points)
        if not pts:
            pts = (ECPoint.infinity(),)
        seen = set()
        for T in pts:
            self.curve.require(T)
            if torsion_order(self.curve, T) is None:
                raise DomainError(f"listed torsion point {T} is not torsion")
            seen.add(T.key())
        for S in pts:
            for T in pts:
                if add(self.curve, S, T).key() not in seen:
                    raise DomainError("torsion list is not closed under the group law")
        ordered = tuple(sorted(pts, key=ECPoint.key))
        object.__setattr__(self, "torsion_points", ordered)


def _ceil_sqrt_fraction(q: Fraction) -> int:
    """Smallest integer m with m^2 >= q (q >= 0)."""
    if q <= 0:
        return 0
    num, den = q.numerator, q.denominator
    m = math.isqrt(num // den)
    while Fraction(m * m) < q:
        m += 1
    return m


def _as_fraction(x) -> Fraction:
    return Fraction(str(x)) if isinstance(x, float) else Fraction(x)


def _free_range_bound(gamma: GammaSpec, B: Fraction, tol: Fraction,
                      precision: int) -> int:
    """a_max = ceil(sqrt((B + tol)/h-hat(g))) from the certified lower end of
    the generator's height enclosure."""
    if B < 0:
        raise DomainError("height bound must be >= 0")
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    g_lo, _ = canonical_height_enclosure(gamma.curve, gamma.generator, tol, precision)
    if g_lo <= tol:
        raise DomainError(
            "generator's canonical height does not exceed the tolerance; "
            "the GammaSpec looks inconsistent (torsion-like generator)")
    return _ceil_sqrt_fraction((B + tol) / g_lo)


def _walk_rank1(gamma: GammaSpec, B: Fraction, tol: Fraction, lo: int, hi: int,
                precision: int) -> Iterator[tuple[ECPoint, Fraction]]:
    """The points a*g + T with lo <= a <= hi of estimated height at most
    B + tol.  a*g is stepped by one addition of g per a, not recomputed."""
    if lo > hi:
        return
    E, g = gamma.curve, gamma.generator
    base = scalar_mul(E, lo, g)
    for a in range(lo, hi + 1):
        if a > lo:
            base = add(E, base, g)
        for T in gamma.torsion_points:
            P = add(E, base, T)
            p_lo, p_hi = canonical_height_enclosure(E, P, tol, precision)
            estimate = (p_lo + p_hi) / 2
            if estimate <= B + tol:
                yield P, estimate


def enumerate_rank1(gamma: GammaSpec, height_bound, tol,
                    a_range: Optional[tuple[int, int]] = None,
                    precision: int = 256) -> Iterator[tuple[ECPoint, Fraction]]:
    """Yield (point, certified h-hat midpoint) for points a*g + T of canonical
    height at most B + tol, in deterministic order (a ascending, then the
    torsion list order).

    a_range restricts the free coefficient to a closed subinterval - the shard
    hook: disjoint a-ranges partition the enumeration exactly.
    """
    B = _as_fraction(height_bound)
    tol = _as_fraction(tol)
    a_max = _free_range_bound(gamma, B, tol, precision)
    lo, hi = (-a_max, a_max) if a_range is None else a_range
    yield from _walk_rank1(gamma, B, tol, max(lo, -a_max), min(hi, a_max), precision)


def family_membership(p1: ECPoint, p2: ECPoint, family: str, n: int) -> bool:
    """Exact test of the family equation on an affine pair; infinity fails."""
    if family not in FAMILY_IDS:
        raise DomainError(f"unknown family {family!r}; use one of {FAMILY_IDS}")
    if n < 1:
        raise DomainError("n must be >= 1")
    if p1.is_infinity or p2.is_infinity:
        return False
    if family == "f1":
        return p1.x ** n == p2.y
    return p1.x ** n + 1 == p2.y


@dataclass(frozen=True)
class FoundPoint:
    p1: ECPoint
    p2: ECPoint
    height1: Fraction
    height2: Fraction


@dataclass
class SearchReport:
    family: str
    n: int
    height_bound: str
    tolerance: str
    precision_bits: int
    candidate_points: int
    pairs_scanned: int
    found: tuple[FoundPoint, ...]
    closure_candidates: tuple[str, ...]
    shards: int
    wall_clock_seconds: float = field(default=0.0, compare=False)
    pairs_per_second: float = field(default=0.0, compare=False)


def _shard_ranges(a_max: int, shards: int) -> list[tuple[int, int]]:
    """Split [-a_max, a_max] into contiguous shard ranges covering it exactly."""
    total = 2 * a_max + 1
    base, extra = divmod(total, shards)
    ranges = []
    start = -a_max
    for s in range(shards):
        size = base + (1 if s < extra else 0)
        if size == 0:
            continue
        ranges.append((start, start + size - 1))
        start += size
    return ranges


def search_rational_points(family: str, n: int, gamma: GammaSpec, height_bound,
                           tol, shards: int = 1,
                           precision: int = 256) -> SearchReport:
    """Exhaustive-below-B search: enumerate Gamma x Gamma and filter by the
    family equation.  Sharding partitions the free coefficient range; the
    merged result is identical to the single-shard run."""
    if shards < 1:
        raise DomainError("shard count must be >= 1")
    B = _as_fraction(height_bound)
    tol_f = _as_fraction(tol)
    t0 = time.perf_counter()
    a_max = _free_range_bound(gamma, B, tol_f, precision)

    points: list[tuple[ECPoint, Fraction]] = []
    for lo, hi in _shard_ranges(a_max, min(shards, 2 * a_max + 1)):
        points.extend(_walk_rank1(gamma, B, tol_f, lo, hi, precision))
    points.sort(key=lambda pq: pq[0].key())

    found = []
    pairs = 0
    closure = []
    for p1, h1 in points:
        for p2, h2 in points:
            pairs += 1
            if p1.is_infinity or p2.is_infinity:
                # boundary of the affine chart: listed, never equation-tested
                closure.append(f"{p1} x {p2}")
            elif family_membership(p1, p2, family, n):
                found.append(FoundPoint(p1, p2, h1, h2))
    found.sort(key=lambda f: (f.p1.key(), f.p2.key()))
    closure.sort()
    dt = time.perf_counter() - t0
    return SearchReport(
        family=family,
        n=n,
        height_bound=str(B),
        tolerance=str(tol_f),
        precision_bits=precision,
        candidate_points=len(points),
        pairs_scanned=pairs,
        found=tuple(found),
        closure_candidates=tuple(closure),
        shards=shards,
        wall_clock_seconds=dt,
        pairs_per_second=(pairs / dt if dt > 0 else 0.0),
    )


