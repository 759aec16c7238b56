"""Bounded-height enumeration of rank-1 Mordell-Weil groups in E x E and
membership testing against the curve families.

Exhaustiveness holds only up to the caller's height bound B: the free part is
cut off at |a| <= ceil(sqrt((B + tol)/h-hat(g))).  The canonical height is a
quadratic form, h-hat(a*g + T) = a^2 h-hat(g) for torsion T, so one certified
enclosure [g_lo, g_hi] of h-hat(g) decides almost every candidate: a point is
kept if a^2 g_hi <= B + tol/2 and dropped if a^2 g_lo > B + 3 tol/2.  Only a
point in the band between gets its own certified canonical height, kept if
its midpoint is at most B + tol; the kept set is exactly that of certifying
every point.  A GammaSpec keeps its generator's last enclosure with the
(tol, precision) it was computed at, so repeated searches on one Gamma
certify the generator once.  Only a >= 0 is walked: the points of -a are the
negations of those of a.  The published bounds (~10^38) are far beyond any
search; B is always desk-scale and explicit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .elliptic import ECPoint, EllipticCurveQ, add, negate, scalar_mul, torsion_order
from .heights import canonical_height_enclosure
from .rounding import DomainError

__all__ = [
    "GammaSpec",
    "FoundPoint",
    "SearchReport",
    "FAMILY_IDS",
    "enumerate_rank1",
    "search_rational_points",
]

FAMILY_IDS = ("f1", "f2")


@dataclass(frozen=True)
class GammaSpec:
    """A rank-1 subgroup: curve, non-torsion generator, explicit torsion list."""

    curve: EllipticCurveQ
    generator: ECPoint
    torsion_points: tuple[ECPoint, ...] = (ECPoint.infinity(),)

    # ((tol, precision), (g_lo, g_hi)) of the generator's last certified
    # enclosure, set by `_free_range_bound`.  Not a field, so ==, hash and
    # repr ignore it.
    _enclosure = None

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


def _floor_sqrt_fraction(q: Fraction) -> int:
    """Largest integer m with m^2 <= q (q >= 0): isqrt of floor(q)."""
    return math.isqrt(q.numerator // q.denominator)


def _ceil_sqrt_fraction(q: Fraction) -> int:
    """Smallest integer m with m^2 >= q (q >= 0)."""
    m = _floor_sqrt_fraction(q)
    return m if m * m == q else m + 1


def _as_fraction(x) -> Fraction:
    return Fraction(str(x)) if isinstance(x, float) else Fraction(x)


def _free_range_bound(gamma: GammaSpec, B: Fraction, tol: Fraction,
                      precision: int) -> tuple[int, Fraction, Fraction]:
    """(a_max, g_lo, g_hi): the certified enclosure [g_lo, g_hi] of the
    generator's height at tol and a_max = ceil(sqrt((B + tol)/g_lo)).

    The enclosure is read from gamma's slot when it was computed at the same
    (tol, precision), and otherwise computed and put in the slot.
    """
    if B < 0:
        raise DomainError("height bound must be >= 0")
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    key = (tol, precision)
    slot = gamma._enclosure
    if slot is not None and slot[0] == key:
        g_lo, g_hi = slot[1]
    else:
        g_lo, g_hi = canonical_height_enclosure(gamma.curve, gamma.generator, tol, precision)
        # One attribute store of one tuple: a reader in another thread sees
        # the old slot or the new one, never a mix.
        object.__setattr__(gamma, "_enclosure", (key, (g_lo, g_hi)))
    if g_lo <= tol:
        raise DomainError(
            "generator's canonical height does not exceed the tolerance; "
            "the GammaSpec looks inconsistent (torsion-like generator)")
    return _ceil_sqrt_fraction((B + tol) / g_lo), g_lo, g_hi


def _height_estimator(gamma: GammaSpec, tol: Fraction, precision: int,
                      g_lo: Fraction, g_hi: Fraction) -> Callable[[ECPoint], Fraction]:
    """P -> midpoint of its certified h-hat enclosure at tol, memoised by x(P).

    The enclosure reads P only through x(P) (P and -P are torsion together),
    and the generator's is already known.
    """
    E = gamma.curve
    memo = {gamma.generator.x: (g_lo + g_hi) / 2}

    def estimate(P: ECPoint) -> Fraction:
        if P.x not in memo:
            p_lo, p_hi = canonical_height_enclosure(E, P, tol, precision)
            memo[P.x] = (p_lo + p_hi) / 2
        return memo[P.x]

    return estimate


def _walk_rank1(gamma: GammaSpec, B: Fraction, tol: Fraction, g_lo: Fraction,
                g_hi: Fraction, lo: int, hi: int,
                estimate: Callable[[ECPoint], Fraction]) -> dict[int, list[ECPoint]]:
    """a -> the points a*g + T, in torsion-list order, with lo <= a <= hi
    whose estimated height is at most B + tol.

    Only |a| is walked, a*g stepped by one addition of g per step.  The
    torsion list is closed under negation and (-a)*g + T = -(a*g + (-T)), so
    the points of -a are negations of those of a; a point and its negation
    share x(P), and with it their estimate.

    h-hat(a*g + T) = a^2 h-hat(g) lies in [a^2 g_lo, a^2 g_hi], and a point's
    own estimate lies within tol/2 of it: a^2 g_hi <= B + tol/2 keeps the
    point and a^2 g_lo > B + 3 tol/2 drops it.  As cutoffs on |a|, the first
    keeps |a| <= sure and the second drops |a| > last, so the walk stops at
    last.  Only in the band between does `estimate` certify the point's own
    height.
    """
    E, g, torsion = gamma.curve, gamma.generator, gamma.torsion_points
    sure = _floor_sqrt_fraction((B + tol / 2) / g_hi)
    last = _floor_sqrt_fraction((B + 3 * tol / 2) / g_lo)
    start = 0 if lo <= 0 <= hi else min(abs(lo), abs(hi))
    top = min(max(-lo, hi), last)
    if lo > hi or start > top:
        return {}
    negated = [torsion.index(negate(T)) for T in torsion]
    kept = {}
    base = scalar_mul(E, start, g)
    for a in range(start, top + 1):
        if a > start:
            base = add(E, base, g)
        points = [add(E, base, T) for T in torsion]
        keep = [a <= sure or estimate(P) <= B + tol for P in points]
        if lo <= a <= hi:
            kept[a] = [P for P, k in zip(points, keep) if k]
        if a > 0 and lo <= -a <= hi:
            kept[-a] = [negate(points[j]) for j in negated if keep[j]]
    return kept


def enumerate_rank1(gamma: GammaSpec, height_bound, tol,
                    a_range: Optional[tuple[int, int]] = None,
                    precision: int = 256) -> Iterator[tuple[ECPoint, Fraction]]:
    """Yield (point, certified h-hat midpoint) for points a*g + T of canonical
    height at most B + tol, in deterministic order (a ascending, then the
    torsion list order).

    a_range restricts the free coefficient to a closed subinterval: disjoint
    a-ranges partition the enumeration exactly.
    """
    B = _as_fraction(height_bound)
    tol = _as_fraction(tol)
    a_max, g_lo, g_hi = _free_range_bound(gamma, B, tol, precision)
    lo, hi = (-a_max, a_max) if a_range is None else a_range
    lo, hi = max(lo, -a_max), min(hi, a_max)
    estimate = _height_estimator(gamma, tol, precision, g_lo, g_hi)
    kept = _walk_rank1(gamma, B, tol, g_lo, g_hi, lo, hi, estimate)
    for a in range(lo, hi + 1):
        for P in kept.get(a, ()):
            yield P, estimate(P)


def _check_family(family: str, n: int) -> None:
    if family not in FAMILY_IDS:
        raise DomainError(f"unknown family {family!r}; use one of {FAMILY_IDS}")
    if n < 1:
        raise DomainError("n must be >= 1")


def _family_rhs(family: str, n: int, x: Fraction) -> Fraction:
    """The y that the family equation asks of p2, given x = x(p1)."""
    return x ** n if family == "f1" else x ** n + 1


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


def search_rational_points(family: str, n: int, gamma: GammaSpec, height_bound,
                           tol, shards: int = 1,
                           precision: int = 256) -> SearchReport:
    """Exhaustive-below-B search: enumerate Gamma x Gamma and filter by the
    family equation.  One walk over a = 0..a_max covers the whole free range;
    `shards` is validated and echoed in the report, and changes neither the
    work nor the result."""
    if shards < 1:
        raise DomainError("shard count must be >= 1")
    _check_family(family, n)
    B = _as_fraction(height_bound)
    tol_f = _as_fraction(tol)
    t0 = time.perf_counter()
    a_max, g_lo, g_hi = _free_range_bound(gamma, B, tol_f, precision)
    estimate = _height_estimator(gamma, tol_f, precision, g_lo, g_hi)
    kept = _walk_rank1(gamma, B, tol_f, g_lo, g_hi, -a_max, a_max, estimate)
    points = sorted((P for row in kept.values() for P in row), key=ECPoint.key)

    # Every pair is decided: a pair with a point at infinity lies on the
    # boundary of the affine chart and is listed, never equation-tested; an
    # affine p1 matches exactly the affine p2 whose y is the family's rhs.
    # Points and each by_y bucket are in key order, so found is too.
    at_infinity = [P for P in points if P.is_infinity]
    by_y: dict[Fraction, list[ECPoint]] = {}
    for P in points:
        if not P.is_infinity:
            by_y.setdefault(P.y, []).append(P)
    found = []
    closure = []
    for p1 in points:
        if p1.is_infinity:
            closure.extend(f"{p1} x {p2}" for p2 in points)
            continue
        closure.extend(f"{p1} x {p2}" for p2 in at_infinity)
        for p2 in by_y.get(_family_rhs(family, n, p1.x), ()):
            found.append(FoundPoint(p1, p2, estimate(p1), estimate(p2)))
    closure.sort()
    pairs = len(points) ** 2
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
