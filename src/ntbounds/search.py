"""Bounded-height enumeration of rank-1 Mordell-Weil groups in E x E and
membership testing against the curve families.

Gamma = Z*g, the group the paper searches: E(Q) for a curve of rank 1 with
trivial torsion.  Exhaustiveness holds only up to the caller's height bound
B.  The canonical height is a quadratic form, h-hat(a*g) = a^2 h-hat(g), so
one certified enclosure [g_lo, g_hi] of h-hat(g) decides almost every
candidate: a*g is kept if a^2 g_hi <= B + tol/2 and dropped if
a^2 g_lo > B + 3 tol/2, which cuts the walk off at
|a| <= last = floor(sqrt((B + 3 tol/2)/g_lo)).  Only a point in the band
between gets its own certified canonical height, kept if its midpoint is at
most B + tol; the kept set is exactly that of certifying every point.

A GammaSpec keeps two slots from one request to the next.  One holds its
generator's last enclosure with the (tol, precision) it was computed at, so
repeated searches on one Gamma certify the generator once.  The other holds
the walk: a*g for a = 0, 1, -1, 2, -2, ... up to |a| <= m, each with its a,
text and place in `ECPoint.key` order.  The walk depends on the Gamma only,
not on B, tol, precision, n or the family, so a request extends it only past
the largest cutoff any request on that Gamma has reached, and otherwise
filters its prefix |a| <= last and puts the kept points in key order by
their places, so a request reads no more of the walk than its own cutoff
covers.  The slot holds no more points than the request that reached that
cutoff held at its peak, and does not grow with the number of requests.
The published bounds (~10^38) are far beyond any search; B is always
desk-scale and explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .elliptic import ECPoint, EllipticCurveQ, add, negate, torsion_order
from .heights import canonical_height_enclosure
from .errors import DomainError

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
    """Gamma = Z*g: a curve and a non-torsion generator g.

    Two slots, set by the searches on it, keep work that depends on the Gamma
    alone: the generator's last certified enclosure and the walk of the
    multiples of g up to the largest cutoff any request has reached (see
    `_walk_to`).  Neither is a field, so ==, hash and repr ignore them.
    """

    curve: EllipticCurveQ
    generator: ECPoint

    # ((tol, precision), (g_lo, g_hi)) of the generator's last certified
    # enclosure, set by `_free_range_bound`.
    _enclosure = None
    # (walk, rank) of the multiples of g, set by `_walk_to`.
    _walk = None

    def __post_init__(self):
        self.curve.require(self.generator)
        if self.generator.is_infinity or torsion_order(self.curve, self.generator) is not None:
            raise DomainError("generator must be a non-torsion affine point")


def _floor_sqrt_fraction(q: Fraction) -> int:
    """Largest integer m with m^2 <= q (q >= 0): isqrt of floor(q)."""
    return math.isqrt(q.numerator // q.denominator)


def _free_range_bound(gamma: GammaSpec, B: Fraction, tol: Fraction,
                      precision: int) -> tuple[Fraction, Fraction]:
    """(g_lo, g_hi): the certified enclosure of the generator's height at tol,
    with g_lo > tol checked.

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
    return g_lo, g_hi


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


# One walked point: (P, a, str(P)), P = a*g.
_WalkPoint = tuple[ECPoint, int, str]


def _walk_to(gamma: GammaSpec, last: int
             ) -> tuple[tuple[_WalkPoint, ...], tuple[int, ...]]:
    """(walk, rank): gamma's walk, covering at least |a| <= last.

    walk holds a*g for a = 0, 1, -1, 2, -2, ..., m (m >= last), so |a| <= k
    is the prefix of length 2k + 1.  rank[i] is walk[i]'s place in
    `ECPoint.key` order over the whole walk.  The walk is read from gamma's
    slot when it reaches last, and otherwise extended from its last base
    point m*g, one addition of g per new |a|, ranked once more and put back
    in the slot; (-a)*g is the negation of a*g.
    """
    slot = gamma._walk
    if slot is not None and len(slot[0]) >= 2 * last + 1:
        return slot
    E, g, O = gamma.curve, gamma.generator, ECPoint.infinity()
    walk = list(slot[0]) if slot is not None else [(O, 0, str(O))]
    base = walk[-2][0] if len(walk) > 1 else O  # m*g
    for a in range(len(walk) // 2 + 1, last + 1):
        base = add(E, base, g)
        minus = negate(base)
        walk.append((base, a, str(base)))
        walk.append((minus, -a, str(minus)))
    rank = [0] * len(walk)
    for place, i in enumerate(sorted(range(len(walk)), key=lambda i: walk[i][0].key())):
        rank[i] = place
    slot = (tuple(walk), tuple(rank))
    # One attribute store of one tuple: a reader in another thread sees the
    # old slot or the new one, never a mix.
    object.__setattr__(gamma, "_walk", slot)
    return slot


def _kept_points(gamma: GammaSpec, B: Fraction, tol: Fraction, precision: int
                 ) -> tuple[list[_WalkPoint], Callable[[ECPoint], Fraction]]:
    """(the walked points whose estimated height is at most B + tol, in
    `ECPoint.key` order; the height estimator that decided them).

    h-hat(a*g) = a^2 h-hat(g) lies in [a^2 g_lo, a^2 g_hi], and a point's
    own estimate lies within tol/2 of it: a^2 g_hi <= B + tol/2 keeps the
    point and a^2 g_lo > B + 3 tol/2 drops it.  As cutoffs on |a|, the first
    keeps |a| <= sure and the second drops |a| > last, and both are prefixes
    of the walk.  Only in the band between does `estimate` certify the
    point's own height; a point and its negation share x(P), and with it
    their estimate.  Only the prefix |a| <= last is read, however far the
    walk reaches.
    """
    g_lo, g_hi = _free_range_bound(gamma, B, tol, precision)
    estimate = _height_estimator(gamma, tol, precision, g_lo, g_hi)
    sure = _floor_sqrt_fraction((B + tol / 2) / g_hi)
    last = _floor_sqrt_fraction((B + 3 * tol / 2) / g_lo)
    bound = B + tol
    walk, rank = _walk_to(gamma, last)
    n_sure, n_last = 2 * sure + 1, 2 * last + 1
    kept = list(range(n_sure))
    kept.extend(i for i in range(n_sure, n_last) if estimate(walk[i][0]) <= bound)
    kept.sort(key=rank.__getitem__)
    return [walk[i] for i in kept], estimate


# Kept while perfbench/tracing.py TARGETS names it; it goes with ROADMAP item 1.
def enumerate_rank1(gamma: GammaSpec, height_bound, tol,
                    precision: int = 256) -> Iterator[tuple[ECPoint, Fraction]]:
    """Yield (point, certified h-hat midpoint) for the points a*g of canonical
    height at most B + tol, a ascending.
    """
    kept, estimate = _kept_points(gamma, Fraction(height_bound), Fraction(tol), precision)
    kept.sort(key=lambda w: w[1])
    for w in kept:
        yield w[0], estimate(w[0])


def _check_family(family: str, n: int) -> None:
    if family not in FAMILY_IDS:
        raise DomainError(f"unknown family {family!r}; use one of {FAMILY_IDS}")
    if n < 1:
        raise DomainError("n must be >= 1")


def _family_rhs(family: str, n: int, x: Fraction) -> tuple[int, int]:
    """(numerator, denominator) of the y that the family equation asks of p2,
    given x = x(p1).

    x = num/den in lowest terms with den > 0, so x^n = num^n/den^n and
    x^n + 1 = (num^n + den^n)/den^n are in lowest terms too.
    """
    top, bottom = x.numerator ** n, x.denominator ** n
    return (top, bottom) if family == "f1" else (top + bottom, bottom)


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


def search_rational_points(family: str, n: int, gamma: GammaSpec, height_bound,
                           tol, shards: int = 1,
                           precision: int = 256) -> SearchReport:
    """Exhaustive-below-B search: enumerate Gamma x Gamma and filter by the
    family equation.  The walk kept on gamma covers the whole free range;
    `shards` is validated and echoed in the report, and changes neither the
    work nor the result."""
    if shards < 1:
        raise DomainError("shard count must be >= 1")
    _check_family(family, n)
    B = Fraction(height_bound)
    tol_f = Fraction(tol)
    points, estimate = _kept_points(gamma, B, tol_f, precision)

    # Every pair is decided: a pair with a point at infinity lies on the
    # boundary of the affine chart and is listed, never equation-tested; an
    # affine p1 matches exactly the affine p2 whose y is the family's rhs.
    # Points and each by_y bucket are in key order, so found is too.
    at_infinity = [text for P, _, text in points if P.is_infinity]
    by_y: dict[tuple[int, int], list[ECPoint]] = {}
    for P, _, _ in points:
        if not P.is_infinity:
            by_y.setdefault((P.y.numerator, P.y.denominator), []).append(P)
    found = []
    closure = []
    for p1, _, text1 in points:
        if p1.is_infinity:
            closure.extend(f"{text1} x {w[2]}" for w in points)
            continue
        closure.extend(f"{text1} x {text2}" for text2 in at_infinity)
        for p2 in by_y.get(_family_rhs(family, n, p1.x), ()):
            found.append(FoundPoint(p1, p2, estimate(p1), estimate(p2)))
    closure.sort()
    return SearchReport(
        family=family,
        n=n,
        height_bound=str(B),
        tolerance=str(tol_f),
        precision_bits=precision,
        candidate_points=len(points),
        pairs_scanned=len(points) ** 2,
        found=tuple(found),
        closure_candidates=tuple(closure),
        shards=shards,
    )
