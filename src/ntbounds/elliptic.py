"""Short-Weierstrass elliptic curves over Q: exact group law, torsion, h_W(E).

All point arithmetic is exact Fraction arithmetic; nothing here rounds except
the single final log inside :func:`weierstrass_height`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .rounding import (
    BoundedReal,
    ConstExpr,
    Direction,
    DomainError,
    LogRat,
    Prod,
    Rat,
    Sum,
    eval_const,
    rat,
)

__all__ = [
    "EllipticCurveQ",
    "ECPoint",
    "SingularCurveError",
    "PointNotOnCurveError",
    "validate_curve",
    "add",
    "negate",
    "scalar_mul",
    "torsion_order",
    "weierstrass_height",
    "weierstrass_height_expr",
    "curve_from_json",
    "curve_to_json",
    "MAZUR_ORDERS",
]

# Admissible orders of rational torsion points (Mazur).
MAZUR_ORDERS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12)


class SingularCurveError(ValueError):
    def __init__(self, a: Fraction, b: Fraction, discriminant: Fraction):
        self.discriminant = discriminant
        super().__init__(
            f"singular curve y^2 = x^3 + ({a})x + ({b}): discriminant {discriminant} = 0"
        )


class PointNotOnCurveError(ValueError):
    pass


@dataclass(frozen=True)
class ECPoint:
    """Affine point (x, y) or the point at infinity (x = y = None)."""

    x: Optional[Fraction]
    y: Optional[Fraction]

    @staticmethod
    def infinity() -> "ECPoint":
        return ECPoint(None, None)

    @staticmethod
    def affine(x, y) -> "ECPoint":
        return ECPoint(Fraction(x), Fraction(y))

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def key(self):
        """Deterministic sort key: infinity first, then by (x, y)."""
        if self.is_infinity:
            return (0, Fraction(0), Fraction(0))
        return (1, self.x, self.y)

    def __str__(self) -> str:
        if self.is_infinity:
            return "O"
        return f"({self.x}, {self.y})"


INFINITY = ECPoint.infinity()


@dataclass(frozen=True)
class EllipticCurveQ:
    """y^2 = x^3 + a*x + b over Q with nonzero discriminant."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.discriminant() == 0:
            raise SingularCurveError(self.a, self.b, self.discriminant())

    def discriminant(self) -> Fraction:
        return -16 * (4 * self.a ** 3 + 27 * self.b ** 2)

    def contains(self, P: ECPoint) -> bool:
        if P.is_infinity:
            return True
        return P.y ** 2 == P.x ** 3 + self.a * P.x + self.b

    def require(self, P: ECPoint) -> None:
        if not self.contains(P):
            raise PointNotOnCurveError(f"{P} does not satisfy y^2 = x^3 + ({self.a})x + ({self.b})")

    def __str__(self) -> str:
        return f"y^2 = x^3 + ({self.a})x + ({self.b})"


def validate_curve(a, b) -> EllipticCurveQ:
    """Build a curve, rejecting singular input with the computed discriminant."""
    return EllipticCurveQ(Fraction(a), Fraction(b))


def negate(P: ECPoint) -> ECPoint:
    if P.is_infinity:
        return P
    return ECPoint(P.x, -P.y)


def add(E: EllipticCurveQ, P: ECPoint, Q: ECPoint) -> ECPoint:
    """Chord-tangent addition; total on all cases."""
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    if P.x == Q.x:
        if P.y == -Q.y:
            return INFINITY
        # tangent case (P == Q with y != 0)
        slope = (3 * P.x ** 2 + E.a) / (2 * P.y)
    else:
        slope = (Q.y - P.y) / (Q.x - P.x)
    x3 = slope ** 2 - P.x - Q.x
    y3 = slope * (P.x - x3) - P.y
    return ECPoint(x3, y3)


def scalar_mul(E: EllipticCurveQ, m: int, P: ECPoint) -> ECPoint:
    """m*P by double-and-add; m may be negative or zero."""
    if m < 0:
        return scalar_mul(E, -m, negate(P))
    result = INFINITY
    acc = P
    while m:
        if m & 1:
            result = add(E, result, acc)
        m >>= 1
        if m:
            acc = add(E, acc, acc)
    return result


def _nagell_lutz_excludes(E: EllipticCurveQ, P: ECPoint) -> bool:
    """True when the Nagell-Lutz theorem proves the affine point P non-torsion.

    With u = den(a) den(b), (X, Y) = (u^2 x, u^3 y) lies on the integral model
    Y^2 = X^3 + A X + B, A = u^4 a, B = u^6 b, isomorphic to E over Q.  A torsion
    point there has integer X and Y, and Y = 0 or Y^2 | 4A^3 + 27B^2.
    """
    u = E.a.denominator * E.b.denominator
    u2 = u * u
    # x and y are in lowest terms, so u^2 x is an integer iff den(x) | u^2.
    if u2 % P.x.denominator or u2 * u % P.y.denominator:
        return True
    Y = P.y.numerator * (u2 * u // P.y.denominator)
    if Y == 0:
        return False
    A = E.a.numerator * (u2 * u2 // E.a.denominator)
    B = E.b.numerator * (u2 * u2 * u2 // E.b.denominator)
    return (4 * A ** 3 + 27 * B ** 2) % (Y * Y) != 0


def torsion_order(E: EllipticCurveQ, P: ECPoint) -> Optional[int]:
    """Order of P if torsion, None otherwise.

    Every multiple of a torsion point is torsion, so the Nagell-Lutz test
    (:func:`_nagell_lutz_excludes`) is applied to P before any group-law work
    and then to each multiple m*P: a point whose scaled coordinates are not
    integers, or whose Y^2 does not divide 4A^3 + 27B^2 on the integral model,
    has infinite order.  Points that keep passing have small integer
    coordinates on that model, so the exact loop over m stays cheap.  A
    rational torsion point has order in MAZUR_ORDERS (at most 12), so walking
    m*P for m = 1..12 is a total decision procedure, and the first m with
    m*P = O is the exact order.
    """
    E.require(P)
    acc, m = P, 1
    while not acc.is_infinity:
        if m == 12 or _nagell_lutz_excludes(E, acc):
            return None
        acc = add(E, acc, P)
        m += 1
    return m if m in MAZUR_ORDERS else None


# ---------------------------------------------------------------------------
# Height of the Weierstrass equation
# ---------------------------------------------------------------------------


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (denominators stay desk-scale)."""
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    increments = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n:
        if n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        else:
            f += increments[i]
            i = (i + 1) % 8
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def weierstrass_height_expr(E: EllipticCurveQ) -> ConstExpr:
    """h_W(E) as an exact expression: the Weil height of (1 : A^(1/2) : B^(1/3)).

    Per place, the contribution is log max(1, |A|_v^(1/2), |B|_v^(1/3)).  The
    finite part is read off the prime factorizations of the denominators; the
    archimedean max is decided exactly by comparing |A|^3 with |B|^2.
    """
    A, B = E.a, E.b
    terms: list[ConstExpr] = []

    # Archimedean place: max(0, log|A|/2, log|B|/3), decided exactly.
    absA, absB = abs(A), abs(B)
    cand: list[tuple[Fraction, Fraction]] = []  # (coefficient, argument of log)
    if absA > 1:
        cand.append((Fraction(1, 2), absA))
    if absB > 1:
        cand.append((Fraction(1, 3), absB))
    if len(cand) == 2:
        # (1/2)log|A| >= (1/3)log|B|  <=>  |A|^3 >= |B|^2
        chosen = cand[0] if absA ** 3 >= absB ** 2 else cand[1]
        cand = [chosen]
    if cand:
        coeff, arg = cand[0]
        terms.append(Prod((Rat(coeff), LogRat(arg))))

    # Finite places: only denominator primes contribute.
    primes_a = _factorize(A.denominator)
    primes_b = _factorize(B.denominator)
    for p in sorted(set(primes_a) | set(primes_b)):
        e = max(Fraction(primes_a.get(p, 0), 2), Fraction(primes_b.get(p, 0), 3))
        terms.append(Prod((Rat(e), LogRat(Fraction(p)))))

    if not terms:
        return rat(0)
    if len(terms) == 1:
        return terms[0]
    return Sum(tuple(terms))


def weierstrass_height(E: EllipticCurveQ, direction: Direction = Direction.NEAREST,
                       precision: int = 128) -> BoundedReal:
    return eval_const(weierstrass_height_expr(E), direction, precision)


# ---------------------------------------------------------------------------
# Curve spec files
# ---------------------------------------------------------------------------


def _fraction_from_string(s: str) -> Fraction:
    s = s.strip()
    if "." in s or "e" in s.lower():
        raise DomainError(f"rationals must be decimal-free fraction strings, got {s!r}")
    return Fraction(s)


def fraction_to_string(q: Fraction) -> str:
    return str(q)


def curve_from_json(text: str) -> tuple[EllipticCurveQ, ECPoint, int, int]:
    """Parse a curve spec file: curve, generator, rank, torsion order."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"curve file is not valid JSON: {exc}") from exc
    try:
        a = _fraction_from_string(data["a"])
        b = _fraction_from_string(data["b"])
        gx, gy = data["generator"]
        rank = int(data.get("rank", 1))
        torsion = int(data.get("torsion_order", 1))
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed curve file: {exc}") from exc
    E = validate_curve(a, b)
    g = ECPoint.affine(_fraction_from_string(gx), _fraction_from_string(gy))
    E.require(g)
    return E, g, rank, torsion


def curve_to_json(E: EllipticCurveQ, generator: ECPoint, rank: int = 1,
                  torsion: int = 1) -> str:
    if generator.is_infinity:
        raise DomainError("generator must be affine")
    payload = {
        "a": fraction_to_string(E.a),
        "b": fraction_to_string(E.b),
        "generator": [fraction_to_string(generator.x), fraction_to_string(generator.y)],
        "rank": rank,
        "torsion_order": torsion,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
