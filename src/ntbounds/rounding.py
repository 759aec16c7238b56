"""Exact rational arithmetic and directed-rounding evaluation of constant expressions.

Every numeric quantity that is not an exact rational is carried either as a
symbolic :class:`ConstExpr` (products/sums over rationals, integer powers of pi,
logarithms of positive rationals, Gamma at half-integers) or as a
:class:`BoundedReal`: a dyadic float together with the side of the exact value
it is guaranteed to lie on.  All interval work is delegated to ``mpmath.iv``,
whose enclosures are certified; endpoints are extracted exactly.
"""

from __future__ import annotations

import enum
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

import mpmath
from mpmath import iv, mp
from mpmath import libmp

__all__ = [
    "Direction",
    "Comparison",
    "IndeterminateError",
    "BoundedReal",
    "ConstExpr",
    "Rat",
    "PiPow",
    "LogRat",
    "GammaHalf",
    "Opaque",
    "Sum",
    "Prod",
    "Pow",
    "rat",
    "log_rat",
    "pi_pow",
    "gamma_half_plus_one",
    "unit_ball_volume",
    "eval_const",
    "eval_interval",
    "compare_bound",
    "fraction_to_decimal",
    "decimal_sig_figs",
    "DEFAULT_PRECISION",
    "MIN_PRECISION",
]

DEFAULT_PRECISION = 128
MIN_PRECISION = 53

RationalLike = Union[int, Fraction]

# mpmath's iv context keeps its precision as global state; serialize access.
_IV_LOCK = threading.RLock()


class Direction(enum.Enum):
    UPPER = "upper"
    LOWER = "lower"
    NEAREST = "nearest"


class Comparison(enum.Enum):
    LESS = "less"
    GREATER = "greater"
    INDETERMINATE = "indeterminate"


class DomainError(ValueError):
    """Raised for arguments outside an operation's domain (e.g. log of q <= 0)."""


class DirectionError(ValueError):
    """Raised when an arithmetic combination of BoundedReals is not sound."""


class IndeterminateError(RuntimeError):
    """Raised when a certified decision or enclosure is out of reach at the
    requested precision (raising the precision may settle it)."""


def _require_finite(t) -> None:
    """libmp keeps infinities and nan as a zero mantissa with a nonzero exponent."""
    if not t[1] and t[2]:
        raise DomainError("non-finite float endpoint")


def _raw_to_fraction(t) -> Fraction:
    """Exact value of a libmp raw mpf tuple."""
    _require_finite(t)
    sign, man, exp, _ = t
    if man == 0:
        return Fraction(0)
    man = -int(man) if sign else int(man)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def mpf_to_fraction(x) -> Fraction:
    raw = getattr(x, "_mpf_", None)
    if raw is None:
        # ints and Fractions are exact already
        return Fraction(x)
    return _raw_to_fraction(raw)


class interval_context:
    """Set iv precision (plus guard bits) while holding the iv lock."""

    def __init__(self, precision: int, guard: int = 16):
        if precision < MIN_PRECISION:
            raise DomainError(f"precision must be >= {MIN_PRECISION}, got {precision}")
        self.prec = precision + guard

    def __enter__(self):
        _IV_LOCK.acquire()
        self._saved = iv.prec
        iv.prec = self.prec
        return iv

    def __exit__(self, *exc):
        iv.prec = self._saved
        _IV_LOCK.release()
        return False


def iv_from_int(n: int):
    """Exact-enclosure interval for an arbitrary integer (iv.mpf rounds ties itself)."""
    lo = libmp.from_int(n, iv.prec, libmp.round_floor)
    hi = libmp.from_int(n, iv.prec, libmp.round_ceiling)
    return iv.mpf((mp.make_mpf(lo), mp.make_mpf(hi)))


def iv_from_fraction(q: Fraction):
    if q.denominator == 1:
        return iv_from_int(q.numerator)
    return iv_from_int(q.numerator) / iv_from_int(q.denominator)


def iv_endpoints(x) -> tuple[Fraction, Fraction]:
    a, b = x._mpi_
    return _raw_to_fraction(a), _raw_to_fraction(b)


def iv_max(x, y):
    """Interval max (mpmath.iv has no max)."""
    xa, xb = x._mpi_
    ya, yb = y._mpi_
    lo = mp.make_mpf(xa) if libmp.mpf_ge(xa, ya) else mp.make_mpf(ya)
    hi = mp.make_mpf(xb) if libmp.mpf_ge(xb, yb) else mp.make_mpf(yb)
    return iv.mpf((lo, hi))


def _round_endpoint(fr: Fraction, precision: int, rounding) -> mpmath.mpf:
    raw = libmp.from_rational(fr.numerator, fr.denominator, precision, rounding)
    return mp.make_mpf(raw)


@dataclass(frozen=True)
class BoundedReal:
    """A dyadic float plus the side of the exact quantity it brackets.

    direction UPPER: value >= exact; LOWER: value <= exact; NEAREST: no
    guaranteed side (display/estimate only, never used for certification).
    """

    value: mpmath.mpf
    direction: Direction
    precision: int = DEFAULT_PRECISION

    @staticmethod
    def from_interval(interval, direction: Direction, precision: int) -> "BoundedReal":
        """Round the raw endpoints directly: the same dyadic as rounding their
        exact Fraction values, without building them."""
        lo, hi = interval._mpi_
        _require_finite(lo)
        _require_finite(hi)
        if direction is Direction.UPPER:
            raw, rounding = hi, libmp.round_ceiling
        elif direction is Direction.LOWER:
            raw, rounding = lo, libmp.round_floor
        else:
            # the exact midpoint: an unrounded sum, then a one-bit shift
            raw, rounding = libmp.mpf_shift(libmp.mpf_add(lo, hi), -1), libmp.round_nearest
        v = mp.make_mpf(libmp.mpf_pos(raw, precision, rounding))
        return BoundedReal(v, direction, precision)

    @staticmethod
    def from_fraction(q, direction: Direction = Direction.NEAREST,
                      precision: int = DEFAULT_PRECISION) -> "BoundedReal":
        q = Fraction(q)
        rounding = {
            Direction.UPPER: libmp.round_ceiling,
            Direction.LOWER: libmp.round_floor,
            Direction.NEAREST: libmp.round_nearest,
        }[direction]
        return BoundedReal(_round_endpoint(q, precision, rounding), direction, precision)

    def exact(self) -> Fraction:
        """The stored dyadic value, exactly."""
        return mpf_to_fraction(self.value)

    def decimal(self, sig_digits: int = 40) -> str:
        return fraction_to_decimal(self.exact(), sig_digits, self.direction)

    def __float__(self) -> float:
        return float(self.value)

    # -- sound directed arithmetic -------------------------------------------

    def _binop(self, other: "BoundedReal", op, allowed, what: str) -> "BoundedReal":
        if not isinstance(other, BoundedReal):
            return NotImplemented
        pair = (self.direction, other.direction)
        if pair not in allowed:
            raise DirectionError(f"{what} of {pair[0].value} and {pair[1].value} is not sound")
        direction = allowed[pair]
        precision = min(self.precision, other.precision)
        rounding = {
            Direction.UPPER: libmp.round_ceiling,
            Direction.LOWER: libmp.round_floor,
            Direction.NEAREST: libmp.round_nearest,
        }[direction]
        raw = op(self.value._mpf_, other.value._mpf_, precision, rounding)
        return BoundedReal(mp.make_mpf(raw), direction, precision)

    def __add__(self, other):
        allowed = {
            (Direction.UPPER, Direction.UPPER): Direction.UPPER,
            (Direction.LOWER, Direction.LOWER): Direction.LOWER,
            (Direction.NEAREST, Direction.NEAREST): Direction.NEAREST,
        }
        return self._binop(other, libmp.mpf_add, allowed, "sum")

    def __sub__(self, other):
        allowed = {
            (Direction.UPPER, Direction.LOWER): Direction.UPPER,
            (Direction.LOWER, Direction.UPPER): Direction.LOWER,
            (Direction.NEAREST, Direction.NEAREST): Direction.NEAREST,
        }
        return self._binop(other, libmp.mpf_sub, allowed, "difference")

    def __mul__(self, other):
        if isinstance(other, BoundedReal):
            if (self.value < 0 or other.value < 0) and \
                    Direction.NEAREST not in (self.direction, other.direction):
                raise DirectionError("directed product requires nonnegative operands")
            allowed = {
                (Direction.UPPER, Direction.UPPER): Direction.UPPER,
                (Direction.LOWER, Direction.LOWER): Direction.LOWER,
                (Direction.NEAREST, Direction.NEAREST): Direction.NEAREST,
            }
            return self._binop(other, libmp.mpf_mul, allowed, "product")
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(other))
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, q: Fraction) -> "BoundedReal":
        """Multiply by an exact rational; a negative scalar flips the direction."""
        q = Fraction(q)
        direction = self.direction
        if q < 0 and direction is not Direction.NEAREST:
            direction = Direction.UPPER if direction is Direction.LOWER else Direction.LOWER
        rounding = {
            Direction.UPPER: libmp.round_ceiling,
            Direction.LOWER: libmp.round_floor,
            Direction.NEAREST: libmp.round_nearest,
        }[direction]
        raw = libmp.from_rational((self.exact() * q).numerator, (self.exact() * q).denominator,
                                  self.precision, rounding)
        return BoundedReal(mp.make_mpf(raw), direction, self.precision)


def compare_bound(a: BoundedReal, b: BoundedReal) -> Comparison:
    """Certified strict comparison; indeterminate when the directed intervals overlap.

    A NEAREST value carries no certified side, so it can never certify an
    ordering (raise precision and request directed values instead).
    """
    a_sup = a.exact() if a.direction is Direction.UPPER else None
    a_inf = a.exact() if a.direction is Direction.LOWER else None
    b_sup = b.exact() if b.direction is Direction.UPPER else None
    b_inf = b.exact() if b.direction is Direction.LOWER else None
    if a_sup is not None and b_inf is not None and a_sup < b_inf:
        return Comparison.LESS
    if a_inf is not None and b_sup is not None and a_inf > b_sup:
        return Comparison.GREATER
    return Comparison.INDETERMINATE


# ---------------------------------------------------------------------------
# Constant expressions
# ---------------------------------------------------------------------------


class ConstExpr:
    """Finite symbolic tree over rationals, pi^k, log(q), Gamma(k/2+1)."""

    def __add__(self, other):
        return Sum((self, _coerce(other)))

    def __radd__(self, other):
        return Sum((_coerce(other), self))

    def __sub__(self, other):
        return Sum((self, Prod((Rat(Fraction(-1)), _coerce(other)))))

    def __rsub__(self, other):
        return Sum((_coerce(other), Prod((Rat(Fraction(-1)), self))))

    def __neg__(self):
        return Prod((Rat(Fraction(-1)), self))

    def __mul__(self, other):
        return Prod((self, _coerce(other)))

    def __rmul__(self, other):
        return Prod((_coerce(other), self))

    def __truediv__(self, other):
        other = _coerce(other)
        if isinstance(other, Rat):
            if other.q == 0:
                raise ZeroDivisionError("division of ConstExpr by zero")
            return Prod((self, Rat(1 / other.q)))
        return Prod((self, Pow(other, -1)))

    def __rtruediv__(self, other):
        return Prod((_coerce(other), Pow(self, -1)))

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("ConstExpr powers must be integers")
        return Pow(self, k)


def _coerce(x) -> ConstExpr:
    if isinstance(x, ConstExpr):
        return x
    if isinstance(x, (int, Fraction)):
        return Rat(Fraction(x))
    raise TypeError(f"cannot use {type(x).__name__} in a ConstExpr")


@dataclass(frozen=True)
class Rat(ConstExpr):
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))


@dataclass(frozen=True)
class PiPow(ConstExpr):
    k: int


@dataclass(frozen=True)
class LogRat(ConstExpr):
    q: Fraction

    def __post_init__(self):
        q = Fraction(self.q)
        if q <= 0:
            raise DomainError(f"log of nonpositive rational {q}")
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class GammaHalf(ConstExpr):
    """Gamma(k/2 + 1) for integer k >= 0: exact factorial / double-factorial * sqrt(pi)."""

    k: int

    def __post_init__(self):
        if self.k < 0:
            raise DomainError("GammaHalf requires k >= 0")

    def exact_parts(self) -> tuple[Fraction, bool]:
        """(rational factor, whether a sqrt(pi) factor is present)."""
        k = self.k
        if k % 2 == 0:
            return Fraction(math.factorial(k // 2)), False
        dfact = 1
        for j in range(k, 0, -2):
            dfact *= j
        return Fraction(dfact, 2 ** ((k + 1) // 2)), True


@dataclass(frozen=True)
class Opaque(ConstExpr):
    """A precomputed enclosure embedded as a leaf (e.g. a certified height).

    Its width is fixed: raising evaluation precision does not tighten it.
    """

    lo: Fraction
    hi: Fraction
    label: str = "opaque"

    def __post_init__(self):
        if self.lo > self.hi:
            raise DomainError("Opaque enclosure with lo > hi")


@dataclass(frozen=True)
class Sum(ConstExpr):
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(_coerce(t) for t in self.terms))


@dataclass(frozen=True)
class Prod(ConstExpr):
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(_coerce(f) for f in self.factors))


@dataclass(frozen=True)
class Pow(ConstExpr):
    base: ConstExpr
    k: int


def rat(x) -> Rat:
    return Rat(Fraction(x))


def log_rat(q) -> LogRat:
    return LogRat(Fraction(q))


def pi_pow(k: int) -> ConstExpr:
    return PiPow(k) if k != 0 else Rat(Fraction(1))


def gamma_half_plus_one(k: int) -> GammaHalf:
    return GammaHalf(k)


def unit_ball_volume(r: int) -> ConstExpr:
    """Volume of the euclidean unit ball in R^r: pi^(r/2)/Gamma(r/2+1).

    The sqrt(pi) of numerator and denominator cancel, leaving an exact
    rational times an integer power of pi.
    """
    if r < 0:
        raise DomainError("dimension must be >= 0")
    if r % 2 == 0:
        return Prod((Rat(Fraction(1, math.factorial(r // 2))), pi_pow(r // 2)))
    dfact = 1
    for j in range(r, 0, -2):
        dfact *= j
    return Prod((Rat(Fraction(2 ** ((r + 1) // 2), dfact)), pi_pow((r - 1) // 2)))


# Enclosures of atoms (pi powers, logs, Gamma values) by (atom, precision),
# least recently used first.  Bounded, so that a long-running process that
# keeps meeting fresh log arguments does not grow without limit.
_ATOM_CACHE_SIZE = 4096
_ATOM_CACHE: OrderedDict = OrderedDict()


def _eval_iv(expr: ConstExpr, prec: int):
    """Evaluate within an active interval_context; returns an iv interval."""
    key = None
    if isinstance(expr, (PiPow, LogRat, GammaHalf)):
        key = (expr, prec)
        cached = _ATOM_CACHE.get(key)
        if cached is not None:
            _ATOM_CACHE.move_to_end(key)
            return iv.mpf(cached)
    if isinstance(expr, Rat):
        return iv_from_fraction(expr.q)
    if isinstance(expr, PiPow):
        result = iv.pi ** expr.k
    elif isinstance(expr, LogRat):
        if expr.q <= 0:
            raise DomainError(f"log of nonpositive rational {expr.q}")
        result = iv.log(iv_from_fraction(expr.q))
    elif isinstance(expr, GammaHalf):
        c, has_sqrt_pi = expr.exact_parts()
        result = iv_from_fraction(c)
        if has_sqrt_pi:
            result = result * iv.sqrt(iv.pi)
    elif isinstance(expr, Opaque):
        lo = _round_endpoint(expr.lo, iv.prec, libmp.round_floor)
        hi = _round_endpoint(expr.hi, iv.prec, libmp.round_ceiling)
        return iv.mpf((lo, hi))
    elif isinstance(expr, Sum):
        result = iv.mpf(0)
        for t in expr.terms:
            result = result + _eval_iv(t, prec)
        return result
    elif isinstance(expr, Prod):
        result = iv.mpf(1)
        for f in expr.factors:
            result = result * _eval_iv(f, prec)
        return result
    elif isinstance(expr, Pow):
        return _eval_iv(expr.base, prec) ** expr.k
    else:
        raise TypeError(f"not a ConstExpr leaf or node: {expr!r}")
    if key is not None:
        a, b = result._mpi_
        _ATOM_CACHE[key] = (mp.make_mpf(a), mp.make_mpf(b))
        if len(_ATOM_CACHE) > _ATOM_CACHE_SIZE:
            _ATOM_CACHE.popitem(last=False)
    return result


def eval_interval(expr: ConstExpr, precision: int = DEFAULT_PRECISION) -> tuple[Fraction, Fraction]:
    """Certified enclosure of a ConstExpr as exact dyadic fractions."""
    with interval_context(precision):
        return iv_endpoints(_eval_iv(_coerce(expr), precision))


def eval_const(expr: ConstExpr, direction: Direction = Direction.NEAREST,
               precision: int = DEFAULT_PRECISION) -> BoundedReal:
    """Evaluate a constant expression, rounded to the requested side.

    Increasing precision tightens the bracket monotonically (Opaque leaves
    excepted, whose enclosures are fixed).
    """
    if precision < MIN_PRECISION:
        raise DomainError(f"precision must be >= {MIN_PRECISION}, got {precision}")
    with interval_context(precision):
        value = _eval_iv(_coerce(expr), precision)
        return BoundedReal.from_interval(value, direction, precision)


# ---------------------------------------------------------------------------
# Exact decimal rendering with directed last-digit rounding
# ---------------------------------------------------------------------------


def _decimal_digits(q: Fraction, sig_digits: int, rounding: str) -> tuple[int, int]:
    """(digits, exp10) with digits having sig_digits decimal digits, value ~ digits*10^exp10."""
    assert q > 0
    num, den = q.numerator, q.denominator
    # e = floor(log10(q))
    e = len(str(num)) - len(str(den))
    while 10 ** e * den > num:
        e -= 1
    while 10 ** (e + 1) * den <= num:
        e += 1
    shift = sig_digits - 1 - e
    if shift >= 0:
        scaled_num, scaled_den = num * 10 ** shift, den
    else:
        scaled_num, scaled_den = num, den * 10 ** (-shift)
    digits, rem = divmod(scaled_num, scaled_den)
    if rem:
        if rounding == "ceil":
            digits += 1
        elif rounding == "nearest":
            if 2 * rem >= scaled_den:
                digits += 1
    if digits == 10 ** sig_digits:
        digits //= 10
        e += 1
    return digits, e - (sig_digits - 1)


def fraction_to_decimal(q: Fraction, sig_digits: int, direction: Direction) -> str:
    """Decimal string with directed rounding at the last kept digit.

    UPPER never understates, LOWER never overstates.  Layout: plain decimal
    for moderate magnitudes, else normalized scientific notation.
    """
    if sig_digits < 1:
        raise DomainError("need at least one significant digit")
    if q == 0:
        return "0"
    sign = "-" if q < 0 else ""
    if q < 0:
        rounding = {Direction.UPPER: "floor", Direction.LOWER: "ceil",
                    Direction.NEAREST: "nearest"}[direction]
    else:
        rounding = {Direction.UPPER: "ceil", Direction.LOWER: "floor",
                    Direction.NEAREST: "nearest"}[direction]
    digits, exp10 = _decimal_digits(abs(q), sig_digits, rounding)
    s = str(digits)
    point_exp = exp10 + len(s) - 1  # exponent of the leading digit
    if -4 <= point_exp <= 20:
        if exp10 >= 0:
            text = s + "0" * exp10
        elif -exp10 < len(s):
            text = s[:exp10] + "." + s[exp10:]
        else:
            text = "0." + "0" * (-exp10 - len(s)) + s
        if "." in text:
            text = text.rstrip("0").rstrip(".")
        return sign + text
    mantissa = s[0] + ("." + s[1:] if len(s) > 1 else "")
    if "." in mantissa:
        mantissa = mantissa.rstrip("0").rstrip(".")
    return f"{sign}{mantissa}e{point_exp}"


def decimal_sig_figs(x: Union[BoundedReal, Fraction], sig_digits: int,
                     direction: Direction = Direction.UPPER) -> str:
    """Directed significant-figure rendering of a BoundedReal or exact fraction."""
    q = x.exact() if isinstance(x, BoundedReal) else Fraction(x)
    return fraction_to_decimal(q, sig_digits, direction)
