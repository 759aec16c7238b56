"""Exact rational arithmetic and directed-rounding evaluation of constant expressions.

Every numeric quantity that is not an exact rational is carried either as a
symbolic :class:`ConstExpr` (products/sums over rationals, integer powers of pi,
logarithms of positive rationals) or as a :class:`BoundedReal`: an exact
dyadic rational, held as a ``Fraction``, together with the side of the exact
value it is guaranteed to lie on.  Certified comparisons are plain Fraction
comparisons of such a value, and :func:`fraction_to_decimal` is the one
routine that turns an exact number into text.

The interval substrate is mpmath's ``libmpi``: an interval is a raw pair
``(lo, hi)`` of libmp floats, and every operation takes its working precision
as an argument (``precision + GUARD_BITS``).  Precision is never process
state: only ``mpmath.libmp`` is imported, so evaluation reads and changes no
global ``mpmath`` context.  The libmpi enclosures are certified; endpoints
are extracted exactly.

Atoms are cached by (atom, precision).  Each Sum/Prod/Pow node remembers its
last enclosure together with the working precision it was computed at, so a
subtree shared by several trees (or evaluated again at the same precision) is
evaluated once.  The enclosure is a function of the node's structure and the
working precision only, so a remembered one is the very pair a fresh
evaluation returns.  A node holds one enclosure, not one per precision, and
the slot is not a dataclass field: equality, hashing and repr are structural.
"""

from __future__ import annotations

import enum
import math
from collections import OrderedDict
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from mpmath.libmp import (
    fone,
    from_int,
    from_rational,
    fzero,
    mpf_add,
    mpf_pi,
    mpf_pos,
    mpf_shift,
    mpi_add,
    mpi_div,
    mpi_log,
    mpi_mul,
    mpi_pow_int,
    round_ceiling,
    round_floor,
    round_nearest,
)

__all__ = [
    "Direction",
    "IndeterminateError",
    "BoundedReal",
    "ConstExpr",
    "Rat",
    "PiPow",
    "LogRat",
    "Sum",
    "Prod",
    "Pow",
    "rat",
    "log_rat",
    "pi_pow",
    "unit_ball_volume",
    "eval_const",
    "eval_interval",
    "fraction_to_decimal",
    "integer_digits",
    "DEFAULT_PRECISION",
    "MIN_PRECISION",
    "GUARD_BITS",
]

DEFAULT_PRECISION = 128
MIN_PRECISION = 53
# Interval work runs this many bits above the precision of the result.
GUARD_BITS = 16


class Direction(enum.Enum):
    UPPER = "upper"
    LOWER = "lower"
    NEAREST = "nearest"


# The libmp rounding mode that rounds toward each direction's side.
_ROUNDING = {
    Direction.UPPER: round_ceiling,
    Direction.LOWER: round_floor,
    Direction.NEAREST: round_nearest,
}


class DomainError(ValueError):
    """Raised for arguments outside an operation's domain (e.g. log of q <= 0)."""


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


def iv_from_int(n: int, wp: int):
    """Exact-enclosure interval (lo, hi) of an integer at working precision wp."""
    return from_int(n, wp, round_floor), from_int(n, wp, round_ceiling)


def iv_from_fraction(q: Fraction, wp: int):
    if q.denominator == 1:
        return iv_from_int(q.numerator, wp)
    return mpi_div(iv_from_int(q.numerator, wp), iv_from_int(q.denominator, wp), wp)


@dataclass(frozen=True)
class BoundedReal:
    """An exact dyadic rational of at most `precision` bits, plus the side of
    the exact quantity it brackets.

    direction UPPER: value >= exact; LOWER: value <= exact; NEAREST: no
    guaranteed side (display/estimate only, never used for certification).
    """

    value: Fraction
    direction: Direction
    precision: int = DEFAULT_PRECISION

    @staticmethod
    def from_interval(interval, direction: Direction, precision: int) -> "BoundedReal":
        """Round an interval's raw (lo, hi) endpoints directly: the same dyadic
        as rounding their exact Fraction values, without building them."""
        lo, hi = interval
        _require_finite(lo)
        _require_finite(hi)
        if direction is Direction.UPPER:
            raw = hi
        elif direction is Direction.LOWER:
            raw = lo
        else:
            # the exact midpoint: an unrounded sum, then a one-bit shift
            raw = mpf_shift(mpf_add(lo, hi), -1)
        v = _raw_to_fraction(mpf_pos(raw, precision, _ROUNDING[direction]))
        return BoundedReal(v, direction, precision)

    @staticmethod
    def from_fraction(q, direction: Direction = Direction.NEAREST,
                      precision: int = DEFAULT_PRECISION) -> "BoundedReal":
        q = Fraction(q)
        raw = from_rational(q.numerator, q.denominator, precision, _ROUNDING[direction])
        return BoundedReal(_raw_to_fraction(raw), direction, precision)

    def exact(self) -> Fraction:
        """The stored dyadic value, exactly."""
        return self.value

    def decimal(self, sig_digits: int = 40) -> str:
        return fraction_to_decimal(self.value, sig_digits, self.direction)


# ---------------------------------------------------------------------------
# Constant expressions
# ---------------------------------------------------------------------------


class ConstExpr:
    """Finite symbolic tree of sums, products and integer powers over
    rationals, pi^k and log(q)."""

    # (wp, (lo, hi)) of a Sum/Prod/Pow node's last evaluation, set by
    # `_eval_iv`; leaves keep none.
    _enclosure = None

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


# Enclosures of atoms (pi powers, logs) by (atom, precision), least recently
# used first.  Bounded, so that a long-running process that keeps meeting
# fresh log arguments does not grow without limit.  Kept hand-rolled rather
# than a functools.lru_cache: perfbench/run.py reads its size as
# len(_ATOM_CACHE).
_ATOM_CACHE_SIZE = 4096
_ATOM_CACHE: OrderedDict = OrderedDict()


def _pi(wp: int):
    return mpf_pi(wp, round_floor), mpf_pi(wp, round_ceiling)


def _eval_pi_pow(expr: PiPow, wp: int):
    return mpi_pow_int(_pi(wp), expr.k, wp)


def _eval_log_rat(expr: LogRat, wp: int):
    return mpi_log(iv_from_fraction(expr.q, wp), wp)


_ATOMS = {PiPow: _eval_pi_pow, LogRat: _eval_log_rat}


def _eval_atom(expr, precision: int, wp: int):
    # Each cache step is a single dict operation, so callers in several
    # threads at worst evaluate an atom twice.
    key = (expr, precision)
    cached = _ATOM_CACHE.pop(key, None)
    if cached is not None:
        _ATOM_CACHE[key] = cached  # now the most recently used
        return cached
    result = _ATOMS[type(expr)](expr, wp)
    _ATOM_CACHE[key] = result
    if len(_ATOM_CACHE) > _ATOM_CACHE_SIZE:
        _ATOM_CACHE.popitem(last=False)
    return result


def _eval_rat(expr: Rat, precision: int, wp: int):
    return iv_from_fraction(expr.q, wp)


# Every endpoint an evaluation returns has at most wp bits, so adding it to
# zero or multiplying it by one at wp bits is exact: sums and products start
# from their first term, and only an empty one needs its identity.

def _eval_sum(expr: Sum, precision: int, wp: int):
    result = None
    for t in expr.terms:
        value = _eval_iv(t, precision, wp)
        result = value if result is None else mpi_add(result, value, wp)
    return (fzero, fzero) if result is None else result


def _eval_prod(expr: Prod, precision: int, wp: int):
    result = None
    for f in expr.factors:
        value = _eval_iv(f, precision, wp)
        result = value if result is None else mpi_mul(result, value, wp)
    return (fone, fone) if result is None else result


def _eval_pow(expr: Pow, precision: int, wp: int):
    return mpi_pow_int(_eval_iv(expr.base, precision, wp), expr.k, wp)


_EVAL = {
    Rat: _eval_rat,
    PiPow: _eval_atom,
    LogRat: _eval_atom,
    Sum: _eval_sum,
    Prod: _eval_prod,
    Pow: _eval_pow,
}


_NODES = (Sum, Prod, Pow)


def _eval_iv(expr: ConstExpr, precision: int, wp: int):
    """Enclosure (lo, hi) of a ConstExpr, computed at working precision wp;
    atoms are cached by (atom, precision), and a node returns its remembered
    enclosure when it was computed at wp."""
    try:
        evaluate = _EVAL[type(expr)]
    except KeyError:
        raise TypeError(f"not a ConstExpr leaf or node: {expr!r}") from None
    if type(expr) not in _NODES:
        return evaluate(expr, precision, wp)
    slot = expr._enclosure
    if slot is not None and slot[0] == wp:
        return slot[1]
    result = evaluate(expr, precision, wp)
    # One attribute store of one tuple: a reader in another thread sees the
    # old slot or the new one, never a mix.
    object.__setattr__(expr, "_enclosure", (wp, result))
    return result


def _enclose(expr: ConstExpr, precision: int):
    if precision < MIN_PRECISION:
        raise DomainError(f"precision must be >= {MIN_PRECISION}, got {precision}")
    return _eval_iv(_coerce(expr), precision, precision + GUARD_BITS)


def eval_interval(expr: ConstExpr, precision: int = DEFAULT_PRECISION) -> tuple[Fraction, Fraction]:
    """Certified enclosure of a ConstExpr as exact dyadic fractions."""
    lo, hi = _enclose(expr, precision)
    return _raw_to_fraction(lo), _raw_to_fraction(hi)


def eval_const(expr: ConstExpr, direction: Direction = Direction.NEAREST,
               precision: int = DEFAULT_PRECISION) -> BoundedReal:
    """Evaluate a constant expression, rounded to the requested side.

    Increasing precision tightens the bracket monotonically.
    """
    return BoundedReal.from_interval(_enclose(expr, precision), direction, precision)


# ---------------------------------------------------------------------------
# Exact decimal rendering with directed last-digit rounding
# ---------------------------------------------------------------------------


def integer_digits(n: int) -> str:
    """The decimal digits of an int of any size.  str() refuses ints longer
    than sys.get_int_max_str_digits() (4 300 digits by default); the exact
    int-to-Decimal conversion has no such limit."""
    return str(Decimal(n))


def _decimal_digits(q: Fraction, sig_digits: int, rounding: str) -> tuple[int, int]:
    """(digits, exp10) with digits having sig_digits decimal digits, value ~ digits*10^exp10."""
    assert q > 0
    num, den = q.numerator, q.denominator

    def below(e: int) -> bool:  # q < 10^e, in integer arithmetic
        return num * 10 ** -e < den if e < 0 else num < den * 10 ** e

    # e = floor(log10(q)).  q lies in [2^(k-1), 2^(k+1)) for k the bit-length
    # difference, so the first estimate is within about one of it.
    e = (num.bit_length() - den.bit_length()) * 30103 // 100000
    while below(e):
        e -= 1
    while not below(e + 1):
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
    s = integer_digits(digits)
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
