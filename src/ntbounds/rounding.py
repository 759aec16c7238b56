"""Exact rational arithmetic and directed-rounding evaluation of constant expressions.

Every numeric quantity that is not an exact rational is carried either as a
symbolic :class:`ConstExpr` (products/sums over rationals, integer powers of pi,
logarithms of positive rationals) or as a :class:`BoundedReal`: libmp's exact
dyadic man·2^exp, with the side of the exact value it is guaranteed to lie on.
Certified comparisons are plain Fraction comparisons of its ``exact()``.  Text
comes from two exact ``decimal`` operations, each rounded once in a context of
this module's own (the thread's decimal context is never read or changed) and
laid out by one shared step: ``BoundedReal.decimal`` multiplies man by the
exact decimal 2^exp, and :func:`fraction_to_decimal` divides.

The interval substrate is mpmath's ``libmpi``: an interval is a raw pair
``(lo, hi)`` of libmp floats, and every operation takes its working precision
as an argument (``precision + GUARD_BITS``).  Precision is never process
state: only ``mpmath.libmp`` is loaded (see :mod:`ntbounds.libmp`), so
evaluation reads and changes no global ``mpmath`` context.  The libmpi
enclosures are certified; endpoints are extracted exactly.

Atoms are cached by (atom, precision).  Each Sum/Prod/Pow node remembers its
last enclosure together with the working precision it was computed at, so a
subtree shared by several trees (or evaluated again at the same precision) is
evaluated once.  The enclosure is a function of the node's structure and the
working precision only, so a remembered one is the very pair a fresh
evaluation returns.  A node holds one enclosure, not one per precision, and
the slot is not a dataclass field: equality, hashing and repr are structural.

Arguments outside a routine's domain raise :class:`ntbounds.errors.DomainError`.
"""

from __future__ import annotations

import enum
import math
from collections import OrderedDict
from dataclasses import dataclass
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR,
                     ROUND_HALF_UP, Context, Decimal, Inexact)
from fractions import Fraction

from .errors import DomainError
from .libmp import (
    fone,
    from_int,
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
    "BoundedReal",
    "ConstExpr",
    "Rat",
    "PiPow",
    "LogRat",
    "Sum",
    "Prod",
    "Pow",
    "rat",
    "pi_pow",
    "unit_ball_volume",
    "eval_const",
    "eval_interval",
    "fraction_to_decimal",
    "integer_digits",
    "rational_digits",
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
# The decimal rounding mode of each direction's last kept digit.
_DECIMAL_ROUNDING = {
    Direction.UPPER: ROUND_CEILING,
    Direction.LOWER: ROUND_FLOOR,
    Direction.NEAREST: ROUND_HALF_UP,
}


def _require_finite(t) -> None:
    """libmp keeps infinities and nan as a zero mantissa with a nonzero exponent."""
    if not t[1] and t[2]:
        raise DomainError("non-finite float endpoint")


def _dyadic_fraction(man: int, exp: int) -> Fraction:
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _raw_to_fraction(t) -> Fraction:
    """Exact value of a libmp raw mpf tuple."""
    _require_finite(t)
    sign, man, exp, _ = t
    return _dyadic_fraction(-man if sign else man, exp)


def iv_from_int(n: int, wp: int):
    """Exact-enclosure interval (lo, hi) of an integer at working precision wp."""
    return from_int(n, wp, round_floor), from_int(n, wp, round_ceiling)


def iv_from_fraction(q: Fraction, wp: int):
    if q.denominator == 1:
        return iv_from_int(q.numerator, wp)
    return mpi_div(iv_from_int(q.numerator, wp), iv_from_int(q.denominator, wp), wp)


@dataclass(frozen=True)
class BoundedReal:
    """The exact dyadic man·2^exp of at most `precision` bits, plus the side
    of the exact quantity it brackets.  libmp keeps man odd (0 for zero, with
    exp 0), so equal values have equal fields.

    direction UPPER: value >= exact; LOWER: value <= exact; NEAREST: no
    guaranteed side (display/estimate only, never used for certification).
    """

    man: int
    exp: int
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
        sign, man, exp, _ = mpf_pos(raw, precision, _ROUNDING[direction])
        return BoundedReal(-man if sign else man, exp, direction, precision)

    def exact(self) -> Fraction:
        """The stored dyadic value, exactly."""
        return _dyadic_fraction(self.man, self.exp)

    def decimal(self, sig_digits: int = 40) -> str:
        """Like fraction_to_decimal of exact(), from one rounded product."""
        return _rounded_text(Context.multiply, Decimal(self.man),
                             _EXACT.power(2, self.exp), sig_digits, self.direction)


# ---------------------------------------------------------------------------
# Constant expressions
# ---------------------------------------------------------------------------


class ConstExpr:
    """Finite symbolic tree of sums, products and integer powers over
    rationals, pi^k and log(q)."""

    # (wp, (lo, hi)) of a Sum/Prod/Pow node's last evaluation, set by
    # `_eval_iv`; leaves keep none.
    _enclosure = None


@dataclass(frozen=True)
class Rat(ConstExpr):
    q: Fraction


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
    terms: tuple  # of ConstExprs


@dataclass(frozen=True)
class Prod(ConstExpr):
    factors: tuple  # of ConstExprs


@dataclass(frozen=True)
class Pow(ConstExpr):
    base: ConstExpr
    k: int


def rat(x) -> Rat:
    return Rat(Fraction(x))


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
    return _eval_iv(expr, precision, precision + GUARD_BITS)


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


def rational_digits(q: Fraction) -> str:
    """str(q) for a Fraction of any size: 'p', or 'p/q' in lowest terms."""
    p = integer_digits(q.numerator)
    return p if q.denominator == 1 else f"{p}/{integer_digits(q.denominator)}"


# Decimal arithmetic that is exact or raises: 2^exp is 5^-exp·10^exp for
# exp < 0, so every power of two is an exact decimal.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])


def _rounded_text(operation, a: Decimal, b: Decimal, sig_digits: int,
                  direction: Direction) -> str:
    """operation(a, b), a Context method, correctly rounded to sig_digits
    toward direction's side and laid out: plain decimal for moderate
    magnitudes, else normalized scientific notation; trailing zeros after the
    point are dropped."""
    if sig_digits < 1:
        raise DomainError("need at least one significant digit")
    ctx = Context(prec=sig_digits, rounding=_DECIMAL_ROUNDING[direction],
                  Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[])
    d = operation(ctx, a, b).normalize(ctx)
    if -4 <= d.adjusted() <= 20:
        return format(d, "f")
    return format(d, "e").replace("e+", "e")


def fraction_to_decimal(q: Fraction, sig_digits: int, direction: Direction) -> str:
    """q as decimal text, rounded at the last kept digit: UPPER never
    understates, LOWER never overstates, NEAREST rounds ties away from zero."""
    return _rounded_text(Context.divide, Decimal(q.numerator), Decimal(q.denominator),
                         sig_digits, direction)
