"""Weil and modified h2 height expressions, and Neron-Tate canonical height
enclosures.

The canonical height is the duplication limit of x-coordinate Weil heights,
h-hat(P) = lim 4^-n h(x(2^n P)).  It is computed through the telescoping
identity h(x(2^(m+1)P)) = 4 h(x(2^m P)) + log M_m - log d_m, where M_m is the
normalized size of the duplication forms (certified interval arithmetic on the
projective pair, no large integers) and d_m is the exact integer cancellation,
recovered from residues modulo a power of the curve's gcd cap.  The tail after
n steps is bounded by delta/3 * 4^-n with delta a proven per-curve constant, so
the returned enclosure is certified to the requested tolerance.  The cap and
delta come from the Bezout identities of the duplication forms, which the
classical duplication identities give in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Sequence

from .elliptic import ECPoint, EllipticCurveQ, torsion_order
from .errors import DomainError, IndeterminateError
from .libmp import mpf_ge, mpf_shift, mpf_sign
from .libmp import mpi_abs, mpi_add, mpi_div, mpi_log, mpi_mul, mpi_sub
from .rounding import (
    ConstExpr,
    Direction,
    GUARD_BITS,
    LogRat,
    Prod,
    Rat,
    _raw_to_fraction,
    eval_const,
    iv_from_int,
    rat,
)

__all__ = [
    "ProjPointQ",
    "weil_height_expr",
    "modified_height_h2_expr",
    "canonical_height_enclosure",
]


@dataclass(frozen=True)
class ProjPointQ:
    """Projective point over Q, stored as a primitive integer tuple.

    Cleared form: integer coordinates, gcd 1, first nonzero coordinate > 0.
    """

    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", _clear_coords(self.coords))


def _clear_coords(raw: Sequence) -> tuple[int, ...]:
    fracs = [Fraction(c) for c in raw]
    if not fracs or all(c == 0 for c in fracs):
        raise DomainError("projective point needs a nonzero coordinate")
    scale = lcm(*(c.denominator for c in fracs))
    ints = [int(c * scale) for c in fracs]
    g = gcd(*ints)
    ints = [c // g for c in ints]
    lead = next(c for c in ints if c != 0)
    if lead < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def weil_height_expr(P: ProjPointQ) -> ConstExpr:
    """log of the max |coordinate| of the cleared integer vector.

    On coprime integers the finite places contribute nothing, so the single
    archimedean term is the whole height.
    """
    m = max(abs(c) for c in P.coords)
    return rat(0) if m == 1 else LogRat(Fraction(m))


def modified_height_h2_expr(P: ProjPointQ) -> ConstExpr:
    """Archimedean term is the euclidean norm: (1/2) log(sum of squares)."""
    s = sum(c * c for c in P.coords)
    return rat(0) if s == 1 else Prod((Rat(Fraction(1, 2)), LogRat(Fraction(s))))


# ---------------------------------------------------------------------------
# Canonical height
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _DoublingData:
    # F, G homogeneous quartics with integer coefficients, indexed by B-degree:
    # x(2P) = F(A,B)/G(A,B) for x(P) = A/B in lowest terms.
    f_coeffs: tuple[int, ...]
    g_coeffs: tuple[int, ...]
    gcd_cap: int          # gcd(F(A,B), G(A,B)) divides this for coprime (A,B)
    delta_log_arg: Fraction  # |h(x(2P)) - 4 h(x(P))| <= log(delta_log_arg)


# Bounded, so that a long-running process that keeps meeting fresh curves
# does not grow without limit.  EllipticCurveQ is frozen: it hashes and
# compares by (a, b).
@lru_cache(maxsize=64)
def _doubling_data(E: EllipticCurveQ) -> _DoublingData:
    a, b = E.a, E.b
    # Coefficients by B-degree of F = A^4 - 2a A^2 B^2 - 8b A B^3 + a^2 B^4
    # and G = 4 A^3 B + 4a A B^3 + 4b B^4, scaled to integers.
    fh = [Fraction(1), Fraction(0), -2 * a, -8 * b, a * a]
    gh = [Fraction(0), Fraction(4), Fraction(0), 4 * a, 4 * b]
    scale = lcm(*(c.denominator for c in fh + gh))
    fi = tuple(int(c * scale) for c in fh)
    gi = tuple(int(c * scale) for c in gh)

    # Bezout identities U*F + V*G = m1 * B^7 (from the x-chart) and
    # Utilde*F + Vtilde*G = m2 * A^7 (from the chart at infinity).  With
    # D = 4a^3 + 27b^2 != 0, the classical duplication identities (Silverman,
    # AEC ch. VIII) give them in closed form:
    #   (12x^2 + 16a) F(x,1) - (3x^3 - 5ax - 27b) G(x,1) = 4D * scale, and
    #   Ut(t) F(1,t) + Vt(t) G(1,t) = 4D * scale with the t-chart pair below.
    # In each pair U has lower degree than G and V than F, so these are the
    # unique pairs; m1, m2 are their common denominators over 4D * scale.
    a3, b2 = a * a * a, b * b
    four_d = 4 * (4 * a3 + 27 * b2)
    x_pair = (16 * a, 0, 12, 27 * b, 5 * a, 0, -3)
    t_pair = (four_d, -4 * a * a * b, 4 * a * (3 * a3 + 22 * b2), 12 * b * (a3 + 8 * b2),
              a * a * b, a * (5 * a3 + 32 * b2), 2 * b * (13 * a3 + 96 * b2),
              -3 * a * a * (a3 + 8 * b2))
    cap, norm = 1, Fraction(0)
    for pair in (x_pair, t_pair):
        coeffs = [Fraction(c) / (four_d * scale) for c in pair]
        cap = lcm(cap, *(c.denominator for c in coeffs))
        norm = max(norm, sum(abs(c) for c in coeffs))

    rho_up = Fraction(max(sum(abs(c) for c in fi), sum(abs(c) for c in gi)))
    rho_down = cap * norm
    delta_arg = max(rho_up, rho_down, Fraction(1))
    return _DoublingData(fi, gi, cap, delta_arg)


def canonical_height_enclosure(E: EllipticCurveQ, P: ECPoint, tol,
                               precision: int = 256) -> tuple[Fraction, Fraction]:
    """Certified enclosure [lo, hi] of h-hat(P) with hi - lo <= tol."""
    tol = Fraction(str(tol)) if isinstance(tol, float) else Fraction(tol)
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    E.require(P)
    if torsion_order(E, P) is not None:
        return Fraction(0), Fraction(0)

    dd = _doubling_data(E)
    delta_up = eval_const(LogRat(dd.delta_log_arg), Direction.UPPER, 64).exact()
    # Steps so the geometric tail delta/3*4^-n is at most tol/4; the other
    # tol/2 of the budget absorbs interval slack.
    n = 1
    while delta_up / (3 * Fraction(4) ** n) > tol / 4:
        n += 1
    tail = delta_up / (3 * Fraction(4) ** n)

    x = P.x
    A0, B0 = x.numerator, x.denominator
    fc, gc = dd.f_coeffs, dd.g_coeffs
    cap = dd.gcd_cap

    work = max(precision, 128)
    for _attempt in range(4):
        wp = work + GUARD_BITS
        n0 = max(abs(A0), B0)
        total = mpi_log(iv_from_int(n0, wp), wp)
        z = mpi_div(iv_from_int(A0, wp), iv_from_int(n0, wp), wp)
        w = mpi_div(iv_from_int(B0, wp), iv_from_int(n0, wp), wp)
        if cap > 1:
            modulus = cap ** (n + 2)
            alpha, beta = A0 % modulus, B0 % modulus
        # The coefficients depend only on the working precision.
        f0, _, f2, f3, f4 = [iv_from_int(c, wp) for c in fc]
        _, g1, _, g3, g4 = [iv_from_int(c, wp) for c in gc]
        ok = True
        for m in range(n):
            z2 = mpi_mul(z, z, wp)
            z3 = mpi_mul(z2, z, wp)
            z4 = mpi_mul(z3, z, wp)
            w2 = mpi_mul(w, w, wp)
            # F = f0 z^4 + f2 z^2 w^2 + f3 z w^3 + f4 w^4 and
            # G = g1 z^3 w + g3 z w^3 + g4 w^4 (F has no z^3 w term, G no z^4
            # and no z^2 w^2 term), summed left to right, each monomial
            # multiplied from its coefficient outwards.
            fz = mpi_add(mpi_add(mpi_add(
                mpi_mul(f0, z4, wp),
                mpi_mul(mpi_mul(f2, z2, wp), w2, wp), wp),
                mpi_mul(mpi_mul(mpi_mul(f3, z, wp), w2, wp), w, wp), wp),
                mpi_mul(mpi_mul(f4, w2, wp), w2, wp), wp)
            gz = mpi_add(mpi_add(
                mpi_mul(mpi_mul(g1, z3, wp), w, wp),
                mpi_mul(mpi_mul(mpi_mul(g3, z, wp), w2, wp), w, wp), wp),
                mpi_mul(mpi_mul(g4, w2, wp), w2, wp), wp)
            (fa, fb), (ga, gb) = mpi_abs(fz, wp), mpi_abs(gz, wp)
            big = (fa if mpf_ge(fa, ga) else ga, fb if mpf_ge(fb, gb) else gb)
            if mpf_sign(big[0]) <= 0:
                ok = False
                break
            d = 1
            if cap > 1:
                fr = _eval_form_mod(fc, alpha, beta, modulus)
                gr = _eval_form_mod(gc, alpha, beta, modulus)
                d = gcd(gcd(fr, gr), modulus)
                alpha = (fr // d) % (modulus // d)
                beta = (gr // d) % (modulus // d)
                modulus //= d
            step = mpi_log(big, wp)
            if d > 1:
                step = mpi_sub(step, mpi_log(iv_from_int(d, wp), wp), wp)
            # times 4^-(m+1): an exact shift of both endpoints
            shift = -2 * (m + 1)
            total = mpi_add(total, (mpf_shift(step[0], shift), mpf_shift(step[1], shift)), wp)
            z = mpi_div(fz, big, wp)
            w = mpi_div(gz, big, wp)
        if ok:
            lo, hi = _raw_to_fraction(total[0]), _raw_to_fraction(total[1])
            lo, hi = lo - tail, hi + tail
            if hi - lo <= tol:
                lo = max(lo, Fraction(0))  # canonical height is nonnegative
                if hi < lo:
                    hi = lo
                return lo, hi
        work *= 2
    raise IndeterminateError("canonical height did not certify at the requested "
                             "tolerance; raise precision")


def _eval_form_mod(coeffs: tuple[int, ...], a: int, b: int, modulus: int) -> int:
    deg = len(coeffs) - 1
    return sum(c * pow(a, deg - i, modulus) * pow(b, i, modulus)
               for i, c in enumerate(coeffs) if c) % modulus
