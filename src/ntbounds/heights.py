"""Weil and modified h2 height expressions, and Neron-Tate canonical height
enclosures.

The canonical height is the duplication limit of x-coordinate Weil heights,
h-hat(P) = lim 4^-n h(x(2^n P)).  It is computed through the telescoping
identity h(x(2^(m+1)P)) = 4 h(x(2^m P)) + log M_m - log d_m, where M_m is the
normalized size of the duplication forms (certified interval arithmetic on the
projective pair, no large integers) and d_m is the exact integer cancellation,
recovered from residues modulo a power of the curve's gcd cap.  The tail after
n steps is bounded by delta/3 * 4^-n with delta a proven per-curve constant, so
the returned enclosure is certified to the requested tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Sequence

from .elliptic import ECPoint, EllipticCurveQ, torsion_order
from .libmp import mpf_ge, mpf_shift, mpf_sign
from .libmp import mpi_abs, mpi_add, mpi_div, mpi_log, mpi_mul, mpi_sub
from .rounding import (
    ConstExpr,
    Direction,
    DomainError,
    GUARD_BITS,
    IndeterminateError,
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


def _poly_trim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(f: list[Fraction], g: list[Fraction]):
    f = list(f)
    q = [Fraction(0)] * max(0, len(f) - len(g) + 1)
    inv_lead = 1 / g[-1]
    for k in range(len(f) - len(g), -1, -1):
        coef = f[k + len(g) - 1] * inv_lead
        q[k] = coef
        if coef:
            for j, gj in enumerate(g):
                f[k + j] -= coef * gj
    return q, _poly_trim(f)


def _poly_ext_gcd_one(f: list[Fraction], g: list[Fraction]):
    """(u, v) with u*f + v*g = 1 for coprime f, g over Q; ascending coefficients."""
    r0, r1 = _poly_trim(list(f)), _poly_trim(list(g))
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]

    def sub_scaled(a, q, b):
        # a - q*b
        out = list(a) + [Fraction(0)] * max(0, len(q) + len(b) - 1 - len(a))
        for i, qi in enumerate(q):
            if qi:
                for j, bj in enumerate(b):
                    out[i + j] -= qi * bj
        return _poly_trim(out)

    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub_scaled(s0, q, s1)
        t0, t1 = t1, sub_scaled(t0, q, t1)
    if len(r0) != 1:
        # EllipticCurveQ rejects singular curves, whose forms share a factor
        raise RuntimeError("duplication forms of a nonsingular curve are not coprime")
    c = r0[0]
    return [x / c for x in s0], [x / c for x in t0]


def _lcm_denoms(polys: Sequence[Sequence[Fraction]]) -> int:
    return lcm(*(c.denominator for poly in polys for c in poly))


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
    scale = _lcm_denoms([fh, gh])
    fi = tuple(int(c * scale) for c in fh)
    gi = tuple(int(c * scale) for c in gh)

    # Bezout identities: U*F + V*G = m1 * B^7 (from the x-chart) and
    # Utilde*F + Vtilde*G = m2 * A^7 (from the chart at infinity).
    f_x = [Fraction(c) for c in reversed(fi)]
    g_x = [Fraction(c) for c in reversed(gi)]
    u, v = _poly_ext_gcd_one(f_x, g_x)
    m1 = _lcm_denoms([u, v])
    k1 = sum(abs(c * m1) for c in u) + sum(abs(c * m1) for c in v)

    f_t = [Fraction(c) for c in fi]
    g_t = [Fraction(c) for c in gi]
    ut, vt = _poly_ext_gcd_one(f_t, g_t)
    m2 = _lcm_denoms([ut, vt])
    k2 = sum(abs(c * m2) for c in ut) + sum(abs(c * m2) for c in vt)

    cap = lcm(m1, m2)

    rho_up = Fraction(max(sum(abs(c) for c in fi), sum(abs(c) for c in gi)))
    rho_down = Fraction(cap) * max(Fraction(int(k1), m1), Fraction(int(k2), m2))
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
    acc = 0
    pa = [1, a % modulus]
    pb = [1, b % modulus]
    for _ in range(3):
        pa.append(pa[-1] * pa[1] % modulus)
        pb.append(pb[-1] * pb[1] % modulus)
    deg = len(coeffs) - 1
    for i, c in enumerate(coeffs):
        if c:
            acc = (acc + c * pa[deg - i] * pb[i]) % modulus
    return acc % modulus

