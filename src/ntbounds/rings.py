"""The three endomorphism rings of the census module: Z, Z[i], Z[omega].

Elements are pairs (a, b) meaning a + b*i (Gaussian), a + b*omega (Eisenstein,
omega a primitive cube root of unity), or plain a with b = 0 over Z.  All
three are Euclidean for the norm, with rounded division giving a remainder of
strictly smaller norm; that is what the Hermite normal form relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterable

from .errors import DomainError

__all__ = ["EndRing", "Element", "RING_Z", "RING_GAUSS", "RING_EISENSTEIN", "ring_by_name"]

Element = tuple[int, int]


@dataclass(frozen=True)
class EndRing:
    kind: str  # "z" | "zi" | "zw"

    # -- basic arithmetic ----------------------------------------------------

    @property
    def one(self) -> Element:
        return (1, 0)

    def is_zero(self, x: Element) -> bool:
        return x == (0, 0)

    def sub(self, x: Element, y: Element) -> Element:
        return (x[0] - y[0], x[1] - y[1])

    def mul(self, x: Element, y: Element) -> Element:
        a, b = x
        c, d = y
        if self.kind == "z":
            return (a * c, 0)
        if self.kind == "zi":
            return (a * c - b * d, a * d + b * c)
        # omega^2 = -1 - omega
        return (a * c - b * d, a * d + b * c - b * d)

    def conj(self, x: Element) -> Element:
        a, b = x
        if self.kind == "z":
            return x
        if self.kind == "zi":
            return (a, -b)
        return (a - b, -b)

    def norm(self, x: Element) -> int:
        a, b = x
        if self.kind == "z":
            return a * a
        if self.kind == "zi":
            return a * a + b * b
        return a * a - a * b + b * b

    def units(self) -> tuple[Element, ...]:
        if self.kind == "z":
            return ((1, 0), (-1, 0))
        if self.kind == "zi":
            return ((1, 0), (0, 1), (-1, 0), (0, -1))
        return ((1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1))

    # -- Euclidean structure ---------------------------------------------------

    def divmod_rounded(self, x: Element, y: Element) -> tuple[Element, Element]:
        """q, r with x = q*y + r and norm(r) < norm(y).

        q rounds each coordinate of x*conj(y)/norm(y) to the nearest integer,
        .5 upward: floor((2p + n) / 2n) for p/n, which needs no reduced form.
        """
        if self.is_zero(y):
            raise ZeroDivisionError("division by zero ring element")
        n = self.norm(y)
        re, im = self.mul(x, self.conj(y))
        q = ((2 * re + n) // (2 * n), (2 * im + n) // (2 * n))
        r = self.sub(x, self.mul(q, y))
        return q, r

    def exact_div(self, x: Element, d: Element) -> Element:
        q, r = self.divmod_rounded(x, d)
        if not self.is_zero(r):
            raise DomainError(f"{x} is not divisible by {d} in {self.kind}")
        return q

    # -- canonical associates ----------------------------------------------------

    def canon_assoc(self, x: Element) -> tuple[Element, Element]:
        """(canonical associate, unit u) with canonical = u * x.

        The canonical associate is the lexicographically largest unit multiple;
        over Z that is |x|, over the imaginary quadratic rings one fixed sector.
        """
        if self.is_zero(x):
            return x, self.one
        best, best_u = x, self.one
        for u in self.units():
            cand = self.mul(u, x)
            if cand > best:
                best, best_u = cand, u
        return best, best_u

    def canon_row(self, row: tuple[Element, ...]) -> tuple[Element, ...]:
        """Lexicographically largest unit multiple of a whole row.

        Units act freely on nonzero elements, so the first nonzero entry alone
        decides the maximum: scale the row by that entry's canonical unit.
        """
        for e in row:
            if not self.is_zero(e):
                _, u = self.canon_assoc(e)
                return row if u == self.one else tuple(self.mul(u, x) for x in row)
        return row

    # -- inner products and norms ------------------------------------------------

    def dot_conj(self, u: Iterable[Element], v: Iterable[Element]) -> Element:
        """sum u_k * conj(v_k); with u = v this is (norm, 0)."""
        # (a + b*i)(c - d*i) = (ac + bd) + (bc - ad)*i; conj(omega) = -1 - omega
        # moves -ad into the real part; over Z, b = d = 0
        ac_bd = bc = ad = 0
        for (a, b), (c, d) in zip(u, v):
            ac_bd += a * c + b * d
            bc += b * c
            ad += a * d
        if self.kind == "zw":
            return (ac_bd - ad, bc - ad)
        return (ac_bd, bc - ad)

    def row_norm(self, row: Iterable[Element]) -> int:
        return sum(self.norm(e) for e in row)

    def elements_of_norm_at_most(self, bound: int) -> list[Element]:
        """All ring elements of norm <= bound, deterministic order."""
        out = []
        if bound < 0:
            return out
        if self.kind == "z":
            s = isqrt(bound)
            return [(a, 0) for a in range(-s, s + 1)]
        # both quadratic rings: norm >= 3/4 max(|a|, |b|)^2, so 3 max^2 <= 4 bound
        s = isqrt(4 * bound // 3)
        for a in range(-s, s + 1):
            for b in range(-s, s + 1):
                if self.norm((a, b)) <= bound:
                    out.append((a, b))
        return out


RING_Z = EndRing("z")
RING_GAUSS = EndRing("zi")
RING_EISENSTEIN = EndRing("zw")

_BY_NAME = {
    "z": RING_Z,
    "zi": RING_GAUSS,
    "gaussian": RING_GAUSS,
    "zw": RING_EISENSTEIN,
    "eisenstein": RING_EISENSTEIN,
}


def ring_by_name(name: str) -> EndRing:
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise DomainError(f"unknown endomorphism ring {name!r}; use z, zi, or zw") from None
