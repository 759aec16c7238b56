"""Algebraic subgroups of E^N as matrices over End(E): Gram-determinant
degrees, Hermite normal forms, bounded-degree enumeration and counting, and
torsion counting.

A codimension-r subgroup corresponds to a rank-r matrix M in
Mat_{r x N}(End(E)); its degree is, up to dimension-only constants, the Gram
determinant det(M conj(M)^T) of the row module, which by Cauchy-Binet is the
sum of the norms of the r x r minors.  One routine computes it: a
fraction-free elimination of the Gram matrix that walks the r-subsets of a
list of rows depth first, so `degree_estimate` (one subset, the matrix's own
rows) and `enumerate_matrices` (the subsets of the candidate rows) share it.
The enumeration walks only the subsets that could be a Minkowski-reduced
basis (short rows, small mutual inner products), of which every row module
has at least one.
Identity of subgroups = equality of row modules, decided by the canonical
Hermite normal form under left GL_r action; column permutations move to a
different subgroup of E^N, so they are never applied.

The census needs only the number of modules of each degree, and counts them
without listing them where it can.  Every row module has exactly one reduced
Gram matrix f, the reduced member of its class, of determinant its degree;
the r-tuples of vectors with Gram matrix f number R_N(f), Siegel's
representation number of f by N copies of the norm form, and |Aut(f)| of
them are bases of each module with reduced form f.  So R_N(f) / |Aut(f)|
counts each module exactly once.  At r = 1, on every ring, f = (d) and
Aut(f) is the unit group; at r = 2 over Z, f runs over the Gauss-reduced
binary forms, whose automorphism groups have order 2, 4, 8 or 12 (Conway and
Sloane, SPLAG, ch. 15).  Over Z the count at rank r follows from the count at
rank N - r: a rank-r module has index k in its saturation, a primitive module
of degree D / k^2, and a primitive module of Z^N has the degree of its
orthogonal complement (W. M. Schmidt, Duke Math. J. 1968).  So the census
counts at rank s = min(r, N - r) whenever that is at most 2, carries the
count to rank r by one Dirichlet product with zeta(y - s) ... zeta(y - r + 1)
(L. Solomon, Adv. Math. 1977), and walks, through `enumerate_matrices`, only
at N >= 6 with 3 <= r <= N - 3.  Each method has its own resource guard: a
count's loop steps (`_counting_price`), a walk's row subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, isqrt, lcm

from .rings import Element, EndRing
from .errors import DomainError, ResourceGuardError

__all__ = [
    "SubgroupMatrix",
    "degree_estimate",
    "hermite_normal_form",
    "enumerate_matrices",
    "torsion_count",
    "CensusReport",
    "census",
    "row_bound_for_degree",
    "DEFAULT_CEILING",
]

# The default guard of `census` and `enumerate_matrices`: loop steps or row subsets.
DEFAULT_CEILING = 5_000_000


@dataclass(frozen=True)
class SubgroupMatrix:
    ring: EndRing
    entries: tuple[tuple[Element, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple((int(a), int(b)) for a, b in row) for row in self.entries)
        if not rows or not rows[0]:
            raise DomainError("matrix must be nonempty")
        n = len(rows[0])
        if any(len(row) != n for row in rows):
            raise DomainError("ragged matrix")
        if len(rows) > n:
            raise DomainError(f"need rows <= cols, got {len(rows)}x{n}")
        object.__setattr__(self, "entries", rows)

    @property
    def r(self) -> int:
        return len(self.entries)

    @property
    def n(self) -> int:
        return len(self.entries[0])


def _full_rank_subsets(ring: EndRing, rows, r: int, dmax: int | None = None,
                       box: int | None = None):
    """Yield (degree, subset) for the r-subsets of `rows` that have full rank
    and degree <= dmax (no bound when dmax is None).  Without a box every such
    subset is yielded, in the order of itertools.combinations; with one, only
    the subsets that pass the two Minkowski cuts below.

    The degree of a subset is the Gram determinant det(M conj(M)^T) of its
    rows.  The subsets are walked depth first, and each level appends one row
    to a fraction-free (Bareiss) elimination of its prefix's Gram matrix, so
    every extension of a prefix shares the prefix's work.  A Gram matrix is
    Hermitian positive semidefinite: its leading principal minors D_k are
    positive integers until a row depends on the rows before it, so no
    pivoting is needed, and D_k <= 0 prunes the prefix with all of its
    extensions.  The divisions by D_k are exact in Z, Z[i] and Z[omega].

    `box` (over Z only, with `rows` sorted by squared norm) is the bound of
    `row_bound_for_degree`: the walk then keeps only subsets that could be a
    Minkowski-reduced basis b_1, ..., b_r, sorted by norm.
      * Break: prod ||b_i||^2 <= box, and every row after row k is at least
        as long as it, so once the chosen norms times ||row_k||^(2(r - depth))
        exceed the box no later row can complete the subset.
      * Skip: b_j +- b_i (i < j) was a valid choice at step j of the
        reduction, so 2 |<b_i, b_j>| <= ||b_i||^2, the shorter of the two.
    Every lattice has a Minkowski-reduced basis, whose rows are candidate
    rows up to sign; so every row module of degree <= dmax keeps at least one
    of its bases, and deduplication by Hermite form loses no class.  At depth
    0 (so at r = 1) neither cut removes a candidate row.
    """
    mul, sub, conj, norm, dot_conj, exact_div = (
        ring.mul, ring.sub, ring.conj, ring.norm, ring.dot_conj, ring.exact_div)
    norms = [ring.row_norm(row) for row in rows]
    last = len(rows) - r
    chosen: list[tuple[Element, ...]] = []
    sizes: list[int] = []  # the squared norms of the chosen rows
    # cols[j][t] (t < j) is entry (j, t) of the prefix Gram matrix after t
    # Bareiss steps, and entry (t, j) is its conjugate; pivots[k] is D_k.
    cols: list[list[Element]] = []
    pivots = [1]

    def extend(start: int, prod: int):
        depth = len(chosen)
        for k in range(start, last + depth + 1):
            if box is not None and prod * norms[k] ** (r - depth) > box:
                break
            row = rows[k]
            a = [dot_conj(row, prev) for prev in chosen]
            # the skip reads <row, b_t> before the elimination overwrites it
            if box is not None and any(2 * abs(x) > n for (x, _), n in zip(a, sizes)):
                continue
            d = norms[k]  # the diagonal entry stays real: keep it an int
            for t in range(depth):
                c, p = a[t], pivots[t + 1]
                for j in range(t + 1, depth):
                    x = sub(mul((p, 0), a[j]), mul(c, conj(cols[j][t])))
                    a[j] = exact_div(x, (pivots[t], 0)) if t else x
                d = (p * d - norm(c)) // pivots[t]
            if d <= 0:
                continue
            if depth + 1 < r:
                chosen.append(row)
                sizes.append(norms[k])
                cols.append(a)
                pivots.append(d)
                yield from extend(k + 1, prod * norms[k])
                chosen.pop()
                sizes.pop()
                cols.pop()
                pivots.pop()
            elif dmax is None or d <= dmax:
                yield d, (*chosen, row)

    return extend(0, 1)


def degree_estimate(M: SubgroupMatrix) -> int:
    """Degree of the row module: det(M conj(M)^T), its Gram determinant;
    rejects rank-deficient input.

    By Cauchy-Binet this equals the sum of norm(minor) over all r x r minors,
    hence it is invariant under unimodular row operations and column
    permutations and multiplicative over unit row scalings.
    """
    for d, _ in _full_rank_subsets(M.ring, M.entries, M.r):
        return d
    raise DomainError("matrix is rank-deficient: its Gram determinant vanishes")


# ---------------------------------------------------------------------------
# Hermite normal form (canonical for row-module identity)
# ---------------------------------------------------------------------------


def hermite_normal_form(M: SubgroupMatrix) -> SubgroupMatrix:
    """The unique row-equivalent echelon matrix with canonical-associate pivots
    and centered residues above each pivot; rejects rank-deficient input."""
    ring = M.ring
    rows = [list(row) for row in M.entries]
    r, n = M.r, M.n
    pivot_cols: list[int] = []
    pivot_row = 0
    for col in range(n):
        # euclidean elimination below the current pivot row
        while True:
            live = [i for i in range(pivot_row, r) if not ring.is_zero(rows[i][col])]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: (ring.norm(rows[i][col]), i))
            base = live[0]
            for i in live[1:]:
                q, _ = ring.divmod_rounded(rows[i][col], rows[base][col])
                rows[i] = [ring.sub(x, ring.mul(q, y)) for x, y in zip(rows[i], rows[base])]
        live = [i for i in range(pivot_row, r) if not ring.is_zero(rows[i][col])]
        if not live:
            continue
        i = live[0]
        rows[pivot_row], rows[i] = rows[i], rows[pivot_row]
        _, unit = ring.canon_assoc(rows[pivot_row][col])
        if unit != ring.one:
            rows[pivot_row] = [ring.mul(unit, x) for x in rows[pivot_row]]
        pivot_cols.append(col)
        pivot_row += 1
        if pivot_row == r:
            break
    if pivot_row < r:
        raise DomainError("matrix is rank-deficient; no Hermite form of full row count")
    # center the entries above each pivot, left to right
    for k, col in enumerate(pivot_cols):
        p = rows[k][col]
        for i in range(k):
            q, _ = ring.divmod_rounded(rows[i][col], p)
            if not ring.is_zero(q):
                rows[i] = [ring.sub(x, ring.mul(q, y)) for x, y in zip(rows[i], rows[k])]
    return SubgroupMatrix(ring, tuple(tuple(row) for row in rows))


# ---------------------------------------------------------------------------
# Bounded-degree enumeration
# ---------------------------------------------------------------------------


def row_bound_for_degree(ring: EndRing, r: int, dmax: int) -> int:
    """Bound on prod ||b_i||^2 over a Minkowski-reduced basis b_1, ..., b_r
    of any row module of degree <= dmax; since each ||b_i||^2 >= 1, it also
    bounds every row of that basis.

    r = 1: the degree IS the squared row norm.  Over Z, Minkowski's second
    theorem gives prod ||b_i||^2 <= gamma_r^r det(Gram) for a reduced basis
    when r <= 4, with an extra factor prod_{i>4} (5/4)^(i-4) for r >= 5.  So
    r = 2 uses gamma_2^2 = 4/3, and r >= 3 the constant 2^(r(r-1)/2), which
    is at least (4/3)^(r(r-1)/2) (5/4)^((r-4)(r-3)/2) by Hermite's bound
    gamma_r^r <= (4/3)^(r(r-1)/2).  The CM rings are supported at r = 1 only
    (no proven box constant is available here).
    """
    if r == 1:
        return dmax
    if ring.kind != "z":
        raise DomainError(
            "enumeration over the CM rings is supported at r = 1 only; "
            "degree-versus-box constants for higher rank are not available")
    if r == 2:
        return (4 * dmax + 2) // 3  # ceil(4/3 * dmax)
    return 2 ** (r * (r - 1) // 2) * dmax


def _candidate_rows(ring: EndRing, n: int, bound: int) -> list[tuple[Element, ...]]:
    """All nonzero rows of squared norm <= bound, one per unit orbit, sorted
    by (squared norm, row)."""
    per_coord = sorted(((e, ring.norm(e)) for e in ring.elements_of_norm_at_most(bound)),
                       key=lambda pair: pair[1])
    out = []
    # depth first over the coordinates, with a stack of (prefix, budget left)
    # rather than one Python frame per coordinate
    stack: list[tuple[tuple[Element, ...], int]] = [((), bound)]
    while stack:
        prefix, budget = stack.pop()
        if len(prefix) == n:
            if budget < bound and ring.canon_row(prefix) == prefix:  # nonzero row
                out.append((bound - budget, prefix))
            continue
        for e, ne in per_coord:
            if ne > budget:
                break
            stack.append((prefix + (e,), budget - ne))
    out.sort()
    return [row for _, row in out]


def _norm_counts(ring: EndRing, n: int, bound: int) -> list[list[int]]:
    """counts[j][s] = #{v in ring^j : norm(v) = s} for j = 0..n and s <= bound.

    The vectors of each norm are counted coordinate by coordinate: the j-fold
    convolution of the one-coordinate norm counts, truncated at the bound.
    """
    per_coord: dict[int, int] = {}
    for e in ring.elements_of_norm_at_most(bound):
        ne = ring.norm(e)
        per_coord[ne] = per_coord.get(ne, 0) + 1
    steps = sorted(per_coord.items())
    counts = [[1] + [0] * bound]  # the empty prefix has norm 0
    for _ in range(n):
        longer = [0] * (bound + 1)
        for s, count in enumerate(counts[-1]):
            if count:
                for ne, k in steps:
                    if s + ne > bound:
                        break
                    longer[s + ne] += count * k
        counts.append(longer)
    return counts


def _row_count(ring: EndRing, by_norm: list[int]) -> int:
    """len(_candidate_rows(ring, n, bound)) without building a row, from
    by_norm = _norm_counts(ring, n, bound)[n].

    Units act freely on nonzero rows, so each unit orbit of nonzero rows of
    squared norm <= bound has |units| members, and the count is
    (#{v : norm(v) <= bound} - 1) / |units|.
    """
    return (sum(by_norm) - 1) // len(ring.units)


def _isqrt_sum(bound: int) -> int:
    """sum_{m <= bound} isqrt(m) = sum_{k <= q} (bound + 1 - k^2), q = isqrt(bound)."""
    q = isqrt(bound)
    return q * (bound + 1) - q * (q + 1) * (2 * q + 1) // 6


def _norm_count_steps(ring: EndRing, n: int, bound: int) -> int:
    """An upper bound on the loop steps of `_norm_counts(ring, n, bound)`:
    the box that holds the list `elements_of_norm_at_most` builds (on the CM
    rings |a|, |b| <= isqrt(4 bound / 3)), then per row its bound + 1
    entries and, per reached entry t of the row before, the one-coordinate
    norms <= bound - t and the one that stops the loop.  Over Z these are
    squares, isqrt(m) + 1 of them <= m, and rows 1 and 2 extend only 0 and
    the squares; on the CM rings at most m + 1 norms are <= m."""
    if ring.kind == "z":
        q = isqrt(bound)
        box = 2 * q + 1
        first, second = q + 2, (q + 1) * (q + 2)
        full = _isqrt_sum(bound) + 2 * (bound + 1)
    else:
        box = (2 * isqrt(4 * bound // 3) + 1) ** 2
        first = bound + 2
        second = full = (bound + 1) * (bound + 4) // 2
    inner = first + (second if n > 1 else 0) + max(n - 2, 0) * full
    return box + n * (bound + 1) + inner


def enumerate_matrices(ring: EndRing, n: int, r: int, dmax: int,
                       ceiling: int = DEFAULT_CEILING) -> list[SubgroupMatrix]:
    """All rank-r row modules of degree <= dmax, as canonical Hermite forms,
    sorted by (degree, entries).

    The candidate rows are those a Minkowski-reduced basis of such a module
    can have (see `row_bound_for_degree`), one per unit orbit; the r-subsets
    that could be such a basis, of full rank and degree <= dmax, come from the
    same Gram elimination as `degree_estimate` (see `_full_rank_subsets`), and
    are deduplicated by their Hermite forms, which every basis of a module
    shares (at r = 1 each candidate row is already its own Hermite form).

    Before any row is built, the walk is refused when its candidate rows,
    counted without building them (`_row_count`), have more than `ceiling`
    r-subsets, more than the walk visits.  When their norm table alone would
    take more than `ceiling` steps, the candidate rows k e_i (k <=
    isqrt(bound)) give the lower bound comb(n isqrt(bound), r), which may
    refuse without it."""
    if not 1 <= r <= n:
        raise DomainError(f"need 1 <= r <= N, got r={r}, N={n}")
    if dmax < 1:
        return []
    bound = row_bound_for_degree(ring, r, dmax)
    if _norm_count_steps(ring, n, bound) > ceiling:
        least = comb(n * isqrt(bound), r)
        if least > ceiling:
            raise ResourceGuardError(
                f"enumeration would scan at least {least} row combinations "
                f"(> ceiling {ceiling}); lower Dmax or raise the ceiling explicitly")
    work = comb(_row_count(ring, _norm_counts(ring, n, bound)[n]), r)
    if work > ceiling:
        raise ResourceGuardError(
            f"enumeration would scan {work} row combinations (> ceiling {ceiling}); "
            f"lower Dmax or raise the ceiling explicitly")
    found: dict[tuple, tuple[int, SubgroupMatrix]] = {}
    for d, subset in _full_rank_subsets(ring, _candidate_rows(ring, n, bound), r, dmax, bound):
        m = SubgroupMatrix(ring, subset)
        if r > 1:  # a candidate row is canonical: its own one-row Hermite form
            m = hermite_normal_form(m)
        found.setdefault(m.entries, (d, m))
    return [m for _, m in sorted(found.values(), key=lambda pair: (pair[0], pair[1].entries))]


# ---------------------------------------------------------------------------
# Counting classes by their reduced Gram forms
# ---------------------------------------------------------------------------


def _classes_of_form(reps: int, aut: int, form) -> int:
    """R(f) / |Aut(f)|, which must be exact: every module with reduced Gram
    form f has exactly |Aut(f)| bases whose Gram matrix is f."""
    classes, rest = divmod(reps, aut)
    if rest:
        raise RuntimeError(
            f"{reps} representations of the form {form} are not a multiple of "
            f"its {aut} automorphisms")
    return classes


def _binary_aut_order(a: int, b: int, c: int) -> int:
    """|Aut_GL2(Z)| of the reduced form [[a, b], [b, c]], 0 <= 2b <= a <= c
    (Conway and Sloane, SPLAG, ch. 15): {+-1} in general, doubled by each one
    of b = 0 (sign changes), 2b = a (b_2 -> b_1 - b_2) and a = c (swap); the
    square form (a, 0, a) has the 8 symmetries of the square, the hexagonal
    form (a, a/2, a) the 12 of the hexagon."""
    if a == c:
        return 8 if b == 0 else 12 if 2 * b == a else 4
    return 4 if b == 0 or 2 * b == a else 2


def _square_parts(total: int, largest: int, slots: int):
    """Nonincreasing tuples of positive ints x_1 <= largest with sum x_i^2 =
    total and at most `slots` parts."""
    if total == 0:
        yield ()
        return
    if slots == 0:
        return
    for x in range(min(largest, isqrt(total)), 0, -1):
        for rest in _square_parts(total - x * x, x, slots - 1):
            yield (x, *rest)


def _orbit_size(n: int, parts: tuple[int, ...]) -> int:
    """Vectors of Z^n that a signed coordinate permutation takes to the
    vector (parts, 0, ..., 0)."""
    size = 2 ** len(parts) * factorial(n) // factorial(n - len(parts))
    for x in set(parts):
        size //= factorial(parts.count(x))
    return size


def _rank_two_forms(counts: list[list[int]], n: int, dmax: int) -> dict[tuple, int]:
    """R_n(f) for every Gauss-reduced form f = (a, b, c), 0 <= 2b <= a <= c,
    with 0 < ac - b^2 <= dmax and R_n(f) > 0: the number of pairs (v, w) in
    Z^n with |v|^2 = a, <v, w> = b and |w|^2 = c.  `counts` are the norm
    counts of `_norm_counts` over Z, with bound >= dmax.

    Such a form has 3a^2/4 <= ac - b^2 <= dmax, so a <= sqrt(4 dmax / 3),
    and c <= (dmax + b^2) / a.  The number of w for a given v is invariant
    under the signed coordinate permutations, which keep inner products, so
    v runs over one vector (parts, 0, ..., 0) per orbit, weighted by the
    orbit's size.  On the support of v, w is enumerated (its last entry
    solved from 0 <= 2b <= a); off it, only the norm of w matters, and the
    vectors of each norm on the n - k other coordinates are counts[n - k].
    """
    reps: dict[tuple, int] = {}
    for a in range(1, isqrt(4 * dmax // 3) + 1):
        c_top = (dmax + (a // 2) ** 2) // a
        for parts in _square_parts(a, a, n):
            k = len(parts)
            # (b, |w|^2 on the support) -> number of such w
            heads: dict[tuple[int, int], int] = {}
            stack = [(0, 0, 0)]  # (next coordinate, b so far, norm so far)
            while stack:
                i, b, s = stack.pop()
                x = parts[i]
                if i < k - 1:
                    y = isqrt(c_top - s)
                    stack.extend((i + 1, b + x * z, s + z * z) for z in range(-y, y + 1))
                    continue
                # the last entry z: 0 <= b + x z <= a // 2
                for z in range(-(b // x), (a // 2 - b) // x + 1):
                    if s + z * z <= c_top:
                        key = (b + x * z, s + z * z)
                        heads[key] = heads.get(key, 0) + 1
            weight = _orbit_size(n, parts)
            tails = counts[n - k]
            for (b, s), ways in heads.items():
                for c in range(max(a, s), (dmax + b * b) // a + 1):
                    if tails[c - s]:
                        key = (a, b, c)
                        reps[key] = reps.get(key, 0) + weight * ways * tails[c - s]
    return reps


def _counted_buckets(ring: EndRing, counts: list[list[int]], n: int, s: int,
                     dmax: int) -> dict[int, int]:
    """degree -> number of rank-s row modules of ring^n of degree <= dmax,
    for s <= 2 (s = 2 over Z only), one R_N(f) / |Aut(f)| per reduced Gram
    form f (see `census`); `counts` are `_norm_counts` with bound >= dmax.
    The zero module (s = 0) has the empty Gram matrix, of determinant 1."""
    if s == 0:
        return {1: 1}
    if s == 1:
        units = len(ring.units)
        return {d: _classes_of_form(counts[n][d], units, (d,))
                for d in range(1, dmax + 1) if counts[n][d]}
    buckets: dict[int, int] = {}
    for (a, b, c), reps in _rank_two_forms(counts, n, dmax).items():
        d = a * c - b * b
        buckets[d] = buckets.get(d, 0) + _classes_of_form(
            reps, _binary_aut_order(a, b, c), (a, b, c))
    return buckets


def _index_series(s: int, r: int, top: int) -> list[int]:
    """[c(0), ..., c(top)] (c(0) = 0), the coefficients of the Dirichlet
    series zeta(y - s) zeta(y - s - 1) ... zeta(y - r + 1): the convolution
    of k -> k^j over j = s..r - 1, from c = [k = 1].  At s = 0 it is a_r,
    a_r(k) the number of sublattices of index k in Z^r, whose Dirichlet
    series is zeta(y) ... zeta(y - r + 1) (L. Solomon, Adv. Math. 1977)."""
    a = [int(k == 1) for k in range(top + 1)]
    for j in range(s, r):
        b = [0] * (top + 1)
        for d in range(1, top + 1):
            w = d ** j
            for m in range(1, top // d + 1):
                b[d * m] += w * a[m]
        a = b
    return a


def _complement_buckets(counted: dict[int, int], s: int, r: int,
                        dmax: int) -> dict[int, int]:
    """degree -> number of rank-r row modules of Z^N, from `counted`, the
    same for rank s = N - r.

    A rank-r module L of degree D has index k in its saturation (L tensor Q)
    cap Z^N, which is primitive of degree D / k^2, and each primitive module
    has a_r(k) submodules of index k.  So, as Dirichlet series in D, census_r
    = A_r(2x) P(x), with P the series of the primitive modules and A_r that
    of a_r, and census_s = A_s(2x) P(x).  A primitive module and its
    orthogonal complement in the unimodular Z^N have the same degree, so P is
    the same at both ranks, and census_r = (A_r / A_s)(2x) census_s, where
    A_r / A_s = zeta(y - s) ... zeta(y - r + 1) (`_index_series`)."""
    c = _index_series(s, r, isqrt(dmax))
    buckets: dict[int, int] = {}
    for d, count in counted.items():
        for k in range(1, isqrt(dmax // d) + 1):
            buckets[d * k * k] = buckets.get(d * k * k, 0) + c[k] * count
    return buckets


def _counting_price(ring: EndRing, n: int, r: int, s: int, dmax: int,
                    ceiling: int) -> int:
    """An upper bound on the loop steps of counting the rank-r modules of
    ring^n of degree <= dmax at rank s (see `census`), from closed forms,
    before any table is built: the norm counts up to dmax, if s > 0; the
    complement, if s < r; the rank-two forms, if s = 2 and the rest is
    within `ceiling` (so its loop over a runs O(ceiling^(1/3)) times).

    `_complement_buckets`: each of the r - s convolutions of `_index_series`
    takes sum_{d <= top} top // d < top (bit_length(top) + 1) steps, top =
    isqrt(dmax); the product sum_{d <= dmax} isqrt(dmax / d) < 2 dmax, and
    top at s = 0, where the one degree is 1.
    `_rank_two_forms`, per a: a v with |v|^2 = a has k <= min(a, n) parts in
    1..isqrt(a), the last fixed by the others, so at most
    C(isqrt(a) + k - 1, k - 1) such v.  Each pops fewer than k side^(k - 1)
    stack entries, side = 2 isqrt(c_top) + 1, and tries at most
    half = a // 2 + 1 last entries after each of the side^(k - 1) deepest;
    its at most half (c_top + 1) heads take one step each and at most
    c_top - a + 1 more in the c-loop."""
    steps = _norm_count_steps(ring, n, dmax) if s else 0
    if s < r:
        top = isqrt(dmax)
        steps += (r - s) * top * (top.bit_length() + 1) + (2 * dmax if s else top)
    if s == 2 and steps <= ceiling:
        for a in range(1, isqrt(4 * dmax // 3) + 1):
            c_top = (dmax + (a // 2) ** 2) // a
            k, side, half = min(a, n), 2 * isqrt(c_top) + 1, a // 2 + 1
            leaves = side ** (k - 1) * half
            heads = min(leaves, half * (c_top + 1))
            steps += comb(isqrt(a) + k - 1, k - 1) * (
                k * side ** (k - 1) + leaves + heads * max(1, c_top - a + 2))
    return steps


# ---------------------------------------------------------------------------
# Torsion counting and the census
# ---------------------------------------------------------------------------


def _even_bernoulli(n: int) -> list[Fraction]:
    """[B_0, B_2, ..., B_2n] exactly, from the tangent numbers T_1..T_n:
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) (Brent and Harvey, "Fast
    computation of Bernoulli, tangent and secant numbers", 2011)."""
    tangent = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        tangent[k] = (k - 1) * tangent[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    return [Fraction(1)] + [
        Fraction((-1) ** (k - 1) * 2 * k * tangent[k], 4 ** k * (4 ** k - 1))
        for k in range(1, n + 1)]


@lru_cache(maxsize=16)
def _faulhaber(n_power: int) -> tuple[tuple[int, ...], int]:
    """Faulhaber's coefficients for sum_{i<=T} i^(2N) as ints c_0..c_N over
    one denominator L: the sum is (L/2 T^(2N) + T sum_k c_k T^(2(N-k))) / L,
    with c_k / L = C(2N+1, 2k) B_2k / (2N+1).  Only the small denominators of
    the B_2k meet an lcm, and one gcd then makes L least (and even)."""
    p = 2 * n_power
    bernoulli = _even_bernoulli(n_power)
    scale = lcm(*(b.denominator for b in bernoulli))
    coeffs = [comb(p + 1, 2 * k) * b.numerator * (scale // b.denominator)
              for k, b in enumerate(bernoulli)]
    den = (p + 1) * scale
    g = gcd(den // 2, *coeffs)
    return tuple(c // g for c in coeffs), den // g


def torsion_count(n_power: int, t: int) -> int:
    """Exact sum_{i=1}^{T} i^(2N): points of order dividing i number i^(2N).

    Faulhaber's formula with p = 2N,
    sum_{i<=T} i^p = (1/(p+1)) sum_{j=0}^{p} C(p+1, j) B+_j T^(p+1-j),
    where B+_1 = +1/2 and the other odd B_j vanish.  The coefficients are
    ints over one common denominator, built once per N (`_faulhaber`, an LRU
    of 16 powers; the Bernoulli numbers take O(N^2) integer steps), and the
    sum is evaluated by Horner's rule in T^2: N + 1 steps, whatever T.
    """
    if n_power < 1 or t < 1:
        raise DomainError("need N >= 1 and T >= 1")
    coeffs, den = _faulhaber(n_power)
    u, acc = t * t, 0
    for c in coeffs:
        acc = acc * u + c
    count, rest = divmod(den // 2 * t ** (2 * n_power) + t * acc, den)
    if rest:
        raise RuntimeError(f"Faulhaber's formula gave a non-integer count for "
                           f"N = {n_power}, T = {t}")
    return count


@dataclass(frozen=True)
class CensusReport:
    ring: str
    n: int
    r: int
    dmax: int
    torsion_order_bound: int
    total_matrices: int
    degree_buckets: tuple[tuple[int, int], ...]  # (degree, count)
    torsion_total: int
    product_bound: int  # total_matrices * T^(2N+1)

    def cumulative(self) -> tuple[tuple[int, int], ...]:
        acc, out = 0, []
        for d, c in self.degree_buckets:
            acc += c
            out.append((d, acc))
        return tuple(out)


def census(ring: EndRing, n: int, r: int, dmax: int, t: int,
           ceiling: int = DEFAULT_CEILING) -> CensusReport:
    """Bounded-degree census: row-module counts per degree bucket, torsion
    counts, and the product-form bound (module count) * T^(2N+1).

    The modules are counted, not listed, wherever their reduced Gram forms
    are known (`_counted_buckets`).  Each rank-r row module L has exactly one
    reduced Gram matrix f, and its degree is det f.  The r-tuples of vectors
    whose Gram matrix is f number R_N(f) (Siegel's representation number of f
    by N copies of the norm form), and each module with reduced form f has
    exactly |Aut(f)| of them among its bases, so it is counted exactly once
    by R_N(f) / |Aut(f)|.
      * r = 1, every ring: f = (d), Aut(f) is the unit group, and R_N(d) is
        the number of vectors of norm d (`_norm_counts`).
      * r = 2, over Z: f runs over the Gauss-reduced forms (a, b, c),
        0 <= 2b <= a <= c, of degree ac - b^2 <= dmax (`_rank_two_forms`),
        with |Aut(f)| from `_binary_aut_order`: 2, or 4 when exactly one of
        b = 0, 2b = a, a = c holds, 8 for (a, 0, a), 12 for (a, a/2, a).
      * N - r < r, over Z: the count at rank s = N - r times the Dirichlet
        series zeta(y - s) ... zeta(y - r + 1), at y = 2x, is the count at
        rank r (`_complement_buckets`); r = N is s = 0.
    So the method follows from (ring, N, r) alone: over Z every shape with
    min(r, N - r) <= 2 is counted, on the CM rings r = 1.  Every other shape
    walks the candidate bases with `enumerate_matrices`, and buckets each
    class by `degree_estimate`: over Z N >= 6 with 3 <= r <= N - 3, which the
    default ceiling refuses, and on the CM rings r >= 2, which
    `row_bound_for_degree` refuses.  A count is refused when its price
    (`_counting_price`) passes the ceiling, a walk as `enumerate_matrices`
    refuses it.  The torsion count comes first, so that N < 1 or T < 1 is
    refused before any other work."""
    torsion_total = torsion_count(n, t)
    if not 1 <= r <= n:
        raise DomainError(f"need 1 <= r <= N, got r={r}, N={n}")
    s = min(r, n - r) if ring.kind == "z" else r
    buckets: dict[int, int] = {}
    if dmax < 1:  # no module has so small a degree
        pass
    elif s > (2 if ring.kind == "z" else 1):
        for m in enumerate_matrices(ring, n, r, dmax, ceiling):
            d = degree_estimate(m)
            buckets[d] = buckets.get(d, 0) + 1
    else:
        price = _counting_price(ring, n, r, s, dmax, ceiling)
        if price > ceiling:
            raise ResourceGuardError(
                f"census counting would take {price} steps (> ceiling {ceiling}); "
                f"lower Dmax or raise the ceiling explicitly")
        counts = _norm_counts(ring, n, dmax) if s else []
        buckets = _counted_buckets(ring, counts, n, s, dmax)
        if s < r:
            buckets = _complement_buckets(buckets, s, r, dmax)
    total = sum(buckets.values())
    return CensusReport(
        ring=ring.kind,
        n=n,
        r=r,
        dmax=dmax,
        torsion_order_bound=t,
        total_matrices=total,
        degree_buckets=tuple(sorted(buckets.items())),
        torsion_total=torsion_total,
        product_bound=total * t ** (2 * n + 1),
    )
