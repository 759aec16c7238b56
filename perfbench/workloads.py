"""Seeded request generators for the benchmark workloads.

Every workload is a sequence of decks.  A deck is a list of requests (the argv
given to ``ntbounds.cli.main`` plus what the output check needs) with a fixed
composition: the seed and the deck index choose the free parameters and the
order, never the mix (only the query-mix `exponents` request cycles through
the theorem forms with the deck index).  A run measures whole decks, so two
runs with different seeds see the same mix of request shapes and their medians
are comparable.  The same (seed, deck index) always gives the same deck.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

WORKLOADS = ("query-mix", "search", "census")


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    kind: str
    info: dict = field(compare=False)  # what the output check needs to know


def _rng(workload: str, seed: int, deck: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{deck}")


# ---------------------------------------------------------------------------
# Fixed requests: warm-up and the golden commands
# ---------------------------------------------------------------------------

# One small request per subcommand: the imports and lazy state every workload
# needs (mpmath constants, the doubling data of a curve) are in place before
# timing starts, so set-up is the same for every workload.
WARMUP = (
    Request(("constants", "--d", "--hw", "1/3log2"), "constants",
            {"set": "d", "hw": ("--hw", "1/3log2"), "precision": 256}),
    Request(("constants", "--cn", "3", "--curve", "f2"), "constants",
            {"set": "cn", "N": 3, "hw": ("--curve", "f2"), "precision": 256}),
    Request(("bound", "--branch", "power", "--N", "3", "--deg-c", "2", "--h-c", "1/2",
             "--hw", "0"), "bound",
            {"branch": "power", "N": 3, "deg_c": 2, "h_c": "1/2", "hw": ("--hw", "0"),
             "precision": 256}),
    Request(("family-audit", "--family", "f2", "--n", "2"), "family-audit",
            {"family": "f2", "n": 2, "precision": 256}),
    Request(("exponents", "--theorem", "point-count", "--case", "weak-transverse-rank1",
             "--N", "3"), "exponents",
            {"theorem": "point-count", "case": "weak-transverse-rank1"}),
    Request(("search", "--family", "f2", "--n", "1", "--curve", "f2", "--height-bound", "4",
             "--tol", "1e-10"), "search",
            {"family": "f2", "n": 1, "B": "4", "shards": 1}),
    Request(("census", "--ring", "z", "--N", "2", "--r", "2", "--max-degree", "10",
             "--torsion", "3"), "census",
            {"ring": "z", "N": 2, "r": 2, "dmax": 10, "T": 3}),
)

# The seven commands whose reports are pinned byte for byte under tests/golden.
GOLDEN = {
    "constants_d.json": ("constants", "--d", "--hw", "1/3log2"),
    "family_audit_f2.json": ("family-audit", "--family", "f2", "--n-range", "1:3",
                             "--digits", "30"),
    "search_f1_n1.json": ("search", "--family", "f1", "--n", "1", "--curve", "f1",
                          "--height-bound", "25", "--tol", "1e-10"),
    "census_z_2_1.json": ("census", "--ring", "z", "--N", "2", "--r", "1",
                          "--max-degree", "40", "--torsion", "10"),
    "exponents_point_count.json": ("exponents", "--theorem", "point-count",
                                   "--case", "weak-transverse-rank1", "--N", "3"),
    "bound_square.json": ("bound", "--branch", "square", "--deg-c", "18",
                          "--h-c", "log(18)", "--hw", "1/3log2"),
    "bound_power.json": ("bound", "--branch", "power", "--N", "3", "--deg-c", "2",
                         "--h-c", "1/2", "--hw", "0"),
}


# ---------------------------------------------------------------------------
# query-mix: small requests, per-request overhead dominates
# ---------------------------------------------------------------------------

PRECISIONS = (128, 256, 512)
POPULAR_LOG_ARGS = (2, 3, 5, 6, 7, 18, 24)
ZIPF_N_MAX = 1000
ZIPF_S = 1.1
_ZIPF_CUM = list(itertools.accumulate(1.0 / k ** ZIPF_S for k in range(1, ZIPF_N_MAX + 1)))

# (theorem, case, parameter maker) for every theorem id and case.
EXPONENT_FORMS = (
    ("rc1-anomalous", "nontranslate", "N_dimv"),
    ("rc1-anomalous", "translate", "N_dimv"),
    ("rc1-anomalous", "point", "N_dimv"),
    ("rank1-height", "weak-transverse-power", "N3"),
    ("rank1-height", "transverse-square", "none"),
    ("low-rank-height", "", "N_t_half"),
    ("transverse-rank-height", "", "N_t_any"),
    ("census-structure", "", "N_r"),
    ("point-count", "weak-transverse-rank1", "N3"),
    ("point-count", "transverse-square-rank1", "none"),
    ("point-count", "weak-transverse-low-rank", "N_t_half"),
    ("point-count", "transverse-any-rank", "N_t_any"),
)

# One request of each kind per query-mix deck: a uniform mix, because no
# record of real traffic says which kind is more common.
QUERY_KINDS = ("constants-d", "constants-cn", "bound-square", "bound-power",
               "family-audit-f2", "family-audit-f1", "exponents")


def zipf_n(rng: random.Random) -> int:
    """n in 1..ZIPF_N_MAX with P(n) proportional to n^-ZIPF_S: popular n repeat."""
    return rng.choices(range(1, ZIPF_N_MAX + 1), cum_weights=_ZIPF_CUM)[0]


def _fresh_ratio(rng: random.Random) -> str:
    """A log argument p/q > 1 that no earlier request is likely to have used."""
    q = rng.randrange(2, 1000)
    p = rng.randrange(q * 1000, q * 10 ** 9)
    return f"{p}/{q}"


def _coeff(rng: random.Random) -> str:
    return f"{rng.randrange(1, 10)}/{rng.randrange(1, 10)}"


def height_expr(rng: random.Random) -> str:
    """A popular log atom (repeats across requests) plus a fresh one (never repeats)."""
    popular = rng.choice(POPULAR_LOG_ARGS)
    return f"{_coeff(rng)}log({popular}) + {_coeff(rng)}log({_fresh_ratio(rng)})"


def _hw_args(rng: random.Random) -> tuple[str, str]:
    if rng.random() < 0.5:
        return ("--curve", rng.choice(("f1", "f2")))
    return ("--hw", height_expr(rng))


def _exponent_params(rng: random.Random, form: str) -> dict:
    if form == "none":
        return {}
    if form == "N3":
        return {"N": rng.randint(3, 8)}
    if form == "N_dimv":
        N = rng.randint(3, 8)
        return {"N": N, "dim-v": rng.randint(1, N - 2)}
    if form == "N_t_half":
        N = rng.randint(3, 9)
        return {"N": N, "t": rng.randint(1, (N - 1) // 2)}
    if form == "N_t_any":
        N = rng.randint(2, 8)
        return {"N": N, "t": rng.randint(1, N - 1)}
    if form == "N_r":
        N = rng.randint(3, 8)
        return {"N": N, "r": rng.randint(N // 2 + 1, N - 1)}
    raise ValueError(form)


def _query_request(rng: random.Random, kind: str, deck: int) -> Request:
    precision = rng.choice(PRECISIONS)
    prec = ("--precision", str(precision))
    if kind == "constants-d":
        hw = _hw_args(rng)
        return Request(("constants", "--d", *hw, *prec), "constants",
                       {"set": "d", "hw": hw, "precision": precision})
    if kind == "constants-cn":
        hw = _hw_args(rng)
        N = rng.randint(2, 8)
        return Request(("constants", "--cn", str(N), *hw, *prec), "constants",
                       {"set": "cn", "N": N, "hw": hw, "precision": precision})
    if kind in ("bound-square", "bound-power"):
        hw = _hw_args(rng)
        h_c = height_expr(rng)
        if kind == "bound-square":
            deg = rng.randint(1, 60)
            return Request(("bound", "--branch", "square", "--deg-c", str(deg), "--h-c", h_c,
                            *hw, *prec), "bound",
                           {"branch": "square", "deg_c": deg, "h_c": h_c, "hw": hw,
                            "precision": precision})
        N = rng.randint(3, 6)
        deg = rng.randint(1, 12)
        return Request(("bound", "--branch", "power", "--N", str(N), "--deg-c", str(deg),
                        "--h-c", h_c, *hw, *prec), "bound",
                       {"branch": "power", "N": N, "deg_c": deg, "h_c": h_c, "hw": hw,
                        "precision": precision})
    if kind.startswith("family-audit"):
        family = kind.rsplit("-", 1)[1]
        n = zipf_n(rng)
        return Request(("family-audit", "--family", family, "--n", str(n), *prec),
                       "family-audit", {"family": family, "n": n, "precision": precision})
    if kind == "exponents":
        theorem, case, form = EXPONENT_FORMS[deck % len(EXPONENT_FORMS)]
        params = _exponent_params(rng, form)
        argv = ["exponents", "--theorem", theorem]
        if case:
            argv += ["--case", case]
        for key, value in params.items():
            argv += [f"--{key}", str(value)]
        return Request(tuple(argv), "exponents", {"theorem": theorem, "case": case})
    raise ValueError(kind)


def query_mix_deck(seed: int, deck: int) -> list[Request]:
    rng = _rng("query-mix", seed, deck)
    out = [_query_request(rng, kind, deck) for kind in QUERY_KINDS]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# search: bounded-height searches, exact big-integer work grows with B
# ---------------------------------------------------------------------------

# B spreads evenly from the acceptance value 25 (family f1) to where one search
# takes about 2 s on a desk machine.  An f2 search costs at B = 40 what an f1
# search costs at B = 25, so the f2 grid spans [40, 200]: both families have
# the same cost spread.  f1 takes five points and f2 four, so a deck holds an
# odd number of searches and its median falls on one search, not in the gap
# between two.  Shard counts rotate over the grid with the deck index, so
# within four decks every B runs at every shard count.  The seed picks n and
# the order.
SEARCH_B_RANGE = {"f1": (25, 150), "f2": (40, 200)}
SEARCH_GRID = {"f1": 5, "f2": 4}
SHARD_COUNTS = (1, 2, 4, 8)


def search_heights(family: str) -> list[int]:
    low, high = SEARCH_B_RANGE[family]
    last = SEARCH_GRID[family] - 1
    return [round(low + (high - low) * j / last) for j in range(last + 1)]


def search_deck(seed: int, deck: int) -> list[Request]:
    rng = _rng("search", seed, deck)
    out = []
    for family in ("f1", "f2"):
        for j, B in enumerate(search_heights(family)):
            s = SHARD_COUNTS[(j + deck) % len(SHARD_COUNTS)]
            n = rng.randint(1, 5)
            out.append(Request(
                ("search", "--family", family, "--n", str(n), "--curve", family,
                 "--height-bound", str(B), "--tol", "1e-10", "--shards", str(s)),
                "search", {"family": family, "n": n, "B": str(B), "shards": s}))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# census: three enumeration paths over Z plus the CM rings at r = 1
# ---------------------------------------------------------------------------

# (ring, N, r, Dmax), one shape for each ring, N and path, once per deck.  Z at
# r = 1 and r = 2 take the fast paths, Z at N = r = 3 the generic Laplace path,
# Z[i] and Z[w] the r = 1 path with unit orbits.  Dmax spreads from 1 to 200;
# no shape is slower than the Laplace one (about 0.35 s), and every shape with
# r <= 2 stays small enough for the oracle.  Eleven shapes put a run's median on
# one shape and its p95 near the middle of the slowest shape's requests, not at
# the edge between two shapes.
CENSUS_SHAPES = (
    ("z", 2, 1, 200), ("z", 3, 1, 100), ("z", 4, 1, 30),
    ("z", 2, 2, 100), ("z", 3, 2, 20), ("z", 4, 2, 5),
    ("z", 3, 3, 1),
    ("zi", 2, 1, 25), ("zi", 3, 1, 5),
    ("zw", 2, 1, 25), ("zw", 3, 1, 5),
)


def census_deck(seed: int, deck: int) -> list[Request]:
    rng = _rng("census", seed, deck)
    out = []
    for ring, N, r, dmax in CENSUS_SHAPES:
        T = rng.randint(1, 100)
        out.append(Request(
            ("census", "--ring", ring, "--N", str(N), "--r", str(r),
             "--max-degree", str(dmax), "--torsion", str(T)),
            "census", {"ring": ring, "N": N, "r": r, "dmax": dmax, "T": T}))
    rng.shuffle(out)
    return out


DECKS = {"query-mix": query_mix_deck, "search": search_deck, "census": census_deck}

# Seconds one deck took when the benchmark was sized (the code of its first
# version on a 2-vCPU x86_64 Xeon VM, Python 3.11).
# A traced run sizes its two passes with these, so the work a traced pass does
# depends on --seconds only, not on the speed of the code under test, and the
# per-layer counts and times of two versions compare directly.
DECK_SECONDS = {"query-mix": 0.04, "search": 9.8, "census": 1.3}


def traced_decks(workload: str, seconds: float) -> int:
    """Decks in each pass of a traced run of `seconds`."""
    return max(1, round(seconds / 2 / DECK_SECONDS[workload]))


def deck(workload: str, seed: int, index: int) -> list[Request]:
    return DECKS[workload](seed, index)
