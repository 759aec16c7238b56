"""Oracles for the raw-pair interval substrate.

The references below are the `mpmath.iv` evaluators the package used before
it moved to raw `libmpi` pairs at an explicit precision: a constant-expression
evaluator and the canonical-height doubling loop, each running under a
temporarily raised `iv.prec`.  The production code must return the very same
endpoints, bit for bit.
"""

import dataclasses
from collections import OrderedDict
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv, libmp, mp

from ntbounds import bounds, heights, rounding
from ntbounds.elliptic import ECPoint, add, scalar_mul, torsion_order, validate_curve
from ntbounds.heights import _doubling_data, _eval_form_mod, canonical_height_enclosure
from ntbounds.rounding import (
    Direction,
    LogRat,
    PiPow,
    Pow,
    Prod,
    Rat,
    Sum,
    eval_const,
    eval_interval,
    log_rat,
    pi_pow,
    rat,
    unit_ball_volume,
)

GUARD = 16


class _iv_precision:
    """Run the reference at iv.prec = precision + GUARD, restoring it after."""

    def __init__(self, precision):
        self.prec = precision + GUARD

    def __enter__(self):
        self.saved = iv.prec
        iv.prec = self.prec

    def __exit__(self, *exc):
        iv.prec = self.saved
        return False


def _ref_from_int(n):
    lo = libmp.from_int(n, iv.prec, libmp.round_floor)
    hi = libmp.from_int(n, iv.prec, libmp.round_ceiling)
    return iv.mpf((mp.make_mpf(lo), mp.make_mpf(hi)))


def _ref_from_fraction(q):
    if q.denominator == 1:
        return _ref_from_int(q.numerator)
    return _ref_from_int(q.numerator) / _ref_from_int(q.denominator)


def _ref_eval(expr):
    if isinstance(expr, Rat):
        return _ref_from_fraction(expr.q)
    if isinstance(expr, PiPow):
        return iv.pi ** expr.k
    if isinstance(expr, LogRat):
        return iv.log(_ref_from_fraction(expr.q))
    if isinstance(expr, Sum):
        result = iv.mpf(0)
        for t in expr.terms:
            result = result + _ref_eval(t)
        return result
    if isinstance(expr, Prod):
        result = iv.mpf(1)
        for f in expr.factors:
            result = result * _ref_eval(f)
        return result
    if isinstance(expr, Pow):
        return _ref_eval(expr.base) ** expr.k
    raise TypeError(expr)


def ref_enclosure(expr, precision):
    with _iv_precision(precision):
        return _ref_eval(expr)._mpi_


def ref_canonical_height_enclosure(E, P, tol, precision=256):
    """The doubling loop of `canonical_height_enclosure` on `mpmath.iv`."""
    tol = Fraction(tol)
    if torsion_order(E, P) is not None:
        return Fraction(0), Fraction(0)
    dd = _doubling_data(E)
    delta_up = eval_const(LogRat(dd.delta_log_arg), Direction.UPPER, 64).exact()
    n = 1
    while delta_up / (3 * Fraction(4) ** n) > tol / 4:
        n += 1
    tail = delta_up / (3 * Fraction(4) ** n)
    A0, B0 = P.x.numerator, P.x.denominator
    fc, gc, cap = dd.f_coeffs, dd.g_coeffs, dd.gcd_cap

    def endpoints(x):
        return tuple(rounding._raw_to_fraction(t) for t in x._mpi_)

    def iv_max(x, y):
        (xa, xb), (ya, yb) = x._mpi_, y._mpi_
        lo = mp.make_mpf(xa) if libmp.mpf_ge(xa, ya) else mp.make_mpf(ya)
        hi = mp.make_mpf(xb) if libmp.mpf_ge(xb, yb) else mp.make_mpf(yb)
        return iv.mpf((lo, hi))

    work = max(precision, 128)
    for _attempt in range(4):
        with _iv_precision(work):
            n0 = max(abs(A0), B0)
            total = iv.log(_ref_from_int(n0))
            z = _ref_from_int(A0) / _ref_from_int(n0)
            w = _ref_from_int(B0) / _ref_from_int(n0)
            if cap > 1:
                modulus = cap ** (n + 2)
                alpha, beta = A0 % modulus, B0 % modulus
            f_iv = [_ref_from_int(c) for c in fc]
            g_iv = [_ref_from_int(c) for c in gc]
            ok = True
            for m in range(n):
                z2 = z * z
                z3 = z2 * z
                z4 = z3 * z
                w2 = w * w
                fz = (f_iv[0] * z4 + f_iv[2] * z2 * w2
                      + f_iv[3] * z * w2 * w + f_iv[4] * w2 * w2)
                if fc[1]:
                    fz = fz + f_iv[1] * z3 * w
                gz = (g_iv[1] * z3 * w + g_iv[3] * z * w2 * w
                      + g_iv[4] * w2 * w2)
                if gc[0]:
                    gz = gz + g_iv[0] * z4
                if gc[2]:
                    gz = gz + g_iv[2] * z2 * w2
                big = iv_max(abs(fz), abs(gz))
                if endpoints(big)[0] <= 0:
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
                step = iv.log(big)
                if d > 1:
                    step = step - iv.log(_ref_from_int(d))
                total = total + step * _ref_from_fraction(Fraction(1, 4 ** (m + 1)))
                z = fz / big
                w = gz / big
            if ok:
                lo, hi = endpoints(total)
                lo, hi = lo - tail, hi + tail
                if hi - lo <= tol:
                    lo = max(lo, Fraction(0))
                    if hi < lo:
                        hi = lo
                    return lo, hi
        work *= 2
    raise AssertionError("reference did not certify")


# -- constant expressions -----------------------------------------------------

_fractions = st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 9))
_positive = st.builds(Fraction, st.integers(1, 10 ** 9), st.integers(1, 10 ** 9))


_leaves = st.one_of(
    st.builds(Rat, _fractions),
    st.builds(PiPow, st.integers(-8, 8)),
    st.builds(LogRat, _positive),
)

_exprs = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.builds(lambda ts: Sum(tuple(ts)), st.lists(inner, min_size=0, max_size=4)),
        st.builds(lambda fs: Prod(tuple(fs)), st.lists(inner, min_size=0, max_size=4)),
        st.builds(Pow, inner, st.integers(-4, 5)),
    ),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None)
@given(_exprs, st.integers(53, 512))
def test_raw_evaluator_matches_iv_reference(expr, precision):
    assert rounding._enclose(expr, precision) == ref_enclosure(expr, precision)


_FIXED = [
    rat(0),
    Sum(()),
    Prod(()),
    pi_pow(8),
    pi_pow(-3),
    log_rat(2) / 3,
    unit_ball_volume(5),
    (rat(Fraction(7, 3)) * pi_pow(2) + log_rat(Fraction(9, 7))) ** 3,
    pi_pow(3) * log_rat(24) - rat(2),
    Pow(log_rat(11) - rat(Fraction(1, 3)), -2),
    rat(Fraction(-2, 3)) * log_rat(Fraction(5, 7)),
]


@pytest.mark.parametrize("expr", _FIXED)
@pytest.mark.parametrize("precision", [53, 64, 128, 256, 512])
def test_raw_evaluator_matches_iv_reference_on_fixed_trees(expr, precision):
    assert rounding._enclose(expr, precision) == ref_enclosure(expr, precision)


def _fresh(expr):
    """A structurally equal copy that shares no object with `expr` (and so
    remembers no enclosure)."""
    if isinstance(expr, Sum):
        return Sum(tuple(_fresh(t) for t in expr.terms))
    if isinstance(expr, Prod):
        return Prod(tuple(_fresh(f) for f in expr.factors))
    if isinstance(expr, Pow):
        return Pow(_fresh(expr.base), expr.k)
    return dataclasses.replace(expr)


def test_results_do_not_depend_on_iv_precision_and_leave_it_untouched(monkeypatch):
    E, g = validate_curve(-1, -2), ECPoint.affine(2, 2)
    exprs = _FIXED[3:]
    want = [(eval_const(e, d, 128).exact(), eval_interval(e, 256))
            for e in exprs for d in Direction]
    want_h = canonical_height_enclosure(E, scalar_mul(E, 3, g), Fraction(1, 10 ** 10))
    mp_prec = mpmath.mp.prec
    for prec in (10, 53, 300):
        monkeypatch.setattr(iv, "prec", prec)
        monkeypatch.setattr(rounding, "_ATOM_CACHE", OrderedDict())  # evaluate afresh
        got = [(eval_const(f, d, 128).exact(), eval_interval(f, 256))
               for f in map(_fresh, exprs) for d in Direction]
        got_h = canonical_height_enclosure(E, scalar_mul(E, 3, g), Fraction(1, 10 ** 10))
        assert got == want and got_h == want_h
        assert iv.prec == prec and mpmath.mp.prec == mp_prec


# -- node-held enclosures --------------------------------------------------------


@st.composite
def _dags(draw):
    """A tree in which subtree objects recur: every new node takes its
    children, with repetition, from the nodes built so far."""
    pool = [draw(_exprs) for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(1, 4))):
        picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        node = draw(st.sampled_from(("sum", "prod", "pow")))
        if node == "sum":
            pool.append(Sum(tuple(picks)))
        elif node == "prod":
            pool.append(Prod(tuple(picks)))
        else:
            pool.append(Pow(picks[0], draw(st.integers(-3, 3))))
    return pool[-1]


@settings(max_examples=200, deadline=None)
@given(_dags(), st.lists(st.sampled_from((53, 64, 256)), min_size=2, max_size=4))
def test_remembered_enclosures_match_fresh_trees_and_the_iv_reference(dag, precisions):
    for precision in (64, 256, 64, *precisions):
        got = rounding._enclose(dag, precision)
        assert got == rounding._enclose(_fresh(dag), precision)
        assert got == ref_enclosure(dag, precision)


def test_paper_constant_across_precisions_matches_fresh_trees():
    d1 = Prod((Rat(Fraction(2 ** 64 * 3 ** 40)), pi_pow(-8)))
    assert bounds._D1 == d1 and bounds._D1 is not d1
    for precision in (128, 512, 128):
        for direction in Direction:
            assert (eval_const(bounds._D1, direction, precision)
                    == eval_const(_fresh(d1), direction, precision))
        assert rounding._enclose(bounds._D1, precision) == ref_enclosure(d1, precision)


def test_evaluated_node_equals_and_hashes_like_a_fresh_one():
    for expr in _FIXED:
        copy = _fresh(expr)
        eval_const(expr, Direction.UPPER, 128)
        assert expr == copy and hash(expr) == hash(copy) and repr(expr) == repr(copy)
    node = _FIXED[7]
    assert node._enclosure is not None and _fresh(node)._enclosure is None
    assert [f.name for f in dataclasses.fields(node)] == ["base", "k"]


# -- canonical heights ----------------------------------------------------------

E1, G1 = validate_curve(1, -1), ECPoint.affine(1, 1)   # f1
E2, G2 = validate_curve(-1, -2), ECPoint.affine(2, 2)  # f2
# y^2 = x^3 - 2x: (0, 0) has order 2, (2, 2) infinite order
E3, T3, P3 = validate_curve(-2, 0), ECPoint.affine(0, 0), ECPoint.affine(2, 2)

_POINTS = ([(E1, scalar_mul(E1, a, G1)) for a in range(1, 13)]
           + [(E2, scalar_mul(E2, a, G2)) for a in range(1, 13)]
           + [(E3, T3), (E3, P3), (E3, add(E3, P3, T3))])


@pytest.mark.parametrize("tol", [Fraction(1, 10 ** 3), Fraction(1, 10 ** 10),
                                 Fraction(1, 10 ** 40)])
@pytest.mark.parametrize("precision", [64, 256])
def test_canonical_height_matches_iv_reference(tol, precision):
    for E, P in _POINTS:
        got = canonical_height_enclosure(E, P, tol, precision)
        assert got == ref_canonical_height_enclosure(E, P, tol, precision), (E, P)


def test_precision_64_at_tight_tolerance_takes_the_retry_path(monkeypatch):
    seen = set()
    real = heights.iv_from_int

    def recording(n, wp):
        seen.add(wp)
        return real(n, wp)

    monkeypatch.setattr(heights, "iv_from_int", recording)
    P = scalar_mul(E2, 12, G2)
    got = canonical_height_enclosure(E2, P, Fraction(1, 10 ** 40), 64)
    assert min(seen) == 128 + GUARD and max(seen) > 128 + GUARD
    assert got == ref_canonical_height_enclosure(E2, P, Fraction(1, 10 ** 40), 64)
