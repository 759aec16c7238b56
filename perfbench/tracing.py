"""Spans recorded from outside the program.

The tracer replaces chosen public functions of ``ntbounds`` with wrappers that
record a span per call: name, start, end, parent span and request id.  Every
module attribute bound to the original (including names a consumer module took
with ``from .x import y``) is rebound, so calls between modules are seen too.
Spans are kept in memory as integer columns and written out at exit; per-layer
self time is a span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

# (span name, object path) of every traced function.  Several functions may
# share one span name; the reporting payload builders are one layer.
TARGETS = (
    ("cli.main", "ntbounds.cli:main"),
    ("reporting.canonical_dumps", "ntbounds.reporting:canonical_dumps"),
    ("reporting.payload", "ntbounds.reporting:bounded_real_payload"),
    ("reporting.payload", "ntbounds.reporting:height_payload"),
    ("reporting.payload", "ntbounds.reporting:bound_report_payload"),
    ("reporting.payload", "ntbounds.reporting:family_audit_payload"),
    ("reporting.payload", "ntbounds.reporting:search_report_payload"),
    ("reporting.payload", "ntbounds.reporting:census_payload"),
    ("reporting.payload", "ntbounds.reporting:exponents_payload"),
    ("rounding.eval_const", "ntbounds.rounding:eval_const"),
    ("rounding.fraction_to_decimal", "ntbounds.rounding:fraction_to_decimal"),
    ("rounding.iv_from_int", "ntbounds.rounding:iv_from_int"),
    ("bounds.family_final_bound", "ntbounds.bounds:family_final_bound"),
    ("bounds.bound_transverse_E2", "ntbounds.bounds:bound_transverse_E2"),
    ("bounds.bound_weaktransverse_EN", "ntbounds.bounds:bound_weaktransverse_EN"),
    ("bounds.constants_D", "ntbounds.bounds:constants_D"),
    ("bounds.constants_CN", "ntbounds.bounds:constants_CN"),
    ("chow_hurwitz.family_degree_upper", "ntbounds.chow_hurwitz:family_degree_upper"),
    ("chow_hurwitz.hurwitz_genus", "ntbounds.chow_hurwitz:hurwitz_genus"),
    ("search.search_rational_points", "ntbounds.search:search_rational_points"),
    ("search.enumerate_rank1", "ntbounds.search:enumerate_rank1"),
    ("heights.canonical_height_enclosure", "ntbounds.heights:canonical_height_enclosure"),
    ("elliptic.torsion_order", "ntbounds.elliptic:torsion_order"),
    ("elliptic.scalar_mul", "ntbounds.elliptic:scalar_mul"),
    ("elliptic.add", "ntbounds.elliptic:add"),
    ("subgroups.enumerate_matrices", "ntbounds.subgroups:enumerate_matrices"),
    ("subgroups.hermite_normal_form", "ntbounds.subgroups:hermite_normal_form"),
    ("subgroups.degree_estimate", "ntbounds.subgroups:degree_estimate"),
    ("rings.canon_row", "ntbounds.rings:EndRing.canon_row"),
    ("rings.divmod_rounded", "ntbounds.rings:EndRing.divmod_rounded"),
    ("rings.elements_of_norm_at_most", "ntbounds.rings:EndRing.elements_of_norm_at_most"),
)


def _count_search(tracer: "Tracer", report) -> None:
    tracer.counters["search.candidate_points"] += report.candidate_points
    tracer.counters["search.pairs_scanned"] += report.pairs_scanned


def _count_classes(tracer: "Tracer", matrices) -> None:
    tracer.counters["subgroups.classes"] += len(matrices)


# Counts read off return values at the boundary where the work happens.
ON_RETURN = {
    "search.search_rational_points": _count_search,
    "subgroups.enumerate_matrices": _count_classes,
}

IDLE = -1


class Tracer:
    """Span recorder; records only while `request` is a request id (>= 0)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.req = array("q")
        self.calls: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.request = IDLE
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        row = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.req.append(self.request)
        self.end.append(0)
        stack.append(row)
        self.start.append(time.perf_counter_ns())
        return row

    def _close(self, row: int) -> None:
        self.end[row] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        on_return = ON_RETURN.get(name)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # One span per resumption, so time the consumer spends between
            # items is not charged to the generator.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                if tracer.request == IDLE:
                    return (yield from fn(*args, **kwargs))
                tracer.calls[nid] += 1
                it = fn(*args, **kwargs)
                while True:
                    row = tracer._open(nid)
                    try:
                        item = next(it)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        tracer._close(row)
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.request == IDLE:
                return fn(*args, **kwargs)
            tracer.calls[nid] += 1
            row = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(row)
            if on_return is not None:
                on_return(tracer, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every target and rebind each module attribute that held it."""
        for name, path in TARGETS:
            module_name, _, attr_path = path.partition(":")
            owner = importlib.import_module(module_name)
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            self._rebind(owner, attr, wrapper, original)
            if not outer:
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.startswith("ntbounds") and mod is not owner:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._rebind(mod, key, wrapper, original)

    def _rebind(self, owner, attr: str, wrapper, original) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self time in ms) over every recorded span."""
        self_ns = span_self_ns(self.start, self.end, self.parent)
        total = [0] * len(self.names)
        for nid, s in zip(self.name, self_ns):
            total[nid] += s
        return {name: (self.calls[i], total[i] / 1e6) for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Columns as native int64 in `path`, described by `path`.json."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = ("name", "start_ns", "end_ns", "parent", "request")
        with open(path, "wb") as fh:
            for col in (self.name, self.start, self.end, self.parent, self.req):
                col.tofile(fh)
        header = {"names": self.names, "columns": columns, "rows": len(self.start),
                  "dtype": f"int64 {sys.byteorder}-endian, column after column",
                  "parent": "row index of the enclosing span, -1 at a request root"}
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")


def span_self_ns(start, end, parent) -> list[int]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for row, p in enumerate(parent):
        if p >= 0:
            children[p].append((start[row], end[row]))
    out = [e - s for s, e in zip(start, end)]
    for p, spans in children.items():
        lo, hi = start[p], end[p]
        spans.sort()
        covered = 0
        cur_s = cur_e = None
        for s, e in spans:
            s, e = max(s, lo), min(e, hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            elif e > cur_e:
                cur_e = e
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out
