"""Spans around frobstrat's public functions, recorded from outside the package.

``Tracer.install`` wraps each function named in ``LAYERS`` and rebinds every
name in the ``frobstrat`` modules that refers to it, so the CLI's calls and
the calls between modules both pass through the wrapper; ``uninstall`` puts
the originals back.  A span holds its name, start, end, parent span and the
id of the request it belongs to.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from typing import NamedTuple

# (module, function) per layer; "Class.method" names a classmethod.  The
# optional third entry names a count taken from the result: len(result) is
# added to "<layer>.<count>".
LAYERS = (
    ("cli", "main"),
    ("gfield", "field_make"),
    ("gfield", "projective_plane", "points"),
    ("localmodel", "pullback_span"),
    ("localmodel", "SubspaceBasis.from_spanning"),
    ("localmodel", "intersection_colength"),
    ("localmodel", "claim_results"),
    ("localmodel", "classify_stratum"),
    ("localmodel", "stratum_census"),
    ("localmodel", "tau_square_span"),
    ("polygon", "enumerate_destabilized_polygons", "emitted"),
    ("polygon", "bruteforce_destabilized_polygons", "emitted"),
    ("polygon", "name_polygon"),
    ("slopecalc", "embedding_certificate"),
    ("slopecalc", "stability_certificate"),
    ("strata", "strata_table"),
    ("strata", "dualize_polygon"),
)


def layer_name(entry):
    return f"{entry[0]}.{entry[1]}"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.request = None
        self._open = []
        self._saved = []

    def wrap(self, name, fn, count=None):
        """``fn`` recording one span per call under ``name``."""
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = Span(name, start, end, parent, self.request)
            if count:
                self.counts[f"{name}.{count}"] += len(result)
            return result

        return traced

    def install(self):
        layer_modules = [importlib.import_module(f"frobstrat.{e[0]}") for e in LAYERS]
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "frobstrat" or k.startswith("frobstrat.")]
        for entry, module in zip(LAYERS, layer_modules):
            count = entry[2] if len(entry) > 2 else None
            owner_name, _, attr = entry[1].rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                wrapped = classmethod(self.wrap(layer_name(entry), original.__func__, count))
                self._rebind(owner, attr, original, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(layer_name(entry), original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapped)

    def _rebind(self, owner, attr, original, wrapped):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans):
    """{name: (calls, self seconds)}: a span's self time is its duration
    minus the part of it that its child spans cover."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for sid, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(sid, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        calls, total = out.get(span.name, (0, 0.0))
        out[span.name] = (calls + 1, total + (span.end - span.start) - covered)
    return out
