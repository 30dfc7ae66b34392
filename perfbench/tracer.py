"""Per-layer tracing from outside the engine.

The tracer replaces public functions of the ``slopelab`` modules with
wrappers that time each call.  Every wrapped call updates three sums for its
name: calls, total time (outermost activations only, so recursion is not
counted twice) and self time (duration minus the time of wrapped calls made
inside it), all in CPU seconds of the process.  Calls of the functions of
kind "span" in ``TRACED`` also keep a span record (id, parent id, name,
start, end) in memory; the rest are counted only, because CycloRat
arithmetic alone runs about a million times in one pass.

Caches are found by introspection: every ``functools.lru_cache`` (anything
with ``cache_info``) defined in a ``slopelab.*`` module, whatever its name.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import time

# (module, qualified name, kind): kind "span" keeps a span per call,
# "count" only the sums.
TRACED = (
    ("exact_algebra", "CycloRat.zeta", "count"),
    ("exact_algebra", "cyclotomic_polynomial", "count"),
    ("exact_algebra", "CycloRat.__add__", "count"),
    ("exact_algebra", "CycloRat.__radd__", "count"),
    ("exact_algebra", "CycloRat.__mul__", "count"),
    ("exact_algebra", "CycloRat.__rmul__", "count"),
    ("exact_algebra", "CycloRat.inverse", "count"),
    ("exact_algebra", "RamifiedExponent.substitute_root", "count"),
    ("elementary", "make_elementary", "span"),
    ("elementary", "pullback", "span"),
    ("elementary", "tensor", "span"),
    ("elementary", "dual", "span"),
    ("elementary", "pushforward", "span"),
    ("elementary", "psi_dim_twisted", "span"),
    ("elementary", "witness_twist", "span"),
    ("elementary", "nearby_slopes", "span"),
    ("elementary", "certify_nearby_slopes", "span"),
    ("expr", "parse_and_eval", "span"),
    ("expr", "module_to_expr", "span"),
    ("cli", "main", "span"),
    ("monomial_models", "highest_generic_slopes", "span"),
    ("monomial_models", "vanishing_threshold", "span"),
    ("monomial_models", "curve_restriction", "span"),
    ("blowup", "initial_state", "span"),
    ("blowup", "blow_up", "span"),
    ("blowup", "verify_inequality", "span"),
    ("newton_polygon", "slopes_from_operator", "span"),
)

# Time a callee spends inside a given ancestor, summed separately.
UNDER = {
    "elementary.witness_twist": "elementary.nearby_slopes",
    "elementary.psi_dim_twisted": "elementary.nearby_slopes",
}

# Spans kept in memory per process; sums stay exact past this.
MAX_SPANS = 200_000


def _module(short: str):
    # importlib, not attribute access: slopelab.elementary is shadowed on the
    # package by the function elementary().
    return importlib.import_module(f"slopelab.{short}")


def discover_caches() -> dict[str, object]:
    """Every lru_cache in a loaded slopelab module, keyed
    '<module>.cache.<qualname>'."""
    found: dict[str, object] = {}
    for modname, mod in sorted(sys.modules.items()):
        if not modname.startswith("slopelab.") or mod is None:
            continue
        short = modname.split(".", 1)[1]
        candidates = list(vars(mod).values())
        for obj in list(candidates):
            if isinstance(obj, type) and obj.__module__ == modname:
                candidates.extend(vars(obj).values())
        for obj in candidates:
            obj = getattr(obj, "__func__", obj)
            if (hasattr(obj, "cache_info")
                    and getattr(obj, "__module__", None) == modname):
                found[f"{short}.cache.{obj.__qualname__}"] = obj
    return found


def cache_snapshot(caches: dict[str, object]) -> dict[str, dict]:
    out = {}
    for name, fn in caches.items():
        info = fn.cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses,
                     "entries": info.currsize, "maxsize": info.maxsize}
    return out


def cache_delta(before: dict, after: dict) -> dict[str, dict]:
    """Hits and misses between two snapshots; entries as of `after`."""
    out = {}
    for name, end in after.items():
        start = before.get(name, {"hits": 0, "misses": 0})
        hits = end["hits"] - start["hits"]
        misses = end["misses"] - start["misses"]
        out[name] = {"hits": hits, "misses": misses, "entries": end["entries"],
                     "maxsize": end["maxsize"],
                     "hit_ratio": hits / (hits + misses) if hits + misses else 0.0}
    return out


class Tracer:
    """Wraps the functions in TRACED; one instance per process."""

    def __init__(self):
        self.stats: dict[str, list] = {}     # name -> [calls, total_s, self_s]
        self.under: dict[str, float] = {}    # callee name -> seconds under UNDER[callee]
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self._stack: list[list] = []         # frames: [child_seconds, span_id]
        self._active: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn, keep_span: bool):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, active, spans = self._stack, self._active, self.spans
        ancestor = UNDER.get(name)
        ids = self._ids
        clock = time.process_time
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else 0
            frame = [0.0, next(ids) if keep_span else parent]
            stack.append(frame)
            depth = active.get(name, 0)
            active[name] = depth + 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] = depth
                elapsed = end - start
                stats[0] += 1
                stats[2] += elapsed - frame[0]
                if not depth:
                    stats[1] += elapsed
                    if ancestor is not None and active.get(ancestor):
                        tracer.under[name] = tracer.under.get(name, 0.0) + elapsed
                if stack:
                    stack[-1][0] += elapsed
                if keep_span:
                    if len(spans) < MAX_SPANS:
                        spans.append((frame[1], parent, name, start, end))
                    else:
                        tracer.dropped_spans += 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def install(self) -> None:
        """Patch every TRACED function in place, in the defining module and
        in every slopelab module that imported it by name."""
        modules = [m for n, m in sys.modules.items()
                   if (n == "slopelab" or n.startswith("slopelab.")) and m is not None]
        for short, qualname, kind in TRACED:
            mod = _module(short)
            name = f"{short}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, kind == "span"))
                else:
                    wrapped = self._wrap(name, raw, kind == "span")
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(mod, qualname)
            wrapped = self._wrap(name, original, kind == "span")
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, attr, value))
                        setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def summary(self) -> dict:
        return {
            "functions": {name: {"calls": c, "total_s": t, "self_s": s}
                          for name, (c, t, s) in sorted(self.stats.items())},
            "under": dict(self.under),
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped_spans,
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
