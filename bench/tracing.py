"""Spans around the package's public functions, installed from outside.

`install(tracer)` rebinds each named function in every `raynaud.*` module
that holds it by name (so calls inside its own module go through the
wrapper too) and patches the named methods on their classes.  Nothing
inside the package changes; timed runs never call `install`.

A span is (id, name, start, end, parent id, instance id, outermost), kept
in memory and written out by `Tracer.dump` when the run ends.  `outermost`
is false when a span of the same name is already open, so inclusive
seconds never count a recursive call twice.  Calls that hit a cache
(`Pres.normal_form`, `Tower.level`) are counted without a span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# functions and methods that get a plain span, by module
SPANNED = {
    "linalg": ["kernel_into", "LinearSolver.__init__"],
    "rmod": ["condense_level", "fil_gens"],
    "homs": ["identify_block"],
    "star": ["star_presentation", "StarModel.__init__", "derived_star", "band_alpha"],
    "invariants": ["hodge_witt_numbers", "crew_check"],
    "balphap": ["e2_rows01", "row2_e2", "resolve_extension", "counterexample_object"],
}
# invariants functions memoized in invariants._BLOCK_CACHE
BLOCK_CACHED = ["coeur", "domino_number", "newton_slopes", "rn_tensor_block", "block_hodge_table"]
MODULES = ["linalg", "rmod", "homs", "star", "invariants", "balphap"]


def _span_name(module, qualname):
    return f"{module}.{qualname.removesuffix('.__init__')}"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.instance = -1
        self._stack = []  # (id, name) of open spans
        self._open = Counter()  # open spans per name
        self._next = 0

    def parent_name(self):
        return self._stack[-1][1] if self._stack else None

    def call(self, name, fn, args, kwargs):
        sid = self._next
        self._next += 1
        parent = self._stack[-1][0] if self._stack else -1
        outermost = not self._open[name]
        self._stack.append((sid, name))
        self._open[name] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._open[name] -= 1
            self.spans.append((sid, name, t0, t1, parent, self.instance, outermost))

    def dump(self, path):
        names = sorted({s[1] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        rows = [[s[0], index[s[1]], s[2], s[3], s[4], s[5], int(s[6])] for s in self.spans]
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "instance", "outermost"],
                    "names": names,
                    "spans": rows,
                },
                fh,
            )


def _rebind(orig, wrapper):
    """Replace `orig` by `wrapper` wherever a raynaud module holds it by name."""
    hits = 0
    for modname, mod in list(sys.modules.items()):
        if modname != "raynaud" and not modname.startswith("raynaud."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)
                hits += 1
    if not hits:
        raise RuntimeError(f"{orig.__qualname__} is not bound in any raynaud module")


def _patch(module, qualname, make_wrapper):
    """Wrap a module-level function or a Class.method with make_wrapper(orig)."""
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        orig = vars(owner)[attr]
        setattr(owner, attr, functools.wraps(orig)(make_wrapper(orig)))
    else:
        orig = getattr(module, attr)
        _rebind(orig, functools.wraps(orig)(make_wrapper(orig)))


def install(tr: Tracer):
    """Wrap the traced functions of the imported package; raises if one is gone."""
    import importlib

    mods = {m: importlib.import_module(f"raynaud.{m}") for m in MODULES}
    c = tr.counts

    def spanned(name):
        return lambda orig: lambda *a, **k: tr.call(name, orig, a, k)

    for m, qualnames in SPANNED.items():
        for qn in qualnames:
            _patch(mods[m], qn, spanned(_span_name(m, qn)))

    def snf(orig):
        def wrapper(A, *a, **k):
            rows, cols = np.shape(A)
            c["snf.cells"] += rows * cols
            if rows * cols > c["snf.max_cells"]:
                c["snf.max_cells"], c["snf.max_rows"], c["snf.max_cols"] = rows * cols, rows, cols
            big = max(rows, cols)
            c["snf.le32" if big <= 32 else "snf.le128" if big <= 128 else "snf.gt128"] += 1
            return tr.call("linalg.smith_normal_form", orig, (A, *a), k)

        return wrapper

    def normal_form(orig):
        def wrapper(self):
            if self._nf is not None:
                c["normal_form.hits"] += 1
                return orig(self)
            return tr.call("linalg.Pres.normal_form", orig, (self,), {})

        return wrapper

    def level(orig):
        def wrapper(self, m, n):
            if (m, n) in self._cache:
                c["level.hits"] += 1
                return orig(self, m, n)
            return tr.call("rmod.Tower.level", orig, (self, m, n), {})

        return wrapper

    def pushdown(orig):
        sig = inspect.signature(orig)

        def wrapper(*a, **k):
            bound = sig.bind(*a, **k)
            bound.apply_defaults()
            gens_at = bound.arguments["gens_at"]
            c["pushdown.steps_allowed"] += bound.arguments["steps"]

            def counted(step):
                c["pushdown.steps_used"] += 1
                return gens_at(step)

            bound.arguments["gens_at"] = counted
            return tr.call("rmod.stable_pushdown", orig, bound.args, bound.kwargs)

        return wrapper

    def find_iso(orig):
        def wrapper(*a, **k):
            phi = tr.call("homs.find_isomorphism", orig, a, k)
            c["iso.found"] += phi is not None
            return phi

        return wrapper

    def is_iso(orig):
        def wrapper(*a, **k):
            inside_search = tr.parent_name() == "homs.find_isomorphism"
            ok = tr.call("homs.is_isomorphism_at", orig, a, k)
            # a candidate is rejected by its first failing level
            c["iso.rejected"] += inside_search and not ok
            return ok

        return wrapper

    def block_cached(name):
        def make(orig):
            def wrapper(*a, **k):
                before = len(mods["invariants"]._BLOCK_CACHE)
                try:
                    return tr.call(name, orig, a, k)
                finally:
                    grew = len(mods["invariants"]._BLOCK_CACHE) > before
                    c["block_cache.misses" if grew else "block_cache.hits"] += 1

            return wrapper

        return make

    _patch(mods["linalg"], "smith_normal_form", snf)
    _patch(mods["linalg"], "Pres.normal_form", normal_form)
    _patch(mods["rmod"], "Tower.level", level)
    _patch(mods["rmod"], "stable_pushdown", pushdown)
    _patch(mods["homs"], "find_isomorphism", find_iso)
    _patch(mods["homs"], "is_isomorphism_at", is_iso)
    for name in BLOCK_CACHED:
        _patch(mods["invariants"], name, block_cached(f"invariants.{name}"))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics of one traced run, every one present (0 if unreached)."""
    calls, incl = Counter(), defaultdict(float)
    child, self_s = defaultdict(float), defaultdict(float)
    for sid, name, t0, t1, parent, _inst, outer in tr.spans:
        if parent >= 0:
            child[parent] += t1 - t0
    for sid, name, t0, t1, parent, _inst, outer in tr.spans:
        calls[name] += 1
        if outer:
            incl[name] += t1 - t0
        self_s[name.partition(".")[0]] += (t1 - t0) - child[sid]
    c = tr.counts
    out = {}

    def put(name, stats):
        for stat in stats:
            out[f"{name}.{stat}"] = calls[name] if stat == "calls" else incl[name]

    put("linalg.smith_normal_form", ["calls", "s"])
    out["linalg.smith_normal_form.cells"] = c["snf.cells"]
    out["linalg.smith_normal_form.max_cells"] = c["snf.max_cells"]
    out["linalg.smith_normal_form.calls_le32"] = c["snf.le32"]
    out["linalg.smith_normal_form.calls_le128"] = c["snf.le128"]
    out["linalg.smith_normal_form.calls_gt128"] = c["snf.gt128"]
    put("linalg.kernel_into", ["calls", "s"])
    put("linalg.LinearSolver", ["calls"])
    # cached calls: misses are spans, hits only a count
    for name, hits in [
        ("linalg.Pres.normal_form", "normal_form.hits"),
        ("rmod.Tower.level", "level.hits"),
    ]:
        out[f"{name}.calls"] = calls[name] + c[hits]
        out[f"{name}.hit_ratio"] = _ratio(c[hits], calls[name] + c[hits])
    out["rmod.Tower.level.miss_s"] = incl["rmod.Tower.level"]
    put("rmod.condense_level", ["calls", "s"])
    put("rmod.fil_gens", ["calls", "s"])
    put("rmod.stable_pushdown", ["calls", "s"])
    out["rmod.stable_pushdown.steps_used"] = c["pushdown.steps_used"]
    out["rmod.stable_pushdown.steps_allowed"] = c["pushdown.steps_allowed"]
    put("homs.find_isomorphism", ["calls", "s"])
    out["homs.find_isomorphism.found"] = c["iso.found"]
    tested = c["iso.found"] + c["iso.rejected"]
    out["homs.find_isomorphism.useful_ratio"] = _ratio(c["iso.found"], tested)
    put("homs.is_isomorphism_at", ["calls"])
    put("homs.identify_block", ["calls", "s"])
    put("star.star_presentation", ["calls", "s"])
    put("star.StarModel", ["s"])
    put("star.derived_star", ["calls", "s"])
    put("star.band_alpha", ["calls", "s"])
    put("invariants.hodge_witt_numbers", ["calls", "s"])
    put("invariants.crew_check", ["s"])
    hits, misses = c["block_cache.hits"], c["block_cache.misses"]
    out["invariants.block_cache.hit_ratio"] = _ratio(hits, hits + misses)
    for name in ("e2_rows01", "row2_e2", "resolve_extension", "counterexample_object"):
        put(f"balphap.{name}", ["s"])
    for m in MODULES:
        out[f"{m}.self_s"] = self_s[m]
    return out


def max_snf_shape(tr: Tracer):
    return [tr.counts["snf.max_rows"], tr.counts["snf.max_cols"]]
