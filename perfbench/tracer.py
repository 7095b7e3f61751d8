"""Out-of-package tracer for the schubres layers.

``Tracer.install()`` replaces the public functions of every ``schubres``
module, in every module that binds them (``from schubres.exactlin import
intersect`` makes a second binding), with timing wrappers.  It also wraps
the ``FrameConfig`` sum methods and ``EnumReport.to_json``, and counts
``Subspace.__hash__`` calls.  Iterators returned by generator functions
are wrapped too, and each ``next()`` is timed as a call into the
function's layer.

Every wrapped function keeps a counter of calls, yielded items,
inclusive and self time; self time is inclusive time minus the time of
wrapped calls made inside it.  A call or ``next()`` that crosses from
one layer into another, other than into ``exactlin``, is also recorded
as a span (id, parent id, name, start, end), up to ``SPAN_LIMIT`` per
process.  Each call to ``cli.run`` is the root span of one configuration
and is always kept.  ``exactlin`` calls are too many to keep one by one
and exist only as counters.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time

LAYERS = (
    "exactlin",
    "permcomb",
    "building",
    "biflag",
    "bottsamelson",
    "grassfib",
    "wflag",
    "embres",
    "report",
    "cli",
    "suite",
)

# Leaf helpers that cost less than a wrapper; their time stays in the caller.
UNWRAPPED = {"is_prime", "check_field", "vec_add", "vec_scale", "unit_vector", "timed", "main"}

FRAME_SUMS = ("lines_prefix", "complements_prefix", "complements_suffix", "nested")

SPAN_LIMIT = 200_000

clock = time.perf_counter


class Stat:
    __slots__ = ("calls", "items", "incl", "self_t", "active")

    def __init__(self) -> None:
        self.calls = 0
        self.items = 0
        self.incl = 0.0
        self.self_t = 0.0
        self.active = 0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        # a frame is [time covered by wrapped children, id of the enclosing span, layer]
        self.stack: list[list] = [[0.0, -1, None]]
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.spans_dropped = 0
        self.next_span = 0
        self.modules = {name: importlib.import_module(f"schubres.{name}") for name in LAYERS}
        # counters of work done inside another function's dynamic extent
        self.tower_nodes = 0
        self.vbeta_scanned = 0
        self.cell_scanned = 0

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    # -- wrapping -----------------------------------------------------------

    def open_span(self, parent: list, layer: str, root: bool = False) -> int:
        """The span id of a call into ``layer`` made under ``parent``'s frame."""
        if not root and (layer == parent[2] or layer == "exactlin"):
            return parent[1]
        if root or self.next_span < SPAN_LIMIT:
            self.next_span += 1
            return self.next_span - 1
        self.spans_dropped += 1
        return parent[1]

    def _timed(self, fn, name: str, layer: str, hook=None, item_hook=None, root=False):
        """A wrapper timing each call of ``fn`` under ``name``.

        ``hook`` runs on each call, ``item_hook`` on each item its iterator yields.
        """
        st = self.stat(name)
        stack = self.stack
        iterate = inspect.isgeneratorfunction(fn)

        def wrapper(*args, **kwargs):
            st.calls += 1
            if hook is not None:
                hook()
            parent = stack[-1]
            sid = self.open_span(parent, layer, root)
            frame = [0.0, sid, layer]
            stack.append(frame)
            st.active += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                st.active -= 1
                stack.pop()
                d = t1 - t0
                st.incl += d
                st.self_t += d - frame[0]
                parent[0] += d
                if sid != parent[1]:
                    self.spans.append((sid, parent[1], name, t0, t1))
            if iterate:
                return TracedIterator(self, result, name, layer, st, item_hook)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _kind_run(self, run):
        """``cli.run`` timed under one name per subcommand kind."""
        wrapped = {}

        def wrapper(argv=None):
            kind = "-".join(a for a in argv[:2] if not a.startswith("-"))
            if kind not in wrapped:
                wrapped[kind] = self._timed(run, f"cli.run.{kind}", "cli", root=True)
            return wrapped[kind](argv)

        return wrapper

    def install(self) -> None:
        mods = self.modules
        exactlin, grassfib, report = (mods[m] for m in ("exactlin", "grassfib", "report"))
        shat = self.stat("biflag.enumerate_shat")
        vbeta, cells = self.stat("grassfib.vbeta_points"), self.stat("embres.cell_points")

        def count_tower_node():
            if shat.active:
                self.tower_nodes += 1

        def count_scanned():
            if vbeta.active:
                self.vbeta_scanned += 1
            if cells.active:
                self.cell_scanned += 1

        hooks = {
            "exactlin.enumerate_between": (count_tower_node, None),
            "exactlin.enumerate_subspaces": (None, count_scanned),
        }
        replace: dict[int, tuple[object, object]] = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or attr in UNWRAPPED or isinstance(obj, type):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                name = f"{layer}.{attr}"
                if name == "cli.run":
                    wrapper = self._kind_run(obj)
                else:
                    wrapper = self._timed(obj, name, layer, *hooks.get(name, (None, None)))
                replace[id(obj)] = (obj, wrapper)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

        for meth in FRAME_SUMS:
            orig = getattr(grassfib.FrameConfig, meth)
            wrapper = self._timed(orig, f"grassfib.FrameConfig.{meth}", "grassfib")
            setattr(grassfib.FrameConfig, meth, wrapper)
        report.EnumReport.to_json = self._timed(report.EnumReport.to_json, "report.to_json", "report")

        orig_hash = exactlin.Subspace.__hash__
        hashes = self.stat("exactlin.Subspace.__hash__")

        def counted_hash(s):
            hashes.calls += 1
            return orig_hash(s)

        exactlin.Subspace.__hash__ = counted_hash

    # -- results ------------------------------------------------------------

    def cache_infos(self) -> dict[str, list[int]]:
        """hits, misses and currsize of every lru_cache in exactlin."""
        exactlin = self.modules["exactlin"]
        out = {}
        for attr, obj in vars(exactlin).items():
            if not hasattr(obj, "cache_info"):  # a tracer wrapper around the cache
                obj = getattr(obj, "__wrapped__", None)
            if hasattr(obj, "cache_info"):
                info = obj.cache_info()
                out[attr] = [info.hits, info.misses, info.currsize]
        return out

    def snapshot(self) -> dict:
        return {
            "stats": {
                name: [s.calls, s.items, s.incl, s.self_t] for name, s in self.stats.items()
            },
            "caches": self.cache_infos(),
            "tower_nodes": self.tower_nodes,
            "vbeta_scanned": self.vbeta_scanned,
            "cell_scanned": self.cell_scanned,
            "spans": len(self.spans),
            "spans_dropped": self.spans_dropped,
        }

    def write_spans(self, path: str) -> None:
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = sorted(
            (sid, parent, index[name], round(t0, 7), round(t1, 7))
            for sid, parent, name, t0, t1 in self.spans
        )
        with gzip.open(path, "wt") as fh:
            fields = ["id", "parent", "name", "start", "end"]
            json.dump({"fields": fields, "names": names, "spans": rows}, fh)


class TracedIterator:
    """An enumerator's iterator; each ``next()`` is a timed call of its function."""

    __slots__ = ("tracer", "it", "name", "layer", "st", "item_hook")

    def __init__(self, tracer: Tracer, it, name: str, layer: str, st: Stat, item_hook) -> None:
        self.tracer = tracer
        self.it = it
        self.name = name
        self.layer = layer
        self.st = st
        self.item_hook = item_hook

    def __iter__(self):
        return self

    def __next__(self):
        st = self.st
        tracer = self.tracer
        stack = tracer.stack
        parent = stack[-1]
        sid = tracer.open_span(parent, self.layer)
        frame = [0.0, sid, self.layer]
        stack.append(frame)
        st.active += 1
        t0 = clock()
        try:
            item = next(self.it)
        finally:
            t1 = clock()
            st.active -= 1
            stack.pop()
            d = t1 - t0
            st.incl += d
            st.self_t += d - frame[0]
            parent[0] += d
            if sid != parent[1]:
                tracer.spans.append((sid, parent[1], self.name, t0, t1))
        st.items += 1
        if self.item_hook is not None:
            self.item_hook()
        return item
