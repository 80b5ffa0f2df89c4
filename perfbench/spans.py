"""Span tracing of snowpoly from outside the library.

`Tracer.install()` replaces public functions of the snowpoly modules (and
the Polynomial arithmetic methods) with wrappers that record one span per
call: name, start, end and the span that was open when the call began.
Spans are kept in flat arrays in memory and written out by `dump`; self
time (duration minus the time covered by child spans) and call counts are
accumulated while the calls run. A traced process is never used for
end-to-end timing; `span_cost` measures what one traced call adds.
"""

from __future__ import annotations

import gzip
import statistics
import sys
from array import array
from time import perf_counter

# (module, attribute, span name): functions looked up by name, replaced in
# every snowpoly module that imported them.
FUNCTIONS = [
    ("polyring", "divided_difference", "polyring.divided_difference"),
    ("polyring", "demazure", "polyring.demazure"),
    ("polyring", "swap_action", "polyring.swap_action"),
    ("schubert", "_grothendieck", "schubert.recursion"),
    ("schubert", "_lascoux", "schubert.recursion"),
    ("schubert", "_top_lascoux_recursive", "schubert.recursion"),
    ("schubert", "expand_top_into_snowy_basis", "schubert.expand_top"),
    ("schubert", "expand_grothendieck_into_lascoux", "schubert.expand_full"),
    ("schubert", "_select_pivot", "schubert.pivot"),
    ("kkohnert", "kkd_closure", "kkohnert.kkd_closure"),
    ("kkohnert", "kkohnert_successors", "kkohnert.successors"),
    ("kkohnert", "witness_diagram", "kkohnert.witness"),
    ("permutations", "rajcode", "permutations.rajcode"),
    ("permutations", "lis_from", "permutations.lis_from"),
    ("permutations", "schensted", "permutations.schensted"),
    ("permutations", "turning_points", "permutations.turning_points"),
    ("diagrams", "rajcode", "diagrams.rajcode"),
    ("diagrams", "rothe_diagram", "diagrams.rothe_diagram"),
    ("diagrams", "key_diagram", "diagrams.key_diagram"),
    ("diagrams", "dark", "diagrams.dark"),
    ("diagrams", "rook_placements", "diagrams.rook_placements"),
    ("compositions", "rajcode", "compositions.rajcode"),
    ("compositions", "snowy_from_rajcode", "compositions.snowy_from_rajcode"),
    ("compositions", "snowy_representative", "compositions.snowy_representative"),
    ("compositions", "dark_inverse", "compositions.dark_inverse"),
    ("qbell", "enumerate_rook_n", "qbell.enumerate_rook_n"),
    ("qbell", "gr_stat", "qbell.gr_stat"),
    ("qbell", "nw_stat", "qbell.nw_stat"),
    ("qbell", "hilb_vn", "qbell.hilb_vn"),
    ("verify", "run_suite", None),  # named per suite: verify.<suite>
]

# Polynomial methods: (attribute, span name)
METHODS = [
    ("__mul__", "polyring.mul"),
    ("__rmul__", "polyring.mul"),
    ("__add__", "polyring.addsub"),
    ("__sub__", "polyring.addsub"),
    ("__eq__", "polyring.eq"),
]

SUITES = ["tables", "rajcode-equiv", "psw", "top-las", "kkohnert", "shadow", "qbell", "expansions"]

POLYRING = {"polyring.mul", "polyring.addsub", "polyring.eq", "polyring.swap_action",
            "polyring.divided_difference", "polyring.demazure"}


def _size(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 1


# Extra counts taken from a call's arguments and result: span name -> (count name, fn)
EXTRA = {
    "polyring.mul": ("term_pairs", lambda args, out: _size(args[0]) * _size(args[1])),
    "polyring.divided_difference": ("terms_out", lambda args, out: len(out)),
    "kkohnert.kkd_closure": ("diagrams", lambda args, out: len(out)),
    "qbell.enumerate_rook_n": ("placements", lambda args, out: len(out)),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [span id, name id, time of child spans]
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.extra: dict[str, int] = {}
        self.under_calls: dict[tuple[int, int], int] = {}
        self.under_s: dict[tuple[int, int], float] = {}
        self.caches = []

    def name_id(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return nid

    def wrap(self, fn, name: str | None):
        tracer = self
        fixed = None if name is None else self.name_id(name)
        extra = EXTRA.get(name)

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else tracer.name_id(f"verify.{args[0]}")
            stack = tracer.stack
            sid = len(tracer.span_name)
            parent = stack[-1] if stack else None
            tracer.span_name.append(nid)
            tracer.span_parent.append(parent[0] if parent else -1)
            tracer.span_end.append(0.0)
            frame = [sid, nid, 0.0]
            stack.append(frame)
            start = perf_counter()
            tracer.span_start.append(start)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                tracer.span_end[sid] = end
                tracer.calls[nid] += 1
                tracer.self_s[nid] += dur - frame[2]
                tracer.total_s[nid] += dur
                if parent:
                    parent[2] += dur
                    key = (parent[1], nid)
                    tracer.under_calls[key] = tracer.under_calls.get(key, 0) + 1
                    tracer.under_s[key] = tracer.under_s.get(key, 0.0) + dur
            if extra:
                key = f"{name}.{extra[0]}"
                tracer.extra[key] = tracer.extra.get(key, 0) + extra[1](args, out)
            elif fixed is None and args[0] != "all":
                tracer.extra["verify.checks"] = tracer.extra.get("verify.checks", 0) + len(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced function in every loaded snowpoly module. Meant
        for a process that exits after the traced pass: there is no undo."""
        modules = [m for k, m in sys.modules.items() if k == "snowpoly" or k.startswith("snowpoly.")]
        for mod_name, attr, name in FUNCTIONS:
            home = sys.modules.get(f"snowpoly.{mod_name}")
            original = getattr(home, attr, None)
            if original is None:
                continue
            if hasattr(original, "cache_info"):
                self.caches.append((name, attr, original))
            wrapper = self.wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        poly = sys.modules["snowpoly.polyring"].Polynomial
        for attr, name in METHODS:
            original = poly.__dict__.get(attr)
            if original is not None:
                setattr(poly, attr, self.wrap(original, name))

    # -- results -----------------------------------------------------------------

    def _get(self, name: str):
        nid = self.ids.get(name)
        return (0, 0.0) if nid is None else (self.calls[nid], self.self_s[nid])

    def _under(self, parent: str, children, table) -> float:
        pid = self.ids.get(parent)
        return sum(
            table.get((pid, self.ids[c]), 0) for c in children if c in self.ids and pid is not None
        )

    def metrics(self) -> dict[str, float]:
        """Per-layer figures named as in BENCHMARK.json (counts and seconds)."""
        out: dict[str, float] = {}
        for layer in ["polyring.divided_difference", "polyring.mul", "polyring.addsub",
                      "permutations.rajcode", "permutations.lis_from", "diagrams.rajcode",
                      "compositions.snowy_from_rajcode", "kkohnert.kkd_closure",
                      "kkohnert.successors", "qbell.gr_stat", "schubert.expand_top",
                      "schubert.expand_full"]:
            calls, self_s = self._get(layer)
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
        for layer in ["polyring.demazure", "polyring.swap_action"]:
            out[f"{layer}.calls"] = self._get(layer)[0]
        for layer in ["permutations.schensted", "permutations.turning_points",
                      "diagrams.rothe_diagram", "diagrams.key_diagram", "diagrams.dark",
                      "diagrams.rook_placements", "compositions.rajcode",
                      "compositions.snowy_representative", "compositions.dark_inverse",
                      "qbell.enumerate_rook_n", "qbell.nw_stat", "qbell.hilb_vn",
                      "kkohnert.witness"]:
            out[f"{layer}.self_s"] = self._get(layer)[1]
        for key in ["polyring.divided_difference.terms_out", "polyring.mul.term_pairs",
                    "kkohnert.kkd_closure.diagrams", "qbell.enumerate_rook_n.placements"]:
            out[key] = self.extra.get(key, 0)
        out["polyring.divided_difference.check_s"] = self._under(
            "polyring.divided_difference", POLYRING, self.under_s
        )
        out["schubert.recursion.self_s"] = self._get("schubert.recursion")[1]
        out["schubert.expand_top.steps"] = self._under(
            "schubert.expand_top", ["compositions.snowy_from_rajcode"], self.under_calls
        )
        out["schubert.expand_full.steps"] = self._under(
            "schubert.expand_full", ["schubert.pivot"], self.under_calls
        )
        stats = {"_grothendieck": "schubert.grothendieck", "_lascoux": "schubert.lascoux"}
        cached = 0
        for name, attr, cache in self.caches:
            info = cache.cache_info()
            if name == "schubert.recursion":
                cached += info.currsize
            if attr in stats:
                out[f"{stats[attr]}.steps"] = info.misses
                out[f"{stats[attr]}.hits"] = info.hits
        for attr, label in stats.items():
            out.setdefault(f"{label}.steps", 0)
            out.setdefault(f"{label}.hits", 0)
        out["schubert.cached_polys"] = cached
        for suite in SUITES:
            nid = self.ids.get(f"verify.{suite}")
            out[f"verify.{suite}.s"] = 0.0 if nid is None else self.total_s[nid]
        out["verify.checks"] = self.extra.get("verify.checks", 0)
        return out

    def dump(self, path: str, unit: str):
        """Append the spans as tab-separated lines to a gzip file: unit, span
        id, parent span id, name, start and end in seconds."""
        names = self.names
        with gzip.open(path, "at", compresslevel=1) as fh:
            for sid in range(len(self.span_name)):
                fh.write(
                    f"{unit}\t{sid}\t{self.span_parent[sid]}\t{names[self.span_name[sid]]}"
                    f"\t{self.span_start[sid]:.9f}\t{self.span_end[sid]:.9f}\n"
                )


def span_cost(calls: int = 2000, repeats: int = 9) -> float:
    """Seconds one traced call adds to an untraced one: the median over
    batches of a no-op called `calls` times with and without the wrapper,
    in alternating order, under an open span so that the wrapper also
    books the call to its parent. It leaves out the per-layer extras
    (term and placement counts) and any effect on caches."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer.wrap(noop, "calibration")

    def batches(traced_first: bool) -> dict[bool, float]:
        times = {}
        for fn in (wrapped, noop) if traced_first else (noop, wrapped):
            start = perf_counter()
            for _ in range(calls):
                fn()
            times[fn is wrapped] = perf_counter() - start
        return times

    outer = tracer.wrap(batches, "outer")
    diffs = []
    for i in range(repeats):
        times = outer(i % 2 == 0)
        diffs.append((times[True] - times[False]) / calls)
    return statistics.median(diffs)
