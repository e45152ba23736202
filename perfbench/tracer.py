"""Per-layer tracing of one surfgraph command, from outside the library.

Run as a script, this installs wrappers around the public functions of
each surfgraph module (the layers), runs `surfgraph.cli.main` on the
given arguments in this process, and prints one JSON object: the exit
code, the command's own stdout, and per-span-name self times, call
counts and work counts.

    PYTHONPATH=src python3 perfbench/tracer.py [--budget S] -- verify --kmax 3 - < map.json

Spans are opened at layer boundaries only.  A wrapped call made while
the innermost open span belongs to the same module is charged to that
span, so `count_class` charges its `enumerate_class` and predicate work
to `orientations.count_class.<cls>`.  Work counts are bumped on every
call, nested or not.  Work reached only through private attributes,
such as `RibbonGraph._canonical_code` in the generator or the
`_class_count_cache` lookups of the pair counters, is charged to the
calling span; `CHARGED_TO_CALLER` lists it and the output repeats it.

Wrappers replace every reference other modules bound at import (for
example `enumeration.count_class`, `cli._POLY`, `orientations._PREDICATES`),
so calls through those references are traced too.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import math
import signal
import sys
import time
from array import array
from collections import Counter

LAYERS = ("ribbonmap", "generator", "orientations", "enumeration", "polynomials", "guards", "cli")

CHARGED_TO_CALLER = [
    "ribbonmap.RibbonGraph cached properties other than dual (faces, euler, "
    "_canonical_code, _fundamental_cycles, ...): charged to the span that first reads them",
    "generator: RibbonGraph._canonical_code of every labeling, charged to generator.generate",
    "enumeration: _class_count_cache lookups, charged to enumeration.pairs.<kind>",
    "enumeration: _support_counts and _signed_pattern_counts scans, charged to the "
    "pair counter that calls them",
]

_KIND = {
    "tensions": "tension",
    "flows": "flow",
    "local_tensions": "local-tension",
    "balanced_flows": "balanced-flow",
    "tension": "tension",
    "flow": "flow",
    "local_tension": "local-tension",
    "balanced_flow": "balanced-flow",
}

_SURGERIES = {"delete", "contract", "double_slash", "abstract_contract"}


class BudgetExceeded(Exception):
    """Raised by the wall-clock alarm when a traced call runs over budget."""


class Tracer:
    """Nested spans kept in memory as parallel arrays, plus counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.layer_stack: list[str] = []
        self.work: Counter[str] = Counter()
        self.pairs_depth = 0

    def top_layer(self) -> str | None:
        return self.layer_stack[-1] if self.layer_stack else None

    def enter(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.layer_stack.append(layer)
        self.start.append(time.perf_counter())
        return idx

    def leave(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()
        self.layer_stack.pop()

    def summary(self) -> dict:
        """Self time, inclusive time and span count per name.

        A span's self time is its duration minus the durations of its
        direct children, which nest inside it.
        """
        # A span the budget alarm interrupted ends now; the alarm may also
        # have cut the last enter() short, leaving the arrays uneven.
        now = time.perf_counter()
        n = min(len(self.start), len(self.end), len(self.parent), len(self.name_id))
        dur = [(self.end[i] or now) - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        spans: dict[str, dict] = {}
        verify_durations = []
        for i in range(n):
            name = self.names[self.name_id[i]]
            s = spans.setdefault(name, {"self_s": 0.0, "incl_s": 0.0, "calls": 0})
            s["self_s"] += dur[i] - covered[i]
            s["incl_s"] += dur[i]
            s["calls"] += 1
            if name == "cli.verify":
                verify_durations.append(dur[i])
        return {
            "spans": spans,
            "span_count": n,
            "work": dict(self.work),
            "verify_durations_s": verify_durations,
        }


def _span_name(layer: str, fname: str):
    """Span name for a call of layer.fname; a callable when it depends on arguments."""
    if layer == "ribbonmap":
        if fname in _SURGERIES:
            return "ribbonmap.surgery"
        if fname in ("build", "from_json_dict", "loads", "__post_init__"):
            return "ribbonmap.build"
    if layer == "orientations" and fname == "count_class":
        return lambda args, kw: "orientations.count_class." + (args[1] if len(args) > 1 else kw["cls"]).value
    if layer == "enumeration":
        if fname.startswith("count_integral_"):
            return "enumeration.count.integral-" + _KIND[fname[len("count_integral_"):]]
        for prefix in ("count_nz_", "count_"):
            if fname.startswith(prefix) and fname[len(prefix):] in _KIND:
                return "enumeration.count." + _KIND[fname[len(prefix):]]
        if fname.startswith("poly_"):
            return "enumeration.poly." + _KIND[fname[len("poly_"):]]
        if fname.startswith("reciprocity_pairs_"):
            return "enumeration.pairs." + _KIND[fname[len("reciprocity_pairs_"):]]
        if fname.startswith("quasi_"):
            return "enumeration.quasi"
        if fname == "integral_local_tension_reciprocity_pairs":
            return "enumeration.integral_pairs"
    if layer == "cli" and fname == "_verify_graph":
        return "cli.verify"
    return f"{layer}.{fname}"


def _num_edges(args, kw) -> int:
    g = args[0] if args else kw["g"]
    return g.num_edges


def _k(args, kw) -> int:
    return args[1] if len(args) > 1 else kw["k"]


def _work_counter(layer: str, fname: str):
    """Computed work of one call, derived from its input sizes, or None."""
    if layer == "enumeration":
        if fname.startswith("count_integral_"):
            return "enumeration.assignment_rows", lambda a, kw: max(2 * _k(a, kw) - 2, 0) ** _num_edges(a, kw)
        if fname.startswith("count_nz_"):
            return "enumeration.assignment_rows", lambda a, kw: (_k(a, kw) - 1) ** _num_edges(a, kw)
        if fname.startswith("count_"):
            return "enumeration.assignment_rows", lambda a, kw: _k(a, kw) ** _num_edges(a, kw)
        if fname.startswith("reciprocity_pairs_"):
            return "enumeration.assignment_rows", lambda a, kw: _k(a, kw) ** _num_edges(a, kw)
        if fname == "integral_local_tension_reciprocity_pairs":
            return "enumeration.assignment_rows", lambda a, kw: (2 * _k(a, kw) + 1) ** _num_edges(a, kw)
    if layer == "orientations" and fname == "enumerate_class":
        return "orientations.orientations_scanned", lambda a, kw: 2 ** _num_edges(a, kw)
    if layer == "generator" and fname == "generate":
        spec = lambda a, kw: a[0] if a else kw["spec"]  # noqa: E731
        return "generator.labelings", lambda a, kw: math.factorial(2 * spec(a, kw).edges)
    return None


def _wrap(tr: Tracer, fn, layer: str, fname: str, always_span: bool = False):
    name = _span_name(layer, fname)
    counter = _work_counter(layer, fname)
    is_pairs = isinstance(name, str) and name.startswith("enumeration.pairs.")
    is_surgery = name == "ribbonmap.surgery"
    is_class_count = layer == "orientations" and fname == "count_class"
    is_guard = layer == "guards"
    from surfgraph.errors import TooLarge

    def before(args, kw):
        if counter is not None:
            tr.work[counter[0]] += counter[1](args, kw)
        if tr.pairs_depth and tr.top_layer() != layer:
            if is_surgery:
                tr.work["enumeration.pairs.surgeries"] += 1
            elif is_class_count:
                tr.work["enumeration.pairs.class_counts"] += 1

    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_wrapper(*args, **kw):
            before(args, kw)
            it = fn(*args, **kw)
            span = name(args, kw) if callable(name) else name
            while True:
                idx = None if tr.top_layer() == layer else tr.enter(span, layer)
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    if idx is not None:
                        tr.leave(idx)
                if layer == "generator":
                    tr.work["generator.maps_yielded"] += 1
                yield value

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kw):
        before(args, kw)
        if not always_span and tr.top_layer() == layer:
            return fn(*args, **kw)
        idx = tr.enter(name(args, kw) if callable(name) else name, layer)
        if is_pairs:
            tr.pairs_depth += 1
        try:
            return fn(*args, **kw)
        except TooLarge:
            if is_guard:
                tr.work["guards.refusals"] += 1
            raise
        finally:
            if is_pairs:
                tr.pairs_depth -= 1
            tr.leave(idx)

    return wrapper


def install(tr: Tracer) -> None:
    """Wrap every layer's public functions and rebind every reference to them."""
    import importlib
    from functools import cached_property

    import surfgraph

    modules = {layer: importlib.import_module(f"surfgraph.{layer}") for layer in LAYERS}
    replaced: dict[int, object] = {}
    for layer, mod in modules.items():
        for fname, obj in list(vars(mod).items()):
            public = not fname.startswith("_") or (layer, fname) == ("cli", "_verify_graph")
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and public:
                replaced[id(obj)] = _wrap(tr, obj, layer, fname, always_span=fname == "_verify_graph")

    for mod in [surfgraph, *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])
            elif isinstance(obj, dict):
                for key, val in obj.items():
                    if id(val) in replaced:
                        obj[key] = replaced[id(val)]

    RG = modules["ribbonmap"].RibbonGraph
    RG.__post_init__ = _wrap(tr, RG.__post_init__, "ribbonmap", "__post_init__")
    prop = cached_property(_wrap(tr, RG.__dict__["dual"].func, "ribbonmap", "dual"))
    prop.__set_name__(RG, "dual")
    RG.dual = prop


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def main(argv: list[str]) -> int:
    budget = None
    if argv[:1] == ["--budget"]:
        budget = float(argv[1])
        argv = argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    tr = Tracer()
    install(tr)
    from surfgraph import cli

    out = io.StringIO()
    killed = False
    rc = None
    if budget is not None:
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    except BudgetExceeded:
        killed = True
    finally:
        if budget is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
    record = {"rc": rc, "killed": killed, "stdout": out.getvalue(), **tr.summary()}
    json.dump(record, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
