"""Run one catborel command in this process with timing spans around the
layer functions the benchmark reports.

Usage (from the repository root):

    PYTHONPATH=src python3 perfbench/trace_runner.py enumerate-basic --n 4

The command's stdout and exit code are those of ``catborel``.  Spans are
kept in memory and written out once, after the command returns, as a single
``catborel-trace <json>`` line on stderr: parallel lists of span name id,
parent span index, start and end (``time.perf_counter``, which is the
system-wide monotonic clock on Linux, so the parent process can line the
spans up with its own spawn and reap times), plus call counts, item counts
and the ``lru_cache`` statistics of the cached functions.

The modules import each other's functions by name (``from .dyck import
all_paths``), so every wrapper replaces the name in every catborel module
that holds the original, not only in the defining module.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from collections import Counter
from time import perf_counter

import catborel
from catborel import cli, dyck, ideals, loopalgebra, matrices, rootsys, supports, verify

MARK = "catborel-trace "

# (span name, owner, attribute).  Each call becomes a span.
SPANS = [
    ("dyck.all_paths", dyck, "all_paths"),
    ("dyck.cell_paths", dyck, "cell_paths"),
    ("dyck.cell_min", dyck, "cell_min"),
    ("ideals.enumerate_basic", ideals, "enumerate_basic"),
    ("ideals.ideal_record", ideals, "ideal_record"),
    ("ideals.phi", ideals, "phi"),
    ("ideals.generators_direct", ideals, "generators_direct"),
    ("ideals.generators_formula", ideals, "generators_formula"),
    ("ideals.is_quasi_abelian", ideals, "is_quasi_abelian"),
    ("ideals.nd_plus", ideals, "nd_plus"),
    ("ideals.qnd_direct", ideals, "qnd_direct"),
    ("ideals.quasi_abelian_count", ideals, "quasi_abelian_count"),
    ("ideals.b_count_formula", ideals, "b_count_formula"),
    ("ideals.verify_basic_in_truncation", ideals, "verify_basic_in_truncation"),
    ("matrices.catalan_matrix", matrices, "catalan_matrix"),
    ("matrices.tau", matrices, "tau"),
    ("matrices.omega", matrices, "omega"),
    ("matrices.dot", matrices, "dot"),
    ("supports.enumerate_classes", supports, "enumerate_classes"),
    ("supports.classify", supports, "classify"),
    ("supports.verify_witness", supports, "verify_witness"),
    ("loopalgebra.stable_under", loopalgebra, "stable_under"),
    ("rootsys.build_root_system", rootsys, "build_root_system"),
    ("rootsys.window", rootsys, "window"),
    ("rootsys.orders_coincide", rootsys, "orders_coincide"),
    ("rootsys.highest_root_split_search", rootsys, "highest_root_split_search"),
    ("rootsys.antichains", rootsys.WindowPoset, "antichains"),
    ("verify.suite_matrices", verify, "suite_matrices"),
    ("verify.suite_dyck", verify, "suite_dyck"),
    ("verify.suite_rootsys", verify, "suite_rootsys"),
    ("verify.suite_ideals", verify, "suite_ideals"),
    ("verify.suite_supports", verify, "suite_supports"),
    ("cli.json_dump", cli, "_json_dump"),
]

# Hot calls that are only counted: a span each would cost more than the call.
COUNTED = [
    ("dyck.min_partner", dyck, "min_partner"),
    ("loopalgebra.bracket", loopalgebra.TruncatedLoopAlgebra, "bracket"),
    ("verify.run_suites", verify, "run_suites"),
]

# Cached functions whose hit ratio is read from the original's cache_info().
CACHED = ("dyck.all_paths", "dyck.cell_paths")


class Tracer:
    """Spans in flat arrays; parent -1 marks a top-level span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.open = [-1]
        self.calls: Counter[str] = Counter()
        self.items: Counter[str] = Counter()

    def spanned(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, open_ = (
            self.name_id, self.parent, self.start, self.end, self.open,
        )

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                open_.pop()

        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, cache: dict) -> str:
        return json.dumps(
            {
                "names": self.names,
                "name": self.name_id.tolist(),
                "parent": self.parent.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "calls": self.calls,
                "items": self.items,
                "cache": cache,
            }
        )


def _modules():
    root = catborel.__name__
    return [m for name, m in sys.modules.items() if name.partition(".")[0] == root]


def _replace(owner, attr: str, wrapper) -> None:
    original = getattr(owner, attr)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for module in _modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def _after(fn, hook):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(args, result)
        return result

    return wrapper


def _item_hooks(items: Counter) -> dict:
    """Per-function wrappers that count the items a call produced."""

    def paths_built(fn):
        # a cached call builds nothing on a hit, so only misses add items
        def wrapper(*args, **kwargs):
            misses = fn.cache_info().misses
            result = fn(*args, **kwargs)
            if fn.cache_info().misses > misses:
                items["dyck.all_paths"] += len(result)
            return result

        return wrapper

    def admitted(args, result):
        n = args[0]
        items["ideals.enumerate_basic"] += len(result)
        items["ideals.enumerate_basic.pairs"] += (math.comb(2 * n, n) // (n + 1)) ** 2

    def sized(name):
        def hook(args, result):
            items[name] += len(result)

        return lambda fn: _after(fn, hook)

    return {
        "dyck.all_paths": paths_built,
        "ideals.enumerate_basic": lambda fn: _after(fn, admitted),
        "supports.enumerate_classes": sized("supports.enumerate_classes"),
        "verify.run_suites": sized("verify.run_suites"),
    }


def install(tracer: Tracer) -> dict:
    """Wrap every listed function; return the originals of the cached ones."""
    hooks = _item_hooks(tracer.items)
    originals = {}
    for name, owner, attr in SPANS + COUNTED:
        fn = getattr(owner, attr)
        if name in CACHED:
            originals[name] = fn
        inner = hooks[name](fn) if name in hooks else fn
        wrap = tracer.spanned if (name, owner, attr) in SPANS else tracer.counted
        _replace(owner, attr, wrap(name, inner))
    return originals


def main(argv: list[str]) -> int:
    tracer = Tracer()
    originals = install(tracer)
    run_main = tracer.spanned("cli.main", cli.main)
    try:
        code = run_main(argv)
    finally:
        sys.stdout.flush()
        cache = {name: list(fn.cache_info()[:2]) for name, fn in originals.items()}
        sys.stderr.write(MARK + tracer.dump(cache) + "\n")
        sys.stderr.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
