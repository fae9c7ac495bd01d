"""Run one `phicong` CLI call with timing wrappers around its layers.

Usage: python3 perfbench/tracer.py SPANS_FILE ARG...

ARG... are the arguments of `phicong`.  Before the call, every public
function of each phicong module, and LaurentSeries.__mul__,
LaurentSeries.inverse, Matrix.__mul__ and Cyc12.__mul__, is replaced by
a wrapper that records a span (name, start, end, parent).  The spans stay
in memory and are written to SPANS_FILE as JSON when the call ends, with
the counters that only a wrapper can see: Lagrangian points permuted,
syllables evaluated and the tracemalloc peak of group_order.  The exit
status is the CLI's own.  Nothing under src/ changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc

MODULES = ("rationals", "cyclotomic", "polynomials", "matrices", "series",
           "words", "divpoly", "qexp", "symplectic", "invariants", "cli")
METHODS = (("series", "LaurentSeries", "__mul__", "mul"),
           ("series", "LaurentSeries", "inverse", "inverse"),
           ("matrices", "Matrix", "__mul__", "mul"),
           ("cyclotomic", "Cyc12", "__mul__", "mul"))


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []                 # [name index, start ns, end ns, parent]
        self.stack = [-1]
        self.counters = {"symplectic.permutation.points": 0,
                         "words.syllables": 0,
                         "symplectic.group_order.alloc_peak_mb": 0.0}

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        count = self._counter(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = [nid, start, clock(), parent]
                stack.pop()
            if count:
                count(args, result)
            return result

        if name == "symplectic.group_order":
            return self._with_alloc_peak(wrapper)
        return wrapper

    def _counter(self, name):
        c = self.counters
        if name == "symplectic.permutation":
            def count(args, result):
                c["symplectic.permutation.points"] += len(result)
            return count
        if name == "words.eval_word":
            def count(args, result):
                c["words.syllables"] += len(args[0].syllables)
            return count
        return None

    def _with_alloc_peak(self, fn):
        key = "symplectic.group_order.alloc_peak_mb"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.counters[key] = max(self.counters[key], peak / 2 ** 20)
        return wrapper

    def install(self):
        mods = {m: importlib.import_module(f"phicong.{m}") for m in MODULES}
        replaced = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                wrappable = inspect.isfunction(obj) or hasattr(obj, "cache_info")
                if (wrappable and not attr.startswith("_")
                        and getattr(obj, "__module__", None) == mod.__name__):
                    replaced[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        # `from .x import f` copies f into other modules: rebind every copy
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
        for short, cls_name, meth, label in METHODS:
            cls = getattr(mods[short], cls_name)
            orig = cls.__dict__[meth]
            wrapper = self.wrap(f"{short}.{label}", orig)
            for alias, obj in list(cls.__dict__.items()):
                if obj is orig:        # __rmul__ = __mul__ is the same function
                    setattr(cls, alias, wrapper)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counters": self.counters}, fh, separators=(",", ":"))


def main(argv):
    spans_file, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["phicong.cli"]
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
