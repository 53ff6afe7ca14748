"""Spans recorded from outside the program, around calls into its modules.

While a :class:`Tracer` is installed, every ``softjpeg`` module or class
attribute bound to a traced function points at a timing wrapper instead,
so the program's own calls between its modules are timed as well.  A step
that only a private helper performs stays in its caller's span.  Spans are
kept in memory and written out when the run ends.
"""

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _namespaces():
    """Every softjpeg module and every class defined in one."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "softjpeg" or n.startswith("softjpeg.")]
    classes = [v for m in modules for v in vars(m).values()
               if inspect.isclass(v) and v.__module__.startswith("softjpeg")]
    return modules + classes


class Tracer:
    """Spans as dicts: name, start, end, parent (span index), op id, plus
    any counts the traced function's ``describe`` hook adds."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._by_op = defaultdict(list)
        self.op_id = None

    def _wrap(self, fn, name, describe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = {"name": name, "start": time.perf_counter(), "end": None,
                      "parent": self._stack[-1] if self._stack else None, "op": self.op_id}
            self._stack.append(len(self.spans))
            self._by_op[self.op_id].append(record)
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self._stack.pop()
            if describe is not None:
                record.update(describe(args, result))
            return result

        return traced

    @contextmanager
    def installed(self, op_id, targets):
        """Trace ``targets`` ({function: (span name, describe hook or None)})
        during one op."""
        patched = []
        namespaces = _namespaces()
        for fn, (name, describe) in targets.items():
            wrapper = self._wrap(fn, name, describe)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, attr, wrapper)
                        patched.append((ns, attr, fn))
        self.op_id = op_id
        try:
            yield
        finally:
            self.op_id = None
            for ns, attr, fn in reversed(patched):
                setattr(ns, attr, fn)

    def _outermost(self, op_id, names, within):
        names = set(names)
        for s in self._by_op[op_id]:
            if s["name"] not in names:
                continue
            ancestors = []
            parent = s["parent"]
            while parent is not None:
                ancestors.append(self.spans[parent]["name"])
                parent = self.spans[parent]["parent"]
            if names.isdisjoint(ancestors) and (within is None or within in ancestors):
                yield s

    def layer_seconds(self, op_id, names, within=None):
        """Time op ``op_id`` spent in spans called ``names`` (nested ones
        counted once), optionally only those inside a span called ``within``."""
        return sum(s["end"] - s["start"] for s in self._outermost(op_id, names, within))

    def counts(self, op_id, name, key):
        """Sum of count ``key`` over the spans of ``op_id`` called ``name``."""
        return sum(s[key] for s in self._by_op[op_id] if s["name"] == name)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
