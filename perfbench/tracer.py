"""Call tracing from outside the package: spans, counts and self times.

`Tracer.install` replaces each traced function with a wrapper in every
minkbranch module namespace that binds it (`oracle` and `families` import
`lt` by name, for instance) and each traced method on its defining class;
`uninstall` puts the originals back.  Nothing under src/ is edited.

Each wrapped call is a span (name, start, end, parent, operation id).  Self
time is a span's duration minus the time covered by its child spans, and is
summed per traced name for every call.  The span log keeps the outer
`MAX_SPAN_DEPTH` levels of each of the first `LOGGED_OPS` operations, up
to `SPANS_PER_OP` spans each; their other calls, which run by the million
in the oracle's enumeration, are folded into one (calls, total) record per
nearest logged ancestor and name.  Later operations log only their root
span.  Memory and the written log stay small; the counts and self times
cover every call.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from functools import wraps

#: Span-log depth: operation, entry point, and the layer calls it makes.
MAX_SPAN_DEPTH = 3
#: Logged spans per operation, beyond which calls are folded.
SPANS_PER_OP = 2000
#: Operations whose calls are logged; later ones log only their root span.
LOGGED_OPS = 20

_INHERITED = object()


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[int]] = {}   # name -> [calls, self_ns, inclusive_ns]
        self.yielded: dict[str, int] = {}        # name -> items yielded by members()
        self.spans: list[tuple] = []             # (op, id, parent, name, start_ns, end_ns)
        self.folded: dict[tuple, list[int]] = {}  # (op, ancestor id, name) -> [calls, ns]
        self._stack: list[list] = []  # open frames: [child_ns, start_ns, span id, logged ancestor]
        self._restore: list[tuple] = []
        self._op = 0
        self._op_spans = 0
        self._next_id = 0

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if len(stack) < MAX_SPAN_DEPTH and self._op_spans < SPANS_PER_OP:
                self._op_spans += 1
                span_id = self._next_id
                self._next_id += 1
                frame = [0, clock(), span_id, span_id]
            else:
                frame = [0, clock(), -1, parent[3] if parent else -1]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                stats[0] += 1
                stats[1] += duration - frame[0]
                stats[2] += duration
                if parent is not None:
                    parent[0] += duration
                self._record(name, frame, parent, end, duration)

        return traced

    def _record(self, name, frame, parent, end, duration):
        if frame[2] >= 0:
            self.spans.append((self._op, frame[2], parent[2] if parent else -1,
                               name, frame[1], end))
            return
        if self._op > LOGGED_OPS:
            return
        key = (self._op, frame[3], name)
        entry = self.folded.get(key)
        if entry is None:
            self.folded[key] = [1, duration]
        else:
            entry[0] += 1
            entry[1] += duration

    def _counted(self, name: str, fn):
        self.yielded.setdefault(name, 0)

        @wraps(fn)
        def counting(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.yielded[name] += 1
                yield item

        return counting

    # -- installation ------------------------------------------------------

    def install(self, functions, methods, generators=()):
        """Wrap module functions and class methods.

        `functions`: (module, attribute, traced name) triples; every
        minkbranch module binding the same object is patched.
        `methods` and `generators`: (class, attribute, traced name) triples;
        generator methods are counted per item, not timed.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "minkbranch" or n.startswith("minkbranch."))]
        for module, attr, name in functions:
            original = getattr(module, attr)
            wrapper = self._timed(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for wrap, triples in ((self._timed, methods), (self._counted, generators)):
            for cls, attr, name in triples:
                # An inherited method is shadowed on `cls`, and the shadow removed later.
                self._restore.append((cls, attr, cls.__dict__.get(attr, _INHERITED)))
                setattr(cls, attr, wrap(name, getattr(cls, attr)))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            if original is _INHERITED:
                delattr(owner, key)
            else:
                setattr(owner, key, original)
        self._restore.clear()

    @contextmanager
    def operation(self, label: str):
        """One operation: the root span that all its calls nest under."""
        self._op += 1
        self._op_spans = 0 if self._op <= LOGGED_OPS else SPANS_PER_OP
        frame = [0, time.perf_counter_ns(), self._next_id, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans.append((self._op, frame[2], -1, "op:" + label,
                               frame[1], time.perf_counter_ns()))

    # -- results -----------------------------------------------------------

    @property
    def operations(self) -> int:
        return self._op

    def calls(self, *names: str) -> int:
        return sum(self.stats.get(n, (0, 0, 0))[0] for n in names)

    def self_ns(self, *names: str) -> int:
        return sum(self.stats.get(n, (0, 0, 0))[1] for n in names)

    def inclusive_ns(self, *names: str) -> int:
        return sum(self.stats.get(n, (0, 0, 0))[2] for n in names)

    def write(self, path) -> None:
        """Write the span log as JSON lines: spans first, then folded calls."""
        with open(path, "w", encoding="utf-8") as handle:
            for op, span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({"op": op, "id": span_id, "parent": parent,
                                         "name": name, "start_ns": start, "end_ns": end}) + "\n")
            for (op, parent, name), (calls, total) in sorted(self.folded.items()):
                handle.write(json.dumps({"op": op, "parent": parent, "name": name,
                                         "calls": calls, "total_ns": total}) + "\n")
