"""Span recorder for the traced benchmark mode.

Spans are recorded only from this file: :meth:`Tracer.patch` rebinds a public
function in the module where its callers look it up, and the replacement
opens a span around every call.  Functions called once per integration step
are patched with ``hot=True``; their calls are folded into one tally per
(name, parent span) so that a 160 000-step run keeps a few records, not
160 000.  Everything stays in memory until :meth:`Tracer.dump`.

A layer's self time is its span time minus the time covered by its child
spans and tallies.  Only the standard library is imported, so a tracer can
be installed before the program under test is imported.
"""

from __future__ import annotations

import builtins
import inspect
import json
import sys
import time
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []         # [name, start, end, parent index]
        self.tallies: dict[tuple[str, int], list] = {}   # -> [calls, seconds]
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self._stack.pop()

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def wrap(self, fn, name: str, hot: bool = False, note=None):
        """Return ``fn`` timed under ``name``.  For a span (not ``hot``),
        ``note(bound_args, result)`` runs after each call to record counts."""
        signature = inspect.signature(fn) if note else None

        if hot:
            def traced(*args, **kwargs):
                parent = self._stack[-1] if self._stack else -1
                t0 = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    cell = self.tallies.setdefault((name, parent), [0, 0.0])
                    cell[0] += 1
                    cell[1] += _clock() - t0
        else:
            def traced(*args, **kwargs):
                index = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(index)
                if note is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    note(bound.arguments, result)
                return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, module, attr: str, name: str, hot: bool = False, note=None) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, hot=hot, note=note))

    def restore(self) -> None:
        """Undo every :meth:`patch` and the import hook, newest first."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def watch_imports(self, packages: dict[str, str]) -> None:
        """Open a span around each first import of a watched top-level
        package, e.g. ``{"scipy": "import.scipy"}``.  A package's own nested
        imports fall inside its span; another watched package imported from
        within it gets a child span."""
        real_import = builtins.__import__

        def hooked(name, globals=None, locals=None, fromlist=(), level=0):
            span = packages.get(name.partition(".")[0]) if level == 0 else None
            busy = bool(self._stack) and self.spans[self._stack[-1]][0] == span
            if span is None or busy or name in sys.modules:
                return real_import(name, globals, locals, fromlist, level)
            index = self._open(span)
            try:
                return real_import(name, globals, locals, fromlist, level)
            finally:
                self._close(index)

        builtins.__import__ = hooked
        self._patches.append((builtins, "__import__", real_import))

    # -- reading -----------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Total time per span name, plus tallied time per hot name."""
        out: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        for (name, _), (_, seconds) in self.tallies.items():
            out[name] = out.get(name, 0.0) + seconds
        return out

    def self_times(self) -> dict[str, float]:
        """Span time not covered by child spans or tallies, per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (_, parent), (_, seconds) in self.tallies.items():
            if parent >= 0:
                covered[parent] += seconds
        out: dict[str, float] = {}
        for (name, start, end, _), cover in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + (end - start) - cover
        return out

    def dump(self, path: Path) -> None:
        """Write every span, tally and count as one JSON document."""
        doc = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans
            ],
            "tallies": [
                {"name": n, "parent": p, "calls": c, "seconds": s}
                for (n, p), (c, s) in self.tallies.items()
            ],
            "counts": self.counts,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))
