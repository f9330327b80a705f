"""Spans recorded from outside the program, around calls into each layer.

The recorder never edits the simulator: it replaces a layer's public
function or method with a wrapper that records a span (name, start, end,
parent span, op id) and calls the original, and restores the original
when the patch is undone.  Spans are kept in flat arrays in memory and
written out once, when the benchmark ends.

A span's *self time* is its duration minus the durations of its direct
children.  The program is single-threaded within a process, so children
nest inside their parent and never overlap one another.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array


class SpanRecorder:
    """In-memory span store with a call stack for parent links.

    ``op_name`` names the span that starts a new op (one ``simulate()``
    call, one sweep cell, ...); every span records the id of the op it
    belongs to.
    """

    def __init__(self, op_name: str | None = None):
        self.op_name = op_name
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self._stack: list[int] = []
        self._op = -1

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` recording one ``name`` span per call.

        ``on_result`` (optional) receives each call's return value.
        """
        nid = self.name_id(name)
        starts, ends, parents, ops, names = (
            self.start, self.end, self.parent, self.op, self.name,
        )
        stack = self._stack
        clock = time.perf_counter
        starts_op = name == self.op_name
        recorder = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(starts)
            if starts_op:
                recorder._op += 1
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(recorder._op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return spanned

    # -- analysis --------------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        """Durations of every ``name`` span, in call order."""
        nid = self._ids.get(name)
        if nid is None:
            return []
        s, e = self.start, self.end
        return [e[i] - s[i] for i, n in enumerate(self.name) if n == nid]

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, float] = {}
        for i, nid in enumerate(self.name):
            key = self.names[nid]
            out[key] = out.get(key, 0.0) + dur[i] - child[i]
        return out

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed duration and call count per span name."""
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, nid in enumerate(self.name):
            key = self.names[nid]
            total[key] = total.get(key, 0.0) + self.end[i] - self.start[i]
            calls[key] = calls.get(key, 0) + 1
        return total, calls

    def write(self, path, header: dict) -> None:
        """Write a gzip JSON-lines file: a header, then one span per line."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({**header, "span_fields": [
                "name", "start_s", "end_s", "parent", "op"]}) + "\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f'["{names[self.name[i]]}",{self.start[i] - t0:.9f},'
                    f"{self.end[i] - t0:.9f},{self.parent[i]},{self.op[i]}]\n"
                )


class Patches:
    """Attribute replacements undone in reverse order on exit."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(self, rec: SpanRecorder, cls, attr: str, name: str, on_result=None):
        self.set(cls, attr, rec.wrap(cls.__dict__[attr], name, on_result))

    def wrap_function(self, rec: SpanRecorder, module, attr: str, name: str, on_result=None):
        """Wrap ``module.attr`` and every module-level alias of it.

        Modules that did ``from module import attr`` hold their own
        reference; each one that is loaded gets the same wrapper.
        """
        original = getattr(module, attr)
        wrapper = rec.wrap(original, name, on_result)
        for mod in list(sys.modules.values()):
            md = getattr(mod, "__dict__", None)
            if md is None:
                continue
            for key, value in list(md.items()):
                if value is original:
                    self.set(mod, key, wrapper)
        return wrapper

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.undo()
        return False
