"""Outside-in span tracing of memlogic's public functions.

The tracer wraps functions from the benchmark's side: it replaces every
binding of a traced function in the ``memlogic`` package (the defining module
and each module that imported it by name, e.g. ``array`` binds
``device.apply_pulse``) and the traced ``CellArray`` methods on the class, and
restores the originals on ``uninstall``.  The program itself is not edited.

There are ~10^5 leaf spans per operation, so spans are not kept one by
one: each one is folded, when it ends, into an in-memory aggregate keyed by
(operation, parent span name, span name) holding calls, total time and self
time (span time minus the time of its child spans).  The key is what records
a span's operation and its parent.
"""

from __future__ import annotations

import sys
import time
from typing import Callable

ROOT = "op"
PACKAGE = "memlogic"


class Tracer:
    """Aggregated spans of the operations run between ``begin_op`` and
    ``end_op``; ``stats[op_id][(parent, name)] = [calls, total_s, self_s]``."""

    def __init__(self) -> None:
        self.stats: dict[int, dict[tuple[str, str], list[float]]] = {}
        # Result counters fed by ``on_result`` hooks: {op_id: {key: value}}.
        self.counters: dict[int, dict[str, float]] = {}
        self._stack: list[list] = []
        self._op_id = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- operations -------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        if self._stack:
            raise RuntimeError("an operation is already open")
        self._op_id = op_id
        self.stats[op_id] = {}
        self.counters[op_id] = {}
        # Frame layout: [name, child_time_s].
        self._stack.append([ROOT, 0.0])

    def end_op(self) -> None:
        if len(self._stack) != 1:
            raise RuntimeError(f"unbalanced spans: {len(self._stack) - 1} still open")
        self._stack.clear()

    def count(self, key: str, value: float = 1) -> None:
        counters = self.counters[self._op_id]
        counters[key] = counters.get(key, 0) + value

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             on_result: Callable[["Tracer", object], None] | None = None) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                ops = tracer.stats[tracer._op_id]
                key = (parent[0], name)
                agg = ops.get(key)
                if agg is None:
                    ops[key] = [1, elapsed, elapsed - frame[1]]
                else:
                    agg[0] += 1
                    agg[1] += elapsed
                    agg[2] += elapsed - frame[1]
            if on_result is not None:
                on_result(tracer, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install_function(self, name: str, fn: Callable,
                         on_result: Callable | None = None) -> None:
        """Replace every module-level binding of ``fn`` inside memlogic."""
        wrapper = self.wrap(name, fn, on_result)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE
                                      or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install_method(self, name: str, cls: type, attr: str,
                       on_result: Callable | None = None) -> None:
        original = cls.__dict__[attr]
        self._saved.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, on_result))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- summaries --------------------------------------------------------

    def totals(self, op_id: int) -> dict[str, list[float]]:
        """``{name: [calls, total_s, self_s]}`` summed over parents."""
        out: dict[str, list[float]] = {}
        for (_, name), (calls, total, self_s) in self.stats[op_id].items():
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        return out

    def calls_under(self, op_id: int, parent: str, name: str) -> int:
        agg = self.stats[op_id].get((parent, name))
        return int(agg[0]) if agg else 0

    def rows(self, op_id: int) -> list[dict]:
        return [{"op": op_id, "parent": parent, "name": name, "calls": int(calls),
                 "total_s": total, "self_s": self_s}
                for (parent, name), (calls, total, self_s)
                in sorted(self.stats[op_id].items())]
