"""In-memory span tracer for the traced benchmark run.

The tracer wraps every public function of the package at the name each
calling module looks it up by: `wastefactor.sweeps.evaluate_link`,
`wastefactor.transceiver.bookkeeping_oracle`, `wastefactor.netsim.p_los` and
so on.  A call that crosses a module boundary, or re-enters a public function
of its own module, therefore becomes a span.  Private helpers (`_refine`,
`_simulate_cell`, `_neighbor_lists`, `_cell_rng`, ...) are never wrapped, so
their time is self time of the public function that calls them.

Functions are wrapped only while an operation runs.  Spans are kept in
memory and written out when the run ends.  A span is (name, start, end, parent, op);
the file holds one gzip-compressed JSON line per span, with start and end in
integer nanoseconds.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

LAYERS = ("cascade", "linkbudget", "transceiver", "sweeps", "netsim", "scenario_io", "cli")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int, int] | None] = []
        self._stack = [-1]
        self._op = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def op(self, op_id: int, name: str):
        """Root span of one operation; wrapped functions are only called inside it."""
        nid = self._name_id(name)
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self._op = op_id
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self._op = -1
            self.spans[index] = (nid, start, end, -1, op_id)

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (nid, start, end, parent, self._op)

        return traced

    @contextmanager
    def patched(self):
        """Wrap every public package function in every module's namespace.

        Generator functions (the CSV row emitters) are left alone: a wrapper
        would time only the creation of the generator.
        """
        saved = []
        for layer in LAYERS:
            module = importlib.import_module(f"wastefactor.{layer}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = getattr(value, "__module__", "") or ""
                if not home.startswith("wastefactor.") or inspect.isgeneratorfunction(value):
                    continue
                saved.append((module, attr, value))
                setattr(module, attr, self.wrap(f"{home.rsplit('.', 1)[1]}.{value.__name__}", value))
        try:
            yield
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    def summary(self, cost: "SpanCost") -> "TraceSummary":
        return TraceSummary(self.names, self.spans, cost)

    def write(self, path: Path, meta: dict) -> None:
        fields = ["name", "start_ns", "end_ns", "parent", "op"]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write(json.dumps({"meta": meta, "names": self.names, "fields": fields}) + "\n")
            for nid, start, end, parent, op in self.spans:
                handle.write(f"[{nid},{round(start * 1e9)},{round(end * 1e9)},{parent},{op}]\n")


@dataclass(frozen=True)
class SpanCost:
    """Seconds one wrapped call adds to a traced operation: `inside` lies
    within the call's own span, `outside` within its caller's span (the
    wrapper's bookkeeping before `start` and after `end`)."""

    inside: float
    outside: float

    def scaled(self, total: float) -> "SpanCost":
        """The same split of a per-span cost of `total` seconds."""
        share = self.inside / (self.inside + self.outside)
        return SpanCost(inside=total * share, outside=total * (1.0 - share))


def span_cost(calls: int = 20000, batches: int = 5) -> SpanCost:
    """The tracer's cost per span, measured on a no-op with two arguments.

    Medians over `batches` of: an empty loop, a loop of direct calls, and a
    loop of wrapped calls inside an operation, each `calls` long.  The inside
    part is a no-op span's mean duration less a direct call's cost.
    """

    def noop(a, b):
        return None

    loops = {"empty": [], "direct": [], "traced": [], "span": []}
    for _ in range(batches):
        tracer = Tracer()
        traced = tracer.wrap("noop", noop)
        start = perf_counter()
        for _ in range(calls):
            pass
        loops["empty"].append((perf_counter() - start) / calls)
        start = perf_counter()
        for _ in range(calls):
            noop(1, 2)
        loops["direct"].append((perf_counter() - start) / calls)
        with tracer.op(0, "noop-root"):
            start = perf_counter()
            for _ in range(calls):
                traced(1, 2)
            loops["traced"].append((perf_counter() - start) / calls)
        loops["span"].append(sum(end - begin for _, begin, end, parent, _ in tracer.spans if parent >= 0) / calls)
    empty, direct, traced_s, span_s = (statistics.median(v) for v in loops.values())
    inside = max(span_s - (direct - empty), 0.0)
    return SpanCost(inside=inside, outside=max(traced_s - direct - inside, 0.0))


class TraceSummary:
    """Self time and call counts derived from one tracer's spans.

    The tracer's own cost is taken out: each span's self time loses
    `cost.inside`, and `cost.outside` for every child span, and the
    operations' total loses both for every non-root span.  What remains is
    close to the split of the untraced operation's time.
    """

    def __init__(self, names: list[str], spans: list, cost: SpanCost) -> None:
        if None in spans:
            raise ValueError("summary of a tracer with spans still open")
        self.names = names
        self.spans = spans
        child_s = [0.0] * len(spans)
        children = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
                children[parent] += 1
        self.self_s = dict.fromkeys(names, 0.0)
        self.calls = dict.fromkeys(names, 0)
        self.ops_s = 0.0
        for i, (nid, start, end, parent, _) in enumerate(spans):
            own = end - start - child_s[i] - children[i] * cost.outside
            if parent < 0:
                self.ops_s += end - start
            else:
                own -= cost.inside
                self.ops_s -= cost.inside + cost.outside
            self.self_s[names[nid]] += own
            self.calls[names[nid]] += 1

    def layer_self_share(self, layer: str) -> float:
        """Self time of the layer's spans over the time of all operations."""
        prefix = layer + "."
        return sum(t for name, t in self.self_s.items() if name.startswith(prefix)) / self.ops_s

    def self_share(self, name: str) -> float:
        return self.self_s.get(name, 0.0) / self.ops_s

    def lead_s(self, name: str, child: str) -> float:
        """Time from the start of each `name` span to the start of its first
        `child` span, summed over the `name` spans that have one."""
        names, spans = self.names, self.spans
        first: dict[int, float] = {}
        for nid, start, _, parent, _ in spans:
            if parent >= 0 and names[nid] == child:
                first.setdefault(parent, start)
        return sum(first[i] - span[1] for i, span in enumerate(spans) if i in first and names[span[0]] == name)

    def count(self, name: str, under: tuple[str, ...] = ()) -> int:
        """Spans called `name`; with `under`, only those with an ancestor so named."""
        if not under:
            return self.calls.get(name, 0)
        names, spans = self.names, self.spans
        total = 0
        for nid, _, _, parent, _ in spans:
            if names[nid] != name:
                continue
            while parent >= 0:
                if names[spans[parent][0]] in under:
                    total += 1
                    break
                parent = spans[parent][3]
        return total
