"""Span tracing from outside the library.

`Tracer.install()` wraps every public function of each layer module (plus
`Graph.out_edges`/`in_edges`) and rebinds the wrapper at every place the
function is bound: the defining module, every `monograph` module that
imported it by name, and the package namespace.  Spans are kept in memory
as parallel arrays (name, parent, operation, start, end, error) and
written out once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import zlib
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "model_io", "algebra", "graphs", "paths", "motifs", "homology", "open_graphs", "emergence", "additive")
METHODS = (("graphs", "Graph", "out_edges"), ("graphs", "Graph", "in_edges"))


# Stats computed from a call's arguments and result, outside its span.
def _parse_bytes(stats, args, kwargs, result):
    stats["model_io.parse_model.bytes"] += len(args[0].encode())


def _emit_bytes(stats, args, kwargs, result):
    stats["model_io.emit_model.bytes"] += len(result.encode())


def _triples(stats, args, kwargs, result):
    stats["algebra.validate_algebra.triples"] += getattr(args[0], "size", 0) ** 3


def _motif_result(stats, args, kwargs, result):
    matches, truncated = result
    stats["motifs.find_motifs.matches"] += len(matches)
    stats["motifs.find_motifs.truncated"] += bool(truncated)


def _paths(stats, args, kwargs, result):
    stats["motifs.paths_between.paths"] += len(result)


def _loops(stats, args, kwargs, result):
    loops, truncated = result
    stats["homology.simple_loops.loops"] += len(loops)
    stats["homology.simple_loops.truncated"] += bool(truncated)


def _relations(stats, args, kwargs, result):
    bound = args[1] if len(args) > 1 else kwargs.get("bound", 1)
    stats["homology.find_relations.relations"] += len(result)
    stats["homology.find_relations.vectors"] += (bound + 1) ** len(args[0])


def _parts(stats, args, kwargs, result):
    stats["homology.decompose_cycle.parts"] += len(result)


def _rows(stats, args, kwargs, result):
    stats["emergence.emergence_report.rows"] += len(result.rows)


# stats that the extractors above accumulate
COMPUTED = {
    "model_io.parse_model.bytes",
    "model_io.emit_model.bytes",
    "algebra.validate_algebra.triples",
    "motifs.find_motifs.matches",
    "motifs.find_motifs.truncated",
    "motifs.paths_between.paths",
    "homology.simple_loops.loops",
    "homology.simple_loops.truncated",
    "homology.find_relations.relations",
    "homology.find_relations.vectors",
    "homology.decompose_cycle.parts",
    "emergence.emergence_report.rows",
}
EXTRACTORS = {
    "model_io.parse_model": _parse_bytes,
    "model_io.emit_model": _emit_bytes,
    "algebra.validate_algebra": _triples,
    "motifs.find_motifs": _motif_result,
    "motifs.paths_between": _paths,
    "homology.simple_loops": _loops,
    "homology.find_relations": _relations,
    "homology.decompose_cycle": _parts,
    "emergence.emergence_report": _rows,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self.stack = [-1]
        self.current_op = -1
        self.stats: dict[str, float] = defaultdict(float)
        self._op_names: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- spans

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.error.append(0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int, failed: bool) -> None:
        self.end[sid] = perf_counter()
        self.stack.pop()
        if failed:
            self.error[sid] = 1

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def begin_op(self, index: int, kind: str) -> int:
        self.current_op = index
        name = f"op.{kind}"
        if name not in self._op_names:
            self._op_names[name] = self._name_id(name)
        return self._open(self._op_names[name])

    def end_op(self, sid: int, failed: bool) -> None:
        self._close(sid, failed)
        self.current_op = -1

    def _wrap(self, qualname: str, fn):
        name_id = self._name_id(qualname)
        extract = EXTRACTORS.get(qualname)
        open_span, close_span, stats = self._open, self._close, self.stats

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = open_span(name_id)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                close_span(sid, failed)
            if extract is not None:
                extract(stats, args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------- installation

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"monograph.{layer}") for layer in LAYERS}
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        binding_sites = [m for name, m in sys.modules.items() if name == "monograph" or name.startswith("monograph.")]
        for module in binding_sites:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebind(module, attr, hit[1])
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            self._rebind(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", vars(cls)[method]))

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------ results

    def self_times(self) -> array:
        """Span duration minus the durations of its direct children."""
        n = len(self.start)
        own = array("d", (self.end[i] - self.start[i] for i in range(n)))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def by_name(self, own: array):
        """calls, self seconds and errors per function name."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        errors: dict[str, int] = defaultdict(int)
        names = self.names
        for i in range(len(own)):
            name = names[self.name[i]]
            calls[name] += 1
            self_s[name] += own[i]
            errors[name] += self.error[i]
        return calls, self_s, errors

    def self_in_ops(self, own: array, name: str, ops: set[int]) -> float:
        """Self seconds of `name` inside the given operations only."""
        target = self.names.index(name)
        return sum(own[i] for i in range(len(own)) if self.name[i] == target and self.op[i] in ops)

    def inclusive_by_op(self, name: str) -> dict[int, float]:
        """Total span time of `name` inside each operation (outermost calls)."""
        target = self.names.index(name) if name in self.names else -1
        totals: dict[int, float] = defaultdict(float)
        for i in range(len(self.start)):
            p = self.parent[i]
            if self.name[i] == target and (p < 0 or self.name[p] != target):
                totals[self.op[i]] += self.end[i] - self.start[i]
        return totals

    def write(self, path: Path, ops: list[str]) -> None:
        """Spans as a zlib-compressed header line plus raw column arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = (self.name, self.parent, self.op, self.start, self.end, self.error)
        header = {
            "names": self.names,
            "ops": ops,
            "columns": [["name", "i"], ["parent", "q"], ["op", "i"], ["start", "d"], ["end", "d"], ["error", "b"]],
            "spans": len(self.start),
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            handle.write(zlib.compress(b"".join(c.tobytes() for c in columns), 1))
