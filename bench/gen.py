"""Seeded input families, written as model files before any timing starts.

Everything here is plain Python over the JSON file format: nothing imports
the library, so the inputs do not change when the library does.  Each
generator returns a `Spec`, the benchmark's own record of what it wrote,
which the verifiers in `oracle.py` check the program's outputs against.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

SIGN_LABELS = ("+", "-")
SIGN0_LABELS = ("+", "0", "-")


@dataclass
class Spec:
    """A generated graph: dense vertex/edge indices, ids `v{i}` and `e{i}`."""

    path: str
    n: int
    src: list[int]
    tgt: list[int]
    labels: list
    algebra: str = "SIGN"
    family: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def n_edges(self) -> int:
        return len(self.src)

    def out_adj(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for e, s in enumerate(self.src):
            adj[s].append(e)
        return adj


def graph_json(spec: Spec) -> dict:
    return {
        "algebra": spec.algebra,
        "vertices": [{"id": f"v{i}", "name": f"v{i}"} for i in range(spec.n)],
        "edges": [
            {"id": f"e{e}", "src": f"v{s}", "tgt": f"v{t}", "label": label}
            for e, (s, t, label) in enumerate(zip(spec.src, spec.tgt, spec.labels))
        ],
    }


def write_json(workdir: Path, rel: str, obj: dict) -> None:
    (workdir / rel).write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def write_graph(workdir: Path, spec: Spec) -> Spec:
    write_json(workdir, spec.path, {"format": 1, "graph": graph_json(spec)})
    return spec


# ---------------------------------------------------------------- loops-cld


def _reaches(adj_rev: list[list[int]], target: int, n: int) -> list[bool]:
    seen = [False] * n
    seen[target] = True
    stack = [target]
    while stack:
        v = stack.pop()
        for w in adj_rev[v]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return seen


def count_simple_paths(adj: list[list[int]], adj_rev: list[list[int]], start: int, end: int, cap: int) -> int:
    """Simple vertex paths start -> end, counted up to `cap`; dead ends pruned."""
    n = len(adj)
    useful = _reaches(adj_rev, end, n)
    if not useful[start]:
        return 0
    count = 0
    on_path = [False] * n
    on_path[start] = True
    stack = [(start, iter(adj[start]))]
    while stack:
        v, it = stack[-1]
        w = next(it, None)
        if w is None:
            stack.pop()
            on_path[v] = False
            continue
        if w == end:
            count += 1
            if count >= cap:
                return count
        elif useful[w] and not on_path[w]:
            on_path[w] = True
            stack.append((w, iter(adj[w])))
    return count


def random_cld(rng: random.Random, path: str, n: int, loops: int) -> Spec:
    """A sparse causal loop diagram with E = 2V edges and exactly `loops`
    simple loops.

    Edges are drawn at random; an edge closing more loops than the budget
    allows is skipped.  The loop count is pinned so the relation search
    stays under its guard and costs the same on every seed.
    """
    m = 2 * n
    while True:
        adj: list[list[int]] = [[] for _ in range(n)]
        rev: list[list[int]] = [[] for _ in range(n)]
        pairs: set[tuple[int, int]] = set()
        total = 0
        tries = 0
        while len(pairs) < m and tries < 50 * m:
            tries += 1
            u, w = rng.randrange(n), rng.randrange(n)
            if u == w or (u, w) in pairs:
                continue
            closing = count_simple_paths(adj, rev, w, u, loops - total + 1)
            # leave room to close the last loops late, when the graph is dense
            if total + closing > loops or (closing and len(pairs) < m // 3):
                continue
            pairs.add((u, w))
            adj[u].append(w)
            rev[w].append(u)
            total += closing
        if len(pairs) == m and total == loops:
            break
    order = sorted(pairs, key=lambda _: rng.random())
    src = [u for u, _ in order]
    tgt = [w for _, w in order]
    labels = [rng.choice(SIGN_LABELS) for _ in order]
    return Spec(path, n, src, tgt, labels, family="cld")


def dag_plus_back_edge(rng: random.Random, path: str, n: int) -> Spec:
    """The complete DAG on `n` vertices plus one back edge between
    topological neighbours: exactly one loop and exponentially many dead
    ends for a search without blocking."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    at = rng.randrange(n - 1)
    edges.append((at + 1, at))
    rng.shuffle(edges)
    labels = [rng.choice(SIGN_LABELS) for _ in edges]
    return Spec(path, n, [s for s, _ in edges], [t for _, t in edges], labels, family="dag")


def directed_ring(rng: random.Random, path: str, n: int) -> Spec:
    """A single directed cycle through all `n` vertices: one loop, and a
    search depth of `n`."""
    offset = rng.randrange(n)
    src = [(offset + i) % n for i in range(n)]
    tgt = [(offset + i + 1) % n for i in range(n)]
    labels = [rng.choice(SIGN_LABELS) for _ in range(n)]
    return Spec(path, n, src, tgt, labels, family="ring")


# ---------------------------------------------------------------- motif-scan


def random_host(rng: random.Random, path: str, n: int) -> Spec:
    """A random sparse SIGN host with E = 2V edges: every vertex has out-degree
    two, targets are uniform, so self-loops and parallel edges occur as in
    regulatory networks.  The fixed out-degree fixes the number of bounded
    walks from each vertex, which keeps search cost alike across seeds."""
    src = [v for v in range(n) for _ in range(2)]
    tgt = [rng.randrange(n) for _ in src]
    labels = [rng.choice(SIGN_LABELS) for _ in src]
    return Spec(path, n, src, tgt, labels, family="host")


# ------------------------------------------------------------ model-pipeline


def random_open(rng: random.Random, path: str, left: list[str], right: list[str], n: int, m: int) -> Spec:
    """An open SIGN graph with injective legs onto random vertices."""
    src = [rng.randrange(n) for _ in range(m)]
    tgt = [rng.randrange(n) for _ in range(m)]
    labels = [rng.choice(SIGN_LABELS) for _ in range(m)]
    spec = Spec(path, n, src, tgt, labels, family="open")
    spec.extra = {
        "left": list(left),
        "right": list(right),
        "leg_in": rng.sample(range(n), len(left)),
        "leg_out": rng.sample(range(n), len(right)),
    }
    return spec


def write_open(workdir: Path, spec: Spec) -> Spec:
    x = spec.extra
    write_json(
        workdir,
        spec.path,
        {
            "format": 1,
            "open_graph": {
                "inner": graph_json(spec),
                "left_foot": x["left"],
                "right_foot": x["right"],
                "leg_in": {a: f"v{v}" for a, v in zip(x["left"], x["leg_in"])},
                "leg_out": {b: f"v{v}" for b, v in zip(x["right"], x["leg_out"])},
            },
        },
    )
    return spec


@dataclass
class Table:
    """A finite algebra as flat row-major tables over `names`."""

    names: list[str]
    mul: list[int]
    unit: int
    add: list[int] | None = None
    zero: int | None = None
    commutative: bool = False
    cancellative: bool = False

    @property
    def size(self) -> int:
        return len(self.names)


def cyclic_group(k: int) -> Table:
    return Table(
        [f"g{i}" for i in range(k)],
        [(a + b) % k for a in range(k) for b in range(k)],
        0,
        commutative=True,
        cancellative=True,
    )


def capped_sum(k: int) -> Table:
    """{0..k-1} under addition capped at k-1: commutative, not cancellative."""
    return Table([f"c{i}" for i in range(k)], [min(a + b, k - 1) for a in range(k) for b in range(k)], 0, commutative=True)


def left_zero(k: int) -> Table:
    """k left-zero elements plus an adjoined identity: non-commutative."""
    n = k + 1
    mul = [b if a == k else a for a in range(n) for b in range(n)]
    return Table([f"z{i}" for i in range(k)] + ["I"], mul, k)


def boolean_rig() -> Table:
    return Table(["0", "1"], [0, 0, 0, 1], 1, [0, 1, 1, 1], 0, commutative=True)


def product_table(x: Table, y: Table) -> Table:
    """Componentwise product; a rig exactly when both factors are rigs."""
    ny = y.size

    def combine(op_x, op_y):
        return [
            op_x[a * x.size + c] * ny + op_y[b * ny + d]
            for a in range(x.size)
            for b in range(ny)
            for c in range(x.size)
            for d in range(ny)
        ]

    rig = x.add is not None and y.add is not None
    return Table(
        [f"({p},{q})" for p in x.names for q in y.names],
        combine(x.mul, y.mul),
        x.unit * ny + y.unit,
        combine(x.add, y.add) if rig else None,
        x.zero * ny + y.zero if rig else None,
        x.commutative and y.commutative,
        x.cancellative and y.cancellative,
    )


def subset_rig(base: Table) -> Table:
    """Subsets of a finite monoid: union is addition, elementwise products
    multiplication.  Bitmask i holds element j when bit j is set."""
    k = base.size
    masks = range(1 << k)

    def times(x: int, y: int) -> int:
        out = 0
        for i in range(k):
            if x >> i & 1:
                for j in range(k):
                    if y >> j & 1:
                        out |= 1 << base.mul[i * k + j]
        return out

    names = ["{" + ",".join(base.names[i] for i in range(k) if mask >> i & 1) + "}" for mask in masks]
    mul = [times(x, y) for x in masks for y in masks]
    return Table(names, mul, 1 << base.unit, [x | y for x in masks for y in masks], 0, base.commutative)


def algebra_json(t: Table) -> dict:
    obj = {
        "kind": "finite-table",
        "elements": t.names,
        "mul_table": t.mul,
        "unit": t.unit,
        "flags": {"commutative": t.commutative, "cancellative": t.cancellative},
    }
    if t.add is not None:
        obj["add_table"] = t.add
        obj["zero"] = t.zero
    return obj


def break_table(rng: random.Random, t: Table) -> Table:
    """A copy with one product entry changed, so some axiom fails."""
    mul = list(t.mul)
    i = rng.randrange(len(mul))
    mul[i] = (mul[i] + 1 + rng.randrange(t.size - 1)) % t.size
    return Table(t.names, mul, t.unit, t.add, t.zero, t.commutative, t.cancellative)
