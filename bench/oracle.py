"""Independent checks of the program's outputs.

Each checker recomputes the expected answer from the generator's `Spec`
with code written here, never by calling the library function whose
output it checks.  A checker returns None when the output is right and a
short reason otherwise.
"""

from __future__ import annotations

import json
import re
from itertools import product

from gen import Spec, Table


def canonical(edges) -> tuple[int, ...]:
    seq = tuple(edges)
    return min(seq[i:] + seq[:i] for i in range(len(seq)))


def loop_set(n: int, src: list[int], tgt: list[int], cap: int = 200000) -> set[tuple[int, ...]]:
    """Every elementary circuit as its smallest edge rotation.

    Anchors each circuit at its least vertex and only steps onto vertices
    that can still get back to the anchor, so dead ends cost nothing; the
    explicit stack keeps deep rings off the interpreter stack.
    """
    out: list[list[int]] = [[] for _ in range(n)]
    back: list[list[int]] = [[] for _ in range(n)]
    for e, (s, t) in enumerate(zip(src, tgt)):
        out[s].append(e)
        back[t].append(s)
    found: set[tuple[int, ...]] = set()
    for anchor in range(n):
        useful = [False] * n
        useful[anchor] = True
        stack = [anchor]
        while stack:
            v = stack.pop()
            for u in back[v]:
                if u > anchor and not useful[u]:
                    useful[u] = True
                    stack.append(u)
        on_path = [False] * n
        on_path[anchor] = True
        trail: list[int] = []
        frames = [iter(out[anchor])]
        while frames:
            e = next(frames[-1], None)
            if e is None:
                frames.pop()
                if trail:
                    on_path[tgt[trail.pop()]] = False
                continue
            w = tgt[e]
            if w == anchor:
                found.add(canonical(trail + [e]))
                if len(found) > cap:
                    raise ValueError("loop oracle cap exceeded")
            elif w > anchor and useful[w] and not on_path[w]:
                on_path[w] = True
                trail.append(e)
                frames.append(iter(out[w]))
    return found


def components(n: int, src: list[int], tgt: list[int]) -> int:
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for s, t in zip(src, tgt):
        parent[find(s)] = find(t)
    return len({find(v) for v in range(n)})


def sign_product(labels) -> str:
    return "-" if sum(1 for x in labels if x == "-") % 2 else "+"


def edge_index(edge_id: str) -> int:
    if not edge_id.startswith("e"):
        raise ValueError(f"unexpected edge id {edge_id!r}")
    return int(edge_id[1:])


def _is_simple_circuit(spec: Spec, edges: tuple[int, ...]) -> bool:
    if not edges or any(not (0 <= e < spec.n_edges) for e in edges):
        return False
    closes = all(spec.tgt[a] == spec.src[b] for a, b in zip(edges, edges[1:] + edges[:1]))
    visited = [spec.src[e] for e in edges]
    return closes and len(set(visited)) == len(visited)


def _json(out: str):
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc.msg}"


# ------------------------------------------------------------------ loops


def check_loops(spec: Spec, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    obj, err = _json(out)
    if err:
        return err
    rows = obj["loops"]
    got = [tuple(edge_index(x) for x in row["edges"]) for row in rows]
    expected = sorted(loop_set(spec.n, spec.src, spec.tgt))
    if got != expected:
        return f"{len(got)} loops reported, {len(expected)} expected, or order differs"
    if obj["truncated"]:
        return "truncated below the cap"
    for row, edges in zip(rows, got):
        if not _is_simple_circuit(spec, edges) or canonical(edges) != edges:
            return f"loop {row['edges']} does not close up simply"
        if row["vertices"] != [f"v{spec.src[e]}" for e in edges]:
            return f"loop {row['edges']} lists the wrong vertices"
        polarity = sign_product(spec.labels[e] for e in edges)
        tag = "reinforcing" if polarity == "+" else "balancing"
        # over SIGN the additive view is the product itself, so feedback = polarity
        if (row["polarity"], row["feedback"], row["tag"]) != (polarity, polarity, tag):
            return f"loop {row['edges']}: polarity, feedback or tag is wrong"
    return None


def check_decompose(spec: Spec, chain: dict[int, int], code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    obj, err = _json(out)
    if err:
        return err
    parts = [tuple(edge_index(x) for x in part) for part in obj["parts"]]
    total: dict[int, int] = {}
    for part in parts:
        if not _is_simple_circuit(spec, part) or canonical(part) != part:
            return f"part {part} is not a simple loop in canonical rotation"
        for e in part:
            total[e] = total.get(e, 0) + 1
    if total != chain:
        return "parts do not sum back to the chain"
    if parts != sorted(parts):
        return "parts are not sorted"
    return None


def check_relations(loops: list[tuple[int, ...]], relations: list, bound: int) -> str | None:
    k = len(loops)
    keys = []
    for r in relations:
        lhs, rhs = tuple(r["lhs"]), tuple(r["rhs"])
        if len(lhs) != k or len(rhs) != k or not lhs < rhs:
            return f"relation {lhs} = {rhs} is malformed"
        if any(not (0 <= c <= bound) for c in lhs + rhs) or any(a and b for a, b in zip(lhs, rhs)):
            return f"relation {lhs} = {rhs} breaks the bound or shares support"
        sums = []
        for side in (lhs, rhs):
            total: dict[int, int] = {}
            for c, loop in zip(side, loops):
                for e in loop:
                    total[e] = total.get(e, 0) + c
            sums.append(total)
        if sums[0] != sums[1]:
            return f"relation {lhs} = {rhs}: edge sums differ"
        keys.append((lhs, rhs))
    if keys != sorted(set(keys)):
        return "relations are not sorted and distinct"
    return None


def check_homology(spec: Spec, bound: int, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    obj, err = _json(out)
    if err:
        return err
    loops = [tuple(edge_index(x) for x in g) for g in obj["generators"]]
    if loops != sorted(loop_set(spec.n, spec.src, spec.tgt)):
        return f"{len(loops)} generators do not match the loop oracle"
    if obj["h0_components"] != components(spec.n, spec.src, spec.tgt):
        return "wrong number of components"
    if obj["truncated"]:
        return "truncated below the cap"
    return check_relations(loops, obj["relations"], bound)


# ------------------------------------------------------------------ motifs


def walk_counts(spec: Spec, max_len: int) -> list[dict[tuple[int, str], int]]:
    """counts[u][(v, sign)]: walks of 0..max_len edges from u to v by grade."""
    adj = spec.out_adj()
    counts = []
    for u in range(spec.n):
        table: dict[tuple[int, str], int] = {(u, "+"): 1}
        layer = {(u, "+"): 1}
        for _ in range(max_len):
            nxt: dict[tuple[int, str], int] = {}
            for (v, sign), c in layer.items():
                for e in adj[v]:
                    key = (spec.tgt[e], sign if spec.labels[e] == "+" else ("-" if sign == "+" else "+"))
                    nxt[key] = nxt.get(key, 0) + c
            for key, c in nxt.items():
                table[key] = table.get(key, 0) + c
            layer = nxt
        counts.append(table)
    return counts


def walks(spec: Spec, start: int, max_len: int) -> list[tuple[int, ...]]:
    """All walks of 0..max_len edges from `start`, as edge tuples."""
    adj = spec.out_adj()
    found = [()]
    layer = [((), start)]
    for _ in range(max_len):
        layer = [(edges + (e,), spec.tgt[e]) for edges, v in layer for e in adj[v]]
        found.extend(edges for edges, _ in layer)
    return found


def walk_end(spec: Spec, start: int, edges) -> int:
    return spec.tgt[edges[-1]] if edges else start


def count_matches(motif: Spec, host: Spec, max_len: int) -> int:
    table = walk_counts(host, max_len)
    total = 0
    for assignment in product(range(host.n), repeat=motif.n):
        ways = 1
        for s, t, label in zip(motif.src, motif.tgt, motif.labels):
            ways *= table[assignment[s]].get((assignment[t], label), 0)
            if not ways:
                break
        total += ways
    return total


def check_motif(motif: Spec, host: Spec, max_len: int, max_results: int, code: int, out: str, oracle=None) -> str | None:
    """Every match is a valid grade-matching edge map, matches are strictly
    increasing in (vertex map, paths), and their number equals an
    independent walk count; on small hosts `oracle()` gives the exact set."""
    if code != 0:
        return f"exit {code}"
    obj, err = _json(out)
    if err:
        return err
    keys = []
    for m in obj["matches"]:
        vmap = tuple(m["vertex_map"])
        paths = tuple(tuple(p) for p in m["edge_paths"])
        if len(vmap) != motif.n or len(paths) != motif.n_edges or any(not (0 <= v < host.n) for v in vmap):
            return "match is not total or names a missing vertex"
        for e, path in enumerate(paths):
            start, end = vmap[motif.src[e]], vmap[motif.tgt[e]]
            if len(path) > max_len or any(not (0 <= x < host.n_edges) for x in path):
                return f"path {path} is too long or names a missing edge"
            at = start
            for x in path:
                if host.src[x] != at:
                    return f"path {path} does not chain"
                at = host.tgt[x]
            if at != end:
                return f"path {path} ends at the wrong vertex"
            grade = sign_product(host.labels[x] for x in path)
            if grade != motif.labels[e] or m["grades"][e] != grade:
                return f"path {path} has the wrong grade"
        keys.append((vmap, paths))
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return "matches are not strictly increasing"
    total = count_matches(motif, host, max_len)
    if len(keys) != min(total, max_results) or obj["truncated"] != (total > max_results):
        return f"{len(keys)} matches reported, {total} exist"
    if oracle is not None and set(keys) != oracle():
        return "match set differs from the exhaustive oracle"
    return None


def check_result(expected, result) -> str | None:
    return None if tuple(result) == expected else f"certificate {result!r}, expected {expected!r}"


# ------------------------------------------------------------------ algebra


def table_violations(t: Table) -> list[str]:
    """The code of every failed axiom instance, in the order the axioms are
    stated: unit and associativity of each operation, commutativity, both
    distributive laws per triple, absorption, then cancellativity."""
    n = t.size
    elems = range(n)
    found: list[str] = []

    def monoid(op, unit) -> None:
        found.extend("unit" for x in elems if op[unit * n + x] != x or op[x * n + unit] != x)
        found.extend(
            "associativity"
            for x in elems
            for y in elems
            for z in elems
            if op[op[x * n + y] * n + z] != op[x * n + op[y * n + z]]
        )

    def commutativity(op) -> None:
        found.extend("commutativity" for x in elems for y in range(x + 1, n) if op[x * n + y] != op[y * n + x])

    mul, add = t.mul, t.add
    monoid(mul, t.unit)
    if t.commutative:
        commutativity(mul)
    if add is not None:
        monoid(add, t.zero)
        commutativity(add)
        for r in elems:
            for s in elems:
                for u in elems:
                    if mul[r * n + add[s * n + u]] != add[mul[r * n + s] * n + mul[r * n + u]]:
                        found.append("distributivity-left")
                    if mul[add[r * n + s] * n + u] != add[mul[r * n + u] * n + mul[s * n + u]]:
                        found.append("distributivity-right")
        found.extend("absorption" for x in elems if mul[t.zero * n + x] != t.zero or mul[x * n + t.zero] != t.zero)
    coeff = add if add is not None else mul
    if t.cancellative and any(len({coeff[c * n + e] for c in elems}) != n for e in elems):
        found.append("cancellativity")
    return found


def check_validate(path: str, table: Table, code: int, out: str) -> str | None:
    """Verdict, violation count and the code of each reported violation."""
    expected = table_violations(table)
    if not expected:
        return None if (code, out) == (0, f"{path}: ok\n") else f"valid table reported as {out[:60]!r} (exit {code})"
    lines = out.rstrip("\n").split("\n")
    header = [f"{path}: INVALID", f"  finite-table algebra: {len(expected)} violation(s)"]
    if code != 1 or lines[:2] != header:
        return f"invalid table reported as {lines[:2]!r} (exit {code})"
    codes = [re.match(r"    \[axiom/([a-z-]+)\] ", line) for line in lines[2:]]
    if not all(codes) or [m[1] for m in codes] != expected:
        return "violation list differs from the axioms that fail"
    return None


# ------------------------------------------------------------ model files


def read_model(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def pushout(x: Spec, y: Spec, path: str) -> Spec:
    """Glue x's right foot to y's left foot, x's vertices and edges first."""
    nx = x.n
    parent = list(range(nx + y.n))

    def find(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    y_in = dict(zip(y.extra["left"], y.extra["leg_in"]))
    for name, v in zip(x.extra["right"], x.extra["leg_out"]):
        a, b = find(v), find(nx + y_in[name])
        parent[max(a, b)] = min(a, b)
    reps = sorted({find(v) for v in range(nx + y.n)})
    new = {r: i for i, r in enumerate(reps)}
    vmap = [new[find(v)] for v in range(nx + y.n)]
    spec = Spec(
        path,
        len(reps),
        [vmap[s] for s in x.src] + [vmap[nx + s] for s in y.src],
        [vmap[t] for t in x.tgt] + [vmap[nx + t] for t in y.tgt],
        x.labels + y.labels,
        family="composite",
    )
    spec.extra = {
        "left": x.extra["left"],
        "right": y.extra["right"],
        "leg_in": [vmap[v] for v in x.extra["leg_in"]],
        "leg_out": [vmap[nx + v] for v in y.extra["leg_out"]],
        "vmap": vmap,
        # a class is named after its least member, whichever side it is on
        "names": [f"v{r}" if r < nx else f"v{r - nx}" for r in reps],
    }
    return spec


def disjoint_union(x: Spec, y: Spec, path: str) -> Spec:
    def merged(left: list[str], right: list[str]) -> list[str]:
        names = list(left)
        for name in right:
            while name in names:
                name += "'"
            names.append(name)
        return names

    nx = x.n
    spec = Spec(
        path,
        nx + y.n,
        x.src + [s + nx for s in y.src],
        x.tgt + [t + nx for t in y.tgt],
        x.labels + y.labels,
        family="composite",
    )
    spec.extra = {
        "left": merged(x.extra["left"], y.extra["left"]),
        "right": merged(x.extra["right"], y.extra["right"]),
        "leg_in": x.extra["leg_in"] + [v + nx for v in y.extra["leg_in"]],
        "leg_out": x.extra["leg_out"] + [v + nx for v in y.extra["leg_out"]],
    }
    return spec


def check_open_out(expected: Spec, code: int, out: str) -> str | None:
    """compose/tensor: the summary line and the written file agree with the
    benchmark's own gluing; edge counts add exactly."""
    if code != 0:
        return f"exit {code}"
    line = f"wrote {expected.path}: {expected.n} vertices, {expected.n_edges} edges"
    if out != line + "\n":
        return f"summary {out.strip()!r}, expected {line!r}"
    og = read_model(expected.path)["open_graph"]
    inner = og["inner"]
    if len(inner["vertices"]) != expected.n or len(inner["edges"]) != expected.n_edges:
        return "written file has the wrong size"
    index = {v["id"]: i for i, v in enumerate(inner["vertices"])}
    edges = [(index[e["src"]], index[e["tgt"]], e["label"]) for e in inner["edges"]]
    if edges != list(zip(expected.src, expected.tgt, expected.labels)):
        return "written edges differ from the expected gluing"
    if og["left_foot"] != expected.extra["left"] or og["right_foot"] != expected.extra["right"]:
        return "written feet differ"
    legs_in = [index[og["leg_in"][a]] for a in og["left_foot"]]
    legs_out = [index[og["leg_out"][b]] for b in og["right_foot"]]
    if legs_in != expected.extra["leg_in"] or legs_out != expected.extra["leg_out"]:
        return "written legs differ"
    return None


def check_change_labels(spec: Spec, out_path: str, target: str, mapping: dict, code: int, out: str) -> str | None:
    if code != 0 or out != f"wrote {out_path}\n":
        return f"exit {code}, stdout {out.strip()!r}"
    g = read_model(out_path)["graph"]
    if g["algebra"] != target:
        return f"algebra {g['algebra']!r}, expected {target!r}"
    got = [(e["id"], e["src"], e["tgt"], e["label"]) for e in g["edges"]]
    want = [(f"e{e}", f"v{s}", f"v{t}", mapping[x]) for e, (s, t, x) in enumerate(zip(spec.src, spec.tgt, spec.labels))]
    if got != want or len(g["vertices"]) != spec.n:
        return "relabeled graph differs"
    return None


_DOT_VERTEX = re.compile(r'  v(\d+) \[label="([^"]*)"\];')
_DOT_EDGE = re.compile(r'  v(\d+) -> v(\d+) \[label="([^"]*)"\];')


def check_dot(spec: Spec, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    lines = out.split("\n")
    if lines[:2] != ['digraph "model" {', "  rankdir=LR;"] or lines[-2:] != ["}", ""]:
        return "DOT header or footer is wrong"
    body = lines[2:-2]
    vertices = [_DOT_VERTEX.fullmatch(x) for x in body[: spec.n]]
    edges = [_DOT_EDGE.fullmatch(x) for x in body[spec.n :]]
    if len(body) != spec.n + spec.n_edges or not all(vertices) or not all(edges):
        return "DOT body does not parse"
    if [(int(m[1]), m[2]) for m in vertices] != [(i, f"v{i}") for i in range(spec.n)]:
        return "DOT vertices differ"
    if [(int(m[1]), int(m[2]), m[3]) for m in edges] != list(zip(spec.src, spec.tgt, spec.labels)):
        return "DOT edges differ"
    return None


def check_emergence(x: Spec, y: Spec, code: int, out: str) -> str | None:
    """Loops of the glued graph match the loop oracle; a loop is inherited
    exactly when all its edges come from one side."""
    if code != 0:
        return f"exit {code}"
    obj, err = _json(out)
    if err:
        return err
    glued = pushout(x, y, "")
    rows = obj["loops"]
    got = [tuple(edge_index(e) for e in row["edges"]) for row in rows]
    if got != sorted(loop_set(glued.n, glued.src, glued.tgt)):
        return f"{len(got)} loops do not match the loop oracle"
    inherited = 0
    for row, edges in zip(rows, got):
        word = "".join("x" if e < x.n_edges else "y" for e in edges)
        collapsed = "".join(c for i, c in enumerate(word) if i == 0 or word[i - 1] != c)
        status = "inherited" if len(set(word)) == 1 else "emergent"
        inherited += status == "inherited"
        polarity = sign_product(glued.labels[e] for e in edges)
        if (row["status"], row["grade_word"], row["polarity"]) != (status, collapsed, polarity):
            return f"loop {row['edges']}: status, word or polarity is wrong"
        if row["vertices"] != [glued.extra["names"][glued.src[e]] for e in edges]:
            return f"loop {row['edges']} lists the wrong vertices"
    if (obj["inherited"], obj["emergent"], obj["truncated"]) != (inherited, len(rows) - inherited, False):
        return "inherited/emergent counts are wrong"
    return None


def check_iso(g1: Spec, g2: Spec, result) -> str | None:
    """The certificate is a vertex and edge bijection that commutes with
    sources and targets and keeps every label."""
    ok, witness = result
    if not ok:
        return "isomorphic composites reported as not isomorphic"
    f0, f1 = witness
    if sorted(f0) != list(range(g2.n)) or sorted(f1) != list(range(g2.n_edges)) or len(f0) != g1.n:
        return "certificate is not a bijection"
    for e in range(g1.n_edges):
        image = f1[e]
        if (f0[g1.src[e]], f0[g1.tgt[e]], g1.labels[e]) != (g2.src[image], g2.tgt[image], g2.labels[image]):
            return f"certificate fails at edge {e}"
    return None


def expected_label_preserving(f1: list[int], src_labels: list, dst_labels: list):
    for e, image in enumerate(f1):
        if dst_labels[image] != src_labels[e]:
            return (False, e)
    return (True, None)


def expected_additive(f1: list[int], src_labels: list, dst_labels: list):
    """Fiber sums over SIGN (the product of the fiber's signs, "+" if empty)."""
    for target, label in enumerate(dst_labels):
        if sign_product(src_labels[e] for e, image in enumerate(f1) if image == target) != label:
            return (False, target)
    return (True, None)
