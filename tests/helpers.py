"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional, Sequence

import monograph as mg
from monograph.homology import LOOP_CAP
from monograph.model_io import ModelFormatError, _as_id, _require
from monograph.open_graphs import _as_parts
from monograph.validation import AXIOM, STRUCTURE, _over_guard

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

SIGN = mg.CATALOG["SIGN"]
SIGN0 = mg.CATALOG["SIGN0"]
SIGNI = mg.CATALOG["SIGNI"]
BOOL = mg.CATALOG["BOOL"]
S_RIG = mg.CATALOG["S"]
NAT = mg.named_algebra("NatAdd")
TRIVIAL = mg.named_algebra("TrivialOne")


def g2() -> mg.Graph:
    return mg.graph(["u", "v"], [(0, 1), (1, 0)])


def p2() -> mg.Graph:
    return mg.graph(["u", "v"], [(0, 1), (0, 1)])


def q4() -> mg.Graph:
    return mg.graph(["u", "v"], [(0, 1), (0, 1), (1, 0), (1, 0)])


def r5() -> mg.Graph:
    return mg.graph(["u", "v"], [(0, 1), (0, 1), (1, 0), (1, 0), (1, 0)])


def homework() -> mg.LabeledGraph:
    return mg.load_model(FIXTURES / "homework.json").graph


def host() -> mg.LabeledGraph:
    return mg.load_model(FIXTURES / "host.json").graph


def rand_graph(rng: random.Random, max_vertices: int = 6, max_edges: int = 8) -> mg.Graph:
    n = rng.randint(1, max_vertices)
    m = rng.randint(0, max_edges)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    return mg.graph([f"v{i}" for i in range(n)], edges)


def rand_labels(rng: random.Random, g: mg.Graph, algebra) -> mg.LabeledGraph:
    if isinstance(algebra, mg.TableAlgebra):
        labels = tuple(rng.randrange(algebra.size) for _ in range(g.n_edges))
    else:
        labels = tuple(algebra.sample(rng) for _ in range(g.n_edges))
    return mg.LabeledGraph(g, algebra, labels)


# swap and reset on two states: a non-commutative transformation monoid, so
# matching a grade pins the order of the product along a path
SWAP_RESET = mg.from_semiautomaton(
    mg.Semiautomaton(("0", "1"), ("swap", "reset"), ((1, 0), (0, 0)))
).algebra
RAT_MUL = mg.named_algebra("RatMulMonoid")
# algebras for path-grade searches: finite commutative, finite
# non-commutative, and infinite with Fraction grades
GRADED_ALGEBRAS = {"SIGN": SIGN, "swap-reset": SWAP_RESET, "RatMulMonoid": RAT_MUL}
# a few rationals whose products recur, so Fraction grades match often
RAT_POOL = (Fraction(1, 2), Fraction(2), Fraction(-1), Fraction(1))


def rand_graded_labels(rng: random.Random, g: mg.Graph, algebra) -> mg.LabeledGraph:
    """`rand_labels`, but RatMulMonoid labels come from `RAT_POOL`."""
    if algebra == RAT_MUL:
        return mg.LabeledGraph(g, RAT_MUL, tuple(rng.choice(RAT_POOL) for _ in range(g.n_edges)))
    return rand_labels(rng, g, algebra)


def rand_labeled(rng: random.Random, algebra, max_vertices: int = 6, max_edges: int = 8) -> mg.LabeledGraph:
    return rand_labels(rng, rand_graph(rng, max_vertices, max_edges), algebra)


def rand_open(
    rng: random.Random,
    algebra,
    left_foot: tuple[str, ...],
    right_foot: tuple[str, ...],
    max_vertices: int = 4,
    max_edges: int = 5,
    injective_legs: bool = False,
) -> mg.OpenGraph:
    lower = max(1, len(left_foot), len(right_foot)) if injective_legs else 1
    n = rng.randint(lower, max(lower, max_vertices))
    inner = rand_labels(rng, mg.graph([f"v{i}" for i in range(n)], [
        (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, max_edges))
    ]), algebra)
    if injective_legs:
        leg_in = tuple(rng.sample(range(n), len(left_foot)))
        leg_out = tuple(rng.sample(range(n), len(right_foot)))
    else:
        leg_in = tuple(rng.randrange(n) for _ in left_foot)
        leg_out = tuple(rng.randrange(n) for _ in right_foot)
    return mg.OpenGraph(inner, left_foot, right_foot, leg_in, leg_out)


def rand_composable_triple(rng: random.Random, algebra, max_vertices: int = 4, max_edges: int = 5):
    feet = tuple(f"p{i}" for i in range(rng.randint(0, 3)))
    feet2 = tuple(f"q{i}" for i in range(rng.randint(0, 3)))
    a = tuple(f"a{i}" for i in range(rng.randint(0, 2)))
    d = tuple(f"d{i}" for i in range(rng.randint(0, 2)))
    x = rand_open(rng, algebra, a, feet, max_vertices, max_edges)
    y = rand_open(rng, algebra, feet, feet2, max_vertices, max_edges)
    z = rand_open(rng, algebra, feet2, d, max_vertices, max_edges)
    return x, y, z


def rand_glue_pair(rng: random.Random, algebra, max_vertices: int = 4, max_edges: int = 4):
    """Two open graphs sharing an interface, with injective legs."""
    shared = tuple(f"s{i}" for i in range(rng.randint(1, 3)))
    x = rand_open(rng, algebra, (), shared, max_vertices, max_edges, injective_legs=True)
    y = rand_open(rng, algebra, shared, (), max_vertices, max_edges, injective_legs=True)
    return x, y


def bfs_components(g: mg.Graph) -> list[list[int]]:
    """Independent undirected-components oracle."""
    neighbors: dict[int, set[int]] = {v: set() for v in range(g.n_vertices)}
    for e in range(g.n_edges):
        neighbors[g.edge_src[e]].add(g.edge_tgt[e])
        neighbors[g.edge_tgt[e]].add(g.edge_src[e])
    seen: set[int] = set()
    blocks = []
    for start in range(g.n_vertices):
        if start in seen:
            continue
        block = []
        frontier = [start]
        seen.add(start)
        while frontier:
            v = frontier.pop()
            block.append(v)
            for w in neighbors[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        blocks.append(sorted(block))
    return blocks


def oracle_paths(g: mg.Graph, start: int, end: int, max_len: int) -> list[tuple[int, ...]]:
    """Breadth-first path enumeration, independent of the search module."""
    found = []
    frontier = [(start, ())]
    for _ in range(max_len + 1):
        next_frontier = []
        for at, edges in frontier:
            if at == end:
                found.append(edges)
            for e in range(g.n_edges):
                if g.edge_src[e] == at:
                    next_frontier.append((g.edge_tgt[e], edges + (e,)))
        frontier = next_frontier
    return found


def oracle_motif_occurrences(motif: mg.LabeledGraph, host_graph: mg.LabeledGraph, max_len: int):
    """Exhaustive motif oracle: every vertex map, every bounded path tuple,
    filtered by the definition (endpoints and label product) computed inline."""
    algebra = host_graph.algebra
    mg_graph = motif.graph
    hits = set()
    for assignment in itertools.product(range(host_graph.graph.n_vertices), repeat=mg_graph.n_vertices):
        per_edge = []
        for e in range(mg_graph.n_edges):
            u = assignment[mg_graph.edge_src[e]]
            v = assignment[mg_graph.edge_tgt[e]]
            good = []
            for edges in oracle_paths(host_graph.graph, u, v, max_len):
                product = algebra.one
                for edge in edges:
                    product = algebra.mul(host_graph.labels[edge], product)
                if product == motif.labels[e]:
                    good.append(edges)
            per_edge.append(good)
        for combo in itertools.product(*per_edge):
            hits.add((assignment, combo))
    return hits


def oracle_find_motifs(
    motif: mg.LabeledGraph,
    host_graph: mg.LabeledGraph,
    max_path_len: int = 6,
    max_results: int = 10000,
):
    """Unpruned motif search: every vertex assignment in lexicographic order,
    `oracle_paths` in lexicographic order and a fresh `grade` per motif
    edge, stopping at `max_results`.  Same ``(matches, truncated)`` as
    `find_motifs`, with no walk read from the search module."""
    m_graph = motif.graph
    matches = []
    for assignment in itertools.product(range(host_graph.graph.n_vertices), repeat=m_graph.n_vertices):
        candidates = []
        for e in range(m_graph.n_edges):
            u = assignment[m_graph.edge_src[e]]
            v = assignment[m_graph.edge_tgt[e]]
            wanted = motif.labels[e]
            paths = [mg.Path(u, edges) for edges in sorted(oracle_paths(host_graph.graph, u, v, max_path_len))]
            fits = [p for p in paths if mg.grade(p, host_graph) == wanted]
            if not fits:
                break
            candidates.append(fits)
        else:
            for combo in itertools.product(*candidates):
                if len(matches) >= max_results:
                    return matches, True
                matches.append(mg.KleisliMorphism(motif, host_graph, assignment, combo))
    return matches, False


@contextlib.contextmanager
def recursion_limit(headroom: int):
    """Lower the interpreter's recursion limit to `headroom` frames above
    the caller's depth, restoring it afterwards; yields the new limit."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    saved = sys.getrecursionlimit()
    limit = depth + headroom
    sys.setrecursionlimit(limit)
    try:
        yield limit
    finally:
        sys.setrecursionlimit(saved)


def ring(n: int, algebra=SIGN, label="+") -> mg.LabeledGraph:
    """The directed ring v0 -> v1 -> ... -> v(n-1) -> v0."""
    return mg.labeled_graph(
        [f"v{i}" for i in range(n)], [(i, (i + 1) % n) for i in range(n)], algebra, [label] * n
    )


def bundle_file(tmp_path: Path, forth: int, back: int) -> Path:
    """A SIGN model file of `forth` parallel edges u -> v and `back`
    parallel edges v -> u: forth * back simple loops."""
    edges = [{"id": f"a{i}", "src": "u", "tgt": "v", "label": "+"} for i in range(forth)]
    edges += [{"id": f"b{i}", "src": "v", "tgt": "u", "label": "-"} for i in range(back)]
    path = tmp_path / f"bundle{forth}x{back}.json"
    graph = {"algebra": "SIGN", "vertices": [{"id": "u"}, {"id": "v"}], "edges": edges}
    path.write_text(json.dumps({"format": 1, "graph": graph}))
    return path


def oracle_simple_loops(g: mg.Graph, cap: int = LOOP_CAP):
    """Unpruned depth-first circuit search: every path from each anchor
    over larger vertices, in ascending edge order, stopping at `cap`."""
    found = []

    def search(anchor, at, visited, trail):
        for e in range(g.n_edges):
            if g.edge_src[e] != at:
                continue
            w = g.edge_tgt[e]
            if w == anchor:
                seq = trail + [e]
                found.append(mg.SimpleLoop(min(tuple(seq[i:] + seq[:i]) for i in range(len(seq)))))
                if len(found) > cap:
                    return False
            elif w > anchor and w not in visited:
                if not search(anchor, w, visited | {w}, trail + [e]):
                    return False
        return True

    truncated = False
    for anchor in range(g.n_vertices):
        if not search(anchor, anchor, {anchor}, []):
            truncated = True
            break
    return sorted(found[:cap], key=lambda loop: loop.edges), truncated


def oracle_relations(loops, bound: int):
    """Every pair of coefficient vectors in [0, bound]^k with disjoint
    supports and equal edge sums, found by hashing all of them."""
    sums = {}
    for vector in itertools.product(range(bound + 1), repeat=len(loops)):
        total = {}
        for coefficient, loop in zip(vector, loops):
            if coefficient:
                for e in loop.edges:
                    total[e] = total.get(e, 0) + coefficient
        sums.setdefault(tuple(sorted(total.items())), []).append(vector)
    relations = []
    for vectors in sums.values():
        for lhs, rhs in itertools.combinations(vectors, 2):
            if all(min(a, b) == 0 for a, b in zip(lhs, rhs)):
                relations.append(mg.Relation(min(lhs, rhs), max(lhs, rhs)))
    return sorted(relations, key=lambda r: (r.lhs, r.rhs))


def _fraction_subtract(row: dict[int, Fraction], factor: Fraction, other: dict[int, Fraction]) -> None:
    """row -= factor * other, for sparse rows that omit zero entries."""
    for col, x in other.items():
        y = row.get(col, 0) - factor * x
        if y:
            row[col] = y
        else:
            del row[col]


def oracle_relations_by_fractions(
    loops: Sequence[mg.SimpleLoop], bound: int = 1, guard: int = 10**6
) -> list[mg.Relation]:
    """`find_relations` as it was written before its elimination moved to
    integers: Gauss-Jordan elimination over `Fraction`, kept as an oracle
    whose loop sets can be larger than `oracle_relations` reaches.

    All bound-limited relations among loop indicator chains.

    Pairs that merely add a common part to both sides of a smaller relation
    are excluded: sides must have disjoint support.  Symmetric duplicates are
    reported once, smaller side first.

    Such a pair is (z+, z-) for a nonzero integer vector z with every
    |z_i| <= bound in the kernel of the edge-by-loop incidence matrix, taken
    once up to sign.  Exact row reduction leaves d = k - rank free
    coordinates; all (2*bound + 1)^d values of them are tried, keeping those
    whose pivot coordinates come out integral and within the bound.  Raises
    ValueError when that count exceeds `guard`, or when `bound` is negative.
    """
    if bound < 0:
        raise ValueError(f"coefficient bound must be at least 0, got {bound}")
    k = len(loops)
    base = 2 * bound + 1
    # one row per edge, counting the loops through it; repeated rows add no rank
    by_edge: dict[int, dict[int, int]] = {}
    for i, loop in enumerate(loops):
        for e in loop.edges:
            counts = by_edge.setdefault(e, {})
            counts[i] = counts.get(i, 0) + 1
    rows = {tuple(counts.items()) for counts in by_edge.values()}
    least_free = max(k - len(rows), 0)
    if base ** least_free > guard:
        raise ValueError(_over_guard(f"relation search space at least {base}^{least_free}", guard))
    # Gauss-Jordan elimination, one row at a time: each pivot row has a 1 in
    # its pivot column and 0 in every other pivot column
    pivots: dict[int, dict[int, Fraction]] = {}
    for items in rows:
        row = {col: Fraction(x) for col, x in items}
        for col, pivot_row in pivots.items():
            if col in row:
                _fraction_subtract(row, row[col], pivot_row)
        if not row:
            continue
        col = min(row)
        lead = row[col]
        row = {c: x / lead for c, x in row.items()}
        for pivot_row in pivots.values():
            if col in pivot_row:
                _fraction_subtract(pivot_row, pivot_row[col], row)
        pivots[col] = row
    free = [col for col in range(k) if col not in pivots]
    if base ** len(free) > guard:
        raise ValueError(_over_guard(f"relation search space {base}^{len(free)}", guard))
    # z[p] = -sum(row[f] * z[f]) over free f, scaled to integers: z[p] = -num / den
    solved = []
    for col, row in pivots.items():
        den = math.lcm(*(row[f].denominator for f in free if f in row))
        solved.append((col, den, [(f, int(row[f] * den)) for f in free if f in row]))
    relations = []
    for values in itertools.product(range(-bound, bound + 1), repeat=len(free)):
        if next((x for x in values if x), 0) <= 0:
            continue  # zero, or the negative of a vector also tried
        z = [0] * k
        for f, x in zip(free, values):
            z[f] = x
        for col, den, terms in solved:
            num = sum(c * z[f] for f, c in terms)
            if num % den or abs(num) > bound * den:
                break
            z[col] = -num // den
        else:
            lhs = tuple(max(x, 0) for x in z)
            rhs = tuple(max(-x, 0) for x in z)
            relations.append(mg.Relation(min(lhs, rhs), max(lhs, rhs)))
    return sorted(relations, key=lambda r: (r.lhs, r.rhs))


def brute_force_h1(g: mg.Graph, algebra: mg.TableAlgebra, guard: int = 10**6) -> list[mg.Chain]:
    """Every cycle with coefficients in a finite algebra, by enumeration."""
    if not isinstance(algebra, mg.TableAlgebra):
        raise ValueError("exhaustive search needs a finite coefficient algebra")
    size = algebra.size
    if size ** g.n_edges > guard:
        raise ValueError("enumeration space exceeds the guard")
    cycles = []
    for assignment in itertools.product(range(size), repeat=g.n_edges):
        candidate = mg.chain(algebra, dict(enumerate(assignment)))
        if mg.is_cycle(candidate, g):
            cycles.append(candidate)
    return cycles


def brute_force_circulations(g: mg.Graph, bound: int, guard: int = 10**6) -> list[mg.Chain]:
    """Every natural-number cycle with coefficients at most `bound`."""
    if (bound + 1) ** g.n_edges > guard:
        raise ValueError("enumeration space exceeds the guard")
    n_vertices = g.n_vertices
    src, tgt = g.edge_src, g.edge_tgt
    cycles = []
    for assignment in itertools.product(range(bound + 1), repeat=g.n_edges):
        sums = [0] * n_vertices
        for e, coefficient in enumerate(assignment):
            if coefficient:
                sums[src[e]] += coefficient
                sums[tgt[e]] -= coefficient
        if not any(sums):
            cycles.append(mg.nat_chain(dict(enumerate(assignment))))
    return cycles


def minimal_elements(chains: Iterable[mg.Chain]) -> list[mg.Chain]:
    """Nonzero chains minimal in the pointwise order among those given.

    For natural-number cycles the pointwise order coincides with the
    canonical preorder (x below y iff x plus some cycle equals y).
    """
    pool = [c for c in chains if not c.is_zero]

    def below(a: mg.Chain, b: mg.Chain) -> bool:
        b_coeffs = b.as_dict()
        return all(e in b_coeffs and v <= b_coeffs[e] for e, v in a.items)

    return [c for c in pool if not any(other != c and below(other, c) for other in pool)]


def broken_product_rig() -> mg.TableAlgebra:
    """S x S (16 elements) with five entries changed, declared commutative and
    cancellative: it fails unit (of both operations), associativity,
    commutativity, both distributive laws, absorption and cancellativity."""
    rig = mg.product_algebra(S_RIG, S_RIG)
    n = rig.size
    mul, add = list(rig.mul_table), list(rig.add_table)
    mul[rig.unit * n + 7] = 6
    mul[rig.zero_index * n + 10] = 10
    mul[9 * n + 14] = 2
    add[3 * n + 12] = 13
    add[rig.zero_index * n + 2] = 3
    flags = mg.Flags(commutative=True, cancellative=True)
    return mg.TableAlgebra(rig.elements, tuple(mul), rig.unit, tuple(add), rig.zero_index, flags)


def algebra_model_json(algebra: mg.TableAlgebra) -> str:
    """A model file holding only `algebra`, as `monograph validate` reads it."""
    obj = {
        "kind": "finite-table",
        "elements": list(algebra.elements),
        "mul_table": list(algebra.mul_table),
        "unit": algebra.unit,
        "flags": {"commutative": algebra.flags.commutative, "cancellative": algebra.flags.cancellative},
    }
    if algebra.is_rig:
        obj.update(add_table=list(algebra.add_table), zero=algebra.zero_index)
    return json.dumps({"format": 1, "algebra": obj})


def oracle_table_structure(a: mg.TableAlgebra) -> mg.ValidationReport:
    """Structural checks of a table algebra, one entry at a time."""
    report = mg.ValidationReport(subject="finite-table algebra")
    n = a.size

    def is_index(v) -> bool:
        return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n

    if n == 0:
        report.add(STRUCTURE, "empty", "algebra has no elements")
        return report
    if len(set(a.elements)) != n:
        report.add(STRUCTURE, "duplicate-names", "element names are not distinct")
    tables = [("mul", a.mul_table)]
    if a.add_table is not None:
        tables.append(("add", a.add_table))
    for label, table in tables:
        if len(table) != n * n:
            report.add(STRUCTURE, "non-square", f"{label} table has {len(table)} entries, expected {n * n}")
        else:
            bad = [v for v in table if not is_index(v)]
            if bad:
                report.add(STRUCTURE, "out-of-range", f"{label} table entry {bad[0]!r} is not an element index")
    if not is_index(a.unit):
        report.add(STRUCTURE, "out-of-range", f"unit index {a.unit!r} is not an element index")
    if a.add_table is not None and not is_index(a.zero_index):
        report.add(STRUCTURE, "out-of-range", f"zero index {a.zero_index!r} is not an element index")
    if a.add_table is None and a.zero_index is not None:
        report.add(STRUCTURE, "zero-without-add", "zero declared but no addition table")
    return report


def oracle_is_cancellative(algebra):
    """`is_cancellative` by calling the coefficient addition on every pair."""
    add = algebra.add
    if isinstance(algebra, mg.BuiltinAlgebra):
        witness = algebra.cancellation_witness
        return (witness is None, witness)
    n = algebra.size
    for e in range(n):
        seen: dict[int, int] = {}
        for c in range(n):
            value = add(c, e)
            if value in seen and seen[value] != c:
                return False, (seen[value], c, e)
            seen.setdefault(value, c)
    return True, None


def oracle_validate_algebra(algebra, rng_seed: int = 0, samples: int = 50) -> mg.ValidationReport:
    """`validate_algebra` one argument tuple at a time: every law is checked
    with scalar operation calls on each triple (or pair, or element)."""
    if isinstance(algebra, mg.TableAlgebra):
        report = oracle_table_structure(algebra)
        if not report.ok:
            return report
    else:
        report = mg.ValidationReport(subject=f"builtin algebra {algebra.builtin_id}")

    def cases(arity: int):
        if isinstance(algebra, mg.TableAlgebra):
            return itertools.product(algebra.iter_elements(), repeat=arity)
        rng = random.Random(rng_seed)
        draws = [algebra.sample(rng) for _ in range(samples)]
        return zip(*(draws[i:] for i in range(arity)))

    t = algebra.label_text

    def monoid(op, unit, label: str) -> None:
        for (x,) in cases(1):
            if op(unit, x) != x or op(x, unit) != x:
                report.add(AXIOM, "unit", f"{label}: {t(unit)} is not a unit at {t(x)}", (x,))
        for x, y, z in cases(3):
            if op(op(x, y), z) != op(x, op(y, z)):
                report.add(
                    AXIOM, "associativity", f"{label}: ({t(x)}*{t(y)})*{t(z)} != {t(x)}*({t(y)}*{t(z)})", (x, y, z)
                )

    def commutativity(op, label: str, sign: str) -> None:
        for x, y in cases(2):
            if x < y and op(x, y) != op(y, x):
                report.add(AXIOM, "commutativity", f"{label}: {t(x)}{sign}{t(y)} != {t(y)}{sign}{t(x)}", (x, y))

    mul = algebra.mul
    monoid(mul, algebra.one, "mul")
    if algebra.flags.commutative:
        commutativity(mul, "mul", "*")
    if algebra.is_rig:
        add, zero = algebra.add, algebra.zero
        monoid(add, zero, "add")
        commutativity(add, "add", "+")
        for r, s, u in cases(3):
            if mul(r, add(s, u)) != add(mul(r, s), mul(r, u)):
                report.add(
                    AXIOM,
                    "distributivity-left",
                    f"{t(r)}*({t(s)}+{t(u)}) != {t(r)}*{t(s)} + {t(r)}*{t(u)}",
                    (r, s, u),
                )
            if mul(add(r, s), u) != add(mul(r, u), mul(s, u)):
                report.add(
                    AXIOM,
                    "distributivity-right",
                    f"({t(r)}+{t(s)})*{t(u)} != {t(r)}*{t(u)} + {t(s)}*{t(u)}",
                    (r, s, u),
                )
        for (x,) in cases(1):
            if mul(zero, x) != zero or mul(x, zero) != zero:
                report.add(AXIOM, "absorption", f"0*{t(x)} or {t(x)}*0 is not 0", (x,))

    coefficient_view = algebra.is_rig or algebra.flags.commutative
    if algebra.flags.cancellative and not coefficient_view:
        report.add(AXIOM, "cancellativity", "declared cancellative, but neither a rig nor commutative")
    elif algebra.flags.cancellative:
        ok, witness = oracle_is_cancellative(algebra)
        if not ok:
            c, d, e = witness
            report.add(AXIOM, "cancellativity", f"{t(c)}+{t(e)} = {t(d)}+{t(e)} but {t(c)} != {t(d)}", witness)
    return report


def oracle_iso_check(g1, g2, max_vertices: int = 12):
    """`iso_check` as it was before its search moved onto an explicit stack:
    label-respecting isomorphism of (labeled) multigraphs by recursive backtracking.

    Returns ``(True, (f0, f1))`` with an explicit vertex and edge bijection,
    or ``(False, None)``.  Guarded to small graphs; raise the limit at your
    own risk.
    """
    graph1, labels1, alg1 = _as_parts(g1)
    graph2, labels2, alg2 = _as_parts(g2)
    if (labels1 is None) != (labels2 is None):
        raise ValueError("cannot compare a labeled graph with a bare graph")
    if alg1 is not None and alg1 != alg2:
        return False, None
    if graph1.n_vertices != graph2.n_vertices or graph1.n_edges != graph2.n_edges:
        return False, None
    if graph1.n_vertices > max_vertices:
        raise ValueError(f"iso_check limited to {max_vertices} vertices")

    def keys(g: mg.Graph, labels) -> list[str]:
        return [""] * g.n_edges if labels is None else [alg1.label_text(x) for x in labels]

    keys1, keys2 = keys(graph1, labels1), keys(graph2, labels2)

    def signature(g: mg.Graph, keys: list[str], v: int):
        outs = sorted(keys[e] for e in g.out_adjacency[v])
        ins = sorted(keys[e] for e in g.in_adjacency[v])
        return tuple(outs), tuple(ins)

    sig1 = [signature(graph1, keys1, v) for v in range(graph1.n_vertices)]
    sig2 = [signature(graph2, keys2, v) for v in range(graph2.n_vertices)]
    if sorted(sig1) != sorted(sig2):
        return False, None

    n = graph1.n_vertices
    assignment: list[Optional[int]] = [None] * n
    used = [False] * n

    def consistent(v: int, w: int) -> bool:
        # the edges between v and the vertices assigned so far (v included)
        # must match, keyed by far end and label, those between w and the images
        image = assignment[:v] + [w]
        for adjacency1, adjacency2, far1, far2 in (
            (graph1.out_adjacency, graph2.out_adjacency, graph1.edge_tgt, graph2.edge_tgt),
            (graph1.in_adjacency, graph2.in_adjacency, graph1.edge_src, graph2.edge_src),
        ):
            near1 = sorted((image[far1[e]], keys1[e]) for e in adjacency1[v] if far1[e] <= v)
            near2 = sorted((far2[e], keys2[e]) for e in adjacency2[w] if far2[e] in image)
            if near1 != near2:
                return False
        return True

    def backtrack(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if not used[w] and sig1[v] == sig2[w] and consistent(v, w):
                assignment[v] = w
                used[w] = True
                if backtrack(v + 1):
                    return True
                assignment[v] = None
                used[w] = False
        return False

    if not backtrack(0):
        return False, None

    f0 = tuple(assignment)  # type: ignore[arg-type]
    # pair up parallel edges between matched endpoints by label, then id
    f1 = [0] * graph1.n_edges
    for a in range(n):
        edges1 = sorted(graph1.out_adjacency[a], key=lambda e: (f0[graph1.edge_tgt[e]], keys1[e], e))
        edges2 = sorted(graph2.out_adjacency[f0[a]], key=lambda e: (graph2.edge_tgt[e], keys2[e], e))
        for e1, e2 in zip(edges1, edges2):
            f1[e1] = e2
    return True, (f0, tuple(f1))


def oracle_graph_entries(vertices: list, edges: list, algebra) -> tuple:
    """The graph reader written plainly, a helper call per check: the
    reference that `model_io._graph_entries` is tested against.  Raises on
    the first entry that fails a check, with its message."""
    vertex_ids: list[str] = []
    names: list[str] = []
    index: dict[str, int] = {}
    # each check builds its message only when it fails
    for entry in vertices:
        _require(isinstance(entry, dict) and "id" in entry, "schema", "each vertex needs an id")
        vid = _as_id(entry["id"], "vertex")
        if vid in index:
            raise ModelFormatError("schema", f"duplicate vertex id {vid!r}")
        index[vid] = len(vertex_ids)
        vertex_ids.append(vid)
        name = entry.get("name", vid)
        if not isinstance(name, str):
            raise ModelFormatError("schema", f"vertex {vid!r}: name must be a string")
        names.append(name)

    edge_ids: list[str] = []
    seen_edges: set[str] = set()
    src: list[int] = []
    tgt: list[int] = []
    labels: list = []
    for entry in edges:
        _require(isinstance(entry, dict) and "id" in entry, "schema", "each edge needs an id")
        eid = _as_id(entry["id"], "edge")
        if eid in seen_edges:
            raise ModelFormatError("schema", f"duplicate edge id {eid!r}")
        seen_edges.add(eid)
        edge_ids.append(eid)
        for key in ("src", "tgt"):
            if key not in entry:
                raise ModelFormatError("schema", f"edge {eid!r} is missing {key}")
            endpoint = entry[key]
            if type(endpoint) is not str:
                endpoint = _as_id(endpoint, f"edge {eid!r} {key}")
            if endpoint not in index:
                raise ModelFormatError(
                    "dangling-id", f"edge {eid!r}: {key} {endpoint!r} is not a vertex id"
                )
            (src if key == "src" else tgt).append(index[endpoint])
        if "label" not in entry:
            raise ModelFormatError("schema", f"edge {eid!r} is missing its label")
        try:
            labels.append(algebra.parse_label(entry["label"]))
        except KeyError as exc:
            raise ModelFormatError(
                "unknown-element", f"edge {eid!r}: {exc.args[0]}"
            ) from None
    return vertex_ids, names, edge_ids, src, tgt, labels
