"""Cycles and feedback with commutative-monoid coefficients.

A chain assigns coefficients to edges (or vertices); a cycle is a chain
whose source-weighted and target-weighted vertex sums agree.  Over the
naturals this notion sees edge directions, which is what makes it the right
home for feedback loops: the nonzero cycles minimal in the pointwise order
are exactly the rotation classes of simple loops, every bounded circulation
is a sum of simple loops, and a labeling extends to a feedback homomorphism
determined by its values on those minimal cycles.

`cycles` lists every cycle over a finite range of coefficients by
backtracking over edges, checking each vertex's balance once all its edges
have values.

Over the naturals the arithmetic is exact and stays in Python ints:
`find_relations` eliminates by cross-multiplying integer rows (no
fractions), `decompose_cycle` checks one integer balance per vertex, and
`feedback` folds a loop's labels without building its chain.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Sequence

from .algebra import Element, LabelAlgebra, TableAlgebra, algebra_name, named_algebra
from .graphs import Graph, LabeledGraph, undirected_components
from .paths import Path, grade
from .validation import _assignments, _over_guard, record

NAT = named_algebra("NatAdd")


@record(frozen=True)
class Chain:
    """A finitely supported coefficient assignment; zero entries are dropped."""

    algebra: LabelAlgebra
    items: tuple[tuple[int, Element], ...]
    carrier: str = "edges"

    def coeff(self, i: int) -> Element:
        for j, value in self.items:
            if j == i:
                return value
        return self.algebra.zero

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.items)

    @property
    def is_zero(self) -> bool:
        return not self.items

    def as_dict(self) -> dict[int, Element]:
        return dict(self.items)


def chain(algebra: LabelAlgebra, coeffs: dict[int, Element], carrier: str = "edges") -> Chain:
    """Canonicalize a coefficient mapping into a Chain."""
    zero = algebra.zero
    items = tuple(sorted((i, v) for i, v in coeffs.items() if v != zero))
    for _, v in items:
        if not algebra.contains(v):
            raise ValueError(f"coefficient {v!r} is not an element of the algebra")
    return Chain(algebra, items, carrier)


def nat_chain(coeffs: dict[int, int], carrier: str = "edges") -> Chain:
    return chain(NAT, coeffs, carrier)


def chain_add(a: Chain, b: Chain) -> Chain:
    if a.algebra != b.algebra or a.carrier != b.carrier:
        raise ValueError("chains do not share an algebra and carrier")
    total = a.as_dict()
    for i, v in b.items:
        total[i] = a.algebra.add(total[i], v) if i in total else v
    return chain(a.algebra, total, a.carrier)


def boundary_pair(c: Chain, g: Graph) -> tuple[Chain, Chain]:
    """Source- and target-weighted vertex chains of an edge chain."""
    if c.carrier != "edges":
        raise ValueError("boundary is taken of edge chains")
    algebra = c.algebra
    at_src: dict[int, Element] = {}
    at_tgt: dict[int, Element] = {}
    _check_edges(c.support, g, "chain")
    for e, v in c.items:
        s, t = g.edge_src[e], g.edge_tgt[e]
        at_src[s] = algebra.add(at_src[s], v) if s in at_src else v
        at_tgt[t] = algebra.add(at_tgt[t], v) if t in at_tgt else v
    return chain(algebra, at_src, "vertices"), chain(algebra, at_tgt, "vertices")


def is_cycle(c: Chain, g: Graph) -> bool:
    src_chain, tgt_chain = boundary_pair(c, g)
    return src_chain == tgt_chain


@record(frozen=True)
class H0Result:
    components: tuple[tuple[int, ...], ...]
    description: str

    @property
    def count(self) -> int:
        return len(self.components)


def h0(g: Graph, algebra: LabelAlgebra) -> H0Result:
    """Degree-zero homology: the free span on undirected components.

    A connected graph therefore has one generator, i.e. H0 is a copy of the
    coefficient monoid itself.
    """
    algebra.zero  # raises unless the algebra has a coefficient view
    blocks = tuple(tuple(b) for b in undirected_components(g))
    return H0Result(blocks, f"C[pi0(G)]: free on {len(blocks)} undirected component(s)")


@record(frozen=True)
class SimpleLoop:
    """A directed circuit visiting no vertex twice, stored as the
    lexicographically smallest rotation of its edge-id sequence."""

    edges: tuple[int, ...]

    def __post_init__(self):
        if not self.edges:
            raise ValueError("a loop has at least one edge")

    def vertices(self, g: Graph) -> tuple[int, ...]:
        _check_edges(self.edges, g, "loop")
        return tuple(g.edge_src[e] for e in self.edges)

    def indicator(self) -> Chain:
        return nat_chain({e: 1 for e in self.edges})

    def as_path(self, g: Graph) -> Path:
        """The loop as a path from its first edge's source; `check_path`
        names a later edge that is missing."""
        _check_edges(self.edges[:1], g, "loop")
        return Path(g.edge_src[self.edges[0]], self.edges)


def canonical_rotation(edges: Sequence[int]) -> tuple[int, ...]:
    """The rotation starting at the least edge id.

    The edge ids of a simple loop are distinct, so this is its
    lexicographically smallest rotation.
    """
    seq = tuple(edges)
    i = seq.index(min(seq))
    return seq[i:] + seq[:i]


def _check_edges(edges: Sequence[int], g: Graph, noun: str) -> None:
    """Raise for the first of `edges`, in sequence order, that is not an
    edge of `g`, naming the `noun` (loop or chain) that mentions it."""
    if edges and (min(edges) < 0 or max(edges) >= g.n_edges):
        missing = next(e for e in edges if not 0 <= e < g.n_edges)
        raise ValueError(f"{noun} mentions missing edge {missing}")


def simple_loop(g: Graph, edges: Sequence[int]) -> SimpleLoop:
    """Validate an edge sequence as a simple loop and canonicalize it."""
    edges = tuple(edges)
    _check_edges(edges, g, "loop")
    for e, e_next in zip(edges, edges[1:] + edges[:1]):
        if g.edge_tgt[e] != g.edge_src[e_next]:
            raise ValueError("edge sequence does not close up into a loop")
    visited = [g.edge_src[e] for e in edges]
    if len(set(visited)) != len(visited):
        raise ValueError("loop visits a vertex twice")
    return SimpleLoop(canonical_rotation(edges))


LOOP_CAP = 10000
# the most loops, counted with multiplicity, that `decompose_cycle` returns
_PARTS_GUARD = 10**6
# the most free-coordinate values `find_relations` tries
_RELATION_GUARD = 10**6
# the most values `cycles` tries: a tree of 10^6 leaves has fewer than twice as many nodes
_CYCLE_GUARD = 2 * 10**6


def _split_components(vertices: list[int], comp: list[int], members: list[list[int]], g: Graph) -> None:
    """Give each strongly connected component of the subgraph induced on
    `vertices` a fresh id: its index in `members`, which it is appended to.

    `vertices` are exactly the vertices v with ``comp[v]`` equal to
    ``comp[vertices[0]]``.  Tarjan's algorithm with explicit stacks, so
    deep graphs stay off the interpreter stack; a visited vertex keeps its
    old id exactly while it is on Tarjan's stack.
    """
    inside = comp[vertices[0]]
    out_adjacency, edge_tgt = g.out_adjacency, g.edge_tgt
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    for root in vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        frames = [(root, iter(out_adjacency[root]))]
        while frames:
            v, edges = frames[-1]
            for e in edges:
                w = edge_tgt[e]
                if comp[w] != inside:
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    frames.append((w, iter(out_adjacency[w])))
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
            else:
                frames.pop()
                if frames and low[v] < low[frames[-1][0]]:
                    low[frames[-1][0]] = low[v]
                if low[v] == index[v]:
                    block = []
                    while True:
                        w = stack.pop()
                        comp[w] = len(members)
                        block.append(w)
                        if w == v:
                            break
                    members.append(block)


def _circuits(g: Graph):
    """Yield every elementary directed circuit once, as a canonical
    SimpleLoop, in the order met when each is anchored at its least vertex
    and searched depth first in `out_adjacency` order.

    Johnson's algorithm: anchor `s` searches only inside its strongly
    connected component of the subgraph induced on {s, ..., n-1}.  After
    the search `s` leaves the graph and only its own component is split
    again, so vertices on no circuit cost O(1) each.  A component with as
    many internal edges as vertices (at least two) is one circuit: it is
    walked from `s` and leaves the graph whole, without a search or a split.
    In a search a vertex is blocked only while every path from it back to
    `s` meets the current trail, so the circuits come out in the order of
    the unpruned depth-first search.
    """
    # comp[v]: the id of v's component, an index into `members`; -1 before
    # the first split, once v has been an anchor, and once its ring is found
    comp = [-1] * g.n_vertices
    members: list[list[int]] = []
    if g.n_vertices:
        _split_components(list(range(g.n_vertices)), comp, members, g)
    out_adjacency, edge_tgt = g.out_adjacency, g.edge_tgt
    for s in range(g.n_vertices):
        inside = comp[s]
        if inside < 0:
            continue  # on a ring an earlier anchor recorded
        block = members[inside]
        if len(block) == 1:
            # only self-loops close here, and no later search enters `s`
            for e in out_adjacency[s]:
                if edge_tgt[e] == s:
                    yield SimpleLoop((e,))
            continue
        # each vertex of a strongly connected block has an internal edge
        # out, so a block with no more internal edges than vertices is a
        # ring, and its i-th internal edge leaves its i-th vertex
        internal = (e for v in block for e in out_adjacency[v] if comp[edge_tgt[e]] == inside)
        ring = list(itertools.islice(internal, len(block) + 1))
        if len(ring) == len(block):
            step = dict(zip(block, ring))
            trail = [step[s]]
            while edge_tgt[trail[-1]] != s:
                trail.append(step[edge_tgt[trail[-1]]])
            yield SimpleLoop(canonical_rotation(trail))
            for v in block:
                comp[v] = -1
            continue
        blocked = {s}
        waiting: dict[int, set[int]] = {}  # Johnson's B lists
        trail = []
        # [vertex, its untried out-edges, whether a circuit closed through it]
        frames = [[s, iter(out_adjacency[s]), False]]
        while frames:
            frame = frames[-1]
            for e in frame[1]:
                w = edge_tgt[e]
                if w == s:
                    yield SimpleLoop(canonical_rotation(trail + [e]))
                    frame[2] = True
                elif comp[w] == inside and w not in blocked:
                    blocked.add(w)
                    trail.append(e)
                    frames.append([w, iter(out_adjacency[w]), False])
                    break
            else:
                frames.pop()
                v, _, closed = frame
                if closed:
                    pending = [v]
                    while pending:
                        u = pending.pop()
                        if u in blocked:
                            blocked.discard(u)
                            pending.extend(waiting.pop(u, ()))
                else:
                    for e in out_adjacency[v]:
                        w = edge_tgt[e]
                        if comp[w] == inside:
                            waiting.setdefault(w, set()).add(v)
                if frames:
                    trail.pop()
                    if closed:
                        frames[-1][2] = True
        comp[s] = -1
        _split_components([v for v in block if v != s], comp, members, g)


def simple_loops(g: Graph, cap: int = LOOP_CAP):
    """All elementary directed circuits, one per rotation class.

    Parallel edges give distinct circuits.  Returns ``(loops, truncated)``:
    the first `cap` circuits `_circuits` meets, sorted by canonical edge
    sequence, and whether more exist, as `find_motif_groups` reports
    `max_results`.  Raises ValueError when `cap` is negative.
    """
    if cap < 0:
        raise ValueError(f"cap must be at least 0, got {cap}")
    loops = list(itertools.islice(_circuits(g), cap + 1))
    return sorted(loops[:cap], key=lambda loop: loop.edges), len(loops) > cap


def decompose_cycle(c: Chain, g: Graph) -> list[SimpleLoop]:
    """Write a natural-number circulation as a multiset of simple loops.

    Walks positive-coefficient edges until a vertex repeats, peels off the
    loop between the repeats with its full multiplicity, and starts over.
    The returned loops (with repetitions) re-sum exactly to the input.
    Raises ValueError when they would number more than `_PARTS_GUARD`
    (10^6), before the list is built.
    """
    if c.algebra != NAT:
        raise ValueError("decomposition works on natural-number chains")
    if c.carrier != "edges":
        raise ValueError("boundary is taken of edge chains")
    src, tgt, out_adjacency = g.edge_src, g.edge_tgt, g.out_adjacency
    # out-flow minus in-flow at each vertex; a cycle balances everywhere
    balance = [0] * g.n_vertices
    _check_edges(c.support, g, "chain")
    for e, x in c.items:
        balance[src[e]] += x
        balance[tgt[e]] -= x
    if any(balance):
        raise ValueError("chain is not a cycle")
    # every value kept is positive
    work = c.as_dict()
    # each peel zeroes an edge, so there are at most as many as edges
    peels: list[tuple[SimpleLoop, int]] = []
    while work:
        first = min(work)
        at = src[first]
        seen = {at: 0}
        trail: list[int] = []
        while True:
            # a balanced chain leaves every vertex it enters
            for step in out_adjacency[at]:
                if step in work:
                    break
            trail.append(step)
            at = tgt[step]
            if at in seen:
                loop_edges = trail[seen[at]:]
                multiplicity = min(work[e] for e in loop_edges)
                for e in loop_edges:
                    work[e] -= multiplicity
                    if work[e] == 0:
                        del work[e]
                peels.append((SimpleLoop(canonical_rotation(loop_edges)), multiplicity))
                break
            seen[at] = len(trail)
    total = sum(multiplicity for _, multiplicity in peels)
    if total > _PARTS_GUARD:
        raise ValueError(_over_guard(f"decomposition into {total} loops", _PARTS_GUARD))
    parts: list[SimpleLoop] = []
    for loop, multiplicity in peels:
        parts.extend([loop] * multiplicity)
    return sorted(parts, key=lambda loop: loop.edges)


def scale_nat(algebra: LabelAlgebra, n: int, x: Element) -> Element:
    """Add `x` to itself `n` times (doubling, so huge `n` stays cheap)."""
    if n < 0:
        raise ValueError("natural-number scaling only")
    total = algebra.zero
    power = x
    while n:
        if n & 1:
            total = algebra.add(total, power)
        n >>= 1
        if n:
            power = algebra.add(power, power)
    return total


def feedback(c, g: LabeledGraph) -> Element:
    """The labeling homomorphism applied to a cycle: sum of coefficient-many
    copies of each edge label in the (commutative) label algebra.

    A simple loop is its indicator chain: its labels are added in ascending
    edge id, each as `scale_nat` adds it once, without building the chain.
    """
    algebra, labels = g.algebra, g.labels
    add = algebra.add
    if isinstance(c, SimpleLoop):
        edges = sorted(set(c.edges))  # the support of its indicator chain
        zero = total = algebra.zero
        _check_edges(edges, g.graph, "chain")
        for e in edges:
            total = add(total, add(zero, labels[e]))
        return total
    if c.algebra != NAT:
        raise ValueError("feedback needs a natural-number chain")
    total = algebra.zero
    _check_edges(c.support, g.graph, "chain")
    for e, n in c.items:
        total = add(total, scale_nat(algebra, n, labels[e]))
    return total


def loop_polarity(loop: SimpleLoop, g: LabeledGraph) -> Element:
    """Product of the labels around the loop.

    Every rotation gives the same product over a commutative algebra, so
    the canonical rotation's is returned.  Over a table algebra not
    declared commutative, the rotations' products are conjugates that
    differ, and the least by element index is returned, so the polarity
    does not depend on which edge has the least id.  Later edges multiply
    on the left: rotation i grades to grade(e_0..e_i-1) * grade(e_i..e_n-1),
    so prefix and suffix grades give every rotation in O(n) products.
    """
    polarity = grade(loop.as_path(g.graph), g)
    algebra = g.algebra
    if not isinstance(algebra, TableAlgebra) or algebra.flags.commutative:
        return polarity
    mul, labels = algebra.mul, [g.labels[e] for e in loop.edges]
    # suffixes[i] is grade(e_i..e_n-1); suffixes[0] is `polarity`
    suffixes = [algebra.one]
    for label in reversed(labels):
        suffixes.append(mul(suffixes[-1], label))
    suffixes.reverse()
    prefix = algebra.one
    for i in range(1, len(labels)):
        prefix = mul(labels[i - 1], prefix)
        polarity = min(polarity, mul(prefix, suffixes[i]))
    return polarity


@record(frozen=True)
class Relation:
    """Two distinct coefficient vectors over the loop list with equal chain sums."""

    lhs: tuple[int, ...]
    rhs: tuple[int, ...]


def _combine(p: int, row: dict[int, int], a: int, other: dict[int, int]) -> None:
    """Make `row` p * row - a * other, divided by the gcd of its entries;
    sparse rows omit zero entries.  Unit pivots are the rule on 0/1
    incidence rows."""
    if p != 1:
        for col in row:
            row[col] *= p
    for col, y in other.items():
        x = row.get(col, 0) - a * y
        if x:
            row[col] = x
        else:
            del row[col]
    g = math.gcd(*row.values())
    if g > 1:
        for col in row:
            row[col] //= g


def find_relations(loops: Sequence[SimpleLoop], bound: int = 1) -> list[Relation]:
    """All bound-limited relations among loop indicator chains.

    Pairs that merely add a common part to both sides of a smaller relation
    are excluded: sides must have disjoint support.  Symmetric duplicates are
    reported once, smaller side first.

    Such a pair is (z+, z-) for a nonzero integer vector z with every
    |z_i| <= bound in the kernel of the edge-by-loop incidence matrix, taken
    once up to sign.  Fraction-free Gauss-Jordan elimination over the
    integers (cross-multiplying, then dividing each row by its gcd) leaves
    d = k - rank free coordinates; all (2*bound + 1)^d values of them are
    tried, keeping those whose pivot coordinates come out integral and
    within the bound.  At bound 0 only z = 0 is in range, so there is no
    relation and nothing is eliminated.  Raises ValueError when that count exceeds
    `_RELATION_GUARD`, or when `bound` is negative.
    """
    if bound < 0:
        raise ValueError(f"coefficient bound must be at least 0, got {bound}")
    if bound == 0:
        return []  # no nonzero vector has every |z_i| <= 0
    k = len(loops)
    base = 2 * bound + 1
    # one row per edge, listing the loops through it; repeated rows add no rank
    by_edge: dict[int, list[int]] = {}
    for i, loop in enumerate(loops):
        for e in loop.edges:
            by_edge.setdefault(e, []).append(i)
    rows = set(map(tuple, by_edge.values()))
    least_free = max(k - len(rows), 0)
    if base ** least_free > _RELATION_GUARD:
        raise ValueError(_over_guard(f"relation search space at least {base}^{least_free}", _RELATION_GUARD))
    # each pivot row is primitive, has a positive entry in its pivot column
    # and 0 in every other pivot column; holders[c] lists, with repeats, the
    # pivot columns of rows that have held an entry in column c
    pivots: dict[int, dict[int, int]] = {}
    holders: dict[int, list[int]] = {}
    for through in rows:
        row: dict[int, int] = {}
        for i in through:
            row[i] = row.get(i, 0) + 1
        # pivot rows are 0 in each other's pivot columns, so each combination
        # clears one pivot column of `row` and leaves the rest nonzero
        for col in [c for c in row if c in pivots]:
            pivot_row = pivots[col]
            _combine(pivot_row[col], row, row[col], pivot_row)
        if not row:
            continue
        col = min(row)
        g = math.gcd(*row.values())
        if row[col] < 0:
            g = -g
        if g != 1:
            row = {c: x // g for c, x in row.items()}
        # a cleared row gains entries only in the columns of `row`
        touched = [col]
        for other in holders.pop(col, ()):
            pivot_row = pivots[other]
            if col in pivot_row:
                _combine(row[col], pivot_row, pivot_row[col], row)
                touched.append(other)
        pivots[col] = row
        for c in row:
            holders.setdefault(c, []).extend(touched)
    free = [col for col in range(k) if col not in pivots]
    if base ** len(free) > _RELATION_GUARD:
        raise ValueError(_over_guard(f"relation search space {base}^{len(free)}", _RELATION_GUARD))
    # den * z[p] + sum(row[f] * z[f]) = 0 over free f, so z[p] = -num / den;
    # the row is primitive, so den and the terms share no factor.  A pivot
    # without free terms is 0 in every kernel vector, so it needs no check.
    solved = []
    for col, row in pivots.items():
        terms = tuple(row.get(f, 0) for f in free)
        if any(terms):
            solved.append((col, row[col], terms))
    origin = (0,) * len(free)
    relations = []
    for values in itertools.product(range(-bound, bound + 1), repeat=len(free)):
        if values <= origin:
            continue  # zero, or first nonzero negative: the negative of a vector also tried
        z = [0] * k
        for col, den, terms in solved:
            num = sum(map(operator.mul, terms, values))
            if num % den or abs(num) > bound * den:
                break
            z[col] = -num // den
        else:
            for f, x in zip(free, values):
                z[f] = x
            lhs = tuple([max(x, 0) for x in z])
            rhs = tuple([max(-x, 0) for x in z])
            relations.append(Relation(min(lhs, rhs), max(lhs, rhs)))
    return sorted(relations, key=lambda r: (r.lhs, r.rhs))


def cycles(g: Graph, algebra: LabelAlgebra, bound: int | None = None) -> list[Chain]:
    """Every cycle with coefficients among the elements of a table algebra,
    or in 0..`bound` over NatAdd, sorted by coefficient tuple.

    Vertices are placed in ascending id, each edge is assigned once its
    later endpoint is placed, and a vertex whose last edge gets a value must
    balance (forward checking; the coefficient view is commutative, so the
    order of summing is immaterial).  Raises ValueError past `_CYCLE_GUARD`
    tries, or when `bound` is negative.
    """
    if isinstance(algebra, TableAlgebra):
        values = range(algebra.size)
    elif algebra == NAT:
        if bound is None:
            raise ValueError("natural-number enumeration needs a coefficient bound")
        if bound < 0:
            raise ValueError(f"coefficient bound must be at least 0, got {bound}")
        values = range(bound + 1)
    else:
        raise ValueError(f"cycles are enumerated over finite tables or NatAdd, not {algebra_name(algebra)}")
    add, zero = algebra.add, algebra.zero  # zero raises unless there is a coefficient view
    src, tgt = g.edge_src, g.edge_tgt
    order = sorted(range(g.n_edges), key=lambda e: (max(src[e], tgt[e]), e))
    last = {v: i for i, e in enumerate(order) for v in (src[e], tgt[e])}
    closing: list[list[int]] = [[] for _ in order]  # the vertices whose last edge is order[i]
    for v, i in last.items():
        closing[i].append(v)
    out_sum, in_sum = [zero] * g.n_vertices, [zero] * g.n_vertices
    nodes = 0

    def balancing(i: int, _):
        # the values of edge order[i] that balance the vertices it closes
        nonlocal nodes
        s, t = src[order[i]], tgt[order[i]]
        out_before, in_before = out_sum[s], in_sum[t]
        for x in values:
            nodes += 1
            if nodes > _CYCLE_GUARD:
                space = f"cycle search space {len(values)}^{len(order)} expanded {nodes} nodes"
                raise ValueError(_over_guard(space, _CYCLE_GUARD))
            out_sum[s], in_sum[t] = add(out_before, x), add(in_before, x)
            if all(out_sum[v] == in_sum[v] for v in closing[i]):
                yield x
        out_sum[s], in_sum[t] = out_before, in_before

    # a found cycle is stored as one integer, its coefficients as digits, edge 0 first
    weight = [len(values) ** (g.n_edges - 1 - e) for e in order]
    found = [sum(map(operator.mul, weight, xs)) for xs in _assignments(len(order), balancing)]
    return [chain(algebra, {e: code // w % len(values) for e, w in zip(order, weight)}) for code in sorted(found)]
