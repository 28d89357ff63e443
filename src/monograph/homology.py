"""Cycles and feedback with commutative-monoid coefficients.

A chain assigns coefficients to edges (or vertices); a cycle is a chain
whose source-weighted and target-weighted vertex sums agree.  Over the
naturals this notion sees edge directions, which is what makes it the right
home for feedback loops: the nonzero cycles minimal in the pointwise order
are exactly the rotation classes of simple loops, every bounded circulation
is a sum of simple loops, and a labeling extends to a feedback homomorphism
determined by its values on those minimal cycles.

Brute-force enumerators double as oracles for all of the above at desk scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .algebra import BuiltinAlgebra, Element, LabelAlgebra, TableAlgebra
from .graphs import Graph, LabeledGraph, undirected_components
from .paths import Path, grade

NAT = BuiltinAlgebra("NatAdd")


@dataclass(frozen=True)
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
    for e, v in c.items:
        if not (0 <= e < g.n_edges):
            raise ValueError(f"chain mentions missing edge {e}")
        s, t = g.edge_src[e], g.edge_tgt[e]
        at_src[s] = algebra.add(at_src[s], v) if s in at_src else v
        at_tgt[t] = algebra.add(at_tgt[t], v) if t in at_tgt else v
    return chain(algebra, at_src, "vertices"), chain(algebra, at_tgt, "vertices")


def is_cycle(c: Chain, g: Graph) -> bool:
    src_chain, tgt_chain = boundary_pair(c, g)
    return src_chain == tgt_chain


@dataclass(frozen=True)
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
    algebra.zero  # raises unless the algebra has a commutative view
    blocks = tuple(tuple(b) for b in undirected_components(g))
    return H0Result(blocks, f"C[pi0(G)]: free on {len(blocks)} undirected component(s)")


@dataclass(frozen=True)
class SimpleLoop:
    """A directed circuit visiting no vertex twice, stored as the
    lexicographically smallest rotation of its edge-id sequence."""

    edges: tuple[int, ...]

    def __post_init__(self):
        if not self.edges:
            raise ValueError("a loop has at least one edge")

    def vertices(self, g: Graph) -> tuple[int, ...]:
        return tuple(g.edge_src[e] for e in self.edges)

    def indicator(self) -> Chain:
        return nat_chain({e: 1 for e in self.edges})

    def as_path(self, g: Graph) -> Path:
        return Path(g.edge_src[self.edges[0]], self.edges)


def canonical_rotation(edges: Sequence[int]) -> tuple[int, ...]:
    seq = tuple(edges)
    return min(seq[i:] + seq[:i] for i in range(len(seq)))


def simple_loop(g: Graph, edges: Sequence[int]) -> SimpleLoop:
    """Validate an edge sequence as a simple loop and canonicalize it."""
    edges = tuple(edges)
    for e, e_next in zip(edges, edges[1:] + edges[:1]):
        if g.edge_tgt[e] != g.edge_src[e_next]:
            raise ValueError("edge sequence does not close up into a loop")
    visited = [g.edge_src[e] for e in edges]
    if len(set(visited)) != len(visited):
        raise ValueError("loop visits a vertex twice")
    return SimpleLoop(canonical_rotation(edges))


LOOP_CAP = 10000


def simple_loops(g: Graph, cap: int = LOOP_CAP):
    """All elementary directed circuits, one per rotation class.

    Parallel edges give distinct circuits.  Returns ``(loops, truncated)``
    sorted by canonical edge sequence; `truncated` reports hitting the cap.
    """
    out_adjacency = g.out_adjacency
    found: list[SimpleLoop] = []
    truncated = False

    def search(anchor: int, at: int, visited: set[int], trail: list[int]) -> bool:
        # circuits are anchored at their minimal vertex, so each rotation
        # class is produced exactly once
        for e in out_adjacency[at]:
            w = g.edge_tgt[e]
            if w == anchor:
                found.append(SimpleLoop(canonical_rotation(trail + [e])))
                if len(found) >= cap:
                    return False
            elif w > anchor and w not in visited:
                visited.add(w)
                trail.append(e)
                keep_going = search(anchor, w, visited, trail)
                trail.pop()
                visited.remove(w)
                if not keep_going:
                    return False
        return True

    for anchor in range(g.n_vertices):
        if not search(anchor, anchor, {anchor}, []):
            truncated = True
            break
    return sorted(found, key=lambda loop: loop.edges), truncated


def decompose_cycle(c: Chain, g: Graph) -> list[SimpleLoop]:
    """Write a natural-number circulation as a multiset of simple loops.

    Walks positive-coefficient edges until a vertex repeats, peels off the
    loop between the repeats with its full multiplicity, and starts over.
    The returned loops (with repetitions) re-sum exactly to the input.
    """
    if c.algebra != NAT:
        raise ValueError("decomposition works on natural-number chains")
    if not is_cycle(c, g):
        raise ValueError("chain is not a cycle")
    work = c.as_dict()
    parts: list[SimpleLoop] = []
    while work:
        first = min(work)
        at = g.edge_src[first]
        seen = {at: 0}
        trail: list[int] = []
        while True:
            step = next(e for e in g.out_adjacency[at] if work.get(e, 0) > 0)
            trail.append(step)
            at = g.edge_tgt[step]
            if at in seen:
                loop_edges = trail[seen[at]:]
                multiplicity = min(work[e] for e in loop_edges)
                for e in loop_edges:
                    work[e] -= multiplicity
                    if work[e] == 0:
                        del work[e]
                parts.extend([SimpleLoop(canonical_rotation(loop_edges))] * multiplicity)
                break
            seen[at] = len(trail)
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
    copies of each edge label in the (commutative) label algebra."""
    if isinstance(c, SimpleLoop):
        c = c.indicator()
    if c.algebra != NAT:
        raise ValueError("feedback needs a natural-number chain")
    algebra = g.algebra
    total = algebra.zero
    for e, n in c.items:
        total = algebra.add(total, scale_nat(algebra, n, g.labels[e]))
    return total


def loop_polarity(loop: SimpleLoop, g: LabeledGraph) -> Element:
    """Product of the labels around the loop, from its canonical rotation.

    Rotation-independent over commutative algebras; otherwise the value is
    reported for the canonical rotation.
    """
    return grade(loop.as_path(g.graph), g)


@dataclass(frozen=True)
class Relation:
    """Two distinct coefficient vectors over the loop list with equal chain sums."""

    lhs: tuple[int, ...]
    rhs: tuple[int, ...]


def find_relations(
    loops: Sequence[SimpleLoop], bound: int = 1, guard: int = 10**6
) -> list[Relation]:
    """All bound-limited relations among loop indicator chains.

    Pairs that merely add a common part to both sides of a smaller relation
    are excluded: sides must have disjoint support.  Symmetric duplicates are
    reported once, smaller side first.
    """
    k = len(loops)
    if (bound + 1) ** k > guard:
        raise ValueError("relation search space exceeds the guard")
    sums: dict[tuple, list[tuple[int, ...]]] = {}
    for vector in itertools.product(range(bound + 1), repeat=k):
        total: dict[int, int] = {}
        for coefficient, loop in zip(vector, loops):
            if coefficient:
                for e in loop.edges:
                    total[e] = total.get(e, 0) + coefficient
        key = tuple(sorted(total.items()))
        sums.setdefault(key, []).append(vector)
    relations = []
    for vectors in sums.values():
        for lhs, rhs in itertools.combinations(vectors, 2):
            if all(min(a, b) == 0 for a, b in zip(lhs, rhs)):
                relations.append(Relation(min(lhs, rhs), max(lhs, rhs)))
    return sorted(relations, key=lambda r: (r.lhs, r.rhs))


def brute_force_h1(g: Graph, algebra: TableAlgebra, guard: int = 10**6) -> list[Chain]:
    """Every cycle with coefficients in a finite algebra, by enumeration."""
    if not isinstance(algebra, TableAlgebra):
        raise ValueError("exhaustive search needs a finite coefficient algebra")
    size = algebra.size
    if size ** g.n_edges > guard:
        raise ValueError("enumeration space exceeds the guard")
    cycles = []
    for assignment in itertools.product(range(size), repeat=g.n_edges):
        candidate = chain(algebra, dict(enumerate(assignment)))
        if is_cycle(candidate, g):
            cycles.append(candidate)
    return cycles


def brute_force_circulations(g: Graph, bound: int, guard: int = 10**6) -> list[Chain]:
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
            cycles.append(nat_chain(dict(enumerate(assignment))))
    return cycles


def minimal_elements(chains: Iterable[Chain]) -> list[Chain]:
    """Nonzero chains minimal in the pointwise order among those given.

    For natural-number cycles the pointwise order coincides with the
    canonical preorder (x below y iff x plus some cycle equals y).
    """
    pool = [c for c in chains if not c.is_zero]

    def below(a: Chain, b: Chain) -> bool:
        b_coeffs = b.as_dict()
        return all(e in b_coeffs and v <= b_coeffs[e] for e, v in a.items)

    return [c for c in pool if not any(other != c and below(other, c) for other in pool)]
