"""Paths, their grades, and Kleisli morphisms between labeled graphs.

A path's grade is the product of its labels with later edges multiplied on
the left, so for edges e1, ..., en the grade is l(en) * ... * l(e1).  The
order matters for non-commutative algebras such as transformation monoids,
where the grade must equal the left-to-right composite action.

A Kleisli morphism sends vertices to vertices and edges to grade-matching
paths; by freeness these generator images determine everything, so nothing
else is stored.
"""

from __future__ import annotations

from .algebra import Element, MonoidHom
from .graphs import Graph, LabeledGraph, change_labels
from .validation import record, replace


@record(frozen=True)
class Path:
    """An edge sequence starting at `start`; empty means the identity there."""

    start: int
    edges: tuple[int, ...] = ()


def check_path(p: Path, g: Graph) -> None:
    if not (0 <= p.start < g.n_vertices):
        raise ValueError(f"path start {p.start} is not a vertex")
    at = p.start
    for e in p.edges:
        if not (0 <= e < g.n_edges):
            raise ValueError(f"path edge {e} does not exist")
        if g.edge_src[e] != at:
            raise ValueError(f"edge {e} does not start where the path has arrived")
        at = g.edge_tgt[e]


def path_end(p: Path, g: Graph) -> int:
    return g.edge_tgt[p.edges[-1]] if p.edges else p.start


def grade(p: Path, g: LabeledGraph) -> Element:
    """Product of the labels along the path; the empty path grades to the unit."""
    check_path(p, g.graph)
    value = g.algebra.one
    for e in p.edges:
        value = g.algebra.mul(g.labels[e], value)
    return value


def compose_paths(p: Path, q: Path, g: Graph) -> Path:
    """`p` followed by `q`; requires p to end where q starts."""
    check_path(p, g)
    check_path(q, g)
    if path_end(p, g) != q.start:
        raise ValueError("paths do not compose: p does not end where q starts")
    return Path(p.start, p.edges + q.edges)


@record(frozen=True)
class KleisliMorphism:
    source: LabeledGraph
    target: LabeledGraph
    vertex_map: tuple[int, ...]
    edge_map: tuple[Path, ...] = ()


def is_kleisli_morphism(k: KleisliMorphism):
    """Check endpoints and grade for every edge image; witness edge otherwise."""
    if k.source.algebra != k.target.algebra:
        raise ValueError("both graphs must share one label algebra")
    src_g, tgt_g = k.source.graph, k.target.graph
    if len(k.vertex_map) != src_g.n_vertices or len(k.edge_map) != src_g.n_edges:
        raise ValueError("vertex or edge map is not total")
    if any(not (0 <= v < tgt_g.n_vertices) for v in k.vertex_map):
        raise ValueError("vertex map hits a missing vertex")
    for e in range(src_g.n_edges):
        image = k.edge_map[e]
        check_path(image, tgt_g)
        if image.start != k.vertex_map[src_g.edge_src[e]]:
            return False, e
        if path_end(image, tgt_g) != k.vertex_map[src_g.edge_tgt[e]]:
            return False, e
        if grade(image, k.target) != k.source.labels[e]:
            return False, e
    return True, None


def kleisli_identity(g: LabeledGraph) -> KleisliMorphism:
    paths = tuple(Path(g.graph.edge_src[e], (e,)) for e in range(g.graph.n_edges))
    return KleisliMorphism(g, g, tuple(range(g.graph.n_vertices)), paths)


def compose_kleisli(outer: KleisliMorphism, inner: KleisliMorphism) -> KleisliMorphism:
    """Substitute the outer morphism's paths into the inner one's edge images."""
    if inner.target != outer.source:
        raise ValueError("morphisms do not compose: target/source mismatch")
    vertex_map = tuple(outer.vertex_map[v] for v in inner.vertex_map)
    edge_map = []
    for image in inner.edge_map:
        edges: list[int] = []
        for e in image.edges:
            edges.extend(outer.edge_map[e].edges)
        edge_map.append(Path(outer.vertex_map[image.start], tuple(edges)))
    return KleisliMorphism(inner.source, outer.target, vertex_map, tuple(edge_map))


def kleisli_respects_hom(phi: MonoidHom, k: KleisliMorphism) -> bool:
    """Endpoint conditions as usual, but grades must match through `phi`:
    `k` must be a Kleisli morphism once its source is relabeled by `phi`."""
    ok, _ = is_kleisli_morphism(replace(k, source=change_labels(phi, k.source)))
    return ok
