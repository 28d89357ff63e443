"""Open labeled graphs: graphs with input and output interfaces.

An open graph is a labeled graph plus two feet (bare finite sets, carrying
no edges) whose elements point at vertices through leg functions.  Feet are
matched by element name when composing.  Composition glues the shared foot
by a vertex quotient; tensoring lays graphs side by side.  The monoidal
laws only hold up to label-respecting isomorphism, which `iso_check` decides
on the shared `validation._assignments`, guarded by the placements it tries.

2-morphisms come in three modes (label-preserving, Kleisli, additive),
listed once in `MORPHISM_MODES`, and compose vertically.  Horizontal
composition of Kleisli-mode 2-morphisms is not implemented: gluing two
edge-to-path maps along a shared foot has no settled recipe, and
`compose_2morphisms` only offers the vertical direction.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Callable, Optional, Union

from .additive import AdditiveMorphism, is_additive_morphism
from .algebra import MonoidHom, _fresh_name
from .graphs import (
    Graph,
    GraphMorphism,
    LabeledGraph,
    change_labels,
    compose_morphisms,
    is_label_preserving,
    undirected_components,
    validate_morphism,
)
from .paths import KleisliMorphism, compose_kleisli, is_kleisli_morphism
from .validation import ValidationReport, _assignments, _first_non_index, _is_index, _over_guard, record, replace


@record(frozen=True)
class OpenGraph:
    inner: LabeledGraph
    left_foot: tuple[str, ...]
    right_foot: tuple[str, ...]
    leg_in: tuple[int, ...]
    leg_out: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.left_foot)) != len(self.left_foot) or len(set(self.right_foot)) != len(self.right_foot):
            raise ValueError("foot element names must be distinct")
        if len(self.leg_in) != len(self.left_foot) or len(self.leg_out) != len(self.right_foot):
            raise ValueError("legs must be total on the feet")
        n = self.inner.graph.n_vertices
        for legs in (self.leg_in, self.leg_out):
            if (bad := _first_non_index(legs, n)) is not None:
                raise ValueError(f"leg target {legs[bad]!r} is not a vertex id")


def identity_open(foot: tuple[str, ...], algebra) -> OpenGraph:
    """The edgeless open graph on a foot, both legs the identity."""
    inner = LabeledGraph(Graph(tuple(foot), (), ()), algebra, ())
    ids = tuple(range(len(foot)))
    return OpenGraph(inner, tuple(foot), tuple(foot), ids, ids)


def empty_open(algebra) -> OpenGraph:
    return identity_open((), algebra)


def _pushout(x: OpenGraph, y: OpenGraph):
    """Glue inner graphs along the shared foot.

    Returns (composite, map_x, map_y) where the maps send old vertex ids to
    composite ids.  Representatives are canonical (smallest combined id) and
    the result is renumbered densely, so output is reproducible.
    """
    if x.inner.algebra != y.inner.algebra:
        raise ValueError("open graphs must share one label algebra")
    if set(x.right_foot) != set(y.left_foot):
        raise ValueError(
            f"foot mismatch: {sorted(x.right_foot)} vs {sorted(y.left_foot)}"
        )
    gx, gy = x.inner.graph, y.inner.graph
    nx = gx.n_vertices
    combined_names = gx.vertex_names + gy.vertex_names
    # one edge per foot element, from its x-vertex to its y-vertex (offset by nx)
    glue_tgt = tuple(nx + y.leg_in[y.left_foot.index(name)] for name in x.right_foot)
    blocks = undirected_components(Graph(combined_names, x.leg_out, glue_tgt))
    new_id = [0] * len(combined_names)
    for i, block in enumerate(blocks):
        for v in block:
            new_id[v] = i
    map_x, map_y = tuple(new_id[:nx]), tuple(new_id[nx:])
    names = tuple(combined_names[block[0]] for block in blocks)
    src = tuple(map_x[v] for v in gx.edge_src) + tuple(map_y[v] for v in gy.edge_src)
    tgt = tuple(map_x[v] for v in gx.edge_tgt) + tuple(map_y[v] for v in gy.edge_tgt)
    labels = x.inner.labels + y.inner.labels
    composite = LabeledGraph(Graph(names, src, tgt), x.inner.algebra, labels)
    return composite, map_x, map_y


def compose(x: OpenGraph, y: OpenGraph) -> OpenGraph:
    """Glue `x`'s outputs to `y`'s inputs along their shared foot.

    Edge labels are untouched and edge counts add exactly; only vertices
    across the shared foot are ever identified.
    """
    composite, map_x, map_y = _pushout(x, y)
    return OpenGraph(
        composite,
        x.left_foot,
        y.right_foot,
        tuple(map_x[v] for v in x.leg_in),
        tuple(map_y[v] for v in y.leg_out),
    )


def _merge_foot_names(left: tuple[str, ...], right: tuple[str, ...]) -> tuple[str, ...]:
    """Disjoint union of foot names; right-side collisions get primed."""
    merged, taken = list(left), set(left)
    for name in right:
        merged.append(_fresh_name(taken, name))
        taken.add(merged[-1])
    return tuple(merged)


def tensor(x: OpenGraph, y: OpenGraph) -> OpenGraph:
    """Set two open graphs side by side: disjoint union of everything."""
    # the disjoint union is the pushout over the empty interface
    inner, map_x, map_y = _pushout(
        replace(x, right_foot=(), leg_out=()), replace(y, left_foot=(), leg_in=())
    )
    return OpenGraph(
        inner,
        _merge_foot_names(x.left_foot, y.left_foot),
        _merge_foot_names(x.right_foot, y.right_foot),
        tuple(map_x[v] for v in x.leg_in) + tuple(map_y[v] for v in y.leg_in),
        tuple(map_x[v] for v in x.leg_out) + tuple(map_y[v] for v in y.leg_out),
    )


@record(frozen=True)
class OpenGraphMap:
    """A 2-morphism candidate: foot maps plus an inner map of the right mode."""

    source: OpenGraph
    target: OpenGraph
    foot_in: tuple[int, ...]
    foot_out: tuple[int, ...]
    inner: Union[GraphMorphism, KleisliMorphism]


def _check_additive(m: GraphMorphism, src: LabeledGraph, dst: LabeledGraph):
    return is_additive_morphism(AdditiveMorphism(m, src, dst))


def _check_kleisli(k: KleisliMorphism, src: LabeledGraph, dst: LabeledGraph):
    return is_kleisli_morphism(replace(k, source=src, target=dst))


def _no_squares(k: KleisliMorphism) -> ValidationReport:
    """Kleisli maps have no squares; `is_kleisli_morphism` rejects partial ones."""
    return ValidationReport(subject="Kleisli morphism")


@record(frozen=True)
class MorphismMode:
    """One morphism notion: its inner maps, what their endpoints must equal on
    an open graph (`carrier`), and how to validate, check and compose them.
    `check(inner, src, dst)` returns ``(ok, witness_edge)``."""

    inner_type: type
    carrier: Callable[[OpenGraph], object]
    vertex_map: Callable[[object], tuple[int, ...]]
    validate: Callable[[object], ValidationReport]
    check: Callable[[object, LabeledGraph, LabeledGraph], tuple]
    compose: Callable[[object, object], object]


MORPHISM_MODES = {
    "set": MorphismMode(
        GraphMorphism, attrgetter("inner.graph"), attrgetter("f0"),
        validate_morphism, is_label_preserving, compose_morphisms,
    ),
    "additive": MorphismMode(
        GraphMorphism, attrgetter("inner.graph"), attrgetter("f0"),
        validate_morphism, _check_additive, compose_morphisms,
    ),
    "kleisli": MorphismMode(
        KleisliMorphism, attrgetter("inner"), attrgetter("vertex_map"),
        _no_squares, _check_kleisli, compose_kleisli,
    ),
}


def _mode(name: str) -> MorphismMode:
    try:
        return MORPHISM_MODES[name]
    except KeyError:
        raise ValueError(f"unknown mode {name!r}") from None


def grothendieck_morphism_check(
    phi: MonoidHom,
    m,
    src: LabeledGraph,
    dst: LabeledGraph,
    mode: str = "set",
) -> bool:
    """Check a combined (label map, graph map) morphism in one of three senses.

    The source is relabeled through `phi`, and `m` must then be a morphism
    of the mode from the relabeled source to `dst`:

    set:      labels transport strictly along edges;
    additive: relabeled source pushes forward onto the target labeling;
    kleisli:  `m` maps edges to paths whose grade is the relabeled edge label.

    A graph map whose squares fail to commute raises `ValueError`.
    """
    entry = _mode(mode)
    report = entry.validate(m)
    if not report.ok:
        raise ValueError(report.summary())
    ok, _ = entry.check(m, change_labels(phi, src), dst)
    return ok


def check_2morphism(m: OpenGraphMap, mode: str = "set"):
    """Foot squares must commute and the inner map must pass the mode's
    label condition (label-preserving, Kleisli, or additive).

    Returns ``(True, None)`` or ``(False, witness)`` where the witness names
    the failing foot element or edge.
    """
    entry = _mode(mode)
    inner = m.inner
    if not isinstance(inner, entry.inner_type):
        raise ValueError(f"{mode} mode needs a {entry.inner_type.__name__} inner map")
    if inner.source != entry.carrier(m.source) or inner.target != entry.carrier(m.target):
        raise ValueError("inner map endpoints do not match the open graphs")
    if not entry.validate(inner).ok:
        return False, ("inner", "invalid-morphism")
    vmap = entry.vertex_map(inner)

    # an image that is no element of the target's foot fails its square too
    for a, image in enumerate(m.foot_in):
        if not _is_index(image, len(m.target.leg_in)) or m.target.leg_in[image] != vmap[m.source.leg_in[a]]:
            return False, ("left-foot", a)
    for b, image in enumerate(m.foot_out):
        if not _is_index(image, len(m.target.leg_out)) or m.target.leg_out[image] != vmap[m.source.leg_out[b]]:
            return False, ("right-foot", b)

    ok, witness = entry.check(inner, m.source.inner, m.target.inner)
    return (True, None) if ok else (False, ("edge", witness))


def compose_2morphisms(outer: OpenGraphMap, inner: OpenGraphMap, mode: str = "set") -> OpenGraphMap:
    """Vertical composite of two 2-morphisms of the same mode."""
    entry = _mode(mode)
    if inner.target != outer.source:
        raise ValueError("2-morphisms do not compose vertically")
    foot_in = tuple(outer.foot_in[a] for a in inner.foot_in)
    foot_out = tuple(outer.foot_out[b] for b in inner.foot_out)
    composite = entry.compose(outer.inner, inner.inner)
    return OpenGraphMap(inner.source, outer.target, foot_in, foot_out, composite)


# candidate placements `iso_check` may try before it gives up
_ISO_GUARD = 10**6


def _as_parts(g) -> tuple[Graph, Optional[tuple], Optional[object]]:
    if isinstance(g, LabeledGraph):
        return g.graph, g.labels, g.algebra
    return g, None, None


def _iso_tables(g: Graph, labels, algebra):
    """Per vertex, its sorted out- and in-edge label texts; per ordered vertex
    pair (a, b), the edges a -> b sorted by (label text, id), and their texts."""
    keys = [""] * g.n_edges if labels is None else [algebra.label_text(x) for x in labels]
    signatures = [
        (sorted(keys[e] for e in out_edges), sorted(keys[e] for e in in_edges))
        for out_edges, in_edges in zip(g.out_adjacency, g.in_adjacency)
    ]
    pairs: dict[tuple[int, int], list[int]] = {}
    for e in sorted(range(g.n_edges), key=lambda e: (keys[e], e)):
        pairs.setdefault((g.edge_src[e], g.edge_tgt[e]), []).append(e)
    return signatures, pairs, {pair: [keys[e] for e in edges] for pair, edges in pairs.items()}


def iso_check(g1, g2):
    """Label-respecting isomorphism of (labeled) multigraphs by backtracking.

    Vertices of `g1` are placed in ascending id, each on the first unused
    vertex of `g2` with the same in/out label signature whose edges to and
    from the vertices already placed carry the same labels.  Returns
    ``(True, (f0, f1))`` with an explicit vertex and edge bijection, parallel
    edges paired by label and then id, or ``(False, None)``.  Raises
    ValueError past `_ISO_GUARD` placements tried.
    """
    graph1, labels1, alg1 = _as_parts(g1)
    graph2, labels2, alg2 = _as_parts(g2)
    if (labels1 is None) != (labels2 is None):
        raise ValueError("cannot compare a labeled graph with a bare graph")
    if alg1 is not None and alg1 != alg2:
        return False, None
    if graph1.n_vertices != graph2.n_vertices or graph1.n_edges != graph2.n_edges:
        return False, None
    sig1, pairs1, texts1 = _iso_tables(graph1, labels1, alg1)
    sig2, pairs2, texts2 = _iso_tables(graph2, labels2, alg1)
    if sorted(sig1) != sorted(sig2):
        return False, None

    n = graph1.n_vertices
    candidates = [[w for w in range(n) if sig2[w] == s] for s in sig1]
    used = [False] * n  # the images of the vertices before the one being placed
    tries = 0

    def placing(v: int, f0: list):
        # the unused images of v whose edges to and from the placed vertices match
        nonlocal tries
        # per placed u, v included: the texts of the edges v -> u and u -> v
        row = [(u, texts1.get((v, u)), texts1.get((u, v))) for u in range(v + 1)]
        for w in itertools.filterfalse(used.__getitem__, candidates[v]):
            tries += 1
            if tries > _ISO_GUARD:
                raise ValueError(_over_guard(f"isomorphism search on {n} vertices tried {tries} placements", _ISO_GUARD))
            f0[v] = w
            # the edges w -> f0[u] and f0[u] -> w carry the same texts
            if all(texts2.get((w, f0[u])) == out and texts2.get((f0[u], w)) == into for u, out, into in row):
                used[w] = True
                yield w
                used[w] = False

    for f0 in _assignments(n, placing):
        f1 = [0] * graph1.n_edges
        for (a, b), edges in pairs1.items():
            for e1, e2 in zip(edges, pairs2[f0[a], f0[b]]):
                f1[e1] = e2
        return True, (tuple(f0), tuple(f1))
    return False, None
