"""Motif search: finding pattern graphs inside a host as Kleisli morphisms.

A motif occurrence assigns host vertices to motif vertices and a bounded
host path to each motif edge, with matching endpoints and grade.  Arbitrary
path lengths would make the search unbounded, so a length limit is part of
the interface.
"""

from __future__ import annotations

import itertools

from .algebra import CATALOG
from .graphs import LabeledGraph, labeled_graph
from .paths import KleisliMorphism, Path, grade

DEFAULT_MAX_PATH_LEN = 6


def paths_between(host: LabeledGraph, start: int, end: int, max_len: int) -> list[Path]:
    """All paths from start to end with at most `max_len` edges, in
    lexicographic edge-id order (the empty path first when start == end)."""
    g = host.graph
    out_adjacency = g.out_adjacency
    out: list[Path] = []

    def extend(at: int, edges: list[int]):
        if at == end:
            out.append(Path(start, tuple(edges)))
        if len(edges) == max_len:
            return
        for e in out_adjacency[at]:
            edges.append(e)
            extend(g.edge_tgt[e], edges)
            edges.pop()

    extend(start, [])
    return out


def find_motifs(
    motif: LabeledGraph,
    host: LabeledGraph,
    max_path_len: int = DEFAULT_MAX_PATH_LEN,
    max_results: int = 10000,
):
    """All occurrences of `motif` in `host` with edge images of bounded length.

    Returns ``(matches, truncated)``.  Matches come in a deterministic
    lexicographic order: by vertex assignment first, then by the edge-id
    sequences of the chosen paths.
    """
    if motif.algebra != host.algebra:
        raise ValueError("motif and host must share one label algebra")
    if max_path_len < 1:
        raise ValueError("max_path_len must be at least 1")
    if max_results < 0:
        raise ValueError("max_results must be at least 0")
    m_graph = motif.graph
    matches: list[KleisliMorphism] = []
    for assignment in itertools.product(range(host.graph.n_vertices), repeat=m_graph.n_vertices):
        candidates: list[list[Path]] = []
        for e in range(m_graph.n_edges):
            u = assignment[m_graph.edge_src[e]]
            v = assignment[m_graph.edge_tgt[e]]
            wanted = motif.labels[e]
            fits = [p for p in paths_between(host, u, v, max_path_len) if grade(p, host) == wanted]
            if not fits:
                break
            candidates.append(fits)
        else:
            for combo in itertools.product(*candidates):
                if len(matches) >= max_results:
                    return matches, True
                matches.append(KleisliMorphism(motif, host, assignment, combo))
    return matches, False


def _sign_motif(vertices, edges):
    return labeled_graph(
        vertices,
        [(s, t) for s, t, _ in edges],
        CATALOG["SIGN"],
        [label for _, _, label in edges],
    )


def _motif_catalog() -> dict[str, LabeledGraph]:
    v, w = 0, 1
    catalog = {
        "positive-autoregulation": _sign_motif(["v"], [(0, 0, "+")]),
        "negative-autoregulation": _sign_motif(["v"], [(0, 0, "-")]),
        "positive-stimulation": _sign_motif(["v", "w"], [(v, w, "+")]),
        "negative-stimulation": _sign_motif(["v", "w"], [(v, w, "-")]),
        "positive-feedback-loop": _sign_motif(["v", "w"], [(v, w, "+"), (w, v, "+")]),
        "negative-feedback-loop": _sign_motif(["v", "w"], [(v, w, "+"), (w, v, "-")]),
        "double-negative-feedback-loop": _sign_motif(["v", "w"], [(v, w, "-"), (w, v, "-")]),
        "coherent-feedforward": _sign_motif(["v", "w"], [(v, w, "+"), (v, w, "+")]),
        "incoherent-feedforward": _sign_motif(["v", "w"], [(v, w, "+"), (v, w, "-")]),
        "double-negative-feedforward": _sign_motif(["v", "w"], [(v, w, "-"), (v, w, "-")]),
    }
    for tag, (a, b) in {"pp": ("+", "+"), "pm": ("+", "-"), "mm": ("-", "-")}.items():
        catalog[f"branch-{tag}"] = _sign_motif(["u", "v", "w"], [(0, 1, a), (0, 2, b)])
        catalog[f"gate-{tag}"] = _sign_motif(["v", "w", "u"], [(0, 2, a), (1, 2, b)])
        # coherent feedforward overlapping a logic gate
        catalog[f"overlapping-feedforward-gate-{tag}"] = _sign_motif(
            ["v", "w", "u"], [(0, 1, "+"), (0, 1, "+"), (0, 2, a), (1, 2, b)]
        )
        # incoherent feedforward overlapping a branch
        catalog[f"overlapping-feedforward-branch-{tag}"] = _sign_motif(
            ["u", "v", "w"], [(0, 1, a), (0, 2, b), (1, 2, "+"), (1, 2, "-")]
        )
    return catalog


_CATALOG = _motif_catalog()
MOTIF_NAMES = tuple(sorted(_CATALOG))


def builtin_motif(name: str) -> LabeledGraph:
    """A named {+,-} pattern from the standard regulatory-network repertoire."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown motif {name!r}; known: {', '.join(MOTIF_NAMES)}") from None
