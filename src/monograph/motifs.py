"""Motif search: finding pattern graphs inside a host as Kleisli morphisms.

A motif occurrence assigns host vertices to motif vertices and a bounded
host path to each motif edge, with matching endpoints and grade.  Arbitrary
path lengths would make the search unbounded, so a length limit is part of
the interface.

The search walks the host once per source vertex it touches, filing the
walks by (end, grade).  The shared `validation._assignments` then places
motif vertices, checking each motif edge against those tables once both
its endpoints are placed and drawing a vertex's candidates from the tables
of placed neighbours at either end of its edges (Ullmann, J. ACM 1976;
VF2, Cordella et al., IEEE TPAMI 2004).  No step recurses, so deep hosts
and long path limits never exhaust the interpreter's stack.

The occurrences of one vertex assignment are the product of the walk lists
of the motif's edges.  `find_motif_groups` returns them in that form, and
`find_motifs` expands it into one `KleisliMorphism` per occurrence.
"""

from __future__ import annotations

import functools
import itertools
import math

from .algebra import CATALOG
from .graphs import LabeledGraph, labeled_graph
from .paths import KleisliMorphism, Path
from .validation import _assignments, _over_guard

DEFAULT_MAX_PATH_LEN = 6
DEFAULT_MAX_RESULTS = 10000
# the most walks a search tables from one host vertex: a dense host at
# a long path limit has exponentially many, and each is held in memory
_WALK_GUARD = 10**6


class _PathTable:
    """The walks of at most `max_len` edges from one host vertex, as
    edge-id tuples filed by (end, grade), each list in walk order:
    lexicographic in edge ids, prefixes first.

    One pass walks, grades and files them.  An explicit stack of (last
    edge, prefix, grade of the prefix) keeps the depth of recursion
    constant.  Grades follow `paths.grade`: grade(p + e) = mul(label[e],
    grade(p)), and the empty walk grades to the unit.  Raises ValueError
    as soon as the table holds more than `_WALK_GUARD` walks.
    """

    __slots__ = ("by_end_grade", "_ends")

    def __init__(self, host: LabeledGraph, start: int, max_len: int):
        out_adjacency, edge_tgt = host.graph.out_adjacency, host.graph.edge_tgt
        mul, labels, one = host.algebra.mul, host.labels, host.algebra.one
        by_end_grade: dict[tuple, list[tuple[int, ...]]] = {(start, one): [()]}
        walks = 1
        stack = [(e, (), one) for e in reversed(out_adjacency[start])] if max_len > 0 else []
        while stack and walks <= _WALK_GUARD:
            e, prefix, value = stack.pop()
            walks += 1
            walk = prefix + (e,)
            at = edge_tgt[e]
            value = mul(labels[e], value)
            filed = by_end_grade.get((at, value))
            if filed is None:
                by_end_grade[at, value] = [walk]
            else:
                filed.append(walk)
            if len(walk) < max_len:
                stack.extend([(f, walk, value) for f in reversed(out_adjacency[at])])
        if walks > _WALK_GUARD:
            raise ValueError(_over_guard(f"motif walks {walks} from host vertex {start}", _WALK_GUARD))
        self.by_end_grade = by_end_grade
        self._ends: dict = {}

    def ends_with(self, value) -> list[int]:
        """The ends of the walks grading to `value`, ascending."""
        ends = self._ends.get(value)
        if ends is None:
            ends = self._ends[value] = sorted(at for at, grade in self.by_end_grade if grade == value)
        return ends


def paths_between(host: LabeledGraph, start: int, end: int, max_len: int) -> list[Path]:
    """All paths from start to end with at most `max_len` edges, in
    lexicographic edge-id order (the empty path first when start == end).
    Raises ValueError when `start` has more than `_WALK_GUARD` (10^6)
    walks within the limit."""
    by_end_grade = _PathTable(host, start, max_len).by_end_grade
    walks = itertools.chain.from_iterable([w for (at, _), w in by_end_grade.items() if at == end])
    return [Path(start, walk) for walk in sorted(walks)]


def find_motif_groups(
    motif: LabeledGraph,
    host: LabeledGraph,
    max_path_len: int = DEFAULT_MAX_PATH_LEN,
    max_results: int = DEFAULT_MAX_RESULTS,
):
    """The occurrences of `motif` in `host`, one group per vertex assignment.

    Returns ``(groups, truncated)``.  A group is ``(vertex_map, walks,
    count)``: `walks` holds, per motif edge, the edge-id tuples of the host
    walks that fit it, in lexicographic order, and the group's matches are
    the first `count` tuples of ``itertools.product(*walks)``, one walk per
    motif edge.  `count` is the whole product except in the group the cap
    cuts, and is never 0.  Groups come by vertex assignment, ascending, so
    their matches in turn are `find_motifs`' matches, with the same cap
    prefix and `truncated` flag.  The walk lists are shared between groups
    and must not be changed.  Raises ValueError as `find_motifs` does.
    """
    if motif.algebra != host.algebra:
        raise ValueError("motif and host must share one label algebra")
    if max_path_len < 1:
        raise ValueError("max_path_len must be at least 1")
    if max_results < 0:
        raise ValueError("max_results must be at least 0")
    m_graph = motif.graph
    m_src, m_tgt, m_labels = m_graph.edge_src, m_graph.edge_tgt, motif.labels
    k, n = m_graph.n_vertices, host.graph.n_vertices
    # the motif edges to check when vertex i is placed: those whose later
    # endpoint is i; the first one entering i from an earlier vertex narrows
    # i's candidates to the ends its source's walks reach with its label
    checks: list[list[int]] = [[] for _ in range(k)]
    for e in range(m_graph.n_edges):
        checks[max(m_src[e], m_tgt[e])].append(e)
    narrow = [next((e for e in checks[i] if m_tgt[e] == i != m_src[e]), None) for i in range(k)]
    # a vertex i that nothing earlier enters, with an edge e = i -> j to a
    # later j that an earlier vertex enters by f: i's image needs a walk
    # graded like e into an end that the walks of f's source reach graded
    # like f, so its candidates come from the other end, through `starts`
    lookahead = [
        None if narrow[i] is not None else next(
            ((e, f) for e in range(m_graph.n_edges) if m_src[e] == i < m_tgt[e]
             for f in checks[m_tgt[e]] if m_tgt[f] == m_tgt[e] and m_src[f] < i),
            None,
        )
        for i in range(k)
    ]
    tables: dict[int, _PathTable] = {}
    # (end, grade) -> the host vertices with such a walk, ascending; filed
    # from every table when a lookahead first needs it
    starts: dict[tuple, list[int]] = {}
    # when every motif edge leaves vertex 0, only the table of vertex 0's
    # host vertex is ever read, so the others are dropped as it moves on
    one_source = all(s == 0 for s in m_src)

    def table_at(u: int) -> _PathTable:
        table = tables.get(u)
        if table is None:
            table = tables[u] = _PathTable(host, u, max_path_len)
        return table

    def fitting(i: int, assignment: list):
        # the host vertices for motif vertex i whose checked edges all have walks, filed in `fits`
        e = narrow[i]
        if e is not None:
            tried = table_at(assignment[m_src[e]]).ends_with(m_labels[e])
        elif lookahead[i] is None:
            tried = range(n)
        else:
            if not starts:
                for u in range(n):
                    for key in table_at(u).by_end_grade:
                        starts.setdefault(key, []).append(u)
            e, f = lookahead[i]
            label = m_labels[e]
            ends = table_at(assignment[m_src[f]]).ends_with(m_labels[f])
            tried = sorted(set().union(*[starts.get((x, label), ()) for x in ends]))
        for v in tried:
            assignment[i] = v
            if i == 0 and one_source:
                tables.clear()
            for e in checks[i]:
                listed = table_at(assignment[m_src[e]]).by_end_grade.get((assignment[m_tgt[e]], m_labels[e]))
                if listed is None:
                    break
                fits[e] = listed
            else:
                yield v

    fits: list = [None] * m_graph.n_edges  # per motif edge: the walks that fit it
    groups: list[tuple] = []
    left = max_results  # matches the cap still allows
    for assignment in _assignments(k, fitting):
        walks = tuple(fits)
        size = math.prod(map(len, walks))
        if size > left:
            if left:
                groups.append((tuple(assignment), walks, left))
            return groups, True
        groups.append((tuple(assignment), walks, size))
        left -= size
    return groups, False


def find_motifs(
    motif: LabeledGraph,
    host: LabeledGraph,
    max_path_len: int = DEFAULT_MAX_PATH_LEN,
    max_results: int = DEFAULT_MAX_RESULTS,
):
    """All occurrences of `motif` in `host` with edge images of bounded length.

    Returns ``(matches, truncated)``.  Matches come in a deterministic
    lexicographic order: by vertex assignment first, then by the edge-id
    sequences of the chosen paths.  Raises ValueError when a host vertex
    it searches from has more than `_WALK_GUARD` (10^6) walks within the
    limit.  The matches are `find_motif_groups`' products, expanded; the
    matches of one walk list share its `Path`s.
    """
    groups, truncated = find_motif_groups(motif, host, max_path_len, max_results)
    m_src = motif.graph.edge_src
    paths: dict[int, list[Path]] = {}  # id of a walk list -> its paths
    matches: list[KleisliMorphism] = []
    for vertex_map, walks, count in groups:
        images = []
        for s, listed in zip(m_src, walks):
            shared = paths.get(id(listed))
            if shared is None:
                start = vertex_map[s]
                shared = paths[id(listed)] = [Path(start, walk) for walk in listed]
            images.append(shared)
        match = functools.partial(KleisliMorphism, motif, host, vertex_map)
        matches.extend(map(match, itertools.islice(itertools.product(*images), count)))
    return matches, truncated


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
