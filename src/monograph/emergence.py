"""Emergent cycles in graphs glued along a discrete shared interface.

Gluing tags every edge of the composite with the side it came from.  A
cycle of the composite is *inherited* when both side projections are
themselves cycles, i.e. it is a sum of one cycle per side; otherwise it is
*emergent*.  For cancellative coefficients the one-sided test (or its
restriction to shared vertices) suffices; the boolean rig shows why
cancellativity is needed.

Paths also carry a word over {x, y} recording which side each edge lies on;
collapsing repeated letters leaves just the crossing pattern.
"""

from __future__ import annotations

import itertools

from .algebra import LabelAlgebra
from .graphs import LabeledGraph
from .homology import (
    LOOP_CAP,
    Chain,
    SimpleLoop,
    boundary_pair,
    chain,
    chain_add,
    cycles,
    is_cycle,
    loop_polarity,
    simple_loops,
)
from .open_graphs import OpenGraph, _pushout
from .paths import Path, check_path
from .validation import record


@record(frozen=True)
class GluedGraph:
    """A composite graph remembering which side each edge and vertex came from."""

    composite: LabeledGraph
    side: tuple[str, ...]  # per edge: "x" or "y"
    shared: tuple[int, ...]  # composite vertex ids lying on both sides


def glue(x: OpenGraph, y: OpenGraph) -> GluedGraph:
    """Glue two open graphs along their shared foot.

    Both legs into the interface must be injective (the inclusions of the
    two sides have to be monic); plain composition has no such requirement,
    but everything in this module does.
    """
    if len(set(x.leg_out)) != len(x.leg_out):
        raise ValueError("left graph's interface leg is not injective")
    if len(set(y.leg_in)) != len(y.leg_in):
        raise ValueError("right graph's interface leg is not injective")
    composite, map_x, _ = _pushout(x, y)
    n_x_edges = x.inner.graph.n_edges
    side = tuple("x" if e < n_x_edges else "y" for e in range(composite.graph.n_edges))
    shared = tuple(sorted(map_x[v] for v in x.leg_out))
    return GluedGraph(composite, side, shared)


def grade_word(p: Path, g: GluedGraph, collapse: bool = False) -> str:
    """The word of side letters along a path; collapsing merges equal runs."""
    check_path(p, g.composite.graph)
    word = "".join(g.side[e] for e in p.edges)
    return collapse_word(word) if collapse else word


def collapse_word(word: str) -> str:
    return "".join(letter for letter, _ in itertools.groupby(word))


def format_word(word: str) -> str:
    """Exponent notation for a side word: "xxxyyx" becomes "x^3 y^2 x"."""
    pieces = []
    for letter, run in itertools.groupby(word):
        count = len(list(run))
        pieces.append(letter if count == 1 else f"{letter}^{count}")
    return " ".join(pieces)


def side_projection(c: Chain, g: GluedGraph, side: str) -> Chain:
    """Restrict an edge chain of the composite to one side's edges."""
    if side not in ("x", "y"):
        raise ValueError("side must be 'x' or 'y'")
    return chain(c.algebra, {e: v for e, v in c.items if g.side[e] == side})


def is_inherited_cycle(c: Chain, g: GluedGraph) -> bool:
    """A composite cycle is inherited iff both its side projections are cycles."""
    graph = g.composite.graph
    if not is_cycle(c, graph):
        raise ValueError("chain is not a cycle of the composite")
    return is_cycle(side_projection(c, g, "x"), graph) and is_cycle(
        side_projection(c, g, "y"), graph
    )


def _restrict_to_shared(vertex_chain: Chain, g: GluedGraph) -> Chain:
    shared = set(g.shared)
    return chain(
        vertex_chain.algebra,
        {v: value for v, value in vertex_chain.items if v in shared},
        "vertices",
    )


def _condition(c: Chain, g: GluedGraph, mode: str, side: str) -> bool:
    if mode == "two-sided":
        return is_inherited_cycle(c, g)
    graph = g.composite.graph
    projected = side_projection(c, g, side)
    src_chain, tgt_chain = boundary_pair(projected, graph)
    if mode == "one-sided":
        return src_chain == tgt_chain
    if mode == "q-form":
        return _restrict_to_shared(src_chain, g) == _restrict_to_shared(tgt_chain, g)
    raise ValueError(f"unknown mode {mode!r}")


@record()
class MVReport:
    mode: str
    total_cycles: int
    mismatches: list[Chain]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def mv_check(g: GluedGraph, algebra: LabelAlgebra, mode: str, bound=None, side: str = "x") -> MVReport:
    """Compare a membership test against the true image of side-cycle sums.

    Enumerates every cycle of the composite over `algebra` (finite table, or
    naturals up to `bound`), takes each side's cycles as those supported on
    that side's edges, and reports each enumerated cycle where the requested
    condition disagrees with membership in the image of their sums.  The
    two-sided condition never disagrees; the one-sided and shared-vertex
    (q-form) conditions can only disagree when the coefficients are
    non-cancellative.
    """
    all_cycles = cycles(g.composite.graph, algebra, bound)
    x_cycles = [c for c in all_cycles if side_projection(c, g, "x") == c]
    y_cycles = [c for c in all_cycles if side_projection(c, g, "y") == c]
    image = {chain_add(cx, cy) for cx in x_cycles for cy in y_cycles}
    mismatches = [
        c for c in all_cycles if _condition(c, g, mode, side) != (c in image)
    ]
    return MVReport(mode, len(all_cycles), mismatches)


@record(frozen=True)
class EmergenceRow:
    loop: SimpleLoop
    inherited: bool
    word: str  # collapsed side word
    polarity: object


@record()
class EmergenceReport:
    rows: list[EmergenceRow]
    truncated: bool

    @property
    def emergent_count(self) -> int:
        return sum(1 for row in self.rows if not row.inherited)

    @property
    def inherited_count(self) -> int:
        return sum(1 for row in self.rows if row.inherited)


def emergence_report(g: GluedGraph, cap: int = LOOP_CAP) -> EmergenceReport:
    """Classify every simple loop of the composite as inherited or emergent.

    A simple loop is inherited exactly when its collapsed side word is a
    single letter: a proper part of a simple loop is never a cycle, so
    `is_inherited_cycle` holds iff every edge lies on one side.  Words are
    read from the loop's canonical rotation; starting elsewhere can rotate
    which letter comes first but never changes the inherited/emergent
    verdict.
    """
    loops, truncated = simple_loops(g.composite.graph, cap)
    rows = []
    for loop in loops:
        word = grade_word(loop.as_path(g.composite.graph), g, collapse=True)
        rows.append(EmergenceRow(loop, len(word) == 1, word, loop_polarity(loop, g.composite)))
    return EmergenceReport(rows, truncated)
