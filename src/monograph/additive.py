"""Additive morphisms: maps that sum edge labels over fibers.

Only available over a commutative coefficient view; rig-labeled graphs
participate through the rig's addition.
"""

from __future__ import annotations

from .algebra import _coefficient_view
from .graphs import GraphMorphism, LabeledGraph, _require_valid
from .validation import record


def _check_coefficient_algebra(src: LabeledGraph, dst: LabeledGraph) -> None:
    if src.algebra != dst.algebra:
        raise ValueError("both graphs must share one label algebra")
    if _coefficient_view(src.algebra) is None:
        raise ValueError("additive morphisms need a commutative label algebra")


@record(frozen=True)
class AdditiveMorphism:
    underlying: GraphMorphism
    source: LabeledGraph
    target: LabeledGraph

    def __post_init__(self):
        _check_coefficient_algebra(self.source, self.target)
        if self.underlying.source != self.source.graph or self.underlying.target != self.target.graph:
            raise ValueError("morphism endpoints do not match the labeled graphs")


def is_additive_morphism(a: AdditiveMorphism):
    """True iff each target label is the sum of its fiber; witness edge otherwise.

    An edge with an empty fiber must carry the zero: a sum over nothing vanishes.
    """
    pushed = pushforward_labeling(a.underlying, a.source)
    for e_prime, (total, label) in enumerate(zip(pushed.labels, a.target.labels)):
        if total != label:
            return False, e_prime
    return True, None


def pushforward_labeling(m: GraphMorphism, src: LabeledGraph) -> LabeledGraph:
    """The unique target labeling making `m` additive: fiberwise label sums."""
    _require_valid(m)
    if m.source != src.graph:
        raise ValueError("morphism source does not match the labeled graph")
    view = _coefficient_view(src.algebra)
    if view is None:
        raise ValueError("pushforward needs a commutative label algebra")
    add, zero = view
    sums = [zero] * m.target.n_edges
    for e in range(m.source.n_edges):
        sums[m.f1[e]] = add(sums[m.f1[e]], src.labels[e])
    return LabeledGraph(m.target, src.algebra, tuple(sums))
