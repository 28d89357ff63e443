"""Chains, cycles, simple loops, decomposition, relations, and the oracles."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monograph as mg
from monograph import homology
from monograph.algebra import _coefficient_view
from monograph.homology import LOOP_CAP, NAT, _over_guard, canonical_rotation

from helpers import (
    BOOL,
    SIGN,
    SIGN0,
    SWAP_RESET,
    bfs_components,
    brute_force_circulations,
    brute_force_h1,
    g2,
    homework,
    minimal_elements,
    oracle_relations,
    oracle_relations_by_fractions,
    oracle_simple_loops,
    p2,
    q4,
    r5,
    rand_graph,
    rand_labels,
    recursion_limit,
)

from test_algebra import cyclic_group, truncated_add


class TestBoundary:
    def test_zero_chain_has_zero_boundaries(self):
        src, tgt = mg.boundary_pair(mg.nat_chain({}), g2())
        assert src.is_zero and tgt.is_zero

    def test_q4_diagonal_pair_is_a_cycle(self):
        src, tgt = mg.boundary_pair(mg.nat_chain({0: 1, 2: 1}), q4())
        assert src == tgt
        assert src == mg.chain(NAT, {0: 1, 1: 1}, "vertices")

    def test_parallel_pair_is_not_a_cycle(self):
        src, tgt = mg.boundary_pair(mg.nat_chain({0: 1, 1: 1}), p2())
        assert src == mg.chain(NAT, {0: 2}, "vertices")
        assert tgt == mg.chain(NAT, {1: 2}, "vertices")
        assert src != tgt


class TestIsCycle:
    def test_simple_loop_indicators_are_cycles(self):
        for g in (g2(), q4(), r5()):
            loops, _ = mg.simple_loops(g)
            for loop in loops:
                assert mg.is_cycle(loop.indicator(), g)

    def test_boolean_sum_of_cycle_and_non_cycle_can_be_a_cycle(self):
        graph = mg.graph(["v", "w"], [(0, 1), (1, 0), (1, 0)])
        full = mg.chain(BOOL, {0: 1, 1: 1, 2: 1})
        assert mg.is_cycle(full, graph)
        assert not mg.is_cycle(mg.chain(BOOL, {2: 1}), graph)

    def test_single_edge_is_not_a_cycle(self):
        assert not mg.is_cycle(mg.nat_chain({0: 1}), g2())


class TestH0:
    def test_two_cycle_has_one_component(self):
        result = mg.h0(g2(), NAT)
        assert result.count == 1
        assert "free on 1" in result.description

    def test_edgeless_graph_counts_vertices(self):
        g = mg.graph([f"v{i}" for i in range(5)], [])
        assert mg.h0(g, NAT).count == 5

    def test_matches_bfs_oracle(self):
        rng = random.Random(3)
        for _ in range(50):
            g = rand_graph(rng, 10, 12)
            assert mg.h0(g, NAT).count == len(bfs_components(g))


class TestSimpleLoops:
    def test_fixture_counts(self):
        for graph, expected in ((g2(), 1), (p2(), 0), (q4(), 4), (r5(), 6)):
            loops, truncated = mg.simple_loops(graph)
            assert not truncated
            assert len(loops) == expected

    def test_q4_classes_are_the_four_diagonals(self):
        loops, _ = mg.simple_loops(q4())
        assert [l.edges for l in loops] == [(0, 2), (0, 3), (1, 2), (1, 3)]

    def test_rotation_classes_are_canonical(self):
        assert mg.simple_loop(g2(), (1, 0)).edges == (0, 1)
        with pytest.raises(ValueError):
            mg.simple_loop(g2(), (0, 0))

    def test_parallel_edges_give_distinct_classes(self):
        g = mg.graph(["u"], [(0, 0), (0, 0)])
        loops, _ = mg.simple_loops(g)
        assert [l.edges for l in loops] == [(0,), (1,)]

    def test_truncation_cap(self):
        loops, truncated = mg.simple_loops(q4(), cap=2)
        assert truncated and len(loops) == 2

    def test_deep_ring_has_one_loop(self):
        n = 10**5
        ring = mg.graph([f"v{i}" for i in range(n)], [(i, (i + 1) % n) for i in range(n)])
        loops, truncated = mg.simple_loops(ring)
        assert not truncated
        assert [l.edges for l in loops] == [tuple(range(n))]

    def test_dead_ends_are_pruned(self):
        # the complete DAG has 2^58 paths from vertex 0 to vertex 59
        n = 60
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)] + [(31, 30)]
        loops, truncated = mg.simple_loops(mg.graph([f"v{i}" for i in range(n)], edges))
        assert not truncated
        assert [l.edges for l in loops] == [(edges.index((30, 31)), len(edges) - 1)]

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_matches_the_unpruned_search_at_every_cap(self, rnd):
        g = rand_graph(rnd, 6, 11)
        for cap in (1, 2, 3, 4, 5, LOOP_CAP):
            assert mg.simple_loops(g, cap) == oracle_simple_loops(g, cap)

    def test_canonical_rotation_starts_at_the_least_edge(self):
        assert canonical_rotation((5, 2, 7, 3)) == (2, 7, 3, 5)
        assert canonical_rotation((4,)) == (4,)

    def test_minimal_circulations_match_loops_exactly(self):
        rng = random.Random(19)
        for _ in range(40):
            g = rand_graph(rng, 5, 7)
            loops, _ = mg.simple_loops(g)
            minimal = minimal_elements(mg.cycles(g, NAT, 2))
            assert {c for c in minimal} == {l.indicator() for l in loops}


def _shuffled(rnd, n: int, edges: list) -> mg.Graph:
    """`edges` on n vertices, with vertex ids and edge order shuffled."""
    names = list(range(n))
    rnd.shuffle(names)
    edges = [(names[s], names[t]) for s, t in edges]
    rnd.shuffle(edges)
    return mg.graph([f"v{i}" for i in range(n)], edges)


def _cycle(vertices: list) -> list:
    return list(zip(vertices, vertices[1:] + vertices[:1]))


class TestRings:
    """A block with as many internal edges as vertices is recorded as one
    circuit without Johnson's search; the loops, their order and every cap
    prefix stay those of the unpruned search."""

    CAPS = (1, 2, 3, LOOP_CAP)

    def check(self, g: mg.Graph):
        for cap in self.CAPS:
            assert mg.simple_loops(g, cap) == oracle_simple_loops(g, cap)

    def test_single_rings(self):
        rnd = random.Random(3)
        for n in range(2, 9):
            self.check(_shuffled(rnd, n, _cycle(list(range(n)))))

    def test_disjoint_rings_with_edges_between_them(self):
        rnd = random.Random(5)
        for _ in range(20):
            sizes = [rnd.randint(1, 5) for _ in range(rnd.randint(2, 4))]
            starts = [sum(sizes[:i]) for i in range(len(sizes))]
            edges = [e for start, k in zip(starts, sizes) for e in _cycle(list(range(start, start + k)))]
            # edges from earlier rings to later ones join no two blocks
            edges += [(rnd.randrange(start), rnd.randrange(start, sum(sizes))) for start in starts[1:]]
            self.check(_shuffled(rnd, sum(sizes), edges))

    def test_a_ring_with_a_chord_or_a_self_loop_is_searched(self):
        rnd = random.Random(7)
        for n in range(3, 8):
            ring = _cycle(list(range(n)))
            for extra in ((0, n // 2), (n - 1, 1), (2, 2), (0, 1)):
                self.check(_shuffled(rnd, n, ring + [extra]))

    def test_figure_eight(self):
        rnd = random.Random(11)
        for a in range(2, 6):
            for b in range(2, 6):
                # two rings through vertex 0
                edges = _cycle(list(range(a))) + _cycle([0] + list(range(a, a + b - 1)))
                self.check(_shuffled(rnd, a + b - 1, edges))

    def test_a_ring_costs_one_split_and_no_search(self, monkeypatch):
        from monograph import homology

        splits = []
        split = homology._split_components

        def counted_split(*args):
            splits.append(len(args[0]))
            return split(*args)

        monkeypatch.setattr(homology, "_split_components", counted_split)
        n = 1500
        g = mg.graph([f"v{i}" for i in range(n)], _cycle(list(range(n))))
        assert mg.simple_loops(g) == ([mg.SimpleLoop(tuple(range(n)))], False)
        assert splits == [n]
        # a chord makes the block two circuits, found by a search from
        # vertex 0, after which the other n - 1 vertices are split again
        g = mg.graph([f"v{i}" for i in range(n)], _cycle(list(range(n))) + [(0, n // 2)])
        assert len(mg.simple_loops(g)[0]) == 2 and splits == [n, n, n - 1]


class TestDecompose:
    def test_zero_chain_decomposes_to_nothing(self):
        assert mg.decompose_cycle(mg.nat_chain({}), g2()) == []

    def test_doubled_loop_has_multiplicity_two(self):
        parts = mg.decompose_cycle(mg.nat_chain({0: 2, 1: 2}), g2())
        assert parts == [mg.SimpleLoop((0, 1)), mg.SimpleLoop((0, 1))]

    def test_full_quad_splits_into_two_loops_and_resums(self):
        full = mg.nat_chain({0: 1, 1: 1, 2: 1, 3: 1})
        parts = mg.decompose_cycle(full, q4())
        assert len(parts) == 2
        total = mg.nat_chain({})
        for loop in parts:
            total = mg.chain_add(total, loop.indicator())
        assert total == full

    def test_more_parts_than_the_guard_is_refused_before_building_them(self):
        g = mg.Graph(("v",), (0,), (0,))
        assert len(mg.decompose_cycle(mg.nat_chain({0: 10**6}), g)) == 10**6
        with pytest.raises(ValueError, match=r"^decomposition into 99999999999 loops > guard 10\^6$"):
            mg.decompose_cycle(mg.nat_chain({0: 99999999999}), g)

    def test_the_guard_counts_every_loop_with_multiplicity(self):
        # two loops of 600000 each: neither alone passes the guard
        with pytest.raises(ValueError, match=r"^decomposition into 1200000 loops > guard 10\^6$"):
            mg.decompose_cycle(mg.nat_chain({0: 600000, 1: 600000, 2: 600000, 3: 600000}), q4())

    def test_non_cycle_is_rejected(self):
        with pytest.raises(ValueError):
            mg.decompose_cycle(mg.nat_chain({0: 1}), g2())

    def test_random_circulations_decompose_and_resum(self):
        rng = random.Random(29)
        for _ in range(60):
            g = rand_graph(rng, 5, 7)
            loops, _ = mg.simple_loops(g)
            if not loops:
                continue
            total = mg.nat_chain({})
            for loop in loops:
                for _ in range(rng.randint(0, 2)):
                    total = mg.chain_add(total, loop.indicator())
            parts = mg.decompose_cycle(total, g)
            resum = mg.nat_chain({})
            for loop in parts:
                resum = mg.chain_add(resum, loop.indicator())
            assert resum == total
            loop_set = {l.edges for l in loops}
            assert all(p.edges in loop_set for p in parts)


class TestFeedback:
    def test_all_zero_labels_give_zero(self):
        labeled = mg.LabeledGraph(g2(), NAT, (0, 0))
        loops, _ = mg.simple_loops(g2())
        assert mg.feedback(loops[0], labeled) == 0

    def test_nat_labels_sum_around_the_loop(self):
        labeled = mg.LabeledGraph(g2(), NAT, (3, 2))
        loops, _ = mg.simple_loops(g2())
        assert mg.feedback(loops[0], labeled) == 5

    def test_quad_diagonal_with_unit_labels(self):
        labeled = mg.LabeledGraph(q4(), NAT, (1, 1, 1, 1))
        assert mg.feedback(mg.SimpleLoop((0, 2)), labeled) == 2

    def test_feedback_is_additive_in_the_chain(self):
        rng = random.Random(97)
        for _ in range(40):
            g = rand_graph(rng, 5, 7)
            loops, _ = mg.simple_loops(g)
            if len(loops) < 2:
                continue
            labeled = mg.LabeledGraph(g, NAT, tuple(rng.randrange(4) for _ in range(g.n_edges)))
            a, b = loops[0].indicator(), loops[1].indicator()
            assert mg.feedback(mg.chain_add(a, b), labeled) == mg.feedback(a, labeled) + mg.feedback(b, labeled)

    def test_scaling_handles_large_coefficients(self):
        labeled = mg.LabeledGraph(g2(), NAT, (3, 2))
        big = mg.nat_chain({0: 10**12, 1: 10**12})
        assert mg.feedback(big, labeled) == 5 * 10**12


class TestLoopPolarity:
    def test_homework_loops_split_into_reinforcing_and_balancing(self):
        hw = homework()
        loops, _ = mg.simple_loops(hw.graph)
        readings = sorted(hw.algebra.label_text(mg.loop_polarity(l, hw)) for l in loops)
        assert readings == ["+", "-"]

    def test_four_loop_is_reinforcing(self):
        hw = homework()
        long_loop = mg.SimpleLoop((0, 1, 3, 4))
        assert hw.algebra.label_text(mg.loop_polarity(long_loop, hw)) == "+"
        short_loop = mg.SimpleLoop((2, 3, 4))
        assert hw.algebra.label_text(mg.loop_polarity(short_loop, hw)) == "-"

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_least_rotation_product_over_non_commutative_tables(self, rnd):
        # the transformation monoid of a few random maps on a few states
        states = rnd.randint(2, 3)
        maps = tuple(tuple(rnd.randrange(states) for _ in range(states)) for _ in range(rnd.randint(2, 3)))
        sa = mg.Semiautomaton(tuple(map(str, range(states))), tuple(f"a{i}" for i in range(len(maps))), maps)
        algebra = mg.from_semiautomaton(sa).algebra
        if algebra.flags.commutative:
            algebra = SWAP_RESET
        g = rand_graph(rnd, 5, 8)
        labeled = rand_labels(rnd, g, algebra)
        # edge e of `g` is edge new_id[e] of `renamed`
        new_id = list(range(g.n_edges))
        rnd.shuffle(new_id)
        old_id = sorted(range(g.n_edges), key=new_id.__getitem__)
        renamed = mg.LabeledGraph(
            mg.graph(g.vertex_names, [(g.edge_src[e], g.edge_tgt[e]) for e in old_id]),
            algebra,
            tuple(labeled.labels[e] for e in old_id),
        )
        for loop in mg.simple_loops(g)[0]:
            edges = loop.edges
            rotations = [edges[i:] + edges[:i] for i in range(len(edges))]
            least = min(mg.grade(mg.Path(g.edge_src[r[0]], r), labeled) for r in rotations)
            assert mg.loop_polarity(loop, labeled) == least
            assert mg.loop_polarity(mg.simple_loop(renamed.graph, [new_id[e] for e in edges]), renamed) == least

    def test_unit_labels_give_unit_polarity(self):
        labeled = mg.LabeledGraph(g2(), SIGN, (0, 0))
        assert mg.loop_polarity(mg.SimpleLoop((0, 1)), labeled) == SIGN.one

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_rotation_invariance_over_commutative_algebras(self, rnd):
        g = rand_graph(rnd, 5, 7)
        loops, _ = mg.simple_loops(g)
        if not loops:
            return
        labeled = mg.LabeledGraph(g, SIGN, tuple(rnd.randrange(2) for _ in range(g.n_edges)))
        loop = rnd.choice(loops)
        k = rnd.randrange(len(loop.edges))
        rotated = loop.edges[k:] + loop.edges[:k]
        start = g.edge_src[rotated[0]]
        assert mg.grade(mg.Path(start, rotated), labeled) == mg.loop_polarity(loop, labeled)


class TestRelations:
    def test_single_generator_has_no_relations(self):
        loops, _ = mg.simple_loops(g2())
        assert mg.find_relations(loops, 1) == []

    def test_quad_has_exactly_the_diagonal_swap(self):
        loops, _ = mg.simple_loops(q4())
        relations = mg.find_relations(loops, 1)
        assert relations == [mg.Relation((0, 1, 1, 0), (1, 0, 0, 1))]
        # both sides really sum to the same chain: all four edges once
        assert mg.chain_add(loops[1].indicator(), loops[2].indicator()) == mg.chain_add(
            loops[0].indicator(), loops[3].indicator()
        )

    def test_five_edge_graph_has_exactly_three(self):
        loops, _ = mg.simple_loops(r5())
        relations = mg.find_relations(loops, 1)
        assert len(relations) == 3
        for r in relations:
            lhs = _combine(loops, r.lhs)
            rhs = _combine(loops, r.rhs)
            assert lhs == rhs

    def test_guard(self):
        # 4 parallel edges each way: 16 loops of rank 7, so a 9-dimensional kernel
        g = mg.graph(["u", "v"], [(0, 1)] * 4 + [(1, 0)] * 4)
        loops, _ = mg.simple_loops(g)
        with pytest.raises(ValueError, match=r"relation search space 5\^9 > guard 10\^6$"):
            mg.find_relations(loops, 2)
        # 16 loops over 8 distinct edge rows leave at least 8 free coordinates
        with pytest.raises(ValueError, match=r"relation search space at least 7\^8 > guard 10\^6$"):
            mg.find_relations(loops, 3)
        relations = mg.find_relations(loops, 1)
        assert relations and all(_combine(loops, r.lhs) == _combine(loops, r.rhs) for r in relations)

    def test_negative_bound_is_rejected(self):
        loops, _ = mg.simple_loops(q4())
        with pytest.raises(ValueError, match="at least 0, got -1"):
            mg.find_relations(loops, -1)

    def test_independent_loops_have_no_relations(self):
        loops = [mg.SimpleLoop((i,)) for i in range(25)]
        assert mg.find_relations(loops, 3) == []

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_matches_the_exhaustive_search(self, rnd):
        g = rand_graph(rnd, 4, 9)
        loops, _ = mg.simple_loops(g)
        loops = loops[:8]
        for bound in (0, 1, 2):
            assert mg.find_relations(loops, bound) == oracle_relations(loops, bound)


def _combine(loops, vector):
    total = mg.nat_chain({})
    for coefficient, loop in zip(vector, loops):
        for _ in range(coefficient):
            total = mg.chain_add(total, loop.indicator())
    return total


class TestBruteForce:
    """Cases first pinned on the brute-force enumerators, now test oracles:
    `cycles` gives the same lists, and so do the oracles."""

    def test_two_cycle_over_boolean(self):
        expected = [mg.chain(BOOL, {}), mg.chain(BOOL, {0: 1, 1: 1})]
        assert mg.cycles(g2(), BOOL) == brute_force_h1(g2(), BOOL) == expected

    def test_parallel_pair_over_z2_ignores_direction(self):
        z2 = cyclic_group(2)
        expected = [mg.chain(z2, {}), mg.chain(z2, {0: 1, 1: 1})]
        assert mg.cycles(p2(), z2) == brute_force_h1(p2(), z2) == expected

    def test_group_coefficients_cannot_tell_the_two_graphs_apart(self):
        z2 = cyclic_group(2)
        assert len(mg.cycles(g2(), z2)) == len(mg.cycles(p2(), z2))
        assert len(brute_force_h1(g2(), z2)) == len(brute_force_h1(p2(), z2))

    def test_nat_coefficients_can(self):
        for enumerate_cycles in (lambda g: mg.cycles(g, NAT, 1), lambda g: brute_force_circulations(g, 1)):
            assert len(enumerate_cycles(g2())) == 2
            assert len(enumerate_cycles(p2())) == 1  # only zero

    def test_edgeless_graph_has_only_zero(self):
        g = mg.graph(["u", "v"], [])
        assert mg.cycles(g, BOOL) == brute_force_h1(g, BOOL) == [mg.chain(BOOL, {})]

    def test_quad_bound_one_circulations(self):
        chains = mg.cycles(q4(), NAT, 1)
        assert chains == brute_force_circulations(q4(), 1)
        supports = sorted(c.support for c in chains)
        assert supports == [(), (0, 1, 2, 3), (0, 2), (0, 3), (1, 2), (1, 3)]

    def test_dag_has_only_the_zero_circulation(self):
        dag = mg.graph(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)])
        assert mg.cycles(dag, NAT, 3) == brute_force_circulations(dag, 3) == [mg.nat_chain({})]

    def test_guards(self, monkeypatch):
        # every assignment of 21 self-loops is a cycle; the default guard
        # would stop only after a million of them, so a smaller one is set
        big = mg.graph(["u"], [(0, 0)] * 21)
        monkeypatch.setattr(homology, "_CYCLE_GUARD", 10**4)
        with pytest.raises(ValueError, match=r"^cycle search space 2\^21 expanded 10001 nodes > guard 10\^4$"):
            mg.cycles(big, NAT, 1)
        with pytest.raises(ValueError, match=r"^cycle search space 2\^21 expanded 10001 nodes > guard 10\^4$"):
            mg.cycles(big, BOOL)
        with pytest.raises(ValueError, match="enumeration space exceeds the guard"):
            brute_force_circulations(big, 1)
        with pytest.raises(ValueError, match="enumeration space exceeds the guard"):
            brute_force_h1(big, BOOL)


class TestCycles:
    def test_tiny_guard_names_the_numbers(self, monkeypatch):
        monkeypatch.setattr(homology, "_CYCLE_GUARD", 3)
        with pytest.raises(ValueError, match=r"^cycle search space 3\^4 expanded 4 nodes > guard 3$"):
            mg.cycles(q4(), NAT, 2)

    def test_guard_admits_every_unpruned_tree_under_half_of_it(self, monkeypatch):
        # a tree of size^E leaves has fewer than 2 * size^E nodes, so the
        # default guard runs every input with size^E <= 10^6
        assert homology._CYCLE_GUARD == 2 * 10**6
        for algebra, bound, size in ((BOOL, None, 2), (NAT, 2, 3), (truncated_add(3), None, 4)):
            for n_edges in range(1, 6):
                loops = mg.graph(["u"], [(0, 0)] * n_edges)
                monkeypatch.setattr(homology, "_CYCLE_GUARD", 2 * size**n_edges)
                assert len(mg.cycles(loops, algebra, bound)) == size**n_edges

    def test_guard_text_writes_powers_of_ten(self):
        texts = [_over_guard("space", n) for n in (0, 3, 10, 5000, 12000, 10**4, 10**6, 2 * 10**6)]
        spelt = ["0", "3", "10", "5000", "12000", "10^4", "10^6", "2*10^6"]
        assert [t.removeprefix("space > guard ") for t in texts] == spelt

    def test_other_builtins_and_missing_bounds_are_refused(self):
        with pytest.raises(ValueError, match="needs a coefficient bound"):
            mg.cycles(g2(), NAT)
        with pytest.raises(ValueError, match="not IntAdd"):
            mg.cycles(g2(), mg.named_algebra("IntAdd"), 1)
        with pytest.raises(ValueError, match="no coefficient view"):
            mg.cycles(mg.graph(["u"], []), SWAP_RESET)

    def test_a_negative_natural_bound_is_refused(self):
        # the zero chain is always a cycle, so no bound may leave it out
        for g in (g2(), mg.graph([], [])):
            with pytest.raises(ValueError, match=r"^coefficient bound must be at least 0, got -1$"):
                mg.cycles(g, NAT, -1)

    def test_deep_ring_stays_off_the_interpreter_stack(self):
        n = 3000
        ring = mg.graph([f"v{i}" for i in range(n)], [(i, (i + 1) % n) for i in range(n)])
        with recursion_limit(100):
            found = mg.cycles(ring, NAT, 1)
        assert found == [mg.nat_chain({}), mg.nat_chain(dict.fromkeys(range(n), 1))]

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_matches_the_table_oracle(self, rnd):
        g = rand_graph(rnd, 5, 7)
        for algebra in (BOOL, SIGN0, cyclic_group(3), truncated_add(2)):
            assert mg.cycles(g, algebra) == brute_force_h1(g, algebra)

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_matches_the_circulation_oracle(self, rnd):
        g = rand_graph(rnd, 5, 7)
        for bound in (0, 1, 2, 3):
            assert mg.cycles(g, NAT, bound) == brute_force_circulations(g, bound)


@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False))
def test_chain_addition_is_commutative_and_canonical(rnd):
    g = rand_graph(rnd, 4, 6)
    a = mg.nat_chain({e: rnd.randrange(3) for e in range(g.n_edges)})
    b = mg.nat_chain({e: rnd.randrange(3) for e in range(g.n_edges)})
    assert mg.chain_add(a, b) == mg.chain_add(b, a)
    assert all(v != 0 for _, v in mg.chain_add(a, b).items)


class TestEdgeIdsOutsideTheGraph:
    def test_simple_loop_names_the_first_missing_edge(self):
        with pytest.raises(ValueError, match=r"^loop mentions missing edge -2$"):
            mg.simple_loop(g2(), [-2, -1])
        with pytest.raises(ValueError, match=r"^loop mentions missing edge 5$"):
            mg.simple_loop(g2(), [5])
        # before the closure check, in sequence order
        with pytest.raises(ValueError, match=r"^loop mentions missing edge 7$"):
            mg.simple_loop(g2(), [1, 7, -3])

    def test_feedback_names_the_first_missing_edge(self):
        labeled = mg.LabeledGraph(g2(), SIGN, (0, 1))
        cases = [
            (mg.nat_chain({-1: 1}), -1),
            (mg.SimpleLoop((-2, -1)), -2),
            (mg.SimpleLoop((0, 5)), 5),
            (mg.SimpleLoop((9, 0, 4)), 4),
            (mg.nat_chain({0: 1, 4: 2, 9: 1}), 4),
        ]
        for c, missing in cases:
            with pytest.raises(ValueError, match=rf"^chain mentions missing edge {missing}$"):
                mg.feedback(c, labeled)
        # the chain-based checks already refused these
        with pytest.raises(ValueError, match=r"^chain mentions missing edge -1$"):
            mg.is_cycle(mg.nat_chain({-1: 1}), g2())
        with pytest.raises(ValueError, match="path edge 5 does not exist"):
            mg.loop_polarity(mg.SimpleLoop((0, 5)), labeled)

    def test_loop_methods_name_the_missing_edge_they_read(self):
        labeled = mg.LabeledGraph(g2(), SIGN, (0, 1))
        with pytest.raises(ValueError, match=r"^loop mentions missing edge 5$"):
            mg.loop_polarity(mg.SimpleLoop((5,)), labeled)
        with pytest.raises(ValueError, match=r"^loop mentions missing edge -1$"):
            mg.SimpleLoop((-1, 0)).as_path(g2())
        with pytest.raises(ValueError, match=r"^loop mentions missing edge 5$"):
            mg.SimpleLoop((5,)).vertices(g2())
        # a negative id would index from the end
        with pytest.raises(ValueError, match=r"^loop mentions missing edge -1$"):
            mg.SimpleLoop((-1,)).vertices(g2())
        # the first in sequence order
        with pytest.raises(ValueError, match=r"^loop mentions missing edge 9$"):
            mg.SimpleLoop((0, 9, -3)).vertices(g2())
        assert mg.SimpleLoop((0, 1)).vertices(g2()) == (0, 1)


def _random_rig(rnd) -> mg.TableAlgebra:
    """Random operation tables: a rig in name only, most laws broken."""
    n = rnd.randint(1, 4)
    return mg.TableAlgebra(
        tuple(f"x{i}" for i in range(n)),
        tuple(rnd.randrange(n) for _ in range(n * n)),
        rnd.randrange(n),
        tuple(rnd.randrange(n) for _ in range(n * n)),
        rnd.randrange(n),
    )


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_loop_feedback_equals_its_indicator_chains(rnd):
    g = rand_graph(rnd, 5, 9)
    loops, _ = mg.simple_loops(g)
    tables = [a for a in mg.CATALOG.values() if _coefficient_view(a) is not None]
    for algebra in [NAT, *tables, _random_rig(rnd)]:
        draw = (lambda: rnd.randrange(5)) if algebra == NAT else (lambda: rnd.randrange(algebra.size))
        labeled = mg.LabeledGraph(g, algebra, tuple(draw() for _ in range(g.n_edges)))
        for loop in loops:
            assert mg.feedback(loop, labeled) == mg.feedback(loop.indicator(), labeled)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_decomposition_or_its_error_follows_is_cycle(rnd):
    g = rand_graph(rnd, 5, 8)
    loops, _ = mg.simple_loops(g)
    coeffs: dict[int, int] = {}
    for loop in loops:
        for _ in range(rnd.choice((0, 0, 1, 2))):
            for e in loop.edges:
                coeffs[e] = coeffs.get(e, 0) + 1
    if rnd.random() < 0.3 and g.n_edges:
        e = rnd.randrange(g.n_edges)
        coeffs[e] = coeffs.get(e, 0) + rnd.randint(1, 2)  # most likely no longer a cycle
    if rnd.random() < 0.15:
        coeffs[rnd.choice((-1, g.n_edges, g.n_edges + 3))] = 1
    c = mg.chain(NAT, coeffs, rnd.choice(("edges",) * 9 + ("vertices",)))
    try:
        balanced = mg.is_cycle(c, g)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            mg.decompose_cycle(c, g)
        return
    if not balanced:
        with pytest.raises(ValueError, match=r"^chain is not a cycle$"):
            mg.decompose_cycle(c, g)
        return
    parts = mg.decompose_cycle(c, g)
    assert parts == sorted(parts, key=lambda loop: loop.edges)
    assert {p.edges for p in parts} <= {loop.edges for loop in loops}
    total: dict[int, int] = {}
    for p in parts:
        for e in p.edges:
            total[e] = total.get(e, 0) + 1
    assert mg.nat_chain(total) == c


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_components_match_the_bfs_oracle_block_for_block(rnd):
    g = rand_graph(rnd, 14, 16)
    assert mg.undirected_components(g) == bfs_components(g)


def _bundle(m: int, n: int) -> list[mg.SimpleLoop]:
    """The mn simple loops of m parallel u -> v edges and n parallel v -> u edges."""
    loops, _ = mg.simple_loops(mg.graph(["u", "v"], [(0, 1)] * m + [(1, 0)] * n))
    return loops


def _outcome(search, *args):
    try:
        return search(*args)
    except ValueError as exc:
        return str(exc)


class TestRelationsAgainstFractions:
    """The integer elimination against the `Fraction` one it replaced, on
    loop sets past the reach of the exhaustive `oracle_relations`."""

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_matches_the_fraction_elimination(self, rnd):
        if rnd.random() < 0.4:
            m = rnd.randint(2, 5)
            loops = _bundle(m, rnd.randint(-(-9 // m), 16 // m))
        else:
            loops = []
            while len(loops) < 9:
                loops, _ = mg.simple_loops(rand_graph(rnd, 5, 11))
            loops = sorted(rnd.sample(loops, rnd.randint(9, min(16, len(loops)))), key=lambda loop: loop.edges)
        assert 9 <= len(loops) <= 16
        for bound in (0, 1, 2, 3):
            guard = rnd.choice((1, 10, 100, 1000, 5000))
            expected = _outcome(oracle_relations_by_fractions, loops, bound, guard)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(homology, "_RELATION_GUARD", guard)
                assert _outcome(mg.find_relations, loops, bound) == expected

    def test_bundle_relation_counts(self):
        assert _bundle(2, 3) == mg.simple_loops(r5())[0]
        for (m, n), counts in (((2, 3), [3, 9, 18]), ((3, 3), [15, 108, 405])):
            assert [len(mg.find_relations(_bundle(m, n), b)) for b in (1, 2, 3)] == counts
        assert len(mg.find_relations(_bundle(4, 4), 1)) == 1185

    def test_bound_zero_answers_without_eliminating(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("eliminated at bound 0")

        monkeypatch.setattr(homology, "_combine", refuse)
        assert mg.find_relations(_bundle(2, 1000), 0) == []

    def test_bundle_guard_texts(self):
        with pytest.raises(ValueError, match=r"^relation search space 5\^9 > guard 10\^6$"):
            mg.find_relations(_bundle(4, 4), 2)
        with pytest.raises(ValueError, match=r"^relation search space at least 3\^15 > guard 10\^6$"):
            mg.find_relations(_bundle(5, 5), 1)
