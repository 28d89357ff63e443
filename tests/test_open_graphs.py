"""Open graph composition, tensoring, 2-morphisms, and isomorphism checking."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monograph as mg
from monograph import open_graphs

from helpers import (
    FIXTURES,
    NAT,
    SIGN,
    oracle_iso_check,
    rand_composable_triple,
    rand_graph,
    rand_labels,
    rand_open,
)


def worked_pair():
    left = mg.load_model(FIXTURES / "open_left.json").open_graph
    right = mg.load_model(FIXTURES / "open_right.json").open_graph
    return left, right


class TestCompose:
    def test_worked_example_matches_the_drawn_composite(self):
        left, right = worked_pair()
        composite = mg.compose(left, right)
        # three interface points land on two boundary vertices, so gluing
        # removes three of the nine vertices
        assert composite.inner.graph.n_vertices == 6
        assert composite.inner.graph.n_edges == 9
        drawn = mg.load_model(FIXTURES / "open_composite.json").open_graph
        ok, _ = mg.iso_check(composite.inner, drawn.inner)
        assert ok
        assert composite.left_foot == ("a1",) and composite.right_foot == ("c1",)

    def test_identity_open_graph_is_neutral_up_to_iso(self):
        rng = random.Random(41)
        for _ in range(20):
            x = rand_open(rng, SIGN, ("a",), ("b", "c"))
            unit = mg.identity_open(x.right_foot, SIGN)
            ok, _ = mg.iso_check(mg.compose(x, unit).inner, x.inner)
            assert ok
            left_unit = mg.identity_open(x.left_foot, SIGN)
            ok, _ = mg.iso_check(mg.compose(left_unit, x).inner, x.inner)
            assert ok

    def test_intro_red_blue_glue_counts(self):
        red = mg.load_model(FIXTURES / "glue_red.json").open_graph
        blue = mg.load_model(FIXTURES / "glue_blue.json").open_graph
        composite = mg.compose(red, blue)
        # 7 + 6 vertices sharing the four interface vertices
        assert composite.inner.graph.n_vertices == 9
        assert composite.inner.graph.n_edges == 13

    def test_foot_mismatch_is_rejected(self):
        left, right = worked_pair()
        with pytest.raises(ValueError):
            mg.compose(right, left)

    def test_edge_count_is_exactly_additive(self):
        rng = random.Random(43)
        for _ in range(30):
            x, y, _ = rand_composable_triple(rng, SIGN)
            both = mg.compose(x, y)
            assert both.inner.graph.n_edges == x.inner.graph.n_edges + y.inner.graph.n_edges
            assert both.inner.labels == x.inner.labels + y.inner.labels

    def test_never_merges_vertices_on_one_side(self):
        rng = random.Random(47)
        for _ in range(30):
            x, y, _ = rand_composable_triple(rng, SIGN)
            composite, map_x, map_y = mg.open_graphs._pushout(x, y)
            shared_x = {x.leg_out[i] for i in range(len(x.right_foot))}
            shared_y = {y.leg_in[i] for i in range(len(y.left_foot))}
            for a in range(x.inner.graph.n_vertices):
                for b in range(a):
                    if map_x[a] == map_x[b]:
                        assert a in shared_x and b in shared_x
            for a in range(y.inner.graph.n_vertices):
                for b in range(a):
                    if map_y[a] == map_y[b]:
                        assert a in shared_y and b in shared_y


class TestTensor:
    def test_tensor_with_empty_is_neutral(self):
        rng = random.Random(53)
        x = rand_open(rng, SIGN, ("a",), ("b",))
        out = mg.tensor(x, mg.empty_open(SIGN))
        assert out.inner == x.inner and out.left_foot == x.left_foot

    def test_sizes_are_additive(self):
        rng = random.Random(59)
        for _ in range(20):
            x = rand_open(rng, SIGN, ("a",), ("b",))
            y = rand_open(rng, SIGN, ("c",), ("d",))
            out = mg.tensor(x, y)
            assert out.inner.graph.n_vertices == x.inner.graph.n_vertices + y.inner.graph.n_vertices
            assert out.inner.graph.n_edges == x.inner.graph.n_edges + y.inner.graph.n_edges

    def test_swap_symmetry_up_to_iso(self):
        rng = random.Random(61)
        for _ in range(20):
            x = rand_open(rng, SIGN, ("a",), ("b",))
            y = rand_open(rng, SIGN, ("c",), ("d",))
            ok, _ = mg.iso_check(mg.tensor(x, y).inner, mg.tensor(y, x).inner)
            assert ok

    def test_colliding_foot_names_are_freshened(self):
        rng = random.Random(67)
        x = rand_open(rng, SIGN, ("a",), ("b",))
        y = rand_open(rng, SIGN, ("a",), ("b",))
        out = mg.tensor(x, y)
        assert out.left_foot == ("a", "a'") and out.right_foot == ("b", "b'")

    def test_interchange_with_compose(self):
        rng = random.Random(71)
        for _ in range(20):
            x, y, _ = rand_composable_triple(rng, SIGN, max_vertices=2, max_edges=3)
            x2, y2, _ = rand_composable_triple(rng, SIGN, max_vertices=2, max_edges=3)
            seq_then_par = mg.tensor(mg.compose(x, y), mg.compose(x2, y2))
            par = mg.compose(mg.tensor(x, x2), mg.tensor(y, y2))
            ok, _ = mg.iso_check(seq_then_par.inner, par.inner)
            assert ok


class TestTwoMorphisms:
    def test_identity_two_morphism(self):
        rng = random.Random(73)
        x = rand_open(rng, SIGN, ("a",), ("b",))
        m = mg.OpenGraphMap(
            x, x, (0,), (0,), mg.identity_morphism(x.inner.graph)
        )
        assert mg.check_2morphism(m, "set") == (True, None)

    def test_vertical_composite_of_valid_maps_is_valid(self):
        first = _parallel_collapse(4, 2)
        second = _parallel_collapse(2, 1)
        assert mg.check_2morphism(first, "set") == (True, None)
        assert mg.check_2morphism(second, "set") == (True, None)
        both = mg.compose_2morphisms(second, first)
        assert mg.check_2morphism(both, "set") == (True, None)

    def test_broken_foot_square_is_witnessed(self):
        x = _parallel_open(1)
        # the same edge, with the output leg moved to a third vertex
        y = mg.OpenGraph(
            mg.labeled_graph(["u", "v", "w"], [(0, 1)], SIGN, ["+"]), ("a",), ("b",), (0,), (2,)
        )
        bad = mg.OpenGraphMap(x, y, (0,), (0,), mg.GraphMorphism(
            x.inner.graph, y.inner.graph, (0, 1), (0,)
        ))
        assert mg.check_2morphism(bad, "set") == (False, ("right-foot", 0))
        # an invalid inner map is reported before any foot square is read
        worse = mg.OpenGraphMap(x, x, (0,), (0,), mg.GraphMorphism(
            x.inner.graph, x.inner.graph, (0, 0), (0,)
        ))
        assert mg.check_2morphism(worse, "set") == (False, ("inner", "invalid-morphism"))

    def test_partial_vertex_map_is_an_invalid_inner_map(self):
        x = _parallel_open(1)
        partial = mg.OpenGraphMap(x, x, (0,), (0,), mg.GraphMorphism(
            x.inner.graph, x.inner.graph, (0,), (0,)
        ))
        assert mg.check_2morphism(partial, "set") == (False, ("inner", "invalid-morphism"))

    def test_additive_mode_checks_fiber_sums(self):
        src = mg.labeled_graph(["p", "q"], [(0, 1), (0, 1)], NAT, [2, 3])
        dst = mg.labeled_graph(["p", "q"], [(0, 1)], NAT, [5])
        x = mg.OpenGraph(src, ("a",), ("b",), (0,), (1,))
        y = mg.OpenGraph(dst, ("a",), ("b",), (0,), (1,))
        inner = mg.GraphMorphism(src.graph, dst.graph, (0, 1), (0, 0))
        assert mg.check_2morphism(mg.OpenGraphMap(x, y, (0,), (0,), inner), "additive") == (True, None)

    def test_kleisli_mode_checks_grades(self):
        src = mg.labeled_graph(["p", "q"], [(0, 1)], NAT, [5])
        dst = mg.labeled_graph(["p", "m", "q"], [(0, 1), (1, 2)], NAT, [3, 2])
        x = mg.OpenGraph(src, ("a",), ("b",), (0,), (1,))
        y = mg.OpenGraph(dst, ("a",), ("b",), (0,), (2,))
        inner = mg.KleisliMorphism(src, dst, (0, 2), (mg.Path(0, (0, 1)),))
        assert mg.check_2morphism(mg.OpenGraphMap(x, y, (0,), (0,), inner), "kleisli") == (True, None)

    def test_unknown_mode_is_rejected(self):
        first = _parallel_collapse(4, 2)
        second = _parallel_collapse(2, 1)
        with pytest.raises(ValueError, match="unknown mode"):
            mg.check_2morphism(first, "strict")
        with pytest.raises(ValueError, match="unknown mode"):
            mg.compose_2morphisms(second, first, "strict")


def _parallel_open(k: int) -> mg.OpenGraph:
    """k parallel + edges from u to v, with one input and one output leg."""
    inner = mg.labeled_graph(["u", "v"], [(0, 1)] * k, SIGN, ["+"] * k)
    return mg.OpenGraph(inner, ("a",), ("b",), (0,), (1,))


def _parallel_collapse(k: int, j: int) -> mg.OpenGraphMap:
    """Fold k parallel edges onto the first j of them; labels all agree."""
    x, y = _parallel_open(k), _parallel_open(j)
    inner = mg.GraphMorphism(x.inner.graph, y.inner.graph, (0, 1), tuple(min(e, j - 1) for e in range(k)))
    return mg.OpenGraphMap(x, y, (0,), (0,), inner)


def _hexagon_and_triangles() -> tuple[mg.Graph, mg.Graph]:
    names = [f"v{i}" for i in range(6)]
    hexagon = mg.graph(names, [(i, (i + 1) % 6) for i in range(6)])
    return hexagon, mg.graph(names, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])


class TestIsoCheck:
    def test_graph_is_isomorphic_to_itself(self):
        g = mg.load_model(FIXTURES / "host.json").graph
        ok, (f0, f1) = mg.iso_check(g, g)
        assert ok and f0 == tuple(range(g.graph.n_vertices))

    def test_cycle_and_parallel_pair_differ(self):
        g2 = mg.graph(["u", "v"], [(0, 1), (1, 0)])
        p2 = mg.graph(["u", "v"], [(0, 1), (0, 1)])
        assert mg.iso_check(g2, p2) == (False, None)

    def test_random_relabelings_are_found(self):
        rng = random.Random(79)
        for _ in range(30):
            g = rand_open(rng, SIGN, (), (), max_vertices=5, max_edges=6).inner
            permutation = list(range(g.graph.n_vertices))
            rng.shuffle(permutation)
            edge_order = list(range(g.graph.n_edges))
            rng.shuffle(edge_order)
            shuffled = mg.LabeledGraph(
                mg.graph(
                    [g.graph.vertex_names[permutation.index(i)] for i in range(g.graph.n_vertices)],
                    [(permutation[g.graph.edge_src[e]], permutation[g.graph.edge_tgt[e]]) for e in edge_order],
                ),
                SIGN,
                tuple(g.labels[e] for e in edge_order),
            )
            ok, iso = mg.iso_check(g, shuffled)
            assert ok
            f0, f1 = iso
            # certificate really is a label-respecting morphism
            for e in range(g.graph.n_edges):
                assert shuffled.graph.edge_src[f1[e]] == f0[g.graph.edge_src[e]]
                assert shuffled.graph.edge_tgt[f1[e]] == f0[g.graph.edge_tgt[e]]
                assert shuffled.labels[f1[e]] == g.labels[e]
            assert sorted(f0) == list(range(g.graph.n_vertices))
            assert sorted(f1) == list(range(g.graph.n_edges))

    def test_label_change_breaks_isomorphism(self):
        a = mg.labeled_graph(["u", "v"], [(0, 1)], SIGN, ["+"])
        b = mg.labeled_graph(["u", "v"], [(0, 1)], SIGN, ["-"])
        assert mg.iso_check(a, b) == (False, None)

    def test_directed_six_cycle_is_not_two_triangles(self):
        # every vertex has one edge in and one out, so only backtracking
        # tells the two apart
        hexagon, triangles = _hexagon_and_triangles()
        assert mg.iso_check(hexagon, triangles) == (False, None)
        assert mg.iso_check(triangles, hexagon) == (False, None)

    def test_graphs_past_twelve_vertices_are_searched(self):
        ring = mg.graph([f"v{i}" for i in range(40)], [(i, (i + 1) % 40) for i in range(40)])
        ok, (f0, f1) = mg.iso_check(ring, ring)
        assert ok and f0 == tuple(range(40)) and f1 == tuple(range(40))

    def test_guard_counts_placements_tried(self, monkeypatch):
        monkeypatch.setattr(open_graphs, "_ISO_GUARD", 5)
        hexagon, triangles = _hexagon_and_triangles()
        with pytest.raises(ValueError, match=r"on 6 vertices tried 6 placements > guard 5$"):
            mg.iso_check(hexagon, triangles)

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans(), st.sampled_from(["shuffled", "rewired", "relabelled"]))
    def test_result_and_witness_match_the_recursive_oracle(self, rnd, labeled, kind):
        g = rand_graph(rnd, 8, 12)
        n, m = g.n_vertices, g.n_edges
        permutation = list(range(n))
        rnd.shuffle(permutation)
        edge_order = list(range(m))
        rnd.shuffle(edge_order)
        ends = [(permutation[g.edge_src[e]], permutation[g.edge_tgt[e]]) for e in edge_order]
        if kind == "rewired" and m:
            ends[rnd.randrange(m)] = (rnd.randrange(n), rnd.randrange(n))
        copy = mg.graph(list(g.vertex_names), ends)
        if labeled:
            g = rand_labels(rnd, g, SIGN)
            labels = [g.labels[e] for e in edge_order]
            if kind == "relabelled" and m:
                labels[rnd.randrange(m)] = rnd.randrange(SIGN.size)
            copy = mg.LabeledGraph(copy, SIGN, tuple(labels))
        assert mg.iso_check(g, copy) == oracle_iso_check(g, copy)
        assert mg.iso_check(copy, g) == oracle_iso_check(copy, g)


class TestAssociativity:
    def test_compose_is_associative_up_to_iso(self):
        rng = random.Random(83)
        for _ in range(30):
            x, y, z = rand_composable_triple(rng, SIGN)
            left = mg.compose(mg.compose(x, y), z)
            right = mg.compose(x, mg.compose(y, z))
            ok, _ = mg.iso_check(left.inner, right.inner)
            assert ok
            assert left.left_foot == right.left_foot and left.right_foot == right.right_foot
