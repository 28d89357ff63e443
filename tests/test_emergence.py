"""Glued graphs, side words, and the equalizer-style emergence checks."""

import random

import pytest

import monograph as mg
from monograph.homology import NAT

from helpers import BOOL, FIXTURES, TRIVIAL, brute_force_circulations, rand_glue_pair

from test_algebra import cyclic_group, truncated_add


def intro_pair() -> tuple[mg.OpenGraph, mg.OpenGraph]:
    red = mg.load_model(FIXTURES / "glue_red.json").open_graph
    blue = mg.load_model(FIXTURES / "glue_blue.json").open_graph
    return red, blue


def intro_glue() -> mg.GluedGraph:
    return mg.glue(*intro_pair())


def boolean_glue() -> mg.GluedGraph:
    left = mg.load_model(FIXTURES / "noncancellative_left.json").open_graph
    right = mg.load_model(FIXTURES / "noncancellative_right.json").open_graph
    return mg.glue(left, right)


class TestGlue:
    def test_sides_partition_the_edges(self):
        g = intro_glue()
        assert g.side.count("x") == 7 and g.side.count("y") == 6
        assert len(g.shared) == 4
        _, map_x, map_y = mg.open_graphs._pushout(*intro_pair())
        assert set(g.shared) == set(map_x) & set(map_y)

    def test_composite_is_connected(self):
        g = intro_glue()
        assert mg.h0(g.composite.graph, NAT).count == 1
        assert len(mg.undirected_components(g.composite.graph)) == 1

    def test_non_injective_leg_is_rejected(self):
        inner = mg.labeled_graph(["u", "v"], [], TRIVIAL, [])
        x = mg.OpenGraph(inner, (), ("a", "b"), (), (0, 0))
        y = mg.OpenGraph(inner, ("a", "b"), (), (0, 1), ())
        with pytest.raises(ValueError):
            mg.glue(x, y)

    def test_empty_interface_gives_a_disjoint_union(self):
        loop = mg.labeled_graph(["u", "v"], [(0, 1), (1, 0)], TRIVIAL, [1, 1])
        x = mg.OpenGraph(loop, (), (), (), ())
        y = mg.OpenGraph(loop, (), (), (), ())
        report = mg.emergence_report(mg.glue(x, y))
        assert len(report.rows) == 2
        assert all(row.inherited for row in report.rows)
        assert all(len(row.word) == 1 for row in report.rows)

    def test_one_edgeless_side_gives_single_letter_words(self):
        loop = mg.labeled_graph(["u", "v"], [(0, 1), (1, 0)], TRIVIAL, [1, 1])
        x = mg.OpenGraph(loop, (), ("u",), (), (0,))
        bare = mg.labeled_graph(["u"], [], TRIVIAL, [])
        y = mg.OpenGraph(bare, ("u",), (), (0,), ())
        report = mg.emergence_report(mg.glue(x, y))
        assert [row.word for row in report.rows] == ["x"]
        assert report.rows[0].inherited


class TestGradeWords:
    def test_bold_path_grades_as_expected(self):
        g = intro_glue()
        # a -> b -> d -> e -> f -> g -> c: three red steps, two blue, one red
        names = list(g.composite.graph.vertex_names)
        bold_edges = []
        for src_name, tgt_name in [("a", "b"), ("b", "d"), ("d", "e"), ("e", "f"), ("f", "g"), ("g", "c")]:
            s, t = names.index(src_name), names.index(tgt_name)
            bold_edges.append(
                next(
                    e
                    for e in range(g.composite.graph.n_edges)
                    if g.composite.graph.edge_src[e] == s and g.composite.graph.edge_tgt[e] == t
                )
            )
        path = mg.Path(names.index("a"), tuple(bold_edges))
        assert mg.grade_word(path, g) == "xxxyyx"
        assert mg.format_word(mg.grade_word(path, g)) == "x^3 y^2 x"
        assert mg.grade_word(path, g, collapse=True) == "xyx"

    def test_empty_path_has_the_empty_word(self):
        g = intro_glue()
        assert mg.grade_word(mg.Path(0), g) == ""

    def test_single_side_path_collapses_to_one_letter(self):
        g = intro_glue()
        names = list(g.composite.graph.vertex_names)
        a, b = names.index("a"), names.index("b")
        edge = next(
            e
            for e in range(g.composite.graph.n_edges)
            if g.composite.graph.edge_src[e] == a and g.composite.graph.edge_tgt[e] == b
        )
        assert mg.grade_word(mg.Path(a, (edge,)), g, collapse=True) == "x"


class TestSideProjections:
    def test_projections_reassemble_the_chain(self):
        g = intro_glue()
        rng = random.Random(5)
        for _ in range(20):
            c = mg.nat_chain({e: rng.randrange(3) for e in range(g.composite.graph.n_edges)})
            both = mg.chain_add(mg.side_projection(c, g, "x"), mg.side_projection(c, g, "y"))
            assert both == c

    def test_pure_red_cycle_projects_to_zero_on_blue(self):
        loop = mg.labeled_graph(["u", "v"], [(0, 1), (1, 0)], TRIVIAL, [1, 1])
        x = mg.OpenGraph(loop, (), ("u",), (), (0,))
        y = mg.OpenGraph(mg.labeled_graph(["u"], [], TRIVIAL, []), ("u",), (), (0,), ())
        g = mg.glue(x, y)
        c = mg.nat_chain({0: 1, 1: 1})
        assert mg.side_projection(c, g, "y").is_zero

    def test_boolean_counterexample_projections(self):
        g = boolean_glue()
        c = mg.chain(BOOL, {0: 1, 1: 1, 2: 1})
        graph = g.composite.graph
        assert mg.is_cycle(c, graph)
        assert mg.is_cycle(mg.side_projection(c, g, "x"), graph)
        assert not mg.is_cycle(mg.side_projection(c, g, "y"), graph)
        assert not mg.is_inherited_cycle(c, g)


class TestInheritedCycles:
    def test_sum_of_one_cycle_per_side_is_inherited(self):
        loop = mg.labeled_graph(["u", "v"], [(0, 1), (1, 0)], TRIVIAL, [1, 1])
        x = mg.OpenGraph(loop, (), ("u",), (), (0,))
        y = mg.OpenGraph(loop, ("u",), (), (0,), ())
        g = mg.glue(x, y)
        both = mg.nat_chain({0: 1, 1: 1, 2: 1, 3: 1})
        assert mg.is_inherited_cycle(both, g)

    def test_intro_bold_loop_is_emergent(self):
        g = intro_glue()
        loops, _ = mg.simple_loops(g.composite.graph)
        seven = next(l for l in loops if len(l.edges) == 7)
        assert not mg.is_inherited_cycle(seven.indicator(), g)

    def test_non_cycles_are_rejected(self):
        g = intro_glue()
        with pytest.raises(ValueError):
            mg.is_inherited_cycle(mg.nat_chain({0: 1}), g)

    def test_loop_is_inherited_iff_word_is_one_letter(self):
        rng = random.Random(11)
        for _ in range(40):
            x, y = rand_glue_pair(rng, TRIVIAL)
            g = mg.glue(x, y)
            loops, _ = mg.simple_loops(g.composite.graph)
            for loop in loops:
                word = mg.grade_word(loop.as_path(g.composite.graph), g, collapse=True)
                assert (len(word) == 1) == mg.is_inherited_cycle(loop.indicator(), g)
            rows = mg.emergence_report(g).rows
            assert [row.inherited for row in rows] == [mg.is_inherited_cycle(loop.indicator(), g) for loop in loops]


class TestMayerVietoris:
    def test_intro_glue_over_nat_all_modes_agree(self):
        g = intro_glue()
        for mode in ("two-sided", "one-sided", "q-form"):
            report = mg.mv_check(g, NAT, mode, bound=1)
            assert report.ok
        assert mg.emergence_report(g).emergent_count >= 1

    def test_intro_glue_at_bound_two(self):
        # 3^13 assignments, past the million the old enumeration admitted;
        # the brute-force oracle with a raised guard also finds 27 cycles
        g = intro_glue()
        graph = g.composite.graph
        assert mg.cycles(graph, NAT, 1) == brute_force_circulations(graph, 1)
        all_cycles = mg.cycles(graph, NAT, 2)
        assert len(all_cycles) == 27
        assert all(mg.is_cycle(c, graph) and max(c.as_dict().values(), default=0) <= 2 for c in all_cycles)
        for mode in ("two-sided", "one-sided", "q-form"):
            report = mg.mv_check(g, NAT, mode, bound=2)
            assert report.ok and report.total_cycles == 27

    def test_boolean_counterexample_passes_one_sided_but_is_not_inherited(self):
        g = boolean_glue()
        report = mg.mv_check(g, BOOL, "one-sided", side="x")
        assert not report.ok
        target = mg.chain(BOOL, {0: 1, 1: 1, 2: 1})
        assert target in report.mismatches
        assert mg.mv_check(g, BOOL, "two-sided").ok

    def test_disjoint_cycles_have_no_emergence(self):
        loop = mg.labeled_graph(["u", "v"], [(0, 1), (1, 0)], TRIVIAL, [1, 1])
        x = mg.OpenGraph(loop, (), (), (), ())
        y = mg.OpenGraph(loop, (), (), (), ())
        g = mg.glue(x, y)
        for mode in ("two-sided", "one-sided", "q-form"):
            assert mg.mv_check(g, NAT, mode, bound=2).ok
        assert mg.emergence_report(g).emergent_count == 0

    def test_side_cycle_sums_are_injective(self):
        # disjoint edge supports: distinct (x-cycle, y-cycle) pairs give
        # distinct sums, so the image enumeration never collapses pairs
        rng = random.Random(23)
        for _ in range(15):
            x, y = rand_glue_pair(rng, TRIVIAL, max_edges=3)
            g = mg.glue(x, y)
            cycles = mg.cycles(g.composite.graph, NAT, 1)
            x_cycles = [c for c in cycles if mg.side_projection(c, g, "x") == c]
            y_cycles = [c for c in cycles if mg.side_projection(c, g, "y") == c]
            sums = {mg.chain_add(cx, cy) for cx in x_cycles for cy in y_cycles}
            assert len(sums) == len(x_cycles) * len(y_cycles)

    def test_two_sided_always_agrees_on_random_glues(self):
        rng = random.Random(13)
        algebras = [NAT, cyclic_group(2), truncated_add(2), BOOL]
        for i in range(25):
            x, y = rand_glue_pair(rng, TRIVIAL, max_edges=3)
            g = mg.glue(x, y)
            algebra = algebras[i % len(algebras)]
            bound = 1 if algebra is NAT else None
            assert mg.mv_check(g, algebra, "two-sided", bound=bound).ok

    def test_one_sided_and_q_form_agree_for_cancellative_coefficients(self):
        rng = random.Random(17)
        for i in range(20):
            x, y = rand_glue_pair(rng, TRIVIAL, max_edges=3)
            g = mg.glue(x, y)
            algebra = [NAT, cyclic_group(2), cyclic_group(3)][i % 3]
            bound = 1 if algebra is NAT else None
            for mode in ("one-sided", "q-form"):
                for side in ("x", "y"):
                    assert mg.mv_check(g, algebra, mode, bound=bound, side=side).ok


class TestEmergenceReport:
    def test_intro_composite_report(self):
        g = intro_glue()
        red_loops, _ = mg.simple_loops(
            mg.load_model(FIXTURES / "glue_red.json").open_graph.inner.graph
        )
        blue_loops, _ = mg.simple_loops(
            mg.load_model(FIXTURES / "glue_blue.json").open_graph.inner.graph
        )
        assert red_loops == [] and blue_loops == []
        report = mg.emergence_report(g)
        assert len(report.rows) >= 1
        assert report.emergent_count == len(report.rows)
        assert all(len(row.word) >= 2 for row in report.rows)
