"""Path grading, composition, and Kleisli morphisms."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monograph as mg

from helpers import NAT, SIGN, homework, host, rand_graph, rand_labels

# homework edge ids: 0 effort-sleep(-), 1 sleep-quality(+), 2 effort-quality(+),
# 3 quality-grades(+), 4 grades-effort(-); vertices: 0 effort, 1 sleep, 2 quality, 3 grades


class TestGrade:
    def test_empty_path_grades_to_the_unit(self):
        g = homework()
        assert mg.grade(mg.Path(0), g) == g.algebra.one

    def test_effort_to_quality_through_sleep_is_negative(self):
        g = homework()
        path = mg.Path(0, (0, 1))
        assert g.algebra.label_text(mg.grade(path, g)) == "-"

    def test_host_triangle_is_positive(self):
        h = host()
        # A -> B -> C -> A uses edges ab(0), bc(1), ca(7)
        assert h.algebra.label_text(mg.grade(mg.Path(0, (0, 1, 7)), h)) == "+"

    def test_invalid_path_is_rejected(self):
        g = homework()
        with pytest.raises(ValueError):
            mg.grade(mg.Path(0, (1,)), g)  # edge 1 starts at sleep, not effort


class TestComposePaths:
    def test_identity_is_neutral(self):
        g = homework()
        p = mg.Path(0, (0, 1))
        assert mg.compose_paths(p, mg.Path(2), g.graph) == p
        assert mg.compose_paths(mg.Path(0), p, g.graph) == p

    def test_two_halves_of_a_two_cycle(self):
        g2 = mg.graph(["u", "v"], [(0, 1), (1, 0)])
        loop = mg.compose_paths(mg.Path(0, (0,)), mg.Path(1, (1,)), g2)
        assert loop == mg.Path(0, (0, 1))

    def test_mismatched_endpoints_are_rejected(self):
        g = homework()
        with pytest.raises(ValueError):
            mg.compose_paths(mg.Path(0, (0,)), mg.Path(0, (0,)), g.graph)

    def test_grade_is_multiplicative_under_composition(self):
        g = homework()
        rng = random.Random(2)
        for _ in range(50):
            p = _random_path(rng, g.graph)
            q = _random_path(rng, g.graph, start=mg.path_end(p, g.graph))
            both = mg.compose_paths(p, q, g.graph)
            assert mg.grade(both, g) == g.algebra.mul(mg.grade(q, g), mg.grade(p, g))


def _random_path(rng: random.Random, g: mg.Graph, start=None, max_len=5) -> mg.Path:
    at = rng.randrange(g.n_vertices) if start is None else start
    origin = at
    edges = []
    for _ in range(rng.randint(0, max_len)):
        options = g.out_edges(at)
        if not options:
            break
        e = rng.choice(options)
        edges.append(e)
        at = g.edge_tgt[e]
    return mg.Path(origin, tuple(edges))


@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False))
def test_grade_fold_direction_is_irrelevant(rnd):
    g = rand_labels(rnd, rand_graph(rnd, 5, 7), SIGN)
    p = _random_path(rnd, g.graph)
    left = g.algebra.one
    for e in p.edges:
        left = g.algebra.mul(g.labels[e], left)
    right = g.algebra.one
    for e in reversed(p.edges):
        right = g.algebra.mul(right, g.labels[e])
    assert mg.grade(p, g) == left == right


class TestKleisli:
    def test_loop_motif_into_host_triangle(self):
        motif = mg.builtin_motif("positive-autoregulation")
        h = host()
        k = mg.KleisliMorphism(motif, h, (0,), (mg.Path(0, (0, 1, 7)),))
        assert mg.is_kleisli_morphism(k) == (True, None)

    def test_an_edge_can_map_to_a_two_step_path(self):
        src = mg.labeled_graph(["u", "w"], [(0, 1)], NAT, [5])
        dst = mg.labeled_graph(["u", "v", "w"], [(0, 1), (1, 2)], NAT, [3, 2])
        k = mg.KleisliMorphism(src, dst, (0, 2), (mg.Path(0, (0, 1)),))
        assert mg.is_kleisli_morphism(k) == (True, None)

    def test_wrong_grade_is_caught(self):
        motif = mg.builtin_motif("positive-autoregulation")
        h = host()
        relabeled = mg.LabeledGraph(h.graph, h.algebra, (h.labels[0], 1 - h.labels[1]) + h.labels[2:])
        k = mg.KleisliMorphism(motif, relabeled, (0,), (mg.Path(0, (0, 1, 7)),))
        ok, witness = mg.is_kleisli_morphism(k)
        assert not ok and witness == 0

    def test_identity_and_composition_preserve_validity(self):
        rng = random.Random(17)
        for _ in range(50):
            far = rand_labels(rng, rand_graph(rng, 4, 6), SIGN)
            outer = _random_kleisli_into(rng, far)
            inner = _random_kleisli_into(rng, outer.source)
            assert mg.is_kleisli_morphism(outer) == (True, None)
            assert mg.is_kleisli_morphism(inner) == (True, None)
            both = mg.compose_kleisli(outer, inner)
            assert mg.is_kleisli_morphism(both) == (True, None)
            # grades are preserved by construction: the composite's source is
            # the inner source, whose labels the validity check just matched
            ident = mg.kleisli_identity(outer.source)
            assert mg.is_kleisli_morphism(ident) == (True, None)
            again = mg.compose_kleisli(outer, ident)
            assert again.vertex_map == outer.vertex_map and again.edge_map == outer.edge_map

    def test_respects_hom_variant(self):
        rat = mg.named_algebra("RatMulMonoid")
        src = mg.labeled_graph(["u", "w"], [(0, 1)], rat, [6])
        sign0 = mg.CATALOG["SIGN0"]
        dst = mg.labeled_graph(["u", "v", "w"], [(0, 1), (1, 2)], sign0, ["+", "+"])
        k = mg.KleisliMorphism(src, dst, (0, 2), (mg.Path(0, (0, 1)),))
        assert mg.kleisli_respects_hom(mg.sign_hom(), k)

    def test_partial_maps_raise_through_the_hom(self):
        rat = mg.named_algebra("RatMulMonoid")
        src = mg.labeled_graph(["u", "w"], [(0, 1)], rat, [6])
        dst = mg.labeled_graph(["u", "v", "w"], [(0, 1), (1, 2)], mg.CATALOG["SIGN0"], ["+", "+"])
        short = mg.KleisliMorphism(src, dst, (0, 2), ())
        dangling = mg.KleisliMorphism(src, dst, (0, 7), (mg.Path(0, (0, 1)),))
        for k in (short, dangling):
            with pytest.raises(ValueError, match="not total|missing vertex"):
                mg.kleisli_respects_hom(mg.sign_hom(), k)
            with pytest.raises(ValueError, match="not total|missing vertex"):
                mg.grothendieck_morphism_check(mg.sign_hom(), k, src, dst, "kleisli")


def _random_kleisli_into(rng: random.Random, target: mg.LabeledGraph) -> mg.KleisliMorphism:
    """Build a valid Kleisli morphism by choosing bounded paths first, then
    deriving the source graph and its labels from where the paths run."""
    n = rng.randint(1, 3)
    vertex_map = tuple(rng.randrange(target.graph.n_vertices) for _ in range(n))
    inverse: dict[int, list[int]] = {}
    for s, v in enumerate(vertex_map):
        inverse.setdefault(v, []).append(s)
    edges = []
    paths = []
    labels = []
    for _ in range(rng.randint(0, 4)):
        src = rng.randrange(n)
        path = _random_path(rng, target.graph, start=vertex_map[src], max_len=3)
        landing = inverse.get(mg.path_end(path, target.graph), [])
        if not landing:
            continue  # no source vertex sits over the path's end
        edges.append((src, rng.choice(landing)))
        paths.append(path)
        labels.append(mg.grade(path, target))
    source_graph = mg.graph([f"s{i}" for i in range(n)], edges)
    labeled_source = mg.LabeledGraph(source_graph, target.algebra, tuple(labels))
    return mg.KleisliMorphism(labeled_source, target, vertex_map, tuple(paths))
