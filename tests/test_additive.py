"""Additive morphisms and pushforward labelings."""

import random
from fractions import Fraction

import pytest

import monograph as mg

from helpers import BOOL, NAT, rand_graph, rand_labels

RAT = mg.named_algebra("RatAdd")


def coffee_shop():
    src = mg.labeled_graph(["hours", "sales"], [(0, 1), (0, 1)], RAT, [150, 25])
    dst = mg.labeled_graph(["hours", "sales"], [(0, 1)], RAT, [175])
    m = mg.GraphMorphism(src.graph, dst.graph, (0, 1), (0, 0))
    return m, src, dst


def sign_section_graph():
    """SIGN0 labels read as rationals: RatMulMonoid, whose coefficients add by product."""
    g = mg.labeled_graph(["u", "v"], [(0, 1), (0, 1), (1, 0)], mg.CATALOG["SIGN0"], ["+", "-", "0"])
    return mg.change_labels(mg.sign_section(), g)


def noncommutative_monoid():
    # unit plus two left-absorbing elements: the smallest non-commutative monoid
    return mg.table_algebra(["1", "a", "b"], [[0, 1, 2], [1, 1, 1], [2, 2, 2]], unit=0)


class TestIsAdditive:
    def test_coffee_shop_collapse_sums_to_175(self):
        m, src, dst = coffee_shop()
        assert mg.is_additive_morphism(mg.AdditiveMorphism(m, src, dst)) == (True, None)

    def test_identity_with_identical_labels(self):
        _, src, _ = coffee_shop()
        m = mg.identity_morphism(src.graph)
        assert mg.is_additive_morphism(mg.AdditiveMorphism(m, src, src)) == (True, None)

    def test_three_then_two_parallel_edges_over_nat(self):
        src = mg.labeled_graph(
            ["u", "v", "w"], [(0, 1), (0, 1), (0, 1), (1, 2), (1, 2)], NAT, [1, 1, 2, 1, 1]
        )
        dst = mg.labeled_graph(["u", "v", "w"], [(0, 1), (1, 2)], NAT, [4, 2])
        m = mg.GraphMorphism(src.graph, dst.graph, (0, 1, 2), (0, 0, 0, 1, 1))
        assert mg.is_additive_morphism(mg.AdditiveMorphism(m, src, dst)) == (True, None)

    def test_empty_fiber_must_carry_zero(self):
        src = mg.labeled_graph(["u", "v"], [(0, 1)], NAT, [3])
        dst_bad = mg.labeled_graph(["u", "v"], [(0, 1), (0, 1)], NAT, [3, 5])
        dst_good = mg.labeled_graph(["u", "v"], [(0, 1), (0, 1)], NAT, [3, 0])
        m = mg.GraphMorphism(src.graph, dst_bad.graph, (0, 1), (0,))
        ok, witness = mg.is_additive_morphism(mg.AdditiveMorphism(m, src, dst_bad))
        assert not ok and witness == 1
        assert mg.is_additive_morphism(mg.AdditiveMorphism(m, src, dst_good)) == (True, None)

    def test_noncommutative_algebra_rejected_at_construction(self):
        algebra = noncommutative_monoid()
        g = mg.LabeledGraph(mg.graph(["u", "v"], [(0, 1)]), algebra, (1,))
        with pytest.raises(ValueError):
            mg.AdditiveMorphism(mg.identity_morphism(g.graph), g, g)

    def test_rat_mul_monoid_sums_by_its_product(self):
        src = sign_section_graph()
        dst = mg.labeled_graph(["u", "v"], [(0, 1), (1, 0)], src.algebra, [Fraction(-1), Fraction(0)])
        m = mg.GraphMorphism(src.graph, dst.graph, (0, 1), (0, 0, 1))
        assert mg.is_additive_morphism(mg.AdditiveMorphism(m, src, dst)) == (True, None)
        assert mg.pushforward_labeling(m, src).labels == (Fraction(-1), Fraction(0))
        assert mg.h0(src.graph, src.algebra).count == 1

    def test_rig_labels_sum_with_the_rig_addition(self):
        src = mg.labeled_graph(["u", "v"], [(0, 1), (0, 1)], BOOL, ["0", "1"])
        dst = mg.labeled_graph(["u", "v"], [(0, 1)], BOOL, ["1"])
        m = mg.GraphMorphism(src.graph, dst.graph, (0, 1), (0, 0))
        assert mg.is_additive_morphism(mg.AdditiveMorphism(m, src, dst)) == (True, None)


class TestPushforward:
    def test_coffee_shop_value(self):
        m, src, _ = coffee_shop()
        assert mg.pushforward_labeling(m, src).labels == (Fraction(175),)

    def test_along_identity_is_identity(self):
        _, src, _ = coffee_shop()
        assert mg.pushforward_labeling(mg.identity_morphism(src.graph), src).labels == src.labels

    def test_roundtrip_is_always_additive(self):
        rng = random.Random(5)
        for _ in range(100):
            m = _random_surjection(rng)
            src = rand_labels(rng, m.source, NAT)
            pushed = mg.pushforward_labeling(m, src)
            assert mg.is_additive_morphism(mg.AdditiveMorphism(m, src, pushed)) == (True, None)

    def test_covariant_functoriality_on_random_composites(self):
        rng = random.Random(9)
        for _ in range(100):
            f = _random_surjection(rng)
            g = _random_surjection(rng, target=f.source)
            src = rand_labels(rng, g.source, NAT)
            two_steps = mg.pushforward_labeling(f, mg.pushforward_labeling(g, src))
            one_step = mg.pushforward_labeling(mg.compose_morphisms(f, g), src)
            assert two_steps.labels == one_step.labels

    def test_edges_outside_the_image_get_zero(self):
        src = mg.labeled_graph(["u"], [], NAT, [])
        dst_graph = mg.graph(["u", "v"], [(0, 1)])
        m = mg.GraphMorphism(src.graph, dst_graph, (0,), ())
        assert mg.pushforward_labeling(m, src).labels == (0,)

    def test_order_independence_under_edge_permutation(self):
        rng = random.Random(13)
        for _ in range(50):
            m = _random_surjection(rng)
            src = rand_labels(rng, m.source, NAT)
            order = list(range(m.source.n_edges))
            rng.shuffle(order)
            permuted_graph = mg.graph(
                list(m.source.vertex_names),
                [(m.source.edge_src[e], m.source.edge_tgt[e]) for e in order],
            )
            permuted = mg.LabeledGraph(permuted_graph, NAT, tuple(src.labels[e] for e in order))
            permuted_m = mg.GraphMorphism(
                permuted_graph, m.target, m.f0, tuple(m.f1[e] for e in order)
            )
            assert mg.pushforward_labeling(permuted_m, permuted).labels == mg.pushforward_labeling(m, src).labels


def _random_surjection(rng: random.Random, target=None) -> mg.GraphMorphism:
    """A random morphism from a random multigraph onto a quotient-ish target."""
    if target is None:
        target = rand_graph(rng, 3, 4)
    n = target.n_vertices
    copies = [rng.randint(1, 2) for _ in range(n)]
    offsets = [sum(copies[:v]) for v in range(n)]
    f0 = [v for v in range(n) for _ in range(copies[v])]
    names = [f"w{i}" for i in range(len(f0))]
    edges = []
    f1 = []
    for e in range(target.n_edges):
        u, w = target.edge_src[e], target.edge_tgt[e]
        for _ in range(rng.randint(0, 2)):
            edges.append(
                (offsets[u] + rng.randrange(copies[u]), offsets[w] + rng.randrange(copies[w]))
            )
            f1.append(e)
    return mg.GraphMorphism(mg.graph(names, edges), target, tuple(f0), tuple(f1))
