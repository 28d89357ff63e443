"""Graph morphisms, pullbacks, label changes, and the semiautomaton bridge."""

import itertools
import random
from fractions import Fraction

import pytest

import monograph as mg
from monograph import graphs

from helpers import SIGN, SIGN0, bfs_components, homework, rand_graph, rand_labels


def refinement():
    """Two sale lines collapsing onto one: the standard model-refinement map."""
    fine = mg.graph(["egg sales", "milk sales", "profits"], [(0, 2), (1, 2)])
    coarse = mg.graph(["sales", "profits"], [(0, 1)])
    return mg.GraphMorphism(fine, coarse, (0, 0, 1), (0, 0))


class TestGraph:
    @pytest.mark.parametrize("src, tgt", [((True,), (False,)), ((0,), (True,))])
    def test_a_bool_is_not_a_vertex_id(self, src, tgt):
        with pytest.raises(ValueError, match="is not a vertex id"):
            mg.Graph(("a", "b"), src, tgt)

    @pytest.mark.parametrize(
        "src, tgt, bad",
        [
            ([0, 2, -1], [1, 0, 0], "2"),
            ((0, 1), [1, -1], "-1"),
            ((0, 1.0), (1, "a"), "1.0"),
            ([0], ["0"], "'0'"),
        ],
    )
    def test_the_first_bad_endpoint_is_named(self, src, tgt, bad):
        # sources are read before targets, lists and tuples alike
        with pytest.raises(ValueError, match=rf"^edge endpoint {bad} is not a vertex id$"):
            mg.Graph(("a", "b"), src, tgt)

    def test_endpoints_may_come_as_lists(self):
        g = mg.Graph(("a", "b"), [0, 1], (1, 1))
        assert g.out_adjacency == ((0,), (1,)) and g.in_adjacency == ((), (0, 1))


class TestLabeledGraph:
    @pytest.mark.parametrize(
        "algebra, labels, bad",
        [
            (SIGN, (0, 2, -1), "2"),
            (SIGN, (1, True), "True"),
            (SIGN, (0, "+"), "'\\+'"),
            (mg.named_algebra("NatAdd"), (3, -1, -2), "-1"),
        ],
    )
    def test_the_first_bad_label_is_named(self, algebra, labels, bad):
        g = mg.graph(["a"], [(0, 0)] * len(labels))
        with pytest.raises(ValueError, match=rf"^label {bad} is not an element of the algebra$"):
            mg.LabeledGraph(g, algebra, labels)


class TestValidateMorphism:
    def test_identity_is_valid(self):
        g = homework().graph
        assert mg.validate_morphism(mg.identity_morphism(g)).ok

    def test_refinement_is_valid(self):
        assert mg.validate_morphism(refinement()).ok

    def test_broken_square_names_the_edge(self):
        fine = mg.graph(["a", "b"], [(0, 1)])
        coarse = mg.graph(["x", "y"], [(0, 1)])
        bad = mg.GraphMorphism(fine, coarse, (1, 0), (0,))  # vertices swapped
        report = mg.validate_morphism(bad)
        assert any(v.code == "source-square" and v.witness == (0,) for v in report.violations)

    def test_dangling_target_is_structural(self):
        fine = mg.graph(["a"], [])
        coarse = mg.graph(["x"], [])
        report = mg.validate_morphism(mg.GraphMorphism(fine, coarse, (5,), ()))
        assert any(v.code == "dangling-vertex" for v in report.violations)


class TestAdjacency:
    def test_matches_the_edge_scan_on_random_multigraphs(self):
        rng = random.Random(29)
        self_loops = parallel = 0
        for _ in range(200):
            g = rand_graph(rng, 4, 10)
            pairs = list(zip(g.edge_src, g.edge_tgt))
            self_loops += any(s == t for s, t in pairs)
            parallel += len(set(pairs)) < len(pairs)
            for v in range(g.n_vertices):
                assert g.out_adjacency[v] == tuple(e for e in range(g.n_edges) if g.edge_src[e] == v)
                assert g.in_adjacency[v] == tuple(e for e in range(g.n_edges) if g.edge_tgt[e] == v)
        assert self_loops and parallel

    def test_edge_lists_are_fresh_copies(self):
        g = mg.graph(["u", "v"], [(0, 1), (0, 1), (1, 0), (1, 1)])
        g.out_edges(0).append(3)
        g.in_edges(1).clear()
        assert g.out_edges(0) == [0, 1]
        assert g.in_edges(1) == [0, 1, 3]

    def test_cached_adjacency_leaves_equality_and_hash_alone(self):
        a = mg.graph(["u", "v"], [(0, 1), (1, 0)])
        b = mg.graph(["u", "v"], [(0, 1), (1, 0)])
        assert a.out_adjacency == ((0,), (1,))
        assert a == b and hash(a) == hash(b)

    def test_a_graph_builds_one_index(self, monkeypatch):
        calls = []
        incidence = graphs._incidence
        monkeypatch.setattr(graphs, "_incidence", lambda *args: calls.append(args) or incidence(*args))
        g = mg.graph(["u", "v"], [(0, 1), (1, 1)])
        assert len(calls) == 1 and "in_adjacency" not in vars(g)
        assert g.in_adjacency == ((), (0, 1))


class TestLabelPreservation:
    def test_refinement_preserves_plus_labels(self):
        m = refinement()
        fine = mg.LabeledGraph(m.source, SIGN, (0, 0))
        coarse = mg.LabeledGraph(m.target, SIGN, (0,))
        assert mg.is_label_preserving(m, fine, coarse) == (True, None)

    def test_identity_preserves_labels(self):
        g = homework()
        assert mg.is_label_preserving(mg.identity_morphism(g.graph), g, g) == (True, None)

    def test_graphs_must_be_the_morphism_endpoints(self):
        two = mg.labeled_graph(["u", "v"], [(0, 1), (1, 0)], SIGN, ["+", "-"])
        one = mg.labeled_graph(["u", "v"], [(0, 1)], SIGN, ["+"])
        identity = mg.identity_morphism(two.graph)
        with pytest.raises(ValueError, match="source does not match"):
            mg.is_label_preserving(identity, one, two)
        with pytest.raises(ValueError, match="target does not match"):
            mg.is_label_preserving(identity, two, one)
        with pytest.raises(ValueError, match="source does not match"):
            mg.grothendieck_morphism_check(mg.MonoidHom(SIGN, SIGN, mapping=(0, 1)), identity, one, two, "set")

    def test_relabeled_target_yields_witness(self):
        m = refinement()
        fine = mg.LabeledGraph(m.source, SIGN, (0, 0))
        coarse = mg.LabeledGraph(m.target, SIGN, (1,))
        ok, witness = mg.is_label_preserving(m, fine, coarse)
        assert not ok and witness == 0  # the egg-sales edge


class TestPullback:
    def test_refinement_pulls_back_plus_to_both_edges(self):
        m = refinement()
        coarse = mg.LabeledGraph(m.target, SIGN, (0,))
        pulled = mg.pullback_labeling(m, coarse)
        assert pulled.labels == (0, 0)
        assert mg.is_label_preserving(m, pulled, coarse) == (True, None)

    def test_pullback_along_identity_is_identity(self):
        g = homework()
        assert mg.pullback_labeling(mg.identity_morphism(g.graph), g).labels == g.labels

    def test_pullback_is_unique(self):
        m = refinement()
        coarse = mg.LabeledGraph(m.target, SIGN, (0,))
        pulled = mg.pullback_labeling(m, coarse)
        perturbed = mg.LabeledGraph(pulled.graph, SIGN, (1,) + pulled.labels[1:])
        assert mg.is_label_preserving(m, perturbed, coarse)[0] is False

    def test_contravariant_functoriality_on_random_instances(self):
        rng = random.Random(7)
        for _ in range(100):
            c = rand_graph(rng, 4, 5)
            # build b -> c by duplicating vertices, and a -> b likewise
            b_to_c = _random_cover(rng, c)
            a_to_b = _random_cover(rng, b_to_c.source)
            labeled_c = rand_labels(rng, c, SIGN0)
            via_two = mg.pullback_labeling(a_to_b, mg.pullback_labeling(b_to_c, labeled_c))
            composite = mg.compose_morphisms(b_to_c, a_to_b)
            assert mg.pullback_labeling(composite, labeled_c).labels == via_two.labels


def _random_cover(rng: random.Random, base: mg.Graph) -> mg.GraphMorphism:
    """A random graph mapping onto `base`: split vertices, lift each edge."""
    copies = [rng.randint(1, 2) for _ in range(base.n_vertices)]
    f0 = []
    names = []
    for v, k in enumerate(copies):
        for i in range(k):
            f0.append(v)
            names.append(f"{base.vertex_names[v]}.{i}")
    offsets = [sum(copies[:v]) for v in range(base.n_vertices)]
    edges = []
    f1 = []
    for e in range(base.n_edges):
        u, w = base.edge_src[e], base.edge_tgt[e]
        for _ in range(rng.randint(1, 2)):
            edges.append(
                (offsets[u] + rng.randrange(copies[u]), offsets[w] + rng.randrange(copies[w]))
            )
            f1.append(e)
    return mg.GraphMorphism(mg.graph(names, edges), base, tuple(f0), tuple(f1))


class TestChangeLabels:
    def test_sign_of_a_quantitative_model(self):
        rat = mg.named_algebra("RatMulMonoid")
        shop = mg.labeled_graph(["hours", "sales"], [(0, 1), (0, 1)], rat, [150, 25])
        signed = mg.change_labels(mg.sign_hom(), shop)
        assert signed.algebra == SIGN0
        assert signed.label_texts() == ("+", "+")

    def test_collapse_discards_the_labeling(self):
        g = homework()
        collapsed = mg.change_labels(mg.collapse_hom(g.algebra), g)
        assert all(x == 1 for x in collapsed.labels)

    def test_covariant_functoriality_on_random_instances(self):
        rng = random.Random(11)
        section, sign = mg.sign_section(), mg.sign_hom()
        for _ in range(100):
            g = rand_labels(rng, rand_graph(rng, 4, 6), SIGN0)
            two_steps = mg.change_labels(sign, mg.change_labels(section, g))
            one_step = mg.change_labels(mg.compose_homs(sign, section), g)
            assert two_steps.labels == one_step.labels


class TestGrothendieckCheck:
    def test_identity_hom_reduces_to_label_preservation(self):
        m = refinement()
        fine = mg.LabeledGraph(m.source, SIGN, (0, 0))
        coarse = mg.LabeledGraph(m.target, SIGN, (0,))
        identity = mg.MonoidHom(SIGN, SIGN, mapping=(0, 1))
        assert mg.grothendieck_morphism_check(identity, m, fine, coarse, "set")

    def test_sign_hom_with_identity_map(self):
        rat = mg.named_algebra("RatMulMonoid")
        shop = mg.labeled_graph(["hours", "sales"], [(0, 1), (0, 1)], rat, [150, 25])
        signed = mg.change_labels(mg.sign_hom(), shop)
        m = mg.identity_morphism(shop.graph)
        assert mg.grothendieck_morphism_check(mg.sign_hom(), m, shop, signed, "set")

    def test_collapse_accepts_any_valid_morphism(self):
        m = refinement()
        fine = mg.LabeledGraph(m.source, SIGN, (0, 1))
        trivial = mg.named_algebra("TrivialOne")
        coarse = mg.LabeledGraph(m.target, trivial, (1,))
        assert mg.grothendieck_morphism_check(mg.collapse_hom(SIGN), m, fine, coarse, "set")

    def test_additive_mode_uses_the_pushforward(self):
        rat = mg.named_algebra("RatAdd")
        shop = mg.labeled_graph(["hours", "sales"], [(0, 1), (0, 1)], rat, [150, 25])
        total = mg.labeled_graph(["hours", "sales"], [(0, 1)], rat, [175])
        m = mg.GraphMorphism(shop.graph, total.graph, (0, 1), (0, 0))
        identity = mg.MonoidHom(rat, rat, fn=lambda x: x, respects=("mul", "add"))
        assert mg.grothendieck_morphism_check(identity, m, shop, total, "additive")

    def test_kleisli_mode_matches_grades_through_the_hom(self):
        rat = mg.named_algebra("RatMulMonoid")
        src = mg.labeled_graph(["u", "w"], [(0, 1)], rat, [6])
        dst = mg.labeled_graph(["u", "v", "w"], [(0, 1), (1, 2)], SIGN0, ["+", "+"])
        k = mg.KleisliMorphism(src, dst, (0, 2), (mg.Path(0, (0, 1)),))
        assert mg.grothendieck_morphism_check(mg.sign_hom(), k, src, dst, "kleisli")
        negated = mg.labeled_graph(["u", "w"], [(0, 1)], rat, [-6])
        k_bad = mg.KleisliMorphism(negated, dst, (0, 2), (mg.Path(0, (0, 1)),))
        assert not mg.grothendieck_morphism_check(mg.sign_hom(), k_bad, negated, dst, "kleisli")

    def test_non_commuting_square_raises(self):
        fine = mg.graph(["a", "b"], [(0, 1)])
        coarse = mg.graph(["x", "y"], [(0, 1)])
        swapped = mg.GraphMorphism(fine, coarse, (1, 0), (0,))
        src = mg.LabeledGraph(fine, SIGN, (0,))
        dst = mg.LabeledGraph(coarse, SIGN, (0,))
        identity = mg.MonoidHom(SIGN, SIGN, mapping=(0, 1))
        for mode in ("set", "additive"):
            with pytest.raises(ValueError, match="source-square"):
                mg.grothendieck_morphism_check(identity, swapped, src, dst, mode)
        with pytest.raises(ValueError, match="unknown mode"):
            mg.grothendieck_morphism_check(identity, swapped, src, dst, "strict")


class TestSemiautomaton:
    def test_single_state_single_input(self):
        sa = mg.Semiautomaton(("s",), ("a",), ((0,),))
        lg = mg.from_semiautomaton(sa)
        assert lg.graph.n_vertices == 1 and lg.graph.n_edges == 1
        assert lg.algebra.size == 1  # only the identity transformation

    def test_swap_generates_a_two_element_group(self):
        sa = mg.Semiautomaton(("0", "1"), ("swap",), ((1, 0),))
        lg = mg.from_semiautomaton(sa)
        assert lg.algebra.size == 2
        swap = lg.labels[0]
        assert lg.algebra.mul(swap, swap) == lg.algebra.unit
        assert lg.graph.n_edges == 2
        assert sorted(zip(lg.graph.edge_src, lg.graph.edge_tgt)) == [(0, 1), (1, 0)]

    def test_swap_and_constant_generate_four_transformations(self):
        sa = mg.Semiautomaton(("0", "1"), ("swap", "const0"), ((1, 0), (0, 0)))
        lg = mg.from_semiautomaton(sa)
        assert lg.algebra.size == 4
        assert lg.graph.n_edges == 4
        assert not lg.algebra.flags.commutative

    def test_path_grades_compose_like_functions(self):
        rng = random.Random(3)
        for _ in range(25):
            n_states = rng.randint(1, 3)
            n_inputs = rng.randint(1, 2)
            action = tuple(
                tuple(rng.randrange(n_states) for _ in range(n_states)) for _ in range(n_inputs)
            )
            sa = mg.Semiautomaton(
                tuple(map(str, range(n_states))), tuple(f"i{j}" for j in range(n_inputs)), action
            )
            lg = mg.from_semiautomaton(sa)
            # random walk through the state graph
            at = rng.randrange(n_states)
            edges = []
            state = at
            for _ in range(rng.randint(0, 4)):
                options = lg.graph.out_edges(state)
                e = rng.choice(options)
                edges.append(e)
                state = lg.graph.edge_tgt[e]
            path = mg.Path(at, tuple(edges))
            label = mg.grade(path, lg)
            # apply the walked inputs left to right, as functions
            applied = at
            for e in edges:
                a = e // n_states
                applied = action[a][applied]
            name = lg.algebra.elements[label]
            image = int(name.strip("[]").split(",")[at]) if n_states else at
            assert image == applied

    def test_size_guard(self, monkeypatch):
        sa = mg.Semiautomaton(("0", "1", "2", "3"), ("a", "b"), ((1, 2, 3, 0), (1, 0, 2, 3)))
        monkeypatch.setattr(graphs, "_MONOID_GUARD", 3)
        with pytest.raises(ValueError):
            mg.from_semiautomaton(sa)

    def test_the_default_guard_names_the_element_that_passes_it(self):
        # a cycle, a transposition and a merge generate all 6^6 maps of six states
        sa = mg.Semiautomaton(
            tuple("012345"), ("cycle", "swap", "merge"), ((1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5), (0, 0, 2, 3, 4, 5))
        )
        with pytest.raises(ValueError, match=r"^transformation monoid of 5001 elements > guard 5000$"):
            mg.from_semiautomaton(sa)


class TestComponents:
    def test_two_cycle_is_connected(self):
        g = mg.graph(["u", "v"], [(0, 1), (1, 0)])
        assert len(mg.undirected_components(g)) == 1

    def test_isolated_vertex_is_its_own_block(self):
        g = mg.graph(["u", "v", "w"], [(0, 1), (1, 0)])
        assert mg.undirected_components(g) == [[0, 1], [2]]

    def test_agrees_with_bfs_oracle_on_random_graphs(self):
        rng = random.Random(23)
        for _ in range(100):
            g = rand_graph(rng, 12, 14)
            assert [sorted(b) for b in mg.undirected_components(g)] == bfs_components(g)


def test_semiautomaton_table_and_commutativity_against_composition():
    rng = random.Random(11)
    for _ in range(40):
        n_states, n_inputs = rng.randint(1, 3), rng.randint(1, 3)
        action = tuple(tuple(rng.randrange(n_states) for _ in range(n_states)) for _ in range(n_inputs))
        sa = mg.Semiautomaton(tuple(map(str, range(n_states))), tuple(map(str, range(n_inputs))), action)
        a = mg.from_semiautomaton(sa).algebra
        maps = [tuple(int(v) for v in name.strip("[]").split(",")) for name in a.elements]
        for x, y in itertools.product(range(a.size), repeat=2):
            # x * y applies y first
            assert maps[a.mul(x, y)] == tuple(maps[x][maps[y][s]] for s in range(n_states))
        commutes = all(a.mul(x, y) == a.mul(y, x) for x in range(a.size) for y in range(a.size))
        assert a.flags.commutative == commutes
        assert mg.validate_algebra(a).ok
