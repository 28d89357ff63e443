"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import random
from fractions import Fraction

import monograph as mg
from monograph.homology import NAT

from helpers import (
    BOOL,
    FIXTURES,
    SIGN,
    SIGN0,
    SIGNI,
    S_RIG,
    TRIVIAL,
    g2,
    homework,
    host,
    minimal_elements,
    oracle_motif_occurrences,
    p2,
    q4,
    r5,
    rand_composable_triple,
    rand_glue_pair,
    rand_graph,
    rand_labels,
)

from test_algebra import cyclic_group, tables_agree, truncated_add


def _report(n: int, text: str) -> None:
    print(f"ACCEPTANCE PASS {n}: {text}")


def test_criterion_01_minimal_cycle_counts():
    expected = {"two-cycle": (g2(), 1), "parallel pair": (p2(), 0), "quad": (q4(), 4), "five-edge": (r5(), 6)}
    for name, (graph, count) in expected.items():
        loops, truncated = mg.simple_loops(graph)
        assert not truncated
        assert len(loops) == count, f"{name}: expected {count}, got {len(loops)}"
    _report(1, "minimal cycle counts 1 / 0 / 4 / 6 match exactly")


def test_criterion_02_relation_discovery():
    quad_loops, _ = mg.simple_loops(q4())
    quad_relations = mg.find_relations(quad_loops, 1)
    assert quad_relations == [mg.Relation((0, 1, 1, 0), (1, 0, 0, 1))]
    # both sides are the full edge set: the two diagonal pairs agree
    lhs = mg.chain_add(quad_loops[1].indicator(), quad_loops[2].indicator())
    rhs = mg.chain_add(quad_loops[0].indicator(), quad_loops[3].indicator())
    assert lhs == rhs == mg.nat_chain({0: 1, 1: 1, 2: 1, 3: 1})

    five_loops, _ = mg.simple_loops(r5())
    five_relations = mg.find_relations(five_loops, 1)
    assert len(five_relations) == 3
    for relation in five_relations:
        left = mg.nat_chain({})
        right = mg.nat_chain({})
        for coefficient, loop in zip(relation.lhs, five_loops):
            for _ in range(coefficient):
                left = mg.chain_add(left, loop.indicator())
        for coefficient, loop in zip(relation.rhs, five_loops):
            for _ in range(coefficient):
                right = mg.chain_add(right, loop.indicator())
        assert left == right
    _report(2, "quad graph has exactly one bound-1 relation, five-edge graph exactly three")


def test_criterion_03_simple_loops_are_the_minimal_circulations():
    rng = random.Random(2024)
    mismatches = 0
    for _ in range(200):
        graph = rand_graph(rng, 6, 8)
        loops, truncated = mg.simple_loops(graph)
        assert not truncated
        minimal = minimal_elements(mg.cycles(graph, NAT, 2))
        if set(minimal) != {loop.indicator() for loop in loops}:
            mismatches += 1
    assert mismatches == 0
    _report(3, "simple loops equal minimal bound-2 circulations on 200 random multigraphs")


def test_criterion_04_flow_decomposition():
    rng = random.Random(404)
    checked = 0
    failures = 0
    while checked < 200:
        graph = rand_graph(rng, 6, 8)
        loops, _ = mg.simple_loops(graph)
        if not loops:
            continue
        circulation = mg.nat_chain({})
        for loop in loops:
            for _ in range(rng.randint(0, 2)):
                circulation = mg.chain_add(circulation, loop.indicator())
        checked += 1
        parts = mg.decompose_cycle(circulation, graph)
        resum = mg.nat_chain({})
        for part in parts:
            resum = mg.chain_add(resum, part.indicator())
        loop_set = {loop.edges for loop in loops}
        if resum != circulation or any(part.edges not in loop_set for part in parts):
            failures += 1
    assert failures == 0
    _report(4, "200 random circulations decompose into simple loops and re-sum exactly")


def _random_finite_commutative_tables(rng: random.Random):
    tables = [
        cyclic_group(rng.randint(2, 3)),
        truncated_add(rng.randint(1, 2)),
        mg.product_algebra(cyclic_group(2), truncated_add(1)),
    ]
    for table in tables:
        assert mg.validate_algebra(table).ok
    return tables


def test_criterion_05_mayer_vietoris():
    rng = random.Random(505)
    tables = _random_finite_commutative_tables(rng)
    for i in range(100):
        x, y = rand_glue_pair(rng, TRIVIAL, max_vertices=4, max_edges=3)
        glued = mg.glue(x, y)
        for algebra, bound in ((NAT, 1), (tables[i % len(tables)], None)):
            assert mg.mv_check(glued, algebra, "two-sided", bound=bound).ok
            cancellative, _ = mg.is_cancellative(algebra)
            if cancellative:
                for mode in ("one-sided", "q-form"):
                    for side in ("x", "y"):
                        assert mg.mv_check(glued, algebra, mode, bound=bound, side=side).ok

    # the boolean counterexample: one-sided lets a non-inherited chain through
    left = mg.load_model(FIXTURES / "noncancellative_left.json").open_graph
    right = mg.load_model(FIXTURES / "noncancellative_right.json").open_graph
    glued = mg.glue(left, right)
    full = mg.chain(BOOL, {0: 1, 1: 1, 2: 1})
    graph = glued.composite.graph
    assert mg.is_cycle(full, graph)
    src_chain, tgt_chain = mg.boundary_pair(mg.side_projection(full, glued, "x"), graph)
    assert src_chain == tgt_chain  # passes the one-sided test...
    assert not mg.is_inherited_cycle(full, glued)  # ...without being inherited
    one_sided = mg.mv_check(glued, BOOL, "one-sided", side="x")
    assert full in one_sided.mismatches
    assert mg.mv_check(glued, BOOL, "two-sided").ok
    _report(5, "equalizer conditions verified on 100 glues; boolean counterexample behaves")


def test_criterion_06_emergence_fixture():
    red = mg.load_model(FIXTURES / "glue_red.json").open_graph
    blue = mg.load_model(FIXTURES / "glue_blue.json").open_graph
    assert mg.simple_loops(red.inner.graph)[0] == []
    assert mg.simple_loops(blue.inner.graph)[0] == []
    glued = mg.glue(red, blue)
    report = mg.emergence_report(glued)
    assert len(report.rows) >= 1
    assert all(not row.inherited for row in report.rows)

    names = list(glued.composite.graph.vertex_names)
    bold = []
    for src_name, tgt_name in [("a", "b"), ("b", "d"), ("d", "e"), ("e", "f"), ("f", "g"), ("g", "c")]:
        s, t = names.index(src_name), names.index(tgt_name)
        bold.append(
            next(
                e
                for e in range(glued.composite.graph.n_edges)
                if glued.composite.graph.edge_src[e] == s
                and glued.composite.graph.edge_tgt[e] == t
            )
        )
    path = mg.Path(names.index("a"), tuple(bold))
    raw = mg.grade_word(path, glued)
    assert raw == "xxxyyx"
    assert mg.format_word(raw) == "x^3 y^2 x"
    assert mg.grade_word(path, glued, collapse=True) == "xyx"
    _report(6, "loop-free halves glue to an all-emergent composite; side words match")


def test_criterion_07_open_graph_laws():
    rng = random.Random(707)
    for _ in range(100):
        x, y, z = rand_composable_triple(rng, SIGN)
        xy = mg.compose(x, y)
        assert xy.inner.graph.n_edges == x.inner.graph.n_edges + y.inner.graph.n_edges
        tensed = mg.tensor(x, y)
        assert tensed.inner.graph.n_edges == x.inner.graph.n_edges + y.inner.graph.n_edges
        left = mg.compose(xy, z)
        right = mg.compose(x, mg.compose(y, z))
        ok, _ = mg.iso_check(left.inner, right.inner)
        assert ok
        left_unit = mg.identity_open(x.left_foot, SIGN)
        right_unit = mg.identity_open(x.right_foot, SIGN)
        ok, _ = mg.iso_check(mg.compose(left_unit, x).inner, x.inner)
        assert ok
        ok, _ = mg.iso_check(mg.compose(x, right_unit).inner, x.inner)
        assert ok
    _report(7, "compose is associative and unital up to isomorphism on 100 random triples")


def test_criterion_08_motif_search():
    matches, truncated = mg.find_motifs(
        mg.builtin_motif("positive-autoregulation"), host(), max_path_len=3
    )
    assert not truncated
    assert any(k.vertex_map == (0,) and k.edge_map[0].edges == (0, 1, 7) for k in matches)

    rng = random.Random(808)
    for _ in range(50):
        h = rand_labels(rng, rand_graph(rng, 6, 6), SIGN)
        motif = rand_labels(rng, rand_graph(rng, 2, 2), SIGN)
        matches, truncated = mg.find_motifs(motif, h, max_path_len=3, max_results=10**6)
        assert not truncated
        got = {(k.vertex_map, tuple(p.edges for p in k.edge_map)) for k in matches}
        assert got == oracle_motif_occurrences(motif, h, 3)
    _report(8, "host triangle occurrence found; 50 random searches equal the oracle")


def test_criterion_09_label_algebra_fixtures():
    for algebra in (SIGN, SIGN0, SIGNI, S_RIG):
        assert mg.validate_algebra(algebra).ok
    three = mg.adjoin_identity(SIGN)
    assert mg.validate_algebra(three).ok
    assert tables_agree(three, mg.table_algebra(
        ["I", "+", "-"], [[0, 1, 2], [1, 1, 2], [2, 2, 1]], unit=0,
        flags=mg.Flags(commutative=True),
    ), {"I": "I", "+": "+", "-": "-"})
    assert tables_agree(mg.adjoin_zero(SIGN), SIGN0, {"+": "+", "0": "0", "-": "-"})
    assert tables_agree(mg.adjoin_identity(mg.adjoin_zero(SIGN)), SIGNI,
                        {"I": "I", "+": "+", "0": "0", "-": "-"})

    power = mg.power_rig(SIGN)
    assert mg.validate_algebra(power).ok
    identification = {"{}": "0", "{+}": "1", "{-}": "-1", "{+,-}": "i"}
    to_rig = {power.elements.index(k): S_RIG.elements.index(v) for k, v in identification.items()}
    assert to_rig[power.unit] == S_RIG.unit
    assert to_rig[power.zero_index] == S_RIG.zero_index
    for a in range(4):
        for b in range(4):
            assert to_rig[power.mul(a, b)] == S_RIG.mul(to_rig[a], to_rig[b])
            assert to_rig[power.add(a, b)] == S_RIG.add(to_rig[a], to_rig[b])
    _report(9, "sign tables and both four-polarity rig tables validate; subset rig matches")


def test_criterion_10_pushforward_and_pullback():
    rat = mg.named_algebra("RatAdd")
    shop = mg.labeled_graph(["hours", "sales"], [(0, 1), (0, 1)], rat, [150, 25])
    simple = mg.graph(["hours", "sales"], [(0, 1)])
    collapse = mg.GraphMorphism(shop.graph, simple, (0, 1), (0, 0))
    assert mg.pushforward_labeling(collapse, shop).labels == (Fraction(175),)

    fine = mg.graph(["egg sales", "milk sales", "profits"], [(0, 2), (1, 2)])
    coarse = mg.labeled_graph(["sales", "profits"], [(0, 1)], SIGN, ["+"])
    refine = mg.GraphMorphism(fine, coarse.graph, (0, 0, 1), (0, 0))
    assert mg.pullback_labeling(refine, coarse).label_texts() == ("+", "+")

    rng = random.Random(1010)
    for _ in range(100):
        base = rand_graph(rng, 3, 4)
        f = _duplicating_morphism(rng, base)
        g = _duplicating_morphism(rng, f.source)
        composite = mg.compose_morphisms(f, g)
        labeled_base = rand_labels(rng, base, SIGN0)
        pulled_twice = mg.pullback_labeling(g, mg.pullback_labeling(f, labeled_base))
        assert mg.pullback_labeling(composite, labeled_base).labels == pulled_twice.labels
        labeled_top = rand_labels(rng, g.source, NAT)
        pushed_twice = mg.pushforward_labeling(f, mg.pushforward_labeling(g, labeled_top))
        assert mg.pushforward_labeling(composite, labeled_top).labels == pushed_twice.labels
    _report(10, "coffee-shop sum is 175, refinement pulls back +, functoriality holds 100x")


def _duplicating_morphism(rng: random.Random, base: mg.Graph) -> mg.GraphMorphism:
    copies = [rng.randint(1, 2) for _ in range(base.n_vertices)]
    offsets = [sum(copies[:v]) for v in range(base.n_vertices)]
    f0 = [v for v in range(base.n_vertices) for _ in range(copies[v])]
    edges = []
    f1 = []
    for e in range(base.n_edges):
        u, w = base.edge_src[e], base.edge_tgt[e]
        for _ in range(rng.randint(0, 2)):
            edges.append(
                (offsets[u] + rng.randrange(copies[u]), offsets[w] + rng.randrange(copies[w]))
            )
            f1.append(e)
    top = mg.graph([f"c{i}" for i in range(len(f0))], edges)
    return mg.GraphMorphism(top, base, tuple(f0), tuple(f1))


def test_criterion_11_homework_polarity_report():
    hw = homework()
    loops, truncated = mg.simple_loops(hw.graph)
    assert not truncated
    assert len(loops) == 2
    polarities = sorted(hw.algebra.label_text(mg.loop_polarity(loop, hw)) for loop in loops)
    assert polarities == ["+", "-"]
    _report(11, "homework diagram has exactly two loops, one reinforcing and one balancing")
