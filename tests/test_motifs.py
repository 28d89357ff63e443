"""Motif catalog and occurrence search against the exhaustive oracle."""

import contextlib
import io
import itertools
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monograph as mg
from monograph.validation import replace
from monograph import cli, motifs
from monograph.model_io import _canonical_json

from helpers import (
    FIXTURES,
    GRADED_ALGEBRAS,
    SIGN,
    homework,
    host,
    oracle_find_motifs,
    oracle_motif_occurrences,
    oracle_paths,
    rand_graph,
    rand_graded_labels,
    rand_labels,
    recursion_limit,
    ring,
)


def keys(matches):
    return [(k.vertex_map, tuple(p.edges for p in k.edge_map)) for k in matches]


def expand(groups):
    """`keys` of the matches that `find_motif_groups`' groups stand for."""
    return [
        (vertex_map, combo)
        for vertex_map, walks, count in groups
        for combo in itertools.islice(itertools.product(*walks), count)
    ]


class TestCatalog:
    def test_every_name_builds_a_valid_sign_graph(self):
        for name in mg.MOTIF_NAMES:
            motif = mg.builtin_motif(name)
            assert motif.algebra == SIGN
            assert motif.graph.n_edges >= 1

    def test_positive_feedback_loop_shape(self):
        m = mg.builtin_motif("positive-feedback-loop")
        assert m.graph.n_vertices == 2 and m.graph.n_edges == 2
        assert sorted(zip(m.graph.edge_src, m.graph.edge_tgt)) == [(0, 1), (1, 0)]
        assert m.label_texts() == ("+", "+")

    def test_coherent_feedforward_is_two_parallel_plus_edges(self):
        m = mg.builtin_motif("coherent-feedforward")
        assert list(zip(m.graph.edge_src, m.graph.edge_tgt)) == [(0, 1), (0, 1)]
        assert m.label_texts() == ("+", "+")

    def test_gate_mm_points_two_minus_edges_at_one_vertex(self):
        m = mg.builtin_motif("gate-mm")
        assert m.graph.edge_tgt == (2, 2)
        assert m.label_texts() == ("-", "-")

    def test_unknown_name_is_rejected(self):
        with pytest.raises(KeyError):
            mg.builtin_motif("quadruple-negative-feedback")


class TestPathsBetween:
    def test_matches_the_oracle_in_lexicographic_order(self):
        # the oracle is breadth-first; sorting its edge tuples gives the
        # documented order, prefixes first
        rng = random.Random(31)
        for _ in range(40):
            g = rand_labels(rng, rand_graph(rng, 4, 8), SIGN)
            for max_len in range(4):
                for u in range(g.graph.n_vertices):
                    for v in range(g.graph.n_vertices):
                        found = [p.edges for p in mg.paths_between(g, u, v, max_len)]
                        assert found == sorted(oracle_paths(g.graph, u, v, max_len))

    def test_depth_does_not_grow_with_the_path_length(self):
        g = ring(300)
        with recursion_limit(100) as limit:
            assert limit < 300
            paths = mg.paths_between(g, 0, 0, 300)
        assert [p.edges for p in paths] == [(), tuple(range(300))]


class TestFindMotifs:
    def test_autoregulation_found_through_the_host_triangle(self):
        matches, truncated = mg.find_motifs(
            mg.builtin_motif("positive-autoregulation"), host(), max_path_len=3
        )
        assert not truncated
        assert any(
            k.vertex_map == (0,) and k.edge_map[0].edges == (0, 1, 7) for k in matches
        )
        for k in matches:
            assert mg.is_kleisli_morphism(k) == (True, None)

    def test_empty_when_no_label_fits(self):
        all_plus = mg.labeled_graph(["a", "b"], [(0, 1)], SIGN, ["+"])
        matches, _ = mg.find_motifs(mg.builtin_motif("negative-stimulation"), all_plus, 3)
        assert matches == []

    def test_negative_feedback_in_homework_matches_oracle(self):
        motif = mg.builtin_motif("negative-feedback-loop")
        hw = homework()
        matches, truncated = mg.find_motifs(motif, hw, max_path_len=2)
        assert not truncated
        got = {(k.vertex_map, tuple(p.edges for p in k.edge_map)) for k in matches}
        assert got == oracle_motif_occurrences(motif, hw, 2)
        # the effort/quality pair appears via the quality-grades-effort return path
        assert ((0, 2), ((2,), (3, 4))) in got

    def test_matches_oracle_on_random_pairs(self):
        rng = random.Random(31)
        for _ in range(20):
            h = rand_labels(rng, rand_graph(rng, 4, 6), SIGN)
            motif = rand_labels(rng, rand_graph(rng, 2, 2), SIGN)
            matches, truncated = mg.find_motifs(motif, h, max_path_len=3)
            if truncated:
                continue
            got = {(k.vertex_map, tuple(p.edges for p in k.edge_map)) for k in matches}
            assert got == oracle_motif_occurrences(motif, h, 3)

    def test_order_is_deterministic_and_lexicographic(self):
        h = host()
        motif = mg.builtin_motif("positive-stimulation")
        first, _ = mg.find_motifs(motif, h, max_path_len=2)
        second, _ = mg.find_motifs(motif, h, max_path_len=2)
        keys = [(k.vertex_map, tuple(p.edges for p in k.edge_map)) for k in first]
        assert keys == [(k.vertex_map, tuple(p.edges for p in k.edge_map)) for k in second]
        assert keys == sorted(keys)

    def test_truncation_flag(self):
        h = host()
        matches, truncated = mg.find_motifs(
            mg.builtin_motif("positive-stimulation"), h, max_path_len=2, max_results=1
        )
        assert truncated and len(matches) == 1

    def test_negative_bounds_are_rejected(self):
        motif = mg.builtin_motif("positive-stimulation")
        with pytest.raises(ValueError, match="max_results"):
            mg.find_motifs(motif, host(), max_path_len=2, max_results=-1)
        with pytest.raises(ValueError, match="max_path_len"):
            mg.find_motifs(motif, host(), max_path_len=0)

    def test_every_result_passes_the_kleisli_check(self):
        rng = random.Random(37)
        for _ in range(10):
            h = rand_labels(rng, rand_graph(rng, 5, 6), SIGN)
            motif = rand_labels(rng, rand_graph(rng, 2, 2), SIGN)
            matches, _ = mg.find_motifs(motif, h, max_path_len=2, max_results=200)
            for k in matches:
                assert mg.is_kleisli_morphism(k) == (True, None)

    def test_depth_does_not_grow_with_the_path_length(self):
        g = ring(300)
        motif = mg.builtin_motif("positive-autoregulation")
        with recursion_limit(100) as limit:
            assert limit < 300
            matches, truncated = mg.find_motifs(motif, g, max_path_len=300)
        assert not truncated
        # per vertex, the empty path and once round the ring
        assert keys(matches) == [
            ((v,), (edges,)) for v in range(300) for edges in ((), tuple((v + i) % 300 for i in range(300)))
        ]


class TestAgainstTheUnprunedSearch:
    """`find_motifs` against `helpers.oracle_find_motifs`, the assignment
    product with a fresh path enumeration and grading per motif edge."""

    @pytest.mark.parametrize("name", sorted(GRADED_ALGEBRAS))
    @settings(max_examples=100, deadline=None)
    @given(rnd=st.randoms(use_true_random=False))
    def test_same_matches_in_the_same_order(self, name, rnd):
        algebra = GRADED_ALGEBRAS[name]
        h = rand_graded_labels(rnd, rand_graph(rnd, 4, 7), algebra)
        motif = rand_graded_labels(rnd, rand_graph(rnd, 3, 3), algebra)
        max_len = rnd.randint(1, 3)
        found, truncated = mg.find_motifs(motif, h, max_len)
        expected, expected_truncated = oracle_find_motifs(motif, h, max_len)
        assert (keys(found), truncated) == (keys(expected), expected_truncated)
        for cap in range(6):
            capped, capped_truncated = mg.find_motifs(motif, h, max_len, cap)
            assert keys(capped) == keys(expected)[:cap]
            assert capped_truncated == (len(expected) > cap or expected_truncated)
            groups, groups_truncated = mg.find_motif_groups(motif, h, max_len, cap)
            assert (expand(groups), groups_truncated) == (keys(expected)[:cap], capped_truncated)
            assert sum(count for _, _, count in groups) == len(capped)

    def test_empty_motif_has_exactly_one_empty_match(self):
        empty = mg.labeled_graph([], [], SIGN, [])
        for h in (host(), mg.labeled_graph([], [], SIGN, [])):
            matches, truncated = mg.find_motifs(empty, h)
            assert keys(matches) == [((), ())] and not truncated
            expected, expected_truncated = oracle_find_motifs(empty, h)
            assert keys(expected) == [((), ())] and not expected_truncated
            assert mg.find_motifs(empty, h, max_results=0) == ([], True)

    def test_isolated_motif_vertex_ranges_over_the_host(self):
        motif = mg.labeled_graph(["v", "w"], [(0, 0)], SIGN, ["-"])
        h = host()
        matches, truncated = mg.find_motifs(motif, h, 3)
        assert not truncated
        assert keys(matches) == keys(oracle_find_motifs(motif, h, 3)[0])
        assert {k.vertex_map[1] for k in matches} == set(range(h.graph.n_vertices))

    def test_self_loop_motif_edge_takes_the_empty_path(self):
        lone = mg.labeled_graph(["a"], [], SIGN, [])
        matches, _ = mg.find_motifs(mg.builtin_motif("positive-autoregulation"), lone, 1)
        assert keys(matches) == [((0,), ((),))]
        assert mg.find_motifs(mg.builtin_motif("negative-autoregulation"), lone, 1) == ([], False)

    def test_empty_host_has_no_matches(self):
        empty = mg.labeled_graph([], [], SIGN, [])
        assert mg.find_motifs(mg.builtin_motif("positive-stimulation"), empty) == ([], False)


def counting_algebra():
    """NatAdd with a `mul` that counts its calls."""
    calls = [0]
    nat = mg.named_algebra("NatAdd")

    def mul(a, b):
        calls[0] += 1
        return nat.mul(a, b)

    return replace(nat, mul=mul), calls


class TestWork:
    def test_grading_work_is_bounded_by_the_walks_of_the_host(self):
        nat, calls = counting_algebra()
        rng = random.Random(11)
        n, max_len = 8, 3
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(16)]
        h = mg.LabeledGraph(mg.graph([f"h{i}" for i in range(n)], edges), nat, tuple(rng.randrange(2) for _ in edges))
        # every nonempty walk of at most max_len edges, from every source
        walks = sum(
            len(oracle_paths(h.graph, u, v, max_len)) for u in range(n) for v in range(n)
        ) - n
        for k in range(1, 5):
            chain = mg.graph([f"m{i}" for i in range(k)], [(i, i + 1) for i in range(k - 1)] + [(0, 0)])
            motif = mg.LabeledGraph(chain, nat, (1,) * (k - 1) + (0,))
            calls[0] = 0
            matches, truncated = mg.find_motifs(motif, h, max_len)
            assert calls[0] <= walks
            assert not truncated and keys(matches) == keys(oracle_find_motifs(motif, h, max_len)[0])
        # the unpruned search regrades the same walks once per assignment
        calls[0] = 0
        oracle_find_motifs(motif, h, max_len)
        assert calls[0] > n * walks


def _walks_from_each_vertex(g: mg.Graph, max_len: int) -> list[int]:
    """Walks of at most `max_len` edges from each vertex, the empty one included."""
    totals = []
    for u in range(g.n_vertices):
        ending, total = {u: 1}, 1
        for _ in range(max_len):
            step: dict[int, int] = {}
            for v, count in ending.items():
                for e in g.out_adjacency[v]:
                    step[g.edge_tgt[e]] = step.get(g.edge_tgt[e], 0) + count
            ending, total = step, total + sum(step.values())
        totals.append(total)
    return totals


class TestWalkGuard:
    """`find_motifs` refuses a host vertex with more than `_WALK_GUARD` walks."""

    def test_the_guard_bounds_each_host_vertex_not_the_call(self, monkeypatch):
        h, motif = host(), mg.builtin_motif("positive-autoregulation")
        # this motif tables the walks from every host vertex, in vertex order
        per_vertex = _walks_from_each_vertex(h.graph, 3)
        unguarded = keys(mg.find_motifs(motif, h, 3)[0])
        assert sum(per_vertex) > max(per_vertex)
        for guard in range(max(per_vertex) + 1):
            monkeypatch.setattr(motifs, "_WALK_GUARD", guard)
            if guard == max(per_vertex):
                # the call tables more walks than the guard, none of them
                # from one vertex
                assert keys(mg.find_motifs(motif, h, 3)[0]) == unguarded
                continue
            tripped = next(v for v, walks in enumerate(per_vertex) if walks > guard)
            with pytest.raises(ValueError) as info:
                mg.find_motifs(motif, h, 3)
            assert str(info.value).startswith(f"motif walks {guard + 1} from host vertex {tripped} > guard ")

    def test_default_and_message(self, monkeypatch):
        assert motifs._WALK_GUARD == 10**6
        monkeypatch.setattr(motifs, "_WALK_GUARD", 5)
        with pytest.raises(ValueError) as info:
            mg.find_motifs(mg.builtin_motif("positive-autoregulation"), host(), 3)
        assert str(info.value) == "motif walks 6 from host vertex 0 > guard 5"
        monkeypatch.setattr(motifs, "_WALK_GUARD", 0)
        with pytest.raises(ValueError, match=r"^motif walks 1 from host vertex 0 > guard 0$"):
            mg.find_motifs(mg.builtin_motif("positive-stimulation"), host(), 1)

    def test_a_dense_host_trips_the_default_guard(self):
        # every vertex of the complete 4-vertex digraph with self-loops has
        # (4^11 - 1) / 3 walks of at most 10 edges
        edges = [(i, j) for i in range(4) for j in range(4)]
        h = mg.labeled_graph([f"v{i}" for i in range(4)], edges, SIGN, ["+"] * len(edges))
        with pytest.raises(ValueError, match=r"^motif walks 1000001 from host vertex 0 > guard 10\^6$"):
            mg.find_motifs(mg.builtin_motif("positive-autoregulation"), h, 10)

    def test_paths_between_reads_the_same_guarded_table(self, monkeypatch):
        h = host()
        per_vertex = _walks_from_each_vertex(h.graph, 3)
        expected = mg.paths_between(h, 0, 1, 3)
        monkeypatch.setattr(motifs, "_WALK_GUARD", per_vertex[0])
        assert mg.paths_between(h, 0, 1, 3) == expected
        monkeypatch.setattr(motifs, "_WALK_GUARD", per_vertex[0] - 1)
        with pytest.raises(ValueError, match=rf"^motif walks {per_vertex[0]} from host vertex 0 > guard "):
            mg.paths_between(h, 0, 1, 3)

    def test_cli_ends_in_an_error_line(self, capsys, monkeypatch):
        monkeypatch.setattr(motifs, "_WALK_GUARD", 5)
        code = cli.main(
            ["motif", "--motif", "positive-autoregulation", "--host", str(FIXTURES / "host.json"),
             "--max-path-len", "3", "--json"]
        )
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", "error: motif walks 6 from host vertex 0 > guard 5\n")


def _seeded_sign_host() -> mg.LabeledGraph:
    """8 vertices and 11 random edges: every catalog motif matches at path
    length 1, and no search finds more than 200 matches."""
    rng = random.Random(0)
    edges = [(rng.randrange(8), rng.randrange(8)) for _ in range(11)]
    return mg.labeled_graph([f"h{i}" for i in range(8)], edges, SIGN, [rng.choice("+-") for _ in edges])


class TestEveryCatalogMotif:
    """Every catalog motif at path lengths 1-3 against the unpruned search,
    at every cap: the lookahead candidates and the matches added per
    assignment keep the order, the prefixes and the truncation flag."""

    @pytest.mark.parametrize("max_len", [1, 2, 3])
    @pytest.mark.parametrize("name", mg.MOTIF_NAMES)
    @pytest.mark.parametrize("host_of", [host, _seeded_sign_host], ids=["host.json", "seeded-8"])
    def test_order_truncation_and_every_cap(self, host_of, name, max_len):
        h, motif = host_of(), mg.builtin_motif(name)
        expected, expected_truncated = oracle_find_motifs(motif, h, max_len)
        expected = keys(expected)
        assert not expected_truncated
        found, truncated = mg.find_motifs(motif, h, max_len)
        assert (keys(found), truncated) == (expected, False)
        for cap in range(len(expected) + 1):
            capped, capped_truncated = mg.find_motifs(motif, h, max_len, cap)
            assert (keys(capped), capped_truncated) == (expected[:cap], cap < len(expected))


class _CountingDict(dict):
    """A dict that counts its membership tests and `get` calls."""

    lookups = 0

    def __contains__(self, key):
        _CountingDict.lookups += 1
        return super().__contains__(key)

    def get(self, key, default=None):
        _CountingDict.lookups += 1
        return super().get(key, default)


class TestGateGrowth:
    """A gate places its second source from the walks into the ends its
    first source reaches, so its table lookups grow with the matches, not
    with every pair of host vertices."""

    @staticmethod
    def ladder(n: int) -> mg.LabeledGraph:
        # i -> i+1 labeled +, i -> i+2 labeled -
        edges = [(i, i + 1) for i in range(n - 1)] + [(i, i + 2) for i in range(n - 2)]
        labels = ["+"] * (n - 1) + ["-"] * (n - 2)
        return mg.labeled_graph([f"h{i}" for i in range(n)], edges, SIGN, labels)

    def test_small_ladder_matches_the_oracle(self):
        h, motif = self.ladder(9), mg.builtin_motif("gate-pm")
        assert keys(mg.find_motifs(motif, h, 1)[0]) == keys(oracle_find_motifs(motif, h, 1)[0])

    def test_table_lookups_grow_linearly(self, monkeypatch):
        n = 2000
        h, motif = self.ladder(n), mg.builtin_motif("gate-pm")

        class CountingTable(motifs._PathTable):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                self.by_end_grade = _CountingDict(self.by_end_grade)

        monkeypatch.setattr(motifs, "_PathTable", CountingTable)
        _CountingDict.lookups = 0
        matches, truncated = mg.find_motifs(motif, h, 1)
        # v -> u by the empty path or edge v -> v+1, and w -> u by w -> w+2:
        # (v, v-2, v) for v >= 2 and (v, v-1, v+1) for 1 <= v <= n-2
        assert (len(matches), truncated) == (2 * n - 4, False)
        # at most two candidates for w and two for u per v, two checks each;
        # trying every w for every v would take about 2n^2
        assert _CountingDict.lookups <= 8 * n


# element names that json escapes, that `%` formatting would read, or that
# are not ASCII
_AWKWARD = ("%", "%s", "%(x)s", "100%%", '"', "\\", '\\"%', "\x00", "\x1f\n", "\u00e9", "\u2603%", "\U0001d11e", "{0}")


def _motif_search(rnd):
    """(motif, host, max_path_len): a SIGN host or one over a finite table
    with awkward element names, and a motif of 0-3 vertices and 0-4 edges,
    parallel edges and self-loops included."""
    if rnd.random() < 0.4:
        algebra = SIGN
    else:
        n = rnd.randint(2, 3)
        # element 0 is the unit; the other products are drawn
        table = [b if a == 0 else a if b == 0 else rnd.randrange(n) for a in range(n) for b in range(n)]
        algebra = mg.TableAlgebra(tuple(rnd.sample(_AWKWARD, n)), tuple(table), 0)
    motif = rand_graph(rnd, 3, 4) if rnd.random() < 0.9 else mg.graph([], [])
    return (
        rand_labels(rnd, motif, algebra),
        rand_labels(rnd, rand_graph(rnd, 4, 8), algebra),
        rnd.randint(1, 4),
    )


def _text_lines(motif, h, matches, truncated, edge_ids):
    """The text output, written match by match from `find_motifs`' matches."""
    lines = [f"{len(matches)} match(es)" + (" (truncated)" if truncated else "")]
    for i, k in enumerate(matches):
        vertices = ", ".join(f"{motif.graph.vertex_names[v]} -> {h.graph.vertex_names[w]}" for v, w in enumerate(k.vertex_map))
        paths = ", ".join("[" + ", ".join(edge_ids[e] for e in p.edges) + "]" for p in k.edge_map)
        lines.append(f"  match {i}: {vertices}; paths {paths}")
    return "\n".join(lines) + "\n"


class TestProductForm:
    """`find_motif_groups` keeps each vertex assignment's matches as the
    product of its walk lists, and `motif` writes its output from them."""

    @settings(max_examples=200, deadline=None)
    @given(rnd=st.randoms(use_true_random=False), cap_kind=st.sampled_from(["zero", "one", "cut", "above"]))
    def test_stdout_is_the_canonical_json_of_the_matches(self, rnd, cap_kind):
        motif, h, max_len = _motif_search(rnd)
        counts = [count for _, _, count in mg.find_motif_groups(motif, h, max_len)[0]]
        cuttable = [i for i, count in enumerate(counts) if count > 1]
        if cap_kind == "cut" and cuttable:
            # inside one assignment's product: after its first match, before its last
            i = rnd.choice(cuttable)
            cap = sum(counts[:i]) + rnd.randint(1, counts[i] - 1)
        else:
            cap = {"zero": 0, "one": 1, "cut": max(sum(counts) - 1, 0), "above": sum(counts) + 1}[cap_kind]
        matches, truncated = mg.find_motifs(motif, h, max_len, cap)
        payload = {
            "matches": [
                {"vertex_map": k.vertex_map, "edge_paths": [p.edges for p in k.edge_map], "grades": [h.algebra.label_text(x) for x in motif.labels]}
                for k in matches
            ],
            "truncated": truncated,
        }
        with tempfile.TemporaryDirectory() as tmp:
            host_path, motif_path = Path(tmp) / "host.json", Path(tmp) / "motif.json"
            mg.save_model(mg.ModelFile(graph=h), host_path)
            mg.save_model(mg.ModelFile(graph=motif), motif_path)
            argv = ["motif", "--motif", str(motif_path), "--host", str(host_path), "--max-path-len", str(max_len), "--max-results", str(cap)]
            outputs = []
            for extra in (["--json"], []):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert cli.main(argv + extra) == 0
                outputs.append(out.getvalue())
        edge_ids = tuple(f"e{i}" for i in range(h.graph.n_edges))
        assert outputs == [_canonical_json(payload) + "\n", _text_lines(motif, h, matches, truncated, edge_ids)]

    def test_the_cli_builds_no_match_and_no_path(self, monkeypatch, capsys):
        built = {"KleisliMorphism": 0, "Path": 0}
        for name in built:
            cls = getattr(mg, name)

            def counted(self, *args, _init=cls.__init__, _name=name, **kwargs):
                built[_name] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        base = ["motif", "--motif", "coherent-feedforward", "--host", str(FIXTURES / "host.json"), "--max-path-len", "3"]
        for argv in (base + ["--json"], base):
            assert cli.main(argv) == 0
        assert capsys.readouterr().out.count("match") > 20
        assert built == {"KleisliMorphism": 0, "Path": 0}
        # the library's expanded form still builds both
        matches, _ = mg.find_motifs(mg.builtin_motif("coherent-feedforward"), host(), 3)
        assert built["KleisliMorphism"] == len(matches) > 0 and built["Path"] > 0

    def test_groups_share_their_walk_lists(self):
        # both edges of the coherent feedforward take the same (end, grade)
        # walks, and the group from B to D is their 2 x 2 product
        groups, truncated = mg.find_motif_groups(mg.builtin_motif("coherent-feedforward"), host(), 2, 6)
        assert truncated and [count for _, _, count in groups] == [1, 1, 1, 1, 2]
        vertex_map, walks, count = groups[-1]
        assert vertex_map == (1, 3) and walks[0] is walks[1] and walks[0] == [(1, 8), (2,)]
        matches, _ = mg.find_motifs(mg.builtin_motif("coherent-feedforward"), host(), 2, 6)
        assert keys(matches) == expand(groups)
        assert matches[-1].edge_map[0] is matches[-2].edge_map[0] is matches[-2].edge_map[1]

    def test_same_errors_as_find_motifs(self):
        motif = mg.builtin_motif("positive-stimulation")
        nat = mg.labeled_graph(["a"], [], mg.named_algebra("NatAdd"), [])
        for args, message in (
            ((motif, nat), "share one label algebra"),
            ((motif, host(), 0), "max_path_len"),
            ((motif, host(), 2, -1), "max_results"),
        ):
            for search in (mg.find_motif_groups, mg.find_motifs):
                with pytest.raises(ValueError, match=message):
                    search(*args)
