"""Motif catalog and occurrence search against the exhaustive oracle."""

import random

import pytest

import monograph as mg

from helpers import SIGN, homework, host, oracle_motif_occurrences, oracle_paths, rand_graph, rand_labels


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
