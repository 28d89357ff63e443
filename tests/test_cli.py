"""End-to-end runs of every CLI subcommand."""

import hashlib
import inspect
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import monograph as mg
from monograph import cli, open_graphs
from monograph.cli import main

from helpers import (
    FIXTURES,
    GRADED_ALGEBRAS,
    algebra_model_json,
    broken_product_rig,
    bundle_file,
    rand_graded_labels,
    rand_graph,
    recursion_limit,
)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLoops:
    def test_homework_report(self, capsys):
        code, out, _ = run(capsys, "loops", FIXTURES / "homework.json")
        assert code == 0
        assert "2 simple loop class(es)" in out
        assert "reinforcing" in out and "balancing" in out

    def test_json_mode_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "loops", FIXTURES / "homework.json", "--json")
        _, second, _ = run(capsys, "loops", FIXTURES / "homework.json", "--json")
        assert first == second
        payload = json.loads(first)
        assert sorted(row["polarity"] for row in payload["loops"]) == ["+", "-"]


    @pytest.mark.parametrize(
        "ab_first, line",
        [(True, "edges [ab, ba]; a -> b -> a; polarity x"), (False, "edges [ba, ab]; b -> a -> b; polarity x")],
    )
    def test_polarity_over_a_non_commutative_table_ignores_edge_order(self, capsys, tmp_path, ab_first, line):
        # 1, x, y with xy = x and yx = y: the loop's rotations grade to y
        # (from a->b) and x (from b->a), and x has the lesser index
        algebra = {
            "kind": "finite-table", "elements": ["1", "x", "y"],
            "mul_table": [0, 1, 2, 1, 1, 1, 2, 2, 2], "unit": 0, "flags": {"commutative": False},
        }
        ab = {"id": "ab", "src": "a", "tgt": "b", "label": "x"}
        ba = {"id": "ba", "src": "b", "tgt": "a", "label": "y"}
        graph = {"algebra": algebra, "vertices": [{"id": "a"}, {"id": "b"}], "edges": [ab, ba] if ab_first else [ba, ab]}
        (tmp_path / "m.json").write_text(json.dumps({"format": 1, "graph": graph}), encoding="utf-8")
        code, out, _ = run(capsys, "loops", tmp_path / "m.json")
        assert (code, out) == (0, f"1 simple loop class(es)\n  loop 0: {line}\n")


class TestValidate:
    def test_good_files_pass(self, capsys):
        code, out, _ = run(capsys, "validate", FIXTURES / "homework.json")
        assert code == 0 and "ok" in out

    def test_a_file_that_is_not_utf8_is_named_and_validate_goes_on(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        # starts with a UTF-16 byte-order mark
        Path("bad.json").write_bytes(b"\xff\xfe{\x00}\x00")
        code, out, err = run(capsys, "validate", "bad.json", FIXTURES / "q4.json")
        assert (code, err) == (1, "")
        assert out == (
            "bad.json: INVALID\n"
            "  bad.json: [json-syntax] not UTF-8: invalid start byte at byte offset 0\n"
            f"{FIXTURES / 'q4.json'}: ok\n"
        )

    def test_a_loader_names_the_file_and_the_offset_of_a_bad_byte(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        # past the first 8 KiB that a text reader decodes at once
        Path("late.json").write_bytes(b'{"format": 1, "pad": "' + b"a" * 9000 + b'\xe9"}')
        code, out, err = run(capsys, "loops", "late.json")
        assert (code, out) == (1, "")
        assert err == "error: late.json: [json-syntax] not UTF-8: invalid continuation byte at byte offset 9022\n"

    def test_bad_file_fails_with_witness(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "format": 1,
                    "graph": {
                        "algebra": "SIGN",
                        "vertices": [{"id": "u"}],
                        "edges": [{"id": "e", "src": "u", "tgt": "u", "label": "?"}],
                    },
                }
            )
        )
        code, out, _ = run(capsys, "validate", bad)
        assert code == 1
        assert "unknown-element" in out and "'e'" in out

    def test_axiom_failure_fails_validation(self, capsys, tmp_path):
        bad = tmp_path / "axioms.json"
        bad.write_text(
            json.dumps(
                {
                    "format": 1,
                    "algebra": {
                        "kind": "finite-table",
                        "elements": ["+", "-"],
                        "mul_table": [0, 0, 1, 0],
                        "unit": 0,
                        "flags": {"commutative": True},
                    },
                }
            )
        )
        code, out, _ = run(capsys, "validate", bad)
        assert code == 1
        assert "commutativity" in out

    def test_cancellative_without_a_coefficient_view_fails_validation(self, capsys, tmp_path):
        bad = tmp_path / "left_zeros.json"
        bad.write_text(
            json.dumps(
                {
                    "format": 1,
                    "algebra": {
                        "kind": "finite-table",
                        "elements": ["1", "a", "b"],
                        "mul_table": [0, 1, 2, 1, 1, 1, 2, 2, 2],
                        "unit": 0,
                        "flags": {"cancellative": True},
                    },
                }
            )
        )
        code, out, err = run(capsys, "validate", bad)
        assert code == 1 and not err
        assert "[axiom/cancellativity] declared cancellative, but neither a rig nor commutative" in out

    def test_broken_product_rig_report_is_pinned(self, capsys, tmp_path, monkeypatch):
        # stdout of the per-triple checker this replaced, byte for byte: 387
        # violations of every law, in order, with their witnesses
        monkeypatch.chdir(tmp_path)
        Path("broken_rig.json").write_text(algebra_model_json(broken_product_rig()))
        code, out, err = run(capsys, "validate", "broken_rig.json")
        assert (code, err) == (1, "")
        assert out.startswith("broken_rig.json: INVALID\n  finite-table algebra: 387 violation(s)\n")
        assert len(out) == 31329
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "9287b3e2767b14de19943a7ec3aa1459423d0845f1ef653c9fa98024530d9a9d"
        )

    def test_a_table_given_twice_is_reported_once(self, capsys, tmp_path, monkeypatch):
        # the file's algebra and its graph's inline table: two equal objects, not one
        monkeypatch.chdir(tmp_path)
        table = {"kind": "finite-table", "elements": ["a", "b"], "mul_table": [1, 1, 1, 1], "unit": 1}
        graph = {"algebra": table, "vertices": [{"id": "u"}], "edges": []}
        Path("twice.json").write_text(json.dumps({"format": 1, "algebra": table, "graph": graph}))
        code, out, err = run(capsys, "validate", "twice.json")
        assert (code, err) == (1, "")
        assert out == (
            "twice.json: INVALID\n"
            "  finite-table algebra: 1 violation(s)\n"
            "    [axiom/unit] mul: b is not a unit at a\n"
        )

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2


class TestComposeAndTensor:
    def test_compose_then_loops_matches_the_drawn_composite(self, capsys, tmp_path):
        out_path = tmp_path / "z.json"
        code, _, _ = run(
            capsys, "compose", FIXTURES / "open_left.json", FIXTURES / "open_right.json",
            "--out", out_path,
        )
        assert code == 0
        code, out, _ = run(capsys, "loops", out_path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["loops"]) == 2
        assert sorted(row["polarity"] for row in payload["loops"]) == ["+", "-"]

    def test_flag_style_inputs(self, capsys, tmp_path):
        out_path = tmp_path / "z.json"
        code, _, _ = run(
            capsys, "compose", "--left", FIXTURES / "open_left.json",
            "--right", FIXTURES / "open_right.json", "--out", out_path,
        )
        assert code == 0

    def test_foot_mismatch_fails(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "compose", FIXTURES / "open_right.json", FIXTURES / "open_left.json",
            "--out", tmp_path / "z.json",
        )
        assert code == 1 and "foot mismatch" in err

    def test_tensor_counts(self, capsys, tmp_path):
        out_path = tmp_path / "t.json"
        code, out, _ = run(
            capsys, "tensor", FIXTURES / "open_left.json", FIXTURES / "open_right.json",
            "--out", out_path,
        )
        assert code == 0 and "9 vertices, 9 edges" in out

    @pytest.mark.parametrize("command", ["compose", "tensor"])
    @pytest.mark.parametrize(
        "inputs",
        [
            [FIXTURES / "open_left.json", "/nonexistent.json", FIXTURES / "open_right.json"],
            [
                "--left", FIXTURES / "open_left.json", "--right", FIXTURES / "open_right.json",
                FIXTURES / "glue_red.json",
            ],
            [FIXTURES / "open_left.json", "--right", FIXTURES / "open_right.json"],
            [FIXTURES / "open_left.json"],
        ],
        ids=["three-positionals", "flags-and-a-positional", "one-flag", "one-positional"],
    )
    def test_anything_but_two_inputs_fails(self, capsys, tmp_path, command, inputs):
        out_path = tmp_path / "z.json"
        code, out, err = run(capsys, command, *inputs, "--out", out_path)
        assert code == 1 and not out and not out_path.exists()
        assert err == "error: need two open graphs: positional LEFT RIGHT or --left/--right\n"


def ring_file(tmp_path, n):
    path = tmp_path / f"ring{n}.json"
    path.write_text(
        json.dumps(
            {
                "format": 1,
                "graph": {
                    "algebra": "SIGN",
                    "vertices": [{"id": f"v{i}"} for i in range(n)],
                    "edges": [
                        {"id": f"e{i}", "src": f"v{i}", "tgt": f"v{(i + 1) % n}", "label": "+"}
                        for i in range(n)
                    ],
                },
            }
        )
    )
    return path


@pytest.fixture
def deep_ring(tmp_path):
    n = 3000
    return ring_file(tmp_path, n), n


class TestDeepRing:
    def test_loops(self, capsys, deep_ring):
        path, n = deep_ring
        code, out, err = run(capsys, "loops", path, "--json")
        assert code == 0 and not err
        [row] = json.loads(out)["loops"]
        assert row["edges"] == [f"e{i}" for i in range(n)]

    def test_homology(self, capsys, deep_ring):
        path, n = deep_ring
        code, out, err = run(capsys, "homology", path, "--bound", "2", "--json")
        assert code == 0 and not err
        payload = json.loads(out)
        assert len(payload["generators"]) == 1 and payload["relations"] == []

    def test_motif_past_the_recursion_limit(self, capsys, tmp_path):
        n = 300
        path = ring_file(tmp_path, n)
        with recursion_limit(100) as limit:
            assert limit < n
            code, out, err = run(
                capsys, "motif", "--motif", "positive-autoregulation", "--host", path,
                "--max-path-len", n, "--json",
            )
        assert code == 0 and not err
        matches = json.loads(out)["matches"]
        assert [m["edge_paths"] for m in matches[:2]] == [[[]], [list(range(n))]]
        assert len(matches) == 2 * n


class TestHomology:
    def test_quad_report(self, capsys):
        code, out, _ = run(capsys, "homology", FIXTURES / "q4.json")
        assert code == 0
        assert "4 simple loop class(es)" in out
        assert "relations at coefficient bound 1: 1" in out

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "homology", FIXTURES / "r5.json", "--json")
        payload = json.loads(out)
        assert len(payload["generators"]) == 6
        assert len(payload["relations"]) == 3

    def test_a_truncated_loop_list_is_marked_in_text_as_in_json(self, capsys, tmp_path):
        path = bundle_file(tmp_path, 100, 101)
        code, out, _ = run(capsys, "homology", path, "--bound", "0")
        assert code == 0
        assert "h1 generators (10000 simple loop class(es)) (truncated):\n" in out
        code, out, _ = run(capsys, "homology", path, "--bound", "0", "--json")
        assert code == 0 and json.loads(out)["truncated"]


class TestEmergence:
    def test_intro_fixture(self, capsys):
        code, out, _ = run(
            capsys, "emergence", "--left", FIXTURES / "glue_red.json",
            "--right", FIXTURES / "glue_blue.json", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["inherited"] == 0 and payload["emergent"] >= 1

    def test_edges_are_named_by_their_place_in_the_composite(self, capsys):
        # e0-e6 are glue_red's edges in file order (bd, ab, ah, de, ca, cd,
        # gc), e7-e12 glue_blue's (ef, fg, fb, ib, hf, hi)
        code, out, _ = run(
            capsys, "emergence", "--left", FIXTURES / "glue_red.json",
            "--right", FIXTURES / "glue_blue.json", "--json",
        )
        assert code == 0
        assert [row["edges"] for row in json.loads(out)["loops"]] == [
            ["e0", "e3", "e7", "e8", "e6", "e4", "e1"],
            ["e0", "e3", "e7", "e8", "e6", "e4", "e2", "e12", "e10"],
            ["e0", "e3", "e7", "e9"],
            ["e2", "e11", "e8", "e6", "e4"],
            ["e3", "e7", "e8", "e6", "e5"],
        ]

    def test_monicity_violation_fails(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "emergence", "--left", FIXTURES / "open_left.json",
            "--right", FIXTURES / "open_right.json",
        )
        assert code == 1 and "injective" in err


def _k8_and_back(tmp_path):
    """X is the complete digraph on eight vertices plus an edge s->t, open
    on {s, t}; Y is one edge t->s.  Their composite has over 10,000 loops."""
    names = [f"k{i}" for i in range(8)]
    edges = [{"id": a + b, "src": a, "tgt": b, "label": 1} for a in names for b in names if a != b]

    def write(name, vertices, edges, left, right):
        inner = {"algebra": "TrivialOne", "vertices": [{"id": v} for v in vertices], "edges": edges}
        og = {
            "inner": inner, "left_foot": left, "right_foot": right,
            "leg_in": {v: v for v in left}, "leg_out": {v: v for v in right},
        }
        (tmp_path / name).write_text(json.dumps({"format": 1, "open_graph": og}), encoding="utf-8")
        return tmp_path / name

    x = write("x.json", names + ["s", "t"], edges + [{"id": "st", "src": "s", "tgt": "t", "label": 1}], [], ["s", "t"])
    y = write("y.json", ["s", "t"], [{"id": "ts", "src": "t", "tgt": "s", "label": 1}], ["s", "t"], [])
    return x, y


def test_a_reader_that_leaves_early_gets_no_traceback(tmp_path):
    x, y = _k8_and_back(tmp_path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "monograph.cli", "emergence", "--left", str(x), "--right", str(y)],
        env=_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    # the rest of the report is far more than a pipe holds
    assert proc.stdout.readline().startswith("10000 loop(s)")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) != 0
    assert "Traceback" not in err and "BrokenPipeError" not in err


class TestChangeLabels:
    def test_collapse_hom(self, capsys, tmp_path):
        out_path = tmp_path / "collapsed.json"
        code, _, _ = run(
            capsys, "change-labels", FIXTURES / "homework.json", "--hom", "collapse",
            "--out", out_path,
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["graph"]["algebra"] == "TrivialOne"
        assert all(e["label"] == 1 for e in payload["graph"]["edges"])

    def test_hom_file(self, capsys, tmp_path):
        hom_path = tmp_path / "hom.json"
        hom_path.write_text(
            json.dumps({"source": "SIGN", "target": "SIGN0", "map": ["+", "-"]})
        )
        out_path = tmp_path / "relabeled.json"
        code, _, _ = run(
            capsys, "change-labels", FIXTURES / "homework.json", "--hom-file", hom_path,
            "--out", out_path,
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["graph"]["algebra"] == "SIGN0"

    def test_unknown_hom_name(self, capsys):
        code, _, err = run(
            capsys, "change-labels", FIXTURES / "homework.json", "--hom", "mystery",
            "--out", "/tmp/unused.json",
        )
        assert code == 1 and "unknown hom" in err

    @pytest.mark.parametrize("images", [["+"], ["+", "-", "0"]], ids=["short", "long"])
    def test_hom_file_map_of_the_wrong_length(self, capsys, tmp_path, images):
        hom_path = tmp_path / "hom.json"
        hom_path.write_text(json.dumps({"source": "SIGN", "target": "SIGN0", "map": images}))
        out_path = tmp_path / "relabeled.json"
        code, out, err = run(
            capsys, "change-labels", FIXTURES / "homework.json", "--hom-file", hom_path,
            "--out", out_path,
        )
        assert code == 1 and not out and not out_path.exists()
        assert err == f"error: bad hom file: mapping lists {len(images)} image(s) for 2 source element(s)\n"

    @pytest.mark.parametrize(
        "hom, message",
        [
            # (-)*(-) = + goes to 0, but 1 + 1 = 2
            ({"source": "SIGN", "target": "NatAdd", "map": [0, 1]},
             "[axiom/multiplicativity] image of -*- is not the product of images"),
            ({"source": "SIGN", "target": "SIGN0", "map": "+-"}, "map must be a JSON list of target elements"),
            ({"source": "SIGN", "map": ["+", "-"]}, "missing keys ['target']"),
            ({"source": "SIGN", "target": "SIGN0", "map": ["+", "-"], "name": "flip", "kind": "x"},
             "unknown keys ['kind', 'name']"),
            (["SIGN", "SIGN0", ["+", "-"]], "expected a JSON object with keys source, target and map"),
        ],
        ids=["not-a-hom", "map-string", "missing-key", "unknown-keys", "top-level-list"],
    )
    def test_a_hom_file_is_checked_before_anything_is_written(self, capsys, tmp_path, hom, message):
        hom_path = tmp_path / "hom.json"
        hom_path.write_text(json.dumps(hom))
        out_path = tmp_path / "relabeled.json"
        code, out, err = run(
            capsys, "change-labels", FIXTURES / "homework.json", "--hom-file", hom_path,
            "--out", out_path,
        )
        assert (code, out, err) == (1, "", f"error: bad hom file: {message}\n")
        assert not out_path.exists()


class TestSignSection:
    def test_rational_labels_have_feedback(self, capsys, tmp_path):
        src = tmp_path / "sign0.json"
        src.write_text(
            json.dumps(
                {
                    "format": 1,
                    "graph": {
                        "algebra": "SIGN0",
                        "vertices": [{"id": "a"}, {"id": "b"}],
                        "edges": [
                            {"id": "e1", "src": "a", "tgt": "b", "label": "+"},
                            {"id": "e2", "src": "b", "tgt": "a", "label": "-"},
                            {"id": "e3", "src": "b", "tgt": "b", "label": "0"},
                            {"id": "e4", "src": "a", "tgt": "a", "label": "+"},
                        ],
                    },
                }
            )
        )
        relabeled = tmp_path / "rational.json"
        code, _, err = run(capsys, "change-labels", src, "--hom", "sign-section", "--out", relabeled)
        assert code == 0 and not err
        assert json.loads(relabeled.read_text())["graph"]["algebra"] == "RatMulMonoid"
        code, out, err = run(capsys, "loops", relabeled, "--json")
        assert code == 0 and not err
        rows = json.loads(out)["loops"]
        assert sorted(row["polarity"] for row in rows) == ["-1", "0", "1"]
        assert all(row["feedback"] == row["polarity"] for row in rows)
        code, out, err = run(capsys, "homology", relabeled, "--json")
        assert code == 0 and not err
        assert json.loads(out)["h0_components"] == 1


class TestOutputErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["compose", FIXTURES / "open_left.json", FIXTURES / "open_right.json"],
            ["tensor", FIXTURES / "open_left.json", FIXTURES / "open_right.json"],
            ["change-labels", FIXTURES / "homework.json", "--hom", "collapse"],
            ["export-dot", FIXTURES / "homework.json"],
        ],
        ids=["compose", "tensor", "change-labels", "export-dot"],
    )
    def test_missing_output_directory(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "out.json"
        code, out, err = run(capsys, *argv, "--out", target)
        assert code == 1 and not out
        assert err == f"error: {target}: No such file or directory\n"

    def test_negative_relation_bound(self, capsys):
        code, out, err = run(capsys, "homology", FIXTURES / "q4.json", "--bound", "-1")
        assert code == 1 and not out
        assert err == "error: coefficient bound must be at least 0, got -1\n"

    def test_deeply_nested_model_is_invalid(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 10**5 + "]" * 10**5)
        code, out, err = run(capsys, "validate", deep)
        assert code == 1 and not err
        assert out == f"{deep}: INVALID\n  {deep}: [json-syntax] nested too deeply to decode\n"
        code, out, err = run(capsys, "loops", deep)
        assert code == 1 and not out
        assert err == f"error: {deep}: [json-syntax] nested too deeply to decode\n"

    def test_an_exponent_label_is_one_error_line_at_once(self, capsys, tmp_path):
        # `Fraction` would expand the exponent, taking seconds for this one
        path = tmp_path / "exponent.json"
        edges = [{"id": "e", "src": "v", "tgt": "v", "label": "1e10000000"}]
        path.write_text(json.dumps({"format": 1, "graph": {"algebra": "RatAdd", "vertices": [{"id": "v"}], "edges": edges}}))
        start = time.perf_counter()
        code, out, err = run(capsys, "loops", path)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and not out
        assert err == f"error: {path}: [unknown-element] edge 'e': '1e10000000' is not an exact rational label\n"

    def test_deeply_nested_chain_is_an_error(self, capsys):
        code, out, err = run(capsys, "decompose", FIXTURES / "q4.json", "--chain", "[" * 10**5)
        assert code == 1 and not out
        assert err == "error: bad --chain JSON: nested too deeply to decode\n"

    def test_deeply_nested_hom_file_is_an_error(self, capsys, tmp_path):
        deep = tmp_path / "hom.json"
        deep.write_text("[" * 10**5)
        code, out, err = run(
            capsys, "change-labels", FIXTURES / "homework.json",
            "--hom-file", deep, "--out", tmp_path / "out.json",
        )
        assert code == 1 and not out
        assert err == "error: bad hom file: nested too deeply to decode\n"

    def test_negative_motif_result_cap(self, capsys):
        code, out, err = run(
            capsys, "motif", "--motif", "positive-autoregulation",
            "--host", FIXTURES / "host.json", "--max-results", "-1", "--json",
        )
        assert code == 1 and not out
        assert err == "error: max_results must be at least 0\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["motif", "--motif", "positive-autoregulation", "--host", FIXTURES / "host.json",
                 "--max-path-len", "0"],
                "max_path_len must be at least 1",
            ),
            (
                ["compose", FIXTURES / "open_right.json", FIXTURES / "open_left.json", "--out", os.devnull],
                "foot mismatch: ['c1'] vs ['a1']",
            ),
            (
                ["tensor", FIXTURES / "open_left.json", FIXTURES / "glue_red.json", "--out", os.devnull],
                "open graphs must share one label algebra",
            ),
            (
                ["emergence", "--left", FIXTURES / "open_left.json", "--right", FIXTURES / "open_right.json"],
                "left graph's interface leg is not injective",
            ),
            (
                ["change-labels", FIXTURES / "homework.json", "--hom", "sign", "--out", os.devnull],
                "graph labels do not live in the hom's source algebra",
            ),
            (["decompose", FIXTURES / "q4.json", "--chain", '{"e1": 1}'], "chain is not a cycle"),
        ],
        ids=["motif", "compose", "tensor", "emergence", "change-labels", "decompose"],
    )
    def test_library_value_error_is_one_error_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert err == f"error: {message}\n"


class TestDecompose:
    def test_full_quad_chain(self, capsys):
        code, out, _ = run(
            capsys, "decompose", FIXTURES / "q4.json",
            "--chain", json.dumps({"e1": 1, "e2": 1, "e3": 1, "e4": 1}), "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["parts"]) == 2

    def test_non_cycle_fails(self, capsys):
        code, _, err = run(
            capsys, "decompose", FIXTURES / "q4.json", "--chain", json.dumps({"e1": 1}),
        )
        assert code == 1 and "not a cycle" in err

    @pytest.mark.parametrize("as_json", [False, True])
    def test_more_parts_than_the_guard_is_one_error_line(self, capsys, tmp_path, as_json):
        path = tmp_path / "self_loop.json"
        path.write_text(
            json.dumps(
                {
                    "format": 1,
                    "graph": {
                        "algebra": "NatAdd",
                        "vertices": [{"id": "v"}],
                        "edges": [{"id": "e", "src": "v", "tgt": "v", "label": 1}],
                    },
                }
            )
        )
        argv = ["decompose", path, "--chain", '{"e": 99999999999}'] + (["--json"] if as_json else [])
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert err == "error: decomposition into 99999999999 loops > guard 10^6\n"

    def test_unknown_edge_id(self, capsys):
        code, _, err = run(
            capsys, "decompose", FIXTURES / "q4.json", "--chain", json.dumps({"e9": 1}),
        )
        assert code == 1 and "unknown edge id" in err


class TestExportDot:
    def test_stdout_mode(self, capsys):
        code, out, _ = run(capsys, "export-dot", FIXTURES / "homework.json")
        assert code == 0 and out.startswith("digraph") and "rankdir=LR;" in out

    def test_file_mode(self, capsys, tmp_path):
        out_path = tmp_path / "g.dot"
        code, _, _ = run(capsys, "export-dot", FIXTURES / "homework.json", "--out", out_path)
        assert code == 0 and out_path.read_text().startswith("digraph")


class TestMotifCli:
    def test_builtin_motif_against_host(self, capsys):
        code, out, _ = run(
            capsys, "motif", "--motif", "positive-autoregulation",
            "--host", FIXTURES / "host.json", "--max-path-len", "3", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert {"vertex_map": [0], "edge_paths": [[0, 1, 7]], "grades": ["+"]} in payload["matches"]

    def test_text_mode_prints_one_line_per_match(self, capsys):
        code, out, _ = run(
            capsys, "motif", "--motif", "negative-feedback-loop",
            "--host", FIXTURES / "homework.json", "--max-path-len", "2",
        )
        assert code == 0
        assert out == (
            "3 match(es)\n"
            "  match 0: v -> effort, w -> quality of work; paths [effort-quality], [quality-grades, grades-effort]\n"
            "  match 1: v -> effort, w -> grades; paths [effort-quality, quality-grades], [grades-effort]\n"
            "  match 2: v -> quality of work, w -> grades; paths [quality-grades], [grades-effort, effort-quality]\n"
        )

    def test_limits_not_given_are_find_motifs_defaults(self, capsys):
        defaults = inspect.signature(mg.find_motifs).parameters
        base = ["motif", "--motif", "positive-feedback-loop", "--host", FIXTURES / "host.json", "--json"]
        explicit = run(
            capsys, *base, "--max-path-len", defaults["max_path_len"].default,
            "--max-results", defaults["max_results"].default,
        )
        assert run(capsys, *base) == explicit and explicit[0] == 0
        # each option alone keeps the other's default
        assert run(capsys, *base, "--max-results", "3") == run(
            capsys, *base, "--max-path-len", defaults["max_path_len"].default, "--max-results", "3"
        )

    def test_text_mode_shows_empty_paths_and_truncation(self, capsys):
        code, out, _ = run(
            capsys, "motif", "--motif", "positive-autoregulation",
            "--host", FIXTURES / "host.json", "--max-path-len", "3", "--max-results", "2",
        )
        assert code == 0
        assert out == "2 match(es) (truncated)\n  match 0: v -> A; paths []\n  match 1: v -> A; paths [ab, bc, ca]\n"

    def test_result_cap_inside_one_assignment(self, capsys):
        # v -> B, w -> D has the walks [bc, cd] and [bd1] for each of the
        # two parallel edges; the cap keeps the first two of those four
        base = ["motif", "--motif", "coherent-feedforward", "--host", FIXTURES / "host.json",
                "--max-path-len", "2", "--max-results", "6"]
        code, out, _ = run(capsys, *base)
        assert code == 0
        assert out == (
            "6 match(es) (truncated)\n"
            "  match 0: v -> A, w -> A; paths [], []\n"
            "  match 1: v -> A, w -> D; paths [ab, bd2], [ab, bd2]\n"
            "  match 2: v -> B, w -> B; paths [], []\n"
            "  match 3: v -> B, w -> C; paths [bc], [bc]\n"
            "  match 4: v -> B, w -> D; paths [bc, cd], [bc, cd]\n"
            "  match 5: v -> B, w -> D; paths [bc, cd], [bd1]\n"
        )
        code, out, _ = run(capsys, *base, "--json")
        assert code == 0
        paths = [[[], []], [[0, 3], [0, 3]], [[], []], [[1], [1]], [[1, 8], [1, 8]], [[1, 8], [2]]]
        vertex_maps = [[0, 0], [0, 3], [1, 1], [1, 2], [1, 3], [1, 3]]
        expected = {
            "matches": [
                {"edge_paths": p, "grades": ["+", "+"], "vertex_map": v} for p, v in zip(paths, vertex_maps)
            ],
            "truncated": True,
        }
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_motif_from_file(self, capsys, tmp_path):
        motif_path = tmp_path / "motif.json"
        motif_path.write_text(
            json.dumps(
                {
                    "format": 1,
                    "graph": {
                        "algebra": "SIGN",
                        "vertices": [{"id": "v"}, {"id": "w"}],
                        "edges": [{"id": "e", "src": "v", "tgt": "w", "label": "-"}],
                    },
                }
            )
        )
        code, out, _ = run(
            capsys, "motif", "--motif", motif_path, "--host", FIXTURES / "homework.json",
            "--max-path-len", "1", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        # exactly the two - edges of the homework diagram
        assert len(payload["matches"]) == 2

    @pytest.mark.parametrize("name", sorted(GRADED_ALGEBRAS))
    def test_grades_are_the_grades_of_the_printed_paths(self, capsys, tmp_path, name):
        rng = random.Random(5)
        algebra = GRADED_ALGEBRAS[name]
        total = 0
        for trial in range(8):
            h = rand_graded_labels(rng, rand_graph(rng, 4, 7), algebra)
            motif = rand_graded_labels(rng, rand_graph(rng, 2, 2), algebra)
            host_path, motif_path = tmp_path / f"host{trial}.json", tmp_path / f"motif{trial}.json"
            mg.save_model(mg.ModelFile(graph=h), host_path)
            mg.save_model(mg.ModelFile(graph=motif), motif_path)
            code, out, err = run(
                capsys, "motif", "--motif", motif_path, "--host", host_path,
                "--max-path-len", "3", "--json",
            )
            assert code == 0 and not err
            loaded = mg.load_model(host_path).graph
            for match in json.loads(out)["matches"]:
                starts = [match["vertex_map"][s] for s in motif.graph.edge_src]
                assert match["grades"] == [
                    algebra.label_text(mg.grade(mg.Path(start, tuple(edges)), loaded))
                    for start, edges in zip(starts, match["edge_paths"])
                ]
                total += 1
        assert total > 0


_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


class TestParserReuse:
    """`main()` builds its argparse parser once per process."""

    def test_importing_the_cli_builds_no_parser(self):
        probe = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import monograph.cli\n"
            "print(len(built))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=_ENV, stdout=subprocess.PIPE, text=True, check=True
        )
        assert proc.stdout == "0\n"

    def test_main_builds_the_parser_once(self, capsys, monkeypatch):
        calls = []
        build = cli.build_parser

        def counting_build():
            calls.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        try:
            for argv in (["loops", FIXTURES / "homework.json"], ["homology", FIXTURES / "q4.json", "--json"]):
                assert run(capsys, *argv)[0] == 0
            with pytest.raises(SystemExit):
                main(["frobnicate"])
            assert run(capsys, "export-dot", FIXTURES / "q4.json")[0] == 0
        finally:
            cli._parser.cache_clear()
        assert calls == [1]

    def test_functions_rebound_after_the_parser_was_built_are_called(self, capsys, monkeypatch, tmp_path):
        run(capsys, "loops", FIXTURES / "homework.json")  # builds the parser
        seen = []

        def spy(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                seen.append(name)
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        # a handler imports the library functions it calls when it runs,
        # so they are spied where they are defined
        for module, name in ((open_graphs, "compose"), (open_graphs, "tensor"), (cli, "cmd_loops")):
            spy(module, name)
        pair = (FIXTURES / "open_left.json", FIXTURES / "open_right.json")
        assert run(capsys, "compose", *pair, "--out", tmp_path / "c.json")[0] == 0
        assert run(capsys, "tensor", *pair, "--out", tmp_path / "t.json")[0] == 0
        assert run(capsys, "loops", FIXTURES / "homework.json")[0] == 0
        assert seen == ["compose", "tensor", "cmd_loops"]


def _parity_calls(tmp_path):
    """(argv, written file or None) for every subcommand, `--json` and not."""
    hom_path = tmp_path / "hom.json"
    hom_path.write_text(json.dumps({"source": "SIGN", "target": "SIGN0", "map": ["+", "-"]}))
    pair = [FIXTURES / "open_left.json", FIXTURES / "open_right.json"]
    chain = json.dumps({"e1": 1, "e2": 1, "e3": 1, "e4": 1})
    glue = ["--left", FIXTURES / "glue_red.json", "--right", FIXTURES / "glue_blue.json"]
    motif = ["--motif", "positive-autoregulation", "--host", FIXTURES / "host.json", "--max-path-len", "3"]
    calls = [
        (["validate", *sorted(FIXTURES.glob("*.json"))], None),
        (["loops", FIXTURES / "homework.json"], None),
        (["loops", FIXTURES / "r5.json", "--json"], None),
        (["motif", *motif], None),
        (["motif", *motif, "--json"], None),
        (["compose", *pair, "--out", tmp_path / "composed.json"], tmp_path / "composed.json"),
        (["tensor", "--left", pair[0], "--right", pair[1], "--out", tmp_path / "tensor.json"], tmp_path / "tensor.json"),
        (["homology", FIXTURES / "q4.json"], None),
        (["homology", FIXTURES / "r5.json", "--bound", "2", "--json"], None),
        (["emergence", *glue], None),
        (["emergence", *glue, "--json"], None),
        (["change-labels", FIXTURES / "homework.json", "--hom", "collapse", "--out", tmp_path / "c.json"], tmp_path / "c.json"),
        (["change-labels", FIXTURES / "homework.json", "--hom-file", hom_path, "--out", tmp_path / "h.json"], tmp_path / "h.json"),
        (["decompose", FIXTURES / "q4.json", "--chain", chain], None),
        (["decompose", FIXTURES / "q4.json", "--chain", chain, "--json"], None),
        (["export-dot", FIXTURES / "homework.json"], None),
        (["export-dot", FIXTURES / "q4.json", "--out", tmp_path / "q4.dot"], tmp_path / "q4.dot"),
        (["loops"], None),  # usage error: exit 2, usage on stderr
        (["change-labels", FIXTURES / "homework.json", "--hom", "mystery", "--out", tmp_path / "m.json"], None),
    ]
    return [([str(a) for a in argv], written) for argv, written in calls]


def _in_process(capsys, argv, written):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, written.read_text() if written else None


def test_parser_reuse_matches_fresh_processes(capsys, tmp_path):
    calls = _parity_calls(tmp_path)
    expected = []
    for argv, written in calls:
        proc = subprocess.run(
            [sys.executable, "-m", "monograph.cli", *argv],
            env=_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        expected.append((proc.returncode, proc.stdout, proc.stderr, written.read_text() if written else None))
    assert [code for code, *_ in expected].count(2) == 1 and expected[-2][2].startswith("usage: monograph loops")
    # twice through, the second time backwards: the usage error is then
    # followed by a good call, and every call by another subcommand or flag
    order = list(range(len(calls)))
    for i in order + order[::-1]:
        argv, written = calls[i]
        if written:
            written.unlink()
        assert _in_process(capsys, argv, written) == expected[i], argv


# the fixture pairs that `compose`, `tensor` and `emergence` read together
_PAIRS = [("open_left", "open_right"), ("glue_red", "glue_blue"), ("noncancellative_left", "noncancellative_right")]
_ODD_VALUES = [None, True, False, 0, 1, -1, 2, 10**20, 0.5, "", "x", "+", [], {}, [0], {"id": 0}]


def _mutated(rng: random.Random, obj):
    """`obj` after one to three edits, each to one key of a dict or item of
    a list inside it: replaced (by an odd value or a scalar of the file),
    deleted, or duplicated (copied onto another key, or inserted again)."""
    for _ in range(rng.randint(1, 3)):
        containers, stack, scalars = [], [obj], []
        while stack:
            node = stack.pop()
            if isinstance(node, (dict, list)):
                children = list(node.values()) if isinstance(node, dict) else node
                containers += [node] if node else []
                stack.extend(children)
            else:
                scalars.append(node)
        if not containers:
            break
        node = rng.choice(containers)
        key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
        edit = rng.choice(("replace", "delete", "duplicate"))
        if edit == "replace":
            node[key] = json.loads(json.dumps(rng.choice(_ODD_VALUES + scalars)))
        elif edit == "delete":
            del node[key]
        elif isinstance(node, dict):
            node[rng.choice(list(node))] = json.loads(json.dumps(node[key]))
        else:
            node.insert(rng.randint(0, len(node)), json.loads(json.dumps(node[key])))
    return obj


def test_no_mutated_model_file_makes_a_command_raise(capsys, tmp_path):
    rng = random.Random(26)
    for trial in range(100):
        names = list(rng.choice(_PAIRS))
        side = rng.randrange(2)
        mutated = _mutated(rng, json.loads((FIXTURES / f"{names[side]}.json").read_text()))
        paths = [FIXTURES / f"{name}.json" for name in names]
        paths[side] = tmp_path / f"{names[side]}.json"
        paths[side].write_text(json.dumps(mutated))
        left, right = map(str, paths)
        calls = [
            ["compose", left, right, "--out", os.devnull],
            ["tensor", left, right, "--out", os.devnull],
            *[["change-labels", str(paths[side]), "--hom", hom, "--out", os.devnull] for hom in ("collapse", "sign", "sign-section")],
            ["validate", left, right],
            ["emergence", "--left", left, "--right", right, "--json"],
        ]
        for argv in calls:
            code = main(argv)  # anything raised fails the test here
            err = capsys.readouterr().err
            context = (trial, argv, mutated)
            assert code in (0, 1), context
            if code == 1 and argv[0] != "validate":
                assert any(line.startswith("error: ") for line in err.splitlines()), context
