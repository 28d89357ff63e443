"""Shuffling the vertex and edge lists of a model file, ids kept, leaves
every subcommand's answer unchanged up to renaming.

Each output is normalized before the comparison: loops become their file
edge ids rotated to the least id, results become multisets, and dense
indices become file ids.  Left out: `grade_word` (read from the canonical
rotation, so one loop can collapse to different words), `decompose` (a
circulation's split into simple loops is not unique), the commands that
write in dense order, and `validate` on invalid files.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import monograph as mg
from monograph.cli import main
from monograph.model_io import graph_to_json, open_graph_to_json

from helpers import FIXTURES, SIGN, rand_glue_pair, rand_graph, rand_labels

GRAPH_FIXTURES = ("homework", "host", "q4", "r5")
GLUE_PAIRS = (("glue_red", "glue_blue"), ("noncancellative_left", "noncancellative_right"))
SHUFFLES = 20


def shuffled(model: dict, rnd: random.Random) -> dict:
    """A copy of a model file's object with its vertex and edge lists shuffled."""
    model = copy.deepcopy(model)
    graph = model["graph"] if "graph" in model else model["open_graph"]["inner"]
    rnd.shuffle(graph["vertices"])
    rnd.shuffle(graph["edges"])
    return model


def ids_of(model: dict) -> tuple[list[str], list[str]]:
    """The file's vertex and edge ids, in file order: dense index i is the i-th."""
    graph = model["graph"] if "graph" in model else model["open_graph"]["inner"]
    return [v["id"] for v in graph["vertices"]], [e["id"] for e in graph["edges"]]


def run_json(command: str, models: dict, *flags: str):
    """`monograph <command> --json` with each model object of `models`
    written to a file and passed as its key's flag (`file` positionally);
    a string is passed as it is.  Returns the parsed stdout."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        for flag, model in models.items():
            if isinstance(model, dict):
                path = Path(tmp) / f"{flag}.json"
                path.write_text(json.dumps(model), encoding="utf-8")
                model = str(path)
            argv += [model] if flag == "file" else [f"--{flag}", model]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv + list(flags) + ["--json"])
    assert code == 0
    return json.loads(out.getvalue())


def rotated(edge_ids: list[str]) -> tuple[str, ...]:
    i = edge_ids.index(min(edge_ids))
    return tuple(edge_ids[i:] + edge_ids[:i])


def loops_view(model: dict):
    payload = run_json("loops", {"file": model})
    rows = Counter((rotated(r["edges"]), r["polarity"], r["feedback"], r["tag"]) for r in payload["loops"])
    return rows, payload["truncated"]


def homology_view(model: dict, bound: int):
    payload = run_json("homology", {"file": model}, "--bound", str(bound))
    loops = [rotated(edges) for edges in payload["generators"]]

    def side(vector):
        return frozenset((loop, c) for loop, c in zip(loops, vector) if c)

    relations = {frozenset((side(r["lhs"]), side(r["rhs"]))) for r in payload["relations"]}
    return payload["h0_components"], Counter(loops), relations, payload["truncated"]


def motif_view(motif: dict, host: dict, *flags: str):
    vertex_ids, edge_ids = ids_of(host)
    payload = run_json("motif", {"motif": motif, "host": host}, *flags)
    if payload["truncated"]:
        return None, True  # which matches a cap keeps depends on the order
    matches = Counter(
        (
            tuple(vertex_ids[v] for v in m["vertex_map"]),
            tuple(tuple(edge_ids[e] for e in path) for path in m["edge_paths"]),
        )
        for m in payload["matches"]
    )
    return matches, False


def emergence_view(left: dict, right: dict):
    payload = run_json("emergence", {"left": left, "right": right})
    rows = Counter((r["status"], r["polarity"]) for r in payload["loops"])
    return payload["inherited"], payload["emergent"], rows, payload["truncated"]


def fixture(name: str) -> dict:
    return json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))


def random_model(rnd: random.Random, algebra, max_vertices: int = 5, max_edges: int = 8) -> dict:
    g = rand_labels(rnd, rand_graph(rnd, max_vertices, max_edges), algebra)
    return {"format": 1, "graph": graph_to_json(g)}


def assert_invariant(view, *models: dict, rnd: random.Random, shuffles: int = SHUFFLES):
    """`view` of shuffled copies of `models` equals `view` of the originals."""
    expected = view(*models)
    for _ in range(shuffles):
        assert view(*[shuffled(model, rnd) for model in models]) == expected


@pytest.mark.parametrize("name", GRAPH_FIXTURES)
def test_loops_and_homology_of_a_fixture(name):
    model = fixture(name)
    rnd = random.Random(name)
    assert_invariant(loops_view, model, rnd=rnd)
    for bound in (1, 2):
        assert_invariant(lambda m: homology_view(m, bound), model, rnd=rnd)


@pytest.mark.parametrize("host_name", ["homework", "host"])
@pytest.mark.parametrize("motif", ["positive-feedback-loop", "negative-feedback-loop", "coherent-feedforward"])
def test_sign_motifs_on_a_fixture(motif, host_name):
    rnd = random.Random(f"{motif} {host_name}")
    assert_invariant(lambda host: motif_view(motif, host, "--max-path-len", "3"), fixture(host_name), rnd=rnd)


@pytest.mark.parametrize("left, right", GLUE_PAIRS)
def test_emergence_of_a_glue_pair(left, right):
    assert_invariant(emergence_view, fixture(left), fixture(right), rnd=random.Random(left))


def test_emergence_of_random_glue_pairs():
    rnd = random.Random(0)
    for _ in range(20):
        pair = [{"format": 1, "open_graph": open_graph_to_json(og)} for og in rand_glue_pair(rnd, SIGN, 5, 6)]
        assert_invariant(emergence_view, *pair, rnd=rnd, shuffles=4)


@pytest.mark.parametrize("name", sorted(mg.CATALOG))
def test_random_graphs_over_the_catalog(name):
    rnd = random.Random(name)
    for _ in range(5):
        model = random_model(rnd, mg.CATALOG[name])
        assert_invariant(loops_view, model, rnd=rnd, shuffles=4)
        assert_invariant(lambda m: homology_view(m, 1), model, rnd=rnd, shuffles=4)


@settings(max_examples=60, deadline=None)
@given(rnd=st.randoms(use_true_random=False))
def test_random_non_commutative_transformation_monoids(rnd):
    states, letters = rnd.randint(2, 3), rnd.randint(1, 2)
    action = tuple(tuple(rnd.randrange(states) for _ in range(states)) for _ in range(letters))
    sa = mg.Semiautomaton(tuple(f"s{i}" for i in range(states)), tuple(f"x{i}" for i in range(letters)), action)
    algebra = mg.from_semiautomaton(sa).algebra
    assume(not algebra.flags.commutative)
    host = random_model(rnd, algebra)
    motif = random_model(rnd, algebra, 3, 3)
    assert_invariant(loops_view, host, rnd=rnd, shuffles=2)
    assert_invariant(lambda m: homology_view(m, 1), host, rnd=rnd, shuffles=2)
    assert_invariant(lambda m: motif_view(motif, m, "--max-path-len", "2"), host, rnd=rnd, shuffles=2)
