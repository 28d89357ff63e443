"""One truncation contract for every capped search.

A capped search returns the first min(cap, total) results of its
uncapped run, in the layout the search gives them, and reports
`truncated` exactly when more results exist (total > cap).  A search
joins the contract by adding a row to `SEARCHES`; motif matches are
compared in their product form, so no match is expanded.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from typing import Callable

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import monograph as mg
from monograph import homology
from monograph.cli import main

from helpers import GRADED_ALGEBRAS, SIGN, bundle_file, q4, rand_glue_pair, rand_graded_labels, rand_graph


@dataclass(frozen=True)
class Search:
    name: str
    # a small random input of the search
    draw: Callable
    # (results, truncated) at a cap
    run: Callable
    # every result, in the order the search meets them
    stream: Callable
    # (stream, cap) -> `run`'s results at that cap
    prefix: Callable
    # how many results a stream, or `run`'s results, hold
    size: Callable = len


def _sorted_prefix(key):
    return lambda stream, cap: sorted(stream[:cap], key=key)


def _emergence_run(glued, cap):
    report = mg.emergence_report(glued, cap)
    return report.rows, report.truncated


def _emergence_stream(glued):
    rows, truncated = _emergence_run(glued, homology.LOOP_CAP)
    assert not truncated
    row_of = {row.loop: row for row in rows}
    return [row_of[loop] for loop in homology._circuits(glued.composite.graph)]


def _motif_draw(rnd):
    algebra = GRADED_ALGEBRAS[rnd.choice(sorted(GRADED_ALGEBRAS))]
    host = rand_graded_labels(rnd, rand_graph(rnd, 4, 6), algebra)
    motif = rand_graded_labels(rnd, rand_graph(rnd, 3, 3), algebra)
    return motif, host, rnd.randint(1, 3)


def _motif_run(drawn, cap):
    motif, host, max_len = drawn
    return mg.find_motif_groups(motif, host, max_len, cap)


def _motif_stream(drawn):
    groups, truncated = _motif_run(drawn, sys.maxsize)
    assert not truncated
    return groups


def _match_count(groups):
    return sum(count for _, _, count in groups)


def _groups_prefix(groups, cap):
    """The groups of the first `cap` matches: cut after the group that
    reaches `cap`, whose count is cut to it."""
    cut = []
    for vertex_map, walks, count in groups:
        if cap == 0:
            break
        cut.append((vertex_map, walks, min(count, cap)))
        cap -= cut[-1][2]
    return cut


SEARCHES = [
    Search(
        "simple_loops",
        lambda rnd: rand_graph(rnd, 5, 9),
        mg.simple_loops,
        lambda g: list(homology._circuits(g)),
        _sorted_prefix(lambda loop: loop.edges),
    ),
    Search(
        "emergence_report",
        lambda rnd: mg.glue(*rand_glue_pair(rnd, SIGN)),
        _emergence_run,
        _emergence_stream,
        _sorted_prefix(lambda row: row.loop.edges),
    ),
    Search("find_motif_groups", _motif_draw, _motif_run, _motif_stream, _groups_prefix, _match_count),
]


@pytest.mark.parametrize("search", SEARCHES, ids=lambda search: search.name)
@settings(max_examples=60, deadline=None)
@given(rnd=st.randoms(use_true_random=False))
# a one-vertex host with six self-loops: 2,163,330 motif matches
@example(rnd=random.Random(2429))
def test_a_cap_keeps_a_prefix_and_truncated_means_more_exist(search, rnd):
    drawn = search.draw(rnd)
    stream = search.stream(drawn)
    total = search.size(stream)
    for cap in sorted({0, 1, total - 1, total, total + 1} - {-1}):
        results, truncated = search.run(drawn, cap)
        assert search.size(results) == min(cap, total)
        assert results == search.prefix(stream, cap)
        assert truncated == (total > cap)


@pytest.mark.parametrize("search", SEARCHES, ids=lambda search: search.name)
def test_a_negative_cap_is_refused(search):
    with pytest.raises(ValueError, match="at least 0"):
        search.run(search.draw(random.Random(0)), -1)


def test_the_cap_messages_name_the_cap():
    with pytest.raises(ValueError, match=r"^cap must be at least 0, got -1$"):
        mg.simple_loops(q4(), -1)
    with pytest.raises(ValueError, match=r"^cap must be at least 0, got -3$"):
        mg.emergence_report(mg.glue(*rand_glue_pair(random.Random(0), SIGN)), -3)


def test_exactly_cap_loops_are_not_truncated():
    loops, truncated = mg.simple_loops(q4(), 4)
    assert len(loops) == 4 and not truncated
    assert mg.simple_loops(q4(), 3)[1]
    assert mg.simple_loops(q4(), 0) == ([], True)
    assert mg.simple_loops(mg.graph(["u", "v"], [(0, 1)]), 0) == ([], False)


def test_exactly_cap_emergent_rows_are_not_truncated():
    glued = mg.glue(*rand_glue_pair(random.Random(3), SIGN))
    everything = mg.emergence_report(glued)
    total = len(everything.rows)
    assert total and not everything.truncated
    assert mg.emergence_report(glued, total).rows == everything.rows
    assert not mg.emergence_report(glued, total).truncated
    assert mg.emergence_report(glued, total - 1).truncated
    report = mg.emergence_report(glued, 0)
    assert (report.rows, report.truncated) == ([], True)


@pytest.mark.parametrize(
    "back, line", [(100, "10000 simple loop class(es)\n"), (101, "10000 simple loop class(es) (truncated)\n")]
)
def test_the_loops_line_marks_a_bundle_only_past_the_cap(capsys, tmp_path, back, line):
    # every edge u -> v closes a loop with every edge v -> u
    assert main(["loops", str(bundle_file(tmp_path, 100, back))]) == 0
    out = capsys.readouterr().out
    assert out[: out.index("\n") + 1] == line
