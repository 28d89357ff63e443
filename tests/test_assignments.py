"""`validation._assignments`, the search that `cycles`, `find_motif_groups`
and `iso_check` share: its assignments are the products that a
prefix-closed rule accepts, in product order."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from monograph.validation import _assignments

from helpers import recursion_limit


@st.composite
def searches(draw):
    k = draw(st.integers(0, 4))
    values = draw(st.lists(st.lists(st.integers(0, 3), max_size=4), min_size=k, max_size=k))
    # no assignment with one of these prefixes fits, so the rule is prefix-closed
    banned = draw(st.sets(st.lists(st.integers(0, 3), min_size=1, max_size=k).map(tuple) if k else st.nothing()))
    return k, values, banned


@settings(max_examples=300, deadline=None)
@given(searches())
def test_assignments_are_the_product_filtered_by_the_rule(search):
    k, values, banned = search

    def fits(prefix):
        return not any(prefix[:i] in banned for i in range(1, len(prefix) + 1))

    def extend(level, assignment):
        placed = tuple(assignment[:level])
        return (x for x in values[level] if fits(placed + (x,)))

    found = [tuple(a) for a in _assignments(k, extend)]
    assert found == [p for p in itertools.product(*values) if fits(p)]


def test_no_levels_yield_one_empty_assignment():
    def extend(level, assignment):
        raise AssertionError("no level to extend")

    assert [list(a) for a in _assignments(0, extend)] == [[]]


def test_a_deep_chain_yields_once_without_recursing():
    n = 10**4
    with recursion_limit(50):
        found = [list(a) for a in _assignments(n, lambda level, assignment: iter((level,)))]
    assert found == [list(range(n))]


def test_the_assignment_is_one_reused_list():
    seen = list(_assignments(2, lambda level, assignment: iter((0, 1))))
    assert len(seen) == 4 and all(a is seen[0] for a in seen)
