"""Every record class behaves as the dataclass it replaced.

`validation.record` builds the package's data classes without generated
code.  Each record here is checked against a twin that
`dataclasses.make_dataclass` builds with the same name, fields, defaults,
flags and methods, on hypothesis-drawn field values: valid ones taken from
library objects, arbitrary ones (which `__post_init__` may refuse), and
mixtures of both.
"""

import ast
import copy
import dataclasses
import importlib
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monograph as mg
from monograph.homology import SimpleLoop
from monograph.paths import Path as EdgePath
from monograph.validation import field, replace

from helpers import NAT, RAT_MUL, S_RIG, SIGN, SWAP_RESET, rand_graph, rand_labeled, rand_open

SOURCE = Path(__file__).resolve().parent.parent / "src" / "monograph"

# every record, with the flags it had as a dataclass: (frozen, eq, repr)
FROZEN = (True, True, True)
FLAGS = {
    "AdditiveMorphism": FROZEN, "BuiltinAlgebra": (True, False, False), "Chain": FROZEN,
    "EmergenceReport": (False, True, True), "EmergenceRow": FROZEN, "Flags": FROZEN,
    "GluedGraph": FROZEN, "Graph": FROZEN, "GraphMorphism": FROZEN, "H0Result": FROZEN,
    "KleisliMorphism": FROZEN, "LabeledGraph": FROZEN, "MVReport": (False, True, True),
    "ModelFile": (False, True, True), "MonoidHom": FROZEN, "MorphismMode": FROZEN,
    "OpenGraph": FROZEN, "OpenGraphMap": FROZEN, "Path": FROZEN, "Relation": FROZEN,
    "Semiautomaton": FROZEN, "SimpleLoop": FROZEN, "TableAlgebra": FROZEN,
    "ValidationReport": (False, True, True), "Violation": FROZEN,
}


def _records() -> dict:
    found = {}
    for path in sorted(SOURCE.glob("*.py")):
        module = importlib.import_module(f"monograph.{path.stem}")
        found.update(
            (name, value)
            for name, value in vars(module).items()
            if isinstance(value, type) and value.__module__ == module.__name__ and "_fields" in vars(value)
        )
    return found


RECORDS = _records()


def _twin(cls):
    """The dataclass `cls` was, from its fields, defaults and own methods."""
    frozen, eq, repr_ = FLAGS[cls.__name__]
    installed = {"__init__", "__setattr__", "__delattr__", "_fields", "__dict__", "__weakref__"}
    installed |= {"__eq__", "__hash__"} if eq else set()
    installed |= {"__repr__"} if repr_ else set()
    specs = []
    for name in cls._fields:
        spec = (name, cls.__annotations__[name])
        if name in vars(cls):
            default = vars(cls)[name]
            if isinstance(default, field):
                default = dataclasses.field(default_factory=default.default_factory)
            spec += (default,)
        specs.append(spec)
    namespace = {k: v for k, v in vars(cls).items() if k not in installed and k not in cls._fields}
    return dataclasses.make_dataclass(
        cls.__name__, specs, bases=cls.__bases__, namespace=namespace, frozen=frozen, eq=eq, repr=repr_
    )


TWINS = {name: _twin(cls) for name, cls in RECORDS.items()}


def test_every_record_is_known_and_found():
    decorated = 0
    for path in SOURCE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                decorated += any(
                    isinstance(d, ast.Call) and getattr(d.func, "id", None) == "record" for d in node.decorator_list
                )
    assert sorted(RECORDS) == sorted(FLAGS)
    assert decorated == len(RECORDS) == 25


# ----------------------------------------------------------- field values

NAN = float("nan")  # one object, so a drawn value may hold it twice
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.sampled_from([0.0, -0.0, 1.0, NAN]), st.text("ab", max_size=2)
)
VALUES = st.recursive(SCALARS, lambda inner: st.tuples(inner, inner) | st.lists(inner, max_size=2), max_leaves=4)


def _samples() -> dict:
    """Valid instances of the records whose `__post_init__` checks its fields."""
    graphs = [rand_graph(random.Random(seed)) for seed in range(4)]
    labeled = [rand_labeled(random.Random(seed), algebra) for seed, algebra in enumerate((SIGN, NAT, S_RIG, RAT_MUL))]
    summed = [g for g in labeled if g.algebra in (SIGN, NAT, S_RIG)]
    instances = [
        *graphs,
        *labeled,
        *(mg.identity_morphism(g) for g in graphs),
        *(mg.AdditiveMorphism(mg.identity_morphism(g.graph), g, g) for g in summed),
        *(mg.kleisli_identity(g) for g in labeled),
        *(rand_open(random.Random(seed), SIGN, ("a",), ("b", "c")) for seed in range(3)),
        mg.identity_open(("p",), NAT),
        mg.Semiautomaton(("0", "1"), ("swap", "reset"), ((1, 0), (0, 0))),
        mg.Semiautomaton(("s",), (), ()),
        *mg.CATALOG.values(),
        SWAP_RESET,
        *map(mg.named_algebra, mg.BUILTIN_NAMES),
        mg.sign_hom(),
        mg.collapse_hom(SIGN),
        mg.collapse_hom(NAT),
        SimpleLoop((0,)),
        SimpleLoop((1, 2, 0)),
        EdgePath(0),
        EdgePath(1, (0, 2)),
        mg.ValidationReport("x"),
    ]
    samples = {}
    for x in instances:
        samples.setdefault(type(x).__name__, []).append(tuple(getattr(x, name) for name in x._fields))
    return samples


SAMPLES = _samples()


@st.composite
def field_values(draw, name: str) -> tuple:
    """Field values for the record `name`: a library object's, arbitrary
    ones, or a library object's with one field swapped for another's or an
    arbitrary value."""
    width, pool = len(RECORDS[name]._fields), SAMPLES.get(name, [])
    if pool and draw(st.booleans()):
        values = list(draw(st.sampled_from(pool)))
        if draw(st.booleans()):
            at = draw(st.integers(0, width - 1))
            values[at] = draw(st.sampled_from([other[at] for other in pool]) | VALUES)
        return tuple(values)
    return tuple(draw(VALUES) for _ in range(width))


@st.composite
def value_pairs(draw, name: str) -> tuple:
    """Two field-value tuples: the same, a deep copy, or drawn apart."""
    a = draw(field_values(name))
    how = draw(st.sampled_from(["same", "copy", "apart"]))
    return a, a if how == "same" else copy.deepcopy(a) if how == "copy" else draw(field_values(name))


def _outcome(fn):
    """What `fn()` returns, or the kind and text of what it raises.  A
    TypeError's text is left out, as a generated `__init__` words its own."""
    try:
        return "ok", fn()
    except AttributeError as e:
        return "raised", "AttributeError", str(e)
    except Exception as e:  # noqa: BLE001 - both sides must raise alike
        return "raised", type(e).__name__, None if isinstance(e, TypeError) else str(e)


def _built(name: str, values: tuple):
    """The record and its twin made from `values`, or None when both refuse
    them alike."""
    made = _outcome(lambda: RECORDS[name](*values)), _outcome(lambda: TWINS[name](*values))
    if "raised" in (made[0][0], made[1][0]):
        assert made[0] == made[1]
        return None
    return made[0][1], made[1][1]


# ------------------------------------------------------------------- tests


@pytest.mark.parametrize("name", sorted(FLAGS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_record_behaves_as_its_dataclass_twin(name, data):
    cls, twin = RECORDS[name], TWINS[name]
    a, b = data.draw(value_pairs(name))
    first, second = _built(name, a), _built(name, b)
    if first is None or second is None:
        return
    (r1, t1), (r2, t2) = first, second
    assert repr(r1) == repr(t1)
    assert _outcome(lambda: r1 == r2) == _outcome(lambda: t1 == t2)
    assert _outcome(lambda: r1 != r2) == _outcome(lambda: t1 != t2)
    assert _outcome(lambda: hash(r1)) == _outcome(lambda: hash(t1))
    # keyword arguments bind as positional ones do
    keywords = dict(zip(cls._fields, a))
    assert repr(cls(**keywords)) == repr(twin(**keywords)) == repr(r1)
    # too many arguments, too few, an unknown keyword or a repeated one
    required = [n for n in cls._fields if n not in vars(cls)]
    wrong = [(a + (None,), {}), (a, {"no_such_field": 1}), (a, {cls._fields[0]: a[0]})]
    for args, kwargs in wrong + ([(a[: len(required) - 1], {})] if required else []):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
        with pytest.raises(TypeError):
            twin(*args, **kwargs)


@pytest.mark.parametrize("name", sorted(FLAGS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_assigning_and_replacing_fields(name, data):
    cls, twin = RECORDS[name], TWINS[name]
    a, b = data.draw(value_pairs(name))
    if _built(name, a) is None:
        return
    at = data.draw(st.integers(0, len(a) - 1))
    field_name, frozen = cls._fields[at], FLAGS[name][0]
    r, t = cls(*a), twin(*a)
    for target in (field_name, "not_a_field"):
        assert _outcome(lambda: setattr(r, target, b[at])) == _outcome(lambda: setattr(t, target, b[at]))
        assert repr(r) == repr(t)
    if frozen:
        for obj in (r, t):
            with pytest.raises(AttributeError, match=f"cannot delete field '{field_name}'"):
                delattr(obj, field_name)
    else:
        # a record inside itself is written "..."
        setattr(r, field_name, [r])
        setattr(t, field_name, [t])
        assert repr(r) == repr(t)
    r, t = cls(*a), twin(*a)
    # `replace` makes a copy, equal where the dataclass's is, and takes or
    # refuses a change as the dataclass does
    copied, twin_copy = replace(r), dataclasses.replace(t)
    assert copied is not r and repr(copied) == repr(r)
    assert (copied == r, copied != r) == (twin_copy == t, twin_copy != t)
    changed = _outcome(lambda: repr(replace(r, **{field_name: b[at]})))
    assert changed == _outcome(lambda: repr(dataclasses.replace(t, **{field_name: b[at]})))
    with pytest.raises(TypeError):
        replace(r, no_such_field=1)


@pytest.mark.parametrize("name", sorted(n for n in FLAGS if hasattr(RECORDS[n], "__post_init__")))
def test_replace_runs_post_init_again(name):
    cls = RECORDS[name]
    original = cls(*SAMPLES[name][0])
    calls = []
    check = cls.__post_init__

    def counted(self):
        calls.append(self)
        check(self)

    with mock.patch.object(cls, "__post_init__", counted):
        copied = replace(original)
    assert len(calls) == 1 and calls[0] is copied


@pytest.mark.parametrize("name", sorted(FLAGS))
def test_fields_compare_as_a_tuple_does_identity_first(name):
    # NaN is not equal to itself, but a tuple holding it equals another
    # holding the same object; so do records, with one field or more
    values = (NAN,) * len(RECORDS[name]._fields)
    first, second = _built(name, values), _built(name, values)
    if first is not None:
        (r1, t1), (r2, t2) = first, second
        assert (r1 == r2, r1 != r2) == (t1 == t2, t1 != t2)


def test_a_default_factory_gives_each_instance_its_own_list():
    reports = [mg.ValidationReport("x"), mg.ValidationReport("x"), replace(mg.ValidationReport("x"))]
    assert [r.violations for r in reports] == [[]] * 3 and TWINS["ValidationReport"]("x").violations == []
    assert len({id(r.violations) for r in reports}) == 3
    reports[0].add("structure", "code", "text")
    assert reports[1].violations == [] and reports[0] != reports[1]
    assert mg.ValidationReport(subject="y", violations=[1]).violations == [1]


def test_frozen_records_raise_an_attribute_error_subclass():
    g = mg.graph(["a"], [(0, 0)])
    with pytest.raises(AttributeError, match="cannot assign to field 'edge_src'") as caught:
        g.edge_src = ()
    assert type(caught.value) is not AttributeError
    with pytest.raises(TypeError, match="unhashable"):
        hash(mg.ValidationReport("x"))
