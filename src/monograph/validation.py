"""The record decorator every data class in the package uses, structured
validation reports shared by the algebra and graph checkers, the message of
a search that ran past its guard, and the one search over assignments that
the cycle, motif and isomorphism searches share."""

from __future__ import annotations

import operator
import reprlib

STRUCTURE = "structure"
AXIOM = "axiom"


class FrozenRecordError(AttributeError):
    """A field of a frozen record was assigned or deleted."""


class field:
    """A field default made afresh for each instance by `default_factory()`."""

    def __init__(self, *, default_factory):
        self.default_factory = default_factory


def record(*, frozen=False, eq=True, repr=True):
    """`dataclasses.dataclass` with the same flags and methods, minus the
    generated code: the fields are the class's own annotations, in order,
    and a default is the class attribute of that name (or a `field`)."""

    def decorate(cls):
        names = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
        n, post_init, put = len(names), hasattr(cls, "__post_init__"), object.__setattr__
        get = operator.attrgetter(*names)
        key = get if n > 1 else lambda self: (get(self),)  # the tuple dataclasses compare and hash
        # equal when `key` is, once the classes match, and built in C for one field too
        same = get if n > 1 else operator.attrgetter(*names, "__class__")

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != n:  # all positional is the fast path
                args = _bind(cls, defaults, args, kwargs)
            for name, value in zip(names, args):
                put(self, name, value)  # never through `__dict__` (see `Graph`)
            if post_init:
                self.__post_init__()

        cls.__init__ = __init__
        if repr:
            text = lambda self: f"{self.__class__.__qualname__}({', '.join(map('{}={!r}'.format, names, key(self)))})"
            cls.__repr__ = reprlib.recursive_repr()(text)  # "..." for a record inside itself
        if eq:
            cls.__eq__ = lambda self, other: same(self) == same(other) if other.__class__ is self.__class__ else NotImplemented
            cls.__hash__ = (lambda self: hash(key(self))) if frozen else None
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _frozen
        return cls

    return decorate


def _frozen(self, name, *value):
    raise FrozenRecordError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _bind(cls, defaults: dict, args: tuple, kwargs: dict) -> list:
    """The field values of a call with keywords, defaults or a wrong count;
    `kwargs` is the call's own dict, and loses the keywords it binds."""
    values = list(args)
    for name in cls._fields[len(args) :]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in defaults:
            default = defaults[name]
            values.append(default.default_factory() if isinstance(default, field) else default)
    if len(values) != len(cls._fields) or kwargs:
        raise TypeError(f"{cls.__name__}() takes the fields {cls._fields}, not {len(args)} positional and {sorted(kwargs)}")
    return values


def replace(obj, **changes):
    """A copy of the record `obj` with some fields changed; `__post_init__` runs again."""
    return obj.__class__(*[changes.pop(name) if name in changes else getattr(obj, name) for name in obj._fields], **changes)


@record(frozen=True)
class Violation:
    """One failed check: `kind` separates malformed data from broken laws."""

    kind: str  # STRUCTURE or AXIOM
    code: str  # e.g. "associativity", "unit", "non-square"
    message: str
    witness: tuple = ()


@record()
class ValidationReport:
    subject: str
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, code: str, message: str, witness: tuple = ()) -> None:
        self.violations.append(Violation(kind, code, message, witness))

    def summary(self) -> str:
        if self.ok:
            return f"{self.subject}: ok"
        lines = [f"{self.subject}: {len(self.violations)} violation(s)"]
        lines += [f"  [{v.kind}/{v.code}] {v.message}" for v in self.violations]
        return "\n".join(lines)


def _over_guard(space: str, allowed: int) -> str:
    """`space` against the guard `allowed`, spelt in digits or as a power
    of ten, whichever is shorter: 5000 stays 5000, 1000000 is 10^6 and
    2000000 is 2*10^6."""
    digits = str(allowed)
    head = digits.rstrip("0")
    power = ("" if head == "1" else head + "*") + f"10^{len(digits) - len(head)}"
    return f"{space} > guard {min(digits, power, key=len)}"


def _assignments(k: int, extend):
    """Each assignment of values to levels 0..k-1, depth first.
    `extend(level, assignment)` iterates the values that fit at `level`,
    the earlier levels placed; the one list is yielded, reused, whenever
    all `k` are (once when `k` is 0).  No call recurses."""
    assignment = [None] * k
    untried = [extend(0, assignment)] if k else []  # per level being placed, the values left to try
    if not k:
        yield assignment
    while untried:
        level = len(untried) - 1
        for assignment[level] in untried[-1]:
            if level + 1 == k:
                yield assignment
            else:
                untried.append(extend(level + 1, assignment))
                break
        else:
            untried.pop()
