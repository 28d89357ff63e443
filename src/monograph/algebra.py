"""Label algebras: the monoids, commutative monoids and rigs that edges
carry as polarities.

Finite algebras are explicit multiplication tables over named elements and
are verified exhaustively.  A handful of infinite algebras (naturals,
integers, exact rationals) ship as builtins with exact arithmetic; their
declared properties are smoke-checked on randomized samples because an
exhaustive check is impossible.

Element values are small integers (indices into ``elements``) for table
algebras, and ``int`` / ``fractions.Fraction`` values for builtins.  Every
algebra exposes the same interface:

* ``mul(a, b)`` / ``one`` -- the monoid operation used to grade paths.  For
  additive builtins such as ``NatAdd`` this single operation *is* addition.
* ``add(a, b)`` / ``zero`` -- the coefficient view: the commutative
  operation used for chain coefficients and additive morphisms.  A rig
  uses its own addition and zero; a commutative monoid reuses ``mul`` and
  ``one`` (so ``RatMulMonoid`` adds by its product, with zero 1); any
  other algebra has no coefficient view and raises ValueError.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction
from typing import Any, Callable, Optional, Union

from .validation import AXIOM, STRUCTURE, ValidationReport, _first_non_index, _is_index, record

Element = Any


@record(frozen=True)
class Flags:
    """Declared properties; `validate_algebra` / `is_cancellative` verify them."""

    commutative: bool = False
    cancellative: bool = False


class _CoefficientView:
    """``add`` and ``zero`` of the coefficient view, for both algebra kinds.

    `_coefficient_view` is asked once, at construction.  ``add`` becomes a
    plain instance attribute, so ``algebra.add(a, b)`` costs one call, like
    a method.  (Caching it later through ``__dict__`` would turn every
    attribute load of the instance into a slow dictionary lookup.)
    """

    def __post_init__(self):
        view = _coefficient_view(self)
        object.__setattr__(self, "_coefficients", view)
        object.__setattr__(self, "add", self._no_view if view is None else view[0])

    @property
    def zero(self) -> Element:
        if self._coefficients is None:
            self._no_view()
        return self._coefficients[1]

    def _no_view(self, *_):
        name = algebra_name(self) or "this algebra"
        raise ValueError(f"{name} has no coefficient view: it is neither a rig nor commutative")


@record(frozen=True)
class TableAlgebra(_CoefficientView):
    """A finite monoid or rig given by explicit row-major operation tables.

    ``mul_table[a * n + b]`` is the index of the product of elements ``a``
    and ``b``.  Rigs additionally carry ``add_table`` and ``zero_index``.
    """

    elements: tuple[str, ...]
    mul_table: tuple[int, ...]
    unit: int
    add_table: Optional[tuple[int, ...]] = None
    zero_index: Optional[int] = None
    flags: Flags = Flags()

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def is_rig(self) -> bool:
        return self.add_table is not None

    @property
    def one(self) -> int:
        return self.unit

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a * len(self.elements) + b]

    def _rig_add(self, a: int, b: int) -> int:
        return self.add_table[a * len(self.elements) + b]

    @property
    def _rig_zero(self) -> Optional[int]:
        return self.zero_index

    def contains(self, x: Element) -> bool:
        return _is_index(x, self.size)

    def label_text(self, x: int) -> str:
        return self.elements[x]

    def parse_label(self, value: Any) -> int:
        if isinstance(value, str) and value in self.elements:
            return self.elements.index(value)
        raise KeyError(f"{value!r} is not an element (expected one of {list(self.elements)})")

    def iter_elements(self):
        return range(self.size)


@record(frozen=True, eq=False, repr=False)
class BuiltinAlgebra(_CoefficientView):
    """An infinite algebra with exact arithmetic.

    Equality, hashing and repr go by ``builtin_id`` alone; the operations
    are carried along.  ``_rig_add``/``_rig_zero`` are a rig's own addition.
    ``cancellation_witness`` is a known (c, d, e) with c+e = d+e, c != d.
    """

    builtin_id: str
    mul: Callable[[Element, Element], Element]
    one: Element
    contains: Callable[[Any], bool]
    parse_label: Callable[[Any], Element]
    sample: Callable[[random.Random], Element]
    flags: Flags = Flags()
    _rig_add: Optional[Callable[[Element, Element], Element]] = None
    _rig_zero: Element = None
    cancellation_witness: Optional[tuple] = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.builtin_id == other.builtin_id

    def __hash__(self):
        return hash((self.builtin_id,))

    def __repr__(self):
        return f"BuiltinAlgebra(builtin_id={self.builtin_id!r})"

    @property
    def is_rig(self) -> bool:
        return self._rig_add is not None

    def label_text(self, x: Element) -> str:
        return str(x)


LabelAlgebra = Union[TableAlgebra, BuiltinAlgebra]


def _coefficient_view(
    algebra: LabelAlgebra,
) -> Optional[tuple[Callable[[Element, Element], Element], Element]]:
    """``(add, zero)`` of the commutative monoid that coefficients live in.

    A rig uses its own addition and zero; a commutative monoid reuses its one
    operation and unit; any other algebra has no coefficient view (None).
    """
    if algebra.is_rig:
        return algebra._rig_add, algebra._rig_zero
    if algebra.flags.commutative:
        return algebra.mul, algebra.one
    return None


def _int_only(v: Any) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise KeyError(f"{v!r} is not an integer label")
    return v


def _nat_only(v: Any) -> int:
    n = _int_only(v)
    if n < 0:
        raise KeyError(f"{v!r} is not a natural number label")
    return n


def _rat(v: Any) -> Fraction:
    if isinstance(v, bool) or not isinstance(v, (int, str, Fraction)):
        raise KeyError(f"{v!r} is not an exact rational label (use int or 'p/q' string)")
    # `Fraction` expands an exponent, at a cost that grows with its value
    if isinstance(v, str) and ("e" in v or "E" in v):
        raise KeyError(f"{v!r} is not an exact rational label")
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError) as exc:
        raise KeyError(f"{v!r} is not an exact rational label") from exc


def _is_nat(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_rat(x: Any) -> bool:
    return isinstance(x, Fraction) or _is_int(x)


def _raise_unknown(v: Any) -> Element:
    raise KeyError(f"{v!r} is not an element of this algebra")


_BUILTINS: dict[str, BuiltinAlgebra] = {
    b.builtin_id: b
    for b in (
        BuiltinAlgebra(
            "TrivialOne",
            mul=lambda a, b: 1,
            one=1,
            contains=lambda x: x == 1 and not isinstance(x, bool),
            parse_label=lambda v: 1 if v == "1" or _is_int(v) and v == 1 else _raise_unknown(v),
            sample=lambda rng: 1,
            flags=Flags(commutative=True, cancellative=True),
        ),
        BuiltinAlgebra(
            "NatAdd",
            mul=lambda a, b: a + b,
            one=0,
            contains=_is_nat,
            parse_label=_nat_only,
            sample=lambda rng: rng.randrange(0, 10**6),
            flags=Flags(commutative=True, cancellative=True),
        ),
        BuiltinAlgebra(
            "IntAdd",
            mul=lambda a, b: a + b,
            one=0,
            contains=_is_int,
            parse_label=_int_only,
            sample=lambda rng: rng.randrange(-(10**6), 10**6),
            flags=Flags(commutative=True, cancellative=True),
        ),
        BuiltinAlgebra(
            "RatAdd",
            mul=lambda a, b: Fraction(a) + Fraction(b),
            one=Fraction(0),
            contains=_is_rat,
            parse_label=_rat,
            sample=lambda rng: Fraction(rng.randrange(-999, 1000), rng.randrange(1, 100)),
            flags=Flags(commutative=True, cancellative=True),
        ),
        BuiltinAlgebra(
            "NatRig",
            mul=lambda a, b: a * b,
            one=1,
            contains=_is_nat,
            parse_label=_nat_only,
            sample=lambda rng: rng.randrange(0, 1000),
            flags=Flags(commutative=True, cancellative=True),
            _rig_add=lambda a, b: a + b,
            _rig_zero=0,
        ),
        BuiltinAlgebra(
            "RatMulMonoid",
            mul=lambda a, b: Fraction(a) * Fraction(b),
            one=Fraction(1),
            contains=_is_rat,
            parse_label=_rat,
            sample=lambda rng: Fraction(rng.randrange(-999, 1000), rng.randrange(1, 100)),
            flags=Flags(commutative=True, cancellative=False),
            cancellation_witness=(Fraction(1), Fraction(2), Fraction(0)),
        ),
    )
}


def _tabulate(n: int, op: Callable[[int, int], int]) -> tuple[int, ...]:
    """The row-major table of `op` on element indices 0..n-1."""
    return tuple(op(a, b) for a in range(n) for b in range(n))


def _flatten(table) -> tuple[int, ...]:
    if table and isinstance(table[0], (list, tuple)):
        return tuple(itertools.chain.from_iterable(table))
    return tuple(table)


def table_algebra(elements, mul, unit, add=None, zero=None, flags=Flags()) -> TableAlgebra:
    """Build a TableAlgebra from nested-list (or flat row-major) tables."""
    flat_add = None if add is None else _flatten(add)
    return TableAlgebra(tuple(elements), _flatten(mul), unit, flat_add, zero, flags)


# Standard finite algebras, in the element order they are usually tabulated.
def _catalog() -> dict[str, TableAlgebra]:
    group = Flags(commutative=True, cancellative=True)
    comm = Flags(commutative=True, cancellative=False)
    sign = table_algebra(["+", "-"], [[0, 1], [1, 0]], unit=0, flags=group)
    sign0 = table_algebra(
        ["+", "0", "-"], [[0, 1, 2], [1, 1, 1], [2, 1, 0]], unit=0, flags=comm
    )
    signi = table_algebra(
        ["I", "+", "0", "-"],
        [[0, 1, 2, 3], [1, 1, 2, 3], [2, 2, 2, 2], [3, 3, 2, 1]],
        unit=0,
        flags=comm,
    )
    boolean = table_algebra(
        ["0", "1"],
        mul=[[0, 0], [0, 1]],
        unit=1,
        add=[[0, 1], [1, 1]],
        zero=0,
        flags=comm,
    )
    # The four-polarity rig {1, 0, -1, i}: i is an indeterminate effect,
    # absorbed by everything except multiplication by 0.
    s_rig = table_algebra(
        ["1", "0", "-1", "i"],
        mul=[[0, 1, 2, 3], [1, 1, 1, 1], [2, 1, 0, 3], [3, 1, 3, 3]],
        unit=0,
        add=[[0, 0, 3, 3], [0, 1, 2, 3], [3, 2, 2, 3], [3, 3, 3, 3]],
        zero=1,
        flags=comm,
    )
    return {"SIGN": sign, "SIGN0": sign0, "SIGNI": signi, "BOOL": boolean, "S": s_rig}


CATALOG: dict[str, TableAlgebra] = _catalog()
BUILTIN_NAMES = tuple(_BUILTINS)


def named_algebra(name: str) -> LabelAlgebra:
    """Resolve an algebra name: a builtin id or a catalog table."""
    if name in _BUILTINS:
        return _BUILTINS[name]
    if name in CATALOG:
        return CATALOG[name]
    raise KeyError(f"unknown algebra name {name!r}")


def algebra_name(algebra: LabelAlgebra) -> Optional[str]:
    """Catalog or builtin name of `algebra`, if it has one."""
    if isinstance(algebra, BuiltinAlgebra):
        return algebra.builtin_id
    for name, entry in CATALOG.items():
        if entry == algebra:
            return name
    return None


def _fresh_name(taken, base: str) -> str:
    name = base
    while name in taken:
        name += "'"
    return name


def _witnesses(algebra: LabelAlgebra, arity: int, rng_seed: int, samples: int):
    """Argument tuples that laws are checked on: every `arity`-tuple of a
    table's elements, or each run of `arity` consecutive values of a
    builtin's seeded sample."""
    if isinstance(algebra, TableAlgebra):
        return itertools.product(algebra.iter_elements(), repeat=arity)
    return zip(*_sample_columns(algebra, arity, rng_seed, samples))


def _sample_columns(algebra: BuiltinAlgebra, arity: int, rng_seed: int, samples: int) -> tuple:
    """The i-th values of the runs of `arity` consecutive values of a
    builtin's seeded sample, for each i < `arity`."""
    rng = random.Random(rng_seed)
    draws = [algebra.sample(rng) for _ in range(samples)]
    return tuple(draws[i:] for i in range(arity))


class _Rows:
    """Both sides of a law, one block per case, for an operation given as a
    callable (a builtin's).  A case is one window of the seeded sample, and
    the columns ``xs``, ``ys``, ``zs`` hold the window's first, second and
    third values, so the maps below run over them in step and each block
    holds one value.  ``row``/``col`` are op(a, x)/op(x, a) over ``xs``;
    per case, ``pairs`` is op(x, y), ``flips`` op(y, x), ``thens``
    op(x, inner(y, z)), ``firsts`` op(inner(x, y), z), ``spreads``
    op(inner(x, y), inner(x, z)) and ``sums`` op(inner(x, z), inner(y, z))."""

    def __init__(self, op: Callable[[Element, Element], Element]):
        self.op = op

    def row(self, a, xs):
        return map(self.op, itertools.repeat(a), xs)

    def col(self, a, xs):
        return map(self.op, xs, itertools.repeat(a))

    def pairs(self, xs, ys):
        return zip(map(self.op, xs, ys))

    def flips(self, xs, ys):
        return zip(map(self.op, ys, xs))

    def thens(self, inner, xs, ys, zs):
        return zip(map(self.op, xs, map(inner.op, ys, zs)))

    def firsts(self, inner, xs, ys, zs):
        return zip(map(self.op, map(inner.op, xs, ys), zs))

    def spreads(self, inner, xs, ys, zs):
        return zip(map(self.op, map(inner.op, xs, ys), map(inner.op, xs, zs)))

    def sums(self, inner, xs, ys, zs):
        return zip(map(self.op, map(inner.op, xs, zs), map(inner.op, ys, zs)))


class _Table:
    """`_Rows` of a square row-major table.  A case fixes the first argument
    x, and its block covers every choice of the others, (y, z) in
    lexicographic order.  Each block takes a few C calls.  Up
    to 256 elements, rows and columns are ``bytes``: a gather is
    ``bytes.translate`` through a row padded to 256 bytes, and blocks are
    joined by ``b"".join``.  Past that they are tuples, and a gather is an
    item getter.  ``gets[x]`` picks from a sequence the items row x names."""

    def __init__(self, table: tuple):
        n = math.isqrt(len(table))
        # pick(indices, through) is through[i] for each i of indices
        if n <= 256:
            code, pad, self.pick, self.join = bytes, bytes(256 - n), bytes.translate, b"".join
        else:
            code, pad, self.join = tuple, (), lambda blocks: tuple(itertools.chain.from_iterable(blocks))
            self.pick = lambda indices, through: operator.itemgetter(*indices)(through)
        self.flat = code(table)
        self.rows = tuple(map(self.flat.__getitem__, map(slice, range(0, n * n, n), range(n, n * n + 1, n))))
        strides = tuple(map(slice, range(n), itertools.repeat(None), itertools.repeat(n)))
        self.cols = tuple(map(self.flat.__getitem__, strides))
        # the columns of a block, plus an empty slice, so never one bare column
        self.transpose = operator.itemgetter(*strides, slice(0, 0))
        self.trows = tuple(map(operator.add, self.rows, itertools.repeat(pad)))
        # over one index an item getter returns a bare value, not a tuple
        one = operator.itemgetter(slice(1))
        self.gets = tuple(itertools.starmap(operator.itemgetter, self.rows)) if n > 1 else (one,)

    def row(self, a, xs):
        return self.rows[a]

    def col(self, a, xs):
        return self.cols[a]

    def pairs(self, *_):
        return self.rows

    def flips(self, *_):
        return self.cols

    def thens(self, inner, *_):
        return map(self.pick, itertools.repeat(inner.flat), self.trows)

    def firsts(self, inner, *_):
        return (self.join(get(self.rows)) for get in inner.gets)

    def spreads(self, inner, *_):
        picks = zip(inner.rows, inner.gets)
        return (self.join(map(self.pick, itertools.repeat(xys), get(self.trows))) for xys, get in picks)

    def sums(self, inner, *_):
        # computed over (z, y), where each z is one pick, then transposed
        return (self.join(self.transpose(self.join(map(self.pick, inner.cols, get(self.trows))))) for get in inner.gets)


def validate_algebra(algebra: LabelAlgebra, rng_seed: int = 0, samples: int = 50) -> ValidationReport:
    """Check every declared axiom; structural defects are reported separately.

    Finite tables are checked exhaustively.  Builtins get a randomized
    smoke check with exact arithmetic.  The laws come in a fixed order: unit
    and associativity of mul, its commutativity if declared; for a rig the
    same for add (commutativity always), both distributive laws per triple
    and absorption; then cancellativity if declared.

    Each law is checked a block at a time.  For a table, a block fixes the
    law's first argument, x, and both sides are computed over every
    choice of the others in a few C calls over the table's rows
    and columns, held as ``bytes``: gathers by ``bytes.translate``, joins
    by ``b"".join``.  So a law costs n interpreter steps.  ``bytes`` index
    at most 256 elements; larger tables hold tuples, gathered by item
    getters.  For a builtin, a block is one window of consecutive values
    of its seeded sample.  Only a block whose sides differ is scanned, so
    witnesses come in lexicographic order, the two distributive laws of
    one triple left first.
    """
    if isinstance(algebra, TableAlgebra):
        report = _table_structure(algebra)
        if not report.ok:
            return report  # axiom checks need a well-formed table
        every = tuple(range(algebra.size))

        def columns(arity: int):
            return (every,) * arity

        def cases(arity: int):
            return zip(zip(every), itertools.repeat(columns(arity - 1)))

        M = _Table(algebra.mul_table)
        A = algebra.is_rig and _Table(algebra.add_table)
    else:
        report = ValidationReport(subject=f"builtin algebra {algebra.builtin_id}")

        def columns(arity: int):
            return _sample_columns(algebra, arity, rng_seed, samples)

        def cases(arity: int):
            return ((w[:1], tuple(zip(w[1:]))) for w in _witnesses(algebra, arity, rng_seed, samples))

        M = _Rows(algebra.mul)
        A = algebra.is_rig and _Rows(algebra.add)
    t = algebra.label_text

    def holds(arity: int, sides) -> bool:
        lhs, rhs = sides(*columns(arity))
        return all(map(operator.eq, zip(*lhs), zip(*rhs)))

    def check(arity: int, sides, *clauses) -> bool:
        """Compare, case by case, the blocks ``sides(*columns(arity))``
        gives for each clause ``(code, message)`` of a law; where they
        differ, report each witness whose message is not empty.  True when
        no block differs."""
        if holds(arity, sides):
            return True
        lhs, rhs = sides(*columns(arity))
        for (prefix, rest), l, r in zip(cases(arity), zip(*lhs), zip(*rhs)):
            if l != r:
                found = []
                for c, (lb, rb) in enumerate(zip(l, r)):
                    found += zip(itertools.compress(itertools.count(), map(operator.ne, lb, rb)), itertools.repeat(c))
                for i, c in sorted(found):
                    args = ()
                    for col in reversed(rest):  # the i-th tuple of product(*rest)
                        i, j = divmod(i, len(col))
                        args = (col[j], *args)
                    code, message = clauses[c]
                    if text := message(*prefix, *args):
                        report.add(AXIOM, code, text, (*prefix, *args))
        return False

    def monoid(P, unit, label: str) -> None:
        check(
            1,
            lambda xs: ((zip(zip(P.row(unit, xs), P.col(unit, xs))),), (zip(zip(xs, xs)),)),
            ("unit", lambda x: f"{label}: {t(unit)} is not a unit at {t(x)}"),
        )
        check(
            3,
            lambda *xyz: ((P.firsts(P, *xyz),), (P.thens(P, *xyz),)),
            ("associativity", lambda x, y, z: f"{label}: ({t(x)}*{t(y)})*{t(z)} != {t(x)}*({t(y)}*{t(z)})"),
        )

    def commutativity(P, label: str, sign: str) -> bool:
        return check(
            2,
            lambda *xy: ((P.pairs(*xy),), (P.flips(*xy),)),
            # each unordered pair once
            ("commutativity", lambda x, y: x < y and f"{label}: {t(x)}{sign}{t(y)} != {t(y)}{sign}{t(x)}"),
        )

    monoid(M, algebra.one, "mul")
    # on a table, a commutative mul makes right distributivity follow from
    # left: (r+s)*u = u*(r+s) = u*r + u*s = r*u + s*u
    right_from_left = algebra.flags.commutative and commutativity(M, "mul", "*") and isinstance(M, _Table)
    if algebra.is_rig:
        zero = algebra.zero
        monoid(A, zero, "add")
        # rig addition is commutative by definition, whatever the flags say
        commutativity(A, "add", "+")
        if not (right_from_left and holds(3, lambda *rsu: ((M.thens(A, *rsu),), (A.spreads(M, *rsu),)))):
            check(
                3,
                lambda *rsu: (
                    (M.thens(A, *rsu), M.firsts(A, *rsu)),
                    (A.spreads(M, *rsu), A.sums(M, *rsu)),
                ),
                ("distributivity-left", lambda r, s, u: f"{t(r)}*({t(s)}+{t(u)}) != {t(r)}*{t(s)} + {t(r)}*{t(u)}"),
                ("distributivity-right", lambda r, s, u: f"({t(r)}+{t(s)})*{t(u)} != {t(r)}*{t(u)} + {t(s)}*{t(u)}"),
            )
        check(
            1,
            lambda xs: ((zip(zip(M.row(zero, xs), M.col(zero, xs))),), (zip(((zero, zero),) * len(xs)),)),
            ("absorption", lambda x: f"0*{t(x)} or {t(x)}*0 is not 0"),
        )

    if algebra.flags.cancellative and _coefficient_view(algebra) is None:
        report.add(AXIOM, "cancellativity", "declared cancellative, but neither a rig nor commutative")
    elif algebra.flags.cancellative:
        ok, witness = is_cancellative(algebra)
        if not ok:
            c, d, e = witness
            report.add(
                AXIOM,
                "cancellativity",
                f"{t(c)}+{t(e)} = {t(d)}+{t(e)} but {t(c)} != {t(d)}",
                witness,
            )
    return report


def _table_structure(a: TableAlgebra) -> ValidationReport:
    report = ValidationReport(subject="finite-table algebra")
    n = a.size
    if n == 0:
        report.add(STRUCTURE, "empty", "algebra has no elements")
        return report
    if len(set(a.elements)) != n:
        report.add(STRUCTURE, "duplicate-names", "element names are not distinct")
    tables = [("mul", a.mul_table)]
    if a.add_table is not None:
        tables.append(("add", a.add_table))
    for label, table in tables:
        if len(table) != n * n:
            report.add(
                STRUCTURE,
                "non-square",
                f"{label} table has {len(table)} entries, expected {n * n}",
            )
        elif (bad := _first_non_index(table, n)) is not None:
            report.add(STRUCTURE, "out-of-range", f"{label} table entry {table[bad]!r} is not an element index")
    if not a.contains(a.unit):
        report.add(STRUCTURE, "out-of-range", f"unit index {a.unit!r} is not an element index")
    if a.add_table is not None and not a.contains(a.zero_index):
        report.add(STRUCTURE, "out-of-range", f"zero index {a.zero_index!r} is not an element index")
    if a.add_table is None and a.zero_index is not None:
        report.add(STRUCTURE, "zero-without-add", "zero declared but no addition table")
    return report


def is_cancellative(algebra: LabelAlgebra):
    """Decide c + e = d + e  =>  c = d for the coefficient view.

    Returns ``(True, None)`` or ``(False, (c, d, e))`` with a witness triple.
    Finite tables are searched exhaustively, a column of the table at a
    time; builtins have known answers.  Raises ValueError when the algebra
    has no coefficient view.
    """
    if _coefficient_view(algebra) is None:
        algebra._no_view()
    if isinstance(algebra, BuiltinAlgebra):
        witness = algebra.cancellation_witness
        return (witness is None, witness)
    n = algebra.size
    table = algebra.add_table if algebra.is_rig else algebra.mul_table  # the view's addition
    for e in range(n):
        column = table[e::n]  # c + e for each c
        if len(set(column)) < n:
            first: dict[int, int] = {}
            for d, value in enumerate(column):
                c = first.setdefault(value, d)
                if c != d:
                    return False, (c, d, e)
    return True, None


def adjoin_zero(algebra: TableAlgebra) -> TableAlgebra:
    """Extend a finite monoid with a new absorbing element."""
    _require_plain_table(algebra, "adjoin_zero")
    n = algebra.size
    name = _fresh_name(algebra.elements, "0")
    table = _tabulate(n + 1, lambda a, b: algebra.mul(a, b) if a < n and b < n else n)
    flags = Flags(commutative=algebra.flags.commutative, cancellative=False)
    return TableAlgebra(algebra.elements + (name,), table, algebra.unit, flags=flags)


def adjoin_identity(algebra: TableAlgebra) -> TableAlgebra:
    """Extend a finite monoid with a new identity; the old unit keeps its products."""
    _require_plain_table(algebra, "adjoin_identity")
    n = algebra.size
    name = _fresh_name(algebra.elements, "I")
    table = _tabulate(n + 1, lambda a, b: b if a == n else a if b == n else algebra.mul(a, b))
    flags = Flags(commutative=algebra.flags.commutative, cancellative=False)
    return TableAlgebra(algebra.elements + (name,), table, unit=n, flags=flags)


def product_algebra(left: TableAlgebra, right: TableAlgebra) -> TableAlgebra:
    """Componentwise product of two finite algebras; elements are named "(a,b)"."""
    if not isinstance(left, TableAlgebra) or not isinstance(right, TableAlgebra):
        raise ValueError("product_algebra needs two finite-table algebras")
    nl, nr = left.size, right.size
    names = tuple(f"({a},{b})" for a in left.elements for b in right.elements)

    def pair(i: int, j: int) -> int:
        return i * nr + j

    def componentwise(op_l, op_r):
        return _tabulate(nl * nr, lambda x, y: pair(op_l(x // nr, y // nr), op_r(x % nr, y % nr)))

    mul = componentwise(left.mul, right.mul)
    add = zero = None
    if left.is_rig and right.is_rig:
        add = componentwise(left.add, right.add)
        zero = pair(left.zero_index, right.zero_index)
    flags = Flags(
        commutative=left.flags.commutative and right.flags.commutative,
        cancellative=left.flags.cancellative and right.flags.cancellative,
    )
    return TableAlgebra(names, mul, pair(left.unit, right.unit), add, zero, flags)


POWER_RIG_LIMIT = 5


def power_rig(algebra: TableAlgebra) -> TableAlgebra:
    """The rig of subsets of a finite monoid: union as addition, elementwise
    products as multiplication.  Subsets are encoded as bitmasks over the
    element order, so the zero (empty set) is element 0.
    """
    _require_plain_table(algebra, "power_rig")
    n = algebra.size
    if n > POWER_RIG_LIMIT:
        raise ValueError(f"power_rig limited to {POWER_RIG_LIMIT} base elements, got {n}")
    members = [[i for i in range(n) if mask >> i & 1] for mask in range(1 << n)]
    names = tuple("{" + ",".join(algebra.elements[i] for i in m) + "}" for m in members)

    def times(x: int, y: int) -> int:
        out = 0
        for i in members[x]:
            for j in members[y]:
                out |= 1 << algebra.mul(i, j)
        return out

    mul = _tabulate(1 << n, times)
    add = _tabulate(1 << n, operator.or_)
    flags = Flags(commutative=algebra.flags.commutative, cancellative=False)
    return TableAlgebra(names, mul, unit=1 << algebra.unit, add_table=add, zero_index=0, flags=flags)


def _require_plain_table(algebra, op_name: str) -> None:
    if not isinstance(algebra, TableAlgebra):
        raise ValueError(f"{op_name} only supports finite-table algebras")
    if algebra.is_rig:
        raise ValueError(f"{op_name} acts on plain monoids, not rigs")


@record(frozen=True)
class MonoidHom:
    """A map between label algebras, checkable as a homomorphism.

    ``mapping`` lists the image of every element of a finite source;
    ``fn`` implements maps out of a builtin source.  ``respects`` declares
    which structure the map preserves: "mul", "add", or both.
    """

    source: LabelAlgebra
    target: LabelAlgebra
    mapping: Optional[tuple] = None
    fn: Optional[Callable[[Element], Element]] = None
    name: str = ""
    respects: tuple[str, ...] = ("mul",)

    def __post_init__(self):
        if (self.mapping is None) == (self.fn is None):
            raise ValueError("exactly one of mapping/fn must be given")
        if self.mapping is not None and not isinstance(self.source, TableAlgebra):
            raise ValueError("element mappings need a finite source")
        if self.mapping is not None and len(self.mapping) != self.source.size:
            raise ValueError(
                f"mapping lists {len(self.mapping)} image(s) for {self.source.size} source element(s)"
            )


def apply_hom(hom: MonoidHom, x: Element) -> Element:
    if not hom.source.contains(x):
        raise KeyError(f"{x!r} is not in the hom's source algebra")
    if hom.mapping is not None:
        return hom.mapping[x]
    return hom.fn(x)


def validate_hom(hom: MonoidHom, rng_seed: int = 0, samples: int = 50) -> ValidationReport:
    """Check the homomorphism laws for every declared operation.

    Exhaustive over finite sources; randomized smoke check otherwise.
    """
    report = ValidationReport(subject=f"hom {hom.name or '(anonymous)'}")
    src, dst = hom.source, hom.target
    for (x,) in _witnesses(src, 1, rng_seed, samples):
        if not dst.contains(apply_hom(hom, x)):
            report.add(STRUCTURE, "out-of-target", f"image of {src.label_text(x)} is not in the target")
            return report
    if "mul" in hom.respects:
        if apply_hom(hom, src.one) != dst.one:
            report.add(AXIOM, "unit", "unit is not sent to the unit", (src.one,))
    if "add" in hom.respects:
        if apply_hom(hom, src.zero) != dst.zero:
            report.add(AXIOM, "zero", "zero is not sent to the zero", (src.zero,))
    for a, b in _witnesses(src, 2, rng_seed, samples):
        if "mul" in hom.respects:
            if apply_hom(hom, src.mul(a, b)) != dst.mul(apply_hom(hom, a), apply_hom(hom, b)):
                report.add(
                    AXIOM,
                    "multiplicativity",
                    f"image of {src.label_text(a)}*{src.label_text(b)} is not the product of images",
                    (a, b),
                )
        if "add" in hom.respects:
            if apply_hom(hom, src.add(a, b)) != dst.add(apply_hom(hom, a), apply_hom(hom, b)):
                report.add(
                    AXIOM,
                    "additivity",
                    f"image of {src.label_text(a)}+{src.label_text(b)} is not the sum of images",
                    (a, b),
                )
    return report


def compose_homs(outer: MonoidHom, inner: MonoidHom) -> MonoidHom:
    if inner.target != outer.source:
        raise ValueError("homs do not compose: target/source mismatch")
    respects = tuple(r for r in inner.respects if r in outer.respects)
    name = f"{outer.name or '?'} . {inner.name or '?'}"
    if inner.mapping is not None:
        mapping = tuple(apply_hom(outer, y) for y in inner.mapping)
        return MonoidHom(inner.source, outer.target, mapping=mapping, name=name, respects=respects)
    return MonoidHom(
        inner.source,
        outer.target,
        fn=lambda x: apply_hom(outer, apply_hom(inner, x)),
        name=name,
        respects=respects,
    )


def sign_hom() -> MonoidHom:
    """Exact rationals under multiplication to {+, 0, -}: keep only the sign."""
    sign0 = CATALOG["SIGN0"]

    def to_sign(q: Fraction) -> int:
        q = Fraction(q)
        if q > 0:
            return 0
        if q == 0:
            return 1
        return 2

    return MonoidHom(_BUILTINS["RatMulMonoid"], sign0, fn=to_sign, name="sign")


def sign_section() -> MonoidHom:
    """Default quantitative reading of {+, 0, -}: a right inverse of `sign_hom`."""
    sign0 = CATALOG["SIGN0"]
    return MonoidHom(
        sign0,
        _BUILTINS["RatMulMonoid"],
        mapping=(Fraction(1), Fraction(0), Fraction(-1)),
        name="sign-section",
    )


def collapse_hom(source: LabelAlgebra) -> MonoidHom:
    """The unique map to the one-element algebra; discards the labeling."""
    trivial = _BUILTINS["TrivialOne"]
    if isinstance(source, TableAlgebra):
        return MonoidHom(source, trivial, mapping=(1,) * source.size, name="collapse")
    return MonoidHom(source, trivial, fn=lambda x: 1, name="collapse")
