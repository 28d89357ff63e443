"""Label algebra construction, validation, and homomorphisms."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monograph as mg
from monograph.validation import AXIOM, STRUCTURE, Violation, replace

from helpers import (
    BOOL,
    NAT,
    S_RIG,
    SIGN,
    SIGN0,
    SIGNI,
    TRIVIAL,
    broken_product_rig,
    oracle_is_cancellative,
    oracle_validate_algebra,
)


def cyclic_group(n: int) -> mg.TableAlgebra:
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return mg.table_algebra(
        [str(i) for i in range(n)], table, unit=0, flags=mg.Flags(commutative=True, cancellative=True)
    )


def truncated_add(cap: int) -> mg.TableAlgebra:
    """Addition saturating at `cap`: commutative but not cancellative."""
    table = [[min(a + b, cap) for b in range(cap + 1)] for a in range(cap + 1)]
    return mg.table_algebra(
        [str(i) for i in range(cap + 1)], table, unit=0, flags=mg.Flags(commutative=True)
    )


class TestValidateAlgebra:
    @pytest.mark.parametrize("name", ["SIGN", "SIGN0", "SIGNI", "BOOL", "S"])
    def test_catalog_tables_pass_with_declared_flags(self, name):
        assert mg.validate_algebra(mg.CATALOG[name]).ok

    @pytest.mark.parametrize("name", mg.BUILTIN_NAMES)
    def test_builtins_pass_smoke_checks(self, name):
        assert mg.validate_algebra(mg.named_algebra(name)).ok

    def test_trivial_one_multiplies_to_itself(self):
        assert TRIVIAL.mul(1, 1) == 1

    def test_commutativity_violation_is_located(self):
        # +*- = + but -*+ = -, declared commutative
        bad = mg.table_algebra(["+", "-"], [[0, 0], [1, 0]], unit=0, flags=mg.Flags(commutative=True))
        report = mg.validate_algebra(bad)
        violations = [v for v in report.violations if v.code == "commutativity"]
        assert violations and violations[0].witness == (0, 1)

    def test_associativity_violation_reports_triple(self):
        bad = mg.table_algebra(["1", "a", "b"], [[0, 1, 2], [1, 2, 2], [2, 2, 1]], unit=0)
        report = mg.validate_algebra(bad)
        assert any(v.code == "associativity" and v.kind == AXIOM for v in report.violations)

    def test_non_square_table_is_structural_not_axiomatic(self):
        bad = mg.TableAlgebra(("a", "b"), (0, 1, 1), unit=0)
        report = mg.validate_algebra(bad)
        assert not report.ok
        assert all(v.kind == STRUCTURE for v in report.violations)
        assert any(v.code == "non-square" for v in report.violations)

    def test_out_of_range_entry_is_structural(self):
        bad = mg.TableAlgebra(("a", "b"), (0, 1, 1, 5), unit=0)
        report = mg.validate_algebra(bad)
        assert any(v.code == "out-of-range" and v.kind == STRUCTURE for v in report.violations)

    @pytest.mark.parametrize(
        "algebra",
        [
            mg.TableAlgebra(("0", "1"), (False, False, False, True), True),
            mg.TableAlgebra(("0", "1"), (0, 0, 0, 1), True),
            mg.TableAlgebra(("0", "1"), (0, 0, 0, 1), 1, (0, 1, 1, 1), False),
        ],
        ids=["table-and-unit", "unit", "zero"],
    )
    def test_a_bool_is_not_an_element_index(self, algebra):
        report = mg.validate_algebra(algebra)
        assert not report.ok and not algebra.contains(True)
        assert {v.code for v in report.violations} == {"out-of-range"}
        assert report.violations == oracle_validate_algebra(algebra).violations

    def test_declared_cancellative_is_checked(self):
        bad = mg.table_algebra(
            ["0", "1"], [[0, 1], [1, 1]], unit=0, flags=mg.Flags(commutative=True, cancellative=True)
        )
        report = mg.validate_algebra(bad)
        assert any(v.code == "cancellativity" for v in report.violations)

    def test_cancellative_without_a_coefficient_view_is_a_violation(self):
        # a lawful non-commutative monoid (identity plus two left zeros)
        bad = mg.table_algebra(
            ["1", "a", "b"], [[0, 1, 2], [1, 1, 1], [2, 2, 2]], unit=0, flags=mg.Flags(cancellative=True)
        )
        assert [v.code for v in mg.validate_algebra(bad).violations] == ["cancellativity"]

    def test_broken_rig_table_reports_every_law_in_order(self):
        # S with 0*i = i (was 0) and 1+0 = i (was 1), declared cancellative
        mul = list(S_RIG.mul_table)
        mul[1 * 4 + 3] = 3
        add = list(S_RIG.add_table)
        add[0 * 4 + 1] = 3
        flags = mg.Flags(commutative=True, cancellative=True)
        bad = mg.TableAlgebra(S_RIG.elements, tuple(mul), S_RIG.unit, tuple(add), S_RIG.zero_index, flags)
        report = mg.validate_algebra(bad)
        assert [v.code for v in report.violations] == [
            "commutativity",
            "unit",
            "associativity",
            "commutativity",
            "distributivity-right",
            "distributivity-left",
            "distributivity-left",
            "distributivity-left",
            "distributivity-left",
            "distributivity-right",
            "distributivity-left",
            "absorption",
            "cancellativity",
        ]
        assert [v.message for v in report.violations[:4]] == [
            "mul: 0*i != i*0",
            "add: 0 is not a unit at 1",
            "add: (1*0)*1 != 1*(0*1)",
            "add: 1+0 != 0+1",
        ]

    @pytest.mark.parametrize(
        "broken, codes",
        [
            # products of two elements above 1 gain 1
            (
                {"mul": lambda a, b: a * b + (a > 1 and b > 1)},
                ["associativity", "distributivity-left", "distributivity-right"],
            ),
            ({"_rig_add": lambda a, b: a + 2 * b}, ["unit", "associativity", "commutativity"]),
        ],
    )
    def test_broken_builtin_record_is_caught(self, broken, codes):
        nat_rig = mg.named_algebra("NatRig")
        bad = replace(nat_rig, **broken)
        assert bad == nat_rig and hash(bad) == hash(nat_rig)  # equal by builtin_id alone
        found = [v.code for v in mg.validate_algebra(bad).violations]
        # every failing law is found, and the laws come in their stated order
        assert list(dict.fromkeys(found)) == codes


class TestCancellativity:
    def test_nat_add_is_cancellative(self):
        assert mg.is_cancellative(NAT) == (True, None)

    def test_boolean_rig_addition_is_not(self):
        ok, witness = mg.is_cancellative(BOOL)
        assert not ok
        c, d, e = witness
        assert c != d and BOOL.add(c, e) == BOOL.add(d, e)
        assert witness == (0, 1, 1)

    def test_sign_group_is_cancellative(self):
        assert mg.is_cancellative(SIGN) == (True, None)

    def test_rat_mul_monoid_witness_rechecks(self):
        rat = mg.named_algebra("RatMulMonoid")
        ok, (c, d, e) = mg.is_cancellative(rat)
        assert (c, d, e) == (1, 2, 0)
        assert not ok and c != d and rat.add(c, e) == rat.add(d, e)

    def test_noncommutative_monoid_has_no_coefficient_view(self):
        left_zeros = mg.table_algebra(["1", "a", "b"], [[0, 1, 2], [1, 1, 1], [2, 2, 2]], unit=0)
        with pytest.raises(ValueError):
            mg.is_cancellative(left_zeros)
        with pytest.raises(ValueError):
            left_zeros.zero

    def test_s_rig_addition_witness_rechecks(self):
        ok, (c, d, e) = mg.is_cancellative(S_RIG)
        assert not ok and c != d and S_RIG.add(c, e) == S_RIG.add(d, e)


class TestCoefficientView:
    def test_rat_mul_monoid_adds_by_its_product(self):
        rat = mg.named_algebra("RatMulMonoid")
        assert rat.zero == 1
        for a, b in [(Fraction(2, 3), Fraction(-3)), (Fraction(0), 5), (Fraction(-1), -2)]:
            assert rat.add(a, b) == rat.mul(a, b)

    def test_rigs_use_their_own_addition(self):
        nat_rig = mg.named_algebra("NatRig")
        assert nat_rig.zero == 0 and nat_rig.add(2, 3) == 5
        assert BOOL.zero == BOOL.zero_index and BOOL.add(1, 1) == 1

    def test_commutative_monoids_reuse_their_operation(self):
        assert SIGN.zero == SIGN.unit and SIGN.add(1, 1) == SIGN.mul(1, 1)
        assert NAT.zero == 0 and NAT.add(2, 3) == 5


def tables_agree(a: mg.TableAlgebra, b: mg.TableAlgebra, names: dict[str, str]) -> bool:
    """Compare two tables under an element-name bijection."""
    to_b = {a.elements.index(x): b.elements.index(y) for x, y in names.items()}
    if to_b[a.unit] != b.unit:
        return False
    return all(
        to_b[a.mul(x, y)] == b.mul(to_b[x], to_b[y])
        for x in range(a.size)
        for y in range(a.size)
    )


class TestAdjoinZero:
    def test_sign_gains_an_absorbing_element(self):
        out = mg.adjoin_zero(SIGN)
        assert mg.validate_algebra(out).ok
        assert tables_agree(out, SIGN0, {"+": "+", "-": "-", "0": "0"})

    def test_trivial_one_becomes_two_elements(self):
        trivial_table = mg.table_algebra(["1"], [[0]], unit=0, flags=mg.Flags(commutative=True))
        out = mg.adjoin_zero(trivial_table)
        assert out.size == 2
        assert mg.validate_algebra(out).ok
        zero = out.elements.index("0")
        assert out.mul(zero, out.unit) == zero

    def test_twice_gives_two_layered_absorbers(self):
        out = mg.adjoin_zero(mg.adjoin_zero(SIGN))
        assert out.size == 4
        assert mg.validate_algebra(out).ok
        first, second = out.elements.index("0"), out.elements.index("0'")
        # the newest zero absorbs everything, including the older one
        assert all(out.mul(second, x) == second for x in range(4))
        assert all(out.mul(first, x) == first for x in range(4) if x != second)
        assert out.mul(first, second) == second

    def test_original_monoid_embeds(self):
        out = mg.adjoin_zero(SIGN)
        for x in range(SIGN.size):
            for y in range(SIGN.size):
                assert out.mul(x, y) == SIGN.mul(x, y)

    def test_rejects_builtins(self):
        with pytest.raises(ValueError):
            mg.adjoin_zero(NAT)


class TestAdjoinIdentity:
    def test_sign_matches_the_three_element_table(self):
        out = mg.adjoin_identity(SIGN)
        expected = mg.table_algebra(
            ["I", "+", "-"], [[0, 1, 2], [1, 1, 2], [2, 2, 1]], unit=0, flags=mg.Flags(commutative=True)
        )
        assert mg.validate_algebra(out).ok
        assert tables_agree(out, expected, {"I": "I", "+": "+", "-": "-"})

    def test_sign0_matches_the_four_element_table(self):
        out = mg.adjoin_identity(mg.adjoin_zero(SIGN))
        assert mg.validate_algebra(out).ok
        assert tables_agree(out, SIGNI, {"I": "I", "+": "+", "0": "0", "-": "-"})

    def test_trivial_one_keeps_its_old_unit_products(self):
        out = mg.adjoin_identity(mg.table_algebra(["1"], [[0]], unit=0, flags=mg.Flags(commutative=True)))
        assert out.size == 2
        one, new = out.elements.index("1"), out.elements.index("I")
        assert out.mul(new, one) == one and out.mul(one, one) == one
        assert out.unit == new


class TestProductAlgebra:
    def test_sign_squared_is_klein_four(self):
        out = mg.product_algebra(SIGN, SIGN)
        assert out.size == 4
        assert mg.validate_algebra(out).ok
        assert all(out.mul(x, x) == out.unit for x in range(4))

    def test_unit_law_of_products(self):
        trivial_table = mg.table_algebra(["1"], [[0]], unit=0, flags=mg.Flags(commutative=True, cancellative=True))
        out = mg.product_algebra(trivial_table, SIGN)
        assert tables_agree(out, SIGN, {"(1,+)": "+", "(1,-)": "-"})

    def test_sign_times_bool_mult_has_an_absorbing_ideal(self):
        bool_mult = mg.table_algebra(["0", "1"], [[0, 0], [0, 1]], unit=1, flags=mg.Flags(commutative=True))
        out = mg.product_algebra(SIGN, bool_mult)
        assert out.size == 4 and mg.validate_algebra(out).ok
        # no single element absorbs, but the pairs with boolean part 0 form
        # the unique minimal absorbing class
        absorbing = [z for z in range(4) if all(out.mul(z, x) == z for x in range(4))]
        assert absorbing == []
        ideal = {out.elements.index("(+,0)"), out.elements.index("(-,0)")}
        assert all(out.mul(z, x) in ideal for z in ideal for x in range(4))

    def test_product_of_rigs_is_a_rig(self):
        out = mg.product_algebra(BOOL, BOOL)
        assert out.is_rig
        assert mg.validate_algebra(out).ok


class TestPowerRig:
    def test_power_of_sign_is_the_four_polarity_rig(self):
        out = mg.power_rig(SIGN)
        assert mg.validate_algebra(out).ok
        mapping = {"{}": "0", "{+}": "1", "{-}": "-1", "{+,-}": "i"}
        to_s = {out.elements.index(k): S_RIG.elements.index(v) for k, v in mapping.items()}
        assert to_s[out.unit] == S_RIG.unit and to_s[out.zero_index] == S_RIG.zero_index
        for a in range(4):
            for b in range(4):
                assert to_s[out.mul(a, b)] == S_RIG.mul(to_s[a], to_s[b])
                assert to_s[out.add(a, b)] == S_RIG.add(to_s[a], to_s[b])

    def test_power_of_trivial_is_boolean(self):
        trivial_table = mg.table_algebra(["1"], [[0]], unit=0, flags=mg.Flags(commutative=True))
        out = mg.power_rig(trivial_table)
        assert tables_agree(out, BOOL, {"{}": "0", "{1}": "1"})
        assert out.add_table == BOOL.add_table

    def test_power_of_z3_has_eight_elements(self):
        assert mg.power_rig(cyclic_group(3)).size == 8

    def test_size_guard(self):
        with pytest.raises(ValueError):
            mg.power_rig(cyclic_group(6))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.booleans(), st.booleans())
def test_constructions_always_validate(n, add_zero_first, use_truncated):
    base = truncated_add(n) if use_truncated else cyclic_group(n)
    extended = mg.adjoin_zero(base) if add_zero_first else mg.adjoin_identity(base)
    assert mg.validate_algebra(extended).ok
    assert mg.validate_algebra(mg.product_algebra(extended, base)).ok
    if base.size <= mg.algebra.POWER_RIG_LIMIT:
        assert mg.validate_algebra(mg.power_rig(base)).ok


# lawful operations on 0..n-1, as (operation, its unit)
LAWFUL_MONOIDS = {
    "add mod n": (lambda n, a, b: (a + b) % n, lambda n: 0),
    "mul mod n": (lambda n, a, b: a * b % n, lambda n: 1 % n),
    "max": (lambda n, a, b: max(a, b), lambda n: 0),
    "truncated add": (lambda n, a, b: min(a + b, n - 1), lambda n: 0),
}
# lawful rigs on 0..n-1, as (add, mul, unit); zero is 0
LAWFUL_RIGS = {
    "ring mod n": (lambda n, a, b: (a + b) % n, lambda n, a, b: a * b % n, lambda n: 1 % n),
    "max-min lattice": (lambda n, a, b: max(a, b), lambda n, a, b: min(a, b), lambda n: n - 1),
}


@st.composite
def table_algebras(draw):
    """Tables of 1-6 elements: lawful monoids or rigs, or random tables, with a
    few entries, the unit or the zero changed, and random declared flags; now
    and then a structural defect."""
    n = draw(st.integers(min_value=1, max_value=6))
    index = st.integers(min_value=0, max_value=n - 1)

    def table(op):
        if op is None:
            return draw(st.lists(index, min_size=n * n, max_size=n * n))
        return [op(n, a, b) for a in range(n) for b in range(n)]

    def broken(entries):
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            entries[draw(st.integers(min_value=0, max_value=n * n - 1))] = draw(index)
        if draw(st.integers(min_value=0, max_value=19)) == 0:
            entries[draw(st.integers(min_value=0, max_value=n * n - 1))] = draw(st.sampled_from((-1, n, "x", 1.5, None)))
        return tuple(entries)

    flags = mg.Flags(commutative=draw(st.booleans()), cancellative=draw(st.booleans()))
    lawful = draw(st.booleans())
    if draw(st.booleans()):
        add, mul, unit_of = LAWFUL_RIGS[draw(st.sampled_from(sorted(LAWFUL_RIGS)))] if lawful else (None,) * 3
        zero = 0 if draw(st.booleans()) else draw(index)
        add_table = broken(table(add))
    else:
        mul, unit_of = LAWFUL_MONOIDS[draw(st.sampled_from(sorted(LAWFUL_MONOIDS)))] if lawful else (None,) * 2
        zero = add_table = None
    unit = unit_of(n) if unit_of and draw(st.booleans()) else draw(index)
    return mg.TableAlgebra(tuple(map(str, range(n))), broken(table(mul)), unit, add_table, zero, flags)


BROKEN_NAT_RIGS = [
    replace(mg.named_algebra("NatRig"), mul=lambda a, b: a * b + (a > 1 and b > 1)),
    replace(mg.named_algebra("NatRig"), _rig_add=lambda a, b: a + 2 * b),
]


def assert_same_report(algebra, **kwargs) -> mg.ValidationReport:
    report, expected = mg.validate_algebra(algebra, **kwargs), oracle_validate_algebra(algebra, **kwargs)
    assert report.violations == expected.violations  # kind, code, message, witness, order
    assert report.summary() == expected.summary()
    return report


class TestRowChecksMatchTheOracle:
    @settings(max_examples=300, deadline=None)
    @given(table_algebras())
    def test_random_tables(self, algebra):
        report = assert_same_report(algebra)
        well_formed = all(v.kind == AXIOM for v in report.violations)
        if well_formed and (algebra.is_rig or algebra.flags.commutative):
            assert mg.is_cancellative(algebra) == oracle_is_cancellative(algebra)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([mg.named_algebra(name) for name in mg.BUILTIN_NAMES] + BROKEN_NAT_RIGS),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=60),
    )
    def test_builtins_with_any_seed_and_sample_size(self, algebra, rng_seed, samples):
        assert_same_report(algebra, rng_seed=rng_seed, samples=samples)

    def test_broken_sixteen_element_product_rig(self):
        codes = {v.code for v in assert_same_report(broken_product_rig()).violations}
        assert codes == {
            "unit",
            "associativity",
            "commutativity",
            "distributivity-left",
            "distributivity-right",
            "absorption",
            "cancellativity",
        }

    def test_operation_calls_grow_with_the_square_of_the_size(self, monkeypatch):
        calls = []

        def counted(method):
            def wrapper(self, a, b):
                calls.append(a)
                return method(self, a, b)

            return wrapper

        monkeypatch.setattr(mg.TableAlgebra, "mul", counted(mg.TableAlgebra.mul))
        # a rig's ``add`` is bound at construction, so patch it before building
        monkeypatch.setattr(mg.TableAlgebra, "_rig_add", counted(mg.TableAlgebra._rig_add))
        rig = broken_product_rig()
        n = rig.size
        calls.clear()
        mg.validate_algebra(rig)
        # about 20 n^3 calls when every triple is checked with scalar calls;
        # a table's laws are checked by lookups, with next to no calls
        assert len(calls) <= 8 * n
        rig.mul(1, 2), rig.add(1, 2)
        assert len(calls) >= 2  # the counting patch is live


# lawful 16-element rigs: one commutative, one not
SIXTEEN_ELEMENT_RIGS = [
    mg.product_algebra(S_RIG, S_RIG),
    mg.product_algebra(BOOL, mg.power_rig(mg.table_algebra(["1", "a", "b"], [[0, 1, 2], [1, 1, 1], [2, 2, 2]], unit=0))),
]


@st.composite
def sixteen_element_mutants(draw):
    """A lawful 16-element rig with one to three table entries changed, now
    and then its unit or zero too, and random declared flags."""
    rig = draw(st.sampled_from(SIXTEEN_ELEMENT_RIGS))
    n = rig.size
    index = st.integers(min_value=0, max_value=n - 1)
    tables = {"mul": list(rig.mul_table), "add": list(rig.add_table)}
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        tables[draw(st.sampled_from(sorted(tables)))][draw(st.integers(min_value=0, max_value=n * n - 1))] = draw(index)
    unit = draw(index) if draw(st.integers(min_value=0, max_value=3)) == 0 else rig.unit
    zero = draw(index) if draw(st.integers(min_value=0, max_value=3)) == 0 else rig.zero_index
    flags = mg.Flags(commutative=draw(st.booleans()), cancellative=draw(st.booleans()))
    return mg.TableAlgebra(rig.elements, tuple(tables["mul"]), unit, tuple(tables["add"]), zero, flags)


class TestBlockChecksMatchTheOracle:
    @settings(max_examples=60, deadline=None)
    @given(sixteen_element_mutants())
    def test_sixteen_element_mutants(self, algebra):
        assert_same_report(algebra)

    def test_lawful_sixteen_element_rigs(self):
        for rig in SIXTEEN_ELEMENT_RIGS:
            assert assert_same_report(rig).ok

    @pytest.mark.parametrize("n", [1, 2])
    def test_every_table_of_one_or_two_elements(self, n):
        names = [str(i) for i in range(n)]
        tables = list(itertools.product(range(n), repeat=n * n))
        for mul, unit, flags in itertools.product(tables, range(n), [mg.Flags(), mg.Flags(True, True)]):
            assert_same_report(mg.TableAlgebra(names, mul, unit, flags=flags))
            for add, zero in itertools.product(tables, range(n)):
                assert_same_report(mg.TableAlgebra(names, mul, unit, add, zero, flags))

    def test_257_elements_take_the_tuple_path(self):
        z257 = cyclic_group(257)
        assert isinstance(mg.algebra._Table(z257.mul_table).flat, tuple)
        assert mg.validate_algebra(z257).ok
        n = z257.size
        mul = list(z257.mul_table)
        mul[2 * n + 3] = 0  # 2+3 was 5
        report = mg.validate_algebra(replace(z257, mul_table=tuple(mul)))
        # (1+1)+3 reads the changed entry and 1+(1+3) = 5; nothing smaller does
        assert report.violations[0] == Violation(AXIOM, "associativity", "mul: (1*1)*3 != 1*(1*3)", (1, 1, 3))
        assert {v.code for v in report.violations} == {"associativity", "commutativity", "cancellativity"}
        assert [v.witness for v in report.violations if v.code == "commutativity"] == [(2, 3)]
        # column 3 now holds 0 twice: 2+3 and 254+3
        assert report.violations[-1] == Violation(AXIOM, "cancellativity", "2+3 = 254+3 but 2 != 254", (2, 254, 3))


class TestHoms:
    def test_sign_hom_values(self):
        hom = mg.sign_hom()
        assert hom.target.label_text(mg.apply_hom(hom, Fraction(-3, 2))) == "-"
        assert hom.target.label_text(mg.apply_hom(hom, Fraction(0))) == "0"
        assert hom.target.label_text(mg.apply_hom(hom, Fraction(7, 3))) == "+"
        assert mg.validate_hom(hom).ok

    def test_collapse_sends_everything_to_one(self):
        hom = mg.collapse_hom(SIGN0)
        assert all(mg.apply_hom(hom, x) == 1 for x in range(3))
        assert mg.validate_hom(hom).ok

    def test_section_splits_the_sign_map(self):
        section = mg.sign_section()
        assert mg.validate_hom(section).ok
        composite = mg.compose_homs(mg.sign_hom(), section)
        assert all(mg.apply_hom(composite, x) == x for x in range(3))

    def test_composite_of_function_homs_is_a_function(self):
        composite = mg.compose_homs(mg.sign_section(), mg.sign_hom())
        assert composite.mapping is None
        values = [Fraction(-3), Fraction(0), Fraction(5)]
        assert [mg.apply_hom(composite, x) for x in values] == [-1, 0, 1]
        assert mg.validate_hom(composite).ok

    def test_validate_hom_catches_a_broken_map(self):
        bad = mg.MonoidHom(SIGN, SIGN, mapping=(0, 0))  # sends - to +: not multiplicative? it is; break the unit instead
        assert mg.validate_hom(bad).ok  # constant-to-unit is a genuine hom
        worse = mg.MonoidHom(SIGN, SIGN, mapping=(1, 0))  # swaps unit
        report = mg.validate_hom(worse)
        assert any(v.code == "unit" for v in report.violations)

    def test_additive_hom_laws_are_checked_when_declared(self):
        doubling = mg.MonoidHom(BOOL, BOOL, mapping=(0, 1), respects=("mul", "add"))
        assert mg.validate_hom(doubling).ok
        bad = mg.MonoidHom(BOOL, BOOL, mapping=(1, 0), respects=("add",))
        report = mg.validate_hom(bad)
        assert any(v.code in ("zero", "additivity") for v in report.violations)

    @pytest.mark.parametrize("mapping", [(0,), (0, 1, 0)], ids=["short", "long"])
    def test_mapping_must_list_one_image_per_source_element(self, mapping):
        with pytest.raises(ValueError, match=f"mapping lists {len(mapping)} image\\(s\\) for 2 source"):
            mg.MonoidHom(SIGN, SIGN, mapping=mapping)


class TestLabelParsing:
    def test_table_labels_parse_by_name(self):
        assert SIGN.parse_label("+") == 0
        with pytest.raises(KeyError):
            SIGN.parse_label("?")

    def test_rational_labels_accept_fraction_strings(self):
        rat = mg.named_algebra("RatAdd")
        assert rat.parse_label("3/2") == Fraction(3, 2)
        assert rat.parse_label(4) == Fraction(4)
        with pytest.raises(KeyError):
            rat.parse_label(1.5)

    def test_nat_labels_reject_negatives_and_bools(self):
        with pytest.raises(KeyError):
            NAT.parse_label(-1)
        with pytest.raises(KeyError):
            NAT.parse_label(True)
