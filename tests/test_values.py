"""The value-class contract: construction, the frozen guard, repr, equality, hash, order, patterns, copies.

Pins what every value class of the package promises callers, whatever
generates its methods: the seven formula nodes, ``Partition``,
``BinaryRelation``, ``BoolOp2``, ``BooleanCore``, ``Assignment`` and
``CheckResult``.
"""

import copy
import dataclasses
import pickle

import pytest

from partlogic import (
    And,
    Assignment,
    BinaryRelation,
    BoolOp2,
    BooleanCore,
    Const0,
    Const1,
    Implies,
    Not,
    Or,
    Partition,
    Var,
    boolean_core,
    enumerate_partitions,
    format_formula,
    parse,
)
from partlogic.suites import CheckResult

P = Partition(3, (0, 1, 0))
CORE = boolean_core(Partition(3, (0, 0, 1)))

# One value of each class, with the fields in declaration order.
VALUES = {
    "Partition": (P, {"n": 3, "rgs": (0, 1, 0)}),
    "BinaryRelation": (BinaryRelation(2, 5), {"n": 2, "bits": 5}),
    "BoolOp2": (BoolOp2((False, True, True, True)), {"table": (False, True, True, True)}),
    "BooleanCore": (CORE, {"pi": CORE.pi, "ns_blocks": ((0, 1),), "members": CORE.members}),
    "Assignment": (Assignment(3, {"s": P}), {"n": 3, "bindings": {"s": P}}),
    "CheckResult": (CheckResult("x", True), {"name": "x", "passed": True, "detail": ""}),
    "Var": (Var("s"), {"name": "s"}),
    "Const0": (Const0(), {}),
    "Const1": (Const1(), {}),
    "Not": (Not(Var("s")), {"child": Var("s")}),
    "And": (And(Var("s"), Const0()), {"left": Var("s"), "right": Const0()}),
    "Or": (Or(Const1(), Var("p")), {"left": Const1(), "right": Var("p")}),
    "Implies": (Implies(Var("s"), Var("p")), {"left": Var("s"), "right": Var("p")}),
}
FORMULAS = ["Var", "Const0", "Const1", "Not", "And", "Or", "Implies"]
PLAIN = [name for name in VALUES if name not in FORMULAS]


@pytest.mark.parametrize("name", VALUES)
class TestEveryClass:
    def test_fields_are_match_args_and_instance_dict(self, name):
        value, fields = VALUES[name]
        assert type(value).__name__ == name
        assert type(value).__match_args__ == tuple(fields)
        assert vars(value) == fields

    def test_keyword_construction(self, name):
        value, fields = VALUES[name]
        assert type(value)(**fields) == value
        assert type(value)(*fields.values()) == value
        with pytest.raises(TypeError):
            type(value)(*fields.values(), None)

    def test_setting_or_deleting_a_field_raises_frozen_error(self, name):
        value, fields = VALUES[name]
        for field in [*fields, "extra"]:
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{field}'$"):
                setattr(value, field, None)
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{field}'$"):
                delattr(value, field)
        assert vars(value) == fields

    def test_class_pattern(self, name):
        value, fields = VALUES[name]
        # Bind every field positionally through __match_args__.
        match value:
            case Partition(n, rgs):
                assert (n, rgs) == tuple(fields.values())
            case BinaryRelation(n, bits):
                assert (n, bits) == tuple(fields.values())
            case BoolOp2(table):
                assert table == fields["table"]
            case BooleanCore(pi, ns_blocks, members):
                assert (pi, ns_blocks, members) == tuple(fields.values())
            case Assignment(n, bindings):
                assert (n, bindings) == tuple(fields.values())
            case CheckResult(check, passed, detail):
                assert (check, passed, detail) == tuple(fields.values())
            case Var(var):
                assert var == fields["name"]
            case Not(child):
                assert child == fields["child"]
            case And(left, right) | Or(left, right) | Implies(left, right):
                assert (left, right) == tuple(fields.values())
            case Const0() | Const1():
                assert fields == {}
            case _:
                pytest.fail(f"no class pattern matched {name}")

    def test_pickle_and_copies_round_trip(self, name):
        value, fields = VALUES[name]
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
            assert type(twin) is type(value)
            assert twin == value
            assert vars(twin) == fields


class TestRepr:
    def test_plain_values(self):
        assert repr(P) == "Partition(n=3, rgs=(0, 1, 0))"
        assert repr(BinaryRelation(2, 5)) == "BinaryRelation(n=2, bits=5)"
        assert repr(BoolOp2((False, True, True, True))) == "BoolOp2(table=(False, True, True, True))"
        assert repr(CheckResult("x", True)) == "CheckResult(name='x', passed=True, detail='')"
        assert repr(Assignment(3, {"s": P})) == "Assignment(n=3, bindings={'s': Partition(n=3, rgs=(0, 1, 0))})"
        assert repr(CORE) == (
            "BooleanCore(pi=Partition(n=3, rgs=(0, 0, 1)), ns_blocks=((0, 1),), "
            "members=(Partition(n=3, rgs=(0, 0, 1)), Partition(n=3, rgs=(0, 1, 2))))"
        )

    @pytest.mark.parametrize("name", FORMULAS)
    def test_formulas_print_as_parse_calls(self, name):
        value, _ = VALUES[name]
        assert repr(value) == f"parse({format_formula(value)!r})"


class TestEqualityAndHash:
    @pytest.mark.parametrize("name", PLAIN)
    def test_plain_values_compare_and_hash_as_field_tuples(self, name):
        value, fields = VALUES[name]
        cls = type(value)
        assert not cls(*fields.values()) != value
        assert cls.__eq__(value, tuple(fields.values())) is NotImplemented
        assert value != tuple(fields.values())
        if name == "Assignment":
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == hash(tuple(fields.values()))

    def test_a_field_difference_is_unequal(self):
        assert Partition(3, (0, 0, 1)) != P
        assert BinaryRelation(2, 4) != BinaryRelation(2, 5)
        assert BinaryRelation(3, 5) != BinaryRelation(2, 5)
        assert CheckResult("x", True, "d") != CheckResult("x", True)
        assert Assignment(3, {"s": P}) != Assignment(3, {"p": P})
        assert BoolOp2((True,) * 4) != BoolOp2((False, True, True, True))
        # Same field values, different class.
        assert Partition(1, (0,)) != BinaryRelation(1, 0)
        assert CheckResult("x", True) != BoolOp2((True,) * 4)
        assert And(Var("s"), Var("p")) != Or(Var("s"), Var("p"))

    @pytest.mark.parametrize("name", FORMULAS)
    def test_formulas_compare_and_hash_by_text(self, name):
        value, _ = VALUES[name]
        assert value == parse(format_formula(value))
        assert hash(value) == hash(format_formula(value))
        assert value != format_formula(value)


class TestPartitionOrder:
    def test_lexicographic_on_size_then_rgs(self):
        parts = [p for n in (1, 2, 3, 4) for p in enumerate_partitions(n)]
        assert sorted(reversed(parts)) == parts
        for a, b in zip(parts, parts[1:]):
            assert a < b and a <= b and b > a and b >= a
            assert not (b < a or b <= a or a > b or a >= b)
            assert a <= a and a >= a and not a < a and not a > a
        assert Partition(2, (0, 1)) < Partition(3, (0, 0, 0))

    def test_other_types_are_not_ordered(self):
        for method in ("__lt__", "__le__", "__gt__", "__ge__"):
            assert getattr(Partition, method)(P, (3, (0, 1, 0))) is NotImplemented
            assert getattr(Partition, method)(P, BinaryRelation(3, 0)) is NotImplemented
        with pytest.raises(TypeError):
            P < (3, (0, 1, 0))
        with pytest.raises(TypeError):
            P >= 3


class TestDefaultsAndValidation:
    def test_check_result_detail_defaults_to_empty(self):
        assert CheckResult(name="x", passed=False).detail == ""
        assert CheckResult("x", False, detail="why").detail == "why"

    def test_constructors_validate(self):
        with pytest.raises(ValueError, match="restricted-growth"):
            Partition(n=3, rgs=(0, 2, 1))
        with pytest.raises(ValueError, match="outside the universe"):
            BinaryRelation(n=2, bits=16)
        with pytest.raises(ValueError, match="four boolean entries"):
            BoolOp2(table=(True, False))
        with pytest.raises(ValueError, match="universe size 3, expected 2"):
            Assignment(n=2, bindings={"s": P})
        with pytest.raises(ValueError, match="invalid variable name"):
            Var(name="2s")

    def test_cached_properties_cache_on_a_frozen_value(self):
        p = Partition(3, (0, 1, 0))
        assert p.blocks == ((0, 2), (1,))
        assert vars(p)["blocks"] is p.blocks
        assert pickle.loads(pickle.dumps(p)) == p
