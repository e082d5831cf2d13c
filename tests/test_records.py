"""The package's records: plain ``__slots__`` classes that build, compare,
hash and refuse assignment as the dataclasses they replaced did."""

import copy
import pickle

import pytest

from confighom import (
    BasicWord,
    CheckReport,
    DegreeWeightTable,
    FieldChar,
    HiltonReport,
    InvalidInputError,
    ProblemSpec,
)
from confighom.oracle import GeneratorDescriptor

F2 = FieldChar.mod2()

# each record with a value for every field, in constructor order
RECORDS = {
    DegreeWeightTable: {"max_degree": 4, "max_weight": 2, "entries": {(2, 1): 3}},
    FieldChar: {"p": 3},
    ProblemSpec: {
        "m_dim": 1,
        "rel_betti": {0: 1},
        "n": 1,
        "x_betti": {2: 1},
        "char": F2,
        "max_degree": 10,
        "max_weight": 5,
    },
    CheckReport: {"name": "ab", "passed": True, "cases": 3, "failures": [{"case": 0}]},
    BasicWord: {"multiplicities": (1, 1), "length": 2, "count": 1},
    HiltonReport: {
        "passed": True,
        "max_degree": 6,
        "words_used": 1,
        "first_mismatch": None,
        "lhs_totals": [1, 0],
        "rhs_totals": [1, 0],
        "word_summary": [{"length": 1}],
    },
    GeneratorDescriptor: {
        "bracket": "[a,b]",
        "letter_degrees": (2, 3),
        "ops": (),
        "degree": 6,
        "weight": 2,
    },
}
FROZEN = [DegreeWeightTable, FieldChar, BasicWord, GeneratorDescriptor]
MUTABLE = [ProblemSpec, CheckReport, HiltonReport]
# an other value for the first field of each record
OTHER_FIRST = {
    DegreeWeightTable: 5,
    FieldChar: 5,
    ProblemSpec: 2,
    CheckReport: "hilton",
    BasicWord: (2, 0),
    HiltonReport: False,
    GeneratorDescriptor: "[b,a]",
}

records = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)


def build(cls, **changes):
    return cls(**dict(RECORDS[cls], **changes))


@records
def test_a_record_is_built_by_position_or_by_keyword(cls):
    fields = RECORDS[cls]
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    for record in (by_position, by_keyword):
        assert {name: getattr(record, name) for name in fields} == fields
    assert by_position == by_keyword


@records
def test_a_record_refuses_a_missing_or_an_extra_field(cls):
    fields = list(RECORDS[cls].values())
    with pytest.raises(TypeError):
        cls(*fields[:1] if len(fields) > 1 else ())
    with pytest.raises(TypeError):
        cls(*fields, 0)
    with pytest.raises(TypeError):
        cls(**RECORDS[cls], colour=1)


@records
def test_records_are_equal_when_class_and_fields_are(cls):
    record = build(cls)
    assert record == build(cls)
    assert not record != build(cls)
    first = next(iter(RECORDS[cls]))
    assert record != build(cls, **{first: OTHER_FIRST[cls]})
    assert record != tuple(RECORDS[cls].values())
    assert record != object()


@records
def test_the_repr_lists_the_fields_as_a_dataclass_did(cls):
    fields = ", ".join(f"{name}={value!r}" for name, value in RECORDS[cls].items())
    assert repr(build(cls)) == f"{cls.__name__}({fields})"


@records
def test_a_copy_or_a_pickled_record_is_an_equal_record(cls):
    record = build(cls)
    twins = copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))
    for twin in twins:
        assert type(twin) is cls
        assert twin == record


def test_defaults_are_fresh_for_each_instance():
    first, second = CheckReport("ab", True, 0), CheckReport("ab", True, 0)
    assert first.failures == [] and first.failures is not second.failures
    first.failures.append({"case": 0})
    assert second.failures == []

    totals = ([1], [1])
    first, second = HiltonReport(True, 0, 0, None, *totals), HiltonReport(
        True, 0, 0, None, *totals
    )
    assert first.word_summary == [] and first.word_summary is not second.word_summary

    first, second = DegreeWeightTable(3, 2), DegreeWeightTable(3, 2)
    assert first.entries == {} and first.entries is not second.entries

    spec = ProblemSpec(1, {0: 1}, 1, {2: 1}, F2, 10)
    assert spec.max_weight is None
    assert spec.effective_max_weight() == 5


def test_field_chars_and_basic_words_are_hashable():
    assert hash(FieldChar(3)) == hash(FieldChar.odd(3))
    assert {FieldChar(0), FieldChar.rational(), F2} == {FieldChar(0), F2}
    words = {BasicWord((1, 1), 2, 1): "ab", BasicWord((2, 1), 3, 1): "aab"}
    assert words[BasicWord((1, 1), 2, 1)] == "ab"
    descriptor = build(GeneratorDescriptor)
    assert hash(descriptor) == hash(build(GeneratorDescriptor))


def test_a_table_is_frozen_but_its_dict_is_not_hashable():
    # as a frozen dataclass holding a dict: no assignment, and no hash
    with pytest.raises(TypeError):
        hash(build(DegreeWeightTable))


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_a_frozen_record_refuses_assignment(cls):
    record = build(cls)
    for name in RECORDS[cls]:
        with pytest.raises(AttributeError):
            setattr(record, name, OTHER_FIRST[cls])
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.colour = 1
    assert record == build(cls)


@pytest.mark.parametrize("cls", MUTABLE, ids=lambda c: c.__name__)
def test_a_mutable_record_takes_assignment_and_has_no_hash(cls):
    record = build(cls)
    first = next(iter(RECORDS[cls]))
    setattr(record, first, OTHER_FIRST[cls])
    assert record == build(cls, **{first: OTHER_FIRST[cls]})
    with pytest.raises(TypeError):
        hash(record)
    # unlike the dataclass it replaced, a record has no slot for a misspelt
    # field, so assigning one fails instead of adding an attribute
    with pytest.raises(AttributeError):
        record.colour = 1


def test_a_problem_spec_is_checked_after_a_change():
    spec = build(ProblemSpec)
    spec.validate()
    spec.max_weight = 7
    assert spec.effective_max_weight() == 7
    spec.n = 0
    with pytest.raises(InvalidInputError):
        spec.validate()
