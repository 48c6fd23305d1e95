"""The contract of the pipeline's immutable records.

Each record is built twice from equal fields and once with one field
changed.  The repr keeps the Name(field=value) format.
"""
import pytest

from rigidfp import (
    Block,
    ExtractionDiagnostic,
    FingerprintOptions,
    OperatorPair,
    ParitySplit,
    SpTrace,
    TaggedPartition,
    TauTable,
    WeylPair,
    fingerprint,
)
from rigidfp.partitions import INTERLEAVE


def _result(conditions=("i",)):
    return fingerprint(OperatorPair((1,), (), "B"), FingerprintOptions(conditions=conditions))


# (make, a copy with one field changed, repr of make())
RECORDS = {
    "SpTrace": (
        lambda: SpTrace((3, 1), (2, 2)),
        SpTrace((3, 1), (3, 1)),
        "SpTrace(lambda_values=(3, 1), mu_values=(2, 2))",
    ),
    "TauTable": (
        lambda: TauTable(((2, -1, "i"),)),
        TauTable(((2, 1, None),)),
        "TauTable(entries=((2, -1, 'i'),))",
    ),
    "WeylPair": (
        lambda: WeylPair((2,), (1, 1)),
        WeylPair((2,), (1,)),
        "WeylPair(alpha=(2,), beta=(1, 1))",
    ),
    "ExtractionDiagnostic": (
        lambda: ExtractionDiagnostic(((2, 1),)),
        ExtractionDiagnostic(((2, 3),)),
        "ExtractionDiagnostic(entries=((2, 1),))",
    ),
    "FingerprintResult": (
        _result,
        _result(("ii",)),
        "FingerprintResult(options=FingerprintOptions("
        "mode='interleave', tie_break='prime', conditions=frozenset({'i'}), "
        "iii_variant=None), tagged=TaggedPartition(values=(1,), mode='interleave', "
        "prime_odd=(True,)), trace=SpTrace(lambda_values=(1,), "
        "mu_values=(0,)), mu=(), tau=TauTable(entries=()), weyl=WeylPair(alpha=(), beta=()), "
        "diagnostic=None, pair=OperatorPair(lambda_prime=(1,), "
        "lambda_dprime=(), theory=<Theory.B: 'B'>))",
    ),
    "TaggedPartition": (
        lambda: TaggedPartition((2, 1, 1), INTERLEAVE, (False, None, None)),
        TaggedPartition((2, 1, 1), INTERLEAVE, (None, True, True)),
        "TaggedPartition(values=(2, 1, 1), mode='interleave', "
        "prime_odd=(False, None, None))",
    ),
    "Block": (
        lambda: Block(0, 3, "S", None),
        Block(0, 3, "II", "mu_II"),
        "Block(start=0, end=3, kind='S', operator_label=None)",
    ),
    "ParitySplit": (
        lambda: ParitySplit((3, 1), (2, 2)),
        ParitySplit((3, 1), ()),
        "ParitySplit(odd_part=(3, 1), even_part=(2, 2))",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned(name):
    record = RECORDS[name][0]()
    field = next(iter(type(record).__annotations__))
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_names_each_field(name):
    make, _, text = RECORDS[name]
    assert type(make()).__name__ == name
    assert repr(make()) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_compare_and_hash_by_field(name):
    make, other, _ = RECORDS[name]
    assert make() == make() and make() is not make()
    assert hash(make()) == hash(make())
    assert make() != other
    assert len({make(), make(), other}) == 2


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_to_the_plain_tuple_of_its_fields(name):
    # Named tuples: documented in each type's docstring.
    record = RECORDS[name][0]()
    assert record == tuple(getattr(record, f) for f in type(record).__annotations__)
