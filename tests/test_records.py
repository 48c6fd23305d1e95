"""The contract of the pipeline's immutable records.

Each record is built twice from equal fields and once with one field
changed.  The repr keeps the Name(field=value) format.  The records the
pipeline and the block path build for each input skip the named tuple's
constructor, so their type and arity are checked on the records they return.
"""
import pytest

from rigidfp import (
    Block,
    ExtractionDiagnostic,
    FingerprintOptions,
    FingerprintResult,
    OperatorPair,
    ParitySplit,
    SpTrace,
    TaggedPartition,
    TauTable,
    Theory,
    WeylPair,
    block_fingerprint,
    enumerate_rigid_pairs,
    fingerprint,
)
from rigidfp.blocks import BlockResult
from rigidfp.fingerprint import VACUOUS
from rigidfp.partitions import INTERLEAVE, MODES, TIE_BREAKS, enumerate_members


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
        lambda: TauTable(((2, "i"),)),
        TauTable(((2, None),)),
        "TauTable(entries=((2, 'i'),))",
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
    "BlockResult": (
        lambda: BlockResult((2, 2), WeylPair((2,), ()), None),
        BlockResult((2, 2), WeylPair((), (1, 1)), None),
        "BlockResult(mu=(2, 2), weyl=WeylPair(alpha=(2,), beta=()), diagnostic=None)",
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


# The class of each record-valued field, by field name, in the records that
# fingerprint and block_fingerprint return.
NESTED = {
    "options": FingerprintOptions,
    "tagged": TaggedPartition,
    "trace": SpTrace,
    "tau": TauTable,
    "weyl": WeylPair,
    "diagnostic": ExtractionDiagnostic,
    "pair": OperatorPair,
}


def _nested_records(record):
    """record and every record it nests, each checked for its class and arity.

    A tau entry is a (value, witness) pair; tuple.__new__ checks no arity,
    so each entry's length is checked here.
    """
    cls = type(record)
    assert len(record) == len(cls._fields), record
    if cls is TauTable:
        assert all(len(entry) == 2 for entry in record.entries), record
    yield record
    for name, value in zip(cls._fields, record):
        if name in NESTED and value is not None:
            assert type(value) is NESTED[name], (name, value)
            yield from _nested_records(value)


def test_built_records_have_their_class_and_arity():
    # Every rigid pair and every member taken as (p; -) to rank 6, under each
    # mode and tie-break, and a C pair that diagnoses under the vacuous (iii).
    pairs = [
        pair for theory in Theory for n in range(7)
        for pair in enumerate_rigid_pairs(theory, n)
        + [OperatorPair(p, (), theory) for p in enumerate_members(theory, n)]
    ]
    runs = [(pair, FingerprintOptions(mode=mode, tie_break=tie_break))
            for pair in pairs for mode in MODES for tie_break in TIE_BREAKS]
    runs.append((OperatorPair((2, 1, 1), (), "C"), FingerprintOptions(iii_variant=VACUOUS)))
    assert fingerprint(*runs[-1]).diagnostic is not None
    seen, seen_blocks = set(), set()
    for pair, opts in runs:
        res = fingerprint(pair, opts)
        assert type(res) is FingerprintResult
        via_blocks = block_fingerprint(res.tagged, pair.theory)
        assert type(via_blocks) is BlockResult
        seen.update(map(type, _nested_records(res)))
        seen_blocks.update(map(type, _nested_records(via_blocks)))
    # Both outcomes of each path were built.
    assert seen == {FingerprintResult, *NESTED.values()}
    assert seen_blocks == {BlockResult, WeylPair, ExtractionDiagnostic}
