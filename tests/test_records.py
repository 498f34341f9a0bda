"""The result records: construction, equality, hashing, repr, immutability,
pickling, ``_replace``, and a CLI start that needs neither ``dataclasses``
nor ``inspect``."""

import copy
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import torifactor
from torifactor import (
    FanAnalysis,
    FanValidation,
    HnfResult,
    IntMatrix,
    PicardData,
    PreconditionError,
    QuotientPresentation,
    ShapeError,
    TorsionMatrix,
    WMatrixReport,
    analyze,
    classify_F,
    classify_W,
    hnf,
    reconstruct,
    snf,
    validate_fan,
)
from torifactor.intmat import Record

from _exampledata import EX1_GAMMA, EX1_Q, EX1_V, EX2_GAMMA, EX2_Q, EX2_V

EXAMPLES = {"EX1": (EX1_V, EX1_Q, EX1_GAMMA), "EX2": (EX2_V, EX2_Q, EX2_GAMMA)}

# repr of every result record type on both worked examples, as the frozen
# dataclasses that the records replace printed them
RECORDED_REPRS = json.loads(Path(__file__).with_name("record_reprs.json").read_text())


def _records(v, q, gamma):
    """One record of each of the 14 result types, by type name."""
    res = analyze(v)
    fa = res.fans[-1]
    pres = QuotientPresentation(q, gamma)
    return {
        "HnfResult": hnf(v),
        "SnfResult": snf(v),
        "FMatrixReport": classify_F(v),
        "WMatrixReport": classify_W(q),
        "Fan": fa.fan,
        "PicardIndexFamily": fa.index_sets,
        "PicardData": fa.picard,
        "FanValidation": validate_fan(v, fa.fan.maximal_cones),
        "CoveringData": res.covering,
        "ClassGroupData": res.class_group,
        "FanAnalysis": fa,
        "PipelineResult": res,
        "QuotientPresentation": pres,
        "Reconstruction": reconstruct(pres),
    }


RECORDS = {name: _records(*data) for name, data in EXAMPLES.items()}
CASES = [(ex, kind) for ex in RECORDS for kind in RECORDS[ex]]


@pytest.mark.parametrize("example", EXAMPLES)
def test_repr_matches_the_recorded_dataclass_repr(example):
    got = {kind: repr(rec) for kind, rec in RECORDS[example].items()}
    assert got == RECORDED_REPRS[example]


@pytest.mark.parametrize("example, kind", CASES)
def test_record_equals_and_hashes_as_its_field_tuple(example, kind):
    rec = RECORDS[example][kind]
    assert isinstance(rec, Record) and type(rec).__name__ == kind
    values = tuple(getattr(rec, name) for name in rec._fields)
    twin = type(rec)(*values)
    assert twin is not rec and twin == rec and not twin != rec
    assert hash(twin) == hash(rec) == hash(values)
    assert rec != values
    assert type(rec)(**dict(zip(rec._fields, values))) == rec


def test_records_of_different_classes_with_equal_fields_differ():
    w, f = WMatrixReport(True, ()), FanValidation(True, ())
    assert w._fields != f._fields and w._values() == f._values()
    assert w != f and not w == f
    assert HnfResult(EX1_V, EX1_V) != HnfResult(EX1_V, EX2_V)


@pytest.mark.parametrize("example, kind", CASES)
def test_assignment_and_deletion_raise(example, kind):
    rec = RECORDS[example][kind]
    field = rec._fields[0]
    before = getattr(rec, field)
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(rec, field, None)
    with pytest.raises(AttributeError, match="cannot assign"):
        rec.not_a_field = 1
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(rec, field)
    assert getattr(rec, field) is before


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((EX1_V,), {}, "missing field 'U'"),
        ((), {"U": EX1_V}, "missing field 'H'"),
        ((), {}, "missing field 'H', missing field 'U'"),
        ((EX1_V, EX1_V, EX1_V), {}, "3 positional for 2 fields"),
        ((EX1_V, EX1_V), {"V": EX1_V}, "unexpected field 'V'"),
        ((), {"H": EX1_V, "V": EX1_V}, "unexpected field 'V'"),
        ((), {"H": EX1_V, "U": EX1_V, "V": EX1_V}, "unexpected field 'V'"),
        ((EX1_V,), {"H": EX1_V}, "repeated field 'H'"),
        ((EX1_V, EX1_V), {"U": EX1_V}, "repeated field 'U'"),
    ],
)
def test_missing_extra_and_repeated_fields_raise(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        HnfResult(*args, **kwargs)


def test_mixed_positional_and_keyword_fields_bind_in_order():
    assert HnfResult(EX1_V, U=EX2_V) == HnfResult(H=EX1_V, U=EX2_V) == HnfResult(EX1_V, EX2_V)
    assert HnfResult(U=EX2_V, H=EX1_V).H is EX1_V


def test_picard_data_and_quotient_presentation_still_validate():
    b = IntMatrix.identity(2)
    with pytest.raises(PreconditionError, match="Picard basis must be nonsingular"):
        PicardData(B=b, index=0, delta_sigma=1)
    with pytest.raises(PreconditionError, match="delta_sigma must divide the Picard index"):
        PicardData(b, 6, 4)
    with pytest.raises(ShapeError, match="torsion matrix width must match the weight matrix"):
        QuotientPresentation(EX1_Q, TorsionMatrix([5], [[1, 2, 3]]))
    with pytest.raises(PreconditionError):
        QuotientPresentation(IntMatrix([[1, -1]]), TorsionMatrix([], [], width=2))


@pytest.mark.parametrize("example, kind", CASES)
def test_pickle_and_copy_round_trips_compare_equal(example, kind):
    rec = RECORDS[example][kind]
    for twin in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert type(twin) is type(rec) and twin == rec and hash(twin) == hash(rec)
        assert repr(twin) == repr(rec)
        with pytest.raises(AttributeError):
            setattr(twin, rec._fields[0], None)


def test_replace_keeps_the_type_and_checks_again():
    pd = RECORDS["EX2"]["PicardData"]
    moved = pd._replace(index=2 * pd.index)
    assert type(moved) is PicardData and moved.index == 2 * pd.index
    assert (moved.B, moved.delta_sigma) == (pd.B, pd.delta_sigma) and pd != moved
    assert pd._replace() == pd
    with pytest.raises(PreconditionError, match="nonsingular"):
        pd._replace(index=0)
    with pytest.raises(PreconditionError, match="divide"):
        pd._replace(delta_sigma=pd.index + 1)
    pres = RECORDS["EX1"]["QuotientPresentation"]
    with pytest.raises(ShapeError, match="width"):
        pres._replace(gamma=TorsionMatrix([5], [[1, 2, 3]]))
    with pytest.raises(TypeError, match="unexpected field 'C'"):
        pres._replace(C=EX1_Q)
    # index_sets is read off the cones, not stored
    fa = RECORDS["EX2"]["FanAnalysis"]
    with pytest.raises(TypeError, match="unexpected field 'index_sets'"):
        fa._replace(index_sets=fa.index_sets)


def test_fields_are_the_annotations_in_order():
    assert HnfResult._fields == ("H", "U")
    assert PicardData._fields == ("B", "index", "delta_sigma")
    assert FanAnalysis._fields == ("fan", "picard", "cartier")
    assert RECORDS["EX1"]["PipelineResult"]._fields == (
        "V", "Q", "U_Q", "covering", "gamma", "class_group", "fans"
    )


def test_cli_starts_without_dataclasses_or_inspect():
    # a fresh interpreter without the site hook, so only torifactor's own
    # imports count
    src = str(Path(torifactor.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import torifactor.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"
