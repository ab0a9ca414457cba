"""The library's records behave as frozen values.

Each record class stores its constructor's arguments as slotted fields.
One table row per class builds an instance and checks the behaviour that
callers and the CLI rely on: positional and keyword construction with the
documented defaults, equality and hash by fields, the
``Name(field=value, ...)`` repr, copies and pickles, and no assignment or
deletion.
"""
import copy
import pickle
from fractions import Fraction
from importlib import import_module
from inspect import signature
from pathlib import Path

import pytest

from blobshift.automata import (
    CARule,
    FiniteConfig,
    NilpotencyVerdict,
    OrderVerdict,
    TFGElement,
)
from blobshift.blobfractal import (
    BlobHierarchy,
    BlobPlacement,
    FractalVerdict,
    HierarchyLevel,
    LevelPairReport,
)
from blobshift.pathcover import CellPath
from blobshift.patterns import BINARY, Alphabet, Pattern, _Record, blobs
from blobshift.primes import CRTWitness, PrimeWindow
from blobshift.substitution import (
    BlockHierarchySpec,
    DensityWord,
    Substitution1D,
    Substitution2D,
)

DOT = Pattern.from_word("1")
(BLOB, _), = blobs(DOT, 0)
PLACEMENT = BlobPlacement((0,), BLOB, False)

# class, an argument for every __init__ parameter, the defaults of the
# trailing parameters that have one
RECORDS = [
    (Alphabet, (("0", "1"), "0"), ()),
    (Substitution1D, (BINARY, {"0": "0", "1": "10"}), ()),
    (Substitution2D, (BINARY, 2, {"0": Pattern.from_rows(["..", ".."]),
                                  "1": Pattern.from_rows(["11", "11"])}), ()),
    (DensityWord, (2, 4, 3, Fraction(3, 4), "1110"), ()),
    (BlockHierarchySpec, (1,), ()),
    (CellPath, (((0, 0), (1, 0), (1, 1)), 1), ()),
    (BlobPlacement, ((0,), BLOB, False), ()),
    (HierarchyLevel, (0, (PLACEMENT,)), ()),
    (BlobHierarchy, (DOT, (0,)), ()),
    (LevelPairReport, (1, 2, 3, 0, True, True, False,
                       {"axiom": "splits_in_two", "anchor": [0]}), (None,)),
    (FractalVerdict, ("blob_fractal", 1, 5, 2, ()),
     (None, None, None, ())),
    (CARule, (BINARY, 0, {"0": "0", "1": "1"}), ()),
    (FiniteConfig, (BINARY, 3, "101"), ()),
    (NilpotencyVerdict, ("not_nilpotent", 2, {"kind": "glider"}),
     (None, {})),
    (TFGElement, (BINARY, 0, {"0": 0, "1": 0}), ()),
    (OrderVerdict, ("torsion", 2, {"word": "01"}), (None, {})),
    (PrimeWindow, (3, "0011"), ()),
    (CRTWitness, (1, (3,), 2, 3, 2), ()),
]

# literal reprs: the nested ones show Pattern's and Blob's own
REPRS = {
    Alphabet: "Alphabet(symbols=('0', '1'), zero='0')",
    BlobHierarchy: (
        "BlobHierarchy(source=Pattern(dim=1, cells=1, support=1), "
        "radii=(0,), levels=(HierarchyLevel(radius=0, placements=("
        "BlobPlacement(anchor=(0,), blob=Blob(radius=0, support=1), "
        "truncated=False),)),))"),
    NilpotencyVerdict: ("NilpotencyVerdict(tag='not_nilpotent', steps=2, "
                        "witness={'kind': 'glider'})"),
}


def test_every_record_class_has_a_row():
    import blobshift

    records = {value for path in Path(blobshift.__file__).parent.glob("*.py")
               for value in vars(import_module(f"blobshift.{path.stem}"))
               .values()
               if isinstance(value, type) and issubclass(value, _Record)}
    assert records - {_Record} == {cls for cls, _, _ in RECORDS}


@pytest.mark.parametrize("cls,args,defaults", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_a_record_is_a_frozen_value(cls, args, defaults):
    names = list(signature(cls).parameters)
    assert len(names) == len(args)
    record = cls(*args)
    same = cls(**dict(zip(names, args)))
    assert [getattr(record, name) for name in names] == list(args)
    assert record == same and not record != same

    # the defaults, each dict a fresh one per instance
    given = args[:len(args) - len(defaults)]
    short, other = cls(*given), cls(*given)
    assert tuple(getattr(short, name) for name in names[len(given):]) \
        == defaults
    for name, default in zip(names[len(given):], defaults):
        if isinstance(default, dict):
            assert getattr(short, name) is not getattr(other, name)
    assert (short == record) == (defaults == args[len(given):])

    # hashable exactly when every field is, and then by the fields
    fields = tuple(getattr(record, name) for name in cls.__slots__)
    try:
        hash(fields)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(same) == hash(fields)

    # a record of another class is never equal, whatever its fields
    twin = object.__new__(type("Twin", (_Record,),
                               {"__slots__": cls.__slots__}))
    twin._fill(*fields)
    assert record.__eq__(twin) is NotImplemented
    assert record != twin and twin != record
    # nor is any of its own fields: a Pattern or Blob field answers
    # NotImplemented too
    for value in fields:
        assert record != value and value != record

    shown = ", ".join(f"{name}={value!r}"
                      for name, value in zip(cls.__slots__, fields))
    assert repr(record) == f"{cls.__name__}({shown})"
    if cls in REPRS:
        assert repr(record) == REPRS[cls]

    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record

    for name in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == same
