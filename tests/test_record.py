"""The contract of ``levode.record.Record`` over every record class.

Each check runs once per class (``pytest_generate_tests`` below), against
``dataclasses`` as the reference.  The file needs neither pytest nor
numpy, so it also runs as a plain script on any supported interpreter:
``PYTHONPATH=src python tests/test_record.py``.
"""

from __future__ import annotations

import contextlib
import dataclasses
from fractions import Fraction

from levode.error_ledger import ErrorLedger, LedgerEntry, LedgerNorms
from levode.levinson_solver import DichotomyReport, ExponentData, PairResult, Solution
from levode.ode_connector import LinearSystem, PoleInInterval
from levode.record import Record
from levode.symexpr import SymMatrix
from levode.system_model import Monomial, ProblemSpec, ResonanceHit, ResonanceReport
from levode.transform_engine import (
    CommittedError,
    CommutatorTerms,
    FinalState,
    IterationRecord,
    IterationState,
    PSplit,
)
from levode.verify import CheckRow

RECORDS = (
    Monomial, ProblemSpec, ResonanceHit, ResonanceReport,
    PSplit, CommutatorTerms, CommittedError, IterationState, IterationRecord, FinalState,
    LedgerEntry, ErrorLedger, LedgerNorms,
    ExponentData, PairResult, DichotomyReport, Solution,
    LinearSystem,
    CheckRow,
)


def pytest_generate_tests(metafunc):
    if "cls" in metafunc.fixturenames:
        metafunc.parametrize("cls", RECORDS, ids=[c.__name__ for c in RECORDS])


@contextlib.contextmanager
def raises(exc: type[BaseException]):
    try:
        yield
    except exc:
        return
    raise AssertionError(f"{exc.__name__} not raised")


def samples(cls) -> tuple[tuple, tuple]:
    """Two tuples of distinct field values that cls accepts."""
    if cls is LinearSystem:
        return (
            (SymMatrix([["x"]]), (Fraction(1), Fraction(2))),
            (SymMatrix([["1/x"]]), (Fraction(3), Fraction(4))),
        )
    n = len(cls._fields)
    return tuple(range(100, 100 + n)), tuple(range(200, 200 + n))


def test_every_record_class_is_listed():
    assert set(Record.__subclasses__()) == set(RECORDS)
    assert len(RECORDS) == 19


def test_fields_come_in_declaration_order(cls):
    values, _ = samples(cls)
    obj = cls(*values)
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(obj)
    names = [f.name for f in dataclasses.fields(obj)]
    assert names == list(cls.__annotations__) == list(cls._fields)
    assert tuple(getattr(obj, name) for name in names) == values
    assert obj == cls(**dict(zip(names, values)))


def test_replace_and_asdict_agree_with_the_fields(cls):
    values, other = samples(cls)
    obj = cls(*values)
    names = cls._fields
    assert dataclasses.asdict(obj) == dict(zip(names, values))
    changed = dataclasses.replace(obj, **{names[-1]: other[-1]})
    assert changed == cls(*values[:-1], other[-1])
    assert obj._replace(**{names[-1]: other[-1]}) == changed
    assert dataclasses.replace(obj) == obj and dataclasses.replace(obj) is not obj


def test_eq_hash_and_repr_match_a_frozen_dataclass(cls):
    values, other = samples(cls)
    twin = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)
    obj = cls(*values)
    assert hash(obj) == hash(values) == hash(twin(*values))
    assert repr(obj) == repr(twin(*values))
    assert obj == cls(*values) and not obj != cls(*values)
    assert obj != cls(*other) and obj != twin(*values) and obj != values


def test_fields_can_be_neither_assigned_nor_deleted(cls):
    values, other = samples(cls)
    obj = cls(*values)
    for name in (cls._fields[0], "unknown"):
        with raises(AttributeError):
            setattr(obj, name, other[0])
        with raises(AttributeError):
            delattr(obj, name)
    assert getattr(obj, cls._fields[0]) == values[0]


def test_bad_arguments_raise_type_error(cls):
    values, _ = samples(cls)
    names = cls._fields
    required = sum(name not in vars(cls) for name in names)
    keywords = dict(zip(names, values))
    calls = [
        # missing, by position and by keyword
        lambda: cls(*values[:required - 1]),
        lambda: cls(**{k: v for k, v in keywords.items() if k != names[0]}),
        # repeated, by position and keyword at once
        lambda: cls(values[0], **keywords),
        # one too many by position, an unknown keyword
        lambda: cls(*values, values[0]),
        lambda: cls(*values, unknown=0),
    ]
    for call in calls:
        with raises(TypeError):
            call()


def test_linear_system_screens_poles_after_init():
    A = SymMatrix([["1/x"]])
    with raises(PoleInInterval):
        LinearSystem(A, (Fraction(-1), Fraction(1)))
    system = LinearSystem(A, (Fraction(1), Fraction(2)))
    with raises(PoleInInterval):
        dataclasses.replace(system, domain=(Fraction(0), Fraction(2)))


def test_problem_spec_back_transform_defaults_to_none():
    values = samples(ProblemSpec)[0][:-1]
    assert ProblemSpec.back_transform is None
    assert ProblemSpec(*values).back_transform is None
    assert dataclasses.fields(ProblemSpec)[-1].default is None


if __name__ == "__main__":
    import sys

    for name, test in list(globals().items()):
        if name.startswith("test_"):
            params = test.__code__.co_varnames[:test.__code__.co_argcount]
            for cls in RECORDS if "cls" in params else [None]:
                test(cls) if cls else test()
    print(f"{sys.version.split()[0]}: record contract holds")
