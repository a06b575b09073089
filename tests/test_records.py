"""The frozen dataclass records refuse assignment and deletion of any name."""

import dataclasses

import pytest

from quadfield import (
    AlgebraKind,
    ComplexQuad,
    ConvergenceBounds,
    Factorization,
    Loop,
    Poly,
    SeriesSpec,
    WindingQuery,
    exp_form,
    f4,
    one,
    represent,
    to_canonical,
    trig_form,
)

C = AlgebraKind.CIRCULAR

RECORDS = [
    SeriesSpec(C, (one(C),)),
    ConvergenceBounds(1.0, (1.0, 2.0)),
    Loop.circle(one(C), 0.5, samples=16),
    WindingQuery((0.0, 0.0), ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (1.0, 0.0))),
    *(to_canonical(one(kind)) for kind in AlgebraKind),
    exp_form(one(C)),
    trig_form(one(C)),
    f4(0),
    represent(one(C)),
    Poly(C, (one(C),)),
    ComplexQuad(AlgebraKind.HYPERBOLIC, 1j, 0j, 0j, 0j),
    Factorization((), 0.0),
]


def test_the_fifteen_records_are_listed_once():
    assert len({type(r) for r in RECORDS}) == len(RECORDS) == 15
    assert all(dataclasses.is_dataclass(r) for r in RECORDS)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_assign_and_delete_raise_frozen_instance_error(record):
    before = repr(record)
    for name in [f.name for f in dataclasses.fields(record)] + ["not_a_field"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    assert repr(record) == before
