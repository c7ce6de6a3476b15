"""The value classes: repr, ==, hash, immutability and keyword construction."""

import tracemalloc

import pytest

from k3count import (
    Ade,
    CurveRecord,
    GenusSumReport,
    MultiBranch,
    NODE,
    PlanarPQ,
    Route,
    SemigroupPoint,
    TruncatedSeries,
    semigroup_from_generators,
)
from k3count.numsg import NumericalSemigroup
from k3count.semimodule import GammaModule, NecklaceProfile

S35 = "NumericalSemigroup(generators=(3, 5))"

# (constructor, keyword arguments, repr) for one value of each class
RECORDS = [
    (NumericalSemigroup, {"generators": (3, 5)}, S35),
    (TruncatedSeries, {"coeffs": (1, -24, 252)}, "TruncatedSeries([1, -24, 252])"),
    (GammaModule,
     {"semigroup": semigroup_from_generators((3, 5)), "gap_set": (0, 1, 3, 6)},
     f"GammaModule(semigroup={S35}, apery=(9, 4, 2))"),
    (NecklaceProfile, {"p": 3, "q": 5, "members": (5, 7, 8)},
     "NecklaceProfile(p=3, q=5, members=(5, 7, 8))"),
    (PlanarPQ, {"p": 2, "q": 3}, "PlanarPQ(p=2, q=3)"),
    (Ade, {"family": "E", "index": 8}, "Ade(family='E', index=8)"),
    (SemigroupPoint, {"semigroup": semigroup_from_generators((3, 5))},
     f"SemigroupPoint(semigroup={S35})"),
    (MultiBranch, {"branches": (PlanarPQ(2, 3), Ade("A", 1))},
     "MultiBranch(branches=(PlanarPQ(p=2, q=3), Ade(family='A', index=1)))"),
    (CurveRecord, {"label": "line 1", "singularities": (Ade("E", 8), NODE)},
     "CurveRecord(label='line 1', singularities=(Ade(family='E', index=8), "
     "MultiBranch(branches=(PlanarPQ(p=1, q=1), PlanarPQ(p=1, q=1)))))"),
    (GenusSumReport, {"sum": 24, "expected": 24},
     "GenusSumReport(sum=24, expected=24, equal=True)"),
    (Route, {"method": "enumeration", "value": 7},
     "Route(method='enumeration', value=7, reason=None)"),
]


@pytest.fixture(params=RECORDS, ids=lambda record: record[0].__name__)
def record(request):
    return request.param


def test_repr(record):
    cls, kwargs, expected = record
    assert repr(cls(**kwargs)) == expected


def test_equal_values_are_equal_and_hash_alike(record):
    cls, kwargs, _ = record
    a, b = cls(**kwargs), cls(*kwargs.values())
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


def test_unequal_to_a_record_of_another_class(record):
    cls, kwargs, _ = record
    value = cls(**kwargs)
    others = [other(**kw) for other, kw, _ in RECORDS if other is not cls]
    assert all(value != other and other != value for other in others)


def test_fields_cannot_be_assigned_or_deleted(record):
    cls, kwargs, _ = record
    value = cls(**kwargs)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is not None


def test_unequal_values_differ():
    assert PlanarPQ(2, 3) != PlanarPQ(3, 2)
    assert GenusSumReport(1, 2) != GenusSumReport(1, 3)
    assert Route("enumeration", 7) != Route(reason="enumeration window 11 exceeds max-window 5")
    # the same field values, ((3, 5),), and the same hash: only the class tells them apart
    s, series = NumericalSemigroup((3, 5)), TruncatedSeries((3, 5))
    assert s != series and series != s


def test_semigroup_compares_without_its_gap_list():
    # the generators determine the gap set, so ==, hash and repr never
    # build the 1999000 gaps of <2000,2001>, about 90 MiB
    a, b = (SemigroupPoint(NumericalSemigroup((2000, 2001))) for _ in range(2))
    tracemalloc.start()
    try:
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "SemigroupPoint(semigroup=NumericalSemigroup(generators=(2000, 2001)))"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "gap_set" not in vars(a.semigroup)
    assert peak < 2 ** 20


def test_genus_sum_report_derives_equal():
    assert GenusSumReport(24, 24).equal is True
    assert GenusSumReport(323, 324).equal is False
    with pytest.raises(TypeError):
        GenusSumReport(24, 24, False)


@pytest.mark.parametrize("value", [semigroup_from_generators((3, 5))], ids=["NumericalSemigroup"])
def test_apery_is_derived_and_not_printed(value):
    assert len(value.apery) == 3
    assert "apery" not in repr(value)


def test_module_stores_apery_and_derives_its_gap_list():
    m = GammaModule(semigroup_from_generators((3, 5)), (0, 1, 3, 6))
    assert m.gap_set == (0, 1, 3, 6)
    assert set(vars(m)) == {"semigroup", "apery"}


def test_cached_property_is_stored_on_an_immutable_value():
    sing = PlanarPQ(3, 5)
    assert sing.epsilon == 7
    assert vars(sing)["epsilon"] == 7
    assert sing == PlanarPQ(3, 5) and repr(sing) == "PlanarPQ(p=3, q=5)"
