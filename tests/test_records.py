"""The record types are immutable named tuples; five of them validate their input."""

import pickle
from fractions import Fraction

import pytest

from hdpart.cache import CacheRecord
from hdpart.hydral import BlockStats, LinearPartition
from hdpart.lattice import AdmissibleSet, ConstraintSpec, Partition
from hdpart.macmahon import ConjectureReport, DiscrepancyRecord
from hdpart.mpart import AlphaQuery, bounding_region, orbit_reps
from hdpart.series import HalfPower


def _records():
    return [
        CacheRecord("P", (3, 5), 24, "test"),
        LinearPartition((2, 1)),
        BlockStats.of((3, 1)),
        Partition(2, [(0, 0), (1, 0)]),
        AdmissibleSet(2, [(1, 0), (0, 1)]),
        ConstraintSpec(size=4),
        DiscrepancyRecord("Y-level", (3, 1), 2, 2),
        ConjectureReport("sparsity", "d_max=3", "holds", {"collision_count": 0}),
        orbit_reps(2, 2)[0],
        bounding_region(orbit_reps(2, 2)[0].rep, 4),
        AlphaQuery(3, 5, 13),
        HalfPower(Fraction(-1, 2)),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_record_fields_are_read_only(record):
    field = record._fields[-1]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_record_pickles(record):
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: Partition(2, [(1, 0)]), id="partition-not-downward-closed"),
        pytest.param(lambda: AdmissibleSet(2, [(1, 0), (1, 1)]), id="admissible-not-antichain"),
        pytest.param(lambda: LinearPartition((1, 3)), id="linear-partition-increasing"),
        pytest.param(lambda: AlphaQuery(3, 5, 13, profile=(2, 3, 5, 13)), id="alpha-profile-start"),
        pytest.param(lambda: HalfPower(-1), id="half-power-integer"),
    ],
)
def test_validating_records_reject_bad_input(build):
    with pytest.raises(ValueError):
        build()


def test_validating_records_normalise_their_fields():
    assert Partition(2, [(1, 0), (0, 0), (0, 0)]).points == ((0, 0), (1, 0))
    assert AdmissibleSet(2, [(1, 0), (0, 1), (1, 0)]).points == ((0, 1), (1, 0))
    assert LinearPartition([2, 1]).parts == (2, 1)
    assert HalfPower("-3/2").exponent == Fraction(-3, 2)


def test_record_repr_is_unchanged():
    assert repr(AlphaQuery(3, 5, 13)) == "AlphaQuery(k=3, q=5, m=13, length=None, profile=None)"
    assert repr(ConstraintSpec(size=4)) == (
        "ConstraintSpec(size=4, embedding_dim=None, min_socle_degree=None, "
        "hilbert_samuel=None, quadric_count=None, tail_mass=None, length=None)"
    )
