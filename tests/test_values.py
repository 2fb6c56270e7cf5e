"""Value semantics of the public record types: equality, hashing, repr,
immutability, keyword construction, pickling and copying."""

import copy
import pickle
from fractions import Fraction

import pytest

from sboxforge import (
    AnalysisReport,
    BitPermutation,
    BooleanFunctionTable,
    FixedPointReport,
    PropertyStats,
    ReportComparison,
    SBox,
    WalshSpectrum,
    analyze,
)


def _stats():
    return PropertyStats(Fraction(1, 4), Fraction(3, 4), Fraction(1, 2), 0.25)


def _report():
    return analyze(SBox(3, (5, 3, 0, 6, 1, 7, 2, 4)))


# Each type: a builder of one value, and its field names in constructor order.
VALUES = {
    SBox: (lambda: SBox(2, (1, 3, 0, 2)), ("n", "table")),
    BitPermutation: (lambda: BitPermutation((2, 0, 1)), ("images",)),
    FixedPointReport: (lambda: FixedPointReport(frozenset({1}), frozenset({4, 6})),
                       ("fixed", "reverse_fixed")),
    BooleanFunctionTable: (lambda: BooleanFunctionTable((0, 1, 1, 0)), ("values",)),
    WalshSpectrum: (lambda: WalshSpectrum((0, 0, 0, 4)), ("coefficients",)),
    PropertyStats: (_stats, ("min", "max", "avg", "sd")),
    AnalysisReport: (_report, ("n", "bijective", "fixed_points", "nl", "nl_bound", "sac",
                               "bic_nl", "bic_sac")),
    ReportComparison: (lambda: ReportComparison(False, ("nl.min", "sac.sd")),
                       ("equal", "differences")),
}

TYPES = pytest.mark.parametrize("kind", list(VALUES), ids=lambda kind: kind.__name__)


def _fields(value, names):
    return tuple(getattr(value, name) for name in names)


@TYPES
def test_equal_values_have_equal_hashes(kind):
    build, names = VALUES[kind]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(_fields(a, names))


@TYPES
def test_keyword_construction(kind):
    build, names = VALUES[kind]
    value = build()
    fields = _fields(value, names)
    assert kind(**dict(zip(names, fields))) == value
    assert kind(*fields) == value


@TYPES
def test_equal_only_to_its_own_type(kind):
    build, names = VALUES[kind]
    value = build()
    fields = _fields(value, names)
    assert value != fields and fields != value
    assert value.__eq__(fields) is NotImplemented

    class Derived(kind):
        pass

    assert value != Derived(*fields)


@TYPES
def test_fields_refuse_assignment_and_deletion(kind):
    build, names = VALUES[kind]
    value = build()
    for name in names:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.other = 1


@TYPES
def test_pickle_and_copy_round_trip(kind):
    build, names = VALUES[kind]
    value = build()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(value, protocol))
        assert type(again) is kind and again == value and hash(again) == hash(value)
    for again in (copy.copy(value), copy.deepcopy(value)):
        assert type(again) is kind and again == value
        assert repr(again) == repr(value)


def test_constructors_coerce_sequences_to_tuples():
    assert SBox(2, [1, 3, 0, 2]).table == (1, 3, 0, 2)
    assert BitPermutation([2, 0, 1]).images == (2, 0, 1)
    assert BooleanFunctionTable([0, 1]).values == (0, 1)
    assert SBox(2, [1, 3, 0, 2]) == SBox(2, (1, 3, 0, 2))


def test_sbox_is_not_its_field_tuple():
    table = tuple(range(16))
    assert SBox(4, table) != (4, table)
    assert (4, table) != SBox(4, table)


def test_reprs_are_pinned():
    assert repr(SBox(2, (1, 3, 0, 2))) == "SBox(n=2, table=(1, 3, 0, 2))"
    assert repr(BitPermutation((2, 0, 1))) == "BitPermutation(images=(2, 0, 1))"
    assert repr(_stats()) == ("PropertyStats(min=Fraction(1, 4), max=Fraction(3, 4), "
                              "avg=Fraction(1, 2), sd=0.25)")
    assert repr(FixedPointReport(frozenset(), frozenset({4}))) == (
        "FixedPointReport(fixed=frozenset(), reverse_fixed=frozenset({4}))")
    assert repr(ReportComparison(True, ())) == "ReportComparison(equal=True, differences=())"
    report = _report()
    assert repr(report) == (f"AnalysisReport(n=3, bijective=True, fixed_points={report.fixed_points!r}, "
                            f"nl={report.nl!r}, nl_bound=2, sac={report.sac!r}, "
                            f"bic_nl={report.bic_nl!r}, bic_sac={report.bic_sac!r})")

