import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sboxforge import SBox, analyze
from sboxforge.formats import (
    SBoxFileError,
    fingerprint,
    format_decimal,
    parse_sbox_text,
    render_report_json,
    render_report_text,
    serialize_sbox,
)

from oracles import random_bijective
from vectors import AES_SBOX, CLONE4, SEED4

AES_REPORT_TEXT = (
    "n: 8\n"
    "bijective: true\n"
    "fixed_points: []\n"
    "reverse_fixed_points: []\n"
    "nl: min=112 max=112 avg=112.000000\n"
    "nl_bound: 112\n"
    "sac: min=0.453125 max=0.562500 avg=0.504883 sd=0.015678\n"
    "bic_nl: min=112 max=112 avg=112.000000 sd=0.000000\n"
    "bic_sac: min=0.480469 max=0.525391 avg=0.504604 sd=0.011271\n"
)


def test_parse_decimal_whitespace_and_commas():
    assert parse_sbox_text("0, 1, 2, 3").table == (0, 1, 2, 3)
    assert parse_sbox_text("0 1\n2\t3").table == (0, 1, 2, 3)


def test_parse_hex_and_comments():
    text = "# header comment\n0x0 0x1 0x2 0x3  # trailing comment\n"
    assert parse_sbox_text(text).table == (0, 1, 2, 3)
    mixed = "0X0a 0x0B 2 3 " + " ".join(str(v) for v in range(4, 16))
    assert parse_sbox_text(mixed).table == (10, 11, 2, 3) + tuple(range(4, 16))


def test_parse_errors():
    with pytest.raises(SBoxFileError):
        parse_sbox_text("")
    with pytest.raises(SBoxFileError):
        parse_sbox_text("# only comments\n")
    with pytest.raises(SBoxFileError):
        parse_sbox_text("0 1 2")  # not a power of two
    with pytest.raises(SBoxFileError):
        parse_sbox_text("0 1 2 junk")
    with pytest.raises(SBoxFileError):
        parse_sbox_text("0 1 2 4")  # out of range for n=2
    with pytest.raises(SBoxFileError):
        parse_sbox_text("0 1")  # below the minimum width


def test_serialize_round_trip_decimal_and_hex():
    rng = random.Random(97)
    for n in (2, 4, 8):
        s = SBox(n, tuple(random_bijective(rng, n)))
        assert parse_sbox_text(serialize_sbox(s)) == s
        assert parse_sbox_text(" ".join(hex(v) for v in s.table)) == s


def test_serialize_layout():
    assert serialize_sbox(SBox.from_table(CLONE4)) == "10 6 14 13 11 15 7 12 3 5 1 0 2 4 8 9\n"
    lines = serialize_sbox(SBox.from_table(AES_SBOX)).splitlines()
    assert len(lines) == 16
    assert all(len(line.split()) == 16 for line in lines)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 10), st.randoms(use_true_random=False))
def test_serialize_round_trip_property(n, rng):
    # Candidate tables with duplicate entries must round-trip too.
    s = SBox(n, tuple(rng.randrange(1 << n) for _ in range(1 << n)))
    assert parse_sbox_text(serialize_sbox(s)) == s


def test_format_decimal_exact_and_ties():
    assert format_decimal(Fraction(29, 64)) == "0.453125"
    assert format_decimal(Fraction(9, 16)) == "0.562500"
    assert format_decimal(Fraction(1, 2)) == "0.500000"
    assert format_decimal(Fraction(0)) == "0.000000"
    assert format_decimal(Fraction(112)) == "112.000000"
    # half-to-even on exact decimal ties
    assert format_decimal(Fraction(1, 128)) == "0.007812"
    assert format_decimal(Fraction(3, 128)) == "0.023438"


def test_render_report_text_golden():
    assert render_report_text(analyze(SBox.from_table(AES_SBOX))) == AES_REPORT_TEXT


def test_render_report_json_schema_and_values():
    document = json.loads(render_report_json(analyze(SBox.from_table(SEED4))))
    assert list(document) == [
        "n", "bijective", "fixed_points", "reverse_fixed_points",
        "nl", "nl_bound", "sac", "bic_nl", "bic_sac",
    ]
    assert document["n"] == 4
    assert document["bijective"] is True
    assert document["fixed_points"] == []
    assert document["reverse_fixed_points"] == [4]
    assert document["nl"] == {"min": 4, "max": 4, "avg": 4.0}
    assert document["nl_bound"] == 4
    assert document["sac"]["sd"] == pytest.approx(0.132583)
    assert document["bic_sac"]["avg"] == pytest.approx(0.552083)
    assert "sd" not in document["nl"]


def test_rendering_is_deterministic():
    report_a = analyze(SBox.from_table(AES_SBOX))
    report_b = analyze(SBox.from_table(AES_SBOX))
    assert render_report_text(report_a) == render_report_text(report_b)
    assert render_report_json(report_a) == render_report_json(report_b)


def test_fingerprint_reference():
    prefix, digest = fingerprint(SBox.from_table(CLONE4))
    assert prefix == "10 6 14 13 11 15 7 12"
    assert digest == "2ce84f70887f49b1"
    assert len(digest) == 16
