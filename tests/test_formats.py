import hashlib
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

from oracles import parse_sbox_text_by_token, random_bijective
from vectors import (
    AES_REPORT_JSON,
    AES_SBOX,
    CLONE4,
    N2,
    N2_REPORT_JSON,
    N2_REPORT_TEXT,
    NONBIJECTIVE4,
    NONBIJECTIVE4_REPORT_JSON,
    NONBIJECTIVE4_REPORT_TEXT,
    SEED4,
)

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


def _outcome(parse, text):
    try:
        return parse(text)
    except SBoxFileError as exc:
        return str(exc)


_SEPARATORS = st.sampled_from([" ", ",", ", ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", ",,",
                               " , ", "\u2028", "\xa0", " # comment\n", "#,1 2\r", "\n#\n",
                               "\x1c", "\x1f", "\x85", "\u3000"])
_BAD = st.sampled_from(["", "junk", "0x", "0xg", "1g", "-", "-0x1", "+3", "-2", "1_0", "٣",
                        "1.0", "0b1", "0o7", "#", "0x_1"])
_BAD_HEX = st.sampled_from(["0xg", "0x", "0x_1", "-0x1", "0X", "0Xg", "+0x1", "0x1.0"])


@st.composite
def _sbox_texts(draw):
    """Tables of 2..16 entries written in decimal and hex, mixed and padded, with
    every separator and comment form, sometimes with a bad token or a wrong count.
    Half are all hex, every entry 0x- or 0X-prefixed and any bad token hex-like."""
    n = draw(st.integers(1, 4))
    values = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1 << n, max_size=1 << n))
    if draw(st.booleans()):
        values = values[:draw(st.integers(0, len(values)))]
    all_hex = draw(st.booleans())
    forms = ["0x{:x}", "0X{:02X}", "0x{:03x}"] if all_hex else ["{}", "0x{:x}", "0X{:02X}", "{:03d}"]
    tokens = [draw(st.sampled_from(forms)).format(v) for v in values]
    for _ in range(draw(st.integers(0, 2))):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(_BAD_HEX if all_hex else _BAD))
    parts = [draw(_SEPARATORS)]
    for token in tokens:
        parts += [token, draw(_SEPARATORS)]
    return "".join(parts[draw(st.integers(0, 1)):])


@settings(max_examples=400, deadline=None)
@given(_sbox_texts())
def test_parse_matches_the_token_by_token_parser(text):
    assert _outcome(parse_sbox_text, text) == _outcome(parse_sbox_text_by_token, text)


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


@pytest.mark.parametrize("table, text, document", [
    (AES_SBOX, AES_REPORT_TEXT, AES_REPORT_JSON),
    (N2, N2_REPORT_TEXT, N2_REPORT_JSON),
    (NONBIJECTIVE4, NONBIJECTIVE4_REPORT_TEXT, NONBIJECTIVE4_REPORT_JSON),
])
def test_render_report_bytes(table, text, document):
    report = analyze(SBox.from_table(table))
    assert render_report_text(report) == text
    assert render_report_json(report) == document


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


@pytest.mark.parametrize("n", range(2, 17))
def test_fingerprint_hashes_the_decimal_table(n):
    rng = random.Random(n)
    for table in (random_bijective(rng, n), [rng.randrange(1 << n) for _ in range(1 << n)]):
        prefix, digest = fingerprint(SBox(n, tuple(table)))
        assert prefix == " ".join(map(str, table[:8]))
        assert digest == hashlib.sha256(" ".join(map(str, table)).encode()).hexdigest()[:16]
