import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sboxforge import SBox, analysis, analyze, cli, formats
from sboxforge.formats import (
    load_sbox,
    parse_sbox_text,
    render_report_json,
    render_report_text,
    serialize_sbox,
)

from oracles import (
    format_decimal_by_fraction,
    parse_sbox_text_by_token,
    random_bijective,
    report_document_by_fraction,
    report_json_by_json_module,
    report_text_by_lines,
)
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
    with pytest.raises(ValueError, match="^no entries found$"):
        parse_sbox_text("")
    with pytest.raises(ValueError, match="^no entries found$"):
        parse_sbox_text("# only comments\n")
    with pytest.raises(ValueError, match="^entry count 3 is not a power of two$"):
        parse_sbox_text("0 1 2")
    with pytest.raises(ValueError, match="^invalid entry 'junk'$"):
        parse_sbox_text("0 1 2 junk")
    with pytest.raises(ValueError, match="^entry 4 out of range for width 2$"):
        parse_sbox_text("0 1 2 4")
    with pytest.raises(ValueError, match=r"^bit width must be in \[2, 16\], got 1$"):
        parse_sbox_text("0 1")  # below the minimum width


@pytest.mark.parametrize("token, value", [("1_0", 10), ("٣", 3), ("0x_1", 1), ("0x٣", 3)])
def test_parse_takes_ascii_entries_only(token, value):
    # Python's int alone would read each token as `value`, a valid entry
    # here, in a decimal table and in an all-hex one; a comment may hold any text.
    for form in ("{}", "0x{:x}"):
        entries = [form.format(v) for v in range(16)]
        entries[value] = token
        with pytest.raises(ValueError, match=f"^invalid entry {re.escape(repr(token))}$"):
            parse_sbox_text(" ".join(entries))
    comment = f"0 1 2 3 # {token} 1_0 ٣ é\n"
    assert parse_sbox_text(comment).table == (0, 1, 2, 3)
    assert parse_sbox_text(comment + " " * (2 * formats.MAX_ENTRIES)).table == (0, 1, 2, 3)


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:  # its class too: a NonBijectiveError would exit 2, not 1
        return type(exc), str(exc)


_SEPARATORS = st.sampled_from([" ", ",", ", ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", ",,",
                               " , ", "\u2028", "\xa0", " # comment\n", "#,1 2\r", "\n#\n",
                               "\x1c", "\x1f", "\x85", "\u3000", "#1\x0b", "#1\x0c", "#1\x1c",
                               "#1\x1d", "#1\x1e", "#1\x1f", "#1\x85", "#1\u2028", "#1\u2029",
                               "#1 # 2\r\n"])
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


@settings(max_examples=200, deadline=None)
@given(_sbox_texts())
def test_long_texts_parse_as_short_ones(text):
    # Past 2 * MAX_ENTRIES characters a text is read by a regex, not split into lines.
    padded = text + " " * (2 * formats.MAX_ENTRIES)
    assert _outcome(parse_sbox_text, padded) == _outcome(parse_sbox_text_by_token, text)


@pytest.mark.parametrize("end", ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029"])
@pytest.mark.parametrize("padding", [0, 2 * formats.MAX_ENTRIES], ids=["short", "long"])
def test_comment_ends_where_str_splitlines_ends_a_line(end, padding):
    # A text longer than 2 * MAX_ENTRIES is read by a regex.
    pad = " " * padding
    assert parse_sbox_text(f"0 1 # 9 9{end}2 3 #{end}{pad}").table == (0, 1, 2, 3)
    assert parse_sbox_text(f"0 1 2 3 # 9\x1f9{end}{pad}").table == (0, 1, 2, 3)  # \x1f ends no line


def _bounded_file(tmp_path, table, size):
    """The table in "0xffff, " form with a comment per row, padded by a
    trailing comment to exactly `size` bytes."""
    rows = [", ".join(f"0x{v:04x}" for v in table[i:i + 16]) + f",  # row {i // 16}\n"
            for i in range(0, len(table), 16)]
    text = "# header\n" + "".join(rows)
    path = tmp_path / "table.txt"
    path.write_text(text + "#" * (size - len(text)))
    return str(path)


def test_a_file_at_both_bounds_loads(tmp_path):
    # Exactly MAX_ENTRIES entries, with comments, in exactly MAX_FILE_BYTES bytes.
    table = random_bijective(random.Random(16), 16)
    assert len(table) == formats.MAX_ENTRIES
    path = _bounded_file(tmp_path, table, formats.MAX_FILE_BYTES)
    assert os.path.getsize(path) == formats.MAX_FILE_BYTES
    assert load_sbox(path).table == tuple(table)


@pytest.mark.parametrize("name", ["missing.txt", "."], ids=["missing", "directory"])
def test_an_unreadable_path_is_named_as_open_names_it(name, tmp_path):
    path = str(tmp_path / name)
    with pytest.raises(OSError) as opened:
        with open(path, "rb") as handle:
            handle.read()
    with pytest.raises(ValueError, match=f"^{re.escape(f'cannot read {path}: {opened.value}')}$"):
        load_sbox(path)


def test_one_byte_or_entry_past_a_bound_is_refused(tmp_path):
    table = random_bijective(random.Random(16), 16)
    path = _bounded_file(tmp_path, table, formats.MAX_FILE_BYTES + 1)
    with pytest.raises(ValueError, match=rf"^cannot read {re.escape(path)}: more than 1048576 bytes$"):
        load_sbox(path)
    with pytest.raises(ValueError, match="^more than 65536 entries$"):
        parse_sbox_text("# one too many\n" + "0, " * (formats.MAX_ENTRIES + 1))
    # Exactly MAX_ENTRIES entries, in a text long enough to be read by the regex.
    text = "1 " * formats.MAX_ENTRIES + "  "
    assert len(text) > 2 * formats.MAX_ENTRIES
    assert parse_sbox_text(text).table == (1,) * formats.MAX_ENTRIES


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


def test_decimal_exact_and_ties():
    assert formats._decimal(29, 64) == "0.453125"
    assert formats._decimal(9, 16) == "0.562500"
    assert formats._decimal(1, 2) == "0.500000"
    assert formats._decimal(0, 1) == "0.000000"
    assert formats._decimal(112, 1) == "112.000000"
    # half-to-even on exact decimal ties
    assert formats._decimal(1, 128) == "0.007812"
    assert formats._decimal(3, 128) == "0.023438"


@st.composite
def _decimal_values(draw):
    """Non-negative ints, floats and Fractions over 2**k * m, and exact ties
    at the sixth decimal place: odd multiples of 1 / (2 * 10**6)."""
    kind = draw(st.sampled_from(["int", "float", "fraction", "tie"]))
    if kind == "int":
        return draw(st.integers(0, 10**30))
    if kind == "float":
        return draw(st.floats(min_value=0, allow_nan=False, allow_infinity=False))
    if kind == "tie":
        return Fraction(2 * draw(st.integers(0, 10**9)) + 1, 2_000_000)
    m = draw(st.sampled_from([1, 3, 5, 7, 15, 25, 125, 625, 3125, 15625, 78125]))
    return Fraction(draw(st.integers(0, 10**12)), m << draw(st.integers(0, 80)))


@settings(max_examples=600, deadline=None)
@given(_decimal_values())
@example(Fraction(1, 128))  # 0.0078125, a tie rounded down to even
@example(Fraction(3, 128))  # 0.0234375, a tie rounded up to even
@example(0.5)
@example(2.5e-07)
@example(5e-324)
@example(True)
def test_format_decimal_matches_the_fraction_version(value):
    # A value in lowest terms, as its own integer ratio; a float sd comes so.
    assert formats._decimal(*value.as_integer_ratio()) == format_decimal_by_fraction(value)


@settings(max_examples=600, deadline=None)
@given(_decimal_values(), st.integers(1, 10**9))
@example(Fraction(1, 128), 3)  # a tie rounded down to even, as 3 / 384
@example(Fraction(3, 128), 1 << 40)  # a tie rounded up to even
@example(Fraction(1, 2_000_000), 7)
@example(0, 5)
def test_a_ratio_rounds_as_its_lowest_terms(value, k):
    # The CLI renders a report's ratios as they come, not in lowest terms.
    numerator, denominator = value.as_integer_ratio()
    assert formats._decimal(k * numerator, k * denominator) == format_decimal_by_fraction(value)


def _table(kind, n, rng):
    """A table of width n: random bijective, random, identity, constant, or
    affine x -> Mx ^ c for a random (maybe singular) bit matrix M."""
    size = 1 << n
    if kind == "bijective":
        return random_bijective(rng, n)
    if kind == "random":
        return [rng.randrange(size) for _ in range(size)]
    if kind == "identity":
        return list(range(size))
    if kind == "constant":
        return [rng.randrange(size)] * size
    columns, c = [rng.randrange(size) for _ in range(n)], rng.randrange(size)
    table = [c]
    for i, column in enumerate(columns):  # entry x | 2**i is entry x ^ column i
        table += [v ^ column for v in table]
    return table


_KINDS = st.sampled_from(["bijective", "random", "identity", "constant", "affine"])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16]), _KINDS,
       st.randoms(use_true_random=False))
def test_render_report_json_is_json_dumps_layout(n, kind, rng):
    # Fixed-point lists run from empty (most tables) to all 2**n entries (identity).
    report = analysis._report(SBox(n, tuple(_table(kind, n, rng))))
    assert render_report_json(report) == report_json_by_json_module(formats._document(report))


@pytest.fixture(scope="module")
def sbox_file(tmp_path_factory):
    return str(tmp_path_factory.mktemp("analyze") / "sbox.txt")


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 12), _KINDS, st.randoms(use_true_random=False))
def test_analyze_prints_the_librarys_report(sbox_file, n, kind, rng):
    # The CLI renders a report's integer form, the library's analyze makes
    # Fractions of it: both print the same bytes, the latter through the
    # Fraction rounding that the report's document was first built with.
    s = SBox(n, tuple(_table(kind, n, rng)))
    with open(sbox_file, "w") as handle:
        handle.write(serialize_sbox(s))
    document = report_document_by_fraction(analyze(s))
    expected = {"text": report_text_by_lines(document), "json": report_json_by_json_module(document)}
    for form, text in expected.items():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["analyze", sbox_file, "--format", form]) == cli.EXIT_OK
        assert out.getvalue() == text


def test_render_report_text_golden():
    assert render_report_text(analysis._report(SBox.from_table(AES_SBOX))) == AES_REPORT_TEXT


@pytest.mark.parametrize("table, text, document", [
    (AES_SBOX, AES_REPORT_TEXT, AES_REPORT_JSON),
    (N2, N2_REPORT_TEXT, N2_REPORT_JSON),
    (NONBIJECTIVE4, NONBIJECTIVE4_REPORT_TEXT, NONBIJECTIVE4_REPORT_JSON),
])
def test_render_report_bytes(table, text, document):
    report = analysis._report(SBox.from_table(table))
    assert render_report_text(report) == text
    assert render_report_json(report) == document


def test_render_report_json_schema_and_values():
    document = json.loads(render_report_json(analysis._report(SBox.from_table(SEED4))))
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
    report_a = analysis._report(SBox.from_table(AES_SBOX))
    report_b = analysis._report(SBox.from_table(AES_SBOX))
    assert render_report_text(report_a) == render_report_text(report_b)
    assert render_report_json(report_a) == render_report_json(report_b)


def test_fingerprint_reference():
    prefix, digest = formats._fingerprint(CLONE4)
    assert prefix == "10 6 14 13 11 15 7 12"
    assert digest == "2ce84f70887f49b1"
    assert len(digest) == 16


@pytest.mark.parametrize("n", range(2, 17))
def test_fingerprint_hashes_the_decimal_table(n):
    rng = random.Random(n)
    for table in (random_bijective(rng, n), [rng.randrange(1 << n) for _ in range(1 << n)]):
        prefix, digest = formats._fingerprint(table)
        assert prefix == " ".join(map(str, table[:8]))
        assert digest == hashlib.sha256(" ".join(map(str, table)).encode()).hexdigest()[:16]


def test_fingerprint_falls_back_to_hashlib(child_env):
    # On an interpreter built without its own SHA-256 modules, _fingerprint
    # takes hashlib's, with the same digests.
    probe = ("import sys; sys.modules['_sha256'] = sys.modules['_sha2'] = None; "
             "import hashlib, random; from sboxforge import formats; "
             "rng = random.Random(5); tables = [rng.sample(range(1 << n), 1 << n) for n in (2, 8, 12)]; "
             "print(formats.sha256 is hashlib.sha256, [formats._fingerprint(t)[1] "
             "== hashlib.sha256(' '.join(map(str, t)).encode()).hexdigest()[:16] for t in tables])")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=child_env, check=True)
    assert result.stdout == "True [True, True, True]\n"


def _serialize_by_lines(s):
    """serialize_sbox as it was before it formatted with one % operation."""
    cells = [str(v) for v in s.table]
    return "\n".join(" ".join(cells[i:i + 16]) for i in range(0, len(cells), 16)) + "\n"


@pytest.mark.parametrize("n", range(2, 17))
def test_serialize_matches_line_form_and_round_trips(n):
    # 16 entries a line, the 4 and 8 entries of n = 2 and 3 on one line, the
    # bytes of the line-by-line form, and parse_sbox_text reads the table back.
    rng = random.Random(n)
    for table in (random_bijective(rng, n), [rng.randrange(1 << n) for _ in range(1 << n)]):
        s = SBox(n, tuple(table))
        text = serialize_sbox(s)
        assert text == _serialize_by_lines(s)
        assert text.count("\n") == max(len(table) // 16, 1)
        assert parse_sbox_text(text) == s
