"""File and report formats owned by the command-line front end.

S-box files are flat lists of 2**n integers (decimal or 0x-prefixed hex),
separated by whitespace or commas, with '#' comments; a leading UTF-8 byte
order mark is skipped. A report renders as key: value text or as JSON, both
from one document of its fields, with decimals rounded half-to-even to six
places; identical inputs always produce byte-identical output.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from itertools import repeat

from .analysis import AnalysisReport, PropertyStats
from .core import SBox


class SBoxFileError(ValueError):
    """Malformed s-box file contents."""


def _entry(token: str) -> int:
    try:
        return int(token, 16) if token[:2].lower() == "0x" else int(token, 10)
    except ValueError as exc:
        raise SBoxFileError(f"invalid entry {token!r}") from exc


def _values(tokens: list[str]) -> list[int]:
    try:
        return list(map(int, tokens))
    except ValueError:  # hex entries, or a bad one to report
        pass
    # Tokens hold no space, so after a space in the text that joins them,
    # each one that starts with 0x or 0X starts one " 0x" or " 0X".
    joined = " " + " ".join(tokens)
    if joined.count(" 0x") + joined.count(" 0X") == len(tokens):
        try:
            return list(map(int, tokens, repeat(16)))
        except ValueError:
            pass
    return list(map(_entry, tokens))  # mixed entries, or a bad one to report


def parse_sbox_text(text: str) -> SBox:
    body = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    values = _values(body.replace(",", " ").split())
    if not values:
        raise SBoxFileError("no entries found")
    try:
        return SBox.from_table(values)
    except ValueError as exc:
        raise SBoxFileError(str(exc)) from exc


def load_sbox(path: str) -> SBox:
    try:
        # Raw bytes decoded in one call: a buffered or text-mode read costs a
        # fresh process more, with the same errors.
        with open(path, "rb", buffering=0) as handle:
            text = handle.readall().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SBoxFileError(f"cannot read {path}: {exc}") from exc
    # Not encoding="utf-8-sig": loading that codec costs a fresh process about 1.5 ms.
    return parse_sbox_text(text.removeprefix("\ufeff"))


def serialize_sbox(s: SBox) -> str:
    """Render 16 decimal entries per line; round-trips through parse_sbox_text."""
    cells = [str(v) for v in s.table]
    lines = [" ".join(cells[i:i + 16]) for i in range(0, len(cells), 16)]
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def _decimals(n: int) -> list[str]:
    """str(v) for every entry value v of width n, built on first use."""
    return list(map(str, range(1 << n)))


def fingerprint(s: SBox) -> tuple[str, str]:
    """(first eight entries, 16-hex-digit table hash) for compact listings."""
    cells = list(map(_decimals(s.n).__getitem__, s.table))
    digest = hashlib.sha256(" ".join(cells).encode()).hexdigest()[:16]
    return " ".join(cells[:8]), digest


def format_decimal(value) -> str:
    """Exact round-half-even rendering of a non-negative int, float or Fraction
    to six places; a negative value raises ValueError."""
    numerator, denominator = value.as_integer_ratio()
    if numerator < 0:
        raise ValueError(f"format_decimal takes a non-negative value, got {value!r}")
    whole, remainder = divmod(numerator * 1_000_000, denominator)
    # Up past half, or at exactly half when that makes `whole` even.
    if 2 * remainder + (whole & 1) > denominator:
        whole += 1
    return f"{whole // 1_000_000}.{whole % 1_000_000:06d}"


def _document(report: AnalysisReport) -> dict:
    """The report's fields in output order. Each statistic is a dict of its int
    values and the format_decimal texts of the others; nl carries no sd."""
    def stats(s: PropertyStats, fields=("min", "max", "avg", "sd")) -> dict:
        cells = {f: getattr(s, f) for f in fields}
        return {f: v if isinstance(v, int) else format_decimal(v) for f, v in cells.items()}

    return {
        "n": report.n,
        "bijective": report.bijective,
        "fixed_points": sorted(report.fixed_points.fixed),
        "reverse_fixed_points": sorted(report.fixed_points.reverse_fixed),
        "nl": stats(report.nl, ("min", "max", "avg")),
        "nl_bound": report.nl_bound,
        "sac": stats(report.sac),
        "bic_nl": stats(report.bic_nl),
        "bic_sac": stats(report.bic_sac),
    }


def render_report_text(report: AnalysisReport) -> str:
    """One `key: value` line per field; a statistic as `k=v` pairs, bijective as true/false."""
    lines = []
    for key, value in _document(report).items():
        if isinstance(value, dict):
            value = " ".join(f"{k}={v}" for k, v in value.items())
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def render_report_json(report: AnalysisReport) -> str:
    """The report document in json.dumps(indent=2)'s layout, written out here:
    each decimal text a JSON number, repr(float(text)) as json writes it."""
    fields = []
    for key, value in _document(report).items():
        if isinstance(value, dict):
            value = "{\n" + ",\n".join(
                f'    "{k}": {v if isinstance(v, int) else repr(float(v))}'
                for k, v in value.items()) + "\n  }"
        elif isinstance(value, list):
            value = "[\n    " + ",\n    ".join(map(str, value)) + "\n  ]" if value else "[]"
        elif isinstance(value, bool):
            value = "true" if value else "false"
        fields.append(f'  "{key}": {value}')
    return "{\n" + ",\n".join(fields) + "\n}\n"
