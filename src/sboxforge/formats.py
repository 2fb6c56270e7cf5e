"""File and report formats owned by the command-line front end.

S-box files are flat lists of 2**n integers (decimal or 0x-prefixed hex),
separated by whitespace or commas, with '#' comments. Reports render as
stable key=value text or JSON with decimals rounded half-to-even to six
places; identical inputs always produce byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
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
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SBoxFileError(f"cannot read {path}: {exc}") from exc
    return parse_sbox_text(text)


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


def format_decimal(value, places: int = 6) -> str:
    """Exact round-half-even rendering of a non-negative rational or float."""
    f = Fraction(value)
    scale = 10 ** places
    scaled = f * scale
    whole, remainder = divmod(scaled.numerator, scaled.denominator)
    doubled = 2 * remainder
    if doubled > scaled.denominator or (doubled == scaled.denominator and whole % 2):
        whole += 1
    return f"{whole // scale}.{whole % scale:0{places}d}"


def _cell(value) -> str:
    return str(value) if isinstance(value, int) else format_decimal(value)


def _stats_text(stats: PropertyStats, with_sd: bool) -> str:
    parts = [f"min={_cell(stats.min)}", f"max={_cell(stats.max)}",
             f"avg={format_decimal(stats.avg)}"]
    if with_sd:
        parts.append(f"sd={format_decimal(stats.sd)}")
    return " ".join(parts)


def render_report_text(report: AnalysisReport) -> str:
    lines = [
        f"n: {report.n}",
        f"bijective: {'true' if report.bijective else 'false'}",
        f"fixed_points: {sorted(report.fixed_points.fixed)}",
        f"reverse_fixed_points: {sorted(report.fixed_points.reverse_fixed)}",
        f"nl: {_stats_text(report.nl, with_sd=False)}",
        f"nl_bound: {report.nl_bound}",
        f"sac: {_stats_text(report.sac, with_sd=True)}",
        f"bic_nl: {_stats_text(report.bic_nl, with_sd=True)}",
        f"bic_sac: {_stats_text(report.bic_sac, with_sd=True)}",
    ]
    return "\n".join(lines) + "\n"


def _number(value):
    return value if isinstance(value, int) else float(format_decimal(value))


def _stats_json(stats: PropertyStats, with_sd: bool) -> dict:
    out = {"min": _number(stats.min), "max": _number(stats.max),
           "avg": float(format_decimal(stats.avg))}
    if with_sd:
        out["sd"] = float(format_decimal(stats.sd))
    return out


def render_report_json(report: AnalysisReport) -> str:
    document = {
        "n": report.n,
        "bijective": report.bijective,
        "fixed_points": sorted(report.fixed_points.fixed),
        "reverse_fixed_points": sorted(report.fixed_points.reverse_fixed),
        "nl": _stats_json(report.nl, with_sd=False),
        "nl_bound": report.nl_bound,
        "sac": _stats_json(report.sac, with_sd=True),
        "bic_nl": _stats_json(report.bic_nl, with_sd=True),
        "bic_sac": _stats_json(report.bic_sac, with_sd=True),
    }
    return json.dumps(document, indent=2) + "\n"
