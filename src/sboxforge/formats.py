"""File and report formats, and every byte the command-line front end reads
or writes: s-box files, stdout, -o/--out files and stderr diagnostics. Only
the line for a Ctrl-C that comes while the CLI loads is __main__'s own,
since this module has not loaded yet. Each result text has one rule here,
and the CLI passes it content: analyze's report (render_report_text and
render_report_json), a clone's table (serialize_sbox), verify's verdict
lines, which share the report text's key: value renderer, and its width
note, a sweep's CSV header and rows and its summary, and the sigma1= and
sigma2= pair that clone notes and derive prints.

S-box files are flat lists of 2**n integers (ASCII decimal or 0x-prefixed
hex), separated by whitespace or commas, with '#' comments; a leading UTF-8
byte order mark is skipped. A file is read no further once it passes
MAX_FILE_BYTES, and split into no more than one entry past MAX_ENTRIES;
either refuses it. A report renders as key: value text or as JSON, both
from one document of its fields, with decimals rounded half-to-even to six
places; identical inputs always produce byte-identical output.

A cold CLI call loads from here os, sys, contextlib, errno, stat and the
interpreter's own SHA-256, and nothing more: re only for a text too long
to split whole (_long_tokens), and no fractions or decimal module, since a
report renders from analysis._report's integer form, its ratios of ints
rounded by _decimal.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager, suppress
from errno import EBADF
from functools import lru_cache
from itertools import islice, repeat
from stat import S_ISREG

# The interpreter's own SHA-256: hashlib would load OpenSSL's libcrypto into
# every CLI call, and only enumerate hashes. Its module is chosen by version,
# since a failed import of the other name costs every call about 0.2 ms.
try:
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256  # Python 3.10 and 3.11
except ImportError:  # an interpreter built without its own hashes
    from hashlib import sha256

from .core import SBox


# The largest table has 2**16 entries; written as "0xffff, " each, it takes
# half of MAX_FILE_BYTES, which leaves room for comments and padding.
MAX_ENTRIES = 1 << 16
MAX_FILE_BYTES = 1 << 20
# Raw bytes through os.open and os.read, decoded in one call: open() and
# readall() cost a forked process about 55 us more, and a buffered or
# text-mode read more still, with the same errors. Reads of 64 KiB stop once
# they pass the bound, so an endless input such as /dev/zero stops there; a
# file of up to 64 KiB (any table up to n = 12) comes in one read and the
# empty one after it. O_BINARY, here and below: Windows would translate "\n".
_BINARY = getattr(os, "O_BINARY", 0)
_READ = os.O_RDONLY | _BINARY
# -o/--out is opened to create it, and only where that finds the path taken, to
# append to it: no stat probe before the open, and no race in which a failing
# command removes a file that another process made. Neither opens through a
# dangling symbolic link.
_CREATE = os.O_WRONLY | os.O_CREAT | os.O_EXCL | _BINARY
_APPEND = os.O_WRONLY | os.O_APPEND | _BINARY
# An entry, or a comment: from '#' to the end of its line, where
# str.splitlines ends a line.
_ENTRY_OR_COMMENT = r"[^\s,#]+|#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*"


def _entry(token: str) -> int:
    # ASCII digits, as _values checks first: int alone also takes "1_0" and "٣".
    # The CLI reads SBOXFORGE_THREADS and each --sigma1/--sigma2 item here too.
    if token.isascii() and "_" not in token:
        try:
            return int(token, 16) if token[:2].lower() == "0x" else int(token, 10)
        except ValueError:
            pass
    raise ValueError(f"invalid entry {token!r}")


def _values(tokens: list[str]) -> list[int]:
    # Tokens hold no space, so after a space in the text that joins them,
    # each one that starts with 0x or 0X starts one " 0x" or " 0X".
    joined = " " + " ".join(tokens)
    if joined.isascii() and "_" not in joined:
        try:
            return list(map(int, tokens))
        except ValueError:  # hex entries, or a bad one to report
            pass
        if joined.count(" 0x") + joined.count(" 0X") == len(tokens):
            try:
                return list(map(int, tokens, repeat(16)))
            except ValueError:
                pass
    return list(map(_entry, tokens))  # mixed entries, or a bad one to report


def _long_tokens(text: str) -> list[str]:
    """The entries of a text too long for parse_sbox_text to split whole,
    read one past MAX_ENTRIES at most, keeping nothing per line or comment:
    such a text may have hundreds of thousands."""
    import re  # here: only such a text needs it, and loading it costs every CLI call

    matches = (match[0] for match in re.finditer(_ENTRY_OR_COMMENT, text))
    tokens = list(islice((t for t in matches if t[0] != "#"), MAX_ENTRIES + 1))
    if len(tokens) > MAX_ENTRIES:
        raise ValueError(f"more than {MAX_ENTRIES} entries")
    return tokens


def parse_sbox_text(text: str) -> SBox:
    # k entries need 2k - 1 characters, so a text of up to 2 * MAX_ENTRIES
    # cannot hold too many, and is split whole: lines cut at '#', then
    # tokens at whitespace and commas. This path skips the regex, whose
    # compile costs a fresh process about 0.4 ms.
    if len(text) > 2 * MAX_ENTRIES:
        tokens = _long_tokens(text)
    else:
        body = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
        tokens = body.replace(",", " ").split()
    values = _values(tokens)
    if not values:
        raise ValueError("no entries found")
    return SBox.from_table(values)


def load_sbox(path: str) -> SBox:
    try:
        fd = os.open(path, _READ)
        try:
            chunks, size = [], 0
            while size <= MAX_FILE_BYTES and (chunk := os.read(fd, 1 << 16)):
                chunks.append(chunk)
                size += len(chunk)
        except IsADirectoryError as exc:  # open() would have named the directory
            exc.filename = path
            raise
        finally:
            os.close(fd)
        if size > MAX_FILE_BYTES:
            raise ValueError(f"cannot read {path}: more than {MAX_FILE_BYTES} bytes")
        text = b"".join(chunks).decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    # Not encoding="utf-8-sig": loading that codec costs a fresh process about 1.5 ms.
    return parse_sbox_text(text.removeprefix("\ufeff"))


def _note(line: str) -> None:
    """Write a diagnostic line to stderr, in one write, so that lines of
    commands on several threads do not interleave; nowhere if the process
    started with fd 2 closed, or if fd 2 is a pipe whose reader has gone: a
    diagnostic that cannot be read changes no exit code."""
    if sys.stderr is not None:
        with suppress(OSError):
            sys.stderr.write(line + "\n")


@contextmanager
def _output(path: str | None):
    """A function writing to stdout, or to `path` opened before any work and
    written as raw bytes, each write's text in whole. A write that fails, or
    a stdout that the process started without, ends the command with
    `cannot write PATH: REASON`. A failed command removes a file it created,
    and leaves an existing one as it was unless it began writing."""
    name, fd, created = path or "<stdout>", None, False
    if path is None and sys.stdout is None:  # fd 1 was closed when the process started
        raise ValueError(f"cannot write <stdout>: {OSError(EBADF, os.strerror(EBADF))}")
    if path is not None:
        try:
            try:
                fd, created = os.open(path, _CREATE, 0o666), True
            except FileExistsError:
                fd = os.open(path, _APPEND)
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc}") from exc
    empty_first, stdout = not created, sys.stdout

    def write(text: str) -> None:
        nonlocal empty_first
        try:
            if fd is None:
                stdout.write(text)
                stdout.flush()  # a pipe whose reader has gone fails here, not at exit
                return
            if empty_first:  # an existing file is emptied at the first write, not when opened
                empty_first = False
                if S_ISREG(os.fstat(fd).st_mode):  # a device or pipe has nothing to empty
                    os.ftruncate(fd, 0)
            data = memoryview(text.encode())
            while data:
                data = data[os.write(fd, data):]
        except OSError as exc:
            raise ValueError(f"cannot write {name}: {exc}") from exc

    try:
        try:
            yield write
        finally:
            if fd is not None:
                os.close(fd)
    except BaseException:
        if created:
            os.remove(path)
        raise


def serialize_sbox(s: SBox) -> str:
    """Render 16 decimal entries per line, a shorter table on one line;
    round-trips through parse_sbox_text. One % operation formats the whole
    table, its format 16 "%d" a line."""
    count = len(s.table)
    return (" ".join(["%d"] * min(count, 16)) + "\n") * max(count >> 4, 1) % s.table


@lru_cache(maxsize=None)
def _decimals(size: int) -> list[str]:
    """str(v) for every entry value v of a table of `size` entries, built on first use."""
    return list(map(str, range(size)))


def _fingerprint(table) -> tuple[str, str]:
    """(first eight entries, 16-hex-digit hash) of the s-box `table`, as a
    sweep row lists it: the hash is the first 16 hex digits of the SHA-256
    of its entries in decimal, joined by spaces."""
    cells = list(map(_decimals(len(table)).__getitem__, table))
    return " ".join(cells[:8]), sha256(" ".join(cells).encode()).hexdigest()[:16]


# A sweep's CSV columns, which a sweep that checks invariance ends with an invariance column.
_COLUMNS = "sigma1_index,sigma2_index,sigma1,sigma2,prefix,hash64,fixed_points,reverse_fixed_points"


def _sweep_csv(checked: bool, rows=(), head: bool = False) -> tuple[str, list[int]]:
    """A sweep's CSV lines, each ended by "\n", the header first where
    `head`, and the 64-bit digests of the rows' clones. A row is
    ((sigma1 index, sigma2 index), ((sigma1 text, _), (sigma2 text, _)),
    clone table, fixed points, reverse fixed points, passed), each rank as
    the sweep's rank cache gives it. Only a `checked` sweep's header and
    rows have the invariance column, pass or fail by `passed`."""
    column, cells = (",invariance", (",fail", ",pass")) if checked else ("", ("", ""))
    lines, digests = [_COLUMNS + column + "\n"] if head else [], []
    for (k1, k2), ((s1, _), (s2, _)), clone, fixed, reverse, passed in rows:
        prefix, digest = _fingerprint(clone)
        lines.append(f"{k1},{k2},{s1},{s2},{prefix},{digest},{fixed},{reverse}{cells[passed]}\n")
        digests.append(int(digest, 16))
    return "".join(lines), digests


def _sweep_summary(rows: int, distinct: int, passes: int | None) -> str:
    """A sweep's stderr line; passes is None where the sweep checks no invariance."""
    checked = "" if passes is None else f" invariance_pass={passes}"
    return f"rows={rows} distinct={distinct}{checked}"


def _sigma_text(sigma, sep: str = " ") -> str:
    """A permutation's images joined by `sep`: by spaces in a sweep's CSV."""
    return sep.join(map(str, sigma.images))


def _sigma_pair(sigma1, sigma2) -> str:
    """The sigma1= and sigma2= lines that name a clone's permutations, with
    no newline after the second: clone's stderr note and derive's output."""
    return f"sigma1={_sigma_text(sigma1, ',')}\nsigma2={_sigma_text(sigma2, ',')}"


def _decimal(numerator: int, denominator: int) -> str:
    """numerator / denominator, ints >= 0 and >= 1, exactly, rounded half
    to even to six places, in lowest terms or not: a common factor scales
    the remainder and the denominator alike, and moves no rounding."""
    whole, remainder = divmod(numerator * 1_000_000, denominator)
    # Up past half, or at exactly half when that makes `whole` even.
    if 2 * remainder + (whole & 1) > denominator:
        whole += 1
    return f"{whole // 1_000_000}.{whole % 1_000_000:06d}"


def _document(report: tuple) -> dict:
    """The fields of a report in analysis._report's integer form, in output
    order. Each statistic is a dict of its min and max, ints where their
    divisor is 1 and decimal texts otherwise, and the decimal texts of its
    avg and sd; nl carries no sd."""
    n, bijective, fixed_points, nl_bound, (nl, sac, bic_nl, bic_sac) = report

    def stats(ratios: tuple, fields=("min", "max", "avg", "sd")) -> dict:
        (low, d), (high, _), avg, sd = ratios
        values = (low, high) if d == 1 else (_decimal(low, d), _decimal(high, d))
        return dict(zip(fields, (*values, _decimal(*avg), _decimal(*sd.as_integer_ratio()))))

    return {
        "n": n,
        "bijective": bijective,
        "fixed_points": sorted(fixed_points.fixed),
        "reverse_fixed_points": sorted(fixed_points.reverse_fixed),
        "nl": stats(nl, ("min", "max", "avg")),
        "nl_bound": nl_bound,
        "sac": stats(sac),
        "bic_nl": stats(bic_nl),
        "bic_sac": stats(bic_sac),
    }


def _key_values(document: dict) -> str:
    """One `key: value` line per field; a dict as `k=v` pairs, a bool as true/false."""
    lines = []
    for key, value in document.items():
        if isinstance(value, dict):
            value = " ".join(f"{k}={v}" for k, v in value.items())
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def render_report_text(report: tuple) -> str:
    """The report document as _key_values lines."""
    return _key_values(_document(report))


def render_report_json(report: tuple) -> str:
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


def _verify_text(names, differences: list[str]) -> str:
    """verify's _key_values lines: each of `names` equal, or differs where a
    field of it ("nl.min" is nl's) is among `differences`, then the result
    and, on a mismatch, the differing fields."""
    differing = {d.partition(".")[0] for d in differences}
    document = {name: "differs" if name in differing else "equal" for name in names}
    document["result"] = "mismatch" if differences else "match"
    if differences:
        document["differences"] = " ".join(differences)
    return _key_values(document)


def _width_note(n1: int, n2: int) -> str:
    """verify's stderr line for two s-boxes of different widths."""
    return f"width mismatch: {n1} vs {n2}"
