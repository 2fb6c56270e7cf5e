import errno
import hashlib
import io
import json
import multiprocessing
import os
import random
import re
import runpy
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from contextlib import redirect_stdout
from functools import partial
from itertools import permutations, zip_longest
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

# Loaded before any test stubs os.write: multiprocessing.connection binds it
# as it loads, and a pool's own pipes must write through the real one.
import multiprocessing.connection

from sboxforge import (SBox, analysis, analyze, cli, clone_sbox, compare_reports, core,
                       find_fixed_points, formats, lehmer_decode, library)
from sboxforge.cli import main
from sboxforge.formats import serialize_sbox

from oracles import (
    bits_matrix,
    decimal_rows,
    dense_clone,
    first_clean_pair,
    identity_sbox,
    perm_matrix,
    permute_bits,
    random_bijective,
    random_perm,
    stabilizer_size,
)
from vectors import AES_SBOX, CLONE4, HELP, SEED4, SIGMA1_4, SIGMA2_4


def fixed_plan(workers, size):
    """A stand-in for cli._schedule whose every plan is `workers` workers,
    fewer than two meaning serial, and batches of `size` rows: each timed
    batch holds at most `size` rows, and with two workers any sweep pools."""
    return lambda count, timings, cap: (workers, size)


def invariants_of(table):
    """analysis._invariants of `table` as a batch of one: a sweep's reference."""
    return analysis._invariants([table], core._planes([table], len(table).bit_length() - 1))[0]


@pytest.fixture
def seed4_file(tmp_path):
    path = tmp_path / "seed4.txt"
    path.write_text(serialize_sbox(SBox.from_table(SEED4)))
    return str(path)


@pytest.fixture
def clone4_file(tmp_path):
    path = tmp_path / "clone4.txt"
    path.write_text(serialize_sbox(SBox.from_table(CLONE4)))
    return str(path)


@pytest.fixture
def aes_file(tmp_path):
    path = tmp_path / "aes.txt"
    path.write_text(serialize_sbox(SBox.from_table(AES_SBOX)))
    return str(path)


@pytest.fixture
def identity8_file(tmp_path):
    path = tmp_path / "identity8.txt"
    path.write_text(serialize_sbox(identity_sbox(8)))
    return str(path)


# ---------------------------------------------------------------------
# clone


def test_clone_reference_output(seed4_file, tmp_path, capsys):
    out = tmp_path / "clone.txt"
    code = main(["clone", seed4_file, "--sigma1", "1,2,0,3", "--sigma2", "3,2,0,1",
                 "-o", str(out)])
    assert code == 0
    assert out.read_text() == "10 6 14 13 11 15 7 12 3 5 1 0 2 4 8 9\n"
    err = capsys.readouterr().err
    assert "sigma1=1,2,0,3" in err
    assert "sigma2=3,2,0,1" in err


def test_clone_stdout_and_identity(seed4_file, capsys):
    code = main(["clone", seed4_file, "--sigma1", "0,1,2,3", "--sigma2", "0,1,2,3"])
    assert code == 0
    assert capsys.readouterr().out == "9 13 10 15 11 14 7 3 12 8 6 2 4 1 0 5\n"


def test_clone_names_a_permutation_list_that_is_not_integers(seed4_file, capsys):
    assert main(["clone", seed4_file, "--sigma1", "0,1,x,3", "--sigma2", "0,1,2,3"]) == 1
    assert capsys.readouterr() == ("", "error: invalid permutation list '0,1,x,3'\n")


@pytest.mark.parametrize("text", ["٠,١,٢,٣", "0,1_0,2,3", "0,1,2,٣"])
def test_a_permutation_item_python_alone_would_read_exits_1(text, seed4_file, capsys):
    # Each item is read as an s-box file entry is: int alone reads "٣" as 3
    # and "1_0" as 10.
    for argv in (["--sigma1", text, "--sigma2", "0,1,2,3"], ["--sigma1", "0,1,2,3", "--sigma2", text]):
        assert main(["clone", seed4_file, *argv]) == 1
        assert capsys.readouterr() == ("", f"error: invalid permutation list {text!r}\n")


def test_a_permutation_item_may_be_hex_as_an_entry_may(seed4_file, capsys):
    assert main(["clone", seed4_file, "--sigma1", "0x1,0X2,0,3", "--sigma2", "3,0x2,0,1"]) == 0
    hex_run = capsys.readouterr()
    assert main(["clone", seed4_file, "--sigma1", "1,2,0,3", "--sigma2", "3,2,0,1"]) == 0
    assert hex_run == capsys.readouterr()
    assert hex_run.err == "sigma1=1,2,0,3\nsigma2=3,2,0,1\n"


def test_clone_reference_output_n8(aes_file, tmp_path, capsys):
    from vectors import AES_CLONE8

    out = tmp_path / "clone8.txt"
    code = main(["clone", aes_file, "--sigma1", "1,2,0,6,5,7,3,4",
                 "--sigma2", "5,7,3,4,1,2,0,6", "-o", str(out)])
    assert code == 0
    capsys.readouterr()
    parsed = [int(v) for v in out.read_text().split()]
    assert parsed == AES_CLONE8


def test_clone_key_mode_matches_derive(seed4_file, capsys):
    code = main(["clone", seed4_file, "--key", "17"])
    assert code == 0
    captured = capsys.readouterr()
    assert "sigma1=3,2,1,0" in captured.err
    assert "sigma2=0,1,2,3" in captured.err


def test_clone_mode_flag_conflicts(seed4_file):
    assert main(["clone", seed4_file]) == 64
    assert main(["clone", seed4_file, "--key", "17", "--sigma1", "1,2,0,3",
                 "--sigma2", "3,2,0,1"]) == 64
    assert main(["clone", seed4_file, "--sigma1", "1,2,0,3"]) == 64


def test_clone_input_errors(tmp_path, seed4_file):
    missing = str(tmp_path / "nope.txt")
    assert main(["clone", missing, "--key", "17"]) == 1

    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 2 junk")
    assert main(["clone", str(bad), "--key", "17"]) == 1

    assert main(["clone", seed4_file, "--key", "zz"]) == 1
    assert main(["clone", seed4_file, "--key", "171"]) == 1  # odd length
    assert main(["clone", seed4_file, "--sigma1", "1,2,0", "--sigma2", "3,2,0,1"]) == 1
    assert main(["clone", seed4_file, "--sigma1", "1,1,2,3", "--sigma2", "3,2,0,1"]) == 1


@given(st.text(alphabet="0123456789abcdefABCDEFgxX \t\n\u0661\uff11", max_size=8))
@example("")
@example("0a 0b")
@example("\u0661\u0662")
def test_key_is_pairs_of_hex_digits_and_nothing_else(text):
    # _parse_key reads a key with no regex, and accepts exactly what the
    # pattern (?:[0-9a-fA-F]{2})+ matches in full, with the same message for
    # the rest: whitespace between pairs and non-ASCII digits included.
    if re.fullmatch(r"(?:[0-9a-fA-F]{2})+", text):
        assert cli._parse_key(text) == bytes.fromhex(text)
    else:
        with pytest.raises(ValueError, match="key must be non-empty even-length hex, got "):
            cli._parse_key(text)


def test_clone_non_bijective_seed(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("0 0 1 2\n")
    assert main(["clone", str(path), "--key", "17"]) == 2
    assert main(["clone", str(path), "--key", "17", "--remove-fixed-points"]) == 2


def test_clone_remove_fixed_points(seed4_file, capsys):
    code = main(["clone", seed4_file, "--sigma1", "1,2,0,3", "--sigma2", "3,2,0,1",
                 "--remove-fixed-points"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == "10 11 14 7 6 15 13 12 3 2 1 8 5 4 0 9\n"
    assert "sigma1=0,2,1,3" in captured.err
    assert "sigma2=3,2,0,1" in captured.err


def test_clone_removal_exhausted(seed4_file, tmp_path):
    out = tmp_path / "clone.txt"
    argv = ["clone", seed4_file, "--sigma1", "1,2,0,3", "--sigma2", "3,2,0,1",
            "--remove-fixed-points", "--max-attempts", "1", "-o", str(out)]
    assert main(argv) == 3
    assert not out.exists()  # opened before the search, removed when it fails
    out.write_bytes(b"keep me\n")
    assert main(argv) == 3
    assert out.read_bytes() == b"keep me\n"  # a file that was there before keeps its bytes


def test_output_replaces_a_longer_file(seed4_file, tmp_path, capsys):
    # An existing -o/--out file is emptied when the result is written, not before.
    out = tmp_path / "result.txt"
    for argv in (["clone", seed4_file, "--key", "17", "-o", str(out)],
                 ["enumerate", seed4_file, "--sample", "2", "--out", str(out)]):
        out.unlink(missing_ok=True)
        assert main(argv) == 0
        fresh = out.read_bytes()
        out.write_bytes(b"x" * (len(fresh) + 100))
        assert main(argv) == 0
        assert out.read_bytes() == fresh
        # A device has nothing to empty: writing to it works as before.
        assert main([*argv[:-1], os.devnull]) == 0
    capsys.readouterr()


def test_output_writes_whole_text_through_short_writes(aes_file, tmp_path, capsys, monkeypatch):
    # os.write may take fewer bytes than it is given; every write continues
    # until its whole text is in the file.
    argvs = [["clone", aes_file, "--key", "8f31", "-o"],
             ["enumerate", aes_file, "--sample", "20", "--check-invariance", "--out"]]
    expected = []
    for argv in argvs:
        assert main(argv[:-1]) == 0
        expected.append(capsys.readouterr().out.encode())
    real, calls = os.write, []

    def one_byte(fd, data):
        calls.append(fd)
        return real(fd, data[:1])

    monkeypatch.setattr(os, "write", one_byte)
    for argv, text in zip(argvs, expected):
        out = tmp_path / "result.txt"
        out.unlink(missing_ok=True)
        assert main([*argv, str(out)]) == 0
        assert out.read_bytes() == text
        assert len(calls) == len(text)
        calls.clear()
    capsys.readouterr()


def test_failing_command_keeps_a_file_that_appeared_before_the_open(seed4_file, tmp_path,
                                                                    monkeypatch):
    # Another process makes the path between any check for it and the open:
    # the command did not create that file, so failing must not remove it.
    out = tmp_path / "clone.txt"

    def appear(path):
        if path == str(out) and not out.exists():
            out.write_bytes(b"theirs\n")

    real_open, real_exists = os.open, os.path.exists
    monkeypatch.setattr(os, "open", lambda path, *args: appear(path) or real_open(path, *args))
    monkeypatch.setattr(os.path, "exists", lambda path: real_exists(path) or appear(path))
    argv = ["clone", seed4_file, "--sigma1", "1,2,0,3", "--sigma2", "3,2,0,1",
            "--remove-fixed-points", "--max-attempts", "1", "-o", str(out)]
    assert main(argv) == 3
    assert out.read_bytes() == b"theirs\n"


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="lists open descriptors in /dev/fd")
def test_commands_close_every_descriptor_they_open(seed4_file, tmp_path, capsys, monkeypatch):
    # A leaked os.open descriptor raises no ResourceWarning, so they are
    # counted: each command leaves open what it found open, whether it
    # succeeds, fails reading, fails writing or runs a worker pool.
    monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
    out, failed, missing = (str(tmp_path / name) for name in ("out.txt", "failed.txt", "missing"))
    exhausted = ["--sigma1", "1,2,0,3", "--sigma2", "3,2,0,1", "--remove-fixed-points",
                 "--max-attempts", "1"]
    argvs = [["clone", seed4_file, "--key", "17", "-o", out],
             ["clone", seed4_file, "--key", "17", "-o", out],  # the path exists: appended to
             ["clone", seed4_file, *exhausted, "-o", failed],
             ["clone", seed4_file, *exhausted, "-o", out],
             ["clone", seed4_file, "--key", "17", "-o", str(tmp_path)],
             ["enumerate", seed4_file, "--sample", "3", "--out", out],
             ["analyze", seed4_file], ["analyze", str(tmp_path)], ["analyze", missing],
             ["verify", seed4_file, seed4_file]]
    before = sorted(os.listdir("/dev/fd"))
    for argv in argvs:
        main(argv)
        assert sorted(os.listdir("/dev/fd")) == before, argv

    def full(fd, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    with monkeypatch.context() as patched:
        patched.setattr(os, "write", full)
        assert main(["clone", seed4_file, "--key", "17", "-o", out]) == 1
    assert sorted(os.listdir("/dev/fd")) == before
    monkeypatch.setattr(cli, "_schedule", fixed_plan(2, 64))
    assert main(["enumerate", seed4_file, "--sample", "40", "--out", out]) == 0
    assert sorted(os.listdir("/dev/fd")) == before
    capsys.readouterr()


@pytest.mark.parametrize("rows", [255, 256, 257, 513])
def test_enumerate_writes_rows_in_batches(rows, seed4_file, tmp_path, capsys, monkeypatch):
    # A sweep runs its first batches of 1, 2, 4 and 8 rows alone, writing
    # each before it plans the next, the header with the first. With a plan
    # of serial batches of 241 rows, the rest go out in batches of 241
    # pairs: one write each, on stdout and to --out, as the bytes of one row
    # after another.
    monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
    rng = random.Random(0)
    pairs = [(rng.randrange(24), rng.randrange(24)) for _ in range(rows)]
    sweep = (SEED4, 4, invariants_of(SEED4))
    header = ("sigma1_index,sigma2_index,sigma1,sigma2,prefix,hash64,"
              "fixed_points,reverse_fixed_points,invariance\n")
    bounds = [0, 1, 3, 7, *range(15, rows, 241), rows]
    batches = [cli._enumerate_rows(sweep, pairs[a:b])[0].encode()
               for a, b in zip(bounds, bounds[1:])]
    batches[0] = header.encode() + batches[0]
    argv = ["enumerate", seed4_file, "--sample", str(rows), "--check-invariance"]
    real, plan, events = os.write, fixed_plan(1, 241), []
    monkeypatch.setattr(os, "write", lambda fd, data: events.append(bytes(data)) or real(fd, data))
    monkeypatch.setattr(cli, "_schedule", lambda *args: events.append("plan") or plan(*args))
    for out in (None, tmp_path / "sweep.csv"):
        events.clear()
        assert main(argv + (["--out", str(out)] if out else [])) == 0
        if out:
            timed = [e for batch in batches[:4] for e in ("plan", batch)]
            assert events == timed + ["plan"] + batches[4:]
            assert out.read_bytes() == b"".join(batches)
        else:
            assert capsys.readouterr().out == b"".join(batches).decode()


def test_enumerate_rows_joins_what_each_row_gives():
    # A batch's text is its rows' lines in order, its digests their hash64
    # columns, and its pass count their "pass" cells; no pairs give nothing.
    rng = random.Random(3)
    pairs = [(rng.randrange(24), rng.randrange(24)) for _ in range(40)]
    sweep = (SEED4, 4, invariants_of(SEED4))
    text, digests, passes = cli._enumerate_rows(sweep, pairs)
    singles = [cli._enumerate_rows(sweep, [pair]) for pair in pairs]
    assert text == "".join(single[0] for single in singles) and text.count("\n") == 40
    assert digests == [int(line.split(",")[5], 16) for line in text.splitlines()]
    assert passes == 40 == sum(single[2] for single in singles)
    assert cli._enumerate_rows(sweep, []) == ("", [], 0)
    assert cli._enumerate_rows((SEED4, 4, None), pairs[:3])[2] == 0


@pytest.mark.parametrize("n", [2, 3, 8, 9, 16])
def test_enumerate_rows_fields_are_each_clones_own(n):
    # Every field of a row is what the library gives its own clone:
    # clone_sbox of the pair's permutations, then find_fixed_points,
    # formats._fingerprint and _invariants against the seed's. n = 2 puts two tables in a byte
    # of each plane, n = 9 is the first width of 2-byte entries. The rows are the
    # same whether the pairs come as one batch or one at a time. At n = 16
    # both pairs keep sigma1 the identity, so their clones share the seed's
    # cached criteria.
    rng = random.Random(n)
    table, fact = random_bijective(rng, n), factorial(n)
    seed = SBox.from_table(table)
    invariants = invariants_of(table)
    pairs = [(0 if n == 16 else rng.randrange(fact), rng.randrange(fact))
             for _ in range(2 if n == 16 else 12)]
    sweep = (table, n, invariants)
    text, digests, passes = cli._enumerate_rows(sweep, pairs)
    singles = [cli._enumerate_rows(sweep, [pair]) for pair in pairs]
    assert text == "".join(single[0] for single in singles)
    assert digests == [d for single in singles for d in single[1]]
    assert passes == sum(single[2] for single in singles) == len(pairs)
    for (k1, k2), line, digest in zip(pairs, text.splitlines(), digests):
        sigma1, sigma2 = lehmer_decode(k1, n), lehmer_decode(k2, n)
        clone = clone_sbox(seed, sigma1, sigma2)
        points = find_fixed_points(clone)
        prefix, hash64 = formats._fingerprint(clone.table)
        passed = invariants_of(clone.table) == invariants
        assert line.split(",") == [
            str(k1), str(k2), " ".join(map(str, sigma1.images)), " ".join(map(str, sigma2.images)),
            prefix, hash64, str(len(points.fixed)), str(len(points.reverse_fixed)),
            "pass" if passed else "fail"]
        assert digest == int(hash64, 16)


def test_output_onto_a_dangling_symlink_is_refused(seed4_file, tmp_path, capsys):
    # -o never creates a file through a symbolic link: a dangling one fails
    # as a path that cannot be written, and stays as it was. A link to an
    # existing file writes that file.
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    link.symlink_to(target)
    assert main(["clone", seed4_file, "--key", "17", "-o", str(link)]) == 1
    assert capsys.readouterr() == ("", f"error: cannot write {link}: [Errno 2] No such file "
                                       f"or directory: {str(link)!r}\n")
    assert link.is_symlink() and not target.exists()
    target.write_bytes(b"x" * 1000)
    assert main(["clone", seed4_file, "--key", "17", "-o", str(link)]) == 0
    assert main(["clone", seed4_file, "--key", "17"]) == 0
    assert target.read_text() == capsys.readouterr().out


def test_clone_unremovable_seed_fails_fast(identity8_file, capsys):
    # The identity maps 0 to 0, which every clone keeps; without the
    # up-front check this would walk all 8! input permutations.
    assert main(["clone", identity8_file, "--key", "17", "--remove-fixed-points"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed[0] = 0: every clone has a fixed point at 0\n"


@pytest.fixture
def near_identity8_file(tmp_path):
    # This seed passes the end-point check yet has no clean clone.
    table = list(range(256))
    for a, b in ((0, 125), (34, 172), (107, 255), (115, 149)):
        table[a], table[b] = table[b], table[a]
    path = tmp_path / "near_identity8.txt"
    path.write_text(serialize_sbox(SBox(8, tuple(table))))
    return str(path)


def test_clone_walk_exhausts_after_every_input_permutation(near_identity8_file, tmp_path, capsys,
                                                           attempts):
    # The walk proves that the seed has no clean clone after the 8! input
    # permutations, not (8!)**2 pairs.
    out = tmp_path / "clone.txt"
    assert main(["clone", near_identity8_file, "--key", "00", "--remove-fixed-points",
                 "-o", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no clone is free of fixed points: all 40320 input permutations tried\n"
    assert not out.exists()
    assert len(attempts) == len(set(attempts)) == factorial(8)


def test_clone_default_budget_stops_at_its_bound(near_identity8_file, capsys, attempts,
                                                 monkeypatch):
    # The default budget is min(n!, 10!), all n! up to n = 10. Below 8!, the
    # bound stops the walk short of a proof, and the error says the search
    # was not exhaustive; an explicit cap above the bound still runs.
    assert core._ATTEMPT_BOUND == factorial(10)
    monkeypatch.setattr(core, "_ATTEMPT_BOUND", 1000)
    argv = ["clone", near_identity8_file, "--key", "00", "--remove-fixed-points"]
    for extra, count, error in (
            ([], 1000, "no clean clone within the default bound of 1000 attempts: "
                       "the search of 40320 input permutations was not exhaustive"),
            (["--max-attempts", "5000"], 5000, "no clean clone within 5000 attempts"),
            (["--max-attempts", "40320"], 40320,
             "no clone is free of fixed points: all 40320 input permutations tried")):
        attempts.clear()
        assert main(argv + extra) == 3
        assert capsys.readouterr() == ("", f"error: {error}\n")
        assert len(attempts) == count


def test_clone_max_attempts_edges(seed4_file, tmp_path, capsys):
    assert main(["clone", seed4_file, "--key", "17", "--max-attempts", "5"]) == 64
    assert capsys.readouterr().err == "error: --max-attempts needs --remove-fixed-points\n"
    # Unremovable, though its end points pass the up-front check.
    table = [5, 7, 4, 3, 1, 6, 0, 2]
    assert first_clean_pair(table, (0, 1, 2), (0, 1, 2)) is None
    seed = tmp_path / "seed3.txt"
    seed.write_text(serialize_sbox(SBox(3, tuple(table))))
    assert main(["clone", str(seed), "--key", "00", "--remove-fixed-points",
                 "--max-attempts", str(10 ** 29)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no clone is free of fixed points: all 6 input permutations tried\n"


@pytest.mark.parametrize("argv, threads, error", [
    (["clone", "--key", "00", "--max-attempts", "5"], None,
     "--max-attempts needs --remove-fixed-points"),
    (["clone", "--key", "00", "--sigma1", "0,1,2,3"], None,
     "exactly one of --key or --sigma1/--sigma2 is required"),
    (["clone", "--key", "00", "--remove-fixed-points", "--max-attempts", "0"], None,
     "--max-attempts must be >= 1"),
    (["enumerate", "--all", "--rng-seed", "3"], None, "--rng-seed needs --sample"),
    (["enumerate", "--sample", "-1"], None, "--sample must be >= 0"),
    (["enumerate", "--all"], "x", "SBOXFORGE_THREADS must be an integer >= 1, got 'x'"),
    (["enumerate", "--all"], "٢", "SBOXFORGE_THREADS must be an integer >= 1, got '٢'"),
    (["enumerate", "--all"], "2_0", "SBOXFORGE_THREADS must be an integer >= 1, got '2_0'"),
    (["enumerate", "--sample", "50", "--rng-seed", "-7"], None, "--rng-seed must be >= 0"),
    (["enumerate", "--all", "--rng-seed", "-1"], None, "--rng-seed needs --sample"),
])
def test_malformed_command_line_exits_64_whatever_the_seed_holds(argv, threads, error, seed4_file,
                                                                 tmp_path, capsys, monkeypatch):
    # The command line is checked before the seed is read: a missing seed
    # gives the same usage error as a readable one.
    if threads is None:
        monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
    else:
        monkeypatch.setenv("SBOXFORGE_THREADS", threads)
    for seed in (seed4_file, str(tmp_path / "missing.txt")):
        assert main([argv[0], seed, *argv[1:]]) == 64
        assert capsys.readouterr() == ("", f"error: {error}\n")


def _must_not_run(*args):
    raise AssertionError("work started before the output file was opened")


def test_clone_unwritable_output_fails_fast(seed4_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "clone_sbox_avoiding_fixed_points", _must_not_run)
    path = str(tmp_path / "missing" / "clone.txt")
    assert main(["clone", seed4_file, "--key", "17", "--remove-fixed-points", "-o", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot write {path}: [Errno 2] No such file or "
                            f"directory: {path!r}\n")


# ---------------------------------------------------------------------
# output errors


class _ClosedPipe:
    """A stdout whose reader has gone: every write fails with EPIPE."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    def flush(self):
        pass


@pytest.mark.parametrize("argv", [
    ["clone", "s", "--key", "17"],
    ["analyze", "s"],
    ["derive", "--key", "17", "--n", "4"],
    ["enumerate", "s", "--sample", "3"],
    ["verify", "s", "s"],
    ["clone", "-h"],
])
def test_failed_stdout_write_is_one_line(argv, seed4_file, capsys, monkeypatch):
    # Every command's results go through one writer: a failed write ends the
    # command with one line and exit 1, not a traceback.
    monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main([seed4_file if arg == "s" else arg for arg in argv]) == 1
    assert capsys.readouterr().err == "error: cannot write <stdout>: [Errno 32] Broken pipe\n"


def _run_with_closed_fd(fd, argv, env):
    """`python -m sboxforge argv...` started with file descriptor `fd` closed."""
    return subprocess.run([sys.executable, "-m", "sboxforge", *argv], capture_output=True,
                          text=True, env=env, preexec_fn=lambda: os.close(fd))


@pytest.mark.skipif(os.name != "posix", reason="closes a descriptor before the child starts")
@pytest.mark.parametrize("argv", [
    ["derive", "--key", "00", "--n", "4"],
    ["clone", "s", "--key", "01"],
    ["enumerate", "s", "--sample", "3"],
])
def test_closed_stdout_is_a_failed_write(argv, seed4_file, child_env):
    # Started without fd 1, the interpreter has no sys.stdout: the command
    # fails as a write to stdout fails, in one line with exit 1.
    result = _run_with_closed_fd(1, [seed4_file if a == "s" else a for a in argv], child_env)
    assert (result.returncode, result.stderr) == (
        1, "error: cannot write <stdout>: [Errno 9] Bad file descriptor\n")


def _run_with_unread_stderr(argv, env):
    """`python -m sboxforge argv...` whose fd 2 is a pipe with no reader:
    every write to it fails with EPIPE."""
    reader, writer = os.pipe()
    os.close(reader)
    try:
        return subprocess.run([sys.executable, "-m", "sboxforge", *argv], stdout=subprocess.PIPE,
                              stderr=writer, text=True, env=env)
    finally:
        os.close(writer)


@pytest.mark.skipif(os.name != "posix", reason="closes a descriptor before the child starts")
def test_closed_stderr_keeps_diagnostics_off_stdout(seed4_file, tmp_path, child_env):
    # Started without fd 2, the interpreter has no sys.stderr, and print
    # would write a diagnostic to stdout instead: none goes there. A stderr
    # pipe whose reader has gone loses the diagnostics too, and neither
    # changes a command's exit code.
    narrow = tmp_path / "narrow.txt"
    narrow.write_text(serialize_sbox(SBox.from_table([1, 0, 3, 2])))
    for run in (partial(_run_with_closed_fd, 2), _run_with_unread_stderr):
        clone = run(["clone", seed4_file, "--key", "01"], child_env)
        assert (clone.returncode, clone.stdout) == (0, cli.serialize_sbox(
            clone_sbox(SBox.from_table(SEED4), *cli.key_to_permutations(b"\x01", 4))))
        sweep = run(["enumerate", seed4_file, "--sample", "2"], child_env)
        assert (sweep.returncode, sweep.stdout.count("\n")) == (0, 3)
        assert "rows=" not in sweep.stdout
        for argv, code in ((["derive", "--key", "zz", "--n", "4"], 1),
                           (["enumerate", seed4_file, "--all", "--rng-seed", "1"], 64),
                           (["verify", seed4_file, str(tmp_path / "missing")], 1),
                           (["verify", seed4_file, str(narrow)], 6)):
            failed = run(argv, child_env)
            assert (failed.returncode, failed.stdout) == (code, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
def test_failed_output_write_is_one_line(seed4_file, capsys):
    # /dev/full opens, and every write to it fails with ENOSPC.
    for argv in (["clone", seed4_file, "--key", "17", "-o"],
                 ["enumerate", seed4_file, "--all", "--out"]):
        assert main([*argv, "/dev/full"]) == 1
        assert capsys.readouterr() == (
            "", "error: cannot write /dev/full: [Errno 28] No space left on device\n")


def test_failed_write_stops_a_pooled_sweep_at_once(tmp_path, capsys, monkeypatch):
    # A write that fails while a real 2-worker pool holds batches of 16
    # rows, about 0.2 s each (n = 12 rows with --check-invariance), ends the
    # command at once: one line, exit 1, the workers stopped rather than
    # waited for, and the --out file the run created removed. A child the
    # caller started before the sweep is not the sweep's to stop.
    seed = tmp_path / "seed12.txt"
    seed.write_text(serialize_sbox(SBox.from_table(random_bijective(random.Random(12), 12))))
    out = tmp_path / "sweep.csv"
    real, failed = os.write, []
    bystander = multiprocessing.Process(target=time.sleep, args=(60,))

    def full_once_pooled(fd, data):
        if multiprocessing.active_children() == [bystander]:  # the timed batches, before the pool starts
            return real(fd, data)
        failed.append(time.monotonic())
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    bystander.start()
    try:
        monkeypatch.setattr(os, "write", full_once_pooled)
        monkeypatch.setattr(cli, "_schedule", fixed_plan(2, 16))
        argv = ["enumerate", str(seed), "--sample", "800", "--check-invariance", "--out", str(out)]
        assert main(argv) == 1
        assert time.monotonic() - failed[0] < 1
        assert capsys.readouterr() == (
            "", f"error: cannot write {out}: [Errno 28] No space left on device\n")
        assert len(failed) == 1 and not out.exists()
        assert multiprocessing.active_children() == [bystander]
    finally:
        bystander.terminate()
        bystander.join(5)



@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_failed_pooled_sweep_stops_no_other_threads_pool(tmp_path, capsys, monkeypatch):
    # Two threads each run a sweep on a real 2-worker pool. The first one's
    # output fails once the second's pool has sent back rows, which ends the
    # first sweep and stops its workers: the second's workers are not its
    # own, so the second runs on to the oracle's CSV and exit 0.
    tables = [random_bijective(random.Random(80 + i), 8) for i in range(2)]
    seeds, outs = [tmp_path / f"seed{i}.txt" for i in range(2)], [tmp_path / f"out{i}.csv" for i in range(2)]
    for seed, table in zip(seeds, tables):
        seed.write_text(serialize_sbox(SBox.from_table(table)))
    first_pooled, second_pooled, first_done = (threading.Event() for _ in range(3))
    real, writes = os.write, {}

    def write(fd, data):
        # A sweep's fifth write to its CSV file, a regular file where a
        # pool's pipes are not, is its first pooled batch's, after 4 timed.
        thread = threading.current_thread()
        if stat.S_ISREG(os.fstat(fd).st_mode):
            writes[thread] = writes.get(thread, 0) + 1
            if writes[thread] == 5 and thread is first:
                first_pooled.set()
                assert second_pooled.wait(60)
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            if writes[thread] == 5:
                second_pooled.set()
                assert first_done.wait(60)
        return real(fd, data)

    def sweep(i, rows):
        return main(["enumerate", str(seeds[i]), "--sample", str(rows), "--check-invariance",
                     "--out", str(outs[i])])

    codes = []
    first = threading.Thread(target=lambda: codes.append(sweep(0, 4000)) or first_done.set())
    monkeypatch.setattr(os, "write", write)
    monkeypatch.setattr(cli, "_schedule", fixed_plan(2, 64))
    first.start()
    try:
        assert first_pooled.wait(60)
        codes.append(sweep(1, 400))
    finally:
        first_done.wait(60)
        first.join(60)
    assert not first.is_alive() and codes == [1, 0] and not outs[0].exists()
    rng = random.Random(0)
    expected = expected_csv(tables[1], [(rng.randrange(40320), rng.randrange(40320))
                                        for _ in range(400)], True)
    assert outs[1].read_text() == expected[0]
    assert capsys.readouterr() == (
        "", f"error: cannot write {outs[0]}: [Errno 28] No space left on device\n" + expected[1])


# ---------------------------------------------------------------------
# analyze


def test_analyze_text(aes_file, capsys):
    assert main(["analyze", aes_file]) == 0
    out = capsys.readouterr().out
    assert "nl: min=112 max=112 avg=112.000000" in out
    assert "sac: min=0.453125 max=0.562500 avg=0.504883 sd=0.015678" in out
    assert "bic_sac: min=0.480469 max=0.525391 avg=0.504604 sd=0.011271" in out


def test_analyze_json(seed4_file, capsys):
    assert main(["analyze", seed4_file, "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["sac"]["sd"] == pytest.approx(0.132583)
    assert document["bic_sac"]["avg"] == pytest.approx(0.552083)
    assert document["reverse_fixed_points"] == [4]


def test_analyze_identity(tmp_path, capsys):
    path = tmp_path / "identity4.txt"
    path.write_text(serialize_sbox(identity_sbox(4)))
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "bijective: true" in out
    assert "nl: min=0 max=0 avg=0.000000" in out


def test_analyze_parse_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3")
    assert main(["analyze", str(path)]) == 1


def test_analyze_skips_a_byte_order_mark(seed4_file, tmp_path, capsys):
    # Windows Notepad starts a UTF-8 file with a byte order mark.
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + serialize_sbox(SBox.from_table(SEED4)).encode())
    assert main(["analyze", seed4_file]) == 0
    plain = capsys.readouterr()
    assert main(["analyze", str(path)]) == 0
    assert capsys.readouterr() == plain


def _endless_fifo(tmp_path):
    """A FIFO whose writer sends `1 ` tokens until its reader has gone."""
    path = tmp_path / "endless"
    os.mkfifo(path)

    def write():
        try:
            with open(path, "wb") as pipe:
                while True:
                    pipe.write(b"1 " * 32768)
        except BrokenPipeError:
            pass

    threading.Thread(target=write, daemon=True).start()
    return str(path)


def _long_file(tmp_path):
    """20 MB of `1 ` tokens, ten million entries."""
    path = tmp_path / "long.txt"
    with open(path, "wb") as handle:
        for _ in range(100):
            handle.write(b"1 " * 100_000)
    return str(path)


@pytest.mark.skipif(not os.path.exists("/dev/zero") or not hasattr(os, "mkfifo"),
                    reason="needs /dev/zero and FIFOs")
@pytest.mark.parametrize("make", [lambda tmp_path: "/dev/zero", _endless_fifo, _long_file],
                         ids=["dev-zero", "endless-fifo", "long-file"])
def test_endless_or_overlong_input_is_refused_in_one_line(make, tmp_path, capsys):
    # /dev/zero is one endless token, since NUL is not whitespace: only the
    # byte bound stops it.
    path = make(tmp_path)
    tracemalloc.start()
    began = time.perf_counter()
    try:
        code = main(["analyze", path])
        seconds = time.perf_counter() - began
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr() == ("", f"error: cannot read {path}: more than 1048576 bytes\n")
    assert seconds < 0.5
    assert peak < 4 << 20


@pytest.mark.parametrize("text", ["1 " * (formats.MAX_ENTRIES + 1), "12#\n" * 262_143],
                         ids=["tokens", "commented-lines"])
def test_input_past_the_entry_bound_is_refused_with_little_memory(text, tmp_path, capsys):
    # The second is just under the byte bound: a string per line would take tens of MB.
    path = tmp_path / "many.txt"
    path.write_text(text)
    began = time.perf_counter()
    assert main(["analyze", str(path)]) == 1
    assert time.perf_counter() - began < 0.5
    tracemalloc.start()
    try:
        assert main(["analyze", str(path)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr() == ("", "error: more than 65536 entries\n" * 2)
    assert peak < 8 << 20


# ---------------------------------------------------------------------
# derive


def test_derive_examples(capsys):
    assert main(["derive", "--key", "00", "--n", "4"]) == 0
    assert capsys.readouterr().out == "sigma1=0,1,2,3\nsigma2=0,1,2,3\n"

    assert main(["derive", "--key", "17", "--n", "4"]) == 0
    assert capsys.readouterr().out == "sigma1=3,2,1,0\nsigma2=0,1,2,3\n"

    assert main(["derive", "--key", "18", "--n", "4"]) == 0
    assert capsys.readouterr().out == "sigma1=0,1,2,3\nsigma2=0,1,3,2\n"


def test_derive_invalid_inputs(capsys):
    assert main(["derive", "--key", "xy", "--n", "4"]) == 1
    assert main(["derive", "--key", "1", "--n", "4"]) == 1
    assert main(["derive", "--key", "00", "--n", "1"]) == 64
    assert main(["derive", "--key", "00", "--n", "17"]) == 64
    assert main(["derive", "--key", "00", "--n", "8000"]) == 64
    assert capsys.readouterr().err.endswith("error: --n must be in [2, 16]\n")


# ---------------------------------------------------------------------
# enumerate


def test_enumerate_sample_with_invariance(seed4_file, capsys):
    code = main(["enumerate", seed4_file, "--sample", "5", "--rng-seed", "7",
                 "--check-invariance"])
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == ("sigma1_index,sigma2_index,sigma1,sigma2,prefix,hash64,"
                        "fixed_points,reverse_fixed_points,invariance")
    assert len(lines) == 6
    assert all(line.endswith(",pass") for line in lines[1:])
    assert "rows=5" in captured.err
    assert "invariance_pass=5" in captured.err


def test_enumerate_invariance_failure(seed4_file, capsys, monkeypatch):
    # The second row's clone is a real table that is no clone of the seed:
    # the identity, whose coordinate functions are linear (NL 0, not 4). It
    # is put in place of the clone in the batch that _planes transposes, the
    # third call after the seed's own and the first row's, and every field of
    # its row comes from it: its prefix, digest, 16 fixed points and failed
    # check.
    monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
    made = []

    def second_is_wrong(tables, n):
        made.append(len(tables))
        if len(made) == 3:
            tables[0] = bytes(range(16))
        return core._planes(tables, n)

    monkeypatch.setattr(cli, "_planes", second_is_wrong)
    assert main(["enumerate", seed4_file, "--sample", "3", "--check-invariance"]) == 4
    captured = capsys.readouterr()
    rows = captured.out.splitlines()[1:]
    assert [line.rsplit(",", 1)[1] for line in rows] == ["pass", "fail", "pass"]
    assert rows[1].split(",")[4:] == [*formats._fingerprint(range(16)), "16", "0", "fail"]
    assert captured.err.endswith(" invariance_pass=2\n")


def test_enumerate_reads_each_batch_off_one_transpose(seed4_file, capsys, monkeypatch):
    # A sweep's rows take their fixed-point counts and invariants from one
    # _planes call per batch: the timed batches of 1, 2, 4 and 8 rows one
    # each, the five left one call together (n = 4: two bytes of each plane
    # per table). Before them one more call, of the seed alone, gives the
    # seed's invariants. Each batch's planes go to one _invariants and one
    # _fixed_counts call. find_fixed_points, a transpose per table, never
    # runs, and the seed is read once.
    monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
    batches, reads = [], []

    def counting(tables, n):
        batches.append(core._planes(tables, n))
        return batches[-1]

    fixed_counts, invariants = cli._fixed_counts, cli._invariants
    monkeypatch.setattr(cli, "_planes", counting)
    monkeypatch.setattr(cli, "_fixed_counts", lambda planes: reads.append(planes) or fixed_counts(planes))
    monkeypatch.setattr(cli, "_invariants",
                        lambda tables, planes: reads.append(planes) or invariants(tables, planes))
    monkeypatch.setattr(library, "find_fixed_points", _must_not_run)
    monkeypatch.setattr(core, "_fixed_points", _must_not_run)
    assert main(["enumerate", seed4_file, "--sample", "20", "--check-invariance"]) == 0
    rng = random.Random(0)
    pairs = [(rng.randrange(24), rng.randrange(24)) for _ in range(20)]
    assert capsys.readouterr() == expected_csv(SEED4, pairs, True)
    assert [len(planes[0]) // 2 for planes in batches] == [1, 1, 2, 4, 8, 5]
    assert batches[0] == core._planes([SEED4], 4)
    assert reads == batches[:1] + [planes for planes in batches[1:] for _ in range(2)]


def test_enumerate_decodes_each_rank_once(seed4_file, monkeypatch):
    monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
    decoded = []

    def counting(index, n):
        decoded.append(index)
        return lehmer_decode(index, n)

    monkeypatch.setattr(cli, "lehmer_decode", counting)
    cli._rank.cache_clear()
    # The process's rank cache decodes each rank of a width it meets once:
    # --all every rank of S_4 in its 576 rows, and a --sample sweep after
    # it, on the same width, none.
    assert main(["enumerate", seed4_file, "--all"]) == 0
    assert sorted(decoded) == list(range(24))
    decoded.clear()
    assert main(["enumerate", seed4_file, "--sample", "50", "--check-invariance"]) == 0
    assert decoded == []
    # Every rank of S_6 fits beside them: after rows that meet all 720, rows
    # that meet them again decode none.
    sweep = (random_bijective(random.Random(6), 6), 6, None)
    cli._enumerate_rows(sweep, [(k, 719 - k) for k in range(720)])
    assert sorted(decoded) == list(range(720))
    cli._enumerate_rows(sweep, [(719 - k, k) for k in range(720)])
    assert len(decoded) == 720


@pytest.mark.parametrize("n,size", [(4, 24), (6, 720), (7, 0), (8, 0), (9, 0), (16, 0)])
def test_enumerate_rank_cache_keeps_ranks_only_where_they_repeat(n, size, tmp_path, capsys,
                                                                 monkeypatch):
    # Every rank at n <= 6, the widths --all takes, n! of them; none above,
    # where --sample's ranks of n! rarely repeat, so each row decodes and
    # lifts both of its ranks and the cache stays empty. Either way the CSV
    # is the oracle's.
    monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
    decoded = []
    monkeypatch.setattr(cli, "lehmer_decode",
                        lambda index, n: decoded.append(index) or lehmer_decode(index, n))
    table = random_bijective(random.Random(n), n)
    seed = tmp_path / "seed.txt"
    seed.write_text(serialize_sbox(SBox.from_table(table)))
    rows, checked = (3, False) if n == 16 else (40, True)
    cli._rank.cache_clear()
    assert main(["enumerate", str(seed), "--sample", str(rows)] + ["--check-invariance"] * checked) == 0
    rng = random.Random(0)
    pairs = [(rng.randrange(factorial(n)), rng.randrange(factorial(n))) for _ in range(rows)]
    assert capsys.readouterr() == expected_csv(table, pairs, checked)
    distinct = len({k for pair in pairs for k in pair})
    assert size == (factorial(n) if n <= 6 else 0)
    assert len(decoded) == (distinct if size else 2 * rows)
    info = cli._rank.cache_info()
    assert (info.currsize, info.misses) == ((distinct, distinct) if size else (0, 0))


def expected_csv(table, pairs, invariance):
    """stdout and stderr of `enumerate` on `table` for `pairs`, built pair by
    pair from lehmer_decode, the dense oracle and the SHA-256 of the clone's
    decimal join, with the fixed points counted directly."""
    n = len(table).bit_length() - 1
    top = len(table) - 1
    clone_of = dense_clone if n < 16 else _indexed_dense_clone
    lines = ["sigma1_index,sigma2_index,sigma1,sigma2,prefix,hash64,"
             "fixed_points,reverse_fixed_points" + (",invariance" if invariance else "")]
    digests = set()
    for k1, k2 in pairs:
        sigma1, sigma2 = lehmer_decode(k1, n).images, lehmer_decode(k2, n).images
        clone = clone_of(table, sigma1, sigma2)
        digest = hashlib.sha256(" ".join(map(str, clone)).encode()).hexdigest()[:16]
        digests.add(digest)
        lines.append(",".join([
            str(k1), str(k2), " ".join(map(str, sigma1)), " ".join(map(str, sigma2)),
            " ".join(map(str, clone[:8])), digest,
            str(sum(v == i for i, v in enumerate(clone))),
            str(sum(v == top - i for i, v in enumerate(clone)))] + ["pass"] * invariance))
    summary = f"rows={len(pairs)} distinct={len(digests)}"
    summary += f" invariance_pass={len(pairs)}" * invariance
    return "\n".join(lines) + "\n", summary + "\n"


def expected_sweep(table):
    """expected_csv of `enumerate --all --check-invariance` on `table`."""
    fact = factorial(len(table).bit_length() - 1)
    return expected_csv(table, [(k1, k2) for k1 in range(fact) for k2 in range(fact)], True)


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    """Seed files of widths 4, 5 and 4, each with its expected --all sweep."""
    tables = [SEED4, random_bijective(random.Random(5), 5), random_bijective(random.Random(4), 4)]
    files = []
    for i, table in enumerate(tables):
        path = tmp_path_factory.mktemp("sweeps") / f"seed{i}.txt"
        path.write_text(serialize_sbox(SBox.from_table(table)))
        files.append((str(path), expected_sweep(table)))
    return files


def test_enumerate_all_rows_match_oracle(sweeps, capsys, monkeypatch, serial_pool):
    path, expected = sweeps[0]
    argv = ["enumerate", path, "--all", "--check-invariance"]
    monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
    assert main(argv) == 0
    assert capsys.readouterr() == expected
    monkeypatch.setattr(cli, "_schedule", fixed_plan(2, 64))
    assert main(argv) == 0
    assert serial_pool.started == [2]
    assert capsys.readouterr() == expected


def test_enumerate_all_rows_match_oracle_on_two_workers(sweeps, capsys, monkeypatch):
    # The n = 5 sweep on a real 2-worker pool. Left to cli._schedule it
    # runs serially, too short to repay the workers; here the plan pools it.
    path, expected = sweeps[1]
    started, pooled = [], cli._pooled_rows
    monkeypatch.setattr(cli, "_pooled_rows",
                        lambda workers, *args: started.append(workers) or pooled(workers, *args))
    monkeypatch.setattr(cli, "_schedule", fixed_plan(2, 256))
    assert main(["enumerate", path, "--all", "--check-invariance"]) == 0
    assert started == [2]
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pooled_sweep_matches_the_serial_one_under_each_start_method(method, sweeps, child_env):
    # Every other pool test forks. A 2-worker pool started by spawn (macOS's
    # default) or forkserver (Linux's from Python 3.14), forced on as the
    # pool tests force it, gives the serial run's bytes and exit code.
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    argv = ["enumerate", sweeps[0][0], "--all", "--check-invariance"]
    serial = subprocess.run([sys.executable, "-m", "sboxforge", *argv], capture_output=True,
                            env={k: v for k, v in child_env.items() if k != "SBOXFORGE_THREADS"})
    probe = (
        "import multiprocessing, sys\n"
        f"multiprocessing.set_start_method({method!r})\n"
        "from sboxforge import cli\n"
        "cli._schedule, pooled, started = lambda count, timings, cap: (2, 64), cli._pooled_rows, []\n"
        "cli._pooled_rows = lambda workers, *args: started.append(workers) or pooled(workers, *args)\n"
        "code = cli.main(sys.argv[1:])\n"
        "sys.exit(code if started == [2] else 99)\n")  # 99: the sweep did not pool
    pooled = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                            env={**child_env, "SBOXFORGE_THREADS": "2"}, timeout=120)
    assert (pooled.returncode, pooled.stdout, pooled.stderr) == \
        (serial.returncode, serial.stdout, serial.stderr)
    assert (serial.stdout.decode(), serial.stderr.decode()) == sweeps[0][1]


def test_pooled_batches_larger_than_a_pipe_buffer_give_the_serial_bytes(seed4_file, tmp_path,
                                                                         child_env):
    # Batches of 50 000 pairs, about 300 KB pickled, and their rows, several
    # MB, each fill more than a socket pair's buffer (about 208 KB on Linux).
    # A worker reads its next batch before it sends a batch's rows, and the
    # parent sends a batch only once it has read the rows of the one before:
    # so neither waits in a send on the other. A pool without the worker's
    # read-ahead hangs here, the parent sending a worker its second batch
    # while the worker sends its first rows. The 2-worker sweep, under a
    # timeout, writes the serial run's bytes.
    argv = ["enumerate", seed4_file, "--sample", "200000", "--check-invariance"]
    outs = [tmp_path / "serial.csv", tmp_path / "pooled.csv"]
    serial = subprocess.run([sys.executable, "-m", "sboxforge", *argv, "--out", str(outs[0])],
                            capture_output=True, env=child_env, timeout=120)
    probe = (
        "import sys\n"
        "from sboxforge import cli\n"
        "cli._schedule, pooled, started = lambda count, timings, cap: (2, 50000), cli._pooled_rows, []\n"
        "cli._pooled_rows = lambda workers, *args: started.append(workers) or pooled(workers, *args)\n"
        "code = cli.main(sys.argv[1:])\n"
        "sys.exit(code if started == [2] else 99)\n")  # 99: the sweep did not pool
    pooled = subprocess.run([sys.executable, "-c", probe, *argv, "--out", str(outs[1])],
                            capture_output=True, env=child_env, timeout=120)
    assert (pooled.returncode, pooled.stdout, pooled.stderr) == \
        (serial.returncode, serial.stdout, serial.stderr) == \
        (0, b"", b"rows=200000 distinct=576 invariance_pass=200000\n")
    assert outs[1].read_bytes() == outs[0].read_bytes()


def test_enumerate_sweeps_decode_each_rank_once_per_process(sweeps, capsys, monkeypatch):
    # Widths 4, 5, then 4 again in one process: their rows match the
    # oracle's, and the process decodes each (width, rank) once, the third
    # sweep none, since every sweep reads the one rank cache.
    monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
    decoded = []
    monkeypatch.setattr(cli, "lehmer_decode",
                        lambda index, n: decoded.append((n, index)) or lehmer_decode(index, n))
    cli._rank.cache_clear()
    for (path, expected), widths in zip(sweeps, ((4,), (4, 5), (4, 5))):
        assert main(["enumerate", path, "--all", "--check-invariance"]) == 0
        assert capsys.readouterr() == expected
        assert sorted(decoded) == [(n, k) for n in widths for k in range(factorial(n))]


def test_sweeps_on_two_threads_keep_their_own_seeds(tmp_path, capsys, monkeypatch):
    # Two serial sweeps of one width in one process, the second run whole
    # while the first waits inside its first batch: each file holds the
    # clones of its own seed, as the oracle makes them.
    monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
    tables = [random_bijective(random.Random(40 + i), 4) for i in range(2)]
    seeds, outs = [tmp_path / f"seed{i}.txt" for i in range(2)], [tmp_path / f"out{i}.csv" for i in range(2)]
    for seed, table in zip(seeds, tables):
        seed.write_text(serialize_sbox(SBox.from_table(table)))
    inside, second_done = threading.Event(), threading.Event()
    clone = cli._clone

    def held(table, lifts):
        if not inside.is_set():  # the first sweep's first batch
            inside.set()
            assert second_done.wait(60)
        return clone(table, lifts)

    def sweep(i):
        return main(["enumerate", str(seeds[i]), "--sample", "40", "--check-invariance",
                     "--out", str(outs[i])])

    monkeypatch.setattr(cli, "_clone", held)
    codes = []
    first = threading.Thread(target=lambda: codes.append(sweep(0)))
    first.start()
    try:
        assert inside.wait(60)
        codes.append(sweep(1))
    finally:
        second_done.set()
        first.join(60)
    assert not first.is_alive() and codes == [0, 0]
    rng = random.Random(0)
    pairs = [(rng.randrange(24), rng.randrange(24)) for _ in range(40)]
    expected = [expected_csv(table, pairs, True) for table in tables]
    assert [out.read_text() for out in outs] == [csv for csv, _ in expected]
    assert capsys.readouterr() == ("", expected[1][1] + expected[0][1])


def test_sweeps_on_more_threads_than_cores_match_the_oracle(sweeps, tmp_path, capsys,
                                                            monkeypatch):
    # Four serial sweeps at once, of widths 4, 5, 4 and 4, share the one
    # rank cache while threads switch every 10 us: each file is its own
    # seed's oracle sweep, and stderr holds each sweep's summary line.
    monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
    jobs = [(path, expected, tmp_path / f"out{i}.csv")
            for i, (path, expected) in enumerate([*sweeps, sweeps[0]])]
    codes = []
    threads = [threading.Thread(target=lambda path=path, out=out: codes.append(main(
        ["enumerate", path, "--all", "--check-invariance", "--out", str(out)])))
        for path, _, out in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and codes == [0] * 4
    assert [out.read_text() for _, _, out in jobs] == [expected[0] for _, expected, _ in jobs]
    assert sorted(capsys.readouterr().err.splitlines(True)) == sorted(
        expected[1] for _, expected, _ in jobs)


def test_enumerate_all_computes_criteria_once_per_sigma1(seed4_file, capsys, monkeypatch):
    # --all takes sigma1 outermost. The seed's criteria miss the one-entry
    # cache, and the four timed batches, 15 rows with the identity sigma1,
    # hit that entry once each. A plan of 561-row batches puts the other 561
    # rows in one batch, which asks once per sigma1, each of whose rows has
    # one sorted set of coordinates: the identity's hits, every other
    # misses. So 4! = 24 misses in 1 + 4 + 24 calls, where a call per row
    # would make 577.
    monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
    monkeypatch.setattr(cli, "_schedule", fixed_plan(1, 561))
    keys, criteria = [], analysis._criteria
    monkeypatch.setattr(analysis, "_criteria", lambda key, n: keys.append(key) or criteria(key, n))
    criteria.cache_clear()
    assert main(["enumerate", seed4_file, "--all", "--check-invariance"]) == 0
    assert capsys.readouterr().err == "rows=576 distinct=576 invariance_pass=576\n"
    info = criteria.cache_info()
    assert (info.misses, info.hits, info.maxsize, info.currsize) == (24, 5, 1, 1)
    assert len(keys) == 29 and len(set(keys)) == 24 and len(set(keys[5:])) == 24
    criteria.cache_clear()


def test_enumerate_sample_zero_is_header_only(seed4_file, capsys):
    assert main(["enumerate", seed4_file, "--sample", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ("sigma1_index,sigma2_index,sigma1,sigma2,prefix,hash64,"
                            "fixed_points,reverse_fixed_points\n")
    assert "rows=0" in captured.err


def test_enumerate_sample_reproducible(seed4_file, capsys):
    main(["enumerate", seed4_file, "--sample", "10", "--rng-seed", "3"])
    first = capsys.readouterr().out
    main(["enumerate", seed4_file, "--sample", "10", "--rng-seed", "3"])
    second = capsys.readouterr().out
    assert first == second
    main(["enumerate", seed4_file, "--sample", "10", "--rng-seed", "4"])
    assert capsys.readouterr().out != first


def test_enumerate_all_writes_csv(seed4_file, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["enumerate", seed4_file, "--all", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 24 * 24
    assert lines[1].startswith("0,0,0 1 2 3,0 1 2 3,")
    assert "rows=576" in capsys.readouterr().err


@pytest.mark.parametrize("table,distinct", [(list(range(16)), 24), (SEED4, 576)],
                         ids=["identity4", "seed4"])
def test_enumerate_all_counts_distinct_clones(table, distinct, tmp_path, capsys):
    # A key selects one of (n!)**2 pairs; pairs that differ by the seed's
    # stabilizer give the same clone, so the identity has only n! clones.
    path = tmp_path / "seed.txt"
    path.write_text(serialize_sbox(SBox.from_table(table)))
    assert main(["enumerate", str(path), "--all"]) == 0
    assert capsys.readouterr().err == f"rows=576 distinct={distinct}\n"
    perms = list(permutations(range(4)))
    assert len({tuple(dense_clone(table, s1, s2)) for s1 in perms for s2 in perms}) == distinct
    assert 576 // stabilizer_size(table) == distinct


def test_enumerate_sampled_aes_invariance(aes_file, capsys):
    code = main(["enumerate", aes_file, "--sample", "100", "--rng-seed", "7",
                 "--check-invariance"])
    assert code == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 101
    assert "invariance_pass=100" in captured.err


def test_enumerate_all_guard(aes_file, tmp_path, capsys):
    assert main(["enumerate", aes_file, "--all"]) == 64
    capsys.readouterr()
    seed7 = tmp_path / "seed7.txt"
    seed7.write_text(serialize_sbox(identity_sbox(7)))
    assert main(["enumerate", str(seed7), "--all"]) == 64
    error = "error: --all is limited to n <= 6 (seed has n = 7); use --sample\n"
    assert capsys.readouterr().err == error


def test_enumerate_all_n5_covers_every_pair(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
    seed5 = tmp_path / "seed5.txt"
    seed5.write_text(serialize_sbox(SBox.from_table(random_bijective(random.Random(5), 5))))
    monkeypatch.setattr(cli, "_enumerate_rows", lambda sweep, pairs: (
        "".join(f"{k1},{k2}\n" for k1, k2 in pairs), [k1 << 56 | k2 for k1, k2 in pairs], 0))
    assert main(["enumerate", str(seed5), "--all"]) == 0
    captured = capsys.readouterr()
    rows = captured.out.splitlines()[1:]
    assert rows == [f"{k1},{k2}" for k1 in range(120) for k2 in range(120)]
    assert captured.err == "rows=14400 distinct=14400\n"


def test_enumerate_all_n6_covers_every_pair(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
    seed6 = tmp_path / "seed6.txt"
    seed6.write_text(serialize_sbox(SBox.from_table(random_bijective(random.Random(6), 6))))
    out = tmp_path / "sweep.csv"
    monkeypatch.setattr(cli, "_enumerate_rows", lambda sweep, pairs: (
        "".join(f"{k1},{k2}\n" for k1, k2 in pairs), [k2 for _, k2 in pairs], 0))
    assert main(["enumerate", str(seed6), "--all", "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "rows=518400 distinct=720\n")
    expected = (f"{k1},{k2}\n" for k1 in range(720) for k2 in range(720))
    with open(out, encoding="utf-8") as rows:
        assert next(rows).startswith("sigma1_index,")
        assert all(row == want for row, want in zip_longest(rows, expected))


def test_enumerate_rng_seed_needs_sample(seed4_file, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    for seed in ("3", "0"):
        assert main(["enumerate", seed4_file, "--all", "--rng-seed", seed, "--out", str(out)]) == 64
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --rng-seed needs --sample\n")
        assert not out.exists()
    # A given --rng-seed 0 is the default seed, not a missing one.
    assert main(["enumerate", seed4_file, "--sample", "6", "--rng-seed", "0"]) == 0
    given = capsys.readouterr()
    assert main(["enumerate", seed4_file, "--sample", "6"]) == 0
    assert capsys.readouterr() == given


def test_enumerate_requires_mode(seed4_file):
    assert main(["enumerate", seed4_file]) == 64
    assert main(["enumerate", seed4_file, "--all", "--sample", "3"]) == 64


def test_enumerate_deterministic_across_thread_counts(seed4_file, capsys, monkeypatch):
    monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
    main(["enumerate", seed4_file, "--sample", "20", "--rng-seed", "11",
          "--check-invariance"])
    serial = capsys.readouterr().out
    # A real two-worker pool, however short the sweep, for the 5 rows after
    # the 15 timed.
    started, pooled = [], cli._pooled_rows
    monkeypatch.setattr(cli, "_pooled_rows",
                        lambda workers, *args: started.append(workers) or pooled(workers, *args))
    monkeypatch.setattr(cli, "_schedule", fixed_plan(2, 64))
    monkeypatch.setenv("SBOXFORGE_THREADS", "2")
    main(["enumerate", seed4_file, "--sample", "20", "--rng-seed", "11",
          "--check-invariance"])
    parallel = capsys.readouterr().out
    assert started == [2]
    assert serial == parallel


@pytest.fixture
def serial_pool(monkeypatch):
    """A stand-in for cli._pooled_rows, set on cli: it sets itself up as a
    worker does and runs each batch here as its rows are read. Its
    `started` lists the worker count of every pool that ran."""

    def pooled_rows(workers, sweep, batches):
        pooled_rows.started.append(workers)
        cli._init_worker()
        yield from map(partial(cli._enumerate_rows, sweep), batches)

    pooled_rows.started = []
    monkeypatch.setattr(cli, "_pooled_rows", pooled_rows)
    return pooled_rows


def test_enumerate_checks_its_seed_once(seed4_file, capsys, monkeypatch, serial_pool):
    # The seed's entries are checked once, when its file is read. The sweep,
    # and each pool worker that its initializer sets up, keep that checked
    # table and build no SBox of it again.
    widths, init = [], core.SBox.__init__
    monkeypatch.setattr(core.SBox, "__init__",
                        lambda self, n, table: widths.append(n) or init(self, n, table))
    monkeypatch.setattr(cli, "_schedule", fixed_plan(2, 64))
    assert main(["enumerate", seed4_file, "--sample", "100", "--check-invariance"]) == 0
    assert serial_pool.started == [2]
    assert widths == [4]
    rng = random.Random(0)
    pairs = [(rng.randrange(24), rng.randrange(24)) for _ in range(100)]
    assert capsys.readouterr() == expected_csv(SEED4, pairs, True)


def test_enumerate_one_usable_cpu_starts_no_pool(seed4_file, capsys, monkeypatch, serial_pool):
    # The CPUs counted are those the process may run on, not the machine's:
    # a plan of as many workers as the cap allows starts none.
    monkeypatch.setattr(cli, "_schedule", lambda count, timings, cap: (cap, 64))
    monkeypatch.setenv("SBOXFORGE_THREADS", "8")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._cpus() == 1
    assert main(["enumerate", seed4_file, "--sample", "100"]) == 0
    assert serial_pool.started == []
    assert "rows=100 distinct=" in capsys.readouterr().err
    # Where the platform has no affinity mask, every CPU counts, and at least one.
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    assert cli._cpus() == 8
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._cpus() == 1


def test_enumerate_pool_bounds_tasks_in_flight(seed4_file, capsys, monkeypatch):
    monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
    argv = ["enumerate", seed4_file, "--sample", "615", "--rng-seed", "5"]
    assert main(argv) == 0
    serial = capsys.readouterr()
    # The plan of SCHEDULES' "600 rows of 8T": 600 rows after the 15 timed,
    # in batches of 600 // (2 * 4) = 75, so eight batches, on a real
    # 2-worker pool. Seen at the parent's end of each worker's pipe: batch
    # i goes to worker i mod 2, and each worker holds at most two, its next
    # batch going once the rows of the one before are read. Then each
    # worker gets one end marker, an empty batch, and the last rows come
    # back, in batch order.
    parent, events = os.getpid(), []
    connection = multiprocessing.connection.Connection
    send, recv = connection.send, connection.recv

    def sending(pipe, batch):
        if os.getpid() == parent:
            events.append(("send", pipe, len(batch)))
        return send(pipe, batch)

    def receiving(pipe):
        rows = recv(pipe)
        if os.getpid() == parent:
            events.append(("recv", pipe, rows[0].count("\n")))
        return rows

    monkeypatch.setattr(connection, "send", sending)
    monkeypatch.setattr(connection, "recv", receiving)
    monkeypatch.setattr(cli, "_schedule", fixed_plan(2, 75))
    assert main(argv) == 0
    assert capsys.readouterr() == serial
    pipes = list(dict.fromkeys(pipe for _, pipe, _ in events))
    assert [(kind, pipes.index(pipe), rows) for kind, pipe, rows in events] == (
        [("send", i % 2, 75) for i in range(4)]
        + [e for i in range(4) for e in [("recv", i % 2, 75), ("send", i % 2, 75)]]
        + [e for i in range(2) for e in [("recv", i, 75), ("send", i, 0)]]
        + [("recv", 0, 75), ("recv", 1, 75)])


def rows_at(seconds, *sizes):
    """Timed batches of `sizes` rows, each row taking `seconds`."""
    return [(seconds * size, size) for size in sizes]


def estimated(count, seconds):
    """The four timed batches, of 1, 2, 4 and 8 rows, of a sweep of `count`
    rows whose least time per row, the 8-row batch's, puts `seconds` on the
    rows left; a row of the first three takes twice that."""
    row = seconds / (count - 15)
    return rows_at(2 * row, 1, 2, 4) + rows_at(row, 8)


T = 2 ** -12  # a fast row's seconds, as at n = 4
FAST, SECOND = (1, 2, 4, 8), rows_at(1.0, 1, 1, 1, 1)  # rows of a second, as at n = 16

# cli._schedule(count, timings, cap) -> (workers, size), by row id. The rows
# left get one worker per POOL_START = 0.3 s of them at the least time per
# row, within the cap and their number, fewer than two meaning serial (1). A
# batch holds the rows of _BATCH_SECONDS = 0.25 s at that time, at most a
# quarter of each worker's share when pooled, and one row at least. Before
# each timed batch a sweep calls it with a cap of one, and the batch holds
# min(2 ** i, size) rows.
SCHEDULES = [
    # No timed batch: the row time is unbounded, so one serial row at any cap.
    ("empty sweep", 0, [], 1, (1, 1)),
    ("no timed batch", 576, [], 1, (1, 1)),
    ("no timed batch, cap 8", 100, [], 8, (1, 1)),
    # The timed batches grow while 0.25 s holds them: fast rows fill 1, 2, 4
    # and 8; rows of 0.125 s go two at a time, and a row of a second, as at
    # n = 16 or a first row cold in a forked child, leaves the next one row.
    ("timed after a fast row", 600, rows_at(T, 1), 1, (1, 1024)),
    ("timed after a 0.125 s row", 600, rows_at(0.125, 1), 1, (1, 2)),
    ("timed after a 1 s row", 576, rows_at(1.0, 1), 1, (1, 1)),
    # The row time is the least over each batch's rows, not the first
    # batch's or the mean: rows of 10T in the batches of 1, 2 and 4 and of T
    # in the batch of 8 give batches of 0.25 / T = 1024, not 10T's 102. The
    # 585 rows left take 0.14 s: no pool.
    ("least of the batches", 600, rows_at(10 * T, 1, 2, 4) + rows_at(T, 8), 2, (1, 1024)),
    # A slow first row keeps a short sweep serial: after a 1 s first row the
    # n = 4 --all sweep's 562 rows left take 0.07 s at T / 2, one batch.
    ("slow first row", 576, rows_at(1.0, 1) + rows_at(T / 2, 1, 4, 8), 2, (1, 2048)),
    # Two workers from 0.6 s of rows left: 614 rows of 4T stay serial, and
    # 615 get two, each batch a quarter of a worker's 307 rows.
    ("614 rows of 4T", 629, rows_at(4 * T, *FAST), 2, (1, 256)),
    ("615 rows of 4T", 630, rows_at(4 * T, *FAST), 2, (2, 76)),
    ("615 rows of 4T, cap 1", 630, rows_at(4 * T, *FAST), 1, (1, 256)),
    # One worker per 0.3 s of rows left, within the cap.
    ("85 rows of 16T", 100, rows_at(16 * T, *FAST), 8, (1, 64)),
    ("400 rows of 16T", 415, rows_at(16 * T, *FAST), 8, (5, 20)),
    ("985 rows of 16T, cap 8", 1000, rows_at(16 * T, *FAST), 8, (8, 30)),
    ("600 rows of 8T", 615, rows_at(8 * T, *FAST), 2, (2, 75)),
    # Rows of a second: each row left gets a worker, within the cap and the
    # rows left, and a batch holds one row; a short sweep has none left.
    ("2 rows of 1 s, cap 2", 6, SECOND, 2, (2, 1)),
    ("8 rows of 1 s, cap 8", 12, SECOND, 8, (8, 1)),
    ("3 rows of 1 s, cap 8", 7, SECOND, 8, (3, 1)),
    ("3 rows of 1 s, cap 2", 7, SECOND, 2, (2, 1)),
    ("3 rows of 1 s, cap 1", 7, SECOND, 1, (1, 1)),
    ("1 row of 1 s, cap 8", 5, SECOND, 8, (1, 1)),
    ("no row left, cap 8", 3, rows_at(T, 1, 2), 8, (1, 1024)),
    # A sweep finds a closed reader only when it writes, once a batch, so a
    # batch holds 0.25 s of rows at the row time, at most a quarter of each
    # worker's share when pooled, and one row at least. 600 rows, serial and
    # with a cap of 2; the rows left at T take 0.14 s, so they stay serial.
    ("batches of 1 s rows", 600, SECOND, 1, (1, 1)),
    ("batches of 1 s rows, cap 2", 600, SECOND, 2, (2, 1)),
    ("batches of 0.5 s rows", 600, rows_at(0.5, 1, 1, 1, 1), 1, (1, 1)),
    ("batches of 0.5 s rows, cap 2", 600, rows_at(0.5, 1, 1, 1, 1), 2, (2, 1)),
    ("batches of 0.125 s rows", 600, rows_at(0.125, 1, 2, 2, 2), 1, (1, 2)),
    ("batches of 0.125 s rows, cap 2", 600, rows_at(0.125, 1, 2, 2, 2), 2, (2, 2)),
    ("batches of 8T rows", 600, rows_at(8 * T, *FAST), 1, (1, 128)),
    ("batches of 8T rows, cap 2", 600, rows_at(8 * T, *FAST), 2, (2, 73)),
    ("batches of T rows", 600, rows_at(T, *FAST), 1, (1, 1024)),
    ("batches of T rows, cap 2", 600, rows_at(T, *FAST), 2, (1, 1024)),
    # Today's decisions at measured estimates of the rows left (2 cores,
    # Python 3.11.7, whole processes with --check-invariance and
    # SBOXFORGE_THREADS=2), where the 0.6 s threshold's margin is thin; a
    # retune moves them on purpose. The n = 5 --all sweep (14 385 rows left)
    # read 0.28-0.57 s in 41 of 42 runs: serial, and a pool lost 0.04-0.06 s
    # there.
    ("n=5 --all at 0.28 s", 14400, estimated(14400, 0.28), 2, (1, 12843)),
    # It read 0.76 s once, which pools it.
    ("n=5 --all at 0.76 s", 14400, estimated(14400, 0.76), 2, (2, 1798)),
    # Sampled n = 10 --sample 500 read 0.64-1.22 s: pooled from 0.64 s, so a
    # busier machine reading it under 0.6 s keeps it serial.
    ("n=10 --sample 500 at 0.64 s", 500, estimated(500, 0.64), 2, (2, 60)),
    # A random n = 5 seed with --sample 14400 read 1.0-2.2 s, several times
    # its rows' cost in a large batch (a timed batch of 8 shares few
    # sorted-coordinate keys), so it pools, and took 0.28 s pooled against
    # 0.22 s serially (medians of 6 alternating runs).
    ("n=5 --sample 14400 at 1.0 s", 14400, estimated(14400, 1.0), 2, (2, 1798)),
    ("n=5 --sample 14400 at 2.2 s", 14400, estimated(14400, 2.2), 2, (2, 1634)),
]


@pytest.mark.parametrize("count, timings, cap, plan", [row[1:] for row in SCHEDULES],
                         ids=[row[0] for row in SCHEDULES])
def test_schedule(count, timings, cap, plan):
    assert cli._schedule(count, timings, cap) == plan


def test_enumerate_pool_follows_timed_warm_rows(seed4_file, capsys, monkeypatch, serial_pool):
    # After the seed's invariants have built the width's plan and cached its
    # criteria, the sweep's first batches run here, of up to 1, 2, 4 and 8
    # rows. Before each, _schedule gets the sweep's row count, the (seconds,
    # rows) of the batches timed so far and a cap of one, and the batch
    # holds as many rows as that plan allows. Then one call with every timed
    # batch and the cap, min(SBOXFORGE_THREADS, the usable CPUs), plans the
    # rest, and only then does a pool start: here on two workers, however
    # few rows are left. Each batch takes its invariants in one call, as the
    # seed took its own first, and the output is the oracle's at any cap.
    # Without --check-invariance no row takes invariants.
    events, schedule, invariants = [], cli._schedule, cli._invariants

    def recorded(count, timings, cap):
        events.append(("plan", count, list(timings), cap))
        return 2, schedule(count, timings, cap)[1]

    monkeypatch.setattr(cli, "_schedule", recorded)
    monkeypatch.setattr(cli, "_invariants",
                        lambda *args: events.append("invariants") or invariants(*args))
    monkeypatch.setattr(cli, "_pooled_rows", lambda workers, *args: events.append(
        ("pool", workers)) or serial_pool(workers, *args))
    for rows in (0, 1, 3, 10, 17, 100):
        rng = random.Random(0)
        expected = expected_csv(SEED4, [(rng.randrange(24), rng.randrange(24))
                                        for _ in range(rows)], True)
        for threads, check in ((None, True), ("8", True), (None, False)):
            if threads:
                monkeypatch.setenv("SBOXFORGE_THREADS", threads)
            else:
                monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
            events.clear()
            argv = ["enumerate", seed4_file, "--sample", str(rows)] + ["--check-invariance"] * check
            assert main(argv) == 0
            timings = [e for e in events if e[0] == "plan"][-1][2]
            timed = [r for _, r in timings]
            assert timed == [min(2 ** i, schedule(rows, timings[:i], 1)[1], rows - sum(timed[:i]))
                             for i in range(len(timed))]
            assert sum(timed) == rows or len(timed) == 4
            assert all(seconds > 0 for seconds, _ in timings)
            cap = min(int(threads), cli._cpus()) if threads else 1
            head = ["invariants"] + [e for i in range(4) for e in [("plan", rows, timings[:i], 1)]
                                     + ["invariants"] * (i < len(timed))]
            head += [("plan", rows, timings, cap), ("pool", 2)]
            if check:
                assert events[:len(head)] == head
                assert events[len(head):] == ["invariants"] * (rows > sum(timed))
                assert capsys.readouterr() == expected
            else:
                assert events == [e for e in head if e != "invariants"]
                assert capsys.readouterr().out.count("\n") == rows + 1


def test_enumerate_short_sweep_starts_no_pool(seed4_file, capsys, monkeypatch, serial_pool):
    # Three rows are all timed, leaving none for a pool at any cap.
    monkeypatch.setenv("SBOXFORGE_THREADS", "64")
    assert main(["enumerate", seed4_file, "--sample", "3", "--check-invariance"]) == 0
    assert serial_pool.started == []
    assert "rows=3 distinct=3 invariance_pass=3" in capsys.readouterr().err


def test_enumerate_unwritable_output_fails_fast(seed4_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_invariants", _must_not_run)
    monkeypatch.setattr(cli, "_planes", _must_not_run)
    path = str(tmp_path / "missing" / "sweep.csv")
    assert main(["enumerate", seed4_file, "--all", "--check-invariance", "--out", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}: ")


def test_enumerate_invalid_threads(seed4_file, capsys, monkeypatch):
    for raw in ("zero", "0", "", "-1", "0x0", "0x"):
        monkeypatch.setenv("SBOXFORGE_THREADS", raw)
        assert main(["enumerate", seed4_file, "--sample", "1"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: SBOXFORGE_THREADS must be an integer >= 1, got {raw!r}\n"


def test_threads_are_read_as_an_entry_is(monkeypatch):
    # The rule of an s-box file's entries: decimal or 0x hex, ASCII, no `_`.
    for raw, cap in (("2", 2), ("0x2", 2), ("0X10", 16), ("007", 7)):
        monkeypatch.setenv("SBOXFORGE_THREADS", raw)
        assert cli._thread_cap() == cap


# ---------------------------------------------------------------------
# verify


def test_verify_match(seed4_file, clone4_file, capsys):
    assert main(["verify", seed4_file, clone4_file]) == 0
    out = capsys.readouterr().out
    assert "result: match" in out
    assert "nl: equal" in out


def test_verify_mismatch(aes_file, identity8_file, capsys):
    assert main(["verify", aes_file, identity8_file]) == 5
    out = capsys.readouterr().out
    assert "result: mismatch" in out
    assert "nl: differs" in out
    assert "sac: differs" in out
    assert "differences:" in out


def test_verify_names_an_nl_sd_that_analyze_does_not_print(tmp_path, capsys):
    # Reports carry nl's sd, which analyze does not print: these two tables'
    # nl lines match, and their nonlinearities (0, 2, 2, 4 and 0, 0, 4, 4)
    # differ in sd alone.
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("11 0 8 2 12 15 13 4 1 3 10 9 14 7 5 6\n")
    b.write_text("10 12 2 8 0 14 4 6 9 15 5 3 11 1 7 13\n")
    for path in (a, b):
        assert main(["analyze", str(path)]) == 0
        assert "nl: min=0 max=4 avg=2.000000\n" in capsys.readouterr().out
    assert main(["verify", str(a), str(b)]) == 5
    out = capsys.readouterr().out
    assert "nl: differs\n" in out
    assert out.endswith("differences: nl.sd sac.avg sac.sd bic_nl.min bic_nl.avg bic_nl.sd "
                        "bic_sac.min bic_sac.avg bic_sac.sd\n")


def test_verify_width_mismatch(seed4_file, aes_file):
    assert main(["verify", seed4_file, aes_file]) == 6


def test_verify_reads_both_tables_off_one_transpose(seed4_file, clone4_file, aes_file, capsys,
                                                   monkeypatch):
    # verify makes one _planes call, of both tables, after its width check,
    # and reads their invariants off it in one _invariants call.
    calls, planes_of, invariants = [], cli._planes, cli._invariants
    monkeypatch.setattr(cli, "_planes", lambda tables, n: calls.append(list(tables)) or planes_of(tables, n))
    monkeypatch.setattr(cli, "_invariants",
                        lambda tables, planes: calls.append("invariants") or invariants(tables, planes))
    assert main(["verify", seed4_file, aes_file]) == 6
    assert calls == []
    assert main(["verify", seed4_file, clone4_file]) == 0
    assert calls == [[tuple(SEED4), tuple(CLONE4)], "invariants"]
    assert capsys.readouterr().out.endswith("result: match\n")


def test_verify_parse_error(seed4_file, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not numbers")
    assert main(["verify", seed4_file, str(bad)]) == 1


def test_verify_names_a_file_that_is_not_utf8(seed4_file, tmp_path, capsys):
    path = tmp_path / "utf16.txt"
    path.write_text("9 13 10 15", encoding="utf-16")
    assert main(["verify", seed4_file, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff "
                            "in position 0: invalid start byte\n")


@pytest.mark.parametrize("token", ["1_0", "٣", "0x_1", "0x٣"])
def test_an_entry_python_alone_would_read_exits_1(token, tmp_path, capsys):
    # int("1_0"), int("٣"), int("0x_1", 16) and int("0x٣", 16) are all valid
    # entries of this n = 4 table; an entry is ASCII with no `_`.
    path = tmp_path / "seed.txt"
    path.write_text(" ".join([*map(str, range(15)), token]), encoding="utf-8")
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: invalid entry {token!r}\n")


def _verify_by_reports(a, b):
    """The stdout and exit code verify gave when it compared full reports:
    compare_reports(analyze(a), analyze(b)), each criterion differing when a
    difference names it or one of its fields."""
    comparison = compare_reports(analyze(SBox.from_table(a)), analyze(SBox.from_table(b)))
    hit = [any(d == name or d.startswith(name + ".") for d in comparison.differences)
           for name in ("bijective",) + analysis.CRITERIA]
    lines = [f"{name}: {'differs' if differs else 'equal'}"
             for name, differs in zip(("bijective",) + analysis.CRITERIA, hit)]
    if comparison.equal:
        return "".join(line + "\n" for line in [*lines, "result: match"]), 0
    lines += ["result: mismatch", "differences: " + " ".join(comparison.differences)]
    return "".join(line + "\n" for line in lines), 5


def _verify(a, b):
    """verify's stdout and exit code on the two tables, written to files."""
    with tempfile.TemporaryDirectory() as directory:
        paths = [os.path.join(directory, name) for name in ("a.txt", "b.txt")]
        for path, table in zip(paths, (a, b)):
            with open(path, "w") as f:
                f.write(serialize_sbox(SBox.from_table(table)))
        with redirect_stdout(io.StringIO()) as out:
            code = main(["verify", *paths])
    return out.getvalue(), code


def _bit_relabelled(table, sigma1, sigma2):
    """x -> sigma2(table[sigma1(x)]), sigma moving bit j to bit sigma[j]: the
    criteria's counts of `table`, reordered."""
    return [permute_bits(table[permute_bits(x, sigma1)], sigma2) for x in range(len(table))]


@st.composite
def _verify_pairs(draw):
    """Two tables of one width n in 2..10: the first bijective or not, the
    second random, bijective or not, a bit relabelling of the first, or one
    with two entries swapped."""
    n = draw(st.integers(2, 10))
    rng, size = random.Random(draw(st.integers(0, 1 << 32))), 1 << n
    a = random_bijective(rng, n)
    if draw(st.booleans()):
        a = [rng.randrange(size) for _ in range(size)]
    kind = draw(st.sampled_from(["random", "non-bijective", "clone", "swapped"]))
    if kind == "random":
        return a, random_bijective(rng, n)
    if kind == "non-bijective":
        return a, [rng.randrange(size) for _ in range(size)]
    b = _bit_relabelled(a, random_perm(rng, n), random_perm(rng, n))
    if kind == "swapped":
        x, y = rng.sample(range(size), 2)
        b[x], b[y] = b[y], b[x]
    return a, b


@settings(max_examples=80, deadline=None)
@given(_verify_pairs())
@example((list(AES_SBOX), [v ^ 0x63 for v in AES_SBOX]))  # equal criteria, not a clone
@example(([0, 1, 2, 3], [0, 1, 1, 0]))  # equal counts; only bijectivity differs
def test_verify_says_what_comparing_reports_says(tables):
    # verify decides on the two tables' invariants, and its stdout and exit
    # code are what comparing their full reports gave.
    assert _verify(*tables) == _verify_by_reports(*tables)


@pytest.mark.parametrize("n", [12, 16])
def test_verify_says_what_comparing_reports_says_at_the_widest(n):
    rng = random.Random(n)
    a = random_bijective(rng, n)
    b = _bit_relabelled(a, random_perm(rng, n), random_perm(rng, n))
    if n == 12:
        b[1], b[2] = b[2], b[1]
    expected = _verify_by_reports(a, b)
    assert expected[1] == (5 if n == 12 else 0)
    assert _verify(a, b) == expected


# ---------------------------------------------------------------------
# n = 16, the widest s-box the types accept


@pytest.fixture(scope="module")
def seed16(tmp_path_factory):
    table = random_bijective(random.Random(16), 16)
    path = tmp_path_factory.mktemp("n16") / "seed16.txt"
    path.write_text(serialize_sbox(SBox(16, tuple(table))))
    return str(path), table


def _indexed_dense_clone(table, sigma1, sigma2):
    """oracles.dense_clone with the row permutation matrix applied as an index;
    at n = 16 that matrix alone would take 32 GiB."""
    n = len(table).bit_length() - 1
    rows = decimal_rows(bits_matrix(range(1 << n), n) @ perm_matrix(sigma1))
    return decimal_rows(bits_matrix(table, n)[rows] @ perm_matrix(sigma2))


def test_n16_clone_key(seed16, capsys):
    assert _indexed_dense_clone(SEED4, SIGMA1_4, SIGMA2_4) == dense_clone(SEED4, SIGMA1_4, SIGMA2_4)
    path, table = seed16
    assert main(["clone", path, "--key", "5eed16"]) == 0
    captured = capsys.readouterr()
    sigma1, sigma2 = ([int(v) for v in line.split("=")[1].split(",")]
                      for line in captured.err.splitlines())
    expected = _indexed_dense_clone(table, sigma1, sigma2)
    assert captured.out == serialize_sbox(SBox(16, tuple(expected)))


def test_n16_analyze_json(seed16, capsys):
    assert main(["analyze", seed16[0], "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["n"] == 16 and document["bijective"] is True
    assert 0 < document["nl"]["min"] <= document["nl"]["max"] <= document["nl_bound"]


def test_n16_verify_clone(seed16, tmp_path, capsys):
    out = str(tmp_path / "clone16.txt")
    assert main(["clone", seed16[0], "--key", "5eed16", "-o", out]) == 0
    assert main(["verify", seed16[0], out]) == 0
    assert capsys.readouterr().out.endswith("result: match\n")


def test_n16_enumerate_sample(seed16, capsys):
    path, table = seed16
    assert main(["enumerate", path, "--sample", "1", "--rng-seed", "16"]) == 0
    captured = capsys.readouterr()
    header, row = captured.out.splitlines()
    k1, k2, _, _, prefix, digest = row.split(",")[:6]
    clone = clone_sbox(SBox(16, tuple(table)), lehmer_decode(int(k1), 16), lehmer_decode(int(k2), 16))
    assert (prefix, digest) == formats._fingerprint(clone.table)
    assert captured.err == "rows=1 distinct=1\n"


# ---------------------------------------------------------------------
# usage errors


@pytest.mark.parametrize("argv,flag", [
    (["derive", "--key=--", "--n", "4"], "--key"),
    (["derive", "--key", "00", "--n=--"], "--n"),
    (["clone", "s", "--key", "00", "--remove-fixed-points", "--max-attempts=--"], "--max-attempts"),
    (["enumerate", "s", "--sample=--"], "--sample"),
    (["clone", "s", "--key", "17", "-o=--"], "-o/--output"),
    (["analyze", "s", "--format=--"], "--format"),
])
def test_option_value_dashdash_exits_64(argv, flag, seed4_file, tmp_path, capsys, monkeypatch):
    # argparse reads "--opt=--" as an option given no value.
    monkeypatch.chdir(tmp_path)
    assert main([seed4_file if arg == "s" else arg for arg in argv]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: argument {flag}: expected one argument\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["seed4.txt"]


# ---------------------------------------------------------------------
# help


def help_lists(text, left, explanation):
    """True when a help line starts with `left` and gives `explanation` there or on the next line."""
    lines = text.splitlines() + [""]
    return any(line.startswith("  " + left) and explanation in line + lines[i + 1]
               for i, line in enumerate(lines))


def test_top_level_help_lists_every_command(capsys):
    assert main(["-h"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    for name, (about, _, _) in cli.COMMANDS.items():
        assert help_lists(captured.out, name, about)
    assert help_lists(captured.out, "-h, --help", "show this help message and exit")


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_command_help_lists_every_argument(name, capsys):
    assert main([name, "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith(f"usage: sboxforge {name} [-h]")
    _, positionals, options = cli.COMMANDS[name]
    for dest, explanation in positionals:
        assert help_lists(captured.out, dest, explanation)
    assert help_lists(captured.out, "-h, --help", "show this help message and exit")
    for option in options:
        assert help_lists(captured.out, option.flags[0], option.help)


@pytest.mark.parametrize("name", list(HELP))
def test_help_bytes(name, capsys):
    assert main(([name] if name else []) + ["-h"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (HELP[name], "")


# ---------------------------------------------------------------------
# module entry point


def test_python_dash_m_entry(child_env):
    result = subprocess.run(
        [sys.executable, "-m", "sboxforge", "derive", "--key", "00", "--n", "4"],
        capture_output=True, text=True, env=child_env,
    )
    assert result.returncode == 0
    assert result.stdout == "sigma1=0,1,2,3\nsigma2=0,1,2,3\n"


def test_output_does_not_depend_on_the_hash_seed(aes_file, identity8_file, seed4_file,
                                                 child_env):
    # The same bytes and exit codes under two fixed hash seeds, in fresh
    # interpreters: no set or dict of str decides an order.
    lines = [
        ["analyze", aes_file, "--format", "json"],
        ["verify", aes_file, identity8_file],  # criteria differ: exit 5
        ["enumerate", seed4_file, "--all", "--check-invariance"],
        ["clone", aes_file, "--key", "00ff", "--remove-fixed-points"],
    ]
    runs = {}
    for hash_seed in ("0", "4242"):
        env = {**child_env, "PYTHONHASHSEED": hash_seed}
        env.pop("SBOXFORGE_THREADS", None)
        runs[hash_seed] = [subprocess.run([sys.executable, "-m", "sboxforge", *argv],
                                          capture_output=True, env=env) for argv in lines]
    assert [run.returncode for run in runs["0"]] == [0, 5, 0, 0]
    assert [(run.returncode, run.stdout, run.stderr) for run in runs["0"]] == \
        [(run.returncode, run.stdout, run.stderr) for run in runs["4242"]]


# ---------------------------------------------------------------------
# Ctrl-C


def test_interrupt_prints_one_line_and_exits_130(seed4_file, tmp_path, capsys, monkeypatch):
    # A real SIGINT, as Ctrl-C sends, ends the command through Terminated as
    # SIGTERM does, and main's handler is gone once main returns.
    serialize, before = cli.serialize_sbox, signal.getsignal(signal.SIGINT)

    def interrupted(sbox):
        # Checked first: with any other handler the signal could end the test run.
        assert signal.getsignal(signal.SIGINT) is cli._terminate
        signal.raise_signal(signal.SIGINT)
        return serialize(sbox)

    monkeypatch.setattr(cli, "serialize_sbox", interrupted)
    out = tmp_path / "clone.txt"
    argv = ["clone", seed4_file, "--key", "17", "-o", str(out)]
    assert main(argv) == cli.EXIT_INTERRUPTED == 130
    assert capsys.readouterr() == ("", "error: interrupted\n")
    assert not out.exists()  # the run created it, so the run removes it
    out.write_bytes(b"keep me\n")
    assert main(argv) == 130
    assert capsys.readouterr() == ("", "error: interrupted\n")
    assert out.read_bytes() == b"keep me\n"
    assert signal.getsignal(signal.SIGINT) is before


class _InterruptedImport:
    """A stand-in for sboxforge.cli whose `main` is Ctrl-C arriving mid-import."""

    @property
    def main(self):
        raise KeyboardInterrupt


def test_interrupt_while_starting_prints_one_line_and_exits_130(capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "sboxforge.cli", _InterruptedImport())
    with pytest.raises(SystemExit) as exited:
        runpy.run_module("sboxforge", run_name="__main__")
    assert exited.value.code == 130
    assert capsys.readouterr() == ("", "error: interrupted\n")


def test_cli_import_leaves_signal_out(child_env):
    # Only a pool worker sets its Ctrl-C handler, so only it loads signal.
    probe = "import sys, sboxforge.cli; print('signal' in sys.modules)"
    result = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                            env=child_env, check=True)
    assert result.stdout == "False\n"


def test_pool_workers_ignore_ctrl_c():
    cli._init_worker()  # conftest's keep_ctrl_c restores the handler
    assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN


@pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM, signal.SIGHUP])
def test_pool_workers_exit_when_their_parent_dies(sig, aes_file, tmp_path, child_env):
    # A signal to the parent alone ends it, and the stdout and stderr pipes
    # its workers share with it close within seconds, so a caller that reads
    # them to the end is not kept waiting. SIGKILL kills the parent before it
    # can stop its workers: each sees its parent go and exits. SIGTERM and
    # SIGHUP end it as Ctrl-C does: it stops its workers, removes the CSV it
    # created, prints one line and exits 128 + the signal number, and no
    # process of its group is left. The whole group is killed at the end, so
    # no process is left either way.
    out = tmp_path / "sweep.csv"
    sweep = subprocess.Popen(
        [sys.executable, "-m", "sboxforge", "enumerate", aes_file, "--sample", "100000",
         "--check-invariance", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        env={**child_env, "SBOXFORGE_THREADS": "2"})
    try:
        deadline = time.monotonic() + 60
        # Pooled rows have come back, so every worker has run its initializer.
        while not (out.exists() and out.stat().st_size > 16384) and time.monotonic() < deadline:
            time.sleep(0.02)
        os.kill(sweep.pid, sig)
        began = time.monotonic()
        # Ends when every holder of the pipes has exited, and the parent has been waited for.
        stdout, stderr = sweep.communicate(timeout=30)
        assert time.monotonic() - began < 5
        if sig != signal.SIGKILL:  # the parent waited for its workers, so none is left
            with pytest.raises(ProcessLookupError):
                os.killpg(sweep.pid, 0)
    finally:
        try:
            os.killpg(sweep.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        sweep.wait()
    if sig == signal.SIGKILL:
        assert sweep.returncode == -sig
    else:
        assert (sweep.returncode, stdout, stderr) == (128 + sig, b"", b"error: terminated\n")
        assert not out.exists()


def test_sigterm_before_the_first_write_leaves_the_out_file(seed4_file, tmp_path, capsys,
                                                             monkeypatch):
    # A serial sweep that SIGTERM reaches in its first batch has written
    # nothing, so the --out file it found stays as it was. It prints one line
    # and exits 143, and main's handler is gone once main returns.
    monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
    out = tmp_path / "sweep.csv"
    out.write_bytes(b"keep me\n")
    rows_of, before = cli._enumerate_rows, signal.getsignal(signal.SIGTERM)

    def terminated(sweep, pairs):
        # Checked first: with any other handler the signal could end the test run.
        assert signal.getsignal(signal.SIGTERM) is cli._terminate
        signal.raise_signal(signal.SIGTERM)
        return rows_of(sweep, pairs)

    monkeypatch.setattr(cli, "_enumerate_rows", terminated)
    assert main(["enumerate", seed4_file, "--all", "--out", str(out)]) == cli.EXIT_TERMINATED == 143
    assert capsys.readouterr() == ("", "error: terminated\n")
    assert out.read_bytes() == b"keep me\n"
    assert signal.getsignal(signal.SIGTERM) is before


@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGHUP], ids=["SIGINT", "SIGHUP"])
def test_an_ignored_ending_signal_stays_ignored(sig, seed4_file, capsys, monkeypatch):
    # Under nohup SIGHUP is ignored, and a shell may ignore SIGINT in a
    # background job: a command runs through one to its end, and neither
    # main nor a pool worker's initializer handles it.
    previous = signal.signal(sig, signal.SIG_IGN)
    serialize = cli.serialize_sbox
    monkeypatch.setattr(cli, "serialize_sbox", lambda s: signal.raise_signal(sig) or serialize(s))
    try:
        assert main(["clone", seed4_file, "--key", "00"]) == 0
        assert signal.getsignal(sig) is signal.SIG_IGN
        cli._init_worker()  # conftest's keep_ctrl_c restores the Ctrl-C handler
        assert signal.getsignal(sig) is signal.SIG_IGN
    finally:
        signal.signal(sig, previous)
    assert capsys.readouterr() == (serialize_sbox(SBox.from_table(SEED4)),
                                   "sigma1=0,1,2,3\nsigma2=0,1,2,3\n")


def test_main_sets_its_handlers_on_the_main_thread_only(monkeypatch, capsys):
    # main's handlers hold while it runs on the main thread, and the
    # previous ones come back after it; on another thread it sets none.
    endings = (signal.SIGINT, signal.SIGTERM, signal.SIGHUP)
    assert cli._ENDINGS == endings
    seen, derive = [], cli.key_to_permutations
    monkeypatch.setattr(cli, "key_to_permutations", lambda *args: seen.append(
        [signal.getsignal(sig) for sig in endings]) or derive(*args))
    before = [signal.getsignal(sig) for sig in endings]
    argv = ["derive", "--key", "00", "--n", "4"]
    codes = [main(argv)]
    thread = threading.Thread(target=lambda: codes.append(main(argv)))
    thread.start()
    thread.join()
    assert codes == [0, 0]
    assert seen == [[cli._terminate] * 3, before]
    assert [signal.getsignal(sig) for sig in endings] == before
    assert capsys.readouterr().out == "sigma1=0,1,2,3\nsigma2=0,1,2,3\n" * 2


def test_pool_workers_are_stopped_by_sigkill(seed4_file, tmp_path, capsys, monkeypatch):
    # A worker leaves Ctrl-C to the parent, and keeps the SIGTERM handler it
    # inherits, main's or an ignore: the pool stops its workers with
    # SIGKILL, which no handler takes. Here the test process ignores
    # SIGTERM, as a forked worker then does, and a write that fails on the
    # first pooled batch ends the sweep: exit 1, one line, SIGKILL sent to
    # each of the two workers and no other signal, and no worker left.
    previous = signal.signal(signal.SIGTERM, cli._terminate)
    signal.signal(signal.SIGINT, cli._terminate)  # conftest's keep_ctrl_c restores it
    try:
        cli._init_worker()
        assert signal.getsignal(signal.SIGTERM) is cli._terminate
        assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        out, real, kill, sent = tmp_path / "sweep.csv", os.write, os.kill, []

        def full_once_pooled(fd, data):
            if not multiprocessing.active_children():  # the timed batches, before the pool starts
                return real(fd, data)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "write", full_once_pooled)
        monkeypatch.setattr(os, "kill", lambda pid, sig: sent.append(sig) or kill(pid, sig))
        monkeypatch.setattr(cli, "_schedule", fixed_plan(2, 64))
        assert main(["enumerate", seed4_file, "--sample", "400", "--out", str(out)]) == 1
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert capsys.readouterr() == (
        "", f"error: cannot write {out}: [Errno 28] No space left on device\n")
    assert sent == [signal.SIGKILL] * 2 and not multiprocessing.active_children()
    assert not out.exists()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_ctrl_c_before_a_forked_workers_initializer_ends_it_quietly(child_env):
    # A child forked while main's handlers are set inherits them. A Ctrl-C
    # that reaches it before any initializer has run, as one may reach a
    # just-forked pool worker, raises Terminated(130) there, a SystemExit,
    # which ends it with that code and prints nothing; a KeyboardInterrupt
    # would print a traceback and exit 1.
    probe = (
        "import multiprocessing, os, signal, time\n"
        "from sboxforge import cli\n"
        "ready, started = os.pipe()\n"
        "with cli._signals_end_the_command():\n"
        "    child = multiprocessing.get_context('fork').Process(\n"
        "        target=lambda: os.write(started, b'.') and time.sleep(60))\n"
        "    child.start()\n"
        "    os.read(ready, 1)\n"
        "    os.kill(child.pid, signal.SIGINT)\n"
        "    child.join(30)\n"
        "print(child.exitcode)\n")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=child_env, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "130\n", "")


def run_in_own_group(argv, env):
    """The exit code, stdout and stderr of `argv`, run in a process group of
    its own that must be empty once it has exited: none of its workers
    outlives it. Whatever is left is killed."""
    process = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               start_new_session=True, env=env)
    try:
        stdout, stderr = process.communicate(timeout=60)
        with pytest.raises(ProcessLookupError):
            os.killpg(process.pid, 0)
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    return process.returncode, stdout, stderr


def test_a_worker_killed_from_outside_ends_the_sweep_in_one_line(aes_file, tmp_path, child_env):
    # A pool worker that the OOM killer or kill -9 ends breaks the pool. The
    # sweep stops its other workers, removes the CSV it created, prints one
    # line and exits 7, leaving no process of its group. Here the sweep's
    # process sends SIGKILL to one of its two workers once two pooled
    # batches have come back.
    out = tmp_path / "sweep.csv"
    probe = (
        "import multiprocessing, os, signal, sys\n"
        "from sboxforge import cli\n"
        "cli._schedule, pooled_rows = lambda count, timings, cap: (2, 64), cli._pooled_rows\n"
        "def killing(*args):\n"
        "    for i, rows in enumerate(pooled_rows(*args)):\n"
        "        if i == 1:\n"
        "            os.kill(multiprocessing.active_children()[0].pid, signal.SIGKILL)\n"
        "        yield rows\n"
        "cli._pooled_rows = killing\n"
        "sys.exit(cli.main(sys.argv[1:]))\n")
    code, stdout, stderr = run_in_own_group(
        [sys.executable, "-c", probe, "enumerate", aes_file, "--sample", "3000",
         "--check-invariance", "--out", str(out)], child_env)
    assert (code, stdout, stderr) == (
        cli.EXIT_WORKER, b"", b"error: a worker process ended before its rows came back\n")
    assert cli.EXIT_WORKER == 7 and not out.exists()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_a_batch_that_raises_in_a_worker_ends_the_sweep_as_a_lost_worker(aes_file, tmp_path,
                                                                           child_env):
    # An exception in a worker's batch ends that worker, which prints
    # "Process NAME:" and the traceback on stderr, and the sweep takes it as
    # a worker killed from outside: it stops the other worker, removes the
    # CSV it created, prints the lost worker's one line and exits 7, leaving
    # no process of its group. Here the first worker's batches raise, in a
    # child forked from a process whose _enumerate_rows is stubbed.
    out = tmp_path / "sweep.csv"
    probe = (
        "import multiprocessing, sys\n"
        "multiprocessing.set_start_method('fork')\n"
        "from sboxforge import cli\n"
        "cli._schedule, rows_of = lambda count, timings, cap: (2, 64), cli._enumerate_rows\n"
        "def failing(sweep, pairs):\n"
        "    if multiprocessing.current_process().name == 'ForkProcess-1':\n"
        "        raise RuntimeError('a batch failed')\n"
        "    return rows_of(sweep, pairs)\n"
        "cli._enumerate_rows = failing\n"
        "sys.exit(cli.main(sys.argv[1:]))\n")
    code, stdout, stderr = run_in_own_group(
        [sys.executable, "-c", probe, "enumerate", aes_file, "--sample", "3000",
         "--check-invariance", "--out", str(out)], child_env)
    assert (code, stdout) == (cli.EXIT_WORKER, b"")
    assert stderr.startswith(b"Process ForkProcess-1:\nTraceback (most recent call last):\n")
    assert stderr.endswith(b"\nRuntimeError: a batch failed\n"
                           b"error: a worker process ended before its rows came back\n")
    assert stderr.count(b"Traceback") == 1 and not out.exists()


@pytest.mark.parametrize("sig, code, line", [
    pytest.param(signal.SIGINT, 130, "error: interrupted\n", id="SIGINT"),
    pytest.param(signal.SIGTERM, 143, "error: terminated\n", id="SIGTERM"),
    pytest.param(signal.SIGHUP, 129, "error: terminated\n", id="SIGHUP"),
])
def test_interrupted_pooled_sweep_stops_at_once(sig, code, line, aes_file, tmp_path, child_env):
    # Ctrl-C, a closing terminal's SIGHUP and a group SIGTERM reach the
    # whole process group. The workers ignore SIGINT and end quietly on the
    # other two; the parent stops them, prints one line, removes the CSV it
    # created and exits 128 + the signal without waiting for the batches in
    # flight.
    out = tmp_path / "sweep.csv"
    sweep = subprocess.Popen(
        [sys.executable, "-m", "sboxforge", "enumerate", aes_file, "--sample", "100000",
         "--check-invariance", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
        env={**child_env, "SBOXFORGE_THREADS": "2"})
    try:
        deadline = time.monotonic() + 60
        # More than one 8 KB buffer of rows: pooled rows have come back, so
        # every worker has run its initializer.
        while not (out.exists() and out.stat().st_size > 16384) and time.monotonic() < deadline:
            time.sleep(0.02)
        os.killpg(sweep.pid, sig)
        began = time.monotonic()
        stdout, stderr = sweep.communicate(timeout=60)
    finally:
        sweep.kill()
    assert (sweep.returncode, stdout, stderr) == (code, "", line)
    assert time.monotonic() - began < 5
    assert not out.exists()
