import hashlib
import json
import random
import subprocess
import sys
from itertools import permutations, zip_longest
from math import factorial

import pytest

from concurrent.futures import ProcessPoolExecutor

from sboxforge import SBox, analysis, cli, clone_sbox, core, find_fixed_points, lehmer_decode
from sboxforge.cli import main
from sboxforge.formats import fingerprint, serialize_sbox

from oracles import (
    bits_matrix,
    decimal_rows,
    dense_clone,
    first_clean_pair,
    perm_matrix,
    random_bijective,
    stabilizer_size,
)
from vectors import AES_SBOX, CLONE4, HELP, SEED4, SIGMA1_4, SIGMA2_4


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
    path.write_text(serialize_sbox(SBox.identity(8)))
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
    out.write_text("")
    assert main(argv) == 3
    assert out.exists()  # a file that was there before is not removed


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
    path.write_text(serialize_sbox(SBox.identity(4)))
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
    # the identity, whose coordinate functions are linear (NL 0, not 4).
    monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
    made = []

    def second_is_wrong(seed, rows, out):
        made.append(rows)
        return SBox.identity(4) if len(made) == 2 else core._clone(seed, rows, out)

    monkeypatch.setattr(cli, "_clone", second_is_wrong)
    assert main(["enumerate", seed4_file, "--sample", "3", "--check-invariance"]) == 4
    captured = capsys.readouterr()
    rows = captured.out.splitlines()[1:]
    assert [line.rsplit(",", 1)[1] for line in rows] == ["pass", "fail", "pass"]
    assert rows[1].split(",")[4] == "0 1 2 3 4 5 6 7"
    assert captured.err.endswith(" invariance_pass=2\n")


def test_enumerate_invariance_scans_fixed_points_once_per_row(seed4_file, capsys, monkeypatch):
    monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
    scanned = []

    def counting(s):
        scanned.append(s)
        return find_fixed_points(s)

    monkeypatch.setattr(cli, "find_fixed_points", counting)
    monkeypatch.setattr(analysis, "find_fixed_points", counting)
    assert main(["enumerate", seed4_file, "--sample", "10", "--check-invariance"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 11
    # One scan per row; the seed's invariants need none.
    assert len(scanned) == 10


def test_enumerate_decodes_each_rank_once(seed4_file, monkeypatch):
    monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
    decoded = []

    def counting(index, n):
        decoded.append(index)
        return lehmer_decode(index, n)

    monkeypatch.setattr(cli, "lehmer_decode", counting)
    # Each sweep has its own rank cache, and decodes each rank it meets once:
    # --all every rank of S_4 in its 576 rows, a --sample sweep after it
    # each rank it draws, once more.
    assert main(["enumerate", seed4_file, "--all"]) == 0
    assert sorted(decoded) == list(range(24))
    decoded.clear()
    assert main(["enumerate", seed4_file, "--sample", "50", "--check-invariance"]) == 0
    assert sorted(decoded) == sorted(set(decoded)) and decoded
    # Every rank of S_6 fits: after rows that meet all 720, rows that meet
    # them again decode none.
    decoded.clear()
    cli._init_sweep(random_bijective(random.Random(6), 6), None)
    for k in range(720):
        cli._enumerate_row((k, 719 - k))
    assert sorted(decoded) == list(range(720))
    for k in range(720):
        cli._enumerate_row((719 - k, k))
    assert len(decoded) == 720


def test_enumerate_rank_cache_keeps_lift_budget(tmp_path, capsys, monkeypatch):
    # The cached lifts of a sweep hold at most 2**16 table entries: 2**16 >> n
    # ranks of 2**n entries each. Sampled n = 10 ranks rarely repeat, so the
    # cache runs full.
    monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
    seed10 = tmp_path / "seed10.txt"
    seed10.write_text(serialize_sbox(SBox.from_table(random_bijective(random.Random(10), 10))))
    assert main(["enumerate", str(seed10), "--sample", "300"]) == 0
    assert capsys.readouterr().err == "rows=300 distinct=300\n"
    info = cli._sweep[2].cache_info()
    assert info.misses > 500 and info.currsize == info.maxsize == 1 << 16 - 10


def expected_sweep(table):
    """stdout and stderr of `enumerate --all --check-invariance` on `table`, built
    pair by pair from lehmer_decode, the dense oracle and the SHA-256 of the
    clone's decimal join, with the fixed points counted directly."""
    n = len(table).bit_length() - 1
    top = len(table) - 1
    lines = ["sigma1_index,sigma2_index,sigma1,sigma2,prefix,hash64,"
             "fixed_points,reverse_fixed_points,invariance"]
    digests = set()
    for k1 in range(factorial(n)):
        for k2 in range(factorial(n)):
            sigma1, sigma2 = lehmer_decode(k1, n).images, lehmer_decode(k2, n).images
            clone = dense_clone(table, sigma1, sigma2)
            digest = hashlib.sha256(" ".join(map(str, clone)).encode()).hexdigest()[:16]
            digests.add(digest)
            lines.append(",".join([
                str(k1), str(k2), " ".join(map(str, sigma1)), " ".join(map(str, sigma2)),
                " ".join(map(str, clone[:8])), digest,
                str(sum(v == i for i, v in enumerate(clone))),
                str(sum(v == top - i for i, v in enumerate(clone))), "pass"]))
    rows = len(lines) - 1
    return "\n".join(lines) + "\n", f"rows={rows} distinct={len(digests)} invariance_pass={rows}\n"


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
    monkeypatch.setattr(cli, "POOL_START", 1e-12)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("SBOXFORGE_THREADS", "2")
    assert main(argv) == 0
    assert serial_pool.started == [2]
    assert capsys.readouterr() == expected


def test_enumerate_all_rows_match_oracle_on_two_workers(sweeps, capsys, monkeypatch):
    path, expected = sweeps[1]
    started = []

    def spy_pool(max_workers, **kwargs):
        started.append(max_workers)
        return ProcessPoolExecutor(max_workers=max_workers, **kwargs)
    monkeypatch.setattr(cli, "_process_pool", spy_pool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("SBOXFORGE_THREADS", "2")
    assert main(["enumerate", path, "--all", "--check-invariance"]) == 0
    assert started == [2]
    assert capsys.readouterr() == expected


def test_enumerate_sweeps_share_no_rank(sweeps, capsys, monkeypatch):
    # Widths 4, 5, then 4 again in one process: each sweep decodes its own
    # n! ranks once, and its rows match the oracle's.
    monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
    for path, expected in sweeps:
        assert main(["enumerate", path, "--all", "--check-invariance"]) == 0
        assert capsys.readouterr() == expected
        info = cli._sweep[2].cache_info()
        assert info.misses == info.currsize == factorial(cli._sweep[0].n)


def test_enumerate_all_computes_criteria_once_per_sigma1(seed4_file, capsys, monkeypatch):
    # --all takes sigma1 outermost. The seed's criteria miss the one-entry
    # cache, the identity sigma1's rows hit that entry, and each other sigma1
    # misses on its first row only: 4! = 24 misses in 1 + 576 lookups.
    monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
    analysis._criteria.cache_clear()
    assert main(["enumerate", seed4_file, "--all", "--check-invariance"]) == 0
    assert capsys.readouterr().err == "rows=576 distinct=576 invariance_pass=576\n"
    info = analysis._criteria.cache_info()
    assert (info.misses, info.hits, info.maxsize, info.currsize) == (24, 553, 1, 1)
    analysis._criteria.cache_clear()


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
    seed7.write_text(serialize_sbox(SBox.identity(7)))
    assert main(["enumerate", str(seed7), "--all"]) == 64
    error = "error: --all is limited to n <= 6 (seed has n = 7); use --sample\n"
    assert capsys.readouterr().err == error


def test_enumerate_all_n5_covers_every_pair(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
    seed5 = tmp_path / "seed5.txt"
    seed5.write_text(serialize_sbox(SBox.from_table(random_bijective(random.Random(5), 5))))
    monkeypatch.setattr(cli, "_enumerate_row", lambda pair: (f"{pair[0]},{pair[1]}", pair, None))
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
    monkeypatch.setattr(cli, "_enumerate_row", lambda pair: (f"{pair[0]},{pair[1]}", pair[1], None))
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
    main(["enumerate", seed4_file, "--sample", "8", "--rng-seed", "11",
          "--check-invariance"])
    serial = capsys.readouterr().out
    # A real two-worker pool, however short the sweep.
    started = []

    def spy_pool(max_workers, **kwargs):
        started.append(max_workers)
        return ProcessPoolExecutor(max_workers=max_workers, **kwargs)
    monkeypatch.setattr(cli, "_process_pool", spy_pool)
    monkeypatch.setattr(cli, "POOL_START", 1e-12)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("SBOXFORGE_THREADS", "2")
    main(["enumerate", seed4_file, "--sample", "8", "--rng-seed", "11",
          "--check-invariance"])
    parallel = capsys.readouterr().out
    assert started == [2]
    assert serial == parallel


class SerialPool:
    """Stands in for cli._process_pool: runs each task when its result is read."""

    started = []  # max_workers of every pool built
    in_flight = []  # tasks submitted and not yet read, after each submit

    def __init__(self, max_workers, initializer, initargs):
        self.started.append(max_workers)
        self.pending = 0
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        pool = self
        pool.pending += 1
        pool.in_flight.append(pool.pending)

        class Deferred:
            def result(self):
                pool.pending -= 1
                return fn(*args)
        return Deferred()


@pytest.fixture
def serial_pool(monkeypatch):
    SerialPool.started, SerialPool.in_flight = [], []
    monkeypatch.setattr(cli, "_process_pool", SerialPool)
    return SerialPool


def test_enumerate_workers_bounded_by_cpus_and_rows(seed4_file, capsys, monkeypatch, serial_pool):
    monkeypatch.setattr(cli, "POOL_START", 1e-12)  # the row-time estimate never binds
    monkeypatch.setenv("SBOXFORGE_THREADS", "64")
    # Four of the seven rows are timed before the pool starts, leaving three.
    for cpus, expected in ((8, 3), (2, 2), (None, None)):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        serial_pool.started.clear()
        assert main(["enumerate", seed4_file, "--sample", "7"]) == 0
        assert serial_pool.started == ([expected] if expected else [])
    assert capsys.readouterr().out.count("\n") == 3 * 8


def test_enumerate_short_sweep_starts_no_pool(seed4_file, capsys, monkeypatch, serial_pool):
    monkeypatch.setenv("SBOXFORGE_THREADS", "64")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    assert main(["enumerate", seed4_file, "--sample", "3", "--check-invariance"]) == 0
    assert serial_pool.started == []
    assert "rows=3 distinct=3 invariance_pass=3" in capsys.readouterr().err


def test_enumerate_pool_bounds_tasks_in_flight(seed4_file, capsys, monkeypatch, serial_pool):
    monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
    argv = ["enumerate", seed4_file, "--sample", "600", "--rng-seed", "5"]
    assert main(argv) == 0
    serial = capsys.readouterr()
    monkeypatch.setattr(cli, "POOL_START", 1e-12)
    monkeypatch.setenv("SBOXFORGE_THREADS", "2")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert main(argv) == 0
    assert capsys.readouterr() == serial
    # 600 rows in tasks of 600 // (2 * 4) = 75: eight tasks, at most four in flight.
    assert serial_pool.started == [2]
    assert len(serial_pool.in_flight) == 8
    assert max(serial_pool.in_flight) == 4


def test_enumerate_pool_follows_timed_warm_rows(seed4_file, capsys, monkeypatch, serial_pool):
    # After the seed's invariants have built the width's plan and cached its
    # criteria, the sweep's first rows run here and are timed, up to four; a
    # stubbed clock makes them take 4, 3, 5 and 4 s. A sweep of R rows gets
    # R * (least time) / POOL_START workers, within the cap and the rows
    # left, fewer than two meaning serial, and the timed rows stop once that
    # is fewer than two. The output is the serial output.
    events = []
    row = cli._enumerate_row

    def logged_row(pair):
        events.append("row")
        return row(pair)

    def logged_clock():
        events.append("clock")
        return next(clock)

    invariants = cli._invariants
    monkeypatch.setattr(cli, "_invariants", lambda s: events.append("invariants") or invariants(s))
    monkeypatch.setattr(cli, "_enumerate_row", logged_row)
    monkeypatch.setattr(cli, "perf_counter", logged_clock)
    monkeypatch.setattr(cli, "POOL_START", 6.0)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    timed = ["clock", "row", "invariants", "clock"]
    for rows, workers, runs in ((2, None, 1), (3, None, 2), (5, None, 4), (6, 2, 4),
                                (10, 5, 4), (100, 8, 4)):
        argv = ["enumerate", seed4_file, "--sample", str(rows), "--check-invariance"]
        monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
        assert main(argv) == 0
        serial = capsys.readouterr()
        monkeypatch.setenv("SBOXFORGE_THREADS", "8")
        events.clear()
        serial_pool.started.clear()
        clock = iter([0, 4, 10, 13, 20, 25, 30, 34])
        assert main(argv) == 0
        assert events[:1 + 4 * runs] == ["invariants"] + timed * runs
        assert events[1 + 4 * runs:] == ["row", "invariants"] * (rows - runs)
        assert serial_pool.started == ([workers] if workers else [])
        assert capsys.readouterr() == serial
    # Without --check-invariance rows build no invariants, and rows timed
    # the same way still decide the pool.
    events.clear()
    serial_pool.started.clear()
    clock = iter([0, 4, 10, 13, 20, 25, 30, 34])
    assert main(["enumerate", seed4_file, "--sample", "6"]) == 0
    assert events == ["clock", "row", "clock"] * 4 + ["row"] * 2
    assert serial_pool.started == [2]


def test_enumerate_unwritable_output_fails_fast(seed4_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_invariants", _must_not_run)
    monkeypatch.setattr(cli, "_clone", _must_not_run)
    path = str(tmp_path / "missing" / "sweep.csv")
    assert main(["enumerate", seed4_file, "--all", "--check-invariance", "--out", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}: ")


def test_enumerate_invalid_threads(seed4_file, capsys, monkeypatch):
    for raw in ("zero", "0"):
        monkeypatch.setenv("SBOXFORGE_THREADS", raw)
        assert main(["enumerate", seed4_file, "--sample", "1"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: SBOXFORGE_THREADS must be an integer >= 1, got {raw!r}\n"


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


def test_verify_width_mismatch(seed4_file, aes_file):
    assert main(["verify", seed4_file, aes_file]) == 6


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
    assert (prefix, digest) == fingerprint(clone)
    assert captured.err == "rows=1 distinct=1\n"


def test_n16_enumerate_caches_one_lift(seed16, capsys, monkeypatch):
    # One n = 16 lift is the rank cache's whole budget of 2**16 table entries.
    monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
    assert main(["enumerate", seed16[0], "--sample", "3"]) == 0
    assert capsys.readouterr().err == "rows=3 distinct=3\n"
    info = cli._sweep[2].cache_info()
    assert info.misses == 6 and info.currsize == info.maxsize == 1


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
    assert help_lists(captured.out, "-h, --help", cli.HELP.help)


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_command_help_lists_every_argument(name, capsys):
    assert main([name, "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith(f"usage: sboxforge {name} [-h]")
    _, positionals, options = cli.COMMANDS[name]
    for dest, explanation in positionals:
        assert help_lists(captured.out, dest, explanation)
    for option in (cli.HELP,) + options:
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
