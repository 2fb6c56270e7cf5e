"""Acceptance gate: one test per release criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to get one line per
criterion; every test prints its PASS marker only after all of its
assertions held.
"""

import itertools
import random
import time
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from sboxforge import (
    BitPermutation,
    BooleanFunctionTable,
    RemovalExhausted,
    SBox,
    analyze,
    clone_sbox,
    clone_sbox_avoiding_fixed_points,
    component_function,
    compare_reports,
    derive_row_permutation,
    find_fixed_points,
    max_balanced_nonlinearity,
    nonlinearity,
    walsh_spectrum,
)
from sboxforge.cli import main as cli_main
from sboxforge.formats import serialize_sbox

from oracles import (
    bits_matrix,
    dense_clone,
    perm_matrix,
    random_bijective,
    random_perm,
    sign_matrix,
)
from vectors import (
    AES_CLONE8,
    AES_SBOX,
    CLONE4,
    SEED4,
    SIGMA1_4,
    SIGMA1_8,
    SIGMA2_4,
    SIGMA2_8,
)

APPROX = 1e-6


def _record(number, name):
    print(f"[acceptance] criterion {number:02d} {name}: PASS")


def _stats_tuple(stats):
    return float(stats.min), float(stats.max), float(stats.avg), stats.sd


def test_criterion_01_exact_clone_reproduction_n4():
    seed = SBox.from_table(SEED4)
    start = time.perf_counter()
    result = clone_sbox(seed, BitPermutation(SIGMA1_4), BitPermutation(SIGMA2_4))
    elapsed = time.perf_counter() - start
    assert list(result.table) == CLONE4
    assert elapsed < 0.1
    _record(1, "exact clone reproduction n=4")


def test_criterion_02_exact_clone_reproduction_n8():
    seed = SBox.from_table(AES_SBOX)
    start = time.perf_counter()
    result = clone_sbox(seed, BitPermutation(SIGMA1_8), BitPermutation(SIGMA2_8))
    elapsed = time.perf_counter() - start
    assert list(result.table[:8]) == [165, 175, 199, 189, 31, 183, 181, 105]
    assert list(result.table) == AES_CLONE8
    assert elapsed < 0.1
    _record(2, "exact clone reproduction n=8")


def test_criterion_03_aes_metrics():
    start = time.perf_counter()
    report = analyze(SBox.from_table(AES_SBOX))
    elapsed = time.perf_counter() - start

    assert (report.nl.min, report.nl.max, report.nl.avg) == (112, 112, Fraction(112))
    assert _stats_tuple(report.sac) == pytest.approx(
        (0.453125, 0.5625, 0.504883, 0.015678), abs=APPROX)
    assert (report.bic_nl.min, report.bic_nl.max, report.bic_nl.avg,
            report.bic_nl.sd) == (112, 112, Fraction(112), 0.0)
    assert _stats_tuple(report.bic_sac) == pytest.approx(
        (0.480469, 0.525391, 0.504604, 0.011271), abs=APPROX)
    assert elapsed < 1.0
    _record(3, "AES metric table")


def test_criterion_04_seed4_metrics():
    report = analyze(SBox.from_table(SEED4))
    assert (report.nl.min, report.nl.max, report.nl.avg) == (4, 4, Fraction(4))
    assert _stats_tuple(report.sac) == pytest.approx(
        (0.0, 1.0, 0.5, 0.132583), abs=APPROX)
    assert (report.bic_nl.min, report.bic_nl.max, report.bic_nl.avg,
            report.bic_nl.sd) == (4, 4, Fraction(4), 0.0)
    assert _stats_tuple(report.bic_sac) == pytest.approx(
        (0.4375, 0.75, 0.552083, 0.104686), abs=APPROX)
    _record(4, "seed metric table")


def test_criterion_05_full_pair_enumeration_n4(tmp_path, capsys):
    seed = SBox.from_table(SEED4)
    seed_report = analyze(seed)
    perms = [BitPermutation(p) for p in itertools.permutations(range(4))]

    start = time.perf_counter()
    tables = set()
    for s1 in perms:
        for s2 in perms:
            result = clone_sbox(seed, s1, s2)
            assert result.is_bijective()
            report = analyze(result)
            assert (report.nl, report.bic_nl) == (seed_report.nl, seed_report.bic_nl)
            assert report.sac == seed_report.sac
            assert report.bic_sac == seed_report.bic_sac
            tables.add(result.table)

    # CLI route: the sweep with invariance checking must exit clean.
    seed_path = tmp_path / "seed4.txt"
    seed_path.write_text(serialize_sbox(seed))
    assert cli_main(["enumerate", str(seed_path), "--all", "--check-invariance"]) == 0
    captured = capsys.readouterr()
    assert "rows=576" in captured.err
    assert "invariance_pass=576" in captured.err
    elapsed = time.perf_counter() - start

    assert elapsed < 10.0
    assert len(tables) <= factorial(4) ** 2
    print(f"[acceptance] criterion 05 observed distinct clones: {len(tables)}/576")
    _record(5, "all 576 pairs preserve the seed report")


def test_criterion_06_row_column_commutation_oracle():
    rng = random.Random(101)
    cases = [(3, 70), (4, 70), (8, 60)]
    for n, count in cases:
        x = bits_matrix(range(1 << n), n)
        for _ in range(count):
            sigma = random_perm(rng, n)
            rows = derive_row_permutation(BitPermutation(sigma), n)
            q1 = perm_matrix(rows.images)
            assert np.array_equal(q1 @ x, x @ perm_matrix(sigma))
    _record(6, "dense row/column commutation, 200 cases")


def test_criterion_07_fast_path_equals_dense_pipeline():
    rng = random.Random(103)
    for n in (3, 4, 5, 8):
        for _ in range(250):
            table = random_bijective(rng, n)
            s1, s2 = random_perm(rng, n), random_perm(rng, n)
            fast = clone_sbox(SBox(n, tuple(table)), BitPermutation(s1), BitPermutation(s2))
            assert list(fast.table) == dense_clone(table, s1, s2)
    _record(7, "fast path equals dense pipeline, 1000 cases")


def test_criterion_08_balanced_nonlinearity_bound():
    assert max_balanced_nonlinearity(4) == 4
    assert max_balanced_nonlinearity(8) == 112
    rng = random.Random(107)
    boxes = [SBox.from_table(AES_SBOX), SBox.from_table(SEED4),
             SBox.from_table(CLONE4), SBox.from_table(AES_CLONE8)]
    for n in (3, 4, 5, 6, 7, 8):
        boxes.extend(SBox(n, tuple(random_bijective(rng, n))) for _ in range(20))
    for box in boxes:
        bound = max_balanced_nonlinearity(box.n)
        for j in range(box.n):
            assert nonlinearity(component_function(box, 1 << j)) <= bound
    _record(8, "balanced nonlinearity bound")


def test_criterion_09_input_transform_nonlinearity_invariance():
    rng = random.Random(109)

    def gf2_rank(rows):
        basis = {}
        for row in rows:
            current = row
            while current:
                top = current.bit_length() - 1
                if top in basis:
                    current ^= basis[top]
                else:
                    basis[top] = current
                    break
        return len(basis)

    for _ in range(200):
        n = rng.choice((3, 4, 5, 6))
        values = tuple(rng.randrange(2) for _ in range(1 << n))
        while True:
            rows = [rng.randrange(1, 1 << n) for _ in range(n)]
            if gf2_rank(rows) == n:
                break
        beta = rng.randrange(1 << n)
        cols = [sum((rows[i] >> j & 1) << i for i in range(n)) for j in range(n)]
        transformed = []
        for x in range(1 << n):
            y = 0
            for j in range(n):
                if bin(x & cols[j]).count("1") & 1:
                    y |= 1 << j
            transformed.append(values[y ^ beta])
        assert nonlinearity(BooleanFunctionTable(tuple(transformed))) == nonlinearity(
            BooleanFunctionTable(values))
    _record(9, "nonsingular input transform preserves NL, 200 cases")


def test_criterion_10_fixed_point_behaviour():
    clone4 = find_fixed_points(SBox.from_table(CLONE4))
    assert clone4.fixed == frozenset()
    assert clone4.reverse_fixed == frozenset({4})

    aes = find_fixed_points(SBox.from_table(AES_SBOX))
    assert aes.fixed == frozenset() and aes.reverse_fixed == frozenset()

    seed = SBox.from_table(SEED4)
    with pytest.raises(RemovalExhausted):
        clone_sbox_avoiding_fixed_points(
            seed, BitPermutation(SIGMA1_4), BitPermutation(SIGMA2_4), max_attempts=1)

    rng = random.Random(113)
    configs = [(seed, BitPermutation(SIGMA1_4), BitPermutation(SIGMA2_4))]
    for n in (4, 5):
        for _ in range(10):
            configs.append((SBox(n, tuple(random_bijective(rng, n))),
                            BitPermutation(random_perm(rng, n)),
                            BitPermutation(random_perm(rng, n))))
    for box, s1, s2 in configs:
        seed_report = analyze(box)
        try:
            result, eff1, eff2 = clone_sbox_avoiding_fixed_points(box, s1, s2)
        except RemovalExhausted:
            continue
        assert find_fixed_points(result).empty
        assert clone_sbox(box, eff1, eff2) == result
        assert compare_reports(seed_report, analyze(result)).equal
    _record(10, "fixed point detection and removal")


def test_criterion_11_walsh_oracle_and_parseval():
    # exhaustive up to three inputs
    for n in (1, 2, 3):
        h = sign_matrix(n)
        size = 1 << n
        for bits in range(1 << size):
            values = tuple(bits >> x & 1 for x in range(size))
            spectrum = walsh_spectrum(BooleanFunctionTable(values))
            direct = h @ (1 - 2 * np.array(values, dtype=np.int64))
            assert list(spectrum.coefficients) == [int(v) for v in direct]
            assert sum(c * c for c in spectrum.coefficients) == 4 ** n

    # 10000 random functions at each of n=4 and n=8, batched oracle
    rng = np.random.default_rng(127)
    for n in (4, 8):
        size = 1 << n
        h = sign_matrix(n)
        batch = rng.integers(0, 2, size=(10000, size), dtype=np.int64)
        expected = (h @ (1 - 2 * batch).T).T
        for row, want in zip(batch, expected):
            spectrum = walsh_spectrum(BooleanFunctionTable(tuple(int(b) for b in row)))
            assert list(spectrum.coefficients) == [int(v) for v in want]
            assert sum(c * c for c in spectrum.coefficients) == 4 ** n
    _record(11, "Walsh fast path equals direct sums; Parseval holds")
