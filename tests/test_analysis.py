import dataclasses
import functools
import json
import math
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sboxforge import (
    BitPermutation,
    BooleanFunctionTable,
    ReportComparison,
    SBox,
    analysis,
    analyze,
    clone_sbox,
    compare_reports,
    component_function,
    lehmer_decode,
    max_balanced_nonlinearity,
    nonlinearity,
    walsh_spectrum,
)

from oracles import (
    dense_clone,
    dependence_matrix,
    direct_walsh,
    inverse,
    is_bijective_strict,
    random_bijective,
    random_perm,
    sign_matrix,
)
from vectors import (
    AES_CLONE8,
    AES_SBOX,
    ALL_HALF_SAC_3,
    CLONE4,
    SEED4,
    SEED4_LSB_COLUMN,
)

APPROX = 1e-6


def _parity(value):
    return bin(value).count("1") & 1


def brute_force_nonlinearity(values):
    """Minimum Hamming distance to every affine function, by enumeration."""
    n = len(values).bit_length() - 1
    best = len(values)
    for mask in range(1 << n):
        for constant in (0, 1):
            dist = sum(1 for x, v in enumerate(values) if v != _parity(mask & x) ^ constant)
            best = min(best, dist)
    return best


# ---------------------------------------------------------------------
# component functions and strict bijectivity


def test_component_function_seed4_low_bit():
    f = component_function(SBox.from_table(SEED4), 1)
    assert f.values == SEED4_LSB_COLUMN


def test_component_function_identity_and_zero_mask():
    identity = SBox.identity(4)
    assert component_function(identity, 1).values == tuple(x & 1 for x in range(16))
    assert component_function(identity, 0).values == (0,) * 16


def test_component_function_mask_range():
    with pytest.raises(ValueError):
        component_function(SBox.identity(4), 16)
    with pytest.raises(ValueError):
        component_function(SBox.identity(4), -1)


def test_component_weight_half_for_bijective():
    rng = random.Random(43)
    for n in (3, 4, 5):
        s = SBox(n, tuple(random_bijective(rng, n)))
        for mask in range(1, 1 << n):
            assert sum(component_function(s, mask).values) == 1 << (n - 1)


def test_is_bijective_strict_examples():
    assert is_bijective_strict(AES_SBOX)
    assert is_bijective_strict(CLONE4)
    assert not is_bijective_strict((0, 0, 0, 0))


def test_is_bijective_strict_matches_distinctness():
    rng = random.Random(47)
    budget = {2: 2500, 3: 2500, 4: 2500, 5: 1500, 6: 700, 7: 200, 8: 100}
    for n, count in budget.items():
        size = 1 << n
        for i in range(count):
            if i % 3 == 0:
                table = random_bijective(rng, n)
            elif i % 3 == 1:
                table = random_bijective(rng, n)
                a, b = rng.randrange(size), rng.randrange(size)
                if a != b:
                    table[a] = table[b]
            else:
                table = [rng.randrange(size) for _ in range(size)]
            s = SBox(n, tuple(table))
            assert is_bijective_strict(s.table) == s.is_bijective()


# ---------------------------------------------------------------------
# Walsh spectrum and nonlinearity


def test_walsh_examples():
    constant = walsh_spectrum(BooleanFunctionTable((0, 0, 0, 0)))
    assert constant.coefficients == (4, 0, 0, 0)

    low_bit = walsh_spectrum(BooleanFunctionTable(tuple(x & 1 for x in range(4))))
    assert abs(low_bit.coefficients[1]) == 4
    assert low_bit.coefficients[0] == low_bit.coefficients[2] == low_bit.coefficients[3] == 0


def test_walsh_fast_equals_direct_exhaustive_small():
    for n in (1, 2, 3):
        h = sign_matrix(n)
        size = 1 << n
        for bits in range(1 << size):
            values = tuple(bits >> x & 1 for x in range(size))
            spectrum = walsh_spectrum(BooleanFunctionTable(values))
            assert list(spectrum.coefficients) == direct_walsh(values, h)
            assert sum(c * c for c in spectrum.coefficients) == 4 ** n


def test_walsh_fast_equals_direct_sampled_n4():
    rng = random.Random(53)
    h = sign_matrix(4)
    for _ in range(2000):
        values = tuple(rng.randrange(2) for _ in range(16))
        spectrum = walsh_spectrum(BooleanFunctionTable(values))
        assert list(spectrum.coefficients) == direct_walsh(values, h)
        assert sum(c * c for c in spectrum.coefficients) == 4 ** 4


_cached_sign_matrix = functools.cache(sign_matrix)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 8).flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n)))
def test_walsh_equals_direct_property(values):
    n = len(values).bit_length() - 1
    f = BooleanFunctionTable(values)
    direct = direct_walsh(values, _cached_sign_matrix(n))
    assert list(walsh_spectrum(f).coefficients) == direct
    assert nonlinearity(f) == ((1 << n) - max(map(abs, direct))) >> 1


def _coordinate(table, mask):
    """component_function of a table of any width n >= 1 (an SBox needs n >= 2)."""
    if len(table) > 2:
        return component_function(SBox.from_table(table), mask)
    return BooleanFunctionTable(tuple((v & mask).bit_count() & 1 for v in table))


@pytest.mark.parametrize("n", range(1, 17))
def test_walsh_at_lane_width_boundary(n):
    # Every coordinate of the identity is linear: its one nonzero Walsh
    # coefficient is +2**n, and -2**n for the complement. That magnitude is
    # the most a Walsh lane of n + 2 bits holds beside its bias, at every n.
    top, mask = (1 << n) - 1, 1 << (n - 1)
    for table, peak in ((tuple(range(1 << n)), 1 << n),
                        (tuple(v ^ top for v in range(1 << n)), -(1 << n))):
        assert all(nonlinearity(_coordinate(table, 1 << j)) == 0 for j in range(n))
        spectrum = walsh_spectrum(_coordinate(table, mask)).coefficients
        assert spectrum == tuple(peak if a == mask else 0 for a in range(1 << n))


@st.composite
def _measure_batches(draw):
    """Batches of bitsets, each of one width n in 1..8: random functions,
    constants, affine functions and their complements, mixed."""
    batches = []
    for n in draw(st.lists(st.integers(1, 8), min_size=1, max_size=4)):
        size, functions = 1 << n, []
        for kind in draw(st.lists(st.sampled_from("rca"), min_size=1, max_size=6)):
            if kind == "r":
                f = draw(st.integers(0, (1 << size) - 1))
            elif kind == "c":
                f = 0
            else:
                mask = draw(st.integers(0, size - 1))
                f = sum(((mask & x).bit_count() & 1) << x for x in range(size))
            functions.append(f ^ (1 << size) - 1 if draw(st.booleans()) else f)
        batches.append((n, functions))
    return batches


@settings(max_examples=60, deadline=None)
@given(_measure_batches())
def test_batched_measure_equals_direct_nonlinearity(batches):
    # Widths interleave, from no plan at all: no lane state may leak from one
    # function of a batch into the next, nor from one width into another.
    analysis._plan.cache_clear()
    for n, functions in batches:
        direct = [((1 << n) - max(map(abs, direct_walsh([f >> x & 1 for x in range(1 << n)],
                                                         _cached_sign_matrix(n))))) >> 1
                  for f in functions]
        assert analysis._measure(functions, n) == direct


@pytest.mark.parametrize("n", range(1, 17))
def test_byte_table_entries_are_direct_walsh_transforms(n):
    # Entry v holds, in lanes of the plan's width, bias + W of the first
    # min(8, 2**n) bits of v: the butterfly's first three stages.
    plan = analysis._plan(n)
    points, lane = min(8, 1 << n), plan.lane
    assert len(plan.table) == 1 << points
    for v, entry in enumerate(plan.table):
        assert len(entry) * 8 == lane * points
        packed = int.from_bytes(entry, "little")
        lanes = [(packed >> lane * a & (1 << lane) - 1) - (1 << lane - 1) for a in range(points)]
        assert lanes == direct_walsh([v >> x & 1 for x in range(points)],
                                     _cached_sign_matrix(points.bit_length() - 1))


def test_walsh_balance_coefficient():
    rng = random.Random(59)
    for n in (2, 3, 4):
        for _ in range(30):
            values = tuple(rng.randrange(2) for _ in range(1 << n))
            f = BooleanFunctionTable(values)
            assert walsh_spectrum(f).coefficients[0] == (1 << n) - 2 * sum(f.values)


def test_nonlinearity_of_affine_is_zero():
    rng = random.Random(61)
    for n in (2, 3, 4, 5):
        for _ in range(20):
            mask, constant = rng.randrange(1 << n), rng.randrange(2)
            values = tuple(_parity(mask & x) ^ constant for x in range(1 << n))
            assert nonlinearity(BooleanFunctionTable(values)) == 0


def test_nonlinearity_matches_brute_force():
    rng = random.Random(67)
    for n in (2, 3, 4):
        for _ in range(60):
            values = tuple(rng.randrange(2) for _ in range(1 << n))
            assert nonlinearity(BooleanFunctionTable(values)) == brute_force_nonlinearity(values)
    for j in range(4):
        f = component_function(SBox.from_table(SEED4), 1 << j)
        assert nonlinearity(f) == brute_force_nonlinearity(f.values)


def test_aes_coordinates_nl_112_and_spectrum_peak_32():
    aes = SBox.from_table(AES_SBOX)
    for j in range(8):
        f = component_function(aes, 1 << j)
        assert nonlinearity(f) == 112
        spectrum = walsh_spectrum(f)
        assert max(abs(c) for c in spectrum.coefficients[1:]) == 32
        assert spectrum.coefficients[0] == 0


def test_seed4_coordinates_nl_4():
    seed = SBox.from_table(SEED4)
    assert [nonlinearity(component_function(seed, 1 << j)) for j in range(4)] == [4, 4, 4, 4]


def test_max_balanced_nonlinearity_values():
    assert max_balanced_nonlinearity(3) == 2
    assert max_balanced_nonlinearity(4) == 4
    assert max_balanced_nonlinearity(5) == 12
    assert max_balanced_nonlinearity(6) == 24
    assert max_balanced_nonlinearity(7) == 56
    assert max_balanced_nonlinearity(8) == 112
    with pytest.raises(ValueError):
        max_balanced_nonlinearity(2)


def test_balanced_nonlinearity_can_exceed_reference_bound():
    # The reference bound is a yardstick, not a ceiling: this balanced
    # 6-input function (f(x) is bit x of the constant) has NL 26 > 24.
    values = tuple(0x83A95E072C99DCAB >> x & 1 for x in range(64))
    f = BooleanFunctionTable(values)
    assert sum(f.values) == 32
    assert (64 - max(abs(c) for c in direct_walsh(values))) // 2 == 26
    assert nonlinearity(f) == 26 > max_balanced_nonlinearity(6)


# ---------------------------------------------------------------------
# dependence matrix and SAC stats


def _flat(matrix):
    return [v for row in matrix for v in row]


def test_dependence_matrix_identity():
    matrix = dependence_matrix(SBox.identity(4).table)
    for i in range(4):
        for j in range(4):
            assert matrix[i][j] == (1 if i == j else 0)


def test_dependence_matrix_seed4_extremes():
    flat = _flat(dependence_matrix(SEED4))
    assert min(flat) == 0
    assert max(flat) == 1
    assert sum(flat, Fraction(0)) / len(flat) == Fraction(1, 2)


def test_dependence_matrix_aes_extremes():
    flat = _flat(dependence_matrix(AES_SBOX))
    assert min(flat) == Fraction(29, 64)
    assert max(flat) == Fraction(9, 16)


def _exact_stats(values, sd_divisor=1):
    """min, max, avg and sd of Fractions; the variance stays exact up to the root."""
    avg = sum(values, Fraction(0)) / len(values)
    variance = sum((v - avg) ** 2 for v in values) / len(values)
    return min(values), max(values), avg, math.sqrt(variance) / sd_divisor


def test_sac_and_bic_sac_match_dependence_matrix_definition():
    rng = random.Random(97)
    for n in range(2, 9):
        size = 1 << n
        pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
        for i in range(4):
            table = random_bijective(rng, n) if i % 2 else [rng.randrange(size) for _ in range(size)]
            report = analyze(SBox(n, tuple(table)))
            sac = _exact_stats(_flat(dependence_matrix(table)), sd_divisor=2)
            # Bit p of pair_table[x] is f_j(x) xor f_k(x) for the p-th pair (j, k);
            # a pair's BIC-SAC value is its column's mean over the n input flips.
            pair_table = [sum(((v >> j ^ v >> k) & 1) << p for p, (j, k) in enumerate(pairs))
                          for v in table]
            columns = zip(*dependence_matrix(pair_table, len(pairs)))
            bic_sac = _exact_stats([sum(column) / n for column in columns])
            for stats, (low, high, avg, sd) in ((report.sac, sac), (report.bic_sac, bic_sac)):
                assert all(type(v) is Fraction for v in (stats.min, stats.max, stats.avg))
                assert (stats.min, stats.max, stats.avg) == (low, high, avg)
                assert stats.sd == pytest.approx(sd, abs=1e-12)


def test_sac_stats_reference_values():
    aes = analyze(SBox.from_table(AES_SBOX)).sac
    assert float(aes.min) == pytest.approx(0.453125, abs=APPROX)
    assert float(aes.max) == pytest.approx(0.5625, abs=APPROX)
    assert float(aes.avg) == pytest.approx(0.504883, abs=APPROX)
    assert aes.sd == pytest.approx(0.015678, abs=APPROX)

    seed = analyze(SBox.from_table(SEED4)).sac
    assert float(seed.min) == 0
    assert float(seed.max) == 1
    assert float(seed.avg) == pytest.approx(0.5, abs=APPROX)
    assert seed.sd == pytest.approx(0.132583, abs=APPROX)

    identity = analyze(SBox.identity(4)).sac
    assert float(identity.min) == 0
    assert float(identity.max) == 1
    assert float(identity.avg) == pytest.approx(0.25, abs=APPROX)


# ---------------------------------------------------------------------
# BIC stats


def test_bic_nl_reference_values():
    aes = analyze(SBox.from_table(AES_SBOX)).bic_nl
    assert (aes.min, aes.max) == (112, 112)
    assert float(aes.avg) == 112
    assert aes.sd == 0

    seed = analyze(SBox.from_table(SEED4)).bic_nl
    assert (seed.min, seed.max) == (4, 4)
    assert float(seed.avg) == 4
    assert seed.sd == 0

    clone = analyze(SBox.from_table(AES_CLONE8)).bic_nl
    assert (clone.min, clone.max, clone.avg, clone.sd) == (aes.min, aes.max, aes.avg, aes.sd)


def test_bic_sac_reference_values():
    aes = analyze(SBox.from_table(AES_SBOX)).bic_sac
    assert float(aes.min) == pytest.approx(0.480469, abs=APPROX)
    assert float(aes.max) == pytest.approx(0.525391, abs=APPROX)
    assert float(aes.avg) == pytest.approx(0.504604, abs=APPROX)
    assert aes.sd == pytest.approx(0.011271, abs=APPROX)

    seed = analyze(SBox.from_table(SEED4)).bic_sac
    assert float(seed.min) == pytest.approx(0.4375, abs=APPROX)
    assert float(seed.max) == pytest.approx(0.75, abs=APPROX)
    assert float(seed.avg) == pytest.approx(0.552083, abs=APPROX)
    assert seed.sd == pytest.approx(0.104686, abs=APPROX)

    clone = analyze(SBox.from_table(CLONE4)).bic_sac
    assert (clone.min, clone.max, clone.avg, clone.sd) == (seed.min, seed.max, seed.avg, seed.sd)


def test_nl_stats_reference_values():
    aes = analyze(SBox.from_table(AES_SBOX)).nl
    assert (aes.min, aes.max) == (112, 112)
    assert float(aes.avg) == 112

    seed = analyze(SBox.from_table(SEED4)).nl
    clone = analyze(SBox.from_table(CLONE4)).nl
    assert (seed.min, seed.max, seed.avg) == (4, 4, Fraction(4))
    assert (clone.min, clone.max, clone.avg) == (seed.min, seed.max, seed.avg)


# ---------------------------------------------------------------------
# invariance under input-side transforms


def _gf2_rank(rows):
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


def _random_nonsingular(rng, n):
    while True:
        rows = [rng.randrange(1, 1 << n) for _ in range(n)]
        if _gf2_rank(rows) == n:
            return rows


def _affine_input_transform(values, rows, beta, n):
    """g(x) = f(xB ^ beta) with x an LSB-first row vector, rows the rows of B."""
    cols = [sum((rows[i] >> j & 1) << i for i in range(n)) for j in range(n)]
    out = []
    for x in range(1 << n):
        y = 0
        for j in range(n):
            if _parity(x & cols[j]):
                y |= 1 << j
        out.append(values[y ^ beta])
    return tuple(out)


def test_nonsingular_input_transform_preserves_nonlinearity():
    rng = random.Random(73)
    for _ in range(200):
        n = rng.choice((3, 4, 5, 6))
        values = tuple(rng.randrange(2) for _ in range(1 << n))
        rows = _random_nonsingular(rng, n)
        beta = rng.randrange(1 << n)
        transformed = _affine_input_transform(values, rows, beta, n)
        assert nonlinearity(BooleanFunctionTable(transformed)) == nonlinearity(
            BooleanFunctionTable(values)
        )


# ---------------------------------------------------------------------
# clone invariance of the measured properties


def test_all_half_dependence_matrix_preserved_by_clones():
    seed = SBox.from_table(ALL_HALF_SAC_3)
    assert all(v == Fraction(1, 2) for v in _flat(dependence_matrix(seed.table)))
    rng = random.Random(79)
    for _ in range(20):
        s1 = BitPermutation(random_perm(rng, 3))
        s2 = BitPermutation(random_perm(rng, 3))
        clone = clone_sbox(seed, s1, s2)
        assert all(v == Fraction(1, 2) for v in _flat(dependence_matrix(clone.table)))


def test_dependence_matrix_multiset_clone_invariant():
    rng = random.Random(83)
    for n in (3, 4, 5):
        for _ in range(15):
            seed = SBox(n, tuple(random_bijective(rng, n)))
            s1 = BitPermutation(random_perm(rng, n))
            s2 = BitPermutation(random_perm(rng, n))
            dep_seed = dependence_matrix(seed.table)
            dep_clone = dependence_matrix(clone_sbox(seed, s1, s2).table)
            assert sorted(_flat(dep_clone)) == sorted(_flat(dep_seed))
            # entry (i, j) of the clone is entry (s1(i), s2^-1(j)) of the seed
            inv2 = inverse(s2.images)
            for i in range(n):
                for j in range(n):
                    assert dep_clone[i][j] == dep_seed[s1.images[i]][inv2[j]]


def test_clone_reports_equal_seed_reports():
    rng = random.Random(89)
    plan = {4: (20, 15), 5: (15, 10), 8: (5, 10)}  # n -> (seeds, pairs per seed)
    for n, (seeds, pairs) in plan.items():
        for _ in range(seeds):
            seed = SBox(n, tuple(random_bijective(rng, n)))
            seed_report = analyze(seed)
            for _ in range(pairs):
                s1 = BitPermutation(random_perm(rng, n))
                s2 = BitPermutation(random_perm(rng, n))
                clone_report = analyze(clone_sbox(seed, s1, s2))
                comparison = compare_reports(seed_report, clone_report)
                assert comparison.equal, comparison.differences


# ---------------------------------------------------------------------
# analyze and compare


def test_analyze_bundles_everything():
    report = analyze(SBox.from_table(AES_SBOX))
    assert report.n == 8
    assert report.bijective
    assert report.fixed_points.empty
    assert report.nl_bound == 112
    assert report.nl.max <= report.nl_bound


def _fresh_reports(tables, env) -> list[str]:
    """repr of each table's report, computed in a new interpreter with nothing cached."""
    code = ("import json, sys\n"
            "from sboxforge import SBox, analysis\n"
            "for table in json.load(sys.stdin):\n"
            "    analysis._plan.cache_clear()\n"
            "    print(repr(analysis.analyze(SBox.from_table(table))))\n")
    result = subprocess.run([sys.executable, "-c", code], input=json.dumps(tables),
                            capture_output=True, text=True, check=True, env=env)
    return result.stdout.splitlines()


def test_reports_do_not_leak_between_sboxes(child_env):
    # A (n = 4), B (n = 8), A again, C (n = 15, past the switch to 32-bit
    # Walsh lanes), then clones of A and of D (n = 6) taken sigma1-major as
    # enumerate --all takes them, then copies of A and D with output bit 1
    # read from the reversed table, whose other coordinates and the pairs
    # without bit 1 hit the memo while the rest miss: neither the per-width
    # plans nor the nonlinearity memo kept between calls may carry anything
    # from one s-box into another s-box's report.
    rng = random.Random(83)
    a, b, c, d = (SBox.from_table(random_bijective(rng, n)) for n in (4, 8, 15, 6))
    clones = [clone_sbox(seed, lehmer_decode(k1, seed.n), lehmer_decode(k2, seed.n))
              for seed, ranks1, ranks2 in ((a, range(3), range(24)),
                                           (d, (0, 1, 719), range(0, 720, 9)))
              for k1 in ranks1 for k2 in ranks2]
    partial = [SBox.from_table([(v & ~2) | (t[~x] & 2) for x, v in enumerate(t)])
               for t in (a.table, d.table)]
    sboxes = [a, b, a, c] + clones + partial
    fresh = _fresh_reports([list(s.table) for s in sboxes], child_env)
    assert [repr(analyze(s)) for s in sboxes] == fresh


def test_nonlinearity_memo_keys_by_width():
    # Both s-boxes have only the coordinate bitset 0xFFFF: at n = 4 it is the
    # constant 1, at n = 8 the indicator of a 4-dimensional subspace.
    flat4 = SBox(4, (15,) * 16)
    step8 = SBox(8, tuple(255 if x < 16 else 0 for x in range(256)))
    for order in ((flat4, step8), (step8, flat4)):
        analysis._plan.cache_clear()
        for s in order:
            nl = analyze(s).nl
            assert (nl.min, nl.max) == ((0, 0) if s.n == 4 else (16, 16))


def test_nonlinearity_memo_stays_within_its_bit_budget(monkeypatch):
    # The memo holds a profile per function. Its accounting counts more bits
    # than an entry takes in memory at every width, and its budget holds the
    # 15 120 distinct functions of an n = 6 sweep.
    assert 15120 * analysis._entry_bits(6) <= analysis._MEMO_BITS
    for n in (4, 6, 8, 10, 12, 16):
        rng = random.Random(n)
        keys = {rng.getrandbits(1 << n) | 1 << (1 << n) - 1 for _ in range(64)}
        tracemalloc.start()
        memo = {f: (rng.randrange(1 << n - 1), tuple(rng.randrange(1 << n) for _ in range(n)))
                for f in keys}
        used = tracemalloc.get_traced_memory()[0] + sum(map(sys.getsizeof, memo))
        tracemalloc.stop()
        assert used * 8 <= len(memo) * analysis._entry_bits(n)
    # With room for 100 n = 8 entries, the memo is cleared before it passes
    # its budget, and reports and invariants answered from it, in whole or in
    # part, equal those computed with an empty memo.
    monkeypatch.setattr(analysis, "_MEMO_BITS", 100 * analysis._entry_bits(8))
    rng = random.Random(8)
    seeds = [SBox.from_table(random_bijective(rng, 8)) for _ in range(3)]
    sboxes = [clone_sbox(seed, lehmer_decode(k1, 8), lehmer_decode(k2, 8))
              for seed in seeds for k1 in (0, 0, 1, 0, 7) for k2 in (0, 5, 9)]
    expected = []
    for s in sboxes:
        analysis._plan.cache_clear()
        expected.append((analyze(s), analysis._invariants(s)))
    analysis._plan.cache_clear()
    memo, sizes = analysis._plan(8).memo, []
    for s, want in zip(sboxes, expected):
        assert (analyze(s), analysis._invariants(s)) == want
        sizes.append(len(memo))
        assert 0 < len(memo) * analysis._entry_bits(8) <= analysis._MEMO_BITS
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))
    analysis._plan.cache_clear()


def _without_fixed_points(report):
    return dataclasses.replace(report, fixed_points=None)


@st.composite
def _table_pairs(draw):
    """A table, bijective or not, and another of its width: a clone of it,
    a clone with two entries swapped or one entry changed, or any table."""
    n = draw(st.integers(2, 6))
    size = 1 << n
    entries = st.lists(st.integers(0, size - 1), min_size=size, max_size=size)
    a = draw(st.one_of(st.permutations(range(size)), entries))
    kind = draw(st.sampled_from(["clone", "swapped", "changed", "other"]))
    if kind == "other":
        return a, draw(entries)
    b = dense_clone(a, draw(st.permutations(range(n))), draw(st.permutations(range(n))))
    x, y = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
    if kind == "swapped":
        b[x], b[y] = b[y], b[x]
    elif kind == "changed":
        b[x] = y
    return a, b


@settings(max_examples=300, deadline=None)
@given(_table_pairs())
@example(([0, 1, 2, 3], [0, 1, 1, 0]))  # equal counts; only bijectivity differs
def test_invariants_decide_report_equality(tables):
    # Equal invariants mean equal reports, fixed points aside; unequal ones
    # mean reports that differ, by more than compare_reports' tolerance at
    # these widths.
    a, b = (SBox.from_table(t) for t in tables)
    same = analysis._invariants(a) == analysis._invariants(b)
    report_a, report_b = analyze(a), analyze(b)
    assert (_without_fixed_points(report_a) == _without_fixed_points(report_b)) == same
    assert compare_reports(report_a, report_b).equal == same


def test_analyze_accepts_candidates():
    report = analyze(SBox(2, (0, 0, 3, 3)))
    assert not report.bijective
    assert report.nl_bound == 0


def test_compare_reports_detects_differences():
    aes = analyze(SBox.from_table(AES_SBOX))
    identity = analyze(SBox.identity(8))
    comparison = compare_reports(aes, identity)
    assert not comparison.equal
    top_level = {d.split(".")[0] for d in comparison.differences}
    assert {"nl", "sac"} <= top_level


def test_compare_reports_tolerance():
    report = analyze(SBox.from_table(AES_SBOX))
    for sd, equal in ((report.sac.sd + 1e-12, True), (report.sac.sd + 1e-6, False)):
        other = dataclasses.replace(report, sac=dataclasses.replace(report.sac, sd=sd))
        expected = ReportComparison(equal, () if equal else ("sac.sd",))
        assert compare_reports(report, other) == expected
    nl = dataclasses.replace(report.nl, min=report.nl.min + 1)
    assert compare_reports(report, dataclasses.replace(report, nl=nl)).differences == ("nl.min",)


def test_compare_reports_equal_for_published_pairs():
    assert compare_reports(
        analyze(SBox.from_table(SEED4)), analyze(SBox.from_table(CLONE4))
    ).equal
    assert compare_reports(
        analyze(SBox.from_table(AES_SBOX)), analyze(SBox.from_table(AES_CLONE8))
    ).equal
