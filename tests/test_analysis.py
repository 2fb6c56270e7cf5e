import functools
import json
import math
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import factorial
from unittest.mock import patch

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
    core,
    lehmer_decode,
    library,
    max_balanced_nonlinearity,
    nonlinearity,
    walsh_spectrum,
)

from oracles import (
    byte_table_by_lists,
    dense_clone,
    dependence_matrix,
    direct_walsh,
    identity_permutation,
    identity_sbox,
    inverse,
    is_bijective_strict,
    measure_by_stages,
    random_bijective,
    random_perm,
    sign_matrix,
    walsh_by_stages,
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


def _invariants(table):
    """analysis._invariants of `table` as a batch of one."""
    return analysis._invariants([table], core._planes([table], len(table).bit_length() - 1))[0]


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
    identity = identity_sbox(4)
    assert component_function(identity, 1).values == tuple(x & 1 for x in range(16))
    assert component_function(identity, 0).values == (0,) * 16


def test_component_function_mask_range():
    with pytest.raises(ValueError):
        component_function(identity_sbox(4), 16)
    with pytest.raises(ValueError):
        component_function(identity_sbox(4), -1)


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


def test_truth_table_entries_must_be_bits():
    with pytest.raises(ValueError, match="^truth table entries must be bits$"):
        BooleanFunctionTable((0, 2))


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
    # the most a Walsh lane of n + 2 bits holds beside its bias: the lane
    # width at every n >= 2 (a lane has 4 bits at n = 1).
    top, mask = (1 << n) - 1, 1 << (n - 1)
    for table, peak in ((tuple(range(1 << n)), 1 << n),
                        (tuple(v ^ top for v in range(1 << n)), -(1 << n))):
        assert all(nonlinearity(_coordinate(table, 1 << j)) == 0 for j in range(n))
        spectrum = walsh_spectrum(_coordinate(table, mask)).coefficients
        assert spectrum == tuple(peak if a == mask else 0 for a in range(1 << n))


def _affine(mask, n):
    """The bitset of x -> parity(mask & x), doubled one input bit at a time."""
    f = 0
    for i in range(n):
        f |= (f ^ ((1 << (1 << i)) - 1 if mask >> i & 1 else 0)) << (1 << i)
    return f


@st.composite
def _measure_batches(draw):
    """Calls of up to 20 bitsets, each call of one width n in 1..12: random
    functions, constants, affine functions and their complements, mixed;
    with room for 1 to 8 bitsets per batch."""
    batches = []
    for n in draw(st.lists(st.integers(1, 12), min_size=1, max_size=4)):
        size, functions = 1 << n, []
        for kind in draw(st.lists(st.sampled_from("rca"), min_size=1, max_size=20)):
            if kind == "r":
                f = draw(st.integers(0, (1 << size) - 1))
            elif kind == "c":
                f = 0
            else:
                f = _affine(draw(st.integers(0, size - 1)), n)
            functions.append(f ^ (1 << size) - 1 if draw(st.booleans()) else f)
        batches.append((n, functions, draw(st.integers(1, 8))))
    return batches


@settings(max_examples=60, deadline=None)
@given(_measure_batches())
def test_batched_measure_equals_direct_nonlinearity(batches):
    # Widths interleave, from no plan at all: no lane state may leak from one
    # function of a batch into the next, nor from one width into another.
    # Calls cross batch boundaries. The per-function masked butterfly is the
    # oracle, and direct sums to n = 8.
    analysis._plan.cache_clear()
    for n, functions, per_batch in batches:
        with patch.object(analysis, "_BATCH_BITS", per_batch * (max(n + 2, 4) << n)):
            measured = analysis._measure(functions, n)
        assert measured == measure_by_stages(functions, n)
        if n <= 8:
            assert measured == [((1 << n) - max(map(abs, direct_walsh(
                [f >> x & 1 for x in range(1 << n)], _cached_sign_matrix(n))))) >> 1
                for f in functions]


@pytest.mark.parametrize("n", range(13, 17))
def test_measure_equals_stage_oracle_at_the_widest_widths(n):
    rng, full = random.Random(n), (1 << (1 << n)) - 1
    functions = [rng.getrandbits(1 << n), 0, full, _affine(rng.randrange(1 << n), n),
                 _affine(rng.randrange(1 << n), n) ^ full, rng.getrandbits(1 << n),
                 _affine(1 << n - 1, n), rng.getrandbits(1 << n) ^ full, _affine(3, n)]
    expected = measure_by_stages(functions, n)
    assert analysis._measure(functions, n) == expected
    with patch.object(analysis, "_BATCH_BITS", 4 * (n + 2 << n)):  # batches of 4, 4 and 1
        assert analysis._measure(functions, n) == expected


@pytest.mark.parametrize("n", range(4, 11))
def test_measure_finds_a_peak_in_every_block(n):
    # An affine function's one peak, |W(mask)| = 2**n, lies in block mask >> 3
    # of a block-major batch. Here every block holds one, at each lane offset,
    # with and without complement; a tournament that passes over any block,
    # or any lane, finds a nonlinearity above 0.
    full = (1 << (1 << n)) - 1
    masks = [8 * g + g % 8 for g in range(1 << n - 3)] + list(range(8))
    functions = [_affine(a, n) ^ c for a in masks for c in (0, full)]
    assert analysis._measure(functions, n) == [0] * len(functions)


@pytest.mark.parametrize("n", range(1, 17))
def test_walsh_spectrum_equals_stage_oracle(n):
    rng = random.Random(100 + n)
    values = tuple(rng.randrange(2) for _ in range(1 << n))
    spectrum = list(walsh_spectrum(BooleanFunctionTable(values)).coefficients)
    assert spectrum == walsh_by_stages(sum(v << x for x, v in enumerate(values)), n)
    if n <= 8:
        assert spectrum == direct_walsh(values, _cached_sign_matrix(n))


def test_measure_memory_stays_within_its_batch_budget():
    # With room for 4 bitsets per batch at n = 14, a call on 16 holds one batch
    # at a time. Its peak, the masks built on first use aside, stays under 3
    # budgets plus one bitset's spectrum: a block int carries its digits and
    # a header, and a butterfly stage keeps a quarter of the batch twice.
    n, rng = 14, random.Random(14)
    spectrum = n + 2 << n
    functions = [rng.getrandbits(1 << n) for _ in range(16)]
    with patch.object(analysis, "_BATCH_BITS", 4 * spectrum):
        expected = analysis._measure(functions, n)
        tracemalloc.start()
        assert analysis._measure(functions, n) == expected
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak * 8 <= 3 * 4 * spectrum + spectrum


@pytest.mark.parametrize("n", range(1, 17))
def test_byte_table_entries_are_direct_walsh_transforms(n):
    # Entry v holds, in lanes of the plan's width, bias + W of the first
    # min(8, 2**n) bits of v: the butterfly's first three stages.
    plan = analysis._plan(n)
    points, lane = min(8, 1 << n), plan.lane
    table, size = analysis._byte_table(n, lane), lane * points >> 3
    assert len(table) == size << points
    for v in range(1 << points):
        packed = int.from_bytes(table[v * size:(v + 1) * size], "little")
        lanes = [(packed >> lane * a & (1 << lane) - 1) - (1 << lane - 1) for a in range(points)]
        assert lanes == direct_walsh([v >> x & 1 for x in range(points)],
                                     _cached_sign_matrix(points.bit_length() - 1))


@pytest.mark.parametrize("n", range(1, 17))
def test_plan_columns_are_the_byte_tables_entry_bytes(n):
    # Column i translates byte v to byte i of v's entry; the butterfly reads
    # every entry through them. At n < 3 a byte has only 2**n bits, so the
    # bytes above the table's 2**(2**n) entries are never read, and an entry
    # of 2**n lanes of 4 bits has 1 byte at n = 1 and 2 at n = 2, not n + 2.
    plan = analysis._plan(n)
    table = analysis._byte_table(n, plan.lane)
    size = len(plan.columns)
    assert size == {1: 1, 2: 2}.get(n, n + 2)
    assert len(table) == size << min(8, 1 << n)
    for i, column in enumerate(plan.columns):
        assert len(column) == 256
        assert column[:len(table) // size] == table[i::size]


@pytest.mark.parametrize("n", range(1, 17))
def test_plan_columns_match_the_entry_list_construction(n):
    # The byte table is built as one int; the list of entries it replaced,
    # each a doubling of two smaller ones, gives the same columns.
    plan = analysis._plan(n)
    entries = byte_table_by_lists(n, plan.lane)
    assert len(plan.columns) == len(entries[0])
    for i, column in enumerate(plan.columns):
        assert column == bytes(entry[i] for entry in entries).ljust(256, b"\0")


@pytest.mark.parametrize("n", range(1, 17))
def test_measure_on_the_constant_functions(n):
    # The constant 0 has W(0) = 2**n, the all-ones function W(0) = -2**n:
    # |W| reaches the lane's limit with each sign, and NL is 0 either way.
    full = (1 << (1 << n)) - 1
    assert analysis._measure([0, full], n) == measure_by_stages([0, full], n) == [0, 0]
    assert analysis._measure([full], n) == analysis._measure([0], n) == [0]
    if n <= 12:
        for f, peak in ((0, 1 << n), (full, -(1 << n))):
            values = tuple(f >> x & 1 for x in range(1 << n))
            assert walsh_spectrum(BooleanFunctionTable(values)).coefficients[0] == peak


@pytest.mark.parametrize("n", range(1, 7))
def test_measure_on_every_affine_function(n):
    # Every mask, with and without complement: the one peak, W = +-2**n,
    # lands in the even or the odd int of the folded last stage, at every
    # lane, with either sign. A batch of one, and all of them in batches of 8.
    full, cases = (1 << (1 << n)) - 1, [(a, c) for a in range(1 << n) for c in (0, 1)]
    functions = [_affine(a, n) ^ (full if c else 0) for a, c in cases]
    assert [analysis._measure([f], n)[0] for f in functions] == [0] * len(functions)
    with patch.object(analysis, "_BATCH_BITS", 8 * (max(n + 2, 4) << n)):
        assert analysis._measure(functions, n) == [0] * len(functions)
    assert measure_by_stages(functions, n) == [0] * len(functions)
    for (a, c), f in zip(cases, functions):
        values = tuple(f >> x & 1 for x in range(1 << n))
        peak = -(1 << n) if c else 1 << n
        assert walsh_spectrum(BooleanFunctionTable(values)).coefficients == tuple(
            peak if mask == a else 0 for mask in range(1 << n))


@pytest.mark.parametrize("n", range(1, 17))
def test_measure_across_batch_boundaries(n):
    # 11 functions in batches of 1, 3, 4 and the plan's largest: each batch
    # boundary falls elsewhere among random, constant and affine functions.
    rng, full = random.Random(500 + n), (1 << (1 << n)) - 1
    functions = [rng.getrandbits(1 << n), 0, full, _affine(rng.randrange(1 << n), n),
                 rng.getrandbits(1 << n) ^ full, _affine(1 << n - 1, n) ^ full,
                 rng.getrandbits(1 << n), _affine(rng.randrange(1 << n), n) ^ full,
                 rng.getrandbits(1 << n), full, rng.getrandbits(1 << n)]
    if n >= 13:
        functions = functions[:6]
    expected = measure_by_stages(functions, n)
    for per_batch in (1, 3, 4, analysis._plan(n).most):
        with patch.object(analysis, "_BATCH_BITS", per_batch * (max(n + 2, 4) << n)):
            assert analysis._measure(functions, n) == expected


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
    assert max_balanced_nonlinearity(16) == 32512  # the widest width it takes
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
    matrix = dependence_matrix(identity_sbox(4).table)
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

    identity = analyze(identity_sbox(4)).sac
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
            "from sboxforge import SBox, analysis, library\n"
            "for table in json.load(sys.stdin):\n"
            "    analysis._plan.cache_clear()\n"
            "    analysis._criteria.cache_clear()\n"
            "    print(repr(library.analyze(SBox.from_table(table))))\n")
    result = subprocess.run([sys.executable, "-c", code], input=json.dumps(tables),
                            capture_output=True, text=True, check=True, env=env)
    return result.stdout.splitlines()


def test_reports_do_not_leak_between_sboxes(child_env):
    # A (n = 4), B (n = 8), A again, C (n = 15), then clones of A and of D
    # (n = 6) taken sigma1-major as enumerate --all takes them, then copies
    # of A and D with output bit 1 read from the reversed table, which share
    # every other coordinate with their s-box: neither the per-width plans
    # nor the criteria cache kept between calls may carry anything from one
    # s-box into another s-box's report.
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


def test_criteria_cache_keys_by_width():
    # Both s-boxes have only the coordinate bitset 0xFFFF: at n = 4 it is the
    # constant 1, at n = 8 the indicator of a 4-dimensional subspace.
    flat4 = SBox(4, (15,) * 16)
    step8 = SBox(8, tuple(255 if x < 16 else 0 for x in range(256)))
    for order in ((flat4, step8), (step8, flat4)):
        analysis._plan.cache_clear()
        for s in order:
            nl = analyze(s).nl
            assert (nl.min, nl.max) == ((0, 0) if s.n == 4 else (16, 16))


def test_sigma2_clone_hits_the_criteria_cache():
    # A clone by sigma2 alone reorders the seed's coordinate bitsets, so its
    # sorted key is the seed's; another sigma1 changes the bitsets. Either
    # way the invariants equal those computed with nothing cached.
    seed = SBox.from_table(random_bijective(random.Random(61), 6))
    same, other = (clone_sbox(seed, lehmer_decode(k1, 6), lehmer_decode(417, 6)) for k1 in (0, 5))
    analysis._criteria.cache_clear()
    want = _invariants(seed.table)
    assert _invariants(same.table) == want
    assert analysis._criteria.cache_info()[:2] == (1, 1)
    assert _invariants(other.table) == want
    assert analysis._criteria.cache_info()[:2] == (1, 2)
    for clone in (same, other):
        analysis._criteria.cache_clear()
        assert _invariants(clone.table) == want
    analysis._criteria.cache_clear()


def test_criteria_cache_keeps_repeated_coordinates():
    # Non-bijective tables with coordinates (a, a, b) and (a, b, b): a is
    # linear (NL 0), b is the majority function (NL 2). Sorting keeps each
    # bitset's multiplicity, so the keys differ, the second table misses,
    # and each table gets its own nonlinearities.
    a = [x & 1 for x in range(8)]
    b = [int((x & 1) + (x >> 1 & 1) + (x >> 2 & 1) >= 2) for x in range(8)]
    aab, abb = (SBox(3, tuple(a[x] | f[x] << 1 | b[x] << 2 for x in range(8))) for f in (a, b))
    keys = [tuple(sorted(core._coordinates(s))) for s in (aab, abb)]
    assert keys[0] != keys[1] and set(keys[0]) == set(keys[1])
    analysis._criteria.cache_clear()
    got = [_invariants(s.table) for s in (aab, abb)]
    assert analysis._criteria.cache_info()[:2] == (0, 2)
    assert [nl_moments[2] for _, nl_moments, *_ in got] == [2, 4]  # sums of the NLs
    for s, want in zip((aab, abb), got):
        analysis._criteria.cache_clear()
        assert _invariants(s.table) == want
    analysis._criteria.cache_clear()


def _replace(record, **changes):
    """A record of the same type with the named fields changed."""
    fields = {name: getattr(record, name) for name in type(record).__slots__}
    return type(record)(**{**fields, **changes})


def _without_fixed_points(report):
    return _replace(report, fixed_points=None)


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
    # mean reports that differ, and compare_reports says so. The invariants
    # alone name the fields it names.
    a, b = (SBox.from_table(t) for t in tables)
    same = _invariants(a.table) == _invariants(b.table)
    report_a, report_b = analyze(a), analyze(b)
    assert (_without_fixed_points(report_a) == _without_fixed_points(report_b)) == same
    assert compare_reports(report_a, report_b).equal == same
    assert analysis._differences(_invariants(a.table), _invariants(b.table)) == \
        compare_reports(report_a, report_b).differences


def test_analyze_accepts_candidates():
    report = analyze(SBox(2, (0, 0, 3, 3)))
    assert not report.bijective
    assert report.nl_bound == 0


def test_compare_reports_detects_differences():
    aes = analyze(SBox.from_table(AES_SBOX))
    identity = analyze(identity_sbox(8))
    comparison = compare_reports(aes, identity)
    assert not comparison.equal
    top_level = {d.split(".")[0] for d in comparison.differences}
    assert {"nl", "sac"} <= top_level


def test_compare_reports_names_a_width_difference_first():
    narrow, wide = analyze(SBox.from_table(CLONE4)), analyze(SBox.from_table(AES_SBOX))
    differences = compare_reports(narrow, wide).differences
    assert differences[0] == "n"
    assert "n" not in differences[1:]


def test_compare_reports_tolerance():
    # No tolerance: equal counts give identical sd floats, so any other sd
    # comes from other counts, however close.
    report = analyze(SBox.from_table(AES_SBOX))
    for sd in (report.sac.sd + 1e-12, report.sac.sd + 1e-6):
        other = _replace(report, sac=_replace(report.sac, sd=sd))
        assert compare_reports(report, other) == ReportComparison(False, ("sac.sd",))
    nl = _replace(report.nl, min=report.nl.min + 1)
    assert compare_reports(report, _replace(report, nl=nl)).differences == ("nl.min",)


def test_compare_reports_tells_close_sac_populations_apart_at_n16():
    # Two n = 16 SAC populations with equal sum, min and max, one count raised
    # by 1 and an equal one lowered by 1: their sums of squares are 2 apart,
    # and their sds closer than 1e-9.
    rng, n = random.Random(16), 16
    counts = [rng.randrange(32000, 33600) for _ in range(n * n)]
    counts[:4] = 32000, 33600, 32768, 32768
    moved = [32769, 32767, *counts[4:]]
    moved[:0] = counts[:2]
    assert analysis._moments(moved)[::2] == analysis._moments(counts)[::2]
    assert analysis._moments(moved)[3] == analysis._moments(counts)[3] + 2 * len(counts)
    report = _replace(analyze(SBox.from_table(AES_SBOX)), n=n)
    a, b = (_replace(report, sac=library._population_stats(analysis._ratios(
                analysis._moments(c), len(c), 1 << n, sd_divisor=2))) for c in (counts, moved))
    assert 0 < abs(a.sac.sd - b.sac.sd) < 1e-9
    assert compare_reports(a, b) == ReportComparison(False, ("sac.sd",))
    bijective, nl, _, bic_nl, bic_sac = _invariants(AES_SBOX)
    invariants = [(bijective, nl, analysis._moments(c), bic_nl, bic_sac) for c in (counts, moved)]
    assert analysis._differences(*invariants) == ("sac.sd",)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 16), st.integers(0, 3),
       st.sampled_from(["shuffled", "moved", "changed", "other"]), st.integers(0, 2**32))
def test_each_moment_differs_where_its_stats_field_does(n, shape, kind, seed):
    # Two count lists of one of analyze's criterion shapes at width n: moment
    # i of their _moments differs exactly when field i (min, max, avg, sd) of
    # their _population_stats does. "moved" takes 1 from one count and gives
    # it to another, which keeps the sum and changes only the spread, if any.
    pairs, rng = n * (n - 1) >> 1, random.Random(seed)
    count, d, sd_divisor, top = ((n, 1, 1, 1 << n - 1), (n * n, 1 << n, 2, 1 << n),
                                 (pairs, 1, 1, 1 << n - 1), (pairs, n << n, 1, n << n))[shape]
    a = [rng.randint(0, top) for _ in range(count)]
    b = rng.sample(a, count)
    i, j = rng.randrange(count), rng.randrange(count)
    if kind == "moved":
        b[i] += 1
        b[j] -= 1
    elif kind == "changed":
        b[i] = rng.randint(0, top)
    elif kind == "other":
        b = [rng.randint(0, top) for _ in range(count)]
    moments = [analysis._moments(c) for c in (a, b)]
    stats = [library._population_stats(analysis._ratios(m, count, d, sd_divisor))._fields()
             for m in moments]
    assert [x != y for x, y in zip(*moments)] == [x != y for x, y in zip(*stats)]


def test_compare_reports_equal_for_published_pairs():
    assert compare_reports(
        analyze(SBox.from_table(SEED4)), analyze(SBox.from_table(CLONE4))
    ).equal
    assert compare_reports(
        analyze(SBox.from_table(AES_SBOX)), analyze(SBox.from_table(AES_CLONE8))
    ).equal


def test_invariants_take_criteria_once_per_key(monkeypatch):
    # A batch's tables that share a key, their sorted coordinates, share one
    # _criteria call, made when the key first appears. Clones with the
    # identity sigma1 have the seed's key, another sigma1 gives another key
    # with the same criteria, and the identity table, no clone, has a key of
    # its own and other invariants. No tables give none.
    keys, criteria = [], analysis._criteria
    monkeypatch.setattr(analysis, "_criteria", lambda key, n: keys.append(key) or criteria(key, n))
    seed = SBox.from_table(SEED4)
    ident, other = identity_permutation(4), BitPermutation((1, 2, 3, 0))
    tables = [clone_sbox(seed, ident, BitPermutation((3, 1, 0, 2))).table, tuple(range(16)),
              clone_sbox(seed, other, ident).table, seed.table, clone_sbox(seed, other, other).table]
    reference = _invariants(SEED4)
    keys.clear()
    got = analysis._invariants(tables, core._planes(tables, 4))
    assert [row == reference for row in got] == [True, False, True, True, True]
    assert keys == [tuple(sorted(core._coordinates(SBox.from_table(t)))) for t in tables[:3]]
    assert analysis._invariants([], core._planes([], 4)) == []


@st.composite
def _batches(draw):
    """A batch of tables of one width n = 2..6, in drawn order: clones of one
    seed, a non-bijective table and a repeat of one of them."""
    n = draw(st.integers(2, 6))
    size = 1 << n
    seed = draw(st.permutations(range(size)))
    tables = [dense_clone(seed, draw(st.permutations(range(n))), draw(st.permutations(range(n))))
              for _ in range(draw(st.integers(1, 4)))]
    tables.append(draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size)
                       .filter(lambda t: len(set(t)) < size)))
    tables.append(draw(st.sampled_from(tables)))
    return n, draw(st.permutations(tables))


@settings(max_examples=150, deadline=None)
@given(_batches())
def test_batch_invariants_are_each_tables_own(batch):
    # Each table of a batch gets, in order, the invariants it gets as a
    # batch of one, and _criteria runs once per distinct key of the batch,
    # in the order the keys first appear.
    n, tables = batch
    alone = [_invariants(t) for t in tables]
    keys = []
    criteria = analysis._criteria
    with patch.object(analysis, "_criteria", lambda key, n: keys.append(key) or criteria(key, n)):
        got = analysis._invariants(tables, core._planes(tables, n))
    assert got == alone
    assert keys == list(dict.fromkeys(tuple(sorted(core._coordinates(SBox(n, tuple(t)))))
                                      for t in tables))
    assert [row[0] for row in got] == [len(set(t)) == len(t) for t in tables]
