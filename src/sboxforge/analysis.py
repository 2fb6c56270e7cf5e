"""Algebraic property measurements for s-boxes.

Covers the four criteria preserved by the clone transform: bijectivity,
nonlinearity of the coordinate functions, the avalanche behaviour of
single-bit input flips (dependence matrix), and the independence of
output-bit pairs (nonlinearity and avalanche of f_j xor f_k). Each
coordinate function f_j is one 2**n-bit int (bit x = f_j(x)): avalanche
counts are popcounts of derivative bitsets, and nonlinearity runs one
Walsh butterfly on packed lanes of a single int. All flip probabilities
are carried as exact fractions with denominator 2**n; decimal rounding
happens only at report serialisation.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul, xor
from typing import NamedTuple

from .core import FixedPointReport, SBox, find_fixed_points


@dataclass(frozen=True)
class BooleanFunctionTable:
    """Truth table of an n-input Boolean function as 2**n bits."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        count = len(self.values)
        if count < 2 or count & (count - 1):
            raise ValueError(f"truth table length {count} is not a power of two")
        if any(v not in (0, 1) for v in self.values):
            raise ValueError("truth table entries must be bits")


@dataclass(frozen=True)
class WalshSpectrum:
    """Signed correlations with every linear mask, indexed by mask."""

    coefficients: tuple[int, ...]


@dataclass(frozen=True)
class PropertyStats:
    """min/max/avg/sd summary of one metric family."""

    min: int | Fraction
    max: int | Fraction
    avg: Fraction
    sd: float


@dataclass(frozen=True)
class AnalysisReport:
    """Full four-criterion measurement of one s-box."""

    n: int
    bijective: bool
    fixed_points: FixedPointReport
    nl: PropertyStats
    nl_bound: int
    sac: PropertyStats
    bic_nl: PropertyStats
    bic_sac: PropertyStats


@dataclass(frozen=True)
class ReportComparison:
    equal: bool
    differences: tuple[str, ...]


_TOLERANCE = 1e-9
CRITERIA = ("nl", "sac", "bic_nl", "bic_sac")


def component_function(s: SBox, mask: int) -> BooleanFunctionTable:
    """Truth table x -> parity(s[x] & mask).

    A single-bit mask extracts one coordinate; mask 0 is permitted and
    yields the constant-zero function.
    """
    if not 0 <= mask < 1 << s.n:
        raise ValueError(f"mask {mask} out of range for width {s.n}")
    return BooleanFunctionTable(tuple((v & mask).bit_count() & 1 for v in s.table))


_DIGITS = [bytes.maketrans(bytes(range(256)), bytes(48 | v >> j & 1 for v in range(256)))
           for j in range(8)]  # byte -> b"0"/b"1" by its bit j


def _repeat(pattern: int, period: int, total: int) -> int:
    """Tile `pattern`, one period wide, across `total` bits."""
    while period < total:
        pattern |= pattern << period
        period <<= 1
    return pattern


class _Plan(NamedTuple):
    """What depends on the width n alone, built once per width by _plan, and its memo."""

    lane: int            # bits per Walsh lane
    step: int            # bytes per Walsh lane
    start: int           # biased lanes of w = 1, plus twice the ASCII digit offset
    stages: tuple        # (shift, low lanes, rebias) per butterfly stage
    ones: int            # bit 0 of every lane
    below: int           # the bits under every lane's top bit
    rounds: tuple        # (width, top bits of the low lanes, low lanes) per tournament round
    flips: tuple         # (2**i, low halves) per input bit i
    pairs: tuple         # every (j, k) with j < k < n
    memo: dict           # profile by truth-table bitset, filled by _remember


# The memo of one width is cleared before its entries would pass 2**26 bits.
# An entry counts as twice the 2**n bits of its key (at least 2**11, for the
# int and dict slot around it) plus 2**8 bits for each of the n + 1 ints of
# its profile and their tuples, more than it takes in memory at every width.
# So a full memo stays under 8 MB, and holds the 15 120 distinct functions of
# an n = 6 sweep (17 476 entries fit at n = 6).
_MEMO_BITS = 1 << 26


def _entry_bits(n: int) -> int:
    return (2 << max(n, 10)) + (n + 1 << 8)


@lru_cache(maxsize=None)
def _plan(n: int) -> _Plan:
    lane = 16 if n <= 14 else 32  # |W| reaches 2**n and must stay below half a lane
    top, total = lane - 1, lane << n
    ones = _repeat(1, lane, total)
    stages = []
    for shift in (lane << i for i in range(n)):
        low = _repeat((1 << shift) - 1, shift << 1, total)
        stages.append((shift, low, (ones & ~low) - (ones & low) << top))
    rounds, width = [], total
    while width > lane:
        width >>= 1
        rounds.append((width, ones >> total - width << top, (1 << width) - 1))
    flips = tuple((h, _repeat((1 << h) - 1, h << 1, 1 << n)) for h in (1 << i for i in range(n)))
    pairs = tuple((j, k) for j in range(n) for k in range(j + 1, n))
    return _Plan(lane, lane >> 3, ((1 << top) + 97) * ones, tuple(stages), ones,
                 ones * ((1 << top) - 1), tuple(rounds), flips, pairs, {})


def _packed_walsh(functions, n: int):
    """Yield, per bitset, its Walsh spectrum W packed in one int.

    Lane a (L = _plan(n).lane bits) holds 2**(L-1) + W(a); one butterfly
    stage adds and subtracts all lane pairs at once. No lane borrows or
    carries, since every intermediate |W| is below 2**(L-1).
    """
    plan = _plan(n)
    size, fmt = plan.step << n, f"0{1 << n}b"
    for f in functions:
        # Lane x of buf holds the ASCII digit 48 + f(x), so start minus twice
        # buf leaves 2**(L-1) + 1 - 2f(x), the biased lane of w = (-1)**f.
        buf = bytearray(size)
        buf[::plan.step] = format(f, fmt).encode()[::-1]
        w = plan.start - (int.from_bytes(buf, "little") << 1)
        for shift, low, rebias in plan.stages:
            a, b = w & low, w >> shift & low
            w = a + b + (a - b << shift) + rebias
        yield w


def _measure(functions, n: int) -> list[int]:
    """(2**n - max|W|) / 2 of each bitset, the max taken by a lane-parallel tournament."""
    plan = _plan(n)
    top, ones, below, out = plan.lane - 1, plan.ones, plan.below, []
    fill = (1 << top) - 1
    for w in _packed_walsh(functions, n):
        # Lane a: |W(a)| if W(a) >= 0, else |W(a)| - 1, which gives the same
        # (2**n - max) >> 1 as W is even. Each round keeps the larger lane:
        # a lane's top bit survives (a | high) - b where a >= b.
        x = (w ^ below ^ (w >> top & ones) * fill) & below
        for width, high, low in plan.rounds:
            a, b = x & low, x >> width
            wins = (a | high) - b & high
            x = b ^ (a ^ b) & wins - (wins >> top)
        out.append((1 << n) - x >> 1)
    return out


# Profiles. Every criterion is a population of integer counts read off the
# functions of an s-box: its n coordinate functions f_j, then the pair sums
# f_j ^ f_k (j < k) in the order of _plan(n).pairs. The profile of a function
# f is (NL(f), the n popcounts of D_i f), where D_i f(x) = f(x) ^ f(x ^ 2**i):
# SAC entry (i, j) is the i-th popcount of f_j, and the BIC-SAC count of a
# pair is the sum of its popcounts, since D_i (f_j ^ f_k) = D_i f_j ^ D_i f_k.
#
# Clones of one seed with the same sigma1 share their coordinate functions and
# pair sums, only reordered, so a sweep meets each function many times. The
# width's memo maps a function's exact bitset to its profile, never a class of
# tables, so every clone's counts still come from its own table. A lookup
# splits the profiles into a list of nonlinearities and one of popcount
# tuples, None where the memo missed; the criteria fill in their own part,
# and _remember stores the profiles of the misses.


def _lookup(coordinates: tuple[int, ...], n: int) -> tuple[list[int], list, list]:
    """The functions of an s-box with these coordinate bitsets, and their
    nonlinearities and popcounts from the memo, None where it misses."""
    f = coordinates
    plan = _plan(n)
    functions = [*f, *[f[j] ^ f[k] for j, k in plan.pairs]]
    known = list(map(plan.memo.get, functions))
    return functions, [p and p[0] for p in known], [p and p[1] for p in known]


def _fill_nonlinearities(functions: list[int], nls: list, part: range, n: int) -> None:
    """Measure the misses among nls[part] in one butterfly batch."""
    missed = [i for i in part if nls[i] is None]
    for i, nl in zip(missed, _measure([functions[i] for i in missed], n)):
        nls[i] = nl


def _fill_coordinate_counts(derivatives, counts: list, n: int) -> None:
    """Fill in the missed popcounts of the n coordinate functions."""
    counts[:n] = [c or tuple(map(int.bit_count, derivatives[j])) for j, c in enumerate(counts[:n])]


def _fill_pair_counts(derivatives, counts: list, n: int) -> None:
    """Fill in the missed popcounts of the pair sums; their derivatives are
    the xors of their two coordinates' derivatives."""
    counts[n:] = [c or tuple(map(int.bit_count, map(xor, derivatives[j], derivatives[k])))
                  for c, (j, k) in zip(counts[n:], _plan(n).pairs)]


def _remember(functions: list[int], nls: list, counts: list, n: int) -> None:
    """Store the profiles the memo lacks, clearing it first if they would pass its budget."""
    memo = _plan(n).memo
    fresh = {f: (nl, c) for f, nl, c in zip(functions, nls, counts) if f not in memo}
    if (len(memo) + len(fresh)) * _entry_bits(n) > _MEMO_BITS:
        memo.clear()
    memo.update(fresh)


def _bitset(f: BooleanFunctionTable) -> int:
    """The truth table as one int: bit x is f(x)."""
    return int(bytes(f.values[::-1]).translate(_DIGITS[0]), 2)


def _coordinates(s: SBox) -> tuple[int, ...]:
    """The n coordinate bitsets of `s`: bit x of entry j is bit j of s[x]."""
    lanes = array("H", s.table[::-1])
    if sys.byteorder == "big":
        lanes.byteswap()
    raw = lanes.tobytes()
    planes = (raw[::2], raw[1::2])
    return tuple(int(planes[j >> 3].translate(_DIGITS[j & 7]), 2) for j in range(s.n))


def _derivatives(coordinates: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """The n x n derivative bitsets: entry [j][i] has bit x = f_j(x) ^ f_j(x ^ 2**i)."""
    flips = _plan(n).flips
    return [tuple([((g >> h & low) | (g & low) << h) ^ g for h, low in flips]) for g in coordinates]


def walsh_spectrum(f: BooleanFunctionTable) -> WalshSpectrum:
    """Correlation with every linear mask, via the packed-lane butterfly."""
    n = len(f.values).bit_length() - 1
    lane = _plan(n).lane
    packed = next(_packed_walsh([_bitset(f)], n))
    lanes = array("H" if lane == 16 else "I", packed.to_bytes(lane << n >> 3, "little"))
    if sys.byteorder == "big":
        lanes.byteswap()
    return WalshSpectrum(tuple(v - (1 << lane - 1) for v in lanes))


def nonlinearity(f: BooleanFunctionTable) -> int:
    """Minimum Hamming distance to the affine functions (constants included)."""
    return _measure([_bitset(f)], len(f.values).bit_length() - 1)[0]


def max_balanced_nonlinearity(n: int) -> int:
    """Reference bound 2**(n-1) - 2**(n//2) of the s-box literature; not a ceiling for even n >= 6."""
    if n < 3:
        raise ValueError(f"bound is defined for n >= 3, got {n}")
    return (1 << (n - 1)) - (1 << (n // 2))


def _moments(counts: list[int]) -> tuple[int, int, int, int]:
    """(sum, sum of squares, min, max): with their number, all the stats of `counts` depend on."""
    return sum(counts), sum(map(mul, counts, counts)), min(counts), max(counts)


def _population_stats(counts: list[int], d: int = 1, sd_divisor: int = 1) -> PropertyStats:
    """Stats of the values c / d; min and max stay ints when d == 1."""
    count, (total, squares, low, high) = len(counts), _moments(counts)
    # Int true division rounds correctly, so this is the float of the exact variance.
    variance = (count * squares - total * total) / (count * d) ** 2
    if d != 1:
        low, high = Fraction(low, d), Fraction(high, d)
    return PropertyStats(low, high, Fraction(total, count * d), math.sqrt(variance) / sd_divisor)


def sbox_nonlinearity_stats(functions: list[int], nls: list, n: int) -> PropertyStats:
    """Stats over the nonlinearity of the n coordinate functions."""
    _fill_nonlinearities(functions, nls, range(n), n)
    return _population_stats(nls[:n])


def sac_stats(derivatives, counts: list, n: int) -> PropertyStats:
    """Avalanche statistics over all n*n dependence-matrix entries.

    Entry (i, j), the probability that flipping input bit i flips output
    bit j, is the popcount of derivative bitset [j][i] over 2**n.
    min/max/avg summarise those probabilities directly. The customary
    spread convention for s-box comparison tables measures flip counts
    against 2**(n+1) rather than 2**n samples, so sd is half the
    population standard deviation of the entries.
    """
    _fill_coordinate_counts(derivatives, counts, n)
    return _population_stats([c for p in counts[:n] for c in p], 1 << n, sd_divisor=2)


def bic_nonlinearity_stats(functions: list[int], nls: list, n: int) -> PropertyStats:
    """Stats over the nonlinearity of f_j xor f_k for all pairs j < k."""
    _fill_nonlinearities(functions, nls, range(n, len(nls)), n)
    return _population_stats(nls[n:])


def bic_sac_stats(derivatives, counts: list, n: int) -> PropertyStats:
    """Avalanche statistics of the pairwise output-bit sums.

    Every unordered pair (j, k) contributes one value: the mean, over the
    n single-bit input flips, of the probability that f_j xor f_k flips.
    Stats run over those n*(n-1)/2 pair values.
    """
    _fill_pair_counts(derivatives, counts, n)
    return _population_stats(list(map(sum, counts[n:])), n << n)


def analyze(s: SBox) -> AnalysisReport:
    """Bundle all four criteria plus fixed-point detection into one report.

    The coordinate bitsets, and the derivative bitsets when the memo lacks
    a profile, are built once here and shared by the four criteria.
    """
    n, coordinates = s.n, _coordinates(s)
    functions, nls, counts = _lookup(coordinates, n)
    derivatives = _derivatives(coordinates, n) if None in nls else ()
    report = AnalysisReport(
        n=n,
        bijective=s.is_bijective(),
        fixed_points=find_fixed_points(s),
        nl=sbox_nonlinearity_stats(functions, nls, n),
        nl_bound=max_balanced_nonlinearity(n) if n >= 3 else 0,
        sac=sac_stats(derivatives, counts, n),
        bic_nl=bic_nonlinearity_stats(functions, nls, n),
        bic_sac=bic_sac_stats(derivatives, counts, n),
    )
    _remember(functions, nls, counts, n)
    return report


def _invariants(s: SBox) -> tuple:
    """Bijectivity, then (sum, sum of squares, min, max) of each criterion's counts.

    Of two s-boxes of one width, equal invariants mean reports equal in
    every field but the fixed points: each statistic is a function of these
    integers and the width. A clone of the seed has the seed's invariants
    exactly, since its counts are the seed's, reordered. So an invariance
    sweep compares these, with no Fraction or float, instead of reports.
    """
    n, coordinates = s.n, _coordinates(s)
    functions, nls, counts = _lookup(coordinates, n)
    if None in nls:
        derivatives = _derivatives(coordinates, n)
        _fill_nonlinearities(functions, nls, range(len(nls)), n)
        _fill_coordinate_counts(derivatives, counts, n)
        _fill_pair_counts(derivatives, counts, n)
        _remember(functions, nls, counts, n)
    return (s.is_bijective(), _moments(nls[:n]), _moments([c for p in counts[:n] for c in p]),
            _moments(nls[n:]), _moments(list(map(sum, counts[n:]))))


def compare_reports(a: AnalysisReport, b: AnalysisReport) -> ReportComparison:
    """Field-by-field comparison of the four preserved criteria.

    Integer statistics must match exactly, fractional ones within 1e-9.
    Fixed-point sets are informational and deliberately excluded: cloning
    relocates fixed points rather than preserving them.
    """
    diffs = []
    if a.n != b.n:
        diffs.append("n")
    if a.bijective != b.bijective:
        diffs.append("bijective")
    for name in CRITERIA:
        stats_a, stats_b = getattr(a, name), getattr(b, name)
        for field in ("min", "max", "avg", "sd"):
            va, vb = getattr(stats_a, field), getattr(stats_b, field)
            if isinstance(va, int) and isinstance(vb, int):
                same = va == vb
            else:
                same = abs(float(va) - float(vb)) <= _TOLERANCE
            if not same:
                diffs.append(f"{name}.{field}")
    return ReportComparison(not diffs, tuple(diffs))
