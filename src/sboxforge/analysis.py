"""Algebraic property measurements for s-boxes.

Covers the four criteria preserved by the clone transform: bijectivity,
nonlinearity of the coordinate functions, the avalanche behaviour of
single-bit input flips (dependence matrix), and the independence of
output-bit pairs (nonlinearity and avalanche of f_j xor f_k). Each
coordinate function f_j is one 2**n-bit int (bit x = f_j(x)): avalanche
counts are popcounts of derivative bitsets, and nonlinearity runs one
Walsh butterfly on packed lanes of n + 2 bits in a single int, its first
three stages read per byte of the truth table from a 256-entry table built
per width on first use. All flip probabilities are carried as exact
fractions with denominator 2**n; decimal rounding happens only at report
serialisation.
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
    table: list          # byte -> its 8-point Walsh transform in packed lanes, as bytes
    stages: tuple        # (shift, low lanes, rebias) per butterfly stage after the table's
    ones: int            # bit 0 of every lane
    below: int           # the bits under every lane's top bit
    rounds: tuple        # (width, top bits of the low lanes, low lanes) per tournament round
    flips: tuple         # (2**i, low halves) per input bit i
    pairs: tuple         # every (j, k) with j < k < n
    memo: dict           # profile by truth-table bitset, read and filled by _profiles


# The memo of one width is cleared before its entries would pass 2**26 bits.
# An entry counts as twice the 2**n bits of its key (at least 2**11, for the
# int and dict slot around it) plus 2**8 bits for each of the n + 1 ints of
# its profile and their tuples, more than it takes in memory at every width.
# So a full memo stays under 8 MB, and holds the 15 120 distinct functions of
# an n = 6 sweep (17 476 entries fit at n = 6).
_MEMO_BITS = 1 << 26


def _entry_bits(n: int) -> int:
    return (2 << max(n, 10)) + (n + 1 << 8)


def _byte_table(n: int, lane: int) -> list[bytes]:
    """Entry v: the packed, biased Walsh transform of the first min(8, 2**n)
    bits of v, one lane each, built by doubling 1- to 2- to 4- to 8-point entries."""
    bias, points, width, ones = 1 << lane - 1, min(8, 1 << n), 1, 1
    table = [bias + 1, bias - 1]  # lane bias + (-1)**b for the bit b
    while width < points:
        half, rebias = lane * width, bias * ones
        table = [lo + hi - rebias | lo - hi + rebias << half for hi in table for lo in table]
        ones |= ones << half
        width <<= 1
    return [t.to_bytes(lane * points >> 3, "little") for t in table]


@lru_cache(maxsize=None)
def _plan(n: int) -> _Plan:
    # |W| reaches 2**n and must stay below half a lane; at least 4 bits, so
    # that the 2**n < 8 lanes of n < 3 still fill whole bytes.
    lane = max(n + 2, 4)
    top, total = lane - 1, lane << n
    ones = _repeat(1, lane, total)
    stages = []
    for shift in (lane << i for i in range(3, n)):  # stages 0..2 are in the byte table
        low = _repeat((1 << shift) - 1, shift << 1, total)
        stages.append((shift, low, (ones & ~low) - (ones & low) << top))
    rounds, width = [], total
    while width > lane:
        width >>= 1
        rounds.append((width, ones >> total - width << top, (1 << width) - 1))
    flips = tuple((h, _repeat((1 << h) - 1, h << 1, 1 << n)) for h in (1 << i for i in range(n)))
    pairs = tuple((j, k) for j in range(n) for k in range(j + 1, n))
    return _Plan(lane, _byte_table(n, lane), tuple(stages), ones, ones * ((1 << top) - 1),
                 tuple(rounds), flips, pairs, {})


def _packed_walsh(functions, n: int):
    """Yield, per bitset, its Walsh spectrum W packed in one int.

    Lane a, L = _plan(n).lane = max(n + 2, 4) bits, holds 2**(L-1) + W(a).
    Each byte of the bitset is replaced by its byte-table entry, eight lanes
    with the first three stages done (all n stages if n < 3); each later
    stage adds and subtracts all lane pairs at once. No lane borrows or
    carries, since every intermediate |W| is at most 2**n, below 2**(L-1).
    """
    plan = _plan(n)
    entry, size = plan.table.__getitem__, max(1 << n >> 3, 1)
    for f in functions:
        w = int.from_bytes(b"".join(map(entry, f.to_bytes(size, "little"))), "little")
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
# f is (NL(f), the n popcounts of D_i f), where D_i f(x) = f(x) ^ f(x ^ 2**i).
#
# Clones of one seed with the same sigma1 share their coordinate functions and
# pair sums, only reordered, so a sweep meets each function many times. The
# width's memo maps a function's exact bitset to its profile, never a class of
# tables, so every clone's counts still come from its own table. _profiles is
# the one reader and writer of the memo: it measures only the functions the
# memo lacks, in one batch, and stores their profiles.


def _profiles(s: SBox) -> list[tuple[int, tuple[int, ...]]]:
    """The profile of each function of `s`: coordinates, then pair sums."""
    n, f = s.n, _coordinates(s)
    plan = _plan(n)
    memo = plan.memo
    functions = [*f, *[f[j] ^ f[k] for j, k in plan.pairs]]
    profiles = list(map(memo.get, functions))
    missed = [i for i, p in enumerate(profiles) if p is None]
    if not missed:
        return profiles
    d = _derivatives(f, n)
    for i, nl in zip(missed, _measure([functions[i] for i in missed], n)):
        # A pair sum's derivatives are the xors of its two coordinates' derivatives.
        derivatives = d[i] if i < n else map(xor, *map(d.__getitem__, plan.pairs[i - n]))
        profiles[i] = nl, tuple(map(int.bit_count, derivatives))
    fresh = {functions[i]: profiles[i] for i in missed}
    if (len(memo) + len(fresh)) * _entry_bits(n) > _MEMO_BITS:
        memo.clear()
    memo.update(fresh)
    return profiles


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
    bias, size = 1 << lane - 1, lane << n
    digits = format(next(_packed_walsh([_bitset(f)], n)), f"0{size}b")  # lane 0 last
    return WalshSpectrum(tuple(int(digits[i - lane:i], 2) - bias for i in range(size, 0, -lane)))


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


def _populations(s: SBox) -> tuple[list[int], ...]:
    """The counts of the four criteria, in CRITERIA order.

    nl: the nonlinearity of each coordinate f_j. sac: the n*n flip counts,
    entry (i, j) the popcount of D_i f_j, out of 2**n inputs. bic_nl: the
    nonlinearity of each pair sum f_j ^ f_k, j < k. bic_sac: per pair, the
    sum of its n flip counts, out of n * 2**n.
    """
    profiles = _profiles(s)
    coordinates, pairs = profiles[:s.n], profiles[s.n:]
    return ([nl for nl, _ in coordinates], [c for _, counts in coordinates for c in counts],
            [nl for nl, _ in pairs], [sum(counts) for _, counts in pairs])


def analyze(s: SBox) -> AnalysisReport:
    """Bundle all four criteria plus fixed-point detection into one report.

    SAC entry (i, j), the probability that flipping input bit i flips
    output bit j, is its count over 2**n. A BIC-SAC value, the mean over the
    n single-bit input flips of the probability that f_j ^ f_k flips, is its
    count over n * 2**n. The customary spread convention for s-box
    comparison tables measures SAC flip counts against 2**(n+1) rather than
    2**n samples, so sac.sd is half the population standard deviation of
    the entries.
    """
    n = s.n
    nl, sac, bic_nl, bic_sac = _populations(s)
    return AnalysisReport(
        n=n,
        bijective=s.is_bijective(),
        fixed_points=find_fixed_points(s),
        nl=_population_stats(nl),
        nl_bound=max_balanced_nonlinearity(n) if n >= 3 else 0,
        sac=_population_stats(sac, 1 << n, sd_divisor=2),
        bic_nl=_population_stats(bic_nl),
        bic_sac=_population_stats(bic_sac, n << n),
    )


def _invariants(s: SBox) -> tuple:
    """Bijectivity, then (sum, sum of squares, min, max) of each criterion's counts.

    Of two s-boxes of one width, equal invariants mean reports equal in
    every field but the fixed points: each statistic is a function of these
    integers and the width. A clone of the seed has the seed's invariants
    exactly, since its counts are the seed's, reordered. So an invariance
    sweep compares these, with no Fraction or float, instead of reports.
    """
    return (s.is_bijective(), *map(_moments, _populations(s)))


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
