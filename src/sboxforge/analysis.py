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

    def weight(self) -> int:
        return sum(self.values)


@dataclass(frozen=True)
class WalshSpectrum:
    """Signed correlations with every linear mask, indexed by mask."""

    coefficients: tuple[int, ...]


@dataclass(frozen=True)
class DependenceMatrix:
    """entries[i][j] = probability that flipping input bit i flips output bit j."""

    entries: tuple[tuple[Fraction, ...], ...]

    def flat(self) -> tuple[Fraction, ...]:
        return tuple(v for row in self.entries for v in row)


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


def _coordinates(s: SBox) -> list[int]:
    """The n coordinate functions as bitsets: bit x of entry j is bit j of s[x]."""
    table = s.table[::-1]
    planes = (bytes([v & 0xFF for v in table]), bytes([v >> 8 for v in table]))
    return [int(planes[j >> 3].translate(_DIGITS[j & 7]), 2) for j in range(s.n)]


def _repeat(pattern: int, period: int, total: int) -> int:
    """Tile `pattern`, one period wide, across `total` bits."""
    while period < total:
        pattern |= pattern << period
        period <<= 1
    return pattern


def _lane_width(n: int) -> int:
    """Bits per Walsh lane: |W| reaches 2**n and must stay below half the lane."""
    return 16 if n <= 14 else 32


def _packed_walsh(functions, n: int):
    """Yield, per bitset, its Walsh spectrum W packed in one int.

    Lane a (L = _lane_width(n) bits) holds 2**(L-1) + W(a); one butterfly
    stage adds and subtracts all lane pairs at once. No lane borrows or
    carries, since every intermediate |W| is below 2**(L-1).
    """
    lane = _lane_width(n)
    total, step = lane << n, lane >> 3
    ones, stages = _repeat(1, lane, total), []
    for shift in (lane << i for i in range(n)):
        low = _repeat((1 << shift) - 1, shift << 1, total)
        stages.append((shift, low, (ones & ~low) - (ones & low) << lane - 1))
    # Each lane of buf below gets the ASCII digit 48 + f(x), so start minus
    # twice buf leaves 2**(L-1) + 1 - 2f(x), the biased lane of w = (-1)**f.
    start = ((1 << lane - 1) + 97) * ones
    for f in functions:
        buf = bytearray(step << n)
        buf[::step] = format(f, f"0{1 << n}b").encode()[::-1]
        w = start - (int.from_bytes(buf, "little") << 1)
        for shift, low, rebias in stages:
            a, b = w & low, w >> shift & low
            w = a + b + (a - b << shift) + rebias
        yield w


def _nonlinearities(functions, n: int) -> list[int]:
    """(2**n - max|W|) / 2 of each bitset, the max taken by a lane-parallel tournament."""
    lane = _lane_width(n)
    top, total, out = lane - 1, lane << n, []
    ones, fill = _repeat(1, lane, total), (1 << top) - 1
    below = ones * fill  # the bits under each lane's top bit
    for w in _packed_walsh(functions, n):
        # Lane a: |W(a)| if W(a) >= 0, else |W(a)| - 1, which gives the same
        # (2**n - max) >> 1 as W is even. Each round keeps the larger lane.
        x, width = (w ^ below ^ (w >> top & ones) * fill) & below, total
        while width > lane:
            width >>= 1
            guard = ones >> total - width
            a, b = x & (1 << width) - 1, x >> width
            x = b ^ (a ^ b) & (((a | guard << top) - b) >> top & guard) * fill
        out.append((1 << n) - x >> 1)
    return out


def _bitset(f: BooleanFunctionTable) -> int:
    """The truth table as one int: bit x is f(x)."""
    return int(bytes(f.values[::-1]).translate(_DIGITS[0]), 2)


def walsh_spectrum(f: BooleanFunctionTable) -> WalshSpectrum:
    """Correlation with every linear mask, via the packed-lane butterfly."""
    n = len(f.values).bit_length() - 1
    lane = _lane_width(n)
    packed = next(_packed_walsh([_bitset(f)], n))
    lanes = array("H" if lane == 16 else "I", packed.to_bytes(lane << n >> 3, "little"))
    if sys.byteorder == "big":
        lanes.byteswap()
    return WalshSpectrum(tuple(v - (1 << lane - 1) for v in lanes))


def nonlinearity(f: BooleanFunctionTable) -> int:
    """Minimum Hamming distance to the affine functions (constants included)."""
    return _nonlinearities([_bitset(f)], len(f.values).bit_length() - 1)[0]


def max_balanced_nonlinearity(n: int) -> int:
    """Reference bound 2**(n-1) - 2**(n//2) of the s-box literature; not a ceiling for even n >= 6."""
    if n < 3:
        raise ValueError(f"bound is defined for n >= 3, got {n}")
    return (1 << (n - 1)) - (1 << (n // 2))


def _population_stats(counts: list[int], d: int = 1, sd_divisor: int = 1) -> PropertyStats:
    """Stats of the values c / d; min and max stay ints when d == 1."""
    count, total = len(counts), sum(counts)
    variance = Fraction(count * sum(c * c for c in counts) - total * total, (count * d) ** 2)
    low, high = min(counts), max(counts)
    if d != 1:
        low, high = Fraction(low, d), Fraction(high, d)
    return PropertyStats(low, high, Fraction(total, count * d), math.sqrt(variance) / sd_divisor)


def sbox_nonlinearity_stats(s: SBox) -> PropertyStats:
    """Stats over the nonlinearity of the n coordinate functions."""
    return _population_stats(_nonlinearities(_coordinates(s), s.n))


def _derivatives(s: SBox):
    """Yield, one input bit i at a time, the n bitsets of f_j(x) ^ f_j(x ^ 2**i)."""
    f = _coordinates(s)
    for h in (1 << i for i in range(s.n)):
        low = _repeat((1 << h) - 1, h << 1, len(s))
        yield [((g >> h & low) | (g & low) << h) ^ g for g in f]


def sac_dependence_matrix(s: SBox) -> DependenceMatrix:
    """Flip probabilities for every (input bit, output bit) pair."""
    return DependenceMatrix(tuple(tuple(Fraction(d.bit_count(), len(s)) for d in diff)
                                  for diff in _derivatives(s)))


def sac_stats(s: SBox) -> PropertyStats:
    """Avalanche statistics over all n*n dependence-matrix entries.

    min/max/avg summarise the flip probabilities directly. The customary
    spread convention for s-box comparison tables measures flip counts
    against 2**(n+1) rather than 2**n samples, so sd is half the
    population standard deviation of the entries.
    """
    counts = [d.bit_count() for diff in _derivatives(s) for d in diff]
    return _population_stats(counts, len(s), sd_divisor=2)


def bic_nonlinearity_stats(s: SBox) -> PropertyStats:
    """Stats over the nonlinearity of f_j xor f_k for all pairs j < k."""
    f = _coordinates(s)
    pairs = (f[j] ^ f[k] for j in range(s.n) for k in range(j + 1, s.n))
    return _population_stats(_nonlinearities(pairs, s.n))


def bic_sac_stats(s: SBox) -> PropertyStats:
    """Avalanche statistics of the pairwise output-bit sums.

    Every unordered pair (j, k) contributes one value: the mean, over the
    n single-bit input flips, of the probability that f_j xor f_k flips.
    Stats run over those n*(n-1)/2 pair values.
    """
    pairs = [(j, k) for j in range(s.n) for k in range(j + 1, s.n)]
    flips = [0] * len(pairs)
    for d in _derivatives(s):
        for p, (j, k) in enumerate(pairs):
            flips[p] += (d[j] ^ d[k]).bit_count()
    return _population_stats(flips, s.n * len(s))


def analyze(s: SBox) -> AnalysisReport:
    """Bundle all four criteria plus fixed-point detection into one report."""
    return AnalysisReport(
        n=s.n,
        bijective=s.is_bijective(),
        fixed_points=find_fixed_points(s),
        nl=sbox_nonlinearity_stats(s),
        nl_bound=max_balanced_nonlinearity(s.n) if s.n >= 3 else 0,
        sac=sac_stats(s),
        bic_nl=bic_nonlinearity_stats(s),
        bic_sac=bic_sac_stats(s),
    )


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
