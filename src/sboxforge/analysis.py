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
    """What depends on the width n alone, built once per width by _plan."""

    lane: int            # bits per Walsh lane
    step: int            # bytes per Walsh lane
    start: int           # biased lanes of w = 1, plus twice the ASCII digit offset
    stages: tuple        # (shift, low lanes, rebias) per butterfly stage
    ones: int            # bit 0 of every lane
    below: int           # the bits under every lane's top bit
    rounds: tuple        # (width, top bits of the low lanes, low lanes) per tournament round
    flips: tuple         # (2**i, low halves) per input bit i
    pairs: tuple         # every (j, k) with j < k < n


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
                 ones * ((1 << top) - 1), tuple(rounds), flips, pairs)


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


def _nonlinearities(functions, n: int) -> list[int]:
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


def _derivatives(coordinates: tuple[int, ...], n: int) -> tuple[tuple[int, ...], ...]:
    """The n x n derivative bitsets: entry [i][j] has bit x = f_j(x) ^ f_j(x ^ 2**i)."""
    return tuple(tuple(((g >> h & low) | (g & low) << h) ^ g for g in coordinates)
                 for h, low in _plan(n).flips)


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
    return _nonlinearities([_bitset(f)], len(f.values).bit_length() - 1)[0]


def max_balanced_nonlinearity(n: int) -> int:
    """Reference bound 2**(n-1) - 2**(n//2) of the s-box literature; not a ceiling for even n >= 6."""
    if n < 3:
        raise ValueError(f"bound is defined for n >= 3, got {n}")
    return (1 << (n - 1)) - (1 << (n // 2))


def _population_stats(counts: list[int], d: int = 1, sd_divisor: int = 1) -> PropertyStats:
    """Stats of the values c / d; min and max stay ints when d == 1."""
    count, total = len(counts), sum(counts)
    # Int true division rounds correctly, so this is the float of the exact variance.
    variance = (count * sum(c * c for c in counts) - total * total) / (count * d) ** 2
    low, high = min(counts), max(counts)
    if d != 1:
        low, high = Fraction(low, d), Fraction(high, d)
    return PropertyStats(low, high, Fraction(total, count * d), math.sqrt(variance) / sd_divisor)


def sbox_nonlinearity_stats(coordinates: tuple[int, ...], n: int) -> PropertyStats:
    """Stats over the nonlinearity of the n coordinate functions."""
    return _population_stats(_nonlinearities(coordinates, n))


def sac_stats(derivatives: tuple[tuple[int, ...], ...], n: int) -> PropertyStats:
    """Avalanche statistics over all n*n dependence-matrix entries.

    Entry (i, j), the probability that flipping input bit i flips output
    bit j, is the popcount of derivative bitset [i][j] over 2**n.
    min/max/avg summarise those probabilities directly. The customary
    spread convention for s-box comparison tables measures flip counts
    against 2**(n+1) rather than 2**n samples, so sd is half the
    population standard deviation of the entries.
    """
    counts = [d.bit_count() for diff in derivatives for d in diff]
    return _population_stats(counts, 1 << n, sd_divisor=2)


def bic_nonlinearity_stats(coordinates: tuple[int, ...], n: int) -> PropertyStats:
    """Stats over the nonlinearity of f_j xor f_k for all pairs j < k."""
    f = coordinates
    return _population_stats(_nonlinearities([f[j] ^ f[k] for j, k in _plan(n).pairs], n))


def bic_sac_stats(derivatives: tuple[tuple[int, ...], ...], n: int) -> PropertyStats:
    """Avalanche statistics of the pairwise output-bit sums.

    Every unordered pair (j, k) contributes one value: the mean, over the
    n single-bit input flips, of the probability that f_j xor f_k flips.
    Stats run over those n*(n-1)/2 pair values.
    """
    flips = [sum((d[j] ^ d[k]).bit_count() for d in derivatives) for j, k in _plan(n).pairs]
    return _population_stats(flips, n << n)


def analyze(s: SBox) -> AnalysisReport:
    """Bundle all four criteria plus fixed-point detection into one report.

    The coordinate and derivative bitsets are built once here and shared
    by the four criteria.
    """
    n, coordinates = s.n, _coordinates(s)
    derivatives = _derivatives(coordinates, n)
    return AnalysisReport(
        n=n,
        bijective=s.is_bijective(),
        fixed_points=find_fixed_points(s),
        nl=sbox_nonlinearity_stats(coordinates, n),
        nl_bound=max_balanced_nonlinearity(n) if n >= 3 else 0,
        sac=sac_stats(derivatives, n),
        bic_nl=bic_nonlinearity_stats(coordinates, n),
        bic_sac=bic_sac_stats(derivatives, n),
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
