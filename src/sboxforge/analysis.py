"""Algebraic property measurements for s-boxes.

Covers the four criteria preserved by the clone transform: bijectivity,
nonlinearity of the coordinate functions, the avalanche behaviour of
single-bit input flips (dependence matrix), and the independence of
output-bit pairs (nonlinearity and avalanche of f_j xor f_k). Each
coordinate function f_j is one 2**n-bit int (bit x = f_j(x)): avalanche
counts are popcounts of derivative bitsets, and nonlinearity runs a Walsh
butterfly on packed lanes of n + 2 bits, its first three stages read per
byte of the truth table from a 256-entry table built per width on first
use. The functions measured together are laid out block-major, one int per
byte position holding that byte's lanes of every function, so each later
stage is one addition or subtraction per int. All flip probabilities are
carried as exact fractions with denominator 2**n; decimal rounding happens
only at report serialisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub, xor
from typing import NamedTuple

from .core import FixedPointReport, SBox, _DIGITS, _coordinates, _repeat, find_fixed_points


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


CRITERIA = ("nl", "sac", "bic_nl", "bic_sac")


def component_function(s: SBox, mask: int) -> BooleanFunctionTable:
    """Truth table x -> parity(s[x] & mask).

    A single-bit mask extracts one coordinate; mask 0 is permitted and
    yields the constant-zero function.
    """
    if not 0 <= mask < 1 << s.n:
        raise ValueError(f"mask {mask} out of range for width {s.n}")
    return BooleanFunctionTable(tuple((v & mask).bit_count() & 1 for v in s.table))


class _Plan(NamedTuple):
    """What depends on the width n alone, built once per width by _plan."""

    lane: int            # bits per Walsh lane
    table: list          # byte -> its 8-point Walsh transform in packed lanes, as bytes
    most: int            # bitsets per batch, at most: the n(n+1)/2 functions of an s-box
    ones: int            # bit 0 of every lane of a block-major int of `most` bitsets
    below: int           # the bits under every such lane's top bit
    high: int            # every such lane's top bit, 2**(L-1): the lane bias
    rounds: tuple        # (width, low lanes, their top bits) per tournament round inside a block
    flips: tuple         # (2**i, low halves) per input bit i
    pairs: tuple         # every (j, k) with j < k < n


# A batch's spectra take at most 2**24 bits (one bitset's, if more), so the
# butterfly's ints stay within a few MB at every width. A batch holds at most
# the n(n+1)/2 functions of one s-box, the most that the plan's masks cover.
_BATCH_BITS = 1 << 24


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
    lane, points = max(n + 2, 4), min(8, 1 << n)
    top, most = lane - 1, n * (n + 1) >> 1
    total = most * lane * points
    ones = _repeat(1, lane, total)
    rounds, width = [], lane * points
    while width > lane:
        width >>= 1
        low = _repeat((1 << width) - 1, width << 1, total)
        rounds.append((width, low, (ones & low) << top))
    flips = tuple((h, _repeat((1 << h) - 1, h << 1, 1 << n)) for h in (1 << i for i in range(n)))
    pairs = tuple((j, k) for j in range(n) for k in range(j + 1, n))
    return _Plan(lane, _byte_table(n, lane), most, ones, ones * ((1 << top) - 1), ones << top,
                 tuple(rounds), flips, pairs)


def _butterfly(batch: list[int], n: int, bias: int) -> list[int]:
    """The Walsh spectra of the batch, block-major: int g holds block g of
    every bitset, masks 8g .. 8g + 7, each lane biased once.

    Block g of a bitset is its byte g's byte-table entry: eight lanes (2**n
    if n < 3) of L = _plan(n).lane bits with the first three stages done,
    lane a holding 2**(L-1) + W(a). Int X_g joins the entries of byte g of
    every bitset, and each later stage adds and subtracts whole ints,
    X_g, X_(g+h) = X_g + X_(g+h), X_g - X_(g+h), with no mask or shift: a
    packed int holds negative lanes exactly. `bias` is 2**(L-1) in each lane
    of the batch; only X_0 keeps it, so the stages leave one in every lane.
    """
    count = max(1 << n >> 3, 1)
    entry = _plan(n).table.__getitem__
    raw = b"".join([f.to_bytes(count, "little") for f in batch])
    ints = [int.from_bytes(b"".join(map(entry, raw[g::count])), "little") - (g and bias)
            for g in range(count)]
    half = count >> 1
    for _ in range(n - 3):
        # Ints 2i and 2i + 1 go to i and i + G/2, so the spectra end in mask
        # order. Taking them from the end, a quarter (at least 16 ints) at a
        # time, keeps one copy of the batch and a quarter alive.
        new = [0] * count
        for i in reversed(range(0, half, max(half >> 2, 16))):
            lo, hi = ints[2 * i::2], ints[2 * i + 1::2]
            new[i:i + len(lo)] = map(add, lo, hi)
            new[half + i:half + i + len(lo)] = map(sub, lo, hi)
            del ints[2 * i:]
        ints = new
    return ints


def _measure(functions, n: int) -> list[int]:
    """(2**n - max|W|) / 2 of each bitset, the max taken by lane-parallel tournaments."""
    plan, out = _plan(n), []
    top, ones, span = plan.lane - 1, plan.ones, plan.lane * min(8, 1 << n)
    fill, step = (1 << top) - 1, min(max(_BATCH_BITS // (plan.lane << n), 1), plan.most)
    for start in range(0, len(functions), step):
        batch = functions[start:start + step]
        keep = (1 << len(batch) * span) - 1
        below, high = plan.below & keep, plan.high & keep
        # Lane a: |W(a)| if W(a) >= 0, else |W(a)| - 1, which gives the same
        # (2**n - max) >> 1 as W is even. Each round keeps the larger lane:
        # a lane's top bit survives (a | high) - b where a >= b. Ints are
        # replaced in place, so no second copy of the batch is made.
        ints = _butterfly(batch, n, high)
        for g, w in enumerate(ints):
            ints[g] = (w ^ below ^ (w >> top & ones) * fill) & below
        while len(ints) > 1:
            half = len(ints) >> 1
            for g in range(half):
                a, b = ints[g], ints[g + half]
                wins = (a | high) - b & high
                ints[g] = b ^ (a ^ b) & wins - (wins >> top)
            del ints[half:]
        x = ints[0]
        for width, low, high in plan.rounds:
            a, b = x & low, x >> width & low
            wins = (a | high) - b & high
            x = b ^ (a ^ b) & wins - (wins >> top)
        out += [(1 << n) - (x >> i & fill) >> 1 for i in range(0, len(batch) * span, span)]
    return out


def _bitset(f: BooleanFunctionTable) -> int:
    """The truth table as one int: bit x is f(x)."""
    return int(bytes(f.values[::-1]).translate(_DIGITS[0]), 2)


def _derivatives(coordinates: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """The n x n derivative bitsets: entry [j][i] has bit x = f_j(x) ^ f_j(x ^ 2**i)."""
    flips = _plan(n).flips
    return [tuple([((g >> h & low) | (g & low) << h) ^ g for h, low in flips]) for g in coordinates]


def walsh_spectrum(f: BooleanFunctionTable) -> WalshSpectrum:
    """Correlation with every linear mask: lane a of block g of _butterfly's
    spectrum of f alone holds mask 8g + a, less the lane's bias."""
    n = len(f.values).bit_length() - 1
    plan = _plan(n)
    lane, span = plan.lane, plan.lane * min(8, 1 << n)
    fill, bias = (1 << lane) - 1, 1 << lane - 1
    ints = _butterfly([_bitset(f)], n, plan.high & (1 << span) - 1)
    return WalshSpectrum(tuple([(x >> i & fill) - bias for x in ints for i in range(0, span, lane)]))


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


def _population_stats(moments: tuple[int, int, int, int], count: int, d: int = 1,
                      sd_divisor: int = 1) -> PropertyStats:
    """Stats of `count` values c / d, from the _moments of the counts c; min
    and max stay ints when d == 1."""
    total, squares, low, high = moments
    # Int true division rounds correctly, so this is the float of the exact variance.
    variance = (count * squares - total * total) / (count * d) ** 2
    if d != 1:
        low, high = Fraction(low, d), Fraction(high, d)
    return PropertyStats(low, high, Fraction(total, count * d), math.sqrt(variance) / sd_divisor)


# Every criterion is a population of integer counts read off the functions
# of an s-box: its n coordinate functions and their pair sums. All that a
# report or an invariant holds of them is their _moments, which do not depend
# on the order of the coordinates. So they are computed from the sorted
# coordinate bitsets: any reordering of the coordinates, as a clone with
# another sigma2 makes, gives the same multiset of counts, and sorting keeps
# a repeated coordinate's multiplicity. The key is read off each s-box's own
# table, so no clone borrows the seed's counts. --all takes n! rows in a row
# with one sigma1, all with the same sorted coordinates, so one entry answers
# all but the first.
@lru_cache(maxsize=1)
def _criteria(coordinates: tuple[int, ...], n: int) -> tuple[tuple[int, int, int, int], ...]:
    """The _moments of the four criteria's counts, in CRITERIA order.

    nl: the nonlinearity of each coordinate f_j. sac: the n*n flip counts,
    entry (i, j) the popcount of D_i f_j, where D_i f(x) = f(x) ^ f(x ^ 2**i),
    out of 2**n inputs. bic_nl: the nonlinearity of each pair sum f_j ^ f_k,
    j < k. bic_sac: per pair, the sum of its n flip counts, out of n * 2**n;
    a pair sum's derivatives are the xors of its two coordinates'.
    """
    pairs = _plan(n).pairs
    nl = _measure([*coordinates, *[coordinates[j] ^ coordinates[k] for j, k in pairs]], n)
    d = _derivatives(coordinates, n)
    sac = [c.bit_count() for row in d for c in row]
    bic_sac = [sum(map(int.bit_count, map(xor, d[j], d[k]))) for j, k in pairs]
    return _moments(nl[:n]), _moments(sac), _moments(nl[n:]), _moments(bic_sac)


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
    bijective, nl, sac, bic_nl, bic_sac = _invariants(s)
    pairs = n * (n - 1) >> 1
    return AnalysisReport(
        n=n,
        bijective=bijective,
        fixed_points=find_fixed_points(s),
        nl=_population_stats(nl, n),
        nl_bound=max_balanced_nonlinearity(n) if n >= 3 else 0,
        sac=_population_stats(sac, n * n, 1 << n, sd_divisor=2),
        bic_nl=_population_stats(bic_nl, pairs),
        bic_sac=_population_stats(bic_sac, pairs, n << n),
    )


def _invariants(s: SBox) -> tuple:
    """Bijectivity, then (sum, sum of squares, min, max) of each criterion's counts.

    Of two s-boxes of one width, equal invariants mean reports equal in
    every field but the fixed points: each statistic is a function of these
    integers and the width. A clone of the seed has the seed's invariants
    exactly, since its counts are the seed's, reordered. So an invariance
    sweep compares these, with no Fraction or float, instead of reports.
    """
    return (s.is_bijective(), *_criteria(tuple(sorted(_coordinates(s))), s.n))


def compare_reports(a: AnalysisReport, b: AnalysisReport) -> ReportComparison:
    """Field-by-field comparison of the four preserved criteria.

    Every field must match exactly. sd is the float of an exact rational
    variance, so equal counts give identical floats, and at n <= 16 distinct
    variances differ by far more than a float's rounding.
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
            if getattr(stats_a, field) != getattr(stats_b, field):
                diffs.append(f"{name}.{field}")
    return ReportComparison(not diffs, tuple(diffs))
