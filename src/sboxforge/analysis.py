"""Algebraic property measurements for s-boxes.

Covers the four criteria preserved by the clone transform: bijectivity,
nonlinearity of the coordinate functions, the avalanche behaviour of
single-bit input flips (dependence matrix), and the independence of
output-bit pairs (nonlinearity and avalanche of f_j xor f_k). All flip
probabilities are carried as exact fractions with denominator 2**n;
decimal rounding happens only at report serialisation.
"""

from __future__ import annotations

import math
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

    def max_abs(self) -> int:
        return max(abs(c) for c in self.coefficients)


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


def walsh_spectrum(f: BooleanFunctionTable) -> WalshSpectrum:
    """Correlation with every linear mask, via the in-place butterfly."""
    w = [1 - 2 * b for b in f.values]
    size = len(w)
    step = 1
    while step < size:
        for start in range(0, size, step << 1):
            for pos in range(start, start + step):
                a, b = w[pos], w[pos + step]
                w[pos] = a + b
                w[pos + step] = a - b
        step <<= 1
    return WalshSpectrum(tuple(w))


def nonlinearity(f: BooleanFunctionTable) -> int:
    """Minimum Hamming distance to the affine functions (constants included)."""
    return (len(f.values) - walsh_spectrum(f).max_abs()) >> 1


def max_balanced_nonlinearity(n: int) -> int:
    """Reference bound 2**(n-1) - 2**(n//2) of the s-box literature; not a ceiling for even n >= 6."""
    if n < 3:
        raise ValueError(f"bound is defined for n >= 3, got {n}")
    return (1 << (n - 1)) - (1 << (n // 2))


def _population_stats(values, sd_divisor: int = 1) -> PropertyStats:
    count = len(values)
    mean = sum(values, Fraction(0)) / count
    variance = sum((Fraction(v) - mean) ** 2 for v in values) / count
    return PropertyStats(min(values), max(values), mean, math.sqrt(variance) / sd_divisor)


def sbox_nonlinearity_stats(s: SBox) -> PropertyStats:
    """Stats over the nonlinearity of the n coordinate functions."""
    values = [nonlinearity(component_function(s, 1 << j)) for j in range(s.n)]
    return _population_stats(values)


def _output_differences(s: SBox):
    """Yield, one input bit i at a time, the list of s[x] ^ s[x ^ 2**i] over all x."""
    table = s.table
    for i in range(s.n):
        mask = 1 << i
        yield [table[x] ^ table[x ^ mask] for x in range(len(table))]


def sac_dependence_matrix(s: SBox) -> DependenceMatrix:
    """Flip probabilities for every (input bit, output bit) pair."""
    size = len(s)
    return DependenceMatrix(tuple(
        tuple(Fraction(sum(d >> j & 1 for d in diff), size) for j in range(s.n))
        for diff in _output_differences(s)
    ))


def sac_stats(s: SBox) -> PropertyStats:
    """Avalanche statistics over all n*n dependence-matrix entries.

    min/max/avg summarise the flip probabilities directly. The customary
    spread convention for s-box comparison tables measures flip counts
    against 2**(n+1) rather than 2**n samples, so sd is half the
    population standard deviation of the entries.
    """
    return _population_stats(sac_dependence_matrix(s).flat(), sd_divisor=2)


def bic_nonlinearity_stats(s: SBox) -> PropertyStats:
    """Stats over the nonlinearity of f_j xor f_k for all pairs j < k."""
    values = [nonlinearity(component_function(s, 1 << j | 1 << k))
              for j in range(s.n) for k in range(j + 1, s.n)]
    return _population_stats(values)


def bic_sac_stats(s: SBox) -> PropertyStats:
    """Avalanche statistics of the pairwise output-bit sums.

    Every unordered pair (j, k) contributes one value: the mean, over the
    n single-bit input flips, of the probability that f_j xor f_k flips.
    Stats run over those n*(n-1)/2 pair values.
    """
    pairs = [(j, k) for j in range(s.n) for k in range(j + 1, s.n)]
    flips = [0] * len(pairs)
    for diff in _output_differences(s):
        for p, (j, k) in enumerate(pairs):
            flips[p] += sum((d >> j ^ d >> k) & 1 for d in diff)
    return _population_stats([Fraction(f, s.n * len(s)) for f in flips])


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
