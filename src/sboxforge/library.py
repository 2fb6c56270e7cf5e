"""The report and Boolean-function API, which no CLI command runs.

analyze and compare_reports give and compare an s-box's four criteria as an
AnalysisReport of PropertyStats; component_function, walsh_spectrum and
nonlinearity measure one Boolean function; derive_row_permutation and
find_fixed_points give one lift and one table's fixed points. Each calls,
on one table or function, the code that the CLI runs in analysis and core.
The package loads this module on the first access to one of its names
(sboxforge.__getattr__), so a CLI call never compiles it.

The CLI renders a report from its integer form (analysis._report), each
ratio rounded to six places by formats, and compares integer moments; it
builds no Fraction. Only analyze makes Fractions of those ratios
(_population_stats), for AnalysisReport's fields, which compare_reports
then compares. So fractions is imported here: loading it, with the decimal
and numbers modules it imports, would cost every CLI call about 2.5 ms.
"""

from __future__ import annotations

from fractions import Fraction

from .analysis import CRITERIA, _butterfly, _differences, _measure, _plan, _report
from .core import BitPermutation, FixedPointReport, SBox, _Record, _fixed_points, _lift, _planes, _width


class BooleanFunctionTable(_Record):
    """Truth table of an n-input Boolean function as 2**n bits, 1 <= n <= 16."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[int, ...]):
        self._set(tuple(values))
        count = len(self.values)
        # (count - 1).bit_length() is the least n with count <= 2**n (1 for an empty table).
        if count != 1 << _width((count - 1).bit_length(), 1):
            raise ValueError(f"truth table length {count} is not a power of two")
        if any(v not in (0, 1) for v in self.values):
            raise ValueError("truth table entries must be bits")


class WalshSpectrum(_Record):
    """Signed correlations with every linear mask, indexed by mask."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[int, ...]):
        self._set(coefficients)


class PropertyStats(_Record):
    """min/max/avg/sd summary of one metric family."""

    __slots__ = ("min", "max", "avg", "sd")

    def __init__(self, min: int | Fraction, max: int | Fraction, avg: Fraction, sd: float):
        self._set(min, max, avg, sd)


class AnalysisReport(_Record):
    """Full four-criterion measurement of one s-box."""

    __slots__ = ("n", "bijective", "fixed_points", "nl", "nl_bound", "sac", "bic_nl", "bic_sac")

    def __init__(self, n: int, bijective: bool, fixed_points: FixedPointReport, nl: PropertyStats,
                 nl_bound: int, sac: PropertyStats, bic_nl: PropertyStats, bic_sac: PropertyStats):
        self._set(n, bijective, fixed_points, nl, nl_bound, sac, bic_nl, bic_sac)


class ReportComparison(_Record):
    __slots__ = ("equal", "differences")

    def __init__(self, equal: bool, differences: tuple[str, ...]):
        self._set(equal, differences)


def component_function(s: SBox, mask: int) -> BooleanFunctionTable:
    """Truth table x -> parity(s[x] & mask).

    A single-bit mask extracts one coordinate; mask 0 is permitted and
    yields the constant-zero function.
    """
    if not 0 <= mask < 1 << s.n:
        raise ValueError(f"mask {mask} out of range for width {s.n}")
    return BooleanFunctionTable(tuple((v & mask).bit_count() & 1 for v in s.table))


def _bitset(f: BooleanFunctionTable) -> int:
    """The truth table as one int: bit x is f(x)."""
    return int(bytes(f.values[::-1]).hex()[1::2], 2)  # bytes 0 and 1 in hex are 00 and 01


def walsh_spectrum(f: BooleanFunctionTable) -> WalshSpectrum:
    """Correlation with every linear mask: lane a of block g of _butterfly's
    spectrum of f alone holds mask 8g + a, less the lane's bias."""
    n = len(f.values).bit_length() - 1
    plan = _plan(n)
    lane, span = plan.lane, plan.lane * min(8, 1 << n)
    fill, bias = (1 << lane) - 1, 1 << lane - 1
    ints = _butterfly([_bitset(f)], n, plan.high & (1 << span) - 1, n - 3)
    return WalshSpectrum(tuple([(x >> i & fill) - bias for x in ints for i in range(0, span, lane)]))


def nonlinearity(f: BooleanFunctionTable) -> int:
    """Minimum Hamming distance to the affine functions (constants included)."""
    return _measure([_bitset(f)], len(f.values).bit_length() - 1)[0]


def derive_row_permutation(sigma1: BitPermutation, n: int) -> BitPermutation:
    """Lift a permutation of n bit positions to the 2**n table indices.

    Index i goes to i with bit j moved to bit sigma1.images[j]: the decimal
    reading of the identity table's bit matrix after sigma1 rearranges its
    columns. Indices 0 and 2**n - 1 are always fixed. n must be in [2, 16].
    """
    if len(sigma1.images) != _width(n):
        raise ValueError(f"permutation size {len(sigma1.images)} != {n}")
    return BitPermutation(_lift(sigma1.images))


def find_fixed_points(s: SBox) -> FixedPointReport:
    """Indices i with s[i] = i (fixed) or s[i] = 2**n - 1 - i (reverse fixed)."""
    return _fixed_points(_planes([s.table], s.n))


def _population_stats(ratios: tuple) -> PropertyStats:
    """The PropertyStats of a criterion's _ratios; min and max stay ints when d == 1."""
    (low, d), (high, _), avg, sd = ratios
    if d != 1:
        low, high = Fraction(low, d), Fraction(high, d)
    return PropertyStats(low, high, Fraction(*avg), sd)


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
    n, bijective, fixed_points, nl_bound, stats = _report(s)
    nl, sac, bic_nl, bic_sac = map(_population_stats, stats)
    return AnalysisReport(n, bijective, fixed_points, nl, nl_bound, sac, bic_nl, bic_sac)


def compare_reports(a: AnalysisReport, b: AnalysisReport) -> ReportComparison:
    """Field-by-field comparison of the four preserved criteria.

    Every field must match exactly. sd is the float of an exact rational
    variance, so equal counts give identical floats, and at n <= 16 distinct
    variances differ by far more than a float's rounding.
    Fixed-point sets are informational and deliberately excluded: cloning
    relocates fixed points rather than preserving them.
    """
    rows = [(r.bijective, *[getattr(r, name)._fields() for name in CRITERIA]) for r in (a, b)]
    diffs = (("n",) if a.n != b.n else ()) + _differences(*rows)
    return ReportComparison(not diffs, diffs)
