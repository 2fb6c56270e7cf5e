"""S-box data model and the two-permutation clone transform.

An n-bit s-box is a lookup table of 2**n values. Reading each entry as an
n-bit row (least significant bit first) turns the table into a 2**n x n
bit matrix. Permuting the n bit positions of the input induces a
permutation of the 2**n table indices; permuting the bit positions of the
output rearranges the matrix columns. Applying both produces a "clone"
s-box that keeps the seed's bijectivity, nonlinearity, avalanche and
bit-independence statistics while relocating its fixed points.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import factorial


class NonBijectiveError(ValueError):
    """An operation that needs a bijective s-box received duplicate entries."""


class RemovalExhausted(RuntimeError):
    """No fixed-point-free clone was found within max_attempts, or none exists."""


@dataclass(frozen=True)
class SBox:
    """Lookup table of 2**n values in [0, 2**n), 2 <= n <= 16.

    Candidate tables with duplicate entries are representable (so they can
    be analysed and rejected); operations that promise a bijective result
    refuse them.
    """

    n: int
    table: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(self.table))
        if not 2 <= self.n <= 16:
            raise ValueError(f"bit width must be in [2, 16], got {self.n}")
        size = 1 << self.n
        if len(self.table) != size:
            raise ValueError(
                f"table of width {self.n} needs {size} entries, got {len(self.table)}"
            )
        for v in self.table:
            if not isinstance(v, int) or not 0 <= v < size:
                raise ValueError(f"entry {v!r} out of range for width {self.n}")

    @classmethod
    def from_table(cls, values) -> "SBox":
        """Build an SBox from a flat sequence, inferring n from its length."""
        values = tuple(values)
        count = len(values)
        n = count.bit_length() - 1
        if count == 0 or count != 1 << n:
            raise ValueError(f"entry count {count} is not a power of two")
        return cls(n, values)

    @classmethod
    def identity(cls, n: int) -> "SBox":
        return cls(n, tuple(range(1 << n)))

    @classmethod
    def _trusted(cls, n: int, table: tuple[int, ...]) -> "SBox":
        """An SBox of a table that is valid by construction, built without the per-entry check."""
        s = object.__new__(cls)
        object.__setattr__(s, "n", n)
        object.__setattr__(s, "table", table)
        return s

    def is_bijective(self) -> bool:
        return len(set(self.table)) == len(self.table)

    def __len__(self) -> int:
        return len(self.table)


@dataclass(frozen=True)
class BitPermutation:
    """Permutation of {0..m-1}; images[j] is where position j lands."""

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"{self.images!r} is not a permutation of 0..{len(self.images) - 1}")

    @classmethod
    def identity(cls, size: int) -> "BitPermutation":
        return cls(tuple(range(size)))

    @property
    def size(self) -> int:
        return len(self.images)


@dataclass(frozen=True)
class FixedPointReport:
    """Indices i with table[i] = i (fixed) or table[i] = 2**n - 1 - i (reverse)."""

    fixed: frozenset[int]
    reverse_fixed: frozenset[int]

    @property
    def empty(self) -> bool:
        return not self.fixed and not self.reverse_fixed


@dataclass(frozen=True)
class CloneOptions:
    """Knobs for clone generation.

    max_attempts caps the fixed-point removal walk; None, or any cap of n!
    or more, walks all n! input permutations, which tries every class.
    """

    max_attempts: int | None = None

    def __post_init__(self):
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")


def _lift(images) -> list[int]:
    """Entry v is v with bit j moved to bit images[j], built by doubling."""
    table = [0]
    for image in images:
        table += [v | 1 << image for v in table]
    return table


def derive_row_permutation(sigma1: BitPermutation, n: int) -> BitPermutation:
    """Lift a permutation of n bit positions to the 2**n table indices.

    Index i goes to i with bit j moved to bit sigma1.images[j]: the decimal
    reading of the identity table's bit matrix after sigma1 rearranges its
    columns. Indices 0 and 2**n - 1 are always fixed.
    """
    if sigma1.size != n:
        raise ValueError(f"permutation size {sigma1.size} != {n}")
    return BitPermutation(_lift(sigma1.images))


def clone_sbox(seed: SBox, sigma1: BitPermutation, sigma2: BitPermutation) -> SBox:
    """Clone `seed` by permuting input bits with sigma1 and output bits with sigma2.

    Entry i of the clone is seed.table[r(i)] with its bits scattered by
    sigma2, where r is the index permutation lifted from sigma1. A clone
    of a bijective seed is bijective and shares its nonlinearity,
    avalanche and bit-independence statistics.
    """
    if sigma1.size != seed.n or sigma2.size != seed.n:
        raise ValueError(f"permutation sizes {sigma1.size}/{sigma2.size} != width {seed.n}")
    if not seed.is_bijective():
        raise NonBijectiveError("seed s-box has duplicate entries")
    return _clone(seed, _lift(sigma1.images), _lift(sigma2.images))


def _clone(seed: SBox, rows: list[int], out: list[int]) -> SBox:
    """clone_sbox by the lifts of sigma1 and sigma2, for a caller that has checked the seed and sizes."""
    table = seed.table
    return SBox._trusted(seed.n, tuple([out[table[r]] for r in rows]))


def find_fixed_points(s: SBox) -> FixedPointReport:
    top, fixed, reverse = len(s) - 1, [], []
    for i, v in enumerate(s.table):
        if v == i:
            fixed.append(i)
        elif v == top - i:  # never both: top is odd, so i != top - i
            reverse.append(i)
    return FixedPointReport(frozenset(fixed), frozenset(reverse))


def clone_sbox_avoiding_fixed_points(
    seed: SBox,
    sigma1: BitPermutation,
    sigma2: BitPermutation,
    opts: CloneOptions | None = None,
) -> tuple[SBox, BitPermutation, BitPermutation]:
    """Walk S_n for the first clone with no fixed or reverse fixed points.

    Attempt k composes the k-th permutation pi of range(n), in the
    lexicographic order of itertools.permutations and lehmer_decode, onto
    sigma1 and keeps sigma2; attempt 0 is the requested pair. Returns the
    first clean clone with its effective permutations, or raises
    RemovalExhausted once max_attempts or all n! attempts have failed.

    Lifting is a homomorphism from S_n that commutes with complement, so the
    clone of (pi sigma1, sigma2) is conjugate by L_(pi sigma1) to
    x -> L_pi(base[x]), base = L_sigma1 L_sigma2 seed: both have as many fixed
    and reverse fixed points, and these depend on the composite pi sigma1 sigma2
    alone. Each attempt lifts pi and scans base up to its first hit; only the
    clean clone that is returned gets built. The walk reaches every composite.
    L_pi(v) is L_(pi[:h]) of v's low h = n // 2 bits or'ed with L_(pi[h:]) of
    its high bits, so an attempt lifts two tables of about 2**(n/2) entries
    rather than one of 2**n, and base is split into those halves once.

    A seed that maps index 0 or 2**n - 1 to 0 or 2**n - 1 has no clean clone:
    the lifted row permutation fixes both indices and sigma2 fixes both
    values. Such a seed raises RemovalExhausted before any attempt.
    """
    opts = opts or CloneOptions()
    if not seed.is_bijective():
        raise NonBijectiveError("seed s-box has duplicate entries")
    top = len(seed) - 1
    for i, v in ((0, seed.table[0]), (top, seed.table[top])):
        if v in (0, top):
            kind = "fixed" if v == i else "reverse fixed"
            raise RemovalExhausted(f"seed[{i}] = {v}: every clone has a {kind} point at {i}")
    if sigma1.size != seed.n or sigma2.size != seed.n:
        raise ValueError(f"permutation sizes {sigma1.size}/{sigma2.size} != width {seed.n}")
    fact = factorial(seed.n)
    budget = min(fact, opts.max_attempts or fact)
    lift1, lift2 = _lift(sigma1.images), _lift(sigma2.images)
    h = seed.n // 2
    low = (1 << h) - 1
    base = [(b & low, b >> h) for b in (lift1[lift2[v]] for v in seed.table)]
    for _, pi in zip(range(budget), permutations(range(seed.n))):
        lo, hi = _lift(pi[:h]), _lift(pi[h:])
        if all((lo[l] | hi[u]) ^ x not in (0, top) for x, (l, u) in enumerate(base)):
            eff1 = BitPermutation(tuple([pi[j] for j in sigma1.images]))
            return _clone(seed, _lift(eff1.images), lift2), eff1, sigma2
    if budget == fact:
        raise RemovalExhausted(f"no clone is free of fixed points: all {fact} input permutations tried")
    raise RemovalExhausted(f"no clean clone within {budget} attempts")
