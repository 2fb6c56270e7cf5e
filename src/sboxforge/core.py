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
from math import factorial


class NonBijectiveError(ValueError):
    """An operation that needs a bijective s-box received duplicate entries."""


class RemovalExhausted(RuntimeError):
    """No fixed-point-free clone was found within the attempt budget, or none exists."""


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

    def compose(self, other: "BitPermutation") -> "BitPermutation":
        """Permutation equal to applying `other` first, then `self`."""
        if self.size != other.size:
            raise ValueError(f"size mismatch: {self.size} vs {other.size}")
        return BitPermutation(tuple(self.images[other.images[j]] for j in range(self.size)))


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

    max_attempts caps the fixed-point removal retry loop; None means the
    full schedule of n! * n! permutation pairs.
    """

    max_attempts: int | None = None

    def __post_init__(self):
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def attempt_budget(self, n: int) -> int:
        if self.max_attempts is None:
            return factorial(n) ** 2
        return self.max_attempts


def _lift(sigma: BitPermutation) -> list[int]:
    """Entry v is v with bit j moved to bit sigma.images[j], built by doubling."""
    table = [0]
    for image in sigma.images:
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
    return BitPermutation(_lift(sigma1))


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
    out, table = _lift(sigma2), seed.table
    return SBox(seed.n, tuple([out[table[r]] for r in _lift(sigma1)]))


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
    """Clone repeatedly until the result has no fixed or reverse fixed points.

    Attempt k perturbs the requested permutations by composing a scheduled
    pair on top: lehmer_decode(k mod n!) onto sigma1 and
    lehmer_decode((k div n!) mod n!) onto sigma2. Attempt 0 is the
    unperturbed pair, and the full budget of n! * n! attempts tries every
    reachable permutation pair exactly once. Returns the first clean clone
    together with the effective permutations; raises RemovalExhausted when
    the budget runs out.

    A seed that maps index 0 or 2**n - 1 to 0 or 2**n - 1 has no clean clone:
    the lifted row permutation fixes both indices and sigma2 fixes both
    values. Such a seed raises RemovalExhausted before any attempt.
    """
    from .keys import lehmer_decode

    if opts is None:
        opts = CloneOptions()
    if not seed.is_bijective():
        raise NonBijectiveError("seed s-box has duplicate entries")
    top = len(seed) - 1
    for i, v in ((0, seed.table[0]), (top, seed.table[top])):
        if v in (0, top):
            kind = "fixed" if v == i else "reverse fixed"
            raise RemovalExhausted(f"seed[{i}] = {v}: every clone has a {kind} point at {i}")
    n = seed.n
    fact = factorial(n)
    budget = opts.attempt_budget(n)
    for attempt in range(budget):
        eff1 = lehmer_decode(attempt % fact, n).compose(sigma1)
        eff2 = lehmer_decode(attempt // fact % fact, n).compose(sigma2)
        candidate = clone_sbox(seed, eff1, eff2)
        if find_fixed_points(candidate).empty:
            return candidate, eff1, eff2
    raise RemovalExhausted(f"no clean clone within {budget} attempts")
