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

import sys
from array import array
from functools import reduce
from itertools import permutations
from math import factorial
from operator import and_, xor


class NonBijectiveError(ValueError):
    """An operation that needs a bijective s-box received duplicate entries."""


class RemovalExhausted(RuntimeError):
    """No fixed-point-free clone was found within max_attempts, or none exists."""


def _width(n: int, low: int = 2) -> int:
    """n, if it is a width in [low, 16], else a ValueError before any work that grows with n.

    S-box and bit-permutation widths start at 2, Boolean function widths at 1
    and the nonlinearity bound at 3; every public function that takes or
    derives a width reads its bound here.
    """
    if not low <= n <= 16:
        raise ValueError(f"bit width must be in [{low}, 16], got {n}")
    return n


# The default removal budget: all n! attempts up to n = 10, where a full walk
# takes seconds. At n = 11 one would take minutes, and years at n = 16.
_ATTEMPT_BOUND = factorial(10)


class _Record:
    """An immutable value of the fields named in __slots__, each set once by __init__; equal
    within its class, hashed and shown by its fields, and pickled through its constructor."""

    __slots__ = ()

    def _set(self, *values) -> None:
        # In __slots__ order. Records built per sweep row or permutation set theirs directly.
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        cells = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({cells})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class SBox(_Record):
    """Lookup table of 2**n values in [0, 2**n), 2 <= n <= 16.

    Candidate tables with duplicate entries are representable (so they can
    be analysed and rejected); operations that promise a bijective result
    refuse them.
    """

    __slots__ = ("n", "table")

    def __init__(self, n: int, table: tuple[int, ...]):
        self._set(_width(n), tuple(table))
        size = 1 << self.n
        if len(self.table) != size:
            raise ValueError(f"table of width {self.n} needs {size} entries, got {len(self.table)}")
        for v in self.table:
            # type, not isinstance: a bool entry would serialise as True or False.
            if type(v) is not int or not 0 <= v < size:
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
        return cls(n, tuple(range(1 << _width(n))))

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


class BitPermutation(_Record):
    """Permutation of {0..m-1}, m >= 1; images[j] is where position j lands."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        images = tuple(images)
        object.__setattr__(self, "images", images)
        if not images or any(type(v) is not int for v in images) or sorted(images) != list(range(len(images))):
            raise ValueError(f"{images!r} is not a permutation of 0..{len(images) - 1}")

    @classmethod
    def identity(cls, size: int) -> "BitPermutation":
        return cls(tuple(range(size)))

    @property
    def size(self) -> int:
        return len(self.images)


class FixedPointReport(_Record):
    """Indices i with table[i] = i (fixed) or table[i] = 2**n - 1 - i (reverse)."""

    __slots__ = ("fixed", "reverse_fixed")

    def __init__(self, fixed: frozenset[int], reverse_fixed: frozenset[int]):
        object.__setattr__(self, "fixed", fixed)
        object.__setattr__(self, "reverse_fixed", reverse_fixed)

    @property
    def empty(self) -> bool:
        return not self.fixed and not self.reverse_fixed


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
    columns. Indices 0 and 2**n - 1 are always fixed. n must be in [2, 16].
    """
    if sigma1.size != _width(n):
        raise ValueError(f"permutation size {sigma1.size} != {n}")
    return BitPermutation(_lift(sigma1.images))


def clone_sbox(seed: SBox, sigma1: BitPermutation, sigma2: BitPermutation) -> SBox:
    """Clone `seed` by permuting input bits with sigma1 and output bits with sigma2.

    Entry i of the clone is seed.table[r(i)] with its bits scattered by
    sigma2, where r is the index permutation lifted from sigma1. A clone
    of a bijective seed is bijective and shares its nonlinearity,
    avalanche and bit-independence statistics.
    """
    _check_clone(seed, sigma1, sigma2)
    return _clone(seed, _lift(sigma1.images), _lift(sigma2.images))


def _check_clone(seed: SBox, *sigmas: BitPermutation) -> None:
    """What every clone of `seed` needs: each sigma has the seed's width, and the seed is bijective."""
    if any(sigma.size != seed.n for sigma in sigmas):
        sizes = "/".join([str(sigma.size) for sigma in sigmas])
        raise ValueError(f"permutation sizes {sizes} != width {seed.n}")
    if not seed.is_bijective():
        raise NonBijectiveError("seed s-box has duplicate entries")


def _clone(seed: SBox, rows: list[int], out: list[int]) -> SBox:
    """clone_sbox by the lifts of sigma1 and sigma2, for a caller that has checked the seed and sizes."""
    table = seed.table
    return SBox._trusted(seed.n, tuple([out[table[r]] for r in rows]))


_DIGITS = [bytes.maketrans(bytes(range(256)), bytes(48 | v >> j & 1 for v in range(256)))
           for j in range(8)]  # byte -> b"0"/b"1" by its bit j


def _repeat(pattern: int, period: int, total: int) -> int:
    """Tile `pattern`, one period wide, across `total` bits."""
    while period < total:
        pattern |= pattern << period
        period <<= 1
    return pattern & (1 << total) - 1  # the doubling may pass `total`


def _coordinates(s: SBox) -> tuple[int, ...]:
    """The n coordinate bitsets of `s`: bit x of entry j is bit j of s[x]."""
    lanes = array("H", s.table[::-1])
    if sys.byteorder == "big":
        lanes.byteswap()
    raw = lanes.tobytes()
    planes = (raw[::2], raw[1::2])
    return tuple(int(planes[j >> 3].translate(_DIGITS[j & 7]), 2) for j in range(s.n))


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
    max_attempts: int | None = None,
) -> tuple[SBox, BitPermutation, BitPermutation]:
    """Walk S_n for the first clone with no fixed or reverse fixed points.

    Attempt k composes the k-th permutation pi of range(n), in the
    lexicographic order of itertools.permutations and lehmer_decode, onto
    sigma1 and keeps sigma2; attempt 0 is the requested pair. Returns the
    first clean clone with its effective permutations, or raises
    RemovalExhausted once max_attempts or all n! attempts have failed.
    Any cap of n! or more walks all n! input permutations, which tries
    every class; a cap below 1 is a ValueError. max_attempts None caps the
    walk at min(n!, 10!): every class up to n = 10, and at n >= 11 a search
    that is not exhaustive, which says so when it fails.

    Lifting is a homomorphism from S_n that commutes with complement, so the
    clone of (pi sigma1, sigma2) is conjugate by L_(pi sigma1) to
    x -> L_pi(base[x]), base = L_sigma1 L_sigma2 seed: both have as many fixed
    and reverse fixed points, and these depend on the composite pi sigma1 sigma2
    alone. The walk reaches every composite, and only the clean clone that is
    returned gets built.

    Each attempt is decided on bit-planes, 2**n-bit ints with one bit per
    index x. Plane sigma1[sigma2[j]] of base is the seed's coordinate bitset
    j, so the n base planes B_k cost no lift; identity plane I_k has bit x set
    when bit k of x is. L_pi moves bit k to bit pi[k], so x is a fixed point
    when B_k(x) = I_pi[k](x) for every k, and a reverse fixed point when they
    differ for every k. So pi is clean when AND_k (~B_k ^ I_pi[k]) and
    AND_k (B_k ^ I_pi[k]) are both zero, ~ taken within 2**n bits: 2n big-int
    operations per attempt, with each ~B_k computed once per walk.

    A seed that maps index 0 or 2**n - 1 to 0 or 2**n - 1 has no clean clone:
    the lifted row permutation fixes both indices and sigma2 fixes both
    values. Such a seed raises RemovalExhausted before any attempt.
    """
    if max_attempts is not None and max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    _check_clone(seed, sigma1, sigma2)
    top = len(seed) - 1
    for i, v in ((0, seed.table[0]), (top, seed.table[top])):
        if v in (0, top):
            kind = "fixed" if v == i else "reverse fixed"
            raise RemovalExhausted(f"seed[{i}] = {v}: every clone has a {kind} point at {i}")
    n, size = seed.n, top + 1
    fact = factorial(n)
    budget = min(fact, max_attempts or _ATTEMPT_BOUND)
    planes, full = [0] * n, (1 << size) - 1
    for j, f in enumerate(_coordinates(seed)):
        planes[sigma1.images[sigma2.images[j]]] = f
    flipped = [full ^ b for b in planes]
    identity = [_repeat((1 << h) - 1 << h, h << 1, size) for h in (1 << k for k in range(n))]
    for _, moved in zip(range(budget), permutations(identity)):  # moved[k] = I_pi[k]
        if not reduce(and_, map(xor, flipped, moved)) and not reduce(and_, map(xor, planes, moved)):
            pi = tuple(map(identity.index, moved))
            eff1 = BitPermutation(tuple([pi[j] for j in sigma1.images]))
            return _clone(seed, _lift(eff1.images), _lift(sigma2.images)), eff1, sigma2
    if budget == fact:
        raise RemovalExhausted(f"no clone is free of fixed points: all {fact} input permutations tried")
    if max_attempts is None:
        raise RemovalExhausted(f"no clean clone within the default bound of {budget} attempts: "
                               f"the search of {fact} input permutations was not exhaustive")
    raise RemovalExhausted(f"no clean clone within {budget} attempts")
