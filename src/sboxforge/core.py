"""S-box data model and the two-permutation clone transform.

An n-bit s-box is a lookup table of 2**n values. Reading each entry as an
n-bit row (least significant bit first) turns the table into a 2**n x n
bit matrix. Permuting the n bit positions of the input induces a
permutation of the 2**n table indices; permuting the bit positions of the
output rearranges the matrix columns. Applying both produces a "clone"
s-box that keeps the seed's bijectivity, nonlinearity, avalanche and
bit-independence statistics while relocating its fixed points.

Every clone is built by _clone from _lift's tables. The matrix's columns,
the coordinate bitsets, come from one transpose per batch of tables
(_planes), which analysis, the fixed points (_masks) and the removal walk
(clone_sbox_avoiding_fixed_points) read.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache, reduce
from itertools import accumulate, permutations
from math import factorial
from operator import and_, or_, xor


class NonBijectiveError(ValueError):
    """An operation that needs a bijective s-box received duplicate entries."""


class RemovalExhausted(RuntimeError):
    """No fixed-point-free clone was found within max_attempts, or none exists."""


def _width(n: int, low: int = 2) -> int:
    """n, if it is a width in [low, 16], else a ValueError before any work that grows with n.

    S-box widths start at 2, Boolean function widths at 1 and the
    nonlinearity bound at 3; every public function that takes or derives
    one of these widths reads its bound here. A BitPermutation alone has
    any size >= 1, as a row permutation of 2**n positions needs; only the
    functions that pair one with an s-box width hold its size to 2..16.
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
        # In __slots__ order.
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
    def _trusted(cls, n: int, table) -> "SBox":
        """An SBox of a table that is valid by construction, built without the per-entry check."""
        s = object.__new__(cls)
        s._set(n, tuple(table))
        return s

    def is_bijective(self) -> bool:
        return len(set(self.table)) == len(self.table)


class BitPermutation(_Record):
    """Permutation of {0..m-1}, m >= 1; images[j] is where position j lands."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        images = tuple(images)
        self._set(images)
        if not images or any(type(v) is not int for v in images) or sorted(images) != list(range(len(images))):
            raise ValueError(f"{images!r} is not a permutation of 0..{len(images) - 1}")


class FixedPointReport(_Record):
    """Indices i with table[i] = i (fixed) or table[i] = 2**n - 1 - i (reverse)."""

    __slots__ = ("fixed", "reverse_fixed")

    def __init__(self, fixed: frozenset[int], reverse_fixed: frozenset[int]):
        self._set(fixed, reverse_fixed)

    @property
    def empty(self) -> bool:
        return not self.fixed and not self.reverse_fixed


# Per bit k < 8, a bytes.translate table that sets bit k of a byte: the
# bytes 0..255 as one int, ORed with bit k of every byte, so the import does
# no per-byte work.
_SET_BIT = [(ramp | ones << k).to_bytes(256, "little")
            for ramp, ones in [(int.from_bytes(bytes(range(256)), "little"),  # byte v is v
                                int.from_bytes(b"\1" * 256, "little"))]      # every byte is 1
            for k in range(8)]


def _lift(images) -> list[int] | bytes:
    """Entry v is v with bit j moved to bit images[j], built by doubling: as
    bytes where every image is below 8, as at n <= 8, a translate through
    _SET_BIT per step; else a list."""
    if max(images, default=0) < 8:
        table = b"\0"
        for image in images:
            table += table.translate(_SET_BIT[image])
        return table
    table = [0]
    for image in images:
        table += [v | 1 << image for v in table]
    return table


def clone_sbox(seed: SBox, sigma1: BitPermutation, sigma2: BitPermutation) -> SBox:
    """Clone `seed` by permuting input bits with sigma1 and output bits with sigma2.

    Entry i of the clone is seed.table[r(i)] with its bits scattered by
    sigma2, where r is the index permutation lifted from sigma1. A clone
    of a bijective seed is bijective and shares its nonlinearity,
    avalanche and bit-independence statistics.
    """
    _check_clone(seed, sigma1, sigma2)
    return SBox._trusted(seed.n, _clone(seed.table, [(_lift(sigma1.images), _lift(sigma2.images))])[0])


def _check_clone(seed: SBox, *sigmas: BitPermutation) -> None:
    """What every clone of `seed` needs: each sigma has the seed's width, and the seed is bijective."""
    if any(len(sigma.images) != seed.n for sigma in sigmas):
        sizes = "/".join([str(len(sigma.images)) for sigma in sigmas])
        raise ValueError(f"permutation sizes {sizes} != width {seed.n}")
    if not seed.is_bijective():
        raise NonBijectiveError("seed s-box has duplicate entries")


def _clone(table, lifts: list) -> list:
    """The clone x -> out[table[rows[x]]] of seed `table` for each pair (rows, out) of lifts of sigma1
    and sigma2, unchecked: every clone that is built. Where _lift gives bytes (n <= 8), two
    bytes.translate calls, through `table` and `out` padded to 256 entries, giving bytes; above, a gather."""
    if len(table) > 256:
        return [[out[table[r]] for r in rows] for rows, out in lifts]
    table = bytes(table).ljust(256, b"\0")
    return [rows.translate(table).translate(out.ljust(256, b"\0")) for rows, out in lifts]


def _repeat(pattern: int, period: int, total: int) -> int:
    """Tile `pattern`, one period wide, across `total` bits."""
    while period < total:
        pattern |= pattern << period
        period <<= 1
    return pattern & (1 << total) - 1  # the doubling may pass `total`


# Three delta swaps transpose each 64-bit word of an int, read as an 8 x 8
# bit matrix with byte i its row i: bit j of byte i trades places with bit i
# of byte j. Each mask is kept as its eight bytes, to be repeated once per word.
_SWAPS = [(shift, mask.to_bytes(8, "little"))
          for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))]


@lru_cache(maxsize=None)
def _identity(n: int) -> tuple[int, ...]:
    """The identity table's planes I_k, bit x set when bit k of x is: built
    once per width, and read by _masks and the removal walk."""
    return tuple([_repeat((1 << h) - 1 << h, h << 1, 1 << n) for h in (1 << k for k in range(n))])


def _planes(tables: list, n: int) -> list[bytes]:
    """The joined planes of a batch of tables of width n: plane k holds the
    coordinate bitset C_k of each table in turn, bit x of a table's C_k
    being bit k of its entry x, in a stretch of max(2**n / 8, 1) bytes.

    One transpose serves the whole batch. The entries' bytes are joined
    into one int, and each 64-bit word of it is transposed (_SWAPS), so that
    byte j of a word holds bit j of the word's eight entries: the bytes j,
    j + 8, j + 16, ... are plane j of every table in turn. At n > 8 the
    entries' low and high bytes are transposed apart, giving planes 0-7 and
    8 on; an n = 2 table is padded with four zero entries, to fill a byte of
    each plane. A table may be bytes at n <= 8, or any sequence of ints.
    """
    pad = bytes(-(1 << n) % 8)  # four zero entries after each n = 2 table
    if n > 8:
        raw, big = b"".join([array("H", table).tobytes() for table in tables]), sys.byteorder == "big"
    halves = (raw[big::2], raw[not big::2]) if n > 8 else (pad.join(map(bytes, tables)) + pad * bool(tables),)
    planes = []
    for half in halves:
        x = int.from_bytes(half, "little")
        for shift, mask in _SWAPS:
            swap = (x ^ x >> shift) & int.from_bytes(mask * (len(half) >> 3), "little")
            x ^= swap ^ swap << shift
        words = x.to_bytes(len(half), "little")
        planes += [words[j::8] for j in range(8)]
    return planes[:n]


def _stretches(data: bytes, n: int):
    """The ints of `data`'s stretches of one plane of a width-n table,
    max(2**n / 8, 1) bytes each, read little-endian: up to 8 bytes (n <= 6)
    as machine words, all by one array."""
    size = max(1 << n >> 3, 1)
    if size > 8:
        return [int.from_bytes(data[i:i + size], "little") for i in range(0, len(data), size)]
    words = array("BHIQ"[size.bit_length() - 1], data)
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _split(planes: list[bytes]) -> list[tuple[int, ...]]:
    """Each table's n coordinate bitsets, read off the batch's joined _planes."""
    return list(zip(*[_stretches(plane, len(planes)) for plane in planes]))


def _masks(planes: list[bytes]) -> tuple[int, int]:
    """The fixed and reverse fixed masks of every table of a batch, read off
    its joined _planes: bit x of table i's stretch of each is set when x is
    a fixed, or reverse fixed, point of table i.

    x is a fixed point when C_k(x) = I_k(x) for every k (_identity), and a
    reverse fixed point when C_k(x) differs from I_k(x) for every k. With
    D_k = C_k ^ I_k, each I_k repeated once per table by multiplying it with
    a 1 at the start of every table's stretch, the masks are ~OR_k D_k and
    AND_k D_k. ~ is taken within each table's 2**n bits, so an n = 2
    table's padding, zero in C_k and I_k, is in neither.
    """
    n = len(planes)
    ones = _repeat(1, max(1 << n, 8), len(planes[0]) << 3)  # bit 0 of every table's stretch
    diffs = [int.from_bytes(plane, "little") ^ identity * ones for plane, identity in zip(planes, _identity(n))]
    return ((1 << (1 << n)) - 1) * ones ^ reduce(or_, diffs), reduce(and_, diffs)


def _fixed_counts(planes: list[bytes]) -> tuple[list[int], list[int]]:
    """The number of fixed and of reverse fixed points of each table of a
    batch, read off its joined _planes: the popcount of its stretch of each
    of the batch's two _masks."""
    n, length = len(planes), len(planes[0])
    return tuple([list(map(int.bit_count, _stretches(mask.to_bytes(length, "little"), n)))
                  for mask in _masks(planes)])


def _coordinates(s: SBox) -> tuple[int, ...]:
    """The n coordinate bitsets of `s`, bit x of entry j being bit j of s[x]:
    _planes of a batch of one."""
    return _split(_planes([s.table], s.n))[0]


def _fixed_points(planes: list[bytes]) -> FixedPointReport:
    """library.find_fixed_points of the one table whose _planes are
    `planes`: the set bits of its two _masks. Split at its 1s, a mask's
    binary text, bit 0 first, leaves the runs of 0s between them, so each 1
    is at the running sum of the runs and 1s before it: no step runs per
    entry."""
    return FixedPointReport(*[frozenset(accumulate(map(len, f"{mask:b}"[::-1].split("1")[:-1]),
                                                   lambda at, run: at + run + 1))
                              for mask in _masks(planes)])


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
    j, so the n base planes B_k cost no lift; I_k is _identity's plane k.
    L_pi moves bit k to bit pi[k], so x is a fixed point when
    B_k(x) = I_pi[k](x) for every k, and a reverse fixed point when they
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
    top = len(seed.table) - 1
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
    identity = _identity(n)
    for _, moved in zip(range(budget), permutations(identity)):  # moved[k] = I_pi[k]
        if not reduce(and_, map(xor, flipped, moved)) and not reduce(and_, map(xor, planes, moved)):
            pi = tuple(map(identity.index, moved))
            eff1 = BitPermutation(tuple([pi[j] for j in sigma1.images]))
            clone = _clone(seed.table, [(_lift(eff1.images), _lift(sigma2.images))])[0]
            return SBox._trusted(n, clone), eff1, sigma2
    if budget == fact:
        raise RemovalExhausted(f"no clone is free of fixed points: all {fact} input permutations tried")
    if max_attempts is None:
        raise RemovalExhausted(f"no clean clone within the default bound of {budget} attempts: "
                               f"the search of {fact} input permutations was not exhaustive")
    raise RemovalExhausted(f"no clean clone within {budget} attempts")
