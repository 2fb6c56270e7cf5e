"""Deriving the two transform permutations from key bytes.

A key is read as a big-endian unsigned integer K. K mod n! ranks the
input-bit permutation and (K div n!) mod n! ranks the output-bit
permutation, both through the factorial number system, so only
K mod (n!)**2 matters: the effective keyspace of a width-n transform is
(n!)**2 pairs, each hit exactly once as K sweeps that range.
"""

from __future__ import annotations

from math import factorial

from .core import BitPermutation, _width


def lehmer_decode(index: int, n: int) -> BitPermutation:
    """Return the index-th permutation of {0..n-1} in lexicographic order, 2 <= n <= 16."""
    bound = factorial(_width(n))
    if not 0 <= index < bound:
        raise ValueError(f"index {index} out of range [0, {bound})")
    available = list(range(n))
    images = []
    for position in range(n - 1, -1, -1):
        step = factorial(position)
        digit, index = divmod(index, step)
        images.append(available.pop(digit))
    return BitPermutation(tuple(images))


def key_to_permutations(key: bytes, n: int) -> tuple[BitPermutation, BitPermutation]:
    """Split key material into the (input, output) bit permutation pair of width 2 <= n <= 16."""
    if len(key) == 0:
        raise ValueError("key must be at least one byte")
    fact = factorial(_width(n))
    k = int.from_bytes(key, "big")
    return lehmer_decode(k % fact, n), lehmer_decode(k // fact % fact, n)
