"""Independent dense/matrix reference implementations used as oracles.

Everything here recomputes results from definitions (dense permutation
matrices, O(4**n) correlation sums) so the fast library paths are checked
against code that shares none of their shortcuts.
"""

from fractions import Fraction
from itertools import permutations
from math import factorial

import numpy as np


def bits_matrix(table, n):
    """2**n x n matrix; row i holds the LSB-first bits of table[i]."""
    return np.array([[v >> j & 1 for j in range(n)] for v in table], dtype=np.int64)


def decimal_rows(matrix):
    weights = 1 << np.arange(matrix.shape[1], dtype=np.int64)
    return [int(v) for v in matrix @ weights]


def perm_matrix(images):
    size = len(images)
    m = np.zeros((size, size), dtype=np.int64)
    for i, image in enumerate(images):
        m[i, image] = 1
    return m


def dense_clone(table, sigma1, sigma2):
    """Full dense pipeline: row-permute and column-permute the bit matrix."""
    n = len(table).bit_length() - 1
    x = bits_matrix(range(1 << n), n)
    w1 = x @ perm_matrix(sigma1)
    q1 = perm_matrix(decimal_rows(w1))
    w2 = q1 @ bits_matrix(table, n) @ perm_matrix(sigma2)
    return decimal_rows(w2)


def compose(outer, inner):
    """Images of applying `inner` first, then `outer`."""
    return tuple(outer[image] for image in inner)


def has_fixed_point(table):
    """True when some entry equals its index or the index's complement."""
    top = len(table) - 1
    return any(v == i or v == top - i for i, v in enumerate(table))


def first_clean_pair(table, sigma1, sigma2):
    """First clean clone of the (n!)**2 removal schedule, or None if none is clean.

    Attempt k of the schedule composes the (k mod n!)-th permutation in
    lexicographic order onto sigma1 and the (k div n!)-th onto sigma2, so
    the whole schedule tries every permutation pair once. Returns the dense
    clone of the first attempt free of fixed and reverse fixed points, with
    its effective (sigma1, sigma2).
    """
    perms = list(permutations(range(len(sigma1))))
    for p2 in perms:
        for p1 in perms:
            eff1, eff2 = compose(p1, sigma1), compose(p2, sigma2)
            clone = dense_clone(table, eff1, eff2)
            if not has_fixed_point(clone):
                return clone, eff1, eff2
    return None


def permute_bits(value, images):
    """value with bit j moved to bit images[j]."""
    return sum((value >> j & 1) << image for j, image in enumerate(images))


def stabilizer_size(table):
    """Number of pairs (a, b) of bit permutations with L_a o S o L_b = S.

    L lifts a bit permutation to the 2**n values. Two pairs give the same
    clone exactly when they differ by such a pair, so S has
    (n!)**2 / stabilizer_size(S) distinct clones. For each a the equation
    fixes L_b = S^-1 o L_a^-1 o S; count the a for which that map is a lift.
    """
    n = len(table).bit_length() - 1
    inv = inverse(table)
    count = 0
    for a_inverse in permutations(range(n)):
        images = [inv[permute_bits(table[1 << j], a_inverse)] for j in range(n)]
        if sorted(images) != [1 << j for j in range(n)]:
            continue
        b = tuple(image.bit_length() - 1 for image in images)
        count += all(inv[permute_bits(v, a_inverse)] == permute_bits(x, b)
                     for x, v in enumerate(table))
    return count


def is_bijective_strict(table):
    """Bijectivity via the component-weight characterisation.

    True iff every nonzero linear combination of output bits has Hamming
    weight 2**(n-1). Agrees with the all-entries-distinct check; this form
    exists as an independent route for cross-validation.
    """
    n = len(table).bit_length() - 1
    half = 1 << (n - 1)
    for mask in range(1, 1 << n):
        if sum((v & mask).bit_count() & 1 for v in table) != half:
            return False
    return True


def sign_matrix(n):
    """H[a, x] = (-1)**parity(a & x); one row per linear mask."""
    ax = np.arange(1 << n)
    parity = np.zeros((1 << n, 1 << n), dtype=np.int64)
    for a in ax:
        parity[a] = [bin(a & x).count("1") & 1 for x in ax]
    return 1 - 2 * parity


def direct_walsh(values, h=None):
    """O(4**n) correlation sums straight from the definition."""
    f = np.asarray(values, dtype=np.int64)
    n = len(f).bit_length() - 1
    if h is None:
        h = sign_matrix(n)
    return [int(v) for v in h @ (1 - 2 * f)]


def random_bijective(rng, n):
    table = list(range(1 << n))
    rng.shuffle(table)
    return table


def random_perm(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return tuple(images)


def inverse(images):
    """Images of the inverse permutation: it sends images[j] back to j."""
    inv = [0] * len(images)
    for j, image in enumerate(images):
        inv[image] = j
    return tuple(inv)


def lehmer_rank(images):
    """Lexicographic rank among all permutations of the same size.

    Position p contributes (n - 1 - p)! for every later entry smaller than
    images[p]: that many permutations share the prefix and come first.
    """
    n = len(images)
    return sum(sum(later < image for later in images[p + 1:]) * factorial(n - 1 - p)
               for p, image in enumerate(images))


def dependence_matrix(table, width=None):
    """Row i, column j: the share of x with bit j of S(x) != bit j of S(x ^ 2**i).

    `width` is the number of output bits, n by default; i runs over the n
    input bits. Entries are Fractions over 2**n.
    """
    size = len(table)
    n = size.bit_length() - 1
    return [[Fraction(sum((table[x] ^ table[x ^ 1 << i]) >> j & 1 for x in range(size)), size)
             for j in range(n if width is None else width)]
            for i in range(n)]
