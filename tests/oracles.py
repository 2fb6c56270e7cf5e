"""Independent dense/matrix reference implementations used as oracles.

Everything here recomputes results from definitions (dense permutation
matrices, O(4**n) correlation sums) so the fast library paths are checked
against code that shares none of their shortcuts.
"""

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
