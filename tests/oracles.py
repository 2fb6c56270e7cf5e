"""Independent dense/matrix reference implementations used as oracles.

Everything here recomputes results from definitions (dense permutation
matrices, O(4**n) correlation sums) so the fast library paths are checked
against code that shares none of their shortcuts.
"""

import argparse
import re
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


class ArgparseRejected(Exception):
    """An argv the argparse reference parser rejects; the message is argparse's."""


class _RejectingParser(argparse.ArgumentParser):
    def error(self, message):
        raise ArgparseRejected(message)


def argparse_parser():
    """The argparse parser the CLI used before its table-driven one: the reference it keeps to.

    --rng-seed defaults to None rather than 0, as in the table, so that a
    given seed can be told from the default.
    """
    from sboxforge import cli

    parser = _RejectingParser(prog="sboxforge", description="Clone s-box generation and analysis")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_RejectingParser)

    clone = commands.add_parser("clone", help="generate a clone s-box from a seed")
    clone.add_argument("seed", help="seed s-box file")
    clone.add_argument("--key", help="hex key; permutations derived from it")
    clone.add_argument("--sigma1", help="input-bit permutation, comma-separated images")
    clone.add_argument("--sigma2", help="output-bit permutation, comma-separated images")
    clone.add_argument("--remove-fixed-points", action="store_true", dest="avoid_fixed_points",
                       help="retry until the clone has no fixed or reverse fixed points")
    clone.add_argument("--max-attempts", type=int, default=None,
                       help="cap on removal attempts (default n!, which tries every class)")
    clone.add_argument("-o", "--output", help="write the clone here instead of stdout")
    clone.set_defaults(func=cli.cmd_clone)

    analyze_cmd = commands.add_parser("analyze", help="report the four algebraic criteria")
    analyze_cmd.add_argument("sbox", help="s-box file")
    analyze_cmd.add_argument("--format", choices=("text", "json"), default="text")
    analyze_cmd.set_defaults(func=cli.cmd_analyze)

    derive = commands.add_parser("derive", help="show the permutations a key produces")
    derive.add_argument("--key", required=True, help="hex key")
    derive.add_argument("--n", type=int, required=True, help="bit width")
    derive.set_defaults(func=cli.cmd_derive)

    enumerate_cmd = commands.add_parser("enumerate", help="sweep permutation pairs, emit CSV")
    enumerate_cmd.add_argument("seed", help="seed s-box file")
    mode = enumerate_cmd.add_mutually_exclusive_group(required=True)
    mode.add_argument("--all", action="store_true", help="every pair (n <= 6 only)")
    mode.add_argument("--sample", type=int, help="number of random pairs")
    enumerate_cmd.add_argument("--rng-seed", type=int, default=None, help="sampling seed")
    enumerate_cmd.add_argument("--check-invariance", action="store_true",
                               help="compare every clone's report against the seed's")
    enumerate_cmd.add_argument("--out", help="write CSV here instead of stdout")
    enumerate_cmd.set_defaults(func=cli.cmd_enumerate)

    verify = commands.add_parser("verify", help="compare two s-boxes' criteria")
    verify.add_argument("seed", help="first s-box file")
    verify.add_argument("clone", help="second s-box file")
    verify.set_defaults(func=cli.cmd_verify)
    return parser


_SPLIT = re.compile(r"[,\s]+")


def parse_sbox_text_by_token(text):
    """The s-box file parser as it was before it split the whole text at once:
    the reference it keeps to, line by line and token by token."""
    from sboxforge import SBox
    from sboxforge.formats import SBoxFileError

    values = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        for token in _SPLIT.split(body):
            if not token:
                continue
            try:
                value = int(token, 16) if token[:2].lower() == "0x" else int(token, 10)
            except ValueError as exc:
                raise SBoxFileError(f"invalid entry {token!r}") from exc
            values.append(value)
    if not values:
        raise SBoxFileError("no entries found")
    try:
        return SBox.from_table(values)
    except ValueError as exc:
        raise SBoxFileError(str(exc)) from exc
