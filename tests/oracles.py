"""Independent dense/matrix reference implementations used as oracles.

Everything here recomputes results from definitions (dense permutation
matrices, O(4**n) correlation sums) so the fast library paths are checked
against code that shares none of their shortcuts.
"""

import argparse
import json
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


def _tile(pattern, period, total):
    """`pattern`, one period wide, repeated across `total` bits."""
    while period < total:
        pattern |= pattern << period
        period <<= 1
    return pattern


def byte_table_by_lists(n, lane):
    """The 2**points entries of the library's Walsh byte table, points =
    min(8, 2**n), as it built them before it built the table as one int:
    entry v, the packed, biased transform of the first `points` bits of v,
    by doubling 1- to 2- to 4- to 8-point entry lists."""
    bias, points, width, ones = 1 << lane - 1, min(8, 1 << n), 1, 1
    table = [bias + 1, bias - 1]  # lane bias + (-1)**b for the bit b
    while width < points:
        half, rebias = lane * width, bias * ones
        table = [lo + hi - rebias | lo - hi + rebias << half for hi in table for lo in table]
        ones |= ones << half
        width <<= 1
    return [t.to_bytes(lane * points >> 3, "little") for t in table]


def walsh_by_stages(f, n):
    """The Walsh spectrum of the 2**n-bit int f as the library computed it
    before its block-major butterfly: the reference it keeps to.

    One int holds 2**n lanes of L = max(n + 2, 4) bits, lane a holding
    2**(L-1) + W(a). A 256-entry table gives each byte of f its 8-point
    transform, stages 0..2; each later stage adds and subtracts all lane
    pairs at once through masks, and puts the bias back.
    """
    lane = max(n + 2, 4)
    top, total, bias = lane - 1, lane << n, 1 << lane - 1
    entries = byte_table_by_lists(n, lane)
    ones = _tile(1, lane, total)
    w = int.from_bytes(b"".join(entries[v] for v in f.to_bytes(max(1 << n >> 3, 1), "little")),
                       "little")
    for shift in (lane << i for i in range(3, n)):
        low = _tile((1 << shift) - 1, shift << 1, total)
        a, b = w & low, w >> shift & low
        w = a + b + (a - b << shift) + ((ones & ~low) - (ones & low) << top)
    digits = format(w, f"0{total}b")  # lane 0 last
    return [int(digits[i - lane:i], 2) - bias for i in range(total, 0, -lane)]


def measure_by_stages(functions, n):
    """(2**n - max|W|) / 2 of each 2**n-bit int, from walsh_by_stages."""
    return [((1 << n) - max(map(abs, walsh_by_stages(f, n)))) >> 1 for f in functions]


def random_bijective(rng, n):
    table = list(range(1 << n))
    rng.shuffle(table)
    return table


def identity_sbox(n):
    """The n-bit s-box that maps every index to itself."""
    from sboxforge import SBox

    return SBox(n, tuple(range(1 << n)))


def identity_permutation(m):
    """The permutation of m positions that moves none."""
    from sboxforge import BitPermutation

    return BitPermutation(tuple(range(m)))


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
    clone.add_argument("--remove-fixed-points", action="store_true",
                       help="retry until the clone has no fixed or reverse fixed points")
    clone.add_argument("--max-attempts", type=int, default=None,
                       help="cap on removal attempts (default n!, which tries every class)")
    clone.add_argument("-o", "--output", help="write the clone here instead of stdout")
    clone.set_defaults(func=cli.cmd_clone)

    analyze_cmd = commands.add_parser("analyze", help="report the four algebraic criteria")
    analyze_cmd.add_argument("sbox", help="s-box file")
    analyze_cmd.add_argument("--format", choices=("text", "json"))
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

    values = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        for token in _SPLIT.split(body):
            if not token:
                continue
            try:
                if not token.isascii() or "_" in token:  # int alone takes "1_0" and "٣"
                    raise ValueError(token)
                value = int(token, 16) if token[:2].lower() == "0x" else int(token, 10)
            except ValueError as exc:
                raise ValueError(f"invalid entry {token!r}") from exc
            values.append(value)
    if not values:
        raise ValueError("no entries found")
    return SBox.from_table(values)


def removal_walk_by_lift(seed, sigma1, sigma2, max_attempts=None):
    """The fixed-point removal walk as it was before it decided attempts on
    bit-planes: the reference it keeps to. Each attempt lifts pi as two
    half-width tables and scans base = L_sigma1 L_sigma2 seed up to its first
    hit. Same results, messages and checks as clone_sbox_avoiding_fixed_points."""
    from sboxforge import BitPermutation, NonBijectiveError, RemovalExhausted, clone_sbox
    from sboxforge.core import _lift

    if max_attempts is not None and max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    size1, size2 = len(sigma1.images), len(sigma2.images)
    if size1 != seed.n or size2 != seed.n:
        raise ValueError(f"permutation sizes {size1}/{size2} != width {seed.n}")
    if not seed.is_bijective():
        raise NonBijectiveError("seed s-box has duplicate entries")
    top = len(seed.table) - 1
    for i, v in ((0, seed.table[0]), (top, seed.table[top])):
        if v in (0, top):
            kind = "fixed" if v == i else "reverse fixed"
            raise RemovalExhausted(f"seed[{i}] = {v}: every clone has a {kind} point at {i}")
    fact = factorial(seed.n)
    budget = min(fact, max_attempts or fact)
    lift1, lift2 = _lift(sigma1.images), _lift(sigma2.images)
    h = seed.n // 2
    low = (1 << h) - 1
    base = [(b & low, b >> h) for b in (lift1[lift2[v]] for v in seed.table)]
    for _, pi in zip(range(budget), permutations(range(seed.n))):
        lo, hi = _lift(pi[:h]), _lift(pi[h:])
        if all((lo[l] | hi[u]) ^ x not in (0, top) for x, (l, u) in enumerate(base)):
            eff1 = BitPermutation(tuple([pi[j] for j in sigma1.images]))
            return clone_sbox(seed, eff1, sigma2), eff1, sigma2
    if budget == fact:
        raise RemovalExhausted(f"no clone is free of fixed points: all {fact} input permutations tried")
    raise RemovalExhausted(f"no clean clone within {budget} attempts")


def format_decimal_by_fraction(value):
    """The report's six-place decimal as the library wrote it before it read
    value.as_integer_ratio(): Fraction arithmetic, rounded half to even."""
    scaled = Fraction(value) * 1_000_000
    whole, remainder = divmod(scaled.numerator, scaled.denominator)
    doubled = 2 * remainder
    if doubled > scaled.denominator or (doubled == scaled.denominator and whole % 2):
        whole += 1
    return f"{whole // 1_000_000}.{whole % 1_000_000:06d}"


def report_json_by_json_module(document):
    """A report document, as formats._document gives it, rendered as the
    library did before it wrote JSON itself: json.dumps(indent=2), each
    decimal text a float."""
    document = {key: {k: float(v) if isinstance(v, str) else v for k, v in value.items()}
                if isinstance(value, dict) else value
                for key, value in document.items()}
    return json.dumps(document, indent=2) + "\n"


def report_document_by_fraction(report):
    """An AnalysisReport's document, built as formats._document built it when
    it read the report's fields: each int as it is, each other value through
    format_decimal_by_fraction; nl carries no sd."""
    def stats(s, fields=("min", "max", "avg", "sd")):
        return {f: v if isinstance(v, int) else format_decimal_by_fraction(v)
                for f, v in zip(fields, s._fields())}

    return {
        "n": report.n,
        "bijective": report.bijective,
        "fixed_points": sorted(report.fixed_points.fixed),
        "reverse_fixed_points": sorted(report.fixed_points.reverse_fixed),
        "nl": stats(report.nl, ("min", "max", "avg")),
        "nl_bound": report.nl_bound,
        "sac": stats(report.sac),
        "bic_nl": stats(report.bic_nl),
        "bic_sac": stats(report.bic_sac),
    }


def report_text_by_lines(document):
    """A report document as `key: value` lines: a statistic as `k=v` pairs,
    a bool as true or false, a list as Python writes it."""
    def text(value):
        if isinstance(value, dict):
            return " ".join(f"{k}={v}" for k, v in value.items())
        return str(value).lower() if isinstance(value, bool) else str(value)

    return "".join(f"{key}: {text(value)}\n" for key, value in document.items())
