"""Algebraic property measurements for s-boxes.

Covers the four criteria preserved by the clone transform: bijectivity,
nonlinearity of the coordinate functions, the avalanche behaviour of
single-bit input flips (dependence matrix), and the independence of
output-bit pairs (nonlinearity and avalanche of f_j xor f_k). Each
coordinate function f_j is one 2**n-bit int (bit x = f_j(x)) read off
core._planes. Avalanche counts are popcounts of derivative bitsets
(_criteria); nonlinearity runs a Walsh butterfly on packed lanes of
max(n + 2, 4) bits (_plan, _butterfly, _measure). Flip probabilities are
exact ratios of ints: a SAC entry over 2**n, a BIC-SAC value over
n * 2**n, and their averages over n * n * 2**n and p * n * 2**n, for the
p = n * (n - 1) / 2 output pairs. Each sd is a float, the square root of
an exact variance.

The CLI renders a report from its integer form (_report) and compares
integer moments (_invariants, _differences). The report types, analyze and
the one-function views are library's, which makes Fractions of the ratios.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import add, mul, sub, xor
from types import SimpleNamespace

from .core import SBox, _fixed_points, _identity, _planes, _repeat, _split, _width


CRITERIA = ("nl", "sac", "bic_nl", "bic_sac")
# Each criterion's fields in a report, in order: library.PropertyStats.__slots__.
STATS = ("min", "max", "avg", "sd")


# A batch's spectra take at most 2**24 bits (one bitset's, if more), so the
# butterfly's ints stay within a few MB at every width. A batch holds at most
# the n(n+1)/2 functions of one s-box, the most that the plan's masks cover.
_BATCH_BITS = 1 << 24


def _byte_table(n: int, lane: int) -> bytes:
    """Entries v < 2**points joined, points = min(8, 2**n): entry v is the
    packed, biased Walsh transform of the first `points` bits of v, one lane
    each. Entry 0 is the bias in every lane plus `points` in lane 0. Setting
    bit x of an entry takes 2 (-1)**(a.x) from each lane a, so the table
    doubles once per bit x, all of it one int."""
    points = min(8, 1 << n)
    stride = lane * points
    table, ones = _repeat(1 << lane - 1, lane, stride) + points, 1
    for x in range(points):
        row = sum((-1) ** (a & x).bit_count() << lane * a for a in range(points))  # Hadamard row x
        shift = stride << x
        table |= table - 2 * row * ones << shift
        ones |= ones << shift
    return table.to_bytes(stride << points >> 3, "little")


@lru_cache(maxsize=None)
def _plan(n: int) -> SimpleNamespace:
    """What depends on the width n alone, built once per width and then only read."""
    # |W| reaches 2**n and must stay below half a lane; at least 4 bits, so
    # that the 2**n < 8 lanes of n < 3 still fill whole bytes.
    lane, points = max(n + 2, 4), min(8, 1 << n)
    top, most = lane - 1, n * (n + 1) >> 1
    total = most * lane * points
    ones = _repeat(1, lane, total)
    rounds, width = [], lane * points
    while width > lane:
        width >>= 1
        low = _repeat((1 << width) - 1, width << 1, total)
        rounds.append((width, low, (ones & low) << top))
    # Column i of the byte table maps byte v to byte i of v's entry: strided
    # slices of the joined entries, padded to 256 for the 2**(2**n) bytes of n < 3.
    joined, size = _byte_table(n, lane), lane * points >> 3
    return SimpleNamespace(
        lane=lane,                      # bits per Walsh lane
        # column i, a bytes.translate table: byte -> byte i of its packed 8-point transform
        columns=tuple(joined[i::size].ljust(256, b"\0") for i in range(size)),
        most=most,                      # bitsets per batch, at most: an s-box's n(n+1)/2 functions
        ones=ones,                      # bit 0 of every lane of a block-major int of `most` bitsets
        below=ones * ((1 << top) - 1),  # the bits under every such lane's top bit
        high=ones << top,               # every such lane's top bit, 2**(L-1): the lane bias
        rounds=tuple(rounds),           # (width, low lanes, their top bits) per round inside a block
        # (2**i, low halves: _identity's I_i inverted) per input bit i; every (j, k) with j < k < n
        flips=tuple((1 << i, plane ^ (1 << (1 << n)) - 1) for i, plane in enumerate(_identity(n))),
        pairs=tuple((j, k) for j in range(n) for k in range(j + 1, n)),
    )


def _butterfly(batch: list[int], n: int, bias: int, stages: int) -> list[int]:
    """The batch's Walsh spectra after `stages` of the n - 3 later stages,
    block-major: int g holds block g of every bitset, each lane biased once
    after all n - 3; after one fewer, only the even ints keep a bias.

    Block g of a bitset is its byte g's byte-table entry: eight lanes (2**n
    if n < 3) of L = _plan(n).lane bits with the first three stages done,
    lane a holding 2**(L-1) + W(a). Int X_g joins the entries of byte g of
    every bitset. The batch's bytes are regrouped so that byte g of every
    bitset sits together, and byte i of every entry is read at once by
    translating them through the plan's column i into every E-th byte of a
    block-major buffer, E the entry length; X_g is its g-th stretch. Each
    later stage adds and subtracts whole ints, X_g, X_(g+h) = X_g + X_(g+h),
    X_g - X_(g+h), with no mask or shift: a packed int holds negative lanes
    exactly. `bias` is 2**(L-1) in each lane of the batch; only X_0 keeps
    it, so the stages leave one in every lane.
    """
    columns, size, count = _plan(n).columns, len(batch), max(1 << n >> 3, 1)
    grouped = bytearray(size * count)
    for f, bits in enumerate(batch):
        grouped[f::size] = bits.to_bytes(count, "little")
    ints, entry, step = [], len(columns), max(count >> 2, 16) * size
    # A quarter of the blocks (at least 16) at a time, so that the buffer
    # stays a quarter of the batch beside the ints read so far.
    buffer = bytearray(min(step, len(grouped)) * entry)
    for start in range(0, len(grouped), step):
        part = grouped[start:start + step]
        for i, column in enumerate(columns):
            buffer[i::entry] = part.translate(column)
        ints += [int.from_bytes(buffer[k:k + size * entry], "little") - bias
                 for k in range(0, len(buffer), size * entry)]
    del grouped, part, buffer  # the stages hold the ints alone
    ints[0] += bias
    half = count >> 1
    for _ in range(stages):
        # Ints 2i and 2i + 1 go to i and i + G/2, so the spectra end in mask
        # order. Taking them from the end, a quarter (at least 16 ints) at a
        # time, keeps one copy of the batch and a quarter alive.
        new = [0] * count
        for i in reversed(range(0, half, max(half >> 2, 16))):
            lo, hi = ints[2 * i::2], ints[2 * i + 1::2]
            new[i:i + len(lo)] = map(add, lo, hi)
            new[half + i:half + i + len(lo)] = map(sub, lo, hi)
            del ints[2 * i:]
        ints = new
    return ints


def _measure(functions, n: int) -> list[int]:
    """(2**n - max|W|) / 2 of each bitset, the max taken by lane-parallel tournaments.

    The butterfly stops one stage short: the last would turn ints 2i and
    2i + 1, lanes A and B, into A + B and A - B, and all it is needed for
    is max(|A + B|, |A - B|) = |A| + |B|, which the tournament takes instead.
    """
    plan, out = _plan(n), []
    top, ones, span = plan.lane - 1, plan.ones, plan.lane * min(8, 1 << n)
    fill, step = (1 << top) - 1, min(max(_BATCH_BITS // (plan.lane << n), 1), plan.most)
    for start in range(0, len(functions), step):
        batch = functions[start:start + step]
        keep = (1 << len(batch) * span) - 1
        below, high = plan.below & keep, plan.high & keep
        # The odd int of a pair gets the bias that the stages left only on
        # the even one. Lane a then folds to |W(a)| if W(a) >= 0, else to
        # |W(a)| - 1, odd as W is even, which adding its bit 0 puts right;
        # a pair's sum is at most 2**n. At n <= 3 there is one int and no
        # stage, and a zero spectrum, all bias, pairs with it. Each round
        # keeps the larger lane: a lane's top bit survives (a | high) - b
        # where a >= b. Ints are replaced in place, so no second copy of the
        # batch is made.
        ints = _butterfly(batch, n, high, n - 4)
        if len(ints) == 1:
            ints.append(0)
        for i in range(len(ints) >> 1):
            a, b = ints[2 * i], ints[2 * i + 1] + high
            a = (a ^ below ^ (a >> top & ones) * fill) & below
            b = (b ^ below ^ (b >> top & ones) * fill) & below
            ints[i] = a + (a & ones) + b + (b & ones)
        del ints[len(ints) >> 1:]
        while len(ints) > 1:
            half = len(ints) >> 1
            for g in range(half):
                a, b = ints[g], ints[g + half]
                wins = (a | high) - b & high
                ints[g] = b ^ (a ^ b) & wins - (wins >> top)
            del ints[half:]
        x = ints[0]
        for width, low, tops in plan.rounds:
            a, b = x & low, x >> width & low
            wins = (a | tops) - b & tops
            x = b ^ (a ^ b) & wins - (wins >> top)
        out += [(1 << n) - (x >> i & fill) >> 1 for i in range(0, len(batch) * span, span)]
    return out


def _derivatives(coordinates: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """The n x n derivative bitsets: entry [j][i] has bit x = f_j(x) ^ f_j(x ^ 2**i)."""
    flips = _plan(n).flips
    return [tuple([((g >> h & low) | (g & low) << h) ^ g for h, low in flips]) for g in coordinates]


def max_balanced_nonlinearity(n: int) -> int:
    """Reference bound 2**(n-1) - 2**(n//2) of the s-box literature, 3 <= n <= 16; not a
    ceiling for even n >= 6."""
    _width(n, 3)
    return (1 << (n - 1)) - (1 << (n // 2))


def _moments(counts: list[int]) -> tuple[int, int, int, int]:
    """(min, max, sum, spread) of `counts`, spread = len * (sum of squares) - sum**2:
    the integers that decide, one to one at a given width, the min, max, avg
    and sd that _population_stats makes of them."""
    total, squares = sum(counts), sum(map(mul, counts, counts))
    return min(counts), max(counts), total, len(counts) * squares - total * total


def _ratios(moments: tuple[int, int, int, int], count: int, d: int, sd_divisor: int) -> tuple:
    """Stats of `count` values c / d in integer form, from the _moments of the
    counts c: min, max and avg as (numerator, denominator) pairs of ints, and
    sd as the float that PropertyStats holds."""
    low, high, total, spread = moments
    # Int true division rounds correctly, so this is the float of the exact variance.
    sd = math.sqrt(spread / (count * d) ** 2) / sd_divisor
    return (low, d), (high, d), (total, count * d), sd


# Every criterion is a population of integer counts read off the functions
# of an s-box: its n coordinate functions and their pair sums. All that a
# report or an invariant holds of them is their _moments, which do not depend
# on the order of the coordinates. So they are computed from the sorted
# coordinate bitsets, the key that _invariants reads off each table. The
# cache's one entry carries a key, the seed's or a sweep batch's last, into
# the next batch.
@lru_cache(maxsize=1)
def _criteria(coordinates: tuple[int, ...], n: int) -> tuple[tuple[int, int, int, int], ...]:
    """The _moments of the four criteria's counts, in CRITERIA order.

    nl: the nonlinearity of each coordinate f_j. sac: the n*n flip counts,
    entry (i, j) the popcount of D_i f_j, where D_i f(x) = f(x) ^ f(x ^ 2**i),
    out of 2**n inputs. bic_nl: the nonlinearity of each pair sum f_j ^ f_k,
    j < k. bic_sac: per pair, the sum of its n flip counts, out of n * 2**n;
    a pair sum's derivatives are the xors of its two coordinates'.
    """
    pairs = _plan(n).pairs
    nl = _measure([*coordinates, *[coordinates[j] ^ coordinates[k] for j, k in pairs]], n)
    d = _derivatives(coordinates, n)
    sac = [c.bit_count() for row in d for c in row]
    bic_sac = [sum(map(int.bit_count, map(xor, d[j], d[k]))) for j, k in pairs]
    return _moments(nl[:n]), _moments(sac), _moments(nl[n:]), _moments(bic_sac)


def _report(s: SBox) -> tuple:
    """The integer form of s's report, which formats renders and
    library.analyze turns into an AnalysisReport: (n, bijective, fixed
    points, nl_bound, each criterion's _ratios in CRITERIA order)."""
    n, planes = s.n, _planes([s.table], s.n)
    bijective, *moments = _invariants([s.table], planes)[0]
    pairs = n * (n - 1) >> 1
    # Each criterion's (count, d, sd divisor): `count` values c / d (see library.analyze).
    shapes = (n, 1, 1), (n * n, 1 << n, 2), (pairs, 1, 1), (pairs, n << n, 1)
    stats = [_ratios(m, *shape) for m, shape in zip(moments, shapes)]
    return n, bijective, _fixed_points(planes), max_balanced_nonlinearity(n) if n >= 3 else 0, stats


def _invariants(tables: list, planes: list[bytes]) -> list[tuple]:
    """Each table's invariants, in table order, for a batch of tables of one
    width whose joined _planes are `planes`: its bijectivity, then the
    _moments of each criterion's counts.

    A table's criteria depend on its sorted coordinates alone, its key, read
    off its own stretch of the planes, so no clone borrows the seed's counts.
    Sorting keeps a repeated coordinate's multiplicity, and any reordering of
    the coordinates, as a clone with another sigma2 makes, gives the same
    key. _criteria runs once per distinct key of the batch, in the order the
    keys first appear: the n! rows of one sigma1, which --all takes in a
    row, make one call.

    Of two s-boxes of one width, each moment is equal exactly where the
    report field in its place is, so equal invariants mean reports equal
    in every field but the fixed points. A clone of the seed has the seed's
    invariants exactly, since its counts are the seed's, reordered. So an
    invariance sweep's row passes when its invariants equal the seed's,
    with no Fraction or float, and verify names the fields that differ
    from them (_differences).
    """
    n, keys = len(planes), list(map(tuple, map(sorted, _split(planes))))
    criteria = {key: _criteria(key, n) for key in dict.fromkeys(keys)}
    return [(len(set(table)) == len(table), *criteria[key]) for key, table in zip(keys, tables)]


def _differences(a: tuple, b: tuple) -> tuple[str, ...]:
    """The fields in which two rows differ, named in library.compare_reports'
    order. A row is a bijectivity, then per criterion its STATS, (min, max,
    avg, sd), or the _moments that decide them: a report's, or a table's
    _invariants."""
    diffs = [] if a[0] == b[0] else ["bijective"]
    for name, x, y in zip(CRITERIA, a[1:], b[1:]):
        diffs += [f"{name}.{field}" for field, u, v in zip(STATS, x, y) if u != v]
    return tuple(diffs)
