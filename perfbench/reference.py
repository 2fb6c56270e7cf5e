"""Independent numpy reference for everything the benchmark checks.

Nothing here imports sboxforge: clone tables, the removal schedule, key
derivation and the four criteria are recomputed from their definitions
(README and module docstrings), so a defect in the program cannot hide by
also being in the expected values.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def lehmer_decode(index: int, n: int) -> tuple[int, ...]:
    """index-th permutation of 0..n-1 in lexicographic order."""
    available = list(range(n))
    images = []
    for position in range(n - 1, -1, -1):
        digit, index = divmod(index, math.factorial(position))
        images.append(available.pop(digit))
    return tuple(images)


def key_permutations(key: bytes, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(sigma1, sigma2) for a key read as a big-endian integer K."""
    k = int.from_bytes(key, "big")
    fact = math.factorial(n)
    return lehmer_decode(k % fact, n), lehmer_decode(k // fact % fact, n)


def compose(outer, inner) -> tuple[int, ...]:
    """Apply `inner` first, then `outer`."""
    return tuple(outer[inner[j]] for j in range(len(inner)))


def schedule_entry(sigma1, sigma2, attempt: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Permutation pair tried at `attempt` of fixed-point removal."""
    n = len(sigma1)
    fact = math.factorial(n)
    return (compose(lehmer_decode(attempt % fact, n), sigma1),
            compose(lehmer_decode(attempt // fact % fact, n), sigma2))


def bit_permute(values: np.ndarray, sigma) -> np.ndarray:
    """Move bit j of every value to position sigma[j]."""
    out = np.zeros_like(values)
    for j, image in enumerate(sigma):
        out |= ((values >> j) & 1) << image
    return out


def clone(table: np.ndarray, sigma1, sigma2) -> np.ndarray:
    """Clone entry i is seed[r(i)] with bits scattered by sigma2, r lifted from sigma1."""
    rows = bit_permute(np.arange(len(table), dtype=np.int64), sigma1)
    return bit_permute(table[rows], sigma2)


def fixed_points(table: np.ndarray) -> tuple[list[int], list[int]]:
    index = np.arange(len(table), dtype=np.int64)
    top = len(table) - 1
    return (np.flatnonzero(table == index).tolist(),
            np.flatnonzero(table == top - index).tolist())


def has_fixed_points(table: np.ndarray) -> bool:
    index = np.arange(len(table), dtype=np.int64)
    return bool(np.any(table == index) or np.any(table == len(table) - 1 - index))


def unremovable(table) -> bool:
    """True when every clone keeps a fixed or reverse fixed point.

    The lifted row permutation fixes indices 0 and 2**n - 1, and the output
    bit permutation keeps 0 and 2**n - 1, so such an endpoint stays put.
    """
    top = len(table) - 1
    return int(table[0]) in (0, top) or int(table[top]) in (0, top)


def first_clean_attempt(table: np.ndarray, sigma1, sigma2, cap: int) -> int | None:
    """First schedule index below `cap` whose clone has no fixed points, else None."""
    for attempt in range(cap):
        eff1, eff2 = schedule_entry(sigma1, sigma2, attempt)
        if not has_fixed_points(clone(table, eff1, eff2)):
            return attempt
    return None


def walsh(functions: np.ndarray) -> np.ndarray:
    """Walsh spectra of the rows of a (m, 2**n) 0/1 array, by the butterfly."""
    w = (1 - 2 * functions).astype(np.int64)
    m, size = w.shape
    h = 1
    while h < size:
        w = w.reshape(m, size // (2 * h), 2, h)
        w = np.stack((w[:, :, 0, :] + w[:, :, 1, :], w[:, :, 0, :] - w[:, :, 1, :]), axis=2)
        h *= 2
    return w.reshape(m, size)


def stats(values, sd_divisor: int = 1) -> dict:
    """Exact min/max/avg and float sd (population), as in the report."""
    values = list(values)
    mean = sum(values, Fraction(0)) / len(values)
    variance = sum((Fraction(v) - mean) ** 2 for v in values) / len(values)
    return {"min": min(values), "max": max(values), "avg": mean,
            "sd": math.sqrt(variance) / sd_divisor}


def nl_bound(n: int) -> int:
    """The s-box literature's reference bound 2**(n-1) - 2**floor(n/2) (odd n: 2**((n-1)/2))."""
    return (1 << (n - 1)) - (1 << (n // 2 if n % 2 == 0 else (n - 1) // 2))


def criteria(table) -> dict:
    """The report fields `analyze --format json` prints, from the definitions."""
    t = np.asarray(table, dtype=np.int64)
    size = len(t)
    n = size.bit_length() - 1
    coords = (t[None, :] >> np.arange(n)[:, None]) & 1
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    pair_funcs = np.array([coords[j] ^ coords[k] for j, k in pairs], dtype=np.int64)
    nl_coords = (size - np.abs(walsh(coords)).max(axis=1)) // 2
    nl_pairs = (size - np.abs(walsh(pair_funcs)).max(axis=1)) // 2

    index = np.arange(size)
    flips = np.empty((n, n), dtype=np.int64)        # flips[i, j]: input bit i, output bit j
    pair_flips = np.zeros(len(pairs), dtype=np.int64)
    for i in range(n):
        d = t ^ t[index ^ (1 << i)]
        bits = (d[None, :] >> np.arange(n)[:, None]) & 1
        flips[i] = bits.sum(axis=1)
        for p, (j, k) in enumerate(pairs):
            pair_flips[p] += int(np.count_nonzero(bits[j] ^ bits[k]))

    fixed, reverse = fixed_points(t)
    return {
        "n": n,
        "bijective": len(np.unique(t)) == size,
        "fixed_points": fixed,
        "reverse_fixed_points": reverse,
        "nl": stats(int(v) for v in nl_coords),
        "nl_bound": nl_bound(n),
        "sac": stats([Fraction(int(c), size) for c in flips.flat], sd_divisor=2),
        "bic_nl": stats(int(v) for v in nl_pairs),
        "bic_sac": stats([Fraction(int(c), n * size) for c in pair_flips]),
    }


CRITERIA = ("nl", "sac", "bic_nl", "bic_sac")
FIELDS = ("min", "max", "avg", "sd")


def differences(a: dict, b: dict) -> list[str]:
    """Criterion fields that differ: exact for min/max/avg, 1e-9 for the float sd."""
    diffs = []
    if a["n"] != b["n"]:
        diffs.append("n")
    if a["bijective"] != b["bijective"]:
        diffs.append("bijective")
    for name in CRITERIA:
        for field in FIELDS:
            va, vb = a[name][field], b[name][field]
            same = abs(va - vb) <= 1e-9 if field == "sd" else va == vb
            if not same:
                diffs.append(f"{name}.{field}")
    return diffs


def _gf_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a = (a << 1) ^ (0x11B if a & 0x80 else 0)
        b >>= 1
    return out


def _gf_inverse(x: int) -> int:
    """x^254 = x^-1 in GF(2^8) mod x^8+x^4+x^3+x+1 (0 -> 0), by square and multiply."""
    result, power, exponent = 1, x, 254
    while exponent:
        if exponent & 1:
            result = _gf_mul(result, power)
        power = _gf_mul(power, power)
        exponent >>= 1
    return result if x else 0


def aes_table(constant: int = 0x63) -> list[int]:
    """AES s-box from its definition: GF inverse, then the affine map plus `constant`.

    With constant 0 the affine part is linear, so 0 -> 0 and the s-box has an
    unremovable fixed point.
    """
    out = []
    for b in map(_gf_inverse, range(256)):
        s = b
        for shift in range(1, 5):
            s ^= ((b << shift) | (b >> (8 - shift))) & 0xFF
        out.append(s ^ constant)
    return out
