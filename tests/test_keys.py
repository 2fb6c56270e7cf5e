import itertools
import random
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sboxforge import BitPermutation, key_to_permutations, lehmer_decode, lehmer_encode


def test_decode_examples():
    assert lehmer_decode(0, 4).images == (0, 1, 2, 3)
    assert lehmer_decode(1, 4).images == (0, 1, 3, 2)
    assert lehmer_decode(23, 4).images == (3, 2, 1, 0)


def test_decode_matches_lexicographic_enumeration():
    for n in range(2, 7):
        for rank, expected in enumerate(itertools.permutations(range(n))):
            assert lehmer_decode(rank, n).images == expected


def test_encode_examples():
    assert lehmer_encode(BitPermutation((0, 1, 2, 3))) == 0
    assert lehmer_encode(BitPermutation((3, 2, 1, 0))) == 23


def test_decode_encode_inverse():
    for n in range(2, 7):
        for rank in range(factorial(n)):
            assert lehmer_encode(lehmer_decode(rank, n)) == rank


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 10).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, factorial(n) - 1))))
def test_decode_encode_inverse_property(case):
    n, rank = case
    assert lehmer_encode(lehmer_decode(rank, n)) == rank


def test_decode_range_errors():
    with pytest.raises(ValueError):
        lehmer_decode(-1, 4)
    with pytest.raises(ValueError):
        lehmer_decode(24, 4)


def test_key_to_permutations_examples():
    s1, s2 = key_to_permutations(b"\x00", 4)
    assert s1.images == (0, 1, 2, 3) and s2.images == (0, 1, 2, 3)

    s1, s2 = key_to_permutations(bytes([23]), 4)
    assert s1.images == (3, 2, 1, 0) and s2.images == (0, 1, 2, 3)

    s1, s2 = key_to_permutations(bytes([24]), 4)
    assert s1.images == (0, 1, 2, 3) and s2.images == (0, 1, 3, 2)


def test_key_determinism_and_reduction():
    rng = random.Random(41)
    for _ in range(50):
        key = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 9)))
        assert key_to_permutations(key, 4) == key_to_permutations(key, 4)
        # only K mod (n!)**2 matters
        k = int.from_bytes(key, "big")
        reduced = (k % factorial(4) ** 2).to_bytes(2, "big")
        assert key_to_permutations(key, 4) == key_to_permutations(reduced, 4)


def test_key_coverage_exhaustive_n3():
    pairs = set()
    for k in range(factorial(3) ** 2):
        length = max(1, (k.bit_length() + 7) // 8)
        pairs.add(key_to_permutations(k.to_bytes(length, "big"), 3))
    assert len(pairs) == factorial(3) ** 2


def test_key_coverage_sampled_n4():
    rng = random.Random(37)
    ks = rng.sample(range(factorial(4) ** 2), 200)
    pairs = {key_to_permutations(k.to_bytes(2, "big"), 4) for k in ks}
    assert len(pairs) == 200


def test_key_rejections():
    with pytest.raises(ValueError):
        key_to_permutations(b"", 4)
    with pytest.raises(ValueError):
        key_to_permutations(b"\x01", 1)
