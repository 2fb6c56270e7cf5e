import itertools
import random
import time
from math import factorial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sboxforge import core
from sboxforge import (
    BitPermutation,
    CloneOptions,
    NonBijectiveError,
    RemovalExhausted,
    SBox,
    clone_sbox,
    clone_sbox_avoiding_fixed_points,
    derive_row_permutation,
    find_fixed_points,
)

from oracles import (
    bits_matrix,
    compose,
    dense_clone,
    first_clean_pair,
    has_fixed_point,
    inverse,
    perm_matrix,
    random_bijective,
    random_perm,
    stabilizer_size,
)
from vectors import (
    AES_CLONE8,
    AES_SBOX,
    CLONE4,
    ROWPERM_4,
    SEED4,
    SIGMA1_4,
    SIGMA1_8,
    SIGMA2_4,
    SIGMA2_8,
)

# Columns of the identity table's bit matrix after rearranging by SIGMA1_4.
COLPERM_RESULT_4 = (
    (0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1),
    (0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1),
    (0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1),
    (0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1),
)


# ---------------------------------------------------------------------
# data model


def test_sbox_validates_length_and_range():
    with pytest.raises(ValueError):
        SBox(4, tuple(range(8)))
    with pytest.raises(ValueError):
        SBox(2, (0, 1, 2, 4))
    with pytest.raises(ValueError):
        SBox(1, (0, 1))
    with pytest.raises(ValueError):
        SBox.from_table([0, 1, 2])


def test_sbox_allows_candidate_duplicates():
    candidate = SBox(2, (0, 0, 0, 0))
    assert not candidate.is_bijective()
    assert SBox.from_table(SEED4).is_bijective()


def test_bit_permutation_validation():
    with pytest.raises(ValueError):
        BitPermutation((0, 0, 1))
    with pytest.raises(ValueError):
        BitPermutation((1, 2, 3))


def test_bit_permutation_group_laws():
    # Fixed-point removal rests on lifting being a homomorphism.
    rng = random.Random(7)
    for n in (2, 3, 5, 8):
        identity = tuple(range(n))
        for _ in range(20):
            a, b = random_perm(rng, n), random_perm(rng, n)
            a_inverse = inverse(a)
            assert compose(a, a_inverse) == compose(a_inverse, a) == identity
            assert compose(a, identity) == a
            # compose(a, b) applies b first, then a; so do their lifts.
            ab, la, lb = (derive_row_permutation(BitPermutation(p), n).images
                          for p in (compose(a, b), a, b))
            assert ab == tuple(la[v] for v in lb)


# ---------------------------------------------------------------------
# column permutation and the induced row permutation


def test_apply_column_permutation_reference():
    rows = derive_row_permutation(BitPermutation(SIGMA1_4), 4)
    w1 = bits_matrix(rows.images, 4)
    for j, expected in enumerate(COLPERM_RESULT_4):
        assert tuple(w1[:, j]) == expected


def test_derive_row_permutation_reference():
    assert derive_row_permutation(BitPermutation(SIGMA1_4), 4).images == ROWPERM_4


def test_derive_row_permutation_identity_and_endpoints():
    assert derive_row_permutation(BitPermutation.identity(5), 5) == BitPermutation.identity(32)
    rng = random.Random(5)
    for n in (3, 4, 8):
        for _ in range(10):
            rows = derive_row_permutation(BitPermutation(random_perm(rng, n)), n)
            assert rows.images[0] == 0
            assert rows.images[-1] == (1 << n) - 1


def test_row_and_column_permutations_commute_on_identity_matrix():
    # Dense check: permuting the identity table's rows by the induced map
    # equals permuting its columns directly.
    rng = random.Random(17)
    for n in (3, 4):
        x = bits_matrix(range(1 << n), n)
        for _ in range(25):
            sigma = random_perm(rng, n)
            q1 = perm_matrix(derive_row_permutation(BitPermutation(sigma), n).images)
            assert np.array_equal(q1 @ x, x @ perm_matrix(sigma))


def test_lifted_images_examples():
    assert derive_row_permutation(BitPermutation(SIGMA2_4), 4).images[9] == 10
    assert derive_row_permutation(BitPermutation(SIGMA2_8), 8).images[99] == 165
    assert derive_row_permutation(BitPermutation.identity(4), 4).images == tuple(range(16))


def test_half_width_lifts_make_the_full_lift():
    # The removal walk lifts pi[:h] and pi[h:] and ors their entries for the
    # low h and high n - h bits of an index; that must be the full lift of pi.
    rng = random.Random(29)
    for n in range(2, 17):
        h = n // 2
        for _ in range(3):
            pi = random_perm(rng, n)
            lo, hi = core._lift(pi[:h]), core._lift(pi[h:])
            assert [lo[v & (1 << h) - 1] | hi[v >> h] for v in range(1 << n)] == core._lift(pi)


def test_derive_row_permutation_size_mismatch():
    with pytest.raises(ValueError, match="permutation size 3 != 4"):
        derive_row_permutation(BitPermutation.identity(3), 4)
    with pytest.raises(ValueError, match="permutation size 5 != 4"):
        derive_row_permutation(BitPermutation.identity(5), 4)


# ---------------------------------------------------------------------
# clone transform


def test_clone_reference_n4():
    got = clone_sbox(SBox.from_table(SEED4), BitPermutation(SIGMA1_4), BitPermutation(SIGMA2_4))
    assert list(got.table) == CLONE4


def test_clone_reference_n8():
    got = clone_sbox(SBox.from_table(AES_SBOX), BitPermutation(SIGMA1_8), BitPermutation(SIGMA2_8))
    assert list(got.table) == AES_CLONE8


def test_clone_identity_is_noop():
    seed = SBox.from_table(AES_SBOX)
    identity = BitPermutation.identity(8)
    assert clone_sbox(seed, identity, identity) == seed


def test_clone_is_built_unchecked_and_equals_a_checked_sbox(monkeypatch):
    # A clone of a validated seed is valid by construction, so clone_sbox
    # skips SBox's per-entry check; the public constructors keep it.
    rng = random.Random(31)
    cases = [(SBox.from_table(random_bijective(rng, n)), BitPermutation(random_perm(rng, n)),
              BitPermutation(random_perm(rng, n))) for n in (2, 4, 8, 16)]
    checks = []
    monkeypatch.setattr(SBox, "__post_init__", lambda self: checks.append(self))
    clones = [clone_sbox(*case) for case in cases]
    monkeypatch.undo()
    assert checks == []
    for clone in clones:
        checked = SBox(clone.n, clone.table)
        assert clone == checked and repr(clone) == repr(checked) and hash(clone) == hash(checked)
    for bad in ((0, 1, 2, 4), (0, 1, 2, -1), (0, 1, 2, 3.0), (0, 1, 2, "3")):
        with pytest.raises(ValueError, match="out of range for width 2"):
            SBox(2, bad)
        with pytest.raises(ValueError, match="out of range for width 2"):
            SBox.from_table(bad)


def test_clone_sbox_size_mismatch():
    seed, four = SBox.from_table(SEED4), BitPermutation(SIGMA1_4)
    with pytest.raises(ValueError, match="sizes 3/4 != width 4"):
        clone_sbox(seed, BitPermutation.identity(3), four)
    with pytest.raises(ValueError, match="sizes 4/5 != width 4"):
        clone_sbox(seed, four, BitPermutation.identity(5))
    # Removal rejects them too, though it builds no clone until it has a clean one.
    for sigma1, sigma2, sizes in ((BitPermutation.identity(3), four, "3/4"),
                                  (four, BitPermutation.identity(5), "4/5")):
        with pytest.raises(ValueError, match=f"sizes {sizes} != width 4"):
            clone_sbox_avoiding_fixed_points(seed, sigma1, sigma2)


def test_clone_rejects_non_bijective_seed():
    with pytest.raises(NonBijectiveError):
        clone_sbox(SBox(2, (0, 0, 1, 2)), BitPermutation.identity(2), BitPermutation.identity(2))
    # Removal reports the duplicates before the pinned fixed point at 0.
    with pytest.raises(NonBijectiveError):
        clone_sbox_avoiding_fixed_points(
            SBox(2, (0, 0, 1, 2)), BitPermutation.identity(2), BitPermutation.identity(2))


def test_clone_bijective_for_every_pair_n4():
    seed = SBox.from_table(SEED4)
    perms = [BitPermutation(p) for p in _all_perms(4)]
    seen = set()
    for s1 in perms:
        for s2 in perms:
            result = clone_sbox(seed, s1, s2)
            assert result.is_bijective()
            seen.add(result.table)
    assert len(seen) <= factorial(4) ** 2


def _all_perms(n):
    return list(itertools.permutations(range(n)))


def test_clone_matches_dense_pipeline():
    rng = random.Random(23)
    for n in (3, 4, 5):
        for _ in range(20):
            table = random_bijective(rng, n)
            s1, s2 = random_perm(rng, n), random_perm(rng, n)
            fast = clone_sbox(SBox(n, tuple(table)), BitPermutation(s1), BitPermutation(s2))
            assert list(fast.table) == dense_clone(table, s1, s2)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.permutations(range(1 << n)), st.permutations(range(n)), st.permutations(range(n)))))
def test_clone_equals_dense_pipeline_property(case):
    table, s1, s2 = case
    fast = clone_sbox(SBox.from_table(table), BitPermutation(s1), BitPermutation(s2))
    assert list(fast.table) == dense_clone(table, s1, s2)


def test_clone_composition():
    # Nesting clones composes the output-side permutations left-of and the
    # input-side permutations right-of the originals.
    rng = random.Random(29)
    for n in (3, 4, 5):
        for _ in range(30):
            seed = SBox(n, tuple(random_bijective(rng, n)))
            s1, s2, t1, t2 = (BitPermutation(random_perm(rng, n)) for _ in range(4))
            nested = clone_sbox(clone_sbox(seed, s1, s2), t1, t2)
            flat = clone_sbox(seed, BitPermutation(compose(s1.images, t1.images)),
                              BitPermutation(compose(t2.images, s2.images)))
            assert nested == flat


def test_distinct_clones_are_pairs_over_stabilizer():
    # Pairs that differ by a stabilizer element give the same clone, so a
    # seed has (n!)**2 / |Stab| distinct clones: all of them for the paper's
    # seed and AES, n! for the identity.
    assert stabilizer_size(AES_SBOX) == stabilizer_size(SEED4) == 1
    assert stabilizer_size(list(range(16))) == factorial(4)
    perms = _all_perms(3)
    rng = random.Random(37)
    for table in [list(range(8))] + [random_bijective(rng, 3) for _ in range(20)]:
        clones = {tuple(dense_clone(table, s1, s2)) for s1 in perms for s2 in perms}
        assert len(clones) * stabilizer_size(table) == factorial(3) ** 2


# ---------------------------------------------------------------------
# fixed points


def test_find_fixed_points_examples():
    identity = find_fixed_points(SBox.identity(4))
    assert identity.fixed == frozenset(range(16))
    assert identity.reverse_fixed == frozenset()

    clone4 = find_fixed_points(SBox.from_table(CLONE4))
    assert clone4.fixed == frozenset()
    assert clone4.reverse_fixed == frozenset({4})

    aes = find_fixed_points(SBox.from_table(AES_SBOX))
    assert aes.fixed == frozenset()
    assert aes.reverse_fixed == frozenset()
    assert aes.empty


def test_fixed_and_reverse_sets_disjoint():
    rng = random.Random(31)
    for n in (3, 4, 5):
        for _ in range(50):
            report = find_fixed_points(SBox(n, tuple(random_bijective(rng, n))))
            assert not report.fixed & report.reverse_fixed


# ---------------------------------------------------------------------
# fixed-point removal loop


def test_avoidance_schedule_reference(monkeypatch):
    # Attempt 0 reproduces CLONE4 (reverse fixed point at 4); the schedule
    # first succeeds at attempt 6, perturbing only the input permutation,
    # and builds only the clone it returns, from the lifts of that pair.
    seed = SBox.from_table(SEED4)
    calls, clone = [], core._clone
    monkeypatch.setattr(core, "_clone", lambda *args: calls.append(args) or clone(*args))
    result, eff1, eff2 = clone_sbox_avoiding_fixed_points(
        seed, BitPermutation(SIGMA1_4), BitPermutation(SIGMA2_4)
    )
    assert calls == [(seed, list(derive_row_permutation(eff1, 4).images), core._lift(eff2.images))]
    assert find_fixed_points(result).empty
    assert eff1.images == (0, 2, 1, 3)
    assert eff2.images == SIGMA2_4
    assert list(result.table) == [10, 11, 14, 7, 6, 15, 13, 12, 3, 2, 1, 8, 5, 4, 0, 9]
    # The effective pair regenerates the same clone through the plain path.
    assert clone_sbox(seed, eff1, eff2) == result


def test_avoidance_budget_boundaries():
    seed = SBox.from_table(SEED4)
    s1, s2 = BitPermutation(SIGMA1_4), BitPermutation(SIGMA2_4)
    with pytest.raises(RemovalExhausted):
        clone_sbox_avoiding_fixed_points(seed, s1, s2, CloneOptions(max_attempts=1))
    with pytest.raises(RemovalExhausted):
        clone_sbox_avoiding_fixed_points(seed, s1, s2, CloneOptions(max_attempts=6))
    result, _, _ = clone_sbox_avoiding_fixed_points(seed, s1, s2, CloneOptions(max_attempts=7))
    assert find_fixed_points(result).empty


def test_avoidance_returns_clean_first_attempt_unchanged():
    # This seed's identity clone is itself, which has no fixed or reverse
    # fixed points, so attempt 0 is returned as-is.
    table = tuple((i + 2) % 16 for i in range(16))
    seed = SBox(4, table)
    assert find_fixed_points(seed).empty
    identity = BitPermutation.identity(4)
    result, eff1, eff2 = clone_sbox_avoiding_fixed_points(seed, identity, identity)
    assert result == seed
    assert eff1 == identity and eff2 == identity


@pytest.mark.parametrize("index,value", [(0, 0), (0, 255), (255, 255), (255, 0)])
def test_avoidance_fails_fast_on_pinned_end_points(index, value):
    # Both end indices and both end values stay put under every clone, so
    # these seeds keep a fixed or reverse fixed point whatever the pair. The
    # n=8 walk would clone 8! times first; exhaustion must be reported at once.
    table = list(AES_SBOX)
    other = table.index(value)
    table[index], table[other] = table[other], table[index]
    seed = SBox(8, tuple(table))
    identity = BitPermutation.identity(8)
    start = time.perf_counter()
    with pytest.raises(RemovalExhausted, match=f"seed\\[{index}\\] = {value}"):
        clone_sbox_avoiding_fixed_points(seed, identity, identity)
    assert time.perf_counter() - start < 1.0


# Identity s-boxes with these entries swapped pass the end-point check yet
# have no clean clone. No n = 2 seed is like that: each of the four that
# pass has a clean clone.
UNREMOVABLE_SWAPS = {
    3: ((0, 3), (1, 2), (4, 7)),
    4: ((0, 9), (10, 15)),
    5: ((0, 12), (2, 23), (4, 15), (11, 21), (22, 31)),
}


def _unremovable(n):
    table = list(range(1 << n))
    for a, b in UNREMOVABLE_SWAPS[n]:
        table[a], table[b] = table[b], table[a]
    # The clones (p, identity) reach every composite, so every class.
    identity = tuple(range(n))
    assert all(has_fixed_point(dense_clone(table, p, identity)) for p in itertools.permutations(identity))
    return SBox(n, tuple(table))


def _must_not_clone(*args):
    raise AssertionError("an exhausted walk builds no clone")


@pytest.mark.parametrize("n", [3, 4, 5])
def test_removal_walk_covers_every_input_permutation(n, attempts, monkeypatch):
    # The default budget runs out on a seed with no clean clone; along the
    # way the walk tries each of the n! input permutations exactly once,
    # and builds no clone.
    monkeypatch.setattr(core, "_clone", _must_not_clone)
    rng = random.Random(n)
    sigma1, sigma2 = BitPermutation(random_perm(rng, n)), BitPermutation(random_perm(rng, n))
    message = f"^no clone is free of fixed points: all {factorial(n)} input permutations tried$"
    with pytest.raises(RemovalExhausted, match=message):
        clone_sbox_avoiding_fixed_points(_unremovable(n), sigma1, sigma2)
    assert len(attempts) == len(set(attempts)) == factorial(n)


def test_removal_caps_below_and_beyond_the_walk(attempts):
    seed, identity = _unremovable(3), BitPermutation.identity(3)
    for cap, count, message in ((5, 5, "^no clean clone within 5 attempts$"),
                                (6, 6, "all 6 input permutations tried$"),
                                (10 ** 30, 6, "all 6 input permutations tried$")):
        attempts.clear()
        with pytest.raises(RemovalExhausted, match=message):
            clone_sbox_avoiding_fixed_points(seed, identity, identity, CloneOptions(cap))
        assert len(attempts) == len(set(attempts)) == count


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.permutations(range(1 << n)), st.permutations(range(n)), st.permutations(range(n)))))
def test_first_attempt_is_decided_by_the_composite(case):
    # Attempt 0 decides the requested pair from the lifted composite alone;
    # it must agree with building that clone and looking for fixed points.
    table, s1, s2 = case
    assume({table[0], table[-1]}.isdisjoint({0, len(table) - 1}))
    seed, sigma1, sigma2 = SBox.from_table(table), BitPermutation(s1), BitPermutation(s2)
    clone, opts = clone_sbox(seed, sigma1, sigma2), CloneOptions(max_attempts=1)
    if find_fixed_points(clone).empty:
        assert clone_sbox_avoiding_fixed_points(seed, sigma1, sigma2, opts) == (clone, sigma1, sigma2)
    else:
        with pytest.raises(RemovalExhausted, match="^no clean clone within 1 attempts$"):
            clone_sbox_avoiding_fixed_points(seed, sigma1, sigma2, opts)


def test_removal_walk_matches_full_schedule_oracle():
    # The oracle replays all (n!)**2 pairs of the two-sided schedule with
    # dense clones. The walk must return its first clean pair, and give up
    # exactly when no pair of the whole schedule is clean.
    rng = random.Random(0)
    outcomes = set()
    for n, count in ((3, 600), (4, 40)):
        for _ in range(count):
            table = random_bijective(rng, n)
            s1, s2 = random_perm(rng, n), random_perm(rng, n)
            expected = first_clean_pair(table, s1, s2)
            try:
                clone, eff1, eff2 = clone_sbox_avoiding_fixed_points(
                    SBox(n, tuple(table)), BitPermutation(s1), BitPermutation(s2))
            except RemovalExhausted as exc:
                assert expected is None
                pinned = {table[0], table[-1]} & {0, len(table) - 1}
                outcomes.add("pinned" if pinned else "walked")
                assert str(exc).startswith("seed[") == bool(pinned)
                continue
            assert (list(clone.table), eff1.images, eff2.images) == expected
            outcomes.add("clean")
    assert outcomes == {"clean", "pinned", "walked"}


def test_clone_options_validation():
    with pytest.raises(ValueError):
        CloneOptions(max_attempts=0)
