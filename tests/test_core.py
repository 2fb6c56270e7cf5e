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
    FixedPointReport,
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
    identity_permutation,
    identity_sbox,
    inverse,
    perm_matrix,
    random_bijective,
    random_perm,
    removal_walk_by_lift,
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


def test_bit_permutation_rejects_bool_images():
    # (True, False) sorts equal to [0, 1], but the CLI would print it as True,False.
    for bad in ((True, False), (1, False), (0, True, 2)):
        with pytest.raises(ValueError, match="is not a permutation"):
            BitPermutation(bad)
    assert BitPermutation((1, 0)).images == (1, 0)


def test_sbox_rejects_bool_entries():
    # A bool passes isinstance(v, int), but serialize_sbox would write it as
    # True or False, which parse_sbox_text rejects: no round trip.
    for bad in ((True, False, 2, 3), (0, 1, 2, True), (False,) * 4):
        with pytest.raises(ValueError, match="out of range for width 2"):
            SBox(2, bad)
        with pytest.raises(ValueError, match="out of range for width 2"):
            SBox.from_table(bad)
    assert SBox(2, (1, 0, 2, 3)).table == (1, 0, 2, 3)


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
    assert derive_row_permutation(identity_permutation(5), 5) == identity_permutation(32)
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
    assert derive_row_permutation(identity_permutation(4), 4).images == tuple(range(16))


def _lift_by_lists(images):
    """The lift as the list it was built as before it was bytes at n <= 8."""
    table = [0]
    for image in images:
        table += [v | 1 << image for v in table]
    return table


@pytest.mark.parametrize("n", range(1, 17))
def test_lift_equals_the_list_form(n):
    # Whole permutations of every width, and the half-width images that the
    # lift-and-scan walk lifts (tests/oracles.removal_walk_by_lift): their
    # positions run up to n - 1, so a half of width at most 8 is bytes only
    # when every image is below 8.
    rng = random.Random(n)
    images = [tuple(random_perm(rng, n)) for _ in range(4)] + [tuple(range(n))]
    halves = [pi[:n // 2] for pi in images] + [pi[n // 2:] for pi in images]
    for case in images + halves:
        lifted = core._lift(case)
        assert list(lifted) == _lift_by_lists(case)
        assert isinstance(lifted, bytes) == (max(case, default=0) < 8)


def test_base_planes_are_the_seeds_relabelled_coordinates():
    # The removal walk reads plane sigma1[sigma2[j]] of base = L_sigma1 L_sigma2 seed
    # off the seed's coordinate bitset j, lifting nothing; that must be base's own plane.
    rng = random.Random(29)
    for n in range(2, 17):
        seed = SBox(n, tuple(random_bijective(rng, n)))
        s1, s2 = random_perm(rng, n), random_perm(rng, n)
        lift1, lift2 = core._lift(s1), core._lift(s2)
        planes = core._coordinates(SBox(n, tuple(lift1[lift2[v]] for v in seed.table)))
        assert [planes[s1[s2[j]]] for j in range(n)] == list(core._coordinates(seed))


def test_derive_row_permutation_size_mismatch():
    with pytest.raises(ValueError, match="permutation size 3 != 4"):
        derive_row_permutation(identity_permutation(3), 4)
    with pytest.raises(ValueError, match="permutation size 5 != 4"):
        derive_row_permutation(identity_permutation(5), 4)


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
    identity = identity_permutation(8)
    assert clone_sbox(seed, identity, identity) == seed


def test_clone_is_built_unchecked_and_equals_a_checked_sbox(monkeypatch):
    # A clone of a validated seed is valid by construction, so clone_sbox
    # skips SBox's per-entry check; the public constructors keep it.
    rng = random.Random(31)
    cases = [(SBox.from_table(random_bijective(rng, n)), BitPermutation(random_perm(rng, n)),
              BitPermutation(random_perm(rng, n))) for n in (2, 4, 8, 16)]
    checks = []
    monkeypatch.setattr(SBox, "__init__", lambda self, *args: checks.append(self))
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
        clone_sbox(seed, identity_permutation(3), four)
    with pytest.raises(ValueError, match="sizes 4/5 != width 4"):
        clone_sbox(seed, four, identity_permutation(5))
    # Removal rejects them too, though it builds no clone until it has a clean one.
    for sigma1, sigma2, sizes in ((identity_permutation(3), four, "3/4"),
                                  (four, identity_permutation(5), "4/5")):
        with pytest.raises(ValueError, match=f"sizes {sizes} != width 4"):
            clone_sbox_avoiding_fixed_points(seed, sigma1, sigma2)


def test_clone_rejects_non_bijective_seed():
    with pytest.raises(NonBijectiveError):
        clone_sbox(SBox(2, (0, 0, 1, 2)), identity_permutation(2), identity_permutation(2))
    # Removal reports the duplicates before the pinned fixed point at 0.
    with pytest.raises(NonBijectiveError):
        clone_sbox_avoiding_fixed_points(
            SBox(2, (0, 0, 1, 2)), identity_permutation(2), identity_permutation(2))


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
    # n = 8 is the widest clone of two bytes.translate calls, n = 9 the
    # narrowest gather.
    rng = random.Random(23)
    for n in (3, 4, 5, 8, 9):
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
    identity = find_fixed_points(identity_sbox(4))
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


def _coordinates_by_loop(table, n):
    """Coordinate j as one int read off a bit string, entry x giving bit x."""
    return tuple(int("".join(str(v >> j & 1) for v in reversed(table)), 2) for j in range(n))


def _fixed_points_by_loop(table):
    top = len(table) - 1
    return FixedPointReport(frozenset(x for x, v in enumerate(table) if v == x),
                            frozenset(x for x, v in enumerate(table) if v == top - x))


@pytest.mark.parametrize("n", range(2, 17))
def test_planes_equal_per_entry_loops(n):
    # _coordinates reads one transpose of a table and find_fixed_points the
    # set bits of its two _masks; each equals a loop over the entries, on a
    # random bijection, a random table with repeats, the identity (every
    # point fixed) and its complement (every point reverse fixed). A batch
    # of them gives each table what it gives alone, its coordinates and its
    # fixed-point counts: at n = 2 a table is half a byte of each plane,
    # above n = 8 its entries take two bytes, and from n = 7 a table's
    # stretch of a mask is more than one 8-byte word.
    rng = random.Random(n)
    size = 1 << n
    tables = [random_bijective(rng, n), [rng.randrange(size) for _ in range(size)],
              list(range(size)), [size - 1 - x for x in range(size)]]
    points = [_fixed_points_by_loop(table) for table in tables]
    for table, expected in zip(tables, points):
        s = SBox(n, tuple(table))
        assert core._coordinates(s) == _coordinates_by_loop(table, n)
        assert find_fixed_points(s) == expected
    planes = core._planes(tables, n)
    assert core._split(planes) == [_coordinates_by_loop(table, n) for table in tables]
    assert core._fixed_counts(planes) == ([len(p.fixed) for p in points],
                                          [len(p.reverse_fixed) for p in points])
    assert core._split(core._planes([], n)) == []
    assert core._fixed_counts(core._planes([], n)) == ([], [])


# ---------------------------------------------------------------------
# fixed-point removal loop


def test_avoidance_schedule_reference(monkeypatch):
    # Attempt 0 reproduces CLONE4 (reverse fixed point at 4); the schedule
    # first succeeds at attempt 6, perturbing only the input permutation,
    # and builds only the clone it returns: one table, the seed's, gathered
    # by eff1's lift and mapped through sigma2's.
    seed = SBox.from_table(SEED4)
    calls, clone = [], core._clone
    monkeypatch.setattr(core, "_clone", lambda *args: calls.append(args) or clone(*args))
    result, eff1, eff2 = clone_sbox_avoiding_fixed_points(
        seed, BitPermutation(SIGMA1_4), BitPermutation(SIGMA2_4)
    )
    assert [(table, [(list(rows), list(out)) for rows, out in lifts]) for table, lifts in calls] == [
        (seed.table, [(list(derive_row_permutation(eff1, 4).images), list(core._lift(eff2.images)))])]
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
        clone_sbox_avoiding_fixed_points(seed, s1, s2, max_attempts=1)
    with pytest.raises(RemovalExhausted):
        clone_sbox_avoiding_fixed_points(seed, s1, s2, max_attempts=6)
    result, _, _ = clone_sbox_avoiding_fixed_points(seed, s1, s2, max_attempts=7)
    assert find_fixed_points(result).empty


def test_avoidance_returns_clean_first_attempt_unchanged():
    # This seed's identity clone is itself, which has no fixed or reverse
    # fixed points, so attempt 0 is returned as-is.
    table = tuple((i + 2) % 16 for i in range(16))
    seed = SBox(4, table)
    assert find_fixed_points(seed).empty
    identity = identity_permutation(4)
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
    identity = identity_permutation(8)
    start = time.perf_counter()
    with pytest.raises(RemovalExhausted, match=f"seed\\[{index}\\] = {value}"):
        clone_sbox_avoiding_fixed_points(seed, identity, identity)
    assert time.perf_counter() - start < 1.0


def test_avoidance_checks_sizes_before_end_points():
    # The identity seed pins both end points, but a permutation of the wrong
    # size is the caller's error, reported as clone_sbox reports it.
    seed, three, four = identity_sbox(4), identity_permutation(3), identity_permutation(4)
    for sigma1, sigma2 in ((three, four), (four, three)):
        with pytest.raises(ValueError) as plain:
            clone_sbox(seed, sigma1, sigma2)
        with pytest.raises(ValueError) as avoiding:
            clone_sbox_avoiding_fixed_points(seed, sigma1, sigma2)
        assert str(avoiding.value) == str(plain.value)


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
    seed, identity = _unremovable(3), identity_permutation(3)
    for cap, count, message in ((5, 5, "^no clean clone within 5 attempts$"),
                                (6, 6, "all 6 input permutations tried$"),
                                (10 ** 30, 6, "all 6 input permutations tried$")):
        attempts.clear()
        with pytest.raises(RemovalExhausted, match=message):
            clone_sbox_avoiding_fixed_points(seed, identity, identity, cap)
        assert len(attempts) == len(set(attempts)) == count


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.permutations(range(1 << n)), st.permutations(range(n)), st.permutations(range(n)))))
def test_first_attempt_is_decided_by_the_composite(case):
    # Attempt 0 decides the requested pair on the seed's planes alone;
    # it must agree with building that clone and looking for fixed points.
    table, s1, s2 = case
    assume({table[0], table[-1]}.isdisjoint({0, len(table) - 1}))
    seed, sigma1, sigma2 = SBox.from_table(table), BitPermutation(s1), BitPermutation(s2)
    clone = clone_sbox(seed, sigma1, sigma2)
    if find_fixed_points(clone).empty:
        assert clone_sbox_avoiding_fixed_points(seed, sigma1, sigma2, 1) == (clone, sigma1, sigma2)
    else:
        with pytest.raises(RemovalExhausted, match="^no clean clone within 1 attempts$"):
            clone_sbox_avoiding_fixed_points(seed, sigma1, sigma2, 1)


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


def _removal_outcome(walk, *args):
    try:
        clone, eff1, eff2 = walk(*args)
    except RemovalExhausted as exc:
        return str(exc)
    return clone.table, eff1.images, eff2.images


def _near_identity(rng, n, count):
    """The identity with both end points swapped away, then `count` random swaps."""
    size = 1 << n
    table = list(range(size))
    swaps = [(0, rng.randrange(1, size - 1)), (size - 1, rng.randrange(1, size - 1))]
    swaps += [(rng.randrange(size), rng.randrange(size)) for _ in range(count)]
    for a, b in swaps:
        table[a], table[b] = table[b], table[a]
    return table


@st.composite
def _removal_cases(draw):
    """Random and near-identity seeds at n = 2..10 with random pairs and caps; the
    whole walk (cap None) only up to n = 7, where the reference is quick."""
    n = draw(st.integers(2, 10))
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        table = _near_identity(rng, n, draw(st.integers(0, 3)))
    else:
        table = random_bijective(rng, n)
    caps = st.integers(1, 300)
    cap = draw(st.one_of(st.none(), caps) if n <= 7 else caps)
    return (SBox(n, tuple(table)), BitPermutation(random_perm(rng, n)),
            BitPermutation(random_perm(rng, n)), cap)


@settings(max_examples=200, deadline=None)
@given(_removal_cases())
def test_removal_walk_matches_the_lift_and_scan_walk(case):
    # Same clone and effective pair, or the same RemovalExhausted message.
    assert (_removal_outcome(clone_sbox_avoiding_fixed_points, *case)
            == _removal_outcome(removal_walk_by_lift, *case))


@pytest.mark.parametrize("n", [12, 16])
def test_removal_on_the_widest_planes(n):
    # Planes of 2**12 and 2**16 bits. Random seeds find their first clean clone
    # after some attempts; that clone, taken as a seed, is clean at attempt 0;
    # a near-identity seed runs out of its capped walk. The reference agrees.
    rng = random.Random(n)
    identity = identity_permutation(n)
    cases = []
    while len(cases) < 3:
        table = random_bijective(rng, n)
        if not {table[0], table[-1]} & {0, len(table) - 1}:
            cases.append((SBox(n, tuple(table)), BitPermutation(random_perm(rng, n)),
                          BitPermutation(random_perm(rng, n)), 10_000))
    for seed, sigma1, sigma2, cap in cases:
        clone, eff1, eff2 = clone_sbox_avoiding_fixed_points(seed, sigma1, sigma2, cap)
        assert eff1 != sigma1 and eff2 == sigma2
        assert find_fixed_points(clone).empty and clone == clone_sbox(seed, eff1, eff2)
        assert clone_sbox_avoiding_fixed_points(clone, identity, identity, 1) == (clone, identity, identity)
    cases.append((SBox(n, tuple(_near_identity(rng, n, 2))), identity, identity, 200))
    for case in cases:
        assert (_removal_outcome(clone_sbox_avoiding_fixed_points, *case)
                == _removal_outcome(removal_walk_by_lift, *case))
    assert _removal_outcome(removal_walk_by_lift, *cases[-1]) == "no clean clone within 200 attempts"


def test_removal_rejects_max_attempts_below_one():
    seed, s1, s2 = SBox.from_table(SEED4), BitPermutation(SIGMA1_4), BitPermutation(SIGMA2_4)
    with pytest.raises(ValueError, match="^max_attempts must be >= 1$"):
        clone_sbox_avoiding_fixed_points(seed, s1, s2, max_attempts=0)
