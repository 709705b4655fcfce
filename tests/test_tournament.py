import copy
import hashlib
import math
import pickle
from collections import Counter

import pytest

from bigrassmannian.errors import BoundExceeded, NotTransitive
from bigrassmannian.permstat import Permutation, beta, enumerate_sn, length
from bigrassmannian.tournament import (
    Tournament,
    c_involution,
    enumerate_tn,
    find_cycles,
    from_transitive,
    is_cycle,
    is_transitive,
    outdegree,
    outdegrees,
    perfect_matching,
    statistic_counts,
    t_beta,
    t_length,
    to_tournament,
    transitive_degrees,
    triples,
)


def test_enumeration_counts():
    assert len(list(enumerate_tn(1))) == 1
    assert len(list(enumerate_tn(3))) == 8
    assert len(list(enumerate_tn(4))) == 64
    with pytest.raises(BoundExceeded, match="^T_8 enumeration above bound 7$"):
        list(enumerate_tn(8))


def test_cyclic_tournaments_in_t3():
    assert sum(1 for g in enumerate_tn(3) if find_cycles(g)) == 2
    for g in enumerate_tn(3):
        assert is_transitive(g) == (not find_cycles(g))


def test_three_cycle_statistics():
    # 1->2->3->1: only the edge 3->1 is an inversion
    g = Tournament.from_bit_string(3, "010")
    assert t_length(g) == 1
    assert t_beta(g) == 2
    assert find_cycles(g) == [((1, 2, 3), -1)]
    assert outdegrees(g) == (1, 1, 1)


def test_identity_tournament():
    g = to_tournament(Permutation.identity(4))
    assert g.bits == 0
    assert t_length(g) == 0 and t_beta(g) == 0
    assert outdegrees(g) == (3, 2, 1, 0)


def test_outdegree_sum():
    for g in enumerate_tn(4):
        assert sum(outdegree(g, v) for v in range(1, 5)) == 6
        assert outdegrees(g) == tuple(outdegree(g, v) for v in range(1, 5))


def test_c_involution_on_cycle():
    g = Tournament.from_bit_string(3, "010")
    flipped = c_involution(g, 1, 2, 3)
    assert t_length(flipped) == 2
    assert t_beta(flipped) == 2
    assert find_cycles(flipped) == [((1, 2, 3), 1)]
    assert c_involution(flipped, 1, 2, 3) == g


def test_c_involution_identity_on_non_cycle():
    g = to_tournament(Permutation.identity(4))
    assert c_involution(g, 1, 2, 4) == g


@pytest.mark.parametrize("n", [4, 5])
def test_c_involution_squares_to_identity(n):
    for g in enumerate_tn(n):
        for t in triples(n):
            assert c_involution(c_involution(g, *t), *t) == g


@pytest.mark.parametrize("n", [4, 5])
def test_c_involution_preserves_beta_and_outdegrees(n):
    for g in enumerate_tn(n):
        for t in triples(n):
            h = c_involution(g, *t)
            if h != g:
                assert t_beta(h) == t_beta(g)
                assert outdegrees(h) == outdegrees(g)
                assert abs(t_length(h) - t_length(g)) == 1


def test_bijection_with_permutations():
    for n in range(1, 6):
        seen = set()
        for w in enumerate_sn(n):
            g = to_tournament(w)
            assert t_length(g) == length(w)
            assert t_beta(g) == beta(w)
            assert from_transitive(g) == w
            seen.add(g.bits)
        assert len(seen) == math.factorial(n)


def test_inversion_sets_map_bit_for_bit():
    from bigrassmannian.permstat import inversions
    for w in enumerate_sn(4):
        g = to_tournament(w)
        assert {(i, j) for (i, j) in inversions(w)} == {
            (i, j) for i in range(1, 5) for j in range(i + 1, 5)
            if g.inverted(i, j)}


def test_from_transitive_rejects_cycles():
    g = Tournament.from_bit_string(3, "010")
    with pytest.raises(NotTransitive):
        from_transitive(g)


def test_round_trip_3412():
    w = Permutation.parse("3412")
    assert from_transitive(to_tournament(w)) == w


def test_serialization_round_trip():
    for n in range(1, 6):
        m = n * (n - 1) // 2
        for g in enumerate_tn(n):
            text = g.to_bit_string()
            # character r is bit r
            assert [int(ch) for ch in text] == [g.bits >> r & 1 for r in range(m)]
            assert Tournament.from_bit_string(n, text) == g


def test_bit_strings_of_the_empty_table():
    for n in (0, 1):
        assert Tournament(n, 0).to_bit_string() == ""
        assert Tournament.from_bit_string(n, "") == Tournament(n, 0)
    assert Tournament.from_bit_string(4, "100000").bits == 1
    assert Tournament.from_bit_string(4, "000001").bits == 1 << 5
    for n, text in ((1, "0"), (3, "01"), (3, "0101"), (3, "0 1"), (3, "+01"),
                    (4, "0_0001")):
        with pytest.raises(ValueError):
            Tournament.from_bit_string(n, text)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_perfect_matching_properties(n):
    pairs = perfect_matching(n)
    expected = (2 ** (n * (n - 1) // 2) - math.factorial(n)) // 2
    assert len(pairs) == expected
    seen = set()
    for a, b in pairs:
        assert t_beta(a) == t_beta(b)
        assert (t_length(a) - t_length(b)) % 2 == 1
        assert not is_transitive(a) and not is_transitive(b)
        # partners differ by one reversed 3-cycle
        assert bin(a.bits ^ b.bits).count("1") == 3
        seen.update((a.bits, b.bits))
    assert len(seen) == 2 * expected


def test_perfect_matching_n3_is_the_cyclic_pair():
    pairs = perfect_matching(3)
    assert len(pairs) == 1
    a, b = pairs[0]
    assert {a.bits, b.bits} == {
        g.bits for g in enumerate_tn(3) if not is_transitive(g)}


def test_perfect_matching_deterministic():
    first = [(a.bits, b.bits) for a, b in perfect_matching(4)]
    second = [(a.bits, b.bits) for a, b in perfect_matching(4)]
    assert first == second


# sha256 of repr([(a.bits, b.bits) for a, b in perfect_matching(n)]), taken
# when each triple's cyclic tables were still found by a scan of all 2^m
MATCHING_SHA256 = {
    5: (452, "c919e586200701080fbf0c5d0758e2c12f3bee3d115787ac9f58ac2e2ba4b3de"),
    6: (16024, "bf05e94a7509303788ec392739a8e289b94bc45c3f499e9eba2a241d230d6777"),
}


@pytest.mark.parametrize("n", sorted(MATCHING_SHA256))
def test_perfect_matching_pinned(n):
    pairs = [(a.bits, b.bits) for a, b in perfect_matching(n)]
    size, digest = MATCHING_SHA256[n]
    assert len(pairs) == size
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == digest


# -- bit-table statistics against the per-bit reference ------------------------
#
# The reference functions below read the bit table one bit at a time, the
# way the statistics were first computed; the module reads it with masks
# and popcounts, and the two must agree on every tournament.

def ref_inverted(g, i, j):
    r = [(a, b) for a in range(1, g.n + 1)
         for b in range(a + 1, g.n + 1)].index((i, j))
    return bool(g.bits >> r & 1)


def ref_t_length(g):
    return bin(g.bits).count("1")


def ref_t_beta(g):
    return sum(j - i for i in range(1, g.n + 1) for j in range(i + 1, g.n + 1)
               if ref_inverted(g, i, j))


def ref_outdegrees(g):
    degs = [0] * (g.n + 1)
    for i in range(1, g.n + 1):
        for j in range(i + 1, g.n + 1):
            degs[j if ref_inverted(g, i, j) else i] += 1
    return tuple(degs[1:])


def ref_is_cycle(g, i, j, k):
    dij, djk, dik = (ref_inverted(g, i, j), ref_inverted(g, j, k),
                     ref_inverted(g, i, k))
    if dij == djk and dik != dij:
        return 1 if dij else -1
    return 0


def ref_find_cycles(g):
    return [(t, ref_is_cycle(g, *t)) for t in triples(g.n)
            if ref_is_cycle(g, *t)]


def ref_is_transitive(g):
    return sorted(ref_outdegrees(g)) == list(range(g.n))


def ref_perfect_matching(n):
    """Greedy stage per triple, then augmenting paths; moves listed per bits."""
    tmasks = [(t, sum(1 << _rank(n, p) for p in _pairs_of(t)))
              for t in triples(n)]
    moves = {}
    for bits in range(1 << (n * (n - 1) // 2)):
        g = Tournament(n, bits)
        found = [bits ^ mask for t, mask in tmasks if ref_is_cycle(g, *t)]
        if found:
            moves[bits] = found
    partner = {}
    for _, mask in tmasks:
        for bits, ms in moves.items():
            other = bits ^ mask
            if bits in partner or other not in ms or other in partner:
                continue
            partner[bits], partner[other] = other, bits
    for bits in sorted(moves):
        if bits in partner:
            continue
        prev, queue, end = {bits: None}, [bits], None
        while queue and end is None:
            x = queue.pop(0)
            for v in moves[x]:
                if v in prev:
                    continue
                prev[v] = x
                if v not in partner:
                    end = v
                    break
                if partner[v] not in prev:
                    prev[partner[v]] = v
                    queue.append(partner[v])
        v = end
        while v is not None:
            x = prev[v]
            partner[v], partner[x] = x, v
            v = prev[x]
    return sorted((b, o) for b, o in partner.items() if b < o)


def _pairs_of(t):
    i, j, k = t
    return {(i, j), (j, k), (i, k)}


def _rank(n, p):
    return [(a, b) for a in range(1, n + 1)
            for b in range(a + 1, n + 1)].index(p)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_statistics_match_per_bit_reference(n):
    for g in enumerate_tn(n):
        assert t_length(g) == ref_t_length(g)
        assert t_beta(g) == ref_t_beta(g)
        assert outdegrees(g) == ref_outdegrees(g)
        assert [outdegree(g, v) for v in range(1, n + 1)] == list(outdegrees(g))
        assert find_cycles(g) == ref_find_cycles(g)
        assert is_transitive(g) == ref_is_transitive(g)
        for t in triples(n):
            assert is_cycle(g, *t) == ref_is_cycle(g, *t)


def test_outdegrees_and_beta_match_reference_at_n6():
    # the reference with its pair ranks precomputed, for speed
    pairs = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    for g in enumerate_tn(6):
        degs = [0] * 7
        beta_ = 0
        for r, (i, j) in enumerate(pairs):
            if g.bits >> r & 1:
                degs[j] += 1
                beta_ += j - i
            else:
                degs[i] += 1
        assert outdegrees(g) == tuple(degs[1:])
        assert t_beta(g) == beta_


@pytest.mark.parametrize("n", [3, 4, 5])
def test_perfect_matching_equals_reference_pairs(n):
    assert [(a.bits, b.bits) for a, b in perfect_matching(n)] == (
        ref_perfect_matching(n))


def test_perfect_matching_n6_properties():
    pairs = perfect_matching(6)
    expected = (2 ** 15 - math.factorial(6)) // 2
    assert len(pairs) == expected
    assert [a.bits for a, _ in pairs] == sorted(a.bits for a, _ in pairs)
    seen = set()
    for a, b in pairs:
        assert a.bits < b.bits
        # one reversed 3-cycle: the flipped pairs form a cyclic triple of a
        flipped = pairs_of_bits(6, a.bits ^ b.bits)
        assert len(flipped) == 3
        t = tuple(sorted({v for p in flipped for v in p}))
        assert len(t) == 3 and is_cycle(a, *t) == -is_cycle(b, *t) != 0
        assert c_involution(a, *t) == b
        assert t_beta(a) == t_beta(b)
        assert abs(t_length(a) - t_length(b)) == 1
        seen.update((a.bits, b.bits))
    transitive = {g.bits for g in enumerate_tn(6) if is_transitive(g)}
    assert len(transitive) == math.factorial(6)
    assert seen == set(range(2 ** 15)) - transitive


def pairs_of_bits(n, bits):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return [p for r, p in enumerate(pairs) if bits >> r & 1]


def test_outdegree_rejects_vertices_outside_the_tournament():
    g = Tournament.from_bit_string(3, "010")
    for v in (0, 4, -1):
        with pytest.raises(ValueError):
            outdegree(g, v)


# -- statistic_counts: the meet-in-the-middle table ----------------------------

def test_statistics_add_over_disjoint_bit_tables():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def disjoint_tables(draw):
        n = draw(st.integers(0, 7))
        m = n * (n - 1) // 2
        union = draw(st.integers(0, (1 << m) - 1))
        a = draw(st.integers(0, (1 << m) - 1)) & union
        return n, a, union & ~a

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(disjoint_tables())
    def check(case):
        n, a, b = case
        ga, gb, gab, empty = (Tournament(n, a), Tournament(n, b),
                              Tournament(n, a | b), Tournament(n, 0))
        assert t_length(gab) == t_length(ga) + t_length(gb)
        assert t_beta(gab) == t_beta(ga) + t_beta(gb)
        assert outdegrees(gab) == tuple(
            x + y - z for x, y, z in
            zip(outdegrees(ga), outdegrees(gb), outdegrees(empty)))

    check()


@pytest.mark.parametrize("n", range(7))
def test_statistic_counts_total_every_tournament(n):
    counts = statistic_counts(n)
    assert sum(counts.values()) == 2 ** (n * (n - 1) // 2)
    assert sum(c for (_, _, degs), c in counts.items()
               if transitive_degrees(degs)) == math.factorial(n)


@pytest.mark.parametrize("n", range(6))
def test_statistic_counts_match_enumeration(n):
    expected = Counter((t_beta(g), t_length(g), outdegrees(g))
                       for g in enumerate_tn(n))
    assert statistic_counts(n) == dict(expected)


def test_statistic_counts_distinct_triples_at_n6():
    counts = statistic_counts(6)
    assert len(counts) == 8072
    # the all-inverted tournament: largest beta and length, reversed degrees
    assert counts[(math.comb(7, 3), 15, (0, 1, 2, 3, 4, 5))] == 1
    assert counts[(0, 0, (5, 4, 3, 2, 1, 0))] == 1


@pytest.mark.parametrize("n", [-1, -2, -10])
def test_negative_sizes_raise_one_error(n):
    message = f"^size must be nonnegative, got {n}$"
    # enumerate_tn raises at the call, before a tournament is asked for
    for make in (enumerate_tn, statistic_counts, lambda n: Tournament(n, 0)):
        with pytest.raises(ValueError, match=message):
            make(n)
    assert list(enumerate_tn(0)) == [Tournament(0, 0)]
    assert statistic_counts(0) == {(0, 0, ()): 1}


def test_transitive_degrees():
    assert transitive_degrees(())
    assert transitive_degrees((0,))
    assert transitive_degrees((2, 0, 1))
    assert not transitive_degrees((1, 1, 1))
    assert not transitive_degrees((2, 2, 1, 1))


def test_tournament_pickles_and_copies():
    for g in (Tournament(3, 5), Tournament(0, 0), Tournament(5, 0b1011001101)):
        for h in (pickle.loads(pickle.dumps(g)), copy.copy(g),
                  copy.deepcopy(g)):
            assert h == g and hash(h) == hash(g)
            assert (h.n, h.bits) == (g.n, g.bits)
            with pytest.raises(AttributeError):
                h.bits = 0
