import copy
import math
import pickle
import random
from bisect import insort

import pytest

from bigrassmannian.errors import SizeMismatch
from bigrassmannian.permstat import (
    Permutation,
    all_bigrassmannians,
    beta,
    bigrassmannians_below,
    bruhat_leq,
    compose,
    descents,
    enumerate_sn,
    inverse,
    inversions,
    is_bigrassmannian,
    length,
    length_and_beta,
    rothe_diagram,
)

# (word, length, beta) over the whole of S_4
S4_TABLE = [
    ("1234", 0, 0), ("2134", 1, 1), ("3124", 2, 3), ("4123", 3, 6),
    ("1243", 1, 1), ("2143", 2, 2), ("3142", 3, 5), ("4132", 4, 7),
    ("1324", 1, 1), ("2314", 2, 3), ("3214", 3, 4), ("4213", 4, 7),
    ("1342", 2, 3), ("2341", 3, 6), ("3241", 4, 7), ("4231", 5, 9),
    ("1423", 2, 3), ("2413", 3, 5), ("3412", 4, 8), ("4312", 5, 9),
    ("1432", 3, 4), ("2431", 4, 7), ("3421", 5, 9), ("4321", 6, 10),
]


@pytest.mark.parametrize("word,ell,bet", S4_TABLE)
def test_s4_table(word, ell, bet):
    w = Permutation.parse(word)
    assert length(w) == ell
    assert beta(w) == bet
    assert length_and_beta(w) == (ell, bet)


def test_beta_worked_example():
    # 3412: inversions (1,3),(2,3),(1,4),(2,4) give 2+1+3+2 = 8
    w = Permutation.parse("3412")
    assert beta(w) == 8
    assert inversions(w) == frozenset({(1, 3), (2, 3), (1, 4), (2, 4)})


def test_beta_maximum_is_tetrahedral():
    for n in range(2, 7):
        top = Permutation(range(n, 0, -1))
        assert beta(top) == math.comb(n + 1, 3)
        assert max(beta(w) for w in enumerate_sn(n)) == math.comb(n + 1, 3)


def test_length_counts_inversions():
    assert length(Permutation.parse("1234")) == 0
    assert length(Permutation.parse("4321")) == 6
    for w in enumerate_sn(4):
        assert length(w) == len(inversions(w))


def test_is_bigrassmannian():
    assert is_bigrassmannian(Permutation.parse("1324"))
    assert not is_bigrassmannian(Permutation.identity(4))
    assert len(all_bigrassmannians(4)) == 10


def test_descents():
    assert descents(Permutation.parse("3412")) == [2]
    assert descents(Permutation.identity(5)) == []


def test_bruhat_reflexive_and_examples():
    w = Permutation.parse("2341")
    assert bruhat_leq(w, w)
    assert bruhat_leq(Permutation.parse("2134"), w)
    assert not bruhat_leq(Permutation.parse("4123"), w)


def test_bruhat_size_mismatch():
    with pytest.raises(SizeMismatch):
        bruhat_leq(Permutation.identity(3), Permutation.identity(4))
    # also once both keys are built
    u, w = Permutation.identity(3), Permutation.identity(4)
    assert bruhat_leq(u, u) and bruhat_leq(w, w)
    with pytest.raises(SizeMismatch):
        bruhat_leq(u, w)


def prefix_leq(u, w):
    """The sorted-prefix dominance loop, the reference for bruhat_leq."""
    un: list[int] = []
    wn: list[int] = []
    for k in range(u.n - 1):
        insort(un, u.word[k])
        insort(wn, w.word[k])
        for a, b in zip(un, wn):
            if a > b:
                return False
    return True


@pytest.mark.parametrize("n", range(7))
def test_bruhat_equals_prefix_criterion_on_every_pair(n):
    perms = list(enumerate_sn(n))
    assert all(bruhat_leq(u, w) == prefix_leq(u, w)
               for u in perms for w in perms)


def _descend(w: Permutation, steps: int, rng: random.Random) -> Permutation:
    """w with `steps` inversions undone, one swap each: below w in Bruhat
    order."""
    word = list(w.word)
    for _ in range(steps):
        i, j = sorted(rng.sample(range(len(word)), 2))
        if word[i] > word[j]:
            word[i], word[j] = word[j], word[i]
    return Permutation(word)


# 9, 17 and 33 are the first sizes with a wider field (n - 1 a power of 2)
@pytest.mark.parametrize("n", [7, 9, 16, 17, 20, 33])
def test_bruhat_equals_prefix_criterion_on_random_pairs(n):
    rng = random.Random(2300 + n)
    pairs = []
    for _ in range(300):
        w = Permutation(rng.sample(range(1, n + 1), n))
        u = _descend(w, rng.randrange(1, 2 * n), rng)
        v = Permutation(rng.sample(range(1, n + 1), n))
        pairs += [(u, w), (w, u), (v, w), (w, w)]
    # words ending in 1 fill a field to n - 1, the largest value it holds
    top = Permutation(range(n, 0, -1))
    cycle = Permutation([*range(2, n + 1), 1])
    pairs += [(top, top), (cycle, cycle), (cycle, top), (top, cycle),
              (w, top), (top, w)]
    answers = [bruhat_leq(a, b) for a, b in pairs]
    assert answers == [prefix_leq(a, b) for a, b in pairs]
    assert True in answers and False in answers


def test_bruhat_keys_kept_on_objects_answer_as_fresh_copies():
    rng = random.Random(23)
    for n in (5, 9, 17):
        perms = [Permutation(rng.sample(range(1, n + 1), n)) for _ in range(12)]
        perms += [_descend(w, 3, rng) for w in perms]
        for u in perms:
            for w in perms:
                first = bruhat_leq(u, w)
                assert first == prefix_leq(u, w)
                # keys now cached on u and w; copies start without one
                assert bruhat_leq(u, w) == first
                assert bruhat_leq(Permutation(u.word), Permutation(w.word)) == first
                assert bruhat_leq(w, u) == bruhat_leq(
                    Permutation(w.word), Permutation(u.word))


def test_cached_key_leaves_the_value_unchanged():
    w = Permutation.parse("35241")
    fresh = Permutation.parse("35241")
    assert bruhat_leq(Permutation.identity(5), w)
    assert w == fresh and hash(w) == hash(fresh) and repr(w) == repr(fresh)
    assert not w < fresh and not fresh < w
    for name, value in (("word", (1, 2, 3, 4, 5)), ("_rank", 0), ("n", 5)):
        with pytest.raises(AttributeError):
            setattr(w, name, value)
    assert bruhat_leq(Permutation.identity(5), w)


def test_bigrassmannians_below_examples():
    assert bigrassmannians_below(Permutation.identity(4)) == frozenset()
    assert len(bigrassmannians_below(Permutation.parse("3412"))) == 8
    below_top = bigrassmannians_below(Permutation.parse("4321"))
    assert below_top == frozenset(all_bigrassmannians(4))


def test_rothe_diagram():
    assert rothe_diagram(Permutation.identity(4)) == frozenset()
    assert len(rothe_diagram(Permutation.parse("35241"))) == 7
    for w in enumerate_sn(5):
        assert len(rothe_diagram(w)) == length(w)


def test_group_operations():
    w = Permutation.parse("3412")
    assert inverse(w) == w
    assert compose(w, inverse(w)) == Permutation.identity(4)
    assert len(list(enumerate_sn(4))) == 24
    words = [p.word for p in enumerate_sn(4)]
    assert words == sorted(words)


@pytest.mark.parametrize("n", [-1, -2, -10])
def test_enumeration_rejects_a_negative_size_at_the_call(n):
    # the call itself raises, before a permutation is asked for
    with pytest.raises(ValueError, match=f"^size must be nonnegative, got {n}$"):
        enumerate_sn(n)
    assert list(enumerate_sn(0)) == [Permutation(())]


def test_parse_large_n_comma_form():
    w = Permutation.parse("10,3,1,2,4,5,6,7,8,9")
    assert w.n == 10 and w(1) == 10
    assert str(w) == "10,3,1,2,4,5,6,7,8,9"


# int() reads each of these as digits: Arabic-Indic, and '_' separators
@pytest.mark.parametrize("text", [
    "\u0662\u0661", "2,\u0661", "1_0,3,1,2,4,5,6,7,8,9",
])
def test_parse_rejects_non_ascii_digits(text):
    with pytest.raises(ValueError):
        Permutation.parse(text)


def test_rejects_non_permutation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))


def test_beta_square_sum_rejects_an_odd_sum():
    # the square sum of a permutation is even; a word that slipped past the
    # constructor's check is refused with an error, not an assert
    forged = object.__new__(Permutation)
    object.__setattr__(forged, "word", (2, 2))
    with pytest.raises(ValueError, match="odd"):
        beta(forged, "square-sum")


def test_permutation_pickles_and_copies_without_its_rank_key():
    for word in ((2, 1, 3), (), (3, 1, 4, 2)):
        w = Permutation(word)
        bruhat_leq(w, w)  # builds the key kept on w
        assert w._rank is not None
        for v in (pickle.loads(pickle.dumps(w)), copy.copy(w),
                  copy.deepcopy(w)):
            assert v == w and hash(v) == hash(w) and v.word == w.word
            assert v._rank is None
            assert bruhat_leq(v, w) and bruhat_leq(w, v)
            with pytest.raises(AttributeError):
                v.word = (1, 2, 3)
