"""Tournaments on [n] as bit tables over the pairs i < j.

Bit r is 1 when the edge between the r-th pair (i, j) points j -> i (an
inversion) and 0 when it points i -> j.  Pairs are ranked lexicographically:
(1,2), (1,3), ..., (1,n), (2,3), ...  Serialized form is the bit string in
that order, e.g. "011" for n = 3.

Every statistic is read off the bit table with a few masks per n and
``int.bit_count()``, never bit by bit:

- length is ``bits.bit_count()``;
- beta is the sum over d of d times the count of inverted pairs in
  ``gap_d``, the mask of the pairs with j - i = d;
- the outdegree of v counts the inverted pairs (u, v) with u < v (mask
  ``low_v``) plus the non-inverted pairs (v, u) with u > v, which is
  n - v minus the inverted pairs in ``high_v``;
- the triple i < j < k has mask ``ij|jk|ik``.  It is a cycle exactly when
  ``bits & mask`` is ``pos = ij|jk`` (i -> k -> j -> i, sign +1) or
  ``neg = ik`` (i -> j -> k -> i, sign -1), and reversing the cycle is
  ``bits ^ mask``.

The mask tables are cached per n; they hold O(n^3) ints and no results.

``statistic_counts`` tabulates (beta, length, outdegrees) over all of T_n
without reading each tournament.  The m = n(n-1)/2 bits split into a low
half of k bits and a high half of m - k bits; every statistic is additive
over disjoint bit sets (outdegrees up to the empty tournament's), so each
tournament's packed statistics are one high-half entry plus one low-half
entry (meet in the middle).  The two half tables, 2^k + 2^(m-k) ints, are
built afresh per call and dropped with it; neither they nor the counts are
cached.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Sequence

from .errors import NotTransitive, check_size
from .permstat import Permutation, inversions

ENUMERATION_BOUND = 7
MATCHING_BOUND = 6


@lru_cache(maxsize=None)
def pair_list(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(combinations(range(1, n + 1), 2))


@lru_cache(maxsize=None)
def pair_rank(n: int) -> dict[tuple[int, int], int]:
    return {p: r for r, p in enumerate(pair_list(n))}


@lru_cache(maxsize=None)
def _vertex_masks(n: int) -> tuple[tuple[int, int, int], ...]:
    """(low_v, high_v, n - v) per vertex v = 1..n."""
    low = [0] * (n + 1)
    high = [0] * (n + 1)
    for r, (i, j) in enumerate(pair_list(n)):
        high[i] |= 1 << r
        low[j] |= 1 << r
    return tuple((low[v], high[v], n - v) for v in range(1, n + 1))


@lru_cache(maxsize=None)
def _gap_masks(n: int) -> tuple[tuple[int, int], ...]:
    """(d, gap_d) for d = 1..n-1, gap_d holding the pairs with j - i = d."""
    gap = [0] * n
    for r, (i, j) in enumerate(pair_list(n)):
        gap[j - i] |= 1 << r
    return tuple((d, gap[d]) for d in range(1, n))


def _cycle_pattern(n: int, i: int, j: int, k: int) -> tuple[int, int, int]:
    """(mask, pos, neg) of the triple i < j < k."""
    rank = pair_rank(n)
    ij, jk, ik = 1 << rank[(i, j)], 1 << rank[(j, k)], 1 << rank[(i, k)]
    return ij | jk | ik, ij | jk, ik


@lru_cache(maxsize=None)
def _triple_masks(n: int) -> tuple[tuple[int, int, int], ...]:
    """(mask, pos, neg) per triple, in the order of triples(n)."""
    return tuple(_cycle_pattern(n, *t) for t in triples(n))


def _sign(bits: int, mask: int, pos: int, neg: int) -> int:
    s = bits & mask
    return 1 if s == pos else -1 if s == neg else 0


def _moves(bits: int, tmasks: tuple[tuple[int, int, int], ...]) -> list[int]:
    """The tournaments one cycle reversal away from bits, in triple order."""
    return [bits ^ mask for mask, pos, neg in tmasks
            if (bits & mask) in (pos, neg)]


class Tournament:
    """Immutable orientation of the complete graph on [n]."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int):
        if n < 0 or bits < 0 or bits >> (n * (n - 1) // 2):
            check_size(n)
            raise ValueError("bit table out of range")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bits)

    @classmethod
    def _raw(cls, n: int, bits: int) -> "Tournament":
        # trusted constructor: n >= 0 and bits a table over its pairs
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "bits", bits)
        return g

    def __setattr__(self, *_):
        raise AttributeError("Tournament is immutable")

    def __reduce__(self):
        return Tournament, (self.n, self.bits)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Tournament)
                and self.n == other.n and self.bits == other.bits)

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"Tournament({self.n}, 0b{self.bits:0{self.n*(self.n-1)//2}b})"

    def inverted(self, i: int, j: int) -> bool:
        """True when the edge between i < j points j -> i."""
        return bool(self.bits >> pair_rank(self.n)[(i, j)] & 1)

    def to_bit_string(self) -> str:
        # bit r is character r: the binary numeral read backwards
        m = self.n * (self.n - 1) // 2
        return format(self.bits, f"0{m}b")[::-1] if m else ""

    @staticmethod
    def from_bit_string(n: int, text: str) -> "Tournament":
        m = n * (n - 1) // 2
        if len(text) != m or set(text) - {"0", "1"}:
            raise ValueError(f"expected {m} bits for n={n}")
        return Tournament(n, int(text[::-1], 2) if text else 0)


def enumerate_tn(n: int) -> Iterator[Tournament]:
    """All 2^(n(n-1)/2) tournaments in increasing bit-table order.  The
    size is checked at the call, before the first tournament is asked for."""
    check_size(n, ENUMERATION_BOUND, f"T_{n} enumeration")
    return (Tournament(n, bits) for bits in range(1 << (n * (n - 1) // 2)))


def t_length(g: Tournament) -> int:
    return g.bits.bit_count()


def t_beta(g: Tournament) -> int:
    """Sum of j - i over inverted edges j -> i."""
    bits = g.bits
    return sum(d * (bits & gap).bit_count() for d, gap in _gap_masks(g.n))


def outdegree(g: Tournament, v: int) -> int:
    if not 1 <= v <= g.n:
        raise ValueError(f"vertex {v} not in 1..{g.n}")
    return outdegrees(g)[v - 1]


def outdegrees(g: Tournament) -> tuple[int, ...]:
    bits = g.bits
    return tuple([
        (bits & low).bit_count() + above - (bits & high).bit_count()
        for low, high, above in _vertex_masks(g.n)])


def is_cycle(g: Tournament, i: int, j: int, k: int) -> int:
    """0 when (i,j,k) is transitive, +1 positive cycle, -1 negative cycle."""
    return _sign(g.bits, *_cycle_pattern(g.n, i, j, k))


def find_cycles(g: Tournament) -> list[tuple[tuple[int, int, int], int]]:
    """All cyclic triples i < j < k with their sign, lexicographic order."""
    out = []
    for t, pattern in zip(triples(g.n), _triple_masks(g.n)):
        s = _sign(g.bits, *pattern)
        if s:
            out.append((t, s))
    return out


def transitive_degrees(degs: Sequence[int]) -> bool:
    """True when outdegrees degs are those of a transitive tournament.

    A tournament is transitive iff its outdegrees are 0, 1, ..., n-1.
    """
    return sorted(degs) == list(range(len(degs)))


def is_transitive(g: Tournament) -> bool:
    return transitive_degrees(outdegrees(g))


def statistic_counts(n: int) -> dict[tuple[int, int, tuple[int, ...]], int]:
    """{(beta, length, outdegrees): number of tournaments in T_n with them}.

    Meet in the middle over the two halves of the bit table (see the module
    docstring).  Each statistic is packed into one int, one field each for
    beta, length and the n outdegrees, wide enough for the field's largest
    value over T_n; the empty tournament's outdegrees are subtracted from
    the high half, so the packed sum of two halves is the packed statistics
    of their union, with every field in range.  The counts total 2^m.
    """
    check_size(n, ENUMERATION_BOUND, f"T_{n} enumeration")
    m = n * (n - 1) // 2
    k = m // 2
    bw = math.comb(n + 1, 3).bit_length()
    lw = m.bit_length()
    dw = (n - 1).bit_length()

    def pack(g: Tournament) -> int:
        key = 0
        for d in reversed(outdegrees(g)):
            key = key << dw | d
        return (key << lw | t_length(g)) << bw | t_beta(g)

    base = pack(Tournament(n, 0))
    high = [pack(Tournament(n, hi << k)) - base for hi in range(1 << (m - k))]
    low = [pack(Tournament(n, lo)) for lo in range(1 << k)]
    full = Counter(h + lo for h in high for lo in low)
    bmask, lmask, dmask = (1 << bw) - 1, (1 << lw) - 1, (1 << dw) - 1
    shifts = [bw + lw + v * dw for v in range(n)]
    return {(key & bmask, key >> bw & lmask,
             tuple([key >> s & dmask for s in shifts])): count
            for key, count in full.items()}


def c_involution(g: Tournament, i: int, j: int, k: int) -> Tournament:
    """Reverse the (i,j,k) cycle when there is one, else return g."""
    if not i < j < k:
        raise ValueError("triple must satisfy i < j < k")
    mask, pos, neg = _cycle_pattern(g.n, i, j, k)
    if (g.bits & mask) not in (pos, neg):
        return g
    return Tournament(g.n, g.bits ^ mask)


def to_tournament(w: Permutation) -> Tournament:
    """The transitive tournament with the same inversion set as w."""
    bits = 0
    rank = pair_rank(w.n)
    for i, j in inversions(w):
        bits |= 1 << rank[(i, j)]
    return Tournament(w.n, bits)


def from_transitive(g: Tournament) -> Permutation:
    """Inverse of to_tournament; vertices sorted by outdegree.

    In a transitive tournament the outdegree of v is n - position of v, so
    the word is recovered directly.  Raises NotTransitive otherwise.
    """
    degs = outdegrees(g)
    if not transitive_degrees(degs):
        raise NotTransitive(f"outdegrees {degs} are not 0..{g.n - 1}")
    word = [0] * g.n
    for v, d in enumerate(degs, start=1):
        word[g.n - d - 1] = v
    w = Permutation(word)
    if to_tournament(w) != g:
        raise NotTransitive("tournament contains a 3-cycle")
    return w


def triples(n: int) -> list[tuple[int, int, int]]:
    check_size(n)
    return list(combinations(range(1, n + 1), 3))


def perfect_matching(n: int) -> list[tuple[Tournament, Tournament]]:
    """Pair off the non-transitive tournaments by reversing 3-cycles.

    Triples are processed in lexicographic order; at the stage for (i,j,k)
    every still-unmatched tournament with a cycle on (i,j,k) whose image
    under the cycle reversal is also unmatched gets paired with that image.
    A tournament can be stranded when all its reversal partners were
    consumed at earlier stages (this first happens at n = 5); stranded
    tournaments are then placed by alternating-path augmentation over the
    same cycle-reversal moves, which always succeeds because reversals flip
    the parity of the length, making the move graph bipartite.

    The result partitions T_n minus the transitive tournaments into 2-sets
    joined by one cycle reversal, hence with equal beta and lengths of
    opposite parity.
    """
    check_size(n, MATCHING_BOUND, "perfect matching")
    m = n * (n - 1) // 2
    size = 1 << m
    tmasks = _triple_masks(n)
    partner: dict[int, int] = {}
    for mask, pos, neg in tmasks:
        # every table with no bit inside the triple's mask
        rest = [0]
        for bit in (1 << r for r in range(m)):
            if not bit & mask:
                rest += [x | bit for x in rest]
        # the tables cyclic on the triple come in reversal pairs
        # {x|pos, x|neg}, disjoint from each other: a pair is matched at
        # this stage exactly when both ends are still free, whatever order
        # the pairs are visited in
        for x in rest:
            bits, other = x | pos, x | neg
            if bits not in partner and other not in partner:
                partner[bits] = other
                partner[other] = bits
    for bits in range(size):
        if bits not in partner and _moves(bits, tmasks):
            _augment(bits, tmasks, partner)
    return [
        (Tournament._raw(n, bits), Tournament._raw(n, partner[bits]))
        for bits in sorted([b for b, other in partner.items() if b < other])
    ]


def _augment(start: int, tmasks: tuple[tuple[int, int, int], ...],
             partner: dict[int, int]) -> None:
    """Flip one alternating path from `start` to some other free tournament."""
    prev: dict[int, int | None] = {start: None}
    queue = deque([start])
    end = None
    while queue and end is None:
        x = queue.popleft()
        for v in _moves(x, tmasks):
            if v in prev:
                continue
            prev[v] = x
            if v not in partner:
                end = v
                break
            p = partner[v]
            if p not in prev:
                prev[p] = v
                queue.append(p)
    if end is None:
        raise AssertionError("no augmenting path; matching cannot be completed")
    v = end
    while v is not None:
        x = prev[v]
        nxt = prev[x]
        partner[v] = x
        partner[x] = v
        v = nxt
