"""Permutations of [n]: length, the bigrassmannian statistic, Bruhat order.

Words use one-line notation with 1-based values and positions, so
``Permutation((3, 4, 1, 2))`` is the permutation sending 1 to 3.  The
bigrassmannian statistic beta counts bigrassmannian permutations weakly
below w in Bruhat order and is computable by three closed formulas:

    beta(w) = sum over inversions (i, j) of (j - i)
            = (1/2) * sum over i of (i - w(i))^2
            = sum over i of i * (i - w(i))
"""

from __future__ import annotations

import itertools
from bisect import insort
from functools import lru_cache
from typing import Iterator

from .errors import BoundExceeded, SizeMismatch, check_size
from .exactpoly import ascii_int

ENUMERATION_BOUND = 9


class Permutation:
    """Immutable permutation in one-line notation."""

    __slots__ = ("word",)

    def __init__(self, word):
        word = tuple(word)
        n = len(word)
        if sorted(word) != list(range(1, n + 1)):
            raise ValueError(f"{word} is not a permutation of 1..{n}")
        object.__setattr__(self, "word", word)

    def __setattr__(self, *_):
        raise AttributeError("Permutation is immutable")

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        return self.word[i - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.word == other.word

    def __hash__(self) -> int:
        return hash(self.word)

    def __lt__(self, other: "Permutation") -> bool:
        return self.word < other.word

    def __repr__(self) -> str:
        return f"Permutation({self.word})"

    def __str__(self) -> str:
        if self.n <= 9:
            return "".join(str(v) for v in self.word)
        return ",".join(str(v) for v in self.word)

    @staticmethod
    def parse(text: str) -> "Permutation":
        text = text.strip()
        values = text.split(",") if "," in text else text
        return Permutation(ascii_int(v) for v in values)

    @staticmethod
    def identity(n: int) -> "Permutation":
        check_size(n)
        return Permutation(range(1, n + 1))


def inverse(w: Permutation) -> Permutation:
    inv = [0] * w.n
    for pos, val in enumerate(w.word, start=1):
        inv[val - 1] = pos
    return Permutation(inv)


def compose(u: Permutation, w: Permutation) -> Permutation:
    """(u compose w)(i) = u(w(i))."""
    if u.n != w.n:
        raise SizeMismatch(f"cannot compose sizes {u.n} and {w.n}")
    return Permutation(u.word[v - 1] for v in w.word)


def inversions(w: Permutation) -> frozenset[tuple[int, int]]:
    """Value pairs (i, j), i < j, appearing out of order in w."""
    pos = [0] * (w.n + 1)
    for p, v in enumerate(w.word, start=1):
        pos[v] = p
    return frozenset(
        (i, j)
        for i in range(1, w.n + 1)
        for j in range(i + 1, w.n + 1)
        if pos[i] > pos[j]
    )


def length(w: Permutation) -> int:
    return length_and_beta(w)[0]


def beta(w: Permutation, method: str = "inversion-sum") -> int:
    """The bigrassmannian statistic, by any of its three formulas."""
    if method == "inversion-sum":
        return sum(j - i for i, j in inversions(w))
    if method == "square-sum":
        total = sum((i - v) ** 2 for i, v in enumerate(w.word, start=1))
        if total % 2:
            # sum (i - w(i))^2 = 2 * sum i^2 - 2 * sum i w(i) for a permutation
            raise ValueError(f"square sum {total} of {w.word} is odd")
        return total // 2
    if method == "linear-sum":
        return sum(i * (i - v) for i, v in enumerate(w.word, start=1))
    raise ValueError(f"unknown beta method {method!r}")


def length_and_beta(w: Permutation) -> tuple[int, int]:
    """Both statistics in one inversion scan."""
    word = w.word
    n = len(word)
    ell = 0
    b = 0
    for a in range(n):
        va = word[a]
        for c in range(a + 1, n):
            if va > word[c]:
                ell += 1
                b += va - word[c]
    return ell, b


def descents(w: Permutation) -> list[int]:
    return [i for i in range(1, w.n) if w.word[i - 1] > w.word[i]]


def is_bigrassmannian(w: Permutation) -> bool:
    """Exactly one descent in w and exactly one in its inverse."""
    return len(descents(w)) == 1 and len(descents(inverse(w))) == 1


def enumerate_sn(n: int) -> Iterator[Permutation]:
    """All n! permutations, lexicographic in one-line notation.  The size
    is checked at the call, before the first permutation is asked for."""
    check_size(n)
    if n > ENUMERATION_BOUND:
        raise BoundExceeded(f"S_{n} enumeration above bound {ENUMERATION_BOUND}")
    return map(Permutation, itertools.permutations(range(1, n + 1)))


def bruhat_leq(u: Permutation, w: Permutation) -> bool:
    """Bruhat comparison by the sorted-prefix dominance criterion."""
    if u.n != w.n:
        raise SizeMismatch(f"cannot compare sizes {u.n} and {w.n}")
    un: list[int] = []
    wn: list[int] = []
    for k in range(u.n - 1):
        insort(un, u.word[k])
        insort(wn, w.word[k])
        for a, b in zip(un, wn):
            if a > b:
                return False
    return True


def bruhat_order_bfs(n: int) -> dict[Permutation, frozenset[Permutation]]:
    """Map w -> all u with u <= w, via BFS over the cover relation.

    Covers are w = v t_ij with length(w) == length(v) + 1.  Exponential in
    memory; retained as the oracle the dominance criterion is checked
    against.
    """
    if n > 5:
        raise BoundExceeded("BFS Bruhat closure is limited to n <= 5")
    perms = list(enumerate_sn(n))
    lengths = {w: length(w) for w in perms}
    down: dict[Permutation, list[Permutation]] = {w: [] for w in perms}
    for v in perms:
        lv = lengths[v]
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                word = list(v.word)
                word[i - 1], word[j - 1] = word[j - 1], word[i - 1]
                w = Permutation(word)
                if lengths[w] == lv + 1:
                    down[w].append(v)
    below: dict[Permutation, frozenset[Permutation]] = {}
    for w in sorted(perms, key=lambda p: lengths[p]):
        acc = {w}
        for v in down[w]:
            acc |= below[v]
        below[w] = frozenset(acc)
    return below


@lru_cache(maxsize=None)
def all_bigrassmannians(n: int) -> tuple[Permutation, ...]:
    return tuple(w for w in enumerate_sn(n) if is_bigrassmannian(w))


def bigrassmannians_below(w: Permutation) -> frozenset[Permutation]:
    """B(w): bigrassmannian permutations weakly below w; |B(w)| == beta(w)."""
    return frozenset(
        u for u in all_bigrassmannians(w.n) if bruhat_leq(u, w))


def rothe_diagram(w: Permutation) -> frozenset[tuple[int, int]]:
    """Cells (i, j) with i < w^-1(j) and j < w(i); exactly length(w) cells."""
    winv = inverse(w)
    return frozenset(
        (i, j)
        for i in range(1, w.n + 1)
        for j in range(1, w.n + 1)
        if i < winv.word[j - 1] and j < w.word[i - 1]
    )
