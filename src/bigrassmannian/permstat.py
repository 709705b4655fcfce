"""Permutations of [n]: length, the bigrassmannian statistic, Bruhat order.

Words use one-line notation with 1-based values and positions, so
``Permutation((3, 4, 1, 2))`` is the permutation sending 1 to 3.  The
bigrassmannian statistic beta counts bigrassmannian permutations weakly
below w in Bruhat order and is computable by three closed formulas:

    beta(w) = sum over inversions (i, j) of (j - i)
            = (1/2) * sum over i of (i - w(i))^2
            = sum over i of i * (i - w(i))

Bruhat order is compared on rank matrices (Bjorner and Brenti,
*Combinatorics of Coxeter Groups*, Thm 2.1.5): u <= w iff
r_u[k][j] <= r_w[k][j] for all k and j, where

    r_w[k][j] = #{a <= k : w(a) >= j},   k = 1..n-1, j = 2..n.

This is the sorted-prefix criterion (the sorted values of u(1..k) lie
entrywise below those of w(1..k), for every k) counted instead of
sorted: the i-th largest of a k-set is at least j exactly when at least
i of its values are, so entrywise dominance of two sorted k-sets is
dominance of their counts above every j.  Row k = n holds n - j + 1 and
column j = 1 holds k whatever the permutation, so both are left out.

Each permutation's rank matrix is packed into one int, its key, with one
field of f = (n-1).bit_length() + 1 bits per entry; every entry is at
most n - 1 < 2^(f-1), so the top bit of each field is free and serves as
a guard.  With G the guard bits, ``(R_w | G) - R_u`` holds
2^(f-1) + r_w - r_u in each field: no field borrows from the next, since
that is at least 2^(f-1) - (n-1) > 0, and its guard survives exactly when
r_u <= r_w.  So u <= w iff ``((R_w | G) - R_u) & G == G``, one big-int
subtraction however large n is.  A key is built on first use and kept on
its permutation.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator

from .errors import SizeMismatch, check_size
from .exactpoly import ascii_int

ENUMERATION_BOUND = 9


class Permutation:
    """Immutable permutation in one-line notation.

    ``_rank`` is None until ``bruhat_leq`` first needs the packed rank
    matrix; it is a function of ``word``, so equality, hashing and order
    ignore it.
    """

    __slots__ = ("word", "_rank")

    def __init__(self, word):
        word = tuple(word)
        n = len(word)
        if sorted(word) != list(range(1, n + 1)):
            raise ValueError(f"{word} is not a permutation of 1..{n}")
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "_rank", None)

    def __setattr__(self, *_):
        raise AttributeError("Permutation is immutable")

    def __reduce__(self):
        # rebuilt from the word, so pickles and copies leave _rank out
        return Permutation, (self.word,)

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
    check_size(n, ENUMERATION_BOUND, f"S_{n} enumeration")
    return map(Permutation, itertools.permutations(range(1, n + 1)))


@lru_cache(maxsize=None)
def _rank_fields(n: int) -> tuple[tuple[int, ...], int, int]:
    """(step, width, guard) of the packed rank matrices of S_n.

    A row k holds the fields j = 2..n, field j at bit (j - 2) * f; the key
    holds rows k = 1..n-1, row k at bit (n-1-k) * width.  ``step[v]`` has a
    1 in the fields j = 2..v, so row k is row k-1 plus step[w(k)].
    """
    f = (n - 1).bit_length() + 1
    step = [0, 0]
    for j in range(2, n + 1):
        step.append(step[-1] | 1 << (j - 2) * f)
    width = (n - 1) * f
    row_guard = step[-1] << f - 1
    guard = 0
    for _ in range(n - 1):
        guard = guard << width | row_guard
    return tuple(step), width, guard


def _rank_key(w: Permutation, step: tuple[int, ...], width: int) -> int:
    """The packed rank matrix of w, from ``_rank_fields(w.n)``; kept on w."""
    row = key = 0
    for v in w.word[:-1]:
        row += step[v]
        key = key << width | row
    object.__setattr__(w, "_rank", key)
    return key


def bruhat_leq(u: Permutation, w: Permutation) -> bool:
    """Bruhat comparison u <= w: r_u[k][j] <= r_w[k][j] for every entry of
    the rank matrices, the count form of sorted-prefix dominance, checked
    by one guarded subtraction of their packed keys (the module docstring
    gives both arguments).  Each key is built on first use and kept on its
    permutation, so comparing the same objects again costs a few int
    operations."""
    n = len(u.word)
    if len(w.word) != n:
        raise SizeMismatch(f"cannot compare sizes {n} and {w.n}")
    step, width, guard = _rank_fields(n)
    ru = u._rank
    if ru is None:
        ru = _rank_key(u, step, width)
    rw = w._rank
    if rw is None:
        rw = _rank_key(w, step, width)
    return ((rw | guard) - ru) & guard == guard


def bruhat_order_bfs(n: int) -> dict[Permutation, frozenset[Permutation]]:
    """Map w -> all u with u <= w, via BFS over the cover relation.

    Covers are w = v t_ij with length(w) == length(v) + 1.  Exponential in
    memory; retained as the oracle the dominance criterion is checked
    against.
    """
    check_size(n, 5, "BFS Bruhat closure")
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
