"""The q-weighted (bigrassmannian) determinant and its computation routes.

``bdet(A) = sum over w of (-1)^length(w) * q^beta(w) * prod a_{i,w(i)}``,
with the empty matrix mapping to 1.  Three independent routes are provided:
the defining signed sum, the classical determinant of the entrywise
deformation a_ij -> q^((i-j)^2/2) a_ij, and two-dimensional condensation
over contiguous square minors

    bdet(A) bdet(A with first+last rows and columns deleted)
        = bdet(A_1^1) bdet(A_n^n) - q^(n-1) bdet(A_n^1) bdet(A_1^n),

which needs only exact polynomial division.

The signed sum (and the classical determinant, the same sum unweighted)
is one sum over used-column masks, row by row: the permutations that agree
on which columns their first rows use share one partial sum, because the
sign and beta that each further row adds depend only on those columns
(counted from the mask as the row reaches it).  So a layer holds at most
C(n, n/2) masks where there are n! permutations, and a zero entry adds
nothing.  Rows are cleared of denominators first, so the products are on
integer term dicts.  The sum takes no minor, no elimination and no packed
image: those are condensation's, and sharing them would make the routes
that ``verify`` compares one route.

The Robbins-Rumsey style l- and l*q-determinants replace the factor
-q^(n-1) by l or l*q^(n-1).
One engine, ``_condense``, runs every such recursion; only the factor,
the ring and the corner weights differ.  On Toeplitz rows (a_ij depends
on i - j alone, as for the all-ones matrix and every deformation of a
Toeplitz matrix) a contiguous minor depends only on its offset c - r, so
it computes the top row and the left column of each size and reuses
every other cell, 2(n - k) + 1 cells of size k instead of (n - k + 1)^2.
A reused cell's divisor repeats one met earlier in row-major order, so
the first zero divisor, and the ``ZeroMinor`` raised, are the same.
``bdet_condense`` runs it on ints, the packed image of a matrix in q
alone, and on polynomials otherwise.  The l- and l*q-determinants run it
fraction-free: each entry is cleared of denominators on its own,
a_ij = P_ij / d_ij, and each cell is carried times the product of the P
over its block's interior and of the d over the whole block, which makes
it a polynomial (Robbins and Rumsey) and every division exact (Bareiss).
Both l-determinants of a matrix whose entries are constants or in q
alone run on ints, q and l at powers of 2 far enough apart for every
coefficient and exponent of the result, as the same loop on the |P|
bounds them (at q = l = 1, and in max-plus arithmetic on exponents);
entries with l or x, and images too wide, run on polynomials.  Only the
result is a rational function.
A zero interior minor stops the loop with ``ZeroMinor``, which the l- and
l*q-determinants pass on.  ``bdet_condense`` catches it and returns the
determinant of the whole deformed matrix instead, by fraction-free
elimination (Bareiss) on the same packed image or on polynomials.  On the
image each int is kept as an odd part and a power of two: the deformation
q^((i-j)^2/2) is a power of the slot base, so it enters as shift counts
alone, and the products and quotients run on the odd parts.  The unsigned
analogue (the permanent with q weights) lives here too.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, lcm, prod
from operator import add, sub, truediv
from typing import Callable, Sequence

from .errors import InexactDivision, ParseError, ZeroMinor, check_size
from .exactpoly import (
    _ITEM,
    _UNIT_KEY,
    L,
    ONE,
    PACK_MAX_SLOTS_PER_PRODUCT,
    ZERO,
    Polynomial,
    RationalFunction,
    _denominator,
    _scaled,
    _slot_bytes,
    _times,
    _unpack,
    convolve,
    format_poly,
    inclusion_exclusion,
    parse,
    q_image,
    qpow,
)

LEIBNIZ_BOUND = 8
LITTLE_INVARIANCE_BOUND = 7
PERMANENT_BOUND = 10
CONDENSE_BOUND = 30
LAMBDA_BOUND = 15


class PolyMatrix:
    """Immutable square matrix of polynomials."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence[Polynomial]]):
        rows = tuple(
            tuple(e if isinstance(e, Polynomial) else Polynomial.constant(e)
                  for e in row)
            for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _raw(cls, rows: tuple[tuple[Polynomial, ...], ...]) -> "PolyMatrix":
        # trusted constructor: rows already a square tuple of tuples of
        # Polynomials
        a = object.__new__(cls)
        object.__setattr__(a, "n", len(rows))
        object.__setattr__(a, "rows", rows)
        return a

    def __setattr__(self, *_):
        raise AttributeError("PolyMatrix is immutable")

    def __reduce__(self):
        return PolyMatrix, (self.rows,)

    def __getitem__(self, rc: tuple[int, int]) -> Polynomial:
        r, c = rc
        return self.rows[r][c]

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"PolyMatrix(n={self.n})"

    @staticmethod
    def ones(n: int) -> "PolyMatrix":
        check_size(n)
        return PolyMatrix([[ONE] * n for _ in range(n)])

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix._raw(tuple(zip(*self.rows)))

    def delete(self, rows: Sequence[int], cols: Sequence[int]) -> "PolyMatrix":
        """Submatrix with the given 1-based rows and columns removed."""
        rset, cset = set(rows), set(cols)
        keep = [c for c in range(self.n) if c + 1 not in cset]
        out = tuple(tuple([row[c] for c in keep])
                    for r, row in enumerate(self.rows) if r + 1 not in rset)
        if out and len(keep) != len(out):
            raise ValueError("matrix must be square")
        return PolyMatrix._raw(out)


# deformation families ------------------------------------------------------

@dataclass(frozen=True)
class DeformationFamily:
    """Entrywise q-monomial multipliers indexed by (i, j), 1-based."""

    kind: str
    halves: Callable[[int, int], int]

    def factor(self, i: int, j: int) -> Polynomial:
        return qpow(self.halves(i, j))


B_FAMILY = DeformationFamily("b", lambda i, j: (i - j) ** 2)
B_PRIME = DeformationFamily("b_prime", lambda i, j: 2 * i * (i - j))
B_DOUBLE_PRIME = DeformationFamily("b_double_prime", lambda i, j: 2 * j * (j - i))


def deform(a: PolyMatrix, fam: DeformationFamily = B_FAMILY) -> PolyMatrix:
    return PolyMatrix._raw(tuple(
        tuple([fam.factor(i + 1, j + 1) * a.rows[i][j] for j in range(a.n)])
        for i in range(a.n)))


# determinant routes ---------------------------------------------------------

def _leibniz(a: PolyMatrix, q_weighted: bool) -> Polynomial:
    """The signed permutation sum, as one sum over used-column masks.

    ``layer[mask]`` sums the placements of the rows so far on the columns
    in mask, each times (-1)^length and (when ``q_weighted``) q^beta of its
    inversions so far.  Row i adds layer[mask] * a[i][c] * (-1)^dl * q^db
    into the next layer at mask | c (Bellman-Held-Karp), where dl counts
    the columns u > c in mask, one inversion each, and db sums their
    u - c; the row's walk down the mask's columns counts both.  A zero
    entry adds nothing, and terms that cancel are dropped between rows.
    The full mask holds the sum.  Products are term dicts, multiplied by
    ``exactpoly.convolve``.  Each row is first cleared of denominators, and
    the result divided by their product: the sum is linear in each row.

    It shares nothing with condensation (no minors, no packed image), so
    the routes stay independent checks of each other.
    """
    weight = 2 if q_weighted else 0
    layer, den = {0: {(0, 0, ()): 1}}, 1
    for row in a.rows:
        terms = [e._terms for e in row]
        d = lcm(*map(_denominator, terms))
        den *= d
        # from the top column down, zero entries too (as None): the walk
        # counts every column of the mask
        columns = [(1 << c, _times(f, d) if f else None)
                   for c, f in reversed(list(enumerate(terms)))]
        nxt: dict[int, dict[tuple, int]] = {}
        for mask, f in layer.items():
            dl = db = 0  # the mask's columns u > c: how many, and sum of u - c
            for bit, entry in columns:
                db += dl  # one column down, each of them is one further
                if mask & bit:
                    dl += 1
                elif entry is not None:
                    if dl:
                        entry = {(qh + weight * db, le, xs): -v if dl & 1 else v
                                 for (qh, le, xs), v in entry.items()}
                    convolve(f, entry, nxt.setdefault(mask | bit, {}))
        layer = {mask: {k: v for k, v in f.items() if v} if 0 in f.values() else f
                 for mask, f in nxt.items()}
    return Polynomial._raw(_scaled(layer.get((1 << a.n) - 1, {}), 1, den))


def det_classic(a: PolyMatrix, max_n: int = LEIBNIZ_BOUND) -> Polynomial:
    """Ordinary determinant by the signed permutation sum."""
    check_size(a.n, max_n, "Leibniz determinant")
    return _leibniz(a, q_weighted=False)


def bdet_definition(a: PolyMatrix, max_n: int = LEIBNIZ_BOUND) -> Polynomial:
    """The defining signed, q-weighted permutation sum."""
    check_size(a.n, max_n, "signed sum")
    return _leibniz(a, q_weighted=True)


def bdet_via_deformation(a: PolyMatrix, max_n: int = LEIBNIZ_BOUND) -> Polynomial:
    """det of the deformed matrix; agrees with bdet_definition."""
    check_size(a.n, max_n, "deformation determinant")
    return det_classic(deform(a, B_FAMILY), max_n=max_n)


def little_invariance_check(a: PolyMatrix) -> tuple[Polynomial, ...]:
    """Determinants of the three deformations; always an equal triple."""
    check_size(a.n, LITTLE_INVARIANCE_BOUND, "little invariance")
    return tuple(
        det_classic(deform(a, fam))
        for fam in (B_FAMILY, B_PRIME, B_DOUBLE_PRIME))


def _whole(v) -> tuple:
    return v, 0


def _odd_part(v: int) -> tuple[int, int]:
    """(v >> t, t) with t the trailing zero bits of the int v; (0, 0) for 0."""
    if not v:
        return 0, 0
    t = (v & -v).bit_length() - 1
    return v >> t, t


def _det_cofactor(rows: Sequence[Sequence], zero, one, divide: Callable,
                  split: Callable | None = None):
    """The determinant of a square matrix over an integral domain, by
    fraction-free elimination with row pivoting (Bareiss, Math. Comp. 22,
    1968): O(n^3) ring operations, each division an exact ``divide``.

    Step k replaces each entry below and right of the pivot p_k by
    (p_k * a_ij - a_ik * a_kj) / p_(k-1), so every value is a minor and
    the last is the determinant.  A zero pivot swaps with the first
    nonzero entry below it, negating the result; a column with none gives
    ``zero``.  Rows and columns take one order, from the middle out: on a
    deformed matrix the minors then join nearby rows and columns, whose
    factors q^((i-j)^2/2) stay low.  The name is the benchmark tracer's
    hook for ``bdet_condense``'s zero-minor fallback.

    ``split`` keeps each int's power of two apart: it maps a value v to
    (part, count) with v = part * 2^count and part odd (``_odd_part``),
    and each entry of ``rows`` is then such a pair.  Products multiply the
    parts and add the counts, only the difference of two counts is
    shifted in before a subtraction, and each quotient is ``divide`` of
    the odd part by the previous pivot's odd part.  The pairs are exact in
    Z[1/2], where a power of two is a unit, so that division is exact
    whenever the whole one is, and its remainder is still checked.  The
    trailing zero bits that a deformation's shifts put in every packed
    value are then never multiplied or divided.  Without ``split`` every
    count is 0, as for polynomials.  Either way the determinant itself is
    returned.
    """
    n = len(rows)
    if not n:
        return one
    order = sorted(range(n), key=lambda k: abs(2 * k - n + 1))
    if split is None:
        split = _whole
        m = [[(rows[i][j], 0) for j in order] for i in order]
    else:
        m = [[rows[i][j] for j in order] for i in order]
    negate, prev, prev_t = False, one, 0
    for k in range(n - 1):
        if not m[k][k][0]:
            swap = next((i for i in range(k + 1, n) if m[i][k][0]), None)
            if swap is None:
                return zero
            m[k], m[swap] = m[swap], m[k]
            negate = not negate
        top = m[k]
        (pivot, pt), tail = top[k], top[k + 1:]
        for row in m[k + 1:]:
            lead, lt = row[k]
            if not lead:
                # an odd part times an odd part over an odd part is odd
                row[k + 1:] = [(divide(pivot * x, prev), pt + xt - prev_t)
                               for x, xt in row[k + 1:]]
                continue
            new = []
            for (x, xt), (y, yt) in zip(row[k + 1:], tail):
                if not y:
                    new.append((divide(pivot * x, prev), pt + xt - prev_t))
                elif not x:
                    new.append((divide(-(lead * y), prev), lt + yt - prev_t))
                else:
                    s, d = pt + xt, lt + yt - pt - xt
                    if d > 0:
                        num = pivot * x - (lead * y << d)
                    elif d:
                        num, s = (pivot * x << -d) - lead * y, s + d
                    else:
                        num = pivot * x - lead * y
                    q, t = split(divide(num, prev))
                    new.append((q, s + t - prev_t))
            row[k + 1:] = new
        prev, prev_t = pivot, pt
    v, t = m[-1][-1]
    if not v:
        return zero
    if t:
        v <<= t
    return -v if negate else v


def _condense(rows: Sequence[Sequence], one, factor: Callable[[int], object],
              divide: Callable, dens: Sequence[Sequence[int]] | None = None):
    """The condensation loop over contiguous square minors.

    The cell of a given size at (r, c), 0-based, is
    (se * nw + factor(size) * ne * sw) / interior, where nw, ne, sw and se
    are the cells of size - 1 at its corners and interior is the cell of
    size - 2 at (r + 1, c + 1); ``divide`` takes the quotient.  A zero
    interior minor stops the loop: it raises ``ZeroMinor`` with that
    minor's 0-based corner (r + 1, c + 1) and its size, size - 2; only the
    message counts from 1.  Returns the single cell of size n, and ``one``
    for the empty matrix.  The ring is any whose zero is false: polynomials
    (some entries may be ints, which polynomial arithmetic takes as
    constants) or ints.  The interior of a size-2 cell is ``one``, so it is
    not divided by.

    ``dens`` makes the loop fraction-free on the entries
    rows[i][j] / dens[i][j], P over a positive int d: each cell is then
    the condensation cell times the product of the P over its block's
    interior and of the d over the whole block.  From size 2 up,
    ``_corners`` gives the weights (u, v) of the two products,
    se * nw * u + factor(size) * ne * v * sw, and a weight equal to 1 is
    skipped.  Sizes 2 and 3 divide by nothing: a size-3 cell is its
    numerator, and its interior entry is only checked for zero.

    When the rows are Toeplitz (each entry equals the one up and left of
    it, by the ring's ``==``), and so are the ``dens``, a block is
    determined by its offset c - r, and so are its corner weights and its
    cell; the factor depends on the size alone.  The cell at (r, c) with
    r, c > 0 is then the cell (r - 1, c - 1) of the same size, and is
    reused, so only the top row and the left column of each size are
    computed.  ``ZeroMinor`` is unchanged: a reused cell's divisor
    (r + 1, c + 1) is the divisor (r, c) of the cell it reuses, which comes
    earlier in row-major order, so the first zero divisor in that order is
    on the top row or the left column, which the loop still visits in that
    order, and the same (row, col, size) is raised.
    """
    n = len(rows)
    grids = (rows,) if dens is None else (rows, dens)
    toeplitz = all(g[i][j] == g[i - 1][j - 1]
                   for g in grids for i in range(1, n) for j in range(1, n))
    corners = None if dens is None else _corners(rows, dens)
    prev2 = [[one] * (n + 1) for _ in range(n + 1)]
    prev1 = rows
    first_division = 3 if dens is None else 4
    for size in range(2, n + 1):
        fac = factor(size)
        divides = size >= first_division
        cur = []
        for r in range(n - size + 1):
            shared = toeplitz and r
            row = []
            for c in range(1 if shared else n - size + 1):
                divisor = prev2[r + 1][c + 1]
                if not divisor:
                    raise ZeroMinor(r + 1, c + 1, size - 2)
                nw, ne = prev1[r][c], prev1[r][c + 1]
                if corners is not None:
                    u, v = corners(r, c, size)
                    if u != 1:
                        nw = nw * u
                    if v != 1:
                        ne = ne * v
                num = prev1[r + 1][c + 1] * nw + fac * ne * prev1[r + 1][c]
                row.append(divide(num, divisor) if divides else num)
            if shared:
                row += cur[r - 1][:-1]
            cur.append(row)
        prev2, prev1 = prev1, cur
    return prev1[0][0] if n else one


def _divide_image(num: int, divisor: int) -> int:
    quot, rem = divmod(num, divisor)
    if rem:
        raise InexactDivision("packed exact step leaves a remainder")
    return quot


def bdet_condense(a: PolyMatrix, max_n: int = CONDENSE_BOUND) -> Polynomial:
    """bdet by condensation over contiguous square minors.

    The factor is -q^(size-1) and the divisor at each step is the interior
    minor; divisions are exact whenever the identity holds.  At the first
    zero interior minor the loop stops, and the value is the determinant of
    the whole deformed matrix, by fraction-free elimination
    (``_det_cofactor``): bdet(A) = det(deform(A)), the identity behind
    ``bdet_via_deformation``.

    When every entry is in q alone and the slot layout is neither wider
    than SPAN_BOUND nor sparse (``exactpoly.q_image``), both run on the
    matrix's packed image: every value is an int, the factor is a power of
    the slot base, and only the result is unpacked.  The elimination keeps
    each int as an odd part and a shift count (``_odd_part``): a deformed
    entry is the image entry shifted by halves(i, j) // g slots, so its
    count is the entry's own trailing zeros plus that many slot widths, and
    no shifted int is built.  Each value the two test for zero or return
    is the determinant of a square submatrix of the deformed, cleared
    rows, whose coefficients Hadamard's bound covers
    (``exactpoly._hadamard_bound``), so an image is 0 exactly when its
    value is.  The products in between are only divided exactly, which
    needs no bound, since evaluation at the slot base is a ring
    homomorphism.  With whole-power slots the deformation takes an extra
    q^(1/2) per odd row and per odd column, which keeps every deformed
    exponent whole; the result is shifted back by the diagonal's extra.
    Other matrices run on polynomials.
    """
    n = a.n
    check_size(n, max_n, "condensation")
    # the largest q weight of a term is q^(n(n^2-1)/6), the reversal's beta
    image = q_image(a.rows, 2, n * (n * n - 1) // 3)
    if image is None:
        try:
            return _condense(a.rows, ONE, lambda size: -qpow(2 * (size - 1)),
                             Polynomial.div_exact)
        except ZeroMinor:
            return _det_cofactor(deform(a).rows, ZERO, ONE,
                                 Polynomial.div_exact)
    g, bits = image.g, 8 * image.w
    try:
        return image.unpack(_condense(
            image.rows, 1, lambda size: -1 << 2 * (size - 1) // g * bits,
            _divide_image))
    except ZeroMinor:
        pass

    def halves(i: int, j: int) -> int:
        return (i - j) ** 2 + (g - 1) * (i % 2 + j % 2)

    deformed = [[(e, t + halves(i, j) // g * bits)
                 for j, (e, t) in enumerate(map(_odd_part, row))]
                for i, row in enumerate(image.rows)]
    diagonal = sum(halves(k, k) for k in range(n)) // g * bits
    return image.unpack(_det_cofactor(deformed, 0, 1, _divide_image,
                                      _odd_part) >> diagonal)


def condensation_identity_check(a: PolyMatrix) -> bool:
    """Exact check of the weighted condensation and its five minor bridges.

    All six bdets are computed from the definition; the classical
    determinants of the deformed minors are computed independently.  A
    False return would indicate a genuine counterexample (i.e. a bug).
    """
    n = a.n
    if n < 2:
        raise ValueError("condensation needs n >= 2")
    whole = bdet_definition(a)
    interior = bdet_definition(a.delete((1, n), (1, n)))
    nw = bdet_definition(a.delete((1,), (1,)))
    se = bdet_definition(a.delete((n,), (n,)))
    sw = bdet_definition(a.delete((n,), (1,)))
    ne = bdet_definition(a.delete((1,), (n,)))
    if whole * interior != nw * se - qpow(2 * (n - 1)) * sw * ne:
        return False
    c = deform(a, B_FAMILY)
    half = qpow(n - 1)
    checks = (
        (det_classic(c.delete((1, n), (1, n))), interior),
        (det_classic(c.delete((1,), (1,))), nw),
        (det_classic(c.delete((n,), (n,))), se),
        (det_classic(c.delete((n,), (1,))), half * sw),
        (det_classic(c.delete((1,), (n,))), half * ne),
    )
    return all(lhs == rhs for lhs, rhs in checks)


# permanent -------------------------------------------------------------------

def permanent_q(a: PolyMatrix, max_n: int = PERMANENT_BOUND) -> Polynomial:
    """Unsigned permutation sum by inclusion-exclusion over column subsets."""
    n = a.n
    check_size(n, max_n, "permanent")
    if n == 0:
        return ONE
    image = q_image(a.rows, 0, 0)
    if image is not None:
        return image.unpack(inclusion_exclusion(image.rows, 0))
    return inclusion_exclusion(a.rows, ZERO)


# Robbins-Rumsey recursions ----------------------------------------------------

def _cleared(a: PolyMatrix) -> tuple[list[list], list[list[int]], Polynomial]:
    """The entries of an l-recursion as P / d, and the denominator of its
    result.

    Each entry is cleared on its own: d is the lcm of its coefficients'
    denominators (1 for 0) and P the entry times d, an integer polynomial,
    or an int when the entry is a constant (polynomial arithmetic takes an
    int as a constant, so products of constants stay ints).  The loop
    carries each cell times the product of the P over its block's interior
    and of the d over the whole block, so the result's denominator is the
    product of the interior P times that of all d.
    """
    check_size(a.n, LAMBDA_BOUND, "l-determinant")
    dens = [[_denominator(e._terms) for e in row] for row in a.rows]
    rows = [[_numerator(e, d) for e, d in zip(row, drow)]
            for row, drow in zip(a.rows, dens)]
    interior = prod((e for row in rows[1:-1] for e in row[1:-1]), start=ONE)
    return rows, dens, interior * prod(map(prod, dens))


def _numerator(e: Polynomial, d: int):
    """e times d, a multiple of its denominator; an int for a constant e."""
    terms = _times(e._terms, d)
    if e.is_constant():
        return terms.get(_UNIT_KEY, 0)
    return Polynomial._raw(terms) if d > 1 else e


def _corners(rows: Sequence[Sequence], dens: Sequence[Sequence[int]]
             ) -> Callable[[int, int, int], tuple]:
    """The fraction-free corner weights (u, v) of ``_condense`` on the
    entries rows[i][j] / dens[i][j].

    A block's weight W is the product of the P over its interior and of
    the d over the whole block, and the weights are
    u = W(block) W(interior) / (W(nw) W(se)), and v the same over
    W(ne) W(sw).  An entry's d counts once in the block and in the
    interior if it lies there, and once less for each of nw and se that
    holds it, so only the block's corners outside both are left: d_NE d_SW
    in u, and d_NW d_SE in v.  The same count on the P of the interiors
    leaves the corners of the block's interior from size 4 up,
    P(r+1, c+k-2) P(r+k-2, c+1) in u and P(r+1, c+1) P(r+k-2, c+k-2) in v.
    The ints are multiplied first, so a polynomial is scaled once, and
    not by 1.
    """
    def corners(r: int, c: int, size: int) -> tuple:
        far_r, far_c = r + size - 1, c + size - 1
        u = dens[r][far_c] * dens[far_r][c]
        v = dens[r][c] * dens[far_r][far_c]
        if size < 4:
            return u, v
        pu = rows[r + 1][far_c - 1] * rows[far_r - 1][c + 1]
        pv = rows[r + 1][c + 1] * rows[far_r - 1][far_c - 1]
        return pu if u == 1 else pu * u, pv if v == 1 else pv * v

    return corners


def _condense_rational(rows: list[list], dens: list[list[int]],
                       factor: Callable[[int], Polynomial]) -> Polynomial:
    """The numerator N_n of an l-recursion, fraction-free on the entries
    P / d of ``_cleared``.

    The loop runs on N = cell * W, W the product of the P over the block's
    interior and of the d over the whole block, which is a polynomial in
    the P and the d (Robbins and Rumsey: in the cell each interior entry
    is inverted at most once, and no entry is raised above its first
    power).  For a block of size k at (r, c), with NE, SW, NW and SE its
    corner entries (``_corners``),

        N N_int = N_nw N_se d_NE d_SW P(r+1, c+k-2) P(r+k-2, c+1)
                  + f N_ne N_sw d_NW d_SE P(r+1, c+1) P(r+k-2, c+k-2)

    for k >= 4, and N = nw se d_NE d_SW + f ne sw d_NW d_SE for k <= 3, so
    every step is an exact polynomial division (Bareiss's fraction-free
    elimination, on condensation).  Only the result is a rational
    function, N_n over the product of the interior P and of all d.  An
    interior entry is the divisor of the size-3 cell centred on it, so a
    zero entry raises ``ZeroMinor`` there; after that every W is nonzero,
    and N_int is zero exactly when its cell is.  Both l-determinants run
    the same loop on ints first when every P is in q alone (``_l_image``),
    and here when that image declines.
    """
    return _condense(rows, ONE, factor, Polynomial.div_exact, dens)


def _q_terms(e) -> dict[int, int]:
    """An int or a polynomial in q alone as {exponent in halves: coefficient}."""
    if type(e) is int:
        return {0: e} if e else {}
    return {k[0]: c for k, c in e._terms.items()}


class _Reach:
    """The largest value of each of a few linear forms in (a, k) over the
    terms q^(a g/2) l^k of a polynomial with nonnegative coefficients, or
    -inf for each when it is 0: a ring for ``_condense``.

    With no coefficient negative no term cancels, so a sum reaches the
    larger of its summands' values, and a product the sum of its factors'
    (each form is linear); an exact quotient reaches the difference, since
    the dividend is the product of the quotient and the divisor.  A
    positive int, a denominator d, reaches 0 in every form.
    """

    __slots__ = ("top",)

    def __init__(self, top: tuple):
        self.top = top

    def __bool__(self) -> bool:
        return self.top[0] != -inf

    def __eq__(self, other) -> bool:
        return isinstance(other, _Reach) and self.top == other.top

    def __add__(self, other: "_Reach") -> "_Reach":
        return _Reach(tuple(map(max, self.top, other.top)))

    def __mul__(self, other) -> "_Reach":
        if type(other) is int:
            return self
        return _Reach(tuple(map(add, self.top, other.top)))

    __rmul__ = __mul__

    def __truediv__(self, other: "_Reach") -> "_Reach":
        return _Reach(tuple(map(sub, self.top, other.top)))


def _band(terms: list[list[dict]], lows: list[int], g: int, unit: int,
          dens: list[list[int]]) -> tuple[int, int, int]:
    """(c, lo, hi) with lo <= a - c k <= hi for every term q^(a g/2) l^k
    of N_n on the entries of ``_l_image``, row i shifted by q^(-lows[i]/2).

    It runs the loop of ``_l_image`` on the |P| in ``_Reach``, with the
    forms a, -a, a - c k and c k - a: the terms of N_n are among those of
    the |P| loop's, where none cancels.  The factor l q^(size-1) ties k to
    a along a slope of (n + 1) / 3 powers of q per power of l (the
    all-ones matrix's N_n, B_n(l, q), spans q^0 at l^0 to q^(n(n^2-1)/6)
    at l^(n(n-1)/2)), so a band of that slope c, in slots of q^(g/2), is
    narrower than the range of a, which is the band of slope 0; of the
    two, the one that makes the fewer slots.
    """
    n = len(terms)
    slope = round(unit * (n + 1) / (3 * g))

    def forms(a: int, k: int) -> _Reach:
        return _Reach((a, -a, a - slope * k, slope * k - a))

    def entry(f: dict, low: int) -> _Reach:
        # k is 0, so each form is a or -a
        if not f:
            return _Reach((-inf,) * 4)
        return _Reach(((max(f) - low) // g, (low - min(f)) // g) * 2)

    reach = _condense(
        [[entry(f, low) for f in row] for row, low in zip(terms, lows)],
        forms(0, 0), lambda size: forms(unit * (size - 1) // g, 1), truediv,
        dens).top
    if reach[0] == -inf:
        return 0, 0, 0
    top_l = n * (n - 1) // 2
    bands = [(c, -reach[i + 1], reach[i]) for i, c in ((0, 0), (2, slope))
             if reach[i] + reach[i + 1] + 1 >= c]
    return min(bands, key=lambda b: b[2] + (b[2] - b[1] + 1) * top_l)


# The packed l-image declines a top cell of more bytes than this: above it
# the int loop's divisions, one quadratic divmod each, cost more than the
# polynomial loop's (the crossover in BENCH_lq_image.json).
L_IMAGE_MAX_BYTES = 12 << 10


def _l_image(rows: list[list], dens: list[list[int]], unit: int
             ) -> Polynomial | None:
    """N_n of the l-recursion with factor l * q^(unit (size-1) / 2) on the
    entries P / d of ``_cleared``, when every P is an int or in q alone,
    from one packed integer per cell, or None.

    Row i is shifted by q^(-lo_i/2), lo_i its lowest exponent in halves,
    and the loop of ``_condense_rational`` runs on ints with q^(g/2) at
    X = 2^(8w) and l at X^t, g the gcd of ``unit`` and of the rows'
    offsets from their lowest exponents: evaluation is a ring homomorphism
    and each division is exact in Z[q, l], so each int is the image of its
    cell, and only N_n, of l-degree at most n(n-1)/2, is unpacked.  N_n
    is the l-determinant times the interior P and all d, so it takes
    q^(lo_i/2) once from row i's determinant and once from each of its
    n - 2 interior P when the row is interior; the result is shifted back
    by those.

    The coefficients of N_n are sums of the terms
    q^e(B) prod P_ij^(B_ij + [ij interior]) d_ij^(1 - B_ij) over
    alternating sign matrices B, each times a coefficient of
    l^(inv(B) - N(B)) * (1 + l)^N(B), whose sum is 2^N(B); every exponent
    is at least 0 and every d positive.  So the same loop on the |P|, with
    the same d, bounds them all: at q = l = 1 it bounds every coefficient
    and sets w, and its terms, where none cancels, hold those of N_n, so
    the band lo <= a - c k <= hi that ``_band`` finds holds every term
    q^(a g/2) l^k of N_n.  With t = hi - lo + 1 - c, the term's slot
    a + t k is lo + (a - c k - lo) + (hi - lo + 1) k: a digit of that
    mixed radix, so no two terms share a slot, and each slot gives back its
    k and a.  With no q in the loop (g = 0: each row a q-monomial times
    constants, and the factor l) a is 0, t is 1 and no band is sought.

    None when an entry holds l or x, when w is above the divmod's
    crossover with long division (``exactpoly._div_packed``), when the top
    image is above L_IMAGE_MAX_BYTES, and when an int run meets a zero
    divisor, an inexact quotient or a result that does not unpack: the
    polynomial loop then decides.
    """
    if not all(type(e) is int or e.is_q_only() for row in rows for e in row):
        return None
    terms = [[_q_terms(e) for e in row] for row in rows]
    lows = [min((h for f in row for h in f), default=0) for row in terms]
    g = gcd(unit, *(h - lo for row, lo in zip(terms, lows)
                    for f in row for h in f))
    n = len(rows)
    try:
        w = _slot_bytes(_condense(
            [[sum(map(abs, f.values())) for f in row] for row in terms], 1,
            lambda size: 1, _divide_image, dens))
        if w > PACK_MAX_SLOTS_PER_PRODUCT * _ITEM ** 2:
            return None
        c, lo, hi = _band(terms, lows, g, unit, dens) if g else (0, 0, 0)
        g = g or 1
        span = hi - lo + 1
        t = span - c
        slots = hi + span * n * (n - 1) // 2 + 1
        if slots * w > L_IMAGE_MAX_BYTES:
            return None
        bits = 8 * w
        top = _condense(
            [[sum(v << (h - low) // g * bits for h, v in f.items())
              for f in row] for row, low in zip(terms, lows)], 1,
            lambda size: 1 << (t + unit * (size - 1) // g) * bits,
            _divide_image, dens)
        digits = _unpack(top, slots, w)
    except (ZeroMinor, InexactDivision, OverflowError):
        return None
    shift = sum(low * (n - 1 if 0 < i < n - 1 else 1)
                for i, low in enumerate(lows))
    out = {}
    for s, d in enumerate(digits):
        if d:
            k = (s - lo) // span
            out[shift + (s - t * k) * g, k, ()] = d
    return Polynomial._raw(out)


def _l_recursion(a: PolyMatrix, unit: int) -> RationalFunction:
    """The l-recursion with factor l * q^(unit (size-1) / 2), on the packed
    image (``_l_image``) or else fraction-free on polynomials."""
    rows, dens, den = _cleared(a)
    top = _l_image(rows, dens, unit)
    if top is None:
        top = _condense_rational(
            rows, dens, lambda size: L * qpow(unit * (size - 1)))
    return RationalFunction(top, den)


def lambda_det(a: PolyMatrix) -> RationalFunction:
    """The l-determinant: condensation with -1 replaced by the variable l.

    Defined when every interior minor of the recursion is nonzero; at
    l = -1 it recovers the classical determinant.  Up to ``LAMBDA_BOUND``.
    Each entry is cleared of denominators on its own (``_cleared``).  A
    matrix whose entries are constants or in q alone runs on one packed
    integer per cell (``_l_image``): for constants one bound loop and one
    image loop, with l at a power of 2; other entries, and an image too
    wide, run fraction-free on polynomials (``_condense_rational``).
    """
    return _l_recursion(a, 0)


def lambda_q_det(a: PolyMatrix) -> RationalFunction:
    """The l*q-determinant: the recursion factor is l*q^(size-1).

    The same weighted condensation as ``lambda_det``, up to
    ``LAMBDA_BOUND``, with the factor's own q power: when every entry is a
    constant or in q alone it runs on one packed integer per cell, q and l
    at powers of 2 (``_l_image``), and otherwise, or when that image would
    be above L_IMAGE_MAX_BYTES, fraction-free on polynomials
    (``_condense_rational``).
    """
    return _l_recursion(a, 2)


# random matrices for seeded identity checks -----------------------------------

def random_monomial_matrix(n: int, rng: random.Random) -> PolyMatrix:
    """Entries c * q^(e/2), c in {-3..3} minus 0, e in {0..4} halves."""
    check_size(n)
    def entry() -> Polynomial:
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        e = rng.randrange(5)
        return Polynomial.monomial(c, qh=e)

    return PolyMatrix([[entry() for _ in range(n)] for _ in range(n)])


def random_rational_matrix(n: int, rng: random.Random) -> PolyMatrix:
    """Positive rational constants; keeps every recursion minor nonzero."""
    check_size(n)
    def entry() -> Polynomial:
        return Polynomial.constant(
            Fraction(rng.randrange(1, 100), rng.randrange(1, 10)))

    return PolyMatrix([[entry() for _ in range(n)] for _ in range(n)])


# matrix text format ------------------------------------------------------------

# str.splitlines and str.strip also split at and strip Unicode line breaks
# and spaces; a text that is not ASCII is read with the ASCII ones alone
_LINE_BREAK = re.compile(r"\r\n?|[\n\v\f\x1c-\x1e]")
_SPACE = " \t\n\r\v\f\x1c\x1d\x1e\x1f"


def parse_matrix(text: str) -> PolyMatrix:
    """Read the text format: a first line ``n=<digits>``, then n lines of n
    polynomials separated by ';'.  The text is ASCII: the digits have no
    sign, and a non-ASCII character in a cell is refused.

    Each distinct cell text, stripped, is parsed once per call, and equal
    texts share one (immutable) Polynomial.  A malformed cell raises
    ParseError with the message prefixed by ``row r, column c:`` (1-based)
    and ``pos`` inside the cell; the first one in row-major order is
    reported.
    """
    space = None if text.isascii() else _SPACE
    lines = _LINE_BREAK.split(text) if space else text.splitlines()
    lines = [ln for ln in (raw.strip(space) for raw in lines) if ln]
    header = re.fullmatch(r"(?a)n *=\s*([0-9]+)", lines[0]) if lines else None
    if header is None:
        raise ValueError("matrix file must start with 'n=<digits>'")
    n = int(header[1])
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} matrix rows, found {len(lines) - 1}")
    memo: dict[str, Polynomial] = {}
    rows = []
    for r, ln in enumerate(lines[1:], 1):
        cells = [cell.strip(space) for cell in ln.split(";")]
        if len(cells) != n:
            raise ValueError(
                f"row {r}: expected {n} entries, found {len(cells)}")
        row = []
        for c, cell in enumerate(cells, 1):
            e = memo.get(cell)
            if e is None:
                try:
                    if not cell.isascii():
                        m = re.search(r"[^\x00-\x7f]", cell)
                        raise ParseError(f"non-ASCII character {m[0]!r}",
                                         m.start())
                    e = memo[cell] = parse(cell)
                except ParseError as exc:
                    raise ParseError(f"row {r}, column {c}: {exc.message}",
                                     exc.pos) from None
            row.append(e)
        rows.append(tuple(row))
    return PolyMatrix._raw(tuple(rows))


def format_matrix(a: PolyMatrix) -> str:
    lines = [f"n={a.n}"]
    for row in a.rows:
        lines.append(" ; ".join(format_poly(e) for e in row))
    return "\n".join(lines) + "\n"
