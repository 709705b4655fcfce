"""Exact sparse polynomial and rational-function arithmetic.

Values live in the Laurent ring Q[q^(+-1/2), l^(+-1), x1^(+-1), x2^(+-1), ...]:
coefficients are exact rationals, the exponent of q may be any half-integer
(stored as an integer count of halves), and the exponents of l and of every
x variable may be any integer.  Every monomial is a unit, so dividing by one
term is a shift and always exact.

A monomial is the key tuple ``(qh, le, xs)``:

    qh  -- q exponent in halves, so q^(3/2) has qh == 3 and q^2 has qh == 4
    le  -- l exponent
    xs  -- tuple of (variable index, nonzero exponent), sorted by index

Polynomials are immutable; every operation returns a new canonical value
(no zero coefficients, integral coefficients stored as int).  Every sum of
terms (the constructor, ``+`` and ``-``, ``subs``, ``at_q1`` and
:func:`parse`) goes through one accumulator, ``_accumulate``, which keeps
its dict canonical as each term is added.
Coefficients are ints and Fractions only: constructors raise TypeError on
a float or a string rather than round it, and on an exponent or index that
is not an int; they sort a key's xs and drop its zero exponents.  The text
grammar accepted by :func:`parse` and produced by ``str()`` is::

    poly  := [sign] term { sign term }       sign := '+' | '-'
    term  := coef [ '*' factors ] | factors
    coef  := digits [ '/' int ]  (int > 0)   int := [sign] digits
    factors := factor { '*' factor }         digits := [0-9]+
    factor := 'q' [pow] | 'l' [pow] | 'x' digits [pow]
    pow   := '^' ( int | '(' int ')' | '(' int '/' '2' ')' )

Whitespace may come before any lexeme, but not inside digits or between an
int's sign and its digits.  Digits are ASCII.  'l' is the lambda variable.

Products and exact quotients go through one packed big-integer kernel
(Kronecker substitution).  Each monomial is first given a mixed-radix slot
index: variable j (q in halves, l, x1, x2, ...) is shifted to zero and
divided by the gcd of both operands' offsets in it, giving a digit ``d_j``
of radix ``r_j``, and the index is ``sum d_j * r_0 * ... * r_(j-1)``.  For
a product ``r_j`` is the sum of both operands' spans in variable j plus
one, so every digit of every product monomial fits and the map is
injective; for a quotient it is the dividend's span plus one, and
``_quotient_box`` gives the range ``[lo_A - lo_B, hi_A - hi_B]`` of each
quotient variable.  Variables that are constant in both operands take no
digit, so in q alone the index is the one q digit.

The coefficient at slot ``i`` goes to ``sum c_i X^i`` with ``X = 2^(8w)``,
every slot ``w`` bytes wide and byte aligned.  Packing (``_pack``, the one
packer) sums one shift ``c_i << 8wi`` per term for an operand of at most
PACK_MAX_SHIFT_TERMS terms, such as a matrix entry; a longer one is
written as bytes, ``c_i + 2^(8w-1)`` in each slot, from which the bias
``sum 2^(8w-1) X^i`` is subtracted.  Both give the same integer.
Unpacking adds the bias back, cuts the bytes into slots and subtracts
``2^(8w-1)`` from each, so the digits read are the
balanced digits in ``[-2^(8w-1), 2^(8w-1))``.  Balanced digits of an
integer are unique, so a polynomial whose coefficients all lie below
``2^(8w-1)`` in absolute value is recovered exactly from its value.
The kernels run on integers.  ``_mul_generic`` and ``_div_generic`` clear
denominators once: each operand is multiplied by the least common
denominator of its coefficients, a divisor also loses its content (the gcd
of its integer coefficients), and :func:`_scaled` scales the result back
as its terms are built, each coefficient an int unless it needs a
fraction.  By Gauss's lemma an exact quotient of an integer polynomial by
a primitive one is integral, so a quotient that would need a fraction does
not exist.

A product is exact by construction: its coefficients are bounded by
``max|a| * max|b| * min(len a, len b)`` and ``w`` is chosen above that.
An exact quotient is divided on packed rows.  The slots are cut into rows
of the top digit, so that row k holds the terms with top digit k (in q and
l, the terms of l^k), and every row is packed at the one width ``w`` on the
slots of the lower digits.  Evaluation at X is a ring homomorphism, so the
packed rows are the coefficients of integer polynomials A(T) and B(T) in
the top variable T, and the schoolbook division of A(T) by B(T) from the
top runs on them: each quotient row is the remainder's top row divided
exactly by B's top row (a shift when that row is one term), and B's other
rows times it are subtracted; every row below B's top row must end at 0.
Evaluation at T = Y = X^s, s the slots of a row, is a homomorphism too,
and it sends each of these polynomials to the one packed integer of the
whole layout; with a single row (q alone, and wherever rows would not pay)
the loop is one ``divmod`` of those integers.  The packed quotient ``Q`` is
returned only when it is certified: every row divides exactly and the low
rows end at 0, so ``B(Y) Q(Y) == A(Y)``; each quotient row's balanced
digits repack to it (unpacking fails otherwise); every nonzero digit sits
at a slot whose decoded exponents lie inside the quotient box; ``max|B| * max|Q| * len(B) < 2^(8w-1)`` and
``max|A| < 2^(8w-1)``.  Then every monomial of ``B*Q`` has its digits
inside the dividend's radices, so ``B*Q`` and the dividend ``A`` have the
same value at ``X`` with all coefficients inside the balanced digit range
and the slot map injective on both; by uniqueness ``B*Q == A`` term by
term.  A row remainder or a nonzero low row proves the division inexact:
an exact quotient is integral and inside the box, so its packed rows
divide A(T) by B(T) exactly in Z[T], where B's top row packs to a nonzero
integer and the division is unique.  An uncertified quotient or a digit
outside the box goes to long division, on the same slot indices: the
index order is a lexicographic monomial order, and a heap keeps the
remainder's leading terms.  Its quotient terms are the exact quotient's,
in order, so the first one that is not integral or lies outside the box
proves the division inexact; so does a lowest dividend coefficient that
the divisor's lowest one does not divide, which is checked first.

Operands with few terms skip packing, whose fixed cost they would not
repay.  A product with more than twice as many slots as term products
keeps the dict convolution (:func:`convolve`, which the signed sum of
``bdet`` also runs on).  A quotient is cut into rows when their products
and divisions, with a fixed cost per step, cost less than one ``divmod``
of the whole layout, quadratic in the packed sizes, and it goes to long
division when the cheaper of the two would cost more than long division's
term products, counted as len(B) times the smaller of len(A) and the
quotient box's slots.  :func:`q_image` packs a whole matrix in q alone on one
layout, so that a computation over its entries runs on integers and only
its result is unpacked; it tests and maps each distinct entry object once
and packs it once per row that holds it, so that for a matrix read from a
file, whose equal cell texts share one entry, that work follows the
distinct entries rather than the n^2 cells.  The permanent's
:func:`inclusion_exclusion` and the condensation loop of ``bdet`` and its
elimination run on these images, and on polynomials where packing does not
apply.  A power of q^(g/2) on an image is a shift by whole slots, so the
elimination keeps the deformation's powers apart from each int, as the
shift count of an odd part, and multiplies and divides only the odd
parts.  The image's slot width needs to cover only the values tested for
zero or unpacked, each a permanent or a determinant of a square submatrix:
the permanent of the entries' coefficient norms bounds the first
(``_norm_bound``), and Hadamard's inequality on the unit circle the second
(``_hadamard_bound``), which is never wider: on determinants of order 7 to
24 it saves 0 to 3 bytes per slot (BENCH_hadamard_width.json).
"""

from __future__ import annotations

import numbers
import re
import sys
from array import array
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import combinations, compress, product
from math import comb, factorial, gcd, isqrt, lcm, prod
from operator import index, mul, or_
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from .errors import (
    BoundExceeded,
    DivisionByZero,
    InexactDivision,
    NegativeExponentAtZero,
    ParseError,
)

Coeff = Union[int, Fraction]
Rational = Union[int, Fraction]

# Packing has a fixed cost that small operands do not repay.  A product is
# packed from this many term products (len(a) * len(b)) up, a quotient from
# this many divisor-term times quotient-slot steps up; below, the dict
# convolution and the long division are faster (microbenchmark in
# CHANGES.md).
PACK_MIN_MUL_WORK = 64
PACK_MIN_DIV_WORK = 16
# A product is packed only when its slot count is at most this many times
# the number of term products; sparser operands keep the dict convolution.
# A quotient is packed only while its row products and divisions cost less
# than long division; _div_packed scales this constant to that crossover.
PACK_MAX_SLOTS_PER_PRODUCT = 2
# Each product or division of packed quotient rows costs this many
# slot-byte products on top of its size, the fixed cost of one step of the
# row loop: rows are taken only when they beat one divmod of the whole
# layout by more (CHANGES.md).
PACK_ROW_STEP = 1 << 11
# Largest exponent span, in slots, that exact division and a packed matrix
# image allocate.  A wider division goes to long division, which raises
# BoundExceeded once its quotient outgrows a product of the operands or
# this many terms.
SPAN_BOUND = 1 << 20
# _pack sums one shift per term up to this many terms, where the shifts
# beat the biased slot bytes at every width and span measured
# (BENCH_matrix_path.json); longer operands are packed as bytes.
PACK_MAX_SHIFT_TERMS = 16

# Slots up to one array item wide are packed and unpacked in C: the digits
# go through an array of these unsigned items, restrided to w bytes each.
_ITEM = array("Q").itemsize


def _slot_bytes(bound: int) -> int:
    """Slot width w such that every digit d with |d| <= bound has
    |d| < 2^(8w-1)."""
    return bound.bit_length() // 8 + 1


def _bias(n: int, w: int) -> int:
    # sum of 2^(8w-1) * X^i over n slots of w bytes
    return int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")


def _digit_bytes(f: Mapping[int, int], lo: int, g: int, n: int, w: int
                 ) -> bytes:
    """The n slots of w bytes holding c + 2^(8w-1) at slot (e - lo) / g for
    each item (e, c) of f and 2^(8w-1) elsewhere, lowest first."""
    half = 1 << (8 * w - 1)
    digits = [half] * n
    for e, c in f.items():
        digits[(e - lo) // g] = c + half
    if w > _ITEM:
        return b"".join(d.to_bytes(w, "little") for d in digits)
    items = array("Q", digits)
    if sys.byteorder == "big":
        items.byteswap()
    wide = items.tobytes()
    buf = bytearray(n * w)
    for j in range(w):
        buf[j::w] = wide[j::_ITEM]
    return buf


def _pack(f: Mapping[int, int], lo: int, g: int, n: int, w: int) -> int:
    """Value at X = 2^(8w) of sum c * X^((e - lo) / g) over f's items.

    Needs n slots to cover every exponent and |c| < 2^(8w-1) for every c.
    Up to PACK_MAX_SHIFT_TERMS items the value is summed one shift per
    item; more are written as biased slot bytes and read as one int.
    """
    if len(f) <= PACK_MAX_SHIFT_TERMS:
        bits = 8 * w
        return sum(c << (e - lo) // g * bits for e, c in f.items())
    return (int.from_bytes(_digit_bytes(f, lo, g, n, w), "little")
            - _bias(n, w))


def _pack_rows(f: Mapping[int, int], rows: int, s: int, n: int, w: int
               ) -> list[int]:
    """``_pack`` of each row of the slot map f: row k is the n slots from
    k*s up, shifted down to 0, and holds every item of f in its range."""
    buf = memoryview(_digit_bytes(f, 0, 1, (rows - 1) * s + n, w))
    step, size, bias = s * w, n * w, _bias(n, w)
    return [int.from_bytes(buf[i:i + size], "little") - bias
            for i in range(0, rows * step, step)]


def _balanced(buf: bytes, w: int) -> list[int]:
    """The balanced digits d - 2^(8w-1) of the w-byte slots d of buf,
    lowest first."""
    half = 1 << (8 * w - 1)
    if w > _ITEM:
        return [int.from_bytes(buf[i:i + w], "little") - half
                for i in range(0, len(buf), w)]
    wide = bytearray(len(buf) // w * _ITEM)
    for j in range(w):
        wide[j::_ITEM] = buf[j::w]
    items = array("Q", wide)
    if sys.byteorder == "big":
        items.byteswap()
    return [d - half for d in items]


def _unpack(v: int, n: int, w: int) -> list[int]:
    """The n balanced base-2^(8w) digits of v, lowest first.

    Raises OverflowError when v has no such digits (it needs more slots).
    """
    return _balanced((v + _bias(n, w)).to_bytes(n * w, "little"), w)


def _unpack_rows(values: Iterable[int], n: int, w: int) -> list[int]:
    """``_unpack`` of each value on n slots, one value after another."""
    bias = _bias(n, w)
    return _balanced(
        b"".join([(v + bias).to_bytes(n * w, "little") for v in values]), w)


def _denominator(f: Mapping[int, Coeff]) -> int:
    """Least common denominator of f's coefficients."""
    if Fraction not in map(type, f.values()):
        return 1
    return lcm(*(c.denominator for c in f.values() if type(c) is Fraction))


def _times(f: Mapping[int, Coeff], d: int) -> Mapping[int, int]:
    """f with every coefficient multiplied by d, a multiple of its
    denominator."""
    if d == 1:
        return f
    # int arithmetic: a Fraction product would reduce by a gcd first
    return {e: c * d if type(c) is int else c.numerator * (d // c.denominator)
            for e, c in f.items()}


def _scaled(f: dict, num: int, den: int) -> dict:
    """f with every integer coefficient times num / den, each canonical;
    f itself when num == den."""
    if num == den:
        return f
    return {k: _quo(c * num, den) for k, c in f.items()}


def _max_abs(f: Mapping[int, int]) -> int:
    return max(map(abs, f.values()))


def _mul_packed(fa: Mapping[int, int], na: int,
                fb: Mapping[int, int], nb: int) -> list[int]:
    """Product coefficients, by slot, of the integer slot maps fa on na
    slots and fb on nb.  A square (fb is fa) is packed once, so the int
    product squares."""
    w = _slot_bytes(_max_abs(fa) * _max_abs(fb) * min(len(fa), len(fb)))
    x = _pack(fa, 0, 1, na, w)
    return _unpack(x * (x if fb is fa else _pack(fb, 0, 1, nb, w)),
                   na + nb - 1, w)


def _div_packed(fa: Mapping[int, int], fb: Mapping[int, int],
                radix: list[int], top: list[int]) -> list[int] | None:
    """Packed quotient coefficients, by slot, of the integer slot map fa by
    the primitive one fb, or None.

    Slots are the dividend's mixed-radix layout and ``top`` bounds the
    quotient's digits, as for ``_long_div``.  The slots are cut into rows
    of the top digit, or left as one row, each row is packed, and the rows
    are divided in the top variable (``_divide_rows``): a row remainder or
    a nonzero low row raises InexactDivision.  The digits are certified up
    to the box check, which is the caller's: ``_grid_terms`` refuses a
    nonzero digit outside the box.  None means only that packing proved
    nothing, or was not tried because long division is cheaper; the caller
    decides by long division.  The slot width puts max|A| * max|B| * len(B)
    below 2^(8w-1), which makes max|A| < 2^(8w-1) hold and certifies every
    quotient with max|Q| <= max|A|.
    """
    steps = _steps(radix)
    nq = 1 + sum(map(mul, top, steps))
    if len(fb) * nq < PACK_MIN_DIV_WORK:
        return None
    max_b = _max_abs(fb)
    w = _slot_bytes(_max_abs(fa) * max_b * len(fb))
    # costs in products of slot bytes: one row is one divmod, quadratic in
    # the packed sizes
    s = prod(radix)
    rows, b_rows, nq_row, unit = 1, 1, nq, None
    cost = nq * (s - nq + 1) * w * w
    t = len(radix) - 1
    while t and radix[t] == 1:
        t -= 1
    if steps[t] > 1:
        # rows of the top digit t, each on the steps[t] slots of the lower
        # digits: per quotient row, a product with each lower divisor row
        # and a division by the top one, a shift when it is one term; each
        # step also costs PACK_ROW_STEP
        s_t = steps[t]
        nq_t = nq - top[t] * s_t
        nb_rows = radix[t] - top[t]
        base = (nb_rows - 1) * s_t
        lead = [e - base for e in fb if e >= base]
        lead_cost = (nq_t * w if len(lead) == 1
                     else (max(lead) - min(lead) + 1) * nq_t * w * w)
        row_cost = (top[t] + 1) * (
            (nb_rows - 1) * (nq_t * (s_t - nq_t + 1) * w * w + PACK_ROW_STEP)
            + lead_cost + PACK_ROW_STEP)
        if row_cost < cost:
            s, rows, b_rows, nq_row = s_t, radix[t], nb_rows, nq_t
            cost = row_cost
            if len(lead) == 1:
                unit = (8 * w * lead[0], fb[lead[0] + base])
    # long division costs about its term products times w: len(B) per
    # quotient term, and the quotient has at most one term per slot of its
    # box and, when dense, about as many as the dividend.  The crossover
    # measured is at about PACK_MAX_SLOTS_PER_PRODUCT * _ITEM^2 = 128
    # slot-byte products per term product and slot byte (CHANGES.md)
    quot_terms = min(len(fa), prod(d + 1 for d in top))
    if cost > (PACK_MAX_SLOTS_PER_PRODUCT * _ITEM ** 2
               * quot_terms * len(fb) * w):
        return None
    quot = _divide_rows(_pack_rows(fa, rows, s, s, w),
                        _pack_rows(fb, b_rows, s, s - nq_row + 1, w), unit)
    # a row of the quotient is unpacked on a row's slots, where a digit
    # above the quotient's slots is one outside the box
    try:
        digits = _unpack_rows(quot, nq if rows == 1 else s, w)
    except OverflowError:
        return None
    if max_b * max(map(abs, digits)) * len(fb) >= 1 << (8 * w - 1):
        return None
    return digits


def _divide_rows(a: list[int], b: list[int],
                 unit: tuple[int, int] | None) -> list[int]:
    """The quotient of sum a_j T^j by sum b_i T^i in Z[T], lowest first.

    Schoolbook from the top: each quotient coefficient is the remainder's
    top coefficient over b's top one, and it is subtracted times b's other
    coefficients.  ``unit`` is (k, c) when b's top coefficient is c * 2^k,
    which is then divided out by a shift.  Raises InexactDivision when a
    top coefficient is not a multiple of b's, or when the rows below b's
    top row do not end at 0.
    """
    nb = len(b)
    lead = b[-1]
    rest = [(i, c) for i, c in enumerate(b[:-1]) if c]
    rem = list(a)
    quot = [0] * (len(a) - nb + 1)
    if unit is not None:
        bits, c = unit
        mask = (1 << bits) - 1
    for k in range(len(quot) - 1, -1, -1):
        r = rem[k + nb - 1]
        if not r:
            continue
        if unit is None:
            r, m = divmod(r, lead)
        else:
            m = r & mask
            r >>= bits
            if c != 1 and not m:
                r, m = divmod(r, c)
        if m:
            raise InexactDivision("packed division leaves a remainder")
        quot[k] = r
        for i, bc in rest:
            rem[k + i] -= r * bc
    if any(rem[:nb - 1]):
        raise InexactDivision("packed division leaves a remainder")
    return quot


def _long_div(fa: Mapping[int, int], fb: Mapping[int, int],
              radix: list[int], span: list[int],
              max_terms: int | None = None) -> dict[int, int]:
    """Quotient slot map of the integer slot map fa by the primitive one
    fb, by long division.

    Slots are mixed radix (lowest digit first): the dividend's digit j
    lies in range(radix[j]), and a quotient slot is valid when its digit j
    is at most span[j].  Slot order is a monomial order, so the divisor's
    leading term is its highest slot; the remainder's leading terms are
    kept in a max-heap, and a slot whose term cancelled stays in the heap
    until popped.  The quotient terms found are those of the exact
    quotient, whose coefficients are integers by Gauss's lemma, so a term
    outside the box or a coefficient the divisor's leading one does not
    divide raises InexactDivision at once.  The same holds at the other
    end: the lowest slot of an exact product is the sum of the lowest slots,
    so the divisor's lowest coefficient divides the dividend's or the
    division is refused before the loop.  Raises BoundExceeded once the
    quotient has more than max_terms terms.
    """
    if fa[min(fa)] % fb[min(fb)]:
        raise InexactDivision("long division needs a fraction")
    lead = max(fb)
    lead_c = fb[lead]
    lead_digits = _digits(lead, radix)
    rest = [(e, c) for e, c in fb.items() if e != lead]
    rem = dict(fa)
    heap = [-e for e in rem]
    heapify(heap)
    quot: dict[int, int] = {}
    while heap:
        top = -heappop(heap)
        c = rem.pop(top, 0)
        if not c:
            continue
        # the quotient term's digits are top's minus the lead's, none
        # borrowing and none beyond the quotient's span
        for t, d, s in zip(_digits(top, radix), lead_digits, span):
            if not 0 <= t - d <= s:
                raise InexactDivision("long division leaves a remainder")
        f, r = divmod(c, lead_c)
        if r:
            raise InexactDivision("long division needs a fraction")
        m = top - lead
        quot[m] = f
        if max_terms is not None and len(quot) > max_terms:
            raise BoundExceeded(
                f"long division quotient above {max_terms} terms")
        for e, dc in rest:
            k = m + e
            old = rem.get(k)
            if old is None:
                rem[k] = -f * dc
                heappush(heap, -k)
            else:
                v = old - f * dc
                if v:
                    rem[k] = v
                else:
                    del rem[k]
    return quot


def _quo(c: Coeff, d: Coeff) -> Coeff:
    """The canonical coefficient c / d, for d != 0."""
    if type(c) is int and type(d) is int:
        return c // d if not c % d else Fraction(c, d)
    return _norm_coeff(c / d)


def _digits(i: int, radix: list[int]) -> list[int]:
    out = []
    for r in radix:
        i, d = divmod(i, r)
        out.append(d)
    return out


# multivariate slot layout ---------------------------------------------------
#
# Variables are numbered 0 (q, in halves), 1 (l) and 1 + i (x_i); a layout
# gives each variable j a gcd g[j], a radix and a step, the product of the
# radices below it.  Variables constant in both operands get radix 1 and
# step 0, so they take no digit.

def _ranges(terms: Iterable[tuple], nv: int) -> list[tuple[int, int, int]]:
    """Per variable (lowest, highest, gcd of offsets from the lowest).

    The x variables are the indices 1..nv, one set each, so an index above
    SPAN_BOUND raises BoundExceeded before any set is built.
    """
    if nv > SPAN_BOUND:
        raise BoundExceeded(f"x index {nv} above bound {SPAN_BOUND}")
    cols = [{k[0] for k in terms}, {k[1] for k in terms}]
    if nv:
        xcols: list[set[int]] = [set() for _ in range(nv)]
        seen = [0] * nv
        for _, _, xs in terms:
            for i, e in xs:
                xcols[i - 1].add(e)
                seen[i - 1] += 1
        for col, count in zip(xcols, seen):
            if count < len(terms):
                col.add(0)
        cols += xcols
    out = []
    for col in cols:
        lo = min(col)
        out.append((lo, max(col), gcd(*[e - lo for e in col])))
    return out


def _layout(a: Mapping[tuple, Coeff], b: Mapping[tuple, Coeff]
            ) -> tuple[list, list, list[int]]:
    """Both operands' ``_ranges`` and each variable's gcd of all offsets."""
    nv = max(_max_var(a), _max_var(b))
    ra, rb = _ranges(a, nv), _ranges(b, nv)
    return ra, rb, [gcd(x[2], y[2]) or 1 for x, y in zip(ra, rb)]


def _steps(radix: list[int]) -> list[int]:
    out, step = [], 1
    for r in radix:
        out.append(step if r > 1 else 0)
        step *= r
    return out


def _index(terms: Mapping[tuple, Coeff], lows: list[int], g: list[int],
           steps: list[int]) -> dict[int, Coeff]:
    """The terms keyed by slot index.

    Every exponent e of x_v is its lowest, lx, plus a multiple of gx, so
    its digit (e - lx) // gx is e // gx - lx // gx.  The second parts are
    summed once into ``xlow``, which also gives an x absent from a key, at
    exponent 0, its digit.
    """
    lq, ll, *lx = lows
    gq, gl, *gx = g
    sq, sl, *sx = steps
    xlow = 0
    for lo, gj, s in zip(lx, gx, sx):
        xlow += lo // gj * s
    out = {}
    for (qh, le, xs), c in terms.items():
        i = (qh - lq) // gq * sq + (le - ll) // gl * sl - xlow
        for v, e in xs:
            i += e // gx[v - 1] * sx[v - 1]
        out[i] = c
    return out


def _grid_terms(coeffs: list[Coeff], lows: list[int], g: list[int],
                radix: list[int], top: list[int]) -> dict[tuple, Coeff] | None:
    """Terms of the coefficients by slot, or None when a nonzero one sits
    at a slot with some digit j above top[j]."""
    # the exponent of each digit of each variable, None above its top
    axes = [[lo + d * gj if d <= t else None for d in range(r)]
            for lo, gj, r, t in zip(lows, g, radix, top)]
    xs_axis: list[tuple | None] = [
        None if None in combo else
        tuple((i, e) for i, e in enumerate(reversed(combo), 1) if e)
        for combo in product(*reversed(axes[2:]))]
    keys = list(compress(product(xs_axis, axes[1], axes[0]), coeffs))
    if any(None in k for k in keys):
        return None
    return {(qh, le, xs): c
            for (xs, le, qh), c in zip(keys, filter(None, coeffs))}


def _key(i: int, lows: list[int], g: list[int], radix: list[int]) -> tuple:
    exps = [lo + d * gj for lo, d, gj in zip(lows, _digits(i, radix), g)]
    return (exps[0], exps[1],
            tuple((v, e) for v, e in enumerate(exps[2:], 1) if e))


def _quotient_box(ra: list[tuple[int, int, int]],
                  rb: list[tuple[int, int, int]]
                  ) -> list[tuple[int, int]] | None:
    """Per variable (lowest, highest) exponent of an exact quotient, or None
    when no quotient exists.

    For each variable the extreme slices of a product are the products of
    the extreme slices, so the quotient's exponents are pinned to
    [lo_a - lo_b, hi_a - hi_b].
    """
    box = [(la - lb, ha - hb) for (la, ha, _), (lb, hb, _) in zip(ra, rb)]
    if any(lo > hi for lo, hi in box):
        return None
    return box


def _norm_bound(norms: list[list[int]]) -> int:
    """A bound on every coefficient of the permanent of every square
    submatrix of a matrix of integer polynomials, given the absolute
    coefficient sums of its entries.

    Each such coefficient is at most the permanent of the entries' absolute
    coefficient sums, which is at most the product of the row sums and at
    most n! times the product of the row maxima.  A zero row counts as 1,
    so the bound holds for the submatrices that skip it and for the
    entries themselves.  A signed sum takes the lower ``_hadamard_bound``.
    """
    return min(prod(max(sum(row), 1) for row in norms),
               factorial(len(norms)) * prod(max(*row, 1) for row in norms))


def _hadamard_bound(norms: list[list[int]]) -> int:
    """A bound on every coefficient of the determinant of every square
    submatrix of a matrix of Laurent polynomials in z = q^(1/2), given the
    absolute coefficient sums N_ij of its entries, and so of bdet, the
    determinant of the deformed matrix.

    A coefficient of a Laurent polynomial is at most its largest modulus
    on |z| = 1 (Cauchy's estimate).  There every entry has modulus at most
    N_ij, and a deformation's monomials have modulus 1, so by Hadamard's
    inequality the determinant has modulus at most the product of the row
    norms, sqrt(sum_j N_ij^2), and an integer coefficient at most the isqrt
    of the product of their squares.  A zero row counts as 1, and a
    submatrix's row norm is at most its row's, so the bound holds for every
    submatrix.  It is at most ``_norm_bound`` (sqrt(sum N^2) <= sum N and
    n^(n/2) <= n!), and a diagonal matrix of nonzero integers attains it.
    """
    return isqrt(prod(max(sum(v * v for v in row), 1) for row in norms))


class QImage(NamedTuple):
    """A square matrix in q alone as integers packed on one slot layout.

    Row i is multiplied by q^(-lo_i/2), lo_i its lowest exponent in halves,
    and by the least common denominator d_i of its coefficients; each entry
    is then an integer polynomial in q^(g/2), and its image is its value at
    X = 2^(8w).  Evaluation is a ring homomorphism, so a ring expression in
    the images is the image of the same expression in the entries.  A
    function linear in each row, evaluated on the images, is the image of
    its value times q^(-lo/2) * den, with lo the sum of the lo_i and den
    the product of the d_i; ``unpack`` undoes both.
    """

    rows: list[list[int]]
    g: int  # halves of q per slot: X stands for q^(g/2)
    w: int  # bytes per slot
    slots: int  # slots of a result
    lo: int
    den: int

    def unpack(self, v: int) -> "Polynomial":
        """The polynomial whose shifted, cleared image is v."""
        exps = range(self.lo, self.lo + self.slots * self.g, self.g)
        digits = _unpack(v, self.slots, self.w)
        return Polynomial._raw(_scaled(
            {(e, 0, ()): d for e, d in zip(exps, digits) if d}, 1, self.den))


def q_image(rows: Sequence[Sequence["Polynomial"]], unit: int,
            weight: int) -> QImage | None:
    """The packed image of a square matrix in q alone, or None.

    It serves a function whose terms are a product of one entry per row
    times +-q^(k/2), with k in [0, weight] a multiple of ``unit``: the
    permanent (unit 0, weight 0) and bdet (unit 2, weight the largest
    2*beta).  The slot unit g is the gcd of ``unit`` and of every
    exponent's offset from its row's lowest, so every term lands on a slot,
    and a result's slots cover the rows' summed spans plus ``weight``.  The
    slot width covers a bound on every coefficient of the function on any
    square submatrix of the cleared rows: ``_hadamard_bound`` for bdet
    (unit 2), which also covers every minor of the deformed matrix that
    condensation and its elimination form, and ``_norm_bound`` for the
    permanent (unit 0).  So such a value's image is 0 exactly when the
    value is, and a result unpacks exactly.  A product formed only to be divided exactly
    needs no bound: evaluation at X is a ring homomorphism, so its image
    divides to the image of the quotient.

    Each distinct entry object (by identity) is tested, mapped and cleared
    once; it is packed once per row that holds it, since the row's lowest
    exponent and denominator enter its image.  The integers are those of
    packing every cell.

    None when an entry is not in q alone, when a result would take more
    than SPAN_BOUND slots, or when more than PACK_MAX_SLOTS_PER_PRODUCT
    slots fall to each exponent a result can have (the sums of one offset
    per row plus one weight): entries with a few far-apart exponents keep
    their polynomials sparse, while every packed value spans the layout.
    """
    cells = [[id(e) for e in row] for row in rows]
    entries = {id(e): e for row in rows for e in row}
    if not all(e.is_q_only() for e in entries.values()):
        return None
    maps = {i: {k[0]: c for k, c in e._terms.items()}
            for i, e in entries.items()}
    kinds = [set(row) for row in cells]
    lows = [min((e for i in row for e in maps[i]), default=0)
            for row in kinds]
    offsets = [{e - lo for i in row for e in maps[i]} or {0}
               for row, lo in zip(kinds, lows)]
    g = gcd(unit, *(o for row in offsets for o in row)) or 1
    slots = (sum(map(max, offsets)) + weight) // g + 1
    if slots > SPAN_BOUND:
        return None
    # the exponents a result can have, as a bit set over the slots
    reach = 1
    for row in offsets:
        reach = reduce(or_, (reach << o // g for o in row))
    if unit:
        done, count = 1, weight // unit + 1
        while done < count:
            add = min(done, count - done)
            reach |= reach << add * unit // g
            done += add
    if slots > PACK_MAX_SLOTS_PER_PRODUCT * reach.bit_count():
        return None
    den = {i: _denominator(f) for i, f in maps.items()}
    # the absolute coefficient sum of an entry cleared by d is d / den times
    # that of the entry cleared by its own den
    norm = {i: sum(map(abs, _times(f, den[i]).values()))
            for i, f in maps.items()}
    dens = [lcm(*(den[i] for i in row)) for row in kinds]
    norms = [[d // den[i] * norm[i] for i in row]
             for row, d in zip(cells, dens)]
    w = _slot_bytes((_hadamard_bound if unit else _norm_bound)(norms))
    packed = []
    for row, kind, lo, d in zip(cells, kinds, lows, dens):
        packs = {}
        for i in kind:
            f = _times(maps[i], d)
            packs[i] = _pack(f, lo, g, (max(f) - lo) // g + 1, w) if f else 0
        packed.append([packs[i] for i in row])
    return QImage(packed, g, w, slots, sum(lows), prod(dens))


def inclusion_exclusion(rows: Sequence[Sequence], zero):
    """Ryser's permanent of a square matrix over a commutative ring.

    The sum over nonempty column subsets S of
    (-1)^(n-|S|) prod_rows sum_{c in S} a_rc, with ``zero`` the ring's
    zero; an empty matrix gives ``zero``.
    """
    n = len(rows)
    total = zero
    for size in range(1, n + 1):
        negate = (n - size) % 2
        for subset in combinations(range(n), size):
            term = prod(sum((row[c] for c in subset), zero) for row in rows)
            total = total - term if negate else total + term
    return total


class Monomial(NamedTuple):
    """Exponent data of one term; compares and hashes like a plain tuple."""

    qh: int
    le: int
    xs: tuple[tuple[int, int], ...]


_UNIT_KEY = (0, 0, ())


def _norm_coeff(c: Rational) -> Coeff:
    """Store integral values as int (cheaper arithmetic, same semantics)."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


def _accumulate(pairs: Iterable[tuple[tuple, Coeff]],
                out: dict[tuple, Coeff]) -> dict[tuple, Coeff]:
    """Add each (key, coefficient) pair into the canonical term dict out.

    A key whose sum cancels is removed and an integral sum is stored as
    int, so out stays canonical.  The keys must be canonical.  Returns out.
    """
    for key, c in pairs:
        s = out.get(key, 0) + c
        if s:
            out[key] = _norm_coeff(s)
        else:
            out.pop(key, None)
    return out


def _exact(c) -> Coeff:
    """c as a canonical coefficient; TypeError unless it is exactly rational."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return _norm_coeff(c)
    if isinstance(c, numbers.Rational):
        return _norm_coeff(Fraction(c))
    raise TypeError(f"coefficient {c!r} is not an int or a Fraction")


def _canonical_key(qh, le, xs: Iterable[tuple[int, int]]) -> tuple:
    """The key of q^(qh/2) l^le prod x_i^e over the pairs (i, e) of xs.

    Sorts xs by index and drops zero exponents.  Raises TypeError for an
    exponent or index that is not an integer, ValueError for an x index
    below 1 or an index given twice.
    """
    if not xs:
        return index(qh), index(le), ()
    pairs = sorted([(index(i), index(e)) for i, e in xs])
    last = 0
    for i, e in pairs:
        if i < 1:
            raise ValueError(f"bad x index x{i}^{e}")
        if i == last:
            raise ValueError(f"x{i} given twice")
        last = i
    return index(qh), index(le), tuple([p for p in pairs if p[1]])


def _power(v: Coeff, e: int) -> Coeff:
    if e < 0 and not v:
        raise NegativeExponentAtZero("0 substituted under a negative exponent")
    # a negative power of an int is a float; a Fraction keeps it exact
    return v ** e if type(v) is int and e >= 0 else Fraction(v) ** e


def _mul_xs(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    merged: dict[int, int] = dict(a)
    for i, e in b:
        s = merged.get(i, 0) + e
        if s:
            merged[i] = s
        else:
            # e != 0, so i was in a: exponents that cancel leave the key
            del merged[i]
    return tuple(sorted(merged.items()))


def convolve(a: Mapping[tuple, int], b: Mapping[tuple, int],
             out: dict[tuple, int]) -> dict[tuple, int]:
    """Add the product of every term of a with every term of b into out.

    The dict product rule on monomial keys, on integer coefficients (the
    callers clear denominators first); sums that cancel are left in out as
    0.  Returns out.
    """
    for (qa, la, xa), ca in a.items():
        for (qb, lb, xb), cb in b.items():
            key = (qa + qb, la + lb, _mul_xs(xa, xb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def _check_power(terms: Mapping[tuple, Coeff], n: int) -> None:
    """Raise BoundExceeded, before any product, when terms ** n would hold
    more than SPAN_BOUND terms or more than SPAN_BOUND bytes of
    coefficients.

    In each variable the power spans n times the base's span, on the gcd
    of the base's offsets, so it has at most the product of n * span / gcd
    + 1 over the variables terms, and at most C(n + t - 1, t - 1), the
    multisets of n of the base's t terms.  With the base cleared by its
    denominator d to absolute coefficient sum s, every coefficient of the
    power is a numerator at most s^n over d^n: n * (log2 s + log2 d) bits.
    The x variables are taken sparsely, so a large index costs nothing.
    """
    t = len(terms)
    cols: dict[int, set[int]] = {-2: set(), -1: set()}
    seen: dict[int, int] = {}
    for qh, le, xs in terms:
        cols[-2].add(qh)
        cols[-1].add(le)
        for i, e in xs:
            cols.setdefault(i, set()).add(e)
            seen[i] = seen.get(i, 0) + 1
    slots = 1
    for i, col in cols.items():
        if seen.get(i, t) < t:
            col.add(0)  # a term without x_i has it at exponent 0
        lo = min(col)
        g = gcd(*[e - lo for e in col])
        if g:
            slots *= n * (max(col) - lo) // g + 1
    slots = min(slots, comb(n + t - 1, t - 1))
    if slots > SPAN_BOUND:
        raise BoundExceeded(f"power's term count above bound {SPAN_BOUND}")
    d = _denominator(terms)
    s = sum(abs(c) for c in _times(terms, d).values())
    bits = n * ((s - 1).bit_length() + (d - 1).bit_length())
    if slots * bits > 8 * SPAN_BOUND:
        raise BoundExceeded(
            f"power's coefficient bits above bound {8 * SPAN_BOUND}")


def _max_var(keys: Iterable[tuple]) -> int:
    nv = 0
    for _, _, xs in keys:
        if xs and xs[-1][0] > nv:
            nv = xs[-1][0]
    return nv


def _order_key(key: tuple):
    """Total multiplicative order: (qh, le, total x degree, x vector),
    where x vectors compare as the dense exponent vectors (x1, x2, ...) do.

    The vector has one entry per x factor, not per index up to the
    largest: (i, e) maps to (1, -i, e) if e > 0 and to (-1, i, e) if
    e < 0, and (0,) ends it, so the larger exponent at the first index
    where two vectors differ, 0 where a factor is absent, wins.
    """
    qh, le, xs = key
    vector = []
    deg = 0
    for i, e in xs:
        vector.append((1, -i, e) if e > 0 else (-1, i, e))
        deg += e
    vector.append((0,))
    return (qh, le, deg, tuple(vector))


class Polynomial:
    """Immutable sparse polynomial over exact rationals."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[tuple, Rational] | None = None):
        self._terms = _accumulate(
            ((_canonical_key(*key), _exact(c))
             for key, c in (terms or {}).items()), {})
        self._hash = None

    @classmethod
    def _raw(cls, data: dict[tuple, Coeff]) -> "Polynomial":
        # trusted constructor: data already canonical
        p = object.__new__(cls)
        p._terms = data
        p._hash = None
        return p

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> Iterator[tuple[Monomial, Coeff]]:
        for key, c in self._terms.items():
            yield Monomial(*key), c

    def coeff(self, qh: int = 0, le: int = 0,
              xs: Mapping[int, int] | None = None) -> Coeff:
        return self._terms.get(_canonical_key(qh, le, (xs or {}).items()), 0)

    def is_q_only(self) -> bool:
        """True when no l or x variable occurs."""
        return all(k[1] == 0 and not k[2] for k in self._terms)

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and _UNIT_KEY in self._terms)

    def constant_value(self) -> Coeff:
        if self.is_zero():
            return 0
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self._terms[_UNIT_KEY]

    def q_degree_halves(self) -> int | None:
        """Largest q exponent in halves, or None for the zero polynomial."""
        if not self._terms:
            return None
        return max(k[0] for k in self._terms)

    def q_coefficients(self) -> dict[int, Coeff]:
        """Map q exponent (in whole powers) -> coefficient.

        Only valid for polynomials in q alone with integral exponents.
        """
        out: dict[int, Coeff] = {}
        for (qh, le, xs), c in self._terms.items():
            if le or xs or qh % 2:
                raise ValueError("not a polynomial in integral powers of q")
            out[qh // 2] = c
        return out

    # -- equality / hashing ----------------------------------------------

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # a constant equals its coefficient, so it hashes like it
        if self._hash is None:
            t = self._terms
            if not t:
                self._hash = hash(0)
            elif len(t) == 1 and _UNIT_KEY in t:
                self._hash = hash(t[_UNIT_KEY])
            else:
                self._hash = hash(frozenset(t.items()))
        return self._hash

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c: Rational) -> "Polynomial":
        c = _exact(c)
        return Polynomial._raw({_UNIT_KEY: c} if c else {})

    @staticmethod
    def monomial(c: Rational, qh: int = 0, le: int = 0,
                 xs: Mapping[int, int] | None = None) -> "Polynomial":
        c = _exact(c)
        key = _canonical_key(qh, le, (xs or {}).items())
        return Polynomial._raw({key: c}) if c else ZERO

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other)
        return None

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        return Polynomial._raw(
            _accumulate(other._terms.items(), dict(self._terms)))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw({k: -c for k, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        if type(other) is int:
            # a scalar keeps every key; an int product needs no reduction
            return Polynomial._raw(
                {k: c * other if type(c) is int else _norm_coeff(c * other)
                 for k, c in self._terms.items()}) if other else ZERO
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self, other
        if len(a._terms) < len(b._terms):
            a, b = b, a
        if not b._terms:
            return ZERO
        if len(b._terms) == 1:
            return a._shift(b)
        return self._mul_generic(a._terms, b._terms)

    __rmul__ = __mul__

    def _shift(self, unit: "Polynomial") -> "Polynomial":
        """self times the one-term polynomial unit: one shift per term."""
        ((kq, kl, kxs), kc), = unit._terms.items()
        # int arithmetic for an int c: a Fraction product reduces by gcds
        n, d = kc.numerator, kc.denominator
        return Polynomial._raw(
            {(qh + kq, le + kl, _mul_xs(xs, kxs)): _quo(c * n, d)
             for (qh, le, xs), c in self._terms.items()})

    @staticmethod
    def _mul_generic(a: dict, b: dict) -> "Polynomial":
        # the kernels multiply the cleared integer operands; the product is
        # divided by den as its terms are built; a square is indexed once,
        # for _mul_packed's squaring
        da, db = _denominator(a), _denominator(b)
        ia, ib, den = _times(a, da), _times(b, db), da * db
        if len(a) * len(b) >= PACK_MIN_MUL_WORK:
            ra, rb, g = _layout(a, b)
            top_a = [(hi - lo) // gj for (lo, hi, _), gj in zip(ra, g)]
            top_b = [(hi - lo) // gj for (lo, hi, _), gj in zip(rb, g)]
            radix = [ta + tb + 1 for ta, tb in zip(top_a, top_b)]
            if prod(radix) <= PACK_MAX_SLOTS_PER_PRODUCT * len(a) * len(b):
                steps = _steps(radix)
                fa = _index(ia, [x[0] for x in ra], g, steps)
                coeffs = _mul_packed(
                    fa, 1 + sum(map(mul, top_a, steps)),
                    fa if a is b else _index(ib, [y[0] for y in rb], g, steps),
                    1 + sum(map(mul, top_b, steps)))
                return Polynomial._raw(_scaled(_grid_terms(
                    coeffs, [x[0] + y[0] for x, y in zip(ra, rb)], g, radix,
                    [r - 1 for r in radix]), 1, den))
        # dict convolution for small or sparse operands
        return Polynomial._raw(_scaled(
            {k: c for k, c in convolve(ia, ib, {}).items() if c}, 1, den))

    def __pow__(self, n: int) -> "Polynomial":
        # the Laurent ring holds the inverse of a monomial, and of nothing else
        if not isinstance(n, int):
            raise ValueError("exponent must be an integer")
        base = self
        if n < 0:
            if len(self) != 1:
                raise ValueError("a negative exponent needs a one-term base")
            base, n = self._inverse(), -n
        elif len(self) > 1:
            _check_power(self._terms, n)
        result = ONE
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other) -> "Polynomial":
        # scalar division only; polynomial quotients go through div_exact
        # or RationalFunction
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise DivisionByZero("division by zero scalar")
            return Polynomial._raw(
                {k: _quo(c, other) for k, c in self._terms.items()})
        return NotImplemented

    # -- exact division ----------------------------------------------------

    def div_exact(self, divisor: "Polynomial") -> "Polynomial":
        """Return c with self == divisor * c, else raise InexactDivision."""
        if not isinstance(divisor, Polynomial):
            divisor = Polynomial.constant(divisor)
        if divisor.is_zero():
            raise DivisionByZero("exact division by zero polynomial")
        if self.is_zero():
            return ZERO
        if len(divisor) == 1:
            # a monomial is a unit: shift by its inverse
            return self._shift(divisor._inverse())
        return self._div_generic(divisor)

    def _inverse(self) -> "Polynomial":
        """The inverse of a one-term polynomial, the ring's only units."""
        ((qh, le, xs), c), = self._terms.items()
        return Polynomial._raw(
            {(-qh, -le, tuple([(i, -e) for i, e in xs])): _quo(1, c)})

    def _div_generic(self, divisor: "Polynomial") -> "Polynomial":
        a, b = self._terms, divisor._terms
        ra, rb, g = _layout(a, b)
        box = _quotient_box(ra, rb)
        if box is None:
            # the message names no operand: printing a large one costs more
            # than the refusal
            raise InexactDivision("the divisor spans more exponents of a "
                                  "variable than the dividend")
        # the kernels divide the cleared dividend by the cleared, primitive
        # divisor, so an exact quotient is integral (Gauss's lemma); its
        # terms are scaled by num / den as they are built
        da, db = _denominator(a), _denominator(b)
        a, b = _times(a, da), _times(b, db)
        content = gcd(*b.values())
        if content != 1:
            b = {k: c // content for k, c in b.items()}
        num, den = db, da * content
        # slots of the dividend's layout; the quotient's digit j runs up to
        # top[j], from its lowest exponent lows[j]
        radix = [(hi - lo) // gj + 1 for (lo, hi, _), gj in zip(ra, g)]
        top = [(hi - lo) // gj for (lo, hi), gj in zip(box, g)]
        lows = [lo for lo, _ in box]
        steps = _steps(radix)
        fa = _index(a, [x[0] for x in ra], g, steps)
        fb = _index(b, [y[0] for y in rb], g, steps)
        max_terms = None
        if prod(radix) <= SPAN_BOUND:
            coeffs = _div_packed(fa, fb, radix, top)
            terms = coeffs and _grid_terms(coeffs, lows, g, radix, top)
            if terms:
                return Polynomial._raw(_scaled(terms, num, den))
        else:
            # a layout this wide is affordable only for a sparse quotient;
            # one with more terms than a product of the operands is filling
            # the layout's gaps term by term
            max_terms = min(SPAN_BOUND, len(a) * len(b))
        quot = _long_div(fa, fb, radix, top, max_terms)
        return Polynomial._raw(_scaled({_key(i, lows, g, radix): c
                                        for i, c in quot.items()}, num, den))

    # -- substitution ------------------------------------------------------

    def subs(self, lam: Rational | None = None,
             x: Mapping[int, Rational] | None = None,
             all_x: Rational | None = None) -> "Polynomial":
        """Partially evaluate l and/or x variables; q is never substituted.

        ``all_x`` applies one value to every x variable present.  Raises
        TypeError unless every value is exactly rational, and
        NegativeExponentAtZero when 0 is substituted where a negative
        exponent occurs.
        """
        if lam is None and x is None and all_x is None:
            return self
        if lam is not None:
            lam = _exact(lam)
        if all_x is not None:
            all_x = _exact(all_x)
        xmap = {i: _exact(v) for i, v in x.items()} if x else {}

        def substituted():
            for (qh, le, xs), c in self._terms.items():
                if lam is not None and le:
                    c, le = c * _power(lam, le), 0
                kept = []
                for i, e in xs:
                    v = xmap.get(i, all_x)
                    if v is None:
                        kept.append((i, e))
                    else:
                        c *= _power(v, e)
                yield (qh, le, tuple(kept)), c

        return Polynomial._raw(_accumulate(substituted(), {}))

    def at_q1(self) -> "Polynomial":
        """Substitute q = 1 (always exact, any half-integer exponents)."""
        return Polynomial._raw(_accumulate(
            (((0, le, xs), c) for (_, le, xs), c in self._terms.items()), {}))

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_poly(self)!r})"


# module-level constants and factories ------------------------------------

ZERO = Polynomial._raw({})
ONE = Polynomial._raw({_UNIT_KEY: 1})
Q = Polynomial._raw({(2, 0, ()): 1})
L = Polynomial._raw({(0, 1, ()): 1})


def qpow(halves: int) -> Polynomial:
    """q raised to halves/2; qpow(1) is q^(1/2), qpow(-2) is q^(-1)."""
    return Polynomial._raw({(index(halves), 0, ()): 1})


def lpow(e: int) -> Polynomial:
    return Polynomial._raw({(0, index(e), ()): 1})


def xvar(i: int) -> Polynomial:
    i = index(i)
    if i < 1:
        raise ValueError("x variables are indexed from 1")
    return Polynomial._raw({(0, 0, ((i, 1),)): 1})


# rational functions -------------------------------------------------------

class RationalFunction:
    """Quotient of two polynomials with cross-multiplication equality.

    Reduction is deliberately cheap: common monomial content is cancelled,
    exact division is attempted in both directions, and the denominator is
    scaled monic.  No multivariate gcd is computed; equality never needs it.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial = ONE):
        num = num if isinstance(num, Polynomial) else Polynomial.constant(num)
        den = den if isinstance(den, Polynomial) else Polynomial.constant(den)
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        self.num, self.den = _reduce(num, den)

    @staticmethod
    def _coerce(v) -> "RationalFunction | None":
        if isinstance(v, RationalFunction):
            return v
        if isinstance(v, Polynomial):
            return RationalFunction(v)
        if isinstance(v, (int, Fraction)):
            return RationalFunction(Polynomial.constant(v))
        return None

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.num.is_zero():
            raise DivisionByZero("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> "RationalFunction":
        # a negative power inverts first; inverting zero raises DivisionByZero
        if not isinstance(n, int):
            raise ValueError("exponent must be an integer")
        if n < 0:
            return RationalFunction(self.den ** -n, self.num ** -n)
        return RationalFunction(self.num ** n, self.den ** n)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    # equal values need not have equal (num, den) pairs, and reduction
    # computes no gcd, so no invariant is cheap to hash
    __hash__ = None

    def subs(self, lam: Rational | None = None,
             x: Mapping[int, Rational] | None = None,
             all_x: Rational | None = None) -> "RationalFunction":
        den = self.den.subs(lam=lam, x=x, all_x=all_x)
        if den.is_zero():
            raise DivisionByZero("substitution made the denominator zero")
        return RationalFunction(self.num.subs(lam=lam, x=x, all_x=all_x), den)

    def to_polynomial(self) -> Polynomial:
        """Exact polynomial value; raises InexactDivision when not one."""
        return self.num.div_exact(self.den)

    def __str__(self) -> str:
        if self.den == ONE:
            return format_poly(self.num)
        return f"({format_poly(self.num)}) / ({format_poly(self.den)})"

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"


def _reduce(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    if num.is_zero():
        return ZERO, ONE
    # the lowest exponent of each variable over both sides, an absent x at 0
    terms = [*num._terms, *den._terms]
    qlo, llo, *xlo = (lo for lo, _, _ in _ranges(terms, _max_var(terms)))
    common = Polynomial._raw(
        {(qlo, llo, tuple((i, e) for i, e in enumerate(xlo, 1) if e)): 1})
    if common != ONE:
        num, den = num.div_exact(common), den.div_exact(common)
    # a quotient too wide to compute is treated like one that does not exist
    try:
        return num.div_exact(den), ONE
    except (InexactDivision, BoundExceeded):
        pass
    try:
        inv = den.div_exact(num)
        return _monic(ONE, inv)
    except (InexactDivision, BoundExceeded):
        pass
    return _monic(num, den)


def _monic(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    lead = max(den._terms, key=_order_key)
    c = den._terms[lead]
    if c == 1:
        return num, den
    return num / c, den / c


# parsing / printing --------------------------------------------------------

def _fmt_exp(e: int, half: bool) -> str:
    # e counts halves when half is set; a whole power prints as an int one
    if half:
        if e % 2:
            return f"^({e}/2)"
        e //= 2
    if e == 1:
        return ""
    return f"^{e}" if e >= 0 else f"^({e})"


def format_poly(p: Polynomial) -> str:
    """Canonical text form; ascending in the term order, ASCII grammar.

    Without x variables the term order is the order of the keys
    (qh, le, ()), so those terms are sorted as keys and printed from q and
    l alone.
    """
    if p.is_zero():
        return "0"
    if not _max_var(p._terms):
        # without x the keys (qh, le, ()) sort in the term order
        out = []
        for (qh, le, _), c in sorted(p._terms.items()):
            out.append(" - " if c < 0 else " + ")
            c = abs(c)
            if qh:
                mono = "q" + _fmt_exp(qh, half=True)
                if le:
                    mono += "*l" + _fmt_exp(le, half=False)
            elif le:
                mono = "l" + _fmt_exp(le, half=False)
            else:
                out.append(str(c))
                continue
            out.append(mono if c == 1 else f"{c}*{mono}")
        out[0] = "-" if out[0] == " - " else ""
        return "".join(out)
    keys = sorted(p._terms, key=_order_key)
    parts: list[str] = []
    for key in keys:
        qh, le, xs = key
        c = p._terms[key]
        neg = c < 0
        c = -c if neg else c
        factors: list[str] = []
        if qh:
            factors.append("q" + _fmt_exp(qh, half=True))
        if le:
            factors.append("l" + _fmt_exp(le, half=False))
        for i, e in xs:
            factors.append(f"x{i}" + _fmt_exp(e, half=False))
        if not factors:
            body = str(c)
        elif c == 1:
            body = "*".join(factors)
        else:
            body = str(c) + "*" + "*".join(factors)
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


# One pattern per lexeme; each skips the whitespace before it.  Digits are
# [0-9]: str.isdigit() and int() take other Unicode digits too.  Whitespace
# is ASCII: without re.ASCII, \s takes U+00A0, U+3000 and the like.  A
# lexeme that may be absent matches empty, ending where it was due.
_SIGN = re.compile(r"\s*([+-]?)", re.ASCII)
_STAR = re.compile(r"\s*(\*?)", re.ASCII)
_COEF = re.compile(r"\s*([0-9]+)(?:\s*(/\s*)([+-]?[0-9]+|))?\s*(\*?)",
                   re.ASCII)
_FACTOR = re.compile(r"\s*(?:([ql])|x\s*([0-9]*)|)", re.ASCII)
# ^int, ^(int) or ^(int/2); every part after the '^' is optional, so that a
# malformed exponent matches up to the first missing part
_EXP = re.compile(r"\s*\^\s*(?:([+-]?[0-9]+)|\(\s*(?:([+-]?[0-9]+)\s*"
                  r"(?:(/\s*)(2)?\s*)?(\))?)?)?", re.ASCII)
# the whitespace that \s matches under re.ASCII
_ASCII_SPACE = " \t\n\r\v\f"


def _expected(what: str, text: str, pos: int) -> ParseError:
    found = text[pos:pos + 1] or "end of input"
    return ParseError(f"expected {what}, found {found!r}", pos)


def _literal(m: re.Match, group: int) -> int:
    # int() refuses literals over the interpreter's digit limit with a bare
    # ValueError
    try:
        return int(m[group])
    except ValueError:
        raise ParseError("integer literal too long", m.start(group)) from None


def parse(text: str) -> Polynomial:
    """Parse the ASCII grammar; raises ParseError with a position."""
    if not text.strip(_ASCII_SPACE):
        raise ParseError("empty input", 0)
    pairs = []
    sign = _SIGN.match(text)
    while True:
        # a term: a coefficient, factors, or both joined by '*'
        coeff, qh, le, xs = 1, 0, 0, {}
        m = _COEF.match(text, sign.end())
        more, pos = m is None, sign.end()
        if m:
            _, slash, den, star = m.groups()
            coeff, more, pos = _literal(m, 1), star == "*", m.end()
            if slash and not den:
                raise ParseError("expected an integer", m.start(3))
            if slash and _literal(m, 3) <= 0:
                raise ParseError("coefficient denominator must be positive",
                                 m.end(3))
            if slash:
                coeff = Fraction(coeff, _literal(m, 3))
        while more:
            m = _FACTOR.match(text, pos)
            var, index = m.groups()
            if var is None and index is None:
                raise _expected("a factor", text, m.end())
            if index == "":
                raise ParseError("x must carry a variable index", m.end())
            if index:
                index = _literal(m, 2)
                if index < 1:
                    raise ParseError("x indices start at 1", m.start(2))
            n, halves, pos = 1, False, m.end()
            m = _EXP.match(text, pos)
            if m:
                plain, num, half, two, close = m.groups()
                if plain is None and num is None:
                    raise ParseError("expected an integer", m.end())
                n = _literal(m, 1 if plain is not None else 2)
                halves, pos = half is not None, m.end()
                if half and not two:
                    raise ParseError(
                        "only /2 denominators are allowed in exponents",
                        m.end(3))
                if num is not None and close is None:
                    raise _expected("')'", text, pos)
            if halves and var != "q":
                raise ParseError(f"{var or 'x'} exponents must be integers",
                                 pos)
            if var == "q":
                qh += n if halves else 2 * n
            elif var == "l":
                le += n
            else:
                xs[index] = xs.get(index, 0) + n
            m = _STAR.match(text, pos)
            more, pos = m[1] == "*", m.end()
        pairs.append((_canonical_key(qh, le, xs.items()),
                      -coeff if sign[1] == "-" else coeff))
        sign = _SIGN.match(text, pos)
        if not sign[1]:
            break
    if sign.end() < len(text):
        raise _expected("'+' or '-'", text, sign.end())
    return Polynomial._raw(_accumulate(pairs, {}))


def ascii_int(text: str) -> int:
    """``int(text)`` restricted to ASCII digits, without '_' separators."""
    if re.fullmatch(r"\s*[+-]?[0-9]+\s*", text, re.ASCII):
        return int(text)
    raise ValueError(f"expected an integer in ASCII digits, found {text!r}")
