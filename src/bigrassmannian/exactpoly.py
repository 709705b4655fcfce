"""Exact sparse polynomial and rational-function arithmetic.

Values live in Q[q^(1/2), q^(-1/2), l, l^(-1), x1, x2, ...]: coefficients are
exact rationals, the exponent of q may be any half-integer (stored as an
integer count of halves), the exponent of l may be any integer, and the x
variables carry nonnegative integer exponents.

A monomial is the key tuple ``(qh, le, xs)``:

    qh  -- q exponent in halves, so q^(3/2) has qh == 3 and q^2 has qh == 4
    le  -- l exponent
    xs  -- tuple of (variable index, positive exponent), sorted by index

Polynomials are immutable; every operation returns a new canonical value
(no zero coefficients, integral coefficients stored as int).  The text
grammar accepted by :func:`parse` and produced by ``str()`` is::

    poly  := [sign] term { sign term }       sign := '+' | '-'
    term  := coef [ '*' factors ] | factors
    coef  := integer [ '/' positive-integer ]
    factors := factor { '*' factor }
    factor := 'q' [pow] | 'l' [pow] | 'x' index [pow]
    pow   := '^' ( integer | '(' integer ')' | '(' integer '/' '2' ')' )

Whitespace is insignificant.  'l' is the lambda deformation variable.

Products and exact quotients of polynomials in q alone with integer
coefficients go through one packed big-integer kernel (Kronecker
substitution).  The exponents of an operand, in halves, are offsets
``lo + i*g`` from its lowest exponent ``lo``, where ``g`` is the gcd of all
offsets of both operands; coefficient ``c_i`` goes to slot ``i`` of the
integer ``sum c_i X^i`` with ``X = 2^(8w)``, every slot ``w`` bytes wide and
byte aligned.  Packing writes ``c_i + 2^(8w-1)`` into each slot and
subtracts the bias ``sum 2^(8w-1) X^i``; unpacking adds the bias back, cuts
the bytes into slots and subtracts ``2^(8w-1)`` from each, so the digits
read are the balanced digits in ``[-2^(8w-1), 2^(8w-1))``.  Balanced digits
of an integer are unique, so a polynomial whose coefficients all lie below
``2^(8w-1)`` in absolute value is recovered exactly from its value.

A product is exact by construction: its coefficients are bounded by
``max|a| * max|b| * min(len a, len b)`` and ``w`` is chosen above that.
An exact quotient is taken as one ``divmod`` of the packed operands, and
the packed quotient ``Q`` is returned only when it is certified: the
remainder is 0, the quotient's balanced digits over the quotient's slot
count repack to it (unpacking fails otherwise),
``max|B| * max|Q| * len(B) < 2^(8w-1)`` and ``max|A| < 2^(8w-1)``.  Then
the polynomial ``B*Q`` and the dividend ``A`` have the same value at ``X``
and both have all coefficients inside the balanced digit range, so by
uniqueness ``B*Q == A`` term by term.  Every other case -- a nonzero
remainder, an uncertified quotient, a Fraction coefficient -- goes to long
division, which is the only code that raises InexactDivision.  Operands
with few terms skip packing, whose fixed cost they would not repay, and
operands whose exponents are too sparse for dense slots keep the dict
convolution.  :func:`q_permanent` uses the same packing for the
inclusion-exclusion sum of a permanent.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, prod
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

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
PACK_MAX_SLOTS_PER_PRODUCT = 2
# Largest exponent span, in slots, that exact division and the packed
# permanent allocate; both division paths use memory in proportion to it.
SPAN_BOUND = 1 << 20

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


def _pack(f: Mapping[int, int], lo: int, g: int, n: int, w: int) -> int:
    """Value at X = 2^(8w) of sum c * X^((e - lo) / g) over f's items.

    Needs n slots to cover every exponent and |c| < 2^(8w-1) for every c.
    """
    half = 1 << (8 * w - 1)
    digits = [half] * n
    for e, c in f.items():
        digits[(e - lo) // g] = c + half
    if w > _ITEM:
        buf = b"".join(d.to_bytes(w, "little") for d in digits)
    else:
        items = array("Q", digits)
        if sys.byteorder == "big":
            items.byteswap()
        wide = items.tobytes()
        buf = bytearray(n * w)
        for j in range(w):
            buf[j::w] = wide[j::_ITEM]
    return int.from_bytes(buf, "little") - _bias(n, w)


def _unpack(v: int, n: int, w: int) -> list[int]:
    """The n balanced base-2^(8w) digits of v, lowest first.

    Raises OverflowError when v has no such digits (it needs more slots).
    """
    half = 1 << (8 * w - 1)
    buf = (v + _bias(n, w)).to_bytes(n * w, "little")
    if w > _ITEM:
        return [int.from_bytes(buf[i:i + w], "little") - half
                for i in range(0, n * w, w)]
    wide = bytearray(n * _ITEM)
    for j in range(w):
        wide[j::_ITEM] = buf[j::w]
    items = array("Q", wide)
    if sys.byteorder == "big":
        items.byteswap()
    return [d - half for d in items]


def _q_poly(digits: list[int], base: int, g: int) -> "Polynomial":
    """The polynomial in q with coefficient digits[i] at halves base + i*g."""
    exps = range(base, base + len(digits) * g, g)
    return Polynomial._raw({(e, 0, ()): d for e, d in zip(exps, digits) if d})


def _layout(fa: Mapping[int, Coeff], fb: Mapping[int, Coeff]
            ) -> tuple[int, int, int, int, int]:
    """Shared slot layout (lo_a, na, lo_b, nb, g) of two q exponent maps.

    g is the gcd of every exponent's offset from its operand's lowest
    exponent, at least 1 when some operand has two terms; operand a then
    fills slots lo_a + i*g for i < na, and b likewise.
    """
    lo_a, lo_b = min(fa), min(fb)
    g = gcd(*map((-lo_a).__add__, fa), *map((-lo_b).__add__, fb))
    return lo_a, (max(fa) - lo_a) // g + 1, lo_b, (max(fb) - lo_b) // g + 1, g


def _all_int(*fs: Mapping[int, Coeff]) -> bool:
    """True when no coefficient is a Fraction."""
    return not any(Fraction in map(type, f.values()) for f in fs)


def _max_abs(f: Mapping[int, int]) -> int:
    return max(map(abs, f.values()))


def _div_packed(fa: Mapping[int, int], lo_a: int, na: int,
                fb: Mapping[int, int], lo_b: int, nb: int,
                g: int) -> list[int] | None:
    """Certified packed quotient digits of fa / fb, or None.

    None means only that packing proved nothing; the caller decides by long
    division.  The slot width puts max|A| * max|B| * len(B) below 2^(8w-1),
    which makes max|A| < 2^(8w-1) hold and certifies every quotient with
    max|Q| <= max|A|.
    """
    max_b = _max_abs(fb)
    w = _slot_bytes(_max_abs(fa) * max_b * len(fb))
    quot, rem = divmod(_pack(fa, lo_a, g, na, w), _pack(fb, lo_b, g, nb, w))
    if rem:
        return None
    try:
        digits = _unpack(quot, na - nb + 1, w)
    except OverflowError:
        return None
    if max_b * max(map(abs, digits)) * len(fb) >= 1 << (8 * w - 1):
        return None
    return digits


def q_permanent(rows: list[list[Mapping[int, Coeff]]]) -> "Polynomial | None":
    """Permanent of a square matrix of polynomials in q alone, or None.

    Entries are given as {q exponent in halves: coefficient} maps.  The sum
    over column subsets S of (-1)^(n-|S|) prod_rows sum_{c in S} a_rc runs
    on integers: every entry is packed once on one slot layout, and only
    the total is unpacked.  Packing is a ring homomorphism, so the slots
    must hold the entries, to pack them, and the result, to unpack it;
    values in between are plain integers.  None means a Fraction
    coefficient or a layout wider than SPAN_BOUND slots.
    """
    n = len(rows)
    exps = [e for row in rows for f in row for e in f]
    if not exps:
        return ZERO
    if not _all_int(*(f for row in rows for f in row)):
        return None
    lo = min(exps)
    g = gcd(*(e - lo for e in exps)) or 1
    width = (max(exps) - lo) // g + 1
    slots = n * (width - 1) + 1
    if slots > SPAN_BOUND:
        return None
    # each result coefficient is at most the sum over permutations of the
    # products of the entries' absolute coefficient sums
    norms = [[sum(map(abs, f.values())) for f in row] for row in rows]
    bound = min(prod(map(sum, norms)), factorial(n) * prod(map(max, norms)))
    w = _slot_bytes(max(bound, max(map(abs, (c for row in rows for f in row
                                              for c in f.values())))))
    packed = [[_pack(f, lo, g, width, w) for f in row] for row in rows]
    total = 0
    for size in range(1, n + 1):
        negate = (n - size) % 2
        for subset in combinations(range(n), size):
            term = prod(sum(row[c] for c in subset) for row in packed)
            total = total - term if negate else total + term
    return _q_poly(_unpack(total, slots, w), n * lo, g)


class Monomial(NamedTuple):
    """Exponent data of one term; compares and hashes like a plain tuple."""

    qh: int
    le: int
    xs: tuple[tuple[int, int], ...]

    def is_q_integral(self) -> bool:
        return self.qh % 2 == 0


_UNIT_KEY = (0, 0, ())


def _norm_coeff(c: Rational) -> Coeff:
    """Store integral values as int (cheaper arithmetic, same semantics)."""
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return c.numerator
        return c
    return c


def _mul_xs(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    merged: dict[int, int] = dict(a)
    for i, e in b:
        merged[i] = merged.get(i, 0) + e
    return tuple(sorted(merged.items()))


def _max_var(keys: Iterable[tuple]) -> int:
    nv = 0
    for _, _, xs in keys:
        if xs and xs[-1][0] > nv:
            nv = xs[-1][0]
    return nv


def _order_key(key: tuple, nv: int):
    """Total multiplicative order: (qh, le, total x degree, dense x vector)."""
    qh, le, xs = key
    dense = [0] * nv
    deg = 0
    for i, e in xs:
        dense[i - 1] = e
        deg += e
    return (qh, le, deg, tuple(dense))


class Polynomial:
    """Immutable sparse polynomial over exact rationals."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[tuple, Rational] | None = None):
        data: dict[tuple, Coeff] = {}
        if terms:
            for key, c in terms.items():
                c = _norm_coeff(Fraction(c) if not isinstance(c, (int, Fraction)) else c)
                if c:
                    data[tuple(key)] = c
        self._terms = data
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
        key = (qh, le, tuple(sorted((i, e) for i, e in (xs or {}).items() if e)))
        return self._terms.get(key, 0)

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
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == (Polynomial.constant(other)._terms)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c: Rational) -> "Polynomial":
        c = _norm_coeff(c if isinstance(c, (int, Fraction)) else Fraction(c))
        return Polynomial._raw({_UNIT_KEY: c} if c else {})

    @staticmethod
    def monomial(c: Rational, qh: int = 0, le: int = 0,
                 xs: Mapping[int, int] | None = None) -> "Polynomial":
        c = _norm_coeff(c if isinstance(c, (int, Fraction)) else Fraction(c))
        if not c:
            return ZERO
        key = (qh, le, tuple(sorted((i, e) for i, e in (xs or {}).items() if e)))
        for i, e in key[2]:
            if i < 1 or e < 0:
                raise ValueError(f"bad x exponent x{i}^{e}")
        return Polynomial._raw({key: c})

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
        out = dict(self._terms)
        for key, c in other._terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = _norm_coeff(s)
            else:
                out.pop(key, None)
        return Polynomial._raw(out)

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
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return ZERO
        if len(a) < len(b):
            a, b = b, a
        # single-term multiplier: shift once
        if len(b) == 1:
            (kq, kl, kxs), kc = next(iter(b.items()))
            out = {}
            for (qh, le, xs), c in a.items():
                out[(qh + kq, le + kl, _mul_xs(xs, kxs))] = _norm_coeff(c * kc)
            return Polynomial._raw(out)
        if all(k[1] == 0 and not k[2] for k in a) and \
           all(k[1] == 0 and not k[2] for k in b):
            return self._mul_q_only(a, b)
        out = {}
        for (qa, la, xa), ca in a.items():
            for (qb, lb, xb), cb in b.items():
                key = (qa + qb, la + lb, _mul_xs(xa, xb))
                s = out.get(key, 0) + ca * cb
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return Polynomial._raw({k: _norm_coeff(c) for k, c in out.items() if c})

    __rmul__ = __mul__

    @staticmethod
    def _mul_q_only(a: dict, b: dict) -> "Polynomial":
        fa = {k[0]: c for k, c in a.items()}
        fb = {k[0]: c for k, c in b.items()}
        if len(fa) * len(fb) >= PACK_MIN_MUL_WORK and _all_int(fa, fb):
            lo_a, na, lo_b, nb, g = _layout(fa, fb)
            n = na + nb - 1
            if n <= PACK_MAX_SLOTS_PER_PRODUCT * len(fa) * len(fb):
                w = _slot_bytes(_max_abs(fa) * _max_abs(fb)
                                * min(len(fa), len(fb)))
                digits = _unpack(_pack(fa, lo_a, g, na, w)
                                 * _pack(fb, lo_b, g, nb, w), n, w)
                return _q_poly(digits, lo_a + lo_b, g)
        # int-keyed dict convolution for small, sparse or rational operands
        out: dict[int, Coeff] = {}
        for ea, ca in fa.items():
            for eb, cb in fb.items():
                e = ea + eb
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Polynomial._raw(
            {(e, 0, ()): _norm_coeff(c) for e, c in out.items() if c})

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = ONE
        base = self
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
            inv = Fraction(1, 1) / other
            return Polynomial._raw(
                {k: _norm_coeff(c * inv) for k, c in self._terms.items()})
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
            (kq, kl, kxs), kc = next(iter(divisor._terms.items()))
            out = {}
            for (qh, le, xs), c in self._terms.items():
                nxs = _div_xs(xs, kxs)
                if nxs is None:
                    raise InexactDivision(f"{self} is not divisible by {divisor}")
                out[(qh - kq, le - kl, nxs)] = _norm_coeff(Fraction(c, 1) / kc)
            return Polynomial._raw(out)
        if self.is_q_only() and divisor.is_q_only():
            return self._div_q_only(divisor)
        return self._div_generic(divisor)

    def _div_q_only(self, divisor: "Polynomial") -> "Polynomial":
        # the divisor has two or more terms, so the layout has g >= 1
        fa = {k[0]: c for k, c in self._terms.items()}
        fb = {k[0]: c for k, c in divisor._terms.items()}
        lo_a, span, lo_b, nb, g = _layout(fa, fb)
        if span < nb:
            raise InexactDivision(f"{self} is not divisible by {divisor}")
        if span > SPAN_BOUND:
            raise BoundExceeded(
                f"exact division over {span} exponent slots, above the "
                f"bound {SPAN_BOUND}")
        qlen = span - nb + 1
        base = lo_a - lo_b
        if len(fb) * qlen >= PACK_MIN_DIV_WORK and _all_int(fa, fb):
            digits = _div_packed(fa, lo_a, span, fb, lo_b, nb, g)
            if digits is not None:
                return _q_poly(digits, base, g)
        # long division decides whatever packing did not certify
        rem = [0] * span
        for e, c in fa.items():
            rem[(e - lo_a) // g] = c
        div_items = sorted((((e - lo_b) // g, c) for e, c in fb.items()),
                           reverse=True)
        lead_off, lead_c = div_items[0]
        quot = [0] * qlen
        for pos in range(span - 1, lead_off - 1, -1):
            c = rem[pos]
            if not c:
                continue
            qpos = pos - lead_off
            if qpos >= qlen:
                raise InexactDivision(f"{self} is not divisible by {divisor}")
            f = _norm_coeff(Fraction(c, 1) / lead_c)
            quot[qpos] = f
            for off, dc in div_items:
                rem[qpos + off] -= f * dc
        if any(rem):
            raise InexactDivision(f"{self} is not divisible by {divisor}")
        return Polynomial._raw({(base + i * g, 0, ()): _norm_coeff(c)
                                for i, c in enumerate(quot) if c})

    def _div_generic(self, divisor: "Polynomial") -> "Polynomial":
        nv = max(_max_var(self._terms), _max_var(divisor._terms))
        okey = lambda k: _order_key(k, nv)
        box = _quotient_box(self._terms, divisor._terms, nv)
        if box is None:
            raise InexactDivision(f"{self} is not divisible by {divisor}")
        lead = max(divisor._terms, key=okey)
        lead_c = divisor._terms[lead]
        rem = dict(self._terms)
        quot: dict[tuple, Coeff] = {}
        while rem:
            rl = max(rem, key=okey)
            m = _div_key(rl, lead)
            if m is None or not _in_box(m, box, nv):
                raise InexactDivision(f"{self} is not divisible by {divisor}")
            c = _norm_coeff(Fraction(rem[rl], 1) / lead_c)
            quot[m] = c
            for key, dc in divisor._terms.items():
                k = (m[0] + key[0], m[1] + key[1], _mul_xs(m[2], key[2]))
                s = rem.get(k, 0) - c * dc
                if s:
                    rem[k] = s
                else:
                    rem.pop(k, None)
        return Polynomial._raw({k: _norm_coeff(c) for k, c in quot.items()})

    # -- substitution ------------------------------------------------------

    def subs(self, lam: Rational | None = None,
             x: Mapping[int, Rational] | None = None,
             all_x: Rational | None = None) -> "Polynomial":
        """Partially evaluate l and/or x variables; q is never substituted.

        ``all_x`` applies one value to every x variable present.  Raises
        NegativeExponentAtZero when 0 is substituted where a negative
        exponent occurs.
        """
        if lam is None and x is None and all_x is None:
            return self
        xmap = dict(x) if x else {}
        out: dict[tuple, Coeff] = {}
        for (qh, le, xs), c in self._terms.items():
            factor: Rational = 1
            nle = le
            if lam is not None and le:
                if lam == 0 and le < 0:
                    raise NegativeExponentAtZero("l = 0 with negative exponent")
                factor *= Fraction(lam) ** le
                nle = 0
            kept = []
            for i, e in xs:
                v = xmap.get(i, all_x)
                if v is None:
                    kept.append((i, e))
                else:
                    factor *= Fraction(v) ** e
            c2 = _norm_coeff(c * factor)
            if not c2:
                continue
            key = (qh, nle, tuple(kept))
            s = out.get(key, 0) + c2
            if s:
                out[key] = _norm_coeff(s)
            else:
                out.pop(key, None)
        return Polynomial._raw(out)

    def at_q1(self) -> "Polynomial":
        """Substitute q = 1 (always exact, any half-integer exponents)."""
        out: dict[tuple, Coeff] = {}
        for (qh, le, xs), c in self._terms.items():
            key = (0, le, xs)
            s = out.get(key, 0) + c
            if s:
                out[key] = _norm_coeff(s)
            else:
                out.pop(key, None)
        return Polynomial._raw(out)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_poly(self)!r})"


def _div_xs(a: tuple, b: tuple) -> tuple | None:
    if not b:
        return a
    da = dict(a)
    for i, e in b:
        r = da.get(i, 0) - e
        if r < 0:
            return None
        if r:
            da[i] = r
        else:
            da.pop(i, None)
    return tuple(sorted(da.items()))


def _div_key(a: tuple, b: tuple) -> tuple | None:
    xs = _div_xs(a[2], b[2])
    if xs is None:
        return None
    return (a[0] - b[0], a[1] - b[1], xs)


def _quotient_box(a: dict, b: dict, nv: int):
    """Componentwise exponent bounds any exact-quotient monomial must obey.

    For each additive grading (q, l, every x variable, total x degree) the
    extreme slices of a product are products of extreme slices, so the
    quotient's exponents are pinned to [min_a - min_b, max_a - max_b].
    """
    def profile(terms):
        qlo = qhi = llo = lhi = dlo = dhi = None
        xlo = [0] * nv
        xhi = [0] * nv
        first = True
        for qh, le, xs in terms:
            deg = sum(e for _, e in xs)
            dense = [0] * nv
            for i, e in xs:
                dense[i - 1] = e
            if first:
                qlo = qhi = qh
                llo = lhi = le
                dlo = dhi = deg
                xlo = dense[:]
                xhi = dense[:]
                first = False
                continue
            qlo, qhi = min(qlo, qh), max(qhi, qh)
            llo, lhi = min(llo, le), max(lhi, le)
            dlo, dhi = min(dlo, deg), max(dhi, deg)
            for i in range(nv):
                xlo[i] = min(xlo[i], dense[i])
                xhi[i] = max(xhi[i], dense[i])
        return qlo, qhi, llo, lhi, dlo, dhi, xlo, xhi

    aq0, aq1, al0, al1, ad0, ad1, ax0, ax1 = profile(a)
    bq0, bq1, bl0, bl1, bd0, bd1, bx0, bx1 = profile(b)
    box = (
        (aq0 - bq0, aq1 - bq1),
        (al0 - bl0, al1 - bl1),
        (ad0 - bd0, ad1 - bd1),
        [(max(0, ax0[i] - bx0[i]), ax1[i] - bx1[i]) for i in range(nv)],
    )
    if box[0][0] > box[0][1] or box[1][0] > box[1][1] or box[2][0] > box[2][1]:
        return None
    if any(lo > hi for lo, hi in box[3]):
        return None
    return box


def _in_box(m: tuple, box, nv: int) -> bool:
    (q0, q1), (l0, l1), (d0, d1), xr = box
    qh, le, xs = m
    if not (q0 <= qh <= q1 and l0 <= le <= l1):
        return False
    deg = sum(e for _, e in xs)
    if not (d0 <= deg <= d1):
        return False
    dense = [0] * nv
    for i, e in xs:
        dense[i - 1] = e
    return all(lo <= dense[i] <= hi for i, (lo, hi) in enumerate(xr))


# module-level constants and factories ------------------------------------

ZERO = Polynomial._raw({})
ONE = Polynomial._raw({_UNIT_KEY: 1})
Q = Polynomial._raw({(2, 0, ()): 1})
L = Polynomial._raw({(0, 1, ()): 1})


def qpow(halves: int) -> Polynomial:
    """q raised to halves/2; qpow(1) is q^(1/2), qpow(-2) is q^(-1)."""
    return Polynomial._raw({(halves, 0, ()): 1})


def lpow(e: int) -> Polynomial:
    return Polynomial._raw({(0, e, ()): 1})


def xvar(i: int) -> Polynomial:
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

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

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


def _monomial_content(terms: dict) -> tuple:
    qlo = min(k[0] for k in terms)
    llo = min(k[1] for k in terms)
    xlo: dict[int, int] = {}
    for idx, (_, _, xs) in enumerate(terms):
        d = dict(xs)
        if idx == 0:
            xlo = d
        else:
            xlo = {i: min(e, d.get(i, 0)) for i, e in xlo.items() if d.get(i, 0)}
    return (qlo, llo, tuple(sorted((i, e) for i, e in xlo.items() if e)))


def _reduce(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    if num.is_zero():
        return ZERO, ONE
    cn = _monomial_content(num._terms)
    cd = _monomial_content(den._terms)
    common = (min(cn[0], cd[0]), min(cn[1], cd[1]),
              tuple(sorted((i, min(dict(cn[2]).get(i, 0), dict(cd[2]).get(i, 0)))
                           for i in set(dict(cn[2])) & set(dict(cd[2]))
                           if min(dict(cn[2]).get(i, 0), dict(cd[2]).get(i, 0)))))
    if common != _UNIT_KEY:
        # a pure monomial divides both sides exactly by construction
        num = num.div_exact(Polynomial._raw({common: 1}))
        den = den.div_exact(Polynomial._raw({common: 1}))
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
    nv = _max_var(den._terms)
    lead = max(den._terms, key=lambda k: _order_key(k, nv))
    c = den._terms[lead]
    if c == 1:
        return num, den
    return num / c, den / c


# parsing / printing --------------------------------------------------------

def _fmt_exp(halves_or_int: int, half: bool) -> str:
    if half:
        if halves_or_int % 2 == 0:
            e = halves_or_int // 2
            if e == 1:
                return ""
            return f"^{e}" if e >= 0 else f"^({e})"
        return f"^({halves_or_int}/2)"
    e = halves_or_int
    if e == 1:
        return ""
    return f"^{e}" if e >= 0 else f"^({e})"


def format_poly(p: Polynomial) -> str:
    """Canonical text form; ascending in the term order, ASCII grammar."""
    if p.is_zero():
        return "0"
    nv = _max_var(p._terms)
    keys = sorted(p._terms, key=lambda k: _order_key(k, nv))
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


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str):
        got = self.peek()
        if got != ch:
            raise ParseError(f"expected {ch!r}, found {got or 'end of input'!r}",
                             self.pos)
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise ParseError("expected an integer", start)
        return int(self.text[start:self.pos])


def _parse_pow(sc: _Scanner) -> tuple[int, bool]:
    """Return (value, is_halves): plain exponent or (n/2) form."""
    if sc.peek() != "^":
        return 1, False
    sc.take()
    if sc.peek() == "(":
        sc.take()
        n = sc.integer()
        halves = False
        if sc.peek() == "/":
            sc.take()
            sc.skip_ws()
            if sc.peek() != "2":
                raise ParseError("only /2 denominators are allowed in exponents",
                                 sc.pos)
            sc.take()
            halves = True
        sc.expect(")")
        return n, halves
    return sc.integer(), False


def _parse_factor(sc: _Scanner, qh: list, le: list, xs: dict):
    ch = sc.peek()
    if ch == "q":
        sc.take()
        n, halves = _parse_pow(sc)
        qh[0] += n if halves else 2 * n
    elif ch == "l":
        sc.take()
        n, halves = _parse_pow(sc)
        if halves:
            raise ParseError("l exponents must be integers", sc.pos)
        le[0] += n
    elif ch == "x":
        sc.take()
        sc.skip_ws()
        start = sc.pos
        while sc.pos < len(sc.text) and sc.text[sc.pos].isdigit():
            sc.pos += 1
        if sc.pos == start:
            raise ParseError("x must carry a variable index", start)
        idx = int(sc.text[start:sc.pos])
        if idx < 1:
            raise ParseError("x indices start at 1", start)
        n, halves = _parse_pow(sc)
        if halves:
            raise ParseError("x exponents must be integers", sc.pos)
        if n < 0:
            raise ParseError("x exponents must be nonnegative", sc.pos)
        xs[idx] = xs.get(idx, 0) + n
    else:
        raise ParseError(f"expected a factor, found {ch or 'end of input'!r}",
                         sc.pos)


def _parse_term(sc: _Scanner) -> Polynomial:
    coeff: Rational = 1
    if sc.peek().isdigit():
        num = sc.integer()
        if sc.peek() == "/":
            sc.take()
            den = sc.integer()
            if den <= 0:
                raise ParseError("coefficient denominator must be positive",
                                 sc.pos)
            coeff = Fraction(num, den)
        else:
            coeff = num
        if sc.peek() == "*":
            sc.take()
        else:
            return Polynomial.constant(coeff)
    qh, le, xs = [0], [0], {}
    _parse_factor(sc, qh, le, xs)
    while sc.peek() == "*":
        sc.take()
        _parse_factor(sc, qh, le, xs)
    return Polynomial.monomial(coeff, qh=qh[0], le=le[0], xs=xs)


def parse(text: str) -> Polynomial:
    """Parse the ASCII grammar; raises ParseError with a position."""
    sc = _Scanner(text)
    if sc.peek() == "":
        raise ParseError("empty input", 0)
    result = ZERO
    sign = 1
    if sc.peek() in "+-":
        sign = -1 if sc.take() == "-" else 1
    result = result + sign * _parse_term(sc)
    while True:
        ch = sc.peek()
        if ch == "":
            break
        if ch not in "+-":
            raise ParseError(f"expected '+' or '-', found {ch!r}", sc.pos)
        sign = -1 if sc.take() == "-" else 1
        result = result + sign * _parse_term(sc)
    return result
