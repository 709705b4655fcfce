import copy
import itertools
import pickle
import random
import sys
import time
from array import array
from fractions import Fraction
from functools import reduce
from math import factorial, gcd, isqrt, lcm, prod
from operator import or_

import pytest

from bigrassmannian.errors import BoundExceeded, ParseError, ZeroMinor
from bigrassmannian.exactpoly import (
    L,
    ONE,
    Q,
    ZERO,
    PACK_MAX_SLOTS_PER_PRODUCT,
    SPAN_BOUND,
    Polynomial,
    QImage,
    RationalFunction,
    _denominator,
    lpow,
    parse,
    q_image,
    qpow,
    xvar,
)
from bigrassmannian.bdet import (
    B_DOUBLE_PRIME,
    B_FAMILY,
    B_PRIME,
    PolyMatrix,
    _divide_image,
    bdet_condense,
    bdet_definition,
    bdet_via_deformation,
    condensation_identity_check,
    deform,
    det_classic,
    format_matrix,
    lambda_det,
    lambda_q_det,
    little_invariance_check,
    parse_matrix,
    permanent_q,
    random_monomial_matrix,
    random_rational_matrix,
)
from bigrassmannian.bpoly import bn_lambda_q, bn_product
from bigrassmannian.permstat import Permutation, length_and_beta
from bigrassmannian import bdet as bdet_mod

B3 = parse("1 - 2*q + 2*q^3 - q^4")


def symbol_matrix(n):
    """Entries are distinct x variables, so products act like free symbols."""
    return PolyMatrix([
        [Polynomial.monomial(1, xs={n * i + j + 1: 1}) for j in range(n)]
        for i in range(n)])


def test_det_classic_identity_matrix():
    eye = PolyMatrix([[ONE if i == j else ZERO for j in range(3)]
                      for i in range(3)])
    assert det_classic(eye) == ONE


def test_det_classic_2x2_pattern():
    m = symbol_matrix(2)
    a, b, c, d = (m[(i, j)] for i in range(2) for j in range(2))
    assert det_classic(m) == a * d - b * c


def test_det_classic_deformed_ones_3x3():
    # cofactor expansion by hand gives (1-q)^2 (1-q^2), not (1-q)^3
    assert det_classic(deform(PolyMatrix.ones(3))) == B3
    assert B3 == (ONE - Q) ** 2 * (ONE - Q ** 2)


def test_bdet_small_matrices():
    assert bdet_definition(PolyMatrix([[xvar(1)]])) == xvar(1)
    m = symbol_matrix(2)
    a, b, c, d = (m[(i, j)] for i in range(2) for j in range(2))
    assert bdet_definition(m) == a * d - Q * b * c


def test_bdet_3x3_six_terms():
    m = symbol_matrix(3)
    e = lambda i, j: m[(i - 1, j - 1)]
    expected = (e(1, 1) * e(2, 2) * e(3, 3)
                - Q * e(1, 2) * e(2, 1) * e(3, 3)
                - Q * e(1, 1) * e(2, 3) * e(3, 2)
                + Q ** 3 * e(1, 2) * e(2, 3) * e(3, 1)
                + Q ** 3 * e(1, 3) * e(2, 1) * e(3, 2)
                - Q ** 4 * e(1, 3) * e(2, 2) * e(3, 1))
    assert bdet_definition(m) == expected


def test_bdet_empty_matrix_is_one():
    assert bdet_definition(PolyMatrix([])) == ONE
    assert bdet_condense(PolyMatrix([])) == ONE


def test_deform_b_on_ones_4x4():
    d = deform(PolyMatrix.ones(4))
    assert d[(0, 0)] == ONE
    assert d[(0, 1)] == qpow(1)
    assert d[(0, 2)] == qpow(4)
    assert d[(0, 3)] == qpow(9)
    assert d[(3, 0)] == qpow(9)


def test_deform_b_prime_keeps_diagonal():
    m = symbol_matrix(3)
    d = deform(m, B_PRIME)
    for i in range(3):
        assert d[(i, i)] == m[(i, i)]
    # off-diagonal needs q^-1: entry (1,2) gets q^(1*(1-2)) = q^-1
    assert d[(0, 1)] == qpow(-2) * m[(0, 1)]


def test_b_double_prime_is_transpose_rule():
    rng = random.Random(42)
    for _ in range(5):
        m = random_monomial_matrix(4, rng)
        assert deform(m.transpose(), B_PRIME).transpose() == deform(m, B_DOUBLE_PRIME)


def _leibniz_reference(a, q_weighted):
    """The signed sum one permutation at a time: a ``Permutation``, one
    inversion scan and n polynomial products each."""
    total = ZERO
    for word in itertools.permutations(range(1, a.n + 1)):
        prod = ONE
        for i, wi in enumerate(word):
            prod = prod * a[(i, wi - 1)]
        if prod.is_zero():
            continue
        ell, bet = length_and_beta(Permutation(word))
        coeff = qpow(2 * bet) if q_weighted else ONE
        total = total + (-coeff if ell % 2 else coeff) * prod
    return total


@pytest.mark.parametrize("n", range(7))
def test_mask_sum_weighs_every_permutation_by_its_own_length_and_beta(n):
    # distinct symbols make each permutation its own monomial, so every
    # one of the n! signs and q^beta steps is checked on its own
    a = symbol_matrix(n)
    assert bdet_definition(a) == _leibniz_reference(a, True)
    assert det_classic(a) == _leibniz_reference(a, False)


def test_leibniz_walk_equals_the_permutation_sum():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # the denominators differ, so rows clear by different lcms
    coeffs = st.sampled_from((1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3),
                              Fraction(7, 4), Fraction(2, 9)))
    terms = st.builds(
        lambda c, qh, le, x: Polynomial.monomial(c, qh=qh, le=le, xs=dict([x])),
        coeffs, st.integers(-3, 4), st.integers(-2, 2),
        st.tuples(st.integers(1, 2), st.integers(0, 2)))
    # often zero, sometimes several terms that may cancel
    entries = st.lists(terms, max_size=2).map(lambda ts: sum(ts, ZERO))

    @st.composite
    def matrices(draw):
        # cells pick from a few drawn entries: drawing all 36 is slow
        n = draw(st.integers(0, 6))
        palette = draw(st.lists(entries, min_size=1, max_size=6))
        picks = iter(draw(st.lists(st.integers(0, len(palette) - 1),
                                   min_size=n * n, max_size=n * n)))
        return PolyMatrix([[palette[next(picks)] for _ in range(n)]
                           for _ in range(n)])

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(matrices(), st.booleans())
    def check(a, q_weighted):
        route = bdet_definition if q_weighted else det_classic
        assert route(a) == _leibniz_reference(a, q_weighted)

    check()


@pytest.mark.parametrize("n", [9, 10])
def test_mask_sum_above_the_leibniz_bound_matches_condensation(n):
    # with max_n raised, the defining sum runs past the n! walk's reach;
    # one matrix dense, one with about half its entries zero
    rng = random.Random(n)
    dense = random_monomial_matrix(n, rng)
    half = PolyMatrix([[e if rng.random() < 0.5 else ZERO for e in row]
                       for row in random_monomial_matrix(n, rng).rows])
    for a in (dense, half):
        value = bdet_definition(a, max_n=n)
        assert value == bdet_condense(a) and not value.is_zero()


def test_det_classic_at_ten_matches_the_l_determinant_at_minus_one():
    # lambda_det at l = -1 is det by condensation on a packed l image, a
    # route that shares no code with the mask sum
    a = random_rational_matrix(10, random.Random(10))
    value = det_classic(a, max_n=10)
    assert lambda_det(a).subs(lam=-1) == RationalFunction(value)
    assert not value.is_zero()


def test_mask_sum_without_a_nonzero_permutation_is_zero():
    rng = random.Random(3)
    rows = [list(row) for row in random_monomial_matrix(5, rng).rows]
    rows[2] = [ZERO] * 5
    # rows 1-3 have nonzero entries in columns 1-2 only, so no placement of
    # them survives the third row and the full mask is never reached
    narrow = [[e if c < 2 or r > 2 else ZERO for c, e in enumerate(row)]
              for r, row in enumerate(random_monomial_matrix(5, rng).rows)]
    for a in (PolyMatrix(rows), PolyMatrix(narrow)):
        assert bdet_definition(a) == det_classic(a) == ZERO
    # every permutation is nonzero, but the sum cancels
    assert det_classic(PolyMatrix.ones(4)) == ZERO


@pytest.mark.parametrize("n", [-1, -2])
def test_negative_sizes_raise_for_matrices_and_permutations(n):
    # each returned the empty matrix or permutation, so that
    # bdet_condense(PolyMatrix.ones(-2)) was 1
    message = f"^size must be nonnegative, got {n}$"
    rng = random.Random(0)
    for call in (PolyMatrix.ones, Permutation.identity,
                 lambda n: random_monomial_matrix(n, rng),
                 lambda n: random_rational_matrix(n, rng)):
        with pytest.raises(ValueError, match=message):
            call(n)
    # size 0 stays valid: the empty matrix, whose bdet is 1
    assert bdet_condense(PolyMatrix.ones(0)) == ONE
    assert random_monomial_matrix(0, rng).n == random_rational_matrix(0, rng).n == 0
    assert Permutation.identity(0).n == 0


def test_bdet_via_deformation_matches_definition():
    rng = random.Random(42)
    assert bdet_via_deformation(PolyMatrix.ones(3)) == B3
    assert bdet_via_deformation(PolyMatrix.ones(4)) == bn_product(4)
    for _ in range(10):
        a = random_monomial_matrix(3, rng)
        assert bdet_via_deformation(a) == bdet_definition(a)


def test_little_invariance():
    t1, t2, t3 = little_invariance_check(PolyMatrix.ones(3))
    assert t1 == t2 == t3 == B3
    eye = PolyMatrix([[ONE if i == j else ZERO for j in range(3)]
                      for i in range(3)])
    assert little_invariance_check(eye) == (ONE, ONE, ONE)
    rng = random.Random(42)
    for _ in range(50):
        a = random_monomial_matrix(4, rng)
        u, v, w = little_invariance_check(a)
        assert u == v == w


def test_condense_2x2_base_case():
    m = symbol_matrix(2)
    a, b, c, d = (m[(i, j)] for i in range(2) for j in range(2))
    assert bdet_condense(m) == a * d - Q * b * c


def test_condense_all_ones_matches_product():
    for n in range(1, 9):
        assert bdet_condense(PolyMatrix.ones(n)) == bn_product(n)


def test_condense_enforces_its_bound():
    from bigrassmannian.bdet import CONDENSE_BOUND
    assert CONDENSE_BOUND == 30
    with pytest.raises(BoundExceeded):
        bdet_condense(PolyMatrix.ones(31))
    with pytest.raises(BoundExceeded):
        bdet_condense(PolyMatrix.ones(4), max_n=3)
    assert bdet_condense(PolyMatrix.ones(4), max_n=4) == bn_product(4)


def test_condense_zero_interior_falls_back():
    a = PolyMatrix([[ONE, 2 * ONE, ONE],
                    [ONE, ZERO, ONE],
                    [3 * ONE, ONE, ONE]])
    assert bdet_condense(a) == bdet_definition(a)
    # zero interior in a 4x4 as well
    rows = [[ONE] * 4 for _ in range(4)]
    rows[1][1] = ZERO
    rows[2][2] = ZERO
    b = PolyMatrix(rows)
    assert bdet_condense(b) == bdet_definition(b)


def _count_fallbacks(monkeypatch):
    """Replace the zero-minor fallback by a wrapper that records the size
    of each matrix it eliminates; return that list."""
    sizes = []
    eliminate = bdet_mod._det_cofactor

    def counted(rows, *rest):
        sizes.append(len(rows))
        return eliminate(rows, *rest)

    monkeypatch.setattr(bdet_mod, "_det_cofactor", counted)
    return sizes


def test_condense_agrees_on_random_matrices(monkeypatch):
    rng = random.Random(42)
    for n in (2, 3, 4, 5):
        for _ in range(5):
            a = random_monomial_matrix(n, rng)
            assert bdet_condense(a) == bdet_definition(a)
    # about half the entries zero: a zero interior minor sends the matrix
    # to elimination of the whole deformed matrix, and some determinants
    # vanish
    fallbacks = _count_fallbacks(monkeypatch)
    rng = random.Random(7)
    zeros = 0
    for n in (2, 3, 4, 5, 6):
        for _ in range(4):
            a = PolyMatrix([[e if rng.random() < 0.5 else ZERO for e in row]
                            for row in random_monomial_matrix(n, rng).rows])
            value = bdet_condense(a)
            assert value == bdet_definition(a) == bdet_via_deformation(a)
            zeros += value.is_zero()
    assert len(fallbacks) > 10 and max(fallbacks) == 6 and zeros > 0


def _singular_band(n, rng):
    """A random monomial matrix whose deformed rows n/2 + 1 and n/2 + 2
    (1-based) are equal.  Every contiguous minor holding both rows is
    then deformed by a shifted diagonal that keeps them proportional, so
    it vanishes, and so does bdet; no row is zero."""
    rows = [list(row) for row in random_monomial_matrix(n, rng).rows]
    i = n // 2
    rows[i + 1] = [e * qpow(-(2 * (i - j) + 1)) for j, e in enumerate(rows[i])]
    return PolyMatrix(rows)


def _divide_counted(calls):
    def divide(num, divisor):
        calls.append(divisor)
        return _divide_image(num, divisor)
    return divide


def test_elimination_swaps_rows_and_stops_at_a_column_without_pivot():
    calls = []
    eliminate = bdet_mod._det_cofactor
    # the second pivot is zero and the row below it is not: one swap
    assert eliminate([[1, 1, 5], [1, 1, 7], [2, 3, 4]], 0, 1,
                     _divide_counted(calls)) == -2
    assert eliminate([[0, 1], [1, 0]], 0, 1, _divide_image) == -1
    # the first two columns are proportional: after the first step the
    # second column has no pivot, and the last step never runs
    calls.clear()
    assert eliminate([[1, 2, 3], [2, 4, 5], [3, 6, 7]], 0, 1,
                     _divide_counted(calls)) == 0
    assert calls == [1] * 4
    assert eliminate([], 0, 1, _divide_image) == 1
    assert eliminate([[ZERO]], ZERO, ONE, Polynomial.div_exact) == ZERO


def test_condense_falls_back_on_a_singular_band(monkeypatch):
    fallbacks = _count_fallbacks(monkeypatch)
    rng = random.Random(11)
    for n in (5, 6, 7, 8):
        a = _singular_band(n, rng)
        assert q_image(a.rows, 2, n * (n * n - 1) // 3) is not None
        assert bdet_condense(a) == bdet_definition(a) == ZERO
    assert fallbacks == [5, 6, 7, 8]


def test_condense_fallback_swaps_rows_for_a_nonzero_determinant(monkeypatch):
    fallbacks = _count_fallbacks(monkeypatch)
    rng = random.Random(12)
    for n in (4, 6, 8):
        rows = [list(row) for row in random_monomial_matrix(n, rng).rows]
        # a zero diagonal: whatever the order of the pivots, the first is
        # zero, and so is the interior minor of every size-3 cell
        for i in range(n):
            rows[i][i] = ZERO
        a = PolyMatrix(rows)
        value = bdet_condense(a)
        assert not value.is_zero() and value == bdet_definition(a)
    assert fallbacks == [4, 6, 8]


def test_condense_fallback_runs_out_of_pivots(monkeypatch):
    fallbacks = _count_fallbacks(monkeypatch)
    rng = random.Random(13)
    for n in (5, 6, 8):
        # deformed columns 2 and 3 (1-based) proportional: the interior
        # minor of the 4x4 cells at column 1 vanishes, and elimination
        # finds no pivot in whichever of the two columns it takes second
        rows = [list(row) for row in random_monomial_matrix(n, rng).rows]
        for i, row in enumerate(rows):
            row[2] = row[1] * qpow(2 * (i - 1) - 1)
        a = PolyMatrix(rows)
        assert bdet_condense(a) == bdet_definition(a) == ZERO
    assert fallbacks == [5, 6, 8]


def test_condense_fallback_on_polynomials(monkeypatch):
    fallbacks = _count_fallbacks(monkeypatch)
    rng = random.Random(14)
    pool = (ONE, -2 * ONE, L, Fraction(1, 2) * Q, xvar(1), L * xvar(2),
            qpow(-1) * xvar(1))
    values = []
    for n in (3, 4, 5, 6):
        for _ in range(3):
            rows = [[rng.choice(pool) if rng.random() < 0.6 else ZERO
                     for _ in range(n)] for _ in range(n)]
            rows[1][1] = ZERO
            a = PolyMatrix(rows)
            assert q_image(a.rows, 2, n * (n * n - 1) // 3) is None
            values.append(bdet_condense(a))
            assert values[-1] == bdet_definition(a)
    assert len(fallbacks) == 12
    assert any(v.is_zero() for v in values)
    assert any(not v.is_zero() for v in values)


def test_condense_singular_band_at_n12_is_zero(monkeypatch):
    fallbacks = _count_fallbacks(monkeypatch)
    assert bdet_condense(_singular_band(12, random.Random(3))) == ZERO
    assert fallbacks == [12]


def _fallback_cases(n, rng):
    """Seeded q-only matrices of size n, by name, most of which stop
    condensation at a zero interior minor.  Each entry is c * q^(e/2) or 0;
    ``step`` 1 allows half powers, 2 whole powers only."""
    def matrix(coeffs, step, zeros=0.5):
        return [[Polynomial.monomial(rng.choice(coeffs), qh=step * rng.randrange(5))
                 if rng.random() >= zeros else ZERO for _ in range(n)]
                for _ in range(n)]

    signed = (-3, -2, -1, 1, 2, 3)
    fractions = (Fraction(-3, 2), -1, Fraction(2, 3), Fraction(-5, 4), 4)
    cases = {"half zeros": matrix(signed, 1),
             "whole powers": matrix(signed, 2),
             "fractions": matrix(fractions, 1)}
    # elimination takes the middle row first, so a zero there swaps rows
    middle = min(range(n), key=lambda k: abs(2 * k - n + 1))
    cases["zero middle pivot"] = matrix(signed, 1, zeros=0)
    cases["zero middle pivot"][middle][middle] = ZERO
    cases["zero column"] = matrix(fractions, 2, zeros=0.3)
    for row in cases["zero column"]:
        row[middle] = ZERO
    cases = {name: PolyMatrix(rows) for name, rows in cases.items()}
    if n >= 3:
        cases["singular band"] = _singular_band(n, rng)
    return cases


@pytest.mark.parametrize("n", range(1, 9))
def test_condense_fallback_differential(monkeypatch, n):
    # every case runs on the packed image; from n = 3, where condensation
    # first divides, the zero pivot and the zero column always stop it, and
    # from n = 5 the singular band (its interior holds both equal rows), and
    # send the whole deformed matrix to elimination on odd parts, where it
    # swaps rows, finds no pivot or cancels to 0
    fallbacks = _count_fallbacks(monkeypatch)
    cases = _fallback_cases(n, random.Random(300 + n))
    stops = {"zero middle pivot", "zero column"} | (
        {"singular band"} if n >= 5 else set())
    for name, a in cases.items():
        image = q_image(a.rows, 2, n * (n * n - 1) // 3)
        assert image is not None, name
        if name == "whole powers":
            assert image.g == 2
        before = len(fallbacks)
        value = bdet_condense(a)
        assert value == bdet_definition(a), name
        if n >= 3 and name in stops:
            assert fallbacks[before:] == [n], name
        if name in ("zero column", "singular band"):
            assert value == ZERO
    assert len(fallbacks) >= len(stops) * (n >= 3)


def _evaluate(p, z):
    """A polynomial in q alone with integer coefficients and nonnegative
    exponents at q^(1/2) = z."""
    return sum(c * z ** qh for (qh, _, _), c in p._terms.items())


def test_elimination_on_odd_parts_equals_elimination_on_polynomials():
    # int rows with trailing zero bits (the powers of z) and negative odd
    # parts, as the deformed image has them, and a zero middle entry that
    # swaps rows; evaluation at z is a ring homomorphism, so the int
    # determinant is the polynomial one evaluated
    eliminate = bdet_mod._det_cofactor
    rng = random.Random(21)
    z, shifted, negatives = 1 << 24, 0, 0
    for n in (1, 2, 3, 5, 6, 8):
        for zeros in (0.0, 0.5):
            rows = [[Polynomial.monomial(rng.choice((-12, -3, -1, 2, 5, 6)),
                                         qh=rng.randrange(5))
                     if rng.random() >= zeros else ZERO for _ in range(n)]
                    for _ in range(n)]
            rows[(n - 1) // 2][(n - 1) // 2] = ZERO
            deformed = deform(PolyMatrix(rows)).rows
            ints = [[_evaluate(e, z) for e in row] for row in deformed]
            pairs = [list(map(bdet_mod._odd_part, row)) for row in ints]
            shifted += sum(t >= 24 for row in pairs for _, t in row)
            negatives += sum(e < 0 for row in pairs for e, _ in row)
            expected = eliminate(deformed, ZERO, ONE, Polynomial.div_exact)
            value = eliminate(pairs, 0, 1, _divide_image, bdet_mod._odd_part)
            assert value == _evaluate(expected, z)
            assert value == eliminate(ints, 0, 1, _divide_image)
    assert shifted > 100 and negatives > 50
    assert bdet_mod._odd_part(0) == (0, 0)
    assert bdet_mod._odd_part(-40) == (-5, 3)


def test_bdet_routes_agree_on_small_matrices():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeffs = st.sampled_from((1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)))
    # an entry is a list of (exponent, coefficient) terms, often empty
    entries = st.lists(st.tuples(st.integers(-2, 3), coeffs), max_size=2)

    @st.composite
    def matrices(draw):
        # whole or half powers of q, and sometimes an x variable, which
        # keeps the polynomial ring in play
        n = draw(st.integers(0, 5))
        step = draw(st.sampled_from((1, 2)))
        cells = iter(draw(st.lists(entries, min_size=n * n, max_size=n * n)))
        rows = [[sum((c * qpow(step * e) for e, c in next(cells)), ZERO)
                 for _ in range(n)] for _ in range(n)]
        if n and draw(st.booleans()):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            rows[i][j] = rows[i][j] + xvar(1)
        return PolyMatrix(rows)

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(matrices())
    def check(a):
        assert bdet_condense(a) == bdet_definition(a) == bdet_via_deformation(a)

    check()


def per_cell_q_image(rows, unit, weight):
    """q_image as it was built, cell by cell over all n^2 entries, with
    each cleared entry packed as its plain digit sum.  The slot width
    covers Hadamard's bound for a signed sum (unit 2) and the permanent of
    the norms for the permanent (unit 0)."""
    if not all(e.is_q_only() for row in rows for e in row):
        return None
    maps = [[{k[0]: c for k, c in e._terms.items()} for e in row]
            for row in rows]
    lows = [min((e for f in row for e in f), default=0) for row in maps]
    offsets = [{e - lo for f in row for e in f} or {0}
               for row, lo in zip(maps, lows)]
    g = gcd(unit, *(o for row in offsets for o in row)) or 1
    slots = (sum(map(max, offsets)) + weight) // g + 1
    if slots > SPAN_BOUND:
        return None
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
    dens = [lcm(*map(_denominator, row)) for row in maps]
    cleared = [[{e: int(c * d) for e, c in f.items()} for f in row]
               for row, d in zip(maps, dens)]
    norms = [[sum(map(abs, f.values())) for f in row] for row in cleared]
    if unit:
        bound = isqrt(prod(max(sum(v * v for v in row), 1) for row in norms))
    else:
        bound = min(prod(max(sum(row), 1) for row in norms),
                    factorial(len(norms)) * prod(max(*row, 1)
                                                 for row in norms))
    w = bound.bit_length() // 8 + 1
    x = 1 << 8 * w
    packed = [[sum(c * x ** ((e - lo) // g) for e, c in f.items())
               for f in row] for row, lo in zip(cleared, lows)]
    return QImage(packed, g, w, slots, sum(lows), prod(dens))


def q_image_matrices():
    rng = random.Random(2024)
    signed = [q * s for q in (ONE, Q, qpow(1), qpow(3), Q ** 2) for s in (1, -1)]
    for n in (0, 1, 2, 4, 7):
        yield random_monomial_matrix(n, rng)
        yield PolyMatrix.ones(n)
    for n in (3, 6, 9):
        # half the entries 0, the rest shared objects +-q^(k/2)
        yield PolyMatrix([[ZERO if j in set(rng.sample(range(n), n // 2))
                           else rng.choice(signed) for j in range(n)]
                          for _ in range(n)])
        yield PolyMatrix([[Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
                           * qpow(rng.randrange(-3, 4))
                           + rng.randrange(-2, 3) * qpow(rng.randrange(-5, 2))
                           for _ in range(n)] for _ in range(n)])
        yield PolyMatrix([[rng.choice((qpow(-1), -qpow(-3), 2 * qpow(-5), ONE))
                           for _ in range(n)] for _ in range(n)])
    # one object in rows with different lows and different denominators
    e = qpow(3) + Fraction(1, 2) * qpow(5)
    yield PolyMatrix([[e, qpow(-1), e], [Q, e, Fraction(1, 3) * e],
                      [e, e, qpow(-7)]])
    # too sparse for an image, and not in q alone
    yield PolyMatrix([[rng.choice((ONE, -ONE, qpow(10000), -qpow(10000)))
                       for _ in range(5)] for _ in range(5)])
    yield PolyMatrix([[ONE, L], [Q, ONE]])


def test_q_image_equals_the_per_cell_image():
    outcomes = []
    for a in q_image_matrices():
        n = a.n
        for unit, weight in ((2, n * (n * n - 1) // 3), (0, 0)):
            image = q_image(a.rows, unit, weight)
            assert image == per_cell_q_image(a.rows, unit, weight)
            outcomes.append(image is None)
    assert outcomes.count(False) >= 40 and outcomes.count(True) >= 3


# The slot width of a signed sum's image is set by Hadamard's bound: every
# value the packed condensation and its elimination test for zero or
# unpack is the determinant of a square submatrix of the deformed matrix.

def sylvester(order, rng=None):
    """The Sylvester +-1 Hadamard matrix of the given order; with rng, each
    entry times q^(k/2), k drawn from 0..3."""
    h = [[1]]
    while len(h) < order:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return PolyMatrix([[x * qpow(rng.randrange(4) if rng else 0) for x in row]
                       for row in h])


def diagonal(*entries):
    n = len(entries)
    return PolyMatrix([[entries[i] if i == j else ZERO for j in range(n)]
                       for i in range(n)])


def hadamard_bound(a):
    """isqrt of the product over rows of the sum of the squared absolute
    coefficient sums, for a matrix of integer polynomials in q."""
    norms = [[sum(abs(c) for _, c in e.terms()) for e in row]
             for row in a.rows]
    return isqrt(prod(max(sum(v * v for v in row), 1) for row in norms))


def largest_coefficient(p):
    return max((abs(c) for _, c in p.terms()), default=0)


def submatrix(a, rows, cols):
    return PolyMatrix([[a[(i, j)] for j in cols] for i in rows])


def contiguous_blocks(a):
    for size in range(1, a.n + 1):
        for r in range(a.n - size + 1):
            for c in range(a.n - size + 1):
                yield submatrix(a, range(r, r + size), range(c, c + size))


def square_minors(a):
    """Every square minor of a, keyed by its (row mask, column mask)."""
    for k in range(1, a.n + 1):
        for rows in itertools.combinations(range(a.n), k):
            for cols in itertools.combinations(range(a.n), k):
                key = (sum(1 << i for i in rows), sum(1 << j for j in cols))
                yield key, submatrix(a, rows, cols)


def deformed_minor_maxima(a):
    """The largest absolute coefficient of every square minor of deform(a),
    keyed by (row mask, column mask), for a matrix of integers times
    nonnegative powers of q^(1/2).

    Laplace expansion along each minor's last row, on the minors' values at
    q^(1/2) = 2^64: a minor of k rows is a sum of k entries times minors
    of k - 1 rows, and every entry is one term, so each product is a
    shift.  Every coefficient is at most k! * max|a|^k < 2^63 here.
    """
    n, bits = a.n, 64
    entries = []
    for row in deform(a).rows:
        packed = []
        for e in row:
            terms = [(c, m.qh * bits) for m, c in e.terms()]
            assert len(terms) <= 1 and all(shift >= 0 for _, shift in terms)
            packed.append(terms)
        entries.append(packed)
    minors, values = {(0, 0): 1}, {}
    for k in range(1, n + 1):
        larger = {}
        for (rmask, cmask), m in minors.items():
            for r in range(rmask.bit_length(), n):
                for c in range(n):
                    if cmask >> c & 1:
                        continue
                    for coeff, shift in entries[r][c]:
                        j = (cmask & ((1 << c) - 1)).bit_count()
                        term = (-coeff if (k - 1 + j) % 2 else coeff) * m
                        key = (rmask | 1 << r, cmask | 1 << c)
                        larger[key] = larger.get(key, 0) + (term << shift)
        values.update(larger)
        minors = larger
    half = 1 << bits - 1
    width = max((abs(v).bit_length() for v in values.values()),
                default=0) // bits + 2
    biases = int.from_bytes(half.to_bytes(8, "little") * width, "little")
    maxima = {}
    for key, v in values.items():
        slots = abs(v).bit_length() // bits + 2
        bias = biases & (1 << slots * bits) - 1
        digits = array("Q", (v + bias).to_bytes(slots * 8, "little"))
        if sys.byteorder == "big":
            digits.byteswap()
        maxima[key] = max(max(digits) - half, half - min(digits))
    return maxima


def bound_cases():
    rng = random.Random(2026)
    signs = (ONE, -ONE)
    for n in (4, 5):
        for _ in range(2):
            yield random_monomial_matrix(n, rng)
            yield PolyMatrix([[ZERO if rng.random() < 0.5
                               else rng.choice(signs) * qpow(rng.randrange(5))
                               for _ in range(n)] for _ in range(n)])
    for order in (2, 4, 8):
        yield sylvester(order)
        yield sylvester(order, rng)


# diagonal matrices whose determinant sits at a byte edge: a slot one byte
# narrower than the width taken would not hold it
BYTE_EDGES = [
    (diagonal(127 * ONE, ONE, Q), 127, 1),
    (diagonal(2 * ONE, 8 * qpow(1), 8 * Q), 128, 2),
    (diagonal(-ONE, 2 * Q, 8 * ONE, 8 * qpow(3)), 128, 2),
    (diagonal(7 * ONE, 31 * qpow(1), 151 * ONE, ONE), 32767, 2),
    (diagonal(8 * ONE, 16 * Q, 16 * ONE, 16 * qpow(1)), 32768, 3),
]


def check_hadamard_width(a):
    """Every value a signed image tests or unpacks has every coefficient
    within Hadamard's bound, below the image's 2^(8w-1); condensation
    gives bdet.  Returns the bound and the deformed minors' maxima."""
    n = a.n
    image = q_image(a.rows, 2, n * (n * n - 1) // 3)
    bound = hadamard_bound(a)
    assert image is not None and bound < 1 << 8 * image.w - 1
    for block in contiguous_blocks(a):
        assert largest_coefficient(bdet_definition(block)) <= bound
    maxima = deformed_minor_maxima(a)
    assert max(maxima.values(), default=0) <= bound
    assert bdet_condense(a) == bdet_definition(a, max_n=n)
    return bound, maxima


def classic_minor_maxima(a):
    """deformed_minor_maxima by det_classic on every minor, zeros left out
    (the Laplace expansion may give a minor that is 0 no key)."""
    return {key: v for key, m in square_minors(deform(a))
            if (v := largest_coefficient(det_classic(m)))}


def test_hadamard_bound_covers_every_minor_a_signed_image_forms():
    for a in bound_cases():
        _, maxima = check_hadamard_width(a)
        if a.n <= 5:
            assert {key: v for key, v in maxima.items() if v} == (
                classic_minor_maxima(a))


def test_hadamard_bound_at_the_byte_edges():
    for a, value, w in BYTE_EDGES:
        n = a.n
        bound, maxima = check_hadamard_width(a)
        assert bound == abs(value)
        assert maxima == classic_minor_maxima(a)
        assert q_image(a.rows, 2, n * (n * n - 1) // 3).w == w
        # a diagonal matrix's bdet is its one term, which meets the bound
        det = bdet_definition(a)
        assert len(det) == 1 and largest_coefficient(det) == abs(value)


def test_permanent_image_keeps_the_permanent_width():
    # Reading's deformed all-ones at n = 8: the permanent's bound, 8! =
    # 40320, takes 3 bytes, where Hadamard's bound, 8^4, would take 2
    a = deform(PolyMatrix.ones(8))
    assert q_image(a.rows, 0, 0).w == 3
    assert q_image(a.rows, 2, 8 * 63 // 3).w == 2


def test_hadamard_width_on_small_monomial_matrices():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entries = st.tuples(st.integers(-3, 3), st.integers(0, 4))

    @st.composite
    def matrices(draw):
        n = draw(st.integers(1, 4))
        cells = iter(draw(st.lists(entries, min_size=n * n, max_size=n * n)))
        return PolyMatrix([[c * qpow(e) for c, e in itertools.islice(cells, n)]
                           for _ in range(n)])

    @hypothesis.settings(max_examples=30, deadline=None, database=None)
    @hypothesis.given(matrices())
    def check(a):
        n = a.n
        hypothesis.assume(q_image(a.rows, 2, n * (n * n - 1) // 3) is not None)
        check_hadamard_width(a)

    check()


def test_condense_wider_than_span_bound_runs_on_polynomials():
    big = qpow(2 ** 41)  # q^(2^40): each row spans about 2^40 slots
    a = PolyMatrix([[ONE, big, Q], [big, qpow(1), ONE], [ONE, 2 * ONE, big]])
    assert q_image(a.rows, 2, 8) is None
    start = time.perf_counter()
    value = bdet_condense(a)
    assert time.perf_counter() - start < 1.0
    assert str(value) == ("-2*q - q^(11/2) + q^(2199023255553/2) + q^1099511627779"
                          " + 2*q^1099511627780 - q^3298534883329")
    assert value == bdet_definition(a)
    # inside SPAN_BOUND, but the entries' sums reach few of the layout's
    # slots: the polynomials stay sparse where the image would not
    rng = random.Random(5)
    a = PolyMatrix([[rng.choice((ONE, -ONE, qpow(10000), -qpow(10000)))
                     for _ in range(5)] for _ in range(5)])
    assert q_image(a.rows, 2, 40) is None
    assert bdet_condense(a) == bdet_definition(a)


def test_bdet_at_q1_is_classical_determinant():
    rng = random.Random(42)
    for n in (2, 3, 4):
        for _ in range(5):
            a = random_monomial_matrix(n, rng)
            assert bdet_definition(a).at_q1() == det_classic(a).at_q1()


def test_deformed_symmetric_matrix_transposes_invariantly():
    # (i-j)^2 is symmetric, so deforming a symmetric matrix stays symmetric
    for n in (3, 4):
        d = deform(PolyMatrix.ones(n))
        assert d.transpose() == d
        assert det_classic(d.transpose()) == det_classic(d)


def test_condensation_identity_small():
    assert condensation_identity_check(PolyMatrix.ones(2))
    assert condensation_identity_check(PolyMatrix.ones(3))
    # by hand at n=3: B_3 * 1 == B_2^2 - q^2 * B_2^2
    lhs = B3 * ONE
    b2 = ONE - Q
    assert lhs == b2 * b2 - Q ** 2 * b2 * b2


def test_permanent_coefficients_are_symmetric():
    import math
    for n in (3, 4, 5, 6):
        coeffs = permanent_q(deform(PolyMatrix.ones(n))).q_coefficients()
        top = math.comb(n + 1, 3)
        assert all(coeffs.get(e, 0) == coeffs.get(top - e, 0)
                   for e in range(top + 1))


def _brute_permanent(a):
    import itertools
    total = ZERO
    for word in itertools.permutations(range(a.n)):
        prod = ONE
        for i, c in enumerate(word):
            prod = prod * a[(i, c)]
        total = total + prod
    return total


def test_permanent_matches_brute_force():
    rng = random.Random(5)
    for _ in range(5):
        a = random_monomial_matrix(4, rng)
        assert permanent_q(a) == _brute_permanent(a)


def test_permanent_zero_row_with_wide_entries():
    # a zero row makes the result 0, so the slots must still be sized for
    # the entries of the other rows, here of one and of nine bytes
    for big in (200, -(1 << 70) - 3):
        a = PolyMatrix([[ZERO, ZERO], [big * Q, ONE]])
        assert permanent_q(a) == _brute_permanent(a) == ZERO
        a = PolyMatrix([[big * Q, ONE, qpow(3)],
                        [ZERO, ZERO, ZERO],
                        [ONE, big + Q ** 2, -big * Q]])
        assert permanent_q(a) == _brute_permanent(a) == ZERO


def test_permanent_large_signed_coefficients():
    rng = random.Random(8)
    for bits in (7, 8, 63, 64, 200):
        a = PolyMatrix([[sum((rng.randrange(-(1 << bits), 1 << bits) * qpow(e)
                              for e in rng.sample(range(-3, 6), 2)), ZERO)
                         for _ in range(3)] for _ in range(3)])
        assert permanent_q(a) == _brute_permanent(a)


def test_permanent_generic_path_on_mixed_entries():
    # an l-dependent entry forces the generic inclusion-exclusion route
    a = PolyMatrix([[ONE, L, ONE],
                    [Q, ONE, ONE],
                    [ONE, qpow(1), L * Q]])
    assert permanent_q(a) == _brute_permanent(a)


def test_lambda_det_vandermonde_product():
    v = PolyMatrix([[xvar(j) ** (3 - i) for j in (1, 2, 3)] for i in (1, 2, 3)])
    product = ((xvar(1) + lpow(1) * xvar(2))
               * (xvar(1) + lpow(1) * xvar(3))
               * (xvar(2) + lpow(1) * xvar(3)))
    assert lambda_det(v) == RationalFunction(product)


def test_lambda_det_2x2():
    m = symbol_matrix(2)
    a, b, c, d = (m[(i, j)] for i in range(2) for j in range(2))
    assert lambda_det(m) == RationalFunction(a * d + L * b * c)


def test_lambda_det_substitute_first_agrees():
    # substituting a numeric l before running the recursion must agree with
    # substituting into the symbolic result
    rng = random.Random(9)
    a = random_rational_matrix(3, rng)
    symbolic = lambda_det(a)
    for value in (1, 2, Fraction(1, 3)):
        assert symbolic.subs(lam=value) == _rational_condense(
            a, lambda size: value)


def _rational_condense(a, factor):
    """Condensation over rational functions, written out: the reference for
    lambda_det and lambda_q_det whatever ring they run on."""
    one = RationalFunction(ONE)
    n = a.n
    prev2 = [[one] * (n + 1) for _ in range(n + 1)]
    prev1 = [[RationalFunction(e) for e in row] for row in a.rows]
    for size in range(2, n + 1):
        cur = []
        for r in range(n - size + 1):
            row = []
            for c in range(n - size + 1):
                if prev2[r + 1][c + 1].is_zero():
                    raise ZeroMinor(r + 1, c + 1, size - 2)
                num = (prev1[r + 1][c + 1] * prev1[r][c]
                       + factor(size) * prev1[r][c + 1] * prev1[r + 1][c])
                row.append(num / prev2[r + 1][c + 1])
            cur.append(row)
        prev2, prev1 = prev1, cur
    return prev1[0][0] if n else one


L_ROUTES = ((lambda_det, lambda size: L),
            (lambda_q_det, lambda size: L * qpow(2 * (size - 1))))


def _matches_reference(a, route, factor):
    """Assert that route(a) equals ``_rational_condense(a, factor)``, or
    raises ``ZeroMinor`` at the same cell with the same message; return
    which of the two happened."""
    try:
        expected = _rational_condense(a, factor)
    except ZeroMinor as err:
        with pytest.raises(ZeroMinor) as got:
            route(a)
        assert str(got.value) == str(err)
        return "zero minor"
    assert route(a) == expected
    return "value"


def _ql_monomial_matrix(n, rng):
    """Entries c * q^(e/2) * l^k with Fraction c, e in {-1, 0, 1} and
    k in {-1, 0}; zeros are common in the first and last rows and rare
    inside."""
    def entry(i):
        if rng.random() < (0.3 if i in (0, n - 1) else 0.04):
            return ZERO
        c = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 3)))
        return Polynomial.monomial(c, qh=rng.randrange(-1, 2),
                                   le=rng.randrange(-1, 1))

    return PolyMatrix([[entry(i) for _ in range(n)] for i in range(n)])


def test_lambda_determinants_match_rational_function_reference():
    rng = random.Random(20)
    outcomes = {"value": 0, "zero minor": 0}
    for n in (1, 2, 3, 4, 5, 6):
        for _ in range(3):
            a = _ql_monomial_matrix(n, rng)
            for route, factor in L_ROUTES:
                outcomes[_matches_reference(a, route, factor)] += 1
    assert min(outcomes.values()) >= 5


def _several_term_matrix(n, rng, inside=True):
    """About 20 % zeros; the other entries have one to three terms
    c * q^(e/2) * l^k * x1^j with Fraction c, e in {-1..2} and k, j in
    {-1, 0, 1}.  With ``inside`` False only the border entries have
    several terms."""
    def term():
        c = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 3)))
        return Polynomial.monomial(c, qh=rng.randrange(-1, 3),
                                   le=rng.randrange(-1, 2),
                                   xs={1: rng.randrange(-1, 2)})

    def entry(i, j):
        if rng.random() < 0.2:
            return ZERO
        border = i in (0, n - 1) or j in (0, n - 1)
        count = rng.randint(1, 3) if inside or border else 1
        return sum((term() for _ in range(count)), ZERO)

    return PolyMatrix([[entry(i, j) for j in range(n)] for i in range(n)])


def test_fraction_free_loop_matches_reference_on_several_term_entries():
    # at n = 5 several-term entries stay on the border: with them inside,
    # the reference's rational functions take 10-70 s a matrix
    rng = random.Random(19)
    outcomes = set()
    for n, trials in ((1, 2), (2, 3), (3, 4), (4, 6), (5, 8)):
        for _ in range(trials):
            a = _several_term_matrix(n, rng, inside=n < 5)
            for route, factor in L_ROUTES:
                outcomes.add((n, _matches_reference(a, route, factor)))
    assert {(n, outcome) for n in (3, 4, 5)
            for outcome in ("value", "zero minor")} <= outcomes


def test_fraction_free_loop_matches_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeffs = st.sampled_from((1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3),
                              Fraction(7, 4)))
    terms = st.builds(
        lambda c, qh, le, x: Polynomial.monomial(c, qh=qh, le=le, xs={1: x}),
        coeffs, st.integers(-1, 2), st.integers(-1, 1), st.integers(-1, 1))
    # one draw in five is zero; several terms may cancel to zero too
    entries = st.tuples(st.integers(0, 4), st.lists(terms, min_size=1,
                                                    max_size=3)).map(
        lambda drawn: sum(drawn[1], ZERO) if drawn[0] else ZERO)

    @st.composite
    def matrices(draw):
        n = draw(st.integers(0, 4))
        cells = iter(draw(st.lists(entries, min_size=n * n, max_size=n * n)))
        return PolyMatrix([[next(cells) for _ in range(n)] for _ in range(n)])

    @hypothesis.settings(max_examples=20, deadline=None, database=None)
    @hypothesis.given(matrices(), st.sampled_from(L_ROUTES))
    def check(a, route_factor):
        _matches_reference(a, *route_factor)

    check()


def _constant_matrix(n, rng, zeros=0.1):
    """Fraction entries c/d, c in -9..9 minus 0 and d in 1..4, or zero with
    probability ``zeros``, inside as on the border."""
    def entry():
        if rng.random() < zeros:
            return ZERO
        c = rng.choice([c for c in range(-9, 10) if c])
        return Polynomial.constant(Fraction(c, rng.randint(1, 4)))

    return PolyMatrix([[entry() for _ in range(n)] for _ in range(n)])


def test_lambda_det_of_constants_matches_reference():
    rng = random.Random(23)
    outcomes = set()
    for n in range(8):
        for zeros in (0.0, 0.1, 0.25):
            for _ in range(2):
                a = _constant_matrix(n, rng, zeros)
                outcomes.add(_matches_reference(a, lambda_det,
                                                lambda size: L))
    # zeros on the border only, and an exact integer matrix
    border = _constant_matrix(6, rng, zeros=0.0)
    rows = [list(row) for row in border.rows]
    rows[0][0] = rows[0][3] = rows[5][5] = rows[2][0] = ZERO
    signs = PolyMatrix([[(-1) ** (i * j) * (i + j + 1) * ONE
                         for j in range(5)] for i in range(5)])
    for a in (PolyMatrix(rows), signs):
        assert _matches_reference(a, lambda_det, lambda size: L) == "value"
    assert outcomes == {"value", "zero minor"}


def test_lambda_det_of_constants_matches_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entries = st.sampled_from((0, 1, -1, 2, -7, 99, Fraction(1, 2),
                               Fraction(-5, 3), Fraction(97, 8)))

    @st.composite
    def matrices(draw):
        n = draw(st.integers(0, 6))
        cells = iter(draw(st.lists(entries, min_size=n * n, max_size=n * n)))
        return PolyMatrix([[Polynomial.constant(next(cells))
                            for _ in range(n)] for _ in range(n)])

    @hypothesis.settings(max_examples=25, deadline=None, database=None)
    @hypothesis.given(matrices())
    def check(a):
        _matches_reference(a, lambda_det, lambda size: L)

    check()


def test_lambda_determinants_of_q_only_entries_match_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeffs = st.sampled_from((1, -1, 2, -7, 99, Fraction(1, 2),
                              Fraction(-5, 3), Fraction(97, 8)))
    terms = st.builds(lambda c, qh: Polynomial.monomial(c, qh=qh),
                      coeffs, st.integers(-2, 3))
    # a zero, a constant, or one or two terms in half powers of q
    entries = st.one_of(st.just(ZERO), coeffs.map(Polynomial.constant),
                        st.lists(terms, min_size=1, max_size=2).map(
                            lambda drawn: sum(drawn, ZERO)))

    @st.composite
    def matrices(draw):
        n = draw(st.integers(0, 5))
        cells = iter(draw(st.lists(entries, min_size=n * n, max_size=n * n)))
        return PolyMatrix([[next(cells) for _ in range(n)] for _ in range(n)])

    @hypothesis.settings(max_examples=40, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(matrices())
    def check(a):
        for route, factor in L_ROUTES:
            _matches_reference(a, route, factor)

    check()


def test_entry_clearing_edge_cases():
    x1 = xvar(1)
    # denominators 2, 3, 4 and 6: the row's lcm, 12, is larger than each
    fractions = [Fraction(1, 2) * L, Fraction(-2, 3) * x1,
                 Fraction(5, 4) * L * x1, Fraction(1, 6) * lpow(-1)]
    # a zero entry between two with denominators 3 and 7
    zero_beside = [Fraction(2, 3) * Q, ZERO, Fraction(-1, 7) * ONE, L]
    inner = [[ONE, Q, 2 * ONE, x1], [L, ONE, Q, 3 * ONE],
             [2 * ONE, x1, ONE, L]]
    zero_top = PolyMatrix([[ZERO] * 4] + inner)
    matrices = [
        PolyMatrix([]),
        PolyMatrix([[Fraction(-3, 4) * x1 * L]]),
        PolyMatrix([[Fraction(1, 2) * L, Fraction(2, 3) * x1],
                    [ONE + Q, Fraction(-1, 5) * ONE]]),
        zero_top,
        PolyMatrix(inner + [[ZERO] * 4]),
        PolyMatrix([fractions] + inner),
        PolyMatrix(inner[:2] + [fractions] + inner[2:]),
        PolyMatrix([zero_beside] + inner),
        PolyMatrix(inner + [zero_beside]),
        # constants, which lambda_det runs on ints: denominators 4, 6 and
        # 1 (lcm 12), and a zero beside 8 and 9
        PolyMatrix([[Fraction(1, 4) * ONE, Fraction(1, 6) * ONE, 5 * ONE],
                    [Fraction(3, 8) * ONE, Fraction(-1, 9) * ONE, ONE],
                    [ZERO, Fraction(7, 12) * ONE, Fraction(1, 10) * ONE]]),
    ]
    for a in matrices:
        for route, factor in L_ROUTES:
            assert _matches_reference(a, route, factor) == "value"
        assert lambda_det(a).subs(lam=-1) == RationalFunction(
            det_classic(a).subs(lam=-1))
    assert lambda_det(zero_top) == RationalFunction(ZERO)
    # each entry keeps its own denominator, not its row's lcm, and a zero
    # entry has denominator 1 and numerator 0
    rows, dens, den = bdet_mod._cleared(PolyMatrix(
        [fractions, inner[0], inner[1], zero_beside]))
    assert dens[0] == [2, 3, 4, 6] and dens[3] == [3, 1, 7, 1]
    assert rows[0][0] == L and rows[0][3] == lpow(-1)
    assert rows[3][1:3] == [0, -1]
    # the interior P, Q * 2 * 1 * Q, times all d, 2 * 3 * 4 * 6 * 3 * 7
    assert den == 6048 * Q * Q
    # a zero inside, in a zero row or beside a denominator, puts a zero at
    # the centre of a size-3 cell
    for zero_row in ([ZERO] * 4, zero_beside):
        a = PolyMatrix(inner[:1] + [zero_row] + inner[1:])
        for route, factor in L_ROUTES:
            assert _matches_reference(a, route, factor) == "zero minor"


def test_lambda_determinants_enforce_their_bound():
    assert bdet_mod.LAMBDA_BOUND == 15
    too_big = PolyMatrix.ones(16)
    for route in (lambda_det, lambda_q_det):
        start = time.perf_counter()
        with pytest.raises(BoundExceeded,
                           match="^l-determinant above bound 15$"):
            route(too_big)
        assert time.perf_counter() - start < 1.0


@pytest.fixture
def rings(monkeypatch):
    """The ring of each ``_condense`` call, in order: the type of its one."""
    rings = []
    condense = bdet_mod._condense
    monkeypatch.setattr(bdet_mod, "_condense",
                        lambda rows, one, *rest: rings.append(type(one))
                        or condense(rows, one, *rest))
    return rings


def test_lambda_determinants_pick_the_ring_from_the_entries(rings):
    monomials = PolyMatrix([[ONE, Fraction(1, 2) * L, ZERO],
                            [qpow(-3), 2 * lpow(-1) * Q, Q],
                            [ZERO, ONE, 3 * ONE]])
    # x exponents may be negative too, so x monomials stay on polynomials
    x_entry = PolyMatrix([[ONE, xvar(1)], [Q, L]])
    vandermonde = PolyMatrix([[xvar(j) ** (4 - i) for j in range(1, 5)]
                              for i in range(1, 5)])
    # the loop is fraction-free, so entries of several terms, inside the
    # matrix too, stay on polynomials as well
    two_terms = PolyMatrix([[ONE, ONE + Q], [Q, L]])
    several_inside = PolyMatrix([[ONE, Q, 2 * ONE, L],
                                 [L, ONE + Q, Fraction(1, 2) * Q, ONE],
                                 [Q, xvar(1) - 2 * L, ONE + L, Q],
                                 [ONE, 2 * ONE, Q, ONE - xvar(1)]])
    for a in (monomials, x_entry, symbol_matrix(4), vandermonde, two_terms,
              several_inside):
        for route, factor in L_ROUTES:
            rings.clear()
            assert route(a) == _rational_condense(a, factor)
            assert rings == [Polynomial]
    # constants run on ints: the l = 1 bound on |A|, then the packed image.
    # The 2x2 one is 10^4 - 10^4 * l, 0 at l = 1, so a bound taken on A
    # instead of |A| leaves no room for its coefficients.  None has a zero
    # anti-diagonal, so the top power of l has a nonzero coefficient.
    constants = [PolyMatrix([]), PolyMatrix([[-3 * ONE]]),
                 PolyMatrix([[100 * ONE, 100 * ONE], [-100 * ONE, 100 * ONE]]),
                 _constant_matrix(4, random.Random(4), zeros=0.0),
                 PolyMatrix([[(-1) ** (i + j) * (i + 2 * j + 1) * ONE
                              for j in range(6)] for i in range(6)]),
                 _constant_matrix(7, random.Random(7), zeros=0.0)]
    for a in constants:
        rings.clear()
        assert lambda_det(a) == _rational_condense(a, lambda size: L)
        assert rings == [int, int]
    # the l*q-determinant of constants runs on ints as well: the bound at
    # q = l = 1, the band of its terms (the same loop in max-plus), which
    # sets l's stride, then the packed image
    reach = bdet_mod._Reach
    for a in constants:
        rings.clear()
        assert lambda_q_det(a) == _rational_condense(a, L_ROUTES[1][1])
        assert rings == [int, reach, int]
    # 24-bit constants at n = 6: slots of 66 bytes, under the width rule,
    # but a top image of 251 of them, above L_IMAGE_MAX_BYTES, so the
    # polynomial loop runs
    rng = random.Random(24)
    wide = PolyMatrix([[rng.randrange(1, 1 << 24) * ONE for _ in range(6)]
                       for _ in range(6)])
    rings.clear()
    assert lambda_q_det(wide) == _rational_condense(wide, L_ROUTES[1][1])
    assert rings == [int, reach, Polynomial]
    # entries in q alone, with fractions, half and negative powers (each
    # row shifted by its lowest) and two terms, run on ints for both
    q_only = PolyMatrix([
        [Fraction(1, 2) * qpow(-1), ONE + Q, 3 * ONE, ZERO],
        [Q, qpow(3) - Fraction(2, 3) * ONE, 2 * qpow(1), Q * Q],
        [qpow(-2), ONE, Fraction(-5, 4) * Q, ONE - qpow(1)],
        [ZERO, 4 * qpow(5), ONE, Fraction(1, 3) * ONE]])
    for route, factor in L_ROUTES:
        rings.clear()
        assert route(q_only) == _rational_condense(q_only, factor)
        assert rings == [int, reach, int]
    # a zero interior entry stops the bound loop at size 3; the polynomial
    # loop then raises the reference's ZeroMinor
    rows = [list(row)
            for row in _constant_matrix(5, random.Random(6), 0.0).rows]
    rows[1][3] = ZERO
    rings.clear()
    assert _matches_reference(PolyMatrix(rows), lambda_q_det,
                              L_ROUTES[1][1]) == "zero minor"
    assert rings == [int, Polynomial]


def test_lambda_det_of_constants_runs_on_ints_at_n_12(rings):
    # each entry cleared on its own keeps the slots of the image under the
    # divmod's crossover at n = 12 (92-101 bytes; a row's lcm took 164-173)
    for seed in range(3):
        a = random_rational_matrix(12, random.Random(seed))
        rings.clear()
        assert lambda_det(a) == _rational_condense(a, lambda size: L)
        assert rings == [int, int]


def test_lambda_det_of_constants_falls_back_to_polynomials(rings):
    # numerators near 2^300 at n = 4: the l = 1 bound on |A| needs more
    # slot bytes than the divmod crossover, so the loop runs on polynomials
    big = PolyMatrix([[Fraction((3 + i + 2 * j) << 300, 1 + i) * ONE
                       for j in range(4)] for i in range(4)])
    assert lambda_det(big) == _rational_condense(big, lambda size: L)
    assert rings == [int, Polynomial]
    # a zero interior entry stops the int run of the bound at size 3; the
    # polynomial loop then raises the reference's ZeroMinor
    rows = [list(row)
            for row in _constant_matrix(5, random.Random(5), 0.0).rows]
    rows[2][1] = ZERO
    rings.clear()
    assert _matches_reference(PolyMatrix(rows), lambda_det,
                              lambda size: L) == "zero minor"
    assert rings == [int, Polynomial]
    with pytest.raises(ZeroMinor, match="^zero minor at rows 3..3, "
                                        "columns 2..2$"):
        lambda_det(PolyMatrix(rows))


def test_lambda_det_with_x_entries_stays_exact():
    # a cell over x entries can carry negative x exponents; the recursion
    # must still recover the determinant at l = -1
    vandermonde = PolyMatrix([[xvar(j) ** (4 - i) for j in range(1, 5)]
                              for i in range(1, 5)])
    for m in (symbol_matrix(4), vandermonde):
        assert lambda_det(m).subs(lam=-1) == RationalFunction(det_classic(m))


def test_lambda_det_zero_minor():
    rows = [[ONE] * 3 for _ in range(3)]
    rows[1][1] = ZERO
    with pytest.raises(ZeroMinor) as err:
        lambda_det(PolyMatrix(rows))
    assert "rows 2..2" in str(err.value)


def test_lambda_q_det_zero_minor():
    rows = [[ONE] * 4 for _ in range(4)]
    rows[2][1] = ZERO
    with pytest.raises(ZeroMinor) as err:
        lambda_q_det(PolyMatrix(rows))
    assert "rows 3..3, columns 2..2" in str(err.value)


def test_lambda_q_det_2x2():
    assert lambda_q_det(PolyMatrix.ones(2)) == RationalFunction(ONE + lpow(1) * Q)


# Toeplitz matrices: a contiguous minor depends only on its offset c - r,
# so ``_condense`` computes the top row and the left column of each size
# and reuses every other cell.

def per_cell_condense(rows, one, factor, divide, dens=None):
    """The condensation loop cell by cell over all (n - size + 1)^2 cells
    of each size, none reused: the reference for ``_condense``'s Toeplitz
    rule, on the same ring, factor, division and corner weights, the
    latter from size 2 up when the entries have denominators ``dens``."""
    n = len(rows)
    prev2 = [[one] * (n + 1) for _ in range(n + 1)]
    prev1 = rows
    first_division = 3 if dens is None else 4
    corners = None if dens is None else bdet_mod._corners(rows, dens)
    for size in range(2, n + 1):
        divides = size >= first_division
        cur = []
        for r in range(n - size + 1):
            row = []
            for c in range(n - size + 1):
                divisor = prev2[r + 1][c + 1]
                if not divisor:
                    raise ZeroMinor(r + 1, c + 1, size - 2)
                nw, ne = prev1[r][c], prev1[r][c + 1]
                if corners is not None:
                    u, v = corners(r, c, size)
                    nw, ne = nw * u, ne * v
                num = prev1[r + 1][c + 1] * nw + factor(size) * ne * prev1[r + 1][c]
                row.append(divide(num, divisor) if divides else num)
            cur.append(row)
        prev2, prev1 = prev1, cur
    return prev1[0][0] if n else one


def toeplitz(diagonals):
    """The Toeplitz matrix whose entry (r, c) is diagonals[c - r + n - 1]."""
    n = (len(diagonals) + 1) // 2
    return PolyMatrix([[diagonals[c - r + n - 1] for c in range(n)]
                       for r in range(n)])


def is_toeplitz(rows):
    return all(rows[i][j] == rows[i - 1][j - 1]
               for i in range(1, len(rows)) for j in range(1, len(rows)))


def _outcome(call):
    try:
        return call()
    except ZeroMinor as err:
        return str(err), err.row, err.col, err.size


def _matches_per_cell(monkeypatch, route, a):
    """Assert that route(a) gives what it gives with ``per_cell_condense``
    in place of ``_condense``: the same value, or the same ZeroMinor."""
    got = _outcome(lambda: route(a))
    with monkeypatch.context() as m:
        m.setattr(bdet_mod, "_condense", per_cell_condense)
        assert got == _outcome(lambda: route(a))
    return "zero minor" if isinstance(got, tuple) else "value"


def _toeplitz_cases(n, rng):
    """Seeded Toeplitz matrices of size n, by name, about a quarter of
    their diagonals 0.  With a constant main diagonal every row holds it,
    so the rows of the packed image share their lowest exponent and stay
    Toeplitz; negative powers give rows of unequal lows, an image that is
    not Toeplitz; an x entry sends the matrix to polynomials."""
    signed = (-3, -2, -1, 1, 2, 3)
    fractions = (Fraction(-3, 2), -1, Fraction(2, 3), Fraction(-5, 4), 4)

    def diagonals(coeffs, low):
        return [Polynomial.monomial(rng.choice(coeffs),
                                    qh=rng.randrange(low, 5))
                if rng.random() >= 0.25 else ZERO for _ in range(2 * n - 1)]

    cases = {"half powers": diagonals(signed, 0),
             "negative powers": diagonals(signed, -3),
             "x entry": diagonals(fractions, -1)}
    if n:
        cases["half powers"][n - 1] = rng.choice(signed) * ONE
        cases["x entry"][rng.randrange(2 * n - 1)] = Fraction(1, 2) * xvar(1)
    return {name: toeplitz(d) for name, d in cases.items()}


@pytest.mark.parametrize("n", range(8))
def test_condense_on_toeplitz_matrices(monkeypatch, n):
    weight = n * (n * n - 1) // 3
    for name, a in _toeplitz_cases(n, random.Random(400 + n)).items():
        assert is_toeplitz(a.rows)
        image = q_image(a.rows, 2, weight)
        if name == "half powers":
            assert image is not None and is_toeplitz(image.rows)
        if name == "x entry" and n:
            assert image is None
        assert bdet_condense(a) == bdet_definition(a), name
        _matches_per_cell(monkeypatch, bdet_condense, a)


def test_condense_divides_once_per_diagonal_on_toeplitz_images(monkeypatch):
    # size k has 2(n - k) + 1 distinct cells, so sizes 3..n divide (n - 2)^2
    # times, where the per-cell loop divides sum (n - k + 1)^2 times
    calls = []
    monkeypatch.setattr(bdet_mod, "_divide_image", _divide_counted(calls))
    for n in (3, 8, 12):
        calls.clear()
        assert bdet_condense(PolyMatrix.ones(n)) == bn_product(n)
        assert len(calls) == (n - 2) ** 2


def test_lambda_determinants_on_toeplitz_matrices(monkeypatch):
    outcomes = set()
    for n in range(8):
        for a in _toeplitz_cases(n, random.Random(500 + n)).values():
            for route, _ in L_ROUTES:
                outcomes.add(_matches_per_cell(monkeypatch, route, a))
    # constants, so lambda_det runs on ints (``_l_image``)
    rng = random.Random(8)
    for n in range(1, 8):
        a = toeplitz([rng.choice((-3, -1, 2, 5)) * ONE
                      for _ in range(2 * n - 1)])
        outcomes.add(_matches_per_cell(monkeypatch, lambda_det, a))
    assert outcomes == {"value", "zero minor"}
    # cleared entry by entry, its numerators are all 1, a Toeplitz matrix,
    # but its denominators are not: no cell may be shared
    a = PolyMatrix([[Fraction(1, 2), 1, Fraction(1, 5)],
                    [1, Fraction(1, 3), 1],
                    [Fraction(1, 7), 1, 1]])
    for route, factor in L_ROUTES:
        assert _matches_per_cell(monkeypatch, route, a) == "value"
        assert _matches_reference(a, route, factor) == "value"
    assert str(lambda_det(a)) == "1/6 + 9/2*l + 117/35*l^2 + 1/105*l^3"


def test_lambda_q_det_of_ones_is_the_two_variable_product():
    for n in range(10):
        assert lambda_q_det(PolyMatrix.ones(n)) == RationalFunction(
            bn_lambda_q(n))


@pytest.mark.parametrize("shape", ["q only", "x entry"])
def test_condense_on_near_toeplitz_matrices(monkeypatch, shape):
    # one entry broken at each (i, j) with i, j >= 1: the rows are not
    # Toeplitz, so no cell is reused; e + q keeps each row's lowest
    # exponent, so the q-only images are packed as the Toeplitz one is
    rng = random.Random(600)
    n = 5
    base = _toeplitz_cases(n, rng)["half powers" if shape == "q only"
                                   else "x entry"]
    image = q_image(base.rows, 2, n * (n * n - 1) // 3)
    assert (image is not None) == (shape == "q only")
    for i in range(1, n):
        for j in range(1, n):
            rows = [list(row) for row in base.rows]
            rows[i][j] = rows[i][j] + Q
            a = PolyMatrix(rows)
            assert not is_toeplitz(a.rows)
            assert bdet_condense(a) == bdet_definition(a), (i, j)
            _matches_per_cell(monkeypatch, lambda_det, a)


# two 5x5 Toeplitz matrices (diagonals from offset -4 to 4) whose packed
# image is Toeplitz too, and whose first zero interior minor is a 2x2 one,
# on the top row and on the left column
ZERO_MINOR_TOEPLITZ = [
    (["1", "1", "2", "q", "-1", "q^(1/2)", "-1", "q", "-q^(1/2)"], (1, 2, 2)),
    (["-q^(1/2)", "0", "1", "-q^(1/2)", "1", "q", "q^(1/2)", "2", "1"],
     (2, 1, 2)),
]


@pytest.mark.parametrize("diagonals, where", ZERO_MINOR_TOEPLITZ)
def test_toeplitz_zero_minor_is_the_per_cell_loops(monkeypatch, diagonals,
                                                   where):
    a = toeplitz([parse(e) for e in diagonals])
    n = a.n
    image = q_image(a.rows, 2, n * (n * n - 1) // 3)
    assert is_toeplitz(image.rows)
    bits = 8 * image.w
    runs = [(a.rows, ONE, lambda size: -qpow(2 * (size - 1)),
             Polynomial.div_exact),
            (image.rows, 1, lambda size: -1 << 2 * (size - 1) // image.g * bits,
             _divide_image)]
    for args in runs:
        with pytest.raises(ZeroMinor) as want:
            per_cell_condense(*args)
        with pytest.raises(ZeroMinor) as got:
            bdet_mod._condense(*args)
        assert (want.value.row, want.value.col, want.value.size) == where
        assert (got.value.row, got.value.col, got.value.size) == where
        assert str(got.value) == str(want.value)
    fallbacks = _count_fallbacks(monkeypatch)
    assert bdet_condense(a) == bdet_definition(a)
    assert fallbacks == [n]


def test_matrix_file_round_trip():
    rng = random.Random(7)
    for n in (1, 3, 4):
        a = random_monomial_matrix(n, rng)
        assert parse_matrix(format_matrix(a)) == a


def test_matrix_file_errors():
    with pytest.raises(ValueError):
        parse_matrix("3\n1;1;1\n")
    with pytest.raises(ValueError):
        parse_matrix("n=2\n1 ; 1\n")
    with pytest.raises(ValueError):
        parse_matrix("n=2\n1 ; 1 ; 1\n1 ; 1\n")


def test_parse_matrix_equals_per_cell_parse_and_shares_equal_texts():
    rng = random.Random(24)
    texts = ["q", " q ", "q^1", "1*q", "q^(2/2)", "0", "-2*q^(-1/2)",
             "1/3 + q", "l", "x2^(-1)", "1"]
    for n in (1, 2, 5, 9):
        cells = [[rng.choice(texts) for _ in range(n)] for _ in range(n)]
        text = f"n={n}\n" + "\n".join(" ; ".join(row) for row in cells)
        a = parse_matrix(text)
        assert a == PolyMatrix([[parse(c) for c in row] for row in cells])
        by_text = {}
        for row, entries in zip(cells, a.rows):
            for cell, e in zip(row, entries):
                assert by_text.setdefault(cell.strip(), e) is e
    # texts equal once stripped share their entry
    a = parse_matrix("n=2\n q ;q\n  q;1")
    assert a[0, 0] is a[0, 1] is a[1, 0]


@pytest.mark.parametrize("text, message, pos", [
    ("n=2\n1 ; 1\n1 ; q^\n", "row 2, column 2: expected an integer", 2),
    ("n=2\n1 ; \n1 ; 1\n", "row 1, column 2: empty input", 0),
    # the same bad text later in row-major order is not the one reported
    ("n=3\nq;1;1\n1;2*;1\n2*;1;2*\n",
     "row 2, column 2: expected a factor, found 'end of input'", 2),
    ("n=2\n1 ; 1\nq^(1/3) ; 1\n",
     "row 2, column 1: only /2 denominators are allowed in exponents", 5),
    # the format is ASCII: a Unicode space or line break separates nothing
    # and is refused in its cell, where str.strip and str.splitlines would
    # have dropped or split at it
    ("n=2\n1 ; 1\n1 ; q\u00b2\n",
     "row 2, column 2: non-ASCII character '\u00b2'", 1),
    ("n=2\n1 ;\u00a01\n1 ; 1\n",
     "row 1, column 2: non-ASCII character '\\xa0'", 0),
    ("n=2\n1 ; 1\u2028\n1 ; q\n",
     "row 1, column 2: non-ASCII character '\\u2028'", 1),
    ("n=2\n1 ; 1\n\u3000q ; 1\u0085\n",
     "row 2, column 1: non-ASCII character '\\u3000'", 0),
])
def test_matrix_file_cell_errors_name_the_cell(text, message, pos):
    with pytest.raises(ParseError) as err:
        parse_matrix(text)
    assert str(err.value) == f"{message} (at position {pos})"
    assert err.value.pos == pos


def test_matrix_file_row_length_error_names_the_row():
    with pytest.raises(ValueError, match="^row 2: expected 2 entries, found 3$"):
        parse_matrix("n=2\n1 ; 1\n1 ; 1 ; 1\n")
    with pytest.raises(ValueError, match="^row 1: expected 2 entries, found 1$"):
        parse_matrix("n=2\n1\n1 ; 1\n")


def test_polymatrix_pickles_and_copies():
    rng = random.Random(3)
    for a in (PolyMatrix.ones(2), random_monomial_matrix(3, rng),
              symbol_matrix(2), PolyMatrix([])):
        for b in (pickle.loads(pickle.dumps(a)), copy.copy(a),
                  copy.deepcopy(a)):
            assert b == a and hash(b) == hash(a) and b.n == a.n
            with pytest.raises(AttributeError):
                b.n = 5


@pytest.mark.parametrize("header", ["n=\u0662", "n = \u0662", "n=0_2",
                                    "n=-1", "n=+2", "n=\u00a02"])
def test_matrix_header_takes_ascii_digits_only(header):
    with pytest.raises(ValueError, match="must start with 'n=<digits>'"):
        parse_matrix(header + "\n1 ; 1\n1 ; 1\n")
    assert parse_matrix("n =\t2\n1 ; 1\n1 ; 1\n").n == 2


def test_polymatrix_validation_and_submatrices():
    with pytest.raises(ValueError):
        PolyMatrix([[ONE, ONE], [ONE]])
    a = symbol_matrix(3)
    sub = a.delete((1,), (2,))
    assert sub.n == 2
    assert sub[(0, 0)] == a[(1, 0)]


def test_leibniz_bounds():
    with pytest.raises(BoundExceeded):
        det_classic(PolyMatrix.ones(9))
    with pytest.raises(BoundExceeded):
        bdet_definition(PolyMatrix.ones(9))
    with pytest.raises(BoundExceeded,
                       match="^little invariance above bound 7$"):
        little_invariance_check(PolyMatrix.ones(8))


def test_permanent_fraction_entries_are_cleared_per_row():
    rng = random.Random(13)
    for _ in range(4):
        a = PolyMatrix([[sum((Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
                              * qpow(e) for e in rng.sample(range(-2, 5), 2)), ZERO)
                         for _ in range(4)] for _ in range(4)])
        assert permanent_q(a) == _brute_permanent(a)
