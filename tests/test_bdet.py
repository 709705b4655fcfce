import itertools
import random
import time
from fractions import Fraction

import pytest

from bigrassmannian.errors import BoundExceeded, ZeroMinor
from bigrassmannian.exactpoly import (
    L,
    ONE,
    Q,
    ZERO,
    Polynomial,
    RationalFunction,
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
from bigrassmannian.bpoly import bn_product
from bigrassmannian.permstat import Permutation, enumerate_sn, length_and_beta
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
def test_inversion_steps_sum_to_length_and_beta(n):
    steps = bdet_mod._inversion_steps(n)
    assert len(steps) == 1 << n and all(len(row) == n for row in steps)
    for w in enumerate_sn(n):
        mask = ell = bet = 0
        for v in w.word:
            dl, db = steps[mask][v - 1]
            ell, bet, mask = ell + dl, bet + db, mask | 1 << (v - 1)
        assert (ell, bet) == length_and_beta(w)


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


def test_permanent_bound():
    with pytest.raises(BoundExceeded):
        permanent_q(PolyMatrix.ones(11))


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


def test_row_clearing_edge_cases():
    x1 = xvar(1)
    # denominators 2, 3, 4 and 6: the row is cleared by 12
    fractions = [Fraction(1, 2) * L, Fraction(-2, 3) * x1,
                 Fraction(5, 4) * L * x1, Fraction(1, 6) * lpow(-1)]
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
    ]
    for a in matrices:
        for route, factor in L_ROUTES:
            assert _matches_reference(a, route, factor) == "value"
        assert lambda_det(a).subs(lam=-1) == RationalFunction(
            det_classic(a).subs(lam=-1))
    assert lambda_det(zero_top) == RationalFunction(ZERO)
    # a zero row inside puts a zero at the centre of a size-3 cell
    a = PolyMatrix(inner[:1] + [[ZERO] * 4] + inner[1:])
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


def test_lambda_determinants_pick_the_ring_from_the_entries(monkeypatch):
    rings = []
    condense = bdet_mod._condense
    monkeypatch.setattr(bdet_mod, "_condense",
                        lambda rows, one, *rest: rings.append(type(one))
                        or condense(rows, one, *rest))
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


@pytest.mark.parametrize("header", ["n=\u0662", "n = \u0662", "n=0_2",
                                    "n=-1", "n=+2"])
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
