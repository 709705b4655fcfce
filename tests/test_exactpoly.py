import random
import sys
import time
from fractions import Fraction

import pytest

from bigrassmannian import exactpoly

from bigrassmannian.errors import (
    BoundExceeded,
    DivisionByZero,
    InexactDivision,
    NegativeExponentAtZero,
    ParseError,
)
from bigrassmannian.exactpoly import (
    L,
    ONE,
    Q,
    SPAN_BOUND,
    ZERO,
    Polynomial,
    RationalFunction,
    _fmt_exp,
    _pack,
    _unpack,
    ascii_int,
    format_poly,
    lpow,
    parse,
    qpow,
    xvar,
)


def random_poly(rng, nterms=4):
    terms = {}
    for _ in range(rng.randrange(nterms + 1)):
        key = (rng.randrange(-4, 5), rng.randrange(-2, 3),
               tuple(sorted((i, rng.randrange(1, 3))
                            for i in rng.sample((1, 2, 3), rng.randrange(3)))))
        terms[key] = terms.get(key, 0) + rng.randrange(-5, 6)
    return Polynomial(terms)


def test_add_cancellation():
    assert (ONE - Q) + Q == ONE
    assert ZERO + (ONE - Q) == ONE - Q


def test_add_matches_hand_expansion():
    assert (ONE - Q) ** 2 == parse("1 - 2*q + q^2")
    assert (ONE - Q) ** 2 - (ONE - 2 * Q + Q ** 2) == ZERO


def test_mul_half_exponents():
    assert qpow(1) * qpow(1) == Q
    assert qpow(1) * qpow(-1) == ONE
    assert (ONE - Q) * ONE == ONE - Q


def test_negative_powers_of_a_monomial():
    m = Fraction(2, 3) * qpow(1) * lpow(-2) * xvar(1) * xvar(3) ** 2
    assert m ** -2 == Polynomial.monomial(
        Fraction(9, 4), qh=-2, le=4, xs={1: -2, 3: -4})
    assert m ** -3 * m ** 3 == ONE and ONE ** -5 == ONE
    assert (-xvar(2)) ** -1 == -parse("x2^-1")
    # the ring holds no inverse of zero or of a sum of terms
    for base in (ZERO, ONE + Q, xvar(1) - L):
        with pytest.raises(ValueError):
            base ** -1
    assert (ONE + Q) ** 0 == ONE
    with pytest.raises(ValueError):
        Q ** Fraction(1, 2)


def test_power_refuses_a_result_above_its_size_bound_before_any_product():
    # (1 + q)^100000 would hold 100,001 coefficients of up to 100,000 bits
    for base, n, what in (
            (ONE + Q, 100000, "coefficient bits"),
            (ONE + Q + Q ** 2, 10 ** 7, "term count"),
            (Fraction(1, 3) + xvar(2) - qpow(-1) * L, 500, "coefficient bits")):
        start = time.perf_counter()
        with pytest.raises(BoundExceeded, match=f"^power's {what} above bound"):
            base ** n
        assert time.perf_counter() - start < 0.01
    # one-term bases shift, whatever the power; a sparse base counts the
    # slots on its own gcd, and terms as multisets of its terms
    assert Q ** 10 ** 9 == parse("q^1000000000")
    assert (2 * L) ** -40 == Polynomial.monomial(Fraction(1, 2 ** 40), le=-40)
    assert (ONE + parse("q^10000000000")) ** 3 == parse(
        "1 + 3*q^10000000000 + 3*q^20000000000 + q^30000000000")
    # 7^8 dense slots, above SPAN_BOUND, but C(13, 7) multisets
    assert len(sum((xvar(i) for i in range(1, 9)), ZERO) ** 6) == 1716
    big = parse("x" + "1" * 31 + " + 1")
    assert big ** 2 == big * big
    # the largest power of 1 + q inside the bound has n (n + 1) <= 2^23
    assert (ONE + Q) ** 1000 == (ONE + Q) ** 500 * (ONE + Q) ** 500
    with pytest.raises(BoundExceeded):
        (ONE + Q) ** 2900


def test_layout_refuses_an_x_index_above_span_bound():
    # one set per index up to the largest would exhaust memory; the sparse
    # paths (a one-term divisor, a small product) still take any index
    big = parse("x" + "1" * 31 + " + 1")
    start = time.perf_counter()
    with pytest.raises(BoundExceeded, match=r"^x index 1{31} above bound"):
        (big * (ONE + Q)).div_exact(big)
    with pytest.raises(BoundExceeded, match=r"^x index 1{31} above bound"):
        RationalFunction(big, ONE + Q)
    assert time.perf_counter() - start < 0.1
    assert (big * Q).div_exact(Q) == big
    one = {(0, 0, ()): 1}
    with pytest.raises(BoundExceeded, match=f"^x index {SPAN_BOUND + 1} "):
        exactpoly._layout(one, {(0, 0, ((SPAN_BOUND + 1, 1),)): 1})


def test_mul_matches_hand_expansion():
    lhs = (xvar(1) + L * Q * xvar(2)) * (xvar(2) + L * Q * xvar(3))
    rhs = (xvar(1) * xvar(2) + L * Q * xvar(1) * xvar(3)
           + L * Q * xvar(2) ** 2 + L ** 2 * Q ** 2 * xvar(2) * xvar(3))
    assert lhs == rhs


def test_div_exact_geometric():
    assert (ONE - Q ** 2).div_exact(ONE - Q) == ONE + Q


def test_div_exact_squared_cube():
    b3 = (ONE - Q) ** 2 * (ONE - Q ** 2)
    b2 = ONE - Q
    assert (b3 * b3).div_exact(b2) == (ONE - Q) ** 3 * (ONE - Q ** 2) ** 2


def test_div_exact_rejects_non_divisible():
    with pytest.raises(InexactDivision):
        (ONE - Q).div_exact(ONE + Q)
    with pytest.raises(DivisionByZero):
        ONE.div_exact(ZERO)


def test_div_exact_multivariate():
    a = (xvar(1) + L * qpow(3) * xvar(2)) * (xvar(2) - 2 * xvar(3)) ** 2
    assert a.div_exact((xvar(2) - 2 * xvar(3)) ** 2) == xvar(1) + L * qpow(3) * xvar(2)
    with pytest.raises(InexactDivision):
        a.div_exact(xvar(1) + xvar(2))


def test_subs_lambda_and_x():
    v3 = ((xvar(1) + L * Q * xvar(2)) * (xvar(1) + L * Q ** 2 * xvar(3))
          * (xvar(2) + L * Q * xvar(3)))
    assert v3.subs(lam=-1, all_x=1) == parse("1 - 2*q + 2*q^3 - q^4")
    p = ONE - Q + Q ** 3
    assert p.subs(lam=Fraction(1, 2), x={1: 7}) == p


def test_subs_negative_exponent_at_zero():
    p = lpow(-1) * Q
    with pytest.raises(NegativeExponentAtZero):
        p.subs(lam=0)
    assert p.subs(lam=2) == Fraction(1, 2) * Q


@pytest.mark.parametrize("bad", [0.1, 0.5, 2.0, "2", complex(2, 0)])
def test_subs_refuses_inexact_values(bad):
    p = L * Q + xvar(1)
    for kwargs in ({"lam": bad}, {"all_x": bad}, {"x": {1: bad}},
                   {"lam": 1, "x": {2: bad}}):
        with pytest.raises(TypeError):
            p.subs(**kwargs)
        with pytest.raises(TypeError):
            RationalFunction(p, ONE + L).subs(**kwargs)


def test_subs_refuses_float_lambda_and_x_together():
    # these went through Fraction(0.1) and gave a dyadic coefficient
    with pytest.raises(TypeError):
        (L * Q + xvar(1)).subs(lam=0.1, all_x=0.5)


def test_subs_values_stay_exact():
    # an int to a negative power would be a float; the result is a Fraction
    c = lpow(-1).subs(lam=2)
    assert c == Fraction(1, 2) and type(c.constant_value()) is Fraction
    p = lpow(-3) * xvar(1) ** 2 + L ** 3 * xvar(2)
    v = p.subs(lam=2, all_x=3)
    assert v == Fraction(9, 8) + 24
    assert type((L ** 3 * xvar(1) ** 2).subs(lam=2, all_x=3).constant_value()) is int
    assert p.subs(lam=Fraction(1, 2), x={1: True, 2: Fraction(4, 2)}) == (
        8 + Fraction(1, 4))


def test_subs_partial_keeps_other_variables():
    p = xvar(1) * xvar(2) + L * xvar(1)
    assert p.subs(x={2: 3}) == 3 * xvar(1) + L * xvar(1)


def test_at_q1():
    assert ((ONE - Q) ** 2 * (ONE - Q ** 2)).at_q1() == ZERO
    assert (qpow(1) + qpow(3)).at_q1() == Polynomial.constant(2)


def test_parse_known_polynomials():
    assert parse("1 - 2*q + 2*q^3 - q^4") == (ONE - Q) ** 2 * (ONE - Q ** 2)
    assert parse("q^(1/2)") == qpow(1)
    assert parse("3/2*q^(-1)*l^2*x1") == Polynomial.monomial(
        Fraction(3, 2), qh=-2, le=2, xs={1: 1})
    assert parse("0") == ZERO
    assert parse("-q + q") == ZERO


def test_parse_errors_carry_position():
    # digits are ASCII only: str.isdigit() also accepts these three
    for bad in ("", "1 +", "q^", "x", "2q", "1 & q", "q^(1/3)",
                "\u00b2", "\u0663", "x\u0661"):
        with pytest.raises(ParseError) as err:
            parse(bad)
        assert err.value.pos >= 0


# where the grammar's edges lie: whitespace may precede any lexeme but not
# split a number or follow the sign of an integer; digits are ASCII only
@pytest.mark.parametrize("text,expected", [
    ("q ^ ( 1 / 2 )", qpow(1)),
    ("x 1", xvar(1)),
    ("3/+2*q", Fraction(3, 2) * Q),
    ("q^+2", Q ** 2),
    ("1\n+\nq", ONE + Q),
    (" q", Q),
    ("x1^-1", xvar(1) ** -1),
])
def test_parse_grammar_edges_accepted(text, expected):
    assert parse(text) == expected


@pytest.mark.parametrize("text,pos,message", [
    ("q^- 1", 2, "expected an integer"),
    ("1 2", 2, "expected '+' or '-', found '2'"),
    ("q^(1/3)", 5, "only /2 denominators are allowed in exponents"),
    ("q^()", 3, "expected an integer"),
    ("x0", 1, "x indices start at 1"),
    ("l^(1/2)", 7, "l exponents must be integers"),
    ("3/0", 3, "coefficient denominator must be positive"),
    ("q**l", 2, "expected a factor, found '*'"),
    ("1_0", 1, "expected '+' or '-', found '_'"),
    ("٣", 0, "expected a factor, found '٣'"),
])
def test_parse_grammar_edges_rejected(text, pos, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.pos, str(err.value)) == (
        pos, f"{message} (at position {pos})")


@pytest.mark.parametrize("prefix,suffix", [
    ("", ""), ("q^", ""), ("q^(", "/2)"), ("x", ""), ("1/", ""),
], ids=["coefficient", "exponent", "half-exponent", "x-index", "denominator"])
def test_parse_refuses_overlong_literals_with_position(prefix, suffix):
    # int() refuses more digits than the interpreter's limit (4300 by default)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integer strings of any length")
    with pytest.raises(ParseError) as err:
        parse(prefix + "9" * (limit + 1) + suffix)
    assert (err.value.pos, str(err.value)) == (
        len(prefix), f"integer literal too long (at position {len(prefix)})")


# whitespace is ASCII too: Unicode spaces and line breaks are characters
# the grammar does not know, refused where they stand
@pytest.mark.parametrize("text,pos", [
    ("\u30001", 0),
    ("q\u00a0+ 1", 1),
    ("1 +\u2028q", 3),
    ("q^\u20032", 2),
    ("x\u00851", 1),
    ("\u3000", 0),
    ("\u00a0 ", 0),
])
def test_parse_refuses_unicode_whitespace_at_the_character(text, pos):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.pos == pos and not text[pos].isascii()
    assert err.value.message != "empty input"
    with pytest.raises(ValueError):
        ascii_int(text.replace("q", "1").replace("x", "1"))


def test_parse_takes_ascii_whitespace():
    assert parse("\t1 +\n q\r\n") == ONE + Q
    assert parse("\x0b3/2 *\x0cq ^\t(1/2)") == Fraction(3, 2) * qpow(1)
    assert ascii_int("\t-12\n") == -12
    with pytest.raises(ParseError) as err:
        parse(" \t\r\n")
    assert (err.value.pos, err.value.message) == (0, "empty input")


def test_print_parse_roundtrip_fixed():
    samples = [
        "1 - 2*q + 2*q^3 - q^4",
        "q^(1/2)",
        "3/2*q^(-1)*l^2*x1",
        "0",
        "-1 + q^(-3/2)",
        "x1^2*x2 + q*l*x1*x2^2",
    ]
    for text in samples:
        p = parse(text)
        assert parse(format_poly(p)) == p


def test_print_parse_roundtrip_random():
    rng = random.Random(42)
    for _ in range(200):
        p = random_poly(rng)
        assert parse(format_poly(p)) == p


def test_ring_axioms_random():
    rng = random.Random(42)
    for _ in range(60):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a


def test_mul_then_div_roundtrip_random():
    rng = random.Random(7)
    done = 0
    while done < 60:
        a, b = random_poly(rng), random_poly(rng)
        if b.is_zero():
            continue
        assert (a * b).div_exact(b) == a
        done += 1


def test_eval_is_ring_homomorphism():
    rng = random.Random(11)
    for _ in range(40):
        a, b = random_poly(rng), random_poly(rng)
        # l occurs with negative exponents, so keep the substitution nonzero
        lam = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randrange(1, 4))
        xs = {i: Fraction(rng.randrange(1, 5)) for i in (1, 2, 3)}
        left = (a * b).subs(lam=lam, x=xs)
        right = a.subs(lam=lam, x=xs) * b.subs(lam=lam, x=xs)
        assert left == right
        assert (a + b).subs(lam=lam, x=xs) == a.subs(lam=lam, x=xs) + b.subs(lam=lam, x=xs)


def test_ratfun_inverse_product():
    rng = random.Random(3)
    done = 0
    while done < 25:
        p = random_poly(rng)
        if p.is_zero():
            continue
        assert RationalFunction(p) * RationalFunction(ONE, p) == 1
        done += 1


def test_ratfun_cross_multiplication_equality():
    assert RationalFunction(ONE - Q ** 2, ONE - Q) == RationalFunction(ONE + Q)
    assert RationalFunction(ONE, ONE - Q) != RationalFunction(ONE, ONE + Q)


def test_ratfun_field_ops():
    a = RationalFunction(ONE - Q, ONE + Q)
    b = RationalFunction(Q, ONE - Q)
    assert a + b == RationalFunction((ONE - Q) ** 2 + Q * (ONE + Q),
                                     (ONE + Q) * (ONE - Q))
    assert a / a == 1
    with pytest.raises(DivisionByZero):
        a / RationalFunction(ZERO)
    with pytest.raises(DivisionByZero):
        RationalFunction(ONE, ZERO)


def test_ratfun_negation_difference_truth_and_text():
    r = RationalFunction(ONE + Q, ONE - L)
    # the denominator is scaled so that its leading term, l, has
    # coefficient 1, and the text prints both sides in that form
    assert str(r) == "(-1 - q) / (-1 + l)"
    assert str(-r) == "(1 + q) / (-1 + l)"
    assert -r == RationalFunction(-ONE - Q, ONE - L) and -(-r) == r
    assert r - 1 == RationalFunction(Q + L, ONE - L)
    assert r - Q == RationalFunction(ONE + Q * L, ONE - L)
    assert 1 - r == RationalFunction(-Q - L, ONE - L)
    assert str(1 - r) == "(l + q) / (-1 + l)"
    assert Fraction(1, 2) - r == RationalFunction(
        Fraction(-1, 2) - Q - Fraction(1, 2) * L, ONE - L)
    # a Polynomial on the left defers to RationalFunction.__rsub__
    assert str(Q - r) == "(1 + q*l) / (-1 + l)"
    assert r and not r - r and not RationalFunction(ZERO, Q)
    assert str(r - r) == "0" and str(-RationalFunction(ZERO)) == "0"
    # an exact quotient prints as a polynomial
    assert str(RationalFunction(Q * Q - 1, Q - 1)) == "1 + q"
    for bad in ("1", 1.0):
        with pytest.raises(TypeError):
            r - bad
        with pytest.raises(TypeError):
            bad - r


def test_polynomial_reflected_difference():
    assert 1 - Q == parse("1 - q") and 0 - Q == -Q
    assert Fraction(1, 2) - L * Q == parse("1/2 - q*l")
    assert (3 - (3 + Q))._terms == {(2, 0, ()): -1}
    assert (1 - ONE)._terms == {}
    for bad in ("1", 1.0):
        with pytest.raises(TypeError):
            bad - Q


def test_ratfun_power_is_repeated_product():
    a = RationalFunction(ONE - Q + lpow(-1) * xvar(1), Fraction(2, 3) * Q + L)
    inverse = 1 / a
    for n in range(-4, 5):
        expected = RationalFunction(ONE)
        for _ in range(abs(n)):
            expected = expected * (a if n > 0 else inverse)
        assert a ** n == expected
    assert a ** 0 == 1 and RationalFunction(ZERO) ** 3 == 0
    assert RationalFunction(ZERO) ** 0 == 1


def test_ratfun_power_refuses_zero_inverse_and_non_integers():
    with pytest.raises(DivisionByZero):
        RationalFunction(ZERO) ** -1
    a = RationalFunction(ONE + Q, L)
    for bad in (Fraction(1, 2), 0.5, 2.0, "2"):
        with pytest.raises(ValueError):
            a ** bad


def test_ratfun_keeps_quotient_too_wide_to_divide():
    # q^(2^21) + 1 spans more exponent slots than exact division allocates,
    # so reduction keeps the fraction as it stands
    num = Q ** (1 << 21) + ONE
    r = RationalFunction(num, ONE + Q)
    assert r.num == num and r.den == ONE + Q
    assert r * RationalFunction(ONE + Q) == RationalFunction(num)


def test_ratfun_to_polynomial():
    r = RationalFunction((ONE + Q) * (L - xvar(1)), ONE + Q)
    assert r.to_polynomial() == L - xvar(1)
    assert (RationalFunction(Q, ONE + Q)
            + RationalFunction(ONE, ONE + Q)).to_polynomial() == ONE
    assert (RationalFunction(L * Q ** 3, 2 * Q).to_polynomial()
            == Fraction(1, 2) * L * Q ** 2)
    for inexact in (RationalFunction(ONE, ONE + Q),
                    RationalFunction(L + Q, L * Q - 1)):
        with pytest.raises(InexactDivision):
            inexact.to_polynomial()


def test_ratfun_reduces_monomial_content():
    r = RationalFunction(Q ** 2 * xvar(2) * (ONE + Q), Q * xvar(2))
    assert r.num == Q * (ONE + Q) and r.den == ONE
    # x1 on both sides at different exponents, x2 on one side, l negative
    x1, x2 = xvar(1), xvar(2)
    r = RationalFunction(x1 ** 3 * x2 * lpow(-1) * (ONE + Q),
                         x1 * lpow(-2) * (ONE + Q ** 2))
    assert r.num == x1 ** 2 * x2 * L * (ONE + Q) and r.den == ONE + Q ** 2


def test_hash_consistency():
    a = parse("1 - 2*q + q^2")
    b = (ONE - Q) ** 2
    assert hash(a) == hash(b) and a == b
    assert len({a, b}) == 1


# -- q-only operands on the packed kernel against schoolbook references -----

def q_terms(p):
    out = {}
    for m, c in p.terms():
        assert m.le == 0 and not m.xs
        out[m.qh] = c
    return out


def schoolbook_mul(a, b):
    out = {}
    for ea, ca in q_terms(a).items():
        for eb, cb in q_terms(b).items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return Polynomial({(e, 0, ()): c for e, c in out.items()})


def long_div(a, b):
    """Sparse long division in q alone; raises InexactDivision."""
    fa, fb = q_terms(a), q_terms(b)
    rem, quot = dict(fa), {}
    hb, lead, lowest = max(fb), fb[max(fb)], min(fa) - min(fb)
    while rem:
        top = max(rem)
        if top - hb < lowest:
            raise InexactDivision("remainder left")
        f = Fraction(rem[top]) / lead
        quot[top - hb] = f
        for e, c in fb.items():
            k = top - hb + e
            rem[k] = rem.get(k, 0) - f * c
            if not rem[k]:
                del rem[k]
    return Polynomial({(e, 0, ()): c for e, c in quot.items()})


def random_q_poly(rng, nterms, bits, stride=1, lo=0, rational=False):
    """Terms at halves lo + stride*i with signed coefficients of up to bits bits."""
    terms = {}
    for i in rng.sample(range(nterms + nterms // 3 + 1), nterms):
        c = rng.choice((-1, 1)) * rng.randrange(1, 2 ** bits)
        if rational and rng.random() < 0.3:
            c = Fraction(c, rng.randrange(2, 9))
        terms[(lo + stride * i, 0, ())] = c
    return Polynomial(terms)


KERNEL_CASES = [
    # (terms of a, terms of b, coefficient bits, stride, lo of a, lo of b)
    (3, 2, 2, 1, 0, 0),
    (12, 9, 2, 2, 0, 0),
    (40, 30, 3, 2, -7, 3),
    (25, 25, 20, 1, -1, -2),
    (30, 17, 62, 6, 5, -11),
    (20, 20, 64, 3, 0, 1),
    (16, 24, 210, 4, -40, 9),
    (64, 48, 8, 1, 13, -13),
]


@pytest.mark.parametrize("na,nb,bits,stride,lo_a,lo_b", KERNEL_CASES)
def test_q_kernel_matches_schoolbook(na, nb, bits, stride, lo_a, lo_b):
    rng = random.Random(na * 1000 + nb * 10 + bits)
    for _ in range(6):
        a = random_q_poly(rng, na, bits, stride, lo_a)
        b = random_q_poly(rng, nb, bits, stride, lo_b)
        prod = a * b
        assert prod == schoolbook_mul(a, b)
        assert prod.div_exact(b) == a == long_div(prod, b)
        assert prod.div_exact(a) == b


@pytest.mark.parametrize("na,nb,bits,stride,lo_a,lo_b", KERNEL_CASES)
def test_q_kernel_rejects_inexact_dividend(na, nb, bits, stride, lo_a, lo_b):
    rng = random.Random(na + nb + bits)
    a = random_q_poly(rng, na, bits, stride, lo_a)
    b = random_q_poly(rng, nb, bits, stride, lo_b)
    bumped = a * b + qpow(lo_a + lo_b + stride)
    with pytest.raises(InexactDivision):
        long_div(bumped, b)
    with pytest.raises(InexactDivision):
        bumped.div_exact(b)


def test_q_kernel_fraction_coefficients():
    rng = random.Random(17)
    for _ in range(10):
        a = random_q_poly(rng, 20, 8, 2, -3, rational=True)
        b = random_q_poly(rng, 12, 8, 2, 5, rational=True)
        assert a * b == schoolbook_mul(a, b)
        assert (a * b).div_exact(b) == a


def test_q_kernel_divisor_lead_not_unit():
    rng = random.Random(23)
    for lead in (2, -3, 7, 2 ** 70):
        a = random_q_poly(rng, 30, 16, 2)
        b = random_q_poly(rng, 20, 16, 2) + lead * qpow(200)
        assert (a * b).div_exact(b) == a


def test_q_kernel_non_integer_quotient():
    assert (Q + 1).div_exact(2 * Q + 2) == Fraction(1, 2)
    rng = random.Random(29)
    p = random_q_poly(rng, 30, 12, 2)
    factor = ONE + 3 * Q ** 5
    assert (p * factor).div_exact(2 * p) == Fraction(1, 2) * factor


def test_q_kernel_quotient_wider_than_dividend_digits():
    # cancellation makes max|Q| far exceed max|A| = 252, so the packed
    # quotient is not certified and long division decides; in the second
    # case Q's coefficients do not even fit the slots and the packed digits
    # are wrong although the integer division is exact
    b = (ONE - Q) ** 10
    for quot in ((ONE + Q + Q ** 2) ** 10,
                 sum((Q ** i for i in range(10)), ZERO) ** 10):
        assert (b * quot).div_exact(b) == quot
        assert (b * quot * Q ** 3).div_exact(b * Q ** 3) == quot


@pytest.mark.parametrize("w", [1, 2, 3, 5, 8, 9, 12])
def test_pack_unpack_boundary_digits(w):
    half = 1 << (8 * w - 1)
    x = 1 << (8 * w)
    digits = [half - 1, -half + 1, 0, -1, 1, 0, half - 1, -half + 1]
    f = {3 + 4 * i: d for i, d in enumerate(digits) if d}
    v = _pack(f, 3, 4, len(digits), w)
    assert v == sum(d * x ** i for i, d in enumerate(digits))
    assert _unpack(v, len(digits), w) == digits
    # -half is the lowest balanced digit; +half carries into the next slot
    assert _unpack(-half * x, 2, w) == [0, -half]
    assert _unpack(half, 2, w) == [-half, 1]
    with pytest.raises(OverflowError):
        _unpack(half, 1, w)
    with pytest.raises(OverflowError):
        _unpack(x ** 2, 2, w)


@pytest.mark.parametrize("w", [1, 2, 3, 5, 8, 9, 12])
@pytest.mark.parametrize("terms", [1, 16, 17, 64])
def test_pack_branches_equal_the_digit_sum(monkeypatch, terms, w):
    # one shift per term and the biased slot bytes give sum d * X^i, the
    # default threshold taking shifts up to 16 terms and bytes from 17
    half = 1 << (8 * w - 1)
    x = 1 << (8 * w)
    rng = random.Random(100 * terms + w)
    slots = 3 * terms
    digits = [0] * slots
    picks = rng.sample(range(slots), terms)
    for k, i in enumerate(picks):
        digits[i] = ((half - 1, -half + 1)[k] if k < 2 else
                     rng.choice((1, -1)) * rng.randrange(1, half))
    f = {-3 + 2 * i: d for i, d in enumerate(digits) if d}
    expected = sum(d * x ** i for i, d in enumerate(digits))
    for limit in (exactpoly.PACK_MAX_SHIFT_TERMS, 0, len(f)):
        monkeypatch.setattr(exactpoly, "PACK_MAX_SHIFT_TERMS", limit)
        v = _pack(f, -3, 2, slots, w)
        assert v == expected
        assert _unpack(v, slots, w) == digits


def test_q_kernel_product_at_slot_boundary():
    # every middle coefficient of the product sits just below 2^63, the
    # balanced limit of an 8-byte slot
    for sign in (1, -1):
        m = sign * ((1 << 63) - 1) // 64
        a = m * sum((Q ** i for i in range(64)), ZERO)
        b = sum((Q ** i for i in range(64)), ZERO)
        prod = a * b
        assert prod == schoolbook_mul(a, b)
        assert prod.coeff(qh=126) == 64 * m
        assert prod.div_exact(b) == a


def test_mul_sparse_span_keeps_dict_convolution():
    huge = parse("q^10000000000")
    assert (huge + Q + 1) * (Q + 1) == parse(
        "1 + 2*q + q^2 + q^10000000000 + q^10000000001")
    wide = (huge + 1) * (1 + Q) ** 12
    dense = (1 + Q) ** 12
    assert len(wide) * len(dense) >= 64
    assert wide * dense == (huge + 1) * (1 + Q) ** 24


def test_div_sparse_span_raises_bound():
    # a q-only division wider than SPAN_BOUND goes to capped long division,
    # like its twin in l: a quotient filling the layout is refused at once
    start = time.perf_counter()
    with pytest.raises(BoundExceeded):
        parse("q^10000000000 - 1").div_exact(parse("q - 1"))
    assert time.perf_counter() - start < 1.0
    # and a quotient just as wide but sparse is computed
    sparse = parse("q^10000000000") + 1
    assert (sparse * (Q + 1)).div_exact(Q + 1) == sparse


def test_q_kernel_properties():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def q_polys(draw):
        stride = draw(st.sampled_from((1, 2, 3, 4)))
        lo = draw(st.integers(-9, 9))
        coeffs = st.one_of(st.integers(-5, 5), st.integers(-2 ** 220, 2 ** 220))
        terms = draw(st.dictionaries(st.integers(0, 40), coeffs,
                                     min_size=1, max_size=30))
        p = Polynomial({(lo + stride * i, 0, ()): c for i, c in terms.items()})
        hypothesis.assume(not p.is_zero())
        return p

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(q_polys(), q_polys())
    def check(a, b):
        prod = a * b
        assert prod == schoolbook_mul(a, b) == b * a
        assert prod.div_exact(b) == a
        assert prod.div_exact(a) == b

    check()


# -- generic kernel: several variables, rational coefficients --------------

def convolution(a, b):
    """Term-by-term product with exponents merged in plain dicts."""
    out = {}
    for ma, ca in a.terms():
        for mb, cb in b.terms():
            xs = dict(ma.xs)
            for i, e in mb.xs:
                xs[i] = xs.get(i, 0) + e
            key = (ma.qh + mb.qh, ma.le + mb.le, tuple(sorted(xs.items())))
            out[key] = out.get(key, 0) + ca * cb
    return Polynomial(out)


def random_gen_poly(rng, nterms, variables, rational=False, bits=6,
                    q_steps=4):
    """Terms over a small box in the given variables: q in halves with a
    stride, q_steps exponents in all, l down to -3, x1..x3 up to 1."""
    stride, lo = rng.choice((1, 2, 3)), rng.randrange(-5, 6)
    terms = {}
    for _ in range(nterms):
        qh = lo + stride * rng.randrange(q_steps) if "q" in variables else 0
        le = rng.randrange(-3, 2) if "l" in variables else 0
        xs = tuple((i, e) for i in (1, 2, 3) if f"x{i}" in variables
                   for e in [rng.randrange(2)] if e)
        c = rng.choice((-1, 1)) * rng.randrange(1, 2 ** bits)
        if rational and rng.random() < 0.5:
            c = Fraction(c, rng.randrange(2, 12))
        terms[(qh, le, xs)] = c
    return Polynomial(terms)


VARIABLE_SETS = [("q", "l"), ("l",), ("q", "x1"), ("l", "x2", "x3"),
                 ("q", "l", "x1", "x2", "x3"), ("q",)]


@pytest.fixture
def packing_calls(monkeypatch):
    """Counts the packed multiplies, the packed quotients tried and those
    that came back certified up to the box check, the packed quotients
    divided in more than one row, and the long divisions; checks that every
    slot map these kernels get has int coefficients."""
    calls = {"mul": 0, "tried": 0, "div": 0, "rows": 0, "long": 0}

    def integral(args):
        for arg in args:
            if isinstance(arg, dict):
                assert all(type(c) is int for c in arg.values())

    def counted(kind, fn):
        def wrapper(*args):
            integral(args)
            calls[kind] += 1
            return fn(*args)
        return wrapper

    def certified(*args):
        integral(args)
        calls["tried"] += 1
        result = div_packed(*args)
        calls["div"] += result is not None
        return result

    def by_rows(a, b, unit):
        calls["rows"] += len(a) > 1
        return divide_rows(a, b, unit)

    div_packed = exactpoly._div_packed
    divide_rows = exactpoly._divide_rows
    monkeypatch.setattr(exactpoly, "_divide_rows", by_rows)
    monkeypatch.setattr(exactpoly, "_mul_packed", counted("mul", exactpoly._mul_packed))
    monkeypatch.setattr(exactpoly, "_div_packed", certified)
    monkeypatch.setattr(exactpoly, "_long_div", counted("long", exactpoly._long_div))
    return calls


def force_packing(monkeypatch):
    monkeypatch.setattr(exactpoly, "PACK_MIN_MUL_WORK", 1)
    monkeypatch.setattr(exactpoly, "PACK_MIN_DIV_WORK", 1)
    monkeypatch.setattr(exactpoly, "PACK_MAX_SLOTS_PER_PRODUCT", 1 << 8)


def force_rows(monkeypatch):
    """Packing forced, and by rows wherever a digit below the top one is
    live: without the fixed cost per step, rows never cost more than one
    divmod of the whole layout."""
    force_packing(monkeypatch)
    monkeypatch.setattr(exactpoly, "PACK_ROW_STEP", 0)


def below_every_term(p):
    """A monomial below every term of p in every variable: the lowest q
    exponent, an l exponent below all, and each x at its lowest exponent,
    an absent x counting as 0."""
    monomials = [m for m, _ in p.terms()]
    xs = {i: min(0, *(dict(m.xs).get(i, 0) for m in monomials))
          for m in monomials for i, _ in m.xs}
    return Polynomial.monomial(1, qh=min(m.qh for m in monomials),
                               le=min(m.le for m in monomials) - 1, xs=xs)


def check_generic_pair(a, b, c):
    prod = a * b
    assert prod == convolution(a, b) == b * a
    # the ring laws with a third operand
    assert prod * c == a * (b * c)
    assert a * (b + c) == prod + a * c
    assert prod.div_exact(b) == a
    assert prod.div_exact(a) == b
    # a monomial is never a multiple of a polynomial with two or more terms;
    # one below every term is reached last, so the long division finds a's
    # terms first and then fails at once
    if len(b) > 1:
        with pytest.raises(InexactDivision):
            (prod + below_every_term(prod)).div_exact(b)


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("rational", [False, True])
@pytest.mark.parametrize("variables", VARIABLE_SETS)
def test_generic_kernel_differential(variables, rational, forced,
                                     packing_calls, monkeypatch):
    if forced:
        force_packing(monkeypatch)
    rng = random.Random(f"{variables}/{rational}")
    # the third operands come from a stream of their own, so a and b are
    # drawn as they were before the ring laws were checked
    third = random.Random(f"{variables}/{rational}/c")
    for _ in range(8):
        a = random_gen_poly(rng, rng.randrange(8, 24), variables, rational)
        b = random_gen_poly(rng, rng.randrange(8, 24), variables, rational)
        c = random_gen_poly(third, third.randrange(1, 8), variables, rational)
        if a.is_zero() or b.is_zero():
            continue
        check_generic_pair(a, b, c)
    if forced:
        assert packing_calls["mul"] and packing_calls["div"]


def check_packs_at_default_thresholds(rng, variables, packing_calls,
                                      q_steps=4):
    """Returns how many of the products a * b and b * a of the operands
    themselves were packed; the ring-law products of check_generic_pair
    are larger and would pack at thresholds these operands miss."""
    packed = 0
    for rational in (False, True):
        a = random_gen_poly(rng, 30, variables, rational, q_steps=q_steps)
        b = random_gen_poly(rng, 20, variables, rational, q_steps=q_steps)
        before = packing_calls["mul"]
        assert a * b == b * a
        packed += packing_calls["mul"] - before
        check_generic_pair(a, b, a - b)
        # the divisor's content 6 is divided out before packing, so
        # packing certifies a / 6 whenever it certifies a
        before = packing_calls["div"]
        assert (a * b).div_exact(b) == a
        certified = packing_calls["div"] - before
        assert (a * b).div_exact(6 * b) == a / 6
        assert packing_calls["div"] == before + 2 * certified
    return packed


def test_generic_kernel_packs_at_default_thresholds(packing_calls):
    rng = random.Random(31)
    packed = sum(check_packs_at_default_thresholds(rng, variables,
                                                   packing_calls)
                 for variables in (("q", "l"), ("l",), ("l", "x2")))
    assert packed >= 6 and packing_calls["div"] >= 6


def test_q_alone_packs_at_default_thresholds(packing_calls):
    # q alone is the one-digit layout of the same packed kernel; 16 q
    # exponents give the operands enough terms to pass the work thresholds
    assert check_packs_at_default_thresholds(random.Random(37), ("q",),
                                             packing_calls, q_steps=16)
    assert packing_calls["div"]


def test_a_square_equals_the_product_with_an_equal_copy(monkeypatch):
    # p * p is cleared, indexed and packed once, so the int product squares;
    # an equal copy is another dict and takes the two-operand path
    squares = []
    mul_packed = exactpoly._mul_packed

    def spy(fa, na, fb, nb):
        squares.append(fb is fa)
        return mul_packed(fa, na, fb, nb)

    monkeypatch.setattr(exactpoly, "_mul_packed", spy)
    rng = random.Random(43)
    # q and l with Fraction coefficients, Laurent in both; q alone; x1 too
    packed = [random_gen_poly(rng, 40, ("q", "l"), rational=True, q_steps=8),
              random_gen_poly(rng, 40, ("q", "l"), bits=40, q_steps=8),
              random_gen_poly(rng, 30, ("q",), rational=True, q_steps=40),
              random_gen_poly(rng, 40, ("q", "l", "x1"), q_steps=8)]
    # below the work threshold, and too sparse for the packed layout
    by_dicts = [random_gen_poly(rng, 5, ("q", "l"), rational=True),
                parse("q^-3000 + 2*l + 1/3*q^3000*l^-1 + x1 + q*x1 + l*x1"
                      " + 5*q^2 + 7*l^2")]
    for p in packed + by_dicts:
        copy = Polynomial._raw(dict(p._terms))
        squares.clear()
        assert p * p == p * copy == convolution(p, p) == p ** 2
        # p * p, p * copy, then the base of p ** 2 squared
        assert squares == ([True, False, True] if p in packed else [])
    assert any(type(c) is Fraction for p in packed for _, c in p.terms())


def test_generic_kernel_properties(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    force_packing(monkeypatch)

    @st.composite
    def triples(draw):
        variables = draw(st.sampled_from(VARIABLE_SETS))
        coeffs = st.one_of(
            st.integers(-5, 5), st.integers(-2 ** 130, 2 ** 130),
            st.fractions(min_value=-50, max_value=50, max_denominator=12))

        def poly(top=4, size=16):
            stride = draw(st.sampled_from((1, 2, 3)))
            lo = draw(st.integers(-6, 6))
            keys = st.tuples(
                st.integers(0, top) if "q" in variables else st.just(0),
                st.integers(1 - top, 1) if "l" in variables else st.just(0),
                st.tuples(*(st.integers(-min(top, 2), min(top, 2))
                            if f"x{i}" in variables else st.just(0)
                            for i in (1, 2, 3))))
            terms = draw(st.dictionaries(keys, coeffs, min_size=1,
                                         max_size=size))
            p = Polynomial({(lo + stride * i, le, tuple(
                (v, e) for v, e in enumerate(xs, 1) if e)): c
                for (i, le, xs), c in terms.items()})
            hypothesis.assume(not p.is_zero())
            return p

        # a small third operand: under forced packing a triple product of
        # three full-size operands in five variables packs into integers of
        # megabytes, and one example could take seconds
        return poly(), poly(), poly(top=1, size=4)

    @hypothesis.settings(max_examples=25, deadline=None, database=None)
    @hypothesis.given(triples())
    def check(triple):
        check_generic_pair(*triple)

    check()


def test_generic_kernel_x_in_every_term(packing_calls, monkeypatch):
    # x1 divides every term, so its lowest exponent is not 0; a / b is not
    # a Laurent polynomial
    force_packing(monkeypatch)
    a = xvar(1) * (ONE + Q + L + xvar(2)) ** 3
    b = xvar(1) ** 2 * (ONE - L * xvar(1) + Q ** 2) ** 2
    prod = a * b
    assert prod == convolution(a, b)
    assert prod.div_exact(b) == a and prod.div_exact(a) == b
    assert packing_calls["mul"] and packing_calls["div"] == 2
    with pytest.raises(InexactDivision):
        a.div_exact(b)


def test_x_exponents_may_be_negative(packing_calls, monkeypatch):
    x1, inverse = xvar(1), parse("x1^-1")
    assert x1 * inverse == 1 and hash(x1 * inverse) == hash(1)
    assert x1 ** -1 == ONE.div_exact(x1) == inverse
    assert x1.div_exact(inverse) == x1 ** 2
    for values in ({"x": {1: 0}}, {"all_x": 0}):
        with pytest.raises(NegativeExponentAtZero):
            inverse.subs(**values)
    assert (inverse + Q).subs(x={1: 2}) == Fraction(1, 2) + Q
    # the content x1^(-2) * x2^(-1) of both sides cancels
    r = RationalFunction(parse("x1^-2*x2^-1 + q*x1^-1*x2^-1"),
                         parse("x1^-2*x2^-1 + l*x1^-2"))
    assert r.num == ONE + Q * x1 and r.den == ONE + L * xvar(2)
    # an absent x1 sits above x1's lowest exponent -1, not at it; slots
    # that took it for the lowest misplace these terms under forced packing
    force_packing(monkeypatch)
    a = parse("x1^-1 + 1 + q + x2") ** 3
    b = parse("l*x1^-1 + x1 + q^2") ** 2
    assert (a * b).div_exact(b) == a and (a * b).div_exact(a) == b
    assert packing_calls["mul"] and packing_calls["div"]


def test_generic_quotient_decoded_outside_the_box(packing_calls):
    # at the dividend's radix r for q, (q^3 + l) C packs to (X^3 + X^r) C(X)
    # and (1 + q) C to (1 + X) C(X); r - 3 = 3 is odd, so the integer
    # division is exact, but its quotient X^3 (1 - X + X^2) sits at q digits
    # 3..5, above the quotient's highest q exponent 2
    c = (ONE + Q + L) ** 2
    a, b = (Q ** 3 + L) * c, (ONE + Q) * c
    with pytest.raises(InexactDivision):
        a.div_exact(b)
    assert packing_calls["div"] == 1 and packing_calls["long"] == 1
    # the same shape with an exact quotient is certified by packing
    assert ((Q ** 3 + L) * b).div_exact(b) == Q ** 3 + L


def test_generic_quotient_too_large_for_the_slots_falls_back(packing_calls):
    # the two-variable twin of the q-only case above: cancellation makes
    # max|Q| far exceed max|A| = 504, so the packed quotient is not
    # certified, or its digits are wrong, and long division decides
    b = (ONE - Q) ** 10 * (ONE + L)
    for quot in ((ONE + Q + Q ** 2) ** 10 * (ONE + L),
                 sum((Q ** i for i in range(10)), ZERO) ** 10 * (ONE - L)):
        assert (b * quot).div_exact(b) == quot
    assert packing_calls["long"] == 2 and packing_calls["div"] == 0


def test_quotient_wider_than_its_slots_is_refused(packing_calls):
    # the quotient's coefficients reach 62 bits, the slots, sized from the
    # dividend's 20-bit ones, hold 47: the integer division is exact and
    # the digits unpack, but they are wrong, and only the bound
    # max|B| * max|Q| * len(B) < 2^(8w-1) refuses them
    rng = random.Random(2)
    b = (ONE - Q) ** 20
    quot = sum((Q ** i for i in range(10)), ZERO) ** 20 + sum(
        (rng.choice((-1, 1)) * Q ** i for i in range(181)), ZERO)
    for quot in (quot, quot * (ONE - L)):
        assert (b * quot).div_exact(b) == quot
    assert packing_calls["tried"] == packing_calls["long"] == 2
    assert packing_calls["div"] == 0


# -- the row path: packed rows of the top digit, divided in its variable ---

def quotient_or_error(a, b):
    try:
        return a.div_exact(b)
    except InexactDivision:
        return InexactDivision


def long_division_outcome(a, b, monkeypatch):
    """The quotient, or InexactDivision, that long division alone finds."""
    with monkeypatch.context() as m:
        m.setattr(exactpoly, "_div_packed", lambda *args: None)
        return quotient_or_error(a, b)


def row_poly(rng, variables, rows, rational):
    """Terms in rows of the last variable: rows maps a row k to how many
    terms carry its exponent k - 1, and a row mapped to 0 stays empty.  The
    lower variables take Laurent exponents: q from -3/2 to 3/2 and the
    others from -1 to 2, or q from -1 to 1 and the others from -1 to 1 in
    five variables, whose layout would otherwise outgrow forced packing."""
    *lower, last = variables
    top = 2 if len(variables) < 5 else 1
    terms = {}
    for k, count in rows.items():
        for _ in range(count):
            exps = {v: rng.randrange(-top - 1, top + 2) if v == "q" else
                    rng.randrange(-1, top + 1) for v in lower}
            exps[last] = k - 1
            c = rng.choice((-1, 1)) * rng.randrange(1, 40)
            if rational and rng.random() < 0.5:
                c = Fraction(c, rng.randrange(2, 9))
            xs = tuple((int(v[1:]), e) for v, e in exps.items()
                       if v[0] == "x" and e)
            terms[(exps.get("q", 0), exps.get("l", 0), xs)] = c
    return Polynomial(terms)


ROW_LAYOUTS = [("q", "l"), ("l", "x1", "x2"), ("q", "l", "x1", "x2", "x3")]


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("variables", ROW_LAYOUTS)
def test_row_division_matches_long_division(variables, forced,
                                            packing_calls, monkeypatch):
    if forced:
        force_rows(monkeypatch)
    rng = random.Random(f"rows/{variables}")
    last = variables[-1]
    exact = inexact = 0
    for trial in range(12):
        rational = trial % 2 == 1
        # the divisor's top row is one term in every third trial, a shift
        top_terms = 1 if trial % 3 == 0 else rng.randrange(2, 5)
        b = row_poly(rng, variables, {0: rng.randrange(1, 4),
                                      1: rng.randrange(0, 3),
                                      2: top_terms}, rational)
        # quotient rows 1 and 2 stay empty in every other trial
        counts = ({0: 3, 1: 0, 2: 0, 3: 3} if trial % 2 else
                  {k: rng.randrange(0, 4) for k in range(4)})
        quot = row_poly(rng, variables, counts, rational)
        if quot.is_zero() or len(b) < 2:
            continue
        a = b * quot
        # a coefficient of the dividend's top row and one of its lowest row
        # changed, so that the operands span the same exponents
        keys = sorted(a._terms, key=lambda k: k[1] if last == "l" else
                      dict(k[2]).get(int(last[1:]), 0))
        for extra in (Polynomial({keys[-1]: Fraction(1, 3)}),
                      Polynomial({keys[0]: 7})):
            for dividend in (a, a + extra):
                expected = long_division_outcome(dividend, b, monkeypatch)
                assert quotient_or_error(dividend, b) == expected
                if dividend is a:
                    assert expected == quot
                    exact += 1
                else:
                    inexact += expected is InexactDivision
    assert exact >= 16 and inexact >= 8
    if forced:
        assert packing_calls["rows"] >= 8


def test_row_division_proves_inexact_quotients(packing_calls, monkeypatch):
    # each of these dividends is not a multiple of its divisor, and each
    # raises InexactDivision, the type RationalFunction's reduction catches
    force_rows(monkeypatch)
    c = (ONE + Q + L) ** 2
    # a row remainder: the top l row of (q^3 + l) c is 1, that of
    # (1 + q) c is 1 + q, and 1 is not a multiple of 1 + X
    a, b = (Q ** 3 + L) * c, (ONE + Q) * c
    with pytest.raises(InexactDivision):
        a.div_exact(b)
    assert packing_calls["rows"] == 1 and packing_calls["long"] == 0
    # a nonzero low row: every row above the divisor's top one divides,
    # by a shift, and row 0 ends at q
    b = ONE + L
    a = b * (ONE + Q) * (ONE + L) ** 2 + Q
    with pytest.raises(InexactDivision):
        a.div_exact(b)
    assert packing_calls["rows"] == 2 and packing_calls["long"] == 0
    # a quotient row outside the box: in rows of x1, (q^3 + l) c by
    # (1 + q) c divides exactly on the (q, l) slots, as the test above
    # shows, into digits at q^3..q^5, above the quotient's top q exponent;
    # packing proves nothing there, and long division decides
    x1 = xvar(1)
    a, b = (Q ** 3 + L) * c * (ONE + x1), (ONE + Q) * c * (ONE + x1)
    with pytest.raises(InexactDivision):
        a.div_exact(b)
    assert packing_calls["rows"] == 3 and packing_calls["div"] == 1
    assert packing_calls["long"] == 1
    # a rational function over each keeps the fraction
    for num, den in ((a, b), (b * (ONE + L) + Q, ONE + L)):
        r = RationalFunction(num, den)
        assert r * RationalFunction(den) == RationalFunction(num)


def test_row_division_reaches_the_two_variable_recursion(packing_calls):
    # B_n(l, q) at n = 9 divides B_8^2 (3,081 terms) by B_7 (386 terms):
    # each step runs by rows at the default thresholds, with no long
    # division, and meets the product route
    from bigrassmannian.bpoly import bn_lambda_q
    start = time.perf_counter()
    assert bn_lambda_q(9, "recursion") == bn_lambda_q(9)
    assert packing_calls["rows"] >= 4 and packing_calls["long"] == 0
    assert time.perf_counter() - start < 2.0


def test_generic_layout_wider_than_span_bound():
    wide = lpow(1 << 21) + Q
    c = (ONE + Q + L + xvar(1)) ** 4
    prod = wide * c
    assert prod == convolution(wide, c)
    start = time.perf_counter()
    assert prod.div_exact(c) == wide
    assert prod.div_exact(wide) == c
    with pytest.raises(InexactDivision):
        (prod + L).div_exact(c)
    # the first quotient coefficient, 2/3, is not an integer; the term cap
    # of the wide layout would refuse the quotient only later
    with pytest.raises(InexactDivision):
        (parse("l^3000000 + 1") * parse("2*l + 3") + parse("l^5")).div_exact(
            parse("3*l + 2"))
    assert time.perf_counter() - start < 1.0


def test_generic_quotient_filling_a_wide_layout_raises_bound():
    # (l^N - 1) / (l + 1) is exact with N terms; above SPAN_BOUND slots the
    # generic path refuses it instead of building every term
    a, b = parse("l^100000000 - 1"), parse("l + 1")
    start = time.perf_counter()
    with pytest.raises(BoundExceeded):
        a.div_exact(b)
    with pytest.raises(BoundExceeded):
        parse("q*l^100000000 - q").div_exact(parse("l*q + q"))
    # a rational function over it keeps the fraction
    r = RationalFunction(a, b)
    assert (r.num, r.den) == (a, b)
    assert time.perf_counter() - start < 1.0
    # a quotient just as wide but sparse is still computed
    sparse = lpow(100000000) + 1
    assert (sparse * b).div_exact(b) == sparse


def test_long_division_inexact_with_two_thousand_terms_is_fast():
    # the heap keeps the remainder's leading terms; rescanning the whole
    # remainder for its leading term on every step took seconds here
    b = (ONE + L * Q) * (ONE + L * Q ** 2) * (ONE - L ** 2 * qpow(3))
    a = sum((Fraction(k % 7 + 1, 3) * qpow(k % 47) * lpow(k // 47 - 20)
             for k in range(2000)), ZERO)
    dividend = a * b + lpow(-30)
    assert len(dividend) > 2000
    start = time.perf_counter()
    with pytest.raises(InexactDivision):
        dividend.div_exact(b)
    # 2*q + 3 is primitive, so by Gauss's lemma an exact quotient of an
    # integer dividend is integral; its first term would be q^127999 / 2.
    # Long division run to the quotient box's edge is quadratic in the span.
    with pytest.raises(InexactDivision):
        (parse("q^128000") + 1).div_exact(parse("2*q + 3"))
    # the quotient's coefficients would be integers here, 2^k growing along
    # the long division; the lowest term, 1 / -2, already is not one
    with pytest.raises(InexactDivision):
        (parse("q^64000") + 1).div_exact(parse("q - 2"))
    assert time.perf_counter() - start < 1.0
    assert dividend.div_exact(ONE) == dividend


# -- exact coefficients, hashing ---------------------------------------------

@pytest.mark.parametrize("bad", [0.5, 1.0, "3", "1/2", complex(1, 0)])
def test_inexact_coefficients_are_refused(bad):
    with pytest.raises(TypeError):
        Polynomial({(0, 0, ()): bad})
    with pytest.raises(TypeError):
        Polynomial.constant(bad)
    with pytest.raises(TypeError):
        Polynomial.monomial(bad, qh=2)


def test_exact_coefficients_are_stored_canonically():
    p = Polynomial({(0, 0, ()): Fraction(6, 3), (2, 0, ()): True,
                    (4, 0, ()): Fraction(1, 2)})
    coeffs = dict((m.qh, c) for m, c in p.terms())
    assert coeffs == {0: 2, 2: 1, 4: Fraction(1, 2)}
    assert type(coeffs[0]) is int and type(coeffs[2]) is int
    assert type(Polynomial.constant(Fraction(8, 4)).constant_value()) is int
    assert type(Polynomial.monomial(Fraction(-3, 1), le=1).coeff(le=1)) is int


def test_sums_at_every_entry_point_are_canonical():
    # parse, +/-, subs, at_q1, one-term div_exact, an int factor and the
    # kernels' scaling all build term dicts: a sum that cancels leaves no
    # key, and an integral coefficient is an int (1 == Fraction(1), so the
    # type counts)
    half = Fraction(1, 2)
    square = parse("1 + 2*q + q^2")
    for p, terms in [
        (parse("q - q"), {}),
        (parse("q - 2*q + q"), {}),
        (Q - Q, {}),
        ((L - 1).subs(lam=1), {}),
        ((Q - 1).at_q1(), {}),
        (parse("1/2*q + 1/2*q"), {(2, 0, ()): 1}),
        (half * Q + half * Q, {(2, 0, ()): 1}),
        ((half * Q + half).at_q1(), {(0, 0, ()): 1}),
        ((half * L * Q + half * Q).subs(lam=1), {(2, 0, ()): 1}),
        (parse("2 + 4*q^2").div_exact(parse("2*q")),
         {(-2, 0, ()): 1, (2, 0, ()): 2}),
        ((half + half * Q) * (2 + 2 * Q), square._terms),
        ((half + half * Q) * 2, {(0, 0, ()): 1, (2, 0, ()): 1}),
        (0 * (half + Q), {}),
        ((2 * square).div_exact(2 + 2 * Q), {(0, 0, ()): 1, (2, 0, ()): 1}),
    ]:
        assert p._terms == terms
        assert all(type(c) is int for c in p._terms.values())


def test_parse_scales_linearly():
    # adding each term to a copy of the running sum took about 25 s here
    n = 64000
    text = " + ".join(f"{k + 1}*q^{k}" if k else "1" for k in range(n))
    start = time.perf_counter()
    p = parse(text)
    assert time.perf_counter() - start < 2.0
    assert p == Polynomial({(2 * k, 0, ()): k + 1 for k in range(n)})


def test_exponent_keys_are_canonical_and_integral():
    # unsorted x pairs and zero x exponents name the same monomial
    unsorted = Polynomial({(0, 0, ((2, 1), (1, 1))): 1})
    zero_exp = Polynomial({(0, 0, ((1, 0),)): 1})
    assert unsorted == xvar(1) * xvar(2) and str(unsorted) == "x1*x2"
    assert hash(unsorted) == hash(xvar(1) * xvar(2))
    assert zero_exp == 1 and hash(zero_exp) == hash(1)
    assert unsorted.coeff(xs={2: 1, 1: 1, 3: 0}) == 1
    # keys that become equal add their coefficients
    assert Polynomial({(2, 0, ()): 3, (2, 0, ((1, 0),)): -3}) == 0
    for bad in (lambda: Polynomial({(0.5, 0, ()): 1}),
                lambda: Polynomial.monomial(1, qh=0.5),
                lambda: qpow(0.5), lambda: lpow(1.5), lambda: xvar(1.0),
                lambda: Polynomial.monomial(1, xs={1: 0.5})):
        with pytest.raises(TypeError):
            bad()
    # x exponents may be negative, like those of q and l
    inverse = Polynomial({(0, 0, ((1, -1),)): 1})
    assert inverse == xvar(1) ** -1 and str(inverse) == "x1^(-1)"
    with pytest.raises(ValueError):
        Polynomial({(0, 0, ((0, 1),)): 1})
    with pytest.raises(ValueError):
        Polynomial({(0, 0, ((1, 1), (1, 2))): 1})


@pytest.mark.parametrize("c", [0, 1, -7, 2 ** 80, Fraction(1, 2), Fraction(-9, 4)])
def test_constants_hash_like_their_value(c):
    p = Polynomial.constant(c)
    assert p == c and hash(p) == hash(c)
    assert len({p, c}) == 1
    assert {c: "v"}[p] == "v"


def test_print_parse_and_hash_properties():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    values = st.one_of(st.integers(-2 ** 70, 2 ** 70),
                       st.fractions(max_denominator=30))
    # q in halves (so half powers), l and up to three x's of either sign
    keys = st.tuples(st.integers(-7, 7), st.integers(-4, 4), st.tuples(
        *(st.integers(-3, 3) for _ in range(3))))
    polys = st.dictionaries(keys, values, max_size=6).map(
        lambda terms: Polynomial({(qh, le, tuple(
            (i, e) for i, e in enumerate(xs, 1) if e)): c
            for (qh, le, xs), c in terms.items()}))

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(polys, values)
    def check(p, v):
        assert parse(format_poly(p)) == p
        # equal values hash equally across int, Fraction and a constant
        # polynomial, however the constant was reached
        c, f = Polynomial.constant(v), Fraction(v)
        reached = p - p + Polynomial.monomial(f, qh=2) * qpow(-2)
        assert c == v == f == reached
        assert hash(c) == hash(v) == hash(f) == hash(reached)
        assert len({c, v, f, reached}) == 1

    check()


def test_zero_hashes_like_zero():
    assert hash(ZERO) == hash(0) == hash(Q - Q)
    assert hash(ONE) == hash(1)


def test_rational_functions_are_unhashable():
    a = RationalFunction(xvar(1) * (ONE + Q), xvar(2) * (ONE + Q))
    b = RationalFunction(xvar(1), xvar(2))
    assert a == b
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(TypeError):
        {b}


def format_poly_by_factors(p):
    """format_poly as it was, one factor loop for every term, in the term
    order written out densely: (qh, le, total x degree, x1, x2, ...)."""
    if p.is_zero():
        return "0"
    nv = max((xs[-1][0] for _, _, xs in p._terms if xs), default=0)

    def dense(key):
        qh, le, xs = key
        vector = [0] * nv
        for i, e in xs:
            vector[i - 1] = e
        return (qh, le, sum(vector), vector)

    keys = sorted(p._terms, key=dense)
    parts = []
    for key in keys:
        qh, le, xs = key
        c = p._terms[key]
        neg = c < 0
        c = -c if neg else c
        factors = []
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


@pytest.mark.parametrize("variables", ["q", "l", "ql", "", "qlx"])
def test_format_poly_equals_the_factor_loop(variables):
    rng = random.Random(f"format/{variables}")
    coeffs = (1, -1, 2, -3, 10 ** 30, -(10 ** 30), Fraction(1, 2),
              Fraction(-7, 3))
    polys = [ZERO]
    for size in (1, 1, 2, 3, 5, 12, 40):
        for _ in range(6):
            terms = {}
            for _ in range(size):
                qh = rng.randrange(-7, 8) if "q" in variables else 0
                le = rng.randrange(-3, 4) if "l" in variables else 0
                # several indices, so the x order compares across them
                xs = (tuple((i, rng.choice((-1, 1, 2))) for i in (1, 2, 5)
                            if rng.randrange(2)) if "x" in variables else ())
                terms[qh, le, xs] = rng.choice(coeffs)
            polys.append(Polynomial(terms))
    for p in polys:
        assert format_poly(p) == format_poly_by_factors(p)
        assert parse(format_poly(p)) == p
