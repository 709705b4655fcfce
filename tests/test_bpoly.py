import math

import pytest

from bigrassmannian.errors import BoundExceeded
from bigrassmannian.exactpoly import ONE, Q, lpow, parse
from bigrassmannian.bpoly import (
    ROUTES,
    bn,
    bn_determinant,
    bn_lambda_q,
    bn_product,
    bn_recursion,
    bn_signed_sum,
    sign_balance,
    verify_all,
)
from bigrassmannian.tournament import perfect_matching, triples
from bigrassmannian.vandermonde import vandermonde_product

B2 = parse("1 - q")
B3 = parse("1 - 2*q + 2*q^3 - q^4")
B4 = parse("1 - 3*q + q^2 + 4*q^3 - 2*q^4 - 2*q^5 - 2*q^6 + 4*q^7 + q^8"
           " - 3*q^9 + q^10")


def test_signed_sum_small_values():
    assert bn_signed_sum(1) == ONE
    assert bn_signed_sum(2) == B2
    assert bn_signed_sum(3) == B3
    assert bn_signed_sum(4) == B4


def test_product_form():
    assert bn_product(1) == ONE
    assert bn_product(4) == (ONE - Q) ** 3 * (ONE - Q ** 2) ** 2 * (ONE - Q ** 3)
    assert bn_product(4) == B4


def test_recursion_route():
    assert bn_recursion(3) == (ONE - Q) ** 2 * (ONE - Q ** 2)
    assert bn_recursion(4) == (B3 * B3).div_exact(B2) * (ONE - Q ** 3)
    assert bn_recursion(10) == bn_product(10)


def test_determinant_route():
    assert bn_determinant(1) == ONE
    assert bn_determinant(4) == (ONE - Q) ** 3 * (ONE - Q ** 2) ** 2 * (ONE - Q ** 3)
    assert bn_determinant(8) == bn_product(8)


@pytest.mark.parametrize("n", range(1, 7))
def test_verify_all_routes_agree(n):
    agreement = verify_all(n)
    assert agreement.ok
    assert {r.route for r in agreement.results} == set(ROUTES)
    assert all(r.poly == agreement.results[0].poly for r in agreement.results)


def test_degree_and_edge_coefficients():
    for n in range(1, 13):
        p = bn_product(n)
        assert p.q_degree_halves() == 2 * math.comb(n + 1, 3)
        coeffs = p.q_coefficients()
        assert coeffs[0] == 1
        assert abs(coeffs[math.comb(n + 1, 3)]) == 1


def test_sign_balance():
    assert sign_balance(2) == -1
    for n in (3, 4, 5, 6, 7):
        assert sign_balance(n) == 0


def test_lambda_q_product_and_recursion():
    assert bn_lambda_q(2) == ONE + lpow(1) * Q
    for n in (2, 3, 4, 5, 10):
        assert bn_lambda_q(n) == bn_lambda_q(n, route="recursion")
        assert bn_lambda_q(n).subs(lam=-1) == bn_product(n)
    expected4 = ((ONE + lpow(1) * Q) ** 3
                 * (ONE + lpow(1) * Q ** 2) ** 2
                 * (ONE + lpow(1) * Q ** 3))
    assert bn_lambda_q(4) == expected4


def test_route_dispatch():
    assert bn(4, "signed-sum") == B4
    with pytest.raises(ValueError):
        bn(4, "nonsense")


def test_bounds():
    with pytest.raises(BoundExceeded):
        bn_signed_sum(10)
    with pytest.raises(BoundExceeded):
        bn_determinant(25)
    with pytest.raises(BoundExceeded, match="^sign balance above bound 9$"):
        sign_balance(10)
    with pytest.raises(BoundExceeded,
                       match="^two-variable polynomial above bound 15$"):
        bn_lambda_q(16)
    # a bound given to verify_all replaces each route's own
    with pytest.raises(BoundExceeded, match="^signed sum above bound 2$"):
        verify_all(3, max_n=2)
    assert verify_all(4, max_n=4).ok


@pytest.mark.parametrize("n", [-1, -2])
def test_negative_sizes_raise_at_every_entry_point(n):
    # each of these returned a value for a negative size: 1 for the
    # products and routes, [] for the matching and the triples
    message = f"^size must be nonnegative, got {n}$"
    calls = [bn_signed_sum, bn_product, bn_recursion, bn_determinant,
             bn_lambda_q, lambda n: bn_lambda_q(n, "recursion"), verify_all,
             vandermonde_product, perfect_matching, triples]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call(n)
    # size 0 stays valid: the empty product, and no pair or triple
    for route in (bn_signed_sum, bn_product, bn_recursion, bn_determinant,
                  bn_lambda_q, vandermonde_product):
        assert route(0) == ONE
    assert verify_all(0).ok
    assert perfect_matching(0) == [] and triples(0) == []
