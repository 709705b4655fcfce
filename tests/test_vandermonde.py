import pytest

from bigrassmannian.errors import BoundExceeded
from bigrassmannian.exactpoly import ONE, ZERO, lpow, parse, xvar
from bigrassmannian.vandermonde import (
    chi_monomial,
    tournament_sum,
    vandermonde_product,
    vanishing_check,
)

# the weighted 3-variable expansion, term for term
V3_WEIGHTED = parse(
    "x1^2*x2 + q*l*x1*x2^2 + q*l*x1^2*x3 + q^2*l^2*x1*x2*x3 + q^2*l*x1*x2*x3"
    " + q^3*l^2*x2^2*x3 + q^3*l^2*x1*x3^2 + q^4*l^3*x2*x3^2")


def test_weighted_product_n3():
    assert vandermonde_product(3, weighted=True) == V3_WEIGHTED


def test_empty_and_trivial_products():
    assert vandermonde_product(1) == ONE
    assert vandermonde_product(2) == xvar(1) + lpow(1) * xvar(2)


def test_tournament_sum_matches_product():
    for n in range(1, 6):
        for weighted in (False, True):
            expansion = tournament_sum(n, weighted)
            assert expansion.total == vandermonde_product(n, weighted)
            assert expansion.total == (
                expansion.transitive_part + expansion.cyclic_part)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_tournament_sum_matches_chi_monomials(n):
    from bigrassmannian.tournament import enumerate_tn, is_transitive
    for weighted in (False, True):
        expansion = tournament_sum(n, weighted)
        parts = {True: ZERO, False: ZERO}
        for g in enumerate_tn(n):
            parts[is_transitive(g)] += chi_monomial(g, weighted)
        assert expansion.transitive_part == parts[True]
        assert expansion.cyclic_part == parts[False]


def test_tournament_sum_n3_parts():
    expansion = tournament_sum(3, weighted=True)
    assert expansion.total == V3_WEIGHTED
    # six transitive contributions, two cyclic ones sharing a monomial
    assert sum(abs(c) for _, c in expansion.transitive_part.terms()) == 6
    assert expansion.cyclic_part == parse("q^2*l*x1*x2*x3 + q^2*l^2*x1*x2*x3")


def test_no_cycles_below_three():
    assert tournament_sum(2, weighted=True).cyclic_part == ZERO
    assert vanishing_check(2) == ZERO


def test_unweighted_vs_weighted_at_q1():
    for n in range(1, 5):
        weighted = vandermonde_product(n, weighted=True)
        assert weighted.at_q1() == vandermonde_product(n, weighted=False)


def test_chi_monomial_shape():
    from bigrassmannian.tournament import Tournament
    g = Tournament.from_bit_string(3, "010")
    assert chi_monomial(g) == parse("q^2*l*x1*x2*x3")
    assert chi_monomial(g, weighted=False) == parse("l*x1*x2*x3")


def test_bounds():
    with pytest.raises(BoundExceeded):
        vandermonde_product(8)
    with pytest.raises(BoundExceeded, match="^tournament sum above bound 6$"):
        tournament_sum(7)
    # vanishing_check's bound is tournament_sum's
    with pytest.raises(BoundExceeded, match="^tournament sum above bound 6$"):
        vanishing_check(7)
