import copy
import pickle

import pytest

from bigrassmannian import bdet, bpoly, permstat, tournament, vandermonde
from bigrassmannian.errors import (
    BoundExceeded, ParseError, ZeroMinor, check_size)

ONES = bdet.PolyMatrix.ones

# every bounded entry point: a call taking the size, the bound, and the
# exact message of the BoundExceeded it raises one above the bound (the
# single-message tests of each module are folded in here)
BOUNDS = {
    "det_classic": (lambda n: bdet.det_classic(ONES(n)), bdet.LEIBNIZ_BOUND,
                    "Leibniz determinant above bound 8"),
    "bdet_definition": (lambda n: bdet.bdet_definition(ONES(n)),
                        bdet.LEIBNIZ_BOUND, "signed sum above bound 8"),
    "bdet_via_deformation": (lambda n: bdet.bdet_via_deformation(ONES(n)),
                             bdet.LEIBNIZ_BOUND,
                             "deformation determinant above bound 8"),
    "little_invariance_check": (
        lambda n: bdet.little_invariance_check(ONES(n)),
        bdet.LITTLE_INVARIANCE_BOUND, "little invariance above bound 7"),
    "bdet_condense": (lambda n: bdet.bdet_condense(ONES(n)),
                      bdet.CONDENSE_BOUND, "condensation above bound 30"),
    "permanent_q": (lambda n: bdet.permanent_q(ONES(n)), bdet.PERMANENT_BOUND,
                    "permanent above bound 10"),
    "lambda_det": (lambda n: bdet.lambda_det(ONES(n)), bdet.LAMBDA_BOUND,
                   "l-determinant above bound 15"),
    "lambda_q_det": (lambda n: bdet.lambda_q_det(ONES(n)), bdet.LAMBDA_BOUND,
                     "l-determinant above bound 15"),
    "bn_signed_sum": (bpoly.bn_signed_sum, bpoly.SIGNED_SUM_BOUND,
                      "signed sum above bound 9"),
    "bn_product": (bpoly.bn_product, bpoly.PRODUCT_BOUND,
                   "product expansion above bound 30"),
    "bn_recursion": (bpoly.bn_recursion, bpoly.PRODUCT_BOUND,
                     "recursion above bound 30"),
    "bn_determinant": (bpoly.bn_determinant, bpoly.DETERMINANT_BOUND,
                       "determinant route above bound 24"),
    "sign_balance": (bpoly.sign_balance, bpoly.SIGNED_SUM_BOUND,
                     "sign balance above bound 9"),
    "bn_lambda_q-product": (bpoly.bn_lambda_q, bpoly.LAMBDA_Q_BOUND,
                            "two-variable polynomial above bound 15"),
    "bn_lambda_q-recursion": (
        lambda n: bpoly.bn_lambda_q(n, route="recursion"),
        bpoly.LAMBDA_Q_BOUND, "two-variable polynomial above bound 15"),
    "enumerate_sn": (permstat.enumerate_sn, permstat.ENUMERATION_BOUND,
                     "S_10 enumeration above bound 9"),
    "bruhat_order_bfs": (permstat.bruhat_order_bfs, 5,
                         "BFS Bruhat closure above bound 5"),
    "enumerate_tn": (tournament.enumerate_tn, tournament.ENUMERATION_BOUND,
                     "T_8 enumeration above bound 7"),
    "statistic_counts": (tournament.statistic_counts,
                         tournament.ENUMERATION_BOUND,
                         "T_8 enumeration above bound 7"),
    "perfect_matching": (tournament.perfect_matching,
                         tournament.MATCHING_BOUND,
                         "perfect matching above bound 6"),
    "vandermonde_product": (vandermonde.vandermonde_product,
                            vandermonde.PRODUCT_BOUND,
                            "product expansion above bound 7"),
    "tournament_sum": (vandermonde.tournament_sum, vandermonde.SUM_BOUND,
                       "tournament sum above bound 6"),
    "vanishing_check": (vandermonde.vanishing_check, vandermonde.SUM_BOUND,
                        "tournament sum above bound 6"),
}

# the routes whose max_n replaces their module bound
RAISABLE = {
    "det_classic": lambda n, max_n: bdet.det_classic(ONES(n), max_n),
    "bdet_definition": lambda n, max_n: bdet.bdet_definition(ONES(n), max_n),
    "bdet_via_deformation":
        lambda n, max_n: bdet.bdet_via_deformation(ONES(n), max_n),
    "bdet_condense": lambda n, max_n: bdet.bdet_condense(ONES(n), max_n),
    "permanent_q": lambda n, max_n: bdet.permanent_q(ONES(n), max_n),
    "bn_signed_sum": bpoly.bn_signed_sum,
    "bn_product": bpoly.bn_product,
    "bn_recursion": bpoly.bn_recursion,
    "bn_determinant": bpoly.bn_determinant,
    "vandermonde_product": vandermonde.vandermonde_product,
}


def test_check_size_is_the_size_rule():
    check_size(0)
    check_size(7, None, "unbounded")
    check_size(3, 3, "at the bound")
    with pytest.raises(BoundExceeded, match="^thing above bound 3$"):
        check_size(4, 3, "thing")
    # a negative size is refused before any bound, and is no BoundExceeded
    with pytest.raises(ValueError) as err:
        check_size(-1, 3, "thing")
    assert type(err.value) is ValueError
    assert str(err.value) == "size must be nonnegative, got -1"


@pytest.mark.parametrize("name", BOUNDS)
def test_bound_message(name):
    call, bound, message = BOUNDS[name]
    with pytest.raises(BoundExceeded) as err:
        call(bound + 1)
    assert str(err.value) == message
    # -1 is refused by the same rule (a matrix route's, by PolyMatrix.ones)
    with pytest.raises(ValueError) as err:
        call(-1)
    assert type(err.value) is ValueError
    assert str(err.value) == "size must be nonnegative, got -1"


@pytest.mark.parametrize("name", RAISABLE)
def test_max_n_replaces_the_bound(name):
    message = BOUNDS[name][2].rsplit(" ", 1)[0] + " 2"
    with pytest.raises(BoundExceeded) as err:
        RAISABLE[name](3, max_n=2)
    assert str(err.value) == message


@pytest.mark.parametrize("exc, fields", [
    (ParseError("row 2, column 2: expected an integer", 2), ("message", "pos")),
    (ZeroMinor(1, 2, 3), ("row", "col", "size")),
])
def test_exceptions_pickle_and_copy(exc, fields):
    for other in (pickle.loads(pickle.dumps(exc)), copy.copy(exc),
                  copy.deepcopy(exc)):
        assert type(other) is type(exc)
        assert str(other) == str(exc) and other.args == exc.args
        assert [getattr(other, f) for f in fields] == \
            [getattr(exc, f) for f in fields]
