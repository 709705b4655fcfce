"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each test prints a single PASS line with its runtime (visible under
``pytest -s``) and enforces the stated wall-clock budget.  The identities
that ``verify`` checks are stated once, in ``checks.SUITES``: criteria 3-9
and 11 run those suites at their own sizes and add only what ``verify``
does not check.
"""

import random
import time

import pytest

from bigrassmannian.checks import SUITES
from bigrassmannian.errors import BoundExceeded
from bigrassmannian.exactpoly import ONE, parse, qpow
from bigrassmannian import bdet as bdet_mod
from bigrassmannian import bpoly, permstat, tournament, vandermonde
from bigrassmannian.bdet import PolyMatrix, deform


class Criterion:
    """Context manager: enforces the runtime budget, prints one line."""

    def __init__(self, number, description, budget_seconds):
        self.number = number
        self.description = description
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:2d} {status} ({elapsed:6.2f}s"
              f" / {self.budget:.0f}s) {self.description}")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget"
                f" ({elapsed:.2f}s)")
        return False


def run_suite(name, max_n, top, trials=1):
    """Run one registry suite seeded like ``verify`` and require every check.

    ``top`` is the description of the largest check, so a range that
    shrinks cannot pass without checking anything.
    """
    results = list(SUITES[name](max_n, trials, random.Random(42)))
    assert [r for r in results if not r[1]] == []
    assert top in [description for description, _, _ in results]


S4_TABLE = {
    "1234": (0, 0), "2134": (1, 1), "3124": (2, 3), "4123": (3, 6),
    "1243": (1, 1), "2143": (2, 2), "3142": (3, 5), "4132": (4, 7),
    "1324": (1, 1), "2314": (2, 3), "3214": (3, 4), "4213": (4, 7),
    "1342": (2, 3), "2341": (3, 6), "3241": (4, 7), "4231": (5, 9),
    "1423": (2, 3), "2413": (3, 5), "3412": (4, 8), "4312": (5, 9),
    "1432": (3, 4), "2431": (4, 7), "3421": (5, 9), "4321": (6, 10),
}

B_EXPANSIONS = {
    2: "1 - q",
    3: "1 - 2*q + 2*q^3 - q^4",
    4: "1 - 3*q + q^2 + 4*q^3 - 2*q^4 - 2*q^5 - 2*q^6 + 4*q^7 + q^8"
       " - 3*q^9 + q^10",
}


def test_criterion_01_s4_table():
    with Criterion(1, "length and beta across all of S_4", 1):
        seen = set()
        for w in permstat.enumerate_sn(4):
            ell, bet = permstat.length_and_beta(w)
            assert (ell, bet) == S4_TABLE[str(w)]
            seen.add(str(w))
        assert len(seen) == 24


def test_criterion_02_bn_expansions():
    with Criterion(2, "signed polynomial expansions and the 3x3 display", 1):
        for n, text in B_EXPANSIONS.items():
            assert bpoly.bn_signed_sum(n) == parse(text)
        display = bdet_mod.det_classic(deform(PolyMatrix.ones(3)))
        assert display == (ONE - qpow(2)) ** 2 * (ONE - qpow(4))
        assert display == parse(B_EXPANSIONS[3])


def test_criterion_03_four_route_agreement():
    with Criterion(3, "four routes agree for n = 1..7", 30):
        run_suite("bn", 7, "bn routes agree at n=7")


def test_criterion_04_reading_generating_functions():
    with Criterion(4, "unsigned generating functions and q=1 counts", 10):
        run_suite("reading", 10, "permanent at q=1 == 10!")


def test_criterion_05_condensation_identity():
    with Criterion(5, "condensation identity on 100+100 seeded matrices", 30):
        run_suite("condensation", 5,
                  "condensation identity on 100 random 4x4 matrices",
                  trials=100)


def test_criterion_06_tournament_facts():
    with Criterion(6, "tournament counts, matching, vanishing", 60):
        run_suite("tournament", 6, "perfect matching covers T_6 minus S_6")
        run_suite("vandermonde", 6, "cyclic part vanishes at x=1, l=-1 for n=6")
        for n in range(1, 7):
            total = sum(1 for _ in tournament.enumerate_tn(n))
            assert total == 2 ** (n * (n - 1) // 2)
        for n in range(3, 6):
            covered = {g.bits for pair in tournament.perfect_matching(n)
                       for g in pair}
            non_transitive = {
                g.bits for g in tournament.enumerate_tn(n)
                if not tournament.is_transitive(g)}
            assert covered == non_transitive


def test_criterion_07_vandermonde():
    with Criterion(7, "weighted expansion and product == tournament sum", 10):
        expected = parse(
            "x1^2*x2 + q*l*x1*x2^2 + q*l*x1^2*x3 + q^2*l^2*x1*x2*x3"
            " + q^2*l*x1*x2*x3 + q^3*l^2*x2^2*x3 + q^3*l^2*x1*x3^2"
            " + q^4*l^3*x2*x3^2")
        assert vandermonde.tournament_sum(3, weighted=True).total == expected
        run_suite("vandermonde", 5, "weighted product == tournament sum at n=5")


def test_criterion_08_bruhat_beta_identity():
    with Criterion(8, "beta counts bigrassmannians below; prefix == BFS", 60):
        run_suite("bruhat", 5, "prefix criterion == BFS closure on S_5")
        run_suite("beta", 6, "beta(w) == beta(w^-1) on S_6")


def test_criterion_09_lambda_determinants():
    with Criterion(9, "l-determinant and l*q-determinant identities", 30):
        run_suite("lambda", 6,
                  "l*q-determinant at l=-1 == signed polynomial at n=6",
                  trials=50)


def test_criterion_10_condensation_scales_past_the_definition():
    with Criterion(10, "B_12 via condensation; definitional route rejected", 60):
        b12 = bdet_mod.bdet_condense(PolyMatrix.ones(12))
        assert b12 == bpoly.bn_product(12)
        assert b12.q_degree_halves() == 2 * 286
        with pytest.raises(BoundExceeded):
            bdet_mod.bdet_definition(PolyMatrix.ones(12))


def test_criterion_11_sign_balance():
    with Criterion(11, "signed beta sum vanishes for n = 3..7", 30):
        run_suite("signbalance", 7, "signed beta sum vanishes on S_7")
