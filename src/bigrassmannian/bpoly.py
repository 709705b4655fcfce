"""Signed bigrassmannian polynomials by four independent routes.

``B_n(q) = sum over w in S_n of (-1)^length(w) q^beta(w)`` equals the
product of (1 - q^k)^(n-k) for k = 1..n-1, satisfies the condensation
recursion B_n = B_{n-1}^2 / B_{n-2} * (1 - q^(n-1)), and is the determinant
of the matrix with entries q^((i-j)^2/2).  The two-variable refinement
B_n(l, q) is the product of (1 + l q^k)^(n-k) and obeys the same recursion
with factor (1 + l q^(n-1)).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .errors import check_size
from .exactpoly import ONE, Polynomial, lpow, qpow
from .permstat import Permutation, length_and_beta
from .bdet import PolyMatrix, bdet_condense

SIGNED_SUM_BOUND = 9
PRODUCT_BOUND = 30
DETERMINANT_BOUND = 24
LAMBDA_Q_BOUND = 15

ROUTES = ("signed-sum", "product", "recursion", "determinant")


@dataclass(frozen=True)
class BnResult:
    n: int
    poly: Polynomial
    route: str


@dataclass(frozen=True)
class RouteAgreement:
    """The four routes side by side with an equality verdict."""

    n: int
    results: tuple[BnResult, ...]
    ok: bool


def _b_step(k: int) -> Polynomial:
    """1 - q^k, the factor of B_n(q)."""
    return ONE - qpow(2 * k)


def _bl_step(k: int) -> Polynomial:
    """1 + l q^k, the factor of B_n(l, q)."""
    return ONE + lpow(1) * qpow(2 * k)


def _product(n: int, step: Callable[[int], Polynomial]) -> Polynomial:
    """The expanded product of step(k)^(n-k) for k = 1..n-1."""
    result = ONE
    for k in range(1, n):
        result = result * step(k) ** (n - k)
    return result


def _recursion(n: int, step: Callable[[int], Polynomial]) -> Polynomial:
    """B_k = B_{k-1}^2 / B_{k-2} * step(k-1), exact at every step, from
    B_0 = B_1 = 1 and B_2 = step(1)."""
    if n <= 1:
        return ONE
    prev, cur = ONE, step(1)
    for k in range(3, n + 1):
        prev, cur = cur, (cur * cur).div_exact(prev) * step(k - 1)
    return cur


def bn_signed_sum(n: int, max_n: int = SIGNED_SUM_BOUND) -> Polynomial:
    """Direct signed sum over all n! permutations."""
    check_size(n, max_n, "signed sum")
    acc: dict[tuple, int] = {}
    for word in itertools.permutations(range(1, n + 1)):
        ell, bet = length_and_beta(Permutation(word))
        key = (2 * bet, 0, ())
        acc[key] = acc.get(key, 0) + (-1 if ell % 2 else 1)
    # canonical q-only keys: only the zero sums need dropping
    return Polynomial._raw({k: c for k, c in acc.items() if c})


def bn_product(n: int, max_n: int = PRODUCT_BOUND) -> Polynomial:
    """Expanded product of (1 - q^k)^(n-k)."""
    check_size(n, max_n, "product expansion")
    return _product(n, _b_step)


def bn_recursion(n: int, max_n: int = PRODUCT_BOUND) -> Polynomial:
    """Condensation recursion with exact division at every step."""
    check_size(n, max_n, "recursion")
    return _recursion(n, _b_step)


def bn_determinant(n: int, max_n: int = DETERMINANT_BOUND) -> Polynomial:
    """Determinant of the q^((i-j)^2/2) matrix, via condensation."""
    check_size(n, max_n, "determinant route")
    return bdet_condense(PolyMatrix.ones(n), max_n=max_n)


_ROUTE_FUNCS = {
    "signed-sum": bn_signed_sum,
    "product": bn_product,
    "recursion": bn_recursion,
    "determinant": bn_determinant,
}


def bn(n: int, route: str, max_n: int | None = None) -> Polynomial:
    try:
        func = _ROUTE_FUNCS[route]
    except KeyError:
        raise ValueError(f"unknown route {route!r}; choose from {ROUTES}")
    return func(n) if max_n is None else func(n, max_n=max_n)


def verify_all(n: int, max_n: int | None = None) -> RouteAgreement:
    """Compute all four routes and report whether they agree; ``max_n``,
    when given, replaces each route's own bound."""
    check_size(n)
    results = tuple(
        BnResult(n=n, poly=bn(n, r, max_n), route=r) for r in ROUTES)
    first = results[0].poly
    return RouteAgreement(
        n=n, results=results, ok=all(r.poly == first for r in results))


def sign_balance(n: int) -> int:
    """Signed sum of beta over S_n, which is B_n'(1); zero for n >= 3."""
    check_size(n, SIGNED_SUM_BOUND, "sign balance")
    return sum(k * c for k, c in bn_signed_sum(n).q_coefficients().items())


def bn_lambda_q(n: int, route: str = "product") -> Polynomial:
    """Two-variable refinement: product of (1 + l q^k)^(n-k).

    The recursion route divides exactly at every step and must agree; the
    l = -1 specialization is bn_product(n).
    """
    check_size(n, LAMBDA_Q_BOUND, "two-variable polynomial")
    if route == "product":
        return _product(n, _bl_step)
    if route == "recursion":
        return _recursion(n, _bl_step)
    raise ValueError(f"unknown route {route!r}; choose 'product' or 'recursion'")
