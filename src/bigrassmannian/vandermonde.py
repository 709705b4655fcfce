"""Vandermonde-type products and their tournament-sum expansions.

The unweighted product is prod over i < j of (x_i + l*x_j); the weighted
one inserts q^(j-i) next to l.  Both equal the sum over all tournaments of
a monomial recording length (power of l), the statistic beta (power of q,
weighted case) and outdegrees (x exponents).  Splitting that sum by
transitivity isolates the part that survives the x = 1, l = -1
specialization.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import check_size
from .exactpoly import ONE, Polynomial, lpow, qpow, xvar
from .tournament import (
    Tournament,
    outdegrees,
    statistic_counts,
    t_beta,
    t_length,
    transitive_degrees,
)

PRODUCT_BOUND = 7
SUM_BOUND = 6


@dataclass(frozen=True)
class VandermondeExpansion:
    """Tournament sum split by transitivity; total is their sum."""

    n: int
    weighted: bool
    total: Polynomial
    transitive_part: Polynomial
    cyclic_part: Polynomial


def vandermonde_product(n: int, weighted: bool = False,
                        max_n: int = PRODUCT_BOUND) -> Polynomial:
    """Fully expanded product over pairs i < j."""
    check_size(n, max_n, "product expansion")
    result = ONE
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            weight = qpow(2 * (j - i)) if weighted else ONE
            result = result * (xvar(i) + lpow(1) * weight * xvar(j))
    return result


def chi_monomial(g: Tournament, weighted: bool = True) -> Polynomial:
    """The tournament's monomial: l^length * q^beta * prod x_j^outdeg."""
    xs = {j: d for j, d in enumerate(outdegrees(g), start=1) if d}
    qh = 2 * t_beta(g) if weighted else 0
    return Polynomial.monomial(1, qh=qh, le=t_length(g), xs=xs)


def tournament_sum(n: int, weighted: bool = False) -> VandermondeExpansion:
    """Sum the tournament monomials, split into transitive and cyclic parts.

    Every tournament of T_n is counted once, through the table of
    ``statistic_counts``: each distinct (beta, length, outdegrees) triple
    becomes the key of ``chi_monomial`` with its count as coefficient, so
    the work goes by distinct triples (8,072 at n = 6), not by tournaments
    (32,768).  ``vandermonde_product`` multiplies the factors instead; the
    two routes check each other.
    """
    check_size(n, SUM_BOUND, "tournament sum")
    trans: dict[tuple, int] = {}
    cyc: dict[tuple, int] = {}
    for (beta, length, degs), count in statistic_counts(n).items():
        # the key of chi_monomial(g, weighted), built without the monomial
        key = (2 * beta if weighted else 0, length,
               tuple((j, d) for j, d in enumerate(degs, start=1) if d))
        acc = trans if transitive_degrees(degs) else cyc
        acc[key] = acc.get(key, 0) + count
    # canonical keys and positive counts: nothing for the constructor to check
    transitive_part = Polynomial._raw(trans)
    cyclic_part = Polynomial._raw(cyc)
    return VandermondeExpansion(
        n=n,
        weighted=weighted,
        total=transitive_part + cyclic_part,
        transitive_part=transitive_part,
        cyclic_part=cyclic_part,
    )


def vanishing_check(n: int) -> Polynomial:
    """Cyclic part at x = 1, l = -1; the result is the zero polynomial."""
    expansion = tournament_sum(n, weighted=True)
    return expansion.cyclic_part.subs(lam=-1, all_x=1)
