"""The registry of cross-check suites behind ``verify`` and the acceptance tests.

Each suite is a generator ``(max_n, trials, rng)`` that yields
``(description, passed, detail)`` for every identity it checks, at sizes
up to ``max_n`` and each suite's own cap; the suites that sample draw
``trials`` random matrices from ``rng``.  ``SUITES`` maps each
``verify --suite`` name to its generator, in the order
``verify --suite all`` runs them.
"""

from __future__ import annotations

import math

from . import bdet as bdet_mod
from . import bpoly, permstat, tournament, vandermonde
from .exactpoly import Polynomial, RationalFunction, format_poly


def check_bn(max_n, trials, rng):
    for n in range(1, min(max_n, 7) + 1):
        agreement = bpoly.verify_all(n)
        yield (f"bn routes agree at n={n}", agreement.ok,
               " vs ".join(format_poly(r.poly) for r in agreement.results))
    for n in range(1, min(max_n, 10) + 1):
        prod = bpoly.bn_lambda_q(n)
        rec = bpoly.bn_lambda_q(n, route="recursion")
        yield (f"two-variable product == recursion at n={n}", prod == rec, "")
        yield (f"two-variable polynomial at l=-1 == product at n={n}",
               prod.subs(lam=-1) == bpoly.bn_product(n), "")
    for n in range(1, min(max_n, 12) + 1):
        p = bpoly.bn_product(n)
        degree_ok = p.q_degree_halves() == 2 * math.comb(n + 1, 3)
        coeffs = p.q_coefficients()
        edge_ok = coeffs.get(0) == 1 and abs(coeffs[math.comb(n + 1, 3)]) == 1
        yield (f"degree and edge coefficients at n={n}",
               degree_ok and edge_ok, format_poly(p))


def check_beta(max_n, trials, rng):
    for n in range(1, min(max_n, 6) + 1):
        agree = inverse_ok = True
        max_beta = 0
        for w in permstat.enumerate_sn(n):
            b1 = permstat.beta(w)
            if (b1 != permstat.beta(w, "square-sum")
                    or b1 != permstat.beta(w, "linear-sum")):
                agree = False
            if b1 != permstat.beta(permstat.inverse(w)):
                inverse_ok = False
            max_beta = max(max_beta, b1)
        yield (f"three beta formulas agree on S_{n}", agree, "")
        yield (f"beta(w) == beta(w^-1) on S_{n}", inverse_ok, "")
        yield (f"max beta over S_{n} == C(n+1,3)",
               max_beta == math.comb(n + 1, 3), f"max={max_beta}")


def check_bruhat(max_n, trials, rng):
    for n in range(1, min(max_n, 5) + 1):
        # the closure as sets of words: a tuple hashes in C, where a
        # Permutation would call its Python __hash__ and __eq__ per lookup
        below = {w.word: frozenset(u.word for u in us)
                 for w, us in permstat.bruhat_order_bfs(n).items()}
        perms = list(permstat.enumerate_sn(n))
        prefix_ok = all(
            permstat.bruhat_leq(u, w) == (u.word in below[w.word])
            for w in perms for u in perms)
        yield (f"prefix criterion == BFS closure on S_{n}", prefix_ok, "")
        count_ok = all(
            len(permstat.bigrassmannians_below(w)) == permstat.beta(w)
            for w in perms)
        yield (f"|B(w)| == beta(w) on S_{n}", count_ok, "")
        rothe_ok = all(
            len(permstat.rothe_diagram(w)) == permstat.length(w)
            for w in perms)
        yield (f"|rothe_diagram(w)| == length(w) on S_{n}", rothe_ok, "")


def check_tournament(max_n, trials, rng):
    for n in range(1, min(max_n, 6) + 1):
        count = sum(
            c for (_, _, degs), c in tournament.statistic_counts(n).items()
            if tournament.transitive_degrees(degs))
        yield (f"transitive tournaments in T_{n} == {n}!",
               count == math.factorial(n), f"count={count}")
    transitive = {}
    for n in range(1, min(max_n, 6) + 1):
        ok = True
        transitive[n] = set()
        for w in permstat.enumerate_sn(n):
            g = tournament.to_tournament(w)
            transitive[n].add(g.bits)
            if (tournament.t_length(g) != permstat.length(w)
                    or tournament.t_beta(g) != permstat.beta(w)
                    or tournament.from_transitive(g) != w):
                ok = False
        yield (f"permutation <-> transitive tournament bijection at n={n}",
               ok, "")
    for n in range(3, min(max_n, 6) + 1):
        pairs = tournament.perfect_matching(n)
        expected = (2 ** (n * (n - 1) // 2) - math.factorial(n)) // 2
        props = all(
            tournament.t_beta(a) == tournament.t_beta(b)
            and (tournament.t_length(a) - tournament.t_length(b)) % 2 == 1
            for a, b in pairs)
        # 2 * expected distinct ends, none transitive: the pairs partition
        # T_n minus its n! transitive tournaments
        ends = {g.bits for pair in pairs for g in pair}
        covers = len(ends) == 2 * expected and ends.isdisjoint(transitive[n])
        yield (f"perfect matching covers T_{n} minus S_{n}",
               len(pairs) == expected and props and covers,
               f"{len(pairs)} pairs, expected {expected}")
    for n in range(3, min(max_n, 4) + 1):
        ok = all(
            tournament.c_involution(
                tournament.c_involution(g, *t), *t) == g
            for g in tournament.enumerate_tn(n)
            for t in tournament.triples(n))
        yield (f"cycle reversal is an involution on T_{n}", ok, "")


def check_vandermonde(max_n, trials, rng):
    # vanishing_check builds its own sum: it is the route under check
    weighted_sums = {}
    for n in range(1, min(max_n, 5) + 1):
        for weighted in (False, True):
            tag = "weighted" if weighted else "unweighted"
            expansion = vandermonde.tournament_sum(n, weighted)
            if weighted:
                weighted_sums[n] = expansion
            prod = vandermonde.vandermonde_product(n, weighted)
            yield (f"{tag} product == tournament sum at n={n}",
                   expansion.total == prod, "")
    for n in range(2, min(max_n, 6) + 1):
        z = vandermonde.vanishing_check(n)
        yield (f"cyclic part vanishes at x=1, l=-1 for n={n}",
               z.is_zero(), format_poly(z))
    for n in range(1, min(max_n, 5) + 1):
        trans = weighted_sums[n].transitive_part
        yield (f"transitive part specializes to the signed polynomial at n={n}",
               trans.subs(lam=-1, all_x=1) == bpoly.bn_product(n), "")


def check_condensation(max_n, trials, rng, sizes=None):
    sizes = sizes or [3, 4]
    for n in sizes:
        ok = True
        for _ in range(trials):
            a = bdet_mod.random_monomial_matrix(n, rng)
            if not bdet_mod.condensation_identity_check(a):
                ok = False
        yield (f"condensation identity on {trials} random {n}x{n} matrices",
               ok, "")
    for n in range(2, min(max_n, 5) + 1):
        ok = True
        for _ in range(max(1, trials // 10)):
            a = bdet_mod.random_monomial_matrix(n, rng)
            r1 = bdet_mod.bdet_definition(a)
            if r1 != bdet_mod.bdet_via_deformation(a) or r1 != bdet_mod.bdet_condense(a):
                ok = False
        yield (f"three bdet routes agree on random {n}x{n} matrices", ok, "")


def check_little_invariance(max_n, trials, rng):
    for n in range(1, min(max_n, 5) + 1):
        t1, t2, t3 = bdet_mod.little_invariance_check(bdet_mod.PolyMatrix.ones(n))
        yield (f"little invariance on the all-ones {n}x{n} matrix",
               t1 == t2 == t3, "")
    ok = True
    for _ in range(trials):
        a = bdet_mod.random_monomial_matrix(4, rng)
        t1, t2, t3 = bdet_mod.little_invariance_check(a)
        if not (t1 == t2 == t3):
            ok = False
    yield (f"little invariance on {trials} random 4x4 matrices", ok, "")


def check_lambda(max_n, trials, rng):
    ok = True
    for _ in range(trials):
        a = bdet_mod.random_rational_matrix(4, rng)
        if bdet_mod.lambda_det(a).subs(lam=-1) != RationalFunction(
                bdet_mod.det_classic(a)):
            ok = False
    yield (f"l-determinant at l=-1 == det on {trials} random 4x4 matrices",
           ok, "")
    for n in range(1, min(max_n, 6) + 1):
        lq = bdet_mod.lambda_q_det(bdet_mod.PolyMatrix.ones(n))
        yield (f"l*q-determinant of all-ones == two-variable product at n={n}",
               lq == RationalFunction(bpoly.bn_lambda_q(n)), "")
        yield (f"l*q-determinant at l=-1 == signed polynomial at n={n}",
               lq.subs(lam=-1) == RationalFunction(bpoly.bn_product(n)), "")


def check_reading(max_n, trials, rng):
    known = {
        2: "1 + q",
        3: "1 + 2*q + 2*q^3 + q^4",
        4: "1 + 3*q + q^2 + 4*q^3 + 2*q^4 + 2*q^5 + 2*q^6 + 4*q^7 + q^8 + 3*q^9 + q^10",
    }
    for n, text in known.items():
        p = bdet_mod.permanent_q(bdet_mod.deform(bdet_mod.PolyMatrix.ones(n)))
        yield (f"unsigned generating function at n={n}",
               format_poly(p) == text, format_poly(p))
    for n in range(1, min(max_n, 10) + 1):
        p = bdet_mod.permanent_q(bdet_mod.deform(bdet_mod.PolyMatrix.ones(n)))
        yield (f"permanent at q=1 == {n}!",
               p.at_q1() == Polynomial.constant(math.factorial(n)), "")


def check_signbalance(max_n, trials, rng):
    for n in range(3, min(max_n, 7) + 1):
        s = bpoly.sign_balance(n)
        yield (f"signed beta sum vanishes on S_{n}", s == 0, f"sum={s}")


SUITES = {
    "bn": check_bn,
    "beta": check_beta,
    "bruhat": check_bruhat,
    "tournament": check_tournament,
    "vandermonde": check_vandermonde,
    "condensation": check_condensation,
    "little-invariance": check_little_invariance,
    "lambda": check_lambda,
    "reading": check_reading,
    "signbalance": check_signbalance,
}
