"""Command-line front end: computation, cross-verification, benchmarks.

Every subcommand prints polynomials in the shared text grammar and is
deterministic for fixed arguments and seed.  Exit codes: 0 success,
1 verification failure, 2 usage or bound error.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from fractions import Fraction

from . import bdet as bdet_mod
from . import bpoly, permstat, tournament, vandermonde
from .errors import BoundExceeded
from .exactpoly import Polynomial, RationalFunction, format_poly, qpow

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2

SUITES = (
    "bn", "beta", "bruhat", "tournament", "vandermonde", "condensation",
    "little-invariance", "lambda", "reading", "signbalance", "all",
)


def _warn_bound(max_n: int) -> None:
    print(f"warning: bound raised to n={max_n}; runtime may grow sharply",
          file=sys.stderr)


def _emit(args, command: str, inputs: dict, results: list[tuple[str, str]],
          ok: bool, verdict: bool = False) -> None:
    if getattr(args, "json", False):
        payload = {
            "command": command,
            "inputs": inputs,
            "results": [{"label": k, "value": v} for k, v in results],
            "ok": ok,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for label, value in results:
            print(f"{label}: {value}" if label else value)
        if verdict:
            print("OK" if ok else "MISMATCH")


# -- subcommands -------------------------------------------------------------

def cmd_bn(args) -> int:
    method_map = {
        "sum": "signed-sum",
        "product": "product",
        "recursion": "recursion",
        "det": "determinant",
    }
    if args.max_n is not None:
        _warn_bound(args.max_n)
    if args.method == "all":
        agreement = bpoly.verify_all(args.n)
        results = [(r.route, format_poly(r.poly)) for r in agreement.results]
        _emit(args, "bn", {"n": args.n, "method": "all"}, results,
              agreement.ok, verdict=True)
        return EXIT_OK if agreement.ok else EXIT_VERIFY_FAIL
    poly = bpoly.bn(args.n, method_map[args.method], max_n=args.max_n)
    _emit(args, "bn", {"n": args.n, "method": args.method},
          [("", format_poly(poly))], True)
    return EXIT_OK


def cmd_beta(args) -> int:
    w = permstat.Permutation.parse(args.perm)
    ell, bet = permstat.length_and_beta(w)
    if args.json:
        _emit(args, "beta", {"perm": str(w)},
              [("l", str(ell)), ("beta", str(bet))], True)
    else:
        print(f"l={ell} beta={bet}")
    return EXIT_OK


def cmd_bdet(args) -> int:
    with open(args.matrix, encoding="ascii") as fh:
        matrix = bdet_mod.parse_matrix(fh.read())
    if args.max_n is not None:
        _warn_bound(args.max_n)
    default = (bdet_mod.CONDENSE_BOUND if args.method == "condense"
               else bdet_mod.LEIBNIZ_BOUND)
    bound = args.max_n if args.max_n is not None else default
    if args.method == "def":
        poly = bdet_mod.bdet_definition(matrix, max_n=bound)
    elif args.method == "deform":
        poly = bdet_mod.bdet_via_deformation(matrix, max_n=bound)
    else:
        poly = bdet_mod.bdet_condense(matrix, max_n=bound)
    _emit(args, "bdet", {"matrix": args.matrix, "method": args.method},
          [("", format_poly(poly))], True)
    return EXIT_OK


def cmd_reading(args) -> int:
    if args.max_n is not None:
        _warn_bound(args.max_n)
    bound = args.max_n if args.max_n is not None else bdet_mod.PERMANENT_BOUND
    poly = bdet_mod.permanent_q(
        bdet_mod.deform(bdet_mod.PolyMatrix.ones(args.n)), max_n=bound)
    _emit(args, "reading", {"n": args.n}, [("", format_poly(poly))], True)
    return EXIT_OK


def cmd_expand(args) -> int:
    if args.max_n is not None:
        _warn_bound(args.max_n)
    bound = args.max_n if args.max_n is not None else vandermonde.PRODUCT_BOUND
    poly = vandermonde.vandermonde_product(
        args.n, weighted=args.weighted, max_n=bound)
    _emit(args, "expand", {"n": args.n, "weighted": args.weighted},
          [("", format_poly(poly))], True)
    return EXIT_OK


# -- verification suites -------------------------------------------------------

def _checks_bn(max_n, trials, rng):
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


def _checks_beta(max_n, trials, rng):
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


def _checks_bruhat(max_n, trials, rng):
    for n in range(1, min(max_n, 5) + 1):
        below = permstat.bruhat_order_bfs(n)
        perms = list(permstat.enumerate_sn(n))
        prefix_ok = all(
            permstat.bruhat_leq(u, w) == (u in below[w])
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


def _checks_tournament(max_n, trials, rng):
    for n in range(1, min(max_n, 6) + 1):
        count = sum(
            1 for g in tournament.enumerate_tn(n) if tournament.is_transitive(g))
        yield (f"transitive tournaments in T_{n} == {n}!",
               count == math.factorial(n), f"count={count}")
    for n in range(1, min(max_n, 6) + 1):
        ok = True
        for w in permstat.enumerate_sn(n):
            g = tournament.to_tournament(w)
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
        yield (f"perfect matching covers T_{n} minus S_{n}",
               len(pairs) == expected and props,
               f"{len(pairs)} pairs, expected {expected}")
    for n in range(3, min(max_n, 4) + 1):
        ok = all(
            tournament.c_involution(
                tournament.c_involution(g, *t), *t) == g
            for g in tournament.enumerate_tn(n)
            for t in tournament.triples(n))
        yield (f"cycle reversal is an involution on T_{n}", ok, "")


def _checks_vandermonde(max_n, trials, rng):
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


def _checks_condensation(max_n, trials, rng, sizes=None):
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


def _checks_little_invariance(max_n, trials, rng):
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


def _checks_lambda(max_n, trials, rng):
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


def _checks_reading(max_n, trials, rng):
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
        yield (f"permanent at q=1 == {n}! ",
               p.at_q1() == Polynomial.constant(math.factorial(n)), "")


def _checks_signbalance(max_n, trials, rng):
    for n in range(3, min(max_n, 7) + 1):
        s = bpoly.sign_balance(n)
        yield (f"signed beta sum vanishes on S_{n}", s == 0, f"sum={s}")


_SUITE_FUNCS = {
    "bn": _checks_bn,
    "beta": _checks_beta,
    "bruhat": _checks_bruhat,
    "tournament": _checks_tournament,
    "vandermonde": _checks_vandermonde,
    "condensation": _checks_condensation,
    "little-invariance": _checks_little_invariance,
    "lambda": _checks_lambda,
    "reading": _checks_reading,
    "signbalance": _checks_signbalance,
}


def cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    names = list(_SUITE_FUNCS) if args.suite == "all" else [args.suite]
    results: list[tuple[str, str]] = []
    all_ok = True
    for name in names:
        func = _SUITE_FUNCS[name]
        if name == "condensation" and args.n is not None:
            checks = func(args.max_n, args.trials, rng, sizes=[args.n])
        else:
            checks = func(args.max_n, args.trials, rng)
        for description, passed, detail in checks:
            if passed:
                results.append(("ok", f"[{name}] {description}"))
            else:
                all_ok = False
                suffix = f" -- {detail}" if detail else ""
                results.append(("FAIL", f"[{name}] {description}{suffix}"))
    _emit(args, "verify",
          {"suite": args.suite, "max_n": args.max_n, "trials": args.trials,
           "seed": args.seed, "n": args.n},
          results, all_ok, verdict=True)
    return EXIT_OK if all_ok else EXIT_VERIFY_FAIL


def cmd_bench(args) -> int:
    ops = {
        "bdet-def": (bdet_mod.LEIBNIZ_BOUND, bdet_mod.bdet_definition),
        "bdet-condense": (bdet_mod.CONDENSE_BOUND, bdet_mod.bdet_condense),
        "permanent": (bdet_mod.PERMANENT_BOUND, lambda a, max_n: bdet_mod.permanent_q(
            bdet_mod.deform(a), max_n=max_n)),
    }
    bound, route = ops[args.method]
    if args.max_n is not None:
        _warn_bound(args.max_n)
        bound = args.max_n
    # refuse before the agreement check; each route enforces the bound too
    if args.n > bound:
        raise BoundExceeded(f"{args.method} is capped at n={bound}")

    def func(n):
        return route(bdet_mod.PolyMatrix.ones(n), max_n=bound)

    # route agreement on a small overlapping size before timing
    small = min(args.n, 5)
    if args.method == "permanent":
        brute = sum(
            (qpow(2 * permstat.beta(w)) for w in permstat.enumerate_sn(small)),
            start=Polynomial.constant(0))
        agreed = func(small) == brute
    else:
        agreed = func(small) == bdet_mod.bdet_definition(
            bdet_mod.PolyMatrix.ones(small))
    if not agreed:
        print(f"FAIL: {args.method} disagrees with the definition at n={small}")
        return EXIT_VERIFY_FAIL
    start = time.perf_counter()
    poly = func(args.n)
    elapsed = time.perf_counter() - start
    halves = poly.q_degree_halves()
    degree = Fraction(halves, 2) if halves is not None else 0
    results = [
        ("op", args.method),
        ("n", str(args.n)),
        ("agreement", f"checked against definition at n={small}"),
        ("terms", str(len(poly))),
        ("degree", str(degree)),
        ("seconds", f"{elapsed:.3f}"),
    ]
    _emit(args, "bench", {"method": args.method, "n": args.n}, results, True)
    return EXIT_OK


# -- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bigrassmannian",
        description="Exact computation and cross-verification of signed "
                    "bigrassmannian polynomials and q-weighted determinants.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_bn = sub.add_parser("bn", help="signed polynomial by one or all routes")
    p_bn.add_argument("--n", type=int, required=True)
    p_bn.add_argument("--method", default="all",
                      choices=("sum", "product", "recursion", "det", "all"))
    p_bn.add_argument("--json", action="store_true")
    p_bn.add_argument("--max-n", type=int, dest="max_n")
    p_bn.set_defaults(func=cmd_bn)

    p_beta = sub.add_parser("beta", help="length and beta of a permutation")
    p_beta.add_argument("--perm", required=True)
    p_beta.add_argument("--json", action="store_true")
    p_beta.set_defaults(func=cmd_beta)

    p_bdet = sub.add_parser("bdet", help="q-weighted determinant of a matrix file")
    p_bdet.add_argument("--matrix", required=True)
    p_bdet.add_argument("--method", default="condense",
                        choices=("def", "deform", "condense"))
    p_bdet.add_argument("--json", action="store_true")
    p_bdet.add_argument("--max-n", type=int, dest="max_n")
    p_bdet.set_defaults(func=cmd_bdet)

    p_reading = sub.add_parser(
        "reading", help="unsigned statistic generating function (permanent)")
    p_reading.add_argument("--n", type=int, required=True)
    p_reading.add_argument("--json", action="store_true")
    p_reading.add_argument("--max-n", type=int, dest="max_n")
    p_reading.set_defaults(func=cmd_reading)

    p_expand = sub.add_parser("expand", help="expanded Vandermonde-type product")
    p_expand.add_argument("--n", type=int, required=True)
    p_expand.add_argument("--weighted", action="store_true")
    p_expand.add_argument("--json", action="store_true")
    p_expand.add_argument("--max-n", type=int, dest="max_n")
    p_expand.set_defaults(func=cmd_expand)

    p_verify = sub.add_parser("verify", help="run exact cross-check suites")
    p_verify.add_argument("--suite", default="all", choices=SUITES)
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--max-n", type=int, dest="max_n", default=5)
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="time one operation")
    p_bench.add_argument("--method", required=True,
                         choices=("bdet-def", "bdet-condense", "permanent"))
    p_bench.add_argument("--n", type=int, required=True)
    p_bench.add_argument("--json", action="store_true")
    p_bench.add_argument("--max-n", type=int, dest="max_n")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
