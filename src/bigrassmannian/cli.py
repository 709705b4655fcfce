"""Command-line front end: computation, cross-verification, benchmarks.

Every subcommand prints polynomials in the shared text grammar and is
deterministic for fixed arguments and seed.  Exit codes: 0 success,
1 verification failure, 2 usage or bound error.  ``verify`` runs the
suites registered in ``checks.SUITES``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from . import bdet as bdet_mod
from . import bpoly, permstat, vandermonde
from .checks import SUITES as _SUITE_FUNCS
from .errors import BoundExceeded
from .exactpoly import Polynomial, format_poly, qpow

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2


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

def _at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bigrassmannian",
        description="Exact computation and cross-verification of signed "
                    "bigrassmannian polynomials and q-weighted determinants.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    size = _at_least(0)

    p_bn = sub.add_parser("bn", help="signed polynomial by one or all routes")
    p_bn.add_argument("--n", type=size, required=True)
    p_bn.add_argument("--method", default="all",
                      choices=("sum", "product", "recursion", "det", "all"))
    p_bn.add_argument("--json", action="store_true")
    p_bn.add_argument("--max-n", type=size, dest="max_n")
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
    p_bdet.add_argument("--max-n", type=size, dest="max_n")
    p_bdet.set_defaults(func=cmd_bdet)

    p_reading = sub.add_parser(
        "reading", help="unsigned statistic generating function (permanent)")
    p_reading.add_argument("--n", type=size, required=True)
    p_reading.add_argument("--json", action="store_true")
    p_reading.add_argument("--max-n", type=size, dest="max_n")
    p_reading.set_defaults(func=cmd_reading)

    p_expand = sub.add_parser("expand", help="expanded Vandermonde-type product")
    p_expand.add_argument("--n", type=size, required=True)
    p_expand.add_argument("--weighted", action="store_true")
    p_expand.add_argument("--json", action="store_true")
    p_expand.add_argument("--max-n", type=size, dest="max_n")
    p_expand.set_defaults(func=cmd_expand)

    p_verify = sub.add_parser("verify", help="run exact cross-check suites")
    p_verify.add_argument("--suite", default="all",
                          choices=[*_SUITE_FUNCS, "all"])
    p_verify.add_argument("--n", type=size, default=None)
    p_verify.add_argument("--max-n", type=size, dest="max_n", default=5)
    p_verify.add_argument("--trials", type=_at_least(1), default=100)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="time one operation")
    p_bench.add_argument("--method", required=True,
                         choices=("bdet-def", "bdet-condense", "permanent"))
    p_bench.add_argument("--n", type=size, required=True)
    p_bench.add_argument("--json", action="store_true")
    p_bench.add_argument("--max-n", type=size, dest="max_n")
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
