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
from functools import cache

from . import bdet as bdet_mod
from . import bpoly, permstat, vandermonde
from .checks import SUITES as _SUITE_FUNCS
from .errors import BoundExceeded
from .exactpoly import Polynomial, ascii_int, format_poly, qpow

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2


def _bound(args) -> dict:
    """``--max-n`` as the route's ``max_n`` keyword, with a warning, when it
    is given; otherwise nothing, so each route keeps its own bound."""
    if args.max_n is None:
        return {}
    print(f"warning: bound raised to n={args.max_n}; runtime may grow sharply",
          file=sys.stderr)
    return {"max_n": args.max_n}


def _emit(args, command: str, inputs: dict, results: list[tuple[str, str]],
          ok: bool, verdict: bool = False) -> None:
    if args.json:
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

# bn --method -> bpoly route; "all" runs every route and compares them
_BN_METHODS = {"sum": "signed-sum", "product": "product",
               "recursion": "recursion", "det": "determinant", "all": None}


def cmd_bn(args) -> int:
    route = _BN_METHODS[args.method]
    inputs = {"n": args.n, "method": args.method}
    if route is None:
        agreement = bpoly.verify_all(args.n, **_bound(args))
        results = [(r.route, format_poly(r.poly)) for r in agreement.results]
        _emit(args, "bn", inputs, results, agreement.ok, verdict=True)
        return EXIT_OK if agreement.ok else EXIT_VERIFY_FAIL
    poly = bpoly.bn(args.n, route, **_bound(args))
    _emit(args, "bn", inputs, [("", format_poly(poly))], True)
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


# bdet --method -> route; looked up at call time, so a patched route is seen
_BDET_METHODS = {
    "def": lambda a, **bound: bdet_mod.bdet_definition(a, **bound),
    "deform": lambda a, **bound: bdet_mod.bdet_via_deformation(a, **bound),
    "condense": lambda a, **bound: bdet_mod.bdet_condense(a, **bound),
}


def cmd_bdet(args) -> int:
    with open(args.matrix, encoding="ascii") as fh:
        matrix = bdet_mod.parse_matrix(fh.read())
    poly = _BDET_METHODS[args.method](matrix, **_bound(args))
    _emit(args, "bdet", {"matrix": args.matrix, "method": args.method},
          [("", format_poly(poly))], True)
    return EXIT_OK


def _reading_permanent(a, **bound) -> Polynomial:
    """Reading's generating function as the permanent of deform(a)."""
    return bdet_mod.permanent_q(bdet_mod.deform(a), **bound)


def cmd_reading(args) -> int:
    poly = _reading_permanent(bdet_mod.PolyMatrix.ones(args.n), **_bound(args))
    _emit(args, "reading", {"n": args.n}, [("", format_poly(poly))], True)
    return EXIT_OK


def cmd_expand(args) -> int:
    poly = vandermonde.vandermonde_product(
        args.n, weighted=args.weighted, **_bound(args))
    _emit(args, "expand", {"n": args.n, "weighted": args.weighted},
          [("", format_poly(poly))], True)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.n is not None and args.suite != "condensation":
        raise ValueError("--n applies only to --suite condensation")
    sizes = {} if args.n is None else {"sizes": [args.n]}
    rng = random.Random(args.seed)
    names = list(_SUITE_FUNCS) if args.suite == "all" else [args.suite]
    results: list[tuple[str, str]] = []
    all_ok = True
    for name in names:
        func = _SUITE_FUNCS[name]
        checks = func(args.max_n, args.trials, rng, **sizes)
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


def _reading_definition(a) -> Polynomial:
    """Reading's statistic by its definition: the sum of q^beta(w) over S_n,
    which is the permanent of the deformed n x n all-ones matrix."""
    return sum((qpow(2 * permstat.beta(w)) for w in permstat.enumerate_sn(a.n)),
               start=Polynomial.constant(0))


# bench --method -> (timed route, independent reference route, its name),
# both run on the all-ones matrix
_BENCH_METHODS = {
    "bdet-def": (_BDET_METHODS["def"], _BDET_METHODS["deform"], "deformation"),
    "bdet-condense": (_BDET_METHODS["condense"], _BDET_METHODS["def"],
                      "definition"),
    "permanent": (_reading_permanent, _reading_definition, "definition"),
}
AGREEMENT_N = 5


def cmd_bench(args) -> int:
    route, reference, ref_name = _BENCH_METHODS[args.method]
    # agreement with the reference route before timing, at a size both
    # reach under their default bounds
    small = bdet_mod.PolyMatrix.ones(AGREEMENT_N)
    if route(small) != reference(small):
        print(f"FAIL: {args.method} disagrees with the {ref_name} "
              f"at n={AGREEMENT_N}")
        return EXIT_VERIFY_FAIL
    matrix = bdet_mod.PolyMatrix.ones(args.n)
    bound = _bound(args)
    start = time.perf_counter()
    try:
        poly = route(matrix, **bound)
    except BoundExceeded as exc:
        raise BoundExceeded(f"{args.method} is capped: {exc}") from None
    elapsed = time.perf_counter() - start
    halves = poly.q_degree_halves()
    degree = Fraction(halves, 2) if halves is not None else 0
    results = [
        ("op", args.method),
        ("n", str(args.n)),
        ("agreement", f"checked against {ref_name} at n={AGREEMENT_N}"),
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
        value = ascii_int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    return integer


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it:
    parsing does not change it, and nothing else may."""
    parser = argparse.ArgumentParser(
        prog="bigrassmannian",
        description="Exact computation and cross-verification of signed "
                    "bigrassmannian polynomials and q-weighted determinants.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    size = _at_least(0)
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true")
    # --max-n on a computing subcommand raises its route's own bound
    raise_bound = argparse.ArgumentParser(add_help=False)
    raise_bound.add_argument("--max-n", type=size, dest="max_n")
    bounded = [as_json, raise_bound]

    p_bn = sub.add_parser("bn", parents=bounded,
                          help="signed polynomial by one or all routes")
    p_bn.add_argument("--n", type=size, required=True)
    p_bn.add_argument("--method", default="all", choices=_BN_METHODS)
    p_bn.set_defaults(func=cmd_bn)

    p_beta = sub.add_parser("beta", parents=[as_json],
                            help="length and beta of a permutation")
    p_beta.add_argument("--perm", required=True)
    p_beta.set_defaults(func=cmd_beta)

    p_bdet = sub.add_parser("bdet", parents=bounded,
                            help="q-weighted determinant of a matrix file")
    p_bdet.add_argument("--matrix", required=True)
    p_bdet.add_argument("--method", default="condense", choices=_BDET_METHODS)
    p_bdet.set_defaults(func=cmd_bdet)

    p_reading = sub.add_parser(
        "reading", parents=bounded,
        help="unsigned statistic generating function (permanent)")
    p_reading.add_argument("--n", type=size, required=True)
    p_reading.set_defaults(func=cmd_reading)

    p_expand = sub.add_parser("expand", parents=bounded,
                              help="expanded Vandermonde-type product")
    p_expand.add_argument("--n", type=size, required=True)
    p_expand.add_argument("--weighted", action="store_true")
    p_expand.set_defaults(func=cmd_expand)

    p_verify = sub.add_parser("verify", parents=[as_json],
                              help="run exact cross-check suites")
    p_verify.add_argument("--suite", default="all",
                          choices=[*_SUITE_FUNCS, "all"])
    p_verify.add_argument("--n", type=size, default=None)
    p_verify.add_argument("--max-n", type=size, dest="max_n", default=5)
    p_verify.add_argument("--trials", type=_at_least(1), default=100)
    p_verify.add_argument("--seed", type=ascii_int, default=42)
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", parents=bounded,
                             help="time one operation")
    p_bench.add_argument("--method", required=True, choices=_BENCH_METHODS)
    p_bench.add_argument("--n", type=size, required=True)
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
