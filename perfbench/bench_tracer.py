"""Span tracer installed from outside the package for the traced run.

``Tracer.install`` replaces public functions and methods of the package
with wrappers that record one span per call: name, enter/start/end/exit
times, parent span and job id.  Spans are kept in flat arrays while the
pass runs and are written out afterwards.  ``uninstall`` restores every
original object, so untraced passes run the package unmodified.

Times per span:

    enter <= start <= end <= exit

``start..end`` is the wrapped call; ``enter..start`` and ``end..exit`` are
the wrapper's own bookkeeping.  A span's self time is ``end - start`` minus
the ``enter..exit`` extent of its children, so wrapper cost is charged to
no layer and shows only in ``trace.overhead_s``.

Hot inner helpers (``tournament.is_cycle``, ``Tournament.inverted``,
``Polynomial.__init__`` and the like) are deliberately left unwrapped:
their per-call cost is close to the wrapper's, and wrapping them would
swamp the self times of their callers.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

LAYERS = ("exactpoly", "bdet", "bpoly", "permstat", "tournament", "vandermonde", "cli")

# (module, attribute, span name) for plain spans; every alias of the
# function in any package module is replaced, so names bound with
# ``from .x import f`` (bpoly binds bdet_condense that way) are covered.
PLAIN_FUNCTIONS = (
    ("exactpoly", "parse", "exactpoly.parse"),
    ("exactpoly", "format_poly", "exactpoly.format"),
    ("bdet", "deform", "bdet.deform"),
    ("bdet", "det_classic", "bdet.leibniz"),
    ("bdet", "bdet_definition", "bdet.leibniz"),
    ("bdet", "bdet_via_deformation", "bdet.via_deformation"),
    ("bdet", "little_invariance_check", "bdet.little_invariance"),
    ("bdet", "condensation_identity_check", "bdet.identity_check"),
    ("bdet", "permanent_q", "bdet.permanent"),
    ("bdet", "lambda_det", "bdet.rational_condense"),
    ("bdet", "lambda_q_det", "bdet.rational_condense"),
    ("bdet", "parse_matrix", "bdet.parse_matrix"),
    # the zero-minor fallback has no public boundary that encloses its work
    ("bdet", "_det_cofactor", "bdet.fallback"),
    ("bpoly", "verify_all", "bpoly.verify_all"),
    ("bpoly", "bn_product", "bpoly.product"),
    ("bpoly", "bn_recursion", "bpoly.recursion"),
    ("bpoly", "bn_signed_sum", "bpoly.signed_sum"),
    ("bpoly", "bn_determinant", "bpoly.determinant"),
    ("bpoly", "sign_balance", "bpoly.sign_balance"),
    ("permstat", "length_and_beta", "permstat.length_and_beta"),
    ("permstat", "bruhat_leq", "permstat.bruhat_leq"),
    ("permstat", "beta", "permstat.beta"),
    ("permstat", "length", "permstat.length"),
    ("permstat", "inverse", "permstat.inverse"),
    ("permstat", "bigrassmannians_below", "permstat.bigrassmannians_below"),
    ("permstat", "rothe_diagram", "permstat.rothe_diagram"),
    ("permstat", "bruhat_order_bfs", "permstat.bruhat_order_bfs"),
    ("tournament", "perfect_matching", "tournament.perfect_matching"),
    ("tournament", "t_length", "tournament.t_length"),
    ("tournament", "t_beta", "tournament.t_beta"),
    ("tournament", "outdegrees", "tournament.outdegrees"),
    ("tournament", "is_transitive", "tournament.is_transitive"),
    ("tournament", "to_tournament", "tournament.to_tournament"),
    ("tournament", "from_transitive", "tournament.from_transitive"),
    ("tournament", "c_involution", "tournament.c_involution"),
    ("vandermonde", "vandermonde_product", "vandermonde.product"),
    ("vandermonde", "tournament_sum", "vandermonde.tournament_sum"),
    ("vandermonde", "vanishing_check", "vandermonde.vanishing_check"),
    ("cli", "main", "cli.main"),
)

# generators whose yielded items are counted (no span per item)
COUNTED_GENERATORS = (
    ("permstat", "enumerate_sn", "permstat.enumerate_sn.perms"),
    ("tournament", "enumerate_tn", "tournament.enumerate_tn.count"),
)

ADD_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")


def _coef_bits(c) -> int:
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return c.bit_length()


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.t_enter = array("d")
        self.t_start = array("d")
        self.t_end = array("d")
        self.t_exit = array("d")
        self.val = array("q")
        self.stack: list[int] = []
        self.job_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.coef_bits_max = 0
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- span store -------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, t_enter: float) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.t_enter.append(t_enter)
        self.t_start.append(0.0)
        self.t_end.append(0.0)
        self.t_exit.append(0.0)
        self.val.append(0)
        self.stack.append(i)
        return i

    def _close(self, i: int, t_start: float, t_end: float) -> None:
        self.stack.pop()
        self.t_start[i] = t_start
        self.t_end[i] = t_end

    def _note_bits(self, poly) -> None:
        for _, c in poly.terms():
            b = _coef_bits(c)
            if b > self.coef_bits_max:
                self.coef_bits_max = b

    # -- wrappers ---------------------------------------------------------

    def _plain(self, name: str, fn, value=None):
        nid = self.name_id(name)

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            i = self._open(nid, t0)
            try:
                t1 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(i, t1, perf_counter())
                    if value is not None:
                        self.val[i] = value(args, kwargs)
            finally:
                self.t_exit[i] = perf_counter()
        return wrapper

    def _lambda_q(self, fn):
        rec, prod = self.name_id("bpoly.lambda_q_recursion"), self.name_id("bpoly.lambda_q_product")

        def wrapper(n, route="product", *args, **kwargs):
            t0 = perf_counter()
            i = self._open(rec if route == "recursion" else prod, t0)
            try:
                t1 = perf_counter()
                try:
                    return fn(n, route, *args, **kwargs)
                finally:
                    self._close(i, t1, perf_counter())
            finally:
                self.t_exit[i] = perf_counter()
        return wrapper

    def _arith(self, kind: str, fn):
        """Multiply or exact-divide, classified q-only or generic by operands.

        The span value is the number of output terms for a multiply and 1
        for a division that returned (0 when it raised InexactDivision).
        """
        tr = self
        Polynomial = self.pkg.Polynomial
        q_id, gen_id = self.name_id(f"exactpoly.{kind}_q"), self.name_id(f"exactpoly.{kind}_gen")
        is_div = kind == "div"

        def wrapper(a, b):
            t0 = perf_counter()
            if isinstance(b, Polynomial):
                q_only = a.is_q_only() and b.is_q_only()
            elif isinstance(b, (int, Fraction)):
                q_only = a.is_q_only()
            else:
                return fn(a, b)
            i = tr._open(q_id if q_only else gen_id, t0)
            try:
                t1 = perf_counter()
                try:
                    result = fn(a, b)
                finally:
                    tr._close(i, t1, perf_counter())
                if result is not NotImplemented:
                    tr.val[i] = 1 if is_div else len(result)
                    tr._note_bits(result)
                return result
            finally:
                tr.t_exit[i] = perf_counter()
        return wrapper

    def _suite(self, name: str, fn):
        """One span per step of a verify suite generator."""
        step = self._plain(name, next)
        done = object()

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                item = step(gen, done)
                if item is done:
                    return
                yield item
        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item
        return wrapper

    # -- install / uninstall ---------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "bigrassmannian" and not modname.startswith("bigrassmannian."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _replace_methods(self, cls, original, wrapper) -> None:
        for attr, value in list(vars(cls).items()):
            if value is original:
                self._restore.append((cls, attr, value))
                setattr(cls, attr, wrapper)

    def install(self) -> None:
        pkg = self.pkg
        for modname, attr, name in PLAIN_FUNCTIONS:
            fn = getattr(getattr(pkg, modname), attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self._replace_everywhere(fn, self._plain(name, fn))
        condense = pkg.bdet.bdet_condense
        self._replace_everywhere(condense, self._plain(
            "bdet.condense", condense,
            # condensation cells of an n x n matrix: sum of k^2, k = 1..n-1
            value=lambda args, kwargs: (args[0].n - 1) * args[0].n * (2 * args[0].n - 1) // 6))
        lambda_q = pkg.bpoly.bn_lambda_q
        self._replace_everywhere(lambda_q, self._lambda_q(lambda_q))
        for modname, attr, key in COUNTED_GENERATORS:
            fn = getattr(getattr(pkg, modname), attr)
            self._replace_everywhere(fn, self._counted(key, fn))
        poly = pkg.Polynomial
        self._replace_methods(poly, poly.__mul__, self._arith("mul", poly.__mul__))
        self._replace_methods(poly, poly.div_exact, self._arith("div", poly.div_exact))
        # __radd__ is an alias of __add__; each distinct function is wrapped
        # once and every alias of it is replaced
        for fn in {vars(poly)[m] for m in ADD_METHODS if m in vars(poly)}:
            self._replace_methods(poly, fn, self._plain("exactpoly.add", fn))
        rf = pkg.RationalFunction
        self._replace_methods(rf, rf.__init__, self._plain("exactpoly.ratfunc", rf.__init__))
        suites = getattr(pkg.cli, "_SUITE_FUNCS", None)
        if suites is None:
            self.missing.append("cli._SUITE_FUNCS")
        else:
            for suite, fn in list(suites.items()):
                self._restore.append((suites, suite, fn))
                suites[suite] = self._suite(f"cli.verify.{suite}", fn)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    # -- output -----------------------------------------------------------

    def write(self, path: str) -> None:
        """All spans as gzip'd TSV, one row per span with the header below."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("span\tname\tenter\tstart\tend\texit\tparent\tjob\tvalue\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.t_enter[i]:.9f}\t"
                         f"{self.t_start[i]:.9f}\t{self.t_end[i]:.9f}\t"
                         f"{self.t_exit[i]:.9f}\t{self.parent[i]}\t{self.job[i]}\t"
                         f"{self.val[i]}\n")

    def summarize(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s, incl_s, value_sum; plus derived rows."""
        n = len(self.name)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.t_exit[i] - self.t_enter[i]
        rows: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "value_sum": 0})
        deform_id = self._ids.get("bdet.deform", -1)
        condense_id = self._ids.get("bdet.condense", -1)
        fallback_calls = 0
        fallback_s = 0.0
        fallback_id = self._ids.get("bdet.fallback", -1)
        for i in range(n):
            nid = self.name[i]
            incl = self.t_end[i] - self.t_start[i]
            row = rows[self.names[nid]]
            row["calls"] += 1
            row["incl_s"] += incl
            row["self_s"] += incl - child[i]
            row["value_sum"] += self.val[i]
            p = self.parent[i]
            if p >= 0 and self.name[p] == condense_id:
                if nid == deform_id:
                    fallback_calls += 1
                elif nid == fallback_id:
                    fallback_s += incl
        # a fallback cell is a deform call under bdet_condense; its time is
        # that of the cofactor expansion which follows the call
        rows["bdet.fallback"]["calls"] = fallback_calls
        rows["bdet.fallback"]["incl_s"] = fallback_s
        return dict(rows)
