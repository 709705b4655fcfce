"""Independent per-job output checks, run outside the timed interval.

Strength of each check:

* all-ones matrices: the printed polynomial must equal, character for
  character, ``format_poly(bn_product(n))`` (the product route).
* random dense and sparse matrices: the benchmark never calls
  ``bdet_condense`` or ``div_exact`` here.  It evaluates the printed
  polynomial with its own parser at two random points t = q^(1/2) modulo
  the prime p = 2^127 - 1, and compares with the determinant of the
  B-deformed matrix (entries c * t^(e + (i-j)^2)) evaluated at the same
  points by Gaussian elimination mod p.  A wrong output is a nonzero Laurent
  polynomial of degree D < 4n + 2*C(n+1, 3) + 1 in t, so each point misses
  it with probability at most D / (p - 1) < 2^-117, unless every wrong
  coefficient is off by a multiple of p; true coefficients are below
  n! * 3^n < 2^60 for the sizes used.
* two-variable: the recursion must equal the product route exactly,
  ``lambda_q_det(ones(n))`` must equal the two-variable product, and
  ``lambda_det(A)`` at l = -1 must equal the determinant of A computed by
  exact ``Fraction`` elimination in this file.
* verify-mixed: exit code 0 and ``"ok": true`` in the JSON envelope.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction

P = (1 << 127) - 1

_COEF = re.compile(r"(\d+)(?:/(\d+))?")
_QPOW = re.compile(r"q(?:\^(?:(\d+)|\((-?\d+)(/2)?\)))?")


def _term_mod_p(tok: str, t: int) -> int | None:
    parts = tok.split("*")
    if len(parts) == 2:
        coef_txt, q_txt = parts
    elif parts[0][:1].isdigit():
        coef_txt, q_txt = parts[0], None
    else:
        coef_txt, q_txt = None, parts[0]
    num, den = 1, 1
    if coef_txt is not None:
        m = _COEF.fullmatch(coef_txt)
        if not m or (m.group(2) and int(m.group(2)) == 0):
            return None
        num, den = int(m.group(1)), int(m.group(2) or 1)
    halves = 0
    if q_txt is not None:
        m = _QPOW.fullmatch(q_txt)
        if not m:
            return None
        whole, paren, half = m.groups()
        if whole is not None:
            halves = 2 * int(whole)
        elif paren is not None:
            halves = int(paren) if half else 2 * int(paren)
        else:
            halves = 2
    return num * pow(den, -1, P) * pow(t, halves, P) % P


def eval_q_text(text: str, t: int) -> int | None:
    """Value mod P of a printed polynomial in q alone at q^(1/2) = t.

    Returns None for text outside the q-only grammar, so a malformed
    output fails its check instead of passing it.
    """
    tokens = re.findall(r"[+-]|[^+\-\s]\S*", text)
    total, i, sign = 0, 0, 1
    if tokens and tokens[0] in ("+", "-"):
        sign, i = (-1 if tokens[0] == "-" else 1), 1
    while True:
        if i >= len(tokens) or tokens[i] in ("+", "-"):
            return None
        term = _term_mod_p(tokens[i], t)
        if term is None:
            return None
        total = (total + sign * term) % P
        i += 1
        if i == len(tokens):
            return total
        if tokens[i] not in ("+", "-"):
            return None
        sign, i = (-1 if tokens[i] == "-" else 1), i + 1


def det_mod_p(rows: list[list[int]]) -> int:
    """Determinant mod P by Gaussian elimination with row swaps."""
    a = [[x % P for x in row] for row in rows]
    n = len(a)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det = det * a[col][col] % P
        inv = pow(a[col][col], -1, P)
        for r in range(col + 1, n):
            f = a[r][col] * inv % P
            if f:
                a[r] = [(x - f * y) % P for x, y in zip(a[r], a[col])]
    return det % P


def deformed_det_mod_p(entries: list, t: int) -> int:
    """det of the B-deformation a_ij -> q^((i-j)^2/2) a_ij at q^(1/2) = t."""
    return det_mod_p([
        [0 if e is None else e[0] * pow(t, e[1] + (i - j) ** 2, P)
         for j, e in enumerate(row)]
        for i, row in enumerate(entries)])


def fraction_det(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant by Fraction Gaussian elimination."""
    a = [list(map(Fraction, row)) for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def _cli_value(out) -> str | None:
    rc, text = out
    if rc != 0:
        return None
    payload = json.loads(text)
    if not payload.get("ok") or len(payload.get("results", ())) != 1:
        return None
    return payload["results"][0]["value"]


class Checker:
    """Holds the reference values; ``check(job, output)`` -> bool."""

    def __init__(self, pkg):
        self.pkg = pkg
        self._ones: dict[int, str] = {}
        self._lambda_q: dict[int, object] = {}

    def expected_ones_text(self, n: int) -> str:
        if n not in self._ones:
            self._ones[n] = self.pkg.format_poly(self.pkg.bpoly.bn_product(n))
        return self._ones[n]

    def lambda_q_product(self, n: int):
        if n not in self._lambda_q:
            self._lambda_q[n] = self.pkg.bpoly.bn_lambda_q(n, route="product")
        return self._lambda_q[n]

    def check(self, job, out) -> bool:
        pkg = self.pkg
        if job.kind == "verify":
            rc, text = out
            return rc == 0 and json.loads(text).get("ok") is True
        if job.kind == "ones":
            return _cli_value(out) == self.expected_ones_text(job.n)
        if job.kind in ("monomial", "sparse"):
            value = _cli_value(out)
            if value is None:
                return False
            rng = random.Random(job.seed)
            for _ in range(2):
                t = rng.randrange(2, P - 1)
                if eval_q_text(value, t) != deformed_det_mod_p(job.entries, t):
                    return False
            return True
        if job.kind == "lambda-q-recursion":
            return out == self.lambda_q_product(job.n)
        if job.kind == "lambda-q-det-ones":
            return out == pkg.RationalFunction(self.lambda_q_product(job.n))
        if job.kind == "lambda-det":
            at_minus_one = out.subs(lam=-1)
            num, den = at_minus_one.num, at_minus_one.den
            return (num.is_constant() and den.is_constant()
                    and Fraction(num.constant_value()) / den.constant_value()
                    == fraction_det(job.entries))
        raise ValueError(f"no check for job kind {job.kind!r}")
