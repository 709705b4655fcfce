"""The q-weighted (bigrassmannian) determinant and its computation routes.

``bdet(A) = sum over w of (-1)^length(w) * q^beta(w) * prod a_{i,w(i)}``,
with the empty matrix mapping to 1.  Three independent routes are provided:
the defining signed sum, the classical determinant of the entrywise
deformation a_ij -> q^((i-j)^2/2) a_ij, and two-dimensional condensation
over contiguous square minors

    bdet(A) bdet(A with first+last rows and columns deleted)
        = bdet(A_1^1) bdet(A_n^n) - q^(n-1) bdet(A_n^1) bdet(A_1^n),

which needs only exact polynomial division.

The signed sum (and the classical determinant, the same sum unweighted)
visits every permutation in one depth-first walk over the rows: the
permutations that agree on their first rows share one prefix product, a
zero entry prunes all of them, and each permutation's sign and beta are
summed from its inversions, one row at a time, out of a cached table of
2^n * n steps.  Rows are cleared of denominators first, so the products
are on integer term dicts.  The walk takes no minor, no elimination and no
packed image: those are condensation's, and sharing them would make the
routes that ``verify`` compares one route.

The Robbins-Rumsey style l- and l*q-determinants replace the factor
-q^(n-1) by l or l*q^(n-1).
One engine, ``_condense``, runs every such recursion; only the factor,
the ring and the corner weights differ.
``bdet_condense`` runs it on ints, the packed image of a matrix in q
alone, and on polynomials otherwise.  The l- and l*q-determinants run it
fraction-free on polynomials, whatever the entries: rows are cleared of
denominators, and each cell is carried times the product of its block's
interior entries, which makes it a polynomial (Robbins and Rumsey) and
every division exact (Bareiss).  Only the result is a rational function.
A zero interior minor stops the loop with ``ZeroMinor``, which the l- and
l*q-determinants pass on.  ``bdet_condense`` catches it and returns the
determinant of the whole deformed matrix instead, by fraction-free
elimination (Bareiss) on the same packed image or on polynomials.  The
unsigned analogue (the permanent with q weights) lives here too.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import Callable, Sequence

from .errors import BoundExceeded, InexactDivision, ZeroMinor
from .exactpoly import (
    L,
    ONE,
    ZERO,
    Polynomial,
    RationalFunction,
    _denominator,
    _scaled,
    _times,
    convolve,
    format_poly,
    inclusion_exclusion,
    parse,
    q_image,
    qpow,
)

LEIBNIZ_BOUND = 8
LITTLE_INVARIANCE_BOUND = 7
PERMANENT_BOUND = 10
CONDENSE_BOUND = 30
LAMBDA_BOUND = 15


class PolyMatrix:
    """Immutable square matrix of polynomials."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence[Polynomial]]):
        rows = tuple(
            tuple(e if isinstance(e, Polynomial) else Polynomial.constant(e)
                  for e in row)
            for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _raw(cls, rows: tuple[tuple[Polynomial, ...], ...]) -> "PolyMatrix":
        # trusted constructor: rows already a square tuple of tuples of
        # Polynomials
        a = object.__new__(cls)
        object.__setattr__(a, "n", len(rows))
        object.__setattr__(a, "rows", rows)
        return a

    def __setattr__(self, *_):
        raise AttributeError("PolyMatrix is immutable")

    def __getitem__(self, rc: tuple[int, int]) -> Polynomial:
        r, c = rc
        return self.rows[r][c]

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"PolyMatrix(n={self.n})"

    @staticmethod
    def ones(n: int) -> "PolyMatrix":
        return PolyMatrix([[ONE] * n for _ in range(n)])

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix._raw(tuple(zip(*self.rows)))

    def delete(self, rows: Sequence[int], cols: Sequence[int]) -> "PolyMatrix":
        """Submatrix with the given 1-based rows and columns removed."""
        rset, cset = set(rows), set(cols)
        keep = [c for c in range(self.n) if c + 1 not in cset]
        out = tuple(tuple([row[c] for c in keep])
                    for r, row in enumerate(self.rows) if r + 1 not in rset)
        if out and len(keep) != len(out):
            raise ValueError("matrix must be square")
        return PolyMatrix._raw(out)


# deformation families ------------------------------------------------------

@dataclass(frozen=True)
class DeformationFamily:
    """Entrywise q-monomial multipliers indexed by (i, j), 1-based."""

    kind: str
    halves: Callable[[int, int], int]

    def factor(self, i: int, j: int) -> Polynomial:
        return qpow(self.halves(i, j))


B_FAMILY = DeformationFamily("b", lambda i, j: (i - j) ** 2)
B_PRIME = DeformationFamily("b_prime", lambda i, j: 2 * i * (i - j))
B_DOUBLE_PRIME = DeformationFamily("b_double_prime", lambda i, j: 2 * j * (j - i))


def deform(a: PolyMatrix, fam: DeformationFamily = B_FAMILY) -> PolyMatrix:
    return PolyMatrix._raw(tuple(
        tuple([fam.factor(i + 1, j + 1) * a.rows[i][j] for j in range(a.n)])
        for i in range(a.n)))


# determinant routes ---------------------------------------------------------

def _inversion_step(mask: int, c: int, n: int) -> tuple[int, int]:
    above = [u - c for u in range(c + 1, n) if mask >> u & 1]
    return len(above), sum(above)


@lru_cache(maxsize=None)
def _inversion_steps(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """``steps[mask][c]``: the (inversions, beta) that placing column c adds
    after the columns in mask, 0-based.

    Each earlier column u > c is one inversion, of weight u - c, so the
    steps summed along the rows of a word are its length and its beta.
    """
    return tuple(tuple(_inversion_step(mask, c, n) for c in range(n))
                 for mask in range(1 << n))


def _leibniz(a: PolyMatrix, q_weighted: bool) -> Polynomial:
    """The signed permutation sum, by one depth-first walk over the rows.

    Row i places each free column c (the used ones are a bit mask) and
    multiplies the prefix product shared by the permutations below by
    a[i][c]; a zero entry prunes them all.  Every permutation that
    survives is a leaf, and its length and beta are summed from its
    inversions along the way, through ``_inversion_steps``.  A leaf's
    product goes into the dict of its (q^beta shift, length parity), and
    each dict is shifted by q^beta (when ``q_weighted``) and signed by
    (-1)^length once, at the end.  Products are term dicts, multiplied by
    ``exactpoly.convolve``.  Each row is first cleared of denominators, and
    the result divided by their product: the sum is linear in each row.

    It shares nothing with condensation (no minors, no packed image), so
    the routes stay independent checks of each other.
    """
    n = a.n
    if n == 0:
        return ONE
    rows, den = [], 1
    for row in a.rows:
        terms = [e._terms for e in row]
        d = lcm(*map(_denominator, terms))
        rows.append([_times(f, d) for f in terms])
        den *= d
    steps = _inversion_steps(n)
    weight = 2 if q_weighted else 0
    last, full = n - 1, (1 << n) - 1
    nonzero = [[(c, 1 << c, f) for c, f in enumerate(row) if f] for row in rows]
    leaves: dict[tuple[int, int], dict[tuple, int]] = {}

    def walk(i: int, mask: int, prefix: dict, ell: int, beta: int) -> None:
        if i == last:
            c = (full ^ mask).bit_length() - 1
            entry = rows[i][c]
            if entry:
                dl, db = steps[mask][c]
                key = (weight * (beta + db), (ell + dl) % 2)
                out = leaves.get(key)
                if out is None:
                    out = leaves[key] = {}
                convolve(prefix, entry, out)
            return
        step = steps[mask]
        for c, bit, entry in nonzero[i]:
            if not mask & bit:
                dl, db = step[c]
                walk(i + 1, mask | bit, convolve(prefix, entry, {}),
                     ell + dl, beta + db)

    walk(0, 0, ONE._terms, 0, 0)
    total: dict[tuple, int] = {}
    for (h, odd), out in leaves.items():
        for (qh, le, xs), v in out.items():
            key = (qh + h, le, xs)
            total[key] = total.get(key, 0) + (-v if odd else v)
    # the walk's keys are canonical: only zero sums and whole quotients
    # are left for the constructor's checks to catch
    return Polynomial._raw(
        _scaled({k: c for k, c in total.items() if c}, 1, den))


def det_classic(a: PolyMatrix, max_n: int = LEIBNIZ_BOUND) -> Polynomial:
    """Ordinary determinant by the signed permutation sum."""
    if a.n > max_n:
        raise BoundExceeded(f"Leibniz determinant above bound {max_n}")
    return _leibniz(a, q_weighted=False)


def bdet_definition(a: PolyMatrix, max_n: int = LEIBNIZ_BOUND) -> Polynomial:
    """The defining signed, q-weighted permutation sum."""
    if a.n > max_n:
        raise BoundExceeded(f"signed sum above bound {max_n}")
    return _leibniz(a, q_weighted=True)


def bdet_via_deformation(a: PolyMatrix, max_n: int = LEIBNIZ_BOUND) -> Polynomial:
    """det of the deformed matrix; agrees with bdet_definition."""
    if a.n > max_n:
        raise BoundExceeded(f"deformation determinant above bound {max_n}")
    return det_classic(deform(a, B_FAMILY), max_n=max_n)


def little_invariance_check(a: PolyMatrix) -> tuple[Polynomial, ...]:
    """Determinants of the three deformations; always an equal triple."""
    if a.n > LITTLE_INVARIANCE_BOUND:
        raise BoundExceeded(
            f"little invariance above bound {LITTLE_INVARIANCE_BOUND}")
    return tuple(
        det_classic(deform(a, fam))
        for fam in (B_FAMILY, B_PRIME, B_DOUBLE_PRIME))


def _det_cofactor(rows: Sequence[Sequence], zero, one, divide: Callable):
    """The determinant of a square matrix over an integral domain, by
    fraction-free elimination with row pivoting (Bareiss, Math. Comp. 22,
    1968): O(n^3) ring operations, each division an exact ``divide``.

    Step k replaces each entry below and right of the pivot p_k by
    (p_k * a_ij - a_ik * a_kj) / p_(k-1), so every value is a minor and
    the last is the determinant.  A zero pivot swaps with the first
    nonzero entry below it, negating the result; a column with none gives
    ``zero``.  Rows and columns take one order, from the middle out: on a
    deformed matrix the minors then join nearby rows and columns, whose
    factors q^((i-j)^2/2) stay low.  The name is the benchmark tracer's
    hook for ``bdet_condense``'s zero-minor fallback.
    """
    n = len(rows)
    if not n:
        return one
    order = sorted(range(n), key=lambda k: abs(2 * k - n + 1))
    m = [[rows[i][j] for j in order] for i in order]
    negate, prev = False, one
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return zero
            m[k], m[swap] = m[swap], m[k]
            negate = not negate
        top = m[k]
        pivot, tail = top[k], top[k + 1:]
        for row in m[k + 1:]:
            lead = row[k]
            if lead:
                row[k + 1:] = [divide(pivot * x - lead * y, prev)
                               for x, y in zip(row[k + 1:], tail)]
            else:
                row[k + 1:] = [divide(pivot * x, prev) for x in row[k + 1:]]
        prev = pivot
    return -m[-1][-1] if negate else m[-1][-1]


def _condense(rows: Sequence[Sequence], one, factor: Callable[[int], object],
              divide: Callable,
              corners: Callable[[int, int, int], tuple] | None = None):
    """The condensation loop over contiguous square minors.

    The cell of a given size at (r, c), 0-based, is
    (se * nw + factor(size) * ne * sw) / interior, where nw, ne, sw and se
    are the cells of size - 1 at its corners and interior is the cell of
    size - 2 at (r + 1, c + 1); ``divide`` takes the quotient.  A zero
    interior minor stops the loop: it raises ``ZeroMinor`` with the minor's
    1-based corner and size.  Returns the single cell of size n, and
    ``one`` for the empty matrix.  The ring is any whose zero is false:
    polynomials or ints.  The interior of a size-2 cell is ``one``, so it
    is not divided by.

    ``corners`` makes the loop fraction-free: each cell is then the
    condensation cell times the product of its block's interior entries.
    A size-3 cell is its numerator, and its interior entry is only checked
    for zero.  From size 4 up, ``corners(r, c, size)`` gives the weights
    (u, v) of the two products, se * nw * u + factor(size) * ne * v * sw,
    and a weight equal to ``one`` is skipped.
    """
    n = len(rows)
    prev2 = [[one] * (n + 1) for _ in range(n + 1)]
    prev1 = rows
    first_division = 3 if corners is None else 4
    for size in range(2, n + 1):
        fac = factor(size)
        divides = size >= first_division
        weigh = corners if divides else None
        cur = []
        for r in range(n - size + 1):
            row = []
            for c in range(n - size + 1):
                divisor = prev2[r + 1][c + 1]
                if not divisor:
                    raise ZeroMinor(r + 1, c + 1, size - 2)
                nw, ne = prev1[r][c], prev1[r][c + 1]
                if weigh is not None:
                    u, v = weigh(r, c, size)
                    if u != one:
                        nw = nw * u
                    if v != one:
                        ne = ne * v
                num = prev1[r + 1][c + 1] * nw + fac * ne * prev1[r + 1][c]
                row.append(divide(num, divisor) if divides else num)
            cur.append(row)
        prev2, prev1 = prev1, cur
    return prev1[0][0] if n else one


def _divide_image(num: int, divisor: int) -> int:
    quot, rem = divmod(num, divisor)
    if rem:
        raise InexactDivision("packed exact step leaves a remainder")
    return quot


def bdet_condense(a: PolyMatrix, max_n: int = CONDENSE_BOUND) -> Polynomial:
    """bdet by condensation over contiguous square minors.

    The factor is -q^(size-1) and the divisor at each step is the interior
    minor; divisions are exact whenever the identity holds.  At the first
    zero interior minor the loop stops, and the value is the determinant of
    the whole deformed matrix, by fraction-free elimination
    (``_det_cofactor``): bdet(A) = det(deform(A)), the identity behind
    ``bdet_via_deformation``.

    When every entry is in q alone and the slot layout is neither wider
    than SPAN_BOUND nor sparse (``exactpoly.q_image``), both run on the
    matrix's packed image: every value is an int, the factor is a power of
    the slot base, and only the result is unpacked.  Each value the two
    form is a signed, q-weighted permutation sum over a square submatrix
    of the cleared rows, whose coefficients ``_norm_bound`` covers, so an
    image is 0 exactly when its value is.  With whole-power slots the
    deformation takes an extra q^(1/2) per odd row and per odd column,
    which keeps every deformed exponent whole; the result is shifted back
    by the diagonal's extra.  Other matrices run on polynomials.
    """
    n = a.n
    if n > max_n:
        raise BoundExceeded(f"condensation above bound {max_n}")
    # the largest q weight of a term is q^(n(n^2-1)/6), the reversal's beta
    image = q_image(a.rows, 2, n * (n * n - 1) // 3)
    if image is None:
        try:
            return _condense(a.rows, ONE, lambda size: -qpow(2 * (size - 1)),
                             Polynomial.div_exact)
        except ZeroMinor:
            return _det_cofactor(deform(a).rows, ZERO, ONE,
                                 Polynomial.div_exact)
    g, bits = image.g, 8 * image.w
    try:
        return image.unpack(_condense(
            image.rows, 1, lambda size: -1 << 2 * (size - 1) // g * bits,
            _divide_image))
    except ZeroMinor:
        pass

    def halves(i: int, j: int) -> int:
        return (i - j) ** 2 + (g - 1) * (i % 2 + j % 2)

    deformed = [[e << halves(i, j) // g * bits for j, e in enumerate(row)]
                for i, row in enumerate(image.rows)]
    diagonal = sum(halves(k, k) for k in range(n)) // g * bits
    return image.unpack(
        _det_cofactor(deformed, 0, 1, _divide_image) >> diagonal)


def condensation_identity_check(a: PolyMatrix) -> bool:
    """Exact check of the weighted condensation and its five minor bridges.

    All six bdets are computed from the definition; the classical
    determinants of the deformed minors are computed independently.  A
    False return would indicate a genuine counterexample (i.e. a bug).
    """
    n = a.n
    if n < 2:
        raise ValueError("condensation needs n >= 2")
    whole = bdet_definition(a)
    interior = bdet_definition(a.delete((1, n), (1, n)))
    nw = bdet_definition(a.delete((1,), (1,)))
    se = bdet_definition(a.delete((n,), (n,)))
    sw = bdet_definition(a.delete((n,), (1,)))
    ne = bdet_definition(a.delete((1,), (n,)))
    if whole * interior != nw * se - qpow(2 * (n - 1)) * sw * ne:
        return False
    c = deform(a, B_FAMILY)
    half = qpow(n - 1)
    checks = (
        (det_classic(c.delete((1, n), (1, n))), interior),
        (det_classic(c.delete((1,), (1,))), nw),
        (det_classic(c.delete((n,), (n,))), se),
        (det_classic(c.delete((n,), (1,))), half * sw),
        (det_classic(c.delete((1,), (n,))), half * ne),
    )
    return all(lhs == rhs for lhs, rhs in checks)


# permanent -------------------------------------------------------------------

def permanent_q(a: PolyMatrix, max_n: int = PERMANENT_BOUND) -> Polynomial:
    """Unsigned permutation sum by inclusion-exclusion over column subsets."""
    n = a.n
    if n > max_n:
        raise BoundExceeded(f"permanent above bound {max_n}")
    if n == 0:
        return ONE
    image = q_image(a.rows, 0, 0)
    if image is not None:
        return image.unpack(inclusion_exclusion(image.rows, 0))
    return inclusion_exclusion(a.rows, ZERO)


# Robbins-Rumsey recursions ----------------------------------------------------

def _condense_rational(a: PolyMatrix, factor: Callable[[int], Polynomial]
                       ) -> RationalFunction:
    """The l- and l*q-recursions, fraction-free on integer polynomials.

    Each row is first multiplied by the lcm of its coefficients'
    denominators.  The l-determinant is a sum over alternating sign
    matrices B of terms in prod a_ij^B_ij, and every row of B sums to 1, so
    the value is linear in each row.  Then the loop runs on
    N = cell * D, D the product of the block's interior entries, which is
    a polynomial in the entries (Robbins and Rumsey: each interior entry is
    inverted at most once).  For a block of size k at (r, c) with k >= 4,

        N * N_int = N_nw * N_se * a(r+1, c+k-2) * a(r+k-2, c+1)
                    + f * N_ne * N_sw * a(r+1, c+1) * a(r+k-2, c+k-2),

    and N = nw * se + f * ne * sw for k <= 3, so every step is an exact
    polynomial division (Bareiss's fraction-free elimination, on
    condensation).  Only the result is a rational function, N_n over D_n
    times the rows' lcms.  An interior entry is the divisor of the size-3
    cell centred on it, so a zero entry raises ``ZeroMinor`` there; after
    that every D is nonzero, and N_int is zero exactly when its cell is.
    """
    n = a.n
    if n > LAMBDA_BOUND:
        raise BoundExceeded(f"l-determinant above bound {LAMBDA_BOUND}")
    rows, lcms = [], 1
    for row in a.rows:
        d = lcm(*(_denominator(e._terms) for e in row))
        rows.append([Polynomial._raw(_times(e._terms, d)) if d > 1 else e
                     for e in row])
        lcms *= d

    def corners(r: int, c: int, size: int) -> tuple[Polynomial, Polynomial]:
        far_r, far_c = r + size - 2, c + size - 2
        return (rows[r + 1][far_c] * rows[far_r][c + 1],
                rows[r + 1][c + 1] * rows[far_r][far_c])

    top = _condense(rows, ONE, factor, Polynomial.div_exact, corners)
    interior = prod((e for row in rows[1:-1] for e in row[1:-1]), start=ONE)
    return RationalFunction(top, interior * lcms)


def lambda_det(a: PolyMatrix) -> RationalFunction:
    """The l-determinant: condensation with -1 replaced by the variable l.

    Defined when every interior minor of the recursion is nonzero; at
    l = -1 it recovers the classical determinant.  Runs fraction-free on
    polynomials for any entries (``_condense_rational``), up to
    ``LAMBDA_BOUND``.
    """
    return _condense_rational(a, lambda size: L)


def lambda_q_det(a: PolyMatrix) -> RationalFunction:
    """The l*q-determinant: the recursion factor is l*q^(size-1).

    Runs on the same fraction-free loop as ``lambda_det``, up to
    ``LAMBDA_BOUND``.
    """
    return _condense_rational(a, lambda size: L * qpow(2 * (size - 1)))


# random matrices for seeded identity checks -----------------------------------

def random_monomial_matrix(n: int, rng: random.Random) -> PolyMatrix:
    """Entries c * q^(e/2), c in {-3..3} minus 0, e in {0..4} halves."""
    def entry() -> Polynomial:
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        e = rng.randrange(5)
        return Polynomial.monomial(c, qh=e)

    return PolyMatrix([[entry() for _ in range(n)] for _ in range(n)])


def random_rational_matrix(n: int, rng: random.Random) -> PolyMatrix:
    """Positive rational constants; keeps every recursion minor nonzero."""
    def entry() -> Polynomial:
        return Polynomial.constant(
            Fraction(rng.randrange(1, 100), rng.randrange(1, 10)))

    return PolyMatrix([[entry() for _ in range(n)] for _ in range(n)])


# matrix text format ------------------------------------------------------------

def parse_matrix(text: str) -> PolyMatrix:
    """Read the text format: a first line ``n=<digits>``, then n lines of n
    polynomials separated by ';'.  The digits are ASCII, with no sign."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    header = re.fullmatch(r"n *=\s*([0-9]+)", lines[0]) if lines else None
    if header is None:
        raise ValueError("matrix file must start with 'n=<digits>'")
    n = int(header[1])
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        cells = [cell.strip() for cell in ln.split(";")]
        if len(cells) != n:
            raise ValueError(f"expected {n} entries per row, found {len(cells)}")
        rows.append([parse(cell) for cell in cells])
    return PolyMatrix(rows)


def format_matrix(a: PolyMatrix) -> str:
    lines = [f"n={a.n}"]
    for row in a.rows:
        lines.append(" ; ".join(format_poly(e) for e in row))
    return "\n".join(lines) + "\n"
