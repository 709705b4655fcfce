"""Exception types shared across the package, and the size check that
raises one."""


class DivisionByZero(ZeroDivisionError):
    """Division by the zero polynomial or zero rational function."""


class InexactDivision(ArithmeticError):
    """No polynomial quotient exists for the requested exact division."""


class NegativeExponentAtZero(ZeroDivisionError):
    """Substituting 0 for a variable that occurs with a negative exponent."""


class ParseError(ValueError):
    """Malformed polynomial text; carries the message without the position
    and the offending position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.message = message
        self.pos = pos

    def __reduce__(self):
        return type(self), (self.message, self.pos)


class SizeMismatch(ValueError):
    """Operands live in symmetric groups of different degree."""


class BoundExceeded(ValueError):
    """Requested size is above the configured bound for this operation."""


class NotTransitive(ValueError):
    """Tournament contains a 3-cycle where a transitive one is required."""


class ZeroMinor(ArithmeticError):
    """A connected minor needed as a condensation divisor is zero; ``row``
    and ``col`` are its 0-based corner (the message counts from 1)."""

    def __init__(self, row, col, size):
        super().__init__(
            f"zero minor at rows {row + 1}..{row + size}, "
            f"columns {col + 1}..{col + size}"
        )
        self.row = row
        self.col = col
        self.size = size

    def __reduce__(self):
        return type(self), (self.row, self.col, self.size)


def check_size(n: int, bound: int | None = None, what: str = "") -> None:
    """The one size rule: ValueError when n is negative, as no permutation
    or tournament has a negative size, and BoundExceeded("<what> above
    bound <bound>") when a bound is given and n is above it."""
    if n < 0:
        raise ValueError(f"size must be nonnegative, got {n}")
    if bound is not None and n > bound:
        raise BoundExceeded(f"{what} above bound {bound}")
