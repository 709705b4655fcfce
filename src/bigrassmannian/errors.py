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


class SizeMismatch(ValueError):
    """Operands live in symmetric groups of different degree."""


class BoundExceeded(ValueError):
    """Requested size is above the configured bound for this operation."""


class NotTransitive(ValueError):
    """Tournament contains a 3-cycle where a transitive one is required."""


class ZeroMinor(ArithmeticError):
    """A connected minor needed as a condensation divisor is zero."""

    def __init__(self, row, col, size):
        super().__init__(
            f"zero minor at rows {row + 1}..{row + size}, "
            f"columns {col + 1}..{col + size}"
        )
        self.row = row
        self.col = col
        self.size = size


def check_size(n: int) -> None:
    """Raise ValueError when n is negative: no permutation or tournament
    has a negative size, so none stands in for one."""
    if n < 0:
        raise ValueError(f"size must be nonnegative, got {n}")
