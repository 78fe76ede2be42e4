"""Exception types shared across the package, and the enumeration budget check."""

from math import comb, inf, lgamma, log


class RangeError(ValueError):
    """A residue, layer index or cardinality is outside its legal range."""


class CapacityError(RuntimeError):
    """An exact computation would exceed the configured search budget."""

    def __init__(self, message: str, space_size: int | None = None):
        super().__init__(message)
        self.space_size = space_size


def comb_within_budget(total: int, chosen: int, budget: int, what: str) -> int:
    """comb(total, chosen), the size of an enumeration space, if it is at most budget.

    Otherwise raises CapacityError, whose space_size is the exact count when
    it fits in 64 bits and None above.  An lgamma estimate comes first, so
    the exact count is only built when it is within a bit of 2^64 or of the
    budget, never as a number of thousands of digits.
    """
    try:
        bits = (lgamma(total + 1) - lgamma(chosen + 1) - lgamma(total - chosen + 1)) / log(2)
    except OverflowError:  # total beyond float range
        bits = inf
    space = None
    if bits <= max(budget.bit_length(), 64) + 1:
        space = comb(total, chosen)
        if space <= budget:
            return space
        if space >> 64:
            space = None
    count = "more than 2^64" if space is None else str(space)
    raise CapacityError(f"{count} {what} exceed the budget of {budget}", space_size=space)


class InapplicableCompressionError(ValueError):
    """A compression was requested at a site where its hypothesis fails."""
