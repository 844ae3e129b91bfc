"""Error types shared across the package."""


class SymhexError(Exception):
    """Base class for everything raised deliberately by this package."""


class DimensionMismatch(SymhexError):
    pass


class LengthMismatch(SymhexError):
    pass


class OddLength(SymhexError):
    pass


class RingMismatch(SymhexError):
    pass


class IdealMismatch(SymhexError):
    pass


class KOutOfRange(SymhexError):
    pass


class BudgetExceeded(SymhexError):
    pass


# The one work budget.  Every exponential site estimates the bytes it holds
# at its peak and the array elements it computes (keys, syndromes, candidate
# products) before it starts, and check_budget refuses either past its bound.
MAX_BYTES = 2**30
MAX_OPS = 2**30


def check_budget(site: str, nbytes: int, ops: int = 0) -> None:
    """Raise BudgetExceeded when a site's estimate passes MAX_BYTES or MAX_OPS."""
    if nbytes > MAX_BYTES or ops > MAX_OPS:
        raise BudgetExceeded(
            f"{site} needs about {nbytes:,} bytes and {ops:,} operations, "
            f"past the budget of {MAX_BYTES:,} bytes and {MAX_OPS:,} operations"
        )


class ParseError(SymhexError):
    pass


class VerificationFailed(SymhexError):
    pass
