"""Arithmetic in the two semi-local non-unital rings of order six.

Both rings are generated by elements a, b with 2a = 3b = 0 and ab = ba = 0;
they differ in which generator is idempotent:

    H23:  a*a = a,  b*b = 0
    H32:  a*a = 0,  b*b = b

Writing c = a+b, d = 2b, e = a+2b gives the six elements {0, a, b, c, d, e}.
Each ring splits additively as J_a + J_b with J_a = {0, a} and
J_b = {0, b, d}, so every element is uniquely a*x + b*y with x in F2 and
y in F3.  That (x, y) pair is the internal representation here; addition is
componentwise and multiplication kills the nilpotent side.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import IdealMismatch, RingMismatch


class RingId(enum.Enum):
    H23 = "H23"
    H32 = "H32"

    def __str__(self) -> str:
        return self.value


def check_ring(ring: RingId) -> None:
    """The guard of every ring argument: a ring named by a string is refused, not read as H32."""
    if not isinstance(ring, RingId):
        raise RingMismatch(f"ring must be a RingId, got {ring!r}")


@dataclass(frozen=True)
class RingElement:
    """One of the six ring elements, as its (F2, F3) component pair."""

    symbol: str
    x: int  # coefficient of a
    y: int  # coefficient of b

    def __repr__(self) -> str:
        return self.symbol


_PAIRS = {"0": (0, 0), "a": (1, 0), "b": (0, 1), "c": (1, 1), "d": (0, 2), "e": (1, 2)}

ELEMENTS = tuple(RingElement(s, x, y) for s, (x, y) in _PAIRS.items())
ZERO, A, B, C, D, E = ELEMENTS

_BY_PAIR = {(el.x, el.y): el for el in ELEMENTS}
_BY_SYMBOL = {el.symbol: el for el in ELEMENTS}

# the two ideals; J_a is a copy of F2, J_b a copy of F3
J_A = (ZERO, A)
J_B = (ZERO, B, D)


def from_symbol(s: str) -> RingElement:
    if s not in _BY_SYMBOL:
        raise ValueError(f"unknown ring element {s!r}")
    return _BY_SYMBOL[s]


def compose(x: int, y: int) -> RingElement:
    """The element a*x + b*y for x in F2, y in F3."""
    return _BY_PAIR[(x % 2, y % 3)]


def decompose(u: RingElement) -> tuple[int, int]:
    """Inverse of compose: the unique (x, y) with u = a*x + b*y."""
    return (u.x, u.y)


def add(u: RingElement, v: RingElement) -> RingElement:
    """Ring addition; the same for both rings."""
    return _BY_PAIR[((u.x + v.x) % 2, (u.y + v.y) % 3)]


def neg(u: RingElement) -> RingElement:
    return _BY_PAIR[(u.x, (-u.y) % 3)]


def mul(ring: RingId, u: RingElement, v: RingElement) -> RingElement:
    """Ring multiplication; the idempotent generator's side survives."""
    check_ring(ring)
    if ring is RingId.H23:
        return _BY_PAIR[((u.x * v.x) % 2, 0)]
    return _BY_PAIR[(0, (u.y * v.y) % 3)]


def scalar_act(p: int, s: int, u: RingElement) -> RingElement:
    """Scale u by the field scalar s, for u inside the matching ideal.

    p = 2 acts on J_a, p = 3 on J_b; anything else is a type error in the
    caller, reported as IdealMismatch.
    """
    if p == 2:
        if u.y != 0:
            raise IdealMismatch(f"{u!r} is not in J_a")
        return _BY_PAIR[((s * u.x) % 2, 0)]
    if p == 3:
        if u.x != 0:
            raise IdealMismatch(f"{u!r} is not in J_b")
        return _BY_PAIR[(0, (s * u.y) % 3)]
    raise ValueError(f"p must be 2 or 3, got {p}")


def addition_table() -> list[list[RingElement]]:
    return [[add(u, v) for v in ELEMENTS] for u in ELEMENTS]


def multiplication_table(ring: RingId) -> list[list[RingElement]]:
    return [[mul(ring, u, v) for v in ELEMENTS] for u in ELEMENTS]
