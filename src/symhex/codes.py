"""Linear codes over the order-six rings, as binary/ternary component pairs.

Every linear code C over H_z decomposes uniquely as a*C_a + b*C_b with C_a
a binary and C_b a ternary linear code of the same even length, so a code
is stored as that pair and its word set {a*u + b*v} is derived on demand.
The symplectic form on H_z^n restricts through the decomposition to one
side: the component the ring's idempotent keeps.  That is the *governing*
component (C_a over H23, C_b over H32); the other is the *free* component,
which the form never sees.  ``sides`` is the one place that choice is
made, for any pair; ``split`` and ``join`` apply it to a code.  The dual,
self-orthogonality, self-duality, quasi-self-duality, niceness, and
LCD-ness all reduce to a symplectic condition on the governing component
and a size condition on the free one; brute-force word-level twins of
each, written per ring without ``sides``, are kept alongside as oracles.
Word sets are held as integer word codes: a*u + b*v is the int64 u*3^n + v
(u read in base 2, v in base 3), exact for n <= MAX_WORD_CODE_N.
``word_set`` and ``dual_bruteforce`` return a WordSet, an immutable set of
HzWords backed by the sorted array of those codes.  Its budgeted iteration
is the one decode into HzWords (enumerate_words lists it), and membership
encodes as word_set does; the twins compare WordSets, so their set tests
are array comparisons.  Each HzCode computes its word set and its oracle
dual once, on first use, and holds them while it lives, so the five twins
and the oracle dual share one evaluation.
Each evaluation states its words and candidate products to
errors.check_budget before it builds them.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Optional

import numpy as np

from . import ring as rg
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    LengthMismatch,
    OddLength,
    RingMismatch,
    check_budget,
)
from .gf import LinearCode, all_vectors, integers, places
from .perms import Permutation, first_carrying
from .ring import RingElement, RingId
from .symplectic import SymplecticSpace

# word codes run up to 6^n - 1, which int64 holds for n <= 24 (6^25 > 2^63)
MAX_WORD_CODE_N = 24


@dataclass(frozen=True)
class HzWord:
    """A word of H_z^n, held as the byte strings of its two component rows."""

    ring: RingId
    xs: bytes
    ys: bytes

    @classmethod
    def from_symbols(cls, ring: RingId, symbols: str) -> "HzWord":
        els = [rg.from_symbol(s) for s in symbols]
        return cls(ring, bytes(e.x for e in els), bytes(e.y for e in els))

    def __post_init__(self):
        rg.check_ring(self.ring)
        if len(self.xs) != len(self.ys):
            raise LengthMismatch(f"component rows differ: {len(self.xs)} vs {len(self.ys)}")
        if max(self.xs, default=0) > 1 or max(self.ys, default=0) > 2:
            raise ValueError(f"entries must lie in F2 and F3: xs={self.xs!r}, ys={self.ys!r}")

    @property
    def n(self) -> int:
        return len(self.xs)

    def parts(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.frombuffer(self.xs, dtype=np.int8).astype(np.int64),
            np.frombuffer(self.ys, dtype=np.int8).astype(np.int64),
        )

    def elements(self) -> tuple[RingElement, ...]:
        return tuple(rg.compose(x, y) for x, y in zip(self.xs, self.ys))

    def __str__(self) -> str:
        return "".join(e.symbol for e in self.elements())

    def __repr__(self) -> str:
        return f"HzWord({self.ring}, {self})"


@dataclass(frozen=True)
class HzCode:
    """A linear code over H23 or H32 as its (binary, ternary) component pair."""

    ring: RingId
    ca: LinearCode
    cb: LinearCode

    def __post_init__(self):
        rg.check_ring(self.ring)
        if self.ca.p != 2 or self.cb.p != 3:
            raise DimensionMismatch("components must be (F2 code, F3 code)")
        if self.ca.n != self.cb.n:
            raise LengthMismatch(f"component lengths differ: {self.ca.n} vs {self.cb.n}")
        if self.ca.n == 0:
            raise LengthMismatch("length must be positive")
        if self.ca.n % 2:
            raise OddLength(f"length must be even, got {self.ca.n}")

    @property
    def n(self) -> int:
        return self.ca.n

    @property
    def m(self) -> int:
        return self.ca.n // 2

    @property
    def size(self) -> int:
        return 2**self.ca.k * 3**self.cb.k

    def __repr__(self) -> str:
        return f"HzCode({self.ring}, ca={self.ca!r}, cb={self.cb!r})"

    # The word-level oracles' sets, built on first use and held in the
    # instance __dict__; eq and hash read only the fields.
    @cached_property
    def _word_set(self) -> "WordSet":
        return WordSet(self.ring, self.n, _word_codes(self))

    @cached_property
    def _dual_bruteforce(self) -> "WordSet":
        return WordSet(self.ring, self.n, _dual_codes(self))


def build(ring: RingId, ca: LinearCode, cb: LinearCode) -> HzCode:
    return HzCode(ring, ca, cb)


def _rows(mat: np.ndarray) -> list[bytes]:
    """The rows of a matrix as int8 byte strings, sliced from one buffer."""
    n = mat.shape[1]
    buf = mat.astype(np.int8).tobytes()
    return [buf[i : i + n] for i in range(0, len(buf), n)]


def _check_word_code_length(n: int) -> None:
    if n > MAX_WORD_CODE_N:
        raise BudgetExceeded(
            f"length {n} exceeds {MAX_WORD_CODE_N}: word codes up to 6^n overflow int64"
        )


def _outer_codes(us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """The int64 code u*3^n + v of every word a*u + b*v, u outer and v inner.

    u is read in base 2 and v in base 3, so the code is a bijection from
    H_z^n onto 0..6^n - 1 for n <= MAX_WORD_CODE_N, which callers check.
    """
    n = us.shape[1]
    ui = us.astype(np.int64) @ places(2, n)
    vi = vs.astype(np.int64) @ places(3, n)
    return (ui[:, None] * 3**n + vi[None, :]).ravel()


def _word_codes(code: HzCode) -> np.ndarray:
    """The integer codes of every word of the code, in ascending order."""
    _check_word_code_length(code.n)
    # 24 bytes a word: its int64 code, WordSet's copy and its ascent (or duplicate) test
    check_budget("word_set", code.size * 24, code.size)
    return _outer_codes(code.ca.codewords(), code.cb.codewords())


def enumerate_words(code: HzCode) -> list[HzWord]:
    """All 2^ka * 3^kb words a*u + b*v, u outer and v inner, message-lex:
    the word set's decode, as RREF codewords ascend in message order."""
    return list(word_set(code))


class WordSet(Set):
    """An immutable set of words of H_z^n, held as their sorted word codes.

    codes is a read-only int64 array of distinct codes u*3^n + v in
    ascending order, so n is at most MAX_WORD_CODE_N.  Iteration decodes
    HzWords in that order, once its estimate is within budget, and so do
    hash and the generic Set methods, which apply against any other set of
    HzWords; hash agrees with frozenset.  Two WordSets compare by their
    arrays.  The constructor copies its codes; when they already ascend
    strictly, as _outer_codes of RREF codewords do, one comparison checks
    them, and only other input is sorted and tested for repeats.  Codes
    that are not integers (gf.integers), repeat or lie outside 0..6^n - 1
    raise ValueError.
    """

    __slots__ = ("ring", "n", "codes")

    def __init__(self, ring: RingId, n: int, codes):
        rg.check_ring(ring)
        _check_word_code_length(n)
        arr = integers(codes).copy()  # never freeze or alias the caller's array
        if arr.ndim != 1:
            raise ValueError("word codes must be a flat array without duplicates")
        if not (arr[1:] > arr[:-1]).all():  # strict ascent: sorted and distinct
            arr.sort()
            if (arr[1:] == arr[:-1]).any():
                raise ValueError("word codes must be a flat array without duplicates")
        if len(arr) and (arr[0] < 0 or int(arr[-1]) >= 6**n):
            raise ValueError(f"word codes must lie in 0..6^{n} - 1")
        arr.flags.writeable = False
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "codes", arr)

    def __setattr__(self, name, value):
        raise AttributeError("WordSet is immutable")

    @classmethod
    def _from_iterable(cls, it):
        # the results of &, |, - and ^ are plain frozensets of HzWords
        return frozenset(it)

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self):
        n, size = self.n, len(self)
        # per word: its HzWord (96 bytes), its two row bytes (40 + n each), a
        # list slot for each of the three, and its int64 digit rows (16n);
        # 4 KB for the place tables and the arrays' headers
        check_budget("enumerate_words", 4096 + size * (200 + 18 * n), size * n)
        us, vs = np.divmod(self.codes, 3**n)
        xs = _rows(us[:, None] // places(2, n) % 2)
        ys = _rows(vs[:, None] // places(3, n) % 3)
        return (HzWord(self.ring, x, y) for x, y in zip(xs, ys))

    def __contains__(self, word) -> bool:
        if not isinstance(word, HzWord) or word.ring is not self.ring or word.n != self.n:
            return False
        (c,) = _outer_codes(*(part[None] for part in word.parts()))
        i = np.searchsorted(self.codes, c)
        return bool(i < len(self) and self.codes[i] == c)

    def _same_space(self, other: "WordSet") -> bool:
        return self.ring is other.ring and self.n == other.n

    def __eq__(self, other) -> bool:
        if isinstance(other, WordSet):
            if not self._same_space(other):
                return len(self) == len(other) == 0
            return bool(np.array_equal(self.codes, other.codes))
        return Set.__eq__(self, other)

    def __le__(self, other) -> bool:
        if isinstance(other, WordSet):
            if not self._same_space(other):
                return len(self) == 0
            # both arrays ascend, so each code must sit where searchsorted puts it
            i = np.searchsorted(other.codes, self.codes)
            return bool((i < len(other)).all()) and np.array_equal(other.codes[i], self.codes)
        return Set.__le__(self, other)

    __hash__ = Set._hash

    def __repr__(self) -> str:
        return f"WordSet({self.ring}, n={self.n}, {len(self)} words)"


def word_set(code: HzCode) -> WordSet:
    return code._word_set


def sides(ring: RingId, a, b) -> tuple:
    """(governing, free) of a (C_a side, C_b side) pair: codes, lists, indices or orbits.

    The governing side is the one the ring's idempotent keeps, C_a over H23
    and C_b over H32; the free side is the other one.  The swap is its own
    inverse, so it also lays a (governing, free) pair back out as (C_a, C_b).
    """
    return (a, b) if ring is RingId.H23 else (b, a)


def split(code: HzCode) -> tuple[LinearCode, LinearCode]:
    """(governing, free): the component the symplectic form sees, then the other."""
    return sides(code.ring, code.ca, code.cb)


def join(ring: RingId, governing: LinearCode, free: LinearCode) -> HzCode:
    """The inverse of split: the code over ring with these two components."""
    return HzCode(ring, *sides(ring, governing, free))


def _check_same_space(a: HzWord | HzCode, b: HzWord | HzCode) -> None:
    """The ring and length guard of the inner products and of equivalent.

    Words and codes refuse a ring that is not a RingId when they are built.
    """
    if a.ring is not b.ring:
        raise RingMismatch(f"{a.ring} vs {b.ring}")
    if a.n != b.n:
        raise LengthMismatch(f"lengths differ: {a.n} vs {b.n}")


def symplectic_inner(w1: HzWord, w2: HzWord) -> RingElement:
    """<w1, w2> in the ring: a * <x1, x2>_F2 over H23, b * <y1, y2>_F3 over H32."""
    _check_same_space(w1, w2)
    x1, y1 = w1.parts()
    x2, y2 = w2.parts()
    if w1.ring is RingId.H23:
        return rg.compose(SymplecticSpace.for_length(2, w1.n).inner(x1, x2), 0)
    return rg.compose(0, SymplecticSpace.for_length(3, w1.n).inner(y1, y2))


def euclidean_inner(w1: HzWord, w2: HzWord) -> RingElement:
    """Coordinatewise ring products, summed in the ring."""
    _check_same_space(w1, w2)
    prods = [
        rg.mul(w1.ring, e1, e2) for e1, e2 in zip(w1.elements(), w2.elements())
    ]
    return reduce(rg.add, prods, rg.ZERO)


def dual(code: HzCode) -> HzCode:
    """The symplectic dual: dualize the governing component, free the other.

    Applying dual twice is the identity exactly when the free component is
    already the full space.
    """
    g, f = split(code)
    space = SymplecticSpace.for_length(g.p, code.n)
    return join(code.ring, space.dual(g), LinearCode.full(f.p, code.n))


def _orthogonal_rows(side: LinearCode) -> np.ndarray:
    """Every vector of F_p^n that pairs to zero with every codeword of side.

    Per candidate it holds the int64 row, its image under the gram and the
    kept copy (8n bytes each), and its int64 products with every codeword
    and their residues (16 bytes a codeword).
    """
    p, n = side.p, side.n
    check_budget("dual_bruteforce", p**n * (24 * n + 16 * side.size), p**n * side.size)
    cand = all_vectors(p, n).astype(np.int64)
    gram = SymplecticSpace.for_length(p, n).gram
    prod = (cand @ gram @ side.codewords().astype(np.int64).T) % p
    return cand[~prod.any(axis=1)]


def _dual_codes(code: HzCode) -> np.ndarray:
    """The integer codes of every word of H_z^n orthogonal to every codeword.

    Evaluates the definition directly.  The inner product only sees one
    component pair, so candidates factor: a component row passes when it
    pairs to zero with every codeword row of the same side, and the other
    side is unconstrained.
    """
    n = code.n
    check_budget("dual_bruteforce", 6**n * 24, 6**n)  # at most 6^n word codes, as in word_set
    if code.ring is RingId.H23:
        return _outer_codes(_orthogonal_rows(code.ca), all_vectors(3, n))
    return _outer_codes(all_vectors(2, n), _orthogonal_rows(code.cb))


def dual_bruteforce(code: HzCode) -> WordSet:
    """Oracle dual: every word of H_z^n orthogonal to every codeword."""
    return code._dual_bruteforce


# ---------------------------------------------------------------------------
# predicates, via the component characterizations


def is_self_orthogonal(code: HzCode) -> bool:
    g, _ = split(code)
    return SymplecticSpace.for_length(g.p, code.n).is_self_orthogonal(g)


def is_self_dual(code: HzCode) -> bool:
    g, f = split(code)
    return f.is_full() and SymplecticSpace.for_length(g.p, code.n).is_self_dual(g)


def is_qsd(code: HzCode) -> bool:
    """Quasi-self-dual: self-orthogonal of the middle size 6^m."""
    g, f = split(code)
    return f.k == code.m and SymplecticSpace.for_length(g.p, code.n).is_self_dual(g)


def is_nice(code: HzCode) -> bool:
    """|C| * |dual C| = 36^m; holds exactly when the free component is zero."""
    return split(code)[1].is_zero()


def is_lcd(code: HzCode) -> bool:
    g, f = split(code)
    return f.is_zero() and SymplecticSpace.for_length(g.p, code.n).is_lcd(g)


def flags(code: HzCode) -> dict[str, bool]:
    return {
        "so": is_self_orthogonal(code),
        "sd": is_self_dual(code),
        "qsd": is_qsd(code),
        "nice": is_nice(code),
        "lcd": is_lcd(code),
    }


# ---------------------------------------------------------------------------
# the same predicates straight from the definitions, by word enumeration


def is_self_orthogonal_bruteforce(code: HzCode) -> bool:
    return word_set(code) <= dual_bruteforce(code)


def is_self_dual_bruteforce(code: HzCode) -> bool:
    return word_set(code) == dual_bruteforce(code)


def is_qsd_bruteforce(code: HzCode) -> bool:
    return code.size == 6**code.m and is_self_orthogonal_bruteforce(code)


def is_nice_bruteforce(code: HzCode) -> bool:
    return code.size * len(code._dual_bruteforce) == 36**code.m


def is_lcd_bruteforce(code: HzCode) -> bool:
    """The code meets its dual exactly in the zero word, whose code is 0."""
    both = np.intersect1d(code._word_set.codes, code._dual_bruteforce.codes, assume_unique=True)
    return both.tolist() == [0]


def is_euclidean_self_orthogonal(code: HzCode) -> bool:
    """Whether every Euclidean inner product of two codewords vanishes.

    The ring product keeps only the idempotent's side, so the Euclidean
    form is the field's dot product on the governing component: the test
    is G G^T = 0 mod p for its generator matrix G.  It exposes codes that
    are symplectically but not Euclideanly self-orthogonal.
    """
    g, _ = split(code)
    G = g.gen.astype(np.int64)
    return not ((G @ G.T) % g.p).any()


# ---------------------------------------------------------------------------
# permutation equivalence


def equivalent(c1: HzCode, c2: HzCode) -> Optional[Permutation]:
    """The lex-first permutation carrying c1 onto c2 componentwise, or None:
    a word-key scan (perms.first_carrying), never automorphism_group's parity product."""
    _check_same_space(c1, c2)
    return first_carrying((c1.ca, c1.cb), (c2.ca, c2.cb))
