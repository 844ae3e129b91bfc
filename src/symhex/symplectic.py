"""Symplectic bilinear forms on F_p^(2m) and totally isotropic subspaces.

Vectors are split into two contiguous halves x = (x1 | x2).  The form is

    <x, y> = x1 . y2 - x2 . y1   (mod p)

which over F2 coincides with x1 . y2 + x2 . y1.  Its gram matrix is the
block matrix [[0, I], [-I, 0]].  The form is alternating, so every vector
pairs to zero with itself and one-dimensional subspaces are always
isotropic.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, KOutOfRange, OddLength, check_budget
from .gf import MAX_LENGTH, LinearCode, all_vectors, check_field, integers, rref, whole


class SymplecticSpace:
    """F_p^(2m) carrying the alternating block form; its gram is read-only.

    A length 2m above gf.MAX_LENGTH, where no LinearCode can live, raises
    BudgetExceeded before the gram is built; a p or m that is not an
    integer raises ValueError.
    """

    def __init__(self, p: int, m: int):
        p, (m,) = check_field(p), whole(m)
        if m < 0:
            raise ValueError(f"m must be >= 0, got {m}")
        if 2 * m > MAX_LENGTH:
            raise BudgetExceeded(f"length 2m = {2 * m} exceeds {MAX_LENGTH}")
        self.p = p
        self.m = m
        self.n = 2 * m
        eye = np.eye(m, dtype=np.int64)
        zero = np.zeros((m, m), dtype=np.int64)
        self.gram = np.block([[zero, eye], [(-eye) % p, zero]])
        self.gram.setflags(write=False)

    @classmethod
    @cache
    def for_length(cls, p: int, n: int) -> "SymplecticSpace":
        """The space of length n, one shared instance per (p, n)."""
        if n % 2:
            raise OddLength(f"symplectic length must be even, got {n}")
        return cls(p, n // 2)

    def inner(self, x, y) -> int:
        u, v = integers(x), integers(y)
        if u.shape != (self.n,) or v.shape != (self.n,):
            raise DimensionMismatch(f"vectors must have length {self.n}")
        return int(u @ self.gram @ v % self.p)

    def dual(self, code: LinearCode) -> LinearCode:
        self._check(code)
        return code.dual_wrt(self.gram)

    def is_self_orthogonal(self, code: LinearCode) -> bool:
        """True when the form vanishes on code x code (checked on generators)."""
        self._check(code)
        G = code.gen.astype(np.int64)
        return not ((G @ self.gram @ G.T) % self.p).any()

    def is_self_dual(self, code: LinearCode) -> bool:
        """The form is nondegenerate, so dim C^perp = n - k: C = C^perp iff C is
        self-orthogonal of dimension m."""
        self._check(code)
        return code.k == self.m and self.is_self_orthogonal(code)

    def is_lcd(self, code: LinearCode) -> bool:
        """True when the code meets its dual only in zero.

        Massey's criterion (Linear codes with complementary duals, Discrete
        Math. 106/107, 1992), whose proof holds for any nondegenerate form:
        C & C^perp = 0 iff the k x k matrix G gram G^T is nonsingular mod p.
        """
        self._check(code)
        G = code.gen.astype(np.int64)
        return rref(G @ self.gram @ G.T, self.p)[0].shape[0] == code.k

    def _check(self, code: LinearCode) -> None:
        if code.p != self.p or code.n != self.n:
            raise DimensionMismatch(
                f"code over F{code.p} of length {code.n} does not live in F{self.p}^{self.n}"
            )


# count_isotropic refuses counts of more decimal digits than this, below
# Python's 4,300-digit limit on int -> str conversion
COUNT_DIGITS = 4000


def count_isotropic(p: int, m: int, k: int) -> int:
    """Number of totally isotropic k-subspaces of F_p^(2m), exactly.

    prod_{i=0}^{k-1} (p^(2m-2i) - 1) / prod_{j=1}^{k} (p^j - 1), evaluated
    in exact integer arithmetic with the divisibility checked.  The count
    is about p^E with E = 2mk - k(3k-1)/2, so one that would take more than
    COUNT_DIGITS decimal digits raises BudgetExceeded before any product.
    A p, m or k that is not an integer raises ValueError.
    """
    p, m, k = whole(p, m, k)
    if not 0 <= k <= m:
        raise KOutOfRange(f"need 0 <= k <= m, got k={k}, m={m}")
    digits = (2 * m * k - k * (3 * k - 1) // 2) * np.log10(p)
    if digits > COUNT_DIGITS:
        raise BudgetExceeded(f"count has about {digits:.0f} digits, budget {COUNT_DIGITS}")
    num = 1
    for i in range(k):
        num *= p ** (2 * m - 2 * i) - 1
    den = 1
    for j in range(1, k + 1):
        den *= p**j - 1
    if num % den:
        raise ArithmeticError(f"count for (p, m, k) = {(p, m, k)} is not an integer")
    return num // den


def isotropic_subspaces(space: SymplecticSpace, k: int) -> list[LinearCode]:
    """All totally isotropic k-subspaces, each exactly once.

    One batched filter per RREF pivot profile.  The partial matrices are a
    (B, i, n) array; the candidates for row i are a 1 at its pivot with
    every vector of F_p^f in its f free columns (past the pivot, not pivots),
    and a pair (partial matrix, candidate) survives when the candidate
    pairs to zero with each earlier row.  The form is alternating, so a
    row always pairs to zero with itself.  Every RREF matrix is produced
    at most once, so no dedup pass is needed, and np.nonzero keeps the
    output order lexicographic: pivot profiles first, then free entries
    row by row.  k = 0 is the one empty profile.  Each profile's batch
    is already in RREF, so LinearCode.from_rref turns it into codes after
    one vectorized shape check, without reducing any leaf again: one int8
    copy of the batch, whose rows are the codes' generators and whose bytes
    are their keys.  Each code costs its LinearCode and its share of the
    batches and clash products, under 512 + 16kn bytes; the budget is
    checked on count_isotropic codes.
    """
    p, n, m = space.p, space.n, space.m
    check_budget("isotropic_subspaces", 4096 + count_isotropic(p, m, k) * (512 + 16 * k * n))

    out: list[LinearCode] = []
    for pivots in combinations(range(n), k):
        mats = np.zeros((1, 0, n), dtype=np.int64)
        for c in pivots:
            free = [f for f in range(c + 1, n) if f not in pivots]
            rows = np.zeros((p ** len(free), n), dtype=np.int64)
            rows[:, c] = 1
            rows[:, free] = all_vectors(p, len(free))
            clash = (mats @ space.gram @ rows.T % p).any(axis=1)
            b, r = np.nonzero(~clash)
            mats = np.concatenate([mats[b], rows[r, None]], axis=1)
        out += LinearCode.from_rref(p, mats, pivots)
    return out
