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
from itertools import combinations, product

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, KOutOfRange, OddLength
from .gf import LinearCode, rref


class SymplecticSpace:
    """F_p^(2m) carrying the alternating block form; its gram is read-only."""

    def __init__(self, p: int, m: int):
        if p not in (2, 3):
            raise ValueError(f"p must be 2 or 3, got {p}")
        if m < 0:
            raise ValueError(f"m must be >= 0, got {m}")
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
        u = np.asarray(x, dtype=np.int64)
        v = np.asarray(y, dtype=np.int64)
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


def count_isotropic(p: int, m: int, k: int) -> int:
    """Number of totally isotropic k-subspaces of F_p^(2m), exactly.

    prod_{i=0}^{k-1} (p^(2m-2i) - 1) / prod_{j=1}^{k} (p^j - 1), evaluated
    in exact integer arithmetic with the divisibility asserted.
    """
    if not 0 <= k <= m:
        raise KOutOfRange(f"need 0 <= k <= m, got k={k}, m={m}")
    num = 1
    for i in range(k):
        num *= p ** (2 * m - 2 * i) - 1
    den = 1
    for j in range(1, k + 1):
        den *= p**j - 1
    assert num % den == 0, (p, m, k)
    return num // den


# enumeration guards: the profile search is exponential in free entries
_MAX_N = {2: 8, 3: 6}


def isotropic_subspaces(space: SymplecticSpace, k: int) -> list[LinearCode]:
    """All totally isotropic k-subspaces, each exactly once.

    Walks RREF pivot profiles and fills free entries row by row, pruning a
    branch as soon as a new row fails to pair to zero with an earlier one.
    Every RREF matrix is produced at most once, so no dedup pass is needed,
    and the output order is deterministic: pivot profiles lexicographically,
    free entries lexicographically within a profile.
    """
    p, n, m = space.p, space.n, space.m
    if not 0 <= k <= m:
        raise KOutOfRange(f"need 0 <= k <= m, got k={k}, m={m}")
    if n > _MAX_N[p]:
        raise BudgetExceeded(f"n={n} beyond enumeration guard for p={p}")
    if k == 0:
        return [LinearCode.zero(p, n)]

    gram = space.gram
    out: list[LinearCode] = []

    for pivots in combinations(range(n), k):
        # free positions of row i: columns past its pivot that are not pivots
        free = [
            [c for c in range(pivots[i] + 1, n) if c not in pivots]
            for i in range(k)
        ]
        rows = np.zeros((k, n), dtype=np.int64)

        def fill(i: int) -> None:
            if i == k:
                code = LinearCode(p, rows.copy(), n=n)
                assert code.pivots == pivots
                out.append(code)
                return
            row = rows[i]
            for vals in product(range(p), repeat=len(free[i])):
                row[:] = 0
                row[pivots[i]] = 1
                for c, v in zip(free[i], vals):
                    row[c] = v
                # alternating form makes <row, row> = 0 automatic
                gr = gram @ row
                if any((rows[j] @ gr) % p for j in range(i)):
                    continue
                fill(i + 1)
            row[:] = 0

        fill(0)

    return out
