"""Exact linear algebra over the prime fields F2 and F3.

Everything is dense numpy with entries reduced mod p.  A LinearCode is a
row space held as its reduced row echelon form, which is unique per row
space, so code equality is literal array equality.
"""

from __future__ import annotations

import operator
from functools import cache, lru_cache
from itertools import repeat
from typing import Optional

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, check_budget

# the longest code length a LinearCode (and so a file header) may have
MAX_LENGTH = 1024


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form mod p; returns (R, pivot columns).

    Zero rows are dropped, pivots are 1, and pivot columns are cleared
    above and below.  R is read-only.
    """
    M = np.array(mat, dtype=np.int64) % p
    if M.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {M.shape}")
    rows, cols = M.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:  # every row has a pivot, including when there are none
            break
        nz = np.nonzero(M[r:, c])[0]
        if len(nz) == 0:
            continue
        pr = r + nz[0]
        if pr != r:
            M[[r, pr]] = M[[pr, r]]
        M[r] = (M[r] * pow(int(M[r, c]), -1, p)) % p
        for r2 in range(rows):
            if r2 != r and M[r2, c]:
                M[r2] = (M[r2] - M[r2, c] * M[r]) % p
        pivots.append(c)
        r += 1
    R = M[:r].astype(np.int8)
    R.flags.writeable = False
    return R, tuple(pivots)


def rref_kernel(R: np.ndarray, pivots: tuple[int, ...], p: int) -> np.ndarray:
    """A basis of {v : R @ v == 0 mod p} for R in RREF with these pivots, without rref.

    Row f of K = (I - R at its pivot rows)^T is, for free f, the kernel
    vector 1 at f and -R[r, f] at each pivot c_r < f, and 0 for pivot f.
    The diagonal of K is 1 exactly at the free columns, so it picks their
    rows, in column order: the basis, int8 over 0..p-1.
    """
    K = np.eye(R.shape[1], dtype=np.int8)
    K[list(pivots)] -= R
    return K.T.compress(K.diagonal(), axis=0) % p


def nullspace(mat: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Canonical basis of {v : mat @ v == 0 mod p}: (B, pivots) as rref gives them.

    One rref of mat with its columns reversed, and its rref_kernel.
    Reversed both ways, free f's row leads at n-1-f, where every other row
    is 0: the rows, last free column first, are already the RREF.
    """
    R, pivots = rref(np.asarray(mat)[..., ::-1], p)
    B = rref_kernel(R, pivots, p)[::-1, ::-1]
    B.flags.writeable = False
    n = R.shape[1]  # the leads are the columns n-1-c off the reversed pivots c
    return B, tuple(sorted(set(range(n)).difference(map((n - 1).__sub__, pivots))))


@lru_cache(maxsize=256)
def _rref_box(p: int, n: int, pivots: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Bounds lo <= M <= hi that hold exactly for the matrices over 0..p-1
    in RREF with these pivots.

    Row r is 1 at its pivot (lo = hi = 1), at most p-1 in its free entries
    (right of its pivot, off the pivot columns) and 0 everywhere else.
    Cached because duals and enumerations meet the same profiles again.
    Length n has 2^n profiles, so the cache holds every profile of both
    fields up to n = 7: a second sweep of isotropic_subspaces at n = 6,
    which meets 84, hits on each.
    """
    cols = np.arange(n)
    piv = np.array(pivots, dtype=np.intp)[:, None]
    lo = (cols == piv).astype(np.int8)
    hi = lo + np.int8(p - 1) * ((cols > piv) & ~lo.any(axis=0))
    lo.flags.writeable = hi.flags.writeable = False
    return lo, hi


def integers(values) -> np.ndarray:
    """values as an int64 array; ValueError when there are any and they are not bool or integer."""
    a = np.asarray(values)
    if a.dtype.kind not in "biu" and a.size:
        raise ValueError(f"entries must be integers, got {a.dtype} entries")
    return a.astype(np.int64, copy=False)


def whole(*values) -> tuple[int, ...]:
    """values as Python ints by operator.index; ValueError for one that is not an integer."""
    try:
        return tuple(map(operator.index, values))
    except TypeError as exc:
        raise ValueError(f"arguments must be integers, got {values!r}") from exc


def check_field(p) -> int:
    """p as the int 2 or 3; ValueError for anything else."""
    if (p := whole(p)[0]) not in (2, 3):
        raise ValueError(f"p must be 2 or 3, got {p}")
    return p


def _check_length(n) -> int:
    (n,) = whole(n)
    if n < 0:
        raise DimensionMismatch(f"length must be nonnegative, got {n}")
    if n > MAX_LENGTH:
        raise BudgetExceeded(f"length {n} exceeds {MAX_LENGTH}")
    return n


class LinearCode:
    """A linear code over F_p of length n, stored as its RREF generator.

    The zero code (k = 0) and the full space (k = n) are ordinary values.
    Instances are immutable and hashable; two codes compare equal exactly
    when they have the same row space, by the key (p, n, RREF bytes) that
    _fill computes once.  __init__ reduces its rows with rref; from_rref
    takes a batch already in RREF and only checks it.  A p other than 2 or
    3, or a p, n or entry that is not an integer, raises ValueError, a
    negative n DimensionMismatch and an n above MAX_LENGTH BudgetExceeded.
    """

    __slots__ = ("p", "n", "k", "gen", "pivots", "_key")

    def __init__(self, p: int, rows, n: Optional[int] = None):
        p = check_field(p)
        M = integers(rows)
        if n is None:
            if M.ndim != 2:
                raise DimensionMismatch(f"generator rows need an explicit n, got shape {M.shape}")
            n = M.shape[1]
        n = _check_length(n)
        if M.size == 0:
            M = M.reshape(0, n)
        if M.ndim != 2 or M.shape[1] != n:
            raise DimensionMismatch(f"rows have shape {M.shape}, expected length {n}")
        R, pivots = rref(M, p)
        _fill((self,), p, R[None], pivots)

    @classmethod
    def from_rref(cls, p: int, mats, pivots: tuple[int, ...]) -> list["LinearCode"]:
        """The codes of a batch (B, k, n) of matrices already in RREF, without rref.

        Every matrix must have the pivot columns `pivots` (strictly
        increasing): those columns hold the k x k identity, every entry left
        of a row's pivot is zero, and all entries lie in 0..p-1.  That is
        one elementwise test of the whole batch against the bounds of
        _rref_box; the first matrix that fails is the witness of the
        ValueError.  The batch is then one read-only int8 array: each code's
        gen is a view of it and its key a slice of its one tobytes() buffer.
        """
        p = check_field(p)
        mats = integers(mats)  # no copy of an int64 batch
        if mats.ndim != 3:
            raise DimensionMismatch(f"expected a batch (B, k, n), got shape {mats.shape}")
        _, k, n = mats.shape
        _check_length(n)
        pivots = tuple(integers(pivots).tolist())
        if len(pivots) != k or not all(a < b for a, b in zip((-1, *pivots), (*pivots, n))):
            raise ValueError(f"pivots {pivots} do not fit {k} rows of length {n}")
        lo, hi = _rref_box(p, n, pivots)
        outside = (mats < lo) | (mats > hi)
        if outside.any():
            first = mats[outside.any(axis=(1, 2)).argmax()].tolist()
            raise ValueError(f"not in RREF with pivots {pivots}: {first}")
        R = mats.astype(np.int8)
        R.flags.writeable = False
        codes = list(map(object.__new__, repeat(cls, len(R))))
        _fill(codes, p, R, pivots)
        return codes

    def __setattr__(self, name, value):
        raise AttributeError("LinearCode is immutable")

    @classmethod
    def zero(cls, p: int, n: int) -> "LinearCode":
        return cls(p, [], n=n)

    @classmethod
    @cache
    def full(cls, p: int, n: int) -> "LinearCode":
        """F_p^n, row-reduced once per (p, n); codes are immutable, so callers share it."""
        n = _check_length(n)  # before the n x n identity is built
        return cls(p, np.eye(n, dtype=np.int64), n=n)

    @property
    def size(self) -> int:
        return self.p**self.k

    def is_zero(self) -> bool:
        return self.k == 0

    def is_full(self) -> bool:
        return self.k == self.n

    def contains(self, v) -> bool:
        """Membership by reduction against the pivot structure."""
        w = integers(v) % self.p
        if w.shape != (self.n,):
            raise DimensionMismatch(f"vector length {w.shape}, expected {self.n}")
        for r, c in enumerate(self.pivots):
            if w[c]:
                w = (w - w[c] * self.gen[r]) % self.p
        return not w.any()

    def __contains__(self, v) -> bool:
        return self.contains(v)

    def codewords(self) -> np.ndarray:
        """All p**k codewords, message vectors in lexicographic order.

        The int64 messages and product, the product's residues and the int8
        result: at most 8k + 17n bytes a codeword.  The full space's RREF
        generator is the identity, so its codewords are a writeable copy of
        all_vectors(p, n): the same rows in the same order, with no product.
        """
        check_budget("codewords", self.size * (8 * self.k + 17 * self.n), self.size * self.n)
        if self.k == self.n:
            return all_vectors(self.p, self.n).copy()
        msgs = all_vectors(self.p, self.k)
        return ((msgs.astype(np.int64) @ self.gen.astype(np.int64)) % self.p).astype(np.int8)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        rows = ",".join("".join(str(int(x)) for x in row) for row in self.gen)
        return f"LinearCode(p={self.p}, n={self.n}, k={self.k}, [{rows}])"


# each slot's own descriptor, which writes past LinearCode.__setattr__
_SETTERS = tuple(getattr(LinearCode, slot).__set__ for slot in LinearCode.__slots__)


def _fill(codes, p: int, R: np.ndarray, pivots: tuple[int, ...]) -> None:
    """Fill the slots of fresh codes from a read-only int8 batch R (B, k, n) in RREF."""
    set_p, set_n, set_k, set_gen, set_pivots, set_key = _SETTERS
    _, k, n = R.shape
    buf, size = R.tobytes(), k * n
    for i, (code, gen) in enumerate(zip(codes, R)):
        set_p(code, p)
        set_n(code, n)
        set_k(code, k)
        set_gen(code, gen)
        set_pivots(code, pivots)
        # n is in the key: the RREF bytes alone are empty for every zero code
        set_key(code, (p, n, buf[i * size : (i + 1) * size]))


@cache
def places(p: int, n: int) -> np.ndarray:
    """The base-p place values p^(n-1), ..., p, 1 as read-only int64.

    v @ places(p, n) reads a digit row v as its base-p value; row i of
    all_vectors(p, n) is the vector whose value is i.
    """
    out = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
    out.flags.writeable = False
    return out


@cache
def all_vectors(p: int, n: int) -> np.ndarray:
    """All p**n vectors of F_p^n in lexicographic order, one per row.

    Row i holds the base-p digits of i.  Cached per (p, n) and read-only,
    like perms.perm_table: callers copy (astype) before any arithmetic.
    The int64 indices, quotients and digits and the int8 result take
    8 + 17n bytes a row; the budget check raises before anything is cached.
    """
    check_budget("all_vectors", p**n * (8 + 17 * n), p**n * n)
    out = (np.arange(p**n)[:, None] // places(p, n) % p).astype(np.int8)
    out.flags.writeable = False
    return out


def random_code(p: int, n: int, rng: np.random.Generator, k: Optional[int] = None) -> LinearCode:
    """A random code: k uniform in 0..n unless given, then k random rows."""
    if k is None:
        k = int(rng.integers(0, n + 1))
    return LinearCode(p, rng.integers(0, p, size=(k, n)), n=n)
