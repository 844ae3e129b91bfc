"""Reference implementations the suites check the library against.

Each one shares no algorithm with the code it checks: mulclose closes a
generator set element by element, where PermGroup closes rank maps;
all_permutations and unrank_images list S_n by itertools and by factorial
digits, where perm_table stacks shifted blocks and ranks counts
inversions; ref_nullspace reduces mat as given and then its kernel basis
again, where nullspace reduces the column-reversed matrix once and writes
the basis down in RREF; intersect_dim measures C & D by the dimension of
C + D, where SymplecticSpace.is_lcd uses Massey's rank test;
ref_is_euclidean_self_orthogonal sums ring products over every pair of
words, where codes.is_euclidean_self_orthogonal reads one component's
Gram matrix; ref_inequivalent_reps and ref_list_owners put each kept
code's whole S_n orbit into a dict of keys, where classify's dedup keeps
only the inputs' keys and searches them.
"""

from __future__ import annotations

from itertools import permutations as _lex_perms
from math import factorial

import numpy as np

from symhex.codes import HzCode, enumerate_words, euclidean_inner
from symhex.errors import DimensionMismatch
from symhex.gf import LinearCode, rref
from symhex.perms import Permutation, orbit_keys, word_keys
from symhex.ring import ZERO


def all_permutations(n: int):
    """S_n in lexicographic order (which is Lehmer rank order)."""
    for images in _lex_perms(range(n)):
        yield Permutation(images)


def unrank_images(n: int, r: int) -> tuple[int, ...]:
    if not 0 <= r < factorial(n):
        raise ValueError(f"rank {r} out of range for n={n}")
    pool = list(range(n))
    out = []
    for i in range(n):
        f = factorial(n - 1 - i)
        q, r = divmod(r, f)
        out.append(pool.pop(q))
    return tuple(out)


def mulclose(gens: list[Permutation], seed: list[Permutation] | None = None) -> set[Permutation]:
    """Closure of seed (default the identity) under the generators."""
    if not gens and not seed:
        raise ValueError("need at least one generator or seed element")
    n = gens[0].n if gens else seed[0].n
    found = {Permutation(tuple(range(n)))} if seed is None else set(seed)
    frontier = list(found)
    while frontier:
        nxt = []
        for s in frontier:
            for g in gens:
                t = g * s
                if t not in found:
                    found.add(t)
                    nxt.append(t)
        frontier = nxt
    return found


def ref_nullspace(mat: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The kernel basis one free column per row, then reduced again by rref."""
    M = np.asarray(mat)
    cols = M.shape[1]
    R, pivots = rref(M, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for r, pc in enumerate(pivots):
            basis[i, pc] = (-R[r, fc]) % p
    return rref(basis, p)


def span_union(a: LinearCode, b: LinearCode) -> LinearCode:
    """The sum a + b as row spaces."""
    if a.p != b.p or a.n != b.n:
        raise DimensionMismatch("codes live in different spaces")
    return LinearCode(a.p, np.vstack([a.gen, b.gen]), n=a.n)


def intersect_dim(a: LinearCode, b: LinearCode) -> int:
    """dim(a & b) via dim a + dim b - dim(a + b)."""
    return a.k + b.k - span_union(a, b).k


def ref_is_euclidean_self_orthogonal(code: HzCode) -> bool:
    """Word-by-word check that all Euclidean inner products vanish."""
    words = enumerate_words(code)
    return all(
        euclidean_inner(w1, w2) is ZERO for w1 in words for w2 in words
    )


def _claim(owner: dict[bytes, int], i: int, codes: tuple[LinearCode, ...]) -> int:
    """The index owning the codes' word key, each code's own word_keys row side by side;
    when none owns it, i claims their S_n orbit."""
    o = owner.setdefault(b"".join(word_keys([c]).tobytes() for c in codes), i)
    if o == i:
        for _, keys in orbit_keys(codes):
            owner.update(dict.fromkeys(map(bytes, keys), i))
    return o


def ref_inequivalent_reps(codes: list[LinearCode]) -> list[LinearCode]:
    """Greedy dedup up to coordinate permutation: keep each code outside the kept orbits."""
    owner: dict[bytes, int] = {}
    return [c for i, c in enumerate(codes) if _claim(owner, i, (c,)) == i]


def ref_list_owners(codes: list[LinearCode]) -> list[int]:
    """Per entry, the index that owned its key when the greedy pass reached it."""
    owner: dict[bytes, int] = {}
    return [_claim(owner, j, (c,)) for j, c in enumerate(codes)]
