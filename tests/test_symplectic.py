"""Symplectic forms, duals, and isotropic subspace counts."""

from __future__ import annotations

import hashlib
from itertools import combinations, product

import numpy as np
import pytest

import symhex.gf
from symhex.codes import build, dual, dual_bruteforce, join, split, word_set
from symhex.errors import BudgetExceeded, DimensionMismatch, KOutOfRange, OddLength
from symhex.gf import MAX_LENGTH, LinearCode, all_vectors, nullspace, random_code
from symhex.ring import RingId
from symhex.symplectic import (
    COUNT_DIGITS,
    SymplecticSpace,
    count_isotropic,
    isotropic_subspaces,
)

from oracles import intersect_dim, ref_nullspace


def all_subspaces(p, n, k):
    """Filter method: row spaces of every k x n matrix, deduplicated."""
    out = set()
    for entries in product(range(p), repeat=k * n):
        M = np.array(entries, dtype=int).reshape(k, n)
        code = LinearCode(p, M, n=n)
        if code.k == k:
            out.add(code)
    return out


def test_inner_examples():
    sp2 = SymplecticSpace(2, 1)
    assert sp2.inner([1, 0], [0, 1]) == 1
    assert sp2.inner([0, 1], [1, 0]) == 1
    sp3 = SymplecticSpace(3, 1)
    assert sp3.inner([1, 0], [0, 1]) == 1
    assert sp3.inner([0, 1], [1, 0]) == 2  # antisymmetric: -1 mod 3


def test_inner_refuses_non_integer_entries():
    # truncated, [0.5, 1] would read as [0, 1]
    sp = SymplecticSpace(2, 1)
    for x, y in (([0.5, 1], [1, 1]), ([1, 1], [1.0, 0.0]), (["1", "0"], [0, 1])):
        with pytest.raises(ValueError, match="^entries must be integers"):
            sp.inner(x, y)
    assert sp.inner(np.array([True, False]), np.array([0, 1], dtype=np.int8)) == 1


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1)])
def test_alternating_exhaustive(p, m):
    sp = SymplecticSpace(p, m)
    for v in all_vectors(p, sp.n):
        assert sp.inner(v, v) == 0


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2)])
def test_bilinear_antisymmetric_random(p, m):
    sp = SymplecticSpace(p, m)
    rng = np.random.default_rng(17)
    for _ in range(200):
        x, y, z = (rng.integers(0, p, size=sp.n) for _ in range(3))
        s = int(rng.integers(0, p))
        assert sp.inner((x + y) % p, z) == (sp.inner(x, z) + sp.inner(y, z)) % p
        assert sp.inner((s * x) % p, z) == (s * sp.inner(x, z)) % p
        assert (sp.inner(x, y) + sp.inner(y, x)) % p == 0
        assert sp.inner(x, x) == 0


def test_dual_examples():
    sp2 = SymplecticSpace(2, 1)
    c = LinearCode(2, [[1, 1]])
    assert sp2.dual(c) == c
    assert sp2.dual(LinearCode.zero(2, 2)) == LinearCode.full(2, 2)
    assert sp2.dual(LinearCode.full(2, 2)) == LinearCode.zero(2, 2)
    sp3 = SymplecticSpace(3, 1)
    assert sp3.dual(LinearCode(3, [[1, 0]])) == LinearCode(3, [[1, 0]])


def test_dual_involution_and_rank_nullity():
    rng = np.random.default_rng(19)
    for p, m in ((2, 2), (2, 3), (3, 1), (3, 2)):
        sp = SymplecticSpace(p, m)
        for _ in range(25):
            code = random_code(p, sp.n, rng)
            d = sp.dual(code)
            assert code.k + d.k == sp.n
            assert sp.dual(d) == code
            # duality is order reversing on a chain: C subset of full space
            assert all(v in LinearCode.full(p, sp.n) for v in d.gen)


def test_dual_against_definition():
    # membership in the dual means pairing to zero with every codeword
    rng = np.random.default_rng(23)
    for p, m in ((2, 1), (2, 2), (3, 1)):
        sp = SymplecticSpace(p, m)
        for _ in range(10):
            code = random_code(p, sp.n, rng)
            d = sp.dual(code)
            cw = code.codewords()
            for v in all_vectors(p, sp.n):
                expected = all(sp.inner(v, w) == 0 for w in cw)
                assert d.contains(v) == expected


def test_predicates_examples():
    sp2 = SymplecticSpace(2, 1)
    rep = LinearCode(2, [[1, 1]])
    assert sp2.is_self_orthogonal(rep)
    assert sp2.is_self_dual(rep)
    assert not sp2.is_lcd(rep)
    full = LinearCode.full(2, 2)
    assert not sp2.is_self_orthogonal(full)
    assert not sp2.is_self_dual(full)
    assert sp2.is_lcd(full)
    zero = LinearCode.zero(2, 2)
    assert sp2.is_self_orthogonal(zero)
    assert not sp2.is_self_dual(zero)
    assert sp2.is_lcd(zero)


def test_self_dual_iff_self_orthogonal_of_middle_dimension():
    rng = np.random.default_rng(29)
    for p, m in ((2, 2), (3, 1), (3, 2)):
        sp = SymplecticSpace(p, m)
        for _ in range(40):
            code = random_code(p, sp.n, rng)
            assert sp.is_self_dual(code) == (
                sp.is_self_orthogonal(code) and code.k == m
            )


def _random_and_isotropic_codes(p, m, rng):
    sp = SymplecticSpace(p, m)
    codes = [random_code(p, sp.n, rng) for _ in range(40)]
    codes += [random_code(p, sp.n, rng, k=k) for k in range(sp.n + 1)]
    return codes + isotropic_subspaces(sp, m)[:40]


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_dual_free_predicates_agree_with_the_dual(p, m):
    # is_self_dual and is_lcd never build the dual; the dual is their oracle
    sp = SymplecticSpace(p, m)
    seen = set()
    for code in _random_and_isotropic_codes(p, m, np.random.default_rng(31 + 10 * p + m)):
        d = sp.dual(code)
        sd, lcd = code == d, intersect_dim(code, d) == 0
        assert sp.is_self_dual(code) == sd
        assert sp.is_lcd(code) == lcd
        seen.add((sd, lcd))
    # at n = 2 every code is zero, a self-dual line or the full space
    assert seen == {(True, False), (False, True)} | ({(False, False)} if m > 1 else set())


def test_every_line_is_isotropic():
    # ternary length 2: all four lines are their own symplectic duals
    sp3 = SymplecticSpace(3, 1)
    for rows in ([[1, 0]], [[0, 1]], [[1, 1]], [[1, 2]]):
        c = LinearCode(3, rows)
        assert sp3.is_self_orthogonal(c)
        assert sp3.dual(c) == c


COUNT_ANCHORS = [
    (2, 1, 1, 3),
    (2, 2, 2, 15),
    (3, 1, 1, 4),
    (2, 3, 0, 1),
    (3, 2, 0, 1),
]


@pytest.mark.parametrize("p,m,k,expected", COUNT_ANCHORS)
def test_count_anchors(p, m, k, expected):
    assert count_isotropic(p, m, k) == expected


def test_count_digit_budget():
    # the count is about p^E, E = 2mk - k(3k-1)/2: 2,410 digits at m = k = 100
    assert len(str(count_isotropic(3, 100, 100))) == 2410 < COUNT_DIGITS
    for m in (400, 2000):  # 38,265 and 954,728 digits: refused before any product
        with pytest.raises(BudgetExceeded):
            count_isotropic(3, m, m)


def test_count_out_of_range():
    with pytest.raises(KOutOfRange):
        count_isotropic(2, 2, 3)
    with pytest.raises(KOutOfRange):
        count_isotropic(3, 1, -1)


def test_counts_and_spaces_refuse_non_integers():
    # as Permutation does, through operator.index: a float is not truncated
    with pytest.raises(ValueError, match="must be integers"):
        count_isotropic(2, 2.5, 1)
    with pytest.raises(ValueError, match="must be integers"):
        count_isotropic("2", 1, 1)
    with pytest.raises(ValueError, match="must be integers"):
        SymplecticSpace(2, 1.5)
    with pytest.raises(ValueError, match="must be integers"):
        SymplecticSpace(2.0, 1)
    # numpy integers are integers
    assert count_isotropic(np.int64(2), np.int32(2), 1) == count_isotropic(2, 2, 1) == 15
    assert SymplecticSpace(np.int64(3), np.int8(2)).n == 4


@pytest.mark.parametrize("p,mmax", [(2, 3), (3, 2)])
def test_enumeration_matches_formula(p, mmax):
    for m in range(mmax + 1):
        sp = SymplecticSpace(p, m)
        for k in range(m + 1):
            found = isotropic_subspaces(sp, k)
            assert len(found) == count_isotropic(p, m, k)
            assert len(set(found)) == len(found)
            for code in found:
                assert code.k == k
                assert sp.is_self_orthogonal(code)


@pytest.mark.parametrize("p,m,k", [(2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 1, 1), (3, 2, 1)])
def test_enumeration_matches_filter_method(p, m, k):
    sp = SymplecticSpace(p, m)
    brute = {c for c in all_subspaces(p, sp.n, k) if sp.is_self_orthogonal(c)}
    assert set(isotropic_subspaces(sp, k)) == brute


def ref_isotropic_subspaces(space, k):
    """The depth-first profile search isotropic_subspaces replaced: fill the
    free entries of each pivot profile row by row, pruning a row that fails
    to pair to zero with an earlier one."""
    p, n = space.p, space.n
    if k == 0:
        return [LinearCode.zero(p, n)]
    out = []
    for pivots in combinations(range(n), k):
        free = [[c for c in range(pivots[i] + 1, n) if c not in pivots] for i in range(k)]
        rows = np.zeros((k, n), dtype=np.int64)

        def fill(i):
            if i == k:
                out.append(LinearCode(p, rows.copy(), n=n))
                return
            row = rows[i]
            for vals in product(range(p), repeat=len(free[i])):
                row[:] = 0
                row[pivots[i]] = 1
                for c, v in zip(free[i], vals):
                    row[c] = v
                gr = space.gram @ row
                if any((rows[j] @ gr) % p for j in range(i)):
                    continue
                fill(i + 1)
            row[:] = 0

        fill(0)
    return out


@pytest.mark.parametrize(
    "p,m,k",
    [(p, m, k) for p in (2, 3) for m in range(4) for k in range(m + 1)] + [(2, 4, 4)],
)
def test_enumeration_order_matches_the_reference_search(p, m, k):
    sp = SymplecticSpace(p, m)
    found = isotropic_subspaces(sp, k)
    assert found == ref_isotropic_subspaces(sp, k)  # same order too
    if (p, m, k) == (2, 4, 4):
        assert len(found) == 2295


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (2, 4)])
def test_isotropic_leaves_are_the_codes_rref_would_build(p, m):
    # the leaves skip rref; reducing each one again must change nothing
    sp = SymplecticSpace(p, m)
    for k in range(m + 1) if m < 4 else [m]:  # n = 8: the 2,295 binary Lagrangians
        for leaf in isotropic_subspaces(sp, k):
            ref = LinearCode(p, leaf.gen, n=sp.n)
            assert leaf._key == ref._key and leaf.pivots == ref.pivots
            assert leaf.gen.dtype == np.int8 and not leaf.gen.flags.writeable


# sha256 over every isotropic subspace of F_2^6 and F_3^6, k = 0..3 in turn:
# p, k and the pivots as bytes, then the RREF bytes, in enumeration order
ISOTROPIC_N6_SHA256 = "1d4002ba392dac7e60b436b2ec58b49aec3a4f0a1c9d29868664eadccf59afd2"


def test_isotropic_enumeration_at_length_six_is_pinned():
    digest = hashlib.sha256()
    for p in (2, 3):
        for k in range(4):
            for code in isotropic_subspaces(SymplecticSpace(p, 3), k):
                assert code._key == (p, 6, code.gen.tobytes())
                digest.update(bytes([p, k, *code.pivots]) + code.gen.tobytes())
    assert digest.hexdigest() == ISOTROPIC_N6_SHA256


def test_rref_box_cache_hits_on_a_second_n6_sweep():
    # 42 pivot profiles a field at n = 6 (k <= 3), all of them bounded by the cache
    spaces = [SymplecticSpace(p, 3) for p in (2, 3)]
    symhex.gf._rref_box.cache_clear()
    for _ in range(2):
        for space in spaces:
            for k in range(4):
                isotropic_subspaces(space, k)
    info = symhex.gf._rref_box.cache_info()
    assert (info.hits, info.misses) == (84, 84)


def test_isotropic_subspaces_never_reduce(monkeypatch):
    sp = SymplecticSpace(3, 3)
    want = isotropic_subspaces(sp, 3)

    def boom(*args, **kwargs):
        raise AssertionError("an enumerated leaf was reduced again")

    monkeypatch.setattr(symhex.gf, "rref", boom)
    assert isotropic_subspaces(sp, 3) == want and len(want) == 1120


def test_dual_makes_one_rref_call_and_matches_the_reducing_path(monkeypatch):
    rng = np.random.default_rng(71)
    codes = [
        build(ring, random_code(2, n, rng), random_code(3, n, rng))
        for n in (2, 4, 6)
        for ring in RingId
        for _ in range(15)
    ]
    want = []
    for code in codes:  # reference: LinearCode reduces the nullspace basis once more
        g, f = split(code)
        M = g.gen.astype(np.int64) @ SymplecticSpace.for_length(g.p, code.n).gram % g.p
        ref = LinearCode(g.p, nullspace(M, g.p)[0], n=code.n)
        want.append((ref, join(code.ring, ref, LinearCode.full(f.p, code.n))))
    calls = []
    real = symhex.gf.rref
    monkeypatch.setattr(symhex.gf, "rref", lambda *a: calls.append(1) or real(*a))
    for code, (ref, whole) in zip(codes, want):
        calls.clear()
        d = dual(code)
        assert len(calls) == 1  # the kernel's image under the gram, reduced by LinearCode
        assert d == whole
        g, _ = split(d)
        assert g._key == ref._key and g.pivots == ref.pivots
        assert g.gen.dtype == np.int8 and not g.gen.flags.writeable


def every_subspace(p, n):
    """Every subspace of F_p^n once: each pivot profile with every filling of its free entries."""
    out = []
    for k in range(n + 1):
        for pivots in combinations(range(n), k):
            free = [(r, f) for r, c in enumerate(pivots) for f in range(c + 1, n) if f not in pivots]
            for values in product(range(p), repeat=len(free)):
                M = np.zeros((k, n), dtype=np.int64)
                M[range(k), pivots] = 1
                for (r, f), v in zip(free, values):
                    M[r, f] = v
                out.append(LinearCode(p, M, n=n))
    return out


def test_dual_is_the_reduced_kernel_of_the_form_and_the_word_level_dual():
    # every subspace at n = 2 and 4 (5 + 67 binary, 6 + 212 ternary), and
    # seeded codes at n = 6 and 8, against ref_nullspace of G gram and the words
    rng = np.random.default_rng(83)
    for p, ring in ((2, RingId.H23), (3, RingId.H32)):
        codes = [c for n in (2, 4) for c in every_subspace(p, n)]
        assert len(set(codes)) == len(codes) == {2: 5 + 67, 3: 6 + 212}[p]
        codes += [random_code(p, 6, rng, k=k) for k in range(7)]
        codes += [random_code(p, 8, rng, k=k) for k in range(1, 5)]
        for g in codes:
            sp = SymplecticSpace.for_length(p, g.n)
            d = sp.dual(g)
            want = LinearCode(p, ref_nullspace(g.gen.astype(np.int64) @ sp.gram % p, p)[0], n=g.n)
            assert d._key == want._key and d.pivots == want.pivots
            code = join(ring, g, LinearCode.zero(5 - p, g.n))
            assert word_set(dual(code)) == dual_bruteforce(code)
            assert split(dual(dual(code)))[0] == g


def test_symplectic_dual_makes_one_rref_call_and_no_nullspace_call(monkeypatch):
    # the kernel is read off the code's RREF generator; only its image under the gram is reduced
    rng = np.random.default_rng(89)
    codes = [random_code(p, n, rng) for p in (2, 3) for n in (2, 4, 6, 8) for _ in range(6)]
    codes += [LinearCode.zero(3, 4), LinearCode.full(2, 4), LinearCode.zero(2, 0)]
    spaces = [SymplecticSpace.for_length(code.p, code.n) for code in codes]
    want = [sp.dual(code) for sp, code in zip(spaces, codes)]
    calls = []
    for name in ("rref", "nullspace"):
        real = getattr(symhex.gf, name)
        monkeypatch.setattr(symhex.gf, name, lambda *a, f=real, name=name: calls.append(name) or f(*a))
    for sp, code, d in zip(spaces, codes, want):
        calls.clear()
        assert sp.dual(code) == d
        assert calls == ["rref"]


def test_enumeration_deterministic():
    sp = SymplecticSpace(2, 2)
    a = isotropic_subspaces(sp, 2)
    b = isotropic_subspaces(sp, 2)
    assert a == b


def test_enumeration_guards():
    # 22,405,120 ternary Lagrangians of length 10, about 27 times the byte budget
    with pytest.raises(BudgetExceeded):
        isotropic_subspaces(SymplecticSpace(3, 5), 5)
    with pytest.raises(KOutOfRange):
        isotropic_subspaces(SymplecticSpace(2, 2), 3)


def test_spaces_past_the_length_bound_raise_before_the_gram(monkeypatch):
    assert SymplecticSpace(2, MAX_LENGTH // 2).n == MAX_LENGTH

    def boom(*args, **kwargs):
        raise AssertionError("the gram was built")

    monkeypatch.setattr(np, "eye", boom)
    for p in (2, 3):
        with pytest.raises(BudgetExceeded, match=str(MAX_LENGTH)):
            SymplecticSpace(p, MAX_LENGTH // 2 + 1)


def test_length_zero_space():
    sp = SymplecticSpace(2, 0)
    assert count_isotropic(2, 0, 0) == 1
    assert isotropic_subspaces(sp, 0) == [LinearCode.zero(2, 0)]


def test_space_checks():
    with pytest.raises(OddLength):
        SymplecticSpace.for_length(2, 3)
    with pytest.raises(DimensionMismatch):
        SymplecticSpace(2, 2).dual(LinearCode(2, [[1, 1]]))
    with pytest.raises(DimensionMismatch):
        SymplecticSpace(2, 1).inner([1, 0, 0], [0, 1, 0])
    with pytest.raises(ValueError, match="p must be 2 or 3"):
        SymplecticSpace(5, 1)
    with pytest.raises(ValueError, match="m must be >= 0"):
        SymplecticSpace(2, -1)


def test_for_length_is_shared_and_read_only():
    sp = SymplecticSpace.for_length(3, 4)
    assert SymplecticSpace.for_length(3, 4) is sp
    assert SymplecticSpace.for_length(2, 4) is not sp
    with pytest.raises(ValueError):
        sp.gram[0, 0] = 1
