"""Permutations, automorphism groups, double cosets."""

from __future__ import annotations

import time
import tracemalloc
from collections import deque
from importlib import import_module
from itertools import permutations
from math import factorial

import numpy as np
import pytest

import symhex.gf
from symhex.codes import build, equivalent
from symhex.errors import BudgetExceeded, DimensionMismatch
from symhex.gf import LinearCode, random_code
from symhex.perms import (
    BLOCK,
    PermGroup,
    Permutation,
    _components,
    _rank_maps,
    apply_perm,
    automorphism_group,
    double_cosets,
    double_cosets_batch,
    orbit_keys,
    perm_equivalent,
    perm_table,
    rank_images,
    ranks,
    word_keys,
)
from symhex.ring import RingId
from symhex.symplectic import SymplecticSpace, isotropic_subspaces

from oracles import all_permutations, mulclose, ref_nullspace, unrank_images


def test_permutation_basics():
    e = Permutation(tuple(range(3)))
    s = Permutation((1, 0, 2))
    t = Permutation((0, 2, 1))
    assert e == (0, 1, 2) and s != e
    assert s * s == e
    assert s * t == tuple(s[j] for j in t)
    assert s.inverse() == s
    assert (s * t).inverse() == t.inverse() * s.inverse()
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_permutation_images_are_stored_as_a_tuple_of_ints():
    # a list or an array once kept its type: unequal to the tuple, unhashable or ambiguous
    want = Permutation((1, 0, 2))
    for images in ([1, 0, 2], np.array([1, 0, 2]), np.array([1, 0, 2], dtype=np.int8)):
        perm = Permutation(images)
        assert perm == want and hash(perm) == hash(want)
        assert all(type(i) is int for i in perm)
    assert {Permutation([1, 0]), Permutation((1, 0))} == {Permutation(np.array([1, 0]))}
    # a Permutation is its image tuple: equal, hashed and sized alike, and an array of its images
    assert isinstance(want, tuple) and want == (1, 0, 2) and hash(want) == hash((1, 0, 2))
    assert len(want) == want.n == 3 and np.asarray(want).tolist() == [1, 0, 2]
    for bad in ((1.0, 0.0), ["1", "0"], np.array([1.0, 0.0])):
        with pytest.raises(ValueError, match="^images must be integers"):
            Permutation(bad)


def test_group_membership_takes_what_permutation_takes():
    trivial, s3 = PermGroup(3, [0]), PermGroup(3, np.arange(6))
    # a permutation of the group's points is answered like its Permutation
    assert (0, 1, 2) in trivial and [0, 1, 2] in trivial and np.arange(3) in trivial
    assert (1, 0, 2) not in trivial and (1, 0, 2) in s3 and Permutation((1, 0, 2)) in s3
    # a wrong length, a non-permutation or non-integers are not members
    for bad in ((0, 1), (0, 1, 2, 3), (0, 0), (0, 0, 0), (1, 2, 3), (0.0, 1.0, 2.0), "012", 3):
        assert bad not in trivial and bad not in s3
    # (0, 0) ranks 0 like the identity of S_2, but is no permutation
    assert (0, 0) not in PermGroup(2, [0])


def test_rank_unrank_is_lex_order():
    for n in (1, 2, 3, 4):
        perms = list(all_permutations(n))
        assert len(perms) == factorial(n)
        assert perms == sorted(perms)
        for r, p in enumerate(perms):
            assert p.rank() == r
            assert Permutation(unrank_images(n, r)) == p


def test_cycle_strings():
    assert Permutation(tuple(range(4))).cycle_string() == "e"
    assert Permutation((1, 0, 2, 3)).cycle_string() == "(1 2)"
    assert Permutation((1, 2, 0, 3)).cycle_string() == "(1 2 3)"
    assert Permutation((1, 0, 3, 2)).cycle_string() == "(1 2)(3 4)"


def test_apply_perm_examples():
    c = LinearCode(3, [[1, 0]])
    assert apply_perm(Permutation(tuple(range(2))), c) == c
    assert apply_perm(Permutation((1, 0)), c) == LinearCode(3, [[0, 1]])
    rep = LinearCode(2, [[1, 1]])
    assert apply_perm(Permutation((1, 0)), rep) == rep


def test_apply_perm_respects_composition():
    import numpy as np

    rng = np.random.default_rng(53)
    for _ in range(20):
        c = LinearCode(3, rng.integers(0, 3, size=(2, 4)), n=4)
        s = Permutation(tuple(int(x) for x in rng.permutation(4)))
        t = Permutation(tuple(int(x) for x in rng.permutation(4)))
        assert apply_perm(s * t, c) == apply_perm(s, apply_perm(t, c))


def test_perm_equivalent_linear_codes():
    c1 = LinearCode(2, [[1, 1, 0, 0]])
    c2 = LinearCode(2, [[0, 0, 1, 1]])
    pi = perm_equivalent(c1, c2)
    assert pi is not None and apply_perm(pi, c1) == c2
    assert perm_equivalent(c1, LinearCode(2, [[1, 1, 1, 1]])) is None
    assert perm_equivalent(c1, LinearCode.full(2, 4)) is None  # dimension prune


def test_mulclose():
    s = Permutation((1, 0, 2))
    c = Permutation((1, 2, 0))
    assert len(mulclose([s])) == 2
    assert len(mulclose([c])) == 3
    assert len(mulclose([s, c])) == 6


def test_group_generators_reproduce_elements():
    g = PermGroup(4, np.arange(factorial(4)))
    assert g.order == 24
    assert mulclose(list(g.generators)) == set(g.elements)
    t = PermGroup(3, [0])
    assert t.order == 1 and t.generators == ()
    # the greedy choice is what `symhex aut` prints for the length-8 codes
    pairs = LinearCode(2, np.kron(np.eye(4, dtype=np.int64), [[1, 1]]))
    rep6 = LinearCode(3, [[1, 1, 1, 1, 1, 1, 0, 0]])
    cycles = [
        " ".join(g.cycle_string() for g in automorphism_group(c).generators)
        for c in (pairs, rep6)
    ]
    assert cycles == [
        "(7 8) (5 6) (5 7)(6 8) (3 4) (3 5)(4 6) (1 2) (1 3)(2 4)",
        "(7 8) (5 6) (4 5) (3 4) (2 3) (1 2)",
    ]


def test_automorphism_examples():
    assert automorphism_group(LinearCode(2, [[1, 0]])).order == 1
    assert automorphism_group(LinearCode(2, [[1, 1]])).order == 2
    assert automorphism_group(LinearCode(3, [[1, 1]])).order == 2
    assert automorphism_group(LinearCode(3, [[1, 2]])).order == 2
    for n in (2, 3, 4):
        assert automorphism_group(LinearCode.full(2, n)).order == factorial(n)
        assert automorphism_group(LinearCode.zero(3, n)).order == factorial(n)


def test_automorphisms_fix_the_code():
    c = LinearCode(3, [[1, 0, 2, 0], [0, 1, 0, 1]])
    g = automorphism_group(c)
    for pi in g:
        assert apply_perm(pi, c) == c
    # group axioms: closure and inverses inside the element set
    els = set(g.elements)
    for x in g:
        assert x.inverse() in els
        for y in g:
            assert x * y in els
    # and nothing outside fixes the code
    fixing = sum(1 for pi in all_permutations(4) if apply_perm(pi, c) == c)
    assert fixing == g.order


def test_double_coset_examples():
    e2 = PermGroup(2, [0])
    s2 = PermGroup(2, np.arange(factorial(2)))
    assert len(double_cosets(e2, e2)) == 2
    assert len(double_cosets(e2, s2)) == 1
    assert len(double_cosets(s2, s2)) == 1
    s4 = PermGroup(4, np.arange(factorial(4)))
    reps = [r for r, _ in double_cosets(s4, s4)]
    assert reps == [Permutation(tuple(range(4)))]


def test_double_cosets_partition_sn():
    ca = automorphism_group(LinearCode(2, [[1, 1, 0, 0]]))
    cb = automorphism_group(LinearCode(3, [[1, 1, 1, 0]]))
    cosets = double_cosets(ca, cb)
    assert sum(size for _, size in cosets) == factorial(4)
    for _, size in cosets:
        assert (ca.order * cb.order) % size == 0


def test_double_coset_reps_are_lex_minimal():
    G = automorphism_group(LinearCode(2, [[1, 1, 0, 0]]))
    H = automorphism_group(LinearCode(3, [[1, 0, 0, 0]]))
    reps = [r for r, _ in double_cosets(G, H)]
    assert reps[0] == Permutation(tuple(range(4)))
    assert reps == sorted(reps)
    # every sigma's orbit contains exactly one representative, the minimum
    for sigma in all_permutations(4):
        orbit = {g * sigma * h for g in G for h in H}
        inside = [r for r in reps if r in orbit]
        assert inside == [min(orbit)]


def test_budget_guards():
    # perm_table(12) would take 12! x 14 bytes, about 6 times the byte budget
    with pytest.raises(BudgetExceeded):
        automorphism_group(LinearCode.zero(2, 12))
    with pytest.raises(BudgetExceeded):
        perm_equivalent(LinearCode.zero(2, 12), LinearCode.zero(2, 12))
    with pytest.raises(BudgetExceeded):  # the guard comes before the dimension test
        perm_equivalent(LinearCode.zero(2, 12), LinearCode.full(2, 12))
    with pytest.raises(BudgetExceeded, match="budget"):
        perm_table(12)
    with pytest.raises(BudgetExceeded):
        double_cosets(PermGroup(12, [0]), PermGroup(12, [0]))
    c12 = build(RingId.H23, LinearCode.zero(2, 12), LinearCode.zero(3, 12))
    with pytest.raises(BudgetExceeded):
        equivalent(c12, c12)
    # pairs of different dimensions meet the guard before the dimension test
    full2, full3 = LinearCode.full(2, 12), LinearCode.full(3, 12)
    for other in (build(RingId.H23, full2, c12.cb), build(RingId.H23, c12.ca, full3)):
        with pytest.raises(BudgetExceeded):
            equivalent(c12, other)


# ---------------------------------------------------------------------------
# the S_n table kernels against the per-permutation loops they replaced


def test_perm_table_is_lex_ordered_and_read_only():
    for n in range(1, 9):
        table = perm_table(n)
        assert table.dtype == np.int8 and table.shape == (factorial(n), n)
        assert [tuple(row) for row in table.tolist()] == list(permutations(range(n)))
        assert not table.flags.writeable and table.flags.f_contiguous
        with pytest.raises(ValueError):
            table[0, 0] = 1
    assert perm_table(8) is perm_table(8)


def test_ranks_are_table_positions():
    assert np.array_equal(ranks(perm_table(6)), np.arange(720))
    rng = np.random.default_rng(11)
    rows = np.array([rng.permutation(8) for _ in range(50)])
    assert ranks(rows).tolist() == [rank_images(tuple(r)) for r in rows.tolist()]


def _inverse(images):
    inv = [0] * len(images)
    for i, j in enumerate(images):
        inv[j] = i
    return inv


def _words(code: LinearCode) -> set:
    return {tuple(w) for w in code.codewords().tolist()}


def ref_automorphisms(code: LinearCode) -> list[Permutation]:
    """The parity-check test, one permutation at a time."""
    G = code.gen.astype(np.int64)
    H = ref_nullspace(G, code.p)[0].astype(np.int64) if code.k < code.n else None
    return [
        Permutation(images)
        for images in permutations(range(code.n))
        if H is None or not ((G[:, _inverse(images)] @ H.T) % code.p).any()
    ]


def ref_double_cosets(G: PermGroup, H: PermGroup) -> list[tuple[Permutation, int]]:
    """Breadth-first closure from each unvisited rank, in rank order."""
    n = G.n
    visited = bytearray(factorial(n))
    out = []
    for r in range(factorial(n)):
        if visited[r]:
            continue
        seed = unrank_images(n, r)
        visited[r] = 1
        size = 1
        queue = deque([seed])
        while queue:
            s = queue.popleft()
            neighbors = [tuple(g[j] for j in s) for g in G.generators]
            neighbors += [tuple(s[j] for j in h) for h in H.generators]
            for t in neighbors:
                tr = rank_images(t)
                if not visited[tr]:
                    visited[tr] = 1
                    size += 1
                    queue.append(t)
        out.append((Permutation(seed), size))
    return out


def ref_carrying(pairs, n):
    """First permutation in lex order moving every generator row into its code."""
    targets = [(G.astype(np.int64), _words(code)) for G, code in pairs]
    for images in permutations(range(n)):
        inv = _inverse(images)
        if all(tuple(row) in words for G, words in targets for row in G[:, inv].tolist()):
            return Permutation(images)
    return None


def ref_perm_equivalent(c1: LinearCode, c2: LinearCode):
    return ref_carrying([(c1.gen, c2)], c1.n) if c1.k == c2.k else None


def ref_equivalent(c1, c2):
    if c1.ca.k != c2.ca.k or c1.cb.k != c2.cb.k:
        return None
    return ref_carrying([(c1.ca.gen, c2.ca), (c1.cb.gen, c2.cb)], c1.n)


def _isotropic_codes(n: int) -> list[LinearCode]:
    out = []
    for p in (2, 3):
        space = SymplecticSpace.for_length(p, n)
        out += [c for k in range(space.m + 1) for c in isotropic_subspaces(space, k)]
    return out


def _random_codes(n: int, count: int, seed: int) -> list[LinearCode]:
    rng = np.random.default_rng(seed)
    return [random_code(p, n, rng) for p in (2, 3) for _ in range(count)]


def test_automorphism_group_matches_the_loop():
    codes = _isotropic_codes(2) + _isotropic_codes(4)
    codes += _random_codes(5, 4, seed=501) + _random_codes(6, 4, seed=601)
    for code in codes:
        assert list(automorphism_group(code).elements) == ref_automorphisms(code)


def test_automorphism_group_matches_the_loop_for_every_dimension_at_length_6():
    # k = 0 and k = 6 leave no row to scan, so all of S_6 survives; up to
    # k = 3 the generators are scanned over the checks, from k = 4 the checks
    rng = np.random.default_rng(606)
    for p in (2, 3):
        for k in range(7):
            code = random_code(p, 6, rng, k=k)
            while code.k < k:  # k random rows may be dependent; draw again
                code = random_code(p, 6, rng, k=k)
            assert list(automorphism_group(code).elements) == ref_automorphisms(code), code


def test_automorphism_group_makes_one_rref_call(monkeypatch):
    codes = _random_codes(5, 4, seed=503) + [LinearCode.zero(3, 4), LinearCode.full(2, 4)]
    want = [automorphism_group(code).ranks.tolist() for code in codes]
    calls = []
    real = symhex.gf.rref
    monkeypatch.setattr(symhex.gf, "rref", lambda *a: calls.append(1) or real(*a))
    for code, members in zip(codes, want):
        calls.clear()
        assert automorphism_group(code).ranks.tolist() == members
        assert len(calls) == 1  # the parity checks' nullspace, reduced once


def test_double_cosets_match_the_bfs():
    rng = np.random.default_rng(77)
    for n in (2, 3, 4, 5, 6):
        for _ in range(4):
            # small dimensions give nontrivial groups
            G = automorphism_group(random_code(2, n, rng, k=int(rng.integers(0, 3))))
            H = automorphism_group(random_code(3, n, rng, k=int(rng.integers(0, 3))))
            assert double_cosets(G, H) == ref_double_cosets(G, H)


def _shuffled(code, rng):
    return apply_perm(Permutation(tuple(int(x) for x in rng.permutation(code.n))), code)


def test_perm_equivalent_returns_the_lex_first_sigma():
    rng = np.random.default_rng(404)
    for n in (4, 5, 6):
        for p in (2, 3):
            codes = [random_code(p, n, rng, k=2) for _ in range(5)]
            codes += [_shuffled(c, rng) for c in codes]
            for c1 in codes:
                for c2 in codes:
                    assert perm_equivalent(c1, c2) == ref_perm_equivalent(c1, c2)


def test_equivalent_returns_the_lex_first_sigma():
    rng = np.random.default_rng(405)
    for ring in (RingId.H23, RingId.H32):
        for n in (4, 6):
            codes = [
                build(ring, random_code(2, n, rng, k=1), random_code(3, n, rng, k=2))
                for _ in range(4)
            ]
            for c in list(codes):
                sigma = Permutation(tuple(int(x) for x in rng.permutation(n)))
                codes.append(build(ring, apply_perm(sigma, c.ca), apply_perm(sigma, c.cb)))
            for c1 in codes:
                for c2 in codes:
                    assert equivalent(c1, c2) == ref_equivalent(c1, c2)


# ---------------------------------------------------------------------------
# word keys and S_n orbits


def _own_key(codes):
    block, keys = next(orbit_keys(codes))
    assert block[0].tolist() == list(range(codes[0].n))  # the identity first
    ends = np.cumsum([c.size for c in codes]).tolist()
    for code, start, end in zip(codes, [0] + ends, ends):
        assert np.array_equal(word_keys([code])[0], keys[0, start:end])
    return keys[0]


def test_orbit_keys_are_the_keys_of_the_permuted_codes():
    rng = np.random.default_rng(606)
    for n in (3, 4, 5, 6):
        # a binary and a ternary code side by side, then k = 0 and k = n
        for codes in (
            (random_code(2, n, rng), random_code(3, n, rng)),
            (LinearCode.zero(3, n), LinearCode.full(2, n)),
        ):
            rows = 0
            for block, keys in orbit_keys(codes):
                for images, key in zip(block.tolist(), keys):
                    pi = Permutation(tuple(images))
                    assert np.array_equal(key, _own_key(tuple(apply_perm(pi, c) for c in codes)))
                    assert pi.rank() == rows
                    rows += 1
            assert rows == factorial(n)


def test_word_keys_are_equal_exactly_for_equal_codes():
    rng = np.random.default_rng(607)
    for p in (2, 3):
        codes = [c for c in _isotropic_codes(4) + _random_codes(4, 30, seed=608) if c.p == p]
        keys = {}
        for c in codes:
            keys.setdefault(_own_key((c,)).tobytes(), set()).add(c)
        assert all(len(same) == 1 for same in keys.values())
        # another generator of the same row space gives the same key
        for c in codes[:10]:
            mixed = (rng.integers(0, p, size=(c.k + 2, c.k)) @ c.gen) % p
            other = LinearCode(p, np.vstack([mixed, c.gen]), n=c.n)
            assert np.array_equal(_own_key((other,)), _own_key((c,)))


def test_perm_equivalent_finds_a_carrier_beyond_the_first_block():
    rng = np.random.default_rng(809)
    # 8 words scan S_8 in blocks of BLOCK rows; 81 words in shorter blocks
    for p, k in ((2, 3), (3, 4)):
        c1 = random_code(p, 8, rng, k=k)
        blocks = [block for block, keys in orbit_keys((c1,))]
        assert max(len(block) for block in blocks) * p**k <= BLOCK * 64
        assert np.array_equal(np.vstack(blocks), perm_table(8))
        sigma = Permutation(unrank_images(8, 40000))
        c2 = apply_perm(sigma, c1)
        pi = perm_equivalent(c1, c2)
        assert pi is not None and apply_perm(pi, c1) == c2
        assert BLOCK <= pi.rank() <= sigma.rank()


# ---------------------------------------------------------------------------
# groups as rank arrays: the greedy generators against the mulclose loop


def ref_greedy_generators(group: PermGroup) -> tuple[Permutation, ...]:
    """Sweep the elements in lex order, keeping each one mulclose has not yet reached."""
    gens: list[Permutation] = []
    closure = {Permutation(tuple(range(group.n)))}
    for el in sorted(group.elements):
        if el not in closure:
            gens.append(el)
            closure = mulclose(gens)
    assert len(closure) == group.order
    return tuple(gens)


def _criterion_9_codes() -> list[LinearCode]:
    pairs = LinearCode(2, np.kron(np.eye(4, dtype=np.int64), [[1, 1]]))
    return [pairs, LinearCode(3, [[1, 1, 1, 1, 1, 1, 0, 0]])]


def test_greedy_generators_match_the_mulclose_loop():
    codes = _isotropic_codes(2) + _isotropic_codes(4)
    codes += _random_codes(5, 4, seed=502) + _random_codes(6, 4, seed=602)
    codes += _criterion_9_codes()
    for code in codes:
        g = automorphism_group(code)
        assert g.generators == ref_greedy_generators(g)
        assert mulclose(list(g.generators), [Permutation(tuple(range(g.n)))]) == set(g.elements)


def test_contains_is_membership_in_the_elements():
    groups = [
        automorphism_group(LinearCode(2, [[1, 1, 0, 0, 0]])),
        automorphism_group(LinearCode(3, [[1, 2, 0, 1, 0], [0, 0, 1, 1, 1]])),
        PermGroup(5, np.arange(factorial(5))),
    ]
    for g in groups:
        members = set(g.elements)
        assert all((pi in g) == (pi in members) for pi in all_permutations(5))
        assert Permutation(tuple(range(4))) not in g


def test_group_elements_are_built_in_rank_order():
    g = automorphism_group(_criterion_9_codes()[0])
    assert "elements" not in vars(g)  # built on first use
    assert [pi.rank() for pi in g.elements] == g.ranks.tolist() == sorted(set(g.ranks.tolist()))
    assert g.elements is g.elements
    assert PermGroup(4, [1, 0, 1]).ranks.tolist() == [0, 1]  # sorted, duplicates dropped


def test_rank_sets_that_are_not_groups_raise_value_error():
    with pytest.raises(ValueError, match="no ranks"):
        PermGroup(3, [])
    # truncated, [0, 0.7] would be the trivial group
    for bad in ([0, 0.7], np.array([0.0, 1.0]), ["0", "1"]):
        with pytest.raises(ValueError, match="^entries must be integers"):
            PermGroup(2, bad)
    with pytest.raises(ValueError, match="identity"):
        PermGroup(3, [1, 2])
    for bad in ([0, 6], [0, -1]):
        with pytest.raises(ValueError, match="out of range"):
            PermGroup(3, bad)
    # (2 3) and (1 2) are members, their product (1 3 2) is not
    with pytest.raises(ValueError, match=r"not a group: Permutation\(\(0, 2, 1\)\) \* "
                       r"Permutation\(\(1, 0, 2\)\) is not a member"):
        PermGroup(3, [0, 1, 2])
    # the first generator (3 4) keeps {e, (3 4), (2 3), (2 4 3)}; the second, (2 3), does not
    members = [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3), (0, 3, 1, 2)]
    with pytest.raises(ValueError, match=r"Permutation\(\(0, 2, 1, 3\)\) \* "
                       r"Permutation\(\(0, 1, 3, 2\)\) is not a member"):
        PermGroup(4, [rank_images(images) for images in members])


def test_negative_or_fractional_lengths_raise_value_error():
    for bad in (-1, 2.0, "3", None):
        with pytest.raises(ValueError, match=f"^n must be a nonnegative integer, got {bad!r}$"):
            perm_table(bad)
        with pytest.raises(ValueError, match=f"^n must be a nonnegative integer, got {bad!r}$"):
            PermGroup(bad, [0])
    # another integer type shares the int's table
    assert perm_table(np.int64(4)) is perm_table(4) and PermGroup(np.int8(3), [0]).n == 3


def test_groups_beyond_the_table_guard_raise_budget_exceeded():
    # the trivial group needs no table; any other group of S_12 needs perm_table(12)
    assert PermGroup(12, [0]).order == 1
    with pytest.raises(BudgetExceeded):
        PermGroup(12, np.arange(factorial(9)))  # S_9 on the last nine points
    with pytest.raises(BudgetExceeded):
        PermGroup(12, [0, 1])


def test_symmetric_group_of_length_eight_is_pinned():
    for code in (LinearCode.full(2, 8), LinearCode.zero(3, 8)):
        t0 = time.perf_counter()
        g = automorphism_group(code)
        elapsed = time.perf_counter() - t0
        assert g.order == 40320
        assert " ".join(pi.cycle_string() for pi in g.generators) == (
            "(7 8) (6 7) (5 6) (4 5) (3 4) (2 3) (1 2)"
        )
        assert elapsed < 1.0, f"Aut = S_8 took {elapsed:.2f} s"


# lengths 9 and 10, inside the work budget


def test_automorphism_group_of_the_length_nine_zero_code_is_s9():
    # nine checks: more than an int64 packs, so the scan runs on the dual
    g = automorphism_group(LinearCode.zero(2, 9))
    assert g.order == factorial(9)
    assert " ".join(pi.cycle_string() for pi in g.generators) == (
        "(8 9) (7 8) (6 7) (5 6) (4 5) (3 4) (2 3) (1 2)"
    )


def test_double_cosets_at_length_nine_partition_s9():
    pairs = np.hstack([np.kron(np.eye(4, dtype=np.int64), [[1, 1]]), np.zeros((4, 1), np.int64)])
    G = automorphism_group(LinearCode(2, pairs))
    H = automorphism_group(LinearCode(3, [[1] * 6 + [0] * 3]))
    assert (G.order, H.order) == (2**4 * factorial(4), factorial(6) * factorial(3))
    cosets = double_cosets(G, H)
    assert sum(size for _, size in cosets) == factorial(9)
    reps = [sigma for sigma, _ in cosets]
    assert reps == sorted(reps) and reps[0] == Permutation(tuple(range(9)))


def test_perm_table_of_length_ten():
    table = perm_table(10)
    assert table.shape == (factorial(10), 10) and not table.flags.writeable
    sample = np.random.default_rng(10).integers(0, factorial(10), size=20)
    assert ranks(table[sample]).tolist() == sample.tolist()
    assert [tuple(table[r].tolist()) for r in sample.tolist()] == [
        unrank_images(10, r) for r in sample.tolist()
    ]


def test_automorphism_group_of_five_pairs_at_length_ten():
    five_pairs = LinearCode(2, np.kron(np.eye(5, dtype=np.int64), [[1, 1]]))
    assert automorphism_group(five_pairs).order == 2**5 * factorial(5)  # 3,840


def test_codes_with_more_than_eight_checks_are_scanned_as_their_dual(monkeypatch):
    # one generator and nine checks; the first eight checks alone would also
    # let the last point move to the ninth.  The accepted ranks are read
    # before the group closure, which the other tests cover.
    monkeypatch.setattr(import_module("symhex.perms"), "PermGroup", lambda n, ranks: ranks)
    accepted = automorphism_group(LinearCode(3, [[0] * 9 + [1]]))
    assert len(accepted) == factorial(9)
    assert (perm_table(10)[accepted, 9] == 9).all()


def _dihedral(n: int) -> PermGroup:
    """The symmetries of an n-gon on its n vertices, from its rotations and reflections."""
    rotations = [tuple((i + s) % n for i in range(n)) for s in range(n)]
    reflections = [tuple((s - i) % n for i in range(n)) for s in range(n)]
    return PermGroup(n, [rank_images(images) for images in rotations + reflections])


def test_rank_maps_are_the_composed_ranks():
    codes = [
        LinearCode(2, [[1, 1, 0, 0]]),
        LinearCode(3, [[1, 1, 1, 0]]),
        LinearCode(3, [[1, 0, 2, 0], [0, 1, 0, 1]]),
    ]
    groups = [automorphism_group(c) for c in codes]
    groups += [PermGroup(4, np.arange(factorial(4))), PermGroup(4, [0]), _dihedral(5)]
    assert groups[-1].order == 10
    for n in (4, 5):  # one call per n, most generators first
        chunk = sorted((G for G in groups if G.n == n), key=lambda G: -len(G.generators))
        size, images = factorial(n), _rank_maps(chunk)
        sigmas = list(all_permutations(n))
        # image k is map k of every group that has one, a prefix of the labels
        want = [size * sum(len(G.generators) > k for G in chunk) for k in range(len(images))]
        assert [image.size for image in images] == want and len(images) == len(chunk[0].generators)
        for c, G in enumerate(chunk):
            for h, image in zip(G.generators, images):
                row = image[c * size : (c + 1) * size] - c * size
                assert row.tolist() == [rank_images(s.compose(h)) for s in sigmas]
        if n == 4:
            assert chunk[-1].order == 1  # the trivial group, last and in no image


def _groups_at(n: int, count: int, rng) -> list[PermGroup]:
    """The trivial group, S_n and the Aut groups of count seeded codes of length n."""
    groups = [PermGroup(n, [0]), PermGroup(n, np.arange(factorial(n)))]
    for _ in range(count):
        p, k = int(rng.integers(2, 4)), int(rng.integers(0, n + 1))
        groups.append(automorphism_group(random_code(p, n, rng, k=k)))
    return groups


def test_stage_one_labels_each_sigma_with_the_least_rank_of_its_right_coset():
    # one sweep over the right maps of a chunk of groups: row c, label of
    # sigma, is c n! + min over h in H of rank(sigma h), read off H.elements
    rng = np.random.default_rng(3301)
    for n in range(1, 6):
        chunk = sorted(_groups_at(n, 5, rng), key=lambda G: -len(G.generators))
        size, sigmas = factorial(n), list(all_permutations(n))
        label = _components(_rank_maps(chunk), len(chunk) * size).reshape(-1, size)
        for c, H in enumerate(chunk):
            want = [min(rank_images(s.compose(h)) for h in H.elements) for s in sigmas]
            assert (label[c] - c * size).tolist() == want, (n, H.order)


def test_a_batch_ranks_each_group_side_once(monkeypatch):
    rng = np.random.default_rng(2404)
    pairs = _aut_pairs(7, 40, rng)
    frees = set(H for _, H in pairs)
    assert len(frees) < len(pairs)  # free groups repeat
    want = [ref_double_cosets(G, H) for G, H in pairs[:3]]
    perms_module = import_module("symhex.perms")
    rows, real = [], perms_module.ranks
    monkeypatch.setattr(perms_module, "ranks", lambda a: rows.append(len(a)) or real(a))
    got = double_cosets_batch(pairs)
    # each distinct H's right maps over S_7, then per pair g r for each
    # generator g of G and each of the 7! / |H| coset representatives r
    size = factorial(7)
    stage_1 = size * sum(len(H.generators) for H in frees)
    stage_2 = sum(len(G.generators) * size // H.order for G, H in pairs)
    assert sum(rows) == stage_1 + stage_2
    assert got[:3] == want


def test_groups_hold_no_rank_maps_after_double_cosets():
    codes = _criterion_9_codes()
    perm_table(8)
    G, H = (PermGroup(8, automorphism_group(c).ranks) for c in codes)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert sum(size for _, size in double_cosets(G, H)) == factorial(8)
        assert len(double_cosets_batch([(G, H), (H, G), (G, G)])) == 3
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 4 * factorial(8)  # one rank map
    for group in (G, H):
        assert set(vars(group)) == {"n", "ranks", "generators"}


# ---------------------------------------------------------------------------
# known permutations: built unchecked, equal to the checked ones


def test_compose_rejects_a_length_mismatch():
    three, two = Permutation((0, 1, 2)), Permutation((1, 0))
    for a, b in ((three, two), (two, three)):
        with pytest.raises(DimensionMismatch, match="permutations on"):
            a.compose(b)
        with pytest.raises(DimensionMismatch):
            a * b
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation((0, 0))
    # a plain tuple is never composed into an unchecked permutation
    for images in ((0, 0), (1, 0)):
        with pytest.raises(TypeError):
            two.compose(images)
        with pytest.raises(TypeError):
            two * images


def test_code_actions_reject_a_length_mismatch():
    two, four = LinearCode(2, [[1, 0]]), LinearCode(2, [[1, 0, 0, 0]])
    with pytest.raises(DimensionMismatch, match="permutation on 2 points, code length 4"):
        apply_perm(Permutation((1, 0)), four)
    with pytest.raises(DimensionMismatch, match="different spaces"):
        perm_equivalent(two, four)
    with pytest.raises(DimensionMismatch, match="groups act on 2 and 4 points"):
        double_cosets(automorphism_group(two), automorphism_group(four))


def _is_checked_twin(pi: Permutation) -> bool:
    twin = Permutation(tuple(pi))
    return type(pi) is Permutation and pi == twin and hash(pi) == hash(twin)


def test_known_permutations_equal_and_hash_like_checked_ones():
    codes = _criterion_9_codes() + [LinearCode(3, [[1, 0, 2, 0], [0, 1, 0, 1]])]
    groups = [automorphism_group(c) for c in codes]
    found = []
    for G in groups:
        found += G.elements + G.generators
        found += [r for r, _ in double_cosets(G, G)]
    found += [r for r, _ in double_cosets(*groups[:2])]
    found += [x.inverse() for x in found[:200]] + [x * y for x, y in zip(found, found[1:200])]
    c1 = random_code(2, 6, np.random.default_rng(5), k=3)
    found.append(perm_equivalent(c1, _shuffled(c1, np.random.default_rng(6))))
    assert all(map(_is_checked_twin, found))


# ---------------------------------------------------------------------------
# the byte-packed parity scan and the rank maps at n = 8


def _word_key_stabilizer(code: LinearCode) -> list[int]:
    """The table rows whose word key is the code's own; shares nothing with the parity scan."""
    if code.k == code.n:  # F_p^n: every row, without a scan over p^n words per row
        return list(range(factorial(code.n)))
    keys = np.vstack([k for _, k in orbit_keys((code,))])
    return np.flatnonzero((keys == keys[0]).all(axis=1)).tolist()


def _length_8_codes() -> list[LinearCode]:
    rng = np.random.default_rng(808)
    codes = [random_code(2, 8, rng, k=k) for k in (1, 2, 3, 5, 7)]
    codes += [random_code(3, 8, rng, k=k) for k in (1, 2, 3, 4)]
    # ternary k = 1 codes have 7 checks, so their packed syndromes fill bytes 0-6
    for weight in range(1, 9):
        row = np.zeros(8, dtype=np.int64)
        row[rng.permutation(8)[:weight]] = rng.integers(1, 3, size=weight)
        codes.append(LinearCode(3, [row]))
    codes += [LinearCode.zero(p, 8) for p in (2, 3)] + [LinearCode.full(p, 8) for p in (2, 3)]
    return codes + _criterion_9_codes()


def test_packed_scan_matches_the_word_key_stabilizer_at_length_8(monkeypatch):
    codes = _length_8_codes()
    want = [_word_key_stabilizer(c) for c in codes]
    assert max(map(len, want)) == factorial(8) and min(map(len, want)) <= 2  # S_8 down to C_2

    def boom(*args, **kwargs):
        raise AssertionError("automorphism_group used the word keys")

    perms_module = import_module("symhex.perms")
    monkeypatch.setattr(perms_module, "orbit_keys", boom)
    monkeypatch.setattr(perms_module, "word_keys", boom)
    for code, members in zip(codes, want):
        assert automorphism_group(code).ranks.tolist() == members, code


def test_rank_maps_of_the_length_8_groups_are_the_composed_ranks():
    table, size = perm_table(8), factorial(8)
    sample = np.random.default_rng(88).integers(0, size, size=500).tolist()
    groups = [automorphism_group(c) for c in _criterion_9_codes()]
    groups.sort(key=lambda G: -len(G.generators))
    images = _rank_maps(groups)  # one call at n = 8
    for c, G in enumerate(groups):
        for h, image in zip(G.generators, images):
            for r in sample:
                sigma = Permutation(tuple(table[r].tolist()))
                assert image[c * size + r] == c * size + rank_images(sigma.compose(h))


def ref_residue_scan(code: LinearCode) -> np.ndarray:
    """The packed parity scan's accepted ranks with every syndrome byte reduced mod p.

    The checks come from ref_nullspace; a code with more than 8 checks is
    scanned as its dual, as automorphism_group does.
    """
    H = ref_nullspace(code.gen, code.p)[0] if code.k < code.n else np.zeros((0, code.n), int)
    gen = code.gen
    if len(H) > 8:
        H, gen = gen, H
    packed = H.T.astype(np.int64) @ (1 << 8 * np.arange(len(H), dtype=np.int64))
    table, G = perm_table(code.n), gen.T.astype(np.int64)
    kept = []
    for start in range(0, len(table), BLOCK):
        syndromes = packed[table[start : start + BLOCK]] @ G
        kept.append(start + np.flatnonzero(~(syndromes.view(np.uint8) % code.p).any(axis=1)))
    return np.concatenate(kept)


def test_binary_parity_mask_matches_the_residue_reference(monkeypatch):
    rng = np.random.default_rng(2402)
    codes = [random_code(2, n, rng, k=k) for n in range(1, 9) for k in range(n + 1)]
    codes.append(LinearCode(2, [rng.integers(0, 2, size=10) | np.eye(1, 10, 9, dtype=int)[0]]))
    assert codes[-1].n - codes[-1].k > 8  # nine checks: scanned as its dual
    # the accepted ranks, read before the group closure
    monkeypatch.setattr(import_module("symhex.perms"), "PermGroup", lambda n, ranks: ranks)
    for code in codes:
        assert automorphism_group(code).tolist() == ref_residue_scan(code).tolist(), code


# ---------------------------------------------------------------------------
# double_cosets_batch: many pairs of one n in one propagation


def _aut_pairs(n: int, count: int, rng) -> list[tuple[PermGroup, PermGroup]]:
    """Seeded Aut-group pairs with the trivial group, S_n and a repeated pair among them."""
    groups = [PermGroup(n, [0]), PermGroup(n, np.arange(factorial(n)))]
    for _ in range(count):
        p, k = int(rng.integers(2, 4)), int(rng.integers(0, min(n, 3) + 1))
        groups.append(automorphism_group(random_code(p, n, rng, k=k)))
    picks = rng.integers(0, len(groups), size=(2 * count, 2)).tolist()
    pairs = [(groups[a], groups[b]) for a, b in picks]
    trivial, full = groups[:2]
    return pairs + [(trivial, full), (full, trivial), (trivial, trivial), pairs[0]]


def _swept_double_cosets(G: PermGroup, H: PermGroup) -> list[tuple[Permutation, int]]:
    """G \\ S_n / H by min-labels over every rank under sigma -> g sigma and sigma -> sigma h.

    The maps are the ranks of g . table and of table[:, h] for each
    generator; a label falls to the least label it maps to until none
    moves, so each orbit holds its least rank.  Fast enough for n = 7.
    """
    table = perm_table(G.n)
    maps = [ranks(np.array(g)[table]) for g in G.generators]
    maps += [ranks(table[:, list(h)]) for h in H.generators]
    label = np.arange(len(table))
    while True:
        lowered = np.minimum.reduce([label] + [label[m] for m in maps])
        if np.array_equal(lowered, label):
            break
        label = lowered
    reps, sizes = np.unique(label, return_counts=True)
    return [(Permutation(tuple(table[r].tolist())), int(size)) for r, size in zip(reps, sizes)]


def test_double_cosets_batch_matches_the_bfs_and_the_single_pair_calls():
    # every ordered pair of 14 groups per n, the trivial group and S_n among
    # them; the breadth-first reference up to n = 5, the label sweep past it
    rng = np.random.default_rng(2401)
    for n in range(1, 8):
        groups = _groups_at(n, 12, rng)
        pairs = [(G, H) for G in groups for H in groups]
        counts = {len(G.generators) + len(H.generators) for G, H in pairs}
        assert len(counts) > 1 or n == 1  # pairs with different generator counts
        got = double_cosets_batch(pairs)
        reference = ref_double_cosets if n <= 5 else _swept_double_cosets
        assert got == [reference(G, H) for G, H in pairs], n
        assert got == [double_cosets(G, H) for G, H in pairs], n


def test_double_cosets_batch_spans_several_chunks(monkeypatch):
    # more distinct H than one chunk of BLOCK * 64 labels holds: each chunk
    # ranks its own H, and none is ranked twice
    rng = np.random.default_rng(2403)
    pairs = _aut_pairs(7, 90, rng)
    step = BLOCK * 64 // factorial(7)
    want = [double_cosets(G, H) for G, H in pairs]
    fresh = {id(G): PermGroup(7, G.ranks) for pair in pairs for G in pair}
    pairs = [(fresh[id(G)], fresh[id(H)]) for G, H in pairs]
    frees = list(dict.fromkeys(H for _, H in pairs))
    assert len(frees) > step
    perms_module = import_module("symhex.perms")
    chunks, real = [], perms_module._rank_maps
    monkeypatch.setattr(perms_module, "_rank_maps", lambda groups: chunks.append(groups) or real(groups))
    got = double_cosets_batch(pairs)
    assert len(chunks) == -(-len(frees) // step) and max(map(len, chunks)) == step
    assert sorted(map(id, sum(chunks, []))) == sorted(map(id, frees))
    assert got == want
    for (G, H), cosets in zip(pairs[:3], got):
        assert cosets == ref_double_cosets(G, H)
        assert sum(size for _, size in cosets) == factorial(7)


def test_double_cosets_batch_of_map_less_pairs_gives_singletons():
    # a chunk where no row has a map: every rank is its own double coset
    trivial = PermGroup(4, [0])
    got = double_cosets_batch([(trivial, trivial)] * 3)
    assert len(got) == 3
    for cosets in got:
        assert [(r.rank(), size) for r, size in cosets] == [(r, 1) for r in range(24)]


def test_double_cosets_batch_orders_the_pairs_itself():
    # given fewest maps first, the batch still reads each map over a prefix
    # of the labels, since it sorts the pairs most maps first
    rng = np.random.default_rng(2405)
    pairs = sorted(_aut_pairs(5, 6, rng), key=lambda p: len(p[0].generators) + len(p[1].generators))
    widths = [len(G.generators) + len(H.generators) for G, H in pairs]
    assert widths[0] < widths[-1]
    assert double_cosets_batch(pairs) == [ref_double_cosets(G, H) for G, H in pairs]


def test_double_cosets_batch_of_no_pairs_is_empty():
    assert double_cosets_batch([]) == []


def test_double_cosets_batch_rejects_pairs_on_different_lengths():
    two = automorphism_group(LinearCode(2, [[1, 0]]))
    four = automorphism_group(LinearCode(2, [[1, 0, 0, 0]]))
    with pytest.raises(DimensionMismatch, match="groups act on 2 and 4 points"):
        double_cosets_batch([(two, two), (four, four)])
    with pytest.raises(DimensionMismatch, match="groups act on 4 and 2 points"):
        double_cosets_batch([(four, four), (four, two)])


def test_double_cosets_batch_refuses_past_the_budget():
    # sixteen pairs of trivial groups at n = 9 would report 9! cosets each,
    # about 1.3 GB of Permutation objects; the first chunk refuses them
    trivial = PermGroup(9, [0])
    with pytest.raises(BudgetExceeded, match="^double_cosets needs"):
        double_cosets_batch([(trivial, trivial)] * 16)
