"""Exact mod-p linear algebra: canonical forms, membership, nullspaces."""

from __future__ import annotations

import ast
import inspect
from itertools import product

import numpy as np
import pytest

from symhex.errors import BudgetExceeded, DimensionMismatch
from symhex.gf import (
    MAX_LENGTH,
    LinearCode,
    all_vectors,
    integers,
    nullspace,
    places,
    random_code,
    rref,
)

from oracles import intersect_dim, ref_nullspace, span_union


def test_rref_examples():
    R, piv = rref([[1, 1], [0, 0]], 2)
    assert R.tolist() == [[1, 1]] and piv == (0,)
    R, piv = rref([[1, 0], [1, 1]], 2)
    assert R.tolist() == [[1, 0], [0, 1]] and piv == (0, 1)
    # leading entries get normalized: 2^-1 = 2 mod 3
    R, piv = rref([[2, 1]], 3)
    assert R.tolist() == [[1, 2]] and piv == (0,)


def test_rref_stops_once_every_row_has_a_pivot(monkeypatch):
    calls = []
    real = np.nonzero
    monkeypatch.setattr(np, "nonzero", lambda a: calls.append(1) or real(a))
    R, piv = rref(np.zeros((0, 10**6), dtype=np.int64), 2)  # no rows: no column scanned
    assert R.shape == (0, 10**6) and piv == () and calls == []
    R, piv = rref(np.eye(2, 10**6, dtype=np.int64), 3)
    assert R.shape == (2, 10**6) and piv == (0, 1) and len(calls) == 2


def test_rref_canonical_under_row_shuffles():
    rng = np.random.default_rng(7)
    for p in (2, 3):
        for _ in range(50):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(1, n + 1))
            M = rng.integers(0, p, size=(k, n))
            R1, _ = rref(M, p)
            # shuffle rows and mix in a random row combination
            M2 = M[rng.permutation(k)]
            extra = (M2.sum(axis=0, keepdims=True)) % p
            R2, _ = rref(np.vstack([M2, extra]), p)
            assert np.array_equal(R1, R2)


def test_code_equality_is_row_space_equality():
    c1 = LinearCode(2, [[1, 0], [0, 1]])
    c2 = LinearCode(2, [[1, 1], [0, 1]])
    assert c1 == c2
    assert hash(c1) == hash(c2)
    assert c1 != LinearCode(2, [[1, 1]])
    assert LinearCode(2, [[1, 1]]) != LinearCode(3, [[1, 1]])
    # the generator bytes are empty for every zero code: p and n tell them apart
    z = LinearCode.zero(2, 2)
    assert z == LinearCode.zero(2, 2) and hash(z) == hash(LinearCode.zero(2, 2))
    assert z != LinearCode.zero(2, 3) and z != LinearCode.zero(3, 2)
    assert LinearCode.zero(2, 0) == LinearCode.full(2, 0)
    # equal codes from different generators hash alike
    rng = np.random.default_rng(57)
    for p in (2, 3):
        for _ in range(10):
            c = random_code(p, 5, rng)
            mixed = (rng.integers(0, p, size=(c.k + 2, c.k)) @ c.gen) % p
            other = LinearCode(p, np.vstack([mixed, c.gen]), n=5)
            assert other == c and hash(other) == hash(c)


def test_zero_and_full_are_first_class():
    z = LinearCode.zero(3, 4)
    f = LinearCode.full(3, 4)
    assert z.k == 0 and z.size == 1 and z.is_zero()
    assert f.k == 4 and f.size == 81 and f.is_full()
    assert z.codewords().tolist() == [[0, 0, 0, 0]]
    assert [0, 0, 0, 0] in z
    assert [1, 2, 0, 1] in f
    # a zero row collapses to the zero code
    assert LinearCode(2, [[0, 0, 0, 0]]) == LinearCode.zero(2, 4)


def test_contains_matches_bruteforce():
    rng = np.random.default_rng(11)
    for p in (2, 3):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            code = random_code(p, n, rng)
            words = {tuple(int(x) for x in w) for w in code.codewords()}
            for v in all_vectors(p, n):
                assert (tuple(int(x) for x in v) in words) == code.contains(v)


def test_codewords_are_message_ordered():
    code = LinearCode(3, [[1, 0, 2], [0, 1, 1]])
    words = code.codewords()
    assert len(words) == 9
    # first block fixes the first message symbol at 0
    assert words[0].tolist() == [0, 0, 0]
    assert words[1].tolist() == [0, 1, 1]
    assert words[3].tolist() == [1, 0, 2]
    assert len({tuple(w) for w in words.tolist()}) == 9


def test_codeword_budget():
    # 3^15 codewords at 375 bytes each, about 5 times the byte budget
    with pytest.raises(BudgetExceeded, match="budget"):
        LinearCode.full(3, 15).codewords()


def test_places_read_all_vectors_rows_as_their_index():
    for p, n in ((2, 0), (2, 5), (3, 4)):
        place = places(p, n)
        assert places(p, n) is place and not place.flags.writeable
        assert place.dtype == np.int64
        assert (all_vectors(p, n) @ place).tolist() == list(range(p**n))


def test_all_vectors_is_cached_and_read_only():
    first = all_vectors(3, 4)
    assert all_vectors(3, 4) is first
    assert not first.flags.writeable
    for _ in range(2):  # the budget check runs before anything is cached
        with pytest.raises(BudgetExceeded):
            all_vectors(3, 16)  # 3^16 rows at 280 bytes, about 11 times the budget


def test_nullspace_examples():
    # dual of the repetition code under the identity form is itself (F2)
    c = LinearCode(2, [[1, 1]])
    assert c.dual_wrt(np.eye(2, dtype=int)) == c
    assert LinearCode.full(2, 2).dual_wrt(np.eye(2, dtype=int)) == LinearCode.zero(2, 2)
    d = LinearCode(3, [[1, 1, 1]]).dual_wrt(np.eye(3, dtype=int))
    assert d == LinearCode(3, [[1, 0, 2], [0, 1, 2]])


def test_nullspace_rank_nullity():
    rng = np.random.default_rng(13)
    for p in (2, 3):
        for _ in range(30):
            n = int(rng.integers(1, 7))
            code = random_code(p, n, rng)
            dual = code.dual_wrt(np.eye(n, dtype=int))
            assert code.k + dual.k == n
            # orthogonality holds word by word
            G, H = code.gen.astype(int), dual.gen.astype(int)
            assert not ((G @ H.T) % p).any()


def test_nullspace_of_zero_map():
    B, pivots = nullspace(np.zeros((0, 3), dtype=int), 2)
    assert B.tolist() == np.eye(3, dtype=int).tolist() and pivots == (0, 1, 2)


def _same_nullspace(mat, p):
    B, pivots = nullspace(mat, p)
    want, want_pivots = ref_nullspace(mat, p)
    assert B.dtype == want.dtype == np.int8
    assert B.shape == want.shape and B.tobytes() == want.tobytes()
    assert not B.flags.writeable and not want.flags.writeable
    assert pivots == want_pivots and all(type(c) is int for c in pivots)


@pytest.mark.parametrize("p,rows,cols", [(2, 3, 4), (3, 2, 3)])
def test_nullspace_matches_the_two_pass_reference_exhaustively(p, rows, cols):
    for entries in product(range(p), repeat=rows * cols):
        _same_nullspace(np.array(entries).reshape(rows, cols), p)


def test_nullspace_matches_the_two_pass_reference_on_random_matrices():
    rng = np.random.default_rng(29)
    for p in (2, 3):
        for shape in ((0, 0), (2, 0)):
            _same_nullspace(np.zeros(shape, dtype=int), p)
        for cols in range(1, 9):
            for rows in range(cols + 2):  # zero rows up to more rows than columns
                for _ in range(6):
                    _same_nullspace(rng.integers(0, p, size=(rows, cols)), p)


def test_nullspace_writes_its_basis_without_a_python_loop():
    tree = ast.parse(inspect.getsource(nullspace))
    loops = (ast.For, ast.While, ast.comprehension)
    assert not [node for node in ast.walk(tree) if isinstance(node, loops)]


def test_from_rref_builds_the_codes_rref_would():
    mats = np.array([[[1, 0, 2, 0], [0, 1, 1, 0]], [[1, 0, 0, 1], [0, 1, 2, 2]]])
    codes = LinearCode.from_rref(3, mats, (0, 1))
    for code, mat in zip(codes, mats):
        ref = LinearCode(3, mat, n=4)
        assert code._key == ref._key and code.pivots == ref.pivots == (0, 1)
        assert code.gen.dtype == np.int8 and not code.gen.flags.writeable
    assert LinearCode.from_rref(2, np.zeros((1, 0, 3), dtype=int), ()) == [LinearCode.zero(2, 3)]
    assert LinearCode.from_rref(2, np.zeros((0, 2, 3), dtype=int), (0, 1)) == []


@pytest.mark.parametrize(
    "mat,pivots",
    [
        ([[1, 0, 1], [1, 0, 1]], (0, 2)),
        ([[1, 1, 0], [0, 0, 2]], (0, 2)),
        ([[1, 1, 1], [0, 0, 1]], (0, 2)),
        ([[1, 1, 0], [0, 0, 1]], (0, 1)),
        ([[1, 3, 0], [0, 0, 1]], (0, 2)),
    ],
    ids=["nonzero left of a pivot", "pivot entry 2", "pivot column not cleared",
         "wrong pivots", "entry out of range"],
)
def test_from_rref_rejects_a_matrix_not_in_rref(mat, pivots):
    good = np.zeros((2, 3), dtype=int)
    good[[0, 1], pivots] = 1  # in RREF with these pivots, so not the witness
    with pytest.raises(ValueError, match=r"not in RREF with pivots \(%d, %d\)" % pivots) as err:
        LinearCode.from_rref(3, np.array([good, mat, mat]), pivots)
    assert str(mat) in str(err.value)  # the first bad matrix is the witness


def test_from_rref_rejects_pivot_tuples_that_do_not_fit():
    mats = np.array([[[1, 0, 0], [0, 0, 1]]])
    for pivots in ((0,), (0, 2, 2), (2, 0), (0, 3), (-1, 2)):
        with pytest.raises(ValueError, match="do not fit"):
            LinearCode.from_rref(2, mats, pivots)
    with pytest.raises(DimensionMismatch):
        LinearCode.from_rref(2, mats[0], (0, 2))


def test_from_rref_refuses_non_integer_entries_and_pivots():
    # truncated, the entries would build <101> and the pivot 0.9 would read as 0
    for mats, pivots in (([[[1.0, 0, 1]]], (0,)), ([[[1, 0, 1]]], (0.9,)), ([[["1", "0"]]], (0,))):
        with pytest.raises(ValueError, match="^entries must be integers"):
            LinearCode.from_rref(2, np.array(mats), pivots)
    # bool and every integer dtype pass, and so do numpy integer pivots
    want = [LinearCode(2, [[1, 0, 1]])]
    for dtype in (bool, np.uint8, np.int8, np.int64):
        mats = np.array([[[1, 0, 1]]], dtype=dtype)
        assert LinearCode.from_rref(2, mats, (0,)) == want
        assert LinearCode.from_rref(2, mats, np.array([0])) == want
    assert integers(mats) is mats  # an int64 batch is checked without a copy


def test_immutable():
    c = LinearCode(2, [[1, 1]])
    with pytest.raises(AttributeError):
        c.n = 5
    with pytest.raises(ValueError):
        c.gen[0, 0] = 0


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        LinearCode(2, [[1, 1]], n=3)
    with pytest.raises(DimensionMismatch):
        LinearCode(2, [[1, 1]]).contains([1, 0, 0])
    with pytest.raises(DimensionMismatch, match="explicit n"):
        LinearCode(2, [1, 0])  # one row given as a flat vector, and no n
    with pytest.raises(DimensionMismatch, match="expected a matrix"):
        rref(np.array([1, 0]), 2)
    with pytest.raises(ValueError):
        LinearCode(5, [[1, 1]])


def test_non_integer_entries_are_refused():
    # truncated, [[1.5, 0]] would build <10> and [0.5, 0] would lie in it
    for bad in ([[1.5, 0]], [[1.0, 0.0]], np.array([[1, 0]], dtype=float), [["1", "0"]]):
        with pytest.raises(ValueError, match="^entries must be integers"):
            LinearCode(2, bad)
    code = LinearCode(2, [[1, 0]])
    for bad in ([0.5, 0], [1.0, 0.0], ["1", "0"]):
        with pytest.raises(ValueError, match="^entries must be integers"):
            code.contains(bad)
    # bool and every integer dtype pass; an empty list is still the zero code
    assert LinearCode(2, [[True, False]]) == LinearCode(2, np.array([[1, 0]], dtype=np.uint8)) == code
    assert code.contains(np.array([1, 0], dtype=np.int8)) and not code.contains([False, True])
    assert LinearCode(2, [], n=3) == LinearCode.zero(2, 3)


# unchecked, a float p gives a float size and fails in rref's pow, and a
# float n fails in reshape or passes for a whole value
NON_INTEGER_ARGUMENTS = {
    "float p": lambda: LinearCode(2.0, [], n=2),
    "numpy float p": lambda: LinearCode(np.float64(3), [[1, 2]]),
    "fractional n": lambda: LinearCode(3, [], n=2.5),
    "fractional n of the zero code": lambda: LinearCode.zero(2, 2.5),
    "whole float n": lambda: LinearCode(2, [[1, 0]], n=2.0),
}


@pytest.mark.parametrize("case", NON_INTEGER_ARGUMENTS)
def test_a_non_integer_field_or_length_raises_value_error(case):
    with pytest.raises(ValueError, match="^arguments must be integers"):
        NON_INTEGER_ARGUMENTS[case]()


def test_numpy_integer_fields_and_lengths_are_read_as_ints():
    code = LinearCode.from_rref(np.int64(3), np.array([[[1, 2]]]), (0,))[0]
    assert type(code.p) is int and code == LinearCode(3, [[1, 2]])
    for p, n in ((np.int8(2), np.int64(3)), (2, np.uint8(3))):
        assert LinearCode.zero(p, n) == LinearCode.zero(2, 3)


def test_dual_wrt_refuses_a_gram_that_is_not_integer():
    # truncated, 0.5 I read as the zero form, whose dual is F_2^2
    with pytest.raises(ValueError, match="^entries must be integers"):
        LinearCode(2, [[1, 1]]).dual_wrt(0.5 * np.eye(2))


def test_dual_wrt_refuses_a_gram_of_another_size():
    with pytest.raises(DimensionMismatch, match=r"gram has shape \(3, 3\), expected \(2, 2\)"):
        LinearCode(2, [[1, 1]]).dual_wrt(np.eye(3, dtype=np.int64))


def test_span_and_intersection():
    a = LinearCode(2, [[1, 0, 0, 0], [0, 1, 0, 0]])
    b = LinearCode(2, [[0, 1, 0, 0], [0, 0, 1, 0]])
    assert span_union(a, b).k == 3
    assert intersect_dim(a, b) == 1
    assert intersect_dim(a, LinearCode.zero(2, 4)) == 0


def test_lengths_past_the_bound_raise_symhex_errors():
    assert LinearCode.zero(2, MAX_LENGTH).n == MAX_LENGTH
    for make in (lambda: LinearCode.zero(2, 10**20), lambda: LinearCode.full(3, 2000)):
        with pytest.raises(BudgetExceeded, match=str(MAX_LENGTH)):
            make()
    with pytest.raises(DimensionMismatch):
        LinearCode.zero(2, -1)
    with pytest.raises(DimensionMismatch):
        LinearCode(2, [1, 0], n=2)  # one row given as a flat vector


def test_full_space_is_built_once_per_field_and_length():
    assert LinearCode.full(3, 4) is LinearCode.full(3, 4)
    assert LinearCode.full(2, 4) is not LinearCode.full(3, 4)
    assert LinearCode.full(2, 5) == LinearCode(2, np.eye(5, dtype=int))
