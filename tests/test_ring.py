"""Ring arithmetic against the published six-element tables."""

from __future__ import annotations

import pytest

from symhex.errors import IdealMismatch, RingMismatch
from symhex.ring import (
    A,
    B,
    D,
    ELEMENTS,
    J_A,
    J_B,
    RingId,
    ZERO,
    add,
    addition_table,
    compose,
    decompose,
    from_symbol,
    mul,
    multiplication_table,
    neg,
    scalar_act,
)

RINGS = (RingId.H23, RingId.H32)

# frozen oracle tables, rows and columns ordered 0 a b c d e;
# addition is shared by both rings
ADD_TABLE = [
    "0abcde",
    "a0cbed",
    "bcde0a",
    "cbeda0",
    "de0abc",
    "eda0cb",
]

MUL_TABLE = {
    RingId.H23: [
        "000000",
        "0a0a0a",
        "000000",
        "0a0a0a",
        "000000",
        "0a0a0a",
    ],
    RingId.H32: [
        "000000",
        "000000",
        "00bbdd",
        "00bbdd",
        "00ddbb",
        "00ddbb",
    ],
}


def test_addition_matches_table():
    table = addition_table()
    for i in range(6):
        for j in range(6):
            assert table[i][j].symbol == ADD_TABLE[i][j]


@pytest.mark.parametrize("ring", RINGS)
def test_multiplication_matches_table(ring):
    table = multiplication_table(ring)
    for i in range(6):
        for j in range(6):
            assert table[i][j].symbol == MUL_TABLE[ring][i][j]


@pytest.mark.parametrize("ring", RINGS)
def test_ring_laws_exhaustive(ring):
    for u in ELEMENTS:
        for v in ELEMENTS:
            assert add(u, v) == add(v, u)
            assert mul(ring, u, v) == mul(ring, v, u)
            for w in ELEMENTS:
                assert add(add(u, v), w) == add(u, add(v, w))
                assert mul(ring, mul(ring, u, v), w) == mul(ring, u, mul(ring, v, w))
                assert mul(ring, u, add(v, w)) == add(mul(ring, u, v), mul(ring, u, w))


def test_additive_group():
    for u in ELEMENTS:
        assert add(u, ZERO) == u
        assert add(u, neg(u)) == ZERO


@pytest.mark.parametrize("ring", RINGS)
def test_no_unit_element(ring):
    # non-unital: no element acts as identity on all six
    for e in ELEMENTS:
        assert any(mul(ring, e, u) != u for u in ELEMENTS)


def test_generator_relations():
    # 2a = 0, 3b = 0, ab = 0 in both rings; idempotency depends on the ring
    assert add(A, A) == ZERO
    assert add(B, add(B, B)) == ZERO
    for ring in RINGS:
        assert mul(ring, A, B) == ZERO
        assert mul(ring, B, A) == ZERO
    assert mul(RingId.H23, A, A) == A
    assert mul(RingId.H23, B, B) == ZERO
    assert mul(RingId.H32, A, A) == ZERO
    assert mul(RingId.H32, B, B) == B


def test_decompose_compose_bijection():
    seen = set()
    for x in range(2):
        for y in range(3):
            u = compose(x, y)
            assert decompose(u) == (x, y)
            seen.add(u)
    assert seen == set(ELEMENTS)


def test_decompose_is_additive():
    for u in ELEMENTS:
        for v in ELEMENTS:
            xu, yu = decompose(u)
            xv, yv = decompose(v)
            assert decompose(add(u, v)) == ((xu + xv) % 2, (yu + yv) % 3)


def test_symbols():
    assert [e.symbol for e in ELEMENTS] == ["0", "a", "b", "c", "d", "e"]
    assert from_symbol("d") == D
    with pytest.raises(ValueError):
        from_symbol("x")


def test_ideals_annihilate_each_other():
    for ring in RINGS:
        for u in J_A:
            for v in J_B:
                assert mul(ring, u, v) == ZERO
                assert mul(ring, v, u) == ZERO


def test_scalar_action():
    assert scalar_act(2, 1, A) == A
    assert scalar_act(2, 0, A) == ZERO
    assert scalar_act(3, 2, B) == D
    assert scalar_act(3, 2, D) == B
    with pytest.raises(IdealMismatch):
        scalar_act(2, 1, B)
    with pytest.raises(IdealMismatch):
        scalar_act(3, 1, A)
    with pytest.raises(ValueError):
        scalar_act(5, 1, A)


def test_a_ring_given_as_a_string_is_refused():
    # "H23" once fell through `ring is RingId.H23` and multiplied as H32
    assert mul(RingId.H23, A, A) == A
    for call in (lambda: mul("H23", A, A), lambda: multiplication_table("H23")):
        with pytest.raises(RingMismatch, match="^ring must be a RingId, got 'H23'$"):
            call()
