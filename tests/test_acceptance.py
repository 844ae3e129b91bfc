"""End-to-end acceptance checks, one per delivered capability.

Each test prints a single ``criterion N (...): PASS|FAIL`` line with its
wall-clock time, so a ``pytest -v -s`` run reads as a checklist.  The
limits are generous; they exist to catch order-of-magnitude regressions.
Expected values are either published tables, frozen outputs of the
brute-force oracles in this repository, or counts with closed forms.
"""

from __future__ import annotations

import re
import time
from hashlib import sha256
from math import factorial

import pytest

from symhex import io
from symhex.classify import classify, inequivalent_reps, verify_classification
from symhex.codes import (
    HzWord,
    build,
    dual,
    dual_bruteforce,
    enumerate_words,
    euclidean_inner,
    is_euclidean_self_orthogonal,
    is_lcd,
    is_lcd_bruteforce,
    is_nice,
    is_nice_bruteforce,
    is_qsd,
    is_qsd_bruteforce,
    is_self_dual,
    is_self_dual_bruteforce,
    is_self_orthogonal,
    is_self_orthogonal_bruteforce,
    word_set,
)
from symhex.errors import VerificationFailed
from symhex.gf import LinearCode
from symhex.perms import automorphism_group, double_cosets
from symhex.ring import (
    A,
    ELEMENTS,
    RingId,
    add,
    addition_table,
    decompose,
    mul,
    multiplication_table,
)
from symhex.symplectic import SymplecticSpace, count_isotropic, isotropic_subspaces

H23, H32 = RingId.H23, RingId.H32
RINGS = (H23, H32)


def _finish(num: int, label: str, t0: float, limit: float, failures: list[str]) -> None:
    """Print the one-line verdict, then assert it."""
    elapsed = time.perf_counter() - t0
    if elapsed > limit:
        failures.append(f"took {elapsed:.1f}s, limit {limit:.0f}s")
    status = "PASS" if not failures else "FAIL"
    tail = "" if not failures else "  " + failures[0]
    print(f"\ncriterion {num} ({label}): {status} [{elapsed:.2f}s]{tail}")
    assert not failures, f"criterion {num} ({label}): " + "; ".join(failures[:5])


def _gens(code: LinearCode) -> str:
    if code.k == 0:
        return "0"
    return ",".join("".join(str(int(v)) for v in row) for row in code.gen)


# ---------------------------------------------------------------------------
# 1: ring arithmetic reproduces the six-element tables and the ring laws

ADD_TABLE = ["0abcde", "a0cbed", "bcde0a", "cbeda0", "de0abc", "eda0cb"]
MUL_TABLE = {
    H23: ["000000", "0a0a0a", "000000", "0a0a0a", "000000", "0a0a0a"],
    H32: ["000000", "000000", "00bbdd", "00bbdd", "00ddbb", "00ddbb"],
}


def test_criterion_1_ring_tables():
    t0 = time.perf_counter()
    failures: list[str] = []

    table = addition_table()
    for i in range(6):
        for j in range(6):
            if table[i][j].symbol != ADD_TABLE[i][j]:
                failures.append(f"add[{i}][{j}] = {table[i][j].symbol}")
    for ring in RINGS:
        table = multiplication_table(ring)
        for i in range(6):
            for j in range(6):
                if table[i][j].symbol != MUL_TABLE[ring][i][j]:
                    failures.append(f"{ring} mul[{i}][{j}] = {table[i][j].symbol}")

    for ring in RINGS:
        for x in ELEMENTS:
            for y in ELEMENTS:
                if mul(ring, x, y) != mul(ring, y, x):
                    failures.append(f"{ring}: {x.symbol}*{y.symbol} not commutative")
                for z in ELEMENTS:
                    if add(add(x, y), z) != add(x, add(y, z)):
                        failures.append("addition not associative")
                    if mul(ring, mul(ring, x, y), z) != mul(ring, x, mul(ring, y, z)):
                        failures.append(f"{ring}: multiplication not associative")
                    lhs = mul(ring, x, add(y, z))
                    rhs = add(mul(ring, x, y), mul(ring, x, z))
                    if lhs != rhs:
                        failures.append(f"{ring}: distributivity fails")
        # no unit: every candidate fails on some element
        units = [
            u for u in ELEMENTS
            if all(mul(ring, u, x) == x for x in ELEMENTS)
        ]
        if units:
            failures.append(f"{ring}: unexpected unit {units[0].symbol}")

    _finish(1, "ring tables and laws", t0, 1.0, failures)


# ---------------------------------------------------------------------------
# 2: the length-2 repetition pair and its dual, word for word

R2_DUAL_WORDS = {
    "00", "0b", "0d", "b0", "bb", "bd", "d0", "db", "dd",
    "aa", "ac", "ae", "ca", "cc", "ce", "ea", "ec", "ee",
}


def test_criterion_2_repetition_pair():
    t0 = time.perf_counter()
    failures: list[str] = []

    rep2 = LinearCode(2, [[1, 1]])
    rep3 = LinearCode(3, [[1, 1]])
    code = build(H23, rep2, rep3)
    words = {str(w) for w in enumerate_words(code)}
    if words != {"00", "aa", "bb", "cc", "dd", "ee"}:
        failures.append(f"words {sorted(words)}")
    d = dual(code)
    if not (d.ca == rep2 and d.cb.is_full()):
        failures.append("dual components wrong")
    if {str(w) for w in word_set(d)} != R2_DUAL_WORDS:
        failures.append("dual word set differs from the frozen 18")
    if word_set(d) != dual_bruteforce(code):
        failures.append("dual disagrees with the brute-force oracle")
    if not (is_self_orthogonal(code) and is_qsd(code) and not is_self_dual(code)):
        failures.append("expected SO and QSD but not SD")
    if dual(dual(code)) == code:
        failures.append("double dual should move the code (free side not full)")

    # mirrored ring: the free side swaps
    code32 = build(H32, rep2, rep3)
    d32 = dual(code32)
    if not (d32.ca.is_full() and d32.cb == rep3):
        failures.append("mirrored dual components wrong")

    _finish(2, "repetition pair", t0, 1.0, failures)


# ---------------------------------------------------------------------------
# 3: the length-4 coordinate pair separates symplectic from Euclidean

def test_criterion_3_coordinate_pair():
    t0 = time.perf_counter()
    failures: list[str] = []

    ca = LinearCode(2, [[1, 0, 0, 0], [0, 1, 0, 0]])
    cb = LinearCode(3, [[1, 0, 0, 0], [0, 1, 0, 0]])
    code = build(H23, ca, cb)
    if code.size != 36 or len(enumerate_words(code)) != 36:
        failures.append(f"size {code.size}")
    if not is_self_orthogonal(code):
        failures.append("not symplectically self-orthogonal")
    if not is_qsd(code):
        failures.append("not QSD")
    if is_self_dual(code):
        failures.append("should not be SD")
    w = HzWord.from_symbols(H23, "a000")
    if euclidean_inner(w, w) != A:
        failures.append(f"<a000, a000> = {euclidean_inner(w, w).symbol}")
    if is_euclidean_self_orthogonal(code):
        failures.append("Euclidean self-orthogonality should fail")

    _finish(3, "coordinate pair, symplectic vs Euclidean", t0, 1.0, failures)


# ---------------------------------------------------------------------------
# 4: the seven self-orthogonal codes at length 2 from two-by-three lists

def test_criterion_4_seven_codes():
    t0 = time.perf_counter()
    failures: list[str] = []

    la = [LinearCode(2, [[1, 0]]), LinearCode(2, [[1, 1]])]
    lb = [LinearCode(3, [[1, 0]]), LinearCode(3, [[1, 1]]), LinearCode(3, [[1, 2]])]
    if [automorphism_group(c).order for c in la] != [1, 2]:
        failures.append("binary automorphism orders")
    if [automorphism_group(c).order for c in lb] != [1, 2, 2]:
        failures.append("ternary automorphism orders")

    records = classify(H23, la, lb, "SO")
    if len(records) != 7:
        failures.append(f"{len(records)} records, expected 7")
    counts: dict[tuple[int, int], int] = {}
    for rec in records:
        counts[(rec.ca_index, rec.cb_index)] = counts.get((rec.ca_index, rec.cb_index), 0) + 1
    want_counts = {(0, 0): 2, (0, 1): 1, (0, 2): 1, (1, 0): 1, (1, 1): 1, (1, 2): 1}
    if counts != want_counts:
        failures.append(f"per-pair counts {counts}")
    want_pairs = [
        (la[0], lb[0]),
        (la[0], LinearCode(3, [[0, 1]])),
        (la[0], lb[1]),
        (la[0], lb[2]),
        (la[1], lb[0]),
        (la[1], lb[1]),
        (la[1], lb[2]),
    ]
    got_pairs = [(rec.code.ca, rec.code.cb) for rec in records]
    if got_pairs != want_pairs:
        failures.append("realized component pairs differ")
    verify_classification(records, H23, la, lb, "SO")

    _finish(4, "seven codes at length 2", t0, 1.0, failures)


# ---------------------------------------------------------------------------
# 5: structural dual equals the definitional dual on a broad surface

def test_criterion_5_dual_oracle(pair_surface_n2, pair_surface_n4):
    t0 = time.perf_counter()
    failures: list[str] = []
    checked = 0

    for ring in RINGS:
        pairs = list(pair_surface_n2) + pair_surface_n4[ring]
        for ca, cb in pairs:
            code = build(ring, ca, cb)
            d = dual(code)
            if word_set(d) != dual_bruteforce(code):
                failures.append(
                    f"{ring} ca=[{_gens(ca)}] cb=[{_gens(cb)}]: dual mismatch"
                )
                continue
            free_full = cb.is_full() if ring is H23 else ca.is_full()
            if (dual(dual(code)) == code) != free_full:
                failures.append(
                    f"{ring} ca=[{_gens(ca)}] cb=[{_gens(cb)}]: involution test"
                )
            checked += 1

    if checked < 2 * (30 + 200):
        failures.append(f"only {checked} pairs checked")
    _finish(5, f"dual oracle, {checked} pairs", t0, 120.0, failures)


# ---------------------------------------------------------------------------
# 6: predicate characterizations match the definitions; the parity claim

def test_criterion_6_predicate_oracle(pair_surface_n2, pair_surface_n4):
    t0 = time.perf_counter()
    failures: list[str] = []
    twins = [
        ("so", is_self_orthogonal, is_self_orthogonal_bruteforce),
        ("sd", is_self_dual, is_self_dual_bruteforce),
        ("qsd", is_qsd, is_qsd_bruteforce),
        ("nice", is_nice, is_nice_bruteforce),
        ("lcd", is_lcd, is_lcd_bruteforce),
    ]

    checked = 0
    for ring in RINGS:
        pairs = list(pair_surface_n2) + pair_surface_n4[ring]
        for ca, cb in pairs:
            code = build(ring, ca, cb)
            for name, fast, slow in twins:
                if fast(code) != slow(code):
                    failures.append(
                        f"{ring} ca=[{_gens(ca)}] cb=[{_gens(cb)}]: "
                        f"{name} characterization disagrees with definition"
                    )
            if is_qsd(code) and is_self_dual(code):
                failures.append(
                    f"{ring} ca=[{_gens(ca)}] cb=[{_gens(cb)}]: QSD and SD together"
                )
            checked += 1

    # claimed: no H32 code at length n = 2 mod 4 is SD or QSD.  Checked
    # against the definitional oracle like everything else above.
    for ca, cb in pair_surface_n2:
        code = build(H32, ca, cb)
        for name, fast, slow in (twins[1], twins[2]):
            if fast(code):
                witness = "confirmed by word enumeration" if slow(code) else "oracle disagrees"
                failures.append(
                    f"parity claim: H32 n=2 ca=[{_gens(ca)}] cb=[{_gens(cb)}] "
                    f"is {name.upper()} ({witness})"
                )

    _finish(6, f"predicate oracle, {checked} pairs", t0, 300.0, failures)


# ---------------------------------------------------------------------------
# 7: isotropic subspace counts, closed form against enumeration

COUNT_ANCHORS = {(2, 1, 1): 3, (2, 2, 2): 15, (3, 1, 1): 4}


def test_criterion_7_isotropic_counts():
    t0 = time.perf_counter()
    failures: list[str] = []

    for (p, m, k), want in COUNT_ANCHORS.items():
        got = count_isotropic(p, m, k)
        if got != want:
            failures.append(f"count({p}, {m}, {k}) = {got}, anchor {want}")

    for p, m_max in ((2, 3), (3, 2)):
        for m in range(1, m_max + 1):
            space = SymplecticSpace.for_length(p, 2 * m)
            for k in range(m + 1):
                formula = count_isotropic(p, m, k)
                listed = len(list(isotropic_subspaces(space, k)))
                if formula != listed:
                    failures.append(
                        f"p={p} m={m} k={k}: formula {formula}, enumerated {listed}"
                    )

    _finish(7, "isotropic counts", t0, 60.0, failures)


# ---------------------------------------------------------------------------
# 8: classification verifies at lengths 2 and 4 and catches mutations

# record counts frozen from verified runs (verification sweeps all of S_n)
CLASS_COUNTS = {
    (2, H23, "SO"): 13, (2, H32, "SO"): 13,
    (2, H23, "QSD"): 7, (2, H32, "QSD"): 7,
    (2, H23, "SD"): 2, (2, H32, "SD"): 3,
    (4, H23, "SO"): 423, (4, H32, "SO"): 423,
    (4, H23, "QSD"): 158, (4, H32, "QSD"): 158,
    (4, H23, "SD"): 4, (4, H32, "SD"): 12,
}

# sha256 of each catalog's canonical text, frozen from the same runs
CATALOG_SHA256 = {
    (2, H23, "SO"): "bcfd5f0d4124c195bbf9505f1d791f78d0d6702c93f4647a71f4f79d88c3b8fc",
    (2, H32, "SO"): "0f61b9a16fdd855f12fe02259a7acc321a01c879b4ccdeb1cc19ac497ad41cce",
    (2, H23, "QSD"): "db887e667b648e6f24462930dd3220aeda70353cbba9d7e260cc4db3227339ce",
    (2, H32, "QSD"): "99002962cfa66ede301a100f3b9177b781ec8b8b0f033cf04941f582e693865a",
    (2, H23, "SD"): "a81c1409e83dbc77b82db3be7314f9eb20d7456929102af923ac8e4725eaf4a8",
    (2, H32, "SD"): "58d0b39b24cf38eff980292d12b26a3a4b7900db69e96900430ec75c1fdd9cf4",
    (4, H23, "SO"): "6895c6935f3f27323f37e0b49d41c34fe285b1b6245f701cca254e390c7a4ba5",
    (4, H32, "SO"): "6fc7e9b760df898483df42985457ca2540d07b909d99cfc378b98a1ee54e3526",
    (4, H23, "QSD"): "7e3ff6fb95a1b989d3be55b6d5eb23dd72288b832459d41ee6fd038af303a1ef",
    (4, H32, "QSD"): "372c74315c5086d70b1384687a4f7c23acd240ef5799b15e75bbb8b527070dee",
    (4, H23, "SD"): "d48910e97f7c904dcfdfc9c3ec50d91fb3bac61931d4826008601db5aee9948c",
    (4, H32, "SD"): "a00c6fc1e1c52399160835363b68be6d147e832d9f6e78babe52a35dd1859c9d",
}


def _iso_classes(p: int, n: int) -> list[LinearCode]:
    space = SymplecticSpace.for_length(p, n)
    codes = [c for k in range(space.m + 1) for c in isotropic_subspaces(space, k)]
    return inequivalent_reps(codes)


def test_criterion_8_classification_verified():
    t0 = time.perf_counter()
    failures: list[str] = []

    for n in (2, 4):
        la = _iso_classes(2, n)
        lb = _iso_classes(3, n)
        la_sd = la + [LinearCode.full(2, n)]
        lb_sd = lb + [LinearCode.full(3, n)]
        for ring in RINGS:
            for target, xla, xlb in (("SO", la, lb), ("QSD", la, lb), ("SD", la_sd, lb_sd)):
                records = classify(ring, xla, xlb, target)
                want = CLASS_COUNTS[(n, ring, target)]
                if len(records) != want:
                    failures.append(
                        f"n={n} {ring} {target}: {len(records)} records, frozen {want}"
                    )
                text = io.catalog_text(ring, n, target, records, xla, xlb)
                if sha256(text.encode("ascii")).hexdigest() != CATALOG_SHA256[(n, ring, target)]:
                    failures.append(f"n={n} {ring} {target}: catalog bytes changed")
                verify_classification(records, ring, xla, xlb, target)

    # mutations must be caught, each by its check: a dropped record and a duplicated record
    la = _iso_classes(2, 2)
    lb = _iso_classes(3, 2)
    records = classify(H23, la, lb, "SO")
    first = records[0]
    pair = f"({first.ca_index}, {first.cb_index})"
    dropped = f"complete: pair {pair} under {first.sigma.cycle_string()} has no equivalent record"
    with pytest.raises(VerificationFailed, match=f"^{re.escape(dropped)}$"):
        verify_classification(records[1:], H23, la, lb, "SO")
    twins = f"irredundant: records {first!r} and {first!r} are equivalent under e"
    with pytest.raises(VerificationFailed, match=f"^{re.escape(twins)}$"):
        verify_classification(records + [first], H23, la, lb, "SO")

    _finish(8, "classification verified, lengths 2 and 4", t0, 600.0, failures)


# ---------------------------------------------------------------------------
# 9: length-8 components, automorphisms and double cosets at full scale

def test_criterion_9_length8_scale():
    t0 = time.perf_counter()
    failures: list[str] = []

    # four disjoint pairs: permutations of the blocks wreath the pair swaps
    ca = LinearCode(2, [
        [1, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 1],
    ])
    # weight-6 repetition: stabilizer splits the support from the rest
    cb = LinearCode(3, [[1, 1, 1, 1, 1, 1, 0, 0]])

    ga = automorphism_group(ca)
    gb = automorphism_group(cb)
    if ga.order != 2**4 * factorial(4):
        failures.append(f"|Aut(ca)| = {ga.order}")
    if gb.order != factorial(6) * factorial(2):
        failures.append(f"|Aut(cb)| = {gb.order}")

    cosets = double_cosets(ga, gb)
    sizes = sorted(size for _, size in cosets)
    if sum(sizes) != factorial(8):
        failures.append(f"coset sizes sum to {sum(sizes)}")
    if sizes != [5760, 34560]:
        failures.append(f"coset sizes {sizes}, frozen [5760, 34560]")

    _finish(9, "length-8 scale", t0, 60.0, failures)
