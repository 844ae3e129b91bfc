"""Classification records, verification, and its mutation sensitivity."""

from __future__ import annotations

import dataclasses
import re
from functools import cache
from importlib import import_module

import pytest

from symhex.classify import (
    TARGETS,
    ClassificationRecord,
    _target_predicate,
    classify,
    inequivalent_reps,
    verify_classification,
)
from symhex.codes import (
    HzCode,
    equivalent,
    flags,
    is_qsd,
    is_self_dual,
    is_self_orthogonal,
    join,
    split,
)
from symhex.errors import BudgetExceeded, DimensionMismatch, OddLength, VerificationFailed
from symhex.gf import LinearCode
from symhex.perms import (
    Permutation,
    apply_perm,
    automorphism_group,
    double_cosets,
)
from symhex.ring import RingId
from symhex.symplectic import SymplecticSpace, isotropic_subspaces

from oracles import all_permutations

H23, H32 = RingId.H23, RingId.H32

# the five length-2 component codes of the worked classification
A1 = LinearCode(2, [[1, 0]])
A2 = LinearCode(2, [[1, 1]])
B1 = LinearCode(3, [[1, 0]])
B2 = LinearCode(3, [[1, 1]])
B3 = LinearCode(3, [[1, 2]])
LA = [A1, A2]
LB = [B1, B2, B3]


def _realize(pair: HzCode, sigma: Permutation) -> HzCode:
    """The code of pair with sigma applied to its free component."""
    governing, free = split(pair)
    return join(pair.ring, governing, apply_perm(sigma, free))


@cache
def _iso_classes(p: int, n: int) -> list[LinearCode]:
    space = SymplecticSpace.for_length(p, n)
    return inequivalent_reps([c for k in range(space.m + 1) for c in isotropic_subspaces(space, k)])


def _fails(message: str):
    """Expect VerificationFailed with exactly this message: the check's name, then its witness."""
    return pytest.raises(VerificationFailed, match=f"^{re.escape(message)}$")


def _missing(rec: ClassificationRecord) -> str:
    # the dropped record's sigma is the lex-first member of the class no record claims
    pair = f"({rec.ca_index}, {rec.cb_index})"
    return f"complete: pair {pair} under {rec.sigma.cycle_string()} has no equivalent record"


def _duplicate(rec: ClassificationRecord, dup: ClassificationRecord) -> str:
    sigma = equivalent(rec.code, dup.code).cycle_string()
    return f"irredundant: records {rec!r} and {dup!r} are equivalent under {sigma}"


def _lists(n: int, target: str) -> tuple[list[LinearCode], list[LinearCode]]:
    """La and Lb of criterion 8: the isotropic classes, plus the full spaces for SD."""
    full = [LinearCode.full(2, n)], [LinearCode.full(3, n)]
    extra = full if target == "SD" else ([], [])
    return _iso_classes(2, n) + extra[0], _iso_classes(3, n) + extra[1]


def test_component_automorphism_orders():
    assert [automorphism_group(c).order for c in LA] == [1, 2]
    assert [automorphism_group(c).order for c in LB] == [1, 2, 2]


def test_seven_codes_at_length_two():
    records = classify(H23, LA, LB, "SO")
    assert len(records) == 7
    counts = {}
    for rec in records:
        counts[(rec.ca_index, rec.cb_index)] = counts.get((rec.ca_index, rec.cb_index), 0) + 1
    assert counts == {(0, 0): 2, (0, 1): 1, (0, 2): 1, (1, 0): 1, (1, 1): 1, (1, 2): 1}
    # realized component pairs, in record order
    got = [(rec.code.ca, rec.code.cb) for rec in records]
    want = [
        (A1, B1),
        (A1, LinearCode(3, [[0, 1]])),
        (A1, B2),
        (A1, B3),
        (A2, B1),
        (A2, B2),
        (A2, B3),
    ]
    assert got == want
    for rec in records:
        assert is_self_orthogonal(rec.code)
        assert rec.size == 6
        assert rec.flags["so"] and rec.flags["qsd"]


def test_records_ordered_and_counted_by_double_cosets():
    records = classify(H23, LA, LB, "SO")
    keys = [(r.ca_index, r.cb_index, r.sigma.rank()) for r in records]
    assert keys == sorted(keys)
    for i, ca in enumerate(LA):
        for j, cb in enumerate(LB):
            per_pair = [r for r in records if (r.ca_index, r.cb_index) == (i, j)]
            cosets = double_cosets(automorphism_group(ca), automorphism_group(cb))
            assert len(per_pair) == len(cosets)


def test_self_dual_target():
    records = classify(H23, [A2], [LinearCode.full(3, 2)], "SD")
    assert len(records) == 1
    rec = records[0]
    assert rec.sigma == Permutation(tuple(range(2)))
    assert is_self_dual(rec.code)
    verify_classification(records, H23, [A2], [LinearCode.full(3, 2)], "SD")


def test_h32_moves_the_binary_side():
    # over H32 the ternary component governs, so sigma must act on ca
    records = classify(H32, [A1], [B1], "SO")
    assert len(records) == 2
    assert {r.code.ca for r in records} == {A1, LinearCode(2, [[0, 1]])}
    assert all(r.code.cb == B1 for r in records)
    for r in records:
        assert is_self_orthogonal(r.code)
    verify_classification(records, H32, [A1], [B1], "SO")


def test_admissibility():
    # a pair is admissible when its unpermuted code meets the target
    def admissible(ring, ca, cb, target):
        return _target_predicate(target)(HzCode(ring, ca, cb))

    assert admissible(H23, A1, B1, "SO")
    assert admissible(H23, A2, LinearCode.full(3, 2), "SD")
    assert not admissible(H23, A2, B1, "SD")  # ternary side not full
    assert not admissible(H23, LinearCode.full(2, 2), B1, "SO")
    assert admissible(H32, A1, B1, "QSD")
    assert not admissible(H32, LinearCode.zero(2, 2), B1, "QSD")
    with pytest.raises(ValueError):
        admissible(H23, A1, B1, "XX")
    with pytest.raises(ValueError):
        classify(H23, LA, LB, "XX")
    with pytest.raises(ValueError):
        verify_classification([], H23, LA, LB, "XX")


def test_verification_passes_for_fresh_output():
    records = classify(H23, LA, LB, "SO")
    verify_classification(records, H23, LA, LB, "SO")


def test_verification_catches_dropped_record():
    records = classify(H23, LA, LB, "SO")
    for i, rec in enumerate(records):
        with _fails(_missing(rec)):
            verify_classification(records[:i] + records[i + 1:], H23, LA, LB, "SO")


def test_verification_is_independent_of_aut_groups_and_double_cosets(monkeypatch):
    # the verifier is the oracle for classify, so it must not reach the
    # kernels classify is built on
    def iso_reps(p):
        space = SymplecticSpace.for_length(p, 4)
        return inequivalent_reps([c for k in range(3) for c in isotropic_subspaces(space, k)])

    la, lb = iso_reps(2), iso_reps(3)
    records = classify(H23, la, lb, "SO")

    def boom(*args, **kwargs):
        raise AssertionError("verification reached a classify kernel")

    # symhex.classify the attribute is the function; the module is in sys.modules
    for module in (import_module("symhex.perms"), import_module("symhex.classify")):
        monkeypatch.setattr(module, "automorphism_group", boom)
        monkeypatch.setattr(module, "double_cosets", boom)
    verify_classification(records, H23, la, lb, "SO")
    with _fails(_missing(records[-1])):
        verify_classification(records[:-1], H23, la, lb, "SO")


def test_verification_catches_duplicate_under_nonrep_sigma():
    records = classify(H23, LA, LB, "SO")
    rec = records[2]  # pair (A1, B2) has a nontrivial sigma available
    twist = Permutation((1, 0))
    dup = dataclasses.replace(rec, sigma=twist, code=_realize(HzCode(H23, A1, B2), twist))
    assert equivalent(dup.code, rec.code) is not None
    with _fails(_duplicate(rec, dup)):
        verify_classification(records + [dup], H23, LA, LB, "SO")


def test_verification_catches_misstated_catalog_fields():
    records = classify(H23, LA, LB, "SO")
    rec = records[0]
    for bad in (
        dataclasses.replace(rec, flags={**rec.flags, "lcd": not rec.flags["lcd"]}),
        dataclasses.replace(rec, size=rec.size + 1),
        dataclasses.replace(rec, ring=H32),
        dataclasses.replace(rec, n=4),
    ):
        with _fails(f"sound: {bad!r} misstates its ring, length, size or flags"):
            verify_classification([bad] + records[1:], H23, LA, LB, "SO")


def test_verification_catches_a_record_outside_the_lists():
    records = classify(H23, LA, LB, "SO")
    for bad in (
        dataclasses.replace(records[0], ca_index=len(LA)),
        dataclasses.replace(records[-1], cb_index=-1),
    ):
        with _fails(f"sound: {bad!r} points outside the lists"):
            verify_classification(records + [bad], H23, LA, LB, "SO")


def test_verification_catches_a_code_realized_under_another_sigma():
    for ring in (H23, H32):
        la, lb = _lists(4, "SO")
        records = classify(ring, la, lb, "SO")
        checked = 0
        for r in range(0, len(records), 53):
            rec = records[r]
            pair = HzCode(ring, la[rec.ca_index], lb[rec.cb_index])
            realized = (_realize(pair, tau) for tau in all_permutations(4))
            other = next((code for code in realized if code != rec.code), None)
            if other is None:
                continue
            bad = dataclasses.replace(rec, code=other)
            with _fails(f"sound: {bad!r} does not match its stated pair"):
                verify_classification(records[:r] + [bad] + records[r + 1:], ring, la, lb, "SO")
            checked += 1
        assert checked >= 5


def test_verification_catches_a_permuted_governing_component():
    for ring in (H23, H32):
        la, lb = _lists(4, "SO")
        records = classify(ring, la, lb, "SO")
        checked = 0
        for r, rec in enumerate(records):
            g, f = split(rec.code)
            pi = next((pi for pi in all_permutations(4) if apply_perm(pi, g) != g), None)
            if pi is None:
                continue
            # the governing side alone, the whole code (an equivalent code), and
            # the same components read over the other ring, where the other one governs
            other_ring = H32 if ring is H23 else H23
            for code in (
                join(ring, apply_perm(pi, g), f),
                join(ring, apply_perm(pi, g), apply_perm(pi, f)),
                HzCode(other_ring, rec.code.ca, rec.code.cb),
            ):
                bad = dataclasses.replace(rec, code=code)
                with _fails(f"sound: {bad!r} does not match its stated pair"):
                    verify_classification(records[:r] + [bad] + records[r + 1:], ring, la, lb, "SO")
            checked += 1
            if checked == 4:
                break
        assert checked == 4


def test_verification_catches_a_lone_record_of_an_inadmissible_pair():
    zero = LinearCode.zero(2, 2)
    la = [A1, zero]
    records = classify(H23, la, LB, "QSD")
    assert records and all(rec.ca_index == 0 for rec in records)
    verify_classification(records, H23, la, LB, "QSD")
    pair = HzCode(H23, zero, B1)
    assert not is_qsd(pair)
    lone = ClassificationRecord(
        ring=H23,
        n=2,
        ca_index=1,
        cb_index=0,
        sigma=Permutation(tuple(range(2))),
        code=pair,
        flags=flags(pair),
        size=pair.size,
    )
    with _fails(f"sound: {lone!r} cites an inadmissible pair"):
        verify_classification(records + [lone], H23, la, LB, "QSD")


def test_verification_catches_a_duplicate_under_the_governing_stabilizer():
    # pi in Stab(g) carries (g, sigma . f) to (g, pi sigma . f): the same class
    la, lb = _lists(4, "SO")
    records = classify(H23, la, lb, "SO")
    found = 0
    for rec in records:
        pair = HzCode(H23, la[rec.ca_index], lb[rec.cb_index])
        for pi in automorphism_group(split(pair)[0]):
            dup = dataclasses.replace(rec, sigma=pi * rec.sigma, code=_realize(pair, pi * rec.sigma))
            if dup.code != rec.code:
                assert pi != Permutation(tuple(range(pi.n)))
                assert equivalent(rec.code, dup.code) is not None
                with _fails(_duplicate(rec, dup)):
                    verify_classification(records + [dup], H23, la, lb, "SO")
                found += 1
                break
        if found == 4:
            break
    assert found == 4


@pytest.mark.parametrize("ring", [H23, H32])
@pytest.mark.parametrize("target", TARGETS)
def test_record_flags_are_the_flags_of_the_record_code(ring, target):
    # classify computes flags once per pair; moving the free side changes none
    records = classify(ring, *_lists(4, target), target)
    assert records
    for rec in records:
        assert rec.flags == flags(rec.code)
        assert rec.size == rec.code.size


def test_flags_and_classify_never_build_a_dual(monkeypatch):
    # the predicates are rank tests on the governing component, never a dual
    lists = {target: _lists(4, target) for target in TARGETS}
    want = {
        (ring, target): classify(ring, la, lb, target)
        for ring in (H23, H32)
        for target, (la, lb) in lists.items()
    }

    def boom(*args, **kwargs):
        raise AssertionError("a predicate built a symplectic dual")

    monkeypatch.setattr(SymplecticSpace, "dual", boom)
    monkeypatch.setattr(import_module("symhex.gf"), "nullspace", boom)
    for (ring, target), records in want.items():
        la, lb = lists[target]
        for ca in la:
            for cb in lb:
                flags(HzCode(ring, ca, cb))
        assert classify(ring, la, lb, target) == records


def test_verification_catches_equivalent_list_entries():
    bad_lb = [B1, LinearCode(3, [[0, 1]])]  # equivalent pair
    records = classify(H23, [A1], bad_lb, "SO")
    with _fails("lists: Lb entries 0 and 1 are equivalent under (1 2)"):
        verify_classification(records, H23, [A1], bad_lb, "SO")


def test_verification_catches_wrong_flag_target():
    # SO records that are not QSD must fail a QSD verification
    la = [LinearCode.zero(2, 2)]
    records = classify(H23, la, LB, "SO")
    assert records and all(not is_qsd(r.code) for r in records)
    with _fails(f"sound: {records[0]!r} cites an inadmissible pair"):
        verify_classification(records, H23, la, LB, "QSD")


def test_verification_budget():
    la = [LinearCode.zero(2, 8)]
    lb = [LinearCode.zero(3, 8)]
    with pytest.raises(BudgetExceeded):
        verify_classification([], H23, la, lb, "SO")


def test_list_validation():
    with pytest.raises(OddLength):
        classify(H23, [LinearCode(2, [[1, 1, 0]])], [LinearCode(3, [[1, 1, 0]])], "SO")
    with pytest.raises(Exception):
        classify(H23, [], [B1], "SO")


def test_inequivalent_reps_on_isotropic_lines():
    lines = isotropic_subspaces(SymplecticSpace(2, 2), 1)
    reps = inequivalent_reps(lines)
    # binary lines of length 4 fall into the four weight classes
    assert len(lines) == 15 and len(reps) == 4
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            from symhex.perms import perm_equivalent

            assert perm_equivalent(reps[i], reps[j]) is None


def test_inequivalent_reps_rejects_mixed_spaces():
    with pytest.raises(DimensionMismatch):
        inequivalent_reps([A1, B1])
    with pytest.raises(DimensionMismatch):
        inequivalent_reps([A1, LinearCode(2, [[1, 0, 0, 0]])])


def test_inequivalent_reps_of_isotropic_subspaces_at_length_six():
    assert (len(_iso_classes(2, 6)), len(_iso_classes(3, 6))) == (31, 186)


@pytest.mark.parametrize("ring, count", [(H23, 10), (H32, 86)])
def test_self_dual_classification_verified_at_length_six(ring, count):
    la, lb = _lists(6, "SD")
    records = classify(ring, la, lb, "SD")
    assert len(records) == count
    verify_classification(records, ring, la, lb, "SD")
    with _fails(_missing(records[0])):
        verify_classification(records[1:], ring, la, lb, "SD")


@pytest.mark.parametrize("target", TARGETS)
def test_every_record_satisfies_its_target(target):
    la = inequivalent_reps(
        [c for k in range(2) for c in isotropic_subspaces(SymplecticSpace(2, 1), k)]
    )
    lb = inequivalent_reps(
        [c for k in range(2) for c in isotropic_subspaces(SymplecticSpace(3, 1), k)]
    )
    if target == "SD":
        la = la + [LinearCode(2, [[1, 1]])]
        lb = lb + [LinearCode.full(3, 2)]
        la = inequivalent_reps(la)
        lb = inequivalent_reps(lb)
    pred = {"SO": is_self_orthogonal, "QSD": is_qsd, "SD": is_self_dual}[target]
    records = classify(H23, la, lb, target)
    for rec in records:
        assert pred(rec.code)


def test_classify_realizes_each_free_component_and_sigma_once(monkeypatch):
    module = import_module("symhex.classify")
    calls = []

    def counted(sigma, code):
        calls.append((sigma, code))
        return apply_perm(sigma, code)

    monkeypatch.setattr(module, "apply_perm", counted)
    la, lb = _lists(4, "SO")
    records = classify(H32, la, lb, "SO")
    assert len(records) == 423
    # over H32 the binary side is free, so a realization is fixed by (ca, sigma)
    assert len(calls) == len({(r.ca_index, r.sigma) for r in records}) == 43
    assert [rec.code for rec in records] == [
        _realize(HzCode(H32, la[r.ca_index], lb[r.cb_index]), r.sigma) for r in records
    ]


@pytest.mark.parametrize("ring", [H23, H32])
def test_classify_computes_double_cosets_once_per_distinct_group_pair(monkeypatch, ring):
    module = import_module("symhex.classify")
    calls = []

    def counted(G, H):
        calls.append((G.ranks.tobytes(), H.ranks.tobytes()))
        return double_cosets(G, H)

    monkeypatch.setattr(module, "double_cosets", counted)
    la, lb = _lists(4, "SO")
    pairs = [HzCode(ring, ca, cb) for ca in la for cb in lb]
    admissible = [pair for pair in pairs if is_self_orthogonal(pair)]
    distinct = {
        tuple(automorphism_group(c).ranks.tobytes() for c in split(pair)) for pair in admissible
    }
    assert (len(admissible), len(distinct)) == (189, 105)

    records = classify(ring, la, lb, "SO")
    assert len(calls) == len(set(calls)) == len(distinct)
    assert set(calls) == distinct
    # nothing outlives a call: a second call computes every pair again
    calls.clear()
    assert classify(ring, la, lb, "SO") == records
    assert len(calls) == len(distinct)

    # the same records, field by field, as a loop without any cache
    want = []
    for i, ca in enumerate(la):
        for j, cb in enumerate(lb):
            pair = HzCode(ring, ca, cb)
            if not is_self_orthogonal(pair):
                continue
            governing, free = split(pair)
            for sigma, _ in double_cosets(automorphism_group(governing), automorphism_group(free)):
                code = join(ring, governing, apply_perm(sigma, free))
                want.append((ring, 4, i, j, sigma, code, flags(pair), pair.size))
    got = [tuple(getattr(r, f.name) for f in dataclasses.fields(r)) for r in records]
    assert got == want
