"""Classification records, verification, and its mutation sensitivity."""

from __future__ import annotations

import dataclasses
import hashlib
import os
import re
import subprocess
import sys
from fractions import Fraction
from functools import cache
from importlib import import_module
from math import factorial
from pathlib import Path

import numpy as np
import pytest

import symhex

from symhex.classify import (
    TARGETS,
    ClassificationRecord,
    _target_predicate,
    classify,
    inequivalent_reps,
    verify_classification,
    verify_lists,
)
from symhex.codes import (
    HzCode,
    equivalent,
    flags,
    is_qsd,
    is_self_dual,
    is_self_orthogonal,
    join,
    sides,
    split,
)
from symhex.errors import (
    BudgetExceeded,
    DimensionMismatch,
    LengthMismatch,
    OddLength,
    VerificationFailed,
)
from symhex.gf import LinearCode, random_code
from symhex.io import catalog_text
from symhex.perms import (
    Permutation,
    apply_perm,
    automorphism_group,
    double_cosets,
    double_cosets_batch,
    orbit_keys,
    perm_table,
    word_keys,
)
from symhex.ring import RingId
from symhex.symplectic import SymplecticSpace, count_isotropic, isotropic_subspaces

from oracles import all_permutations, ref_inequivalent_reps, ref_list_owners

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
        assert rec.code.size == 6
        assert flags(rec.code)["so"] and flags(rec.code)["qsd"]


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
    perms, classify_module = import_module("symhex.perms"), import_module("symhex.classify")
    kernels = ("automorphism_group", "double_cosets", "double_cosets_batch")
    for module, name in [(perms, name) for name in kernels] + [
        (classify_module, "automorphism_group"),
        (classify_module, "double_cosets_batch"),
    ]:
        monkeypatch.setattr(module, name, boom)
    verify_classification(records, H23, la, lb, "SO")
    with _fails(_missing(records[-1])):
        verify_classification(records[:-1], H23, la, lb, "SO")


def test_verification_checks_the_lists_from_its_own_orbits(monkeypatch):
    # the lists check must not reach _owners, the dedup that built the lists
    la, lb = _lists(4, "SO")
    records = classify(H23, la, lb, "SO")
    want = {}
    for p in (2, 3):
        for s, codes in enumerate(_seeded_lists(p)):
            lists = (codes, lb) if p == 2 else (la, codes)
            with pytest.raises(VerificationFailed) as err:
                verify_lists(*lists)
            want[p, s] = lists, str(err.value)

    def boom(*args, **kwargs):
        raise AssertionError("verification reached _owners")

    monkeypatch.setattr(import_module("symhex.classify"), "_owners", boom)
    verify_classification(records, H23, la, lb, "SO")
    for lists, message in want.values():
        assert message.startswith("lists: ")
        with _fails(message):
            verify_classification([], H23, *lists, "SO")


def test_targets_and_flags_read_the_free_component_only_through_its_dimension():
    # the fact _admissible's verdicts and the catalog's flags rest on
    def surface(p):  # every code of F_p^2
        lines = {LinearCode(p, [v]) for v in ([1, 0], [0, 1], [1, 1], [1, 2]) if max(v) < p}
        return [LinearCode.zero(p, 2), *lines, LinearCode.full(p, 2)]

    def values(code):
        return [_target_predicate(t)(code) for t in TARGETS] + list(flags(code).values())

    for la, lb in [(surface(2), surface(3)), _lists(4, "SD")]:
        for ring in (H23, H32):
            governing, free = sides(ring, la, lb)
            for g in governing:
                seen = {}
                for f in free:
                    got = values(join(ring, g, f))
                    assert seen.setdefault(f.k, got) == got


@pytest.mark.parametrize("ring, calls", [(H23, 27), (H32, 63)])
def test_admissible_runs_the_predicate_once_per_governing_and_free_dimension(monkeypatch, ring, calls):
    module = import_module("symhex.classify")
    counted = []

    def target_predicate(target):
        pred = _target_predicate(target)
        return lambda code: counted.append(code) or pred(code)

    monkeypatch.setattr(module, "_target_predicate", target_predicate)
    la, lb = _lists(4, "SO")
    got = module._admissible(ring, la, lb, "SO")
    assert len(counted) == calls and len(la) * len(lb) == 189
    pairs = [(i, j, HzCode(ring, ca, cb)) for i, ca in enumerate(la) for j, cb in enumerate(lb)]
    assert got == [(i, j, *sides(ring, i, j)) for i, j, code in pairs if is_self_orthogonal(code)]


@pytest.mark.parametrize("ring", [H23, H32])
@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("n", [2, 4])
def test_admissible_matches_the_per_pair_predicate_with_one_code_per_verdict(monkeypatch, n, target, ring):
    module = import_module("symhex.classify")
    la, lb = _lists(n, target)
    pred = _target_predicate(target)
    want = [
        (i, j, *sides(ring, i, j))
        for i, ca in enumerate(la)
        for j, cb in enumerate(lb)
        if pred(code := HzCode(ring, ca, cb))
    ]
    builds = []
    post_init = HzCode.__post_init__
    monkeypatch.setattr(HzCode, "__post_init__", lambda code: builds.append(code) or post_init(code))
    got = module._admissible(ring, la, lb, target)
    governing, free = sides(ring, la, lb)
    assert got == want
    assert 0 < len(builds) <= len(governing) * len({f.k for f in free})


def test_verification_catches_duplicate_under_nonrep_sigma():
    records = classify(H23, LA, LB, "SO")
    rec = records[2]  # pair (A1, B2) has a nontrivial sigma available
    twist = Permutation((1, 0))
    dup = dataclasses.replace(rec, sigma=twist, code=_realize(HzCode(H23, A1, B2), twist))
    assert equivalent(dup.code, rec.code) is not None
    with _fails(_duplicate(rec, dup)):
        verify_classification(records + [dup], H23, LA, LB, "SO")


def test_verification_catches_a_sigma_on_the_wrong_number_of_points():
    records = classify(H23, LA, LB, "SO")
    for r, sigma in ((0, Permutation((0,))), (3, Permutation((1, 0, 2, 3)))):
        bad = dataclasses.replace(records[r], sigma=sigma)
        with _fails(f"sound: {bad!r} has a sigma on {sigma.n} points, not 2"):
            verify_classification(records[:r] + [bad] + records[r + 1:], H23, LA, LB, "SO")


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
    lone = ClassificationRecord(1, 0, Permutation(tuple(range(2))), pair)
    with _fails(f"sound: {lone!r} cites an inadmissible pair"):
        verify_classification(records + [lone], H23, la, LB, "QSD")


def test_verification_reports_an_inadmissible_pair_before_matching_any_pair():
    # pair (0, 0) lacks a record, but the lone record of the inadmissible
    # pair (1, 0) is found first, by the pass that collects the pairs
    zero = LinearCode.zero(2, 2)
    la = [A1, zero]
    records = classify(H23, la, LB, "QSD")
    lone = ClassificationRecord(1, 0, Permutation(tuple(range(2))), HzCode(H23, zero, B1))
    with _fails(f"sound: {lone!r} cites an inadmissible pair"):
        verify_classification(records[1:] + [lone], H23, la, LB, "QSD")


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
    # moving the free side changes no flag and no size, so the catalog
    # computes flags once per pair
    la, lb = _lists(4, target)
    records = classify(ring, la, lb, target)
    assert records
    for rec in records:
        pair = HzCode(ring, la[rec.ca_index], lb[rec.cb_index])
        assert flags(rec.code) == flags(pair)
        assert rec.code.size == pair.size


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
    # the verifier would key 12! rows per entry, about 33 times the budget;
    # it refuses before any other site is reached
    la = [LinearCode.zero(2, 12)]
    lb = [LinearCode.zero(3, 12)]
    with pytest.raises(BudgetExceeded, match="^verify_classification needs"):
        verify_classification([], H23, la, lb, "SO")


def test_list_validation():
    with pytest.raises(OddLength):
        classify(H23, [LinearCode(2, [[1, 1, 0]])], [LinearCode(3, [[1, 1, 0]])], "SO")
    # a wrong field is named as such even when every length matches
    with pytest.raises(DimensionMismatch, match="^La entry 1 is a code over F3, not F2$"):
        classify(H23, [A1, B1], LB, "SO")
    with pytest.raises(DimensionMismatch, match="^Lb entry 0 is a code over F2, not F3$"):
        classify(H23, LA, [A1], "SO")
    with pytest.raises(LengthMismatch, match="^Lb entry 2 has length 4, La entry 0 has 2$"):
        classify(H23, LA, [B1, B2, LinearCode.zero(3, 4)], "SO")
    with pytest.raises(LengthMismatch, match="^La entry 0 has length 0; lengths must be positive$"):
        classify(H23, [LinearCode.zero(2, 0)], [LinearCode.zero(3, 0)], "SO")
    for la, lb in (([], [B1]), ([A1], [])):
        with pytest.raises(DimensionMismatch, match="^component lists must be nonempty$"):
            classify(H23, la, lb, "SO")


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


@pytest.mark.parametrize("p, n", [(p, n) for p in (2, 3) for n in (2, 4, 6)])
def test_isotropic_classes_carry_the_isotropic_count_as_orbit_mass(p, n):
    # a class c holds |{pi : pi . c isotropic}| / |Aut c| isotropic codes; the
    # isotropy of every pi . c is one batched Gram product over the table
    space, table = SymplecticSpace.for_length(p, n), perm_table(n)
    grams = space.gram[table[:, :, None], table[:, None, :]]  # gram[pi(i), pi(j)] per pi
    for k in range(space.m + 1):
        mass = naive = 0
        for c in inequivalent_reps(isotropic_subspaces(space, k)):
            G = c.gen.astype(np.int64)
            isotropic = np.count_nonzero(~((G @ grams @ G.T) % p).any(axis=(1, 2)))
            aut = automorphism_group(c).order
            assert isotropic % aut == 0
            mass += isotropic // aut
            naive += factorial(n) // aut
        assert mass == count_isotropic(p, space.m, k)
        if (p, n, k) == (2, 4, 2):
            # S_n moves codes out of the isotropic set, so n!/|Aut c| overcounts
            assert (naive, mass) == (27, 15)


def _seeded_lists(p: int) -> list[list[LinearCode]]:
    """20 lists at n = 4: random codes, exact repeats and permuted copies, shuffled."""
    lists = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        codes = [random_code(p, 4, rng) for _ in range(12)]
        codes += [codes[i] for i in rng.integers(0, 12, 3)]
        codes += [apply_perm(Permutation(tuple(rng.permutation(4).tolist())), codes[i])
                  for i in rng.integers(0, 12, 6)]
        lists.append([codes[i] for i in rng.permutation(len(codes))])
    return lists


@pytest.mark.parametrize("ring", [H23, H32])
def test_verifier_keys_each_list_dimension_in_one_orbit_scan(monkeypatch, ring):
    module = import_module("symhex.classify")
    la, lb = _lists(4, "SD")
    records = classify(ring, la, lb, "SD")
    scans = []
    monkeypatch.setattr(module, "orbit_keys", lambda codes: scans.append(codes) or orbit_keys(codes))
    verify_classification(records, ring, la, lb, "SD")
    groups = [tuple(c for c in lst if c.k == k) for lst in (la, lb) for k in dict.fromkeys(c.k for c in lst)]
    assert scans == groups and len(groups) < len(la) + len(lb)


@pytest.mark.parametrize("p, count, classes", [(2, 514, 31), (3, 5125, 186)])
def test_dedup_keeps_the_reference_representatives_at_length_six(p, count, classes):
    space = SymplecticSpace(p, 3)
    codes = [c for k in range(4) for c in isotropic_subspaces(space, k)]
    reps = inequivalent_reps(codes)
    assert (len(codes), len(reps)) == (count, classes)
    assert list(map(id, reps)) == list(map(id, ref_inequivalent_reps(codes)))


@pytest.mark.parametrize("p", [2, 3])
def test_dedup_keeps_the_reference_representatives_on_seeded_lists(p):
    for codes in _seeded_lists(p):
        assert list(map(id, inequivalent_reps(codes))) == list(map(id, ref_inequivalent_reps(codes)))


@pytest.mark.parametrize("p", [2, 3])
def test_list_check_names_the_reference_witness(p):
    tag = {2: "La", 3: "Lb"}[p]
    for codes in _seeded_lists(p):
        owners = ref_list_owners(codes)
        j = next(j for j, i in enumerate(owners) if i != j)
        i = owners[j]
        # the lex-first sigma carrying entry i onto entry j, by a scan of S_4
        sigma = next(s for s in all_permutations(4) if apply_perm(s, codes[i]) == codes[j])
        lists = (codes, []) if p == 2 else ([], codes)
        with pytest.raises(VerificationFailed) as err:
            verify_lists(*lists)
        assert str(err.value) == (
            f"lists: {tag} entries {i} and {j} are equivalent under {sigma.cycle_string()}"
        )
        reps = ref_inequivalent_reps(codes)
        verify_lists(*((reps, []) if p == 2 else ([], reps)))


def test_dedup_keys_each_dimension_once_and_scans_each_class_orbit_once(monkeypatch):
    module = import_module("symhex.classify")
    batches, scans = [], []
    monkeypatch.setattr(module, "word_keys", lambda codes: batches.append(codes) or word_keys(codes))
    monkeypatch.setattr(module, "orbit_keys", lambda codes: scans.append(codes) or orbit_keys(codes))
    codes = [c for k in range(4) for c in isotropic_subspaces(SymplecticSpace(2, 3), k)]
    reps = inequivalent_reps(codes)
    # the zero code is alone in its dimension and keys nothing; a class scans
    # unless no other code of its dimension is left in it or in later classes
    assert [len(b) for b in batches] == [63, 315, 135]
    owners = ref_list_owners(codes)
    want = [
        codes[i] for i in sorted(set(owners))
        if any(owners[j] >= i and c.k == codes[i].k and c != codes[i] for j, c in enumerate(codes))
    ]
    assert [c for (c,) in scans] == want
    assert len(reps) == 31 and len(want) < len(reps)


def test_dedup_and_list_checks_never_import_numpy_ma():
    # np.unique and np.isin import numpy.ma on first use, a one-time cost
    # that no pass of these paths should pay
    script = "\n".join([
        "import sys",
        "from symhex.classify import inequivalent_reps, verify_lists",
        "from symhex.symplectic import SymplecticSpace, isotropic_subspaces",
        "lists = [inequivalent_reps([c for k in range(4)"
        " for c in isotropic_subspaces(SymplecticSpace(p, 3), k)]) for p in (2, 3)]",
        "verify_lists(*lists)",
        "print('numpy.ma' in sys.modules)",
    ])
    src = str(Path(symhex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("ring, count", [(H23, 10), (H32, 86)])
def test_self_dual_classification_verified_at_length_six(ring, count):
    la, lb = _lists(6, "SD")
    records = classify(ring, la, lb, "SD")
    assert len(records) == count
    verify_classification(records, ring, la, lb, "SD")
    with _fails(_missing(records[0])):
        verify_classification(records[1:], ring, la, lb, "SD")


def test_quasi_self_dual_classification_verified_at_length_six():
    # many records a pair, where the SD lists above give 10 and 86 in all:
    # each pair's claims are ranked and matched together
    la, lb = _lists(6, "QSD")
    records = classify(H23, la, lb, "QSD")
    assert len(records) == 23_326
    verify_classification(records, H23, la, lb, "QSD")
    # both faults sit in the first admissible pair, where the verifier stops
    first = [rec for rec in records if (rec.ca_index, rec.cb_index) == (21, 100)]
    assert first == records[: len(first)]
    with _fails(_missing(records[0])):
        verify_classification(records[1:], H23, la, lb, "QSD")
    pair = HzCode(H23, la[21], lb[100])
    rec, tau = next(
        (rec, pi * rec.sigma)
        for rec in first
        for pi in automorphism_group(split(pair)[0])
        if _realize(pair, pi * rec.sigma) != rec.code
    )
    dup = dataclasses.replace(rec, sigma=tau, code=_realize(pair, tau))
    with _fails(_duplicate(rec, dup)):
        verify_classification(records + [dup], H23, la, lb, "QSD")


def test_self_orthogonal_records_at_length_six_are_pinned():
    # the scale where the double-coset kernel runs several chunks whose
    # pairs read different numbers of maps; the digest of the records' (ca,
    # cb, sigma) was taken from an earlier kernel, which a rewrite must match
    la, lb = _lists(6, "SO")
    records = classify(H32, la, lb, "SO")
    assert len(records) == 83_741
    key = repr([(r.ca_index, r.cb_index, tuple(r.sigma)) for r in records])
    assert hashlib.sha256(key.encode()).hexdigest() == (
        "066cd0091203dcbad2d7b42381601f00a46d51a46605a8d19a6ef4b743f24e97"
    )
    # and the bytes of its catalog, so the writer is pinned past n = 4
    text = catalog_text(H32, 6, "SO", records, la, lb)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
        "acc16c8e9206c8066984e913eb70256204883fa165c79db6d90c0546312f883e"
    )


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

    def counted(pairs):
        calls.append([(G.ranks.tobytes(), H.ranks.tobytes()) for G, H in pairs])
        return double_cosets_batch(pairs)

    monkeypatch.setattr(module, "double_cosets_batch", counted)
    la, lb = _lists(4, "SO")
    pairs = [HzCode(ring, ca, cb) for ca in la for cb in lb]
    admissible = [pair for pair in pairs if is_self_orthogonal(pair)]
    distinct = {
        tuple(automorphism_group(c).ranks.tobytes() for c in split(pair)) for pair in admissible
    }
    assert (len(admissible), len(distinct)) == (189, 105)

    records = classify(ring, la, lb, "SO")
    # one kernel call carrying each distinct pair once
    assert len(calls) == 1
    assert len(calls[0]) == len(set(calls[0])) == len(distinct)
    assert set(calls[0]) == distinct
    # nothing outlives a call: a second call computes every pair again
    calls.clear()
    assert classify(ring, la, lb, "SO") == records
    assert len(calls) == 1 and len(calls[0]) == len(distinct)

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
                want.append((i, j, sigma, code))
    got = [tuple(getattr(r, f.name) for f in dataclasses.fields(r)) for r in records]
    assert got == want


@pytest.mark.parametrize("n", [2, 4])
def test_classify_does_not_depend_on_list_order(n):
    # the criterion-8 lists, shuffled: the same classes, read through the new indices
    rng = np.random.default_rng(4000 + n)
    for ring in (H23, H32):
        for target in TARGETS:
            la, lb = _lists(n, target)
            want = {(la[r.ca_index], lb[r.cb_index], r.sigma, r.code) for r in classify(ring, la, lb, target)}
            sla = [la[t] for t in rng.permutation(len(la))]
            slb = [lb[t] for t in rng.permutation(len(lb))]
            records = classify(ring, sla, slb, target)
            assert {(sla[r.ca_index], slb[r.cb_index], r.sigma, r.code) for r in records} == want
            order = [(r.ca_index, r.cb_index, r.sigma.rank()) for r in records]
            assert order == sorted(order)
            verify_classification(records, ring, sla, slb, target)


@pytest.mark.parametrize("n", [2, 4])
def test_each_pairs_double_coset_sizes_sum_to_n_factorial(n):
    # the mass identity: a pair's records are one sigma per double coset
    # Aut(g) sigma Aut(f), of size |Aut g| |Aut f| / |Aut g & Aut(sigma . f)|,
    # and the double cosets partition S_n
    for ring in (H23, H32):
        for target in TARGETS:
            la, lb = _lists(n, target)
            pred = _target_predicate(target)
            by_pair: dict[tuple[int, int], list[ClassificationRecord]] = {}
            for rec in classify(ring, la, lb, target):
                by_pair.setdefault((rec.ca_index, rec.cb_index), []).append(rec)
            admissible = [
                (i, j) for i, ca in enumerate(la) for j, cb in enumerate(lb) if pred(HzCode(ring, ca, cb))
            ]
            assert list(by_pair) == admissible
            for (i, j), mine in by_pair.items():
                g, f = split(HzCode(ring, la[i], lb[j]))
                G, H = automorphism_group(g), automorphism_group(f)
                mass = Fraction(0)
                for rec in mine:
                    moved = automorphism_group(apply_perm(rec.sigma, f))
                    mass += Fraction(G.order * H.order, len(np.intersect1d(G.ranks, moved.ranks)))
                assert mass == factorial(n), (ring, target, i, j)


def test_classify_hashes_no_linear_code(monkeypatch):
    # admissible pairs stay list indices up to the records, so neither the
    # Aut groups nor the realized free components are cached by code
    la, lb = _lists(4, "SO")
    want = [classify(ring, la, lb, "SO") for ring in (H23, H32)]

    def boom(self):
        raise AssertionError("classify hashed a LinearCode")

    monkeypatch.setattr(LinearCode, "__hash__", boom)
    assert [classify(ring, la, lb, "SO") for ring in (H23, H32)] == want
