"""Classification of component pairs up to coordinate permutation.

Fixing inequivalent component lists La (binary) and Lb (ternary), the
codes built from a fixed admissible pair (Ca, Cb) fall into permutation
classes indexed by double cosets: sigma and tau realize equivalent codes
exactly when tau lies in Aut(fixed) sigma Aut(moved).  One record is
emitted per double coset, with sigma its lexicographically smallest
member.

The permutation is applied to the free component (see codes.split), the
one the symplectic form does not see.  Symplectic self-orthogonality is
not preserved by arbitrary coordinate permutations, so moving the
governing component could silently leave the target class; moving the
free one cannot.  The double coset count is the same either way round.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cache

from .codes import (
    HzCode,
    equivalent,
    flags,
    is_qsd,
    is_self_dual,
    is_self_orthogonal,
    join,
    split,
)
from .errors import BudgetExceeded, DimensionMismatch, LengthMismatch, OddLength
from .gf import LinearCode
from .perms import (
    Permutation,
    all_permutations,
    apply_perm,
    automorphism_group,
    double_cosets,
    perm_equivalent,
)
from .ring import RingId

log = logging.getLogger(__name__)

TARGETS = ("SO", "QSD", "SD")

_VERIFY_MAX_N = 6


@dataclass(frozen=True)
class ClassificationRecord:
    ring: RingId
    n: int
    ca_index: int
    cb_index: int
    sigma: Permutation
    code: HzCode
    flags: dict
    size: int

    def __repr__(self) -> str:
        return (
            f"Record(ca={self.ca_index}, cb={self.cb_index}, "
            f"sigma={self.sigma.cycle_string()}, size={self.size})"
        )


def _check_lists(la: list[LinearCode], lb: list[LinearCode]) -> int:
    if not la or not lb:
        raise DimensionMismatch("component lists must be nonempty")
    n = la[0].n
    if any(c.p != 2 or c.n != n for c in la) or any(c.p != 3 or c.n != n for c in lb):
        raise LengthMismatch("all list entries must share one length, F2 then F3")
    if n == 0:
        raise LengthMismatch("length must be positive")
    if n % 2:
        raise OddLength(f"length must be even, got {n}")
    return n


def _target_predicate(target: str):
    """The codes predicate a target names; the one place targets are checked."""
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}, got {target!r}")
    return {"SO": is_self_orthogonal, "QSD": is_qsd, "SD": is_self_dual}[target]


def _realize(pair: HzCode, sigma: Permutation) -> HzCode:
    """The code of pair with sigma applied to its free component."""
    governing, free = split(pair)
    return join(pair.ring, governing, apply_perm(sigma, free))


def classify(
    ring: RingId,
    la: list[LinearCode],
    lb: list[LinearCode],
    target: str = "SO",
) -> list[ClassificationRecord]:
    """One record per inequivalent realization of each admissible pair.

    The caller supplies La and Lb already deduplicated up to permutation
    equivalence (inequivalent_reps does this).  Records come out ordered by
    (ca index, cb index, sigma rank).
    """
    n = _check_lists(la, lb)
    pred = _target_predicate(target)
    aut = cache(automorphism_group)

    records: list[ClassificationRecord] = []
    for i, ca in enumerate(la):
        for j, cb in enumerate(lb):
            pair = HzCode(ring, ca, cb)
            if not pred(pair):
                continue
            governing, free = split(pair)
            for sigma, _size in double_cosets(aut(governing), aut(free)):
                code = _realize(pair, sigma)
                assert is_self_orthogonal(code)
                records.append(
                    ClassificationRecord(
                        ring=ring,
                        n=n,
                        ca_index=i,
                        cb_index=j,
                        sigma=sigma,
                        code=code,
                        flags=flags(code),
                        size=code.size,
                    )
                )
    return records


def verify_classification(
    records: list[ClassificationRecord],
    ring: RingId,
    la: list[LinearCode],
    lb: list[LinearCode],
    target: str = "SO",
) -> bool:
    """Independent check of a classification: sound, irredundant, complete.

    Soundness: every record's code satisfies the target predicate and is
    built from its stated pair.  Irredundancy: records of the same pair are
    pairwise inequivalent under an exhaustive permutation search; records
    of different pairs cannot collide because componentwise equivalence
    would force their components equivalent, and the lists are checked to
    be inequivalent up front.  Completeness: for every admissible pair and
    every sigma in S_n, the realized code is equivalent to some record.
    """
    n = _check_lists(la, lb)
    if n > _VERIFY_MAX_N:
        raise BudgetExceeded(f"full verification guarded to n <= {_VERIFY_MAX_N}")
    pred = _target_predicate(target)

    for lst, tag in ((la, "La"), (lb, "Lb")):
        for i in range(len(lst)):
            for j in range(i + 1, len(lst)):
                if perm_equivalent(lst[i], lst[j]) is not None:
                    log.warning("%s entries %d and %d are equivalent", tag, i, j)
                    return False

    by_pair: dict[tuple[int, int], list[ClassificationRecord]] = {}
    for rec in records:
        if not (0 <= rec.ca_index < len(la) and 0 <= rec.cb_index < len(lb)):
            log.warning("record %r points outside the lists", rec)
            return False
        pair = HzCode(ring, la[rec.ca_index], lb[rec.cb_index])
        if not pred(pair):
            log.warning("record %r cites an inadmissible pair", rec)
            return False
        if rec.code != _realize(pair, rec.sigma):
            log.warning("record %r does not match its stated pair", rec)
            return False
        if not pred(rec.code):
            log.warning("record %r fails the %s predicate", rec, target)
            return False
        by_pair.setdefault((rec.ca_index, rec.cb_index), []).append(rec)

    for recs in by_pair.values():
        for i in range(len(recs)):
            for j in range(i + 1, len(recs)):
                if equivalent(recs[i].code, recs[j].code) is not None:
                    log.warning("records %r and %r are equivalent", recs[i], recs[j])
                    return False

    perms = list(all_permutations(n))
    for i, ca in enumerate(la):
        for j, cb in enumerate(lb):
            pair = HzCode(ring, ca, cb)
            if not pred(pair):
                continue
            mine = by_pair.get((i, j), [])
            for sigma in perms:
                code = _realize(pair, sigma)
                if not any(equivalent(code, rec.code) is not None for rec in mine):
                    log.warning(
                        "pair (%d, %d) with sigma %s has no equivalent record",
                        i, j, sigma.cycle_string(),
                    )
                    return False
    return True


def inequivalent_reps(codes: list[LinearCode]) -> list[LinearCode]:
    """Greedy dedup of a code list up to coordinate permutation."""
    kept: list[LinearCode] = []
    for c in codes:
        if not any(perm_equivalent(c, k) is not None for k in kept):
            kept.append(c)
    return kept
