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

Within one classify call each Aut group is computed once per component,
equal groups are interned by their member ranks, the double cosets are
enumerated once per (governing group, free group) pair and each (free
component, sigma) is realized once, however many pairs share them; the
groups cache their double coset maps themselves.  None of these caches
outlives the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

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
from .errors import BudgetExceeded, DimensionMismatch, LengthMismatch, OddLength, VerificationFailed
from .gf import LinearCode
from .perms import (
    PermGroup,
    Permutation,
    apply_perm,
    automorphism_group,
    double_cosets,
    orbit_keys,
    perm_equivalent,
    perm_table,
    ranks,
    word_key,
)
from .ring import RingId

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
    groups: dict[bytes, PermGroup] = {}

    @cache
    def aut(code: LinearCode) -> PermGroup:
        group = automorphism_group(code)
        return groups.setdefault(group.ranks.tobytes(), group)

    # interned groups are equal exactly when they are the same object
    cosets = cache(double_cosets)
    moved = cache(apply_perm)

    records: list[ClassificationRecord] = []
    for i, ca in enumerate(la):
        for j, cb in enumerate(lb):
            pair = HzCode(ring, ca, cb)
            if not pred(pair):
                continue
            # sigma moves only the free side and keeps its dimension, so every
            # realization has the pair's flags and size
            fl = flags(pair)
            governing, free = split(pair)
            for sigma, _size in cosets(aut(governing), aut(free)):
                records.append(
                    ClassificationRecord(
                        ring=ring,
                        n=n,
                        ca_index=i,
                        cb_index=j,
                        sigma=sigma,
                        code=join(ring, governing, moved(sigma, free)),
                        flags=dict(fl),
                        size=pair.size,
                    )
                )
    return records


def _claim(owner: dict[bytes, int], i: int, codes: tuple[LinearCode, ...]) -> int:
    """The index owning the codes' word key; when none does, i claims their S_n orbit."""
    o = owner.setdefault(word_key(codes).tobytes(), i)
    if o == i:
        for _, keys in orbit_keys(codes):
            owner.update(dict.fromkeys(map(bytes, keys), i))
    return o


def check_verify_budget(n: int) -> None:
    """Raise BudgetExceeded when length-n classifications are beyond full verification."""
    if n > _VERIFY_MAX_N:
        raise BudgetExceeded(f"full verification guarded to n <= {_VERIFY_MAX_N}")


def verify_classification(
    records: list[ClassificationRecord],
    ring: RingId,
    la: list[LinearCode],
    lb: list[LinearCode],
    target: str = "SO",
) -> None:
    """Independent check of a classification: sound, irredundant, complete.

    Returns None; a failed check raises VerificationFailed whose message
    starts with the check's name (lists, sound, irredundant, complete) and
    names its witness.

    The realizations (g, sigma . f) of an admissible pair are equivalent
    exactly when some pi in Stab(g) carries one free component onto the
    other, so a pair's records must match the Stab(g)-orbits on S_n . f one
    to one.  Stab(g) is read from g's orbit keys: the table rows whose key
    is g's own.  Soundness: each record cites an admissible pair, has
    governing component g and the free key of row sigma of f's orbit keys,
    and states the pair's ring, length, size and flags.  Irredundancy: no
    list entry lies in the orbit of an earlier one, and no record's free key
    is among the Stab(g) . sigma . f keys an earlier record claimed.
    Completeness, by orbit-stabilizer: the records claim as many keys as
    S_n . f has, n! / |Stab(f)|.  Keys are codeword sets, so this never calls
    automorphism_group, double_cosets or their parity-check product, which
    classify is built on.
    """
    n = _check_lists(la, lb)
    check_verify_budget(n)
    pred = _target_predicate(target)

    for lst, tag, owner in ((la, "La", {}), (lb, "Lb", {})):
        for j, c in enumerate(lst):
            if (i := _claim(owner, j, (c,))) != j:
                sigma = perm_equivalent(lst[i], c).cycle_string()
                raise VerificationFailed(
                    f"lists: {tag} entries {i} and {j} are equivalent under {sigma}"
                )

    by_pair: dict[tuple[int, int], list[ClassificationRecord]] = {}
    for rec in records:
        if not (0 <= rec.ca_index < len(la) and 0 <= rec.cb_index < len(lb)):
            raise VerificationFailed(f"sound: {rec!r} points outside the lists")
        by_pair.setdefault((rec.ca_index, rec.cb_index), []).append(rec)

    table = perm_table(n)
    # LinearCode hashes and compares by its RREF, so equal free components share a key
    free_key = cache(lambda f: word_key((f,)).tobytes())

    @cache
    def orbit(c: LinearCode) -> tuple[np.ndarray, np.ndarray]:
        """c's orbit keys in table order, and Stab(c): the rows keyed like row 0 (the identity)."""
        keys = np.vstack([k for _, k in orbit_keys((c,))])
        return keys, (keys == keys[0]).all(axis=1)

    for i, ca in enumerate(la):
        for j, cb in enumerate(lb):
            pair = HzCode(ring, ca, cb)
            mine = by_pair.get((i, j), [])
            if not pred(pair):
                if mine:
                    raise VerificationFailed(f"sound: {mine[0]!r} cites an inadmissible pair")
                continue
            stated = (ring, n, n, pair.size, flags(pair))
            for rec in mine:
                if (rec.ring, rec.n, rec.sigma.n, rec.size, rec.flags) != stated:
                    raise VerificationFailed(
                        f"sound: {rec!r} misstates its ring, length, size or flags"
                    )
            governing, free = split(pair)
            stab = table[orbit(governing)[1]]
            fkeys, fstab = orbit(free)
            # claims[r, s] is the rank of stab[s] * sigma_r, so its key is that
            # of stab[s] . (sigma_r . f); stab[0] is the identity
            sigmas = np.array([rec.sigma.images for rec in mine], dtype=np.int8).reshape(-1, n)
            claims = ranks(stab[:, sigmas].transpose(1, 0, 2).reshape(-1, n))
            owner: dict[bytes, int] = {}
            for r, (rec, claim) in enumerate(zip(mine, claims.reshape(len(mine), len(stab)))):
                own = fkeys[claim[0]].tobytes()
                g, f = split(rec.code)
                # under another ring g has the other field and cannot equal governing
                if g != governing or free_key(f) != own:
                    raise VerificationFailed(f"sound: {rec!r} does not match its stated pair")
                if (o := owner.setdefault(own, r)) != r:
                    sigma = equivalent(mine[o].code, rec.code).cycle_string()
                    raise VerificationFailed(
                        f"irredundant: records {mine[o]!r} and {rec!r} are equivalent under {sigma}"
                    )
                owner.update(dict.fromkeys(map(bytes, fkeys[claim]), r))
            if len(owner) != len(table) // np.count_nonzero(fstab):  # |S_n . f|
                missing = next(row for row, key in zip(table, fkeys) if key.tobytes() not in owner)
                sigma = Permutation(tuple(missing.tolist())).cycle_string()
                raise VerificationFailed(
                    f"complete: pair ({i}, {j}) under {sigma} has no equivalent record"
                )


def inequivalent_reps(codes: list[LinearCode]) -> list[LinearCode]:
    """Greedy dedup up to coordinate permutation: keep each code outside the kept orbits."""
    if any((c.p, c.n) != (codes[0].p, codes[0].n) for c in codes):
        raise DimensionMismatch("codes live in different spaces")
    owner: dict[bytes, int] = {}
    return [c for i, c in enumerate(codes) if _claim(owner, i, (c,)) == i]
