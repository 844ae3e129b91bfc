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

Within one classify call each Aut group is computed once per component
and equal groups are interned by their member ranks.  The admissible
pairs are collected first, and one double_cosets_batch call enumerates
the double cosets of every distinct (governing group, free group) pair
together: it labels the cosets of each distinct free group once, and
the governing group acts only on their least members.  Each (free
component, sigma) is realized once, however many pairs share them.  None
of these caches outlives the call.

The verifier computes each fact once per call too: the target predicate
once per (governing component, free dimension), since no target reads the
free side past its dimension; each list entry's S_n orbit once, which
serves both the lists check and the records; and the records' free keys
in one word_keys call per (p, n, k).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import factorial

import numpy as np

from .codes import (
    HzCode,
    equivalent,
    is_qsd,
    is_self_dual,
    is_self_orthogonal,
    join,
    split,
)
from .errors import DimensionMismatch, LengthMismatch, OddLength, VerificationFailed, check_budget
from .gf import LinearCode
from .perms import (
    BLOCK,
    PermGroup,
    Permutation,
    apply_perm,
    automorphism_group,
    double_cosets_batch,
    orbit_keys,
    perm_equivalent,
    perm_table,
    ranks,
    word_keys,
)
from .ring import RingId

TARGETS = ("SO", "QSD", "SD")


@dataclass(frozen=True)
class ClassificationRecord:
    """One class: the pair (la[ca_index], lb[cb_index]) with sigma applied to its free component.

    code is that realization.  Its ring, length, size and flags are read
    off it where they are needed; no copy of them is kept beside it.
    """

    ca_index: int
    cb_index: int
    sigma: Permutation
    code: HzCode

    def __repr__(self) -> str:
        return (
            f"Record(ca={self.ca_index}, cb={self.cb_index}, "
            f"sigma={self.sigma.cycle_string()}, size={self.code.size})"
        )


def _check_lists(la: list[LinearCode], lb: list[LinearCode]) -> int:
    """The lists' common length; a wrong field or a wrong or zero length names its entry."""
    if not la or not lb:
        raise DimensionMismatch("component lists must be nonempty")
    n = la[0].n
    for tag, p, codes in (("La", 2, la), ("Lb", 3, lb)):
        for i, c in enumerate(codes):
            if c.p != p:
                raise DimensionMismatch(f"{tag} entry {i} is a code over F{c.p}, not F{p}")
            if c.n != n:
                raise LengthMismatch(f"{tag} entry {i} has length {c.n}, La entry 0 has {n}")
    if n == 0:
        raise LengthMismatch("La entry 0 has length 0; lengths must be positive")
    if n % 2:
        raise OddLength(f"length must be even, got {n}")
    return n


def _target_predicate(target: str):
    """The codes predicate a target names; the one place targets are checked."""
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}, got {target!r}")
    return {"SO": is_self_orthogonal, "QSD": is_qsd, "SD": is_self_dual}[target]


def _admissible(ring: RingId, la: list, lb: list, target: str) -> list[tuple]:
    """(i, j, governing, free) per pair (la[i], lb[j]) that meets the target, in (i, j) order.

    Every target reads the free component only through its dimension, so
    the predicate runs once per (governing, free dimension) within the call.
    """
    pred, verdicts = _target_predicate(target), {}
    admissible = []
    for i, ca in enumerate(la):
        for j, cb in enumerate(lb):
            code = HzCode(ring, ca, cb)
            g, f = split(code)
            if (key := (g, f.k)) not in verdicts:
                verdicts[key] = pred(code)
            if verdicts[key]:
                admissible.append((i, j, g, f))
    return admissible


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
    _check_lists(la, lb)
    groups: dict[bytes, PermGroup] = {}

    @cache
    def aut(code: LinearCode) -> PermGroup:
        group = automorphism_group(code)
        return groups.setdefault(group.ranks.tobytes(), group)

    admissible = [(i, j, g, f, aut(g), aut(f)) for i, j, g, f in _admissible(ring, la, lb, target)]
    # interned groups are equal exactly when they are the same object
    group_pairs = list(dict.fromkeys((G, H) for *_, G, H in admissible))
    cosets = dict(zip(group_pairs, double_cosets_batch(group_pairs)))
    moved = cache(apply_perm)
    return [
        ClassificationRecord(i, j, sigma, join(ring, governing, moved(sigma, free)))
        for i, j, governing, free, G, H in admissible
        for sigma, _ in cosets[G, H]
    ]


def _owners(codes: list[LinearCode]) -> np.ndarray:
    """owners[j]: the first index whose code is equivalent to codes[j], codes of one (p, n).

    Permutations keep k, so each k is one batch: word_keys keys every input
    at once, and np.unique over the keys as whole rows gives the distinct
    keys, sorted, and each input's index into them.  Each code not yet
    owned, in input order, owns its key and, while other keys are left,
    scans its S_n orbit once and owns the keys it hits, found by binary
    search.  Only the inputs' keys and np.unique's copies of them are held,
    beside one word_keys chunk of c codes and one orbit block; the estimate
    counts all three.
    """
    dims = np.array([c.k for c in codes], dtype=np.intp)
    owners = np.arange(len(codes))
    for k in dict.fromkeys(dims.tolist()):
        index = np.flatnonzero(dims == k)
        if len(index) == 1:  # a code alone in its dimension owns itself
            continue
        batch = [codes[i] for i in index]
        n, words = batch[0].n, batch[0].size
        c = min(len(batch), max(1, BLOCK * 64 // words))
        nbytes = len(batch) * (k * n + 16 * words + 48) + c * words * (24 * n + 16)
        check_budget("orbit claims", nbytes + BLOCK * (4 * words + 40), len(batch) * words * n)
        keys, key_of = np.unique(_rows(word_keys(batch)), return_inverse=True)
        key_owner = np.full(len(keys), -1)
        for i, q in zip(index, key_of):
            if key_owner[q] >= 0:
                continue
            key_owner[q] = i
            if key_owner.min() >= 0:  # no other input is left to claim
                break
            for _, orbit in orbit_keys((codes[i],)):
                orbit = _rows(orbit)
                at = np.minimum(np.searchsorted(keys, orbit), len(keys) - 1)
                key_owner[at[keys[at] == orbit]] = i
        owners[index] = key_owner[key_of]
    return owners


def _rows(keys: np.ndarray) -> np.ndarray:
    """Each row of a 2-D int32 key array as one opaque value, so rows sort and match whole."""
    keys = np.ascontiguousarray(keys)
    return keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()


def check_verify_budget(la: list[LinearCode], lb: list[LinearCode], claims: int = 0) -> None:
    """Raise BudgetExceeded when verifying over these lists passes the work budget.

    The verifier keys the whole S_n orbit of every list entry and keeps its
    distinct int32 word keys, 4 bytes a codeword, and each table row's
    index into them, 8 bytes a row, besides about 1 KB of arrays, dtype and
    cache slot an entry.  Finding them holds the orbit's keys about four
    times over, with np.unique's 33 bytes a row, for the largest entry.  A
    sound record's free component is a point of its pair's free orbit, so
    the records' keys are at most one more copy of the orbit keys, with 128
    bytes of bytes object and dict slots a key; word_keys builds them in
    chunks of at most 64 BLOCK codewords, 16n bytes each.  Each admissible
    pair holds about 512 bytes of tuple, stabilizer and array views.  Its
    claims, once counted, are gathered column-major, n bytes a claim, and
    ranked (ranks' 6 bytes a claim, 4 of them held); each pair's claims are
    then read as points, 8 bytes a claim.  Every record makes a claim, and
    its slot in its pair's list takes about 52 bytes.
    """
    n, sizes = _check_lists(la, lb), [c.size for c in (*la, *lb)]
    words = factorial(n) * sum(sizes)
    orbits = 8 * sum(sizes) + 136 * len(sizes) + 16 * max(sizes) + 33
    fixed = 2**14 + 1024 * len(sizes) + 512 * len(la) * len(lb)
    nbytes = fixed + factorial(n) * orbits + 16 * n * min(words, 64 * BLOCK) + claims * (n + 64)
    check_budget("verify_classification", nbytes, words)


def verify_lists(la: list[LinearCode], lb: list[LinearCode]) -> None:
    """Raise VerificationFailed, starting with lists:, when two entries of a list are equivalent.

    The witness is the first entry j, La before Lb, equivalent to an earlier
    entry, with i the first such earlier entry and sigma the lex-first
    permutation carrying i to j.
    """
    for lst, tag in ((la, "La"), (lb, "Lb")):
        owners = _owners(lst)
        if (later := np.flatnonzero(owners != np.arange(len(lst)))).size:
            j = int(later[0])
            _lists_failed(tag, lst, int(owners[j]), j)


def _lists_failed(tag: str, lst: list[LinearCode], i: int, j: int) -> None:
    """Raise the lists failure for entries i < j of lst, with the lex-first sigma from i to j."""
    sigma = perm_equivalent(lst[i], lst[j]).cycle_string()
    raise VerificationFailed(f"lists: {tag} entries {i} and {j} are equivalent under {sigma}")


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
    to one.  A code's orbit is its distinct keys and, for each table row,
    the point (the key's index) the row gives it; Stab(g) is the rows whose
    point is that of row 0, the identity.  Each record claims the points of
    its Stab(g) . sigma . f, the first record to claim a point owns it.
    Soundness: each record cites an admissible pair, has a sigma on n
    points, governing component g and the free key of row sigma of f's
    orbit.  Irredundancy: no list entry shares its least orbit key with an
    earlier one, checked before any record, and every record owns its own
    point.  Completeness: every point of S_n . f is claimed.  Keys are
    codeword sets, so this never calls automorphism_group, double_cosets or
    their parity-check product, which classify is built on, nor _owners,
    the dedup that builds the lists.
    """
    n = _check_lists(la, lb)
    check_verify_budget(la, lb)
    admissible = _admissible(ring, la, lb, target)

    @cache
    def orbit(c: LinearCode) -> tuple[np.ndarray, np.ndarray]:
        """c's distinct orbit keys, sorted, and point: table row r gives c keys[point[r]]."""
        return np.unique(_rows(np.vstack([k for _, k in orbit_keys((c,))])), return_inverse=True)

    # orbits are equal or disjoint, so entries are equivalent exactly when
    # their least orbit keys are; entry j fails against the first earlier one
    for lst, tag in ((la, "La"), (lb, "Lb")):
        earliest: dict[bytes, int] = {}
        for j, c in enumerate(lst):
            if (i := earliest.setdefault(orbit(c)[0][0].tobytes(), j)) != j:
                _lists_failed(tag, lst, i, j)

    by_pair: dict[tuple[int, int], list[ClassificationRecord]] = {}
    for rec in records:
        if not (0 <= rec.ca_index < len(la) and 0 <= rec.cb_index < len(lb)):
            raise VerificationFailed(f"sound: {rec!r} points outside the lists")
        if rec.sigma.n != n:
            raise VerificationFailed(f"sound: {rec!r} has a sigma on {rec.sigma.n} points, not {n}")
        by_pair.setdefault((rec.ca_index, rec.cb_index), []).append(rec)
    if bad := sorted(by_pair.keys() - {(i, j) for i, j, *_ in admissible}):
        raise VerificationFailed(f"sound: {by_pair[bad[0]][0]!r} cites an inadmissible pair")

    table = perm_table(n)
    # the distinct free components of the records, keyed by one word_keys
    # call per (p, n, k); LinearCode hashes and compares by its RREF
    batches: dict[tuple[int, int, int], list[LinearCode]] = {}
    for f in dict.fromkeys(split(rec.code)[1] for rec in records):
        batches.setdefault((f.p, f.n, f.k), []).append(f)
    free_key = {f: key.tobytes() for batch in batches.values() for f, key in zip(batch, word_keys(batch))}

    # (i, j, records, governing, free, Stab(governing)) per admissible pair, in order
    pairs = [(i, j, by_pair.get((i, j), []), g, f, table[orbit(g)[1] == orbit(g)[1][0]])
             for i, j, g, f in admissible]
    # claims[r, s] is the rank of stab[s] * sigma_r, so its point is that of
    # stab[s] . (sigma_r . f); stab[0] is the identity.  Every pair's claims
    # are gathered column-major into one array, stab[s] * sigma_r in column
    # r |stab| + s of the pair's block, and ranked in one call.
    sizes = [len(mine) * len(stab) for _, _, mine, _, _, stab in pairs]
    check_verify_budget(la, lb, sum(sizes))
    cols, bounds = np.empty((n, sum(sizes)), dtype=np.int8), np.cumsum(sizes)[:-1]
    for (_, _, mine, _, _, stab), block in zip(pairs, np.split(cols, bounds, axis=1)):
        sigmas = np.array([rec.sigma for rec in mine], dtype=np.intp).reshape(-1, n)
        block[:] = stab.T[sigmas.T].reshape(n, -1)
    for (i, j, mine, governing, free, stab), claims in zip(pairs, np.split(ranks(cols.T), bounds)):
        keys, point = orbit(free)
        claimed = point[claims].reshape(len(mine), len(stab))
        # first[q]: the first record that claims point q, len(mine) when none does
        first = np.full(len(keys), len(mine))
        np.minimum.at(first, claimed, np.arange(len(mine))[:, None])
        for r, (rec, own) in enumerate(zip(mine, claimed[:, 0])):
            g, f = split(rec.code)
            # under another ring g has the other field and cannot equal governing
            if g != governing or free_key[f] != keys[own].tobytes():
                raise VerificationFailed(f"sound: {rec!r} does not match its stated pair")
            if (o := first[own]) != r:
                sigma = equivalent(mine[o].code, rec.code).cycle_string()
                raise VerificationFailed(
                    f"irredundant: records {mine[o]!r} and {rec!r} are equivalent under {sigma}"
                )
        if (unclaimed := first[point] == len(mine)).any():
            sigma = Permutation._known(table[unclaimed.argmax()].tolist()).cycle_string()
            raise VerificationFailed(
                f"complete: pair ({i}, {j}) under {sigma} has no equivalent record"
            )


def inequivalent_reps(codes: list[LinearCode]) -> list[LinearCode]:
    """Greedy dedup up to coordinate permutation: the first code of each class, in input order.

    These are the codes a greedy pass over whole orbits keeps, but each class
    scans its orbit once and claims only the inputs it meets (_owners).
    """
    if any((c.p, c.n) != (codes[0].p, codes[0].n) for c in codes):
        raise DimensionMismatch("codes live in different spaces")
    owners = _owners(codes)
    return [codes[i] for i in np.flatnonzero(owners == np.arange(len(codes)))]
