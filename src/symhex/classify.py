"""Classification of component pairs up to coordinate permutation.

Fixing inequivalent component lists La (binary) and Lb (ternary), the
codes built from a fixed admissible pair (Ca, Cb) fall into permutation
classes indexed by double cosets: sigma and tau realize equivalent codes
exactly when tau lies in Aut(fixed) sigma Aut(moved).  One record is
emitted per double coset, with sigma its lexicographically smallest
member.

The permutation is applied to the free component (see codes.sides), the
one the symplectic form does not see.  Symplectic self-orthogonality is
not preserved by arbitrary coordinate permutations, so moving the
governing component could silently leave the target class; moving the
free one cannot.  The double coset count is the same either way round.

No target reads the free component past its dimension, so the
admissible pairs come from one HzCode per (governing entry, free
dimension), and the pairs are read off those verdicts by index.  Pairs
stay list indices up to the records: within one classify call each Aut
group is computed once per (side, list index), and equal groups are
interned by their member ranks.  The admissible pairs
are collected first, and one double_cosets_batch call enumerates the
double cosets of every distinct (governing group, free group) pair
together: it labels the cosets of each distinct free group once, and
the governing group acts only on their least members.  Each (free
entry y, sigma) is realized once, however many pairs share them.  None
of these caches outlives the call.

The verifier computes each fact once per call too: the admissible pairs
as classify does; the S_n orbits of each list's entries of one k in one
orbit_keys scan, side by side, which serve both the lists check and the
records; Stab(g) once per governing entry; and the records' free keys in
one word_keys call per (p, n, k), once the budget has counted them.
"""

from __future__ import annotations

from collections import Counter
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
    sides,
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
    """(i, j, x, y) per pair (la[i], lb[j]) that meets the target, in (i, j) order.

    x and y index its governing and free lists, sides(ring, la, lb).
    Every target reads the free component only through its dimension, so
    the predicate runs on one code per (governing entry, free dimension),
    joined with the first free entry of that dimension, and the pairs are
    read off that verdict table by index.
    """
    pred = _target_predicate(target)
    governing, free = sides(ring, la, lb)
    _, first, dim_of = np.unique([f.k for f in free], return_index=True, return_inverse=True)
    verdict = np.array([[pred(join(ring, g, free[y])) for y in first] for g in governing], dtype=bool)
    x, y = sides(ring, *np.indices((len(la), len(lb))))  # each pair's governing and free index
    meets = verdict[x, dim_of[y]]
    i, j = np.nonzero(meets)
    return list(zip(i.tolist(), j.tolist(), x[meets].tolist(), y[meets].tolist()))


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
    governing, free = sides(ring, la, lb)
    groups: dict[bytes, PermGroup] = {}

    @cache
    def aut(side: int, x: int) -> PermGroup:  # side 0 is governing, 1 free
        group = automorphism_group((governing, free)[side][x])
        return groups.setdefault(group.ranks.tobytes(), group)

    moved = cache(lambda y, sigma: apply_perm(sigma, free[y]))
    admissible = [(i, j, x, y, aut(0, x), aut(1, y)) for i, j, x, y in _admissible(ring, la, lb, target)]
    # interned groups are equal exactly when they are the same object
    group_pairs = list(dict.fromkeys((G, H) for *_, G, H in admissible))
    cosets = dict(zip(group_pairs, double_cosets_batch(group_pairs)))
    return [
        ClassificationRecord(i, j, sigma, join(ring, governing[x], moved(y, sigma)))
        for i, j, x, y, G, H in admissible
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


def check_verify_budget(
    la: list[LinearCode], lb: list[LinearCode], claims: int = 0, frees: list[LinearCode] | None = None,
) -> None:
    """Raise BudgetExceeded when verifying over these lists passes the work budget.

    The verifier keys the whole S_n orbit of every list entry and keeps its
    distinct int32 word keys, 4 bytes a codeword, and each table row's
    index into them, 8 bytes a row, besides about 1 KB of arrays, dtype and
    cache slot an entry.  The entries of one list and k are keyed side by
    side, 4 bytes a codeword a row for the largest such batch, and each
    entry's keys are found from its columns with about four more copies of
    them and np.unique's 33 bytes a row, for the largest entry.  frees are
    the records' distinct free components, keyed by word_keys: each holds
    its int32 key and its bytes, 8 bytes a codeword, its generator, and
    about 160 bytes of objects and dict slot, and word_keys builds them in
    chunks of at most 64 BLOCK codewords, 16n bytes each.  Before there are
    records, frees is None and sound records stand in: a sound record's
    free component is a point of its pair's free orbit, so there are at most
    n! per entry.  Each admissible pair holds about 512 bytes of tuple and
    array views.  Its claims, once counted, are gathered column-major, n
    bytes a claim, and ranked (ranks' 6 bytes a claim, 4 of them held);
    each pair's claims are then read as points, 8 bytes a claim.  Every
    record makes a claim, and its slot in its pair's list takes about 52
    bytes.
    """
    n, sizes = _check_lists(la, lb), [c.size for c in (*la, *lb)]
    batches = Counter()  # words of each list's entries of one k
    for c in (*la, *lb):
        batches[c.p, c.k] += c.size
    words = factorial(n) * sum(sizes)
    orbits = 4 * sum(sizes) + 8 * len(sizes) + 4 * max(batches.values()) + 16 * max(sizes) + 33
    if frees is None:
        count, free_words = factorial(n) * len(sizes), words
        gens = factorial(n) * n * sum(c.k for c in (*la, *lb))
    else:
        count, free_words, gens = len(frees), sum(f.size for f in frees), n * sum(f.k for f in frees)
    keyed = 8 * free_words + gens + 160 * count + 16 * n * min(free_words, 64 * BLOCK)
    fixed = 2**14 + 1024 * len(sizes) + 512 * len(la) * len(lb)
    nbytes = fixed + factorial(n) * orbits + keyed + claims * (n + 64)
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
    their parity checks, which classify is built on, nor _owners, the dedup
    that builds the lists.
    """
    n = _check_lists(la, lb)
    check_verify_budget(la, lb)
    admissible = _admissible(ring, la, lb, target)

    # orbits are equal or disjoint, so entries are equivalent exactly when
    # their least orbit keys are; entry j fails against the first earlier one
    orbits = []
    for lst, tag in ((la, "La"), (lb, "Lb")):
        orbits.append(_orbits(lst))
        earliest: dict[bytes, int] = {}
        for j, (keys, _) in enumerate(orbits[-1]):
            if (i := earliest.setdefault(keys[0].tobytes(), j)) != j:
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
    # (i, j, records, governing, free orbit, Stab(governing)) per admissible
    # pair, in order; Stab(g) is built once per governing entry x
    governing = sides(ring, la, lb)[0]
    governing_orbits, free_orbits = sides(ring, *orbits)
    stabs: dict[int, np.ndarray] = {}
    pairs = []
    for i, j, x, y in admissible:
        if x not in stabs:
            point = governing_orbits[x][1]
            stabs[x] = table[point == point[0]]
        pairs.append((i, j, by_pair.get((i, j), []), governing[x], free_orbits[y], stabs[x]))
    # claims[r, s] is the rank of stab[s] * sigma_r, so its point is that of
    # stab[s] . (sigma_r . f); stab[0] is the identity.  Every pair's claims
    # are gathered column-major into one array, stab[s] * sigma_r in column
    # r |stab| + s of the pair's block, and ranked in one call.
    sizes = [len(mine) * len(stab) for _, _, mine, _, _, stab in pairs]
    # the distinct free components of the records, stated to the budget and
    # then keyed by one word_keys call per (p, n, k); LinearCode hashes and
    # compares by its RREF
    frees = list(dict.fromkeys(split(rec.code)[1] for rec in records))
    check_verify_budget(la, lb, sum(sizes), frees)
    batches: dict[tuple[int, int, int], list[LinearCode]] = {}
    for f in frees:
        batches.setdefault((f.p, f.n, f.k), []).append(f)
    free_key = {f: key.tobytes() for batch in batches.values() for f, key in zip(batch, word_keys(batch))}

    bounds = np.cumsum([0, *sizes]).tolist()
    cols = np.empty((n, bounds[-1]), dtype=np.int8)
    for (_, _, mine, _, _, stab), lo, hi in zip(pairs, bounds, bounds[1:]):
        sigmas = np.array([rec.sigma for rec in mine], dtype=np.intp).reshape(-1, n)
        cols[:, lo:hi] = stab.T[sigmas.T].reshape(n, -1)
    claims = ranks(cols.T)
    for (i, j, mine, g, (keys, point), stab), lo, hi in zip(pairs, bounds, bounds[1:]):
        claimed = point[claims[lo:hi]].reshape(len(mine), len(stab))
        # first[q]: the first record that claims point q, len(mine) when none does
        first = np.full(len(keys), len(mine))
        np.minimum.at(first, claimed, np.arange(len(mine))[:, None])
        for r, (rec, own) in enumerate(zip(mine, claimed[:, 0])):
            rec_g, rec_f = split(rec.code)
            # under another ring rec_g has the other field and cannot equal g
            if rec_g != g or free_key[rec_f] != keys[own].tobytes():
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


def _orbits(codes: list[LinearCode]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per code, its distinct S_n orbit keys, sorted, and point: table row r gives it keys[point[r]].

    Permutations keep k, so the codes of each k are keyed side by side by
    one orbit_keys scan into one (n!, words) int32 array, and each code's
    np.unique reads its own columns of it.
    """
    table, dims = perm_table(codes[0].n), [c.k for c in codes]
    orbits: list = [None] * len(codes)
    for k in dict.fromkeys(dims):
        index = [t for t, d in enumerate(dims) if d == k]
        keys = np.empty((len(table), len(index) * codes[index[0]].size), dtype=np.int32)
        rows = 0
        for _, part in orbit_keys(tuple(codes[t] for t in index)):
            keys[rows : rows + len(part)] = part
            rows += len(part)
        for t, own in zip(index, np.hsplit(keys, len(index))):
            orbits[t] = np.unique(_rows(own), return_inverse=True)
        del keys  # before the next k's array is made
    return orbits


def inequivalent_reps(codes: list[LinearCode]) -> list[LinearCode]:
    """Greedy dedup up to coordinate permutation: the first code of each class, in input order.

    These are the codes a greedy pass over whole orbits keeps, but each class
    scans its orbit once and claims only the inputs it meets (_owners).
    """
    if any((c.p, c.n) != (codes[0].p, codes[0].n) for c in codes):
        raise DimensionMismatch("codes live in different spaces")
    owners = _owners(codes)
    return [codes[i] for i in np.flatnonzero(owners == np.arange(len(codes)))]
