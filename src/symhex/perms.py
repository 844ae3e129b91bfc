"""Coordinate permutations, automorphism groups, and double cosets.

A permutation pi moves coordinate i to position pi(i), so it acts on a
vector by (pi . v)[pi(i)] = v[i] and on a code by permuting generator
columns.  Composition is (sigma * tau)(i) = sigma(tau(i)), matching
sigma . (tau . v) = (sigma * tau) . v.

Every scan over S_n runs on one cached table, perm_table(n): all n!
permutations as int8 rows in lexicographic (Lehmer rank) order, stored
column-major, so the image of one point under every permutation is one
contiguous run.  Scans take it in blocks of at most BLOCK rows, so their
temporaries stay small and an equivalence search can stop at the first
block with a hit.  Each kernel states what it will hold and compute to
errors.check_budget before it starts, so n itself is never guarded.
Ranks are one in-place Lehmer loop (ranks) shared by the rank maps, the
inverse ranks and the verifier.
Equivalence compares word keys over the table (orbit_keys), never the
parity-check sums of automorphism_group.  Those pack one side of the
code (its checks or its generators) column by column into one int64, a
row per byte, so each row of the other side tests every packed row at
once; a sum is at most n (p-1)^2, under 256 for every n whose table fits
the budget, so no byte carries into the next.  From n = 6 the rows of the
other side are tested one at a time, each over only the permutations
that passed the rows before it.

Permutations read off the table, or composed and inverted from valid
ones, are built by Permutation._known, which skips the sorted(images)
check; every public Permutation(...) call keeps it.

A PermGroup is the sorted array of its members' Lehmer ranks, which are
row indices into perm_table(n); its Permutation objects are built only
when elements is first read.  Its greedy generators come from a closure
over member-indexed int32 maps: for each generator g, the position of
g m among the members for every member m, found by searching the
members' sorted base-n keys of their int8 rows.  Building S_8 so costs a
few array passes per generator instead of a Python object per element.

Double cosets G \\ S_n / H are the connected components of the maps
sigma -> g sigma and sigma -> sigma h on ranks, one map per generator of
G and of H, which one double_cosets_batch call ranks and drops; a group
holds only its members.  A left map is read off a right map: with inv
the rank of each row's inverse (inverse_ranks, cached per n),
rank(g sigma) = inv[rank(sigma^-1 g^-1)].  double_cosets_batch labels
many pairs of one n at once, one row of labels per pair.  Every rank
starts labelled with itself; a round lowers the labels to their images'
under each map in turn, in place, then pointer jumping (label of the
label) shortens chains (Shiloach and Vishkin, J. Algorithms 3, 1982).
The fixed point labels each component with its smallest rank, its
lexicographically least member (Butler, Fundamental Algorithms for
Permutation Groups, LNCS 559, 1991).  The sweep, the jumps and the left
maps gather with ndarray.take on int32 indices.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from itertools import islice
from math import factorial

import numpy as np

from .errors import DimensionMismatch, check_budget
from .gf import LinearCode, all_vectors, integers, nullspace, places

# rows of perm_table per scan step: 7!, so S_8 is scanned in eight blocks
BLOCK = 5040


@dataclass(frozen=True, order=True)
class Permutation:
    """One-line notation over 0..n-1; ordering is lexicographic."""

    images: tuple[int, ...]

    def __post_init__(self):
        # a list or an array of images is stored as a tuple of ints, so it hashes and compares
        try:
            images = tuple(map(operator.index, self.images))
        except TypeError as exc:
            raise ValueError(f"images must be integers, got {self.images!r}") from exc
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images)-1}: {images}")
        object.__setattr__(self, "images", images)

    @classmethod
    def _known(cls, images: tuple[int, ...]) -> "Permutation":
        """Unchecked: for images that are a permutation by construction."""
        perm = object.__new__(cls)
        object.__setattr__(perm, "images", images)
        return perm

    @property
    def n(self) -> int:
        return len(self.images)

    def compose(self, other: "Permutation") -> "Permutation":
        """self * other: apply other first, then self."""
        images = self.images
        if len(other.images) != len(images):
            raise DimensionMismatch(f"permutations on {self.n} and {other.n} points")
        return Permutation._known(tuple(images[j] for j in other.images))

    def __mul__(self, other: "Permutation") -> "Permutation":
        return self.compose(other)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation._known(tuple(inv))

    def rank(self) -> int:
        """Lehmer rank: position in the lexicographic order of S_n."""
        return rank_images(self.images)

    def cycle_string(self) -> str:
        """Disjoint cycles on 1-based points; 'e' for the identity."""
        seen = [False] * self.n
        parts = []
        for i in range(self.n):
            if seen[i] or self.images[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            parts.append("(" + " ".join(str(x + 1) for x in cyc) + ")")
        return "".join(parts) if parts else "e"

    def __repr__(self) -> str:
        return f"Permutation({self.images})"


def rank_images(images: tuple[int, ...]) -> int:
    n = len(images)
    r = 0
    for i in range(n):
        smaller = sum(1 for j in range(i + 1, n) if images[j] < images[i])
        r += smaller * factorial(n - 1 - i)
    return r


@lru_cache(maxsize=None, typed=True)
def perm_table(n: int) -> np.ndarray:
    """S_n as a read-only (n!, n) int8 array, rows in lexicographic order.

    The table is column-major, so a column (the image of one point under
    every permutation) is one contiguous run.  Rows starting with f are f
    followed by S_{n-1} with every entry >= f shifted up by one; that shift
    keeps S_{n-1}'s order, so stacking the blocks for f = 0..n-1 gives
    lexicographic order.  It holds the table and one block's two
    temporaries, at most (n + 2) n! bytes.  An n that is negative or not an
    integer raises ValueError; an integer of another type shares the int's
    table.
    """
    points = _points(n)
    if type(n) is not int:
        return perm_table(points)
    check_budget("perm_table", factorial(n) * (n + 2), factorial(n) * n)
    if n == 0:
        table = np.zeros((1, 0), dtype=np.int8)
    else:
        prev = perm_table(n - 1)
        table = np.empty((factorial(n), n), dtype=np.int8, order="F")
        for f, block in enumerate(np.split(table, n)):
            block[:, 0] = f
            block[:, 1:] = prev + (prev >= f)
    return _frozen(table)


def _points(n) -> int:
    """n as a number of points; ValueError naming n when it is negative or not an integer."""
    try:
        points = operator.index(n)
    except TypeError:
        points = -1
    if points < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    return points


def ranks(images: np.ndarray) -> np.ndarray:
    """Lehmer ranks of the rows of an (m, n) array of permutation images.

    A row's rank sums, over positions i, (n-1-i)! times c_i, the number of
    later entries smaller than entry i; rank_images is the one-row version.
    The sum is taken by Horner's rule two digits a step: the ranks become
    ranks (n-i)(n-1-i) + c_i (n-1-i) + c_(i+1), whose digit part is below
    (n-i)(n-1-i) <= 132 and so fits a uint8.  Every step works in place on
    three buffers made once: the int32 ranks, the uint8 digits and a
    comparison viewed as uint8.  Ranks are exact for n <= 12.  Beside the
    column-major copy of images (none when the transpose is already
    contiguous, as for rows of perm_table) it holds 6 bytes a row.
    """
    cols = np.ascontiguousarray(np.asarray(images).T)
    n, m = cols.shape
    out = np.zeros(m, dtype=np.int32)
    digits = np.empty(m, dtype=np.uint8)
    less = np.empty(m, dtype=bool)
    step = less.view(np.uint8)
    for i in range(0, n - 1, 2):
        pair = range(i, min(i + 2, n - 1))
        digits.fill(0)
        for d in pair:
            digits *= n - d
            for j in range(d + 1, n):
                np.less(cols[j], cols[d], out=less)
                digits += step
        out *= factorial(n - i) // factorial(n - i - len(pair))
        out += digits
    return out


@cache
def inverse_ranks(n: int) -> np.ndarray:
    """Read-only int32 array: entry r is the rank of the inverse of row r of perm_table(n).

    The inverse rows are scattered column-major into int8, so ranks reads
    them without a copy: row r's inverse holds i at position table[r, i].
    """
    table = perm_table(n)
    # the int8 rows, the intp row numbers and one column as intp, then ranks' 6
    check_budget("inverse_ranks", len(table) * (n + 22), len(table) * (n + 1))
    rows = np.arange(len(table))
    cols = np.empty((n, len(table)), dtype=np.int8)
    for i in range(n):
        cols[table[:, i], rows] = i
    return _frozen(ranks(cols.T))


def apply_perm(perm: Permutation, code: LinearCode) -> LinearCode:
    """The code {pi . v : v in code}, recanonicalized."""
    if perm.n != code.n:
        raise DimensionMismatch(f"permutation on {perm.n} points, code length {code.n}")
    inv = perm.inverse().images
    return LinearCode(code.p, code.gen[:, inv], n=code.n)


def perm_equivalent(c1: LinearCode, c2: LinearCode) -> "Permutation | None":
    """A permutation carrying c1 onto c2, or None; exhaustive over S_n."""
    if c1.p != c2.p or c1.n != c2.n:
        raise DimensionMismatch("codes live in different spaces")
    return first_carrying((c1,), (c2,))


def orbit_keys(codes: tuple[LinearCode, ...]):
    """Yield (block, keys) over perm_table(n), in table order.

    keys[r] holds the word keys of block[r] . code for each code, side by
    side.  A word key is the codewords as sorted base-p integers, so codes
    of one (p, n) are equal exactly when their keys are.  Blocks hold at
    most BLOCK * 64 keys, so their temporaries stay a few MiB.  pi . w
    puts w[i] at pi(i), place value p^(n-1-pi(i)); float64 BLAS is exact
    below p^n.  The scan computes n! keys per codeword.
    """
    n, count = codes[0].n, sum(c.size for c in codes)
    table = perm_table(n)
    step = min(BLOCK, len(table), max(1, BLOCK * 64 // count))
    # the float64 codewords, then per block the float64 gather and product
    # and three int32 copies of the keys
    check_budget("orbit_keys", 8 * count * n + step * (8 * n + 20 * count), len(table) * count)
    words = [_place_and_words(c) for c in codes]
    for start in range(0, len(table), step):
        block = table[start : start + step]
        keys = [(place[block] @ W).astype(np.int32) for place, W in words]
        yield block, np.hstack([np.sort(k, axis=1) for k in keys])


def word_key(codes: tuple[LinearCode, ...]) -> np.ndarray:
    """The codes' own word keys side by side: orbit_keys' identity row, without a scan."""
    keys = [(place @ W).astype(np.int32) for place, W in map(_place_and_words, codes)]
    return np.hstack([np.sort(k) for k in keys])


def word_keys(codes: list[LinearCode]) -> np.ndarray:
    """word_key of each code of one (p, n, k), one int32 row a code.

    A chunk's codewords are one float64 product of the p^k messages with the
    chunk's stacked generators, reduced mod p and read in base p by one more
    product.  A chunk holds at most BLOCK * 64 codewords, so its float64
    copies stay a few tens of MiB; the caller states the budget.
    """
    p, n, k = codes[0].p, codes[0].n, codes[0].k
    msgs = all_vectors(p, k).astype(float)
    place = places(p, n).astype(float)
    step = max(1, BLOCK * 64 // len(msgs))
    gens = np.stack([c.gen for c in codes])
    keys = np.empty((len(codes), len(msgs)), dtype=np.int32)
    for start in range(0, len(codes), step):
        words = msgs @ gens[start : start + step].astype(float)
        keys[start : start + step] = np.sort((words % p) @ place, axis=1)
    return keys


def _place_and_words(code: LinearCode) -> tuple[np.ndarray, np.ndarray]:
    """Place values p^(n-1-i) and the codewords as columns, both float64."""
    return places(code.p, code.n).astype(float), code.codewords().T.astype(float)


def first_carrying(sources: tuple, targets: tuple) -> "Permutation | None":
    """The lex-first sigma with sigma . sources[i] == targets[i] for each i, or None.
    A table past the budget raises BudgetExceeded, even when a dimension differs."""
    perm_table(sources[0].n)  # the S_n table's budget
    if any(s.k != t.k for s, t in zip(sources, targets)):
        return None
    want = word_key(targets)
    for block, keys in orbit_keys(sources):
        hits = np.flatnonzero((keys == want).all(axis=1))
        if hits.size:
            return Permutation._known(tuple(block[hits[0]].tolist()))
    return None


class PermGroup:
    """A subgroup of S_n, held as the sorted int32 Lehmer ranks of its members.

    The ranks index rows of perm_table(n); elements, the Permutation
    objects in rank (lexicographic) order, is built on first use.
    Generators are a greedy minimal-ish subset: sweeping members in rank
    order, keep each one not already generated.  Each new generator g gets
    its int32 map m -> g m on member indices, found by searching the
    base-n keys of the int8 rows g m among the members' sorted keys, and
    the closure is marked on a boolean array over the members, round by
    round under every map until it stops growing, so each generator costs
    passes over |G|, not n!.
    The loop ends only when the generators reach every member, so they
    generate exactly the member set.  The group keeps no rank maps over
    S_n: double_cosets_batch ranks them for the length of one call.  An n
    that is negative or not an integer, or a rank set that is empty, out of
    range, without the identity or not closed under its generators, raises
    ValueError.
    """

    def __init__(self, n: int, ranks):
        n = _points(n)
        members = integers(ranks).ravel()
        if (members[1:] <= members[:-1]).any():
            members = np.unique(members)  # sorted, without repeats
        if not members.size:
            raise ValueError("a group must contain the identity; got no ranks")
        if members[0] < 0 or members[-1] >= factorial(n):
            bad = members[0] if members[0] < 0 else members[-1]
            raise ValueError(f"rank {bad} out of range for n={n}")
        if members[0] != 0:
            raise ValueError("a group must contain the identity (rank 0)")
        self.n = n
        self.ranks = _frozen(members.astype(np.int32))
        self.generators = self._greedy_generators()

    def _greedy_generators(self) -> tuple[Permutation, ...]:
        if self.order == 1:
            return ()
        bits = self.order.bit_length()
        # per member: its int8 row, one generator's int8 image of it and the
        # intp (take) or int64 (product) copy of a row, b = log2 |G| int32
        # maps (each generator at least doubles the closure, by Lagrange),
        # the int64 member and image keys, the intp positions and their check
        check_budget("PermGroup", self.order * (10 * self.n + 4 * bits + 56))
        rows = perm_table(self.n)[self.ranks]
        place = places(self.n, self.n)  # base-n row keys ascend with Lehmer rank
        keys = rows @ place
        inside = np.zeros(self.order, dtype=bool)
        inside[0] = True
        closed = 1  # members generated so far
        gens: list[int] = []
        maps = np.empty((bits, self.order), dtype=np.int32)
        while closed < self.order:
            i = int(inside.argmin())  # the first member not yet generated
            image = rows[i].take(rows) @ place
            at = np.searchsorted(keys, image)
            outside = keys.take(at, mode="clip") != image
            if outside.any():
                g, m = _perms(rows[[i, outside.argmax()]])
                raise ValueError(f"not a group: {g} * {m} is not a member")
            maps[len(gens)] = at
            gens.append(i)
            # close under every generator's map, round by round, until nothing is added
            while True:
                inside[maps[: len(gens)].compress(inside, axis=1)] = True
                before, closed = closed, np.count_nonzero(inside)
                if closed in (before, self.order):
                    break
        return _perms(rows[gens])

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        return _perms(perm_table(self.n)[self.ranks])

    @property
    def order(self) -> int:
        return len(self.ranks)

    def __contains__(self, perm: Permutation) -> bool:
        if perm.n != self.n:
            return False
        r = perm.rank()
        i = np.searchsorted(self.ranks, r)
        return bool(i < self.ranks.size and self.ranks[i] == r)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self) -> str:
        return f"PermGroup(n={self.n}, order={self.order})"


def _perms(rows: np.ndarray) -> tuple[Permutation, ...]:
    """Rows of perm_table as Permutations, unchecked."""
    return tuple(Permutation._known(tuple(row)) for row in rows.tolist())


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# automorphism_group tests a table of at most 5! rows by one product over
# every scanned row: per call that costs fewer numpy calls than a survivor
# scan, whose gathers and copies pay off from n = 6
_PRODUCT_ROWS = 120


def automorphism_group(code: LinearCode) -> PermGroup:
    """All coordinate permutations fixing the code setwise.

    A candidate sigma fixes the code when every parity check c and
    generator row g satisfy sum_i H[c, sigma(i)] g[i] = 0 mod p.  Since
    Aut C = Aut C^perp under the dot product that permutations keep,
    sum_i g[sigma(i)] H[c, i] = 0 is the same test, so either side may be
    read through sigma.  The side with more rows, if it has at most 8 (else
    the other), is packed: column i into one int64 with row c in byte c, so
    a row of the other side gives every packed row's sum at once, byte by
    byte.  A sum is at most n (p-1)^2 < 256, so no byte carries into the
    next.  Over F_2 a sum is odd exactly when bit 0 of its byte is set, so
    one mask over those bits tests them all; over F_3 byte x is 0 mod 3
    exactly when 171 x mod 256 <= 85, one wrapping uint8 product.
    Up to n = 5 one product over the table tests every row of the other
    side at once.  Larger tables are read in blocks, and the other side's
    rows are scanned one at a time, each over only the permutations that
    passed the rows before it: a row's sums are one take of its packed
    lookup per nonzero entry, over the survivors' column of the table, and
    the survivors' rows and ranks are then compressed.  The group is built
    from the accepted ranks alone.
    """
    table = perm_table(code.n)
    packed, scanned = nullspace(code.gen, code.p)[0], code.gen
    if len(packed) < len(scanned) <= 8 or len(packed) > 8:
        packed, scanned = scanned, packed
    if not len(packed):  # the zero code or the full space past n = 8: every sum is 0
        scanned = scanned[:0]
    # per block row: the survivor's int8 row and int64 rank, each with its
    # old copy while they are compressed (2n + 17 bytes), or them with the
    # running sum, the next term's gather and the intp copy of its index and
    # the byte tests (n + 40); the accepted ranks, listed and then joined
    check_budget("automorphism_group", BLOCK * (code.n + 48) + 16 * len(table),
                 len(table) * (code.n + len(scanned)))
    place = 1 << 8 * np.arange(len(packed), dtype=np.int64)
    packed = packed.T.astype(np.int64) @ place  # column i, byte c = row c of the packed side
    low = place.sum()  # bit 0 of every byte in use

    def odd(sums: np.ndarray) -> np.ndarray:
        """Nonzero where a byte of a sum is not 0 mod p."""
        if code.p == 2:
            return sums & low
        # byte x is divisible by 3 exactly when 171 x mod 256 <= 85
        return ((sums.view(np.uint8) * np.uint8(171)) > 85).view(np.uint64)

    if len(table) <= _PRODUCT_ROWS:
        sums = packed[table] @ scanned.T.astype(np.int64)
        return PermGroup(code.n, np.flatnonzero(~odd(sums).any(axis=1)))
    # per scanned row, (i, row[i] packed) for each nonzero entry i
    terms = [[(i, v * packed) for i, v in enumerate(row) if v] for row in scanned.tolist()]
    kept = []
    for start in range(0, len(table), BLOCK):
        rows = table[start : start + BLOCK]  # the survivors, and their ranks
        at = np.arange(start, start + len(rows))
        for row in terms:
            # sums[s] = sum_i row[i] packed[sigma_s(i)]
            passed = odd(sum(part.take(rows[:, i]) for i, part in row)) == 0
            rows, at = rows[passed], at[passed]
        kept.append(at)
    return PermGroup(code.n, np.concatenate(kept))


def double_cosets(G: PermGroup, H: PermGroup) -> list[tuple[Permutation, int]]:
    """The double cosets G sigma H, as (lex-min representative, size) pairs.

    Orbits are reported in order of their representative and their sizes
    partition n!; never touches the |G| x |H| product.  Each call ranks
    the maps afresh: double_cosets_batch is the way to share them.
    """
    return double_cosets_batch([(G, H)])[0]


# bytes per double coset reported: its Permutation and images tuple, its
# (rep, size) tuple and the image list it is read from
_REP_BYTES = 400


def double_cosets_batch(
    pairs: list[tuple[PermGroup, PermGroup]],
) -> list[list[tuple[Permutation, int]]]:
    """double_cosets(G, H) for each pair (G, H) of groups on one n, in order.

    Pairs are taken most generators first, so each map of a chunk reads a
    prefix of its labels and no pair is padded, in chunks of at most
    BLOCK * 64 labels (one pair at least); each chunk ranks the maps of the
    (group, left) sides the call has not met and runs one label sweep.  The
    maps are held by the call, so a group repeated across pairs is ranked
    once and keeps nothing.  A pair has at most n! / max(|G|, |H|) double
    cosets, as |G sigma H| >= max(|G|, |H|); the estimate counts that many.
    """
    if not pairs:
        return []
    n = pairs[0][0].n
    if (bad := next((m for G, H in pairs for m in (G.n, H.n) if m != n), n)) != n:
        raise DimensionMismatch(f"groups act on {n} and {bad} points")
    table = perm_table(n)
    size = len(table)
    step = max(1, BLOCK * 64 // size)
    reads = [((G, True), (H, False)) for G, H in pairs]  # the (group, left) sides a pair reads
    # the batch's int32 maps and its reports, held across chunks
    held = 4 * size * sum(len(G.generators) for G, _ in set().union(*reads))
    held += _REP_BYTES * sum(size // max(G.order, H.order) for G, H in pairs)
    widths = [len(G.generators) + len(H.generators) for G, H in pairs]
    order = sorted(range(len(pairs)), key=lambda i: -widths[i])
    maps: dict[tuple[PermGroup, bool], tuple[np.ndarray, ...]] = {}
    out: list = [None] * len(pairs)
    for start in range(0, len(pairs), step):
        index = order[start : start + step]
        chunk = [pairs[i] for i in index]
        missing = list(dict.fromkeys(s for i in index for s in reads[i] if s not in maps))
        mapped, labels = sum(widths[i] for i in index) * size, len(chunk) * size
        # ranking: per call at most BLOCK * 8 rows (one map at least), each
        # gathered (n bytes), ranked (4, with ranks' own 2) and, for a left
        # map, composed by two takes (an int32 temporary and the intp copy of
        # an index, 12): n + 16 bytes, n + 18 counted; propagation: the
        # chunk's int32 images (one pair reads its own maps), then the
        # labels, the round's labels and a gather buffer, or the bincount
        # and its intp cast: 20 bytes a label, 24 counted
        ranked = sum(len(G.generators) for G, _ in missing) * size
        ranking = min(ranked, max(size, BLOCK * 8)) * (n + 18)
        propagation = (4 * mapped if len(chunk) > 1 else 0) + 24 * labels
        check_budget("double_cosets", held + max(ranking, propagation), mapped)
        if missing:
            maps.update(zip(missing, _rank_maps(missing)))
        final = _components([maps[G, True] + maps[H, False] for G, H in chunk], size).ravel()
        counts = np.bincount(final, minlength=final.size)
        at = np.flatnonzero(counts)
        reps, sizes = _perms(table[at % size]), counts[at].tolist()
        bounds = np.searchsorted(at, np.arange(len(chunk) + 1) * size).tolist()
        for i, a, b in zip(index, bounds, bounds[1:]):
            out[i] = list(zip(reps[a:b], sizes[a:b]))
    return out


def _rank_maps(sides: list[tuple[PermGroup, bool]]) -> list[tuple[np.ndarray, ...]]:
    """Each (group, left)'s read-only int32 maps over S_n, one a generator, all of one n.

    The right map of h, sigma -> sigma h, is the ranks of table[:, h]; the
    left map of g, sigma -> g sigma, is inv[R[inv]] with R the right map of
    g^-1, since g sigma = (sigma^-1 g^-1)^-1, composed by two takes.  The
    table is column-major, so table[:, h] is n whole contiguous rows of
    table.T, gathered straight into the column-major layout ranks reads.
    The sides' tables are ranked together, at most BLOCK * 8 rows (one map
    at least) per ranks call: 56 maps a call at n = 6 and 1,680 at n = 4,
    where a call's fixed cost dominates, but one a call from n = 8, where
    its temporaries would.
    """
    n = sides[0][0].n
    table = perm_table(n)
    size = len(table)
    acts = [(left, g) for G, left in sides for g in G.generators]
    inv = inverse_ranks(n) if any(left for left, _ in acts) else None
    step = max(1, BLOCK * 8 // size)
    maps = []
    for start in range(0, len(acts), step):
        part = acts[start : start + step]
        images = np.array([(g.inverse() if left else g).images for left, g in part], dtype=np.intp)
        # cols[i, m, r] = table[r, images[m, i]]: one column-major row per (map, rank)
        cols = table.T[images.T].reshape(n, -1)
        for (left, _), r in zip(part, ranks(cols.T).reshape(-1, size)):
            maps.append(_frozen(inv.take(r.take(inv)) if left else r))
    maps = iter(maps)
    return [tuple(islice(maps, len(G.generators))) for G, _ in sides]


def _components(maps: list[tuple[np.ndarray, ...]], size: int) -> np.ndarray:
    """Each pair's row of n! labels: rank r gets the least rank of its component.

    Row c of the flat int32 labels holds c * n! + rank (a chunk holds at
    most max(BLOCK * 64, n!) labels), so a label of the label stays in its
    row.  Rows come most maps first, so images[k], map k of every row that
    has one, offset into its row, covers a prefix of the labels; one row
    reads its maps in place.  Each image is its own array, as freeing one
    block of them all would raise glibc's mmap and trim thresholds past
    the heap that later chunks leave free.  A round lowers that prefix to
    the labels of each image in turn, in place, so an image reads what the
    ones before it lowered (Gauss-Seidel), then jumps pointers; a round
    that changes nothing ends the sweep.  Gathers (_gather) write into one
    reused buffer beside the labels and the round's labels.
    """
    label = np.arange(len(maps) * size, dtype=np.int32)
    images = maps[0] if len(maps) == 1 else []
    offsets = (np.arange(len(maps), dtype=np.int32) * size)[:, None]
    for k in range(len(maps[0]) if len(maps) > 1 else 0):
        image = np.concatenate([row[k] for row in maps if len(row) > k])
        image.reshape(-1, size)[...] += offsets[: image.size // size]
        images.append(image)
    new, buf = np.empty_like(label), np.empty_like(label)
    while True:
        new[...] = label
        for image in images:
            head = new[: image.size]
            np.minimum(head, _gather(new, image, buf), out=head)
        while not np.array_equal(_gather(new, new, buf), new):
            new, buf = buf, new
        if np.array_equal(new, label):
            return label.reshape(-1, size)
        label, new = new, label


# indices per ndarray.take in _gather: an intp copy of 64 KiB, under glibc's
# default 128 KiB mmap threshold
_TAKE = 8192


def _gather(values: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """values[index] written into out[: index.size], which is returned.

    ndarray.take gathers int32 indices faster than fancy indexing, but first
    copies them to intp; taking _TAKE indices at a time keeps that copy on
    the heap, where a whole-array copy would be mapped afresh and raise the
    peak RSS.  Every index is in range, so mode="wrap" never wraps; unlike
    the default mode it writes straight into out, without a buffer.
    """
    out = out[: index.size]
    for start in range(0, index.size, _TAKE):
        values.take(index[start : start + _TAKE], out=out[start : start + _TAKE], mode="wrap")
    return out
