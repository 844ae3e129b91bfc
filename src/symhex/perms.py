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
Ranks are one in-place Lehmer loop (ranks) shared by the double cosets
and the verifier.
Equivalence compares word keys over the table (orbit_keys), never the
parity-check sums of automorphism_group.  Those pack one side of the
code (its checks or its generators) column by column into one int64, a
row per byte, so each row of the other side tests every packed row at
once; a sum is at most n (p-1)^2, under 256 for every n whose table fits
the budget, so no byte carries into the next.  From n = 6 the rows of the
other side are tested one at a time, each over only the permutations
that passed the rows before it.

A Permutation is a tuple subclass, its images themselves, so the
kernels index and gather with it directly.  Permutations read off the
table, or composed and inverted from valid ones, are built by
Permutation._known, a bare tuple.__new__ that skips the sorted(images)
check; every public Permutation(...) call keeps it.

A PermGroup is the sorted array of its members' Lehmer ranks, which are
row indices into perm_table(n); its Permutation objects are built only
when elements is first read.  Its greedy generators come from a closure
over member-indexed int32 maps: for each generator g, the position of
g m among the members for every member m, found by searching the
members' sorted base-n keys of their int8 rows.  Building S_8 so costs a
few array passes per generator instead of a Python object per element.

Double cosets G \\ S_n / H are the orbits of G on the right cosets of H
(Butler, Fundamental Algorithms for Permutation Groups, LNCS 559, 1991;
Kerber, Applied Finite Group Actions, 1999).  double_cosets_batch labels
each sigma with its coset under the maps sigma -> sigma h, one per
generator of H, ranked for the call and dropped (a group holds only its
members), then joins the cosets under r -> g r for each generator g of G
and least coset member r.  Both are one sweep: each label starts as
itself, a round lowers the labels to their images' under each map in
turn, in place, and pointer jumping (Shiloach and Vishkin, J. Algorithms
3, 1982) shortens chains, until each component holds its least member.
"""

from __future__ import annotations

import operator
from functools import cached_property, lru_cache
from math import factorial

import numpy as np

from .errors import DimensionMismatch, check_budget
from .gf import LinearCode, all_vectors, integers, nullspace, places

# rows of perm_table per scan step: 7!, so S_8 is scanned in eight blocks
BLOCK = 5040


class Permutation(tuple):
    """One-line notation over 0..n-1, as the tuple of its images (a list or array becomes ints).

    It equals and hashes like that tuple and orders lexicographically;
    len(p) == p.n and np.asarray(p) is its images.  p * q composes with a
    Permutation only; other tuple operations (p + q, k * p) give tuples.
    """

    __slots__ = ()

    def __new__(cls, images):
        try:
            checked = tuple(map(operator.index, images))
        except TypeError as exc:
            raise ValueError(f"images must be integers, got {images!r}") from exc
        if sorted(checked) != list(range(len(checked))):
            raise ValueError(f"not a permutation of 0..{len(checked)-1}: {checked}")
        return tuple.__new__(cls, checked)

    @classmethod
    def _known(cls, images) -> "Permutation":
        """Unchecked: for images that are a permutation by construction."""
        return tuple.__new__(cls, images)

    @property
    def n(self) -> int:
        return len(self)

    def compose(self, other: "Permutation") -> "Permutation":
        """self * other: apply other first, then self."""
        if not isinstance(other, Permutation):
            raise TypeError(f"compose takes a Permutation, not {type(other).__name__}")
        if len(other) != len(self):
            raise DimensionMismatch(f"permutations on {self.n} and {other.n} points")
        return Permutation._known([self[j] for j in other])

    def __mul__(self, other: "Permutation") -> "Permutation":
        return self.compose(other)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self)
        for i, j in enumerate(self):
            inv[j] = i
        return Permutation._known(inv)

    def rank(self) -> int:
        """Lehmer rank: position in the lexicographic order of S_n."""
        return rank_images(self)

    def cycle_string(self) -> str:
        """Disjoint cycles on 1-based points; 'e' for the identity."""
        seen, parts = set(), []
        for i in range(len(self)):
            j, cyc = i, []
            while j not in seen:
                seen.add(j)
                cyc.append(str(j + 1))
                j = self[j]
            if len(cyc) > 1:
                parts.append("(" + " ".join(cyc) + ")")
        return "".join(parts) or "e"

    def __repr__(self) -> str:
        return f"Permutation({tuple(self)})"


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


def apply_perm(perm: Permutation, code: LinearCode) -> LinearCode:
    """The code {pi . v : v in code}, recanonicalized."""
    if perm.n != code.n:
        raise DimensionMismatch(f"permutation on {perm.n} points, code length {code.n}")
    return LinearCode(code.p, code.gen[:, perm.inverse()], n=code.n)


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
    words = [(places(c.p, n).astype(float), c.codewords().T.astype(float)) for c in codes]
    for start in range(0, len(table), step):
        block = table[start : start + step]
        keys = [(place[block] @ W).astype(np.int32) for place, W in words]
        yield block, np.hstack([np.sort(k, axis=1) for k in keys])


def word_keys(codes: list[LinearCode]) -> np.ndarray:
    """The own word key of each code of one (p, n, k), one int32 row a code.

    A code's row is its slice of orbit_keys' identity row, without a scan.
    A chunk's codewords are one float64 product of the p^k messages with the
    chunk's stacked generators, reduced mod p and read in base p by one more
    product.  The keys need no sort: the generator is in RREF, so two
    messages first differing at row i give words that agree left of pivot i
    and differ at it by those digits, and the words ascend in message order.
    A chunk holds at most BLOCK * 64 codewords, so its float64 copies stay a
    few tens of MiB; the caller states the budget.
    """
    p, n, k = codes[0].p, codes[0].n, codes[0].k
    msgs = all_vectors(p, k).astype(float)
    place = places(p, n).astype(float)
    step = max(1, BLOCK * 64 // len(msgs))
    gens = np.array([c.gen for c in codes])
    keys = np.empty((len(codes), len(msgs)), dtype=np.int32)
    for start in range(0, len(codes), step):
        words = msgs @ gens[start : start + step].astype(float)
        keys[start : start + step] = np.fmod(words, p) @ place
    return keys


def first_carrying(sources: tuple, targets: tuple) -> "Permutation | None":
    """The lex-first sigma with sigma . sources[i] == targets[i] for each i, or None.
    A table past the budget raises BudgetExceeded, even when a dimension differs."""
    perm_table(sources[0].n)  # the S_n table's budget
    if any(s.k != t.k for s, t in zip(sources, targets)):
        return None
    want = None
    for block, keys in orbit_keys(sources):
        if want is None:  # past orbit_keys' budget, whose 8 W n codeword term covers the targets
            want = np.hstack([word_keys([t])[0] for t in targets])
        hits = np.flatnonzero((keys == want).all(axis=1))
        if hits.size:
            return Permutation._known(block[hits[0]].tolist())
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

    def __contains__(self, perm) -> bool:
        """Whether perm, as a Permutation on n points, is a member."""
        try:
            perm = Permutation(perm)
        except ValueError:
            return False
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
    return tuple(map(Permutation._known, rows.tolist()))


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


# bytes per double coset reported: its Permutation (one tuple object), its
# (rep, size) tuple and the image list it is read from
_REP_BYTES = 400


def double_cosets_batch(
    pairs: list[tuple[PermGroup, PermGroup]],
) -> list[list[tuple[Permutation, int]]]:
    """double_cosets(G, H) for each pair (G, H) of groups on one n, in order.

    Stage 1 labels each sigma with the least rank of sigma H from H's right
    maps (_rank_maps), once per distinct H, most generators first, in
    chunks of at most max(BLOCK * 64, n!) labels, and numbers H's cosets
    in rank order.  Stage 2 (_orbits) takes the chunk's pairs, most
    generators of G first, as many a run as a chunk has H.  Maps and labels
    live for the call.  A pair has at least n! / (|G| |H|) double cosets,
    as |G sigma H| <= |G| |H|; a batch whose fewest reports pass the budget
    is refused up front, then each estimate counts the reports held and a
    run's own, once its sweep has counted them, before they are built.
    """
    if not pairs:
        return []
    n = pairs[0][0].n
    if (bad := next((m for G, H in pairs for m in (G.n, H.n) if m != n), n)) != n:
        raise DimensionMismatch(f"groups act on {n} and {bad} points")
    size = len(perm_table(n))
    step = max(BLOCK * 64, size) // size
    check_budget("double_cosets", _REP_BYTES * sum(size // (G.order * H.order) for G, H in pairs))
    free = sorted(dict.fromkeys(H for _, H in pairs), key=lambda H: -len(H.generators))
    out: dict[int, list[tuple[Permutation, int]]] = {}
    for start in range(0, len(free), step):
        chunk = free[start : start + step]
        labels, mapped = len(chunk) * size, sum(len(H.generators) for H in chunk) * size
        # the int32 images, then per ranks call at most BLOCK * 8 rows (one
        # map at least), each gathered (n bytes) and ranked (4, with ranks'
        # own 2, and the last call's 4), or the sweep's three int32 label
        # arrays; after it, the labels, the least members' bools and intp
        # places and an int32 count with its temporary
        ranked = min(mapped, max(size, BLOCK * 8)) * (n + 10)
        held = _REP_BYTES * sum(map(len, out.values()))
        check_budget("double_cosets", held + 4 * mapped + max(ranked, 24 * labels), mapped)
        label = _components(_rank_maps(chunk), labels)
        least = label == np.arange(labels, dtype=np.int32)  # each coset's least member
        roots = np.flatnonzero(least)
        node = _gather(np.cumsum(least, dtype=np.int32) - 1, label, label)  # cosets in rank order
        first = np.cumsum([0] + [size // H.order for H in chunk]).tolist()
        cosets = {H: roots[a:b] for H, a, b in zip(chunk, first, first[1:])}  # least members
        index = sorted((i for i, (_, H) in enumerate(pairs) if H in cosets),
                       key=lambda i: -len(pairs[i][0].generators))
        for at in range(0, len(index), step):
            run = index[at : at + step]
            held = _REP_BYTES * sum(map(len, out.values())) + 13 * labels
            out.update(zip(run, _orbits([pairs[i] for i in run], node, cosets, held)))
    return [out[i] for i in range(len(pairs))]


def _orbits(pairs: list, node: np.ndarray, cosets: dict, held: int) -> list[list]:
    """Stage 2: each pair's double cosets, the orbits of G on the cosets of H.

    Pair p's nodes, H's cosets in rank order, are labels offsets[p] and up.
    Image k, a prefix of the labels, sends the coset of r to that of g r,
    for generator k of G and the least member r; one ranks call ranks them
    all.  An orbit's least node holds its least member.
    """
    n = pairs[0][0].n
    table = perm_table(n)
    least = [cosets[H] for _, H in pairs]
    nodes, gens = [len(x) for x in least], [len(G.generators) for G, _ in pairs]
    offsets = np.cumsum([0] + nodes)
    edges, count = sum(map(operator.mul, gens, nodes)), int(offsets[-1])
    # per edge its int8 row of g r, taken and then joined, its int32 rank
    # and ranks' own 2 bytes; per node its least member's int8 column, a
    # generator's int8 copy and the intp copy of the take's index, or the
    # sweep's three int32 labels, two int32 offsets, the int64 counts and
    # the intp least members, their ranks and the orders
    held += edges * (2 * n + 6) + count * (10 * n + 56)
    check_budget("double_cosets", held, edges)
    least = np.concatenate(least)  # c n! + rank for H's row c of the stage-1 labels
    rank = least % len(table)
    images = []
    if edges:
        cols = table.T[:, rank]  # each node's least member, column-major
        reach = np.searchsorted(-np.array(gens), -np.arange(gens[0])).tolist()
        parts = []
        for k, c in enumerate(reach):  # generator k of each of the first c pairs, at their nodes
            g = np.array([G.generators[k] for G, _ in pairs[:c]], dtype=np.int8).T
            parts.append(np.take_along_axis(np.repeat(g, nodes[:c], 1), cols[:, : offsets[c]], 0))
        r = ranks(np.concatenate(parts, axis=1).T)
        del parts, cols
        # per node, its H's row of stage-1 labels and its pair's first label less H's first node
        row = (least - rank).astype(np.int32)
        shift = np.repeat(offsets[:-1] - node[least[offsets[:-1]]], nodes).astype(np.int32)
        for c in reach:
            image, r = r[: offsets[c]], r[offsets[c] :]
            image += row[: image.size]
            images.append(_gather(node, image, image) + shift[: image.size])
    counts = np.bincount(_components(images, count), minlength=count)
    at = np.flatnonzero(counts)
    check_budget("double_cosets", held + _REP_BYTES * at.size, edges)  # one report an orbit
    reps = _perms(table[rank[at]])
    sizes = (counts[at] * np.repeat([H.order for _, H in pairs], nodes)[at]).tolist()
    bounds = np.searchsorted(at, offsets).tolist()
    return [list(zip(reps[a:b], sizes[a:b])) for a, b in zip(bounds, bounds[1:])]


def _rank_maps(groups: list[PermGroup]) -> list[np.ndarray]:
    """The right maps of groups of one n, most generators first, as sweep images.

    Group c's labels are c * n! + rank; image k holds generator k's map of
    every group that has one, a prefix of the labels.  The map of h is the
    ranks of table[:, h]: n whole contiguous rows of the column-major
    table, in the layout ranks reads.  A ranks call takes at most BLOCK * 8
    rows (one map at least): 1,680 maps at n = 4, where a call's fixed cost
    dominates, one from n = 8, where its temporaries would.  Each image is
    its own array, as freeing one block of them all would raise glibc's
    mmap and trim thresholds past the heap that later chunks leave free.
    """
    n = groups[0].n
    table = perm_table(n)
    size = len(table)
    acts = [(k, c * size, h) for c, G in enumerate(groups) for k, h in enumerate(G.generators)]
    images = [np.empty(size * sum(len(G.generators) > k for G in groups), dtype=np.int32)
              for k in range(len(groups[0].generators))]
    step = max(1, BLOCK * 8 // size)
    for start in range(0, len(acts), step):
        part = acts[start : start + step]
        # table.T[index][i, m, r] = table[r, h_m[i]]: one column-major row per (map, rank)
        index = np.array([h for *_, h in part], dtype=np.intp).T
        for (k, at, _), r in zip(part, ranks(table.T[index].reshape(n, -1).T).reshape(-1, size)):
            np.add(r, at, out=images[k][at : at + size])
    return images


def _components(images: list[np.ndarray], count: int) -> np.ndarray:
    """count int32 labels, label i lowered to the least label of its component.

    images[k] maps a prefix of the labels into the same row of labels.  A
    round lowers that prefix to the labels of each image in turn, in place,
    so an image reads what the ones before it lowered (Gauss-Seidel), then
    jumps pointers; a round that changes nothing ends the sweep.  Gathers
    (_gather) write into one reused buffer beside the two label arrays.
    """
    label = np.arange(count, dtype=np.int32)
    new, buf = np.empty_like(label), np.empty_like(label)
    while True:
        new[...] = label
        for image in images:
            head = new[: image.size]
            np.minimum(head, _gather(new, image, buf), out=head)
        while not np.array_equal(_gather(new, new, buf), new):
            new, buf = buf, new
        if np.array_equal(new, label):
            return label
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
