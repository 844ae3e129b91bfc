"""The four benchmark workloads and the frozen answers every pass checks.

A workload has ``setup(seed, workdir)``, which builds its inputs, and
``run_pass(inputs)``, which does the measured work once and returns
``(attempted, failed)`` checks.  Passes call symhex only through module
attributes looked up at call time, so a tracer that rebinds them sees
every call.  A check fails on a wrong count, a wrong digest, a
verification that reports failure, or an exception.

The anchors below were captured from the package as it stood when this
benchmark was defined; they are the regression oracle, not a fresh
computation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import itertools
from importlib import import_module
from math import factorial
from pathlib import Path

import numpy as np

# import_module returns the module even where symhex/__init__.py rebinds the
# package attribute (symhex.classify is the function there)
sx_cli = import_module("symhex.cli")
sx_classify = import_module("symhex.classify")
sx_codes = import_module("symhex.codes")
sx_gf = import_module("symhex.gf")
sx_io = import_module("symhex.io")
sx_perms = import_module("symhex.perms")
sx_sym = import_module("symhex.symplectic")
RingId = import_module("symhex.ring").RingId
H23, H32 = RingId.H23, RingId.H32

# ---------------------------------------------------------------------------
# anchors

# (n, ring, target) -> (record count, sha256 of the catalog file)
CLASSIFY_ANCHORS = {
    (2, H23, "SO"): (
        13, "bcfd5f0d4124c195bbf9505f1d791f78d0d6702c93f4647a71f4f79d88c3b8fc"),
    (2, H32, "SO"): (
        13, "0f61b9a16fdd855f12fe02259a7acc321a01c879b4ccdeb1cc19ac497ad41cce"),
    (2, H23, "QSD"): (
        7, "db887e667b648e6f24462930dd3220aeda70353cbba9d7e260cc4db3227339ce"),
    (2, H32, "QSD"): (
        7, "99002962cfa66ede301a100f3b9177b781ec8b8b0f033cf04941f582e693865a"),
    (2, H23, "SD"): (
        2, "a81c1409e83dbc77b82db3be7314f9eb20d7456929102af923ac8e4725eaf4a8"),
    (2, H32, "SD"): (
        3, "58d0b39b24cf38eff980292d12b26a3a4b7900db69e96900430ec75c1fdd9cf4"),
    (4, H23, "SO"): (
        423, "6895c6935f3f27323f37e0b49d41c34fe285b1b6245f701cca254e390c7a4ba5"),
    (4, H32, "SO"): (
        423, "6fc7e9b760df898483df42985457ca2540d07b909d99cfc378b98a1ee54e3526"),
    (4, H23, "QSD"): (
        158, "7e3ff6fb95a1b989d3be55b6d5eb23dd72288b832459d41ee6fd038af303a1ef"),
    (4, H32, "QSD"): (
        158, "372c74315c5086d70b1384687a4f7c23acd240ef5799b15e75bbb8b527070dee"),
    (4, H23, "SD"): (
        4, "d48910e97f7c904dcfdfc9c3ec50d91fb3bac61931d4826008601db5aee9948c"),
    (4, H32, "SD"): (
        12, "a00c6fc1e1c52399160835363b68be6d147e832d9f6e78babe52a35dd1859c9d"),
}

COSET_AUT_ORDERS = (384, 1440)  # |Aut(ca)|, |Aut(cb)|
COSET_SIZES = [5760, 34560]
COSET_RECORDS = 2

# (p, k) -> number of totally isotropic k-subspaces of F_p^6
ISOTROPIC_N6 = {
    (2, 0): 1, (2, 1): 63, (2, 2): 315, (2, 3): 135,
    (3, 0): 1, (3, 1): 364, (3, 2): 3640, (3, 3): 1120,
}
LAGRANGIAN_CLASSES_N6 = 10


# ---------------------------------------------------------------------------
# classify_verify: the CLI classify --verify path at n = 2 and 4


def _iso_classes(p: int, n: int):
    space = sx_sym.SymplecticSpace.for_length(p, n)
    codes = [c for k in range(space.m + 1) for c in sx_sym.isotropic_subspaces(space, k)]
    return sx_classify.inequivalent_reps(codes)


def classify_setup(seed: int, workdir: Path, anchors=CLASSIFY_ANCHORS) -> list[tuple]:
    """List files per n from the deduplicated isotropic subspaces (criterion 8)."""
    cases = []
    for n in (2, 4):
        la, lb = _iso_classes(2, n), _iso_classes(3, n)
        lists = {
            "": (la, lb),
            "sd": (la + [sx_gf.LinearCode.full(2, n)], lb + [sx_gf.LinearCode.full(3, n)]),
        }
        paths = {}
        for tag, (xla, xlb) in lists.items():
            pa, pb = workdir / f"la{n}{tag}.txt", workdir / f"lb{n}{tag}.txt"
            pa.write_text(sx_io.format_matrix_list(xla), encoding="ascii")
            pb.write_text(sx_io.format_matrix_list(xlb), encoding="ascii")
            paths[tag] = (str(pa), str(pb))
        for ring in (H23, H32):
            for target in ("SO", "QSD", "SD"):
                pa, pb = paths["sd" if target == "SD" else ""]
                out = str(workdir / f"catalog-{n}-{ring}-{target}.json")
                argv = ["classify", "--ring", ring.value, "--n", str(n), "--target", target,
                        "--ca-list", pa, "--cb-list", pb, "--out", out, "--verify"]
                cases.append((argv, out) + anchors[(n, ring, target)])
    return cases


def classify_pass(cases) -> tuple[int, int]:
    """Per case: the record count, the verification verdict, the catalog digest."""
    failed = 0
    for argv, out, want_count, want_sha in cases:
        buf = _stdio.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = sx_cli.main(argv)
            lines = buf.getvalue().splitlines()
            with open(out, "rb") as fh:
                sha = hashlib.sha256(fh.read()).hexdigest()
        except Exception:
            failed += 3
            continue
        failed += f"total: {want_count}" not in lines
        failed += rc != 0 or "verification: ok" not in lines
        failed += sha != want_sha
    return 3 * len(cases), failed


# ---------------------------------------------------------------------------
# cosets_n8: automorphism groups and double cosets at length 8 (criterion 9)


def cosets_setup(seed: int, workdir: Path):
    # four disjoint pairs, and the weight-6 ternary repetition
    ca = sx_gf.LinearCode(2, np.kron(np.eye(4, dtype=np.int64), [[1, 1]]))
    cb = sx_gf.LinearCode(3, [[1, 1, 1, 1, 1, 1, 0, 0]])
    return ca, cb


def _coset_size(left, right, sigma) -> int:
    """|G sigma H| = |G| |H| / |G & sigma H sigma^-1|, counted from the elements."""
    inv = sigma.inverse()
    conj = {sigma * h * inv for h in right.elements}
    return left.order * right.order // sum(1 for g in left.elements if g in conj)


def cosets_pass(inputs) -> tuple[int, int]:
    """Both |Aut|, then per ring the record count and coset sizes partitioning S_8."""
    ca, cb = inputs
    try:
        ga = sx_perms.automorphism_group(ca)
        gb = sx_perms.automorphism_group(cb)
    except Exception:
        return 5, 5
    failed = int((ga.order, gb.order) != COSET_AUT_ORDERS)
    for ring in (H23, H32):
        try:
            records = sx_classify.classify(ring, [ca], [cb], "SO")
            # classify moves the free side: Aut(governing) on the left
            left, right = (ga, gb) if ring is H23 else (gb, ga)
            sizes = sorted(_coset_size(left, right, rec.sigma) for rec in records)
        except Exception:
            failed += 2
            continue
        failed += len(records) != COSET_RECORDS
        failed += sizes != COSET_SIZES or sum(sizes) != factorial(8)
    return 5, failed


# ---------------------------------------------------------------------------
# dedup_n6: isotropic enumeration at length 6, dedup of the binary Lagrangians


def dedup_setup(seed: int, workdir: Path):
    return {p: sx_sym.SymplecticSpace.for_length(p, 6) for p in (2, 3)}


def dedup_pass(spaces) -> tuple[int, int]:
    """Every (p, k) count against the closed form, then the class count."""
    failed = 0
    lagrangians = []
    for (p, k), want in ISOTROPIC_N6.items():
        try:
            found = sx_sym.isotropic_subspaces(spaces[p], k)
        except Exception:
            failed += 1
            continue
        failed += len(found) != want
        if (p, k) == (2, 3):
            lagrangians = found
    try:
        failed += len(sx_classify.inequivalent_reps(lagrangians)) != LAGRANGIAN_CLASSES_N6
    except Exception:
        failed += 1
    return len(ISOTROPIC_N6) + 1, failed


# ---------------------------------------------------------------------------
# predicate_oracle: fast dual and flags against the word-level twins


def _all_subspaces(p: int, n: int):
    """Every subspace of F_p^n by brute rref dedup, ordered by (k, generator)."""
    seen = {}
    for k in range(n + 1):
        for entries in itertools.product(range(p), repeat=k * n):
            code = sx_gf.LinearCode(p, np.reshape(entries, (k, n)), n=n)
            seen.setdefault((code.k, code.gen.tobytes()), code)
    return [seen[key] for key in sorted(seen)]


def oracle_setup(seed: int, workdir: Path):
    """All 30 pairs at n = 2, then 200 seeded random pairs at n = 4 per ring."""
    surface2 = [(ca, cb) for ca in _all_subspaces(2, 2) for cb in _all_subspaces(3, 2)]
    rng = np.random.default_rng(seed)
    return [
        (ring, ca, cb)
        for ring in (H23, H32)
        for ca, cb in surface2
        + [(sx_gf.random_code(2, 4, rng), sx_gf.random_code(3, 4, rng)) for _ in range(200)]
    ]


_TWINS = (
    ("so", "is_self_orthogonal_bruteforce"),
    ("sd", "is_self_dual_bruteforce"),
    ("qsd", "is_qsd_bruteforce"),
    ("nice", "is_nice_bruteforce"),
    ("lcd", "is_lcd_bruteforce"),
)


def oracle_pass(triples) -> tuple[int, int]:
    """Per pair: dual against dual_bruteforce, each flag against its twin."""
    failed = 0
    for ring, ca, cb in triples:
        try:
            code = sx_codes.build(ring, ca, cb)
            fl = sx_codes.flags(code)
            agree = [sx_codes.word_set(sx_codes.dual(code)) == sx_codes.dual_bruteforce(code)]
            agree += [fl[key] == getattr(sx_codes, twin)(code) for key, twin in _TWINS]
        except Exception:
            agree = [False] * (1 + len(_TWINS))
        failed += agree.count(False)
    return len(triples) * (1 + len(_TWINS)), failed


# name -> (setup, pass, items per pass, what an item is)
WORKLOADS = {
    "classify_verify": (classify_setup, classify_pass, 1223, "record classified and verified"),
    "cosets_n8": (cosets_setup, cosets_pass, 2 * factorial(8), "permutation of S_8 put in a coset"),
    "dedup_n6": (dedup_setup, dedup_pass, 135, "input code deduplicated"),
    "predicate_oracle": (oracle_setup, oracle_pass, 460, "pair checked"),
}
