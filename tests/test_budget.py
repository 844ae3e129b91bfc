"""The work budget: one helper, and estimates that cover what the sites hold."""

from __future__ import annotations

import ast
import tracemalloc
from importlib import import_module
from math import factorial
from pathlib import Path

import numpy as np
import pytest

import symhex
from symhex import errors
from symhex.classify import classify, inequivalent_reps, verify_classification
from symhex.codes import build, dual_bruteforce, enumerate_words, word_set
from symhex.errors import MAX_BYTES, MAX_OPS, BudgetExceeded, check_budget
from symhex.gf import LinearCode, all_vectors, random_code
from symhex.perms import (
    BLOCK,
    PermGroup,
    automorphism_group,
    double_cosets,
    double_cosets_batch,
    perm_equivalent,
    perm_table,
)
from symhex.ring import RingId
from symhex.symplectic import SymplecticSpace, isotropic_subspaces

H23, H32 = RingId.H23, RingId.H32


def test_check_budget_refuses_past_either_bound():
    check_budget("site", MAX_BYTES, MAX_OPS)  # the bounds themselves pass
    with pytest.raises(BudgetExceeded, match=r"^site needs about 1,073,741,825 bytes .* budget"):
        check_budget("site", MAX_BYTES + 1)
    with pytest.raises(BudgetExceeded, match=r"^site needs .* and 1,073,741,825 operations"):
        check_budget("site", 0, MAX_OPS + 1)


# the raises of BudgetExceeded outside check_budget: bounds on outside input
# and on exactness, not budgets
KEPT_BOUNDS = {
    "gf._check_length",  # MAX_LENGTH
    "symplectic.SymplecticSpace.__init__",  # MAX_LENGTH
    "codes._check_word_code_length",  # MAX_WORD_CODE_N
    "symplectic.count_isotropic",  # COUNT_DIGITS
}


def test_every_budget_raise_is_the_helper_or_a_kept_bound():
    raisers = set()
    for path in sorted(Path(symhex.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(path.stem, node) for node in tree.body]
        while scopes:
            prefix, node = scopes.pop()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scopes += [(f"{prefix}.{node.name}", child) for child in node.body]
                continue
            for sub in ast.walk(node):
                exc = sub.exc if isinstance(sub, ast.Raise) else None
                if isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == "BudgetExceeded":
                    raisers.add(prefix)
    assert raisers == KEPT_BOUNDS | {"errors.check_budget"}


def _budget_sites() -> tuple[set[str], set[str]]:
    """The site names src passes to check_budget, and the functions that
    pass on a site name they were given."""
    sites, relays = set(), set()
    for path in sorted(Path(symhex.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            for call in ast.walk(func):
                if getattr(getattr(call, "func", None), "id", None) != "check_budget":
                    continue
                if isinstance(call.args[0], ast.Constant):
                    sites.add(call.args[0].value)
                else:
                    relays.add(f"{path.stem}.{func.name}")
    return sites, relays


def test_every_budget_site_has_a_traced_case_and_a_readme_row():
    sites, relays = _budget_sites()
    assert relays == set()
    assert sites == {key.partition(":")[0] for key in CASES}
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n## Budgets\n")[1].split("\n## ")[0]
    rows = [line.split("|")[1] for line in table.splitlines() if line.startswith("| ")]
    assert [site for site in sorted(sites) if not any(site in row for row in rows[1:])] == []


def test_double_cosets_budget_counts_the_reports_not_their_bound(monkeypatch):
    # 64 pairs of eight order-8 groups at n = 6 report 1,256 double cosets,
    # where n! / max(|G|, |H|) = 90 a pair bounds 5,760; a budget of 400
    # bytes a bounded report refuses a batch that budgets by the bound
    rng = np.random.default_rng(7)
    codes = (random_code(p, 6, rng) for p in (2, 3) for _ in range(60))
    groups = [G for G in map(automorphism_group, codes) if G.order == 8][:8]
    pairs = [(G, H) for G in groups for H in groups]
    want = [double_cosets(G, H) for G, H in pairs]
    assert len(groups) == 8 and sum(map(len, want)) == 1256
    monkeypatch.setattr(errors, "MAX_BYTES", 400 * len(pairs) * factorial(6) // 8)
    assert double_cosets_batch(pairs) == want


def test_word_sets_state_their_decode_before_it(monkeypatch):
    # 1,296 words: their 31,104 bytes of word codes fit, their HzWords do not
    full = (LinearCode.full(2, 4), LinearCode.full(3, 4))
    monkeypatch.setattr(errors, "MAX_BYTES", 100_000)
    ws, ws2 = word_set(build(H23, *full)), word_set(build(H32, *full))
    assert len(ws) == len(ws2) == 1296
    for decode in (list, hash, lambda s: s & ws2, lambda s: ws2 | s):
        with pytest.raises(BudgetExceeded, match="^enumerate_words"):
            decode(ws)
    with pytest.raises(BudgetExceeded, match="^enumerate_words"):
        enumerate_words(build(H23, *full))


# ---------------------------------------------------------------------------
# estimates against tracemalloc: one case per site, n <= 9, caches cleared


def _verify_case():
    lists = []
    for p in (2, 3):
        space = SymplecticSpace.for_length(p, 4)
        lists.append(inequivalent_reps([c for k in range(3) for c in isotropic_subspaces(space, k)]))
    la, lb = lists
    records = classify(H23, la, lb, "SO")
    return lambda: verify_classification(records, H23, la, lb, "SO")


def _groups_case():
    pairs = np.hstack([np.kron(np.eye(4, dtype=np.int64), [[1, 1]]), np.zeros((4, 1), np.int64)])
    G = automorphism_group(LinearCode(2, pairs))
    H = automorphism_group(LinearCode(3, [[1] * 6 + [0] * 3]))
    # fresh groups, so their rank maps are built inside the traced call
    G, H = PermGroup(9, G.ranks), PermGroup(9, H.ranks)
    return lambda: double_cosets(G, H)


def _batch_case():
    # 900 pairs of 30 groups at n = 6: one chunk of free groups, whose pairs
    # take more than one run of BLOCK * 64 // 6! pairs
    rng = np.random.default_rng(6)
    perm_table(6)
    groups = [automorphism_group(random_code(p, 6, rng, k=2)) for p in (2, 3) for _ in range(15)]
    groups = [PermGroup(6, G.ranks) for G in groups]  # their rank maps are built inside the call
    pairs = [(G, H) for G in groups for H in groups]
    assert len(pairs) > BLOCK * 64 // factorial(6)
    return lambda: double_cosets_batch(pairs)


def _dedup_case():
    # the binary Lagrangians, then 5,125 ternary codes whose k = 2 batch
    # (3,640 codes) is one word_keys chunk
    perm_table(6)
    lagrangians = isotropic_subspaces(SymplecticSpace(2, 3), 3)
    ternary = [c for k in range(4) for c in isotropic_subspaces(SymplecticSpace(3, 3), k)]
    return lambda: (inequivalent_reps(lagrangians), inequivalent_reps(ternary))


def _codes(seed: int, p: int, n: int, k: int, count: int) -> list[LinearCode]:
    rng = np.random.default_rng(seed)
    return [random_code(p, n, rng, k=k) for _ in range(count)]


# site[:case] -> setup run untraced, returning the call to trace
CASES = {
    "perm_table": lambda: (perm_table(8), lambda: perm_table(9))[1],
    "PermGroup": lambda: (perm_table(9), lambda: PermGroup(9, np.arange(factorial(9))))[1],
    "automorphism_group": lambda: (
        perm_table(9), lambda: automorphism_group(_codes(9, 3, 9, 4, 1)[0])
    )[1],
    "orbit_keys": lambda: (
        perm_table(8), lambda: perm_equivalent(*_codes(8, 3, 8, 3, 2))
    )[1],
    "double_cosets": _groups_case,
    "double_cosets:batch": _batch_case,
    "codewords": lambda: (all_vectors(3, 9), LinearCode.full(3, 9).codewords)[1],
    "all_vectors": lambda: lambda: all_vectors(3, 9),
    "word_set": lambda: lambda: word_set(build(H32, LinearCode.full(2, 6), LinearCode.full(3, 6))),
    "enumerate_words": lambda: lambda: enumerate_words(
        build(H23, LinearCode.full(2, 4), LinearCode.full(3, 4))
    ),
    # small word sets, where the fixed arrays outweigh the words
    "enumerate_words:full_n2": lambda: lambda: enumerate_words(
        build(H23, LinearCode.full(2, 2), LinearCode.full(3, 2))
    ),
    "enumerate_words:repetition_n24": lambda: lambda: enumerate_words(
        build(H32, LinearCode(2, [[1] * 24]), LinearCode(3, [[1] * 24]))
    ),
    "dual_bruteforce": lambda: lambda: dual_bruteforce(
        build(H32, LinearCode.zero(2, 6), LinearCode.full(3, 6))
    ),
    "isotropic_subspaces": lambda: lambda: isotropic_subspaces(SymplecticSpace(3, 3), 2),
    "orbit claims": _dedup_case,
    "verify_classification": _verify_case,
}

CACHED = (perm_table, all_vectors)


@pytest.mark.parametrize("site", CASES)
def test_estimates_cover_the_traced_peak(site, monkeypatch):
    for cached in CACHED:
        cached.cache_clear()
    estimates: dict[str, int] = {}

    def recording(name, nbytes, ops=0):
        estimates[name] = max(nbytes, estimates.get(name, 0))
        check_budget(name, nbytes, ops)

    for module in ("gf", "codes", "perms", "symplectic", "classify"):
        monkeypatch.setattr(import_module(f"symhex.{module}"), "check_budget", recording)
    call = CASES[site]()
    estimates.clear()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        for cached in CACHED:
            cached.cache_clear()
    assert site.partition(":")[0] in estimates
    # the largest estimate of each site the call checked, summed, against the call's peak
    assert sum(estimates.values()) >= peak, (estimates, peak)
