"""Component-pair codes: words, inner products, duals, predicates."""

from __future__ import annotations

import ast
import importlib.util
import re
import sys
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

import symhex
from symhex.classify import classify
from symhex.codes import (
    MAX_WORD_CODE_N,
    HzCode,
    HzWord,
    WordSet,
    build,
    dual,
    dual_bruteforce,
    enumerate_words,
    equivalent,
    euclidean_inner,
    flags,
    is_euclidean_self_orthogonal,
    is_lcd,
    is_lcd_bruteforce,
    is_nice,
    is_nice_bruteforce,
    is_qsd,
    is_qsd_bruteforce,
    is_self_dual,
    is_self_dual_bruteforce,
    is_self_orthogonal,
    is_self_orthogonal_bruteforce,
    join,
    split,
    symplectic_inner,
    word_set,
)
from symhex.errors import (
    BudgetExceeded,
    LengthMismatch,
    OddLength,
    RingMismatch,
)
from symhex.gf import LinearCode, all_vectors, random_code
from symhex.perms import Permutation
from symhex.ring import A, RingId, ZERO
from symhex.symplectic import SymplecticSpace, isotropic_subspaces

from oracles import ref_is_euclidean_self_orthogonal

H23, H32 = RingId.H23, RingId.H32


def rep2(n=2):
    return LinearCode(2, [[1] * n])


def rep3(n=2):
    return LinearCode(3, [[1] * n])


@pytest.fixture
def r2():
    # length-2 repetition pair over H23
    return build(H23, rep2(), rep3())


def test_build_validation():
    with pytest.raises(LengthMismatch):
        build(H23, LinearCode(2, [[1, 1]]), LinearCode(3, [[1, 1, 1, 1]]))
    with pytest.raises(OddLength):
        build(H23, LinearCode(2, [[1, 1, 1]]), LinearCode(3, [[1, 1, 1]]))
    with pytest.raises(LengthMismatch):
        build(H23, LinearCode.zero(2, 0), LinearCode.zero(3, 0))
    with pytest.raises(Exception):
        build(H23, rep3(), rep2())  # components swapped


def test_word_rendering():
    w = HzWord(H23, bytes([1, 0, 1, 0]), bytes([0, 1, 2, 0]))
    assert str(w) == "abe0"
    assert HzWord.from_symbols(H23, "abe0") == w
    assert w.elements()[2].symbol == "e"


def test_repetition_code_words(r2):
    words = enumerate_words(r2)
    assert len(words) == 6 == r2.size
    assert {str(w) for w in words} == {"00", "aa", "bb", "cc", "dd", "ee"}


# the 18 words of the dual of the length-2 repetition pair, frozen
R2_DUAL_WORDS = {
    "00", "0b", "0d", "b0", "bb", "bd", "d0", "db", "dd",
    "aa", "ac", "ae", "ca", "cc", "ce", "ea", "ec", "ee",
}


def test_repetition_code_dual(r2):
    d = dual(r2)
    assert d.ca == rep2() and d.cb.is_full()
    ws = word_set(d)
    assert len(ws) == 18
    assert {str(w) for w in ws} == R2_DUAL_WORDS
    assert ws == dual_bruteforce(r2)


def test_repetition_code_flags(r2):
    assert flags(r2) == {"so": True, "sd": False, "qsd": True, "nice": False, "lcd": False}


def test_length4_coordinate_pair_code():
    # words supported on the first two coordinates, free there
    ca = LinearCode(2, [[1, 0, 0, 0], [0, 1, 0, 0]])
    cb = LinearCode(3, [[1, 0, 0, 0], [0, 1, 0, 0]])
    c = build(H23, ca, cb)
    assert c.size == 36
    assert len(enumerate_words(c)) == 36
    assert is_self_orthogonal(c)
    assert is_qsd(c)
    assert not is_self_dual(c)
    # the Euclidean form does not vanish: <a000, a000> = a
    w = HzWord.from_symbols(H23, "a000")
    assert euclidean_inner(w, w) == A
    assert not is_euclidean_self_orthogonal(c)


def test_symplectic_inner_lands_in_the_right_ideal():
    rng = np.random.default_rng(31)
    for ring in (H23, H32):
        for _ in range(50):
            u1, v1 = rng.integers(0, 2, 4), rng.integers(0, 3, 4)
            u2, v2 = rng.integers(0, 2, 4), rng.integers(0, 3, 4)
            w1 = HzWord(ring, u1.astype(np.int8).tobytes(), v1.astype(np.int8).tobytes())
            w2 = HzWord(ring, u2.astype(np.int8).tobytes(), v2.astype(np.int8).tobytes())
            val = symplectic_inner(w1, w2)
            # the governing rows x = (x1 | x2) and y = (y1 | y2) pair to x1 . y2 - x2 . y1
            x, y, p = (u1, u2, 2) if ring is H23 else (v1, v2, 3)
            want = (x[:2] @ y[2:] - x[2:] @ y[:2]) % p
            assert (val.x, val.y) == ((want, 0) if ring is H23 else (0, want))


def test_symplectic_inner_builds_only_the_governing_space(monkeypatch):
    fields = []
    real = SymplecticSpace.for_length
    monkeypatch.setattr(SymplecticSpace, "for_length", lambda p, n: fields.append(p) or real(p, n))
    for ring in (H23, H32):
        w = HzWord.from_symbols(ring, "abcd")
        symplectic_inner(w, w)
    assert fields == [2, 3]


@pytest.mark.parametrize("ring", [H23, H32])
@pytest.mark.parametrize("n", [2, 4])
def test_every_word_is_self_orthogonal(ring, n):
    # the form is alternating over the ring too; sweep all of Hz^n
    for xs in all_vectors(2, n):
        for ys in all_vectors(3, n):
            w = HzWord(ring, xs.tobytes(), ys.tobytes())
            assert symplectic_inner(w, w) == ZERO


def test_inner_mismatch_errors():
    w1 = HzWord.from_symbols(H23, "aa")
    w2 = HzWord.from_symbols(H32, "aa")
    with pytest.raises(RingMismatch):
        symplectic_inner(w1, w2)
    with pytest.raises(RingMismatch):
        euclidean_inner(w1, w2)
    with pytest.raises(LengthMismatch):
        symplectic_inner(w1, HzWord.from_symbols(H23, "aaaa"))


def test_a_ring_given_as_a_string_is_refused():
    # "H23" once fell through every `ring is RingId.H23` test and was read as H32
    full, line = LinearCode.full(2, 2), LinearCode(3, [[1, 0]])
    assert not is_self_orthogonal(HzCode(H23, full, line))
    assert classify(H23, [full], [line], "SO") == []
    with pytest.raises(RingMismatch, match="^ring must be a RingId, got 'H23'$"):
        HzCode("H23", full, line)
    with pytest.raises(RingMismatch, match="^ring must be a RingId, got 'H23'$"):
        classify("H23", [full], [line], "SO")
    with pytest.raises(RingMismatch, match="^ring must be a RingId, got 'H23'$"):
        HzWord("H23", b"\x01\x00", b"\x00\x00")
    # a RingId.H23 word is never a member of a set it cannot be told apart from
    with pytest.raises(RingMismatch, match="^ring must be a RingId, got 'H23'$"):
        WordSet("H23", 2, [0])
    assert HzWord.from_symbols(H23, "00") in WordSet(H23, 2, [0])


def test_malformed_word_rows_are_refused():
    with pytest.raises(LengthMismatch, match="^component rows differ: 2 vs 1$"):
        HzWord(H23, b"\x01\x01", b"\x00")
    with pytest.raises(ValueError, match="entries must lie in F2 and F3"):
        HzWord(H23, b"\x05\x01", b"\x00\x00")
    with pytest.raises(ValueError, match="entries must lie in F2 and F3"):
        HzWord(H32, b"\x00\x01", b"\x03\x00")
    assert str(HzWord(H23, b"\x01\x00\x01", b"\x02\x00\x01")) == "e0c"


@pytest.mark.parametrize("ring, fields", [(H23, (2, 3)), (H32, (3, 2))])
def test_split_join_round_trip(pair_surface_n2, ring, fields):
    for ca, cb in pair_surface_n2:
        c = build(ring, ca, cb)
        g, f = split(c)
        assert (g.p, f.p) == fields
        assert join(ring, g, f) == c


# the functions allowed to tell the rings apart; everything else goes
# through split/join, so the H23/H32 mirror cannot grow back
RING_BRANCHES = {
    "ring.mul",
    "codes.split",
    "codes.join",
    "codes.symplectic_inner",
    "codes._dual_codes",
}


def _compares_ring_id(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Attribute)
        and sub.attr in ("H23", "H32")
        and isinstance(sub.value, ast.Name)
        and sub.value.id == "RingId"
        for cmp in ast.walk(node)
        if isinstance(cmp, ast.Compare)
        for sub in ast.walk(cmp)
    )


def test_only_the_allowed_functions_branch_on_the_ring():
    found = set()
    for path in sorted(Path(symhex.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and _compares_ring_id(node):
                found.add(f"{path.stem}.{node.name}")
    assert found == RING_BRANCHES


def test_every_public_callable_in_the_package_has_a_caller():
    # a public function that symhex does not re-export, or a public method,
    # must be named by the package, a demo or the benchmark outside its own
    # definition: one that only tests reach does not belong in src
    pkg = Path(symhex.__file__).parent
    root = pkg.parents[1]
    files = [*pkg.glob("*.py"), *root.glob("demos/*.py"), *root.glob("perfbench/*.py")]
    texts = {path: path.read_text(encoding="utf-8") for path in files}
    uncalled = []
    for path in sorted(pkg.glob("*.py")):
        if path.name == "__init__.py":
            continue
        body = ast.parse(texts[path]).body
        callables = [
            (f"{path.stem}.{f.name}", rf"\b{f.name}\b", f)
            for f in body
            if isinstance(f, ast.FunctionDef) and f.name not in vars(symhex)
        ] + [
            (f"{c.name}.{f.name}", rf"\.{f.name}\b", f)
            for c in body
            if isinstance(c, ast.ClassDef)
            for f in c.body
            if isinstance(f, ast.FunctionDef)
        ]
        for label, pattern, f in callables:
            if f.name.startswith("_"):
                continue
            lines = texts[path].splitlines()
            del lines[f.lineno - 1 : f.end_lineno]
            rest = ["\n".join(lines), *(t for p, t in texts.items() if p != path)]
            if not any(re.search(pattern, t) for t in rest):
                uncalled.append(label)
    assert uncalled == []


def test_every_benchmark_trace_target_resolves(monkeypatch):
    # perfbench/spans.py, loaded without writing bytecode beside it; each
    # target resolves as Tracer.install resolves it
    path = Path(symhex.__file__).parents[2] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(spans)
    missing = []
    for mod, attr, _ in spans.TARGETS:
        module = import_module(f"symhex.{mod}")
        if "." in attr:
            cls_name, name = attr.split(".")
            found = name in vars(getattr(module, cls_name, object))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{mod}.{attr}")
    assert missing == []
    # the benchmark's self-check reads these bindings of classify's module
    classify_module = import_module("symhex.classify")
    assert classify_module.apply_perm is import_module("symhex.perms").apply_perm
    assert classify_module.equivalent is import_module("symhex.codes").equivalent


def test_every_import_in_the_package_is_used():
    unused = []
    for path in sorted(Path(symhex.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":  # re-exports the public names
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_the_package_holds_no_assert():
    # python -O strips assert statements, so every check in src raises instead
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(symhex.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_a_failed_check_has_one_channel():
    # a failed check raises VerificationFailed: src logs nothing, and only
    # cli.main turns an exception into an exit code
    pkg = Path(symhex.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in pkg.glob("*.py")}
    loggers = []
    for name, tree in sorted(trees.items()):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            loggers += [f"{name}:{node.lineno}" for m in modules if m.split(".")[0] == "logging"]
    assert loggers == []
    exit_codes = [
        f"cli.py:{f.name}"
        for f in ast.walk(trees["cli.py"])
        if isinstance(f, ast.FunctionDef) and f.name != "main"
        if (f.returns is not None and ast.unparse(f.returns) == "int")
        or any(
            isinstance(node, ast.Return)
            and isinstance(node.value, ast.Constant)
            and type(node.value.value) is int
            for node in ast.walk(f)
        )
    ]
    assert exit_codes == []


def test_every_private_module_name_in_the_package_is_used():
    # a module-level _helper or _CONSTANT that nothing in src reads is dead code
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(symhex.__file__).parent.glob("*.py"))
    }
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [
                f"{name}:{node.lineno} {d}"
                for d in defined
                if d.startswith("_") and not d.startswith("__") and d not in read
            ]
    assert unused == []


def test_dual_shapes():
    c = build(H32, rep2(), LinearCode.zero(3, 2))
    d = dual(c)
    assert d.ca.is_full() and d.cb.is_full()
    c = build(H23, rep2(), LinearCode.zero(3, 2))
    d = dual(c)
    assert d.ca == rep2() and d.cb.is_full()


@pytest.mark.parametrize("ring", [H23, H32])
def test_dual_involution_condition(ring):
    rng = np.random.default_rng(37)
    for _ in range(40):
        c = build(ring, random_code(2, 4, rng), random_code(3, 4, rng))
        dd = dual(dual(c))
        free_full = c.cb.is_full() if ring is H23 else c.ca.is_full()
        assert (dd == c) == free_full


@pytest.mark.parametrize("ring", [H23, H32])
def test_dual_matches_bruteforce_oracle_n2(ring):
    rng = np.random.default_rng(41)
    for _ in range(12):
        c = build(ring, random_code(2, 2, rng), random_code(3, 2, rng))
        assert word_set(dual(c)) == dual_bruteforce(c)


def test_euclidean_self_orthogonality_never_enumerates_words(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("words enumerated")

    monkeypatch.setattr(import_module("symhex.codes"), "enumerate_words", boom)
    monkeypatch.setattr(LinearCode, "codewords", boom)
    c = build(H23, LinearCode.full(2, 8), LinearCode.zero(3, 8))  # 256 words
    assert not is_euclidean_self_orthogonal(c)  # <e_i, e_i> = a
    # the governing side decides: the even-weight pairs are dot-orthogonal mod 2
    pairs = np.kron(np.eye(4, dtype=np.int64), [[1, 1]])
    assert is_euclidean_self_orthogonal(build(H23, LinearCode(2, pairs), LinearCode.full(3, 8)))
    assert not is_euclidean_self_orthogonal(build(H32, LinearCode(2, pairs), LinearCode.full(3, 8)))


def test_euclidean_self_orthogonality_agrees_with_the_word_pair_loop(pair_surface_n2):
    rng = np.random.default_rng(47)
    small = [(random_code(2, 4, rng, k=int(rng.integers(0, 3))),
              random_code(3, 4, rng, k=int(rng.integers(0, 3)))) for _ in range(20)]
    verdicts = []
    for ring in (H23, H32):
        for ca, cb in pair_surface_n2 + small:
            c = build(ring, ca, cb)
            verdicts.append(is_euclidean_self_orthogonal(c))
            assert verdicts[-1] == ref_is_euclidean_self_orthogonal(c), c
    assert True in verdicts and False in verdicts


def test_dual_bruteforce_budget():
    # 6^12 candidate words, about 48 times the byte budget
    c = build(H23, LinearCode.zero(2, 12), LinearCode.zero(3, 12))
    with pytest.raises(BudgetExceeded, match="dual_bruteforce"):
        dual_bruteforce(c)


@pytest.mark.parametrize("ring", [H23, H32])
def test_predicates_match_definitions_sampled(ring):
    rng = np.random.default_rng(43)
    for _ in range(25):
        c = build(ring, random_code(2, 4, rng), random_code(3, 4, rng))
        assert is_self_orthogonal(c) == is_self_orthogonal_bruteforce(c)
        assert is_self_dual(c) == is_self_dual_bruteforce(c)
        assert is_qsd(c) == is_qsd_bruteforce(c)
        assert is_nice(c) == is_nice_bruteforce(c)
        assert is_lcd(c) == is_lcd_bruteforce(c)


def ref_enumerate_words(code: HzCode) -> list[HzWord]:
    """The per-word loop: one HzWord per (u, v), each row's bytes rebuilt."""
    ua = code.ca.codewords()
    vb = code.cb.codewords()
    return [
        HzWord(code.ring, u.astype(np.int8).tobytes(), v.astype(np.int8).tobytes())
        for u in ua
        for v in vb
    ]


def ref_dual_bruteforce(code: HzCode) -> set[HzWord]:
    """The per-word loop over the candidate rows, one branch per ring."""
    n = code.n
    sp2, sp3 = SymplecticSpace.for_length(2, n), SymplecticSpace.for_length(3, n)
    ring = code.ring
    if ring is H23:
        cw = code.ca.codewords().astype(np.int64)
        cand = all_vectors(2, n).astype(np.int64)
        prod = (cand @ sp2.gram @ cw.T) % 2
        good = cand[~prod.any(axis=1)]
        free = all_vectors(3, n)
        return {
            HzWord(ring, u.astype(np.int8).tobytes(), v.tobytes())
            for u in good
            for v in free
        }
    cw = code.cb.codewords().astype(np.int64)
    cand = all_vectors(3, n).astype(np.int64)
    prod = (cand @ sp3.gram @ cw.T) % 3
    good = cand[~prod.any(axis=1)]
    free = all_vectors(2, n)
    return {
        HzWord(ring, u.tobytes(), v.astype(np.int8).tobytes())
        for v in good
        for u in free
    }


@pytest.mark.parametrize("ring", [H23, H32])
def test_words_and_dual_match_the_per_word_loops(pair_surface_n2, ring):
    rng = np.random.default_rng(53)
    pairs = list(pair_surface_n2)
    pairs += [(random_code(2, 4, rng), random_code(3, 4, rng)) for _ in range(40)]
    for ca, cb in pairs:
        c = build(ring, ca, cb)
        assert enumerate_words(c) == ref_enumerate_words(c)  # same order too
        duals = dual_bruteforce(c)
        assert isinstance(duals, WordSet) and duals == ref_dual_bruteforce(c)
        assert set(duals) == ref_dual_bruteforce(c)


def _word_set_codes(pair_surface_n2, ring: RingId) -> list[HzCode]:
    """The 30 pairs at n = 2, then seeded random pairs at n = 4 and n = 6."""
    rng = np.random.default_rng(71)
    pairs = list(pair_surface_n2)
    pairs += [(random_code(2, 4, rng), random_code(3, 4, rng)) for _ in range(6)]
    pairs += [(random_code(2, 6, rng), random_code(3, 6, rng)) for _ in range(2)]
    return [build(ring, ca, cb) for ca, cb in pairs]


def _probe_words(ring: RingId, n: int, rng: np.random.Generator) -> list[HzWord]:
    """Every word of H_z^n for n <= 4, else 300 random ones."""
    if n <= 4:
        return ref_enumerate_words(build(ring, LinearCode.full(2, n), LinearCode.full(3, n)))
    return [
        HzWord(
            ring,
            rng.integers(0, 2, n).astype(np.int8).tobytes(),
            rng.integers(0, 3, n).astype(np.int8).tobytes(),
        )
        for _ in range(300)
    ]


@pytest.mark.parametrize("ring", [H23, H32])
def test_word_sets_behave_as_sets_of_words(pair_surface_n2, ring):
    other = H32 if ring is H23 else H23
    rng = np.random.default_rng(73)
    for c in _word_set_codes(pair_surface_n2, ring):
        ref_words, ref_duals = frozenset(ref_enumerate_words(c)), frozenset(ref_dual_bruteforce(c))
        words, duals = word_set(c), dual_bruteforce(c)
        for fast, ref in ((words, ref_words), (duals, ref_duals)):
            assert fast == ref and ref == fast and fast == set(ref) and set(ref) == fast
            assert hash(fast) == hash(ref) and len(fast) == len(ref)
            decoded = list(fast)
            assert len(decoded) == len(ref) and set(decoded) == ref  # each word once
            w = decoded[-1]
            assert w in fast
            assert HzWord(other, w.xs, w.ys) not in fast
            assert HzWord(ring, w.xs + b"\0\0", w.ys + b"\0\0") not in fast
            assert str(w) not in fast
        for w in _probe_words(ring, c.n, rng):
            assert (w in words, w in duals) == (w in ref_words, w in ref_duals)
        so = ref_words <= ref_duals
        assert (words <= duals) == (words <= ref_duals) == (ref_words <= duals) == so
        assert words & duals == ref_words & ref_duals


@pytest.mark.parametrize("ring", [H23, H32])
def test_word_sets_one_word_or_the_ring_apart_are_unequal(pair_surface_n2, ring):
    other = H32 if ring is H23 else H23
    for c in _word_set_codes(pair_surface_n2, ring):
        d = word_set(dual(c))
        n = c.n
        short = WordSet(ring, n, d.codes[:-1])
        assert short <= d and not d <= short
        wrong = [short]
        outside = np.setdiff1d(np.arange(6**n), d.codes)
        if outside.size:  # one word swapped for a word outside the dual
            swapped = WordSet(ring, n, np.append(d.codes[:-1], outside[0]))
            assert not swapped <= d and not d <= swapped
            wrong.append(swapped)
        for bad in wrong:
            assert bad != d and d != bad and bad != dual_bruteforce(c)
            assert bad != frozenset(d) and frozenset(d) != bad
        moved = WordSet(other, n, d.codes)
        assert moved != d and d != moved and moved != frozenset(d) and frozenset(d) != moved
        assert not moved <= d and not d <= moved


def test_word_sets_of_long_codes_decode_past_the_vector_table_budget():
    # 3^16 rows are too many for all_vectors, but a 6-word code still iterates
    c = build(H32, rep2(16), rep3(16))
    with pytest.raises(BudgetExceeded):
        all_vectors(3, 16)
    assert word_set(c) == frozenset(ref_enumerate_words(c)) == set(word_set(c))


def test_word_sets_stop_where_word_codes_leave_int64():
    # 6^24 - 1 is the largest code int64 holds; at n = 26 u*3^n would wrap
    assert MAX_WORD_CODE_N == 24
    top = build(H32, rep2(24), rep3(24))
    assert word_set(top) == frozenset(ref_enumerate_words(top)) == set(word_set(top))
    assert int(word_set(top).codes[-1]) == 6**24 - 1
    long = build(H32, rep2(26), rep3(26))
    assert long.size == 6
    with pytest.raises(BudgetExceeded, match="int64"):
        word_set(long)
    with pytest.raises(BudgetExceeded, match="int64"):
        is_lcd_bruteforce(long)
    with pytest.raises(BudgetExceeded, match="int64"):
        WordSet(H23, 26, [])


def test_word_code_length_is_checked_before_any_codeword(monkeypatch):
    def boom(self):
        raise AssertionError(f"codewords built at n = {self.n}")

    monkeypatch.setattr(LinearCode, "codewords", boom)
    long = build(H32, rep2(26), rep3(26))
    for oracle in (word_set, is_self_orthogonal_bruteforce, is_lcd_bruteforce):
        with pytest.raises(BudgetExceeded, match="int64"):
            oracle(long)


def test_codewords_past_the_byte_budget_raise_before_allocating():
    # a 12-dimensional ternary code of length 1024: its int64 codeword
    # product alone would be 3^12 x 1024 x 8 bytes, 4.05 GiB
    rng = np.random.default_rng(1024)
    cb = LinearCode(3, rng.integers(0, 3, size=(12, 1024)))
    assert cb.k == 12
    with pytest.raises(BudgetExceeded, match="codewords"):
        cb.codewords()
    with pytest.raises(BudgetExceeded):
        word_set(build(H32, LinearCode.zero(2, 1024), cb))


def test_word_set_rejects_bad_codes_and_is_immutable():
    with pytest.raises(ValueError):
        WordSet(H23, 2, [0, 5, 5])
    with pytest.raises(ValueError):
        WordSet(H23, 2, [36])
    with pytest.raises(ValueError):
        WordSet(H23, 2, [-1])
    # codes that are not integers are refused, not truncated or parsed
    with pytest.raises(ValueError, match="entries must be integers"):
        WordSet(H23, 2, [0.5, 3.9])
    with pytest.raises(ValueError, match="entries must be integers"):
        WordSet(H23, 2, ["1"])
    ws = WordSet(H32, 2, [7, 0, 3])
    assert ws.codes.tolist() == [0, 3, 7] and not ws.codes.flags.writeable
    with pytest.raises(AttributeError):
        ws.ring = H23
    # the empty set of words is one set, whatever ring or length it is held in
    assert WordSet(H23, 2, []) == WordSet(H32, 4, []) == frozenset()


TWINS = {
    "so": is_self_orthogonal_bruteforce,
    "sd": is_self_dual_bruteforce,
    "qsd": is_qsd_bruteforce,
    "nice": is_nice_bruteforce,
    "lcd": is_lcd_bruteforce,
}
WORD_ORACLES = (*TWINS.values(), dual_bruteforce, enumerate_words)


def test_word_oracles_never_reach_the_fast_path(monkeypatch, pair_surface_n2):
    # the twins are the oracles for split/join and the symplectic rank
    # tests, so they must give the same answers with all of those gone
    codes = [build(ring, ca, cb) for ring in (H23, H32) for ca, cb in pair_surface_n2]
    want = [[oracle(c) for oracle in WORD_ORACLES] for c in codes]
    # value-equal codes with empty caches, so the patched pass evaluates
    # every oracle again instead of reading what the first pass kept
    fresh = [build(c.ring, c.ca, c.cb) for c in codes]
    assert fresh == codes and all(f is not c for f, c in zip(fresh, codes))

    def boom(*args, **kwargs):
        raise AssertionError("a word-level oracle reached the fast path")

    monkeypatch.setattr(import_module("symhex.codes"), "split", boom)
    monkeypatch.setattr(import_module("symhex.codes"), "join", boom)
    for module in ("symhex.gf", "symhex.perms"):  # every binding of nullspace
        monkeypatch.setattr(import_module(module), "nullspace", boom)
    for name in ("is_self_orthogonal", "is_self_dual", "is_lcd", "dual"):
        monkeypatch.setattr(SymplecticSpace, name, boom)
    with pytest.raises(AssertionError, match="fast path"):
        flags(codes[0])
    assert [[oracle(c) for oracle in WORD_ORACLES] for c in fresh] == want


def test_word_level_evaluation_runs_once_per_code(monkeypatch):
    # an H32 code at n = 4 whose governing side pairs with some vectors
    c = build(H32, rep2(4), LinearCode(3, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    codes_module = import_module("symhex.codes")
    calls = {"_orthogonal_rows": 0, "_outer_codes": 0}
    for name in calls:
        real = getattr(codes_module, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(codes_module, name, counted)
    oracles = (word_set, dual_bruteforce, *TWINS.values())
    first = [oracle(c) for oracle in oracles]
    assert [oracle(c) for oracle in oracles] == first
    assert calls == {"_orthogonal_rows": 1, "_outer_codes": 2}
    for get in (word_set, dual_bruteforce):
        ws = get(c)
        assert ws is get(c) and not ws.codes.flags.writeable


def test_word_level_errors_and_identity_are_not_cached():
    # the int64 guard (n = 26) and the byte budget on 6^12 candidate words
    # raise on every call on the same instance, never from a cached value
    long = build(H32, rep2(26), rep3(26))
    wide = build(H23, LinearCode.zero(2, 12), LinearCode.zero(3, 12))
    for code, oracle, match in [
        (long, word_set, "int64"),
        (long, is_lcd_bruteforce, "int64"),
        (wide, dual_bruteforce, "budget"),
        (wide, is_nice_bruteforce, "budget"),
    ]:
        for _ in range(2):
            with pytest.raises(BudgetExceeded, match=match):
                oracle(code)
    # filled caches change neither equality nor hash
    c = build(H23, rep2(), rep3())
    for oracle in (word_set, dual_bruteforce, *TWINS.values()):
        oracle(c)
    copy = build(c.ring, c.ca, c.cb)
    assert c == copy and copy == c and hash(c) == hash(copy)


def _n6_codes(ring: RingId) -> list[HzCode]:
    """Governing: seeded random codes, the zero code, isotropic lines and
    Lagrangians; free: zero, m-dimensional and full."""
    n, m = 6, 3
    gp, fp = (2, 3) if ring is H23 else (3, 2)
    rng = np.random.default_rng(67)
    governing = [random_code(gp, n, rng) for _ in range(3)] + [LinearCode.zero(gp, n)]
    space = SymplecticSpace.for_length(gp, n)
    for k in (1, m):
        iso = isotropic_subspaces(space, k)
        governing += [iso[0], iso[len(iso) // 2], iso[-1]]
    free = [LinearCode.zero(fp, n), LinearCode(fp, np.eye(m, n, dtype=int)), LinearCode.full(fp, n)]
    return [join(ring, g, f) for g in governing for f in free]


@pytest.mark.parametrize("ring", [H23, H32])
def test_predicates_match_definitions_at_length_six(ring):
    seen = {name: set() for name in TWINS}
    for c in _n6_codes(ring):
        fl = flags(c)
        for name, twin in TWINS.items():
            assert fl[name] == twin(c), (name, c)
            seen[name].add(fl[name])
    assert all(values == {True, False} for values in seen.values()), seen


def test_nice_and_lcd_examples():
    # nice but not LCD: the binary side is its own dual
    c = build(H23, rep2(), LinearCode.zero(3, 2))
    assert is_nice(c)
    assert not is_lcd(c)
    full = build(H23, LinearCode.full(2, 2), LinearCode.zero(3, 2))
    assert is_nice(full) and is_lcd(full)
    assert not is_nice(build(H23, rep2(), rep3()))


def test_equivalent_examples():
    c1 = build(H23, LinearCode(2, [[1, 0]]), LinearCode(3, [[1, 0]]))
    assert equivalent(c1, c1) == Permutation(tuple(range(2)))
    c2 = build(H23, LinearCode(2, [[1, 0]]), LinearCode(3, [[0, 1]]))
    assert equivalent(c1, c2) is None
    c3 = build(H23, LinearCode(2, [[0, 1]]), LinearCode(3, [[0, 1]]))
    pi = equivalent(c1, c3)
    assert pi is not None and pi == (1, 0)


def test_equivalent_symmetry_and_dimension_prune():
    rng = np.random.default_rng(47)
    for _ in range(20):
        c1 = build(H23, random_code(2, 4, rng), random_code(3, 4, rng))
        c2 = build(H23, random_code(2, 4, rng), random_code(3, 4, rng))
        assert (equivalent(c1, c2) is None) == (equivalent(c2, c1) is None)
    small = build(H23, LinearCode(2, [[1, 0]]), LinearCode(3, [[1, 0]]))
    big = build(H23, LinearCode.full(2, 2), LinearCode(3, [[1, 0]]))
    assert equivalent(small, big) is None


def test_equivalent_shares_the_inner_products_ring_and_length_guard():
    c = build(H23, rep2(), rep3())
    w2, w4 = HzWord.from_symbols(H23, "aa"), HzWord.from_symbols(H23, "aaaa")
    with pytest.raises(RingMismatch, match="H23 vs H32"):
        equivalent(c, build(H32, rep2(), rep3()))
    with pytest.raises(RingMismatch, match="H23 vs H32"):
        symplectic_inner(w2, HzWord.from_symbols(H32, "aa"))
    # one wording for all three callers
    with pytest.raises(LengthMismatch, match="^lengths differ: 2 vs 4$"):
        equivalent(c, build(H23, rep2(4), rep3(4)))
    with pytest.raises(LengthMismatch, match="^lengths differ: 2 vs 4$"):
        symplectic_inner(w2, w4)
    with pytest.raises(LengthMismatch, match="^lengths differ: 2 vs 4$"):
        euclidean_inner(w2, w4)


def test_equivalent_applies_one_permutation_to_both_sides():
    from symhex.perms import apply_perm

    # components are separately equivalent, but no single permutation fixes
    # the binary support {1,2} while moving the ternary support to slot 3
    c1 = build(H23, LinearCode(2, [[1, 1, 0, 0]]), LinearCode(3, [[1, 0, 0, 0]]))
    c2 = build(H23, LinearCode(2, [[1, 1, 0, 0]]), LinearCode(3, [[0, 0, 1, 0]]))
    assert equivalent(c1, c2) is None
    # moving both supports together works, and the witness moves both
    c3 = build(H23, LinearCode(2, [[0, 0, 1, 1]]), LinearCode(3, [[0, 0, 1, 0]]))
    pi = equivalent(c1, c3)
    assert pi is not None
    assert apply_perm(pi, c1.ca) == c3.ca
    assert apply_perm(pi, c1.cb) == c3.cb
