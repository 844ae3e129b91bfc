"""Spans around symhex's public functions, installed from outside the package.

Each target is wrapped in place: the module attribute, every other module
attribute bound to the same object by ``from .x import name``, or the class
attribute for a method.  A wrapper records one span per call (name, parent,
start, end) and accumulates the call count, the self time (span time minus
the time covered by child spans) and, for membership and equivalence scans,
how many calls found what they looked for.  ``uninstall`` restores every
original binding, so untraced passes in the same process run the bare code.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np


def _found(result) -> bool:
    return result is not None


# (module, attribute path, hit test).  Paths with a dot are methods.
TARGETS = [
    ("gf", "rref", None),
    ("gf", "nullspace", None),
    ("gf", "LinearCode.contains", bool),
    ("gf", "LinearCode.codewords", None),
    ("gf", "all_vectors", None),
    ("symplectic", "SymplecticSpace.__init__", None),
    ("symplectic", "isotropic_subspaces", None),
    ("symplectic", "SymplecticSpace.dual", None),
    ("symplectic", "SymplecticSpace.is_self_orthogonal", None),
    ("symplectic", "SymplecticSpace.is_self_dual", None),
    ("codes", "flags", None),
    ("codes", "dual", None),
    ("codes", "equivalent", _found),
    ("codes", "dual_bruteforce", None),
    ("codes", "enumerate_words", None),
    ("codes", "is_self_orthogonal_bruteforce", None),
    ("codes", "is_self_dual_bruteforce", None),
    ("codes", "is_qsd_bruteforce", None),
    ("codes", "is_nice_bruteforce", None),
    ("codes", "is_lcd_bruteforce", None),
    ("perms", "automorphism_group", None),
    ("perms", "double_cosets", None),
    ("perms", "perm_equivalent", _found),
    ("perms", "apply_perm", None),
    ("perms", "rank_images", None),
    ("perms", "PermGroup.__init__", None),
    ("classify", "classify", None),
    ("classify", "verify_classification", None),
    ("classify", "inequivalent_reps", None),
    ("io", "parse_matrix_list", None),
    ("io", "catalog_dict", None),
    ("io", "write_catalog", None),
    ("cli", "main", None),
]

# constructors are reported by call count only
CALLS_ONLY = {"symplectic.SymplecticSpace.__init__"}


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports.

    ``trace.overhead_s`` is traced minus bare median pass time; the runner
    measures it, the tracer only names it.
    """
    out = []
    for mod, path, hit in TARGETS:
        name = f"{mod}.{path}"
        out.append((f"{name}.calls", "count", "lower"))
        if name not in CALLS_ONLY:
            out.append((f"{name}.self_s", "s", "lower"))
        if hit is not None:
            out.append((f"{name}.hit_ratio", "ratio", "higher"))
    out.append(("trace.overhead_s", "s", "lower"))
    return out


class Tracer:
    """Per-function counters and an in-memory span log for one traced pass."""

    def __init__(self):
        self.names = [f"{mod}.{path}" for mod, path, _ in TARGETS]
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        k = len(self.names)
        self.calls = [0] * k
        self.self_ns = [0] * k
        self.hits = [0] * k
        self.span_name = array("h")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self._t0 = time.perf_counter_ns()

    def _wrap(self, idx: int, fn, hit):
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            sid = len(self.span_start)
            self.span_name.append(idx)
            self.span_parent.append(stack[-1][0] if stack else -1)
            frame = [sid, 0]
            stack.append(frame)
            self.calls[idx] += 1
            t0 = clock()
            self.span_start.append(t0 - self._t0)
            self.span_end.append(0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.span_end[sid] = t1 - self._t0
                self.self_ns[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if hit is not None and hit(result):
                self.hits[idx] += 1
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; every binding of a function gets the same wrapper."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        # symhex/__init__.py rebinds symhex.classify to the function, so the
        # module comes from sys.modules, never from the package attribute
        package = [m for k, m in sys.modules.items() if k == "symhex" or k.startswith("symhex.")]
        for idx, (mod, path, hit) in enumerate(TARGETS):
            module = sys.modules[f"symhex.{mod}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(idx, orig, hit))
                continue
            orig = getattr(module, path)
            wrapper = self._wrap(idx, orig, hit)
            for m in package:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def metrics(self) -> dict[str, float]:
        """Counts, self seconds and hit ratios of the pass since the last reset."""
        out: dict[str, float] = {}
        for idx, (name, (_, _, hit)) in enumerate(zip(self.names, TARGETS)):
            out[f"{name}.calls"] = self.calls[idx]
            if name not in CALLS_ONLY:
                out[f"{name}.self_s"] = self.self_ns[idx] / 1e9
            if hit is not None:
                calls = self.calls[idx]
                out[f"{name}.hit_ratio"] = self.hits[idx] / calls if calls else 0.0
        return out

    def write_spans(self, path: Path) -> None:
        """Spans of the last pass as arrays; times are ns from the pass start."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int16),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
        )
