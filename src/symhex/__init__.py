"""Symplectic coding theory over the two non-unital rings of order six."""

__version__ = "0.1.0"

from .ring import RingId, RingElement, ELEMENTS, ZERO, A, B, C, D, E  # noqa: F401
from .ring import add, mul, neg, compose, decompose, scalar_act  # noqa: F401
from .gf import LinearCode, rref, nullspace, all_vectors  # noqa: F401
from .symplectic import SymplecticSpace, count_isotropic, isotropic_subspaces  # noqa: F401
from .codes import (  # noqa: F401
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
    is_lcd,
    is_nice,
    is_qsd,
    is_self_dual,
    is_self_orthogonal,
    symplectic_inner,
    word_set,
)
from .perms import (  # noqa: F401
    PermGroup,
    Permutation,
    apply_perm,
    automorphism_group,
    double_cosets,
    double_cosets_batch,
    perm_equivalent,
)
from .classify import (  # noqa: F401
    ClassificationRecord,
    classify,
    inequivalent_reps,
    verify_classification,
)
