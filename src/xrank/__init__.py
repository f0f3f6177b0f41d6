"""Exact-arithmetic tensor decomposition toolkit.

Verifies and constructs irredundant decompositions of tensors on
products of projective spaces (Segre, Veronese, and mixed embeddings)
over Q and prime fields, with a finite-field brute-force oracle for
ground-truth ranks, witness landscapes, and concise-witness search.
"""

from .construct import (ConstructionConfig, concise_plus_m, escape, plus_one,
                        sv_extend, veronese_extend)
from .decomp import (Decomposition, Envelope, FiberReport,
                     IrredundancyReport, fiber_condition, set_envelope,
                     tensor_envelope, verify_irredundant,
                     verify_irredundant_exhaustive)
from .exactlin import Echelon, FieldSpec
from .geometry import (MppPoint, MultiProjectiveSpace, SubspaceSpec, Tensor,
                       ambient_dim, embed, enumerate_points)
from .oracle import (DEFAULT_BUDGET, ConciseResult, GapProfile, GroundSet,
                     RankCertificate, SpanningSets, brute_rank, gap_profile,
                     ground_set, min_concise_t, spanning_sets)

__version__ = "0.1.0"

__all__ = [
    "ConstructionConfig", "concise_plus_m", "escape", "plus_one",
    "sv_extend", "veronese_extend",
    "Decomposition", "Envelope", "FiberReport", "IrredundancyReport",
    "fiber_condition", "set_envelope", "tensor_envelope",
    "verify_irredundant", "verify_irredundant_exhaustive",
    "Echelon", "FieldSpec",
    "MppPoint", "MultiProjectiveSpace", "SubspaceSpec", "Tensor",
    "ambient_dim", "embed", "enumerate_points",
    "DEFAULT_BUDGET", "ConciseResult", "GapProfile", "GroundSet",
    "RankCertificate", "SpanningSets", "brute_rank", "gap_profile",
    "ground_set", "min_concise_t", "spanning_sets",
    "__version__",
]
