"""Semiring substrate: cardinals, semirings, K-relations, provenance.

This package implements the mathematical substrate the paper builds on:
K-relations over commutative semirings (Green et al., PODS 2007) and the
paper's generalization to infinite cardinal multiplicities.
"""

from .._lazy import lazy_exports

__all__ = [
    "BOOL",
    "BoolSemiring",
    "Cardinal",
    "KRelation",
    "NAT",
    "NAT_INF",
    "NatInfSemiring",
    "NatSemiring",
    "OMEGA",
    "ONE",
    "PROVENANCE",
    "Polynomial",
    "ProvenanceSemiring",
    "STANDARD_SEMIRINGS",
    "Semiring",
    "TROPICAL",
    "TropicalSemiring",
    "ZERO",
    "annotate_distinctly",
    "cardinal_product",
    "cardinal_sum",
    "check_semiring_laws",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".cardinal": (
        "Cardinal", "OMEGA", "ONE", "ZERO", "cardinal_product",
        "cardinal_sum",
    ),
    ".krelation": ("KRelation",),
    ".provenance": (
        "PROVENANCE", "Polynomial", "ProvenanceSemiring",
        "annotate_distinctly",
    ),
    ".semirings": (
        "BOOL", "BoolSemiring", "NAT", "NAT_INF", "NatInfSemiring",
        "NatSemiring", "STANDARD_SEMIRINGS", "Semiring", "TROPICAL",
        "TropicalSemiring", "check_semiring_laws",
    ),
})
