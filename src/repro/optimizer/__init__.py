"""Certified query optimizer: e-graph, saturation, rewriter, cost, planner."""

from .._lazy import lazy_exports

__all__ = [
    "Candidate",
    "CertifiedCandidate",
    "EGraph",
    "ENode",
    "ERULES",
    "ERule",
    "Estimate",
    "ExtractionResult",
    "PlanningResult",
    "STRATEGIES",
    "SaturationBudget",
    "SaturationStats",
    "TRANSFORMATIONS",
    "TableStats",
    "certified_rewrites",
    "compose",
    "count_plans",
    "estimate",
    "explain",
    "explain_result",
    "extract_best",
    "flatten_conjuncts",
    "optimize",
    "plan_cost",
    "plan_size",
    "predicate_paths",
    "proj_steps",
    "rewrite_predicate_paths",
    "rewrites",
    "rule_chain",
    "saturate",
    "steps_to_proj",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".cost": (
        "Estimate", "TableStats", "compose", "estimate", "plan_cost",
        "plan_size",
    ),
    ".egraph": ("EGraph", "ENode"),
    ".explain": ("explain", "explain_result"),
    ".extract": (
        "Candidate", "ExtractionResult", "count_plans", "extract_best",
        "rule_chain",
    ),
    ".planner": (
        "PLAN_COUNT_LIMIT", "PlanningResult", "STRATEGIES", "optimize",
    ),
    ".rewriter": (
        "CertifiedCandidate", "TRANSFORMATIONS", "certified_rewrites",
        "flatten_conjuncts", "predicate_paths", "proj_steps",
        "rewrite_predicate_paths", "rewrites", "steps_to_proj",
    ),
    ".saturate": (
        "ERULES", "ERule", "SaturationBudget", "SaturationStats", "saturate",
    ),
})
