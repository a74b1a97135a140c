"""Static analysis tier: plan-property inference and rule linting.

The paper's pitch is that bad rewrites "fail to pass our formal
verification" — but the prover and the random-instance oracle both
*execute* semantics.  This package adds the tier in front of them: a
bottom-up abstract interpretation over core plans
(:mod:`.properties` / :mod:`.infer`) computing duplicate-freeness,
guaranteed emptiness, key sets, cardinality intervals, and static
predicate satisfiability; and a corpus linter for rewrite rules
(:mod:`.rulecheck`) that flags whole defect classes with stable
diagnostic codes before any prover runs.

The facts pay downstream: saturation gains property-guarded rewrites
(still re-certified by the pipeline), the disprover prunes its instance
enumeration, and the cost model tightens selectivities.
"""

from .._lazy import lazy_exports

__all__ = [
    "AnalysisContext",
    "Diagnostic",
    "EMPTY_CONTEXT",
    "ExpectedDefect",
    "Interval",
    "LintReport",
    "PlanProperties",
    "Sat",
    "Severity",
    "infer_properties",
    "lint_rule",
    "lint_rules",
    "multiplicity_degrees",
    "pred_sat",
    "supports_determined",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".infer": (
        "AnalysisContext", "EMPTY_CONTEXT", "infer_properties",
        "multiplicity_degrees", "pred_sat", "supports_determined",
    ),
    ".properties": ("Interval", "PlanProperties", "Sat"),
    ".rulecheck": (
        "Diagnostic", "ExpectedDefect", "LintReport", "Severity", "lint_rule",
        "lint_rules",
    ),
})
