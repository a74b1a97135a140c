"""The rewrite-rule library: Figure 8's 23 rules plus unsound controls."""

from .._lazy import lazy_exports

__all__ = [
    "Application",
    "Bindings",
    "CATEGORY_ORDER",
    "PAPER_FIGURE_8",
    "Proof",
    "RewriteRule",
    "aggregation_rules",
    "apply_rule_at_root",
    "apply_rule_everywhere",
    "all_buggy_rules",
    "all_extended_rules",
    "all_rules",
    "basic_rules",
    "buggy_rules",
    "conjunctive_rules",
    "extended_rules",
    "fig10_queries",
    "get_rule",
    "groupby_agg",
    "index_rules",
    "index_view",
    "magic_rules",
    "rules_by_category",
    "self_join_queries",
    "semijoin",
    "semijoin_on",
    "subquery_rules",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".aggregation": ("aggregation_rules",),
    ".apply": (
        "Application", "Bindings", "apply_rule_at_root",
        "apply_rule_everywhere",
    ),
    ".basic": ("basic_rules",),
    ".buggy": ("buggy_rules",),
    ".common": ("groupby_agg", "semijoin", "semijoin_on"),
    ".conjunctive": (
        "conjunctive_rules", "fig10_queries", "self_join_queries",
    ),
    ".extended": ("extended_rules",),
    ".index": ("index_rules", "index_view"),
    ".magic": ("magic_rules",),
    ".registry": (
        "CATEGORY_ORDER", "PAPER_FIGURE_8", "all_buggy_rules",
        "all_extended_rules", "all_rules", "get_rule", "rules_by_category",
    ),
    ".rule": ("Proof", "RewriteRule"),
    ".subquery": ("subquery_rules",),
})
