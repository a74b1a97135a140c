"""Concrete evaluation engine: databases, Figure-7 evaluator, oracles."""

from .._lazy import lazy_exports

__all__ = [
    "COMPILED_SEMIRINGS",
    "CompileError",
    "CompiledPair",
    "Counterexample",
    "Database",
    "DEFAULT_AGGREGATES",
    "DEFAULT_FUNCTIONS",
    "DEFAULT_PREDICATES",
    "EvaluationError",
    "Interpretation",
    "agreement_rate",
    "compile_pair",
    "compile_query",
    "counts_to_relation",
    "bags_equal",
    "build_index",
    "deterministic_expression",
    "deterministic_predicate",
    "eval_expression",
    "eval_predicate",
    "eval_projection",
    "eval_query",
    "eval_query_list",
    "find_counterexample",
    "index_query",
    "key_characterization_queries",
    "path_projection",
    "random_keyed_relation",
    "random_leaf_path",
    "random_relation",
    "random_tuple",
    "random_value",
    "relation_to_counts",
    "relations_equal",
    "run_query",
    "satisfies_fd",
    "satisfies_key",
    "sets_equal",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".constraints": (
        "build_index", "index_query", "key_characterization_queries",
        "satisfies_fd", "satisfies_key",
    ),
    ".compile": (
        "COMPILED_SEMIRINGS", "CompileError", "CompiledPair", "compile_pair",
        "compile_query", "counts_to_relation", "relation_to_counts",
    ),
    ".database": (
        "DEFAULT_AGGREGATES", "DEFAULT_FUNCTIONS", "DEFAULT_PREDICATES",
        "Database", "Interpretation",
    ),
    ".eval": (
        "EvaluationError", "eval_expression", "eval_predicate",
        "eval_projection", "eval_query", "relations_equal", "run_query",
    ),
    ".listsem": ("bags_equal", "eval_query_list", "sets_equal"),
    ".random_instances": (
        "Counterexample", "agreement_rate", "deterministic_expression",
        "deterministic_predicate", "find_counterexample", "path_projection",
        "random_keyed_relation", "random_leaf_path", "random_relation",
        "random_tuple", "random_value",
    ),
})
