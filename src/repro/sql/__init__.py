"""SQL frontend: lexer, parser, named→unnamed resolution, pretty-printing."""

from .._lazy import lazy_exports

__all__ = [
    "Catalog",
    "LexError",
    "ParseError",
    "Resolved",
    "ResolutionError",
    "Resolver",
    "Token",
    "column_steps",
    "columns_to_schema",
    "compile_sql",
    "const_tuple_projection",
    "denotation_to_str",
    "desugar_group_by",
    "desugar_having",
    "desugar_scalar_agg",
    "expr_to_sql",
    "expression_to_str",
    "inner_join",
    "left_outer_join",
    "parse",
    "pred_to_sql",
    "predicate_to_str",
    "projection_to_str",
    "query_to_str",
    "right_outer_join",
    "tokenize",
    "unparse",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".desugar": (
        "const_tuple_projection", "inner_join", "left_outer_join",
        "right_outer_join",
    ),
    ".lexer": ("LexError", "Token", "tokenize"),
    ".nast": (
        "NAggCall", "NAggQuery", "NAnd", "NBoolLit", "NColumn", "NComparison",
        "NExcept", "NExists", "NFromItem", "NFuncCall", "NLiteral", "NNot",
        "NOr", "NQuery", "NSelect", "NSelectItem", "NUnionAll",
    ),
    ".parser": ("ParseError", "parse"),
    ".pretty": (
        "denotation_to_str", "expression_to_str", "predicate_to_str",
        "projection_to_str", "query_to_str",
    ),
    ".resolve": (
        "Catalog", "ResolutionError", "Resolved", "Resolver", "column_steps",
        "columns_to_schema", "compile_sql", "desugar_group_by",
        "desugar_having", "desugar_scalar_agg",
    ),
    ".unparse": ("expr_to_sql", "pred_to_sql", "unparse"),
})
