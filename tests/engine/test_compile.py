"""Differential suite: compiled evaluator vs the Figure-7 interpreter.

The flat-program compiler (:mod:`repro.engine.compile`) is the
disprover's hot path, so it is pinned to :func:`repro.engine.eval.
run_query` on a corpus of SQL shapes × random instances × semirings ×
kernel backends.  Any disagreement here is a soundness bug: a compiled
disprover could report a phantom counterexample or miss a real one.
"""

import random

import pytest

from repro.core import ast
from repro.core.intern import set_kernel_backend
from repro.core.schema import EMPTY, INT, Leaf, Node
from repro.engine import (
    COMPILED_SEMIRINGS,
    CompileError,
    Interpretation,
    compile_pair,
    compile_query,
    counts_to_relation,
    random_relation,
    relation_to_counts,
    run_query,
)
from repro.rules import get_rule
from repro.semiring import BOOL, NAT, NAT_INF
from repro.solver import Bound, disprove, disprove_rule
from repro.sql import Catalog, compile_sql

ROW = Node(Leaf(INT), Leaf(INT))

# SQL shapes chosen to cover every compiled operator: projection,
# duplicate-elimination, selection predicates (=, AND, OR, NOT),
# products/joins, UNION ALL, EXCEPT, correlated EXISTS, constants, and
# aggregation (SUM/COUNT over GROUP BY).
CORPUS = [
    "SELECT a FROM R",
    "SELECT b, a FROM R",
    "SELECT DISTINCT a FROM R",
    "SELECT a FROM R WHERE a = 1",
    "SELECT a FROM R WHERE a = b",
    "SELECT a FROM R WHERE NOT a = 0",
    "SELECT r.a FROM R r, S s",
    "SELECT r.a, s.b FROM R r, S s WHERE r.a = s.a",
    "SELECT DISTINCT r.b FROM R r, S s WHERE r.a = s.a AND r.b = s.b",
    "SELECT a FROM R UNION ALL SELECT a FROM S",
    "SELECT a FROM R EXCEPT SELECT a FROM S",
    "SELECT DISTINCT a FROM R EXCEPT SELECT b FROM S",
    "SELECT a FROM R WHERE EXISTS (SELECT * FROM S WHERE S.a = R.a)",
    # Fused-block shapes: each ``Select? ∘ Where* ∘ Product`` tree (under
    # an optional DISTINCT) compiles to one loop nest with every conjunct
    # placed at the shallowest loop that binds its rows.  Self-joins that
    # alias one table three and four ways, conjuncts that bind at
    # different depths or before every loop, a correlated EXISTS whose
    # inner conjunct reads only the outer row, WHERE under a product (a
    # filtered derived table), bare products, and DISTINCT over a join.
    "SELECT x.a FROM R x, R y, R z WHERE x.b = y.a AND y.b = z.a",
    "SELECT x.a, w.b FROM R x, R y, S z, R w "
    "WHERE x.b = y.a AND y.b = z.a AND z.b = w.a",
    "SELECT x.a FROM R x, R y, R z, R w WHERE w.b = x.a AND y.a = 0",
    "SELECT x.b FROM R x, S y WHERE 1 = 0",
    "SELECT a FROM R WHERE EXISTS (SELECT * FROM S WHERE R.b = 1)",
    "SELECT r.a FROM R r, S s WHERE r.a = s.a AND EXISTS "
    "(SELECT * FROM S t WHERE r.b = 0 AND t.b = s.b)",
    "SELECT t.a FROM (SELECT * FROM R WHERE a = 1) t, S s WHERE t.b = s.a",
    "SELECT * FROM R r, (SELECT * FROM S WHERE b = 1) t, R u",
    "SELECT * FROM R r, S s",
    "SELECT DISTINCT r.a, s.b FROM R r, S s WHERE r.b = s.a",
    "SELECT DISTINCT x.a FROM R x, R y, R z WHERE x.b = z.b",
]

# Aggregates desugar to bag-valued subqueries that the reference
# interpreter always evaluates under NAT, so they are pinned under NAT
# only (matching how the disprover uses them).
NAT_ONLY_CORPUS = [
    "SELECT a, SUM(b) FROM R GROUP BY a",
    "SELECT a, COUNT(b) FROM R GROUP BY a",
    "SELECT r.a, SUM(s.b) FROM R r, S s WHERE r.b = s.a "
    "GROUP BY r.a HAVING r.a = 1",
    "SELECT r.a, COUNT(s.b) FROM R r, S s WHERE r.b = s.a "
    "GROUP BY r.a HAVING SUM(s.b) = 1",
]


@pytest.fixture(scope="module")
def catalog():
    cat = Catalog()
    cat.add_table("R", [("a", INT), ("b", INT)])
    cat.add_table("S", [("a", INT), ("b", INT)])
    return cat


def _random_interp(seed, semiring):
    rng = random.Random(seed)
    return Interpretation(relations={
        name: random_relation(rng, ROW, semiring=semiring, max_rows=3,
                              max_multiplicity=2)
        for name in ("R", "S")})


def _assert_parity(query, interp, semiring):
    expected = run_query(query, interp, semiring)
    program = compile_query(query, ("R", "S"), semiring=semiring)
    rels = tuple(relation_to_counts(interp.relations[n], semiring)
                 for n in ("R", "S"))
    got = counts_to_relation(program(rels, ()), semiring)
    assert got == expected


@pytest.mark.parametrize("backend", ["arena", "object"])
@pytest.mark.parametrize("sql", CORPUS)
def test_compiled_matches_interpreter(backend, sql, catalog):
    previous = set_kernel_backend(backend)
    try:
        query = compile_sql(sql, catalog).query
        for semiring in COMPILED_SEMIRINGS:
            for seed in range(8):
                _assert_parity(query, _random_interp(seed, semiring),
                               semiring)
    finally:
        set_kernel_backend(previous)


@pytest.mark.parametrize("backend", ["arena", "object"])
@pytest.mark.parametrize("sql", NAT_ONLY_CORPUS)
def test_compiled_matches_interpreter_aggregates(backend, sql, catalog):
    previous = set_kernel_backend(backend)
    try:
        query = compile_sql(sql, catalog).query
        for seed in range(8):
            _assert_parity(query, _random_interp(seed, NAT), NAT)
    finally:
        set_kernel_backend(previous)


@pytest.mark.parametrize("backend", ["arena", "object"])
def test_exotic_semiring_raises_compile_error(backend, catalog):
    previous = set_kernel_backend(backend)
    try:
        query = compile_sql("SELECT a FROM R", catalog).query
        with pytest.raises(CompileError):
            compile_pair(query, query, ("R", "S"), semiring=NAT_INF)
    finally:
        set_kernel_backend(previous)


@pytest.mark.parametrize("backend", ["arena", "object"])
@pytest.mark.parametrize("semiring", [BOOL, NAT, NAT_INF],
                         ids=lambda s: s.name)
def test_disprover_verdict_independent_of_evaluator(backend, semiring,
                                                    catalog):
    """The full-search differential guarantee: on every semiring — the
    two compiled ones and the interpreter-fallback ``NAT_INF`` — forcing
    the interpreter and forcing (or auto-choosing) the compiled path
    must agree on witness index, accounting, and exhaustion.
    ``analyze=False`` keeps the search on the full space (the degree
    lattice would shrink the NAT cases; see the next test)."""
    previous = set_kernel_backend(backend)
    try:
        pairs = [
            ("SELECT a FROM R", "SELECT DISTINCT a FROM R"),
            ("SELECT a FROM R WHERE a = 1", "SELECT a FROM R WHERE a = 1"),
        ]
        for sql1, sql2 in pairs:
            q1 = compile_sql(sql1, catalog).query
            q2 = compile_sql(sql2, catalog).query
            interp = disprove(q1, q2, bound=Bound.of(2, 2),
                              use_compiled=False, semiring=semiring,
                              analyze=False)
            auto = disprove(q1, q2, bound=Bound.of(2, 2),
                            semiring=semiring, analyze=False)
            assert auto.found == interp.found
            assert auto.instances_checked == interp.instances_checked
            assert auto.exhausted == interp.exhausted
            if auto.found:
                assert auto.counterexample.trial \
                    == interp.counterexample.trial
                assert auto.record == interp.record
            if semiring in COMPILED_SEMIRINGS:
                forced = disprove(q1, q2, bound=Bound.of(2, 2),
                                  use_compiled=True, semiring=semiring,
                                  analyze=False)
                assert forced.found == interp.found
                assert forced.instances_checked \
                    == interp.instances_checked
    finally:
        set_kernel_backend(previous)


@pytest.mark.parametrize("backend", ["arena", "object"])
def test_lattice_search_independent_of_evaluator(backend, catalog):
    """The same guarantee on the NAT degree lattice: the interpreter and
    the compiled path search the same pruned space in the same order."""
    previous = set_kernel_backend(backend)
    try:
        pairs = [
            ("SELECT a FROM R WHERE a = 1", "SELECT a FROM R WHERE a = 1"),
            ("SELECT r.a FROM R r, S s WHERE r.a = s.a",
             "SELECT r.a FROM R r, S s WHERE r.a = s.a AND s.b = 1"),
        ]
        for sql1, sql2 in pairs:
            q1 = compile_sql(sql1, catalog).query
            q2 = compile_sql(sql2, catalog).query
            interp = disprove(q1, q2, bound=Bound.of(2, 2),
                              use_compiled=False)
            for use_compiled in (None, True):
                compiled = disprove(q1, q2, bound=Bound.of(2, 2),
                                    use_compiled=use_compiled)
                assert compiled.found == interp.found
                assert compiled.instances_checked \
                    == interp.instances_checked
                assert compiled.exhausted == interp.exhausted
                assert compiled.record == interp.record
    finally:
        set_kernel_backend(previous)


@pytest.mark.parametrize("semiring", COMPILED_SEMIRINGS, ids=lambda s: s.name)
def test_conjuncts_run_in_the_loop_that_binds_them(semiring, catalog):
    """A conjunct on the outer row alone is checked once per outer row,
    before the inner loop, and short-circuits the later conjunct."""
    calls = {"outer": 0, "both": 0, "context": 0}

    def counting(name, verdict):
        def pred(_):
            calls[name] += 1
            return verdict
        return pred

    ctx = Node(EMPTY, Node(ROW, ROW))
    r_row = ast.Duplicate(ast.LEFT, ast.path(ast.RIGHT, ast.LEFT))
    context_only = ast.CastPred(ast.LEFT, ast.PredVar("context", EMPTY))
    query = ast.Where(
        ast.Product(ast.Table("R", ROW), ast.Table("S", ROW)),
        ast.and_(ast.PredVar("both", ctx),
                 ast.CastPred(r_row, ast.PredVar("outer", ctx)),
                 context_only))
    interp = Interpretation(predicates={
        "outer": counting("outer", False),
        "both": counting("both", True),
        "context": counting("context", True)})
    program = compile_query(query, ("R", "S"), interp, semiring)
    one = 1 if semiring is NAT else True
    rels = ({(0, 0): one, (0, 1): one, (1, 1): one},
            {(0, 0): one, (1, 0): one})
    assert program(rels, ()) == {}
    assert calls == {"outer": 3, "both": 0, "context": 1}


def test_oversized_loop_nest_falls_back(catalog):
    width = 25
    sql = ("SELECT x0.a FROM " + ", ".join(f"R x{i}" for i in range(width))
           + " WHERE " + " AND ".join(f"x{i}.a = x{i + 1}.a"
                                      for i in range(width - 1)))
    query = compile_sql(sql, catalog).query
    with pytest.raises(CompileError):
        compile_query(query, ("R",), semiring=NAT)


# Rules whose instantiators bind opaque metavariables (``PredVar``
# predicates, ``PVar`` attribute paths) that the fused blocks call.
METAVARIABLE_RULES = ["semijoin_intro", "cq_fig10_example",
                      "bad_self_join_dedup_bag"]


@pytest.mark.parametrize("name", METAVARIABLE_RULES)
def test_disprove_rule_with_metavariables_is_evaluator_independent(name):
    rule = get_rule(name)
    interp = disprove_rule(rule, bound=Bound.of(2, 2), use_compiled=False)
    compiled = disprove_rule(rule, bound=Bound.of(2, 2), use_compiled=True)
    assert compiled.found == interp.found
    assert compiled.instances_checked == interp.instances_checked
    assert compiled.exhausted == interp.exhausted
    assert compiled.record == interp.record


# Heavy search shapes: 4-way transitive chains and HAVING over a
# self-join.  The full search under the fused evaluator must report the
# same witness, accounting and exhaustion as the interpreter.
SEARCH_PARITY_PAIRS = [
    ("SELECT x.a FROM R x, R y, R z, R w "
     "WHERE x.b = y.a AND y.b = z.a AND z.b = w.a",
     "SELECT x.a FROM R x, R y, R z, R w "
     "WHERE z.b = w.a AND x.b = y.a AND y.b = z.a"),
    ("SELECT x.a FROM R x, R y, R z, R w "
     "WHERE x.b = y.a AND y.b = z.a AND z.b = w.a",
     "SELECT x.a FROM R x, R y, R z, R w "
     "WHERE x.b = y.a AND y.b = z.a AND z.b = w.a AND x.a = w.b"),
    ("SELECT DISTINCT x.a FROM R x, R y, R z, R w "
     "WHERE x.b = y.a AND y.b = z.a AND z.b = w.a",
     "SELECT DISTINCT x.a FROM R x, R y, R z "
     "WHERE x.b = y.a AND y.b = z.a"),
    ("SELECT x.a, SUM(y.b) FROM R x, R y WHERE x.b = y.a "
     "GROUP BY x.a HAVING x.a = 1",
     "SELECT x.a, SUM(y.b) FROM R x, R y WHERE x.b = y.a AND x.a = 1 "
     "GROUP BY x.a"),
    ("SELECT x.a, COUNT(y.b) FROM R x, S y WHERE x.b = y.a "
     "GROUP BY x.a HAVING COUNT(y.b) = 1",
     "SELECT x.a, SUM(y.b) FROM R x, S y WHERE x.b = y.a "
     "GROUP BY x.a HAVING SUM(y.b) = 1"),
]


@pytest.mark.parametrize("sql1,sql2", SEARCH_PARITY_PAIRS)
def test_search_parity_on_heavy_shapes(sql1, sql2, catalog):
    q1 = compile_sql(sql1, catalog).query
    q2 = compile_sql(sql2, catalog).query
    interp = disprove(q1, q2, bound=Bound.of(3, 2), use_compiled=False)
    fused = disprove(q1, q2, bound=Bound.of(3, 2))
    assert fused.found == interp.found
    assert fused.instances_checked == interp.instances_checked
    assert fused.exhausted == interp.exhausted
    assert fused.record == interp.record
