"""Static-analysis pruning of the bounded-exhaustive search.

Three lossless prunes (see ``disprove(..., analyze=True)``): queries
statically empty on both sides short-circuit to an exhausted result,
support-determined pairs clamp enumeration to multiplicity 1, and
SPJ / ``UNION ALL`` pairs under ``NAT`` search only the instances whose
total multiplicity per table is at most that table's degree.  The
tests check both the savings and the losslessness — same verdict as the
unpruned search on counterexample-bearing and equivalent pairs alike.
"""

import itertools

import pytest

from repro.analysis import multiplicity_degrees
from repro.core import ast
from repro.core.equivalence import Hypotheses, KeyConstraint
from repro.core.schema import INT, Leaf, Node
from repro.engine.database import Interpretation
from repro.obs.metrics import counter
from repro.semiring import BOOL
from repro.solver import Bound, disprove
from repro.sql import Catalog, compile_sql

SCHEMA = Node(Leaf(INT), Leaf(INT))
R = ast.Table("R", SCHEMA)
S = ast.Table("S", SCHEMA)
T = ast.Table("T", SCHEMA)
FALSE = ast.PredFalse()


class TestStaticEqualShortCircuit:
    def test_both_statically_empty_skips_enumeration(self):
        before = counter("analysis.disprover.static_equal").value
        q1 = ast.Where(R, FALSE)
        q2 = ast.Product(ast.Where(R, FALSE), S)
        result = disprove(q1, q2)
        assert result.exhausted
        assert not result.found
        assert result.instances_checked == 0
        assert counter("analysis.disprover.static_equal").value > before

    def test_disabled_analysis_still_enumerates(self):
        q1 = ast.Where(R, FALSE)
        q2 = ast.Where(ast.Where(R, FALSE), FALSE)
        result = disprove(q1, q2, analyze=False)
        assert result.exhausted
        assert not result.found
        assert result.instances_checked > 0


class TestMultiplicityClamp:
    def test_clamp_shrinks_the_search_space(self):
        before = counter("analysis.disprover.mult_clamped").value
        q1 = ast.Distinct(ast.Product(R, T))
        q2 = ast.Distinct(ast.UnionAll(ast.Product(R, T),
                                       ast.Product(R, T)))
        pruned = disprove(q1, q2)
        full = disprove(q1, q2, analyze=False)
        assert pruned.exhausted and full.exhausted
        assert not pruned.found and not full.found
        assert pruned.instances_checked < full.instances_checked
        assert pruned.bound.max_multiplicity == 1
        assert full.bound.max_multiplicity == 2
        assert counter("analysis.disprover.mult_clamped").value > before

    def test_clamp_preserves_counterexamples(self):
        # the sides differ already at the support level, so the clamped
        # search must still find the witness
        q1 = ast.Distinct(R)
        q2 = ast.Distinct(ast.Where(R, FALSE))
        result = disprove(q1, q2)
        assert result.found
        assert result.bound.max_multiplicity == 1

    def test_bag_queries_are_never_clamped(self):
        # UNION ALL duplicates are invisible at multiplicity 1: the
        # clamp must not apply to non-DISTINCT-rooted queries
        result = disprove(ast.UnionAll(R, R), R)
        assert result.found
        assert result.bound.max_multiplicity == 2
        cx = result.counterexample
        assert cx.lhs_result != cx.rhs_result

    def test_aggregates_are_never_clamped(self):
        # COUNT sees multiplicities through DISTINCT, so the clamp
        # must not apply when an aggregate appears anywhere
        u = ast.Table("U", Leaf(INT))
        count = ast.Select(ast.E2P(ast.Agg("COUNT", u, INT), INT), u)
        q = ast.Distinct(count)
        result = disprove(q, q)
        assert result.exhausted
        assert result.bound.max_multiplicity == 2


class TestMultiplicityDegrees:
    def test_table_has_degree_one(self):
        assert multiplicity_degrees(R) == {"R": 1}

    def test_self_join_has_degree_two(self):
        q = ast.Where(ast.Product(R, R), ast.PredTrue())
        assert multiplicity_degrees(q) == {"R": 2}

    def test_product_adds_per_table(self):
        q = ast.Product(ast.Product(R, S), R)
        assert multiplicity_degrees(q) == {"R": 2, "S": 1}

    def test_union_all_takes_the_max(self):
        q = ast.UnionAll(ast.Product(R, R), ast.Product(R, S))
        assert multiplicity_degrees(q) == {"R": 2, "S": 1}

    def test_select_and_where_keep_the_degree(self):
        q = ast.Select(ast.STAR, ast.Where(ast.Product(R, S), FALSE))
        assert multiplicity_degrees(q) == {"R": 1, "S": 1}

    @pytest.mark.parametrize("query", [
        ast.Distinct(R),
        ast.Except(R, S),
        ast.Where(R, ast.Exists(S)),
        ast.Select(ast.E2P(ast.Agg("COUNT", S, INT), INT), R),
        ast.UnionAll(R, ast.Distinct(S)),
    ], ids=["distinct", "except", "exists", "agg", "nested-distinct"])
    def test_non_polynomial_constructs_give_none(self, query):
        assert multiplicity_degrees(query) is None


#: Single-column SPJ / UNION ALL queries over R(a, b) and S(a, b):
#: alpha-variants, self-joins, a three-way self-join, and mutants that
#: differ only in a join column, a filter, a duplicate branch or a table.
DIFFERENTIAL_SQL = [
    "SELECT a FROM R",
    "SELECT b FROM R",
    "SELECT a FROM R WHERE b = 1",
    "SELECT r.a FROM R r, S s WHERE r.a = s.a",
    "SELECT x.a FROM S y, R x WHERE y.a = x.a",
    "SELECT r.a FROM R r, S s WHERE r.b = s.a",
    "SELECT r.a FROM R r, R s WHERE r.a = s.a",
    "SELECT y.a FROM R x, R y WHERE y.a = x.a",
    "SELECT r.a FROM R r, R s WHERE r.a = s.b",
    "SELECT r.a FROM R r, R s, R t WHERE r.a = s.a AND s.a = t.a",
    "SELECT a FROM R UNION ALL SELECT a FROM S",
    "SELECT a FROM S UNION ALL SELECT a FROM R",
    "SELECT a FROM R UNION ALL SELECT a FROM R",
    "SELECT r.a FROM R r, S s UNION ALL SELECT a FROM R",
    "SELECT x.a FROM (SELECT a, b FROM R WHERE b = 1) x, S s "
    "WHERE x.a = s.b",
    "SELECT r.a FROM R r, S s WHERE r.a = s.b AND r.b = 1",
]

DIFFERENTIAL_BOUNDS = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2)]


@pytest.fixture(scope="module")
def differential_queries():
    cat = Catalog()
    cat.add_table("R", [("a", INT), ("b", INT)])
    cat.add_table("S", [("a", INT), ("b", INT)])
    return [compile_sql(sql, cat).query for sql in DIFFERENTIAL_SQL]


class TestDegreeLattice:
    @pytest.mark.parametrize("rows,mult", DIFFERENTIAL_BOUNDS)
    def test_agrees_with_the_full_search(self, differential_queries,
                                         rows, mult):
        bound = Bound.of(rows, mult)
        tables = {"R": SCHEMA, "S": SCHEMA}
        mismatches = []
        for i, j in itertools.combinations_with_replacement(
                range(len(differential_queries)), 2):
            q1, q2 = differential_queries[i], differential_queries[j]
            pruned = disprove(q1, q2, tables, bound)
            full = disprove(q1, q2, tables, bound, analyze=False)
            assert pruned.instances_checked <= full.instances_checked
            if (pruned.found, pruned.exhausted) \
                    != (full.found, full.exhausted):
                mismatches.append((DIFFERENTIAL_SQL[i],
                                   DIFFERENTIAL_SQL[j]))
        assert mismatches == []

    def test_lattice_witness_replays(self, differential_queries):
        # the witness comes from the pruned space, mapped back to its
        # canonical descriptor and re-derived by the interpreter
        q1, q2 = differential_queries[6], differential_queries[8]
        result = disprove(q1, q2, bound=Bound.of(3, 2))
        assert result.found
        cx = result.counterexample
        assert cx.lhs_result != cx.rhs_result

    def test_counter_counts_pruned_searches(self, differential_queries):
        join = differential_queries[3]
        name = "analysis.disprover.degree_lattice"
        before = counter(name).value
        result = disprove(join, differential_queries[4])
        assert result.exhausted and result.instances_checked == 25
        assert counter(name).value == before + 1
        # no prune: analysis off, BOOL, a non-polynomial side, or a
        # bound whose every instance is already in the lattice
        disprove(join, join, analyze=False)
        disprove(join, join, semiring=BOOL)
        disprove(join, ast.Distinct(join))
        disprove(join, join, bound=Bound.of(1, 1))
        assert counter(name).value == before + 1

    def test_constrained_tables_are_searched_in_full(
            self, differential_queries):
        # R carries a key: its 9 key-respecting instances at 2x2 are all
        # searched; only the unconstrained S shrinks to its lattice (5).
        hyps = Hypotheses(keys=(KeyConstraint("R", "k", Leaf(INT)),))
        interp = Interpretation(projections={"k": lambda row: row[0]})
        join = differential_queries[3]
        tables = {"R": SCHEMA, "S": SCHEMA}
        pruned = disprove(join, join, tables, hyps=hyps, base_interp=interp)
        full = disprove(join, join, tables, hyps=hyps, base_interp=interp,
                        analyze=False)
        assert pruned.exhausted and full.exhausted
        assert pruned.instances_checked == 9 * 5
        assert full.instances_checked == 9 * 33

    def test_interpreter_path_is_pruned_too(self, differential_queries):
        q1, q2 = differential_queries[3], differential_queries[4]
        compiled = disprove(q1, q2)
        interpreted = disprove(q1, q2, use_compiled=False)
        assert interpreted.exhausted
        assert interpreted.instances_checked \
            == compiled.instances_checked == 25
