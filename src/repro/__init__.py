"""HoTTSQL reproduction: proving SQL query rewrites with semiring semantics.

A from-scratch Python reproduction of *HoTTSQL: Proving Query Rewrites with
Univalent SQL Semantics* (Chu, Weitz, Cheung, Suciu — PLDI 2017) and its
system DOPCERT:

* :mod:`repro.session` — **the front door**: :class:`Session` owns the
  catalog, the tiered verification pipeline, the proof cache, and the
  worker pool; :class:`QueryHandle` memoizes each query's compilation and
  normal form so repeated checks never renormalize.
* :mod:`repro.core` — the HoTTSQL data model, syntax, denotational
  semantics into the UniNomial algebra, and the equivalence prover
  (normalization, congruence closure, Lemma 5.1–5.3 tactics, the automated
  conjunctive-query decision procedure).
* :mod:`repro.solver` — the verification service layer: tiered pipeline,
  content-addressed proof cache, bounded-exhaustive disprover, and the
  multiprocessing batch service.
* :mod:`repro.semiring` — K-relations over commutative semirings, with the
  paper's generalization to infinite cardinal multiplicities.
* :mod:`repro.engine` — the executable semantics (Figure 7 over any
  semiring) and the random-instance falsifier.
* :mod:`repro.rules` — the 23 rewrite rules of the paper's Figure 8, plus
  deliberately unsound optimizer rewrites the system must reject.
* :mod:`repro.sql` — a named SQL frontend compiling to the unnamed model
  (and, via :mod:`repro.sql.decompile`, back out again).
* :mod:`repro.optimizer` — a certified cost-based plan rewriter.
* :mod:`repro.obs` — the observability layer: hierarchical spans with a
  Chrome trace-event exporter, a process-wide metrics registry whose
  snapshots merge across worker processes, and the ``repro`` logging
  hierarchy.
* :mod:`repro.errors` — one :class:`ReproError` base under every
  library exception.
* :mod:`repro.theory` — the decidability landscape of Figure 9.

Imports are lazy (PEP 562): ``import repro`` loads only this file, and
each name above is imported from its defining submodule the first time it
is read; every subpackage does the same for its own names.  A check
therefore loads the SQL front end, the term kernel and the pipeline tiers
it runs, and no more — the disprover, the optimizer, the static analysis,
the batch service and the serve daemon load on first use, inside the call
that needs them.  Code in the package keeps to the same rule: a module
imports at top level only what its common path runs, and imports a heavy
subsystem inside the function that uses it.

Quickstart::

    from repro import Session

    with Session.from_tables("R(a:int,b:int)") as session:
        q1 = session.sql("SELECT DISTINCT a FROM R")
        q2 = session.sql("SELECT DISTINCT x.a FROM R AS x, R AS y "
                         "WHERE x.a = y.a")
        assert q1.equivalent_to(q2).proved     # self-join elimination
        plan = q2.optimize()                   # certified plan search
        print(plan.sql())                      # decompiled back to SQL
        report = session.check_all_pairs()     # one normalize per query

Migrating from the pre-session surface:

=====================================================  =======================================================
Old call                                               New call
=====================================================  =======================================================
``Catalog(); catalog.add_table("R", cols)``            ``Session.from_tables("R(a:int,b:int)")``
``compile_sql(sql, catalog)``                          ``session.sql(sql)``
``queries_equivalent(q1, q2)``                         ``h1.equivalent_to(h2).proved``
``check_query_equivalence(q1, q2)``                    ``h1.equivalent_to(h2)`` (a structured ``Verdict``)
``Pipeline().check(q1, q2)``                           ``session.check(sql1, sql2)``
``disprove(q1, q2)``                                   ``h1.disprove(h2)``
``optimize(query, stats)``                             ``h.optimize(stats)`` (a ``PlanHandle``)
``VerificationService().check_batch(jobs)``            ``session.check_batch(jobs)``
``pipeline.cache.save(path)``                          ``Session.from_tables(..., cache=path)`` + ``with``
=====================================================  =======================================================

The old entry points still work — ``compile_sql``, ``Pipeline``, and the
rest import and behave exactly as before; only the two top-level free
functions ``repro.queries_equivalent`` and ``repro.check_query_equivalence``
emit a :class:`DeprecationWarning` (their :mod:`repro.core` homes stay
warning-free for internal use).
"""

import warnings as _warnings

from ._lazy import lazy_exports

__version__ = "2.0.0"


def queries_equivalent(q1, q2, ctx_schema=None, hyps=None):
    """Deprecated shim — use :meth:`QueryHandle.equivalent_to` (or
    :func:`repro.core.equivalence.queries_equivalent` directly)."""
    _warnings.warn(
        "repro.queries_equivalent is deprecated; open a repro.Session and "
        "use QueryHandle.equivalent_to(...).proved",
        DeprecationWarning, stacklevel=2)
    from .core.equivalence import queries_equivalent as _queries_equivalent
    if hyps is None:
        return _queries_equivalent(q1, q2, ctx_schema)
    return _queries_equivalent(q1, q2, ctx_schema, hyps)


def check_query_equivalence(q1, q2, ctx_schema=None, hyps=None, **kwargs):
    """Deprecated shim — use :meth:`QueryHandle.equivalent_to` (or
    :func:`repro.core.equivalence.check_query_equivalence` directly)."""
    _warnings.warn(
        "repro.check_query_equivalence is deprecated; open a repro.Session "
        "and use QueryHandle.equivalent_to(...)",
        DeprecationWarning, stacklevel=2)
    from .core.equivalence import check_query_equivalence as _check_query_equivalence
    if hyps is None:
        return _check_query_equivalence(q1, q2, ctx_schema, **kwargs)
    return _check_query_equivalence(q1, q2, ctx_schema, hyps, **kwargs)


__all__ = [
    "BOOL",
    "BatchReport",
    "Bound",
    "Catalog",
    "Database",
    "EMPTY",
    "FDConstraint",
    "Hypotheses",
    "INT",
    "Interpretation",
    "Job",
    "KRelation",
    "KeyConstraint",
    "NAT",
    "NAT_INF",
    "PROVENANCE",
    "PairResult",
    "PairwiseReport",
    "Pipeline",
    "PipelineConfig",
    "PlanHandle",
    "ProofCache",
    "QueryHandle",
    "ReproError",
    "STRING",
    "SVar",
    "Schema",
    "Session",
    "SessionError",
    "Status",
    "TableSpecError",
    "Verdict",
    "VerificationService",
    "__version__",
    "all_rules",
    "ast",
    "check_query_equivalence",
    "compile_sql",
    "cq_equivalent",
    "decide_cq",
    "denote_closed",
    "get_rule",
    "obs",
    "queries_equivalent",
    "query_to_str",
    "rules_by_category",
    "run_query",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".core": (
        "BOOL", "EMPTY", "FDConstraint", "Hypotheses", "INT", "KeyConstraint",
        "STRING", "SVar", "Schema", "ast", "cq_equivalent", "decide_cq",
        "denote_closed",
    ),
    ".engine": ("Database", "Interpretation", "run_query"),
    ".errors": ("ReproError",),
    ".rules": ("all_rules", "get_rule", "rules_by_category"),
    ".semiring": ("KRelation", "NAT", "NAT_INF", "PROVENANCE"),
    ".session": (
        "PairResult", "PairwiseReport", "PlanHandle", "QueryHandle",
        "Session", "SessionError", "TableSpecError",
    ),
    ".solver": (
        "BatchReport", "Bound", "Job", "Pipeline", "PipelineConfig",
        "ProofCache", "Status", "Verdict", "VerificationService",
    ),
    ".sql": ("Catalog", "compile_sql", "query_to_str"),
})
