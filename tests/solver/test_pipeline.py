"""The tiered decision pipeline: stages, budgets, corpus acceptance."""

import random
from dataclasses import replace

import pytest

from repro.core.schema import INT
from repro.engine import Interpretation
from repro.obs.metrics import REGISTRY
from repro.rules import all_buggy_rules, all_rules
from repro.semiring import KRelation, NAT
from repro.solver import (
    Bound,
    BoundInfo,
    Pipeline,
    PipelineConfig,
    Status,
    replay,
)
from repro.solver.pipeline import _unknown_still_valid
from repro.sql import Catalog, compile_sql


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.add_table("R", [("a", INT), ("b", INT)])
    return cat


@pytest.fixture
def queries(catalog):
    def q(sql):
        return compile_sql(sql, catalog).query
    return q


class TestStages:
    def test_identical_queries_proved_by_alpha_hash(self, queries):
        q = queries("SELECT a FROM R WHERE a = 1")
        verdict = Pipeline().check(q, q)
        assert verdict.proved
        assert verdict.stage == "alpha-hash"

    def test_alias_renaming_proved_by_alpha_hash(self, queries):
        v = Pipeline().check(
            queries("SELECT x.a FROM R AS x"),
            queries("SELECT y.a FROM R AS y"))
        assert v.proved
        assert v.stage == "alpha-hash"

    def test_cq_pair_decided_by_conjunctive_stage(self, queries):
        v = Pipeline().check(
            queries("SELECT DISTINCT a FROM R"),
            queries("SELECT DISTINCT x.a FROM R AS x, R AS y "
                    "WHERE x.a = y.a"))
        assert v.proved
        assert v.stage == "conjunctive"

    def test_cq_negative_is_a_disproof(self, queries):
        # Closed concrete CQs: the procedure is complete, so even with the
        # disprover off the answer is DISPROVED, not UNKNOWN.
        config = PipelineConfig(use_disprover=False)
        v = Pipeline(config).check(
            queries("SELECT DISTINCT a FROM R"),
            queries("SELECT DISTINCT b FROM R"))
        assert v.disproved
        assert v.stage == "conjunctive"

    def test_disprover_produces_replayable_counterexample(
            self, queries, catalog):
        q1 = queries("SELECT a FROM R")
        q2 = queries("SELECT b FROM R")
        v = Pipeline().check(q1, q2)
        assert v.disproved and v.stage == "disprover"
        lhs, rhs = replay(v.counterexample, q1, q2,
                          {"R": catalog.schema_of("R")}, NAT)
        assert lhs != rhs

    def test_unknown_carries_bound_guarantee(self, queries):
        # An inequivalence the bounded disprover cannot see: the queries
        # differ only on values outside the small enumeration domain, and
        # without DISTINCT they sit outside the complete CQ fragment — so
        # the honest answer is UNKNOWN with an explicit bound.
        config = PipelineConfig(
            disprover_bound=Bound.of(max_rows=1, max_multiplicity=1))
        v = Pipeline(config).check(
            queries("SELECT a FROM R WHERE a = 2"),
            queries("SELECT a FROM R WHERE a = 3"))
        assert v.status is Status.UNKNOWN
        assert v.bound is not None and v.bound.exhausted

    def test_step_budget_turns_prover_off_gracefully(self, queries):
        # Note: reordered conjuncts alone no longer exercise the budget —
        # the interned kernel normalizes both to the same canonical form.
        # A DISTINCT self-join needs real squash/bijection search.
        config = PipelineConfig(prover_max_steps=1, use_alpha_hash=False,
                                use_conjunctive=False, use_disprover=False)
        v = Pipeline(config).check(
            queries("SELECT DISTINCT x.a FROM R AS x, R AS y "
                    "WHERE x.a = y.a"),
            queries("SELECT DISTINCT a FROM R"))
        assert v.status is Status.UNKNOWN
        assert "budget" in v.detail

    def test_timings_cover_executed_stages(self, queries):
        v = Pipeline().check(queries("SELECT a FROM R"),
                             queries("SELECT b FROM R"))
        assert "normalize" in v.timings
        assert "disprover" in v.timings
        assert v.total_seconds >= 0

    def test_non_proved_verdicts_report_prover_effort(self, queries):
        # The prover ran before the disprover settled it; its step count
        # must not be reported as zero.
        v = Pipeline().check(queries("SELECT a FROM R"),
                             queries("SELECT b FROM R"))
        assert v.disproved
        assert v.engine_steps > 0


class TestCaching:
    def test_second_check_hits_cache(self, queries):
        pipeline = Pipeline()
        q1 = queries("SELECT DISTINCT a FROM R")
        q2 = queries("SELECT DISTINCT x.a FROM R AS x, R AS y "
                     "WHERE x.a = y.a")
        first = pipeline.check(q1, q2)
        second = pipeline.check(q1, q2)
        assert not first.cached and second.cached
        assert second.status is first.status

    def test_swapped_order_hits_cache(self, queries):
        pipeline = Pipeline()
        q1 = queries("SELECT DISTINCT a FROM R")
        q2 = queries("SELECT DISTINCT x.a FROM R AS x, R AS y "
                     "WHERE x.a = y.a")
        pipeline.check(q1, q2)
        assert pipeline.check(q2, q1).cached

    def test_swapped_cache_hit_reorients_counterexample(self, queries):
        # Cache keys are symmetric; the counterexample's lhs/rhs labels
        # must follow the caller's argument order, not the producer's.
        pipeline = Pipeline()
        q1 = queries("SELECT a FROM R")
        q2 = queries("SELECT a FROM R UNION ALL SELECT a FROM R")
        first = pipeline.check(q1, q2)
        swapped = pipeline.check(q2, q1)
        assert swapped.cached
        assert swapped.counterexample.disagreements == tuple(
            (row, right, left)
            for row, left, right in first.counterexample.disagreements)
        # And the labels must genuinely differ (q2 returns the doubles).
        assert first.counterexample.disagreements \
            != swapped.counterexample.disagreements

    def test_prove_only_keeps_cq_disproof(self, queries):
        v = Pipeline().check(queries("SELECT DISTINCT a FROM R"),
                             queries("SELECT DISTINCT b FROM R"),
                             prove_only=True)
        assert v.disproved
        assert v.stage == "conjunctive"

    def test_unknown_not_cached_by_default(self, queries):
        config = PipelineConfig(
            disprover_bound=Bound.of(max_rows=1, max_multiplicity=1))
        pipeline = Pipeline(config)
        q1 = queries("SELECT a FROM R WHERE a = 2")
        q2 = queries("SELECT a FROM R WHERE a = 3")
        assert pipeline.check(q1, q2).status is Status.UNKNOWN
        assert not pipeline.check(q1, q2).cached


class TestCachedUnknown:
    """A cached UNKNOWN never hides a verdict the request would find."""

    SMALL = Bound.of(max_rows=1, max_multiplicity=1)

    def test_cached_unknown_served_at_the_same_bound(self, queries):
        pipeline = Pipeline(PipelineConfig(cache_unknown=True,
                                           disprover_bound=self.SMALL))
        q1 = queries("SELECT a FROM R WHERE a = 2")
        q2 = queries("SELECT a FROM R WHERE a = 3")
        assert pipeline.check(q1, q2).status is Status.UNKNOWN
        again = pipeline.check(q1, q2)
        assert again.cached and again.status is Status.UNKNOWN

    def test_wider_domain_request_reruns_the_disprover(self, queries):
        config = PipelineConfig(cache_unknown=True,
                                disprover_bound=self.SMALL)
        pipeline = Pipeline(config)
        q1 = queries("SELECT a FROM R WHERE a = 2")
        q2 = queries("SELECT a FROM R WHERE a = 3")
        assert pipeline.check(q1, q2).status is Status.UNKNOWN
        wide = replace(config, disprover_bound=Bound.of(
            max_rows=1, max_multiplicity=1, domains={"int": (0, 1, 2, 3)}))
        verdict = pipeline.check(q1, q2, config=wide)
        assert not verdict.cached
        assert verdict.status is Status.DISPROVED
        assert verdict.status is Pipeline(wide).check(q1, q2).status

    def test_larger_bound_request_reruns_the_disprover(self, queries):
        config = PipelineConfig(cache_unknown=True,
                                disprover_bound=self.SMALL)
        pipeline = Pipeline(config)
        q1 = queries("SELECT a FROM R")
        q2 = queries("SELECT DISTINCT a FROM R")
        assert pipeline.check(q1, q2).status is Status.UNKNOWN
        assert pipeline.check(q1, q2).cached
        bigger = replace(config, disprover_bound=Bound.of(2, 2))
        verdict = pipeline.check(q1, q2, config=bigger)
        assert not verdict.cached
        assert verdict.status is Status.DISPROVED

    def test_truncated_unknown_does_not_answer_a_larger_budget(self,
                                                               queries):
        config = PipelineConfig(cache_unknown=True,
                                disprover_bound=Bound.of(2, 2),
                                disprover_max_instances=1)
        pipeline = Pipeline(config)
        q1 = queries("SELECT a FROM R WHERE a = 1")
        q2 = queries("SELECT a FROM R WHERE a = 1 AND b = 0")
        first = pipeline.check(q1, q2)
        assert first.status is Status.UNKNOWN
        assert not first.bound.exhausted
        assert pipeline.check(q1, q2).cached
        unbudgeted = replace(config, disprover_max_instances=None)
        verdict = pipeline.check(q1, q2, config=unbudgeted)
        assert not verdict.cached
        assert verdict.status is Status.DISPROVED

    def test_per_request_cache_unknown_is_honoured(self, queries):
        q1 = queries("SELECT a FROM R WHERE a = 2")
        q2 = queries("SELECT a FROM R WHERE a = 3")
        off = PipelineConfig(disprover_bound=self.SMALL)
        on = replace(off, cache_unknown=True)

        caching = Pipeline(off)
        assert caching.check(q1, q2, config=on).status is Status.UNKNOWN
        assert caching.check(q1, q2, config=on).cached

        skipping = Pipeline(on)
        assert skipping.check(q1, q2, config=off).status is Status.UNKNOWN
        assert not skipping.check(q1, q2, config=off).cached


    def test_rejected_cached_unknown_counts_as_a_miss(self, queries):
        config = PipelineConfig(cache_unknown=True,
                                disprover_bound=self.SMALL)
        pipeline = Pipeline(config)
        q1 = queries("SELECT a FROM R")
        q2 = queries("SELECT DISTINCT a FROM R")
        assert pipeline.check(q1, q2).status is Status.UNKNOWN
        before = REGISTRY.snapshot()["counters"]
        bigger = replace(config, disprover_bound=Bound.of(2, 2))
        assert not pipeline.check(q1, q2, config=bigger).cached
        after = REGISTRY.snapshot()["counters"]
        assert (pipeline.cache.hits, pipeline.cache.misses) == (0, 2)
        assert after.get("proofcache.hits_total", 0) \
            == before.get("proofcache.hits_total", 0)
        assert after["proofcache.misses_total"] \
            == before.get("proofcache.misses_total", 0) + 1

    def test_factory_request_with_more_draws_reruns_the_disprover(
            self, queries, catalog):
        q1 = queries("SELECT a FROM R")
        q2 = queries("SELECT b FROM R")
        first_draw = random.Random(0).random()

        def factory(rng):
            # Draw 0 instantiates an equivalent pair; later draws do not.
            rhs = q1 if rng.random() == first_draw else q2
            interp = Interpretation(relations={"R": KRelation(NAT)},
                                    schemas={"R": catalog.schema_of("R")})
            return q1, rhs, interp

        config = PipelineConfig(cache_unknown=True, disprover_draws=1)
        pipeline = Pipeline(config)
        first = pipeline.check(q1, q2, factory=factory)
        assert first.status is Status.UNKNOWN
        assert first.bound.draws == 1
        assert pipeline.check(q1, q2, factory=factory).cached
        more = replace(config, disprover_draws=2)
        verdict = pipeline.check(q1, q2, factory=factory, config=more)
        assert not verdict.cached
        assert verdict.status is Status.DISPROVED

    def test_bound_without_draws_never_covers_a_factory_request(self):
        config = PipelineConfig()
        info = Bound().info(instances_checked=10, exhausted=True)
        assert info.draws is None
        assert _unknown_still_valid(info, config, prove_only=False)
        assert not _unknown_still_valid(info, config, prove_only=False,
                                        factory=True)
        drawn = replace(info, draws=config.disprover_draws)
        assert _unknown_still_valid(drawn, config, prove_only=False,
                                    factory=True)
        fewer = replace(info, draws=config.disprover_draws - 1)
        assert not _unknown_still_valid(fewer, config, prove_only=False,
                                        factory=True)

    def test_bound_info_round_trips_draws(self):
        info = Bound().info(instances_checked=7, exhausted=False, draws=3)
        assert BoundInfo.from_dict(info.to_dict()) == info
        plain = Bound().info(instances_checked=7, exhausted=False)
        assert "draws" not in plain.to_dict()
        assert BoundInfo.from_dict(plain.to_dict()).draws is None


class TestRuleCorpus:
    """The ISSUE's acceptance criterion, as a regression test."""

    @pytest.mark.parametrize("rule", all_rules(), ids=lambda r: r.name)
    def test_every_figure8_rule_is_proved(self, rule):
        verdict = Pipeline().check_rule(rule)
        assert verdict.proved, \
            f"{rule.name}: {verdict.status} ({verdict.detail})"

    @pytest.mark.parametrize("rule", all_buggy_rules(),
                             ids=lambda r: r.name)
    def test_every_buggy_rule_is_disproved_with_witness(self, rule):
        verdict = Pipeline().check_rule(rule)
        assert verdict.disproved, f"{rule.name}: {verdict.status}"
        assert verdict.counterexample is not None
        live = verdict.live_counterexample
        assert live is not None
        assert live.lhs_result != live.rhs_result  # replay the witness

    def test_certify_is_prove_only(self):
        # certify() must answer quickly even for inequivalent inputs — it
        # never falls into the disprover.
        from repro.rules import get_rule
        rule = get_rule("bad_union_distinct")
        pipeline = Pipeline()
        assert pipeline.certify(rule.lhs, rule.rhs,
                                hyps=rule.hypotheses) is False
        verdict = pipeline.check(rule.lhs, rule.rhs, hyps=rule.hypotheses,
                                 prove_only=True)
        assert verdict.status is Status.UNKNOWN
        assert "disprover" not in verdict.timings
