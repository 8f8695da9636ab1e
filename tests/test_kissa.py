import random

import pytest

from mckp import (
    Correlation,
    GenSpec,
    Instance,
    InfeasibleInstanceError,
    KissaConfig,
    KissaRun,
    SelectionRule,
    Termination,
    bissa,
    certify,
    chebyshev_step,
    delta_bound,
    evaluate,
    generate,
    improvable_categories,
    is_feasible,
    kissa,
    pareto_filter,
)

from helpers import brute_optimum, kissa_full_resolve, random_instance


class TestImprovableCategories:
    def test_equal_selections_give_empty_set(self, appendix):
        assert improvable_categories(appendix, (0, 0), (0, 0)) == set()

    def test_appendix_pair(self, appendix):
        # profits (2, 2) against (3, 4): both categories strictly behind
        assert improvable_categories(appendix, (0, 1), (1, 0)) == {0, 1}

    def test_max_profit_components_cannot_improve(self, appendix):
        assert improvable_categories(appendix, (1, 0), (0, 1)) == set()


class TestChebyshevStep:
    def test_appendix_category_yields_anchor_item(self, appendix):
        # the augmented tie-break favors the anchor-side item (see the
        # frozen scalarization values in test_frontier)
        improving = chebyshev_step(appendix, (0, 0), (1, 0), rho=1e-7, epsilon=1e-4)
        assert improving == {0: 1}

    def test_profit_max_component_never_listed(self):
        inst = Instance((((9, 1), (4, 2)), ((1, 1), (2, 3))), budget=10.0)
        improving = chebyshev_step(inst, (0, 0), (0, 1), rho=1e-7, epsilon=1e-4)
        assert 0 not in improving

    def test_singleton_categories_no_candidates(self):
        inst = Instance((((3, 2),), ((4, 1),)), budget=10.0)
        assert improvable_categories(inst, (0, 0), (0, 0)) == set()
        assert chebyshev_step(inst, (0, 0), (0, 0), 1e-7, 1e-4) == {}


class TestKissaAppendix:
    def test_run(self, appendix):
        straddle = bissa(appendix)
        run = kissa(appendix, straddle)
        assert run.final == (0, 0)
        assert run.improvements == 0
        # the only candidate swap (category 0 to its anchor item) busts the budget
        assert run.termination is Termination.BUDGET_BLOCKED
        assert run.iterations[-1].gains == {0}
        assert run.iterations[-1].affordable == frozenset()
        assert certify(appendix, run, oracle_pareto_check=True) is True

    def test_budget_five_is_solved_by_bissa(self, appendix_b5):
        res = bissa(appendix_b5)
        assert res.exact
        assert evaluate(appendix_b5, res.xa).f1 == 7.0


class TestKissaContracts:
    def test_rejects_exact_straddle(self):
        inst = Instance((((1, 1), (2, 2)),), budget=10.0)
        res = bissa(inst)
        assert res.exact
        with pytest.raises(ValueError):
            kissa(inst, res)

    def test_certify_false_for_iteration_limit(self, appendix):
        run = KissaRun(final=(0, 0), termination=Termination.ITERATION_LIMIT)
        assert certify(appendix, run, oracle_pareto_check=True) is False

    def test_certify_false_without_oracle(self, appendix):
        straddle = bissa(appendix)
        run = kissa(appendix, straddle)
        assert certify(appendix, run, oracle_pareto_check=False) is False

    def test_certify_false_for_dominated_final(self, appendix):
        run = KissaRun(final=(1, 1), termination=Termination.NO_IMPROVEMENT)
        assert certify(appendix, run, oracle_pareto_check=True) is False

    def test_single_differing_category_limits_candidates(self):
        rng = random.Random(31)
        for _ in range(50):
            inst = random_instance(rng, max_m=3, max_n=4)
            try:
                straddle = bissa(inst)
            except InfeasibleInstanceError:
                continue
            if straddle.exact:
                continue
            diff = {j for j in range(inst.m) if straddle.xa[j] != straddle.xb[j]}
            assert improvable_categories(inst, straddle.xa, straddle.xb) <= diff


class TestKissaProperties:
    def _runs(self, seed, count, **kwargs):
        rng = random.Random(seed)
        produced = 0
        while produced < count:
            inst = random_instance(rng, **kwargs)
            try:
                straddle = bissa(inst)
            except InfeasibleInstanceError:
                continue
            if straddle.exact:
                continue
            produced += 1
            yield inst, straddle, kissa(inst, straddle)

    def test_feasibility_and_ascent(self):
        for inst, straddle, run in self._runs(101, 150):
            assert is_feasible(inst, run.final)
            start = evaluate(inst, straddle.xa).f1
            assert evaluate(inst, run.final).f1 >= start
            profits = [start]
            for it in run.iterations:
                if it.chosen is not None:
                    profits.append(it.objective.f1)
            assert all(a < b for a, b in zip(profits, profits[1:]))
            assert run.improvements == sum(
                1 for it in run.iterations if it.chosen is not None
            )
            assert run.termination in (
                Termination.NO_IMPROVEMENT,
                Termination.BUDGET_BLOCKED,
            )

    def test_components_stay_on_category_frontiers(self):
        for inst, _, run in self._runs(102, 100):
            for j, i in enumerate(run.final):
                assert i in pareto_filter(inst.categories[j], j).pareto_items

    def test_never_beats_the_oracle(self):
        for inst, straddle, run in self._runs(103, 150):
            best, _ = brute_optimum(inst)
            final = evaluate(inst, run.final).f1
            assert evaluate(inst, straddle.xa).f1 <= final <= best + 1e-9

    def test_iteration_records_are_nested_sets(self):
        for _, _, run in self._runs(104, 80):
            for it in run.iterations:
                assert it.affordable <= it.gains <= it.candidates
                if it.chosen is not None:
                    assert it.chosen in it.affordable


class TestSelectionRules:
    def test_rules_all_reach_feasible_no_worse_solutions(self):
        rng = random.Random(55)
        for _ in range(60):
            inst = random_instance(rng, max_m=4, max_n=5, max_coeff=30)
            try:
                straddle = bissa(inst)
            except InfeasibleInstanceError:
                continue
            if straddle.exact:
                continue
            start = evaluate(inst, straddle.xa).f1
            for rule in SelectionRule:
                run = kissa(inst, straddle, KissaConfig(rule=rule))
                assert is_feasible(inst, run.final)
                assert evaluate(inst, run.final).f1 >= start

    def test_rules_pick_different_swaps(self):
        # Both categories improve by their anchor item (cost gap exceeds
        # profit gap, so the augmentation favors the anchor side) and both
        # swaps are affordable from the straddle; the two hull segments share
        # one slope, so the bisection skips the intermediate selections and
        # leaves both categories improvable.
        inst = Instance(
            (
                ((1.0, 1.0), (2.0, 3.0)),
                ((1.0, 1.0), (5.0, 9.0)),
            ),
            budget=10.0,
        )
        straddle = bissa(inst)
        assert not straddle.exact
        assert straddle.xa == (0, 0) and straddle.xb == (1, 1)

        by_rule = {}
        for rule in SelectionRule:
            run = kissa(inst, straddle, KissaConfig(rule=rule))
            chosen = [it.chosen for it in run.iterations if it.chosen is not None]
            by_rule[rule] = (chosen, evaluate(inst, run.final).f1)
        assert by_rule[SelectionRule.MAX_PROFIT][0][0] == 1  # +4 beats +1
        assert by_rule[SelectionRule.MAX_PROFIT][1] == 6.0
        assert by_rule[SelectionRule.FIRST][0][0] == 0
        assert by_rule[SelectionRule.FIRST][1] == 3.0
        assert by_rule[SelectionRule.BEST_SLACK][0][0] == 0  # +2 cost beats +8
        assert by_rule[SelectionRule.BEST_SLACK][1] == 3.0


class TestRhoClipping:
    def test_kissa_uses_clipped_rho(self):
        # a category with a tiny trade-off ratio forces rho below the default
        inst = Instance(
            (
                ((1.0, 1.0), (1000.0, 1000.0 + 1e-3)),
                ((1.0, 1.0), (2.0, 2.0)),
            ),
            budget=2000.0,
        )
        bound = delta_bound(inst, rho=1e-7)
        assert bound.rho <= bound.delta / 2


class TestFractionalBudget:
    def test_returned_selection_passes_is_feasible(self):
        # The budget is the cost of selection (1, 1, 0) summed last category
        # first; summed in category order the same costs exceed it by one ulp.
        # An incremental cost - old + new check accepts that selection.
        inst = Instance(
            (
                ((4.3, 8.5), (4.5, 2.3)),
                ((2.4, 7.4), (9.9, 8.8), (0.5, 2.6)),
                ((3.0, 1.4),),
            ),
            budget=1.4 + 8.8 + 2.3,
        )
        straddle = bissa(inst)
        assert not straddle.exact
        assert not is_feasible(inst, kissa_full_resolve(inst, straddle).final)
        run = kissa(inst, straddle)
        assert is_feasible(inst, run.final)
        assert evaluate(inst, run.final).f1 >= evaluate(inst, straddle.xa).f1


class TestIncrementalMatchesFullResolve:
    @pytest.mark.parametrize("correlation", list(Correlation))
    def test_records_equal_on_generated_families(self, correlation):
        rng = random.Random(f"kissa-differential:{correlation.value}")
        compared = 0
        longest = 0
        while compared < 12:
            spec = GenSpec(
                m=rng.randint(2, 40),
                n=rng.randint(2, 200),
                correlation=correlation,
                seed=rng.getrandbits(32),
                budget_ratio=rng.uniform(0.3, 0.7),
            )
            inst = generate(spec)
            straddle = bissa(inst)
            if straddle.exact:
                continue
            compared += 1
            for rule in SelectionRule:
                for limit in (10_000, 2):
                    config = KissaConfig(rule=rule, max_iterations=limit)
                    run = kissa(inst, straddle, config)
                    assert run == kissa_full_resolve(inst, straddle, config), (spec, config)
                    longest = max(longest, len(run.iterations))
        if correlation is Correlation.WEAK:
            assert longest >= 10  # the comparison covers long swap sequences

    def test_records_equal_on_small_random_instances(self):
        rng = random.Random(57)
        compared = 0
        while compared < 150:
            inst = random_instance(rng, max_m=5, max_n=6, max_coeff=20)
            try:
                straddle = bissa(inst)
            except InfeasibleInstanceError:
                continue
            if straddle.exact:
                continue
            compared += 1
            for rule in SelectionRule:
                config = KissaConfig(rule=rule)
                assert kissa(inst, straddle, config) == kissa_full_resolve(
                    inst, straddle, config
                )
