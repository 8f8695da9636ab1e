import importlib
import math
import random
import sys
import time

import numpy as np
import pytest

from mckp import (
    Correlation,
    GenSpec,
    Instance,
    InfeasibleInstanceError,
    InvalidSelectionError,
    KissaConfig,
    KissaRun,
    SelectionRule,
    Termination,
    bissa,
    brute_force,
    certify,
    delta_bound,
    evaluate,
    generate,
    improvable_categories,
    is_feasible,
    kissa,
    pareto_filter,
)
from mckp.bissa import BissaResult, ObjectiveOverflowError
from mckp.kissa import _select
from mckp.model import exact_cost_sums
from mckp.oracle import ENUMERATION_LIMIT

from helpers import (
    brute_optimum, dominated_straddle, kissa_full_resolve, random_instance, tied_swap_instance,
)

# ``mckp.kissa`` is the function once the package is imported; the module
# holds the names its loop looks up.
kissa_module = importlib.import_module("mckp.kissa")


class TestImprovableCategories:
    def test_equal_selections_give_empty_set(self, appendix):
        assert improvable_categories(appendix, (0, 0), (0, 0)) == set()

    def test_appendix_pair(self, appendix):
        # profits (2, 2) against (3, 4): both categories strictly behind
        assert improvable_categories(appendix, (0, 1), (1, 0)) == {0, 1}

    def test_max_profit_components_cannot_improve(self, appendix):
        assert improvable_categories(appendix, (1, 0), (0, 1)) == set()

    def test_singleton_categories_no_candidates(self):
        inst = Instance((((3, 2),), ((4, 1),)), budget=10.0)
        assert improvable_categories(inst, (0, 0), (0, 0)) == set()

    @pytest.mark.parametrize(
        "xa, xb, message",
        [
            ((0,), (1, 1), "selection has 1 components, instance has 2 categories"),
            ((0, 0), (1, 1, 1), "selection has 3 components, instance has 2 categories"),
            # -1 would read the last item of category 0
            ((0, 0), (1, -1), "component 1 is -1, valid range is \\[0, 2\\)"),
            ((0, 2), (1, 1), "component 1 is 2, valid range is \\[0, 2\\)"),
        ],
    )
    def test_refuses_a_selection_that_does_not_fit(self, xa, xb, message):
        inst = Instance([[(1, 1), (2, 2)], [(1, 1), (3, 3)]], 4)
        with pytest.raises(InvalidSelectionError, match=message):
            improvable_categories(inst, xa, xb)


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
        assert certify(appendix, run) is True

    def test_budget_five_is_solved_by_bissa(self, appendix_b5):
        res = bissa(appendix_b5)
        assert res.exact
        assert evaluate(appendix_b5, res.xa).f1 == 7.0


class TestKissaContracts:
    @pytest.mark.parametrize(
        "inst, termination",
        [
            (Instance((((1, 1), (2, 2)),), budget=10.0), Termination.MAX_PROFIT_FEASIBLE),
            (Instance((((1, 1), (5, 4)), ((2, 2), (6, 7))), budget=6.0), Termination.ZERO_SLACK),
        ],
        ids=["max-profit-feasible", "zero-slack"],
    )
    def test_exact_straddle_returns_its_certificate(self, inst, termination, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("an exact straddle needs no subproblem")

        monkeypatch.setattr(kissa_module, "delta_bound", unreachable)
        monkeypatch.setattr(kissa_module, "solve_chebyshev_subproblem", unreachable)
        straddle = bissa(inst)
        assert straddle.exact
        assert kissa(inst, straddle) == KissaRun(final=straddle.xa, termination=termination)

    @pytest.mark.parametrize("rule", ["max-profit", "bogus", None])
    def test_config_refuses_a_rule_that_is_no_selection_rule(self, rule):
        # a rule's value is no rule: _select would run any non-member as "first"
        with pytest.raises(TypeError, match="SelectionRule"):
            KissaConfig(rule=rule)

    def test_certify_false_for_dominated_final(self, appendix):
        run = KissaRun(final=(1, 1), termination=Termination.NO_IMPROVEMENT)
        assert certify(appendix, run) is False

    def test_certify_false_beyond_enumeration_guard(self):
        # 7^6 selections exceed ENUMERATION_LIMIT. All items are equal, so no
        # selection dominates the final one: only the guard makes this False.
        inst = Instance(tuple(((1, 1),) * 7 for _ in range(6)), budget=100.0)
        assert math.prod(inst.sizes) > ENUMERATION_LIMIT
        run = KissaRun(final=(0,) * 6, termination=Termination.NO_IMPROVEMENT)
        assert certify(inst, run) is False

    def test_certificate_implies_brute_force_optimum(self):
        inst = generate(GenSpec(m=3, n=4, correlation=Correlation.UNCORRELATED, seed=0))
        straddle = bissa(inst)
        assert not straddle.exact
        run = kissa(inst, straddle)
        if certify(inst, run):
            assert evaluate(inst, run.final).f1 == brute_force(inst).optimum_profit

    def test_certificate_implies_brute_force_optimum_on_small_instances(self):
        certified = 0
        for correlation in Correlation:
            for m in range(2, 7):
                for n in range(2, 7):
                    for seed in range(3):
                        inst = generate(GenSpec(m=m, n=n, correlation=correlation, seed=seed))
                        straddle = bissa(inst)
                        if straddle.exact:
                            continue
                        run = kissa(inst, straddle)
                        if certify(inst, run):
                            certified += 1
                            want = brute_force(inst).optimum_profit
                            assert evaluate(inst, run.final).f1 == want
        assert certified > 0

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
                assert i in pareto_filter(inst.categories[j])

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


class TestSelectTies:
    """``_select`` breaks an equal rise to the lowest category under each rule."""

    # Categories 1 and 2 rise by (2, 3) from item 0 to item 1, category 0
    # by (1, 3) and category 3 by (2, 4).
    INST = Instance(
        (
            ((1.0, 1.0), (2.0, 4.0)),
            ((1.0, 1.0), (3.0, 4.0)),
            ((1.0, 1.0), (3.0, 4.0)),
            ((1.0, 1.0), (3.0, 5.0)),
        ),
        budget=100.0,
    )

    def select(self, affordable, rule):
        cats = self.INST.categories
        current = {j: cat[0] for j, cat in enumerate(cats)}
        improving = {j: (1, cat[1]) for j, cat in enumerate(cats)}
        return _select(current, improving, frozenset(affordable), rule)

    def test_max_profit(self):
        assert self.select({1, 2, 3}, SelectionRule.MAX_PROFIT) == 1
        assert self.select({3, 2, 1}, SelectionRule.MAX_PROFIT) == 1
        assert self.select({0, 2, 3}, SelectionRule.MAX_PROFIT) == 2
        assert self.select({0}, SelectionRule.MAX_PROFIT) == 0

    def test_best_slack(self):
        assert self.select({0, 1, 2}, SelectionRule.BEST_SLACK) == 0
        assert self.select({1, 2, 3}, SelectionRule.BEST_SLACK) == 1
        assert self.select({2, 3}, SelectionRule.BEST_SLACK) == 2

    def test_first(self):
        assert self.select({3, 2, 1}, SelectionRule.FIRST) == 1


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


class TestAbsorbedEpsilon:
    """Where max + epsilon rounds back to a category maximum, the reference
    point takes the next float up, so it still strictly dominates."""

    @staticmethod
    def assert_improves_on_bissa(inst, config):
        straddle = bissa(inst)
        assert not straddle.exact
        run = kissa(inst, straddle, config)
        assert is_feasible(inst, run.final)
        assert evaluate(inst, run.final).f1 >= evaluate(inst, straddle.xa).f1
        assert run == kissa_full_resolve(inst, straddle, config)

    def test_eps_below_half_an_ulp_of_the_maxima(self):
        inst = generate(GenSpec(m=6, n=8, correlation=Correlation.WEAK, seed=3))
        top = max(item.profit for item in inst.categories[0])
        assert top + 1e-20 == top
        self.assert_improves_on_bissa(inst, KissaConfig(epsilon=1e-20))

    def test_default_eps_below_half_an_ulp_of_scaled_profits(self):
        base = generate(
            GenSpec(m=6, n=8, correlation=Correlation.UNCORRELATED, seed=3, budget_ratio=0.4)
        )
        for scale in (2**30, 2**40):
            inst = Instance(
                tuple(tuple((p * scale, c) for p, c in cat) for cat in base.categories),
                base.budget,
            )
            self.assert_improves_on_bissa(inst, KissaConfig())

    # four candidates solved in the first pass, then seven re-solves
    RESOLVED = GenSpec(m=6, n=100, correlation=Correlation.WEAK, seed=6, budget_ratio=0.5)

    @staticmethod
    def record_subproblems(monkeypatch):
        """Lists of every subproblem KISSA solves, as (source, rows,
        reference), and of the (view, categories) of each first pass. A
        category of the first pass gives the rows of its segment of the
        view, most profitable first, and a re-solve the rows it is given."""
        calls, passes = [], []
        solve = kissa_module.solve_chebyshev_subproblem
        winners = kissa_module.chebyshev_winners

        def recording_solve(cat, weights, reference, rho):
            calls.append(("re-solve", cat, reference))
            return solve(cat, weights, reference, rho)

        def recording_pass(view, categories, weights, references, rho):
            passes.append((view, np.asarray(categories).tolist()))
            for k, j in enumerate(passes[-1][1]):
                a, b = view.starts[j], view.starts[j + 1]
                rows = np.column_stack((view.profit[a:b], view.cost[a:b]))[::-1]
                calls.append(("first", rows, (references[0][k], references[1][k])))
            return winners(view, categories, weights, references, rho)

        monkeypatch.setattr(kissa_module, "solve_chebyshev_subproblem", recording_solve)
        monkeypatch.setattr(kissa_module, "chebyshev_winners", recording_pass)
        return calls, passes

    def test_unabsorbed_shift_keeps_max_plus_epsilon(self, monkeypatch):
        # the reference of every solved subproblem is exactly max + epsilon,
        # in the first pass and in each re-solve
        references, _ = self.record_subproblems(monkeypatch)
        inst = generate(self.RESOLVED)
        kissa(inst, bissa(inst), KissaConfig(epsilon=1e-3))
        assert references
        assert {source for source, _, _ in references} == {"first", "re-solve"}
        for _, cat, (ref1, ref2) in references:
            assert ref1 == max(profit for profit, _ in cat) + 1e-3
            assert ref2 == max(-cost for _, cost in cat) + 1e-3

    def test_subproblems_read_reversed_slices_of_the_view(self, monkeypatch):
        # each candidate's frontier rows, most profitable first: the first
        # pass reads them in the view itself, and a re-solve gets them as an
        # array view rather than a copied list
        calls, passes = self.record_subproblems(monkeypatch)
        inst = generate(self.RESOLVED)
        kissa(inst, bissa(inst))
        frontiers = [[tuple(cat[i]) for i in reversed(pareto_filter(cat))] for cat in inst.categories]
        seen = [cat for source, cat, _ in calls if source == "re-solve"]
        assert seen
        for cat in seen:
            assert isinstance(cat, np.ndarray) and cat.base is not None
            assert list(map(tuple, cat.tolist())) in frontiers
        [(view, categories)] = passes
        assert view is inst.frontier_view and categories == [0, 1, 2, 3]
        first = [rows for source, rows, _ in calls if source == "first"]
        assert [list(map(tuple, rows.tolist())) for rows in first] == [frontiers[j] for j in categories]


class TestExtremeCoefficients:
    """Coefficients at the float edges: past 2**53, subnormal, near overflow."""

    VALUES = (0.0, 1.0, 2.0, 2.0**52, 2.0**53, 2.0**60, 1e-300, 5e-324, 1e300)

    def test_solves_finish_and_certificates_prove_the_optimum(self):
        rng = random.Random(59)
        for _ in range(2000):
            v = self.VALUES
            cats = [
                [(rng.choice(v), rng.choice(v)) for _ in range(rng.randint(1, 3))]
                for _ in range(rng.randint(1, 3))
            ]
            unit = Instance(cats, 1.0)

            def total_cost(pick):  # of the cheapest or costliest selection
                sel = tuple(pick(range(len(cat)), key=lambda i: cat[i][1]) for cat in cats)
                return -evaluate(unit, sel).f2

            low, high = total_cost(min), total_cost(max)
            for budget in {low, (low + high) / 2, high} - {0.0}:
                inst = Instance(cats, budget)
                straddle = bissa(inst)
                run = kissa(inst, straddle)
                if straddle.exact or certify(inst, run):
                    assert evaluate(inst, run.final).f1 == brute_force(inst).optimum_profit

    def test_overflowing_sums_are_refused_or_solved(self):
        # With 1e308 and the float maximum among the values, a bisection
        # weight or a reference point used to overflow ("weight must lie in
        # [0, 1]", "weights must be strictly positive"); bissa now refuses
        # those instances at its first probe, and every other one solves.
        values = self.VALUES + (1e308, sys.float_info.max)
        rng = random.Random(62)
        outcomes = {"refused": 0, "solved": 0}
        for _ in range(2000):
            cats = [
                [(rng.choice(values), rng.choice(values)) for _ in range(rng.randint(1, 3))]
                for _ in range(rng.randint(1, 3))
            ]
            costs = [sorted(c for _, c in cat) for cat in cats]
            low, high = sum(c[0] for c in costs), sum(c[-1] for c in costs)
            for budget in {low, (low + high) / 2, high} - {0.0, math.inf}:
                inst = Instance(cats, budget)
                try:
                    straddle = bissa(inst)
                except ObjectiveOverflowError:
                    outcomes["refused"] += 1
                    continue
                run = kissa(inst, straddle)
                assert is_feasible(inst, run.final)
                if straddle.exact or certify(inst, run):
                    assert evaluate(inst, run.final).f1 == brute_force(inst).optimum_profit
                outcomes["solved"] += 1
        assert min(outcomes.values()) > 500, outcomes


class TestEpsilonOverflow:
    """An epsilon that pushes a reference point, the second weight's gap
    (the anchor's own, on the frontier or not) or the sum of an item's two
    gaps past the float range is refused before any iteration, by name."""

    # BISSA accepts it: twice the max-profit probe's sums stay finite.
    CATS = [[(0, 1), (1e307, 2)], [(0, 1), (1e307, 2)]]

    def test_reference_point_past_the_float_range(self):
        inst = Instance(self.CATS, 3)
        with pytest.raises(ObjectiveOverflowError, match="epsilon 1.7e\\+308"):
            kissa(inst, bissa(inst), KissaConfig(epsilon=1.7e308))

    def test_anchor_cost_gap_past_the_float_range(self):
        # The reference point is finite, but its cost coordinate plus the
        # anchor's cost is not, so the second weight would be 0.
        inst = Instance([[(0, 0), (1, 5e307)]], 1)
        with pytest.raises(ObjectiveOverflowError, match="epsilon"):
            kissa(inst, bissa(inst), KissaConfig(epsilon=1.7e308))

    def test_gap_sum_past_the_float_range(self):
        # The reference point and the second weight are finite, but an
        # item's two gaps sum past the float range, so every Chebyshev
        # value would be inf and the subproblem would compare none.
        inst = Instance(self.CATS, 3)
        with pytest.raises(ObjectiveOverflowError, match="epsilon 1e\\+308 puts category 0's"):
            kissa(inst, bissa(inst), KissaConfig(epsilon=1e308))

    def test_dominated_anchor_cost_gap_past_the_float_range(self):
        # A hand-built straddle anchored on a dominated item costlier than
        # the frontier's largest cost: every frontier gap is finite, but the
        # anchor's cost gap is not, so the second weight would be 0.
        inst = Instance([[(0, 0), (1, 5e307), (1, 1.7e308)], [(0, 0)]], 1)
        straddle = BissaResult(xa=(0, 0), xb=(2, 0), certificate=None, trace=[])
        with pytest.raises(
            ObjectiveOverflowError, match="epsilon 1e\\+307 puts category 0's anchor cost gap"
        ):
            kissa(inst, straddle, KissaConfig(epsilon=1e307))

    @pytest.mark.parametrize(
        "cat3, cat8, epsilon, message",
        [
            (CATS[0], CATS[0], 1e308, "category 3's Chebyshev values"),
            (
                [(0, 0), (1, 5e307), (1, 1.7e308)], [(0, 0), (1.7e308, 1.7e308)], 1e307,
                "category 3's anchor cost gap",
            ),
        ],
    )
    def test_names_the_lowest_overflowing_category(self, cat3, cat8, epsilon, message):
        # Categories 3 and 8 both overflow, and a set of the two lists 8
        # first. Category 3 fails on its gap sum in the first case; in the
        # second it fails on its anchor's cost gap (the anchor its costliest,
        # dominated item) and category 8 on its gap sum.
        assert list({3, 8}) == [8, 3]
        cats = [[(0, 0)]] * 9
        cats[3], cats[8] = cat3, cat8
        xb = [0] * 9
        xb[3], xb[8] = len(cat3) - 1, 1
        straddle = BissaResult(xa=(0,) * 9, xb=tuple(xb), certificate=None, trace=[])
        with pytest.raises(ObjectiveOverflowError, match=message):
            kissa(Instance(cats, 3), straddle, KissaConfig(epsilon=epsilon))

    def test_largest_epsilon_that_fits_still_solves(self):
        # The two items score 0.9999999999999999 and 1.0: a comparison, not
        # the tie rule, picks the winner.
        inst = Instance(self.CATS, 3)
        run = kissa(inst, bissa(inst), KissaConfig(epsilon=5e307))
        assert evaluate(inst, run.final).f1 == 1e307 == brute_force(inst).optimum_profit


class TestObjectiveBits:
    """Each iteration's objective has the bits of :func:`evaluate` on that
    iteration's selection: a swap moves it in O(1) where the frontier cost
    sums are exact and the profits lie on a grid (``model.profit_grid``),
    and ``evaluate`` sums it again elsewhere."""

    @staticmethod
    def evaluations(monkeypatch, inst, straddle=None):
        """Run KISSA from ``straddle`` (by default ``bissa(inst)``) under
        every rule, replay each run's swaps and check every objective against
        :func:`evaluate` by ``float.hex``; the number of ``evaluate`` calls
        KISSA made, and of its swaps."""
        swaps, calls = [], []
        select, real = kissa_module._select, kissa_module.evaluate

        def recording_select(current, improving, affordable, rule):
            chosen = select(current, improving, affordable, rule)
            swaps.append((chosen, improving[chosen][0]))
            return chosen

        def counting(instance, sel):
            calls.append(sel)
            return real(instance, sel)

        monkeypatch.setattr(kissa_module, "_select", recording_select)
        monkeypatch.setattr(kissa_module, "evaluate", counting)
        straddle = straddle or bissa(inst)
        improvements = 0
        for rule in SelectionRule:
            run = kissa(inst, straddle, KissaConfig(rule=rule))
            sel = list(straddle.xa)
            for it in run.iterations:
                if it.chosen is not None:
                    j, i = swaps.pop(0)
                    assert j == it.chosen
                    sel[j] = i
                want = real(inst, tuple(sel))
                assert (it.objective.f1.hex(), it.objective.f2.hex()) == (
                    want.f1.hex(), want.f2.hex()
                ), (inst, rule, it.index)
            assert not swaps and tuple(sel) == run.final
            improvements += run.improvements
        return len(calls), improvements

    def test_generated_integer_families_move_in_o1(self, monkeypatch):
        # uncorrelated instances rarely swap, weakly correlated ones often
        rng = random.Random("kissa-objective")
        swaps = 0
        for correlation in Correlation:
            for _ in range(10):
                spec = GenSpec(
                    m=rng.randint(2, 40), n=rng.randint(2, 200), correlation=correlation,
                    seed=rng.getrandbits(32), budget_ratio=rng.uniform(0.3, 0.7),
                )
                calls, improvements = self.evaluations(monkeypatch, generate(spec))
                assert calls == 0
                swaps += improvements
        assert swaps > 50

    @staticmethod
    def with_top_profit_sum(base: Instance, total: int) -> Instance:
        """``base`` with one more category, of one item of cost 0, whose
        profit puts the sum of every category's largest profit at ``total``."""
        tops = sum(max(item.profit for item in cat) for cat in base.categories)
        return Instance((*base.categories, ((total - tops, 0),)), base.budget)

    def test_largest_profits_summing_to_2_pow_53_evaluate_each_swap(self, monkeypatch):
        base = generate(TestAbsorbedEpsilon.RESOLVED)
        below = self.with_top_profit_sum(base, 2**53 - 1)
        assert self.evaluations(monkeypatch, below)[0] == 0
        at = self.with_top_profit_sum(base, 2**53)
        calls, improvements = self.evaluations(monkeypatch, at)
        assert calls == improvements > 0

    def test_profit_sums_past_2_pow_53_evaluate_each_swap(self, monkeypatch):
        # the profit sums round, and the fallback keeps evaluate's bits
        base = generate(TestAbsorbedEpsilon.RESOLVED)
        inst = Instance.from_flat(base.profits * (2**52 + 1), base.costs, base.starts, base.budget)
        calls, improvements = self.evaluations(monkeypatch, inst)
        assert calls == improvements > 0

    @pytest.mark.parametrize("power", [-4, 30, 45, 60])
    def test_profits_times_a_power_of_two_move_in_o1(self, monkeypatch, power):
        # past 2**53 too, the sums are exact in units of the grid 2**power
        base = generate(TestAbsorbedEpsilon.RESOLVED)
        inst = Instance.from_flat(base.profits * 2.0**power, base.costs, base.starts, base.budget)
        calls, improvements = self.evaluations(monkeypatch, inst)
        assert calls == 0 and improvements > 0

    @pytest.mark.parametrize("profit_unit, cost_unit", [(10, 10), (10, 1), (1, 10)])
    def test_fractional_coefficients(self, monkeypatch, profit_unit, cost_unit):
        # coefficients in tenths: integral costs keep the swap check O(1),
        # and integral profits alone do not make the point's sums exact
        rng = random.Random(65)
        swaps = 0
        checks = []
        real = kissa_module.is_feasible

        def counting(instance, sel):
            checks.append(sel)
            return real(instance, sel)

        monkeypatch.setattr(kissa_module, "is_feasible", counting)
        for _ in range(300):
            cats = [
                [(rng.randint(0, 99) / profit_unit, rng.randint(0, 99) / cost_unit)
                 for _ in range(rng.randint(2, 6))]
                for _ in range(rng.randint(2, 6))
            ]
            low = sum(min(c for _, c in cat) for cat in cats)
            high = sum(max(c for _, c in cat) for cat in cats)
            inst = Instance(cats, max((low + high) / 2, 1))
            try:
                calls, improvements = self.evaluations(monkeypatch, inst)
            except InfeasibleInstanceError:
                continue
            assert calls == improvements
            swaps += improvements
        assert swaps > 20
        assert bool(checks) == (cost_unit != 1)

    def test_negative_zero_coefficients(self, monkeypatch):
        # -0.0 is an integer: the O(1) path runs and keeps evaluate's +0.0
        rng = random.Random(66)
        swaps = 0
        for _ in range(400):
            base = random_instance(rng, max_m=5, max_n=6, max_coeff=3)
            inst = Instance(
                tuple(tuple((p or -0.0, c or -0.0) for p, c in cat) for cat in base.categories),
                base.budget,
            )
            try:
                calls, improvements = self.evaluations(monkeypatch, inst)
            except InfeasibleInstanceError:
                continue
            assert calls == 0
            swaps += improvements
        assert swaps > 20


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
            # every swap raises its category's profit, which bounds the run
            bound = sum(len({item.profit for item in cat}) - 1 for cat in inst.categories)
            for rule in SelectionRule:
                config = KissaConfig(rule=rule)
                run = kissa(inst, straddle, config)
                assert run == kissa_full_resolve(inst, straddle, config), (spec, rule)
                assert run.improvements == len(run.iterations) - 1 <= bound
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
            bound = sum(len({item.profit for item in cat}) - 1 for cat in inst.categories)
            for rule in SelectionRule:
                config = KissaConfig(rule=rule)
                run = kissa(inst, straddle, config)
                assert run == kissa_full_resolve(inst, straddle, config)
                assert run.improvements == len(run.iterations) - 1 <= bound


def subset_sum_instance(rng: random.Random, m: int, n: int) -> Instance:
    """Profit equal to cost, costs uniform in 1-1000, and the budget at the
    midpoint between the cheapest and the costliest selection: every
    category lies on one line, so KISSA swaps about once per category."""
    cats = [[(c, c) for c in (rng.randint(1, 1000) for _ in range(n))] for _ in range(m)]
    low = sum(min(c for _, c in cat) for cat in cats)
    high = sum(max(c for _, c in cat) for cat in cats)
    return Instance(cats, (low + high) / 2)


class TestSwapCheck:
    """Where ``exact_cost_sums`` holds, KISSA judges a swap by the O(1)
    ``cost - old + new <= budget``; elsewhere it calls ``is_feasible`` on the
    swapped selection. On integer instances both give the same records."""

    @staticmethod
    def assert_paths_agree(monkeypatch, inst, straddle):
        assert exact_cost_sums(inst)
        checks = []
        real = kissa_module.is_feasible

        def counting(instance, sel):
            checks.append(sel)
            return real(instance, sel)

        monkeypatch.setattr(kissa_module, "is_feasible", counting)
        configs = [KissaConfig(rule=rule) for rule in SelectionRule]
        direct = [kissa(inst, straddle, config) for config in configs]
        assert not checks
        with monkeypatch.context() as patch:
            patch.setattr(kissa_module, "exact_cost_sums", lambda instance: False)
            summed = [kissa(inst, straddle, config) for config in configs]
        # only an improving category reaches the check
        assert bool(checks) == any(it.gains for run in direct for it in run.iterations)
        assert direct == summed

    @pytest.mark.parametrize("correlation", list(Correlation))
    def test_paths_agree_on_generated_families(self, monkeypatch, correlation):
        rng = random.Random(f"kissa-swap-check:{correlation.value}")
        compared = 0
        while compared < 8:
            spec = GenSpec(
                m=rng.randint(2, 40),
                n=rng.randint(2, 200),
                correlation=correlation,
                seed=rng.getrandbits(32),
                budget_ratio=rng.uniform(0.3, 0.7),
            )
            inst = generate(spec)
            straddle = bissa(inst)
            if not straddle.exact:
                self.assert_paths_agree(monkeypatch, inst, straddle)
                compared += 1

    def test_paths_agree_on_small_random_instances(self, monkeypatch):
        rng = random.Random(64)
        compared = 0
        while compared < 150:
            inst = random_instance(rng, max_m=5, max_n=6, max_coeff=20)
            try:
                straddle = bissa(inst)
            except InfeasibleInstanceError:
                continue
            if not straddle.exact:
                self.assert_paths_agree(monkeypatch, inst, straddle)
                compared += 1

    def test_subset_sum_500_by_10_under_two_seconds(self):
        # Each swap's check used to re-sum the categories after it, which
        # made KISSA cubic in m here: about 5 s for this instance.
        inst = subset_sum_instance(random.Random(63), 500, 10)
        start = time.perf_counter()
        run = kissa(inst, bissa(inst))
        elapsed = time.perf_counter() - start
        assert len(run.iterations) > 400
        assert is_feasible(inst, run.final)
        assert elapsed < 2.0


class TestDominatedFeasibleEnd:
    """A hand-built straddle may put its feasible end on dominated items,
    which ``exact_cost_sums`` and ``profit_grid`` do not cover. KISSA then
    checks each swap with ``is_feasible`` and evaluates each point again,
    so its runs equal those with ``exact_cost_sums`` patched to False."""

    @staticmethod
    def assert_fits_as_on_the_slow_path(monkeypatch, inst, straddle):
        """The runs under every rule; each final selection fits, and each run
        equals the one made with ``exact_cost_sums`` patched to False."""
        configs = [KissaConfig(rule=rule) for rule in SelectionRule]
        runs = [kissa(inst, straddle, config) for config in configs]
        with monkeypatch.context() as patch:
            patch.setattr(kissa_module, "exact_cost_sums", lambda instance: False)
            assert runs == [kissa(inst, straddle, config) for config in configs]
        assert all(is_feasible(inst, run.final) for run in runs), (inst, straddle)
        return runs

    def test_dominated_items_of_fractional_cost(self, monkeypatch):
        # The frontier costs are integers, so exact_cost_sums holds, but xa
        # holds four dominated items of fractional cost. From (3, 2, 3, 1),
        # cost - old + new puts the swap to (3, 1, 3, 1) at 13.1, the budget,
        # but that selection costs 13.100000000000001.
        inst = Instance(
            [[(5, 5), (5, 1), (9, 0), (9, 0.05)], [(0, 4), (5, 9), (0, 4.01)],
             [(8, 6), (0, 1), (3, 8), (0, 1.05)], [(9, 4), (2, 3), (1, 3.1)]],
            13.1,
        )
        assert exact_cost_sums(inst)
        straddle = BissaResult(xa=(3, 2, 3, 2), xb=(2, 1, 0, 0), certificate=None, trace=[])
        for run in self.assert_fits_as_on_the_slow_path(monkeypatch, inst, straddle):
            assert run.final == (3, 2, 3, 1)
            assert evaluate(inst, run.final) == (11, -8.11)
            assert run.termination is Termination.BUDGET_BLOCKED

    def test_drawn_straddles(self, monkeypatch):
        # integer items, so exact_cost_sums holds; the added dominated items
        # carry fractional costs or profits, and xa sits on them
        rng = random.Random(1)
        drawn = swaps = 0
        while drawn < 600:
            cats = [
                [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(rng.randint(1, 4))]
                for _ in range(rng.randint(2, 5))
            ]
            pair = dominated_straddle(rng, cats)
            if pair is None:
                continue
            drawn += 1
            inst, straddle = pair
            with monkeypatch.context() as patch:
                calls, improvements = TestObjectiveBits.evaluations(patch, inst, straddle)
            self.assert_fits_as_on_the_slow_path(monkeypatch, inst, straddle)
            assert calls == improvements
            swaps += improvements
        assert swaps > 1000


def shuffled(rng: random.Random, inst: Instance) -> Instance:
    """``inst`` with the items of each category in a random order."""
    return Instance([rng.sample(cat, len(cat)) for cat in inst.categories], inst.budget)


class TestItemOrder:
    """KISSA ties go to the most profitable item, so a run depends only on
    each category's items, not on their order."""

    @pytest.mark.parametrize("order", ["up", "down"])
    def test_tie_goes_to_the_more_profitable_item(self, order):
        inst = tied_swap_instance(order)
        run = kissa(inst, bissa(inst))
        assert brute_force(inst).optimum_profit == 1
        assert evaluate(inst, run.final).f1 == 1
        assert run.improvements == 1
        assert run.termination is Termination.BUDGET_BLOCKED
        assert certify(inst, run)

    @staticmethod
    def outcome(inst, rule):
        run = kissa(inst, bissa(inst), KissaConfig(rule=rule))
        items = tuple(inst.categories[j][i] for j, i in enumerate(run.final))
        return evaluate(inst, run.final), items, run.improvements, run.termination, run.iterations

    def assert_order_free(self, rng, inst, shuffles):
        for rule in SelectionRule:
            want = self.outcome(inst, rule)
            for _ in range(shuffles):
                assert self.outcome(shuffled(rng, inst), rule) == want, (inst, rule)

    def test_tied_swap_under_shuffles(self):
        rng = random.Random(60)
        for order in ("up", "down"):
            self.assert_order_free(rng, tied_swap_instance(order), 2)

    def test_shuffles_of_small_instances(self):
        rng = random.Random(61)
        compared = 0
        while compared < 500:
            inst = random_instance(rng, max_m=5, max_n=6, max_coeff=9)
            try:
                straddle = bissa(inst)
            except InfeasibleInstanceError:
                continue
            if straddle.exact:
                continue
            compared += 1
            self.assert_order_free(rng, inst, 3)

    @pytest.mark.parametrize("correlation", list(Correlation))
    def test_shuffles_of_generated_instances(self, correlation):
        rng = random.Random(f"kissa-order:{correlation.value}")
        for seed in range(6):
            spec = GenSpec(m=8, n=12, correlation=correlation, seed=seed, budget_ratio=0.5)
            self.assert_order_free(rng, generate(spec), 2)

