import itertools
import math
import random
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckp import (
    bissa,
    certify,
    Correlation,
    ExactResult,
    GenSpec,
    InfeasibleInstanceError,
    Instance,
    InvalidSelectionError,
    KissaRun,
    Method,
    NonIntegerInstanceError,
    OracleGuardError,
    brute_force,
    dp_solve,
    evaluate,
    generate,
    is_feasible,
    kissa,
    pareto_enumerate,
    pareto_filter,
    Termination,
)
from mckp import oracle
from mckp.model import MCKPError, profit_grid
from mckp.oracle import MEMORY_LIMIT_BYTES, dominated_in_product

from helpers import (
    brute_optimum,
    deep_instance,
    dp_solve_full_width,
    dp_solve_two_rounds,
    enumerate_images,
    lp_relaxation_by_loop,
    pareto_rows,
    pareto_selections_by_scan,
    random_instance,
    table_by_masked_copy,
    upper_hull_by_loop,
    walk_gap_instance,
)


def integer_instance(rng, max_m=6, max_n=6, max_cost=20, max_profit=50):
    m = rng.randint(1, max_m)
    cats = tuple(
        tuple(
            (float(rng.randint(0, max_profit)), float(rng.randint(1, max_cost)))
            for _ in range(rng.randint(1, max_n))
        )
        for _ in range(m)
    )
    low = sum(min(c for _, c in cat) for cat in cats)
    high = sum(max(c for _, c in cat) for cat in cats)
    budget = float(rng.randint(int(low), max(int(low), int((low + high) // 2))))
    return Instance(cats, max(budget, 1.0))


class TestBruteForce:
    def test_appendix_budget_four(self, appendix):
        result = brute_force(appendix)
        assert result.optimum_selection == (0, 0)
        assert result.optimum_profit == 6.0
        assert result.method is Method.BRUTE

    def test_appendix_budget_five(self, appendix_b5):
        result = brute_force(appendix_b5)
        assert result.optimum_selection == (1, 0)
        assert result.optimum_profit == 7.0

    def test_infeasible(self):
        inst = Instance((((1, 5), (1, 6)),), budget=4.0)
        with pytest.raises(InfeasibleInstanceError):
            brute_force(inst)

    def test_guard(self):
        inst = Instance(tuple(((1, 1),) * 10 for _ in range(8)), budget=100.0)
        assert math.prod(inst.sizes) == 10**8
        with pytest.raises(OracleGuardError):
            brute_force(inst)

    def test_lexicographic_tie_break(self):
        inst = Instance((((2, 1), (2, 1)), ((3, 1), (3, 1))), budget=10.0)
        assert brute_force(inst).optimum_selection == (0, 0)

    def test_matches_independent_enumeration(self):
        rng = random.Random(200)
        for _ in range(100):
            inst = random_instance(rng)
            want, _ = brute_optimum(inst)
            if want is None:
                with pytest.raises(InfeasibleInstanceError):
                    brute_force(inst)
                continue
            got = brute_force(inst)
            assert got.optimum_profit == want
            assert is_feasible(inst, got.optimum_selection)
            assert evaluate(inst, got.optimum_selection).f1 == want


class TestDpSolve:
    def test_single_category_picks_best_affordable(self):
        inst = Instance((((5, 9), (3, 2), (4, 2)),), budget=3.0)
        result = dp_solve(inst)
        assert result.optimum_profit == 4.0
        assert result.optimum_selection == (2,)
        assert result.method is Method.DP

    def test_rejects_non_integer_costs(self, appendix):
        with pytest.raises(NonIntegerInstanceError):
            dp_solve(appendix)  # 1.9 cost

    def test_rejects_non_integer_budget(self):
        inst = Instance((((1, 1), (2, 2)),), budget=1.5)
        with pytest.raises(NonIntegerInstanceError):
            dp_solve(inst)

    def test_infeasible(self):
        inst = Instance((((1, 5), (1, 6)),), budget=4.0)
        with pytest.raises(InfeasibleInstanceError):
            dp_solve(inst)

    @pytest.mark.parametrize(
        "inst, optimum",
        [
            # the float sum 3 * 2**52 - 4 fits; the exact 3 * 2**52 - 3 does not
            (Instance((((3, 2**53 - 1),), ((0, 2**52 - 2),)), 3 * 2**52 - 4), 3.0),
            # the exact table finds 20; evaluate's float sums let 24 fit
            (
                Instance(
                    (
                        ((9, 9007199254740999),),
                        ((7, 9007199254740993), (3, 9007199254740984), (1, 9007199254740995)),
                        ((8, 4503599627370490),),
                    ),
                    2.251799813685248e16,
                ),
                24.0,
            ),
        ],
    )
    def test_rejects_costs_summing_past_2_pow_53(self, inst, optimum):
        assert brute_force(inst).optimum_profit == optimum
        with pytest.raises(NonIntegerInstanceError, match="past 2\\*\\*53"):
            dp_solve(inst)

    def test_accepts_largest_costs_summing_to_2_pow_53(self):
        inst = Instance(
            (((3, 2**52 - 2), (5, 2**52)), ((1, 2**52 - 4), (2, 2**52))), 2.0**53
        )
        result = dp_solve(inst)
        assert (result.optimum_profit, result.optimum_selection) == (7.0, (1, 1))

    @pytest.mark.parametrize(
        "inst, optimum",
        [
            # the only fractional cost is on a dominated item
            (Instance([[(1, 1), (0, 1.5)], [(2, 3), (5, 4)]], 5), 6.0),
            # the budget is 2**53; all costs sum past it, frontier costs do not
            (Instance([[(3, 2**52), (0, 2**53)], [(1, 2**52)]], 2**53), 4.0),
        ],
        ids=["fractional-dominated-cost", "dominated-cost-past-2-pow-53"],
    )
    def test_preconditions_read_frontier_costs_only(self, inst, optimum):
        want = brute_force(inst)
        assert want.optimum_profit == optimum
        got = dp_solve(inst)
        assert (got.optimum_profit, got.optimum_selection) == (
            want.optimum_profit,
            want.optimum_selection,
        )

    def test_memory_guard(self):
        inst = Instance(
            tuple(((1.0, 1.0), (2.0, 10**7)) for _ in range(500)), budget=2 * 10**9
        )
        with pytest.raises(OracleGuardError):
            dp_solve(inst)

    def test_reduced_table_fits_where_the_full_width_was_refused(self):
        # Steep categories fixed at their top item, flat ones at their
        # bottom item: only the critical category keeps two rows, so the
        # table is 501 cells wide instead of about 3e8.
        steep = tuple(((0.0, 0.0), (2e7, 1e7)) for _ in range(30))
        flat = tuple(((0.0, 0.0), (1.0, 1e7)) for _ in range(10))
        critical = (((0.0, 0.0), (1000.0, 1000.0)),)
        inst = Instance(steep + flat + critical, budget=30 * 1e7 + 500)
        with pytest.raises(OracleGuardError):
            dp_solve_full_width(inst)
        result = dp_solve(inst)
        assert result.optimum_profit == 30 * 2e7
        assert result.optimum_selection == (1,) * 30 + (0,) * 11

    def test_reduced_table_fits_with_profits_past_2_pow_53(self):
        # The instance above with every profit times 2**30: a power of two
        # keeps every float sum exact, so the optimum scales and the
        # selection stays. The LP core runs in units of 2**30.
        scale = 2.0**30
        steep = tuple(((0.0, 0.0), (2e7 * scale, 1e7)) for _ in range(30))
        flat = tuple(((0.0, 0.0), (scale, 1e7)) for _ in range(10))
        critical = (((0.0, 0.0), (1000.0 * scale, 1000.0)),)
        inst = Instance(steep + flat + critical, budget=30 * 1e7 + 500)
        result = dp_solve(inst)
        assert result.optimum_profit == 30 * 2e7 * 2**30
        assert result.optimum_selection == (1,) * 30 + (0,) * 11

    def test_agrees_with_brute_force(self):
        rng = random.Random(201)
        for _ in range(200):
            inst = integer_instance(rng)
            try:
                want = brute_force(inst)
            except InfeasibleInstanceError:
                with pytest.raises(InfeasibleInstanceError):
                    dp_solve(inst)
                continue
            got = dp_solve(inst)
            assert got.optimum_profit == want.optimum_profit
            assert is_feasible(inst, got.optimum_selection)
            assert evaluate(inst, got.optimum_selection).f1 == got.optimum_profit

    def test_profit_scaling_preserves_argmax(self):
        rng = random.Random(202)
        for _ in range(40):
            inst = integer_instance(rng, max_m=4, max_n=4)
            doubled = Instance(
                tuple(
                    tuple((item.profit * 2, item.cost) for item in cat)
                    for cat in inst.categories
                ),
                inst.budget,
            )
            try:
                base = dp_solve(inst)
            except InfeasibleInstanceError:
                continue
            scaled = dp_solve(doubled)
            assert scaled.optimum_profit == 2 * base.optimum_profit
            assert scaled.optimum_selection == base.optimum_selection

    def test_fractional_profits_allowed(self):
        inst = Instance((((1.5, 1), (2.25, 2)), ((0.5, 1), (4.75, 3))), budget=4.0)
        result = dp_solve(inst)
        want, _ = brute_optimum(inst)
        assert result.optimum_profit == pytest.approx(want)

    @pytest.mark.parametrize(
        "cats",
        [
            (((2.0**62, 1), (2.0**62 + 2**11, 2)), ((2.0**62, 1), (1, 0))),
            (((1e19, 1), (2e19, 2)), ((3e18, 1), (5, 0))),
        ],
    )
    def test_profits_past_the_int64_range(self, cats):
        # Integer profits whose sums pass 2**63, the int64 range.
        inst = Instance(cats, budget=3.0)
        got, want = dp_solve(inst), brute_force(inst)
        assert got.optimum_profit == want.optimum_profit
        assert got.optimum_selection == want.optimum_selection

    def test_zero_cost_items(self):
        rng = random.Random(207)
        for _ in range(50):
            m = rng.randint(1, 4)
            cats = tuple(
                tuple(
                    (float(rng.randint(0, 30)), float(rng.randint(0, 8)))
                    for _ in range(rng.randint(1, 4))
                )
                for _ in range(m)
            )
            high = sum(max(c for _, c in cat) for cat in cats)
            inst = Instance(cats, budget=float(max(1, rng.randint(1, max(1, int(high))))))
            want, _ = brute_optimum(inst)
            if want is None:
                with pytest.raises(InfeasibleInstanceError):
                    dp_solve(inst)
                continue
            got = dp_solve(inst)
            assert got.optimum_profit == want
            assert is_feasible(inst, got.optimum_selection)


def tricky_instance(rng, fractional=False):
    """Small integer-cost instance drawn to hit the reduction's edge cases:
    ties, zero costs, duplicate items, collinear hull edges (several slopes
    shared across categories) and budgets from infeasible to slack."""
    slopes = [(1, 1), (2, 3), (7, 3), (1, 5)]
    cats = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.choice(["random", "collinear", "ties"])
        items = []
        for _ in range(rng.randint(1, 6)):
            if kind == "collinear":
                rise, run = rng.choice(slopes)
                k = rng.randint(0, 4)
                items.append((rise * k + rng.choice([0, 0, 0, 1]), run * k))
            elif kind == "ties":
                items.append((rng.choice([0, 5, 5, 9]), rng.choice([0, 0, 2, 4])))
            else:
                items.append((rng.randint(0, 30), rng.randint(0, 12)))
        if fractional:
            items = [(p + rng.choice([0.0, 0.25, 0.5, 0.1]), c) for p, c in items]
        cats.append(tuple((float(p), float(c)) for p, c in items))
    low = sum(min(c for _, c in cat) for cat in cats)
    high = sum(max(c for _, c in cat) for cat in cats)
    budget = rng.randint(max(1, int(low) - 2), int(high) + 3)
    return Instance(tuple(cats), float(budget))


def dp_outcome(solver, inst):
    try:
        return solver(inst)
    except MCKPError as err:
        return type(err), str(err)


def lp_relaxation(inst):
    """``oracle._lp_relaxation`` of ``inst``, on the integer arrays that
    ``dp_solve`` gives it."""
    view = inst.frontier_view
    profit, cost = oracle._integer_arrays(view, profit_grid(inst))
    return oracle._lp_relaxation(view, profit, cost, int(inst.budget))


def survivors(inst, profit=0):
    """Each category's Pareto item indices whose reduced cost is at most
    ``UB - max(LB, profit)``: every row that a selection of that profit can
    hold."""
    view = inst.frontier_view
    reduced, ub, lb, unit = lp_relaxation(inst)
    kept = reduced <= ub - unit * max(lb, profit)
    return [
        view.index[a:b][kept[a:b]].tolist()
        for a, b in itertools.pairwise(view.starts.tolist())
    ]


def matches_full_width(inst):
    """dp_solve gives the full table's whole result: optimum, selection,
    method, or the same error with the same message. The printed optimum
    is ``evaluate``'s profit of the selection, to the bit."""
    got = dp_outcome(dp_solve, inst)
    if isinstance(got, ExactResult):
        assert got.optimum_profit == evaluate(inst, got.optimum_selection).f1
    return got == dp_outcome(dp_solve_full_width, inst)


class TestDpSolveMatchesFullWidth:
    """The reduced, banded table gives the whole result of the full one."""

    def test_small_instances_with_ties_zero_costs_and_collinear_hulls(self):
        rng = random.Random(208)
        for _ in range(3000):
            inst = tricky_instance(rng)
            assert matches_full_width(inst)

    def test_small_fractional_profit_instances(self):
        rng = random.Random(209)
        for _ in range(500):
            inst = tricky_instance(rng, fractional=True)
            assert matches_full_width(inst)

    @pytest.mark.parametrize(
        "m, n, corr, ratio, seeds",
        [
            (40, 200, Correlation.WEAK, 0.5, (1, 2, 3)),
            (250, 10, Correlation.UNCORRELATED, 0.35, (1, 2, 3)),
            (10, 1000, Correlation.UNCORRELATED, 0.5, (0, 1)),
            (100, 100, Correlation.UNCORRELATED, 0.5, (0, 1)),
            (1000, 10, Correlation.UNCORRELATED, 0.5, (0,)),
            (20, 20, Correlation.WEAK, 0.5, (0, 1, 2, 3)),
        ],
    )
    def test_benchmark_and_acceptance_families(self, m, n, corr, ratio, seeds):
        for seed in seeds:
            inst = generate(GenSpec(m=m, n=n, correlation=corr, seed=seed, budget_ratio=ratio))
            assert matches_full_width(inst)

    def test_generated_fractional_profits(self):
        for seed in range(3):
            base = generate(GenSpec(m=30, n=40, correlation=Correlation.WEAK, seed=seed))
            inst = Instance(
                tuple(
                    tuple((item.profit / 3, item.cost) for item in cat)
                    for cat in base.categories
                ),
                base.budget,
            )
            assert matches_full_width(inst)

    def test_max_profit_selection_fits(self):
        # lam = 0: every hull edge fits, only the top row of each category
        # survives
        for seed in range(3):
            base = generate(GenSpec(m=30, n=30, correlation=Correlation.WEAK, seed=seed))
            inst = Instance(base.categories, sum(max(c for _, c in cat) for cat in base.categories))
            assert matches_full_width(inst)
            kept = survivors(inst)
            assert all(len(rows) == 1 for rows in kept)

    @pytest.mark.parametrize("rows", [256, 257])
    def test_choice_rows_at_the_uint8_edge(self, rows):
        # Profits in thirds lie on no grid, so every Pareto row is kept, and
        # the budget fits only the top rows of both wide categories: row
        # indices 255 and 256 fall on either side of uint8.
        inst = two_wide_categories(rows)
        assert [len(pareto_filter(c)) for c in inst.categories] == [rows, 2, rows]
        assert matches_full_width(inst)
        assert dp_solve(inst).optimum_selection == (rows - 1, 0, rows - 1)

    @pytest.mark.parametrize("rows", [256, 257])
    def test_core_rows_at_the_uint8_edge(self, rows, tables):
        # Integral profits on one line of slope 1. The small category's edge
        # does not fit and sets that slope, so every reduced cost is 0 and
        # round 1's core holds every row. The budget fits the wide
        # category's top row alone: index 255 or 256, either side of uint8.
        wide = tuple((k, k) for k in range(rows))
        small = ((0, 0), (2, 2))
        inst = Instance((wide, small), budget=rows - 1)
        reduced, _, _, _ = lp_relaxation(inst)
        assert not reduced.any()
        assert matches_full_width(inst)
        assert tables == [2]
        assert dp_solve(inst).optimum_selection == (rows - 1, 0)

    def test_every_item_on_the_critical_line(self):
        # the memory-guard shape, scaled down: all reduced costs are 0
        inst = Instance(tuple(((1.0, 1.0), (2.0, 1001.0)) for _ in range(50)), budget=20_000.0)
        assert matches_full_width(inst)
        assert dp_solve(inst).optimum_profit == 50 + 19


def full_table_outcome(inst):
    """One float64 table over every Pareto row, the path ``dp_solve`` takes
    where ``profit_grid`` is None: the optimum by ``float.hex`` and the
    selection. ``helpers.dp_solve_full_width`` holds integral profits in
    int64, which overflows past 2**63."""
    view = inst.frontier_view
    cost = oracle._exact_integers(view.cost, view.cost.max() < 2**53)
    optimum, chosen = oracle._table(view, cost, np.arange(len(cost)), int(inst.budget))
    return float.hex(optimum), tuple(view.index[chosen].tolist())


def scaled_profits(inst, factor):
    return Instance.from_flat(inst.profits * factor, inst.costs, inst.starts, inst.budget)


class TestDpSolveOnPowerOfTwoGrids:
    """Profits times 2**k keep every float sum exact: ``dp_solve`` runs its
    LP core on them, in units of ``profit_grid``, and gives the full
    table's optimum to the bit and its selection."""

    @pytest.mark.parametrize("power", [-4, 30, 44, 60])
    @pytest.mark.parametrize(
        "m, n, corr, ratio",
        [
            (12, 6, Correlation.WEAK, 0.5),
            (40, 200, Correlation.WEAK, 0.5),
            (250, 10, Correlation.UNCORRELATED, 0.35),
        ],
    )
    def test_scaled_generated_instances(self, m, n, corr, ratio, power):
        for seed in range(6):
            base = generate(GenSpec(m=m, n=n, correlation=corr, seed=seed, budget_ratio=ratio))
            inst = scaled_profits(base, 2.0**power)
            assert profit_grid(inst) is not None
            got, want = dp_solve(inst), full_table_outcome(inst)
            assert (float.hex(got.optimum_profit), got.optimum_selection) == want
            assert got.optimum_profit == dp_solve(base).optimum_profit * 2.0**power

    def test_thirds_fill_one_table_over_every_row(self, tables):
        base = generate(GenSpec(m=40, n=200, correlation=Correlation.WEAK, seed=1))
        inst = scaled_profits(base, 1 / 3)
        assert profit_grid(inst) is None
        got = dp_solve(inst)
        assert tables == [40]
        want = full_table_outcome(inst)
        assert (float.hex(got.optimum_profit), got.optimum_selection) == want


class TestReducedCostSoundness:
    def test_every_optimal_selection_survives(self):
        # Every Pareto row of every brute-force optimal selection is kept.
        rng = random.Random(210)
        checked = 0
        for _ in range(1500):
            inst = tricky_instance(rng)
            want, _ = brute_optimum(inst)
            if want is None:
                continue
            frontiers = [pareto_filter(cat) for cat in inst.categories]
            kept = [set(rows) for rows in survivors(inst, int(want))]
            for sel, f1, f2 in enumerate_images(inst):
                if f1 != want or f2 < -inst.budget:
                    continue
                # The table holds only Pareto rows; any other item of an
                # optimal selection can be swapped for the row dominating it.
                for j, i in enumerate(sel):
                    if i in frontiers[j]:
                        checked += 1
                        assert i in kept[j], (inst, sel)
        assert checked > 5000


    def test_hull_misordered_by_rounding(self):
        # Item 1 lies strictly below the chord from item 0 to item 2, yet a
        # float hull keeps it and its float slopes then put the edge 1 -> 2
        # first. Taking that edge from item 0 would claim a profit no
        # selection has and drop the optimum, item 0.
        sp, base = 1157624360293364, 2237230312868223
        cat = ((0, 0), (sp, base), (2 * sp - 2, 2 * base - 4))
        inst = Instance((cat,), float(base - 4))
        assert upper_hull_by_loop(list(cat)) == [cat[0], cat[2]]
        # the cross products pass 2**63: the hull runs on Python integers
        view = inst.frontier_view
        profit, cost = oracle._integer_arrays(view, 1.0)
        assert profit.dtype == cost.dtype == object
        assert oracle._upper_hull(view.category, profit, cost).tolist() == [0, 2]
        assert brute_force(inst).optimum_selection == (0,)
        assert 0 in survivors(inst)[0]
        assert dp_outcome(dp_solve, inst) == dp_outcome(dp_solve_full_width, inst)


def recording_tables(record):
    """``oracle``'s two tables, the float fill and the reachable-cost bits,
    by name, each wrapped to call ``record(view, cost, rows, budget)``
    before it fills."""
    wrappers = {}
    for name in ("_table", "_reach_table"):

        def recording(view, cost, rows, budget, table=getattr(oracle, name)):
            record(view, cost, rows, budget)
            return table(view, cost, rows, budget)

        wrappers[name] = recording
    return wrappers


@pytest.fixture
def tables(monkeypatch):
    """The number of categories in each table ``dp_solve`` asks for, of
    either kind."""
    calls = []

    def count(view, cost, rows, budget):
        calls.append(len(np.unique(view.category[rows])))

    for name, wrapper in recording_tables(count).items():
        monkeypatch.setattr(oracle, name, wrapper)
    return calls


class TestRounds:
    """The grid path fills the core, and a second table only when rows
    outside it could still be in an optimal selection."""

    def test_weak_decides_in_the_core(self, tables):
        inst = generate(GenSpec(m=40, n=200, correlation=Correlation.WEAK, seed=1))
        assert matches_full_width(inst)
        assert len(tables) == 1
        assert tables[0] < inst.m  # categories left with one row are folded

    def test_uncorrelated_needs_a_second_table(self, tables):
        inst = generate(
            GenSpec(m=250, n=10, correlation=Correlation.UNCORRELATED, seed=1, budget_ratio=0.35)
        )
        assert matches_full_width(inst)
        assert len(tables) == 2
        assert tables[0] < tables[1]

    def test_profit_equal_to_cost_builds_one_table(self, tables):
        # every row lies on the line of slope 1: all reduced costs are 0
        rng = random.Random(211)
        cats = [[(c, c) for c in rng.sample(range(1, 1000), 10)] for _ in range(30)]
        inst = Instance(cats, sum(max(c for _, c in cat) for cat in cats) // 2)
        assert matches_full_width(inst)
        assert tables == [30]

    def test_core_whose_cheapest_selection_does_not_fit(self, tables):
        # Both edges' float slopes are 2**-20 * (1 + 2**-52), so the stable
        # sort puts category 0's first; it does not fit and sets the slope.
        # Category 1's exact slope is steeper by more than one profit unit
        # over its run, so its bottom row leaves the core, and its top row
        # alone costs 3 * 2**71, past the budget.
        q = 6871947674
        rise, run = 3 * 2**51 + 2, 3 * 2**71
        assert q / (2**20 * q - 1) == rise / run
        inst = Instance([[(0, 0), (q, 2**20 * q - 1)], [(0, 0), (rise, run)]], 1)
        # the runs pass 2**53: the relaxation runs on Python integers
        reduced, _, _, unit = lp_relaxation(inst)
        assert reduced.dtype == object
        assert reduced[:2].tolist() == [0, 0] and reduced[3] == 0 and reduced[2] > unit
        got = dp_solve(inst)
        assert got == dp_solve_full_width(inst)
        assert got == ExactResult(0.0, (0, 0), Method.DP)
        # round 1 folds category 1 and finds no room for it; round 2 decides
        assert tables == [1, 2]

    def test_fits_where_the_walks_bound_was_refused(self, tables):
        # The walk's bound keeps both rows of all 5,002 categories: a
        # table over those is 5,002 x 502,501 one-byte choices, past the
        # guard. UB is an integer: the tangent face folds all but the
        # critical category, whose top row does not fit beside the near top,
        # so it finds 100 k + 2, below the walk's 101 k + 2. The one-unit
        # core then folds all but the near and critical categories and
        # decides.
        inst, optimum, selection = walk_gap_instance()
        kept = survivors(inst)
        assert all(len(rows) == 2 for rows in kept)
        assert len(kept) * (int(inst.budget) + 1) > MEMORY_LIMIT_BYTES
        assert dp_solve(inst) == ExactResult(float(optimum), selection, Method.DP)
        assert tables == [1, 2]


def table_width(view, cost, rows, budget):
    """``(first, width)``: which of the view positions ``rows`` is its
    category's first, and the width of a table over them under ``budget``,
    or 0 where the cheapest selection exceeds ``budget``."""
    category, costs = view.category[rows], cost[rows]
    first = np.ones(len(rows), bool)
    first[1:] = category[1:] != category[:-1]
    last = np.roll(first, -1)
    floor_cost = sum(costs[first].tolist())
    if floor_cost > budget:
        return first, 0
    return first, min(budget - floor_cost, sum((costs[last] - costs[first]).tolist())) + 1


def table_estimate(view, cost, rows, budget):
    """The bytes that ``oracle._table`` estimates for its table over the
    view positions ``rows`` under ``budget``, by the guard's formula, or 0
    where the cheapest selection exceeds ``budget`` and no table is made."""
    first, width = table_width(view, cost, rows, budget)
    if not width:
        return 0
    most = int(np.bincount(np.cumsum(first) - 1).max(initial=1))
    itemsize = np.min_scalar_type(most - 1).itemsize
    return (int(first.sum()) + 1) * width * itemsize + 3 * width * 8


def rounds_outcome(solver, inst):
    """``solver(inst)``'s optimum by ``float.hex`` and its selection, or its
    error, and the largest :func:`table_estimate` of the tables it made."""
    estimates = [0]
    record = recording_tables(lambda *args: estimates.append(table_estimate(*args)))
    with mock.patch.multiple(oracle, **record):
        try:
            result = solver(inst)
        except MCKPError as err:
            return (type(err), str(err)), max(estimates)
    return (float.hex(result.optimum_profit), result.optimum_selection), max(estimates)


@st.composite
def split_instances(draw):
    """``walk_gap_instance(k, r)`` for k up to 4 (optimum ``UB - 1``), the
    tie-heavy and collinear draws of :func:`tricky_instance` and
    :func:`table_cases`, and :func:`integral_instances` with costs up to
    2**10."""
    kind = draw(st.sampled_from(["walk", "tricky", "table", "integral"]))
    if kind == "walk":
        k = draw(st.integers(1, 4))
        return walk_gap_instance(k, draw(st.integers(100 * k + 1, 100 * k + 300)))[0]
    if kind == "tricky":
        return tricky_instance(draw(st.randoms(use_true_random=False)))
    if kind == "table":
        return draw(table_cases())[0]
    return draw(integral_instances(cost_scales=(10, 2**10)))


def ub_outcome(inst):
    """``"fractional"`` where ``UB`` is not an integer, ``"UB"`` or
    ``"UB - 1"`` where the optimum is ``UB`` or one grid unit below it,
    ``"lower"`` below that, and None where ``dp_solve`` runs no rounds or
    raises."""
    grid = profit_grid(inst)
    try:
        optimum = dp_solve(inst).optimum_profit
    except MCKPError:
        return None
    if grid is None:
        return None  # one table over every Pareto row
    _, ub, _, unit = lp_relaxation(inst)
    if ub % unit:
        return "fractional"
    return {0: "UB", 1: "UB - 1"}.get(ub // unit - int(optimum / grid), "lower")


class TestSplitRounds:
    """Where ``UB`` is an integer the LP's tangent face runs first: the
    optimum and the selection are those of the two rounds it split
    (``helpers.dp_solve_two_rounds``), and no table is larger."""

    @settings(max_examples=400, deadline=None)
    @given(split_instances())
    def test_drawn_instances(self, inst):
        (got, got_estimate), (want, want_estimate) = (
            rounds_outcome(dp_solve, inst), rounds_outcome(dp_solve_two_rounds, inst)
        )
        assert got == want
        assert got_estimate <= want_estimate

    def test_integral_bounds_and_both_optima_are_drawn(self):
        seen = {"fractional": 0, "UB": 0, "UB - 1": 0, "lower": 0, None: 0}

        @settings(max_examples=300, deadline=None, database=None, derandomize=True)
        @given(split_instances())
        def count(inst):
            seen[ub_outcome(inst)] += 1

        count()
        assert min(seen[key] for key in ("fractional", "UB", "UB - 1")) > 10, seen

    def test_tie_one_unit_below_ub_is_decided_by_the_core(self, tables):
        # UB = 8 is an integer. The tangent face folds category 1 to its top
        # row and finds 7 with (1, 1). Category 1's bottom row has reduced
        # cost one unit, and (2, 0) ties at 7: the full table keeps that
        # lower row, so the one-unit core must run to give its selection.
        inst = Instance([[(1, 0), (3, 2), (5, 4)], [(2, 2), (4, 3)]], 6)
        reduced, ub, _, unit = lp_relaxation(inst)
        assert ub == 8 * unit and reduced.tolist() == [0, 0, 0, unit, 0]
        assert evaluate(inst, (1, 1)).f1 == evaluate(inst, (2, 0)).f1 == 7
        got = dp_solve(inst)
        assert tables == [1, 2]
        assert got == ExactResult(7.0, (2, 0), Method.DP) == dp_solve_two_rounds(inst)

    def test_weak_fills_the_tangent_face_alone(self, monkeypatch):
        inst = generate(GenSpec(m=40, n=200, correlation=Correlation.WEAK, seed=1))
        reduced, _, _, _ = lp_relaxation(inst)
        calls = []
        want = dp_solve_two_rounds(inst)
        recording = recording_tables(lambda view, cost, rows, budget: calls.append(rows))
        for name, wrapper in recording.items():
            monkeypatch.setattr(oracle, name, wrapper)
        assert dp_solve(inst) == want
        [rows] = calls
        assert len(np.unique(inst.frontier_view.category[rows])) == 14
        assert not reduced[rows].any()

    def test_uncorrelated_keeps_its_rounds(self, tables):
        inst = generate(
            GenSpec(m=250, n=10, correlation=Correlation.UNCORRELATED, seed=1, budget_ratio=0.35)
        )
        _, ub, _, unit = lp_relaxation(inst)
        assert ub % unit
        dp_solve_two_rounds(inst)
        want = tables[:]
        tables.clear()
        dp_solve(inst)
        assert tables == want == [3, 40]

    def test_weak_2000_fills_at_most_102_categories(self, tables):
        inst = generate(GenSpec(m=2000, n=20, correlation=Correlation.WEAK, seed=1))
        got = dp_solve(inst)
        assert len(tables) == 1 and tables[0] <= 102
        assert got == dp_solve_two_rounds(inst)


def table_outcome(table, view, cost, rows, budget):
    """``table(view, cost, rows, budget)``: the optimum by ``float.hex`` and
    the chosen view positions, None, or the guard's message."""
    try:
        result = table(view, cost, rows, budget)
    except OracleGuardError as err:
        return str(err)
    if result is None:
        return None
    return float.hex(result[0]), result[1].tolist()


def solve_outcome(inst):
    """``dp_solve(inst)``: the optimum by ``float.hex`` and the selection, or the error."""
    try:
        result = dp_solve(inst)
    except MCKPError as err:
        return type(err), str(err)
    return float.hex(result.optimum_profit), result.optimum_selection


@st.composite
def table_cases(draw):
    """``(inst, rows, cost, budget)``: up to six categories of 1 to 8 items,
    each tie-heavy (integers 0-3), collinear (profit = cost, up to 20) or
    with profits in tenths up to 9.9 and integer costs up to 20, a budget
    from 1 to 3 past the costliest selection's cost, every view row or a
    drawn subset of them, and the view's costs as int64 or as Python
    integers."""
    cats = []
    for _ in range(draw(st.integers(1, 6))):
        size = draw(st.integers(1, 8))
        kind = draw(st.sampled_from(["ties", "collinear", "tenths"]))
        if kind == "collinear":
            costs = draw(st.lists(st.integers(0, 20), min_size=size, max_size=size))
            cats.append([(c, c) for c in costs])
            continue
        if kind == "ties":
            profit, cost = st.integers(0, 3), st.integers(0, 3)
        else:
            profit, cost = st.integers(0, 99).map(lambda k: k / 10), st.integers(0, 20)
        cats.append([(draw(profit), draw(cost)) for _ in range(size)])
    budget = draw(st.integers(1, sum(max(c for _, c in cat) for cat in cats) + 3))
    inst = Instance(cats, float(budget))
    view = inst.frontier_view
    rows = np.arange(len(view.cost))
    if draw(st.booleans()):
        rows = rows[draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))]
    return inst, rows, oracle._exact_integers(view.cost, draw(st.booleans())), budget


def two_wide_categories(rows):
    """Two categories of ``rows`` rows ``((k + 0.5) / 3, k)`` around one of
    two, all of them Pareto rows, with the budget ``2 * (rows - 1)``: the
    optimum takes the top row of both wide ones. Profits in thirds lie on
    no power-of-two grid (``model.profit_grid``), so ``dp_solve`` fills one
    table over every row."""
    wide = tuple(((k + 0.5) / 3, float(k)) for k in range(rows))
    small = ((0.25 / 3, 0.0), (1.75 / 3, 3.0))
    return Instance((wide, small, wide), budget=2.0 * (rows - 1))


class TestTableMatchesMaskedCopy:
    """``_table``'s fill against the masked-copy loop it replaced
    (``helpers.table_by_masked_copy``): the optimum to the bit and the
    chosen view positions, ties included."""

    @settings(max_examples=400, deadline=None)
    @given(table_cases())
    def test_drawn_tables(self, case):
        inst, rows, cost, budget = case
        view = inst.frontier_view
        assert table_outcome(oracle._table, view, cost, rows, budget) == table_outcome(
            table_by_masked_copy, view, cost, rows, budget
        )
        got = solve_outcome(inst)
        with mock.patch.object(oracle, "_table", table_by_masked_copy):
            assert got == solve_outcome(inst)

    def test_skipped_and_later_rows_are_drawn(self):
        # The strategy reaches rows whose lift is at or past the table's
        # width, which the fill skips, and categories of three or more
        # rows, whose rows from 2 on merge their wins into the choice row.
        seen = {"skipped": 0, "row 2": 0}

        @settings(max_examples=200, deadline=None, database=None)
        @given(table_cases())
        def count(case):
            inst, rows, cost, budget = case
            category, costs = inst.frontier_view.category[rows], cost[rows]
            heads = np.searchsorted(category, category)  # each row's category's first
            floor_cost = sum(costs[np.unique(heads)].tolist())
            # a lift past the slack above the floor is at or past the width
            lifts = costs - costs[heads]
            seen["skipped"] += floor_cost <= budget and bool(np.any(lifts > budget - floor_cost))
            seen["row 2"] += bool(np.any(np.bincount(category) > 2))

        count()
        assert min(seen.values()) > 10, seen

    def test_row_two_tied_with_row_one_keeps_row_one(self):
        # At the deciding cell, 2, category 1's row 1 wins over row 0 (5.5 +
        # 1 > 5.5 + 0), and row 2 ties with it (0 + 6.5): row 1 stays.
        inst = Instance([[(0, 0), (5.5, 1)], [(0, 0), (1, 1), (6.5, 2)]], 2.0)
        assert evaluate(inst, (1, 1)).f1 == evaluate(inst, (0, 2)).f1 == 6.5
        view = inst.frontier_view
        rows, cost = np.arange(5), view.cost.astype(np.int64)
        got = table_outcome(oracle._table, view, cost, rows, 2)
        assert got == table_outcome(table_by_masked_copy, view, cost, rows, 2)
        assert got == (float.hex(6.5), [1, 3])
        assert dp_solve(inst).optimum_selection == (1, 1)

    @pytest.mark.parametrize(
        "first, wins, want",
        [
            # Category 0 costs and profits 0..3: the cells before category 1
            # hold 0, 1, 2, 3, and its row (1, 1) ties at every cell, 1 to 3.
            ([(0, 0), (1, 1), (2, 2), (3, 3)], 0, (float.hex(3.0), [3, 4, 6])),
            # Category 0 stops at 2: the cells hold 0, 1, 2, 2, and the row
            # is strictly above at cell 3 alone.
            ([(0, 0), (1, 1), (2, 2)], 1, (float.hex(3.0), [2, 4, 5])),
        ],
    )
    def test_row_that_wins_no_cell_or_one(self, first, wins, want):
        # Budget 3 makes a table of 4 cells; category 2's slack of 10 puts
        # all 4 in category 1's band, and its row (10, 10) lifts past them.
        inst = Instance([first, [(0, 0), (1, 1)], [(0, 0), (10, 10)]], 3.0)
        before = [max(p for p, c in first if c <= w) for w in range(4)]
        assert sum(1 + before[w - 1] > before[w] for w in range(1, 4)) == wins
        view = inst.frontier_view
        rows, cost = np.arange(len(view.cost)), view.cost.astype(np.int64)
        got = table_outcome(oracle._table, view, cost, rows, 3)
        assert got == table_outcome(table_by_masked_copy, view, cost, rows, 3) == want
        result = solve_outcome(inst)
        with mock.patch.object(oracle, "_table", table_by_masked_copy):
            assert result == solve_outcome(inst)

    @pytest.mark.parametrize("rows", [255, 256, 257])
    def test_choice_rows_at_the_uint8_edge(self, rows):
        # Categories of 255 and 256 rows store their choices in uint8, of
        # 257 in uint16; the budget takes the top row of both wide ones.
        inst = two_wide_categories(rows)
        view = inst.frontier_view
        positions, cost = np.arange(len(view.cost)), view.cost.astype(np.int64)
        budget = 2 * (rows - 1)
        got = table_outcome(oracle._table, view, cost, positions, budget)
        assert got == table_outcome(table_by_masked_copy, view, cost, positions, budget)
        assert dp_solve(inst).optimum_selection == (rows - 1, 0, rows - 1)


class TestGuardBoundary:
    @pytest.mark.parametrize("rows, itemsize", [(256, 1), (257, 2)])
    def test_estimate_is_the_limit(self, rows, itemsize, monkeypatch, tables):
        # Profits in thirds: one table over all 3 categories' Pareto rows,
        # 2 * (rows - 1) + 1 cells wide (the budget is below the slack cap).
        # Its choices are uint8 for 256 rows and uint16 for 257.
        inst = two_wide_categories(rows)
        m, width = 3, 2 * (rows - 1) + 1
        estimate = m * width * itemsize + 3 * width * 8 + width * itemsize
        monkeypatch.setattr(oracle, "MEMORY_LIMIT_BYTES", estimate)
        assert dp_solve(inst).optimum_selection == (rows - 1, 0, rows - 1)
        monkeypatch.setattr(oracle, "MEMORY_LIMIT_BYTES", estimate - 1)
        with pytest.raises(OracleGuardError, match=f"estimate {estimate} bytes"):
            dp_solve(inst)
        assert tables == [3, 3]

    def test_bitset_fits_where_the_float_table_is_refused(self, monkeypatch):
        # Profit = cost: every reduced cost is 0, so the one round is the
        # tangent face over every row, in reachable-cost bits. At the bits'
        # estimate, the float table over the same rows is refused.
        rng = random.Random(211)
        cats = [[(c, c) for c in rng.sample(range(1, 1000), 10)] for _ in range(30)]
        inst = Instance(cats, sum(max(c for _, c in cat) for cat in cats) // 2)
        reduced, _, _, _ = lp_relaxation(inst)
        assert not reduced.any()
        view = inst.frontier_view
        cost, rows, budget = view.cost.astype(np.int64), np.arange(len(view.cost)), int(inst.budget)
        estimate = reach_estimate(view, cost, rows, budget)
        assert table_estimate(view, cost, rows, budget) > estimate
        want = dp_solve(inst)
        monkeypatch.setattr(oracle, "MEMORY_LIMIT_BYTES", estimate)
        with pytest.raises(OracleGuardError):
            oracle._table(view, cost, rows, budget)
        assert dp_solve(inst) == want
        monkeypatch.setattr(oracle, "MEMORY_LIMIT_BYTES", estimate - 1)
        with pytest.raises(OracleGuardError, match=f"bitset estimate {estimate} bytes"):
            dp_solve(inst)


def reach_estimate(view, cost, rows, budget):
    """The bytes that ``oracle._reach_table`` estimates for its bits over
    the view positions ``rows`` under ``budget``: 4 bytes per 30 bits,
    under ``width // 7 + 1`` bytes an int, for the incoming bits of every
    category and five more ints."""
    first, width = table_width(view, cost, rows, budget)
    return (int(first.sum()) + 5) * (width // 7 + 1)


@st.composite
def face_cases(draw):
    """``(inst, rows, cost, budget)`` on a tangent face: up to six
    categories of 1 to 6 items whose profits are ``K_j + lam * cost``, one
    slope ``lam > 0`` for all, integer costs up to 3 or 12 (equal ones
    within a category make one Pareto row, and equal ones across
    categories equal shifted costs), every view row or a drawn subset, a budget from 0 to 3
    past the costliest selection's cost (the instance's at least 1), and
    the view's costs as int64 or as Python integers."""
    lam = draw(st.sampled_from([0.5, 1, 2, 3]))
    top = draw(st.sampled_from([3, 12]))
    cats = []
    for _ in range(draw(st.integers(1, 6))):
        base = draw(st.integers(0, 5))
        costs = draw(st.lists(st.integers(0, top), min_size=1, max_size=6))
        cats.append([(base + lam * c, c) for c in costs])
    budget = draw(st.integers(0, sum(max(c for _, c in cat) for cat in cats) + 3))
    inst = Instance(cats, float(max(1, budget)))
    view = inst.frontier_view
    rows = np.arange(len(view.cost))
    if draw(st.booleans()):
        rows = rows[draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))]
    return inst, rows, oracle._exact_integers(view.cost, draw(st.booleans())), budget


class TestReachTableMatchesTable:
    """``_reach_table`` gives ``_table``'s result on rows of the LP's
    tangent face: the optimum to the bit and the chosen view positions,
    ties included, or None for both."""

    @settings(max_examples=500, deadline=None)
    @given(face_cases())
    def test_drawn_faces(self, case):
        inst, rows, cost, budget = case
        view = inst.frontier_view
        want = table_outcome(oracle._table, view, cost, rows, budget)
        assert table_outcome(oracle._reach_table, view, cost, rows, budget) == want
        got = solve_outcome(inst)
        with mock.patch.object(oracle, "_reach_table", oracle._table):
            assert got == solve_outcome(inst)

    def test_edge_cases_are_drawn(self):
        seen = {"None": 0, "single row": 0, "lift past width": 0, "tie": 0}

        @settings(max_examples=300, deadline=None, database=None, derandomize=True)
        @given(face_cases())
        def count(case):
            inst, rows, cost, budget = case
            first, width = table_width(inst.frontier_view, cost, rows, budget)
            seen["None"] += not width
            if not width or not len(rows):
                return
            heads = np.flatnonzero(first)
            sizes = np.diff(heads, append=len(rows))
            shifted = (cost[rows] - np.repeat(cost[rows][heads], sizes)).astype(np.int64)
            seen["single row"] += bool(np.any(sizes == 1))
            seen["lift past width"] += bool(np.any(shifted >= width))
            # ways[x]: the selections of shifted cost x. The optimum is the
            # largest x below the width, and a tie is two selections there.
            ways = np.ones(1, np.int64)
            for part in np.split(shifted, heads[1:]):
                top = int(part.max())
                ways = sum(np.pad(ways, (s, top - s)) for s in part.tolist())
            ways = ways[:width]
            seen["tie"] += bool(ways[np.flatnonzero(ways)[-1]] > 1)

        count()
        assert min(seen.values()) > 10, seen

    def test_lam_zero_folds_every_category(self, monkeypatch):
        # Every hull edge fits, so lam = 0 and each category's tangent face
        # is its top row alone: every category is folded out, and the bits
        # run over no row, one cell wide.
        base = generate(GenSpec(m=30, n=30, correlation=Correlation.WEAK, seed=1))
        inst = Instance(base.categories, sum(max(c for _, c in cat) for cat in base.categories))
        reduced, _, _, unit = lp_relaxation(inst)
        assert unit == 1 and np.count_nonzero(reduced == 0) == inst.m
        calls = []
        recording = recording_tables(lambda *args: calls.append(args))
        for name, wrapper in recording.items():
            monkeypatch.setattr(oracle, name, wrapper)
        assert matches_full_width(inst)
        [(view, cost, rows, budget)] = calls
        assert len(rows) == 0 and oracle._layout(view, cost, rows, budget)[-1] == 1


# profit and cost scales: the first two keep int64 for the relaxation,
# 2**40 products and 2**75 coefficients need Python integers
LP_SCALES = (10, 2**20, 2**40, 2**75)


@st.composite
def integral_instances(draw, cost_scales=LP_SCALES):
    """Up to six categories of 1 to 8 items, each random, collinear (profit
    = cost) or tied (coefficients from 0, 1, half the scale and the scale),
    with integers up to a profit scale from :data:`LP_SCALES` and a cost
    scale from ``cost_scales``, and a budget from 1 to the costliest
    selection's cost."""
    profit_scale = draw(st.sampled_from(LP_SCALES))
    cost_scale = draw(st.sampled_from(cost_scales))
    cats = []
    for _ in range(draw(st.integers(1, 6))):
        size = st.integers(1, 8)
        kind = draw(st.sampled_from(["random", "collinear", "ties"]))
        if kind == "collinear":
            costs = draw(st.lists(st.integers(0, cost_scale), min_size=1, max_size=8))
            cats.append([(c, c) for c in costs])
            continue
        if kind == "ties":
            profit = st.sampled_from([0, 1, profit_scale // 2, profit_scale])
            cost = st.sampled_from([0, 1, cost_scale // 2, cost_scale])
        else:
            profit, cost = st.integers(0, profit_scale), st.integers(0, cost_scale)
        cats.append([(draw(profit), draw(cost)) for _ in range(draw(size))])
    high = sum(max(c for _, c in cat) for cat in cats)
    return Instance(cats, float(draw(st.integers(1, max(1, high)))))


def check_relaxation(inst):
    """The numpy hull and relaxation equal the Python-integer loops; returns
    the dtype of the integer arrays they ran on."""
    view = inst.frontier_view
    profit, cost = oracle._integer_arrays(view, 1.0)
    rows = pareto_rows(inst)
    hull = oracle._upper_hull(view.category, profit, cost)
    assert list(zip(profit[hull].tolist(), cost[hull].tolist())) == [
        row for cat in rows for row in upper_hull_by_loop([(int(p), c) for _, p, c in cat])
    ]
    reduced, ub, lb, unit = oracle._lp_relaxation(view, profit, cost, int(inst.budget))
    want, *bounds = lp_relaxation_by_loop(rows, int(inst.budget))
    assert reduced.tolist() == [r for rs in want for r in rs]
    assert [ub, lb, unit] == bounds
    assert all(type(x) is int for x in (ub, lb, unit, *reduced.tolist()))
    return profit.dtype


class TestLpRelaxationMatchesLoop:
    """``_upper_hull``'s passes and ``_lp_relaxation`` over the flat view
    give the Python-integer loop's hull, bounds and reduced costs."""

    @settings(max_examples=400, deadline=None)
    @given(integral_instances())
    def test_drawn_instances(self, inst):
        check_relaxation(inst)

    @pytest.mark.parametrize("top_cost, dtype", [(2**31 - 1, np.int64), (2**31, object)])
    def test_at_the_int64_bound(self, top_cost, dtype):
        # 2 * P * C is 2**63 - 2**32 below the bound and 2**63 at it. The
        # walk takes category 1's steep edge and stops at category 0's, so
        # lam = P and unit = C, and category 1's end rows have reduced cost
        # about P*C/2.
        top = 2**31
        inst = Instance(
            [[(0, 0), (top, top_cost)], [(0, 0), (top - 1, top_cost // 2), (top, top_cost)]],
            top_cost - 1,
        )
        assert check_relaxation(inst) == dtype
        reduced, _, _, unit = lp_relaxation(inst)
        assert unit == top_cost and reduced.max() > top * (top_cost // 2 - 2)

    def test_agrees_with_brute_force_past_the_int64_products(self):
        # Costs near 2**50 with a few units of slack keep the table small;
        # profits below 2**12 stay in int64, larger ones pass 2**63.
        rng = random.Random(212)
        dtypes = []
        for _ in range(200):
            top = rng.choice([2**12 - 1, 2**20, 2**40])
            cats = [
                [(rng.randint(0, top), 2**50 + rng.randint(0, 40))
                 for _ in range(rng.randint(1, 5))]
                for _ in range(rng.randint(1, 5))
            ]
            low = sum(min(c for _, c in cat) for cat in cats)
            inst = Instance(cats, low + rng.randint(0, 60))
            dtypes.append(oracle._integer_arrays(inst.frontier_view, 1.0)[0].dtype)
            got = dp_outcome(dp_solve, inst)
            assert got == dp_outcome(dp_solve_full_width, inst)
            if isinstance(got, ExactResult):
                assert got.optimum_profit == brute_force(inst).optimum_profit
        assert set(dtypes) == {np.dtype(np.int64), np.dtype(object)}


class TestParetoEnumerate:
    def test_appendix(self, appendix):
        result = pareto_enumerate(appendix)
        images = {tuple(point) for _, point in result}
        assert images == {(4.0, -2.9), (6.0, -3.9), (7.0, -5.0)}
        assert len(result) == 3
        dominated = evaluate(appendix, (1, 1))
        assert tuple(dominated) not in images

    def test_single_category_equals_frontier(self):
        rng = random.Random(203)
        for _ in range(50):
            inst = random_instance(rng, max_m=1, max_n=8)
            enum = {sel[0] for sel, _ in pareto_enumerate(inst)}
            frontier = pareto_filter(inst.categories[0])
            # enumeration keeps objective-duplicates; frontier collapses them
            assert set(frontier) <= enum
            images_enum = {
                (inst.categories[0][i].profit, inst.categories[0][i].cost)
                for i in enum
            }
            images_front = {
                (inst.categories[0][i].profit, inst.categories[0][i].cost)
                for i in frontier
            }
            assert images_enum == images_front

    def test_matches_pairwise_scan(self):
        rng = random.Random(204)
        for _ in range(100):
            inst = random_instance(rng, max_m=3, max_n=4, max_coeff=8)
            want = sorted(
                ((sel, evaluate(inst, sel)) for sel in pareto_selections_by_scan(inst)),
                key=lambda r: (r[1].f1, -r[1].f2, r[0]),
            )
            assert pareto_enumerate(inst) == want

    def test_guard(self):
        inst = Instance(tuple(((1, 1),) * 10 for _ in range(6)), budget=100.0)
        with pytest.raises(OracleGuardError):
            pareto_enumerate(inst)

    def test_cost_sums_past_the_float_range(self):
        # Both images have f2 = -inf; the higher profit used to be dropped
        # because -inf is not above the starting bound -inf.
        inst = Instance([[(0, 1e308), (1, 1e308)], [(0, 1e308)]], 1.0)
        assert pareto_enumerate(inst) == [((1, 0), (1.0, -math.inf))]
        assert not dominated_in_product(inst, (1, 0))
        assert dominated_in_product(inst, (0, 0))

    def test_min_slack_pareto_selection_is_optimal(self):
        # the nondominated selection with the least leftover budget among the
        # feasible ones always attains the exact optimum
        rng = random.Random(205)
        checked = 0
        for _ in range(150):
            inst = random_instance(rng)
            feasible = [
                (sel, point)
                for sel, point in pareto_enumerate(inst)
                if point.f2 >= -inst.budget
            ]
            if not feasible:
                continue
            checked += 1
            tightest = min(feasible, key=lambda e: inst.budget + e[1].f2)
            want, _ = brute_optimum(inst)
            assert evaluate(inst, tightest[0]).f1 == want
        assert checked > 100


class TestDominatedInProduct:
    def test_appendix(self, appendix):
        assert dominated_in_product(appendix, (1, 1))  # (5,-4) loses to (6,-3.9)
        assert not dominated_in_product(appendix, (0, 0))

    def test_consistent_with_enumeration(self):
        rng = random.Random(206)
        for _ in range(50):
            inst = random_instance(rng, max_m=3, max_n=4)
            pareto = {sel for sel, _ in pareto_enumerate(inst)}
            pareto_images = {tuple(evaluate(inst, sel)) for sel in pareto}
            for sel, f1, f2 in [
                (s, *evaluate(inst, s))
                for s in [
                    tuple(rng.randrange(len(cat)) for cat in inst.categories)
                    for _ in range(5)
                ]
            ]:
                assert dominated_in_product(inst, sel) == (
                    (f1, f2) not in pareto_images
                )

    def test_guard_comes_before_the_selection_is_summed(self, appendix):
        # 7^6 selections exceed the guard: the selection is never summed
        inst = Instance(tuple(((1, 1),) * 7 for _ in range(6)), budget=100.0)
        run = KissaRun(final=(0,) * 6, termination=Termination.NO_IMPROVEMENT)
        with mock.patch.object(oracle, "evaluate", side_effect=AssertionError("summed")):
            with pytest.raises(OracleGuardError):
                dominated_in_product(inst, run.final)
            with pytest.raises(OracleGuardError):
                dominated_in_product(inst, (7,) * 6)  # invalid, and over the guard
            assert certify(inst, run) is False
        with pytest.raises(InvalidSelectionError):
            dominated_in_product(appendix, (0, 5))


class TestDeepInstance:
    """1,503 categories and eight selections: the enumeration oracles used to
    recurse once per category and raise ``RecursionError`` here."""

    def test_brute_force_equals_dp(self):
        inst = deep_instance()
        result = brute_force(inst)
        assert result == ExactResult(1510.0, (0,) * 1501 + (1, 1), Method.BRUTE)
        assert result.optimum_profit == dp_solve(inst).optimum_profit

    def test_pareto_and_dominance_match_the_scan(self):
        inst = deep_instance()
        want = sorted(
            ((sel, evaluate(inst, sel)) for sel in pareto_selections_by_scan(inst)),
            key=lambda r: (r[1].f1, -r[1].f2, r[0]),
        )
        assert pareto_enumerate(inst) == want
        pareto = {sel for sel, _ in want}
        for sel, _, _ in enumerate_images(inst):
            assert dominated_in_product(inst, sel) == (sel not in pareto)

    def test_certify_returns_a_bool(self):
        inst = deep_instance()
        assert isinstance(certify(inst, kissa(inst, bissa(inst))), bool)


# 2**53 + 1 rounds to 2**53; 1e308 and the float maximum overflow in pairs
EDGE_VALUES = (
    0.0, -0.0, 5e-324, 0.1, 1.0, 2**53 - 1, 2**53, 2**53 + 1, 1e308, sys.float_info.max,
)
EDGE_BUDGETS = (5e-324, 0.1, 1.0, 2.0**53, 1e308, sys.float_info.max)


@st.composite
def edge_instances(draw):
    """Up to four categories of up to three items with coefficients from
    :data:`EDGE_VALUES`; the budget is the cost of a drawn selection when
    that is positive and finite, or one of :data:`EDGE_BUDGETS`."""
    value = st.sampled_from(EDGE_VALUES)
    cats = draw(
        st.lists(st.lists(st.tuples(value, value), min_size=1, max_size=3), min_size=1, max_size=4)
    )
    sel = tuple(draw(st.integers(0, len(cat) - 1)) for cat in cats)
    cost = -evaluate(Instance(cats, 1.0), sel).f2
    if 0 < cost < math.inf and draw(st.booleans()):
        return Instance(cats, cost)
    return Instance(cats, draw(st.sampled_from(EDGE_BUDGETS)))


class TestImageTable:
    """The oracles' one table of images against ``helpers.enumerate_images``,
    which sums each selection in Python in category order."""

    @settings(max_examples=300, deadline=None)
    @given(edge_instances())
    def test_bit_for_bit_at_the_float_edges(self, inst):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning fails
            f1, f2 = oracle._images(inst, oracle.ENUMERATION_LIMIT, "test")
            images = list(enumerate_images(inst))
            assert [x.hex() for x in f1.tolist()] == [p1.hex() for _, p1, _ in images]
            assert [x.hex() for x in f2.tolist()] == [p2.hex() for _, _, p2 in images]

            profit, selection = brute_optimum(inst)
            if selection is None:
                with pytest.raises(InfeasibleInstanceError):
                    brute_force(inst)
            else:
                result = brute_force(inst)
                assert result.optimum_profit.hex() == profit.hex()
                assert result.optimum_selection == selection
                assert all(type(i) is int for i in result.optimum_selection)

            pareto = [sel for sel, _ in pareto_enumerate(inst)]
            assert len(pareto) == len(set(pareto))
            assert set(pareto) == set(pareto_selections_by_scan(inst))
            for sel, _, _ in images:
                assert dominated_in_product(inst, sel) == (sel not in pareto)
