import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mckp import (
    Instance,
    delta_bound,
    pareto_filter,
    solve_chebyshev_subproblem,
)
from mckp.frontier import InvalidReferencePointError, chebyshev_value, chebyshev_winners
from mckp.oracle import _integer_arrays, _upper_hull

from helpers import (
    delta_by_neighbour_scan,
    float_edge_instance,
    pareto_items_by_pairwise_scan,
    random_category,
    trade_off_bound_by_definition,
)


def cat(*pairs):
    return Instance((tuple(pairs),), budget=1.0).categories[0]


def ties(rng, n):  # few distinct values: equal profits, equal costs, duplicates
    return [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(n)]


def equal_profits(rng, n):
    p = rng.randint(0, 9)
    return [(p, rng.randint(0, 30)) for _ in range(n)]


def equal_costs(rng, n):
    c = rng.randint(0, 9)
    return [(rng.randint(0, 30), c) for _ in range(n)]


def duplicates(rng, n):  # every point repeated, in shuffled order
    base = [(rng.randint(0, 30), rng.randint(0, 30)) for _ in range(rng.randint(1, 3))]
    return [rng.choice(base) for _ in range(n)]


def collinear(rng, n):
    p0, c0, dp, dc = (rng.randint(0, 9) for _ in range(4))
    return [(p0 + k * dp, c0 + k * dc) for k in (rng.randint(0, 6) for _ in range(n))]


def dyadic(rng, n):  # fractional, yet every difference is exact
    return [(rng.randint(0, 400) / 16, rng.randint(0, 400) / 16) for _ in range(n)]


def decimal(rng, n):
    return [(round(rng.uniform(0, 50), 1), round(rng.uniform(0, 50), 1)) for _ in range(n)]


HARD_CATEGORIES = (ties, equal_profits, equal_costs, duplicates, collinear, dyadic, decimal)


def frontier_bound_by_definition(c) -> float:
    """The pairwise trade-off bound over the category's frontier items."""
    return trade_off_bound_by_definition([c[i] for i in pareto_filter(c)])


class TestParetoFilter:
    def test_appendix_categories(self, appendix):
        f0 = pareto_filter(appendix.categories[0])
        assert f0 == (0, 1)
        f1 = pareto_filter(appendix.categories[1])
        assert f1 == (1, 0)  # increasing cost: (2,1) then (4,2)

    def test_dominated_item_dropped(self):
        assert pareto_filter(cat((5, 1), (4, 2))) == (0,)

    def test_duplicates_collapse_to_lowest_index(self):
        assert pareto_filter(cat((3, 2), (3, 2), (1, 1))) == (2, 0)

    def test_matches_pairwise_scan(self):
        # The order and the tie rule matter: dp_solve takes its rows, and so
        # its tie-breaking between equal optima, from this tuple.
        rng = random.Random(13)
        makers = (lambda rng, n: random_category(rng, max_n=8, max_coeff=6),) + HARD_CATEGORIES
        for trial in range(1400):
            c = cat(*makers[trial % len(makers)](rng, rng.randint(1, 10)))
            want = sorted(pareto_items_by_pairwise_scan(c), key=lambda i: c[i].profit)
            assert pareto_filter(c) == tuple(want), c

    def test_sorted_strictly(self):
        rng = random.Random(14)
        for _ in range(200):
            c = random_category(rng, max_n=10)
            items = pareto_filter(c)
            profits = [c[i].profit for i in items]
            costs = [c[i].cost for i in items]
            assert all(a < b for a, b in zip(profits, profits[1:]))
            assert all(a < b for a, b in zip(costs, costs[1:]))


def supported_by_weight_probe(frontier, c) -> set[int]:
    """An item is supported iff it attains the scalarization max at some
    weight; candidate weights are all pairwise equalizers plus midpoints."""
    weights = {1e-9, 0.5, 1 - 1e-9}
    for a in frontier:
        for b in frontier:
            dp = c[b].profit - c[a].profit
            dc = c[b].cost - c[a].cost
            if dp + dc != 0:
                w = dc / (dp + dc)
                if 0 < w < 1:
                    weights.add(w)
    ordered = sorted(weights)
    weights.update((x + y) / 2 for x, y in zip(ordered, ordered[1:]))
    supported = set()
    for w in weights:
        scores = {i: w * c[i].profit - (1 - w) * c[i].cost for i in frontier}
        top = max(scores.values())
        # ties at shared weights are exact in math but not in floats; with
        # integer coefficients true gaps are orders of magnitude above this
        tol = 1e-9 * (1.0 + abs(top))
        supported.update(i for i, s in scores.items() if s >= top - tol)
    return supported


def hull_items(c) -> tuple[int, ...]:
    """Item indices on the exact oracle's integer upper hull of ``c``."""
    view = Instance((c,), 1.0).frontier_view
    profit, cost = _integer_arrays(view)
    return tuple(view.index[_upper_hull(view.category, profit, cost)].tolist())


class TestSupportedFilter:
    """The supported items: ``oracle._upper_hull`` on a category's frontier."""

    def test_collinear_points_all_kept(self):
        c = cat((1, 1), (2, 2), (3, 3))
        assert hull_items(c) == (0, 1, 2)

    def test_unsupported_point_dropped(self):
        c = cat((2, 2), (4, 6), (6, 7))
        assert pareto_filter(c) == (0, 1, 2)
        assert hull_items(c) == (0, 2)

    def test_singleton(self):
        c = cat((4, 2))
        assert hull_items(c) == (0,)

    def test_matches_weight_probe(self):
        rng = random.Random(99)
        for _ in range(200):
            c = random_category(rng, max_n=9, max_coeff=12)
            f = pareto_filter(c)
            hull = hull_items(c)
            assert set(hull) == supported_by_weight_probe(f, c)
            # hull is a subsequence of the frontier
            order = {i: k for k, i in enumerate(f)}
            ranks = [order[i] for i in hull]
            assert ranks == sorted(ranks)

    def test_slopes_non_increasing(self):
        # exactly, and as the float quotients the LP walk sorts by
        rng = random.Random(100)
        for _ in range(100):
            c = random_category(rng, max_n=10)
            hull = hull_items(c)
            edges = [
                (int(c[b].profit - c[a].profit), int(c[b].cost - c[a].cost))
                for a, b in zip(hull, hull[1:])
            ]
            for (p1, c1), (p2, c2) in zip(edges, edges[1:]):
                assert p1 * c2 >= p2 * c1
                assert p1 / c1 >= p2 / c2

    def test_near_collinear_triple_at_2_pow_50(self):
        # Item 1 lies strictly below the chord from item 0 to item 2, but
        # float cross products round it onto the chord.
        c = cat(
            (737, 28),
            (903723055909290, 867736452968898),
            (1807446111817841, 1735472905937766),
        )
        assert pareto_filter(c) == (0, 1, 2)
        (p0, c0), (p1, c1), (p2, c2) = ((int(i.profit), int(i.cost)) for i in c)
        assert (p2 - p1) * (c1 - c0) > (p1 - p0) * (c2 - c1)
        assert hull_items(c) == (0, 2)


class TestDeltaBound:
    def test_appendix_per_category(self, appendix):
        only_first = Instance((appendix.categories[0],), budget=1.0)
        only_second = Instance((appendix.categories[1],), budget=1.0)
        # qualifying pair ratios: 1 / 0.1 and 2 / 2 respectively
        assert delta_bound(only_first).delta == pytest.approx(10.0)
        assert delta_bound(only_second).delta == pytest.approx(1.0)
        assert delta_bound(appendix).delta == pytest.approx(1.0)

    def test_rho_is_halved_bound_or_requested(self, appendix):
        bound = delta_bound(appendix, rho=1e-7)
        assert bound.rho == 1e-7  # 1e-7 < delta/2
        bound = delta_bound(appendix, rho=10.0)
        assert bound.rho == pytest.approx(bound.delta / 2)

    def test_rho_stays_positive_where_the_bound_underflows(self):
        # 5e-324 / 1e300 underflows, so delta is 0 and rho the smallest float
        inst = Instance([[(0, 0), (5e-324, 1e300)], [(0, 0), (4, 4)]], 3)
        bound = delta_bound(inst)
        assert bound.delta == 0.0
        assert bound.rho == math.ulp(0.0)

    def test_dominated_items_impose_no_bound(self):
        # (0.001, 10) is dominated by (10, 10); with (0, 0) it would give
        # 0.001 / 9.999, but the frontier's one pair rises equally
        c = cat((0, 0), (10, 10), (0.001, 10))
        assert trade_off_bound_by_definition(c) == pytest.approx(1.0001e-4)
        bound = delta_bound(Instance((c,), budget=1.0))
        assert math.isinf(bound.delta)
        assert bound.rho == 1e-7

    def test_identical_items_sentinel(self):
        inst = Instance((((3, 2), (3, 2)),), budget=1.0)
        bound = delta_bound(inst)
        assert math.isinf(bound.delta)
        assert bound.rho == 1e-7

    def test_matches_definition_scan(self):
        rng = random.Random(7)
        for _ in range(200):
            c = random_category(rng, max_n=7, max_coeff=9)
            got = delta_bound(Instance((c,), budget=1.0)).delta
            want = frontier_bound_by_definition(c)
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(want)

    def test_matches_definition_scan_at_the_float_edges(self):
        # several categories: the bound is the minimum over them
        rng = random.Random(17)
        for _ in range(1500):
            inst = float_edge_instance(rng)
            got = delta_bound(inst).delta
            assert got.hex() == delta_by_neighbour_scan(inst).hex(), inst
            want = min(frontier_bound_by_definition(c) for c in inst.categories)
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(want)

    def test_large_categories_match_definition(self):
        rng = random.Random(8)
        for n, max_coeff in ((300, 20), (250, 500), (200, 10**6)):
            c = cat(*((rng.randint(0, max_coeff), rng.randint(0, max_coeff)) for _ in range(n)))
            bound = delta_bound(Instance((c,), budget=1.0))
            want = frontier_bound_by_definition(c)
            assert bound.delta == want
            assert bound.rho == (1e-7 if math.isinf(want) else min(1e-7, want / 2.0))

    def test_hard_categories_match_definition(self):
        rng = random.Random(9)

        for trial in range(600):
            make = HARD_CATEGORIES[trial % len(HARD_CATEGORIES)]
            # several categories per instance, singletons among them: the
            # bound is the minimum over categories, never across them
            inst = Instance(
                tuple(make(rng, rng.choice((1, 2, rng.randint(3, 12)))) for _ in range(rng.randint(1, 4))),
                budget=1.0,
            )
            want = min(frontier_bound_by_definition(c) for c in inst.categories)
            bound = delta_bound(inst)
            if make is decimal and not math.isinf(want):
                assert bound.delta == pytest.approx(want, rel=1e-12)
            else:
                assert bound.delta == want
            assert bound.rho == (1e-7 if math.isinf(want) else min(1e-7, want / 2.0))


class TestChebyshevSubproblem:
    def test_reference_example_frozen(self, appendix):
        # weights tie both items at exactly 1 in the plain min-max; the
        # augmentation term (divided by the active weight denominator)
        # breaks the tie toward the second item.
        c = appendix.categories[0]
        eps, rho = 1e-4, 1e-7
        reference = (3.0 + eps, -1.9 + eps)
        weights = (1.0 / (1.0 + eps), 1.0 / (1.1 + eps))
        v0 = chebyshev_value(2.0, 1.9, weights, reference, rho)
        v1 = chebyshev_value(3.0, 3.0, weights, reference, rho)
        assert v0 == pytest.approx(1.0 + rho * (1 + 2 * eps) / (1 + eps), abs=1e-15)
        assert v1 == pytest.approx(1.0 + rho * (1.1 + 2 * eps) / (1.1 + eps), abs=1e-15)
        assert v1 < v0
        assert solve_chebyshev_subproblem(c, weights, reference, rho) == 1

    def test_singleton(self):
        c = cat((4, 2))
        assert solve_chebyshev_subproblem(c, (1, 1), (5, -1), 1e-7) == 0

    def test_dominating_item_wins(self):
        rng = random.Random(21)
        for _ in range(50):
            base = random_category(rng, max_n=6, max_coeff=20)
            top = (max(p for p, _ in base) + 1.0, min(c for _, c in base) - 0.0)
            c = cat(*base, (top[0], max(top[1] - 1.0, 0.0)))
            winner = solve_chebyshev_subproblem(
                c, (1.0, 1.0), (top[0] + 5, 5.0), 1e-7
            )
            values = [
                chebyshev_value(item.profit, item.cost, (1, 1), (top[0] + 5, 5.0), 1e-7)
                for item in c
            ]
            assert values[winner] == min(values)
            assert winner == len(c) - 1

    def test_tie_breaks_to_lowest_index(self):
        c = cat((2, 2), (2, 2))
        assert solve_chebyshev_subproblem(c, (1, 1), (3, -1), 1e-7) == 0

    def test_precondition_errors(self, appendix):
        c = appendix.categories[0]
        with pytest.raises(InvalidReferencePointError):
            solve_chebyshev_subproblem(c, (1, 1), (3.0, 0.0), 1e-7)  # ref1 not > max p
        with pytest.raises(InvalidReferencePointError):
            solve_chebyshev_subproblem(c, (1, 1), (4.0, -1.9), 1e-7)  # ref2 not > max f2
        with pytest.raises(InvalidReferencePointError):
            solve_chebyshev_subproblem(c, (0.0, 1), (4.0, 0.0), 1e-7)
        with pytest.raises(InvalidReferencePointError):
            solve_chebyshev_subproblem(c, (1, 1), (4.0, 0.0), 0.0)

    def test_precondition_checked_up_to_the_last_item(self):
        # only the last item fails to be strictly dominated, once per coordinate
        c = cat((1, 5), (2, 4), (3, 3))
        message = "reference point must strictly dominate every item of the category"
        with pytest.raises(InvalidReferencePointError, match=message):
            solve_chebyshev_subproblem(c, (1, 1), (3.0, -2.0), 1e-7)
        with pytest.raises(InvalidReferencePointError, match=message):
            solve_chebyshev_subproblem(c, (1, 1), (4.0, -3.0), 1e-7)
        assert solve_chebyshev_subproblem(c, (1, 1), (4.0, -2.0), 1e-7) == 2


def chebyshev_by_floats(profit, cost, weights, reference, rho):
    """The augmented Chebyshev value as a Python float expression."""
    g1 = reference[0] - profit
    g2 = reference[1] + cost
    aug = rho * (g1 + g2)
    return max(weights[0] * (g1 + aug), weights[1] * (g2 + aug))


def kissa_like_setting(rng, items):
    """A reference point strictly above the items' maxima and weights from
    the gaps of two random items, as KISSA sets them, and a random rho."""
    eps = rng.choice((1e-300, 1e-4, 1.0, 1e300))
    top1 = max(p for p, _ in items)
    top2 = max(-c for _, c in items)
    reference = (
        max(top1 + eps, math.nextafter(top1, math.inf)),
        max(top2 + eps, math.nextafter(top2, math.inf)),
    )
    weights = (
        1.0 / (reference[0] - rng.choice(items)[0]),
        1.0 / (reference[1] + rng.choice(items)[1]),
    )
    return weights, reference, rng.choice((5e-324, 1e-7, 0.5, 1e300))


class TestChebyshevOverArrays:
    """One formula for a float and an array: the array gives each item the
    bits of the float expression, and the subproblem takes its first minimum."""

    @staticmethod
    def check(items, weights, reference, rho):
        want = [chebyshev_by_floats(p, c, weights, reference, rho) for p, c in items]
        profit, cost = np.array(items, np.float64).T
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # overflow to inf warns nowhere
            got = chebyshev_value(profit, cost, weights, reference, rho).tolist()
            one = [float(chebyshev_value(p, c, weights, reference, rho)) for p, c in items]
            position = solve_chebyshev_subproblem(items, weights, reference, rho)
        assert list(map(float.hex, got)) == list(map(float.hex, want))
        assert list(map(float.hex, one)) == list(map(float.hex, want))
        assert position == want.index(min(want))

    def test_float_edge_coefficients(self):
        rng = random.Random(45)
        for _ in range(400):
            for items in float_edge_instance(rng).categories:
                self.check(items, *kissa_like_setting(rng, items))

    def test_tied_items_go_to_the_lowest_position(self):
        rng = random.Random(46)
        tied = 0
        for _ in range(400):
            items = [(float(p), float(c)) for p, c in ties(rng, rng.randint(1, 10))]
            weights, reference, rho = kissa_like_setting(rng, items)
            want = [chebyshev_by_floats(p, c, weights, reference, rho) for p, c in items]
            tied += want.count(min(want)) > 1
            self.check(items, weights, reference, rho)
        assert tied > 100

    def test_items_pairs_and_arrays_agree(self):
        rng = random.Random(47)
        for _ in range(200):
            items = random_category(rng, max_n=12, max_coeff=30)
            weights, reference, rho = kissa_like_setting(rng, items)
            rows = np.array(items)
            want = solve_chebyshev_subproblem(items, weights, reference, rho)
            for given in ([tuple(item) for item in items], [list(item) for item in items], rows):
                assert solve_chebyshev_subproblem(given, weights, reference, rho) == want
            # a reversed slice, as KISSA passes a frontier segment
            flipped = solve_chebyshev_subproblem(items[::-1], weights, reference, rho)
            assert solve_chebyshev_subproblem(rows[::-1], weights, reference, rho) == flipped

    @pytest.mark.parametrize(
        "items",
        [
            [(math.nan, 1.0)],
            [(1.0, math.nan)],
            [(1.0, 2.0), (2.0, 3.0), (math.nan, 4.0)],
            [(1.0, 2.0), (2.0, 3.0), (3.0, math.nan)],
        ],
    )
    def test_nan_item_fails_the_precondition(self, items):
        # a NaN coordinate is never strictly dominated, so the reference fails
        with pytest.raises(InvalidReferencePointError, match="strictly dominate"):
            solve_chebyshev_subproblem(items, (1.0, 1.0), (5.0, 0.0), 1e-7)

    @pytest.mark.parametrize("reference", [(math.nan, 0.0), (5.0, math.nan)])
    def test_nan_reference_fails_the_precondition(self, reference):
        with pytest.raises(InvalidReferencePointError, match="strictly dominate"):
            solve_chebyshev_subproblem([(1.0, 2.0)], (1.0, 1.0), reference, 1e-7)

    @pytest.mark.parametrize("weights", [(math.nan, 1.0), (1.0, math.nan)])
    def test_nan_weight_fails_the_precondition(self, weights):
        with pytest.raises(InvalidReferencePointError, match="weights must be strictly positive"):
            solve_chebyshev_subproblem([(1.0, 2.0), (2.0, 3.0)], weights, (5.0, 0.0), 1e-7)

    def test_empty_input(self):
        for empty in ((), [], np.empty((0, 2))):
            with pytest.raises(ValueError, match="non-empty"):
                solve_chebyshev_subproblem(empty, (1.0, 1.0), (5.0, 0.0), 1e-7)


# Few distinct values, so that rows tie, and large ones, whose Chebyshev
# values overflow to inf at a large rho or epsilon.
PASS_VALUES = (0.0, -0.0, 5e-324, 0.5, 1.0, 2.0, 3.0, 1e300)
PASS_EPSILONS = (5e-324, 1e-4, 1.0, 1e300)
PASS_RHOS = (5e-324, 1e-7, 0.5, 1e300)


@st.composite
def first_passes(draw):
    """An instance of up to six categories of 1 to 8 items from
    :data:`PASS_VALUES`, some of its categories, and for each a reference
    point above its frontier maxima and weights from the gaps of two of its
    frontier rows, as KISSA sets them, and a rho."""
    value = st.sampled_from(PASS_VALUES)
    cats = draw(st.lists(
        st.lists(st.tuples(value, value), min_size=1, max_size=8), min_size=1, max_size=6
    ))
    inst = Instance(cats, 1.0)
    view = inst.frontier_view
    categories = sorted(draw(st.sets(st.integers(0, len(cats) - 1), min_size=1)))
    weights, references = ([], []), ([], [])
    for j in categories:
        a, b = view.starts[j], view.starts[j + 1]
        eps = draw(st.sampled_from(PASS_EPSILONS))
        top, low_cost = float(view.profit[b - 1]), float(view.cost[a])
        reference = (
            max(top + eps, math.nextafter(top, math.inf)),
            max(-low_cost + eps, math.nextafter(-low_cost, math.inf)),
        )
        rows = st.integers(a, b - 1)
        w = (
            1.0 / (reference[0] - float(view.profit[draw(rows)])),
            1.0 / (reference[1] + float(view.cost[draw(rows)])),
        )
        assume(all(math.isfinite(r) for r in reference) and w[0] > 0 and w[1] > 0)
        for into, pair in ((weights, w), (references, reference)):
            into[0].append(pair[0])
            into[1].append(pair[1])
    return inst, categories, weights, references, draw(st.sampled_from(PASS_RHOS))


class TestChebyshevWinners:
    """KISSA's first pass against one :func:`solve_chebyshev_subproblem`
    call per category, on its rows of the view reversed."""

    @settings(max_examples=400, deadline=None)
    @given(first_passes())
    def test_matches_one_subproblem_per_category(self, drawn):
        inst, categories, weights, references, rho = drawn
        view = inst.frontier_view
        rows = np.column_stack((view.profit, view.cost))
        want = []
        for k, j in enumerate(categories):
            a, b = view.starts[j], view.starts[j + 1]
            setting = (weights[0][k], weights[1][k]), (references[0][k], references[1][k]), rho
            want.append(b - 1 - solve_chebyshev_subproblem(rows[a:b][::-1], *setting))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # overflow to inf warns nowhere
            got = chebyshev_winners(view, categories, weights, references, rho)
        assert got.tolist() == want

    def test_ties_and_infinite_values_are_drawn(self):
        # the strategy reaches both cases the tie rule decides
        seen = {"tie": 0, "inf": 0}

        @settings(max_examples=200, deadline=None, database=None)
        @given(first_passes())
        def count(drawn):
            inst, categories, weights, references, rho = drawn
            view = inst.frontier_view
            for k, j in enumerate(categories):
                a, b = view.starts[j], view.starts[j + 1]
                setting = (weights[0][k], weights[1][k]), (references[0][k], references[1][k]), rho
                values = chebyshev_value(view.profit[a:b], view.cost[a:b], *setting).tolist()
                seen["tie"] += values.count(min(values)) > 1
                seen["inf"] += math.inf in values

        count()
        assert min(seen.values()) > 10, seen

    def test_tie_goes_to_the_most_profitable_row(self):
        # Two rows rising by (1, 1) score the same at these weights; each
        # category's winner is its last row, the most profitable.
        inst = Instance([[(0, 0), (1, 1)], [(5, 5)], [(2, 2), (3, 3)]], 1.0)
        view = inst.frontier_view
        got = chebyshev_winners(view, [0, 2], ([0.5, 0.5], [0.5, 0.5]), ([2.0, 4.0], [1.0, -1.0]), 1e-7)
        assert got.tolist() == [1, 4]


class TestChebyshevTheorems:
    def test_soundness_returns_frontier_members(self):
        # any positive rho below the bound must land on the frontier
        rng = random.Random(42)
        for _ in range(150):
            c = random_category(rng, max_n=12, max_coeff=30)
            frontier = set(pareto_filter(c))
            bound = delta_bound(Instance((c,), budget=1.0), rho=1e9).rho
            reference = (
                max(p for p, _ in c) + 1e-4,
                max(-cc for _, cc in c) + 1e-4,
            )
            for _ in range(10):
                weights = (rng.uniform(1e-3, 10.0), rng.uniform(1e-3, 10.0))
                winner = solve_chebyshev_subproblem(c, weights, reference, bound)
                assert winner in frontier

    def test_completeness_every_frontier_item_reachable(self):
        # weights from the item's own reference gaps recover the item
        rng = random.Random(43)
        for _ in range(120):
            c = random_category(rng, max_n=8, max_coeff=25)
            rho = delta_bound(Instance((c,), budget=1.0), rho=1e9).rho
            reference = (
                max(p for p, _ in c) + 1e-4,
                max(-cc for _, cc in c) + 1e-4,
            )
            for target in pareto_filter(c):
                g1 = reference[0] - c[target].profit
                g2 = reference[1] + c[target].cost
                total = g1 + g2
                weights = (1.0 / (g1 + rho * total), 1.0 / (g2 + rho * total))
                winner = solve_chebyshev_subproblem(c, weights, reference, rho)
                wv = chebyshev_value(
                    c[winner].profit, c[winner].cost, weights, reference, rho
                )
                tv = chebyshev_value(
                    c[target].profit, c[target].cost, weights, reference, rho
                )
                assert wv == pytest.approx(tv, abs=1e-9)
                assert (c[winner].profit, c[winner].cost) == pytest.approx(
                    (c[target].profit, c[target].cost)
                )

    def test_theorems_hold_where_a_dominated_item_is_steepest(self):
        # Each category gets dominated items just above its cheapest item in
        # profit and above its costliest one in cost, so its steepest pair
        # involves a dominated item and the frontier bound lies above the
        # all-pairs one. Soundness and completeness must hold at that rho.
        rng = random.Random(44)
        tested = raised = 0
        for _ in range(150):
            base = random_category(rng, max_n=8, max_coeff=25)
            f = pareto_filter(base)
            if len(f) < 2:
                continue
            low, top = base[f[0]], base[f[-1]]
            extra = [
                (
                    min(low.profit + rng.choice((1e-3, 0.01, 0.5)), top.profit),
                    top.cost + rng.randint(1, 30),
                )
                for _ in range(rng.randint(1, 3))
            ]
            c = cat(*base, *extra)
            assert pareto_filter(c) == f
            tested += 1
            bound = delta_bound(Instance((c,), budget=1.0), rho=1e9)
            if bound.delta > trade_off_bound_by_definition(c):
                raised += 1
            rho = bound.rho
            reference = (top.profit + 1e-4, -low.cost + 1e-4)
            for _ in range(10):
                weights = (rng.uniform(1e-3, 10.0), rng.uniform(1e-3, 10.0))
                assert solve_chebyshev_subproblem(c, weights, reference, rho) in f
            for target in f:
                g1 = reference[0] - c[target].profit
                g2 = reference[1] + c[target].cost
                total = g1 + g2
                weights = (1.0 / (g1 + rho * total), 1.0 / (g2 + rho * total))
                winner = solve_chebyshev_subproblem(c, weights, reference, rho)
                assert (c[winner].profit, c[winner].cost) == (c[target].profit, c[target].cost)
        assert raised == tested > 50
