import math
import random

import pytest

from mckp import (
    Instance,
    delta_bound,
    pareto_filter,
    solve_chebyshev_subproblem,
    supported_filter,
)
from mckp.frontier import InvalidReferencePointError, chebyshev_value

from helpers import (
    pareto_items_by_pairwise_scan,
    random_category,
    trade_off_bound_by_definition,
)


def cat(*pairs):
    return Instance((tuple(pairs),), budget=1.0).categories[0]


class TestParetoFilter:
    def test_appendix_categories(self, appendix):
        f0 = pareto_filter(appendix.categories[0], 0)
        assert f0.pareto_items == (0, 1)
        assert f0.profits == (2.0, 3.0)
        f1 = pareto_filter(appendix.categories[1], 1)
        assert f1.pareto_items == (1, 0)  # increasing profit: (2,1) then (4,2)
        assert f1.costs == (1.0, 2.0)

    def test_dominated_item_dropped(self):
        assert pareto_filter(cat((5, 1), (4, 2))).pareto_items == (0,)

    def test_duplicates_collapse_to_lowest_index(self):
        assert pareto_filter(cat((3, 2), (3, 2), (1, 1))).pareto_items == (2, 0)

    def test_matches_pairwise_scan(self):
        rng = random.Random(13)
        for _ in range(300):
            c = random_category(rng, max_n=8, max_coeff=6)
            got = set(pareto_filter(c).pareto_items)
            assert got == pareto_items_by_pairwise_scan(c)

    def test_sorted_strictly(self):
        rng = random.Random(14)
        for _ in range(200):
            c = random_category(rng, max_n=10)
            f = pareto_filter(c)
            assert all(a < b for a, b in zip(f.profits, f.profits[1:]))
            assert all(a < b for a, b in zip(f.costs, f.costs[1:]))


def supported_by_weight_probe(frontier, c) -> set[int]:
    """An item is supported iff it attains the scalarization max at some
    weight; candidate weights are all pairwise equalizers plus midpoints."""
    weights = {1e-9, 0.5, 1 - 1e-9}
    for a in frontier.pareto_items:
        for b in frontier.pareto_items:
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
        scores = {i: w * c[i].profit - (1 - w) * c[i].cost for i in frontier.pareto_items}
        top = max(scores.values())
        # ties at shared weights are exact in math but not in floats; with
        # integer coefficients true gaps are orders of magnitude above this
        tol = 1e-9 * (1.0 + abs(top))
        supported.update(i for i, s in scores.items() if s >= top - tol)
    return supported


class TestSupportedFilter:
    def test_collinear_points_all_kept(self):
        c = cat((1, 1), (2, 2), (3, 3))
        f = pareto_filter(c)
        assert supported_filter(f, c).hull_items == (0, 1, 2)

    def test_unsupported_point_dropped(self):
        c = cat((1, 1), (2, 3), (3, 3.5))
        f = pareto_filter(c)
        assert f.pareto_items == (0, 1, 2)
        assert supported_filter(f, c).hull_items == (0, 2)

    def test_singleton(self):
        c = cat((4, 2))
        assert supported_filter(pareto_filter(c), c).hull_items == (0,)

    def test_matches_weight_probe(self):
        rng = random.Random(99)
        for _ in range(200):
            c = random_category(rng, max_n=9, max_coeff=12)
            f = pareto_filter(c)
            hull = supported_filter(f, c)
            assert set(hull.hull_items) == supported_by_weight_probe(f, c)
            # hull is a subsequence of the frontier
            order = {i: k for k, i in enumerate(f.pareto_items)}
            ranks = [order[i] for i in hull.hull_items]
            assert ranks == sorted(ranks)

    def test_slopes_non_increasing(self):
        rng = random.Random(100)
        for _ in range(100):
            c = random_category(rng, max_n=10)
            hull = supported_filter(pareto_filter(c), c).hull_items
            slopes = [
                (-c[b].cost + c[a].cost) / (c[b].profit - c[a].profit)
                for a, b in zip(hull, hull[1:])
            ]
            assert all(s1 >= s2 - 1e-12 for s1, s2 in zip(slopes, slopes[1:]))


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
            want = trade_off_bound_by_definition(c)
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(want)

    def test_large_categories_match_definition(self):
        rng = random.Random(8)
        for n, max_coeff in ((300, 20), (250, 500), (200, 10**6)):
            c = cat(*((rng.randint(0, max_coeff), rng.randint(0, max_coeff)) for _ in range(n)))
            bound = delta_bound(Instance((c,), budget=1.0))
            want = trade_off_bound_by_definition(c)
            assert bound.delta == want
            assert bound.rho == (1e-7 if math.isinf(want) else min(1e-7, want / 2.0))

    def test_hard_categories_match_definition(self):
        rng = random.Random(9)

        def ties(n):  # few distinct values: equal profits, equal costs, duplicates
            return [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(n)]

        def equal_profits(n):
            p = rng.randint(0, 9)
            return [(p, rng.randint(0, 30)) for _ in range(n)]

        def equal_costs(n):
            c = rng.randint(0, 9)
            return [(rng.randint(0, 30), c) for _ in range(n)]

        def collinear(n):
            p0, c0, dp, dc = (rng.randint(0, 9) for _ in range(4))
            return [(p0 + k * dp, c0 + k * dc) for k in (rng.randint(0, 6) for _ in range(n))]

        def dyadic(n):  # fractional, yet every difference is exact
            return [(rng.randint(0, 400) / 16, rng.randint(0, 400) / 16) for _ in range(n)]

        def decimal(n):
            return [(round(rng.uniform(0, 50), 1), round(rng.uniform(0, 50), 1)) for _ in range(n)]

        makers = (ties, equal_profits, equal_costs, collinear, dyadic, decimal)
        for trial in range(600):
            make = makers[trial % len(makers)]
            # several categories per instance, singletons among them: the
            # bound is the minimum over categories, never across them
            inst = Instance(
                tuple(make(rng.choice((1, 2, rng.randint(3, 12)))) for _ in range(rng.randint(1, 4))),
                budget=1.0,
            )
            want = min(trade_off_bound_by_definition(c) for c in inst.categories)
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


class TestChebyshevTheorems:
    def test_soundness_returns_frontier_members(self):
        # any positive rho below the bound must land on the frontier
        rng = random.Random(42)
        for _ in range(150):
            c = random_category(rng, max_n=12, max_coeff=30)
            frontier = set(pareto_filter(c).pareto_items)
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
            for target in pareto_filter(c).pareto_items:
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
