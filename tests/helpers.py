"""Independent oracles and small builders shared by the test modules.

Everything here is deliberately written from the definitions (pairwise
scans, weight sweeps, exhaustive enumeration) rather than reusing package
internals, so the tests check the implementations against a second route.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from mckp import (
    BissaResult,
    Correlation,
    ExactResult,
    GenSpec,
    InfeasibleInstanceError,
    Instance,
    Item,
    KissaConfig,
    KissaIteration,
    KissaRun,
    Method,
    NonIntegerInstanceError,
    ObjectivePoint,
    OracleGuardError,
    SplitMix64,
    Termination,
    WeightStep,
    delta_bound,
    dp_solve,
    evaluate,
    pareto_filter,
    solve_chebyshev_subproblem,
    solve_linear,
)
from mckp import oracle
from mckp.bissa import MAX_BISECTION_STEPS, BisectionLimitError, ObjectiveOverflowError
from mckp.generate import COEFF_HI, COEFF_LO, WEAK_NOISE
from mckp.kissa import _select
from mckp.model import FrontierView, exact_cost_sums, profit_grid
from mckp.oracle import MEMORY_LIMIT_BYTES

# Two categories of two items; four selections total. Encoded below with the
# flat 0/1 vector each selection corresponds to, objective images on the
# right (profit, -cost):
#   (0, 0) ~ 1010 -> (6, -3.9)   (0, 1) ~ 1001 -> (4, -2.9)
#   (1, 0) ~ 0110 -> (7, -5)     (1, 1) ~ 0101 -> (5, -4)
APPENDIX_CATEGORIES = (
    ((2.0, 1.9), (3.0, 3.0)),
    ((4.0, 2.0), (2.0, 1.0)),
)


def absorbed_profits_instance() -> Instance:
    """An instance whose float sums absorb the profit differences of BISSA's
    probes: category 2's 3 * 2**54 swamps every other profit, so the probes
    at the critical weights 0.5789... and 0.5 both give f1 =
    5.404319552844596e16 and fall outside the bracket, alternating between
    (0, 0, 0, 0) and (0, 0, 0, 1)."""
    return Instance(
        (
            ((9, 2.75),),
            ((0, 0), (0, 2), (3, 8), (0.2, 2.75)),
            ((3 * 2**54, 0), (0.5, 0), (2.223, 0.3)),
            ((2.825, 3), (0, 0)),
        ),
        9.634419963355535,
    )


def tied_swap_instance(order: str) -> Instance:
    """Category 1's two items differ by (1, 1), so with the straddle's weights
    KISSA's category-1 subproblem scores the current item and the anchor
    equally; only the anchor's swap fits, at the brute-force optimum 1.
    ``order`` lists category 1's items cheapest first ("up") or last ("down")."""
    middle = [(0, 0), (1, 1)] if order == "up" else [(1, 1), (0, 0)]
    return Instance([[(0, 0), (10, 2**60)], middle, [(0, 2**60)]], 2**60)


def sum_in_order(values):
    """``values`` added one at a time from 0, in order, as :func:`evaluate`
    sums a selection's costs; the built-in ``sum`` compensates float sums
    from Python 3.12 on, so its bits differ there."""
    total = 0
    for value in values:
        total += value
    return total


def dominated_straddle(rng: random.Random, cats) -> tuple[Instance, BissaResult] | None:
    """A hand-built straddle whose feasible end holds dominated items.

    Each category of ``cats`` gains two items, each a copy of one of its
    items with a fraction 0.01-0.99 added to the cost or, where the profit
    is at least 1, taken off the profit. ``xa`` takes one of the two in
    each category at random. The anchor ``xb`` takes each category's first
    most profitable item where that costs more than ``xa``'s, and ``xa``'s
    elsewhere. The budget is the cost of a random mix of the two ends,
    rounded to two decimals, and at least ``xa``'s float cost and 1. None
    where the anchor out-profits ``xa`` nowhere or fits the budget: no
    straddle."""
    grown = []
    for cat in cats:
        added = []
        for profit, cost in rng.choices(cat, k=2):
            cut = rng.randint(1, 99) / 100
            added.append((profit - cut, cost) if profit >= 1 and rng.random() < 0.5
                         else (profit, cost + cut))
        grown.append([*cat, *added])
    xa = tuple(len(cat) + rng.randrange(2) for cat in cats)
    xb = []
    for cat, i in zip(grown, xa):
        top = max(range(len(cat)), key=lambda k: (cat[k][0], -k))
        xb.append(top if cat[i][1] < cat[top][1] else i)
    xb = tuple(xb)
    mix = math.fsum(cat[rng.choice(pair)][1] for cat, pair in zip(grown, zip(xa, xb)))
    # each end's cost summed in category order, as ``evaluate`` sums it
    cost_a, cost_b = (sum_in_order(cat[i][1] for cat, i in zip(grown, x)) for x in (xa, xb))
    budget = max(round(mix, 2), cost_a, 1)
    if budget >= cost_b or all(cat[a][0] == cat[b][0] for cat, a, b in zip(grown, xa, xb)):
        return None
    return Instance(grown, budget), BissaResult(xa=xa, xb=xb, certificate=None, trace=[])


def deep_instance(m: int = 1500) -> Instance:
    """``m`` single-item categories ``(1, 1)`` and three ``(0, 0), (5, 2)``,
    budget ``m + 4``: eight selections, deeper than Python's recursion
    limit. Two of the three pairs fit, so the optimum is ``m + 10``, and
    the lexicographically smallest optimal selection ends ``0, 1, 1``."""
    return Instance([[(1, 1)]] * m + [[(0, 0), (5, 2)]] * 3, m + 4)


def walk_gap_instance(k: int = 2500, r: int = 500_000) -> tuple[Instance, int, tuple[int, ...]]:
    """An instance whose LP greedy walk ends far below its bound, with its
    optimum and optimal selection, known by construction.

    ``k`` steep categories ``(0, 0), (100, 1)``, ``k`` flat ones ``(0, 0),
    (1, 100)``, a near one ``(0, 0), (2, 1)`` and a critical one ``(0, 0),
    (r, r)``; the budget is ``k + r``. The walk takes the steep and near
    edges, cannot fit the critical one (slope 1), and fills the residual
    ``r - 1`` with flat edges (``100 k <= r - 1``). At slope 1 a
    selection's profit is at most ``UB = 100 k + r + 1`` minus its reduced
    costs (99 on a steep bottom or a flat top, 1 on the near bottom, 0
    elsewhere) and its unused budget. Every row of reduced cost 0 taken
    costs ``k + 1`` or ``k + 1 + r``, not ``k + r``, so for ``r >= 3`` the
    optimum is ``UB - 1``, reached only by the steep tops, flat bottoms,
    near bottom and critical top. The walk's profit is ``100 k + 2 + k``, so
    for ``r - 1 - k >= 99`` every row lies within ``UB`` minus it.
    """
    steep = [[(0, 0), (100, 1)]] * k
    flat = [[(0, 0), (1, 100)]] * k
    inst = Instance(steep + flat + [[(0, 0), (2, 1)], [(0, 0), (r, r)]], k + r)
    return inst, 100 * k + r, (1,) * k + (0,) * k + (0, 1)


def ranked_lexsort_instance(m: int = 2**15, n: int = 4) -> Instance:
    """``m`` categories of ``n`` items whose profits and costs are distinct
    fractions, ``k / 3`` and ``k / 7`` for shuffled ``k``, budget 1.

    At the defaults the frontier view's ranked key needs 15 bits of
    category, 17 of position and 17 for each rank, 66 in all, past the 63
    of its int64 key, so the view's sort falls to ``np.lexsort``."""
    rng = np.random.default_rng(0)
    starts = np.arange(0, m * n + 1, n)
    return Instance.from_flat(rng.permutation(m * n) / 3, rng.permutation(m * n) / 7, starts, 1.0)


def random_instance(
    rng: random.Random,
    max_m: int = 4,
    max_n: int = 5,
    max_coeff: int = 50,
    budget_ratio: float | None = None,
) -> Instance:
    m = rng.randint(1, max_m)
    cats = []
    for _ in range(m):
        n = rng.randint(1, max_n)
        cats.append(
            tuple(
                (float(rng.randint(0, max_coeff)), float(rng.randint(0, max_coeff)))
                for _ in range(n)
            )
        )
    low = sum(min(c for _, c in cat) for cat in cats)
    high = sum(max(c for _, c in cat) for cat in cats)
    if budget_ratio is None:
        budget_ratio = rng.random()
    budget = low + budget_ratio * (high - low)
    return Instance(tuple(cats), max(budget, 1.0))


def random_category(rng: random.Random, max_n: int, max_coeff: int = 50):
    n = rng.randint(1, max_n)
    return tuple(
        Item(float(rng.randint(0, max_coeff)), float(rng.randint(0, max_coeff)))
        for _ in range(n)
    )


def pareto_items_by_pairwise_scan(cat) -> set[int]:
    """Nondominated item indices by the O(n^2) definition, duplicates collapsed
    to the lowest index (the convention the package promises)."""
    kept = set()
    for i, (p, c) in enumerate(cat):
        dominated = False
        for k, (p2, c2) in enumerate(cat):
            if k == i:
                continue
            if p2 >= p and c2 <= c and (p2 > p or c2 < c):
                dominated = True
                break
            if p2 == p and c2 == c and k < i:
                dominated = True  # duplicate image, lower index wins
                break
        if not dominated:
            kept.add(i)
    return kept


def pareto_filter_by_loop(profits, costs) -> tuple[int, ...]:
    """``pareto_filter`` of the items with ``profits`` and ``costs`` as a
    Python loop: one stable sort by cost, then each item kept whose profit
    beats every item before it, replacing a kept item of equal cost."""
    kept: list[int] = []
    best_profit = -math.inf
    for i in sorted(range(len(costs)), key=costs.__getitem__):
        if profits[i] > best_profit:
            if kept and costs[kept[-1]] == costs[i]:
                kept[-1] = i
            else:
                kept.append(i)
            best_profit = profits[i]
    return tuple(kept)


def linear_sweep_weights(instance: Instance) -> list[float]:
    """Every weight at which some category's scalarization argmax can switch,
    plus midpoints and near-endpoints; solve_linear is constant between
    consecutive candidates, so probing all of them reaches every selection
    that any weight in [0, 1] can produce."""
    points = {0.0, 1.0, 1e-9, 1.0 - 1e-9}
    for cat in instance.categories:
        for (p1, c1), (p2, c2) in itertools.combinations(cat, 2):
            dp, dc = p2 - p1, c2 - c1
            if dp + dc != 0:
                w = dc / (dp + dc)
                if 0.0 < w < 1.0:
                    points.add(w)
    ordered = sorted(points)
    mids = [(a + b) / 2 for a, b in zip(ordered, ordered[1:])]
    return sorted(set(ordered + mids))


def solve_linear_all_items(instance: Instance, w: float) -> tuple[int, ...]:
    """``solve_linear`` as first written: every item of every category.

    Test-only reference for the frontier-only argmax. Ties break to the
    lower cost, then the lower index, so at w=0 it can pick a dominated item
    (equal cost, lower profit); inside (0, 1] both must agree.
    """
    cw = 1.0 - w
    chosen = []
    for cat in instance.categories:
        best = 0
        best_score = w * cat[0].profit - cw * cat[0].cost
        best_cost = cat[0].cost
        for i in range(1, len(cat)):
            item = cat[i]
            score = w * item.profit - cw * item.cost
            if score > best_score or (score == best_score and item.cost < best_cost):
                best, best_score, best_cost = i, score, item.cost
        chosen.append(best)
    return tuple(chosen)


def solve_linear_by_scan(instance: Instance, w: float) -> tuple[int, ...]:
    """``solve_linear`` as a scalar loop over each category's frontier.

    Test-only reference for the flat probe: the same scores, and each
    category's first maximum, the cheapest one.
    """
    cw = 1.0 - w
    profits, costs = instance.profits.tolist(), instance.costs.tolist()
    chosen = []
    for a, frontier in zip(instance.starts.tolist(), map(pareto_filter, instance.categories)):
        best = frontier[0]
        best_score = w * profits[a + best] - cw * costs[a + best]
        for i in frontier[1:]:
            score = w * profits[a + i] - cw * costs[a + i]
            if score > best_score:
                best, best_score = i, score
        chosen.append(best)
    return tuple(chosen)


def view_segments(instance: Instance) -> tuple[tuple[int, ...], ...]:
    """Each category's segment of ``instance.frontier_view.index``, as a tuple."""
    view = instance.frontier_view
    index, starts = view.index.tolist(), view.starts.tolist()
    return tuple(tuple(index[a:b]) for a, b in zip(starts, starts[1:]))


def evaluate_by_loop(instance: Instance, sel) -> tuple[float, float]:
    """``evaluate`` as a Python loop: one rounded addition per category, in
    category order, from 0.0."""
    f1 = 0.0
    f2 = 0.0
    for cat, i in zip(instance.categories, sel):
        f1 += cat[i].profit
        f2 -= cat[i].cost
    return f1, f2


def delta_by_neighbour_scan(instance: Instance) -> float:
    """``delta_bound``'s ``delta`` as a scalar loop over frontier neighbours."""
    delta = math.inf
    for cat in instance.categories:
        f = pareto_filter(cat)
        for a, b in zip(f, f[1:]):
            dp = cat[b].profit - cat[a].profit
            dc = cat[b].cost - cat[a].cost
            if dp != dc:
                delta = min(delta, min(dp, dc) / abs(dp - dc))
    return delta


def exact_cost_sums_by_scan(instance: Instance) -> bool:
    """``exact_cost_sums`` as a scalar loop over the frontier items."""
    frontier_costs = [[cat[i].cost for i in pareto_filter(cat)] for cat in instance.categories]
    return all(c.is_integer() for costs in frontier_costs for c in costs) and (
        instance.budget < 2**53 or sum(int(costs[-1]) for costs in frontier_costs) <= 2**53
    )


def profit_grid_by_scan(instance: Instance) -> float | None:
    """``profit_grid`` as a scalar loop over the frontier items, in exact
    rationals: each profit's ``as_integer_ratio`` is ``n / d`` with ``d`` a
    power of two, so the largest power of two dividing it is ``(n & -n) / d``."""
    frontiers = [[cat[i].profit for i in pareto_filter(cat)] for cat in instance.categories]
    ratios = [p.as_integer_ratio() for profits in frontiers for p in profits]
    tops = [Fraction(profits[-1]) for profits in frontiers]
    if all(d == 1 for _, d in ratios) and sum(tops) < 2**53:
        return 1.0
    grid = min(Fraction(n & -n, d) for n, d in ratios if n > 0)
    # the sum must also stay below the float range's 2**1024
    return float(grid) if sum(tops) / grid < 2**53 and sum(tops) < 2**1024 else None


# 2**53 - 1 and 2**53 + 1 round apart and together; 1e300 and 1e308 overflow in sums
FLOAT_EDGES = (0.0, -0.0, 5e-324, 0.1, 2**53 - 1, 2**53 + 1, 1e300, 1e308)


def float_edge_instance(rng: random.Random, max_m: int = 4, max_n: int = 4) -> Instance:
    """Up to ``max_m`` categories of up to ``max_n`` items, each coefficient
    from :data:`FLOAT_EDGES`; the budget is the cost of a random selection
    half the time where that is positive and finite, else 1, 2**53 or 1e308."""
    cats = [
        [(rng.choice(FLOAT_EDGES), rng.choice(FLOAT_EDGES)) for _ in range(rng.randint(1, max_n))]
        for _ in range(rng.randint(1, max_m))
    ]
    cost = 0.0
    for cat in cats:
        cost += rng.choice(cat)[1]
    if 0 < cost < math.inf and rng.random() < 0.5:
        return Instance(cats, cost)
    return Instance(cats, rng.choice((1.0, 2.0**53, 1e308)))


def enumerate_images(instance: Instance):
    """(selection, f1, f2) for the whole selection space, summed in category
    order like the package evaluator."""
    for sel in itertools.product(*(range(len(c)) for c in instance.categories)):
        f1 = 0.0
        f2 = 0.0
        for j, i in enumerate(sel):
            item = instance.categories[j][i]
            f1 += item.profit
            f2 -= item.cost
        yield sel, f1, f2


def brute_optimum(instance: Instance):
    """(profit, selection) of the best feasible selection, or (None, None)."""
    best = None
    best_sel = None
    for sel, f1, f2 in enumerate_images(instance):
        if f2 >= -instance.budget and (best is None or f1 > best):
            best, best_sel = f1, sel
    return best, best_sel


def pareto_selections_by_scan(instance: Instance) -> list[tuple]:
    """All selections whose image no other selection dominates."""
    entries = list(enumerate_images(instance))
    result = []
    for sel, f1, f2 in entries:
        dominated = any(
            g1 >= f1 and g2 >= f2 and (g1 > f1 or g2 > f2) for _, g1, g2 in entries
        )
        if not dominated:
            result.append(sel)
    return result


def trade_off_bound_by_definition(cat) -> float:
    """Smallest ratio (min positive coordinate advantage of the sum-smaller
    point) / (sum advantage of the sum-larger point) over ordered item pairs
    in (profit, -cost) coordinates."""
    best = float("inf")
    d = [(p, -c) for p, c in cat]
    for t in range(len(d)):
        for u in range(len(d)):
            if t == u:
                continue
            denom = (d[u][0] - d[t][0]) + (d[u][1] - d[t][1])
            if denom <= 0:
                continue
            positives = [d[t][k] - d[u][k] for k in range(2) if d[t][k] - d[u][k] > 0]
            if positives:
                best = min(best, min(positives) / denom)
    return best


def kissa_full_resolve(instance: Instance, straddle, config: KissaConfig | None = None) -> KissaRun:
    """The KISSA loop as first written: every iteration recomputes the
    candidate set, re-solves every candidate category from scratch and judges
    a swap affordable by the incremental ``cost - old + new <= budget``.

    Test-only reference for the incremental loop. It shares the subproblem
    solver, the rho bound and the selection rule with the package; only the
    loop differs, and it scans every item of a category, in the order
    (-profit, cost, index), where the package scans the frontier from its
    most profitable item. On integer coefficients the
    incremental cost is exact, so both loops must give equal records; on
    fractional ones this loop can return an infeasible selection.
    """
    config = config or KissaConfig()
    rho = delta_bound(instance, rho=config.rho).rho
    cats = instance.categories
    xa = list(straddle.xa)
    xb = straddle.xb
    cost = -evaluate(instance, straddle.xa).f2
    profit = evaluate(instance, straddle.xa).f1
    run = KissaRun(final=straddle.xa)
    for index in itertools.count(1):
        candidates = {j for j in range(instance.m) if cats[j][xa[j]].profit < cats[j][xb[j]].profit}
        improving = {}
        for j in sorted(candidates):
            cat = cats[j]
            # epsilon above each maximum, or the next float up where it rounds away
            top1 = max(item.profit for item in cat)
            top2 = max(-item.cost for item in cat)
            ref1 = max(top1 + config.epsilon, math.nextafter(top1, math.inf))
            ref2 = max(top2 + config.epsilon, math.nextafter(top2, math.inf))
            w1 = 1.0 / (ref1 - cat[xa[j]].profit)
            w2 = 1.0 / (ref2 + cat[xb[j]].cost)
            # every item, the most profitable first: ties go to it
            order = sorted(range(len(cat)), key=lambda i: (-cat[i].profit, cat[i].cost, i))
            scan = [cat[i] for i in order]
            winner = order[solve_chebyshev_subproblem(scan, (w1, w2), (ref1, ref2), rho)]
            if cat[winner].profit > cat[xa[j]].profit:
                improving[j] = winner
        affordable = {
            j
            for j, i in improving.items()
            if cost - cats[j][xa[j]].cost + cats[j][i].cost <= instance.budget
        }
        chosen = None
        if affordable:
            chosen = _select(
                {j: cats[j][xa[j]] for j in improving},
                {j: (i, cats[j][i]) for j, i in improving.items()}, affordable, config.rule,
            )
            xa[chosen] = improving[chosen]
            point = evaluate(instance, tuple(xa))
            profit, cost = point.f1, -point.f2
            run.improvements += 1
        run.iterations.append(
            KissaIteration(
                index=index,
                candidates=frozenset(candidates),
                gains=frozenset(improving),
                affordable=frozenset(affordable),
                chosen=chosen,
                objective=ObjectivePoint(profit, -cost),
            )
        )
        if chosen is None:
            run.termination = (
                Termination.BUDGET_BLOCKED if improving else Termination.NO_IMPROVEMENT
            )
            break
    run.final = tuple(xa)
    return run


def dp_solve_full_width(instance: Instance) -> ExactResult:
    """``dp_solve`` as first written: every Pareto row of every category and
    every cell of the slack axis, with the estimate taken on that width.

    Test-only reference for the reduced and banded table. It shares the
    Pareto filter, the errors and the tie rule (strict greater-than over
    rows sorted by cost) with the package; only the table differs.
    """
    for cat in instance.categories:
        for item in cat:
            if not float(item.cost).is_integer():
                raise NonIntegerInstanceError(f"non-integer cost {item.cost}")
    if not float(instance.budget).is_integer():
        raise NonIntegerInstanceError(f"non-integer budget {instance.budget}")

    budget = int(instance.budget)
    shifted = []
    floor_cost = 0
    slack_cap = 0
    for cat in instance.categories:
        kept = pareto_filter(cat)
        low = int(cat[kept[0]].cost)
        floor_cost += low
        rows = [(i, cat[i].profit, int(cat[i].cost) - low) for i in kept]
        slack_cap += rows[-1][2]
        shifted.append(rows)
    if floor_cost > budget:
        raise InfeasibleInstanceError(
            f"minimum selection cost {floor_cost} exceeds budget {budget}"
        )

    width = min(budget - floor_cost, slack_cap) + 1
    m = instance.m
    max_kept = max(len(rows) for rows in shifted)
    if max_kept <= 127:
        choice_dtype = np.int8
    elif max_kept <= 32767:
        choice_dtype = np.int16
    else:
        choice_dtype = np.int32
    integral_profits = all(
        float(item.profit).is_integer() for cat in instance.categories for item in cat
    )
    profit_cap = sum(max(item.profit for item in cat) for cat in instance.categories)
    if not integral_profits:
        value_dtype = np.float64
    elif profit_cap < 2**31:
        value_dtype = np.int32
    else:
        value_dtype = np.int64
    estimate = (
        m * width * np.dtype(choice_dtype).itemsize
        + 3 * width * np.dtype(value_dtype).itemsize
        + width
    )
    if estimate > MEMORY_LIMIT_BYTES:
        raise OracleGuardError(f"dp table estimate {estimate} bytes exceeds guard")

    dp = np.zeros(width, dtype=value_dtype)
    new = np.empty_like(dp)
    seg = np.empty_like(dp)
    mask = np.empty(width, dtype=bool)
    choices = np.zeros((m, width), dtype=choice_dtype)
    for j, rows in enumerate(shifted):
        np.add(dp, np.asarray(rows[0][1], dtype=value_dtype), out=new)
        crow = choices[j]
        for r in range(1, len(rows)):
            _, profit, cost = rows[r]
            if cost >= width:
                continue
            span = width - cost
            np.add(dp[:span], np.asarray(profit, dtype=value_dtype), out=seg[:span])
            np.greater(seg[:span], new[cost:], out=mask[:span])
            np.copyto(new[cost:], seg[:span], where=mask[:span])
            np.copyto(crow[cost:], choice_dtype(r), where=mask[:span])
        dp, new = new, dp

    w = width - 1
    selection = [0] * m
    for j in range(m - 1, -1, -1):
        r = int(choices[j, w])
        index, _, cost = shifted[j][r]
        selection[j] = index
        w -= cost
    return ExactResult(float(dp[width - 1]), tuple(selection), Method.DP)


def dp_solve_two_rounds(instance: Instance) -> ExactResult:
    """``dp_solve`` with the two rounds it ran before the tangent-face
    round: the core (reduced cost at most one grid unit, and at most ``UB -
    LB``), then the cut ``UB - max(LB, z)`` only if a row outside the core
    is within it.

    Test-only reference for the split rounds. Where those rounds do not run
    (no profit grid, or a precondition fails), it is ``dp_solve`` itself.
    """
    view = instance.frontier_view
    grid = profit_grid(instance)
    if grid is None or not exact_cost_sums(instance) or not instance.budget.is_integer():
        return dp_solve(instance)
    budget = int(instance.budget)
    if sum(map(int, view.cost[view.starts[:-1]].tolist())) > budget:
        return dp_solve(instance)
    profit, cost = oracle._integer_arrays(view, grid)
    reduced, ub, lb, unit = oracle._lp_relaxation(view, profit, cost, budget)
    core = min(unit, ub - unit * lb)
    result = oracle._round(view, cost, reduced <= core, budget)
    best = lb if result is None else max(lb, int(result[0] / grid))
    cut = ub - unit * best
    if np.any((reduced > core) & (reduced <= cut)):
        result = oracle._round(view, cost, reduced <= cut, budget)
    optimum, chosen = result
    return ExactResult(optimum, tuple(view.index[chosen].tolist()), Method.DP)


def bissa_by_evaluate(instance: Instance) -> BissaResult:
    """``bissa`` as it probed before: each probe's selection from
    ``solve_linear`` and its image from ``evaluate``, which checks it again.

    Test-only reference for the probes, which sum their selections' items
    at positions they do not check again.
    """
    trace: list[WeightStep] = []

    def probe(w: float):
        sel = solve_linear(instance, w)
        point = evaluate(instance, sel)
        feasible = point.f2 >= -instance.budget
        trace.append(WeightStep(w, sel, feasible))
        return sel, point, feasible

    x, p, feasible = probe(1.0)
    if not all(math.isfinite(2 * v) for v in p):
        raise ObjectiveOverflowError(f"sums too large for floats: profit {p.f1:g}, cost {-p.f2:g}")
    certificate = "max-profit-feasible"
    if not feasible:
        xa, pa = None, None
        xb, pb = x, p
        w = 0.0
        for _ in range(MAX_BISECTION_STEPS + 1):
            x, p, feasible = probe(w)
            if pa is None and not feasible:
                raise InfeasibleInstanceError(
                    f"minimum selection cost {-p.f2} exceeds budget {instance.budget}"
                )
            if p.f2 == -instance.budget and exact_cost_sums(instance):
                certificate = "zero-slack"
                break
            if pa is not None and not pb.f2 < p.f2 < pa.f2:
                return BissaResult(xa=xa, xb=xb, certificate=None, trace=trace)
            if feasible:
                xa, pa = x, p
            else:
                xb, pb = x, p
            w = (pa.f2 - pb.f2) / ((pa.f2 - pb.f2) + (pb.f1 - pa.f1))
        else:
            raise BisectionLimitError(
                f"no convergence within {MAX_BISECTION_STEPS} bisection steps"
            )
    return BissaResult(xa=x, xb=None, certificate=certificate, trace=trace)


def frontier_view_by_lexsort(profits, costs, starts) -> FrontierView:
    """``model._frontier_view`` as it sorted every row before, with one
    stable ``np.lexsort`` of the floats: the same arguments and result.

    Test-only reference for the integer sort key.
    """
    sizes = np.diff(starts)
    # ceil(log2(n)) is the bit length of n - 1, frexp's exponent
    buckets = np.frexp(sizes - 1)[1]
    categories, indices = [], []
    for bucket in np.unique(buckets):
        rows = np.flatnonzero(buckets == bucket)
        cols = np.arange(sizes[rows].max())
        real = cols < sizes[rows, None]
        at = np.where(real, starts[rows, None] + cols, 0)
        p = np.where(real, profits[at], -np.inf)
        order = np.lexsort((-p, np.where(real, costs[at], np.inf)), axis=-1)
        p = np.take_along_axis(p, order, axis=1)
        keep = np.ones(p.shape, bool)
        np.greater(p[:, 1:], np.maximum.accumulate(p, axis=1)[:, :-1], out=keep[:, 1:])
        categories.append(np.repeat(rows, np.count_nonzero(keep, axis=1)))
        indices.append(order[keep])
    category, index = np.concatenate(categories), np.concatenate(indices)
    if len(categories) > 1:
        # each group lists its categories in order: merge the runs
        by_category = np.argsort(category, kind="stable")
        category, index = category[by_category], index[by_category]
    view_starts = np.zeros(len(sizes) + 1, np.int64)
    np.cumsum(np.bincount(category, minlength=len(sizes)), out=view_starts[1:])
    positions = starts[category] + index
    return FrontierView(index, profits[positions], costs[positions], category, view_starts)


def table_by_masked_copy(view, cost, rows: np.ndarray, budget: int):
    """``oracle._table`` as it filled its rows before, with one bool mask
    and two masked copies per row: the same arguments and result.

    Test-only reference for the fill. Its guard estimate counts the mask
    at one byte a cell.
    """
    # where each category's rows start, then where the last one's end
    padded = np.concatenate(([-1], view.category[rows], [-1]))
    edges = np.flatnonzero(padded[:-1] != padded[1:])
    heads, sizes = edges[:-1], edges[1:] - edges[:-1]
    costs = cost[rows]
    floor_cost = sum(costs[heads].tolist())
    if floor_cost > budget:
        return None
    shifted = (costs - np.repeat(costs[heads], sizes)).tolist()
    profits = view.profit[rows].tolist()
    bounds = list(itertools.pairwise(edges.tolist()))
    slacks = [shifted[b - 1] for _, b in bounds]
    slack_cap = sum(slacks)

    width = min(budget - floor_cost, slack_cap) + 1
    m = len(bounds)
    # the narrowest unsigned type that holds a row index
    choice_dtype = np.min_scalar_type(int(sizes.max(initial=1)) - 1).type

    # the choice table, three float64 rows and a bool mask
    estimate = m * width * np.dtype(choice_dtype).itemsize + 3 * width * 8 + width
    if estimate > MEMORY_LIMIT_BYTES:
        raise OracleGuardError(f"dp table estimate {estimate} bytes exceeds guard")

    # Rolling rows: each category takes a running elementwise maximum over
    # its items' shifted-and-lifted copies of the previous row. Ties keep the
    # lowest item (strict greater-than), rows sorted by cost.
    # Category j fills cells [low, top): ``later`` is the slack of categories
    # j+1.., and cells at or above ``top`` would all equal cell ``top - 1``.
    dp = np.zeros(width)
    new = np.empty_like(dp)
    seg = np.empty_like(dp)
    mask = np.empty(width, dtype=bool)
    choices = np.zeros((m, width), dtype=choice_dtype)
    later = slack_cap
    top = 1
    for (a, b), slack, crow in zip(bounds, slacks, choices):
        later -= slack
        low = max(0, width - 1 - later)
        dp[top:top + slack] = dp[top - 1]  # the previous row's flat cells
        top = min(width, top + slack)
        np.add(dp[low:top], profits[a], out=new[low:top])
        for r in range(1, b - a):
            profit, lift = profits[a + r], shifted[a + r]
            start = max(low, lift)
            if start >= top:
                continue
            span = top - start
            np.add(dp[start - lift:top - lift], profit, out=seg[:span])
            np.greater(seg[:span], new[start:top], out=mask[:span])
            np.copyto(new[start:top], seg[:span], where=mask[:span])
            np.copyto(crow[start:top], choice_dtype(r), where=mask[:span])
        dp, new = new, dp

    # Walk the choice table backwards from the full slack budget, clamping
    # each cell to the top of its category's band.
    w = width - 1
    reach = slack_cap
    chosen = [0] * m
    for j in range(m - 1, -1, -1):
        w = min(w, reach)
        chosen[j] = k = bounds[j][0] + int(choices[j, w])
        w -= shifted[k]
        reach -= slacks[j]
    return float(dp[width - 1]), rows[chosen]


def pareto_rows(instance: Instance) -> list[list[tuple[int, float, int]]]:
    """Each category's Pareto rows ``(index, profit, int cost)`` by
    increasing cost, from ``pareto_filter``."""
    return [
        [(i, cat[i].profit, int(cat[i].cost)) for i in pareto_filter(cat)]
        for cat in instance.categories
    ]


def upper_hull_by_loop(rows: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Upper hull of a category's frontier rows ``(profit, cost)``, by one
    monotone-chain loop.

    ``rows`` are integers sorted by strictly increasing cost and profit, as
    ``pareto_filter`` orders them. A row is dropped when it lies strictly
    below the chord of its neighbours, so collinear rows are kept and the
    slopes ``dp / dc`` do not increase along the hull. The cross products
    are Python integers, so the hull is exact at any size.
    """
    hull: list[tuple[int, int]] = []
    for p, c in rows:
        while len(hull) >= 2:
            (p1, c1), (p2, c2) = hull[-2], hull[-1]
            if (p - p2) * (c2 - c1) > (p2 - p1) * (c - c2):
                hull.pop()
            else:
                break
        hull.append((p, c))
    return hull


def lp_relaxation_by_loop(rows, budget: int) -> tuple[list[list[int]], int, int, int]:
    """The LP relaxation ``(reduced, ub, lb, unit)`` of an integral instance,
    in Python integers, with ``reduced`` per category.

    ``rows`` holds each category's Pareto rows as :func:`pareto_rows` gives
    them. A greedy walk over all hull edges (:func:`upper_hull_by_loop`),
    steepest first by their float slopes in a stable sort, starts from the
    cheapest selection and takes each edge that fits the remaining budget;
    a category stops at its first edge that does not fit. The first edge
    that does not fit, ``(dp, dc)``, gives ``lam = dp`` and ``unit = dc``
    (``0`` and ``1`` when every edge fits), and the walk's selection the
    profit ``lb``. Row ``r`` of category ``j`` has reduced cost
    ``reduced[j][r] = max(unit*p - lam*c) - (unit*p - lam*c)`` over the
    category, and ``ub = sum_j max(unit*p - lam*c) + lam*budget``.
    """
    edges = []
    for j, category_rows in enumerate(rows):
        hull = upper_hull_by_loop([(int(p), c) for _, p, c in category_rows])
        for k, ((p1, c1), (p2, c2)) in enumerate(zip(hull, hull[1:])):
            edges.append((p2 - p1, c2 - c1, j, k))
    edges.sort(key=lambda e: -e[0] / e[1])
    residual = budget - sum(category_rows[0][2] for category_rows in rows)
    lb = sum(int(category_rows[0][1]) for category_rows in rows)
    critical = None
    reached = [0] * len(rows)  # next hull edge of each category; -1 once stopped
    for rise, run, j, k in edges:
        if reached[j] != k:
            continue
        if run > residual:
            critical = critical or (rise, run)
            reached[j] = -1
        else:
            residual -= run
            lb += rise
            reached[j] = k + 1
    lam_p, unit = critical or (0, 1)

    reduced = []
    ub = lam_p * budget
    for category_rows in rows:
        values = [unit * int(p) - lam_p * c for _, p, c in category_rows]
        best = max(values)
        ub += best
        reduced.append([best - v for v in values])
    return reduced, ub, lb, unit


def generate_by_stream(spec: GenSpec) -> Instance:
    """``generate`` as first written: one :class:`SplitMix64` draw at a time,
    categories outermost and items inner, two draws per item.

    Test-only reference for the counter-form stream: the uncorrelated family
    draws profit then cost, the weakly correlated one cost then the noise,
    and the budget rounds ``L + ratio * (U - L)`` half up over Python
    integers ``L`` and ``U``.
    """
    rng = SplitMix64(spec.seed)
    profits: list[int] = []
    costs: list[int] = []
    low = high = 0
    for _ in range(spec.m):
        start = len(costs)
        for _ in range(spec.n):
            if spec.correlation is Correlation.UNCORRELATED:
                profit = rng.randint(COEFF_LO, COEFF_HI)
                cost = rng.randint(COEFF_LO, COEFF_HI)
            else:
                cost = rng.randint(COEFF_LO, COEFF_HI)
                profit = max(1, cost + rng.randint(-WEAK_NOISE, WEAK_NOISE))
            profits.append(profit)
            costs.append(cost)
        low += min(costs[start:])
        high += max(costs[start:])
    budget = float(math.floor(low + spec.budget_ratio * (high - low) + 0.5))
    return Instance.from_flat(profits, costs, range(0, spec.m * spec.n + 1, spec.n), budget)


def _fmt(x: float) -> str:
    # int() drops the sign of -0.0, so repr writes it
    if x == int(x) and abs(x) < 1e16 and math.copysign(1.0, x) > 0:
        return str(int(x))
    return repr(x)


def write_instance_by_loop(instance: Instance) -> str:
    """``write_instance`` as first written: one f-string per line, each
    number an integer's ``str`` where it is a plain one and its ``repr``
    otherwise.

    Test-only reference for the numpy writer.
    """
    lines = ["MCKP 1", f"m={instance.m} b={_fmt(instance.budget)}"]
    pairs = zip(instance.profits.tolist(), instance.costs.tolist())
    rows = [f"{_fmt(p)} {_fmt(c)}" for p, c in pairs]
    starts = instance.starts.tolist()
    for a, b in zip(starts, starts[1:]):
        lines.append(f"cat {b - a}")
        lines += rows[a:b]
    return "\n".join(lines) + "\n"
