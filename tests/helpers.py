"""Independent oracles and small builders shared by the test modules.

Everything here is deliberately written from the definitions (pairwise
scans, weight sweeps, exhaustive enumeration) rather than reusing package
internals, so the tests check the implementations against a second route.
"""

import itertools
import math
import random

import numpy as np

from mckp import (
    ExactResult,
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
    Termination,
    delta_bound,
    evaluate,
    pareto_filter,
    solve_chebyshev_subproblem,
)
from mckp.kissa import _select
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
