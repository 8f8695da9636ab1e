"""Independent oracles and small builders shared by the test modules.

Everything here is deliberately written from the definitions (pairwise
scans, weight sweeps, exhaustive enumeration) rather than reusing package
internals, so the tests check the implementations against a second route.
"""

import itertools
import random

from mckp import (
    Instance,
    Item,
    KissaConfig,
    KissaIteration,
    KissaRun,
    ObjectivePoint,
    Termination,
    delta_bound,
    evaluate,
    solve_chebyshev_subproblem,
)
from mckp.kissa import _select

# Two categories of two items; four selections total. Encoded below with the
# flat 0/1 vector each selection corresponds to, objective images on the
# right (profit, -cost):
#   (0, 0) ~ 1010 -> (6, -3.9)   (0, 1) ~ 1001 -> (4, -2.9)
#   (1, 0) ~ 0110 -> (7, -5)     (1, 1) ~ 0101 -> (5, -4)
APPENDIX_CATEGORIES = (
    ((2.0, 1.9), (3.0, 3.0)),
    ((4.0, 2.0), (2.0, 1.0)),
)


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
    loop differs. On integer coefficients the
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
    for index in range(1, config.max_iterations + 1):
        candidates = {j for j in range(instance.m) if cats[j][xa[j]].profit < cats[j][xb[j]].profit}
        improving = {}
        for j in sorted(candidates):
            cat = cats[j]
            ref1 = max(item.profit for item in cat) + config.epsilon
            ref2 = max(-item.cost for item in cat) + config.epsilon
            w1 = 1.0 / (ref1 - cat[xa[j]].profit)
            w2 = 1.0 / (ref2 + cat[xb[j]].cost)
            winner = solve_chebyshev_subproblem(cat, (w1, w2), (ref1, ref2), rho)
            if cat[winner].profit > cat[xa[j]].profit:
                improving[j] = winner
        affordable = {
            j
            for j, i in improving.items()
            if cost - cats[j][xa[j]].cost + cats[j][i].cost <= instance.budget
        }
        chosen = None
        if affordable:
            chosen = _select(instance, xa, improving, affordable, config.rule)
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
    else:
        run.termination = Termination.ITERATION_LIMIT
    run.final = tuple(xa)
    return run
