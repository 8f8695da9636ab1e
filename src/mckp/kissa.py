"""Chebyshev gap-narrowing loop (KISSA).

Starting from a bisection straddle (feasible ``xa``, infeasible anchor
``xb``), the loop solves one augmented Chebyshev subproblem per category
where the anchor still holds a strict profit lead, over the category's
frontier items (reference point: per-category maxima plus epsilon; weights
derived from the current ``xa`` component and the fixed anchor component;
ties to the most profitable item), and each iteration swaps in one
improving component that keeps the selection within budget, a check in O(1)
where float cost sums are exact. Every candidate's first subproblem is
solved in one array pass; only the swapped category's subproblem changes,
so each accepted swap costs one re-solve, and it moves the objective point
in O(1) where the profit and cost sums are exact. Profit strictly rises at
every accepted swap; the loop stops when no subproblem improves profit or
no improvement fits the budget.
"""

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .bissa import BissaResult, ObjectiveOverflowError
from .frontier import DEFAULT_RHO, chebyshev_winners, delta_bound, solve_chebyshev_subproblem
from .model import (
    Instance,
    ObjectivePoint,
    Selection,
    _objective,
    _positions,
    evaluate,
    exact_cost_sums,
    is_feasible,
)
from .oracle import OracleGuardError, brute_force, dominated_in_product

DEFAULT_EPSILON = 1e-4


class SelectionRule(enum.Enum):
    """How to pick the category to swap among the affordable improvements."""

    MAX_PROFIT = "max-profit"
    FIRST = "first"
    BEST_SLACK = "best-slack"


class Termination(enum.Enum):
    MAX_PROFIT_FEASIBLE = "max-profit-feasible"  # exact straddle: the max-profit probe fits
    ZERO_SLACK = "zero-slack"              # exact straddle: a probe spends the budget
    NO_IMPROVEMENT = "no-improvement"      # no subproblem beat the current component
    BUDGET_BLOCKED = "budget-blocked"      # every improvement busts the budget


@dataclass(frozen=True)
class KissaConfig:
    rho: float = DEFAULT_RHO
    epsilon: float = DEFAULT_EPSILON
    rule: SelectionRule = SelectionRule.MAX_PROFIT

    def __post_init__(self):
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError("rho must be positive and finite")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be positive and finite")
        if not isinstance(self.rule, SelectionRule):
            raise TypeError(f"rule must be a SelectionRule, not {self.rule!r}")


@dataclass(frozen=True)
class KissaIteration:
    """Audit record of one iteration.

    ``candidates`` are the categories where the anchor's profit lead is
    strict, ``gains`` those whose Chebyshev winner strictly improves profit,
    ``affordable`` the gains whose single-component swap stays feasible, and
    ``chosen`` the swapped category (None on the terminating iteration).
    ``objective`` is the image of the working selection after the iteration.
    """

    index: int
    candidates: frozenset[int]
    gains: frozenset[int]
    affordable: frozenset[int]
    chosen: int | None
    objective: ObjectivePoint


@dataclass
class KissaRun:
    final: Selection
    iterations: list[KissaIteration] = field(default_factory=list)
    improvements: int = 0
    termination: Termination = Termination.NO_IMPROVEMENT


def improvable_categories(instance: Instance, xa: Selection, xb: Selection) -> set[int]:
    """Categories where the anchor component strictly out-profits the current
    one; :class:`InvalidSelectionError` where a selection does not fit."""
    return set(_leads(instance, _positions(instance, xa), _positions(instance, xb)).tolist())


def _leads(instance: Instance, ka: np.ndarray, kb: np.ndarray) -> np.ndarray:
    """:func:`improvable_categories` of the selections at the positions
    ``ka`` and ``kb``, ascending."""
    return np.flatnonzero(instance.profits[ka] < instance.profits[kb])


def kissa(instance: Instance, straddle: BissaResult, config: KissaConfig | None = None) -> KissaRun:
    """Run the improvement loop from a bisection straddle.

    On an exact straddle the run returns ``straddle.xa`` at once, with no
    iterations and the straddle's certificate as its termination. Otherwise
    the anchor ``straddle.xb`` stays fixed for the whole run. The returned
    selection is always feasible with profit at least that of
    ``straddle.xa``; ``improvements`` counts accepted swaps and the iteration
    list records the full trace. Each swap strictly raises its category's
    profit, so a run ends within ``sum(n_j - 1)`` swaps.

    A candidate category's reference point is its maxima of (profit, -cost),
    each shifted up by epsilon, or to the next float where epsilon rounds
    away; the first weight is the reciprocal profit gap of the current
    component, the second the reciprocal cost gap of the anchor component.
    Both the reference point and the second weight stay fixed for the run,
    so they are taken up front. Where epsilon pushes the sum of a
    category's largest profit gap and largest cost gap to its reference
    point past the float range (a reference point or an item's Chebyshev
    value would overflow, or the second weight fall to 0), or the anchor's
    own cost gap (larger where the anchor is a dominated item),
    :class:`ObjectiveOverflowError` is raised before any iteration, naming
    the lowest such category.
    The subproblem reads the category's frontier (its segment of
    ``Instance.frontier_view``) from its most profitable item down, so a
    tie goes to the most profitable tied item and the run does not depend
    on the order of items within a category; at positive rho a dominated
    item never wins anyway. Every candidate's first subproblem is solved in
    one array pass over the candidates' rows of the view
    (:func:`chebyshev_winners`). A winner counts only if it strictly
    out-profits the current component.

    A category's subproblem depends only on its own current component, its
    anchor component and its maxima, so the improving map is kept across
    iterations and only the swapped category is solved again, by
    :func:`solve_chebyshev_subproblem` on a reversed array slice of the
    segment's (profit, cost) rows. A swap is affordable when
    :func:`is_feasible` accepts the swapped selection. Where
    :func:`exact_cost_sums` holds, the working selection (feasible, frontier
    items only) has an exact float cost, so ``cost - old + new <= budget``
    gives that verdict in O(1). Where the frontier profits are integers as
    well, and the largest ones sum below 2**53, every profit sum is exact
    too, so a swap moves the objective point by the difference of the two
    items, in O(1), with the bits of :func:`evaluate`; elsewhere the point
    is evaluated again. That rule is decided at the first swap.
    """
    if straddle.exact:
        return KissaRun(final=straddle.xa, termination=Termination(straddle.certificate))
    config = config or KissaConfig()
    rho = delta_bound(instance, rho=config.rho).rho
    # each endpoint's positions, looked up once: the start point and the
    # candidates come from them
    ka, kb = _positions(instance, straddle.xa), _positions(instance, straddle.xb)
    point = _objective(instance, ka)
    lead = _leads(instance, ka, kb)
    if not lead.size:
        raise AssertionError("straddle endpoints must differ in profit somewhere")
    order = lead.tolist()
    candidates = set(order)
    xa = list(straddle.xa)
    run = KissaRun(final=straddle.xa)

    # Each candidate's current and anchor (profit, cost), read once as Python
    # floats: the loop's scalar arithmetic stays off numpy scalars.
    def items(k):
        return zip(instance.profits[k].tolist(), instance.costs[k].tolist())

    current = dict(zip(order, items(ka[lead])))
    anchor = dict(zip(order, items(kb[lead])))
    if any(not current[j][1] < anchor[j][1] for j in order):
        raise AssertionError("feasible component must be cheaper where the anchor out-profits it")

    def above(top):
        return max(top + config.epsilon, math.nextafter(top, math.inf))

    # A candidate's reference point and second weight stay fixed for the
    # run, and so does its segment of the view, a to b, most profitable last.
    view = instance.frontier_view
    subproblems = {}
    for j in order:
        a, b = view.starts.item(j), view.starts.item(j + 1)
        top_profit, top_cost = view.profit.item(b - 1), view.cost.item(b - 1)
        low_profit, low_cost = view.profit.item(a), view.cost.item(a)
        reference = (above(top_profit), above(-low_cost))
        # the largest gaps to the reference point bound every item's g1 + g2
        if not math.isfinite((reference[0] - low_profit) + (reference[1] + top_cost)):
            raise ObjectiveOverflowError(
                f"epsilon {config.epsilon:g} puts category {j}'s Chebyshev values"
                " past the float range"
            )
        # a hand-built straddle may anchor on a dominated item costlier still
        anchor_gap = reference[1] + anchor[j][1]
        if not math.isfinite(anchor_gap):
            raise ObjectiveOverflowError(
                f"epsilon {config.epsilon:g} puts category {j}'s anchor cost gap"
                " past the float range"
            )
        subproblems[j] = reference, 1.0 / anchor_gap, a, b

    # each category's winner that beats its current component: (index, (profit, cost))
    improving: dict[int, tuple[int, tuple[float, float]]] = {}

    def offer(j, k):
        # the winner at view position k, where it out-profits the current component
        profit = view.profit.item(k)
        if profit > current[j][0]:
            improving[j] = view.index.item(k), (profit, view.cost.item(k))

    def first_weight(j):  # it follows the current component
        return 1.0 / (subproblems[j][0][0] - current[j][0])

    # a re-solve reads a reversed slice of these, the most profitable row first
    rows = np.column_stack((view.profit, view.cost))

    def solve(j):
        reference, w2, a, b = subproblems[j]
        position = solve_chebyshev_subproblem(rows[a:b][::-1], (first_weight(j), w2), reference, rho)
        offer(j, b - 1 - position)

    weights = [first_weight(j) for j in order], [subproblems[j][1] for j in order]
    references = [subproblems[j][0][0] for j in order], [subproblems[j][0][1] for j in order]
    for j, k in zip(order, chebyshev_winners(view, lead, weights, references, rho).tolist()):
        offer(j, k)

    exact = exact_cost_sums(instance)
    exact_points = None  # whether a swap moves the point in O(1), decided at the first
    for index in itertools.count(1):
        head = (index, frozenset(candidates), frozenset(improving))
        if exact:
            affordable = frozenset(
                j for j, (_, (_, new_cost)) in improving.items()
                if -point.f2 - current[j][1] + new_cost <= instance.budget
            )
        else:
            affordable = frozenset(
                j for j, (i, _) in improving.items()
                if is_feasible(instance, (*xa[:j], i, *xa[j + 1:]))
            )
        if not affordable:
            run.termination = (
                Termination.BUDGET_BLOCKED if improving else Termination.NO_IMPROVEMENT
            )
            run.iterations.append(KissaIteration(*head, affordable, None, point))
            break

        chosen = _select(current, improving, affordable, config.rule)
        i, (new_profit, new_cost) = improving.pop(chosen)
        old_profit, old_cost = current[chosen]
        xa[chosen], current[chosen] = i, (new_profit, new_cost)
        if new_profit < anchor[chosen][0]:
            solve(chosen)
        else:
            candidates.discard(chosen)
        if exact_points is None:
            # integral frontier profits whose largest ones sum below 2**53:
            # a float sum of nonnegative integers reaches 2**53 exactly when
            # the integer sum does, and below it every sum is exact
            exact_points = exact and bool(
                np.all(view.profit == np.floor(view.profit))
                and view.profit[view.starts[1:] - 1].sum() < 2**53
            )
        if exact_points:
            point = ObjectivePoint(point.f1 - old_profit + new_profit, point.f2 + old_cost - new_cost)
        else:
            point = evaluate(instance, tuple(xa))
        run.improvements += 1
        run.iterations.append(KissaIteration(*head, affordable, chosen, point))

    run.final = tuple(xa)
    return run


def _select(current, improving, affordable, rule):
    """The affordable category to swap under ``rule``; ties go to the lowest.
    ``current`` and ``improving`` map categories as :func:`kissa`'s do."""

    if rule is SelectionRule.MAX_PROFIT:  # the largest resulting total profit
        return min((-(improving[j][1][0] - current[j][0]), j) for j in affordable)[1]
    if rule is SelectionRule.BEST_SLACK:  # the most budget left after the swap
        return min((improving[j][1][1] - current[j][1], j) for j in affordable)[1]
    return min(affordable)


def certify(instance: Instance, run: KissaRun) -> bool:
    """Exhaustive optimality check of a finished run's selection.

    True only when the selection space is small enough to enumerate, no
    selection dominates the final one in (profit, -cost), and its profit
    equals :func:`brute_force`'s optimum. Anything unverifiable yields
    False, never an error.
    """
    try:
        dominated = dominated_in_product(instance, run.final)
    except OracleGuardError:
        return False
    # brute_force's guard is above the enumeration guard passed here.
    return not dominated and (
        evaluate(instance, run.final).f1 == brute_force(instance).optimum_profit
    )
