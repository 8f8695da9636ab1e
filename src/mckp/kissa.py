"""Chebyshev gap-narrowing loop (KISSA).

Starting from a bisection straddle (feasible ``xa``, infeasible anchor
``xb``), the loop solves one augmented Chebyshev subproblem per category
where the anchor still holds a strict profit lead, over the category's
frontier items (reference point: per-category maxima plus epsilon; weights
derived from the current ``xa`` component and the fixed anchor component;
ties to the most profitable item), and each iteration swaps in one
improving component that keeps the selection within budget, a check in O(1)
where float cost sums are exact. Only the swapped category's subproblem
changes, so each accepted swap costs one re-solve. Profit strictly rises at
every accepted swap; the loop stops when no subproblem improves profit or
no improvement fits the budget.
"""

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .bissa import BissaResult, ObjectiveOverflowError
from .frontier import DEFAULT_RHO, delta_bound, solve_chebyshev_subproblem
from .model import (
    Instance,
    ObjectivePoint,
    Selection,
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
    lead = instance.profits[_positions(instance, xa)] < instance.profits[_positions(instance, xb)]
    return set(np.flatnonzero(lead).tolist())


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
    :class:`ObjectiveOverflowError` is raised before any iteration.
    The subproblem reads the category's frontier (its segment of
    ``Instance.frontier_view``, as a reversed array slice of (profit, cost)
    rows) from its most profitable item down, so a tie goes to the most
    profitable tied item and the run does not depend on the order of items
    within a category; at positive rho a dominated item never wins anyway.
    A winner counts only if it strictly out-profits the current component.

    A category's subproblem depends only on its own current component, its
    anchor component and its maxima, so the improving map is kept across
    iterations and only the swapped category is solved again. A swap is
    affordable when :func:`is_feasible` accepts the swapped selection. Where
    :func:`exact_cost_sums` holds, the working selection (feasible, frontier
    items only) has an exact float cost, so ``cost - old + new <= budget``
    gives that verdict in O(1).
    """
    if straddle.exact:
        return KissaRun(final=straddle.xa, termination=Termination(straddle.certificate))
    config = config or KissaConfig()
    rho = delta_bound(instance, rho=config.rho).rho
    xa = list(straddle.xa)
    point = evaluate(instance, straddle.xa)
    run = KissaRun(final=straddle.xa)

    candidates = improvable_categories(instance, straddle.xa, straddle.xb)
    if not candidates:
        raise AssertionError("straddle endpoints must differ in profit somewhere")
    # Each candidate's current and anchor (profit, cost), read once as Python
    # floats: the loop's scalar arithmetic stays off numpy scalars.
    def item(j, i):
        k = instance.starts.item(j) + i
        return instance.profits.item(k), instance.costs.item(k)

    current = {j: item(j, xa[j]) for j in candidates}
    anchor = {j: item(j, straddle.xb[j]) for j in candidates}
    if any(not current[j][1] < anchor[j][1] for j in candidates):
        raise AssertionError("feasible component must be cheaper where the anchor out-profits it")

    def above(top):
        return max(top + config.epsilon, math.nextafter(top, math.inf))

    # A candidate's subproblem items (a reversed slice of its frontier's
    # (profit, cost) rows, most profitable first, so that ties go to the most
    # profitable item), reference point and second weight stay fixed for the
    # run, and so does the view entry of its item 0, the last of its segment.
    view = instance.frontier_view
    rows = np.column_stack((view.profit, view.cost))
    segments = view.starts.tolist()
    subproblems = {}
    for j in candidates:
        a, b = segments[j], segments[j + 1]
        items = rows[a:b][::-1]
        top_profit, top_cost = map(float, items[0])
        low_profit, low_cost = map(float, items[-1])
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
        subproblems[j] = items, reference, 1.0 / anchor_gap, b - 1

    # each category's winner that beats its current component: (index, (profit, cost))
    improving: dict[int, tuple[int, tuple[float, float]]] = {}
    exact = exact_cost_sums(instance)

    def fits(j):
        i, (_, new_cost) = improving[j]
        if exact:
            return -point.f2 - current[j][1] + new_cost <= instance.budget
        return is_feasible(instance, (*xa[:j], i, *xa[j + 1:]))

    def solve(j):
        items, reference, w2, last = subproblems[j]
        w1 = 1.0 / (reference[0] - current[j][0])
        position = solve_chebyshev_subproblem(items, (w1, w2), reference, rho)
        winner = tuple(items[position].tolist())
        if winner[0] > current[j][0]:
            improving[j] = int(view.index[last - position]), winner

    for j in candidates:
        solve(j)

    for index in itertools.count(1):
        head = (index, frozenset(candidates), frozenset(improving))
        affordable = frozenset(filter(fits, improving))
        if not affordable:
            run.termination = (
                Termination.BUDGET_BLOCKED if improving else Termination.NO_IMPROVEMENT
            )
            run.iterations.append(KissaIteration(*head, affordable, None, point))
            break

        chosen = _select(current, improving, affordable, config.rule)
        xa[chosen], current[chosen] = improving.pop(chosen)
        if current[chosen][0] < anchor[chosen][0]:
            solve(chosen)
        else:
            candidates.discard(chosen)
        point = evaluate(instance, tuple(xa))
        run.improvements += 1
        run.iterations.append(KissaIteration(*head, affordable, chosen, point))

    run.final = tuple(xa)
    return run


def _select(current, improving, affordable, rule):
    """The affordable category to swap under ``rule``; ties go to the lowest.
    ``current`` and ``improving`` map categories as :func:`kissa`'s do."""

    def key(j):
        (profit, cost), (_, (new_profit, new_cost)) = current[j], improving[j]
        if rule is SelectionRule.MAX_PROFIT:
            return -(new_profit - profit), j  # the largest resulting total profit
        if rule is SelectionRule.BEST_SLACK:
            return new_cost - cost, j  # the most budget left after the swap
        return j

    return min(affordable, key=key)


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
