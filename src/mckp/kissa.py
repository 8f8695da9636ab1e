"""Chebyshev gap-narrowing loop (KISSA).

Starting from a bisection straddle (feasible ``xa``, infeasible anchor
``xb``), the loop solves one augmented Chebyshev subproblem per category
where the anchor still holds a strict profit lead (reference point:
per-category maxima plus epsilon; weights derived from the current ``xa``
component and the fixed anchor component), and each iteration swaps in one
improving component that keeps the selection within budget. Only the
swapped category's subproblem changes, so each accepted swap costs one
re-solve. Profit strictly increases at every accepted swap; the loop stops
when no subproblem improves profit or no improvement fits the budget.
"""

import enum
from dataclasses import dataclass, field

from .bissa import BissaResult
from .frontier import DEFAULT_RHO, delta_bound, solve_chebyshev_subproblem
from .model import Instance, ObjectivePoint, Selection, evaluate, is_feasible
from .oracle import OracleGuardError, dominated_in_product

DEFAULT_EPSILON = 1e-4


class SelectionRule(enum.Enum):
    """How to pick the category to swap among the affordable improvements."""

    MAX_PROFIT = "max-profit"
    FIRST = "first"
    BEST_SLACK = "best-slack"


class Termination(enum.Enum):
    NO_IMPROVEMENT = "no-improvement"      # no subproblem beat the current component
    BUDGET_BLOCKED = "budget-blocked"      # every improvement busts the budget
    ITERATION_LIMIT = "iteration-limit"    # safety valve; signals a cycle bug


@dataclass(frozen=True)
class KissaConfig:
    rho: float = DEFAULT_RHO
    epsilon: float = DEFAULT_EPSILON
    rule: SelectionRule = SelectionRule.MAX_PROFIT
    max_iterations: int = 10_000

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


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
    optimal_certificate: bool = False


def improvable_categories(instance: Instance, xa: Selection, xb: Selection) -> set[int]:
    """Categories where the anchor component strictly out-profits the current one."""
    return {
        j
        for j in range(instance.m)
        if instance.categories[j][xa[j]].profit < instance.categories[j][xb[j]].profit
    }


def _reference(cat, epsilon: float) -> tuple[float, float]:
    """Per-category maxima of (profit, -cost), each shifted up by epsilon."""
    return (
        max(item.profit for item in cat) + epsilon,
        max(-item.cost for item in cat) + epsilon,
    )


def _gain(cat, current: int, anchor: int, reference, rho: float) -> int | None:
    """Chebyshev winner of one category if it strictly out-profits ``current``."""
    w1 = 1.0 / (reference[0] - cat[current].profit)
    w2 = 1.0 / (reference[1] + cat[anchor].cost)
    winner = solve_chebyshev_subproblem(cat, (w1, w2), reference, rho)
    return winner if cat[winner].profit > cat[current].profit else None


def chebyshev_step(
    instance: Instance,
    xa: Selection,
    xb: Selection,
    rho: float,
    epsilon: float,
    candidates: set[int] | None = None,
) -> dict[int, int]:
    """One Chebyshev pass over the improvable categories.

    For each candidate category, the reference point is the per-category
    maxima of (profit, -cost) shifted up by epsilon, the first weight is the
    reciprocal profit gap of the current component and the second the
    reciprocal cost gap of the anchor component. Returns only the strict
    profit improvements, as a mapping from category index to winning item.
    """
    if candidates is None:
        candidates = improvable_categories(instance, xa, xb)
    improving: dict[int, int] = {}
    for j in sorted(candidates):
        cat = instance.categories[j]
        winner = _gain(cat, xa[j], xb[j], _reference(cat, epsilon), rho)
        if winner is not None:
            improving[j] = winner
    return improving


def kissa(instance: Instance, straddle: BissaResult, config: KissaConfig | None = None) -> KissaRun:
    """Run the improvement loop from a non-exact bisection straddle.

    The anchor ``straddle.xb`` stays fixed for the whole run. The returned
    selection is always feasible with profit at least that of
    ``straddle.xa``; ``improvements`` counts accepted swaps and the iteration
    list records the full trace. ``optimal_certificate`` is left False; use
    :func:`certify` to attempt a brute-force certificate.

    A category's subproblem depends only on its own current component, its
    anchor component and its maxima, so the improving map is kept across
    iterations and only the swapped category is solved again. A swap is
    affordable when the swapped selection passes :func:`is_feasible`, the
    same summation that judges the returned selection.
    """
    if straddle.exact or straddle.xb is None:
        raise ValueError("straddle is already exact; nothing to improve")
    config = config or KissaConfig()
    rho = delta_bound(instance, rho=config.rho).rho
    cats = instance.categories
    xa = list(straddle.xa)
    xb = straddle.xb
    point = evaluate(instance, straddle.xa)
    run = KissaRun(final=straddle.xa)

    candidates = improvable_categories(instance, straddle.xa, xb)
    if not candidates:
        raise AssertionError("straddle endpoints must differ in profit somewhere")
    for j in candidates:
        if not cats[j][xa[j]].cost < cats[j][xb[j]].cost:
            raise AssertionError(
                "feasible component must be cheaper where the anchor out-profits it"
            )
    # Categories only ever leave the candidate set: a swap raises profit.
    references = {j: _reference(cats[j], config.epsilon) for j in candidates}
    improving: dict[int, int] = {}

    def solve(j):
        winner = _gain(cats[j], xa[j], xb[j], references[j], rho)
        if winner is not None:
            improving[j] = winner

    for j in candidates:
        solve(j)

    for index in range(1, config.max_iterations + 1):
        head = (index, frozenset(candidates), frozenset(improving))
        affordable = frozenset(
            j for j, i in improving.items()
            if is_feasible(instance, (*xa[:j], i, *xa[j + 1:]))
        )
        if not affordable:
            run.termination = (
                Termination.BUDGET_BLOCKED if improving else Termination.NO_IMPROVEMENT
            )
            run.iterations.append(KissaIteration(*head, affordable, None, point))
            break

        chosen = _select(instance, xa, improving, affordable, config.rule)
        xa[chosen] = improving.pop(chosen)
        if cats[chosen][xa[chosen]].profit < cats[chosen][xb[chosen]].profit:
            solve(chosen)
        else:
            candidates.discard(chosen)
        point = evaluate(instance, tuple(xa))
        run.improvements += 1
        run.iterations.append(KissaIteration(*head, affordable, chosen, point))
    else:
        run.termination = Termination.ITERATION_LIMIT

    run.final = tuple(xa)
    return run


def _select(instance, xa, improving, affordable, rule):
    if rule is SelectionRule.FIRST:
        return min(affordable)
    if rule is SelectionRule.BEST_SLACK:
        # Max remaining budget after the swap; ties to the lowest category.
        return min(
            affordable,
            key=lambda j: (
                instance.categories[j][improving[j]].cost
                - instance.categories[j][xa[j]].cost,
                j,
            ),
        )
    # MAX_PROFIT: the swap with the largest resulting total profit.
    return max(
        affordable,
        key=lambda j: (
            instance.categories[j][improving[j]].profit
            - instance.categories[j][xa[j]].profit,
            -j,
        ),
    )


def certify(instance: Instance, run: KissaRun, oracle_pareto_check: bool) -> bool:
    """Brute-force optimality certificate for a finished run.

    True only when the loop stopped regularly (not via the iteration limit),
    the caller allowed the exhaustive check, the selection space is small
    enough to enumerate, and no selection dominates the final one in
    (profit, -cost). Anything unverifiable yields False, never an error.
    """
    if run.termination is Termination.ITERATION_LIMIT:
        return False
    if not oracle_pareto_check:
        return False
    try:
        return not dominated_in_product(instance, run.final)
    except OracleGuardError:
        return False
