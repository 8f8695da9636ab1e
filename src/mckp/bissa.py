"""Weight-bisection front-end (BISSA).

The linear scalarization w*profit - (1-w)*cost is additively separable, so
its maximizer over the selection space is a per-category argmax. Sweeping w
from 0 to 1 walks the supported (convex-hull) nondominated selections from
cheapest to most profitable. ``bissa`` bisects on w until it either proves
optimality (the max-profit selection fits the budget, or some supported
selection spends the budget exactly) or produces a straddle pair: two
hull-adjacent supported selections, one feasible and one infeasible,
bracketing the budget.

Each bisection step evaluates the critical weight at which the current pair
scalarizes equally; the step either discovers a new supported objective pair
strictly between them or reproduces a known pair, which certifies adjacency
and stops the loop.
"""

from dataclasses import dataclass
from typing import NamedTuple

from .model import (
    InfeasibleInstanceError,
    Instance,
    MCKPError,
    ObjectivePoint,
    Selection,
    evaluate,
)

MAX_BISECTION_STEPS = 200


class BisectionLimitError(MCKPError):
    """Safety valve: the bisection did not converge within the step limit."""


class WeightStep(NamedTuple):
    """One scalarization evaluation of the bisection audit trail."""

    weight: float
    selection: Selection
    feasible: bool


@dataclass
class BissaResult:
    """Outcome of the bisection front-end.

    ``exact`` means ``xa`` is certifiably optimal (``certificate`` says why)
    and ``xb`` is None. Otherwise ``xa`` is feasible, ``xb`` infeasible, both
    supported nondominated with component-wise nondominated items, and
    ``gap_cost = cost(xb) - cost(xa) > 0`` measures the bracketing width.
    """

    xa: Selection
    xb: Selection | None
    gap_cost: float
    exact: bool
    certificate: str | None
    trace: list[WeightStep]


def solve_linear(instance: Instance, w: float) -> Selection:
    """Per-category argmax of w*profit - (1-w)*cost.

    Ties break to the lower cost, then the lower item index. For w strictly
    inside (0, 1) the result is supported nondominated; at the endpoints the
    tie rule alone decides and the result may be only weakly nondominated.
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError("weight must lie in [0, 1]")
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


def _min_cost_anchor_weight(instance: Instance) -> float:
    """A strictly positive weight at which solve_linear returns the
    nondominated minimum-cost endpoint of the supported frontier.

    For each category let j* be the cheapest item (ties: most profitable,
    then lowest index). Any other item i overtakes j* in the scalarization
    only above the weight dc/(dp+dc) with dc = cost_i - cost_j* > 0 and
    dp = profit_i - profit_j* > 0; half the smallest such threshold keeps
    every j* optimal while the positive weight resolves equal-cost ties in
    favor of profit.
    """
    threshold = 1.0
    for cat in instance.categories:
        star = min(range(len(cat)), key=lambda i: (cat[i].cost, -cat[i].profit, i))
        p0, c0 = cat[star].profit, cat[star].cost
        for item in cat:
            dc = item.cost - c0
            dp = item.profit - p0
            if dc > 0 and dp > 0:
                threshold = min(threshold, dc / (dp + dc))
    return threshold / 2.0


def bissa(instance: Instance) -> BissaResult:
    """Bisect the scalarization weight until optimality or a straddle pair.

    Raises :class:`InfeasibleInstanceError` when the minimum-cost selection
    already exceeds the budget. Convergence is detected on objective pairs,
    never on weights; :class:`BisectionLimitError` after 200 steps guards
    against bugs.
    """
    trace: list[WeightStep] = []

    def probe(w: float) -> tuple[Selection, ObjectivePoint, bool]:
        sel = solve_linear(instance, w)
        point = evaluate(instance, sel)
        feasible = point.f2 >= -instance.budget
        trace.append(WeightStep(w, sel, feasible))
        return sel, point, feasible

    # Max-profit endpoint: tie rule at w=1 picks the cheapest among the most
    # profitable, so feasibility here certifies optimality outright.
    x, p, feasible = probe(1.0)
    certificate = "max-profit-feasible"
    if not feasible:
        xa, pa = None, None
        xb, pb = x, p
        w = _min_cost_anchor_weight(instance)
        # The first probe is the min-cost anchor, the rest bisection steps.
        for _ in range(MAX_BISECTION_STEPS + 1):
            x, p, feasible = probe(w)
            if pa is None and not feasible:
                raise InfeasibleInstanceError(
                    f"minimum selection cost {-p.f2} exceeds budget {instance.budget}"
                )
            if p.f2 == -instance.budget:
                certificate = "zero-slack"
                break
            if p == pa or p == pb:
                return BissaResult(
                    xa=xa,
                    xb=xb,
                    gap_cost=pa.f2 - pb.f2,
                    exact=False,
                    certificate=None,
                    trace=trace,
                )
            if feasible:
                xa, pa = x, p
            else:
                xb, pb = x, p
            # Weight at which the current pair scalarizes equally; in (0, 1)
            # because pa.f2 > pb.f2 and pb.f1 > pa.f1.
            w = (pa.f2 - pb.f2) / ((pa.f2 - pb.f2) + (pb.f1 - pa.f1))
        else:
            raise BisectionLimitError(
                f"no convergence within {MAX_BISECTION_STEPS} bisection steps"
            )
    return BissaResult(
        xa=x,
        xb=None,
        gap_cost=0.0,
        exact=True,
        certificate=certificate,
        trace=trace,
    )
