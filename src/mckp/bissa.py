"""Weight-bisection front-end (BISSA).

The linear scalarization w*profit - (1-w)*cost is additively separable, so
its maximizer over the selection space is a per-category argmax, taken over
each category's nondominated items (``Instance.frontier_view``). Sweeping w
from 0 to 1 walks the supported (convex-hull) nondominated selections from
cheapest to most profitable. ``bissa`` bisects on w until it either proves
optimality (the max-profit selection fits the budget, or some supported
selection spends the budget exactly where float cost sums are exact) or
produces a straddle pair: two hull-adjacent supported selections, one
feasible and one infeasible, bracketing the budget.

Each bisection step evaluates the critical weight at which the current pair
scalarizes equally. A probe whose cost lies strictly inside the bracket
replaces the endpoint on its side of the budget; any other probe certifies
adjacency and stops the loop. In exact arithmetic such a probe reproduces a
known pair; rounded sums can also put it outside the bracket.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    InfeasibleInstanceError,
    Instance,
    MCKPError,
    ObjectivePoint,
    Selection,
    _objective,
    exact_cost_sums,
)

MAX_BISECTION_STEPS = 200


class BisectionLimitError(MCKPError):
    """Safety valve: the bisection did not converge within the step limit."""


class ObjectiveOverflowError(MCKPError):
    """Objective sums too large: doubling one leaves the float range."""


class WeightStep(NamedTuple):
    """One scalarization evaluation of the bisection audit trail."""

    weight: float
    selection: Selection
    feasible: bool


@dataclass
class BissaResult:
    """Outcome of the bisection front-end.

    With ``xb`` None the result is ``exact``: ``xa`` is certifiably optimal
    and ``certificate`` says why. Otherwise ``certificate`` is None, ``xa``
    is feasible, ``xb`` infeasible, and both are supported nondominated with
    component-wise nondominated items.
    """

    xa: Selection
    xb: Selection | None
    certificate: str | None
    trace: list[WeightStep]

    @property
    def exact(self) -> bool:
        return self.xb is None


def solve_linear(instance: Instance, w: float) -> Selection:
    """Per-category argmax of w*profit - (1-w)*cost over the category's frontier.

    All frontier items are scored at once (``Instance.frontier_view``), each
    with the same two products and one difference. Costs rise strictly
    along a frontier, so the first maximum is the cheapest one. The result
    is nondominated at every w in [0, 1], and supported nondominated for w
    strictly inside (0, 1).
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError("weight must lie in [0, 1]")
    view = instance.frontier_view
    score = w * view.profit - (1.0 - w) * view.cost
    top = np.maximum.reduceat(score, view.starts[:-1])
    hits = np.flatnonzero(score == top[view.category])
    # each category's first hit: the hits are in category order
    hit_category = view.category[hits]
    first = hits[np.concatenate(([True], hit_category[1:] != hit_category[:-1]))]
    return tuple(view.index[first].tolist())


def bissa(instance: Instance) -> BissaResult:
    """Bisect the scalarization weight until optimality or a straddle pair.

    Raises :class:`ObjectiveOverflowError` when twice the profit or cost of
    the max-profit probe (each frontier's last item) is not finite, where
    weights would overflow, and :class:`InfeasibleInstanceError` when the
    minimum-cost selection exceeds the budget. Convergence is detected on
    probe costs, never on weights: every step that does not stop narrows the
    bracket to a cost strictly inside it, so the loop ends;
    :class:`BisectionLimitError` after 200 steps guards against bugs.

    ``max-profit-feasible`` needs no precondition: a float sum taken in
    category order never falls when one of its terms rises. ``zero-slack``
    needs :func:`exact_cost_sums`; elsewhere the probe is an ordinary
    feasible one, since a rounded cost sum can hide a selection that fits.
    """
    trace: list[WeightStep] = []

    def probe(w: float) -> tuple[Selection, ObjectivePoint, bool]:
        sel = solve_linear(instance, w)
        # solve_linear gives valid item indices: no evaluate checks them again
        k = instance.starts[:-1] + np.fromiter(sel, np.int64, len(sel))
        point = _objective(instance, k)
        feasible = point.f2 >= -instance.budget
        trace.append(WeightStep(w, sel, feasible))
        return sel, point, feasible

    # Max-profit endpoint: w=1 picks the cheapest among the most profitable,
    # so feasibility here certifies optimality outright.
    x, p, feasible = probe(1.0)
    if not all(math.isfinite(2 * v) for v in p):
        raise ObjectiveOverflowError(f"sums too large for floats: profit {p.f1:g}, cost {-p.f2:g}")
    certificate = "max-profit-feasible"
    if not feasible:
        xa, pa = None, None
        xb, pb = x, p
        w = 0.0
        # The first probe, at w=0, is the min-cost anchor, the rest bisection steps.
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
            # Weight at which the current pair scalarizes equally; in (0, 1)
            # because pa.f2 > pb.f2 and pb.f1 > pa.f1.
            w = (pa.f2 - pb.f2) / ((pa.f2 - pb.f2) + (pb.f1 - pa.f1))
        else:
            raise BisectionLimitError(
                f"no convergence within {MAX_BISECTION_STEPS} bisection steps"
            )
    return BissaResult(xa=x, xb=None, certificate=certificate, trace=trace)

