"""Per-category frontier machinery.

Everything here works on a single category in objective space, where an item
maps to the point (profit, -cost) and both coordinates are maximized:

* ``pareto_filter``      -- the nondominated items of a category,
* ``supported_filter``   -- the subset on the upper convex hull (the items
  reachable by positive-weight linear scalarization),
* ``delta_bound``        -- a computable lower bound on pairwise trade-off
  ratios; any augmentation factor below it makes the augmented Chebyshev
  scalarization characterize exactly the nondominated items. A pair's ratio
  is ``1 / (s - 1)`` for its slope ``s``, and the steepest slope lies between
  neighbouring items in profit or cost order, so one sort per coordinate
  gives the bound in O(n log n),
* ``solve_chebyshev_subproblem`` -- argmin of the augmented weighted
  Chebyshev distance to a reference point that strictly dominates the
  category.
"""

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .model import Category, Instance, MCKPError

DEFAULT_RHO = 1e-7


class InvalidReferencePointError(MCKPError):
    """Reference point does not strictly dominate the category, or weights/rho invalid."""


@dataclass(frozen=True)
class CategoryFrontier:
    """Nondominated item indices of one category, sorted by increasing profit.

    Aligned profit/cost views are stored alongside the indices: profits are
    strictly increasing and costs strictly increasing (no two frontier items
    share an objective pair; duplicates collapse to the lowest item index).
    """

    category_index: int
    pareto_items: tuple[int, ...]
    profits: tuple[float, ...]
    costs: tuple[float, ...]


@dataclass(frozen=True)
class SupportedFrontier:
    """Frontier subsequence on the upper convex hull in (profit, -cost) space.

    Every hull item maximizes w*profit - (1-w)*cost for some weight w; points
    interior to a hull segment (collinear) are kept, so consecutive slopes
    are non-increasing rather than strictly decreasing.
    """

    category_index: int
    hull_items: tuple[int, ...]


@dataclass(frozen=True)
class RhoBound:
    """Conservative trade-off bound ``delta`` and the augmentation ``rho`` to use.

    ``delta`` is +inf when no item pair imposes a constraint; otherwise
    ``rho = min(requested rho, delta / 2)`` so the strict inequality required
    for exact Pareto characterization holds with margin.
    """

    delta: float
    rho: float


def pareto_filter(cat: Category, category_index: int = 0) -> CategoryFrontier:
    """Nondominated items of a category under (max profit, min cost).

    Items with identical objective pairs collapse to the lowest index.
    """
    if not cat:
        raise ValueError("category must be non-empty")
    # Scan profit groups from high to low, keeping the running cheapest cost.
    order = sorted(range(len(cat)), key=lambda i: (-cat[i].profit, cat[i].cost, i))
    kept: list[int] = []
    best_cost = math.inf
    pos = 0
    while pos < len(order):
        profit = cat[order[pos]].profit
        group_end = pos
        while group_end < len(order) and cat[order[group_end]].profit == profit:
            group_end += 1
        group = order[pos:group_end]
        cheapest = min(cat[i].cost for i in group)
        if cheapest < best_cost:
            kept.append(min(i for i in group if cat[i].cost == cheapest))
            best_cost = cheapest
        pos = group_end
    kept.reverse()  # increasing profit
    return CategoryFrontier(
        category_index=category_index,
        pareto_items=tuple(kept),
        profits=tuple(cat[i].profit for i in kept),
        costs=tuple(cat[i].cost for i in kept),
    )


def supported_filter(frontier: CategoryFrontier, cat: Category) -> SupportedFrontier:
    """Upper-hull subsequence of a category frontier in (profit, -cost) space.

    Expects ``frontier == pareto_filter(cat)``. Collinear frontier points are
    all hull members (each maximizes the shared-weight scalarization).
    """
    idx = frontier.pareto_items
    if len(idx) <= 2:
        return SupportedFrontier(frontier.category_index, idx)
    hull: list[int] = []
    for i in idx:
        x, y = cat[i].profit, -cat[i].cost
        # Pop the middle point while it lies strictly below the new chord.
        while len(hull) >= 2:
            x1, y1 = cat[hull[-2]].profit, -cat[hull[-2]].cost
            x2, y2 = cat[hull[-1]].profit, -cat[hull[-1]].cost
            # slope(p1->p2) < slope(p2->p3), cross-multiplied (dx > 0 on a frontier)
            if (y2 - y1) * (x - x2) < (y - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(i)
    return SupportedFrontier(frontier.category_index, tuple(hull))


def _steepest_trade_off(owner, x, y):
    """Smallest ``dx / (dy - dx)`` over neighbouring distinct-``x`` groups.

    ``owner`` holds each item's category index in non-decreasing order. Within
    a category the items are sorted by ``x`` and grouped by equal ``x``; each
    pair of neighbouring groups contributes the steepest rise between them,
    ``dy`` = max ``y`` of the right group minus min ``y`` of the left group,
    over ``dx`` = the gap in ``x``. Only rises with ``dy > dx`` count.
    """
    order = np.lexsort((x, owner))
    owner, x, y = owner[order], x[order], y[order]
    starts = np.flatnonzero(
        np.concatenate(([True], (owner[1:] != owner[:-1]) | (x[1:] != x[:-1])))
    )
    low = np.minimum.reduceat(y, starts)
    high = np.maximum.reduceat(y, starts)
    owner, x = owner[starts], x[starts]
    dx = x[1:] - x[:-1]
    dy = high[1:] - low[:-1]
    steep = (owner[1:] == owner[:-1]) & (dy > dx)
    if not steep.any():
        return math.inf
    return float((dx[steep] / (dy[steep] - dx[steep])).min())


def delta_bound(instance: Instance, rho: float = DEFAULT_RHO) -> RhoBound:
    """Conservative trade-off bound over all categories and the rho to run with.

    ``delta`` is the smallest ratio, over ordered item pairs (t, u) of one
    category with ``sum(d_u - d_t) > 0`` in (profit, -cost) coordinates, of
    the smallest strictly positive coordinate of ``d_t - d_u`` to
    ``sum(d_u - d_t)``. Such a pair has exactly one positive coordinate
    advantage, so its ratio is ``1 / (s - 1)``, where ``s > 1`` is the cost
    rise over the profit rise, or the profit rise over the cost rise, of a
    pair rising in both profit and cost.
    The steepest slope between points sorted by x lies between neighbouring
    distinct-x groups (any longer rise averages the neighbouring ones), so two
    sorted passes, x = profit and x = cost, give ``delta`` exactly in
    O(n log n). Each ratio is one division of coordinate differences, so on
    integer coefficients ``delta`` has the same bits as a scan over all pairs.

    ``rho`` defaults to 1e-7 and is clipped to ``delta / 2`` whenever the
    bound is finite, keeping the strict inequality with rounding margin.
    Instances where no pair qualifies (for example, all items
    objective-identical per category) yield the +inf sentinel and the
    requested rho unchanged.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    owner = np.repeat(np.arange(instance.m), instance.sizes)
    flat = chain.from_iterable(chain.from_iterable(instance.categories))
    items = np.fromiter(flat, dtype=np.float64, count=2 * len(owner)).reshape(-1, 2)
    profits, costs = items[:, 0], items[:, 1]
    delta = min(
        _steepest_trade_off(owner, profits, costs),
        _steepest_trade_off(owner, costs, profits),
    )
    used = rho if math.isinf(delta) else min(rho, delta / 2.0)
    return RhoBound(delta=delta, rho=used)


def chebyshev_value(
    item_profit: float,
    item_cost: float,
    weights: tuple[float, float],
    reference: tuple[float, float],
    rho: float,
) -> float:
    """Augmented weighted Chebyshev value of one item against a reference point.

    ``max_l  w_l * ((y*_l - d_l) + rho * sum_s (y*_s - d_s))`` with
    d = (profit, -cost). Smaller is better.
    """
    g1 = reference[0] - item_profit
    g2 = reference[1] + item_cost
    aug = rho * (g1 + g2)
    return max(weights[0] * (g1 + aug), weights[1] * (g2 + aug))


def solve_chebyshev_subproblem(
    cat: Category,
    weights: tuple[float, float],
    reference: tuple[float, float],
    rho: float,
) -> int:
    """Item of ``cat`` minimizing the augmented Chebyshev value; ties to lowest index.

    The reference point must strictly dominate every item's (profit, -cost)
    pair and weights/rho must be positive, otherwise
    :class:`InvalidReferencePointError` is raised. With any positive rho the
    winner is nondominated within the category; with ``rho < delta_bound``
    every nondominated item is reachable by a suitable weight vector.
    """
    if not cat:
        raise ValueError("category must be non-empty")
    if weights[0] <= 0 or weights[1] <= 0:
        raise InvalidReferencePointError("weights must be strictly positive")
    if rho <= 0:
        raise InvalidReferencePointError("rho must be strictly positive")
    max_p = max(item.profit for item in cat)
    max_f2 = max(-item.cost for item in cat)
    if reference[0] <= max_p or reference[1] <= max_f2:
        raise InvalidReferencePointError(
            "reference point must strictly dominate every item of the category"
        )
    best_index = 0
    best_value = math.inf
    for i, item in enumerate(cat):
        value = chebyshev_value(item.profit, item.cost, weights, reference, rho)
        if value < best_value:
            best_value = value
            best_index = i
    return best_index
