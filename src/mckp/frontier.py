"""Per-category frontier machinery.

Everything here works in objective space, where an item maps to the point
(profit, -cost) and both coordinates are maximized, and compares items only
within their own category. The nondominated items of every category are
in ``Instance.frontier_view``, flat numpy arrays that ``mckp.model``
builds once per instance from the item arrays (``model.pareto_filter``
runs the same builder on one category); this module adds:

* ``delta_bound``        -- a computable lower bound on the trade-off ratios
  of frontier item pairs, taken over every category of the instance at once;
  any augmentation factor below it makes the augmented Chebyshev
  scalarization characterize exactly the nondominated items. A pair's ratio
  is ``1 / (s - 1)`` for its slope ``s``, and costs and profits rise strictly
  along a frontier, so the steepest slope lies between frontier neighbours,
  and one vectorized division over the neighbour pairs of the flat view
  gives the bound in O(n),
* ``solve_chebyshev_subproblem`` -- argmin of the augmented weighted
  Chebyshev distance (``chebyshev_value``, one formula for a float or an
  array) to a reference point that strictly dominates the given items,
* ``chebyshev_winners`` -- the same argmin for several categories'
  frontiers at once, in one array pass over their rows of the view.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import Instance, MCKPError

DEFAULT_RHO = 1e-7


class InvalidReferencePointError(MCKPError):
    """Reference point does not strictly dominate the category, or weights/rho invalid."""


@dataclass(frozen=True)
class RhoBound:
    """Conservative trade-off bound ``delta`` and the augmentation ``rho`` to use.

    ``delta`` is taken over frontier item pairs only: a dominated item scores
    strictly worse than an item that dominates it at any positive rho, so it
    neither wins a subproblem nor hides a frontier item. It is +inf when no
    frontier pair imposes a constraint; otherwise
    ``rho = min(requested rho, delta / 2)`` so the strict inequality required
    for exact Pareto characterization holds with margin. ``rho`` is floored
    at ``math.ulp(0.0)``: where ``delta / 2`` underflows no positive float lies
    below ``delta``, and any positive rho keeps Chebyshev winners
    nondominated, which is all KISSA relies on.
    """

    delta: float
    rho: float


def delta_bound(instance: Instance, rho: float = DEFAULT_RHO) -> RhoBound:
    """Conservative trade-off bound over all categories and the rho to run with.

    ``delta`` is the smallest ratio, over ordered pairs (t, u) of frontier
    items of one category (``Instance.frontier_view``) with ``sum(d_u - d_t) > 0``
    in (profit, -cost) coordinates, of the smallest strictly positive
    coordinate of ``d_t - d_u`` to ``sum(d_u - d_t)``. Along a frontier both
    profit and cost rise strictly, so a pair rising by ``dp`` in profit and
    ``dc`` in cost has the ratio ``min(dp, dc) / abs(dp - dc)`` when
    ``dp != dc``, and none otherwise. That is ``1 / (s - 1)`` for its slope
    ``s = max(dp, dc) / min(dp, dc)``, and the steepest slopes lie between
    frontier neighbours (any longer rise averages the neighbouring ones), so
    ``delta`` is the least ratio over neighbours, taken in one array
    division over the view's neighbour pairs that lie in one category and
    have ``dp != dc``. Each ratio is the division the pairwise definition
    makes, so on integer coefficients ``delta`` has the same bits as a scan
    over all frontier pairs.

    ``rho`` defaults to 1e-7 and is clipped to ``delta / 2`` whenever the
    bound is finite (floored as :class:`RhoBound` says), keeping the strict
    inequality with rounding margin.
    Instances where no frontier pair qualifies (for example, single-item
    frontiers, or neighbours rising equally in profit and cost) yield the
    +inf sentinel and the requested rho unchanged.
    """
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError("rho must be positive and finite")
    view = instance.frontier_view
    # neighbours within one category, rising by dp in profit and dc in cost
    inner = view.category[1:] == view.category[:-1]
    dp = (view.profit[1:] - view.profit[:-1])[inner]
    dc = (view.cost[1:] - view.cost[:-1])[inner]
    unequal = dp != dc
    dp, dc = dp[unequal], dc[unequal]
    delta = float(np.min(np.minimum(dp, dc) / np.abs(dp - dc))) if dp.size else math.inf
    used = rho if math.isinf(delta) else max(min(rho, delta / 2.0), math.ulp(0.0))
    return RhoBound(delta=delta, rho=used)


def chebyshev_value(
    item_profit,
    item_cost,
    weights: tuple[float, float],
    reference: tuple[float, float],
    rho: float,
):
    """Augmented weighted Chebyshev value of items against a reference point.

    ``max_l  w_l * ((y*_l - d_l) + rho * sum_s (y*_s - d_s))`` with
    d = (profit, -cost). Smaller is better. ``item_profit`` and
    ``item_cost`` are floats or arrays of them; an array gives each item
    the bits of the float formula, and values past the float range are
    infinite, without a warning.
    """
    with np.errstate(over="ignore"):
        g1 = reference[0] - item_profit
        g2 = reference[1] + item_cost
        aug = rho * (g1 + g2)
        return np.maximum(weights[0] * (g1 + aug), weights[1] * (g2 + aug))


def solve_chebyshev_subproblem(
    cat,
    weights: tuple[float, float],
    reference: tuple[float, float],
    rho: float,
) -> int:
    """Position in ``cat`` minimizing the augmented Chebyshev value; ties to
    the lowest position.

    ``cat`` is any non-empty sequence of (profit, cost) pairs or an (n, 2)
    array of them, such as a category, the items of its frontier or the
    rows of its segment of ``Instance.frontier_view``. The reference point
    must strictly dominate every given item's (profit, -cost) pair (a NaN
    coordinate never does) and weights/rho must be positive (a NaN is not),
    otherwise :class:`InvalidReferencePointError` is raised. With any
    positive rho the winner is nondominated among the given items; with
    ``rho < delta_bound`` every nondominated item wins for some weights.
    """
    items = np.asarray(cat, np.float64)
    if not len(items):
        raise ValueError("category must be non-empty")
    if not (weights[0] > 0 and weights[1] > 0):
        raise InvalidReferencePointError("weights must be strictly positive")
    if not (math.isfinite(rho) and rho > 0):
        raise InvalidReferencePointError("rho must be strictly positive and finite")
    profit, cost = items.T
    if not ((profit < reference[0]).all() and (-cost < reference[1]).all()):
        raise InvalidReferencePointError(
            "reference point must strictly dominate every item of the category"
        )
    return int(chebyshev_value(profit, cost, weights, reference, rho).argmin())


def chebyshev_winners(view, categories, weights, references, rho: float) -> np.ndarray:
    """Each category's Chebyshev winner among its frontier rows: the view
    position minimizing :func:`chebyshev_value`, ties to the most profitable.

    ``view`` is an ``Instance.frontier_view`` and ``categories`` a
    non-empty sequence of its categories. Category
    ``categories[k]`` is scored with the weights ``(weights[0][k],
    weights[1][k])`` and the reference point ``(references[0][k],
    references[1][k])``, which must strictly dominate each of its rows, with
    positive weights and a positive, finite rho (unchecked). Every row of
    these categories is scored in one array pass, with each row's bits of
    the float formula, and the winner is the last row of its segment (the
    most profitable) holding the segment's minimum: the row
    :func:`solve_chebyshev_subproblem` picks from the segment's rows
    reversed, the most profitable first.
    """
    categories = np.asarray(categories)
    starts = view.starts[categories]
    sizes = view.starts[categories + 1] - starts
    # where each segment ends and starts among the scored rows
    ends = np.cumsum(sizes)
    heads = ends - sizes
    rows = np.repeat(starts - heads, sizes) + np.arange(ends.item(-1))
    w1, w2, r1, r2 = np.repeat(np.array((*weights, *references)), sizes, axis=1)
    values = chebyshev_value(view.profit[rows], view.cost[rows], (w1, w2), (r1, r2), rho)
    low = np.repeat(np.minimum.reduceat(values, heads), sizes)
    return np.maximum.reduceat(np.where(values == low, rows, -1), heads)
