"""Ground-truth solvers for verification.

``brute_force`` and ``pareto_enumerate`` (every nondominated selection)
read one guarded numpy table of every selection's image. ``dp_solve`` is a
pseudo-polynomial dynamic program over the cost dimension for integer
instances. On integral profits it first takes the LP relaxation in array
passes over the flat frontier view, exact in int64 or, past that range, in
Python integers; then it fills the core of the relaxation and a second,
wider table only when the first cannot decide, each table guarded. Every
table reads its rows in place, as positions in that view. These
exist to check the heuristics and each other, not to compete with them;
guards fail loudly instead of degrading.
"""

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    InfeasibleInstanceError,
    Instance,
    MCKPError,
    ObjectivePoint,
    Selection,
    evaluate,
    exact_cost_sums,
)

BRUTE_FORCE_LIMIT = 10**7
ENUMERATION_LIMIT = 10**5
MEMORY_LIMIT_BYTES = 2 << 30


class OracleGuardError(MCKPError):
    """State space or memory estimate exceeds the oracle guard."""


class NonIntegerInstanceError(MCKPError):
    """dp_solve requires an integer budget and ``model.exact_cost_sums``:
    integer frontier costs, and either a budget below 2**53 or largest
    frontier costs that sum to at most 2**53."""


class Method(enum.Enum):
    BRUTE = "brute"
    DP = "dp"


@dataclass(frozen=True)
class ExactResult:
    optimum_profit: float
    optimum_selection: Selection
    method: Method


def _images(instance: Instance, limit: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``(f1, f2)`` of every selection in lexicographic order, as float64
    arrays, or :class:`OracleGuardError` past ``limit`` selections.

    One outer sum per category from 0.0: the same IEEE additions in the same
    order as ``evaluate``, so every entry has its bits (overflow gives inf).
    """
    count = math.prod(instance.sizes)
    if count > limit:
        raise OracleGuardError(f"{what}: selection space {count} exceeds guard {limit}")
    profits, costs, starts = instance.profits, instance.costs, instance.starts.tolist()
    f1 = f2 = np.zeros(1)
    with np.errstate(over="ignore"):
        for a, b in zip(starts, starts[1:]):
            f1 = np.add.outer(f1, profits[a:b]).ravel()
            f2 = np.subtract.outer(f2, costs[a:b]).ravel()
    return f1, f2


def _selection(instance: Instance, position: int) -> Selection:
    """The selection at ``position`` in the lexicographic order of :func:`_images`."""
    sel = []
    for n in reversed(instance.sizes):
        position, i = divmod(position, n)
        sel.append(i)
    return tuple(reversed(sel))


def brute_force(instance: Instance) -> ExactResult:
    """Exhaustive maximum-profit feasible selection; ties to the
    lexicographically smallest selection."""
    f1, f2 = _images(instance, BRUTE_FORCE_LIMIT, "brute_force")
    feasible = f2 >= -instance.budget
    if not feasible.any():
        raise InfeasibleInstanceError("no selection fits the budget")
    best = int(np.argmax(np.where(feasible, f1, -np.inf)))  # the first of the maxima
    return ExactResult(float(f1[best]), _selection(instance, best), Method.BRUTE)


def pareto_enumerate(instance: Instance) -> list[tuple[Selection, ObjectivePoint]]:
    """All nondominated selections of the bi-objective image, with images.

    Selections sharing a nondominated image are all returned (dominance is
    strict). Sorted by increasing profit, then decreasing f2, then selection.
    """
    f1, f2 = _images(instance, ENUMERATION_LIMIT, "pareto_enumerate")
    order = np.lexsort((-f2, -f1)).tolist()  # stable: ties keep lexicographic order
    f1, f2 = f1.tolist(), f2.tolist()
    result = []
    best_above = None  # max f2 among strictly higher f1; f2 can be -inf
    for p1, group in itertools.groupby(order, key=f1.__getitem__):
        group = list(group)
        top = f2[group[0]]  # the group's largest f2
        if best_above is None or top > best_above:
            kept = [k for k in group if f2[k] == top]
            result.extend((_selection(instance, k), ObjectivePoint(p1, f2[k])) for k in kept)
            best_above = top
    result.sort(key=lambda r: (r[1].f1, -r[1].f2, r[0]))
    return result


def dominated_in_product(instance: Instance, sel: Selection) -> bool:
    """True iff some selection strictly dominates ``sel`` in (profit, -cost),
    that is, iff its image is not among :func:`pareto_enumerate`'s.

    One mask over every image, under the enumeration guard; used for
    optimality certificates.
    """
    p1, p2 = evaluate(instance, sel)
    f1, f2 = _images(instance, ENUMERATION_LIMIT, "dominated_in_product")
    return bool(np.any((f1 >= p1) & (f2 >= p2) & ((f1 != p1) | (f2 != p2))))


def _exact_integers(values: np.ndarray, int64: bool) -> np.ndarray:
    """Integer-valued floats as int64, or else as Python integers (objects)."""
    if int64:
        return values.astype(np.int64)
    return np.array([int(v) for v in values.tolist()], dtype=object)


def _integer_arrays(view) -> tuple[np.ndarray, np.ndarray]:
    """The view's integer-valued profits and costs for :func:`_lp_relaxation`.

    They are int64 when the largest profit ``P`` and cost ``C`` are below
    2**53 and ``2*P*C < 2**63``: then every product and difference there is
    exact, and a slope ``rise / run`` is the correctly rounded quotient that
    Python's int/int gives. Elsewhere they are Python integers, exact at any
    size, which the same expressions run on.
    """
    top_profit, top_cost = int(view.profit.max()), int(view.cost.max())
    int64 = max(top_profit, top_cost) < 2**53 and 2 * top_profit * top_cost < 2**63
    return _exact_integers(view.profit, int64), _exact_integers(view.cost, int64)


def _upper_hull(category: np.ndarray, profit: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """The positions of every category's upper-hull rows, in order.

    The arrays hold frontier rows as :class:`~mckp.model.FrontierView` lays
    them out: each category's rows by strictly increasing cost and profit,
    with exact integer coefficients. Each pass drops, in every category at
    once, each row strictly below the chord of its two surviving neighbours;
    the passes stop when one drops nothing. A row below such a chord is off
    the hull, and a chain with no such row has slopes ``dp / dc`` that do
    not increase, so the survivors are the hull, collinear rows included.
    """
    keep = np.arange(len(profit))
    while True:
        j, p, c = category[keep], profit[keep], cost[keep]
        below = (j[:-2] == j[2:]) & (
            (p[2:] - p[1:-1]) * (c[1:-1] - c[:-2]) > (p[1:-1] - p[:-2]) * (c[2:] - c[1:-1])
        )
        if not below.any():
            return keep
        keep = np.delete(keep, np.flatnonzero(below) + 1)


def _lp_relaxation(view, profit, cost, budget: int) -> tuple[np.ndarray, int, int, int]:
    """The LP relaxation of an integral instance: ``(reduced, ub, lb, unit)``.

    ``profit`` and ``cost`` are the frontier ``view``'s coefficients as
    exact integer arrays (int64, or objects holding Python integers) in
    which every product and difference below is exact.

    A greedy walk over all upper-hull edges (:func:`_upper_hull`), steepest
    first, starts from the cheapest selection and takes each edge that fits
    the remaining budget; a category stops at its first edge that does not
    fit. The first edge that does not fit gives the critical slope
    ``lam = dp / dc`` (``lam = 0`` when every edge fits) and the walk's
    selection the feasible profit ``lb``.
    For any ``lam >= 0``, ``UB = sum_j max(p - lam*c) + lam*budget`` bounds
    every feasible profit, and a selection's profit is at most ``UB`` minus
    the reduced costs ``max(p - lam*c) - (p - lam*c)`` of its rows. So a row
    whose reduced cost exceeds ``UB - z`` is in no selection of profit ``z``
    or more (Dyer, Kayal and Walker 1984). Everything is scaled by
    ``unit = dc``, the scaled size of one profit unit, so ``reduced[k]``,
    the reduced cost of view row ``k``, and ``ub`` are exact integers.
    """
    firsts = view.starts[:-1]
    hull = _upper_hull(view.category, profit, cost)
    j, p, c = view.category[hull], profit[hull], cost[hull]
    edge = np.flatnonzero(j[:-1] == j[1:])
    rise, run = p[edge + 1] - p[edge], c[edge + 1] - c[edge]
    # Int/int division is correctly rounded, so the float slopes of a hull
    # do not increase and the stable sort keeps each hull's edges in order.
    order = np.argsort(-(rise / run).astype(np.float64), kind="stable")
    residual = budget - sum(cost[firsts].tolist())
    lb = sum(profit[firsts].tolist())
    critical = None
    stopped = [False] * len(firsts)
    edges = zip(rise[order].tolist(), run[order].tolist(), j[edge[order]].tolist())
    for dp, dc, category in edges:
        if stopped[category]:
            continue
        if dc > residual:
            critical = critical or (dp, dc)
            stopped[category] = True
        else:
            residual -= dc
            lb += dp
    lam_p, unit = critical or (0, 1)

    values = unit * profit - lam_p * cost
    best = np.maximum.reduceat(values, firsts)
    return best[view.category] - values, lam_p * budget + sum(best.tolist()), lb, unit


def _table(view, cost, rows: np.ndarray, budget: int) -> tuple[float, np.ndarray] | None:
    """The table over the view rows at the ascending positions ``rows``, so
    that each category's rows come by increasing cost, with integer costs
    from ``cost``: the optimum and the view position chosen in each
    category, or None when the cheapest selection exceeds ``budget``.

    Raises :class:`OracleGuardError` when the estimate of the table it
    would allocate exceeds 2 GiB.
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


def _round(view, cost, kept: np.ndarray, budget: int) -> tuple[float, np.ndarray] | None:
    """:func:`_table` over the view rows where ``kept`` is true (some in
    each category): the optimum and each category's chosen view position.

    A category left with one row is folded out of the table: its profit
    and cost are added outside it, and its position is chosen. Every sum on
    this path is an exact integer, so the optimum is that of the table over
    all of them.
    """
    positions = np.flatnonzero(kept)
    category = view.category[positions]
    free = np.bincount(category, minlength=len(view.starts) - 1) > 1
    # each category's first kept row: its only one where it is not free
    first = np.ones(len(category), bool)
    np.not_equal(category[1:], category[:-1], out=first[1:])
    chosen = positions[first]
    fixed = chosen[~free]
    result = _table(view, cost, positions[free[category]], budget - sum(cost[fixed].tolist()))
    if result is None:
        return None
    optimum, chosen[free] = result
    return sum(view.profit[fixed].tolist()) + optimum, chosen


def dp_solve(instance: Instance) -> ExactResult:
    """Dynamic program over (category, residual budget) for integer instances.

    Only the budget and the costs of frontier items (``Instance.frontier_view``)
    must be integers; profit may be fractional. Raises
    :class:`NonIntegerInstanceError` otherwise, or when the budget is at
    least 2**53 and the categories' largest frontier costs sum past 2**53
    (:func:`~mckp.model.exact_cost_sums`),
    :class:`InfeasibleInstanceError` when even the cheapest selection does
    not fit, and :class:`OracleGuardError` when the estimate of a table it
    would allocate exceeds 2 GiB; the guard is taken on each table.

    The table holds float64 sums, added in category order like ``evaluate``,
    over each category's Pareto rows, read in place as positions in the
    frontier view. Costs are shifted by their per-category minimum, so the
    budget axis spans only the slack above the cheapest selection. Category
    ``j`` fills only the cells the final cell can reach: from the budget minus
    the slack of the later categories up to the slack of categories ``0..j``,
    above which every cell equals the top one. Ties go to the lowest row.

    When every frontier profit is an integer and the largest profits sum
    below 2**53, every sum is exact, and the LP relaxation
    (:func:`_lp_relaxation`) is computed once, in array passes over the
    frontier view with exact integers (:func:`_integer_arrays`): the bound
    ``UB``, the greedy walk's profit ``LB`` and each row's reduced cost.
    Then at most two
    tables run. Round 1 fills the core, the rows whose reduced cost is at
    most one profit unit (and at most ``UB - LB``), with optimum ``z``
    (none when its cheapest selection does not fit). Round 2 runs only when
    a row outside the core has reduced cost at most ``UB - max(LB, z)``,
    and fills the table over exactly those rows. A selection that holds a
    row outside the table that decides has profit below ``max(LB, z)``, at
    most the optimum, so every row of every optimal selection is in that
    table. In both rounds
    a category left with one row is folded out of the table (:func:`_round`).
    The optimum and the selection, ties included, are those of the full
    table over all items. Otherwise one table runs over all Pareto rows.
    """
    if not exact_cost_sums(instance):
        raise NonIntegerInstanceError(
            "frontier costs are fractional, or their largest ones sum past 2**53"
            f" with budget {instance.budget!r}"
        )
    if not instance.budget.is_integer():
        raise NonIntegerInstanceError(f"non-integer budget {instance.budget}")

    budget = int(instance.budget)
    view = instance.frontier_view
    floor_cost = sum(map(int, view.cost[view.starts[:-1]].tolist()))
    if floor_cost > budget:
        raise InfeasibleInstanceError(
            f"minimum selection cost {floor_cost} exceeds budget {budget}"
        )

    # The top Pareto row holds a category's largest profit.
    if np.all(view.profit == np.floor(view.profit)) and (
        sum(map(int, view.profit[view.starts[1:] - 1].tolist())) < 2**53
    ):
        profit, cost = _integer_arrays(view)
        reduced, ub, lb, unit = _lp_relaxation(view, profit, cost, budget)
        # round 1: rows within one profit unit, never past UB - LB
        core = min(unit, ub - unit * lb)
        result = _round(view, cost, reduced <= core, budget)
        best = lb if result is None else max(lb, int(result[0]))
        cut = ub - unit * best
        # round 2: only if a row outside the core could be in an optimal selection
        if np.any((reduced > core) & (reduced <= cut)):
            result = _round(view, cost, reduced <= cut, budget)
    else:
        cost = _exact_integers(view.cost, view.cost.max() < 2**53)
        result = _table(view, cost, np.arange(len(cost)), budget)
    optimum, chosen = result
    return ExactResult(optimum, tuple(view.index[chosen].tolist()), Method.DP)
