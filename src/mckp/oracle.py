"""Ground-truth solvers for verification.

``brute_force`` and ``pareto_enumerate`` (every nondominated selection)
read one guarded numpy table of every selection's image. ``dp_solve`` is a
pseudo-polynomial dynamic program over the cost dimension for integer
instances (on integral profits it fills the core of the LP relaxation
first and a second, wider table only when the first cannot decide; each
table is guarded). These exist to check the heuristics and each other,
not to compete with them; guards fail loudly instead of degrading.
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
    profits, costs, starts = instance.profits, instance.costs, instance.starts
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


def _upper_hull(rows: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Upper hull of a category's frontier rows ``(profit, cost)``.

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


def _lp_relaxation(rows, budget: int) -> tuple[list[list[int]], int, int, int]:
    """The LP relaxation of an integral instance: ``(reduced, ub, lb, unit)``.

    ``rows`` holds each category's Pareto rows ``(index, profit, int cost)``
    by increasing cost, as :func:`dp_solve` builds them, and every profit is
    an integer.

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
    ``unit = dc``, the scaled size of one profit unit, so ``reduced[j][r]``
    and ``ub`` are exact integers.
    """
    edges = []
    for j, category_rows in enumerate(rows):
        hull = _upper_hull([(int(p), c) for _, p, c in category_rows])
        for k, ((p1, c1), (p2, c2)) in enumerate(zip(hull, hull[1:])):
            edges.append((p2 - p1, c2 - c1, j, k))
    # Int/int division is correctly rounded, so the float slopes of a hull
    # do not increase and the stable sort keeps each hull's edges in order.
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


def _table(pareto, budget: int) -> tuple[float, list[int]] | None:
    """The table over each category's rows ``(index, profit, int cost)``,
    sorted by cost: the optimum and each category's chosen index, or None
    when the cheapest selection exceeds ``budget``.

    Raises :class:`OracleGuardError` when the estimate of the table it
    would allocate exceeds 2 GiB.
    """
    floor_cost = sum(rows[0][2] for rows in pareto)
    if floor_cost > budget:
        return None
    # per category: its rows (index, profit, cost above the cheapest)
    shifted = [[(i, p, c - rows[0][2]) for i, p, c in rows] for rows in pareto]
    slack_cap = sum(rows[-1][2] for rows in shifted)

    width = min(budget - floor_cost, slack_cap) + 1
    m = len(shifted)
    # the narrowest unsigned type that holds a row index
    choice_dtype = np.min_scalar_type(max(map(len, shifted), default=1) - 1).type

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
    for j, rows in enumerate(shifted):
        slack = rows[-1][2]
        later -= slack
        low = max(0, width - 1 - later)
        dp[top:top + slack] = dp[top - 1]  # the previous row's flat cells
        top = min(width, top + slack)
        np.add(dp[low:top], rows[0][1], out=new[low:top])
        crow = choices[j]
        for r in range(1, len(rows)):
            _, profit, cost = rows[r]
            start = max(low, cost)
            if start >= top:
                continue
            span = top - start
            np.add(dp[start - cost:top - cost], profit, out=seg[:span])
            np.greater(seg[:span], new[start:top], out=mask[:span])
            np.copyto(new[start:top], seg[:span], where=mask[:span])
            np.copyto(crow[start:top], choice_dtype(r), where=mask[:span])
        dp, new = new, dp

    # Walk the choice table backwards from the full slack budget, clamping
    # each cell to the top of its category's band.
    w = width - 1
    reach = slack_cap
    selection = [0] * m
    for j in range(m - 1, -1, -1):
        w = min(w, reach)
        index, _, cost = shifted[j][int(choices[j, w])]
        selection[j] = index
        w -= cost
        reach -= shifted[j][-1][2]
    return float(dp[width - 1]), selection


def _round(pareto, reduced, cut: int, budget: int) -> tuple[float, list[int]] | None:
    """:func:`_table` over the rows whose reduced cost is at most ``cut``.

    A category left with one row is folded out of the table: its profit
    and cost are added outside it. Every sum on this path is an exact
    integer, so the optimum is that of the table over all of them.
    """
    kept = [
        [row for row, r in zip(rows, rs) if r <= cut]
        for rows, rs in zip(pareto, reduced)
    ]
    free = [j for j, rows in enumerate(kept) if len(rows) > 1]
    fixed = [rows[0] for rows in kept if len(rows) == 1]
    result = _table([kept[j] for j in free], budget - sum(c for _, _, c in fixed))
    if result is None:
        return None
    optimum, picks = result
    selection = [rows[0][0] for rows in kept]
    for j, index in zip(free, picks):
        selection[j] = index
    return sum(p for _, p, _ in fixed) + optimum, selection


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

    The table holds float64 sums, added in category order like
    ``evaluate``, over each category's Pareto rows. Costs are shifted by
    their per-category minimum, so the budget axis spans only the slack
    above the cheapest selection. Category ``j`` fills only the cells the
    final cell can reach: from the budget minus the slack of the later
    categories up to the slack of categories ``0..j``, above which every
    cell equals the top one. Ties go to the lowest row.

    When every frontier profit is an integer and the largest profits sum
    below 2**53, every sum is exact, and the LP relaxation
    (:func:`_lp_relaxation`) is computed once: the bound ``UB``, the greedy
    walk's profit ``LB`` and each row's reduced cost. Then at most two
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
    index, profits, costs = view.index.tolist(), view.profit.tolist(), view.cost.tolist()
    # per category: its Pareto rows (index, profit, int cost), by increasing cost
    pareto = [
        list(zip(index[a:b], profits[a:b], map(int, costs[a:b])))
        for a, b in itertools.pairwise(view.starts.tolist())
    ]
    floor_cost = sum(rows[0][2] for rows in pareto)
    if floor_cost > budget:
        raise InfeasibleInstanceError(
            f"minimum selection cost {floor_cost} exceeds budget {budget}"
        )

    integral = all(p.is_integer() for rows in pareto for _, p, _ in rows)
    # The top Pareto row holds a category's largest profit.
    if integral and sum(int(rows[-1][1]) for rows in pareto) < 2**53:
        reduced, ub, lb, unit = _lp_relaxation(pareto, budget)
        # round 1: rows within one profit unit, never past UB - LB
        core = min(unit, ub - unit * lb)
        result = _round(pareto, reduced, core, budget)
        best = lb if result is None else max(lb, int(result[0]))
        cut = ub - unit * best
        # round 2: only if a row outside the core could be in an optimal selection
        if any(core < r <= cut for rs in reduced for r in rs):
            result = _round(pareto, reduced, cut, budget)
    else:
        result = _table(pareto, budget)
    optimum, selection = result
    return ExactResult(optimum, tuple(selection), Method.DP)
