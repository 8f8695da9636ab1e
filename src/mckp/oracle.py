"""Ground-truth solvers for verification.

``brute_force`` enumerates the full selection space (guarded), ``dp_solve``
is a pseudo-polynomial dynamic program over the cost dimension for integer
instances, and ``pareto_enumerate`` lists every nondominated selection of
the bi-objective image. These exist to check the heuristics and each other,
not to compete with them; guards fail loudly instead of degrading.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .frontier import pareto_filter
from .model import (
    InfeasibleInstanceError,
    Instance,
    MCKPError,
    ObjectivePoint,
    Selection,
)

BRUTE_FORCE_LIMIT = 10**7
ENUMERATION_LIMIT = 10**5
MEMORY_LIMIT_BYTES = 2 << 30


class OracleGuardError(MCKPError):
    """State space or memory estimate exceeds the oracle guard."""


class NonIntegerInstanceError(MCKPError):
    """dp_solve requires integer costs and an integer budget."""


class Method(enum.Enum):
    BRUTE = "brute"
    DP = "dp"


@dataclass(frozen=True)
class ExactResult:
    optimum_profit: float
    optimum_selection: Selection
    method: Method


def _iter_images(instance: Instance):
    """Yield (selection, f1, f2) over the whole space in lexicographic order.

    Running sums accumulate in category order, matching ``evaluate`` bitwise.
    """
    cats = instance.categories
    m = len(cats)
    sel = [0] * m

    def rec(j: int, f1: float, f2: float):
        if j == m:
            yield tuple(sel), f1, f2
            return
        for i, item in enumerate(cats[j]):
            sel[j] = i
            yield from rec(j + 1, f1 + item.profit, f2 - item.cost)

    yield from rec(0, 0.0, 0.0)


def _guard(instance: Instance, limit: int, what: str) -> None:
    count = instance.selections_count()
    if count > limit:
        raise OracleGuardError(f"{what}: selection space {count} exceeds guard {limit}")


def brute_force(instance: Instance) -> ExactResult:
    """Exhaustive maximum-profit feasible selection; ties to the
    lexicographically smallest selection."""
    _guard(instance, BRUTE_FORCE_LIMIT, "brute_force")
    budget = instance.budget
    best_sel = None
    best_profit = -math.inf
    for sel, f1, f2 in _iter_images(instance):
        if f2 >= -budget and f1 > best_profit:
            best_profit = f1
            best_sel = sel
    if best_sel is None:
        raise InfeasibleInstanceError("no selection fits the budget")
    return ExactResult(best_profit, best_sel, Method.BRUTE)


def pareto_enumerate(instance: Instance) -> list[tuple[Selection, ObjectivePoint]]:
    """All nondominated selections of the bi-objective image, with images.

    Selections sharing a nondominated image are all returned (dominance is
    strict). Sorted by increasing profit, then decreasing f2, then selection.
    """
    _guard(instance, ENUMERATION_LIMIT, "pareto_enumerate")
    entries = sorted(_iter_images(instance), key=lambda e: (-e[1], -e[2]))
    result = []
    best_above = -math.inf  # max f2 among strictly higher f1
    pos = 0
    while pos < len(entries):
        f1 = entries[pos][1]
        end = pos
        while end < len(entries) and entries[end][1] == f1:
            end += 1
        group_max = max(entries[k][2] for k in range(pos, end))
        if group_max > best_above:
            for k in range(pos, end):
                sel, _, f2 = entries[k]
                if f2 == group_max:
                    result.append((sel, ObjectivePoint(f1, f2)))
            best_above = group_max
        pos = end
    result.sort(key=lambda r: (r[1].f1, -r[1].f2, r[0]))
    return result


def dominated_in_product(instance: Instance, sel: Selection) -> bool:
    """True iff some selection strictly dominates ``sel`` in (profit, -cost).

    Subject to the enumeration guard; used for optimality certificates.
    """
    _guard(instance, ENUMERATION_LIMIT, "dominated_in_product")
    target_f1 = sum(instance.categories[j][i].profit for j, i in enumerate(sel))
    target_f2 = -sum(instance.categories[j][i].cost for j, i in enumerate(sel))
    for _, f1, f2 in _iter_images(instance):
        if f1 >= target_f1 and f2 >= target_f2 and (f1 > target_f1 or f2 > target_f2):
            return True
    return False


def dp_solve(instance: Instance) -> ExactResult:
    """Dynamic program over (category, residual budget) for integer instances.

    Costs are shifted by their per-category minimum so the budget axis spans
    only the slack above the cheapest selection. Profit may be fractional;
    only costs and the budget must be integers. Raises
    :class:`NonIntegerInstanceError` otherwise, :class:`OracleGuardError`
    when the table estimate exceeds 2 GiB, and
    :class:`InfeasibleInstanceError` when even the cheapest selection does
    not fit.
    """
    for cat in instance.categories:
        for item in cat:
            if not float(item.cost).is_integer():
                raise NonIntegerInstanceError(f"non-integer cost {item.cost}")
    if not float(instance.budget).is_integer():
        raise NonIntegerInstanceError(f"non-integer budget {instance.budget}")

    budget = int(instance.budget)
    shifted = []  # per category: list of (original index, profit, shifted int cost)
    floor_cost = 0
    slack_cap = 0
    for cat in instance.categories:
        kept = pareto_filter(cat).pareto_items
        low = int(cat[kept[0]].cost)  # kept is sorted by increasing cost
        floor_cost += low
        rows = [(i, cat[i].profit, int(cat[i].cost) - low) for i in kept]
        slack_cap += rows[-1][2]
        shifted.append(rows)
    if floor_cost > budget:
        raise InfeasibleInstanceError(
            f"minimum selection cost {floor_cost} exceeds budget {budget}"
        )

    width = min(budget - floor_cost, slack_cap) + 1
    m = instance.m
    max_kept = max(len(rows) for rows in shifted)
    if max_kept <= 127:
        choice_dtype = np.int8
    elif max_kept <= 32767:
        choice_dtype = np.int16
    else:
        choice_dtype = np.int32

    integral_profits = all(
        float(item.profit).is_integer() for cat in instance.categories for item in cat
    )
    profit_cap = sum(max(item.profit for item in cat) for cat in instance.categories)
    if not integral_profits:
        value_dtype = np.float64
    elif profit_cap < 2**31:
        value_dtype = np.int32
    else:
        value_dtype = np.int64

    estimate = (
        m * width * np.dtype(choice_dtype).itemsize
        + 3 * width * np.dtype(value_dtype).itemsize
        + width
    )
    if estimate > MEMORY_LIMIT_BYTES:
        raise OracleGuardError(f"dp table estimate {estimate} bytes exceeds guard")

    # Rolling rows: each category takes a running elementwise maximum over
    # its items' shifted-and-lifted copies of the previous row. Ties keep the
    # lowest surviving item (strict greater-than), rows sorted by cost.
    dp = np.zeros(width, dtype=value_dtype)
    new = np.empty_like(dp)
    seg = np.empty_like(dp)
    mask = np.empty(width, dtype=bool)
    choices = np.zeros((m, width), dtype=choice_dtype)
    for j, rows in enumerate(shifted):
        np.add(dp, np.asarray(rows[0][1], dtype=value_dtype), out=new)
        crow = choices[j]
        for r in range(1, len(rows)):
            _, profit, cost = rows[r]
            if cost >= width:
                continue
            span = width - cost
            np.add(dp[:span], np.asarray(profit, dtype=value_dtype), out=seg[:span])
            np.greater(seg[:span], new[cost:], out=mask[:span])
            np.copyto(new[cost:], seg[:span], where=mask[:span])
            np.copyto(crow[cost:], choice_dtype(r), where=mask[:span])
        dp, new = new, dp

    # Walk the choice table backwards from the full slack budget.
    w = width - 1
    selection = [0] * m
    for j in range(m - 1, -1, -1):
        r = int(choices[j, w])
        index, _, cost = shifted[j][r]
        selection[j] = index
        w -= cost
    optimum = float(dp[width - 1])
    return ExactResult(optimum, tuple(selection), Method.DP)
