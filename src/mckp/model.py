"""Core data model for the multiple-choice knapsack.

An instance is a list of item categories plus a budget; a solution picks
exactly one item per category. The solver stack works on the bi-objective
image of a selection: total profit and negated total cost, both maximized.
This module holds the types, each category's Pareto filter (which every
layer reads through ``Instance.frontiers``), the rule under which float cost
sums are exact, the objective/feasibility evaluators and the line-oriented
instance file format.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple


class MCKPError(Exception):
    """Base class for errors raised by this package."""


class InvalidSelectionError(MCKPError):
    """Selection does not match the instance (wrong length or index)."""


class InfeasibleInstanceError(MCKPError):
    """No selection fits the budget (the minimum-cost selection exceeds it)."""


class InstanceFormatError(MCKPError):
    """Instance file is malformed; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Item(NamedTuple):
    profit: float
    cost: float


# One item per category; item order within a category is identity-bearing.
Category = tuple[Item, ...]

# Chosen item index per category, in category order.
Selection = tuple[int, ...]


class ObjectivePoint(NamedTuple):
    """Bi-objective image of a selection: (total profit, negated total cost)."""

    f1: float
    f2: float


def pareto_filter(cat: Category) -> tuple[int, ...]:
    """Nondominated item indices of a category under (max profit, min cost).

    One sort by (cost, -profit, index), then each item is kept whose profit
    beats every item before it, so costs and profits rise strictly along the
    tuple. Items with identical objective pairs collapse to the lowest index.
    """
    if not cat:
        raise ValueError("category must be non-empty")
    order = sorted(range(len(cat)), key=lambda i: (cat[i].cost, -cat[i].profit, i))
    kept: list[int] = []
    best_profit = -math.inf
    for i in order:
        if cat[i].profit > best_profit:
            kept.append(i)
            best_profit = cat[i].profit
    return tuple(kept)


@dataclass(frozen=True)
class Instance:
    """Immutable problem instance: categories of (profit, cost) items and a budget.

    Accepts any nested iterables of item pairs and normalizes them to tuples
    of :class:`Item` with float fields. Raises ``ValueError`` on invariant
    violations (empty instance, empty category, negative or non-finite
    coefficients, non-positive budget).
    """

    categories: tuple[Category, ...]
    budget: float

    def __post_init__(self):
        cats = tuple(
            tuple(Item(float(p), float(c)) for p, c in cat) for cat in self.categories
        )
        object.__setattr__(self, "categories", cats)
        object.__setattr__(self, "budget", float(self.budget))
        if not cats:
            raise ValueError("instance must have at least one category")
        for j, cat in enumerate(cats):
            if not cat:
                raise ValueError(f"category {j} is empty")
            for i, item in enumerate(cat):
                if not (math.isfinite(item.profit) and math.isfinite(item.cost)):
                    raise ValueError(f"non-finite coefficient at category {j} item {i}")
                if item.profit < 0 or item.cost < 0:
                    raise ValueError(f"negative coefficient at category {j} item {i}")
        if not math.isfinite(self.budget) or self.budget <= 0:
            raise ValueError("budget must be positive and finite")

    @property
    def m(self) -> int:
        """Number of categories."""
        return len(self.categories)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(cat) for cat in self.categories)

    @cached_property
    def frontiers(self) -> tuple[tuple[int, ...], ...]:
        """Each category's :func:`pareto_filter` indices, computed on first use.

        Not a field, so equality, hashing and ``dataclasses.replace`` ignore it.
        """
        return tuple(pareto_filter(cat) for cat in self.categories)


def exact_cost_sums(instance: Instance) -> bool:
    """True when float cost sums compare with the budget as exact ones do.

    That holds when every frontier cost is an integer and either the budget
    is below 2**53 or the largest frontier costs, one per category, sum to
    at most 2**53. Only frontier items need the rule: a selection that fits
    still fits, at no less profit, once each item is traded for a frontier
    item that dominates it, since a float sum taken in category order never
    falls when one of its terms rises. BISSA's zero-slack proof, KISSA's O(1)
    swap check and the DP's precondition all rest on this rule.
    """
    pairs = tuple(zip(instance.categories, instance.frontiers))
    return all(cat[i].cost.is_integer() for cat, f in pairs for i in f) and (
        instance.budget < 2**53 or sum(int(cat[f[-1]].cost) for cat, f in pairs) <= 2**53
    )


def _check_selection(instance: Instance, sel: Selection) -> None:
    if len(sel) != instance.m:
        raise InvalidSelectionError(
            f"selection has {len(sel)} components, instance has {instance.m} categories"
        )
    for j, i in enumerate(sel):
        if not 0 <= i < len(instance.categories[j]):
            raise InvalidSelectionError(
                f"component {j} is {i}, valid range is [0, {len(instance.categories[j])})"
            )


def evaluate(instance: Instance, sel: Selection) -> ObjectivePoint:
    """Bi-objective image of ``sel``: (sum of profits, minus sum of costs).

    Sums run in category order, so the result is exactly the component-wise
    sum of single-category evaluations (additive separability holds bitwise).
    """
    _check_selection(instance, sel)
    f1 = 0.0
    f2 = 0.0
    for j, i in enumerate(sel):
        item = instance.categories[j][i]
        f1 += item.profit
        f2 -= item.cost
    return ObjectivePoint(f1, f2)


def is_feasible(instance: Instance, sel: Selection) -> bool:
    """True iff the selection's total cost is within budget (f2 >= -budget)."""
    return evaluate(instance, sel).f2 >= -instance.budget


# ---------------------------------------------------------------------------
# Instance file format
#
#   MCKP 1
#   m=<int> b=<decimal>
#   cat <n_j>
#   <profit> <cost>          (n_j lines)
#   ...                      (one block per category)
#
# Lines starting with '#' and blank lines are skipped. Writers emit '\n'
# newlines and no trailing whitespace; numbers are written with shortest
# round-trip decimals, so read(write(instance)) == instance bit-exactly.
# ---------------------------------------------------------------------------

_MAGIC = "MCKP 1"


def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def write_instance(instance: Instance) -> str:
    lines = [_MAGIC, f"m={instance.m} b={_fmt(instance.budget)}"]
    for cat in instance.categories:
        lines.append(f"cat {len(cat)}")
        for item in cat:
            lines.append(f"{_fmt(item.profit)} {_fmt(item.cost)}")
    return "\n".join(lines) + "\n"


def _parse_number(token: str, what: str, line: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise InstanceFormatError(f"bad {what} {token!r}", line) from None
    if not math.isfinite(value):
        raise InstanceFormatError(f"{what} must be finite, got {token!r}", line)
    return value


def read_instance(data: str | bytes) -> Instance:
    """Parse the instance file format; raises InstanceFormatError with a line number."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    # (line_number, content) with comments and blank lines dropped
    rows = [
        (no, line.strip())
        for no, line in enumerate(data.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    pos = 0

    def next_row(expect: str) -> tuple[int, str]:
        nonlocal pos
        if pos >= len(rows):
            last = rows[-1][0] if rows else 1
            raise InstanceFormatError(f"unexpected end of file, expected {expect}", last)
        row = rows[pos]
        pos += 1
        return row

    no, line = next_row("header")
    if line != _MAGIC:
        raise InstanceFormatError(f"expected {_MAGIC!r} header, got {line!r}", no)

    no, line = next_row("'m=<int> b=<decimal>'")
    tokens = line.split()
    if len(tokens) != 2 or not tokens[0].startswith("m=") or not tokens[1].startswith("b="):
        raise InstanceFormatError("expected 'm=<int> b=<decimal>'", no)
    try:
        m = int(tokens[0][2:])
    except ValueError:
        raise InstanceFormatError(f"bad category count {tokens[0][2:]!r}", no) from None
    if m < 1:
        raise InstanceFormatError("instance must have at least one category", no)
    budget = _parse_number(tokens[1][2:], "budget", no)
    if budget <= 0:
        raise InstanceFormatError("budget must be positive", no)

    categories = []
    for _ in range(m):
        no, line = next_row("'cat <n_j>'")
        parts = line.split()
        if len(parts) != 2 or parts[0] != "cat":
            raise InstanceFormatError(f"expected 'cat <n_j>', got {line!r}", no)
        try:
            n_j = int(parts[1])
        except ValueError:
            raise InstanceFormatError(f"bad item count {parts[1]!r}", no) from None
        if n_j < 1:
            raise InstanceFormatError("category must have at least one item", no)
        items = []
        for _ in range(n_j):
            no, line = next_row("'<profit> <cost>'")
            parts = line.split()
            if len(parts) != 2:
                raise InstanceFormatError(f"expected '<profit> <cost>', got {line!r}", no)
            profit = _parse_number(parts[0], "profit", no)
            cost = _parse_number(parts[1], "cost", no)
            if profit < 0 or cost < 0:
                raise InstanceFormatError("profit and cost must be nonnegative", no)
            items.append((profit, cost))
        categories.append(items)

    if pos != len(rows):
        raise InstanceFormatError("unexpected trailing content", rows[pos][0])
    return Instance(categories, budget)
