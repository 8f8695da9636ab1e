"""Core data model for the multiple-choice knapsack.

An instance is a list of item categories plus a budget; a solution picks
exactly one item per category. The solver stack works on the bi-objective
image of a selection: total profit and negated total cost, both maximized.
This module holds the types (an ``Instance`` is stored as flat, read-only
numpy arrays of the profits, the costs and the category starts), each
category's Pareto filter (``Instance.frontier_view``, flat numpy arrays
built from the item arrays by one sort over all items with no per-item
Python loop, which the probes, ``delta_bound``, KISSA and the DP read), the
rules under which float cost and profit sums are exact, the
objective/feasibility evaluators and the line-oriented instance file format.
"""

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np


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

    ``cat`` is any non-empty sequence of (profit, cost) pairs, compared as
    floats. The items are taken in the order (cost, -profit, index), and
    each is kept whose profit beats every item before it, so costs and
    profits rise strictly along the tuple. Items with identical objective
    pairs collapse to the lowest index, and of several items of equal cost
    only the first most profitable one can be kept. This is the builder of
    ``Instance.frontier_view`` run on one category.
    """
    if not cat:
        raise ValueError("category must be non-empty")
    profits, costs = np.array(cat, np.float64).T
    return tuple(_frontier_view(profits, costs, np.array([0, len(cat)])).index.tolist())


class FrontierView(NamedTuple):
    """Every category's frontier items, in category order, as flat arrays.

    Entry ``k`` is item ``index[k]`` of category ``category[k]``, with
    profit ``profit[k]`` and cost ``cost[k]``. Category ``j``'s frontier,
    by strictly rising cost, holds the entries ``starts[j]`` to
    ``starts[j + 1]``.
    """

    index: np.ndarray
    profit: np.ndarray
    cost: np.ndarray
    category: np.ndarray
    starts: np.ndarray


def _frontier_view(profits, costs, starts) -> FrontierView:
    """The :class:`FrontierView` of the items with the float arrays
    ``profits`` and ``costs``, category ``j`` at positions ``starts[j]`` to
    ``starts[j + 1]``.

    All items are sorted at once by category, cost, profit down and
    position, and an item is kept when its profit is strictly above every
    earlier profit of its category. The sort reads int64 codes that order
    and tie as the coefficients do, so -0.0 equals 0.0 and ties fall as
    :func:`pareto_filter` says. An array is its own code where its values
    are integers; its codes are its dense ranks (``np.unique``) where they
    are not, or where they make the key wider than 63 bits, the widest
    array ranked first. Where the four fields fit 63 bits the sort is
    ``np.sort`` of one int64 key per item; elsewhere it is a stable
    ``np.lexsort`` of the codes. One running maximum of the category and
    the profit code, ``category << profit_bits | profit``, picks the kept
    items: the category field restarts it at each category, and it fits
    int64 as the key's fields do, or as ranks below the item count do.
    """
    sizes = np.diff(starts)
    count = len(profits)
    category = np.repeat(np.arange(len(sizes)), sizes)
    position_bits = (count - 1).bit_length()
    fixed = (len(sizes) - 1).bit_length() + position_bits
    arrays = (costs, profits)
    # each array's codes and largest code; 2**63 is past any key
    codes, tops = [None, None], [2**63, 2**63]
    for k, values in enumerate(arrays):
        top = values.max()
        if values.min() >= 0 and top < 2**63:
            own = values.astype(np.int64)
            if np.array_equal(own, values):
                codes[k], tops[k] = own, int(top)
    # rank the arrays of non-integers, then the widest, until the key fits
    for k in sorted((0, 1), key=tops.__getitem__, reverse=True):
        if fixed + tops[0].bit_length() + tops[1].bit_length() <= 63:
            break
        uniques, codes[k] = np.unique(arrays[k], return_inverse=True)
        tops[k] = len(uniques) - 1
    cost, profit = codes
    cost_bits, profit_bits = (top.bit_length() for top in tops)
    # the profit field counts down from its top
    top = (1 << profit_bits) - 1
    if fixed + cost_bits + profit_bits <= 63:
        key = (category << cost_bits) | cost
        key <<= profit_bits
        key |= top - profit
        key <<= position_bits
        key |= np.arange(count)
        key.sort()
        order = key & ((1 << position_bits) - 1)
    else:
        order = np.lexsort((top - profit, cost, category))
    # the sort leads with the category, so ``category`` is in sorted order
    level = (category << profit_bits) | profit[order]
    keep = np.ones(count, bool)
    np.greater(level[1:], np.maximum.accumulate(level)[:-1], out=keep[1:])
    kept = np.flatnonzero(keep)
    positions, category = order[kept], category[kept]
    view_starts = np.zeros(len(sizes) + 1, np.int64)
    np.cumsum(np.bincount(category, minlength=len(sizes)), out=view_starts[1:])
    index = positions - starts[category]
    return FrontierView(index, profits[positions], costs[positions], category, view_starts)


@dataclass(frozen=True, eq=False)
class Instance:
    """Immutable problem instance: categories of (profit, cost) items and a budget.

    Accepts any nested iterables of item pairs. Raises ``ValueError`` on
    invariant violations (empty instance, empty category, negative or
    non-finite coefficients, non-positive budget).

    The instance is stored flat, in read-only numpy arrays, its only store
    of the items: ``profits`` and ``costs`` (float64) over all items,
    category by category, and ``starts`` (int64), category ``j`` holding
    positions ``starts[j]`` to ``starts[j + 1]``. ``categories``, the same
    items as tuples of :class:`Item` of Python floats, is built from them on
    first access only. Equality and hashing compare the budget and the
    arrays by value (-0.0 equals 0.0), so they never build it.
    """

    categories: tuple[Category, ...]
    budget: float
    profits: np.ndarray = field(init=False, repr=False)
    costs: np.ndarray = field(init=False, repr=False)
    starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        profits: list[float] = []
        costs: list[float] = []
        starts = [0]
        for cat in self.categories:
            for p, c in cat:
                profits.append(float(p))
                costs.append(float(c))
            starts.append(len(costs))
        # Dropped so that ``categories`` is rebuilt from the arrays.
        object.__delattr__(self, "categories")
        self._set_flat(np.array(profits), np.array(costs), np.array(starts), self.budget)

    @classmethod
    def from_flat(cls, profits, costs, starts, budget) -> "Instance":
        """The instance with the flat ``profits``, ``costs`` and ``starts``
        (see the class docstring), validated as the constructor validates.
        Coefficients are converted with ``float``, as the constructor
        converts them, so an integer past 2**53 is stored as its float, and
        starts with ``operator.index``, which refuses a non-integer."""
        try:
            starts = np.array([*map(operator.index, starts)], np.int64)
        except OverflowError:  # a start past int64 is past the item count
            raise ValueError(f"starts must run from 0 to {len(profits)}, the item count") from None
        profits, costs = np.array([*map(float, profits)]), np.array([*map(float, costs)])
        return cls._from_arrays(profits, costs, starts, budget)

    @classmethod
    def _from_arrays(cls, profits, costs, starts, budget) -> "Instance":
        """:meth:`from_flat` for float64 arrays of the coefficients and an int64
        array of the starts, which it keeps as they are and makes read-only."""
        instance = object.__new__(cls)
        instance._set_flat(profits, costs, starts, budget)
        return instance

    def _set_flat(self, profits, costs, starts, budget) -> None:
        budget = float(budget)
        if len(profits) != len(costs):
            raise ValueError(f"{len(profits)} profits but {len(costs)} costs")
        if len(starts) < 2:
            raise ValueError("instance must have at least one category")
        if starts[0] != 0 or starts[-1] != len(profits):
            raise ValueError(f"starts must run from 0 to {len(profits)}, the item count")
        valid = np.isfinite(profits) & np.isfinite(costs) & (profits >= 0) & (costs >= 0)
        if not (np.diff(starts).min() > 0 and valid.all()):
            # the ordered scan only names the culprit
            for j, (a, b) in enumerate(zip(starts.tolist(), starts[1:].tolist())):
                if a >= b:
                    raise ValueError(f"category {j} is {'empty' if a == b else 'of negative size'}")
                for i, (p, c) in enumerate(zip(profits[a:b].tolist(), costs[a:b].tolist())):
                    if not (math.isfinite(p) and math.isfinite(c)):
                        raise ValueError(f"non-finite coefficient at category {j} item {i}")
                    if p < 0 or c < 0:
                        raise ValueError(f"negative coefficient at category {j} item {i}")
        if not math.isfinite(budget) or budget <= 0:
            raise ValueError("budget must be positive and finite")
        for values in (profits, costs, starts):
            values.flags.writeable = False
        vars(self).update(profits=profits, costs=costs, starts=starts, budget=budget)

    def _key(self) -> tuple:
        # -0.0 + 0 is 0.0, so equal coefficients give equal bytes
        return self.budget, *((a + 0).tobytes() for a in (self.profits, self.costs, self.starts))

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        # a pickle or a copy holds only the fields, its arrays made read-only again
        return type(self)._from_arrays, (self.profits, self.costs, self.starts, self.budget)

    def __getattr__(self, name):
        # Called only for attributes not yet set: ``categories`` of a fresh instance.
        if name != "categories":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        items = [*map(Item, self.profits.tolist(), self.costs.tolist())]
        starts = self.starts.tolist()
        categories = tuple(tuple(items[a:b]) for a, b in zip(starts, starts[1:]))
        object.__setattr__(self, "categories", categories)
        return categories

    @property
    def m(self) -> int:
        """Number of categories."""
        return len(self.starts) - 1

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(np.diff(self.starts).tolist())

    @cached_property
    def frontier_view(self) -> FrontierView:
        """Every category's frontier as one :class:`FrontierView`, built from
        the item arrays on first use, with no per-item Python loop. Category
        ``j``'s :func:`pareto_filter` indices are its segment of
        ``frontier_view.index``. Not a field, so equality, hashing and
        ``dataclasses.replace`` ignore it."""
        return _frontier_view(self.profits, self.costs, self.starts)


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
    view = instance.frontier_view
    # A frontier's last item is its costliest.
    return bool(np.all(view.cost == np.floor(view.cost))) and (
        instance.budget < 2**53
        or sum(map(int, view.cost[view.starts[1:] - 1].tolist())) <= 2**53
    )


def profit_grid(instance: Instance) -> float | None:
    """A power of two ``g`` under which every float sum of frontier profits
    is exact, or None where there is none.

    Every frontier profit is a multiple of ``g``, and the largest ones, one
    per category, sum below 2**53 units of ``g`` and within the float range,
    so any sum of them is an exact multiple of ``g`` (every finite double is
    an integer times a power of two). ``g`` is 1 where the profits are
    integers whose largest ones sum below 2**53, elsewhere the largest power
    of two dividing every positive profit. Rounding is monotone, so a float
    sum of nonnegative integers reaches 2**53 exactly when the exact one
    does. The DP's LP core and KISSA's O(1) objective update rest on this.
    """
    view = instance.frontier_view
    # A frontier's last item is its most profitable.
    tops = view.profit[view.starts[1:] - 1]
    with np.errstate(over="ignore"):
        if np.all(view.profit == np.floor(view.profit)) and tops.sum() < 2**53:
            return 1.0
        # the exponent of each positive profit's lowest set bit
        significand, exponent = np.frexp(view.profit[view.profit > 0])
        bits = (significand * 2.0**53).astype(np.int64)
        e = int((exponent - 53 + np.frexp(bits & -bits)[1] - 1).min())
        units = np.ldexp(tops, -e).sum()
        return math.ldexp(1.0, e) if units < 2**53 and tops.sum() < math.inf else None


def _positions(instance: Instance, sel: Selection) -> np.ndarray:
    """Each component's position in ``profits`` and ``costs``, or
    :class:`InvalidSelectionError` on a wrong length or index."""
    if len(sel) != instance.m:
        raise InvalidSelectionError(
            f"selection has {len(sel)} components, instance has {instance.m} categories"
        )
    starts = instance.starts
    try:
        # operator.index refuses a non-integer, which fromiter would truncate
        k = np.fromiter(map(operator.index, sel), np.int64, len(sel)) + starts[:-1]
        if np.all((k >= starts[:-1]) & (k < starts[1:])):
            return k
    except OverflowError:
        pass
    for j, (i, n) in enumerate(zip(sel, instance.sizes)):
        if not 0 <= i < n:
            raise InvalidSelectionError(f"component {j} is {i}, valid range is [0, {n})")


def evaluate(instance: Instance, sel: Selection) -> ObjectivePoint:
    """Bi-objective image of ``sel``: (sum of profits, minus sum of costs).

    Sums run in category order from 0.0, one rounded addition at a time (an
    accumulation, not ``np.sum``'s pairwise sum), so the result is exactly
    the component-wise sum of single-category evaluations (additive
    separability holds bitwise). A sum past the float range is infinite.
    """
    return _objective(instance, _positions(instance, sel))


def _objective(instance: Instance, k: np.ndarray) -> ObjectivePoint:
    """:func:`evaluate` of the selection at the positions ``k`` of
    :func:`_positions`."""
    with np.errstate(over="ignore"):
        f1 = np.add.accumulate(np.concatenate(([0.0], instance.profits[k])))[-1]
        f2 = np.subtract.accumulate(np.concatenate(([0.0], instance.costs[k])))[-1]
    return ObjectivePoint(float(f1), float(f2))


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
# the bytes a number token of the reader's bulk path may hold
_NUMBER_BYTES = b"0123456789.eE+-"
# every byte the bulk path reads in a file's body: number tokens, the
# 'cat' of each category line, and the spaces and newlines between tokens
_BODY_BYTES = _NUMBER_BYTES + b"cat \n"
# A run of at most 15 digits is below 10**15 < 2**53, and so is every sum
# of its digits times their place values: the bulk path sums it exactly.
_PLACES = 10.0 ** np.arange(15)


def write_instance(instance: Instance) -> str:
    """The instance file of ``instance``, in the format above.

    Every number in it is a token: the budget, then two per body line, line
    ``starts[j] + j`` being category ``j``'s ``cat <size>`` and the items
    following it. A plain token, an integer value in ``0 <= x < 1e16`` with
    its sign bit clear, is written as ``str(int(x))``: its digits are taken
    in numpy, one digit place at a time, the inverse of :func:`_read_body`.
    Any other token (``-0.0``, a fraction, a value from 1e16 up, a
    subnormal) is written as its ``repr``, the shortest decimal that reads
    back to it, by a loop over those tokens alone.
    """
    m, starts = instance.m, instance.starts
    tokens = np.empty(1 + 2 * (m + len(instance.profits)))
    tokens[0] = instance.budget
    lines = tokens[1:].reshape(-1, 2)
    headers = starts[:-1] + np.arange(m)
    items = np.ones(len(lines), bool)
    items[headers] = False
    lines[headers, 0] = 0.0  # written as 'cat' below
    lines[headers, 1] = np.diff(starts)
    lines[items, 0] = instance.profits
    lines[items, 1] = instance.costs
    # no token is negative or non-finite
    plain = (tokens < 1e16) & (tokens == np.floor(tokens)) & ~np.signbit(tokens)
    others = np.flatnonzero(~plain)
    texts = [repr(x).encode() for x in tokens[others].tolist()]  # a numpy scalar's repr differs
    tokens[others] = 0.0
    # the digits are taken in the narrowest unsigned type that holds them all
    top = int(tokens.max())
    values = tokens.astype(np.min_scalar_type(top))
    places = len(str(top))
    # Row k holds token k right-aligned before its mark, a newline after the
    # budget and after the second token of a line and a space after the
    # first, with zero bytes before it; dropping the zero bytes joins them.
    width = 1 + max(3, places, *map(len, texts))
    head = f"{_MAGIC}\nm={m} b=".encode()
    out = bytearray(len(head) + len(tokens) * width)
    out[: len(head)] = head
    rows = np.frombuffer(out, np.uint8, offset=len(head)).reshape(-1, width)
    rows[:, -1] = ord("\n")
    rows[1::2, -1] = ord(" ")
    for place in range(places):
        above = values // 10
        digit = (values - above * 10).astype(np.uint8)
        digit += ord("0")
        if place:
            digit *= values > 0  # a zero byte before a token's leading digit
        rows[:, -2 - place] = digit
        values = above
    rows[1 + 2 * headers, -4:-1] = np.frombuffer(b"cat", np.uint8)
    for k, text in zip(others.tolist(), texts):
        end = len(head) + (k + 1) * width - 1
        out[end - len(text) : end] = text
    return out.translate(None, b"\0").decode("ascii")


def _parse_number(token: str, what: str, line: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise InstanceFormatError(f"bad {what} {token!r}", line) from None
    if not math.isfinite(value):
        raise InstanceFormatError(f"{what} must be finite, got {token!r}", line)
    return value


def read_instance(data: str | bytes) -> Instance:
    """Parse the instance file format; raises InstanceFormatError with a line number.

    A file in the written shape is read in one vectorized pass over its
    bytes (:func:`_read_blocks`), and a str is encoded for it first. Any
    other file, one with a comment, a blank line or a non-ASCII character
    included, goes to the line parser, which decodes bytes as UTF-8, accepts
    what the format allows and gives each error its message and line. Where
    both accept a file they give the same instance bit for bit.
    """
    raw = data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data
    instance = _read_blocks(raw)
    if instance is None:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        instance = _read_lines(text.splitlines())
    return instance


def _read_blocks(data: bytes) -> Instance | None:
    """The instance of a file in the written shape, or None for any other file.

    The shape is the line ``MCKP 1``, the line ``m=<digits> b=<number>``,
    then a body of lines ``x y`` of two non-empty tokens each, every line
    ended by a newline. A line whose first token is ``cat`` is a category
    line: its size must be a run of digits, at least 1, and equal the number
    of item lines before the next category line or the end, and there must
    be ``m`` category lines, the first one first. The body may hold only the
    bytes of ``cat``, the number bytes ``[0-9.eE+-]``, spaces and newlines,
    and its spaces and newlines must alternate. So every line is one the
    line parser reads, in the same role, and no byte is one at which
    ``splitlines`` or ``float`` would read the file otherwise (a tab, a
    carriage return, a form feed, a non-ASCII byte, ``_``).

    Tokens that are runs of 1 to 15 digits are summed in numpy, one digit
    place at a time, which is exactly their ``float``; any other token goes
    through ``float`` on its own. A token ``float`` refuses, or a value the
    instance refuses (a negative cost, a zero budget), sends the file to the
    line parser too.
    """
    head, _, rest = data.partition(b"\n")
    line, _, body = rest.partition(b"\n")
    m_token, _, b_token = line.partition(b" ")
    if not (
        head == _MAGIC.encode()
        and m_token[:2] == b"m=" and m_token[2:].isdigit()
        and b_token[:2] == b"b=" and b_token[2:] and not b_token[2:].translate(None, _NUMBER_BYTES)
        and body.endswith(b"\n") and not body.translate(None, _BODY_BYTES)
    ):
        return None
    try:
        return _read_body(body, int(m_token[2:]), float(b_token[2:]))
    except ValueError:
        return None


def _read_body(body: bytes, m: int, budget: float) -> Instance | None:
    """:func:`_read_blocks` past the first two lines: the instance of the
    ``body`` of bytes it allows, or None. Raises ``ValueError`` where
    ``float`` or the instance refuses a value."""
    raw = np.frombuffer(body, np.uint8)
    # Token k ends at mark k, a space after the first token of a line and a
    # newline after the second. Digits are 0-9 and every other byte is above.
    ends = np.flatnonzero(raw <= ord(" "))
    lengths = ends.copy()
    lengths[1:] -= ends[:-1] + 1
    # a line's two marks, read as one little-endian uint16: b" \n"
    if len(ends) % 2 or not (lengths.all() and np.all(raw[ends].view("<u2") == 0x0A20)):
        return None
    # A plain token is a run of at most 15 digits. The column of place k
    # holds each token's k-th digit from the right, or 0 past its length;
    # the sums of the other tokens are replaced below. Every token has a
    # byte before its mark, so place 0 needs no length test.
    digits = raw - np.uint8(ord("0"))
    plain = lengths <= len(_PLACES)
    plain[np.searchsorted(ends, np.flatnonzero((digits > 9) & (raw > ord(" "))))] = False
    values = digits[ends - 1].astype(np.float64)
    for place in range(1, lengths[plain].max(initial=0)):
        column = np.take(digits, ends - (place + 1), mode="clip")
        column *= lengths > place
        values += column * _PLACES[place]
    # A first token of 3 bytes is the 3 bytes before its mark; a shorter
    # one's test reads other bytes, which its length test outvotes.
    first = ends[0::2]
    header = (
        (lengths[0::2] == 3) & (raw[first - 3] == ord("c"))
        & (raw[first - 2] == ord("a")) & (raw[first - 1] == ord("t"))
    )
    lines = np.flatnonzero(header)
    # each category line's items run to the next one, or to the end
    sizes = -1 - lines
    sizes[:-1] += lines[1:]
    sizes[-1:] += len(header)
    if not (
        len(lines) == m and header[0] and sizes.all()
        and plain[1::2][lines].all() and np.array_equal(values[1::2][lines], sizes)
    ):
        return None
    items = ~header
    for k in np.flatnonzero(~plain & np.repeat(items, 2)).tolist():
        values[k] = float(body[ends[k] - lengths[k]:ends[k]])
    starts = np.zeros(m + 1, np.int64)
    np.cumsum(sizes, out=starts[1:])
    return Instance._from_arrays(values[0::2][items], values[1::2][items], starts, budget)


def _read_lines(lines: list[str]) -> Instance:
    """The line parser: skips comments and blank lines, checks line by line."""
    # (line_number, content) with comments and blank lines dropped
    rows = [
        (no, line.strip())
        for no, line in enumerate(lines, start=1)
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
