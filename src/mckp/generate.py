"""Seeded random instance families.

Instances are reproducible across platforms from the spec alone: the
coefficient stream is SplitMix64 (documented reference constants), uniform
integers are taken as ``lo + next_u64() % span``, and draws happen in a
fixed order (categories outermost, items inner; per item the uncorrelated
family draws profit then cost, the weakly correlated family draws cost then
the additive noise). SplitMix64's state after ``k`` draws is ``seed + k *
gamma`` mod 2**64, so :func:`_draws` computes the whole stream at once, in
counter form, with no loop over the draws.
"""

import enum
import math
import operator
from dataclasses import dataclass

import numpy as np

from .model import Instance

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Reference SplitMix64 stream over a 64-bit state."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] via modulo reduction (bias < 2**-53
        for the spans used here)."""
        return lo + self.next_u64() % (hi - lo + 1)


def _draws(seed: int, count: int) -> np.ndarray:
    """The first ``count`` outputs of ``SplitMix64(seed)``, as a uint64 array.

    Draw ``k`` (from 1) mixes the state ``seed + k * gamma``. Array
    arithmetic wraps modulo 2**64 silently, where numpy's uint64 scalars
    warn, so every step runs on the array.
    """
    z = np.uint64(seed & _MASK64) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def _uniform(draws: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """:meth:`SplitMix64.randint` of each draw, as a float64 array of
    integers. The remainder is taken in place, in uint64."""
    draws %= np.uint64(hi - lo + 1)
    values = draws.astype(np.float64)
    values += lo
    return values


class Correlation(enum.Enum):
    UNCORRELATED = "uncorr"
    WEAK = "weak"


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one generated instance.

    ``budget_ratio`` places the budget between the cheapest and the most
    expensive selection: 0 admits only minimum-cost selections, 1 admits all.
    """

    m: int
    n: int
    correlation: Correlation
    seed: int
    budget_ratio: float = 0.5

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be at least 1")
        # a non-integer size such as 2.0 gets the TypeError range gives
        operator.index(self.m)
        operator.index(self.n)
        if not isinstance(self.correlation, Correlation):
            raise TypeError(f"correlation must be a Correlation, not {self.correlation!r}")
        if not 0.0 <= self.budget_ratio <= 1.0:
            raise ValueError("budget_ratio must lie in [0, 1]")


COEFF_LO = 1
COEFF_HI = 1000
WEAK_NOISE = 100


def generate(spec: GenSpec) -> Instance:
    """Deterministic instance for ``spec``.

    Uncorrelated: profit and cost i.i.d. uniform integers in [1, 1000].
    Weakly correlated: cost uniform in [1, 1000], profit = cost plus uniform
    noise in [-100, 100], clamped to at least 1. Budget = round(L + ratio *
    (U - L)) with L/U the minimum/maximum selection cost and round meaning
    floor(x + 0.5).
    """
    m, n = spec.m, spec.n
    # draws 2k and 2k + 1 belong to item k: row 0 and row 1 of column k
    first, second = _draws(spec.seed, 2 * m * n).reshape(-1, 2).T.copy()
    if spec.correlation is Correlation.UNCORRELATED:
        profits = _uniform(first, COEFF_LO, COEFF_HI)
        costs = _uniform(second, COEFF_LO, COEFF_HI)
    else:
        costs = _uniform(first, COEFF_LO, COEFF_HI)
        profits = _uniform(second, -WEAK_NOISE, WEAK_NOISE)
        profits += costs
        np.maximum(profits, 1.0, out=profits)
    by_category = costs.reshape(m, n)
    low, high = int(by_category.min(1).sum()), int(by_category.max(1).sum())
    budget = float(math.floor(low + spec.budget_ratio * (high - low) + 0.5))
    return Instance._from_arrays(profits, costs, np.arange(0, m * n + 1, n), budget)
