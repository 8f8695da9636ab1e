"""Seeded random instance families.

Instances are reproducible across platforms from the spec alone: the
coefficient stream is SplitMix64 (documented reference constants), uniform
integers are taken as ``lo + next_u64() % span``, and draws happen in a
fixed order (categories outermost, items inner; per item the uncorrelated
family draws profit then cost, the weakly correlated family draws cost then
the additive noise).
"""

import enum
import math
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
    rng = SplitMix64(spec.seed)
    profits: list[int] = []
    costs: list[int] = []
    low = high = 0
    for _ in range(spec.m):
        start = len(costs)
        for _ in range(spec.n):
            if spec.correlation is Correlation.UNCORRELATED:
                profit = rng.randint(COEFF_LO, COEFF_HI)
                cost = rng.randint(COEFF_LO, COEFF_HI)
            else:
                cost = rng.randint(COEFF_LO, COEFF_HI)
                profit = max(1, cost + rng.randint(-WEAK_NOISE, WEAK_NOISE))
            profits.append(profit)
            costs.append(cost)
        low += min(costs[start:])
        high += max(costs[start:])
    budget = float(math.floor(low + spec.budget_ratio * (high - low) + 0.5))
    starts = np.arange(0, spec.m * spec.n + 1, spec.n)
    return Instance._from_arrays(
        np.array(profits, np.float64), np.array(costs, np.float64), starts, budget
    )
