"""KISSA's one straddle rule: it runs every straddle whose feasible end fits
the budget, and refuses the rest, exact straddles included.

Beyond ``bissa``'s straddles, hand-built ones run too: an anchor that
out-profits the feasible end nowhere, or a feasible component that costs
more than the anchor's. Both Chebyshev weights stay positive whichever end
costs more, and every swap still goes through the swap check.
"""

import importlib
import math
import random
import re

import pytest

from mckp import (
    Instance, KissaConfig, SelectionRule, Termination, evaluate, improvable_categories, is_feasible,
    kissa,
)
from mckp.bissa import BissaResult

import helpers
from helpers import dominated_straddle

kissa_module = importlib.import_module("mckp.kissa")

# (6, 5) and (5, 3) are each category's most profitable item
INSTANCE = Instance((((2, 1), (6, 5)), ((1, 1), (5, 3))), budget=4)


def straddle(xa, xb, certificate=None) -> BissaResult:
    return BissaResult(xa=xa, xb=xb, certificate=certificate, trace=[])


def runs(inst, hand_built):
    """The runs from ``hand_built`` under every selection rule."""
    return [kissa(inst, hand_built, KissaConfig(rule=rule)) for rule in SelectionRule]


class TestRefusedStraddles:
    @pytest.mark.parametrize(
        "hand_built, cost",
        [
            (straddle((1, 0), (1, 1)), 6.0),
            (straddle((1, 1), None, "max-profit-feasible"), 8.0),
        ],
        ids=["straddle", "exact"],
    )
    def test_feasible_end_over_budget(self, hand_built, cost):
        message = f"straddle.xa costs {cost!r}, over the budget 4.0"
        with pytest.raises(ValueError, match=re.escape(message)):
            kissa(INSTANCE, hand_built)


class TestHandBuiltStraddles:
    def test_no_lead_is_one_no_improvement_iteration(self):
        start = evaluate(INSTANCE, (0, 1))
        for run in runs(INSTANCE, straddle((0, 1), (0, 1))):
            assert run.final == (0, 1)
            assert run.improvements == 0
            assert run.termination is Termination.NO_IMPROVEMENT
            [iteration] = run.iterations
            assert not (iteration.candidates or iteration.gains or iteration.affordable)
            assert (iteration.chosen, iteration.objective) == (None, start)

    def test_feasible_component_costlier_than_the_anchor(self):
        # xa's (1, 6) in category 0 costs more than the anchor's (6, 5)
        inst = Instance((((2, 1), (6, 5), (1, 6)), ((1, 1), (5, 3))), budget=9)
        for run in runs(inst, straddle((2, 0), (1, 1))):
            assert run.improvements == 2
            assert run.final == (1, 0)
            assert evaluate(inst, run.final) == (7, -6)

    def test_drawn_straddles(self, monkeypatch):
        # Random ends of random instances, in whole numbers or tenths: each
        # run whose xa fits ends feasible, its profit rising at every swap,
        # as on the path that sums every swap again; every other is refused.
        rng = random.Random(32)
        seen = {"refused": 0, "no lead": 0, "costlier": 0, "swaps": 0}
        fits = 0
        while fits < 400:
            scale = rng.choice((1, 10))
            cats = [
                [(rng.randint(0, 9) / scale, rng.randint(0, 9) / scale)
                 for _ in range(rng.randint(1, 5))]
                for _ in range(rng.randint(1, 5))
            ]
            xa, xb = (tuple(rng.randrange(len(cat)) for cat in cats) for _ in range(2))
            mix = tuple(rng.choice(pair) for pair in zip(xa, xb))
            inst = Instance(cats, max(-evaluate(Instance(cats, 1), mix).f2, 0.1))
            hand_built = straddle(xa, xb)
            if not is_feasible(inst, xa):
                seen["refused"] += 1
                with pytest.raises(ValueError, match="over the budget"):
                    kissa(inst, hand_built)
                continue
            fits += 1
            lead = improvable_categories(inst, xa, xb)
            seen["no lead"] += not lead
            seen["costlier"] += any(cats[j][xa[j]][1] >= cats[j][xb[j]][1] for j in lead)
            got = runs(inst, hand_built)
            seen["swaps"] += got[0].improvements
            with monkeypatch.context() as patch:
                patch.setattr(kissa_module, "exact_cost_sums", lambda instance: False)
                assert got == runs(inst, hand_built)
            for run in got:
                profits = [evaluate(inst, xa).f1] + [it.objective.f1 for it in run.iterations[:-1]]
                assert all(a < b for a, b in zip(profits, profits[1:]))
                assert is_feasible(inst, run.final)
                assert run.iterations[-1].objective == evaluate(inst, run.final)
        assert min(seen.values()) > 50, seen


class TestDominatedStraddleBudgets:
    def test_budgets_do_not_follow_the_builtin_sum(self, monkeypatch):
        # Python 3.12's sum compensates float sums; math.fsum stands in for
        # it. The draws are those of test_kissa's TestDominatedFeasibleEnd.
        def draws():
            rng = random.Random(1)
            drawn = []
            while len(drawn) < 600:
                cats = [
                    [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(rng.randint(1, 4))]
                    for _ in range(rng.randint(2, 5))
                ]
                pair = dominated_straddle(rng, cats)
                if pair is not None:
                    drawn.append(pair)
            return drawn

        plain = draws()
        monkeypatch.setattr(helpers, "sum", math.fsum, raising=False)
        shadowed = draws()
        assert [inst.budget for inst, _ in shadowed] == [inst.budget for inst, _ in plain]
        assert all(is_feasible(inst, pair.xa) for inst, pair in shadowed)
