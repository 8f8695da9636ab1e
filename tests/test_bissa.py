import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckp import (
    Correlation,
    GenSpec,
    InfeasibleInstanceError,
    Instance,
    MCKPError,
    bissa,
    generate,
    evaluate,
    is_feasible,
    pareto_filter,
    solve_linear,
)

from mckp.bissa import BisectionLimitError

from helpers import (
    absorbed_profits_instance,
    bissa_by_evaluate,
    float_edge_instance,
    linear_sweep_weights,
    random_instance,
    solve_linear_all_items,
    solve_linear_by_scan,
)

# ``mckp.bissa`` is the function once the package is imported; the module
# holds the step limit and the name the bisection looks ``solve_linear`` up by.
bissa_module = importlib.import_module("mckp.bissa")


class TestFlatProbes:
    """``solve_linear`` scores every frontier item at once; it must pick what
    the scalar loop over each frontier picks (``helpers.solve_linear_by_scan``)
    at every weight BISSA probes and at random ones."""

    @staticmethod
    def check(inst, weights):
        for w in weights:
            got = solve_linear(inst, w)
            assert got == solve_linear_by_scan(inst, w), (inst, w)
            assert all(type(i) is int for i in got)

    def test_float_edges(self):
        rng = random.Random(16)
        bisected = 0
        for _ in range(1500):
            inst = float_edge_instance(rng)
            try:
                trace = [step.weight for step in bissa(inst).trace]
            except MCKPError:
                trace = []
            bisected += len(trace) > 2
            self.check(inst, trace + [0.0, 0.5, 1.0] + [rng.random() for _ in range(8)])
        assert bisected >= 50  # the weights cover bisection steps, not only endpoints

    @pytest.mark.parametrize("correlation", list(Correlation))
    def test_generated(self, correlation):
        rng = random.Random(f"flat-probes:{correlation.value}")
        for seed in range(8):
            spec = GenSpec(
                m=rng.randint(1, 60),
                n=rng.randint(1, 60),
                correlation=correlation,
                seed=seed,
                budget_ratio=rng.uniform(0.2, 0.8),
            )
            inst = generate(spec)
            trace = [step.weight for step in bissa(inst).trace]
            self.check(inst, trace + [rng.random() for _ in range(20)])


class TestSolveLinear:
    def test_full_profit_weight(self, appendix):
        sel = solve_linear(appendix, 1.0)
        assert sel == (1, 0)
        assert evaluate(appendix, sel) == pytest.approx((7.0, -5.0))

    def test_zero_weight_minimizes_cost(self, appendix):
        sel = solve_linear(appendix, 0.0)
        assert sel == (0, 1)
        assert evaluate(appendix, sel) == pytest.approx((4.0, -2.9))

    def test_zero_weight_tie_takes_the_nondominated_item(self):
        # equal costs: the scalarization ties at w=0, and the frontier holds
        # only the more profitable item, which dominates the other
        inst = Instance((((1.0, 2.0), (9.0, 2.0)),), budget=3.0)
        assert solve_linear(inst, 0.0) == (1,)

    def test_interior_weights_give_category_pareto_components(self):
        rng = random.Random(3)
        for _ in range(100):
            inst = random_instance(rng)
            w = rng.uniform(1e-6, 1 - 1e-6)
            sel = solve_linear(inst, w)
            for j, i in enumerate(sel):
                assert i in pareto_filter(inst.categories[j])

    def test_rejects_weight_outside_unit_interval(self, appendix):
        with pytest.raises(ValueError):
            solve_linear(appendix, 1.5)


def tie_heavy_instance(rng: random.Random) -> Instance:
    """Small coefficients, so ties and duplicate items are common; some
    categories put every item on one line, shuffled."""
    cats = []
    for _ in range(rng.randint(1, 4)):
        n = rng.randint(1, 6)
        if rng.random() < 0.3:
            p0, c0 = rng.randint(0, 3), rng.randint(0, 3)
            dp, dc = rng.randint(0, 2), rng.randint(0, 2)
            cat = [(p0 + k * dp, c0 + k * dc) for k in range(n)]
            rng.shuffle(cat)
        else:
            cat = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(n)]
        cats.append(tuple(cat))
    return Instance(tuple(cats), budget=rng.randint(1, 4 * len(cats)))


class TestSolveLinearMatchesAllItems:
    """``solve_linear`` reads only each category's frontier. Inside (0, 1]
    it must pick what the scan over all items picks; at w=0 it picks each
    frontier's cheapest item, the nondominated one."""

    @staticmethod
    def check(inst, weights):
        for w in weights:
            if w > 0.0:
                assert solve_linear(inst, w) == solve_linear_all_items(inst, w), w
        assert solve_linear(inst, 0.0) == tuple(pareto_filter(c)[0] for c in inst.categories)

    @staticmethod
    def trace_weights(inst):
        try:
            return [step.weight for step in bissa(inst).trace]
        except InfeasibleInstanceError:
            return []

    def test_generated_instances(self):
        for corr in (Correlation.WEAK, Correlation.UNCORRELATED):
            for seed in range(4):
                inst = generate(GenSpec(m=6, n=15, correlation=corr, seed=seed))
                self.check(inst, linear_sweep_weights(inst) + self.trace_weights(inst))
        for spec in (
            GenSpec(m=40, n=200, correlation=Correlation.WEAK, seed=1),
            GenSpec(m=250, n=10, correlation=Correlation.UNCORRELATED, seed=1,
                    budget_ratio=0.35),
        ):
            inst = generate(spec)
            self.check(inst, self.trace_weights(inst))

    def test_ties_duplicates_and_collinear_items(self):
        rng = random.Random(21)
        for _ in range(300):
            inst = tie_heavy_instance(rng)
            self.check(inst, linear_sweep_weights(inst) + self.trace_weights(inst))


def bissa_outcome(run, inst):
    """``run(inst)``'s endpoints, certificate and trace, or its error."""
    try:
        res = run(inst)
    except MCKPError as err:
        return type(err), str(err)
    return res.xa, res.xb, res.certificate, res.trace


@st.composite
def probed_instances(draw):
    """A float-edge, random, tie-heavy or absorbed-profits instance, or a
    generated one of up to 30 x 30."""
    kind = draw(st.sampled_from(["edge", "random", "ties", "generated", "absorbed"]))
    if kind == "absorbed":
        return absorbed_profits_instance()
    if kind == "generated":
        return generate(GenSpec(
            m=draw(st.integers(1, 30)), n=draw(st.integers(1, 30)),
            correlation=draw(st.sampled_from(list(Correlation))), seed=draw(st.integers(0, 99)),
            budget_ratio=draw(st.floats(0.0, 1.0)),
        ))
    rng = draw(st.randoms(use_true_random=False))
    return {"edge": float_edge_instance, "random": random_instance, "ties": tie_heavy_instance}[
        kind
    ](rng)


class TestProbesMatchEvaluate:
    """Each probe sums its selection's items at positions it does not check:
    ``bissa`` must give the endpoints, certificate and trace of
    ``helpers.bissa_by_evaluate``, which checks each selection again."""

    @settings(max_examples=400, deadline=None)
    @given(probed_instances())
    def test_drawn_instances(self, inst):
        got = bissa_outcome(bissa, inst)
        assert got == bissa_outcome(bissa_by_evaluate, inst)
        if not isinstance(got[0], type):
            assert all(type(i) is int for step in got[3] for i in step.selection)

    def test_benchmark_instances(self):
        for spec in (
            GenSpec(m=40, n=200, correlation=Correlation.WEAK, seed=1),
            GenSpec(m=250, n=10, correlation=Correlation.UNCORRELATED, seed=1,
                    budget_ratio=0.35),
        ):
            inst = generate(spec)
            assert bissa_outcome(bissa, inst) == bissa_outcome(bissa_by_evaluate, inst)


class TestBissaAppendix:
    def test_straddle(self, appendix):
        res = bissa(appendix)
        assert not res.exact
        assert evaluate(appendix, res.xa) == pytest.approx((6.0, -3.9), abs=1e-12)
        assert evaluate(appendix, res.xb) == pytest.approx((7.0, -5.0), abs=1e-12)
        gap_cost = evaluate(appendix, res.xa).f2 - evaluate(appendix, res.xb).f2
        assert gap_cost == pytest.approx(1.1, abs=1e-12)
        assert is_feasible(appendix, res.xa)
        assert not is_feasible(appendix, res.xb)

    def test_endpoints_are_reproducible_from_trace(self, appendix):
        res = bissa(appendix)
        pa = evaluate(appendix, res.xa)
        pb = evaluate(appendix, res.xb)
        seen = [evaluate(appendix, solve_linear(appendix, s.weight)) for s in res.trace]
        assert pa in seen and pb in seen


class TestBissaExactCases:
    def test_slack_budget_returns_max_profit(self):
        inst = Instance((((1, 5), (9, 7)), ((2, 3), (4, 8))), budget=100.0)
        res = bissa(inst)
        assert res.exact
        assert res.certificate == "max-profit-feasible"
        assert res.xb is None
        assert evaluate(inst, res.xa).f1 == 13.0

    def test_zero_slack_certificate(self):
        # supported selection (item1, item0) costs exactly the budget
        inst = Instance((((1, 1), (5, 4)), ((2, 2), (6, 7))), budget=6.0)
        res = bissa(inst)
        assert res.exact
        assert res.certificate == "zero-slack"
        assert -evaluate(inst, res.xa).f2 == 6.0

    @pytest.mark.parametrize("middle_cost", [1, 1e-300], ids=["integer", "fractional"])
    def test_zero_slack_needs_exact_cost_sums(self, middle_cost):
        # The anchor (0, 0, 0) spends the budget exactly, but summed in
        # category order the middle cost rounds away, so (0, 1, 0) fits at
        # profit 1: the anchor is an ordinary feasible probe.
        inst = Instance(
            [[(0, 0), (10, 2**60)], [(0, 0), (1, middle_cost)], [(0, 2**60)]], 2**60
        )
        assert is_feasible(inst, (0, 1, 0))
        res = bissa(inst)
        assert not res.exact and res.certificate is None
        assert is_feasible(inst, res.xa)

    def test_zero_slack_at_the_min_cost_anchor(self):
        # budget ratio 0: the budget is the cheapest selection's cost, so the
        # anchor probe after the infeasible max-profit probe spends it exactly
        for seed in range(5):
            inst = generate(
                GenSpec(m=4, n=3, correlation=Correlation.WEAK, seed=seed, budget_ratio=0.0)
            )
            res = bissa(inst)
            assert res.exact
            assert res.certificate == "zero-slack"
            assert res.xb is None
            assert len(res.trace) == 2
            assert not res.trace[0].feasible and res.trace[1].feasible
            assert -evaluate(inst, res.xa).f2 == inst.budget

    def test_anchor_probe_at_zero_weight(self):
        # after an infeasible max-profit probe, the min-cost anchor is probed
        # at w=0 and takes each frontier's cheapest item
        rng = random.Random(16)
        anchored = 0
        for _ in range(200):
            inst = random_instance(rng)
            try:
                res = bissa(inst)
            except InfeasibleInstanceError:
                continue
            if len(res.trace) < 2:
                continue
            anchored += 1
            assert res.trace[1].weight == 0.0
            assert res.trace[1].selection == tuple(pareto_filter(c)[0] for c in inst.categories)
        assert anchored > 50

    def test_infeasible_instance(self):
        inst = Instance((((1, 5), (2, 6)),), budget=2.0)
        with pytest.raises(InfeasibleInstanceError):
            bissa(inst)


class TestBisectionLimit:
    """``MAX_BISECTION_STEPS`` counts the probes after the max-profit probe
    and the min-cost anchor; the last allowed probe still ends the run."""

    @staticmethod
    def count_probes(monkeypatch):
        calls = []
        solve = bissa_module.solve_linear

        def counting(instance, w):
            calls.append(w)
            return solve(instance, w)

        monkeypatch.setattr(bissa_module, "solve_linear", counting)
        return calls

    def test_limit_raises_after_its_probes(self, monkeypatch):
        # 10 probes unpatched: the max-profit probe, the anchor and 8 steps
        inst = generate(GenSpec(m=20, n=20, correlation=Correlation.WEAK, seed=1))
        assert len(bissa(inst).trace) == 10
        calls = self.count_probes(monkeypatch)
        for limit in (1, 2, 7):
            calls.clear()
            monkeypatch.setattr(bissa_module, "MAX_BISECTION_STEPS", limit)
            with pytest.raises(BisectionLimitError, match=f"within {limit} bisection"):
                bissa(inst)
            assert len(calls) == limit + 2
        calls.clear()
        monkeypatch.setattr(bissa_module, "MAX_BISECTION_STEPS", 8)
        res = bissa(inst)
        assert not res.exact
        assert len(calls) == len(res.trace) == 10

    def test_zero_slack_on_the_last_allowed_probe(self, monkeypatch):
        # 5 probes unpatched, the fifth spends the budget exactly
        inst = generate(
            GenSpec(m=6, n=6, correlation=Correlation.WEAK, seed=124, budget_ratio=0.5)
        )
        assert len(bissa(inst).trace) == 5
        monkeypatch.setattr(bissa_module, "MAX_BISECTION_STEPS", 3)
        res = bissa(inst)
        assert res.certificate == "zero-slack" and len(res.trace) == 5
        monkeypatch.setattr(bissa_module, "MAX_BISECTION_STEPS", 2)
        with pytest.raises(BisectionLimitError):
            bissa(inst)


class TestAbsorbedProfitDifferences:
    def test_probe_outside_the_bracket_stops_the_bisection(self):
        inst = absorbed_profits_instance()
        res = bissa(inst)
        assert not res.exact
        assert (res.xa, res.xb) == ((0, 0, 0, 0), (0, 2, 0, 0))
        assert len(res.trace) == 4
        assert is_feasible(inst, res.xa)
        assert not is_feasible(inst, res.xb)


class TestBissaProperties:
    def test_straddle_invariants(self):
        rng = random.Random(11)
        for _ in range(300):
            inst = random_instance(rng)
            try:
                res = bissa(inst)
            except InfeasibleInstanceError:
                continue
            if res.exact:
                assert is_feasible(inst, res.xa)
                continue
            pa = evaluate(inst, res.xa)
            pb = evaluate(inst, res.xb)
            assert is_feasible(inst, res.xa)
            assert not is_feasible(inst, res.xb)
            assert pa.f1 < pb.f1
            assert pa.f2 > pb.f2
            assert res.certificate is None
            for j in range(inst.m):
                frontier = pareto_filter(inst.categories[j])
                assert res.xa[j] in frontier
                assert res.xb[j] in frontier

    def test_xa_best_feasible_reachable_by_weight_sweep(self):
        # sweeping every argmax-switching weight enumerates everything
        # solve_linear can ever return; the feasible best must match xa
        rng = random.Random(12)
        checked = 0
        for _ in range(200):
            inst = random_instance(rng)
            try:
                res = bissa(inst)
            except InfeasibleInstanceError:
                continue
            reachable = {solve_linear(inst, w) for w in linear_sweep_weights(inst)}
            feasible_profits = [
                evaluate(inst, sel).f1 for sel in reachable if is_feasible(inst, sel)
            ]
            if res.exact:
                assert evaluate(inst, res.xa).f1 == pytest.approx(max(feasible_profits))
                continue
            checked += 1
            assert evaluate(inst, res.xa).f1 == pytest.approx(max(feasible_profits))
            # and xb is the cheapest infeasible point above xa on the hull walk
            infeasible_costs = [
                -evaluate(inst, sel).f2
                for sel in reachable
                if not is_feasible(inst, sel)
            ]
            assert -evaluate(inst, res.xb).f2 == pytest.approx(min(infeasible_costs))
        assert checked > 50

    def test_collinear_hull_edge_stops_at_tie_representative(self):
        # all three items sit on one hull segment; at the shared breakpoint
        # the tie rule yields the cheapest selection, so the bisection stops
        # with the endpoints and never oscillates across the segment
        inst = Instance((((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)),), budget=1.5)
        res = bissa(inst)
        assert not res.exact
        assert res.xa == (0,)
        assert res.xb == (2,)
        # the middle item is never produced by any weight, so xa is still the
        # best reachable feasible selection
        reachable = {solve_linear(inst, w) for w in linear_sweep_weights(inst)}
        assert (1,) not in reachable

    def test_all_zero_profits(self):
        inst = Instance((((0, 3), (0, 1)), ((0, 2), (0, 5))), budget=4.0)
        res = bissa(inst)
        assert res.exact  # max-profit tie rule lands on the cheapest selection
        assert evaluate(inst, res.xa).f1 == 0.0
        assert is_feasible(inst, res.xa)

    def test_exact_iff_boundary_cases(self):
        rng = random.Random(13)
        exact_seen = 0
        for _ in range(100):
            inst = random_instance(rng, budget_ratio=1.0)
            res = bissa(inst)
            assert res.exact  # budget covers the costliest selection
            exact_seen += 1
        assert exact_seen == 100

    def test_trace_weights_stay_bracketed(self):
        rng = random.Random(14)
        for _ in range(100):
            inst = random_instance(rng)
            try:
                res = bissa(inst)
            except InfeasibleInstanceError:
                continue
            assert len(res.trace) <= 200
            for step in res.trace:
                assert 0.0 <= step.weight <= 1.0

    def test_xa_best_reachable_at_benchmark_scale(self):
        for seed in (1, 2, 3):
            inst = generate(
                GenSpec(m=20, n=20, correlation=Correlation.WEAK, seed=seed)
            )
            res = bissa(inst)
            best_feasible = max(
                evaluate(inst, sel).f1
                for sel in {solve_linear(inst, w) for w in linear_sweep_weights(inst)}
                if is_feasible(inst, sel)
            )
            assert evaluate(inst, res.xa).f1 == pytest.approx(best_feasible)

    def test_probe_count_bounded_by_supported_pairs(self):
        # every probe except the two seeds and the terminal repeat discovers
        # a new supported objective pair
        rng = random.Random(15)
        for _ in range(150):
            inst = random_instance(rng)
            try:
                res = bissa(inst)
            except InfeasibleInstanceError:
                continue
            distinct = {
                tuple(evaluate(inst, solve_linear(inst, w)))
                for w in linear_sweep_weights(inst)
            }
            assert len(res.trace) <= len(distinct) + 3
