import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckp import (
    Correlation,
    GenSpec,
    SplitMix64,
    bissa,
    evaluate,
    generate,
    is_feasible,
    solve_linear,
)
from mckp.generate import _draws

from helpers import generate_by_stream


class TestSplitMix64:
    def test_reference_vectors_seed_zero(self):
        # published test vectors for the reference implementation
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_counter_form_gives_the_reference_vectors(self):
        assert _draws(0, 3).tolist() == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F
        ]

    def test_seed_wraps_to_64_bits(self):
        assert SplitMix64(2**64).next_u64() == SplitMix64(0).next_u64()

    def test_randint_bounds(self):
        rng = SplitMix64(42)
        values = [rng.randint(1, 1000) for _ in range(5000)]
        assert min(values) >= 1 and max(values) <= 1000
        assert len(set(values)) > 900  # sanity: spread over the range


def spec(**kwargs):
    base = dict(m=5, n=4, correlation=Correlation.UNCORRELATED, seed=7)
    base.update(kwargs)
    return GenSpec(**base)


class TestGenerate:
    def test_deterministic(self):
        assert generate(spec()) == generate(spec())
        assert generate(spec(seed=8)) != generate(spec())

    def test_shape_and_ranges(self):
        inst = generate(spec(m=30, n=10))
        assert inst.m == 30
        assert inst.sizes == (10,) * 30
        for cat in inst.categories:
            for item in cat:
                assert 1 <= item.profit <= 1000
                assert 1 <= item.cost <= 1000
                assert float(item.profit).is_integer()
                assert float(item.cost).is_integer()

    def test_weak_correlation_tracks_cost(self):
        inst = generate(spec(correlation=Correlation.WEAK, m=40, n=10))
        for cat in inst.categories:
            for item in cat:
                assert item.profit >= 1
                assert abs(item.profit - item.cost) <= 100

    def test_budget_interpolates_cost_range(self):
        lo = generate(spec(budget_ratio=0.0))
        hi = generate(spec(budget_ratio=1.0))
        mid = generate(spec(budget_ratio=0.5))
        low = sum(min(i.cost for i in cat) for cat in lo.categories)
        high = sum(max(i.cost for i in cat) for cat in lo.categories)
        assert lo.budget == low
        assert hi.budget == high
        assert mid.budget == float(int(low + 0.5 * (high - low) + 0.5))

    def test_full_budget_ratio_makes_everything_feasible(self):
        inst = generate(spec(budget_ratio=1.0, m=4, n=3))
        costliest = tuple(
            max(range(len(cat)), key=lambda i: cat[i].cost)
            for cat in inst.categories
        )
        assert is_feasible(inst, costliest)
        assert bissa(inst).exact

    def test_zero_budget_ratio_admits_only_min_cost(self):
        inst = generate(spec(budget_ratio=0.0, m=4, n=3))
        cheapest = solve_linear(inst, 0.0)
        assert is_feasible(inst, cheapest)
        low = -evaluate(inst, cheapest).f2
        # any selection spending more than the floor is infeasible
        for j, cat in enumerate(inst.categories):
            for i in range(len(cat)):
                sel = list(cheapest)
                sel[j] = i
                if cat[i].cost > cat[cheapest[j]].cost:
                    assert not is_feasible(inst, tuple(sel))
        assert inst.budget == low

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            GenSpec(m=0, n=1, correlation=Correlation.WEAK, seed=1)
        with pytest.raises(ValueError):
            GenSpec(m=1, n=1, correlation=Correlation.WEAK, seed=1, budget_ratio=2.0)

    @pytest.mark.parametrize("m, n", [(2.0, 3), (2, np.float64(3)), (2, 3.5)])
    def test_refuses_a_non_integer_size_at_construction(self, m, n):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            GenSpec(m=m, n=n, correlation=Correlation.WEAK, seed=1)

    @pytest.mark.parametrize("correlation", ["uncorr", "weak", None])
    def test_refuses_a_correlation_that_is_no_correlation(self, correlation):
        # a correlation's value is no correlation: generate would draw "uncorr" as weak
        with pytest.raises(TypeError, match="Correlation"):
            GenSpec(m=3, n=3, correlation=correlation, seed=1)

    def test_accepts_numpy_integer_sizes(self):
        sized = spec(m=np.int64(3), n=np.int32(4))
        assert generate(sized) == generate(spec(m=3, n=4))


# 0, a negative seed, the largest 64-bit seed and seeds that wrap past it
SEEDS = st.sampled_from([0, -1, 2**64 - 1, 2**64, 2**64 + 7]) | st.integers(-(2**70), 2**70)


def assert_same_instance(got, want):
    assert got == want and got.budget == want.budget
    for name in ("profits", "costs", "starts"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestCounterFormStream:
    """``generate`` against the scalar stream it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(1, 60),
        n=st.integers(1, 60),
        correlation=st.sampled_from(Correlation),
        seed=SEEDS,
        budget_ratio=st.sampled_from([0, 0.0, 1, 1.0]) | st.floats(0, 1),
    )
    def test_equals_the_scalar_stream(self, m, n, correlation, seed, budget_ratio):
        spec = GenSpec(m, n, correlation, seed, budget_ratio)
        assert_same_instance(generate(spec), generate_by_stream(spec))

    def test_equals_the_scalar_stream_at_the_largest_baseline_shape(self):
        spec = GenSpec(10000, 20, Correlation.WEAK, 1)
        assert_same_instance(generate(spec), generate_by_stream(spec))
