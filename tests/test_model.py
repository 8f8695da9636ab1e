import copy as copy_module
import dataclasses
import itertools
import math
import pickle
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mckp
from mckp import model
from mckp.model import exact_cost_sums
from mckp import (
    Correlation,
    GenSpec,
    Instance,
    InstanceFormatError,
    InvalidSelectionError,
    evaluate,
    generate,
    is_feasible,
    pareto_filter,
    read_instance,
    write_instance,
)

from helpers import (
    evaluate_by_loop,
    exact_cost_sums_by_scan,
    float_edge_instance,
    pareto_filter_by_loop,
    pareto_items_by_pairwise_scan,
    random_instance,
    view_segments,
)


def test_public_names_resolve_once():
    assert len(mckp.__all__) == len(set(mckp.__all__))
    for name in mckp.__all__:
        assert hasattr(mckp, name), name


class TestEvaluate:
    def test_appendix_values(self, appendix):
        assert evaluate(appendix, (0, 0)) == pytest.approx((6.0, -3.9), abs=1e-12)
        assert evaluate(appendix, (1, 0)) == pytest.approx((7.0, -5.0), abs=1e-12)
        assert evaluate(appendix, (0, 1)) == pytest.approx((4.0, -2.9), abs=1e-12)
        # printed tables elsewhere disagree; the coefficients give (5, -4)
        assert evaluate(appendix, (1, 1)) == pytest.approx((5.0, -4.0), abs=1e-12)

    def test_zero_item(self):
        inst = Instance((((0.0, 0.0),),), budget=1.0)
        assert evaluate(inst, (0,)) == (0.0, 0.0)

    def test_invalid_selection(self, appendix):
        with pytest.raises(InvalidSelectionError):
            evaluate(appendix, (0, 2))
        with pytest.raises(InvalidSelectionError):
            evaluate(appendix, (0,))

    @pytest.mark.parametrize(
        "sel, message",
        [
            ((0,), "selection has 1 components, instance has 2 categories"),
            ((0, 0, 0), "selection has 3 components, instance has 2 categories"),
            ((0, -1), "component 1 is -1, valid range is [0, 2)"),
            ((-3, 0), "component 0 is -3, valid range is [0, 2)"),
            ((0, 2), "component 1 is 2, valid range is [0, 2)"),
            ((2**70, 0), f"component 0 is {2**70}, valid range is [0, 2)"),
            ((0, -(2**70)), f"component 1 is {-(2**70)}, valid range is [0, 2)"),
        ],
    )
    def test_invalid_selection_messages(self, appendix, sel, message):
        # numpy would wrap a negative index and refuses 2**70 with OverflowError
        with pytest.raises(InvalidSelectionError) as info:
            evaluate(appendix, sel)
        assert str(info.value) == message

    def test_non_integer_component_is_refused(self, appendix):
        with pytest.raises(TypeError):
            evaluate(appendix, (0, 1.0))

    @pytest.mark.parametrize(
        "cats, image",
        [
            # 0.0 + -0.0 is 0.0, and so is 0.0 - -0.0
            ([[(-0.0, -0.0)], [(-0.0, -0.0)]], (0.0, 0.0)),
            ([[(5e-324, 5e-324)], [(5e-324, 5e-324)]], (1e-323, -1e-323)),
            # in category order 2**53 + 1 rounds to 2**53 at every step;
            # np.sum's pairwise sum would add ones together and pass 2**53
            ([[(2**53, 2**53)]] + [[(1, 1)]] * 30, (2.0**53, -(2.0**53))),
            ([[(1e308, 1e308)], [(1e308, 1e308)], [(0, 0)]], (math.inf, -math.inf)),
        ],
        ids=["negative-zero", "subnormal", "past-2-pow-53", "overflow"],
    )
    def test_pinned_bits(self, cats, image):
        inst = Instance(cats, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning fails
            got = evaluate(inst, (0,) * len(cats))
        assert [v.hex() for v in got] == [v.hex() for v in image]
        assert all(type(v) is float for v in got)

    def test_bits_match_the_category_order_loop_at_the_float_edges(self):
        rng = random.Random(18)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(1000):
                inst = float_edge_instance(rng, max_m=6)
                sel = tuple(rng.randrange(n) for n in inst.sizes)
                got = evaluate(inst, sel)
                assert [v.hex() for v in got] == [v.hex() for v in evaluate_by_loop(inst, sel)]

    def test_additively_separable(self):
        rng = random.Random(71)
        for _ in range(100):
            inst = random_instance(rng)
            sel = tuple(rng.randrange(len(cat)) for cat in inst.categories)
            whole = evaluate(inst, sel)
            f1 = 0.0
            f2 = 0.0
            for j, i in enumerate(sel):
                part = evaluate(Instance((inst.categories[j],), inst.budget), (i,))
                f1 += part.f1
                f2 += part.f2
            assert whole == (f1, f2)  # same summation order, bitwise equal


class TestFeasibility:
    def test_appendix(self, appendix):
        assert is_feasible(appendix, (0, 1))  # cost 2.9
        assert not is_feasible(appendix, (1, 0))  # cost 5

    def test_slack_budget_admits_everything(self):
        inst = Instance((((1, 5), (9, 7)), ((2, 3), (4, 8))), budget=15.0)
        for sel in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert is_feasible(inst, sel)

    def test_matches_objective_threshold(self):
        rng = random.Random(5)
        for _ in range(50):
            inst = random_instance(rng)
            sel = tuple(rng.randrange(len(cat)) for cat in inst.categories)
            assert is_feasible(inst, sel) == (evaluate(inst, sel).f2 >= -inst.budget)


class TestInstanceValidation:
    def test_rejects_bad_data(self):
        with pytest.raises(ValueError):
            Instance((), budget=1.0)
        with pytest.raises(ValueError):
            Instance(((),), budget=1.0)
        with pytest.raises(ValueError):
            Instance((((-1.0, 2.0),),), budget=1.0)
        with pytest.raises(ValueError):
            Instance((((1.0, 2.0),),), budget=0.0)
        with pytest.raises(ValueError):
            Instance((((math.inf, 2.0),),), budget=1.0)


class TestFromFlat:
    """``Instance.from_flat`` builds only what the constructor can build."""

    @pytest.mark.parametrize(
        "profits, costs, starts, message",
        [
            ([1.0, 2.0, 3.0], [1.0, 1.0], [0, 3], "3 profits but 2 costs"),
            ([1.0], [1.0], [0, 5], "starts must run from 0 to 1"),  # a 'cat 5' of one item
            ([1.0, 2.0], [1.0, 1.0], [1, 2], "starts must run from 0 to 2"),  # item 0 orphaned
            ([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], [0, 2, 1, 3], "category 1 is of negative size"),
            ([1.0], [1.0], [0, 2**70, 1], "starts must run from 0 to 1"),  # past int64
        ],
    )
    def test_refuses_a_view_no_categories_give(self, profits, costs, starts, message):
        with pytest.raises(ValueError, match=message):
            Instance.from_flat(profits, costs, starts, 5.0)

    @pytest.mark.parametrize(
        "profits, costs, starts, message",
        [
            # the first culprit in category order, items before a later category
            ([math.nan, 1.0], [1.0, 1.0], [0, 1, 1, 2],
             "non-finite coefficient at category 0 item 0"),
            ([1.0, -1.0, 1.0], [1.0, 1.0, 1.0], [0, 1, 1, 3], "category 1 is empty"),
            ([1.0, 1.0, -1.0], [1.0, 1.0, 1.0], [0, 2, 3],
             "negative coefficient at category 1 item 0"),
            ([1.0, 1.0, 1.0], [1.0, -1.0, math.inf], [0, 3],
             "negative coefficient at category 0 item 1"),
            ([-1.0], [math.inf], [0, 1], "non-finite coefficient at category 0 item 0"),
            ([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0, 2, 2, 1, 3], "category 1 is empty"),
        ],
    )
    def test_names_the_first_culprit(self, profits, costs, starts, message):
        with pytest.raises(ValueError, match=message):
            Instance.from_flat(profits, costs, starts, 5.0)

    def test_valid_build(self):
        inst = Instance.from_flat([1.0, 2.0], [1.0, 1.0], [0, 1, 2], 5.0)
        assert inst.sizes == (1, 1) and inst.profits.tolist() == [1.0, 2.0]
        assert inst == Instance([[(1.0, 1.0)], [(2.0, 1.0)]], 5.0)

    def test_integers_are_stored_as_their_floats(self):
        inst = Instance.from_flat([2**53 + 1], [1], [0, 1], 5)
        built = Instance([[(2**53 + 1, 1)]], 5)
        assert inst == built and hash(inst) == hash(built)
        assert inst.profits.tolist() == [2.0**53] and inst.costs.tolist() == [1.0]
        assert inst.profits.dtype == inst.costs.dtype == np.float64

    def test_starts_must_be_integers(self):
        with pytest.raises(TypeError):
            Instance.from_flat([1.0, 2.0], [1.0, 1.0], [0, 1.5, 2], 5.0)
        inst = Instance.from_flat([1.0, 2.0], [1.0, 1.0], (0, True, 2), 5.0)
        assert inst.starts.dtype == np.int64 and inst.starts.tolist() == [0, 1, 2]

    def test_reader_and_generator_pass_their_floats_as_they_are(self, monkeypatch, appendix):
        def unreachable(*args):
            raise AssertionError("from_flat converts every coefficient again")

        monkeypatch.setattr(Instance, "from_flat", unreachable)
        assert read_instance(write_instance(appendix)) == appendix
        inst = generate(GenSpec(m=3, n=4, correlation=Correlation.WEAK, seed=1))
        assert inst.profits.dtype == inst.costs.dtype == np.float64


class TestStore:
    """The read-only numpy arrays are an instance's only store of its items."""

    @staticmethod
    def assert_read_only(inst):
        for values in (inst.profits, inst.costs, inst.starts):
            assert not values.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 1

    def test_arrays_are_read_only(self, appendix):
        spec = GenSpec(m=3, n=4, correlation=Correlation.WEAK, seed=1)
        text = write_instance(appendix)
        for inst in (
            appendix, Instance.from_flat([1.0], [1.0], [0, 1], 1.0), generate(spec),
            read_instance(text), read_instance(text.encode()),
            model._read_lines(text.splitlines()),
            pickle.loads(pickle.dumps(appendix)), dataclasses.replace(appendix),
            dataclasses.replace(appendix, budget=9.0),
        ):
            self.assert_read_only(inst)
            assert inst.profits.dtype == inst.costs.dtype == np.float64
            assert inst.starts.dtype == np.int64

    def test_a_pickle_carries_only_the_fields(self, appendix):
        appendix.frontier_view  # noqa: B018 -- fill the caches
        appendix.categories  # noqa: B018
        data = pickle.dumps(appendix)
        assert b"frontier_view" not in data and b"Item" not in data
        for copy in (pickle.loads(data), copy_module.copy(appendix), copy_module.deepcopy(appendix)):
            assert vars(copy).keys() == {"budget", "profits", "costs", "starts"}
            assert copy == appendix
            self.assert_read_only(copy)

    def test_negative_zero_equals_and_hashes_like_zero(self):
        negative = Instance([[(-0.0, 1.0), (1.0, -0.0)]], 1.0)
        positive = Instance([[(0.0, 1.0), (1.0, 0.0)]], 1.0)
        assert negative == positive and hash(negative) == hash(positive)
        assert math.copysign(1.0, negative.profits[0]) == -1.0  # kept, not normalized
        assert negative != Instance([[(0.0, 1.0), (1.0, 0.5)]], 1.0)
        assert negative != Instance([[(0.0, 1.0)], [(1.0, 0.0)]], 1.0)
        assert negative != Instance([[(0.0, 1.0), (1.0, 0.0)]], 2.0)

    def test_categories_hold_python_floats(self):
        for inst in (
            Instance([[(1, 2), (3.5, 4)], [(5, 6)]], 10),
            read_instance(b"MCKP 1\nm=2 b=10\ncat 2\n1 2\n3.5 4\ncat 1\n5 6\n"),
        ):
            assert inst.categories == (((1.0, 2.0), (3.5, 4.0)), ((5.0, 6.0),))
            items = [value for cat in inst.categories for item in cat for value in item]
            assert {type(value) for value in items} == {float}
            assert type(inst.m) is int and {type(n) for n in inst.sizes} == {int}

    def test_no_item_arrays_cache(self, appendix):
        assert not hasattr(appendix, "_item_arrays")


class TestFrontiers:
    def test_each_category_pareto_filter(self, appendix):
        assert view_segments(appendix) == tuple(pareto_filter(c) for c in appendix.categories)

    def test_computed_once(self, appendix):
        assert appendix.frontier_view is appendix.frontier_view

    def test_no_second_frontier_cache(self, appendix):
        # the view is the only frontier an instance holds
        assert not hasattr(appendix, "frontiers")

    # built on first use, and a pickle leaves it out
    CACHES = {"frontier_view"}

    def test_equality_hash_and_replace_ignore_the_view(self, appendix):
        # pickle too
        twin = Instance(appendix.categories, appendix.budget)
        appendix.frontier_view  # noqa: B018 -- fill the cache on one side only
        assert self.CACHES <= vars(appendix).keys()
        assert not self.CACHES & vars(twin).keys()
        assert appendix == twin and twin == appendix
        assert hash(appendix) == hash(twin)
        copy = dataclasses.replace(appendix)
        assert copy == appendix and not self.CACHES & vars(copy).keys()
        loaded = pickle.loads(pickle.dumps(appendix))
        assert loaded == appendix and not self.CACHES & vars(loaded).keys()
        assert view_segments(loaded) == view_segments(appendix)
        assert evaluate(loaded, (1, 0)) == evaluate(appendix, (1, 0))
        cheaper = dataclasses.replace(appendix, categories=(((9.0, 0.5), (1.0, 0.5)),))
        assert cheaper.frontier_view.index.tolist() == [0]

    def test_view_holds_the_frontier_items(self):
        rng = random.Random(19)
        for _ in range(100):
            inst = random_instance(rng, max_m=6, max_n=8, max_coeff=9)
            view = inst.frontier_view
            rows = [
                (i, cat[i].profit, cat[i].cost, j)
                for j, cat in enumerate(inst.categories)
                for i in pareto_filter(cat)
            ]
            assert list(zip(*(a.tolist() for a in view[:4]))) == rows
            assert view.starts.tolist() == [
                0, *itertools.accumulate(len(pareto_filter(cat)) for cat in inst.categories)
            ]


class TestExactCostSums:
    def test_matches_the_scalar_scan_at_the_float_edges(self):
        rng = random.Random(20)
        seen = set()
        for _ in range(1500):
            inst = float_edge_instance(rng)
            want = exact_cost_sums_by_scan(inst)
            assert exact_cost_sums(inst) is want, inst
            seen.add((want, inst.budget < 2**53))
        assert len(seen) == 4  # both verdicts on both sides of 2**53

    @pytest.mark.parametrize(
        "cats, budget, exact",
        [
            ([[(0, 5e-324)]], 1.0, False),  # a subnormal cost is no integer
            ([[(0, -0.0), (1, 0.1)]], 1.0, False),
            ([[(0, -0.0), (1, 2**53 + 1)]], 1.0, True),
            # the largest frontier costs sum to exactly 2**53, then past it
            ([[(0, 2**52)], [(0, 2**52)]], 2.0**53, True),
            ([[(0, 2**52)], [(0, 2**52 + 2)]], 2.0**53, False),
            ([[(0, 1e308)], [(0, 0)]], 1.0, True),
            ([[(0, 1e308)], [(0, 0)]], 1e308, False),
        ],
    )
    def test_pinned_cases(self, cats, budget, exact):
        assert exact_cost_sums(Instance(cats, budget)) is exact


class TestFileFormat:
    def test_round_trip_appendix(self, appendix):
        assert read_instance(write_instance(appendix)) == appendix

    def test_round_trip_bytes(self, appendix):
        assert read_instance(write_instance(appendix).encode()) == appendix

    def test_written_shape(self, appendix):
        text = write_instance(appendix)
        lines = text.split("\n")
        assert lines[0] == "MCKP 1"
        assert lines[1] == "m=2 b=4"
        assert lines[2] == "cat 2"
        assert text.endswith("\n") and not text.endswith("\n\n")
        assert all(line == line.rstrip() for line in lines)

    def test_writes_python_float_reprs(self):
        # the repr of a numpy scalar would write np.float64(0.1)
        data = "MCKP 1\nm=1 b=1.5\ncat 2\n0.1 -0.0\n-0.0 2\n"
        for inst in (read_instance(data), read_instance(data.encode())):
            assert write_instance(inst) == data

    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.floats(min_value=0, max_value=1e9, allow_nan=False),
                    st.floats(min_value=0, max_value=1e9, allow_nan=False),
                ),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=4,
        ),
        st.floats(min_value=1e-3, max_value=1e9, allow_nan=False),
    )
    def test_round_trip_any_floats(self, cats, budget):
        inst = Instance(tuple(tuple(cat) for cat in cats), budget)
        assert read_instance(write_instance(inst)) == inst

    def test_round_trip_negative_zero(self):
        inst = Instance([[(-0.0, 1.0)]], 1.0)
        text = write_instance(inst)
        assert text == "MCKP 1\nm=1 b=1\ncat 1\n-0.0 1\n"
        assert _bits(read_instance, text) == _bits(lambda _: inst, None)

    def test_comments_and_blanks_ignored(self, appendix):
        text = write_instance(appendix)
        noisy = "# header comment\n" + text.replace("cat 2", "cat 2\n# inner\n", 1)
        assert read_instance(noisy) == appendix

    # ``mutate`` maps the file text to the broken text and a fragment of the
    # expected message. The later cases carry ids: the lambdas' generated
    # ids would renumber the earlier ones.
    @pytest.mark.parametrize(
        "mutate, line",
        [
            (lambda t: (t.replace("MCKP 1", "MCKP 2"), "expected 'MCKP 1' header"), 1),
            (lambda t: (t.replace("m=2 b=4", "m=2"), "expected 'm=<int> b=<decimal>'"), 2),
            (lambda t: (t.replace("m=2 b=4", "m=0 b=4"), "at least one category"), 2),
            (lambda t: (t.replace("cat 2", "cat 0", 1), "at least one item"), 3),
            (lambda t: (t.replace("2 1.9", "2 -1.9"), "must be nonnegative"), 4),
            (lambda t: (t.replace("2 1.9", "2"), "expected '<profit> <cost>'"), 4),
            (lambda t: (t + "trailing\n", "unexpected trailing content"), 9),
            pytest.param(lambda t: (t.replace("2 1.9", "2 x"), "bad cost 'x'"), 4, id="bad-cost"),
            pytest.param(
                lambda t: (t.replace("2 1.9", "2 inf"), "cost must be finite, got 'inf'"),
                4,
                id="infinite-cost",
            ),
            pytest.param(
                lambda t: (t.replace("m=2 b=4", "m=x b=4"), "bad category count 'x'"),
                2,
                id="bad-category-count",
            ),
            pytest.param(
                lambda t: (t.replace("m=2 b=4", "m=2 b=0"), "budget must be positive"),
                2,
                id="zero-budget",
            ),
            pytest.param(
                lambda t: (t.replace("cat 2", "cats 2", 1), "expected 'cat <n_j>'"),
                3,
                id="bad-category-header",
            ),
            pytest.param(
                lambda t: (t.replace("cat 2", "cat x", 1), "bad item count 'x'"),
                3,
                id="bad-item-count",
            ),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, appendix, mutate, line):
        text, message = mutate(write_instance(appendix))
        with pytest.raises(InstanceFormatError) as err:
            read_instance(text)
        assert err.value.line == line
        assert message in str(err.value)

    def test_truncated_file(self, appendix):
        text = "".join(write_instance(appendix).splitlines(keepends=True)[:4])
        with pytest.raises(InstanceFormatError):
            read_instance(text)

    def test_crlf_line_endings_accepted(self, appendix):
        text = write_instance(appendix).replace("\n", "\r\n")
        assert read_instance(text) == appendix


# Coefficients where ties are common: duplicates, equal costs or profits,
# both zeros, and integers next to 2**53 that round to the same float.
TIE_COEFFICIENTS = (0, 0.0, -0.0, 1, 2, 3, 2**53 - 1, 2**53, 2**53 + 1, 2**53 + 2, 2**53 + 3)


class TestFlatFrontiers:
    """Each category's segment of the flat view must be :func:`pareto_filter`
    of the category, read from a file or not."""

    @given(
        st.lists(
            st.lists(
                st.tuples(st.sampled_from(TIE_COEFFICIENTS), st.sampled_from(TIE_COEFFICIENTS)),
                min_size=1,
                max_size=8,
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_frontiers_are_each_categorys_pareto_filter(self, cats):
        built = Instance(cats, 1.0)
        # repr keeps -0.0 and the integers past 2**53, which float() then rounds
        text = "".join(
            f"cat {len(cat)}\n" + "".join(f"{p!r} {c!r}\n" for p, c in cat) for cat in cats
        )
        read = read_instance(f"MCKP 1\nm={len(cats)} b=1\n{text}")
        assert [v.hex() for v in np.concatenate((read.profits, read.costs)).tolist()] == [
            v.hex() for v in np.concatenate((built.profits, built.costs)).tolist()
        ]
        for inst in (built, read):
            assert view_segments(inst) == tuple(pareto_filter(c) for c in inst.categories)
            for cat, f in zip(inst.categories, view_segments(inst)):
                assert set(f) == pareto_items_by_pairwise_scan(cat)
                assert all(cat[a].cost < cat[b].cost for a, b in zip(f, f[1:]))


@st.composite
def ragged_tie_categories(draw):
    """Categories of sizes 1-40 in random order, so that many size groups
    fill, each coefficient from a random part of :data:`TIE_COEFFICIENTS`,
    so that equal costs and equal profits abound."""
    sizes = draw(
        st.one_of(st.lists(st.integers(1, 40), min_size=1, max_size=24),
                  st.permutations(range(1, 41)))
    )
    rng = draw(st.randoms(use_true_random=False))
    palette = rng.sample(TIE_COEFFICIENTS, rng.randint(1, len(TIE_COEFFICIENTS)))
    return [[(rng.choice(palette), rng.choice(palette)) for _ in range(n)] for n in sizes]


class TestFrontierViewMatchesLoop:
    """The numpy frontier builder keeps the items and ties of the Python
    loop it replaced, :func:`pareto_filter_by_loop`, read from a file or not."""

    @settings(max_examples=150, deadline=None)
    @given(ragged_tie_categories())
    def test_frontiers_and_view(self, cats):
        built = Instance(cats, 1.0)
        for inst in (built, read_instance(write_instance(built))):
            profits, costs = inst.profits.tolist(), inst.costs.tolist()
            starts = inst.starts.tolist()
            bounds = list(zip(starts, starts[1:]))
            want = tuple(pareto_filter_by_loop(profits[a:b], costs[a:b]) for a, b in bounds)
            assert view_segments(inst) == want
            assert tuple(map(pareto_filter, inst.categories)) == want
            view = inst.frontier_view
            rows = [
                (j, i, profits[a + i].hex(), costs[a + i].hex())
                for j, ((a, _), f) in enumerate(zip(bounds, want))
                for i in f
            ]
            assert list(zip(
                view.category.tolist(), view.index.tolist(),
                map(float.hex, view.profit.tolist()), map(float.hex, view.cost.tolist()),
            )) == rows
            assert view.starts.tolist() == [0, *itertools.accumulate(map(len, want))]


def _bits(parse, data):
    """The parsed instance with its floats as hex, or the error's message and line."""
    try:
        inst = parse(data)
    except InstanceFormatError as exc:
        return str(exc), exc.line
    floats = np.concatenate((inst.profits, inst.costs)).tolist()
    return inst.starts.tolist(), [v.hex() for v in floats], inst.budget.hex()


def _line_parser(data):
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return model._read_lines(data.splitlines())


# Tokens the format reads specially or refuses.
ODD_TOKENS = (
    "-0", "-0.0", "1_000", "+7", " 5", "1e400", "-1e400", "inf", "nan", "-3", "1e-400",
    "0x10", "x", "#1", "", "cat", "\t2",
)


def single_edits(lines: list[str]):
    """Every file one edit away from ``lines``: an inserted comment, blank,
    whitespace-only or item line, a missing line, tabs or extra spaces, an
    odd token, or a token moved from one line to the line before, which
    keeps the token count and breaks the shape."""
    for k in range(len(lines) + 1):
        for line in ("# comment", "#1 2", "", " \t", "1 2"):
            yield lines[:k] + [line] + lines[k:]
    for k, line in enumerate(lines):
        before, after = lines[:k], lines[k + 1:]
        yield before + after
        for changed in (f"\t{line}  ", line.replace(" ", "\t"), line.replace(" ", "  ")):
            yield before + [changed] + after
        tokens = line.split(" ")
        for t in range(len(tokens)):
            for odd in ODD_TOKENS:
                yield before + [" ".join(tokens[:t] + [odd] + tokens[t + 1:])] + after
        if after:
            head, _, rest = after[0].partition(" ")
            yield before + [f"{line} {head}", rest] + after[1:]


@st.composite
def instance_files(draw):
    """A written file after one to three edits, as text or bytes."""
    coefficient = st.one_of(
        st.integers(0, 1000), st.floats(min_value=0, max_value=1e300, allow_nan=False)
    )
    cats = draw(
        st.lists(st.lists(st.tuples(coefficient, coefficient), min_size=1, max_size=4),
                 min_size=1, max_size=3)
    )
    budget = draw(st.floats(min_value=1e-3, max_value=1e9))
    lines = write_instance(Instance(cats, budget)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        lines = draw(st.sampled_from(list(single_edits(lines))))
    newline = draw(st.sampled_from(("\n", "\r\n")))
    text = newline.join(lines) + draw(st.sampled_from(("", newline)))
    return text.encode() if draw(st.booleans()) else text


def assert_fast_path_agrees(data):
    expected = _bits(_line_parser, data)
    assert _bits(read_instance, data) == expected
    raw = data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data
    fast = model._read_blocks(raw)
    if fast is not None:
        assert _bits(lambda _: fast, data) == expected


class TestReaderFastPath:
    """``read_instance`` reads a written file in bulk and sends anything else
    to the line parser; both must give the same instance, bit for bit, or
    the same error."""

    def test_equal_token_count_in_the_wrong_shape(self, appendix):
        text = write_instance(appendix).replace("2 1.9\n3 3", "2 1.9 3\n3")
        with pytest.raises(InstanceFormatError) as err:
            read_instance(text)
        assert err.value.line == 4
        assert "expected '<profit> <cost>'" in str(err.value)

    def test_written_files_take_the_fast_path(self):
        rng = random.Random(3)
        for _ in range(50):
            inst = random_instance(rng)
            assert model._read_blocks(write_instance(inst).encode()) == inst

    def test_every_single_edit_of_a_file(self, appendix):
        lines = write_instance(appendix).splitlines()
        for edited in single_edits(lines):
            assert_fast_path_agrees("\n".join(edited) + "\n")
            assert_fast_path_agrees("\r\n".join(edited).encode())

    @settings(max_examples=300)
    @given(instance_files())
    def test_fast_path_agrees_with_the_line_parser(self, data):
        assert_fast_path_agrees(data)


# An item line's single space kept, doubled, dropped or joined by a tab or a
# form feed, which ``splitlines`` takes for a line break.
ITEM_LINE_EDITS = (
    "{} {}", "{}{}", "{}  {}", " {} {}", "{} {} ", "{}\t{}", "{} \t{}", "\t{} {}",
    "{} {}\t", "{}\x0c{}", "{} {}\x0c", "\x0c{} {}", "{} \x0c{}",
)


class TestReaderShapeCheck:
    """The reader's bulk path takes a file exactly where every item line has
    one space and no other whitespace and the lines are the written ones,
    and agrees with the line parser on every file."""

    @staticmethod
    def check(lines, item_rows, edits):
        edited = list(lines)
        for k, edit in edits:
            edited[k] = ITEM_LINE_EDITS[edit].format(*lines[k].split(" "))
        text = "\n".join(edited) + "\n"
        split = text.splitlines()
        one_space = len(split) == len(lines) and all(
            split[k].count(" ") == 1 and split[k].split(" ") == split[k].split()
            for k in item_rows
        )
        assert (model._read_blocks(text.encode()) is not None) == one_space, text
        assert_fast_path_agrees(text)

    def test_item_line_whitespace(self):
        rng = random.Random(23)
        for _ in range(30):
            lines = write_instance(random_instance(rng, max_m=3, max_n=3)).splitlines()
            item_rows = [k for k in range(2, len(lines)) if not lines[k].startswith("cat ")]
            for k in item_rows:
                for edit in range(len(ITEM_LINE_EDITS)):
                    self.check(lines, item_rows, [(k, edit)])
            for _ in range(20):
                edits = [(rng.choice(item_rows), rng.randrange(len(ITEM_LINE_EDITS)))
                         for _ in range(rng.randint(2, 3))]
                self.check(lines, item_rows, edits)


# Number tokens at the edges of the bulk path's digit sums and of ``float``
# that the bulk path reads in an item line: digit runs of 15 digits, which
# it sums in numpy, and of 16 or more (2**53 - 1, 2**53, 2**53 + 1), which
# ``float`` reads, with leading zeros, signed zeros, signs, exponents and
# bare points.
BULK_TOKENS = (
    "999999999999999", "9999999999999999", str(2**53 - 1), str(2**53), str(2**53 + 1),
    "007", "000000000000000000001", "0", "-0", "-0.0", "+5", "1e3", ".5", "5.", "1e-400",
)
# Tokens the bulk path leaves to the line parser: ones ``float`` reads but
# the written shape never holds (an underscore, Arabic-Indic digits), and
# ones the line parser refuses.
LINE_TOKENS = ("1_000", "\u0663", "\u0661\u0662", "inf", "nan", "1e400", "-1", "e5", "1e", "5..")
# Every character but '\n' and '\r' at which ``splitlines`` breaks a line.
LINE_BOUNDARIES = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def _recount(lines: list[str], count) -> list[str]:
    """``lines`` with each category line's size ``n`` written as ``count(n)``."""
    return [f"cat {count(line[4:])}" if line.startswith("cat ") else line for line in lines]


def _with_m(lines: list[str], m) -> list[str]:
    """``lines`` with the category count ``m`` written as ``m(m)``."""
    m_token, b_token = lines[1].split(" ")
    return [lines[0], f"m={m(int(m_token[2:]))} {b_token}", *lines[2:]]


# Edits of a written file's lines, each with whether the bulk path still
# reads the file: leading zeros in the category sizes, an empty category,
# an m one off, trailing content, and sizes as a signed or a float token,
# which only the line parser reads or refuses.
STRUCTURE_EDITS = (
    (lambda ls: _recount(ls, lambda n: "0" + n), True),
    (lambda ls: [*ls[:2], "cat 0", *ls[2:]], False),
    (lambda ls: _with_m(ls, lambda m: m + 1), False),
    (lambda ls: _with_m(ls, lambda m: m - 1), False),
    (lambda ls: [*ls, "1 2"], False),
    (lambda ls: [*ls, "cat 1", "1 2"], False),
    (lambda ls: _recount(ls, lambda n: "+" + n), False),
    (lambda ls: _recount(ls, lambda n: n + ".0"), False),
    (lambda ls: ls, True),
)


def _item_lines(lines: list[str]) -> list[int]:
    return [k for k in range(2, len(lines)) if not lines[k].startswith("cat ")]


@st.composite
def edge_files(draw):
    """A written file with edge tokens in its item lines, then perhaps a
    structure edit, a line-boundary character in an item line or in the
    ``m=`` line, a missing final newline, a last line of one token and no
    newline, CRLF newlines or a byte-order mark; as text or bytes, with
    whether the bulk path reads it."""
    cats = draw(st.lists(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)),
                                  min_size=1, max_size=3), min_size=1, max_size=3))
    budget = draw(st.sampled_from((1, 7, 250.5, 0.1)))
    lines = write_instance(Instance(cats, budget)).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        k, side = draw(st.sampled_from(_item_lines(lines))), draw(st.integers(0, 1))
        parts = lines[k].split(" ")
        parts[side] = draw(st.sampled_from(BULK_TOKENS + LINE_TOKENS))
        lines[k] = " ".join(parts)
    # the written coefficients are digit runs
    bulk = all(t in BULK_TOKENS or t.isascii() and t.isdigit()
               for k in _item_lines(lines) for t in lines[k].split(" "))
    edit, keeps = draw(st.sampled_from(STRUCTURE_EDITS))
    lines, bulk = edit(lines), bulk and keeps
    if draw(st.booleans()):
        k = draw(st.sampled_from([1, *_item_lines(lines)]))
        at = draw(st.integers(0, len(lines[k])))
        lines[k] = lines[k][:at] + draw(st.sampled_from(LINE_BOUNDARIES)) + lines[k][at:]
        bulk = False
    newline, end, bom = draw(st.sampled_from(
        (("\n", "\n", ""), ("\n", "", ""), ("\n", "\n7", ""), ("\r\n", "\r\n", ""),
         ("\n", "\n", "\ufeff"))
    ))
    text = bom + newline.join(lines) + end
    bulk = bulk and (newline, end, bom) == ("\n", "\n", "")
    return (text.encode() if draw(st.booleans()) else text), bulk


class TestReaderTokenEdges:
    """The bulk path reads every token the written shape may hold as
    ``float`` does, and leaves every other file to the line parser."""

    @settings(max_examples=400, deadline=None)
    @given(edge_files())
    def test_agrees_with_the_line_parser(self, case):
        data, bulk = case
        assert_fast_path_agrees(data)
        raw = data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data
        assert (model._read_blocks(raw) is not None) == bulk

    @pytest.mark.parametrize("token", BULK_TOKENS)
    def test_bulk_tokens_read_as_float_reads_them(self, token):
        text = f"MCKP 1\nm=2 b=3\ncat 2\n{token} 1\n2 {token}\ncat 1\n{token} {token}\n"
        inst = model._read_blocks(text.encode())
        assert inst is not None
        value = float(token).hex()
        assert [v.hex() for v in np.concatenate((inst.profits, inst.costs)).tolist()] == [
            value, (2.0).hex(), value, (1.0).hex(), value, value
        ]
        assert_fast_path_agrees(text)

    @pytest.mark.parametrize("budget", ["42.0102521480581", "1e3", "007", "5.", str(2**53 + 1)])
    def test_budget_tokens(self, budget):
        text = f"MCKP 1\nm=1 b={budget}\ncat 1\n1 1\n"
        inst = model._read_blocks(text.encode())
        assert inst is not None and inst.budget.hex() == float(budget).hex()

    @pytest.mark.parametrize("budget", ["0", "-0", "-1", "1e-400", "1e400", "inf", "1_0", "x"])
    def test_budgets_the_instance_refuses_go_to_the_line_parser(self, budget):
        text = f"MCKP 1\nm=1 b={budget}\ncat 1\n1 1\n"
        assert model._read_blocks(text.encode()) is None
        assert_fast_path_agrees(text)

    @pytest.mark.parametrize(
        "line",
        [
            # one byte off, in the bytes an item token may hold or not
            "1at 1", "c1t 1", "ca1 1", "aat 1", "cct 1", "cae 1", "cot 1", "Cat 1", "caT 1",
            "tac 1", "ca 1", "cats 1", "catt 1", "1cat 1", "ccat 1",
            # sizes past 15 digits, whose last digits are the size
            "cat 1000000000000001", "cat 0000000000000001",
        ],
    )
    def test_category_lines(self, line):
        text = f"MCKP 1\nm=1 b=5\n{line}\n1 2\n"
        assert model._read_blocks(text.encode()) is None
        assert_fast_path_agrees(text)

    @pytest.mark.parametrize("boundary", LINE_BOUNDARIES)
    def test_line_boundaries(self, boundary):
        text = "MCKP 1\nm=1 b=5\ncat 2\n1 2\n3 4\n"
        for at in range(len("MCKP 1\n"), len(text)):
            edited = text[:at] + boundary + text[at:]
            assert model._read_blocks(edited.encode()) is None
            assert_fast_path_agrees(edited)
            assert_fast_path_agrees(edited.encode())


class TestReaderArrays:
    """The reader and the generator hand their float64 arrays to the instance,
    which keeps them as they are."""

    def test_the_arrays_are_the_readers(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the coefficients were converted again")

        spec = GenSpec(m=5, n=7, correlation=Correlation.WEAK, seed=2)
        built = generate(spec)
        text = write_instance(built)
        monkeypatch.setattr(Instance, "__post_init__", unreachable)
        monkeypatch.setattr(Instance, "from_flat", unreachable)
        for inst in (read_instance(text), read_instance(text.encode()), generate(spec)):
            assert inst.profits.dtype == inst.costs.dtype == np.float64
            assert inst.starts.dtype == np.int64
            assert inst.profits.tobytes() == built.profits.tobytes()
            assert inst.costs.tobytes() == built.costs.tobytes()
            assert inst.starts.tolist() == [7 * j for j in range(6)]
            assert not inst.profits.flags.writeable
            assert inst == built

    def test_no_per_token_float_for_digit_runs(self, monkeypatch):
        calls = []

        def counting(value):
            calls.append(value)
            return float(value)

        built = generate(GenSpec(m=40, n=50, correlation=Correlation.WEAK, seed=1))
        text = write_instance(built)
        monkeypatch.setattr(model, "float", counting, raising=False)
        assert read_instance(text.encode()) == built
        # only the budget, once read and once stored
        assert calls == [str(int(built.budget)).encode(), built.budget]
        calls.clear()
        lines = text.splitlines()
        for k in (3, 4, 5):  # the first items of category 0
            lines[k] = "1.5 " + lines[k].split(" ")[1]
        read_instance(("\n".join(lines) + "\n").encode())
        assert calls.count(b"1.5") == 3
