"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The suite is the exit
gate for the whole package; tolerances are pinned here and nowhere else.
"""

import csv
import io
import itertools
import random
import time

from mckp import (
    Correlation,
    GenSpec,
    Instance,
    KissaConfig,
    bissa,
    delta_bound,
    dp_solve,
    evaluate,
    generate,
    kissa,
    pareto_enumerate,
    pareto_filter,
    run_benchmark,
    solve_chebyshev_subproblem,
)
from mckp.bench import CSV_COLUMNS
from mckp.oracle import brute_force

from helpers import APPENDIX_CATEGORIES, enumerate_images, random_category


def report(number: int, label: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"\n[criterion {number}] {status} {label}{suffix}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_reference_fixture_reproduction():
    instance = Instance(APPENDIX_CATEGORIES, budget=4.0)
    expected = {(6.0, -3.9), (4.0, -2.9), (7.0, -5.0)}

    result = pareto_enumerate(instance)  # warm-up before timing
    elapsed = min(
        _timed(pareto_enumerate, instance) for _ in range(5)
    )

    images = sorted(tuple(p) for _, p in result)
    ok = len(result) == 3
    for image in images:
        ok = ok and any(
            abs(image[0] - want[0]) <= 1e-12 and abs(image[1] - want[1]) <= 1e-12
            for want in expected
        )
    # the remaining selection is the single dominated one, profit 5 (not -5)
    leftover = evaluate(instance, (1, 1))
    ok = ok and abs(leftover.f1 - 5.0) <= 1e-12 and abs(leftover.f2 + 4.0) <= 1e-12
    ok = ok and all(tuple(leftover) != img for img in images)
    ok = ok and elapsed < 1e-3
    report(
        1,
        "reference fixture: three nondominated images, one dominated, < 1 ms",
        ok,
        f"enumeration took {elapsed * 1e6:.0f} us",
    )


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def test_criterion_2_separability_and_converse_failure():
    rng = random.Random(20_001)
    violations = 0
    converse_failures = 0
    for _ in range(500):
        m = rng.randint(1, 4)
        cats = tuple(
            tuple(
                (float(rng.randint(0, 50)), float(rng.randint(0, 50)))
                for _ in range(rng.randint(1, 5))
            )
            for _ in range(m)
        )
        instance = Instance(cats, budget=1.0)
        frontiers = [pareto_filter(instance.categories[j]) for j in range(m)]
        entries = list(enumerate_images(instance))
        pareto_sels = set()
        for sel, f1, f2 in entries:
            if not any(
                g1 >= f1 and g2 >= f2 and (g1 > f1 or g2 > f2)
                for _, g1, g2 in entries
            ):
                pareto_sels.add(sel)
        # forward direction: nondominated selections decompose into
        # per-category nondominated components
        for sel in pareto_sels:
            if not all(sel[j] in frontiers[j] for j in range(m)):
                violations += 1
        # converse: some all-frontier concatenation fails to be nondominated
        if any(
            sel not in pareto_sels for sel in itertools.product(*frontiers)
        ):
            converse_failures += 1
    ok = violations == 0 and converse_failures >= 1
    report(
        2,
        "separability: frontier components in 500 random instances, converse fails somewhere",
        ok,
        f"violations={violations}, instances with converse failure={converse_failures}",
    )


def test_criterion_3_chebyshev_soundness():
    rng = random.Random(30_001)
    violations = 0
    for _ in range(300):
        cat = random_category(rng, max_n=12, max_coeff=40)
        bound = delta_bound(Instance((cat,), budget=1.0), rho=1e9)
        rho = bound.rho if bound.rho != 1e9 else 1e-7  # identical-items sentinel
        frontier = set(pareto_filter(cat))
        reference = (
            max(item.profit for item in cat) + 1e-4,
            max(-item.cost for item in cat) + 1e-4,
        )
        for _ in range(20):
            weights = (10 ** rng.uniform(-3, 1), 10 ** rng.uniform(-3, 1))
            winner = solve_chebyshev_subproblem(cat, weights, reference, rho)
            if winner not in frontier:
                violations += 1
    report(
        3,
        "augmented Chebyshev always returns a frontier item (300 categories x 20 weights)",
        violations == 0,
        f"violations={violations}",
    )


def test_criterion_4_oracle_equivalence():
    rng = random.Random(40_001)
    mismatches = 0
    runs = 0
    while runs < 200:
        m = rng.randint(1, 6)
        cats = tuple(
            tuple(
                (float(rng.randint(0, 50)), float(rng.randint(1, 20)))
                for _ in range(rng.randint(1, 6))
            )
            for _ in range(m)
        )
        low = sum(min(c for _, c in cat) for cat in cats)
        high = sum(max(c for _, c in cat) for cat in cats)
        budget = float(int((low + high) // 2))
        if budget <= 0:
            continue
        instance = Instance(cats, budget)
        runs += 1
        try:
            want = brute_force(instance)
        except Exception:
            mismatches += 1
            continue
        got = dp_solve(instance)
        if got.optimum_profit != want.optimum_profit:
            mismatches += 1
            continue
        achieved = evaluate(instance, got.optimum_selection)
        if achieved.f1 != got.optimum_profit or achieved.f2 < -instance.budget:
            mismatches += 1
    report(
        4,
        "dynamic program matches exhaustive search on 200 integer instances",
        mismatches == 0,
        f"mismatches={mismatches}",
    )


FAMILIES = (
    (10, 1000, Correlation.UNCORRELATED),
    (100, 100, Correlation.UNCORRELATED),
    (1000, 10, Correlation.UNCORRELATED),
    (20, 20, Correlation.WEAK),
)


def test_criterion_5_sandwich_property():
    violations = 0
    checked = 0
    for m, n, corr in FAMILIES:
        for seed in range(100):
            spec = GenSpec(m=m, n=n, correlation=corr, seed=seed)
            instance = generate(spec)
            exact = dp_solve(instance).optimum_profit
            straddle = bissa(instance)
            start = evaluate(instance, straddle.xa).f1
            run = kissa(instance, straddle)
            final = evaluate(instance, run.final).f1
            checked += 1
            if not (start <= final <= exact):
                violations += 1
                continue
            profits = [start] + [
                it.objective.f1 for it in run.iterations if it.chosen is not None
            ]
            # each accepted swap strictly shrinks the optimality gap
            if not all(a < b for a, b in zip(profits, profits[1:])):
                violations += 1
    report(
        5,
        "bisection <= improved <= exact on 100 instances x 4 families, strict gap descent",
        violations == 0 and checked == 400,
        f"violations={violations}, instances={checked}",
    )


def test_criterion_6_improvement_existence_weak_family():
    improved = 0
    total = 10
    gaps = []
    for seed in range(1, total + 1):
        spec = GenSpec(m=20, n=20, correlation=Correlation.WEAK, seed=seed)
        instance = generate(spec)
        straddle = bissa(instance)
        start = evaluate(instance, straddle.xa).f1
        run = kissa(instance, straddle)
        final = evaluate(instance, run.final).f1
        if final > start:
            improved += 1
            gaps.append((start, final))
    rate = 100.0 * improved / total
    report(
        6,
        "improvement observed on weakly correlated (20,20) instances",
        improved >= 1,
        f"observed rate {rate:.0f}% over {total} seeds; prior published overall rate 20%",
    )


def test_criterion_7_single_run_under_one_second():
    spec = GenSpec(m=1000, n=10, correlation=Correlation.UNCORRELATED, seed=123)
    instance = generate(spec)
    t0 = time.perf_counter()
    kissa(instance, bissa(instance))
    elapsed = time.perf_counter() - t0
    report(
        7,
        "bisection + improvement on (m=1000, n=10) under one second",
        elapsed < 1.0,
        f"{elapsed * 1000:.1f} ms",
    )


def test_criterion_8_benchmark_determinism():
    specs = [
        GenSpec(m=6, n=5, correlation=Correlation.UNCORRELATED, seed=2),
        GenSpec(m=20, n=20, correlation=Correlation.WEAK, seed=3),
        GenSpec(m=4, n=4, correlation=Correlation.UNCORRELATED, seed=4, budget_ratio=1.0),
    ]
    first = run_benchmark(specs, KissaConfig()).to_csv()
    second = run_benchmark(specs, KissaConfig()).to_csv()

    def strip_timing(text):
        rows = list(csv.reader(io.StringIO(text)))
        drop = [CSV_COLUMNS.index("ms_bissa"), CSV_COLUMNS.index("ms_kissa")]
        return [
            [cell for k, cell in enumerate(row) if k not in drop] for row in rows
        ]

    report(
        8,
        "benchmark CSV identical across runs once timing columns are excluded",
        strip_timing(first) == strip_timing(second),
    )
