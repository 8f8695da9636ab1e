"""Closed-loop benchmark of ``mckp solve`` and ``mckp exact``.

One client, one operation at a time, in this process: each operation is a
call of ``mckp.cli.main`` on an instance file with its output captured, and
every output is checked. Run from the root of a checkout:

    python3 perfbench/run.py --workload weak-refine --seed 1 --seconds 45 --trace 0

Times are scaled to a fixed host speed (see ``_reference_s``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each traced
instance twice, untraced and traced, and prints the per-layer metrics. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import importlib
import json
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_BATCHES = 5
# Wall time of ``_reference_s``'s work at the speed the end-to-end times are
# scaled to: its median on an undisturbed 2.1 GHz Xeon vCPU.
REFERENCE_MS = 4.0

# name -> (unit, better)
END_TO_END = {
    "solve_ms_p50": ("ms", "lower"),
    "solve_ms_p90": ("ms", "lower"),
    "exact_ms_p50": ("ms", "lower"),
    "exact_ms_p90": ("ms", "lower"),
    "gap_pct_mean": ("%", "lower"),
    "suboptimal_frac": ("fraction", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "cli.solve.self_ms": ("ms", "lower"),
    "cli.exact.self_ms": ("ms", "lower"),
    "model.read_instance.ms": ("ms", "lower"),
    "model.read_instance.items_per_s": ("1/s", "higher"),
    "generate.ms": ("ms", "lower"),
    "generate.items": ("count", "higher"),
    "model.write_instance.ms": ("ms", "lower"),
    "bissa.self_ms": ("ms", "lower"),
    "bissa.probes": ("count", "lower"),
    "bissa.solve_linear.ms": ("ms", "lower"),
    "bissa.exact_share": ("fraction", "higher"),
    "frontier.delta_bound.ms": ("ms", "lower"),
    "frontier.delta_bound.calls": ("count", "lower"),
    "frontier.chebyshev.calls": ("count", "lower"),
    "frontier.chebyshev.ms": ("ms", "lower"),
    "kissa.self_ms": ("ms", "lower"),
    "kissa.iterations": ("count", "lower"),
    "kissa.improvements": ("count", "higher"),
    "kissa.swap_yield": ("fraction", "higher"),
    "kissa.certify.self_ms": ("ms", "lower"),
    "kissa.certify.true": ("count", "higher"),
    "oracle.dp_solve.ms": ("ms", "lower"),
    "oracle.dp_solve.peak_mb": ("MB", "lower"),
    "oracle.enumerate.ms": ("ms", "lower"),
    "oracle.enumerate.calls": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.instances": ("count", "higher"),
}

# Per-layer metrics read straight from the per-instance span totals.
_SPAN_METRICS = (
    "cli.solve.self_ms",
    "cli.exact.self_ms",
    "model.read_instance.ms",
    "bissa.self_ms",
    "bissa.probes",
    "bissa.solve_linear.ms",
    "frontier.delta_bound.ms",
    "frontier.delta_bound.calls",
    "frontier.chebyshev.calls",
    "frontier.chebyshev.ms",
    "kissa.self_ms",
    "kissa.iterations",
    "kissa.improvements",
    "kissa.certify.self_ms",
    "kissa.certify.true",
    "oracle.dp_solve.ms",
    "oracle.enumerate.ms",
    "oracle.enumerate.calls",
)
# ratio -> (numerator, denominator, scale), from the same span totals
_RATIOS = {
    "model.read_instance.items_per_s": ("model.read_instance.items", "model.read_instance.ms", 1e3),
    "bissa.exact_share": ("bissa.exact", "bissa.calls", 1.0),
    "kissa.swap_yield": ("kissa.improvements", "frontier.chebyshev.calls", 1.0),
}


def _import_program():
    """Import ``mckp`` from this checkout's ``src``; seconds taken."""
    src = ROOT / "src"
    if not (src / "mckp" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'mckp'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    cli = importlib.import_module("mckp.cli")
    seconds = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parent != (src / "mckp").resolve():
        raise SystemExit(f"error: imported mckp from {cli.__file__}, not from {src}")
    return cli, seconds


_REFERENCE_DATA = None  # made on first use, so numpy's import counts in setup_s


def _reference_s() -> float:
    """Wall seconds of a fixed mix of interpreter and numpy work.

    The host's speed drifts by tens of percent within seconds, and CPU time
    drifts with wall time, so a slow stretch is not preemption. Each timed
    step is divided by the mean of this reference timed just before and
    just after it, and multiplied by ``REFERENCE_MS``: a time then reads as
    milliseconds at a fixed speed, and a slow stretch cancels out. The
    reference is the harness's own code; the program under test cannot
    change it.
    """
    global _REFERENCE_DATA
    import numpy as np

    if _REFERENCE_DATA is None:
        _REFERENCE_DATA = np.random.default_rng(0).random((400, 50))
    t0 = time.perf_counter()
    acc = 0
    for i in range(30000):
        acc += i * i % 7
    for _ in range(6):
        order = np.argsort(_REFERENCE_DATA, axis=1)
        acc += float(np.take_along_axis(_REFERENCE_DATA, order, axis=1).cumsum(axis=1).max())
    return time.perf_counter() - t0


def _passes(n: int, seconds: float):
    """Yield (instance, repetition) in passes over ``n`` instances. The first
    pass always completes; later ones stop, mid-pass if need be, once
    ``seconds`` have run."""
    deadline = time.perf_counter() + seconds
    rep = 0
    while True:
        for k in range(n):
            if rep and time.perf_counter() >= deadline:
                return
            yield k, rep
        rep += 1
        if time.perf_counter() >= deadline:
            return


def _p90(values):
    return statistics.quantiles(values, n=10)[-1]


def _untraced(args, cli, import_s, workload, specs, workdir):
    from checks import Runner
    from workloads import write_instances

    # Set-up runs in equal batches; the median batch time times the number
    # of batches estimates the whole set-up without paying for it twice.
    # Every time is in units of the reference timed around it.
    stored, setups = [], []
    _reference_s()  # warm-up
    before = _reference_s()
    import_ref = import_s / before
    for b in range(SETUP_BATCHES):
        lo, hi = b * len(specs) // SETUP_BATCHES, (b + 1) * len(specs) // SETUP_BATCHES
        batch, times = write_instances(specs[lo:hi], workdir, lo)
        after = _reference_s()
        stored += batch
        setups.append(2 * times.total_s / (before + after))
        before = after
    runner = Runner(cli, stored)
    runner.op("solve", stored[0].path)  # warm-up, untimed
    runner.op("exact", stored[0].path)

    solve_s: dict[int, list[float]] = {}
    exact_s: dict[int, list[float]] = {}
    wall_s: dict[str, list[float]] = {"solve": [], "exact": []}
    before = _reference_s()
    for k, _rep in _passes(len(stored), args.seconds):
        path = stored[k].path
        sc, so, st = runner.op("solve", path)
        between = _reference_s()
        ec, eo, et = runner.op("exact", path)
        after = _reference_s()
        runner.record(k, (sc, so), (ec, eo))
        solve_s.setdefault(k, []).append(2 * st / (before + between))
        exact_s.setdefault(k, []).append(2 * et / (between + after))
        wall_s["solve"].append(st)
        wall_s["exact"].append(et)
        before = after

    solve_ms = [statistics.median(v) * REFERENCE_MS for v in solve_s.values()]
    exact_ms = [statistics.median(v) * REFERENCE_MS for v in exact_s.values()]
    gap, suboptimal = runner.quality()
    print(
        f"{workload.name}: {len(stored)} instances, "
        f"{sum(map(len, solve_s.values()))} solves and {sum(map(len, exact_s.values()))} exacts timed; "
        f"percentiles over per-instance medians; median unscaled wall times: "
        f"solve {statistics.median(wall_s['solve']) * 1e3:.3f} ms, "
        f"exact {statistics.median(wall_s['exact']) * 1e3:.3f} ms; set-up batches "
        f"{', '.join(f'{s * REFERENCE_MS / 1e3:.3f}' for s in setups)} s scaled"
    )
    metrics = {
        "solve_ms_p50": statistics.median(solve_ms),
        "solve_ms_p90": _p90(solve_ms),
        "exact_ms_p50": statistics.median(exact_ms),
        "exact_ms_p90": _p90(exact_ms),
        "gap_pct_mean": gap,
        "suboptimal_frac": suboptimal,
        "setup_s": (import_ref + SETUP_BATCHES * statistics.median(setups)) * REFERENCE_MS / 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return runner, metrics, END_TO_END


def _traced(args, cli, workload, specs, workdir):
    from checks import Runner
    from spans import Tracer, patched, per_instance_means, per_operation
    from workloads import write_instances

    stored, times = write_instances(specs[: workload.traced], workdir)
    runner = Runner(cli, stored)
    tracer = Tracer()
    runner.op("solve", stored[0].path)  # warm-up, untimed
    runner.op("exact", stored[0].path)

    plain_s: dict[int, list[float]] = {}
    traced_s: dict[int, list[float]] = {}
    peak_mb = []
    dp_solve = getattr(cli, "dp_solve", None)
    for k, rep in _passes(len(stored), args.seconds):
        path = stored[k].path
        outputs = {}
        tracer.key = (k, rep)
        # alternate which side runs first, so neither always finds warm caches
        for traced in ((False, True) if (k + rep) % 2 == 0 else (True, False)):
            ops = []
            for command in ("solve", "exact"):
                if traced:
                    with patched(tracer), tracer.root(f"cli.{command}"):
                        ops.append(runner.op(command, path))
                else:
                    ops.append(runner.op(command, path))
            outputs[traced] = [(code, out) for code, out, _ in ops]
            (traced_s if traced else plain_s).setdefault(k, []).append(sum(t for *_, t in ops))
        runner.record(k, *outputs[False])
        if outputs[True] == outputs[False]:
            runner.record(k, *outputs[True])
        else:
            runner.attempted += 2
            runner.failures["traced output differs from untraced"] += 2
        if rep == 0 and callable(dp_solve):
            # tracemalloc roughly doubles the DP's time, so memory is measured
            # on an extra, untimed call outside the traced operations
            instance = stored[k].instance()
            tracemalloc.start()
            try:
                dp_solve(instance)
                peak_mb.append(tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()

    names = sorted(set(_SPAN_METRICS) | {n for r in _RATIOS.values() for n in r[:2]})
    present = [n for n in names if not {n, n.rsplit(".", 1)[0]} & tracer.absent]
    means = per_instance_means(per_operation(tracer.spans), present)
    metrics = {n: means[n] for n in _SPAN_METRICS if n in means}
    for name, (num, den, scale) in _RATIOS.items():
        if num in means and den in means and means[den] > 0:
            metrics[name] = means[num] / means[den] * scale
    n = len(stored)
    metrics["generate.ms"] = times.generate_s * 1e3 / n
    metrics["generate.items"] = times.items / n
    metrics["model.write_instance.ms"] = times.write_instance_s * 1e3 / n
    plain = sum(statistics.median(v) for v in plain_s.values())
    traced = sum(statistics.median(v) for v in traced_s.values())
    if peak_mb:
        metrics["oracle.dp_solve.peak_mb"] = statistics.fmean(peak_mb)
    metrics["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
    metrics["trace.instances"] = float(n)

    missing = sorted(set(PER_LAYER) - set(metrics))
    print(
        f"{workload.name}: {n} instances traced, {len(tracer.spans)} spans; "
        f"per-instance means of per-instance medians; absent: {missing or 'none'}"
    )
    return runner, metrics, PER_LAYER


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, import_s = _import_program()
    from workloads import WORKLOADS, instance_specs

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    specs = instance_specs(workload, args.seed)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if args.trace:
            runner, metrics, units = _traced(args, cli, workload, specs, Path(tmp))
        else:
            runner, metrics, units = _untraced(args, cli, import_s, workload, specs, Path(tmp))

    if runner.failures:
        print(f"failures: {dict(runner.failures)}")
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
