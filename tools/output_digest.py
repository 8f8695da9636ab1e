"""Digest the command-line output, to check that a change keeps it unchanged.

Runs ``mckp solve`` and ``mckp exact`` through ``mckp.cli.main`` on every
instance of the benchmark workloads for one seed, and ``solve --rule
first|best-slack`` on the weak-refine ones, then a small-instance sweep of
``mckp gen``, ``solve --trace``, ``solve --rule first|best-slack``, ``exact``
and ``exact --method brute``, the same sweep at budget ratios 0 and 1 with
``solve --trace``, ``solve --rule first`` and ``exact``, a ``ties`` sweep
of small instances with coefficients 0-9, full of tied items, with ``solve
--trace`` and ``exact``, a ``fractional`` sweep of the same shape with
coefficients in tenths from 0 to 9.9, with ``solve --trace``, ``solve --rule
first``, ``exact`` and ``exact --method brute``, one ``mckp bench`` run
on a fixed spec file, and ``solve`` and ``exact`` on a fixed list of
malformed files, one for each error of the instance reader's line parser,
plus a file with comments and blank lines that parses. Last, a
``collinear`` sweep of small instances with profit = cost, where every
reduced cost of the dynamic program's LP relaxation is 0, runs ``exact``
and ``exact --method brute``. An ``edge`` sweep of small instances with
coefficients at the float edges (2^53 - 1 and 2^53 + 1, 1e308 pairs whose
sums overflow, the smallest subnormal, 0.1 and -0.0) runs ``solve`` and
``exact --method brute``, and a ``deep`` sweep runs both on a few instances
of 1,000 to 1,500 categories, only a few of which hold two items. A
``ragged`` sweep of instances whose categories hold 1 to 12 items each, with
coefficients 0-9, runs ``solve --trace`` and ``exact``. Last, a
``chebyshev`` sweep of small instances with coefficients 0-99 runs ``solve
--trace`` with KISSA's options: an ``--eps`` that rounds away against any
nonzero coefficient, a large one, a ``--rho`` below the delta bound, and an
``--eps`` of 1e308, which KISSA refuses with exit 1 wherever it runs.
A ``wide`` sweep of small integral instances with costs near 2^50, whose
profit-cost products either cross 2^63 or stay just inside the int64
bound of the dynamic program's LP relaxation, runs ``exact``.
Last, a ``reader`` sweep calls ``read_instance`` on the text and on the
bytes of written files of every family above, then of edits of two files:
number tokens at the edges of ``float`` and of 2^53, category sizes and
category counts that do not match, trailing content, a missing final
newline, CRLF newlines, a byte-order mark, and each character at which
``splitlines`` breaks a line, put at every place of the file. Its digests
cover each read's profits and costs by ``float.hex``, its starts and budget,
or its error line. Last, a ``kissa`` sweep calls ``bissa`` and ``kissa``
under each selection rule in the library, on the weak-refine and
uncorr-exact instances and on the instances of the ``fractional`` and
``edge`` sweeps. Its digests cover each run's final selection, termination
and improvements, and every iteration's index, sets, chosen category and
objective by ``float.hex``, or the error that ended the run.
Prints one sha256 per (workload, command) over each run's exit code,
stdout and stderr (an uncaught exception is recorded as the run's exit
code, and the digest goes on); the ``gen`` digests cover the instance
file bytes as well. The ``bench`` digest covers its exit code, stderr and CSV with the
two timing cells blanked, and the ``bench stdout`` digest its exit code and
its text table, each data row cut before its two timing cells, with the
``wrote`` line. ``mckp`` is imported from this checkout's ``src``, so running the
script in two checkouts and comparing the lines is the "outputs unchanged"
check::

    python tools/output_digest.py --seed 1

The workload instances come from ``perfbench/workloads.py``, which is only imported.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import math
import os
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from mckp import (  # noqa: E402
    Instance, KissaConfig, MCKPError, SelectionRule, bissa, cli, generate, kissa, read_instance,
    write_instance,
)
from workloads import WORKLOADS, instance_specs, write_instances  # noqa: E402

SMALL_CORRELATIONS = ("uncorr", "weak")
SMALL_SIZES = ((2, 2), (2, 5), (3, 3), (3, 6), (4, 2), (4, 4), (5, 3), (6, 6))
SMALL_SEEDS = range(15)
SMALL_COMMANDS = (
    ("solve --trace", ["solve", "small.mckp", "--trace"]),
    ("solve --rule first", ["solve", "small.mckp", "--rule", "first"]),
    ("solve --rule best-slack", ["solve", "small.mckp", "--rule", "best-slack"]),
    ("exact", ["exact", "small.mckp"]),
    ("exact --method brute", ["exact", "small.mckp", "--method", "brute"]),
)
# Budget ratio 0 puts the budget at the min-cost anchor (zero-slack) and 1
# admits the max-profit probe (max-profit-feasible): both BISSA proofs.
EDGE_RATIOS = ("0", "1")
EDGE_COMMANDS = tuple(
    (label, argv) for label, argv in SMALL_COMMANDS
    if label in ("solve --trace", "solve --rule first", "exact")
)
# instances in each drawn sweep, ``ties`` and ``fractional``
DRAWN_INSTANCES = 240
# Generated instances rarely tie; these draw every coefficient from 0-9, so
# equal profits, equal costs, equal rises and duplicate items are common.
TIES_COMMANDS = tuple(
    (label, argv) for label, argv in SMALL_COMMANDS if label in ("solve --trace", "exact")
)
# Every generated coefficient is an integer; these draw tenths from 0-9.9, so
# cost sums are not exact and KISSA judges each swap by summing it again.
FRACTIONAL_COMMANDS = tuple(
    (label, argv) for label, argv in SMALL_COMMANDS if label != "solve --rule best-slack"
)
# Profit = cost puts every item of a category on one line of slope 1, so the
# dynamic program's core holds every row and it fills one table.
COLLINEAR_COMMANDS = tuple(
    (label, argv) for label, argv in SMALL_COMMANDS
    if label in ("exact", "exact --method brute")
)
# Sums of these reach 2**53 and round there, overflow to inf, or stay subnormal.
FLOAT_EDGE_VALUES = (0.0, -0.0, 5e-324, 0.1, 1.0, 2**53 - 1, 2**53 + 1, 1e308)
# the commands of the ``edge`` and ``deep`` sweeps
FLOAT_EDGE_COMMANDS = (
    ("solve", ["solve", "small.mckp"]),
    ("exact --method brute", ["exact", "small.mckp", "--method", "brute"]),
)
# instances in the ``deep`` sweep, each past Python's recursion limit
DEEP_INSTANCES = 4
# Any two coefficients in 0-99 have a trade-off ratio of at least 1/98, so
# rho 5e-3 lies below every delta bound of the ``chebyshev`` sweep, and eps
# 1e-20 rounds away against any nonzero maximum, whose reference point is
# then the next float up.
CHEBYSHEV_COMMANDS = tuple(
    (f"solve --trace {option} {value}", ["solve", "small.mckp", "--trace", option, value])
    for option, value in (("--eps", "1e-20"), ("--eps", "1e6"), ("--rho", "5e-3"),
                          ("--eps", "1e308"))
)
# Costs 2**50 to 2**50 + 99 with profits up to 2**12 - 1 keep 2 * profit *
# cost below 2**63, where the LP relaxation runs in int64; larger profits
# cross it, and the relaxation runs on Python integers.
WIDE_COST_BASE = 2**50
WIDE_PROFIT_TOPS = (2**12 - 1, 2**20, 2**40)
WIDE_COMMANDS = (("exact", ["exact", "small.mckp"]),)
WORKLOAD_COMMANDS = (("solve", ["solve"]), ("exact", ["exact"]))
RULE_COMMANDS = (
    ("solve --rule first", ["solve", "--rule", "first"]),
    ("solve --rule best-slack", ["solve", "--rule", "best-slack"]),
)
# KISSA refines every weak-refine solve; on uncorr-exact it runs about one
# iteration, and the small sweep's rules tie on most instances
RULE_WORKLOAD = "weak-refine"
# acceptance criterion 8's three specs, where KISSA improves nothing, and
# two where it makes three improvements each
BENCH_SPECS = (
    "m=6 n=5 corr=uncorr seed=2",
    "m=20 n=20 corr=weak seed=3",
    "m=4 n=4 corr=uncorr seed=4 budget_ratio=1.0",
    "m=10 n=10 corr=weak seed=3",
    "m=40 n=20 corr=weak seed=2",
)
BENCH_TIMING = ("ms_bissa", "ms_kissa")
# One malformed file per error of the line parser, as edits of a valid one,
# and last a file with comments and blank lines that parses.
MALFORMED_BASE = "MCKP 1\nm=2 b=4\ncat 2\n2 1.9\n3 3\ncat 2\n4 2\n2 1\n"
MALFORMED_EDITS = (
    (MALFORMED_BASE, ""),  # empty file
    ("MCKP 1", "MCKP 2"),
    ("m=2 b=4", "m=2"),
    ("m=2", "m=x"),
    ("m=2", "m=0"),
    ("b=4", "b=x"),
    ("b=4", "b=inf"),
    ("b=4", "b=0"),
    ("cat 2", "cats 2"),
    ("cat 2", "cat x"),
    ("cat 2", "cat 0"),
    ("2 1.9", "2"),
    ("2 1.9", "x 1.9"),
    ("2 1.9", "2 x"),
    ("2 1.9", "nan 1.9"),
    ("2 1.9", "2 inf"),
    ("2 1.9", "2 -1.9"),
    ("2 1\n", "2 1\n5 5\n"),  # trailing content
    ("2 1\n", ""),  # unexpected end of file
    ("cat 2\n2 1.9", "# comment\n\ncat 2\n  # indented\n2 1.9\n"),
)


# Number tokens at the edges of ``float`` and of 2**53, put in the place of
# every coefficient and budget of the ``reader`` sweep's edited files.
READER_TOKENS = (
    "999999999999999", "9999999999999999", str(2**53 - 1), str(2**53), str(2**53 + 1),
    "007", "-0", "-0.0", "+5", "1e3", ".5", "5.", "1e-400", "1e400", "1_000", "\u0663",
    "inf", "nan", "-1", "x",
)
# Every character at which ``splitlines`` breaks a line, and a tab.
READER_BREAKS = (
    "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\t",
)
READER_BASES = (
    MALFORMED_BASE, "MCKP 1\nm=3 b=17\ncat 1\n5 5\ncat 3\n1 2\n8 9\n0 0\ncat 2\n6 7\n3 1\n",
)


def capture(argv: list[str]) -> tuple[str, str, str]:
    """Run one command; its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a usage error this way
            code = exc.code
        except Exception as exc:  # a crash is this run's outcome; the digest goes on
            code = f"uncaught {type(exc).__name__}: {exc}"
    return str(code), out.getvalue(), err.getvalue()


def feed(digest, parts) -> None:
    for part in parts:
        digest.update(part.encode())
        digest.update(b"\0")


def run(digest, argv: list[str]) -> None:
    """Run one command and feed its exit code, stdout and stderr to ``digest``."""
    feed(digest, capture(argv))


def workload_digests(seed: int):
    """(workload, command, runs, digest) for every instance of each workload."""
    for name, workload in WORKLOADS.items():
        stored, _ = write_instances(instance_specs(workload, seed), Path.cwd())
        gen = hashlib.sha256()
        for inst in stored:
            gen.update(inst.path.read_bytes())
        yield name, "gen", len(stored), gen
        commands = WORKLOAD_COMMANDS + (RULE_COMMANDS if name == RULE_WORKLOAD else ())
        for label, (command, *options) in commands:
            digest = hashlib.sha256()
            for inst in stored:
                run(digest, [command, inst.path.name, *options])
            yield name, label, len(stored), digest
        for inst in stored:
            inst.path.unlink()


def small_digests(workload, ratio_of, commands):
    """(workload, command, runs, digest) over the small-instance sweep, with
    the budget ratio ``ratio_of(seed)``."""
    gen = hashlib.sha256()
    digests = {label: hashlib.sha256() for label, _ in commands}
    runs = 0
    for corr in SMALL_CORRELATIONS:
        for m, n in SMALL_SIZES:
            for seed in SMALL_SEEDS:
                run(gen, ["gen", "--m", str(m), "--n", str(n), "--corr", corr, "--seed",
                          str(seed), "--budget-ratio", ratio_of(seed), "-o", "small.mckp"])
                gen.update(Path("small.mckp").read_bytes())
                for label, argv in commands:
                    run(digests[label], argv)
                runs += 1
    yield workload, "gen", runs, gen
    for label, digest in digests.items():
        yield workload, label, runs, digest


def drawn_instance(rng: random.Random, coefficient) -> Instance:
    """m and every category size in 2-6, each coefficient ``coefficient(rng)``,
    and the budget at the midpoint between the cheapest and the costliest
    selection (at least 1)."""
    cats = [
        [(coefficient(rng), coefficient(rng)) for _ in range(rng.randint(2, 6))]
        for _ in range(rng.randint(2, 6))
    ]
    low = sum(min(c for _, c in cat) for cat in cats)
    high = sum(max(c for _, c in cat) for cat in cats)
    return Instance(cats, max((low + high) / 2, 1))


def collinear_instance(rng: random.Random) -> Instance:
    """m and every category size in 2-6, each item's profit equal to its
    cost in 0-99, and the budget at the midpoint between the cheapest and
    the costliest selection, rounded down (at least 1)."""
    cats = [
        [(c, c) for c in (rng.randint(0, 99) for _ in range(rng.randint(2, 6)))]
        for _ in range(rng.randint(2, 6))
    ]
    low = sum(min(c for _, c in cat) for cat in cats)
    high = sum(max(c for _, c in cat) for cat in cats)
    return Instance(cats, max((low + high) // 2, 1))


def float_edge_instance(rng: random.Random) -> Instance:
    """m and every category size in 1-4, each coefficient from
    ``FLOAT_EDGE_VALUES``, and the budget the cost of a random selection,
    or 1 where that is 0 or past the float range."""
    cats = [
        [(rng.choice(FLOAT_EDGE_VALUES), rng.choice(FLOAT_EDGE_VALUES))
         for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(1, 4))
    ]
    cost = 0.0
    for cat in cats:
        cost += rng.choice(cat)[1]
    return Instance(cats, cost if 0 < cost < math.inf else 1)


def deep_instance(rng: random.Random) -> Instance:
    """1,000 to 1,500 categories, 2 to 12 of them with two items and the rest
    with one, each coefficient in 0-99, and the budget at the midpoint
    between the cheapest and the costliest selection (at least 1)."""
    m = rng.randint(1000, 1500)
    pairs = set(rng.sample(range(m), rng.randint(2, 12)))
    cats = [
        [(rng.randint(0, 99), rng.randint(0, 99)) for _ in range(2 if j in pairs else 1)]
        for j in range(m)
    ]
    low = sum(min(c for _, c in cat) for cat in cats)
    high = sum(max(c for _, c in cat) for cat in cats)
    return Instance(cats, max((low + high) // 2, 1))


def ragged_instance(rng: random.Random) -> Instance:
    """m in 2-8, every category size in 1-12, so that sizes mix within an
    instance, each coefficient in 0-9, and the budget at the midpoint
    between the cheapest and the costliest selection (at least 1)."""
    cats = [
        [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(rng.randint(1, 12))]
        for _ in range(rng.randint(2, 8))
    ]
    low = sum(min(c for _, c in cat) for cat in cats)
    high = sum(max(c for _, c in cat) for cat in cats)
    return Instance(cats, max((low + high) / 2, 1))


def wide_instance(rng: random.Random) -> Instance:
    """m and every category size in 2-6, each profit up to a top drawn from
    ``WIDE_PROFIT_TOPS``, each cost ``WIDE_COST_BASE`` plus 0-99, and the
    budget at the midpoint between the cheapest and the costliest selection,
    rounded down."""
    top = rng.choice(WIDE_PROFIT_TOPS)
    cats = [
        [(rng.randint(0, top), WIDE_COST_BASE + rng.randint(0, 99))
         for _ in range(rng.randint(2, 6))]
        for _ in range(rng.randint(2, 6))
    ]
    low = sum(min(c for _, c in cat) for cat in cats)
    high = sum(max(c for _, c in cat) for cat in cats)
    return Instance(cats, (low + high) // 2)


def drawn_digests(workload: str, seed: int, draw, commands, instances=DRAWN_INSTANCES):
    """(workload, command, runs, digest) over ``instances`` instances
    ``draw(rng)``, with ``rng = random.Random(seed)``."""
    rng = random.Random(seed)
    gen = hashlib.sha256()
    digests = {label: hashlib.sha256() for label, _ in commands}
    for _ in range(instances):
        text = write_instance(draw(rng))
        Path("small.mckp").write_text(text, encoding="utf-8")
        gen.update(text.encode())
        for label, argv in commands:
            run(digests[label], argv)
    yield workload, "gen", instances, gen
    for label, digest in digests.items():
        yield workload, label, instances, digest


def bench_digest():
    """(workload, command, runs, digest) of one ``mckp bench`` on ``BENCH_SPECS``:
    its exit code, stderr and CSV, then its exit code and stdout."""
    Path("specs.txt").write_text("\n".join(BENCH_SPECS) + "\n", encoding="utf-8")
    code, out, err = capture(["bench", "--spec", "specs.txt", "--out", "bench.csv"])
    rows = []
    if code == "0":
        rows = list(csv.reader(Path("bench.csv").read_text(encoding="utf-8").splitlines()))
        timing = [rows[0].index(column) for column in BENCH_TIMING]
        for row in rows[1:]:
            for k in timing:
                row[k] = ""
    digest = hashlib.sha256()
    feed(digest, (code, err, "\n".join(",".join(row) for row in rows)))
    yield "bench", "bench", len(BENCH_SPECS), digest
    # Below the header and its rule, every row but the last ("wrote ...")
    # is a table row; a data row's last two cells are its timings.
    lines = out.splitlines()
    for k in range(2, len(lines) - 1):
        if lines[k].split()[5] != "error:":
            lines[k] = lines[k].rsplit(maxsplit=2)[0]
    digest = hashlib.sha256()
    feed(digest, (code, "\n".join(lines)))
    yield "bench", "bench stdout", len(BENCH_SPECS), digest


def malformed_digest():
    """(workload, command, runs, digest) of ``solve`` and ``exact`` on each
    :data:`MALFORMED_EDITS` file."""
    digest = hashlib.sha256()
    for old, new in MALFORMED_EDITS:
        Path("bad.mckp").write_text(MALFORMED_BASE.replace(old, new, 1), encoding="utf-8")
        for command in ("solve", "exact"):
            run(digest, [command, "bad.mckp"])
    yield "malformed", "solve + exact", len(MALFORMED_EDITS), digest


def read_outcome(data: str | bytes) -> str:
    """``read_instance(data)``'s starts, budget, profits and costs, the
    floats by ``float.hex``, or its error line."""
    try:
        inst = read_instance(data)
    except (MCKPError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    floats = (inst.budget, *inst.profits.tolist(), *inst.costs.tolist())
    return f"{tuple(inst.starts.tolist())} " + " ".join(map(float.hex, floats))


def edited_files(text: str):
    """Edits of the written file ``text``: each :data:`READER_TOKENS` in the
    place of each coefficient and of the budget, category sizes with a
    leading zero, zero, a sign or a point, an ``m`` one off, trailing
    content, no final newline, CRLF newlines, a byte-order mark, and each
    of :data:`READER_BREAKS` at every place after the first line."""
    lines = text.splitlines()
    for k, line in enumerate(lines[1:], 1):
        head, tail = line.split(" ")
        if k == 1:
            m = int(head[2:])
            edits = [f"{head} b={t}" for t in READER_TOKENS]
            edits += [f"m={m + d} {tail}" for d in (-1, 1)]
        elif head == "cat":
            edits = [f"cat {size}" for size in ("0" + tail, "0", "+" + tail, tail + ".0")]
        else:
            edits = [edit for t in READER_TOKENS for edit in (f"{t} {tail}", f"{head} {t}")]
        yield from ("\n".join([*lines[:k], edit, *lines[k + 1:]]) + "\n" for edit in edits)
    yield from (text + "1 2\n", text + "cat 1\n1 2\n", text[:-1], text.replace("\n", "\r\n"),
                "\ufeff" + text)
    for at in range(len(lines[0]) + 1, len(text) + 1):
        yield from (text[:at] + mark + text[at:] for mark in READER_BREAKS)


def reader_digests(seed: int):
    """(workload, command, runs, digest) of ``read_instance`` on the text and
    the bytes of written files of every family, then of :func:`edited_files`
    of :data:`READER_BASES`."""
    digest, runs = hashlib.sha256(), 0
    for name, workload in WORKLOADS.items():
        for spec in instance_specs(workload, seed)[:3]:
            text = write_instance(generate(spec))
            feed(digest, (read_outcome(text), read_outcome(text.encode())))
            runs += 1
    families = (
        lambda rng: drawn_instance(rng, lambda r: r.randint(0, 9)),
        lambda rng: drawn_instance(rng, lambda r: r.randint(0, 99) / 10),
        collinear_instance, float_edge_instance, deep_instance, ragged_instance, wide_instance,
    )
    rng = random.Random(seed)
    for draw in families:
        for _ in range(DEEP_INSTANCES if draw is deep_instance else 40):
            text = write_instance(draw(rng))
            feed(digest, (read_outcome(text), read_outcome(text.encode())))
            runs += 1
    yield "reader", "written", runs, digest
    digest, runs = hashlib.sha256(), 0
    for text in itertools.chain.from_iterable(map(edited_files, READER_BASES)):
        feed(digest, (read_outcome(text), read_outcome(text.encode())))
        runs += 1
    yield "reader", "edited", runs, digest


def kissa_outcome(inst: Instance) -> str:
    """``kissa`` of ``bissa(inst)`` under each selection rule: each run's
    final selection, termination, improvements and iterations, every
    objective by ``float.hex``, or the error that ended it."""
    try:
        straddle = bissa(inst)
    except MCKPError as exc:
        return f"bissa {type(exc).__name__}: {exc}"
    runs = []
    for rule in SelectionRule:
        try:
            run = kissa(inst, straddle, KissaConfig(rule=rule))
        except MCKPError as exc:
            runs.append(f"{rule.value} {type(exc).__name__}: {exc}")
            continue
        iterations = [
            f"{it.index} {sorted(it.candidates)} {sorted(it.gains)} {sorted(it.affordable)} "
            f"{it.chosen} {it.objective.f1.hex()} {it.objective.f2.hex()}"
            for it in run.iterations
        ]
        runs.append(
            f"{rule.value} {run.final} {run.termination.value} {run.improvements} "
            + "; ".join(iterations)
        )
    return "\n".join(runs)


def kissa_digests(seed: int):
    """(workload, command, runs, digest) of :func:`kissa_outcome` on each
    workload's instances for ``seed`` and on the instances of the
    ``fractional`` and ``edge`` sweeps."""
    for name, workload in WORKLOADS.items():
        specs = instance_specs(workload, seed)
        digest = hashlib.sha256()
        for spec in specs:
            feed(digest, (kissa_outcome(generate(spec)),))
        yield "kissa", name, len(specs), digest
    families = (
        ("fractional", lambda rng: drawn_instance(rng, lambda r: r.randint(0, 99) / 10)),
        ("edge", float_edge_instance),
    )
    for name, draw in families:
        rng = random.Random(seed)
        digest = hashlib.sha256()
        for _ in range(DRAWN_INSTANCES):
            feed(digest, (kissa_outcome(draw(rng)),))
        yield "kissa", name, DRAWN_INSTANCES, digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args = parser.parse_args(argv)
    if Path(cli.__file__).resolve().parent != (ROOT / "src" / "mckp").resolve():
        raise SystemExit(f"error: imported mckp from {cli.__file__}, not from {ROOT / 'src'}")
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative paths keep the directory name out of the output
        try:
            for workload, command, runs, digest in itertools.chain(
                workload_digests(args.seed),
                small_digests("small", lambda seed: str((seed % 5) / 4), SMALL_COMMANDS),
                *(
                    small_digests(f"small ratio {r}", lambda seed, r=r: r, EDGE_COMMANDS)
                    for r in EDGE_RATIOS
                ),
                drawn_digests(
                    "ties", args.seed, lambda rng: drawn_instance(rng, lambda r: r.randint(0, 9)),
                    TIES_COMMANDS,
                ),
                drawn_digests(
                    "fractional", args.seed,
                    lambda rng: drawn_instance(rng, lambda r: r.randint(0, 99) / 10),
                    FRACTIONAL_COMMANDS,
                ),
                bench_digest(),
                malformed_digest(),
                drawn_digests("collinear", args.seed, collinear_instance, COLLINEAR_COMMANDS),
                drawn_digests("edge", args.seed, float_edge_instance, FLOAT_EDGE_COMMANDS),
                drawn_digests(
                    "deep", args.seed, deep_instance, FLOAT_EDGE_COMMANDS, DEEP_INSTANCES
                ),
                drawn_digests("ragged", args.seed, ragged_instance, TIES_COMMANDS),
                drawn_digests(
                    "chebyshev", args.seed,
                    lambda rng: drawn_instance(rng, lambda r: r.randint(0, 99)),
                    CHEBYSHEV_COMMANDS,
                ),
                drawn_digests("wide", args.seed, wide_instance, WIDE_COMMANDS),
                reader_digests(args.seed),
                kissa_digests(args.seed),
            ):
                print(f"{workload:<13} {command:<24} {runs:>4} {digest.hexdigest()}", flush=True)
        finally:
            os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
