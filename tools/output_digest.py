"""Digest the command-line output, to check that a change keeps it unchanged.

Runs ``mckp solve`` and ``mckp exact`` through ``mckp.cli.main`` on every
instance of the benchmark workloads for one seed, then a small-instance
sweep of ``mckp gen``, ``solve --trace``, ``solve --rule first|best-slack``
and ``exact``. Prints one sha256 per (workload, command) over each run's
exit code, stdout and stderr; the ``gen`` digests cover the instance file
bytes as well. ``mckp`` is imported from this checkout's ``src``, so
running the script in two checkouts and comparing the lines is the
"outputs unchanged" check::

    python tools/output_digest.py --seed 1

The instances come from ``perfbench/workloads.py``, which is only imported.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from mckp import cli  # noqa: E402
from workloads import WORKLOADS, instance_specs, write_instances  # noqa: E402

SMALL_CORRELATIONS = ("uncorr", "weak")
SMALL_SIZES = ((2, 2), (2, 5), (3, 3), (3, 6), (4, 2), (4, 4), (5, 3), (6, 6))
SMALL_SEEDS = range(15)
SMALL_COMMANDS = (
    ("solve --trace", ["solve", "small.mckp", "--trace"]),
    ("solve --rule first", ["solve", "small.mckp", "--rule", "first"]),
    ("solve --rule best-slack", ["solve", "small.mckp", "--rule", "best-slack"]),
    ("exact", ["exact", "small.mckp"]),
)


def run(digest, argv: list[str]) -> None:
    """Run one command and feed its exit code, stdout and stderr to ``digest``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a usage error this way
            code = exc.code
    for part in (str(code), out.getvalue(), err.getvalue()):
        digest.update(part.encode())
        digest.update(b"\0")


def workload_digests(seed: int):
    """(workload, command, runs, digest) for every instance of each workload."""
    for name, workload in WORKLOADS.items():
        stored, _ = write_instances(instance_specs(workload, seed), Path.cwd())
        gen = hashlib.sha256()
        for inst in stored:
            gen.update(inst.path.read_bytes())
        yield name, "gen", len(stored), gen
        for command in ("solve", "exact"):
            digest = hashlib.sha256()
            for inst in stored:
                run(digest, [command, inst.path.name])
            yield name, command, len(stored), digest
        for inst in stored:
            inst.path.unlink()


def small_digests():
    """(workload, command, runs, digest) over the small-instance sweep."""
    gen = hashlib.sha256()
    digests = {label: hashlib.sha256() for label, _ in SMALL_COMMANDS}
    runs = 0
    for corr in SMALL_CORRELATIONS:
        for m, n in SMALL_SIZES:
            for seed in SMALL_SEEDS:
                ratio = str((seed % 5) / 4)  # 0 reaches zero-slack, 1 max-profit
                run(gen, ["gen", "--m", str(m), "--n", str(n), "--corr", corr,
                          "--seed", str(seed), "--budget-ratio", ratio, "-o", "small.mckp"])
                gen.update(Path("small.mckp").read_bytes())
                for label, argv in SMALL_COMMANDS:
                    run(digests[label], argv)
                runs += 1
    yield "small", "gen", runs, gen
    for label, digest in digests.items():
        yield "small", label, runs, digest


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
                workload_digests(args.seed), small_digests()
            ):
                print(f"{workload:<13} {command:<24} {runs:>4} {digest.hexdigest()}", flush=True)
        finally:
            os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
