"""Benchmark workloads: which instances each one generates, and the set-up
that writes them to disk.

The program under test only ever sees the instance files. Every instance
spec is derived from the workload name and the workload seed, so the same
seed always gives the same files and another seed gives other ones.
"""

import random
import time
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from mckp import Correlation, GenSpec, Instance, generate, write_instance


@dataclass(frozen=True)
class Workload:
    """A family of generated instances.

    ``instances`` is the size of the set the untraced run covers in its first
    pass; ``traced`` is the prefix of it the traced run covers (each traced
    instance runs twice, once untraced and once traced).
    """

    name: str
    instances: int
    traced: int
    draw: Callable[[int], GenSpec]  # instance seed -> spec


def _weak_refine(seed):
    return GenSpec(m=40, n=200, correlation=Correlation.WEAK, seed=seed, budget_ratio=0.5)


def _uncorr_exact(seed):
    return GenSpec(
        m=250, n=10, correlation=Correlation.UNCORRELATED, seed=seed, budget_ratio=0.35
    )


WORKLOADS = {
    w.name: w
    for w in (
        # BISSA never proves optimality; KISSA and delta_bound (numpy path) dominate solve.
        Workload("weak-refine", 180, 30, _weak_refine),
        # The DP dominates; KISSA does about one iteration; delta_bound takes its Python path.
        Workload("uncorr-exact", 300, 60, _uncorr_exact),
    )
}


def instance_specs(workload: Workload, seed: int) -> list[GenSpec]:
    """The workload's instance specs for ``seed``, in a fixed order."""
    rng = random.Random(f"{workload.name}:{seed}")
    return [workload.draw(rng.getrandbits(63)) for _ in range(workload.instances)]


@dataclass
class StoredInstance:
    """An instance file plus a compact copy of its coefficients for checking.

    Keeping flat arrays instead of the ``Instance`` keeps the harness's own
    memory small next to the program's peak resident memory.
    """

    path: Path
    items: int
    budget: float
    sizes: array
    profits: array
    costs: array

    def instance(self) -> Instance:
        categories = []
        start = 0
        for size in self.sizes:
            end = start + size
            categories.append(tuple(zip(self.profits[start:end], self.costs[start:end])))
            start = end
        return Instance(tuple(categories), self.budget)


@dataclass
class SetupTimes:
    """Set-up seconds, summed over the instances written."""

    generate_s: float = 0.0
    write_instance_s: float = 0.0
    file_write_s: float = 0.0
    items: int = 0

    @property
    def total_s(self) -> float:
        return self.generate_s + self.write_instance_s + self.file_write_s


def write_instances(
    specs: list[GenSpec], directory: Path, start: int = 0
) -> tuple[list[StoredInstance], SetupTimes]:
    """Generate each spec and write it as ``<start + index>.mckp`` under ``directory``.

    Only generation, formatting and the file write are timed; the compact
    copy kept for checking is not.
    """
    stored = []
    times = SetupTimes()
    for k, spec in enumerate(specs, start):
        path = directory / f"{k}.mckp"
        t0 = time.perf_counter()
        inst = generate(spec)
        t1 = time.perf_counter()
        text = write_instance(inst)
        t2 = time.perf_counter()
        path.write_text(text, encoding="utf-8")
        t3 = time.perf_counter()
        times.generate_s += t1 - t0
        times.write_instance_s += t2 - t1
        times.file_write_s += t3 - t2
        items = sum(len(cat) for cat in inst.categories)
        times.items += items
        stored.append(
            StoredInstance(
                path=path,
                items=items,
                budget=inst.budget,
                sizes=array("l", (len(cat) for cat in inst.categories)),
                profits=array("d", (it.profit for cat in inst.categories for it in cat)),
                costs=array("d", (it.cost for cat in inst.categories for it in cat)),
            )
        )
    return stored, times
