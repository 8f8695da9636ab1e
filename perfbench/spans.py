"""Spans at the program's layer boundaries, recorded from outside the program.

Each boundary is a public function replaced, for the length of a traced
operation, at the name its caller looks it up by. ``mckp/__init__`` rebinds
``mckp.kissa`` and ``mckp.bissa`` to functions, so the modules are reached
through ``sys.modules``. A boundary that no longer exists is reported as
absent instead of failing the run.
"""

import functools
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def _items(instance):
    return {"items": sum(len(cat) for cat in instance.categories)}


def _bissa(result):
    return {"probes": len(result.trace), "exact": int(bool(result.exact))}


def _kissa(run):
    return {"iterations": len(run.iterations), "improvements": run.improvements}


def _certify(certified):
    return {"true": int(bool(certified))}


@dataclass(frozen=True)
class Boundary:
    span: str
    module: str
    attr: str
    counter: object = None  # result -> {count name: value}
    counts: tuple[str, ...] = ()


BOUNDARIES = (
    Boundary("model.read_instance", "mckp.cli", "read_instance", _items, ("items",)),
    Boundary("bissa", "mckp.cli", "bissa", _bissa, ("probes", "exact")),
    Boundary("kissa", "mckp.cli", "kissa", _kissa, ("iterations", "improvements")),
    Boundary("kissa.certify", "mckp.cli", "certify", _certify, ("true",)),
    Boundary("oracle.dp_solve", "mckp.cli", "dp_solve"),
    Boundary("frontier.delta_bound", "mckp.kissa", "delta_bound"),
    Boundary("frontier.chebyshev", "mckp.kissa", "solve_chebyshev_subproblem"),
    Boundary("oracle.enumerate", "mckp.kissa", "dominated_in_product"),
    Boundary("bissa.solve_linear", "mckp.bissa", "solve_linear"),
)

@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    key: tuple  # (instance index, repetition)
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; ``key`` tags the spans of the current operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.key: tuple = ()
        self.absent: set[str] = set()  # boundaries or counts that could not be read
        self._stack: list[int] = []

    def call(self, boundary: Boundary, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(boundary.span, 0.0, 0.0, parent, self.key)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if boundary.counter is not None:
            try:
                span.counts.update(boundary.counter(result))
            except (AttributeError, TypeError):
                self.absent.update(f"{boundary.span}.{c}" for c in boundary.counts)
        return result

    @contextmanager
    def root(self, name: str):
        """Span around one whole CLI operation."""
        self.spans.append(Span(name, 0.0, 0.0, None, self.key))
        self._stack.append(len(self.spans) - 1)
        span = self.spans[-1]
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, boundary: Boundary, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(boundary, fn, args, kwargs)

        return traced


@contextmanager
def patched(tracer: Tracer, boundaries=BOUNDARIES):
    """Replace every boundary function with a traced wrapper; restore on exit."""
    saved = []
    try:
        for b in boundaries:
            module = sys.modules.get(b.module)
            fn = getattr(module, b.attr, None)
            if not callable(fn):
                tracer.absent.add(b.span)
                continue
            saved.append((module, b.attr, fn))
            setattr(module, b.attr, tracer.wrap(b, fn))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def per_operation(spans: list[Span]) -> dict[tuple, dict[str, float]]:
    """Totals per operation key: ``<span>.ms``, ``<span>.self_ms``,
    ``<span>.calls`` and ``<span>.<count>`` for every span name seen."""
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_s[span.parent] += span.end - span.start
    totals: dict[tuple, dict[str, float]] = {}
    for span, children in zip(spans, child_s):
        t = totals.setdefault(span.key, {})
        duration = span.end - span.start
        for suffix, value in (
            ("ms", duration * 1e3),
            ("self_ms", (duration - children) * 1e3),
            ("calls", 1),
            *span.counts.items(),
        ):
            name = f"{span.name}.{suffix}"
            t[name] = t.get(name, 0.0) + value
    return totals


def per_instance_means(totals: dict[tuple, dict[str, float]], names: list[str]) -> dict[str, float]:
    """Mean over instances of each instance's median over repetitions.

    A name with no span in an operation counts as 0 there: the boundary was
    present but not reached.
    """
    by_instance: dict[object, list[dict[str, float]]] = {}
    for (instance, _rep), t in totals.items():
        by_instance.setdefault(instance, []).append(t)
    medians = [
        {n: statistics.median(t.get(n, 0.0) for t in reps) for n in names}
        for reps in by_instance.values()
    ]
    return {n: statistics.fmean(m[n] for m in medians) for n in names}
