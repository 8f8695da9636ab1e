"""Batch experiment runner and gap reporting.

For every generated instance the runner computes the exact optimum (dynamic
program), the bisection solution, and the Chebyshev-improved solution, then
reports relative gaps in percent against the optimum. A failing instance
marks its own row and never aborts the batch. CSV output is byte-stable
across runs except for the two wall-time columns.
"""

import time
from dataclasses import dataclass

from .bissa import bissa
from .generate import GenSpec, generate
from .kissa import KissaConfig, kissa
from .model import MCKPError, evaluate
from .oracle import dp_solve

CSV_COLUMNS = (
    "id",
    "m",
    "n",
    "corr",
    "seed",
    "exact",
    "bissa",
    "kissa",
    "gap_bissa_pct",
    "gap_kissa_pct",
    "improvements",
    "ms_bissa",
    "ms_kissa",
)


@dataclass(frozen=True)
class GapRow:
    id: int
    m: int
    n: int
    corr: str
    seed: int
    exact: float | None = None
    bissa_profit: float | None = None
    kissa_profit: float | None = None
    gap_bissa_pct: float | None = None
    gap_kissa_pct: float | None = None
    improvements: int | None = None
    ms_bissa: float | None = None
    ms_kissa: float | None = None
    error: str | None = None


@dataclass
class GapReport:
    rows: list[GapRow]

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for r in self.rows:
            lines.append(
                ",".join(
                    [
                        str(r.id),
                        str(r.m),
                        str(r.n),
                        r.corr,
                        str(r.seed),
                        _num(r.exact),
                        _num(r.bissa_profit),
                        _num(r.kissa_profit),
                        _pct(r.gap_bissa_pct),
                        _pct(r.gap_kissa_pct),
                        "" if r.improvements is None else str(r.improvements),
                        _ms(r.ms_bissa),
                        _ms(r.ms_kissa),
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        header = (
            f"{'id':>4} {'m':>5} {'n':>5} {'corr':>6} {'seed':>6} {'exact':>10} "
            f"{'bissa':>10} {'kissa':>10} {'gap_b%':>9} {'gap_k%':>9} {'impr':>5} "
            f"{'ms_b':>8} {'ms_k':>8}"
        )
        lines = [header, "-" * len(header)]
        for r in self.rows:
            if r.error is not None:
                lines.append(
                    f"{r.id:>4} {r.m:>5} {r.n:>5} {r.corr:>6} {r.seed:>6} "
                    f"error: {r.error}"
                )
                continue
            lines.append(
                f"{r.id:>4} {r.m:>5} {r.n:>5} {r.corr:>6} {r.seed:>6} "
                f"{_num(r.exact):>10} {_num(r.bissa_profit):>10} "
                f"{_num(r.kissa_profit):>10} {r.gap_bissa_pct:>9.4f} "
                f"{r.gap_kissa_pct:>9.4f} {r.improvements:>5} "
                f"{r.ms_bissa:>8.2f} {r.ms_kissa:>8.2f}"
            )
        return "\n".join(lines) + "\n"


def _num(x) -> str:
    if x is None:
        return ""
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def _pct(x) -> str:
    return "" if x is None else f"{x:.6f}"


def _ms(x) -> str:
    return "" if x is None else f"{x:.3f}"


def solve_one(spec: GenSpec, config: KissaConfig, row_id: int) -> GapRow:
    """Exact/bissa/kissa comparison on one generated instance."""
    base = dict(
        id=row_id, m=spec.m, n=spec.n, corr=spec.correlation.value, seed=spec.seed
    )
    try:
        instance = generate(spec)
        exact = dp_solve(instance).optimum_profit

        t0 = time.perf_counter()
        straddle = bissa(instance)
        ms_bissa = (time.perf_counter() - t0) * 1000.0
        bissa_profit = evaluate(instance, straddle.xa).f1

        t0 = time.perf_counter()
        run = kissa(instance, straddle, config)
        ms_kissa = (time.perf_counter() - t0) * 1000.0
        kissa_profit = evaluate(instance, run.final).f1

        return GapRow(
            **base,
            exact=exact,
            bissa_profit=bissa_profit,
            kissa_profit=kissa_profit,
            gap_bissa_pct=100.0 * (exact - bissa_profit) / exact,
            gap_kissa_pct=100.0 * (exact - kissa_profit) / exact,
            improvements=run.improvements,
            ms_bissa=ms_bissa,
            ms_kissa=ms_kissa,
        )
    except MCKPError as exc:
        return GapRow(**base, error=str(exc))


def run_benchmark(specs: list[GenSpec], config: KissaConfig | None = None) -> GapReport:
    """Run the comparison per spec; failed rows carry their error in-row."""
    config = config or KissaConfig()
    return GapReport([solve_one(spec, config, i) for i, spec in enumerate(specs)])
