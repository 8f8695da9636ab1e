"""Batch experiment runner and gap reporting.

For every generated instance the runner computes the exact optimum (dynamic
program), the bisection solution, and the Chebyshev-improved solution, then
reports relative gaps in percent against the optimum. A failing instance
marks its own row and never aborts the batch. CSV output is byte-stable
across runs except for the two wall-time columns.
"""

import time
from dataclasses import dataclass
from typing import NamedTuple

from .bissa import bissa
from .generate import GenSpec, generate
from .kissa import KissaConfig, kissa
from .model import MCKPError, evaluate
from .oracle import dp_solve


class _Column(NamedTuple):
    csv: str  # CSV header
    field: str  # GapRow attribute
    csv_format: str  # CSV cell format spec; "num" prints a profit
    head: str  # text header
    width: int  # text column width
    text_format: str  # text cell format spec, before padding to the width


_COLUMNS = (
    _Column("id", "id", "", "id", 4, ""),
    _Column("m", "m", "", "m", 5, ""),
    _Column("n", "n", "", "n", 5, ""),
    _Column("corr", "corr", "", "corr", 6, ""),
    _Column("seed", "seed", "", "seed", 6, ""),
    _Column("exact", "exact", "num", "exact", 10, "num"),
    _Column("bissa", "bissa_profit", "num", "bissa", 10, "num"),
    _Column("kissa", "kissa_profit", "num", "kissa", 10, "num"),
    _Column("gap_bissa_pct", "gap_bissa_pct", ".6f", "gap_b%", 9, ".4f"),
    _Column("gap_kissa_pct", "gap_kissa_pct", ".6f", "gap_k%", 9, ".4f"),
    _Column("improvements", "improvements", "", "impr", 5, ""),
    _Column("ms_bissa", "ms_bissa", ".3f", "ms_b", 8, ".2f"),
    _Column("ms_kissa", "ms_kissa", ".3f", "ms_k", 8, ".2f"),
)
_IDENTITY = _COLUMNS[:5]  # the cells that an error row fills
CSV_COLUMNS = tuple(column.csv for column in _COLUMNS)


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
            lines.append(",".join(_cell(getattr(r, c.field), c.csv_format) for c in _COLUMNS))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        header = " ".join(f"{c.head:>{c.width}}" for c in _COLUMNS)
        lines = [header, "-" * len(header)]
        for r in self.rows:
            if r.error is not None:
                lines.append(f"{_text_cells(r, _IDENTITY)} error: {r.error}")
            else:
                lines.append(_text_cells(r, _COLUMNS))
        return "\n".join(lines) + "\n"


def _cell(value, spec: str) -> str:
    if value is None:
        return ""
    if spec == "num":
        return str(int(value)) if float(value).is_integer() else repr(float(value))
    return format(value, spec)


def _text_cells(row: GapRow, columns) -> str:
    return " ".join(
        f"{_cell(getattr(row, c.field), c.text_format):>{c.width}}" for c in columns
    )


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
