import csv
import io

from mckp import Correlation, GenSpec, KissaConfig, oracle, run_benchmark
from mckp.bench import CSV_COLUMNS, GapReport, GapRow


def small_specs():
    return [
        GenSpec(m=4, n=4, correlation=Correlation.UNCORRELATED, seed=3),
        GenSpec(m=5, n=3, correlation=Correlation.WEAK, seed=4),
        GenSpec(m=3, n=3, correlation=Correlation.UNCORRELATED, seed=5, budget_ratio=1.0),
    ]


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestRunBenchmark:
    def test_rows_complete_and_consistent(self):
        report = run_benchmark(small_specs())
        assert len(report.rows) == 3
        for row in report.rows:
            assert row.error is None
            assert row.kissa_profit >= row.bissa_profit
            assert row.exact >= row.kissa_profit
            assert 0.0 <= row.gap_kissa_pct <= row.gap_bissa_pct
            if row.improvements > 0:
                assert row.gap_kissa_pct < row.gap_bissa_pct

    def test_exact_bissa_row_has_zero_gaps(self):
        report = run_benchmark(
            [GenSpec(m=3, n=3, correlation=Correlation.UNCORRELATED, seed=5, budget_ratio=1.0)]
        )
        row = report.rows[0]
        assert row.gap_bissa_pct == 0.0
        assert row.gap_kissa_pct == 0.0
        assert row.improvements == 0

    def test_csv_columns_exact(self):
        text = run_benchmark(small_specs()[:1]).to_csv()
        header = text.splitlines()[0]
        assert header == "id,m,n,corr,seed,exact,bissa,kissa,gap_bissa_pct,gap_kissa_pct,improvements,ms_bissa,ms_kissa"
        assert tuple(header.split(",")) == CSV_COLUMNS

    def test_csv_deterministic_modulo_timing(self):
        a = parse_csv(run_benchmark(small_specs()).to_csv())
        b = parse_csv(run_benchmark(small_specs()).to_csv())
        for ra, rb in zip(a, b):
            for key in CSV_COLUMNS:
                if key.startswith("ms_"):
                    continue
                assert ra[key] == rb[key]

    def test_failed_row_isolation(self, monkeypatch):
        # the middle spec blows the dp memory guard; its row carries the
        # error while the neighbours complete. Its folded core table is
        # about 67 MB, under the real 2 GiB guard, so the guard is lowered
        # to 1 MiB; the neighbours' tables take a few hundred bytes.
        monkeypatch.setattr(oracle, "MEMORY_LIMIT_BYTES", 2**20)
        specs = [
            GenSpec(m=3, n=3, correlation=Correlation.UNCORRELATED, seed=1),
            GenSpec(m=60000, n=2, correlation=Correlation.WEAK, seed=2),
            GenSpec(m=3, n=3, correlation=Correlation.UNCORRELATED, seed=3),
        ]
        report = run_benchmark(specs)
        assert report.rows[0].error is None
        assert report.rows[1].error is not None
        assert report.rows[1].exact is None
        assert report.rows[2].error is None
        rows = parse_csv(report.to_csv())
        assert len(rows) == 3
        assert rows[1]["exact"] == ""
        assert rows[1]["m"] == "60000"
        text = report.to_text()
        assert "error" in text

    def test_text_table_renders_all_rows(self):
        report = run_benchmark(small_specs())
        text = report.to_text()
        assert len(text.splitlines()) == 2 + len(report.rows)

    def test_config_passes_through(self):
        report = run_benchmark(small_specs()[:1], KissaConfig(rho=1e-6, epsilon=1e-3))
        assert report.rows[0].error is None

    def test_improvement_row_tightens_gap(self):
        # this weakly correlated seed is known to admit a Chebyshev
        # improvement over the bisection solution
        spec = GenSpec(m=20, n=20, correlation=Correlation.WEAK, seed=1)
        row = run_benchmark([spec]).rows[0]
        assert row.improvements >= 1
        assert row.gap_kissa_pct < row.gap_bissa_pct
        assert row.kissa_profit > row.bissa_profit


class TestReportBytes:
    """Both report formats, byte for byte, on fixed rows."""

    ROWS = [
        GapRow(
            id=0, m=3, n=3, corr="uncorr", seed=5, exact=2478.0, bissa_profit=2478.0,
            kissa_profit=2478.0, gap_bissa_pct=0.0, gap_kissa_pct=0.0, improvements=0,
            ms_bissa=0.5, ms_kissa=0.25,
        ),
        GapRow(
            id=1, m=20, n=20, corr="weak", seed=1, exact=8000.0, bissa_profit=7990.5,
            kissa_profit=7999.25, gap_bissa_pct=0.11875, gap_kissa_pct=0.009375,
            improvements=3, ms_bissa=12.34567, ms_kissa=1234.5,
        ),
        GapRow(id=2, m=60000, n=2, corr="weak", seed=2, error="dp table too large"),
    ]

    def test_csv(self):
        assert GapReport(self.ROWS).to_csv() == (
            "id,m,n,corr,seed,exact,bissa,kissa,gap_bissa_pct,gap_kissa_pct,"
            "improvements,ms_bissa,ms_kissa\n"
            "0,3,3,uncorr,5,2478,2478,2478,0.000000,0.000000,0,0.500,0.250\n"
            "1,20,20,weak,1,8000,7990.5,7999.25,0.118750,0.009375,3,12.346,1234.500\n"
            "2,60000,2,weak,2,,,,,,,,\n"
        )

    def test_text(self):
        assert GapReport(self.ROWS).to_text() == (
            "  id     m     n   corr   seed      exact      bissa      kissa"
            "    gap_b%    gap_k%  impr     ms_b     ms_k\n"
            + "-" * 107 + "\n"
            "   0     3     3 uncorr      5       2478       2478       2478"
            "    0.0000    0.0000     0     0.50     0.25\n"
            "   1    20    20   weak      1       8000     7990.5    7999.25"
            "    0.1187    0.0094     3    12.35  1234.50\n"
            "   2 60000     2   weak      2 error: dp table too large\n"
        )
