import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mckp

from mckp import (
    Correlation,
    GenSpec,
    Instance,
    bissa,
    brute_force,
    evaluate,
    generate,
    is_feasible,
    read_instance,
    write_instance,
)
from mckp import cli, model
from mckp.bissa import BisectionLimitError
from mckp.cli import main, parse_specfile
from mckp.model import InstanceFormatError

from helpers import (
    absorbed_profits_instance,
    deep_instance,
    tied_swap_instance,
    walk_gap_instance,
)


@pytest.fixture
def appendix_file(tmp_path, appendix):
    path = tmp_path / "appendix.mckp"
    path.write_text(write_instance(appendix), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def weak_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("weak") / "weak.mckp"
    inst = generate(GenSpec(m=40, n=200, correlation=Correlation.WEAK, seed=1))
    path.write_text(write_instance(inst), encoding="utf-8")
    return path


class TestGen:
    def test_writes_parseable_deterministic_file(self, tmp_path, capsys):
        out1 = tmp_path / "a.mckp"
        out2 = tmp_path / "b.mckp"
        argv = ["gen", "--m", "6", "--n", "5", "--corr", "weak", "--seed", "11"]
        assert main(argv + ["-o", str(out1)]) == 0
        assert main(argv + ["-o", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        inst = read_instance(out1.read_text())
        assert inst.m == 6
        assert "wrote" in capsys.readouterr().out

    def test_invalid_gen_params_exit_2(self, tmp_path):
        argv = ["gen", "--m", "0", "--n", "3", "--corr", "uncorr", "--seed", "1",
                "-o", str(tmp_path / "x.mckp")]
        assert main(argv) == 2

    def test_budget_ratio_flag(self, tmp_path):
        out = tmp_path / "c.mckp"
        argv = [
            "gen", "--m", "3", "--n", "3", "--corr", "uncorr", "--seed", "2",
            "--budget-ratio", "1.0", "-o", str(out),
        ]
        assert main(argv) == 0
        inst = read_instance(out.read_text())
        assert inst.budget == sum(max(i.cost for i in cat) for cat in inst.categories)


class TestSolve:
    def test_appendix(self, appendix_file, capsys):
        assert main(["solve", str(appendix_file)]) == 0
        out = capsys.readouterr().out
        assert "selection: 0 0" in out
        assert "profit: 6" in out
        assert "cost: 3.9" in out
        assert "termination: budget-blocked" in out
        assert "certificate: true" in out

    def test_trace_flag(self, appendix_file, capsys):
        assert main(["solve", str(appendix_file), "--trace"]) == 0
        out = capsys.readouterr().out
        assert "# weight" in out
        assert "# iter" in out

    def test_rule_flag(self, appendix_file):
        assert main(["solve", str(appendix_file), "--rule", "first"]) == 0
        assert main(["solve", str(appendix_file), "--rule", "best-slack"]) == 0

    def test_exact_instance_reports_bissa_certificate(self, tmp_path, capsys):
        inst = read_instance("MCKP 1\nm=1 b=9\ncat 2\n1 1\n5 4\n")
        path = tmp_path / "slack.mckp"
        path.write_text(write_instance(inst), encoding="utf-8")
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr().out
        assert "termination: max-profit-feasible" in out
        assert "certificate: true" in out

    @staticmethod
    def solve(tmp_path, capsys, inst, *argv):
        path = tmp_path / "inst.mckp"
        path.write_text(write_instance(inst), encoding="utf-8")
        code = main(["solve", str(path), *argv])
        return code, capsys.readouterr().out

    @pytest.mark.parametrize("middle_cost", [1, 1e-300], ids=["integer", "fractional"])
    def test_absorbed_cost_gives_no_zero_slack_certificate(self, tmp_path, capsys, middle_cost):
        # brute force finds profit 1: (0, 1, 0)'s middle cost rounds away.
        # BISSA cannot prove it by zero slack, and KISSA's tie goes to the
        # more profitable item, so the certificate is the exhaustive one.
        inst = Instance(
            [[(0, 0), (10, 2**60)], [(0, 0), (1, middle_cost)], [(0, 2**60)]], 2**60
        )
        code, out = self.solve(tmp_path, capsys, inst)
        assert code == 0
        assert brute_force(inst).optimum_profit == 1
        assert "profit: 1\n" in out
        assert "termination: budget-blocked" in out
        assert "zero-slack" not in out
        assert "certificate: true" in out

    @pytest.mark.parametrize("order", ["up", "down"])
    def test_tie_goes_to_the_more_profitable_item(self, tmp_path, capsys, order):
        code, out = self.solve(tmp_path, capsys, tied_swap_instance(order))
        assert code == 0
        assert "profit: 1\n" in out
        assert "improvements: 1\n" in out
        assert "termination: budget-blocked" in out
        assert "certificate: true" in out

    def test_underflowing_rho_bound_solves(self, tmp_path, capsys):
        inst = Instance([[(0, 0), (5e-324, 1e300)], [(0, 0), (4, 4)]], 3)
        code, out = self.solve(tmp_path, capsys, inst)
        assert code == 0
        assert f"profit: {brute_force(inst).optimum_profit:g}\n" in out

    def test_free_selection_prints_cost_zero(self, tmp_path, capsys):
        inst = Instance([[(1, 0), (2, 5)]], 1)
        code, out = self.solve(tmp_path, capsys, inst, "--trace")
        assert code == 0
        assert "cost: 0\n" in out
        assert "cost 0 (feasible)" in out
        assert "-0" not in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.mckp"
        bad.write_text("MCKP 9\n", encoding="utf-8")
        assert main(["solve", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "exact"])
    def test_file_not_in_utf8_exits_2(self, tmp_path, capsys, command):
        # the bytes are read as they are; the line parser's decode refuses them
        bad = tmp_path / "latin1.mckp"
        bad.write_bytes(b"MCKP 1\nm=1 b=5\ncat 1\n1 \xff\n")
        assert main([command, str(bad)]) == 2
        assert capsys.readouterr().err == (
            "error: 'utf-8' codec can't decode byte 0xff in position 23: invalid start byte\n"
        )

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.mckp")]) == 2
        # a directory is an unreadable instance path too, for both commands
        assert main(["solve", str(tmp_path)]) == 2
        assert main(["exact", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_infeasible_exit_code(self, tmp_path, capsys):
        path = tmp_path / "inf.mckp"
        path.write_text("MCKP 1\nm=1 b=2\ncat 2\n1 5\n2 6\n", encoding="utf-8")
        assert main(["solve", str(path)]) == 3
        assert "infeasible" in capsys.readouterr().err

    @staticmethod
    def assert_solved_at_least_bissa(path, argv, capsys):
        capsys.readouterr()
        assert main(["solve", str(path), *argv]) == 0
        out = capsys.readouterr().out
        line = next(line for line in out.splitlines() if line.startswith("selection:"))
        sel = tuple(int(i) for i in line.split()[1:])
        inst = read_instance(path.read_text())
        assert is_feasible(inst, sel)
        assert evaluate(inst, sel).f1 >= evaluate(inst, bissa(inst).xa).f1

    def test_eps_absorbed_by_the_category_maxima(self, tmp_path, capsys):
        # 1e-20 is below half an ulp of every maximum, so max + eps rounds
        # back to the maximum; the reference takes the next float up instead.
        path = tmp_path / "w.mckp"
        argv = ["gen", "--m", "6", "--n", "8", "--corr", "weak", "--seed", "3"]
        assert main(argv + ["-o", str(path)]) == 0
        self.assert_solved_at_least_bissa(path, ["--eps", "1e-20"], capsys)

    def test_default_eps_absorbed_by_large_profits(self, tmp_path, capsys):
        # profits times 2^40 have an ulp of 1/8 or more, so the default
        # eps 1e-4 is absorbed as well (times 2^30 it is not)
        base = generate(
            GenSpec(m=6, n=8, correlation=Correlation.UNCORRELATED, seed=3, budget_ratio=0.4)
        )
        for scale in (2**30, 2**40):
            inst = Instance(
                tuple(tuple((p * scale, c) for p, c in cat) for cat in base.categories),
                base.budget,
            )
            path = tmp_path / f"u{scale}.mckp"
            path.write_text(write_instance(inst), encoding="utf-8")
            self.assert_solved_at_least_bissa(path, [], capsys)

    def test_profits_absorbed_by_float_sums(self, tmp_path, capsys):
        # used to exit 1 after 200 bisection steps
        path = tmp_path / "absorb.mckp"
        path.write_text(write_instance(absorbed_profits_instance()), encoding="utf-8")
        self.assert_solved_at_least_bissa(path, [], capsys)

    @pytest.mark.parametrize(
        "text",
        [
            "MCKP 1\nm=2 b=1e+308\ncat 2\n0 0\n5 1e+308\ncat 2\n0 0\n5 1e+308\n",
            "MCKP 1\nm=1 b=1e-300\ncat 3\n1e+300 1e-300\n"
            "1.7976931348623157e+308 1.152921504606847e+18\n2 0.1\n",
        ],
        ids=["cost-sum", "profit"],
    )
    def test_overflowing_sums_exit_1(self, tmp_path, capsys, text):
        # These used to fail inside the bisection ("weight must lie in [0, 1]",
        # exit 2) and inside a KISSA subproblem ("weights must be strictly
        # positive", exit 1); bissa now refuses them at its first probe.
        path = tmp_path / "big.mckp"
        path.write_text(text, encoding="utf-8")
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sums too large for floats")
        assert "weight" not in err

    def test_eps_past_the_float_range_exits_1(self, tmp_path, capsys):
        # used to exit 1 with "weights must be strictly positive"
        path = tmp_path / "eps.mckp"
        path.write_text("MCKP 1\nm=2 b=3\ncat 2\n0 1\n1e307 2\ncat 2\n0 1\n1e307 2\n")
        for eps in ("1.7e308", "1e308"):
            assert main(["solve", str(path), "--eps", eps]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: epsilon {float(eps):g} puts category 0's Chebyshev")
            assert "weights" not in err
        assert main(["solve", str(path), "--eps", "5e307"]) == 0
        out = capsys.readouterr().out
        assert "profit: 1e+307\n" in out and "certificate: true\n" in out

    def test_overflowing_sums_print_only_the_error(self, tmp_path):
        # evaluate's numpy sums reach inf here; a RuntimeWarning would reach
        # stderr ahead of the error line
        path = tmp_path / "edge.mckp"
        path.write_text(write_instance(Instance([[(1e308, 1e308)], [(1e308, 1e308)]], 1)))
        env = dict(os.environ, PYTHONPATH=str(Path(mckp.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "mckp.cli", "solve", str(path)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == "error: sums too large for floats: profit inf, cost inf\n"

    def test_internal_guard_exit_code(self, appendix_file, capsys, monkeypatch):
        def limit(instance):
            raise BisectionLimitError("no convergence within 200 bisection steps")

        monkeypatch.setattr(cli, "bissa", limit)
        assert main(["solve", str(appendix_file)]) == 1
        assert capsys.readouterr().err == "error: no convergence within 200 bisection steps\n"

    def test_invalid_config_exit_code(self, appendix_file, capsys):
        for flag, value in [("--rho", "0"), ("--rho", "nan"), ("--rho", "inf"), ("--eps", "nan")]:
            assert main(["solve", str(appendix_file), flag, value]) == 2
            assert flag[2:] in capsys.readouterr().err


class TestExact:
    def test_dp_on_integer_instance(self, tmp_path, capsys):
        path = tmp_path / "int.mckp"
        path.write_text("MCKP 1\nm=2 b=4\ncat 2\n2 2\n3 3\ncat 2\n4 2\n2 1\n", encoding="utf-8")
        assert main(["exact", str(path)]) == 0
        out = capsys.readouterr().out
        assert "profit: 6" in out
        assert "method: dp" in out

    def test_brute_on_fractional_instance(self, appendix_file, capsys):
        assert main(["exact", str(appendix_file), "--method", "brute"]) == 0
        out = capsys.readouterr().out
        assert "profit: 6" in out
        assert "method: brute" in out

    def test_dp_on_fractional_costs_exits_4(self, appendix_file, capsys):
        assert main(["exact", str(appendix_file), "--method", "dp"]) == 4
        assert "error" in capsys.readouterr().err

    def test_dp_ignores_fractional_dominated_costs(self, tmp_path, capsys):
        # (0, 1.5) is dominated by (1, 1), so the dynamic program never reads it
        inst = Instance([[(1, 1), (0, 1.5)], [(2, 3), (5, 4)]], 5)
        path = tmp_path / "dominated.mckp"
        path.write_text(write_instance(inst), encoding="utf-8")
        assert main(["exact", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"profit: {brute_force(inst).optimum_profit:g}\n" in out
        assert "method: dp" in out

    def test_dp_fits_after_reduction(self, tmp_path, capsys):
        # The full-width table (about 3e8 cells x 41 rows) exceeds the
        # guard; the reduced one is 501 cells wide, so this exits 0, not 4.
        lines = ["MCKP 1", "m=41 b=300000500"]
        lines += ["cat 2", "0 0", "20000000 10000000"] * 30
        lines += ["cat 2", "0 0", "1 10000000"] * 10
        lines += ["cat 2", "0 0", "1000 1000"]
        path = tmp_path / "wide.mckp"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["exact", str(path)]) == 0
        out = capsys.readouterr().out
        assert "selection: " + " ".join(["1"] * 30 + ["0"] * 11) in out
        assert "profit: 6e+08" in out

    def test_dp_fits_in_the_core(self, tmp_path, capsys):
        # The table over the rows within the walk's bound, 5,002 categories
        # x 502,501 cells, exceeds the guard, so this used to exit 4. The
        # core keeps two categories of two rows and decides the optimum.
        inst, optimum, selection = walk_gap_instance()
        path = tmp_path / "walk-gap.mckp"
        path.write_text(write_instance(inst), encoding="utf-8")
        assert main(["exact", str(path)]) == 0
        out = capsys.readouterr().out
        assert out == (
            f"selection: {' '.join(map(str, selection))}\nprofit: {optimum}\nmethod: dp\n"
        )

    def test_dp_profit_past_2_pow_63(self, tmp_path, capsys):
        # The optimum 2**63 + 2**11 does not fit an int64 table.
        inst = Instance(
            (((2.0**62, 1), (2.0**62 + 2**11, 2)), ((2.0**62, 1), (1, 0))), budget=3.0
        )
        path = tmp_path / "huge.mckp"
        path.write_text(write_instance(inst), encoding="utf-8")
        assert main(["exact", str(path)]) == 0
        assert "profit: 9.22337e+18" in capsys.readouterr().out

    def test_dp_on_costs_summing_past_2_pow_53_exits_4(self, tmp_path, capsys):
        # solve and brute both find profit 3 by evaluate's float sums
        inst = Instance((((3, 2**53 - 1),), ((0, 2**52 - 2),)), 3 * 2**52 - 4)
        path = tmp_path / "wide-costs.mckp"
        path.write_text(write_instance(inst), encoding="utf-8")
        assert main(["exact", str(path)]) == 4
        assert "past 2**53" in capsys.readouterr().err
        assert main(["exact", str(path), "--method", "brute"]) == 0
        assert "profit: 3\n" in capsys.readouterr().out
        assert main(["solve", str(path)]) == 0
        assert "profit: 3\n" in capsys.readouterr().out

    def test_guard_exit_code(self, tmp_path):
        lines = ["MCKP 1", "m=8 b=100"]
        for _ in range(8):
            lines.append("cat 10")
            lines.extend("1 1" for _ in range(10))
        path = tmp_path / "big.mckp"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["exact", str(path), "--method", "brute"]) == 4


class TestDeepInstance:
    """1,503 categories and eight selections: ``solve`` and ``exact --method
    brute`` used to exit 1 with ``RecursionError`` here."""

    @pytest.fixture
    def deep_file(self, tmp_path):
        path = tmp_path / "deep.mckp"
        path.write_text(write_instance(deep_instance()), encoding="utf-8")
        return path

    def test_solve(self, deep_file, capsys):
        assert main(["solve", str(deep_file)]) == 0
        lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        # certify decides: true exactly when the profit is the optimum, 1510
        assert lines["certificate"] == ("true" if lines["profit"] == "1510" else "false")

    def test_brute_equals_dp(self, deep_file, capsys):
        assert main(["exact", str(deep_file), "--method", "brute"]) == 0
        brute = capsys.readouterr().out
        assert brute == f"selection: {'0 ' * 1501}1 1\nprofit: 1510\nmethod: brute\n"
        assert main(["exact", str(deep_file)]) == 0
        assert "\nprofit: 1510\nmethod: dp\n" in capsys.readouterr().out


class TestSpecfile:
    def test_parse(self):
        text = "# comment\nm=3 n=4 corr=uncorr seed=9\n\nm=2 n=2 corr=weak seed=1 budget_ratio=0.25\n"
        specs = parse_specfile(text)
        assert len(specs) == 2
        assert specs[0].m == 3 and specs[0].seed == 9
        assert specs[1].budget_ratio == 0.25

    @pytest.mark.parametrize("corr", list(Correlation))
    def test_every_family_reaches_gen_and_spec_files(self, corr, tmp_path):
        assert parse_specfile(f"m=2 n=3 corr={corr.value} seed=5\n")[0].correlation is corr
        out = tmp_path / "family.mckp"
        argv = ["gen", "--m", "2", "--n", "3", "--corr", corr.value, "--seed", "5"]
        assert main(argv + ["-o", str(out)]) == 0
        assert read_instance(out.read_text()) == generate(GenSpec(2, 3, corr, 5))

    @pytest.mark.parametrize(
        "text",
        [
            "m=3 n=4 corr=nope seed=9\n",
            "m=3 n=4 seed=9\n",
            "m=3 n=4 corr=weak seed=9 extra=1\n",
            "m=three n=4 corr=weak seed=9\n",
            "just words\n",
            "",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(InstanceFormatError):
            parse_specfile(text)


class TestBench:
    def test_end_to_end(self, tmp_path, capsys):
        spec = tmp_path / "specs.txt"
        spec.write_text(
            "m=3 n=3 corr=uncorr seed=1\nm=4 n=2 corr=weak seed=2\n", encoding="utf-8"
        )
        out = tmp_path / "report.csv"
        assert main(["bench", "--spec", str(spec), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.splitlines()[0].startswith("id,m,n,corr,seed,exact")
        assert len(text.splitlines()) == 3
        stdout = capsys.readouterr().out
        assert "wrote" in stdout

    def test_bad_specfile_exits_2(self, tmp_path):
        spec = tmp_path / "specs.txt"
        spec.write_text("m=3 corr=uncorr seed=1\n", encoding="utf-8")
        assert main(["bench", "--spec", str(spec), "--out", str(tmp_path / "r.csv")]) == 2


class TestOneFrontierViewPerInstance:
    """Every layer reads the instance's ``frontier_view``, its only frontier,
    so a command builds the view of its instance once."""

    @staticmethod
    def count_views(monkeypatch):
        calls = []
        real = model._frontier_view

        def counting(profits, costs, starts):
            calls.append(starts)
            return real(profits, costs, starts)

        monkeypatch.setattr(model, "_frontier_view", counting)
        return calls

    def test_solve(self, tmp_path, monkeypatch, capsys):
        inst = generate(GenSpec(m=6, n=8, correlation=Correlation.WEAK, seed=3))
        path = tmp_path / "w.mckp"
        path.write_text(write_instance(inst), encoding="utf-8")
        calls = self.count_views(monkeypatch)
        assert main(["solve", str(path)]) == 0
        # bissa, kissa and certify all ran on the instance
        assert "termination: budget-blocked" in capsys.readouterr().out
        assert len(calls) == 1 and calls[0].tolist() == inst.starts.tolist()

    def test_bench_row(self, tmp_path, monkeypatch, capsys):
        spec = tmp_path / "specs.txt"
        spec.write_text("m=20 n=20 corr=weak seed=3\n", encoding="utf-8")
        out = tmp_path / "report.csv"
        calls = self.count_views(monkeypatch)
        assert main(["bench", "--spec", str(spec), "--out", str(out)]) == 0
        row = dict(zip(*csv.reader(io.StringIO(out.read_text()))))
        # dp_solve, bissa and kissa all ran on the generated instance
        assert row["exact"] and row["kissa"] and row["ms_kissa"] != "0.000"
        assert len(calls) == 1 and len(calls[0]) == 21


class TestParsedOnce:
    """``mckp solve`` and ``mckp exact`` read the flat view that
    ``read_instance`` fills and never build ``Instance.categories``."""

    @pytest.mark.parametrize(
        "command, options",
        [
            ("solve", []),
            ("solve", ["--trace"]),
            ("solve", ["--rule", "first"]),
            ("solve", ["--rule", "best-slack"]),
            ("exact", []),
        ],
    )
    def test_categories_never_built(self, weak_file, monkeypatch, capsys, command, options):
        read = []
        real = cli.read_instance

        def recording(data):
            read.append(real(data))
            return read[-1]

        monkeypatch.setattr(cli, "read_instance", recording)
        assert main([command, str(weak_file), *options]) == 0
        out = capsys.readouterr().out
        (inst,) = read
        assert "frontier_view" in vars(inst)  # the solve layers ran on it
        assert "categories" not in vars(inst)
        if command == "solve":
            # BISSA proves nothing here, so KISSA and certify ran too
            assert "certificate: false" in out and "improvements: 0" not in out


class TestParserBuiltOnce:
    """``main`` builds its argument parser once per process, and a parse
    leaves nothing behind for the next one."""

    def test_one_build_across_subcommands(self, tmp_path, appendix_file, capsys):
        # the cache counts each run of the parser's body as a miss
        cli.build_parser.cache_clear()
        out = str(tmp_path / "g.mckp")
        assert main(["gen", "--m", "3", "--n", "3", "--corr", "weak", "--seed", "1",
                     "-o", out]) == 0
        assert main(["solve", out, "--rule", "first"]) == 0
        assert main(["exact", str(appendix_file), "--method", "brute"]) == 0
        assert main(["solve", str(appendix_file)]) == 0
        with pytest.raises(SystemExit):
            main(["exact", str(appendix_file), "--method", "simplex"])
        assert main(["exact", out]) == 0
        assert cli.build_parser.cache_info().misses == 1

    def test_no_option_leaks_into_the_next_parse(self, weak_file, capsys):
        # on this instance the two rules end at different profits
        sequence = (
            ["solve", str(weak_file), "--rule", "first"],
            ["solve", str(weak_file)],
            ["solve", str(weak_file), "--trace", "--rule", "best-slack"],
            ["solve", str(weak_file)],
        )
        in_process = []
        for argv in sequence:
            assert main(argv) == 0
            in_process.append(capsys.readouterr().out)
        env = dict(os.environ, PYTHONPATH=str(Path(mckp.__file__).parents[1]))
        fresh = [
            subprocess.run(
                [sys.executable, "-m", "mckp.cli", *argv],
                capture_output=True, text=True, env=env, check=True,
            ).stdout
            for argv in sequence[:3]
        ]
        assert in_process == [*fresh, fresh[1]]
        assert in_process[0] != in_process[1]
