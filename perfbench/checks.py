"""Running ``mckp solve`` and ``mckp exact`` and checking what they print.

An operation fails when its exit code is nonzero, its output cannot be
parsed, its selection is invalid or over budget, a printed profit or cost
differs from ``evaluate`` of the printed selection, a solve's profit is above
the optimum, or a solve prints ``certificate: true`` below the optimum.
``Runner`` makes the calls and tallies the failures against the attempts.
"""

import contextlib
import io
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

from mckp import Instance, MCKPError, evaluate, is_feasible


@dataclass(frozen=True)
class Outcome:
    """One operation's result: what it printed and what the check found."""

    code: int
    stdout: str
    profit: float | None = None  # evaluate() of the printed selection
    certificate: bool = False
    error: str | None = None  # why the operation failed; None when it passed


def _fields(stdout: str) -> dict[str, str]:
    fields = {}
    for line in stdout.splitlines():
        if line.startswith("#") or ":" not in line:
            continue
        key, value = line.split(":", 1)
        fields[key.strip()] = value.strip()
    return fields


def check_output(instance: Instance, code: int, stdout: str, op: str) -> Outcome:
    """Check the printed selection of one operation against the instance.

    ``op`` is ``"solve"`` or ``"exact"``; exact prints no cost line and no
    certificate.
    """
    if code != 0:
        return Outcome(code, stdout, error=f"exit code {code}")
    fields = _fields(stdout)
    try:
        selection = tuple(int(tok) for tok in fields["selection"].split())
        printed_profit = fields["profit"]
        printed_cost = fields["cost"] if op == "solve" else None
        certificate = op == "solve" and {"true": True, "false": False}[fields["certificate"]]
    except (KeyError, ValueError) as exc:
        return Outcome(code, stdout, error=f"unparsable output ({exc!r})")
    try:
        point = evaluate(instance, selection)
    except MCKPError as exc:
        return Outcome(code, stdout, error=f"invalid selection ({exc})")
    profit, cost = point.f1, -point.f2
    if not is_feasible(instance, selection):
        return Outcome(code, stdout, profit, certificate, "selection over budget")
    if printed_profit != f"{profit:g}":
        return Outcome(code, stdout, profit, certificate, "printed profit differs from evaluate")
    if printed_cost is not None and printed_cost != f"{cost:g}":
        return Outcome(code, stdout, profit, certificate, "printed cost differs from evaluate")
    return Outcome(code, stdout, profit, certificate)


def against_optimum(solve: Outcome, optimum: float) -> Outcome:
    """Fail a passing solve whose profit is above the optimum, or which
    claims a certificate below it."""
    if solve.error is not None:
        return solve
    if solve.profit > optimum:
        return replace(solve, error="solve profit above the optimum")
    if solve.certificate and solve.profit < optimum:
        return replace(solve, error="false certificate")
    return solve


class Runner:
    """Runs CLI operations, checks their outputs and keeps the tallies."""

    def __init__(self, cli, stored):
        self.cli = cli
        self.stored = stored
        self.attempted = 0
        self.failures = Counter()
        # per instance index: ((solve code, stdout), (exact code, stdout)) -> outcomes
        self.verdicts: dict[int, tuple] = {}
        self.first: dict[int, tuple] = {}  # first checked outcomes per instance

    def op(self, command: str, path: Path) -> tuple[int, str, float]:
        """One CLI call: exit code, captured stdout, wall seconds."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main([command, str(path)])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) and exc.code else 2
            except Exception:  # a crash is a failed operation, not a failed run
                code = -1
                traceback.print_exc()
            seconds = time.perf_counter() - t0
        if code != 0:
            print(f"{command} {path.name}: exit {code}: {err.getvalue().strip()[-500:]}", file=sys.stderr)
        return code, out.getvalue(), seconds

    def record(self, k: int, solve: tuple[int, str], exact: tuple[int, str]) -> None:
        """Check one solve/exact pair of instance ``k`` and tally it.

        Outputs identical to ones already checked reuse that verdict.
        """
        key = (solve, exact)
        cached = self.verdicts.get(k)
        if cached is None or cached[0] != key:
            outcomes = self._check(k, solve, exact)
            self.verdicts[k] = (key, outcomes)
            self.first.setdefault(k, outcomes)
        self.attempted += 2
        for outcome in self.verdicts[k][1]:
            if outcome.error is not None:
                self.failures[outcome.error] += 1

    def _check(self, k, solve, exact):
        instance = self.stored[k].instance()
        exact_out = check_output(instance, *exact, "exact")
        solve_out = check_output(instance, *solve, "solve")
        if exact_out.error is None:
            solve_out = against_optimum(solve_out, exact_out.profit)
        return solve_out, exact_out

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def quality(self) -> tuple[float, float]:
        """(mean gap %, share of suboptimal solves) over the checked instances
        with a known optimum."""
        gaps = [
            100.0 * (exact.profit - solve.profit) / exact.profit
            for solve, exact in self.first.values()
            if exact.error is None and solve.profit is not None
        ]
        if not gaps:
            raise RuntimeError("no instance has both a solve profit and an optimum")
        return statistics.fmean(gaps), sum(g > 0 for g in gaps) / len(gaps)
