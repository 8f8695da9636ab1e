"""Command-line interface.

Subcommands:
  gen    write a seeded random instance file
  solve  run the bisection + Chebyshev improvement pipeline on an instance
  exact  run an exact oracle (dynamic program or exhaustive enumeration)
  bench  run a batch of generated instances and write a CSV gap report

Exit codes: 0 ok, 1 internal guard (such as the bisection step limit) or
objective sums too large for floats, 2 parse error (instance/spec file or
usage), 3 infeasible instance, 4 oracle guard or oracle precondition failure.
"""

import argparse
import functools
import sys
from pathlib import Path

from .bench import run_benchmark
from .bissa import bissa
from .generate import Correlation, GenSpec, generate
from .frontier import DEFAULT_RHO
from .kissa import DEFAULT_EPSILON, KissaConfig, SelectionRule, certify, kissa
from .model import (
    InfeasibleInstanceError,
    InstanceFormatError,
    MCKPError,
    evaluate,
    read_instance,
    write_instance,
)
from .oracle import (
    NonIntegerInstanceError,
    OracleGuardError,
    brute_force,
    dp_solve,
)

_CORR = {corr.value: corr for corr in Correlation}
_RULES = {rule.value: rule for rule in SelectionRule}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process: each
    ``parse_args`` call fills a fresh namespace, so one parser serves every
    call."""
    parser = argparse.ArgumentParser(
        prog="mckp", description="Multiple-choice knapsack toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    kissa_options = argparse.ArgumentParser(add_help=False)
    kissa_options.add_argument("--rho", type=float, default=DEFAULT_RHO)
    kissa_options.add_argument("--eps", type=float, default=DEFAULT_EPSILON)
    kissa_options.add_argument("--rule", choices=sorted(_RULES), default="max-profit")

    p = sub.add_parser("gen", help="generate a random instance file")
    p.add_argument("--m", type=int, required=True, help="number of categories")
    p.add_argument("--n", type=int, required=True, help="items per category")
    p.add_argument("--corr", choices=sorted(_CORR), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget-ratio", type=float, default=GenSpec.budget_ratio)
    p.add_argument("-o", "--output", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser(
        "solve", parents=[kissa_options], help="solve an instance file approximately"
    )
    p.add_argument("file")
    p.add_argument("--trace", action="store_true", help="print the search trace")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("exact", help="solve an instance file exactly")
    p.add_argument("file")
    p.add_argument("--method", choices=["dp", "brute"], default="dp")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("bench", parents=[kissa_options], help="run a benchmark batch")
    p.add_argument("--spec", required=True, metavar="SPECFILE")
    p.add_argument("--out", required=True, metavar="CSV")
    p.set_defaults(func=_cmd_bench)
    return parser


def _config(args) -> KissaConfig:
    return KissaConfig(rho=args.rho, epsilon=args.eps, rule=_RULES[args.rule])


def _load_instance(path: str):
    return read_instance(Path(path).read_bytes())


def _cmd_gen(args) -> int:
    spec = GenSpec(
        m=args.m,
        n=args.n,
        correlation=_CORR[args.corr],
        seed=args.seed,
        budget_ratio=args.budget_ratio,
    )
    instance = generate(spec)
    Path(args.output).write_text(write_instance(instance), encoding="utf-8")
    print(f"wrote {args.output}: m={instance.m} n={args.n} budget={instance.budget:g}")
    return 0


def _cmd_solve(args) -> int:
    instance = _load_instance(args.file)
    config = _config(args)
    straddle = bissa(instance)
    if args.trace:
        for step in straddle.trace:
            point = evaluate(instance, step.selection)
            state = "feasible" if step.feasible else "infeasible"
            print(
                f"# weight {step.weight:.9f} -> profit {point.f1:g} "
                f"cost {abs(point.f2):g} ({state})"
            )
    run = kissa(instance, straddle, config)
    if args.trace:
        for it in run.iterations:
            print(
                f"# iter {it.index}: candidates={sorted(it.candidates)} "
                f"gains={sorted(it.gains)} affordable={sorted(it.affordable)} "
                f"chosen={it.chosen} profit={it.objective.f1:g}"
            )
    # certify enumerates; BISSA's proofs need no check
    certificate = straddle.exact or certify(instance, run)
    point = evaluate(instance, run.final)
    print("selection:", " ".join(map(str, run.final)))
    print(f"profit: {point.f1:g}")
    print(f"cost: {abs(point.f2):g}")  # -f2 prints -0 for a free selection
    print(f"improvements: {run.improvements}")
    print(f"termination: {run.termination.value}")
    print(f"certificate: {'true' if certificate else 'false'}")
    return 0


def _cmd_exact(args) -> int:
    instance = _load_instance(args.file)
    solver = dp_solve if args.method == "dp" else brute_force
    result = solver(instance)
    print("selection:", " ".join(map(str, result.optimum_selection)))
    print(f"profit: {result.optimum_profit:g}")
    print(f"method: {result.method.value}")
    return 0


def parse_specfile(text: str) -> list[GenSpec]:
    """One GenSpec per line as space-separated key=value tokens.

    Required keys: m, n, corr, seed; optional: budget_ratio. '#' comments
    and blank lines are skipped.
    """
    specs = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = {}
        for token in line.split():
            if "=" not in token:
                raise InstanceFormatError(f"expected key=value, got {token!r}", no)
            key, value = token.split("=", 1)
            fields[key] = value
        try:
            corr = _CORR[fields.pop("corr")]
            spec = GenSpec(
                m=int(fields.pop("m")),
                n=int(fields.pop("n")),
                correlation=corr,
                seed=int(fields.pop("seed")),
                budget_ratio=float(fields.pop("budget_ratio", GenSpec.budget_ratio)),
            )
        except (KeyError, ValueError) as exc:
            raise InstanceFormatError(f"bad spec line: {exc}", no) from None
        if fields:
            raise InstanceFormatError(f"unknown keys {sorted(fields)}", no)
        specs.append(spec)
    if not specs:
        raise InstanceFormatError("spec file contains no specs", 1)
    return specs


def _cmd_bench(args) -> int:
    specs = parse_specfile(Path(args.spec).read_text(encoding="utf-8"))
    report = run_benchmark(specs, _config(args))
    Path(args.out).write_text(report.to_csv(), encoding="utf-8")
    print(report.to_text(), end="")
    print(f"wrote {args.out} ({len(report.rows)} rows)")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InstanceFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleInstanceError as exc:
        print(f"error: infeasible instance: {exc}", file=sys.stderr)
        return 3
    except (OracleGuardError, NonIntegerInstanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MCKPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
