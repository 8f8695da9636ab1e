"""Tests of the benchmark harness itself: workload generation, output
checks, boundary wrappers and metric names."""

import json
import re
import sys

import pytest

from checks import Runner, against_optimum, check_output
from mckp import Correlation, GenSpec, Instance, brute_force, read_instance
from run import END_TO_END, PER_LAYER, ROOT
from spans import BOUNDARIES, Boundary, Tracer, patched
from workloads import WORKLOADS, instance_specs, write_instances

# Optimum 7 at selection (0, 1) with cost 4; (1, 0) has profit 11 and cost 8.
INSTANCE = Instance((((2, 1), (6, 5)), ((1, 1), (5, 3))), budget=4)


def _solve_output(selection, profit, cost, certificate):
    return (
        f"selection: {' '.join(map(str, selection))}\n"
        f"profit: {profit}\ncost: {cost}\nimprovements: 0\n"
        f"termination: no-improvement\ncertificate: {certificate}\n"
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_specs_repeat_for_a_seed_and_differ_across_seeds(name):
    workload = WORKLOADS[name]
    assert instance_specs(workload, 7) == instance_specs(workload, 7)
    assert instance_specs(workload, 7) != instance_specs(workload, 8)
    assert len(instance_specs(workload, 7)) == workload.instances


def test_written_files_repeat_for_a_seed(tmp_path):
    specs = instance_specs(WORKLOADS["uncorr-exact"], 3)[:5]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first, _ = write_instances(specs, tmp_path / "a")
    second, times = write_instances(specs, tmp_path / "b")
    assert [s.path.read_bytes() for s in first] == [s.path.read_bytes() for s in second]
    assert times.items == sum(s.items for s in second)
    for stored in second:
        assert stored.instance() == read_instance(stored.path.read_text(encoding="utf-8"))


def test_check_accepts_a_correct_solve():
    outcome = check_output(INSTANCE, 0, _solve_output((0, 1), 7, 4, "true"), "solve")
    assert outcome.error is None
    assert against_optimum(outcome, 7.0).error is None


def test_check_flags_a_false_certificate():
    # (0, 0) is feasible with profit 3, below the optimum 7, yet claims a proof.
    outcome = check_output(INSTANCE, 0, _solve_output((0, 0), 3, 2, "true"), "solve")
    assert outcome.error is None
    assert against_optimum(outcome, 7.0).error == "false certificate"
    uncertified = check_output(INSTANCE, 0, _solve_output((0, 0), 3, 2, "false"), "solve")
    assert against_optimum(uncertified, 7.0).error is None


def test_check_judges_the_programs_own_certificates(tmp_path):
    # Small instances, where certify enumerates. The first is the known
    # false certificate: solve certifies profit 2446, the optimum is 2478.
    # No benchmark workload reaches these, since every operation of a
    # workload must pass; this keeps the check honest on real output.
    import mckp.cli

    specs = [
        GenSpec(m=m, n=n, correlation=Correlation.UNCORRELATED, seed=seed)
        for m, n, seed in ((3, 4, 0), (2, 3, 1), (4, 4, 2), (5, 3, 3))
    ]
    stored, _ = write_instances(specs, tmp_path)
    runner = Runner(mckp.cli, stored)
    for item in stored:
        instance = item.instance()
        code, stdout, _ = runner.op("solve", item.path)
        outcome = check_output(instance, code, stdout, "solve")
        assert outcome.error is None
        optimum = brute_force(instance).optimum_profit
        false_certificate = outcome.certificate and outcome.profit < optimum
        verdict = against_optimum(outcome, optimum)
        assert verdict.error == ("false certificate" if false_certificate else None)


def test_check_flags_an_infeasible_selection():
    outcome = check_output(INSTANCE, 0, _solve_output((1, 0), 11, 8, "false"), "solve")
    assert outcome.error == "selection over budget"
    exact = check_output(INSTANCE, 0, "selection: 1 0\nprofit: 11\nmethod: dp\n", "exact")
    assert exact.error == "selection over budget"


@pytest.mark.parametrize(
    "code, stdout, error",
    [
        (3, "", "exit code 3"),
        (0, _solve_output((0, 1), 8, 4, "false"), "printed profit differs from evaluate"),
        (0, _solve_output((0, 1), 7, 3, "false"), "printed cost differs from evaluate"),
        (0, _solve_output((0, 2), 7, 4, "false"), "invalid selection"),
        (0, "profit: 7\n", "unparsable output"),
    ],
)
def test_check_flags_bad_outputs(code, stdout, error):
    assert check_output(INSTANCE, code, stdout, "solve").error.startswith(error)


def test_check_flags_a_profit_above_the_optimum():
    outcome = check_output(INSTANCE, 0, _solve_output((0, 1), 7, 4, "false"), "solve")
    assert against_optimum(outcome, 6.0).error == "solve profit above the optimum"


def _bound_attributes():
    return {(b.module, b.attr): getattr(sys.modules[b.module], b.attr) for b in BOUNDARIES}


def test_wrappers_restore_every_patched_attribute():
    import mckp.cli  # noqa: F401  loads every boundary module

    before = _bound_attributes()
    tracer = Tracer()
    with patched(tracer):
        during = _bound_attributes()
        assert all(during[key] is not fn for key, fn in before.items())
        assert all(during[key].__wrapped__ is fn for key, fn in before.items())
    assert _bound_attributes() == before
    with pytest.raises(RuntimeError):
        with patched(tracer):
            raise RuntimeError("operation crashed")
    assert all(_bound_attributes()[key] is fn for key, fn in before.items())
    assert not tracer.absent


def test_missing_boundary_is_reported_absent():
    import mckp.cli

    tracer = Tracer()
    gone = Boundary("oracle.gone", "mckp.cli", "no_such_function")
    with patched(tracer, BOUNDARIES[:1] + (gone,)):
        assert mckp.cli.read_instance is not None
    assert tracer.absent == {"oracle.gone"}
    assert not hasattr(mckp.cli, "no_such_function")


def test_spans_nest_and_count():
    import mckp.cli

    tracer = Tracer()
    tracer.key = (0, 0)
    text = "MCKP 1\nm=2 b=4\ncat 2\n2 1\n6 5\ncat 2\n1 1\n5 3\n"
    with patched(tracer), tracer.root("cli.solve"):
        instance = mckp.cli.read_instance(text)
        mckp.cli.bissa(instance)
    names = [s.name for s in tracer.spans]
    assert names[:3] == ["cli.solve", "model.read_instance", "bissa"]
    assert set(names[3:]) == {"bissa.solve_linear"}
    assert all(s.parent == 2 for s in tracer.spans[3:])
    assert tracer.spans[1].counts == {"items": 4}
    assert tracer.spans[2].counts["probes"] == len(names) - 3


METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_match_the_allowed_pattern():
    for name in [*END_TO_END, *PER_LAYER]:
        assert METRIC_NAME.fullmatch(name), name


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == table
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
