"""Fast self-test of the benchmark: every workload at tiny size.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import compare    # noqa: E402
import reference  # noqa: E402
import run        # noqa: E402
import spans      # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDED = [n for n in workloads.NAMES if n != "certify"]   # certify has no inputs to draw


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_run_reports_every_metric(name, traced):
    result = run.measure(name, 1, 0.05, traced, tiny=True)
    wanted = BENCHMARK["per_layer" if traced else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    assert result["correct"]
    assert result["attempted"] >= 1
    pool, _ = workloads.generate(name, 1, tiny=True)
    known = sum("hostile" in s or s.get("edge") == "N=3" for s in pool)
    # hostile inputs fail only where the CLI raises instead of exiting 2
    assert result["failed"] <= known * result["settings"]["rounds"]


def test_benchmark_json_lists_the_metrics_the_code_reports():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == \
        spans.metric_specs()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)
    assert set(run.UNITS) == {m["name"] for m in BENCHMARK["end_to_end"]}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_sequence(name):
    assert workloads.generate(name, 7, tiny=True) == workloads.generate(name, 7, tiny=True)
    assert workloads.generate(name, 7) == workloads.generate(name, 7)


@pytest.mark.parametrize("name", SEEDED)
def test_other_seed_other_inputs(name):
    assert workloads.generate(name, 7)[0] != workloads.generate(name, 8)[0]
    assert workloads.generate(name, 7, tiny=True)[0] != workloads.generate(name, 8, tiny=True)[0]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_pool_mix_does_not_depend_on_seed(name):
    mix = [workloads.describe(name, workloads.generate(name, s)[0], False) for s in (1, 2)]
    assert mix[0] == mix[1]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_checks_reject_a_corrupted_output(name):
    workdir = HERE / "_work" / f"selftest-{name}"
    try:
        _, pool, order, calls = run.setup(name, 3, True, workdir)
        first = run.run_round(run.Pass(), calls, pool, order).first
    finally:
        run.remove_workdir(workdir)
    i = next(i for i, rec in first.items()
             if "hostile" not in pool[i] and not workloads.is_error(pool[i], rec))
    rec = first[i]
    assert run.bad_indices(name, pool, {i: rec}, None) == (set(), set())
    j = len(rec.data.rstrip()) - 1
    bad = workloads.Record(rec.data[:j] + bytes([rec.data[j] ^ 1]) + rec.data[j + 1:], rec.err)
    assert run.bad_indices(name, pool, {i: bad}, None) == (set(), {i})


def test_tracer_replaces_every_binding():
    run.import_library()
    tracer = spans.Tracer()
    originals = {name: getattr(sys.modules[f"nottingham.{layer}"], name)
                 for layer, names in spans.FUNCTIONS.items() for name in names}
    tracer.install("nottingham")
    try:
        for module in [m for n, m in sys.modules.items() if n.startswith("nottingham")]:
            for value in vars(module).values():
                held = value.values() if isinstance(value, dict) else [value]
                assert not any(v is o for v in held for o in originals.values())
    finally:
        tracer.uninstall()
    assert sys.modules["nottingham.cli"].run is originals["run"]


def test_compare_verdicts():
    faster = {"better": "higher", "bound": 0.25}
    parent = [100.0 + i for i in range(10)]
    assert compare.verdict(faster, parent, [x * 1.3 for x in parent], False)[0] == "gain"
    assert compare.verdict(faster, parent, [x * 1.3 for x in parent], True)[0] == "gain?"
    assert compare.verdict(faster, parent, [x * 0.7 for x in parent], False)[0] == "REGRESSION"
    assert compare.verdict(faster, parent, parent, False)[0] == "same"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(faster, noisy, noisy[::-1], False)[0] == "unresolved"


def test_reference_scales_by_the_probes_around_an_interval():
    ref = reference.Reference()
    ref.times = [0.0, 0.1, 5.0, 5.1, 9.0]
    nominal = reference.NOMINAL_S
    ref.slices = [nominal, nominal, 2 * nominal, 2 * nominal, nominal]
    assert ref.scale(0.2, 0.3) == 1.0          # probes at 0.0 and 0.1, and 5.0 after
    assert ref.scale(5.2, 5.3) == 0.5          # a half-speed machine halves the time
    # no probe within 1 s: the nearest on each side, at full and half speed
    assert ref.scale(2.0, 3.0) == pytest.approx(1 / 1.5)


def test_entry_median_counts_failures_as_slow():
    executed = [0, 1, 2, 0, 1, 2]
    latencies = [1.0, 5.0, 3.0, 1.2, 5.2, 3.1]
    assert run.entry_median(executed, latencies, [False] * 6) == 3.05
    failed = [False, True, False, False, True, False]
    assert run.entry_median(executed, latencies, failed) == 3.05
    assert run.entry_median(executed, latencies, [True, False, False] * 2) == 5.1
