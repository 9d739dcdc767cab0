"""The benchmark's own tests (toy-size inputs; run in seconds).

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import workloads
from perfbench.harness import END_TO_END, REFERENCE_PROBE_S, per_unit, rescale, run_workload, tail_percentile
from perfbench.tracing import LAYER_METRICS
from perfbench.workloads import SMOKE, WORKLOADS, UnitRecord

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def smoke(name, trace, seed=3):
    return run_workload(name, seed, 0.2, trace, root=ROOT, scale=SMOKE)["result"]


class TestDeclaration:
    def test_metric_names_units_and_sets(self):
        spec = declared()
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        assert len(names) == len(set(names))
        for name in names:
            assert NAME.match(name), name
        for m in spec["end_to_end"] + spec["per_layer"]:
            assert UNIT.match(m["unit"]), m
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
        assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
        assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


class TestTailPercentile:
    @pytest.mark.parametrize(
        "n, expected",
        [(100, 90), (1000, 90), (99, 75), (40, 75), (39, 50), (20, 50)],
    )
    def test_highest_percentile_with_ten_beyond(self, n, expected):
        tail = tail_percentile([float(x) for x in range(1, n + 1)])
        assert tail["percentile"] == expected
        assert tail["beyond"] >= 10
        assert tail["samples"] == n
        # nearest rank on 1..n is the rank itself
        assert tail["value"] == math.ceil(expected / 100 * n)

    def test_small_sample_falls_back_to_median(self):
        tail = tail_percentile([5.0, 1.0, 3.0])
        assert tail["percentile"] == 50 and tail["value"] == 3.0


class TestTiming:
    def _unit(self, *segments):
        return UnitRecord(index=0, seconds=sum(b - a for a, b in segments), segments=list(segments))

    def test_rescale_uses_the_probes_on_either_side_of_each_stretch(self):
        ref = REFERENCE_PROBE_S
        # the reference speed, then half of it, then the reference again
        probes = [(0.0, ref), (1.0, 2 * ref), (2.0, ref), (3.0, ref)]
        # one unit with a probe callback from 1.0 to 1.1 between two stretches
        split, whole = self._unit((0.1, 1.0), (1.1, 2.0)), self._unit((2.1, 2.9))
        factors = rescale([split, whole], probes)
        # each stretch runs between a probe at full and one at half speed
        assert split.seconds == pytest.approx(1.8 * 0.75)
        assert whole.seconds == pytest.approx(0.8) and factors == pytest.approx([0.75, 1.0])

    def test_sweep_probes_between_runner_tasks_outside_its_time(self):
        report = run_workload("sweep", 3, 0.2, False, root=ROOT, scale=SMOKE)
        units = report["unit_seconds"]
        # one probe before the first unit, one after each unit, and one
        # after each unit's single runner task
        assert report["speed_factor"]["probes"] == 1 + 2 * len(units)
        for _, _, raw, _, stretches in units:
            assert len(stretches) == 2
            (a, b), (c, d) = stretches
            assert a < b < c < d  # the probe ran between b and c
            assert raw == pytest.approx((b - a) + (d - c))

    def test_per_unit_takes_the_lower_quartile_over_passes(self):
        records = [UnitRecord(index=i % 2, pass_index=i // 2, seconds=s)
                   for i, s in enumerate([1.0, 5.0, 9.0, 6.0, 2.0, 7.0])]
        # passes of unit 0: 1, 9, 2; of unit 1: 5, 6, 7; unit 2 never ran
        assert per_unit(records, 3)[:2] == [1.5, 5.5]
        assert math.isnan(per_unit(records, 3)[2])
        assert per_unit(records[:1], 1) == [1.0]


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_emits_every_declared_metric(name, trace):
    """Every workload emits every declared metric, with its unit."""
    spec = declared()
    table = spec["per_layer"] if trace else spec["end_to_end"]
    result = smoke(name, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in table}
    for m in table:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


def test_traced_sweep_sees_runner_and_lane():
    report = run_workload("sweep", 3, 0.2, True, root=ROOT, scale=SMOKE)
    assert report["trace_detail"]["accounted"]
    assert report["trace_detail"]["missing_hooks"] == []
    metrics = report["result"]["metrics"]
    assert metrics["lane.episodes"]["value"] > 0
    assert metrics["runner.tasks"]["value"] > 0
    assert metrics["runner.payload_bytes"]["value"] > 0


# -- corrupted outputs are counted as failed units --------------------------


def _corrupt_learn(out):
    del out.plan.assignment[next(iter(out.plan.assignment))]


def _corrupt_qtable(out):
    out.qtable_json = out.qtable_json.replace("0", "1", 1)


def _corrupt_pipeline(out):
    out.execution.records.append(out.execution.records[0])


def _corrupt_sweep(out):
    cell = next(iter(out.records.values()))[0]
    cell.result.episodes[-1].makespan += 1.0


def _corrupt_serve(out):
    import dataclasses

    out.jobs[0] = dataclasses.replace(out.jobs[0], failed=True)


@pytest.mark.parametrize(
    "name, corrupt, every_unit",
    [
        ("learn", _corrupt_learn, False),
        ("learn", _corrupt_qtable, True),  # caught only by the reference check
        ("pipeline", _corrupt_pipeline, False),
        ("sweep", _corrupt_sweep, False),
        ("serve", _corrupt_serve, False),
    ],
)
def test_corrupted_output_counts_as_failed(monkeypatch, name, corrupt, every_unit):
    base = WORKLOADS[name]

    class Corrupted(base):
        def run_unit(self, i):
            out = super().run_unit(i)
            if every_unit or i == 0:
                corrupt(out)
            return out

    monkeypatch.setitem(WORKLOADS, name, Corrupted)
    result = run_workload(name, 3, 0.2, False, root=ROOT, scale=SMOKE)["result"]
    assert result["failed"] >= 1 and not result["correct"]


def test_serve_rerun_mismatch_counts_as_failed(monkeypatch):
    class Drifting(WORKLOADS["serve"]):
        def record(self, i, output):
            rec = super().record(i, output)
            rec.sample = "0" * 64
            return rec

    monkeypatch.setitem(WORKLOADS, "serve", Drifting)
    result = run_workload("serve", 3, 0.2, False, root=ROOT, scale=SMOKE)["result"]
    assert result["failed"] >= 1 and not result["correct"]


def test_output_differing_between_passes_counts_as_failed(monkeypatch):
    calls = []

    class Drifting(WORKLOADS["pipeline"]):
        def run_unit(self, i):
            out = super().run_unit(i)
            calls.append(i)
            if i == 0 and calls.count(0) == 2:  # unit 0 of the second pass
                out.simulated_makespan += 1.0
            return out

    monkeypatch.setitem(WORKLOADS, "pipeline", Drifting)
    report = run_workload("pipeline", 3, 0.2, False, root=ROOT, scale=SMOKE)
    assert report["result"]["failed"] == 1 and not report["result"]["correct"]
    index, pass_index, _ = report["failures"][0]
    assert (index, pass_index) == (0, 1)


def test_raising_unit_counts_as_failed(monkeypatch):
    class Raising(WORKLOADS["learn"]):
        def run_unit(self, i):
            if i == 1:
                raise RuntimeError("boom")
            return super().run_unit(i)

    monkeypatch.setitem(WORKLOADS, "learn", Raising)
    report = run_workload("learn", 3, 0.2, False, root=ROOT, scale=SMOKE)
    # unit 1 raises in every pass, and only unit 1 fails
    ones = sum(1 for index, *_ in report["unit_seconds"] if index == 1)
    result = report["result"]
    assert ones >= SMOKE.min_passes["learn"]
    assert result["failed"] == ones and result["attempted"] > ones


# -- the command line -------------------------------------------------------


def test_cli_prints_result_line_last():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve", "--seed", "4",
         "--seconds", "0.2", "--trace", "0", "--smoke", "--out", os.path.join(ROOT, ".perfbench-out", "test")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0


def test_cli_fails_without_library_source(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "learn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_seed_derivation_is_stable():
    assert workloads.derive(1, "learn", 0) == workloads.derive(1, "learn", 0)
    assert workloads.derive(1, "learn", 0) != workloads.derive(2, "learn", 0)
    assert 0 <= workloads.derive(7, "x") < 2**63