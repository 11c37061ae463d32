"""The benchmark honours ``BENCHMARK.json``: names, units, limits, zero failures.

Runs ``python -m bench run --smoke`` (tiny sizes, all four workloads) once
untraced and once traced, side by side, and checks every workload and metric
the contract names appears with its unit.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from bench import spec as spec_module
from bench import stats

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = spec_module.load_spec()


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """``{trace: (records, stdout)}`` of the two smoke invocations."""
    directory = tmp_path_factory.mktemp("bench-smoke")
    children = {}
    for trace in (0, 1):
        out = directory / f"trace{trace}.jsonl"
        children[trace] = (out, subprocess.Popen(
            [sys.executable, "-m", "bench", "run", "--smoke", "--trace", str(trace), "--out", str(out)],
            cwd=spec_module.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ))
    runs = {}
    for trace, (out, child) in children.items():
        try:
            stdout, stderr = child.communicate(timeout=150)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise
        assert child.returncode == 0, f"smoke run failed (trace={trace}):\n{stdout[-2000:]}\n{stderr[-2000:]}"
        runs[trace] = ([json.loads(line) for line in out.read_text().splitlines()], stdout)
    return runs


def test_contract_names_and_limits():
    workloads = spec_module.workload_names(SPEC)
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = workloads + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(names)) == len(names), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for metric in SPEC["end_to_end"]:
        assert 0 <= metric["bound"] <= 0.25
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in SPEC["end_to_end"]
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_reports_every_metric(smoke_runs, trace, section):
    records, stdout = smoke_runs[trace]
    table = spec_module.metric_table(SPEC, section)
    assert [record["workload"] for record in records] == spec_module.workload_names(SPEC)
    for record in records:
        result = record["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, record["workload"]
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == set(table), record["workload"]
        for name, cell in result["metrics"].items():
            assert cell["unit"] == table[name]["unit"]
            assert isinstance(cell["value"], float)
            if section == "end_to_end":
                assert cell["value"] > 0, f"{record['workload']}.{name} is zero"
    # The driver reads the last line of standard output as the result.
    assert json.loads(stdout.strip().splitlines()[-1]) == records[-1]["result"]


def test_percentiles_are_nearest_rank_and_never_above_max():
    samples = [float(value) for value in range(1, 101)]
    assert stats.percentile(samples, 50) == 50.0
    assert stats.percentile(samples, 99) == 99.0
    assert stats.percentile(samples, 100) == max(samples)
    assert stats.percentile([3.0, 1.0], 99) == 3.0
    assert stats.samples_beyond(100, 90) == 10 and stats.tail_supported(100, 90)
    assert not stats.tail_supported(99, 90)
    assert not stats.tail_supported(100, 99)
