"""The benchmark's own tests: ``python3 -m pytest perfbench -q`` from the repo root.

Tiny inputs only; they check the output contract and that the correctness
gate is live, not performance.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from entrange import EntropySummary, Exact1DIndex, ExactNDIndex  # noqa: E402

from perfbench import metrics, workloads  # noqa: E402
from perfbench.reference import NOMINAL_S, Clock  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_spec_matches_code():
    assert WORKLOADS == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == metrics.GATED
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == metrics.LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        printed = {line.split()[0] for line in lines[:-1]}
        assert set(metrics.REPORT) <= printed


def shifted(method):
    def query(self, *args, **kwargs):
        s = method(self, *args, **kwargs)
        return EntropySummary(s.kind, s.count, s.value + 1e-3)
    return query


@pytest.mark.parametrize("workload, cls", [("exact-1d", Exact1DIndex),
                                           ("region-2d", ExactNDIndex)])
def test_gate_catches_shifted_answers(workload, cls, monkeypatch, tmp_path):
    ctx = workloads.run(workload, 5, 0.1, False, tmp_path, "tiny")
    assert ctx.failed == 0
    monkeypatch.setattr(cls, "query", shifted(cls.query))
    ctx = workloads.run(workload, 5, 0.1, False, tmp_path, "tiny")
    assert workloads.report(ctx)["error_frac"][0] > 0


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("job"):
        with tracer.span("call"):
            pass
        with tracer.span("call"):
            pass
    totals = tracer.totals()
    calls, total, self_s = totals["job"]
    child_total = totals["call"][1]
    assert calls == 1 and totals["call"][0] == 2
    assert self_s == pytest.approx(total - child_total)
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]


def test_clock_scales_by_the_reference_loop():
    clock = Clock()
    out, wall, scaled = clock.timed(lambda: sum(range(1000)))
    before, after = clock.loops[-2:]
    assert out == 499500
    assert scaled == pytest.approx(wall * NOMINAL_S / (0.5 * (before + after)))
