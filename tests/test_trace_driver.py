"""The benchmark's trace driver still finds and reads what it traces, and
its checker still flags corrupted reports."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nasharcs.generators import an_graph
from nasharcs.graph import serialize_graph
from builders import e6_graph

ROOT = Path(__file__).resolve().parent.parent


def _trace(tmp_path, argv):
    """Run the CLI under the trace driver; return its exit code and span document."""
    spans = tmp_path / "spans.json"
    src = ROOT / "src"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_driver.py"), str(spans),
         str(src), "--", *argv, "--out", str(tmp_path / "out.json")],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc, json.loads(spans.read_text())


def _graph_file(tmp_path, g):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(serialize_graph(g)))
    return str(path)


def test_trace_driver_runs_analyze(tmp_path):
    proc, doc = _trace(tmp_path, ["analyze", _graph_file(tmp_path, e6_graph())])
    assert proc.returncode == 0, proc.stderr
    assert doc["exit"] == 0
    assert doc["missing"] == []
    # the benchmark's cli.emit_s layer is the time inside these spans
    assert [span for span in doc["spans"] if span[0] == "cli.emit"]
    assert doc["counts"]["cycles.ray_max_bits"] > 0


# the other benchmark workloads' commands, with the spans their layer times come from
WORKLOAD_COMMANDS = [
    (lambda tmp: ["certify-minimal", _graph_file(tmp, an_graph(4))],
     ["classify.decompose_minimal", "classify.contracts_to_empty"]),
    (lambda tmp: ["an-arcs", "--n", "4", "--family", "1", "--against", "3",
                  "--samples", "2"],
     ["arcs.sample_arc", "arcs.separation_check"]),
]


@pytest.mark.parametrize("argv, recorded", WORKLOAD_COMMANDS, ids=["certify_minimal", "an_arcs"])
def test_trace_driver_runs_every_workload_command(argv, recorded, tmp_path):
    proc, doc = _trace(tmp_path, argv(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert doc["exit"] == 0
    assert doc["missing"] == []
    names = {span[0] for span in doc["spans"]}
    assert all(name in names for name in recorded)


def test_benchmark_self_test_passes():
    # runs the first job of each workload through the real CLI, then checks
    # that the benchmark's checker flags each corrupted copy of its report
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "self-test passed"
