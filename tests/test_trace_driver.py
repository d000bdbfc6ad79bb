"""The benchmark's trace driver still finds and reads what it traces."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from nasharcs.generators import e6_graph
from nasharcs.graph import serialize_graph

ROOT = Path(__file__).resolve().parent.parent


def test_trace_driver_runs_analyze(tmp_path):
    graph = tmp_path / "e6.json"
    graph.write_text(json.dumps(serialize_graph(e6_graph())))
    spans = tmp_path / "spans.json"
    src = ROOT / "src"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_driver.py"), str(spans),
         str(src), "--", "analyze", str(graph), "--out", str(tmp_path / "out.json")],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text())
    assert doc["exit"] == 0
    assert "cycles.ray_basis" not in doc["missing"]
    assert "order.relation_matrix" not in doc["missing"]
    # the benchmark's cli.emit_s layer is the time inside these spans
    assert "cli.emit" not in doc["missing"]
    assert [span for span in doc["spans"] if span[0] == "cli.emit"]
    assert doc["counts"]["cycles.ray_max_bits"] > 0
