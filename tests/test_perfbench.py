"""The traced benchmark still runs: perfbench looks up ocselect functions by name."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their module through sys.modules.
    monkeypatch.setitem(sys.modules, "spans", module)
    spec.loader.exec_module(module)
    return module


def test_traced_mixture_command_summarizes(tmp_path, monkeypatch):
    # summarize() indexes spans by qualified name (policies.randomized_value,
    # policies.tvd_exact, simplex.simplex_solve, ...) and raises KeyError
    # when one of them is no longer a public function of its module.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    spans_path = tmp_path / "spans.npz"
    out = tmp_path / "mixture.csv"
    argv = ["eval", "--policy", "tvd-rand-732", "--instance", str(ROOT / "data" / "four_box.json")]
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), str(tmp_path / "stamp"), str(spans_path)]
        + argv
        + ["--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    spans = load_spans(monkeypatch)
    totals = spans.summarize([spans_path])
    assert totals.calls["cli.main"] == 1
    assert totals.calls["policies.lane_randomized_values"] >= 1
    metrics = spans.per_layer_metrics(totals, orders=24, overhead_s=0.0)
    assert metrics["policies.calls"] > 0
