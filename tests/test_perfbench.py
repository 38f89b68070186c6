"""The traced benchmark still runs: perfbench looks up ocselect functions by name."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
FOUR_BOX = str(ROOT / "data" / "four_box.json")
ONE_ORDER_EVALUATORS = ("opt_online", "sta_exact", "tva_exact", "tvd_exact")


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their module through sys.modules.
    monkeypatch.setitem(sys.modules, "spans", module)
    spec.loader.exec_module(module)
    return module


# One command per benchmark workload, with the layer that does its work.
@pytest.mark.parametrize(
    "argv, layer",
    [
        (["eval", "--instance", FOUR_BOX, "--policy", "tvd", "--g0", "auto"], "policies"),
        (["eval", "--instance", FOUR_BOX, "--policy", "tvd-rand-732"], "policies"),
        (
            ["simulate", "--instance", FOUR_BOX, "--policy", "tvd", "--runs", "20000"]
            + ["--seed", "4"],
            "policies",
        ),
        (["hardness"], "simplex"),
        (["verify-density"], "densities"),
    ],
    ids=("enumerate", "mixture", "simulate", "certify-hardness", "certify-verify-density"),
)
def test_traced_mixture_command_summarizes(argv, layer, tmp_path, monkeypatch):
    # summarize() indexes spans by qualified name (policies.randomized_value,
    # policies.tvd_exact, simplex.simplex_solve, ...) and raises KeyError
    # when one of them is no longer a public function of its module.  The
    # commands run lanes, never the one-order evaluators.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    spans_path = tmp_path / "spans.npz"
    out = tmp_path / "out.csv"
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
    if argv[-1] == "tvd-rand-732":
        assert totals.calls["policies.lane_randomized_values"] >= 1
        # The mixture's passes run inside its own span, so the trace charges them to it.
        with np.load(spans_path) as saved:
            names = saved["names"].tolist()
            name, parent = saved["name"], saved["parent"]
        passes = parent[name == names.index("policies.lane_values")]
        assert (name[passes] == names.index("policies.lane_randomized_values")).any()
    assert [totals.calls[f"policies.{name}"] for name in ONE_ORDER_EVALUATORS] == [0] * 4
    metrics = spans.per_layer_metrics(totals, orders=24, overhead_s=0.0)
    assert metrics[f"{layer}.calls"] > 0
