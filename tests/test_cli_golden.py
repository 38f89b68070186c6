"""The design gate: deterministic CLI output on ``data/*.json`` stays byte-identical.

``cli_golden.json`` maps each command line (as a JSON list of arguments) to
the stdout, stderr and exit code that ``ocselect`` gave for it.  The test
replays every entry in process, from the repository root, and compares all
three under ``==``.  A change that alters output on purpose rewrites the file
with ``PYTHONPATH=src python tests/test_cli_golden.py`` from the repository
root and says why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from ocselect.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("cli_golden.json")
DATA = ("data/two_box.json", "data/four_box.json")
# Past ENUMERATION_LIMIT boxes, so tvd folds each row's boxes instead of
# reading its set tables.
TWELVE = "data/twelve_box.json"


def commands() -> list[list[str]]:
    out = []
    for path in DATA:
        eval_ = ["eval", "--instance", path, "--policy"]
        out.append([*eval_, "sta", "--tau", "1"])
        for kind in ("tva", "tvd"):
            out += [[*eval_, kind, "--g0", g0] for g0 in ("auto", "opt", "1.5")]
        out += [[*eval_, "tva-rand-656"], [*eval_, "tvd-rand-732"]]
        out.append([*eval_, "tvd", "--orders", "random:50", "--seed", "7"])
        out.append(
            ["simulate", "--instance", path, "--policy", "tvd", "--runs", "20000", "--seed", "4"]
        )
    out += [["hardness", "--lp-step", "0.02"], ["verify-density"]]
    eval_ = ["eval", "--instance", TWELVE, "--policy"]
    # At 9.7, above every one of these orders' optima, tvd switches on all 20.
    for g0 in ("auto", "opt", "9.7"):
        out.append([*eval_, "tvd", "--g0", g0, "--orders", "random:20", "--seed", "3"])
    for mixture in ("tvd-rand-732", "tva-rand-656"):
        out.append([*eval_, mixture, "--orders", "random:5", "--seed", "3"])
    simulate = ["simulate", "--instance", TWELVE, "--policy", "tvd"]
    return [*out, [*simulate, "--runs", "20000", "--seed", "4"]]


def run(argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {"stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "exit": code}


def load() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text())


def test_the_file_covers_every_command():
    assert list(load()) == [json.dumps(argv) for argv in commands()]


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_output_is_unchanged(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run(argv) == load()[json.dumps(argv)]


if __name__ == "__main__":
    os.chdir(ROOT)
    recorded = {json.dumps(argv): run(argv) for argv in commands()}
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
