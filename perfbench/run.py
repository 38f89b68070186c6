"""The ocselect benchmark: CLI workloads, checked against reference values.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed list of ``ocselect`` CLI commands on inputs made
from --seed.  A round runs the list once, closed loop: each command is a
fresh Python process started when the previous one has exited.  After every
round the commands' CSV output is checked against values computed apart from
the program (oracle.py).  The number of rounds is fixed by --seconds and the
workload's nominal round length, never by the clock, so every run does whole
rounds of the same work.

--trace 0 runs the rounds untraced and prints the end-to-end metrics, each
the median over rounds; work_per_s is the round's work units divided by
(wall_s - setup_s) of those same medians.  --trace 1 runs one untraced round
and one traced round and prints the per-layer metrics of the traced one
(spans.py); trace.overhead_s is the difference of the two rounds' wall_s.

The last line of stdout is one JSON object: correct, attempted and failed
(operations are CLI commands) and the metrics.  Inputs, CSVs, logs and span
files go to perfbench/out/WORKLOAD/.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from gen import make_instance, workload_rng
from oracle import (
    InstanceOracle,
    density_constants,
    detection_c,
    detection_program,
    general_program,
    max_ratio,
)
from spans import per_layer_metrics, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

COMMAND_TIMEOUT_S = 60
MIN_ROUNDS = 3
# Nominal length of one round on a 2-core machine; rounds = seconds / this.
ROUND_S = {"enumerate": 10.0, "mixture": 4.0, "simulate": 3.6, "certify": 3.2}

REL_TOL = 1e-9
ABS_TOL = 1e-9
MIXTURE_ORDERS = 120
MIXTURE_GAMMA_TOL = 1e-3
SIMULATE_RUNS = 8_000
SIMULATE_MAX_Z = 4.0
LP_STEP = 0.001
DUAL_OBJECTIVES = {"general-dual": 0.8293, "detection-dual": 0.7582}
DUAL_TOL = 1e-3
PRIMAL_TOL = 1e-9
DENSITY_TOL = 1e-9
SCAN_TOL = 1e-6


class CheckFailed(Exception):
    """A command's output disagrees with the reference values."""


@dataclass
class Plan:
    """One workload on one seed."""

    commands: list[list[str]]  # ocselect CLI arguments, one process each
    units: int  # work units in one round
    orders: int  # orders evaluated in one round
    check: Callable[[], None]  # raises CheckFailed on a wrong output
    notes: dict = field(default_factory=dict)  # facts about the inputs


def read_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def instance_file(wdir: Path, payload: dict) -> str:
    path = wdir / "instance.json"
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return str(path)


def check_opt(order_id: str, printed: str, own: float) -> None:
    if not abs(float(printed) - own) <= REL_TOL * own:
        raise CheckFailed(f"{order_id}: opt {printed} but the backward induction gives {own!r}")


def plan_enumerate(seed: int, wdir: Path) -> Plan:
    """All 8! orders of one 8-box instance under tvd, from a middle target.

    g0 sits halfway between the two middle per-order optima, so half of the
    orders are overestimated; on those the target walk must end above the
    value still to come, so tvd switches to its single threshold.
    """
    payload = make_instance(workload_rng("enumerate", seed), boxes=8, atoms=6)
    instance = instance_file(wdir, payload)
    oracle = InstanceOracle(payload)
    opts = {
        "|".join(order): oracle.opt(order)
        for order in itertools.permutations(sorted(oracle.ids))
    }
    ranked = sorted(opts.values())
    g0 = (ranked[len(ranked) // 2 - 1] + ranked[len(ranked) // 2]) / 2.0
    prophet = oracle.prophet()
    robust_floor = max(prophet - g0, g0 / 2.0)
    out = wdir / "eval.csv"

    def check() -> None:
        rows = read_rows(out)
        if len(rows) != len(opts) or {row["order_id"] for row in rows} != opts.keys():
            raise CheckFailed("the rows are not every permutation exactly once")
        for row in rows:
            order_id = row["order_id"]
            own = opts[order_id]
            check_opt(order_id, row["opt"], own)
            value = float(row["value"])
            if value > own * (1.0 + REL_TOL):
                raise CheckFailed(f"{order_id}: value {value!r} above opt {own!r}")
            floor = g0 if g0 <= own else robust_floor
            if value < floor - ABS_TOL:
                raise CheckFailed(f"{order_id}: value {value!r} below its floor {floor!r}")

    command = ["eval", "--instance", instance, "--policy", "tvd", "--g0", repr(g0)]
    command += ["--orders", "all", "--out", str(out)]
    overestimated = sum(g0 > v for v in opts.values())
    notes = {"g0": g0, "prophet": prophet, "overestimated_orders": overestimated}
    return Plan([command], len(opts), len(opts), check, notes)


def plan_mixture(seed: int, wdir: Path) -> Plan:
    """Both randomized mixtures on the same random orders of a 12-box instance."""
    rng = workload_rng("mixture", seed)
    payload = make_instance(rng, boxes=12, atoms=6)
    instance = instance_file(wdir, payload)
    oracle = InstanceOracle(payload)
    order_seed = rng.randrange(2**31)
    gammas = {name: gamma for name, (_, gamma) in density_constants().items()}
    commands = []
    outputs = []
    for policy, density in (("tvd-rand-732", "rho-732"), ("tva-rand-656", "rho-656")):
        out = wdir / f"{policy}.csv"
        commands.append(
            ["eval", "--instance", instance, "--policy", policy]
            + ["--orders", f"random:{MIXTURE_ORDERS}", "--seed", str(order_seed)]
            + ["--out", str(out)]
        )
        outputs.append((out, gammas[density]))

    def check() -> None:
        for out, gamma in outputs:
            rows = read_rows(out)
            if len(rows) != MIXTURE_ORDERS:
                raise CheckFailed(f"{out.name}: {len(rows)} rows, not {MIXTURE_ORDERS}")
            for row in rows:
                order_id = row["order_id"]
                try:
                    own = oracle.opt(tuple(order_id.split("|")))
                except ValueError as exc:
                    raise CheckFailed(str(exc)) from None
                check_opt(order_id, row["opt"], own)
                value = float(row["value"])
                if not (gamma - MIXTURE_GAMMA_TOL) * own <= value <= own:
                    raise CheckFailed(
                        f"{out.name} {order_id}: value {value!r} outside "
                        f"[({gamma!r} - {MIXTURE_GAMMA_TOL}) * {own!r}, {own!r}]"
                    )

    units = len(commands) * MIXTURE_ORDERS
    return Plan(commands, units, units, check, {"order_seed": order_seed})


def plan_simulate(seed: int, wdir: Path) -> Plan:
    """Monte Carlo tvd on one order of a 10-box instance, started at the prophet value.

    The prophet value is above every order's optimum, and the first stage's
    target already exceeds the expected best of the boxes after it, so tvd
    switches at stage 0 and every sample builds the switch threshold.
    """
    rng = workload_rng("simulate", seed)
    payload = make_instance(rng, boxes=10, atoms=6)
    instance = instance_file(wdir, payload)
    oracle = InstanceOracle(payload)
    order = list(oracle.ids)
    rng.shuffle(order)
    opt = oracle.opt(tuple(order))
    g0 = oracle.prophet()
    sample_seed = rng.randrange(2**31)
    out = wdir / "simulate.csv"

    def check() -> None:
        rows = read_rows(out)
        if len(rows) != 1 or int(rows[0]["runs"]) != SIMULATE_RUNS:
            raise CheckFailed(f"expected one row of {SIMULATE_RUNS} runs")
        z = float(rows[0]["z_score"])
        exact = float(rows[0]["exact_value"])
        if not abs(z) <= SIMULATE_MAX_Z:
            raise CheckFailed(f"z-score {z!r} beyond {SIMULATE_MAX_Z}")
        if not exact <= opt:
            raise CheckFailed(f"exact value {exact!r} above opt {opt!r}")

    command = ["simulate", "--instance", instance, "--policy", "tvd", "--g0", repr(g0)]
    command += ["--order", ",".join(order), "--runs", str(SIMULATE_RUNS)]
    command += ["--seed", str(sample_seed), "--out", str(out)]
    notes = {"g0": g0, "opt": opt, "sample_seed": sample_seed}
    return Plan([command], SIMULATE_RUNS, 1, check, notes)


def plan_certify(seed: int, wdir: Path) -> Plan:
    """The hardness programs at a fine step and both density scans; no seed."""
    primal = {
        "general-primal": max_ratio(*general_program(LP_STEP)),
        "detection-primal": max_ratio(*detection_program(detection_c(), LP_STEP)),
    }
    constants = density_constants()
    hardness_out = wdir / "hardness.csv"
    density_out = wdir / "verify-density.csv"

    def check() -> None:
        rows = {row["bound"]: row for row in read_rows(hardness_out)}
        if rows.keys() != primal.keys() | DUAL_OBJECTIVES.keys():
            raise CheckFailed(f"hardness rows {sorted(rows)}")
        for bound, expected in DUAL_OBJECTIVES.items():
            value = float(rows[bound]["value"])
            if not abs(value - expected) <= DUAL_TOL:
                raise CheckFailed(f"{bound}: objective {value!r}, expected {expected}")
        for bound, expected in primal.items():
            value = float(rows[bound]["value"])
            if not abs(value - expected) <= PRIMAL_TOL:
                raise CheckFailed(f"{bound}: value {value!r}, HiGHS gives {expected!r}")
        densities = read_rows(density_out)
        if sorted(row["density"] for row in densities) != sorted(constants):
            raise CheckFailed("verify-density rows do not name both densities")
        for row in densities:
            c, gamma = constants[row["density"]]
            for column, expected in (("c", c), ("gamma", gamma)):
                if not abs(float(row[column]) - expected) <= DENSITY_TOL:
                    raise CheckFailed(
                        f"{row['density']}: {column} {row[column]}, brentq gives {expected!r}"
                    )
            if not float(row["min_ratio"]) >= gamma - SCAN_TOL:
                raise CheckFailed(f"{row['density']}: scanned min ratio {row['min_ratio']}")

    commands = [
        ["hardness", "--lp-step", repr(LP_STEP), "--out", str(hardness_out)],
        ["verify-density", "--out", str(density_out)],
    ]
    return Plan(commands, len(primal) + len(DUAL_OBJECTIVES) + len(constants), 0, check)


PLANS = {
    "enumerate": plan_enumerate,
    "mixture": plan_mixture,
    "simulate": plan_simulate,
    "certify": plan_certify,
}


class Launcher:
    """The helper process (launch.py) that starts and reaps the commands.

    It runs in its own process group, so that leaving early kills it and the
    command it is running together.
    """

    def __init__(self, env: dict[str, str]):
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            start_new_session=True,
        )

    def run(self, argv: list[str], log: Path) -> dict:
        request = {"argv": argv, "log": str(log), "timeout": COMMAND_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher exited")
        return json.loads(reply)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            os.killpg(self._proc.pid, signal.SIGKILL)
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # Import from cached bytecode, as an installed package does; the warm-up
    # command writes the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class Round:
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    failed: int
    span_files: list[Path]


def run_round(launcher: Launcher, plan: Plan, wdir: Path, traced: bool) -> Round:
    wall = setup = peak = 0.0
    failed = 0
    span_files = []
    for i, args in enumerate(plan.commands):
        stamp = wdir / f"cmd{i}.stamp"
        stamp.unlink(missing_ok=True)
        spans = wdir / f"cmd{i}.npz"
        child = [sys.executable, str(HERE / "child.py"), str(stamp)]
        child.append(str(spans) if traced else "-")
        reply = launcher.run(child + args, wdir / f"cmd{i}.log")
        elapsed = reply["end"] - reply["start"]
        wall += elapsed
        peak = max(peak, reply["maxrss_kb"] / 1024.0)
        if reply["code"] != 0 or not stamp.exists():
            failed += 1
            setup += elapsed
            continue
        setup += float(stamp.read_text()) - reply["start"]
        if traced:
            span_files.append(spans)
    return Round(wall, setup, peak, failed, span_files)


def end_to_end_metrics(rounds: list[Round], units: int) -> dict[str, float]:
    wall = statistics.median(r.wall_s for r in rounds)
    setup = statistics.median(r.setup_s for r in rounds)
    return {
        "wall_s": wall,
        "setup_s": setup,
        "work_per_s": units / (wall - setup),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in rounds),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into an exception, so that leaving the Launcher block
    # kills the helper and the command it is running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "ocselect" / "cli.py").is_file():
        print(f"error: no ocselect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    catalog = json.loads((ROOT / "BENCHMARK.json").read_text())
    wdir = OUT / args.workload
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    plan = PLANS[args.workload](args.seed, wdir)

    rounds: list[Round] = []
    problems: list[str] = []

    def measure(traced: bool) -> Round:
        result = run_round(launcher, plan, wdir, traced)
        rounds.append(result)
        if result.failed == 0:
            try:
                plan.check()
            except CheckFailed as exc:
                problems.append(str(exc))
        return result

    with Launcher(child_env()) as launcher:
        # Write ocselect's bytecode cache and warm the file cache before timing.
        warm = [sys.executable, str(HERE / "child.py"), str(wdir / "warm.stamp"), "-", "--help"]
        launcher.run(warm, wdir / "warm.log")
        if args.trace:
            base = measure(traced=False)
            traced = measure(traced=True)
            totals = summarize(traced.span_files)
            metrics = per_layer_metrics(totals, plan.orders, traced.wall_s - base.wall_s)
            units = catalog["per_layer"]
            plan.notes["tvd_switched"] = (
                f"{totals.tvd_switched} of {totals.calls['policies.tvd_exact']} "
                "exact tvd evaluations"
            )
        else:
            count = max(MIN_ROUNDS, round(args.seconds / ROUND_S[args.workload]))
            for _ in range(count):
                measure(traced=False)
            metrics = end_to_end_metrics(rounds, plan.units)
            units = catalog["end_to_end"]

    unit_of = {m["name"]: m["unit"] for m in units}
    if unit_of.keys() != metrics.keys():
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    attempted = len(plan.commands) * len(rounds)
    failed = sum(r.failed for r in rounds)
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds of {plan.commands}")
    for key, value in plan.notes.items():
        print(f"{key}: {value}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name in unit_of:
        print(f"{name}: {metrics[name]!r} {unit_of[name]}")
    print(f"attempted {attempted}, failed {failed}, correct {not problems}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit_of[name]} for name in unit_of
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
