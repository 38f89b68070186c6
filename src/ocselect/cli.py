"""Command line front end.

Subcommands:

* ``eval``            exact policy value per arrival order,
                      with the per-order optimum and ratio, as a CSV report.
* ``hardness``        solve the finite lower-bound programs and check the
                      analytic upper-bound certificates.
* ``simulate``        Monte Carlo replay of a policy on one order, with a
                      z-score against the exact evaluator.
* ``verify-density``  normalization and guarantee scan for the built-in
                      starting-target densities.

Exit codes: 0 success, 1 usage error, 2 validation error (bad file, bad
combination of flags, refused enumeration), 3 certificate violation,
4 internal numerical failure (a solution failing the simplex post-check, the
pivot limit).

All CSV output uses LF newlines and ``%.12g`` floats, so a rerun with the
same flags is byte-identical.  Randomness is split per worker index from a
single entropy seed, never shared across streams.
"""

from __future__ import annotations

import argparse
import csv
import io as _io
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .benchmarks import (
    ArrivalOrder,
    Instance,
    opt_online,
    prophet_value,
    sta_exact,
)
from .densities import (
    DensitySpec,
    ENVELOPE_TVA,
    ENVELOPE_TVD,
    MIN_VERIFY_GRID,
    PHI,
    rho_656,
    rho_732,
    verify_guarantee,
    integrate_weighted,
)
from .hardness import (
    MIN_DUAL_GRID,
    build_primal_general,
    build_primal_tvd,
    solve_c_detection,
    verify_dual_general,
    verify_dual_tvd,
)
from .io import load_instance
from .policies import (
    EXACT_POLICIES,
    randomized_value,
    sample_runs,
    tva_exact,
    tvd_exact,
)
from .simplex import simplex_solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_CERTIFICATE = 3
EXIT_NUMERICAL = 4

RANDOMIZED_POLICY_KINDS = ("tva-rand-656", "tvd-rand-732")
POLICY_KINDS = EXACT_POLICIES + RANDOMIZED_POLICY_KINDS

ENUMERATION_LIMIT = 9
SIMULATION_CHUNK = 10_000
CERTIFICATE_TOL = 1e-8
RATIO_SLACK = 1e-9

DEFAULT_DENSITY_GRID = 2001
DEFAULT_LP_STEP = 0.02


class CliValidationError(ValueError):
    """Semantically invalid request (exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved request for one subcommand run."""

    command: str
    instance_path: str | None = None
    policy: str | None = None
    g0_mode: str | None = None
    tau: float | None = None
    orders_mode: str = "all"
    orders_arg: str | None = None
    seed: int | None = None
    grid: int = DEFAULT_DENSITY_GRID
    out: str | None = None
    force_enumeration: bool = False
    runs: int = 100_000
    order_spec: str | None = None
    lp_step: float = DEFAULT_LP_STEP
    refine: bool = False
    inject_error: float = 0.0
    dual_grid: int = MIN_DUAL_GRID
    density: str = "both"

    def __post_init__(self) -> None:
        if self.command not in ("eval", "hardness", "simulate", "verify-density"):
            raise CliValidationError(f"unknown command {self.command!r}")
        sampled = self.command == "simulate" or self.orders_mode == "random"
        if sampled and self.seed is None:
            raise CliValidationError("a --seed is required for any sampled mode")
        if self.runs < 2:
            raise CliValidationError("--runs must be at least 2")


@dataclass(frozen=True)
class RatioRow:
    """One arrival order: optimum, policy value, and their ratio."""

    order_id: str
    opt: float
    value: float
    ratio: float

    def __post_init__(self) -> None:
        if not (-RATIO_SLACK <= self.ratio <= 1.0 + RATIO_SLACK):
            raise ValueError(
                f"ratio {self.ratio!r} for order {self.order_id!r} is outside [0, 1]"
            )


@dataclass(frozen=True)
class RatioReport:
    """Per-order rows plus the worst case over the batch."""

    rows: tuple[RatioRow, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("a ratio report needs at least one row")

    @property
    def min_ratio(self) -> float:
        return min(row.ratio for row in self.rows)

    @property
    def argmin_order(self) -> str:
        worst = min(self.rows, key=lambda row: row.ratio)
        return worst.order_id


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D401 (argparse hook)
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ocselect", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="per-order policy value, optimum, and ratio")
    p_eval.add_argument("--instance", required=True, help="instance JSON file")
    p_eval.add_argument("--policy", required=True, choices=POLICY_KINDS)
    p_eval.add_argument(
        "--g0",
        default=None,
        help="starting target: a float, 'auto' (prophet value over phi), or "
        "'opt' (the per-order optimum)",
    )
    p_eval.add_argument("--tau", type=float, default=None, help="threshold for sta")
    p_eval.add_argument(
        "--orders",
        default="all",
        help="'all', 'random:K', or 'file:PATH' (JSON list of id lists)",
    )
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_eval.add_argument(
        "--force-enumeration",
        action="store_true",
        help=f"allow 'all' on more than {ENUMERATION_LIMIT} boxes",
    )

    p_hard = sub.add_parser("hardness", help="finite programs and dual certificates")
    p_hard.add_argument("--lp-step", type=float, default=DEFAULT_LP_STEP)
    p_hard.add_argument("--dual-grid", type=int, default=MIN_DUAL_GRID)
    p_hard.add_argument(
        "--refine",
        action="store_true",
        help="also solve the primal programs at half and quarter step",
    )
    p_hard.add_argument(
        "--inject-certificate-error",
        type=float,
        default=0.0,
        help="perturb both dual certificates (diagnostic; should trip exit 3)",
    )
    p_hard.add_argument("--out", default=None)

    p_sim = sub.add_parser("simulate", help="Monte Carlo check of the exact evaluator")
    p_sim.add_argument("--instance", required=True)
    p_sim.add_argument("--policy", required=True, choices=EXACT_POLICIES)
    p_sim.add_argument("--g0", default=None)
    p_sim.add_argument("--tau", type=float, default=None)
    p_sim.add_argument(
        "--order",
        default=None,
        help="comma-separated box ids (default: file order)",
    )
    p_sim.add_argument("--runs", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", default=None)

    p_dens = sub.add_parser("verify-density", help="check the built-in densities")
    p_dens.add_argument("--density", choices=("656", "732", "both"), default="both")
    p_dens.add_argument("--grid", type=int, default=DEFAULT_DENSITY_GRID)
    p_dens.add_argument("--out", default=None)

    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    command = args.command
    kwargs: dict[str, object] = {"command": command}
    if command == "eval":
        orders_mode, orders_arg = _split_orders(args.orders)
        kwargs.update(
            instance_path=args.instance,
            policy=args.policy,
            g0_mode=args.g0,
            tau=args.tau,
            orders_mode=orders_mode,
            orders_arg=orders_arg,
            seed=args.seed,
            out=args.out,
            force_enumeration=args.force_enumeration,
        )
    elif command == "hardness":
        kwargs.update(
            lp_step=args.lp_step,
            dual_grid=args.dual_grid,
            refine=args.refine,
            inject_error=args.inject_certificate_error,
            out=args.out,
        )
    elif command == "simulate":
        kwargs.update(
            instance_path=args.instance,
            policy=args.policy,
            g0_mode=args.g0,
            tau=args.tau,
            order_spec=args.order,
            runs=args.runs,
            seed=args.seed,
            out=args.out,
        )
    else:
        kwargs.update(density=args.density, grid=args.grid, out=args.out)
    return ExperimentConfig(**kwargs)  # type: ignore[arg-type]


def _split_orders(spec: str) -> tuple[str, str | None]:
    if spec == "all":
        return "all", None
    if spec.startswith("random:"):
        return "random", spec.split(":", 1)[1]
    if spec.startswith("file:"):
        return "file", spec.split(":", 1)[1]
    raise CliValidationError(
        f"--orders must be 'all', 'random:K', or 'file:PATH', got {spec!r}"
    )


def _stream(seed: int, worker: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(worker,)))


def _resolve_policy_flags(config: ExperimentConfig) -> None:
    policy = config.policy
    if policy == "sta":
        if config.tau is None:
            raise CliValidationError("policy 'sta' needs --tau")
        if config.g0_mode is not None:
            raise CliValidationError("policy 'sta' takes --tau, not --g0")
    elif policy in ("tva", "tvd"):
        if config.tau is not None:
            raise CliValidationError(f"policy {policy!r} takes --g0, not --tau")
    else:
        if config.tau is not None or config.g0_mode is not None:
            raise CliValidationError(
                f"policy {policy!r} draws its starting target from a density; "
                "--g0 and --tau do not apply"
            )


def _starting_target(
    config: ExperimentConfig, instance: Instance, order: ArrivalOrder
) -> float:
    mode = config.g0_mode if config.g0_mode is not None else "auto"
    if mode == "auto":
        return prophet_value(instance) / PHI
    if mode == "opt":
        return opt_online(instance, order).total
    try:
        g0 = float(mode)
    except ValueError as exc:
        raise CliValidationError(
            f"--g0 must be a float, 'auto', or 'opt', got {mode!r}"
        ) from exc
    if not (math.isfinite(g0) and g0 >= 0.0):
        raise CliValidationError("--g0 must be finite and nonnegative")
    return g0


def _enumerate_orders(
    config: ExperimentConfig, instance: Instance
) -> list[ArrivalOrder]:
    ids = instance.ids
    if config.orders_mode == "all":
        if instance.n > ENUMERATION_LIMIT and not config.force_enumeration:
            raise CliValidationError(
                f"{instance.n} boxes means {math.factorial(instance.n)} orders; "
                "pass --force-enumeration to run anyway"
            )
        return [tuple(order) for order in itertools.permutations(sorted(ids))]
    if config.orders_mode == "random":
        try:
            count = int(config.orders_arg)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise CliValidationError("--orders random:K needs an integer K") from None
        if count < 1:
            raise CliValidationError("--orders random:K needs K >= 1")
        base = sorted(ids)
        orders = []
        assert config.seed is not None
        for i in range(count):
            perm = _stream(config.seed, i).permutation(len(base))
            orders.append(tuple(base[j] for j in perm))
        return orders
    path = config.orders_arg
    try:
        payload = json.loads(Path(path).read_text())  # type: ignore[arg-type]
    except (OSError, json.JSONDecodeError) as exc:
        raise CliValidationError(f"cannot read orders file {path!r}: {exc}") from exc
    if not isinstance(payload, list) or not payload:
        raise CliValidationError("orders file must be a nonempty JSON list of id lists")
    orders = []
    for entry in payload:
        if not isinstance(entry, list) or not all(isinstance(x, str) for x in entry):
            raise CliValidationError(f"orders file entry {entry!r} is not a list of ids")
        orders.append(tuple(entry))
    return orders


def _policy_value(
    config: ExperimentConfig, instance: Instance, order: ArrivalOrder
) -> float:
    policy = config.policy
    if policy == "sta":
        assert config.tau is not None
        return sta_exact(instance, order, config.tau).total
    if policy == "tva":
        return tva_exact(instance, order, _starting_target(config, instance, order)).total
    if policy == "tvd":
        return tvd_exact(instance, order, _starting_target(config, instance, order)).total
    if policy == "tva-rand-656":
        return randomized_value(instance, order, rho_656(), policy_kind="tva")
    return randomized_value(instance, order, rho_732(), policy_kind="tvd")


def cmd_eval(config: ExperimentConfig) -> tuple[RatioReport, int]:
    instance = load_instance(config.instance_path)  # type: ignore[arg-type]
    _resolve_policy_flags(config)
    orders = _enumerate_orders(config, instance)
    rows = []
    for order in orders:
        opt = opt_online(instance, order).total
        value = _policy_value(config, instance, order)
        ratio = 1.0 if opt <= 0.0 else value / opt
        rows.append(RatioRow("|".join(order), opt, value, ratio))
    return RatioReport(tuple(rows)), EXIT_OK


def cmd_hardness(config: ExperimentConfig) -> tuple[list[list[str]], int]:
    if config.dual_grid < MIN_DUAL_GRID:
        raise CliValidationError(f"--dual-grid must be at least {MIN_DUAL_GRID}")
    if not (0.0 < config.lp_step <= 0.1):
        raise CliValidationError("--lp-step must be in (0, 0.1]")
    rows: list[list[str]] = []
    exit_code = EXIT_OK

    general = verify_dual_general(config.dual_grid, inject_error=config.inject_error)
    rows.append(
        ["general-dual", str(config.dual_grid)]
        + [_fmt(general.objective), _fmt(general.max_violation)]
    )
    detection = verify_dual_tvd(config.dual_grid, inject_error=config.inject_error)
    rows.append(
        ["detection-dual", str(config.dual_grid)]
        + [_fmt(detection.objective), _fmt(detection.max_violation)]
    )
    for report in (general.max_violation, detection.max_violation):
        if report > CERTIFICATE_TOL:
            exit_code = EXIT_CERTIFICATE

    steps = [config.lp_step]
    if config.refine:
        steps += [config.lp_step / 2.0, config.lp_step / 4.0]
    c_det = solve_c_detection()
    for step in steps:
        general = simplex_solve(build_primal_general(step))
        rows.append(["general-primal", _fmt(step), _fmt(general.value), _fmt(general.residual)])
        detection = simplex_solve(build_primal_tvd(c_det, step))
        rows.append(
            ["detection-primal", _fmt(step), _fmt(detection.value), _fmt(detection.residual)]
        )
    return rows, exit_code


def cmd_simulate(config: ExperimentConfig) -> tuple[list[str], int]:
    instance = load_instance(config.instance_path)  # type: ignore[arg-type]
    _resolve_policy_flags(config)
    if config.order_spec is None:
        order: ArrivalOrder = instance.ids
    else:
        order = tuple(part.strip() for part in config.order_spec.split(","))
    if config.policy == "sta":
        assert config.tau is not None
        g0 = config.tau
        exact = sta_exact(instance, order, config.tau).total
    else:
        g0 = _starting_target(config, instance, order)
        evaluator = tva_exact if config.policy == "tva" else tvd_exact
        exact = evaluator(instance, order, g0).total
    samples = np.empty(config.runs)
    assert config.seed is not None
    for start in range(0, config.runs, SIMULATION_CHUNK):
        rng = _stream(config.seed, start // SIMULATION_CHUNK)
        stop = min(start + SIMULATION_CHUNK, config.runs)
        samples[start:stop] = sample_runs(
            config.policy, g0, instance, order, rng, stop - start  # type: ignore[arg-type]
        )
    if samples.min() == samples.max():
        mean = float(samples[0])
        std_error = 0.0
        z_score = 0.0 if mean == exact else math.inf
    else:
        mean = float(samples.mean())
        std_error = float(samples.std(ddof=1) / math.sqrt(config.runs))
        z_score = (mean - exact) / std_error
    row = [str(config.runs), _fmt(mean), _fmt(exact), _fmt(std_error), _fmt(z_score)]
    return row, EXIT_OK


def cmd_verify_density(config: ExperimentConfig) -> tuple[list[list[str]], int]:
    if config.grid < MIN_VERIFY_GRID:
        raise CliValidationError(f"--grid must be at least {MIN_VERIFY_GRID}")
    picks: list[tuple[str, DensitySpec, str]] = []
    if config.density in ("656", "both"):
        picks.append(("rho-656", rho_656(), ENVELOPE_TVA))
    if config.density in ("732", "both"):
        picks.append(("rho-732", rho_732(), ENVELOPE_TVD))
    rows: list[list[str]] = []
    exit_code = EXIT_OK
    for name, spec, envelope in picks:
        mass_residual = integrate_weighted(spec, "one", 0.5, 1.0) - 1.0
        check = verify_guarantee(spec, envelope, y_grid=config.grid)
        assert spec.gamma is not None and spec.c is not None
        if check.min_ratio < spec.gamma - 1e-6 or abs(mass_residual) > CERTIFICATE_TOL:
            exit_code = EXIT_CERTIFICATE
        rows.append(
            [
                name,
                _fmt(spec.c),
                _fmt(spec.gamma),
                str(config.grid),
                _fmt(check.min_ratio),
                _fmt(check.argmin_y),
                _fmt(mass_residual),
            ]
        )
    return rows, exit_code


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _write_csv(out: str | None, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    buffer = _io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buffer.getvalue()
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _summary_stream(config: ExperimentConfig):
    return sys.stdout if config.out is not None else sys.stderr


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = config_from_args(args)
        if config.command == "eval":
            report, code = cmd_eval(config)
            rows = [
                [row.order_id, _fmt(row.opt), _fmt(row.value), _fmt(row.ratio)]
                for row in report.rows
            ]
            _write_csv(config.out, ("order_id", "opt", "value", "ratio"), rows)
            print(
                f"orders={len(report.rows)} min_ratio={_fmt(report.min_ratio)} "
                f"argmin={report.argmin_order}",
                file=_summary_stream(config),
            )
            return code
        if config.command == "hardness":
            rows, code = cmd_hardness(config)
            _write_csv(config.out, ("bound", "grid", "value", "residual"), rows)
            for row in rows:
                print(
                    f"{row[0]} (grid {row[1]}): value {row[2]}, residual {row[3]}",
                    file=_summary_stream(config),
                )
            if code == EXIT_CERTIFICATE:
                print("certificate violation detected", file=sys.stderr)
            return code
        if config.command == "simulate":
            row, code = cmd_simulate(config)
            _write_csv(
                config.out,
                ("runs", "empirical_mean", "exact_value", "std_error", "z_score"),
                [row],
            )
            print(
                f"runs={row[0]} mean={row[1]} exact={row[2]} z={row[4]}",
                file=_summary_stream(config),
            )
            return code
        rows, code = cmd_verify_density(config)
        _write_csv(
            config.out,
            ("density", "c", "gamma", "grid", "min_ratio", "argmin_y", "mass_residual"),
            rows,
        )
        for row in rows:
            print(
                f"{row[0]}: gamma {row[2]}, scanned min ratio {row[4]} at y={row[5]}",
                file=_summary_stream(config),
            )
        if code == EXIT_CERTIFICATE:
            print("density guarantee violation detected", file=sys.stderr)
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
