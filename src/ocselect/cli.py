"""Command line front end.

Subcommands:

* ``eval``            exact policy value per arrival order,
                      with the per-order optimum and ratio, as a CSV report.
* ``hardness``        solve the finite lower-bound programs and check the
                      analytic upper-bound certificates.
* ``simulate``        Monte Carlo replay of a policy on one order, with a
                      z-score against the exact evaluator.
* ``verify-density``  normalization and certified guarantee ratio of the
                      built-in starting-target densities.

Exit codes: 0 success, 1 usage error, 2 validation error (bad file, bad
combination of flags, refused enumeration), 3 certificate violation,
4 internal numerical failure (an unbounded program or a simplex tableau that
breaks down, a solution failing a simplex post-check, the pivot limit).
``eval`` and ``simulate`` check every flag before they value any order.

All CSV output uses LF newlines and ``%.12g`` floats, so a rerun with the
same flags is byte-identical.  Each subcommand writes its CSV to an
anonymous temporary file as it runs, so ``eval`` holds one chunk's text at
a time whatever the number of orders, at the cost of the CSV's size on disk
in ``$TMPDIR``.  The file is copied to ``--out`` or stdout once the run has
passed every check: a run that fails, a CSV that the destination cannot
encode included, prints no CSV and leaves ``--out`` as it was.  Randomness
comes from the single ``--seed``, split per order index (``eval --orders
random:K``) and per 10,000-run chunk (``simulate``), never shared across
streams.

Each subcommand is a short-lived process whose fixed cost is mostly
imports and exit.  ``main`` freezes the gc-tracked heap on entry, once per
process: everything alive then was built by the imports and is never
garbage, while a later call's freeze would keep earlier calls' garbage for
good.  Unfrozen, those ~22,000 objects were walked again by the
interpreter's collections at exit, which took 34 ms against a bare
interpreter's 8.5 ms (2-vCPU Xeon VM); frozen, the exit takes 8-10 ms.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io as _io
import itertools
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .benchmarks import (
    ENUMERATION_LIMIT,
    ArrivalOrder,
    Instance,
    order_indices,
    prophet_value,
)
from .densities import (
    PHI,
    rho_656,
    rho_732,
    verify_guarantee,
    integrate_weighted,
)
from .hardness import (
    build_primal_general,
    build_primal_tvd,
    primal_tableau_mb,
    solve_c_detection,
    verify_dual_general,
    verify_dual_tvd,
)
from .io import load_instance
from .policies import (
    EXACT_POLICIES,
    LANE_CHUNK,
    LaneValues,
    lane_randomized_values,
    lane_values,
    sample_runs,
)
from .simplex import simplex_solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_CERTIFICATE = 3
EXIT_NUMERICAL = 4

# Each randomized mixture by its density's key: the exact kind it runs from a
# starting target drawn from that density.  The kind also names the envelope
# the density's guarantee is checked against.
MIXTURES = {"656": ("tva", rho_656), "732": ("tvd", rho_732)}
MIXTURE_POLICIES = {f"{kind}-rand-{key}": key for key, (kind, _) in MIXTURES.items()}
POLICY_KINDS = EXACT_POLICIES + tuple(MIXTURE_POLICIES)

SIMULATION_CHUNK = 10_000
CERTIFICATE_TOL = 1e-8
RATIO_SLACK = 1e-9

DEFAULT_LP_STEP = 0.02
# --refine --lp-step 0.001 needs a 46.8 MB condensed tableau at its finest
# step, and the solver's delayed pivots 1.2 MB more.
MAX_TABLEAU_MB = 128.0


class CliValidationError(ValueError):
    """Semantically invalid request (exit code 2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D401 (argparse hook)
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ocselect", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="per-order policy value, optimum, and ratio")
    p_eval.set_defaults(run=cmd_eval)
    p_eval.add_argument("--instance", required=True, help="instance JSON file")
    p_eval.add_argument("--policy", required=True, choices=POLICY_KINDS)
    p_eval.add_argument(
        "--g0",
        help="starting target: a float, 'auto' (prophet value over phi), or "
        "'opt' (the per-order optimum)",
    )
    p_eval.add_argument("--tau", type=float, help="threshold for sta")
    p_eval.add_argument(
        "--orders",
        default="all",
        help="'all', 'random:K', or 'file:PATH' (JSON list of id lists)",
    )
    p_eval.add_argument("--seed", type=int)
    p_eval.add_argument("--out", help="CSV output path (default stdout)")
    p_eval.add_argument(
        "--force-enumeration",
        action="store_true",
        help=f"allow 'all' on more than {ENUMERATION_LIMIT} boxes",
    )

    p_hard = sub.add_parser("hardness", help="finite programs and dual certificates")
    p_hard.set_defaults(run=cmd_hardness)
    p_hard.add_argument("--lp-step", type=float, default=DEFAULT_LP_STEP)
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
    p_hard.add_argument("--out")

    p_sim = sub.add_parser("simulate", help="Monte Carlo check of the exact evaluator")
    p_sim.set_defaults(run=cmd_simulate)
    p_sim.add_argument("--instance", required=True)
    p_sim.add_argument("--policy", required=True, choices=EXACT_POLICIES)
    p_sim.add_argument("--g0")
    p_sim.add_argument("--tau", type=float)
    p_sim.add_argument(
        "--order",
        help="comma-separated box ids, or 'file:PATH' (JSON list of one id list); "
        "default: file order",
    )
    p_sim.add_argument("--runs", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out")

    p_dens = sub.add_parser("verify-density", help="check the built-in densities")
    p_dens.set_defaults(run=cmd_verify_density)
    p_dens.add_argument("--density", choices=(*MIXTURES, "both"), default="both")
    p_dens.add_argument("--out")

    return parser


def _stream(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _check_flags(args: argparse.Namespace) -> float | str | None:
    """The flags ``eval`` and ``simulate`` share, checked before any work, and the policy's start.

    The start is ``--tau`` for ``sta``, ``--g0`` for ``tva`` and ``tvd`` (a
    float, ``"auto"`` when absent, or ``"opt"``), and None for the mixtures.
    """
    if args.seed is not None and args.seed < 0:
        raise CliValidationError("--seed must be >= 0")
    policy = args.policy
    if policy == "sta":
        if args.tau is None:
            raise CliValidationError("policy 'sta' needs --tau")
        if args.g0 is not None:
            raise CliValidationError("policy 'sta' takes --tau, not --g0")
        if not (math.isfinite(args.tau) and args.tau >= 0.0):
            raise CliValidationError("--tau must be finite and nonnegative")
        return args.tau
    if policy not in ("tva", "tvd"):
        if args.tau is not None or args.g0 is not None:
            raise CliValidationError(
                f"policy {policy!r} draws its starting target from a density; "
                "--g0 and --tau do not apply"
            )
        return None
    if args.tau is not None:
        raise CliValidationError(f"policy {policy!r} takes --g0, not --tau")
    if args.g0 in (None, "auto", "opt"):
        return args.g0 or "auto"
    try:
        g0 = float(args.g0)
    except ValueError as exc:
        raise CliValidationError(
            f"--g0 must be a float, 'auto', or 'opt', got {args.g0!r}"
        ) from exc
    if not (math.isfinite(g0) and g0 >= 0.0):
        raise CliValidationError("--g0 must be finite and nonnegative")
    return g0


def _read_orders(path: str, name: str) -> list[list[str]]:
    """The orders in a ``file:PATH`` file, a JSON list of id lists, not yet checked against ids.

    Messages call the file ``name``.  A file that cannot be decoded, is not
    JSON or nests too deeply for the parser cannot be read.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise CliValidationError(f"cannot read {name} {path!r}: {exc}") from exc
    if not isinstance(payload, list):
        raise CliValidationError(f"{name} must be a nonempty JSON list of id lists")
    for entry in payload:
        if not isinstance(entry, list) or not all(isinstance(x, str) for x in entry):
            raise CliValidationError(f"{name} entry {entry!r} is not a list of ids")
    return payload


def _order_chunks(args: argparse.Namespace, instance: Instance) -> Iterator[np.ndarray]:
    """The ``--orders`` list as chunks of rows of box indices; the flag is checked on the call.

    ``all`` and ``random:K`` are permutations of the positions in
    ``sorted(instance.ids)`` by construction, mapped through
    ``instance.index``.  ``file:`` orders are checked against the instance's
    ids as their chunk is built, so a bad one fails before its chunk is valued.
    """
    spec = args.orders
    base = [instance.index[box_id] for box_id in sorted(instance.ids)]
    if spec == "all":
        if instance.n > ENUMERATION_LIMIT and not args.force_enumeration:
            raise CliValidationError(
                f"{instance.n} boxes means {math.factorial(instance.n)} orders; "
                "pass --force-enumeration to run anyway"
            )
        return _index_chunks(itertools.permutations(base), instance.n)
    if spec.startswith("random:"):
        if args.seed is None:
            raise CliValidationError("a --seed is required for any sampled mode")
        try:
            count = int(spec.split(":", 1)[1])
        except ValueError:
            raise CliValidationError("--orders random:K needs an integer K") from None
        if count < 1:
            raise CliValidationError("--orders random:K needs K >= 1")
        positions = (_stream(args.seed, i).permutation(instance.n) for i in range(count))
        return (np.array(base)[chunk] for chunk in _index_chunks(positions, instance.n))
    if not spec.startswith("file:"):
        raise CliValidationError(
            f"--orders must be 'all', 'random:K', or 'file:PATH', got {spec!r}"
        )
    orders = _read_orders(spec.split(":", 1)[1], "orders file")
    if not orders:
        raise CliValidationError("orders file must be a nonempty JSON list of id lists")
    return _index_chunks((order_indices(instance, tuple(o)) for o in orders), instance.n)


def _index_chunks(rows: Iterable[Sequence[int]], n: int) -> Iterator[np.ndarray]:
    """Up to LANE_CHUNK rows of ``n`` box indices at a time, as int arrays."""
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, LANE_CHUNK)):
        yield np.fromiter(itertools.chain.from_iterable(chunk), np.intp).reshape(-1, n)


def _exact_lanes(
    policy: str, start: float | str, instance: Instance, perm: np.ndarray
) -> tuple[np.ndarray, LaneValues]:
    """Each row's online optimum, and ``policy``'s lanes from ``start`` (auto is prophet/phi)."""
    rows = np.arange(len(perm))
    opt = lane_values("opt", instance, perm, rows, None).stages[:, 0]
    if start == "auto":
        start = prophet_value(instance) / PHI
    g0 = opt if start == "opt" else start
    return opt, lane_values(policy, instance, perm, rows, np.broadcast_to(g0, opt.shape))


def _order_values(
    policy: str, start: float | str | None, instance: Instance, perm: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's online optimum, and its value under ``policy`` from ``_check_flags``'s start.

    Every policy runs one chunk of orders at a time through the lane evaluator;
    the randomized mixtures value all of a chunk's pieces, LANE_CHUNK per pass.
    """
    if policy not in MIXTURE_POLICIES:
        opt, lanes = _exact_lanes(policy, start, instance, perm)
        return opt, lanes.stages[:, 0]
    opt = lane_values("opt", instance, perm, np.arange(len(perm)), None).stages[:, 0]
    kind, density = MIXTURES[MIXTURE_POLICIES[policy]]
    mixed = lane_randomized_values(instance, perm, density(), kind)
    return opt, np.fromiter(mixed, float, len(perm))


def cmd_eval(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    start = _check_flags(args)
    chunks = _order_chunks(args, instance)
    names, template = _order_id_cells(instance)
    count, min_ratio, argmin = 0, math.inf, ""
    with _spooled(args.out) as spool:
        spool.write(_csv_text([("order_id", "opt", "value", "ratio")]))
        for perm in chunks:
            opt, value = _order_values(args.policy, start, instance, perm)
            ratio = np.divide(value, opt, out=np.ones_like(opt), where=~(opt <= 0.0))
            bad = ~((-RATIO_SLACK <= ratio) & (ratio <= 1.0 + RATIO_SLACK))
            # The first order out of range, or else the first with the chunk's least ratio.
            i = int(bad.argmax() if bad.any() else ratio.argmin())
            order_id = "|".join(instance.ids[j] for j in perm[i])
            if bad[i]:
                raise ValueError(
                    f"ratio {float(ratio[i])!r} for order {order_id!r} is outside [0, 1]"
                )
            if ratio[i] < min_ratio:
                min_ratio, argmin = float(ratio[i]), order_id
            order_ids = ["|".join(row) for row in names[perm].tolist()]
            spool.write(_format_rows(template, order_ids, opt, value, ratio))
            count += len(perm)
    print(
        f"orders={count} min_ratio={_fmt(min_ratio)} argmin={argmin}",
        file=_summary_stream(args.out),
    )
    return EXIT_OK


def _order_id_cells(instance: Instance) -> tuple[np.ndarray, str]:
    """Box ids to join into ``order_id`` cells, and the template of one ``eval`` row.

    ``csv.writer`` quotes a cell for the characters it holds, which are the
    same in every order: a quoted cell has each quote doubled.
    """
    joined = "|".join(instance.ids)
    cell = "%s" if _csv_text([[joined]]) == joined + "\n" else '"%s"'
    names = np.array([box_id.replace('"', '""') for box_id in instance.ids], dtype=object)
    return names, cell + ",%.12g,%.12g,%.12g\n"


def _format_rows(template: str, order_ids: list[str], *columns: np.ndarray) -> str:
    """One row per order id in one ``%`` on ``template``, whose ``%.12g`` matches ``_fmt``."""
    cells = zip(order_ids, *(column.tolist() for column in columns))
    return (template * len(order_ids)) % tuple(itertools.chain.from_iterable(cells))


def cmd_hardness(args: argparse.Namespace) -> int:
    if not (0.0 < args.lp_step <= 0.1):
        raise CliValidationError("--lp-step must be in (0, 0.1]")
    steps = [args.lp_step / k for k in ((1, 2, 4) if args.refine else (1,))]
    tableau_mb = primal_tableau_mb(steps[-1])
    if not tableau_mb <= MAX_TABLEAU_MB:
        raise CliValidationError(
            f"--lp-step needs a {tableau_mb:.4g} MB tableau, over the {MAX_TABLEAU_MB:g} MB cap"
        )
    inject = args.inject_certificate_error
    if not math.isfinite(inject):
        raise CliValidationError("--inject-certificate-error must be finite")
    rows: list[list[str]] = []
    exit_code = EXIT_OK

    for name, report in (
        ("general-dual", verify_dual_general(inject_error=inject)),
        ("detection-dual", verify_dual_tvd(inject_error=inject)),
    ):
        rows.append([name, "", _fmt(report.objective), _fmt(report.max_violation)])
        if not (report.max_violation <= CERTIFICATE_TOL):
            exit_code = EXIT_CERTIFICATE

    c_det = solve_c_detection()
    for step in steps:
        general = simplex_solve(build_primal_general(step))
        rows.append(["general-primal", _fmt(step), _fmt(general.value), _fmt(general.residual)])
        detection = simplex_solve(build_primal_tvd(c_det, step))
        rows.append(
            ["detection-primal", _fmt(step), _fmt(detection.value), _fmt(detection.residual)]
        )

    _write_csv(args.out, ("bound", "grid", "value", "residual"), rows)
    for row in rows:
        grid = f" (grid {row[1]})" if row[1] else ""
        print(f"{row[0]}{grid}: value {row[2]}, residual {row[3]}", file=_summary_stream(args.out))
    if exit_code == EXIT_CERTIFICATE:
        print("certificate violation detected", file=sys.stderr)
    return exit_code


def cmd_simulate(args: argparse.Namespace) -> int:
    runs = args.runs
    if runs < 2:
        raise CliValidationError("--runs must be at least 2")
    instance = load_instance(args.instance)
    start = _check_flags(args)
    if args.order is None:
        order: ArrivalOrder = instance.ids
    elif args.order.startswith("file:"):
        orders = _read_orders(args.order.split(":", 1)[1], "--order file")
        if len(orders) != 1:
            raise CliValidationError(f"--order file must hold one order, got {len(orders)}")
        order = tuple(orders[0])
    else:
        order = tuple(part.strip() for part in args.order.split(","))
    perm = np.array([order_indices(instance, order)])
    _, lane = _exact_lanes(args.policy, start, instance, perm)
    exact = float(lane.stages[0, 0])
    dists = [instance.dists[b] for b in perm[0]]
    samples = np.empty(runs)
    for first in range(0, runs, SIMULATION_CHUNK):
        rng = _stream(args.seed, first // SIMULATION_CHUNK)
        stop = min(first + SIMULATION_CHUNK, runs)
        samples[first:stop] = sample_runs(dists, lane.thresholds[0], rng, stop - first)
    if samples.min() == samples.max():
        mean = float(samples[0])
        std_error = 0.0
        z_score = 0.0 if mean == exact else math.copysign(math.inf, mean - exact)
    else:
        # Taken on the samples over the power of two at or below their
        # maximum, so no sum or square overflows.  Scaling by a power of two
        # changes no bits.
        scale = 2.0 ** (math.frexp(samples.max())[1] - 1)
        samples /= scale
        mean = float(samples.mean()) * scale
        std_error = float(samples.std(ddof=1) / math.sqrt(runs)) * scale
        z_score = (mean - exact) / std_error
    _write_csv(
        args.out,
        ("runs", "empirical_mean", "exact_value", "std_error", "z_score"),
        [[str(runs), _fmt(mean), _fmt(exact), _fmt(std_error), _fmt(z_score)]],
    )
    print(
        f"runs={runs} mean={_fmt(mean)} exact={_fmt(exact)} z={_fmt(z_score)}",
        file=_summary_stream(args.out),
    )
    return EXIT_OK


def cmd_verify_density(args: argparse.Namespace) -> int:
    keys = MIXTURES if args.density == "both" else [args.density]
    rows: list[list[str]] = []
    exit_code = EXIT_OK
    for kind, density in (MIXTURES[key] for key in keys):
        spec = density()
        mass_residual = integrate_weighted(spec, "one", 0.5, 1.0) - 1.0
        check = verify_guarantee(spec, kind)
        assert spec.gamma is not None
        # Written as "not within bounds" so that a NaN reads as a violation.
        if not (check.min_ratio >= spec.gamma - 1e-6 and abs(mass_residual) <= CERTIFICATE_TOL):
            exit_code = EXIT_CERTIFICATE
        values = (spec.c, spec.gamma, check.min_ratio, check.argmin_y, mass_residual)
        rows.append([spec.name] + [_fmt(v) for v in values])

    _write_csv(
        args.out, ("density", "c", "gamma", "min_ratio", "argmin_y", "mass_residual"), rows
    )
    for row in rows:
        print(
            f"{row[0]}: gamma {row[2]}, min ratio {row[3]} at y={row[4]}",
            file=_summary_stream(args.out),
        )
    if exit_code == EXIT_CERTIFICATE:
        print("density guarantee violation detected", file=sys.stderr)
    return exit_code


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _csv_text(rows: Iterable[Sequence[str]]) -> str:
    buffer = _io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _write_csv(out: str | None, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    with _spooled(out) as spool:
        spool.write(_csv_text([header, *rows]))


@contextlib.contextmanager
def _spooled(out: str | None) -> Iterator[TextIO]:
    """A temporary file for the CSV, copied to ``out`` (or stdout) once the block succeeds.

    The spool encodes as its destination will, so text the destination cannot
    take fails the block, and a failed block writes nothing.  No newline is
    translated, so the copy is the text as written.
    """
    encoding, errors = (sys.stdout.encoding, sys.stdout.errors) if out is None else (None, None)
    with tempfile.TemporaryFile("w+", encoding=encoding, errors=errors, newline="") as spool:
        try:
            yield spool
        except UnicodeEncodeError as exc:
            where = "stdout" if out is None else f"--out {out!r}"
            raise CliValidationError(f"cannot write the CSV to {where}: {exc}") from exc
        spool.seek(0)
        if out is None:
            shutil.copyfileobj(spool, sys.stdout)
            return
        try:
            with open(out, "w") as file:
                shutil.copyfileobj(spool, file)
        except OSError as exc:
            raise CliValidationError(f"cannot write --out {out!r}: {exc}") from exc


def _summary_stream(out: str | None):
    """The summary goes to stdout when the CSV went to a file, else to stderr."""
    return sys.stdout if out is not None else sys.stderr


def main(argv: Sequence[str] | None = None) -> int:
    # Once per process, as the module docstring explains.
    if not gc.get_freeze_count():
        gc.freeze()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
