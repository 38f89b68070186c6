"""Command line entry points: instance loading, CSV output, exit codes."""

from __future__ import annotations

import csv
import gc
import io
import itertools
import json
import locale
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import SIMPLEX_FAULTS
from ocselect import (
    FiniteLP,
    GuaranteeCheck,
    InstanceFormatError,
    LPSolution,
    build_primal_general,
    build_primal_tvd,
    load_instance,
    opt_online,
    parse_instance,
    randomized_value,
    rho_732,
    simplex_solve,
    solve_c_detection,
    tvd_exact,
)
from ocselect import cli, policies
from ocselect.cli import main

DATA_DIR = Path(__file__).resolve().parents[1] / "data"
TWO_BOX = str(DATA_DIR / "two_box.json")
FOUR_BOX = str(DATA_DIR / "four_box.json")

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def read_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def write_instance(tmp_path: Path, name: str, boxes: list[dict]) -> str:
    path = tmp_path / name
    path.write_text(json.dumps({"boxes": boxes}))
    return str(path)


def record_lane_values(monkeypatch, *modules) -> list[list[int]]:
    """Record the order of every lane that ``lane_values`` values, as called from ``modules``."""
    valued: list[list[int]] = []
    lane_values = policies.lane_values

    def recorded(policy_kind, instance, perm, rows, g0):
        valued.extend(perm[rows].tolist())
        return lane_values(policy_kind, instance, perm, rows, g0)

    for module in modules:
        monkeypatch.setattr(module, "lane_values", recorded)
    return valued


# Nested deeper than the JSON parser recurses, and an integer too large for a float.
DEEP_JSON = "[" * 5000 + "]" * 5000
HUGE_INT = "1" + "0" * 400
NOT_UTF8_ORDERS = b'[["\xff"]]'


def decode_error(raw: bytes) -> str:
    """The message of the error that reading ``raw`` as text in the locale's encoding raises."""
    with pytest.raises(UnicodeDecodeError) as decoding:
        raw.decode(locale.getpreferredencoding(False))
    return str(decoding.value)


def run_fresh_interpreter(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a new interpreter that imports this checkout's ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )


class TestLoader:
    def test_loads_bundled_two_box(self):
        instance = load_instance(TWO_BOX)
        assert [b.box_id for b in instance.boxes] == ["steady", "risky"]
        assert instance.boxes[1].dist.atoms[1][0] == 2.0

    def test_near_unit_mass_renormalizes_with_warning(self):
        text = json.dumps(
            {"boxes": [{"id": "a", "atoms": [[1.0, 0.5], [2.0, 0.4999999995]]}]}
        )
        with pytest.warns(RuntimeWarning):
            instance = parse_instance(text)
        probs = [p for _, p in instance.boxes[0].dist.atoms]
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-15)

    def test_mass_outside_tolerance_rejected(self):
        text = json.dumps({"boxes": [{"id": "a", "atoms": [[1.0, 0.5], [2.0, 0.4999]]}]})
        with pytest.raises(InstanceFormatError):
            parse_instance(text)

    def test_malformed_atom_names_the_box(self):
        text = json.dumps(
            {"boxes": [{"id": "fine", "atoms": [[1.0, 1.0]]}, {"id": "bad", "atoms": [[2.0]]}]}
        )
        with pytest.raises(InstanceFormatError, match="bad"):
            parse_instance(text)

    def test_duplicate_ids_rejected(self):
        text = json.dumps(
            {
                "boxes": [
                    {"id": "a", "atoms": [[1.0, 1.0]]},
                    {"id": "a", "atoms": [[2.0, 1.0]]},
                ]
            }
        )
        with pytest.raises(InstanceFormatError):
            parse_instance(text)

    def test_negative_value_rejected(self):
        text = json.dumps({"boxes": [{"id": "a", "atoms": [[-1.0, 1.0]]}]})
        with pytest.raises(InstanceFormatError):
            parse_instance(text)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InstanceFormatError):
            load_instance(str(tmp_path / "nope.json"))


class TestEvalCommand:
    def test_two_box_auto_target_clears_golden_floor(self, capsys):
        code = main(["eval", "--instance", TWO_BOX, "--policy", "tva", "--g0", "auto"])
        assert code == 0
        rows = read_rows(capsys.readouterr().out)
        assert [r["order_id"] for r in rows] == ["risky|steady", "steady|risky"]
        ratios = [float(r["ratio"]) for r in rows]
        assert min(ratios) >= 1.0 / PHI - 1e-9
        assert min(ratios) == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_known_optimum_target_is_exact_on_every_order(self, capsys):
        code = main(["eval", "--instance", FOUR_BOX, "--policy", "tva", "--g0", "opt"])
        assert code == 0
        rows = read_rows(capsys.readouterr().out)
        assert len(rows) == 24
        for row in rows:
            assert float(row["ratio"]) >= 1.0 - 1e-9
            assert float(row["ratio"]) <= 1.0 + 1e-9

    def test_opt_target_computes_each_optimum_once(self, monkeypatch, capsys):
        optima, starts = [], []
        lane_values = cli.lane_values

        def recorded(policy_kind, instance, perm, rows, g0):
            lanes = lane_values(policy_kind, instance, perm, rows, g0)
            if policy_kind == "opt":
                optima.extend(lanes.stages[:, 0].tolist())
            else:
                starts.extend(g0.tolist())
            return lanes

        monkeypatch.setattr(cli, "lane_values", recorded)
        code = main(["eval", "--instance", FOUR_BOX, "--policy", "tva", "--g0", "opt"])
        assert code == 0
        assert len(read_rows(capsys.readouterr().out)) == 24
        assert len(optima) == 24
        assert starts == optima

    def test_single_box_is_trivial(self, capsys, tmp_path):
        path = write_instance(tmp_path, "one.json", [{"id": "only", "atoms": [[1.0, 1.0]]}])
        code = main(["eval", "--instance", path, "--policy", "tva", "--g0", "0"])
        assert code == 0
        rows = read_rows(capsys.readouterr().out)
        assert len(rows) == 1
        assert float(rows[0]["ratio"]) == pytest.approx(1.0, abs=1e-12)

    def test_randomized_detecting_policy_clears_its_floor(self, capsys):
        code = main(["eval", "--instance", FOUR_BOX, "--policy", "tvd-rand-732"])
        assert code == 0
        rows = read_rows(capsys.readouterr().out)
        assert len(rows) == 24
        assert min(float(r["ratio"]) for r in rows) >= 0.732 - 2e-3

    def test_random_order_subset(self, capsys):
        code = main(
            [
                "eval",
                "--instance",
                FOUR_BOX,
                "--policy",
                "tva",
                "--g0",
                "auto",
                "--orders",
                "random:3",
                "--seed",
                "7",
            ]
        )
        assert code == 0
        rows = read_rows(capsys.readouterr().out)
        assert len(rows) == 3
        for row in rows:
            assert sorted(row["order_id"].split("|")) == ["a", "b", "c", "d"]

    def test_orders_file(self, capsys, tmp_path):
        orders_path = tmp_path / "orders.json"
        orders_path.write_text(json.dumps([["risky", "steady"]]))
        code = main(
            [
                "eval",
                "--instance",
                TWO_BOX,
                "--policy",
                "tva",
                "--g0",
                "auto",
                "--orders",
                f"file:{orders_path}",
            ]
        )
        assert code == 0
        rows = read_rows(capsys.readouterr().out)
        assert [r["order_id"] for r in rows] == ["risky|steady"]

    def test_out_file_and_summary_split(self, capsys, tmp_path):
        out = tmp_path / "report.csv"
        code = main(
            [
                "eval",
                "--instance",
                TWO_BOX,
                "--policy",
                "tva",
                "--g0",
                "auto",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "min_ratio=" in captured.out
        text = out.read_text()
        assert text.splitlines()[0] == "order_id,opt,value,ratio"
        assert len(read_rows(text)) == 2

    def test_eval_output_is_deterministic(self, tmp_path):
        outs = []
        for name in ("first.csv", "second.csv"):
            out = tmp_path / name
            code = main(
                [
                    "eval",
                    "--instance",
                    FOUR_BOX,
                    "--policy",
                    "tvd",
                    "--g0",
                    "auto",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_randomized_output_is_deterministic(self, tmp_path):
        outs = []
        for name in ("first.csv", "second.csv"):
            out = tmp_path / name
            args = ["eval", "--instance", FOUR_BOX, "--policy", "tvd-rand-732"]
            assert main(args + ["--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_chunked_orders_match_scalar_evaluators(self, capsys):
        count, seed, g0 = cli.LANE_CHUNK + 1, 11, 2.8
        argv = ["eval", "--instance", FOUR_BOX, "--policy", "tvd", "--g0", repr(g0)]
        assert main(argv + ["--orders", f"random:{count}", "--seed", str(seed)]) == 0
        instance = load_instance(FOUR_BOX)
        base = sorted(instance.ids)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["order_id", "opt", "value", "ratio"])
        switched = 0
        for i in range(count):
            order = tuple(base[j] for j in cli._stream(seed, i).permutation(len(base)))
            opt = opt_online(instance, order).stages[0, 0]
            result = tvd_exact(instance, order, g0)
            switched += result.switch_stage[0] >= 0
            cells = (opt, result.stages[0, 0], result.stages[0, 0] / opt)
            writer.writerow(["|".join(order), *(format(v, ".12g") for v in cells)])
        assert 0 < switched < count
        assert capsys.readouterr().out == expected.getvalue()

    def test_chunked_mixture_matches_the_scalar_mixture(self, monkeypatch, capsys):
        # About four pieces an order, so these orders' pieces fill more than
        # one LANE_CHUNK pass.
        count, seed = cli.LANE_CHUNK // 3, 5
        passes = []
        lane_values = policies.lane_values

        def counted(policy_kind, instance, perm, rows, g0):
            passes.append(rows.size)
            return lane_values(policy_kind, instance, perm, rows, g0)

        monkeypatch.setattr(policies, "lane_values", counted)
        argv = ["eval", "--instance", FOUR_BOX, "--policy", "tvd-rand-732"]
        assert main(argv + ["--orders", f"random:{count}", "--seed", str(seed)]) == 0
        assert len(passes) > 1 and max(passes) == cli.LANE_CHUNK
        instance = load_instance(FOUR_BOX)
        base = sorted(instance.ids)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["order_id", "opt", "value", "ratio"])
        for i in range(count):
            order = tuple(base[j] for j in cli._stream(seed, i).permutation(len(base)))
            opt = opt_online(instance, order).stages[0, 0]
            value = randomized_value(instance, order, rho_732(), policy_kind="tvd")
            cells = (opt, value, value / opt)
            writer.writerow(["|".join(order), *(format(v, ".12g") for v in cells)])
        assert capsys.readouterr().out == expected.getvalue()

    @pytest.mark.parametrize(
        "ids", [("a,b", 'say "hi"', "c d", "e"), ("c d", "e f", "g"), ("r\ry", 'q"', "\u00e9")]
    )
    def test_order_ids_are_written_as_csv_writer_writes_them(self, ids, capsys, tmp_path):
        boxes = [
            {"id": box_id, "atoms": [[0.0, 0.5], [1.0 + k, 0.5]]} for k, box_id in enumerate(ids)
        ]
        path = write_instance(tmp_path, "quoted.json", boxes)
        instance = load_instance(path)
        picked = list(itertools.permutations(ids))[::-5]
        orders_path = tmp_path / "orders.json"
        orders_path.write_text(json.dumps(picked))
        argv = ["eval", "--instance", path, "--policy", "tvd", "--g0", "1.5"]
        for spec, orders in (
            ("all", list(itertools.permutations(sorted(ids)))),
            (f"file:{orders_path}", picked),
        ):
            assert main(argv + ["--orders", spec]) == 0
            expected = io.StringIO()
            writer = csv.writer(expected, lineterminator="\n")
            writer.writerow(["order_id", "opt", "value", "ratio"])
            ratios = []
            for order in orders:
                opt = opt_online(instance, order).stages[0, 0]
                value = tvd_exact(instance, order, 1.5).stages[0, 0]
                ratios.append(value / opt)
                cells = (opt, value, ratios[-1])
                writer.writerow(["|".join(order), *(format(v, ".12g") for v in cells)])
            captured = capsys.readouterr()
            assert captured.out == expected.getvalue()
            argmin = "|".join(orders[ratios.index(min(ratios))])
            assert captured.err.endswith(f" argmin={argmin}\n")
            # The file gets the same text, with no newline translated on the way.
            out = tmp_path / "report.csv"
            assert main(argv + ["--orders", spec, "--out", str(out)]) == 0
            encoding = locale.getpreferredencoding(False)
            assert out.read_bytes() == expected.getvalue().encode(encoding)
            assert capsys.readouterr().out.endswith(f" argmin={argmin}\n")

    def test_batch_formatter_equals_fmt_on_edge_doubles(self):
        tiny, huge = 5e-324, sys.float_info.max
        edges = [0.0, -0.0, math.inf, -math.inf, math.nan, tiny, -tiny, huge, -huge]
        edges += [sys.float_info.min, 1.0, 0.1, 1 / 3, 999999999999.5, 1e16, 0.5 - 1e-17]
        bits = np.random.default_rng(16).integers(0, 2**64, 3000, dtype=np.uint64)
        values = np.concatenate((edges, bits.view(np.float64)))
        columns = values, values[::-1], np.roll(values, 1)
        ids = [f"o{i}" for i in range(values.size)]
        got = cli._format_rows("%s,%.12g,%.12g,%.12g\n", ids, *columns)
        rows = zip(ids, *(column.tolist() for column in columns))
        want = "".join(f"{i},{cli._fmt(a)},{cli._fmt(b)},{cli._fmt(c)}\n" for i, a, b, c in rows)
        assert got == want

    def test_cli_paths_leave_numpy_ma_unimported(self):
        script = (
            "import sys\n"
            "from ocselect.cli import main\n"
            f"assert main(['eval', '--instance', {FOUR_BOX!r}, '--policy', 'tvd']) == 0\n"
            f"assert main(['simulate', '--instance', {FOUR_BOX!r}, '--policy', 'tvd',"
            " '--runs', '1000', '--seed', '1']) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = run_fresh_interpreter(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_eval_memory_does_not_grow_with_the_number_of_orders(self, capsys, tmp_path):
        boxes = [
            {"id": f"b{i}", "atoms": [[float(i + 1), 0.5], [float(2 * i + 3), 0.5]]}
            for i in range(8)
        ]
        path = write_instance(tmp_path, "eight.json", boxes)
        out = tmp_path / "report.csv"
        argv = ["eval", "--instance", path, "--policy", "tvd", "--g0", "auto", "--seed", "1"]
        argv += ["--out", str(out)]
        # Allocations made once per process happen here, before tracing.
        assert main(argv + ["--orders", "random:2"]) == 0
        peaks, sizes = [], []
        for orders in ("random:2048", "all"):
            tracemalloc.start()
            tracemalloc.reset_peak()
            try:
                assert main(argv + ["--orders", orders]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            sizes.append(out.stat().st_size)
        # All 40,320 orders write 1.9 MB more CSV than 2,048 orders.  Holding
        # the text in memory raises the traced peak by about as much (from
        # 1.30 to 3.14 MB, Python 3.11, numpy 2.4); spooling it leaves the
        # peak within a chunk's allocations of the smaller run's.
        assert sizes[1] - sizes[0] > 1_800_000
        assert peaks[1] - peaks[0] < 256 * 1024, peaks


class TestEvalValidation:
    def test_enumeration_guard_trips(self, capsys, tmp_path):
        boxes = [{"id": f"b{i:02d}", "atoms": [[float(i + 1), 1.0]]} for i in range(12)]
        path = write_instance(tmp_path, "wide.json", boxes)
        code = main(["eval", "--instance", path, "--policy", "tva", "--g0", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_guarded_instance_still_works_with_random_orders(self, capsys, tmp_path):
        boxes = [{"id": f"b{i:02d}", "atoms": [[float(i + 1), 1.0]]} for i in range(12)]
        path = write_instance(tmp_path, "wide.json", boxes)
        code = main(
            [
                "eval",
                "--instance",
                path,
                "--policy",
                "tva",
                "--g0",
                "0",
                "--orders",
                "random:4",
                "--seed",
                "5",
            ]
        )
        assert code == 0
        assert len(read_rows(capsys.readouterr().out)) == 4

    def test_random_orders_need_seed(self, capsys):
        code = main(
            ["eval", "--instance", TWO_BOX, "--policy", "tva", "--g0", "0", "--orders", "random:2"]
        )
        assert code == 2

    def test_sta_needs_tau(self):
        assert main(["eval", "--instance", TWO_BOX, "--policy", "sta"]) == 2
        assert main(["eval", "--instance", TWO_BOX, "--policy", "sta", "--g0", "1"]) == 2

    def test_targeted_policies_reject_tau(self):
        code = main(["eval", "--instance", TWO_BOX, "--policy", "tva", "--tau", "1.0"])
        assert code == 2

    def test_bad_g0_string(self):
        code = main(["eval", "--instance", TWO_BOX, "--policy", "tva", "--g0", "soon"])
        assert code == 2

    def test_negative_g0(self):
        code = main(["eval", "--instance", TWO_BOX, "--policy", "tva", "--g0", "-1"])
        assert code == 2

    def test_bad_orders_spec(self):
        code = main(
            ["eval", "--instance", TWO_BOX, "--policy", "tva", "--g0", "0", "--orders", "bogus"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "text,message",
        [
            (
                "{",
                "instance file is not valid JSON: Expecting property name enclosed in "
                "double quotes: line 1 column 2 (char 1)",
            ),
            ("[]", 'instance file needs a top-level "boxes" list'),
            ('{"boxes": []}', '"boxes" must be a nonempty list'),
            ('{"boxes": [3]}', "box #0: each box must be an object"),
            ('{"boxes": [{"atoms": [[1.0, 1.0]]}]}', "box #0: missing or empty id"),
            ('{"boxes": [{"id": "a"}]}', "box 'a': missing or empty atoms"),
            (
                '{"boxes": [{"id": "a", "atoms": [[1.0, 1.5]]}]}',
                "box 'a': probability 1.5 must be in (0, 1]",
            ),
            (
                f'{{"boxes": [{{"id": "a", "atoms": [[{HUGE_INT}, 1.0]]}}]}}',
                "box 'a': value inf must be finite and >= 0",
            ),
            (
                f'{{"boxes": [{{"id": "a", "atoms": [[1.0, {HUGE_INT}]]}}]}}',
                "box 'a': probability inf must be in (0, 1]",
            ),
            (
                DEEP_JSON,
                "instance file is not valid JSON: maximum recursion depth exceeded "
                "while decoding a JSON array from a unicode string",
            ),
        ],
        ids=(
            "invalid-json",
            "no-boxes",
            "empty-boxes",
            "box-not-object",
            "missing-id",
            "missing-atoms",
            "probability-above-one",
            "huge-value",
            "huge-probability",
            "deep-nesting",
        ),
    )
    def test_malformed_instance_file(self, text, message, capsys, tmp_path):
        path = tmp_path / "instance.json"
        path.write_text(text)
        assert main(["eval", "--instance", str(path), "--policy", "tvd"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_instance_file_not_in_the_locale_encoding_is_named(self, capsys, tmp_path):
        raw = b'{"boxes": [{"id": "\xff", "atoms": [[1.0, 1.0]]}]}'
        path = tmp_path / "instance.json"
        path.write_bytes(raw)
        assert main(["eval", "--instance", str(path), "--policy", "tvd"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot read instance file {path}: {decode_error(raw)}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "content,message",
        [
            (
                None,
                "cannot read orders file {path!r}: [Errno 2] No such file or directory: {path!r}",
            ),
            (b"{}", "orders file must be a nonempty JSON list of id lists"),
            (b"[[1, 2]]", "orders file entry [1, 2] is not a list of ids"),
            (b"[]", "orders file must be a nonempty JSON list of id lists"),
            (
                DEEP_JSON.encode(),
                "cannot read orders file {path!r}: maximum recursion depth exceeded "
                "while decoding a JSON array from a unicode string",
            ),
            (NOT_UTF8_ORDERS, "cannot read orders file {path!r}: {decoding}"),
        ],
        ids=("missing", "object", "ints", "empty", "deep-nesting", "not-utf8"),
    )
    def test_malformed_orders_file(self, content, message, capsys, tmp_path):
        path = tmp_path / "orders.json"
        if content is not None:
            path.write_bytes(content)
        argv = ["eval", "--instance", FOUR_BOX, "--policy", "tvd", "--orders", f"file:{path}"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        expected = message.format(path=str(path), decoding=decode_error(NOT_UTF8_ORDERS))
        assert captured.err == f"error: {expected}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("random:x", "--orders random:K needs an integer K"),
            ("random:0", "--orders random:K needs K >= 1"),
        ],
    )
    def test_bad_random_count(self, spec, message, capsys):
        argv = ["eval", "--instance", FOUR_BOX, "--policy", "tvd", "--seed", "1"]
        assert main(argv + ["--orders", spec]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_unknown_id_in_orders_file(self, tmp_path):
        orders_path = tmp_path / "orders.json"
        orders_path.write_text(json.dumps([["risky", "mystery"]]))
        code = main(
            [
                "eval",
                "--instance",
                TWO_BOX,
                "--policy",
                "tva",
                "--g0",
                "auto",
                "--orders",
                f"file:{orders_path}",
            ]
        )
        assert code == 2

    def test_bad_third_order_in_file_is_validation_error(self, capsys, tmp_path):
        orders_path = tmp_path / "orders.json"
        good = ["a", "b", "c", "d"]
        orders_path.write_text(json.dumps([good, good[::-1], ["a", "b", "c"], good]))
        argv = ["eval", "--instance", FOUR_BOX, "--policy", "tvd", "--g0", "opt"]
        assert main(argv + ["--orders", f"file:{orders_path}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: order ('a', 'b', 'c') is not a permutation of instance ids "
            "('a', 'b', 'c', 'd')\n"
        )
        # Every flag is checked before any order is read, so a bad --g0 is reported instead.
        argv[-1] = "abc"
        assert main(argv + ["--orders", f"file:{orders_path}"]) == 2
        assert "--g0 must be a float" in capsys.readouterr().err

    @pytest.mark.parametrize("policy", ["tva-rand-656", "tvd-rand-732"])
    def test_bad_third_order_fails_the_mixtures_before_valuing_its_chunk(
        self, policy, monkeypatch, capsys, tmp_path
    ):
        orders_path = tmp_path / "orders.json"
        good = ["a", "b", "c", "d"]
        orders_path.write_text(json.dumps([good, good[::-1], ["a", "b", "c"], good]))
        valued = record_lane_values(monkeypatch, cli, policies)
        out = tmp_path / "report.csv"
        argv = ["eval", "--instance", FOUR_BOX, "--policy", policy, "--out", str(out)]
        assert main(argv + ["--orders", f"file:{orders_path}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == (
            "error: order ('a', 'b', 'c') is not a permutation of instance ids "
            "('a', 'b', 'c', 'd')\n"
        )
        assert valued == []

    def test_eval_grid_flag_is_usage_error(self):
        args = ["eval", "--instance", FOUR_BOX, "--policy", "tvd-rand-732"]
        assert main(args + ["--grid", "400"]) == 1

    def test_verify_density_grid_flag_is_usage_error(self):
        assert main(["verify-density", "--grid", "4001"]) == 1

    def test_hardness_dual_grid_flag_is_usage_error(self):
        assert main(["hardness", "--dual-grid", "10000"]) == 1

    @staticmethod
    def inflate_lane_values(monkeypatch):
        exact = cli.lane_values

        def inflated(policy_kind, instance, perm, rows, g0):
            # The optimum stays exact, so the ratio of the inflated value exceeds 1.
            result = exact(policy_kind, instance, perm, rows, g0)
            if policy_kind == "opt":
                return result
            return result._replace(stages=1.5 * result.stages)

        monkeypatch.setattr(cli, "lane_values", inflated)

    def test_value_above_optimum_is_rejected(self, monkeypatch, capsys):
        self.inflate_lane_values(monkeypatch)
        code = main(["eval", "--instance", FOUR_BOX, "--policy", "tva", "--g0", "auto"])
        assert code == 2
        assert "outside [0, 1]" in capsys.readouterr().err

    def test_failed_ratio_check_writes_no_out_file(self, monkeypatch, capsys, tmp_path):
        self.inflate_lane_values(monkeypatch)
        out = tmp_path / "report.csv"
        argv = ["eval", "--instance", FOUR_BOX, "--policy", "tva", "--g0", "auto"]
        assert main(argv + ["--out", str(out)]) == 2
        assert "outside [0, 1]" in capsys.readouterr().err
        assert not out.exists()
        # An existing file is left as it was, and no CSV goes to stdout either.
        out.write_bytes(b"earlier,report\r\n\xff")
        assert main(argv + ["--out", str(out)]) == 2
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("outside [0, 1]") == 2
        assert out.read_bytes() == b"earlier,report\r\n\xff"

    def test_unencodable_id_leaves_out_and_stdout_untouched(self, capsys, tmp_path):
        # A lone surrogate is valid JSON, but no strict encoder takes it.
        boxes = [
            {"id": "x\ud800", "atoms": [[1.0, 1.0]]},
            {"id": "y", "atoms": [[0.0, 0.5], [2.0, 0.5]]},
        ]
        path = write_instance(tmp_path, "surrogate.json", boxes)
        assert load_instance(path).ids == ("x\ud800", "y")
        out = tmp_path / "report.csv"
        out.write_bytes(b"earlier,report\r\n\xff")
        argv = ["eval", "--instance", path, "--policy", "tva", "--g0", "auto"]
        assert main(argv + ["--out", str(out)]) == 2
        assert out.read_bytes() == b"earlier,report\r\n\xff"
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: cannot write the CSV to --out")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: cannot write the CSV to stdout")

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--instance", TWO_BOX, "--policy", "tva", "--g0", "auto"],
            ["hardness"],
        ],
    )
    def test_unwritable_out_is_validation_error(self, argv, capsys, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_pipe_in_id_writes_no_csv(self, capsys, tmp_path):
        boxes = [
            {"id": box_id, "atoms": [[0.0, 0.5], [1.0 + k, 0.5]]}
            for k, box_id in enumerate(("a", "b", "a|b"))
        ]
        path = write_instance(tmp_path, "pipe.json", boxes)
        # "|" joins ids into order ids: with a, b and a|b, two orders would read a|b|a|b.
        with pytest.raises(InstanceFormatError, match=r"box 'a\|b'"):
            load_instance(path)
        out = tmp_path / "report.csv"
        argv = ["eval", "--instance", path, "--policy", "tvd", "--g0", "auto", "--orders", "all"]
        assert main(argv + ["--out", str(out)]) == 2
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error: box 'a|b': id must not contain '|'") == 2
        assert not out.exists()

    def test_missing_required_flag_is_usage_error(self):
        assert main(["eval", "--instance", TWO_BOX]) == 1

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 1


class TestSharedFlags:
    """``eval`` and ``simulate`` check --tau and --seed alike, naming the flag."""

    @pytest.mark.parametrize("tau", ["inf", "nan", "-1"])
    @pytest.mark.parametrize("command", ["eval", "simulate"])
    def test_tau_must_be_finite_and_nonnegative(self, command, tau, capsys):
        argv = [command, "--instance", FOUR_BOX, "--policy", "sta", "--tau", tau, "--seed", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --tau must be finite and nonnegative\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--instance", FOUR_BOX, "--policy", "tvd", "--orders", "random:3"],
            ["simulate", "--instance", FOUR_BOX, "--policy", "tvd", "--runs", "10"],
        ],
        ids=("eval", "simulate"),
    )
    def test_negative_seed_is_rejected(self, argv, capsys):
        assert main(argv + ["--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --seed must be >= 0\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "g0,message",
        [
            ("soon", "--g0 must be a float, 'auto', or 'opt', got 'soon'"),
            ("-1", "--g0 must be finite and nonnegative"),
            ("nan", "--g0 must be finite and nonnegative"),
        ],
        ids=("soon", "negative", "nan"),
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--instance", FOUR_BOX, "--policy", "tvd"],
            ["simulate", "--instance", FOUR_BOX, "--policy", "tvd", "--runs", "10", "--seed", "1"],
        ],
        ids=("eval", "simulate"),
    )
    def test_bad_g0_is_rejected_before_any_lane(self, argv, g0, message, monkeypatch, capsys):
        valued = record_lane_values(monkeypatch, cli)
        assert main(argv + ["--g0", g0]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert valued == []

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["eval", "--policy", "sta", "--tau", "1", "--g0", "1"],
                "policy 'sta' takes --tau, not --g0",
            ),
            (
                ["simulate", "--policy", "sta", "--tau", "1", "--g0", "1", "--seed", "1"],
                "policy 'sta' takes --tau, not --g0",
            ),
            (
                ["eval", "--policy", "tva-rand-656", "--g0", "1"],
                "policy 'tva-rand-656' draws its starting target from a density; "
                "--g0 and --tau do not apply",
            ),
            (
                ["eval", "--policy", "tvd-rand-732", "--tau", "1"],
                "policy 'tvd-rand-732' draws its starting target from a density; "
                "--g0 and --tau do not apply",
            ),
        ],
        ids=("eval-sta-g0", "simulate-sta-g0", "eval-mixture-g0", "eval-mixture-tau"),
    )
    def test_a_start_flag_the_policy_does_not_take_is_rejected(self, argv, message, capsys):
        assert main(argv + ["--instance", FOUR_BOX]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


class TestHardnessCommand:
    def test_default_run_is_clean(self, capsys):
        code = main(["hardness"])
        assert code == 0
        rows = read_rows(capsys.readouterr().out)
        assert [r["bound"] for r in rows] == [
            "general-dual",
            "detection-dual",
            "general-primal",
            "detection-primal",
        ]
        by_name = {r["bound"]: r for r in rows}
        assert float(by_name["general-dual"]["value"]) == pytest.approx(
            0.8292693210370199, abs=1e-9
        )
        assert float(by_name["detection-dual"]["value"]) == pytest.approx(
            0.7581835229538507, abs=1e-9
        )
        assert float(by_name["general-primal"]["value"]) == pytest.approx(
            0.8284067709324809, abs=1e-9
        )
        assert float(by_name["detection-primal"]["value"]) == pytest.approx(
            0.7582341449730822, abs=1e-9
        )
        for name in ("general-dual", "detection-dual"):
            assert float(by_name[name]["residual"]) <= 1e-8

    def test_primal_residual_is_the_solver_residual(self, capsys):
        assert main(["hardness"]) == 0
        rows = read_rows(capsys.readouterr().out)
        step = float(rows[2]["grid"])
        programs = {
            "general-primal": build_primal_general(step),
            "detection-primal": build_primal_tvd(solve_c_detection(), step),
        }
        for row in rows[2:]:
            lp = programs[row["bound"]]
            z = np.array(simplex_solve(lp).solution)
            residual = max(0.0, float(np.max(np.array(lp.rows) @ z - np.array(lp.rhs))))
            assert float(row["residual"]) == pytest.approx(residual, rel=1e-11, abs=0.0)
            assert 0.0 <= float(row["residual"]) <= 1e-8

    def test_refine_adds_monotone_rows(self, capsys):
        code = main(["hardness", "--refine"])
        assert code == 0
        rows = read_rows(capsys.readouterr().out)
        assert len(rows) == 8
        general = [float(r["value"]) for r in rows if r["bound"] == "general-primal"]
        detection = [float(r["value"]) for r in rows if r["bound"] == "detection-primal"]
        assert len(general) == len(detection) == 3
        assert general[0] < general[1] < general[2]
        assert detection[0] > detection[1] > detection[2]

    def test_injected_error_flips_exit_code(self, capsys):
        code = main(["hardness", "--inject-certificate-error", "1e-3"])
        assert code == 3
        assert "violation" in capsys.readouterr().err

    @pytest.mark.parametrize("error", ["nan", "inf"])
    def test_non_finite_injected_error_rejected(self, error, capsys):
        assert main(["hardness", "--inject-certificate-error", error]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    def test_numerical_failure_exits_4(self, monkeypatch, capsys):
        def failing(lp):
            raise ArithmeticError("solution fails post-check, residual 1e-03")

        monkeypatch.setattr(cli, "simplex_solve", failing)
        assert main(["hardness"]) == 4
        assert "post-check" in capsys.readouterr().err

    def test_an_unbounded_program_exits_4(self, monkeypatch, capsys):
        # max z s.t. -z <= 1 is unbounded.  The package builds every program
        # it solves, so this is an internal failure (exit 4), not bad input.
        unbounded = FiniteLP((1.0,), ((-1.0,),), (1.0,))
        monkeypatch.setattr(cli, "build_primal_general", lambda step: unbounded)
        assert main(["hardness"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unbounded" in captured.err

    def test_a_solve_stopped_short_of_the_optimum_exits_4(self, stop_simplex, capsys):
        # The solve stops after 10 pivots at a feasible vertex: the primal
        # post-check passes it and the duality check refuses it.
        stop_simplex(10)
        assert main(["hardness"]) == 4
        assert "optimality post-check" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", SIMPLEX_FAULTS)
    def test_a_tableau_breakdown_exits_4(self, fault, break_simplex, capsys):
        break_simplex(fault)
        assert main(["hardness"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "breaks down" in captured.err

    def test_rejects_bad_lp_step(self):
        assert main(["hardness", "--lp-step", "0.2"]) == 2
        assert main(["hardness", "--lp-step", "0"]) == 2

    def test_rejects_an_lp_step_whose_tableau_is_too_large(self, capsys):
        assert main(["hardness", "--lp-step", "1e-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    @pytest.mark.parametrize(
        "argv", [[], ["--lp-step", "0.001"], ["--refine", "--lp-step", "0.001"]]
    )
    def test_tableau_cap_accepts_the_shipped_steps(self, argv, monkeypatch):
        # Only the flag check is under test, so no program is solved.
        monkeypatch.setattr(cli, "build_primal_general", lambda step: step)
        monkeypatch.setattr(cli, "build_primal_tvd", lambda c, step: step)
        monkeypatch.setattr(cli, "simplex_solve", lambda lp: LPSolution(0.5, (), 0.0, 0))
        assert main(["hardness"] + argv) == 0


class TestSimulateCommand:
    def test_deterministic_case_pins_z_to_zero(self, capsys, tmp_path):
        path = write_instance(tmp_path, "one.json", [{"id": "only", "atoms": [[1.0, 1.0]]}])
        code = main(
            [
                "simulate",
                "--instance",
                path,
                "--policy",
                "tva",
                "--g0",
                "0",
                "--runs",
                "500",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        row = read_rows(capsys.readouterr().out)[0]
        assert row == {
            "runs": "500",
            "empirical_mean": "1",
            "exact_value": "1",
            "std_error": "0",
            "z_score": "0",
        }

    def test_same_seed_reproduces_bytes(self, tmp_path):
        blobs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = main(
                [
                    "simulate",
                    "--instance",
                    TWO_BOX,
                    "--policy",
                    "tva",
                    "--g0",
                    "auto",
                    "--order",
                    "risky,steady",
                    "--runs",
                    "2000",
                    "--seed",
                    "11",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("low, high", [(1e199, 1e200), (1e308, 1.7e308)], ids=("e200", "e308"))
    def test_huge_values_give_finite_statistics(self, tmp_path, low, high):
        # The squares of 1e200 overflow, and so does a sum of 1,000 draws near
        # 1.7e308; numpy would warn on stderr and the row read inf or nan.
        boxes = [{"id": "a", "atoms": [[0.0, 0.5], [high, 0.5]]}, {"id": "b", "atoms": [[low, 1.0]]}]
        path = write_instance(tmp_path, "huge.json", boxes)
        argv = ["simulate", "--instance", path, "--policy", "tvd", "--seed", "1", "--runs", "1000"]
        proc = run_fresh_interpreter(
            f"import sys; from ocselect.cli import main; sys.exit(main({argv!r}))"
        )
        assert proc.returncode == 0, proc.stderr
        row = read_rows(proc.stdout)[0]
        for column in ("empirical_mean", "std_error", "z_score"):
            assert math.isfinite(float(row[column])), row
        summary = f"runs=1000 mean={row['empirical_mean']} exact={row['exact_value']}"
        assert proc.stderr == f"{summary} z={row['z_score']}\n"

    def test_sampler_agrees_with_exact_value(self, capsys):
        code = main(
            [
                "simulate",
                "--instance",
                TWO_BOX,
                "--policy",
                "tva",
                "--g0",
                "auto",
                "--order",
                "risky,steady",
                "--runs",
                "2000",
                "--seed",
                "11",
            ]
        )
        assert code == 0
        row = read_rows(capsys.readouterr().out)[0]
        assert float(row["exact_value"]) == pytest.approx(1.0, abs=1e-12)
        assert abs(float(row["z_score"])) <= 4.0

    def test_different_seed_changes_the_sample(self, tmp_path):
        blobs = []
        for seed in ("11", "12"):
            out = tmp_path / f"seed{seed}.csv"
            code = main(
                [
                    "simulate",
                    "--instance",
                    TWO_BOX,
                    "--policy",
                    "tva",
                    "--g0",
                    "auto",
                    "--order",
                    "risky,steady",
                    "--runs",
                    "2000",
                    "--seed",
                    seed,
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] != blobs[1]

    @pytest.mark.parametrize("top,z", [(0.001, "-inf"), (0.999, "inf")])
    def test_equal_samples_off_the_exact_value_sign_the_z_score(self, top, z, capsys, tmp_path):
        # Both runs take the same value; the infinite z-score carries the sign
        # of the mean's error.
        atoms = [[0.0, 1.0 - top], [100.0, top]]
        path = write_instance(tmp_path, "one.json", [{"id": "x", "atoms": atoms}])
        argv = ["simulate", "--instance", path, "--policy", "sta", "--tau", "50"]
        assert main(argv + ["--runs", "2", "--seed", "1"]) == 0
        row = read_rows(capsys.readouterr().out)[0]
        assert row["std_error"] == "0" and row["z_score"] == z
        mean, exact = float(row["empirical_mean"]), float(row["exact_value"])
        assert (mean < exact) == (z == "-inf")

    def test_four_box_tvd_row_is_pinned(self, tmp_path):
        # The row the box-by-box replay printed for this command; the
        # vectorized sampler draws and resolves the same runs.
        out = tmp_path / "tvd.csv"
        argv = ["simulate", "--instance", str(DATA_DIR / "four_box.json"), "--policy", "tvd"]
        argv += ["--g0", "auto", "--runs", "100000", "--seed", "7", "--out", str(out)]
        assert main(argv) == 0
        assert out.read_text().splitlines()[1] == (
            "100000,2.40002,2.4,0.0012832211277,0.015585778295"
        )

    @pytest.mark.parametrize("runs", ["1", "0"])
    def test_runs_below_two_rejected(self, runs, capsys):
        argv = ["simulate", "--instance", TWO_BOX, "--policy", "tva", "--g0", "0"]
        assert main(argv + ["--runs", runs, "--seed", "3"]) == 2
        assert "--runs" in capsys.readouterr().err

    def test_seed_required_at_parser_level(self):
        code = main(["simulate", "--instance", TWO_BOX, "--policy", "tva", "--g0", "0"])
        assert code == 1

    @pytest.mark.parametrize(
        "policy",
        [
            ["sta", "--tau", "1.2"],
            ["tva", "--g0", "auto"],
            ["tva", "--g0", "opt"],
            ["tva", "--g0", "1.9"],
            ["tvd", "--g0", "auto"],
            ["tvd", "--g0", "opt"],
            ["tvd", "--g0", "1.9"],
        ],
        ids=" ".join,
    )
    def test_exact_value_is_the_eval_value(self, policy, capsys, tmp_path):
        orders_path = tmp_path / "orders.json"
        orders_path.write_text(json.dumps([["a", "b", "d", "c"]]))
        common = ["--instance", FOUR_BOX, "--policy", *policy]
        assert main(["eval", *common, "--orders", f"file:{orders_path}"]) == 0
        (evaluated,) = read_rows(capsys.readouterr().out)
        assert evaluated["order_id"] == "a|b|d|c"
        argv = ["simulate", *common, "--order", "a,b,d,c", "--runs", "2", "--seed", "1"]
        assert main(argv) == 0
        (simulated,) = read_rows(capsys.readouterr().out)
        assert simulated["exact_value"] == evaluated["value"]

    def test_order_file_names_ids_the_comma_form_cannot(self, capsys, tmp_path):
        boxes = [
            {"id": "a,b", "atoms": [[0.0, 0.5], [4.0, 0.5]]},
            {"id": " c", "atoms": [[1.0, 1.0]]},
        ]
        path = write_instance(tmp_path, "odd_ids.json", boxes)
        order_path = tmp_path / "order.json"
        order_path.write_text(json.dumps([[" c", "a,b"]]))
        common = ["--instance", path, "--policy", "tvd", "--g0", "auto"]
        argv = ["simulate", *common, "--runs", "2000", "--seed", "4"]
        assert main(argv + ["--order", "file:" + str(order_path)]) == 0
        (simulated,) = read_rows(capsys.readouterr().out)
        assert main(["eval", *common, "--orders", "file:" + str(order_path)]) == 0
        (evaluated,) = read_rows(capsys.readouterr().out)
        assert evaluated["order_id"] == " c|a,b"
        assert simulated["exact_value"] == evaluated["value"]
        # Split on commas and stripped, the same order names boxes c, a and b.
        assert main(argv + ["--order", " c,a,b"]) == 2
        assert "is not a permutation" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [0, 2])
    def test_order_file_must_hold_one_order(self, count, capsys, tmp_path):
        order_path = tmp_path / "order.json"
        order_path.write_text(json.dumps([["a", "b", "c", "d"]] * count))
        argv = ["simulate", "--instance", FOUR_BOX, "--policy", "tvd", "--seed", "1"]
        assert main(argv + ["--order", f"file:{order_path}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --order file must hold one order, got {count}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "name,message",
        [
            ("object", "--order file must be a nonempty JSON list of id lists"),
            ("ints", "--order file entry [1, 2] is not a list of ids"),
            (
                "deep",
                "cannot read --order file {path!r}: maximum recursion depth exceeded "
                "while decoding a JSON array from a unicode string",
            ),
        ],
        ids=("object", "ints", "deep-nesting"),
    )
    def test_malformed_order_file_names_the_flag(self, name, message, capsys, tmp_path):
        path = tmp_path / f"{name}.json"
        path.write_text({"object": "{}", "ints": "[[1, 2]]", "deep": DEEP_JSON}[name])
        argv = ["simulate", "--instance", FOUR_BOX, "--policy", "tvd", "--seed", "1"]
        assert main(argv + ["--order", f"file:{path}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message.format(path=str(path))}\n"
        assert captured.out == ""


class TestVerifyDensityCommand:
    def test_both_densities_clean(self, capsys):
        code = main(["verify-density"])
        assert code == 0
        rows = read_rows(capsys.readouterr().out)
        assert [r["density"] for r in rows] == ["rho-656", "rho-732"]
        for row in rows:
            assert float(row["min_ratio"]) >= float(row["gamma"]) - 1e-6
            assert abs(float(row["mass_residual"])) <= 1e-8

    def test_single_density_selection(self, capsys):
        code = main(["verify-density", "--density", "656"])
        assert code == 0
        rows = read_rows(capsys.readouterr().out)
        assert [r["density"] for r in rows] == ["rho-656"]
        assert float(rows[0]["gamma"]) == pytest.approx(0.6562802677328851, abs=1e-9)

    def test_nan_ratio_is_a_violation(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "verify_guarantee", lambda *a, **k: GuaranteeCheck(math.nan, 1.0))
        assert main(["verify-density"]) == 3
        assert "violation" in capsys.readouterr().err


class TestProcessHeap:
    def test_a_fresh_process_freezes_its_import_heap(self, tmp_path):
        fresh, here = tmp_path / "fresh.csv", tmp_path / "here.csv"
        script = (
            "import gc\n"
            "from ocselect.cli import main\n"
            "before = gc.get_freeze_count()\n"
            f"code = main(['verify-density', '--out', {str(fresh)!r}])\n"
            "print(code, before, gc.get_freeze_count())\n"
        )
        proc = run_fresh_interpreter(script)
        assert proc.returncode == 0, proc.stderr
        code, before, after = map(int, proc.stdout.splitlines()[-1].split())
        assert code == 0 and before == 0 and after > 0
        assert main(["verify-density", "--out", str(here)]) == 0
        assert fresh.read_bytes() == here.read_bytes()

    def test_only_the_first_call_freezes(self):
        class Node:
            pass

        argv = ["eval", "--instance", TWO_BOX, "--policy", "tva", "--g0", "auto"]
        assert main(argv) == 0
        frozen = gc.get_freeze_count()
        assert frozen > 0
        # With the collector off, the cycle is still pending garbage when main
        # is entered again: a freeze there would keep it for good.
        enabled = gc.isenabled()
        gc.disable()
        try:
            node = Node()
            node.self = node
            watch = weakref.ref(node)
            del node
            assert watch() is not None
            assert main(argv) == 0
        finally:
            if enabled:
                gc.enable()
        assert gc.get_freeze_count() == frozen
        gc.collect()
        assert watch() is None
