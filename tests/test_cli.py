"""Command-line interface: subcommands, formats, config echo, exit codes."""

from __future__ import annotations

import argparse
import csv
import importlib
import io
import json
import math
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from pinstacks.cli import TABLE1_ANGLES_DEG, main
from pinstacks.greens import SpectralPoint, greens
from pinstacks.modes import StackGeometry, assemble, dispersion_residual
from pinstacks.scattering import PinStack, scan

LIGHT_LINE_BETA = "6.283185307179586"   # 2 pi: order n = -1 on its light line
DATA = Path(__file__).resolve().parent / "data"
cli = importlib.import_module("pinstacks.cli")
greens_module = importlib.import_module("pinstacks.greens")
steering = importlib.import_module("pinstacks.steering")
scattering = importlib.import_module("pinstacks.scattering")


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _csv_rows(text):
    data = "\n".join(line for line in text.splitlines()
                     if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(data)))


def _counted_scans(monkeypatch) -> list:
    """The beta windows of every scan the CLI runs."""
    windows, columns = [], scattering._scan_columns

    def counted(stack, betas, *args):
        windows.append(betas)
        return columns(stack, betas, *args)

    monkeypatch.setattr(scattering, "_scan_columns", counted)
    return windows


def _counted_kernel(monkeypatch) -> list:
    """The argument tuples of every lattice-sum kernel call."""
    calls, kernel = [], greens_module._lattice_sums

    def counted(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(greens_module, "_lattice_sums", counted)
    return calls


def _cx(d):
    return complex(d["re"], d["im"])


class TestGreens:
    def test_point_value_json(self, capsys):
        code, out = _run(capsys, ["greens", "--beta", "2.7", "--alpha0", "1.2",
                                  "--x", "0.3", "--y", "0.4", "--no-timestamp"])
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha0"] == 1.2
        v = payload["value"]
        assert math.isfinite(v["re"]) and math.isfinite(v["im"])
        assert "generated" not in payload

    def test_angle_is_given_in_degrees(self, capsys):
        code, out = _run(capsys, ["greens", "--beta", "2.0", "--theta", "30",
                                  "--no-timestamp"])
        assert code == 0
        assert json.loads(out)["alpha0"] == pytest.approx(1.0, rel=1e-12)

    def test_convergence_estimate_bounds_the_truncation_error(self, capsys):
        base = ["greens", "--beta", "2.7", "--alpha0", "1.2", "--x", "0.37",
                "--no-timestamp"]
        _, out = _run(capsys, base + ["--n", "100"])
        coarse = json.loads(out)
        _, out = _run(capsys, base + ["--n", "1000"])
        fine = json.loads(out)
        diff = abs(complex(coarse["value"]["re"], coarse["value"]["im"])
                   - complex(fine["value"]["re"], fine["value"]["im"]))
        assert diff <= coarse["convergence_estimate"]

    def test_reports_the_window_the_kernel_sums(self, capsys):
        base = ["greens", "--beta", "3.61747", "--alpha0", "1.808735",
                "--no-timestamp"]
        # x = 0: the short window plus the closed-form tail
        _, out = _run(capsys, base)
        payload = json.loads(out)
        assert payload["n_terms"] == 20
        assert payload["convergence_estimate"] <= 1e-15
        # x != 0 on the line: the long window
        _, out = _run(capsys, base + ["--x", "0.3"])
        assert json.loads(out)["n_terms"] == 1000
        # an override below the kernel's minimum window is raised to it
        _, out = _run(capsys, base + ["--n", "3"])
        payload = json.loads(out)
        assert payload["n_terms"] > 3
        value = complex(payload["value"]["re"], payload["value"]["im"])
        point = SpectralPoint(1.808735, 3.61747)
        assert value == greens(point, 0.0, 0.0, n_terms=payload["n_terms"])

    def test_light_line_exit_code(self, capsys):
        code = main(["greens", "--beta", LIGHT_LINE_BETA, "--alpha0", "0.0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "LightLine" in err

    @pytest.mark.parametrize("options, message", [
        (["--y", "0.4", "--n", "1000000000000"], "n_terms must be at most 2^20"),
        (["--y", "0", "--n-self", "1000000000000"], "n_self must be at most 2^20")])
    def test_a_window_past_2_20_orders_exits_2(self, capsys, options, message):
        code = main(["greens", "--beta", "2.7", "--alpha0", "1.2", "--x", "0.3", *options])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and f"ValueError: {message}" in captured.err

    def test_refuses_a_negative_window_before_any_evaluation(self, capsys, monkeypatch):
        # it was raised to the kernel's minimum and reported as 10 orders
        calls = _counted_kernel(monkeypatch)
        code = main(["greens", "--beta", "3", "--alpha0", "1", "--n", "-3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "ValueError: n_terms must not be negative, got -3" in captured.err
        assert calls == []

    def test_convergence_estimate_at_huge_beta_compares_with_2_20_orders(self, capsys):
        # the least window at x = 0 passes 2^19 orders: N/2 is raised back
        # to N, and 2N would pass the 2^20 the kernel sums
        code, out = _run(capsys, ["greens", "--beta", "3e5", "--alpha0", "0",
                                  "--no-timestamp"])
        assert code == 0
        payload = json.loads(out)
        assert payload["n_terms"] == 763943
        assert payload["comparison_terms"] == 2**20

    def test_timestamp_header_present_by_default(self, capsys):
        _, out = _run(capsys, ["greens", "--beta", "2.7", "--alpha0", "1.2"])
        assert "generated" in json.loads(out)


def test_matrix_reports_consistent_eigensystem(capsys):
    code, out = _run(capsys, ["matrix", "--beta", "3.61747", "--theta", "30",
                              "--eta", "1.0", "--xi", "0.252", "--no-timestamp"])
    assert code == 0
    payload = json.loads(out)
    m11 = _cx(payload["entries"]["m11"])
    trace = sum(_cx(payload["eigenvalues"][k])
                for k in ("lambda_1", "lambda_minus", "lambda_plus"))
    assert abs(trace - 3.0 * m11) <= 1e-10 * abs(3.0 * m11)
    assert payload["dispersion"]["odd"] < 1e-5   # near the merged resonance
    assert len(payload["eigenvectors"]["v_odd"]) == 3


class TestDispersionGrid:
    def test_single_cell_matches_direct_evaluation(self, capsys):
        code, out = _run(capsys, [
            "dispersion-grid", "--alpha0-min", "2.1", "--alpha0-max", "2.1",
            "--alpha0-steps", "1", "--beta-min", "3.6", "--beta-max", "3.6",
            "--beta-steps", "1", "--eta", "1.0", "--no-timestamp"])
        assert code == 0
        rows = _csv_rows(out)
        assert len(rows) == 1 and rows[0]["status"] == "ok"
        direct = dispersion_residual(assemble(SpectralPoint(2.1, 3.6),
                                              StackGeometry(eta=1.0, xi=0.0)))
        assert float(rows[0]["log10_odd"]) == pytest.approx(
            direct.log10_odd, rel=1e-12)
        assert float(rows[0]["log10_even"]) == pytest.approx(
            direct.log10_even, rel=1e-12)

    @pytest.mark.parametrize("axis, steps, message", [
        ("alpha0", "0", "--alpha0-steps must be at least 1, got 0"),
        ("beta", "0", "--beta-steps must be at least 1, got 0"),
        ("alpha0", "-2", "--alpha0-steps must be at least 1, got -2"),
        ("alpha0", "1", "--alpha0-steps 1 takes one alpha0: --alpha0-min 1.58 "
                        "and --alpha0-max 1.75 differ"),
        ("beta", "1", "--beta-steps 1 takes one beta: --beta-min 3.57 "
                      "and --beta-max 3.63 differ")])
    def test_refuses_steps_that_miss_its_box_before_any_evaluation(
            self, capsys, monkeypatch, axis, steps, message):
        # no steps wrote a header-only table; one step dropped the box's max
        calls = _counted_kernel(monkeypatch)
        argv = ["dispersion-grid", "--alpha0-min", "1.58", "--alpha0-max", "1.75",
                "--alpha0-steps", "3", "--beta-min", "3.57", "--beta-max", "3.63",
                "--beta-steps", "3", "--eta", "1.0", "--no-timestamp"]
        argv[argv.index(f"--{axis}-steps") + 1] = steps
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and f"ValueError: {message}" in captured.err
        assert calls == []

    def test_crossing_trailer(self, capsys):
        code, out = _run(capsys, [
            "dispersion-grid", "--alpha0-min", "1.55", "--alpha0-max", "1.75",
            "--alpha0-steps", "9", "--beta-min", "3.55", "--beta-max", "3.65",
            "--beta-steps", "9", "--eta", "1.0", "--crossing",
            "--no-timestamp"])
        assert code == 0
        trailer = out.splitlines()[-1]
        assert trailer.startswith("# crossing alpha0=")
        fields = dict(part.split("=") for part in trailer[2:].split()[1:])
        assert 1.55 < float(fields["alpha0"]) < 1.75
        assert 3.55 < float(fields["beta"]) < 3.65

    def test_crossing_note_is_json_dumps_byte_for_byte(self, capsys):
        code, out = _run(capsys, [
            "dispersion-grid", "--alpha0-min", "1.55", "--alpha0-max", "1.75",
            "--alpha0-steps", "9", "--beta-min", "3.55", "--beta-max", "3.65",
            "--beta-steps", "9", "--eta", "1.0", "--crossing", "--format", "json",
            "--no-timestamp"])
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["rows", "note"] and len(payload["rows"]) == 81
        assert payload["note"].startswith("crossing alpha0=")
        assert out == json.dumps(payload, indent=2) + "\n"


class TestSpectrum:
    def test_empty_stack_rows(self, capsys):
        code, out = _run(capsys, [
            "spectrum", "--stack", "empty", "--alpha0", "0.5",
            "--beta-min", "2.0", "--beta-max", "2.1", "--resolution", "3",
            "--no-timestamp"])
        assert code == 0
        rows = _csv_rows(out)
        assert len(rows) == 3
        for row in rows:
            assert float(row["T"]) == 1.0
            assert row["status"] == "ok"

    def test_angle_rederives_alpha0_along_the_scan(self, capsys):
        _, out = _run(capsys, [
            "spectrum", "--stack", "single", "--theta", "30",
            "--beta-min", "3.0", "--beta-max", "3.2", "--resolution", "3",
            "--no-timestamp"])
        for row in _csv_rows(out):
            beta = float(row["beta"])
            assert float(row["alpha0"]) == pytest.approx(
                beta * 0.5, rel=1e-12)

    def test_per_order_columns(self, capsys):
        _, out = _run(capsys, [
            "spectrum", "--stack", "single", "--alpha0", "0.5",
            "--beta-min", "3.0", "--beta-max", "3.1", "--resolution", "3",
            "--per-order", "--no-timestamp"])
        rows = _csv_rows(out)
        assert "R_0" in rows[0] and "T_0" in rows[0]
        for row in rows:
            assert float(row["R_0"]) == pytest.approx(float(row["R"]),
                                                      rel=1e-12)

    def test_points_past_the_widest_window_are_failed_rows(self, capsys):
        code, out = _run(capsys, [
            "spectrum", "--stack", "triplet", "--eta", "1.0", "--xi", "0.252",
            "--theta", "30", "--beta-min", "1e15", "--beta-max", "1.0000000001e15",
            "--resolution", "3", "--no-timestamp"])
        assert code == 0
        assert [row["status"].startswith("ValueError: no window at")
                for row in _csv_rows(out)] == [True] * 3

    def test_stack_without_separation_fails_cleanly(self, capsys):
        code = main(["spectrum", "--stack", "pair", "--alpha0", "0.5",
                     "--beta-min", "3.0", "--beta-max", "3.1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--eta" in err

    def test_an_infinite_beta_bound_exits_2_with_no_row(self, capsys):
        # linspace over (3.3, inf) used to write NaN and inf rows, exit 0
        code = main(["spectrum", "--stack", "triplet", "--eta", "1.0", "--xi", "0.252",
                     "--beta-min", "3.3", "--beta-max", "inf", "--resolution", "5",
                     "--theta", "30", "--no-timestamp"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and "beta_range must be finite" in captured.err

    @pytest.mark.parametrize("options", [["--resolution", "1"],
                                         ["--refine", "--refine-jump", "0"]])
    def test_refuses_a_bad_scan_option_before_any_evaluation(self, capsys, monkeypatch,
                                                             options):
        calls = []
        monkeypatch.setattr(scattering, "scan", lambda *args, **kwargs: calls.append(args))
        code = main(["spectrum", "--stack", "single", "--alpha0", "0.5",
                     "--beta-min", "3.0", "--beta-max", "3.1", "--no-timestamp", *options])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and "must be" in captured.err
        assert calls == []

    def test_incidence_flags_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--stack", "single", "--alpha0", "0.5",
                  "--theta", "30", "--beta-min", "3.0", "--beta-max", "3.1"])
        assert exc.value.code == 2

    def test_deterministic_output_without_timestamp(self, capsys):
        argv = ["spectrum", "--stack", "empty", "--alpha0", "0.5",
                "--beta-min", "2.0", "--beta-max", "2.1", "--resolution", "3",
                "--no-timestamp"]
        _, first = _run(capsys, argv)
        _, second = _run(capsys, argv)
        assert first == second

    def test_failed_points_bytes_are_pinned(self, capsys):
        # a fixed-alpha0 spectrum whose first 11 points have no incident
        # wave (DomainError rows) and whose band ends with two propagating
        # orders, as written before scans became columns
        code, out = _run(capsys, ["spectrum", "--stack", "triplet", "--eta", "1.0", "--xi",
                                  "0.252", "--alpha0", "2.1", "--beta-min", "2.0",
                                  "--beta-max", "4.3", "--resolution", "231", "--per-order",
                                  "--format", "json", "--no-timestamp"])
        assert code == 0
        assert out == (DATA / "spectrum_alpha0.json").read_text()
        rows = json.loads(out)["rows"]
        assert sum(row["status"].startswith("DomainError") for row in rows) == 11
        assert sum(row["R_-1"] != "" for row in rows) > 0

    def test_refined_spectrum_bytes_are_pinned(self, capsys):
        # the 30-degree triplet refined by bisection: 13 midpoints beside the
        # 401 grid points, as written when each midpoint had a scan of its own
        code, out = _run(capsys, ["spectrum", "--stack", "triplet", "--eta", "1.0", "--xi",
                                  "0.252", "--theta", "30", "--beta-min", "3.3",
                                  "--beta-max", "3.9", "--resolution", "401", "--refine",
                                  "--format", "json", "--no-timestamp"])
        assert code == 0
        assert out == (DATA / "spectrum_refine.json").read_text()
        assert len(json.loads(out)["rows"]) == 414

    def test_pair_stack_rows_are_its_scan(self, capsys):
        code, out = _run(capsys, ["spectrum", "--stack", "pair", "--eta", "1.0", "--theta", "30",
                                  "--beta-min", "3.3", "--beta-max", "3.9", "--resolution", "7",
                                  "--format", "json", "--no-timestamp"])
        assert code == 0
        records = scan(PinStack.pair(1.0), np.linspace(3.3, 3.9, 7), theta_i=math.radians(30.0))
        assert json.loads(out)["rows"] == [
            {"beta": r.beta, "alpha0": r.alpha0, "T": r.T, "R": r.R,
             "energy_residual": r.energy_residual, "status": r.error or "ok"} for r in records]

    def test_mirrored_pair_spectrum_bytes_are_pinned(self, capsys):
        # the shifted triplet's entries G(xi, eta) and G(-xi, eta) at
        # negative alpha0, over a band where up to three orders propagate,
        # as written before the kernel summed one as the other's conjugate
        code, out = _run(capsys, ["spectrum", "--stack", "triplet", "--eta", "1.0", "--xi",
                                  "0.252", "--alpha0", "-1.8", "--beta-min", "3.3",
                                  "--beta-max", "9.0", "--resolution", "401", "--per-order",
                                  "--format", "json", "--no-timestamp"])
        assert code == 0
        assert out == (DATA / "spectrum_mirror.json").read_text()
        rows = json.loads(out)["rows"]
        assert all(row["status"] == "ok" for row in rows)
        counts = {sum(row[key] != "" for key in ("R_-1", "R_0", "R_1")) for row in rows}
        assert counts == {1, 2, 3}

    def test_singular_point_spectrum_bytes_are_pinned(self, capsys):
        # +-1e-9 around the 60-degree, m = 2 EDIT point, a window whose H is
        # interpolated: the point at its centre, where kappa_2(M) is 3.5e14
        # (it failed the condition test on M), has kappa_2(H) = 6.3e9 and
        # T = 0.99999996, and every point conserves energy to rounding
        code, out = _run(capsys, ["spectrum", "--stack", "triplet", "--eta",
                                  "4.2638919999563685", "--xi", "0.24989750370889235",
                                  "--theta", "60", "--beta-min", "2.9471596869739156",
                                  "--beta-max", "2.947159688973916", "--resolution", "1001",
                                  "--format", "json", "--no-timestamp"])
        assert code == 0
        assert out == (DATA / "spectrum_singular.json").read_text()
        rows = json.loads(out)["rows"]
        assert all(row["status"] == "ok" for row in rows)
        assert max(row["energy_residual"] for row in rows) <= 1e-13
        assert abs(rows[500]["T"] - 0.99999996) <= 1e-8

    def test_timestamp_header_line(self, capsys):
        argv = ["spectrum", "--stack", "empty", "--alpha0", "0.5",
                "--beta-min", "2.0", "--beta-max", "2.1", "--resolution", "3"]
        _, out = _run(capsys, argv)
        assert out.splitlines()[0].startswith("# generated ")

    def test_timestamped_json_is_json_dumps_byte_for_byte(self, capsys):
        code, out = _run(capsys, ["spectrum", "--stack", "triplet", "--eta", "1.0", "--xi",
                                  "0.252", "--theta", "30", "--beta-min", "3.3",
                                  "--beta-max", "3.9", "--resolution", "21", "--per-order",
                                  "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["generated", "rows"] and len(payload["rows"]) == 21
        assert out == json.dumps(payload, indent=2) + "\n"


class TestConfigEcho:
    def test_out_writes_data_and_config(self, tmp_path, capsys):
        out_file = tmp_path / "scan.csv"
        code, _ = _run(capsys, [
            "spectrum", "--stack", "single", "--alpha0", "0.5",
            "--beta-min", "3.0", "--beta-max", "3.1", "--resolution", "3",
            "--no-timestamp", "--out", str(out_file)])
        assert code == 0
        echo_file = tmp_path / "scan.csv.config.json"
        assert out_file.exists() and echo_file.exists()
        echo = json.loads(echo_file.read_text())
        assert echo["subcommand"] == "spectrum"
        assert echo["args"]["alpha0"] == 0.5
        assert "func" not in echo["args"]

    def test_config_rerun_is_byte_identical(self, tmp_path, capsys):
        out_file = tmp_path / "scan.csv"
        _run(capsys, [
            "spectrum", "--stack", "single", "--alpha0", "0.5",
            "--beta-min", "3.0", "--beta-max", "3.1", "--resolution", "3",
            "--no-timestamp", "--out", str(out_file)])
        snapshot = out_file.read_bytes()
        out_file.unlink()
        code, _ = _run(capsys, ["--config", str(out_file) + ".config.json"])
        assert code == 0
        assert out_file.read_bytes() == snapshot

    @pytest.mark.parametrize("argv", [
        ["greens", "--beta", "2.7", "--alpha0=-1e-05", "--x=-1e-05"],
        ["matrix", "--beta", "3.61747", "--eta", "1.0", "--theta=-1e-05", "--xi=-1e-05"],
        ["dispersion-grid", "--alpha0-min=-1e-05", "--alpha0-max", "1.75", "--alpha0-steps",
         "9", "--beta-min", "3.55", "--beta-max", "3.65", "--beta-steps", "9", "--eta", "1.0",
         "--crossing"],
        ["spectrum", "--theta=-1e-05", "--per-order", "--eta", "1.0", "--xi", "0.252",
         "--beta-min", "3.3", "--beta-max", "9.0", "--resolution", "41"],
        ["steer", "--theta", "-0.00001", "30", "--no-modes"],
        ["steer", "--theta=-inf"],
        ["steer", "--theta", "30", " -inf", "--no-modes"],
    ], ids=["greens", "matrix", "dispersion-grid", "spectrum", "steer", "steer -inf",
            "steer list with -inf"])
    def test_every_subcommand_replays_its_echo_byte_for_byte(self, tmp_path, capsys, argv):
        # argparse reads -1e-05 and -inf as options: the echo's words must not
        out_file = tmp_path / "out"
        echo_file = Path(str(out_file) + ".config.json")
        code, _ = _run(capsys, [*argv, "--no-timestamp", "--out", str(out_file)])
        assert code == 0
        snapshot, echo = out_file.read_bytes(), echo_file.read_bytes()
        out_file.unlink()
        code, _ = _run(capsys, ["--config", str(echo_file)])
        assert code == 0
        assert out_file.read_bytes() == snapshot
        assert echo_file.read_bytes() == echo
        assert b"crossing" in snapshot or argv[0] != "dispersion-grid"

    @pytest.mark.parametrize("text", [None, "{not json", '{"subcommand": ["steer"], "args": {}}'],
                             ids=["missing", "not JSON", "list for subcommand"])
    def test_refuses_a_malformed_config_file_before_any_evaluation(self, tmp_path, capsys,
                                                                   monkeypatch, text):
        # each died with a traceback and exit 1
        monkeypatch.setattr(steering, "steer", lambda *args, **kwargs: pytest.fail("steer ran"))
        bad = tmp_path / "bad.config.json"
        if text is not None:
            bad.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(bad)])
        assert exc.value.code == 2
        assert str(bad) in capsys.readouterr().err

    def test_rejects_non_echo_json(self, tmp_path, capsys):
        bogus = tmp_path / "notes.json"
        bogus.write_text(json.dumps({"hello": 1}))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(bogus)])
        assert exc.value.code == 2

    @staticmethod
    def _echo(tmp_path, capsys) -> tuple[Path, bytes, dict]:
        out_file = tmp_path / "scan.json"
        code, _ = _run(capsys, [
            "spectrum", "--stack", "single", "--alpha0", "0.5",
            "--beta-min", "3.0", "--beta-max", "3.1", "--resolution", "3",
            "--format", "json", "--no-timestamp", "--out", str(out_file)])
        assert code == 0
        snapshot = out_file.read_bytes()
        out_file.unlink()
        echo_file = Path(str(out_file) + ".config.json")
        return out_file, snapshot, json.loads(echo_file.read_text())

    def test_echo_without_a_later_option_replays_with_its_default(self, tmp_path, capsys):
        # an echo written before --per-order existed
        out_file, snapshot, echo = self._echo(tmp_path, capsys)
        assert echo["args"].pop("per_order") is False
        old = tmp_path / "old.config.json"
        old.write_text(json.dumps(echo))
        code, _ = _run(capsys, ["--config", str(old)])
        assert code == 0
        assert out_file.read_bytes() == snapshot

    @pytest.mark.parametrize("key, value, message", [
        ("func", "cmd_spectrum", "unknown option 'func'"),
        ("config", None, "unknown option 'config'"),
        ("per_orders", True, "unknown option 'per_orders'"),
        ("beta_min", None, "the following arguments are required: --beta-min"),
    ], ids=["func", "config", "unknown", "required"])
    def test_refuses_an_echo_it_cannot_replay_before_any_evaluation(
            self, tmp_path, capsys, monkeypatch, key, value, message):
        _, _, echo = self._echo(tmp_path, capsys)
        if key in echo["args"]:
            del echo["args"][key]       # a required option gone
        else:
            echo["args"][key] = value
        bad = tmp_path / "bad.config.json"
        bad.write_text(json.dumps(echo))
        windows = _counted_scans(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(bad)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert windows == []

    @pytest.mark.parametrize("key, value, message", [
        ("resolution", "abc", None), ("resolution", 2.5, None), ("resolution", True, None),
        ("stack", "quad", "argument --stack: invalid choice: 'quad'"),
        ("format", "table", "argument --format: invalid choice: 'table'"),
        ("per_order", "yes", None), ("beta_min", None, None), ("eta", [1.0], None),
        ("beta_max", 10**400, None),
    ], ids=["str for int", "float for int", "bool for int", "stack choice",
            "format choice", "str for flag", "null for required", "list for float",
            "int past the floats"])
    def test_refuses_a_value_no_command_line_gives_before_any_evaluation(
            self, tmp_path, capsys, monkeypatch, key, value, message):
        # "resolution": "abc" died with a TypeError traceback after parsing,
        # and "stack": "quad" with --eta set ran a triplet scan; float(10**400)
        # overflows, where float() of its 401 digits would give inf
        _, _, echo = self._echo(tmp_path, capsys)
        echo["args"].update({"eta": 1.0, key: value})
        bad = tmp_path / "bad.config.json"
        bad.write_text(json.dumps(echo))
        windows = _counted_scans(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(bad)])
        assert exc.value.code == 2
        assert (message or f"invalid value {value!r} for {key!r}") in capsys.readouterr().err
        assert windows == []

    @pytest.mark.parametrize("subcommand, args, message", [
        ("steer", {"theta": [30.0], "table1": True},
         "argument --table1: not allowed with argument --theta"),
        ("spectrum", {"stack": "single", "alpha0": 0.5, "theta": 30.0, "beta_min": 3.0,
                      "beta_max": 3.1}, "argument --theta: not allowed with argument --alpha0"),
        ("spectrum", {"stack": "single", "beta_min": 3.0, "beta_max": 3.1},
         "one of the arguments --alpha0 --theta is required"),
    ], ids=["steer theta and table1", "spectrum alpha0 and theta", "spectrum no incidence"])
    def test_refuses_an_echo_a_group_of_options_refuses_before_any_evaluation(
            self, tmp_path, capsys, monkeypatch, subcommand, args, message):
        # a steer echo with "theta": [30.0] and "table1": true ran the 15
        # Table-1 angles (exit 0), where the command line refuses
        # --theta 30 --table1
        monkeypatch.setattr(steering, "steer", lambda *args, **kwargs: pytest.fail("steer ran"))
        windows = _counted_scans(monkeypatch)
        bad = tmp_path / "bad.config.json"
        bad.write_text(json.dumps({"subcommand": subcommand, "args": args}))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(bad)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert windows == []
        with pytest.raises(SystemExit) as exc:   # as the command line refuses them
            main([subcommand, *(["--theta", "30", "--table1"] if subcommand == "steer" else
                                ["--stack", "single", "--beta-min", "3.0", "--beta-max", "3.1"]
                                + (["--alpha0", "0.5", "--theta", "30"] if "alpha0" in args
                                   else []))])
        assert exc.value.code == 2

    @pytest.mark.parametrize("theta", [30.0, [], ["30"]], ids=["scalar", "empty", "str"])
    def test_refuses_a_theta_list_no_command_line_gives(self, tmp_path, capsys,
                                                        monkeypatch, theta):
        # steer's --theta takes one or more floats (nargs="+")
        monkeypatch.setattr(steering, "steer", lambda *args, **kwargs: pytest.fail("steer ran"))
        bad = tmp_path / "steer.config.json"
        bad.write_text(json.dumps({"subcommand": "steer", "args": {"theta": theta}}))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(bad)])
        assert exc.value.code == 2
        assert f"invalid value {theta!r} for 'theta'" in capsys.readouterr().err

    def test_echo_with_the_fixed_n_far_replays(self, tmp_path, capsys):
        # echoes written while --n-far existed carry "n_far": 20, the window
        # that is now fixed
        out_file, snapshot, echo = self._echo(tmp_path, capsys)
        assert "n_far" not in echo["args"]
        echo["args"]["n_far"] = 20
        old = tmp_path / "old.config.json"
        old.write_text(json.dumps(echo))
        code, _ = _run(capsys, ["--config", str(old)])
        assert code == 0
        assert out_file.read_bytes() == snapshot

    @pytest.mark.parametrize("value", [21, 20.0, True, "20"])
    def test_refuses_any_other_n_far_before_any_evaluation(self, tmp_path, capsys,
                                                           monkeypatch, value):
        _, _, echo = self._echo(tmp_path, capsys)
        echo["args"]["n_far"] = value
        bad = tmp_path / "bad.config.json"
        bad.write_text(json.dumps(echo))
        windows = _counted_scans(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(bad)])
        assert exc.value.code == 2
        assert f"n_far is fixed at 20; {bad} gives {value!r}" in capsys.readouterr().err
        assert windows == []

    def test_no_subcommand_takes_n_far(self, capsys):
        for argv in (["greens", "--beta", "2.7", "--alpha0", "1.2"],
                     ["steer", "--theta", "30"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--n-far", "20"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --n-far 20" in capsys.readouterr().err

    def test_replays_ints_where_a_float_option_parses_them(self, tmp_path, capsys):
        # "beta_min": 3 is what --beta-min 3 gives: the float 3.0
        out_file, snapshot, echo = self._echo(tmp_path, capsys)
        assert echo["args"]["beta_min"] == 3.0
        echo["args"]["beta_min"] = 3
        replay = tmp_path / "int.config.json"
        replay.write_text(json.dumps(echo))
        code, _ = _run(capsys, ["--config", str(replay)])
        assert code == 0
        assert out_file.read_bytes() == snapshot


# rows as the CLI writes them, and the values a JSON writer can get wrong
_JSON_ROWS = {
    "scan": [
        {"beta": 3.3, "alpha0": -0.0, "T": float("nan"), "R": float("inf"),
         "energy_residual": 1e-300, "status": "ok"},
        {"beta": 3.4, "alpha0": 1.7, "T": -float("inf"), "R": 5e-324,
         "energy_residual": 0.0, "status": 'SingularSystem: "cond" \\ 1e+14'},
        {"beta": 3.5, "}, {": "}", "status": "},\n      {"},
    ],
    "per-order": [
        {"beta": 2.0, "status": "DomainError: no incident wave", "R_-1": "", "T_-1": "",
         "R_0": 0.25, "T_0": 0.75},
        {"beta": 4.3, "status": "ok", "R_-1": 1e-17, "T_-1": -2.5e-300, "R_0": 1.0, "T_0": 0},
    ],
    "steer": [
        {"theta_deg": 0.0, "m_eff": 1, "beta_edit": None, "q_notch": 10**20,
         "flag": True, "other": False, "error": "tab\there, bell \x07, nul \x00, del \x7f"},
        {"theta_deg": -30.0, "m_eff": -2, "beta_edit": 2.9471596869739156,
         "error": "non-ASCII: \u03b2 \u2248 \u221e \U0001f600 \u00e9"},
    ],
    "no rows": [],
    "an empty row": [{}, {"beta": 1.0}],
    "a row holding a list": [{"beta": 1.0, "orders": [1, 2.5, None, {"n": -1}], "status": "ok"},
                             {"beta": 2.0, "orders": [], "status": "ok"}],
}


@pytest.mark.parametrize("note", [None, "crossing alpha0=1.55 \"\u03b2\" \\ \x07"],
                         ids=["no note", "note"])
@pytest.mark.parametrize("generated", [False, True], ids=["untimed", "generated"])
@pytest.mark.parametrize("case", list(_JSON_ROWS))
def test_json_rows_are_json_dumps_byte_for_byte(monkeypatch, case, generated, note):
    monkeypatch.setattr(cli, "_timestamp", lambda: "2026-01-02T03:04:05Z")
    rows = _JSON_ROWS[case]
    payload = {"generated": "2026-01-02T03:04:05Z"} if generated else {}
    payload["rows"] = rows
    if note:
        payload["note"] = note
    text = cli._json_text(rows, argparse.Namespace(no_timestamp=not generated), note)
    assert text == json.dumps(payload, indent=2) + "\n"


class TestSteer:
    def test_normal_incidence_flags_edit_unsupported(self, capsys):
        code, out = _run(capsys, ["steer", "--theta", "0", "--with-edit",
                                  "--no-timestamp"])
        assert code == 0
        row, = _csv_rows(out)
        assert row["error"] == "EDIT unsupported at normal incidence"
        assert row["xi_edit"] == ""
        assert float(row["beta_g"]) == pytest.approx(4.456001, abs=1e-4)

    def test_requires_angles(self, capsys):
        code = main(["steer"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--theta" in err or "--table1" in err

    def test_refuses_a_mode_order_below_one(self, capsys):
        # refused up front (steer raises before any search), not row by row
        code = main(["steer", "--theta", "30", "60", "--m", "0", "--no-timestamp"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "mode order m must be >= 1, got 0" in captured.err

    def test_table_format_header(self, capsys):
        code, out = _run(capsys, ["steer", "--theta", "0", "--no-modes",
                                  "--format", "table", "--no-timestamp"])
        assert code == 0
        header = out.splitlines()[0].split()
        assert header[:5] == ["theta_deg", "beta_g", "alpha0_g", "eta_star",
                              "m_eff"]
        assert "error" in header

    def test_table1_bytes_are_pinned(self, capsys):
        # steer --table1 as written before its stages ran in lockstep; an
        # intended change of any value rewrites the file and says why
        code, out = _run(capsys, ["steer", "--table1", "--format", "json",
                                  "--no-timestamp"])
        assert code == 0
        assert out == (DATA / "steer_table1.json").read_text()

    def test_with_q_bytes_are_pinned(self, capsys):
        # steer --theta 30 60 --with-q as written before EDIT tuning and the
        # poles at beta_edit ran in lockstep
        code, out = _run(capsys, ["steer", "--theta", "30", "60", "--with-q", "--format",
                                  "json", "--no-timestamp"])
        assert code == 0
        assert out == (DATA / "steer_q.json").read_text()

    def test_with_q_m2_bytes_are_pinned(self, capsys):
        # steer --table1 --with-q --m 2: both Q factors off the poles at the
        # second slab separation, where the dark pole's Q reaches ~5e18;
        # only 0 deg fails, by design
        code, out = _run(capsys, ["steer", "--table1", "--with-q", "--m", "2", "--format",
                                  "json", "--no-timestamp"])
        assert code == 0
        assert out == (DATA / "steer_q_m2.json").read_text()
        errors = {row["theta_deg"]: row["error"] for row in json.loads(out)["rows"]}
        assert errors == {deg: "EDIT unsupported at normal incidence" if deg == 0.0 else ""
                          for deg in TABLE1_ANGLES_DEG}

    def test_with_edit_bytes_are_pinned(self, capsys):
        # steer --table1 --with-edit as written before the period left the
        # package; row 0 deg carries "EDIT unsupported at normal incidence"
        # by design
        code, out = _run(capsys, ["steer", "--table1", "--with-edit", "--format", "json",
                                  "--no-timestamp"])
        assert code == 0
        assert out == (DATA / "steer_edit.json").read_text()

    def test_with_edit_m2_bytes_are_pinned(self, capsys):
        # steer --table1 --with-edit --m 2: EDIT tuning at the second slab
        # separation, pinned as the m = 1 run is
        code, out = _run(capsys, ["steer", "--table1", "--with-edit", "--m", "2", "--format",
                                  "json", "--no-timestamp"])
        assert code == 0
        assert out == (DATA / "steer_edit_m2.json").read_text()

    def test_results_dir_writes_the_notch_scan_steer_measured(self, tmp_path, capsys,
                                                             monkeypatch):
        # one plain 1001-point scan per angle of beta_edit +- 12 |Im beta_dark|,
        # with |Im beta_dark| = beta_edit / 2 q_notch, written as spectrum
        # writes a scan
        windows = _counted_scans(monkeypatch)
        code, out = _run(capsys, ["steer", "--theta", "60", "--with-q", "--format", "json",
                                  "--no-timestamp", "--results-dir", str(tmp_path)])
        assert code == 0 and len(windows) == 1
        row, = json.loads(out)["rows"]
        monkeypatch.undo()
        hw = 6.0 * row["beta_edit"] / row["q_notch"]
        records = scan(PinStack.triplet(row["eta_edit"], row["xi_edit"]),
                       np.linspace(row["beta_edit"] - hw, row["beta_edit"] + hw, 1001),
                       theta_i=math.radians(60.0))
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["beta", "alpha0", "T", "R", "energy_residual", "status"])
        writer.writerows([r.beta, r.alpha0, r.T, r.R, r.energy_residual, r.error or "ok"]
                         for r in records)
        assert (tmp_path / "theta60_notch.csv").read_text() == expected.getvalue()
        assert len({r.beta for r in records}) == 1001

    def test_results_dir_skips_a_notch_narrower_than_doubles(self, tmp_path, capsys,
                                                             monkeypatch):
        # m = 2 at 60 deg: |Im beta_dark| ~ 3e-19, far below the spacing of
        # doubles near beta (~4e-16), so no scan is run and no file written
        windows = _counted_scans(monkeypatch)
        code = main(["steer", "--theta", "60", "--with-q", "--m", "2", "--format", "json",
                     "--no-timestamp", "--results-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0 and windows == []
        row, = json.loads(captured.out)["rows"]
        assert row["error"] == "" and row["q_notch"] > 1e18
        assert list(tmp_path.iterdir()) == []
        assert captured.err.startswith("theta60_notch.csv not written: beta_edit +- ")

    def test_results_dir_without_q_is_refused_before_any_evaluation(self, tmp_path, capsys,
                                                                     monkeypatch):
        # the notch scans need the Q factors: without --with-q the directory
        # would stay empty
        calls = []
        monkeypatch.setattr(steering, "steer", lambda *args, **kwargs: calls.append(args))
        code = main(["steer", "--theta", "30", "--no-timestamp",
                     "--results-dir", str(tmp_path / "rd")])
        captured = capsys.readouterr()
        assert code == 2 and calls == []
        assert captured.out == "" and "--with-q" in captured.err
        assert not (tmp_path / "rd").exists()

    def test_results_dir_holds_the_notch_scans_alone(self, tmp_path, capsys):
        # only --out echoes a config: an echo beside a notch scan would
        # replay the table's command onto the notch file
        code, _ = _run(capsys, ["steer", "--theta", "60", "--with-q", "--no-timestamp",
                                "--results-dir", str(tmp_path)])
        assert code == 0
        assert [path.name for path in tmp_path.iterdir()] == ["theta60_notch.csv"]

    def test_table_echo_replays_the_notch_scans(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        code, _ = _run(capsys, ["steer", "--theta", "30", "60", "--with-q", "--no-timestamp",
                                "--results-dir", str(tmp_path), "--out", str(table)])
        assert code == 0
        names = ["table.csv", "theta30_notch.csv", "theta60_notch.csv"]
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            names + ["table.csv.config.json"])
        written = {name: (tmp_path / name).read_bytes() for name in names}
        for name in names:
            (tmp_path / name).unlink()
        code, _ = _run(capsys, ["--config", str(table) + ".config.json"])
        assert code == 0
        assert {name: (tmp_path / name).read_bytes() for name in names} == written

    def test_eta_edit_column_follows_beta_even(self, capsys):
        code, out = _run(capsys, ["steer", "--theta", "0", "--no-modes",
                                  "--with-edit", "--no-timestamp"])
        assert code == 0
        row, = _csv_rows(out)
        columns = list(row)
        assert columns[columns.index("beta_even") + 1] == "eta_edit"
        assert row["eta_edit"] == ""       # no EDIT tuning at normal incidence


def test_subcommand_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


_SUBCOMMANDS = ["greens", "matrix", "dispersion-grid", "spectrum", "steer"]
_SPECTRUM = ["spectrum", "--stack", "single", "--alpha0", "0.5", "--beta-min", "3.0",
             "--beta-max", "3.1", "--resolution", "5", "--no-timestamp"]
_STEER = ["steer", "--theta", "30", "--no-modes", "--no-timestamp"]


def _outcome(capsys, argv) -> tuple:
    """main's exit code, or its SystemExit's, with what it wrote to stdout and stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    return next(a for a in parser._actions if a.dest == "subcommand").choices


class TestParser:
    @pytest.mark.parametrize("columns", ["80", "200"])
    def test_each_run_reads_its_command_line_as_the_full_parser_does(
            self, tmp_path, capsys, monkeypatch, columns):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", columns)
        assert main(["greens", "--beta", "2.7", "--alpha0", "1.2", "--out", "g.json",
                     "--no-timestamp"]) == 0
        echo = "g.json.config.json"
        corpus = [
            [], ["-h"], ["--help"], *([name, "--help"] for name in _SUBCOMMANDS),
            ["bogus"], ["--bogus", *_SPECTRUM], ["spectrum", "--bogus"], [*_SPECTRUM, "--bogus"],
            ["spectrum", "--alpha0", "0.5", "--beta-max", "3.1"],
            ["steer", "--theta", "30", "--table1"],
            ["--config", echo], [f"--config={echo}"], ["--conf", echo],
            ["--config", "missing.json"], ["--config", "steer"],
            ["--", "steer", "--theta", "30"],
            ["greens", "--beta", "2.7", "--alpha0", "1.2", "--no-timestamp"],
            ["matrix", "--beta", "3.61747", "--theta", "30", "--eta", "1.0",
             "--no-timestamp"],
            ["dispersion-grid", "--alpha0-min", "1.6", "--alpha0-max", "1.7",
             "--alpha0-steps", "2", "--beta-min", "3.6", "--beta-max", "3.6",
             "--beta-steps", "1", "--eta", "1.0", "--no-timestamp"],
            _SPECTRUM, _STEER,
        ]
        built = cli.build_parser

        def full(subcommand=None):
            # every subcommand, formatted by argparse's own formatter
            parser = built()
            for p in (parser, *_subparsers(parser).values()):
                p.formatter_class = argparse.HelpFormatter
            return parser

        for argv in corpus:
            run = _outcome(capsys, argv)
            monkeypatch.setattr(cli, "build_parser", full)
            assert _outcome(capsys, argv) == run, argv
            monkeypatch.setattr(cli, "build_parser", built)
        widest = max(map(len, _outcome(capsys, ["--help"])[1].splitlines()))
        assert (widest <= 78) == (columns == "80")

    @pytest.mark.parametrize("argv", [_SPECTRUM, _STEER])
    def test_an_end_of_options_marker_before_the_subcommand_is_dropped(self, capsys, argv):
        # the same bytes as the run without it; a -- before anything but a
        # subcommand's name is still read as the subcommand, and refused
        assert _outcome(capsys, ["--", *argv]) == _outcome(capsys, argv)
        for rest in (["bogus"], ["--config", "x.json"], ["--", *argv]):
            code, out, err = _outcome(capsys, ["--", *rest])
            assert (code, out) == (2, "") and "invalid choice: '--'" in err

    @pytest.mark.parametrize("argv", [_SPECTRUM, _STEER])
    def test_a_run_builds_its_own_subcommand_alone(self, capsys, monkeypatch, argv):
        built, lookups = [], []
        init, size = argparse.ArgumentParser.__init__, shutil.get_terminal_size

        def counted_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        def counted_size(*args):
            lookups.append(args)
            return size(*args)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
        monkeypatch.setattr(shutil, "get_terminal_size", counted_size)
        assert _outcome(capsys, argv)[0] == 0
        assert built == ["pinstacks", f"pinstacks {argv[0]}"]
        assert len(lookups) == 1
        built.clear()
        lookups.clear()
        parser = cli.build_parser()
        assert list(_subparsers(parser)) == _SUBCOMMANDS
        assert len(built) == 1 + len(_SUBCOMMANDS) and len(lookups) == 1
        assert list(_subparsers(cli.build_parser(argv[0]))) == [argv[0]]


def test_convergence_estimate_never_compares_a_window_with_itself(capsys):
    # at beta = 25 the kernel's minimum window (63 at x = 0) would raise N/2
    # back to N; the estimate then compares with 2N instead
    _, out = _run(capsys, ["greens", "--beta", "25", "--alpha0", "0.7",
                           "--no-timestamp"])
    payload = json.loads(out)
    assert payload["n_terms"] == 63
    assert payload["comparison_terms"] == 2 * payload["n_terms"]
    assert payload["convergence_estimate"] > 0.0
    # where N/2 is a window of its own it stays the comparison
    _, out = _run(capsys, ["greens", "--beta", "2.7", "--alpha0", "1.2",
                           "--x", "0.37", "--n", "100", "--no-timestamp"])
    assert json.loads(out)["comparison_terms"] == 50


def _readme_command_lines() -> list[list[str]]:
    """The pinstacks command lines of README's CLI example block, continuations joined."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme[readme.index("\n## Command line\n"):]
    block = section[section.index("```sh\n") + len("```sh\n"):]
    block = block[:block.index("```")].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("pinstacks ")]


def test_readme_command_line_examples_run(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runs = _readme_command_lines()
    assert [argv[0] for argv in runs] == [*_SUBCOMMANDS, "steer"]
    for argv in runs:
        code, out = _run(capsys, argv)
        assert code == 0, argv
        if "--out" in argv:
            assert out == "" and Path(argv[argv.index("--out") + 1]).read_text()
        else:
            assert out, argv
