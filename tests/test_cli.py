"""End-to-end command-line interface tests."""

import importlib.util
import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import atomlink.cli
from atomlink.analysis import interference_contrast
from atomlink.calibration import calibrate
from atomlink.cli import _load_events, build_parser, main
from atomlink.protocol import preset, save_scenario
from atomlink.protocol.scenario import CAL_SIGMA_SHOT_EFF

import oracles


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def small_run(tmp_path):
    out = tmp_path / "run"
    code = run_cli("simulate", "--preset", "l6", "--seed", "1", "--mode",
                   "sampled-clicks", "--events", "120", "--out", str(out),
                   "--trajectories", "300")
    assert code == 0
    return out


class TestSimulate:
    def test_outputs_exist(self, small_run):
        for name in ("events.jsonl", "summary.json", "clicks.csv", "manifest.json"):
            assert (small_run / name).exists()
        summary = json.loads((small_run / "summary.json").read_text())
        assert summary["n_events"] == 120
        assert "measured_event_rate_hz" in summary
        manifest = json.loads((small_run / "manifest.json").read_text())
        assert manifest["config_hash"] == summary["config_hash"]

    def test_zero_events(self, tmp_path):
        out = tmp_path / "empty"
        assert run_cli("simulate", "--preset", "l6", "--events", "0",
                       "--out", str(out), "--trajectories", "300") == 0
        lines = (out / "events.jsonl").read_text().strip().splitlines()
        assert len(lines) == 1  # header only
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_events"] == 0

    def test_determinism_byte_identical(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run_cli("simulate", "--preset", "l6", "--seed", "9",
                           "--events", "60", "--out", str(out),
                           "--trajectories", "300") == 0
            outs.append((out / "events.jsonl").read_bytes())
        assert outs[0] == outs[1]

    def test_refuses_overwrite(self, small_run):
        code = run_cli("simulate", "--preset", "l6", "--events", "5",
                       "--out", str(small_run), "--trajectories", "300")
        assert code == 4

    def test_bad_preset_is_config_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--preset", "nope", "--out", str(tmp_path))
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--trajectories=-5", "--events=-3", "--seed=-1"])
    def test_bad_counts_write_nothing(self, tmp_path, flag):
        out = tmp_path / "run"
        assert run_cli("simulate", "--preset", "l6", flag, "--out", str(out)) == 2
        assert not out.exists()

    def test_bad_scenario_file(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[nodes]\ngarbage = true\n")
        code = run_cli("simulate", "--scenario", str(bad), "--out", str(tmp_path))
        assert code == 2


class TestAnalyze:
    def test_report_fields(self, small_run, tmp_path):
        out = tmp_path / "analysis"
        code = run_cli("analyze", "--events", str(small_run / "events.jsonl"),
                       "--clicks", str(small_run / "clicks.csv"),
                       "--summary", str(small_run / "summary.json"),
                       "--estimators", "fidelity,contrast,sbr",
                       "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert 0.5 < report["estimators"]["fidelity"]["fidelity"] <= 1.0
        assert report["accepted_fraction"] > 0.5
        assert report["estimators"]["sbr"]["coincidence"] > 10

    def test_contrast_uses_acceptance_window(self, tmp_path):
        # about 2% of heralds are D-null, so enough events to see a few
        run = tmp_path / "run"
        assert run_cli("simulate", "--preset", "l6", "--seed", "5", "--events", "800",
                       "--out", str(run), "--trajectories", "300") == 0
        out = tmp_path / "contrast"
        assert run_cli("analyze", "--events", str(run / "events.jsonl"),
                       "--summary", str(run / "summary.json"),
                       "--estimators", "contrast", "--out", str(out)) == 0
        reported = json.loads((out / "report.json").read_text())["estimators"]["contrast"]
        summary = json.loads((run / "summary.json").read_text())
        lines = (run / "events.jsonl").read_text().splitlines()[1:]
        outcomes = [r["bell_outcome"] for r in map(json.loads, lines) if r["accepted"]]
        assert summary["n_dnull_accepted"] > 0
        assert len(outcomes) < summary["n_events"]
        expected = interference_contrast(summary["n_dnull_accepted"],
                                         outcomes.count("PsiPlus"), outcomes.count("PsiMinus"))
        assert reported["contrast"] == pytest.approx(expected, rel=1e-12)

    def test_contrast_needs_summary(self, small_run, tmp_path):
        assert run_cli("analyze", "--events", str(small_run / "events.jsonl"),
                       "--estimators", "contrast", "--out", str(tmp_path)) == 2

    def test_fringe_csv_needs_fringe_estimator(self, tmp_path):
        # checked before anything is read: the events file does not exist
        out = tmp_path / "analysis"
        assert run_cli("analyze", "--events", str(tmp_path / "none.jsonl"),
                       "--estimators", "fidelity", "--fringe-csv", "fringe.csv",
                       "--out", str(out)) == 2
        assert not out.exists()

    def test_summary_checked_like_clicks(self, small_run, tmp_path):
        events = str(small_run / "events.jsonl")
        assert run_cli("analyze", "--events", events, "--summary", str(tmp_path / "none.json"),
                       "--out", str(tmp_path / "a")) == 4
        summary = json.loads((small_run / "summary.json").read_text())
        mismatched = dict(summary, config_hash="0" * 16)
        unhashed = {k: v for k, v in summary.items() if k != "config_hash"}
        for sub, edited in (("b", mismatched), ("c", unhashed)):
            other = tmp_path / f"summary_{sub}.json"
            other.write_text(json.dumps(edited))
            assert run_cli("analyze", "--events", events, "--summary", str(other),
                           "--out", str(tmp_path / sub)) == 2

    def test_reanalysis_identical(self, small_run, tmp_path):
        blobs = []
        for sub in ("x", "y"):
            out = tmp_path / sub
            assert run_cli("analyze", "--events", str(small_run / "events.jsonl"),
                           "--estimators", "fidelity", "--out", str(out)) == 0
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_empty_estimators(self, small_run, tmp_path):
        out = tmp_path / "plain"
        assert run_cli("analyze", "--events", str(small_run / "events.jsonl"),
                       "--estimators", "", "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["estimators"] == {}

    def test_malformed_line_reports_lineno(self, small_run, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        lines = (small_run / "events.jsonl").read_text().splitlines()
        lines.insert(3, "{not json")
        bad.write_text("\n".join(lines))
        code = run_cli("analyze", "--events", str(bad), "--out", str(tmp_path))
        assert code == 4
        assert ":4:" in capsys.readouterr().err

    def test_fringe_csv_checked_before_report(self, small_run, tmp_path):
        out = tmp_path / "fringe"
        fringe_csv = tmp_path / "fringe.csv"
        fringe_csv.write_text("keep\n")
        code = run_cli("analyze", "--events", str(small_run / "events.jsonl"),
                       "--estimators", "fringe", "--fringe-csv", str(fringe_csv),
                       "--out", str(out))
        assert code == 4
        assert not (out / "report.json").exists()
        assert fringe_csv.read_text() == "keep\n"

    def test_mixed_hashes_rejected(self, small_run, tmp_path):
        other = tmp_path / "other"
        assert run_cli("simulate", "--preset", "l11", "--events", "20",
                       "--out", str(other), "--trajectories", "300") == 0
        unhashed = tmp_path / "unhashed.csv"
        unhashed.write_text("".join((small_run / "clicks.csv").read_text()
                                    .splitlines(keepends=True)[1:]))
        for sub, clicks in (("mix", other / "clicks.csv"), ("bare", unhashed)):
            code = run_cli("analyze", "--events", str(small_run / "events.jsonl"),
                           "--clicks", str(clicks),
                           "--out", str(tmp_path / sub))
            assert code == 2
            code = run_cli("analyze", "--events", str(small_run / "events.jsonl"),
                           "--clicks", str(clicks),
                           "--out", str(tmp_path / sub), "--force")
            assert code == 0


ALL_ESTIMATORS = ["fidelity", "fringe", "chsh", "contrast", "sbr"]


class TestRunFiles:
    """The columnar writers and readers against the per-record references."""

    @pytest.mark.parametrize("case", ["l6-sampled", "l33-dm", "l6-150ns", "zero"])
    def test_files_match_reference(self, case, tmp_path, monkeypatch):
        argv = {
            "l6-sampled": ["--preset", "l6", "--mode", "sampled-clicks", "--events", "300"],
            "l33-dm": ["--preset", "l33", "--mode", "density-matrix", "--events", "150"],
            # about a third of all coincidences are D-null at a 150 ns delay
            "l6-150ns": ["--scenario", str(tmp_path / "far.ini"), "--mode", "sampled-clicks",
                         "--events", "200", "--schedule", "chsh"],
            "zero": ["--preset", "l6", "--events", "0"],
        }[case]
        save_scenario(replace(preset("l6"), wavepacket_delay=150e-9), tmp_path / "far.ini")
        real, runs = atomlink.cli.run_sequence, []
        monkeypatch.setattr(atomlink.cli, "run_sequence",
                            lambda *args, **kwargs: runs.append(real(*args, **kwargs)) or runs[-1])
        run = tmp_path / "run"
        assert run_cli("simulate", *argv, "--seed", "5", "--trajectories", "300",
                       "--out", str(run)) == 0
        (result,) = runs
        if case == "l6-150ns":
            assert result.summary["n_dnull"] > 0
        header = json.loads((run / "events.jsonl").read_text().splitlines()[0])
        ref = tmp_path / "ref"
        ref.mkdir()
        with open(ref / "events.jsonl", "w", newline="") as fh:
            oracles.write_event_records(fh, header, oracles.event_records(result.events))
        with open(ref / "clicks.csv", "w", newline="") as fh:
            oracles.write_click_tuples(fh, result.config_hash,
                                       oracles.click_tuples(result.clicks))
        (ref / "summary.json").write_text(json.dumps(result.summary, indent=2, sort_keys=True,
                                                     default=float))
        for name in ("events.jsonl", "clicks.csv", "summary.json"):
            assert (run / name).read_bytes() == (ref / name).read_bytes(), name

        _, events = _load_events(run / "events.jsonl")
        for f in fields(events):
            assert np.array_equal(getattr(events, f.name), getattr(result.events, f.name)), f.name
        assert run_cli("analyze", "--events", str(run / "events.jsonl"),
                       "--clicks", str(run / "clicks.csv"), "--summary", str(run / "summary.json"),
                       "--estimators", ",".join(ALL_ESTIMATORS), "--out", str(run)) == 0
        expected = oracles.reference_report(run / "events.jsonl", run / "clicks.csv",
                                            run / "summary.json", ALL_ESTIMATORS)
        assert (run / "report.json").read_text() == json.dumps(
            expected, indent=2, sort_keys=True, default=float)

    @pytest.mark.parametrize("edit", ["short", "label", "number"])
    def test_malformed_click_row_names_line(self, small_run, tmp_path, capsys, edit):
        lines = (small_run / "clicks.csv").read_text().splitlines()
        window, detector, stamp, origin = lines[4].split(",")
        lines[4] = {"short": f"{window},{detector},{stamp}",
                    "label": f"node3,{detector},{stamp},{origin}",
                    "number": f"{window},{detector},x{stamp},{origin}"}[edit]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = run_cli("analyze", "--events", str(small_run / "events.jsonl"),
                       "--clicks", str(bad), "--estimators", "sbr", "--out", str(tmp_path))
        assert code == 4
        assert f"{bad}:5:" in capsys.readouterr().err


class TestRates:
    def test_table_written(self, tmp_path):
        assert run_cli("rates", "--out", str(tmp_path), "--seed", "2") == 0
        text = (tmp_path / "rates.csv").read_text().splitlines()
        assert text[0].startswith("name,")
        assert len(text) == 5  # header + four presets
        l6 = dict(zip(text[0].split(","), text[1].split(",")))
        assert float(l6["repetition_rate_hz"]) == pytest.approx(30.8e3, rel=0.05)
        assert float(l6["success_probability_model"]) == pytest.approx(3.66e-6, rel=0.01)

    @pytest.mark.parametrize("args", [
        ["--presets", ","],
        ["--presets", "l6,nope"],
        # the fidelity table is computed, and fails, before rates.csv is written
        ["--presets", "l6", "--fidelity-out", "f.csv", "--trajectories", "50"],
    ], ids=[",", "l6,nope", "few-trajectories"])
    def test_bad_presets_write_nothing(self, tmp_path, args):
        out = tmp_path / "rates"
        assert run_cli("rates", *args, "--out", str(out)) == 2
        assert not out.exists()

    def test_missing_fidelity_dir_fails_before_work(self, tmp_path, monkeypatch):
        def no_monte_carlo(*args, **kwargs):
            raise AssertionError("the fidelity Monte Carlo ran")

        monkeypatch.setattr(atomlink.cli, "fidelity_vs_length", no_monte_carlo)
        assert run_cli("rates", "--fidelity-out", "sub/f.csv", "--trajectories", "100",
                       "--out", str(tmp_path)) == 4
        assert not (tmp_path / "rates.csv").exists()


class TestCalibrate:
    def test_default_targets_converge(self, tmp_path):
        assert run_cli("calibrate", "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "calibration.json").read_text())
        assert payload["converged"]
        assert all(abs(r) < 0.10 for r in payload["residuals"].values())

    def test_notes_say_sigma_shot_eff_is_not_fitted(self):
        result = calibrate()
        assert result.parameters["sigma_shot_eff"] == CAL_SIGMA_SHOT_EFF
        note = next(n for n in result.notes if n.startswith("sigma_shot_eff "))
        assert "CAL_SIGMA_SHOT_EFF, returned unchanged" in note
        assert "refit" not in note

    def test_already_calibrated_noop(self, tmp_path):
        assert run_cli("calibrate", "--out", str(tmp_path)) == 0
        first = json.loads((tmp_path / "calibration.json").read_text())
        assert run_cli("calibrate", "--out", str(tmp_path), "--force") == 0
        second = json.loads((tmp_path / "calibration.json").read_text())
        assert first["parameters"] == second["parameters"]

    def test_contradictory_targets_exit_3(self, tmp_path):
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps({
            "fidelities": {"l6": 0.99, "l33": 0.15},
            "fidelity_sigmas": {"l6": 0.01, "l33": 0.01},
        }))
        code = run_cli("calibrate", "--targets", str(targets), "--out", str(tmp_path))
        assert code == 3

    def test_refuses_overwrite(self, tmp_path):
        assert run_cli("calibrate", "--out", str(tmp_path)) == 0
        assert run_cli("calibrate", "--out", str(tmp_path)) == 4

    def test_os_error_is_exit_4(self, tmp_path):
        (tmp_path / "taken").mkdir()
        assert run_cli("calibrate", "--out", str(tmp_path), "--output", "taken",
                       "--force") == 4


class TestDephasing:
    def test_envelope_csv(self, tmp_path):
        code = run_cli("dephasing", "--preset", "l6", "--node", "1",
                       "--t-max", "30e-6", "--dt", "2e-6",
                       "--trajectories", "300", "--seed", "3",
                       "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "envelope.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "time_us,basis,expectation,envelope,envelope_stderr"
        # 16 times x 3 bases
        assert len(lines) == 2 + 16 * 3
        # sqrt((1 - |c|^2) / n) lies in [0, 1/sqrt(n)], printed to 1e-6
        stderr = [float(line.split(",")[4]) for line in lines[2:]]
        assert all(0.0 <= se <= 300 ** -0.5 + 5e-7 for se in stderr)
        assert max(stderr) > 0.0

    def test_flat_envelope_without_noise(self, tmp_path):
        code = run_cli("dephasing", "--preset", "l6", "--node", "1",
                       "--t-max", "20e-6", "--dt", "4e-6",
                       "--trajectories", "300", "--seed", "3",
                       "--sigma-mg", "0", "--fictitious-scale", "0",
                       "--out", str(tmp_path))
        assert code == 0
        import csv
        with open(tmp_path / "envelope.csv") as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        assert all(float(r["envelope"]) > 0.999 for r in rows)

    @pytest.mark.parametrize("dt", ["0", "-1e-6"])
    def test_nonpositive_dt_is_config_error(self, tmp_path, dt):
        out = tmp_path / "dephasing"
        assert run_cli("dephasing", "--preset", "l6", f"--dt={dt}", "--out", str(out)) == 2
        assert not out.exists()

    def test_negative_t_max_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "dephasing"
        assert run_cli("dephasing", "--preset", "l6", "--t-max=-1e-6", "--out", str(out)) == 2
        assert not out.exists()
        assert "--t-max" in capsys.readouterr().err


class TestExportScenario:
    def test_round_trip(self, tmp_path):
        assert run_cli("export-scenario", "--preset", "l33",
                       "--out", str(tmp_path)) == 0
        from atomlink.protocol import load_scenario, preset, config_hash
        loaded = load_scenario(tmp_path / "scenario.ini")
        assert config_hash(loaded) == config_hash(preset("l33"))


class TestBenchmarkCommandLines:
    def test_parser_accepts_benchmark_arguments(self):
        # the benchmark's command lines pass --jobs, which must stay accepted
        path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
        spec = importlib.util.spec_from_file_location("perfbench_run", path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        argvs = [bench.main_args(w, 1, "out") for w in bench.WORKLOADS.values()]
        assert {argv[0] for argv in argvs} == {"simulate", "dephasing"}
        assert any(argv[argv.index("--jobs") + 1] == "2" for argv in argvs)
        parser = build_parser()
        for argv in argvs:
            args = parser.parse_args(argv)
            assert args.command == argv[0]
            assert args.jobs == int(argv[argv.index("--jobs") + 1])
        assert parser.parse_args(bench.analyze_args("out")).command == "analyze"
