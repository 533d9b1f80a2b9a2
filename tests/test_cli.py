"""End-to-end command-line interface tests."""

import csv
import importlib.util
import json
import platform
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import atomlink.analysis.estimators
import atomlink.calibration
import atomlink.cli
from atomlink.analysis.estimators import interference_contrast
from atomlink.calibration import DEFAULT_TARGETS, calibrate, fit_t_overhead
from atomlink.analysis.tables import CLICK_ORIGINS, DETECTORS, WINDOWS, ClickTable, EventTable
from atomlink.cli import (
    CliError,
    _load_clicks,
    _load_events,
    _write_clicks,
    _write_events,
    build_parser,
    main,
)
import atomlink.protocol.model
import atomlink.protocol.sequence
from atomlink.protocol.rates import sbr_model
from atomlink.protocol.scenario import (
    CAL_AP_SCALE,
    CAL_XI_MAX,
    config_hash,
    load_scenario,
    preset,
    save_scenario,
)
from atomlink.protocol.sequence import run_sequence

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

    def test_manifest_records_what_produced_the_run(self, tmp_path, monkeypatch):
        # the BLAS thread count is recorded, and enters no other output
        outs = []
        for sub, threads in (("a", "1"), ("b", "2")):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
            for name in ("OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                monkeypatch.delenv(name, raising=False)
            argv = ["simulate", "--preset", "l6", "--seed", "4", "--events", "30",
                    "--trajectories", "300", "--out", str(tmp_path / sub)]
            assert run_cli(*argv) == 0
            env = json.loads((tmp_path / sub / "manifest.json").read_text())["environment"]
            blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
            assert env == {"argv": argv, "python": platform.python_version(),
                           "numpy": np.__version__,
                           "blas": {"name": blas["name"], "version": blas["version"]},
                           "threads": {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": None,
                                       "MKL_NUM_THREADS": None}}
            outs.append([(tmp_path / sub / name).read_bytes()
                         for name in ("events.jsonl", "summary.json", "clicks.csv")])
        assert outs[0] == outs[1]

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

    def test_run_carries_its_scenario(self, small_run, tmp_path):
        # a preset run, and a run of a scenario file that is no preset
        custom = tmp_path / "custom.ini"
        save_scenario(replace(preset("l33"), name="custom", xi_max=0.9), custom)
        out = tmp_path / "custom"
        assert run_cli("simulate", "--scenario", str(custom), "--events", "40",
                       "--trajectories", "300", "--out", str(out)) == 0
        for run in (small_run, out):
            chash = json.loads((run / "summary.json").read_text())["config_hash"]
            assert config_hash(load_scenario(run / "scenario.ini")) == chash
        assert load_scenario(out / "scenario.ini") == load_scenario(custom)

    def test_rerun_from_carried_scenario_is_byte_identical(self, small_run, tmp_path):
        out = tmp_path / "again"
        assert run_cli("simulate", "--scenario", str(small_run / "scenario.ini"), "--seed", "1",
                       "--mode", "sampled-clicks", "--events", "120", "--out", str(out),
                       "--trajectories", "300") == 0
        for name in ("events.jsonl", "clicks.csv", "summary.json", "scenario.ini"):
            assert (out / name).read_bytes() == (small_run / name).read_bytes()

    def test_existing_scenario_file_stops_the_run_before_work(self, tmp_path, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(atomlink.protocol.sequence, "run_sequence", no_run)
        (tmp_path / "scenario.ini").write_text("kept")
        assert run_cli("simulate", "--preset", "l6", "--out", str(tmp_path)) == 4
        assert (tmp_path / "scenario.ini").read_text() == "kept"
        assert not (tmp_path / "events.jsonl").exists()

    def test_manifest_says_where_the_time_went(self, small_run):
        manifest = json.loads((small_run / "manifest.json").read_text())
        # l6 reads out at 28.5 and 35.5 us: 28 and 35 whole spin steps and a short one each
        assert manifest["counters"] == {"channel_builds": 2, "traj_steps": 300 * (29 + 36),
                                        "readout_blocks": 1, "heralds": 120}
        timings = manifest["timings"]
        assert set(timings) == {"channel_s", "readout_s", "write_s", "total_s"}
        assert all(t > 0.0 for t in timings.values())
        assert timings["total_s"] > timings["channel_s"] + timings["readout_s"] + timings["write_s"]
        summary = (small_run / "summary.json").read_text()
        assert "timings" not in summary and "counters" not in summary


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

    def test_sbr_matches_model(self, tmp_path):
        # the histogram takes the singles only: with the herald clicks, all
        # near the arrival, it read about 6 standard errors above the model
        # at 4000 heralds, and more with more heralds
        run = tmp_path / "run"
        assert run_cli("simulate", "--preset", "l6", "--seed", "1", "--events", "4000",
                       "--out", str(run), "--trajectories", "100") == 0
        assert run_cli("analyze", "--events", str(run / "events.jsonl"),
                       "--clicks", str(run / "clicks.csv"), "--estimators", "sbr",
                       "--out", str(run)) == 0
        est = json.loads((run / "report.json").read_text())["estimators"]["sbr"]
        model = json.loads((run / "summary.json").read_text())["sbr_model"]
        _, clicks = _load_clicks(run / "clicks.csv")
        edges = np.arange(-500e-9, 500e-9 + 1e-12, 2e-9)
        centers = (edges[:-1] + edges[1:]) / 2.0
        window = (centers >= 0.0) & (centers <= 70e-9)
        side = (centers < -100e-9) | (centers > 250e-9)
        singles = clicks.detector == DETECTORS.index("single")
        sbr, sigma = {}, {}
        for code, name in enumerate(WINDOWS):
            counts = np.histogram(clicks.time_s[singles & (clicks.window == code)], edges)[0]
            # SBR + 1 = (window counts / side-band counts) x (side span / window span)
            sbr[name] = est["per_channel"][name]
            sigma[name] = (sbr[name] + 1.0) * np.sqrt(1.0 / counts[window].sum()
                                                      + 1.0 / counts[side].sum())
        # the coincidence SBR combines the channels harmonically
        sbr["coincidence"] = est["coincidence"]
        sigma["coincidence"] = sbr["coincidence"] ** 2 * np.hypot(
            *(sigma[w] / sbr[w] ** 2 for w in WINDOWS))
        for name in sbr:
            assert abs(sbr[name] - model[name]) <= 3.0 * sigma[name], (name, sbr, model, sigma)

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

    def test_fringe_csv_sigma_is_the_fit_weight(self, tmp_path, monkeypatch):
        # at seed 1 the PsiMinus setting alpha = beta = 0 reads P_corr = 0
        run = tmp_path / "run"
        assert run_cli("simulate", "--preset", "l6", "--seed", "1", "--schedule", "fringe",
                       "--events", "600", "--out", str(run), "--trajectories", "300") == 0
        weights, fit = [], atomlink.analysis.estimators.fringe_fit

        def weighted_fit(angles, p, errors):
            weights.extend(errors)
            return fit(angles, p, errors)

        monkeypatch.setattr(atomlink.analysis.estimators, "fringe_fit", weighted_fit)
        fringe_csv = tmp_path / "fringe.csv"
        assert run_cli("analyze", "--events", str(run / "events.jsonl"), "--estimators", "fringe",
                       "--fringe-csv", str(fringe_csv), "--out", str(tmp_path / "a")) == 0
        rows = list(csv.DictReader(fringe_csv.read_text().splitlines()[1:]))
        assert any(float(r["p_corr"]) == 0.0 and float(r["sigma"]) > 0.0 for r in rows)
        assert sorted(r["sigma"] for r in rows) == sorted(f"{w:.6f}" for w in weights)

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
        real, runs = atomlink.protocol.sequence.run_sequence, []
        monkeypatch.setattr(atomlink.protocol.sequence, "run_sequence",
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


class TestFileBlocks:
    """The run files written and read in blocks of a few rows."""

    BLOCK = 5

    @pytest.fixture(scope="class")
    def run(self):
        result = run_sequence(preset("l6"), target_events=23, seed=5, mode="sampled-clicks",
                              n_trajectories=300)
        # up to 12 clicks of every run of equal codes: the coincidences' short
        # runs and a cut of each singles run, which spans block boundaries
        clicks = result.clicks
        key = (clicks.window.astype(int) * len(DETECTORS) + clicks.detector) \
            * len(CLICK_ORIGINS) + clicks.origin
        edges = np.concatenate([[0], np.flatnonzero(np.diff(key)) + 1, [len(key)]])
        keep = np.concatenate([np.arange(start, min(stop, start + 12))
                               for start, stop in zip(edges[:-1], edges[1:])])
        return result, result.clicks.rows(keep)

    def _write(self, path, write, *args):
        with open(path, "w", newline="") as fh:
            write(fh, *args)
        return path.read_bytes()

    @pytest.mark.parametrize("size", ["partial", "multiple", "header-only"])
    def test_same_bytes_and_exact_round_trip(self, run, size, tmp_path, monkeypatch):
        monkeypatch.setattr(atomlink.cli, "_FILE_BLOCK", self.BLOCK)
        monkeypatch.setattr(atomlink.cli, "_EVENT_BLOCK", self.BLOCK)
        result, clicks = run
        rows = {"partial": len, "multiple": lambda t: len(t) // self.BLOCK * self.BLOCK,
                "header-only": lambda t: 0}[size]
        events = result.events.rows(slice(0, rows(result.events)))
        clicks = clicks.rows(slice(0, rows(clicks)))
        if size == "multiple":
            assert len(events) > self.BLOCK and len(clicks) > self.BLOCK
        elif size == "partial":
            assert len(events) % self.BLOCK and len(clicks) % self.BLOCK
        header = {"type": "header", "config_hash": result.config_hash, "scenario": "l6"}
        chash = result.config_hash

        events_bytes = self._write(tmp_path / "events.jsonl", _write_events, header, events)
        assert events_bytes == self._write(tmp_path / "ref.jsonl", oracles.write_event_records,
                                           header, oracles.event_records(events))
        clicks_bytes = self._write(tmp_path / "clicks.csv", _write_clicks, chash, clicks)
        assert clicks_bytes == self._write(tmp_path / "ref.csv", oracles.write_click_tuples,
                                           chash, oracles.click_tuples(clicks))

        read_header, read_events = _load_events(tmp_path / "events.jsonl")
        assert read_header == header
        for f in fields(events):
            assert np.array_equal(getattr(read_events, f.name), getattr(events, f.name)), f.name
        read_hash, read_clicks = _load_clicks(tmp_path / "clicks.csv")
        assert read_hash == chash
        for name in ("window", "detector", "origin"):
            assert np.array_equal(getattr(read_clicks, name), getattr(clicks, name)), name
        _, ref_rows = oracles.load_click_rows(tmp_path / "clicks.csv")
        assert np.array_equal(read_clicks.time_s,
                              [float(r["timestamp_ns"]) * 1e-9 for r in ref_rows])
        # three int8 codes and a float64 time per click
        assert sum(getattr(read_clicks, f.name).itemsize for f in fields(read_clicks)) == 11
        assert self._write(tmp_path / "again.csv", _write_clicks, chash,
                           read_clicks) == clicks_bytes

    @pytest.mark.parametrize("where", ["second", "last"])
    def test_malformed_row_names_its_line(self, run, where, tmp_path, monkeypatch):
        monkeypatch.setattr(atomlink.cli, "_FILE_BLOCK", self.BLOCK)
        result, clicks = run
        path = tmp_path / "clicks.csv"
        lines = self._write(path, _write_clicks, result.config_hash,
                            clicks).decode().splitlines(keepends=True)
        # lines 1 and 2 are the hash and the CSV header
        index = {"second": 2 + self.BLOCK + 2, "last": len(lines) - 1}[where]
        lines[index] = "node3," + lines[index].split(",", 1)[1]
        path.write_bytes("".join(lines).encode())
        with pytest.raises(CliError) as err:
            _load_clicks(path)
        assert err.value.code == 4
        assert str(err.value).startswith(f"{path}:{index + 1}: malformed CSV row")

    def test_reader_holds_one_block(self, tmp_path):
        n = 100_000
        rng = np.random.default_rng(3)
        codes = [np.sort(rng.integers(0, len(v), n)).astype(np.int8)
                 for v in (WINDOWS, DETECTORS, CLICK_ORIGINS)]
        path = tmp_path / "clicks.csv"
        self._write(path, _write_clicks, "0" * 16,
                    ClickTable(*codes, rng.uniform(-500e-9, 500e-9, n)))
        tracemalloc.start()
        try:
            _, clicks = _load_clicks(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(clicks) == n
        # the 1.1 MB of columns, twice while the blocks are joined, and one block of text
        assert peak < 5e6

    def test_events_reader_holds_the_run_once(self, tmp_path):
        n = 20_000
        rng = np.random.default_rng(4)
        angles = np.radians([0.0, 22.5, 45.0, 67.5, 90.0])
        events = EventTable(
            wall_time_s=np.cumsum(rng.exponential(0.03, n)),
            try_index=np.cumsum(rng.geometric(1e-5, n)), outcome=rng.integers(0, 2, n),
            detectors=rng.integers(0, 4, (n, 2)), click_ns=rng.normal(30.0, 20.0, (n, 2)),
            accepted=rng.random(n) < 0.7, signal=rng.random(n) < 0.95,
            alpha_rad=rng.choice(angles, n), beta_rad=rng.choice(angles, n),
            plane=rng.integers(0, 2, n), fidelity=rng.random(n),
            probabilities=rng.dirichlet(np.ones(4), n), readout=rng.integers(-1, 4, n))
        path = tmp_path / "events.jsonl"
        self._write(path, _write_events, {"type": "header", "config_hash": "0" * 16}, events)
        tracemalloc.start()
        try:
            _, read = _load_events(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for f in fields(events):
            assert np.array_equal(getattr(read, f.name), getattr(events, f.name)), f.name
        # the 1.9 MB of columns and one block of lines as it is parsed
        assert peak < 2.5e6

    def _events_lines(self, run, tmp_path, monkeypatch):
        monkeypatch.setattr(atomlink.cli, "_EVENT_BLOCK", self.BLOCK)
        result, _ = run
        header = {"type": "header", "config_hash": result.config_hash, "scenario": "l6"}
        path = tmp_path / "events.jsonl"
        lines = self._write(path, _write_events, header,
                            result.events).decode().splitlines(keepends=True)
        return result, path, lines

    @pytest.mark.parametrize("index", [2, 2 * BLOCK + 3])
    def test_reordered_keys_load_through_json(self, run, index, tmp_path, monkeypatch):
        result, path, lines = self._events_lines(run, tmp_path, monkeypatch)
        record = json.loads(lines[index])
        lines[index] = json.dumps(dict(reversed(record.items()))) + "\n"
        path.write_text("".join(lines))
        _, events = _load_events(path)
        for f in fields(events):
            assert np.array_equal(getattr(events, f.name), getattr(result.events, f.name)), f.name

    @pytest.mark.parametrize("edit", ["json", "record"])
    @pytest.mark.parametrize("index", [2, 2 * BLOCK + 3])
    def test_malformed_event_line_names_its_line(self, run, index, edit, tmp_path, monkeypatch):
        _, path, lines = self._events_lines(run, tmp_path, monkeypatch)
        lines[index] = {"json": lines[index][:40] + "\n",
                        "record": lines[index].replace('"plane"', '"planes"')}[edit]
        path.write_text("".join(lines))
        code = run_cli("analyze", "--events", str(path), "--out", str(tmp_path / "a"))
        with pytest.raises(CliError) as err:
            _load_events(path)
        assert code == err.value.code == 4
        assert str(err.value).startswith(f"{path}:{index + 1}: malformed")


class TestRates:
    def test_table_written(self, tmp_path):
        assert run_cli("rates", "--out", str(tmp_path), "--seed", "2") == 0
        text = (tmp_path / "rates.csv").read_text().splitlines()
        assert text[0].startswith("name,")
        assert len(text) == 5  # header + four presets
        l6 = dict(zip(text[0].split(","), text[1].split(",")))
        assert float(l6["repetition_rate_hz"]) == pytest.approx(30.8e3, rel=0.05)
        assert float(l6["success_probability_model"]) == pytest.approx(3.66e-6, rel=0.01)

    def test_implied_duty_and_sbr_columns(self, tmp_path):
        assert run_cli("rates", "--out", str(tmp_path)) == 0
        with open(tmp_path / "rates.csv", newline="") as fh:
            rows = {r["name"]: r for r in csv.DictReader(fh)}
        header = list(rows["l6"])
        # appended, so the earlier columns keep their places
        assert header[:13] == [
            "name", "config_hash", "total_length_km", "repetition_rate_hz",
            "repetition_rate_quoted_hz", "success_probability_model",
            "success_probability_quoted", "duty_cycle", "event_rate_model_hz",
            "event_rate_quoted_inputs_hz", "event_rate_quoted_hz", "sbr_coincidence_model",
            "acceptance_fraction_model"]
        assert header[13:] == ["duty_cycle_implied", "sbr_node1_model", "sbr_node2_model",
                               "sbr_node1_quoted", "sbr_node2_quoted", "sbr_coincidence_quoted"]
        # (1/19 s) / (30.8 kHz * 3.66e-6) and (1/208 s) / (9.7 kHz * 1.22e-6)
        assert float(rows["l6"]["duty_cycle_implied"]) == pytest.approx(0.467, abs=5e-4)
        assert float(rows["l33"]["duty_cycle_implied"]) == pytest.approx(0.406, abs=5e-4)
        for name in ("l6", "l33"):
            model = sbr_model(preset(name))
            for node in ("node1", "node2"):
                assert float(rows[name][f"sbr_{node}_model"]) == model[node]
        assert [float(rows["l6"][f"sbr_{k}_quoted"]) for k in ("node1", "node2", "coincidence")] \
            == [58.0, 65.0, 48.0]
        assert (rows["l33"]["sbr_node1_quoted"], rows["l33"]["sbr_node2_quoted"],
                float(rows["l33"]["sbr_coincidence_quoted"])) == ("", "", 42.0)
        # l11 and l23 quote no rates and no SBR
        for name in ("l11", "l23"):
            assert [rows[name][k] for k in header[13:] if k.endswith(("implied", "quoted"))] \
                == [""] * 4

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

        monkeypatch.setattr(atomlink.protocol.model, "fidelity_vs_length", no_monte_carlo)
        assert run_cli("rates", "--fidelity-out", "sub/f.csv", "--trajectories", "100",
                       "--out", str(tmp_path)) == 4
        assert not (tmp_path / "rates.csv").exists()


class TestCalibrate:
    def test_default_targets_converge(self, tmp_path):
        assert run_cli("calibrate", "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "calibration.json").read_text())
        assert payload["converged"]
        assert all(abs(r) < 0.10 for r in payload["residuals"].values())

    def test_notes_say_ap_visibility_scale_is_not_fitted(self):
        result = calibrate()
        assert result.parameters["ap_visibility_scale"] == CAL_AP_SCALE
        note = next(n for n in result.notes if n.startswith("ap_visibility_scale "))
        assert "CAL_AP_SCALE, returned unchanged" in note
        assert "refit" not in note

    @pytest.mark.parametrize("targets", [
        {"fidelities": {"l6": 0.83}}, ["coherence_time_s"], {"coherence_time_s": 330e-6},
        {"success_probability_l6": "x"}, {"repetition_rates_hz": {}},
        {"repetition_rates_hz": {"l6": -5}}, {"repetition_rates_hz": {"l99": 3e4}}],
        ids=["old-key", "not-an-object", "coherence-time", "string-probability", "no-rates",
             "negative-rate", "unknown-preset"])
    def test_unknown_target_is_exit_2(self, tmp_path, capsys, targets):
        path = tmp_path / "targets.json"
        path.write_text(json.dumps(targets))
        assert run_cli("calibrate", "--targets", str(path), "--out", str(tmp_path)) == 2
        if isinstance(targets, dict):
            assert repr(next(iter(targets))) in capsys.readouterr().err
        assert not (tmp_path / "calibration.json").exists()

    def test_records_every_target_used(self, tmp_path):
        # the defaults fill the keys a targets file leaves out
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps({"success_probability_l6": 2.0e-6}))
        assert run_cli("calibrate", "--targets", str(targets), "--out", str(tmp_path)) == 0
        recorded = json.loads((tmp_path / "calibration.json").read_text())["targets"]
        assert recorded == {**DEFAULT_TARGETS, "success_probability_l6": 2.0e-6}

    def test_xi_max_is_the_shipped_constant(self):
        assert calibrate().parameters["xi_max"] == pytest.approx(CAL_XI_MAX, rel=1e-12)

    def test_xi_max_uses_the_fitted_collection_efficiency(self):
        # the background weight of the fitted scenario, not of the shipped
        # one, sets the accepted contrast
        params = calibrate({"success_probability_l6": 2.0e-6}).parameters
        base = preset("l6")
        nodes = {k: replace(getattr(base, k), collection_efficiency=params["collection_efficiency"])
                 for k in ("node1", "node2")}
        fitted = replace(base, xi_max=params["xi_max"], **nodes)
        w = sbr_model(fitted)["background_weight"]
        assert params["xi_max"] * (1.0 - w) == pytest.approx(0.955, rel=1e-12)
        assert sbr_model(base)["background_weight"] < 0.9 * w

    @pytest.mark.parametrize("rates", [DEFAULT_TARGETS["repetition_rates_hz"],
                                       {"l6": 20e3, "l11": 15e3, "l33": 20e3}],
                             ids=["published", "three-presets"])
    def test_t_overhead_matches_a_point_by_point_search(self, rates):
        t_best, _ = fit_t_overhead(rates)
        assert t_best == oracles.brute_t_overhead({n: preset(n) for n in rates}, rates)

    @staticmethod
    def _fitted(params):
        base = preset("l6")
        nodes = {k: replace(getattr(base, k), collection_efficiency=params["collection_efficiency"])
                 for k in ("node1", "node2")}
        return replace(base, xi_max=params["xi_max"], **nodes)

    def test_herald_probability_residual_is_a_round_trip(self, monkeypatch):
        # a herald probability not proportional to c1 c2 leaves an error the
        # closed-form fit cannot remove, and the residual must report it
        model = atomlink.calibration.success_probability
        monkeypatch.setattr(atomlink.calibration, "success_probability",
                            lambda s: model(s) + 1e-6)
        result = calibrate()
        target = DEFAULT_TARGETS["success_probability_l6"]
        error = (model(self._fitted(result.parameters)) + 1e-6 - target) / target
        assert abs(error) > 0.01
        assert result.residuals["success_probability_l6"] == pytest.approx(error, rel=1e-9)

    def test_contrast_residual_is_a_round_trip(self, monkeypatch):
        # likewise a contrast that is not linear in xi_max
        model = atomlink.calibration.accepted_contrast
        monkeypatch.setattr(atomlink.calibration, "accepted_contrast", lambda s: model(s) + 0.05)
        result = calibrate()
        target = DEFAULT_TARGETS["interference_contrast"]
        error = (model(self._fitted(result.parameters)) + 0.05 - target) / target
        assert abs(error) > 1e-3
        assert result.residuals["interference_contrast"] == pytest.approx(error, rel=1e-9)

    def test_xi_max_above_one_exit_3(self, tmp_path):
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps({"interference_contrast": 0.99}))
        code = run_cli("calibrate", "--targets", str(targets), "--out", str(tmp_path))
        assert code == 3

    def test_already_calibrated_noop(self, tmp_path):
        assert run_cli("calibrate", "--out", str(tmp_path)) == 0
        first = json.loads((tmp_path / "calibration.json").read_text())
        assert run_cli("calibrate", "--out", str(tmp_path), "--force") == 0
        second = json.loads((tmp_path / "calibration.json").read_text())
        assert first["parameters"] == second["parameters"]

    def test_contradictory_targets_exit_3(self, tmp_path):
        targets = tmp_path / "targets.json"
        # one per-try overhead cannot give both presets the same rate
        targets.write_text(json.dumps({"repetition_rates_hz": {"l6": 20e3, "l33": 20e3}}))
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
        # the noise comes from the scenario, so both outputs carry its hash
        base = preset("l6")
        quiet = replace(base, node1=replace(base.node1, field_env=replace(
            base.node1.field_env, shot_noise_sigma=0.0, fictitious_field_scale=0.0)))
        path = tmp_path / "quiet.ini"
        save_scenario(quiet, path)
        chash = config_hash(load_scenario(path))
        assert chash != config_hash(base)
        code = run_cli("dephasing", "--scenario", str(path), "--node", "1",
                       "--t-max", "20e-6", "--dt", "4e-6",
                       "--trajectories", "300", "--seed", "3",
                       "--out", str(tmp_path))
        assert code == 0
        with open(tmp_path / "envelope.csv") as fh:
            assert fh.readline() == f"# config_hash={chash}\n"
            rows = list(csv.DictReader(fh))
        assert all(float(r["envelope"]) > 0.999 for r in rows)
        assert json.loads((tmp_path / "manifest.json").read_text())["config_hash"] == chash

    def test_manifest_says_where_the_time_went(self, tmp_path):
        # the timings and counters sit in the manifest only, so two same-seed
        # runs still write the same envelope
        argv = ("dephasing", "--preset", "l6", "--t-max", "12.5e-6", "--dt", "2.5e-6",
                "--trajectories", "150", "--seed", "4")
        for run in ("a", "b"):
            assert run_cli(*argv, "--out", str(tmp_path / run)) == 0
        envelopes = [(tmp_path / run / "envelope.csv").read_bytes() for run in ("a", "b")]
        assert envelopes[0] == envelopes[1]
        for run in ("a", "b"):
            manifest = json.loads((tmp_path / run / "manifest.json").read_text())
            # 12 whole spin steps and the short steps to 2.5, 7.5 and 12.5 us
            assert manifest["counters"] == {"channel_builds": 1, "traj_steps": 150 * 15}
            timings = manifest["timings"]
            assert set(timings) == {"channel_s", "write_s", "total_s"}
            assert all(t > 0.0 for t in timings.values())
            assert timings["total_s"] > timings["channel_s"] + timings["write_s"]

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
        from atomlink.protocol.scenario import load_scenario, preset, config_hash
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


@pytest.mark.parametrize("argv", [("dephasing", "--sigma-mg", "0"),
                                  ("dephasing", "--fictitious-scale", "0"),
                                  ("rates", "--jobs", "2")])
def test_removed_flags_are_usage_errors(tmp_path, argv):
    # noise is set in the scenario file; only simulate and dephasing take --jobs
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", str(tmp_path))
    assert exc.value.code == 2
