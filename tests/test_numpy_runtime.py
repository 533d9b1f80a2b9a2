"""The package runs on numpy alone; scipy is the reference its stand-ins are checked against.

Each command loads only the layers it runs, and parsing the arguments loads no numpy.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import constants as codata
from scipy.special import ndtr

from atomlink import constants as C
from atomlink.cli import main
from atomlink.photonics.interference import PhotonWavepacket, window_capture_probability

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
ENV = {**os.environ, "PYTHONPATH": SRC}


def _benchmark_runner():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def _main_in_subprocess(argv):
    """Exit code of ``main(argv)`` in a fresh interpreter, and the modules it loaded."""
    code = ("import json, sys; from atomlink.cli import main; rc = main(sys.argv[1:]); "
            "print(json.dumps([rc, sorted(sys.modules)]))")
    out = subprocess.run([sys.executable, "-c", code, *argv], env=ENV,
                         capture_output=True, text=True, check=True).stdout
    rc, modules = json.loads(out.splitlines()[-1])
    return rc, set(modules)


def _modules_after(code, *argv):
    """The modules a fresh interpreter has loaded after running ``code``."""
    code += "; import json, sys; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code, *argv], env=ENV,
                         capture_output=True, text=True, check=True).stdout
    return set(json.loads(out.splitlines()[-1]))


@pytest.mark.parametrize("name, reference", [
    ("K_B", codata.Boltzmann),
    ("HBAR", codata.hbar),
    ("MU_B", codata.physical_constants["Bohr magneton"][0]),
    ("C_LIGHT", codata.c),
    ("ATOMIC_MASS", codata.atomic_mass),
])
def test_constants_match_codata(name, reference):
    assert getattr(C, name) == pytest.approx(reference, rel=1e-15)


@pytest.mark.parametrize("wavepacket", [PhotonWavepacket(),
                                        PhotonWavepacket(emission_offset=5e-9, decay_time=9e-9,
                                                         excitation_fwhm=40e-9)])
def test_window_capture_matches_ndtr(wavepacket):
    def cdf(x):
        mu, sigma, tau = wavepacket.emission_offset, wavepacket.excitation_sigma, \
            wavepacket.decay_time
        z = (x - mu) / sigma
        arg = sigma**2 / (2.0 * tau**2) - (x - mu) / tau
        tail = np.exp(arg) * ndtr(z - sigma / tau) if arg < 700.0 else 0.0
        return float(np.clip(ndtr(z) - tail, 0.0, 1.0))

    edges = np.linspace(-200e-9, 400e-9, 61)
    for t0, t1 in zip(edges[:-1], edges[1:]):
        assert abs(window_capture_probability(wavepacket, t0, t1)
                   - (cdf(t1) - cdf(t0))) <= 1e-15
    assert abs(window_capture_probability(wavepacket, -1.0, 1.0) - 1.0) <= 1e-15


def test_cli_import_loads_no_scipy():
    # nor numpy: the import and the parse of each benchmark command line need
    # only the standard library and the preset names, and not dataclasses,
    # which loads inspect
    bench = _benchmark_runner()
    argvs = [bench.main_args(w, 5, "out") for w in bench.WORKLOADS.values()]
    argvs.append(bench.analyze_args("out"))
    modules = _modules_after("import json, sys, atomlink.cli; "
                             "parser = atomlink.cli.build_parser(); "
                             "[parser.parse_args(argv) for argv in json.loads(sys.argv[1])]",
                             json.dumps(argvs))
    assert not {m for m in modules if m.split(".")[0] in ("numpy", "scipy")}
    assert not {"dataclasses", "inspect"} & (modules - _modules_after("pass"))


def test_analyze_loads_no_numpy_ma(tmp_path):
    # np.unique without index outputs imports numpy.ma (13-19 ms) on numpy 2.4;
    # a fringe run with clicks reaches fringe_fit and times_by_window.  Nor
    # does analyze load the generator, the memory layer, the simulation or
    # the calibration
    run = tmp_path / "run"
    assert main(["simulate", "--preset", "l6", "--seed", "3", "--schedule", "fringe",
                 "--events", "400", "--trajectories", "300", "--out", str(run)]) == 0
    argv = ["analyze", "--events", str(run / "events.jsonl"), "--clicks", str(run / "clicks.csv"),
            "--summary", str(run / "summary.json"),
            "--estimators", "fidelity,fringe,chsh,contrast,sbr", "--out", str(run)]
    rc, modules = _main_in_subprocess(argv)
    assert rc == 0
    assert not modules & {"numpy.ma", "numpy.random", "atomlink.memory",
                          "atomlink.protocol.sequence", "atomlink.calibration"}
    # nor any memory module, any photonics module but the detector labels'
    # bsm, or statistics
    assert not {m for m in modules if m.startswith("atomlink.memory.")}
    assert {m for m in modules if m.startswith("atomlink.photonics.")} == {"atomlink.photonics.bsm"}
    assert "statistics" not in modules
    report = json.loads((run / "report.json").read_text())
    assert report["estimators"]["fringe"]["PsiMinus"]["fits"]
    assert report["estimators"]["sbr"]["coincidence"] > 0


def test_scenario_import_loads_no_channel():
    modules = _modules_after("import atomlink.protocol.scenario")
    assert not modules & {"atomlink.memory.channel", "statistics"}


def test_simulate_loads_no_estimators(tmp_path):
    argv = ["simulate", "--preset", "l6", "--events", "50", "--trajectories", "200",
            "--out", str(tmp_path)]
    rc, modules = _main_in_subprocess(argv)
    assert rc == 0
    assert "atomlink.analysis.estimators" not in modules
    assert (tmp_path / "events.jsonl").exists()


def test_dephasing_loads_no_analysis(tmp_path):
    argv = ["dephasing", "--preset", "l6", "--trajectories", "200", "--t-max", "20e-6",
            "--out", str(tmp_path)]
    rc, modules = _main_in_subprocess(argv)
    assert rc == 0
    assert not modules & {"atomlink.analysis", "atomlink.quantum", "atomlink.protocol.sequence"}
    assert (tmp_path / "envelope.csv").exists()


@pytest.mark.parametrize("argv, output", [
    (["dephasing", "--preset", "l6", "--trajectories", "200", "--t-max", "20e-6"],
     "envelope.csv"),
    (["rates", "--presets", "l6", "--trajectories", "100", "--fidelity-out", "f.csv"], "f.csv"),
], ids=["dephasing", "rates-fidelity-out"])
def test_memory_builds_load_no_numpy_random(tmp_path, argv, output):
    # the thermal starts come from the standard library's MT19937 and the
    # field noise is averaged in closed form, so neither numpy's generators
    # (nine extension modules and secrets) nor statistics is loaded
    rc, modules = _main_in_subprocess([*argv, "--out", str(tmp_path)])
    assert rc == 0
    assert "atomlink.memory.channel" in modules
    assert not {m for m in modules if m == "numpy.random" or m.startswith("numpy.random.")}
    assert not modules & {"statistics", "secrets"}
    assert (tmp_path / output).exists()


@pytest.mark.parametrize("command, code", [
    (["dephasing", "--dt", "0"], 2),
    (["analyze", "--events", "events.jsonl"], 4),     # report.json exists
], ids=["dephasing-dt", "analyze-existing-report"])
def test_early_errors_load_no_numpy(tmp_path, command, code):
    (tmp_path / "report.json").write_text("{}")
    rc, modules = _main_in_subprocess([*command, "--out", str(tmp_path)])
    assert rc == code
    assert "numpy" not in modules
    assert not (tmp_path / "envelope.csv").exists()
    assert (tmp_path / "report.json").read_text() == "{}"
