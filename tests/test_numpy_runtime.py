"""The package runs on numpy alone; scipy is the reference its stand-ins are checked against."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import constants as codata
from scipy.special import ndtr, ndtri

from atomlink import constants as C
from atomlink.cli import main
from atomlink.memory.channel import _normal_grid
from atomlink.photonics import PhotonWavepacket, window_capture_probability

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize("name, reference", [
    ("K_B", codata.Boltzmann),
    ("HBAR", codata.hbar),
    ("MU_B", codata.physical_constants["Bohr magneton"][0]),
    ("C_LIGHT", codata.c),
    ("ATOMIC_MASS", codata.atomic_mass),
])
def test_constants_match_codata(name, reference):
    assert getattr(C, name) == pytest.approx(reference, rel=1e-15)


@pytest.mark.parametrize("n", [1, 2, 7, 600, 2000, 10000])
def test_normal_grid_matches_ndtri(n):
    expected = ndtri((np.arange(n) + 0.5) / n)
    np.testing.assert_allclose(_normal_grid(n), expected, rtol=1e-15, atol=1e-15)


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
    code = ("import sys, atomlink.cli; "
            "print(','.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == ""


def test_analyze_loads_no_numpy_ma(tmp_path):
    # np.unique without index outputs imports numpy.ma (13-19 ms) on numpy 2.4;
    # a fringe run with clicks reaches fringe_fit and times_by_window
    run = tmp_path / "run"
    assert main(["simulate", "--preset", "l6", "--seed", "3", "--schedule", "fringe",
                 "--events", "400", "--trajectories", "300", "--out", str(run)]) == 0
    code = ("import sys; from atomlink.cli import main; rc = main(sys.argv[1:]); "
            "print(rc, 'numpy.ma' in sys.modules)")
    argv = ["analyze", "--events", str(run / "events.jsonl"), "--clicks", str(run / "clicks.csv"),
            "--summary", str(run / "summary.json"),
            "--estimators", "fidelity,fringe,chsh,contrast,sbr", "--out", str(run)]
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split()[-2:] == ["0", "False"]
    report = json.loads((run / "report.json").read_text())
    assert report["estimators"]["fringe"]["PsiMinus"]["fits"]
    assert report["estimators"]["sbr"]["coincidence"] > 0
