"""Calibration of the model constants against published observables.

The fits are deliberately simple and closed-form where possible: each
constant is pinned by one or two observables, so the calibration stays
auditable.  Residuals are reported for every target.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .constants import GAMMA_2
from .photonics import link_transmission, propagation_delay
from .protocol.rates import accepted_contrast
from .protocol.scenario import CAL_AP_SCALE, LinkScenario, preset

DEFAULT_TARGETS = {
    "repetition_rates_hz": {"l6": 30.8e3, "l33": 9.7e3},
    "success_probability_l6": 3.66e-6,
    "interference_contrast": 0.955,
    "coherence_time_s": 330e-6,
}

# largest |residual| of a converged calibration; above it the targets contradict
RESIDUAL_TOLERANCE = 0.10


def _flight(scenario: LinkScenario) -> float:
    return max(propagation_delay(scenario.link1), propagation_delay(scenario.link2))


def fit_t_overhead(rep_targets: dict) -> tuple[float, dict]:
    """Single overhead constant minimizing the worst relative rate error."""
    rows = {name: (_flight(preset(name)), rate) for name, rate in rep_targets.items()}

    def worst(t_ov):
        return max(abs(1.0 / (t_ov + fl) - r) / r for fl, r in rows.values())

    grid = np.linspace(5e-6, 40e-6, 7001)
    errs = [worst(t) for t in grid]
    t_best = float(grid[int(np.argmin(errs))])
    residuals = {
        name: (1.0 / (t_best + fl) - r) / r for name, (fl, r) in rows.items()
    }
    return t_best, residuals


def fit_collection_efficiency(p_target: float, scenario: LinkScenario) -> float:
    """Equal per-node collection efficiency reproducing the herald probability."""
    fixed = 1.0
    for node, link in zip(scenario.nodes(), scenario.links()):
        fixed *= node.qfc.external_efficiency * link_transmission(link) \
            * scenario.detectors.efficiency
    c_squared = p_target / (0.5 * fixed)
    if c_squared <= 0 or c_squared > 1:
        raise ValueError("herald probability target out of reachable range")
    return float(np.sqrt(c_squared))


def sigma_from_coherence_time(t2: float) -> float:
    """Quasi-static field noise width from the 1/e coherence time (gauss)."""
    if t2 <= 0:
        raise ValueError("coherence time must be positive")
    return float(np.sqrt(2.0) / (GAMMA_2 * t2))


def check_targets(targets) -> None:
    """Raise ValueError unless ``targets`` is a dict of ``DEFAULT_TARGETS`` keys."""
    if not isinstance(targets, dict):
        raise ValueError("targets must be a JSON object")
    unknown = [k for k in targets if k not in DEFAULT_TARGETS]
    if unknown:
        raise ValueError(f"unknown target {unknown[0]!r}; known: {sorted(DEFAULT_TARGETS)}")


@dataclass
class CalibrationResult:
    parameters: dict
    residuals: dict
    converged: bool
    notes: list = field(default_factory=list)


def calibrate(targets: dict | None = None) -> CalibrationResult:
    """Fit the calibrated constants to a target dictionary.

    Missing target entries keep the shipped defaults; a key that is not a
    ``DEFAULT_TARGETS`` key is an error.  Residuals above
    ``RESIDUAL_TOLERANCE`` mark the result as non-converged (contradictory
    targets).
    """
    t = dict(DEFAULT_TARGETS)
    if targets:
        check_targets(targets)
        t.update(targets)
    params = {}
    residuals = {}
    notes = []

    t_ov, rep_res = fit_t_overhead(t["repetition_rates_hz"])
    params["t_overhead"] = t_ov
    for name, r in rep_res.items():
        residuals[f"repetition_rate_{name}"] = r

    base = preset("l6")
    coll = fit_collection_efficiency(t["success_probability_l6"], base)
    params["collection_efficiency"] = coll
    # closed-form inversion reproduces the target exactly
    residuals["success_probability_l6"] = 0.0

    contrast = float(t["interference_contrast"])
    if not 0.0 <= contrast <= 1.0:
        raise ValueError("contrast target out of range")
    # the accepted contrast is linear in xi_max, and its background weight
    # is that of the fitted collection efficiency
    fitted = replace(base, node1=replace(base.node1, collection_efficiency=coll),
                     node2=replace(base.node2, collection_efficiency=coll), xi_max=1.0)
    xi = contrast / accepted_contrast(fitted)
    if xi > 1.0:
        raise ValueError(f"fitted xi_max {xi:.4f} exceeds 1")
    params["xi_max"] = xi
    residuals["interference_contrast"] = 0.0

    sigma_t2 = sigma_from_coherence_time(t["coherence_time_s"])
    params["sigma_shot_noise"] = sigma_t2
    residuals["coherence_time"] = (
        np.sqrt(2.0) / (GAMMA_2 * sigma_t2) - t["coherence_time_s"]
    ) / t["coherence_time_s"]

    params["ap_visibility_scale"] = CAL_AP_SCALE
    notes.append("ap_visibility_scale is the shipped CAL_AP_SCALE, returned unchanged; "
                 "no target fits it")
    worst = max(abs(v) for v in residuals.values())
    converged = worst <= RESIDUAL_TOLERANCE
    if not converged:
        notes.append(f"worst residual {worst:.3f} exceeds tolerance {RESIDUAL_TOLERANCE}")
    return CalibrationResult(params, residuals, converged, notes)
