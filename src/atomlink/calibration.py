"""Calibration of the model constants against published observables.

Each fit inverts the rate model the runs use (``protocol.rates``), and
each residual puts the fitted constants back through that model: it is the
relative error by which the fitted model misses its target.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .protocol.rates import accepted_contrast, flight_time, repetition_rate, success_probability
from .protocol.presets import PRESETS
from .protocol.scenario import CAL_AP_SCALE, LinkScenario, preset

DEFAULT_TARGETS = {
    "repetition_rates_hz": {name: preset(name).published_values["repetition_rate_hz"]
                            for name in ("l6", "l33")},
    "success_probability_l6": preset("l6").published_values["success_probability"],
    "interference_contrast": 0.955,
}

# largest |residual| of a converged calibration; above it the targets contradict
RESIDUAL_TOLERANCE = 0.10


def _relative(model: float, target: float) -> float:
    return (model - target) / target


def fit_t_overhead(rep_targets: dict) -> tuple[float, dict]:
    """Single overhead constant minimizing the worst relative rate error.

    Returns it with each preset's relative ``repetition_rate`` error at it.
    """
    scenarios = {name: preset(name) for name in rep_targets}
    flights = np.array([flight_time(s) for s in scenarios.values()])
    rates = np.array(list(rep_targets.values()))
    grid = np.linspace(5e-6, 40e-6, 7001)
    worst = (np.abs(1.0 / (grid[:, None] + flights) - rates) / rates).max(axis=1)
    t_best = float(grid[np.argmin(worst)])
    residuals = {name: _relative(repetition_rate(replace(s, t_overhead=t_best)), rep_targets[name])
                 for name, s in scenarios.items()}
    return t_best, residuals


def fit_collection_efficiency(p_target: float, scenario: LinkScenario) -> float:
    """Equal per-node collection efficiency at which ``success_probability`` meets the target.

    The herald probability is proportional to the product c1 c2 of the two
    nodes' collection efficiencies, so its value at the scenario's own fixes c.
    """
    c1, c2 = (node.collection_efficiency for node in scenario.nodes())
    c_squared = p_target * c1 * c2 / success_probability(scenario)
    if not 0.0 < c_squared <= 1.0:
        raise ValueError("herald probability target out of reachable range")
    return float(np.sqrt(c_squared))


def _real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_targets(targets) -> None:
    """Raise ValueError unless ``targets`` is a dict of ``DEFAULT_TARGETS`` keys with usable values.

    The herald probability and the contrast are real numbers in (0, 1]; the
    repetition rates are a non-empty object of preset names to positive rates.
    """
    if not isinstance(targets, dict):
        raise ValueError("targets must be a JSON object")
    unknown = [k for k in targets if k not in DEFAULT_TARGETS]
    if unknown:
        raise ValueError(f"unknown target {unknown[0]!r}; known: {sorted(DEFAULT_TARGETS)}")
    rates = targets.get("repetition_rates_hz", DEFAULT_TARGETS["repetition_rates_hz"])
    if not (isinstance(rates, dict) and rates and all(
            name in PRESETS and _real(r) and r > 0.0 for name, r in rates.items())):
        raise ValueError("target 'repetition_rates_hz' must map preset names "
                         f"{list(PRESETS)} to positive rates")
    for key in ("success_probability_l6", "interference_contrast"):
        if key in targets and not (_real(targets[key]) and 0.0 < targets[key] <= 1.0):
            raise ValueError(f"target {key!r} must be a real number in (0, 1]")


@dataclass
class CalibrationResult:
    parameters: dict
    residuals: dict
    converged: bool
    notes: list = field(default_factory=list)


def calibrate(targets: dict | None = None) -> CalibrationResult:
    """Fit the calibrated constants to a target dictionary.

    Missing target entries keep the shipped defaults; a target that
    ``check_targets`` rejects is an error.  Residuals above
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
    p_target = t["success_probability_l6"]
    coll = fit_collection_efficiency(p_target, base)
    params["collection_efficiency"] = coll
    fitted = replace(base, node1=replace(base.node1, collection_efficiency=coll),
                     node2=replace(base.node2, collection_efficiency=coll))
    residuals["success_probability_l6"] = _relative(success_probability(fitted), p_target)

    contrast = t["interference_contrast"]
    # the accepted contrast is linear in xi_max, and its background weight
    # is that of the fitted collection efficiency
    xi = contrast / accepted_contrast(replace(fitted, xi_max=1.0))
    if xi > 1.0:
        raise ValueError(f"fitted xi_max {xi:.4f} exceeds 1")
    params["xi_max"] = xi
    residuals["interference_contrast"] = _relative(
        accepted_contrast(replace(fitted, xi_max=xi)), contrast)

    params["ap_visibility_scale"] = CAL_AP_SCALE
    notes.append("ap_visibility_scale is the shipped CAL_AP_SCALE, returned unchanged; "
                 "no target fits it")
    worst = max(abs(v) for v in residuals.values())
    converged = worst <= RESIDUAL_TOLERANCE
    if not converged:
        notes.append(f"worst residual {worst:.3f} exceeds tolerance {RESIDUAL_TOLERANCE}")
    return CalibrationResult(params, residuals, converged, notes)
