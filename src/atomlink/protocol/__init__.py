from .scenario import (
    LinkScenario,
    NodeConfig,
    SequenceConfig,
    PRESETS,
    config_hash,
    load_scenario,
    preset,
    save_scenario,
)
from .rates import (
    duty_cycle,
    event_rate,
    heralding_delay,
    repetition_rate,
    sbr_model,
    success_probability,
    success_probability_report,
    simulate_occupancy,
)
from .model import fidelity_vs_length
from .sequence import RunResult, run_sequence

__all__ = [
    "LinkScenario", "NodeConfig", "SequenceConfig", "PRESETS", "config_hash",
    "load_scenario", "preset", "save_scenario",
    "duty_cycle", "event_rate", "heralding_delay", "repetition_rate",
    "sbr_model", "success_probability",
    "success_probability_report", "simulate_occupancy",
    "fidelity_vs_length", "RunResult", "run_sequence",
]
