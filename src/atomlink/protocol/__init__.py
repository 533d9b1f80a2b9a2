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
    repetition_rate,
    sbr_model,
    success_probability,
)
from .model import fidelity_vs_length
from .sequence import RunResult, run_sequence

__all__ = [
    "LinkScenario", "NodeConfig", "SequenceConfig", "PRESETS", "config_hash",
    "load_scenario", "preset", "save_scenario",
    "duty_cycle", "event_rate", "repetition_rate", "sbr_model", "success_probability",
    "fidelity_vs_length", "RunResult", "run_sequence",
]
