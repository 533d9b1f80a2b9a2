from .trap import (
    AtomInitialCondition,
    TrapParams,
    propagate_trajectory,
    sample_initial_conditions,
)
from .fields import FieldEnvironment
from .spin import SpinTrajectoryResult, evolve_spin1, spin1_matrices
from .channel import (
    CoherenceEnvelope,
    DephasingChannelFamily,
    QutritChannel,
    coherence_envelope,
    dephasing_channel,
    dephasing_channel_family,
)

__all__ = [
    "AtomInitialCondition", "TrapParams", "propagate_trajectory",
    "sample_initial_conditions", "FieldEnvironment",
    "SpinTrajectoryResult", "evolve_spin1", "spin1_matrices",
    "CoherenceEnvelope", "DephasingChannelFamily", "QutritChannel",
    "coherence_envelope", "dephasing_channel", "dephasing_channel_family",
]
