from .trap import TrapParams
from .fields import FieldEnvironment
from .channel import (
    CoherenceEnvelope,
    DephasingChannelFamily,
    QutritChannel,
    coherence_envelope,
    dephasing_channel_family,
)

__all__ = [
    "TrapParams", "FieldEnvironment",
    "CoherenceEnvelope", "DephasingChannelFamily", "QutritChannel",
    "coherence_envelope", "dephasing_channel_family",
]
