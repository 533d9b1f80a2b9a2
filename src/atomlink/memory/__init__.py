from .trap import TrapParams
from .fields import FieldEnvironment
from .channel import DephasingChannelFamily, dephasing_channel_family

__all__ = [
    "TrapParams", "FieldEnvironment",
    "DephasingChannelFamily", "dephasing_channel_family",
]
