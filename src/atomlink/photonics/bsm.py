"""Bell-state-measurement detectors and two-photon coincidence taxonomy."""

from dataclasses import dataclass
from enum import Enum

import numpy as np

DETECTOR_LABELS = ("H1", "V1", "H2", "V2")


class CoincidenceClass(Enum):
    NOT_DETECTED = "NotDetected"
    D_NULL = "DNull"
    D_PLUS = "DPlus"
    D_MINUS = "DMinus"


@dataclass(frozen=True)
class DetectorParams:
    """The four SNSPDs behind the BSM beamsplitter.

    The dark rate default sits well below the quoted 65 cps upper bound; the
    observed robustness of the coincidence SBR against fibre length pins it
    near this level.
    """

    efficiency: float = 0.85
    dark_rate: float = 15.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must be in [0, 1]")
        if self.dark_rate < 0.0:
            raise ValueError("dark rate must be >= 0")


@dataclass(frozen=True)
class ClickRecord:
    """A single detector click; ``origin`` is simulation truth only."""

    detector: str
    timestamp: float
    origin: str = "signal"

    def __post_init__(self):
        if self.detector not in DETECTOR_LABELS:
            raise ValueError(f"unknown detector {self.detector!r}")
        if not np.isfinite(self.timestamp):
            raise ValueError("timestamp must be finite")


# the 10 unordered detector pairs and their coincidence class
_PAIR_CLASS = {
    frozenset(["H1"]): CoincidenceClass.NOT_DETECTED,
    frozenset(["V1"]): CoincidenceClass.NOT_DETECTED,
    frozenset(["H2"]): CoincidenceClass.NOT_DETECTED,
    frozenset(["V2"]): CoincidenceClass.NOT_DETECTED,
    frozenset(["H1", "H2"]): CoincidenceClass.D_NULL,
    frozenset(["V1", "V2"]): CoincidenceClass.D_NULL,
    frozenset(["H1", "V1"]): CoincidenceClass.D_PLUS,
    frozenset(["H2", "V2"]): CoincidenceClass.D_PLUS,
    frozenset(["H1", "V2"]): CoincidenceClass.D_MINUS,
    frozenset(["V1", "H2"]): CoincidenceClass.D_MINUS,
}

DETECTOR_PAIRS = tuple(
    tuple(sorted(p)) if len(p) == 2 else (next(iter(p)), next(iter(p)))
    for p in _PAIR_CLASS
)

# the detector pairs of each coincidence class, in DETECTOR_PAIRS order
CLASS_PAIRS = {
    cls: tuple(pair for pair, c in zip(DETECTOR_PAIRS, _PAIR_CLASS.values()) if c is cls)
    for cls in CoincidenceClass
}

# per-pair probabilities for fully distinguishable / perfectly interfering photons
_P_NONE = {
    pair: (1.0 / 16.0 if cls is CoincidenceClass.NOT_DETECTED else 1.0 / 8.0)
    for pair, cls in _PAIR_CLASS.items()
}
_P_PERFECT = {}
for pair, cls in _PAIR_CLASS.items():
    if cls is CoincidenceClass.NOT_DETECTED:
        _P_PERFECT[pair] = 1.0 / 8.0
    elif cls is CoincidenceClass.D_NULL:
        _P_PERFECT[pair] = 0.0
    else:
        _P_PERFECT[pair] = 1.0 / 8.0


def classify_coincidence(a: ClickRecord | str, b: ClickRecord | str) -> CoincidenceClass:
    """Coincidence class of an unordered detector pair.

    Same-detector events are single clicks for non-number-resolving
    detectors and fall in the not-detected group.
    """
    la = a.detector if isinstance(a, ClickRecord) else a
    lb = b.detector if isinstance(b, ClickRecord) else b
    for label in (la, lb):
        if label not in DETECTOR_LABELS:
            raise ValueError(f"unknown detector {label!r}")
    return _PAIR_CLASS[frozenset([la, lb])]


def coincidence_distribution(xi: float) -> dict[CoincidenceClass, float]:
    """Class probabilities, linear in the indistinguishability xi."""
    pairs = pair_distribution(xi)
    out = {cls: 0.0 for cls in CoincidenceClass}
    for pair, p in pairs.items():
        out[classify_coincidence(*pair)] += p
    return out


def pair_distribution(xi: float) -> dict[tuple[str, str], float]:
    """Per-detector-pair probabilities, linear in xi between the two columns."""
    if not 0.0 <= xi <= 1.0:
        raise ValueError("xi must be in [0, 1]")
    return {pair: xi * _P_PERFECT[pair_set] + (1.0 - xi) * _P_NONE[pair_set]
            for pair_set, pair in zip(_PAIR_CLASS, DETECTOR_PAIRS)}

