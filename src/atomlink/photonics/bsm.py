"""Bell-state-measurement detectors and two-photon coincidence taxonomy."""

from dataclasses import dataclass
from enum import Enum

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

def classify_coincidence(a: str, b: str) -> CoincidenceClass:
    """Coincidence class of an unordered detector pair.

    Same-detector events are single clicks for non-number-resolving
    detectors and fall in the not-detected group.
    """
    for label in (a, b):
        if label not in DETECTOR_LABELS:
            raise ValueError(f"unknown detector {label!r}")
    return _PAIR_CLASS[frozenset([a, b])]


def coincidence_distribution(xi: float) -> dict[CoincidenceClass, float]:
    """Class probabilities of a photon pair of indistinguishability xi.

    Distinguishable photons fill the ten detector pairs evenly: 1/8 for each
    two-detector pair, 1/16 for each single detector.  Perfect two-photon
    interference (Hong-Ou-Mandel) empties D-null into the not-detected
    group, and the D+ and D- groups keep 1/4 each at every xi.
    """
    if not 0.0 <= xi <= 1.0:
        raise ValueError("xi must be in [0, 1]")
    return {
        CoincidenceClass.NOT_DETECTED: (1.0 + xi) / 4.0,
        CoincidenceClass.D_NULL: (1.0 - xi) / 4.0,
        CoincidenceClass.D_PLUS: 0.25,
        CoincidenceClass.D_MINUS: 0.25,
    }
