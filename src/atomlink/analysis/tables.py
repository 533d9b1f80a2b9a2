"""A run's heralded events and detector clicks as numpy columns.

The columns stay arrays from the simulation draws to the estimators.  A
categorical column holds small integer codes into one of the vocabularies
below, whose strings are the ones the output files carry.
"""

from dataclasses import dataclass, fields

import numpy as np

from ..photonics.bsm import DETECTOR_LABELS
from ..quantum import BellOutcome, MeasurementPlane

BELL_OUTCOMES = tuple(o.value for o in BellOutcome)
PLANES = tuple(p.value for p in MeasurementPlane)
# sampled atom readouts (node 1, node 2), in OUTCOME_KEYS order
READOUTS = (("up", "up"), ("up", "down"), ("down", "up"), ("down", "down"))
WINDOWS = ("node1", "node2")
DETECTORS = DETECTOR_LABELS + ("single",)
# simulation truth: "mixed" marks the clicks of a background-assisted herald
CLICK_ORIGINS = ("signal", "mixed", "background")
# the (alpha, beta, plane) readout settings of each run schedule
SCHEDULES = {
    "three-basis": (
        [(0.0, 0.0, "equator"), (np.pi / 2, 0.0, "equator"),
         (np.pi / 4, np.pi / 4, "equator"), (3 * np.pi / 4, np.pi / 4, "equator"),
         (0.0, 0.0, "z"), (np.pi / 2, 0.0, "z")]
    ),
    "fringe": (
        [(np.radians(a), 0.0, "equator") for a in (0, 22.5, 45, 67.5, 90)]
        + [(np.radians(a), np.pi / 4, "equator") for a in (45, 67.5, 90, 112.5, 135)]
    ),
    "chsh": (
        [(np.radians(22.5), 0.0, "equator"), (np.radians(67.5), 0.0, "equator"),
         (np.radians(67.5), np.radians(45), "equator"),
         (np.radians(112.5), np.radians(45), "equator")]
    ),
}
# basis -> its (aligned, flipped) settings, consecutive in the three-basis schedule
BASIS_PAIRS = dict(zip(("X", "Y", "Z"), zip(SCHEDULES["three-basis"][0::2],
                                            SCHEDULES["three-basis"][1::2])))
# The events.jsonl record of one event, as json.dumps writes it; every
# string is written already quoted.
EVENT_LINE = (
    '{"wall_time_s": %r, "try_index": %d, "bell_outcome": %s, "detector1": %s, '
    '"detector2": %s, "click1_ns": %r, "click2_ns": %r, "accepted": %s, "origin": %s, '
    '"alpha_rad": %r, "beta_rad": %r, "plane": %s, "fidelity": %r, "probabilities": '
    '{"uu": %r, "ud": %r, "du": %r, "dd": %r}, "outcome1": %s, "outcome2": %s, '
    '"config_hash": %s}\n')


class _Columns:
    """The fields of a frozen dataclass as equal-length columns, one row each."""

    def __post_init__(self):
        lengths = {len(getattr(self, f.name)) for f in fields(self)}
        if len(lengths) > 1:
            raise ValueError(f"{type(self).__name__} columns differ in length: {sorted(lengths)}")

    def rows(self, index):
        """The table of the rows that ``index`` (a slice or an index array) selects."""
        return type(self)(**{f.name: getattr(self, f.name)[index] for f in fields(self)})


@dataclass(frozen=True, eq=False)
class EventTable(_Columns):
    """Heralded events as equal-length columns, one row per ``events.jsonl`` record."""

    wall_time_s: np.ndarray      # (n,)
    try_index: np.ndarray        # (n,) int
    outcome: np.ndarray          # (n,) index into BELL_OUTCOMES
    detectors: np.ndarray        # (n, 2) index into DETECTORS
    click_ns: np.ndarray         # (n, 2) click times relative to the nominal arrival
    accepted: np.ndarray         # (n,) bool: both clicks inside the acceptance window
    signal: np.ndarray           # (n,) bool: False for a background-assisted herald
    alpha_rad: np.ndarray        # (n,) analyzer angles and plane of the readout
    beta_rad: np.ndarray
    plane: np.ndarray            # (n,) index into PLANES
    fidelity: np.ndarray         # (n,) fidelity with the heralded Bell state
    probabilities: np.ndarray    # (n, 4) readout probabilities in OUTCOME_KEYS order
    readout: np.ndarray          # (n,) index into READOUTS, -1 where none was sampled

    def __len__(self) -> int:
        return len(self.wall_time_s)


@dataclass(frozen=True, eq=False)
class ClickTable(_Columns):
    """Detector clicks as equal-length columns, in stream order."""

    window: np.ndarray           # (m,) index into WINDOWS
    detector: np.ndarray         # (m,) index into DETECTORS
    origin: np.ndarray           # (m,) index into CLICK_ORIGINS
    time_s: np.ndarray           # (m,) click time relative to the nominal arrival

    def __len__(self) -> int:
        return len(self.time_s)

    @classmethod
    def from_blocks(cls, blocks) -> "ClickTable":
        """Concatenate (window, detector, origin, times) blocks.

        Each code is a scalar for the whole block or an array as long as its
        ``times``.
        """
        blocks = [(w, d, o, np.asarray(t, dtype=float)) for w, d, o, t in blocks]
        codes = [np.concatenate([np.broadcast_to(np.asarray(b[k], dtype=np.int8), b[3].shape)
                                 for b in blocks] or [np.empty(0, np.int8)])
                 for k in range(3)]
        times = np.concatenate([b[3] for b in blocks] or [np.empty(0)])
        return cls(*codes, times)

    def times_by_window(self) -> dict:
        """Click times of each window that has clicks."""
        codes = np.flatnonzero(np.bincount(self.window)).tolist()
        return {WINDOWS[c]: self.time_s[self.window == c] for c in codes}


def round_angles(angles) -> np.ndarray:
    """Analyzer angles rounded to 12 digits: the rule for "same setting".

    Python's ``round`` is correctly rounded, unlike numpy's.
    """
    return np.array([round(a, 12) for a in np.asarray(angles, dtype=float).tolist()],
                    dtype=float)


@dataclass(frozen=True, eq=False)
class CorrelationDataset(_Columns):
    """Readout counts of each analyzer setting and Bell outcome, one row each.

    The table keeps its angles through ``round_angles``, so two settings
    are the same when their angle columns are equal.
    """

    alpha: np.ndarray            # (k,) node-1 analyzer angle (rad)
    beta: np.ndarray             # (k,) node-2 analyzer angle
    plane: np.ndarray            # (k,) index into PLANES
    outcome: np.ndarray          # (k,) index into BELL_OUTCOMES
    counts: np.ndarray           # (k, 4) in OUTCOME_KEYS order: counts or summed probabilities

    def __post_init__(self):
        for name in ("alpha", "beta"):
            object.__setattr__(self, name, round_angles(getattr(self, name)))
        super().__post_init__()

    def __len__(self) -> int:
        return len(self.alpha)

    def select(self, plane: str, outcome: str) -> "CorrelationDataset":
        """The rows of one readout plane and Bell outcome."""
        return self.rows((self.plane == PLANES.index(plane))
                         & (self.outcome == BELL_OUTCOMES.index(outcome)))

    def counts_at(self, alpha: float, beta: float, plane: str, outcome: str) -> np.ndarray:
        """The counts of one setting and Bell outcome; KeyError if the table has none."""
        rows = self.select(plane, outcome)
        a, b = round_angles([alpha, beta])
        hit = np.flatnonzero((rows.alpha == a) & (rows.beta == b))
        if not len(hit):
            raise KeyError(f"no counts for setting ({alpha}, {beta}, {plane}, {outcome})")
        return rows.counts[hit[0]]
