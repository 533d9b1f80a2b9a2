"""A run's heralded events and detector clicks as numpy columns.

The columns stay arrays from the simulation loop to the estimators.  A
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


def _check_rows(table):
    lengths = {len(getattr(table, f.name)) for f in fields(table)}
    if len(lengths) > 1:
        raise ValueError(f"{type(table).__name__} columns differ in length: {sorted(lengths)}")


@dataclass(frozen=True, eq=False)
class EventTable:
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

    def __post_init__(self):
        _check_rows(self)

    def __len__(self) -> int:
        return len(self.wall_time_s)


@dataclass(frozen=True, eq=False)
class ClickTable:
    """Detector clicks as equal-length columns, in stream order."""

    window: np.ndarray           # (m,) index into WINDOWS
    detector: np.ndarray         # (m,) index into DETECTORS
    origin: np.ndarray           # (m,) index into CLICK_ORIGINS
    time_s: np.ndarray           # (m,) click time relative to the nominal arrival

    def __post_init__(self):
        _check_rows(self)

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

    def blocks(self):
        """Yield (window, detector, origin, start, stop) of each run of equal codes."""
        key = (self.window.astype(np.int32) * len(DETECTORS) + self.detector) \
            * len(CLICK_ORIGINS) + self.origin
        edges = np.concatenate([[0], np.flatnonzero(np.diff(key)) + 1, [len(key)]])
        for start, stop in zip(edges[:-1].tolist(), edges[1:].tolist()):
            if stop > start:
                yield (int(self.window[start]), int(self.detector[start]),
                       int(self.origin[start]), start, stop)

    def times_by_window(self) -> dict:
        """Click times of each window that has clicks."""
        return {WINDOWS[c]: self.time_s[self.window == c] for c in np.unique(self.window).tolist()}
