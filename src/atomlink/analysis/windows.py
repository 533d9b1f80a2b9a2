"""Acceptance windowing and signal-to-background estimation."""

from dataclasses import dataclass

import numpy as np

# recording span of the singles histogram around the nominal arrival
HISTOGRAM_SPAN = (-500e-9, 500e-9)


@dataclass(frozen=True)
class DetectionHistogram:
    """Arrival-time histogram per channel (e.g. photon origin node)."""

    bin_edges: np.ndarray
    counts: dict

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("bin edges must be increasing")
        for key, c in self.counts.items():
            c = np.asarray(c)
            if c.shape != (len(edges) - 1,):
                raise ValueError(f"channel {key!r} counts do not match bins")
            if np.any(c < 0):
                raise ValueError("counts must be >= 0")
        object.__setattr__(self, "bin_edges", edges)

    @classmethod
    def from_click_times(cls, times_by_channel: dict, bin_edges) -> "DetectionHistogram":
        edges = np.asarray(bin_edges, dtype=float)
        counts = {
            key: np.histogram(np.asarray(t, dtype=float), bins=edges)[0]
            for key, t in times_by_channel.items()
        }
        return cls(edges, counts)


def acceptance_filter(click_pairs, window: float, window_offset: float = 0.0):
    """Keep coincidences with both clicks inside [offset, offset + window].

    ``click_pairs`` is an (n, 2) array of click times relative to the
    excitation.  Returns (mask, accepted_fraction).
    """
    if window < 0:
        raise ValueError("window must be >= 0")
    pairs = np.asarray(click_pairs, dtype=float).reshape(-1, 2)
    lo, hi = window_offset, window_offset + window
    mask = np.all((pairs >= lo) & (pairs <= hi), axis=1)
    fraction = float(mask.mean()) if len(mask) else 0.0
    return mask, fraction


@dataclass(frozen=True)
class SbrEstimate:
    per_channel: dict
    coincidence: float
    unbounded: bool


def sbr(histogram: DetectionHistogram, window: tuple[float, float],
        exclusion: tuple[float, float] | None = None) -> SbrEstimate:
    """Signal-to-background ratios from a detection-time histogram.

    The flat background level is estimated from side bands outside
    ``exclusion`` (defaults to the window itself); each channel's SBR is
    (in-window counts - expected background) / expected background.  The
    two-photon coincidence SBR combines the channels harmonically, since a
    coincidence is spoiled if either window holds a background click.
    A zero background estimate is reported as unbounded.
    """
    t0, t1 = window
    if t1 <= t0:
        raise ValueError("window must have positive length")
    ex0, ex1 = exclusion if exclusion is not None else (t0, t1)
    edges = histogram.bin_edges
    widths = np.diff(edges)
    centers = (edges[:-1] + edges[1:]) / 2.0
    in_window = (centers >= t0) & (centers <= t1)
    side = (centers < ex0) | (centers > ex1)
    if not np.any(side):
        raise ValueError("no side-band bins available for background estimation")
    window_span = float(np.sum(widths[in_window]))

    per_channel = {}
    unbounded = False
    for key, counts in histogram.counts.items():
        bg_rate = float(np.sum(counts[side])) / float(np.sum(widths[side]))
        expected_bg = bg_rate * window_span
        signal = float(np.sum(counts[in_window])) - expected_bg
        if expected_bg <= 0.0:
            per_channel[key] = np.inf
            unbounded = True
        else:
            per_channel[key] = signal / expected_bg
    finite = [v for v in per_channel.values() if np.isfinite(v) and v > 0]
    if unbounded or not finite:
        coincidence = np.inf if unbounded else 0.0
    else:
        coincidence = 1.0 / sum(1.0 / v for v in finite)
    return SbrEstimate(per_channel, coincidence, unbounded)
