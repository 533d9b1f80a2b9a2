"""The shipped fibre configurations as plain data.

The published fibre lengths, attenuation budgets and readout times of the
four presets, and the values the paper quotes for each.  ``scenario.preset``
builds a ``LinkScenario`` from a row; this module imports nothing, so the
command line can offer the preset names before it loads numpy.
"""

_TABLE_ROWS = {
    # name: (L1, L2, A1, A2, t1, t2) with lengths in km, times in us
    "l6": (2.6, 3.3, 0.7, 0.8, 28.5, 35.5),
    "l11": (5.4, 5.5, 1.5, 1.3, 57.1, 71.0),
    "l23": (11.3, 11.4, 3.3, 2.8, 114.2, 124.3),
    "l33": (16.5, 16.6, 4.5, 4.1, 171.2, 177.5),
}

_PUBLISHED_VALUES = {
    "l6": {"repetition_rate_hz": 30.8e3, "success_probability": 3.66e-6,
           "event_rate_hz": 1.0 / 19.0, "fidelity": 0.830, "fidelity_sigma": 0.010,
           "sbr_node1": 58.0, "sbr_node2": 65.0, "sbr_coincidence": 48.0,
           "events": 4281},
    "l11": {"fidelity": 0.799, "fidelity_sigma": 0.011, "events": 4271},
    "l23": {"fidelity": 0.719, "fidelity_sigma": 0.012, "events": 4153},
    "l33": {"repetition_rate_hz": 9.7e3, "success_probability": 1.22e-6,
            "event_rate_hz": 1.0 / 208.0, "fidelity": 0.622, "fidelity_sigma": 0.015,
            "sbr_coincidence": 42.0, "events": 3022},
}

PRESETS = tuple(_TABLE_ROWS)
