"""Rate and probability budget of the entanglement-generation protocol."""

import numpy as np

from ..photonics.fibre import link_transmission, propagation_delay
from ..photonics.interference import indistinguishability, window_capture_probability
from .scenario import LinkScenario, SequenceConfig


def node_detection_efficiency(scenario: LinkScenario, node_index: int) -> float:
    """Probability per try that this node's photon clicks at the middle station."""
    node = scenario.nodes()[node_index]
    link = scenario.links()[node_index]
    return (
        node.collection_efficiency
        * node.qfc.external_efficiency
        * link_transmission(link)
        * scenario.detectors.efficiency
    )


def success_probability(scenario: LinkScenario) -> float:
    """Herald probability per synchronized try.

    Both photons must click and the coincidence must land in the heralding
    detector groups, which accept half of the detected pairs.
    """
    return 0.5 * node_detection_efficiency(scenario, 0) * node_detection_efficiency(scenario, 1)


def flight_time(scenario: LinkScenario) -> float:
    """The longer one-way photon flight from a node to the middle station."""
    return max(propagation_delay(scenario.link1), propagation_delay(scenario.link2))


def repetition_rate(scenario: LinkScenario) -> float:
    """Try rate during bursts: overhead plus the longer one-way photon flight."""
    return 1.0 / (scenario.t_overhead + flight_time(scenario))


def block_model(sequence: SequenceConfig, try_period: float) -> tuple[int, float]:
    """(live tries per block, probability that one trap survives a block).

    A block holds as many bursts of ``tries_per_cooling_block`` tries, each
    followed by cooling, as fit in ``block_period`` (at least one), and ends
    in a presence check; a trap lives for an exponential time.
    """
    per_burst = sequence.tries_per_cooling_block
    burst = per_burst * try_period + sequence.cooling_duration
    tries_per_block = max(per_burst, int(sequence.block_period / burst) * per_burst)
    elapsed = sequence.block_period + sequence.presence_check_duration
    return tries_per_block, float(np.exp(-elapsed / sequence.trap_lifetime))


def duty_cycle(sequence: SequenceConfig, try_period: float) -> float:
    """Expected fraction of wall time spent making synchronized tries.

    One block of the sequence clock takes its live tries, the cooling after
    each burst, the presence check and, if a trap was lost (probability q
    per trap), a reload pause of U(0.4, 1.6) loading times, or the longer
    of two (mean 1.2) if both were: L (2 q (1 - q) + 1.2 q^2) on average.
    """
    if try_period <= 0:
        raise ValueError("try period must be positive")
    tries_per_block, p_survive = block_model(sequence, try_period)
    q = 1.0 - p_survive
    live = tries_per_block * try_period
    cooling = tries_per_block // sequence.tries_per_cooling_block * sequence.cooling_duration
    pause = sequence.loading_time * (2.0 * q * (1.0 - q) + 1.2 * q**2)
    return live / (live + cooling + sequence.presence_check_duration + pause)


def background_herald_probability(eta1: float, eta2: float, bg_mean: float) -> float:
    """Probability per try of a herald that takes a background click.

    One photon clicks and a background click replaces the other, or two
    background clicks coincide; such a pair lands in a heralding group
    half of the time (distinguishable-photon statistics).
    """
    return 0.5 * (eta1 * (1 - eta2) + eta2 * (1 - eta1)) * bg_mean + 0.25 * bg_mean**2


def event_rate(scenario: LinkScenario, success_prob: float | None = None,
               repetition_hz: float | None = None,
               duty: float | None = None) -> float:
    """Heralded events per second of wall time."""
    p = success_probability(scenario) if success_prob is None else success_prob
    rep = repetition_rate(scenario) if repetition_hz is None else repetition_hz
    d = scenario.duty_cycle_nominal if duty is None else duty
    if p == 0.0:
        return 0.0
    return p * rep * d


def background_rate_at_station(scenario: LinkScenario) -> float:
    """Flat click rate at the middle station: both nodes' Raman light plus darks."""
    raman1 = scenario.node1.qfc.background_rate * link_transmission(scenario.link1)
    raman2 = scenario.node2.qfc.background_rate * link_transmission(scenario.link2)
    return raman1 + raman2 + 4.0 * scenario.detectors.dark_rate


def window_capture(scenario: LinkScenario, node_index: int) -> float:
    """Probability that a detected photon falls inside the acceptance window."""
    node = scenario.nodes()[node_index]
    off = scenario.acceptance_offset
    return window_capture_probability(node.wavepacket, off, off + scenario.acceptance_window)


def sbr_model(scenario: LinkScenario) -> dict:
    """Modelled signal-to-background ratios in the acceptance window.

    ``node1`` and ``node2`` are each node's photon click probability in the
    window over the whole station's background count in it.  ``coincidence``
    is the signal heralds over the heralds in which a background click
    replaces either photon, or both (see ``background_herald_probability``);
    for small click and background odds this is the harmonic combination
    1 / (1 / node1 + 1 / node2) of the per-node ratios.  The paper's l6
    values do not follow that definition: its coincidence ratio (48) is
    not the harmonic combination of its per-node ratios (58 and 65, which
    give 30.6).  No constant is tuned to close that gap.
    """
    bg_mean = background_rate_at_station(scenario) * scenario.acceptance_window
    out = {}
    etas = []
    for i in (0, 1):
        eta_w = node_detection_efficiency(scenario, i) * window_capture(scenario, i)
        etas.append(eta_w)
        out[f"node{i + 1}"] = eta_w / bg_mean if bg_mean > 0 else np.inf
    p_sig = 0.5 * etas[0] * etas[1]
    p_bg = background_herald_probability(*etas, bg_mean)
    out["coincidence"] = p_sig / p_bg if p_bg > 0 else np.inf
    out["background_weight"] = p_bg / (p_sig + p_bg) if p_sig + p_bg > 0 else 0.0
    return out


def accepted_contrast(scenario: LinkScenario) -> float:
    """Two-photon interference contrast the accepted coincidences show.

    Background coincidences fill D-null at half their herald share, so the
    contrast is xi (1 - w): xi the signal pairs' contrast at the scenario's
    wavepacket delay, w the background herald weight.
    """
    xi = indistinguishability(scenario.node1.wavepacket, scenario.node2.wavepacket,
                              scenario.wavepacket_delay, scenario.xi_max)
    return xi * (1.0 - sbr_model(scenario)["background_weight"])
