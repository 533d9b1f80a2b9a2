"""Fidelity-versus-length model: memory envelopes times interference contrast."""

from dataclasses import astuple

from ..analysis import fidelity_bound
from ..memory import dephasing_channel_family
from .rates import accepted_contrast
from .scenario import CAL_SIGMA_SHOT_EFF


def _memory_env(node, sigma_override):
    if sigma_override is None:
        return node.field_env
    return node.field_env.replace(shot_noise_sigma=float(sigma_override))


def memory_envelopes(scenarios, n_trajectories=4000, seed=1000,
                     memory_noise_sigma=CAL_SIGMA_SHOT_EFF):
    """Visibility envelopes of both memories at every scenario's readout times.

    One Monte-Carlo family is built per distinct node physics;
    ``memory_noise_sigma`` (gauss) replaces the quasi-static noise width with
    the value calibrated against the published fidelity falloff (None keeps
    each node's configured environment).
    """
    def node_key(node):
        env = _memory_env(node, memory_noise_sigma)
        return (*astuple(node.trap), node.temperature, *astuple(env))

    jobs = {}
    physics = {}
    for s in scenarios:
        for node, t in zip(s.nodes(), s.readout_times()):
            key = node_key(node)
            physics[key] = (node.trap, node.temperature, _memory_env(node, memory_noise_sigma))
            jobs.setdefault(key, set()).add(round(t, 12))
    families = {}
    for i, (key, times) in enumerate(sorted(jobs.items())):
        trap, temperature, env = physics[key]
        grid = sorted(times | {0.0})
        families[key] = dephasing_channel_family(
            trap, env, temperature, grid, n_trajectories, seed=seed + i)

    def envelope(scenario, node_index):
        node = scenario.nodes()[node_index]
        fam = families[node_key(node)]
        t = scenario.readout_times()[node_index]
        # |c[up, down]|, qutrit order (m=-1, 0, +1)
        return float(abs(fam.channel_at(round(t, 12))[2, 0]))

    return envelope


def fidelity_vs_length(scenarios, n_trajectories=4000, seed=1000,
                       memory_noise_sigma=CAL_SIGMA_SHOT_EFF):
    """Predicted atom-atom visibility and fidelity for each fibre configuration.

    The atom-atom visibility is the product of the two atom-photon
    visibilities at their delayed readout times and the two-photon
    interference contrast the accepted coincidences show
    (``rates.accepted_contrast``); the fidelity is the 3x3-space bound
    1/9 + (8/9) V.
    """
    scenarios = list(scenarios)
    envelope = memory_envelopes(scenarios, n_trajectories, seed,
                                memory_noise_sigma)
    rows = []
    for s in scenarios:
        e1 = envelope(s, 0)
        e2 = envelope(s, 1)
        v = (s.node1.atom_photon_visibility * s.node2.atom_photon_visibility
             * accepted_contrast(s) * e1 * e2)
        v = min(v, 1.0)
        rows.append({
            "name": s.name,
            "total_length_km": s.total_length_km,
            "readout_time1": s.readout_time1,
            "readout_time2": s.readout_time2,
            "envelope1": e1,
            "envelope2": e2,
            "visibility": v,
            "fidelity": fidelity_bound(v),
        })
    return rows
