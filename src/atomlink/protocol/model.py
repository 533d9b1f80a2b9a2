"""Fidelity-versus-length model: the three-basis readout of a run's mean heralded state."""

import numpy as np

from ..analysis.estimators import three_basis_summary
from ..analysis.tables import BASIS_PAIRS, BELL_OUTCOMES, PLANES, SCHEDULES, CorrelationDataset
from ..memory.channel import coherence_stderr
from ..quantum import BellOutcome
from .rates import sbr_model
from .sequence import (
    coincidence_branches,
    herald_readout,
    mean_pair_operators,
    memory_coherences,
    readout_matrix,
    signal_input,
)


def fidelity_vs_length(scenarios, n_trajectories, seed):
    """Expected three-basis contrasts and fidelity bound of each scenario's heralds.

    The herald probability is 1/4 for every fibre residual, so the mean
    heralded state is the herald of the residual-averaged photon-pair
    operator (``mean_pair_operators``).  It is read out through the run's
    own readout pass: ``herald_readout`` with both nodes' memory channels
    at their readout times (``memory_coherences``, each node's configured
    field environment, one build for the scenarios that share it), mixed
    with the background heralds' readout (the maximally mixed pair) at the
    accepted-window background weight of ``sbr_model``.  The six
    three-basis settings are read out for both Bell outcomes, and the
    readout probabilities, as the counts of a ``CorrelationDataset``, go
    through ``three_basis_summary`` as a run's counts do.  No herald is
    drawn, so the rows depend only on the memory channels' Monte Carlo
    (``n_trajectories``, ``seed``).
    """
    settings = SCHEDULES["three-basis"]
    # (alpha, beta, plane, outcome) columns of the readout rows
    keys = [np.array(c) for c in zip(*[(a, b, PLANES.index(p), BELL_OUTCOMES.index(o.value))
                                       for o in BellOutcome for a, b, p in settings])]
    rows = []
    for s, coherences in zip(scenarios, memory_coherences(scenarios, n_trajectories, seed)):
        _, xi, _ = coincidence_branches(s)
        q, background = readout_matrix(signal_input(s), coherences, settings)
        signal = herald_readout(q, mean_pair_operators(list(BellOutcome), xi,
                                                       s.polarization_error_mean))
        w = sbr_model(s)["background_weight"]
        # each outcome's readout probabilities, setting by setting
        probs = ((1.0 - w) * signal + w * background)[:, :4 * len(settings)].reshape(-1, 4)
        summary = three_basis_summary(CorrelationDataset(*keys, probs))
        per_outcome = summary["per_outcome"].values()
        env1, env2 = (abs(c[2, 0]) for c in coherences)
        rows.append({
            "name": s.name,
            "total_length_km": s.total_length_km,
            "readout_time1": s.readout_time1,
            "readout_time2": s.readout_time2,
            "envelope1": float(env1),
            "envelope1_stderr": float(coherence_stderr(env1, n_trajectories)),
            "envelope2": float(env2),
            "envelope2_stderr": float(coherence_stderr(env2, n_trajectories)),
            "background_weight": w,
            **{f"contrast_{k.lower()}": float(np.mean([o["contrasts"][k] for o in per_outcome]))
               for k in BASIS_PAIRS},
            "mean_contrast": summary["mean_contrast"],
            "fidelity": summary["fidelity"],
        })
    return rows
