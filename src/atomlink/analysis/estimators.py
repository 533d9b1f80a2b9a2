"""Estimators applied to correlation datasets: fringes, contrasts, fidelity, CHSH."""

from dataclasses import dataclass, field

import numpy as np

from ..quantum import OUTCOME_KEYS, chsh_s
from .tables import BELL_OUTCOMES, PLANES, EventTable


@dataclass(frozen=True)
class SettingCounts:
    """Joint readout counts for one analyzer-setting pair."""

    alpha: float                 # node-1 analyzer angle (rad) or 0/pi-half for Z
    beta: float                  # node-2 analyzer angle
    plane: str = "equator"       # "equator" or "z"
    outcome: str = "PsiMinus"    # heralded Bell state
    n_uu: int = 0
    n_ud: int = 0
    n_du: int = 0
    n_dd: int = 0

    def total(self) -> int:
        return self.n_uu + self.n_ud + self.n_du + self.n_dd

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n_uu, self.n_ud, self.n_du, self.n_dd)


@dataclass
class CorrelationDataset:
    """Counts N_uu, N_ud, N_du, N_dd per analyzer-setting pair."""

    rows: list = field(default_factory=list)

    def add_event(self, alpha: float, beta: float, plane: str, outcome: str,
                  result1: str, result2: str):
        key = ("u" if result1 == "up" else "d") + ("u" if result2 == "up" else "d")
        row = self._find(alpha, beta, plane, outcome)
        if row is None:
            row = {"alpha": alpha, "beta": beta, "plane": plane, "outcome": outcome,
                   "uu": 0, "ud": 0, "du": 0, "dd": 0}
            self.rows.append(row)
        row[key] += 1

    def _find(self, alpha, beta, plane, outcome):
        for row in self.rows:
            if (abs(row["alpha"] - alpha) < 1e-12 and abs(row["beta"] - beta) < 1e-12
                    and row["plane"] == plane and row["outcome"] == outcome):
                return row
        return None

    def counts(self, alpha, beta, plane="equator", outcome="PsiMinus") -> SettingCounts:
        row = self._find(alpha, beta, plane, outcome)
        if row is None:
            raise KeyError(f"no counts for setting ({alpha}, {beta}, {plane}, {outcome})")
        return SettingCounts(alpha, beta, plane, outcome,
                             row["uu"], row["ud"], row["du"], row["dd"])

    def settings(self, outcome=None, plane=None):
        out = []
        for row in self.rows:
            if outcome is not None and row["outcome"] != outcome:
                continue
            if plane is not None and row["plane"] != plane:
                continue
            out.append(SettingCounts(row["alpha"], row["beta"], row["plane"],
                                     row["outcome"], row["uu"], row["ud"],
                                     row["du"], row["dd"]))
        return out


def _setting_codes(angles: np.ndarray) -> np.ndarray:
    """Index of each angle, rounded to 12 digits, among the distinct rounded angles."""
    distinct, inverse = np.unique(angles, return_inverse=True)
    # Python's round, which is correctly rounded, on the few distinct values
    rounded = np.array([round(a, 12) for a in distinct.tolist()])
    _, merged = np.unique(rounded, return_inverse=True)
    return merged[inverse]


def dataset_from_events(events: EventTable, mode: str) -> CorrelationDataset:
    """Dataset of the window-accepted heralds of an event table.

    "sampled-clicks" counts each sampled outcome pair; "density-matrix" sums
    the expected outcome probabilities of each setting.  A setting is keyed
    on its angles rounded to 12 digits, plane and Bell outcome; settings
    appear in the order of their first counted herald, and each sum runs in
    event order.
    """
    keep = events.accepted
    if mode == "sampled-clicks":
        keep = keep & (events.readout >= 0)
    idx = np.flatnonzero(keep)
    ds = CorrelationDataset()
    if not len(idx):
        return ds
    alpha = events.alpha_rad[idx]
    beta = events.beta_rad[idx]
    a_code, b_code = _setting_codes(alpha), _setting_codes(beta)
    key = ((a_code * (b_code.max() + 1) + b_code) * len(PLANES)
           + events.plane[idx]) * len(BELL_OUTCOMES) + events.outcome[idx]
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    group = np.argsort(order)[inverse]
    n = len(order)
    if mode == "sampled-clicks":
        counts = np.bincount(group * 4 + events.readout[idx], minlength=4 * n).reshape(n, 4)
    else:
        # bincount adds the weights one by one in event order
        counts = np.stack([np.bincount(group, weights=events.probabilities[idx, k], minlength=n)
                           for k in range(4)], axis=1)
    for h, row in zip(first[order].tolist(), counts.tolist()):
        ds.rows.append({"alpha": round(float(alpha[h]), 12), "beta": round(float(beta[h]), 12),
                        "plane": PLANES[events.plane[idx[h]]],
                        "outcome": BELL_OUTCOMES[events.outcome[idx[h]]],
                        **dict(zip(OUTCOME_KEYS, row))})
    return ds


def correlation_probability(counts) -> tuple[float, float]:
    """(P_corr, P_acorr) from (n_uu, n_ud, n_du, n_dd)."""
    if isinstance(counts, SettingCounts):
        counts = counts.as_tuple()
    n_uu, n_ud, n_du, n_dd = counts
    total = n_uu + n_ud + n_du + n_dd
    if total <= 0:
        raise ValueError("no events for this setting pair")
    p_corr = (n_uu + n_dd) / total
    return p_corr, 1.0 - p_corr


def binomial_sigma(p: float, n: int) -> float:
    """One-standard-deviation binomial error of an estimated probability."""
    if n <= 0:
        raise ValueError("need at least one event")
    return float(np.sqrt(max(p * (1.0 - p), 0.0) / n))


def interference_contrast(n_null: float, n_plus: float, n_minus: float) -> float:
    """Two-photon interference contrast 1 - 2 N_null / (N_plus + N_minus)."""
    if n_plus + n_minus <= 0:
        raise ValueError("no heralding coincidences")
    if min(n_null, n_plus, n_minus) < 0:
        raise ValueError("counts must be >= 0")
    return 1.0 - 2.0 * n_null / (n_plus + n_minus)


def contrast_sigma(n_null: float, n_plus: float, n_minus: float) -> float:
    """First-order error of the interference contrast (Poisson counts)."""
    herald = n_plus + n_minus
    var = 4.0 * n_null / herald**2 + (2.0 * n_null / herald**2) ** 2 * herald
    return float(np.sqrt(var))


@dataclass(frozen=True)
class FringeFit:
    """Sinusoidal fringe P(alpha) = offset + (V/2) cos(2 (alpha - phase))."""

    visibility: float
    phase: float
    offset: float
    visibility_sigma: float
    phase_sigma: float
    offset_sigma: float

    def __post_init__(self):
        if self.visibility > 1.0 + 3.0 * self.visibility_sigma + 1e-12:
            raise ValueError(
                f"fitted visibility {self.visibility:.4f} exceeds 1 beyond 3 sigma"
            )

    def model(self, alpha):
        return self.offset + (self.visibility / 2.0) * np.cos(2.0 * (np.asarray(alpha) - self.phase))


def fringe_fit(angles, p_corr, errors=None) -> FringeFit:
    """Weighted least-squares fringe fit, linear in (offset, a, b).

    The model offset + a cos(2 alpha) + b sin(2 alpha) is exact for
    equatorial two-qubit correlations; visibility and phase follow from
    (a, b) with errors propagated from the fit covariance.
    """
    alpha = np.asarray(angles, dtype=float)
    y = np.asarray(p_corr, dtype=float)
    if alpha.shape != y.shape or alpha.ndim != 1:
        raise ValueError("angles and probabilities must be matching 1D arrays")
    if len(np.unique(np.round(alpha, 9))) < 4:
        raise ValueError("need at least 4 distinct analyzer angles")
    if errors is None:
        sigma = np.ones_like(y)
    else:
        sigma = np.asarray(errors, dtype=float)
        if np.any(sigma <= 0):
            raise ValueError("errors must be positive")
    x = np.stack([np.ones_like(alpha), np.cos(2 * alpha), np.sin(2 * alpha)], axis=1)
    w = 1.0 / sigma**2
    xtwx = x.T @ (x * w[:, None])
    try:
        cov = np.linalg.inv(xtwx)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular design matrix; angles do not constrain the fringe") from exc
    beta = cov @ (x.T @ (w * y))
    offset, a, b = beta
    amp = np.hypot(a, b)
    visibility = 2.0 * amp
    phase = 0.5 * np.arctan2(b, a)
    if amp < 1e-15:
        v_sig = 2.0 * np.sqrt(max(cov[1, 1], cov[2, 2]))
        p_sig = np.pi / 2.0
    else:
        da = a / amp
        db = b / amp
        v_sig = 2.0 * np.sqrt(
            da * da * cov[1, 1] + db * db * cov[2, 2] + 2 * da * db * cov[1, 2]
        )
        ga = -b / (2 * amp**2)
        gb = a / (2 * amp**2)
        p_sig = np.sqrt(
            ga * ga * cov[1, 1] + gb * gb * cov[2, 2] + 2 * ga * gb * cov[1, 2]
        )
    return FringeFit(visibility, phase, offset, v_sig, p_sig, np.sqrt(cov[0, 0]))


def basis_contrast(p_pairs: dict) -> tuple[dict, float]:
    """Per-basis contrasts E_k = |P_(k,k) - P_(-k,k)| and their mean.

    ``p_pairs`` maps basis label ("X", "Y", "Z") to the two correlation
    probabilities (P at aligned settings, P at the flipped first setting).
    """
    contrasts = {}
    for k, (p_same, p_flip) in p_pairs.items():
        for p in (p_same, p_flip):
            if not 0.0 <= p <= 1.0:
                raise ValueError("correlation probabilities must be in [0, 1]")
        contrasts[k] = abs(p_same - p_flip)
    mean = float(np.mean(list(contrasts.values())))
    return contrasts, mean


def fidelity_bound(v_bar: float) -> float:
    """Bell-state fidelity lower bound 1/9 + (8/9) V for the 3x3 state space."""
    if not 0.0 <= v_bar <= 1.0:
        raise ValueError("average visibility must be in [0, 1]")
    return 1.0 / 9.0 + (8.0 / 9.0) * v_bar


def statistical_error(counts, quantity: str = "p_corr") -> float:
    """One-sigma error of an estimator evaluated on one setting's counts."""
    if isinstance(counts, SettingCounts):
        counts = counts.as_tuple()
    n = int(sum(counts))
    p = (counts[0] + counts[3]) / n if n else 0.0
    sig_p = binomial_sigma(p, n)
    if quantity == "p_corr":
        return sig_p
    if quantity == "correlator":
        return 2.0 * sig_p       # E = 2 P_corr - 1
    raise ValueError(f"unknown quantity {quantity!r}")


def fidelity_sigma(v_sigma: float) -> float:
    return (8.0 / 9.0) * v_sigma


# ---------------------------------------------------------------------------
# Dataset-level summaries
# ---------------------------------------------------------------------------

def fringe_visibility_summary(dataset: CorrelationDataset, outcome: str):
    """Fit one fringe per node-2 angle and average the visibilities.

    Returns (v_bar, v_bar_sigma, fits_by_beta).
    """
    rows = dataset.settings(outcome=outcome, plane="equator")
    betas = sorted({round(r.beta, 9) for r in rows})
    fits = {}
    for beta in betas:
        sub = [r for r in rows if abs(r.beta - beta) < 1e-9]
        if len({round(r.alpha, 9) for r in sub}) < 4:
            continue
        alphas = np.array([r.alpha for r in sub])
        ps = np.array([correlation_probability(r)[0] for r in sub])
        errs = np.array([max(statistical_error(r), 1e-6) for r in sub])
        fits[beta] = fringe_fit(alphas, ps, errs)
    if not fits:
        raise ValueError("no fringe scans with enough distinct angles")
    vs = np.array([f.visibility for f in fits.values()])
    sigs = np.array([f.visibility_sigma for f in fits.values()])
    v_bar = float(np.mean(vs))
    v_sig = float(np.sqrt(np.sum(sigs**2)) / len(vs))
    return v_bar, v_sig, fits


def three_basis_summary(dataset: CorrelationDataset, outcomes=("PsiMinus", "PsiPlus")):
    """Average three-basis contrast and the fidelity bound, pooling outcomes.

    X and Y pairs sit on the equator at (0, 45) degrees with their flipped
    partners 90 degrees away; Z pairs use the pole settings.  Returns a dict
    with contrasts, mean contrast, fidelity and errors.
    """
    per_outcome = []
    for outcome in outcomes:
        pairs = {}
        variances = {}
        specs = {
            "X": ((0.0, 0.0), (np.pi / 2, 0.0), "equator"),
            "Y": ((np.pi / 4, np.pi / 4), (3 * np.pi / 4, np.pi / 4), "equator"),
            "Z": ((0.0, 0.0), (np.pi / 2, 0.0), "z"),
        }
        for k, (same, flip, plane) in specs.items():
            try:
                c_same = dataset.counts(*same, plane=plane, outcome=outcome)
                c_flip = dataset.counts(*flip, plane=plane, outcome=outcome)
            except KeyError:
                continue
            p_same, _ = correlation_probability(c_same)
            p_flip, _ = correlation_probability(c_flip)
            pairs[k] = (p_same, p_flip)
            variances[k] = statistical_error(c_same) ** 2 + statistical_error(c_flip) ** 2
        if pairs:
            contrasts, mean = basis_contrast(pairs)
            sigma = np.sqrt(sum(variances.values())) / len(pairs)
            per_outcome.append((outcome, contrasts, mean, sigma))
    if not per_outcome:
        raise ValueError("dataset holds no three-basis settings")
    e_bar = float(np.mean([m for _, _, m, _ in per_outcome]))
    sigma = float(np.sqrt(np.sum([s**2 for _, _, _, s in per_outcome])) / len(per_outcome))
    return {
        "per_outcome": {o: {"contrasts": c, "mean": m, "sigma": s}
                        for o, c, m, s in per_outcome},
        "mean_contrast": e_bar,
        "mean_contrast_sigma": sigma,
        "fidelity": fidelity_bound(min(e_bar, 1.0)),
        "fidelity_sigma": fidelity_sigma(sigma),
    }


CHSH_SETTINGS = (
    (np.radians(22.5), 0.0),
    (np.radians(67.5), 0.0),
    (np.radians(67.5), np.radians(45.0)),
    (np.radians(112.5), np.radians(45.0)),
)


def chsh_from_dataset(dataset: CorrelationDataset, outcome: str = "PsiMinus"):
    """CHSH S and its error from the four fringe-scan settings."""
    correlators = []
    variances = []
    for alpha, beta in CHSH_SETTINGS:
        c = dataset.counts(alpha, beta, plane="equator", outcome=outcome)
        p_corr, _ = correlation_probability(c)
        correlators.append(np.clip(2.0 * p_corr - 1.0, -1.0, 1.0))
        variances.append(statistical_error(c, "correlator") ** 2)
    s = chsh_s(*correlators)
    return s, float(np.sqrt(np.sum(variances)))
