"""Command-line interface: simulate, analyze, dephasing, rates, calibrate.

Exit codes: 0 success, 2 configuration error, 3 calibration failure,
4 I/O error.  Every output embeds the scenario config hash so analysis can
refuse to mix incompatible runs.
"""

import argparse
import csv
import json
import os
import sys
import numpy as np

from . import __version__
from .analysis import (
    DetectionHistogram,
    chsh_from_dataset,
    correlation_probability,
    fringe_visibility_summary,
    interference_contrast,
    sbr,
    statistical_error,
    three_basis_summary,
)
# the dataset builder keeps the name that perfbench/traced_cli.py wraps
from .analysis import dataset_from_events as _dataset_from_records
from .analysis.estimators import contrast_sigma
from .analysis.tables import (
    BELL_OUTCOMES,
    CLICK_ORIGINS,
    DETECTORS,
    PLANES,
    READOUTS,
    WINDOWS,
    ClickTable,
    EventTable,
)
from .calibration import DEFAULT_TARGETS, calibrate
from .memory import coherence_envelope, dephasing_channel_family
from .protocol import (
    PRESETS,
    config_hash,
    duty_cycle,
    event_rate,
    fidelity_vs_length,
    load_scenario,
    preset,
    repetition_rate,
    run_sequence,
    sbr_model,
    success_probability,
)
from .protocol.rates import window_capture
from .protocol.scenario import save_scenario
from .quantum import OUTCOME_KEYS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CALIBRATION = 3
EXIT_IO = 4

JOBS_HELP = ("accepted and ignored: the memory Monte Carlo integrates all "
             "trajectories as one array in a single pass")


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _out_dir(args) -> str:
    """The output directory; ``_open_output`` creates it on the first write."""
    return args.out or os.environ.get("ATOMLINK_OUT", ".")


def _open_output(path):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "w", newline="")


def _resolve_scenario(args):
    if getattr(args, "scenario", None):
        try:
            return load_scenario(args.scenario)
        except OSError as exc:
            raise CliError(f"cannot read scenario file: {exc}", EXIT_IO)
        except ValueError as exc:
            raise CliError(str(exc), EXIT_CONFIG)
    name = getattr(args, "preset", None) or "l6"
    try:
        return preset(name)
    except KeyError as exc:
        raise CliError(str(exc), EXIT_CONFIG)


def _check_output(path, out, force):
    """Fail before any work if ``path`` exists (without --force) or cannot be made.

    Only the output directory ``out`` is created, on the first write; any
    other directory in ``path`` must exist already.
    """
    if os.path.exists(path) and not force:
        raise CliError(f"refusing to overwrite {path} (use --force)", EXIT_IO)
    parent = os.path.dirname(path) or "."
    made_later = os.path.normpath(parent) == os.path.normpath(out) and not os.path.exists(parent)
    if not (made_later or os.path.isdir(parent)):
        raise CliError(f"cannot write {path}: {parent} is not a directory", EXIT_IO)


def _write_manifest(out, args, scenario, extra=None):
    manifest = {
        "tool": "atomlink",
        "version": __version__,
        "command": args.command,
        "scenario": scenario.name,
        "config_hash": config_hash(scenario),
        "seed": getattr(args, "seed", None),
        "mode": getattr(args, "mode", None),
        "events": getattr(args, "events", None),
        "out": out,
    }
    if extra:
        manifest.update(extra)
    path = os.path.join(out, "manifest.json")
    with _open_output(path) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return path


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    scenario = _resolve_scenario(args)
    out = _out_dir(args)
    events_path = os.path.join(out, "events.jsonl")
    summary_path = os.path.join(out, "summary.json")
    clicks_path = os.path.join(out, "clicks.csv")
    for p in (events_path, summary_path, clicks_path):
        _check_output(p, out, args.force)

    result = run_sequence(
        scenario, schedule=args.schedule, target_events=args.events,
        seed=args.seed, mode=args.mode, n_trajectories=args.trajectories,
    )
    chash = result.config_hash
    header = {"type": "header", "config_hash": chash, "scenario": scenario.name,
              "mode": args.mode, "seed": args.seed, "schedule": args.schedule}
    with _open_output(events_path) as fh:
        _write_events(fh, header, result.events)
    with _open_output(summary_path) as fh:
        json.dump(result.summary, fh, indent=2, sort_keys=True, default=float)
    with _open_output(clicks_path) as fh:
        _write_clicks(fh, chash, result.clicks)
    _write_manifest(out, args, scenario)
    print(f"wrote {len(result.events)} events to {events_path}")
    return EXIT_OK


# The events.jsonl record of one event, as json.dumps writes it; every
# string is written already quoted.
_EVENT_LINE = (
    '{"wall_time_s": %r, "try_index": %d, "bell_outcome": %s, "detector1": %s, '
    '"detector2": %s, "click1_ns": %r, "click2_ns": %r, "accepted": %s, "origin": %s, '
    '"alpha_rad": %r, "beta_rad": %r, "plane": %s, "fidelity": %r, "probabilities": '
    '{"uu": %r, "ud": %r, "du": %r, "dd": %r}, "outcome1": %s, "outcome2": %s, '
    '"config_hash": %s}\n')
_CLICK_HEADER = ("window", "detector", "timestamp_ns", "origin")


def _quoted(vocabulary, codes):
    """JSON strings of the vocabulary entries that ``codes`` index."""
    return np.array([json.dumps(v) for v in vocabulary], dtype=object)[codes].tolist()


def _write_events(fh, header, events: EventTable):
    """The header line, then one JSON record per event."""
    fh.write(json.dumps(header) + "\n")
    # readout code -1 (none sampled) picks the trailing null
    node_readouts = [_quoted([r[node] for r in READOUTS] + [None], events.readout)
                     for node in (0, 1)]
    columns = (
        events.wall_time_s.tolist(), events.try_index.tolist(),
        _quoted(BELL_OUTCOMES, events.outcome),
        _quoted(DETECTORS, events.detectors[:, 0]), _quoted(DETECTORS, events.detectors[:, 1]),
        events.click_ns[:, 0].tolist(), events.click_ns[:, 1].tolist(),
        _quoted((False, True), events.accepted.astype(int)),
        _quoted(("background", "signal"), events.signal.astype(int)),
        events.alpha_rad.tolist(), events.beta_rad.tolist(), _quoted(PLANES, events.plane),
        events.fidelity.tolist(), *events.probabilities.T.tolist(), *node_readouts,
        [json.dumps(header["config_hash"])] * len(events))
    fh.writelines(_EVENT_LINE % row for row in zip(*columns))


def _write_clicks(fh, chash, clicks: ClickTable):
    """The hash line and the CSV header, then each run of equal codes in one format call."""
    fh.write(f"# config_hash={chash}\n")
    fh.write(",".join(_CLICK_HEADER) + "\r\n")
    stamps = (clicks.time_s * 1e9).tolist()
    for window, detector, origin, start, stop in clicks.blocks():
        row = f"{WINDOWS[window]},{DETECTORS[detector]},%.3f,{CLICK_ORIGINS[origin]}\r\n"
        fh.write(row * (stop - start) % tuple(stamps[start:stop]))


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _codes(vocabulary):
    return {v: i for i, v in enumerate(vocabulary)}


_OUTCOME_CODES = _codes(BELL_OUTCOMES)
_DETECTOR_CODES = _codes(DETECTORS)
_PLANE_CODES = _codes(PLANES)
_READOUT_CODES = {**_codes(READOUTS), (None, None): -1}
_ORIGIN_SIGNAL = {"signal": True, "background": False}


def _event_row(rec):
    """The numbers of one events.jsonl record, in _event_table's column order."""
    probs = rec["probabilities"]
    return (rec["wall_time_s"], rec["try_index"], _OUTCOME_CODES[rec["bell_outcome"]],
            _DETECTOR_CODES[rec["detector1"]], _DETECTOR_CODES[rec["detector2"]],
            rec["click1_ns"], rec["click2_ns"], rec["accepted"], _ORIGIN_SIGNAL[rec["origin"]],
            rec["alpha_rad"], rec["beta_rad"], _PLANE_CODES[rec["plane"]], rec["fidelity"],
            *(probs[k] for k in OUTCOME_KEYS),
            _READOUT_CODES[rec["outcome1"], rec["outcome2"]])


_EVENT_WIDTH = 18    # numbers per _event_row


def _event_table(rows: np.ndarray) -> EventTable:
    """EventTable of the (n, _EVENT_WIDTH) numbers of n _event_row calls."""
    def code(j):
        return rows[:, j].astype(np.int8)

    return EventTable(
        wall_time_s=rows[:, 0].copy(), try_index=rows[:, 1].astype(np.int64), outcome=code(2),
        detectors=rows[:, 3:5].astype(np.int8), click_ns=rows[:, 5:7].copy(),
        accepted=rows[:, 7] != 0, signal=rows[:, 8] != 0, alpha_rad=rows[:, 9].copy(),
        beta_rad=rows[:, 10].copy(), plane=code(11), fidelity=rows[:, 12].copy(),
        probabilities=rows[:, 13:17].copy(), readout=code(17))


def _load_events(path):
    """Header record and EventTable of an events.jsonl file."""
    try:
        fh = open(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO)
    headers = []

    def numbers():
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CliError(f"{path}:{lineno}: malformed JSON line ({exc})", EXIT_IO)
            if isinstance(rec, dict) and rec.get("type") == "header":
                headers.append(rec)
                continue
            try:
                yield from map(float, _event_row(rec))
            except (KeyError, TypeError, ValueError) as exc:
                raise CliError(f"{path}:{lineno}: malformed event record ({exc!r})", EXIT_IO)

    with fh:
        flat = np.fromiter(numbers(), dtype=float)
    if not headers:
        raise CliError(f"{path}: missing header line", EXIT_IO)
    return headers[-1], _event_table(flat.reshape(-1, _EVENT_WIDTH))


# strings longer than every label, so that a truncated field cannot match one
_LABEL_DTYPE = f"U{max(map(len, WINDOWS + DETECTORS + CLICK_ORIGINS)) + 1}"
_CLICK_DTYPE = [(name, "f8" if name == "timestamp_ns" else _LABEL_DTYPE)
                for name in _CLICK_HEADER]


def _click_row_ok(line):
    fields = line.split(",")
    if len(fields) != len(_CLICK_HEADER):
        return False
    window, detector, stamp, origin = fields
    try:
        float(stamp)
    except ValueError:
        return False
    return window in WINDOWS and detector in DETECTORS and origin in CLICK_ORIGINS


def _load_clicks(path):
    """Config hash (None without a hash line) and ClickTable of a clicks.csv file."""
    try:
        fh = open(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO)
    with fh:
        first = fh.readline()
        chash = None
        header_lineno = 1
        if first.startswith("# config_hash="):
            chash = first.strip().split("=", 1)[1]
            first = fh.readline()
            header_lineno = 2
        lines = fh.read().splitlines()
    if tuple(c.strip() for c in first.strip().split(",")) != _CLICK_HEADER:
        raise CliError(f"{path}:{header_lineno}: expected the CSV header "
                       f"{','.join(_CLICK_HEADER)}", EXIT_IO)
    rows = np.empty(0, dtype=_CLICK_DTYPE)
    codes = []
    try:
        if any(lines):
            rows = np.loadtxt(lines, delimiter=",", dtype=_CLICK_DTYPE, comments=None, ndmin=1)
        for name, vocabulary in zip(("window", "detector", "origin"),
                                    (WINDOWS, DETECTORS, CLICK_ORIGINS)):
            code = np.full(len(rows), -1, dtype=np.int8)
            for i, label in enumerate(vocabulary):
                code[rows[name] == label] = i
            if np.any(code < 0):
                raise ValueError(f"unknown {name}")
            codes.append(code)
    except ValueError:
        bad = next((i for i, line in enumerate(lines) if line and not _click_row_ok(line)), None)
        where = path if bad is None else f"{path}:{header_lineno + 1 + bad}"
        raise CliError(f"{where}: malformed CSV row", EXIT_IO)
    return chash, ClickTable(*codes, rows["timestamp_ns"] * 1e-9)


def _load_summary(path):
    try:
        with open(path) as fh:
            summary = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO)
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: malformed JSON ({exc})", EXIT_IO)
    return summary.get("config_hash"), summary


def _check_hash(what, other, chash, force):
    """A hash missing on either side counts as a mismatch."""
    if (other is None or chash is None or other != chash) and not force:
        raise CliError(
            f"{what} hash {other} does not match events hash {chash} "
            "(use --force to override)", EXIT_CONFIG)


def cmd_analyze(args) -> int:
    out = _out_dir(args)
    report_path = os.path.join(out, "report.json")
    _check_output(report_path, out, args.force)
    estimators = [e.strip() for e in args.estimators.split(",") if e.strip()] \
        if args.estimators else []
    if args.fringe_csv:
        if "fringe" not in estimators:
            raise CliError("--fringe-csv needs the fringe estimator", EXIT_CONFIG)
        _check_output(args.fringe_csv, out, args.force)

    header, events = _load_events(args.events)
    chash = header.get("config_hash")
    mode = header.get("mode", "sampled-clicks")
    report = {"config_hash": chash, "mode": mode, "n_events": len(events),
              "estimators": {}}

    clicks = summary = None
    if args.clicks:
        click_hash, clicks = _load_clicks(args.clicks)
        _check_hash("click stream", click_hash, chash, args.force)
    if args.summary:
        summary_hash, summary = _load_summary(args.summary)
        _check_hash("summary", summary_hash, chash, args.force)

    dataset = _dataset_from_records(events, mode)
    n_accepted = int(np.count_nonzero(events.accepted))
    report["accepted_fraction"] = n_accepted / len(events) if len(events) else 0.0

    for name in estimators:
        try:
            if name == "fidelity":
                report["estimators"]["fidelity"] = three_basis_summary(dataset)
            elif name == "fringe":
                per = {}
                for outcome in ("PsiMinus", "PsiPlus"):
                    try:
                        v, sig, fits = fringe_visibility_summary(dataset, outcome)
                    except ValueError:
                        continue
                    per[outcome] = {
                        "visibility": v, "visibility_sigma": sig,
                        "fits": {f"{np.degrees(b):.1f}": {
                            "visibility": f.visibility, "phase_deg": float(np.degrees(f.phase)),
                            "offset": f.offset, "visibility_sigma": f.visibility_sigma,
                        } for b, f in fits.items()},
                    }
                report["estimators"]["fringe"] = per
            elif name == "chsh":
                s, sig = chsh_from_dataset(dataset)
                report["estimators"]["chsh"] = {"s": s, "sigma": sig}
            elif name == "contrast":
                # D-null coincidences herald nothing, so only the summary
                # counts them; both sides use the acceptance window
                if summary is None:
                    raise CliError("contrast estimator needs --summary", EXIT_CONFIG)
                n_null = summary["n_dnull_accepted"]
                n_plus, n_minus = (
                    int(np.count_nonzero(events.accepted
                                         & (events.outcome == BELL_OUTCOMES.index(o))))
                    for o in ("PsiPlus", "PsiMinus"))
                c = interference_contrast(n_null, n_plus, n_minus)
                report["estimators"]["contrast"] = {
                    "contrast": c, "sigma": contrast_sigma(max(n_null, 0.5), n_plus, n_minus),
                    "n_null": n_null, "n_plus": n_plus, "n_minus": n_minus,
                }
            elif name == "sbr":
                if clicks is None:
                    raise CliError("sbr estimator needs --clicks", EXIT_CONFIG)
                edges = np.arange(-500e-9, 500e-9 + 1e-12, 2e-9)
                hist = DetectionHistogram.from_click_times(clicks.times_by_window(), edges)
                # side bands start where the wavepacket tail is negligible
                est = sbr(hist, window=(0.0, 70e-9), exclusion=(-100e-9, 250e-9))
                report["estimators"]["sbr"] = {
                    "per_channel": {k: (None if np.isinf(v) else v)
                                    for k, v in est.per_channel.items()},
                    "coincidence": None if np.isinf(est.coincidence) else est.coincidence,
                    "unbounded": est.unbounded,
                }
            else:
                raise CliError(f"unknown estimator {name!r}", EXIT_CONFIG)
        except (ValueError, KeyError) as exc:
            report["estimators"][name] = {"error": str(exc)}

    with _open_output(report_path) as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=float)

    if "fringe" in report["estimators"] and args.fringe_csv:
        with _open_output(args.fringe_csv) as fh:
            fh.write(f"# config_hash={chash}\n")
            w = csv.writer(fh)
            w.writerow(["outcome", "beta_deg", "alpha_deg", "p_corr", "sigma"])
            for outcome in ("PsiMinus", "PsiPlus"):
                for row in dataset.settings(outcome=outcome, plane="equator"):
                    p, _ = correlation_probability(row)
                    w.writerow([outcome, f"{np.degrees(row.beta):.1f}",
                                f"{np.degrees(row.alpha):.1f}", f"{p:.6f}",
                                f"{statistical_error(row):.6f}"])
    print(f"wrote report to {report_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# dephasing
# ---------------------------------------------------------------------------

def cmd_dephasing(args) -> int:
    if not args.dt > 0.0:
        raise CliError(f"--dt must be positive, got {args.dt!r}", EXIT_CONFIG)
    if not args.t_max >= 0.0:
        raise CliError(f"--t-max must be >= 0, got {args.t_max!r}", EXIT_CONFIG)
    scenario = _resolve_scenario(args)
    node = scenario.nodes()[args.node - 1]
    out = _out_dir(args)
    path = os.path.join(out, args.output)
    _check_output(path, out, args.force)
    env = node.field_env
    if args.sigma_mg is not None:
        env = env.replace(shot_noise_sigma=args.sigma_mg * 1e-3)
    if args.fictitious_scale is not None:
        env = env.replace(fictitious_field_scale=args.fictitious_scale)
    times = np.round(np.arange(0.0, args.t_max + args.dt / 2, args.dt), 12)
    family = dephasing_channel_family(
        node.trap, env, node.temperature, times, args.trajectories, seed=args.seed,
    )
    ce = coherence_envelope(family)
    with _open_output(path) as fh:
        fh.write(f"# config_hash={config_hash(scenario)}\n")
        w = csv.writer(fh)
        w.writerow(["time_us", "basis", "expectation", "envelope", "envelope_stderr"])
        stderr = family.stderr()
        for basis in ("X", "Y", "Z"):
            curve = ce.curves[basis]
            for t, x, v, se in zip(ce.times, curve, ce.visibility, stderr):
                w.writerow([f"{t * 1e6:.3f}", basis, f"{x:.6f}", f"{v:.6f}", f"{se:.6f}"])
    one_over_e = ce.one_over_e_time()
    print(f"wrote envelope to {path}; 1/e time {one_over_e * 1e6:.1f} us")
    _write_manifest(out, args, scenario, {"one_over_e_us": one_over_e * 1e6})
    return EXIT_OK


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

def cmd_rates(args) -> int:
    names = [n.strip() for n in args.presets.split(",") if n.strip()]
    if not names:
        raise CliError(f"--presets names no preset: {args.presets!r}", EXIT_CONFIG)
    try:
        scenarios = [preset(name) for name in names]
    except KeyError as exc:
        raise CliError(str(exc), EXIT_CONFIG)
    out = _out_dir(args)
    path = os.path.join(out, args.output)
    fpath = os.path.join(out, args.fidelity_out) if args.fidelity_out else None
    for p in filter(None, (path, fpath)):
        _check_output(p, out, args.force)
    # the Monte Carlo runs first, so that a bad argument leaves nothing on disk
    table = fidelity_vs_length(scenarios, n_trajectories=args.trajectories,
                               seed=args.seed) if fpath else None
    rows = []
    for name, s in zip(names, scenarios):
        rep = repetition_rate(s)
        p_model = success_probability(s)
        duty = duty_cycle(s.sequence, 1.0 / rep, seed=args.seed)
        quoted = s.published_values
        er_model = event_rate(s, duty=duty)
        er_quoted = None
        if "success_probability" in quoted:
            er_quoted = event_rate(s, success_prob=quoted["success_probability"],
                                   repetition_hz=quoted.get("repetition_rate_hz"))
        sb = sbr_model(s)
        rows.append({
            "name": name,
            "config_hash": config_hash(s),
            "total_length_km": s.total_length_km,
            "repetition_rate_hz": rep,
            "repetition_rate_quoted_hz": quoted.get("repetition_rate_hz", ""),
            "success_probability_model": p_model,
            "success_probability_quoted": quoted.get("success_probability", ""),
            "duty_cycle": duty,
            "event_rate_model_hz": er_model,
            "event_rate_quoted_inputs_hz": er_quoted if er_quoted is not None else "",
            "event_rate_quoted_hz": quoted.get("event_rate_hz", ""),
            "sbr_coincidence_model": sb["coincidence"],
            "acceptance_fraction_model": window_capture(s, 0) * window_capture(s, 1),
        })
    _write_rows(path, rows)
    print(f"wrote rate budget to {path}")
    if fpath:
        _write_rows(fpath, table)
        print(f"wrote fidelity-vs-length table to {fpath}")
    return EXIT_OK


def _write_rows(path, rows):
    with _open_output(path) as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def cmd_calibrate(args) -> int:
    targets = None
    if args.targets:
        try:
            with open(args.targets) as fh:
                targets = json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read targets: {exc}", EXIT_IO)
        except json.JSONDecodeError as exc:
            raise CliError(f"targets file is not valid JSON: {exc}", EXIT_CONFIG)
    out = _out_dir(args)
    path = os.path.join(out, args.output)
    _check_output(path, out, args.force)
    try:
        result = calibrate(targets)
    except (ValueError, KeyError) as exc:
        raise CliError(f"calibration failed: {exc}", EXIT_CALIBRATION)
    payload = {
        "tool": "atomlink",
        "version": __version__,
        "parameters": result.parameters,
        "residuals": result.residuals,
        "converged": result.converged,
        "notes": result.notes,
        "targets": targets or DEFAULT_TARGETS,
    }
    with _open_output(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
    print(f"wrote calibration to {path} (converged={result.converged})")
    if not result.converged:
        print("calibration did not reach the residual tolerance", file=sys.stderr)
        return EXIT_CALIBRATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="atomlink",
        description="Simulator and analysis toolkit for a heralded two-node "
                    "atomic quantum network link",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--preset", choices=PRESETS, default=None,
                        help="shipped fibre configuration")
        sp.add_argument("--scenario", default=None, help="scenario config file")
        sp.add_argument("--seed", type=int, default=1)
        sp.add_argument("--out", default=None, help="output directory "
                        "(default $ATOMLINK_OUT or .)")
        sp.add_argument("--force", action="store_true", help="overwrite outputs")
        sp.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)

    sim = sub.add_parser("simulate", help="run the event simulation")
    add_common(sim)
    sim.add_argument("--mode", choices=["density-matrix", "sampled-clicks"],
                     default="sampled-clicks")
    sim.add_argument("--events", type=int, default=1000, help="target herald count")
    sim.add_argument("--schedule", default="three-basis",
                     choices=["three-basis", "fringe", "chsh"])
    sim.add_argument("--trajectories", type=int, default=2000,
                     help="memory Monte-Carlo trajectories")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="estimate observables from a run")
    ana.add_argument("--events", required=True, help="events.jsonl path")
    ana.add_argument("--clicks", default=None, help="clicks.csv path")
    ana.add_argument("--summary", default=None, help="summary.json path")
    ana.add_argument("--estimators", default="fidelity",
                     help="comma list: fidelity,fringe,chsh,contrast,sbr")
    ana.add_argument("--fringe-csv", default=None, help="plot-ready fringe CSV")
    ana.add_argument("--out", default=None)
    ana.add_argument("--force", action="store_true")
    ana.set_defaults(func=cmd_analyze)

    dep = sub.add_parser("dephasing", help="memory coherence envelope")
    add_common(dep)
    dep.add_argument("--node", type=int, choices=[1, 2], default=1)
    dep.add_argument("--t-max", type=float, default=500e-6)
    dep.add_argument("--dt", type=float, default=1e-6)
    dep.add_argument("--trajectories", type=int, default=10000)
    dep.add_argument("--sigma-mg", type=float, default=None,
                     help="override shot-noise sigma (milligauss)")
    dep.add_argument("--fictitious-scale", type=float, default=None)
    dep.add_argument("--output", default="envelope.csv")
    dep.set_defaults(func=cmd_dephasing)

    rat = sub.add_parser("rates", help="rate and probability budget")
    rat.add_argument("--presets", default=",".join(PRESETS))
    rat.add_argument("--output", default="rates.csv")
    rat.add_argument("--fidelity-out", default=None,
                     help="also write the fidelity-vs-length table")
    rat.add_argument("--trajectories", type=int, default=4000)
    rat.add_argument("--seed", type=int, default=1)
    rat.add_argument("--out", default=None)
    rat.add_argument("--force", action="store_true")
    rat.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    rat.set_defaults(func=cmd_rates)

    cal = sub.add_parser("calibrate", help="fit model constants to targets")
    cal.add_argument("--targets", default=None, help="JSON targets file")
    cal.add_argument("--output", default="calibration.json")
    cal.add_argument("--out", default=None)
    cal.add_argument("--force", action="store_true")
    cal.set_defaults(func=cmd_calibrate)

    exp = sub.add_parser("export-scenario", help="write a preset as a config file")
    exp.add_argument("--preset", choices=PRESETS, required=True)
    exp.add_argument("--output", default="scenario.ini")
    exp.add_argument("--out", default=None)
    exp.add_argument("--force", action="store_true")
    exp.set_defaults(func=cmd_export_scenario)

    return p


def cmd_export_scenario(args) -> int:
    out = _out_dir(args)
    path = os.path.join(out, args.output)
    _check_output(path, out, args.force)
    try:
        os.makedirs(out, exist_ok=True)
        save_scenario(preset(args.preset), path)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_IO)
    print(f"wrote scenario to {path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
