"""Command-line interface: simulate, analyze, dephasing, rates, calibrate.

Exit codes: 0 success, 2 configuration error, 3 calibration failure,
4 I/O error.  Every output embeds the scenario config hash so analysis can
refuse to mix incompatible runs.

Each command imports the layers it runs inside its own body, after the
checks that need none, so that parsing the arguments loads no numpy and
each process loads only what its command uses.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
import time

from . import __version__

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
    from .protocol.scenario import load_scenario, preset
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


# the variables that set the size of the BLAS and OpenMP thread pools
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment(args) -> dict:
    """What produced a run: its command line, versions, BLAS and thread settings.

    Kept in the manifest only, out of every output a run is compared by.
    """
    import platform
    import numpy as np
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"argv": args.argv, "python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "threads": {name: os.environ.get(name) for name in _THREAD_VARS}}


def _write_manifest(out, args, scenario, chash, extra=None):
    manifest = {
        "tool": "atomlink",
        "version": __version__,
        "command": args.command,
        "scenario": scenario.name,
        "config_hash": chash,
        "seed": getattr(args, "seed", None),
        "mode": getattr(args, "mode", None),
        "events": getattr(args, "events", None),
        "out": out,
        "environment": _environment(args),
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
    start = time.perf_counter()
    scenario = _resolve_scenario(args)
    out = _out_dir(args)
    events_path = os.path.join(out, "events.jsonl")
    summary_path = os.path.join(out, "summary.json")
    clicks_path = os.path.join(out, "clicks.csv")
    scenario_path = os.path.join(out, "scenario.ini")
    for p in (events_path, summary_path, clicks_path, scenario_path):
        _check_output(p, out, args.force)

    from .protocol.scenario import save_scenario
    from .protocol.sequence import run_sequence
    result = run_sequence(
        scenario, schedule=args.schedule, target_events=args.events,
        seed=args.seed, mode=args.mode, n_trajectories=args.trajectories,
    )
    ran = time.perf_counter()
    chash = result.config_hash
    header = {"type": "header", "config_hash": chash, "scenario": scenario.name,
              "mode": args.mode, "seed": args.seed, "schedule": args.schedule}
    with _open_output(events_path) as fh:
        _write_events(fh, header, result.events)
    with _open_output(summary_path) as fh:
        json.dump(result.summary, fh, indent=2, sort_keys=True, default=float)
    with _open_output(clicks_path) as fh:
        _write_clicks(fh, chash, result.clicks)
    save_scenario(scenario, scenario_path)
    end = time.perf_counter()
    timings = {**result.timings, "write_s": end - ran, "total_s": end - start}
    _write_manifest(out, args, scenario, chash,
                    {"timings": timings, "counters": result.counters})
    print(f"wrote {len(result.events)} events to {events_path}")
    return EXIT_OK


_CLICK_HEADER = ("window", "detector", "timestamp_ns", "origin")
# rows of a run file that are formatted, or parsed, at a time
_FILE_BLOCK = 2048
# events.jsonl lines decoded at a time: 48 to 256 read 20 000 events alike, and
# each line of a block adds about 2.5 kB to the reader's peak (2.07 MB at 64)
_EVENT_BLOCK = 64


def _quoted(vocabulary, codes):
    """JSON strings of the vocabulary entries that ``codes`` index."""
    import numpy as np
    return np.array([json.dumps(v) for v in vocabulary], dtype=object)[codes].tolist()


def _write_events(fh, header, events: EventTable):
    """The header line, then one JSON record per event, _FILE_BLOCK events at a time."""
    from .analysis.tables import BELL_OUTCOMES, DETECTORS, EVENT_LINE, PLANES, READOUTS
    fh.write(json.dumps(header) + "\n")
    quoted_hash = json.dumps(header["config_hash"])
    for start in range(0, len(events), _FILE_BLOCK):
        block = events.rows(slice(start, start + _FILE_BLOCK))
        # readout code -1 (none sampled) picks the trailing null
        node_readouts = [_quoted([r[node] for r in READOUTS] + [None], block.readout)
                         for node in (0, 1)]
        columns = (
            block.wall_time_s.tolist(), block.try_index.tolist(),
            _quoted(BELL_OUTCOMES, block.outcome),
            _quoted(DETECTORS, block.detectors[:, 0]), _quoted(DETECTORS, block.detectors[:, 1]),
            block.click_ns[:, 0].tolist(), block.click_ns[:, 1].tolist(),
            _quoted((False, True), block.accepted.astype(int)),
            _quoted(("background", "signal"), block.signal.astype(int)),
            block.alpha_rad.tolist(), block.beta_rad.tolist(), _quoted(PLANES, block.plane),
            block.fidelity.tolist(), *block.probabilities.T.tolist(), *node_readouts,
            [quoted_hash] * len(block))
        fh.writelines(EVENT_LINE % row for row in zip(*columns))


def _write_clicks(fh, chash, clicks: ClickTable):
    """The hash line and the CSV header, then _FILE_BLOCK clicks at a time.

    Each block is formatted in one call, from the row templates of its codes.
    """
    import numpy as np
    from .analysis.tables import CLICK_ORIGINS, DETECTORS, WINDOWS
    # one row template per (window, detector, origin) code triple, at index
    # (window * len(DETECTORS) + detector) * len(CLICK_ORIGINS) + origin
    templates = np.array([f"{w},{d},%.3f,{o}\r\n"
                          for w, d, o in itertools.product(WINDOWS, DETECTORS, CLICK_ORIGINS)],
                         dtype=object)
    fh.write(f"# config_hash={chash}\n")
    fh.write(",".join(_CLICK_HEADER) + "\r\n")
    for first in range(0, len(clicks), _FILE_BLOCK):
        block = clicks.rows(slice(first, first + _FILE_BLOCK))
        key = (block.window.astype(np.intp) * len(DETECTORS) + block.detector) \
            * len(CLICK_ORIGINS) + block.origin
        fh.write("".join(templates[key].tolist()) % tuple((block.time_s * 1e9).tolist()))


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _load_events(path):
    """Header record and EventTable of an events.jsonl file.

    Each _EVENT_BLOCK lines are decoded as one JSON array into columns
    allocated once from the file's line count, so the run is held once.  A
    block that is not one valid record per non-blank line is read again one
    line at a time to name the bad line.  The last "header" record counts.
    """
    from operator import itemgetter
    import numpy as np
    from .analysis.tables import BELL_OUTCOMES, DETECTORS, PLANES, READOUTS, EventTable
    from .quantum import OUTCOME_KEYS

    def reject(constant):
        raise ValueError(f"{constant} is not a JSON number")

    # the JSON types of the fields that no vocabulary holds: a number is never a bool
    types = {**dict.fromkeys(("wall_time_s", "click1_ns", "click2_ns", "alpha_rad", "beta_rad",
                              "fidelity", *OUTCOME_KEYS), {int, float}),
             "try_index": {int}, "accepted": {bool}, "config_hash": {str}}
    codes = {key: {v: i for i, v in enumerate(vocabulary)} for key, vocabulary in (
        ("bell_outcome", BELL_OUTCOMES), ("detector1", DETECTORS), ("detector2", DETECTORS),
        ("plane", PLANES), ("origin", ("background", "signal")))}
    readouts = {pair: i for i, pair in enumerate(READOUTS)} | {(None, None): -1}
    fields = [key for key in [*types, *codes, "outcome1", "outcome2"] if key not in OUTCOME_KEYS]
    # each column's dtype and the fields that fill it, in order
    layout = {**{key: (float, key) for key in ("wall_time_s", "alpha_rad", "beta_rad", "fidelity")},
              "try_index": (np.int64, "try_index"), "outcome": (np.int8, "bell_outcome"),
              "detectors": (np.int8, "detector1", "detector2"), "plane": (np.int8, "plane"),
              "click_ns": (float, "click1_ns", "click2_ns"), "readout": (np.int8, "readout"),
              "probabilities": (float, *OUTCOME_KEYS), "accepted": (bool, "accepted"),
              "signal": (bool, "origin")}
    headers = []

    def put(lines, row) -> int:
        """Decode the non-blank lines into the columns from ``row`` on; the next row."""
        text = [line for line in lines if line.strip()]
        records = json.loads(b"[" + b",".join(text) + b"]", parse_constant=reject)
        if len(records) != len(text):
            raise ValueError(f"{len(records)} JSON values on {len(text)} lines")
        is_header = [type(r) is dict and r.get("type") == "header" for r in records]
        headers.extend(itertools.compress(records, is_header))
        records = [r for r, h in zip(records, is_header) if not h]
        if not records:
            return row
        *values, probabilities = zip(*map(itemgetter(*fields, "probabilities"), records))
        values = dict(zip(fields, values))
        values.update(zip(OUTCOME_KEYS, zip(*map(itemgetter(*OUTCOME_KEYS), probabilities))))
        for key, allowed in types.items():
            if wrong := {*map(type, values[key])} - allowed:
                raise TypeError(f"{key} holds a {wrong.pop().__name__}")
        for key, vocabulary in codes.items():
            values[key] = list(map(vocabulary.__getitem__, values[key]))
        values["readout"] = list(map(readouts.__getitem__,
                                     zip(values["outcome1"], values["outcome2"])))
        for name, (_, *keys) in layout.items():
            columns[name][row:row + len(records)].T[:] = [values[k] for k in keys]
        return row + len(records)

    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO)
    with fh:
        n_lines = 1 + sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 16), b""))
        fh.seek(0)
        columns = {name: np.empty((n_lines, len(keys)), dtype)
                   for name, (dtype, *keys) in layout.items()}
        row, lineno = 0, 1
        while lines := list(itertools.islice(fh, _EVENT_BLOCK)):
            try:
                row = put(lines, row)
            except (KeyError, TypeError, ValueError, OverflowError):
                for i, line in enumerate(lines, start=lineno):
                    try:
                        put([line], row)
                    except (KeyError, TypeError, ValueError, OverflowError) as exc:
                        raise CliError(f"{path}:{i}: malformed event record ({exc!r})", EXIT_IO)
                raise CliError(f"{path}:{lineno}: malformed block", EXIT_IO)
            lineno += len(lines)
    if not headers:
        raise CliError(f"{path}: missing header line", EXIT_IO)
    return headers[-1], EventTable(**{name: column[:row, 0] if column.shape[1] == 1
                                      else column[:row] for name, column in columns.items()})


def _click_block(path, first_lineno, lines):
    """(window, detector, origin codes, times in s) of consecutive clicks.csv body lines.

    ``first_lineno`` is the file line number of ``lines[0]``.  A malformed
    block is parsed again one non-blank line at a time to name the bad line.
    """
    import numpy as np
    from .analysis.tables import CLICK_ORIGINS, DETECTORS, WINDOWS
    # strings longer than every label, so that a truncated field cannot match one
    label = f"U{max(map(len, WINDOWS + DETECTORS + CLICK_ORIGINS)) + 1}"
    dtype = [(name, "f8" if name == "timestamp_ns" else label) for name in _CLICK_HEADER]
    try:
        rows = np.loadtxt(lines, delimiter=",", dtype=dtype, comments=None, ndmin=1)
        codes = []
        for name, vocabulary in zip(("window", "detector", "origin"),
                                    (WINDOWS, DETECTORS, CLICK_ORIGINS)):
            code = np.full(len(rows), -1, dtype=np.int8)
            for i, label in enumerate(vocabulary):
                code[rows[name] == label] = i
            if np.any(code < 0):
                raise ValueError(f"unknown {name}")
            codes.append(code)
    except ValueError:
        if len(lines) == 1:
            raise CliError(f"{path}:{first_lineno}: malformed CSV row", EXIT_IO)
        for i, line in enumerate(lines):
            if line.rstrip("\r\n"):
                _click_block(path, first_lineno + i, [line])
        raise CliError(f"{path}: malformed CSV row", EXIT_IO)
    return (*codes, rows["timestamp_ns"] * 1e-9)


def _load_clicks(path):
    """Config hash (None without a hash line) and ClickTable of a clicks.csv file.

    The body is parsed _FILE_BLOCK lines at a time into int8 codes and
    float64 times, so no more than one block of text is held.
    """
    from .analysis.tables import ClickTable
    try:
        fh = open(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO)
    with fh:
        first = fh.readline()
        chash = None
        lineno = 1
        if first.startswith("# config_hash="):
            chash = first.strip().split("=", 1)[1]
            first = fh.readline()
            lineno = 2
        if tuple(c.strip() for c in first.strip().split(",")) != _CLICK_HEADER:
            raise CliError(f"{path}:{lineno}: expected the CSV header "
                           f"{','.join(_CLICK_HEADER)}", EXIT_IO)
        blocks = []
        while lines := list(itertools.islice(fh, _FILE_BLOCK)):
            if any(line.rstrip("\r\n") for line in lines):
                blocks.append(_click_block(path, lineno + 1, lines))
            lineno += len(lines)
    return chash, ClickTable.from_blocks(blocks)


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

    import numpy as np
    from .analysis.estimators import (
        chsh_from_dataset,
        contrast_sigma,
        correlation_probability,
        dataset_from_events,
        fringe_sigma,
        fringe_visibility_summary,
        interference_contrast,
        three_basis_summary,
    )
    from .analysis.tables import BELL_OUTCOMES, DETECTORS
    from .analysis.windows import HISTOGRAM_SPAN, DetectionHistogram, sbr
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

    dataset = dataset_from_events(events, mode)
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
                # the singles only: herald clicks, all near the arrival, would
                # count as signal in proportion to the herald count
                singles = clicks.rows(clicks.detector == DETECTORS.index("single"))
                edges = np.arange(HISTOGRAM_SPAN[0], HISTOGRAM_SPAN[1] + 1e-12, 2e-9)
                hist = DetectionHistogram.from_click_times(singles.times_by_window(), edges)
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
                scans = dataset.select("equator", outcome)
                for alpha, beta, c in zip(scans.alpha, scans.beta, scans.counts):
                    w.writerow([outcome, f"{np.degrees(beta):.1f}", f"{np.degrees(alpha):.1f}",
                                f"{correlation_probability(c):.6f}", f"{fringe_sigma(c):.6f}"])
    print(f"wrote report to {report_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# dephasing
# ---------------------------------------------------------------------------

def cmd_dephasing(args) -> int:
    start = time.perf_counter()
    if not args.dt > 0.0:
        raise CliError(f"--dt must be positive, got {args.dt!r}", EXIT_CONFIG)
    if not args.t_max >= 0.0:
        raise CliError(f"--t-max must be >= 0, got {args.t_max!r}", EXIT_CONFIG)
    scenario = _resolve_scenario(args)
    node = scenario.nodes()[args.node - 1]
    out = _out_dir(args)
    path = os.path.join(out, args.output)
    _check_output(path, out, args.force)
    import numpy as np
    from .memory.channel import dephasing_channel_family
    from .protocol.scenario import config_hash
    times = np.round(np.arange(0.0, args.t_max + args.dt / 2, args.dt), 12)
    build = time.perf_counter()
    family = dephasing_channel_family(
        node.trap, node.field_env, node.temperature, times, args.trajectories, seed=args.seed,
    )
    built = time.perf_counter()
    chash = config_hash(scenario)
    with _open_output(path) as fh:
        fh.write(f"# config_hash={chash}\n")
        w = csv.writer(fh)
        w.writerow(["time_us", "basis", "expectation", "envelope", "envelope_stderr"])
        envelope, stderr = family.envelope(), family.stderr()
        for basis in ("X", "Y", "Z"):
            curve = family.expectation_curve(basis)
            for t, x, v, se in zip(family.times, curve, envelope, stderr):
                w.writerow([f"{t * 1e6:.3f}", basis, f"{x:.6f}", f"{v:.6f}", f"{se:.6f}"])
    end = time.perf_counter()
    one_over_e = family.one_over_e_time()
    print(f"wrote envelope to {path}; 1/e time {one_over_e * 1e6:.1f} us")
    _write_manifest(out, args, scenario, chash, {
        "one_over_e_us": one_over_e * 1e6,
        "timings": {"channel_s": built - build, "write_s": end - built, "total_s": end - start},
        "counters": {"channel_builds": 1,
                     "traj_steps": args.trajectories * family.meta["spin_steps"]}})
    return EXIT_OK


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

def cmd_rates(args) -> int:
    names = [n.strip() for n in args.presets.split(",") if n.strip()]
    if not names:
        raise CliError(f"--presets names no preset: {args.presets!r}", EXIT_CONFIG)
    from .protocol.rates import (
        duty_cycle,
        event_rate,
        repetition_rate,
        sbr_model,
        success_probability,
        window_capture,
    )
    from .protocol.scenario import config_hash, preset
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
    table = None
    if fpath:
        from .protocol.model import fidelity_vs_length
        table = fidelity_vs_length(scenarios, n_trajectories=args.trajectories, seed=args.seed)
    rows = []
    for name, s in zip(names, scenarios):
        rep = repetition_rate(s)
        p_model = success_probability(s)
        duty = duty_cycle(s.sequence, 1.0 / rep)
        quoted = s.published_values
        er_model = event_rate(s, duty=duty)
        er_quoted = duty_implied = None
        if "success_probability" in quoted:
            er_quoted = event_rate(s, success_prob=quoted["success_probability"],
                                   repetition_hz=quoted.get("repetition_rate_hz"))
        if {"event_rate_hz", "repetition_rate_hz", "success_probability"} <= quoted.keys():
            duty_implied = quoted["event_rate_hz"] / (quoted["repetition_rate_hz"]
                                                      * quoted["success_probability"])
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
            # the duty the quoted event rate, repetition rate and herald odds imply
            "duty_cycle_implied": duty_implied if duty_implied is not None else "",
            "sbr_node1_model": sb["node1"],
            "sbr_node2_model": sb["node2"],
            **{f"sbr_{k}_quoted": quoted.get(f"sbr_{k}", "")
               for k in ("node1", "node2", "coincidence")},
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
    from .calibration import DEFAULT_TARGETS, calibrate, check_targets
    targets = None
    if args.targets:
        try:
            with open(args.targets) as fh:
                targets = json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read targets: {exc}", EXIT_IO)
        except json.JSONDecodeError as exc:
            raise CliError(f"targets file is not valid JSON: {exc}", EXIT_CONFIG)
        try:
            check_targets(targets)
        except ValueError as exc:
            raise CliError(f"{args.targets}: {exc}", EXIT_CONFIG)
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
        "targets": {**DEFAULT_TARGETS, **(targets or {})},
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
    from .protocol.presets import PRESETS
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
    from .protocol.scenario import preset, save_scenario
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
    args.argv = sys.argv[1:] if argv is None else list(argv)
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
