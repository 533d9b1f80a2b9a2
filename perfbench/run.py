"""Benchmark of the atomlink command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repeat of a workload runs fresh ``python -m atomlink.cli`` processes
from ``src/``, so each repeat pays imports and the memory-channel build as a
user does.  A run first times the set-up (interpreter start, importing
``atomlink.cli`` and parsing the workload's arguments) several times, then
repeats the workload with one seed until ``--seconds`` are used, and at
least twice, so that the repeats can be compared byte for byte.  Every
repeat's outputs are checked; a nonzero exit or a failed check counts the
repeat as failed.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics (medians over the repeats).  With ``--trace 1`` untraced and traced
repeats alternate (``traced_cli.py`` wraps each layer's entry points) and the
last line holds the per-layer metrics.  Human-readable lines, the machine
environment and a results file under ``.perfbench/results`` come first.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

# BLAS/OpenMP pools are pinned so that --jobs is the only parallelism.
THREAD_VARS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0          # the whole run must end well inside 180 s
ESTIMATORS = "fidelity,fringe,chsh,contrast,sbr"

# Published three-basis fidelities and their quoted sigmas; the model
# tolerance is that of the fidelity-versus-length acceptance criterion.
PUBLISHED = {"l6": (0.830, 0.010, 0.020), "l33": (0.622, 0.015, 0.030)}
ACCEPTED_RANGE = (0.62, 0.72)          # acceptance-window fraction
PRINCIPAL_KHZ = (100.0, 110.0)         # X-curve principal frequency
ONE_OVER_E_US = (330.0 * 0.8, 330.0 * 1.2)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "link" (simulate + analyze) or "memory" (dephasing)
    preset: str
    mode: str = ""
    events: int = 0
    trajectories: int = 0
    t_max_us: int = 0
    jobs: int = 1


# Why each workload, and the layer it is meant to load, is in PREDICTIONS.md.
WORKLOADS = {w.name: w for w in (
    Workload("link-l6-sampled", "link", "l6", mode="sampled-clicks",
             events=1000, trajectories=2000),
    Workload("link-l33-dm", "link", "l33", mode="density-matrix",
             events=500, trajectories=1000),
    Workload("memory-envelope", "memory", "l6", trajectories=2100,
             t_max_us=400, jobs=2),
)}

# printed per command but not gated: BENCHMARK.json needs every gated
# metric on every workload, and nonzero
NAMED_UNITS = {"heralds_per_s": "1/s", "analyze_events_per_s": "1/s",
               "traj_steps_per_s": "1/s", "fail_ratio": "ratio"}


@dataclass
class Proc:
    rc: int
    wall: float
    rss_mb: float


def child_env():
    env = dict(os.environ)
    env.update(THREAD_VARS)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, log_path, deadline):
    """Run argv to completion; wall time and peak RSS come from wait4."""
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(max(deadline - t0, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def cli_argv(traced, trace_path):
    if traced:
        return [sys.executable, os.path.join(HERE, "traced_cli.py"), trace_path]
    return [sys.executable, "-m", "atomlink.cli"]


def main_args(w, seed, out):
    if w.kind == "link":
        return ["simulate", "--preset", w.preset, "--mode", w.mode,
                "--events", str(w.events), "--trajectories", str(w.trajectories),
                "--jobs", str(w.jobs), "--seed", str(seed), "--out", out]
    return ["dephasing", "--preset", w.preset, "--node", "1",
            "--trajectories", str(w.trajectories), "--t-max", f"{w.t_max_us}e-6",
            "--jobs", str(w.jobs), "--seed", str(seed), "--out", out]


def analyze_args(out):
    return ["analyze", "--events", os.path.join(out, "events.jsonl"),
            "--clicks", os.path.join(out, "clicks.csv"),
            "--summary", os.path.join(out, "summary.json"),
            "--estimators", ESTIMATORS, "--out", out]


def measure_setup(w, seed, log_path, deadline):
    code = ("import sys, atomlink.cli; "
            "atomlink.cli.build_parser().parse_args(sys.argv[1:])")
    argv = [sys.executable, "-c", code] + main_args(w, seed, os.path.join(WORK, "unused"))
    return spawn(argv, log_path, deadline)


def file_bytes(out, names):
    return sum(os.path.getsize(os.path.join(out, n)) for n in names
               if os.path.exists(os.path.join(out, n)))


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_link(w, out):
    """Statistical checks that hold for any RNG draw order; returns problems."""
    report = load_json(os.path.join(out, "report.json"))
    summary = load_json(os.path.join(out, "summary.json"))
    problems = []
    n = report.get("n_events")
    if n != w.events:
        problems.append(f"analyze read {n} events, expected {w.events}")
    acc = report.get("accepted_fraction", -1.0)
    fid = report["estimators"].get("fidelity", {})
    if "fidelity" not in fid:
        problems.append(f"no fidelity estimate: {fid}")
    else:
        pub, pub_sigma, model_tol = PUBLISHED[w.preset]
        # F = 1/9 + 8/9 V over twelve settings: at p = 1/2 the binomial error
        # is (8/9)/sqrt(accepted), which also covers few counts near p = 0 or 1
        sigma = max(fid["fidelity_sigma"], (8 / 9) / math.sqrt(max(acc * w.events, 1.0)))
        tol = model_tol + 4.0 * math.hypot(sigma, pub_sigma)
        if not abs(fid["fidelity"] - pub) <= tol:
            problems.append(f"fidelity {fid['fidelity']:.4f} not within {tol:.4f} of {pub}")
    # criterion 7 checks this band at 4000 events; widen by 3 binomial sigmas here
    slack = 3.0 * 0.5 / math.sqrt(max(w.events, 1))
    lo, hi = ACCEPTED_RANGE[0] - slack, ACCEPTED_RANGE[1] + slack
    if not lo <= acc <= hi:
        problems.append(f"accepted fraction {acc:.4f} outside [{lo:.3f}, {hi:.3f}]")
    if abs(acc - summary.get("accepted_fraction", -1.0)) > 1e-9:
        problems.append("analyze and simulate disagree on the accepted fraction")
    return problems


def principal_khz(signal, dt_us):
    win = np.hanning(len(signal))
    amp = np.abs(np.fft.rfft((signal - signal.mean()) * win))
    i = int(np.argmax(amp))
    shift = 0.0
    if 0 < i < len(amp) - 1:
        denom = amp[i - 1] - 2 * amp[i] + amp[i + 1]
        shift = 0.5 * (amp[i - 1] - amp[i + 1]) / denom if denom else 0.0
    return (i + shift) / (len(signal) * dt_us) * 1e3


def one_over_e_us(times, vis):
    below = np.nonzero(vis < 1.0 / math.e)[0]
    if len(below) == 0 or below[0] == 0:
        return math.inf
    i = below[0]
    v0, v1 = vis[i - 1], vis[i]
    return times[i - 1] + (v0 - 1.0 / math.e) / (v0 - v1) * (times[i] - times[i - 1])


def check_memory(w, out):
    with open(os.path.join(out, "envelope.csv"), newline="") as fh:
        rows = [r for r in csv.reader(line for line in fh if not line.startswith("#"))]
    x = [(float(r[0]), float(r[2]), float(r[3])) for r in rows[1:] if r[1] == "X"]
    if len(x) != w.t_max_us + 1:
        return [f"envelope has {len(x)} X rows, expected {w.t_max_us + 1}"]
    times, curve, vis = (np.array(c) for c in zip(*x))
    problems = []
    f = principal_khz(curve, times[1] - times[0])
    if not PRINCIPAL_KHZ[0] <= f <= PRINCIPAL_KHZ[1]:
        problems.append(f"X principal frequency {f:.1f} kHz outside {PRINCIPAL_KHZ}")
    t_e = one_over_e_us(times, vis)
    if not ONE_OVER_E_US[0] <= t_e <= ONE_OVER_E_US[1]:
        problems.append(f"1/e time {t_e:.1f} us outside {ONE_OVER_E_US}")
    return problems


# ---------------------------------------------------------------------------
# one repeat
# ---------------------------------------------------------------------------

def run_repeat(w, run_dir, seed, index, traced, deadline, corrupt=None):
    out = os.path.join(run_dir, f"rep{index}")
    os.makedirs(out)
    log = os.path.join(out, "log.txt")
    traces = [os.path.join(out, f"trace{k}.json") for k in range(2)]
    rep = {"traced": traced, "problems": []}

    t0 = time.perf_counter()
    main = spawn(cli_argv(traced, traces[0]) + main_args(w, seed, out), log, deadline)
    procs = [main]
    if w.kind == "link":
        written = ("events.jsonl", "clicks.csv", "summary.json", "manifest.json")
        digest_file = "events.jsonl"
        work = w.events
    else:
        written = ("envelope.csv", "manifest.json")
        digest_file = "envelope.csv"
        work = w.trajectories * w.t_max_us * 10      # 100 ns spin steps
    rep["bytes_written"] = file_bytes(out, written)
    if corrupt is not None and main.rc == 0:
        corrupt(out, index)
    if w.kind == "link" and main.rc == 0:
        rep["bytes_read"] = file_bytes(out, ("events.jsonl", "clicks.csv", "summary.json"))
        procs.append(spawn(cli_argv(traced, traces[1]) + analyze_args(out), log, deadline))
    rep["wall_s"] = time.perf_counter() - t0
    rep["peak_rss_mb"] = max(p.rss_mb for p in procs)
    rep["main_s"] = main.wall
    rep["work_per_s"] = work / main.wall
    if w.kind == "link":
        rep["heralds_per_s"] = rep["work_per_s"]
        if len(procs) == 2:
            rep["analyze_events_per_s"] = w.events / procs[1].wall
    else:
        rep["traj_steps_per_s"] = rep["work_per_s"]

    if any(p.rc != 0 for p in procs) or len(procs) < (2 if w.kind == "link" else 1):
        rep["problems"].append(f"exit codes {[p.rc for p in procs]}; see {log}")
    else:
        try:
            rep["problems"] += (check_link if w.kind == "link" else check_memory)(w, out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            rep["problems"].append(f"unreadable output: {exc!r}")
        rep["digest"] = sha256(os.path.join(out, digest_file))
    if traced:
        rep["trace"] = [load_json(p) for p in traces if os.path.exists(p)]
    return rep


# ---------------------------------------------------------------------------
# per-layer metrics from the traced repeats
# ---------------------------------------------------------------------------

def layer_metrics(rep):
    spans, counters, top_s = {}, {}, 0.0
    for tr in rep["trace"]:
        top_s += tr["top_s"]
        for name, st in tr["spans"].items():
            agg = spans.setdefault(name, {"layer": st["layer"], "calls": 0,
                                          "total_s": 0.0, "self_s": 0.0})
            for k in ("calls", "total_s", "self_s"):
                agg[k] += st[k]
        for k, v in tr["counters"].items():
            counters[k] = max(counters.get(k, 0), v) if k == "memory.chunks" \
                else counters.get(k, 0) + v

    def total(name, key="total_s"):
        return spans.get(name, {}).get(key, 0.0)

    def layer(name, key="total_s"):
        return sum(st[key] for st in spans.values() if st["layer"] == name)

    heralds = counters.get("protocol.heralds", 0)
    channel_s = total("memory.dephasing_channel_family")
    traj_steps = counters.get("memory.traj_steps", 0)
    quantum_s = layer("quantum")
    coincidences = heralds + counters.get("protocol.dnull", 0)
    return {
        "memory.channel_s": channel_s,
        "memory.builds": counters.get("memory.builds", 0),
        "memory.traj_steps": traj_steps,
        "memory.traj_steps_per_s": traj_steps / channel_s if channel_s else 0.0,
        "memory.chunks": counters.get("memory.chunks", 0),
        "memory.sample_points": counters.get("memory.sample_points", 0),
        "memory.apply_s": total("memory.apply_to_subsystem"),
        "protocol.sequence_self_s": total("protocol.run_sequence", "self_s"),
        "protocol.tries": counters.get("protocol.tries", 0),
        "protocol.clock_blocks": counters.get("protocol.clock_blocks", 0),
        "protocol.us_per_herald":
            1e6 * total("protocol.run_sequence", "self_s") / heralds if heralds else 0.0,
        "protocol.herald_fraction": heralds / coincidences if coincidences else 0.0,
        "protocol.accepted_fraction":
            counters.get("protocol.accepted", 0) / heralds if heralds else 0.0,
        "quantum.s": quantum_s,
        "quantum.calls": layer("quantum", "calls"),
        "quantum.us_per_event": 1e6 * quantum_s / heralds if heralds else 0.0,
        "photonics.s": layer("photonics"),
        "photonics.calls": layer("photonics", "calls"),
        "cli.write_s": total("cli.cmd_simulate", "self_s")
        + total("cli.cmd_dephasing", "self_s"),
        "cli.bytes_written": rep["bytes_written"],
        "analysis.read_s": layer("analysis.read"),
        "analysis.estimators_s": layer("analysis"),
        "analysis.bytes_read": rep.get("bytes_read", 0),
        "trace.coverage": top_s / rep["wall_s"],
    }


# ---------------------------------------------------------------------------
# a whole run
# ---------------------------------------------------------------------------

def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        env=child_env(), capture_output=True, text=True, timeout=60)
    versions = probe.stdout.split() or ["unknown", "unknown"]
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "atomlink"))):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(base, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": versions[0], "scipy": versions[-1], "git_commit": commit,
            "src_sha256": digest.hexdigest()[:16], "thread_env": THREAD_VARS}


def median(values):
    return statistics.median(values) if values else 0.0


def execute(w, seed, seconds, trace, setup_samples=SETUP_SAMPLES, corrupt=None):
    """Run one workload; prints the report and returns the result object."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]} if trace else e2e_units
    run_dir = os.path.join(WORK, f"{w.name}-seed{seed}-trace{trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    env = environment()
    cli_seed = seed % 2**31
    setup_log = os.path.join(run_dir, "setup.log")
    setup = [measure_setup(w, cli_seed, setup_log, deadline) for _ in range(setup_samples)]
    setup_failed = sum(p.rc != 0 for p in setup)

    t_measure = time.perf_counter()
    reps = []
    while True:
        traced = bool(trace) and len(reps) % 2 == 1
        reps.append(run_repeat(w, run_dir, cli_seed, len(reps), traced, deadline, corrupt))
        elapsed = time.perf_counter() - t_measure
        last = reps[-1]["wall_s"]
        if len(reps) >= 2 and (elapsed + last > seconds
                               or time.perf_counter() + last > deadline - 5.0):
            break
    digests = [r.get("digest") for r in reps]
    for r in reps[1:]:
        if r.get("digest") and digests[0] and r["digest"] != digests[0]:
            r["problems"].append("same seed gave different output bytes than repeat 0")
    failed = sum(bool(r["problems"]) for r in reps)
    attempted = len(reps)

    plain = [r for r in reps if not r["traced"]]
    e2e = {"wall_s": median([r["wall_s"] for r in plain]),
           "setup_s": median([p.wall for p in setup]),
           "work_per_s": median([r["work_per_s"] for r in plain]),
           "peak_rss_mb": median([r["peak_rss_mb"] for r in plain])}
    named = {k: median([r[k] for r in plain if k in r])
             for k in ("heralds_per_s", "analyze_events_per_s", "traj_steps_per_s")
             if any(k in r for r in plain)}
    named["fail_ratio"] = failed / attempted
    if trace:
        traced_reps = [r for r in reps if r["traced"]]
        overhead = median([r["wall_s"] for r in traced_reps]) / e2e["wall_s"]
        per = [{**layer_metrics(r), "trace.overhead": overhead} for r in traced_reps]
    else:
        per = [e2e]
    metrics = {k: median([p[k] for p in per]) for k in units}

    print(f"perfbench workload={w.name} seed={seed} trace={trace} "
          f"repeats={attempted} setup_samples={len(setup)} "
          f"measured_s={time.perf_counter() - t_measure:.1f}")
    print("env " + json.dumps(env, sort_keys=True))
    n_plain = len(plain)
    for k, v in {**e2e, **named}.items():
        unit = NAMED_UNITS.get(k) or e2e_units[k]
        n = len(setup) if k == "setup_s" else n_plain
        print(f"e2e {k} = {v:.6g} {unit} (median of {n})")
    if trace:
        for k, v in metrics.items():
            print(f"layer {k} = {v:.6g} {units[k]}")
    for i, r in enumerate(reps):
        for problem in r["problems"]:
            print(f"FAILED repeat {i}: {problem}")
    if setup_failed:
        print(f"FAILED {setup_failed} of {len(setup)} set-up runs")

    result = {"correct": failed == 0 and setup_failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}}
    record = {"workload": w.name, "seed": seed, "trace": trace, "env": env,
              "setup_s": [p.wall for p in setup], "named": named, "result": result,
              "repeats": [{k: v for k, v in r.items() if k != "trace"} for r in reps]}
    path = os.path.join(WORK, "results", f"{w.name}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if result["correct"]:
        shutil.rmtree(run_dir)    # outputs of a failed run stay for inspection
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "atomlink", "cli.py")):
        print(f"error: no atomlink sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    result = execute(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
