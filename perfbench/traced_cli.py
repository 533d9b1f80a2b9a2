"""Run one ``atomlink`` command with spans around the calls into each layer.

Usage: python3 perfbench/traced_cli.py TRACE_JSON <atomlink cli arguments...>

The spans are installed from outside the package: each one replaces a
function with a timing wrapper in the namespace of the module that calls it
(for example ``atomlink.protocol.sequence.tensor``), so the program under
test is unchanged.  A target the package no longer has is skipped and listed
under ``missing`` in the trace.  Spans are aggregated in memory per name
(calls, total and self time) and written to TRACE_JSON when the command ends.
"""

import time

T0 = time.perf_counter()   # before the other imports, so the cli.import span covers them

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402

# (module, attribute, layer); a dotted attribute names a method of a class.
SPANS = [
    ("atomlink.cli", "cmd_simulate", "cli"),
    ("atomlink.cli", "cmd_analyze", "cli"),
    ("atomlink.cli", "cmd_dephasing", "cli"),
    ("atomlink.cli", "run_sequence", "protocol"),
    ("atomlink.cli", "dephasing_channel_family", "memory"),
    ("atomlink.cli", "coherence_envelope", "memory"),
    ("atomlink.protocol.sequence", "dephasing_channel_family", "memory"),
    ("atomlink.memory.channel", "QutritChannel.apply_to_subsystem", "memory"),
    ("atomlink.protocol.sequence", "DensityMatrix", "quantum"),
    ("atomlink.protocol.sequence", "atom_photon_state", "quantum"),
    ("atomlink.protocol.sequence", "atom_bell_state", "quantum"),
    ("atomlink.protocol.sequence", "tensor", "quantum"),
    ("atomlink.quantum", "swap_with_interference", "quantum"),
    ("atomlink.protocol.sequence", "joint_outcome_probabilities", "quantum"),
    ("atomlink.protocol.sequence", "fidelity", "quantum"),
    ("atomlink.protocol.sequence", "apply_polarization_error", "photonics"),
    ("atomlink.protocol.sequence", "rotation_su2", "photonics"),
    ("atomlink.protocol.sequence", "sample_pair", "photonics"),
    ("atomlink.protocol.sequence", "indistinguishability", "photonics"),
    ("atomlink.protocol.sequence", "coincidence_distribution", "photonics"),
    ("atomlink.protocol.sequence", "window_capture_probability", "photonics"),
    ("atomlink.photonics.interference", "PhotonWavepacket.sample_emission_times",
     "photonics"),
    ("atomlink.cli", "_load_events", "analysis.read"),
    ("atomlink.cli", "_load_clicks", "analysis.read"),
    ("atomlink.cli", "_dataset_from_records", "analysis.read"),
    ("atomlink.cli", "three_basis_summary", "analysis"),
    ("atomlink.cli", "fringe_visibility_summary", "analysis"),
    ("atomlink.cli", "chsh_from_dataset", "analysis"),
    ("atomlink.cli", "interference_contrast", "analysis"),
    ("atomlink.cli", "contrast_sigma", "analysis"),
    ("atomlink.cli", "sbr", "analysis"),
    ("atomlink.analysis.windows", "DetectionHistogram.from_click_times", "analysis"),
]


class Tracer:
    """Span stack plus per-name aggregates and counters."""

    def __init__(self):
        self.stack = []          # [name, child seconds] per open span
        self.spans = {}          # name -> {layer, calls, total_s, self_s}
        self.top_s = 0.0         # time inside spans that have no parent
        self.counters = {}
        self.missing = []

    def record(self, name, layer, seconds, child_s=0.0):
        st = self.spans.setdefault(
            name, {"layer": layer, "calls": 0, "total_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["total_s"] += seconds
        st["self_s"] += seconds - child_s
        if self.stack:
            self.stack[-1][1] += seconds
        else:
            self.top_s += seconds

    def count(self, key, value, how="sum"):
        old = self.counters.get(key)
        if old is None:
            self.counters[key] = value
        elif how == "max":
            self.counters[key] = max(old, value)
        else:
            self.counters[key] = old + value

    def wrap(self, name, layer, fn, after=None):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - t0
                self.stack.pop()
                self.record(name, layer, seconds, frame[1])
            if after is not None:
                after(self, result, args, kwargs)
            return result
        return span


def _after_channel(tracer, family, args, kwargs):
    meta = getattr(family, "meta", {}) or {}
    times = [float(t) for t in family.times]
    n = int(meta.get("n_trajectories", 0))
    spin_dt = float(meta.get("spin_dt", 1e-7))
    chunk = meta.get("chunk_size")
    chunks = meta.get("chunks") or (math.ceil(n / chunk) if chunk else 0)
    tracer.count("memory.builds", 1)
    tracer.count("memory.sample_points", len(times))
    tracer.count("memory.traj_steps", n * round(max(times, default=0.0) / spin_dt))
    tracer.count("memory.chunks", int(chunks), "max")


def _tries_per_block(scenario):
    """Live tries between two presence checks, as the sequence clock counts them."""
    from atomlink.protocol import repetition_rate
    seq = scenario.sequence
    burst = seq.tries_per_cooling_block / repetition_rate(scenario) + seq.cooling_duration
    return max(seq.tries_per_cooling_block,
               int(seq.block_period / burst) * seq.tries_per_cooling_block)


def _after_sequence(tracer, result, args, kwargs):
    s = result.summary
    tries = int(s["n_tries"])
    tracer.count("protocol.heralds", int(s["n_events"]))
    tracer.count("protocol.dnull", int(s["n_dnull"]))
    tracer.count("protocol.tries", tries)
    tracer.count("protocol.accepted", round(s["accepted_fraction"] * s["n_events"]))
    scenario = args[0] if args else kwargs["scenario"]
    tracer.count("protocol.clock_blocks", tries // _tries_per_block(scenario))


AFTER = {
    "memory.dephasing_channel_family": _after_channel,
    "protocol.run_sequence": _after_sequence,
}


def install(tracer):
    for module_name, attr, layer in SPANS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        raw = vars(owner).get(fn_name) if owner is not None else None
        if raw is None:
            tracer.missing.append(f"{module_name}.{attr}")
            continue
        name = f"{layer.split('.')[0]}.{fn_name}"
        wrapper_type = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if wrapper_type else raw
        wrapped = tracer.wrap(name, layer, fn, AFTER.get(name))
        setattr(owner, fn_name, wrapper_type(wrapped) if wrapper_type else wrapped)


def main():
    trace_path, argv = sys.argv[1], sys.argv[2:]
    import atomlink.cli as cli
    tracer = Tracer()
    tracer.record("cli.import", "cli", time.perf_counter() - T0)
    install(tracer)
    try:
        rc = cli.main(argv)
    finally:
        with open(trace_path, "w") as fh:
            json.dump({"spans": tracer.spans, "top_s": tracer.top_s,
                       "counters": tracer.counters, "missing": tracer.missing,
                       "process_s": time.perf_counter() - T0}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
