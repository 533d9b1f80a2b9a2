"""Self-test of the benchmark at tiny sizes (about a minute on two cores).

Usage, from the root of a checkout:  python3 perfbench/selftest.py

It runs every workload scaled down, untraced and traced, and checks that the
report names every metric of BENCHMARK.json with its unit and that the
outputs pass.  Then it corrupts outputs on purpose and checks that each
corruption counts as a failed repeat instead of a pass.
"""

import contextlib
import io
import os
import re
import sys
from dataclasses import replace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TINY = {
    "link-l6-sampled": {"events": 60, "trajectories": 200},
    "link-l33-dm": {"events": 60, "trajectories": 200},
    "memory-envelope": {"trajectories": 200},
}


# the per-command metrics each kind of workload prints besides the gated ones
NAMED = {"link": {"heralds_per_s": "1/s", "analyze_events_per_s": "1/s", "fail_ratio": "ratio"},
         "memory": {"traj_steps_per_s": "1/s", "fail_ratio": "ratio"}}


def tiny(name):
    return replace(run.WORKLOADS[name], **TINY[name])


def execute(workload, trace, corrupt=None):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = run.execute(workload, seed=6 if corrupt else 5, seconds=1, trace=trace,
                             setup_samples=2, corrupt=corrupt)
    text = buf.getvalue()
    if corrupt is None:
        sys.stdout.write("".join(ln + "\n" for ln in text.splitlines() if "FAILED" in ln))
    return result, text


def rewrite(path, fn):
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(fn(text))


def reject_all(out, index):
    """Mark every heralded event as outside the acceptance window."""
    rewrite(os.path.join(out, "events.jsonl"),
            lambda t: t.replace('"accepted": true', '"accepted": false'))


def flat_envelope(out, index):
    """Replace every expectation value by zero."""
    rewrite(os.path.join(out, "envelope.csv"),
            lambda t: re.sub(r"^([^#,]+,[XYZ]),[^,]+,", r"\1,0.000000,", t, flags=re.M))


def change_second_repeat(out, index):
    """Change the bytes of the second repeat only, leaving its values valid."""
    if index == 1:
        rewrite(os.path.join(out, "events.jsonl"), lambda t: t.replace(", ", ",  ", 1))


CORRUPTIONS = [
    ("link-l6-sampled", reject_all),
    ("memory-envelope", flat_envelope),
    ("link-l33-dm", change_second_repeat),
]


def main():
    spec = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
           "BENCHMARK.json lists exactly the workloads run.py knows")
    for name in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, text = execute(tiny(name), trace)
            expect(result["correct"] and result["failed"] == 0,
                   f"{name} trace={trace}: outputs pass ({result['attempted']} repeats)")
            printed = dict(re.findall(r"^(?:e2e|layer) (\S+) = \S+ (\S+)", text, re.M))
            for m in spec[key]:
                got = result["metrics"].get(m["name"], {})
                expect(printed.get(m["name"]) == got.get("unit") == m["unit"]
                       and isinstance(got.get("value"), float),
                       f"{name} trace={trace}: {m['name']} printed in {m['unit']}")
            for metric, unit in NAMED[run.WORKLOADS[name].kind].items():
                expect(printed.get(metric) == unit,
                       f"{name} trace={trace}: {metric} printed in {unit}")
    for name, corrupt in CORRUPTIONS:
        result, _ = execute(tiny(name), 0, corrupt)
        expect(not result["correct"] and result["failed"] >= 1,
               f"{name}: {corrupt.__name__} counts as a failed repeat "
               f"({result['failed']} of {result['attempted']})")
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
