"""Collect the results of finished runs into one point of the bench trajectory.

Usage, from the root of a checkout, after runs of perfbench/run.py:

    python3 perfbench/record.py LABEL

Reads ``.perfbench/results/*.json`` and writes ``perfbench/trajectory/LABEL.json``
with, for every workload, the median, quartiles and count over the runs of
each end-to-end metric (untraced runs) and each per-layer metric (traced
runs), the named throughputs and the failure ratio, and the environment of
the runs.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def main(label):
    runs = {}
    envs = []
    for path in sorted(glob.glob(os.path.join(".perfbench", "results", "*.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        runs.setdefault(rec["workload"], []).append(rec)
        envs.append(rec["env"])
    point = {"label": label, "env": envs[0] if envs else {},
             "envs_differ": any(e != envs[0] for e in envs), "workloads": {}}
    for workload, recs in sorted(runs.items()):
        entry = {"seeds": sorted({r["seed"] for r in recs}),
                 "attempted": sum(r["result"]["attempted"] for r in recs),
                 "failed": sum(r["result"]["failed"] for r in recs)}
        entry["fail_ratio"] = entry["failed"] / entry["attempted"]
        for key, trace in (("end_to_end", 0), ("per_layer", 1)):
            chosen = [r for r in recs if r["trace"] == trace]
            names = chosen[0]["result"]["metrics"] if chosen else {}
            entry[key] = {m: {**spread([r["result"]["metrics"][m]["value"] for r in chosen]),
                              "unit": names[m]["unit"]} for m in names}
        plain = [r for r in recs if r["trace"] == 0]
        named = sorted({k for r in plain for k in r["named"]} - {"fail_ratio"})
        entry["named"] = {k: spread([r["named"][k] for r in plain]) for k in named}
        point["workloads"][workload] = entry
    out = os.path.join(HERE, "trajectory", f"{label}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(point, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
