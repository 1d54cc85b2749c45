"""Summarise one set of benchmark run records, or compare two sets.

    python3 perfbench/compare.py RUNS_A [RUNS_B]

Each argument is a directory of records written by perfbench/run.py
(.perfbench/runs/ by default) or a single record file. For every workload
and every metric it prints the median and the quartile spread (q3 - q1 as
a share of the median) of each set; with two sets it also prints the
change of the second median against the first, in the direction that is
worse, beside the bound from BENCHMARK.json. It refuses to compare records
whose kernel lanes differ.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(arg):
    p = Path(arg)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    records = [json.loads(f.read_text()) for f in files if not f.name.endswith(".spans.json")]
    if not records:
        sys.exit(f"compare: no run records in {arg}")
    return records


def stats(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv):
    if not 1 <= len(argv) <= 2:
        sys.exit(__doc__)
    sets = [load(a) for a in argv]
    lanes = {r["env"]["lane"] for s in sets for r in s}
    if len(lanes) > 1:
        print(f"compare: refusing to compare runs from different kernel lanes {sorted(lanes)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    keys = sorted({(r["workload"], r["trace"]) for s in sets for r in s})
    for workload, trace in keys:
        groups = [[r for r in s if (r["workload"], r["trace"]) == (workload, trace)] for s in sets]
        head = ", ".join(f"{len(g)} runs, failed {sum(r['result']['failed'] for r in g)}"
                         f"/{sum(r['result']['attempted'] for r in g)}" for g in groups)
        print(f"{workload} trace={trace}: {head}")
        names = [n for n in metrics if any(n in r["result"]["metrics"] for g in groups for r in g)]
        for name in names:
            cols = []
            meds = []
            for g in groups:
                vals = [r["result"]["metrics"][name]["value"] for r in g
                        if name in r["result"]["metrics"]]
                if not vals:
                    cols.append(f"{'-':>28}")
                    meds.append(None)
                    continue
                med, spread = stats(vals)
                meds.append(med)
                cols.append(f"{med:14.6g} spread {spread:6.1%}")
            line = f"  {name:36s} {metrics[name]['unit']:>10s} " + " ".join(cols)
            if len(groups) == 2 and None not in meds and meds[0]:
                worse = (meds[1] - meds[0]) / meds[0]
                if metrics[name]["better"] == "higher":
                    worse = -worse
                bound = metrics[name].get("bound")
                line += f"  worse by {worse:+.1%}"
                if bound is not None:
                    line += f" (bound {bound:.0%}{', EXCEEDED' if worse > bound else ''})"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
