#!/usr/bin/env python3
"""Spread and parent-vs-change verdicts for saved benchmark runs.

    python3 perfbench/compare.py RUNS            # spread of one set of runs
    python3 perfbench/compare.py PARENT CHANGE   # verdict per workload/metric

RUNS, PARENT and CHANGE are directories of result files written by run.py
(--out) or sweep.py. Only --trace 0 results are read. Bounds and the
direction of each metric come from BENCHMARK.json (--spec, default
./BENCHMARK.json).

One set: per workload and end-to-end metric, the median, quartiles and the
spread (q3 - q1) / median against the metric's bound.

Both print each workload's median host steal: the share of the VM's CPU
time the hypervisor gave to other guests while the runs went (steal_pct in
the run context). Every end-to-end metric moves with it.

Two sets: per workload and metric, each side's median and quartiles, the
pair win-count over seeds run on both sides (ties count for neither), and
a verdict:
  unresolved  the two sides' median steal differs by more than
              STEAL_GAP_PCT points, or the parent's spread is wider than
              the bound and not every change run beats every parent run
  regressed   the change's median is worse than the parent's by more than
              the bound
  improved    the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's quartile distance
  unchanged   otherwise
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

STEAL_GAP_PCT = 3.0


def load(directory):
    """{workload: {seed: {metric: value}}} of the trace-0 results, plus
    {workload: [steal_pct of each run]}."""
    runs, steal = {}, {}
    for path in sorted(Path(directory).glob("*.trace0.json")):
        doc = json.loads(path.read_text())
        ctx = doc["context"]
        values = {k: v["value"] for k, v in doc["result"]["metrics"].items()}
        runs.setdefault(ctx["workload"], {})[ctx["seed"]] = values
        steal.setdefault(ctx["workload"], []).append(ctx["steal_pct"])
    if not runs:
        sys.exit(f"compare: no *.trace0.json results in {directory}")
    return runs, steal


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def report_one(spec, runs, steal):
    ok = True
    print(f"{'workload':14} {'metric':16} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  status")
    for wl in spec["workloads"]:
        seeds = runs.get(wl["name"], {})
        if seeds:
            print(f"{wl['name']:14} median steal "
                  f"{statistics.median(steal[wl['name']]):.2f}%")
        for m in spec["end_to_end"]:
            vals = [v[m["name"]] for v in seeds.values() if m["name"] in v]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            if s <= m["bound"] / 3:
                status = "steady"
            elif s <= m["bound"]:
                status = "within bound"
            else:
                status = "TOO WIDE"
                ok = False
            print(f"{wl['name']:14} {m['name']:16} {len(vals):3d} "
                  f"{med:12.6g} {q1:12.6g} {q3:12.6g} {s:7.3f} "
                  f"{m['bound']:6.3f}  {status}")
    return ok


def verdict(metric, parent, change, pairs, steal_gap):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse = (cm - pm) / pm if lower else (pm - cm) / pm
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    wins = sum(1 for p, c in pairs if better(c, p))
    losses = sum(1 for p, c in pairs if better(p, c))
    all_better = all(better(c, p) for c in change for p in parent)
    if steal_gap > STEAL_GAP_PCT or (spread(parent) > bound
                                     and not all_better):
        v = "unresolved"
    elif worse > bound:
        v = "regressed"
    elif pairs and wins >= 0.9 * len(pairs) and abs(cm - pm) > (p3 - p1):
        v = "improved"
    else:
        v = "unchanged"
    return v, worse, wins, losses


def report_two(spec, parent_set, change_set):
    parent_runs, parent_steal = parent_set
    change_runs, change_steal = change_set
    regressed = False
    print(f"{'workload':14} {'metric':16} {'parent med [q1,q3]':>30} "
          f"{'change med [q1,q3]':>30} {'worse%':>7} {'win/loss':>8}  verdict")
    for wl in spec["workloads"]:
        ps = parent_runs.get(wl["name"], {})
        cs = change_runs.get(wl["name"], {})
        if not ps or not cs:
            print(f"{wl['name']:14} missing runs on one side")
            continue
        ps_steal = statistics.median(parent_steal[wl["name"]])
        cs_steal = statistics.median(change_steal[wl["name"]])
        gap = abs(cs_steal - ps_steal)
        print(f"{wl['name']:14} median steal: parent {ps_steal:.2f}%, "
              f"change {cs_steal:.2f}%" +
              (f" (differ by more than {STEAL_GAP_PCT:g} points)"
               if gap > STEAL_GAP_PCT else ""))
        for m in spec["end_to_end"]:
            name = m["name"]
            parent = [v[name] for v in ps.values()]
            change = [v[name] for v in cs.values()]
            pairs = [(ps[k][name], cs[k][name]) for k in ps if k in cs]
            v, worse, wins, losses = verdict(m, parent, change, pairs, gap)
            regressed |= v == "regressed"
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            print(f"{wl['name']:14} {name:16} "
                  f"{f'{pm:.5g} [{p1:.5g},{p3:.5g}]':>30} "
                  f"{f'{cm:.5g} [{c1:.5g},{c3:.5g}]':>30} "
                  f"{worse * 100:7.2f} {f'{wins}/{losses}':>8}  {v}")
    return not regressed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("runs", nargs="+", help="RUNS, or PARENT CHANGE")
    ap.add_argument("--spec", default="BENCHMARK.json")
    args = ap.parse_args()
    spec = json.loads(Path(args.spec).read_text())
    if len(args.runs) == 1:
        ok = report_one(spec, *load(args.runs[0]))
    elif len(args.runs) == 2:
        ok = report_two(spec, load(args.runs[0]), load(args.runs[1]))
    else:
        ap.error("give one directory, or a parent and a change directory")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
