#!/usr/bin/env python3
"""Runs every workload of the benchmark over several seeds, for compare.py.

    python3 perfbench/sweep.py --seeds 1-10 --out runs/change
    python3 perfbench/sweep.py --seeds 1-10 --out runs \\
        --checkout ../parent --checkout .

Each run is `python3 perfbench/run.py --workload W --seed S --seconds N
--trace 0 --out DIR` from the root of a checkout, with N the run_seconds of
the first checkout's BENCHMARK.json. With one checkout (default: the
current directory) results land in --out; with several, in
--out/<checkout index>, and the checkouts take turns going first from one
seed to the next, so parent and change runs alternate.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--out", required=True)
    ap.add_argument("--checkout", action="append", default=[])
    args = ap.parse_args()

    checkouts = [Path(c).resolve() for c in args.checkout] or [Path.cwd()]
    spec = json.loads((checkouts[0] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    out = Path(args.out).resolve()

    for i, seed in enumerate(args.seeds):
        order = list(range(len(checkouts)))
        if i % 2:
            order.reverse()
        for wl in workloads:
            for c in order:
                dest = out / str(c) if len(checkouts) > 1 else out
                cmd = [sys.executable, "perfbench/run.py", "--workload", wl,
                       "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", "0", "--out", str(dest)]
                proc = subprocess.run(cmd, cwd=checkouts[c], text=True,
                                      stdout=subprocess.PIPE)
                last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
                print(f"[{checkouts[c].name}] {wl} seed {seed}: "
                      f"exit {proc.returncode} {last[0]}", flush=True)
                if proc.returncode != 0:
                    sys.exit(1)


if __name__ == "__main__":
    main()
