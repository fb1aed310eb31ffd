#!/usr/bin/env python3
"""One run of the end-to-end serving benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload tenant_fanout --seed 1 --seconds 40 --trace 0

Run from the root of a ripple checkout. Builds the harness (and the ripple
library, from this checkout's sources) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), writes the benchmark's model artifacts,
then runs the workload in its own process. --trace 0 prints the end-to-end
metrics of BENCHMARK.json, --trace 1 its per-layer metrics. The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Every result is also saved under --out (default <build>/results).
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

PARTS = 2  # timed processes per --trace 0 run, each measuring seconds/PARTS
# Extra cold-start processes; setup_s is the median over them and the timed
# processes. They run in PARTS + 1 groups, before, between and after the
# timed processes, so they sample the host across the whole run. Past the
# fewest, a group goes on until it has taken SETUP_PROBE_S of wall time: a
# cheap set-up gets many samples, the 100-tenant one (over 1 s each) the
# fewest.
SETUP_PROBES = (1, 6)  # fewest, most per group
SETUP_PROBE_S = 0.35
BUILD_TIMEOUT_S = 420  # each of configure and build
RUN_BUDGET_S = 170  # everything after the build; the harness is killed past it


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def call(cmd, deadline, cwd):
    """Runs a child to completion (killed at `deadline`); returns stdout."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=cwd, timeout=timeout, text=True,
                              stdout=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout:.0f}s: {' '.join(map(str, cmd))}")
    if proc.returncode != 0:
        fail(f"exit code {proc.returncode}: {' '.join(map(str, cmd))}")
    return proc.stdout


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        fail("harness printed nothing")
    return json.loads(lines[-1])


def combine(parts):
    """End-to-end metrics over the timed processes of one run."""
    raw = dict(parts[0])
    total = lambda key: sum(p[key] for p in parts)
    for key in parts[0]:
        if key.startswith("loadgen.") and key.endswith(
                (".sent", ".succeeded", ".failed")):
            raw[key] = total(key)
    sent, ok = total("loadgen.timed.sent"), total("loadgen.timed.succeeded")
    raw["latency_p50_ms"] = statistics.median(
        [w for p in parts for w in p["windows.p50_ms"]])
    raw["latency_p90_ms"] = statistics.median(p["timed.p90_ms"] for p in parts)
    raw["latency_p99_ms"] = statistics.median(p["timed.p99_ms"] for p in parts)
    raw["latency_samples"] = ok
    raw["throughput_rps"] = ok / total("timed.seconds")
    raw["slo_met_ratio"] = total("timed.slo_met") / sent
    raw["failed_ratio"] = total("loadgen.timed.failed") / sent
    raw["rss_mb"] = statistics.median([p["rss_mb"] for p in parts])
    raw["first_error"] = next(
        (p["first_error"] for p in parts if p["first_error"]), "")
    return raw


def build(root, build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B",
                        str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
                       cwd=root, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "ripple_perfbench", "-j", str(os.cpu_count() or 1)],
                   cwd=root, check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return build_dir / "ripple_perfbench"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    try:
        fields = [int(x) for x in
                  Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
        return fields[7] if len(fields) > 7 else 0, sum(fields)
    except (OSError, ValueError):
        return 0, 0


def steal_pct(before, after):
    """Share of CPU time stolen by the hypervisor between two cpu_ticks()."""
    return 100.0 * (after[0] - before[0]) / max(1, after[1] - before[1])


def timed(cmd, deadline, root):
    """One harness process, with the steal seen while it ran."""
    before = cpu_ticks()
    out = last_json(call(cmd, deadline, root))
    out["steal_pct"] = steal_pct(before, cpu_ticks())
    return out


def git_describe(root):
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty",
                              "--tags"], cwd=root, text=True, timeout=10,
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", help="results directory")
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src").is_dir() or not (root / "CMakeLists.txt").is_file():
        fail(f"{root} is not a ripple checkout (no src/ or CMakeLists.txt)")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = root / (os.environ.get("CARGO_TARGET_DIR") or
                        ".bench_build") / "perfbench"
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"build failed: {e}")
    artifacts = build_dir / "artifacts"
    artifacts.mkdir(parents=True, exist_ok=True)
    out_dir = Path(args.out) if args.out else build_dir / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"

    deadline = time.monotonic() + RUN_BUDGET_S
    call([binary, "prepare", "--artifacts", artifacts], deadline, root)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--artifacts", str(artifacts)]

    started = time.monotonic()
    ticks_before = cpu_ticks()
    chrome = out_dir / f"{args.workload}.seed{args.seed}.chrome.json"
    probes, parts = [], []
    if args.trace:
        parts.append(timed(
            [binary, "run", *common, "--seconds", str(args.seconds),
             "--trace", "1", "--chrome", str(chrome)], deadline, root))
        raw = dict(parts[0])
    else:
        def probe_group():
            probing, group = time.monotonic(), []
            while len(group) < SETUP_PROBES[0] or (
                    len(group) < SETUP_PROBES[1] and
                    time.monotonic() - probing < SETUP_PROBE_S):
                group.append(last_json(call([binary, "setup", *common],
                                            deadline, root)))
            return group

        for part in range(PARTS):
            probes += probe_group()
            parts.append(timed(
                [binary, "run", *common, "--part", str(part), "--seconds",
                 str(args.seconds / PARTS), "--trace", "0"], deadline, root))
        probes += probe_group()
        raw = combine(parts)

    setups = [p["setup_s"] for p in probes + parts]
    raw["setup_s"] = statistics.median(setups)
    mismatches = sum(p["mismatches"] for p in probes) + sum(
        p["check.mismatches"] for p in parts)
    setup_failed = sum(p["failed"] for p in probes) + sum(
        p["loadgen.setup.failed"] for p in parts)
    phases = ["timed", "traced"] if args.trace else ["timed"]
    attempted = int(sum(p[f"loadgen.{ph}.sent"]
                        for p in parts for ph in phases))
    failed = int(sum(p[f"loadgen.{ph}.failed"]
                     for p in parts for ph in phases))

    context = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
        "threadpool_size": raw["threadpool_size"],
        "gemm_kernel": raw["gemm_kernel"], "git": git_describe(root),
        "RIPPLE_THREADS": os.environ.get("RIPPLE_THREADS", "unset"),
        "RIPPLE_SIMD": os.environ.get("RIPPLE_SIMD", "unset"),
        "setup_s_samples": setups, "timed_processes": len(parts),
        "wall_s": round(time.monotonic() - started, 3),
        # CPU time the hypervisor gave to other guests during the run.
        "steal_pct": round(steal_pct(ticks_before, cpu_ticks()), 2),
        "timed_steal_pct": [round(p["steal_pct"], 2) for p in parts],
    }
    print("context: " + json.dumps(context))
    for phase in ["setup", "warmup", *phases]:
        print(f"phase {phase}: sent={raw[f'loadgen.{phase}.sent']:.0f} "
              f"succeeded={raw[f'loadgen.{phase}.succeeded']:.0f} "
              f"failed={raw[f'loadgen.{phase}.failed']:.0f}")
    if raw.get("first_error"):
        print(f"first failure: {raw['first_error']}")
    if args.trace:
        print(f"stage sum {raw['stage.sum_us']:.1f} us vs traced mean "
              f"request {raw['stage.request_us']:.1f} us (unaccounted "
              f"{raw['stage.request_us'] - raw['stage.sum_us']:.1f} us); "
              f"chrome trace: {chrome}")
    else:
        print(f"latency samples: {raw['latency_samples']:.0f}")
        for tail in ("latency_p90_ms", "latency_p99_ms"):
            print(f"{tail} = {raw[tail]:.6g} ms (not gated)")
        print(f"failed_ratio = {raw['failed_ratio']:.6g} ratio (not gated)")
        print(f"check.mismatches = {mismatches:.0f} count")

    metrics = {}
    for m in wanted:
        if m["name"] not in raw:
            fail(f"harness did not report {m['name']}")
        metrics[m["name"]] = {"value": raw[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {raw[m['name']]:.6g} {m['unit']}")
    result = {"correct": mismatches == 0 and setup_failed == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    (out_dir / f"{stem}.json").write_text(json.dumps(
        {"context": context, "raw": raw, "probes": probes,
         "result": result}, indent=1) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
