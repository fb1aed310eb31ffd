#!/usr/bin/env bash
# Builds the perf benchmarks in Release and records the JSON baselines the
# repo tracks across PRs:
#   BENCH_gemm.json — kernel micro-benchmarks (bench/perf_layers.cpp);
#                     compare BM_GemmNN vs BM_GemmRefNN for the packed
#                     micro-kernel speedup over the pre-optimization loops.
#   BENCH_mc.json   — Monte-Carlo inference throughput, wall clock
#                     (bench/perf_mc_inference.cpp); compare BM_Mc*Batched
#                     (session.mc_outputs) vs BM_Mc*Serial (its reference,
#                     mc_outputs_serial) at the same T. Each benchmark
#                     opens one graph-path session (compile off) in setup,
#                     so no row times session construction or plan
#                     compilation; the thread count is RIPPLE_THREADS
#                     (default: every core), so record nproc with it.
#   BENCH_serve.json— serving-layer overhead (bench/perf_serve.cpp);
#                     compare BM_SessionPredict* against the raw
#                     BM_RawMcForwardBatched* numbers (same session
#                     options, mc_outputs without aggregation),
#                     BM_CompiledVsGraph*/{T,1} (fused zero-alloc plans)
#                     against the same benchmark's /{T,0} graph baseline,
#                     BM_SessionPredictCrossbarTiled (64×64 tiles,
#                     bit-sliced columns, shared ADCs) against the
#                     monolithic BM_SessionPredictCrossbar baseline, and
#                     the integer-execution pairs — BM_SessionPredict{Lstm,}
#                     QuantInt8/8 vs the matching QuantSim/8 rows — for the
#                     kQuantInt8 backend's speedup on dense-heavy models
#                     (the acceptance target is ≥2× on the LSTM pair), and
#                     the tracing tax — BM_SessionPredictLstmSmallTraced/8
#                     (serve::trace enabled, 1-in-64 head sampling, live
#                     per-request context) vs the untraced
#                     BM_SessionPredictLstmSmall/8 — which must stay
#                     within 2% (docs/OBSERVABILITY.md).
#
# Usage: scripts/bench.sh [build-dir]   (default: build-bench)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-bench}"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" -j"$(nproc)" --target perf_layers perf_mc_inference perf_serve

min_time="${RIPPLE_BENCH_MIN_TIME:-0.5}"

"$build_dir/perf_layers" \
  --benchmark_min_time="$min_time" \
  --benchmark_out_format=json \
  --benchmark_out="$repo_root/BENCH_gemm.json"

"$build_dir/perf_mc_inference" \
  --benchmark_min_time="$min_time" \
  --benchmark_out_format=json \
  --benchmark_out="$repo_root/BENCH_mc.json"

"$build_dir/perf_serve" \
  --benchmark_min_time="$min_time" \
  --benchmark_out_format=json \
  --benchmark_out="$repo_root/BENCH_serve.json"

echo "wrote $repo_root/BENCH_gemm.json, $repo_root/BENCH_mc.json and $repo_root/BENCH_serve.json"
