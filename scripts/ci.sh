#!/usr/bin/env bash
# Static-analysis + sanitizer + cache + serve + perf CI for the tier-1
# test suite.
#
#   ./scripts/ci.sh [static|thread|address|undefined|cache|serve|advise|perf|repro|all]
#   (default: all)
#
# The static job runs FIRST and needs no test execution: it builds only the
# opm_analyze tool and runs one fail-fast scan of src/ tools/ bench/ tests/
# (docs/MODEL.md §15): four cross-file passes (lock-order cycles, protocol
# taxonomy exhaustiveness, metrics-name consistency, layering) and six
# per-file rules (seeded-RNG-only, thread ownership, canonical %a
# serialization, OPM_GUARDED_BY coverage, #pragma once, no std::endl).
# It then self-checks that one seeded fixture tree, holding a violation
# for each of six IDs, still trips the tool. When a
# clang++ with -Wthread-safety is available it also compiles the full tree
# with the thread-safety annotations promoted to errors, proving every
# lock acquisition at compile time; without clang the gate is skipped with
# a notice (GCC does not implement the analysis).
#
# Sanitizer jobs build the full test suite with -DOPM_SANITIZE=<mode> into
# their own build trees (build-tsan / build-asan / build-ubsan) and run
# ctest. TSan guards the work-stealing deques in util::ThreadPool;
# ASan+UBSan guard everything else; the standalone UBSan tree isolates UB
# findings from ASan's address-space noise. Any sanitizer report fails the
# ctest invocation (halt_on_error). Sanitizer jobs run with the result
# cache DISABLED (OPM_NO_CACHE=1): a cache hit would short-circuit the
# compute path the sanitizers exist to instrument.
#
# The cache job builds the plain tree, then asks `opm_advise --json` the
# same question twice against one fresh scratch cache dir — once cold,
# then from a new process warm from the .opmrec disk tier (the record's
# inode must survive, i.e. it was read, not recomputed and re-stored) —
# and diffs the outputs byte for byte. Warm output that differs in any
# byte fails CI. It then runs cache_effectiveness on both cached layers
# (serve sweep payloads and advise payloads). The sweeps themselves are
# not cached, so a cold-vs-warm diff of the table harnesses would prove
# nothing.
#
# The serve job exercises the serve tier end to end: the self-contained
# serve_loadgen gates (byte-identity vs offline, >= 4x request
# deduplication, structured overload rejections), the same gates against
# an external server over its Unix socket, a SIGTERM mid-load that must
# drain gracefully — exit 0, no orphaned socket file — and the sharded
# tier: two token-gated opm_serve shards on loopback TCP behind an
# opm_router, a zipf v2 load driven through the router (byte-identity
# gate vs the offline library), and a SIGTERM drain of the whole mesh.
#
# The advise job gates the tuning advisor (src/advise): the
# advise_accuracy harness must report >= 7/8 recommendations per paper
# platform confirmed-or-marginal by the measured sweeps, and the served
# {"type":"advise"} payload from a live 2-shard router must be
# byte-identical to the offline `opm_advise --json` output for the same
# question — the same byte-identity contract the sweep types carry.
#
# The perf job is the statistical perf contract (docs/MODEL.md §12): it
# builds Release, runs every bench harness in --quick mode (sampled
# measurement — warmup, repeats, per-iteration ns samples), and diffs the
# fresh BENCH_<name>.json against the committed baselines in the repo
# root with tools/opm_benchdiff. A metric fails only when its median
# moves beyond max(rel_floor, k·CV) in the harmful direction, so the gate
# tightens exactly as far as the measurement is stable; coverage is also
# gated both ways (a baseline metric gone from the harness, or a harness
# metric absent from the baseline, fails — regenerate the baseline with
# --update-baseline). Harness-internal gates still apply (sim
# behavior-identity + CV-adjusted speedup floor, sampled-sim speedup +
# <=1% extrapolation error, cache >= 10x disk-warm, serve
# dedup/byte-identity); BENCH_micro.json has
# no committed baseline and is schema-validated instead. The sanitizer
# jobs above keep instrumenting the reference-model path too: ctest runs
# test_sim_differential, which drives SetAssociativeCache and
# ReferenceMemorySystem alongside the flat core.
#
# The repro job gates the paper artifacts themselves: it runs one serial
# pass of the repository benchmark's repro-cold workload (every table,
# figure, ablation and validation harness, cache off) and requires every
# harness's stdout to hash to its entry in opmbench/digests.txt — the
# result line must read "correct": true with no failed operation. It
# builds its own Release tree (build-repro).
#
# Fail-fast: set -e aborts on the first failing job; the EXIT trap prints
# a summary of which jobs ran and where the run stopped.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
mode="${1:-all}"

declare -a job_status=()
ci_summary() {
  local rc=$?
  if [ "${#job_status[@]}" -gt 0 ]; then
    echo "ci: summary — ${job_status[*]}"
  fi
  return "$rc"
}
trap ci_summary EXIT

# Marks the job FAIL up front, runs it, then flips the mark to ok — so the
# EXIT-trap summary is truthful even when set -e aborts mid-job.
run_job() {
  local name="$1"; shift
  job_status+=("$name:FAIL")
  "$@"
  job_status[$(( ${#job_status[@]} - 1 ))]="$name:ok"
}

run_static() {
  local dir="build-static"
  echo "== [static] configure & build opm_analyze ($dir)"
  # Compile commands are exported so editor tooling / clang-tidy sessions
  # can piggyback on the CI configure.
  cmake -B "$root/$dir" -G Ninja -S "$root" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
  cmake --build "$root/$dir" --target opm_analyze
  echo "== [static] opm_analyze (docs/MODEL.md §15)"
  # Fail-fast: any finding not silenced by an inline
  # `// opm-lint: allow(<id>)` marker aborts the job here, before the
  # expensive sanitizer builds. Per-pass timing is printed by the tool.
  (cd "$root" && "$root/$dir/tools/opm_analyze" \
      src tools bench tests docs/MODEL.md scripts/ci.sh)
  echo "== [static] analyzer self-check (six seeded violations must be caught)"
  local fix="$root/$dir/analyze-selfcheck"
  rm -rf "$fix"
  mkdir -p "$fix/src/core" "$fix/src/serve" "$fix/src/util" "$fix/src/advise" "$fix/docs"
  # One seed per ID: a rand() call, a decimal %f in an advise payload (a
  # hex-float serialization path), an ABBA lock cycle, an undocumented
  # error kind, a one-edit metric typo, and a util → serve include.
  printf 'int f() { return rand(); }\n' > "$fix/src/core/bad.cpp"
  printf 'void f(char* b, double v) { std::snprintf(b, 32, "%%f", v); }\n' \
      > "$fix/src/advise/advise.cpp"
  printf 'void fa() { util::MutexLock a(mu_a); util::MutexLock b(mu_b); }\n' \
      > "$fix/src/core/a.cpp"
  printf 'void fb() { util::MutexLock b(mu_b); util::MutexLock a(mu_a); }\n' \
      > "$fix/src/core/b.cpp"
  printf 'void r() { err->category = "vanished"; }\n' > "$fix/src/serve/server.cpp"
  printf 'no such kind is documented here\n' > "$fix/docs/MODEL.md"
  printf 'void m() { counter("core.hits").add(1); counter("core.hitz").add(1); }\n' \
      > "$fix/src/core/m.cpp"
  printf '#include "serve/server.hpp"\n' > "$fix/src/util/u.cpp"
  local out
  if out=$(cd "$fix" && "$root/$dir/tools/opm_analyze" src docs/MODEL.md); then
    echo "ci: FAIL — opm_analyze exited 0 on seeded violations" >&2
    exit 1
  fi
  for id in rng float-print lock-order protocol metrics layering; do
    if ! grep -q "\[$id\]" <<< "$out"; then
      echo "ci: FAIL — seeded $id violation not caught; output:" >&2
      echo "$out" >&2
      exit 1
    fi
  done
  echo "   all six seeded violations caught (nonzero exit, file:line diagnostics)"
  if command -v clang++ > /dev/null 2>&1; then
    echo "== [static] clang -Wthread-safety -Werror full-tree compile"
    local tsdir="build-threadsafety"
    cmake -B "$root/$tsdir" -G Ninja -S "$root" \
          -DCMAKE_CXX_COMPILER=clang++ \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
    cmake --build "$root/$tsdir"
    echo "   thread-safety annotations prove clean under clang"
  else
    echo "== [static] clang++ not found — thread-safety compile gate skipped"
    echo "   (GCC has no -Wthread-safety; annotations compile as no-ops)"
  fi
}

run_one() {
  local sanitizer="$1" dir="$2"
  echo "== [$sanitizer] configure & build ($dir)"
  cmake -B "$root/$dir" -G Ninja -S "$root" -DOPM_SANITIZE="$sanitizer" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$root/$dir"
  echo "== [$sanitizer] ctest (result cache disabled)"
  OPM_NO_CACHE=1 \
  TSAN_OPTIONS="halt_on_error=1 history_size=7" \
  ASAN_OPTIONS="halt_on_error=1 detect_leaks=0" \
  UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
    ctest --test-dir "$root/$dir" --output-on-failure -j "$(nproc)"
}

run_cache() {
  local dir="build-cache"
  echo "== [cache] configure & build ($dir)"
  cmake -B "$root/$dir" -G Ninja -S "$root" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$root/$dir" --target opm_advise_cli cache_effectiveness
  local scratch="$root/$dir/ci-cache-scratch"
  rm -rf "$scratch"
  echo "== [cache] advise payload: cold vs disk-warm byte-for-byte diff"
  local advise=("$root/$dir/tools/opm_advise" --kernel spmv --platform knl-ddr --json
                --cache-dir="$scratch" --no-sweep-stats)
  "${advise[@]}" > "$root/$dir/advise.cold.out"
  local records=("$scratch"/*.opmrec)
  if [ "${#records[@]}" -ne 1 ] || [ ! -f "${records[0]}" ]; then
    echo "ci: FAIL — the cold advise run did not leave exactly one .opmrec record" >&2
    exit 1
  fi
  local inode
  inode=$(stat -c %i "${records[0]}")
  "${advise[@]}" > "$root/$dir/advise.warm.out"
  if ! cmp "$root/$dir/advise.cold.out" "$root/$dir/advise.warm.out"; then
    echo "ci: FAIL — disk-warm advise output differs from cold output" >&2
    exit 1
  fi
  if [ "$(stat -c %i "${records[0]}")" != "$inode" ]; then
    echo "ci: FAIL — the warm advise run re-stored its record instead of reading it" >&2
    exit 1
  fi
  echo "   opm_advise spmv knl-ddr: cold == disk-warm (record read, not recomputed)"
  echo "== [cache] effectiveness gate (>= 10x disk-warm speedup on both layers, bit-identical)"
  "$root/$dir/bench/cache_effectiveness" --cache-dir="$scratch" \
      --out="$root/$dir/BENCH_cache.json"
}

run_serve() {
  local dir="build-serve"
  echo "== [serve] configure & build ($dir)"
  cmake -B "$root/$dir" -G Ninja -S "$root" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$root/$dir" --target opm_serve opm_router serve_loadgen
  local scratch="$root/$dir/serve-ci-scratch"
  rm -rf "$scratch" "$scratch-ext"
  echo "== [serve] self-contained gates (byte-identity, coalescing, overload)"
  (cd "$root/$dir" && ./bench/serve_loadgen --cache-dir="$scratch")
  echo "== [serve] external server: duplicate-heavy load over the socket"
  local sock="$root/$dir/opm-serve-ci.sock"
  "$root/$dir/serve/opm_serve" --socket="$sock" --cache-dir="$scratch-ext" \
      --no-sweep-stats &
  local server_pid=$!
  for _ in $(seq 1 100); do [ -S "$sock" ] && break; sleep 0.1; done
  if ! [ -S "$sock" ]; then
    echo "ci: FAIL — opm_serve socket never appeared" >&2
    exit 1
  fi
  (cd "$root/$dir" && ./bench/serve_loadgen --socket="$sock")
  echo "== [serve] SIGTERM mid-load must drain cleanly"
  (cd "$root/$dir" && ./bench/serve_loadgen --socket="$sock" --tolerant --dup=8) &
  local load_pid=$!
  sleep 0.3
  kill -TERM "$server_pid"
  local server_rc=0
  wait "$server_pid" || server_rc=$?
  wait "$load_pid" || true  # tolerant: draining rejections and cut streams are expected
  if [ "$server_rc" -ne 0 ]; then
    echo "ci: FAIL — opm_serve exited $server_rc after SIGTERM (want 0)" >&2
    exit 1
  fi
  if [ -e "$sock" ]; then
    echo "ci: FAIL — orphaned socket file left after drain" >&2
    exit 1
  fi
  echo "   opm_serve drained: exit 0, socket removed"

  echo "== [serve] warm restart: a fresh server answers from the disk wire records"
  # Same --cache-dir as the cold run above, new process: every sweep
  # payload must come from the escaped .opmrec records on disk. Gate 2
  # counts cold computations and a warm start has none, so --tolerant
  # skips it; this run is held instead to gate 1, zero cache misses and
  # zero rejections or failures.
  "$root/$dir/serve/opm_serve" --socket="$sock" --cache-dir="$scratch-ext" \
      --no-sweep-stats &
  server_pid=$!
  for _ in $(seq 1 100); do [ -S "$sock" ] && break; sleep 0.1; done
  local warm
  warm=$(cd "$root/$dir" && ./bench/serve_loadgen --socket="$sock" --tolerant)
  echo "$warm"
  kill -TERM "$server_pid"
  wait "$server_pid"
  if ! grep -q '^gate 1 PASS' <<< "$warm"; then
    echo "ci: FAIL — warm restart served payloads that differ from offline" >&2
    exit 1
  fi
  if ! grep -q 'computed(misses) 0,' <<< "$warm"; then
    echo "ci: FAIL — warm restart recomputed sweeps its disk records should serve" >&2
    exit 1
  fi
  if ! grep -q ', rejected 0, failed 0 ' <<< "$warm"; then
    echo "ci: FAIL — warm restart rejected or failed requests" >&2
    exit 1
  fi
  echo "   warm restart: gate 1 PASS, 0 cache misses, no rejections or failures"

  echo "== [serve] sharded tier: 2 TCP shards + opm_router, zipf v2 load"
  local token="ci-serve-token" l2="$scratch-l2"
  local -a shard_pids=() shard_ports=()
  local i log port
  for i in 0 1; do
    log="$root/$dir/shard$i.log"
    "$root/$dir/serve/opm_serve" --listen=127.0.0.1:0 --token="$token" \
        --shard-id="$i" --shard-count=2 --cache-dir="$l2" \
        --cache-max-bytes=$((64 * 1024 * 1024)) --no-sweep-stats > "$log" 2>&1 &
    shard_pids+=($!)
    for _ in $(seq 1 100); do
      grep -q 'listening on' "$log" && break
      sleep 0.1
    done
    port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$log" | head -1)"
    if [ -z "$port" ]; then
      echo "ci: FAIL — shard $i never reported its port (see $log)" >&2
      exit 1
    fi
    shard_ports+=("$port")
    echo "   shard $i on 127.0.0.1:$port"
  done
  local router_log="$root/$dir/router.log"
  "$root/$dir/serve/opm_router" --listen=127.0.0.1:0 --token="$token" \
      --shards="127.0.0.1:${shard_ports[0]},127.0.0.1:${shard_ports[1]}" \
      > "$router_log" 2>&1 &
  local router_pid=$!
  for _ in $(seq 1 100); do
    grep -q 'listening on' "$router_log" && break
    sleep 0.1
  done
  local router_port
  router_port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$router_log" | head -1)"
  if [ -z "$router_port" ]; then
    echo "ci: FAIL — opm_router never reported its port (see $router_log)" >&2
    exit 1
  fi
  echo "   router on 127.0.0.1:$router_port -> shards ${shard_ports[*]}"
  (cd "$root/$dir" && ./bench/serve_loadgen --connect="127.0.0.1:$router_port" \
      --token="$token" --v2 --zipf --dup=6)
  echo "== [serve] SIGTERM drains the mesh (router first, then shards)"
  local rc=0
  kill -TERM "$router_pid"; wait "$router_pid" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "ci: FAIL — opm_router exited $rc after SIGTERM (want 0)" >&2
    exit 1
  fi
  for i in 0 1; do
    rc=0
    kill -TERM "${shard_pids[$i]}"; wait "${shard_pids[$i]}" || rc=$?
    if [ "$rc" -ne 0 ]; then
      echo "ci: FAIL — shard $i exited $rc after SIGTERM (want 0)" >&2
      exit 1
    fi
  done
  echo "   mesh drained: router + 2 shards all exit 0"
}

run_advise() {
  local dir="build-advise"
  echo "== [advise] configure & build ($dir)"
  cmake -B "$root/$dir" -G Ninja -S "$root" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$root/$dir" --target advise_accuracy opm_advise_cli opm_serve opm_router
  local scratch="$root/$dir/advise-ci-scratch"
  rm -rf "$scratch" "$scratch-cli"
  echo "== [advise] accuracy gate (>= 7/8 confirmed-or-marginal per platform)"
  (cd "$root/$dir" && ./bench/advise_accuracy --quick --cache-dir="$scratch" \
      --no-sweep-stats --out="$root/$dir/BENCH_advise.json")

  echo "== [advise] e2e: served payload vs offline --json (2 shards + router)"
  local token="ci-advise-token"
  local -a shard_pids=() shard_ports=()
  local i log port
  for i in 0 1; do
    log="$root/$dir/advise-shard$i.log"
    "$root/$dir/serve/opm_serve" --listen=127.0.0.1:0 --token="$token" \
        --shard-id="$i" --shard-count=2 --cache-dir="$scratch" \
        --no-sweep-stats > "$log" 2>&1 &
    shard_pids+=($!)
    for _ in $(seq 1 100); do
      grep -q 'listening on' "$log" && break
      sleep 0.1
    done
    port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$log" | head -1)"
    if [ -z "$port" ]; then
      echo "ci: FAIL — advise shard $i never reported its port (see $log)" >&2
      exit 1
    fi
    shard_ports+=("$port")
    echo "   shard $i on 127.0.0.1:$port"
  done
  local router_log="$root/$dir/advise-router.log"
  "$root/$dir/serve/opm_router" --listen=127.0.0.1:0 --token="$token" \
      --shards="127.0.0.1:${shard_ports[0]},127.0.0.1:${shard_ports[1]}" \
      > "$router_log" 2>&1 &
  local router_pid=$!
  for _ in $(seq 1 100); do
    grep -q 'listening on' "$router_log" && break
    sleep 0.1
  done
  local router_port
  router_port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$router_log" | head -1)"
  if [ -z "$router_port" ]; then
    echo "ci: FAIL — opm_router never reported its port (see $router_log)" >&2
    exit 1
  fi
  echo "   router on 127.0.0.1:$router_port -> shards ${shard_ports[*]}"
  local kernel
  for kernel in spmv gemm stream; do
    "$root/$dir/tools/opm_advise" --kernel "$kernel" --platform knl-ddr --json \
        --cache-dir="$scratch-cli" --no-sweep-stats \
        > "$root/$dir/advise-$kernel-offline.json"
    "$root/$dir/tools/opm_advise" --kernel "$kernel" --platform knl-ddr \
        --connect="127.0.0.1:$router_port" --token="$token" \
        > "$root/$dir/advise-$kernel-served.json"
    if ! cmp "$root/$dir/advise-$kernel-offline.json" \
             "$root/$dir/advise-$kernel-served.json"; then
      echo "ci: FAIL — served advise payload differs from offline --json ($kernel)" >&2
      exit 1
    fi
    echo "   $kernel: served == offline (byte-identical)"
  done
  echo "== [advise] SIGTERM drains the mesh (router first, then shards)"
  local rc=0
  kill -TERM "$router_pid"; wait "$router_pid" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "ci: FAIL — opm_router exited $rc after SIGTERM (want 0)" >&2
    exit 1
  fi
  for i in 0 1; do
    rc=0
    kill -TERM "${shard_pids[$i]}"; wait "${shard_pids[$i]}" || rc=$?
    if [ "$rc" -ne 0 ]; then
      echo "ci: FAIL — advise shard $i exited $rc after SIGTERM (want 0)" >&2
      exit 1
    fi
  done
  echo "   mesh drained: router + 2 shards all exit 0"
}

run_perf() {
  local dir="build-perf"
  echo "== [perf] configure & build Release ($dir)"
  cmake -B "$root/$dir" -G Ninja -S "$root" \
        -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build "$root/$dir" --target sim_hotpath sweep_engine cache_effectiveness \
        serve_loadgen advise_accuracy micro_bench opm_benchdiff
  local scratch="$root/$dir/perf-cache-scratch"
  rm -rf "$scratch"

  echo "== [perf] quick-mode sampled runs (BENCH_<name>.json artifacts in $dir)"
  # --sample fast arms the WindowSampler gates inside the harness: sampled
  # speedup >= 3x over the flat core AND extrapolated traffic within 1% of
  # the exact report, per platform config — on top of the trajectory diff.
  "$root/$dir/bench/sim_hotpath" --quick --sample fast --out="$root/$dir/BENCH_sim.json"
  "$root/$dir/bench/sweep_engine" --quick --out="$root/$dir/BENCH_sweep.json"
  "$root/$dir/bench/cache_effectiveness" --quick --cache-dir="$scratch" \
      --out="$root/$dir/BENCH_cache.json"
  (cd "$root/$dir" && ./bench/serve_loadgen --quick --cache-dir="$scratch-serve" \
      --out="$root/$dir/BENCH_serve.json")
  # Router scaling: in-process router over 1 vs 2 single-worker shards on
  # a zipf mix. The harness's own gate is hardware-aware (>= 1.7x with
  # >= 4 hardware threads, sanity floor 0.75x on the shared single-core
  # CI runner); the benchdiff below tracks the recorded trajectory either
  # way.
  (cd "$root/$dir" && ./bench/serve_loadgen --router-bench --quick \
      --rb-out="$root/$dir/BENCH_router.json")
  "$root/$dir/bench/advise_accuracy" --quick --cache-dir="$scratch-advise" \
      --no-sweep-stats --out="$root/$dir/BENCH_advise.json"

  echo "== [perf] trajectory diff vs committed baselines (CV-aware tolerance)"
  # The CI container is a single shared hardware thread: measured
  # run-to-run drift of quick-mode throughput medians is ~±25% even
  # back-to-back, more than the in-run CV predicts. The floor reflects
  # that reality; k·CV widens the band further for metrics that are noisy
  # within a run. A real regression (the harness tests inject 50%) still
  # clears both. Tighten on dedicated hardware.
  local tolerance=(--k=4 --rel-floor=0.30)
  local bench
  for bench in sim sweep cache serve router advise; do
    echo "-- opm_benchdiff BENCH_$bench.json"
    "$root/$dir/tools/opm_benchdiff" "${tolerance[@]}" "$root/BENCH_$bench.json" \
        "$root/$dir/BENCH_$bench.json"
  done

  echo "== [perf] micro_bench --quick (schema-validated, no committed baseline)"
  "$root/$dir/bench/micro_bench" --quick --out="$root/$dir/BENCH_micro.json"
  "$root/$dir/tools/opm_benchdiff" --validate "$root/$dir/BENCH_micro.json"
  echo "   baseline update: tools/opm_benchdiff --update-baseline BENCH_<x>.json <fresh>"
}

run_repro() {
  echo "== [repro] one repro-cold pass: harness stdout vs opmbench/digests.txt"
  local out
  out="$(cd "$root" && CARGO_TARGET_DIR="$root/build-repro" \
      python3 opmbench/run.py --workload repro-cold --seed 1 --seconds 1 --trace 0)"
  local result
  result="$(tail -n 1 <<< "$out")"
  if ! python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)' "$result"; then
    echo "ci: FAIL — repro-cold is not correct (a harness exited nonzero or its" \
         "output no longer matches opmbench/digests.txt): $result" >&2
    exit 1
  fi
  echo "   $result"
}

case "$mode" in
  static)    run_job static run_static ;;
  thread)    run_job thread run_one thread build-tsan ;;
  address)   run_job address run_one address build-asan ;;
  undefined) run_job undefined run_one undefined build-ubsan ;;
  cache)     run_job cache run_cache ;;
  serve)     run_job serve run_serve ;;
  advise)    run_job advise run_advise ;;
  perf)      run_job perf run_perf ;;
  repro)     run_job repro run_repro ;;
  all)       run_job static run_static
             run_job thread run_one thread build-tsan
             run_job address run_one address build-asan
             run_job undefined run_one undefined build-ubsan
             run_job cache run_cache
             run_job serve run_serve
             run_job advise run_advise
             run_job perf run_perf
             run_job repro run_repro ;;
  *) echo "usage: $0 [static|thread|address|undefined|cache|serve|advise|perf|repro|all]" >&2; exit 2 ;;
esac

echo "ci: suite(s) green"
