#!/usr/bin/env bash
# Tier-1 gate: formatting, static analysis, release build, tests.
# Mirrors .github/workflows/ci.yml so a green local run predicts green CI.
# Everything runs --offline: the workspace vendors its dependencies and
# must build without crates.io access.
set -euo pipefail

cd "$(dirname "$0")/.."

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all -- --check

step "xtask audit (ratcheted static analysis)"
cargo run -p xtask --offline -q -- audit

step "xtask analyze (concurrency soundness: unsafe inventory, atomics, lock order)"
cargo run -p xtask --offline -q -- analyze

step "xtask reach (panic reachability of the untrusted decode/serve surface)"
cargo run -p xtask --offline -q -- reach

step "xtask model (bounded exhaustive-interleaving checks of the lock-free protocols)"
# Fails on any counterexample, an uncaught seeded mutation, or a stale
# MODELS.md certificate; `--full` removes the schedule budgets (manual).
cargo run -p xtask --offline -q -- model

step "cargo build --release --offline"
cargo build --release --offline --workspace

step "cargo test --offline"
cargo test --offline --workspace -q

step "cargo test --release --offline (the profile the service ships with)"
# The bitwise and allocation gates must also hold with optimizations on
# and debug assertions (and with them the invariant checks) compiled out.
cargo test --release --offline --workspace -q

step "cargo test --offline (HICOND_THREADS=4, parallel engine path)"
HICOND_THREADS=4 cargo test --offline --workspace -q

step "cargo test --offline (HICOND_THREADS=4, observability recording on)"
# With telemetry on, the allocation gates also cover the engine's and the
# walk's recording paths (spans, counters, residual milestones).
HICOND_THREADS=4 HICOND_OBS=json cargo test --offline --workspace -q

step "schedule-perturbation stress (HICOND_THREADS=4, seeded jitter)"
HICOND_THREADS=4 cargo test --offline -q --test sched_stress --test obs_stress
HICOND_THREADS=4 HICOND_SCHED_JITTER=1 cargo test --offline -q --test determinism
# Serve lanes: the 4-lane protocol stress and the fault-hook test under
# jitter, then the TCP front end on the one-lane path.
HICOND_THREADS=4 HICOND_SCHED_JITTER=1 cargo test --offline -q -p hicond --lib serve::batch
HICOND_THREADS=1 cargo test --offline -q --test serve_concurrent
# Two lanes: a batch's thread budget depends on how many lanes are
# solving at checkout, so run the lanes and the TCP front end there too.
HICOND_THREADS=2 HICOND_SCHED_JITTER=3 cargo test --offline -q -p hicond --lib serve::batch
HICOND_THREADS=2 HICOND_SCHED_JITTER=3 cargo test --offline -q --test serve_concurrent

step "cargo build --examples"
cargo build --offline --examples

step "bench_suite --smoke (engine + workload smoke, JSON shape, kernel gates)"
# The kernel phase asserts blocked-vs-unblocked SpMV and fused-vs-unfused
# PCG bitwise equality before timing, so a passing run IS the divergence
# gate; the grep pins that the cycles-per-nnz table was actually emitted.
cargo run --release --offline -p hicond-bench --bin bench_suite -- --smoke --out target/bench_smoke.json
test -s target/bench_smoke.json
grep -q '"kernels"' target/bench_smoke.json
# The batched-solve phase gates every block column bitwise against its
# solo solve before timing; the grep pins that the k-sweep was emitted.
grep -q '"batch"' target/bench_smoke.json
# The walk ledger gates the fused apply_dot_into walk bitwise against
# apply_into and the chunked dot before timing; the grep pins that the
# per-level table was emitted.
grep -q '"walk_levels"' target/bench_smoke.json

step "artifact cache round-trip smoke (build -> corrupt -> reject -> rebuild -> solve; a multi-level grid)"
rm -rf target/cache_smoke && mkdir -p target/cache_smoke
printf '6 6\n0 1 1.0\n1 2 1.0\n2 3 1.0\n3 4 1.0\n4 5 1.0\n0 5 1.0\n' > target/cache_smoke/ring.txt
export HICOND_CACHE_DIR=target/cache_smoke/cache
# Capture output to a file before grepping: `cargo run | grep -q` would let
# grep close the pipe early and kill the binary with SIGPIPE under pipefail.
smoke_out=target/cache_smoke/out.txt
# First solve builds and publishes the artifact; second must load it.
cargo run --release --offline -q --bin hicond -- solve target/cache_smoke/ring.txt --demo --cached \
  > "$smoke_out" 2>&1
grep -q "built and cached" "$smoke_out"
cargo run --release --offline -q --bin hicond -- solve target/cache_smoke/ring.txt --demo --cached \
  > "$smoke_out" 2>&1
grep -q "loaded from cache" "$smoke_out"
cargo run --release --offline -q --bin hicond -- cache verify
# Corrupt one byte (the format-version field, which also breaks the header
# CRC): verify must reject it with a structured error, not a panic.
entry=$(ls target/cache_smoke/cache/*.hca)
printf '\xff' | dd of="$entry" conv=notrunc bs=1 seek=8 status=none
if cargo run --release --offline -q --bin hicond -- cache verify 2>/dev/null; then
  echo "corrupt cache entry was not rejected" >&2; exit 1
fi
# A cached solve degrades to a clean rebuild over the corrupt entry...
cargo run --release --offline -q --bin hicond -- solve target/cache_smoke/ring.txt --demo --cached \
  > "$smoke_out" 2>&1
grep -q "built and cached" "$smoke_out"
# ...after which the store verifies clean, loads, and serves solves.
cargo run --release --offline -q --bin hicond -- cache verify
printf '1 0 0 0 0 -1\nquit\n' | \
  cargo run --release --offline -q --bin hicond -- serve target/cache_smoke/ring.txt \
  > "$smoke_out"
grep -q "^ok " "$smoke_out"
# The ring's hierarchy is coarse-only. A 24x24 grid (n = 576, above the
# 200-vertex coarse size) has several levels, so the level-0 Laplacian the
# solver shares with its preconditioner goes through store and load too:
# build -> verify -> load, and the loaded solve must print what the built
# one did.
awk 'BEGIN { s = 24; print s * s, 2 * s * (s - 1)
  for (r = 0; r < s; r++) for (c = 0; c < s; c++) {
    v = r * s + c
    if (c + 1 < s) print v, v + 1, "1.0"
    if (r + 1 < s) print v, v + s, "1.0"
  } }' > target/cache_smoke/grid24.txt
export HICOND_CACHE_DIR=target/cache_smoke/grid_cache
cargo run --release --offline -q --bin hicond -- solve target/cache_smoke/grid24.txt --demo --cached \
  > "$smoke_out" 2>&1
grep -q "built and cached" "$smoke_out"
grep -v "^preconditioner " "$smoke_out" > target/cache_smoke/grid_built.txt
grep -q "^hierarchy levels: [2-9]" target/cache_smoke/grid_built.txt
cargo run --release --offline -q --bin hicond -- cache verify
cargo run --release --offline -q --bin hicond -- solve target/cache_smoke/grid24.txt --demo --cached \
  > "$smoke_out" 2>&1
grep -q "loaded from cache" "$smoke_out"
grep -v "^preconditioner " "$smoke_out" > target/cache_smoke/grid_loaded.txt
grep -q "^converged in " target/cache_smoke/grid_loaded.txt
cmp target/cache_smoke/grid_built.txt target/cache_smoke/grid_loaded.txt
# The same grid with CRLF line endings is the same graph: it hashes to the
# same cache key, so the solve loads the entry the LF file built and
# prints what the LF solve did.
sed 's/$/\r/' target/cache_smoke/grid24.txt > target/cache_smoke/grid24_crlf.txt
cargo run --release --offline -q --bin hicond -- solve target/cache_smoke/grid24_crlf.txt --demo --cached \
  > "$smoke_out" 2>&1
grep -q "loaded from cache" "$smoke_out"
grep -v "^preconditioner " "$smoke_out" > target/cache_smoke/grid_crlf.txt
cmp target/cache_smoke/grid_built.txt target/cache_smoke/grid_crlf.txt
unset HICOND_CACHE_DIR

step "telemetry smoke (metrics scrapes -> hicond top --check, forced panic black box)"
rm -rf target/telemetry_smoke && mkdir -p target/telemetry_smoke
printf '4 3\n0 1 1.0\n1 2 1.0\n2 3 1.0\n' > target/telemetry_smoke/path.txt
export HICOND_CACHE_DIR=target/telemetry_smoke/cache
tele_out=target/telemetry_smoke/out.txt
# Two solves with a metrics scrape after each; every scrape line must be
# JSON that `hicond top --check` accepts (counters, spans, flight events).
printf '1 -1 0 0\nmetrics\n0 1 -1 0\nstats\nmetrics\nquit\n' | \
  HICOND_OBS=json cargo run --release --offline -q --bin hicond -- serve target/telemetry_smoke/path.txt \
  > "$tele_out"
grep -q '^ok stats requests=2 errors=0 ' "$tele_out"
grep -c '^{' "$tele_out" | grep -qx '2'
grep '^{' "$tele_out" | cargo run --release --offline -q --bin hicond -- top --check
# A panicking process must ship a parseable one-line flight dump on stderr.
dump=target/telemetry_smoke/dump.txt
if HICOND_OBS=json cargo run --release --offline -q --bin hicond -- flight-panic \
  2> "$dump" >/dev/null; then
  echo "flight-panic did not panic" >&2; exit 1
fi
grep '^{"flight_recorder"' "$dump" | cargo run --release --offline -q --bin hicond -- top --check
unset HICOND_CACHE_DIR

step "concurrent serve smoke (TCP front end, parallel clients, batched stats scrape)"
rm -rf target/serve_smoke && mkdir -p target/serve_smoke
printf '6 6\n0 1 1.0\n1 2 1.0\n2 3 1.0\n3 4 1.0\n4 5 1.0\n0 5 1.0\n' > target/serve_smoke/ring.txt
serve_out=target/serve_smoke/server_out.txt
serve_err=target/serve_smoke/server_err.txt
# Ephemeral port; the server exits by itself after 4 connections. Size
# trigger 3 coalesces the three parallel clients when they are parsing
# at the same time; a batch waits (at most the 5 s window) only for a
# request still being parsed, so a client alone is answered at once.
HICOND_SERVE_BATCH=3 HICOND_SERVE_BATCH_WINDOW_MS=5000 HICOND_OBS=json \
  cargo run --release --offline -q --bin hicond -- serve target/serve_smoke/ring.txt \
  --listen 127.0.0.1:0 --conns 4 > "$serve_out" 2> "$serve_err" &
server_pid=$!
addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/^listening //p' "$serve_out")
  [ -n "$addr" ] && break
  sleep 0.1
done
test -n "$addr"
client_pids=""
for i in 1 2 3; do
  printf '1 0 0 0 0 -1\nquit\n' | \
    cargo run --release --offline -q --bin hicond -- client "$addr" \
    > "target/serve_smoke/client$i.txt" &
  client_pids="$client_pids $!"
done
for pid in $client_pids; do wait "$pid"; done
for i in 1 2 3; do
  grep -q '^ok ' "target/serve_smoke/client$i.txt"
done
# Final session: the shared stats must show all three solves, drained
# gauges, and a numeric batch quantile; the metrics scrape must be JSON
# that `hicond top --check` accepts.
meta_out=target/serve_smoke/meta.txt
printf 'stats\nmetrics\nquit\n' | \
  cargo run --release --offline -q --bin hicond -- client "$addr" > "$meta_out"
grep -q '^ok stats requests=3 errors=0 ' "$meta_out"
grep -q ' queue_depth=0 inflight=0 batch_p50=[0-9]' "$meta_out"
grep '^{' "$meta_out" | cargo run --release --offline -q --bin hicond -- top --check
wait "$server_pid"
grep -q '^served 4 connections, ' "$serve_err"
grep -q 'drained 0 queued request(s) at shutdown' "$serve_err"

step "all checks passed"
