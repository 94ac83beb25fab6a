#!/bin/sh
# Repository gate: formatting, lints, and the full test suite.
# Run from the workspace root before committing.
set -eux

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
cargo test --workspace -q
# Static verification: every built-in profile must lint clean — with
# the continuation loop's effect audit included — warnings promoted to
# errors (generation is seed-deterministic, so this is stable).
cargo run --release -- lint --all-profiles --effects --deny all

# Derived-effects + abstract-interpretation gate: the exhaustive
# resume-safety audit, plus SMC-freedom and stack-depth proofs for
# every profile image. --deny all promotes any foregone-continuation
# drift to an error.
cargo run --release -- verify --all-profiles --deny all

# Fault-campaign gate: an injected run must take its machine checks and
# still reconcile all three instruments exactly (nonzero exit otherwise).
cargo run --release -- inject --faults parity,sbi-timeout --seed 780 \
    --workload educational --instructions 20000 --warmup 5000 --report

cargo build --release
VAX780=target/release/vax780
CKPT_DIR=$(mktemp -d)
trap 'rm -rf "$CKPT_DIR"' EXIT

# Plan-file injection gate: a µPC-keyed trigger (the 5000th issue from
# micro-address 0) and a cycle-keyed one, from a `fault-plan v1` file.
# The armed machine runs the continuation loop, which must stop at the
# boundary where each fault is due: both faults fire at their pinned
# cycles and all three instruments reconcile exactly (exit 0).
printf 'fault-plan v1\nsbi-timeout @upc 0x0 hits 5000\ncache-parity @cycle 20000\n' \
    > "$CKPT_DIR/upc.plan"
"$VAX780" inject --fault-plan "$CKPT_DIR/upc.plan" --workload educational \
    --instructions 20000 --warmup 5000 --report > "$CKPT_DIR/inject-upc.txt"
grep -qx 'fired cache-parity @ cycle 76437' "$CKPT_DIR/inject-upc.txt"
grep -qx 'fired sbi-timeout @ cycle 110467' "$CKPT_DIR/inject-upc.txt"

# Checkpoint/resume gate: `run --checkpoint` is "enqueue, then drain"
# over a queue journal. Settle two of the composite's five jobs through
# the queue first (a campaign killed after two jobs), finish the
# campaign with `run --checkpoint` on the same journal, and require the
# exact numbers of an uninterrupted campaign and all five jobs done.
"$VAX780" run --workload all --instructions 5000 --warmup 1500 \
    > "$CKPT_DIR/uninterrupted.txt"
"$VAX780" enqueue --queue "$CKPT_DIR/campaign.journal" \
    --spec "workload=timesharing-light instructions=5000 warmup=1500" \
    --spec "workload=sci-eng instructions=5000 warmup=1500"
"$VAX780" drain --queue "$CKPT_DIR/campaign.journal" --serial > /dev/null
"$VAX780" run --workload all --instructions 5000 --warmup 1500 \
    --checkpoint "$CKPT_DIR/campaign.journal" > "$CKPT_DIR/resumed.txt"
diff "$CKPT_DIR/uninterrupted.txt" "$CKPT_DIR/resumed.txt"
"$VAX780" status --queue "$CKPT_DIR/campaign.journal" \
    | grep -q 'pending 0 done 5 failed 0'

# Serve gate: the job queue must survive kill -9. Start a server, feed
# it a mixed batch (one fault-plan job included) over its socket,
# SIGKILL it mid-queue, then settle the same journal offline — the
# merged result JSONL must be byte-identical to an uninterrupted
# serial reference: zero lost, zero duplicated, bit-identical.
SERVE_SPECS="workload=timesharing-light instructions=500000 warmup=5000 seed=1
workload=sci-eng instructions=500000 warmup=5000 seed=2
workload=commercial instructions=500000 warmup=5000 seed=3 faults=cache-parity+sbi-timeout fault-seed=780 fault-count=2
workload=educational instructions=2000000 warmup=5000 seed=4
workload=timesharing-heavy instructions=3000000 warmup=5000 seed=5"
echo "$SERVE_SPECS" | while IFS= read -r spec; do
    "$VAX780" enqueue --queue "$CKPT_DIR/reference.journal" --spec "$spec"
done
"$VAX780" drain --queue "$CKPT_DIR/reference.journal" --serial \
    --out "$CKPT_DIR/reference.jsonl"
"$VAX780" serve --queue "$CKPT_DIR/live.journal" \
    --socket "$CKPT_DIR/sock" --jobs 2 &
SERVE_PID=$!
echo "$SERVE_SPECS" | while IFS= read -r spec; do
    "$VAX780" enqueue --socket "$CKPT_DIR/sock" --spec "$spec"
done
# Wait for the first settled job, then kill -9 mid-queue.
while ! grep -q '^complete ' "$CKPT_DIR/live.journal" 2>/dev/null; do
    sleep 0.05
done
kill -9 "$SERVE_PID"
wait "$SERVE_PID" || true
# The kill must have left unsettled work behind, or the gate proves
# nothing.
SETTLED=$(grep -c -e '^complete ' -e '^fail ' "$CKPT_DIR/live.journal")
test "$SETTLED" -lt 5
# Restart the queue offline; the merge must match the reference bit
# for bit.
"$VAX780" drain --queue "$CKPT_DIR/live.journal" --jobs 2 \
    --out "$CKPT_DIR/merged.jsonl"
diff "$CKPT_DIR/reference.jsonl" "$CKPT_DIR/merged.jsonl"
test "$(wc -l < "$CKPT_DIR/merged.jsonl")" -eq 5

# Compaction gate: fold settled records into the v2 snapshot segment
# mid-campaign (over the socket, with auto-compaction armed), kill -9
# the server, compact the crash survivor again offline, and resume —
# the merged results must still match the reference bit for bit.
"$VAX780" serve --queue "$CKPT_DIR/compact.journal" \
    --socket "$CKPT_DIR/csock" --jobs 2 --compact-every 2 &
SERVE_PID=$!
echo "$SERVE_SPECS" | while IFS= read -r spec; do
    "$VAX780" enqueue --socket "$CKPT_DIR/csock" --spec "$spec"
done
while ! grep -q '^complete ' "$CKPT_DIR/compact.journal" 2>/dev/null; do
    sleep 0.05
done
"$VAX780" compact --socket "$CKPT_DIR/csock"
kill -9 "$SERVE_PID"
wait "$SERVE_PID" || true
# The snapshot segment exists and carries the v2 header.
test -s "$CKPT_DIR/compact.journal.snap"
grep -q '^vax-queue-snapshot v2 ' "$CKPT_DIR/compact.journal.snap"
# Offline compaction of the crash survivor must be safe too.
"$VAX780" compact --queue "$CKPT_DIR/compact.journal"
"$VAX780" drain --queue "$CKPT_DIR/compact.journal" --jobs 2 \
    --out "$CKPT_DIR/compacted.jsonl"
diff "$CKPT_DIR/reference.jsonl" "$CKPT_DIR/compacted.jsonl"

# Remote-worker gate: a server with zero local workers on TCP, one
# `vax780 worker` process settling the queue over the claim protocol.
# The streamed results — digests included — must be byte-identical to
# the in-process reference.
"$VAX780" serve --queue "$CKPT_DIR/remote.journal" \
    --socket tcp:127.0.0.1:17780 --jobs 0 &
SERVE_PID=$!
echo "$SERVE_SPECS" | while IFS= read -r spec; do
    "$VAX780" enqueue --socket tcp:127.0.0.1:17780 --spec "$spec"
done
"$VAX780" worker --connect tcp:127.0.0.1:17780 &
WORKER_PID=$!
"$VAX780" drain --socket tcp:127.0.0.1:17780 --out "$CKPT_DIR/remote.jsonl"
wait "$SERVE_PID"
wait "$WORKER_PID"
diff "$CKPT_DIR/reference.jsonl" "$CKPT_DIR/remote.jsonl"

# Self-characterization gate: the full probe campaign — every opcode x
# addressing-mode pair the five profiles execute, plus the per-mode
# reference carriers — must measure, reconcile all three instruments
# exactly, and agree with the static latency model everywhere except
# the refinements recorded (with evidence) in PROBE_ALLOW.txt. Stale
# allowlist entries are warnings, promoted to errors here by --deny all.
cargo run --release -- probe --allowlist PROBE_ALLOW.txt --deny all \
    --out "$CKPT_DIR/probe-tables.txt"
# The artifact must round-trip and carry its provenance stamps.
test -s "$CKPT_DIR/probe-tables.txt"
grep -q '^vax-probe-tables v1$' "$CKPT_DIR/probe-tables.txt"
grep -q '^meta cpu-model ' "$CKPT_DIR/probe-tables.txt"
grep -q '^end$' "$CKPT_DIR/probe-tables.txt"

# Simulator benchmark gate (the host-loop trajectory): run the naive
# reference loop against the default loop and fail on ANY instrument
# divergence between them: bit-identical histograms, hardware counters,
# and trace streams, plus proof that the default loop actually engaged
# (continued instructions), or nonzero exit. Sizes are pinned smaller
# than the committed BENCH_19.json (which is regenerated at the default
# spec) so the gate stays fast; the equivalence machinery exercised is
# identical.
cargo run --release -- bench --instructions 200000 --trace-instructions 10000 \
    --warmup 10000 --repeat 2 --json "$CKPT_DIR/BENCH_ci.json"

# Unknown options must be rejected instead of silently benchmarking
# the defaults (--tier itself is retired, so this is the unknown-option
# path).
if cargo run --release -- bench --tier warp > /dev/null 2>&1; then
    echo "bench accepted an unknown option" >&2
    exit 1
fi

# Repository-benchmark correctness gate: hostbench (its own workspace,
# not built by the steps above) must still build against the library
# crates' public API and reproduce its pinned per-job digests
# (hostbench/pinned.txt). A one-second run of each workload checks
# both; hostbench exits 1 on a wrong simulated output, and the last
# line of its output must report "correct": true. `faulted`'s pins are
# the armed continuation loop's bit-identity check at benchmark scale.
for W in characterize campaign faulted; do
    cargo run --release --quiet --offline --manifest-path hostbench/Cargo.toml -- \
        --workload "$W" --seed 1 --seconds 1 --trace 0 > "$CKPT_DIR/hostbench-$W.txt"
    tail -n 1 "$CKPT_DIR/hostbench-$W.txt" | grep -q '"correct": true'
done
