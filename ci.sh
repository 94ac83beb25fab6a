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

# Sweep gate: a sweep is a campaign of one job per point x workload on
# the same engine. One worker and two print the same table, the
# unified-TB point (`tb-split=0`) is among its rows, and the private
# journal directories `sweep` and `run` make under TMPDIR are gone when
# they exit.
mkdir "$CKPT_DIR/tmp"
TMPDIR="$CKPT_DIR/tmp" "$VAX780" sweep --workload educational --instructions 5000 \
    --warmup 1500 --axis tb-split --axis write-buffer --serial > "$CKPT_DIR/sweep-serial.txt"
TMPDIR="$CKPT_DIR/tmp" "$VAX780" sweep --workload educational --instructions 5000 \
    --warmup 1500 --axis tb-split --axis write-buffer --jobs 2 > "$CKPT_DIR/sweep-jobs2.txt"
diff "$CKPT_DIR/sweep-serial.txt" "$CKPT_DIR/sweep-jobs2.txt"
grep -q '^tb-unified ' "$CKPT_DIR/sweep-serial.txt"
TMPDIR="$CKPT_DIR/tmp" "$VAX780" run --workload all --instructions 5000 \
    --warmup 1500 > /dev/null
test -z "$(ls -A "$CKPT_DIR/tmp")"

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

# Compaction gate: compact the journal's settled jobs mid-campaign
# (over the socket, with auto-compaction armed), kill -9 the server,
# compact the crash survivor again offline, and resume — the merged
# results must still match the reference bit for bit.
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
# The journal is one file: its v3 header counts at least one compacted
# job, and no sibling (`.snap`, `.tmp`) is left beside it.
head -n 1 "$CKPT_DIR/compact.journal" \
    | grep -q '^vax-queue-journal v3 next [0-9]* settled [1-9]'
for sibling in "$CKPT_DIR"/compact.journal.*; do
    test ! -e "$sibling"
done
# Offline compaction of the crash survivor must be safe too.
"$VAX780" compact --queue "$CKPT_DIR/compact.journal"
"$VAX780" drain --queue "$CKPT_DIR/compact.journal" --jobs 2 \
    --out "$CKPT_DIR/compacted.jsonl"
diff "$CKPT_DIR/reference.jsonl" "$CKPT_DIR/compacted.jsonl"
# An offline reader of a journal that does not exist fails and creates
# nothing.
if "$VAX780" status --queue "$CKPT_DIR/missing.journal" 2> /dev/null; then
    echo "status --queue accepted a missing journal" >&2
    exit 1
fi
test ! -e "$CKPT_DIR/missing.journal"

# Remote-worker gate: a server with zero local workers on TCP, one
# `vax780 worker` process settling the queue over the claim protocol.
# One `enqueue` call sends the five specs as five requests on one
# kept-alive TCP connection; the serve and compaction gates above send
# one spec per process, so both client shapes stay gated. The streamed
# results — digests included — must be byte-identical to the
# in-process reference.
"$VAX780" serve --queue "$CKPT_DIR/remote.journal" \
    --socket tcp:127.0.0.1:17780 --jobs 0 &
SERVE_PID=$!
set --
while IFS= read -r spec; do
    set -- "$@" --spec "$spec"
done <<EOF
$SERVE_SPECS
EOF
"$VAX780" enqueue --socket tcp:127.0.0.1:17780 "$@" > "$CKPT_DIR/remote-enqueue.txt"
test "$(grep -c '^enqueued ' "$CKPT_DIR/remote-enqueue.txt")" -eq 5
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

# Request-path gate: one traced campaign run. A job server that sleeps
# on its request path shows up as hostbench's own per-layer
# `serve.wire_rtt_ms`, which must stay under 5 ms (the 20 ms accept poll
# it replaced read 20.3 ms). It is the median of 25 `status` requests
# from one client, which keeps its connection, so it times the
# handler's path; `status_round_trips_pay_no_sleep_floor` in the test
# suite times the accept path with a connection per request.
cargo run --release --quiet --offline --manifest-path hostbench/Cargo.toml -- \
    --workload campaign --seed 1 --seconds 1 --trace 1 > "$CKPT_DIR/hostbench-traced.txt"
tail -n 1 "$CKPT_DIR/hostbench-traced.txt" | grep -q '"correct": true'
RTT=$(tail -n 1 "$CKPT_DIR/hostbench-traced.txt" \
    | sed -n 's/.*"serve\.wire_rtt_ms": {"value": \([-+.0-9eE]*\).*/\1/p')
test -n "$RTT"
awk -v rtt="$RTT" 'BEGIN { exit !(rtt + 0 < 5) }'
