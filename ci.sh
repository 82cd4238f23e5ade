#!/bin/sh
# Repository CI: tier-1 verification plus lints. Fails on the first error.
#
#   ./ci.sh
#
# Tier-1 (the gate every change must keep green, see ROADMAP.md):
#   cargo build --release && cargo test -q
# plus the full workspace test suite and clippy with warnings denied.
set -eu
cd "$(dirname "$0")"

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== workspace tests =="
cargo test -q --workspace

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== crash recovery (SIGKILL + resume) =="
# Kill -9 the CLI mid-analysis, resume from the atomic autosave, and
# require the exact verdict and TE/GE/RE/SA totals of an uninterrupted
# run; plus the library-level disk-resume and corruption-matrix suites.
cargo test -q -p tango-cli --test crash_recovery
cargo test -q --test crash_recovery --test checkpoint_codec

echo "== checkpoint-info round-trip smoke =="
# Stop a real analysis on a transition limit, autosave the checkpoint,
# verify the file with checkpoint-info, and resume it to the same verdict
# an unlimited run produces.
CKPT_DIR=$(mktemp -d)
trap 'rm -rf "$CKPT_DIR"' EXIT
printf 'in U.tconreq\nin L.cc_ind\nin U.tdatreq(0)\nin U.tdatreq(1)\nin U.tdatreq(2)\nin U.tdisreq\n' \
    > "$CKPT_DIR/script.txt"
cargo run -q --release -p tango-cli -- generate specs/tp0.est "$CKPT_DIR/script.txt" \
    > "$CKPT_DIR/trace.txt"
cargo run -q --release -p tango-cli -- analyze specs/tp0.est "$CKPT_DIR/trace.txt" \
    --max-transitions 5 --checkpoint-file "$CKPT_DIR/run.ckpt" \
    && { echo "expected an inconclusive (exit 2) stop"; exit 1; } || [ "$?" -eq 2 ]
cargo run -q --release -p tango-cli -- checkpoint-info "$CKPT_DIR/run.ckpt"
cargo run -q --release -p tango-cli -- analyze specs/tp0.est --resume "$CKPT_DIR/run.ckpt"

echo "== telemetry smoke (trace/metrics/progress) =="
# Run a short analysis with the full telemetry surface on: the JSONL
# event stream and the metrics document must both validate with the
# dependency-free checker, and the live reporter must print at least the
# forced final heartbeat on stderr.
cargo run -q --release -p tango-cli -- analyze specs/tp0.est "$CKPT_DIR/trace.txt" \
    --trace-out "$CKPT_DIR/events.jsonl" --metrics-out "$CKPT_DIR/metrics.json" \
    --progress 1 2> "$CKPT_DIR/progress.txt"
cargo run -q --release -p bench --bin json_check -- --jsonl "$CKPT_DIR/events.jsonl"
cargo run -q --release -p bench --bin json_check -- "$CKPT_DIR/metrics.json"
grep -q "progress: TE=" "$CKPT_DIR/progress.txt"
grep -q '"ev":"verdict"' "$CKPT_DIR/events.jsonl"
grep -q '"schema": "tango-metrics"' "$CKPT_DIR/metrics.json"

echo "== spill tiering smoke =="
# All-RAM vs spilled-to-disk run of the same analysis: the tier changes
# where bytes live, never what the search decides, so the verdict and
# the TE/GE/RE/SA counters must come out identical. The library-level
# equivalence and segment corruption-matrix suites run first.
cargo test -q --test spill_equivalence --test spill_codec
cargo run -q --release -p tango-cli -- analyze specs/tp0.est "$CKPT_DIR/trace.txt" \
    > "$CKPT_DIR/all-ram.txt"
cargo run -q --release -p tango-cli -- analyze specs/tp0.est "$CKPT_DIR/trace.txt" \
    --max-mem 256 --spill on --spill-dir "$CKPT_DIR/spill" > "$CKPT_DIR/spilled.txt"
verdict_and_counters() {
    sed -n 's/.*verdict: \([a-z]*\).*\(TE=[0-9]* GE=[0-9]* RE=[0-9]* SA=[0-9]*\).*/\1 \2/p' "$1"
}
[ -n "$(verdict_and_counters "$CKPT_DIR/all-ram.txt")" ]
[ "$(verdict_and_counters "$CKPT_DIR/all-ram.txt")" = "$(verdict_and_counters "$CKPT_DIR/spilled.txt")" ]
ls "$CKPT_DIR/spill"/spill-*.seg > /dev/null
# An unusable spill directory (here: a regular file) must degrade to a
# typed inconclusive with the fault on stderr — exit 2, never a panic.
: > "$CKPT_DIR/not-a-dir"
cargo run -q --release -p tango-cli -- analyze specs/tp0.est "$CKPT_DIR/trace.txt" \
    --max-mem 256 --spill on --spill-dir "$CKPT_DIR/not-a-dir" \
    > "$CKPT_DIR/degraded.txt" 2> "$CKPT_DIR/degraded.err" \
    && { echo "expected a SpillFailure (exit 2) stop"; exit 1; } || [ "$?" -eq 2 ]
grep -q "SpillFailure" "$CKPT_DIR/degraded.txt"
grep -q "spill fault:" "$CKPT_DIR/degraded.err"

echo "== chaos smoke (seeded fault plans) =="
# The seeded chaos matrix (108 composed plans over 12 random specs, all
# three fault sites) and the combined-sites pin run with the workspace
# suite above; here the CLI surface gets its fixed-seed reproduction
# check: the same --chaos-seed replays the identical verdict and
# TE/GE/RE/SA, and the run echoes its full plan for log-line replay.
chaos_run() {
    cargo run -q --release -p tango-cli -- analyze specs/tp0.est "$CKPT_DIR/trace.txt" \
        --chaos-seed 5 > "$1" 2> "$2" || [ "$?" -le 2 ]
}
chaos_run "$CKPT_DIR/chaos-a.txt" "$CKPT_DIR/chaos-a.err"
chaos_run "$CKPT_DIR/chaos-b.txt" "$CKPT_DIR/chaos-b.err"
grep -q "chaos: plan=" "$CKPT_DIR/chaos-a.err"
[ -n "$(verdict_and_counters "$CKPT_DIR/chaos-a.txt")" ]
[ "$(verdict_and_counters "$CKPT_DIR/chaos-a.txt")" = "$(verdict_and_counters "$CKPT_DIR/chaos-b.txt")" ]

echo "== zero-cost-when-off gate =="
# Unarmed fault hooks must be invisible: an explicitly empty
# --fault-plan takes the exact same code path as a plain run and must
# produce the identical verdict and counters, and export no fault.*
# metrics series (clean runs keep their byte-identical telemetry
# shape). The throughput half of the gate is the tps_by_spec_size
# section below: the quick bench re-measures the hot path with the
# unarmed hooks compiled in, and --check fails if the auto column ever
# drops below the tree walker — within-noise against BENCH_tps.json.
cargo run -q --release -p tango-cli -- analyze specs/tp0.est "$CKPT_DIR/trace.txt" \
    --fault-plan "" --metrics-out "$CKPT_DIR/unarmed-metrics.json" > "$CKPT_DIR/unarmed.txt" \
    2> "$CKPT_DIR/unarmed.err"
[ "$(verdict_and_counters "$CKPT_DIR/all-ram.txt")" = "$(verdict_and_counters "$CKPT_DIR/unarmed.txt")" ]
if grep -q '"fault\.' "$CKPT_DIR/unarmed-metrics.json"; then
    echo "unarmed run exported fault.* metrics"; exit 1
fi
grep -q "chaos: plan=unarmed" "$CKPT_DIR/unarmed.err"

echo "== black box smoke (flight recorder / dump / dump-info) =="
# Any non-completed outcome writes a versioned post-mortem dump. The
# dump must verify and render both ways, with the JSONL form validating
# under the dependency-free checker; the library/CLI suites run first.
cargo test -q -p tango --test flight_recorder
cargo test -q -p tango-cli --test black_box
cargo run -q --release -p tango-cli -- analyze specs/tp0.est "$CKPT_DIR/trace.txt" \
    --max-transitions 5 --dump-file "$CKPT_DIR/pm.tangodump" 2> "$CKPT_DIR/dump.err" \
    && { echo "expected an inconclusive (exit 2) stop"; exit 1; } || [ "$?" -eq 2 ]
grep -q "post-mortem dump written" "$CKPT_DIR/dump.err"
cargo run -q --release -p tango-cli -- dump-info "$CKPT_DIR/pm.tangodump" \
    > "$CKPT_DIR/dump.txt"
grep -q "flight recorder:" "$CKPT_DIR/dump.txt"
cargo run -q --release -p tango-cli -- dump-info --jsonl "$CKPT_DIR/pm.tangodump" \
    > "$CKPT_DIR/dump.jsonl"
cargo run -q --release -p bench --bin json_check -- --jsonl "$CKPT_DIR/dump.jsonl"
grep -q '"schema":"tango-dump"' "$CKPT_DIR/dump.jsonl"

echo "== black box zero-cost gate (--flight-recorder off) =="
# Turning the recorder off must change nothing but the dump: identical
# verdict and TE/GE/RE/SA to the plain all-RAM run, and no dump file
# ever appears.
cargo run -q --release -p tango-cli -- analyze specs/tp0.est "$CKPT_DIR/trace.txt" \
    --flight-recorder=off --dump-file "$CKPT_DIR/off.tangodump" > "$CKPT_DIR/rec-off.txt"
[ "$(verdict_and_counters "$CKPT_DIR/all-ram.txt")" = "$(verdict_and_counters "$CKPT_DIR/rec-off.txt")" ]
[ ! -f "$CKPT_DIR/off.tangodump" ]

echo "== live introspection smoke (--listen + http-get) =="
# Follow a trace that never reaches its eof marker with a wall-clock
# limit and a live endpoint: fetch /status and /metrics mid-run with the
# shipped curl substitute and validate both documents; the TimeLimit
# stop must leave a verifiable post-mortem dump behind.
head -n 3 "$CKPT_DIR/trace.txt" > "$CKPT_DIR/partial.txt"
cargo run -q --release -p tango-cli -- online specs/tp0.est "$CKPT_DIR/partial.txt" \
    --max-seconds 10 --listen 127.0.0.1:0 --dump-file "$CKPT_DIR/online.tangodump" \
    > "$CKPT_DIR/online.txt" 2> "$CKPT_DIR/online.err" &
LISTEN_PID=$!
ADDR=""
for _ in $(seq 1 50); do
    ADDR=$(sed -n 's#^introspect: listening on http://\(.*\)/$#\1#p' "$CKPT_DIR/online.err")
    if [ -n "$ADDR" ]; then break; fi
    sleep 0.2
done
[ -n "$ADDR" ]
cargo run -q --release -p tango-cli -- http-get "$ADDR/status" > "$CKPT_DIR/status.json"
cargo run -q --release -p bench --bin json_check -- "$CKPT_DIR/status.json"
grep -q '"schema":"tango-status"' "$CKPT_DIR/status.json"
cargo run -q --release -p tango-cli -- http-get "$ADDR/metrics" > "$CKPT_DIR/live-metrics.json"
cargo run -q --release -p bench --bin json_check -- "$CKPT_DIR/live-metrics.json"
grep -q '"schema":"tango-metrics"' "$CKPT_DIR/live-metrics.json"
wait "$LISTEN_PID" && { echo "expected a TimeLimit (exit 2) stop"; exit 1; } || [ "$?" -eq 2 ]
grep -q "post-mortem dump written" "$CKPT_DIR/online.err"
cargo run -q --release -p tango-cli -- dump-info "$CKPT_DIR/online.tangodump" > /dev/null

echo "== multi-core MDFS smoke (work-stealing online search) =="
# The same on-line analysis at 1 and 4 workers must print the identical
# verdict/counter line on the heavyweight LAPD spec — the work-stealing
# schedule may never leak into the verdict or TE/GE/RE/SA. Then a
# 4-worker run stopped on a transition limit after eof must checkpoint a
# worker-split front that checkpoint-info can describe and that resumes
# at a different worker count to the uninterrupted totals; the library
# suite runs the full worker matrix first.
cargo test -q --test mdfs_parallel
printf 'in U.dl_est_req\nin L.ua\nin U.dl_data_req(0)\nin U.dl_data_req(1)\nin U.dl_data_req(2)\n' \
    > "$CKPT_DIR/lapd-script.txt"
cargo run -q --release -p tango-cli -- generate specs/lapd.est "$CKPT_DIR/lapd-script.txt" \
    > "$CKPT_DIR/lapd-trace.txt"
cargo run -q --release -p tango-cli -- online specs/lapd.est "$CKPT_DIR/lapd-trace.txt" \
    --workers 1 > "$CKPT_DIR/online-w1.txt"
cargo run -q --release -p tango-cli -- online specs/lapd.est "$CKPT_DIR/lapd-trace.txt" \
    --workers 4 > "$CKPT_DIR/online-w4.txt"
[ -n "$(verdict_and_counters "$CKPT_DIR/online-w1.txt")" ]
[ "$(verdict_and_counters "$CKPT_DIR/online-w1.txt")" = "$(verdict_and_counters "$CKPT_DIR/online-w4.txt")" ]
cargo run -q --release -p tango-cli -- online specs/lapd.est "$CKPT_DIR/lapd-trace.txt" \
    --workers 4 --max-transitions 5 --checkpoint-file "$CKPT_DIR/online.ckpt" \
    && { echo "expected an inconclusive (exit 2) stop"; exit 1; } || [ "$?" -eq 2 ]
cargo run -q --release -p tango-cli -- checkpoint-info "$CKPT_DIR/online.ckpt" \
    > "$CKPT_DIR/online-info.txt"
grep -q "mode: mdfs" "$CKPT_DIR/online-info.txt"
grep -q "workers at save: 4" "$CKPT_DIR/online-info.txt"
grep -q "worker 0: deque=" "$CKPT_DIR/online-info.txt"
cargo run -q --release -p tango-cli -- online specs/lapd.est --resume "$CKPT_DIR/online.ckpt" \
    --workers 2 > "$CKPT_DIR/online-resumed.txt"
[ "$(verdict_and_counters "$CKPT_DIR/online-w1.txt")" = "$(verdict_and_counters "$CKPT_DIR/online-resumed.txt")" ]
# One engine at every worker count: the one-worker run (worker 0 alone,
# on the calling thread) streams a well-formed event log and prints the
# same verdict/counter line as four workers on a valid TP0 trace.
cargo run -q --release -p tango-cli -- online specs/tp0.est "$CKPT_DIR/trace.txt" \
    --workers 1 --trace-out "$CKPT_DIR/online-w1.jsonl" > "$CKPT_DIR/tp0-online-w1.txt"
cargo run -q --release -p bench --bin json_check -- --jsonl "$CKPT_DIR/online-w1.jsonl"
grep -q '"ev":"verdict"' "$CKPT_DIR/online-w1.jsonl"
cargo run -q --release -p tango-cli -- online specs/tp0.est "$CKPT_DIR/trace.txt" \
    --workers 4 > "$CKPT_DIR/tp0-online-w4.txt"
grep -q "verdict: valid" "$CKPT_DIR/tp0-online-w1.txt"
[ "$(verdict_and_counters "$CKPT_DIR/tp0-online-w1.txt")" = "$(verdict_and_counters "$CKPT_DIR/tp0-online-w4.txt")" ]

echo "== exec A/B differential smoke =="
# Compiled VM vs. tree-walking interpreter must agree everywhere; the
# dedicated suite checks fireable sets, verdicts, counters, telemetry
# streams and profiler attribution across both executors, and the CLI
# must accept the flag end to end.
cargo test -q --test compiled_exec
cargo run -q --release -p tango-cli -- analyze specs/tp0.est "$CKPT_DIR/trace.txt" --exec=interp
cargo run -q --release -p tango-cli -- analyze specs/tp0.est "$CKPT_DIR/trace.txt" --exec=compiled
cargo run -q --release -p tango-cli -- analyze specs/tp0.est "$CKPT_DIR/trace.txt" --exec=auto

echo "== random-spec differential suite =="
# Seeded random specifications: interp vs compiled vs auto vs
# profile-guided programs must agree on fireable sets, verdicts and
# counters for every seed (ROADMAP item 4c seed).
cargo test -q --test differential_exec

echo "== PGO round-trip smoke =="
# Profile a run with --pgo-out, feed the file back with --pgo-in: the
# reordered program must reach the identical verdict line, and a profile
# from a different spec must be refused with a typed error.
cargo run -q --release -p tango-cli -- analyze specs/tp0.est "$CKPT_DIR/trace.txt" \
    --exec=compiled --pgo-out "$CKPT_DIR/tp0.pgo" > "$CKPT_DIR/pgo-first.txt"
grep -q "^tangopgo 1$" "$CKPT_DIR/tp0.pgo"
cargo run -q --release -p tango-cli -- analyze specs/tp0.est "$CKPT_DIR/trace.txt" \
    --exec=compiled --pgo-in "$CKPT_DIR/tp0.pgo" > "$CKPT_DIR/pgo-second.txt"
verdict_line() { grep "verdict:" "$1"; }
[ -n "$(verdict_line "$CKPT_DIR/pgo-first.txt")" ]
[ "$(verdict_line "$CKPT_DIR/pgo-first.txt")" = "$(verdict_line "$CKPT_DIR/pgo-second.txt")" ]
cargo run -q --release -p tango-cli -- analyze specs/lapd.est "$CKPT_DIR/trace.txt" \
    --pgo-in "$CKPT_DIR/tp0.pgo" 2> "$CKPT_DIR/pgo-refused.err" \
    && { echo "expected a spec-mismatch refusal"; exit 1; } || true
grep -q "recorded for spec" "$CKPT_DIR/pgo-refused.err"

echo "== generate_exec smoke (quick mode) =="
# A/B the bytecode VM against the reference interpreter on reduced
# workloads; the binary asserts identical verdicts and TE/GE/RE/SA per
# row, then overwrites BENCH_generate.json. Keep the committed
# full-size record; validate the quick one, then restore.
cp BENCH_generate.json BENCH_generate.json.orig
cargo run -q --release -p bench --bin generate_exec -- --quick
cargo run -q --release -p bench --bin generate_exec -- --check BENCH_generate.json
mv BENCH_generate.json.orig BENCH_generate.json
cargo run -q --release -p bench --bin generate_exec -- --check BENCH_generate.json

echo "== tps_by_spec_size smoke (quick mode) =="
# --check also gates auto selection: no recorded row may have
# speedup_auto_trans_per_sec < 1.0 — the default exec mode must never be
# slower than the tree walker.
cp BENCH_tps.json BENCH_tps.json.orig
cargo run -q --release -p bench --bin tps_by_spec_size -- --quick
cargo run -q --release -p bench --bin tps_by_spec_size -- --check BENCH_tps.json
mv BENCH_tps.json.orig BENCH_tps.json
cargo run -q --release -p bench --bin tps_by_spec_size -- --check BENCH_tps.json

echo "== snapshot_bench smoke (quick mode) =="
# A/B the snapshot store's pressure-free and budgeted (interning) save
# paths on reduced workloads; the binary itself asserts both produce
# identical verdicts and TE/GE/RE/SA counters, then overwrites
# BENCH_snapshots.json. Keep the committed full-size record; validate
# the quick one, then restore.
cp BENCH_snapshots.json BENCH_snapshots.json.orig
cargo run -q --release -p bench --bin snapshot_bench -- --quick
cargo run -q --release -p bench --bin snapshot_bench -- --check BENCH_snapshots.json
mv BENCH_snapshots.json.orig BENCH_snapshots.json
cargo run -q --release -p bench --bin snapshot_bench -- --check BENCH_snapshots.json

echo "== spill bench smoke (quick mode) =="
# Run the memory-tiering ladder on a reduced workload; the binary itself
# asserts every spilled row reproduces the all-RAM verdict and
# TE/GE/RE/SA and that the tightest budget without the tier still dies
# Inconclusive(MemoryLimit). Keep the committed full-size record;
# validate the quick one, then restore.
cp BENCH_spill.json BENCH_spill.json.orig
cargo run -q --release -p bench --bin spill -- --quick
cargo run -q --release -p bench --bin spill -- --check BENCH_spill.json
mv BENCH_spill.json.orig BENCH_spill.json
cargo run -q --release -p bench --bin spill -- --check BENCH_spill.json

echo "CI OK"
