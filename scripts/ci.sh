#!/usr/bin/env bash
# Tier-1 verification gate plus lint, smoke and JSON-schema checks.
# Fully offline: the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

tmpdir="$(mktemp -d -t rmt_ci.XXXXXX)"
serve_pid=""
trap '[ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null; rm -rf "$tmpdir"' EXIT

# Per-section wall-clock: `section NAME` closes the previous section with
# its elapsed time, so a CI time regression is attributable to a stage
# instead of hiding in the total.
_section=""
_section_start=$SECONDS
section() {
    local now=$SECONDS
    if [ -n "$_section" ]; then
        echo "  [section '${_section}' took $((now - _section_start))s]"
    fi
    _section="$1"
    _section_start=$now
    echo "== $1 =="
}

section "lint: rustfmt"
cargo fmt --check

section "lint: clippy (every workspace crate, tests included)"
cargo clippy --workspace --all-targets -- -D warnings

section "lint: rustdoc (no broken, private or ambiguous links)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

section "lint: file size (src/*.rs <= 700 lines)"
# Monoliths like the old 1257-line figures.rs must not silently regrow.
# No allowlist: every source file obeys the gate; split before exceeding.
oversize=0
while IFS= read -r f; do
    lines=$(wc -l < "$f")
    if [ "$lines" -gt 700 ]; then
        echo "error: $f has $lines lines (limit 700); split it" >&2
        oversize=1
    fi
done < <(find crates src -name '*.rs' -path '*/src/*' 2>/dev/null | sort)
[ "$oversize" -eq 0 ]

section "tier-1: build"
cargo build --release

section "tier-1: tests"
cargo test -q

section "usage: every binary refuses a bad command line and answers --help"
# One command-line layer (rmt_stats::cli): an unknown flag exits 2 with
# `error:` and the usage on stderr, and `--help` prints the usage and
# exits 0, for all ten binaries.
cargo build --release --workspace
usage_check() { # usage_check BIN ARGS...: ARGS end in an unknown flag
    local bin="$1" status=0
    shift
    "./target/release/$bin" "$@" > /dev/null 2> "$tmpdir/usage.err" || status=$?
    if [ "$status" -ne 2 ] || ! grep -q '^error: ' "$tmpdir/usage.err" \
        || ! grep -q 'usage:' "$tmpdir/usage.err"; then
        echo "error: '$bin $*' exited $status; want 2 with error: and the usage" >&2
        cat "$tmpdir/usage.err" >&2
        exit 1
    fi
    "./target/release/$bin" --help > "$tmpdir/usage.out"
    grep -q 'usage:' "$tmpdir/usage.out"
}
usage_check figure table1 --bogus
usage_check sampling_validation --bogus
usage_check fault_forensics --bogus
usage_check check_json --bogus
usage_check report --bogus
usage_check fuzz --bogus
usage_check guard_golden --bogus
usage_check rmt-serve --bogus
usage_check rmtc --server 127.0.0.1:1 health --bogus
usage_check rmt-cluster sweeps/slack_sq.json --bogus

section "smoke: parallel figure run (quick scale, 2 workers)"
cargo run --release -p rmt-bench --bin figure -- fig6_srt_single --quick --jobs 2

section "smoke: sampled figure run (quick scale, 2 workers), bitwise"
# The sampled path exercises checkpointing, functional fast-forward and
# warm replay end to end; a blow-up in any of them shows first as runtime,
# and any change to a sampled window shows in the committed document.
# The 32-window run pins the case whose checkpoint ladder keeps the most
# deltas (each checkpoint after a ladder's first is its change from the
# one before it).
sample_start=$SECONDS
cargo run --release -p rmt-bench --bin figure -- fig6_srt_single \
    --quick --jobs 2 --sample --json "$tmpdir/fig6_sampled.json"
cargo run --release -p rmt-bench --bin figure -- fig6_srt_single \
    --quick --jobs 2 --sample --set sample.windows=32 \
    --json "$tmpdir/fig6_sampled_w32.json" > /dev/null
sample_elapsed=$((SECONDS - sample_start))
echo "  [sampled smoke took ${sample_elapsed}s; budget 120s]"
if [ "$sample_elapsed" -gt 120 ]; then
    echo "error: sampled smoke exceeded its 120s wall-clock budget" >&2
    exit 1
fi
cargo run --release -p rmt-bench --bin check_json -- \
    --compare results/fig6_sampled_quick.json "$tmpdir/fig6_sampled.json"
cargo run --release -p rmt-bench --bin check_json -- \
    --compare results/fig6_sampled_quick_w32.json "$tmpdir/fig6_sampled_w32.json"

section "smoke: machine-readable results (--json round trip)"
cargo run --release -p rmt-bench --bin figure -- fig6_srt_single \
    --quick --jobs 2 --benches m88ksim,ijpeg --json "$tmpdir/fig6.json" > /dev/null
cargo run --release -p rmt-bench --bin check_json -- "$tmpdir/fig6.json"

section "golden: declarative sensitivity sweep must regenerate bitwise"
# The single-process front end runs the sweep through the same
# expand -> cells -> merge path as a fleet; the committed result document
# must come back byte for byte.
cargo run --release -p rmt-cluster --bin rmt-cluster -- sweeps/slack_sq.json \
    --local --standard --jobs 2 --result-out "$tmpdir/sensitivity.json" > /dev/null
if ! cmp results/sensitivity_slack_sq.json "$tmpdir/sensitivity.json"; then
    echo "error: results/sensitivity_slack_sq.json is stale; regenerate with:" >&2
    echo "  rmt-cluster sweeps/slack_sq.json --local --standard --jobs 2 --result-out results/sensitivity_slack_sq.json" >&2
    exit 1
fi

section "tests: every workspace crate"
# The root manifest is itself a package, so the tier-1 `cargo test -q`
# above tests only `rmt`; this reaches every member crate's unit and
# integration suites (serving, cluster, simulator, pipeline, ...).
cargo test --workspace --release -q
# A release build compiles `debug_assert!` out, so the pipeline's own
# invariant checks (the instruction queue's kept counts and what select
# settled, checked at the end of every `Core::tick`) run again in a debug
# build. The fault campaigns corrupt registers and store-queue entries and
# stick units: the events that must invalidate a held load's verdict.
cargo test -q -p rmt-pipeline -p rmt-core -p rmt-faults

section "smoke: rmt-serve round trip (miss simulates, repeat hits cache)"
# An ephemeral-port daemon driven through real sockets: the first
# submission simulates, the resubmission must be answered from the
# cache, and both payloads must be bitwise identical — to each other and
# to the figure binary's cell for the same machine. The memory tier is
# off, so every hit is a verified read of the disk entry.
cargo build --release -p rmt-serve
./target/release/rmt-serve --addr 127.0.0.1:0 --mem-cache 0 \
    --cache-dir "$tmpdir/serve-cache" --addr-file "$tmpdir/serve-addr" &
serve_pid=$!
for _ in $(seq 1 100); do [ -s "$tmpdir/serve-addr" ] && break; sleep 0.1; done
serve_addr="$(cat "$tmpdir/serve-addr")"
./target/release/rmtc --server "$serve_addr" submit requests/fig6_cell.json \
    --wait --result-out "$tmpdir/served1.json" --expect-miss
./target/release/rmtc --server "$serve_addr" submit requests/fig6_cell.json \
    --out "$tmpdir/hit_env.json" --result-out "$tmpdir/served2.json" --expect-hit
cmp "$tmpdir/served1.json" "$tmpdir/served2.json"
cargo run --release -p rmt-bench --bin figure -- fig6_srt_single \
    --quick --benches m88ksim --json "$tmpdir/fig6_cell.json" > /dev/null
cargo run --release -p rmt-bench --bin check_json -- \
    --serve-cell "$tmpdir/fig6_cell.json" m88ksim/SRT "$tmpdir/served1.json"
cargo run --release -p rmt-bench --bin check_json -- \
    --compare results/serve_roundtrip.json "$tmpdir/hit_env.json"
# Byte-flip chaos: a byte flipped in the middle of the cached entry must
# fail its checksum, never be served; the entry is moved aside and the
# resubmission simulates again, to the same bytes.
digest="$(sed -n 's/^  "digest": "\([0-9a-f]*\)",$/\1/p' "$tmpdir/hit_env.json")"
entry="$tmpdir/serve-cache/${digest:0:2}/$digest.json"
mid=$(( $(wc -c < "$entry") / 2 ))
byte="$(od -An -tu1 -j "$mid" -N1 "$entry" | tr -d ' ')"
printf '%b' "\\0$(printf '%o' $(( byte ^ 1 )))" \
    | dd of="$entry" bs=1 seek="$mid" conv=notrunc status=none
./target/release/rmtc --server "$serve_addr" submit requests/fig6_cell.json \
    --expect-miss --wait --result-out "$tmpdir/served3.json"
cmp "$tmpdir/served1.json" "$tmpdir/served3.json"
test -e "$entry.corrupt"
./target/release/rmtc --server "$serve_addr" shutdown > /dev/null
# The daemon blocks in `accept` and must wake itself to exit; a plain
# `wait` would hang if it never did, so give it 30 s and then fail.
for _ in $(seq 1 300); do kill -0 "$serve_pid" 2>/dev/null || break; sleep 0.1; done
if kill -0 "$serve_pid" 2>/dev/null; then
    echo "error: rmt-serve (pid $serve_pid) still running 30 s after shutdown" >&2
    exit 1
fi
wait "$serve_pid"
serve_pid=""

section "benchmark: build and test the out-of-workspace benchmark package"
# `benchmark/` depends on the workspace crates by path but is its own
# package, so neither tier-1 command above builds it; an API change in
# the crates could otherwise break it unnoticed. `--locked` fails the
# build when the workspace crates' dependency edges no longer match
# `benchmark/Cargo.lock`, which a change must then not rewrite silently.
cargo build --release --locked --manifest-path benchmark/Cargo.toml
cargo test -q --locked --manifest-path benchmark/Cargo.toml

section "smoke: rmt-cluster 2-worker sweep is bitwise identical to one process"
# The distributed-determinism contract, end to end over real processes:
# the same declarative sweep through a self-spawned 2-worker fleet must
# produce the byte-for-byte document of a single-process run (`cmp`),
# the full envelope must validate (every cell digest recomputes from its
# echoed request), and `check_json --compare` must agree — it ignores
# only `host` and `cluster`, the legitimately machine-varying sections.
cargo build --release -p rmt-cluster
./target/release/rmt-cluster sweeps/slack_sq.json --local --quick \
    --result-out "$tmpdir/cluster_local.json" > /dev/null
if ! ./target/release/rmt-cluster sweeps/slack_sq.json --spawn 2 --quick \
    --spawn-dir "$tmpdir/fleet2" --out "$tmpdir/cluster_env.json" \
    --result-out "$tmpdir/cluster2.json" > /dev/null; then
    echo "error: 2-worker cluster run failed; worker log tails:" >&2
    tail -n 20 "$tmpdir"/fleet2/*.log >&2 || true
    exit 1
fi
cmp "$tmpdir/cluster_local.json" "$tmpdir/cluster2.json"
cargo run --release -p rmt-bench --bin check_json -- "$tmpdir/cluster_env.json"
cargo run --release -p rmt-bench --bin check_json -- \
    --compare "$tmpdir/cluster_local.json" "$tmpdir/cluster2.json"

section "smoke: chaos — 3-worker fleet loses one mid-sweep, still bitwise"
# One worker is SIGKILLed (a deterministic victim: the seed is fixed)
# once a quarter of the cells are done; retry/steal must finish the grid
# on the survivors and the merged bytes must not change.
if ! ./target/release/rmt-cluster sweeps/slack_sq.json --spawn 3 \
    --chaos-kill 1 --quick --spawn-dir "$tmpdir/fleet3" \
    --result-out "$tmpdir/cluster3.json" > /dev/null; then
    echo "error: chaos cluster run failed; worker log tails:" >&2
    tail -n 20 "$tmpdir"/fleet3/*.log >&2 || true
    exit 1
fi
cmp "$tmpdir/cluster_local.json" "$tmpdir/cluster3.json"

section "schema: every committed figure document carries a valid config"
# check_json strictly validates the embedded MachineSpec (all six
# sections, no unknown keys) on every committed golden.
cargo run --release -p rmt-bench --bin check_json -- \
    results/fig6_srt_single.json results/fig6_epoch.json \
    results/fig6_sampled_quick.json results/fig6_sampled_quick_w32.json \
    results/fault_forensics.json results/sampling_validation.json \
    results/sensitivity_slack_sq.json results/serve_roundtrip.json \
    results/aggregate.json

section "golden: committed results must regenerate bitwise (sans host)"
cargo run --release -p rmt-bench --bin figure -- fig6_srt_single \
    --standard --json "$tmpdir/fig6_golden.json" > /dev/null
cargo run --release -p rmt-bench --bin check_json -- \
    --compare results/fig6_srt_single.json "$tmpdir/fig6_golden.json"
cargo run --release -p rmt-bench --bin figure -- aggregate \
    --standard --json "$tmpdir/agg_golden.json" > /dev/null
cargo run --release -p rmt-bench --bin check_json -- \
    --compare results/aggregate.json "$tmpdir/agg_golden.json"

section "golden: epoch time-series telemetry must regenerate bitwise"
# `--epoch` sampling is keyed to the simulated cycle, so the per-epoch
# deltas are part of the determinism contract like everything else.
cargo run --release -p rmt-bench --bin figure -- fig6_srt_single \
    --quick --benches m88ksim,ijpeg --epoch 4096 \
    --json "$tmpdir/fig6_epoch.json" > /dev/null
cargo run --release -p rmt-bench --bin check_json -- \
    --compare results/fig6_epoch.json "$tmpdir/fig6_epoch.json"

section "golden: fault forensics must regenerate bitwise (sans host)"
cargo run --release -p rmt-bench --bin fault_forensics -- \
    --standard --json "$tmpdir/forensics.json" > /dev/null
cargo run --release -p rmt-bench --bin check_json -- \
    --compare results/fault_forensics.json "$tmpdir/forensics.json"

section "golden: fault-coverage table must regenerate bitwise (sans timing)"
cargo run --release -p rmt-bench --bin figure -- fault_coverage --standard \
    | grep -v '^  \[' > "$tmpdir/fault_coverage.txt"
if ! diff -u results/fault_coverage.txt "$tmpdir/fault_coverage.txt"; then
    echo "error: results/fault_coverage.txt is stale; regenerate with:" >&2
    echo "  ./target/release/figure fault_coverage --standard | grep -v '^  \[' > results/fault_coverage.txt" >&2
    exit 1
fi

section "golden: grid tables must regenerate bitwise (sans timing)"
# Four efficiency tables, one per shape the grid path takes: rows of two
# threads (fig8_srt_multi), a two-variant grid (abl_slack), a swept axis
# with its own cycle factor (abl_sq_size), and a Base cell read on its
# own (workload_chars). Together about a minute on two workers. Then the
# five tables that run as cells and fold their runs' metric snapshots
# (fig7_psr, fig9_storeq, slack_profile, abl_prefetch, and
# abl_fetch_policy's three-column grid), about 45 s more.
for b in fig8_srt_multi abl_slack abl_sq_size workload_chars \
         fig7_psr fig9_storeq slack_profile abl_prefetch abl_fetch_policy; do
    cargo run --release -p rmt-bench --bin figure -- "$b" --standard --jobs 2 \
        | grep -v '^  \[' > "$tmpdir/$b.txt"
    if ! diff -u "results/$b.txt" "$tmpdir/$b.txt"; then
        echo "error: results/$b.txt is stale; regenerate with the EXPERIMENTS.md recipe:" >&2
        echo "  ./target/release/figure $b --standard | grep -v '^  \[' > results/$b.txt" >&2
        exit 1
    fi
done

section "smoke: HTML report renders the committed artifacts"
cargo run --release -p rmt-bench --bin report -- --out "$tmpdir/report.html" \
    results/fig6_srt_single.json results/fig6_epoch.json \
    results/fault_forensics.json "$tmpdir/cluster_env.json"
[ -s "$tmpdir/report.html" ] || { echo "error: report is empty" >&2; exit 1; }
grep -q '</html>' "$tmpdir/report.html"
grep -q '<svg' "$tmpdir/report.html"
grep -q 'Per-worker dispatch' "$tmpdir/report.html"

section "verify: differential fuzz smoke (fixed seed block, ~60s budget)"
# A fixed, deterministic seed block through the co-simulation oracle on
# the two arrangements with the richest commit plumbing. Any divergence
# exits nonzero and prints a minimized reproducer to save under
# tests/corpus/ (which tests/fuzz_regressions.rs then replays forever).
cargo run --release -p rmt-bench --bin fuzz -- \
    --seeds 0..48 --arrangement srt --commits 2000 --budget-secs 45
cargo run --release -p rmt-bench --bin fuzz -- \
    --seeds 0..16 --arrangement all --commits 1000 --budget-secs 15

section "ci.sh: all checks passed"
