#!/usr/bin/env bash
# Full local CI gate: formatting, lints, build, and the complete test suite.
#
# Everything runs --offline: external dependencies are satisfied by the
# in-workspace shim crates (crates/shims/), so no registry access is needed
# or attempted.
#
# `scripts/ci.sh --replay` runs only the chaos regression corpus: every
# archived reproducer under tests/chaos_corpus/ must rerun to its recorded
# verdict (the blind spots chaos found stay pinned until a checker change
# legitimately flips them — at which point the corpus file is re-recorded).
# Replays run on the virtual clock: it makes the verdict load-independent,
# so a replay asserts byte-parity on the first attempt — the old
# stall-tolerant retry loop is gone because the noise it tolerated is gone.
set -euo pipefail
cd "$(dirname "$0")/.."

replay_corpus() {
    echo "==> chaos regression corpus: every archived reproducer reruns to its recorded verdict (first attempt)"
    local found=0
    for artifact in tests/chaos_corpus/*.json; do
        [ -e "$artifact" ] || continue
        found=1
        echo "    replaying $artifact"
        cargo run --offline -q --release -p harness --bin wdog-chaos -- --replay "$artifact"
    done
    if [ "$found" -eq 0 ]; then
        echo "    (corpus empty — nothing to replay)"
    fi
}

if [ "${1:-}" = "--replay" ]; then
    replay_corpus
    echo "REPLAY OK"
    exit 0
fi

echo "==> no stale error sidecars tracked in git"
# Campaign bins delete their results/<name>.err sidecar on success, so a
# tracked one is a fossil of a failed run that was committed by accident.
if git ls-files -- 'results/*.err' 'results/**/*.err' | grep -q .; then
    echo "tracked .err sidecars found — rerun the campaign (bins clear them on success) or git rm:"
    git ls-files -- 'results/*.err' 'results/**/*.err'
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> wdog-lint --target all --deny-drift + analysis gates"
# --deny-coverage-regression diffs against the archived
# results/analysis/coverage_<target>.json and fails on newly uncovered
# vulnerable ops; the refreshed artifacts are written back in place.
# --deny-real-clock keeps production code off raw time calls — the
# virtual-time substrate's determinism rests on every sleep and deadline
# going through Clock.
cargo run --offline -q -p harness --bin wdog-lint -- --target all --deny-drift \
    --deny-unsafe-checker --deny-deadlock-cycle --deny-coverage-regression \
    --deny-real-clock

echo "==> wdog-recovery smoke: kvs stuck-task + corruption must verified-recover in virtual time"
# Writes to a scratch dir so the archived full campaign in results/ is not
# clobbered by the two-scenario smoke.
cargo run --offline -q -p harness --bin wdog-recovery -- --target kvs --out "$(mktemp -d)" \
    --scenarios background-task-stuck,state-corruption --require-verified 2

echo "==> telemetry smoke: kvs campaign must produce a valid snapshot with a detection"
cargo run --offline -q --release -p harness --bin wdog-telemetry -- --target kvs \
    --scenarios background-task-stuck --require-detections 1

echo "==> telemetry bench guard: armed hook fire within 15% of disarmed (or the 25 ns absolute floor)"
cargo run --offline -q --release -p harness --bin wdog-telemetry -- --bench-guard 15

# The load-plane smoke gate: a short open-loop sweep against kvs at
# sub-saturation rates, compared to the checked-in baseline
# (tests/load_baseline/load_kvs.json). Any stage that loses more than 15%
# throughput — or whose p99 grows past the 2 ms jitter floor by more than
# 15% — fails the build. Writes to a scratch dir so the archived
# results/load/ artifacts (full sweeps) are never clobbered by smoke runs.
echo "==> wdog-load smoke sweep: kvs stages within 15% of the checked-in baseline"
cargo run --offline -q --release -p harness --bin wdog-load -- --target kvs \
    --smoke --seed 42 --out "$(mktemp -d)" --guard-baseline tests/load_baseline

# Every campaign boots on the virtual clock, so the paper's tables give one
# answer per seed: Table 1 over every target and the ZK-2201 reproduction
# must pass their shape checks and rewrite their archived JSON byte for
# byte. A difference is either nondeterminism or a stale archive. The
# telemetry sidecars carry real hook-fire timings and stay out of the
# comparison.
echo "==> table1 (all targets) + zk2201: shape checks pass, archived JSON reproduced byte for byte"
for bin in "table1 -- --target all" "zk2201"; do
    # shellcheck disable=SC2086 # $bin splits into the bin and its flags
    out=$(cargo run --offline -q --release -p harness --bin $bin)
    echo "$out"
    grep -q "shape check: OK" <<<"$out"
done
git diff --exit-code -- results/table1.json results/table1-minizk.json \
    results/table1-miniblock.json results/zk2201.json

# The chaos gate, in virtual time. The old real-clock smoke ran 50
# schedules per target and cost 50 x (0.5s warmup + 2.5s horizon + 0.4s
# grace) = 170s of wall clock each. The sim gate runs 1000 schedules per
# target — 20x the coverage — and --max-wall-ms 170000 asserts each sweep
# still comes in under the old 50-schedule budget. Each sweep runs twice
# and the archived reports must agree byte-for-byte on the first attempt:
# determinism by construction, not by contract.
for t in kvs minizk miniblock; do
    echo "==> chaos sim sweep [$t]: 1000 schedules, twice, byte-identical, under the old 50-schedule budget"
    cargo run --offline -q --release -p harness --bin wdog-chaos -- --target "$t" \
        --seed 42 --schedules 1000 --max-wall-ms 170000 \
        --require-detected 1 --require-clean-benign
    cp "results/chaos/chaos_$t.json" "results/chaos/chaos_$t.run1.json"
    cargo run --offline -q --release -p harness --bin wdog-chaos -- --target "$t" \
        --seed 42 --schedules 1000 --max-wall-ms 170000 \
        --require-detected 1 --require-clean-benign
    if ! cmp -s "results/chaos/chaos_$t.run1.json" "results/chaos/chaos_$t.json"; then
        echo "chaos sim sweep [$t]: reports diverged between consecutive runs — nondeterminism bug"
        exit 1
    fi
    rm -f "results/chaos/chaos_$t.run1.json"
done

# The inference gate rides on the chaos archive the sweeps above just
# refreshed. Two passes over every target: the first writes the corpus,
# the second re-records with per-target confidence floors — at least 10
# mined invariants everywhere, and on kvs/miniblock at least one archived
# missed fault verdict that the inferred checkers flip to detected
# (minizk's misses are all txn-log bit rot, invisible at the value level,
# so it gates on invariants only). The two corpora must agree
# byte-for-byte: recording is virtual-time deterministic and everything
# downstream is a pure function of the journals.
echo "==> wdog-infer gate: mine >=10 invariants per target, flip archived misses, byte-identical corpus"
cargo run --offline -q --release -p harness --bin wdog-infer -- --target all \
    --require-invariants 10
for t in kvs minizk miniblock; do
    cp "results/inferred/inferred_$t.json" "results/inferred/inferred_$t.run1.json"
done
cargo run --offline -q --release -p harness --bin wdog-infer -- --target kvs \
    --require-invariants 10 --require-flips 1
cargo run --offline -q --release -p harness --bin wdog-infer -- --target minizk \
    --require-invariants 10
cargo run --offline -q --release -p harness --bin wdog-infer -- --target miniblock \
    --require-invariants 10 --require-flips 1
for t in kvs minizk miniblock; do
    if ! cmp -s "results/inferred/inferred_$t.run1.json" "results/inferred/inferred_$t.json"; then
        echo "wdog-infer [$t]: corpus diverged between consecutive runs — nondeterminism bug"
        exit 1
    fi
    rm -f "results/inferred/inferred_$t.run1.json"
done

replay_corpus

# --no-fail-fast: one failing test binary must not hide failures in the
# binaries after it; cargo still exits non-zero if any test failed.
echo "==> tier-1: cargo build --release && cargo test"
cargo build --release --offline
cargo test --offline -q --no-fail-fast

echo "==> full workspace tests"
cargo test --offline --workspace -q --no-fail-fast

# perfbench is a package of its own outside the workspace, so the
# workspace run above does not reach its unit tests (quantile ranks, span
# self time, capacity selection).
echo "==> perfbench unit tests"
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "CI OK"
