#!/usr/bin/env bash
# Tier-1 gate + dependency lint for the POLaR workspace.
#
# 1. Lint every workspace manifest: the workspace builds offline by
#    policy, so any dependency that is not an in-tree path dependency
#    (i.e. anything that would hit a registry) fails the check.
# 2. Run the tier-1 gate: cargo build --release && cargo test -q, then
#    every workspace crate's tests (cargo test --workspace), then check
#    that every intra-doc link resolves.
# 3. Build and unit-test the benchmark package, then run the release-mode
#    stress and smoke tests, the bench gate against HEAD and the
#    security gate.
#
# Usage: scripts/check.sh [--lint-only]

set -euo pipefail
cd "$(dirname "$0")/.."

lint_failed=0

# Every dependency spec in every workspace manifest must be one of:
#   name = { path = "..." , ... }        (in-tree crate)
#   name = { workspace = true }          (resolved against the root, which
#                                         is itself lint-checked)
# Plain version strings (`foo = "1.0"`) or specs with `version`/`git`/
# `registry` keys would require the network and are rejected.
lint_manifest() {
    local manifest="$1"
    # Extract dependency lines: section bodies of [dependencies],
    # [dev-dependencies], [build-dependencies], [workspace.dependencies].
    awk '
        /^\[/ {
            in_deps = ($0 ~ /^\[(workspace\.)?(dev-|build-)?dependencies\]/)
            next
        }
        in_deps && NF && $0 !~ /^#/ { print }
    ' "$manifest" | while IFS= read -r line; do
        case "$line" in
            *"path ="*|*"path="*) ;;              # in-tree path dep
            *"workspace = true"*|*"workspace=true"*) ;;  # root-resolved
            *)
                echo "DEPENDENCY LINT: $manifest: non-path dependency:" >&2
                echo "    $line" >&2
                exit 1
                ;;
        esac
    done || lint_failed=1
}

echo "== dependency lint =="
for manifest in Cargo.toml crates/*/Cargo.toml; do
    lint_manifest "$manifest"
done

if [ "$lint_failed" -ne 0 ]; then
    echo "dependency lint FAILED: the workspace must stay registry-free" >&2
    echo "(in-tree path dependencies only; see README 'Offline-deterministic builds')" >&2
    exit 1
fi
echo "ok: all manifests are registry-free"

if [ "${1:-}" = "--lint-only" ]; then
    exit 0
fi

echo "== tier-1 gate =="
cargo build --release --offline
cargo test -q --offline
echo "ok: tier-1 green"

echo "== workspace tests =="
# The tier-1 command runs only the root package's suites. This stage runs
# every crate's unit and integration tests too (the golden counter tapes,
# the magazine, interleaving and differential properties, the runtime,
# layout, simheap, attacks and ir unit tests), in debug, ~2 minutes, and
# every polar-bench bench target once in quick mode (each body runs once,
# untimed), so a bench that no longer runs fails here.
cargo test -q --offline --workspace
echo "ok: workspace tests green"

echo "== intra-doc links =="
# Every intra-doc link in the workspace's docs must resolve, and public
# docs must not link to private items: a renamed or deleted item (a
# type, a function signature) cannot stay named in the docs.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc -q --no-deps --workspace --offline
echo "ok: intra-doc links resolve"

echo "== benchmark package (build + unit tests) =="
# perfbench is a package of its own outside the workspace, so the
# workspace build never compiles it. It builds ObjectRuntime, reads its
# heap() and implements PolarRuntime for a tracing wrapper: a runtime API
# change that breaks the benchmark must fail here, not when it runs.
CARGO_TARGET_DIR=.bench_build cargo test -q --offline --release --manifest-path perfbench/Cargo.toml
echo "ok: benchmark package green"

echo "== threaded stress smoke (release) =="
# The sharded-runtime tests and the churn workload re-run in release
# mode: optimized codegen changes timing enough to surface races the
# debug-mode tier-1 pass can miss (more preemption points per second,
# fewer implicit synchronization stalls).
cargo test -q --offline --release -p polar-runtime sharded
cargo test -q --offline --release -p polar-workloads churn
echo "ok: threaded stress green"

echo "== lock-free stress smoke (release) =="
# Read-dominated contention over one shared object set (the contend
# mix): readers race writer seqlock windows with a torn-read oracle on
# every load, thread count clamped to the detected parallelism. Checks
# the counting partition (every read is counted once: classified
# without the lock, hit or detection alike, or served by the mutex
# after the retry budget ran out under contention) and that pure
# readers never leave the optimistic path.
cargo test -q --offline --release -p polar-bench --test stress_lockfree -- --nocapture
echo "ok: lock-free stress green"

echo "== differential detection property (release) =="
# One classifier decides every member access and free, under the shard
# lock and without it. The tier-1 run replays 96 generated op tapes
# through the plain runtime, one-shard handles with magazines on and off
# and two handles on two shards; this stage replays 4000, so a rare op
# mix that classifies or counts differently on one surface is caught.
POLAR_CHECK_CASES=4000 cargo test -q --offline --release -p polar-runtime --test classify_props
echo "ok: differential property green"

echo "== derived-layout hash and canary identity (release, every code) =="
# A stateless reservation finds its interned plan by hashing the layout
# its permutation code derives on the stack, and arms the object with
# that layout's canaries; a plan is built only when the hash is new. The
# stack layout must hash exactly as the plan built from the code and
# carry its canaries, and that plan must equal an independent reference
# build whose canaries follow the registry's rule. The tier-1 run checks
# every code up to 6 fields and 2,000 sampled codes of 7 and 8;
# POLAR_DERIVED_CODES at 8! checks every code of 7 and 8 too.
POLAR_DERIVED_CODES=40320 cargo test -q --offline --release -p polar-layout derived_layout_hashes
echo "ok: derived-layout hash and canary identity green"

echo "== exact stateless bound (release, larger budget) =="
# A derived object's block is sized by stateless_bound before the heap
# hands out the identity its layout derives from, so the bound must
# hold every layout the class can derive, and it is exact: some derived
# layout attains it. The workspace stage holds it equal to an
# enumeration of every memory order for every class of up to 6 fields,
# and checks 24 sampled classes each of 7 and 8 fields (64 sampled
# derived layouts inside it, and a constructed widest order attaining
# it, laid out sequentially and derived under a key that places the
# traps as the order does); POLAR_BOUND_CLASSES raises the sampled
# classes here.
POLAR_BOUND_CLASSES=2000 cargo test -q --offline --release -p polar-layout stateless_bound
echo "ok: exact stateless bound green"

echo "== plan cell representation (release, larger budget) =="
# A plan keeps its fields and dummies as cells of one allocation, the
# fields of a class of up to 16 inline. Every accessor, the plan hash
# and the registry's canaries are held to a reference plan of one
# vector per field attribute, over engine plans (default, permute-only
# and randstruct policies, 1-16 fields and a 20-field class that
# spills), stateless plans of 1-8 fields with and without traps,
# static-OLR and natural plans, and raw parts through both public
# constructors. The workspace stage checks 150 cases per source;
# POLAR_PLAN_CASES raises that here.
POLAR_PLAN_CASES=20000 cargo test -q --offline --release -p polar-layout plan_cells
echo "ok: plan cell representation green"

echo "== heap footprint pin (release, session scale) =="
# A heap's block metadata is its slot records plus one unit index: 128 B
# per 256 B block. The pin builds a standalone and a published heap of
# 131,072 such blocks each (one session-store shard's worth apiece) and
# checks metadata_bytes() to the byte, so a side table reintroduced next
# to the records fails here. Unit tests run it at 4096 blocks.
POLAR_FOOTPRINT_BLOCKS=131072 cargo test -q --offline --release -p polar-simheap --test metadata
echo "ok: heap footprint pin green"

echo "== stateless default smoke =="
# Boots the stock config (stateless derived plans are the small-class
# default), verifies pooled vs stateless selection per class size, and
# asserts exact seeded replay of a mixed-mode allocation run.
cargo test -q --offline --release -p polar-bench --test smoke_stateless -- --nocapture
echo "ok: stateless default smoke green"

echo "== placement smoke =="
# Arms the placement policy the polar+placement column uses (shuffle
# buffers, guard gaps, arena offset entropy) and checks allocator
# invariants under churn, seeded replay of the placed address sequence,
# and that placement actually moves addresses off the deterministic
# baseline.
cargo test -q --offline --release -p polar-bench --test smoke_placement -- --nocapture
echo "ok: placement smoke green"

echo "== session-store smoke =="
# A reduced run of the million-object session-store workload with the
# oracle armed: populate → Zipf traffic on 8 threads, every read
# verified against the model, magazine hit rate ≥ 90%, remote-free
# queues fully drained at quiescence, no fragmentation growth and no
# false-positive detections.
cargo test -q --offline --release -p polar-bench --test smoke_session -- --nocapture
echo "ok: session smoke green"

echo "== bench gate (same-session A/B against HEAD) =="
# Times every gated runtime_ops row built on HEAD's libraries (the parent
# while a change is uncommitted) against the same rows built on this
# tree's, in interleaved pairs of short runs, and fails a row whose
# median per-pair slowdown is past the threshold; the two deterministic
# rows (session-store metadata per live session, pooled/derived
# metadata ratio) are held to absolute pins. The log names the host
# states the pairs met. HEAD's build is cached under .bench_build/ab.
# Exit 2 is no verdict: a command the gate needs failed, most often
# HEAD's build with this tree's crates/bench laid over it (a row that
# calls an API HEAD lacks). The gate did not run; say so in CHANGES.md.
cargo run -q --release --offline -p polar-bench --bin bench_json -- --gate HEAD
echo "ok: bench gate green"

echo "== security gate (reduced-trial adaptive attacker) =="
# Reruns the adaptive attack scorecard (4 scenarios x 7 modes) on the
# quick budget at the pinned gate seed and compares each campaign's
# bypass/detection rates against scripts/security_baseline.json: fails
# when any mode's bypass rate climbs more than 10 points above its pin
# or a detection rate falls more than 10 points below. Regenerate the
# pin after an intentional defense change with:
#     ./target/release/security_json --write-pin scripts/security_baseline.json
./target/release/security_json --gate scripts/security_baseline.json
echo "ok: security gate green"
