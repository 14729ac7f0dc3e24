#!/usr/bin/env sh
# Repository CI gate: formatting, lints, static analysis, then the tier-1
# build + test run. Everything runs offline against the vendored
# dependency stand-ins.
#
# Subcommands (run one step alone):
#   ./ci.sh chaos-smoke       chaos determinism + resume/stream/shards smoke only
#   ./ci.sh telemetry-smoke   archived telemetry determinism smoke only
#   ./ci.sh cluster-smoke     multi-process sweep byte-identity smoke only
#   ./ci.sh stream-smoke      incremental-analysis equivalence smoke only
#   ./ci.sh fuzz-smoke        deterministic fuzzer over every target
#   ./ci.sh serve-smoke       real-socket authoritative DNS round trip
#   ./ci.sh scale-smoke       sharded-archive equivalence + resume smoke
#   ./ci.sh sweep-smoke       one-CPU sweep byte-identity, sharded stream check, closed stdout
#   ./ci.sh analyze           dps-analyzer over the workspace (must be clean)
#   ./ci.sh doc               rustdoc over the workspace's own crates, warnings denied
#   ./ci.sh analyze-fixtures  known-bad corpus must still fail, good must pass
#   ./ci.sh perfbench-tests   the benchmark harness's unit tests, helper check and
#                             traced-wire pages against a bulk sweep
set -eu

cd "$(dirname "$0")"

# Supervised sweep under a scripted fault schedule: must complete, verify
# clean, be byte-identical across two same-seed runs, and resume like a
# bulk sweep: a re-run over the finished archive changes no byte, and the
# wire sweep works with --stream and --shards. The sweep must also resolve
# through the caching recursor (infra-cache hits, <= 12 packets per name).
# A second spec adds corrupted and duplicated legs, and its serial and
# pipelined runs must give the same archive and the same `metrics --json`.
chaos_smoke() {
    echo "==> smoke: dpscope measure --chaos (determinism, resume, stream, shards)"
    chaos='blackout@0..1500ms; degrade@0..inf@loss=0.15'
    rm -rf target/ci-chaos-a target/ci-chaos-b target/ci-chaos-stream \
        target/ci-chaos-sharded target/ci-chaos-metrics.json \
        target/ci-chaos-faults-a target/ci-chaos-faults-b
    ./target/release/dpscope measure --scale 0.004 --days 2 --cc-start 2 \
        --archive target/ci-chaos-a --chaos "$chaos"
    # On one CPU the driver keeps a single wire day in flight, so this
    # cmp holds a serial sweep against the pipelined one above.
    taskset -c 0 ./target/release/dpscope measure --scale 0.004 --days 2 --cc-start 2 \
        --archive target/ci-chaos-b --chaos "$chaos"
    ./target/release/dpscope store verify target/ci-chaos-a
    ./target/release/dpscope store info target/ci-chaos-a
    cmp target/ci-chaos-a/archive.dps target/ci-chaos-b/archive.dps
    # The wire sweep resolves through the caching recursor: descents start
    # at cached zone cuts, so a name costs a handful of packets instead of
    # a walk from the root (~49 per name under this spec without the cache).
    ./target/release/dpscope metrics target/ci-chaos-a --json \
        >target/ci-chaos-metrics.json
    python3 -c '
import json, sys
c = json.load(open(sys.argv[1]))["counters"]
per_name = c["net.packets.sent"] / max(1, c["sweep.attempted"])
hits = c["recursor.infra.hits"]
print("chaos smoke: %.2f packets per name, %d infra-cache hits" % (per_name, hits))
if hits == 0 or per_name > 12:
    sys.exit("wire sweep is not resolving through the caching recursor")
' target/ci-chaos-metrics.json
    # No-op resume: every day is committed, so nothing is re-measured.
    ./target/release/dpscope measure --scale 0.004 --days 2 --cc-start 2 \
        --archive target/ci-chaos-b --chaos "$chaos"
    cmp target/ci-chaos-a/archive.dps target/ci-chaos-b/archive.dps
    ./target/release/dpscope measure --scale 0.004 --days 2 --cc-start 2 \
        --stream --archive target/ci-chaos-stream --chaos "$chaos"
    ./target/release/dpscope stream check target/ci-chaos-stream
    ./target/release/dpscope measure --scale 0.004 --days 2 --cc-start 2 \
        --shards 2 --archive target/ci-chaos-sharded --chaos "$chaos"
    ./target/release/dpscope store verify target/ci-chaos-sharded
    # Corrupted and duplicated legs on top of loss and a permanent
    # blackout: the serial-vs-pipelined cmp must also hold where netsim
    # flips a bit in a datagram or delivers it twice.
    faults='degrade@0..inf@loss=0.02,corrupt=0.02,dup=0.02; blackout@0..inf@30.1.0.16'
    ./target/release/dpscope measure --scale 0.004 --days 2 --cc-start 2 \
        --archive target/ci-chaos-faults-a --chaos "$faults"
    taskset -c 0 ./target/release/dpscope measure --scale 0.004 --days 2 --cc-start 2 \
        --archive target/ci-chaos-faults-b --chaos "$faults"
    cmp target/ci-chaos-faults-a/archive.dps target/ci-chaos-faults-b/archive.dps
    for side in a b; do
        ./target/release/dpscope metrics "target/ci-chaos-faults-$side" --json \
            >"target/ci-chaos-faults-$side.json"
    done
    cmp target/ci-chaos-faults-a.json target/ci-chaos-faults-b.json
    rm -rf target/ci-chaos-a target/ci-chaos-b target/ci-chaos-stream \
        target/ci-chaos-sharded target/ci-chaos-metrics.json \
        target/ci-chaos-faults-a target/ci-chaos-faults-b \
        target/ci-chaos-faults-a.json target/ci-chaos-faults-b.json
}

# Archived telemetry must be deterministic and non-trivial: two same-seed
# chaos sweeps render byte-identical `metrics --json`, the JSON parses,
# and the counters that prove the instrumentation is live are non-zero.
# Besides the chaos smoke's blackout and loss, the spec blacks out one of
# hostco1's two name servers (ns1.hostco1.net, 30.1.0.16) for good: its
# breaker trips while its sibling answers, so every cool-down ends in a
# half-open probe.
telemetry_smoke() {
    echo "==> smoke: dpscope metrics (telemetry determinism)"
    rm -rf target/ci-telemetry-a target/ci-telemetry-b
    for side in a b; do
        ./target/release/dpscope measure --scale 0.004 --days 2 --cc-start 2 \
            --archive "target/ci-telemetry-$side" \
            --chaos 'blackout@0..1500ms; degrade@0..inf@loss=0.15; blackout@0..inf@30.1.0.16'
        ./target/release/dpscope metrics "target/ci-telemetry-$side" --json \
            >"target/ci-telemetry-$side/metrics.json"
    done
    cmp target/ci-telemetry-a/metrics.json target/ci-telemetry-b/metrics.json
    python3 -c '
import json, sys
c = json.load(open(sys.argv[1]))["counters"]
dead = [name for name in sys.argv[2:] if c.get(name, 0) == 0]
if dead:
    sys.exit("missing or zero counters, instrumentation is dead: " + ", ".join(dead))
' target/ci-telemetry-a/metrics.json net.packets.sent net.chaos.degraded \
        sweep.attempted health.breaker.probes
    # The per-day view must render too (day 0 exists in a 2-day sweep).
    ./target/release/dpscope metrics target/ci-telemetry-a --day 1 >/dev/null
    rm -rf target/ci-telemetry-a target/ci-telemetry-b
}

# Multi-process sweep: a manager plus two forked worker agents over a
# Unix socket must produce an archive byte-identical to the
# single-process run of the same seed, verify clean, and leave a
# readable per-worker provenance sidecar.
cluster_smoke() {
    echo "==> smoke: dpscope measure --workers 2 (cluster byte-identity, shards)"
    rm -rf target/ci-cluster-single target/ci-cluster-multi
    ./target/release/dpscope measure --scale 0.004 --days 3 --cc-start 2 \
        --archive target/ci-cluster-single
    ./target/release/dpscope measure --scale 0.004 --days 3 --cc-start 2 \
        --workers 2 --archive target/ci-cluster-multi
    cmp target/ci-cluster-single/archive.dps target/ci-cluster-multi/archive.dps
    ./target/release/dpscope store verify target/ci-cluster-multi
    test -s target/ci-cluster-multi/provenance.tsv
    ./target/release/dpscope metrics target/ci-cluster-multi --by-worker \
        | grep -q 'cluster.rows{worker="local-' || {
        echo "metrics --by-worker shows no per-worker rows" >&2
        exit 1
    }
    rm -rf target/ci-cluster-single target/ci-cluster-multi
    # --workers honours --shards: the manifest and every shard file match
    # the single-process sharded sweep byte for byte.
    ./target/release/dpscope measure --scale 0.004 --days 3 --cc-start 2 \
        --shards 3 --archive target/ci-cluster-single
    ./target/release/dpscope measure --scale 0.004 --days 3 --cc-start 2 \
        --workers 2 --shards 3 --archive target/ci-cluster-multi
    for f in archive.manifest archive.shard000.dps archive.shard001.dps \
        archive.shard002.dps; do
        cmp "target/ci-cluster-single/$f" "target/ci-cluster-multi/$f"
    done
    ./target/release/dpscope store verify target/ci-cluster-multi
    rm -rf target/ci-cluster-single target/ci-cluster-multi
}

# Streaming analysis: a --stream sweep must stay byte-identical between
# single-process and 2-worker cluster runs (checkpoint pages included),
# verify clean, pass the incremental-equals-full-rescan gate, and render
# a deterministic status.
stream_smoke() {
    echo "==> smoke: dpscope measure --stream (incremental analysis equivalence)"
    rm -rf target/ci-stream-single target/ci-stream-multi
    ./target/release/dpscope measure --scale 0.004 --days 3 --cc-start 2 \
        --stream --archive target/ci-stream-single
    ./target/release/dpscope measure --scale 0.004 --days 3 --cc-start 2 \
        --stream --workers 2 --archive target/ci-stream-multi
    cmp target/ci-stream-single/archive.dps target/ci-stream-multi/archive.dps
    ./target/release/dpscope store verify target/ci-stream-single
    ./target/release/dpscope stream check target/ci-stream-single
    ./target/release/dpscope stream status target/ci-stream-single
    ./target/release/dpscope stream status target/ci-stream-single --json \
        >target/ci-stream-single/status.json
    ./target/release/dpscope stream status target/ci-stream-multi --json \
        >target/ci-stream-multi/status.json
    cmp target/ci-stream-single/status.json target/ci-stream-multi/status.json
    ./target/release/dpscope store info target/ci-stream-single \
        | grep -q '^analysis' || {
        echo "store info does not list the analysis page kind" >&2
        exit 1
    }
    rm -rf target/ci-stream-single target/ci-stream-multi
}

# Sharded archives: a --shards 3 sweep must verify clean, scan to the
# same analysis as the single-file run of the same seed, resume into the
# existing sharded layout, and keep `--shards 1` byte-identical to the
# historical single-file archive.
scale_smoke() {
    echo "==> smoke: dpscope measure --shards (sharded-archive equivalence)"
    rm -rf target/ci-scale-single target/ci-scale-sharded target/ci-scale-resume
    ./target/release/dpscope measure --scale 0.004 --days 3 --cc-start 2 \
        --archive target/ci-scale-single
    ./target/release/dpscope measure --scale 0.004 --days 3 --cc-start 2 \
        --shards 3 --archive target/ci-scale-sharded
    test -s target/ci-scale-sharded/archive.manifest
    test -s target/ci-scale-sharded/archive.shard002.dps
    ./target/release/dpscope store verify target/ci-scale-sharded
    ./target/release/dpscope store info target/ci-scale-sharded \
        | grep -q 'sharded (3 shard files' || {
        echo "store info does not report the sharded layout" >&2
        exit 1
    }
    # Every analysis artifact over the sharded archive equals the
    # single-file run: the full report on stdout and every file under
    # --out.
    for layout in single sharded; do
        ./target/release/dpscope analyze --scale 0.004 --days 3 --cc-start 2 \
            --archive "target/ci-scale-$layout" --out "target/ci-scale-figs-$layout" \
            all >"target/ci-scale-report-$layout.txt"
    done
    cmp target/ci-scale-report-single.txt target/ci-scale-report-sharded.txt
    diff -r target/ci-scale-figs-single target/ci-scale-figs-sharded
    rm -rf target/ci-scale-figs-single target/ci-scale-figs-sharded \
        target/ci-scale-report-single.txt target/ci-scale-report-sharded.txt
    # Re-running the same sweep resumes into the existing sharded layout
    # (every day already committed) and leaves every file byte-identical.
    # Incremental and crash-interrupted resumes are covered in cargo
    # tests; the CLI cannot stop a sweep mid-run deterministically.
    mkdir -p target/ci-scale-resume
    cp target/ci-scale-sharded/archive.manifest \
        target/ci-scale-sharded/archive.shard*.dps target/ci-scale-resume/
    ./target/release/dpscope measure --scale 0.004 --days 3 --cc-start 2 \
        --shards 3 --archive target/ci-scale-resume
    cmp target/ci-scale-resume/archive.manifest target/ci-scale-sharded/archive.manifest
    for k in 000 001 002; do
        cmp "target/ci-scale-resume/archive.shard$k.dps" \
            "target/ci-scale-sharded/archive.shard$k.dps"
    done
    rm -rf target/ci-scale-single target/ci-scale-sharded target/ci-scale-resume
}

# The bulk sweep codes rows on its workers, one dictionary per chunk, and
# commits each day on a commit thread while the next day is collected.
# On one CPU a block is one chunk and nothing overlaps, so the archive of
# a `taskset -c 0` run must equal the default run's byte for byte. The
# sharded stream state must equal a full rescan (`stream check`). A
# reader that leaves early ends a command quietly: `store info | true`
# must exit without a panic.
sweep_smoke() {
    echo "==> smoke: dpscope measure --stream --shards 4 (one CPU, closed stdout)"
    rm -rf target/ci-sweep-a target/ci-sweep-b target/ci-sweep-stderr.txt
    ./target/release/dpscope measure --scale 0.02 --days 3 --cc-start 2 \
        --stream --shards 4 --archive target/ci-sweep-a
    if command -v taskset >/dev/null 2>&1; then
        taskset -c 0 ./target/release/dpscope measure --scale 0.02 --days 3 \
            --cc-start 2 --stream --shards 4 --archive target/ci-sweep-b
        for f in archive.manifest archive.shard000.dps archive.shard001.dps \
            archive.shard002.dps archive.shard003.dps; do
            cmp "target/ci-sweep-a/$f" "target/ci-sweep-b/$f"
        done
    else
        echo "taskset not found: skipping the one-CPU byte-identity check"
    fi
    ./target/release/dpscope stream check target/ci-sweep-a
    ./target/release/dpscope store info target/ci-sweep-a \
        2>target/ci-sweep-stderr.txt | true
    if grep -q panicked target/ci-sweep-stderr.txt; then
        echo "store info panicked on a closed stdout:" >&2
        cat target/ci-sweep-stderr.txt >&2
        exit 1
    fi
    rm -rf target/ci-sweep-a target/ci-sweep-b target/ci-sweep-stderr.txt
}

# Deterministic mutation fuzzing: every decoder target runs a fixed seed
# for a bounded iteration count; any panic or round-trip divergence fails
# the gate. The checked-in corpus (including minimised regressions) is
# loaded automatically.
fuzz_smoke() {
    echo "==> smoke: dpscope fuzz all (deterministic, fixed seed)"
    ./target/release/dpscope fuzz all --iters 100000 --seed 2016
}

# Real-socket authoritative DNS: spawn `dpscope serve` on loopback, query
# it over UDP and TCP with the real-transport dig, then shut it down
# cleanly by closing stdin.
serve_smoke() {
    echo "==> smoke: dpscope serve + dig over real sockets"
    rm -rf target/ci-serve
    mkdir -p target/ci-serve/zones
    printf '$ORIGIN ci.test.\n@ IN NS ns1.ci.test.\nns1 IN A 10.9.0.53\nwww IN A 10.9.0.80\n' \
        >target/ci-serve/zones/ci.test.zone
    mkfifo target/ci-serve/stdin
    ./target/release/dpscope serve --zones target/ci-serve/zones \
        >target/ci-serve/out.txt 2>&1 <target/ci-serve/stdin &
    serve_pid=$!
    # Hold the write end open until we are done, then close it for EOF.
    exec 9>target/ci-serve/stdin
    for _ in $(seq 1 50); do
        grep -q 'serve: listening' target/ci-serve/out.txt 2>/dev/null && break
        sleep 0.1
    done
    udp_addr=$(sed -n 's/.*udp=\([0-9.:]*\).*/\1/p' target/ci-serve/out.txt)
    tcp_addr=$(sed -n 's/.*tcp=\([0-9.:]*\).*/\1/p' target/ci-serve/out.txt)
    ./target/release/dpscope dig www.ci.test A --server "udp://$udp_addr" \
        | grep -q '10.9.0.80' || { echo "UDP answer missing" >&2; exit 1; }
    ./target/release/dpscope dig www.ci.test A --server "tcp://$tcp_addr" \
        | grep -q '10.9.0.80' || { echo "TCP answer missing" >&2; exit 1; }
    exec 9>&-
    wait "$serve_pid" || { echo "serve exited unclean" >&2; exit 1; }
    grep -q 'serve: shutdown' target/ci-serve/out.txt
    rm -rf target/ci-serve
}

# Workspace-native static analysis: determinism, panic-safety and hygiene
# invariants must hold (waivers need written reasons). --deny promotes
# warnings (e.g. stale waivers) to failures so CI stays tidy. The SARIF
# artifact is written even on a clean run so code-review tooling always
# has a current report to ingest.
analyze() {
    echo "==> dps-analyzer --deny (workspace invariants)"
    cargo run --release --offline -q -p dps-analyzer -- \
        --root . --deny --sarif target/dps-analyzer.sarif
    test -s target/dps-analyzer.sarif \
        || { echo "missing SARIF artifact target/dps-analyzer.sarif" >&2; exit 1; }
}

# Rustdoc over the workspace's own crates with warnings denied, so a
# broken or ambiguous intra-doc link fails CI. The vendored stand-ins
# under vendor/ are workspace members too but are left out: their docs
# are not ours to fix.
doc() {
    echo "==> cargo doc (deny warnings, workspace crates)"
    pkgs=$(cargo metadata --offline --no-deps --format-version 1 | python3 -c '
import json, sys
for p in json.load(sys.stdin)["packages"]:
    if "/vendor/" not in p["manifest_path"]:
        print("-p", p["name"])
')
    # shellcheck disable=SC2086 # one word per -p flag and package name
    RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps $pkgs
}

# Negative check: every bad fixture must still fire its annotated rules,
# every good fixture must stay clean. Guards the analyzer itself against
# silently losing its teeth.
analyze_fixtures() {
    echo "==> dps-analyzer --check-fixtures (rules still bite)"
    cargo run --release --offline -q -p dps-analyzer -- \
        --check-fixtures crates/analyzer/fixtures
}

# The benchmark harness (perfbench/run.py) checks its own parsing,
# statistics and checks with a few milliseconds of unit tests. Its helper
# binary builds as a package of its own against the workspace crates:
# checking it catches an API change that breaks it, and --locked catches
# any drift of its lock file. The benchmark's traced wire pass
# (`perfbench trace-wire`) resolves through `WirePath`, the recursor with
# both caches off, and must archive the data pages of a bulk sweep of the
# same seed (run.py: "wire: traced data pages differ"); the helper builds
# in release mode beside `dpscope`, as the benchmark builds it.
perfbench_tests() {
    echo "==> perfbench unit tests"
    PYTHONDONTWRITEBYTECODE=1 python3 -m unittest discover perfbench
    echo "==> perfbench helper: cargo check --locked"
    cargo check --offline --locked --manifest-path perfbench/traced/Cargo.toml \
        --target-dir target/perfbench-traced
    echo "==> perfbench helper: trace-wire data pages equal a bulk sweep"
    cargo build --release --offline --bin dpscope
    cargo build --release --offline --locked --manifest-path perfbench/traced/Cargo.toml \
        --target-dir target
    rm -rf target/ci-trace-wire target/ci-trace-bulk target/ci-trace-wire.spans.tsv \
        target/ci-trace-wire.pages target/ci-trace-bulk.pages
    scenario='--seed 2016 --scale 0.004 --days 2 --cc-start 1'
    # shellcheck disable=SC2086 # one word per scenario flag and value
    ./target/release/perfbench trace-wire $scenario --chaos 'degrade@0..inf@loss=0.02' \
        --archive target/ci-trace-wire --spans target/ci-trace-wire.spans.tsv >/dev/null
    # shellcheck disable=SC2086
    ./target/release/dpscope measure $scenario --archive target/ci-trace-bulk >/dev/null
    for side in wire bulk; do
        ./target/release/perfbench digest --archive "target/ci-trace-$side/archive.dps" \
            | grep '^page ' >"target/ci-trace-$side.pages"
    done
    test -s target/ci-trace-bulk.pages
    cmp target/ci-trace-wire.pages target/ci-trace-bulk.pages || {
        echo "perfbench trace-wire data pages differ from a bulk sweep" >&2
        exit 1
    }
    rm -rf target/ci-trace-wire target/ci-trace-bulk target/ci-trace-wire.spans.tsv \
        target/ci-trace-wire.pages target/ci-trace-bulk.pages
}

case "${1:-}" in
chaos-smoke)
    cargo build --release --offline
    chaos_smoke
    echo "==> chaos smoke green"
    exit 0
    ;;
telemetry-smoke)
    cargo build --release --offline
    telemetry_smoke
    echo "==> telemetry smoke green"
    exit 0
    ;;
cluster-smoke)
    cargo build --release --offline
    cluster_smoke
    echo "==> cluster smoke green"
    exit 0
    ;;
stream-smoke)
    cargo build --release --offline
    stream_smoke
    echo "==> stream smoke green"
    exit 0
    ;;
fuzz-smoke)
    cargo build --release --offline
    fuzz_smoke
    echo "==> fuzz smoke green"
    exit 0
    ;;
serve-smoke)
    cargo build --release --offline
    serve_smoke
    echo "==> serve smoke green"
    exit 0
    ;;
scale-smoke)
    cargo build --release --offline
    scale_smoke
    echo "==> scale smoke green"
    exit 0
    ;;
sweep-smoke)
    cargo build --release --offline
    sweep_smoke
    echo "==> sweep smoke green"
    exit 0
    ;;
analyze)
    analyze
    echo "==> analyze green"
    exit 0
    ;;
doc)
    doc
    echo "==> doc green"
    exit 0
    ;;
analyze-fixtures)
    analyze_fixtures
    echo "==> analyze-fixtures green"
    exit 0
    ;;
perfbench-tests)
    perfbench_tests
    echo "==> perfbench tests green"
    exit 0
    ;;
esac

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

doc
analyze
analyze_fixtures
perfbench_tests

echo "==> tier-1: cargo build --release"
cargo build --release --offline

echo "==> smoke: dpscope store verify over a tiny archive"
rm -rf target/ci-smoke
./target/release/dpscope measure --scale 0.005 --days 4 --cc-start 3 --archive target/ci-smoke
./target/release/dpscope store info target/ci-smoke
./target/release/dpscope store verify target/ci-smoke
rm -rf target/ci-smoke

chaos_smoke
telemetry_smoke
cluster_smoke
stream_smoke
fuzz_smoke
serve_smoke
scale_smoke
sweep_smoke

echo "==> tier-1: cargo test -q"
cargo test -q --offline

echo "==> workspace tests"
cargo test -q --offline --workspace

echo "==> CI green"
