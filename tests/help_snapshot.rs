//! Integration: `dpscope --help` is a stable, documented surface.
//!
//! The full help text (everything before the build-dependent
//! `analyze ids:` list) is snapshotted verbatim, so any new command or
//! flag must update the help — and any help edit is a reviewed diff
//! here — keeping the documentation from drifting out of sync with the
//! CLI (`metrics --by-worker` and `measure --workers` once did).

use std::process::Command;

const HELP_SNAPSHOT: &str = "\
usage: dpscope <command> [options]\n\
\n\
commands:\n\
simulate   export zone files, pfx2as and AS registry for --day\n\
measure    run the full study, save the archive to --archive\n\
(resumes from the last committed day if interrupted;\n\
with --chaos, sweeps over the wire under supervision)\n\
analyze    regenerate tables/figures (ids or 'all') from --archive\n\
dig        resolve <name> <type> through the simulated Internet\n\
(+tries=N and +timeout=MS tune the wire resolver);\n\
with --server udp://A or tcp://A, query a real DNS\n\
server over the network instead (+bufsize=N sets the\n\
EDNS0 size, +noedns sends a classic query; truncated\n\
UDP answers retry over TCP)\n\
serve      authoritative DNS over real sockets for the *.zone\n\
files in --zones (hot-reloaded on change); UDP with\n\
EDNS0/TC plus TCP fallback, hardened against\n\
malformed input, floods and slowloris; runs until\n\
stdin closes\n\
fuzz       run the deterministic mutation fuzzer against one\n\
decoder target (or 'all'): fuzz <target> --iters N\n\
--seed S; corpus under crates/fuzz/corpus/<target>\n\
store      inspect a single-file archive: store <info|verify|cat> <path>\n\
(info includes the per-day data-quality summary)\n\
metrics    dump archived sweep telemetry: metrics <path> [--json]\n\
(all days merged; --day N selects one day's page;\n\
--by-worker appends per-worker provenance counters)\n\
cluster    multi-process sweep roles:\n\
cluster serve --bind ADDR --archive DIR  (manager)\n\
cluster agent --connect ADDR [--name S]  (worker)\n\
ADDRs containing '/' are Unix sockets, else TCP\n\
stream     incremental analysis over an archive measured with\n\
--stream (replays the persisted checkpoint pages):\n\
stream status <path> [--json]  days, per-provider\n\
distinct estimates, attack flags\n\
stream check <path>   verify the streamed state\n\
equals a full dps-core rescan\n\
stream correlate <path>  score attack flags against\n\
scenario ground truth (pass the same\n\
--seed/--scale/--days/--cc-start\n\
the archive was measured with)\n\
\n\
options:\n\
--seed N       world seed           (default 2016)\n\
--scale X      population scale     (default 1.0 = 1/1000 real)\n\
--days N       study length         (default 550)\n\
--cc-start N   .nl/Alexa start day  (default 366)\n\
--stride N     measure every Nth day (default 1)\n\
--day N        day for simulate/dig (default 0)\n\
--out DIR      output directory     (default target/dpscope)\n\
--archive DIR  measurement archive directory\n\
--source N     store cat: source id (0=com 1=net 2=org 3=nl 4=alexa)\n\
--cols A,B     store cat: project these columns only\n\
--chaos SPEC   measure: sweep over the simulated wire under a\n\
scripted fault schedule, e.g.\n\
'degrade@0..inf@loss=0.15; blackout@5s..20s@10.0.0.1'\n\
(commits and resumes per day like the bulk sweep;\n\
works with --stream and --shards, not --workers)\n\
--stream       measure: maintain incremental analysis at each\n\
day's commit and checkpoint it in the archive\n\
(works with --workers and with --chaos)\n\
--shards N     measure: write a sharded archive (manifest + N\n\
shard files; scans parallelise per shard) when\n\
creating a fresh one; resume keeps the existing\n\
layout (default 1 = single-file archive.dps)\n\
--workers N    measure: sweep with N local worker-agent processes\n\
over a Unix socket (archive stays byte-identical)\n\
--bind ADDR    cluster serve: listen address\n\
--min-workers N  cluster serve: hold leases until N agents have\n\
joined (late fleets all participate; default 0)\n\
--connect ADDR cluster agent: manager address\n\
--name S       cluster agent: display name for provenance\n\
--zones DIR    serve: directory of *.zone files (stem = origin)\n\
--udp ADDR     serve: UDP listen address (default 127.0.0.1:0)\n\
--tcp ADDR     serve: TCP listen address (default 127.0.0.1:0)\n\
--iters N      fuzz: iterations per target (default 100000)\n\
--server URL   dig: real server, udp://host:port or tcp://host:port\n\
\n\
";

#[test]
fn help_exits_2_and_matches_snapshot() {
    let out = Command::new(env!("CARGO_BIN_EXE_dpscope"))
        .arg("--help")
        .output()
        .expect("spawn dpscope --help");
    assert_eq!(out.status.code(), Some(2), "--help exits 2");
    assert!(out.stdout.is_empty(), "help goes to stderr");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let (prefix, ids) = stderr
        .split_once("analyze ids:")
        .expect("help ends with the analyze id list");
    assert_eq!(
        prefix, HELP_SNAPSHOT,
        "help text drifted; update the snapshot"
    );
    assert!(ids.contains("table1") && ids.contains("all"), "{ids}");
}

#[test]
fn unknown_command_prints_the_same_help() {
    let out = Command::new(env!("CARGO_BIN_EXE_dpscope"))
        .arg("no-such-command")
        .output()
        .expect("spawn dpscope");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: dpscope"));
}
