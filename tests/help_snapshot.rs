//! Integration: `dpscope --help` and `dpscope dig` are stable surfaces.
//!
//! The full help text (everything before the build-dependent
//! `analyze ids:` list) is snapshotted verbatim, so any new command or
//! flag must update the help — and any help edit is a reviewed diff
//! here — keeping the documentation from drifting out of sync with the
//! CLI (`metrics --by-worker` and `measure --workers` once did). The
//! snapshot keeps every line's indentation: command descriptions and
//! option explanations are indented under their headings, and a help
//! text built from `\`-continued lines (which drop the next line's
//! leading spaces) would fail here. `dig` over the simulated Internet is
//! deterministic per seed, so its full output for a fixed query set is
//! snapshotted too, virtual elapsed time included.

use std::process::Command;

const HELP_SNAPSHOT: &str = "\
usage: dpscope <command> [options]

commands:
  simulate   export zone files, pfx2as and AS registry for --day
  measure    run the full study, save the archive to --archive
             (resumes from the last committed day if interrupted;
             with --chaos, sweeps over the wire under supervision)
  analyze    regenerate tables/figures (ids or 'all') from --archive
  dig        resolve <name> <type> through the simulated Internet
             (+tries=N and +timeout=MS tune the wire resolver);
             with --server udp://A or tcp://A, query a real DNS
             server over the network instead (+bufsize=N sets the
             EDNS0 size, +noedns sends a classic query; truncated
             UDP answers retry over TCP)
  serve      authoritative DNS over real sockets for the *.zone
             files in --zones (hot-reloaded on change); UDP with
             EDNS0/TC plus TCP fallback, hardened against
             malformed input, floods and slowloris; runs until
             stdin closes
  fuzz       run the deterministic mutation fuzzer against one
             decoder target (or 'all'): fuzz <target> --iters N
             --seed S; corpus under crates/fuzz/corpus/<target>
  store      inspect a single-file archive: store <info|verify|cat> <path>
             (info includes the per-day data-quality summary)
  metrics    dump archived sweep telemetry: metrics <path> [--json]
             (all days merged; --day N selects one day's page;
             --by-worker appends per-worker provenance counters)
  cluster    multi-process sweep roles:
               cluster serve --bind ADDR --archive DIR  (manager)
               cluster agent --connect ADDR [--name S]  (worker)
             ADDRs containing '/' are Unix sockets, else TCP
  stream     incremental analysis over an archive measured with
             --stream (replays the persisted checkpoint pages):
               stream status <path> [--json]  days, per-provider
                              distinct estimates, attack flags
               stream check <path>   verify the streamed state
                              equals a full dps-core rescan
               stream correlate <path>  score attack flags against
                              scenario ground truth (pass the same
                              --seed/--scale/--days/--cc-start
                              the archive was measured with)

options:
  --seed N       world seed           (default 2016)
  --scale X      population scale     (default 1.0 = 1/1000 real)
  --days N       study length         (default 550)
  --cc-start N   .nl/Alexa start day  (default 366)
  --stride N     measure every Nth day (default 1)
  --day N        day for simulate/dig (default 0)
  --out DIR      output directory     (default target/dpscope)
  --archive DIR  measurement archive directory
  --source N     store cat: source id (0=com 1=net 2=org 3=nl 4=alexa)
  --cols A,B     store cat: project these columns only
  --chaos SPEC   measure: sweep over the simulated wire under a
                 scripted fault schedule, e.g.
                 'degrade@0..inf@loss=0.15; blackout@5s..20s@10.0.0.1'
                 (commits and resumes per day like the bulk sweep;
                 works with --stream and --shards, not --workers)
  --stream       measure: maintain incremental analysis at each
                 day's commit and checkpoint it in the archive
                 (works with --workers and with --chaos)
  --shards N     measure: write a sharded archive (manifest + N
                 shard files; scans parallelise per shard) when
                 creating a fresh one; resume keeps the existing
                 layout (default 1 = single-file archive.dps)
  --workers N    measure: sweep with N local worker-agent processes
                 over a Unix socket (archive stays byte-identical)
  --bind ADDR    cluster serve: listen address
  --min-workers N  cluster serve: hold leases until N agents have
                 joined (late fleets all participate; default 0)
  --connect ADDR cluster agent: manager address
  --name S       cluster agent: display name for provenance
  --zones DIR    serve: directory of *.zone files (stem = origin)
  --udp ADDR     serve: UDP listen address (default 127.0.0.1:0)
  --tcp ADDR     serve: TCP listen address (default 127.0.0.1:0)
  --iters N      fuzz: iterations per target (default 100000)
  --server URL   dig: real server, udp://host:port or tcp://host:port

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

/// `dpscope dig` at seed 2016, scale 0.01, day 30: an apex `A`, a `www`
/// CNAME chain onto a DPS edge, `NS`, an NXDOMAIN name under a live
/// domain, a domain deleted before day 30, and a one-try 1 ms query that
/// times out.
const DIG_SNAPSHOT: &[(&str, &str)] = &[
    (
        "d1.com A",
        "; <<>> dpscope dig <<>> d1.com. A @day 30
;; status: NOERROR, elapsed: 223536 µs (virtual)
d1.com. 300 IN A 30.5.103.247
",
    ),
    (
        "www.d10.com A",
        "; <<>> dpscope dig <<>> www.d10.com. A @day 30
;; status: NOERROR, elapsed: 299139 µs (virtual)
www.d10.com. 300 IN CNAME d10.ultradns.net.
d10.ultradns.net. 300 IN A 20.57.30.250
",
    ),
    (
        "d1.com NS",
        "; <<>> dpscope dig <<>> d1.com. NS @day 30
;; status: NOERROR, elapsed: 223536 µs (virtual)
d1.com. 300 IN NS ns1.hostco5.net.
d1.com. 300 IN NS ns2.hostco5.net.
",
    ),
    (
        "nope.d1.com A",
        "; <<>> dpscope dig <<>> nope.d1.com. A @day 30
;; status: NXDOMAIN, elapsed: 223536 µs (virtual)
",
    ),
    (
        "d127.com A",
        "; <<>> dpscope dig <<>> d127.com. A @day 30
;; status: NXDOMAIN, elapsed: 41792 µs (virtual)
",
    ),
    (
        "d1.com A +tries=1 +timeout=1",
        "; <<>> dpscope dig <<>> d1.com. A @day 30
;; resolution failed: all servers timed out (cause: timeout)
",
    ),
];

#[test]
fn dig_output_matches_snapshot() {
    for (query, expected) in DIG_SNAPSHOT {
        let out = Command::new(env!("CARGO_BIN_EXE_dpscope"))
            .arg("dig")
            .args(query.split(' '))
            .args(["--seed", "2016", "--scale", "0.01", "--day", "30"])
            .output()
            .expect("spawn dpscope dig");
        assert!(out.status.success(), "dig {query}: {out:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            *expected,
            "dig {query} output drifted"
        );
    }
}
