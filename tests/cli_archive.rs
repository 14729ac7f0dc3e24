//! Integration: `dpscope measure` and `dpscope analyze` over archive
//! paths. A bad archive path ends the command with exit code 1 and an
//! error message, never a panic, and `analyze` without `--archive`
//! sweeps into a temporary archive that it removes afterwards. Bad
//! `dig` input is an exit-1 error too, and so is a cluster role that
//! cannot bind its socket or loses its manager, a `simulate` that cannot
//! write its output, and a store or stream read of a corrupt page. A
//! command whose stdout reader goes away exits 0 without a panic.

use std::io::BufRead as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const SCENARIO: [&str; 6] = ["--scale", "0.004", "--days", "3", "--cc-start", "2"];

fn dpscope(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dpscope"));
    cmd.args(args).args(SCENARIO);
    cmd
}

fn run(mut cmd: Command) -> Output {
    cmd.output().expect("spawn dpscope")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dps-it-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn arg(path: &Path) -> &str {
    path.to_str().expect("utf-8 path")
}

/// Exit code 1, an error on stderr, and no panic.
fn assert_clean_failure(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{what}: stderr {stderr}");
    assert!(!stderr.contains("panicked"), "{what} panicked: {stderr}");
    assert!(!stderr.trim().is_empty(), "{what}: no error message");
}

#[test]
fn measure_with_shards_over_a_single_file_archive_fails_cleanly() {
    let dir = temp_dir("reshard");
    let archive = dir.join("archive");
    let out = run(dpscope(&["measure", "--archive", arg(&archive)]));
    assert!(out.status.success(), "first sweep failed");
    let before = std::fs::read(archive.join("archive.dps")).expect("archive written");
    let out = run(dpscope(&[
        "measure",
        "--shards",
        "3",
        "--archive",
        arg(&archive),
    ]));
    assert_clean_failure(&out, "measure --shards 3 over a single-file archive");
    let after = std::fs::read(archive.join("archive.dps")).expect("archive kept");
    assert!(before == after, "the refused sweep changed the archive");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn measure_with_an_archive_under_a_regular_file_fails_cleanly() {
    let dir = temp_dir("measure-file");
    let file = dir.join("file");
    std::fs::write(&file, b"not a directory").expect("write file");
    let out = run(dpscope(&["measure", "--archive", arg(&file.join("sub"))]));
    assert_clean_failure(&out, "measure --archive under a regular file");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_with_an_archive_under_a_regular_file_fails_cleanly() {
    let dir = temp_dir("analyze-file");
    let file = dir.join("file");
    std::fs::write(&file, b"not a directory").expect("write file");
    let out = run(dpscope(&[
        "analyze",
        "--archive",
        arg(&file.join("sub")),
        "--out",
        arg(&dir.join("figs")),
        "table1",
    ]));
    assert_clean_failure(&out, "analyze --archive under a regular file");
    std::fs::remove_dir_all(&dir).ok();
}

/// Without `--archive`, `analyze` sweeps into a temporary archive: the
/// table it writes equals the one from an explicit archive, and the
/// temporary directory it swept into is gone afterwards.
#[test]
fn analyze_without_an_archive_matches_an_archived_run_and_leaves_nothing() {
    let dir = temp_dir("analyze-tmp");
    let archived = dir.join("archived");
    let out = run(dpscope(&[
        "analyze",
        "--archive",
        arg(&dir.join("archive")),
        "--out",
        arg(&archived),
        "table1",
    ]));
    assert!(out.status.success(), "analyze --archive failed");

    let tmp = dir.join("tmp");
    std::fs::create_dir_all(&tmp).expect("create TMPDIR");
    let fresh = dir.join("fresh");
    let mut cmd = dpscope(&["analyze", "--out", arg(&fresh), "table1"]);
    cmd.env("TMPDIR", &tmp);
    let out = run(cmd);
    assert!(out.status.success(), "analyze without --archive failed");

    let want = std::fs::read(archived.join("table1.txt")).expect("archived table1");
    let got = std::fs::read(fresh.join("table1.txt")).expect("fresh table1");
    assert!(want == got, "table1.txt differs without --archive");
    let left: Vec<_> = std::fs::read_dir(&tmp)
        .expect("read TMPDIR")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert!(left.is_empty(), "temporary archive left behind: {left:?}");
    assert!(
        !fresh.join("archive.dps").exists(),
        "archive written into --out"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A one-day sweep has no day on which an adoption change could land;
/// world generation must still succeed and the archive must verify.
#[test]
fn one_day_measure_succeeds_and_verifies() {
    let dir = temp_dir("one-day");
    let archive = dir.join("archive");
    let out = run({
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_dpscope"));
        cmd.args([
            "measure",
            "--scale",
            "0.004",
            "--days",
            "1",
            "--cc-start",
            "1",
        ])
        .args(["--archive", arg(&archive)]);
        cmd
    });
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "measure --days 1: {stderr}");
    assert!(
        !stderr.contains("panicked"),
        "measure --days 1 panicked: {stderr}"
    );
    let mut verify = Command::new(env!("CARGO_BIN_EXE_dpscope"));
    verify.args(["store", "verify", arg(&archive)]);
    let out = run(verify);
    assert!(
        out.status.success(),
        "store verify failed: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Exit code 0 and no panic: a command whose reader went away.
fn assert_quiet_exit(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{what} panicked: {stderr}");
    assert_eq!(out.status.code(), Some(0), "{what}: stderr {stderr}");
}

/// Runs `cmd` with the read end of its stdout pipe closed before it
/// writes a byte, as `cmd | true` does.
fn run_with_closed_stdout(mut cmd: Command) -> Output {
    cmd.stdout(Stdio::piped()).stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn dpscope");
    drop(child.stdout.take());
    child.wait_with_output().expect("wait for dpscope")
}

fn assert_verifies(archive: &Path) {
    let mut verify = Command::new(env!("CARGO_BIN_EXE_dpscope"));
    verify.args(["store", "verify", arg(archive)]);
    let out = run(verify);
    assert!(
        out.status.success(),
        "store verify failed: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// A closed stdout (`dpscope … | head -1`) ends a command with exit 0,
/// never the "failed printing to stdout" panic. A sweep whose reader
/// leaves after the first day line stops there with every committed day
/// intact: the archive verifies, and resuming it writes the bytes of an
/// uninterrupted sweep.
#[test]
fn a_closed_stdout_ends_commands_quietly() {
    let dir = temp_dir("epipe");
    let archive = dir.join("archive");
    let mut cmd = dpscope(&["measure", "--archive", arg(&archive)]);
    cmd.stdout(Stdio::piped()).stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn dpscope");
    let stdout = child.stdout.take().expect("piped stdout");
    let first_day = std::io::BufReader::new(stdout)
        .lines()
        .map_while(Result::ok)
        .find(|line| line.starts_with("day "));
    assert!(first_day.is_some(), "measure printed no day line");
    let out = child.wait_with_output().expect("wait for dpscope");
    assert_quiet_exit(&out, "measure with its reader gone after a day line");
    assert_verifies(&archive);

    let out = run_with_closed_stdout(dpscope(&["store", "info", arg(&archive)]));
    assert_quiet_exit(&out, "store info | true");
    let out = run_with_closed_stdout(dpscope(&["measure", "--archive", arg(&archive)]));
    assert_quiet_exit(&out, "measure | true");
    assert_verifies(&archive);

    let out = run(dpscope(&["measure", "--archive", arg(&archive)]));
    assert!(out.status.success(), "resumed sweep failed");
    let whole = dir.join("whole");
    let out = run(dpscope(&["measure", "--archive", arg(&whole)]));
    assert!(out.status.success(), "uninterrupted sweep failed");
    let resumed = std::fs::read(archive.join("archive.dps")).expect("resumed archive");
    let want = std::fs::read(whole.join("archive.dps")).expect("uninterrupted archive");
    assert!(resumed == want, "the resumed archive differs");
    std::fs::remove_dir_all(&dir).ok();
}

/// `simulate` writes its zone files into `--out`; an `--out` that is a
/// regular file ends the command with a message, never a panic.
#[test]
fn simulate_into_a_regular_file_fails_cleanly() {
    let dir = temp_dir("simulate-file");
    let file = dir.join("file");
    std::fs::write(&file, b"not a directory").expect("write file");
    let out = run(dpscope(&["simulate", "--out", arg(&file)]));
    assert_clean_failure(&out, "simulate --out over a regular file");
    std::fs::remove_dir_all(&dir).ok();
}

/// A single flipped byte in a quality page (caught by its checksum) makes
/// `store info` and `store cat` of that page exit 1 with a message, and a
/// flipped byte in a streaming checkpoint page does the same for
/// `stream status`.
#[test]
fn store_and_stream_reads_of_a_corrupt_page_fail_cleanly() {
    let dir = temp_dir("corrupt-page");
    let archive = dir.join("archive");
    let out = run(dpscope(&[
        "measure",
        "--stream",
        "--archive",
        arg(&archive),
    ]));
    assert!(out.status.success(), "sweep failed");
    let file = archive.join("archive.dps");
    let catalog = dps_scope::store::Archive::open(&file)
        .expect("archive opens")
        .catalog()
        .clone();
    let flip = |source: u8| {
        let meta = catalog
            .pages
            .values()
            .find(|m| m.source == source)
            .expect("archive has such a page");
        let mut bytes = std::fs::read(&file).expect("read archive");
        bytes[meta.offset as usize + 5] ^= 0x40;
        std::fs::write(&file, bytes).expect("write archive");
        meta.day
    };

    let day = flip(dps_scope::measure::QUALITY_SOURCE);
    let out = run(dpscope(&["store", "info", arg(&archive)]));
    assert_clean_failure(&out, "store info over a corrupt quality page");
    let out = run(dpscope(&[
        "store",
        "cat",
        arg(&archive),
        "--day",
        &day.to_string(),
        "--source",
        &dps_scope::measure::QUALITY_SOURCE.to_string(),
    ]));
    assert_clean_failure(&out, "store cat of a corrupt quality page");

    flip(dps_scope::measure::ANALYSIS_SOURCE);
    let out = run(dpscope(&["stream", "status", arg(&archive)]));
    assert_clean_failure(&out, "stream status over a corrupt checkpoint page");
    std::fs::remove_dir_all(&dir).ok();
}

/// `dig` parses its operator input: an unparseable name or RR type ends
/// the command with exit code 1 and a message, never a panic.
#[test]
fn dig_with_a_bad_name_or_type_fails_cleanly() {
    for (name, qtype) in [("a..b", "A"), ("example.com", "BOGUS")] {
        let out = run(dpscope(&["dig", name, qtype]));
        assert_clean_failure(&out, &format!("dig {name} {qtype}"));
    }
}

#[test]
fn cluster_serve_with_an_unbindable_socket_fails_cleanly() {
    let dir = temp_dir("cluster-bind");
    let archive = dir.join("archive");
    for bind in ["/nonexistent-dir/x.sock", "127.0.0.1:99999"] {
        let out = run(dpscope(&[
            "cluster",
            "serve",
            "--bind",
            bind,
            "--archive",
            arg(&archive),
        ]));
        assert_clean_failure(&out, &format!("cluster serve --bind {bind}"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cluster_agent_whose_manager_hangs_up_fails_cleanly() {
    let dir = temp_dir("agent-hangup");
    let sock = dir.join("manager.sock");
    let listener = std::os::unix::net::UnixListener::bind(&sock).expect("bind socket");
    let agent = dpscope(&["cluster", "agent", "--connect", arg(&sock)])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn dpscope cluster agent");
    // Accept the agent's connection, then hang up before the Welcome.
    drop(listener.accept().expect("agent connects"));
    let out = agent.wait_with_output().expect("agent exits");
    assert_clean_failure(&out, "cluster agent after its manager hung up");
    std::fs::remove_dir_all(&dir).ok();
}
