//! Integration: the real `dpscope` binary running a multi-process
//! cluster sweep over Unix sockets produces an archive byte-identical
//! to its own single-process sweep, with per-worker provenance, and a
//! killed manager resumes to the same bytes.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const SCENARIO: [&str; 8] = [
    "--seed",
    "2016",
    "--scale",
    "0.004",
    "--days",
    "3",
    "--cc-start",
    "2",
];

fn dpscope() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dpscope"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dps-it-cluster-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn run_measure(archive: &Path, extra: &[&str]) {
    let status = dpscope()
        .arg("measure")
        .args(SCENARIO)
        .args(["--archive", archive.to_str().expect("utf8 path")])
        .args(extra)
        .status()
        .expect("spawn dpscope measure");
    assert!(status.success(), "dpscope measure {extra:?} failed");
}

fn archive_bytes(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join("archive.dps")).expect("read archive.dps")
}

#[test]
fn forked_two_worker_sweep_is_byte_identical_with_provenance() {
    let single = temp_dir("single");
    let multi = temp_dir("multi");
    run_measure(&single, &[]);
    // --workers forks two real agent processes connected over a Unix
    // socket in the archive directory.
    run_measure(&multi, &["--workers", "2"]);
    assert_eq!(
        archive_bytes(&single),
        archive_bytes(&multi),
        "cluster archive must be byte-identical to the single-process run"
    );

    let provenance =
        std::fs::read_to_string(multi.join("provenance.tsv")).expect("provenance sidecar");
    assert!(
        provenance.lines().any(|l| l.contains("local-")),
        "provenance records forked-worker leases:\n{provenance}"
    );

    // Per-worker metrics ride the provenance sidecar; the default
    // rendering (no flag) must stay untouched by the worker dimension.
    let plain = dpscope()
        .arg("metrics")
        .arg(&multi)
        .output()
        .expect("dpscope metrics");
    assert!(plain.status.success());
    let plain_text = String::from_utf8_lossy(&plain.stdout).into_owned();
    assert!(!plain_text.contains("worker=\""), "{plain_text}");

    let labeled = dpscope()
        .arg("metrics")
        .arg(&multi)
        .arg("--by-worker")
        .output()
        .expect("dpscope metrics --by-worker");
    assert!(labeled.status.success());
    let labeled_text = String::from_utf8_lossy(&labeled.stdout).into_owned();
    assert!(
        labeled_text.contains("cluster.rows{worker=\"local-"),
        "{labeled_text}"
    );

    std::fs::remove_dir_all(&single).ok();
    std::fs::remove_dir_all(&multi).ok();
}

#[test]
fn explicit_serve_and_agents_over_unix_socket_match_single_process() {
    let single = temp_dir("serve-single");
    let served = temp_dir("serve-multi");
    run_measure(&single, &[]);

    std::fs::create_dir_all(&served).expect("archive dir");
    let sock = served.join("cluster.sock");
    let sock_arg = sock.to_str().expect("utf8 path").to_owned();
    // --min-workers holds leases until both agents have joined, so a
    // slow-starting agent on a loaded machine cannot miss the whole
    // sweep (and then fail to connect after the manager exits).
    let mut manager = dpscope()
        .arg("cluster")
        .arg("serve")
        .args(SCENARIO)
        .args(["--bind", &sock_arg])
        .args(["--archive", served.to_str().expect("utf8 path")])
        .args(["--min-workers", "2"])
        .spawn()
        .expect("spawn cluster serve");

    // Agents retry the connect internally until the manager is up.
    let agents: Vec<Child> = (0..2)
        .map(|i| {
            dpscope()
                .arg("cluster")
                .arg("agent")
                .args(["--connect", &sock_arg])
                .args(["--name", &format!("ext-{i}")])
                .spawn()
                .expect("spawn cluster agent")
        })
        .collect();

    let status = manager.wait().expect("manager exit");
    assert!(status.success(), "cluster serve failed");
    for mut agent in agents {
        let status = agent.wait().expect("agent exit");
        assert!(status.success(), "cluster agent failed");
    }

    assert_eq!(
        archive_bytes(&single),
        archive_bytes(&served),
        "served archive must be byte-identical to the single-process run"
    );
    let provenance =
        std::fs::read_to_string(served.join("provenance.tsv")).expect("provenance sidecar");
    for agent in ["ext-0", "ext-1"] {
        assert!(
            provenance.lines().any(|l| l.contains(agent)),
            "quorum-gated sweep must lease to {agent}:\n{provenance}"
        );
    }

    std::fs::remove_dir_all(&single).ok();
    std::fs::remove_dir_all(&served).ok();
}

/// The archive files of a sweep directory (manifest and shard files, or
/// the single `archive.dps`), sorted by name.
fn archive_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read archive dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "dps" || x == "manifest"))
        .map(|p| {
            let name = p
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            (name, std::fs::read(&p).expect("read archive file"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn forked_sweep_honours_shards() {
    let single = temp_dir("shards-single");
    let multi = temp_dir("shards-multi");
    run_measure(&single, &["--shards", "3"]);
    run_measure(&multi, &["--workers", "2", "--shards", "3"]);
    let want = archive_files(&single);
    let got = archive_files(&multi);
    let names: Vec<&str> = got.iter().map(|(n, _)| n.as_str()).collect();
    assert!(
        names.contains(&"archive.manifest") && names.len() == 4,
        "--workers 2 --shards 3 must write a manifest and three shards: {names:?}"
    );
    assert_eq!(
        want.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        got.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "same archive files"
    );
    for ((name, a), (_, b)) in want.iter().zip(&got) {
        assert!(
            a == b,
            "{name} differs between the cluster and single-process runs"
        );
    }
    std::fs::remove_dir_all(&single).ok();
    std::fs::remove_dir_all(&multi).ok();
}

/// A longer scenario than [`SCENARIO`], so a manager can be killed with
/// some days committed and some still to sweep.
const LONG_SCENARIO: [&str; 8] = [
    "--seed",
    "2016",
    "--scale",
    "0.02",
    "--days",
    "20",
    "--cc-start",
    "10",
];

fn run_long_measure(archive: &Path, extra: &[&str]) {
    let status = dpscope()
        .arg("measure")
        .args(LONG_SCENARIO)
        .args(["--archive", archive.to_str().expect("utf8 path")])
        .args(extra)
        .stdout(Stdio::null())
        .status()
        .expect("spawn dpscope measure");
    assert!(status.success(), "dpscope measure {extra:?} failed");
}

/// A `measure --workers 2` manager SIGKILLed once a day is durable
/// leaves agents that exit on their own, and re-running the same
/// command resumes to the single-process sweep's bytes.
#[test]
fn killed_cluster_manager_resumes_byte_identically() {
    let single = temp_dir("kill-single");
    let resumed = temp_dir("kill-resumed");
    run_long_measure(&single, &[]);

    std::fs::create_dir_all(&resumed).expect("archive dir");
    // The agents inherit the manager's stdout, so the pipe reaches EOF
    // only once the manager and every agent have exited.
    let mut manager = dpscope()
        .arg("measure")
        .args(LONG_SCENARIO)
        .args(["--archive", resumed.to_str().expect("utf8 path")])
        .args(["--workers", "2"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn dpscope measure --workers 2");
    let mut stdout = manager.stdout.take().expect("manager stdout");
    let archive_file = resumed.join("archive.dps");
    loop {
        // Kill only once at least one day's footer is durable: a file
        // with no valid footer yet is indistinguishable from corruption
        // and is (rightly) refused on resume.
        let committed =
            dps_scope::store::Archive::open(&archive_file).map_or(0, |a| a.catalog().pages.len());
        if committed > 0 || manager.try_wait().expect("poll manager").is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    manager.kill().ok();
    manager.wait().ok();

    let (done_tx, done) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut sink = Vec::new();
        stdout.read_to_end(&mut sink).ok();
        done_tx.send(()).ok();
    });
    done.recv_timeout(Duration::from_secs(120))
        .expect("orphaned agents must exit on their own");

    run_long_measure(&resumed, &["--workers", "2"]);
    assert_eq!(
        archive_bytes(&single),
        archive_bytes(&resumed),
        "a resumed cluster archive must be byte-identical to the single-process run"
    );
    std::fs::remove_dir_all(&single).ok();
    std::fs::remove_dir_all(&resumed).ok();
}
