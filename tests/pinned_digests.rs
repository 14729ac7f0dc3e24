//! The determinism contract as a table of pinned digests.
//!
//! Every `dpscope measure` mode sweeps the same tiny scenario into its
//! own archive directory, and the length and FNV-1a digest of each file
//! it leaves must equal the pinned row. `analyze all` stdout and every
//! `--out` file are pinned over a single-file and a `--shards 3` archive
//! (the two must agree, so they share one table). A failure names the
//! mode and the file. A change that alters archive or analysis bytes on
//! purpose re-pins the rows it moved and says so.
//!
//! Cluster rows pin `archive.dps` only: `provenance.tsv` records which
//! agent measured what, which depends on scheduling by design.

use std::path::{Path, PathBuf};
use std::process::Command;

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

const CHAOS: &str = "blackout@0..1500ms; degrade@0..inf@loss=0.15";

/// `(file name, length, FNV-1a 64)`.
type Pin = (&'static str, u64, u64);

/// One `measure` mode: its extra arguments and the files it writes.
struct Row {
    args: &'static [&'static str],
    files: &'static [Pin],
}

impl Row {
    fn mode(&self) -> String {
        match self.args {
            [] => "single file".to_owned(),
            args => args.join(" "),
        }
    }

    /// Cluster sweeps also write an unpinned `provenance.tsv`.
    fn cluster(&self) -> bool {
        self.args.contains(&"--workers")
    }
}

const ROWS: &[Row] = &[
    Row {
        args: &[],
        files: &[("archive.dps", 22310, 0x8776e6c22ce34c59)],
    },
    Row {
        args: &["--shards", "3"],
        files: &[
            ("archive.manifest", 1963, 0xfef7b44fbc9aed5e),
            ("archive.shard000.dps", 9102, 0x29f04e4f4b0ac83b),
            ("archive.shard001.dps", 9143, 0x014a1adcbf124133),
            ("archive.shard002.dps", 9355, 0xa1feb2890c023abb),
        ],
    },
    Row {
        args: &["--stream"],
        files: &[("archive.dps", 24557, 0xedc71b525b85d849)],
    },
    Row {
        args: &["--stream", "--shards", "4"],
        files: &[
            ("archive.manifest", 1979, 0x2c7a9b46cb0ad5e6),
            ("archive.shard000.dps", 8059, 0xdfb74d2f81fa2840),
            ("archive.shard001.dps", 8114, 0xfe7f16f2fbc3e7ea),
            ("archive.shard002.dps", 8452, 0xb44c4f7df447a6a7),
            ("archive.shard003.dps", 8734, 0x92dfabe40e01977e),
        ],
    },
    Row {
        args: &["--workers", "2"],
        files: &[("archive.dps", 22310, 0x8776e6c22ce34c59)],
    },
    Row {
        args: &["--chaos", CHAOS],
        files: &[("archive.dps", 22726, 0xb827494064b9b103)],
    },
    Row {
        args: &["--chaos", CHAOS, "--stream", "--shards", "2"],
        files: &[
            ("archive.manifest", 1979, 0xd69bc8b4e568bb0f),
            ("archive.shard000.dps", 13022, 0x021a45915b72775a),
            ("archive.shard001.dps", 13907, 0x997b22802f5f2d9b),
        ],
    },
];

/// `analyze all` outputs; `stdout` is the command's standard output.
const ANALYZE: &[Pin] = &[
    ("combinations.txt", 1100, 0x1e27f2bc337a0aa6),
    ("fig2.csv", 92, 0x8506111e98e1954c),
    ("fig3.csv", 810, 0x0b03546107e17624),
    ("fig4.csv", 77, 0x2c812647ebdc1303),
    ("fig5.csv", 111, 0x0f748779275f8025),
    ("fig6.csv", 67, 0x472d7367fce43aef),
    ("fig7.csv", 285, 0x728e3065baf18be8),
    ("fig8.csv", 27, 0x20ec16ae548d5441),
    ("mechanisms.txt", 0, 0xcbf29ce484222325),
    ("nsnames.csv", 160, 0x8c92bd10a971dcaa),
    ("stdout", 10608, 0xec24fdfc1c7a2d86),
    ("table1.txt", 486, 0x18dcc95c2ea17f84),
    ("table2.txt", 2424, 0x4af88838935316c1),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn pin_of(name: &str, bytes: &[u8]) -> (String, u64, u64) {
    (name.to_owned(), bytes.len() as u64, fnv1a(bytes))
}

/// Every file in `dir`, sorted by name, as `(name, length, digest)`.
fn digests(dir: &Path) -> Vec<(String, u64, u64)> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().expect("file name").to_string_lossy();
            pin_of(&name, &std::fs::read(&path).expect("read output file"))
        })
        .collect();
    out.sort();
    out
}

/// Mismatches between `got` and `want` for `what`, one line each. With
/// `only_pinned`, files missing from `want` are not reported.
fn compare(what: &str, got: &[(String, u64, u64)], want: &[Pin], only_pinned: bool) -> Vec<String> {
    let mut errors = Vec::new();
    for &(name, len, digest) in want {
        match got.iter().find(|(n, ..)| n == name) {
            None => errors.push(format!("{what}: {name} was not written")),
            Some((_, l, d)) if (*l, *d) != (len, digest) => errors.push(format!(
                "{what}: {name} is {l} bytes, digest {d:#018x}; pinned {len} bytes, {digest:#018x}"
            )),
            Some(_) => {}
        }
    }
    if !only_pinned {
        for (name, len, digest) in got {
            if !want.iter().any(|&(n, ..)| n == name) {
                errors.push(format!(
                    "{what}: unpinned file {name} ({len} bytes, {digest:#018x})"
                ));
            }
        }
    }
    errors
}

fn measure(dir: &Path, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_dpscope"))
        .arg("measure")
        .args(SCENARIO)
        .arg("--archive")
        .arg(dir)
        .args(args)
        .output()
        .expect("spawn dpscope measure");
    assert!(
        out.status.success(),
        "measure {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `analyze all` over `archive`: its stdout plus every `--out` file.
fn analyze(archive: &Path, out_dir: &Path) -> Vec<(String, u64, u64)> {
    let out = Command::new(env!("CARGO_BIN_EXE_dpscope"))
        .arg("analyze")
        .args(SCENARIO)
        .arg("--archive")
        .arg(archive)
        .arg("--out")
        .arg(out_dir)
        .arg("all")
        .output()
        .expect("spawn dpscope analyze");
    assert!(
        out.status.success(),
        "analyze over {} failed: {}",
        archive.display(),
        String::from_utf8_lossy(&out.stderr)
    );
    let mut files = digests(out_dir);
    files.push(pin_of("stdout", &out.stdout));
    files.sort();
    files
}

#[test]
fn every_mode_writes_its_pinned_bytes() {
    let root: PathBuf = std::env::temp_dir().join(format!("dps-it-pinned-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let dir_of = |i: usize| root.join(format!("mode{i}"));
    std::thread::scope(|s| {
        for (i, row) in ROWS.iter().enumerate() {
            let dir = dir_of(i);
            s.spawn(move || measure(&dir, row.args));
        }
    });
    let mut errors = Vec::new();
    let mut report = String::new();
    for (i, row) in ROWS.iter().enumerate() {
        let got = digests(&dir_of(i));
        report.push_str(&format!("  {}:\n", row.mode()));
        for (name, len, digest) in &got {
            report.push_str(&format!("    ({name:?}, {len}, {digest:#018x}),\n"));
        }
        errors.extend(compare(
            &format!("mode {}", row.mode()),
            &got,
            row.files,
            row.cluster(),
        ));
    }
    for (i, what) in [
        (0, "analyze all over a single-file archive"),
        (1, "analyze all over a --shards 3 archive"),
    ] {
        let got = analyze(&dir_of(i), &root.join(format!("analyze{i}")));
        report.push_str(&format!("  {what}:\n"));
        for (name, len, digest) in &got {
            report.push_str(&format!("    ({name:?}, {len}, {digest:#018x}),\n"));
        }
        errors.extend(compare(what, &got, ANALYZE, false));
    }
    std::fs::remove_dir_all(&root).ok();
    assert!(
        errors.is_empty(),
        "outputs differ from the pinned digests:\n{}\nobserved:\n{report}",
        errors.join("\n")
    );
}
