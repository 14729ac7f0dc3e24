//! The module policy map: which rule families apply to which workspace
//! paths.
//!
//! Paths are workspace-relative with `/` separators. The map is code, not
//! config, on purpose: the policy *is* part of the invariant and should
//! change only through review, alongside the code it scopes. Fixture
//! checking and tests use [`Mode::AllRules`] to exercise every family
//! regardless of path.

use crate::rules::Family;

/// How to scope rules to a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The workspace policy below.
    Workspace,
    /// Every family, print macros still denied (fixtures, tests).
    AllRules,
}

/// Crates whose non-test sources sit on the persistence or simulation
/// path: anything nondeterministic here can desynchronise same-seed runs
/// or the bytes they archive.
pub const DETERMINISM_SCOPE: &[&str] = &[
    "crates/store/src/",
    "crates/columnar/src/",
    "crates/measure/src/",
    "crates/netsim/src/",
    "crates/ecosystem/src/",
    "crates/telemetry/src/",
    "crates/cluster/src/",
    "crates/stream/src/",
    "crates/fuzz/src/",
];

/// Modules that decode untrusted wire/archive bytes and must be
/// panic-free end to end.
pub const PANIC_SAFETY_SCOPE: &[&str] = &[
    "crates/dns/src/wire.rs",
    "crates/dns/src/message.rs",
    "crates/authdns/src/zonefile.rs",
    "crates/store/src/format.rs",
    "crates/store/src/archive.rs",
    "crates/cluster/src/wire.rs",
    "crates/stream/src/page.rs",
    "crates/serve/src/edns.rs",
    "crates/serve/src/frontend.rs",
    "crates/serve/src/rrl.rs",
    "crates/serve/src/sockets.rs",
    "crates/cluster/src/transport.rs",
    "crates/store/src/writer.rs",
    "crates/measure/src/pipeline.rs",
    "crates/store/src/sharded.rs",
];

/// Files where a read-style call takes in *untrusted* bytes — real
/// sockets and on-disk archives/zones. A function here performing such
/// a read is an ingress root for the taint pass (`// dps: ingress`
/// markers add roots the call graph cannot see, e.g. fuzz targets
/// dispatched through function values).
pub const INGRESS_SCOPE: &[&str] = &[
    "crates/serve/src/sockets.rs",
    "crates/cluster/src/transport.rs",
    "crates/store/src/",
    "crates/authdns/src/zonefile.rs",
];

/// True if `rel` is a declared ingress surface (see [`INGRESS_SCOPE`]).
pub fn in_ingress_scope(rel: &str) -> bool {
    in_scope(rel, INGRESS_SCOPE)
}

/// True if `rel` is covered by the hand-written panic-safety scope.
pub fn in_panic_safety_scope(rel: &str) -> bool {
    in_scope(rel, PANIC_SAFETY_SCOPE)
}

/// Workspace-relative directories (each ending in `/`, the root being
/// `""`) of the standalone binary packages in a file set: packages with a
/// `[workspace]` table of their own and only `[[bin]]` targets, such as a
/// benchmark harness built apart from the workspace. Their modules are
/// binary modules, classified like `src/bin/`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BinPackages(Vec<String>);

impl BinPackages {
    /// Finds them among `(relative path, text)` pairs: every `Cargo.toml`
    /// declaring a `[workspace]`, `[[bin]]` targets and no `[lib]`, whose
    /// package also has no `src/lib.rs` (which Cargo would build as a
    /// library target).
    pub fn find(files: &[(String, String)]) -> Self {
        let dirs = files
            .iter()
            .filter_map(|(rel, text)| {
                let dir = rel.strip_suffix("Cargo.toml")?;
                let lib = format!("{dir}src/lib.rs");
                let is_dir = dir.is_empty() || dir.ends_with('/');
                (is_dir
                    && is_standalone_bin_manifest(text)
                    && !files.iter().any(|(r, _)| *r == lib))
                .then(|| dir.to_owned())
            })
            .collect();
        Self(dirs)
    }

    /// True if `rel` lies inside one of the packages.
    pub fn contains(&self, rel: &str) -> bool {
        self.0.iter().any(|dir| rel.starts_with(dir.as_str()))
    }
}

/// True if `manifest`, the text of a `Cargo.toml`, declares a standalone
/// binary package: a `[workspace]` table, `[[bin]]` targets and no
/// `[lib]` target.
fn is_standalone_bin_manifest(manifest: &str) -> bool {
    let headers: Vec<&str> = manifest
        .lines()
        .map(|line| line.split('#').next().unwrap_or("").trim())
        .filter(|line| line.starts_with('['))
        .collect();
    headers.contains(&"[workspace]") && headers.contains(&"[[bin]]") && !headers.contains(&"[lib]")
}

/// True for modules of a binary target: `src/bin/`, a `main.rs`, or a
/// standalone binary package.
fn binary_module(rel: &str, bins: &BinPackages) -> bool {
    rel.contains("/bin/") || rel.ends_with("/main.rs") || bins.contains(rel)
}

/// True for operator-facing paths the flow passes (taint, locks) leave
/// alone: panics and lock stalls in binaries, benches, examples and
/// integration tests abort a tool run, not a server.
pub fn flow_exempt(rel: &str, bins: &BinPackages) -> bool {
    binary_module(rel, bins)
        || rel.contains("/benches/")
        || rel.contains("/examples/")
        || rel.contains("/tests/")
        || rel.starts_with("examples/")
        || rel.starts_with("tests/")
        || rel.starts_with("crates/bench/")
        || rel.ends_with("build.rs")
}

/// What applies to one file.
#[derive(Debug, Clone)]
pub struct FilePolicy {
    /// Families to run.
    pub families: Vec<Family>,
    /// True if print macros are fine here (binaries, benches, the bench
    /// crate, examples, integration tests).
    pub print_allowed: bool,
}

/// True for paths the analyzer must not scan at all.
pub fn excluded(rel: &str) -> bool {
    rel.starts_with("target/")
        || rel.starts_with("vendor/")
        || rel.starts_with(".git/")
        || rel.contains("/fixtures/")
        || rel.contains("/target/")
}

fn in_scope(rel: &str, scope: &[&str]) -> bool {
    scope
        .iter()
        .any(|p| rel == *p || (p.ends_with('/') && rel.starts_with(p)))
}

/// Resolves the policy for one workspace-relative path; `bins` are the
/// file set's standalone binary packages.
pub fn for_path(rel: &str, mode: Mode, bins: &BinPackages) -> FilePolicy {
    let print_allowed = binary_module(rel, bins)
        || rel.contains("/benches/")
        || rel.contains("/examples/")
        || rel.contains("/tests/")
        || rel.starts_with("examples/")
        || rel.starts_with("tests/")
        || rel.starts_with("crates/bench/");
    if mode == Mode::AllRules {
        return FilePolicy {
            families: vec![
                Family::Determinism,
                Family::PanicSafety,
                Family::Hygiene,
                Family::Meta,
            ],
            print_allowed: false,
        };
    }
    let mut families = vec![Family::Meta];
    if in_scope(rel, DETERMINISM_SCOPE) {
        families.push(Family::Determinism);
    }
    if in_scope(rel, PANIC_SAFETY_SCOPE) {
        families.push(Family::PanicSafety);
    }
    // Hygiene applies to all first-party sources; integration tests,
    // benches and examples are covered too but may print.
    families.push(Family::Hygiene);
    FilePolicy {
        families,
        print_allowed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workspace policy for `rel` in a file set with no standalone
    /// binary packages.
    fn workspace(rel: &str) -> FilePolicy {
        for_path(rel, Mode::Workspace, &BinPackages::default())
    }

    #[test]
    fn determinism_scopes_to_persistence_crates() {
        let p = workspace("crates/store/src/writer.rs");
        assert!(p.families.contains(&Family::Determinism));
        let p = workspace("crates/telemetry/src/lib.rs");
        assert!(p.families.contains(&Family::Determinism));
        let p = workspace("crates/dns/src/wire.rs");
        assert!(!p.families.contains(&Family::Determinism));
        assert!(p.families.contains(&Family::PanicSafety));
    }

    #[test]
    fn cluster_crate_is_scoped() {
        // The whole crate sits on the archive-bytes path; its wire module
        // additionally decodes untrusted socket bytes.
        let p = workspace("crates/cluster/src/scheduler.rs");
        assert!(p.families.contains(&Family::Determinism));
        assert!(!p.families.contains(&Family::PanicSafety));
        let p = workspace("crates/cluster/src/wire.rs");
        assert!(p.families.contains(&Family::Determinism));
        assert!(p.families.contains(&Family::PanicSafety));
        // The transport frames untrusted socket bytes and the archive
        // writer re-reads on-disk bytes: both were flagged by the
        // policy-drift rule and folded into the scope (PR 9).
        for rel in [
            "crates/cluster/src/transport.rs",
            "crates/store/src/writer.rs",
        ] {
            let p = workspace(rel);
            assert!(p.families.contains(&Family::PanicSafety), "{rel}");
        }
    }

    #[test]
    fn sharded_store_is_scoped() {
        // The sharded layer re-reads on-disk manifest/shard bytes on
        // resume (the taint pass flagged its resume path as an ingress
        // root), and trusts the manifest's meta page for shard counts.
        let p = workspace("crates/store/src/sharded.rs");
        assert!(p.families.contains(&Family::PanicSafety));
        assert!(in_ingress_scope("crates/store/src/sharded.rs"));
    }

    #[test]
    fn stream_crate_is_scoped() {
        // Streamed analysis state feeds archived checkpoint bytes; its
        // page module additionally decodes those bytes back on resume.
        let p = workspace("crates/stream/src/engine.rs");
        assert!(p.families.contains(&Family::Determinism));
        assert!(!p.families.contains(&Family::PanicSafety));
        let p = workspace("crates/stream/src/page.rs");
        assert!(p.families.contains(&Family::Determinism));
        assert!(p.families.contains(&Family::PanicSafety));
    }

    #[test]
    fn serve_and_fuzz_crates_are_scoped() {
        // Serve's wire-facing modules parse hostile socket bytes, and the
        // socket plumbing frames them — the taint pass flagged it as an
        // ingress root, so it is scoped too (PR 9 policy-drift fix).
        for rel in [
            "crates/serve/src/edns.rs",
            "crates/serve/src/frontend.rs",
            "crates/serve/src/rrl.rs",
            "crates/serve/src/sockets.rs",
        ] {
            let p = workspace(rel);
            assert!(p.families.contains(&Family::PanicSafety), "{rel}");
        }
        // The fuzzer must be seed-deterministic to reproduce findings.
        let p = workspace("crates/fuzz/src/lib.rs");
        assert!(p.families.contains(&Family::Determinism));
    }

    #[test]
    fn ingress_scope_and_flow_exemptions() {
        let none = BinPackages::default();
        assert!(in_ingress_scope("crates/serve/src/sockets.rs"));
        assert!(in_ingress_scope("crates/store/src/snapshot.rs"));
        assert!(!in_ingress_scope("crates/core/src/growth.rs"));
        assert!(flow_exempt("crates/ecosystem/src/bin/dpscope.rs", &none));
        assert!(flow_exempt("crates/measure/tests/determinism.rs", &none));
        assert!(flow_exempt("crates/bench/benches/telemetry.rs", &none));
        assert!(!flow_exempt("crates/serve/src/sockets.rs", &none));
    }

    #[test]
    fn binaries_and_bench_crate_may_print() {
        for rel in [
            "src/bin/dpscope.rs",
            "crates/bench/src/experiments.rs",
            "crates/bench/benches/store.rs",
            "examples/dig.rs",
            "tests/chaos_sweep.rs",
        ] {
            assert!(workspace(rel).print_allowed, "{rel}");
        }
        assert!(!workspace("crates/measure/src/pipeline.rs").print_allowed);
    }

    #[test]
    fn standalone_bin_packages_are_classified_like_src_bin() {
        let manifest = "[package]\nname = \"harness\"\n\n[workspace]\n\n\
                        [dependencies]\nx = { path = \"../..\" }\n\n\
                        [[bin]] # the only target\nname = \"harness\"\npath = \"src/main.rs\"\n";
        assert!(is_standalone_bin_manifest(manifest));
        let file = |rel: &str, text: &str| (rel.to_owned(), text.to_owned());
        let bins = BinPackages::find(&[
            file("tools/harness/Cargo.toml", manifest),
            file("tools/harness/src/main.rs", ""),
            file("tools/harness/src/load.rs", ""),
        ]);
        let rel = "tools/harness/src/load.rs";
        assert!(for_path(rel, Mode::Workspace, &bins).print_allowed);
        assert!(flow_exempt(rel, &bins));
        assert!(!workspace(rel).print_allowed);
        assert!(!flow_exempt(rel, &BinPackages::default()));
        assert!(!for_path("tools/other/src/load.rs", Mode::Workspace, &bins).print_allowed);
        // Not standalone binary packages: a workspace member, a package
        // with a library target, and one whose `src/lib.rs` Cargo would
        // build as a library.
        assert!(!is_standalone_bin_manifest(
            "[package]\nname = \"m\"\n[[bin]]\nname = \"m\"\n"
        ));
        assert!(!is_standalone_bin_manifest(&format!("{manifest}[lib]\n")));
        let with_lib = BinPackages::find(&[
            file("tools/harness/Cargo.toml", manifest),
            file("tools/harness/src/lib.rs", ""),
        ]);
        assert!(!with_lib.contains(rel));
    }

    #[test]
    fn fixtures_and_vendor_excluded() {
        assert!(excluded("crates/analyzer/fixtures/bad/unwrap.rs"));
        assert!(excluded("vendor/rand/src/lib.rs"));
        assert!(excluded("target/debug/build.rs"));
        assert!(!excluded("crates/dns/src/wire.rs"));
    }
}
