//! The analysis engine: walks sources, runs rules, resolves waivers.
//!
//! Since PR 9 the engine is multi-file at its core: [`analyze_sources`]
//! lexes every file, runs the per-file lexical rules, then builds the
//! workspace symbol index and call graph and runs the inter-procedural
//! flow passes (ingress taint, lock order). Flow findings are attributed
//! back to their file and resolved against that file's waivers exactly
//! like lexical ones. [`analyze_source`] is the single-file special
//! case — with no ingress roots in sight the flow passes are silent, so
//! per-file behaviour is unchanged.

use crate::callgraph::Graph;
use crate::context;
use crate::lexer;
use crate::policy::{self, BinPackages, Mode};
use crate::rules::{self, Family, RawViolation, Severity};
use crate::symbols::{self, FileSymbols};
use crate::waiver::{parse_waivers, Waiver};
use crate::{locks, taint};
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

/// One reported finding, after waiver resolution.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id.
    pub rule: &'static str,
    /// Effective severity.
    pub severity: Severity,
    /// Human message.
    pub message: String,
}

/// Per-file intermediate state between the lexical and flow passes.
struct Prep {
    rel: String,
    waivers: Vec<Waiver>,
    /// Lexical violations under the file's policy, plus flow violations
    /// attributed to this file.
    raw: Vec<RawViolation>,
    /// Scope-blind panic-safety sites, input to the taint pass.
    panic_sites: Vec<RawViolation>,
}

fn prep_file(rel: &str, src: &str, mode: Mode, bins: &BinPackages) -> (Prep, FileSymbols) {
    let file_policy = policy::for_path(rel, mode, bins);
    let lexed = lexer::lex(src);
    let ctx = context::scan(&lexed);

    // Comments inside test-only regions carry no weight: rules are off
    // there, so waivers there could only ever be stale.
    let live_comments: Vec<_> = lexed
        .comments
        .iter()
        .filter(|c| !ctx.line_skipped(c.line))
        .cloned()
        .collect();
    let waivers = parse_waivers(&live_comments);

    let raw = rules::check(
        &lexed,
        &ctx,
        &file_policy.families,
        file_policy.print_allowed,
    );
    let panic_sites = if file_policy.families.contains(&Family::PanicSafety) {
        raw.iter()
            .filter(|v| rules::rule(v.rule).is_some_and(|r| r.family == Family::PanicSafety))
            .cloned()
            .collect()
    } else {
        rules::check(&lexed, &ctx, &[Family::PanicSafety], true)
    };
    let syms = symbols::extract(&lexed, &ctx);
    (
        Prep {
            rel: rel.to_owned(),
            waivers,
            raw,
            panic_sites,
        },
        syms,
    )
}

/// Analyses a set of files together: per-file lexical rules, then the
/// inter-procedural flow passes over the combined call graph, then
/// waiver resolution per file. `Cargo.toml` manifests in the set are not
/// analysed; they only mark standalone binary packages (see
/// [`BinPackages`]).
pub fn analyze_sources(files: &[(String, String)], mode: Mode) -> Vec<Finding> {
    let bins = BinPackages::find(files);
    let mut preps = Vec::with_capacity(files.len());
    let mut symfiles: Vec<(String, FileSymbols)> = Vec::with_capacity(files.len());
    for (rel, src) in rust_sources(files) {
        let (p, syms) = prep_file(rel, src, mode, &bins);
        symfiles.push((rel.clone(), syms));
        preps.push(p);
    }

    let graph = Graph::build(&symfiles);
    let panic_sites: Vec<Vec<RawViolation>> = preps.iter().map(|p| p.panic_sites.clone()).collect();
    let tainted = taint::run(&graph, &panic_sites, &bins);
    let lock_findings = locks::run(&graph, &tainted.roots, &bins);
    for (fi, v) in tainted.findings.into_iter().chain(lock_findings) {
        preps[fi].raw.push(v);
    }

    let mut findings = Vec::new();
    for p in &preps {
        resolve(p, &mut findings);
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    findings
}

/// Waiver resolution and bookkeeping for one prepared file.
fn resolve(p: &Prep, findings: &mut Vec<Finding>) {
    let mut used = vec![false; p.waivers.len()];
    for v in &p.raw {
        let waived = p.waivers.iter().enumerate().any(|(i, w)| {
            if !applies(w, v.rule, v.line) {
                return false;
            }
            used[i] = true;
            true
        });
        if waived {
            continue;
        }
        let severity = rules::rule(v.rule).map_or(Severity::Deny, |r| r.severity);
        findings.push(Finding {
            path: p.rel.clone(),
            line: v.line,
            rule: v.rule,
            severity,
            message: v.message.clone(),
        });
    }

    // Waiver bookkeeping: missing reasons, unknown rules, stale waivers.
    for (i, w) in p.waivers.iter().enumerate() {
        if rules::rule(&w.rule).is_none() {
            findings.push(Finding {
                path: p.rel.clone(),
                line: w.line,
                rule: "unknown-rule",
                severity: Severity::Deny,
                message: format!("waiver names unknown rule `{}`", w.rule),
            });
            continue;
        }
        if w.reason.is_none() {
            findings.push(Finding {
                path: p.rel.clone(),
                line: w.line,
                rule: "waiver-without-reason",
                severity: Severity::Deny,
                message: format!(
                    "waiver for `{}` is missing its reason = \"…\" string and suppresses nothing",
                    w.rule
                ),
            });
            continue;
        }
        if !used[i] {
            findings.push(Finding {
                path: p.rel.clone(),
                line: w.line,
                rule: "unused-waiver",
                severity: Severity::Warn,
                message: format!("waiver for `{}` matched no violation; delete it", w.rule),
            });
        }
    }
}

/// Analyses one file's source text under the given mode. Flow passes run
/// over the single-file graph — silent unless the file itself contains
/// ingress roots.
pub fn analyze_source(rel_path: &str, src: &str, mode: Mode) -> Vec<Finding> {
    analyze_sources(&[(rel_path.to_owned(), src.to_owned())], mode)
}

/// The ingress surface of a file set: workspace-relative paths holding
/// at least one taint-reached function. Used by tests and tooling to
/// compare the *derived* surface against the hand-written scope.
pub fn ingress_surface(files: &[(String, String)]) -> BTreeSet<String> {
    let symfiles: Vec<(String, FileSymbols)> = rust_sources(files)
        .map(|(rel, src)| {
            let lexed = lexer::lex(src);
            let ctx = context::scan(&lexed);
            (rel.clone(), symbols::extract(&lexed, &ctx))
        })
        .collect();
    let graph = Graph::build(&symfiles);
    let panic_sites = vec![Vec::new(); symfiles.len()];
    let tainted = taint::run(&graph, &panic_sites, &BinPackages::find(files));
    tainted
        .reached_files
        .into_iter()
        .map(|fi| symfiles[fi].0.clone())
        .collect()
}

/// The Rust sources of a file set (everything but its manifests).
fn rust_sources(files: &[(String, String)]) -> impl Iterator<Item = &(String, String)> {
    files.iter().filter(|(rel, _)| rel.ends_with(".rs"))
}

/// A waiver only suppresses when it is fully formed (known rule + reason)
/// and its scope covers the violation.
fn applies(w: &Waiver, rule: &str, line: u32) -> bool {
    if w.reason.is_none() || rules::rule(&w.rule).is_none() || w.rule != rule {
        return false;
    }
    w.file_level || w.target_line == line || w.line == line
}

/// Recursively collects `.rs` files and `Cargo.toml` manifests under
/// `root`, excluding build artefacts, vendored crates and the analyzer's
/// own fixture corpus. Paths come back sorted so reports (and JSON
/// output) are stable.
pub fn collect_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let rel = rel_path(root, &path);
            if policy::excluded(&rel) {
                continue;
            }
            if entry.file_type()?.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs")
                || path.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Workspace-relative path with `/` separators.
pub fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let mut s = String::new();
    for part in rel.components() {
        if !s.is_empty() {
            s.push('/');
        }
        s.push_str(&part.as_os_str().to_string_lossy());
    }
    s
}

/// Reads every source under `root` as `(relative path, text)` pairs.
pub fn read_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    for path in collect_sources(root)? {
        let src = std::fs::read_to_string(&path)?;
        out.push((rel_path(root, &path), src));
    }
    Ok(out)
}

/// Analyses every source under `root` with the workspace policy,
/// including the inter-procedural flow passes over the whole tree.
pub fn analyze_workspace(root: &Path, mode: Mode) -> io::Result<Vec<Finding>> {
    Ok(analyze_sources(&read_sources(root)?, mode))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find(src: &str) -> Vec<Finding> {
        analyze_source("crates/store/src/x.rs", src, Mode::AllRules)
    }

    #[test]
    fn waiver_with_reason_suppresses() {
        let src = "// dps: allow(unordered-collection, reason = \"keyed lookup only\")\n\
                   use std::collections::HashMap;\nfn f() {}";
        let got = find(src);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn waiver_without_reason_reports_both() {
        let src = "// dps: allow(unordered-collection)\n\
                   use std::collections::HashMap;\nfn f() {}";
        let rules: Vec<_> = find(src).iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"unordered-collection"), "{rules:?}");
        assert!(rules.contains(&"waiver-without-reason"), "{rules:?}");
    }

    #[test]
    fn unknown_rule_waiver_flagged() {
        let src = "// dps: allow(made-up, reason = \"x\")\nfn f() {}";
        let rules: Vec<_> = find(src).iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["unknown-rule"]);
    }

    #[test]
    fn unused_waiver_flagged() {
        let src = "// dps: allow(wall-clock, reason = \"simulated clock only\")\nfn f() {}";
        let rules: Vec<_> = find(src).iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["unused-waiver"]);
    }

    #[test]
    fn file_level_waiver_covers_every_line() {
        let src = "// dps: allow-file(unordered-collection, reason = \"keyed lookup only\")\n\
                   use std::collections::HashMap;\n\
                   fn f() { let m: HashMap<u8, u8> = HashMap::new(); }";
        let got = find(src);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn trailing_waiver_covers_its_line() {
        let src = "fn f(b: &[u8]) -> u8 {\n\
                   b[0] // dps: allow(slice-index, reason = \"caller checked len\")\n}";
        let got = find(src);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn waivers_in_test_code_are_ignored() {
        let src = "#[cfg(test)]\nmod tests {\n\
                   // dps: allow(wall-clock, reason = \"would be unused\")\n\
                   fn f() {}\n}";
        let got = find(src);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn workspace_mode_scopes_families() {
        let src = "fn f() { let m = std::collections::HashMap::<u8, u8>::new(); x.unwrap(); }";
        // store/src: determinism applies, panic-safety does not (not format.rs).
        let got = analyze_source("crates/store/src/cache.rs", src, Mode::Workspace);
        let rules: Vec<_> = got.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"unordered-collection"));
        assert!(!rules.contains(&"unwrap-expect"));
        // core/src: neither family.
        let got = analyze_source("crates/core/src/flux.rs", src, Mode::Workspace);
        assert!(got.is_empty(), "{got:?}");
    }
}
