//! Ingress taint/reachability: which functions can see hostile bytes,
//! and do any of them panic?
//!
//! Roots are *derived*, not enumerated: any function performing a
//! read-style call (`recv_from`, `accept`, `read_to_string`, …) inside
//! a file the policy lists as an ingress surface
//! ([`crate::policy::INGRESS_SCOPE`]), plus any function annotated with
//! an own-line `// dps: ingress` marker (fuzz targets whose entry
//! points are reached through function values the call graph cannot
//! see, and fixtures). Taint propagates forward along the
//! conservatively over-approximated call graph; two rules report on the
//! reached set:
//!
//! * `taint-panic` — a lexical panic-safety violation (unwrap/expect,
//!   panic-family macro, unchecked indexing) inside a reached function,
//!   in a file the hand-written panic-safety scope does **not** cover
//!   (covered files are already policed by the lexical family).
//! * `policy-drift` — a file that *contains an ingress root* but is
//!   absent from the panic-safety scope: the strongest possible
//!   evidence (no call-graph approximation involved) that the declared
//!   scope has drifted from the real untrusted-input surface.
//!
//! Operator-facing code (binaries, benches, examples, integration
//! tests) is exempt: panics there abort a tool run, not a server.

use std::collections::BTreeSet;

use crate::callgraph::Graph;
use crate::policy::{self, BinPackages};
use crate::rules::RawViolation;

/// Result of the taint pass.
pub struct TaintOutcome {
    /// `(file index, violation)` pairs, unsorted.
    pub findings: Vec<(usize, RawViolation)>,
    /// Global fn indices of the ingress roots.
    pub roots: Vec<usize>,
    /// File indices containing at least one taint-reached function.
    pub reached_files: BTreeSet<usize>,
}

/// How many call-chain hops a finding message spells out.
const TRACE_CAP: usize = 6;

/// Collects the derived ingress roots of a graph; `bins` are the file
/// set's standalone binary packages.
pub fn roots(graph: &Graph, bins: &BinPackages) -> Vec<usize> {
    let mut out = Vec::new();
    for gi in 0..graph.fns.len() {
        let rel = graph.path(gi);
        if policy::flow_exempt(rel, bins) {
            continue;
        }
        let f = graph.sym(gi);
        if f.ingress_marked || (!f.io_reads.is_empty() && policy::in_ingress_scope(rel)) {
            out.push(gi);
        }
    }
    out
}

/// Runs the taint pass. `panic_sites[i]` holds the lexical panic-safety
/// violations of file `i` (computed scope-blind — that is the point).
pub fn run(graph: &Graph, panic_sites: &[Vec<RawViolation>], bins: &BinPackages) -> TaintOutcome {
    let roots = roots(graph, bins);
    let pred = graph.reach(&roots);

    let mut reached_files = BTreeSet::new();
    for &gi in pred.keys() {
        reached_files.insert(graph.fns[gi].0);
    }

    let mut findings = Vec::new();

    // taint-panic: reached function + lexical panic site, outside the
    // scope the lexical family already polices.
    for (fi, (rel, syms)) in graph.files.iter().enumerate() {
        if policy::flow_exempt(rel, bins) || policy::in_panic_safety_scope(rel) {
            continue;
        }
        for site in &panic_sites[fi] {
            let Some(si) = syms.fn_at_line(site.line) else {
                continue;
            };
            let Some(gi) = graph.id((fi, si)) else {
                continue;
            };
            if !pred.contains_key(&gi) {
                continue;
            }
            findings.push((
                fi,
                RawViolation {
                    rule: "taint-panic",
                    line: site.line,
                    message: format!("{} — {}", site.message, trace(graph, &pred, gi)),
                },
            ));
        }
    }

    // policy-drift: a root-bearing file the panic-safety scope missed.
    let mut drifted = BTreeSet::new();
    for &gi in &roots {
        let (fi, _) = graph.fns[gi];
        let rel = graph.path(gi);
        if policy::in_panic_safety_scope(rel) || !drifted.insert(fi) {
            continue;
        }
        let f = graph.sym(gi);
        findings.push((
            fi,
            RawViolation {
                rule: "policy-drift",
                line: f.line,
                message: format!(
                    "`{}` is an ingress root (reads untrusted bytes) but `{}` is \
                     not in the panic-safety scope; add it or waive with a reason",
                    f.name, rel
                ),
            },
        ));
    }

    TaintOutcome {
        findings,
        roots,
        reached_files,
    }
}

/// Renders the call chain from the root that first reached `gi`.
fn trace(graph: &Graph, pred: &std::collections::BTreeMap<usize, usize>, gi: usize) -> String {
    let mut chain = vec![gi];
    let mut cur = gi;
    while let Some(&p) = pred.get(&cur) {
        if p == cur {
            break;
        }
        chain.push(p);
        cur = p;
    }
    chain.reverse();
    let root = chain.first().copied().unwrap_or(gi);
    let shown: Vec<String> = if chain.len() > TRACE_CAP {
        let mut v: Vec<String> = chain[..2].iter().map(|&c| name(graph, c)).collect();
        v.push("…".to_owned());
        v.extend(chain[chain.len() - 2..].iter().map(|&c| name(graph, c)));
        v
    } else {
        chain.iter().map(|&c| name(graph, c)).collect()
    };
    format!(
        "reachable from ingress root `{}` ({}) via {}",
        name(graph, root),
        graph.path(root),
        shown.join(" → ")
    )
}

fn name(graph: &Graph, gi: usize) -> String {
    let f = graph.sym(gi);
    match &f.owner {
        Some(o) => format!("{}::{}", o, f.name),
        None => f.name.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context;
    use crate::lexer::lex;
    use crate::rules::{self, Family};
    use crate::symbols::{self, FileSymbols};

    fn prep(files: &[(&str, &str)]) -> (Vec<(String, FileSymbols)>, Vec<Vec<RawViolation>>) {
        let mut syms = Vec::new();
        let mut sites = Vec::new();
        for (rel, src) in files {
            let l = lex(src);
            let ctx = context::scan(&l);
            sites.push(rules::check(&l, &ctx, &[Family::PanicSafety], true));
            syms.push(((*rel).to_owned(), symbols::extract(&l, &ctx)));
        }
        (syms, sites)
    }

    fn rules_fired(files: &[(&str, &str)]) -> Vec<(String, &'static str, u32)> {
        let (syms, sites) = prep(files);
        let g = Graph::build(&syms);
        let out = run(&g, &sites, &BinPackages::default());
        out.findings
            .iter()
            .map(|(fi, v)| (syms[*fi].0.clone(), v.rule, v.line))
            .collect()
    }

    #[test]
    fn marked_root_taints_transitively() {
        let fired = rules_fired(&[(
            "x.rs",
            "// dps: ingress\nfn root(b: &[u8]) { mid(b); }\n\
             fn mid(b: &[u8]) { leaf(b); }\n\
             fn leaf(b: &[u8]) -> u8 { b[0] }\n\
             fn island(b: &[u8]) -> u8 { b[1] }",
        )]);
        // leaf's indexing is reached; island's is not. Plus drift for the
        // root-bearing unscoped file.
        assert_eq!(
            fired,
            [
                ("x.rs".to_owned(), "taint-panic", 4),
                ("x.rs".to_owned(), "policy-drift", 2)
            ]
        );
    }

    #[test]
    fn ingress_scope_reads_make_roots_without_markers() {
        let fired = rules_fired(&[
            (
                "crates/serve/src/sockets.rs",
                "fn pump(s: &UdpSocket, b: &mut [u8]) { let _ = s.recv_from(b); decode(b); }",
            ),
            (
                "crates/serve/src/other.rs",
                "pub fn decode(b: &[u8]) -> u8 { b.first().copied().unwrap() }",
            ),
        ]);
        let rules: Vec<_> = fired.iter().map(|(p, r, _)| (p.as_str(), *r)).collect();
        assert!(rules.contains(&("crates/serve/src/other.rs", "taint-panic")));
    }

    #[test]
    fn reads_outside_ingress_scope_are_not_roots() {
        let fired = rules_fired(&[(
            "crates/core/src/growth.rs",
            "fn local(p: &Path) { let s = read_to_string(p); s.bytes().next().unwrap(); }",
        )]);
        assert!(fired.is_empty(), "{fired:?}");
    }

    #[test]
    fn scoped_files_are_left_to_the_lexical_family() {
        let fired = rules_fired(&[(
            "crates/dns/src/wire.rs",
            "// dps: ingress\nfn root(b: &[u8]) -> u8 { b[0] }",
        )]);
        assert!(fired.is_empty(), "{fired:?}");
    }

    #[test]
    fn operator_facing_paths_are_exempt() {
        let fired = rules_fired(&[(
            "crates/ecosystem/src/bin/dpscope.rs",
            "// dps: ingress\nfn root(b: &[u8]) -> u8 { b[0] }",
        )]);
        assert!(fired.is_empty(), "{fired:?}");
    }

    #[test]
    fn trace_names_the_chain() {
        let (syms, sites) = prep(&[(
            "x.rs",
            "// dps: ingress\nfn root(b: &[u8]) { mid(b); }\n\
             fn mid(b: &[u8]) { leaf(b); }\n\
             fn leaf(b: &[u8]) -> u8 { b[0] }",
        )]);
        let g = Graph::build(&syms);
        let out = run(&g, &sites, &BinPackages::default());
        let msg = &out.findings[0].1.message;
        assert!(msg.contains("root` (x.rs) via root → mid → leaf"), "{msg}");
    }

    #[test]
    fn reached_files_cover_the_surface() {
        let (syms, sites) = prep(&[
            (
                "a.rs",
                "// dps: ingress\nfn root(b: &[u8]) { helper::h(b); }",
            ),
            ("b.rs", "mod helper { pub fn h(b: &[u8]) {} }"),
            ("c.rs", "fn unrelated() {}"),
        ]);
        let g = Graph::build(&syms);
        let out = run(&g, &sites, &BinPackages::default());
        assert_eq!(out.reached_files.into_iter().collect::<Vec<_>>(), [0, 1]);
    }
}
