//! Lock-order deadlock lint plus lock-held-across-ingress hazards.
//!
//! Lock identities are textual but qualified: a `self.x` receiver
//! becomes `Crate::Owner::x`, anything else is prefixed with its crate
//! (`dps_telemetry::REGISTRY`). Per function, a *nested pair* `(a, b)`
//! is recorded when `b` is acquired while `a`'s guard region is still
//! open; pairs also propagate transitively — holding `a` across a call
//! whose callee (directly or transitively) acquires `b` yields `(a, b)`
//! too. Unlike the taint pass, everything transitive here walks
//! [`Graph::edges_precise`]: over-approximated method edges would make
//! every `.insert(…)` alias every `insert` impl in the workspace, and a
//! spurious edge in a cycle detector manufactures deadlock candidates
//! instead of merely widening a report.
//!
//! Two rules come out of the pair lattice:
//!
//! * `lock-order` — some pair of code paths acquires the same two locks
//!   in opposite orders (lock-ordering deadlock candidate). One finding
//!   per unordered pair, at the later-appearing direction's first site,
//!   citing the opposite site.
//! * `lock-across-ingress` — a guard is held across a call that
//!   (transitively) performs ingress I/O, or across a direct ingress
//!   read: hostile-paced bytes then control how long the lock is held.
//!
//! Self-pairs (`a` nested under `a`) are skipped: the per-key sharded
//! locks in the workspace make them overwhelmingly false positives, and
//! std mutexes self-deadlock loudly under test anyway.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::callgraph::Graph;
use crate::policy::{self, BinPackages};
use crate::rules::RawViolation;
use crate::symbols::FnSym;

/// One recorded ordered acquisition: lock `first` held while `second`
/// is (possibly transitively) acquired at `(file, line)`.
#[derive(Debug)]
struct Pair {
    first: String,
    second: String,
    file: usize,
    line: u32,
}

/// Runs both lock rules. `roots` are the ingress roots from the taint
/// pass (global fn indices); `bins` are the file set's standalone binary
/// packages.
pub fn run(graph: &Graph, roots: &[usize], bins: &BinPackages) -> Vec<(usize, RawViolation)> {
    let n = graph.fns.len();

    // does_io[gi]: the function is an ingress root or can reach one —
    // reverse BFS from the roots.
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (gi, outs) in graph.edges_precise.iter().enumerate() {
        for &m in outs {
            rev[m].push(gi);
        }
    }
    let mut does_io = vec![false; n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &r in roots {
        if !does_io[r] {
            does_io[r] = true;
            queue.push_back(r);
        }
    }
    while let Some(x) = queue.pop_front() {
        for &p in &rev[x] {
            if !does_io[p] {
                does_io[p] = true;
                queue.push_back(p);
            }
        }
    }

    // acquires[gi]: every lock identity the function may take, directly
    // or through calls — forward fixpoint over the call graph.
    let mut acquires: Vec<BTreeSet<String>> = (0..n)
        .map(|gi| {
            graph
                .sym(gi)
                .locks
                .iter()
                .map(|l| identity(graph, gi, &l.receiver))
                .collect()
        })
        .collect();
    loop {
        let mut changed = false;
        for gi in 0..n {
            let mut add: Vec<String> = Vec::new();
            for &callee in &graph.edges_precise[gi] {
                for id in &acquires[callee] {
                    if !acquires[gi].contains(id) {
                        add.push(id.clone());
                    }
                }
            }
            if !add.is_empty() {
                changed = true;
                acquires[gi].extend(add);
            }
        }
        if !changed {
            break;
        }
    }

    let mut pairs: Vec<Pair> = Vec::new();
    let mut ingress_hazards: Vec<(usize, RawViolation)> = Vec::new();

    for gi in 0..n {
        let (fi, _) = graph.fns[gi];
        let rel = graph.path(gi);
        if policy::flow_exempt(rel, bins) {
            continue;
        }
        let f = graph.sym(gi);
        for (li, outer) in f.locks.iter().enumerate() {
            let outer_id = identity(graph, gi, &outer.receiver);
            // Direct nesting: a later acquisition inside the region.
            for inner in f.locks.iter().skip(li + 1) {
                if inner.line < outer.line || inner.line > outer.end_line {
                    continue;
                }
                let inner_id = identity(graph, gi, &inner.receiver);
                if inner_id != outer_id {
                    pairs.push(Pair {
                        first: outer_id.clone(),
                        second: inner_id,
                        file: fi,
                        line: inner.line,
                    });
                }
            }
            // Calls made while the guard is held: transitive acquires
            // and transitive ingress I/O. Call-site edges are matched by
            // callee name since graph edges are per-function.
            let mut cited: BTreeSet<(String, String)> = BTreeSet::new();
            for call in &f.calls {
                if call.line < outer.line || call.line > outer.end_line {
                    continue;
                }
                let Some(cname) = call.path.last() else {
                    continue;
                };
                for &callee in &graph.edges_precise[gi] {
                    if graph.sym(callee).name != *cname {
                        continue;
                    }
                    for id in &acquires[callee] {
                        if *id != outer_id {
                            pairs.push(Pair {
                                first: outer_id.clone(),
                                second: id.clone(),
                                file: fi,
                                line: call.line,
                            });
                        }
                    }
                    if does_io[callee] && cited.insert((outer_id.clone(), cname.clone())) {
                        ingress_hazards.push((
                            fi,
                            RawViolation {
                                rule: "lock-across-ingress",
                                line: call.line,
                                message: format!(
                                    "guard on `{}` (acquired line {}) is held across the \
                                     call to `{}`, which performs ingress I/O",
                                    outer_id, outer.line, cname
                                ),
                            },
                        ));
                    }
                }
            }
            // A direct ingress read while the guard is held.
            for (api, line) in &f.io_reads {
                if *line < outer.line || *line > outer.end_line || *line == outer.line {
                    continue;
                }
                if policy::in_ingress_scope(rel) || f.ingress_marked {
                    ingress_hazards.push((
                        fi,
                        RawViolation {
                            rule: "lock-across-ingress",
                            line: *line,
                            message: format!(
                                "guard on `{}` (acquired line {}) is held across the \
                                 ingress read `{}`",
                                outer_id, outer.line, api
                            ),
                        },
                    ));
                }
            }
        }
    }

    // Order conflicts: both (a, b) and (b, a) observed somewhere.
    let mut by_dir: BTreeMap<(String, String), (usize, u32)> = BTreeMap::new();
    for p in &pairs {
        let key = (p.first.clone(), p.second.clone());
        let site = (p.file, p.line);
        by_dir
            .entry(key)
            .and_modify(|s| {
                if site < *s {
                    *s = site;
                }
            })
            .or_insert(site);
    }
    let mut findings = Vec::new();
    for ((a, b), &fwd) in &by_dir {
        if a >= b {
            continue;
        }
        let Some(&bwd) = by_dir.get(&(b.clone(), a.clone())) else {
            continue;
        };
        // Report at the later-appearing direction's first site; cite the
        // earlier direction's first site.
        let (report, second, cite) = if fwd <= bwd {
            (bwd, a, fwd)
        } else {
            (fwd, b, bwd)
        };
        let other = if second == a { b } else { a };
        findings.push((
            report.0,
            RawViolation {
                rule: "lock-order",
                line: report.1,
                message: format!(
                    "inconsistent lock order: `{second}` is acquired while `{other}` is \
                     held here, but the opposite order is taken at {}:{} (deadlock candidate)",
                    graph.files[cite.0].0, cite.1
                ),
            },
        ));
    }
    findings.extend(ingress_hazards);
    findings
}

/// Qualifies a receiver into a workspace-unique-ish lock identity.
fn identity(graph: &Graph, gi: usize, receiver: &str) -> String {
    let rel = graph.path(gi);
    let crate_name = crate::callgraph::module_path(rel)
        .first()
        .cloned()
        .unwrap_or_else(|| "workspace".to_owned());
    let f: &FnSym = graph.sym(gi);
    if let Some(rest) = receiver.strip_prefix("self.") {
        match &f.owner {
            Some(o) => format!("{crate_name}::{o}::{rest}"),
            None => format!("{crate_name}::{rest}"),
        }
    } else {
        format!("{crate_name}::{receiver}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context;
    use crate::lexer::lex;
    use crate::symbols::{self, FileSymbols};
    use crate::taint;

    fn fired(files: &[(&str, &str)]) -> Vec<(String, &'static str, u32, String)> {
        let syms: Vec<(String, FileSymbols)> = files
            .iter()
            .map(|(rel, src)| {
                let l = lex(src);
                let ctx = context::scan(&l);
                ((*rel).to_owned(), symbols::extract(&l, &ctx))
            })
            .collect();
        let g = Graph::build(&syms);
        let none = BinPackages::default();
        let roots = taint::roots(&g, &none);
        run(&g, &roots, &none)
            .into_iter()
            .map(|(fi, v)| (syms[fi].0.clone(), v.rule, v.line, v.message))
            .collect()
    }

    #[test]
    fn reversed_direct_nesting_is_flagged_once() {
        let src = "struct S;\nimpl S {\n\
                   fn ab(&self) {\nlet a = self.a.lock();\nlet b = self.b.lock();\nuse2(&a, &b);\n}\n\
                   fn ba(&self) {\nlet b = self.b.lock();\nlet a = self.a.lock();\nuse2(&a, &b);\n}\n}";
        let got = fired(&[("x.rs", src)]);
        assert_eq!(got.len(), 1, "{got:?}");
        let (_, rule, line, msg) = &got[0];
        assert_eq!(*rule, "lock-order");
        // The a-then-b order appears first (line 5); the reversal is the
        // b-then-a nesting at line 10.
        assert_eq!(*line, 10);
        assert!(msg.contains("x.rs:5"), "{msg}");
    }

    #[test]
    fn consistent_nesting_is_clean() {
        let src = "struct S;\nimpl S {\n\
                   fn f(&self) { let a = self.a.lock(); let b = self.b.lock(); use2(&a, &b); }\n\
                   fn g(&self) { let a = self.a.lock(); let b = self.b.lock(); use2(&a, &b); }\n}";
        assert!(fired(&[("x.rs", src)]).is_empty());
    }

    #[test]
    fn same_receiver_nesting_is_skipped() {
        let src = "struct S;\nimpl S {\n\
                   fn f(&self, k: u8, j: u8) { let a = self.shard(k).lock(); \
                   let b = self.shard(j).lock(); use2(&a, &b); }\n}";
        assert!(fired(&[("x.rs", src)]).is_empty());
    }

    #[test]
    fn transitive_reversal_across_calls() {
        let src = "struct S;\nimpl S {\n\
                   fn outer(&self) {\nlet a = self.a.lock();\nself.inner_b();\n}\n\
                   fn inner_b(&self) {\nlet b = self.b.lock();\nconsume(&b);\n}\n\
                   fn other(&self) {\nlet b = self.b.lock();\nlet a = self.a.lock();\nconsume(&a);\n}\n}";
        let got = fired(&[("x.rs", src)]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].1, "lock-order");
    }

    #[test]
    fn owner_qualification_separates_same_field_names() {
        let files = [
            (
                "crates/a/src/x.rs",
                "struct A;\nimpl A { fn f(&self) { let a = self.inner.lock(); \
                 let b = self.outer.lock(); use2(&a, &b); } }",
            ),
            (
                "crates/b/src/y.rs",
                "struct B;\nimpl B { fn f(&self) { let b = self.outer.lock(); \
                 let a = self.inner.lock(); use2(&a, &b); } }",
            ),
        ];
        // A.inner/A.outer vs B.outer/B.inner: different identities, no
        // conflict.
        assert!(fired(&files).is_empty());
    }

    #[test]
    fn guard_held_across_ingress_call() {
        let src = "// dps: ingress\n\
                   fn pull(s: &UdpSocket, b: &mut [u8]) { let _ = s.recv_from(b); }\n\
                   struct S;\nimpl S {\n\
                   fn hot(&self, s: &UdpSocket, b: &mut [u8]) {\n\
                   let g = self.m.lock();\npull(s, b);\nconsume(&g);\n}\n}";
        let got = fired(&[("x.rs", src)]);
        assert_eq!(got.len(), 1, "{got:?}");
        let (_, rule, line, msg) = &got[0];
        assert_eq!(*rule, "lock-across-ingress");
        assert_eq!(*line, 7);
        assert!(msg.contains("`pull`"), "{msg}");
    }

    #[test]
    fn guard_dropped_before_ingress_call_is_clean() {
        let src = "// dps: ingress\n\
                   fn pull(s: &UdpSocket, b: &mut [u8]) { let _ = s.recv_from(b); }\n\
                   struct S;\nimpl S {\n\
                   fn hot(&self, s: &UdpSocket, b: &mut [u8]) {\n\
                   let g = self.m.lock();\nconsume(&g);\ndrop(g);\npull(s, b);\n}\n}";
        let got = fired(&[("x.rs", src)]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn direct_ingress_read_under_guard() {
        let src = "// dps: ingress\n\
                   fn pump(&self, s: &TcpStream, b: &mut [u8]) {\n\
                   let g = self.state.lock();\nlet _ = s.read_exact(b);\nconsume(&g);\n}";
        let got = fired(&[("x.rs", src)]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].1, "lock-across-ingress");
        assert_eq!(got[0].2, 4);
    }

    #[test]
    fn operator_facing_paths_are_exempt() {
        let src = "struct S;\nimpl S {\n\
                   fn ab(&self) { let a = self.a.lock(); let b = self.b.lock(); use2(&a, &b); }\n\
                   fn ba(&self) { let b = self.b.lock(); let a = self.a.lock(); use2(&a, &b); }\n}";
        assert!(fired(&[("crates/x/src/bin/tool.rs", src)]).is_empty());
    }
}
