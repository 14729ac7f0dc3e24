//! Workspace call graph over [`crate::symbols`] output.
//!
//! Resolution is deliberately conservative: a call edge is added to
//! every function the call site *could* mean. Method calls (`x.m(…)`)
//! resolve to every impl/trait method named `m` anywhere in the
//! workspace — the over-approximation that keeps dynamic dispatch and
//! unknown receiver types sound for reachability. Path calls
//! (`a::b::f(…)`) resolve by suffix-matching the written qualifier
//! against each candidate's canonical path (crate, file modules, inline
//! modules, owner type). Calls into external crates resolve to nothing
//! and simply terminate propagation.
//!
//! Two edge sets come out of one resolution pass. [`Graph::edges`] is
//! the full over-approximation above, which reachability (taint) wants:
//! a missed path is a missed panic. [`Graph::edges_precise`] keeps only
//! the edges with positive evidence — path-qualified calls, unqualified
//! free calls, and method calls whose name has exactly one impl in the
//! workspace and does not shadow a std method (see `STD_SHADOWED`).
//! The lock lattice runs on the precise set: a spurious edge
//! there doesn't merely widen a report, it *manufactures* deadlock
//! cycles and I/O taints (every `.insert(…)` would alias every `insert`
//! impl in the workspace), so precision is the sound default for it.

use std::collections::{BTreeMap, BTreeSet};

use crate::symbols::{FileSymbols, FnSym};

/// A function's position in the workspace: `(file index, fn index)`.
pub type FnId = (usize, usize);

/// Method names shadowed by std prelude/collection/iterator methods. A
/// call like `.sum()` or `.insert(…)` is overwhelmingly more likely to
/// mean the std method than a workspace impl that happens to share the
/// name, so such a match is never *positive evidence* — the edge stays
/// in the over-approximate set but out of the precise one.
const STD_SHADOWED: &[&str] = &[
    "all",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_str",
    "chain",
    "clear",
    "clone",
    "collect",
    "contains",
    "contains_key",
    "count",
    "drain",
    "ends_with",
    "extend",
    "filter",
    "find",
    "first",
    "flush",
    "fold",
    "from",
    "get",
    "get_mut",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "last",
    "len",
    "map",
    "max",
    "min",
    "next",
    "parse",
    "peek",
    "pop",
    "position",
    "push",
    "read",
    "remove",
    "rev",
    "seek",
    "skip",
    "sort",
    "sort_by",
    "split",
    "starts_with",
    "sum",
    "take",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "write",
    "zip",
];

/// The workspace symbol index plus the resolved call graph.
pub struct Graph<'a> {
    /// `(relative path, symbols)` per file, in the order given.
    pub files: &'a [(String, FileSymbols)],
    /// Flat function list.
    pub fns: Vec<FnId>,
    /// `edges[i]` — indices into `fns` that function `i` may call.
    pub edges: Vec<Vec<usize>>,
    /// Subset of `edges[i]` resolved with positive evidence: path calls
    /// and method calls with a unique workspace candidate.
    pub edges_precise: Vec<Vec<usize>>,
    /// Reverse lookup: `FnId` → index into `fns`.
    index: BTreeMap<FnId, usize>,
}

/// Canonical path of a function: crate and module segments from the
/// file path, inline `mod`s, then the owner type if any. The bare fn
/// name is kept separate.
fn canonical_qualifier(rel: &str, f: &FnSym) -> Vec<String> {
    let mut q = module_path(rel);
    q.extend(f.mods.iter().cloned());
    if let Some(owner) = &f.owner {
        q.push(owner.clone());
    }
    q
}

/// Derives the module path of a file from its workspace-relative path.
/// `crates/dns/src/wire.rs` → `["dps_dns", "wire"]` (crate names carry
/// a `dps-` prefix on disk; both the prefixed and bare forms are kept
/// usable by pushing the directory name too when they differ).
pub fn module_path(rel: &str) -> Vec<String> {
    let parts: Vec<&str> = rel.split('/').collect();
    let mut out = Vec::new();
    // crates/<name>/src/…
    let rest = match parts.as_slice() {
        ["crates", name, "src", rest @ ..] => {
            out.push(format!("dps_{}", name.replace('-', "_")));
            rest
        }
        _ => {
            // Anything else (fixtures, tools): stem-per-directory.
            &parts[..]
        }
    };
    for (i, part) in rest.iter().enumerate() {
        let last = i + 1 == rest.len();
        if last {
            let stem = part.strip_suffix(".rs").unwrap_or(part);
            if stem != "lib" && stem != "main" && stem != "mod" {
                out.push(stem.to_owned());
            }
        } else if *part != "bin" {
            out.push((*part).to_owned());
        }
    }
    out
}

impl<'a> Graph<'a> {
    /// Builds the call graph for a set of analyzed files.
    pub fn build(files: &'a [(String, FileSymbols)]) -> Self {
        let mut fns = Vec::new();
        let mut index = BTreeMap::new();
        for (fi, (_, syms)) in files.iter().enumerate() {
            for (si, _) in syms.fns.iter().enumerate() {
                index.insert((fi, si), fns.len());
                fns.push((fi, si));
            }
        }

        // Name-based candidate indexes.
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (gi, &(fi, si)) in fns.iter().enumerate() {
            let f = &files[fi].1.fns[si];
            by_name.entry(f.name.as_str()).or_default().push(gi);
            if f.owner.is_some() {
                methods.entry(f.name.as_str()).or_default().push(gi);
            }
        }

        let mut edges = vec![Vec::new(); fns.len()];
        let mut edges_precise = vec![Vec::new(); fns.len()];
        for (gi, &(fi, si)) in fns.iter().enumerate() {
            let caller = &files[fi].1.fns[si];
            let caller_qual = canonical_qualifier(&files[fi].0, caller);
            let caller_crate = module_path(&files[fi].0).first().cloned();
            let mut out = BTreeSet::new();
            let mut out_precise = BTreeSet::new();
            for call in &caller.calls {
                let Some(name) = call.path.last() else {
                    continue;
                };
                if call.method {
                    if let Some(cands) = methods.get(name.as_str()) {
                        let them: Vec<usize> = cands.iter().copied().filter(|&c| c != gi).collect();
                        if them.len() == 1 && !STD_SHADOWED.contains(&name.as_str()) {
                            out_precise.insert(them[0]);
                        }
                        out.extend(them);
                    }
                    continue;
                }
                let Some(cands) = by_name.get(name.as_str()) else {
                    continue;
                };
                // Normalise the written qualifier: drop `super`/`self`,
                // rewrite `crate`/`Self` to the caller's own position.
                let mut qual: Vec<String> = Vec::new();
                for seg in &call.path[..call.path.len() - 1] {
                    match seg.as_str() {
                        "super" | "self" => {}
                        "crate" => {
                            if let Some(c) = &caller_crate {
                                qual.push(c.clone());
                            }
                        }
                        "Self" => {
                            if let Some(owner) = &caller.owner {
                                qual.push(owner.clone());
                            }
                        }
                        s => qual.push(s.to_owned()),
                    }
                }
                for &c in cands {
                    if c == gi {
                        continue;
                    }
                    let (cfi, csi) = fns[c];
                    let cand = &files[cfi].1.fns[csi];
                    let cand_qual = canonical_qualifier(&files[cfi].0, cand);
                    if qual.is_empty() {
                        // Unqualified free call: same module first, else
                        // a same-crate free fn. Never a cross-crate or
                        // method match — that would drown the graph.
                        let same_module = cand.owner.is_none() && cand_qual == caller_qual;
                        let same_crate = cand.owner.is_none()
                            && cand_qual.first() == caller_qual.first()
                            && !caller_qual.is_empty();
                        if same_module || same_crate {
                            out.insert(c);
                            out_precise.insert(c);
                        }
                    } else if is_suffix(&qual, &cand_qual) {
                        out.insert(c);
                        out_precise.insert(c);
                    }
                }
            }
            edges[gi] = out.into_iter().collect();
            edges_precise[gi] = out_precise.into_iter().collect();
        }

        Graph {
            files,
            fns,
            edges,
            edges_precise,
            index,
        }
    }

    /// Global index of a function, if it exists.
    pub fn id(&self, fid: FnId) -> Option<usize> {
        self.index.get(&fid).copied()
    }

    /// The function symbol behind global index `gi`.
    pub fn sym(&self, gi: usize) -> &FnSym {
        let (fi, si) = self.fns[gi];
        &self.files[fi].1.fns[si]
    }

    /// The relative path of the file containing global index `gi`.
    pub fn path(&self, gi: usize) -> &str {
        self.fns
            .get(gi)
            .and_then(|&(fi, _)| self.files.get(fi))
            .map_or("<unknown>", |(rel, _)| rel.as_str())
    }

    /// Forward BFS from a root set; returns, per function, the global
    /// index of the predecessor it was first reached through (roots map
    /// to themselves). Unreached functions are absent.
    pub fn reach(&self, roots: &[usize]) -> BTreeMap<usize, usize> {
        let mut pred: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &r in roots {
            if let std::collections::btree_map::Entry::Vacant(e) = pred.entry(r) {
                e.insert(r);
                queue.push_back(r);
            }
        }
        while let Some(n) = queue.pop_front() {
            for &m in &self.edges[n] {
                if let std::collections::btree_map::Entry::Vacant(e) = pred.entry(m) {
                    e.insert(n);
                    queue.push_back(m);
                }
            }
        }
        pred
    }
}

/// True if `qual` is a suffix of `cand_qual` — matching how Rust paths
/// are written relative to some enclosing scope. A single-segment
/// qualifier may also match the *crate* head (`wire::decode` written
/// from a sibling crate's `use dps_dns::wire`).
fn is_suffix(qual: &[String], cand_qual: &[String]) -> bool {
    if qual.len() > cand_qual.len() {
        return false;
    }
    cand_qual.ends_with(qual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context;
    use crate::lexer::lex;
    use crate::symbols;

    fn build_files(files: &[(&str, &str)]) -> Vec<(String, FileSymbols)> {
        files
            .iter()
            .map(|(rel, src)| {
                let l = lex(src);
                let ctx = context::scan(&l);
                ((*rel).to_owned(), symbols::extract(&l, &ctx))
            })
            .collect()
    }

    /// Resolved callee names (path:fn) for the named caller.
    fn callees(files: &[(String, FileSymbols)], caller: &str) -> Vec<String> {
        let g = Graph::build(files);
        let gi = (0..g.fns.len())
            .find(|&i| g.sym(i).name == caller)
            .unwrap_or_else(|| panic!("no fn {caller}"));
        g.edges[gi]
            .iter()
            .map(|&c| format!("{}:{}", g.path(c), g.sym(c).name))
            .collect()
    }

    #[test]
    fn module_paths_from_rel() {
        assert_eq!(module_path("crates/dns/src/lib.rs"), ["dps_dns"]);
        assert_eq!(module_path("crates/dns/src/wire.rs"), ["dps_dns", "wire"]);
        assert_eq!(
            module_path("crates/ecosystem/src/bin/dpscope.rs"),
            ["dps_ecosystem", "dpscope"]
        );
    }

    #[test]
    fn cross_module_path_call() {
        let files = build_files(&[
            (
                "crates/a/src/lib.rs",
                "fn entry() { wire::decode(b); other::decode(b); }",
            ),
            ("crates/a/src/wire.rs", "pub fn decode(b: &[u8]) {}"),
            ("crates/b/src/wire.rs", "pub fn decode(b: &[u8]) {}"),
        ]);
        // `wire::decode` is ambiguous between both crates' `wire`
        // modules — conservatively resolves to both.
        assert_eq!(
            callees(&files, "entry"),
            ["crates/a/src/wire.rs:decode", "crates/b/src/wire.rs:decode"]
        );
    }

    #[test]
    fn crate_qualified_call_resolves_within_crate() {
        let files = build_files(&[
            (
                "crates/a/src/lib.rs",
                "fn entry() { crate::wire::decode(b); }",
            ),
            ("crates/a/src/wire.rs", "pub fn decode(b: &[u8]) {}"),
            ("crates/b/src/wire.rs", "pub fn decode(b: &[u8]) {}"),
        ]);
        assert_eq!(callees(&files, "entry"), ["crates/a/src/wire.rs:decode"]);
    }

    #[test]
    fn unqualified_free_call_stays_in_crate() {
        let files = build_files(&[
            ("crates/a/src/lib.rs", "fn entry() { helper(); }"),
            ("crates/a/src/util.rs", "pub fn helper() {}"),
            ("crates/b/src/lib.rs", "pub fn helper() {}"),
        ]);
        assert_eq!(callees(&files, "entry"), ["crates/a/src/util.rs:helper"]);
    }

    #[test]
    fn method_calls_over_approximate() {
        let files = build_files(&[
            ("crates/a/src/lib.rs", "fn entry(x: &dyn T) { x.parse(); }"),
            (
                "crates/a/src/m.rs",
                "impl A { fn parse(&self) {} }\nfn parse_free() {}",
            ),
            ("crates/b/src/m.rs", "impl B { fn parse(&self) {} }"),
        ]);
        // Every impl method named `parse`, in any crate; never the free fn.
        assert_eq!(
            callees(&files, "entry"),
            ["crates/a/src/m.rs:parse", "crates/b/src/m.rs:parse"]
        );
    }

    #[test]
    fn self_and_type_qualified_calls() {
        let files = build_files(&[(
            "crates/a/src/lib.rs",
            "struct S;\nimpl S {\n fn a(&self) { Self::b(); S::c(); }\n fn b() {}\n fn c() {}\n}",
        )]);
        assert_eq!(
            callees(&files, "a"),
            ["crates/a/src/lib.rs:b", "crates/a/src/lib.rs:c"]
        );
    }

    #[test]
    fn shadowed_names_prefer_exact_qualifier() {
        let files = build_files(&[
            (
                "crates/a/src/lib.rs",
                "fn entry() { zonefile::parse(z); }\nfn parse() {}",
            ),
            ("crates/a/src/zonefile.rs", "pub fn parse(z: &str) {}"),
        ]);
        // Qualified call must not resolve to the same-module free `parse`.
        assert_eq!(callees(&files, "entry"), ["crates/a/src/zonefile.rs:parse"]);
    }

    #[test]
    fn precise_edges_drop_ambiguous_method_calls() {
        let files = build_files(&[
            (
                "crates/a/src/lib.rs",
                "fn entry(x: &dyn T) { x.decode(); x.solo(); x.sum(); helper(); }\nfn helper() {}",
            ),
            (
                "crates/a/src/m.rs",
                "impl A { fn decode(&self) {} fn solo(&self) {} fn sum(&self) {} }",
            ),
            ("crates/b/src/m.rs", "impl B { fn decode(&self) {} }"),
        ]);
        let g = Graph::build(&files);
        let gi = (0..g.fns.len())
            .find(|&i| g.sym(i).name == "entry")
            .unwrap();
        let names = |edges: &[usize]| -> Vec<String> {
            edges.iter().map(|&c| g.sym(c).name.clone()).collect()
        };
        // Full set: both `decode` impls, `solo`, the std-shadowed `sum`,
        // the free helper.
        assert_eq!(
            names(&g.edges[gi]),
            ["helper", "decode", "solo", "sum", "decode"]
        );
        // Precise set: ambiguous `decode` and std-shadowed `sum` are
        // gone; only the unique non-shadowed `solo` and the free call
        // carry positive evidence.
        assert_eq!(names(&g.edges_precise[gi]), ["helper", "solo"]);
    }

    #[test]
    fn external_calls_terminate() {
        let files = build_files(&[(
            "crates/a/src/lib.rs",
            "fn entry() { std::fs::read(p); serde_json::to_string(x); }",
        )]);
        assert_eq!(callees(&files, "entry"), Vec::<String>::new());
    }

    #[test]
    fn reach_is_transitive_and_records_predecessors() {
        let files = build_files(&[(
            "crates/a/src/lib.rs",
            "fn root() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\nfn island() {}",
        )]);
        let g = Graph::build(&files);
        let root = (0..g.fns.len()).find(|&i| g.sym(i).name == "root").unwrap();
        let pred = g.reach(&[root]);
        let names: Vec<_> = pred.keys().map(|&k| g.sym(k).name.clone()).collect();
        assert_eq!(names, ["root", "mid", "leaf"]);
        let leaf = (0..g.fns.len()).find(|&i| g.sym(i).name == "leaf").unwrap();
        assert_eq!(g.sym(pred[&leaf]).name, "mid");
    }

    #[test]
    fn trait_impls_resolve_from_method_call() {
        let files = build_files(&[
            (
                "crates/a/src/lib.rs",
                "trait Codec { fn decode(&self, b: &[u8]); }\nfn entry(c: &dyn Codec) { c.decode(b); }",
            ),
            (
                "crates/a/src/imp.rs",
                "impl Codec for Wire { fn decode(&self, b: &[u8]) { inner(); } }\nfn inner() {}",
            ),
        ]);
        assert_eq!(callees(&files, "entry"), ["crates/a/src/imp.rs:decode"]);
        assert_eq!(callees(&files, "decode"), ["crates/a/src/imp.rs:inner"]);
    }
}
