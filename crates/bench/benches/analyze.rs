//! Full-workspace analyzer pass: wall time of `analyze_sources` over every
//! first-party source in the repo — lexing, symbol extraction, call-graph
//! construction, the taint and lock passes, and waiver resolution — plus
//! the corpus and graph sizes that wall time is paid for.
//!
//! The vendored criterion stand-in has no JSON reporter, so this bench
//! writes `BENCH_analyze.json` at the workspace root itself; the numbers
//! recorded in EXPERIMENTS.md come from that file.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dps_analyzer::callgraph::Graph;
use dps_analyzer::engine::read_sources;
use dps_analyzer::symbols::FileSymbols;
use dps_analyzer::{analyze_sources, context, ingress_surface, lexer, symbols, Mode};
use std::path::Path;
use std::time::Instant;

fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

/// Median ns of `samples` timed calls to `f`, after one warm-up call.
fn time<F: FnMut()>(samples: usize, mut f: F) -> f64 {
    f();
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        f();
        times.push(start.elapsed().as_nanos() as f64);
    }
    median(times)
}

fn bench(c: &mut Criterion) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = read_sources(&root).expect("read workspace sources");
    // The corpus is the Rust sources; manifests only classify packages.
    let rust: Vec<&(String, String)> = files
        .iter()
        .filter(|(rel, _)| rel.ends_with(".rs"))
        .collect();
    let lines: usize = rust.iter().map(|(_, src)| src.lines().count()).sum();

    // Corpus and graph shape: how much the full pass chews through.
    let symfiles: Vec<(String, FileSymbols)> = rust
        .iter()
        .map(|(rel, src)| {
            let lexed = lexer::lex(src);
            let ctx = context::scan(&lexed);
            (rel.clone(), symbols::extract(&lexed, &ctx))
        })
        .collect();
    let graph = Graph::build(&symfiles);
    let functions = graph.fns.len();
    let edges_full: usize = graph.edges.iter().map(Vec::len).sum();
    let edges_precise: usize = graph.edges_precise.iter().map(Vec::len).sum();

    let findings = analyze_sources(&files, Mode::Workspace);
    assert!(
        findings.is_empty(),
        "bench expects a clean workspace, got {} findings",
        findings.len()
    );
    let surface = ingress_surface(&files).len();

    const SAMPLES: usize = 15;
    let full_pass_ns = time(SAMPLES, || {
        black_box(analyze_sources(black_box(&files), Mode::Workspace).len());
    });
    let surface_ns = time(SAMPLES, || {
        black_box(ingress_surface(black_box(&files)).len());
    });

    let json = format!(
        "{{\n  \"corpus\": {{\n    \"files\": {files_n},\n    \"lines\": {lines},\n    \
         \"functions\": {functions},\n    \"call_edges_full\": {edges_full},\n    \
         \"call_edges_precise\": {edges_precise},\n    \
         \"ingress_surface_files\": {surface}\n  }},\n  \"analyze\": {{\n    \
         \"full_pass_ns\": {full_pass_ns:.0},\n    \
         \"full_pass_ms\": {full_ms:.2},\n    \
         \"ns_per_line\": {per_line:.1},\n    \
         \"ingress_surface_ns\": {surface_ns:.0},\n    \"findings\": 0\n  }}\n}}\n",
        files_n = rust.len(),
        full_ms = full_pass_ns / 1e6,
        per_line = full_pass_ns / lines.max(1) as f64,
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_analyze.json");
    std::fs::write(&out, &json).expect("write BENCH_analyze.json");
    println!(
        "analyze: {files_n} files / {lines} lines / {functions} fns in {full_ms:.1} ms \
         ({per_line:.0} ns/line), {edges_precise}/{edges_full} precise/full edges -> {}",
        out.display(),
        files_n = rust.len(),
        full_ms = full_pass_ns / 1e6,
        per_line = full_pass_ns / lines.max(1) as f64,
    );

    // Keep a criterion-visible sample so `cargo bench` reports the pass.
    c.bench_function("analyze_workspace_full_pass", |b| {
        b.iter(|| analyze_sources(black_box(&files), Mode::Workspace).len())
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
