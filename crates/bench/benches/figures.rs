//! End-to-end figure regeneration at reduced scale: one bench per paper
//! artifact, exercising exactly the code the `experiments` binary runs.

use criterion::{criterion_group, criterion_main, Criterion};
use dps_bench::experiments::{run, Context, ExperimentConfig};

fn bench(c: &mut Criterion) {
    // One shared context (the expensive part), sized for bench cadence.
    let config = ExperimentConfig {
        scale: 0.02,
        days: 60,
        cc_start: 40,
        out_dir: std::path::PathBuf::from("target/experiments-bench"),
        ..ExperimentConfig::default()
    };
    let ctx = Context::build(config).expect("study archive");

    let mut group = c.benchmark_group("figures");
    group.sample_size(10);
    for id in [
        "table1", "table2", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "ablation",
    ] {
        group.bench_function(id, |b| b.iter(|| run(&ctx, id).unwrap().len()));
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
