//! Measurement-pipeline throughput: full daily sweeps (stage I–III) over
//! a world into an archive, the cost that dominates full-scale
//! reproduction runs.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dps_ecosystem::{ScenarioParams, Tld, World};
use dps_measure::{Study, StudyConfig};

fn bench(c: &mut Criterion) {
    let params = ScenarioParams {
        seed: 1,
        scale: 0.05,
        gtld_days: 30,
        cc_start_day: 30,
    };
    let mut world = World::imc2016(params);
    let names = world.zone_entries(Tld::Com).len()
        + world.zone_entries(Tld::Net).len()
        + world.zone_entries(Tld::Org).len();

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.throughput(Throughput::Elements(names as u64));
    let path = std::env::temp_dir().join(format!("dps-bench-pipeline-{}.dps", std::process::id()));
    group.bench_function("one_day_sweep", |b| {
        b.iter(|| {
            std::fs::remove_file(&path).ok();
            Study::new(StudyConfig {
                days: 1,
                cc_start_day: 30,
                stride: 1,
            })
            .run_archived(&mut world, &path, None)
            .expect("archived study");
        })
    });
    std::fs::remove_file(&path).ok();
    group.bench_function("world_build", |b| {
        b.iter(|| World::imc2016(params).domains().len())
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
