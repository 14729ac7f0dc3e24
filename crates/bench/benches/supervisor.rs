//! Supervision overhead: a supervised wire sweep (telemetry snapshots,
//! per-row cause tracking, dead-letter bookkeeping) versus the plain wire
//! sweep, both over a healthy network. On a fault-free day the supervisor
//! finds nothing to retry, so its overhead budget is <5%.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dps_authdns::{HealthConfig, HealthTracker, Resolver, ResolverConfig};
use dps_ecosystem::{ScenarioParams, Tld, World};
use dps_measure::collector::{collect_raw, SldInterner, WirePath};
use dps_measure::observation::entry_code;
use dps_measure::pipeline::sweep_with_path_supervised_metered;
use dps_measure::{PageBuilder, SnapshotStore, Source, SupervisorConfig, SweepMetrics};
use dps_netsim::{Day, Network};
use std::sync::Arc;

fn wire_path(world: &World, net_seed: u64) -> WirePath {
    let net = Network::new(net_seed);
    let catalog = world.materialize(&net);
    let health = Arc::new(HealthTracker::new(HealthConfig::default()));
    let resolver = Resolver::new(&net, "172.16.0.9".parse().unwrap(), 2, catalog.root_hints())
        .with_config(ResolverConfig::resilient())
        .with_health(health);
    WirePath::new(resolver)
}

fn bench(c: &mut Criterion) {
    let params = ScenarioParams {
        seed: 9,
        scale: 0.01,
        gtld_days: 3,
        cc_start_day: 3,
    };
    let mut world = World::imc2016(params);
    world.advance_to(Day(0));
    let names = world.zone_entries(Tld::Com).len();

    let mut group = c.benchmark_group("supervisor");
    group.sample_size(10);
    group.throughput(Throughput::Elements(names as u64));
    group.bench_function("wire_sweep_plain", |b| {
        let pfx2as = world.pfx2as();
        let entries = world.zone_entries(Tld::Com);
        b.iter(|| {
            let mut path = wire_path(&world, 17);
            let mut store = SnapshotStore::new();
            let mut interner = SldInterner::new();
            let mut page = PageBuilder::new(0, Source::Com);
            for &entry in entries.iter() {
                let apex = world.entry_name(entry);
                let raw = collect_raw(&mut path, &apex, entry_code(entry), &pfx2as);
                page.intern_row(raw, &mut store.dict, &mut interner);
            }
            let page = page.finish();
            store.add_table(0, Source::Com, &page.table, page.data_points);
            store.total_stored_bytes()
        })
    });
    group.bench_function("wire_sweep_supervised", |b| {
        b.iter(|| {
            let mut path = wire_path(&world, 17);
            let mut store = SnapshotStore::new();
            let mut interner = SldInterner::new();
            let q = sweep_with_path_supervised_metered(
                &world,
                &mut path,
                Source::Com,
                0,
                &mut store,
                &mut interner,
                &SupervisorConfig::default(),
                &SweepMetrics::default(),
            );
            assert_eq!(q.failed, 0);
            store.total_stored_bytes()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
