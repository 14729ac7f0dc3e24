//! Recursor sweep cost: cold (empty caches, every query descends from the
//! root) vs warm (answer + infra caches populated). Also reports the
//! simulated UDP packet counts behind each variant, the number the paper's
//! measurement infrastructure actually pays for.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dps_dns::{Name, RrType};
use dps_ecosystem::{ScenarioParams, Tld, World};
use dps_netsim::{Day, Network};
use dps_recursor::{Recursor, RecursorConfig};
use std::net::IpAddr;
use std::sync::Arc;

fn jobs(world: &World) -> Vec<(Name, RrType)> {
    let mut jobs = Vec::new();
    for entry in world.zone_entries(Tld::Com).iter().copied().take(60) {
        let apex = world.entry_name(entry);
        jobs.push((apex.clone(), RrType::A));
        jobs.push((apex.prepend("www").unwrap(), RrType::A));
        jobs.push((apex, RrType::Ns));
    }
    jobs
}

fn recursor(net: &Arc<Network>, src: IpAddr, root_hints: Vec<IpAddr>) -> Recursor {
    Recursor::new(net, src, 0, root_hints, RecursorConfig::default())
}

/// Resolves every job on day 0 through `recursor`; returns the packets the
/// network sent meanwhile.
fn sweep(recursor: &mut Recursor, net: &Network, jobs: &[(Name, RrType)]) -> u64 {
    recursor.begin_day(Day(0));
    let before = net.stats().snapshot().sent;
    for (qname, qtype) in jobs {
        let _ = recursor.resolve(qname, *qtype);
    }
    net.stats().snapshot().sent - before
}

fn bench(c: &mut Criterion) {
    let world = World::imc2016(ScenarioParams::tiny(17));
    let src: IpAddr = "172.16.9.1".parse().unwrap();
    let jobs = jobs(&world);

    // One-off packet accounting, printed alongside the timings.
    {
        let net = Network::new(3);
        let catalog = world.materialize(&net);
        let mut recursor = recursor(&net, src, catalog.root_hints());
        let cold = sweep(&mut recursor, &net, &jobs);
        let hits = recursor.stats().cache_hits;
        let warm = sweep(&mut recursor, &net, &jobs);
        let warm_hits = recursor.stats().cache_hits - hits;
        println!(
            "recursor packets: {} queries; cold sweep {cold} packets, warm sweep {warm} \
             packets (hit ratio {:.3})",
            jobs.len(),
            warm_hits as f64 / jobs.len() as f64
        );
    }

    let mut group = c.benchmark_group("recursor");
    group.sample_size(10);
    group.throughput(Throughput::Elements(jobs.len() as u64));

    group.bench_function("cold_sweep", |b| {
        let net = Network::new(4);
        let catalog = world.materialize(&net);
        b.iter(|| {
            // Fresh recursor per iteration: every query pays full descent.
            let mut recursor = recursor(&net, src, catalog.root_hints());
            black_box(sweep(&mut recursor, &net, &jobs))
        })
    });

    group.bench_function("warm_sweep", |b| {
        let net = Network::new(5);
        let catalog = world.materialize(&net);
        let mut recursor = recursor(&net, src, catalog.root_hints());
        sweep(&mut recursor, &net, &jobs); // populate caches
        b.iter(|| black_box(sweep(&mut recursor, &net, &jobs)))
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
