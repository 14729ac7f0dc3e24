//! The load-bearing equivalence test: the bulk query path (direct world
//! evaluation, used for full-scale sweeps) must produce byte-identical
//! resolutions to the wire path (root → TLD → authoritative over the
//! simulated network, a recursor with both caches off) AND to the caching
//! recursor. If this holds, every full-scale result is as trustworthy as
//! a packet-level run, and the cache never changes what a sweep observes.

use dps_scope::authdns::{Resolution, Resolver};
use dps_scope::prelude::*;
use dps_scope::recursor::CacheConfig;
use dps_scope::telemetry::Registry;

fn world_at(day: u32, seed: u64) -> World {
    let params = ScenarioParams {
        seed,
        scale: 0.004,
        gtld_days: 60,
        cc_start_day: 30,
    };
    let mut world = World::imc2016(params);
    world.advance_to(Day(day));
    world
}

fn compare_all(world: &World, net: &std::sync::Arc<Network>) {
    let catalog = world.materialize(net);
    let resolver = Resolver::new(net, "172.16.0.2".parse().unwrap(), 7, catalog.root_hints());
    let off = CacheConfig {
        capacity: 0,
        ..CacheConfig::default()
    };
    let mut wire = Recursor::over(resolver, off, 0, &Registry::new());
    let mut cached = Recursor::new(
        net,
        "172.16.0.3".parse().unwrap(),
        7,
        catalog.root_hints(),
        RecursorConfig::default(),
    );

    let mut compared = 0usize;
    let mut sample: Vec<(Name, RrType, Resolution)> = Vec::new();
    for tld in dps_scope::ecosystem::MEASURED_TLDS {
        for &entry in world.zone_entries(tld).iter() {
            let apex = world.entry_name(entry);
            let www = apex.prepend("www").unwrap();
            for (qname, qtype) in [
                (&apex, RrType::A),
                (&apex, RrType::Aaaa),
                (&apex, RrType::Ns),
                (&www, RrType::A),
                (&www, RrType::Cname),
            ] {
                let bulk = world.resolve(qname, qtype);
                let wire_res = wire.resolve(qname, qtype);
                let rec_res = cached.resolve(qname, qtype);
                match (bulk, wire_res) {
                    (Ok(b), Ok(w)) => {
                        assert_eq!(b.rcode, w.rcode, "{qname} {qtype} rcode");
                        assert_eq!(b.answers, w.answers, "{qname} {qtype} answers");
                        let r = rec_res.unwrap_or_else(|e| {
                            panic!("{qname} {qtype}: recursor failed ({e}) where wire succeeded")
                        });
                        assert_eq!(b.rcode, r.rcode, "{qname} {qtype} recursor rcode");
                        assert_eq!(b.answers, r.answers, "{qname} {qtype} recursor answers");
                        if sample.len() < 50 {
                            sample.push((qname.clone(), qtype, r));
                        }
                        compared += 1;
                    }
                    (Err(_), Err(_)) => compared += 1, // outage: both fail
                    (b, w) => panic!("{qname} {qtype}: bulk {b:?} vs wire {w:?}"),
                }
            }
        }
    }
    assert!(compared > 1000, "compared {compared} resolutions");

    // Second pass over a sample: the recursor must replay the exact same
    // resolution from cache, without touching the network again.
    let hits_before = cached.stats().cache_hits;
    let packets_before = net.stats().snapshot().sent;
    for (qname, qtype, first) in &sample {
        let replay = cached.resolve(qname, *qtype).unwrap();
        assert_eq!(first, &replay, "{qname} {qtype}: cache replay differs");
    }
    assert_eq!(
        net.stats().snapshot().sent,
        packets_before,
        "replays sent no packets"
    );
    assert!(cached.stats().cache_hits >= hits_before + sample.len() as u64);
}

#[test]
fn bulk_equals_wire_on_day_zero() {
    let world = world_at(0, 21);
    let net = Network::new(1);
    compare_all(&world, &net);
}

#[test]
fn bulk_equals_wire_after_anomalies_fired() {
    // Day 5 is inside the March 2015 Wix→Incapsula peak; day 35 is inside
    // the ENOM→Verisign BGP diversion window.
    for day in [5, 35] {
        let world = world_at(day, 22);
        let net = Network::new(2);
        compare_all(&world, &net);
    }
}
