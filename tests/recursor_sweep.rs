//! The measurement pipeline through the caching recursor: a first-pass
//! sweep through a `Recursor` must write byte-identical snapshot tables to the
//! uncached wire path, and a warm repeat sweep must cost a small fraction
//! of the packets.

use dps_scope::authdns::Resolver;
use dps_scope::measure::collector::{QueryPath, SldInterner, WirePath};
use dps_scope::measure::pipeline::sweep_with_path_supervised_metered;
use dps_scope::measure::SweepMetrics;
use dps_scope::prelude::*;

/// One unsupervised `.com` sweep of day 0 through `path` (the
/// supervisor's first pass only).
fn first_pass(
    world: &World,
    path: &mut impl QueryPath,
    store: &mut SnapshotStore,
    interner: &mut SldInterner,
) {
    let config = SupervisorConfig {
        retry_passes: 0,
        ..SupervisorConfig::default()
    };
    sweep_with_path_supervised_metered(
        world,
        path,
        Source::Com,
        0,
        store,
        interner,
        &config,
        &SweepMetrics::default(),
    );
}

#[test]
fn recursor_sweep_matches_wire_sweep_with_fewer_packets() {
    let params = ScenarioParams {
        seed: 61,
        scale: 0.004,
        gtld_days: 10,
        cc_start_day: 10,
    };
    let world = World::imc2016(params);
    let net = Network::new(9);
    let catalog = world.materialize(&net);

    // Uncached wire sweep.
    let mut wire_store = SnapshotStore::new();
    let mut interner = SldInterner::new();
    let resolver = Resolver::new(&net, "172.16.0.7".parse().unwrap(), 3, catalog.root_hints());
    let mut wire_path = WirePath::new(resolver);
    let before = net.stats().snapshot().sent;
    first_pass(&world, &mut wire_path, &mut wire_store, &mut interner);
    let wire_packets = net.stats().snapshot().sent - before;
    assert!(wire_packets > 0);

    // Cold recursor sweep, then a warm repeat of the same day.
    let mut recursor = Recursor::new(
        &net,
        "172.16.0.8".parse().unwrap(),
        3,
        catalog.root_hints(),
        RecursorConfig::default(),
    );
    let mut cold_store = SnapshotStore::new();
    let mut warm_store = SnapshotStore::new();
    let mut rec_interner = SldInterner::new();
    recursor.begin_day(Day(0));

    let before = net.stats().snapshot().sent;
    first_pass(&world, &mut recursor, &mut cold_store, &mut rec_interner);
    let cold_packets = net.stats().snapshot().sent - before;

    let before = net.stats().snapshot().sent;
    first_pass(&world, &mut recursor, &mut warm_store, &mut rec_interner);
    let warm_packets = net.stats().snapshot().sent - before;

    // Identical observations: the encoded snapshots are byte-for-byte equal.
    let wire_bytes = wire_store.encoded(Source::Com);
    assert_eq!(wire_bytes, cold_store.encoded(Source::Com));
    assert_eq!(wire_bytes, warm_store.encoded(Source::Com));

    // The cache pays for itself: even the cold sweep shares infrastructure,
    // and the warm sweep costs at least 5× less than the uncached wire path.
    assert!(
        cold_packets < wire_packets,
        "cold recursor sweep {cold_packets} vs wire {wire_packets}"
    );
    assert!(
        warm_packets * 5 <= wire_packets,
        "warm recursor sweep {warm_packets} vs wire {wire_packets}"
    );
    assert!(recursor.stats().cache_hits > 0);
}
