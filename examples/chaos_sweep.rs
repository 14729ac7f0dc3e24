//! Chaos engineering for the measurement pipeline: replay one day's sweep
//! under increasingly hostile scripted fault schedules and watch the
//! supervisor (backoff + breakers + dead-letter retries) claw coverage
//! back — then see the one unrecoverable day get masked, not mistaken for
//! a provider exodus.
//!
//! ```sh
//! cargo run --release --example chaos_sweep
//! ```

use dps_scope::authdns::{Resolver, ResolverConfig};
use dps_scope::core::DEFAULT_MIN_COVERAGE;
use dps_scope::measure::collector::{SldInterner, WirePath};
use dps_scope::measure::pipeline::sweep_with_path_supervised_metered;
use dps_scope::measure::SweepMetrics;
use dps_scope::prelude::*;
use std::sync::Arc;

fn main() {
    let params = ScenarioParams {
        seed: 5,
        scale: 0.005,
        gtld_days: 10,
        cc_start_day: 10,
    };
    let mut world = World::imc2016(params);
    world.advance_to(Day(0));

    let scenarios: [(&str, &str); 4] = [
        ("calm seas", ""),
        ("15% loss all day", "degrade@0..inf@loss=0.15"),
        (
            "loss + 2s blackout + flapping TLD link",
            "degrade@0..inf@loss=0.15; blackout@0..2s; flap@2s..30s@period=1s,up=0.6",
        ),
        ("day-long total outage", "blackout@0..inf"),
    ];

    let mut store = SnapshotStore::new();
    let mut interner = SldInterner::new();
    for (day, (label, spec)) in scenarios.iter().enumerate() {
        let net = Network::new(42);
        if !spec.is_empty() {
            net.set_chaos(ChaosSchedule::parse(spec).expect("valid spec"));
        }
        let catalog = world.materialize(&net);
        let health = Arc::new(HealthTracker::new(HealthConfig::default()));
        let resolver = Resolver::new(&net, "172.16.0.5".parse().unwrap(), 7, catalog.root_hints())
            .with_config(ResolverConfig::resilient())
            .with_health(health);
        let mut path = WirePath::new(resolver);
        let q = sweep_with_path_supervised_metered(
            &world,
            &mut path,
            Source::Com,
            day as u32,
            &mut store,
            &mut interner,
            &SupervisorConfig::default(),
            &SweepMetrics::default(),
        );
        println!(
            "{label:<38} coverage {:>6.2}%  retried {:>3} recovered {:>3}  \
             breaker trips {:>3}  hedges {:>4}",
            100.0 * q.coverage(),
            q.retried,
            q.recovered,
            q.breaker_trips,
            q.hedges,
        );
    }

    let mask = QualityMask::from_store(&store, DEFAULT_MIN_COVERAGE);
    println!(
        "\nquality mask (coverage < {:.0}%): days {:?} gated out of trend analyses —",
        100.0 * mask.min_coverage(),
        mask.masked_days(Source::Com),
    );
    println!("the outage day reads as missing data, not as every customer leaving at once.");
}
