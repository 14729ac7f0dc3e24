//! End-to-end: world → measurement → storage → every analysis, on one
//! small study, asserting the cross-cutting invariants that tie the
//! figures together.

use dps_scope::core::{attribution, flux, growth, peaks, report};
use dps_scope::prelude::*;

/// Unique suffix per archive so concurrently running tests never collide.
static NEXT_ARCHIVE: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);

/// Sweeps `config` over `world` into a temporary archive and loads it.
fn swept(world: &mut World, config: StudyConfig) -> SnapshotStore {
    let n = NEXT_ARCHIVE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("dps-it-e2e-{}-{n}.dps", std::process::id()));
    std::fs::remove_file(&path).ok();
    Study::new(config)
        .run_archived(world, &path, None)
        .expect("study sweeps");
    let store = SnapshotStore::load_archive(&path).expect("archive loads");
    std::fs::remove_file(&path).ok();
    store
}

const DAYS: u32 = 90;
const CC: u32 = 60;

fn run() -> (World, SnapshotStore, ScanOutput, CompiledRefs) {
    let params = ScenarioParams {
        seed: 123,
        scale: 0.03,
        gtld_days: DAYS,
        cc_start_day: CC,
    };
    let mut world = World::imc2016(params);
    let store = swept(
        &mut world,
        StudyConfig {
            days: DAYS,
            cc_start_day: CC,
            stride: 1,
        },
    );
    let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), &store.dict);
    let out = Scanner::new(&refs).run(&store);
    (world, store, out, refs)
}

#[test]
fn full_pipeline_invariants() {
    let (_world, store, out, refs) = run();

    // -- Table 1 consistency: every source measured the expected days.
    for (source, expected_days) in [
        (Source::Com, DAYS),
        (Source::Net, DAYS),
        (Source::Org, DAYS),
        (Source::Nl, DAYS - CC),
        (Source::Alexa, DAYS - CC),
    ] {
        assert_eq!(store.stats(source).days, expected_days, "{source:?}");
    }
    let t1 = report::table1(&store);
    assert!(t1.contains(".com") && t1.contains("Alexa"), "{t1}");

    // -- Fig. 2: combined = com + net + org, per construction and count.
    let combined = out.series.combined_any();
    for i in [0usize, (DAYS / 2) as usize, (DAYS - 1) as usize] {
        let sum: u32 = (0..3).map(|s| out.series.tld_any[s][i]).sum();
        assert_eq!(combined[i], sum);
        assert!(combined[i] > 0);
    }

    // -- Fig. 3: the method lines never exceed the any line.
    for p in 0..refs.n {
        for i in 0..out.series.days.len() {
            let any = out.series.provider_any[p][i];
            assert!(out.series.provider_asn[p][i] <= any);
            assert!(out.series.provider_cname[p][i] <= any);
            assert!(out.series.provider_ns[p][i] <= any);
        }
    }

    // -- Fig. 4: both distributions are proper percentages, com-dominated.
    let ((ns, dps), _) = report::fig4(&out.series);
    assert!((ns.iter().sum::<f64>() - 100.0).abs() < 1e-6);
    assert!((dps.iter().sum::<f64>() - 100.0).abs() < 1e-6);
    assert!(ns[0] > 70.0 && dps[0] > 70.0);

    // -- Fig. 5: DPS adoption grows faster than the namespace.
    let g_dps = growth::analyze(
        &out.series.days,
        &combined,
        &growth::GrowthConfig::default(),
    );
    let g_zone = growth::analyze(
        &out.series.days,
        &out.series.combined_zone_size(),
        &growth::GrowthConfig::default(),
    );
    assert!(
        g_dps.factor > g_zone.factor,
        "dps {} vs zone {}",
        g_dps.factor,
        g_zone.factor
    );
    assert!(g_zone.factor > 1.0);

    // -- Fig. 7: flux conservation per provider.
    let fl = flux::analyze(&out.timelines, refs.n, 14);
    for (p, series) in fl.iter().enumerate() {
        let (influx, outflux) = flux::total_domains(series);
        assert_eq!(influx, outflux, "provider {p}");
        let domains = out
            .timelines
            .map
            .keys()
            .filter(|&&(_, q)| q as usize == p)
            .count() as u64;
        assert_eq!(influx, domains, "provider {p}");
    }

    // -- Fig. 8: peak durations bounded by the window; CDFs monotone.
    let dists = peaks::analyze(&out.timelines, refs.n, 1);
    for dist in &dists {
        let mut last = 0.0;
        for d in 1..=DAYS {
            let c = dist.cdf(d);
            assert!(c >= last && c <= 1.0);
            last = c;
        }
        for &d in &dist.durations {
            assert!(d <= DAYS);
        }
    }

    // -- Attribution: the biggest anomaly is explained by a dominant party.
    let incapsula = 5usize;
    let anomalies = attribution::find_anomalies(&out.series.provider_any[incapsula], 8.0, 10);
    assert!(
        !anomalies.is_empty(),
        "Wix swings expected in the first 90 days"
    );
    let a = &anomalies[0];
    let att = attribution::explain(
        &store,
        &refs,
        incapsula as u8,
        out.series.days[a.day_index - 1],
        out.series.days[a.day_index],
    );
    assert_eq!(att.dominant_party(), Some("wixdns.net"));
}

#[test]
fn growth_csv_and_fig_outputs_are_well_formed() {
    let (_world, _store, out, refs) = run();
    let combined = out.series.combined_any();
    let g = growth::analyze(
        &out.series.days,
        &combined,
        &growth::GrowthConfig::default(),
    );
    let csv = report::growth_csv(&[("dps", &g)]);
    assert_eq!(csv.lines().count(), 1 + DAYS as usize);
    assert!(csv.starts_with("date,dps"));

    let fig2 = report::fig2_csv(&out.series);
    assert!(fig2.lines().nth(1).unwrap().starts_with("2015-03-01,"));

    let fig3 = report::fig3_csv(&out.series, &refs.names);
    assert_eq!(fig3.lines().count(), 1 + refs.n * DAYS as usize);

    let dists = peaks::analyze(&out.timelines, refs.n, 1);
    let (summary, csv8) = report::fig8(&dists, &refs.names);
    assert!(summary.contains("CloudFlare"));
    assert!(csv8.starts_with("provider,duration_days,cdf"));
}

#[test]
fn determinism_same_seed_same_study() {
    let runs: Vec<u64> = (0..2)
        .map(|_| {
            let params = ScenarioParams {
                seed: 9,
                scale: 0.01,
                gtld_days: 20,
                cc_start_day: 20,
            };
            let mut world = World::imc2016(params);
            let store = swept(
                &mut world,
                StudyConfig {
                    days: 20,
                    cc_start_day: 20,
                    stride: 1,
                },
            );
            store.total_stored_bytes()
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
}
