//! Quickstart: build a small synthetic Internet, run the measurement
//! study over it, and report DPS adoption — the whole pipeline in ~40
//! lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dps_scope::prelude::*;

fn main() {
    // 1. A world at 1/50 000 of the real 2015 namespace, 60 days.
    let params = ScenarioParams {
        seed: 42,
        scale: 0.05,
        gtld_days: 60,
        cc_start_day: 40,
    };
    let mut world = World::imc2016(params);
    println!(
        "world: {} domains across .com/.net/.org/.nl, day 0 = {}",
        world.domains().len(),
        Day(0)
    );

    // 2. Measure: daily sweeps of every zone plus the Alexa-style list,
    //    written to an archive and loaded back for analysis.
    let path = std::env::temp_dir().join("dps-example-quickstart.dps");
    std::fs::remove_file(&path).ok();
    Study::new(StudyConfig {
        days: 60,
        cc_start_day: 40,
        stride: 1,
    })
    .run_archived(&mut world, &path, None)
    .expect("archived study");
    let store = SnapshotStore::load_archive(&path).expect("archive loads");
    std::fs::remove_file(&path).ok();
    println!(
        "measured {} data points, stored {} (compressed)",
        dps_scope::core::report::human_count(
            (0..5)
                .map(|i| store.stats(Source::from_index(i).unwrap()).data_points)
                .sum::<u64>() as f64
        ),
        dps_scope::core::report::human_bytes(store.total_stored_bytes()),
    );

    // 3. Classify against the paper's Table 2 reference sets.
    let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), &store.dict);
    let out = Scanner::new(&refs).run(&store);

    println!("\nDPS use on day 0 vs day 59 (gTLD sources):");
    println!("{:<14} {:>7} {:>7}", "provider", "day 0", "day 59");
    for (p, name) in refs.names.iter().enumerate() {
        let s = &out.series.provider_any[p];
        println!("{:<14} {:>7} {:>7}", name, s[0], s[59]);
    }
    let combined = out.series.combined_any();
    println!("{:<14} {:>7} {:>7}", "combined", combined[0], combined[59]);

    // 4. Growth vs overall namespace expansion (Fig. 5 in miniature).
    let g_dps = growth_analyze(&out.series.days, &combined, &GrowthConfig::default());
    let g_zone = growth_analyze(
        &out.series.days,
        &out.series.combined_zone_size(),
        &GrowthConfig::default(),
    );
    println!(
        "\nadoption growth {:.3}x vs namespace expansion {:.3}x over {} days",
        g_dps.factor,
        g_zone.factor,
        out.series.days.len()
    );
}
