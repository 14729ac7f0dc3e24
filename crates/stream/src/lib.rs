//! # dps-stream — incremental analysis over the day-commit stream
//!
//! The paper (and, until now, this repo) derives DPS adoption, growth,
//! and security flux from full rescans of the measurement archive. This
//! crate turns "measure, then analyse" into one streaming pipeline:
//!
//! * [`engine::StreamEngine`] implements `dps_measure::DayObserver` and
//!   consumes each day's delta *at commit time* — from
//!   `Study::run_archived`, which every sweep runs through — maintaining
//!   DPS-use, growth, and flux state without ever rescanning. It
//!   classifies with `dps-core`'s row kernel and folds days with its
//!   day-ordered fold (`Scanner::classify_table`, `ScanFold`), so it
//!   carries no second copy of the scan.
//! * [`page`] persists each day's delta as an `ANALYSIS_SOURCE`
//!   checkpoint page inside the same durable commit as the data, so a
//!   crashed-and-resumed sweep replays `decode → apply` to byte-identical
//!   analysis state (the decode is checked and total).
//! * [`sketch`] adds mergeable bottom-k distinct sketches per
//!   (provider, day) — associative, commutative, idempotent merges under
//!   a fixed hash seed, so sketches are worker-count-independent — and
//!   flags attack-onset days where the distinct-touch estimate spikes
//!   over its trailing baseline.
//! * [`correlate`](mod@correlate) scores those flags against the scenario's labelled
//!   mass on-demand activation events.
//! * [`report::analysis_json`] renders analysis state canonically; the
//!   equivalence guarantee ("incremental == full rescan": commit-time
//!   pages equal archived pages, checkpoint replay is exact, and the
//!   day-at-a-time fold equals the rescan's parallel one) is enforced as
//!   byte equality of this rendering (`dpscope stream check`).

pub mod correlate;
pub mod engine;
pub mod page;
pub mod report;
pub mod sketch;

pub use correlate::{activation_days, correlate, Correlation, DEFAULT_TOLERANCE};
pub use engine::StreamEngine;
pub use page::{decode_delta, encode_delta, DayDelta, CHECKPOINT_VERSION};
pub use report::{analysis_json, FLUX_WINDOW};
pub use sketch::{flag_onsets, sketch_hash, AttackFlag, KmvSketch, DEFAULT_K, SKETCH_SEED};

#[cfg(test)]
mod tests {
    use super::*;
    use dps_core::{CompiledRefs, ProviderRefs, QualityMask, Scanner, DEFAULT_MIN_COVERAGE};
    use dps_ecosystem::{ScenarioParams, World};
    use dps_measure::{SnapshotStore, Study, StudyConfig};

    /// The equivalence invariant, in-process: run a study with the
    /// engine observing every commit, then full-rescan the same archive
    /// with dps-core — both renderings must be byte-identical, for a
    /// single-file and for a sharded archive.
    #[test]
    fn incremental_analysis_matches_full_rescan() {
        for shards in [1, 3] {
            let dir = std::env::temp_dir()
                .join(format!("dps-stream-equiv-{}-{shards}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("archive.dps");
            let config = StudyConfig {
                days: 8,
                cc_start_day: 5,
                stride: 1,
            };
            let mut world = World::imc2016(ScenarioParams::tiny(13));
            let mut engine = StreamEngine::new();
            Study::new(config)
                .with_shards(shards)
                .run_archived(&mut world, &path, Some(&mut engine))
                .unwrap();
            let store = SnapshotStore::load_archive(&path).unwrap();

            let incremental = analysis_json(
                &engine.finalize(),
                &engine.provider_names(),
                &engine.masked_gtld_days(),
            );

            let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), &store.dict);
            let archive = dps_store::StoreReader::open_auto(&path).unwrap();
            assert_eq!(archive.is_sharded(), shards > 1);
            let out = Scanner::new(&refs).run_store(&archive).unwrap();
            let mask = QualityMask::from_store(&store, DEFAULT_MIN_COVERAGE);
            let rescan = analysis_json(&out, &refs.names, &mask.masked_gtld_days());
            std::fs::remove_dir_all(&dir).ok();

            assert_eq!(
                incremental, rescan,
                "incremental must equal full rescan ({shards} shards)"
            );
            assert_eq!(engine.days(), out.series.days.as_slice());
        }
    }

    /// Resuming from checkpoint pages alone rebuilds the exact engine
    /// state: a second run over the finished archive measures nothing
    /// and must replay to an identical rendering.
    #[test]
    fn resume_replays_to_identical_state() {
        let path =
            std::env::temp_dir().join(format!("dps-stream-resume-{}.dps", std::process::id()));
        std::fs::remove_file(&path).ok();
        let config = StudyConfig {
            days: 6,
            cc_start_day: 4,
            stride: 1,
        };
        let mut world = World::imc2016(ScenarioParams::tiny(21));
        let mut engine = StreamEngine::new();
        Study::new(config)
            .run_archived(&mut world, &path, Some(&mut engine))
            .unwrap();
        let live = analysis_json(
            &engine.finalize(),
            &engine.provider_names(),
            &engine.masked_gtld_days(),
        );

        let mut world2 = World::imc2016(ScenarioParams::tiny(21));
        let mut replayed = StreamEngine::new();
        Study::new(config)
            .run_archived(&mut world2, &path, Some(&mut replayed))
            .unwrap();
        let resumed = analysis_json(
            &replayed.finalize(),
            &replayed.provider_names(),
            &replayed.masked_gtld_days(),
        );
        std::fs::remove_file(&path).ok();
        assert_eq!(live, resumed, "checkpoint replay must be byte-identical");
    }

    /// A basket-wide on-demand activation produces a flagged onset that
    /// correlates with the scenario's ground-truth labels.
    #[test]
    fn sketches_flag_mass_activations() {
        let path =
            std::env::temp_dir().join(format!("dps-stream-flags-{}.dps", std::process::id()));
        std::fs::remove_file(&path).ok();
        let params = ScenarioParams {
            seed: 2016,
            scale: 0.02,
            gtld_days: 60,
            cc_start_day: 60,
        };
        let config = StudyConfig {
            days: 60,
            cc_start_day: 60,
            stride: 1,
        };
        let mut world = World::imc2016(params);
        let mut engine = StreamEngine::new();
        Study::new(config)
            .run_archived(&mut world, &path, Some(&mut engine))
            .unwrap();
        std::fs::remove_file(&path).ok();

        let activations = activation_days(params);
        let flags = engine.attack_flags();
        let c = correlate(&flags, &activations, DEFAULT_TOLERANCE);
        // The scenario schedules basket flips; at this scale at least one
        // must both exist and be caught by the sketches.
        assert!(!c.activations.is_empty(), "ground truth has activations");
        assert!(
            !c.matched.is_empty(),
            "no flagged onset matched an activation; flags={flags:?} truth={activations:?}"
        );
    }
}
