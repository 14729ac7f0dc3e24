//! Same-seed determinism regression: two independently built worlds with
//! the same seed must produce **byte-identical** archives.
//!
//! The chaos smoke in `ci.sh` checks the same property end-to-end through
//! the `dpscope` binary, but only on the chaos configuration and only when
//! that gate runs. This test pins the invariant in `cargo test` directly,
//! so a nondeterminism regression (a stray `HashMap` iteration, ambient
//! randomness, wall-clock read) fails the ordinary test suite with a
//! pinpointable diff instead of an opaque `cmp` failure in CI.

use dps_ecosystem::{ScenarioParams, World};
use dps_measure::{SnapshotStore, Study, StudyConfig, SOURCES};
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique suffix per archive file so concurrently running tests in this
/// binary never collide on a temp path.
static NEXT_FILE: AtomicU64 = AtomicU64::new(0);

/// The canonical archive bytes of a same-seed study: swept with a commit
/// per day, loaded, and re-saved with a single commit.
fn run_once(seed: u64) -> Vec<u8> {
    let dir = run_archived_once(seed, dps_measure::STREAM_BLOCK_ENTRIES, 1);
    let store = SnapshotStore::load_archive(&dir.join("archive.dps")).expect("archive loads");
    let path = dir.join("canonical.dps");
    store.save_archive(&path).expect("archive writes");
    let bytes = std::fs::read(&path).expect("archive readable");
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

#[test]
fn same_seed_runs_produce_byte_identical_archives() {
    let a = run_once(9);
    let b = run_once(9);
    assert!(!a.is_empty());
    assert_eq!(
        a, b,
        "two same-seed runs serialised different archive bytes"
    );
}

#[test]
fn different_seeds_produce_different_archives() {
    // Guard against the test trivially passing because the archive ignores
    // the world entirely.
    let a = run_once(9);
    let c = run_once(10);
    assert_ne!(a, c, "archives do not depend on the seed at all");
}

#[test]
fn byte_identical_archives_reload_identically() {
    let bytes = run_once(11);
    let path =
        std::env::temp_dir().join(format!("dps-determinism-reload-{}.dps", std::process::id()));
    std::fs::write(&path, &bytes).expect("archive writes");
    let store = SnapshotStore::load_archive(&path).expect("archive loads");
    // Re-serialising a loaded store reproduces the original bytes: load is
    // lossless and save is a pure function of content.
    let path2 =
        std::env::temp_dir().join(format!("dps-determinism-resave-{}.dps", std::process::id()));
    store.save_archive(&path2).expect("archive re-writes");
    let again = std::fs::read(&path2).expect("archive readable");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&path2).ok();
    assert_eq!(bytes, again, "save(load(a)) differed from a");
}

#[test]
fn telemetry_pages_are_archived_and_seed_deterministic() {
    // Two same-seed studies must render identical telemetry, and the
    // telemetry must actually be there: a per-day page for every measured
    // day, with the study's own counters populated.
    let mut stores = Vec::new();
    for _ in 0..2 {
        let bytes = run_once(12);
        let path = std::env::temp_dir().join(format!(
            "dps-determinism-telemetry-{}-{}.dps",
            std::process::id(),
            NEXT_FILE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, &bytes).expect("archive writes");
        let store = SnapshotStore::load_archive(&path).expect("archive loads");
        std::fs::remove_file(&path).ok();
        stores.push(store);
    }
    let days: Vec<u32> = stores[0].all_telemetry().map(|(d, _)| d).collect();
    assert_eq!(days, vec![0, 1, 2, 3, 4, 5], "one telemetry page per day");
    let merged = stores[0].merged_telemetry();
    assert_eq!(merged.counters.get("measure.days"), Some(&6));
    assert!(merged.counters.get("measure.rows").copied().unwrap_or(0) > 0);
    assert_eq!(
        stores[0].merged_telemetry().to_json(),
        stores[1].merged_telemetry().to_json(),
        "same-seed studies rendered different metrics JSON"
    );
}

/// Runs a same-seed archived study with the given streaming block size
/// and shard count, returning the directory holding the archive.
fn run_archived_once(seed: u64, stream_block: usize, shards: u32) -> std::path::PathBuf {
    let mut world = World::imc2016(ScenarioParams::tiny(seed));
    let config = StudyConfig {
        days: 6,
        cc_start_day: 4,
        stride: 1,
    };
    let dir = std::env::temp_dir().join(format!(
        "dps-determinism-archived-{}-{}",
        std::process::id(),
        NEXT_FILE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("archive.dps");
    Study::new(config)
        .with_stream_block(stream_block)
        .with_shards(shards)
        .run_archived(&mut world, &path, None)
        .expect("archived study runs");
    dir
}

/// Streaming world generation is an implementation detail of memory, not
/// of content: collecting a day in bounded blocks must serialise the
/// exact bytes a fully materialised collection would. Workers code each
/// chunk of a block against a dictionary of its own, so small blocks
/// pin the driver's id mapping too: a one-entry block is row-by-row
/// interning, and seven entries split unevenly across workers.
#[test]
fn streaming_blocks_match_materialized_collection_byte_for_byte() {
    let materialized = run_archived_once(13, usize::MAX, 1);
    let b = std::fs::read(materialized.join("archive.dps")).expect("materialized archive");
    std::fs::remove_dir_all(&materialized).ok();
    assert!(!b.is_empty());
    for block in [dps_measure::STREAM_BLOCK_ENTRIES, 1, 7] {
        let streamed = run_archived_once(13, block, 1);
        let a = std::fs::read(streamed.join("archive.dps")).expect("streamed archive");
        std::fs::remove_dir_all(&streamed).ok();
        assert!(
            a == b,
            "stream-block size {block} leaked into the archive bytes"
        );
    }
}

/// Shard count is likewise invisible in content: loading a 3-shard
/// archive and a single-file archive of the same-seed run, then
/// re-saving both through the same single-file writer, must produce
/// identical bytes (same pages, same dictionary, same stats — the
/// canonical re-save erases only the commit granularity, which is the
/// one legitimate difference between the two on-disk histories).
#[test]
fn sharded_study_reloads_to_the_single_file_bytes() {
    let single = run_archived_once(14, dps_measure::STREAM_BLOCK_ENTRIES, 1);
    let sharded = run_archived_once(14, dps_measure::STREAM_BLOCK_ENTRIES, 3);
    assert!(
        sharded.join("archive.manifest").exists(),
        "shards=3 writes a manifest"
    );
    assert!(
        !single.join("archive.manifest").exists(),
        "shards=1 keeps the historical single-file layout"
    );
    let from_single =
        SnapshotStore::load_archive(&single.join("archive.dps")).expect("single-file loads");
    let from_sharded =
        SnapshotStore::load_archive(&sharded.join("archive.dps")).expect("sharded loads");
    // The loader reads both layouts to the same statistics, stored bytes
    // included: they count the logical tables, not the shard sub-pages.
    for source in SOURCES {
        let (a, b) = (from_single.stats(source), from_sharded.stats(source));
        assert_eq!(a.first_day, b.first_day, "{source:?} first_day");
        assert_eq!(a.last_day, b.last_day, "{source:?} last_day");
        assert_eq!(a.days, b.days, "{source:?} days");
        assert_eq!(a.unique_slds, b.unique_slds, "{source:?} unique_slds");
        assert_eq!(a.data_points, b.data_points, "{source:?} data_points");
        assert_eq!(a.stored_bytes, b.stored_bytes, "{source:?} stored_bytes");
        assert_eq!(a.raw_bytes, b.raw_bytes, "{source:?} raw_bytes");
    }
    let canon_single = single.join("resaved.dps");
    let canon_sharded = sharded.join("resaved.dps");
    from_single.save_archive(&canon_single).expect("re-save");
    from_sharded.save_archive(&canon_sharded).expect("re-save");
    let a = std::fs::read(&canon_single).expect("canonical single");
    let b = std::fs::read(&canon_sharded).expect("canonical sharded");
    std::fs::remove_dir_all(&single).ok();
    std::fs::remove_dir_all(&sharded).ok();
    assert!(!a.is_empty());
    assert_eq!(a, b, "sharded content drifted from the single-file run");
}

/// FNV-1a (64-bit) over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Pins the exact archive bytes of a small bulk sweep. The answer-model
/// helpers (NS host tables, CNAME chains, name builders) are shared by
/// `World::resolve` and `World::materialize`, so a wire-versus-bulk
/// comparison cannot see them drift; this digest can. A change to it is
/// a change to the measured data: re-pin it only with a deliberate model
/// or format change.
#[test]
fn bulk_sweep_archive_digest_is_pinned() {
    let mut world = World::imc2016(ScenarioParams {
        seed: 2016,
        scale: 0.02,
        gtld_days: 4,
        cc_start_day: 2,
    });
    let dir = std::env::temp_dir().join(format!(
        "dps-determinism-digest-{}-{}",
        std::process::id(),
        NEXT_FILE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("archive.dps");
    Study::new(StudyConfig {
        days: 4,
        cc_start_day: 2,
        stride: 1,
    })
    .run_archived(&mut world, &path, None)
    .expect("archived study runs");
    let bytes = std::fs::read(&path).expect("archive readable");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (113_530, 0x3bc9_58cf_1a3d_c5ec),
        "bulk sweep archive bytes changed"
    );
}
