//! Sharded-archive integration: manifest + N shard files must be
//! indistinguishable from a single-file archive through the `StoreReader`
//! surface, resume must roll partially-committed shards back to the
//! manifest's coverage, and `shards = 1` through `StoreWriter` must stay
//! byte-identical to the historical `ArchiveWriter` layout.

use dps_columnar::{Schema, StringDict, Table, TableBuilder};
use dps_store::{
    sharded::{manifest_path, shard_path, shard_range},
    ArchiveWriter, ShardedArchive, ShardedWriter, StoreReader, StoreWriter,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn temp_base(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dps-sharded-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("archive.dps")
}

fn cleanup(base: &Path) {
    if let Some(dir) = base.parent() {
        std::fs::remove_dir_all(dir).ok();
    }
}

fn schema() -> Schema {
    Schema::new(&["day", "entry", "v4", "asn"])
}

fn table(day: u32, rows: u32) -> Table {
    let mut b = TableBuilder::new(schema());
    for i in 0..rows {
        b.push_row(&[day, i * 2, 0x0A00_0000 + i, 13335 + (i % 3)]);
    }
    b.finish()
}

fn dict() -> StringDict {
    let mut d = StringDict::new();
    d.intern("cloudflare.com");
    d.intern("akamai.com");
    d
}

fn write_days(w: &mut StoreWriter, days: std::ops::Range<u32>, dict: &StringDict) {
    for day in days {
        for source in 0..3u8 {
            w.append_table(day, source, &table(day, 20 + day + u32::from(source)), 100)
                .unwrap();
        }
        w.commit(dict).unwrap();
    }
}

#[test]
fn shard_range_partitions_exactly() {
    for rows in [0usize, 1, 2, 7, 100, 8193] {
        for n in [1u32, 2, 3, 5, 16] {
            let mut covered = 0usize;
            for k in 0..n {
                let (start, end) = shard_range(rows, k, n);
                assert_eq!(start, covered, "rows={rows} n={n} k={k}");
                assert!(end >= start);
                covered = end;
            }
            assert_eq!(covered, rows, "ranges must cover all rows exactly once");
        }
    }
}

/// A shard's sub-page is encoded straight from its row range of the
/// logical table: the bytes equal those of the copied slice for every
/// shard of 1–4 shards, empty ranges (fewer rows than shards) included.
#[test]
fn row_range_encode_matches_the_copied_slice() {
    for rows in [0u32, 1, 2, 3, 7, 100, 1000] {
        let mut b = TableBuilder::new(Schema::new(&["day", "entry", "asn"]));
        for i in 0..rows {
            b.push_row(&[3, i * 2, 13335 + i % 5]);
        }
        let table = b.finish();
        for n in 1u32..=4 {
            for k in 0..n {
                let (lo, hi) = shard_range(table.rows(), k, n);
                assert_eq!(
                    table.rows_to_bytes(lo, hi),
                    table.slice_rows(lo, hi).to_bytes(),
                    "rows={rows} n={n} k={k}"
                );
            }
        }
    }
}

#[test]
fn sharded_roundtrip_matches_single_file() {
    let single = temp_base("single");
    let sharded = temp_base("sharded");
    let dict = dict();
    let mut ws = StoreWriter::create_store(&single, 1, Some("entry")).unwrap();
    let mut wm = StoreWriter::create_store(&sharded, 3, Some("entry")).unwrap();
    write_days(&mut ws, 0..4, &dict);
    write_days(&mut wm, 0..4, &dict);
    drop((ws, wm));

    let a = StoreReader::open_auto(&single).unwrap();
    let b = StoreReader::open_auto(&sharded).unwrap();
    assert!(!a.is_sharded());
    assert!(b.is_sharded());
    assert_eq!(b.n_shards(), 3);
    assert_eq!(a.n_sources(), b.n_sources());
    for source in 0..3u8 {
        assert_eq!(a.days(source), b.days(source));
        let sa = a.stats(source).unwrap();
        let sb = b.stats(source).unwrap();
        assert_eq!(sa.days, sb.days);
        assert_eq!(sa.data_points, sb.data_points, "source {source}");
        assert_eq!(sa.unique_keys, sb.unique_keys, "source {source}");
        for day in a.days(source) {
            let ta = a.table(day, source).unwrap().unwrap();
            let tb = b.table(day, source).unwrap().unwrap();
            assert_eq!(ta.schema().names(), tb.schema().names());
            assert_eq!(ta.rows(), tb.rows());
            for col in ta.schema().names() {
                assert_eq!(
                    ta.column_by_name(col).unwrap(),
                    tb.column_by_name(col).unwrap(),
                    "day {day} source {source} column {col}"
                );
            }
            let pa = a.project(day, source, &["entry", "asn"]).unwrap().unwrap();
            let pb = b.project(day, source, &["entry", "asn"]).unwrap().unwrap();
            assert_eq!(
                pa.column_by_name("asn").unwrap(),
                pb.column_by_name("asn").unwrap()
            );
        }
    }
    assert_eq!(
        a.dict().get("akamai.com"),
        b.dict().get("akamai.com"),
        "manifest carries the real dictionary"
    );
    assert!(b.verify().unwrap().all_ok());
    // Shard sub-tables reassemble the logical page in shard order.
    let whole = b.table(2, 1).unwrap().unwrap();
    let mut rows = 0usize;
    for shard in 0..3 {
        if let Some(part) = b.shard_table(shard, 2, 1).unwrap() {
            rows += part.rows();
        }
    }
    assert_eq!(rows, whole.rows());
    cleanup(&single);
    cleanup(&sharded);
}

#[test]
fn store_writer_with_one_shard_is_byte_identical_to_archive_writer() {
    let via_store = temp_base("one-shard");
    let via_archive = temp_base("plain");
    let dict = dict();
    {
        let mut w = StoreWriter::create_store(&via_store, 1, Some("entry")).unwrap();
        write_days(&mut w, 0..3, &dict);
    }
    {
        let mut w = ArchiveWriter::create(&via_archive, Some("entry")).unwrap();
        for day in 0..3u32 {
            for source in 0..3u8 {
                w.append_table(day, source, &table(day, 20 + day + u32::from(source)), 100)
                    .unwrap();
            }
            w.commit(&dict).unwrap();
        }
    }
    assert!(
        !manifest_path(&via_store).exists(),
        "shards=1 must not create a manifest"
    );
    assert_eq!(
        std::fs::read(&via_store).unwrap(),
        std::fs::read(&via_archive).unwrap(),
        "StoreWriter with shards=1 must keep the historical single-file bytes"
    );
    cleanup(&via_store);
    cleanup(&via_archive);
}

#[test]
fn sharded_resume_appends_after_clean_commit() {
    let base = temp_base("resume");
    let dict = dict();
    {
        let mut w = StoreWriter::create_store(&base, 2, Some("entry")).unwrap();
        write_days(&mut w, 0..2, &dict);
    }
    {
        let mut w = StoreWriter::resume_or_create(&base, 2, Some("entry")).unwrap();
        assert_eq!(w.n_shards(), 2);
        assert_eq!(w.last_day(), Some(1));
        assert!(w.contains(1, 0));
        assert!(!w.contains(2, 0));
        assert_eq!(
            w.dict().get("akamai.com"),
            dict.get("akamai.com"),
            "dictionary recovered from the manifest"
        );
        write_days(&mut w, 2..4, &dict);
    }
    let archive = StoreReader::open_auto(&base).unwrap();
    assert_eq!(archive.days(0), vec![0, 1, 2, 3]);
    assert!(archive.verify().unwrap().all_ok());
    cleanup(&base);
}

#[test]
fn resume_or_create_rejects_shard_count_mismatch() {
    let base = temp_base("mismatch");
    let dict = dict();
    {
        let mut w = StoreWriter::create_store(&base, 3, Some("entry")).unwrap();
        write_days(&mut w, 0..1, &dict);
    }
    assert!(
        StoreWriter::resume_or_create(&base, 2, Some("entry")).is_err(),
        "resuming a 3-shard archive with --shards 2 must fail loudly"
    );
    // shards=1 means "keep whatever layout exists": resume succeeds.
    let w = StoreWriter::resume_or_create(&base, 1, Some("entry")).unwrap();
    assert_eq!(w.n_shards(), 3);
    cleanup(&base);

    let plain = temp_base("plain-mismatch");
    {
        let mut w = StoreWriter::create_store(&plain, 1, Some("entry")).unwrap();
        write_days(&mut w, 0..1, &dict);
    }
    assert!(
        StoreWriter::resume_or_create(&plain, 4, Some("entry")).is_err(),
        "a single-file archive cannot be resumed with --shards > 1"
    );
    cleanup(&plain);
}

/// Crash between the shard commits and the manifest commit: the shards
/// durably hold day k+1, the manifest does not. Resume must roll every
/// shard back to the manifest's coverage, and re-appending the same day
/// must produce files byte-identical to an uninterrupted run.
#[test]
fn crash_before_manifest_commit_rolls_shards_back() {
    let crashed = temp_base("crash");
    let witness = temp_base("witness");
    let dict = dict();

    // Uninterrupted witness run: days 0..3 in one go.
    {
        let mut w = StoreWriter::create_store(&witness, 2, Some("entry")).unwrap();
        write_days(&mut w, 0..3, &dict);
    }

    // Crashed run: commit days 0..2 cleanly, snapshot the manifest, commit
    // day 2, then restore the stale manifest — exactly the on-disk state a
    // crash between shard fsync and manifest fsync leaves behind.
    {
        let mut w = StoreWriter::create_store(&crashed, 2, Some("entry")).unwrap();
        write_days(&mut w, 0..2, &dict);
    }
    let stale_manifest = std::fs::read(manifest_path(&crashed)).unwrap();
    {
        let mut w = StoreWriter::resume_or_create(&crashed, 2, Some("entry")).unwrap();
        write_days(&mut w, 2..3, &dict);
    }
    std::fs::write(manifest_path(&crashed), &stale_manifest).unwrap();

    // Resume: shards carry day 2, the manifest only covers 0..2 → roll back.
    {
        let mut w = StoreWriter::resume_or_create(&crashed, 2, Some("entry")).unwrap();
        assert_eq!(w.last_day(), Some(1), "uncovered shard commits discarded");
        assert!(!w.contains(2, 0));
        write_days(&mut w, 2..3, &dict);
    }
    assert_eq!(
        std::fs::read(manifest_path(&crashed)).unwrap(),
        std::fs::read(manifest_path(&witness)).unwrap(),
        "replayed manifest must match the uninterrupted run"
    );
    for shard in 0..2u32 {
        assert_eq!(
            std::fs::read(shard_path(&crashed, shard)).unwrap(),
            std::fs::read(shard_path(&witness, shard)).unwrap(),
            "replayed shard {shard} must match the uninterrupted run"
        );
    }
    let archive = ShardedArchive::open(&crashed).unwrap();
    assert!(archive.verify().unwrap().all_ok());
    cleanup(&crashed);
    cleanup(&witness);
}

/// A shard missing days the manifest covers (e.g. a deleted or truncated
/// shard file) is unrecoverable and must be a clean error, not silent
/// data loss.
#[test]
fn shard_behind_manifest_is_a_clean_error() {
    let base = temp_base("behind");
    let dict = dict();
    {
        let mut w = StoreWriter::create_store(&base, 2, Some("entry")).unwrap();
        write_days(&mut w, 0..1, &dict);
    }
    let one_day = std::fs::read(shard_path(&base, 1)).unwrap();
    {
        let mut w = StoreWriter::resume_or_create(&base, 2, Some("entry")).unwrap();
        write_days(&mut w, 1..3, &dict);
    }
    // Shard 1 loses days 1..3 while the manifest keeps them.
    std::fs::write(shard_path(&base, 1), &one_day).unwrap();
    let err = match ShardedWriter::resume(&base, Some("entry")) {
        Err(err) => err,
        Ok(_) => panic!("resume must fail when a shard is behind the manifest"),
    };
    assert!(
        err.to_string().contains("missing days"),
        "unexpected error: {err}"
    );
    assert!(ShardedArchive::open(&base).is_err());
    cleanup(&base);
}

#[test]
fn flipped_shard_byte_fails_verify_with_page_location() {
    let base = temp_base("flip");
    let dict = dict();
    {
        let mut w = StoreWriter::create_store(&base, 2, Some("entry")).unwrap();
        write_days(&mut w, 0..2, &dict);
    }
    let shard = shard_path(&base, 1);
    let mut bytes = std::fs::read(&shard).unwrap();
    bytes[20] ^= 0x01; // inside the first page region (pages start at 8)
    std::fs::write(&shard, &bytes).unwrap();
    let archive = ShardedArchive::open(&base).unwrap();
    let report = archive.verify().unwrap();
    assert!(!report.all_ok());
    assert!(
        report.corrupt.contains(&(0, 0)),
        "corrupt list names the damaged logical page: {:?}",
        report.corrupt
    );
    assert!(archive.table(0, 0).is_err());
    cleanup(&base);
}

#[test]
fn open_auto_detects_layout_and_single_file_shard_view() {
    let base = temp_base("auto");
    let dict = dict();
    {
        let mut w = StoreWriter::create_store(&base, 1, Some("entry")).unwrap();
        write_days(&mut w, 0..1, &dict);
    }
    let r = StoreReader::open_auto(&base).unwrap();
    assert!(!r.is_sharded());
    assert_eq!(r.n_shards(), 1);
    // Shard 0 of a single-file archive is the whole page; other shards
    // are empty, so per-shard scan tasks work uniformly over both layouts.
    let whole = r.table(0, 2).unwrap().unwrap();
    let shard0 = r.shard_table(0, 0, 2).unwrap().unwrap();
    assert_eq!(shard0.rows(), whole.rows());
    assert!(r.shard_table(1, 0, 2).unwrap().is_none());
    cleanup(&base);
}

/// An open `ShardedArchive` keeps serving reads found in its catalog even
/// as a writer appends more days — and a reopen sees the new coverage.
#[test]
fn reopen_after_append_sees_new_days() {
    let base = temp_base("reopen");
    let dict = dict();
    {
        let mut w = StoreWriter::create_store(&base, 2, Some("entry")).unwrap();
        write_days(&mut w, 0..1, &dict);
    }
    let before = ShardedArchive::open(&base).unwrap();
    {
        let mut w = StoreWriter::resume_or_create(&base, 2, Some("entry")).unwrap();
        write_days(&mut w, 1..2, &dict);
    }
    assert_eq!(before.days(0), vec![0]);
    assert!(before.table(0, 0).unwrap().is_some());
    let after = ShardedArchive::open(&base).unwrap();
    assert_eq!(after.days(0), vec![0, 1]);
    assert!(after.verify().unwrap().all_ok());
    cleanup(&base);
}
