//! `SnapshotStore::load_archive` keeps the encoded pages an archive
//! holds instead of decoding and re-encoding them. These tests pin what
//! that must not change: the stored-byte statistics (Table 1) of both
//! archive layouts, and the refusal of any page that is corrupt,
//! undecodable, of a foreign schema or of an unknown source.

use dps_columnar::{Schema, StringDict, TableBuilder};
use dps_ecosystem::{ScenarioParams, World};
use dps_measure::observation::schema;
use dps_measure::{SnapshotStore, Study, StudyConfig, QUALITY_SOURCE, SOURCES};
use dps_store::{ArchiveWriter, PageMeta, StoreReader};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

/// Unique suffix per archive so concurrently running tests never collide.
static NEXT_ARCHIVE: AtomicU32 = AtomicU32::new(0);

/// A fresh, empty directory for one test's archive.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dps-load-{tag}-{}-{}",
        std::process::id(),
        NEXT_ARCHIVE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Sweeps a tiny 6-day world into `dir/archive.dps` with `shards` shard
/// files (1 = the single-file layout) and returns the archive path.
fn swept(dir: &Path, shards: u32) -> PathBuf {
    let path = dir.join(dps_measure::ARCHIVE_FILE);
    let mut world = World::imc2016(ScenarioParams {
        seed: 3,
        scale: 0.02,
        gtld_days: 6,
        cc_start_day: 3,
    });
    Study::new(StudyConfig {
        days: 6,
        cc_start_day: 3,
        stride: 1,
    })
    .with_shards(shards)
    .run_archived(&mut world, &path, None)
    .expect("study sweeps");
    path
}

/// Per-source stored bytes as the loader computed them before it kept
/// the archive's bytes: every logical data page decoded, then re-encoded.
fn reencoded_stored_bytes(path: &Path) -> Vec<u64> {
    let reader = StoreReader::open_auto(path).expect("archive opens");
    SOURCES
        .iter()
        .map(|source| {
            let id = source.index() as u8;
            reader
                .days(id)
                .into_iter()
                .map(|day| {
                    let table = reader.table(day, id).expect("page reads");
                    table.expect("page exists").to_bytes().len() as u64
                })
                .sum()
        })
        .collect()
}

fn assert_stored_bytes_match_reencoding(shards: u32) {
    let dir = temp_dir("stored");
    let path = swept(&dir, shards);
    let expected = reencoded_stored_bytes(&path);
    let store = SnapshotStore::load_archive(&path).expect("archive loads");
    std::fs::remove_dir_all(&dir).ok();
    for (source, want) in SOURCES.iter().zip(&expected) {
        assert_eq!(
            store.stats(*source).stored_bytes,
            *want,
            "{source:?} stored_bytes ({shards} shards)"
        );
    }
    assert_eq!(store.total_stored_bytes(), expected.iter().sum::<u64>());
    assert!(store.total_stored_bytes() > 0);
}

#[test]
fn single_file_stored_bytes_equal_the_reencoded_tables() {
    assert_stored_bytes_match_reencoding(1);
}

#[test]
fn sharded_stored_bytes_equal_the_reencoded_logical_tables() {
    assert_stored_bytes_match_reencoding(3);
}

/// The catalog entry of the first page of `source` in a single-file
/// archive.
fn first_page(path: &Path, source: u8) -> PageMeta {
    let reader = StoreReader::open_auto(path).expect("archive opens");
    reader
        .catalog()
        .pages
        .values()
        .find(|meta| meta.source == source)
        .cloned()
        .expect("archive has such a page")
}

/// Overwrites the first bytes of a page body (its table magic) and, if
/// `fix_crc`, rewrites the page's CRC trailer to match the new body.
fn clobber_page(path: &Path, meta: &PageMeta, fix_crc: bool) {
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .expect("open archive for writing");
    let mut body = vec![0u8; meta.len as usize];
    file.read_exact_at(&mut body, meta.offset)
        .expect("read page");
    body[..4].copy_from_slice(b"XXXX");
    file.write_all_at(&body, meta.offset).expect("write page");
    if fix_crc {
        let crc = dps_store::crc32::crc32(&body).to_le_bytes();
        file.write_all_at(&crc, meta.offset + meta.len)
            .expect("write crc");
    }
}

#[test]
fn an_undecodable_page_with_a_valid_crc_is_an_error() {
    for source in [0u8, QUALITY_SOURCE] {
        let dir = temp_dir("undecodable");
        let path = swept(&dir, 1);
        clobber_page(&path, &first_page(&path, source), true);
        let report = StoreReader::open_auto(&path)
            .expect("archive opens")
            .verify()
            .expect("verify runs");
        assert!(report.all_ok(), "the rewritten CRC must match");
        let loaded = SnapshotStore::load_archive(&path);
        std::fs::remove_dir_all(&dir).ok();
        assert!(loaded.is_err(), "source {source}: undecodable page loaded");
    }
}

#[test]
fn a_checksum_mismatch_is_an_error() {
    let dir = temp_dir("crc");
    let path = swept(&dir, 1);
    clobber_page(&path, &first_page(&path, 0), false);
    let loaded = SnapshotStore::load_archive(&path);
    std::fs::remove_dir_all(&dir).ok();
    assert!(loaded.is_err());
}

/// A one-page archive holding `table` under `source`.
fn one_page_archive(dir: &Path, source: u8, table: &dps_columnar::Table) -> PathBuf {
    let path = dir.join(dps_measure::ARCHIVE_FILE);
    let mut writer = ArchiveWriter::create(&path, None).expect("create archive");
    writer.append_table(0, source, table, 1).expect("append");
    writer.commit(&StringDict::new()).expect("commit");
    path
}

#[test]
fn a_foreign_schema_is_an_error() {
    let dir = temp_dir("schema");
    let mut b = TableBuilder::new(Schema::new(&["day", "entry"]));
    b.push_row(&[0, 2]);
    let path = one_page_archive(&dir, 0, &b.finish());
    let loaded = SnapshotStore::load_archive(&path);
    std::fs::remove_dir_all(&dir).ok();
    assert!(loaded.is_err());
}

#[test]
fn an_unknown_source_id_is_an_error() {
    let dir = temp_dir("source");
    let mut b = TableBuilder::new(schema());
    b.push_row(&[0u32; 18]);
    let path = one_page_archive(&dir, 9, &b.finish());
    let loaded = SnapshotStore::load_archive(&path);
    std::fs::remove_dir_all(&dir).ok();
    assert!(loaded.is_err());
}
