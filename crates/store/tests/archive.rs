//! Archive format integration: write→open roundtrips, checkpoint/resume
//! recovery, and corruption negatives (truncated page, flipped byte,
//! corrupt footer → clean `io::Error`, never a panic or wrong data).

use dps_columnar::{Schema, StringDict, Table, TableBuilder};
use dps_store::{Archive, ArchiveWriter};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn temp_archive(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "dps-store-{tag}-{}-{}.dps",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
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

fn write_archive(path: &Path, days: u32) -> StringDict {
    let mut dict = StringDict::new();
    dict.intern("cloudflare.com");
    let mut w = ArchiveWriter::create(path, Some("entry")).unwrap();
    for day in 0..days {
        for source in 0..2u8 {
            w.append_table(day, source, &table(day, 20 + day + u32::from(source)), 100)
                .unwrap();
        }
        w.commit(&dict).unwrap();
    }
    dict
}

#[test]
fn write_open_roundtrip_with_exact_stats() {
    let path = temp_archive("roundtrip");
    let dict = write_archive(&path, 3);
    let archive = Archive::open(&path).unwrap();
    assert_eq!(archive.n_sources(), 2);
    assert_eq!(archive.days(0), vec![0, 1, 2]);
    let st = archive.stats(0).unwrap();
    assert_eq!(st.days, 3);
    assert_eq!(st.first_day, Some(0));
    assert_eq!(st.last_day, Some(2));
    assert_eq!(st.data_points, 300);
    // Unique entry codes: day 2 / source 0 has the most rows (22), and
    // entry codes 0,2,..,42 nest across days.
    assert_eq!(st.unique_keys.len(), 22);
    assert_eq!(
        archive.dict().get("cloudflare.com"),
        dict.get("cloudflare.com")
    );
    let t = archive.table(1, 1).unwrap().unwrap();
    assert_eq!(t.rows(), 22);
    assert_eq!(t.column_by_name("day").unwrap()[0], 1);
    assert!(archive.table(7, 0).unwrap().is_none());
    assert!(archive.verify().unwrap().all_ok());
    std::fs::remove_file(&path).ok();
}

/// Every catalog page read in `(day, source)` order, optionally
/// projected to `cols`.
fn read_all(archive: &Archive, cols: Option<&[&str]>) -> Vec<((u32, u8), Arc<Table>)> {
    archive
        .catalog()
        .pages
        .keys()
        .map(|&(day, source)| {
            let table = match cols {
                Some(cols) => archive.project(day, source, cols),
                None => archive.table(day, source),
            };
            ((day, source), table.unwrap().unwrap())
        })
        .collect()
}

#[test]
fn catalog_range_reads_prune_and_project() {
    let path = temp_archive("scan");
    write_archive(&path, 5);
    // Cache disabled so every read below really decodes.
    let archive = Archive::open_with_cache(&path, 0).unwrap();
    // Pruning: reading the catalog's day range 1..=2 for source 1 decodes
    // exactly those two pages.
    let before = archive.counters();
    let keys: Vec<(u32, u8)> = archive
        .catalog()
        .pages
        .range((1, 0)..=(2, u8::MAX))
        .map(|(&key, _)| key)
        .filter(|&(_, source)| source == 1)
        .collect();
    assert_eq!(keys, [(1, 1), (2, 1)]);
    for &(day, source) in &keys {
        assert!(archive.table(day, source).unwrap().is_some());
    }
    assert_eq!(archive.counters().since(&before).pages_decoded, 2);
    // Projection: two columns only, and the counters prove fewer decoded
    // bytes than a full read of the same pages.
    let before = archive.counters();
    let narrow = read_all(&archive, Some(&["entry", "asn"]));
    let after_narrow = archive.counters().since(&before);
    assert!(narrow
        .iter()
        .all(|(_, table)| table.schema().names() == ["entry", "asn"]));
    let full = read_all(&archive, None);
    let after_full = archive.counters().since(&before);
    let full_delta = after_full.since(&after_narrow);
    assert_eq!(narrow.len(), full.len());
    assert_eq!(after_narrow.pages_decoded, full_delta.pages_decoded);
    assert!(
        after_narrow.decoded_bytes < full_delta.decoded_bytes,
        "projected reads decoded {} bytes, full reads {}",
        after_narrow.decoded_bytes,
        full_delta.decoded_bytes
    );
    // Projected values equal the full table's columns.
    for ((nk, n), (fk, f)) in narrow.iter().zip(&full) {
        assert_eq!(nk, fk);
        assert_eq!(
            n.column_by_name("asn").unwrap(),
            f.column_by_name("asn").unwrap()
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn warm_cache_serves_repeated_scans_without_decoding() {
    let path = temp_archive("warm");
    write_archive(&path, 10);
    let archive = Archive::open(&path).unwrap();
    let cold = archive.counters();
    assert_eq!(read_all(&archive, None).len(), 20);
    let after_first = archive.counters();
    let first = after_first.since(&cold);
    assert_eq!(first.pages_decoded, 20);
    read_all(&archive, None);
    let second = archive.counters().since(&after_first);
    assert_eq!(second.pages_decoded, 0, "warm pass decodes nothing");
    assert_eq!(second.cache_hits, 20);
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_after_clean_commit_appends() {
    let path = temp_archive("resume");
    let dict = write_archive(&path, 2);
    {
        let mut w = ArchiveWriter::resume(&path, Some("entry")).unwrap();
        assert_eq!(w.last_day(), Some(1));
        assert!(w.contains(1, 0));
        assert!(!w.contains(2, 0));
        assert_eq!(
            w.dict().get("cloudflare.com"),
            dict.get("cloudflare.com"),
            "dictionary recovered from footer"
        );
        for source in 0..2u8 {
            w.append_table(2, source, &table(2, 22 + u32::from(source)), 100)
                .unwrap();
        }
        w.commit(&dict).unwrap();
    }
    let archive = Archive::open(&path).unwrap();
    assert_eq!(archive.days(0), vec![0, 1, 2]);
    assert_eq!(archive.stats(0).unwrap().data_points, 300);
    assert!(archive.verify().unwrap().all_ok());
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_recovers_from_torn_tail() {
    let path = temp_archive("torn");
    let dict = write_archive(&path, 3);
    let committed_len = std::fs::metadata(&path).unwrap().len();
    // Simulate a writer killed mid-append: garbage pages and half a footer
    // after the durable trailer.
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&vec![0xAB; 4096]).unwrap();
        f.write_all(b"DPSFOO").unwrap(); // torn magic prefix
    }
    assert!(
        Archive::open(&path).is_err(),
        "strict open refuses a torn tail"
    );
    let mut w = ArchiveWriter::resume(&path, Some("entry")).unwrap();
    assert_eq!(w.last_day(), Some(2), "recovered the last durable footer");
    w.commit(&dict).unwrap();
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        committed_len,
        "recommit truncates the torn tail and restores the committed image"
    );
    let archive = Archive::open(&path).unwrap();
    assert!(archive.verify().unwrap().all_ok());
    std::fs::remove_file(&path).ok();
}

#[test]
fn flipped_page_byte_is_a_clean_error() {
    let path = temp_archive("flip");
    write_archive(&path, 2);
    // Flip one byte inside the first page region (pages start at offset 8).
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[20] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    let archive = Archive::open(&path).unwrap();
    let report = archive.verify().unwrap();
    assert!(!report.all_ok());
    assert_eq!(report.corrupt.len(), 1);
    let err = archive
        .table(report.corrupt[0].0, report.corrupt[0].1)
        .unwrap_err();
    assert!(err.to_string().contains("checksum"), "{err}");
    // Untouched pages still load.
    assert!(archive.table(1, 1).unwrap().is_some());
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_and_corrupt_footers_are_clean_errors() {
    let path = temp_archive("footer");
    write_archive(&path, 2);
    let bytes = std::fs::read(&path).unwrap();

    // Truncated mid-footer: open and resume both fail without panicking
    // (resume still finds the *previous* committed footer).
    std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
    assert!(Archive::open(&path).is_err());
    let w = ArchiveWriter::resume(&path, None).unwrap();
    assert_eq!(w.last_day(), Some(0), "fell back to the day-0 footer");

    // Flipped byte inside the final footer: checksum rejects it.
    let mut corrupt = bytes.clone();
    let n = corrupt.len();
    corrupt[n - 30] ^= 0xFF;
    std::fs::write(&path, &corrupt).unwrap();
    assert!(Archive::open(&path).is_err());

    // Not an archive at all.
    std::fs::write(&path, b"not an archive").unwrap();
    assert!(Archive::open(&path).is_err());
    assert!(ArchiveWriter::resume(&path, None).is_err());

    // Empty file.
    std::fs::write(&path, b"").unwrap();
    assert!(Archive::open(&path).is_err());
    std::fs::remove_file(&path).ok();
}

/// Regression for the old `Mutex<File>` seek+read page path: positioned
/// reads (`read_exact_at`) carry their own offset, so concurrent scan
/// threads reading *disjoint* pages share no cursor. The barrier forces
/// every read to start at the same instant; if page reads ever went back
/// to a shared seek position without a lock, the racing cursors would
/// corrupt reads and the per-page content assertions below would fail.
#[test]
fn concurrent_disjoint_page_reads_do_not_serialize() {
    let path = temp_archive("concurrent");
    write_archive(&path, 8);
    // Cache disabled: every access must hit the positioned-read path.
    let archive = Archive::open_with_cache(&path, 0).unwrap();
    let threads = 4usize;
    let barrier = std::sync::Barrier::new(threads);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let archive = &archive;
            let barrier = &barrier;
            scope.spawn(move || {
                for pass in 0..25 {
                    barrier.wait();
                    // Each thread owns a disjoint slice of days; both
                    // sources of each day are read back and checked.
                    for day in (t as u32 * 2)..(t as u32 * 2 + 2) {
                        for source in 0..2u8 {
                            let table = archive.table(day, source).unwrap().unwrap();
                            assert_eq!(
                                table.rows() as u32,
                                20 + day + u32::from(source),
                                "pass {pass}: thread {t} read a torn page"
                            );
                            assert!(table
                                .column_by_name("day")
                                .unwrap()
                                .iter()
                                .all(|&d| d == day));
                        }
                    }
                }
            });
        }
    });
    let io = archive.counters();
    assert_eq!(io.pages_decoded, 4 * 25 * 2 * 2);
    assert_eq!(io.cache_hits, 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn duplicate_page_rejected() {
    let path = temp_archive("dup");
    let mut w = ArchiveWriter::create(&path, None).unwrap();
    w.append_table(0, 0, &table(0, 5), 25).unwrap();
    assert!(w.append_table(0, 0, &table(0, 5), 25).is_err());
    std::fs::remove_file(&path).ok();
}

#[test]
fn telemetry_mirrors_counters_and_footer_walks() {
    let path = temp_archive("telemetry");
    write_archive(&path, 3);
    let registry = dps_telemetry::Registry::new();
    let archive = Archive::open_with_telemetry(&path, 1 << 20, &registry).unwrap();
    read_all(&archive, None);
    read_all(&archive, None);
    let snap = registry.snapshot();
    assert_eq!(snap.counters["store.footer.walks"], 1);
    // 3 days × 2 sources = 6 pages; cold pass misses, warm pass hits.
    assert_eq!(snap.counters["store.cache.misses"], 6);
    assert_eq!(snap.counters["store.cache.hits"], 6);
    assert_eq!(snap.counters["store.pages.decoded"], 6);
    let io = archive.counters();
    assert_eq!(snap.counters["store.bytes.read"], io.disk_bytes_read);
    let chain = &snap.histograms["store.footer.chain"];
    assert_eq!(chain.count, 1);
    assert_eq!(chain.sum, 3, "one committed footer delta per day");
    std::fs::remove_file(&path).ok();
}
