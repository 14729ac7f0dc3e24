//! Stage II: the snapshot store — daily per-source columnar tables.
//!
//! The `dps-store` archive a sweep writes is the store of record;
//! [`load_archive`](SnapshotStore::load_archive) is the one way to read
//! it back into a `SnapshotStore` for analysis.

use crate::observation::{schema, Source, SOURCES};
use crate::pipeline::ANALYSIS_SOURCE;
use crate::quality::{decode_qualities, encode_qualities, DayQuality, QUALITY_SOURCE};
use crate::telemetry::{decode_telemetry, encode_telemetry, TELEMETRY_SOURCE};
use dps_columnar::{StringDict, Table};
use dps_store::{StoreReader, StoreWriter};
use dps_telemetry::Snapshot;
use std::collections::{BTreeMap, BTreeSet};

/// Name of the single-file archive inside an archive directory.
pub const ARCHIVE_FILE: &str = "archive.dps";

/// The table column whose distinct values the archive tracks per source
/// (zone entries — the paper's unique-SLD statistic).
pub const UNIQUE_KEY_COLUMN: &str = "entry";

/// Per-source data-set statistics (paper Table 1).
#[derive(Debug, Clone, Default)]
pub struct SourceStats {
    /// First measured day, if any.
    pub first_day: Option<u32>,
    /// Last measured day.
    pub last_day: Option<u32>,
    /// Number of measured days.
    pub days: u32,
    /// Unique SLDs (zone entries) observed over the whole period. Ordered
    /// so persistence and reporting paths iterate deterministically.
    pub unique_slds: BTreeSet<u32>,
    /// Collected data points (resource records).
    pub data_points: u64,
    /// Stored (encoded) bytes.
    pub stored_bytes: u64,
    /// Raw (4 bytes/cell) bytes.
    pub raw_bytes: u64,
}

/// One stored day table: its encoded bytes and the true collected
/// data-point count (persisted exactly — never re-estimated on reload).
struct StoredTable {
    bytes: Vec<u8>,
    data_points: u64,
}

/// The measurement archive: one encoded table per (day, source), plus the
/// shared string dictionary and per-source statistics.
pub struct SnapshotStore {
    /// Shared dictionary of infrastructure names (CNAME/NS SLDs, NS hosts,
    /// infrastructure apexes); customer apexes are derived from `entry`.
    pub dict: StringDict,
    tables: BTreeMap<(u32, u8), StoredTable>,
    stats: Vec<SourceStats>,
    qualities: BTreeMap<(u32, u8), DayQuality>,
    telemetry: BTreeMap<u32, Snapshot>,
    analysis: BTreeMap<u32, Vec<u8>>,
}

impl SnapshotStore {
    /// An empty store.
    pub fn new() -> Self {
        Self {
            dict: StringDict::new(),
            tables: BTreeMap::new(),
            stats: vec![SourceStats::default(); SOURCES.len()],
            qualities: BTreeMap::new(),
            telemetry: BTreeMap::new(),
            analysis: BTreeMap::new(),
        }
    }

    /// Records a day's streaming-analysis checkpoint page (encoded table
    /// bytes, held opaquely — `dps-stream` owns the codec).
    pub fn add_analysis(&mut self, day: u32, bytes: Vec<u8>) {
        self.analysis.insert(day, bytes);
    }

    /// Records a day's telemetry snapshot (replacing any existing one).
    pub fn add_telemetry(&mut self, day: u32, snapshot: Snapshot) {
        self.telemetry.insert(day, snapshot);
    }

    /// The telemetry snapshot for `day`, if the sweep stored one.
    pub fn telemetry(&self, day: u32) -> Option<&Snapshot> {
        self.telemetry.get(&day)
    }

    /// Every stored `(day, snapshot)` pair, ascending by day.
    pub fn all_telemetry(&self) -> impl Iterator<Item = (u32, &Snapshot)> {
        self.telemetry.iter().map(|(&d, s)| (d, s))
    }

    /// Every per-day snapshot merged into one (counters and histograms
    /// add; gauges keep the latest day's level).
    pub fn merged_telemetry(&self) -> Snapshot {
        let mut merged = Snapshot::default();
        for snapshot in self.telemetry.values() {
            merged.merge(snapshot);
        }
        merged
    }

    /// Records a day's quality record (replacing any existing one for the
    /// same `(day, source)`).
    pub fn add_quality(&mut self, quality: DayQuality) {
        self.qualities
            .insert((quality.day, quality.source.index() as u8), quality);
    }

    /// The quality record for `(day, source)`, if the sweep stored one.
    pub fn quality(&self, day: u32, source: Source) -> Option<&DayQuality> {
        self.qualities.get(&(day, source.index() as u8))
    }

    /// Quality records of one source, ascending by day.
    pub fn qualities(&self, source: Source) -> Vec<&DayQuality> {
        self.qualities
            .iter()
            .filter(|((_, s), _)| *s == source.index() as u8)
            .map(|(_, q)| q)
            .collect()
    }

    /// Every quality record, ascending by `(day, source)`.
    pub fn all_qualities(&self) -> impl Iterator<Item = &DayQuality> {
        self.qualities.values()
    }

    /// Adds a finished day table, updating statistics.
    pub fn add_table(&mut self, day: u32, source: Source, table: &Table, data_points: u64) {
        let bytes = table.to_bytes();
        let Some(st) = self.stats.get_mut(source.index()) else {
            return;
        };
        st.first_day = Some(st.first_day.map_or(day, |d| d.min(day)));
        st.last_day = Some(st.last_day.map_or(day, |d| d.max(day)));
        st.days += 1;
        st.data_points += data_points;
        st.stored_bytes += bytes.len() as u64;
        st.raw_bytes += table.raw_len() as u64;
        if let Some(col) = table.column_by_name(UNIQUE_KEY_COLUMN) {
            st.unique_slds.extend(col.iter().copied());
        }
        self.tables.insert(
            (day, source.index() as u8),
            StoredTable { bytes, data_points },
        );
    }

    /// Decodes the table for `(day, source)`. Undecodable stored bytes
    /// read as absent rather than aborting the process.
    pub fn table(&self, day: u32, source: Source) -> Option<Table> {
        self.tables
            .get(&(day, source.index() as u8))
            .and_then(|t| Table::from_bytes(&t.bytes).ok())
    }

    /// Days measured for a source, ascending.
    pub fn days(&self, source: Source) -> Vec<u32> {
        self.tables
            .keys()
            .filter(|(_, s)| *s == source.index() as u8)
            .map(|(d, _)| *d)
            .collect()
    }

    /// The encoded table blobs of one source, ascending by day (the
    /// parallel analysis engine decodes them on worker threads).
    pub fn encoded(&self, source: Source) -> Vec<(u32, &[u8])> {
        self.tables
            .iter()
            .filter(|((_, s), _)| *s == source.index() as u8)
            .map(|((d, _), t)| (*d, t.bytes.as_slice()))
            .collect()
    }

    /// Iterates (day, decoded table) for one source, ascending by day.
    pub fn scan(&self, source: Source) -> impl Iterator<Item = (u32, Table)> + '_ {
        self.tables
            .iter()
            .filter(move |((_, s), _)| *s == source.index() as u8)
            .map(|((d, _), t)| (*d, Table::from_bytes(&t.bytes).expect("valid")))
    }

    /// Raw encoded bytes of every stored table (for size accounting).
    pub fn total_stored_bytes(&self) -> u64 {
        self.tables.values().map(|t| t.bytes.len() as u64).sum()
    }

    /// Statistics for a source.
    pub fn stats(&self, source: Source) -> &SourceStats {
        // dps: allow(taint-panic, reason = "stats is built with one slot per SOURCES entry and source.index() is that source's position in SOURCES; no input reaches the index")
        &self.stats[source.index()]
    }

    /// The snapshot schema (fixed).
    pub fn schema(&self) -> dps_columnar::Schema {
        schema()
    }

    /// Persists the whole store as a `dps-store` single-file archive at
    /// `path`: CRC-checked pages, footer catalog with the exact per-table
    /// data-point counts, and the string dictionary.
    pub fn save_archive(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut writer = StoreWriter::create_store(path, 1, Some(UNIQUE_KEY_COLUMN))?;
        // Append in global (day, source) page order: a day's data tables
        // first, then its quality page under QUALITY_SOURCE, then its
        // telemetry page under TELEMETRY_SOURCE — the same order
        // `Study::run_archived` streams pages in, so both writers produce
        // the same pages for identical content.
        let days: BTreeSet<u32> = self
            .tables
            .keys()
            .chain(self.qualities.keys())
            .map(|&(day, _)| day)
            .chain(self.telemetry.keys().copied())
            .collect();
        for day in days {
            for (&(_, source), stored) in self.tables.range((day, 0)..=(day, u8::MAX)) {
                let table = Table::from_bytes(&stored.bytes).map_err(std::io::Error::other)?;
                writer.append_table(day, source, &table, stored.data_points)?;
            }
            let day_qualities: Vec<DayQuality> = self
                .qualities
                .range((day, 0)..=(day, u8::MAX))
                .map(|(_, q)| *q)
                .collect();
            if !day_qualities.is_empty() {
                writer.append_table(day, QUALITY_SOURCE, &encode_qualities(&day_qualities), 0)?;
            }
            if let Some(snapshot) = self.telemetry.get(&day) {
                writer.append_table(day, TELEMETRY_SOURCE, &encode_telemetry(snapshot), 0)?;
            }
            if let Some(bytes) = self.analysis.get(&day) {
                let table = Table::from_bytes(bytes).map_err(std::io::Error::other)?;
                writer.append_table(day, ANALYSIS_SOURCE, &table, 0)?;
            }
        }
        writer.commit(&self.dict)
    }

    /// Reads the archive at base path `path` — single-file or manifest +
    /// shard files — into a store: the dictionary, every page, and the
    /// per-source statistics. Days, data points, raw bytes and unique
    /// entries come from the catalog (exact, never estimated); stored
    /// bytes count the logical tables, so a sharded archive reads the same
    /// as the single-file one.
    ///
    /// Data pages are kept as the encoded bytes the archive holds. Each
    /// page is still decoded once, on the worker pool, to check that it
    /// decodes and carries this build's schema; the decoded table is
    /// dropped inside its task, so at most one decoded page per worker is
    /// alive at a time. Any failing page makes the whole load an `Err`.
    pub fn load_archive(path: &std::path::Path) -> std::io::Result<Self> {
        // Every page is read once, so no page cache keeps decoded tables
        // alive.
        let reader = StoreReader::open_auto_with_cache(path, 0)?;
        let catalog = reader.catalog();
        let mut store = Self {
            dict: reader.dict().clone(),
            ..Self::new()
        };
        for (slot, st) in store.stats.iter_mut().zip(catalog.stats()) {
            *slot = SourceStats {
                first_day: st.first_day,
                last_day: st.last_day,
                days: st.days,
                unique_slds: st.unique_keys,
                data_points: st.data_points,
                stored_bytes: 0,
                raw_bytes: st.raw_bytes,
            };
        }
        let pages: Vec<_> = catalog.pages.iter().collect();
        let loaded = dps_columnar::mapreduce::par_map(&pages, |(&(day, source), _)| {
            load_page(&reader, day, source)
        });
        for ((&(day, source), meta), page) in pages.into_iter().zip(loaded) {
            match page? {
                LoadedPage::Data(bytes) => {
                    let stats = store
                        .stats
                        .get_mut(usize::from(source))
                        .ok_or_else(|| std::io::Error::other("archive has an unknown source id"))?;
                    stats.stored_bytes += bytes.len() as u64;
                    store.tables.insert(
                        (day, source),
                        StoredTable {
                            bytes,
                            data_points: meta.data_points,
                        },
                    );
                }
                LoadedPage::Analysis(bytes) => {
                    store.analysis.insert(day, bytes);
                }
                LoadedPage::Telemetry(snapshot) => store.add_telemetry(day, snapshot),
                LoadedPage::Quality(qualities) => {
                    for q in qualities {
                        store.add_quality(q);
                    }
                }
            }
        }
        Ok(store)
    }
}

/// One archive page, checked and sorted by kind ([`load_page`]'s output).
enum LoadedPage {
    /// A measurement table's encoded bytes.
    Data(Vec<u8>),
    /// A streaming-analysis checkpoint's encoded bytes.
    Analysis(Vec<u8>),
    /// A decoded telemetry snapshot.
    Telemetry(Snapshot),
    /// Decoded quality records.
    Quality(Vec<DayQuality>),
}

/// Reads the page `(day, source)` of `reader`, decoded once
/// ([`StoreReader::page`]): data and checkpoint pages come back as their
/// encoded bytes once they are known to decode (and, for data, to carry
/// this build's schema); quality and telemetry pages come back decoded.
fn load_page(reader: &StoreReader, day: u32, source: u8) -> std::io::Result<LoadedPage> {
    let (table, bytes) = reader
        .page(day, source)?
        .ok_or_else(|| std::io::Error::other("catalog lists a page the archive cannot produce"))?;
    match source {
        ANALYSIS_SOURCE => Ok(LoadedPage::Analysis(bytes)),
        TELEMETRY_SOURCE => decode_telemetry(&table)
            .map(LoadedPage::Telemetry)
            .ok_or_else(|| std::io::Error::other("archive holds an undecodable telemetry page")),
        QUALITY_SOURCE => decode_qualities(&table)
            .map(LoadedPage::Quality)
            .ok_or_else(|| std::io::Error::other("archive holds an undecodable quality page")),
        _ if table.schema().names() != schema().names() => Err(std::io::Error::other(
            "archive schema does not match this build; re-run the study",
        )),
        _ => Ok(LoadedPage::Data(bytes)),
    }
}

impl Default for SnapshotStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_columnar::TableBuilder;

    fn table_with_rows(day: u32, n: u32) -> Table {
        let mut b = TableBuilder::new(schema());
        for i in 0..n {
            let mut row = [0u32; 18];
            row[0] = day;
            row[1] = Source::Com.index() as u32;
            row[2] = i * 2;
            b.push_row(&row);
        }
        b.finish()
    }

    #[test]
    fn stats_accumulate_across_days() {
        let mut store = SnapshotStore::new();
        store.add_table(0, Source::Com, &table_with_rows(0, 100), 400);
        store.add_table(1, Source::Com, &table_with_rows(1, 120), 480);
        let st = store.stats(Source::Com);
        assert_eq!(st.days, 2);
        assert_eq!(st.first_day, Some(0));
        assert_eq!(st.last_day, Some(1));
        assert_eq!(st.data_points, 880);
        assert_eq!(st.unique_slds.len(), 120);
        assert!(st.stored_bytes > 0);
        assert!(st.stored_bytes < st.raw_bytes);
    }

    #[test]
    fn save_load_roundtrip() {
        let mut store = SnapshotStore::new();
        store.dict.intern("cloudflare.com");
        store.add_table(0, Source::Com, &table_with_rows(0, 50), 250);
        store.add_table(1, Source::Com, &table_with_rows(1, 60), 300);
        store.add_table(0, Source::Org, &table_with_rows(0, 10), 50);
        let path = std::env::temp_dir().join(format!("dps-store-test-{}.dps", std::process::id()));
        store.save_archive(&path).unwrap();
        let back = SnapshotStore::load_archive(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            back.dict.get("cloudflare.com"),
            store.dict.get("cloudflare.com")
        );
        assert_eq!(back.days(Source::Com), vec![0, 1]);
        let t = back.table(1, Source::Com).unwrap();
        assert_eq!(t.rows(), 60);
        assert_eq!(back.stats(Source::Com).days, 2);
        assert_eq!(back.stats(Source::Org).unique_slds.len(), 10);
    }

    /// Regression: `data_points` used to be reconstructed on reload as
    /// `non-failed rows × 5`, silently replacing the true collected count.
    /// The archive catalog persists the exact value, so a save→load
    /// roundtrip must preserve every `SourceStats` field bit-for-bit.
    #[test]
    fn save_load_roundtrips_stats_exactly() {
        let mut store = SnapshotStore::new();
        store.dict.intern("incapdns.net");
        // 400 and 301 are deliberately NOT multiples of rows×5, so the old
        // estimate could never reproduce them.
        store.add_table(0, Source::Com, &table_with_rows(0, 100), 400);
        store.add_table(2, Source::Com, &table_with_rows(2, 80), 301);
        store.add_table(1, Source::Nl, &table_with_rows(1, 30), 77);
        let path =
            std::env::temp_dir().join(format!("dps-snapshot-exact-{}.dps", std::process::id()));
        store.save_archive(&path).unwrap();
        let back = SnapshotStore::load_archive(&path).unwrap();
        std::fs::remove_file(&path).ok();
        for source in SOURCES {
            let (a, b) = (store.stats(source), back.stats(source));
            assert_eq!(a.first_day, b.first_day, "{source:?} first_day");
            assert_eq!(a.last_day, b.last_day, "{source:?} last_day");
            assert_eq!(a.days, b.days, "{source:?} days");
            assert_eq!(a.data_points, b.data_points, "{source:?} data_points");
            assert_eq!(a.stored_bytes, b.stored_bytes, "{source:?} stored_bytes");
            assert_eq!(a.raw_bytes, b.raw_bytes, "{source:?} raw_bytes");
            assert_eq!(a.unique_slds, b.unique_slds, "{source:?} unique_slds");
        }
        assert_eq!(back.stats(Source::Com).data_points, 701);
        assert_eq!(back.stats(Source::Nl).data_points, 77);
    }

    #[test]
    fn quality_records_roundtrip_through_the_archive() {
        use crate::quality::CauseCounts;
        let mut store = SnapshotStore::new();
        store.add_table(0, Source::Com, &table_with_rows(0, 10), 50);
        store.add_table(1, Source::Com, &table_with_rows(1, 10), 50);
        let q0 = DayQuality {
            day: 0,
            source: Source::Com,
            attempted: 10,
            failed: 2,
            retried: 3,
            recovered: 1,
            causes: CauseCounts {
                timeouts: 4,
                unreachable: 1,
                corrupt: 0,
                servfail: 2,
                other: 0,
            },
            retry_passes: 2,
            breaker_trips: 1,
            hedges: 6,
        };
        store.add_quality(q0);
        store.add_quality(DayQuality::perfect(1, Source::Com, 10, 0));
        let path =
            std::env::temp_dir().join(format!("dps-snapshot-quality-{}.dps", std::process::id()));
        store.save_archive(&path).unwrap();
        let back = SnapshotStore::load_archive(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.quality(0, Source::Com), Some(&q0));
        assert_eq!(back.qualities(Source::Com).len(), 2);
        assert!((back.quality(0, Source::Com).unwrap().coverage() - 0.8).abs() < 1e-12);
        // Quality pages never leak into data-table accessors or stats.
        assert_eq!(back.days(Source::Com), vec![0, 1]);
        assert_eq!(back.stats(Source::Com).days, 2);
    }

    #[test]
    fn telemetry_snapshots_roundtrip_through_the_archive() {
        let registry = dps_telemetry::Registry::new();
        registry.counter("sweep.attempted").add(42);
        registry.histogram("sweep.day.us").observe(1_000_000);
        let mut store = SnapshotStore::new();
        store.add_table(0, Source::Com, &table_with_rows(0, 10), 50);
        store.add_telemetry(0, registry.snapshot());
        let path =
            std::env::temp_dir().join(format!("dps-snapshot-telemetry-{}.dps", std::process::id()));
        store.save_archive(&path).unwrap();
        let back = SnapshotStore::load_archive(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let day0 = back.telemetry(0).expect("telemetry page restored");
        assert_eq!(day0.counters.get("sweep.attempted"), Some(&42));
        assert_eq!(
            day0.histograms.get("sweep.day.us").map(|h| h.sum),
            Some(1_000_000)
        );
        assert_eq!(back.merged_telemetry().counters["sweep.attempted"], 42);
        // Telemetry pages never leak into data-table accessors or stats.
        assert_eq!(back.days(Source::Com), vec![0]);
        assert_eq!(back.stats(Source::Com).days, 1);
    }

    #[test]
    fn load_missing_dir_errors() {
        let missing = std::path::Path::new("/nonexistent-dps").join(ARCHIVE_FILE);
        assert!(SnapshotStore::load_archive(&missing).is_err());
    }

    #[test]
    fn scan_returns_days_in_order() {
        let mut store = SnapshotStore::new();
        for day in [3u32, 1, 2] {
            store.add_table(day, Source::Net, &table_with_rows(day, 10), 0);
        }
        let days: Vec<u32> = store.scan(Source::Net).map(|(d, _)| d).collect();
        assert_eq!(days, vec![1, 2, 3]);
        assert!(store.table(2, Source::Net).is_some());
        assert!(store.table(2, Source::Org).is_none());
    }
}
