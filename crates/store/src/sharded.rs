//! The archive store: one reader and one writer over 1..N data files.
//!
//! ```text
//! dir/archive.dps           single file: every page and the StringDict
//!
//! dir/archive.manifest      sharded: the StringDict, per-day coverage
//!                           pages and an n_shards meta page
//! dir/archive.shard000.dps  row range [0/N, 1/N) of every logical page,
//! dir/archive.shard001.dps  … with empty dictionaries
//! ```
//!
//! A single-file archive is the one-file case of the sharded layout:
//! [`StoreWriter`] holds one [`ArchiveWriter`] and [`StoreReader`] one
//! [`Archive`] per data file, plus the manifest when there are several.
//! Appends, lookups, per-file reads and checksums run the same code for
//! both; only open, resume, commit, [`StoreReader::verify`]'s coverage
//! check and [`StoreReader::page`] look at whether a manifest exists.
//! [`StoreReader::open_auto`] picks the layout by probing for it.
//!
//! Every logical page `(day, source)` is row-split across **all** data
//! files with the cluster-lease arithmetic (`start = rows·k/N`), so each
//! file's catalog has exactly the logical key set and per-file scan
//! threads get near-equal work without any placement directory. Data
//! files are ordinary archives — the footer/CRC/torn-tail machinery
//! guards each one. With a manifest their dictionaries stay empty: the
//! shared dictionary lives in the manifest only, so it is stored once
//! instead of N times. With one file the bytes are exactly those of an
//! [`ArchiveWriter`] fed the same tables.
//!
//! **Commit protocol** (sharded): every data file commits first, the
//! manifest commits last. The manifest's coverage pages therefore always
//! describe a subset of what the data files hold durably, and resume is
//! a *rollback*: each file's footer chain is recovered commit-by-commit
//! ([`format::recover_chain`]) and truncated to the longest prefix whose
//! days the manifest vouches for. A crash at any point between the first
//! data-file commit and the manifest commit rolls back to the previous
//! day — the same re-measure-one-day cost as a single file, whose resume
//! cuts the torn tail after its last durable footer.

// Untrusted-input module: manifests and shard files may be torn or
// corrupt; recovery must degrade to errors, never panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::archive::{Archive, CounterSnapshot, VerifyReport, DEFAULT_CACHE_BYTES};
use crate::catalog::{Catalog, PageMeta, SourceStats};
use crate::format;
use crate::writer::ArchiveWriter;
use dps_columnar::{Schema, StringDict, Table, TableBuilder};
use std::collections::{BTreeMap, BTreeSet};
use std::fs::OpenOptions;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Source id of the manifest's single metadata page (day 0): one row,
/// column `n_shards`. Far above real source ids (data 0..=4, quality 5,
/// telemetry 6, analysis 7).
pub const MANIFEST_META_SOURCE: u8 = 255;
/// Source id of the manifest's per-day coverage pages: one row per
/// logical page committed that day, recording its exact totals for
/// cross-checking shard sums in `verify`.
pub const MANIFEST_COVERAGE_SOURCE: u8 = 254;

const META_DAY: u32 = 0;

fn corrupt(what: &str) -> io::Error {
    io::Error::other(format!("dps-store: corrupt sharded archive ({what})"))
}

/// The manifest path for archive base path `base` (`…/archive.dps` →
/// `…/archive.manifest`).
pub fn manifest_path(base: &Path) -> PathBuf {
    base.with_extension("manifest")
}

/// The shard-`k` path for archive base path `base` (`…/archive.dps` →
/// `…/archive.shard000.dps`).
pub fn shard_path(base: &Path, shard: u32) -> PathBuf {
    let stem = base
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "archive".to_owned());
    base.with_file_name(format!("{stem}.shard{shard:03}.dps"))
}

/// The row range of shard `k` of `n` for a page with `rows` rows — the
/// same arithmetic the cluster uses for work leases, so ranges tile the
/// table exactly and differ in size by at most one row.
pub fn shard_range(rows: usize, shard: u32, n_shards: u32) -> (usize, usize) {
    let n = u64::from(n_shards.max(1));
    let lo = (rows as u64).saturating_mul(u64::from(shard)) / n;
    let hi = (rows as u64).saturating_mul(u64::from(shard) + 1) / n;
    (
        usize::try_from(lo).unwrap_or(rows),
        usize::try_from(hi).unwrap_or(rows),
    )
}

fn meta_table(n_shards: u32) -> Table {
    let mut b = TableBuilder::new(Schema::new(&["n_shards"]));
    b.push_row(&[n_shards]);
    b.finish()
}

/// Exact totals of one logical page, recorded in the manifest's coverage
/// page for the day it was committed.
struct CoverageRow {
    source: u8,
    rows: u64,
    data_points: u64,
    raw_bytes: u64,
}

fn coverage_table(rows: &[CoverageRow]) -> Table {
    let mut b = TableBuilder::new(Schema::new(&[
        "source", "rows_lo", "rows_hi", "dp_lo", "dp_hi", "raw_lo", "raw_hi",
    ]));
    for r in rows {
        b.push_row(&[
            u32::from(r.source),
            (r.rows & 0xFFFF_FFFF) as u32,
            (r.rows >> 32) as u32,
            (r.data_points & 0xFFFF_FFFF) as u32,
            (r.data_points >> 32) as u32,
            (r.raw_bytes & 0xFFFF_FFFF) as u32,
            (r.raw_bytes >> 32) as u32,
        ]);
    }
    b.finish()
}

fn u64_of(lo: u32, hi: u32) -> u64 {
    u64::from(lo) | (u64::from(hi) << 32)
}

/// The data-file shard count recorded in a manifest's meta page.
fn manifest_shards(manifest: &Archive) -> io::Result<u32> {
    let meta = manifest
        .table(META_DAY, MANIFEST_META_SOURCE)?
        .ok_or_else(|| corrupt("manifest has no meta page"))?;
    let n_shards = meta
        .column_by_name("n_shards")
        .and_then(|c| c.first().copied())
        .ok_or_else(|| corrupt("manifest meta page has no n_shards"))?;
    if n_shards == 0 {
        return Err(corrupt("manifest says 0 shards"));
    }
    Ok(n_shards)
}

/// An archive being written: one [`ArchiveWriter`] per data file, plus
/// the manifest when there is more than one. See the module docs for the
/// layouts and the files-then-manifest commit protocol.
pub struct StoreWriter {
    /// The manifest of a sharded archive; `None` for a single file.
    manifest: Option<ArchiveWriter>,
    /// Data file 0 — the whole archive when there is no manifest.
    first: ArchiveWriter,
    /// Data files 1..N of a sharded archive.
    rest: Vec<ArchiveWriter>,
    /// Sharded only: coverage rows for days appended since the last
    /// commit.
    pending_coverage: BTreeMap<u32, Vec<CoverageRow>>,
}

impl StoreWriter {
    /// Creates (truncating) an archive at base path `path`: a single file
    /// when `shards <= 1`, a manifest plus `shards` data files otherwise.
    pub fn create_store(
        path: &Path,
        shards: u32,
        unique_key_column: Option<&str>,
    ) -> io::Result<Self> {
        if shards <= 1 {
            return Ok(Self::single(ArchiveWriter::create(
                path,
                unique_key_column,
            )?));
        }
        let mut manifest = ArchiveWriter::create(&manifest_path(path), None)?;
        manifest.append_table(META_DAY, MANIFEST_META_SOURCE, &meta_table(shards), 0)?;
        manifest.commit(&StringDict::new())?;
        let first = ArchiveWriter::create(&shard_path(path, 0), unique_key_column)?;
        let rest = (1..shards)
            .map(|k| ArchiveWriter::create(&shard_path(path, k), unique_key_column))
            .collect::<io::Result<_>>()?;
        Ok(Self {
            manifest: Some(manifest),
            first,
            rest,
            pending_coverage: BTreeMap::new(),
        })
    }

    /// Resumes whichever layout exists at `path` (a manifest beats the
    /// requested shard count — an existing sharded archive is resumed as
    /// such even when the caller asks for 1), creating a fresh archive
    /// with `shards` data files when nothing exists. Refuses a shard
    /// count that contradicts an existing archive.
    pub fn resume_or_create(
        path: &Path,
        shards: u32,
        unique_key_column: Option<&str>,
    ) -> io::Result<Self> {
        if manifest_path(path).exists() {
            let writer = Self::resume_sharded(path, unique_key_column)?;
            if shards > 1 && writer.n_shards() != shards {
                return Err(io::Error::other(format!(
                    "dps-store: archive has {} shards but {} were requested",
                    writer.n_shards(),
                    shards
                )));
            }
            return Ok(writer);
        }
        if path.exists() {
            if shards > 1 {
                return Err(io::Error::other(
                    "dps-store: cannot resume a single-file archive with --shards > 1",
                ));
            }
            // The torn tail after the last durable footer is cut off.
            return Ok(Self::single(ArchiveWriter::resume(
                path,
                unique_key_column,
            )?));
        }
        Self::create_store(path, shards, unique_key_column)
    }

    fn single(file: ArchiveWriter) -> Self {
        Self {
            manifest: None,
            first: file,
            rest: Vec::new(),
            pending_coverage: BTreeMap::new(),
        }
    }

    /// Resumes a sharded archive: recovers the manifest (the anchor of
    /// truth), then rolls every data file back to the longest chain
    /// prefix whose days the manifest covers. Fails if a data file is
    /// missing a day the manifest vouches for — that is data loss, not a
    /// torn tail.
    fn resume_sharded(base: &Path, unique_key_column: Option<&str>) -> io::Result<Self> {
        let mpath = manifest_path(base);
        let manifest = ArchiveWriter::resume(&mpath, None)?;
        // The writer does not read pages; reopen read-only for the meta
        // page now that the torn tail (if any) has been truncated.
        let n_shards = manifest_shards(&Archive::open_with_cache(&mpath, 0)?)?;
        let covered: BTreeSet<u32> = manifest
            .catalog()
            .pages
            .keys()
            .filter(|&&(_, s)| s == MANIFEST_COVERAGE_SOURCE)
            .map(|&(d, _)| d)
            .collect();
        let rollback = |k: u32| -> io::Result<ArchiveWriter> {
            let mut file = OpenOptions::new()
                .read(true)
                .write(true)
                .open(shard_path(base, k))?;
            let commits = format::recover_chain(&mut file)?;
            // Longest prefix of commits whose pages are all covered by
            // the manifest; anything after it was committed to this file
            // but never reached the manifest — roll it back.
            let prefix_len = commits
                .iter()
                .position(|c| c.delta.pages.iter().any(|p| !covered.contains(&p.day)))
                .unwrap_or(commits.len());
            let prefix = commits.get(..prefix_len).unwrap_or(&commits);
            let mut catalog = Catalog::new();
            for commit in prefix {
                catalog
                    .apply(&commit.delta)
                    .ok_or_else(|| corrupt("shard chain prefix does not apply cleanly"))?;
            }
            let shard_days: BTreeSet<u32> = catalog.pages.keys().map(|&(d, _)| d).collect();
            if shard_days != covered {
                return Err(corrupt(&format!(
                    "shard {k} is missing days the manifest covers"
                )));
            }
            let trailer_end = prefix.last().map_or(8, |c| c.trailer_end);
            file.set_len(trailer_end)?;
            Ok(ArchiveWriter::from_recovered(
                file,
                catalog,
                trailer_end,
                unique_key_column,
            ))
        };
        Ok(Self {
            manifest: Some(manifest),
            first: rollback(0)?,
            rest: (1..n_shards).map(rollback).collect::<io::Result<_>>()?,
            pending_coverage: BTreeMap::new(),
        })
    }

    /// Number of data files (1 for the single-file layout).
    pub fn n_shards(&self) -> u32 {
        1 + self.rest.len() as u32
    }

    /// The dictionary recovered from the last committed footer (the
    /// manifest's, when sharded).
    pub fn dict(&self) -> &StringDict {
        self.manifest.as_ref().unwrap_or(&self.first).dict()
    }

    /// True if a page for `(day, source)` is already present. Every data
    /// file holds a sub-page of every logical page, so file 0 answers for
    /// all.
    pub fn contains(&self, day: u32, source: u8) -> bool {
        self.first.contains(day, source)
    }

    /// The last day with any committed or appended page.
    pub fn last_day(&self) -> Option<u32> {
        self.first.last_day()
    }

    /// True if no page has been committed or appended yet.
    pub fn is_empty(&self) -> bool {
        self.first.catalog().pages.is_empty()
    }

    /// Logical pages appended since the last commit.
    pub fn uncommitted_pages(&self) -> usize {
        self.first.uncommitted_pages()
    }

    /// Appends one logical table, row-split across the data files (all of
    /// it to the only file of a single-file archive). The full
    /// `data_points` total is attributed to file 0's sub-page, so summing
    /// sub-page metadata reproduces exact logical totals.
    pub fn append_table(
        &mut self,
        day: u32,
        source: u8,
        table: &Table,
        data_points: u64,
    ) -> io::Result<()> {
        let rows = table.rows();
        let n = self.n_shards();
        let files = std::iter::once(&mut self.first).chain(&mut self.rest);
        for (k, file) in files.enumerate() {
            let (lo, hi) = shard_range(rows, k as u32, n);
            file.append_rows(
                day,
                source,
                table,
                lo..hi,
                if k == 0 { data_points } else { 0 },
            )?;
        }
        if self.manifest.is_some() {
            self.pending_coverage
                .entry(day)
                .or_default()
                .push(CoverageRow {
                    source,
                    rows: rows as u64,
                    data_points,
                    raw_bytes: table.raw_len() as u64,
                });
        }
        Ok(())
    }

    /// Commits everything appended so far. A single file commits with
    /// `dict`. A sharded archive commits every data file first (with its
    /// permanently empty dictionary), then the manifest with this
    /// commit's coverage pages and the real `dict`; a crash between the
    /// two leaves data-file commits that the next resume rolls back.
    pub fn commit(&mut self, dict: &StringDict) -> io::Result<()> {
        let empty = StringDict::new();
        let file_dict = if self.manifest.is_some() {
            &empty
        } else {
            dict
        };
        for file in std::iter::once(&mut self.first).chain(&mut self.rest) {
            file.commit(file_dict)?;
        }
        let Some(manifest) = &mut self.manifest else {
            return Ok(());
        };
        for (day, rows) in std::mem::take(&mut self.pending_coverage) {
            manifest.append_table(day, MANIFEST_COVERAGE_SOURCE, &coverage_table(&rows), 0)?;
        }
        manifest.commit(dict)
    }
}

/// A read-only handle on a committed archive: one [`Archive`] per data
/// file, plus, when sharded, the manifest and the logical catalog merged
/// from the data files.
pub struct StoreReader {
    /// The manifest side of a sharded archive; `None` for a single file,
    /// whose own catalog is the logical one.
    manifest: Option<Manifest>,
    /// Data file 0 — the whole archive when there is no manifest.
    first: Archive,
    /// Data files 1..N of a sharded archive.
    rest: Vec<Archive>,
}

struct Manifest {
    archive: Archive,
    /// Page metadata summed across the data files, uniques unioned, the
    /// manifest's dictionary. Offsets are zero: reads go through the
    /// data files, never through these metas.
    catalog: Catalog,
    stats: Vec<SourceStats>,
}

impl StoreReader {
    /// Opens whichever layout exists at base path `path` with the default
    /// cache: sharded if a manifest sits next to it, single-file
    /// otherwise.
    pub fn open_auto(path: &Path) -> io::Result<Self> {
        Self::open_auto_with_cache(path, DEFAULT_CACHE_BYTES)
    }

    /// Like [`open_auto`](Self::open_auto) with an explicit cache budget,
    /// split evenly across the data files (0 disables caching).
    pub fn open_auto_with_cache(path: &Path, cache_bytes: usize) -> io::Result<Self> {
        let mpath = manifest_path(path);
        if !mpath.exists() {
            return Ok(Self {
                manifest: None,
                first: Archive::open_with_cache(path, cache_bytes)?,
                rest: Vec::new(),
            });
        }
        let archive = Archive::open_with_cache(&mpath, 0)?;
        let n_shards = manifest_shards(&archive)?;
        let per_file_cache = cache_bytes / n_shards as usize;
        let first = Archive::open_with_cache(&shard_path(path, 0), per_file_cache)?;
        let rest: Vec<Archive> = (1..n_shards)
            .map(|k| Archive::open_with_cache(&shard_path(path, k), per_file_cache))
            .collect::<io::Result<_>>()?;
        let catalog = merge_catalogs(archive.dict(), &first, &rest)?;
        let stats = catalog.stats();
        Ok(Self {
            manifest: Some(Manifest {
                archive,
                catalog,
                stats,
            }),
            first,
            rest,
        })
    }

    fn files(&self) -> impl Iterator<Item = &Archive> {
        std::iter::once(&self.first).chain(&self.rest)
    }

    /// True for the manifest + data-files layout.
    pub fn is_sharded(&self) -> bool {
        self.manifest.is_some()
    }

    /// Number of data files (1 for the single-file layout).
    pub fn n_shards(&self) -> u32 {
        1 + self.rest.len() as u32
    }

    /// The logical catalog (merged from the data files when sharded).
    pub fn catalog(&self) -> &Catalog {
        self.manifest
            .as_ref()
            .map_or(self.first.catalog(), |m| &m.catalog)
    }

    /// The shared string dictionary.
    pub fn dict(&self) -> &StringDict {
        &self.catalog().dict
    }

    /// Source slots present (highest source id + 1).
    pub fn n_sources(&self) -> usize {
        self.catalog().n_sources()
    }

    /// Exact statistics for `source`, if it has any pages.
    pub fn stats(&self, source: u8) -> Option<&SourceStats> {
        match &self.manifest {
            Some(m) => m.stats.get(source as usize),
            None => self.first.stats(source),
        }
    }

    /// Days archived for `source`, ascending.
    pub fn days(&self, source: u8) -> Vec<u32> {
        self.catalog().days(source)
    }

    /// I/O and decode counters summed over the data files.
    pub fn counters(&self) -> CounterSnapshot {
        self.files()
            .map(Archive::counters)
            .fold(CounterSnapshot::default(), |sum, c| CounterSnapshot {
                pages_decoded: sum.pages_decoded + c.pages_decoded,
                cache_hits: sum.cache_hits + c.cache_hits,
                disk_bytes_read: sum.disk_bytes_read + c.disk_bytes_read,
                decoded_bytes: sum.decoded_bytes + c.decoded_bytes,
            })
    }

    /// The full logical table for `(day, source)`, if archived: the only
    /// file's page as cached, or every data file's sub-page stacked in
    /// file order, which is original row order.
    pub fn table(&self, day: u32, source: u8) -> io::Result<Option<Arc<Table>>> {
        self.assemble(day, source, |file| file.table(day, source))
    }

    /// Like [`table`](Self::table) but decodes only the named columns.
    pub fn project(&self, day: u32, source: u8, cols: &[&str]) -> io::Result<Option<Arc<Table>>> {
        self.assemble(day, source, |file| file.project(day, source, cols))
    }

    /// The logical page `(day, source)` decoded once, with its encoded
    /// body: the same table and bytes whichever layout holds it. A
    /// single-file page is read as stored (checksum-verified) and decoded;
    /// a sharded page is assembled from its checksum-verified sub-pages
    /// and encoded once — the bytes a single-file archive of that table
    /// would store. A page that does not decode is an error.
    pub fn page(&self, day: u32, source: u8) -> io::Result<Option<(Arc<Table>, Vec<u8>)>> {
        if self.manifest.is_some() {
            return Ok(self.table(day, source)?.map(|table| {
                let bytes = table.to_bytes();
                (table, bytes)
            }));
        }
        let Some(bytes) = self.first.page_bytes(day, source)? else {
            return Ok(None);
        };
        let table = Table::from_bytes(&bytes).map_err(|e| {
            corrupt(&format!(
                "page (day {day}, source {source}) does not decode: {e}"
            ))
        })?;
        Ok(Some((Arc::new(table), bytes)))
    }

    /// One data file's sub-table of a logical page — the unit of parallel
    /// scan work. File 0 of a single-file archive is the whole page; any
    /// other file number has nothing.
    pub fn shard_table(&self, shard: u32, day: u32, source: u8) -> io::Result<Option<Arc<Table>>> {
        match self.files().nth(shard as usize) {
            Some(file) => file.table(day, source),
            None => Ok(None),
        }
    }

    fn assemble(
        &self,
        day: u32,
        source: u8,
        load: impl Fn(&Archive) -> io::Result<Option<Arc<Table>>>,
    ) -> io::Result<Option<Arc<Table>>> {
        // File 0's catalog holds exactly the logical key set.
        let Some(first) = load(&self.first)? else {
            return Ok(None);
        };
        if self.rest.is_empty() {
            return Ok(Some(first));
        }
        let mut parts = vec![first];
        for file in &self.rest {
            parts.push(load(file)?.ok_or_else(|| {
                corrupt(&format!(
                    "page (day {day}, source {source}) missing from a shard"
                ))
            })?);
        }
        let refs: Vec<&Table> = parts.iter().map(Arc::as_ref).collect();
        let merged = Table::vstack(&refs)
            .ok_or_else(|| corrupt("shard sub-pages have mismatched schemas"))?;
        Ok(Some(Arc::new(merged)))
    }

    /// Verifies every page checksum in every file; when sharded, also
    /// cross-checks each manifest coverage row against the summed
    /// data-file metadata, counting each row as one checked page.
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let manifest = self.manifest.as_ref();
        let mut report = VerifyReport::default();
        for file in manifest.map(|m| &m.archive).into_iter().chain(self.files()) {
            let r = file.verify()?;
            report.pages += r.pages;
            report.ok += r.ok;
            report.corrupt.extend(r.corrupt);
        }
        let Some(manifest) = manifest else {
            return Ok(report);
        };
        for day in manifest.archive.days(MANIFEST_COVERAGE_SOURCE) {
            let Some(cov) = manifest.archive.table(day, MANIFEST_COVERAGE_SOURCE)? else {
                continue;
            };
            let (src, r_lo, r_hi, d_lo, d_hi, w_lo, w_hi) = (
                cov.column_by_name("source"),
                cov.column_by_name("rows_lo"),
                cov.column_by_name("rows_hi"),
                cov.column_by_name("dp_lo"),
                cov.column_by_name("dp_hi"),
                cov.column_by_name("raw_lo"),
                cov.column_by_name("raw_hi"),
            );
            let (Some(src), Some(r_lo), Some(r_hi), Some(d_lo), Some(d_hi), Some(w_lo), Some(w_hi)) =
                (src, r_lo, r_hi, d_lo, d_hi, w_lo, w_hi)
            else {
                report.pages += 1;
                report.corrupt.push((day, MANIFEST_COVERAGE_SOURCE));
                continue;
            };
            for i in 0..cov.rows() {
                report.pages += 1;
                let source = src.get(i).map_or(u8::MAX, |&s| s.min(255) as u8);
                let want_rows = u64_of(
                    r_lo.get(i).copied().unwrap_or(0),
                    r_hi.get(i).copied().unwrap_or(0),
                );
                let want_dp = u64_of(
                    d_lo.get(i).copied().unwrap_or(0),
                    d_hi.get(i).copied().unwrap_or(0),
                );
                let want_raw = u64_of(
                    w_lo.get(i).copied().unwrap_or(0),
                    w_hi.get(i).copied().unwrap_or(0),
                );
                let meta = manifest.catalog.pages.get(&(day, source));
                let matches = meta.is_some_and(|m| {
                    m.rows == want_rows && m.data_points == want_dp && m.raw_bytes == want_raw
                });
                if matches {
                    report.ok += 1;
                } else {
                    report.corrupt.push((day, source));
                }
            }
        }
        Ok(report)
    }
}

/// The logical catalog of a sharded archive: page metadata summed across
/// the data files, uniques unioned, and `dict`. Fails unless every file
/// lists the same pages.
fn merge_catalogs(dict: &StringDict, first: &Archive, rest: &[Archive]) -> io::Result<Catalog> {
    let files = || std::iter::once(first).chain(rest);
    let mut catalog = Catalog::new();
    catalog.dict = dict.clone();
    for (&key, meta0) in &first.catalog().pages {
        let mut merged = PageMeta {
            day: meta0.day,
            source: meta0.source,
            offset: 0,
            len: 0,
            rows: 0,
            data_points: 0,
            raw_bytes: 0,
        };
        for file in files() {
            let meta = file.catalog().pages.get(&key).ok_or_else(|| {
                corrupt(&format!(
                    "page (day {}, source {}) missing from a shard",
                    key.0, key.1
                ))
            })?;
            merged.len += meta.len;
            merged.rows += meta.rows;
            merged.data_points += meta.data_points;
            merged.raw_bytes += meta.raw_bytes;
        }
        catalog.pages.insert(key, merged);
    }
    for file in files() {
        if file.catalog().pages.len() != first.catalog().pages.len() {
            return Err(corrupt("shard catalogs disagree on the page set"));
        }
        for (i, set) in file.catalog().uniques.iter().enumerate() {
            if catalog.uniques.len() <= i {
                catalog.uniques.resize_with(i + 1, Default::default);
            }
            if let Some(mine) = catalog.uniques.get_mut(i) {
                mine.extend(set.iter().copied());
            }
        }
    }
    Ok(catalog)
}
