//! Sharded multi-file archives: `archive.manifest` + N shard files.
//!
//! ```text
//! dir/archive.manifest      standard archive; real StringDict + per-day
//!                           coverage pages + an n_shards meta page
//! dir/archive.shard000.dps  standard archive; row range [0/N, 1/N) of
//! dir/archive.shard001.dps  every logical page, … empty dictionaries
//! ```
//!
//! Every logical page `(day, source)` is row-split across **all** shards
//! with the cluster-lease arithmetic (`start = rows·k/N`), so each shard's
//! catalog has exactly the logical key set and per-shard scan threads get
//! near-equal work without any placement directory. Shard files are
//! ordinary archives — the existing footer/CRC/torn-tail machinery guards
//! each one — whose dictionaries stay empty; the shared dictionary lives
//! in the manifest only, so it is stored once instead of N times.
//!
//! **Commit protocol**: every shard commits first, the manifest commits
//! last. The manifest's coverage pages therefore always describe a subset
//! of what the shards hold durably, and resume is a *rollback*: each
//! shard's footer chain is recovered commit-by-commit
//! ([`format::recover_chain`]) and truncated to the longest prefix whose
//! days the manifest vouches for. A crash at any point between the first
//! shard commit and the manifest commit rolls back to the previous day —
//! exactly the same re-measure-one-day cost as the single-file archive.
//!
//! [`StoreWriter`] / [`StoreReader`] wrap single-file and sharded layouts
//! behind one interface; [`StoreReader::open_auto`] picks the layout by
//! probing for the manifest. With one shard the writer degrades to the
//! plain single-file `archive.dps`, byte-identical to the historical
//! layout.

// Untrusted-input module: manifests and shard files may be torn or
// corrupt; recovery must degrade to errors, never panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::archive::{Archive, VerifyReport, DEFAULT_CACHE_BYTES};
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

/// A sharded archive being written. See the module docs for the layout
/// and the shards-then-manifest commit protocol.
pub struct ShardedWriter {
    manifest: ArchiveWriter,
    shards: Vec<ArchiveWriter>,
    /// Shard files never intern anything; their footers always commit
    /// this empty dictionary.
    shard_dict: StringDict,
    /// Coverage rows for days appended since the last commit.
    pending_coverage: BTreeMap<u32, Vec<CoverageRow>>,
}

impl ShardedWriter {
    /// Creates (truncating) a sharded archive with base path `base` and
    /// `n_shards` shard files.
    pub fn create_sharded(
        base: &Path,
        n_shards: u32,
        unique_key_column: Option<&str>,
    ) -> io::Result<Self> {
        if n_shards == 0 {
            return Err(io::Error::other("dps-store: n_shards must be at least 1"));
        }
        let mut manifest = ArchiveWriter::create(&manifest_path(base), None)?;
        manifest.append_table(META_DAY, MANIFEST_META_SOURCE, &meta_table(n_shards), 0)?;
        manifest.commit(&StringDict::new())?;
        let mut shards = Vec::with_capacity(n_shards as usize);
        for k in 0..n_shards {
            shards.push(ArchiveWriter::create(
                &shard_path(base, k),
                unique_key_column,
            )?);
        }
        Ok(Self {
            manifest,
            shards,
            shard_dict: StringDict::new(),
            pending_coverage: BTreeMap::new(),
        })
    }

    /// Resumes a sharded archive: recovers the manifest (the anchor of
    /// truth), then rolls every shard back to the longest chain prefix
    /// whose days the manifest covers. Fails if a shard is missing a day
    /// the manifest vouches for — that is data loss, not a torn tail.
    pub fn resume(base: &Path, unique_key_column: Option<&str>) -> io::Result<Self> {
        let mpath = manifest_path(base);
        let manifest = ArchiveWriter::resume(&mpath, None)?;
        // The writer does not read pages; reopen read-only for the meta
        // page now that the torn tail (if any) has been truncated.
        let n_shards = {
            let reader = Archive::open_with_cache(&mpath, 0)?;
            let meta = reader
                .table(META_DAY, MANIFEST_META_SOURCE)?
                .ok_or_else(|| corrupt("manifest has no meta page"))?;
            meta.column_by_name("n_shards")
                .and_then(|c| c.first().copied())
                .ok_or_else(|| corrupt("manifest meta page has no n_shards"))?
        };
        if n_shards == 0 {
            return Err(corrupt("manifest says 0 shards"));
        }
        let covered: BTreeSet<u32> = manifest
            .catalog()
            .pages
            .keys()
            .filter(|&&(_, s)| s == MANIFEST_COVERAGE_SOURCE)
            .map(|&(d, _)| d)
            .collect();
        let mut shards = Vec::with_capacity(n_shards as usize);
        for k in 0..n_shards {
            let path = shard_path(base, k);
            let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
            let commits = format::recover_chain(&mut file)?;
            // Longest prefix of commits whose pages are all covered by
            // the manifest; anything after it was committed to this shard
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
            shards.push(ArchiveWriter::from_recovered(
                file,
                catalog,
                trailer_end,
                unique_key_column,
            ));
        }
        Ok(Self {
            manifest,
            shards,
            shard_dict: StringDict::new(),
            pending_coverage: BTreeMap::new(),
        })
    }

    /// Number of shard files.
    pub fn n_shards(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The dictionary recovered from the manifest's last committed footer.
    pub fn dict(&self) -> &StringDict {
        self.manifest.dict()
    }

    /// True if a page for `(day, source)` is already present. Every shard
    /// holds a sub-page of every logical page, so shard 0 answers for all.
    pub fn contains(&self, day: u32, source: u8) -> bool {
        self.shards.first().is_some_and(|s| s.contains(day, source))
    }

    /// The last day with any committed or appended page.
    pub fn last_day(&self) -> Option<u32> {
        self.shards.first().and_then(ArchiveWriter::last_day)
    }

    /// Logical pages appended since the last commit.
    pub fn uncommitted_pages(&self) -> usize {
        self.shards
            .first()
            .map_or(0, ArchiveWriter::uncommitted_pages)
    }

    /// The logical page directory (shard 0's catalog — its key set is the
    /// logical key set by construction).
    pub fn page_keys(&self) -> Vec<(u32, u8)> {
        self.shards
            .first()
            .map(|s| s.catalog().pages.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Appends one logical table, row-split across all shards. The full
    /// `data_points` total is attributed to shard 0's sub-page so that
    /// summing shard page metadata reproduces exact logical totals.
    pub fn append_table(
        &mut self,
        day: u32,
        source: u8,
        table: &Table,
        data_points: u64,
    ) -> io::Result<()> {
        let rows = table.rows();
        let n = self.n_shards();
        for (k, shard) in self.shards.iter_mut().enumerate() {
            let (lo, hi) = shard_range(rows, k as u32, n);
            let sub = table.slice_rows(lo, hi);
            shard.append_table(day, source, &sub, if k == 0 { data_points } else { 0 })?;
        }
        self.pending_coverage
            .entry(day)
            .or_default()
            .push(CoverageRow {
                source,
                rows: rows as u64,
                data_points,
                raw_bytes: table.raw_len() as u64,
            });
        Ok(())
    }

    /// Commits everything appended so far: every shard first (with its
    /// permanently empty dictionary), then the manifest with this commit's
    /// coverage pages and the real `dict`. A crash between the two leaves
    /// shard commits the next [`resume`](Self::resume) rolls back.
    pub fn commit(&mut self, dict: &StringDict) -> io::Result<()> {
        for shard in &mut self.shards {
            shard.commit(&self.shard_dict)?;
        }
        for (day, rows) in std::mem::take(&mut self.pending_coverage) {
            self.manifest
                .append_table(day, MANIFEST_COVERAGE_SOURCE, &coverage_table(&rows), 0)?;
        }
        self.manifest.commit(dict)
    }
}

/// A read-only handle on a committed sharded archive: opens the manifest
/// plus every shard and synthesizes a merged logical [`Catalog`] (page
/// metadata summed across shards, uniques unioned, the manifest's
/// dictionary). Page offsets in the synthesized catalog are zero — reads
/// go through the per-shard archives, never through these metas.
pub struct ShardedArchive {
    manifest: Archive,
    shards: Vec<Archive>,
    catalog: Catalog,
    stats: Vec<SourceStats>,
}

impl ShardedArchive {
    /// Opens the sharded archive with base path `base` and default cache.
    pub fn open(base: &Path) -> io::Result<Self> {
        Self::open_with_cache(base, DEFAULT_CACHE_BYTES)
    }

    /// Opens with `cache_bytes` of decoded-page cache split evenly across
    /// the shards (0 disables caching).
    pub fn open_with_cache(base: &Path, cache_bytes: usize) -> io::Result<Self> {
        let manifest = Archive::open_with_cache(&manifest_path(base), 0)?;
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
        let per_shard_cache = cache_bytes / n_shards as usize;
        let mut shards = Vec::with_capacity(n_shards as usize);
        for k in 0..n_shards {
            shards.push(Archive::open_with_cache(
                &shard_path(base, k),
                per_shard_cache,
            )?);
        }
        let catalog = Self::merge_catalogs(&manifest, &shards)?;
        let stats = catalog.stats();
        Ok(Self {
            manifest,
            shards,
            catalog,
            stats,
        })
    }

    fn merge_catalogs(manifest: &Archive, shards: &[Archive]) -> io::Result<Catalog> {
        let mut catalog = Catalog::new();
        catalog.dict = manifest.dict().clone();
        let Some(first) = shards.first() else {
            return Err(corrupt("no shards"));
        };
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
            for shard in shards {
                let meta = shard.catalog().pages.get(&key).ok_or_else(|| {
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
        for shard in shards {
            if shard.catalog().pages.len() != first.catalog().pages.len() {
                return Err(corrupt("shard catalogs disagree on the page set"));
            }
            for (i, set) in shard.catalog().uniques.iter().enumerate() {
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

    /// Number of shard files.
    pub fn n_shards(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The synthesized logical catalog (summed metas, unioned uniques,
    /// the manifest's dictionary; offsets are zero).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The shared string dictionary (stored once, in the manifest).
    pub fn dict(&self) -> &StringDict {
        &self.catalog.dict
    }

    /// Source slots present (highest source id + 1).
    pub fn n_sources(&self) -> usize {
        self.catalog.n_sources()
    }

    /// Exact statistics for `source`, if it has any pages.
    pub fn stats(&self, source: u8) -> Option<&SourceStats> {
        self.stats.get(source as usize)
    }

    /// Days archived for `source`, ascending.
    pub fn days(&self, source: u8) -> Vec<u32> {
        self.catalog.days(source)
    }

    /// Sum of encoded page bytes across all shard files.
    pub fn total_stored_bytes(&self) -> u64 {
        self.catalog.total_stored_bytes()
    }

    /// The full logical table for `(day, source)`: every shard's sub-page
    /// stacked in shard order, which is original row order.
    pub fn table(&self, day: u32, source: u8) -> io::Result<Option<Arc<Table>>> {
        self.assemble(day, source, |shard| shard.table(day, source))
    }

    /// Like [`table`](Self::table) but decodes only the named columns.
    pub fn project(&self, day: u32, source: u8, cols: &[&str]) -> io::Result<Option<Arc<Table>>> {
        self.assemble(day, source, |shard| shard.project(day, source, cols))
    }

    /// One shard's sub-table of a logical page — the unit of parallel
    /// scan work.
    pub fn shard_table(&self, shard: u32, day: u32, source: u8) -> io::Result<Option<Arc<Table>>> {
        match self.shards.get(shard as usize) {
            Some(archive) => archive.table(day, source),
            None => Ok(None),
        }
    }

    fn assemble(
        &self,
        day: u32,
        source: u8,
        load: impl Fn(&Archive) -> io::Result<Option<Arc<Table>>>,
    ) -> io::Result<Option<Arc<Table>>> {
        if !self.catalog.pages.contains_key(&(day, source)) {
            return Ok(None);
        }
        let mut parts = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            parts.push(load(shard)?.ok_or_else(|| {
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

    /// Verifies every page checksum in the manifest and all shards, then
    /// cross-checks each coverage row against the summed shard metadata.
    /// Each coverage row counts as one checked page in the report.
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let mut report = self.manifest.verify()?;
        for shard in &self.shards {
            let r = shard.verify()?;
            report.pages += r.pages;
            report.ok += r.ok;
            report.corrupt.extend(r.corrupt);
        }
        for day in self.manifest.days(MANIFEST_COVERAGE_SOURCE) {
            let Some(cov) = self.manifest.table(day, MANIFEST_COVERAGE_SOURCE)? else {
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
                let meta = self.catalog.pages.get(&(day, source));
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

/// A writer over either archive layout, so the measurement pipeline is
/// layout-agnostic.
pub enum StoreWriter {
    /// The historical single-file `archive.dps`.
    Single(ArchiveWriter),
    /// Manifest + N shard files.
    Sharded(ShardedWriter),
}

impl StoreWriter {
    /// Creates (truncating) an archive at base path `path`: single-file
    /// when `shards <= 1`, sharded otherwise.
    pub fn create_store(
        path: &Path,
        shards: u32,
        unique_key_column: Option<&str>,
    ) -> io::Result<Self> {
        if shards <= 1 {
            Ok(Self::Single(ArchiveWriter::create(
                path,
                unique_key_column,
            )?))
        } else {
            Ok(Self::Sharded(ShardedWriter::create_sharded(
                path,
                shards,
                unique_key_column,
            )?))
        }
    }

    /// Resumes whichever layout exists at `path` (a manifest beats the
    /// requested shard count — an existing sharded archive is resumed as
    /// such even when the caller asks for 1), creating a fresh archive
    /// with `shards` shard files when nothing exists. Refuses a shard
    /// count that contradicts an existing archive.
    pub fn resume_or_create(
        path: &Path,
        shards: u32,
        unique_key_column: Option<&str>,
    ) -> io::Result<Self> {
        if manifest_path(path).exists() {
            let writer = ShardedWriter::resume(path, unique_key_column)?;
            if shards > 1 && writer.n_shards() != shards {
                return Err(io::Error::other(format!(
                    "dps-store: archive has {} shards but {} were requested",
                    writer.n_shards(),
                    shards
                )));
            }
            return Ok(Self::Sharded(writer));
        }
        if path.exists() {
            if shards > 1 {
                return Err(io::Error::other(
                    "dps-store: cannot resume a single-file archive with --shards > 1",
                ));
            }
            return Ok(Self::Single(ArchiveWriter::resume(
                path,
                unique_key_column,
            )?));
        }
        Self::create_store(path, shards, unique_key_column)
    }

    /// Number of shard files (1 for the single-file layout).
    pub fn n_shards(&self) -> u32 {
        match self {
            Self::Single(_) => 1,
            Self::Sharded(w) => w.n_shards(),
        }
    }

    /// The dictionary recovered from the last committed footer.
    pub fn dict(&self) -> &StringDict {
        match self {
            Self::Single(w) => w.dict(),
            Self::Sharded(w) => w.dict(),
        }
    }

    /// True if a page for `(day, source)` is already present.
    pub fn contains(&self, day: u32, source: u8) -> bool {
        match self {
            Self::Single(w) => w.contains(day, source),
            Self::Sharded(w) => w.contains(day, source),
        }
    }

    /// The last day with any committed or appended page.
    pub fn last_day(&self) -> Option<u32> {
        match self {
            Self::Single(w) => w.last_day(),
            Self::Sharded(w) => w.last_day(),
        }
    }

    /// True if no page has been committed or appended yet.
    pub fn is_empty(&self) -> bool {
        match self {
            Self::Single(w) => w.catalog().pages.is_empty(),
            Self::Sharded(w) => w.page_keys().is_empty(),
        }
    }

    /// Logical pages appended since the last commit.
    pub fn uncommitted_pages(&self) -> usize {
        match self {
            Self::Single(w) => w.uncommitted_pages(),
            Self::Sharded(w) => w.uncommitted_pages(),
        }
    }

    /// Appends one logical table (row-split across shards when sharded).
    pub fn append_table(
        &mut self,
        day: u32,
        source: u8,
        table: &Table,
        data_points: u64,
    ) -> io::Result<()> {
        match self {
            Self::Single(w) => w.append_table(day, source, table, data_points),
            Self::Sharded(w) => w.append_table(day, source, table, data_points),
        }
    }

    /// Commits everything appended so far (shards first, then the
    /// manifest, when sharded).
    pub fn commit(&mut self, dict: &StringDict) -> io::Result<()> {
        match self {
            Self::Single(w) => w.commit(dict),
            Self::Sharded(w) => w.commit(dict),
        }
    }
}

/// A read-only handle over either archive layout.
pub enum StoreReader {
    /// The historical single-file `archive.dps`.
    Single(Archive),
    /// Manifest + N shard files.
    Sharded(ShardedArchive),
}

impl StoreReader {
    /// Opens whichever layout exists at base path `path` with the default
    /// cache: sharded if a manifest sits next to it, single-file
    /// otherwise.
    pub fn open_auto(path: &Path) -> io::Result<Self> {
        Self::open_auto_with_cache(path, DEFAULT_CACHE_BYTES)
    }

    /// Like [`open_auto`](Self::open_auto) with an explicit cache budget
    /// (0 disables caching).
    pub fn open_auto_with_cache(path: &Path, cache_bytes: usize) -> io::Result<Self> {
        if manifest_path(path).exists() {
            Ok(Self::Sharded(ShardedArchive::open_with_cache(
                path,
                cache_bytes,
            )?))
        } else {
            Ok(Self::Single(Archive::open_with_cache(path, cache_bytes)?))
        }
    }

    /// True for the manifest + shard-files layout.
    pub fn is_sharded(&self) -> bool {
        matches!(self, Self::Sharded(_))
    }

    /// Number of shard files (1 for the single-file layout).
    pub fn n_shards(&self) -> u32 {
        match self {
            Self::Single(_) => 1,
            Self::Sharded(a) => a.n_shards(),
        }
    }

    /// The logical catalog (synthesized for the sharded layout).
    pub fn catalog(&self) -> &Catalog {
        match self {
            Self::Single(a) => a.catalog(),
            Self::Sharded(a) => a.catalog(),
        }
    }

    /// The shared string dictionary.
    pub fn dict(&self) -> &StringDict {
        match self {
            Self::Single(a) => a.dict(),
            Self::Sharded(a) => a.dict(),
        }
    }

    /// Source slots present (highest source id + 1).
    pub fn n_sources(&self) -> usize {
        match self {
            Self::Single(a) => a.n_sources(),
            Self::Sharded(a) => a.n_sources(),
        }
    }

    /// Exact statistics for `source`, if it has any pages.
    pub fn stats(&self, source: u8) -> Option<&SourceStats> {
        match self {
            Self::Single(a) => a.stats(source),
            Self::Sharded(a) => a.stats(source),
        }
    }

    /// Days archived for `source`, ascending.
    pub fn days(&self, source: u8) -> Vec<u32> {
        match self {
            Self::Single(a) => a.days(source),
            Self::Sharded(a) => a.days(source),
        }
    }

    /// Sum of encoded page bytes.
    pub fn total_stored_bytes(&self) -> u64 {
        match self {
            Self::Single(a) => a.total_stored_bytes(),
            Self::Sharded(a) => a.total_stored_bytes(),
        }
    }

    /// The full logical table for `(day, source)`, if archived.
    pub fn table(&self, day: u32, source: u8) -> io::Result<Option<Arc<Table>>> {
        match self {
            Self::Single(a) => a.table(day, source),
            Self::Sharded(a) => a.table(day, source),
        }
    }

    /// Like [`table`](Self::table) but decodes only the named columns.
    pub fn project(&self, day: u32, source: u8, cols: &[&str]) -> io::Result<Option<Arc<Table>>> {
        match self {
            Self::Single(a) => a.project(day, source, cols),
            Self::Sharded(a) => a.project(day, source, cols),
        }
    }

    /// The logical page `(day, source)` decoded once, with its encoded
    /// body: the same table and bytes whichever layout holds it. A
    /// single-file page is read as stored (checksum-verified) and decoded;
    /// a sharded page is assembled from its checksum-verified shard
    /// sub-pages and encoded once — the bytes a single-file archive of
    /// that table would store. A page that does not decode is an error.
    pub fn page(&self, day: u32, source: u8) -> io::Result<Option<(Arc<Table>, Vec<u8>)>> {
        match self {
            Self::Single(a) => {
                let Some(bytes) = a.page_bytes(day, source)? else {
                    return Ok(None);
                };
                let table = Table::from_bytes(&bytes).map_err(|e| {
                    corrupt(&format!(
                        "page (day {day}, source {source}) does not decode: {e}"
                    ))
                })?;
                Ok(Some((Arc::new(table), bytes)))
            }
            Self::Sharded(a) => Ok(a.table(day, source)?.map(|table| {
                let bytes = table.to_bytes();
                (table, bytes)
            })),
        }
    }

    /// One shard's sub-table of a logical page — the unit of parallel
    /// scan work. Shard 0 of a single-file archive is the whole page.
    pub fn shard_table(&self, shard: u32, day: u32, source: u8) -> io::Result<Option<Arc<Table>>> {
        match self {
            Self::Single(a) => {
                if shard == 0 {
                    a.table(day, source)
                } else {
                    Ok(None)
                }
            }
            Self::Sharded(a) => a.shard_table(shard, day, source),
        }
    }

    /// Verifies every page checksum (plus coverage cross-checks when
    /// sharded).
    pub fn verify(&self) -> io::Result<VerifyReport> {
        match self {
            Self::Single(a) => a.verify(),
            Self::Sharded(a) => a.verify(),
        }
    }
}
