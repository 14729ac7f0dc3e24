//! The streaming archive writer: append pages as days are measured,
//! commit a durable footer after each day, resume from the last durable
//! footer after a crash.

use crate::catalog::{Catalog, CatalogDelta, PageMeta};
use crate::crc32::crc32;
use crate::format::{self, FOOTER_MAGIC, HEADER_MAGIC, PAGE_CRC_LEN, TRAILER_LEN};
use dps_columnar::{StringDict, Table};
use std::collections::BTreeSet;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;

/// A single-file archive being written (or appended to after a resume).
///
/// Commit protocol (log-structured): pages append after the last durable
/// trailer; [`commit`](Self::commit) fsyncs the page region, appends a
/// footer holding only this commit's *delta* (new pages, new unique key
/// ids, dictionary tail) plus a back-pointer to the previous trailer,
/// and fsyncs again. Earlier footers stay embedded — they are the rest
/// of the chain, not dead bytes — so a crash at *any* point can only
/// tear bytes after the last durable trailer. [`resume`](Self::resume)
/// recovers that trailer, truncates the torn tail, and the sweep
/// re-measures from the next day. A resumed sweep therefore produces a
/// byte-identical file to an uninterrupted one.
pub struct ArchiveWriter {
    file: File,
    catalog: Catalog,
    /// Where the next byte (page or footer) is appended.
    data_end: u64,
    /// Column whose unique values are tracked per source (e.g. `"entry"`).
    unique_key_column: Option<String>,
    /// Pages appended since the last commit.
    pending_pages: Vec<PageMeta>,
    /// Unique key ids first observed since the last commit.
    pending_uniques: Vec<BTreeSet<u32>>,
    /// Dictionary length as of the last durable footer.
    committed_dict_len: u64,
    /// `trailer_end` of the last durable footer (0 = none yet, the
    /// first-footer sentinel in the chain's back-pointer).
    prev_trailer_end: u64,
    /// Whether any footer has been written to this file yet.
    committed_once: bool,
}

impl ArchiveWriter {
    /// Creates (truncating) a new archive at `path`. `unique_key_column`
    /// names the table column whose distinct values are accumulated into
    /// the per-source statistics, if any.
    pub fn create(path: &Path, unique_key_column: Option<&str>) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(HEADER_MAGIC)?;
        let catalog = Catalog::new();
        let committed_dict_len = catalog.dict.len() as u64;
        Ok(Self {
            file,
            catalog,
            data_end: 8,
            unique_key_column: unique_key_column.map(str::to_owned),
            pending_pages: Vec::new(),
            pending_uniques: Vec::new(),
            committed_dict_len,
            prev_trailer_end: 0,
            committed_once: false,
        })
    }

    /// Opens an existing archive for appending, recovering the last durable
    /// footer (tolerating a torn tail from a killed writer) and truncating
    /// everything after it. Fails if `path` is not a valid archive.
    pub fn resume(path: &Path, unique_key_column: Option<&str>) -> io::Result<Self> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let footer = format::recover_footer(&mut file)?;
        // Drop any torn bytes written after the last durable trailer.
        file.set_len(footer.trailer_end)?;
        let committed_dict_len = footer.catalog.dict.len() as u64;
        Ok(Self {
            file,
            catalog: footer.catalog,
            data_end: footer.trailer_end,
            unique_key_column: unique_key_column.map(str::to_owned),
            pending_pages: Vec::new(),
            pending_uniques: Vec::new(),
            committed_dict_len,
            prev_trailer_end: footer.trailer_end,
            committed_once: true,
        })
    }

    /// Builds a writer from an already-recovered state: `file` truncated
    /// to `trailer_end` (8 = fresh, nothing committed) and `catalog` the
    /// merged result of the surviving chain prefix. The sharded store uses
    /// this after rolling a shard back to the prefix its manifest covers.
    pub(crate) fn from_recovered(
        file: File,
        catalog: Catalog,
        trailer_end: u64,
        unique_key_column: Option<&str>,
    ) -> Self {
        let committed_once = trailer_end > 8;
        let committed_dict_len = catalog.dict.len() as u64;
        Self {
            file,
            catalog,
            data_end: trailer_end.max(8),
            unique_key_column: unique_key_column.map(str::to_owned),
            pending_pages: Vec::new(),
            pending_uniques: Vec::new(),
            committed_dict_len,
            prev_trailer_end: if committed_once { trailer_end } else { 0 },
            committed_once,
        }
    }

    /// Resumes if `path` exists, creates otherwise.
    pub fn resume_or_create(path: &Path, unique_key_column: Option<&str>) -> io::Result<Self> {
        if path.exists() {
            Self::resume(path, unique_key_column)
        } else {
            Self::create(path, unique_key_column)
        }
    }

    /// The catalog as of the pages appended so far.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The dictionary recovered from the last committed footer (empty for
    /// a fresh archive). A resuming sweep must continue interning into a
    /// clone of this so dictionary ids stay identical to an uninterrupted
    /// run.
    pub fn dict(&self) -> &StringDict {
        &self.catalog.dict
    }

    /// True if a page for `(day, source)` is already present.
    pub fn contains(&self, day: u32, source: u8) -> bool {
        self.catalog.pages.contains_key(&(day, source))
    }

    /// The last day with any committed or appended page.
    pub fn last_day(&self) -> Option<u32> {
        self.catalog.pages.keys().map(|&(d, _)| d).max()
    }

    /// Appends one encoded table as a page. Duplicate `(day, source)`
    /// pages are an error — the archive is append-only per cell.
    pub fn append_table(
        &mut self,
        day: u32,
        source: u8,
        table: &Table,
        data_points: u64,
    ) -> io::Result<()> {
        self.append_rows(day, source, table, 0..table.rows(), data_points)
    }

    /// Appends rows `rows` of `table` (clamped to it) as a page: the page
    /// [`append_table`](Self::append_table) writes for
    /// `table.slice_rows(rows.start, rows.end)`, without the copy.
    pub(crate) fn append_rows(
        &mut self,
        day: u32,
        source: u8,
        table: &Table,
        rows: std::ops::Range<usize>,
        data_points: u64,
    ) -> io::Result<()> {
        if self.contains(day, source) {
            return Err(io::Error::other(format!(
                "dps-store: page (day {day}, source {source}) already archived"
            )));
        }
        let start = rows.start.min(table.rows());
        let end = rows.end.clamp(start, table.rows());
        let bytes = table.rows_to_bytes(start, end);
        self.file.seek(SeekFrom::Start(self.data_end))?;
        self.file.write_all(&bytes)?;
        self.file.write_all(&crc32(&bytes).to_le_bytes())?;
        let meta = PageMeta {
            day,
            source,
            offset: self.data_end,
            len: bytes.len() as u64,
            rows: (end - start) as u64,
            data_points,
            raw_bytes: (4 * (end - start) * table.schema().width()) as u64,
        };
        self.data_end += meta.len + PAGE_CRC_LEN;
        self.catalog.pages.insert((day, source), meta.clone());
        self.pending_pages.push(meta);
        if let Some(col) = self
            .unique_key_column
            .as_deref()
            .and_then(|name| table.column_by_name(name))
            .and_then(|col| col.get(start..end))
        {
            let idx = source as usize;
            if self.catalog.uniques.len() <= idx {
                self.catalog.uniques.resize_with(idx + 1, Default::default);
            }
            if self.pending_uniques.len() <= idx {
                self.pending_uniques.resize_with(idx + 1, Default::default);
            }
            if let (Some(all), Some(pending)) = (
                self.catalog.uniques.get_mut(idx),
                self.pending_uniques.get_mut(idx),
            ) {
                for &id in col {
                    // Only ids *first seen* by this commit go into its delta.
                    if all.insert(id) {
                        pending.insert(id);
                    }
                }
            }
        }
        Ok(())
    }

    /// Pages appended since the last commit.
    pub fn uncommitted_pages(&self) -> usize {
        self.pending_pages.len()
    }

    /// Commits everything appended so far: fsyncs the page region, appends
    /// a footer carrying this commit's catalog delta (including the tail
    /// of `dict` since the previous commit) and its trailer, and fsyncs
    /// again. After this returns, a crash loses nothing committed. A
    /// commit with no new pages and no new dictionary entries is a no-op
    /// (the durable footer chain already describes the file).
    pub fn commit(&mut self, dict: &StringDict) -> io::Result<()> {
        let dict_len = dict.len() as u64;
        if dict_len < self.committed_dict_len {
            return Err(io::Error::other(
                "dps-store: commit dictionary is shorter than the committed one",
            ));
        }
        if self.pending_pages.is_empty()
            && dict_len == self.committed_dict_len
            && self.committed_once
        {
            return Ok(());
        }
        let mut dict_tail = Vec::with_capacity((dict_len - self.committed_dict_len) as usize);
        for id in self.committed_dict_len..dict_len {
            let s = dict.resolve(id as u32).ok_or_else(|| {
                io::Error::other("dps-store: commit dictionary has a hole in its tail")
            })?;
            dict_tail.push(s.to_owned());
        }
        // Barrier 1: the pages a footer is about to reference must be
        // durable before that footer can become the recovery point.
        self.file.sync_data()?;
        let delta = CatalogDelta {
            pages: std::mem::take(&mut self.pending_pages),
            uniques: std::mem::take(&mut self.pending_uniques),
            dict_base: self.committed_dict_len,
            dict_tail,
        };
        let footer = delta.encode();
        let mut tail = Vec::with_capacity(footer.len() + TRAILER_LEN as usize);
        tail.extend_from_slice(&footer);
        tail.extend_from_slice(&crc32(&footer).to_le_bytes());
        tail.extend_from_slice(&(footer.len() as u64).to_le_bytes());
        tail.extend_from_slice(&self.prev_trailer_end.to_le_bytes());
        tail.extend_from_slice(FOOTER_MAGIC);
        self.file.seek(SeekFrom::Start(self.data_end))?;
        self.file.write_all(&tail)?;
        // Barrier 2: the footer itself. Later pages append after it.
        self.file.sync_data()?;
        self.data_end += tail.len() as u64;
        self.prev_trailer_end = self.data_end;
        for s in &delta.dict_tail {
            self.catalog.dict.intern(s);
        }
        self.committed_dict_len = dict_len;
        self.committed_once = true;
        Ok(())
    }
}
