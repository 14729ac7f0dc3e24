//! Read side: open an archive by its footer and serve CRC-checked,
//! optionally projected pages through the LRU cache.

// Untrusted-input module: page bytes come off disk and may be corrupt;
// reads must surface errors, never panic (enforced by dps-analyzer's
// panic-safety family and these lints).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::cache::{PageCache, PageKey};
use crate::catalog::{Catalog, PageMeta, SourceStats};
use crate::crc32::crc32;
use crate::format;
use dps_columnar::{StringDict, Table};
use dps_telemetry::{Counter, Histogram, Registry};
use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default page-cache capacity (decoded bytes).
pub const DEFAULT_CACHE_BYTES: usize = 256 << 20;

/// I/O and decode counters, updated by every page access. These are what
/// the acceptance tests assert on: projection must decode strictly fewer
/// bytes than full-table loads, and a warm cache must decode orders of
/// magnitude fewer pages on repeated passes.
#[derive(Default)]
pub struct Counters {
    /// Pages read from disk and decoded.
    pub pages_decoded: AtomicU64,
    /// Pages served from the cache.
    pub cache_hits: AtomicU64,
    /// Compressed bytes read from disk (page chunks + checksums).
    pub disk_bytes_read: AtomicU64,
    /// Decoded bytes materialised (4 bytes per decoded cell).
    pub decoded_bytes: AtomicU64,
}

/// A point-in-time copy of [`Counters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    /// Pages read from disk and decoded.
    pub pages_decoded: u64,
    /// Pages served from the cache.
    pub cache_hits: u64,
    /// Compressed bytes read from disk.
    pub disk_bytes_read: u64,
    /// Decoded bytes materialised.
    pub decoded_bytes: u64,
}

impl CounterSnapshot {
    /// Counter deltas since `earlier`.
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            pages_decoded: self.pages_decoded - earlier.pages_decoded,
            cache_hits: self.cache_hits - earlier.cache_hits,
            disk_bytes_read: self.disk_bytes_read - earlier.disk_bytes_read,
            decoded_bytes: self.decoded_bytes - earlier.decoded_bytes,
        }
    }
}

/// Telemetry handles mirroring [`Counters`] into a shared
/// [`Registry`]. Default handles are detached (no registry), so archives
/// opened without telemetry pay only uncontended atomic increments.
#[derive(Clone, Default)]
pub struct StoreMetrics {
    /// `store.cache.hits` — pages served from the page cache.
    pub cache_hits: Counter,
    /// `store.cache.misses` — pages fetched past the cache.
    pub cache_misses: Counter,
    /// `store.pages.decoded` — pages read from disk and decoded.
    pub pages_decoded: Counter,
    /// `store.bytes.read` — raw bytes read from disk.
    pub bytes_read: Counter,
    /// `store.footer.walks` — footer chains walked at open.
    pub footer_walks: Counter,
    /// `store.footer.chain` — commits per walked footer chain.
    pub footer_chain: Histogram,
}

impl StoreMetrics {
    /// Handles registered under the `store.*` names in `registry`.
    pub fn new(registry: &Registry) -> Self {
        Self {
            cache_hits: registry.counter("store.cache.hits"),
            cache_misses: registry.counter("store.cache.misses"),
            pages_decoded: registry.counter("store.pages.decoded"),
            bytes_read: registry.counter("store.bytes.read"),
            footer_walks: registry.counter("store.footer.walks"),
            footer_chain: registry.histogram("store.footer.chain"),
        }
    }
}

/// Result of a full-archive checksum validation.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Pages checked.
    pub pages: usize,
    /// Pages whose stored CRC32 matched.
    pub ok: usize,
    /// `(day, source)` of pages that failed.
    pub corrupt: Vec<(u32, u8)>,
}

impl VerifyReport {
    /// True when every page checksum matched.
    pub fn all_ok(&self) -> bool {
        self.corrupt.is_empty() && self.ok == self.pages
    }
}

/// A read-only handle on a committed archive file.
///
/// Opening reads only the footer catalog; pages are fetched lazily (and
/// checksum-verified) on access, through a sharded LRU cache of decoded
/// tables. The handle is `Sync`: a scan fans page decodes out over the
/// mapreduce worker pool (`Scanner::run_store` in `dps-core`).
pub struct Archive {
    file: File,
    catalog: Catalog,
    stats: Vec<SourceStats>,
    cache: PageCache,
    counters: Counters,
    metrics: StoreMetrics,
}

impl Archive {
    /// Opens `path` with the default page-cache capacity.
    pub fn open(path: &Path) -> io::Result<Self> {
        Self::open_with_cache(path, DEFAULT_CACHE_BYTES)
    }

    /// Opens `path` with a page cache bounded at `cache_bytes` decoded
    /// bytes (0 disables caching).
    pub fn open_with_cache(path: &Path, cache_bytes: usize) -> io::Result<Self> {
        Self::open_inner(path, cache_bytes, StoreMetrics::default())
    }

    /// Opens `path` publishing `store.*` metrics into `registry`.
    pub fn open_with_telemetry(
        path: &Path,
        cache_bytes: usize,
        registry: &Registry,
    ) -> io::Result<Self> {
        Self::open_inner(path, cache_bytes, StoreMetrics::new(registry))
    }

    fn open_inner(path: &Path, cache_bytes: usize, metrics: StoreMetrics) -> io::Result<Self> {
        let mut file = File::open(path)?;
        let footer = format::read_footer(&mut file)?;
        metrics.footer_walks.inc();
        metrics.footer_chain.observe(footer.chain_len);
        let stats = footer.catalog.stats();
        Ok(Self {
            file,
            catalog: footer.catalog,
            stats,
            cache: PageCache::new(cache_bytes),
            counters: Counters::default(),
            metrics,
        })
    }

    /// The footer catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The shared string dictionary.
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

    /// Counter values right now.
    pub fn counters(&self) -> CounterSnapshot {
        CounterSnapshot {
            pages_decoded: self.counters.pages_decoded.load(Ordering::Relaxed),
            cache_hits: self.counters.cache_hits.load(Ordering::Relaxed),
            disk_bytes_read: self.counters.disk_bytes_read.load(Ordering::Relaxed),
            decoded_bytes: self.counters.decoded_bytes.load(Ordering::Relaxed),
        }
    }

    /// Drops every cached page (cold-scan benchmarks).
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// The full table for `(day, source)`, if archived.
    pub fn table(&self, day: u32, source: u8) -> io::Result<Option<Arc<Table>>> {
        let Some(meta) = self.catalog.pages.get(&(day, source)) else {
            return Ok(None);
        };
        self.load(meta, None).map(Some)
    }

    /// A projected table for `(day, source)`: only `cols` are decoded.
    pub fn project(&self, day: u32, source: u8, cols: &[&str]) -> io::Result<Option<Arc<Table>>> {
        let Some(meta) = self.catalog.pages.get(&(day, source)) else {
            return Ok(None);
        };
        let cols: Vec<String> = cols.iter().map(|s| s.to_string()).collect();
        self.load(meta, Some(&cols)).map(Some)
    }

    /// The encoded table body of `(day, source)` exactly as stored,
    /// checksum-verified but not decoded (and never cached).
    pub fn page_bytes(&self, day: u32, source: u8) -> io::Result<Option<Vec<u8>>> {
        let Some(meta) = self.catalog.pages.get(&(day, source)) else {
            return Ok(None);
        };
        self.checked_body(meta).map(Some)
    }

    /// Validates every page checksum without decoding any table.
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let mut report = VerifyReport::default();
        for meta in self.catalog.pages.values() {
            report.pages += 1;
            let bytes = self.read_page_bytes(meta)?;
            if self.checksum_ok(&bytes) {
                report.ok += 1;
            } else {
                report.corrupt.push((meta.day, meta.source));
            }
        }
        Ok(report)
    }

    /// Reads one page's raw chunk + CRC trailer from disk. Positioned
    /// (`read_exact_at`) so concurrent scan threads never serialize on a
    /// shared cursor: each call carries its own offset into the kernel.
    fn read_page_bytes(&self, meta: &PageMeta) -> io::Result<Vec<u8>> {
        let total = usize::try_from(meta.len + format::PAGE_CRC_LEN)
            .map_err(|_| io::Error::other("dps-store: page too large for this platform"))?;
        let mut buf = vec![0u8; total];
        self.file.read_exact_at(&mut buf, meta.offset)?;
        self.counters
            .disk_bytes_read
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.metrics.bytes_read.add(buf.len() as u64);
        Ok(buf)
    }

    /// True if a raw page buffer's stored CRC matches its chunk. A buffer
    /// too short to even hold the CRC trailer fails the check.
    fn checksum_ok(&self, buf: &[u8]) -> bool {
        let Some(body_len) = buf.len().checked_sub(format::PAGE_CRC_LEN as usize) else {
            return false;
        };
        let (Some(body), Some(tail)) = (buf.get(..body_len), buf.get(body_len..)) else {
            return false;
        };
        let Ok(tail) = <[u8; 4]>::try_from(tail) else {
            return false;
        };
        crc32(body) == u32::from_le_bytes(tail)
    }

    /// Reads one page and returns its chunk with the CRC trailer removed,
    /// or an error if the stored CRC does not match.
    fn checked_body(&self, meta: &PageMeta) -> io::Result<Vec<u8>> {
        let mut buf = self.read_page_bytes(meta)?;
        if !self.checksum_ok(&buf) {
            return Err(io::Error::other(format!(
                "dps-store: page (day {}, source {}) checksum mismatch",
                meta.day, meta.source
            )));
        }
        buf.truncate(buf.len().saturating_sub(format::PAGE_CRC_LEN as usize));
        Ok(buf)
    }

    /// Fetches a page through the cache, reading + checksumming + decoding
    /// on miss.
    fn load(&self, meta: &PageMeta, projection: Option<&[String]>) -> io::Result<Arc<Table>> {
        let key: PageKey = (meta.day, meta.source, projection.map(<[String]>::to_vec));
        if let Some(table) = self.cache.get(&key) {
            self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            self.metrics.cache_hits.inc();
            return Ok(table);
        }
        self.metrics.cache_misses.inc();
        let body = self.checked_body(meta)?;
        let table = match projection {
            None => Table::from_bytes(&body),
            Some(cols) => {
                let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
                Table::from_bytes_projected(&body, &refs)
            }
        }
        .map_err(|e| {
            io::Error::other(format!(
                "dps-store: page (day {}, source {}) decode failed: {e}",
                meta.day, meta.source
            ))
        })?;
        let decoded = table.raw_len();
        self.counters.pages_decoded.fetch_add(1, Ordering::Relaxed);
        self.metrics.pages_decoded.inc();
        self.counters
            .decoded_bytes
            .fetch_add(decoded as u64, Ordering::Relaxed);
        let table = Arc::new(table);
        self.cache.insert(key, Arc::clone(&table), decoded);
        Ok(table)
    }
}
