//! # dps-store — single-file paged columnar archive
//!
//! The paper's Stage II is Parquet on a cluster filesystem: compact
//! per-day columnar tables that Stage III scans with column projection.
//! This crate is that storage engine for the reproduction: **one file**,
//! random access by footer catalog, bounded memory, restartable
//! collection.
//!
//! On disk (see [`format`](mod@format) for the exact layout): a magic header, then
//! row-group **pages** — one encoded `dps-columnar` table chunk each,
//! CRC32-checksummed — then a footer **catalog** mapping `(day, source)`
//! to byte ranges, row counts and exact per-source statistics, plus the
//! interned string dictionary. Opening an archive reads only the footer.
//!
//! Three moving parts on top of the format:
//!
//! * [`ArchiveWriter`] — streaming writes with per-day durable commits;
//!   a killed sweep resumes from its last committed footer instead of
//!   day 0 (the footer is re-located by backward scan if the tail is
//!   torn).
//! * [`Archive`] — the read handle: CRC-checked lazy page loads through a
//!   sharded LRU [`PageCache`] keyed by `(day, source, projection)`, with
//!   [`ScanQuery`] pruning (day/source predicates skip pages entirely)
//!   and projection (only the touched columns are decoded).
//! * [`CounterSnapshot`] — per-archive I/O and decode counters, so tests
//!   and benchmarks can assert that projection and caching actually avoid
//!   work.
//!
//! ```
//! use dps_columnar::{Schema, TableBuilder};
//! use dps_store::{Archive, ArchiveWriter, ScanQuery};
//!
//! let path = std::env::temp_dir().join("dps-store-doctest.dps");
//! let mut writer = ArchiveWriter::create(&path, Some("entry")).unwrap();
//! let mut b = TableBuilder::new(Schema::new(&["day", "entry", "asn"]));
//! b.push_row(&[0, 10, 13335]);
//! b.push_row(&[0, 12, 19551]);
//! let dict = dps_columnar::StringDict::new();
//! writer.append_table(0, 0, &b.finish(), 10).unwrap();
//! writer.commit(&dict).unwrap();
//!
//! let archive = Archive::open(&path).unwrap();
//! assert_eq!(archive.stats(0).unwrap().data_points, 10);
//! let items = archive.scan(&ScanQuery::all().columns(&["asn"])).unwrap();
//! assert_eq!(items[0].table.column_by_name("asn").unwrap(), &[13335, 19551]);
//! std::fs::remove_file(&path).ok();
//! ```

pub mod archive;
pub mod cache;
pub mod catalog;
pub mod crc32;
pub mod format;
pub mod sharded;
pub mod writer;

pub use archive::{Archive, CounterSnapshot, ScanItem, ScanQuery, StoreMetrics, VerifyReport};
pub use cache::PageCache;
pub use catalog::{Catalog, PageMeta, SourceStats};
pub use sharded::{ShardedArchive, ShardedWriter, StoreReader, StoreWriter};
pub use writer::ArchiveWriter;
